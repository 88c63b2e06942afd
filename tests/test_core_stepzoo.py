"""Unit tests for the step zoo (TensorFlow / XGBoost / LightGBM / PyTorch)."""

from repro import couler
from repro.core.step_zoo import Dataset, lightgbm, pytorch, tensorflow, xgboost
from repro.ir.nodes import OpKind


class TestDataset:
    def test_feature_list_parses_csv(self):
        data = Dataset(table_name="t", feature_cols="a, b ,c", label_col="y")
        assert data.feature_list() == ["a", "b", "c"]

    def test_input_artifact_has_stable_uid(self):
        data = Dataset(table_name="pai_telco_demo_data")
        artifact = data.as_input_artifact()
        assert artifact.uid == "external/table/pai_telco_demo_data"


class TestTensorflow:
    def test_train_creates_tfjob(self):
        couler.reset_context("tfz")
        out = tensorflow.train(
            command="python /train_model.py",
            image="wide-deep-model:v1.0",
            num_ps=1,
            num_workers=2,
            input_batch_size=100,
        )
        node = couler.workflow_ir(optimize=False).nodes[out.step_name]
        assert node.op == OpKind.JOB
        assert node.job_params["kind"] == "TFJob"
        assert out.artifact is not None

    def test_model_search_pipeline_matches_paper_code_6(self):
        couler.reset_context("search")
        batch_sizes = [100, 200, 300, 400, 500]
        models = couler.map(
            lambda bs: tensorflow.train(
                command="python /train_model.py",
                image="wide-deep-model:v1.0",
                input_batch_size=bs,
            ),
            batch_sizes,
        )
        couler.map(lambda m: tensorflow.evaluate(m), models)
        ir = couler.workflow_ir(optimize=False)
        assert len(ir.nodes) == 10
        assert len(ir.edges) == 5  # each eval depends on its model only


class TestBoostedTrees:
    def test_automl_pipeline_matches_paper_code_7(self):
        couler.reset_context("automl")
        data = Dataset(
            table_name="pai_telco_demo_data",
            feature_cols="tenure, age, marital, address, ed, employ",
            label_col="churn",
        )

        def train_xgboost():
            return xgboost.train(
                datasource=data,
                model_params={"objective": "binary:logistic"},
                train_params={"num_boost_round": 10, "max_depth": 5},
            )

        def train_lgbm():
            estimator = lightgbm.LightGBMEstimator()
            estimator.set_hyperparameters(num_leaves=63, num_iterations=200)
            estimator.model_path = "lightgbm_model"
            return estimator.fit(data)

        couler.concurrent([train_xgboost, train_lgbm])
        ir = couler.workflow_ir(optimize=False)
        assert set(ir.nodes) == {"xgboost-train", "lightgbm-train"}
        assert not ir.edges  # concurrent -> no inter-dependency
        xgb = ir.nodes["xgboost-train"]
        assert "--num_boost_round=10" in xgb.args
        lgb = ir.nodes["lightgbm-train"]
        assert "--num_leaves=63" in lgb.args


class TestPytorch:
    def test_gpu_training_job(self):
        couler.reset_context("torch")
        out = pytorch.train(command="python train.py", image="vit:v1", num_workers=2)
        node = couler.workflow_ir(optimize=False).nodes[out.step_name]
        assert node.job_params["kind"] == "PyTorchJob"
        assert node.resources.gpu == 2
        assert node.sim.uses_gpu
