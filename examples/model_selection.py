#!/usr/bin/env python
"""Model search + AutoML (the paper's Appendix A.E / A.F examples).

Part 1 — hyperparameter search for a wide-and-deep model (Code 6):
train five TensorFlow jobs at different batch sizes with ``couler.map``,
then fan out evaluation steps over the resulting models.

Part 2 — AutoML model selection (Code 7): train XGBoost and LightGBM
concurrently over the same telco-churn table and pick the best.

Run:  python examples/model_selection.py
"""

from repro import couler
from repro.core.step_zoo import Dataset, lightgbm, tensorflow as tf, xgboost


def run_multiple_jobs(num_jobs: int):
    """Paper Code 6: one training job per batch size."""
    batch_sizes = [100 * (index + 1) for index in range(num_jobs)]
    return couler.map(
        lambda bs: tf.train(
            num_ps=1,
            num_workers=1,
            command="python /train_model.py",
            image="wide-deep-model:v1.0",
            input_batch_size=bs,
        ),
        batch_sizes,
    )


def main() -> None:
    # ---- Part 1: searching the best batch size ---------------------------
    couler.reset_context("model-search")
    model_paths = run_multiple_jobs(5)
    couler.map(lambda model: tf.evaluate(model), model_paths)
    record = couler.run(submitter=couler.ArgoSubmitter())
    print(
        f"[model-search] phase={record.phase.value} "
        f"steps={len(record.steps)} makespan={record.makespan:.0f}s"
    )

    # ---- Part 2: AutoML over two model families (Code 7) -----------------
    couler.reset_context("automl")
    train_data = Dataset(
        table_name="pai_telco_demo_data",
        feature_cols="tenure, age, marital, address, ed, employ",
        label_col="churn",
    )

    def train_xgboost():
        return xgboost.train(
            datasource=train_data,
            model_params={"objective": "binary:logistic"},
            train_params={"num_boost_round": 10, "max_depth": 5},
            image="xgboost-image",
        )

    def train_lgbm():
        estimator = lightgbm.LightGBMEstimator()
        estimator.set_hyperparameters(num_leaves=63, num_iterations=200)
        estimator.model_path = "lightgbm_model"
        return estimator.fit(train_data)

    couler.concurrent([train_xgboost, train_lgbm])
    record = couler.run(submitter=couler.ArgoSubmitter())
    print(f"[automl] phase={record.phase.value} steps={sorted(record.steps)}")


if __name__ == "__main__":
    main()
