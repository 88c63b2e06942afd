"""Unit tests for the Argo / Airflow / Tekton backends."""

import ast

import pytest
import yaml

from repro import couler
from repro.backends import (
    AirflowBackend,
    ArgoBackend,
    TektonBackend,
    available_backends,
    make_backend,
)
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.k8s.resources import ResourceQuantity


def _sample_ir() -> WorkflowIR:
    couler.reset_context("backends")
    flip = couler.run_script(
        image="python:alpine3.6", source="print('heads')", step_name="flip"
    )
    couler.when(
        couler.equal(flip, "heads"),
        lambda: couler.run_container(
            image="alpine:3.6", command=["sh", "-c"], step_name="heads"
        ),
    )
    return couler.workflow_ir()


class TestRegistry:
    def test_all_engines_registered(self):
        info = available_backends()
        assert set(info) == {"airflow", "argo", "tekton"}
        # The paper's coverage claims.
        assert info["argo"].api_coverage >= 0.9
        assert 0.4 <= info["airflow"].api_coverage <= 0.5

    def test_make_backend(self):
        assert isinstance(make_backend("argo"), ArgoBackend)
        with pytest.raises(ValueError):
            make_backend("jenkins")


class TestArgoBackend:
    def test_manifest_structure(self):
        manifest = ArgoBackend().compile(_sample_ir())
        assert manifest["apiVersion"] == "argoproj.io/v1alpha1"
        assert manifest["kind"] == "Workflow"
        spec = manifest["spec"]
        assert spec["entrypoint"] == "main"
        template_names = {t["name"] for t in spec["templates"]}
        assert {"flip", "heads", "main"} <= template_names

    def test_dag_tasks_carry_dependencies_and_when(self):
        manifest = ArgoBackend().compile(_sample_ir())
        main = next(t for t in manifest["spec"]["templates"] if t["name"] == "main")
        tasks = {t["name"]: t for t in main["dag"]["tasks"]}
        assert tasks["heads"]["dependencies"] == ["flip"]
        assert tasks["heads"]["when"] == "{{flip.result}} == heads"

    def test_script_template_embeds_source(self):
        manifest = ArgoBackend().compile(_sample_ir())
        flip = next(t for t in manifest["spec"]["templates"] if t["name"] == "flip")
        assert "script" in flip
        assert "print" in flip["script"]["source"]

    def test_yaml_text_is_valid_yaml(self):
        text = ArgoBackend().compile_to_text(_sample_ir())
        assert yaml.safe_load(text)["kind"] == "Workflow"


class TestAirflowBackend:
    def test_generated_source_is_valid_python(self):
        source = AirflowBackend().compile(_sample_ir())
        ast.parse(source)  # must not raise

    def test_operators_and_wiring_present(self):
        source = AirflowBackend().compile(_sample_ir())
        assert "PythonOperator" in source
        assert "KubernetesPodOperator" in source
        assert "flip >> heads" in source
        assert "ShortCircuitOperator" in source  # conditional guard

    def test_dag_id_matches_workflow(self):
        source = AirflowBackend().compile(_sample_ir())
        assert "dag_id='backends'" in source


class TestTektonBackend:
    def test_pipeline_structure(self):
        compiled = TektonBackend().compile(_sample_ir())
        pipeline = compiled["pipeline"]
        assert pipeline["apiVersion"] == "tekton.dev/v1"
        tasks = {t["name"]: t for t in pipeline["spec"]["tasks"]}
        assert tasks["heads"]["runAfter"] == ["flip"]
        assert tasks["heads"]["when"][0]["operator"] == "in"

    def test_run_references_pipeline(self):
        compiled = TektonBackend().compile(_sample_ir())
        assert compiled["pipelineRun"]["spec"]["pipelineRef"]["name"] == "backends"


class TestResourceRendering:
    def test_requests_rendered_in_argo(self):
        ir = WorkflowIR(name="res")
        ir.add_node(
            IRNode(
                name="fat",
                op=OpKind.CONTAINER,
                image="x",
                resources=ResourceQuantity(cpu=4.0, memory=8 * 2**30, gpu=1),
                sim=SimHint(duration_s=1),
            )
        )
        manifest = ArgoBackend().compile(ir)
        template = next(t for t in manifest["spec"]["templates"] if t["name"] == "fat")
        requests = template["container"]["resources"]["requests"]
        assert requests["cpu"] == "4"
        assert requests["memory"] == "8Gi"
        assert requests["nvidia.com/gpu"] == 1
