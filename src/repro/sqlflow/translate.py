"""SQLFlow -> Couler IR translation (paper Appendix B.E).

"Typically, a SQLFlow SQL statement is converted into Couler
programming code, which then initiates a workflow in Kubernetes" —
Couler is SQLFlow's default backend.  A TRAIN statement lowers to a
three-step workflow (extract data -> train -> save model); a PREDICT
statement lowers to extract -> predict -> write results.
"""

from __future__ import annotations

from typing import Optional

from ..core import api as couler
from ..ir.graph import WorkflowIR
from ..ir.nodes import ArtifactDecl, ArtifactStorage, SimHint
from ..k8s.resources import ResourceQuantity
from typing import List

from .parser import PredictStatement, Statement, TrainStatement, parse, parse_many


def _extract_step(table: str, columns, size_bytes: int) -> couler.StepOutput:
    select = ", ".join(columns) if columns else "*"
    return couler.run_container(
        image="sqlflow-extract:v1",
        command=["python", "extract.py"],
        args=[f"--query=SELECT {select} FROM {table}"],
        step_name=f"extract-{table.replace('.', '-')}",
        output=ArtifactDecl(
            name="rows",
            storage=ArtifactStorage.OSS,
            path=f"/data/{table}",
            size_bytes=size_bytes,
        ),
        sim=SimHint(duration_s=120.0),
    )


def translate_train(statement: TrainStatement) -> couler.StepOutput:
    """Lower a TRAIN statement onto the current Couler context."""
    rows = _extract_step(statement.table, statement.select_columns, 256 * 2**20)
    attributes = [f"--{k}={v}" for k, v in sorted(statement.attributes.items())]
    model = couler.run_container(
        image="sqlflow-train:v1",
        command=["python", "train.py"],
        args=[f"--estimator={statement.estimator}"]
        + attributes
        + [f"--features={','.join(statement.feature_columns)}"]
        + ([f"--label={statement.label}"] if statement.label else []),
        step_name=f"train-{statement.estimator.lower()}",
        resources=ResourceQuantity(cpu=4.0, memory=8 * 2**30),
        input=rows,
        output=ArtifactDecl(
            name="model",
            storage=ArtifactStorage.OSS,
            path=f"/models/{statement.into or statement.estimator}",
            size_bytes=128 * 2**20,
        ),
        sim=SimHint(duration_s=600.0),
    )
    if statement.into:
        return couler.run_container(
            image="sqlflow-save:v1",
            command=["python", "save_model.py"],
            args=[f"--into={statement.into}"],
            step_name="save-model",
            input=model,
            sim=SimHint(duration_s=30.0),
        )
    return model


def translate_predict(statement: PredictStatement) -> couler.StepOutput:
    """Lower a PREDICT statement onto the current Couler context."""
    rows = _extract_step(statement.table, statement.select_columns, 128 * 2**20)
    prediction = couler.run_container(
        image="sqlflow-predict:v1",
        command=["python", "predict.py"],
        args=[f"--model={statement.model}", f"--result={statement.result_table}"],
        step_name="predict",
        resources=ResourceQuantity(cpu=2.0, memory=4 * 2**30),
        input=rows,
        output=ArtifactDecl(
            name="predictions",
            storage=ArtifactStorage.OSS,
            path=f"/data/{statement.result_table}",
            size_bytes=64 * 2**20,
        ),
        sim=SimHint(duration_s=180.0),
    )
    return couler.run_container(
        image="sqlflow-write:v1",
        command=["python", "write_results.py"],
        args=[f"--table={statement.result_table}"],
        step_name="write-results",
        input=prediction,
        sim=SimHint(duration_s=60.0),
    )


def sql_to_ir(sql: str, workflow_name: Optional[str] = None) -> WorkflowIR:
    """Parse one SQLFlow statement and return the compiled workflow IR."""
    return statement_to_ir(parse(sql), workflow_name)


def sql_script_to_irs(script: str) -> List[WorkflowIR]:
    """Translate a ``;``-separated SQLFlow script, one workflow per
    statement (the paper's train-then-predict pipelines)."""
    return [statement_to_ir(statement) for statement in parse_many(script)]


def statement_to_ir(
    statement: Statement, workflow_name: Optional[str] = None
) -> WorkflowIR:
    """Lower one parsed statement to a workflow IR."""
    name = workflow_name or (
        f"sqlflow-train-{statement.estimator.lower()}"
        if isinstance(statement, TrainStatement)
        else "sqlflow-predict"
    )
    couler.reset_context(name)
    try:
        if isinstance(statement, TrainStatement):
            translate_train(statement)
        else:
            translate_predict(statement)
        return couler.workflow_ir(optimize=False)
    finally:
        couler.reset_context()
