"""Tekton Pipelines backend: IR -> Tekton ``Pipeline``/``PipelineRun``.

Tekton models a workflow as a ``Pipeline`` of tasks with ``runAfter``
dependencies; each IR node becomes an inline task spec with a single
step.  Conditions compile to ``when`` expressions on the pipeline task.
"""

from __future__ import annotations

from typing import List

from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode, OpKind
from .base import Backend, BackendInfo, register_backend


def _task_for(node: IRNode) -> dict:
    step: dict = {"name": "main", "image": node.image}
    if node.op == OpKind.SCRIPT:
        step["script"] = node.source or ""
    else:
        if node.command:
            step["command"] = list(node.command)
        if node.args:
            step["args"] = [str(a) for a in node.args]
    requests = node.resources.to_dict()
    if requests:
        step["computeResources"] = {"requests": requests}
    task: dict = {
        "name": node.name,
        "taskSpec": {"steps": [step]},
    }
    if node.op == OpKind.JOB:
        task["taskSpec"]["description"] = f"distributed job: {node.job_params}"
    return task


@register_backend
class TektonBackend(Backend):
    """IR -> Tekton Pipeline + PipelineRun manifests."""

    info = BackendInfo(name="tekton", output_format="yaml", api_coverage=0.55)

    def compile(self, ir: WorkflowIR) -> dict:
        ir = self.prepare(ir)
        tasks: List[dict] = []
        parents_of = ir.parents_map()
        for name in ir.topological_order():
            node = ir.nodes[name]
            task = _task_for(node)
            parents = parents_of[name]
            if parents:
                task["runAfter"] = parents
            if node.when:
                task["when"] = [
                    {
                        "input": node.when.split(" ")[0],
                        "operator": "in",
                        "values": [node.when.split(" ")[-1]],
                    }
                ]
            tasks.append(task)
        pipeline = {
            "apiVersion": "tekton.dev/v1",
            "kind": "Pipeline",
            "metadata": {"name": ir.name},
            "spec": {"tasks": tasks},
        }
        run = {
            "apiVersion": "tekton.dev/v1",
            "kind": "PipelineRun",
            "metadata": {"name": f"{ir.name}-run"},
            "spec": {"pipelineRef": {"name": ir.name}},
        }
        return {"pipeline": pipeline, "pipelineRun": run}
