"""Argo Workflows backend: IR -> Argo ``Workflow`` CRD manifest.

Produces the YAML-equivalent dict the simulated operator consumes
(``repro.engine.spec.parse_argo_manifest``): one container/script
template per IR node carrying the ``sim/step-profile`` annotation, plus
a DAG entrypoint template with tasks, dependencies and ``when`` clauses.
"""

from __future__ import annotations

import json
from typing import List

from ..engine.spec import SIM_ANNOTATION
from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode, OpKind
from .base import Backend, BackendInfo, register_backend


def _artifact_specs(node: IRNode, which: str) -> List[dict]:
    decls = node.inputs if which == "inputs" else node.outputs
    return [
        {
            "uid": a.uid or f"external/{a.name}",
            "size_bytes": a.size_bytes,
            "kind": a.storage.value,
        }
        for a in decls
    ]


def _template_for(node: IRNode) -> dict:
    """One Argo template per IR node."""
    profile = {
        "result_options": list(node.sim.result_options),
        "duration_s": node.sim.duration_s,
        "inputs": _artifact_specs(node, "inputs"),
        "outputs": _artifact_specs(node, "outputs"),
        "failure_rate": node.sim.failure_rate,
        "failure_pattern": node.sim.failure_pattern,
        "uses_gpu": node.sim.uses_gpu,
    }
    template: dict = {
        "name": node.name,
        "metadata": {"annotations": {SIM_ANNOTATION: json.dumps(profile, sort_keys=True)}},
    }
    if node.retries is not None:
        template["retryStrategy"] = {
            "limit": node.retries,
            "retryPolicy": "OnTransientError",
        }
    runtime: dict = {"image": node.image}
    requests = node.resources.to_dict()
    if requests:
        runtime["resources"] = {"requests": requests}
    if node.op == OpKind.SCRIPT:
        runtime["command"] = ["python"]
        runtime["source"] = node.source
        template["script"] = runtime
    else:
        if node.command:
            runtime["command"] = list(node.command)
        if node.args:
            runtime["args"] = list(node.args)
        if node.op == OpKind.JOB:
            # Distributed jobs render as a resource template in real
            # Argo; the simulator treats them as one fat container.
            template["metadata"]["annotations"]["sim/job-params"] = json.dumps(
                node.job_params, sort_keys=True
            )
        template["container"] = runtime
    outputs = [
        {
            "name": a.name,
            "parameter" if a.storage.value == "parameter" else "artifact": {
                "path": a.path or f"/tmp/{a.name}"
            },
        }
        for a in node.outputs
    ]
    if outputs:
        template["outputs"] = {"parameters": outputs}
    return template


@register_backend
class ArgoBackend(Backend):
    """IR -> Argo Workflow manifest (the paper's primary engine)."""

    info = BackendInfo(name="argo", output_format="yaml", api_coverage=0.90)

    def compile(self, ir: WorkflowIR) -> dict:
        ir = self.prepare(ir)
        order = ir.topological_order()
        parents = ir.parents_map()
        tasks = []
        for name in order:
            node = ir.nodes[name]
            task: dict = {"name": name, "template": name}
            if parents[name]:
                task["dependencies"] = parents[name]
            if node.when:
                task["when"] = node.when
            tasks.append(task)
        templates = [_template_for(ir.nodes[n]) for n in order]
        templates.append({"name": "main", "dag": {"tasks": tasks}})
        return {
            "apiVersion": "argoproj.io/v1alpha1",
            "kind": "Workflow",
            "metadata": {"name": ir.name, "namespace": "default"},
            "spec": {"entrypoint": "main", "templates": templates},
        }
