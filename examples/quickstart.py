#!/usr/bin/env python
"""Quickstart: define, compile and run your first Couler workflow.

Reproduces the paper's introductory listings:

1. the diamond DAG defined explicitly (Code 1 / Code 4),
2. a producer/consumer pair passing an artifact (Code 2),
3. the coin-flip conditional (Code 3),

then compiles the workflow to an Argo manifest and executes it on the
simulated cluster.

Run:  python examples/quickstart.py
"""

from repro import couler
from repro.backends import ArgoBackend


def job(name: str) -> None:
    couler.run_container(
        image="docker/whalesay:latest",
        command=["cowsay"],
        args=[name],
        step_name=name,
    )


def diamond() -> None:
    """The paper's Code 1: A -> {B, C} -> D."""
    couler.dag(
        [
            [lambda: job("A")],
            [lambda: job("A"), lambda: job("B")],  # A -> B
            [lambda: job("A"), lambda: job("C")],  # A -> C
            [lambda: job("B"), lambda: job("D")],  # B -> D
            [lambda: job("C"), lambda: job("D")],  # C -> D
        ]
    )


def random_code() -> None:
    import random

    res = "heads" if random.randint(0, 1) == 0 else "tails"
    print(res)


def main() -> None:
    # ---- 1. Explicit DAG -------------------------------------------------
    couler.reset_context("diamond")
    diamond()
    record = couler.run(submitter=couler.ArgoSubmitter())
    print(f"[diamond] phase={record.phase.value} makespan={record.makespan:.0f}s")

    # ---- 2. Producer / consumer (paper Code 2) ---------------------------
    couler.reset_context("producer-consumer")
    output_place = couler.create_parameter_artifact(
        path="/opt/hello_world.txt", is_global=True
    )
    producer = couler.run_container(
        image="docker/whalesay:latest",
        args=["echo -n hello world > %s" % output_place.path],
        command=["bash", "-c"],
        output=output_place,
        step_name="step1",
    )
    couler.run_container(
        image="docker/whalesay:latest",
        command=["cowsay"],
        step_name="step2",
        input=producer,
    )
    record = couler.run(submitter=couler.ArgoSubmitter())
    print(f"[producer-consumer] phase={record.phase.value}")

    # ---- 3. Conditional coin flip (paper Code 3) -------------------------
    from repro.ir.nodes import SimHint

    couler.reset_context("coin-flip")
    result = couler.run_script(
        image="python:alpine3.6",
        source=random_code,
        step_name="flip-coin",
        # Declare the possible results: the simulated engine draws one
        # and only the matching branch runs (the other is Skipped).
        sim=SimHint(duration_s=5, result_options=("heads", "tails")),
    )
    couler.when(
        couler.equal(result, "heads"),
        lambda: couler.run_container(
            image="alpine:3.6",
            command=["sh", "-c", 'echo "it was heads"'],
            step_name="heads",
        ),
    )
    couler.when(
        couler.equal(result, "tails"),
        lambda: couler.run_container(
            image="alpine:3.6",
            command=["sh", "-c", 'echo "it was tails"'],
            step_name="tails",
        ),
    )
    ir = couler.workflow_ir()
    print("[coin-flip] generated Argo YAML (excerpt):")
    print(ArgoBackend().compile_to_text(ir)[:500], "...")
    record = couler.run(submitter=couler.ArgoSubmitter())
    taken = [
        name
        for name in ("heads", "tails")
        if record.steps[name].status.value == "Succeeded"
    ]
    skipped = [
        name
        for name in ("heads", "tails")
        if record.steps[name].status.value == "Skipped"
    ]
    print(f"[coin-flip] phase={record.phase.value}: branch {taken} ran, "
          f"branch {skipped} was skipped")


if __name__ == "__main__":
    main()
