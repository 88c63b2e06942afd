"""Seeded random workflow generator.

Emits valid DSL programs spanning the whole Couler surface —
``run_container`` / ``run_script`` / ``run_job``, ``when``, ``map``,
``concurrent``, ``exec_while``, explicit ``dag()``, artifacts of every
storage class, per-step retries and simulation hints — driven entirely
by one ``random.Random(seed)``, so the same seed always yields the same
IR (byte-identical under :func:`repro.ir.serialize.ir_to_dict`).

Two modes:

* ``deterministic=True`` (the differential-oracle default) forces zero
  failure rates and at most one ``result_options`` value per script, so
  every execution of the workflow — on any submitter, split plan or
  cache configuration — takes exactly the same branches even when the
  engines' RNG streams diverge.
* ``deterministic=False`` adds failure injection and multi-valued
  results; only the replay-determinism oracle (same seed, same engine,
  twice) uses it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core import api as couler
from ..ir.graph import WorkflowIR
from ..ir.nodes import ArtifactDecl, ArtifactStorage, SimHint
from ..k8s.resources import ResourceQuantity

#: Values a generated script may print as its ``result``.  Plain
#: alphanumeric tokens only — they must survive the condition grammar
#: (``{{step.result}} == value``) unquoted.
RESULT_POOL: Tuple[str, ...] = ("heads", "tails", "ok", "retry", "done")

#: Retryable patterns sampled for stochastic steps — chosen retryable so
#: fuzzed workflows usually converge instead of failing outright.
FAILURE_POOL: Tuple[str, ...] = (
    "NetworkTimeoutErr",
    "ImagePullBackOffErr",
    "ExceededQuotaErr",
)

_STORAGES: Tuple[ArtifactStorage, ...] = tuple(ArtifactStorage)
_DURATIONS: Tuple[float, ...] = (5.0, 15.0, 30.0, 60.0)
_MB = 2**20


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the fuzzer; the defaults fit the oracle clusters."""

    min_nodes: int = 3
    max_nodes: int = 12
    #: Forced outcomes (no failures, single-valued results) so that
    #: cross-execution oracles compare like against like.
    deterministic: bool = True
    max_failure_rate: float = 0.25
    gpu_probability: float = 0.15
    artifact_probability: float = 0.5
    input_probability: float = 0.4
    #: Probability the whole workflow is defined via explicit ``dag()``
    #: instead of implicit chaining + control flow.
    dag_probability: float = 0.2


class _Program:
    """One generated DSL program, built against the active context."""

    def __init__(self, rng: random.Random, config: GeneratorConfig) -> None:
        self.rng = rng
        self.config = config
        self.counter = 0
        #: Step handles that declared a data artifact (input candidates).
        self.producers: List[couler.StepOutput] = []
        #: (handle, result_options) of scripts (condition candidates).
        self.scripts: List[Tuple[couler.StepOutput, Tuple[str, ...]]] = []

    # ----------------------------------------------------------- ingredients

    def _next(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _sim(self, result_options: Tuple[str, ...] = ()) -> SimHint:
        rng = self.rng
        if self.config.deterministic:
            rate, pattern = 0.0, "PodCrashErr"
        else:
            rate = (
                round(rng.uniform(0.05, self.config.max_failure_rate), 3)
                if rng.random() < 0.3
                else 0.0
            )
            pattern = rng.choice(FAILURE_POOL)
        return SimHint(
            duration_s=rng.choice(_DURATIONS),
            failure_rate=rate,
            failure_pattern=pattern,
            uses_gpu=rng.random() < self.config.gpu_probability,
            result_options=result_options,
        )

    def _resources(self, sim: SimHint) -> ResourceQuantity:
        rng = self.rng
        return ResourceQuantity(
            cpu=rng.choice((0.5, 1.0, 2.0)),
            memory=rng.choice((256 * _MB, 512 * _MB, 1024 * _MB)),
            gpu=1 if sim.uses_gpu else 0,
        )

    def _artifact(self) -> Optional[ArtifactDecl]:
        rng = self.rng
        if rng.random() >= self.config.artifact_probability:
            return None
        name = self._next("art")
        return ArtifactDecl(
            name=name,
            storage=rng.choice(_STORAGES),
            path=f"/data/{name}",
            size_bytes=rng.choice((4096, _MB, 16 * _MB)),
        )

    def _input(self):
        if self.producers and self.rng.random() < self.config.input_probability:
            return self.rng.choice(self.producers)
        return None

    def _result_options(self) -> Tuple[str, ...]:
        rng = self.rng
        if self.config.deterministic:
            # Zero or one option: the drawn result is forced (or absent)
            # regardless of how many RNG draws preceded it.
            return (rng.choice(RESULT_POOL),) if rng.random() < 0.8 else ()
        k = rng.randint(2, 3)
        return tuple(rng.sample(RESULT_POOL, k))

    # ----------------------------------------------------------------- steps

    def _container(self) -> couler.StepOutput:
        sim = self._sim()
        out = couler.run_container(
            image=f"repro/worker:v{self.rng.randint(1, 3)}",
            command=["python", "task.py"],
            args=[f"--id={self.counter}"],
            step_name=self._next("c"),
            resources=self._resources(sim),
            output=self._artifact(),
            input=self._input(),
            sim=sim,
        )
        if out.artifact is not None:
            self.producers.append(out)
        return out

    def _script(self, force_options: bool = False) -> couler.StepOutput:
        options = self._result_options()
        if force_options and not options:
            options = (self.rng.choice(RESULT_POOL),)
        sim = self._sim(result_options=options)
        out = couler.run_script(
            image="python:3.10",
            source=f"print('{self.rng.choice(RESULT_POOL)}')",
            step_name=self._next("s"),
            resources=self._resources(sim),
            input=self._input(),
            sim=sim,
        )
        if options:
            self.scripts.append((out, options))
        return out

    def _job(self) -> couler.StepOutput:
        sim = self._sim()
        out = couler.run_job(
            image="repro/train:v1",
            command="python train.py",
            kind=self.rng.choice(("TFJob", "PyTorchJob")),
            num_ps=self.rng.randint(0, 1),
            num_workers=self.rng.randint(1, 2),
            step_name=self._next("j"),
            resources=ResourceQuantity(
                cpu=1.0, memory=256 * _MB, gpu=1 if sim.uses_gpu else 0
            ),
            output=self._artifact(),
            input=self._input(),
            sim=sim,
        )
        if out.artifact is not None:
            self.producers.append(out)
        return out

    # ----------------------------------------------------------- control flow

    def _condition(self) -> couler.Condition:
        """A condition over some earlier script's result."""
        if not self.scripts:
            self._script(force_options=True)
        handle, options = self.rng.choice(self.scripts)
        if self.rng.random() < 0.7:
            value = self.rng.choice(options)  # may hold (always, if forced)
        else:
            value = "never"  # guaranteed skip branch
        if self.rng.random() < 0.25:
            return couler.not_equal(handle.ref(), value)
        return couler.equal(handle.ref(), value)

    def _when(self) -> None:
        condition = self._condition()
        body = self.rng.choice((self._container, self._script))
        couler.when(condition, body)

    def _map(self) -> None:
        prefix = self._next("m")
        shards = self.rng.randint(2, 3)

        def fan(item: object) -> couler.StepOutput:
            return couler.run_container(
                image="repro/shard:v1",
                command=["python", "shard.py"],
                args=[f"--shard={item}"],
                step_name=f"{prefix}-{item}",
                sim=self._sim(),
            )

        couler.map(fan, list(range(shards)))

    def _concurrent(self) -> None:
        thunks = [
            self.rng.choice((self._container, self._script))
            for _ in range(self.rng.randint(2, 3))
        ]
        couler.concurrent(thunks)

    def _exec_while(self) -> None:
        options = self._result_options() or (self.rng.choice(RESULT_POOL),)
        value = (
            options[0]
            if self.rng.random() < 0.6
            else self.rng.choice(RESULT_POOL)
        )

        def body() -> couler.StepOutput:
            sim = self._sim(result_options=options)
            return couler.run_script(
                image="python:3.10",
                source=f"print('{options[0]}')",
                step_name=self._next("w"),
                sim=sim,
            )

        couler.exec_while(
            couler.equal(value), body, max_iterations=self.rng.randint(2, 3)
        )

    # ------------------------------------------------------------- structure

    def build_implicit(self, target: int) -> None:
        moves = (
            (self._container, 0.30),
            (self._script, 0.20),
            (self._job, 0.10),
            (self._when, 0.12),
            (self._map, 0.10),
            (self._concurrent, 0.10),
            (self._exec_while, 0.08),
        )
        weights = [w for _, w in moves]
        while len(couler.get_context().ir.nodes) < target:
            move = self.rng.choices([m for m, _ in moves], weights=weights)[0]
            move()

    def build_dag(self, target: int) -> None:
        """Explicit-mode workflow: random DAG declared via ``dag()``."""
        names = [self._next("d") for _ in range(target)]

        def declare(name: str):
            def thunk() -> couler.StepOutput:
                sim = self._sim()
                return couler.run_container(
                    image="repro/dag:v1",
                    command=["python", "node.py"],
                    step_name=name,
                    resources=self._resources(sim),
                    output=self._artifact(),
                    sim=sim,
                )

            return thunk

        thunks = {name: declare(name) for name in names}
        elements: List[List[object]] = [[thunks[names[0]]]]
        for index in range(1, len(names)):
            if self.rng.random() < 0.8:
                parent = names[self.rng.randrange(index)]
                elements.append([thunks[parent], thunks[names[index]]])
            else:
                elements.append([thunks[names[index]]])
        couler.dag(elements)


def generate_ir(seed: int, config: Optional[GeneratorConfig] = None) -> WorkflowIR:
    """Generate the workflow for ``seed`` and return its finalized IR."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    couler.reset_context(f"verify-{seed}")
    try:
        program = _Program(rng, config)
        target = rng.randint(config.min_nodes, config.max_nodes)
        if rng.random() < config.dag_probability:
            program.build_dag(target)
        else:
            program.build_implicit(target)
        ir = couler.workflow_ir(optimize=False)
    finally:
        couler.reset_context()
    # Per-step retry limits ride on the IR (the DSL defers to the global
    # policy); assign some so retryStrategy rendering is exercised.
    for name in sorted(ir.nodes):
        if rng.random() < 0.25:
            ir.nodes[name].retries = rng.randint(0, 3)
    return ir
