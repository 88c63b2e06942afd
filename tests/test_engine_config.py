"""EngineConfig contract: one validated bundle, one way to configure.

Covers the unified-configuration surface:

* construction-time validation raises ``SpecError`` naming the field,
* a submitter that builds its own environment from ``config=`` and one
  handed a caller-built environment from the same config are
  **bit-identical** — same admission logs, same journal streams, same
  full fingerprints — across fuzzer seeds,
* the pipeline reads its knobs from ``AdmissionPipeline(config=)``,
* the removed per-feature kwargs (``journaled=``, ``fairness=``,
  ``EngineConfig(aging_rate=)``, ``EngineConfig(slo_class=)``,
  ``EngineConfig(scorer=)``) are rejected outright,
* every shipped submitter conforms to the ``Submitter`` protocol
  (``config`` member included) and is introspectable.
"""

from __future__ import annotations

import pytest

from repro import couler
from repro.backends.base import Submitter
from repro.control.policy import PolicyConfig
from repro.core.submitter import (
    AdmissionSubmitter,
    AirflowSubmitter,
    ArgoSubmitter,
    LocalSubmitter,
    TektonSubmitter,
    default_environment,
    default_multicluster,
)
from repro.engine.admission import AdmissionPipeline
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.journal import Journal
from repro.engine.retry import RetryPolicy
from repro.engine.spec import SpecError
from repro.verify.fingerprint import fingerprint_record
from repro.verify.generator import GeneratorConfig, generate_ir

SEEDS = list(range(10))
DETERMINISTIC = GeneratorConfig(deterministic=True)


# ------------------------------------------------------------- validation


class TestValidation:
    def test_defaults_are_legacy_behaviour(self):
        config = EngineConfig()
        assert config == DEFAULT_CONFIG
        assert config.fast is True
        assert config.journaled is False
        assert config.fairness is None

    # Ids are pinned so each case keeps its name as cases come and go.
    @pytest.mark.parametrize(
        ("kwargs", "field_name"),
        [
            pytest.param({"engine": "turbo"}, "engine", id="kwargs0-engine"),
            pytest.param({"journaled": "yes"}, "journaled", id="kwargs2-journaled"),
            pytest.param(
                {"fairness": "round-robin"}, "fairness", id="kwargs3-fairness"
            ),
            pytest.param(
                {"protect_gpu": True}, "protect_gpu", id="kwargs5-protect_gpu"
            ),
            pytest.param(
                {"tenant_weights": {"t0": 0.0}},
                "tenant_weights",
                id="kwargs6-tenant_weights",
            ),
            pytest.param({"max_pending": 0}, "max_pending", id="kwargs7-max_pending"),
            pytest.param({"policy": "defaults"}, "policy", id="kwargs8-policy"),
            pytest.param(
                {"preemption": True, "max_preemptions": -1},
                "max_preemptions",
                id="kwargs9-max_preemptions",
            ),
            pytest.param(
                {"preemption": True, "preempt_cooldown": -1.0},
                "preempt_cooldown",
                id="kwargs10-preempt_cooldown",
            ),
            pytest.param(
                {"max_preemptions": 9}, "preemption", id="kwargs11-preemption"
            ),
        ],
    )
    def test_invalid_combo_raises_spec_error_naming_field(
        self, kwargs, field_name
    ):
        with pytest.raises(SpecError) as excinfo:
            EngineConfig(**kwargs)
        assert field_name in str(excinfo.value)

    @pytest.mark.parametrize("field_name", ["slo_class", "scorer"])
    def test_removed_fields_raise_type_error(self, field_name):
        # slo_class is an AdmissionSubmitter lane; the cache score
        # engine is chosen on CacheManager(scorer=).
        with pytest.raises(TypeError, match=field_name):
            EngineConfig(**{field_name: "serving"})

    def test_protect_gpu_valid_with_fairness(self):
        config = EngineConfig(protect_gpu=True, fairness="weighted-fair")
        assert default_multicluster(config=config).queue.protect_gpu is True

    def test_pipeline_kwargs_resolve_fairness_default(self):
        assert default_multicluster().fairness.name == "strict-priority"
        naive = default_multicluster(config=EngineConfig(engine="naive"))
        assert naive.fast is False
        assert all(op.fast is False for op in naive.operators.values())

    def test_pipeline_copies_every_knob(self):
        config = EngineConfig(
            fairness="drf",
            tenant_weights={"t0": 2.0},
            preemption=True,
            max_preemptions=4,
            preempt_cooldown=5.0,
            max_pending=7,
            policy=PolicyConfig(aging_rate=0.25),
        )
        pipeline = default_multicluster(config=config)
        assert pipeline.config is config
        assert pipeline.fairness.name == "drf"
        assert pipeline.shares.weights == {"t0": 2.0}
        assert (pipeline.preemption, pipeline.max_preemptions) == (True, 4)
        assert pipeline.preempt_cooldown == 5.0
        assert pipeline.max_pending == 7
        assert pipeline.aging_rate == 0.25

    def test_describe_lists_only_non_defaults(self):
        assert EngineConfig().describe() == "EngineConfig()"
        text = EngineConfig(
            engine="naive", policy=PolicyConfig(aging_rate=0.5)
        ).describe()
        assert "engine='naive'" in text and "aging_rate=0.5" in text
        assert "journaled" not in text


# ----------------------------------------------------- spelling equivalence


def _journal_tuples(journal):
    if journal is None:
        return None
    return [
        (r.seq, r.stream, r.kind, r.at, repr(r.payload), r.event_id)
        for r in journal.records()
    ]


def _admission_tuple(admission):
    return (
        admission.workflow_name,
        admission.user,
        admission.priority,
        admission.arrival_time,
        admission.admitted,
        admission.admit_time,
        admission.place_time,
        admission.finish_time,
        admission.cluster_name,
        admission.deferrals,
        admission.slo_class,
    )


def _run_argo(ir, seed, **kwargs):
    sub = ArgoSubmitter(**kwargs)
    record = sub.submit(ir)
    return fingerprint_record(ir, record).data, _journal_tuples(sub.journal)


def _run_admission(ir, seed, **kwargs):
    sub = AdmissionSubmitter(seed=seed, **kwargs)
    record = sub.submit(ir)
    return (
        fingerprint_record(ir, record).data,
        _journal_tuples(sub.journal),
        _admission_tuple(sub.last_admission),
    )


class TestSpellingEquivalence:
    """Submitter-built and caller-injected environments agree."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_argo_journaled_spellings_identical(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        config = EngineConfig(journaled=True)
        built = _run_argo(ir, seed, config=config)
        injected = _run_argo(
            ir, seed, operator=default_environment(journal=Journal())
        )
        assert built == injected
        assert built[1], "journaled run produced no journal records"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_admission_spellings_identical(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        built = _run_admission(
            ir,
            seed,
            slo_class="serving",
            config=EngineConfig(fairness="weighted-fair", journaled=True),
        )
        injected = _run_admission(
            ir,
            seed,
            slo_class="serving",
            pipeline=default_multicluster(
                seed,
                journal=Journal(),
                config=EngineConfig(fairness="weighted-fair"),
            ),
        )
        assert built == injected
        assert built[1], "journaled run produced no journal records"

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_naive_engine_matches_fast_engine(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        fast = _run_admission(ir, seed, config=EngineConfig(journaled=True))
        naive = _run_admission(
            ir, seed, config=EngineConfig(engine="naive", journaled=True)
        )
        assert fast == naive

    def test_config_reaches_pipeline(self):
        sub = AdmissionSubmitter(config=EngineConfig(engine="naive"))
        assert sub.pipeline.fast is False
        assert AdmissionSubmitter().pipeline.fast is True


# -------------------------------------------------- protocol conformance


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "factory",
        [
            ArgoSubmitter,
            LocalSubmitter,
            AdmissionSubmitter,
            AirflowSubmitter,
            TektonSubmitter,
        ],
    )
    def test_shipped_submitters_carry_config(self, factory):
        submitter = factory()
        assert isinstance(submitter, Submitter)
        assert isinstance(submitter.config, EngineConfig)
        assert submitter.config.describe().startswith("EngineConfig")

    def test_facade_exports_config_surface(self):
        assert couler.EngineConfig is EngineConfig
        assert couler.DEFAULT_CONFIG is DEFAULT_CONFIG
        assert callable(couler.profile_run)


# --------------------------------------------- pairwise mixing rejection

#: The per-feature kwargs the v1 submitters accepted, with a value.
LEGACY_KWARGS = [
    ("journaled", True),
    ("fairness", "weighted-fair"),
    ("slo_class", "serving"),
]


class TestPairwiseMixingRejection:
    """The per-feature kwargs are gone: any of them, alone or mixed with
    ``config=``, is a ``TypeError`` rather than silently ignored.
    (``slo_class=`` is a per-submission lane of ``AdmissionSubmitter``
    again, so it only appears here next to a removed kwarg.)"""

    @pytest.mark.parametrize(("kwarg", "value"), LEGACY_KWARGS[:2])
    def test_each_single_legacy_kwarg_with_config(self, kwarg, value):
        with pytest.raises(TypeError, match=kwarg):
            AdmissionSubmitter(config=EngineConfig(), **{kwarg: value})
        with pytest.raises(TypeError, match=kwarg):
            AdmissionSubmitter(**{kwarg: value})

    @pytest.mark.parametrize(
        ("first", "second"),
        [
            (LEGACY_KWARGS[0], LEGACY_KWARGS[1]),
            (LEGACY_KWARGS[0], LEGACY_KWARGS[2]),
            (LEGACY_KWARGS[1], LEGACY_KWARGS[2]),
        ],
    )
    def test_each_legacy_pair_with_config(self, first, second):
        kwargs = {first[0]: first[1], second[0]: second[1]}
        with pytest.raises(TypeError, match=first[0]):
            AdmissionSubmitter(config=EngineConfig(), **kwargs)

    def test_all_three_with_config(self):
        for factory in (ArgoSubmitter, LocalSubmitter):
            with pytest.raises(TypeError, match="journaled"):
                factory(config=EngineConfig(), journaled=True)
        with pytest.raises(TypeError):
            AdmissionSubmitter(
                config=EngineConfig(),
                journaled=True,
                fairness="drf",
                slo_class="batch",
            )


# ------------------------------------------------ adaptive policy field


class TestPolicyField:
    def test_policy_must_be_policy_config(self):
        with pytest.raises(SpecError, match="policy"):
            EngineConfig(policy="defaults")

    def test_policy_plus_legacy_aging_rejected(self):
        # The aging knob lives on PolicyConfig only.
        with pytest.raises(TypeError, match="aging_rate"):
            EngineConfig(policy=PolicyConfig(aging_rate=0.01), aging_rate=0.01)

    def test_effective_aging_rate_resolution(self):
        assert default_multicluster().aging_rate == 0.0
        aged = EngineConfig(policy=PolicyConfig(aging_rate=0.05))
        assert default_multicluster(config=aged).aging_rate == 0.05

    def test_default_policy_pipeline_kwargs_identical(self):
        plain = default_multicluster()
        with_policy = default_multicluster(
            config=EngineConfig(policy=PolicyConfig())
        )
        assert _pipeline_knobs(with_policy) == _pipeline_knobs(plain)

    def test_custom_retry_budget_threads_through(self):
        pipeline = default_multicluster(
            config=EngineConfig(
                policy=PolicyConfig(retry_limit=5, infra_retry_limit=7)
            )
        )
        for operator in pipeline.operators.values():
            assert operator.retry_policy.limit == 5
            assert operator.retry_policy.infra_limit == 7

    def test_default_retry_budget_stays_none(self):
        pipeline = default_multicluster(
            config=EngineConfig(policy=PolicyConfig(aging_rate=0.05))
        )
        for operator in pipeline.operators.values():
            assert operator.retry_policy == RetryPolicy()
        assert pipeline.aging_rate == 0.05


def _pipeline_knobs(pipeline: AdmissionPipeline) -> tuple:
    return (
        pipeline.fast,
        pipeline.max_pending,
        pipeline.aging_rate,
        pipeline.fairness.name,
        pipeline.shares.weights,
        pipeline.preemption,
        pipeline.max_preemptions,
        pipeline.preempt_cooldown,
        pipeline.queue.protect_gpu,
        [op.retry_policy for op in pipeline.operators.values()],
    )
