"""EngineConfig contract: one validated bundle, one way to configure.

Covers the unified-configuration surface:

* construction-time validation raises ``SpecError`` naming the field,
* a submitter that builds its own environment from ``config=`` and one
  handed a caller-built environment from the same config are
  **bit-identical** — same admission logs, same journal streams, same
  full fingerprints — across fuzzer seeds,
* the removed per-feature kwargs (``journaled=``, ``fairness=``,
  ``slo_class=``, ``EngineConfig(aging_rate=)``) are rejected outright,
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
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.journal import Journal
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

    @pytest.mark.parametrize(
        ("kwargs", "field_name"),
        [
            ({"engine": "turbo"}, "engine"),
            ({"scorer": "cached"}, "scorer"),
            ({"journaled": "yes"}, "journaled"),
            ({"fairness": "round-robin"}, "fairness"),
            ({"slo_class": ""}, "slo_class"),
            ({"protect_gpu": True}, "protect_gpu"),
            ({"tenant_weights": {"t0": 0.0}}, "tenant_weights"),
            ({"max_pending": 0}, "max_pending"),
            ({"policy": "defaults"}, "policy"),
            ({"preemption": True, "max_preemptions": -1}, "max_preemptions"),
            ({"preemption": True, "preempt_cooldown": -1.0}, "preempt_cooldown"),
            ({"max_preemptions": 9}, "preemption"),
        ],
    )
    def test_invalid_combo_raises_spec_error_naming_field(
        self, kwargs, field_name
    ):
        with pytest.raises(SpecError) as excinfo:
            EngineConfig(**kwargs)
        assert field_name in str(excinfo.value)

    def test_protect_gpu_valid_with_fairness(self):
        config = EngineConfig(protect_gpu=True, fairness="weighted-fair")
        assert config.pipeline_kwargs()["protect_gpu"] is True

    def test_pipeline_kwargs_resolve_fairness_default(self):
        assert EngineConfig().pipeline_kwargs()["fairness"] == "strict-priority"
        assert EngineConfig(engine="naive").pipeline_kwargs()["fast"] is False

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
            ir,
            seed,
            operator=default_environment(journal=Journal()),
            config=config,
        )
        assert built == injected
        assert built[1], "journaled run produced no journal records"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_admission_spellings_identical(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        built = _run_admission(
            ir,
            seed,
            config=EngineConfig(
                fairness="weighted-fair", slo_class="serving", journaled=True
            ),
        )
        injected = _run_admission(
            ir,
            seed,
            pipeline=default_multicluster(
                seed,
                journal=Journal(),
                config=EngineConfig(fairness="weighted-fair"),
            ),
            config=EngineConfig(slo_class="serving", journaled=True),
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
    ``config=``, is a ``TypeError`` rather than silently ignored."""

    @pytest.mark.parametrize(("kwarg", "value"), LEGACY_KWARGS)
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
        assert EngineConfig().pipeline_kwargs()["aging_rate"] == 0.0
        assert (
            EngineConfig(policy=PolicyConfig(aging_rate=0.05)).pipeline_kwargs()[
                "aging_rate"
            ]
            == 0.05
        )

    def test_default_policy_pipeline_kwargs_identical(self):
        assert (
            EngineConfig(policy=PolicyConfig()).pipeline_kwargs()
            == EngineConfig().pipeline_kwargs()
        )
        assert EngineConfig().pipeline_kwargs()["retry_policy"] is None

    def test_custom_retry_budget_threads_through(self):
        kwargs = EngineConfig(
            policy=PolicyConfig(retry_limit=5, infra_retry_limit=7)
        ).pipeline_kwargs()
        retry = kwargs["retry_policy"]
        assert retry is not None
        assert retry.limit == 5
        assert retry.infra_limit == 7

    def test_default_retry_budget_stays_none(self):
        kwargs = EngineConfig(
            policy=PolicyConfig(aging_rate=0.05)
        ).pipeline_kwargs()
        assert kwargs["retry_policy"] is None
        assert kwargs["aging_rate"] == 0.05
