"""Unit tests for the submitters."""

from repro import couler
from repro.core.submitter import (
    AirflowSubmitter,
    ArgoSubmitter,
    SubmissionResult,
    TektonSubmitter,
    default_environment,
)
from repro.engine.config import EngineConfig
from repro.engine.status import WorkflowPhase


def _define_workflow(name: str = "sub-test"):
    couler.reset_context(name)
    first = couler.run_container(image="prep:v1", step_name="prep")
    couler.run_container(image="train:v1", step_name="train", input=first)
    return couler.workflow_ir()


class TestArgoSubmitter:
    def test_submit_runs_to_completion(self):
        ir = _define_workflow()
        submitter = ArgoSubmitter()
        record = submitter.submit(ir)
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert submitter.last_manifest["kind"] == "Workflow"

    def test_shared_operator_across_submissions(self):
        operator = default_environment()
        submitter = ArgoSubmitter(operator=operator)
        first = submitter.submit(_define_workflow("wf-a"))
        second = submitter.submit(_define_workflow("wf-b"))
        assert first.phase == WorkflowPhase.SUCCEEDED
        assert second.phase == WorkflowPhase.SUCCEEDED

    def test_couler_run_uses_submitter(self):
        couler.reset_context("via-run")
        couler.run_container(image="x", step_name="s")
        record = couler.run(submitter=ArgoSubmitter())
        assert record.phase == WorkflowPhase.SUCCEEDED


class TestCodeGeneratingSubmitters:
    def test_airflow_submitter_returns_source(self):
        result = AirflowSubmitter().submit(_define_workflow())
        assert isinstance(result, SubmissionResult)
        assert result.engine == "airflow"
        assert "DAG(" in result.payload
        assert result.record is None

    def test_airflow_submitter_can_simulate(self):
        result = AirflowSubmitter(simulate=True).submit(_define_workflow())
        assert result.record.phase == WorkflowPhase.SUCCEEDED

    def test_tekton_submitter_returns_manifests(self):
        result = TektonSubmitter().submit(_define_workflow())
        assert result.engine == "tekton"
        assert result.payload["pipeline"]["kind"] == "Pipeline"
        assert result.payload["pipelineRun"]["kind"] == "PipelineRun"


class TestSubmitterProtocol:
    def test_every_frontend_conforms(self):
        from repro.backends.base import Submitter
        from repro.core.submitter import AdmissionSubmitter, LocalSubmitter
        from repro.server.service import CoulerService

        assert isinstance(ArgoSubmitter(), Submitter)
        assert isinstance(LocalSubmitter(), Submitter)
        assert isinstance(AdmissionSubmitter(), Submitter)
        assert isinstance(AirflowSubmitter(), Submitter)
        assert isinstance(TektonSubmitter(), Submitter)
        assert isinstance(CoulerService(operator=default_environment()), Submitter)

    def test_submission_record_normalizes_every_result_shape(self):
        from repro.backends.base import submission_record

        record = ArgoSubmitter().submit(_define_workflow())
        assert submission_record(record) is record

        generated = AirflowSubmitter().submit(_define_workflow("gen-only"))
        assert submission_record(generated) is None

        simulated = TektonSubmitter(simulate=True).submit(_define_workflow("sim"))
        assert submission_record(simulated) is simulated.record


class TestAdmissionSubmitter:
    def test_submit_through_admission_pipeline(self):
        from repro.core.submitter import AdmissionSubmitter

        submitter = AdmissionSubmitter()
        record = submitter.submit(_define_workflow("adm"))
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert submitter.last_admission.admitted is True
        assert submitter.last_admission.cluster_name is not None

    def test_rejection_surfaces_as_admission_error(self):
        import pytest

        from repro.core.submitter import AdmissionSubmitter
        from repro.engine.admission import AdmissionError, AdmissionPipeline
        from repro.engine.queue import UserQuota
        from repro.k8s.cluster import Cluster

        pipeline = AdmissionPipeline(
            [Cluster.uniform("tiny", 1, cpu_per_node=4.0, memory_per_node=8 * 2**30)],
            quotas={"u": UserQuota(user="u", cpu_limit=0.5, memory_limit=2**30)},
        )
        submitter = AdmissionSubmitter(pipeline=pipeline, user="u")
        with pytest.raises(AdmissionError, match="rejected at admission"):
            submitter.submit(_define_workflow("too-big"))

    def test_shared_pipeline_accumulates_submissions(self):
        from repro.core.submitter import AdmissionSubmitter, default_multicluster

        pipeline = default_multicluster()
        submitter = AdmissionSubmitter(pipeline=pipeline)
        submitter.submit(_define_workflow("one"))
        submitter.submit(_define_workflow("two"))
        assert [a.workflow_name for a in pipeline.placed] == ["one", "two"]

    def test_couler_run_accepts_admission_submitter(self):
        from repro.core.submitter import AdmissionSubmitter

        couler.reset_context("via-run")
        couler.run_container(image="a:v1", step_name="only")
        record = couler.run(submitter=AdmissionSubmitter())
        assert record.phase == WorkflowPhase.SUCCEEDED


class TestJournaledMode:
    """Opt-in journaled mode: default off, bit-identical when off."""

    def test_default_is_off(self):
        submitter = ArgoSubmitter()
        assert submitter.journal is None
        record = submitter.submit(_define_workflow("plain"))
        assert record.phase == WorkflowPhase.SUCCEEDED

    def test_journaled_argo_submitter_records_and_replays(self):
        submitter = ArgoSubmitter(config=EngineConfig(journaled=True))
        record = submitter.submit(_define_workflow("journaled"))
        assert record.phase == WorkflowPhase.SUCCEEDED
        journal = submitter.journal
        assert journal is not None and len(journal) > 0
        replayed = journal.materialize("journaled")
        assert replayed.phase == WorkflowPhase.SUCCEEDED
        assert {
            name: step.status for name, step in replayed.steps.items()
        } == {name: step.status for name, step in record.steps.items()}

    def test_journaled_matches_plain_execution(self):
        plain = ArgoSubmitter().submit(_define_workflow("same"))
        journaled = ArgoSubmitter(config=EngineConfig(journaled=True)).submit(
            _define_workflow("same")
        )
        assert journaled.phase == plain.phase
        assert {n: s.status for n, s in journaled.steps.items()} == {
            n: s.status for n, s in plain.steps.items()
        }
        assert journaled.finish_time == plain.finish_time

    def test_journaled_admission_submitter_logs_decisions(self):
        from repro.core.submitter import AdmissionSubmitter

        submitter = AdmissionSubmitter(config=EngineConfig(journaled=True))
        record = submitter.submit(_define_workflow("decided"))
        assert record.phase == WorkflowPhase.SUCCEEDED
        kinds = [r.kind for r in submitter.journal.stream_records("decided")]
        # Decision log and step events share one ordered stream.
        assert "admission-admitted" in kinds
        assert "admission-placed" in kinds
        assert "admission-finished" in kinds
        assert "submitted" in kinds
        assert "workflow-finished" in kinds
        assert kinds.index("admission-placed") < kinds.index("submitted")

    def test_journaled_flag_rejects_unjournaled_injection(self):
        import pytest

        from repro.core.submitter import AdmissionSubmitter, default_multicluster

        with pytest.raises(ValueError, match="no journal"):
            ArgoSubmitter(
                operator=default_environment(),
                config=EngineConfig(journaled=True),
            )
        with pytest.raises(ValueError, match="no journal"):
            AdmissionSubmitter(
                pipeline=default_multicluster(),
                config=EngineConfig(journaled=True),
            )

    def test_facade_exports_journal_surface(self):
        from repro import couler as facade

        assert "Journal" in facade.__all__
        assert "ShardedOperatorFleet" in facade.__all__
        assert facade.Journal is not None
        assert facade.JournalRecord is not None
