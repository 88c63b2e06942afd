"""Unit tests for API objects, pods and CRD helpers."""

from pathlib import Path

import pytest
import yaml

from repro.k8s.objects import (
    APIObject,
    ObjectMeta,
    Pod,
    PodPhase,
    crd_yaml_size,
    make_crd,
    manifest_yaml,
)
from repro.k8s.resources import ResourceQuantity


class TestObjectMeta:
    def test_round_trip(self):
        meta = ObjectMeta(
            name="x", namespace="prod", labels={"a": "1"}, annotations={"b": "2"},
            uid="u-1",
        )
        restored = ObjectMeta.from_dict(meta.to_dict())
        assert restored == ObjectMeta(
            name="x", namespace="prod", labels={"a": "1"},
            annotations={"b": "2"}, uid="u-1",
        )

    def test_minimal_dict(self):
        meta = ObjectMeta.from_dict({"name": "y"})
        assert meta.namespace == "default"
        assert meta.labels == {}


class TestAPIObject:
    def test_key_format(self):
        obj = make_crd("Workflow", "wf-1", spec={})
        assert obj.key == "Workflow/default/wf-1"

    def test_round_trip(self):
        obj = make_crd("Workflow", "wf", spec={"entrypoint": "main"},
                       annotations={"k": "v"})
        restored = APIObject.from_dict(obj.to_dict())
        assert restored.kind == "Workflow"
        assert restored.api_version == "argoproj.io/v1alpha1"
        assert restored.spec == {"entrypoint": "main"}
        assert restored.metadata.annotations == {"k": "v"}

    def test_serialized_size_grows_with_spec(self):
        small = make_crd("Workflow", "a", spec={})
        big = make_crd("Workflow", "a", spec={"blob": "x" * 1000})
        assert big.serialized_size() > small.serialized_size() + 900

    def test_to_dict_deep_copies(self):
        obj = make_crd("Workflow", "a", spec={"nested": {"v": 1}})
        dumped = obj.to_dict()
        dumped["spec"]["nested"]["v"] = 99
        assert obj.spec["nested"]["v"] == 1


class TestPod:
    def test_lifecycle_fields(self):
        pod = Pod("p", requests=ResourceQuantity(cpu=1.0))
        assert pod.phase == PodPhase.PENDING
        assert not pod.phase.is_terminal()
        pod.phase = PodPhase.RUNNING
        pod.node_name = "node-1"
        assert pod.spec["nodeName"] == "node-1"
        pod.phase = PodPhase.SUCCEEDED
        assert pod.phase.is_terminal()

    def test_labels_and_annotations(self):
        pod = Pod("p", labels={"workflow": "w"}, annotations={"sim/x": "1"})
        assert pod.metadata.labels["workflow"] == "w"
        assert pod.to_dict()["metadata"]["annotations"]["sim/x"] == "1"


class TestCrdYamlSize:
    def test_matches_yaml_dump_length(self):
        manifest = make_crd("Workflow", "a", spec={"steps": list(range(50))}).to_dict()
        assert crd_yaml_size(manifest) == len(
            yaml.safe_dump(manifest, sort_keys=False).encode("utf-8")
        )


_GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.yaml"))


class TestManifestYaml:
    """``manifest_yaml`` must emit the same bytes on either PyYAML path."""

    @pytest.mark.parametrize("path", _GOLDEN, ids=lambda p: p.name)
    def test_pure_python_fallback_is_byte_identical(self, path, monkeypatch):
        text = path.read_text()
        manifest = yaml.safe_load(text)
        # What a PyYAML build without libyaml looks like.
        monkeypatch.setattr(yaml, "__with_libyaml__", False)
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
        assert manifest_yaml(manifest) == text

    @pytest.mark.parametrize("path", _GOLDEN, ids=lambda p: p.name)
    def test_default_path_is_byte_identical(self, path):
        text = path.read_text()
        assert manifest_yaml(yaml.safe_load(text)) == text

    @pytest.mark.parametrize(
        "manifest",
        [
            # Each of these comes out differently from raw libyaml.
            {"spec": {"source": "line one\n    indented " + "word " * 30}},
            {"spec": {"source": "tab\t" + "x " * 60}},
            {"spec": {"source": "caf\u00e9 " * 30}},
            {"spec": {"k" * 128: 1}},
        ],
    )
    def test_documents_libyaml_would_change_match_pure_python(self, manifest):
        assert manifest_yaml(manifest) == yaml.safe_dump(manifest, sort_keys=False)
