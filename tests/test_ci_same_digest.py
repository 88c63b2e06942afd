"""The CI determinism gate (``ci/same_digest.sh``) fails closed.

Every "run twice, compare digests" CI step goes through this script, so
each way a run can go wrong must fail it: a non-zero exit (even one
that already printed its digest, as ``repro verify`` does before
returning 1), a missing digest line, and two different digests.
"""

import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "ci" / "same_digest.sh"
PATTERN = "aggregate fingerprint digest"


def _gate(*commands):
    return subprocess.run(
        ["bash", str(SCRIPT), PATTERN, *commands],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_identical_digests_pass():
    result = _gate(f"echo '{PATTERN}: abc'")
    assert result.returncode == 0, result.stderr
    assert f"identical: {PATTERN}: abc" in result.stdout


@pytest.mark.parametrize(
    ("commands", "reason"),
    [
        ((f"echo '{PATTERN}: abc'; exit 1",), "exited non-zero"),
        (("echo 'all oracles ran'",), "printed no line"),
        ((f"echo '{PATTERN}: abc'", f"echo '{PATTERN}: abd'"), "digests differ"),
    ],
    ids=["nonzero-exit", "missing-digest", "differing-digests"],
)
def test_failure_modes_fail_the_gate(commands, reason):
    result = _gate(*commands)
    assert result.returncode == 1
    assert reason in result.stderr


def test_second_run_failure_is_caught():
    result = _gate(f"echo '{PATTERN}: abc'", f"echo '{PATTERN}: abc'; exit 2")
    assert result.returncode == 1
    assert "run 2 exited non-zero" in result.stderr
