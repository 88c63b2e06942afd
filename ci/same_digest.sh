#!/usr/bin/env bash
# Determinism gate: run a command twice (or two commands once each) and
# require both runs to succeed and to print the same digest line.
#
# usage: ci/same_digest.sh PATTERN CMD [CMD2]
#   PATTERN  fixed string marking the digest line (matched with grep -F)
#   CMD      shell command for the first run
#   CMD2     shell command for the second run (default: CMD again)
#
# Each run's stdout is echoed as it is produced.  The gate fails when a
# run exits non-zero, when a run prints no line containing PATTERN, or
# when the two runs' digest lines differ.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 PATTERN CMD [CMD2]" >&2
  exit 2
fi

pattern=$1
commands=("$2" "${3:-$2}")
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for run in 1 2; do
  cmd=${commands[$((run - 1))]}
  echo "--- run $run: $cmd"
  if ! bash -c "$cmd" | tee "$workdir/out$run"; then
    echo "same_digest: run $run exited non-zero: $cmd" >&2
    exit 1
  fi
  if ! grep -F -- "$pattern" "$workdir/out$run" > "$workdir/digest$run"; then
    echo "same_digest: run $run printed no line containing '$pattern'" >&2
    exit 1
  fi
done

if ! diff "$workdir/digest1" "$workdir/digest2"; then
  echo "same_digest: digests differ between the two runs" >&2
  exit 1
fi
echo "same_digest: identical: $(cat "$workdir/digest1")"
