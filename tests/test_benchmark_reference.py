"""The benchmark's in-process outputs match the digests recorded in
perfbench/reference.json, so that a change which moves a byte of them
fails here, not only in a benchmark run.  perfbench/ is imported, never
written: no bytecode is cached there."""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["circulant", "nc_batch", "blowup_split"])
def test_in_process_outputs_match_the_reference_digests(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    inputs = workloads.WORKLOADS[name].build(0, reference)
    assert inputs.ops
    failures = {op.key: reason for op in inputs.ops if (reason := op.check(op.run())) is not None}
    assert not failures
