"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric BENCHMARK.json names is reported for every driven
workload, that tracing puts back every attribute it replaced, and that the
result record written by `run.py` parses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DRIVEN = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def results(request):
    trace = request.param
    return trace, {name: run.run(name, seed=7, seconds=0.0, trace=bool(trace), tiny=True)
                   for name in DRIVEN}


def test_every_named_metric_is_reported(results):
    trace, by_workload = results
    spec = SPEC["per_layer" if trace else "end_to_end"]
    for name, result in by_workload.items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0, (name, result["failures_by_class"])
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in spec}, name
        for m in spec:
            got = metrics[m["name"]]
            assert got["unit"] == m["unit"], (name, m["name"])
            assert isinstance(got["value"], float), (name, m["name"], got["value"])


def test_traced_run_keeps_checksums(results):
    trace, by_workload = results
    if not trace:
        pytest.skip("untraced run")
    for name, result in by_workload.items():
        for op in result["ops"]:
            assert op["checksums"], name
            assert op["checksums"] == op["traced_checksums"], name


def test_wrapped_attributes_are_restored():
    workload = workloads.make_workloads(tiny=True)["image-large"]
    corpus = workload.corpus()
    before = tracing.snapshot(tracing.LAYERS)
    run.measure(workload, corpus, seed=3, seconds=0.0, trace=True)
    after = tracing.snapshot(tracing.LAYERS)
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] is value, key
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer(), tracing.LAYERS):
            raise ZeroDivisionError
    assert tracing.snapshot(tracing.LAYERS) == before


def test_command_writes_a_parseable_record(monkeypatch, capsys):
    monkeypatch.setattr(run, "make_workloads", lambda tiny=False: workloads.make_workloads(True))
    argv = ["--workload", "image-search", "--seed", "5", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads((HERE / "out" / "image-search-seed5-trace0.json").read_text())
    assert record["environment"]["seed"] == 5
    assert record["attempted"] == summary["attempted"] >= 1
    assert record["metrics"] == summary["metrics"]
