"""The benchmark's contract with the library.

``perfbench/`` drives mquilt through public names: CLI verbs, library
functions it calls directly, and the functions its tracer wraps by name.
One checked pass of each workload, traced as ``perfbench/run.py --trace 1``
traces it, must finish with no failed operation, so deleting or renaming a
name the benchmark uses fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, with every mquilt name the tracer wraps
    restored after the test."""
    monkeypatch.syspath_prepend(str(BENCH))
    import calibration
    import run
    import spans
    import workloads

    wrapped = {id(getattr(sys.modules[home], attr)) for home, attr, _ in spans.LAYERS.values()}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "mquilt" and mod is not None:
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(mod, key, value)
    return workloads, run, spans, calibration


@pytest.mark.parametrize("workload", ["release-exact", "histogram-ledger", "oracle-composition"])
def test_one_traced_pass_has_no_failed_operation(bench, workload, tmp_path):
    workloads, run, spans, calibration = bench
    wl = workloads.WORKLOADS[workload](1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    _, _, attempted, failed, errors = run.run_passes(wl, 0.0, calibration.Clock(), tracer)
    assert attempted > 0
    assert failed == 0, "\n".join(errors)
    metrics = tracer.metrics(1.0)
    assert sum(m["value"] for k, m in metrics.items() if k.endswith(".calls")) > 0


def test_a_traced_release_pass_times_the_release_layer(bench, tmp_path):
    # The CLI releases through mechanism.release, so the layer the tracer
    # wraps under that name is on the path and reads a positive time.
    workloads, run, spans, calibration = bench
    tracer = spans.Tracer()
    tracer.install()
    run.run_passes(workloads.WORKLOADS["release-exact"](1, tmp_path), 0.0,
                   calibration.Clock(), tracer)
    assert tracer.metrics(1.0)["mechanism.release.s"]["value"] > 0
