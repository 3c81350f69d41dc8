"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import check_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_partition_a_synthetic_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = tracing.Tracer("synthetic", clock=lambda: next(ticks))
    root = t.begin("root")          # [0, 10]
    a = t.begin("a")                # [1, 4]
    with t.span("leaf"):            # [2, 3]
        pass
    t.end(a)
    with t.span("a"):               # [5, 9]
        pass
    t.end(root)
    own = tracing.self_times(t.spans)
    assert own == {"root": 3.0, "a": 6.0, "leaf": 1.0}
    assert sum(own.values()) == 10.0
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]


def _patched_attributes():
    patches = tracing.install(tracing.Tracer("probe"))
    tracing.uninstall(patches)
    return {(owner, attr): original for owner, attr, original in patches}


def test_wrappers_are_removed_after_a_traced_call(tmp_path):
    originals = _patched_attributes()
    assert len(originals) > 20
    wl, cfg = workloads.load("tiny", 0, tmp_path / "out")
    tracer = tracing.Tracer("tiny")
    with tracing.traced(tracer):
        assert all(getattr(o, a) is not f for (o, a), f in originals.items())
        with tracer.span("pipeline"):
            workloads.entry_point(wl)(cfg)
    assert all(getattr(o, a) is f for (o, a), f in originals.items())
    assert tracer.counts["delaunay.calls"] == 1
    assert tracer.counts["relaxation.sweeps"] > 0

    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer("raises")):
            raise RuntimeError
    assert all(getattr(o, a) is f for (o, a), f in originals.items())


def test_sizing_wrappers_count_calls_and_points():
    from bubblemesh import pipeline, remesh
    from bubblemesh.packing import Bubble
    from bubblemesh.sizing import SizingParams
    from bubblemesh.surfaces import make_surface

    tracer = tracing.Tracer("sizing")
    with tracing.traced(tracer):
        bound = pipeline.radius_bound_evaluator(make_surface("sphere"),
                                                SizingParams(1e-3, 1e-3, 1.0))
        bound(0.5, 1.0)
        bound(0.6, 1.1)
        remesh.anchor_sizing([Bubble(0.0, 0.0, 0.1), Bubble(1.0, 0.0, 0.2)])(0.5, 0.5)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["sizing.calls"][0] == metrics["sizing.points"][0] == 2
    assert metrics["remesh.anchor_sizing_calls"][0] == 1
    assert metrics["sizing.busy_s"][0] > 0 and metrics["remesh.anchor_sizing_s"][0] > 0


def test_changed_artifacts_fail_the_call(tmp_path):
    reference = tmp_path / "ref.json"
    calls = [{"digests": {"m.obj": "aa"}, "errors": []},
             {"digests": {"m.obj": "bb"}, "errors": []}]
    check_digests(calls, reference)
    assert calls[0]["errors"] == []
    assert "m.obj" in calls[1]["errors"][0]
    later = [{"digests": {"m.obj": "aa"}, "errors": []}]
    check_digests(later, reference)
    assert later[0]["errors"] == []


def _run(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, kind):
    stdout, result = _run(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = stdout.splitlines()
    for name, unit in expected.items():
        assert any(ln.startswith(name + " ") and ln.endswith(" " + unit) for ln in lines)
    if trace:
        _, again = _run(trace)
        counts = [n for n, u in expected.items() if u == "count"]
        assert {n: result["metrics"][n] for n in counts} == \
               {n: again["metrics"][n] for n in counts}
