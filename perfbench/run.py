"""bubblemesh benchmark: time to a checked mesh, end to end and per layer.

    python3 perfbench/run.py --workload plate --seed 0 --seconds 40 --trace 0

Run from anywhere; the program is imported from the `src/` next to this
directory. Each pipeline call runs in a fresh child process with BLAS and
OpenMP threads pinned to 1, one child at a time (a closed loop of one
client). With `--trace 0` the run keeps starting calls while the next one
is expected to end within `--seconds`, then starts set-up-only children
until it holds SETUP_SAMPLES set-up times, and prints the end-to-end
metrics. Before every pipeline call and after the last one it times
REF_SAMPLES runs of a fixed pure-Python reference loop; pipeline times are
reported as multiples of that loop's median time (see `reference_loop`).
With `--trace 1` it makes one untraced and one traced call and prints the
per-layer metrics of the traced one; the difference of their wall times is
the tracing overhead.

Every call is checked (see child.py). Its mesh artifacts must also match,
byte for byte, those of every earlier call of the same workload and seed
on the same source tree and workload definitions; the first call records
them under `.bench_out/`.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_out"
WORKLOADS = ("plate", "sphere", "graded-qc", "tiny")
SETUP_SAMPLES = 9
REF_SAMPLES = 10             # reference loops timed next to each call
RUN_LIMIT_S = 170.0          # the whole run must end well within 180 s
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def source_digest() -> str:
    """Digest of the program and of the workload definitions."""
    h = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), HERE / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment.

    On a shared host the speed of one core drifts by up to 1.7x within
    minutes, and every pipeline timing drifts with it. The loop runs in this
    process, between children, so no change to the program can alter it;
    dividing a pipeline time by the loop's median next to the calls removes
    much of the drift (see README.md)."""
    t = time.perf_counter()
    s = 0.0
    for i in range(500_000):
        s += i * 0.5
    return time.perf_counter() - t


def environment(before: dict) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "thread_pins": THREAD_PINS,
        "loadavg_start": before["loadavg"],
        "loadavg_end": os.getloadavg(),
    }


class Runner:
    """Starts child processes one at a time and collects their records."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.work = STATE / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.env = {**os.environ, **THREAD_PINS}
        self.n = 0
        self.refs: list[float] = []

    def time_reference(self) -> None:
        self.refs += [reference_loop() for _ in range(REF_SAMPLES)]

    def child(self, *extra: str) -> dict:
        self.n += 1
        out = self.work / f"call{self.n}"
        out.mkdir(parents=True)
        result = self.work / f"call{self.n}.json"
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--result", str(result),
               "--t0", repr(t0), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"errors": [f"child exceeded {timeout:.0f} s"]}
        if proc.returncode != 0 or not result.exists():
            return {"errors": [f"child exited with code {proc.returncode}"]}
        return json.loads(result.read_text())


def check_digests(calls: list[dict], reference: Path) -> None:
    """Flag every call whose artifacts differ from the recorded reference."""
    if reference.exists():
        expected = json.loads(reference.read_text())
    else:
        expected = next((c["digests"] for c in calls if "digests" in c and not c["errors"]),
                        None)
        if expected is None:
            return
        reference.parent.mkdir(parents=True, exist_ok=True)
        tmp = reference.with_suffix(".tmp")
        tmp.write_text(json.dumps(expected, indent=1, sort_keys=True))
        tmp.replace(reference)
    for c in calls:
        if "digests" in c and c["digests"] != expected:
            changed = sorted(k for k in set(expected) | set(c["digests"])
                             if expected.get(k) != c["digests"].get(k))
            c["errors"].append(f"artifacts differ from earlier calls: {changed}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(calls: list[dict], setups: list[float], ref_s: float) -> dict:
    timed = [c for c in calls if "wall_s" in c]
    wall_ref = median([c["wall_s"] for c in timed]) / ref_s
    q = next((c["quality"] for c in timed if "min_angle_deg" in c.get("quality", {})), {})
    return {
        "wall_ref": (wall_ref, "ref"),
        "triangles_per_ref": (q.get("triangles", 0) / wall_ref if wall_ref else 0.0, "1/ref"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([c["rss_mb"] for c in timed if "rss_mb" in c]), "MB"),
        "min_angle_deg": (q.get("min_angle_deg", 0.0), "deg"),
        "frac_ge30": (q.get("frac_ge30", 0.0), "ratio"),
        "frac_ge45": (q.get("frac_ge45", 0.0), "ratio"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced.get("layers", {}))
    wall, base = traced.get("wall_s", 0.0), untraced.get("wall_s", 0.0)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - base if wall and base else 0.0, "s")
    metrics["mesh.bytes_written"] = (float(traced.get("bytes_written", 0)), "B")
    metrics["mesh.hausdorff"] = (traced.get("quality", {}).get("hausdorff", 0.0), "len")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bubblemesh" / "pipeline.py").is_file():
        print(f"no bubblemesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    before = {"loadavg": os.getloadavg()}
    runner = Runner(args.workload, args.seed, start + RUN_LIMIT_S)
    calls: list[dict] = []
    setups: list[float] = []
    if args.trace:
        calls.append(runner.child())
        spans = STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        calls.append(runner.child("--trace", str(spans)))
        runner.time_reference()
    else:
        t_calls = time.monotonic()
        while True:
            runner.time_reference()
            calls.append(runner.child())
            elapsed = time.monotonic() - t_calls
            if elapsed * (len(calls) + 1) / len(calls) > args.seconds:
                break
        runner.time_reference()
        while len(setups) + len(calls) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
            setups.append(runner.child("--setup-only").get("setup_s"))
        setups = [s for s in setups if s is not None]
        setups += [c["setup_s"] for c in calls if "setup_s" in c]

    ref_s = median(runner.refs)
    reference = STATE / "reference" / f"{args.workload}-seed{args.seed}-{source_digest()}.json"
    check_digests(calls, reference)
    failed = sum(bool(c["errors"]) for c in calls)
    metrics = per_layer(*calls) if args.trace else end_to_end(calls, setups, ref_s)

    env = environment(before)
    env.update({k: next((c[k] for c in calls if k in c), "") for k in ("numpy", "scipy")})
    env.update(reference_loop_s=ref_s, reference_loop_min_s=min(runner.refs))
    walls = [c["wall_s"] for c in calls if "wall_s" in c]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "calls": calls, "setups": setups,
              "reference_loop_s": runner.refs}
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    for c in calls:
        for err in c["errors"]:
            print(f"FAILED call: {err.strip()}")
    print(f"calls {len(calls)}, set-up samples {len(setups)}, failed {failed}, "
          f"fail_frac {failed / len(calls):.3f}")
    print(f"reference loop median {ref_s:.6g} s over {len(runner.refs)} samples; "
          f"pipeline wall median {median(walls):.6g} s over {len(walls)} calls")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
