"""mquilt benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; mquilt is imported from ``src/``.
The run repeats whole passes of the workload's fixed operation list until
``--seconds`` of passes have elapsed, one operation in flight at a time,
in this process and thread. With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics (and writes the spans to
``perfbench/out/``). Every operation's output is checked; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
# One process, one thread: keep BLAS from starting worker threads.
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["release-exact", "histogram-ledger", "oracle-composition"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="build the inputs in DIR, warm up, report the set-up time and exit")
    p.add_argument("--spawned-at", type=float, default=None,
                   help="wall-clock time at which the parent run spawned this set-up probe")
    return p.parse_args(argv)


def import_program():
    """Import mquilt from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mquilt" / "__init__.py").is_file():
        sys.exit(f"benchmark: no mquilt sources under {src}")
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    return workloads


def setup(workloads, name: str, seed: int, workdir: Path):
    wl = workloads.WORKLOADS[name](seed, workdir)
    workloads.warm_up(workdir)
    return wl


def measure_setup(args) -> tuple[float, list[float]]:
    """Median time from spawning a fresh interpreter until it has done the
    run's set-up (imports, input generation, warm-up), in nominal seconds,
    plus the raw times. Each probe times the calibration kernel right after
    its set-up, which gives the scale for its own time. The first probe is
    discarded so byte-code compilation and cold file caches do not count."""
    scaled, raw = [], []
    env = dict(os.environ, **THREAD_ENV)
    for n in range(SETUP_REPEATS + 1):
        with tempfile.TemporaryDirectory(dir=OUT) as d:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", "0", "--setup-only", d,
                   "--spawned-at", repr(time.time())]
            out = subprocess.run(cmd, check=True, env=env, cwd=ROOT, capture_output=True, text=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        if n:
            raw.append(probe["setup_s"])
            scaled.append(probe["setup_s"] * probe["scale"])
    return statistics.median(scaled), raw


def run_passes(wl, seconds: float, clock, tracer):
    """Whole passes until ``seconds`` of pass time have elapsed; returns
    every operation's (name, raw seconds), per-pass raw times, counts and
    the first failure messages."""
    op_s, pass_s, attempted, failed, errors = [], [], 0, 0, []
    while not pass_s or sum(pass_s) < seconds:
        ops = wl.ops()
        results, times = [], []
        clock.sample()
        if tracer:
            tracer.active = True
        for op in ops:
            clock.boundary()
            t0 = time.perf_counter()
            try:
                results.append((True, op.run()))
            except Exception:  # an operation that raises has failed; keep measuring
                results.append((False, traceback.format_exc(limit=3)))
            times.append(time.perf_counter() - t0)
        if tracer:
            tracer.active = False
            tracer.end_pass()
        op_s += [(op.name, dt) for op, dt in zip(ops, times)]
        pass_s.append(sum(times))
        for op, (ok, res) in zip(ops, results):
            attempted += 1
            if ok:
                try:
                    op.check(res)
                    continue
                except Exception:  # a check that raises is a failed check
                    res = traceback.format_exc(limit=3)
            failed += 1
            if len(errors) < 5:
                errors.append(f"{op.name}: {res}")
    clock.sample()
    return op_s, pass_s, attempted, failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import calibration
    if args.setup_only:
        setup(workloads, args.workload, args.seed, Path(args.setup_only))
        elapsed = time.time() - args.spawned_at
        print(json.dumps({"setup_s": elapsed, "scale": calibration.Clock().scale()}))
        return 0

    OUT.mkdir(exist_ok=True)
    setup_s, raw_setup_s = measure_setup(args)
    clock = calibration.Clock()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = setup(workloads, args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        op_s, pass_s, attempted, failed, errors = run_passes(wl, args.seconds, clock, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_per_pass = attempted // len(pass_s)
    scale = clock.scale()
    op_median = {n: statistics.median(t for m, t in op_s if m == n) for n, _ in op_s}
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(pass_s),
        "ops_per_pass": ops_per_pass, "scale": scale,
        "pass_s": [t * scale for t in pass_s],
        "ops_per_s": ops_per_pass / (statistics.median(pass_s) * scale),
        "op_median_s": {n: t * scale for n, t in op_median.items()},
        "raw": {"setup_s": statistics.median(raw_setup_s), "setup_probes_s": raw_setup_s,
                "pass_s": pass_s, "ops_per_s": ops_per_pass / statistics.median(pass_s),
                "op_p50_s": statistics.median(op_median.values())},
    }
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(scale)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**summary, "metrics": metrics, **tracer.dump()}))
        print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(op_median.values()) * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
