"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace] [--label set1]

For every workload and seed this runs ``perfbench/run.py`` (run length from
BENCHMARK.json) and prints, per end-to-end metric, the median, the quartiles
and the spread (interquartile distance over median) as
``statistics.quantiles(values, n=4)`` gives them. ``--trace`` adds one
traced run per workload at the first seed and reports the tracing overhead
on ops_per_s. Raw results go to ``perfbench/out/sweep-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    summary["wall_s"] = time.perf_counter() - t0
    return summary, result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--label", default="sweep")
    args = p.parse_args()
    report = {"started": time.strftime("%Y-%m-%d %H:%M:%S"), "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            summary, result = run(wl, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "summary": summary, "result": result})
            m = result["metrics"]
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} passes={summary['passes']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                  + f" wall={summary['wall_s']:.1f}s", flush=True)
        entry = {"runs": runs, "spread": {}}
        for metric in bench["end_to_end"]:
            vals = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            entry["spread"][metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                               "spread": (q3 - q1) / med, "bound": metric["bound"]}
            print(f"  {metric['name']:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {(q3 - q1) / med:.3f}  (bound {metric['bound']})")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"  failed share(s): {sorted(shares)}")
        if args.trace:
            seed = seeds(args.seeds)[0]
            summary, result = run(wl, seed, bench["run_seconds"], 1)
            plain = runs[0]["summary"]["ops_per_s"]
            entry["traced"] = {"seed": seed, "summary": summary, "result": result,
                               "overhead": plain / summary["ops_per_s"] - 1.0}
            print(f"  traced seed {seed}: ops_per_s {summary['ops_per_s']:.4g} vs "
                  f"{plain:.4g} untraced, overhead {entry['traced']['overhead']:+.1%}")
        report["workloads"][wl] = entry
    report["finished"] = time.strftime("%Y-%m-%d %H:%M:%S")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"sweep-{args.label}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
