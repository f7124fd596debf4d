"""Repeat the benchmark over several seeds and summarise each end-to-end
metric: median, quartiles and spread (quartile distance over the median),
against the bound BENCHMARK.json gives it.

    python3 perfbench/repeat.py --runs 10 --out perfbench/results/seed.json
    python3 perfbench/repeat.py --runs 5 --workloads catalog_report

A metric is steady when its spread is below a third of its bound.  With
``--roadmap`` the summary also compares the seed figures with the ROADMAP
baseline: analyze per catalog rule, and a level-8 degree-4 tower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import child_env  # noqa: E402

ROADMAP = {
    "analyze_s_per_catalog_rule": [0.01, 0.33],
    "level8_degree4_tower_s": 7.0,
    "level8_degree4_tower_peak_rss_mb": [450, 470],
}

LEVEL8_PROBE = """
import json, resource, time
from fsrkit import catalog, report, rules
t0 = time.perf_counter()
rules.Tower.build(catalog.get_rule("tripod_pillow_4")).up_to(8)
tower_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
times = {}
for name in sorted(catalog.CATALOG):
    runs = []
    for _ in range(3):
        rule = catalog.get_rule(name)
        t0 = time.perf_counter()
        report.analyze(rule)
        runs.append(time.perf_counter() - t0)
    times[name] = sorted(runs)[1]
print(json.dumps([tower_s, rss, times]))
"""


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    details = next((json.loads(line[len("details "):]) for line in lines
                    if line.startswith("details ")), {})
    return {"result": json.loads(lines[-1]), "details": details}


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread,
           "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def roadmap_comparison() -> dict:
    """Seed figures against the ROADMAP baseline; >2x apart is flagged."""
    out = subprocess.run([sys.executable, "-c", LEVEL8_PROBE], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=300, check=True)
    tower_s, rss, times = json.loads(out.stdout)
    lo, hi = ROADMAP["analyze_s_per_catalog_rule"]
    rows = {f"analyze_s.{k}": {"measured": v, "roadmap": [lo, hi],
                               "flag": v > 2 * hi or v < lo / 2}
            for k, v in times.items()}
    rows["level8_degree4_tower_s"] = {
        "measured": tower_s, "roadmap": ROADMAP["level8_degree4_tower_s"],
        "flag": not 0.5 <= tower_s / ROADMAP["level8_degree4_tower_s"] <= 2}
    lo, hi = ROADMAP["level8_degree4_tower_peak_rss_mb"]
    rows["level8_degree4_tower_peak_rss_mb"] = {
        "measured": rss, "roadmap": [lo, hi],
        "flag": rss > 2 * hi or rss < lo / 2}
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs per workload (same seed, to compare counts)")
    ap.add_argument("--roadmap", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    summary: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in names:
        t0 = time.time()
        runs = [run_once(name, args.first_seed + i, bench["run_seconds"], 0)
                for i in range(args.runs)]
        entry = {"environment": runs[0]["details"].get("environment"),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "correct": all(r["result"]["correct"] for r in runs),
                 "tail_percentile": runs[0]["details"].get("tail_percentile"),
                 "tail_samples_beyond": [r["details"].get("tail_samples_beyond")
                                         for r in runs],
                 "ops": [r["details"].get("ops") for r in runs],
                 "host_speed": [r["details"].get("host_speed_median")
                                for r in runs],
                 "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            entry["metrics"][metric] = summarise(values, bound)
            steady &= metric == "setup_s" or entry["metrics"][metric]["steady"]
        if args.traced:
            traced = [run_once(name, args.first_seed, bench["run_seconds"], 1)
                      for _ in range(args.traced)]
            per_layer = [t["result"]["metrics"] for t in traced]
            entry["traced"] = {
                "metrics": per_layer[0],
                "calls_repeat": all(
                    p[k]["value"] == per_layer[0][k]["value"]
                    for p in per_layer for k in p if k.endswith(".calls")),
                "overhead_s": [p["trace.overhead_s"]["value"] for p in per_layer],
            }
        entry["wall_s"] = time.time() - t0
        summary["workloads"][name] = entry
        for metric, s in entry["metrics"].items():
            print(f"{name:15s} {metric:18s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']} "
                  f"{'ok' if s['steady'] else 'WIDE'}")
        print(f"{name}: {entry['wall_s']:.0f} s, correct {entry['correct']}",
              flush=True)
    if args.roadmap:
        summary["roadmap_comparison"] = roadmap_comparison()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
