"""fsrkit benchmark: one workload per run, its outputs checked, its metrics
printed as the last line of standard output.

    python3 perfbench/run.py --workload catalog_report --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload deep_tower --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-expected

Run it from the root of a source checkout: it imports fsrkit from ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs a fixed, seed-determined list of operations untraced and then traced,
and prints the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4          # set-up is timed in these fresh processes and in the run itself
CLI_PASSES = 2
CHILD_TIMEOUT_S = 170
CLI_TIMEOUT_S = 60


def child_env() -> dict:
    """Single-threaded numeric libraries and a fixed hash seed."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def quantile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": source_commit()}


def source_commit() -> str:
    """The git commit when run in a git checkout, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import hashlib

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


# -- host speed -------------------------------------------------------------

# About the kernel's time on the reference host (Intel Xeon, 2 vCPU, at its
# fast speed).  Shared hosts run the same code up to 1.9x slower for seconds
# to minutes at a time; every interval is scaled by this over the kernel
# time measured around it (see perfbench/README.md, "Host speed").
REFERENCE_KERNEL_S = 0.0105
SAMPLE_EVERY_S = 0.1


def kernel() -> float:
    """Time fixed pure-Python work of the kinds fsrkit spends its time on:
    a loop over dicts, tuples and integers, then 8,000 string-keyed entries
    built and read back.  The collector is off inside, so that the garbage
    of the op before cannot be collected in the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(30000):
            table[i % 1000] = (acc, i)
            acc += i * i % 7
        cells: dict = {}
        for i in range(8000):
            key = f"t{i}.e{i % 7}"
            cells[key] = (key, i, [i, i + 1])
        for key, value in cells.items():
            acc += len(key) + value[1]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel samples taken between timed intervals (never inside one)."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = True) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= SAMPLE_EVERY_S:
            took = kernel()
            self.at.append(now)
            self.took.append(took)

    def scale(self, start: float, end: float) -> float:
        """Reference-host seconds per measured second over [start, end]:
        from the last sample before the interval and the first after it."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        near = [self.took[x] for x in (i, j) if 0 <= x < len(self.took)]
        return REFERENCE_KERNEL_S / statistics.mean(near)

    def timed(self, fn):
        """Run ``fn`` between two samples; returns (result, measured s,
        reference-host s)."""
        self.sample()
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.sample()
        return result, t1 - t0, (t1 - t0) * self.scale(t0, t1)


# -- worker -----------------------------------------------------------------


def set_up(workload: str, seed: int):
    """Import fsrkit and build the workload's inputs; returns (workload, s)."""
    t0 = time.perf_counter()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:3])


def cold_cli_reports(tally: Tally, speed: HostSpeed) -> tuple[float, float]:
    """Cold ``python -m fsrkit.cli --json report NAME`` processes, one at a
    time, CLI_PASSES per catalog rule; each stdout must hash as recorded.
    Returns the mean over rules of each rule's median wall time, measured
    and at the reference host's speed."""
    import workloads

    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["catalog_report"]
    measured: dict[str, list] = {}
    scaled: dict[str, list] = {}
    for _ in range(CLI_PASSES):
        for name in workloads.CATALOG_NAMES:
            out, raw, ref = speed.timed(lambda: run_child(
                ["-m", "fsrkit.cli", "--json", "report", name], CLI_TIMEOUT_S))
            measured.setdefault(name, []).append(raw)
            scaled.setdefault(name, []).append(ref)
            if out.returncode != 0:
                tally.add([f"cli report {name}: exit {out.returncode}"])
            elif workloads.sha256(out.stdout) != expected[name]:
                tally.add([f"cli report {name}: stdout differs from the "
                           "recorded report"])
            else:
                tally.add([])
    return (statistics.mean(map(statistics.median, measured.values())),
            statistics.mean(map(statistics.median, scaled.values())))


def run_ops(wl, specs, tally: Tally, speed: HostSpeed | None = None,
            tracer=None, first_op: int = 0) -> list:
    """Run each op once; inputs are built and outputs checked outside its
    timed phases.  Returns the Phases of every completed op."""
    import workloads

    between = (lambda: speed.sample(force=False)) if speed else None
    done = []
    for i, spec in enumerate(specs, first_op):
        inputs = wl.prepare(spec)
        phases = workloads.Phases(between)
        if speed:
            speed.sample(force=False)
        try:
            if tracer is None:
                out = wl.run(spec, inputs, phases)
            else:
                with tracer.op(i):
                    out = wl.run(spec, inputs, phases)
        except Exception as exc:  # an unexpected error is a failed op
            tally.add([f"{spec!r:.120}: {type(exc).__name__}: {exc}"])
            continue
        if speed:
            speed.sample(force=False)
        phases.kind = (wl.kind(spec), out is None)
        tally.add(wl.check(spec, inputs, out))
        done.append(phases)
        del inputs, out
        gc.collect()        # no op pays for the garbage of the one before
    return done


def by_kind_median(ops: list, values: list[float]) -> list[float]:
    """Each op's value replaced by the median over the ops of its kind.
    Each kind repeats in every round, so percentiles and sums of these
    values describe the op mix without the jitter of single samples, which
    would otherwise decide an order statistic that falls between two
    kinds."""
    by_kind: dict = {}
    for op, v in zip(ops, values):
        by_kind.setdefault(op.kind, []).append(v)
    median = {k: statistics.median(v) for k, v in by_kind.items()}
    return [median[op.kind] for op in ops]


def measure(args, wl, setup: list[float], speed: HostSpeed):
    """End-to-end metrics: whole rounds of ops until --seconds is spent,
    then the workload's probe and the cold CLI reports.  Times are given at
    the reference host's speed (see HostSpeed)."""
    tally = Tally()
    ops: list = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:                         # whole rounds keep the op mix fixed
        t0 = time.perf_counter()
        ops += run_ops(wl, wl.round(), tally, speed)
        rounds += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    probe = wl.probe(lambda: speed.sample(force=False))
    speed.sample()
    cli_raw, cli_ref = cold_cli_reports(tally, speed)
    raw = [op.total() for op in ops]
    scaled = [op.total(scale=speed.scale) for op in ops]
    typical = by_kind_median(ops, scaled)
    towers = [op for op in ops + probe if op.cells]
    tower_s = by_kind_median(towers, [op.total("tower", speed.scale)
                                      for op in towers])
    energy_s = by_kind_median(towers, [op.total("energy", speed.scale)
                                       for op in towers])
    pct = wl.tail_percentile
    tail = quantile(typical, pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_ms": (1e3 * quantile(typical, 50), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted,
                     "ratio"),
        "cli_report_cold_s": (cli_ref, "s"),
        "cells_per_s": (sum(op.cells for op in towers) / sum(tower_s), "1/s"),
        "energy_levels_s": (statistics.mean(energy_s), "s"),
    }
    details = {"rounds": rounds, "ops": len(ops),
               "rejected": sum(op.kind[1] for op in ops),
               "failed_ratio": tally.failed / tally.attempted,
               "tail_percentile": pct,
               "tail_samples_beyond": sum(x > tail for x in scaled),
               "host_speed_median": statistics.median(
                   REFERENCE_KERNEL_S / k for k in speed.took),
               "measured": {"ops_per_s": len(raw) / sum(raw),
                            "op_p50_ms": 1e3 * quantile(raw, 50),
                            "op_tail_ms": 1e3 * quantile(raw, pct),
                            "cli_report_cold_s": cli_raw}}
    return tally, metrics, details


def measure_traced(args, wl):
    """Per-layer metrics: a fixed list of ops, run in four passes, untraced,
    traced, traced, untraced, so that a drift of the host's speed or of the
    process's state over the passes cancels out of the tracing overhead.
    Span and CLI times are as measured; the op totals are scaled to the
    reference host, so that their difference, the tracing overhead, is not
    lost in the host's changes of speed."""
    import spans

    specs = [spec for _ in range(wl.trace_rounds) for spec in wl.round()]
    tally = Tally()
    speed = HostSpeed()
    run_ops(wl, specs, tally)       # warm-up: the first pass runs slower
    tracer = spans.Tracer()
    plain, traced = [], []
    for k, with_trace in enumerate((False, True, True, False)):
        if with_trace:
            tracer.install()
            traced += run_ops(wl, specs, tally, speed, tracer,
                              first_op=k * len(specs))
            tracer.uninstall()
        else:
            plain += run_ops(wl, specs, tally, speed)
    speed.sample()
    metrics = {}
    for name, st in tracer.layer_stats().items():
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.self_s"] = (st["self_s"], "s")
    c = tracer.counters
    metrics["rules.cells_built"] = (c["rules.cells_built"], "count")
    decided = (c["quotients.validate_collapsible.accepted"]
               + c["quotients.validate_collapsible.rejected"])
    metrics["quotients.validate_collapsible.accept_ratio"] = (
        c["quotients.validate_collapsible.accepted"] / decided
        if decided else 0.0, "ratio")
    attempts = c["energies.crochet_certificate.attempts"]
    metrics["energies.crochet_certificate.certified_ratio"] = (
        c["energies.crochet_certificate.certified"] / attempts
        if attempts else 0.0, "ratio")
    metrics["rules.tower.bytes_per_cell"] = (tower_bytes_per_cell(wl), "B")
    metrics["cli.report_cold_s"] = (cold_cli_reports(tally, HostSpeed())[0], "s")
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = run_child(["-c", "import fsrkit.cli"], CLI_TIMEOUT_S)
        imports.append(time.perf_counter() - t0)
        tally.add([] if out.returncode == 0
                  else [f"import fsrkit.cli: exit {out.returncode}"])
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    plain_s = sum(op.total(scale=speed.scale) for op in plain)
    traced_s = sum(op.total(scale=speed.scale) for op in traced)
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return tally, metrics, {"ops": len(specs)}


def tower_bytes_per_cell(wl) -> float:
    """Bytes the Python heap retains per cell of the workload's reference
    tower (all levels), measured with tracemalloc."""
    import tracemalloc

    import workloads
    from fsrkit import catalog, rules

    name, level = wl.reference_tower
    rule = catalog.get_rule(name)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tower = rules.Tower.build(rule)
        tower.up_to(level)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / sum(workloads.cells(lv.complex) for lv in tower.levels)


def worker(args) -> int:
    # one CPU for this process and its children, so that the host-speed
    # samples describe the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        wl, _ = set_up(args.workload, args.seed)
        tally, metrics, details = measure_traced(args, wl)
    else:
        speed = HostSpeed()
        (wl, _), raw, ref = speed.timed(
            lambda: set_up(args.workload, args.seed))
        measured, setup = [raw], [ref]
        for _ in range(SETUP_PROBES):
            out, wall, wall_ref = speed.timed(lambda: run_child(
                [os.path.join(HERE, "run.py"), "--worker", "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)],
                CHILD_TIMEOUT_S))
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return 1
            probe_s = float(out.stdout.split()[-1])
            measured.append(probe_s)
            # the probe times itself; scale by the host speed around it
            setup.append(probe_s * wall_ref / wall)
        tally, metrics, details = measure(args, wl, setup, speed)
        details["setup_measured_s"] = measured
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   failures=tally.messages[:20], environment=environment())
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0


# -- launcher ---------------------------------------------------------------


def launch(argv: list[str]) -> int:
    """Run the worker in a fresh process with the fixed environment, in its
    own session so that a timeout can stop everything it started."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "run.py"),
                             "--worker", *argv], cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("error: benchmark run timed out", file=sys.stderr)
        return 3


def smoke() -> int:
    """Every workload emits every metric BENCHMARK.json names for its mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w["name"], "--seed", "1", "--seconds", "1", "--trace",
                 str(trace)], cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S + 10)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w['name']} trace={trace}: FAIL, exit {out.returncode}"
                      f"\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            want = {m["name"] for m in bench[key]}
            got = set(result["metrics"])
            good = got == want and result["correct"]
            ok &= good
            print(f"{w['name']} trace={trace}: {'ok' if good else 'FAIL'}; "
                  f"missing {sorted(want - got)}, extra {sorted(got - want)}, "
                  f"correct {result['correct']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check that every workload emits every named metric")
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite perfbench/expected.json from this checkout")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        if args.setup_probe:
            print(set_up(args.workload, args.seed)[1])
            return 0
        if args.record_expected:
            import workloads

            with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
                json.dump(workloads.record_expected(), fh, indent=1,
                          sort_keys=True)
                fh.write("\n")
            return 0
        return worker(args)

    if not os.path.isfile(os.path.join(SRC, "fsrkit", "__init__.py")):
        print(f"error: no fsrkit sources in {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None and not args.record_expected:
        ap.error("--workload is required")
    return launch(argv)


if __name__ == "__main__":
    sys.exit(main())
