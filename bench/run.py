"""robustfinite benchmark: one command runs a workload, checks every output,
and prints its metrics by name with their units.

    python3 bench/run.py --workload mc_pairwise --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last line
is a JSON object carrying the end-to-end metrics; with ``--trace 1`` the run
also records spans and carries the per-layer metrics instead.  Records,
spans and CLI outputs go to ``bench/out/``.

Calls are timed on the workload's clock (``workloads.CLOCKS``): CPU time of
this process and its reaped children for the in-process workloads, wall
time for ``mc_sweep``.  Each call's typical time is the upper quartile of
its timed calls in the run (see ``workloads.Tally.typical``).

End-to-end metrics (untraced runs):
  reps_per_s         estimator-replications per second of one cycle run at
                     each call's typical time
  calls_per_s        public calls per second of one cycle run at each call's
                     typical time; a call that ever failed its check adds
                     its time but no work
  call_p50_us        median over the workload's small calls of each call's
                     typical time (nearest rank)
  call_p99_us        the same at p99, or at the highest percentile with at
                     least ten samples beyond it (the maximum below 20)
  large_call_p50_ms  median over the large calls of each call's typical time
  setup_s            median of 9 fresh-process ``robustfinite factors
                     --n 5`` cold starts (import and table load), spread
                     evenly over the timed phase between calls
  peak_rss_mb        peak RSS of this process plus that of its largest child
                     (pool workers, or the cold-start processes, which are
                     spawned from a small helper so that they do not count
                     this process's memory twice)
The error rate is ``failed / attempted`` in the JSON line: every call whose
output fails its check, or that raises, counts as failed, and the run then
exits with status 1 after printing its result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {"reps_per_s": "1/s", "calls_per_s": "1/s", "call_p50_us": "us",
              "call_p99_us": "us", "large_call_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
COLD_STARTS = 9
NOTES = [
    "pool wait time is not visible from outside the program; "
    "spans cover whole calls into package modules only",
]


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_package():
    """Import robustfinite from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import robustfinite
    from robustfinite import calibration, cli, estimators, factors, spc

    if Path(robustfinite.__file__).resolve().parent != (SRC / "robustfinite").resolve():
        raise ImportError(f"robustfinite imported from {robustfinite.__file__}")

    return SimpleNamespace(calibration=calibration, cli=cli, estimators=estimators,
                           factors=factors, spc=spc)


class ColdStarts:
    """Fresh ``robustfinite factors --n 5`` processes, spawned one at a time
    by the helper ``starter.py``, which is started before the workload
    allocates anything."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "starter.py")],
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def once(self) -> tuple[float, bool]:
        """Wall time of one cold start, and whether it printed the right answer."""
        import gate

        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        lines = reply["stdout"].splitlines()
        ok = (reply["returncode"] == 0 and len(lines) == 3
              and lines[2].split(",")[:2] == ["5", f"{gate.c4_reference(5):.7f}"])
        return reply["s"], ok

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def provenance(seed: int, workers: list[int]) -> dict:
    import numpy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in
                (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level:
            caches[int(level)] = read(index / "size")
    try:
        from importlib.metadata import version
        scipy_version = version("scipy")
    except Exception:  # absent or unreadable metadata is recorded, not fatal
        scipy_version = None
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "robustfinite").rglob("*")):
        if path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "last_level_cache": caches[max(caches)] if caches else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workers_requested": workers,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_metrics(tally, clock: str) -> tuple[dict, str]:
    """Every metric rests on each op's typical time over its timed calls,
    so one slow call, or a fast spell of the host, does not move it."""
    from spans import nearest_rank, tail_percentile

    small = tally.typical_latencies("small")
    large = tally.typical_latencies("large")
    q = tail_percentile(len(small))
    reps_per_s, calls_per_s = tally.throughput()
    m = {
        "reps_per_s": reps_per_s,
        "calls_per_s": calls_per_s,
        "call_p50_us": nearest_rank(small, 50) / 1e3,
        "call_p99_us": (nearest_rank(small, q) if q else max(small)) / 1e3,
        "large_call_p50_ms": nearest_rank(large, 50) / 1e6,
    }
    tail = f"p{q}" if q else "the maximum (too few for the tail rule)"
    note = (f"{len(tally.cycles)} cycles, {tally.attempted} calls timed on the {clock} clock; "
            f"call_p99_us is {tail} of {len(small)} small calls' typical times; "
            f"large_call_p50_ms over {len(large)} large calls")
    return m, note


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustfinite" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'robustfinite'}; run from the root "
              "of a robustfinite checkout", file=sys.stderr)
        return 2

    starter = None if args.trace else ColdStarts()
    try:
        return measure(args, starter)
    finally:
        if starter is not None:
            starter.close()


def measure(args, starter: ColdStarts | None) -> int:
    import selftest
    failures = selftest.run()
    if failures:
        print("error: harness self-tests failed: " + "; ".join(failures), file=sys.stderr)
        return 1

    import layers
    import workloads
    from spans import Tracer, check_metric_name, self_times

    pkg = import_package()
    workers = min(2, len(os.sched_getaffinity(0)))
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    outdir = BENCH_DIR / "out" / run_id
    outdir.mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    failures: list[str] = []
    metrics: dict[str, float] = {}

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, pkg, args.seed, outdir, workers)
    prepare_s = time.perf_counter() - t0
    for op in wl.ops:
        if op.kind == "small" and op.layer in ("estimators", "factors"):
            op.fn()   # warm lazily loaded tables and code paths, unrecorded

    notes = list(wl.notes) + NOTES
    tally = workloads.Tally(wl.ops, wl.clock)
    tracer = Tracer(run_id)
    starts: list[float] = []
    bad_starts = 0

    def cold_start_due(force: bool = False) -> None:
        """Take the next cold start once the phase has reached its mark."""
        nonlocal bad_starts
        mark = len(starts) * args.seconds / COLD_STARTS
        if len(starts) < COLD_STARTS and (force or time.perf_counter() - start >= mark):
            dt, ok = starter.once()
            starts.append(dt)
            bad_starts += not ok

    start = time.perf_counter()
    if not args.trace:
        starter.once()   # untimed: warms the page cache for the timed starts
        start = time.perf_counter()
        while True:
            workloads.run_cycle(tally, between=cold_start_due)
            if time.perf_counter() - start >= args.seconds:
                break
        while len(starts) < COLD_STARTS:
            cold_start_due(force=True)
        metrics["setup_s"] = statistics.median(starts)
        attempted += len(starts)
        failed += bad_starts
        if bad_starts:
            failures.append(f"{bad_starts} cold starts printed a wrong factor set")
    else:
        # alternate untraced and traced cycles; the wall-time difference is
        # the tracing overhead
        wall = [0.0, 0.0]
        cycle = 0
        while True:
            c0 = time.perf_counter()
            if cycle % 2:
                span = tracer.open("bench.cycle", "bench", args.workload)
                workloads.run_cycle(tally, tracer)
                tracer.close(span)
            else:
                workloads.run_cycle(tally)
            wall[cycle % 2] += time.perf_counter() - c0
            cycle += 1
            if cycle % 2 == 0 and time.perf_counter() - start >= args.seconds:
                break
        overhead_pct = 100.0 * (wall[1] - wall[0]) / wall[0]
        notes.append(f"tracing overhead {overhead_pct:+.2f}% of cycle wall time "
                     f"({cycle // 2} untraced vs {cycle // 2} traced cycles)")
    timed_s = time.perf_counter() - start

    attempted += tally.attempted
    failed += tally.failed
    failures += tally.failures
    for label, ok in wl.after():
        attempted += 1
        if not ok:
            failed += 1
            failures.append(label)

    if not args.trace:
        m, note = timed_metrics(tally, wl.clock)
        metrics.update(m)
        metrics["peak_rss_mb"] = peak_rss_mb()
        notes.append(note)
        units = END_TO_END
    else:
        probe = layers.Probe(tracer, pkg, args.seed, child_env(), BENCH_DIR, outdir, workers)
        before = len(tracer.spans)
        span = tracer.open("bench.probes", "bench", "probes")
        metrics.update(probe.run())
        tracer.close(span)
        attempted += len(tracer.spans) - before - 1
        failed += len(probe.failed)
        failures += probe.failed
        metrics.update(layers.layer_totals(tracer, self_times(tracer.spans)))
        metrics["trace.overhead_pct"] = overhead_pct
        metrics["trace.span_ns"] = layers.span_cost_ns(tracer)
        tracer.write(outdir / "spans.json", notes)
        units = layers.per_layer_metrics()

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result_metrics = {check_metric_name(k): {"value": float(metrics[k]), "unit": units[k]}
                      for k in units}
    prov = provenance(args.seed, wl.workers)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "prepare_s": prepare_s, "timed_s": timed_s,
              "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
              "cycles": [{"reps": r, "calls": c, "busy_ns": b} for r, c, b in tally.cycles],
              "failures": failures, "notes": notes, "metrics": result_metrics}
    (outdir / "record.json").write_text(json.dumps(record, indent=1))

    print("provenance: " + json.dumps(prov))
    for note in notes:
        print("note: " + note)
    for line in failures:
        print("FAILED: " + line)
    print(f"{'error_rate':<40} {failed / attempted:.6g} 1  ({failed} of {attempted})")
    for name, v in result_metrics.items():
        print(f"{name:<40} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
