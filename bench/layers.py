"""Per-layer probes for the traced run.

Each probe calls public names of one package module inside spans, and the
layer metric is derived from those spans' durations (median of repeats).
Layers are the package modules; ``_normal`` (the RNG) has no public caller,
so it is measured through ``calibration.simulate`` with the near-free
``mean`` estimator.  ``breakdown`` is left out: no planned change touches it
and its whole table takes about a millisecond.

Which end-to-end metric each layer metric should move:
  normal.draw_ns_per_value         reps_per_s on mc_sweep (little on mc_pairwise)
  calibration.kernel_ns.*          reps_per_s: pairwise on mc_pairwise,
                                   mad/median and small n on mc_sweep
  calibration.block_overhead_us,
  .pool_startup_ms, .pool_speedup,
  .table_cell_ms                   reps_per_s on mc_sweep
  calibration.fit_us               calls_per_s on data_api
  spc.experiment_ns_per_rep        reps_per_s on mc_sweep
  spc.chart_limits_ms.*, .screen_us  calls_per_s on data_api
  estimators.call_us.*             call_p50_us, call_p99_us on data_api
  estimators.call_ms.*, .peak_mb.* large_call_p50_ms, peak_rss_mb on data_api
  factors.*                        setup_s and calls_per_s
  cli.import_s, cli.import_s.scipy setup_s
  cli.emit_ms                      reps_per_s on mc_pairwise
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import tracemalloc
from statistics import median

import numpy as np

from spans import Tracer

KERNEL_ESTIMATORS = ("median", "std", "mad", "shamos", "hl1", "hl2", "hl3")
KERNEL_REPS = {5: 4096, 20: 4096, 50: 2048, 100: 1024}
CALL_N = (5, 20, 100)
LARGE_N = 4000
CHART_PROBE_SHAPE = (5000, 5)
SCREEN_SHAPE = (20_000, 5)

# metric prefix of each layer (metric names may not start with "_")
LAYERS = {"estimators": "estimators", "calibration": "calibration", "spc": "spc",
          "factors": "factors", "cli": "cli", "_normal": "normal"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    m = {"normal.draw_ns_per_value": "ns"}
    m.update({f"calibration.kernel_ns.{e}.n{n}": "ns" for e in KERNEL_ESTIMATORS
              for n in KERNEL_REPS})
    m.update({"calibration.block_overhead_us": "us", "calibration.pool_startup_ms": "ms",
              "calibration.pool_speedup": "ratio", "calibration.table_cell_ms": "ms",
              "calibration.fit_us": "us", "spc.experiment_ns_per_rep": "ns"})
    m.update({f"spc.chart_limits_ms.{c}": "ms" for c in ("std-c4", "mad-c5", "shamos-c6")})
    m["spc.screen_us"] = "us"
    m.update({f"estimators.call_us.{f}.n{n}": "us" for f in
              ("mean", "median", "hl1", "hl2", "hl3", "mad", "shamos", "std_dev")
              for n in CALL_N})
    for kind, unit in (("call_ms", "ms"), ("peak_mb", "MB")):
        m.update({f"estimators.{kind}.{f}.n{LARGE_N}": unit
                  for f in ("shamos", "hl1", "hl2", "hl3")})
    m.update({"factors.table_load_ms": "ms", "factors.factor_set_us.table": "us",
              "factors.factor_set_us.model": "us", "factors.unbiased_us.mad": "us",
              "factors.unbiased_us.shamos": "us", "cli.import_s": "s",
              "cli.import_s.scipy": "s", "cli.emit_ms": "ms"})
    for prefix in LAYERS.values():
        m.update({f"{prefix}.calls": "count", f"{prefix}.self_s": "s",
                  f"{prefix}.errors": "count"})
    m.update({"trace.overhead_pct": "%", "trace.span_ns": "ns"})
    return m


class Probe:
    """Runs probes under one tracer; every package call becomes a span."""

    def __init__(self, tracer: Tracer, pkg, seed: int, child_env: dict, bench_dir,
                 outdir, workers: int) -> None:
        self.t = tracer
        self.pkg = pkg
        self.seed = seed
        self.env = child_env
        self.bench_dir = bench_dir
        self.outdir = outdir
        self.workers = workers
        self.rng = np.random.default_rng(seed)
        self.failed: list[str] = []

    def time(self, tag: str, name: str, layer: str, fn, *args, repeat: int = 3) -> float:
        """Median duration in ns of ``repeat`` spans around ``fn(*args)``."""
        for _ in range(repeat):
            self.t.call(name, layer, tag, fn, *args)
        return median([s.duration_ns for s in self.t.select(tag)])

    def child(self, tag: str, layer: str, argv: list[str]) -> subprocess.CompletedProcess:
        span = self.t.open(f"{layer}.<fresh process>", layer, tag)
        proc = subprocess.run([sys.executable, *argv], env=self.env, capture_output=True,
                              text=True, timeout=120)
        self.t.close(span, error=proc.returncode != 0)
        if proc.returncode != 0:
            self.failed.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-200:]}")
        return proc

    # -- calibration and the RNG beneath it --------------------------------

    def simulate(self, est, n_values, reps, workers=1):
        cal = self.pkg.calibration
        return cal.simulate(cal.SimulationConfig(est, tuple(n_values), self.seed, reps,
                                                 workers))

    def calibration(self, m: dict) -> None:
        cal = self.pkg.calibration
        t = self.time("draw", "calibration.simulate", "_normal",
                      self.simulate, "mean", (100,), 8192, repeat=5)
        m["normal.draw_ns_per_value"] = t / (8192 * 100)
        for n, reps in KERNEL_REPS.items():
            base = self.time(f"mean.n{n}", "calibration.simulate", "_normal",
                             self.simulate, "mean", (n,), reps)
            for est in KERNEL_ESTIMATORS:
                t = self.time(f"kernel.{est}.n{n}", "calibration.simulate", "calibration",
                              self.simulate, est, (n,), reps)
                m[f"calibration.kernel_ns.{est}.n{n}"] = (t - base) / reps

        # 64 blocks of 100 rows against 2 blocks holding as many rows and
        # about as many values
        many = self.time("blocks.64", "calibration.simulate", "_normal",
                         self.simulate, "mean", range(2, 66), 100, repeat=5)
        few = self.time("blocks.2", "calibration.simulate", "_normal",
                        self.simulate, "mean", (33,), 6400, repeat=5)
        m["calibration.block_overhead_us"] = (many - few) / 62 / 1e3

        serial = self.time("pool.serial", "calibration.simulate", "_normal",
                           self.simulate, "mean", (2, 3), 100, 1, repeat=5)
        pooled = self.time("pool.pooled", "calibration.simulate", "_normal",
                           self.simulate, "mean", (2, 3), 100, self.workers, repeat=5)
        m["calibration.pool_startup_ms"] = (pooled - serial) / 1e6

        regen = {}
        for w in sorted({1, self.workers}):
            regen[w] = self.time(f"table.w{w}", "calibration.regenerate_table", "calibration",
                                 cal.regenerate_table, "bias", range(2, 13), self.seed,
                                 8192, w)
        m["calibration.table_cell_ms"] = regen[1] / (2 * 11) / 1e6
        m["calibration.pool_speedup"] = regen[1] / regen[self.workers]

        table = self.pkg.factors.load_table("bias_table")
        data = cal.FitInput(points=tuple((n, r["mad_bias"]) for n, r in table.items()
                                         if n >= 51))
        for fit in (cal.fit_hayes, cal.fit_williams):
            self.time("fit", f"calibration.{fit.__name__}", "calibration", fit, data,
                      repeat=50)
        m["calibration.fit_us"] = median([s.duration_ns for s in self.t.select("fit")]) / 1e3

    # -- spc ---------------------------------------------------------------

    def spc(self, m: dict) -> None:
        spc = self.pkg.spc
        reps = 8192
        t = self.time("experiment", "spc.contamination_experiment", "spc",
                      spc.contamination_experiment, 10, 5, 5.0, 1.0,
                      (0, 10, 20, 30, 40, 50), reps, self.seed, 1, 1)
        m["spc.experiment_ns_per_rep"] = t / reps
        data = self.rng.normal(10.0, 2.0, CHART_PROBE_SHAPE)
        for method in spc.CHART_METHODS:
            t = self.time(f"chart.{method}", "spc.chart_limits", "spc",
                          lambda method=method: spc.chart_limits(spc.SubgroupSeries(data),
                                                                 method))
            m[f"spc.chart_limits_ms.{method}"] = t / 1e6
        limits = spc.chart_limits(spc.SubgroupSeries(data), "std-c4")
        phase2 = self.rng.normal(10.0, 2.0, SCREEN_SHAPE)
        for _ in range(9):
            series = spc.SubgroupSeries(phase2)
            self.t.call("spc.points_out_of_control", "spc", "screen",
                        spc.points_out_of_control, limits, series)
        m["spc.screen_us"] = median([s.duration_ns for s in self.t.select("screen")]) / 1e3

    # -- estimators --------------------------------------------------------

    def estimators(self, m: dict) -> None:
        est = self.pkg.estimators
        for n in CALL_N:
            samples = [self.rng.normal(0.0, 1.0, n) for _ in range(50)]
            for fn in ("mean", "median", "hl1", "hl2", "hl3", "mad", "shamos", "std_dev"):
                f = getattr(est, fn)
                for x in samples:
                    self.t.call(f"estimators.{fn}", "estimators", f"call.{fn}.n{n}", f, x)
                m[f"estimators.call_us.{fn}.n{n}"] = median(
                    [s.duration_ns for s in self.t.select(f"call.{fn}.n{n}")]) / 1e3
        x = self.rng.normal(0.0, 1.0, LARGE_N)
        for fn in ("shamos", "hl1", "hl2", "hl3"):
            f = getattr(est, fn)
            t = self.time(f"large.{fn}", f"estimators.{fn}", "estimators", f, x)
            m[f"estimators.call_ms.{fn}.n{LARGE_N}"] = t / 1e6
            tracemalloc.start()
            try:
                self.t.call(f"estimators.{fn}", "estimators", f"peak.{fn}", f, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            m[f"estimators.peak_mb.{fn}.n{LARGE_N}"] = peak / 2**20

    # -- factors -----------------------------------------------------------

    def factors(self, m: dict, cold: list[dict]) -> None:
        fac = self.pkg.factors
        m["factors.table_load_ms"] = median([c["table_load_ms"] for c in cold])
        for n in range(2, 101):
            self.t.call("factors.factor_set", "factors", "factor_set.table",
                        fac.factor_set, n)
        for n in range(101, 200):
            self.t.call("factors.factor_set", "factors", "factor_set.model",
                        fac.factor_set, n)
        for source in ("table", "model"):
            m[f"factors.factor_set_us.{source}"] = median(
                [s.duration_ns for s in self.t.select(f"factor_set.{source}")]) / 1e3
        samples = [self.rng.normal(0.0, 1.0, 20) for _ in range(50)]
        for which in ("mad", "shamos"):
            f = getattr(fac, f"unbiased_{which}")
            for x in samples:
                self.t.call(f"factors.unbiased_{which}", "factors", f"unbiased.{which}", f, x)
            m[f"factors.unbiased_us.{which}"] = median(
                [s.duration_ns for s in self.t.select(f"unbiased.{which}")]) / 1e3

    # -- cli ---------------------------------------------------------------

    def cold_starts(self, preload: tuple[str, ...] = (), repeat: int = 3) -> list[dict]:
        out = []
        for _ in range(repeat):
            proc = self.child("coldstart", "cli",
                              [str(self.bench_dir / "coldstart.py"), *preload])
            if proc.returncode == 0:
                out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        return out

    def cli(self, m: dict, cold: list[dict]) -> None:
        m["cli.import_s"] = median([c["import_s"] for c in cold])
        # scipy's share: the import with numpy already loaded, minus the
        # import with numpy and scipy.special already loaded
        without, with_scipy = (
            median([c["import_s"] for c in self.cold_starts(preload=mods)])
            for mods in (("numpy",), ("numpy", "scipy.special")))
        m["cli.import_s.scipy"] = without - with_scipy
        path = self.outdir / "emit.csv"
        argv = ["simulate", "--estimator", "mean", "--n", "20", "--reps", "100",
                "--seed", str(self.seed), "--workers", "1", "--out", str(path)]
        main = self.time("emit.cli", "cli.main", "cli", self.pkg.cli.main, argv, repeat=15)
        sim = self.time("emit.simulate", "calibration.simulate", "_normal",
                        self.simulate, "mean", (20,), 100, repeat=15)
        m["cli.emit_ms"] = (main - sim) / 1e6

    def run(self) -> dict[str, float]:
        m: dict[str, float] = {}
        cold = self.cold_starts()
        if not cold:
            raise RuntimeError("fresh-process probe failed: " + "; ".join(self.failed))
        self.calibration(m)
        self.spc(m)
        self.estimators(m)
        self.factors(m, cold)
        self.cli(m, cold)
        return m


def span_cost_ns(tracer: Tracer, count: int = 20_000) -> float:
    """Cost of recording one span around a no-op call; the spans are dropped."""
    keep = len(tracer.spans)
    noop = int
    t0 = time.perf_counter_ns()
    for _ in range(count):
        tracer.call("bench.noop", "bench", "noop", noop)
    t1 = time.perf_counter_ns()
    for _ in range(count):
        noop()
    t2 = time.perf_counter_ns()
    del tracer.spans[keep:]
    return ((t1 - t0) - (t2 - t1)) / count


def layer_totals(tracer: Tracer, selfs: dict[int, int]) -> dict[str, float]:
    """calls, self time and errors per layer over every span of the run."""
    m = {}
    for layer, prefix in LAYERS.items():
        spans = [s for s in tracer.spans if s.layer == layer]
        m[f"{prefix}.calls"] = len(spans)
        m[f"{prefix}.self_s"] = sum(selfs[s.sid] for s in spans) / 1e9
        m[f"{prefix}.errors"] = sum(s.error for s in spans)
    return m
