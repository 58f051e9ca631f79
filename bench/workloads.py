"""The three workloads: their inputs, the public calls they make, and the
check each call's output must pass.

Every workload is a fixed cycle of calls repeated until the run's time is
up, one process, closed loop (the next call starts when the previous one
returns).  All inputs derive from the workload seed; the package receives
only generated inputs and seeds derived from it.

Calls are timed on the workload's clock.  Workloads whose calls run in this
process (``mc_pairwise`` at one worker, ``data_api``) use the CPU time of
this process and of the children it reaped during the call: on a shared
host that excludes the time the process waited for a CPU, which otherwise
dominates the run-to-run spread.  ``mc_sweep`` runs its calls on a pool of
two workers, where summed CPU time would hide a parallel speed-up, so it
uses wall time.

mc_pairwise  criterion-4 style ``robustfinite simulate`` runs of the four
             pairwise estimators, one worker.  The O(n^2) pair kernels
             dominate, so a faster pairwise median shows here.
mc_sweep     many cheap Monte Carlo cells on two workers: a small-n bias
             table, mad/median over n = 2..100, and the criterion-7
             contamination experiment.  RNG, substreams, the ordered merge
             and pool start-up dominate; pairwise kernels barely matter.
data_api     the scalar API with no Monte Carlo: thousands of estimator
             calls on samples of n <= 30, a few pairwise calls at n = 2000,
             factors inside and beyond the tables, bias-model fits, and
             x-bar chart limits and screening on a 20000 x 5 series.  Per-call
             overhead that batching would hide shows here.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gate
from spans import nearest_rank

PAIRWISE_REPS = 4096
PAIRWISE_N = (20, 50, 100)
SWEEP_TABLE_N = range(2, 13)
SWEEP_TABLE_REPS = 8192
SWEEP_SIM_N = tuple(range(2, 101))
SWEEP_SIM_REPS = 2048
CONTAM = dict(k=10, n=5, mu=5.0, sigma=1.0, delta_grid=(0, 10, 20, 30, 40, 50),
              replications=20_000, corrupt_count=1)
SMALL_SAMPLES = 256
LARGE_N = 2000
CHART_SHAPE = (20_000, 5)
ESTIMATOR_FNS = ("mean", "median", "hl1", "hl2", "hl3", "mad", "shamos", "std_dev")
# each small data_api call is timed this often per cycle, so that its
# typical time rests on enough samples
SMALL_REPEAT = 8


def cpu_ns() -> int:
    """CPU time of this process and of every child it has reaped, in ns."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((kids.ru_utime + kids.ru_stime) * 1e9)


CLOCKS = {"cpu": cpu_ns, "wall": time.perf_counter_ns}


@dataclass
class Op:
    """One public call: ``fn()`` is timed, ``check(result)`` is not."""

    name: str            # module.function called
    layer: str           # package module the call enters
    kind: str            # "small", "large" or "other" latency class
    reps: int            # estimator-replications the call completes
    fn: Callable[[], object]
    check: Callable[[object], bool]
    repeat: int = 1      # timed calls per cycle


@dataclass
class Workload:
    ops: list[Op]
    workers: list[int]                       # worker counts passed to the package
    clock: str                               # key of CLOCKS the calls are timed on
    after: Callable[[], list[tuple[str, bool]]] = lambda: []
    notes: list[str] = field(default_factory=list)


def _derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _repeatable(first_check: Callable[[object], bool]) -> Callable[[object], bool]:
    """Gate the first output; every repeat must equal it exactly."""
    seen: list = []

    def check(out) -> bool:
        if not seen:
            seen.append((out, bool(first_check(out))))
        first, ok = seen[0]
        return ok and out == first
    return check


# ---------------------------------------------------------------------------
# mc_pairwise


def mc_pairwise(pkg, seed: int, outdir) -> Workload:
    cli, factors = pkg.cli, pkg.factors
    bias_table = factors.load_table("bias_table")
    limit = gate.pull_limit(len(gate.PAIRWISE) * len(PAIRWISE_N))
    ops = []
    for est, est_seed in zip(gate.PAIRWISE, _derived_seeds(seed, len(gate.PAIRWISE))):
        for n in PAIRWISE_N:
            path = outdir / f"simulate-{est}-n{n}.csv"
            argv = ["simulate", "--estimator", est, "--n", str(n),
                    "--reps", str(PAIRWISE_REPS), "--seed", str(est_seed),
                    "--workers", "1", "--out", str(path)]

            def first(text, est=est, n=n, est_seed=est_seed):
                lines = text.splitlines()
                row = dict(zip(lines[1].split(","), lines[2].split(",")))
                target = bias_table[n]["shamos_bias"] if est == "shamos" else 0.0
                return (len(lines) == 3 and lines[0].startswith("# robustfinite")
                        and int(row["n"]) == n and int(row["reps"]) == PAIRWISE_REPS
                        and row["seed"] == str(est_seed)
                        and gate.within(float(row["bias"]), target, float(row["mc_se"]),
                                        limit, gate.BIAS_TABLE_ROUNDING))

            output = _repeatable(first)
            # each latency class holds one n.  The n = 20 cells take about
            # 40 ms, so a slow spell of the machine moves them by a larger
            # share than the longer cells; they are in neither class.
            ops.append(Op("cli.main", "cli", {20: "other", 50: "small", 100: "large"}[n],
                          PAIRWISE_REPS, lambda argv=argv: cli.main(argv),
                          lambda rc, path=path, output=output:
                              rc == 0 and output(path.read_text())))
    return Workload(ops, workers=[1], clock="cpu", notes=[
        f"mc_pairwise: simulate per (estimator, n), {PAIRWISE_REPS} reps, --workers 1; "
        f"bias gated at {limit:.2f} SE of the bias table (hl* against 0)"])


# ---------------------------------------------------------------------------
# mc_sweep


def mc_sweep(pkg, seed: int, outdir, workers: int) -> Workload:
    cal, spc, factors, cli = pkg.calibration, pkg.spc, pkg.factors, pkg.cli
    bias_table = factors.load_table("bias_table")
    nvar_table = factors.load_table("nvar_table")
    cells = 2 * len(SWEEP_TABLE_N) + 2 * 2 * len(SWEEP_SIM_N)
    limit = gate.pull_limit(cells)
    s_table, s_mad, s_median, s_contam, s_check = _derived_seeds(seed, 5)

    def table_ok(rows):
        return [r["n"] for r in rows] == list(SWEEP_TABLE_N) and all(
            gate.within(r[e], bias_table[r["n"]][f"{e}_bias"], r[f"{e}_se"], limit,
                        gate.BIAS_TABLE_ROUNDING)
            for r in rows for e in ("mad", "shamos"))

    def sim_ok(results, est, bias_column, nvar_column):
        ok = [r.n for r in results] == list(SWEEP_SIM_N)
        for r in results:
            target = bias_table[r.n][bias_column] if bias_column else 0.0
            nvar_se = factors.normalized_variance(est, r.n, r.mc_se_variance)
            ok = ok and r.replications == SWEEP_SIM_REPS and gate.within(
                r.bias, target, r.mc_standard_error, limit, gate.BIAS_TABLE_ROUNDING
            ) and gate.within(r.normalized_variance, nvar_table[r.n][nvar_column],
                              nvar_se, limit, gate.NVAR_TABLE_ROUNDING)
        return ok

    def simulate(est, est_seed):
        return cal.simulate(cal.SimulationConfig(est, SWEEP_SIM_N, est_seed,
                                                 SWEEP_SIM_REPS, workers))

    # regenerate_table opens a pool per n, and pool start-up slows by half
    # again when the machine is busy, so it is in neither latency class;
    # reps_per_s and the calibration layer metrics still measure it
    ops = [
        Op("calibration.regenerate_table", "calibration", "other",
           2 * len(SWEEP_TABLE_N) * SWEEP_TABLE_REPS,
           lambda: cal.regenerate_table("bias", SWEEP_TABLE_N, s_table,
                                        SWEEP_TABLE_REPS, workers),
           _repeatable(table_ok)),
        Op("calibration.simulate", "calibration", "large",
           len(SWEEP_SIM_N) * SWEEP_SIM_REPS, lambda: simulate("mad", s_mad),
           _repeatable(lambda r: sim_ok(r, "mad", "mad_bias", "mad_ratio"))),
        Op("spc.contamination_experiment", "spc", "small",
           CONTAM["replications"] * len(CONTAM["delta_grid"]) * 6,
           lambda: spc.contamination_experiment(master_seed=s_contam,
                                                worker_count=workers, **CONTAM),
           _repeatable(gate.contamination_ok)),
        Op("calibration.simulate", "calibration", "large",
           len(SWEEP_SIM_N) * SWEEP_SIM_REPS, lambda: simulate("median", s_median),
           _repeatable(lambda r: sim_ok(r, "median", None, "median"))),
    ]

    def worker_invariance() -> list[tuple[str, bool]]:
        """CLI output must not depend on the worker count (untimed)."""
        path = outdir / "invariance.csv"
        runs = {
            "simulate": ["simulate", "--estimator", "mad", "--n", "2:12",
                         "--reps", "8192", "--seed", str(s_check)],
            "spc-demo": ["spc-demo", "--reps", "8192", "--seed", str(s_check)],
        }
        out = []
        for label, argv in runs.items():
            texts = []
            for w in (1, workers):
                ok = cli.main(argv + ["--workers", str(w), "--out", str(path)]) == 0
                texts.append(path.read_bytes() if ok else None)
            one, many = texts
            same = (one is not None and many is not None
                    and one.split(b"\n", 1)[1] == many.split(b"\n", 1)[1]
                    and one.split(b"\n", 1)[0].replace(b"--workers 1", b"--workers %d" % workers)
                    == many.split(b"\n", 1)[0])
            out.append((f"worker invariance {label} 1 vs {workers}", same))
        return out

    return Workload(ops, workers=[workers, 1], clock="wall", after=worker_invariance, notes=[
        f"mc_sweep: --workers {workers}; {cells} Monte Carlo cells gated at "
        f"{limit:.2f} SE (4 SE, Bonferroni-widened for a 1e-3 family-wise "
        "false-alarm rate per run)"])


# ---------------------------------------------------------------------------
# data_api


def _small_samples(rng: np.random.Generator) -> list[np.ndarray]:
    """Samples of n in 2..30: normal, tied, with gross outliers, heavy-tailed.
    The sizes and kinds are the same for every seed, so the seed moves only
    the values and not the mix of calls the latency percentiles are over."""
    out = []
    for s in range(SMALL_SAMPLES):
        n = 2 + s % 29
        x = rng.normal(10.0, 2.0, n)
        if s % 4 == 1:
            x = np.round(x, 1)
        elif s % 4 == 2:
            x[: max(1, n // 5)] += 1e3
        elif s % 4 == 3:
            x = rng.standard_t(2, n)
        out.append(x)
    return out


def data_api(pkg, seed: int, outdir) -> Workload:
    est_mod, factors, cal, spc = pkg.estimators, pkg.factors, pkg.calibration, pkg.spc
    bias_table = factors.load_table("bias_table")
    nvar_table = factors.load_table("nvar_table")
    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    for x in _small_samples(rng):
        ref = gate.reference_estimates(x.tolist())
        for fn in ESTIMATOR_FNS:
            if fn in gate.ORDER_STATISTICS:
                check = (lambda out, want=ref[fn]: gate.same_bits(out, want))
            else:
                check = (lambda out, want=ref[fn]: gate.close(out, want))
            ops.append(Op(f"estimators.{fn}", "estimators", "small", 1,
                          lambda f=getattr(est_mod, fn), x=x: f(x), check, SMALL_REPEAT))
        n = x.size
        for fn, column in (("unbiased_mad", "mad"), ("unbiased_shamos", "shamos")):
            want = ref[column] / (1.0 + bias_table[n][f"{column}_bias"])
            ops.append(Op(f"factors.{fn}", "factors", "small", 1,
                          lambda f=getattr(factors, fn), x=x: f(x),
                          lambda out, want=want: gate.close(out, want), SMALL_REPEAT))

    table_ns = rng.choice(np.arange(2, 101), 16, replace=False)
    model_ns = rng.choice(np.arange(101, 5001), 16, replace=False)
    for i, n in enumerate([int(v) for v in np.concatenate([table_ns, model_ns])]):
        model = ("hayes", "williams")[i % 2]
        ops.append(Op("factors.factor_set", "factors", "other", 0,
                      lambda n=n, model=model: factors.factor_set(n, model=model),
                      lambda fs, n=n, model=model: gate.factor_set_ok(
                          fs, n, model, bias_table, nvar_table)))

    large_table = factors.load_table("bias_large_table")
    for column in ("mad", "shamos"):
        points = tuple([(n, row[f"{column}_bias"]) for n, row in bias_table.items() if n >= 51]
                       + [(n, row[f"{column}_bias"]) for n, row in large_table.items()])
        data = cal.FitInput(points=points)
        for form in ("hayes", "williams"):
            ops.append(Op(f"calibration.fit_{form}", "calibration", "other", 0,
                          lambda f=getattr(cal, f"fit_{form}"), data=data: f(data),
                          lambda m, column=column, form=form: gate.fit_ok(m, column, form)))

    # two large samples, normal with gross outliers and heavy-tailed, so
    # that large_call_p50_ms is a median over eight calls
    x_outliers = rng.normal(0.0, 1.0, LARGE_N)
    x_outliers[:: 97] *= 25.0
    for x_large in (x_outliers, rng.standard_t(2, LARGE_N)):
        for fn in gate.PAIRWISE:
            want = gate.streamed_pair_median(x_large, fn, rng)
            if fn == "shamos":
                want *= gate.PAIR_DIFF_SCALE
            ops.append(Op(f"estimators.{fn}", "estimators", "large", 1,
                          lambda f=getattr(est_mod, fn), x=x_large: f(x),
                          lambda out, want=want: gate.same_bits(out, want)))

    k, n = CHART_SHAPE
    phase1 = rng.normal(10.0, 2.0, CHART_SHAPE)
    phase1[rng.choice(k, k // 100, replace=False), 0] += 15.0
    phase2 = rng.normal(10.0, 2.0, CHART_SHAPE)
    phase2[rng.choice(k, k // 50, replace=False)] += 6.0 / math.sqrt(n)
    for method in spc.CHART_METHODS:
        ref = gate.chart_reference(phase1, method, bias_table)
        ops.append(Op("spc.chart_limits", "spc", "other", k,
                      lambda method=method: spc.chart_limits(spc.SubgroupSeries(phase1),
                                                             method),
                      lambda lim, ref=ref, method=method: gate.chart_ok(lim, ref, method)))
    limits = spc.chart_limits(spc.SubgroupSeries(phase1), "shamos-c6")
    means2 = phase2.mean(axis=1)
    want_mask = (means2 > limits.ucl) | (means2 < limits.lcl)
    ops.append(Op("spc.points_out_of_control", "spc", "other", k,
                  lambda: spc.points_out_of_control(limits, spc.SubgroupSeries(phase2)),
                  lambda mask: bool(np.array_equal(mask, want_mask))))

    return Workload(ops, workers=[], clock="cpu", notes=[
        f"data_api: {SMALL_SAMPLES} samples of n <= 30 x {len(ESTIMATOR_FNS) + 2} calls, "
        f"each timed {SMALL_REPEAT} times a cycle, "
        f"8 pairwise calls at n = {LARGE_N}, 32 factor_set, 4 fits, "
        f"chart_limits x 3 and one screen on {k} x {n} subgroups"])


def build(name: str, pkg, seed: int, outdir, workers: int) -> Workload:
    if name == "mc_pairwise":
        return mc_pairwise(pkg, seed, outdir)
    if name == "mc_sweep":
        return mc_sweep(pkg, seed, outdir, workers)
    return data_api(pkg, seed, outdir)


NAMES = ("mc_pairwise", "mc_sweep", "data_api")


# ---------------------------------------------------------------------------
# the timed loop


class Tally:
    """What the timed cycles did: every timed call's time on the workload's
    clock, per op, and per cycle the replications and calls that passed
    their check and the time spent inside calls."""

    def __init__(self, ops: list[Op], clock: str) -> None:
        self.ops = ops
        self.clock = CLOCKS[clock]
        self.latencies: list[list[int]] = [[] for _ in ops]
        self.bad = [False] * len(ops)                   # op had a failed call
        self.cycles: list[tuple[int, int, int]] = []    # (reps, calls, busy ns)
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(op.repeat for op in self.ops) * len(self.cycles)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def typical(self) -> list[int]:
        """Each op's upper-quartile time over all its timed calls (nearest
        rank).  A shared host has spells in which calls run up to a third
        faster.  Their share of a run changes from run to run, and a median
        follows them once they cover about half of it; the upper quartile
        stays with the usual speed unless they cover three quarters."""
        return [nearest_rank(lat, 75) for lat in self.latencies]

    def typical_latencies(self, kind: str) -> list[int]:
        return [t for op, t in zip(self.ops, self.typical()) if op.kind == kind]

    def throughput(self) -> tuple[float, float]:
        """Replications and calls per second of one cycle run at each op's
        typical time.  An op with a failed call adds its time but no work."""
        typical = self.typical()
        busy = sum(op.repeat * t for op, t in zip(self.ops, typical)) / 1e9
        good = [op for op, bad in zip(self.ops, self.bad) if not bad]
        return (sum(op.repeat * op.reps for op in good) / busy,
                sum(op.repeat for op in good) / busy)


def run_cycle(tally: Tally, tracer=None, between: Callable[[], None] = lambda: None) -> None:
    """Call every op ``op.repeat`` times, in order; checks and ``between()``,
    which runs after each op, stay outside the timed interval.  Only calls
    that pass their check count as completed."""
    reps = calls = busy = 0
    clock = tally.clock
    for i, op in enumerate(tally.ops):
        for _ in range(op.repeat):
            span = tracer.open(op.name, op.layer, op.kind) if tracer else None
            t0 = clock()
            try:
                out = op.fn()
                raised = None
            except Exception as e:  # a failed call is counted, not fatal
                out, raised = None, e
            t1 = clock()
            if span is not None:
                tracer.close(span)
            ok = raised is None
            if ok:
                try:
                    ok = bool(op.check(out))
                except Exception as e:  # malformed output
                    ok, raised = False, e
            busy += t1 - t0
            tally.latencies[i].append(t1 - t0)
            if ok:
                reps += op.reps
                calls += 1
            else:
                tally.bad[i] = True
                tally.fail(f"{op.name}: {raised!r}" if raised else f"{op.name}: output check")
                if span is not None:
                    span.error = True
        between()
    tally.cycles.append((reps, calls, busy))
