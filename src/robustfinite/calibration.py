"""Seeded Monte Carlo engine for finite-sample biases, variances, and
relative efficiencies at N(0,1), plus least-squares fitters for the two
bias-model forms.

Reproducibility contract
------------------------
One block runner, ``_run_blocks``, serves ``simulate``, ``regenerate_table``
and ``spc.contamination_experiment``.  Replications are split into
fixed-size blocks; block b of a cell draws from its own counter-based
(Philox) substream, ``SeedSequence(master_seed, spawn_key=(domain, stream,
b))``.  The domain tags the experiment: 0 for the estimator simulator (so
``simulate`` and ``regenerate_table`` share their draws, with stream n) and
1 for the contamination experiment (stream k*n), so no two experiments
reuse each other's normals.  Samples are Philox's own ``standard_normal``
(the ziggurat of Marsaglia & Tsang 2000).  The ziggurat consumes a variable
number of raw draws per variate, which is harmless here: every block starts
its own substream, so a block's draw count cannot shift any other block.
A block returns its per-replication statistics as 1-d arrays, which
``_run_block`` summarises as ``_Moments`` in the worker (five floats each)
and ``_run_blocks`` merges in block order.  Results are therefore a pure
function of the experiment and its master seed:
bit-identical for any worker count, with workers mapped over blocks by one
process pool that the process keeps while calls keep coming.
``_run_blocks`` also owns the input rules all three share: the seed is an
integer of at least 0 and the replication count an integer of at least
100, both checked by ``_facts._check_int``.

Estimates per replication come from ``estimators._row_estimates``, the
row path that the scalar API and the control charts share.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import reduce
from multiprocessing.util import Finalize
from typing import Callable, Hashable, Iterable

import numpy as np

from ._facts import Estimator, _check_int, _is_real
from .estimators import _check_pair_limit, _row_estimates
from .factors import BiasModel, normalized_variance

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "FitInput",
    "fit_hayes",
    "fit_williams",
    "regenerate_table",
    "resolve_worker_count",
    "WORKERS_ENV_VAR",
    "BLOCK_SIZE",
]

# Replications per RNG substream.  Fixed, so the substream layout (and hence
# the output) never depends on worker count or machine.
BLOCK_SIZE = 4096

WORKERS_ENV_VAR = "ROBUST_FINITE_THREADS"


def resolve_worker_count(worker_count: int | str | None = "auto") -> int:
    """Resolve a worker-count setting; "auto" honors the environment
    override before falling back to the CPU count.  A count that is not an
    integer, or is below 1, is an error that names where it came from."""
    source = "worker count"
    if worker_count in (None, "auto"):
        env = os.environ.get(WORKERS_ENV_VAR)
        if not env:
            return os.cpu_count() or 1
        worker_count, source = env, WORKERS_ENV_VAR
    count = worker_count
    if isinstance(count, str):
        try:
            count = int(count)
        except ValueError:
            pass
    # a float or a bool is not a count, though int() would take it
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"{source} must be an integer of at least 1, "
                         f"got {worker_count!r}")
    return int(count)


# ---------------------------------------------------------------------------
# moment accumulation


@dataclass(frozen=True)
class _Moments:
    """Count, mean, and central moment sums M2..M4 of a stream of values.

    ``merge`` combines two summaries with the pairwise update formulas of
    Pebay 2008 (SAND2008-6212), so no sum of squares is ever differenced.
    Each summarises one value or more: every block holds a replication, and
    a summary whose variance is read merges at least ``_MIN_REPLICATIONS``.
    """

    count: int
    mean: float
    m2: float
    m3: float
    m4: float

    @staticmethod
    def of(values: np.ndarray) -> "_Moments":
        n = values.size
        mu = float(values.mean())
        d = values - mu
        d2 = d * d
        return _Moments(n, mu, float(d2.sum()), float((d2 * d).sum()),
                        float((d2 * d2).sum()))

    def merge(self, other: "_Moments") -> "_Moments":
        # Python floats: numpy's SIMD ``**`` rounds a few percent of doubles
        # otherwise, so a vectorised merge would move the output streams.
        na, nb = self.count, other.count
        n = na + nb
        d = other.mean - self.mean
        mean = self.mean + d * nb / n
        m2 = self.m2 + other.m2 + d * d * na * nb / n
        m3 = (self.m3 + other.m3
              + d ** 3 * na * nb * (na - nb) / n ** 2
              + 3.0 * d * (na * other.m2 - nb * self.m2) / n)
        m4 = (self.m4 + other.m4
              + d ** 4 * na * nb * (na * na - na * nb + nb * nb) / n ** 3
              + 6.0 * d * d * (na * na * other.m2 + nb * nb * self.m2) / n ** 2
              + 4.0 * d * (na * other.m3 - nb * self.m3) / n)
        return _Moments(n, mean, m2, m3, m4)

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1)

    @property
    def se_mean(self) -> float:
        return math.sqrt(self.variance / self.count)

    @property
    def se_variance(self) -> float:
        """Large-sample standard error of the variance estimate."""
        m2 = self.m2 / self.count
        m4 = self.m4 / self.count
        return math.sqrt(max(m4 - m2 * m2, 0.0) / self.count)


# ---------------------------------------------------------------------------
# input checks


# The smallest replication count a Monte Carlo run accepts.
_MIN_REPLICATIONS = 100


def _validate_estimator_n(estimator: Estimator, n: int) -> None:
    _check_int(f"n (sample size) for {estimator.value}", n, estimator.min_n)
    _check_pair_limit(estimator, n)


def _check_sizes(n_values, minimum: int | None = None) -> tuple[int, ...]:
    """``n_values`` as a tuple of one or more integer sample sizes of at
    least ``minimum``; anything else is a ``ValueError`` that names it."""
    if not isinstance(n_values, Iterable):
        raise ValueError(f"n_values must be an iterable of sample sizes, got {n_values!r}")
    sizes = tuple(_check_int("n (sample size)", n, minimum) for n in n_values)
    if not sizes:
        raise ValueError("n_values must hold at least one sample size, got none")
    return sizes


# ---------------------------------------------------------------------------
# block execution


def _block_sizes(replications: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (replications // BLOCK_SIZE)
    if replications % BLOCK_SIZE:
        sizes.append(replications % BLOCK_SIZE)
    return sizes


# Substream domains: one per experiment, so experiments never share draws.
_SIMULATOR_DOMAIN = 0
_CONTAMINATION_DOMAIN = 1


def _block_rng(master_seed: int, domain: int, stream: int,
               block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(master_seed, spawn_key=(domain, stream, block_index))
    return np.random.Generator(np.random.Philox(ss))


def _run_block(task) -> list[_Moments]:
    fn, master_seed, domain, stream, b, size, args = task
    return [_Moments.of(v) for v in fn(_block_rng(master_seed, domain, stream, b), size, *args)]


# The pool kept between calls, as (workers, executor, finalizer), and the
# timer that closes it once idle.  The lock keeps one thread from replacing
# or closing the pool while another maps over it, so pooled calls run one at
# a time within a process.
_pool: tuple[int, ProcessPoolExecutor, Finalize] | None = None
_idle: threading.Timer | None = None
_pool_lock = threading.Lock()

# Seconds a pool stays open without a call.  Forked workers hold every
# descriptor this process had open when they started, so a pipe closed here
# reaches end-of-file only once they exit; reopening the pool after a gap
# this long costs a few percent of the gap.
_IDLE_S = 1.0


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[2]()
        _pool = None


def _close_if_idle() -> None:
    """Timer target: close the pool unless a call has come since."""
    global _idle
    with _pool_lock:
        if _idle is threading.current_thread():
            _close_pool()
            _idle = None


def _forget_pool() -> None:
    """Drop a forked child's copy of the pool: it has no manager thread, so
    it can be neither used nor shut down, and the copied lock may be held by
    a thread that does not exist in the child."""
    global _pool, _idle, _pool_lock
    if _pool is not None:
        _pool[2].cancel()
        _pool = None
    _idle = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # without fork there are no copies
    os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    """Pool initializer: a thread ends the worker once the process that
    opened the pool is gone, also when a signal left that process no time
    to stop its workers."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _map_blocks(tasks: list, workers: int, chunk: int) -> list:
    global _pool, _idle
    with _pool_lock:
        if _idle is not None:
            _idle.cancel()
            _idle = None
        if _pool is not None and _pool[0] != workers:
            _close_pool()
        if _pool is None:
            executor = ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)
            # A multiprocessing child joins its children at exit before
            # concurrent.futures stops the pool, and would wait for idle
            # workers; this shuts the pool down first, also before the call
            # queue's own finalizer (priority 10) stops its feeder.
            _pool = (workers, executor, Finalize(executor, executor.shutdown, exitpriority=20))
        try:
            results = list(_pool[1].map(_run_block, tasks, chunksize=chunk))
        except BrokenProcessPool:
            _close_pool()  # a worker died; the next call opens a fresh pool
            raise
        _idle = threading.Timer(_IDLE_S, _close_if_idle)
        _idle.daemon = True
        _idle.start()
        return results


def _run_blocks(fn: Callable[..., list[np.ndarray]], domain: int,
                cells: dict[Hashable, tuple[int, tuple]], replications: int,
                master_seed: int, worker_count: int | str | None
                ) -> dict[Hashable, list[_Moments]]:
    """Run every replication block of every cell and merge each cell's
    moments, one ``_Moments`` per statistic, in block order.

    ``cells`` maps a key to ``(stream, args)``; block b of the cell calls
    ``fn(rng, size, *args)`` with the substream ``(master_seed, domain,
    stream, b)`` and returns its statistics, a positional list of 1-d arrays
    that ``_run_block`` summarises in the worker.  ``fn`` must be a
    module-level function, so pool workers can unpickle it.

    A call runs on min(requested, blocks, CPUs) workers.  With one, blocks
    run in this process; with more, they run on the process's pool, which
    is opened at the first such call and kept while calls keep coming: a
    call with the same count reuses its idle workers, one with another count
    shuts it down and opens a new one, and a pool without a call for
    ``_IDLE_S`` seconds closes.  Pooled calls from several threads run one
    at a time.  The workers start by the default method, so the ones that
    are forked see this process as it was when the pool opened.  A forked
    child drops its copy of the pool and opens its own.  A worker that dies
    raises ``BrokenProcessPool`` from the call; the next call opens a fresh
    pool.
    """
    _check_int("master_seed", master_seed, 0)
    _check_int("replications", replications, _MIN_REPLICATIONS)
    sizes = _block_sizes(replications)
    tasks = [(fn, master_seed, domain, stream, b, size, args)
             for stream, args in cells.values() for b, size in enumerate(sizes)]
    workers = min(resolve_worker_count(worker_count), len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_block(t) for t in tasks]
    else:
        # at most tasks/(2*workers) blocks a chunk, so every worker gets some
        chunk = min(4, max(1, len(tasks) // (2 * workers)))
        results = _map_blocks(tasks, workers, chunk)

    merged = {}
    for c, key in enumerate(cells):
        blocks = results[c * len(sizes):(c + 1) * len(sizes)]
        merged[key] = [reduce(_Moments.merge, statistic) for statistic in zip(*blocks)]
    return merged


def _estimator_block(rng: np.random.Generator, size: int, n: int,
                     estimators: tuple[Estimator, ...]) -> list[np.ndarray]:
    sample = rng.standard_normal((size, n))
    return [_row_estimates(e, sample) for e in estimators]


# ---------------------------------------------------------------------------
# public simulation API


@dataclass(frozen=True)
class SimulationConfig:
    """Monte Carlo run description.

    Output depends only on (estimator, n_values, replications, master_seed);
    ``worker_count`` affects speed, never values.
    """

    estimator: Estimator | str
    n_values: tuple[int, ...]
    master_seed: int
    replications: int = 100_000
    worker_count: int | str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimator", Estimator(self.estimator))
        object.__setattr__(self, "n_values", _check_sizes(self.n_values))
        _check_int("replications", self.replications, _MIN_REPLICATIONS)
        for n in self.n_values:
            _validate_estimator_n(self.estimator, n)
        if self.worker_count not in (None, "auto"):
            resolve_worker_count(self.worker_count)


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one (estimator, n) cell of a Monte Carlo run."""

    estimator: Estimator
    n: int
    replications: int
    mean_estimate: float
    bias: float
    variance_estimate: float
    normalized_variance: float
    mc_standard_error: float      # of the mean estimate
    mc_se_variance: float         # of the variance estimate


def _simulate_cells(batches: dict[int, tuple[Estimator, ...]], replications: int,
                    master_seed: int, worker_count: int | str | None
                    ) -> dict[int, dict[Estimator, SimulationResult]]:
    """The cell of every estimator of ``batches[n]`` at every n; an n's
    estimators share their draws, the simulator's stream n."""
    merged = _run_blocks(_estimator_block, _SIMULATOR_DOMAIN,
                         {n: (n, (n, batch)) for n, batch in batches.items()},
                         replications, master_seed, worker_count)
    cells: dict[int, dict[Estimator, SimulationResult]] = {n: {} for n in batches}
    for n, batch in batches.items():
        for e, mom in zip(batch, merged[n]):
            cells[n][e] = SimulationResult(
                estimator=e,
                n=n,
                replications=mom.count,
                mean_estimate=mom.mean,
                # Location estimators target 0 at N(0,1); the scale estimators
                # are simulated in consistent form, so they target sigma = 1.
                bias=mom.mean - (0.0 if e.is_location else 1.0),
                variance_estimate=mom.variance,
                normalized_variance=normalized_variance(e, n, mom.variance),
                mc_standard_error=mom.se_mean,
                mc_se_variance=mom.se_variance,
            )
    return cells


def simulate(config: SimulationConfig) -> list[SimulationResult]:
    """Run the Monte Carlo experiment described by ``config``."""
    cells = _simulate_cells({n: (config.estimator,) for n in config.n_values},
                            config.replications, config.master_seed, config.worker_count)
    return [cells[n][config.estimator] for n in config.n_values]


# ---------------------------------------------------------------------------
# least-squares fitting of the bias-model forms


def _items(name: str, value, what: str = "an iterable", size: int | None = None) -> tuple:
    """``value``'s items as a tuple, ``size`` of them if given; anything
    else, a number too, is a ``ValueError`` that names the input and the
    value, where unpacking or iterating it would raise an anonymous error."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or size is not None and len(items) != size:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return items


@dataclass(frozen=True)
class FitInput:
    """Observations (n, value) to fit, with optional per-point weights:
    ``points`` is an iterable of (n, value) pairs and ``weights`` one of
    weights.  Every n must be a finite and positive real number, every
    value a finite one, and every weight a finite and positive one: not a
    bool nor a string, which ``float()`` would take."""

    points: tuple[tuple[float, float], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        pairs = (_items("points", p, "(n, value) pairs", 2) for p in _items("points", self.points))
        pts = tuple((float(n), float(y)) if _is_real(n) and _is_real(y) else (n, y)
                    for n, y in pairs)
        object.__setattr__(self, "points", pts)
        ns = [n for n, _ in pts]
        if len(pts) < 2:
            raise ValueError("need at least 2 points to fit")
        for n, y in pts:
            if not (_is_real(n) and _is_real(y) and math.isfinite(n) and n > 0
                    and math.isfinite(y)):
                raise ValueError(f"point (n={n!r}, value={y!r}) needs a finite "
                                 f"n > 0 and a finite value")
        if len(set(ns)) != len(ns):
            raise ValueError("n values must be distinct")
        if self.weights is not None:
            w = tuple(float(v) if _is_real(v) else v for v in _items("weights", self.weights))
            if len(w) != len(pts):
                raise ValueError("weights length must match points")
            for (n, y), v in zip(pts, w):
                if not (_is_real(v) and math.isfinite(v) and v > 0):
                    raise ValueError(f"weight of point (n={n!r}, value={y!r}) must "
                                     f"be finite and positive, got {v!r}")
            object.__setattr__(self, "weights", w)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = np.array([p[0] for p in self.points])
        y = np.array([p[1] for p in self.points])
        w = (np.ones_like(y) if self.weights is None else np.array(self.weights))
        return n, y, w


def _rss(y: np.ndarray, fitted: np.ndarray, w: np.ndarray) -> float:
    return float(math.fsum(w * (y - fitted) ** 2))


def fit_hayes(data: FitInput, target: str = "bias") -> BiasModel:
    """Least-squares fit of value = p/n + q/n^2 (no intercept).

    Solved through the 2x2 normal equations; exact (to rounding) on data
    generated from the model itself.
    """
    n, y, w = data.arrays()
    u = 1.0 / n
    s22 = math.fsum(w * u ** 2)
    s33 = math.fsum(w * u ** 3)
    s44 = math.fsum(w * u ** 4)
    b1 = math.fsum(w * u * y)
    b2 = math.fsum(w * u ** 2 * y)
    det = s22 * s44 - s33 * s33
    if det == 0.0 or not math.isfinite(det):
        raise ValueError("singular normal equations; n values too degenerate")
    p = (b1 * s44 - b2 * s33) / det
    q = (s22 * b2 - s33 * b1) / det
    model = BiasModel("hayes", target, (p, q))
    return BiasModel("hayes", target, (p, q),
                     rss=_rss(y, np.array([model.evaluate(v) for v in n]), w))


def fit_williams(data: FitInput, target: str = "bias") -> BiasModel:
    """Least-squares fit of value = amp * n**(-exponent).

    Linearized as log|value| on log n (all values must share one sign and be
    nonzero); the sign is reattached to the amplitude.
    """
    n, y, w = data.arrays()
    if np.any(y == 0.0):
        raise ValueError("power-law fit undefined for zero values")
    sign = math.copysign(1.0, y[0])
    if np.any(np.sign(y) != sign):
        raise ValueError("power-law fit needs values of a single sign")
    lx = np.log(n)
    ly = np.log(np.abs(y))
    sw = math.fsum(w)
    mx = math.fsum(w * lx) / sw
    my = math.fsum(w * ly) / sw
    sxx = math.fsum(w * (lx - mx) ** 2)
    if sxx == 0.0:
        raise ValueError("singular fit; n values too degenerate")
    slope = math.fsum(w * (lx - mx) * (ly - my)) / sxx
    intercept = my - slope * mx
    amp = sign * math.exp(intercept)
    exponent = -slope
    model = BiasModel("williams", target, (amp, exponent))
    return BiasModel("williams", target, (amp, exponent),
                     rss=_rss(y, np.array([model.evaluate(v) for v in n]), w))


# ---------------------------------------------------------------------------
# table regeneration


_TABLE_COLUMNS = {
    "bias": (Estimator.MAD, Estimator.SHAMOS),
    "nvar": (Estimator.MEDIAN, Estimator.HL1, Estimator.HL2, Estimator.HL3,
             Estimator.MAD, Estimator.SHAMOS),
    "re": (Estimator.MEDIAN, Estimator.HL1, Estimator.HL2, Estimator.HL3,
           Estimator.MAD, Estimator.SHAMOS),
}


def regenerate_table(table_id: str, n_values: Iterable[int], master_seed: int,
                     replications: int = 100_000,
                     worker_count: int | str = "auto") -> list[dict]:
    """Recompute one of the reference tables by simulation.

    Returns one dict per n with the table's column layout plus an
    ``<estimator>_se`` Monte Carlo standard error per estimate; cells where
    an estimator is undefined (n below its minimum) are NaN.  Every n must
    be an integer of at least 1, and the pairwise columns keep the
    simulator's size limit.  For "re" each estimator's variance is compared
    against its baseline (mean for location, standard deviation for scale)
    simulated on the same draws, so degenerate equalities (median = mean at
    n = 1, 2) are exact.

    Known flaw: the "re" ``_se`` combines the two variances' standard
    errors by ``math.hypot``, as if the estimator and its baseline came
    from independent draws.  They share their draws, so it overstates the
    spread of the ratio, by 1.3 to 4.6 times over 40 seeds at n = 10 (the
    median 2.6, hl1 4.6, mad 1.3, shamos 2.1).  This holds until the
    ratio's SE is taken from the same draws; the values are unaffected.
    """
    if table_id not in _TABLE_COLUMNS:
        raise ValueError(f"unknown table id {table_id!r}")
    columns = _TABLE_COLUMNS[table_id]
    n_values = _check_sizes(n_values, 1)
    baselines = (Estimator.MEAN, Estimator.STD) if table_id == "re" else ()
    batches = {n: tuple(e for e in columns + baselines if n >= e.min_n)
               for n in n_values}
    for n, batch in batches.items():
        for e in batch:
            _validate_estimator_n(e, n)
    cells = _simulate_cells(batches, replications, master_seed, worker_count)

    rows = []
    for n in n_values:
        row: dict = {"n": n}
        for e in columns:
            cell = cells[n].get(e)
            if cell is None:
                value = se = math.nan
            elif table_id == "bias":
                value, se = cell.bias, cell.mc_standard_error
            elif table_id == "nvar":
                value, se = cell.normalized_variance, normalized_variance(e, n, cell.mc_se_variance)
            else:
                base = cells[n][Estimator.MEAN if e.is_location else Estimator.STD]
                value = base.variance_estimate / cell.variance_estimate
                # first-order SE of the variance ratio
                se = abs(value) * math.hypot(base.mc_se_variance / base.variance_estimate,
                                             cell.mc_se_variance / cell.variance_estimate)
            row[e.value], row[f"{e.value}_se"] = value, se
        rows.append(row)
    return rows
