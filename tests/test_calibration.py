import csv
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from robustfinite import calibration, estimators, spc
from robustfinite.calibration import (
    BLOCK_SIZE,
    FitInput,
    SimulationConfig,
    _block_rng,
    fit_hayes,
    fit_williams,
    regenerate_table,
    resolve_worker_count,
    simulate,
)
from robustfinite.estimators import PAIR_LIMIT
from robustfinite.factors import c5, normalized_variance

# analytic oracle, derived before the build: for two normal observations
# E|X1 - X2| = 2/sqrt(pi), so the consistent MAD of a pair has expectation
# 1 / (third quartile * sqrt(pi))
EXPECTED_MAD_2 = 1.0 / (0.6744897501960817 * math.sqrt(math.pi))


def _reference_bias(n):
    path = resources.files("robustfinite") / "data" / "bias_table.csv"
    with path.open() as f:
        for row in csv.DictReader(f):
            if int(row["n"]) == n:
                return float(row["mad_bias"]), float(row["shamos_bias"])
    raise KeyError(n)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SimulationConfig("median", (4, 7), master_seed=99, replications=3000)
        assert simulate(cfg) == simulate(cfg)

    def test_different_seed_differs(self):
        a = simulate(SimulationConfig("median", (4,), master_seed=1, replications=1000))
        b = simulate(SimulationConfig("median", (4,), master_seed=2, replications=1000))
        assert a[0].mean_estimate != b[0].mean_estimate

    def test_worker_count_invariance(self):
        base = SimulationConfig("mad", (3, 6), master_seed=5, replications=3000,
                                worker_count=1)
        multi = SimulationConfig("mad", (3, 6), master_seed=5, replications=3000,
                                 worker_count=3)
        assert simulate(base) == simulate(multi)

    def test_blocks_are_independent_substreams(self):
        a = _block_rng(1, 0, 5, 0).standard_normal((4, 5))
        b = _block_rng(1, 0, 5, 1).standard_normal((4, 5))
        assert not np.allclose(a, b)

    def test_block_substream_key_layout(self):
        """Block b of a stream draws SFC64 normals seeded by
        SeedSequence(seed, spawn_key=(domain, stream, b)); a change of
        generator or key moves every seeded output and must be on purpose."""
        for domain in (0, 1):
            for b in (0, 3):
                key = np.random.SeedSequence(11, spawn_key=(domain, 5, b))
                want = np.random.Generator(np.random.SFC64(key)).standard_normal(64)
                got = _block_rng(11, domain, 5, b).standard_normal(64)
                assert np.array_equal(got, want), (
                    f"_block_rng(11, {domain}, 5, {b}) no longer draws from "
                    f"SFC64(SeedSequence(11, spawn_key=({domain}, 5, {b})))")

    def test_experiments_draw_from_separate_domains(self, monkeypatch):
        # simulate at n = 50 and the contamination experiment at k*n = 10*5
        # share the seed and the stream number; their first blocks must not
        # share draws
        first = {}

        def recorder(name, statistics):
            def block(rng, size, *args):
                first.setdefault(name, rng.random(8))
                return [np.zeros(size)] * statistics
            return block

        monkeypatch.setattr(calibration, "_estimator_block", recorder("simulate", 1))
        monkeypatch.setattr(spc, "_experiment_block", recorder("spc", 6))
        simulate(SimulationConfig("mean", (50,), master_seed=7, replications=100,
                                  worker_count=1))
        spc.contamination_experiment(k=10, n=5, delta_grid=(0,), replications=100,
                                     master_seed=7, worker_count=1)
        assert not np.array_equal(first["simulate"], first["spc"])

    def test_replication_count_honored(self):
        for reps in (100, BLOCK_SIZE, BLOCK_SIZE + 17, 3 * BLOCK_SIZE):
            r = simulate(SimulationConfig("mean", (2,), master_seed=0,
                                          replications=reps))
            assert r[0].replications == reps


class TestConfigValidation:
    def test_estimator_size_compat(self):
        with pytest.raises(ValueError):
            SimulationConfig("shamos", (1,), master_seed=0)
        with pytest.raises(ValueError):
            SimulationConfig("hl1", (1, 5), master_seed=0)
        SimulationConfig("hl2", (1,), master_seed=0)  # fine

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            SimulationConfig("mean", (3,), master_seed=0, replications=99)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_master_seed_must_be_non_negative_integer(self, seed):
        runs = (
            lambda: simulate(SimulationConfig("mean", (3,), master_seed=seed,
                                              replications=100, worker_count=1)),
            lambda: regenerate_table("bias", (3,), seed, 100, worker_count=1),
            lambda: spc.contamination_experiment(replications=100, master_seed=seed,
                                                 worker_count=1),
        )
        for run in runs:
            with pytest.raises(ValueError, match=rf"master_seed .* got {seed!r}"):
                run()

    def test_non_integer_sample_size_is_named(self):
        message = r"^n \(sample size\) must be an integer, got 5.7$"
        with pytest.raises(ValueError, match=message):
            SimulationConfig("mad", (5.7,), master_seed=0)
        with pytest.raises(ValueError, match=message):
            regenerate_table("bias", [5.7], master_seed=0, replications=100)

    def test_empty_size_list_is_named(self):
        message = r"^n_values must hold at least one sample size, got none$"
        with pytest.raises(ValueError, match=message):
            simulate(SimulationConfig("mad", (), 1, 1000, 1))
        with pytest.raises(ValueError, match=message):
            regenerate_table("bias", [], 1, 1000)

    def test_non_iterable_size_list_is_named(self):
        message = r"^n_values must be an iterable of sample sizes, got 5$"
        with pytest.raises(ValueError, match=message):
            SimulationConfig("mad", 5, master_seed=0)
        with pytest.raises(ValueError, match=message):
            regenerate_table("bias", 5, master_seed=0, replications=100)

    def test_non_integer_replications_is_named(self):
        runs = (
            lambda: simulate(SimulationConfig("mean", (3,), master_seed=0,
                                              replications=150.5, worker_count=1)),
            lambda: regenerate_table("bias", (3,), 0, 150.5, worker_count=1),
            lambda: spc.contamination_experiment(replications=150.5, master_seed=0,
                                                 worker_count=1),
        )
        for run in runs:
            with pytest.raises(ValueError,
                               match=r"^replications must be an integer, got 150.5$"):
                run()

    def test_pairwise_size_guard(self):
        # building the config allocates nothing, so the limit is cheap to test
        for est in ("shamos", "hl1", "hl2", "hl3"):
            with pytest.raises(ValueError, match=rf"{est}.*n={PAIR_LIMIT + 1}"):
                SimulationConfig(est, (5, PAIR_LIMIT + 1), master_seed=0)
            SimulationConfig(est, (PAIR_LIMIT,), master_seed=0)  # fine
        SimulationConfig("mad", (PAIR_LIMIT + 1,), master_seed=0)  # not pairwise

    def test_non_integer_worker_env(self, monkeypatch):
        monkeypatch.setenv("ROBUST_FINITE_THREADS", "two")
        with pytest.raises(ValueError, match="ROBUST_FINITE_THREADS.*'two'"):
            resolve_worker_count("auto")
        assert resolve_worker_count(2) == 2  # an explicit count ignores the variable

    def test_worker_resolution(self, monkeypatch):
        assert resolve_worker_count(4) == 4
        assert resolve_worker_count("3") == 3
        monkeypatch.setenv("ROBUST_FINITE_THREADS", "7")
        assert resolve_worker_count("auto") == 7
        monkeypatch.delenv("ROBUST_FINITE_THREADS")
        assert resolve_worker_count("auto") >= 1

    def test_auto_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("ROBUST_FINITE_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_worker_count("auto") == 1

    def test_worker_count_below_one_is_an_error(self, monkeypatch):
        rule = "must be an integer of at least 1, got"
        # a float or a bool is not truncated to a count
        for count in (0, -3, "0", "many", 2.5, 1.0, True, False, "2.5"):
            with pytest.raises(ValueError, match=f"^worker count {rule} {count!r}$"):
                resolve_worker_count(count)
        for env in ("0", "-3", "1.5"):
            monkeypatch.setenv("ROBUST_FINITE_THREADS", env)
            with pytest.raises(ValueError, match=f"^ROBUST_FINITE_THREADS {rule} '{env}'$"):
                resolve_worker_count("auto")
        assert resolve_worker_count(np.int64(2)) == 2
        with pytest.raises(ValueError, match=rf"^worker count {rule} 1\.7$"):
            SimulationConfig("mean", (5,), master_seed=0, worker_count=1.7)


class _RecordingPool:
    """Stands in for the ProcessPoolExecutor of ``calibration._open_executor``:
    records each pool opened and maps in this process, so no test starts
    real workers."""

    opened: list = []

    def __init__(self, max_workers, **options):
        self.max_workers = max_workers
        self.chunksize = None
        _RecordingPool.opened.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksize = chunksize
        return map(fn, iterable)

    def shutdown(self, wait=True):
        pass


class TestBlockRunner:
    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(calibration, "_open_executor", _RecordingPool)
        monkeypatch.setattr(calibration, "_pool", None)
        monkeypatch.setattr(calibration, "_idle", None)
        monkeypatch.setattr(calibration, "_usable_cpus", lambda: 4)
        monkeypatch.delenv("ROBUST_FINITE_THREADS", raising=False)
        _RecordingPool.opened = []
        return _RecordingPool.opened

    def _simulate(self, blocks, workers):
        cfg = SimulationConfig("mean", (2,), master_seed=0,
                               replications=blocks * BLOCK_SIZE, worker_count=workers)
        return simulate(cfg)

    def test_workers_clamped_to_tasks_and_cpus(self, pools):
        serial = self._simulate(3, 1)
        assert pools == []
        assert self._simulate(3, 64) == serial
        assert self._simulate(10, 64)[0].replications == 10 * BLOCK_SIZE
        self._simulate(10, 2)
        self._simulate(10, "auto")
        assert [p.max_workers for p in pools] == [4, 2, 4]

    def test_pool_size_ignores_the_block_count(self, pools):
        # one pool of min(requested, CPUs) serves calls of any block count,
        # and a call of one block runs in this process
        for blocks in (3, 10, 2, 1):
            self._simulate(blocks, 64)
        assert [p.max_workers for p in pools] == [4]

    def test_every_worker_gets_a_chunk(self, pools):
        for blocks, workers in ((5, 2), (3, 2), (10, 4), (64, 2)):
            self._simulate(blocks, workers)
            pool = pools[-1]
            assert pool.max_workers == workers
            assert pool.chunksize <= -(-blocks // workers)
            assert -(-blocks // pool.chunksize) >= workers

    def test_regenerate_table_opens_one_pool(self, pools):
        rows = regenerate_table("nvar", [2, 3, 4, 5], master_seed=5,
                                replications=1000, worker_count=2)
        assert [r["n"] for r in rows] == [2, 3, 4, 5]
        assert [p.max_workers for p in pools] == [2]
        assert rows == regenerate_table("nvar", [2, 3, 4, 5], master_seed=5,
                                        replications=1000, worker_count=1)

    def test_pool_is_kept_until_the_worker_count_changes(self, pools, monkeypatch):
        shut = []
        monkeypatch.setattr(_RecordingPool, "shutdown",
                            lambda self, wait=True: shut.append((self, wait)))
        self._simulate(3, 2)
        self._simulate(3, 2)
        assert [p.max_workers for p in pools] == [2] and shut == []
        self._simulate(3, 3)
        assert [p.max_workers for p in pools] == [2, 3]
        assert shut == [(pools[0], True)]

    def test_idle_pool_closes(self, pools, monkeypatch):
        shut = []
        monkeypatch.setattr(_RecordingPool, "shutdown",
                            lambda self, wait=True: shut.append(self))
        monkeypatch.setattr(calibration, "_IDLE_S", 0.05)
        self._simulate(3, 2)
        deadline = time.monotonic() + 10
        while not shut and time.monotonic() < deadline:
            time.sleep(0.01)
        assert shut == pools and calibration._pool is None
        self._simulate(3, 2)
        assert len(pools) == 2

    def test_threads_share_the_pool_safely(self, pools, monkeypatch):
        # threads switching the worker count must shut down every pool but
        # the last, and never drop one still open
        shut = []

        # real pools take a while to open and to shut down, which lets other
        # threads run in between
        def opening(max_workers, **options):
            time.sleep(1e-3)
            return _RecordingPool(max_workers)

        def shutdown(pool, wait=True):
            time.sleep(1e-3)
            shut.append(pool)

        monkeypatch.setattr(calibration, "_open_executor", opening)
        monkeypatch.setattr(_RecordingPool, "shutdown", shutdown)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda w=w: [self._simulate(3, w)
                                                           for _ in range(40)])
                       for w in (2, 3, 2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert shut == pools[:-1]


def _simulate_into(config, results):
    results.put(simulate(config))


@pytest.mark.skipif(calibration._usable_cpus() < 2, reason="two workers need two CPUs")
class TestReusedPool:
    """The kept pool, on real workers."""

    CONFIG = SimulationConfig("mad", (3, 6), master_seed=5, replications=3000,
                              worker_count=2)

    @pytest.fixture
    def serial(self):
        return simulate(replace(self.CONFIG, worker_count=1))

    def test_calls_at_changing_worker_counts_agree(self, monkeypatch):
        # three workers even on two CPUs, so that the pool is replaced
        monkeypatch.setattr(calibration, "_usable_cpus", lambda: 4)
        config = replace(self.CONFIG, n_values=(3, 6, 9))
        serial = simulate(replace(config, worker_count=1))
        executors = []
        for workers in (2, 2, 3, 2):
            assert simulate(replace(config, worker_count=workers)) == serial
            executors.append(calibration._pool[1])
        assert executors[0] is executors[1]
        assert len({id(e) for e in executors}) == 3

    def _in_forked_child(self):
        """Run simulate(CONFIG) in a fork-context child; return what it gave
        within 60 s (None if nothing) and its exit code."""
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_simulate_into, args=(self.CONFIG, results))
        child.start()
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            got = None
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        return got, child.exitcode

    def test_forked_child_opens_its_own_pool(self, serial):
        # the child inherits the parent's pool without its manager thread,
        # and using that copy would hang; at exit, the child must stop its
        # own pool before multiprocessing joins the pool's workers
        assert simulate(self.CONFIG) == serial
        assert self._in_forked_child() == (serial, 0)

    def test_child_forked_while_a_thread_maps(self, serial):
        # the child's copy of the pool lock is held by a thread that the
        # child does not have
        busy = threading.Thread(target=simulate, args=(
            replace(self.CONFIG, n_values=tuple(range(2, 80)), replications=20_000),))
        busy.start()
        try:
            deadline = time.monotonic() + 30
            while not calibration._pool_lock.locked() and time.monotonic() < deadline:
                time.sleep(1e-3)
            assert calibration._pool_lock.locked()
            assert self._in_forked_child() == (serial, 0)
        finally:
            busy.join(60)
        assert not busy.is_alive()

    def test_killed_worker_breaks_one_call(self, serial):
        simulate(self.CONFIG)
        victim = multiprocessing.active_children()[0]
        victim.kill()
        victim.join(10)
        with pytest.raises(BrokenProcessPool):
            simulate(self.CONFIG)
        assert simulate(self.CONFIG) == serial

    @staticmethod
    def _python(*args, stdin=None):
        """Run a fresh interpreter that imports the package from this tree."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
                              timeout=60)

    def _run_python(self, lines):
        """Run the lines in a fresh interpreter after one simulate call on two
        workers."""
        return self._python("-c", "\n".join([
            "import multiprocessing, os, select, signal",
            "from robustfinite.calibration import SimulationConfig, simulate",
            "read, write = os.pipe()",
            "simulate(SimulationConfig('mad', (3, 6), master_seed=5,",
            "                          replications=3000, worker_count=2))",
            *lines]))

    UNGUARDED = "\n".join([
        "from robustfinite.calibration import SimulationConfig, simulate",
        "print(simulate(SimulationConfig('mad', (3, 6), master_seed=5,",
        "                                replications=3000, worker_count=2))[0].n)"])

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="spawned workers import the main module")
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_script_needs_no_main_guard(self, tmp_path, source):
        # forked workers do not import the main module, so a script without
        # an `if __name__ == "__main__":` guard, or one read from standard
        # input, runs on two workers as on one
        if source == "file":
            script = tmp_path / "script.py"
            script.write_text(self.UNGUARDED)
            result = self._python(str(script))
        else:
            result = self._python("-", stdin=self.UNGUARDED)
        assert (result.returncode, result.stdout) == (0, "3\n"), result.stderr

    @pytest.mark.parametrize("end, returncode", [
        ("pass", 0), ("os.kill(os.getpid(), signal.SIGKILL)", -9)])
    def test_workers_exit_with_the_process(self, end, returncode):
        # a killed process cannot stop its workers; they must notice
        result = self._run_python([
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)", end])
        assert result.returncode == returncode, result.stderr
        pids = [int(p) for p in result.stdout.split()]
        assert len(pids) == 2

        def alive(pid):
            # a zombie has exited and waits only for init to reap it
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return True

        deadline = time.monotonic() + 10
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(alive, pids))

    def test_pipe_of_the_caller_closes_once_the_pool_is_idle(self):
        # forked workers hold a pipe that was open when they started; they
        # outlive the call, but must let it reach end-of-file once the pool
        # has been idle for a while
        result = self._run_python([
            "os.close(write)",
            "print(select.select([read], [], [], 10)[0] == [read] and os.read(read, 1) == b'')"])
        assert (result.returncode, result.stdout) == (0, "True\n"), result.stderr


class TestAgainstTruth:
    def test_mean_is_unbiased(self):
        r = simulate(SimulationConfig("mean", (10,), master_seed=11,
                                      replications=20_000))[0]
        assert abs(r.bias) < 4 * r.mc_standard_error
        assert r.normalized_variance == pytest.approx(1.0, abs=0.05)

    def test_median_is_unbiased(self):
        r = simulate(SimulationConfig("median", (9,), master_seed=12,
                                      replications=20_000))[0]
        assert abs(r.bias) < 4 * r.mc_standard_error

    def test_mad_pair_matches_analytic_oracle(self):
        r = simulate(SimulationConfig("mad", (2,), master_seed=13,
                                      replications=50_000))[0]
        assert abs(r.mean_estimate - EXPECTED_MAD_2) < 4 * r.mc_standard_error

    def test_mad_bias_matches_table(self):
        r = simulate(SimulationConfig("mad", (5,), master_seed=14,
                                      replications=50_000))[0]
        assert abs(r.bias - _reference_bias(5)[0]) < 4 * r.mc_standard_error

    def test_unbiased_mad_recovers_sigma(self):
        r = simulate(SimulationConfig("mad", (10,), master_seed=15,
                                      replications=50_000))[0]
        corrected = r.mean_estimate / c5(10)
        assert abs(corrected - 1.0) < 3 * r.mc_standard_error / c5(10)

    def test_mc_se_definition(self):
        r = simulate(SimulationConfig("mean", (4,), master_seed=16,
                                      replications=5000))[0]
        assert r.mc_standard_error == pytest.approx(
            math.sqrt(r.variance_estimate / r.replications), rel=1e-12)

    def test_se_shrinks_like_inverse_sqrt(self):
        small = simulate(SimulationConfig("median", (5,), master_seed=17,
                                          replications=5000))[0]
        large = simulate(SimulationConfig("median", (5,), master_seed=17,
                                          replications=20_000))[0]
        assert small.mc_standard_error / large.mc_standard_error == pytest.approx(
            2.0, rel=0.2)

    def test_simulate_variance_reports_both_forms(self):
        r = simulate(SimulationConfig("mad", (5,), master_seed=18,
                                      replications=5000))[0]
        assert r.normalized_variance > r.variance_estimate > 0


def test_rowwise_estimates_match_scalar_estimators():
    """The vectorized engine and the scalar estimators implement the same
    definitions: medians agree exactly, sums to rounding."""
    from robustfinite import estimators as est
    from robustfinite.calibration import _row_estimates

    rng = np.random.default_rng(77)
    for n in (2, 3, 5, 8):
        block = rng.normal(size=(40, n))
        scalar = {
            "mean": est.mean, "median": est.median, "std": est.std_dev,
            "mad": est.mad, "shamos": est.shamos,
            "hl1": est.hl1, "hl2": est.hl2, "hl3": est.hl3,
        }
        for name, fn in scalar.items():
            rows = _row_estimates(est.Estimator(name), block)
            expected = np.array([fn(row) for row in block])
            if name in ("mean", "std"):
                assert np.allclose(rows, expected, rtol=1e-12)
            else:
                assert np.array_equal(rows, expected), (name, n)


def test_normal_generator_quality():
    draws = _block_rng(2024, 0, 1, 0).standard_normal(1_000_000)
    n = draws.size
    assert abs(draws.mean()) < 4.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    # one-sample Kolmogorov-Smirnov against the normal CDF, 1% critical value
    sorted_u = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
                         for x in np.sort(draws)])
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - sorted_u), np.max(sorted_u - (grid - 1.0 / n)))
    assert ks < 1.628 / math.sqrt(n)


class TestFitHayes:
    def test_exact_recovery(self):
        pts = tuple((n, -0.76213 / n - 0.86413 / n**2) for n in range(109, 501, 13))
        model = fit_hayes(FitInput(pts))
        assert model.coefficients[0] == pytest.approx(-0.76213, rel=1e-10)
        assert model.coefficients[1] == pytest.approx(-0.86413, rel=1e-10)
        assert model.rss < 1e-18

    def test_point_order_invariance(self):
        pts = [(n, 1.0 / n + 2.0 / n**2) for n in (3, 10, 50, 200)]
        a = fit_hayes(FitInput(tuple(pts)))
        b = fit_hayes(FitInput(tuple(reversed(pts))))
        assert a.coefficients == pytest.approx(b.coefficients, rel=1e-12)

    def test_two_point_interpolation(self):
        p, q = -0.5, 2.25
        pts = ((2, p / 2 + q / 4), (4, p / 4 + q / 16))
        model = fit_hayes(FitInput(pts))
        assert model.coefficients == pytest.approx((p, q), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            FitInput(points=((5.0, 1.0),))
        with pytest.raises(ValueError):
            FitInput(points=((5.0, 1.0), (5.0, 2.0)))
        with pytest.raises(ValueError):
            FitInput(points=((5.0, 1.0), (6.0, 2.0)), weights=(1.0,))
        with pytest.raises(ValueError):
            FitInput(points=((5.0, 1.0), (6.0, 2.0)), weights=(1.0, -1.0))

    @pytest.mark.parametrize("points, weights, message", [
        (((2, math.nan), (3, 1.0)), None, r"^point \(n=2.0, value=nan\) needs"),
        (((2, 1.0), (3, -math.inf)), None, r"^point \(n=3.0, value=-inf\) needs"),
        (((0, 1.0), (3, 1.0)), None, r"^point \(n=0.0, value=1.0\) needs"),
        (((-2, 1.0), (3, 1.0)), None, r"^point \(n=-2.0, value=1.0\) needs"),
        (((math.nan, 1.0), (3, 1.0)), None, r"^point \(n=nan, value=1.0\) needs"),
        (((2, 1.0), (3, 1.0)), (1.0, math.nan),
         r"^weight of point \(n=3.0, value=1.0\) .* got nan$"),
        (((2, 1.0), (3, 1.0)), (math.inf, 1.0),
         r"^weight of point \(n=2.0, value=1.0\) .* got inf$"),
        (((True, 0.1), (2, 0.2)), None, r"^point \(n=True, value=0.1\) needs"),
        (((2, 0.1), (3, False)), None, r"^point \(n=3, value=False\) needs"),
        ((("1", "0.1"), (2, 0.2)), None, r"^point \(n='1', value='0.1'\) needs"),
        (((2, 1.0), (3, 1.0)), (1.0, True),
         r"^weight of point \(n=3.0, value=1.0\) .* got True$"),
        (((2, 1.0), (3, 1.0)), ("1", 1.0),
         r"^weight of point \(n=2.0, value=1.0\) .* got '1'$"),
        (((1, 2, 3), (2, 3)), None, r"^points must be \(n, value\) pairs, got \(1, 2, 3\)$"),
        (((2, 1.0), 3), None, r"^points must be \(n, value\) pairs, got 3$"),
        (5, None, r"^points must be an iterable, got 5$"),
        (((2, 1.0), (3, 1.0)), 5, r"^weights must be an iterable, got 5$"),
    ])
    def test_non_finite_or_non_positive_point_is_named(self, points, weights, message):
        with pytest.raises(ValueError, match=message):
            FitInput(points=points, weights=weights)


class TestFitWilliams:
    def test_exact_recovery(self):
        pts = tuple((n, -0.804168866 * n ** -1.008922) for n in range(109, 501, 13))
        model = fit_williams(FitInput(pts))
        assert model.coefficients[0] == pytest.approx(-0.804168866, rel=1e-10)
        assert model.coefficients[1] == pytest.approx(1.008922, rel=1e-10)

    def test_sign_rules(self):
        with pytest.raises(ValueError):
            fit_williams(FitInput(((2, 1.0), (3, -1.0))))
        with pytest.raises(ValueError):
            fit_williams(FitInput(((2, 1.0), (3, 0.0))))

    def test_single_decade_exponent_near_one(self):
        pts = tuple((n, 0.435760656 * n ** -1.0084443) for n in range(100, 501, 25))
        model = fit_williams(FitInput(pts))
        assert model.coefficients[1] == pytest.approx(1.0, abs=0.02)


class TestWeightedFits:
    """Each point's squared residual counts with its weight.  The points
    lie on the published models' grid, n = 51..100 and 109..500."""

    POINTS = tuple((n, -0.76213 / n - 0.86413 / n**2 + 1e-4 * math.sin(n))
                   for n in [*range(51, 101), *range(109, 501, 13)])

    @pytest.mark.parametrize("fit", [fit_hayes, fit_williams])
    def test_equal_weights_scale_only_the_rss(self, fit):
        plain = fit(FitInput(self.POINTS))
        doubled = fit(FitInput(self.POINTS, weights=(2.0,) * len(self.POINTS)))
        assert doubled.coefficients == plain.coefficients
        assert doubled.rss == 2 * plain.rss

    @pytest.mark.parametrize("fit", [fit_hayes, fit_williams])
    def test_uneven_weights_match_least_squares(self, fit):
        n, y = np.array(self.POINTS).T
        w = np.random.default_rng(3).uniform(0.5, 2.0, n.size)
        model = fit(FitInput(self.POINTS, weights=tuple(w)))
        if fit is fit_hayes:
            design, target = np.column_stack([1 / n, 1 / n**2]), y
        else:  # log|value| = log|amp| - exponent * log n
            design, target = np.column_stack([np.ones_like(n), np.log(n)]), np.log(-y)
        root = np.sqrt(w)
        coef = np.linalg.lstsq(design * root[:, None], target * root, rcond=None)[0]
        if fit is fit_williams:
            coef = (-math.exp(coef[0]), -coef[1])
        assert model.coefficients == pytest.approx(tuple(coef), rel=1e-12, abs=0)


def _column(table, colname, lo=0):
    path = resources.files("robustfinite") / "data" / f"{table}.csv"
    with path.open() as f:
        return [(int(r["n"]), float(r[colname]))
                for r in csv.DictReader(f) if int(r["n"]) >= lo]


class TestRefitPublishedModels:
    # The published coefficients come from fitting the simulated biases for
    # n = 51..100 together with the large-n grid 109..500; on that data the
    # refit lands within ~1e-4 of every published value.
    def _grid(self, colname):
        return tuple(_column("bias_table", colname, 51)
                     + _column("bias_large_table", colname))

    def test_hayes_mad(self):
        model = fit_hayes(FitInput(self._grid("mad_bias")))
        assert model.coefficients[0] == pytest.approx(-0.76213, abs=0.05)
        assert model.coefficients[1] == pytest.approx(-0.86413, abs=0.05)

    def test_hayes_shamos(self):
        model = fit_hayes(FitInput(self._grid("shamos_bias")))
        assert model.coefficients[0] == pytest.approx(0.414253297, abs=0.05)
        assert model.coefficients[1] == pytest.approx(0.442396799, abs=0.05)

    def test_williams_mad(self):
        model = fit_williams(FitInput(self._grid("mad_bias")))
        assert model.coefficients[0] == pytest.approx(-0.804168866, abs=0.05)
        assert model.coefficients[1] == pytest.approx(1.008922, abs=0.02)

    def test_williams_shamos(self):
        model = fit_williams(FitInput(self._grid("shamos_bias")))
        assert model.coefficients[0] == pytest.approx(0.435760656, abs=0.05)
        assert model.coefficients[1] == pytest.approx(1.0084443, abs=0.02)

    def test_large_n_only_williams_still_close(self):
        # the large-n table alone pins the williams forms (the hayes 1/n^2
        # term is too weakly identified there; see the combined grid above)
        model = fit_williams(FitInput(tuple(_column("bias_large_table", "mad_bias"))))
        assert model.coefficients[0] == pytest.approx(-0.804168866, abs=0.05)
        assert model.coefficients[1] == pytest.approx(1.008922, abs=0.02)


class TestRegenerateTable:
    def test_re_is_exactly_one_when_degenerate(self):
        rows = regenerate_table("re", [1, 2], master_seed=3, replications=2000)
        for row in rows:
            for est in ("median", "hl2", "hl3"):
                assert row[est] == 1.0
        assert math.isnan(rows[0]["hl1"])  # undefined at n = 1
        assert math.isnan(rows[0]["mad"])

    def test_bias_rows_match_table_within_mc_error(self):
        rows = regenerate_table("bias", [2, 5], master_seed=4, replications=20_000)
        for row in rows:
            mad_ref, shamos_ref = _reference_bias(row["n"])
            assert abs(row["mad"] - mad_ref) < 4 * row["mad_se"]
            assert abs(row["shamos"] - shamos_ref) < 4 * row["shamos_se"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_share_simulate_draws(self, workers):
        # both draw from the simulator's domain 0, stream n: the same seed,
        # n and replications give the same cells, bit for bit
        ns, seed, reps = (3, 10), 12, BLOCK_SIZE + 500
        bias = regenerate_table("bias", ns, seed, reps, workers)
        nvar = regenerate_table("nvar", ns, seed, reps, workers)
        for e in ("mad", "shamos", "median", "hl1", "hl2", "hl3"):
            cells = simulate(SimulationConfig(e, ns, master_seed=seed, replications=reps,
                                              worker_count=workers))
            for cell, b, v in zip(cells, bias, nvar):
                if e in b:
                    assert (b[e], b[f"{e}_se"]) == (cell.bias, cell.mc_standard_error)
                assert v[e] == cell.normalized_variance
                assert v[f"{e}_se"] == normalized_variance(e, cell.n, cell.mc_se_variance)

    def test_nvar_smoke(self):
        rows = regenerate_table("nvar", [3], master_seed=5, replications=1000)
        assert set(rows[0]) == {
            "n", "median", "median_se", "hl1", "hl1_se", "hl2", "hl2_se",
            "hl3", "hl3_se", "mad", "mad_se", "shamos", "shamos_se"
        }
        for key, value in rows[0].items():
            if key != "n":
                assert math.isfinite(value)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            regenerate_table("bogus", [2], master_seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_size_below_one(self, n):
        with pytest.raises(ValueError, match=rf"^n \(sample size\) .* got {n}$"):
            regenerate_table("re", [2, n], master_seed=0, replications=100,
                             worker_count=1)

    def test_pairwise_size_guard(self, monkeypatch):
        # a small limit keeps the test cheap; the error is SimulationConfig's
        monkeypatch.setattr(estimators, "PAIR_LIMIT", 6)
        for table, est in (("bias", "shamos"), ("nvar", "hl1"), ("re", "hl1")):
            with pytest.raises(ValueError, match=rf"^size limit: .*{est}.* got n=7$"):
                regenerate_table(table, [3, 7], master_seed=0, replications=100,
                                 worker_count=1)
            with pytest.raises(ValueError, match=rf"^size limit: .*{est}.* got n=7$"):
                SimulationConfig(est, (7,), master_seed=0)
        rows = regenerate_table("bias", [6], master_seed=0, replications=100,
                                worker_count=1)  # at the limit: fine
        assert math.isfinite(rows[0]["shamos"])
