"""Self-tests of the harness's own arithmetic.  ``run.py`` runs them before
every benchmark run; ``python3 bench/selftest.py`` runs them alone.
"""

from __future__ import annotations

import sys

import numpy as np

import gate
from layers import per_layer_metrics
from spans import Span, check_metric_name, nearest_rank, self_times, tail_percentile


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", "x", "", start, end, parent, "t")


def test_self_time() -> None:
    spans = [_span(0, 0, 100), _span(1, 10, 30, 0), _span(2, 20, 50, 0),
             _span(3, 60, 70, 0), _span(4, 25, 28, 1), _span(5, 90, 120, 0)]
    got = self_times(spans)
    # children of 0 cover [10, 50) and [60, 70) and [90, 100): 60 ns
    assert got == {0: 40, 1: 17, 2: 30, 3: 10, 4: 3, 5: 30}, got


def test_tail_percentile() -> None:
    assert tail_percentile(1000) == 99      # 10 samples beyond p99
    assert tail_percentile(999) == 98       # p99 would leave 9
    assert tail_percentile(100) == 90
    assert tail_percentile(32) == 68
    assert tail_percentile(19) is None      # too few samples for a tail
    for count in range(20, 3000, 7):
        q = tail_percentile(count)
        beyond = count - -(-q * count // 100)
        assert beyond >= 10, (count, q)
        assert q == 99 or count - -(-(q + 1) * count // 100) < 10, (count, q)
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50 and nearest_rank(values, 99) == 99


def test_metric_names() -> None:
    names = list(per_layer_metrics()) + ["reps_per_s", "call_p99_us", "setup_s"]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    for bad in ("_normal.calls", "a b", "x" * 65, "", "kernel/ns", ".x"):
        try:
            check_metric_name(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")


def test_references() -> None:
    x = [3.0, -1.0, 2.5, 2.5]
    assert gate.midpoint_median(x) == 2.5
    assert gate.midpoint_median([1.0, 4.0, 2.0]) == 2.0
    assert len(gate.pair_values(x, "hl1")) == 6
    assert len(gate.pair_values(x, "hl2")) == 10
    assert len(gate.pair_values(x, "hl3")) == 16
    rng = np.random.default_rng(5)
    big = rng.normal(size=300)
    big[::7] = np.round(big[::7], 1)   # ties across the middle ranks
    for kind in gate.PAIRWISE:
        want = gate.midpoint_median(gate.pair_values(big.tolist(), kind))
        got = gate.streamed_pair_median(big, kind, rng, chunk_rows=37)
        assert gate.same_bits(got, want), kind
    assert gate.pull_limit(12) == 4.0 and 4.5 < gate.pull_limit(418) < 5.0


def test_tally() -> None:
    from workloads import Op, Tally, run_cycle

    ops = [Op("m.a", "m", "small", 1, lambda: 1, lambda out: out == 1, repeat=2),
           Op("m.b", "m", "large", 10, lambda: 2, lambda out: False)]
    tally = Tally(ops, "wall")
    ticks = iter([0, 5, 10, 17, 20, 30])
    tally.clock = lambda: next(ticks)
    run_cycle(tally)
    assert tally.latencies == [[5, 7], [10]], tally.latencies
    # the failed call adds its time but neither its replications nor a call
    assert tally.cycles == [(2, 2, 22)] and tally.failed == 1 and tally.attempted == 3
    # upper quartiles by nearest rank: 7 and 10; a cycle at those times
    # takes 2 * 7 + 10 ns and completes only the two passing calls
    assert tally.typical_latencies("small") == [7] and tally.typical_latencies("large") == [10]
    assert tally.throughput() == (2 / 24e-9, 2 / 24e-9)


TESTS = [test_self_time, test_tail_percentile, test_metric_names, test_references, test_tally]


def run() -> list[str]:
    failures = []
    for test in TESTS:
        try:
            test()
        except AssertionError as e:
            failures.append(f"{test.__name__}: {e}")
    return failures


if __name__ == "__main__":
    failed = run()
    for line in failed:
        print("FAIL", line)
    print(f"{len(TESTS) - len(failed)}/{len(TESTS)} harness self-tests passed")
    sys.exit(1 if failed else 0)
