"""Identity fixture: digests of the exact outputs of the estimator kernels
and of the seeded Monte Carlo streams, so that a change which moves any
output by one bit fails here.

- The kernel digest is the SHA-256 of the ``float.hex`` output of
  ``_row_medians`` (six kinds) and ``_row_estimates`` (eight estimators) on
  sample families built by an integer hash, not by numpy's RNG.  The sizes
  sit on either side of each constant of ``estimators.py`` that picks a
  path: ``_NETWORK_ROW`` and ``_NETWORK_BLOCK``, ``_SORT_ROW``,
  ``_SORT_SINGLE_ROW``, the first band n of each kind, ``_CACHED_INDEX``
  and ``_BUFFER_PAIRS``, as single rows and as blocks.  It depends on IEEE
  arithmetic only.
- The stream digest is the SHA-256 of the CSV bodies of ``simulate`` (eight
  estimators), of ``regenerate_table`` bias, nvar and re, and of
  ``spc-demo``, at one seed, the same on one worker and on two.  It also
  depends on numpy's SFC64 ``standard_normal``, which NEP 19 does not
  promise to keep across numpy releases.  Each block draws from its own
  SFC64 substream; SFC64's 64-bit counter keeps distinct seeds from running
  into each other for at least 2**64 draws, so no two blocks overlap.

A change that moves a digest on purpose updates its literal and says in
CHANGES.md which outputs moved and why.
"""

import hashlib

import numpy as np

from robustfinite import calibration
from robustfinite.cli import main
from robustfinite.estimators import Estimator, _row_estimates, _row_medians

KERNEL_DIGEST = "cbc612c9c3490d3bc3f9c24cda7e8765845192c8ba918205d8680a8e24f135d2"
STREAM_DIGEST = "b8b5357ea28887d5bcfb7cab24bb90fa177acec7a5db76e0544ab7ee14ad10c8"

MIN_N = {"median": 1, "mad": 2, "shamos": 2, "hl1": 2, "hl2": 1, "hl3": 1}
FAMILIES = ("plain", "ties", "huge", "near_max", "zeros", "cauchy")
SEED = 7

# n on either side of each pairwise plan size that picks a path, per kind:
# m <= _NETWORK_ROW, _SORT_ROW, _SORT_SINGLE_ROW, _BAND_PAIRS, _CACHED_INDEX
# and _BUFFER_PAIRS, with m the plan's values.
PAIR_EDGES = {
    "shamos": ((5, 6), (24, 25), (40, 41), (52, 53), (268, 269), (758, 759)),
    "hl1": ((7, 8), (35, 36), (56, 57), (73, 74), (376, 377), (1061, 1062)),
    "hl2": ((6, 7), (34, 35), (55, 56), (72, 73), (375, 376), (1060, 1061)),
    "hl3": ((5, 6), (25, 26), (40, 41), (52, 53), (266, 267), (750, 751)),
}
# the same constants for median and mad, whose m is n
RAW_EDGES = ((9, 10), (256, 257), (700, 701), (None, None), (None, None), (262144, 262145))


def _bits(count: int, seed: int) -> np.ndarray:
    """splitmix64 of ``seed``, ``seed + 1``, ...: 64 well-mixed bits each."""
    z = (np.arange(count, dtype=np.uint64) + np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def family(name: str, rows: int, n: int, seed: int = SEED) -> np.ndarray:
    """A (rows, n) block of one sample family, each value a function of
    integer bits under IEEE arithmetic alone: plain values in [-4, 4), integer ties, plain times 1e300,
    values near the largest double of both signs, signed zeros among a few
    ones, and Cauchy-like ratios."""
    b = _bits(rows * n, seed + 1000 * n + rows)
    plain = ((b >> np.uint64(11)).astype(np.int64) - (1 << 52)) * 2.0 ** -50
    if name == "plain":
        x = plain
    elif name == "ties":
        x = (b >> np.uint64(60)).astype(float) - 8.0
    elif name == "huge":
        x = plain * 1e300
    elif name == "near_max":
        x = plain * 0.25 * np.finfo(float).max
    elif name == "zeros":
        x = np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, -0.0, 0.0])[b >> np.uint64(61)]
    else:
        low = (b & np.uint64((1 << 20) - 1)).astype(float)
        x = plain / ((low - 2.0 ** 19 + 0.5) * 2.0 ** -19)
    return x.reshape(rows, n)


def kernel_cases():
    """(kind, n, rows, families) of every ``_row_medians`` call hashed."""
    cases = []
    for kind in ("median", "mad", *PAIR_EDGES):
        edges = PAIR_EDGES.get(kind, RAW_EDGES)
        small = range(MIN_N[kind], 6)
        network = range(MIN_N[kind], edges[0][1] + 1)
        cases += [(kind, n, 1, FAMILIES) for n in small]
        # single rows: sorted or partitioned, filled or counted
        cases += [(kind, n, 1, FAMILIES) for pair in edges[:5] for n in pair if n]
        cases += [(kind, n, 1, ("plain", "ties")) for n in edges[5]]
        # blocks through the sorting network, and just short of its rows
        cases += [(kind, n, 1024, FAMILIES) for n in network]
        cases += [(kind, n, 1023, ("plain",)) for n in edges[0]]
        # blocks sorted or partitioned by row
        cases += [(kind, n, 64, FAMILIES) for n in edges[1] + edges[2]]
        if kind in PAIR_EDGES:
            # blocks on either side of the band, and one it saves most on
            cases += [(kind, n, 2048, ("plain", "ties", "cauchy")) for n in edges[3]]
            cases += [(kind, 100, 4096, ("plain",))]
            # blocks given the plan's index per call, and counted blocks
            cases += [(kind, n, 3, ("plain", "near_max")) for n in edges[4]]
            cases += [(kind, n, 2, ("plain",)) for n in edges[5]]
            # a long single row: several counting rounds
            cases += [(kind, 2000, 1, ("plain", "cauchy"))]
    return cases


def estimate_cases():
    """(estimator, n, rows, families) of every ``_row_estimates`` call
    hashed; rows 0 asks for one sample, a 1-d array."""
    cases = []
    for e in Estimator:
        first = e.min_n
        cases += [(e, n, 0, FAMILIES) for n in (first, first + 1, 5, 10, 53, 257)]
        cases += [(e, n, rows, FAMILIES) for n in (first, 5, 53) for rows in (2, 64)]
        cases += [(e, 5, 1024, FAMILIES)]
    return cases


def _kernel_lines():
    for kind, n, rows, families in kernel_cases():
        for name in families:
            out = _row_medians(family(name, rows, n), kind)
            yield f"{kind} {n} {rows} {name}: " + " ".join(map(float.hex, out.tolist()))
    for e, n, rows, families in estimate_cases():
        for name in families:
            x = family(name, max(rows, 1), n)
            for consistent in (True, False):
                out = _row_estimates(e, x[0] if rows == 0 else x, consistent)
                values = [out] if rows == 0 else out.tolist()
                yield f"{e.value} {n} {rows} {name} {consistent}: " \
                      + " ".join(map(float.hex, values))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_kernel_digest():
    got = _digest(_kernel_lines())
    assert got == KERNEL_DIGEST, (
        f"kernel digest {got}: an estimator kernel returns other doubles than "
        "before on the fixture's samples")


def _cli_body(tmp_path, argv):
    path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(path)]) == 0, argv
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


def _stream_bodies(tmp_path, workers: int) -> list[str]:
    bodies = [_cli_body(tmp_path, ["simulate", "--estimator", e.value, "--n", "2,3,10,60",
                                   "--reps", "4196", "--seed", str(SEED),
                                   "--workers", str(workers)])
              for e in Estimator]
    for table_id in ("bias", "nvar", "re"):
        rows = calibration.regenerate_table(table_id, (2, 3, 10), SEED, 4196, workers)
        bodies.append("".join(
            ",".join(float(v).hex() for v in row.values()) + "\n" for row in rows))
    bodies.append(_cli_body(tmp_path, ["spc-demo", "--reps", "1000", "--seed", str(SEED),
                                       "--workers", str(workers)]))
    return bodies


def test_stream_digest(tmp_path):
    one, two = (_stream_bodies(tmp_path, w) for w in (1, 2))
    assert one == two, "outputs differ between one worker and two"
    got = _digest(one)
    assert got == STREAM_DIGEST, (
        f"stream digest {got} under numpy {np.__version__}: the seeded Monte "
        "Carlo outputs moved.  They rest on numpy's "
        f"{calibration._BIT_GENERATOR.__name__} standard_normal, "
        "which NEP 19 does not promise to keep across numpy releases; if "
        "only numpy changed, compare against the same numpy first.")


def test_families_are_exact_and_varied():
    """The fixture's samples are finite, and each family holds more than one
    distinct value."""
    for name in FAMILIES:
        x = family(name, 4, 50)
        assert x.shape == (4, 50) and np.isfinite(x).all()
        assert len(set(x.ravel().tolist())) > 1, name
    assert np.signbit(family("zeros", 1, 64)).any()
