"""The pure-Python PCG64 stream against numpy's, draw for draw.

numpy is a test-only oracle here: the pinned draws below were taken
from ``numpy.random.default_rng(entropy).integers`` and run without
it; the oracle tests skip where numpy is not installed.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.pcg64 import PCG64
from repro.workloads import random_loops
from repro.workloads.random_loops import random_cyclic_loop, random_loop

_M32 = 2**32 - 1

# entropy -> (3 draws in [0, 2**32), 8 in [1, 4), 4 in [0, 2**31 + 1));
# the last range rejects about half its 32-bit draws
PINNED = [
    (0, [3653403231, 2735729615, 2195314465], [1, 1, 1, 1, 1, 1, 3, 2],
     [1440696408, 72124473, 1818006483, 377217572]),
    (1, [2032329983, 2198257139, 3243419750], [3, 1, 1, 3, 3, 1, 1, 3],
     [909086626, 1382612245, 1180243457, 1618157079]),
    (25, [2165788756, 690292440, 3670748604], [1, 1, 1, 2, 2, 1, 1, 2],
     [1689928502, 260449237, 434725744, 484840207]),
    (2**40 + 7, [886972842, 3564019232, 2617800309], [1, 1, 1, 2, 3, 3, 3, 1],
     [1052257144, 1389933333, 80041024, 1935358505]),
    (2**70 + 3, [609068674, 1805548928, 1160564701], [1, 1, 1, 2, 1, 1, 2, 2],
     [1266662709, 1630784844, 881074450, 1002845098]),
    ([7, 0xC4C11C], [140699450, 4220333821, 3520036849],
     [3, 2, 2, 2, 1, 1, 3, 2], [249857787, 9162956, 1848138762, 14146790]),
]


@pytest.mark.parametrize("entropy,full,small,rejecting", PINNED)
def test_pinned_draws(entropy, full, small, rejecting):
    rng = PCG64(entropy)
    assert [rng.integers(0, 2**32) for _ in full] == full
    assert [rng.integers(1, 4) for _ in small] == small
    assert [rng.integers(0, 2**31 + 1) for _ in rejecting] == rejecting


def test_a_one_value_range_draws_nothing():
    a, b = PCG64(3), PCG64(3)
    assert a.integers(5, 6) == 5
    assert a.integers(0, 2**32) == b.integers(0, 2**32)


@pytest.mark.parametrize("lo,hi", [(3, 3), (5, 2), (0, 0)])
def test_empty_range_raises(lo, hi):
    with pytest.raises(ValueError):
        PCG64(0).integers(lo, hi)


def test_range_wider_than_32_bits_raises():
    with pytest.raises(ValueError):
        PCG64(0).integers(0, 2**32 + 1)


def test_negative_entropy_raises():
    with pytest.raises(ValueError):
        PCG64(-1)
    with pytest.raises(ValueError):
        PCG64([1, -1])


# ----------------------------------------------------------------------
# numpy as the oracle
# ----------------------------------------------------------------------
def _numpy():
    return pytest.importorskip("numpy")


def _assert_same_stream(np, entropy, spans, lo=0):
    want = np.random.default_rng(entropy)
    got = PCG64(entropy)
    for span in spans:
        assert got.integers(lo, lo + span) == int(
            want.integers(lo, lo + span)
        ), (entropy, span)


def test_stream_matches_numpy_over_seeds_and_ranges():
    np = _numpy()
    r = random.Random(0)
    for seed in [*range(400), 2**32, 2**40 + 7, 2**70 + 3, 2**128 - 1]:
        for entropy in (seed, [seed, 0xC4C11C]):
            spans = [
                r.choice((1, 2, 3, 13, 2**31 + 1, _M32, 2**32))
                if r.random() < 0.5
                else r.randint(1, 2**32)
                for _ in range(100)
            ]
            _assert_same_stream(np, entropy, spans, lo=r.randint(0, 9))


@given(
    entropy=st.one_of(
        st.integers(0, 2**160),
        st.lists(st.integers(0, 2**70), min_size=1, max_size=7),
    ),
    spans=st.lists(st.integers(1, 2**32), min_size=1, max_size=40),
)
def test_stream_matches_numpy_property(entropy, spans):
    _assert_same_stream(_numpy(), entropy, spans)


class _NumpyRng:
    """``numpy.random.default_rng`` behind the ``PCG64`` interface."""

    def __init__(self, entropy):
        self._rng = _numpy().random.default_rng(entropy)

    def integers(self, lo, hi):
        return int(self._rng.integers(lo, hi))


def _shape(g):
    return (
        g.name,
        [(v, g.latency(v)) for v in g.node_names()],
        sorted((e.src, e.dst, e.distance, e.comm) for e in g.edges),
    )


@pytest.mark.parametrize(
    "options",
    [{}, {"nodes": 12, "sds": 8, "lcds": 5}, {"sd_span": 3, "lcd_span": 20,
                                             "max_latency": 7}],
)
def test_random_loops_match_the_numpy_generated_ones(monkeypatch, options):
    _numpy()
    seeds = range(150)
    ours = [
        (_shape(random_loop(s, **options)),
         _shape(random_cyclic_loop(s, **options).graph))
        for s in seeds
    ]
    monkeypatch.setattr(random_loops, "PCG64", _NumpyRng)
    theirs = [
        (_shape(random_loop(s, **options)),
         _shape(random_cyclic_loop(s, **options).graph))
        for s in seeds
    ]
    assert ours == theirs
