"""Metrics."""

import pytest

from repro.errors import ReproError
from repro.metrics import (
    percentage_parallelism,
    sequential_time,
    speedup,
)

from tests.conftest import chain_graph


class TestPercentageParallelism:
    def test_fig7_example(self):
        # 5-cycle body at 3 cycles/iteration: the paper's 40%
        assert percentage_parallelism(500, 300) == pytest.approx(40.0)

    def test_no_gain_is_zero(self):
        assert percentage_parallelism(100, 100) == 0.0

    def test_slower_is_negative(self):
        assert percentage_parallelism(100, 120) < 0

    def test_requires_positive_sequential(self):
        with pytest.raises(ReproError):
            percentage_parallelism(0, 10)


class TestSpeedup:
    def test_basic(self):
        assert speedup(100, 25) == 4.0

    def test_requires_positive_parallel(self):
        with pytest.raises(ReproError):
            speedup(100, 0)


class TestSequentialTime:
    def test_latency_sum(self):
        g = chain_graph(3, latency=2)
        assert sequential_time(g, 10) == 60

    def test_zero_iterations(self):
        assert sequential_time(chain_graph(2), 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            sequential_time(chain_graph(2), -1)
