import math

import numpy as np
import pytest

from repro.utils.stats import percentile, summarize


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_basic(self):
        s = summarize(range(1, 101))
        assert s.count == 100
        assert s.mean == pytest.approx(50.5)
        assert s.min == 1 and s.max == 100
        assert s.p50 == pytest.approx(50.5)

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_percentiles_ordered(self):
        s = summarize(np.random.default_rng(0).random(500))
        assert s.min <= s.p50 <= s.p95 <= s.p99 <= s.max
