"""Property tests for the log-bucketed (HDR-style) latency histogram.

The ``kind="log"`` histogram trades the linear histogram's absolute
half-bin percentile bound for a *relative* one (``1/subbins`` of the
value) and, in exchange, keeps memory logarithmic in the largest
latency.  These are the two properties a deeply overloaded serving run
leans on, so both get hypothesis coverage here; the linear kind's
absolute bound is covered in ``test_streaming.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve import LatencyHistogram

BIN_US = 10.0
SUBBINS = 32

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


def log_tolerance(value: float, subbins: int = SUBBINS, bin_us: float = BIN_US):
    """Bracketing-bucket width at ``value`` (the documented error bound).

    Below ``bin_us`` everything shares bucket 0, so the bound is the
    bucket's full width; above, every bucket is at most ``1/subbins`` of
    its lower bound, and the interpolated estimate sits within the wider
    bracketing bucket's width of the exact order statistic.
    """
    if value < bin_us:
        return bin_us
    return 2.0 * value / subbins + 1e-9


class TestLogPercentileBound:
    @settings(max_examples=60, deadline=None)
    @given(values=samples, p=st.sampled_from([50.0, 90.0, 95.0, 99.0]))
    # The low order statistic in bucket 0, the high one far above it.
    @example(values=[0.0, 15.0], p=50.0)
    def test_percentile_within_bracketing_bucket(self, values, p):
        histogram = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        for value in values:
            histogram.add(value)
        exact = float(np.percentile(values, p))
        estimate = histogram.percentile(p)
        # The estimate interpolates between the two order statistics that
        # bracket the rank, so either one's bucket can set the error.
        ordered = sorted(values)
        rank = int(p / 100.0 * (len(values) - 1))
        bracket = (ordered[rank], ordered[min(rank + 1, len(values) - 1)])
        bound = max(log_tolerance(v) for v in (*bracket, max(exact, estimate)))
        assert abs(estimate - exact) <= bound

    @settings(max_examples=40, deadline=None)
    @given(values=samples)
    def test_count_mean_max_are_exact(self, values):
        histogram = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        histogram.add_array(values)
        assert histogram.count == len(values)
        assert histogram.mean_us == pytest.approx(np.mean(values), rel=1e-12)
        assert histogram.max_us == max(values)

    @settings(max_examples=30, deadline=None)
    @given(values=samples)
    def test_weighted_and_array_adds_agree(self, values):
        one_by_one = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        weighted = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        for value in values:
            one_by_one.add(value)
            one_by_one.add(value)
            weighted.add_weighted(value, 2)
        assert one_by_one.percentile(95.0) == weighted.percentile(95.0)
        size = min(one_by_one._counts.size, weighted._counts.size)
        np.testing.assert_array_equal(
            one_by_one._counts[:size].nonzero()[0],
            weighted._counts[:size].nonzero()[0],
        )


class TestLogMemoryBound:
    def test_counts_stay_small_out_to_seconds_and_beyond(self):
        histogram = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        # An hour is 3.6e9 us; push three orders past that.  A linear
        # histogram would need 1e11 bins here; the log one needs
        # one bucket per subbin per octave.
        histogram.add_array([0.0, 1.0, 1e3, 1e6, 1e9, 1e12])
        octaves = math.ceil(math.log2(1e12 / BIN_US))
        assert histogram._counts.size < 5000
        assert histogram._counts.size <= 4 * (1 + octaves * SUBBINS)
        assert histogram.count == 6
        assert histogram.max_us == 1e12

    def test_monotone_bucket_index(self):
        histogram = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        values = np.geomspace(0.1, 1e10, 4000)
        indices = [histogram._index_of(float(v)) for v in values]
        assert indices == sorted(indices)


class TestMergeCompatibility:
    def test_merge_requires_identical_bucketing(self):
        log = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        with pytest.raises(ConfigError):
            log.merge(LatencyHistogram(bin_us=BIN_US, kind="linear"))
        with pytest.raises(ConfigError):
            log.merge(LatencyHistogram(bin_us=BIN_US, kind="log", subbins=16))
        with pytest.raises(ConfigError):
            log.merge(LatencyHistogram(bin_us=2 * BIN_US, kind="log", subbins=SUBBINS))

    def test_merge_matches_single_histogram(self):
        rng = np.random.default_rng(5)
        left_values = rng.exponential(500.0, 300)
        right_values = rng.exponential(50000.0, 300)
        left = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        right = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        combined = LatencyHistogram(bin_us=BIN_US, kind="log", subbins=SUBBINS)
        left.add_array(left_values)
        right.add_array(right_values)
        combined.add_array(np.concatenate([left_values, right_values]))
        left.merge(right)
        assert left.count == combined.count
        assert left.percentile(99.0) == combined.percentile(99.0)
        assert left.mean_us == pytest.approx(combined.mean_us, rel=1e-12)

    def test_rejects_bad_kind_and_subbins(self):
        with pytest.raises(ConfigError):
            LatencyHistogram(kind="exp")
        with pytest.raises(ConfigError):
            LatencyHistogram(kind="log", subbins=0)
