"""Sliding-window accumulators: the O(slices) base of the health plane."""

from __future__ import annotations

import pytest

from repro.telemetry.health.windows import WindowedBuckets, WindowedCounts


class TestWindowedCounts:
    def test_counts_inside_window(self):
        window = WindowedCounts(duration=12.0, slices=12)
        window.add(0.0, good=3.0)
        window.add(5.0, good=2.0, bad=1.0)
        assert window.totals(5.0) == (5.0, 1.0)
        assert window.samples(5.0) == 6.0
        assert window.bad_fraction(5.0) == pytest.approx(1.0 / 6.0)

    def test_old_slices_expire(self):
        window = WindowedCounts(duration=10.0, slices=10)
        window.add(0.5, bad=4.0)
        window.add(5.0, good=1.0)
        # At t=25 every slice from the first two adds has rolled off.
        assert window.totals(25.0) == (0.0, 0.0)
        assert window.bad_fraction(25.0) == 0.0

    def test_partial_expiry_slides(self):
        window = WindowedCounts(duration=10.0, slices=10)
        window.add(0.5, bad=1.0)
        window.add(9.5, good=1.0)
        # t=10.5: the slot holding t=0.5 expired, the t=9.5 one survives.
        assert window.totals(10.5) == (1.0, 0.0)

    def test_long_gap_clears_everything_in_one_pass(self):
        window = WindowedCounts(duration=10.0, slices=10)
        window.add(0.0, good=5.0, bad=5.0)
        window.add(1e6, good=1.0)
        assert window.totals(1e6) == (1.0, 0.0)

    def test_backwards_time_folds_into_newest_slot(self):
        window = WindowedCounts(duration=10.0, slices=10)
        window.add(8.0, good=1.0)
        window.add(2.0, bad=1.0)  # a replayed sample, not a corruption
        assert window.totals(8.0) == (1.0, 1.0)

    def test_empty_window_is_zero_fraction(self):
        window = WindowedCounts(duration=5.0)
        assert window.bad_fraction(99.0) == 0.0
        assert window.samples(99.0) == 0.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            WindowedCounts(duration=0.0)
        with pytest.raises(ValueError):
            WindowedCounts(duration=1.0, slices=0)


class TestWindowedBuckets:
    BOUNDS = (0.01, 0.1, 1.0)

    def test_quantile_matches_bucket_resolution(self):
        window = WindowedBuckets(self.BOUNDS, duration=10.0)
        for _ in range(90):
            window.observe(1.0, 0.005)  # lands in the 0.01 bucket
        for _ in range(10):
            window.observe(1.0, 0.5)  # lands in the 1.0 bucket
        assert window.count(1.0) == 100
        assert window.quantile(1.0, 0.5) == 0.01
        assert window.quantile(1.0, 0.95) == 1.0

    def test_observations_expire_with_their_slice(self):
        window = WindowedBuckets(self.BOUNDS, duration=10.0, slices=10)
        window.observe(0.5, 5.0)
        assert window.count(5.0) == 1
        assert window.count(50.0) == 0
        assert window.quantile(50.0, 0.99) == 0.0

    def test_quantile_validates_q(self):
        window = WindowedBuckets(self.BOUNDS, duration=10.0)
        with pytest.raises(ValueError):
            window.quantile(0.0, 1.5)

    def test_needs_bounds(self):
        with pytest.raises(ValueError):
            WindowedBuckets((), duration=10.0)
