"""Tests for the query working-set-size distributions (Fig. 5 properties)."""

from unittest import mock

import numpy as np
import pytest

from repro.queries.size_dist import (
    MAX_QUERY_SIZE,
    FixedQuerySizes,
    LognormalQuerySizes,
    NormalQuerySizes,
    ProductionQuerySizes,
    get_size_distribution,
    work_share_above_percentile,
)


class TestProductionQuerySizes:
    def test_samples_within_bounds(self):
        sizes = ProductionQuerySizes().sample(20000, rng=0)
        assert sizes.min() >= 1
        assert sizes.max() <= MAX_QUERY_SIZE

    def test_samples_are_integers(self):
        sizes = ProductionQuerySizes().sample(100, rng=0)
        assert sizes.dtype.kind == "i"

    def test_heavier_tail_than_lognormal(self):
        production = ProductionQuerySizes().sample(30000, rng=1)
        lognormal = LognormalQuerySizes().sample(30000, rng=1)
        production_ratio = np.percentile(production, 99) / np.percentile(production, 50)
        lognormal_ratio = np.percentile(lognormal, 99) / np.percentile(lognormal, 50)
        assert production_ratio > lognormal_ratio

    def test_top_quartile_carries_about_half_the_work(self):
        share = work_share_above_percentile(ProductionQuerySizes(), 75.0, count=30000, rng=2)
        assert 0.4 <= share <= 0.75

    def test_reproducible_with_seed(self):
        a = ProductionQuerySizes().sample(100, rng=5)
        b = ProductionQuerySizes().sample(100, rng=5)
        assert np.array_equal(a, b)

    def test_percentile_and_mean_helpers(self):
        dist = ProductionQuerySizes()
        assert dist.percentile(75) > dist.percentile(50)
        assert dist.mean() > dist.percentile(50)

    def test_default_mean_is_memoised_per_instance(self):
        dist = ProductionQuerySizes()
        params = dict(vars(dist))
        with mock.patch.object(ProductionQuerySizes, "sample", wraps=dist.sample) as sample:
            first = dist.mean()
            assert dist.mean() == first
            assert sample.call_count == 1
            # Other arguments draw afresh, and equal the unmemoised estimate.
            assert dist.mean(count=20000, rng=1234) == first
            dist.mean(count=500)
            assert sample.call_count == 3
        assert ProductionQuerySizes().mean() == first
        # The memo stays out of the instance: capacity-search signatures
        # read vars(distribution).
        assert vars(dist) == params

    def test_invalid_tail_probability(self):
        with pytest.raises(ValueError):
            ProductionQuerySizes(tail_probability=0.0)
        with pytest.raises(ValueError):
            ProductionQuerySizes(tail_probability=1.0)


class TestOtherDistributions:
    def test_lognormal_median(self):
        sizes = LognormalQuerySizes(median=100.0).sample(30000, rng=0)
        assert np.percentile(sizes, 50) == pytest.approx(100.0, rel=0.1)

    def test_normal_mean(self):
        sizes = NormalQuerySizes(mean=150.0, std=20.0).sample(30000, rng=0)
        assert sizes.mean() == pytest.approx(150.0, rel=0.05)

    def test_normal_clipped_at_one(self):
        sizes = NormalQuerySizes(mean=5.0, std=50.0).sample(5000, rng=0)
        assert sizes.min() >= 1

    def test_fixed_distribution(self):
        sizes = FixedQuerySizes(64).sample(100)
        assert np.all(sizes == 64)

    def test_fixed_larger_than_default_max_allowed(self):
        dist = FixedQuerySizes(5000)
        assert dist.sample(3)[0] == 5000

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ProductionQuerySizes().sample(0)


class TestRegistry:
    def test_lookup_each_kind(self):
        assert isinstance(get_size_distribution("production"), ProductionQuerySizes)
        assert isinstance(get_size_distribution("lognormal"), LognormalQuerySizes)
        assert isinstance(get_size_distribution("normal"), NormalQuerySizes)
        assert isinstance(get_size_distribution("fixed", size=32), FixedQuerySizes)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_size_distribution("zipf")


class TestWorkShare:
    def test_fixed_distribution_share_is_zero(self):
        # With identical sizes nothing is strictly above the p75 value.
        assert work_share_above_percentile(FixedQuerySizes(64), 75.0, count=1000) == 0.0

    def test_share_decreases_with_percentile(self):
        dist = ProductionQuerySizes()
        share_50 = work_share_above_percentile(dist, 50.0, count=20000, rng=3)
        share_90 = work_share_above_percentile(dist, 90.0, count=20000, rng=3)
        assert share_50 > share_90


class TestDeterministicPercentile:
    """percentile() is closed-form over the integer support — no sampling.

    The pins are cross-validated against 400k-draw Monte-Carlo estimates:
    the analytic CDF answers agree with the empirical quantiles of
    ``sample`` to within one integer step.
    """

    def test_production_percentiles_pinned(self):
        dist = ProductionQuerySizes()
        assert [dist.percentile(p) for p in (25, 50, 75, 95, 99)] == [
            69.0, 131.0, 220.0, 1000.0, 1000.0,
        ]

    def test_lognormal_percentiles_pinned(self):
        dist = LognormalQuerySizes()
        assert [dist.percentile(p) for p in (25, 50, 75, 99)] == [
            58.0, 100.0, 172.0, 643.0,
        ]

    def test_normal_percentiles_pinned(self):
        dist = NormalQuerySizes()
        assert [dist.percentile(p) for p in (25, 50, 75, 99)] == [
            116.0, 150.0, 184.0, 266.0,
        ]

    def test_fixed_percentile_is_the_size(self):
        dist = FixedQuerySizes(64)
        assert dist.percentile(1) == dist.percentile(99) == 64.0

    def test_percentile_is_deterministic_and_monotone(self):
        dist = ProductionQuerySizes()
        values = [dist.percentile(p) for p in range(1, 100, 7)]
        assert values == [dist.percentile(p) for p in range(1, 100, 7)]
        assert values == sorted(values)

    def test_matches_empirical_quantiles(self):
        # The closed-form CDF must agree with what sample() actually
        # produces: the analytic percentile sits within one integer step
        # of the empirical quantile on a large draw.
        for dist in (ProductionQuerySizes(), LognormalQuerySizes(), NormalQuerySizes()):
            samples = dist.sample(200_000, rng=13)
            for pct in (25, 50, 75):
                empirical = float(np.percentile(samples, pct))
                assert abs(dist.percentile(pct) - empirical) <= 2.0, (dist, pct)

    def test_percentile_capped_at_max_size(self):
        dist = ProductionQuerySizes()
        assert dist.percentile(99.999) == float(MAX_QUERY_SIZE)
