"""Query working-set-size distributions.

The number of candidate items a recommendation query carries depends on the
user and their interaction history, and the paper's key observation (Fig. 5)
is that production query sizes have a *heavier tail* than the lognormal
distribution usually assumed for web-service working sets: a quarter of the
queries (those above the 75th percentile) account for roughly half of the
total work.  DeepRecSched's optimal operating points shift materially when
tuned against the production distribution instead of a lognormal one
(Fig. 12a).

This module provides:

* :class:`ProductionQuerySizes` — a lognormal body mixed with a Pareto tail,
  clipped to the maximum production query size (~1000 candidates), matching
  the qualitative shape of Fig. 5;
* :class:`LognormalQuerySizes`, :class:`NormalQuerySizes`,
  :class:`FixedQuerySizes` — the comparison distributions.
"""

from __future__ import annotations

import math
import weakref
from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive

#: Largest query observed in the production trace the paper characterises.
MAX_QUERY_SIZE = 1000

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Draws behind :meth:`QuerySizeDistribution.mean`'s default estimate.
_MEAN_SAMPLES = 20000
#: Default-argument ``mean()`` per distribution instance.  Kept outside the
#: instance so ``vars(distribution)``, which capacity-search signatures read,
#: stays exactly the distribution's parameters.
_DEFAULT_MEANS: "weakref.WeakKeyDictionary[QuerySizeDistribution, float]" = (
    weakref.WeakKeyDictionary()
)


def _standard_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF over an array via ``math.erf`` (scipy-free)."""
    values = np.asarray(z, dtype=np.float64)
    out = np.fromiter(
        (0.5 * (1.0 + math.erf(v * _INV_SQRT2)) for v in values.ravel()),
        dtype=np.float64,
        count=values.size,
    )
    return out.reshape(values.shape)


class QuerySizeDistribution(ABC):
    """Distribution over the number of candidate items per query."""

    def __init__(self, max_size: int = MAX_QUERY_SIZE) -> None:
        check_positive("max_size", max_size)
        self._max_size = int(max_size)

    @property
    def max_size(self) -> int:
        """Largest query size this distribution can produce."""
        return self._max_size

    @abstractmethod
    def sample(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Sample ``count`` query sizes as an int array in ``[1, max_size]``."""

    def _clip(self, raw: np.ndarray) -> np.ndarray:
        sizes = np.clip(np.rint(raw), 1, self._max_size)
        return sizes.astype(np.int64)

    def _raw_cdf(self, x: np.ndarray) -> np.ndarray:
        """CDF of the *unclipped* raw draw evaluated at ``x`` (override me).

        Subclasses with a continuous raw law implement this so
        :meth:`percentile` can be computed exactly instead of by sampling.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a raw CDF; override _raw_cdf "
            "to enable the deterministic percentile()"
        )

    def percentile(self, pct: float) -> float:
        """Deterministic ``pct``-th percentile of the integer size distribution.

        Sizes are ``clip(rint(raw), 1, max_size)`` of a continuous raw draw,
        so ``P(size <= s) = F_raw(s + 0.5)`` for integers ``s < max_size``
        (and 1 at ``max_size``); the percentile is the smallest integer
        ``s`` with ``P(size <= s) >= pct / 100``, found by one vectorised
        CDF evaluation over the integer support.  This replaces the former
        20 000-draw Monte-Carlo estimate — exact, sampling-noise-free, and
        regression-pinned in ``tests/test_queries_size_dist.py``.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"pct must be in [0, 100], got {pct}")
        support = np.arange(1, self._max_size + 1, dtype=np.float64)
        cdf = self._raw_cdf(support + 0.5)
        cdf[-1] = 1.0
        index = int(np.searchsorted(cdf, pct / 100.0, side="left"))
        return float(support[min(index, self._max_size - 1)])

    def mean(self, count: int = _MEAN_SAMPLES, rng: SeedLike = None) -> float:
        """Monte-Carlo estimate of the mean query size.

        The default estimate (20 000 draws from seed 1234) is a fixed number
        for an instance, so it is computed once per instance and memoised;
        calls with another ``count`` or an ``rng`` draw afresh.
        """
        if count != _MEAN_SAMPLES or rng is not None:
            return self._sample_mean(count, rng)
        cached = _DEFAULT_MEANS.get(self)
        if cached is None:
            cached = self._sample_mean(count, None)
            _DEFAULT_MEANS[self] = cached
        return cached

    def _sample_mean(self, count: int, rng: SeedLike) -> float:
        samples = self.sample(count, rng=derive_rng(rng if rng is not None else 1234))
        return float(np.mean(samples))


class ProductionQuerySizes(QuerySizeDistribution):
    """Heavy-tailed production query-size distribution (Fig. 5).

    With probability ``1 - tail_probability`` the size is drawn from a
    lognormal body; otherwise from a Pareto tail that extends to
    ``max_size``.  Default parameters give a median near 100 candidates, a
    p75 near 220, and the "top quartile of queries ≈ half the work" property
    reported in Fig. 6.
    """

    def __init__(
        self,
        body_median: float = 95.0,
        body_sigma: float = 0.75,
        tail_probability: float = 0.25,
        tail_start: float = 220.0,
        tail_alpha: float = 1.05,
        max_size: int = MAX_QUERY_SIZE,
    ) -> None:
        super().__init__(max_size)
        check_positive("body_median", body_median)
        check_positive("body_sigma", body_sigma)
        check_positive("tail_start", tail_start)
        check_positive("tail_alpha", tail_alpha)
        if not 0.0 < tail_probability < 1.0:
            raise ValueError(
                f"tail_probability must be in (0, 1), got {tail_probability}"
            )
        self._body_median = body_median
        self._body_sigma = body_sigma
        self._tail_probability = tail_probability
        self._tail_start = tail_start
        self._tail_alpha = tail_alpha

    @property
    def tail_probability(self) -> float:
        """Fraction of queries drawn from the Pareto tail."""
        return self._tail_probability

    def sample(self, count: int, rng: SeedLike = None) -> np.ndarray:
        check_positive("count", count)
        generator = derive_rng(rng)
        body = generator.lognormal(
            mean=np.log(self._body_median), sigma=self._body_sigma, size=count
        )
        body = np.minimum(body, self._tail_start)
        tail = self._tail_start * (1.0 + generator.pareto(self._tail_alpha, size=count))
        use_tail = generator.random(count) < self._tail_probability
        return self._clip(np.where(use_tail, tail, body))

    def _raw_cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # Body: lognormal clipped from above at tail_start (mass at the clip).
        body = _standard_normal_cdf(
            (np.log(x) - math.log(self._body_median)) / self._body_sigma
        )
        body = np.where(x >= self._tail_start, 1.0, body)
        # Tail: tail_start * (1 + Pareto(alpha)), support strictly above tail_start.
        with np.errstate(divide="ignore"):
            tail = np.where(
                x > self._tail_start,
                1.0 - (self._tail_start / np.maximum(x, self._tail_start)) ** self._tail_alpha,
                0.0,
            )
        return (1.0 - self._tail_probability) * body + self._tail_probability * tail


class LognormalQuerySizes(QuerySizeDistribution):
    """Canonical lognormal working-set-size assumption from prior work."""

    def __init__(
        self,
        median: float = 100.0,
        sigma: float = 0.8,
        max_size: int = MAX_QUERY_SIZE,
    ) -> None:
        super().__init__(max_size)
        check_positive("median", median)
        check_positive("sigma", sigma)
        self._median = median
        self._sigma = sigma

    def sample(self, count: int, rng: SeedLike = None) -> np.ndarray:
        check_positive("count", count)
        generator = derive_rng(rng)
        raw = generator.lognormal(mean=np.log(self._median), sigma=self._sigma, size=count)
        return self._clip(raw)

    def _raw_cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _standard_normal_cdf((np.log(x) - math.log(self._median)) / self._sigma)


class NormalQuerySizes(QuerySizeDistribution):
    """Normal working-set sizes (another common prior-work assumption)."""

    def __init__(
        self,
        mean: float = 150.0,
        std: float = 50.0,
        max_size: int = MAX_QUERY_SIZE,
    ) -> None:
        super().__init__(max_size)
        check_positive("mean", mean)
        check_positive("std", std)
        self._mean = mean
        self._std = std

    def sample(self, count: int, rng: SeedLike = None) -> np.ndarray:
        check_positive("count", count)
        generator = derive_rng(rng)
        raw = generator.normal(self._mean, self._std, size=count)
        return self._clip(raw)

    def _raw_cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _standard_normal_cdf((x - self._mean) / self._std)


class FixedQuerySizes(QuerySizeDistribution):
    """Every query carries exactly ``size`` candidates."""

    def __init__(self, size: int, max_size: int = MAX_QUERY_SIZE) -> None:
        super().__init__(max(max_size, size))
        check_positive("size", size)
        self._size = int(size)

    def sample(self, count: int, rng: SeedLike = None) -> np.ndarray:
        check_positive("count", count)
        return np.full(count, self._size, dtype=np.int64)

    def _raw_cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= self._size, 1.0, 0.0)


_SIZE_REGISTRY = {
    "production": ProductionQuerySizes,
    "lognormal": LognormalQuerySizes,
    "normal": NormalQuerySizes,
}


def get_size_distribution(name: str, **kwargs) -> QuerySizeDistribution:
    """Build a named size distribution (``"production"``, ``"lognormal"``, ``"normal"``)."""
    key = name.lower()
    if key == "fixed":
        return FixedQuerySizes(**kwargs)
    if key not in _SIZE_REGISTRY:
        raise KeyError(
            f"unknown size distribution {name!r}; available: "
            f"{sorted(_SIZE_REGISTRY) + ['fixed']}"
        )
    return _SIZE_REGISTRY[key](**kwargs)


def work_share_above_percentile(
    distribution: QuerySizeDistribution,
    pct: float = 75.0,
    count: int = 20000,
    rng: SeedLike = None,
) -> float:
    """Fraction of total items carried by queries above the ``pct``-th percentile.

    The Fig. 6 observation is that this is ~0.5 at the 75th percentile for the
    production distribution.
    """
    samples = distribution.sample(count, rng=derive_rng(rng if rng is not None else 7))
    threshold = np.percentile(samples, pct)
    total = samples.sum()
    if total == 0:
        return 0.0
    return float(samples[samples > threshold].sum() / total)
