"""Tests for the device-utilization analysis (Figure 4 substrate).

``utilization_cdf`` is pure Python (a stable ``sorted``, ``accumulate`` and
``bisect_left``).  The differential test checks it against the earlier
numpy formulation, kept below as ``_numpy_cdf`` and friends; numpy is a
test-only dependency and is imported here as that reference oracle only.
"""

import numpy as np
import pytest

from repro.models import resnet50, vgg16
from repro.models.registry import available_models, build_model
from repro.profiler import (
    A100_40GB,
    V100_32GB,
    LayerProfiler,
    mean_utilization,
    utilization_cdf,
)

#: Minibatch sizes 1, 2, 4, ..., 256 (the range Figure 4 spans).
BATCHES = [2**k for k in range(9)]
THRESHOLDS = (0.0, 0.25, 0.5, 0.75, 1.01)
TOL = 1e-12


class TestUtilizationCDF:
    def setup_method(self):
        self.graph = resnet50()

    def test_cdf_is_monotone_and_bounded(self):
        cdf = utilization_cdf(self.graph, 16)
        assert all(b - a >= -1e-12 for a, b in zip(cdf.cumulative, cdf.cumulative[1:]))
        assert cdf.cumulative[-1] == pytest.approx(1.0)
        assert all(0.0 <= u <= 1.0 for u in cdf.utilization)
        assert all(b - a >= -1e-12 for a, b in zip(cdf.utilization, cdf.utilization[1:]))

    def test_mean_within_bounds(self):
        cdf = utilization_cdf(self.graph, 16)
        assert 0.0 < cdf.mean() <= 1.0

    def test_fraction_below_extremes(self):
        cdf = utilization_cdf(self.graph, 16)
        assert cdf.fraction_below(0.0) == 0.0
        assert cdf.fraction_below(1.01) == pytest.approx(1.0)

    def test_fraction_below_is_monotone(self):
        cdf = utilization_cdf(self.graph, 4)
        values = [cdf.fraction_below(x) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_utilization_improves_with_batch_size(self):
        """The core Figure 4 observation."""
        means = mean_utilization(self.graph, [1, 16, 256])
        assert means[1] < means[16] < means[256]
        assert means[1] < 0.2
        assert means[256] > 0.8

    def test_small_batch_spends_most_time_at_low_utilization(self):
        cdf = utilization_cdf(self.graph, 1)
        assert cdf.fraction_below(0.5) > 0.5

    def test_works_for_other_models(self):
        cdf = utilization_cdf(vgg16(), 8)
        assert 0.0 < cdf.mean() <= 1.0

    def test_reuses_provided_profiler(self):
        profiler = LayerProfiler()
        cdf = utilization_cdf(self.graph, 8, profiler=profiler)
        assert cdf.batch == 8

    def test_equal_inputs_give_equal_hashable_cdfs(self):
        # A frozen dataclass compares and hashes its fields, so they must be
        # values (tuples), not arrays.
        first = utilization_cdf(self.graph, 4)
        second = utilization_cdf(self.graph, 4)
        assert first == second
        assert hash(first) == hash(second)
        assert utilization_cdf(self.graph, 8) != first


# ---------------------------------------------------------------------------
# Differential test against the numpy formulation
# ---------------------------------------------------------------------------


def _numpy_cdf(samples):
    """The earlier ``utilization_cdf`` body: argsort, normalize, cumsum."""
    times = np.array([t for t, _ in samples], dtype=float)
    utils = np.array([u for _, u in samples], dtype=float)
    order = np.argsort(utils)
    utils = utils[order]
    weights = times[order] / times.sum()
    return utils, np.cumsum(weights)


def _numpy_fraction_below(utils, cumulative, threshold):
    if threshold <= 0:
        return 0.0
    idx = np.searchsorted(utils, threshold, side="left")
    if idx == 0:
        return 0.0
    return float(cumulative[idx - 1])


def _numpy_mean(utils, cumulative):
    weights = np.diff(np.concatenate([[0.0], cumulative]))
    return float(np.sum(utils * weights))


def _tie_group_ends(utils):
    """Indices of the last entry of each run of equal utilizations.

    ``np.argsort`` is not stable, so inside a run of ties the two CDFs may
    accumulate the same weights in another order; only the run's end holds
    the same set of weights on both sides.
    """
    n = len(utils)
    return [i for i in range(n) if i == n - 1 or utils[i + 1] != utils[i]]


@pytest.mark.parametrize("gpu", [A100_40GB, V100_32GB], ids=lambda g: g.name)
@pytest.mark.parametrize("model", available_models())
def test_cdf_matches_numpy_formulation(model, gpu):
    graph = build_model(model)
    profiler = LayerProfiler(gpu)
    for batch in BATCHES:
        cdf = utilization_cdf(graph, batch, gpu, profiler)
        samples = profiler.profile_model(graph, [batch]).utilization_samples(batch)
        utils, cumulative = _numpy_cdf(samples)
        where = (model, gpu.name, batch)

        assert cdf.batch == batch
        assert list(cdf.utilization) == utils.tolist(), where
        assert len(cdf.cumulative) == len(cumulative), where
        for i in _tie_group_ends(cdf.utilization):
            assert abs(cdf.cumulative[i] - cumulative[i]) <= TOL, (where, i)
        assert abs(cdf.cumulative[-1] - 1.0) <= TOL, where
        assert abs(cdf.mean() - _numpy_mean(utils, cumulative)) <= TOL, where
        # Each sample's own utilization is a tie edge: "below" excludes it.
        for threshold in THRESHOLDS + cdf.utilization:
            want = _numpy_fraction_below(utils, cumulative, threshold)
            assert abs(cdf.fraction_below(threshold) - want) <= TOL, (where, threshold)
