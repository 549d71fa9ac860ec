import math

import numpy as np
import pytest

from lqgdisk.critical import (
    boundary_ladder_totals,
    bulk_ladder_totals,
    median_ratios,
    moment_diagnostic,
    nominal_boundary_norming,
    nominal_bulk_norming,
    seneta_heyde_boundary,
    seneta_heyde_bulk,
)
from lqgdisk.errors import DomainError
from lqgdisk.gff import FieldSampler, RngStream, sample_boundary_trace, truncated_boundary_variance
from lqgdisk.gmc import graded_disk_grid, window_sector_grid


class TestNormalizations:
    def test_bulk_factor_arithmetic(self):
        assert nominal_bulk_norming(0.1) == pytest.approx(
            math.sqrt(math.log(10.0)) * 0.01, abs=1e-16
        )
        assert nominal_bulk_norming(0.1) == pytest.approx(0.0151743, abs=1e-7)

    def test_boundary_factor_arithmetic(self):
        assert nominal_boundary_norming(256) == pytest.approx(
            math.sqrt(math.log(256.0)) / 256.0, abs=1e-16
        )
        assert nominal_boundary_norming(256) == pytest.approx(0.0092, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            nominal_bulk_norming(1.5)


class TestCriticalMeasures:
    def test_bulk_push_factor(self):
        grid = graded_disk_grid(5, 1, 2.0)
        sampler = FieldSampler(grid.centers, grid.eps)
        field = sampler.realize(RngStream(61, 0))
        pushed = seneta_heyde_bulk(field, grid, push=True)
        plain = seneta_heyde_bulk(field, grid, push=False)
        ratio = pushed.masses / plain.masses
        assert np.allclose(ratio, np.sqrt(np.log(1.0 / grid.eps)), rtol=1e-12)
        assert pushed.metadata["critical"] is True
        assert np.all(np.isfinite(pushed.masses))

    def test_boundary_variance_matched_norming(self):
        tr = sample_boundary_trace(128, RngStream(61, 1))
        m = seneta_heyde_boundary(tr, n_arcs=256)
        var = truncated_boundary_variance(128)
        theta = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
        want = (
            math.sqrt(var / 2.0)
            * np.exp(tr.evaluate(theta) - var / 2.0)
            * (2.0 * math.pi / 256)
        )
        assert np.allclose(m.masses, want, rtol=1e-12)

    def test_all_replica_masses_finite(self):
        totals, _ = boundary_ladder_totals([64, 256], 500, RngStream(61, 2))
        assert np.all(np.isfinite(totals)) and np.all(totals > 0)


class TestLadders:
    def test_boundary_dichotomy_small(self):
        levels = [64, 128, 256, 512, 1024]
        pushed, plain = boundary_ladder_totals(levels, 800, RngStream(62, 0))
        med_plain = np.median(plain, axis=1)
        assert np.all(np.diff(med_plain) < 0)
        ratios = median_ratios(pushed)
        assert np.all((ratios > 0.75) & (ratios < 1.33))

    def test_bulk_window_dichotomy_small(self):
        # medians of the critical totals need plenty of replicas (the law is
        # heavy tailed); the coarse levels are cheap, so load them up
        levels = [4, 5, 6, 7]
        reps = [30000, 30000, 15000, 8000]
        pushed, plain = bulk_ladder_totals(levels, reps, RngStream(62, 1))
        med_plain = np.array([np.median(t) for t in plain])
        assert np.all(np.diff(med_plain) < 0)
        ratios = median_ratios(pushed)
        assert np.all((ratios > 0.75) & (ratios < 1.33))


class TestMomentDiagnostic:
    def test_q_to_zero_is_one(self):
        totals = np.abs(np.random.default_rng(1).normal(size=200)) + 0.1
        est, se = moment_diagnostic(totals, 1e-9)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_jackknife_matches_classic_se(self):
        totals = np.abs(np.random.default_rng(2).normal(size=400)) + 0.1
        est, se = moment_diagnostic(totals, 0.5)
        classic = np.std(totals**0.5, ddof=1) / math.sqrt(len(totals))
        assert se == pytest.approx(classic, rel=1e-6)

    def test_q_at_least_one_flagged(self):
        totals = np.ones(150)
        with pytest.warns(RuntimeWarning):
            est, _ = moment_diagnostic(totals, 1.0)
        assert est == 1.0

    def test_replica_floor(self):
        with pytest.raises(DomainError):
            moment_diagnostic(np.ones(50), 0.5)

    def test_accepts_measures(self):
        grid = window_sector_grid(5)
        sampler = FieldSampler(grid.centers, grid.eps)
        measures = [
            seneta_heyde_bulk(sampler.realize(RngStream(63, sid)), grid) for sid in range(100)
        ]
        est, se = moment_diagnostic(measures, 0.5)
        assert est > 0 and se > 0
