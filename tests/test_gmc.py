import math

import numpy as np
import pytest

from lqgdisk import io
from lqgdisk.errors import DomainError, GridError
from lqgdisk.geometry import MobiusMap
from lqgdisk.gff import FieldSampler, RngStream, sample_boundary_trace
from lqgdisk.gmc import (
    AtomicMeasure,
    boundary_measure,
    bulk_measure,
    graded_disk_grid,
    jackknife_var,
    window_sector_grid,
)


@pytest.fixture(scope="module")
def grid6():
    return graded_disk_grid(6, rings_per_band=2, aspect=2.0)


@pytest.fixture(scope="module")
def sampler6(grid6):
    return FieldSampler(grid6.centers, grid6.eps)


class TestGradedGrid:
    def test_partitions_the_disk(self, grid6):
        assert np.sum(grid6.areas) == pytest.approx(math.pi, abs=1e-12)
        assert np.all(grid6.r_lo < grid6.r_hi)
        assert grid6.r_hi.max() == 1.0

    def test_density_weights_match_analytic_total(self, grid6):
        for g in (0.5, 1.0, 1.3):
            s = g * g / 2.0
            assert np.sum(grid6.density_weights(s)) == pytest.approx(
                math.pi / (1 - s), rel=1e-12
            )
        # s = 1 branch (gamma = sqrt 2): cells partition, total diverges only
        # at the boundary-touching cells where the truncated form applies
        w = grid6.density_weights(1.0)
        assert np.all(np.isfinite(w)) and np.all(w > 0)

    def test_separation_and_clearance(self, grid6):
        pts, eps = grid6.centers, grid6.eps
        d = np.abs(pts[:, None] - pts[None, :])
        s = eps[:, None] + eps[None, :]
        off = ~np.eye(len(pts), dtype=bool)
        assert np.min(d[off] - s[off] * (1 - 1e-12)) >= 0.0
        assert np.all(eps < 1.0 - np.abs(pts))

    def test_refinement_splits_last_band_only(self):
        g7 = graded_disk_grid(7, 2, 2.0)
        g8 = graded_disk_grid(8, 2, 2.0)
        shared7 = g7.centers[g7.band < 6]
        shared8 = g8.centers[g8.band < 6]
        assert np.array_equal(shared7, shared8)

    def test_window_grid_nesting(self):
        g5 = window_sector_grid(5)
        g6 = window_sector_grid(6)
        assert 4 * g5.size == g6.size
        assert np.all(np.abs(g5.centers) >= 0.3) and np.all(np.abs(g5.centers) <= 0.8)


class TestBulkMeasure:
    def test_small_gamma_recovers_area(self, grid6, sampler6):
        field = sampler6.realize(RngStream(31, 0))
        m = bulk_measure(field, 1e-6, grid6)
        assert m.total == pytest.approx(math.pi, rel=1e-4)

    def test_gamma_range(self, grid6, sampler6):
        field = sampler6.realize(RngStream(31, 1))
        for bad in (0.0, 2.0, 2.3, -1.0):
            with pytest.raises(DomainError):
                bulk_measure(field, bad, grid6)

    def test_mean_total_mass(self, grid6, sampler6):
        # E[total] = pi / (1 - gamma^2/2), Monte Carlo within 3 SE
        n_rep = 600
        vals = sampler6.draw_batch(n_rep, RngStream(31, 2))
        variances = np.diag(sampler6.covariance)
        for g in (0.5, 1.0):
            w = grid6.density_weights(g * g / 2.0)
            totals = (np.exp(g * vals - 0.5 * g * g * variances[:, None]) * w[:, None]).sum(axis=0)
            exact = math.pi / (1 - g * g / 2.0)
            se = totals.std(ddof=1) / math.sqrt(n_rep)
            assert abs(totals.mean() - exact) < 3 * se

    def test_normalization_identity(self, grid6, sampler6):
        # mass = eps^{gamma^2/2} e^{gamma X} times the flat-density cell weight
        field = sampler6.realize(RngStream(31, 3))
        g = 1.2
        m = bulk_measure(field, g, grid6)
        s = g * g / 2.0
        r = np.abs(field.points)
        alt = (
            field.eps**s
            * np.exp(g * field.values)
            * (1 - r**2) ** s
            * grid6.density_weights(s)
        )
        assert np.allclose(m.masses, alt, rtol=1e-12)

    def test_large_gamma_every_replica_finite(self, grid6, sampler6):
        vals = sampler6.draw_batch(200, RngStream(31, 4))
        variances = np.diag(sampler6.covariance)
        w = grid6.density_weights(1.8**2 / 2.0)
        totals = (np.exp(1.8 * vals - 0.5 * 1.8**2 * variances[:, None]) * w[:, None]).sum(axis=0)
        assert np.all(np.isfinite(totals)) and np.all(totals > 0)

    def test_masses_positive(self, grid6, sampler6):
        field = sampler6.realize(RngStream(31, 5))
        m = bulk_measure(field, 1.5, grid6)
        assert np.all(m.masses > 0)


class TestBoundaryMeasure:
    def test_small_gamma_recovers_length(self):
        tr = sample_boundary_trace(256, RngStream(41, 0))
        m = boundary_measure(tr, 1e-6, 256)
        assert m.total == pytest.approx(2 * math.pi, rel=1e-4)

    def test_mean_total_mass(self):
        from tests_support import batched_boundary_totals

        for g in (0.5, 1.0, 1.5):
            totals = batched_boundary_totals(g, 512, 128, 4000, RngStream(41, 1))
            exact = 2 * math.pi * math.exp(-(g**2) / 8.0)
            se = totals.std(ddof=1) / math.sqrt(len(totals))
            assert abs(totals.mean() - exact) < 3 * se

    def test_q_moment_stable_in_modes(self):
        from tests_support import batched_boundary_totals

        g, q = 1.5, 0.5
        m1 = np.mean(batched_boundary_totals(g, 256, 128, 3000, RngStream(41, 2)) ** q)
        m2 = np.mean(batched_boundary_totals(g, 1024, 128, 3000, RngStream(41, 3)) ** q)
        assert abs(m2 / m1 - 1.0) < 0.10

    def test_arc_count_floor(self):
        tr = sample_boundary_trace(128, RngStream(41, 4))
        with pytest.raises(GridError):
            boundary_measure(tr, 1.0, 32)


class TestMeasureOps:
    def test_integrate_trivials(self, grid6, sampler6):
        field = sampler6.realize(RngStream(51, 0))
        m = bulk_measure(field, 1.0, grid6)
        assert m.integrate(lambda z: np.ones_like(z, dtype=float)) == pytest.approx(m.total)
        assert m.integrate(lambda z: np.zeros_like(z, dtype=float)) == 0.0

    def test_half_disk_lebesgue_limit(self, grid6, sampler6):
        # atoms assign whole cells by center, so the cut line contributes an
        # O(cell size) wobble on top of the Lebesgue limit
        field = sampler6.realize(RngStream(51, 1))
        m = bulk_measure(field, 1e-6, grid6)
        half = m.integrate(lambda z: (np.real(z) > 0).astype(float))
        assert half == pytest.approx(math.pi / 2, rel=2e-2)

    def test_push_forward_identity(self, grid6, sampler6):
        field = sampler6.realize(RngStream(51, 2))
        m = bulk_measure(field, 1.0, grid6)
        m2 = m.push_forward(MobiusMap())
        assert np.allclose(m2.points, m.points, atol=1e-15)
        assert np.array_equal(m2.masses, m.masses)

    def test_push_forward_rotation_half_disk(self, grid6, sampler6):
        field = sampler6.realize(RngStream(51, 3))
        m = bulk_measure(field, 1.0, grid6)
        rot = MobiusMap(a=0.0, alpha=math.pi / 2)
        m2 = m.push_forward(rot)
        upper = m2.integrate(lambda z: (np.imag(z) > 0).astype(float))
        right = m.integrate(lambda z: (np.real(z) > 0).astype(float))
        assert upper == pytest.approx(right, rel=1e-12)
        assert m2.total == pytest.approx(m.total, rel=1e-14)

    def test_push_forward_involution(self, grid6, sampler6):
        field = sampler6.realize(RngStream(51, 4))
        m = bulk_measure(field, 1.0, grid6)
        psi = MobiusMap(a=0.3 - 0.2j, alpha=1.1)
        back = m.push_forward(psi).push_forward(psi.inverse())
        assert np.max(np.abs(back.points - m.points)) < 1e-12

    def test_boundary_push_forward_stays_on_circle(self):
        tr = sample_boundary_trace(128, RngStream(51, 5))
        m = boundary_measure(tr, 1.0, 128)
        m2 = m.push_forward(MobiusMap(a=0.4, alpha=0.3))
        assert np.max(np.abs(np.abs(m2.points) - 1.0)) < 1e-14

    def test_measure_roundtrip(self, tmp_path):
        tr = sample_boundary_trace(128, RngStream(51, 6))
        m = boundary_measure(tr, 1.2, 64 + 64)
        base = str(tmp_path / "measure")
        io.save_measure(m, base, seed=51)
        m2 = io.load_measure(base)
        assert m2.kind == "boundary"
        assert np.array_equal(m2.masses, m.masses)

    def test_invalid_measure(self):
        with pytest.raises(DomainError):
            AtomicMeasure("bulk", np.array([0.1 + 0j]), np.array([-1.0]))
        with pytest.raises(DomainError):
            AtomicMeasure("weird", np.array([0.1 + 0j]), np.array([1.0]))


class TestReplicaStatistics:
    def test_jackknife_of_mean_is_classic_variance(self):
        # leave-one-out means give exactly var(x, ddof=1) / n
        x = np.random.default_rng(8).normal(size=300)
        loo = (x.sum() - x) / (len(x) - 1)
        assert jackknife_var(loo) == pytest.approx(np.var(x, ddof=1) / len(x), rel=1e-12)
