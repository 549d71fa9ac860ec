import math

import numpy as np
import pytest
import scipy.spatial

from lqgdisk.errors import DomainError
from lqgdisk.gff import ROTATION_ORDER, FieldSampler, RngStream
from lqgdisk.gmc import (
    AtomicMeasure,
    bulk_masses,
    graded_disk_grid,
    jackknife_var,
    window_sector_grid,
)
from lqgdisk.liouville import ChaosBasis
from tests_support import (
    batched_boundary_totals,
    batched_bulk_masses,
    batched_bulk_totals,
)


@pytest.fixture(scope="module")
def grid6():
    return graded_disk_grid(6, rings_per_band=2, aspect=2.0)


@pytest.fixture(scope="module")
def sampler6(grid6):
    return FieldSampler(grid6.centers, grid6.eps)


class TestGradedGrid:
    def test_partitions_the_disk(self, grid6):
        # at s = 0 the cell weights are the cell areas
        assert np.sum(grid6.density_weights(0.0)) == pytest.approx(math.pi, abs=1e-12)
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
        shared7 = g7.centers[g7.r_lo < 1 - 2**-6]
        shared8 = g8.centers[g8.r_lo < 1 - 2**-6]
        assert np.array_equal(shared7, shared8)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_rotation_invariance_separation_and_clearance(self, depth):
        grid = graded_disk_grid(depth, 2, 2.0)
        turn = np.exp(2j * np.pi / ROTATION_ORDER)
        starts = np.flatnonzero(np.diff(grid.r_lo, prepend=-1.0))
        for lo, hi in zip(starts, list(starts[1:]) + [grid.size]):
            ring, n = grid.centers[lo:hi], hi - lo
            assert n % ROTATION_ORDER == 0
            # rotation by 2 pi / ROTATION_ORDER moves cell k of a ring to cell k + n / ROTATION_ORDER
            assert np.max(np.abs(ring * turn - np.roll(ring, -n // ROTATION_ORDER))) < 1e-14
            assert np.all(grid.eps[lo:hi] == grid.eps[lo])
        pts, eps = grid.centers, grid.eps
        pairs = scipy.spatial.cKDTree(np.c_[pts.real, pts.imag]).query_pairs(
            2.0 * eps.max(), output_type="ndarray"
        )
        i, j = pairs.T
        assert np.all(np.abs(pts[i] - pts[j]) >= (eps[i] + eps[j]) * (1.0 - 1e-12))
        assert np.all(eps < 1.0 - np.abs(pts))

    def test_widest_aspect_keeps_one_orbit_per_ring(self):
        # aspect * ring width overflows to inf: one orbit of cells per ring, not none
        assert graded_disk_grid(3, 1, 1e308).size == 3 * ROTATION_ORDER

    def test_window_grid_nesting(self):
        g5 = window_sector_grid(5)
        g6 = window_sector_grid(6)
        assert 4 * g5.size == g6.size
        assert np.all(np.abs(g5.centers) >= 0.3) and np.all(np.abs(g5.centers) <= 0.8)

    @pytest.mark.parametrize("depth", [4, 5, 6, 7, 8, 9])
    def test_window_grid_angle_count_keeps_the_floor_rule(self, depth):
        # the grid as it was built with floor(0.84 * 0.3 / h) angles, which
        # equals 2^(depth - 3) up to depth 9 (and gives 129, not 128, at 10)
        eps = 2.0 ** (-depth)
        h = 2.0 * eps
        n_r = int(round(0.5 / h))
        n_t = int(np.floor(0.84 * 0.3 / h))
        radii = 0.3 + (np.arange(n_r) + 0.5) * h
        theta = (np.arange(n_t) + 0.5) * (0.84 / n_t)
        centers = (radii[:, None] * np.exp(1j * theta[None, :])).ravel()
        want = {
            "centers": centers,
            "eps": np.full(centers.shape, eps * (1.0 - 1e-9)),
            "r_lo": np.repeat(radii - eps, n_t),
            "r_hi": np.repeat(radii + eps, n_t),
            "dtheta": np.full(centers.shape, 0.84 / n_t),
            "slot": np.arange(centers.size),
        }
        grid = window_sector_grid(depth)
        for name, value in want.items():
            assert np.array_equal(getattr(grid, name), value), name
        assert grid.rings_per_band == n_r

    def test_window_grid_depth_ten_subdivides_depth_nine(self):
        g9, g10 = window_sector_grid(9), window_sector_grid(10)
        assert g10.size == 4 * g9.size == 32768
        assert g10.dtheta[0] == g9.dtheta[0] / 2.0


def single_draw_masses(grid, sampler, gamma, rng):
    """Cell masses of one bulk chaos replica, with the draw's field values."""
    x = sampler.draw(rng)
    w = grid.density_weights(0.5 * gamma**2)
    return bulk_masses(x, np.diag(sampler.covariance), w, gamma), x


class TestBulkMeasure:
    def test_small_gamma_recovers_area(self, grid6, sampler6):
        masses, _ = single_draw_masses(grid6, sampler6, 1e-6, RngStream(31, 0))
        assert masses.sum() == pytest.approx(math.pi, rel=1e-4)

    def test_gamma_range(self):
        for bad in (0.0, 2.0, 2.3, -1.0):
            with pytest.raises(DomainError):
                ChaosBasis(bad, 2, RngStream(31, 1), depth=4)

    def test_mean_total_mass(self, grid6, sampler6):
        # E[total] = pi / (1 - gamma^2/2), Monte Carlo within 3 SE
        n_rep = 600
        for g in (0.5, 1.0):
            totals = batched_bulk_totals(g, grid6, sampler6, n_rep, RngStream(31, 2))
            exact = math.pi / (1 - g * g / 2.0)
            se = totals.std(ddof=1) / math.sqrt(n_rep)
            assert abs(totals.mean() - exact) < 3 * se

    def test_normalization_identity(self, grid6, sampler6):
        # mass = eps^{gamma^2/2} e^{gamma X} times the flat-density cell weight
        g = 1.2
        masses, x = single_draw_masses(grid6, sampler6, g, RngStream(31, 3))
        s = g * g / 2.0
        r = np.abs(grid6.centers)
        alt = grid6.eps**s * np.exp(g * x) * (1 - r**2) ** s * grid6.density_weights(s)
        assert np.allclose(masses, alt, rtol=1e-12)

    def test_large_gamma_every_replica_finite(self, grid6, sampler6):
        totals = batched_bulk_totals(1.8, grid6, sampler6, 200, RngStream(31, 4))
        assert np.all(np.isfinite(totals)) and np.all(totals > 0)

    def test_masses_positive(self, grid6, sampler6):
        masses = batched_bulk_masses(1.5, grid6, sampler6, 5, RngStream(31, 5))
        assert np.all(masses > 0)


class TestBoundaryMeasure:
    def test_small_gamma_recovers_length(self):
        totals = batched_boundary_totals(1e-6, 256, 256, 5, RngStream(41, 0))
        assert totals == pytest.approx(np.full(5, 2 * math.pi), rel=1e-4)

    def test_mean_total_mass(self):
        for g in (0.5, 1.0, 1.5):
            totals = batched_boundary_totals(g, 512, 128, 4000, RngStream(41, 1))
            exact = 2 * math.pi * math.exp(-(g**2) / 8.0)
            se = totals.std(ddof=1) / math.sqrt(len(totals))
            assert abs(totals.mean() - exact) < 3 * se

    def test_q_moment_stable_in_modes(self):
        g, q = 1.5, 0.5
        m1 = np.mean(batched_boundary_totals(g, 256, 128, 3000, RngStream(41, 2)) ** q)
        m2 = np.mean(batched_boundary_totals(g, 1024, 128, 3000, RngStream(41, 3)) ** q)
        assert abs(m2 / m1 - 1.0) < 0.10


class TestMeasureOps:
    def test_integrate_trivials(self, grid6, sampler6):
        masses, _ = single_draw_masses(grid6, sampler6, 1.0, RngStream(51, 0))
        m = AtomicMeasure("bulk", grid6.centers, masses)
        assert m.integrate(lambda z: np.ones_like(z, dtype=float)) == pytest.approx(m.total)
        assert m.integrate(lambda z: np.zeros_like(z, dtype=float)) == 0.0

    def test_half_disk_lebesgue_limit(self, grid6, sampler6):
        # atoms assign whole cells by center, so the cut line contributes an
        # O(cell size) wobble on top of the Lebesgue limit
        masses, _ = single_draw_masses(grid6, sampler6, 1e-6, RngStream(51, 1))
        m = AtomicMeasure("bulk", grid6.centers, masses)
        half = m.integrate(lambda z: (np.real(z) > 0).astype(float))
        assert half == pytest.approx(math.pi / 2, rel=2e-2)

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
