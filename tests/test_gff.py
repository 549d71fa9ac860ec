import json
import math

import numpy as np
import pytest

from lqgdisk import gff, io
from lqgdisk.errors import FactorizationError, GridError, UnsupportedSeparationError
from lqgdisk.critical import boundary_ladder_totals
from lqgdisk.geometry import green, poincare_density
from lqgdisk.gff import (
    ROTATION_ORDER,
    FieldSampler,
    RngStream,
    RotationSampler,
    arc_centers,
    boundary_synthesis_matrix,
    covariance_entries,
    neumann_covariance,
    replica_map,
    truncated_boundary_variance,
)
from lqgdisk.gmc import graded_disk_grid
from tests_support import boundary_coefficients, truncated_boundary_covariance


def batched_trace_values(theta, n_modes, n_replicas, rng):
    """Trace evaluations of many replicas at the given angles."""
    coef = boundary_coefficients(n_modes, n_replicas, rng)
    return coef.reshape(n_replicas, -1) @ boundary_synthesis_matrix(theta, n_modes)


class TestBoundaryTrace:
    def test_zero_boundary_mean_every_draw(self):
        # no constant mode: the uniform-grid mean vanishes to roundoff
        theta = 2 * np.pi * np.arange(4096) / 4096
        vals = batched_trace_values(theta, 128, 5, RngStream(3, 0))
        assert np.max(np.abs(np.mean(vals, axis=1))) < 1e-12

    def test_covariance_at_pi(self):
        # alternating series sum 2(-1)^n/n -> -2 ln 2
        n_modes = 1024
        analytic = truncated_boundary_covariance(np.pi, n_modes)
        series = 2.0 * np.sum((-1.0) ** np.arange(1, n_modes + 1) / np.arange(1, n_modes + 1))
        assert analytic == pytest.approx(series, abs=1e-12)
        assert analytic == pytest.approx(-2 * math.log(2), abs=2e-3)
        vals = batched_trace_values(np.array([0.0, np.pi]), n_modes, 100000, RngStream(5, 1))
        emp = np.mean(vals[:, 0] * vals[:, 1])
        se = np.std(vals[:, 0] * vals[:, 1], ddof=1) / math.sqrt(len(vals))
        assert abs(emp - analytic) < 3 * se

    def test_covariance_at_half_pi(self):
        # chord sqrt(2): limit is -ln 2
        analytic = truncated_boundary_covariance(np.pi / 2, 4096)
        assert analytic == pytest.approx(-math.log(2), abs=1e-3)

    def test_truncate_shares_coefficients(self):
        # ladder level N synthesizes the first N modes of one shared coefficient block
        _, plain = boundary_ladder_totals([64, 256], 40, RngStream(9, 0))
        coef = boundary_coefficients(256, 40, RngStream(9, 0))[:, :, :64]
        x = coef.reshape(40, -1) @ boundary_synthesis_matrix(arc_centers(128), 64)
        want = np.exp(x - truncated_boundary_variance(64) / 2.0).sum(axis=1) * (2.0 * np.pi / 128)
        assert np.allclose(plain[0], want, rtol=1e-12, atol=0.0)


class TestFieldSampler:
    def test_single_point_variance(self):
        sampler = FieldSampler(np.array([0.0 + 0.0j]), 0.01)
        assert sampler.covariance[0, 0] == pytest.approx(math.log(100.0), abs=1e-12)
        draws = sampler.draw_batch(100000, RngStream(7, 1))[0]
        emp = np.var(draws, ddof=1)
        se = math.log(100.0) * math.sqrt(2.0 / len(draws))
        assert abs(emp - math.log(100.0)) < 3 * se

    def test_two_point_covariance(self):
        pts = np.array([0.3, -0.3])
        sampler = FieldSampler(pts, 0.05)
        want = green(0.3, -0.3)
        assert want == pytest.approx(-math.log(0.6 * 1.09), abs=1e-12)
        assert sampler.covariance[0, 1] == pytest.approx(want, abs=1e-14)
        draws = sampler.draw_batch(100000, RngStream(8, 1))
        prod = draws[0] * draws[1]
        emp = np.mean(prod)
        se = np.std(prod, ddof=1) / math.sqrt(draws.shape[1])
        assert abs(emp - want) < 3 * se

    def test_empirical_covariance_grid(self):
        gen = np.random.default_rng(10)
        radii = np.array([0.2, 0.45, 0.7])
        pts = np.concatenate([r * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16) for r in radii])
        sampler = FieldSampler(pts, 0.02)
        n_draws = 4000
        draws = sampler.draw_batch(n_draws, RngStream(11, 0))
        emp = draws @ draws.T / n_draws
        cov = sampler.covariance
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n_draws)
        assert np.max(np.abs(emp - cov) / se) < 5.0

    def test_determinism_and_stream_independence(self):
        pts = np.array([0.1, 0.5j, -0.4])
        a = FieldSampler(pts, 0.03).draw(RngStream(42, 7))
        b = FieldSampler(pts, 0.03).draw(RngStream(42, 7))
        c = FieldSampler(pts, 0.03).draw(RngStream(42, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_separation_rules(self):
        with pytest.raises(UnsupportedSeparationError):
            neumann_covariance(np.array([0.1, 0.1 + 0.05j]), 0.05)
        with pytest.raises(GridError):
            neumann_covariance(np.array([0.99]), 0.05)
        with pytest.raises(GridError):
            neumann_covariance(np.array([0.1, 0.1]), 0.001)

    def test_point_cap(self):
        pts = 0.5 * np.exp(2j * np.pi * np.arange(9000) / 9000)
        with pytest.raises(GridError):
            neumann_covariance(pts, 1e-9)

    def test_per_point_eps(self):
        pts = np.array([0.2, 0.6])
        eps = np.array([0.05, 0.1])
        cov = neumann_covariance(pts, eps)
        assert cov[0, 0] == pytest.approx(math.log(1 / 0.05) - math.log(1 - 0.04), abs=1e-13)
        assert cov[1, 1] == pytest.approx(math.log(1 / 0.1) - math.log(1 - 0.36), abs=1e-13)
        assert cov[0, 1] == pytest.approx(green(0.2, 0.6), abs=1e-13)


def dense_rotation_covariance(sampler):
    """Covariance of sampler.fields, from its values on each unit noise vector."""
    size = int(np.prod(sampler.noise_shape))
    unit = np.eye(size).reshape(size, *sampler.noise_shape)
    rows = np.concatenate([sampler.fields(unit[i : i + 256]) for i in range(0, size, 256)])
    return rows.T @ rows


class TestRotationSampler:
    @pytest.mark.parametrize("depth", [4, 5, 6, 7])
    def test_embedding_matches_dense_covariance(self, depth):
        grid = graded_disk_grid(depth, 2, 2.0)
        sampler = RotationSampler(grid.centers, grid.eps)
        dense = neumann_covariance(grid.centers, grid.eps)
        cov = dense_rotation_covariance(sampler)
        assert np.max(np.abs(cov - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert np.array_equal(sampler.variances, np.diag(dense))
        assert sampler.min_eigenvalue > 0.0

    def test_empirical_covariance(self):
        grid = graded_disk_grid(5, 2, 2.0)
        sampler = RotationSampler(grid.centers, grid.eps)
        dense = neumann_covariance(grid.centers, grid.eps)
        # every pair of points is a rotation of a pair whose first point has angle below 2 pi / 16
        base = np.flatnonzero(np.angle(grid.centers) % (2 * np.pi) < 2 * np.pi / ROTATION_ORDER)
        gen = RngStream(14, 0).generator()
        n_draws, chunk = 200_000, 10_000
        second = np.zeros((len(base), grid.size))
        for _ in range(n_draws // chunk):
            x = sampler.fields(gen.standard_normal((chunk, *sampler.noise_shape)))
            second += x[:, base].T @ x
        emp, want = second / n_draws, dense[base]
        se = np.sqrt((np.outer(np.diag(dense)[base], np.diag(dense)) + want**2) / n_draws)
        assert np.max(np.abs(emp - want) / se) < 5.0

    @pytest.mark.parametrize("case", ["invariant", "count", "moved", "eps"])
    def test_points_that_are_not_invariant_raise(self, case):
        pts = np.concatenate([0.3 * np.exp(1j * arc_centers(16)), 0.7 * np.exp(1j * arc_centers(32))])
        eps = np.full(len(pts), 0.01)
        if case == "count":
            pts, eps = pts[:-1], eps[:-1]
        elif case == "moved":
            pts[20] *= np.exp(0.01j)
        elif case == "eps":
            eps[20] = 0.009
        if case == "invariant":
            assert RotationSampler(pts, eps).noise_shape == (3, ROTATION_ORDER)
        else:
            with pytest.raises(GridError, match="not invariant"):
                RotationSampler(pts, eps)

    def test_negative_eigenblock_raises(self, monkeypatch):
        entries = gff.covariance_entries
        # a constant shift of every c(d) moves the q = 0 block alone, by 16 times the shift
        monkeypatch.setattr(gff, "covariance_entries", lambda *a: entries(*a) - 1000.0)
        grid = graded_disk_grid(4, 2, 2.0)
        with pytest.raises(FactorizationError):
            RotationSampler(grid.centers, grid.eps)

    def test_replica_noise_ignores_block_size(self, monkeypatch):
        streams = [RngStream(15, r) for r in range(11)]
        want = np.stack([s.generator().standard_normal((3, 4)) for s in streams])
        assert np.array_equal(replica_map(lambda b: b, streams, (3, 4)), want)
        monkeypatch.setattr(gff, "REPLICA_BLOCK", 4)
        assert np.array_equal(replica_map(lambda b: b, streams, (3, 4)), want)

    def test_block_boundary_synthesis_matches_per_replica_products(self):
        theta, n_modes = arc_centers(256), 1024
        coef = boundary_coefficients(n_modes, 300, RngStream(16, 0))
        block = coef.reshape(300, -1) @ boundary_synthesis_matrix(theta, n_modes)
        cosb, sinb = gff.boundary_synthesis(theta, n_modes)
        single = np.stack([cosb @ c[0] + sinb @ c[1] for c in coef])
        assert np.max(np.abs(block - single)) <= 1e-12 * np.max(np.abs(single))


class TestVarianceAsymptotics:
    def test_constant_in_eps(self):
        # the regularized variance plus ln eps is 0.5 ln g_P(x) at every radius
        ladder = np.array([0.05, 0.025, 0.0125, 0.00625])
        for x, eps in ((0.0, ladder), (0.8, ladder / 4)):
            pts = np.full(len(eps), x, dtype=complex)
            vals = covariance_entries(pts, pts, eps) + np.log(eps)
            want = 0.5 * math.log(poincare_density(x))
            assert np.max(np.abs(vals - want)) < 1e-12
        assert 0.5 * math.log(poincare_density(0.8)) == pytest.approx(-math.log(0.36), abs=1e-12)

    def test_dirichlet_harmonic_split(self):
        # (ln 1/eps + ln(1-r^2)) + (-2 ln(1-r^2)) = regularized diagonal
        from lqgdisk.geometry import green_regularized

        for r in (0.0, 0.3, 0.7, 0.95):
            for eps in (0.01, 0.001):
                dirichlet = math.log(1 / eps) + math.log(1 - r**2)
                harmonic = -2 * math.log(1 - r**2)
                total = green_regularized(r, r, eps)
                assert dirichlet + harmonic == pytest.approx(total, abs=1e-12)


class TestPersistence:
    def test_field_roundtrip(self, tmp_path):
        pts = np.array([0.1, 0.4j, -0.2 - 0.3j])
        values = FieldSampler(pts, 0.02).draw(RngStream(13, 5))
        base = str(tmp_path / "snap")
        files = io.save_field(pts, np.full(3, 0.02), values, base, seed=13, stream_id=5)
        assert files == [base + ".csv", base + ".json"]
        with open(files[0]) as fh:
            assert fh.readline().strip() == "re,im,value"
            rows = [[float(c) for c in line.split(",")] for line in fh]
        # 17 significant digits read back to the same floats
        assert np.array_equal([complex(r[0], r[1]) for r in rows], pts)
        assert np.array_equal([r[2] for r in rows], values)
        with open(files[1]) as fh:
            sidecar = json.load(fh)
        assert sidecar == {"eps": 0.02, "n_points": 3, "seed": 13, "stream_id": 5}
