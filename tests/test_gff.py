import math

import numpy as np
import pytest

from lqgdisk import gff, io
from lqgdisk.errors import FactorizationError, GridError, UnsupportedSeparationError
from lqgdisk.geometry import green, poincare_density
from lqgdisk.gff import (
    ROTATION_ORDER,
    FieldSampler,
    RngStream,
    RotationSampler,
    arc_centers,
    boundary_covariance_truncated,
    boundary_synthesis_matrix,
    harmonic_extension,
    harmonic_extension_variance,
    neumann_covariance,
    replica_map,
    sample_boundary_trace,
    sample_field,
    variance_asymptotic_check,
)
from lqgdisk.gmc import graded_disk_grid


def batched_trace_values(theta, n_modes, n_replicas, rng):
    """Trace evaluations of many replicas at the given angles."""
    coef = gff.sample_boundary_coefficients(n_modes, n_replicas, rng)
    cosb, sinb = gff.boundary_synthesis(theta, n_modes)
    return coef[:, 0, :] @ cosb.T + coef[:, 1, :] @ sinb.T


class TestBoundaryTrace:
    def test_zero_boundary_mean_every_draw(self):
        # no constant mode: the uniform-grid mean vanishes to roundoff
        theta = 2 * np.pi * np.arange(4096) / 4096
        for sid in range(5):
            tr = sample_boundary_trace(128, RngStream(3, sid))
            assert abs(np.mean(tr.evaluate(theta))) < 1e-12

    def test_covariance_at_pi(self):
        # alternating series sum 2(-1)^n/n -> -2 ln 2
        n_modes = 1024
        analytic = boundary_covariance_truncated(np.pi, n_modes)
        series = 2.0 * np.sum((-1.0) ** np.arange(1, n_modes + 1) / np.arange(1, n_modes + 1))
        assert analytic == pytest.approx(series, abs=1e-12)
        assert analytic == pytest.approx(-2 * math.log(2), abs=2e-3)
        vals = batched_trace_values(np.array([0.0, np.pi]), n_modes, 100000, RngStream(5, 1))
        emp = np.mean(vals[:, 0] * vals[:, 1])
        se = np.std(vals[:, 0] * vals[:, 1], ddof=1) / math.sqrt(len(vals))
        assert abs(emp - analytic) < 3 * se

    def test_covariance_at_half_pi(self):
        # chord sqrt(2): limit is -ln 2
        analytic = boundary_covariance_truncated(np.pi / 2, 4096)
        assert analytic == pytest.approx(-math.log(2), abs=1e-3)

    def test_truncate_shares_coefficients(self):
        tr = sample_boundary_trace(256, RngStream(9, 0))
        tr64 = tr.truncate(64)
        assert np.array_equal(tr64.cos_coeffs, tr.cos_coeffs[:64])
        with pytest.raises(GridError):
            tr.truncate(0)


class TestHarmonicExtension:
    def test_zero_at_origin(self):
        tr = sample_boundary_trace(64, RngStream(1, 0))
        assert harmonic_extension(tr, 0.0) == 0.0

    def test_variance_at_half(self):
        # power series sum (2/n) r^{2n} -> -2 ln(1 - r^2)
        assert harmonic_extension_variance(0.5, 4096) == pytest.approx(
            -2 * math.log(0.75), abs=1e-12
        )
        # empirical variance at x = 0.5 (theta = 0: only cosine modes load)
        gen = RngStream(6, 2).generator()
        n = np.arange(1, 129)
        radial = np.sqrt(2.0 / n) * 0.5**n
        coef = gen.standard_normal((20000, 2, 128))
        samples = coef[:, 0, :] @ radial
        emp = np.var(samples, ddof=1)
        want = harmonic_extension_variance(0.5, 128)
        se = want * math.sqrt(2.0 / len(samples))
        assert abs(emp - want) < 3 * se

    def test_recovers_trace_toward_boundary(self):
        tr = sample_boundary_trace(64, RngStream(2, 3))
        theta = 1.234
        target = tr.evaluate(theta)
        gaps = [
            abs(harmonic_extension(tr, r * np.exp(1j * theta)) - target)
            for r in (0.9, 0.99, 0.999, 1 - 1e-7)
        ]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_harmonicity_mean_value(self):
        tr = sample_boundary_trace(32, RngStream(4, 4))
        x = 0.3 + 0.2j
        theta = 2 * np.pi * np.arange(256) / 256
        ring = np.mean(harmonic_extension(tr, x + 0.1 * np.exp(1j * theta)))
        assert ring == pytest.approx(harmonic_extension(tr, x), abs=1e-10)


class TestFieldSampler:
    def test_single_point_variance(self):
        fr = sample_field(np.array([0.0 + 0.0j]), 0.01, RngStream(7, 0))
        assert fr.covariance[0, 0] == pytest.approx(math.log(100.0), abs=1e-12)
        sampler = FieldSampler(np.array([0.0 + 0.0j]), 0.01)
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
        a = sample_field(pts, 0.03, RngStream(42, 7)).values
        b = sample_field(pts, 0.03, RngStream(42, 7)).values
        c = sample_field(pts, 0.03, RngStream(42, 8)).values
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
        coef = gff.sample_boundary_coefficients(n_modes, 300, RngStream(16, 0))
        block = coef.reshape(300, -1) @ boundary_synthesis_matrix(theta, n_modes)
        cosb, sinb = gff.boundary_synthesis(theta, n_modes)
        single = np.stack([cosb @ c[0] + sinb @ c[1] for c in coef])
        assert np.max(np.abs(block - single)) <= 1e-12 * np.max(np.abs(single))


class TestVarianceAsymptotics:
    def test_constant_in_eps(self):
        ladder = np.array([0.05, 0.025, 0.0125, 0.00625])
        vals = variance_asymptotic_check(0.0, ladder)
        assert np.max(np.abs(vals)) < 1e-12
        vals = variance_asymptotic_check(0.8, ladder / 4)
        want = 0.5 * math.log(poincare_density(0.8))
        assert want == pytest.approx(-math.log(0.36), abs=1e-12)
        assert np.max(np.abs(vals - want)) < 1e-12

    def test_ladder_must_decrease(self):
        with pytest.raises(GridError):
            variance_asymptotic_check(0.0, np.array([0.01, 0.02]))

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
        field = sample_field(pts, 0.02, RngStream(13, 5))
        base = str(tmp_path / "snap")
        files = io.save_field(field, base, seed=13, stream_id=5)
        assert len(files) == 2
        pts2, vals2, sidecar = io.load_field(base)
        assert np.array_equal(pts2, pts)
        assert np.array_equal(vals2, field.values)
        assert sidecar["n_points"] == 3
        assert sidecar["eps"] == 0.02
        with open(files[0]) as fh:
            assert fh.readline().strip() == "re,im,value"
