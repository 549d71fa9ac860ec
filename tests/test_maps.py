import math

import numpy as np
import pytest

from lqgdisk.errors import ConfigurationError, DomainError
from lqgdisk.gff import RngStream
from lqgdisk.maps import (
    BOUNDARY_CRITICAL_WEIGHT_PER_EDGE,
    BULK_CRITICAL_WEIGHT,
    BoltzmannConfig,
    BoltzmannSampler,
    conjectured_log_density,
    count_exact,
    histogram_check,
    joint_density_check,
    log_bigint,
    log_count_asymptotic,
    log_count_exact,
    log_count_exact_certified,
)


class TestExactCounts:
    def test_pinned_small_values(self):
        # frozen after evaluating the closed formula in exact arithmetic
        assert count_exact(0, 1) == 1
        assert count_exact(1, 1) == 2
        assert count_exact(2, 1) == 9

    def test_zero_below_diagonal(self):
        assert count_exact(0, 2) == 0
        assert count_exact(3, 5) == 0

    def test_integrality_and_positivity_scan(self):
        for p in range(1, 21):
            for n in range(0, 201):
                c = count_exact(n, p)
                assert isinstance(c, int)
                if n >= p - 1:
                    assert c > 0
                else:
                    assert c == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            count_exact(-1, 1)
        with pytest.raises(DomainError):
            count_exact(1, 0)

    def test_lgamma_route_matches_bigint(self):
        for n, p in ((50, 3), (500, 10), (5000, 40)):
            le = log_bigint(count_exact(n, p))
            assert log_count_exact(np.array([float(n)]), p)[0] == pytest.approx(le, abs=1e-9)

    def test_certified_route_matches_bigint(self):
        for n, p in ((100, 5), (5000, 70), (20000, 141)):
            le = log_bigint(count_exact(n, p))
            assert log_count_exact_certified(n, p) == pytest.approx(le, abs=1e-8)


class TestAsymptotics:
    def test_ratio_improves_over_decades(self):
        ratios = []
        for n in (10**4, 10**5):
            p = math.isqrt(n)
            ratios.append(
                math.exp(log_count_asymptotic(n, p) - log_count_exact_certified(n, p))
            )
        assert abs(ratios[0] - 1) < 0.02
        assert abs(ratios[1] - 1) < abs(ratios[0] - 1)

    def test_exponent_identity(self):
        # 9 p^2 / (4 n) = 9 l^2 / (16 V) under V = a^2 n, l = 2 a p
        for a, n, p in ((0.01, 12345, 67), (0.2, 500, 11)):
            v, ell = a * a * n, 2 * a * p
            assert 9 * p**2 / (4 * n) == pytest.approx(9 * ell**2 / (16 * v), rel=1e-14)
        lhs = conjectured_log_density(1.3, 0.7, 0.0, 0.0)
        assert lhs == pytest.approx(
            -1.5 * math.log(1.3) + 0.5 * math.log(0.7) - 9 * 0.49 / (16 * 1.3), abs=1e-13
        )


class TestBoltzmann:
    def test_critical_constants(self):
        assert BULK_CRITICAL_WEIGHT == pytest.approx(math.log(12.0))
        assert BOUNDARY_CRITICAL_WEIGHT_PER_EDGE == pytest.approx(0.5 * math.log(4.5))

    def test_probability_ratio_unmarked(self):
        cfg = BoltzmannConfig(a=0.25, mu=1.0, mu_boundary=1.0, interior_marked=False)
        row = BoltzmannSampler(cfg).log_weight_row(1)
        want = math.exp(-cfg.mu_bar) * count_exact(2, 1) / count_exact(1, 1)
        assert math.exp(row[2] - row[1]) == pytest.approx(want, rel=1e-12)

    def test_large_weights_concentrate_on_minimal_maps(self):
        cfg = BoltzmannConfig(a=1.0, mu=6.0, mu_boundary=6.0, interior_marked=False)
        s = BoltzmannSampler(cfg)
        best = None
        for p in range(1, cfg.p_max + 1):
            row = s.log_weight_row(p)
            n = int(np.argmax(row))
            if best is None or row[n] > best[2]:
                best = (n, p, row[n])
        assert (best[0], best[1]) == (0, 1)

    def test_sampler_matches_table(self):
        cfg = BoltzmannConfig(a=0.25, mu=1.0, mu_boundary=1.0, interior_marked=False)
        zmax, n_cells = histogram_check(cfg, 100000, RngStream(2, 8))
        assert n_cells >= 5
        assert zmax < 3.0

    def test_histogram_zmax_matches_cell_loop(self):
        cfg = BoltzmannConfig(a=0.25, mu=1.0, mu_boundary=1.0, interior_marked=False)
        n_draws = 20000
        zmax, n_cells = histogram_check(cfg, n_draws, RngStream(2, 8))
        s = BoltzmannSampler(cfg)
        n_arr, p_arr = s.sample(n_draws, RngStream(2, 8))
        want, cells = 0.0, 0
        for p in range(1, cfg.p_max + 1):
            row = np.exp(s.log_weight_row(p) - s.log_total)
            counts = np.bincount(n_arr[p_arr == p], minlength=cfg.n_max + 1)
            for n in np.nonzero(row >= 100.0 / n_draws)[0]:
                se = math.sqrt(n_draws * row[n] * (1.0 - row[n]))
                want = max(want, abs(counts[n] - n_draws * row[n]) / se)
                cells += 1
        assert cells >= 5
        assert (zmax, n_cells) == (want, cells)

    def test_determinism(self):
        s = BoltzmannSampler(BoltzmannConfig(a=0.2, mu=1.0, mu_boundary=1.0))
        a1 = s.sample(50, RngStream(9, 9))
        a2 = s.sample(50, RngStream(9, 9))
        assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])

    def test_tail_bound_violation(self):
        with pytest.raises(ConfigurationError):
            BoltzmannSampler(BoltzmannConfig(a=0.2, mu=1.0, mu_boundary=1.0, n_max=40))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BoltzmannConfig(a=0.0)
        with pytest.raises(ConfigurationError):
            BoltzmannConfig(a=0.1, mu=0.0, mu_boundary=0.0)
        with pytest.raises(ConfigurationError):
            BoltzmannConfig(a=0.1, mu=0.0)

    @pytest.mark.parametrize("n_max", [None, 300, 10**6])
    def test_mu_zero_rejected_for_every_n_max(self, n_max):
        # at mu = 0 a row decays like a power of n, so no cap meets TAIL_BOUND
        with pytest.raises(ConfigurationError, match="power of n"):
            BoltzmannConfig(a=0.2, mu=0.0, mu_boundary=1.0, n_max=n_max)


def _reference_row(sampler, p):
    """The row from direct gammaln calls, with the terms of log_weight_row."""
    cfg = sampler.cfg
    n = np.arange(cfg.n_max + 1, dtype=float)
    row = log_count_exact(n, p) - cfg.mu_bar * n - cfg.mu_bar_boundary * 2.0 * p
    if cfg.interior_marked:
        with np.errstate(divide="ignore"):
            row = row + np.log(n)
    return row


class TestTablePath:
    """Rows sliced from the log-gamma table equal the gammaln rows bit for bit."""

    @pytest.fixture
    def untruncated(self, monkeypatch):
        # row construction only: these caps fail the truncation-tail check
        monkeypatch.setattr(BoltzmannSampler, "_check_tails", lambda self, edge_n: None)

    @pytest.mark.parametrize("marked", [True, False])
    def test_every_row(self, marked):
        s = BoltzmannSampler(BoltzmannConfig(a=0.2, interior_marked=marked))
        for p in range(1, s.cfg.p_max + 1):
            assert np.array_equal(s.log_weight_row(p), _reference_row(s, p))

    @pytest.mark.parametrize(
        "cfg",
        [
            BoltzmannConfig(a=0.5, n_max=3, p_max=9),
            BoltzmannConfig(a=0.5, n_max=3, p_max=9, interior_marked=False),
        ],
        ids=["p-cap-beyond-n", "p-cap-beyond-n-unmarked"],
    )
    def test_rows_at_edge_configs(self, untruncated, cfg):
        s = BoltzmannSampler(cfg)
        for p in range(1, cfg.p_max + 1):
            assert np.array_equal(s.log_weight_row(p), _reference_row(s, p))
        if cfg.p_max > cfg.n_max + 1:
            assert np.all(s.log_weight_row(cfg.p_max) == -np.inf)

    def test_acceptance_config_rows(self):
        s = BoltzmannSampler(BoltzmannConfig(a=0.01, mu=1.0, mu_boundary=1.0))
        for p in (1, 2, 3, 500, s.cfg.p_max):
            assert np.array_equal(s.log_weight_row(p), _reference_row(s, p))


class TestJointDensity:
    def test_chi_square_moderate_mesh(self):
        cfg = BoltzmannConfig(a=0.02, mu=1.0, mu_boundary=1.0)
        report = joint_density_check(cfg, 60000, RngStream(5, 5), bins=(12, 12))
        assert report.p_value > 0.01
        assert report.n_in_range > 5000
        assert report.observed.sum() == report.n_in_range

    def test_underpowered_flagging(self):
        cfg = BoltzmannConfig(a=0.05, mu=1.0, mu_boundary=1.0)
        report = joint_density_check(
            cfg, 3000, RngStream(5, 6), bins=(10, 10), window=(0.2, 0.4), min_expected=20.0
        )
        assert report.underpowered.shape == report.observed.shape
        assert report.dof <= report.observed.size - 1

    def test_too_few_window_draws_rejected(self):
        cfg = BoltzmannConfig(a=0.05, mu=1.0, mu_boundary=1.0)
        with pytest.raises(ConfigurationError):
            joint_density_check(cfg, 2000, RngStream(5, 7))
