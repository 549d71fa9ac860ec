import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats

from lqgdisk.errors import (
    ConfigurationError,
    DomainError,
    GridError,
    NotAdmissibleError,
    ResamplingError,
)
from lqgdisk.geometry import LiouvilleParams, MobiusMap, green, weyl_anomaly, ConformalFactor
from lqgdisk.gff import FieldSampler, RngStream, RotationSampler, TraceSampler, arc_centers
from lqgdisk import liouville
from lqgdisk.gmc import graded_disk_grid
from lqgdisk.liouville import (
    _log_y_integral,
    _log_zero_mode,
    _sample_y,
    ChaosBasis,
    InsertionSet,
    boundary_drift_factors,
    bulk_drift_factors,
    insertion_drift,
    kpz_log_weight,
    kpz_ratio_test,
    log_constant,
    log_prefactor,
    mobius_moved,
    partition_estimate,
    sample_liouville_triple,
    seiberg_check,
    unit_volume_expectation,
    volume_law_params,
)
from tests_support import basis_reference, batched_bulk_masses, traced_peak

GAMMA_83 = math.sqrt(8.0 / 3.0)


def ln_y_cdf(a, log_coef, mu_r, mu_b, n=400_001):
    """A grid in t = ln y and, on it, the CDF of the mixture law
    prop to sum_k e^{log_coef[k]} y^{a-1} e^{-mu_r[k] y^2 - mu_b y} dy.

    One cumulative trapezoid rule in t, where the density is y^a e^{...}; the
    grid spans the components' peaks, 25/a + 5 below (the left tail falls
    like e^{a t}) and 5 above.
    """
    peaks = np.log((-mu_b + np.sqrt(mu_b**2 + 8.0 * mu_r * a)) / (4.0 * mu_r))
    t = np.linspace(peaks.min() - 25.0 / a - 5.0, peaks.max() + 5.0, n)
    log_f = log_coef[:, None] + a * t - np.outer(mu_r, np.exp(2.0 * t)) - mu_b * np.exp(t)
    f = np.exp(log_f - log_f.max()).sum(axis=0)
    cdf = scipy.integrate.cumulative_trapezoid(f, t, initial=0.0)
    return t, cdf / cdf[-1]


@pytest.fixture(scope="module")
def basis83():
    return ChaosBasis(GAMMA_83, 200, RngStream(70, 0), graded_disk_grid(6), TraceSampler(1024, 256))


class TestSeiberg:
    def test_three_boundary_insertions(self):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        ins = InsertionSet(params=p, boundary=tuple((s, GAMMA_83) for s in roots))
        v = seiberg_check(ins)
        assert v.admissible
        assert v.s_total == pytest.approx(1.5 * GAMMA_83 - p.Q, abs=1e-12)
        assert v.s_total == pytest.approx(0.4082483, abs=1e-7)

    def test_bulk_weight_at_Q_rejected(self):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.0, p.Q),))
        v = seiberg_check(ins)
        assert not v.bound2_ok and not v.admissible

    def test_case_two_skips_bulk_bound(self):
        p = LiouvilleParams(gamma=GAMMA_83, mu=0.0, mu_boundary=1.0)
        bdry = tuple((np.exp(2j * np.pi * k / 4), 0.5) for k in range(4))
        ins = InsertionSet(params=p, bulk=((0.0, p.Q + 0.1),), boundary=bdry)
        v = seiberg_check(ins)
        assert v.case == "mu_zero_boundary_positive"
        assert v.admissible and not v.bound2_ok

    def test_bound1_monotone_in_weights(self):
        gen = np.random.default_rng(3)
        p = LiouvilleParams(gamma=1.4, mu=1.0)
        for _ in range(200):
            a = gen.uniform(0, 2.0)
            b = gen.uniform(0, 2.0)
            ins = InsertionSet(params=p, bulk=((0.2, a),), boundary=((1.0, b),))
            bigger = InsertionSet(
                params=p, bulk=((0.2, a + gen.uniform(0, 1)),), boundary=((1.0, b),)
            )
            if seiberg_check(ins).bound1_ok:
                assert seiberg_check(bigger).bound1_ok

    def test_marked_point_validation(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        with pytest.raises(DomainError):
            InsertionSet(params=p, bulk=((1.0 + 0j, 1.0),))
        with pytest.raises(DomainError):
            InsertionSet(params=p, boundary=((0.5 + 0j, 1.0),))
        with pytest.raises(DomainError):
            InsertionSet(params=p, bulk=((0.2, 1.0), (0.2, 0.5)))


class TestDriftAndConstant:
    def test_single_bulk_drift(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.0, 0.7),))
        for x in (0.2, 0.5j, -0.8):
            assert insertion_drift(ins, x) == pytest.approx(0.7 * math.log(1 / abs(x)), abs=1e-13)

    def test_no_insertions(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        ins = InsertionSet(params=p)
        assert insertion_drift(ins, 0.3 + 0.2j) == 0.0
        assert log_constant(ins) == 0.0

    def test_mixed_drift_value(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.3, 1.0),), boundary=((1.0, 1.0),))
        # G(0, 0.3) = ln(1/0.3); G(0, 1) = 0
        assert insertion_drift(ins, 0.0) == pytest.approx(math.log(1 / 0.3), abs=1e-13)
        assert insertion_drift(ins, 0.0) == pytest.approx(1.2039728, abs=1e-7)

    def test_drift_singular_at_marked_point(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.3, 1.0),))
        with pytest.raises(Exception):
            insertion_drift(ins, 0.3)

    def test_log_constant_one_boundary(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        ins = InsertionSet(params=p, boundary=((1.0, 1.0),))
        assert log_constant(ins) == -0.125

    def test_log_constant_one_bulk(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        assert log_constant(InsertionSet(params=p, bulk=((0.4, 1.3),))) == 0.0

    def test_log_constant_two_boundary(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0)
        ins = InsertionSet(params=p, boundary=((1.0, 1.0), (-1.0, 1.0)))
        want = 0.25 * green(1.0, -1.0) - 0.25
        assert green(1.0, -1.0) == pytest.approx(math.log(1 / 4), abs=1e-13)
        assert log_constant(ins) == pytest.approx(want, abs=1e-14)
        assert log_constant(ins) == pytest.approx(-0.5965736, abs=1e-7)


class TestVolumeLawParams:
    def test_spec_shape(self):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        shape, rate = volume_law_params(ins)
        assert shape == pytest.approx(0.25, abs=1e-12)
        assert rate == 1.0

    def test_shape_positive_iff_bound1(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            g = gen.uniform(0.4, 1.9)
            p = LiouvilleParams(gamma=g, mu=gen.uniform(0.2, 3.0), mu_boundary=0.0)
            a = gen.uniform(0.0, p.Q - 1e-6)
            b = gen.uniform(0.0, p.Q - 1e-6)
            ins = InsertionSet(params=p, bulk=((0.1, a),), boundary=((1.0, b),))
            v = seiberg_check(ins)
            if v.admissible:
                shape, rate = volume_law_params(ins)
                assert shape > 0 and rate == p.mu

    def test_requires_zero_boundary_constant(self):
        p = LiouvilleParams(gamma=1.0, mu=1.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, 1.9),), boundary=((1.0, 1.0),))
        with pytest.raises(ConfigurationError):
            volume_law_params(ins)


class TestShiftedChaos:
    def test_no_insertions_is_plain_pair(self):
        p = LiouvilleParams(gamma=1.2, mu=1.0)
        ins = InsertionSet(params=p)
        rng = RngStream(71, 0)
        basis = ChaosBasis(1.2, 3, rng, graded_disk_grid(5), TraceSampler(256, 128))
        fb, fd = basis.drift_factors(ins)
        assert np.array_equal(fb, np.ones(basis.grid.size)) and np.array_equal(fd, np.ones(128))
        bulk_tot, bdry_tot = basis.drifted_totals(ins)
        want_bulk, want_bdry = basis_reference(basis, rng, fb, fd)
        assert np.array_equal(bulk_tot, want_bulk)
        assert np.array_equal(bdry_tot, want_bdry)
        bulk, bdry = basis_reference(basis, rng)
        pairs = basis.functional_values(ins, lambda pair: pair)
        for r, pair in enumerate(pairs):
            assert np.array_equal(pair.bulk.masses, bulk[r])
            assert np.array_equal(pair.boundary.masses, bdry[r])

    def test_inadmissible_rejected(self):
        p = LiouvilleParams(gamma=1.2, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.3, 0.1),))  # s_total < 0
        basis = ChaosBasis(1.2, 3, RngStream(71, 2), graded_disk_grid(5), TraceSampler(256, 256))
        with pytest.raises(NotAdmissibleError):
            sample_liouville_triple(ins, 10, RngStream(71, 3), basis=basis)

    def test_boundary_insertion_every_replica_finite(self):
        p = LiouvilleParams(gamma=1.5, mu=1.0)
        beta = 0.9 * p.Q
        bdry = tuple((np.exp(2j * np.pi * k / 3), beta) for k in range(3))
        ins = InsertionSet(params=p, boundary=bdry)
        assert seiberg_check(ins).admissible
        basis = ChaosBasis(1.5, 150, RngStream(71, 4), graded_disk_grid(6), TraceSampler(1024, 256))
        bulk_tot, bdry_tot = basis.drifted_totals(ins)
        assert np.all(np.isfinite(bulk_tot)) and np.all(bulk_tot > 0)
        assert np.all(np.isfinite(bdry_tot)) and np.all(bdry_tot > 0)

    def test_boundary_insertion_median_stable_under_refinement(self):
        # single below-Q boundary weight: the drifted bulk mass has infinite
        # mean yet its median stays put as the grid refines (contrast with
        # the divergence oracle below, where it grows at every level)
        p = LiouvilleParams(gamma=1.5, mu=1.0)
        ins = InsertionSet(params=p, boundary=((1.0, 0.7 * p.Q),))
        medians = []
        for depth in (5, 6, 7):
            grid = graded_disk_grid(depth, 2, 2.0)
            sampler = FieldSampler(grid.centers, grid.eps)
            fb = bulk_drift_factors(ins, grid, p.gamma)
            masses = batched_bulk_masses(p.gamma, grid, sampler, 1000, RngStream(71, 60 + depth))
            tot = (masses * fb[:, None]).sum(axis=0)
            assert np.all(np.isfinite(tot))
            medians.append(float(np.median(tot)))
        ratios = np.array(medians[1:]) / np.array(medians[:-1])
        assert np.all((ratios > 0.75) & (ratios < 1.33))

    def test_divergence_oracle_beta_above_Q(self):
        # forced through without the admissibility gate: the drifted bulk
        # mass near the insertion grows without bound under refinement
        p = LiouvilleParams(gamma=1.5, mu=1.0)
        beta = p.Q + 0.3
        ins = InsertionSet(params=p, boundary=((1.0, beta),))
        medians = []
        for depth in (5, 6, 7):
            grid = graded_disk_grid(depth, 2, 2.0)
            sampler = FieldSampler(grid.centers, grid.eps)
            fb = bulk_drift_factors(ins, grid, p.gamma)
            near = np.abs(grid.centers - 1.0) < 0.3
            masses = batched_bulk_masses(p.gamma, grid, sampler, 300, RngStream(71, 5 + depth))
            medians.append(np.median((masses[near] * fb[near, None]).sum(axis=0)))
        assert medians[0] < medians[1] < medians[2]

    @pytest.mark.parametrize("support", ["bulk", "boundary"])
    def test_atom_on_marked_point_rejected(self, support):
        p = LiouvilleParams(gamma=1.2, mu=1.0)
        grid = graded_disk_grid(5, 2, 2.0)
        theta = arc_centers(128)
        if support == "bulk":
            ins = InsertionSet(params=p, bulk=((complex(grid.centers[3]), 2.0),))
            with pytest.raises(GridError):
                bulk_drift_factors(ins, grid, p.gamma)
        else:
            ins = InsertionSet(params=p, boundary=((np.exp(1j * theta[5]), 1.0),))
            with pytest.raises(GridError):
                boundary_drift_factors(ins, theta, p.gamma)


def c_form_zero_mode(s, gamma, a_i, b_j):
    """Independent oracle: quad in c of e^{s c} exp(-a_i e^{gamma c} - b_j e^{(gamma/2) c})."""
    terms = [(k, e) for k, e in ((a_i, gamma), (b_j, 0.5 * gamma)) if k > 0.0]

    def log_f(c):
        with np.errstate(over="ignore"):
            return s * c - sum(k * np.exp(e * c) for k, e in terms)

    c_star = scipy.optimize.minimize_scalar(
        lambda c: -log_f(c), bounds=(-200.0, 200.0), method="bounded"
    ).x
    peak = log_f(c_star)
    total = 0.0
    for lo, hi in ((-np.inf, c_star), (c_star, np.inf)):
        val, err = scipy.integrate.quad(
            lambda c: np.exp(log_f(c) - peak), lo, hi, epsabs=0.0, epsrel=1e-12, limit=500
        )
        assert err < 1e-11 * val
        total += val
    return peak + math.log(total)


class TestPartition:
    @pytest.mark.parametrize(
        "mu, mu_b", [(1.0, 0.0), (1.0, 0.5), (0.0, 0.5)], ids=["gamma", "quadrature", "mu-zero"]
    )
    def test_zero_mode_matches_c_form_quadrature(self, basis83, mu, mu_b):
        p = LiouvilleParams(gamma=GAMMA_83, mu=mu, mu_boundary=mu_b)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        log_w, bulk_tot, bdry_tot, _ = _log_zero_mode(ins, basis83)
        log_k = log_w + math.log(2.0 / GAMMA_83)
        for r in (0, 1, int(np.argmax(log_w)), int(np.argmin(log_w))):
            want = c_form_zero_mode(ins.s_total, GAMMA_83, mu * bulk_tot[r], mu_b * bdry_tot[r])
            assert abs(math.expm1(log_k[r] - want)) < 1e-9

    def test_mu_zero_boundary_positive_closed_form(self, basis83):
        # at mu = 0 the y-integral is Gamma(a) mu_b^{-a}: K_r = (2/gamma) Gamma(a) (mu_b J_r)^{-a}
        p = LiouvilleParams(gamma=GAMMA_83, mu=0.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        assert seiberg_check(ins).case == "mu_zero_boundary_positive"
        a = 2.0 * ins.s_total / GAMMA_83
        _, bdry_tot = basis83.drifted_totals(ins)
        k = 2.0 / GAMMA_83 * math.gamma(a) * (0.5 * bdry_tot) ** (-a)
        value, stderr, _ = partition_estimate(ins, basis=basis83)
        pref = math.exp(log_prefactor(ins))
        assert value == pytest.approx(pref * k.mean(), rel=1e-9)
        assert stderr == pytest.approx(pref * k.std(ddof=1) / math.sqrt(len(k)), rel=1e-9)
        draws = sample_liouville_triple(ins, 200, RngStream(72, 6), basis=basis83)
        assert np.all(draws["V"] > 0) and np.all(draws["L"] > 0)
        # with mu_r = 0 the envelope is the target: L ~ Gamma(a, rate mu_b), nothing rejected
        assert draws["acceptance_rate"] == 1.0
        assert scipy.stats.kstest(draws["L"], "gamma", args=(a, 0.0, 1.0 / 0.5)).pvalue > 0.01

    def test_mu_scaling_exact(self, basis83):
        ins1 = InsertionSet(
            params=LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0),
            bulk=((0.0, GAMMA_83),),
            boundary=((1.0, GAMMA_83),),
        )
        ins4 = InsertionSet(
            params=LiouvilleParams(gamma=GAMMA_83, mu=4.0, mu_boundary=0.0),
            bulk=((0.0, GAMMA_83),),
            boundary=((1.0, GAMMA_83),),
        )
        v1, _, _ = partition_estimate(ins1, basis=basis83)
        v4, _, _ = partition_estimate(ins4, basis=basis83)
        s = ins1.s_total
        assert v4 == pytest.approx(4.0 ** (-s / GAMMA_83) * v1, rel=1e-12)

    def test_rejects_inadmissible(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.0, 0.1),))
        with pytest.raises(NotAdmissibleError):
            partition_estimate(ins, basis=basis83)


class TestVolumeLawSampling:
    def test_gamma_law_and_independence(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        half = lambda pair: pair.bulk.integrate(
            lambda z: (np.real(z) > 0).astype(float)
        ) / pair.bulk.total
        draws = sample_liouville_triple(
            ins, 4000, RngStream(72, 0), basis=basis83, functionals={"half": half}
        )
        ks = scipy.stats.kstest(draws["V"], "gamma", args=(0.25, 0.0, 1.0))
        assert ks.pvalue > 0.01
        corr = np.corrcoef(draws["V"], draws["half"])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(draws["V"]))
        assert np.all(draws["weight"] > 0)

    def test_volume_length_consistency(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        draws = sample_liouville_triple(ins, 500, RngStream(72, 1), basis=basis83)
        bulk_tot, bdry_tot = basis83.drifted_totals(ins)
        ratio = bulk_tot / bdry_tot**2
        assert np.allclose(draws["V"], draws["L"] ** 2 * ratio[draws["replica"]], rtol=1e-12)

    def test_mixed_boundary_constant(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        draws = sample_liouville_triple(ins, 400, RngStream(72, 2), basis=basis83)
        assert np.all(draws["V"] > 0) and np.all(draws["L"] > 0)

    def test_mixed_boundary_length_law(self, basis83):
        # given replica r, L has density prop to J_r^{-a} y^{a-1} e^{-mu R_r y^2 - mu_b y}
        # (the zero-mode integrand), so the L draws follow that mixture over the replicas
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        draws = sample_liouville_triple(ins, 20000, RngStream(72, 7), basis=basis83)
        bulk_tot, bdry_tot = basis83.drifted_totals(ins)
        a = 2.0 * ins.s_total / GAMMA_83
        t, cdf = ln_y_cdf(a, -a * np.log(bdry_tot), bulk_tot / bdry_tot**2, 0.5, n=20_001)
        ks = scipy.stats.kstest(np.log(draws["L"]), lambda x: np.interp(x, t, cdf))
        assert ks.pvalue > 0.01
        assert 1.0 / math.sqrt(2.0) < draws["acceptance_rate"] < 1.0
        assert 10.0 < draws["ess"] <= basis83.n_replicas

    def test_y_integral_checks_quadrature_error(self, basis83, monkeypatch):
        # at 8 trapezoid intervals the step-halving estimate stays far above 1e-8
        monkeypatch.setattr(liouville, "Y_NODE_CAP", 8)
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        with pytest.raises(ResamplingError, match="zero-mode quadrature"):
            sample_liouville_triple(ins, 10, RngStream(72, 5), basis=basis83)

    def test_gamma_law_second_insertion_set(self):
        # a different admissible set at a different coupling
        g = 1.2
        p = LiouvilleParams(gamma=g, mu=2.0, mu_boundary=0.0)
        ins = InsertionSet(
            params=p, bulk=((0.3, 1.0), (-0.2 + 0.4j, 0.9)), boundary=((1.0, 0.8),)
        )
        shape, rate = volume_law_params(ins)
        basis = ChaosBasis(g, 200, RngStream(72, 3), graded_disk_grid(6), TraceSampler(1024, 256))
        draws = sample_liouville_triple(ins, 4000, RngStream(72, 4), basis=basis)
        ks = scipy.stats.kstest(draws["V"], "gamma", args=(shape, 0.0, 1.0 / rate))
        assert ks.pvalue > 0.01


def quad_log_y_integral(a_exp, mu_r, mu_b):
    """Reference: log of int_0^inf y^{a-1} e^{-mu_r y^2 - mu_b y} dy by scipy's quad in t = ln y,
    on a window around the peak widened until the integrand is 1e-14 of its peak value.

    quad is told the breakpoints t* - 10^k: at small a the left tail is about 37/a long, and on the
    unsplit window quad misses the O(1)-wide structure at the peak while reporting convergence
    (its log off by up to 5e-4 at a = 1e-3, against the closed forms of TestYIntegral).
    """

    def log_f(t):
        return a_exp * t - mu_r * math.exp(2.0 * t) - mu_b * math.exp(t)

    t_star = math.log(liouville._y_peak(a_exp, mu_r, mu_b))
    peak = log_f(t_star)
    lo, hi = t_star - 1.0, t_star + 1.0
    while log_f(lo) - peak > math.log(1e-14):
        lo -= 1.0 + (t_star - lo)
    while log_f(hi) - peak > math.log(1e-14):
        hi += 1.0 + (hi - t_star)
    points = [t for t in t_star + np.array([-1e4, -1e3, -1e2, -10.0, -1.0, 0.0, 1.0]) if lo < t < hi]
    val, err = scipy.integrate.quad(
        lambda t: math.exp(log_f(t) - peak), lo, hi, points=points, limit=200, epsabs=0.0, epsrel=1e-10
    )
    assert err <= 1e-10 * val
    return peak + math.log(val)


class TestYIntegral:
    def test_matches_quad_oracle(self):
        # the y sampler's parameter ranges and a down to 1e-4, every combination in one call
        a, mu_r, mu_b = (
            x.ravel()
            for x in np.meshgrid(
                [1e-4, 1e-3, 0.01, 0.5, 3.0, 40.0, 1e3, 1e5],
                [0.0, 1e-6, 1.0, 1e6],
                [1e-4, 0.5, 1e3],
                indexing="ij",
            )
        )
        got, rel_err = _log_y_integral(a, mu_r, mu_b)
        want = np.array([quad_log_y_integral(*args) for args in zip(a, mu_r, mu_b)])
        assert rel_err < 1e-10
        # 1e-11 relative in the integral, up to a few roundings of its log (up to 1.1e6 here)
        np.testing.assert_allclose(got, want, rtol=4.0 * np.finfo(float).eps, atol=1e-11)

    def test_non_finite_entry_fails_the_check(self):
        with pytest.raises(ResamplingError, match="zero-mode quadrature"):
            _log_y_integral(0.5, np.array([1.0, np.inf]), 0.5)

    @pytest.mark.parametrize("a", [1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.5, 3.0, 1e3, 1e5])
    def test_gamma_closed_forms_within_1024_intervals(self, a, monkeypatch):
        # mu_b = 0: (1/2) Gamma(a/2) mu_r^{-a/2}; mu_r = 0: Gamma(a) mu_b^{-a}.  The node count must
        # not grow with 1/a, where the left tail in ln y is about 37/a long.
        monkeypatch.setattr(liouville, "Y_NODE_CAP", 2**10)
        scale, zero = np.array([1e-6, 1.0, 1e6]), np.zeros(3)
        got, rel_err = _log_y_integral(a, np.concatenate([scale, zero]), np.concatenate([zero, scale]))
        want = np.concatenate(
            [math.log(0.5) + math.lgamma(a / 2.0) - (a / 2.0) * np.log(scale), math.lgamma(a) - a * np.log(scale)]
        )
        assert rel_err < 1e-10
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


class TestYSampler:
    @pytest.mark.parametrize(
        "a, mu_r, mu_b, n, seed",
        [(40.0, 0.01, 5.0, 20_000, 0), (3.0, 5.0, 0.1, 200_000, 1), (0.5, 1.0, 3.0, 1_000_000, 2)],
        ids=["narrow", "bulk-dominated", "wide"],
    )
    def test_exact_law(self, a, mu_r, mu_b, n, seed):
        # draw counts at which the half-cell shift of an inverse CDF on a
        # 2,048-node log grid fails this test
        y, acceptance = _sample_y(a, np.full(n, mu_r), mu_b, RngStream(76, seed).generator())
        t, cdf = ln_y_cdf(a, np.zeros(1), np.array([mu_r]), mu_b)
        ks = scipy.stats.kstest(np.log(y), lambda x: np.interp(x, t, cdf))
        assert ks.pvalue > 0.01
        assert 1.0 / math.sqrt(2.0) < acceptance <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_raises(self, bad):
        mu_r = np.array([1.0, bad, 2.0])
        with pytest.raises(ResamplingError, match="y sampler"):
            _sample_y(1.5, mu_r, 0.5, RngStream(76, 3).generator())

    def test_round_cap_raises(self, monkeypatch):
        # about 30% of the proposals are rejected here, so one round leaves draws behind
        monkeypatch.setattr(liouville, "Y_ROUNDS", 1)
        with pytest.raises(ResamplingError, match="y sampler: .* still rejected after 1 rounds"):
            _sample_y(3.0, np.full(1000, 5.0), 0.1, RngStream(76, 4).generator())


class TestKPZ:
    def test_paired_ratio_two_sets_two_maps(self):
        gamma = 1.5
        p = LiouvilleParams(gamma=gamma, mu=1.0, mu_boundary=0.0)
        maps_ = [MobiusMap(a=0.3, alpha=0.0), MobiusMap(a=0.2 + 0.25j, alpha=1.0)]
        sets = [
            InsertionSet(params=p, bulk=((0.55, 1.1), (-0.35 + 0.2j, 1.1))),
            InsertionSet(params=p, bulk=((0.5j, 0.75), (-0.45, 0.75), (0.3 - 0.4j, 0.75))),
        ]
        basis = ChaosBasis(gamma, 800, RngStream(73, 0), graded_disk_grid(6), TraceSampler(1024, 256))
        for psi in maps_:
            for ins in sets:
                dev, se = kpz_ratio_test(ins, psi, basis)
                assert abs(dev) < 3 * se

    def test_prediction_value(self):
        p = LiouvilleParams(gamma=1.5, mu=1.0)
        psi = MobiusMap(a=0.3, alpha=0.0)
        ins = InsertionSet(params=p, bulk=((0.5, 1.0),))
        from lqgdisk.geometry import conformal_weight

        want = -2.0 * conformal_weight(1.0, p) * math.log(abs(psi.derivative(0.5)))
        assert kpz_log_weight(ins, psi) == pytest.approx(want, abs=1e-14)

    def test_moved_set_geometry(self):
        p = LiouvilleParams(gamma=1.5, mu=1.0)
        psi = MobiusMap(a=0.3, alpha=0.0)
        ins = InsertionSet(params=p, bulk=((0.55, 1.1),), boundary=((1.0, 0.9),))
        moved = mobius_moved(ins, psi)
        assert moved.bulk[0][0] == pytest.approx(psi(0.55))
        assert abs(abs(moved.boundary[0][0]) - 1.0) < 1e-14


class TestBasisPasses:
    """A ChaosBasis keeps two floats per replica per insertion set, and each pass draws its replicas again."""

    @staticmethod
    def marked(mu_boundary=0.5):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=mu_boundary)
        return InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))

    @pytest.mark.parametrize("depth", [5, 7])
    def test_totals_ignore_the_replica_count(self, depth):
        # 230 replicas leave a padded last block; each block is reduced alone
        ins = self.marked()
        few, many = (
            ChaosBasis(GAMMA_83, n, RngStream(75, 0), graded_disk_grid(depth, 2), TraceSampler(1024, 256))
            for n in (230, 400)
        )
        for got, want in zip(few.drifted_totals(ins), many.drifted_totals(ins)):
            assert np.array_equal(got, want[:230])

    def test_keeps_no_masses(self):
        # the bulk masses of 2,000 replicas at depth 7 alone would take 37 MB
        ins = self.marked(0.0)

        def totals():
            basis = ChaosBasis(GAMMA_83, 2000, RngStream(75, 1), graded_disk_grid(7), TraceSampler(1024, 256))
            basis.drifted_totals(ins)

        assert traced_peak(totals) < 20e6

    def test_one_pass_per_estimator(self, monkeypatch):
        # 100 replicas are two blocks of RotationSampler.fields
        calls = []
        fields = RotationSampler.fields
        monkeypatch.setattr(RotationSampler, "fields", lambda sampler, noise: calls.append(1) or fields(sampler, noise))
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        three = InsertionSet(params=p, boundary=tuple((s, GAMMA_83) for s in roots))
        kpz = InsertionSet(params=p, bulk=((0.55, 1.1), (-0.35 + 0.2j, 1.1)))
        half = lambda pair: pair.bulk.integrate(lambda z: (np.real(z) > 0).astype(float)) / pair.bulk.total
        runs = {
            "partition": lambda b: partition_estimate(self.marked(), b),
            "triple": lambda b: sample_liouville_triple(self.marked(), 100, RngStream(75, 3), b),
            "triple with a functional": lambda b: sample_liouville_triple(
                self.marked(0.0), 100, RngStream(75, 3), b, functionals={"half": half}
            ),
            "kpz": lambda b: kpz_ratio_test(kpz, MobiusMap(a=0.3, alpha=0.0), b),
            "unit volume": lambda b: unit_volume_expectation(three, half, b),
        }
        for name, run in runs.items():
            basis = ChaosBasis(GAMMA_83, 100, RngStream(75, 2), graded_disk_grid(5), TraceSampler(256, 128))
            calls.clear()
            run(basis)
            assert len(calls) == 2, name
        basis.drifted_totals(three)
        assert len(calls) == 2


class TestUnitVolume:
    def test_trivial_functionals(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        ins = InsertionSet(params=p, boundary=tuple((s, GAMMA_83) for s in roots))
        v, se, ess = unit_volume_expectation(ins, lambda pair: 1.0, basis=basis83)
        assert v == 1.0 and se == 0.0
        v2, _, _ = unit_volume_expectation(
            ins, lambda pair: pair.bulk.total / pair.bulk.total, basis=basis83
        )
        assert v2 == 1.0

    def test_rotation_symmetry(self):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        ins = InsertionSet(params=p, boundary=tuple((s, GAMMA_83) for s in roots))
        rot = np.exp(2j * np.pi / 3)

        def half(pair):
            return pair.bulk.integrate(lambda z: (np.real(z) > 0).astype(float)) / pair.bulk.total

        def half_rot(pair):
            return pair.bulk.integrate(
                lambda z: (np.real(z * np.conj(rot)) > 0).astype(float)
            ) / pair.bulk.total

        basis = ChaosBasis(GAMMA_83, 400, RngStream(74, 0), graded_disk_grid(6), TraceSampler(1024, 256))
        v1, se1, _ = unit_volume_expectation(ins, half, basis=basis)
        basis2 = ChaosBasis(GAMMA_83, 400, RngStream(74, 1), graded_disk_grid(6), TraceSampler(1024, 256))
        v2, se2, _ = unit_volume_expectation(ins, half_rot, basis=basis2)
        assert abs(v1 - v2) < 3 * math.sqrt(se1**2 + se2**2)

    def test_collapsed_effective_sample_size_raises(self):
        # the effective sample size of 3 replicas is at most 3, below the floor of 10
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        ins = InsertionSet(params=p, boundary=tuple((s, GAMMA_83) for s in roots))
        basis = ChaosBasis(GAMMA_83, 3, RngStream(74, 2), graded_disk_grid(4), TraceSampler(64, 32))
        with pytest.raises(ResamplingError, match="effective sample size"):
            unit_volume_expectation(ins, lambda pair: 1.0, basis=basis)

    def test_requires_three_gamma_boundary(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        with pytest.raises(ConfigurationError):
            unit_volume_expectation(ins, lambda pair: 1.0, basis=basis83)


class TestWeylConsistency:
    def test_flat_base_direct_formula(self):
        # the anomaly functional against an independently coded flat-base sum
        p = LiouvilleParams(gamma=1.3, mu=1.0)
        n = 128

        def phi(z):
            return 0.4 * (1 - np.abs(z) ** 2) + 0.2 * np.real(z)

        f = ConformalFactor.from_function(phi, n, 2 * n)
        base = ConformalFactor.constant(0.0, n, 2 * n)
        from lqgdisk.geometry import dirichlet_energy

        coef = (1 + 6 * p.Q**2) / (96 * math.pi)
        direct = coef * (
            dirichlet_energy(f) + 4.0 * float(np.sum(f.boundary)) * (2 * math.pi / (2 * n))
        )
        assert weyl_anomaly(f, base, p) == pytest.approx(direct, abs=1e-8)
