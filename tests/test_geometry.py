import math

import numpy as np
import pytest

from lqgdisk import geometry as ge
from lqgdisk.errors import (
    BoundaryPointError,
    CoincidentPointsError,
    GridError,
    InvalidMapError,
    UnsupportedSeparationError,
)
from lqgdisk.geometry import (
    ConformalFactor,
    LiouvilleParams,
    MobiusMap,
    conformal_weight,
    curvatures,
    dirichlet_energy,
    gauss_bonnet,
    green,
    green_regularized,
    poincare_density,
    weyl_anomaly,
)


def green_mean_boundary(x, n_quad):
    """Trapezoidal mean of G(x, .) over n_quad uniform nodes of the unit circle."""
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    return float(np.mean(green(x, np.exp(1j * theta))))


def double_circle_average(x, y, eps, n):
    """Independent oracle: midpoint double average of G over two eps-circles.

    Offset grids avoid the integrable log singularity on the diagonal; the
    leading quadrature error is O(1/n) and is removed by one Richardson
    step in the caller.
    """
    t1 = 2.0 * np.pi * np.arange(n) / n
    t2 = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    z1 = x + eps * np.exp(1j * t1)
    z2 = y + eps * np.exp(1j * t2)
    return float(np.mean(green(z1[:, None], z2[None, :])))


class TestGreen:
    def test_value_at_origin(self):
        assert green(0.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_closed_form_value(self):
        # |x-y| = 1 and |1 - x conj(y)| = 1.25
        assert green(0.5, -0.5) == pytest.approx(-math.log(1.25), abs=1e-15)

    def test_symmetry_randomized(self):
        gen = np.random.default_rng(7)
        z = np.sqrt(gen.uniform(size=500)) * np.exp(2j * np.pi * gen.uniform(size=500))
        w = np.sqrt(gen.uniform(size=500)) * np.exp(2j * np.pi * gen.uniform(size=500))
        assert np.max(np.abs(green(z, w) - green(w, z))) < 1e-14

    def test_green_at_origin_is_minus_log(self):
        gen = np.random.default_rng(8)
        y = 0.999 * np.sqrt(gen.uniform(size=200)) * np.exp(2j * np.pi * gen.uniform(size=200))
        assert np.max(np.abs(green(0.0, y) + np.log(np.abs(y)))) == 0.0

    def test_coincident_points_raise(self):
        with pytest.raises(CoincidentPointsError):
            green(0.3 + 0.1j, 0.3 + 0.1j)

    def test_boundary_mean_vanishes(self):
        # pointwise zero integrand; only |e^{i theta}| roundoff remains
        assert abs(green_mean_boundary(0.0, 256)) < 1e-15
        assert abs(green_mean_boundary(0.4, 512)) < 1e-10
        assert abs(green_mean_boundary(0.9 + 0.05j, 4096)) < 1e-8

    def test_boundary_mean_refines(self):
        coarse = abs(green_mean_boundary(0.7, 64))
        fine = abs(green_mean_boundary(0.7, 512))
        assert fine <= coarse + 1e-15


class TestGreenRegularized:
    def test_diagonal_at_origin(self):
        assert green_regularized(0.0, 0.0, 0.01) == pytest.approx(math.log(100.0), abs=1e-13)

    def test_diagonal_closed_form(self):
        want = math.log(20.0) - math.log(0.36)
        assert green_regularized(0.8, 0.8, 0.05) == pytest.approx(want, abs=1e-13)

    def test_diagonal_against_quadrature_oracle(self):
        # Richardson over the O(1/n) midpoint error of the log diagonal
        x, eps = 0.8, 0.05
        e1 = double_circle_average(x, x, eps, 2048)
        e2 = double_circle_average(x, x, eps, 4096)
        oracle = 2.0 * e2 - e1
        assert green_regularized(x, x, eps) == pytest.approx(oracle, abs=1e-6)

    def test_separated_circles_reduce_to_green(self):
        assert green_regularized(0.2, -0.2, 0.05) == green(0.2, -0.2)
        oracle = double_circle_average(0.2, -0.2, 0.05, 256)
        assert green_regularized(0.2, -0.2, 0.05) == pytest.approx(oracle, abs=1e-12)

    def test_overlapping_circles_rejected(self):
        with pytest.raises(UnsupportedSeparationError):
            green_regularized(0.1, 0.1 + 0.05j, 0.05)

    def test_circle_leaving_disk_rejected(self):
        with pytest.raises(Exception):
            green_regularized(0.99, 0.99, 0.05)

    def test_variance_identity_with_poincare(self):
        # G_eps(x,x) + ln eps = 0.5 ln g_P(x) exactly for the closed form
        for x in (0.0, 0.3, 0.6 + 0.2j, 0.9):
            for eps in (0.05, 0.01):
                if eps < 1.0 - abs(complex(x)):
                    lhs = green_regularized(x, x, eps) + math.log(eps)
                    assert lhs == pytest.approx(0.5 * math.log(poincare_density(x)), abs=1e-12)


class TestMobius:
    def test_identity_map(self):
        psi = MobiusMap()
        assert psi(0.77) == 0.77
        assert psi.derivative(0.77) == 1.0

    def test_simple_values(self):
        psi = MobiusMap(a=0.5)
        assert psi(0.0) == pytest.approx(-0.5)
        assert psi.derivative(0.0) == pytest.approx(0.75)

    def test_invalid_map(self):
        with pytest.raises(InvalidMapError):
            MobiusMap(a=1.0)

    def test_invalid_map_in_an_array(self):
        with pytest.raises(InvalidMapError):
            MobiusMap(a=np.array([0.5, 0.3j, -1.0]), alpha=np.zeros(3))

    def test_array_of_maps_matches_the_scalar_maps(self):
        # complex array arithmetic rounds differently from numpy's scalar path: on 20 seeds of
        # 5,000 maps the two differed by up to 2.3 (psi) and 5.0 (psi') units of relative rounding
        gen = np.random.default_rng(31)
        n = 5000
        a = 0.95 * np.sqrt(gen.uniform(size=n)) * np.exp(2j * np.pi * gen.uniform(size=n))
        alpha = 2 * np.pi * gen.uniform(size=n)
        x = 0.999 * np.sqrt(gen.uniform(size=n)) * np.exp(2j * np.pi * gen.uniform(size=n))
        psi = MobiusMap(a=a, alpha=alpha)
        for method in ("__call__", "derivative"):
            got = getattr(psi, method)(x)
            want = [getattr(MobiusMap(a=a[k], alpha=float(alpha[k])), method)(x[k]) for k in range(n)]
            assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want)), method

    def test_identities_randomized(self):
        gen = np.random.default_rng(12)
        worst_diff = worst_inner = worst_green = 0.0
        for _ in range(300):
            a = 0.95 * math.sqrt(gen.uniform()) * np.exp(2j * np.pi * gen.uniform())
            psi = MobiusMap(a=a, alpha=float(2 * np.pi * gen.uniform()))
            x = 0.99 * math.sqrt(gen.uniform()) * np.exp(2j * np.pi * gen.uniform())
            y = 0.99 * math.sqrt(gen.uniform()) * np.exp(2j * np.pi * gen.uniform())
            dx, dy = psi.derivative(x), psi.derivative(y)
            worst_diff = max(
                worst_diff,
                abs(abs(psi(y) - psi(x)) - abs(dx) ** 0.5 * abs(dy) ** 0.5 * abs(y - x)),
            )
            worst_inner = max(
                worst_inner,
                abs(
                    abs(1 - psi(x) * np.conj(psi(y)))
                    - abs(dx) ** 0.5 * abs(dy) ** 0.5 * abs(1 - x * np.conj(y))
                ),
            )
            worst_green = max(worst_green, abs(ge.mobius_green_residual(psi, x, y)))
        assert worst_diff < 1e-12
        assert worst_inner < 1e-12
        assert worst_green < 1e-12

    def test_green_identity_spec_point(self):
        psi = MobiusMap(a=0.3 + 0.1j, alpha=1.0)
        assert abs(ge.mobius_green_residual(psi, 0.2, -0.4j)) < 1e-12

    def test_inverse_roundtrip(self):
        psi = MobiusMap(a=0.4 - 0.2j, alpha=0.7)
        inv = psi.inverse()
        z = 0.3 + 0.55j
        assert abs(inv(psi(z)) - z) < 1e-14
        assert abs(psi(inv(z)) - z) < 1e-14

    def test_boundary_to_boundary(self):
        psi = MobiusMap(a=0.6j, alpha=2.0)
        theta = np.linspace(0, 2 * np.pi, 17)
        assert np.max(np.abs(np.abs(psi(np.exp(1j * theta))) - 1.0)) < 1e-14


class TestParamsAndWeights:
    def test_background_charge(self):
        p = LiouvilleParams(gamma=math.sqrt(8.0 / 3.0))
        assert p.Q == pytest.approx(2.0412414523193148, abs=1e-12)
        assert p.central_charge == pytest.approx(1 + 6 * p.Q**2)

    def test_weight_at_gamma_is_one(self):
        for g in (0.5, 1.0, 1.5, 1.9):
            p = LiouvilleParams(gamma=g)
            assert conformal_weight(g, p) == pytest.approx(1.0, abs=1e-14)

    def test_weight_zero_and_Q(self):
        p = LiouvilleParams(gamma=1.2)
        assert conformal_weight(0.0, p) == 0.0
        assert conformal_weight(p.Q, p) == pytest.approx(p.Q**2 / 4.0, abs=1e-14)

    def test_weight_spec_value(self):
        p = LiouvilleParams(gamma=math.sqrt(8.0 / 3.0))
        # direct algebra: (1/2)(Q - 1/2)
        assert conformal_weight(1.0, p) == pytest.approx(0.5 * (p.Q - 0.5), abs=1e-15)
        assert conformal_weight(1.0, p) == pytest.approx(0.7706207, abs=1e-7)

    def test_invalid_params(self):
        with pytest.raises(Exception):
            LiouvilleParams(gamma=2.5)
        with pytest.raises(Exception):
            LiouvilleParams(gamma=1.0, mu=0.0, mu_boundary=0.0)

    def test_poincare(self):
        assert poincare_density(0.0) == 1.0
        assert poincare_density(0.5) == pytest.approx(1.0 / 0.75**2)
        with pytest.raises(BoundaryPointError):
            poincare_density(1.0)


class TestCurvatures:
    def test_flat(self):
        f = ConformalFactor.constant(0.0, 32, 64)
        r_curv, k_curv = curvatures(f)
        assert np.max(np.abs(r_curv)) == 0.0
        assert np.max(np.abs(k_curv - 1.0)) == 0.0

    def test_constant_factor(self):
        c = 0.7
        f = ConformalFactor.constant(c, 32, 64)
        r_curv, k_curv = curvatures(f)
        assert np.max(np.abs(r_curv)) < 1e-12
        assert np.max(np.abs(k_curv - math.exp(-c / 2.0))) < 1e-12

    def test_grid_too_coarse(self):
        with pytest.raises(GridError):
            ConformalFactor.constant(0.0, 8, 64)

    def test_gauss_bonnet_quadratic_factor(self):
        f = ConformalFactor.from_function(lambda z: 1 - np.abs(z) ** 2, 64, 128)
        assert gauss_bonnet(f) == pytest.approx(4 * math.pi, abs=1e-6)

    def test_gauss_bonnet_refinement_order(self):
        def phi(z):
            return 0.5 * (1 - np.abs(z) ** 2) + 0.3 * np.real(z) ** 2 * np.imag(z) + 0.1 * np.cos(np.real(z))

        errs = []
        for n in (32, 64, 128):
            f = ConformalFactor.from_function(phi, n, 2 * n)
            errs.append(abs(gauss_bonnet(f) - 4 * math.pi))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


class TestWeylAnomaly:
    def test_zero_factor(self):
        p = LiouvilleParams(gamma=1.0)
        base = ConformalFactor.constant(0.0, 32, 64)
        assert weyl_anomaly(base, base, p) == 0.0

    def test_constant_shift_closed_form(self):
        p = LiouvilleParams(gamma=1.3)
        base = ConformalFactor.constant(0.0, 64, 128)
        c = 0.8
        f = ConformalFactor.constant(c, 64, 128)
        want = (1 + 6 * p.Q**2) * c / 12.0
        assert weyl_anomaly(f, base, p) == pytest.approx(want, abs=1e-10)

    def test_dirichlet_energy_closed_forms(self):
        # phi = Re z: |grad|^2 = 1, integral pi; phi = Re z^2: |grad|^2 = 4 r^2;
        # the angular differences make the scheme second order, so check the
        # values at matching tolerance and the convergence order explicitly
        errs = []
        for n in (64, 256):
            f1 = ConformalFactor.from_function(lambda z: np.real(z), n, 2 * n)
            errs.append(abs(dirichlet_energy(f1) - math.pi))
        assert errs[0] < 2e-3 and errs[1] < 2e-4
        assert errs[0] / errs[1] > 10.0
        f2 = ConformalFactor.from_function(lambda z: np.real(z**2), 256, 512)
        assert dirichlet_energy(f2) == pytest.approx(2 * math.pi, rel=2e-4)

    def test_cocycle_additivity(self):
        p = LiouvilleParams(gamma=1.0)
        n = 256

        def phi1(z):
            return 0.3 * (1 - np.abs(z) ** 2) + 0.2 * np.real(z) * np.imag(z)

        def phi2(z):
            return -0.25 + 0.4 * np.real(z) ** 2 - 0.1 * np.imag(z) ** 3

        base = ConformalFactor.constant(0.0, n, 2 * n)
        f1 = ConformalFactor.from_function(phi1, n, 2 * n)
        f2 = ConformalFactor.from_function(phi2, n, 2 * n)
        lhs = weyl_anomaly(f1 + f2, base, p)
        rhs = weyl_anomaly(f1, base, p) + weyl_anomaly(f2, f1, p)
        assert lhs == pytest.approx(rhs, abs=2e-6)

    def test_mismatched_grids(self):
        p = LiouvilleParams(gamma=1.0)
        with pytest.raises(GridError):
            weyl_anomaly(
                ConformalFactor.constant(0.0, 32, 64), ConformalFactor.constant(0.0, 64, 128), p
            )
