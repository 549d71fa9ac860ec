import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from lqgdisk.errors import (
    ConfigurationError,
    DomainError,
    GridError,
    NotAdmissibleError,
    ResamplingError,
)
from lqgdisk.geometry import LiouvilleParams, MobiusMap, green, weyl_anomaly, ConformalFactor
from lqgdisk.gff import FieldSampler, RngStream, arc_centers
from lqgdisk.gmc import graded_disk_grid
from lqgdisk.liouville import (
    ChaosBasis,
    InsertionSet,
    boundary_drift_factors,
    bulk_drift_factors,
    insertion_drift,
    kpz_log_weight,
    kpz_ratio_test,
    log_constant,
    mobius_moved,
    partition_estimate,
    sample_liouville_triple,
    seiberg_check,
    unit_volume_expectation,
    volume_law_params,
)
from tests_support import batched_bulk_masses

GAMMA_83 = math.sqrt(8.0 / 3.0)


@pytest.fixture(scope="module")
def basis83():
    return ChaosBasis(GAMMA_83, 200, RngStream(70, 0), depth=6)


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
        basis = ChaosBasis(1.2, 3, RngStream(71, 0), depth=5, n_modes=256, n_arcs=128)
        bulk_tot, bdry_tot = basis.drifted_totals(ins)
        assert np.array_equal(bulk_tot, basis.bulk_masses @ np.ones(basis.grid.size))
        assert np.array_equal(bdry_tot, basis.bdry_masses @ np.ones(128))
        pairs = basis.functional_values(ins, lambda pair: pair)
        for r, pair in enumerate(pairs):
            assert np.array_equal(pair.bulk.masses, basis.bulk_masses[r])
            assert np.array_equal(pair.boundary.masses, basis.bdry_masses[r])

    def test_inadmissible_rejected(self):
        p = LiouvilleParams(gamma=1.2, mu=1.0)
        ins = InsertionSet(params=p, bulk=((0.3, 0.1),))  # s_total < 0
        basis = ChaosBasis(1.2, 3, RngStream(71, 2), depth=5, n_modes=256)
        with pytest.raises(NotAdmissibleError):
            sample_liouville_triple(ins, 10, RngStream(71, 3), basis=basis)

    def test_boundary_insertion_every_replica_finite(self):
        p = LiouvilleParams(gamma=1.5, mu=1.0)
        beta = 0.9 * p.Q
        bdry = tuple((np.exp(2j * np.pi * k / 3), beta) for k in range(3))
        ins = InsertionSet(params=p, boundary=bdry)
        assert seiberg_check(ins).admissible
        basis = ChaosBasis(1.5, 150, RngStream(71, 4), depth=6)
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


class TestPartition:
    def test_two_path_consistency(self, basis83):
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        v1, s1 = partition_estimate(ins, basis=basis83, method="gamma")
        v2, s2 = partition_estimate(ins, basis=basis83, method="quadrature")
        assert abs(v2 - v1) / v1 < 1e-6

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
        v1, _ = partition_estimate(ins1, basis=basis83, method="gamma")
        v4, _ = partition_estimate(ins4, basis=basis83, method="gamma")
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

    def test_y_integral_checks_quadrature_error(self, basis83, monkeypatch):
        # a y-quadrature whose error estimate is half its value must not pass
        monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (1.0, 0.5))
        p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
        with pytest.raises(ResamplingError, match="y-integral"):
            sample_liouville_triple(ins, 10, RngStream(72, 5), basis=basis83)

    def test_gamma_law_second_insertion_set(self):
        # a different admissible set at a different coupling
        g = 1.2
        p = LiouvilleParams(gamma=g, mu=2.0, mu_boundary=0.0)
        ins = InsertionSet(
            params=p, bulk=((0.3, 1.0), (-0.2 + 0.4j, 0.9)), boundary=((1.0, 0.8),)
        )
        shape, rate = volume_law_params(ins)
        basis = ChaosBasis(g, 200, RngStream(72, 3), depth=6)
        draws = sample_liouville_triple(ins, 4000, RngStream(72, 4), basis=basis)
        ks = scipy.stats.kstest(draws["V"], "gamma", args=(shape, 0.0, 1.0 / rate))
        assert ks.pvalue > 0.01


class TestKPZ:
    def test_paired_ratio_two_sets_two_maps(self):
        gamma = 1.5
        p = LiouvilleParams(gamma=gamma, mu=1.0, mu_boundary=0.0)
        maps_ = [MobiusMap(a=0.3, alpha=0.0), MobiusMap(a=0.2 + 0.25j, alpha=1.0)]
        sets = [
            InsertionSet(params=p, bulk=((0.55, 1.1), (-0.35 + 0.2j, 1.1))),
            InsertionSet(params=p, bulk=((0.5j, 0.75), (-0.45, 0.75), (0.3 - 0.4j, 0.75))),
        ]
        basis = ChaosBasis(gamma, 800, RngStream(73, 0), depth=6)
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

        basis = ChaosBasis(GAMMA_83, 400, RngStream(74, 0), depth=6)
        v1, se1, _ = unit_volume_expectation(ins, half, basis=basis)
        basis2 = ChaosBasis(GAMMA_83, 400, RngStream(74, 1), depth=6)
        v2, se2, _ = unit_volume_expectation(ins, half_rot, basis=basis2)
        assert abs(v1 - v2) < 3 * math.sqrt(se1**2 + se2**2)

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
