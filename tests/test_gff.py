import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lqgdisk import cli, gff, io
from lqgdisk.errors import FactorizationError, GridError, UnsupportedSeparationError
from lqgdisk.critical import boundary_ladder_totals
from lqgdisk.geometry import LiouvilleParams, green, poincare_density
from lqgdisk.gff import (
    ROTATION_ORDER,
    FieldSampler,
    RngStream,
    RotationSampler,
    TraceSampler,
    arc_centers,
    covariance_entries,
    neumann_covariance,
    replica_map,
)
from lqgdisk.gmc import bulk_masses, graded_disk_grid
from lqgdisk.liouville import ChaosBasis, InsertionSet
from tests_support import (
    basis_reference,
    boundary_coefficient_chunks,
    boundary_coefficients,
    cell_by_cell_csv,
    dense_trace,
    traced_peak,
    truncated_boundary_covariance,
)


SRC = os.path.dirname(os.path.dirname(gff.__file__))
# prints whether FieldSampler's draw and 2-column draw_batch on graded_disk_grid(4) are, bit for bit, those
# of scipy's lower Cholesky factor (with 7 or more columns a C-ordered factor happens to round the same)
FACTOR_LAYOUT_PROBE = """
import numpy as np, scipy.linalg
from lqgdisk.gff import FieldSampler, RngStream
from lqgdisk.gmc import graded_disk_grid
grid = graded_disk_grid(4)
sampler = FieldSampler(grid.centers, grid.eps)
factor = scipy.linalg.cholesky(sampler.covariance, lower=True)
z = RngStream(5, 0).generator().standard_normal(len(grid.centers))
batch = RngStream(5, 1).generator().standard_normal((len(grid.centers), 2))
print(np.array_equal(sampler.draw(RngStream(5, 0)), factor @ z),
      np.array_equal(sampler.draw_batch(2, RngStream(5, 1)), factor @ batch))
"""


def batched_trace_values(n_modes, n_arcs, n_replicas, rng):
    """Trace values of many replicas at the centers of n_arcs equal arcs."""
    return TraceSampler(n_modes, n_arcs).fields(boundary_coefficients(n_modes, n_replicas, rng))


class TestBoundaryTrace:
    def test_build_memory(self):
        # 2,048 modes on 4,096 arcs, built and synthesized for one block of 64 traces: the fold and
        # D, 4 MB each, then the half spectrum and the traces, 2 MB each (8.3 MB measured); through
        # the 128 MB synthesis matrix, 132 MB
        noise = np.zeros((64, 2, 2048))
        peak = traced_peak(lambda: TraceSampler(2048, 4096).fields(noise))
        assert peak < 10 * 2**20

    def test_ladder_memory(self):
        # the top level of the boundary ladder, 1,000 replicas drawn and synthesized in blocks of 64
        # (13.0 MB measured); drawn at once and synthesized through the matrix, 222 MB
        peak = traced_peak(lambda: boundary_ladder_totals([2048], 1000, RngStream(9, 1)))
        assert peak < 16 * 2**20

    def test_zero_boundary_mean_every_draw(self):
        # no constant mode: the uniform-grid mean vanishes to roundoff
        vals = batched_trace_values(128, 4096, 5, RngStream(3, 0))
        assert np.max(np.abs(np.mean(vals, axis=1))) < 1e-12

    def test_covariance_at_pi(self):
        # alternating series sum 2(-1)^n/n -> -2 ln 2
        n_modes = 1024
        analytic = truncated_boundary_covariance(np.pi, n_modes)
        series = 2.0 * np.sum((-1.0) ** np.arange(1, n_modes + 1) / np.arange(1, n_modes + 1))
        assert analytic == pytest.approx(series, abs=1e-12)
        assert analytic == pytest.approx(-2 * math.log(2), abs=2e-3)
        # the two arc centers pi/2 and 3 pi/2 lie pi apart; the 100,000 coefficient rows are
        # drawn and synthesized in blocks, so only the arc values of all of them are kept
        trace = TraceSampler(n_modes, 2)
        chunks = boundary_coefficient_chunks(n_modes, 100000, RngStream(5, 1), 2000)
        vals = np.concatenate([trace.fields(coef) for coef in chunks])
        emp = np.mean(vals[:, 0] * vals[:, 1])
        se = np.std(vals[:, 0] * vals[:, 1], ddof=1) / math.sqrt(len(vals))
        assert abs(emp - analytic) < 3 * se

    def test_coefficient_chunks_are_one_draw(self):
        whole = boundary_coefficients(16, 11, RngStream(5, 1))
        chunks = list(boundary_coefficient_chunks(16, 11, RngStream(5, 1), 4))
        assert [len(c) for c in chunks] == [4, 4, 3]
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_covariance_at_half_pi(self):
        # chord sqrt(2): limit is -ln 2
        analytic = truncated_boundary_covariance(np.pi / 2, 4096)
        assert analytic == pytest.approx(-math.log(2), abs=1e-3)

    def test_truncate_shares_coefficients(self):
        # ladder level N synthesizes the first N modes of one shared coefficient block
        _, plain = boundary_ladder_totals([64, 256], 40, RngStream(9, 0))
        coef = boundary_coefficients(256, 40, RngStream(9, 0))[:, :, :64]
        var = 2.0 * math.fsum(1.0 / n for n in range(1, 65))
        want = np.exp(dense_trace(coef, arc_centers(128)) - var / 2.0).sum(axis=1) * (2.0 * np.pi / 128)
        assert np.allclose(plain[0], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "n_modes, n_arcs",
        [(1024, 256), (64, 256), (5, 7), (1, 1), (257, 256), (512, 256), (2048, 4096), (1, 8192)],
    )
    def test_trace_sampler_matches_dense_reference(self, n_modes, n_arcs):
        # modes above n_arcs / 2 alias on the arc centers; the sampler must keep them.  Mode 256 of
        # 257 lands on bin 0, modes 257-512 on 256 arcs fold with sign -1, (2048, 4096) is the
        # boundary ladder's top level and (1, 8192) has far fewer modes than arcs
        trace = TraceSampler(n_modes, n_arcs)
        assert trace.noise_shape == (2, n_modes)
        assert np.array_equal(trace.theta, 2.0 * np.pi * (np.arange(n_arcs) + 0.5) / n_arcs)
        want_var = 2.0 * math.fsum(1.0 / n for n in range(1, n_modes + 1))
        assert trace.variance == pytest.approx(want_var, rel=1e-14)
        coef = boundary_coefficients(n_modes, 300, RngStream(16, 0))
        want = dense_trace(coef, trace.theta)
        got = trace.fields(coef)
        assert got.shape == (300, n_arcs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

    def test_covariance_is_built_in_row_chunks(self):
        # 1,152 points take 11 chunks of rows, the last one short; the build holds the matrix and one chunk
        grid = graded_disk_grid(6)
        pts, eps = grid.centers, grid.eps
        cov = neumann_covariance(pts, eps)
        assert np.array_equal(cov, covariance_entries(pts[:, None], pts[None, :], eps[:, None]))
        assert traced_peak(lambda: neumann_covariance(pts, eps)) < 2 * cov.nbytes

    def test_factor_falls_back_to_the_symmetric_root(self, monkeypatch):
        def refuse(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        grid = graded_disk_grid(4)
        sampler = FieldSampler(grid.centers, grid.eps)
        f, c = sampler._factor, sampler.covariance
        np.testing.assert_allclose(f @ f.T, c, rtol=0.0, atol=1e-10 * np.max(np.abs(c)))
        np.testing.assert_allclose(f, f.T, rtol=0.0, atol=1e-14 * np.max(np.abs(f)))

    def test_draws_are_those_of_a_fortran_ordered_factor(self):
        # numpy's Cholesky factor has the entries of scipy's (at 2 OpenBLAS threads; at 1 they differ in
        # the last bits at some sizes) but comes C-ordered, and a C-ordered factor's products round differently
        out = subprocess.run([sys.executable, "-c", FACTOR_LAYOUT_PROBE], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"})
        assert out.stdout.split() == ["True", "True"]


def dense_rotation_covariance(sampler):
    """Covariance of sampler.fields, from its values on each unit noise vector."""
    size = int(np.prod(sampler.noise_shape))
    unit = np.eye(size).reshape(size, *sampler.noise_shape)
    rows = np.concatenate([sampler.fields(unit[i : i + 256]) for i in range(0, size, 256)])
    return rows.T @ rows


class TestRotationSampler:
    @pytest.mark.parametrize(
        "shape",
        [(4, 2, 2.0), (5, 2, 2.0), (6, 2, 2.0), (7, 2, 2.0), (5, 3, 0.5), (5, 1, 8.0)],
        ids=["4", "5", "6", "7", "5-3-0.5", "5-1-8.0"],
    )
    def test_embedding_matches_dense_covariance(self, shape):
        grid = graded_disk_grid(*shape)
        sampler = RotationSampler(grid)
        dense = neumann_covariance(grid.centers, grid.eps)
        cov = dense_rotation_covariance(sampler)
        assert np.max(np.abs(cov - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert np.array_equal(sampler.variances, np.diag(dense))
        assert sampler.min_eigenvalue > 0.0

    def test_empirical_covariance(self):
        grid = graded_disk_grid(5, 2, 2.0)
        sampler = RotationSampler(grid)
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

    def test_build_memory(self):
        # the grid's ring-by-ring circle check builds no m x m matrix (m = 2,336 at depth 7), and
        # the blocks, their FFT and the roots are built in chunks (12.6 MB measured, 17.4 MB before)
        assert traced_peak(lambda: RotationSampler(graded_disk_grid(7))) < 16 * 2**20

    def test_grid_memory(self):
        # the ring-pair circle checks compare a few rows at a time (4.4 MB measured, 61 MB in one piece)
        assert traced_peak(lambda: graded_disk_grid(8)) < 8 * 2**20

    def test_negative_eigenblock_raises(self, monkeypatch):
        entries = gff.covariance_entries
        # a constant shift of every c(d) moves the q = 0 block alone, by 16 times the shift
        monkeypatch.setattr(gff, "covariance_entries", lambda *a: entries(*a) - 1000.0)
        grid = graded_disk_grid(4, 2, 2.0)
        with pytest.raises(FactorizationError):
            RotationSampler(grid)

    def test_replica_noise_ignores_block_size(self, monkeypatch):
        streams = [RngStream(15, r) for r in range(11)]
        want = np.stack([s.generator().standard_normal((3, 4)) for s in streams])
        assert np.array_equal(replica_map(lambda b: b, streams, (3, 4)), want)
        for block in (4, 5):
            monkeypatch.setattr(gff, "REPLICA_BLOCK", block)
            assert np.array_equal(replica_map(lambda b: b, streams, (3, 4)), want), block

    def test_results_keep_the_layout_of_fn(self):
        # as np.concatenate of the blocks did: a caller's reductions of the results may read
        # their layout
        streams = [RngStream(15, r) for r in range(11)]
        got = replica_map(lambda b: np.asfortranarray(b.reshape(len(b), -1)), streams, (3, 4))
        assert got.flags.f_contiguous and got.shape == (11, 12)

    def test_fields_are_c_ordered(self):
        # drifted_totals and the masses' sums read the fields' layout
        rotation, trace = RotationSampler(graded_disk_grid(5)), TraceSampler(1024, 256)
        for block in REPLICA_BLOCKS:
            for sampler in (rotation, trace):
                x = sampler.fields(np.zeros((block, *sampler.noise_shape)))
                assert x.flags.c_contiguous and x.shape[0] == block, (sampler, block)

    def test_blocks_of_few_modes_on_many_arcs_stay_bounded(self):
        # 10 traces of one mode on 8,192 arcs: one block of 64 rows of arc values (4 MB) and
        # the temporaries of its masses, however few noise values a replica draws
        config = {"gamma": 1.0, "n_modes": 1, "n_arcs": 8192, "n_replicas": 10}
        peak = traced_peak(lambda: cli.run_gmc_boundary(config, 1))
        assert peak < 4 * 128 * 8192 * 8

    @pytest.mark.parametrize("depth", [5, 7])
    def test_totals_ignore_replica_block(self, depth, monkeypatch):
        # 230 replicas leave a padded last block at every size; 64 is REPLICA_BLOCK
        grid = graded_disk_grid(depth)
        sampler = RotationSampler(grid)
        weights = grid.density_weights(0.5)
        streams = [RngStream(16, r) for r in range(230)]

        def block_totals(noise):
            return bulk_masses(sampler.fields(noise), sampler.variances, weights, 1.0).sum(axis=1)

        want = replica_map(block_totals, streams, sampler.noise_shape)
        for block in REPLICA_BLOCKS:
            monkeypatch.setattr(gff, "REPLICA_BLOCK", block)
            assert np.array_equal(replica_map(block_totals, streams, sampler.noise_shape), want), block

    def test_basis_masses_ignore_replica_block(self, monkeypatch):
        # each block of masses is reduced by its own products, and each trace is its own folds
        # and inverse FFT, so no block size moves the bits of a pair or of a total
        g = math.sqrt(8.0 / 3.0)
        p = LiouvilleParams(gamma=g, mu=1.0, mu_boundary=0.5)
        ins = InsertionSet(params=p, bulk=((0.0, g),), boundary=((1.0, g),))
        rng = RngStream(17, 1)

        def basis(block):
            monkeypatch.setattr(gff, "REPLICA_BLOCK", block)
            return ChaosBasis(g, 230, rng, graded_disk_grid(5), TraceSampler(1024, 256))

        want = basis(64)
        fb, fd = want.drift_factors(ins)
        want_totals = basis_reference(want, rng, fb, fd)
        bulk, bdry = basis_reference(want, rng)
        for block in REPLICA_BLOCKS:
            got = basis(block)
            for a, b in zip(got.drifted_totals(ins), want_totals):
                assert np.array_equal(a, b), block
            for r, pair in enumerate(got.functional_values(ins, lambda pair: pair)):
                assert np.array_equal(pair.bulk.masses, bulk[r] * fb), (block, r)
                assert np.array_equal(pair.boundary.masses, bdry[r] * fd), (block, r)


# replicas per block that the block tests try (64 is REPLICA_BLOCK)
REPLICA_BLOCKS = (8, 16, 56, 64, 128, 224)


class TestCircleCheck:
    def test_memory_at_4096_points(self):
        # validate on a field-sample config reads its points and checks every pair of circles;
        # in one piece the 4,096 x 4,096 check took 384 MB
        side = np.linspace(-0.6, 0.6, 64)
        config = {"points": [[x, y] for x in side for y in side], "eps": 0.009}
        findings = []
        peak = traced_peak(lambda: findings.extend(cli.validate(config, "field-sample")))
        assert findings == [] and peak < 16 * 2**20

    @pytest.mark.parametrize("chunk", [8, gff.BUILD_CHUNK])
    def test_coincident_points_are_reported_before_overlap(self, monkeypatch, chunk):
        # at chunk 8 each row of pairs is compared alone: the overlap (rows 0 and 1) is seen
        # before the coincident pair (rows 48 and 49)
        monkeypatch.setattr(gff, "BUILD_CHUNK", chunk)
        pts = 0.8 * np.exp(2j * np.pi * np.arange(50) / 50)
        pts[1] = pts[0] + 0.01
        with pytest.raises(UnsupportedSeparationError):
            gff.check_averaging_circles(pts, 0.006)
        pts[49] = pts[48]
        with pytest.raises(GridError):
            gff.check_averaging_circles(pts, 0.006)


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
    def test_csv_rows_match_the_cell_by_cell_writer(self, tmp_path):
        rows = [
            (True, False, np.True_, np.int64(-7), np.uint8(255), 2**70, "x y"),
            (math.nan, math.inf, -math.inf, -0.0, 0.1, np.float32(0.1), np.float64(1e-300)),
            (np.int32(3), "", -1, 5e-324, np.float64(-math.inf), np.nan, np.float64(-0.0)),
        ]
        rows += list(zip(np.arange(-3, 3), np.linspace(-1, 1, 6), np.array(["a", "b"] * 3)))
        header = ["c%d" % i for i in range(7)]
        got = io.write_csv(str(tmp_path / "got.csv"), header, iter(rows))
        want = cell_by_cell_csv(str(tmp_path / "want.csv"), header, iter(rows))
        with open(got) as fg, open(want) as fw:
            assert fg.read() == fw.read()

    def test_field_roundtrip(self, tmp_path, capsys):
        # the field-sample snapshot: a CSV of re,im,value and a JSON sidecar
        pts = np.array([0.1, 0.4j, -0.2 - 0.3j])
        values = FieldSampler(pts, 0.02).draw(RngStream(13, 0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": [[p.real, p.imag] for p in pts], "eps": 0.02}))
        assert cli.main(["field-sample", "--config", str(cfg), "--seed", "13", "--out", str(tmp_path)]) == 0
        base = tmp_path / "field-sample" / "field-sample"
        with open(f"{base}.csv") as fh:
            assert fh.readline().strip() == "re,im,value"
            rows = [[float(c) for c in line.split(",")] for line in fh]
        # 17 significant digits read back to the same floats
        assert np.array_equal([complex(r[0], r[1]) for r in rows], pts)
        assert np.array_equal([r[2] for r in rows], values)
        sidecar = json.loads(base.with_suffix(".json").read_text())
        assert sidecar == {"eps": 0.02, "n_points": 3, "seed": 13, "stream_id": 0}
