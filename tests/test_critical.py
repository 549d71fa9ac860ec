import math
import threading

import numpy as np
import pytest

from lqgdisk import critical
from lqgdisk.critical import (
    SectorSampler,
    boundary_ladder_totals,
    bulk_ladder_totals,
    check_bulk_ladder,
    coarsen_noise,
    median,
    median_ratios,
    sector_spectrum,
)
from lqgdisk.errors import ConfigurationError, FactorizationError, GridError
from lqgdisk.gff import RngStream, arc_centers, neumann_covariance
from lqgdisk.gmc import window_sector_grid
from tests_support import dense_trace, one_shot_sector, serial_bulk_ladder, traced_peak


class TestCriticalMeasures:
    def test_bulk_push_factor(self):
        pushed, plain = bulk_ladder_totals([4, 5], 50, RngStream(61, 0))
        for k, tp, tn in zip([4, 5], pushed, plain):
            eps = window_sector_grid(k).eps
            assert np.all(eps == eps[0])
            assert np.allclose(tp / tn, np.sqrt(np.log(1.0 / eps[0])), rtol=1e-12)
            assert np.all(np.isfinite(tp))

    def test_boundary_variance_matched_norming(self):
        pushed, plain = boundary_ladder_totals([128], 20, RngStream(61, 1))
        coef = RngStream(61, 1).generator().standard_normal((20, 2, 128))
        var = 2.0 * math.fsum(1.0 / n for n in range(1, 129))
        for x, tp, tn in zip(dense_trace(coef, arc_centers(256)), pushed[0], plain[0]):
            masses = np.exp(x - var / 2.0) * (2.0 * math.pi / 256)
            assert tn == pytest.approx(masses.sum(), rel=1e-12)
            assert tp == pytest.approx(math.sqrt(var / 2.0) * masses.sum(), rel=1e-12)

    def test_all_replica_masses_finite(self):
        totals, _ = boundary_ladder_totals([64, 256], 500, RngStream(61, 2))
        assert all(np.all(np.isfinite(t)) and np.all(t > 0) for t in totals)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 1499, 1500, 2500, 2501, 20000])
    def test_median_is_numpys(self, n):
        # odd and even lengths, the ladder's replica counts among them; ties included
        rng = np.random.default_rng(n)
        for x in (rng.lognormal(size=n), np.round(rng.standard_normal(n), 1)):
            want = np.median(x)
            got = median(x)
            assert got == want and type(got) is type(want), n


class TestSectorSampler:
    @pytest.mark.parametrize("depth", [4, 5, 6, 7, 8])
    def test_embedding_matches_dense_covariance(self, depth):
        sampler = SectorSampler(depth)
        n_r, n_emb = sampler.noise_shape
        n_t = sampler.n_angles
        circulant = np.fft.irfft(sector_spectrum(sampler.grid), n=n_emb, axis=0)
        j = np.arange(n_t)
        offsets = (j[:, None] - j[None, :]) % n_emb
        # entry ((i, j), (i', j')) of the sector covariance is circulant[(j - j') mod M][i, i']
        cov = circulant[offsets].transpose(2, 0, 3, 1).reshape(n_r * n_t, n_r * n_t)
        dense = neumann_covariance(sampler.grid.centers, sampler.grid.eps)
        assert np.max(np.abs(cov - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert np.allclose(sampler.variances, np.diag(dense), rtol=1e-13, atol=0.0)
        assert sampler.min_eigenvalue > 0.0

    def test_empirical_covariance(self):
        sampler = SectorSampler(6)
        dense = neumann_covariance(sampler.grid.centers, sampler.grid.eps)
        gen = RngStream(64, 0).generator()
        n_draws, chunk = 200_000, 20_000
        second = np.zeros_like(dense)
        for _ in range(n_draws // chunk):
            x = sampler.fields(gen.standard_normal((chunk, *sampler.noise_shape)))
            second += x.T @ x
        emp = second / n_draws
        se = np.sqrt((np.outer(np.diag(dense), np.diag(dense)) + dense**2) / n_draws)
        assert np.max(np.abs(emp - dense) / se) < 5.0

    @pytest.mark.parametrize("depth", [4, 5, 6, 7, 8, 9])
    def test_chunked_build_is_the_one_shot_build(self, depth):
        sampler = SectorSampler(depth)
        spectrum, root, variances, min_eigenvalue = one_shot_sector(depth)
        assert np.array_equal(sector_spectrum(sampler.grid), spectrum)
        assert np.array_equal(sampler._root, root)
        assert np.array_equal(sampler.variances, variances)
        assert sampler.min_eigenvalue == min_eigenvalue

    def test_coarsening_rows_are_orthonormal(self):
        fine = (8, 16)
        basis = np.eye(np.prod(fine)).reshape(-1, *fine)
        p = coarsen_noise(basis).reshape(len(basis), -1).T
        assert p.shape == (32, 128)
        assert np.array_equal(p @ p.T, np.eye(32))

    def test_consecutive_levels_are_coupled(self):
        _, plain = bulk_ladder_totals([5, 6, 7, 8], 400, RngStream(65, 0))
        for lo, hi in zip(plain, plain[1:]):
            assert np.corrcoef(np.log(lo), np.log(hi))[0, 1] > 0.9

    def test_replica_block_changes_no_draw(self, monkeypatch):
        # every replica gets the same noise whatever the block size; only the
        # last bits of the batched matrix products may move
        levels, reps = [4, 5, 6, 7], [1300, 1000, 700, 450]
        want = bulk_ladder_totals(levels, reps, RngStream(66, 0))
        monkeypatch.setattr(critical, "BUILD_CHUNK", 97)
        got = bulk_ladder_totals(levels, reps, RngStream(66, 0))
        for a, b in zip(want, got):
            assert all(np.allclose(x, y, rtol=1e-12, atol=0.0) for x, y in zip(a, b))

    @pytest.mark.parametrize("noise_block", [None, 97], ids=["default-block", "ragged-blocks"])
    def test_worker_draws_are_the_serial_draws(self, monkeypatch, noise_block):
        if noise_block is not None:
            monkeypatch.setattr(critical, "BUILD_CHUNK", noise_block)
        levels, reps = [4, 5, 6, 7], [1300, 1000, 700, 450]
        report = {}
        got = bulk_ladder_totals(levels, reps, RngStream(66, 1), report)
        want = serial_bulk_ladder(levels, reps, RngStream(66, 1))
        for a, b in zip(got, want):
            assert len(a) == len(b) == 4
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert report["segments"] > (10 if noise_block else 1)
        assert report["noise_wait_s"] >= 0.0

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        coarsen, calls = critical.coarsen_noise, []

        def failing(noise):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third coarsening")
            return coarsen(noise)

        monkeypatch.setattr(critical, "coarsen_noise", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third coarsening"):
            bulk_ladder_totals([4, 5, 6, 7], [1300, 1000, 700, 450], RngStream(66, 2))
        assert threading.active_count() == threads

    def test_caller_exception_stops_the_worker(self, monkeypatch):
        def failing(*args):
            raise RuntimeError("masses")

        monkeypatch.setattr(critical, "bulk_masses", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="masses") as caught:
            bulk_ladder_totals([4, 5, 6, 7], [1300, 1000, 700, 450], RngStream(66, 2))
        # the traceback keeps the ladder's frame alive: the worker must be gone all the same
        assert caught.traceback and threading.active_count() == threads

    def test_negative_eigenblock_raises(self, monkeypatch):
        entries = critical.covariance_entries
        # a constant shift of every c(d) moves the q = 0 block alone, by M times the shift
        monkeypatch.setattr(critical, "covariance_entries", lambda *a: entries(*a) - 1000.0)
        with pytest.raises(FactorizationError):
            SectorSampler(5)


class TestLadderConfig:
    @pytest.mark.parametrize(
        "levels, n_replicas",
        [([4, 5, 6], [200, 200]), ([4, 5], [200, 200, 200]), ([4, 5], [200, 0]), ([5, 4], 10)],
        ids=["short", "long", "zero-count", "decreasing"],
    )
    def test_bad_ladders_rejected(self, levels, n_replicas):
        with pytest.raises(ConfigurationError):
            bulk_ladder_totals(levels, n_replicas, RngStream(67, 0))

    @pytest.mark.parametrize(
        "mode_levels, n_replicas, error",
        [
            ([64, 128], [100], ConfigurationError),
            ([64, 128], [100, 0], ConfigurationError),
            ([128, 64], 10, ConfigurationError),
            ([0, 64], 10, GridError),
        ],
        ids=["short", "zero-count", "decreasing", "no-modes"],
    )
    def test_bad_boundary_ladders_rejected(self, mode_levels, n_replicas, error):
        with pytest.raises(error):
            boundary_ladder_totals(mode_levels, n_replicas, RngStream(67, 1))

    def test_boundary_levels_share_one_coefficient_block(self):
        levels = [64, 128, 256]
        pushed, plain = boundary_ladder_totals(levels, [300, 200, 100], RngStream(67, 2))
        assert [len(t) for t in pushed] == [len(t) for t in plain] == [300, 200, 100]
        _, full = boundary_ladder_totals(levels, 300, RngStream(67, 2))
        for t, f in zip(plain, full):
            assert np.allclose(t, f[: len(t)], rtol=1e-12, atol=0.0)

    def test_level_limit(self):
        with pytest.raises(GridError, match="from 4 to 10"):
            check_bulk_ladder([9, 10, 11], 10)
        with pytest.raises(GridError, match="from 4 to 10"):
            check_bulk_ladder([3, 4], 10)

    def test_level_ten_ladder(self):
        pushed, plain = bulk_ladder_totals([9, 10], [20, 10], RngStream(68, 0))
        assert [len(t) for t in plain] == [20, 10]
        for t in pushed + plain:
            assert np.all(np.isfinite(t)) and np.all(t > 0)


class TestWorkingSet:
    def test_ladder_blocks_are_bounded(self):
        # a 200-replica level-9 block of noise alone would be 26 MB, with several copies behind it
        peak = traced_peak(lambda: bulk_ladder_totals([8, 9], [400, 200], RngStream(69, 0)))
        assert peak < 48 * 2**20

    def test_sector_build_is_chunked(self):
        # the level-9 spectrum is 8.5 MB and its roots are written over it (12.8 MiB measured; 22.9 MiB into a
        # separate root); the whole embedding would add 60 MB more
        assert traced_peak(lambda: SectorSampler(9)) < 18 * 2**20

    def test_block_fields_overwrite_their_noise(self):
        # one 16-replica level-9 block, 2 MB of noise: the call holds its spectrum and one chunk of products
        # (2.53 MiB measured; 4.06 MiB with a transposed copy of the spectrum and the fields in a new array)
        sampler = SectorSampler(9)
        noise = np.random.default_rng(0).standard_normal((16, *sampler.noise_shape))
        assert traced_peak(lambda: sampler.fields(noise, out=noise)) < 3 * 2**20
