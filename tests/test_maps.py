import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special

from lqgdisk import cli, maps
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
            le = math.log(count_exact(n, p))
            assert log_count_exact(np.array([float(n)]), p)[0] == pytest.approx(le, abs=1e-9)

    def test_certified_route_matches_bigint(self):
        for n, p in ((100, 5), (5000, 70), (20000, 141)):
            le = math.log(count_exact(n, p))
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


def _plain_logsumexp(a):
    """ln sum exp(a) by a max-shifted numpy sum: a reference within rounding, independent of scipy."""
    top = np.max(a)
    if top == -np.inf:
        return -np.inf
    return top + np.log(np.sum(np.exp(a - top)))


# maps._logsumexp copies the steps of scipy 1.17's logsumexp, so that release is its bit-for-bit
# oracle; other releases may sum in another order, and only the rounding-level reference applies.
SCIPY_1_17 = tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 17)
REFERENCES = [
    pytest.param(_plain_logsumexp, 1e-13, id="plain-sum"),
    pytest.param(
        scipy.special.logsumexp,
        0.0,
        id="scipy-1.17-bits",
        marks=pytest.mark.skipif(not SCIPY_1_17, reason=f"scipy {scipy.__version__} is not the copied release"),
    ),
]


class TestLogsumexp:
    """maps._logsumexp: scipy 1.17's bits, and within rounding of a plain sum, ties and -inf included."""

    @pytest.mark.parametrize(
        "a, expected",
        [
            (np.full(7, -np.inf), -np.inf),
            (np.array([2.5]), 2.5),
            (np.array([-np.inf, 3.0, -np.inf, 3.0]), np.log(2.0) + 3.0),
        ],
        ids=["all-minus-inf", "one-element", "tied-among-minus-inf"],
    )
    def test_closed_forms(self, a, expected):
        # the maximal entries leave the sum, so what remains is exact: ln m + max
        assert maps._logsumexp(a.copy()) == expected

    @pytest.mark.parametrize("reference, tol", REFERENCES)
    @pytest.mark.parametrize(
        "a",
        [
            np.full(7, -np.inf),
            np.array([2.5]),
            np.array([1.0, 3.0, 3.0, -2.0, 3.0]),
            np.array([-np.inf, 0.5, -np.inf, -1e3, 0.25]),
            np.linspace(-800.0, 0.0, 4001),
        ],
        ids=["all-minus-inf", "one-element", "tied-maximum", "mixed-minus-inf", "range-800"],
    )
    def test_fixed_arrays(self, a, reference, tol):
        np.testing.assert_allclose(maps._logsumexp(a.copy()), reference(a), rtol=tol, atol=tol)

    @pytest.mark.parametrize("reference, tol", REFERENCES)
    def test_random_arrays(self, reference, tol):
        gen = np.random.default_rng(16)
        for _ in range(500):
            a = gen.normal(scale=gen.choice([1.0, 30.0, 300.0]), size=int(gen.integers(1, 3000)))
            a[gen.random(a.size) < gen.choice([0.0, 0.3])] = -np.inf
            if gen.random() < 0.5 and np.any(np.isfinite(a)):
                a[gen.integers(0, a.size, size=3)] = a[np.isfinite(a)].max()
            np.testing.assert_allclose(maps._logsumexp(a.copy()), reference(a), rtol=tol, atol=tol)

    def test_maps_density_runs_without_scipy_logsumexp(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.special.logsumexp was called")

        monkeypatch.setattr(scipy.special, "logsumexp", refuse)
        config = tmp_path / "maps-density.json"
        config.write_text('{"a": 0.03, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 20000}')
        argv = ["maps-density", "--config", str(config), "--out", str(tmp_path), "--seed", "1"]
        assert cli.main(argv) == 0


def _assert_marginals(sampler, reference, tol):
    """The sampler's marginals and total match `reference` summed over its rows (tol 0: bit for bit)."""
    log_m = np.array([reference(sampler.log_weight_row(p)) for p in range(1, sampler.cfg.p_max + 1)])
    np.testing.assert_allclose(sampler.log_p_marginal, log_m, rtol=tol, atol=tol)
    np.testing.assert_allclose(sampler.log_total, reference(log_m), rtol=tol, atol=tol)


@pytest.mark.parametrize("reference, tol", REFERENCES)
@pytest.mark.parametrize(
    "kw",
    [dict(a=0.03), dict(a=0.1), dict(a=0.25), dict(a=0.1, mu_boundary=0.0), dict(a=0.1, interior_marked=False)],
    ids=["a-0.03", "a-0.1", "a-0.25", "no-boundary-weight", "unmarked"],
)
def test_marginals(kw, reference, tol):
    _assert_marginals(BoltzmannSampler(BoltzmannConfig(**kw)), reference, tol)


def _reference_row(sampler, p):
    """The row from direct gammaln calls, with the terms of log_weight_row."""
    cfg = sampler.cfg
    n = np.arange(cfg.n_max + 1, dtype=float)
    row = log_count_exact(n, p) - cfg.mu_bar * n - cfg.mu_bar_boundary * 2.0 * p
    if cfg.interior_marked:
        with np.errstate(divide="ignore"):
            row = row + np.log(n)
    return row


EDGE_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        BoltzmannConfig(a=0.5, n_max=3, p_max=9),
        BoltzmannConfig(a=0.5, n_max=3, p_max=9, interior_marked=False),
    ],
    ids=["p-cap-beyond-n", "p-cap-beyond-n-unmarked"],
)


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

    @EDGE_CONFIGS
    def test_rows_at_edge_configs(self, untruncated, cfg):
        s = BoltzmannSampler(cfg)
        for p in range(1, cfg.p_max + 1):
            assert np.array_equal(s.log_weight_row(p), _reference_row(s, p))
        if cfg.p_max > cfg.n_max + 1:
            assert np.all(s.log_weight_row(cfg.p_max) == -np.inf)

    @pytest.mark.parametrize("reference, tol", REFERENCES)
    @EDGE_CONFIGS
    def test_marginals_at_edge_configs(self, untruncated, cfg, reference, tol):
        # rows past p = n_max + 1 are all -inf, so the marginal ends in -inf entries
        _assert_marginals(BoltzmannSampler(cfg), reference, tol)

    def test_acceptance_config_rows(self):
        s = BoltzmannSampler(BoltzmannConfig(a=0.01, mu=1.0, mu_boundary=1.0))
        for p in (1, 2, 3, 500, s.cfg.p_max):
            assert np.array_equal(s.log_weight_row(p), _reference_row(s, p))

    @pytest.mark.parametrize(
        "cfg",
        [
            BoltzmannConfig(a=0.2),
            BoltzmannConfig(a=0.2, interior_marked=False),
            BoltzmannConfig(a=0.5, n_max=3, p_max=9),
        ],
        ids=["a-0.2", "a-0.2-unmarked", "p-cap-beyond-n"],
    )
    def test_row_into_a_used_buffer(self, untruncated, cfg):
        # a reused buffer holds NaN or another row's values; the row must overwrite every entry
        s = BoltzmannSampler(cfg)
        for p in range(1, cfg.p_max + 1):
            want = s.log_weight_row(p)
            for held in (np.full(cfg.n_max + 1, np.nan), s.log_weight_row(cfg.p_max), s.log_weight_row(1)):
                assert s.log_weight_row(p, out=held) is held
                assert np.array_equal(held, want)


@pytest.mark.parametrize(
    "cfg",
    [BoltzmannConfig(a=0.03), BoltzmannConfig(a=0.5, n_max=3, p_max=9)],
    ids=["a-0.03", "p-cap-beyond-n"],
)
def test_pool_size_changes_no_bit(cfg, monkeypatch):
    """The threaded row builds give the marginal, the total and every draw bit for bit at any pool size."""
    # row construction and draws only: the p-cap-beyond-n caps fail the truncation-tail check
    monkeypatch.setattr(BoltzmannSampler, "_check_tails", lambda self, edge_n: None)
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave often, so a lost or misplaced write would show
    try:
        for threads in (1, 3):
            monkeypatch.setattr(maps, "_pool_size", lambda: threads)
            s = BoltzmannSampler(cfg)
            runs.append((s.log_p_marginal, s.log_total, *s.sample(5000, RngStream(4, 2))))
    finally:
        sys.setswitchinterval(switch)
    for one, three in zip(*runs):
        assert np.array_equal(one, three)


def test_pool_size_changes_no_z_score(monkeypatch):
    cfg = BoltzmannConfig(a=0.25, mu=1.0, mu_boundary=1.0, interior_marked=False)
    results = []
    for threads in (1, 3):
        monkeypatch.setattr(maps, "_pool_size", lambda: threads)
        results.append(histogram_check(cfg, 20000, RngStream(2, 8)))
    assert results[0] == results[1]


def _reference_sample(sampler, n_draws, rng):
    """The draws by a fresh row per p: log_weight_row(p), np.exp(row - row.max()), np.cumsum, searchsorted."""
    gen = rng.generator()
    probs = np.exp(sampler.log_p_marginal - sampler.log_total)
    p_draws = gen.choice(sampler.cfg.p_max, size=n_draws, p=probs) + 1
    u = gen.uniform(size=n_draws)
    n_draws_out = np.empty(n_draws, dtype=np.int64)
    for p in np.unique(p_draws):
        row = sampler.log_weight_row(int(p))
        cdf = np.cumsum(np.exp(row - row.max()))
        cdf /= cdf[-1]
        n_draws_out[p_draws == p] = np.searchsorted(cdf, u[p_draws == p], side="left")
    return n_draws_out, p_draws


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "cfg",
    [BoltzmannConfig(a=0.03), BoltzmannConfig(a=0.5, n_max=3, p_max=9)],
    ids=["a-0.03", "p-cap-beyond-n"],
)
def test_sample_matches_serial_reference(cfg, threads, monkeypatch):
    """Draws from the pool tasks' reused row and CDF buffers equal the serial row-per-p draws."""
    monkeypatch.setattr(BoltzmannSampler, "_check_tails", lambda self, edge_n: None)
    monkeypatch.setattr(maps, "_pool_size", lambda: threads)
    s = BoltzmannSampler(cfg)
    for seed in (1, 2, 3):
        n_arr, p_arr = s.sample(5000, RngStream(seed, 0))
        want_n, want_p = _reference_sample(s, 5000, RngStream(seed, 0))
        assert n_arr.dtype == p_arr.dtype == np.int64
        assert np.array_equal(n_arr, want_n) and np.array_equal(p_arr, want_p)


def test_sample_peak_memory(monkeypatch):
    """One pool task's sample() holds two row buffers and no copy of the p draws.

    Pinned to one task, so no thread timing moves the peak.  At a = 0.03 (rows of 22,224 values, 0.17 MB) the
    tracemalloc peak of 100,000 draws is 3.83 MB, five arrays of the draws' size; fresh row-sized temporaries per p
    and an int64 copy of the p draws on return would read 4.09 MB.
    """
    monkeypatch.setattr(maps, "_pool_size", lambda: 1)
    s = BoltzmannSampler(BoltzmannConfig(a=0.03))
    s.sample(100000, RngStream(1, 0))  # first-call allocations stay out of the measured call
    tracemalloc.start()
    try:
        s.sample(100000, RngStream(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.96 * 2**20


def _reference_bin_probs(sampler, v_edges, l_edges):
    """The bin masses from the density on the whole lattice at every binned p, then masked to the window."""
    cfg = sampler.cfg
    n_lo = max(1, int(math.floor(v_edges[0] / cfg.a**2)))
    n_hi = min(cfg.n_max, int(math.ceil(v_edges[-1] / cfg.a**2)))
    v = cfg.a**2 * np.arange(n_lo, n_hi + 1, dtype=float)
    mass = np.zeros((len(v_edges) - 1, len(l_edges) - 1))
    v_idx = np.searchsorted(v_edges, v, side="right") - 1
    ok_v = (v_idx >= 0) & (v_idx < len(mass)) & (v >= v_edges[0]) & (v < v_edges[-1])
    shift = None
    for p in range(1, cfg.p_max + 1):
        ell = 2.0 * cfg.a * p
        if not (l_edges[0] <= ell < l_edges[-1]):
            continue
        logf = conjectured_log_density(v, ell, cfg.mu, cfg.mu_boundary)
        if shift is None:
            shift = float(logf.max())
        f = np.exp(logf - shift)
        np.add.at(mass[:, int(np.searchsorted(l_edges, ell, side="right") - 1)], v_idx[ok_v], f[ok_v])
    return mass / mass.sum()


@pytest.mark.parametrize(
    "cfg, n_draws, seed, kw",
    [
        (BoltzmannConfig(a=0.02, mu=1.0, mu_boundary=1.0), 60000, 5, dict(bins=(12, 12))),
        (BoltzmannConfig(a=0.05, mu=1.0, mu_boundary=1.0), 3000, 6, dict(bins=(10, 10), window=(0.2, 0.4))),
    ],
    ids=["moderate-mesh", "underpowered"],
)
def test_density_bin_probs_match_the_whole_lattice_loop(cfg, n_draws, seed, kw, monkeypatch):
    """The window-only density evaluation gives the bin masses of the whole-lattice loop bit for bit."""
    seen, bin_probs = [], maps._density_bin_probs
    monkeypatch.setattr(maps, "_density_bin_probs", lambda *args: seen.append((args, bin_probs(*args))) or seen[-1][1])
    joint_density_check(cfg, n_draws, RngStream(5, seed), **kw)
    (sampler, v_edges, l_edges), got = seen[0]
    assert np.array_equal(got, _reference_bin_probs(sampler, v_edges, l_edges))


@pytest.mark.parametrize("threads", [1, 3])
def test_worker_exception_reaches_caller(threads, monkeypatch):
    monkeypatch.setattr(maps, "_pool_size", lambda: threads)

    def row(p):
        if p == 5:
            raise DomainError(f"row {p}")
        return p

    with pytest.raises(DomainError, match="row 5"):
        maps._thread_map(row, range(1, 9))
    assert maps._thread_map(row, range(1, 5)) == [1, 2, 3, 4]


def test_group_by_p_matches_masks():
    p_draws = np.random.default_rng(18).integers(1, 8, size=500)
    groups = maps._group_by_p(p_draws, 9)
    assert len(groups) == 9
    for p, sel in enumerate(groups, 1):
        assert np.array_equal(sel, np.flatnonzero(p_draws == p))


def test_lgamma_table_matches_scipy_gammaln():
    k = np.arange(300_001, dtype=float)
    table = maps._lgamma_table(k.size)
    assert table[0] == np.inf
    # the C library's lgamma and scipy's gammaln differ by a few units in the last place
    np.testing.assert_allclose(table[1:], scipy.special.gammaln(k[1:]), rtol=1e-15, atol=0.0)


def test_chi2_sf_matches_scipy_chdtrc():
    # tails included: toward x = 2,000 the tail falls to subnormal numbers, and where
    # scipy's leading factor e^-y y^a / Gamma(a) underflows it returns 0 outright
    xs = np.geomspace(1e-3, 2000.0, 45)
    for dof in range(1, 401):
        got = np.array([maps._chi2_sf(dof, x) for x in xs])
        want = scipy.special.chdtrc(dof, xs)
        flushed = want == 0.0
        assert np.all(got[flushed] < np.finfo(float).tiny)
        np.testing.assert_allclose(got[~flushed], want[~flushed], rtol=1e-12, atol=0.0)
    assert maps._chi2_sf(3, 0.0) == 1.0


def test_log_tail_mass_is_reported():
    cfg = BoltzmannConfig(a=0.03)
    s = BoltzmannSampler(cfg)
    assert -np.inf < s.log_tail_mass <= math.log(maps.TAIL_BOUND)
    summary, _ = joint_density_check(cfg, 20000, RngStream(1, 0))
    assert summary["log_tail_mass"] == s.log_tail_mass


class TestJointDensity:
    def test_chi_square_moderate_mesh(self):
        cfg = BoltzmannConfig(a=0.02, mu=1.0, mu_boundary=1.0)
        summary, rows = joint_density_check(cfg, 60000, RngStream(5, 5), bins=(12, 12))
        assert summary["p_value"] > 0.01
        assert summary["n_in_range"] > 5000
        assert sum(row[4] for row in rows) == summary["n_in_range"]

    def test_underpowered_flagging(self):
        cfg = BoltzmannConfig(a=0.05, mu=1.0, mu_boundary=1.0)
        summary, rows = joint_density_check(
            cfg, 3000, RngStream(5, 6), bins=(10, 10), window=(0.2, 0.4), min_expected=20.0
        )
        assert summary["n_underpowered"] <= summary["n_bins"] == len(rows)
        assert summary["dof"] <= summary["n_bins"] - 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unmarked_ensemble_fits_its_own_law(self, seed):
        # without the interior marking (V, l) converges to the V^{-5/2} law: against the
        # marked V^{-3/2} law these draws gave p = 4e-15, 9e-17 and 9e-20
        cfg = BoltzmannConfig(a=0.05, interior_marked=False)
        summary, _ = joint_density_check(cfg, 200000, RngStream(seed, 0), bins=(8, 8), window=(0.2, 0.4))
        assert summary["p_value"] > 1e-4

    def test_too_few_window_draws_rejected(self):
        cfg = BoltzmannConfig(a=0.05, mu=1.0, mu_boundary=1.0)
        with pytest.raises(ConfigurationError):
            joint_density_check(cfg, 2000, RngStream(5, 7))
