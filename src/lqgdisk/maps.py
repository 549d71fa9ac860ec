"""Exact and asymptotic enumeration of quadrangulations with a simple
boundary, Boltzmann sampling, and the joint volume/perimeter density check.

The closed count of maps with n quadrilaterals, a simple boundary of
length 2p, and a marked boundary point is

    T(n, p) = 3^(n-p) (3p)! / (p! (2p-1)!) * (2n+p-1)! / ((n-p+1)! (n+2p)!),

a nonnegative integer, zero when n < p - 1.  Its n, p -> infinity
asymptotics at fixed p^2/n read

    T(n, p) ~ 12^n (9/2)^p n^{-5/2} sqrt(3 p) / (2 pi) e^{-9 p^2 / (4 n)},

which fixes the critical weights: e^{-mu_bar n - mu_bar_b 2p} T(n, p) is
summable exactly when mu_bar exceeds ln 12 or the per-edge boundary weight
mu_bar_b exceeds (1/2) ln(9/2).  Under the scaling V = a^2 n, l = 2 a p
the Boltzmann law converges to the density

    V^{-3/2} l^{1/2} e^{-mu V} e^{-mu_b l} e^{-9 l^2 / (16 V)} dl dV.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "count_exact",
    "log_count_exact",
    "log_count_asymptotic",
    "log_count_exact_certified",
    "BULK_CRITICAL_WEIGHT",
    "BOUNDARY_CRITICAL_WEIGHT_PER_EDGE",
    "BoltzmannConfig",
    "BoltzmannSampler",
    "joint_density_check",
    "histogram_check",
    "conjectured_log_density",
]

BULK_CRITICAL_WEIGHT = math.log(12.0)
BOUNDARY_CRITICAL_WEIGHT_PER_EDGE = 0.5 * math.log(4.5)
TAIL_BOUND = 1e-9  # largest estimated truncation tail mass a sampler accepts
ROW_THREADS = 4  # most weight rows built at once; each pool task holds one or two row-sized buffers


def _pool_size():
    """Threads for the row builds: the CPUs this process may use, at most ROW_THREADS."""
    return min(len(os.sched_getaffinity(0)), ROW_THREADS)


def _thread_map(fn, items):
    """[fn(x) for x in items] on a pool of _pool_size() threads, in order; a pool of one is the serial loop.

    numpy's ufuncs release the GIL on row-sized arrays, so rows build side by
    side; a worker's exception is raised here, in the caller.
    """
    from concurrent.futures import ThreadPoolExecutor  # its logging import would add to start-up

    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        return list(pool.map(fn, items))


def _runs(items):
    """items in at most _pool_size() contiguous non-empty runs: one pool task each, which allocates its buffers once."""
    k = min(_pool_size(), len(items))
    return [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]


def _lgamma_table(size):
    """ln Gamma(k) for the integers k = 0..size-1, from the C library's lgamma; +inf at the pole k = 0."""
    return np.fromiter(chain((math.inf,), map(math.lgamma, range(1, size))), float, size)


def _chi2_sf(dof, x):
    """P(X > x) for X chi-square with integer dof >= 1, the regularized upper Gamma Q(dof/2, x/2).

    With y = x/2, even dof give e^-y sum_{j < dof/2} y^j / j!, and odd dof
    erfc(sqrt y) + e^-y sum_{j < (dof-1)/2} y^(j+1/2) / Gamma(j+3/2).  Each
    term is exponentiated from its logarithm and the terms are added by
    math.fsum, so no partial sum under- or overflows.
    """
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    half = 0.5 * (dof % 2)
    log_y = math.log(y)
    terms = [math.exp((j + half) * log_y - y - math.lgamma(j + half + 1.0)) for j in range(dof // 2)]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def count_exact(n, p):
    """Exact number of boundary-marked quadrangulations, as a Python int.

    Single integer division with a zero-remainder check; the rational
    prefactors of the closed formula always cancel.  For n beyond about
    10^5 prefer log_count_exact_certified, which factors the count over
    primes instead of dividing multi-million-digit integers.
    """
    if n < 0 or p < 1:
        raise DomainError("need n >= 0 and p >= 1")
    if n - p + 1 < 0:
        return 0
    num = math.factorial(3 * p) * 3**n * math.factorial(2 * n + p - 1)
    den = (
        3**p
        * math.factorial(p)
        * math.factorial(2 * p - 1)
        * math.factorial(n - p + 1)
        * math.factorial(n + 2 * p)
    )
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"count formula gave a non-integer at n={n}, p={p}")
    return q


def _prime_exponents_in_count(n, p):
    """Primes up to 2n+p and their exponents in the exact count.

    Legendre's formula applied to every factorial in the closed form; a
    negative exponent would contradict integrality and raises.
    """
    limit = max(3 * p, 2 * n + p - 1, 2)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)

    def legendre(m):
        e = np.zeros(len(primes), dtype=np.int64)
        pk = primes.copy()
        active = pk <= m
        while np.any(active):
            e[active] += m // pk[active]
            nxt = pk[active] * primes[active]
            pk = pk.copy()
            pk[active] = nxt
            active = active & (pk <= m)
        return e

    exps = (
        legendre(3 * p)
        - legendre(p)
        - legendre(2 * p - 1)
        + legendre(2 * n + p - 1)
        - legendre(n - p + 1)
        - legendre(n + 2 * p)
    )
    exps[primes == 3] += n - p
    if np.any(exps < 0):
        raise ArithmeticError(f"negative prime exponent at n={n}, p={p}")
    return primes, exps


def log_count_exact_certified(n, p):
    """ln of the exact count through its prime factorization.

    Exact integer arithmetic throughout (and a certificate of integrality:
    every prime exponent is nonnegative); only the final compensated sum
    of e_q ln q is floating point.  Cost is near-linear in n, which makes
    counts at n around 10^6 available in seconds.
    """
    if n < 0 or p < 1:
        raise DomainError("need n >= 0 and p >= 1")
    if n - p + 1 < 0:
        return -np.inf
    primes, exps = _prime_exponents_in_count(n, p)
    nz = exps > 0
    return math.fsum(np.log(primes[nz].astype(float)) * exps[nz].astype(float))


def _log_count(n, p, lg_2n_p, lg_n_p_2, lg_n_2p_1, out=None):
    """ln T(n, p) from the log-gamma values at 2n+p, n-p+2 and n+2p+1.

    The one copy of the closed form; the terms are added one at a time, in
    this order, so every caller gets the same bits (in `out`, if given).
    """
    pf = float(p)
    out = np.subtract(n, pf, out=out)
    out *= math.log(3.0)
    out += math.lgamma(3 * pf + 1.0)
    out -= math.lgamma(pf + 1.0)
    out -= math.lgamma(2 * pf)
    out += lg_2n_p
    out -= lg_n_p_2
    out -= lg_n_2p_1
    return out


def _logsumexp(a):
    """ln sum exp(a), overwriting the float array a, by scipy 1.17's steps in scipy's order.

    After Blanchard, Higham and Higham (IMA J. Numer. Anal. 41, 2021): the maximal entries
    leave the sum, which is divided by their count m; the result is log1p(s) + ln m + max.
    """
    a_max = a.max()
    mask = a == a_max
    m = float(np.count_nonzero(mask))
    with np.errstate(invalid="ignore"):  # -inf - -inf when every entry is -inf
        np.subtract(a, a_max, out=a)
    np.exp(a, out=a)
    a[mask] = 0.0
    s = a.sum()
    return np.log1p(s / m if s != 0 else s) + np.log(m) + a_max


def log_count_exact(n, p):
    """ln of the exact count at the integers n, indexing a log-gamma table at each argument.

    The reference for BoltzmannSampler.log_weight_row, which slices its rows
    from the same table and gives the same bits.
    """
    n = np.asarray(n, dtype=float)
    pf = float(p)
    table = _lgamma_table(2 * int(n.max(initial=0.0)) + 2 * p + 2)

    def lgamma(k):
        return table[np.maximum(k, 0.0).astype(np.intp)]  # k <= 0 reads the pole at 0

    out = _log_count(n, p, lgamma(2 * n + pf), lgamma(n - pf + 2.0), lgamma(n + 2 * pf + 1.0))
    return np.where(n - pf + 1 < 0, -np.inf, out)


def log_count_asymptotic(n, p):
    """ln of the large-n asymptotic count at fixed p^2/n."""
    if n < 1 or p < 1:
        raise DomainError("need n >= 1 and p >= 1")
    return (
        n * math.log(12.0)
        + p * math.log(4.5)
        - 2.5 * math.log(n)
        + 0.5 * math.log(3.0 * p)
        - math.log(2.0 * math.pi)
        - 9.0 * p**2 / (4.0 * n)
    )


def conjectured_log_density(volume, length, mu, mu_boundary):
    """ln of the unnormalized limit density of (V, l)."""
    v = np.asarray(volume, dtype=float)
    ell = np.asarray(length, dtype=float)
    return (
        -1.5 * np.log(v)
        + 0.5 * np.log(ell)
        - mu * v
        - mu_boundary * ell
        - 9.0 * ell**2 / (16.0 * v)
    )


# ---------------------------------------------------------------------------
# Boltzmann ensemble
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoltzmannConfig:
    """Mesh size and off-critical weights of the Boltzmann ensemble.

    The total weights are mu_bar = ln 12 + a^2 mu per quadrilateral and
    mu_bar_boundary = (1/2) ln(9/2) + a mu_boundary per boundary edge
    (applied to all 2p edges).  The constants are the critical weights
    BULK_CRITICAL_WEIGHT and BOUNDARY_CRITICAL_WEIGHT_PER_EDGE, the values
    that make the weighted counts exactly summable.

    With interior_marked (the default) each map additionally carries a
    uniformly marked quadrilateral, multiplying the weight by n.  That is
    the ensemble whose rescaled (V, l) law converges to
    V^{-3/2} l^{1/2} e^{-mu V - mu_b l - 9 l^2/(16 V)}; without the
    interior marking the V exponent is -5/2.
    """

    a: float
    mu: float = 1.0
    mu_boundary: float = 1.0
    n_max: int | None = None
    p_max: int | None = None
    interior_marked: bool = True

    def __post_init__(self):
        if self.a <= 0.0:
            raise ConfigurationError("mesh a must be positive")
        if self.mu < 0.0 or self.mu_boundary < 0.0:
            raise ConfigurationError("mu and mu_boundary must be nonnegative")
        if self.mu == 0.0:
            raise ConfigurationError(
                "mu must be positive: at mu = 0 the n-tail of the weights decays only "
                f"like a power of n, so no n_max meets the tail bound {TAIL_BOUND:g}"
            )
        if self.n_max is None:
            object.__setattr__(self, "n_max", int(math.ceil(20.0 / (self.a**2 * self.mu))))
        gauss_cap = int(math.ceil(math.sqrt(80.0 * self.n_max / 9.0))) + 8
        if self.p_max is None:
            if self.mu_boundary > 0.0:
                object.__setattr__(
                    self,
                    "p_max",
                    min(int(math.ceil(20.0 / (self.a * self.mu_boundary))), gauss_cap),
                )
            else:
                object.__setattr__(self, "p_max", gauss_cap)

    @property
    def mu_bar(self):
        return BULK_CRITICAL_WEIGHT + self.a**2 * self.mu

    @property
    def mu_bar_boundary(self):
        return BOUNDARY_CRITICAL_WEIGHT_PER_EDGE + self.a * self.mu_boundary


class BoltzmannSampler:
    """Exact two-stage sampler over the truncated (n, p) weight table.

    Builds one table of ln Gamma(k) for every integer argument a row needs
    (k < 2 n_max + 3 p_max + 2) and slices each n-row from it, bit for bit
    the row log_count_exact gives.  The log-marginal over p streams the
    rows through a small thread pool, each task reusing one row buffer (the
    full table would not fit at small mesh); each row is summed by _logsumexp,
    scipy 1.17's algorithm in numpy, and writes only its own entry, so the
    marginal has the same bits at any pool size.  Sampling draws p from the
    marginal and then n from the regenerated row by inverse CDF.
    Construction validates the truncation tails against TAIL_BOUND, keeps
    the estimate as log_tail_mass, and raises ConfigurationError if the
    caps are too small.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self._n = np.arange(cfg.n_max + 1, dtype=float)
        self._mu_bar_n = cfg.mu_bar * self._n
        with np.errstate(divide="ignore"):
            self._log_n = np.log(self._n)
        self._lgamma = _lgamma_table(2 * cfg.n_max + 3 * cfg.p_max + 2)
        log_m = np.full(cfg.p_max, -np.inf)
        edge_n = np.full(cfg.p_max, -np.inf)

        def sum_rows(ps):
            row = np.empty(cfg.n_max + 1)
            for p in ps:
                self.log_weight_row(p, out=row)
                edge_n[p - 1] = row[-1]
                log_m[p - 1] = _logsumexp(row)

        _thread_map(sum_rows, _runs(range(1, cfg.p_max + 1)))
        self.log_p_marginal = log_m
        self.log_total = float(_logsumexp(log_m.copy()))
        self._check_tails(edge_n)

    def log_weight_row(self, p, out=None):
        """log weights of n = 0..n_max at half-perimeter p, written into out if given (n_max + 1 floats).

        e^{-mu_bar n - mu_bar_b 2p} T(n, p), times n when the ensemble
        carries an interior marked quadrilateral; -inf where n < p - 1.
        """
        cfg = self.cfg
        g = self._lgamma
        lo = min(p - 1, cfg.n_max + 1)
        m = cfg.n_max + 1 - lo
        row = np.empty(cfg.n_max + 1) if out is None else out
        row[:lo] = -np.inf
        g1, g2, g3 = g[2 * lo + p :: 2][:m], g[lo - p + 2 :][:m], g[lo + 2 * p + 1 :][:m]
        _log_count(self._n[lo:], p, g1, g2, g3, out=row[lo:])
        row -= self._mu_bar_n
        row -= cfg.mu_bar_boundary * 2.0 * p
        if cfg.interior_marked:
            row += self._log_n
        return row

    def _check_tails(self, edge_n):
        cfg = self.cfg
        if not np.all(np.isfinite(self.log_p_marginal)):
            raise ConfigurationError(f"some p <= p_max = {cfg.p_max} has no weight at n <= n_max = {cfg.n_max}")
        # n-direction: geometric envelope with the exact per-step decay
        log_edge_n = float(_logsumexp(edge_n))
        decay_n = cfg.mu_bar - BULK_CRITICAL_WEIGHT  # asymptotic per-step log decay
        if decay_n <= 0.0:
            raise ConfigurationError("mu_bar must exceed the critical weight ln 12")
        log_tail_n = log_edge_n - math.log(-math.expm1(-decay_n))
        # p-direction: envelope from the last marginal entry
        log_edge_p = float(self.log_p_marginal[-1])
        if cfg.p_max >= 2:
            step = float(self.log_p_marginal[-1] - self.log_p_marginal[-2])
        else:
            step = -1.0
        if step >= -1e-3:
            step = -1e-3
        log_tail_p = log_edge_p - math.log(-math.expm1(step))
        self.log_tail_mass = max(log_tail_n, log_tail_p) - self.log_total
        if self.log_tail_mass > math.log(TAIL_BOUND):
            raise ConfigurationError(
                f"estimated truncation tail mass e^{self.log_tail_mass:.1f} exceeds the bound "
                f"{TAIL_BOUND:g}; increase n_max/p_max"
            )

    def sample(self, n_draws, rng):
        """n_draws exact draws of (n, p); deterministic under the stream."""
        gen = rng.generator()
        probs = np.exp(self.log_p_marginal - self.log_total)
        p_draws = gen.choice(self.cfg.p_max, size=n_draws, p=probs)  # int64
        p_draws += 1
        u = gen.uniform(size=n_draws)
        n_draws_out = np.empty(n_draws, dtype=np.int64)
        groups = _group_by_p(p_draws, self.cfg.p_max)

        def draw_n(ps):
            row, cdf = np.empty(self.cfg.n_max + 1), np.empty(self.cfg.n_max + 1)  # cumsum in place is slower
            for p in ps:
                self.log_weight_row(p, out=row)
                row -= row.max()
                np.cumsum(np.exp(row, out=row), out=cdf)
                cdf /= cdf[-1]
                sel = groups[p - 1]
                n_draws_out[sel] = np.searchsorted(cdf, u[sel], side="left")

        _thread_map(draw_n, _runs([p for p, sel in enumerate(groups, 1) if sel.size]))
        return n_draws_out, p_draws


def _group_by_p(p_draws, p_max):
    """Indices of the draws at p (ascending) for p = 1..p_max, from one stable sort."""
    counts = np.bincount(p_draws, minlength=p_max + 1)[1:]
    return np.split(np.argsort(p_draws, kind="stable"), np.cumsum(counts)[:-1])


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

def _density_bin_probs(sampler, v_edges, l_edges):
    """Lattice-summed conjectured-density mass of each (V, l) bin.

    Evaluates the density on the draw lattice (V, l) = (a^2 n, 2 a p) so
    that observed and expected are binned identically; normalization is
    over the binned range.
    """
    cfg = sampler.cfg

    def log_density(vol, ell):  # without the interior marking's factor n, the law has one more 1/V
        f = conjectured_log_density(vol, ell, cfg.mu, cfg.mu_boundary)
        return f if cfg.interior_marked else f - np.log(vol)

    n_lo = max(1, int(math.floor(v_edges[0] / cfg.a**2)))
    n_hi = min(cfg.n_max, int(math.ceil(v_edges[-1] / cfg.a**2)))
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    v = cfg.a**2 * n
    nv, nl = len(v_edges) - 1, len(l_edges) - 1
    mass = np.zeros((nv, nl))
    v_idx = np.searchsorted(v_edges, v, side="right") - 1
    ok_v = (v_idx >= 0) & (v_idx < nv) & (v >= v_edges[0]) & (v < v_edges[-1])
    v_in, v_idx = v[ok_v], v_idx[ok_v]
    shift = None
    for p in range(1, cfg.p_max + 1):
        ell = 2.0 * cfg.a * p
        if not (l_edges[0] <= ell < l_edges[-1]):
            continue
        l_idx = int(np.searchsorted(l_edges, ell, side="right") - 1)
        if shift is None:  # the max over the whole lattice at the first binned p
            shift = float(log_density(v, ell).max())
        f = log_density(v_in, ell)
        f -= shift
        np.add.at(mass[:, l_idx], v_idx, np.exp(f, out=f))
    total = mass.sum()
    if total <= 0.0:
        raise ConfigurationError("no conjectured-density mass inside the binned range")
    return mass / total


def joint_density_check(cfg, n_draws, rng, bins=(20, 20), window=None, min_expected=5.0):
    """Chi-square of rescaled Boltzmann draws against the limit density.

    Draws are rescaled to (V, l) = (a^2 n, 2 a p); the comparison runs on
    the macroscopic window V >= window[0], l >= window[1] (the limit
    density describes maps that are large on the mesh scale; the ensemble
    also carries an atom of microscopic maps that no continuum density
    reproduces).  The default window keeps maps of at least 600
    quadrilaterals and half-perimeter at least 12, where the count
    asymptotics are accurate to well under a percent.  Bin edges are draw
    quantiles (up to the 0.998 quantile) inside the window with the length
    edges snapped to half-lattice; expected masses come from the density evaluated on the
    same lattice and normalized over the binned range.  Bins with expected
    count below `min_expected` are flagged underpowered and excluded
    (degrees of freedom adjust accordingly); fewer than two bins left
    leave no degree of freedom and raise ConfigurationError.

    Returns (summary, rows): chi2, dof, p_value, n_in_range, n_draws,
    n_bins, n_underpowered and the sampler's log_tail_mass, and one row
    (v_lo, v_hi, l_lo, l_hi, observed, expected) per bin, volume outermost.
    """
    if window is None:
        window = (max(0.05, 600.0 * cfg.a**2), max(0.2, 24.0 * cfg.a))
    sampler = BoltzmannSampler(cfg)
    n_arr, p_arr = sampler.sample(n_draws, rng)
    volume = cfg.a**2 * n_arr
    length = 2.0 * cfg.a * p_arr

    lat = 2.0 * cfg.a
    win = (volume >= window[0]) & (length >= window[1])
    if win.sum() < 100:
        raise ConfigurationError(
            f"only {int(win.sum())} draws fall in the macroscopic window; increase n_draws"
        )
    qv = np.linspace(0.0, 0.998, bins[0] + 1)
    ql = np.linspace(0.0, 0.998, bins[1] + 1)
    v_edges = np.unique(np.quantile(volume[win], qv))
    l_edges = np.quantile(length[win], ql)
    l_edges = np.unique(np.floor(l_edges / lat) * lat + 0.5 * lat)
    l_edges[0] = window[1] - 0.5 * lat

    in_range = (
        (volume >= v_edges[0])
        & (volume < v_edges[-1])
        & (length >= l_edges[0])
        & (length < l_edges[-1])
    )
    observed = np.histogram2d(volume[in_range], length[in_range], bins=[v_edges, l_edges])[0]
    probs = _density_bin_probs(sampler, v_edges, l_edges)
    expected = probs * in_range.sum()

    use = expected >= min_expected
    if use.sum() < 2:
        raise ConfigurationError("under two bins reach the expected-count floor; increase n_draws")
    chi2 = float(np.sum((observed[use] - expected[use]) ** 2 / expected[use]))
    dof = int(use.sum()) - 1
    summary = {
        "chi2": chi2,
        "dof": dof,
        "p_value": _chi2_sf(dof, chi2),  # scipy.stats.chi2.sf in closed form
        "n_in_range": int(in_range.sum()),
        "n_draws": n_draws,
        "n_bins": int(observed.size),
        "n_underpowered": int((~use).sum()),
        "log_tail_mass": sampler.log_tail_mass,
    }
    rows = [(v_edges[i], v_edges[i + 1], l_edges[j], l_edges[j + 1], observed[i, j], expected[i, j])
            for i in range(len(v_edges) - 1) for j in range(len(l_edges) - 1)]
    return summary, rows


def histogram_check(cfg, n_draws, rng):
    """Exact-law histogram test of the sampler against its own table.

    Compares observed cell counts with table probabilities on every (n, p)
    cell whose expected count reaches 100; returns (max |z|,
    number of cells tested) where z is the deviation in multinomial
    standard errors.
    """
    sampler = BoltzmannSampler(cfg)
    n_arr, p_arr = sampler.sample(n_draws, rng)
    groups = _group_by_p(p_arr, cfg.p_max)
    thresh = 100.0 / n_draws

    def row_z(ps):
        row, z_max, n_hot = np.empty(cfg.n_max + 1), 0.0, 0
        for p in ps:
            sampler.log_weight_row(p, out=row)
            row -= sampler.log_total
            hot = np.nonzero(np.exp(row, out=row) >= thresh)[0]
            if len(hot):
                drawn = np.sort(n_arr[groups[p - 1]])  # the draws' counts at the hot cells only
                counts = np.searchsorted(drawn, hot, side="right") - np.searchsorted(drawn, hot, side="left")
                prob = row[hot]
                z = np.abs(counts - n_draws * prob) / np.sqrt(n_draws * prob * (1.0 - prob))
                z_max, n_hot = max(z_max, z.max()), n_hot + len(hot)
        return z_max, n_hot

    cells = _thread_map(row_z, _runs(range(1, cfg.p_max + 1)))
    return max(z for z, _ in cells), sum(n for _, n in cells)
