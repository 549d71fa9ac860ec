"""Marked-point theory on the disk: admissibility, drifts, partition
functions, volume laws, and conformal-covariance predictions.

Marked points absorb into the Gaussian law as a deterministic drift
H(x) = sum_i alpha_i G(x, z_i) + sum_j (beta_j / 2) G(x, s_j) plus an
explicit constant, leaving a zero-mode integral over the global shift c.
The reduced partition function in the flat background metric is

    Pi = prod_i g_P(z_i)^{alpha_i^2/4} e^{C(z, s)}
         int e^{s_total c} E[ exp(-mu e^{gamma c} I
                                  - mu_b e^{(gamma/2) c} J) ] dc,

with I and J the drifted bulk/boundary chaos totals and s_total =
sum alpha + sum beta/2 - Q.  When mu_b = 0 the c-integral is a Gamma
integral and the total volume follows a Gamma(s_total/gamma, mu) law,
independent of the normalized measures.  Every estimator reads the
per-replica c-integrals from one helper, _log_zero_mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    GridError,
    NotAdmissibleError,
    ResamplingError,
)
from .geometry import (
    BOUNDARY_TOL,
    LiouvilleParams,
    conformal_weight,
    green,
    poincare_density,
)
from .gff import BUILD_CHUNK, RotationSampler, replica_map
from .gmc import AtomicMeasure, boundary_masses, bulk_masses, jackknife_var

__all__ = [
    "InsertionSet",
    "AdmissibilityVerdict",
    "ShiftedChaosPair",
    "ChaosBasis",
    "seiberg_check",
    "insertion_drift",
    "log_constant",
    "volume_law_params",
    "sample_liouville_triple",
    "partition_estimate",
    "unit_volume_expectation",
    "mobius_moved",
    "kpz_log_weight",
    "kpz_ratio_test",
]


# ---------------------------------------------------------------------------
# insertion sets and admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsertionSet:
    """Bulk marked points (z_i, alpha_i), boundary marked points (s_j, beta_j)."""

    params: LiouvilleParams
    bulk: tuple = ()
    boundary: tuple = ()

    def __post_init__(self):
        bulk = tuple((complex(z), float(a)) for z, a in self.bulk)
        boundary = tuple((complex(s), float(b)) for s, b in self.boundary)
        object.__setattr__(self, "bulk", bulk)
        object.__setattr__(self, "boundary", boundary)
        for z, _ in bulk:
            if abs(z) >= 1.0 - BOUNDARY_TOL:
                raise DomainError(f"bulk point {z} is not interior")
        for s, _ in boundary:
            if abs(abs(s) - 1.0) > BOUNDARY_TOL:
                raise DomainError(f"boundary point {s} is not on the unit circle")
        pts = [z for z, _ in bulk] + [s for s, _ in boundary]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise DomainError("marked points must be pairwise distinct")

    @property
    def s_total(self):
        return (
            sum(a for _, a in self.bulk)
            + 0.5 * sum(b for _, b in self.boundary)
            - self.params.Q
        )

    def marked_points(self):
        return np.array([z for z, _ in self.bulk] + [s for s, _ in self.boundary])


@dataclass(frozen=True)
class AdmissibilityVerdict:
    case: str
    bound1_ok: bool
    bound2_ok: bool
    bound3_ok: bool
    admissible: bool
    s_total: float


def seiberg_check(ins):
    """Admissibility verdict for an insertion set.

    With mu > 0 all three bounds are required; with mu = 0 (so a positive
    boundary constant, by LiouvilleParams) the bulk-weight bound is not
    (bulk weights may reach or exceed Q).  All inequalities are strict.
    """
    p = ins.params
    q = p.Q
    s_total = ins.s_total
    bound1 = s_total > 0.0
    bound2 = all(a < q for _, a in ins.bulk)
    bound3 = all(b < q for _, b in ins.boundary)
    case = "mu_positive" if p.mu > 0.0 else "mu_zero_boundary_positive"
    admissible = bound1 and bound3 and (bound2 or p.mu == 0.0)
    return AdmissibilityVerdict(case, bound1, bound2, bound3, admissible, s_total)


def require_admissible(ins):
    verdict = seiberg_check(ins)
    if not verdict.admissible:
        raise NotAdmissibleError(f"insertion set rejected: {verdict}")
    return verdict


def insertion_drift(ins, x):
    """Drift H(x) = sum alpha_i G(x, z_i) + sum (beta_j/2) G(x, s_j)."""
    xa = np.asarray(x, dtype=complex)
    out = np.zeros(xa.shape if xa.ndim else ())
    for z, a in ins.bulk:
        out = out + a * green(xa, z)
    for s, b in ins.boundary:
        out = out + 0.5 * b * green(xa, s)
    return float(out) if out.ndim == 0 else out


def log_constant(ins):
    """Interaction constant C(z, s) of the reduced partition function.

    Pairwise Green interactions of the marked points, cross terms with
    the half-weighted boundary points, minus sum beta_j^2 / 8.
    """
    c = 0.0
    bulk, bdry = ins.bulk, ins.boundary
    for i in range(len(bulk)):
        for k in range(i + 1, len(bulk)):
            c += bulk[i][1] * bulk[k][1] * green(bulk[i][0], bulk[k][0])
    for j in range(len(bdry)):
        for k in range(j + 1, len(bdry)):
            c += 0.25 * bdry[j][1] * bdry[k][1] * green(bdry[j][0], bdry[k][0])
    for i in range(len(bulk)):
        for j in range(len(bdry)):
            c += 0.5 * bulk[i][1] * bdry[j][1] * green(bulk[i][0], bdry[j][0])
    c -= sum(b**2 for _, b in bdry) / 8.0
    return c


def volume_law_params(ins):
    """Shape and rate of the Gamma law of the total volume (mu_b = 0 only)."""
    if ins.params.mu_boundary != 0.0:
        raise ConfigurationError("the Gamma volume law requires mu_boundary = 0")
    require_admissible(ins)
    return ins.s_total / ins.params.gamma, ins.params.mu


def mobius_moved(ins, psi):
    """The same weights at Mobius-moved marked points."""
    bulk = tuple((psi(z), a) for z, a in ins.bulk)
    boundary = tuple((psi(s) / abs(psi(s)), b) for s, b in ins.boundary)
    return InsertionSet(params=ins.params, bulk=bulk, boundary=boundary)


def kpz_log_weight(ins, psi):
    """log of prod |psi'(z_i)|^{-2 D_{alpha_i}} prod |psi'(s_j)|^{-D_{beta_j}}.

    The predicted partition-function ratio between Mobius-moved and
    original insertions.
    """
    p = ins.params
    out = 0.0
    for z, a in ins.bulk:
        out += -2.0 * conformal_weight(a, p) * math.log(abs(psi.derivative(z)))
    for s, b in ins.boundary:
        out += -conformal_weight(b, p) * math.log(abs(psi.derivative(s)))
    return out


# ---------------------------------------------------------------------------
# drifted chaos replicas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedChaosPair:
    """Drifted bulk and boundary chaos measures of one replica."""

    bulk: AtomicMeasure
    boundary: AtomicMeasure

    def __post_init__(self):
        if self.bulk.total <= 0.0 or self.boundary.total <= 0.0:
            raise DomainError("drifted chaos totals must be positive")


class ChaosBasis:
    """Replicated plain chaos measures on a given grid and trace, ready for drifting.

    Replica r draws its bulk field from rng.child(2r) through
    RotationSampler(grid) and its boundary trace from rng.child(2r + 1)
    through trace (a gmc.GradedDiskGrid and a gff.TraceSampler), in blocks
    of gff.replica_map.  The two draws are independent, a modelling
    choice (in the paper, the trace of one free-boundary GFF carries the
    boundary measure) that J and every estimate at mu_b > 0 see (ROADMAP
    item 2).  Any insertion set at the same gamma acts as a
    deterministic atomwise drift, so several insertion configurations
    share one set of field replicas (paired-replica comparisons of
    partition functions use exactly this).  The basis keeps no masses:
    each reduce call is one pass that draws every block again and reduces
    it by one product per insertion set, so replica r's totals depend
    neither on the number of replicas nor on the pass, and the basis
    keeps two floats per replica per insertion set.
    """

    def __init__(self, gamma, n_replicas, rng, grid, trace):
        self.check_gamma(gamma)
        self.gamma = g = float(gamma)
        self.n_replicas = int(n_replicas)
        self.grid, self.trace, self.rng = grid, trace, rng
        self.sampler = RotationSampler(grid)
        self.arc_points = np.exp(1j * trace.theta)
        self._weights = grid.density_weights(0.5 * g**2)
        self._totals = {}

    @staticmethod
    def check_gamma(gamma):
        """Raise DomainError unless 0 < gamma < 2, the couplings a basis is built for."""
        if not (0.0 < gamma < 2.0):
            raise DomainError("gamma must lie in (0, 2)")

    def drift_factors(self, ins):
        """Atomwise drift weights for an insertion set on this basis grid."""
        if abs(ins.params.gamma - self.gamma) > 1e-12:
            raise ConfigurationError("insertion set gamma does not match the basis")
        g = self.gamma
        fb = bulk_drift_factors(ins, self.grid, g)
        fd = boundary_drift_factors(ins, self.trace.theta, g)
        return fb, fd

    def drifted_totals(self, ins):
        """Per-replica totals (I_r, J_r) of the drifted measures; only the first call for ins makes a pass."""
        self.reduce([ins])
        return self._totals[ins]

    def reduce(self, sets, functionals=None):
        """Cache the drifted totals of every set in one pass, and return {name: fn on the pairs of sets[0]}.

        Each block of masses is reduced by one product per set.  With
        functionals, the pass holds every replica's arc masses while it
        evaluates them; without, sets already cached make no pass.
        """
        functionals = functionals or {}
        if not functionals and all(ins in self._totals for ins in sets):
            return {}
        g, sampler, trace = self.gamma, self.sampler, self.trace
        factors = [self.drift_factors(ins) for ins in sets]
        rows = []  # per replica, the value of each functional

        def bdry_block(coef):
            masses = boundary_masses(trace.fields(coef), trace.variance, g)
            return np.column_stack([masses @ fd for _, fd in factors] + ([masses] if functionals else []))

        def bulk_block(noise):
            masses = bulk_masses(sampler.fields(noise), sampler.variances, self._weights, g)
            if functionals:
                fb, fd = factors[0]
                for row in masses[: self.n_replicas - len(rows)]:  # not the zero rows padding the last block
                    pair = ShiftedChaosPair(
                        AtomicMeasure("bulk", self.grid.centers, row * fb),
                        AtomicMeasure("boundary", self.arc_points, bdry[len(rows), len(sets) :] * fd),
                    )
                    rows.append([fn(pair) for fn in functionals.values()])
            return np.column_stack([masses @ fb for fb, _ in factors])

        bdry = replica_map(bdry_block, lambda r: self.rng.child(2 * r + 1), self.n_replicas, trace.noise_shape)
        bulk = replica_map(bulk_block, lambda r: self.rng.child(2 * r), self.n_replicas, sampler.noise_shape)
        for i, ins in enumerate(sets):
            self._totals[ins] = bulk[:, i].copy(), bdry[:, i].copy()
        return {name: np.array([row[k] for row in rows]) for k, name in enumerate(functionals)}


def bulk_drift_factors(ins, grid, gamma):
    """Cellwise factors e^{gamma H} for the bulk measure atoms.

    Cells within 4 eps (two atom spacings) of a marked point get the mass-weighted
    average of e^{gamma H} over a 24 x 24 subgrid of the cell instead of
    the center value: the drift is integrable there but singular, so a
    single sample would either hit the singularity or misstate the cell's
    drifted mass.  A marked point exactly on an atom raises GridError.
    """
    s = 0.5 * gamma**2

    def subgrid(c):
        dth = grid.dtheta[c]
        rr = _midpoints(grid.r_lo[c], grid.r_hi[c] - grid.r_lo[c], 24)
        tt = _midpoints(np.angle(grid.centers[c]) - dth / 2.0, dth, 24)
        pts = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
        return pts, (1.0 - np.abs(pts) ** 2) ** (-s) * np.abs(pts)

    return _drift_factors(ins, grid.centers, gamma, 4.0 * grid.eps, subgrid)


def boundary_drift_factors(ins, arc_theta, gamma):
    """Arcwise factors e^{(gamma/2) H} for the boundary measure atoms.

    Arcs within two arc widths of a marked point average the drift over
    64 equal pieces of the arc, mirroring the bulk treatment.
    """
    dth = 2.0 * np.pi / len(arc_theta)

    def subgrid(c):
        pts = np.exp(1j * _midpoints(arc_theta[c] - dth / 2.0, dth, 64))
        return pts, np.ones(len(pts))

    return _drift_factors(ins, np.exp(1j * arc_theta), 0.5 * gamma, 2.0 * dth, subgrid)


def _midpoints(lo, width, n):
    """Midpoints of n equal pieces of [lo, lo + width]."""
    return lo + (np.arange(n) + 0.5) * width / n


def _drift_factors(ins, atoms, exponent, near, subgrid):
    """Factors e^{exponent H} at the atoms, averaged near the marked points.

    Atom c closer than `near` to a marked point takes the weighted average
    of the factor over the (points, weights) of subgrid(c), skipping points
    on a marked point; an atom on a marked point raises GridError.
    """
    marked = ins.marked_points()
    if len(marked) == 0:
        return np.ones(len(atoms))
    dist = np.min(np.abs(atoms[:, None] - marked[None, :]), axis=1)
    if np.any(dist == 0.0):
        raise GridError("an atom coincides with a marked point")
    factors = np.exp(exponent * insertion_drift(ins, atoms))
    for c in np.nonzero(dist < near)[0]:
        pts, w = subgrid(c)
        ok = np.min(np.abs(pts[:, None] - marked[None, :]), axis=1) > 0.0
        drift = np.exp(exponent * insertion_drift(ins, pts[ok]))
        factors[c] = float(np.sum(drift * w[ok]) / np.sum(w[ok]))
    return factors


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------

def log_prefactor(ins):
    """log of prod g_P(z_i)^{alpha_i^2/4} e^{C(z, s)}.

    The g_P power is the bulk insertion compensator
    epsilon^{alpha^2/2} e^{(alpha^2/2) Var X_eps(z)} = (1 - |z|^2)^{-alpha^2/2};
    it is what makes the Mobius covariance of the partition function come
    out at the conformal weights (alpha/2)(Q - alpha/2).
    """
    out = log_constant(ins)
    for z, a in ins.bulk:
        out += 0.25 * a**2 * math.log(poincare_density(z))
    return out


def _log_zero_mode(ins, basis):
    """log K_r - log(2/gamma) per replica, K_r the zero-mode c-integral, the totals (I, J), and rel_err.

    y = J_r e^{(gamma/2) c} turns K_r into (2/gamma) J_r^{-a} int_0^inf y^{a-1}
    e^{-mu R_r y^2 - mu_b y} dy, a = 2 s / gamma, R_r = I_r / J_r^2: a Gamma
    integral when mu_b = 0 (rel_err None), _log_y_integral otherwise (rel_err its error estimate).
    """
    require_admissible(ins)
    p = ins.params
    bulk_tot, bdry_tot = basis.drifted_totals(ins)
    ratio = bulk_tot / bdry_tot**2
    a_exp = 2.0 * ins.s_total / p.gamma
    rel_err = None
    if p.mu_boundary == 0.0:
        log_y = math.log(0.5) + math.lgamma(a_exp / 2.0) - (a_exp / 2.0) * np.log(p.mu * ratio)
    else:
        log_y, rel_err = _log_y_integral(a_exp, p.mu * ratio, p.mu_boundary)
    return log_y - a_exp * np.log(bdry_tot), bulk_tot, bdry_tot, rel_err


def partition_estimate(ins, basis):
    """Monte Carlo estimate (value, stderr, rel_err) of the reduced partition function over a ChaosBasis.

    The prefactor times the replica mean of the zero-mode integrals of _log_zero_mode, and their rel_err.
    """
    log_k, _, _, rel_err = _log_zero_mode(ins, basis)
    log_k = log_k + math.log(2.0 / ins.params.gamma)
    shift = float(np.max(log_k))
    scaled = np.exp(log_k - shift)
    pref = math.exp(log_prefactor(ins) + shift)
    value = pref * float(scaled.mean())
    stderr = pref * float(scaled.std(ddof=1) / math.sqrt(len(scaled)))
    return value, stderr, rel_err


def check_ratio_test(params):
    """Raise ConfigurationError unless mu_boundary = 0, the case kpz_ratio_test is implemented for."""
    if params.mu_boundary != 0.0:
        raise ConfigurationError("the ratio test is implemented for mu_boundary = 0")


def kpz_ratio_test(ins, psi, basis):
    """Deviation of the measured Mobius covariance from its prediction.

    Estimates log Pi(moved) - log Pi(original) and subtracts the predicted
    log weight; returns (deviation, stderr).  The two configurations share
    the replicas of one basis, so the comparison is paired and the stderr
    is the jackknife error of the paired log ratio.  mu_boundary = 0.
    """
    check_ratio_test(ins.params)
    moved = mobius_moved(ins, psi)
    basis.reduce([ins, moved])  # both sets' totals from one pass
    log_orig = _log_zero_mode(ins, basis)[0]
    log_moved = _log_zero_mode(moved, basis)[0]
    # one shift for both sets, so that it cancels from every ratio below
    shift = max(float(np.max(log_orig)), float(np.max(log_moved)))
    w_orig = np.exp(log_orig - shift)
    w_moved = np.exp(log_moved - shift)
    log_ratio = (
        math.log(w_moved.mean())
        - math.log(w_orig.mean())
        + log_prefactor(moved)
        - log_prefactor(ins)
    )
    n = len(w_orig)
    loo = np.log((w_moved.sum() - w_moved) / (n - 1)) - np.log(
        (w_orig.sum() - w_orig) / (n - 1)
    )
    return log_ratio - kpz_log_weight(ins, psi), math.sqrt(jackknife_var(loo))


# ---------------------------------------------------------------------------
# joint volume law
# ---------------------------------------------------------------------------

def sample_liouville_triple(ins, n_draws, rng, basis, functionals=None):
    """Draws of (V, L) with per-draw functionals of the normalized measures.

    Replicas of the drifted chaos pair on the ChaosBasis are importance-weighted by
    their zero-mode integrals (_log_zero_mode) and one is selected per draw.
    Given replica r, V = L^2 R_r, R_r = I_r / J_r^2.  When mu_b = 0, V is
    drawn from its Gamma(s_total/gamma, mu) law; otherwise L is drawn exactly
    from the density proportional to y^{(2/gamma) s_total - 1}
    e^{-mu R_r y^2 - mu_b y} by _sample_y.  Returns a dict with arrays V, L,
    replica and weight, one column per requested functional (evaluated on
    the selected replica's normalized pair), the effective sample size `ess`
    of the replica weights (ResamplingError below 10), the y sampler's
    `acceptance_rate` (1 when mu_b = 0, where nothing is rejected) and the
    `zero_mode_rel_err` of _log_zero_mode.
    """
    p = ins.params
    values = basis.reduce([ins], functionals) if functionals else {}  # else _log_zero_mode checks admissibility first
    log_w, bulk_tot, bdry_tot, rel_err = _log_zero_mode(ins, basis)
    ratio = bulk_tot / bdry_tot**2
    a_exp = 2.0 * ins.s_total / p.gamma
    w = np.exp(log_w - np.max(log_w))
    if not np.any(w > 0.0):
        raise ResamplingError("all replica weights underflowed")
    ess = _effective_sample_size(w)
    prob = w / w.sum()

    gen = rng.generator()
    idx = gen.choice(len(prob), size=n_draws, p=prob)
    if p.mu_boundary == 0.0:
        volume = gen.gamma(shape=a_exp / 2.0, scale=1.0 / p.mu, size=n_draws)
        length = np.sqrt(volume / ratio[idx])
        acceptance = 1.0
    else:
        length, acceptance = _sample_y(a_exp, p.mu * ratio[idx], p.mu_boundary, gen)
        volume = length**2 * ratio[idx]

    out = {"V": volume, "L": length, "replica": idx, "weight": prob[idx]}
    out.update(ess=ess, acceptance_rate=acceptance, zero_mode_rel_err=rel_err)
    out.update((name, per_replica[idx]) for name, per_replica in values.items())
    return out


def _effective_sample_size(w):
    """(sum w)^2 / sum w^2 of replica weights w; ResamplingError below 10."""
    ess = float(w.sum() ** 2 / np.sum(w**2))
    if ess < 10.0:
        raise ResamplingError(f"effective sample size {ess:.1f} < 10: too few replicas carry the weight")
    return ess


def _y_peak(a_exp, mu_r, mu_b):
    """Peak y* of y^a e^{-mu_r y^2 - mu_b y}, the stationary point in t = ln y.

    The positive root of 2 mu_r y^2 + mu_b y = a, written without the
    cancellation (or the division by mu_r) of the quadratic formula;
    elementwise on arrays.
    """
    return 2.0 * a_exp / (mu_b + np.sqrt(mu_b**2 + 8.0 * mu_r * a_exp))


Y_LOG_TAIL, Y_NODE_CAP = 37.0, 2**14  # tails below e^{-37} of the peak; trapezoid intervals


def _log_y_integral(a_exp, mu_r, mu_b):
    """log of int_0^inf y^{a-1} e^{-mu_r y^2 - mu_b y} dy on 1-D arrays, and the largest relative error.

    With y = y* e^s (y* = _y_peak) the integrand is e^g, g(s) = -c1 k(s) - c2 k(2s), k(z) = e^z - 1 - z,
    c1 = mu_b y*, c2 = mu_r y*^2, a = c1 + 2 c2: analytic and log-concave.  g <= a s + c1 + c2, and
    g <= -max((a - c1/2) s^2, (c1 + c2) k(s)) for s > 0, so g < -Y_LOG_TAIL outside [lo, hi]; the
    tangents there (g' >= a (1 - e^lo) at lo, g' <= (c1 - 2a) hi at hi, as g'' <= c1 - 2a) bound the
    tails.  s = tau (u + 1 - e^{-u}), tau = (1 - g''(0))^{-1/2}, makes the left tail (37/a long) decay
    double-exponentially in u, and trapezoid sums in u converge geometrically (Trefethen & Weideman
    2014) in a node count that does not grow with 1/a.  Steps halve until change plus tail bounds is
    below 1e-10 of every sum; ResamplingError if one exceeds 1e-8 at Y_NODE_CAP.
    """
    a, m, b = (x[:, None] for x in np.broadcast_arrays(a_exp, mu_r, mu_b))
    with np.errstate(all="ignore"):  # a non-finite entry fails the error check below
        y = _y_peak(a, m, b)
        c2, c1 = m * y**2, b * y
        tau, lo = 1.0 / np.sqrt(1.0 + c1 + 4.0 * c2), -(Y_LOG_TAIL + c1 + c2) / a
        hi = np.minimum(np.sqrt(Y_LOG_TAIL / (a - 0.5 * c1)), np.log(2.0 + 2.0 * Y_LOG_TAIL / (c1 + c2)))
        tails = math.exp(-Y_LOG_TAIL) * (1.0 / (-a * np.expm1(lo)) + 1.0 / ((2.0 * a - c1) * hi))
        u_lo, u_hi = -np.log1p(-lo / tau), hi / tau  # their s lie at or beyond lo and hi
        def f(q, v):  # the integrand in u at u_lo + v (u_hi - u_lo), rows q
            u = u_lo[q] + (u_hi - u_lo)[q] * v
            s = tau[q] * (u - np.expm1(-u))
            g = a[q] * s - c2[q] * np.expm1(2.0 * s) - c1[q] * np.expm1(s)
            return np.exp(g) * tau[q] * (1.0 + np.exp(-u))
        n, todo, err = 1, np.arange(len(a)), np.full(len(a), np.inf)
        total = f(todo, np.array([0.0, 1.0])).mean(axis=1)  # trapezoid sums in v
        while len(todo) and 2 * n <= Y_NODE_CAP:
            n *= 2
            blocks = np.array_split(todo, 1 + len(todo) * n // (2 * BUILD_CHUNK))  # ~BUILD_CHUNK nodes each
            mid = np.concatenate([f(q, np.arange(1, n, 2) / n).sum(axis=1) for q in blocks]) / n
            new = 0.5 * total[todo] + mid
            err[todo] = (np.abs(new - total[todo]) + (tails / (u_hi - u_lo))[todo, 0]) / new
            total[todo] = new
            todo = todo[~(err[todo] < 1e-10)]
    if not np.all(err <= 1e-8):
        raise ResamplingError(f"zero-mode quadrature did not converge (relative error {np.max(err)})")
    return (a * np.log(y) - c2 - c1 + np.log(u_hi - u_lo))[:, 0] + np.log(total), float(np.max(err))


Y_ROUNDS = 64


def _sample_y(a_exp, mu_r, mu_b, gen):
    """Exact draws y_i from the densities proportional to y^{a-1} e^{-mu_r[i] y^2 - mu_b y}.

    Rejection from the tangent-line envelope (Devroye 1986, ch. II.3): at
    y* = _y_peak, -mu_r y^2 <= -2 mu_r y* y + mu_r y*^2, so a proposal
    y ~ Gamma(a, rate mu_b + 2 mu_r y*) accepted with probability
    e^{-mu_r (y - y*)^2} has exactly the target law, for any y* > 0.  With y*
    the peak, the acceptance rate is at least 1/sqrt(2) (1 when mu_r = 0, a
    plain Gamma draw).  Rejected entries are proposed again, for at most
    Y_ROUNDS rounds.  Returns the draws and the share of proposals accepted;
    raises ResamplingError if a rate or y* is not finite and positive, or if
    a draw is still rejected after Y_ROUNDS rounds.
    """
    with np.errstate(invalid="ignore"):  # a non-finite mu_r is reported below
        y_star = _y_peak(a_exp, mu_r, mu_b)
        rate = mu_b + 2.0 * mu_r * y_star
    ok = np.isfinite(y_star) & np.isfinite(rate) & (y_star > 0.0) & (rate > 0.0)
    if not np.all(ok):
        raise ResamplingError("y sampler: the envelope peak and rate must be finite and positive")
    y = np.empty(len(y_star))
    todo = np.arange(len(y_star))
    proposed = 0
    for _ in range(Y_ROUNDS):
        if len(todo) == 0:
            break
        proposal = gen.standard_gamma(a_exp, size=len(todo)) / rate[todo]
        keep = gen.random(len(todo)) < np.exp(-mu_r[todo] * (proposal - y_star[todo]) ** 2)
        y[todo[keep]] = proposal[keep]
        proposed += len(todo)
        todo = todo[~keep]
    if len(todo):
        raise ResamplingError(f"y sampler: {len(todo)} draws still rejected after {Y_ROUNDS} rounds")
    return y, len(y) / proposed if proposed else 1.0


# ---------------------------------------------------------------------------
# fixed-volume expectations
# ---------------------------------------------------------------------------

def unit_volume_expectation(ins, fn, basis):
    """Expectation of a measure functional at unit total volume.

    Requires mu_boundary = 0 and exactly three boundary insertions of
    weight gamma.  The estimator is the average of fn over the replicas of
    the ChaosBasis (normalized pairs), weighted by their zero-mode
    integrals (_log_zero_mode, proportional to I^{-s/gamma}), with a
    jackknife standard error; returns (value, stderr, effective_sample_size),
    and raises ResamplingError if that size is below 10.
    """
    p = ins.params
    if p.mu_boundary != 0.0:
        raise ConfigurationError("unit-volume expectations require mu_boundary = 0")
    betas = [b for _, b in ins.boundary]
    if len(ins.bulk) != 0 or len(betas) != 3 or any(abs(b - p.gamma) > 1e-12 for b in betas):
        raise ConfigurationError(
            "unit-volume expectations require exactly three boundary insertions of weight gamma"
        )
    f_vals = basis.reduce([ins], {"fn": fn})["fn"]
    log_w = _log_zero_mode(ins, basis)[0]
    w = np.exp(log_w - np.max(log_w))
    ess = _effective_sample_size(w)
    value = float(np.sum(w * f_vals) / w.sum())
    loo = (np.sum(w * f_vals) - w * f_vals) / (w.sum() - w)
    return value, math.sqrt(jackknife_var(loo)), ess
