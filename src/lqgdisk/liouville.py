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
independent of the normalized measures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

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
from .gff import (
    RotationSampler,
    arc_centers,
    boundary_synthesis_matrix,
    replica_map,
    truncated_boundary_variance,
)
from .gmc import AtomicMeasure, boundary_masses, bulk_masses, graded_disk_grid, jackknife_var

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

    With mu > 0 all three bounds are required; with mu = 0 and a positive
    boundary constant the bulk-weight bound is not (bulk weights may reach
    or exceed Q).  All inequalities are strict.
    """
    p = ins.params
    q = p.Q
    s_total = ins.s_total
    bound1 = s_total > 0.0
    bound2 = all(a < q for _, a in ins.bulk)
    bound3 = all(b < q for _, b in ins.boundary)
    if p.mu > 0.0:
        case = "mu_positive"
        admissible = bound1 and bound2 and bound3
    elif p.mu_boundary > 0.0:
        case = "mu_zero_boundary_positive"
        admissible = bound1 and bound3
    else:
        case = "degenerate"
        admissible = False
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

    @property
    def ratio(self):
        return self.bulk.total / self.boundary.total**2


class ChaosBasis:
    """Replicated plain chaos measures on a fixed grid, ready for drifting.

    Holds per-replica bulk atom masses and boundary arc masses of the
    undrifted measures; any insertion set at the same gamma can then be
    applied as a deterministic atomwise drift, so several insertion
    configurations can share one set of field replicas (paired-replica
    comparisons of partition functions use exactly this).  Replica r
    draws its bulk field from rng.child(2r) through a RotationSampler and
    its boundary coefficients from rng.child(2r + 1), in blocks of
    gff.replica_map.
    """

    def __init__(
        self,
        gamma,
        n_replicas,
        rng,
        depth=7,
        rings_per_band=2,
        aspect=2.0,
        n_modes=1024,
        n_arcs=256,
    ):
        if not (0.0 < gamma < 2.0):
            raise DomainError("gamma must lie in (0, 2)")
        self.gamma = float(gamma)
        self.n_replicas = int(n_replicas)
        self.grid = graded_disk_grid(depth, rings_per_band, aspect)
        self.sampler = RotationSampler(self.grid.centers, self.grid.eps)
        self.n_modes = int(n_modes)
        self.n_arcs = int(n_arcs)
        self.arc_theta = arc_centers(n_arcs)
        self.arc_points = np.exp(1j * self.arc_theta)

        g = self.gamma
        weights = self.grid.density_weights(0.5 * g**2)
        var_n = truncated_boundary_variance(self.n_modes)
        synthesis = boundary_synthesis_matrix(self.arc_theta, self.n_modes)

        def bulk_block(noise):
            return bulk_masses(self.sampler.fields(noise), self.sampler.variances, weights, g)

        def boundary_block(coef):
            x = coef.reshape(len(coef), -1) @ synthesis
            return boundary_masses(x, var_n, g, self.n_arcs)

        streams = [rng.child(k) for k in range(2 * self.n_replicas)]
        self.bulk_masses = replica_map(bulk_block, streams[0::2], self.sampler.noise_shape)
        self.bdry_masses = replica_map(boundary_block, streams[1::2], (2, self.n_modes))

    def drift_factors(self, ins):
        """Atomwise drift weights for an insertion set on this basis grid."""
        if abs(ins.params.gamma - self.gamma) > 1e-12:
            raise ConfigurationError("insertion set gamma does not match the basis")
        g = self.gamma
        fb = bulk_drift_factors(ins, self.grid, g)
        fd = boundary_drift_factors(ins, self.arc_theta, g)
        return fb, fd

    def drifted_totals(self, ins):
        """Per-replica totals (I_r, J_r) of the drifted measures."""
        fb, fd = self.drift_factors(ins)
        return self.bulk_masses @ fb, self.bdry_masses @ fd

    def functional_values(self, ins, fn):
        """fn evaluated on every replica's drifted pair."""
        factors = self.drift_factors(ins)
        return np.array([fn(self._pair(factors, r)) for r in range(self.n_replicas)])

    def _pair(self, factors, r):
        fb, fd = factors
        bulk = AtomicMeasure("bulk", self.grid.centers, self.bulk_masses[r] * fb)
        bdry = AtomicMeasure("boundary", self.arc_points, self.bdry_masses[r] * fd)
        return ShiftedChaosPair(bulk, bdry)


def bulk_drift_factors(ins, grid, gamma):
    """Cellwise factors e^{gamma H} for the bulk measure atoms.

    Cells within two cell scales of a marked point get the mass-weighted
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

    return _drift_factors(ins, grid.centers, gamma, 2.0 * grid.cell_scale(), subgrid)


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


def _log_c_integral(s_total, gamma, mu_i, mub_j):
    """log of int e^{s c} exp(-mu_i e^{gamma c} - mub_j e^{(gamma/2) c}) dc.

    The integrand is log-concave with a unique interior maximum whenever
    s_total > 0 and mu_i + mub_j > 0; integrates around the peak after an
    exact location of the stationary point.
    """
    if s_total <= 0.0:
        raise NotAdmissibleError("the zero-mode integral diverges for s_total <= 0")
    g = gamma
    # stationary point: s = mu_i g u^2 + mub_j (g/2) u with u = e^{(g/2) c}
    if mu_i > 0.0:
        disc = (mub_j * g / 2.0) ** 2 + 4.0 * mu_i * g * s_total
        u_star = (-mub_j * g / 2.0 + math.sqrt(disc)) / (2.0 * mu_i * g)
    else:
        u_star = 2.0 * s_total / (g * mub_j)
    c_star = (2.0 / g) * math.log(u_star)

    def log_f(c):
        return s_total * c - mu_i * math.exp(g * c) - mub_j * math.exp(g * c / 2.0)

    return _log_peaked_integral(log_f, c_star, "zero-mode")


def _log_peaked_integral(log_f, t_star, what):
    """log of int e^{log_f(t)} dt for a log-concave integrand peaked at t_star.

    Expands the bracket until the integrand is negligible at both ends,
    then integrates with quad; raises ResamplingError unless quad reports
    a relative error below 1e-8.
    """
    peak = log_f(t_star)
    lo, hi = t_star - 1.0, t_star + 1.0
    while log_f(lo) - peak > math.log(1e-14):
        lo -= 1.0 + (t_star - lo)
    while log_f(hi) - peak > math.log(1e-14):
        hi += 1.0 + (hi - t_star)
    val, err = scipy.integrate.quad(
        lambda t: math.exp(log_f(t) - peak), lo, hi, limit=200, epsabs=0.0, epsrel=1e-10
    )
    if not np.isfinite(val) or val <= 0.0 or err > 1e-8 * val:
        raise ResamplingError(f"{what} quadrature did not converge (value {val}, err {err})")
    return peak + math.log(val)


def partition_estimate(ins, basis, method="auto"):
    """Monte Carlo estimate of the reduced partition function over a ChaosBasis.

    Returns (value, stderr).  With mu_boundary = 0 and method "auto" or
    "gamma" the zero-mode integral is reduced in closed form to
    gamma^-1 Gamma(s/gamma) mu^{-s/gamma} E[I^{-s/gamma}]; method
    "quadrature" evaluates the c-integral numerically per replica (the two
    paths agree to quadrature accuracy on identical replicas).
    """
    require_admissible(ins)
    p = ins.params
    bulk_tot, bdry_tot = basis.drifted_totals(ins)

    if method == "auto":
        method = "gamma" if p.mu_boundary == 0.0 else "quadrature"
    if method == "gamma":
        if p.mu_boundary != 0.0:
            raise ConfigurationError("the closed-form reduction requires mu_boundary = 0")
        q = ins.s_total / p.gamma
        log_k = (
            -math.log(p.gamma)
            + math.lgamma(q)
            - q * math.log(p.mu)
            - q * np.log(bulk_tot)
        )
    elif method == "quadrature":
        log_k = np.array(
            [
                _log_c_integral(ins.s_total, p.gamma, p.mu * i_r, p.mu_boundary * j_r)
                for i_r, j_r in zip(bulk_tot, bdry_tot)
            ]
        )
    else:
        raise ConfigurationError(f"unknown method {method!r}")

    shift = float(np.max(log_k))
    scaled = np.exp(log_k - shift)
    pref = math.exp(log_prefactor(ins) + shift)
    value = pref * float(scaled.mean())
    stderr = pref * float(scaled.std(ddof=1) / math.sqrt(len(scaled)))
    return value, stderr


def kpz_ratio_test(ins, psi, basis):
    """Deviation of the measured Mobius covariance from its prediction.

    Estimates log Pi(moved) - log Pi(original) and subtracts the predicted
    log weight; returns (deviation, stderr).  The two configurations share
    the replicas of one basis, so the comparison is paired and the stderr
    is the jackknife error of the paired log ratio.  mu_boundary = 0.
    """
    if ins.params.mu_boundary != 0.0:
        raise ConfigurationError("the ratio test is implemented for mu_boundary = 0")
    require_admissible(ins)
    moved = mobius_moved(ins, psi)
    q = ins.s_total / ins.params.gamma
    i_orig, _ = basis.drifted_totals(ins)
    i_moved, _ = basis.drifted_totals(moved)
    w_orig = i_orig ** (-q)
    w_moved = i_moved ** (-q)
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

    Replicas of the drifted chaos pair on the ChaosBasis are importance-weighted by the
    boundary total to the power -(2/gamma) s_total times the one-dimensional
    y-integral; a replica is selected per draw and y is drawn from the
    density proportional to y^{(2/gamma) s_total - 1}
    e^{-mu y^2 R - mu_b y}.  Returns a dict with arrays V, L, replica, and
    one column per requested functional (evaluated on the selected
    replica's normalized pair).
    """
    require_admissible(ins)
    p = ins.params
    bulk_tot, bdry_tot = basis.drifted_totals(ins)
    ratio = bulk_tot / bdry_tot**2
    a_exp = 2.0 * ins.s_total / p.gamma

    # replica log-weights: y-integral times J^{-a}
    if p.mu_boundary == 0.0:
        log_y_int = (
            math.log(0.5) + math.lgamma(a_exp / 2.0) - (a_exp / 2.0) * np.log(p.mu * ratio)
        )
    else:
        log_y_int = np.array(
            [
                _log_y_integral(a_exp, p.mu * r_r, p.mu_boundary)
                for r_r in ratio
            ]
        )
    log_w = log_y_int - a_exp * np.log(bdry_tot)
    shift = float(np.max(log_w))
    w = np.exp(log_w - shift)
    if not np.any(w > 0.0):
        raise ResamplingError("all replica weights underflowed")
    prob = w / w.sum()

    gen = rng.generator()
    idx = gen.choice(len(prob), size=n_draws, p=prob)
    if p.mu_boundary == 0.0:
        volume = gen.gamma(shape=a_exp / 2.0, scale=1.0 / p.mu, size=n_draws)
        length = np.sqrt(volume / ratio[idx])
    else:
        length = np.array(
            [_draw_y(a_exp, p.mu * ratio[i], p.mu_boundary, gen) for i in idx]
        )
        volume = length**2 * ratio[idx]

    out = {"V": volume, "L": length, "replica": idx, "weight": prob[idx]}
    if functionals:
        for name, fn in functionals.items():
            per_replica = basis.functional_values(ins, fn)
            out[name] = per_replica[idx]
    return out


def _y_peak(a_exp, mu_r, mu_b):
    """Peak y* of y^a e^{-mu_r y^2 - mu_b y}, the stationary point in t = ln y."""
    disc = mu_b**2 + 8.0 * mu_r * a_exp
    return (-mu_b + math.sqrt(disc)) / (4.0 * mu_r) if mu_r > 0 else a_exp / mu_b


def _log_y_integral(a_exp, mu_r, mu_b):
    """log of int_0^inf y^{a-1} e^{-mu_r y^2 - mu_b y} dy."""
    def log_f(t):
        # substitute y = e^t
        return a_exp * t - mu_r * math.exp(2.0 * t) - mu_b * math.exp(t)

    return _log_peaked_integral(log_f, math.log(_y_peak(a_exp, mu_r, mu_b)), "y-integral")


def _draw_y(a_exp, mu_r, mu_b, gen):
    """Inverse-CDF draw from the density prop to y^{a-1} e^{-mu_r y^2 - mu_b y}."""
    t_star = math.log(_y_peak(a_exp, mu_r, mu_b))
    t = np.linspace(t_star - 40.0, t_star + 8.0, 2048)
    log_pdf = a_exp * t - mu_r * np.exp(2.0 * t) - mu_b * np.exp(t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    u = gen.uniform()
    return float(np.exp(np.interp(u, cdf, t)))


# ---------------------------------------------------------------------------
# fixed-volume expectations
# ---------------------------------------------------------------------------

def unit_volume_expectation(ins, fn, basis):
    """Expectation of a measure functional at unit total volume.

    Requires mu_boundary = 0 and exactly three boundary insertions of
    weight gamma.  The estimator is the I^{-s/gamma}-weighted average of
    fn over the replicas of the ChaosBasis (normalized pairs), with a
    jackknife standard error; returns (value, stderr, effective_sample_size).
    """
    p = ins.params
    if p.mu_boundary != 0.0:
        raise ConfigurationError("unit-volume expectations require mu_boundary = 0")
    betas = [b for _, b in ins.boundary]
    if len(ins.bulk) != 0 or len(betas) != 3 or any(abs(b - p.gamma) > 1e-12 for b in betas):
        raise ConfigurationError(
            "unit-volume expectations require exactly three boundary insertions of weight gamma"
        )
    require_admissible(ins)
    bulk_tot, _ = basis.drifted_totals(ins)
    q = ins.s_total / p.gamma  # equals 3/2 - Q/gamma
    w = bulk_tot ** (-q)
    f_vals = basis.functional_values(ins, fn)
    ess = float(w.sum() ** 2 / np.sum(w**2))
    if ess < 10.0:
        warnings.warn(f"effective sample size {ess:.1f} < 10", RuntimeWarning)
    value = float(np.sum(w * f_vals) / w.sum())
    loo = (np.sum(w * f_vals) - w * f_vals) / (w.sum() - w)
    return value, math.sqrt(jackknife_var(loo)), ess
