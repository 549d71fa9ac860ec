"""Critical (gamma = 2) chaos measures and their stabilization diagnostics.

At the critical coupling the subcritical normalization produces measures
that vanish in the small-scale limit; a square-root-of-log push restores a
nontrivial limit.  The measures here carry that push in a variance-matched
form:

* bulk atoms on the graded grid are pushed by sqrt(ln 1/eps_c) with eps_c
  the cell's own averaging radius;
* boundary atoms built from an N-mode trace are pushed by sqrt(Var_N / 2),
  the truncated variance standing in for ln N.

Ladder drivers refine the cutoff and report total-mass medians, the
diagnostic of choice since only moments of order q < 1 exist.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DomainError, GridError
from .gff import FieldSampler, arc_centers, boundary_synthesis, truncated_boundary_variance
from .gmc import AtomicMeasure, bulk_masses, jackknife_var, window_sector_grid

__all__ = [
    "nominal_bulk_norming",
    "nominal_boundary_norming",
    "seneta_heyde_bulk",
    "seneta_heyde_boundary",
    "bulk_ladder_totals",
    "boundary_ladder_totals",
    "moment_diagnostic",
    "median_ratios",
]


def nominal_bulk_norming(eps):
    """Nominal per-scale normalization sqrt(ln 1/eps) eps^2 of the bulk measure."""
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    return float(np.sqrt(np.log(1.0 / eps)) * eps**2)


def nominal_boundary_norming(n_modes):
    """Nominal normalization sqrt(ln N) / N of the boundary measure at cutoff N."""
    if n_modes < 2:
        raise DomainError("n_modes must be at least 2")
    return float(np.sqrt(np.log(n_modes)) / n_modes)


def seneta_heyde_bulk(field, grid, push=True):
    """Critical bulk measure e^{2X} dlambda with the log push.

    Atom masses are

        sqrt(ln 1/eps_c) exp(2 X_c - 2 Var X_c) int_c (1 - r^2)^{-2},

    where the per-cell push uses the cell's averaging radius (the grid's
    local cutoff scale).  With push=False the sqrt factor is dropped,
    which reproduces the vanishing subcritical normalization at gamma = 2.
    """
    weights = grid.density_weights(2.0)
    masses = bulk_masses(field.values, field.variances, weights, 2.0)
    if push:
        masses = masses * np.sqrt(np.log(1.0 / grid.eps))
    meta = {"gamma": 2.0, "critical": True, "push": bool(push), "n_bands": grid.n_bands}
    return AtomicMeasure("bulk", field.points.copy(), masses, meta)


def seneta_heyde_boundary(trace, n_arcs=None, push=True):
    """Critical boundary measure e^{X} dlambda_boundary with the log push.

    Uses the Fourier cutoff N of the trace with equivalent scale 1/N; the
    exponent normalization is the exact truncated variance, and the push is
    its square root over two:

        sqrt(Var_N / 2) exp(X(theta) - Var_N / 2) (2 pi / n_arcs).
    """
    n = trace.n_modes
    if n < 64:
        raise GridError("boundary critical measure needs at least 64 modes")
    if n_arcs is None:
        n_arcs = 2 * n
    theta = arc_centers(n_arcs)
    var = truncated_boundary_variance(n)
    masses = np.exp(trace.evaluate(theta) - 0.5 * var) * (2.0 * np.pi / n_arcs)
    if push:
        masses = masses * np.sqrt(0.5 * var)
    meta = {"gamma": 2.0, "critical": True, "push": bool(push), "n_modes": n}
    return AtomicMeasure("boundary", np.exp(1j * theta), masses, meta)


# ---------------------------------------------------------------------------
# ladder diagnostics
# ---------------------------------------------------------------------------

def bulk_ladder_totals(levels, n_replicas, rng):
    """Masses of the critical bulk measure in a fixed window, per scale.

    Level k resolves the fixed sector of window_sector_grid at the uniform
    scale eps = 2^-k; the window itself never moves, so the ladder isolates
    the effect of the cutoff (a whole-disk ladder would confound it with
    newly resolved boundary mass).  n_replicas may be a single count or one
    count per level; the coarse levels are cheap and benefit from more
    replicas.  Each level is factored and drawn once.  Returns (pushed,
    plain): two lists of per-level total arrays, with and without the
    sqrt(ln 1/eps) push.
    """
    if np.isscalar(n_replicas):
        n_replicas = [int(n_replicas)] * len(levels)
    pushed, plain = [], []
    for k, nrep in zip(levels, n_replicas):
        grid = window_sector_grid(k)
        sampler = FieldSampler(grid.centers, grid.eps)
        vals = sampler.draw_batch(nrep, rng.child(k))
        variances = np.diag(sampler.covariance)
        weights = grid.density_weights(2.0)
        masses = bulk_masses(vals, variances[:, None], weights[:, None], 2.0)
        push = np.sqrt(np.log(1.0 / grid.eps))[:, None]
        pushed.append((masses * push).sum(axis=0))
        plain.append(masses.sum(axis=0))
    return pushed, plain


def boundary_ladder_totals(mode_levels, n_replicas, rng):
    """Total masses of the critical boundary measure along a cutoff ladder.

    Level N has 2N arcs, as in seneta_heyde_boundary.  All levels of one
    replica share the same Fourier coefficients (drawn once at the largest
    cutoff), so consecutive-level ratios are strongly coupled.  Returns
    (pushed, plain), each of shape (len(mode_levels), n_replicas), with and
    without the sqrt(Var_N / 2) push.
    """
    mode_levels = list(mode_levels)
    n_max = max(mode_levels)
    gen = rng.generator()
    coeffs = gen.standard_normal((n_replicas, 2, n_max))
    pushed = np.empty((len(mode_levels), n_replicas))
    plain = np.empty((len(mode_levels), n_replicas))
    for i, n in enumerate(mode_levels):
        n_arcs = 2 * n
        cosb, sinb = boundary_synthesis(arc_centers(n_arcs), n)
        x = coeffs[:, 0, :n] @ cosb.T + coeffs[:, 1, :n] @ sinb.T
        var = truncated_boundary_variance(n)
        # the critical normalization has no e^{-gamma^2/8} factor (see seneta_heyde_boundary)
        masses = np.exp(x - 0.5 * var) * (2.0 * np.pi / n_arcs)
        pushed[i] = (masses * np.sqrt(0.5 * var)).sum(axis=1)
        plain[i] = masses.sum(axis=1)
    return pushed, plain


def median_ratios(totals):
    """Consecutive ratios of per-level medians of ladder totals."""
    med = np.array([np.median(t) for t in totals])
    return med[1:] / med[:-1]


def moment_diagnostic(measures, q):
    """Empirical q-th moment of total masses with a jackknife standard error.

    Accepts a sequence of AtomicMeasure or an array of totals.  Values of
    q >= 1 are outside the finite-moment guarantee of the critical
    measures; they are computed anyway and flagged with a warning.
    """
    if q <= 0.0:
        raise DomainError("q must be positive")
    totals = np.asarray(
        [m.total if isinstance(m, AtomicMeasure) else float(m) for m in measures]
    )
    if len(totals) < 100:
        raise DomainError("at least 100 replicas are required")
    if q >= 1.0:
        warnings.warn(
            f"q = {q} is outside the guaranteed moment range q < 1", RuntimeWarning
        )
    powered = totals**q
    loo = (powered.sum() - powered) / (len(powered) - 1)
    return float(powered.mean()), math.sqrt(jackknife_var(loo))
