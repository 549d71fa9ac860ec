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

from .errors import ConfigurationError, DomainError, GridError
from .gff import (
    arc_centers,
    boundary_synthesis,
    circulant_fields,
    circulant_root,
    covariance_entries,
    truncated_boundary_variance,
)
from .gmc import AtomicMeasure, bulk_masses, jackknife_var, window_sector_grid

__all__ = [
    "MAX_LADDER_LEVEL",
    "nominal_bulk_norming",
    "nominal_boundary_norming",
    "seneta_heyde_bulk",
    "seneta_heyde_boundary",
    "SectorSampler",
    "coarsen_noise",
    "check_bulk_ladder",
    "check_boundary_ladder",
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

# the level-10 sector has 32,768 points; the level-11 embedding blocks alone
# would take over 0.5 GB
MAX_LADDER_LEVEL = 10
# replicas drawn per block; the block size changes no draw
REPLICA_BLOCK = 500


class SectorSampler:
    """Exact draws of circle-average values on window_sector_grid(depth).

    The covariance of the sector depends on two angles only through their
    offset d, so it is block Toeplitz in the n_t angles, with n_r x n_r
    blocks c(d) over the radii.  It embeds in a block circulant on
    M = 2 n_t angles (c(d) for d <= n_t, c(M - d) beyond), which the real
    DFT over the angles splits into the M/2 + 1 symmetric blocks
    spectrum[q] = Re sum_d c(d) e^{-2 pi i q d / M}.  Each block is
    factored by its symmetric square root root[q] (gff.circulant_root);
    from real white noise xi of shape (n_r, M), irfft(root_q rfft(xi))
    (gff.circulant_fields) has the circulant covariance, and its first n_t
    angles have the sector's.  The embedding must be positive
    semidefinite, under the rule of gff.check_eigenvalues
    (FactorizationError otherwise).
    """

    def __init__(self, depth):
        self.grid = window_sector_grid(depth)
        n_r = self.grid.rings_per_band
        self.n_angles = self.grid.size // n_r
        self.noise_shape = (n_r, 2 * self.n_angles)
        radii = np.abs(self.grid.centers[:: self.n_angles])
        shifts = np.exp(1j * self.grid.dtheta[0] * np.arange(self.n_angles + 1))
        blocks = covariance_entries(
            radii[:, None], radii[None, :] * shifts[:, None, None], self.grid.eps[0]
        )
        self.variances = np.repeat(np.diag(blocks[0]), self.n_angles)
        embedded = np.concatenate([blocks, blocks[-2:0:-1]])
        self.spectrum = np.fft.rfft(embedded, axis=0).real
        self._root, self.min_eigenvalue = circulant_root(self.spectrum)

    def fields(self, noise):
        """Field values in grid order, shape (n, grid.size), from noise of shape (n, *noise_shape)."""
        x = circulant_fields(self._root, noise)
        return x[:, :, : self.n_angles].reshape(len(noise), -1)


def coarsen_noise(noise):
    """White noise of the next coarser sector level, shape (..., 2a, 2b) -> (..., a, b).

    Each coarse value is half the sum of its four children.  The map P
    from fine to coarse noise has orthonormal rows (P P^T = I), so the
    result is again standard white noise.
    """
    even, odd = noise[..., 0::2, :], noise[..., 1::2, :]
    return (even[..., 0::2] + odd[..., 0::2] + even[..., 1::2] + odd[..., 1::2]) / 2.0


def _ladder_counts(kind, levels, n_replicas):
    """Levels and per-level replica counts as lists of ints, checked as check_bulk_ladder says."""
    levels = [int(k) for k in levels]
    if np.isscalar(n_replicas):
        n_replicas = [n_replicas] * len(levels)
    counts = [int(n) for n in n_replicas]
    if not levels:
        raise ConfigurationError(f"a {kind} ladder needs at least one level")
    if len(counts) != len(levels):
        raise ConfigurationError(
            f"n_replicas has {len(counts)} counts for {len(levels)} levels"
        )
    if min(counts) < 1:
        raise ConfigurationError(f"replica counts must be positive, got {counts}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError(f"ladder levels must increase strictly, got {levels}")
    return levels, counts


def check_bulk_ladder(levels, n_replicas):
    """The levels and per-level replica counts of a bulk ladder, checked.

    Levels must increase strictly and n_replicas must be one positive
    count, or one per level (ConfigurationError otherwise); levels must
    lie in 4..MAX_LADDER_LEVEL (GridError otherwise).  Returns
    (levels, counts) as lists of ints.
    """
    levels, counts = _ladder_counts("bulk", levels, n_replicas)
    if levels[0] < 4 or levels[-1] > MAX_LADDER_LEVEL:
        raise GridError(f"ladder levels run from 4 to {MAX_LADDER_LEVEL}, got {levels}")
    return levels, counts


def check_boundary_ladder(mode_levels, n_replicas):
    """The mode levels and per-level replica counts of a boundary ladder, checked.

    As check_bulk_ladder, except that the levels are Fourier cutoffs,
    which must be at least 1 (GridError otherwise).
    """
    levels, counts = _ladder_counts("boundary", mode_levels, n_replicas)
    if levels[0] < 1:
        raise GridError(f"mode levels must be at least 1, got {levels}")
    return levels, counts


def bulk_ladder_totals(levels, n_replicas, rng, report=None):
    """Masses of the critical bulk measure in a fixed window, per scale.

    Level k resolves the fixed sector of window_sector_grid at the uniform
    scale eps = 2^-k; the window itself never moves, so the ladder isolates
    the effect of the cutoff (a whole-disk ladder would confound it with
    newly resolved boundary mass).  Levels and counts are checked by
    check_bulk_ladder; n_replicas may be a single count or one count per
    level, since the coarse levels are cheap and benefit from more
    replicas.  Each level is drawn exactly by its SectorSampler.

    The levels are coupled: replica r draws its white noise once, at its
    finest level (the last level with more than r replicas), from one
    stream in ascending replica order, and each coarser level uses that
    noise coarsened by coarsen_noise.  Every level keeps its exact law,
    while consecutive levels of one replica are strongly correlated.
    Returns (pushed, plain): two lists of per-level total arrays, with and
    without the sqrt(ln 1/eps) push.  A dict passed as report receives
    "min_eigenvalues", the smallest eigenvalue of each level's embedding.
    """
    levels, counts = check_bulk_ladder(levels, n_replicas)
    samplers = [SectorSampler(k) for k in levels]
    weights = [s.grid.density_weights(2.0) for s in samplers]
    plain = [np.empty(n) for n in counts]
    gen = rng.generator()
    for start in range(0, max(counts), REPLICA_BLOCK):
        stop = min(start + REPLICA_BLOCK, max(counts))
        r = start
        while r < stop:
            finest = max(i for i, n in enumerate(counts) if n > r)
            end = min(stop, counts[finest])
            noise = gen.standard_normal((end - r, *samplers[finest].noise_shape))
            for i in range(finest, -1, -1):
                n = min(end, counts[i]) - r
                if n > 0:
                    x = samplers[i].fields(noise[:n])
                    masses = bulk_masses(x, samplers[i].variances, weights[i], 2.0)
                    plain[i][r : r + n] = masses.sum(axis=1)
                if i > 0:
                    for _ in range(levels[i] - levels[i - 1]):
                        noise = coarsen_noise(noise)
            r = end
    pushed = [t * math.sqrt(math.log(1.0 / s.grid.eps[0])) for t, s in zip(plain, samplers)]
    if report is not None:
        report["min_eigenvalues"] = [s.min_eigenvalue for s in samplers]
    return pushed, plain


def boundary_ladder_totals(mode_levels, n_replicas, rng):
    """Total masses of the critical boundary measure along a cutoff ladder.

    Level N has 2N arcs, as in seneta_heyde_boundary.  Levels and counts
    are checked by check_boundary_ladder; n_replicas is one count or one
    per level.  All levels share one block of Fourier coefficients, drawn
    once at the largest cutoff for the largest count, and level i uses its
    first n_i replicas, so consecutive-level ratios are strongly coupled.
    Returns (pushed, plain): two lists of per-level total arrays, with and
    without the sqrt(Var_N / 2) push.
    """
    mode_levels, counts = check_boundary_ladder(mode_levels, n_replicas)
    gen = rng.generator()
    coeffs = gen.standard_normal((max(counts), 2, max(mode_levels)))
    pushed, plain = [], []
    for n, count in zip(mode_levels, counts):
        n_arcs = 2 * n
        cosb, sinb = boundary_synthesis(arc_centers(n_arcs), n)
        x = coeffs[:count, 0, :n] @ cosb.T + coeffs[:count, 1, :n] @ sinb.T
        var = truncated_boundary_variance(n)
        # the critical normalization has no e^{-gamma^2/8} factor (see seneta_heyde_boundary)
        masses = np.exp(x - 0.5 * var) * (2.0 * np.pi / n_arcs)
        pushed.append((masses * np.sqrt(0.5 * var)).sum(axis=1))
        plain.append(masses.sum(axis=1))
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
