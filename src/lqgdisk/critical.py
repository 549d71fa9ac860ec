"""Critical (gamma = 2) chaos measures and their stabilization diagnostics.

At the critical coupling the subcritical normalization produces measures
that vanish in the small-scale limit; a square-root-of-log push restores a
nontrivial limit.  The ladders here report both, with the push in a
variance-matched form:

* bulk totals in a fixed window at the uniform scale eps are pushed by
  sqrt(ln 1/eps);
* boundary totals built from an N-mode trace are pushed by sqrt(Var_N / 2),
  the truncated variance standing in for ln N.

Ladder drivers refine the cutoff and report total-mass medians, the
diagnostic of choice since only moments of order q < 1 exist.
"""

from __future__ import annotations

import math
import time
from contextlib import closing

import numpy as np

from .errors import ConfigurationError, GridError
from .gff import BUILD_CHUNK, TraceSampler, circulant_fields, circulant_root, covariance_entries
from .gmc import bulk_masses, window_sector_grid

__all__ = [
    "MAX_LADDER_LEVEL",
    "SectorSampler",
    "sector_spectrum",
    "coarsen_noise",
    "check_bulk_ladder",
    "check_boundary_ladder",
    "bulk_ladder_totals",
    "boundary_ladder_totals",
    "median_ratios",
]


# ---------------------------------------------------------------------------
# ladder diagnostics
# ---------------------------------------------------------------------------

# a level-8-10 ladder peaks near 190 MB; at level 11 the spectrum and its
# root alone would take 2 x 539 MB
MAX_LADDER_LEVEL = 10
# noise values drawn per replica block (2 MB); the block size changes no draw
NOISE_BLOCK = 2**18


class SectorSampler:
    """Exact draws of circle-average values on window_sector_grid(depth).

    The covariance of the sector depends on two angles only through their
    offset d, so it is block Toeplitz in the n_t angles, with n_r x n_r
    blocks c(d) over the radii.  It embeds in a block circulant on
    M = 2 n_t angles (c(d) for d <= n_t, c(M - d) beyond), which the real
    DFT over the angles splits into the M/2 + 1 symmetric blocks
    spectrum[q] = Re sum_d c(d) e^{-2 pi i q d / M} (sector_spectrum).  Each block is
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
        self.variances = np.repeat(covariance_entries(radii, radii, self.grid.eps[0]), self.n_angles)
        self._root, self.min_eigenvalue = circulant_root(sector_spectrum(self.grid))

    def fields(self, noise):
        """Field values in grid order, shape (n, grid.size), from noise of shape (n, *noise_shape)."""
        x = circulant_fields(self._root, noise)
        return x[:, :, : self.n_angles].reshape(len(noise), -1)


def sector_spectrum(grid):
    """SectorSampler's eigenblocks spectrum[q], q = 0..n_t, built BUILD_CHUNK embedding entries at a time."""
    n_r = grid.rings_per_band
    n_t = grid.size // n_r
    radii, eps = np.abs(grid.centers[::n_t]), grid.eps[0]
    shifts = np.exp(1j * grid.dtheta[0] * np.arange(n_t + 1))
    spectrum = np.empty((n_t + 1, n_r, n_r))
    step = max(1, BUILD_CHUNK // (2 * n_t * n_r))
    for i in range(0, n_r, step):
        blocks = covariance_entries(radii[i : i + step, None], radii * shifts[:, None, None], eps)
        embedded = np.concatenate([blocks, blocks[-2:0:-1]])
        spectrum[:, i : i + step] = np.fft.rfft(embedded, axis=0).real
    return spectrum


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
    replicas.  Each level is drawn exactly by its SectorSampler, and its
    atom masses are exp(2 X_c - 2 Var X_c) int_c (1 - r^2)^{-2}
    (gmc.bulk_masses at gamma = 2): the subcritical normalization, which
    vanishes in the limit unless pushed.

    The levels are coupled: replica r draws its white noise once, at its
    finest level (the last level with more than r replicas), from one
    stream in ascending replica order, and each coarser level uses that
    noise coarsened by coarsen_noise.  Every level keeps its exact law,
    while consecutive levels of one replica are strongly correlated.
    Returns (pushed, plain): two lists of per-level total arrays, with and
    without the sqrt(ln 1/eps) push.  A dict passed as report receives
    "min_eigenvalues", the smallest eigenvalue of each level's embedding,
    "segments", the number of replica blocks, and "noise_wait_s", the
    seconds waited for their noise, which a worker thread draws and
    coarsens one block ahead, with the bits of a serial loop.
    """
    levels, counts = check_bulk_ladder(levels, n_replicas)
    samplers = [SectorSampler(k) for k in levels]
    weights = [s.grid.density_weights(2.0) for s in samplers]
    plain = [np.empty(n) for n in counts]
    segments, r = [], 0
    while r < max(counts):
        finest = max(i for i, n in enumerate(counts) if n > r)
        end = min(counts[finest], r + max(1, NOISE_BLOCK // math.prod(samplers[finest].noise_shape)))
        segments.append((r, end, finest))
        r = end
    report = {} if report is None else report
    report.update(segments=len(segments), noise_wait_s=0.0)
    with closing(_noise_chains(rng.generator(), segments, samplers, levels, report)) as chains:
        for (r, end, _), chain in chains:
            for i, noise in enumerate(chain):
                n = min(end, counts[i]) - r
                if n > 0:
                    x = samplers[i].fields(noise[:n])
                    masses = bulk_masses(x, samplers[i].variances, weights[i], 2.0)
                    plain[i][r : r + n] = masses.sum(axis=1)
    pushed = [t * math.sqrt(math.log(1.0 / s.grid.eps[0])) for t, s in zip(plain, samplers)]
    report["min_eigenvalues"] = [s.min_eigenvalue for s in samplers]
    return pushed, plain


def _noise_chains(gen, segments, samplers, levels, report):
    """(segment, chain) per segment (r, end, finest), chain[i] its replicas' noise at level i <= finest.

    A worker thread draws the segments from gen in order, into two buffers in turn, and coarsens
    them one segment ahead: the caller is done with a segment when it takes the next.  A worker's
    exception is raised in the caller; report["noise_wait_s"] sums the caller's waits.
    """
    from concurrent.futures import ThreadPoolExecutor  # its logging import would add to start-up

    shapes = [(end - r, *samplers[f].noise_shape) for r, end, f in segments]
    buffers = [np.empty(max(map(math.prod, shapes))) for _ in range(2)]

    def draw(s):
        chain = [gen.standard_normal(out=buffers[s % 2][: math.prod(shapes[s])].reshape(shapes[s]))]
        for i in range(segments[s][2], 0, -1):
            chain.append(chain[-1])
            for _ in range(levels[i] - levels[i - 1]):
                chain[-1] = coarsen_noise(chain[-1])
        return chain[::-1]

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(draw, 0)
        for s, segment in enumerate(segments):
            t = time.perf_counter()
            chain = ahead.result()
            report["noise_wait_s"] += time.perf_counter() - t
            if s + 1 < len(segments):
                ahead = worker.submit(draw, s + 1)
            yield segment, chain


def boundary_ladder_totals(mode_levels, n_replicas, rng):
    """Total masses of the critical boundary measure along a cutoff ladder.

    Level N is the measure e^{X} dlambda_boundary of the N-mode trace
    (equivalent scale 1/N) on 2N equal arcs, with arc masses

        sqrt(Var_N / 2) exp(X(theta) - Var_N / 2) (2 pi / 2N):

    the exponent is normalized by the exact truncated variance Var_N, and
    the push is its square root over two.  Levels and counts are checked by check_boundary_ladder; n_replicas is one count or one
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
        trace = TraceSampler(n, 2 * n)
        # unlike gmc.boundary_masses at gamma = 2, no e^{-gamma^2/8} factor; 2N arcs of pi / N
        masses = np.exp(trace.fields(coeffs[:count, :, :n]) - 0.5 * trace.variance) * (np.pi / n)
        pushed.append((masses * np.sqrt(0.5 * trace.variance)).sum(axis=1))
        plain.append(masses.sum(axis=1))
    return pushed, plain


def median_ratios(totals):
    """Consecutive ratios of per-level medians of ladder totals."""
    med = np.array([np.median(t) for t in totals])
    return med[1:] / med[:-1]
