"""Free-boundary Gaussian field on the disk and its regularizations.

The field is centered with covariance G and zero boundary mean.  Two
kinds of draws are provided:

* its boundary restriction as a truncated Fourier series without a
  constant mode (so the boundary mean vanishes exactly for every draw),
  synthesized at arc centers for a block of coefficient draws at once
  (TraceSampler);
* an exact-covariance Gaussian vector of circle-average values on a point
  set, built from the closed-form regularized covariance and its numpy
  Cholesky factor, or its eigh root where Cholesky fails (FieldSampler),
  or, on a graded grid invariant under rotation by 2 pi / ROTATION_ORDER,
  from the block-circulant structure of that covariance (RotationSampler).

All are deterministic functions of an RngStream; circulant_root does every eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, GridError, UnsupportedSeparationError

MAX_FIELD_POINTS = 8192
# RotationSampler's symmetry: rotation by 2 pi / ROTATION_ORDER
ROTATION_ORDER = 16
# replicas per block of a replica_map and of the boundary ladder (64 bulk replicas at depth 7 draw 1.2 MB
# of noise, and a block's FFT and products take several times that); the block size changes no noise
REPLICA_BLOCK = 64
# float64 values per chunk of a chunked build, per bulk ladder noise block and per zero-mode quadrature block
# (2 MB; a complex entry counts two); the chunk size changes no bit
BUILD_CHUNK = 2**18


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Identical keys reproduce identical draws; distinct stream ids are
    statistically independent and safe to hand to parallel workers.
    """

    seed: int
    stream_id: int = 0

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def child(self, k):
        """Derived stream for replica or role k (stream ids must not collide)."""
        return RngStream(self.seed, self.stream_id * 1_000_003 + k + 1)


# ---------------------------------------------------------------------------
# boundary trace
# ---------------------------------------------------------------------------

def arc_centers(n_arcs):
    """Centers 2 pi (k + 1/2) / n_arcs, k = 0..n_arcs-1, of n_arcs equal arcs of the circle."""
    return 2.0 * np.pi * (np.arange(n_arcs) + 0.5) / n_arcs


class TraceSampler:
    """Draws of the N-mode boundary trace at the centers of n_arcs equal arcs.

    The trace is X(theta) = sum_{n=1}^{N} sqrt(2/n) (a_n cos n theta +
    b_n sin n theta), its noise the standard normal (a_n) and (b_n); its
    covariance converges to 2 ln 1/|e^{i t} - e^{i s}| as N grows, its
    pointwise variance is sum_{n<=N} 2/n, and, with no constant mode, its
    boundary mean vanishes for every draw.  At the M arc centers it is
    M irfft(E), with no matrix: mode n = m M + j adds sqrt(2/n) (a_n - i b_n)
    (-1)^m e^{i pi j / M} to bin j of D, and E_j = (D_j + conj D_{M-j}) / 2,
    j <= M/2.
    """

    def __init__(self, n_modes, n_arcs):
        self.noise_shape = (2, n_modes)
        self.theta = arc_centers(n_arcs)
        mode = np.arange(1, n_modes + 1)
        self.variance = float(2.0 * np.sum(1.0 / mode))
        # sqrt(2/n) / 2 (-1)^m, the half of each term of E; column i of a fold holds bin (i + 1) mod M
        self._amp = np.sqrt(0.5 / mode) * (1 - 2 * (mode // n_arcs % 2))
        bins = np.arange(n_arcs // 2 + 1)
        self._phase = np.roll(np.exp(1j * np.pi * np.arange(n_arcs) / n_arcs), -1)
        self._bins, self._mirror = (bins - 1) % n_arcs, (-bins - 1) % n_arcs

    def fields(self, noise):
        """Trace values at theta, shape (n, n_arcs) and C-ordered, from noise of shape (n, *noise_shape)."""
        n, m, n_modes = len(noise), len(self.theta), len(self._amp)
        # the weighted a_n and b_n summed over whole periods of M modes, then over the rest: shape (n, 2, M)
        k = n_modes // m * m
        fold = np.einsum("nckm,km->ncm", noise[:, :, :k].reshape(n, 2, k // m, m), self._amp[:k].reshape(-1, m))
        fold[:, :, : n_modes - k] += noise[:, :, k:] * self._amp[k:]
        d = fold[:, 1] * -1j
        d += fold[:, 0]
        d *= self._phase
        del fold
        half = np.conj(np.take(d, self._mirror, axis=1))
        half += np.take(d, self._bins, axis=1)
        return np.fft.irfft(half, n=m, norm="forward")


# ---------------------------------------------------------------------------
# exact-covariance field values
# ---------------------------------------------------------------------------

def neumann_covariance(points, eps):
    """Covariance matrix of circle-average values at the given points.

    eps may be a scalar or one radius per point.  Validates that each
    averaging circle stays inside the disk and that distinct circles do not
    overlap; under those constraints every entry is closed form:
    off-diagonal entries equal G and diagonal entries equal
    ln(1/eps_i) - ln(1 - |x_i|^2).  The rows are filled a few (BUILD_CHUNK
    values) at a time, so the build holds the matrix and one chunk.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1:
        raise GridError("points must be a 1-d array of complex numbers")
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape).copy()
    check_averaging_circles(pts, eps_arr)
    cov, rows = np.empty((len(pts), len(pts))), 1 + BUILD_CHUNK // (2 * len(pts) + 1)
    for i in range(0, len(pts), rows):
        cov[i : i + rows] = covariance_entries(pts[i : i + rows, None], pts[None, :], eps_arr[i : i + rows, None])
    return cov


def covariance_entries(x, y, eps):
    """Closed-form covariances of circle averages at x and y (arrays that broadcast).

    Where x == y the entry is the variance ln(1/eps) - ln(1 - |x|^2) of
    the circle of radius eps at x (eps broadcasts against x); elsewhere
    it is G(x, y) = -ln|x - y| - ln|1 - x conj(y)|, exact when the two
    circles lie inside the disk and do not overlap.  Nothing is checked.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    dist = np.abs(x - y)
    with np.errstate(divide="ignore"):
        cov = -np.log(dist) - np.log(np.abs(1.0 - x * np.conj(y)))
    var = np.log(1.0 / np.asarray(eps, dtype=float)) - np.log1p(-np.abs(x) ** 2)
    same = dist == 0.0
    cov[same] = np.broadcast_to(var, cov.shape)[same]
    return cov


def check_point_count(n):
    """Raise GridError if n points exceed MAX_FIELD_POINTS."""
    if n > MAX_FIELD_POINTS:
        raise GridError(f"at most {MAX_FIELD_POINTS} points are supported, got {n}")


def check_averaging_circles(points, eps):
    """Raise unless circles of radii eps at the points admit the closed-form covariance.

    There may be at most MAX_FIELD_POINTS points (checked before any
    pairwise distance is computed), each radius must be positive and each
    circle must stay inside the disk, and the points must be distinct
    (GridError); distinct circles must not overlap, up to a relative
    tolerance of 1e-12 (UnsupportedSeparationError), a coincident pair
    being reported first.  The pairs are compared a few rows at a time,
    BUILD_CHUNK // 16 pairs, as RotationSampler builds its covariances:
    4,096 points take 0.6 MB, not 384 MB.
    """
    pts = np.asarray(points, dtype=complex)
    check_point_count(len(pts))
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape)
    if np.any(eps_arr <= 0.0):
        raise GridError("eps must be positive")
    if np.any(eps_arr >= 1.0 - np.abs(pts)):
        raise GridError("every averaging circle must stay inside the disk")
    overlap, rows = False, 1 + BUILD_CHUNK // (16 * len(pts))
    for i in range(0, len(pts), rows):
        dist = np.abs(pts[i : i + rows, None] - pts[None, :])
        np.fill_diagonal(dist[:, i:], np.inf)
        if np.any(dist == 0.0):
            raise GridError("points must be pairwise distinct")
        overlap = overlap or np.any(dist < (eps_arr[i : i + rows, None] + eps_arr[None, :]) * (1.0 - 1e-12))
    if overlap:
        raise UnsupportedSeparationError(
            "pairwise distances must be at least the sum of the averaging radii"
        )


class FieldSampler:
    """Factorized sampler for repeated draws on a fixed point set.

    The factor is numpy's Cholesky factor in LAPACK's Fortran order (a
    C-ordered copy rounds the draws' products differently), or, where
    Cholesky fails, circulant_root's symmetric root, with small negative
    eigenvalues (>= -1e-10 relative) clipped to zero.  A draw is one product.
    """

    def __init__(self, points, eps):
        pts = np.asarray(points, dtype=complex)
        self.points = pts
        self.eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(pts),)).copy()
        self.covariance = neumann_covariance(pts, self.eps)
        try:
            factor = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError:
            factor = circulant_root(self.covariance[None])[0][0]
        for i in range(len(factor) - 1):  # transposed in place by row/column swaps: no second m x m copy
            factor[i, i + 1 :], factor[i + 1 :, i] = factor[i + 1 :, i].copy(), factor[i, i + 1 :].copy()
        self._factor = factor.T  # so Fortran-ordered

    def draw(self, rng):
        gen = rng.generator()
        z = gen.standard_normal(len(self.points))
        return self._factor @ z

    def draw_batch(self, n, rng):
        """n draws from one stream, one column each (consumed sequentially)."""
        gen = rng.generator()
        z = gen.standard_normal((len(self.points), n))
        return self._factor @ z


class RotationSampler:
    """Exact draws of circle-average values on a rotation-invariant grid.

    The grid (gmc.graded_disk_grid) consists of the orbits of its base
    cells x_a under rotation by w = e^{2 pi i / ROTATION_ORDER}, in orbit
    order: cell a * ROTATION_ORDER + d is w^d x_a, with one averaging
    radius per orbit.  The grid has checked its own circles.  The
    covariance of the values at w^d x_a and w^d' x_b is c(d' - d)[a, b],
    c(d)[a, b] = G(x_a, w^d x_b): block circulant over the rotation index
    d, with the Hermitian eigenblocks
    sum_d c(d)^T e^{-2 pi i q d / ROTATION_ORDER}, q = 0..ROTATION_ORDER/2,
    which circulant_root factors in place and circulant_fields draws
    from, so the fields of a block are a plain reshape of its draws; c(d)
    and the FFT are built BUILD_CHUNK // 16 entries at a time, so the
    temporaries of covariance_entries (about eight complex arrays of a
    chunk's entries) come to about BUILD_CHUNK values.
    """

    def __init__(self, grid):
        pts, eps = grid.centers, grid.eps
        n = ROTATION_ORDER
        self.noise_shape = (len(pts) // n, n)
        self.variances = covariance_entries(pts, pts, eps)
        x, e = pts[::n], eps[::n]
        turned = x[None, :] * np.exp(2j * np.pi * np.arange(n) / n)[:, None]
        spectrum = np.empty((n // 2 + 1, len(x), len(x)), complex)
        step = max(1, BUILD_CHUNK // (16 * n * len(x)))
        for a in range(0, len(x), step):
            blocks = covariance_entries(x[a : a + step, None], turned[:, None], e[a : a + step, None])
            spectrum[:, :, a : a + step] = np.fft.rfft(blocks.transpose(0, 2, 1), axis=0)
        self._root, self.min_eigenvalue = circulant_root(spectrum, out=spectrum)

    def fields(self, noise):
        """Field values in point order, shape (n, size), from noise of shape (n, *noise_shape)."""
        return circulant_fields(self._root, noise).reshape(len(noise), -1)


def circulant_root(spectrum, out=None):
    """Square roots of a block-circulant covariance's eigenblocks, and its smallest eigenvalue.

    spectrum holds the Hermitian (or real symmetric) eigenblocks q = 0..M/2
    of the embedding; each is factored by its Hermitian square root, into
    out if given (RotationSampler and critical.SectorSampler pass their
    spectra, each chunk's roots overwriting the blocks its eigh has read),
    else into a new array.  The eigenvalues must pass check_eigenvalues
    (FactorizationError otherwise).  The blocks are factored BUILD_CHUNK
    values at a time, so a chunk holds half as many complex blocks as real
    ones; real eigenvectors are transposed without a conjugate copy.
    """
    root, w = np.empty_like(spectrum) if out is None else out, np.empty(spectrum.shape[:2])
    step = max(1, BUILD_CHUNK * 8 // spectrum[0].nbytes)
    for q in range(0, len(spectrum), step):
        w[q : q + step], v = np.linalg.eigh(spectrum[q : q + step])
        scaled = v * np.sqrt(np.clip(w[q : q + step], 0.0, None))[:, None, :]
        vh = (np.conj(v) if np.iscomplexobj(v) else v).transpose(0, 2, 1)
        np.matmul(scaled, vh, out=root[q : q + step])
        del v, scaled, vh  # freed before the next chunk's eigh
    check_eigenvalues(w)
    return root, float(w.min())


def circulant_fields(root, noise, out=None):
    """irfft(root[q] rfft(noise)[q]) over the last axis of real noise of shape (n, k, M), into out if given.

    With root from circulant_root, the result has the block-circulant
    covariance whose eigenblocks root squares.  The spectrum keeps the
    rfft's layout; the products take its eigenblocks BUILD_CHUNK // 16
    complex entries at a time, each copied out as contiguous k x n
    matrices and written back, and the irfft writes into out (the bulk
    ladder passes its spent noise): no other large array is allocated.
    """
    n, k, m = noise.shape
    spec = np.fft.rfft(noise, axis=-1)
    step = max(1, BUILD_CHUNK // (16 * k * n))
    for q in range(0, spec.shape[-1], step):
        block = np.ascontiguousarray(spec[:, :, q : q + step].transpose(2, 1, 0))
        # real roots apply to the real and imaginary parts alike
        block = np.matmul(root[q : q + step], block.view(float) if np.isrealobj(root) else block)
        spec[:, :, q : q + step] = block.view(complex).transpose(2, 1, 0)
    return np.fft.irfft(spec, n=m, axis=-1, out=out)


def replica_map(fn, stream, n, shape):
    """fn applied to standard normal noise of the given shape drawn for replicas 0..n-1, in blocks.

    Replica r draws its noise from the RngStream stream(r) alone, made
    just before it draws, straight into one reused buffer, so no list of
    streams is held.  fn receives blocks of REPLICA_BLOCK replicas, shape
    (REPLICA_BLOCK, *shape), and returns one result per row.
    The last block is padded with zero rows, so every block has one shape
    and replica r's result depends neither on the number of replicas nor
    on its neighbours.  Returns the results in order, in one array laid
    out in memory as fn's results are.
    """
    noise, out = np.empty((REPLICA_BLOCK, *shape)), None
    # at least one block, so that no replicas give an empty result of the right shape
    for start in range(0, max(n, 1), REPLICA_BLOCK):
        stop = min(start + REPLICA_BLOCK, n)
        for r in range(start, stop):
            stream(r).generator().standard_normal(out=noise[r - start])
        noise[stop - start :] = 0.0
        result = fn(noise)[: stop - start]
        if out is None:
            out = np.empty_like(result, shape=(n, *result.shape[1:]))
        out[start:stop] = result
        del result  # freed before the next block's temporaries
    return out


def check_eigenvalues(w):
    """Raise FactorizationError unless the eigenvalues w of a covariance are >= -1e-10 relative.

    The scale is the largest eigenvalue, which must be positive; the
    callers clip the small negative ones they let through to zero.
    """
    lo, hi = float(np.min(w)), float(np.max(w))
    if hi <= 0.0 or lo < -1e-10 * hi:
        raise FactorizationError(f"covariance is not positive semidefinite (min eig {lo:.3e})")
