"""Free-boundary Gaussian field on the disk and its regularizations.

The field is centered with covariance G and zero boundary mean.  Two
kinds of draws are provided:

* its boundary restriction as a truncated Fourier series without a
  constant mode (so the boundary mean vanishes exactly for every draw),
  synthesized at arc centers for a block of coefficient draws at once
  (TraceSampler);
* an exact-covariance Gaussian vector of circle-average values on a point
  set, built from the closed-form regularized covariance and a symmetric
  factorization (FieldSampler), or, on a graded grid invariant under
  rotation by 2 pi / ROTATION_ORDER, from the block-circulant structure
  of that covariance (RotationSampler).

All are deterministic functions of an RngStream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, GridError, UnsupportedSeparationError

MAX_FIELD_POINTS = 8192
# RotationSampler's symmetry: rotation by 2 pi / ROTATION_ORDER
ROTATION_ORDER = 16
# replicas per block of a replica_map; the block size changes no noise
REPLICA_BLOCK = 128
# float64 values per chunk of a chunked build (2 MB; a complex entry counts two); the chunk size changes no bit
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
    boundary mean vanishes for every draw.  The synthesis matrix is built
    in place, a few modes (BUILD_CHUNK values) at a time.
    """

    def __init__(self, n_modes, n_arcs):
        self.noise_shape = (2, n_modes)
        self.theta = arc_centers(n_arcs)
        mode = np.arange(1, n_modes + 1)
        self.variance = float(2.0 * np.sum(1.0 / mode))
        amp = np.sqrt(2.0 / mode)
        # rows follow (cos, sin) x mode, columns the arcs: the transpose of a C-ordered array
        synthesis = np.empty((n_arcs, 2 * n_modes))
        step = max(1, BUILD_CHUNK // n_arcs)
        for j in range(0, n_modes, step):
            chunk = slice(j, min(j + step, n_modes))
            arg = np.outer(self.theta, mode[chunk])
            np.multiply(np.cos(arg), amp[chunk], out=synthesis[:, chunk])
            np.multiply(np.sin(arg), amp[chunk], out=synthesis[:, n_modes:][:, chunk])
        self._synthesis = synthesis.T

    def fields(self, noise):
        """Trace values at theta, shape (n, n_arcs), from noise of shape (n, *noise_shape)."""
        return noise.reshape(len(noise), -1) @ self._synthesis


# ---------------------------------------------------------------------------
# exact-covariance field values
# ---------------------------------------------------------------------------

def neumann_covariance(points, eps):
    """Covariance matrix of circle-average values at the given points.

    eps may be a scalar or one radius per point.  Validates that each
    averaging circle stays inside the disk and that distinct circles do not
    overlap; under those constraints every entry is closed form:
    off-diagonal entries equal G and diagonal entries equal
    ln(1/eps_i) - ln(1 - |x_i|^2).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1:
        raise GridError("points must be a 1-d array of complex numbers")
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape).copy()
    check_averaging_circles(pts, eps_arr)
    return covariance_entries(pts[:, None], pts[None, :], eps_arr[:, None])


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
    being reported first.  The pairs are compared a few rows (BUILD_CHUNK
    values) at a time: 4,096 points take 4 MB, not 384 MB.
    """
    pts = np.asarray(points, dtype=complex)
    check_point_count(len(pts))
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape)
    if np.any(eps_arr <= 0.0):
        raise GridError("eps must be positive")
    if np.any(eps_arr >= 1.0 - np.abs(pts)):
        raise GridError("every averaging circle must stay inside the disk")
    overlap, rows = False, 1 + BUILD_CHUNK // (2 * len(pts) + 1)
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

    Factorization is Cholesky when the matrix is numerically positive
    definite, otherwise a symmetric eigendecomposition with small negative
    eigenvalues (>= -1e-10 relative) clipped to zero.  Each draw costs one
    matrix-vector product.
    """

    def __init__(self, points, eps):
        pts = np.asarray(points, dtype=complex)
        self.points = pts
        self.eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(pts),)).copy()
        self.covariance = neumann_covariance(pts, self.eps)
        self._factor = _symmetric_factor(self.covariance)

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
    cells x_a, those with slot % ROTATION_ORDER == 0, under rotation by
    w = e^{2 pi i / ROTATION_ORDER}, with one averaging radius per orbit;
    cell i is w^d x_a for slot[i] = a * ROTATION_ORDER + d.  The grid
    has checked its own circles.  The covariance of the values at
    w^d x_a and w^d' x_b is c(d' - d)[a, b], c(d)[a, b] = G(x_a, w^d x_b):
    block circulant over the rotation index d, with the Hermitian
    eigenblocks sum_d c(d)^T e^{-2 pi i q d / ROTATION_ORDER},
    q = 0..ROTATION_ORDER/2, which circulant_root factors and
    circulant_fields draws from; c(d) and the FFT are built a few base
    cells a (BUILD_CHUNK values) at a time.
    """

    # replicas per replica_map block: half of REPLICA_BLOCK, as a block's FFT and products outweigh its noise
    block = 64

    def __init__(self, grid):
        pts, eps = grid.centers, grid.eps
        n = ROTATION_ORDER
        base = np.flatnonzero(grid.slot % n == 0)
        self._index = grid.slot
        self.noise_shape = (len(base), n)
        self.variances = covariance_entries(pts, pts, eps)
        x, e = pts[base], eps[base]
        turned = x[None, :] * np.exp(2j * np.pi * np.arange(n) / n)[:, None]
        spectrum = np.empty((n // 2 + 1, len(x), len(x)), complex)
        step = max(1, BUILD_CHUNK // (2 * n * len(x)))
        for a in range(0, len(x), step):
            blocks = covariance_entries(x[a : a + step, None], turned[:, None], e[a : a + step, None])
            spectrum[:, :, a : a + step] = np.fft.rfft(blocks.transpose(0, 2, 1), axis=0)
        self._root, self.min_eigenvalue = circulant_root(spectrum)

    def fields(self, noise):
        """Field values in point order, shape (n, size), from noise of shape (n, *noise_shape)."""
        x = circulant_fields(self._root, noise)
        return x.reshape(len(noise), -1)[:, self._index]


def circulant_root(spectrum):
    """Square roots of a block-circulant covariance's eigenblocks, and its smallest eigenvalue.

    spectrum holds the Hermitian (or real symmetric) eigenblocks q = 0..M/2
    of the embedding; each is factored by its Hermitian square root.  The
    eigenvalues must pass check_eigenvalues (FactorizationError otherwise).
    The blocks are factored BUILD_CHUNK values at a time, so a chunk holds
    half as many complex blocks as real ones.
    """
    root, w = None, np.empty(spectrum.shape[:2])
    step = max(1, BUILD_CHUNK * 8 // spectrum[0].nbytes)
    for q in range(0, len(spectrum), step):
        w[q : q + step], v = np.linalg.eigh(spectrum[q : q + step])
        scaled = v * np.sqrt(np.clip(w[q : q + step], 0.0, None))[:, None, :]
        vh = np.conj(v).transpose(0, 2, 1)
        if root is None:
            # allocated after the first chunk's temporaries, as the one-piece product was: allocated
            # before them, the heap it leaves raises the peak RSS of marked-point runs by 1.9 MB
            root = np.empty(spectrum.shape, spectrum.dtype)
        np.matmul(scaled, vh, out=root[q : q + step])
        del v, scaled, vh  # freed before the next chunk's eigh
    check_eigenvalues(w)
    return root, float(w.min())


def circulant_fields(root, noise):
    """irfft(root[q] rfft(noise)[q]) over the last axis of real noise of shape (n, k, M).

    With root from circulant_root, the result has the block-circulant
    covariance whose eigenblocks root squares.
    """
    spec = np.ascontiguousarray(np.fft.rfft(noise, axis=-1).transpose(2, 1, 0))
    if np.isrealobj(root):
        # real roots apply to the real and imaginary parts alike
        spec = np.matmul(root, spec.view(float)).view(complex)
    else:
        spec = np.matmul(root, spec)
    return np.fft.irfft(spec.transpose(2, 1, 0), n=noise.shape[-1], axis=-1)


def replica_map(fn, streams, shape, block=None):
    """fn applied to standard normal noise of the given shape drawn per replica, in blocks.

    Replica r draws its noise from streams[r] alone, straight into one
    reused buffer.  fn receives blocks of `block` replicas (REPLICA_BLOCK
    by default), shape (block, *shape), and returns one result per row.
    The last block is padded with zero rows, so every block has one shape
    and replica r's result depends neither on the number of replicas nor
    on its neighbours.  Returns the results in order, in one array laid
    out in memory as fn's results are.
    """
    b = block or REPLICA_BLOCK
    noise, out = np.empty((b, *shape)), None
    # at least one block, so that no streams give an empty result of the right shape
    for start in range(0, max(len(streams), 1), b):
        batch = streams[start : start + b]
        for j, stream in enumerate(batch):
            stream.generator().standard_normal(out=noise[j])
        noise[len(batch) :] = 0.0
        result = fn(noise)[: len(batch)]
        if out is None:
            out = np.empty_like(result, shape=(len(streams), *result.shape[1:]))
        out[start : start + len(batch)] = result
    return out


def _symmetric_factor(cov):
    import scipy.linalg
    try:
        return scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    w, v = scipy.linalg.eigh(cov)
    check_eigenvalues(w)
    return v * np.sqrt(np.clip(w, 0.0, None))


def check_eigenvalues(w):
    """Raise FactorizationError unless the eigenvalues w of a covariance are >= -1e-10 relative.

    The scale is the largest eigenvalue, which must be positive; the
    callers clip the small negative ones they let through to zero.
    """
    lo, hi = float(np.min(w)), float(np.max(w))
    if hi <= 0.0 or lo < -1e-10 * hi:
        raise FactorizationError(f"covariance is not positive semidefinite (min eig {lo:.3e})")
