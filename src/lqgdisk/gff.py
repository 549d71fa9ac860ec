"""Free-boundary Gaussian field on the disk and its regularizations.

The field is centered with covariance G and zero boundary mean.  Two
kinds of draws are provided:

* its boundary restriction as a truncated Fourier series without a
  constant mode (so the boundary mean vanishes exactly for every draw),
  synthesized at given angles for a block of coefficient draws at once
  (boundary_synthesis_matrix);
* an exact-covariance Gaussian vector of circle-average values on a point
  set, built from the closed-form regularized covariance and a symmetric
  factorization (FieldSampler), or, on a point set invariant under
  rotation by 2 pi / ROTATION_ORDER, from the block-circulant structure
  of that covariance (RotationSampler).

All are deterministic functions of an RngStream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationError, GridError, UnsupportedSeparationError

MAX_FIELD_POINTS = 8192
# RotationSampler's symmetry: rotation by 2 pi / ROTATION_ORDER
ROTATION_ORDER = 16
# replicas per block of a replica_map; the block size changes no noise
REPLICA_BLOCK = 128


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

def truncated_boundary_variance(n_modes):
    """Pointwise variance sum_{n<=N} 2/n of the N-mode boundary trace.

    The trace is X(theta) = sum_{n=1}^{N} sqrt(2/n) (a_n cos n theta +
    b_n sin n theta) with standard normal coefficients; its covariance
    converges to 2 ln 1/|e^{i t} - e^{i s}| as N grows.
    """
    return float(2.0 * np.sum(1.0 / np.arange(1, n_modes + 1)))


def arc_centers(n_arcs):
    """Centers 2 pi (k + 1/2) / n_arcs, k = 0..n_arcs-1, of n_arcs equal arcs of the circle."""
    return 2.0 * np.pi * (np.arange(n_arcs) + 0.5) / n_arcs


def boundary_synthesis(theta, n_modes):
    """Synthesis matrices (cos, sin), entries sqrt(2/n) cos(n theta) and sqrt(2/n) sin(n theta).

    Rows follow theta, columns the modes n = 1..n_modes; a coefficient
    block c of shape (..., 2, n_modes) has trace values
    c[..., 0, :] @ cos.T + c[..., 1, :] @ sin.T.
    """
    mode = np.arange(1, n_modes + 1)
    amp = np.sqrt(2.0 / mode)
    arg = np.outer(theta, mode)
    return np.cos(arg) * amp, np.sin(arg) * amp


def boundary_synthesis_matrix(theta, n_modes):
    """boundary_synthesis as one matrix of shape (2 n_modes, len(theta)).

    A coefficient block c of shape (n, 2, n_modes) has trace values
    c.reshape(n, -1) @ boundary_synthesis_matrix(theta, n_modes).
    """
    return np.concatenate(boundary_synthesis(theta, n_modes), axis=1).T


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
    pairwise matrix is built), each radius must be positive and each
    circle must stay inside the disk, and the points must be distinct
    (GridError); distinct circles must not overlap, up to a relative
    tolerance of 1e-12 (UnsupportedSeparationError).
    """
    pts = np.asarray(points, dtype=complex)
    check_point_count(len(pts))
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape)
    if np.any(eps_arr <= 0.0):
        raise GridError("eps must be positive")
    if np.any(eps_arr >= 1.0 - np.abs(pts)):
        raise GridError("every averaging circle must stay inside the disk")
    dist = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(dist, np.inf)
    if np.any(dist == 0.0):
        raise GridError("points must be pairwise distinct")
    if np.any(dist < (eps_arr[:, None] + eps_arr[None, :]) * (1.0 - 1e-12)):
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
    """Exact draws of circle-average values on a rotation-invariant point set.

    The points must be the orbits of k base points x_a, those with angle
    in [0, 2 pi / ROTATION_ORDER), under rotation by
    w = e^{2 pi i / ROTATION_ORDER}, with one averaging radius per orbit
    (GridError otherwise); the circles are checked as in
    neumann_covariance.  The covariance of the values at w^d x_a and
    w^d' x_b is c(d' - d)[a, b], c(d)[a, b] = G(x_a, w^d x_b): block
    circulant over the rotation index d, with the Hermitian eigenblocks
    sum_d c(d)^T e^{-2 pi i q d / ROTATION_ORDER}, q = 0..ROTATION_ORDER/2,
    which circulant_root factors and circulant_fields draws from.
    """

    def __init__(self, points, eps):
        pts = np.asarray(points, dtype=complex)
        eps = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape)
        check_averaging_circles(pts, eps)
        n = ROTATION_ORDER
        sector = np.floor(np.angle(pts) % (2.0 * np.pi) * (n / (2.0 * np.pi))).astype(int) % n
        base = np.flatnonzero(sector == 0)
        turns = np.exp(2j * np.pi * np.arange(n) / n)
        unturned = pts * np.conj(turns[sector])
        gap = np.abs(unturned[:, None] - pts[base][None, :])
        orbit = np.argmin(gap, axis=1)
        # value i of a draw is entry (orbit[i], sector[i]) of a (k, n) field block
        self._index = orbit * n + sector
        if (
            len(base) * n != len(pts)
            or not np.array_equal(np.sort(self._index), np.arange(len(pts)))
            or np.max(gap[np.arange(len(pts)), orbit]) > 1e-12
            or np.any(eps != eps[base][orbit])
        ):
            raise GridError(f"the points are not invariant under rotation by 2 pi / {n}")
        self.noise_shape = (len(base), n)
        self.variances = covariance_entries(pts, pts, eps)
        x = pts[base]
        turned = x[None, :] * turns[:, None, None]
        blocks = covariance_entries(x[:, None], turned, eps[base][:, None])
        spectrum = np.fft.rfft(blocks.transpose(0, 2, 1), axis=0)
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
    """
    w, v = np.linalg.eigh(spectrum)
    check_eigenvalues(w)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.conj(v).transpose(0, 2, 1)
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


def replica_map(fn, streams, shape):
    """fn applied to standard normal noise of the given shape drawn per replica, in blocks.

    Replica r draws its noise from streams[r] alone.  fn receives blocks
    of REPLICA_BLOCK replicas, shape (REPLICA_BLOCK, *shape), and returns
    one result per row; the last block is padded with zero rows, so every
    block has one shape and replica r's result depends neither on the
    number of replicas nor on its neighbours.  Returns the results of the
    replicas, concatenated in order.
    """
    out = []
    # at least one block, so that no streams give an empty result of the right shape
    for start in range(0, max(len(streams), 1), REPLICA_BLOCK):
        block = streams[start : start + REPLICA_BLOCK]
        noise = np.zeros((REPLICA_BLOCK, *shape))
        for j, stream in enumerate(block):
            noise[j] = stream.generator().standard_normal(shape)
        out.append(fn(noise)[: len(block)])
    return np.concatenate(out)


def _symmetric_factor(cov):
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
