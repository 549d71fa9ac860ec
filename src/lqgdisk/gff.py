"""Free-boundary Gaussian field on the disk and its regularizations.

The field is centered with covariance G and zero boundary mean.  Two
samplers are provided:

* a spectral synthesis of the boundary restriction (no constant mode, so
  the boundary mean vanishes exactly for every draw), together with its
  harmonic extension into the disk;
* an exact-covariance Gaussian vector of circle-average values on a point
  set, built from the closed-form regularized covariance and a symmetric
  factorization.

Both are deterministic functions of an RngStream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationError, GridError, UnsupportedSeparationError
from .geometry import check_interior, green_regularized

MAX_FIELD_POINTS = 8192


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

@dataclass(frozen=True)
class BoundaryTrace:
    """Truncated Fourier representation of the field on the unit circle.

    X(theta) = sum_{n=1}^{N} sqrt(2/n) (a_n cos n theta + b_n sin n theta).
    There is no constant mode, so the boundary mean is exactly zero.  With
    standard normal coefficients the covariance converges to
    2 ln 1/|e^{i t} - e^{i s}| as N grows.
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        if self.cos_coeffs.shape != self.sin_coeffs.shape or self.cos_coeffs.ndim != 1:
            raise GridError("coefficient arrays must be 1-d and equal length")
        if len(self.cos_coeffs) < 1:
            raise GridError("at least one Fourier mode is required")

    @property
    def n_modes(self):
        return len(self.cos_coeffs)

    def truncate(self, n):
        """The same draw restricted to its first n modes."""
        if not (1 <= n <= self.n_modes):
            raise GridError(f"cannot truncate {self.n_modes} modes to {n}")
        return BoundaryTrace(self.cos_coeffs[:n], self.sin_coeffs[:n])

    def evaluate(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        cosb, sinb = boundary_synthesis(theta, self.n_modes)
        out = cosb @ self.cos_coeffs + sinb @ self.sin_coeffs
        return out if out.size > 1 else float(out[0])

    def variance(self):
        """Pointwise variance sum_{n<=N} 2/n of the truncated series."""
        return truncated_boundary_variance(self.n_modes)


def truncated_boundary_variance(n_modes):
    return float(2.0 * np.sum(1.0 / np.arange(1, n_modes + 1)))


def boundary_covariance_truncated(delta_theta, n_modes):
    """Covariance sum_{n<=N} (2/n) cos(n delta) of the truncated trace."""
    n = np.arange(1, n_modes + 1)
    d = np.atleast_1d(np.asarray(delta_theta, dtype=float))
    out = np.cos(np.outer(d, n)) @ (2.0 / n)
    return out if out.size > 1 else float(out[0])


def sample_boundary_trace(n_modes, rng):
    """Draw a trace with i.i.d. standard normal coefficients."""
    if n_modes < 1:
        raise GridError("n_modes must be at least 1")
    gen = rng.generator()
    coeffs = gen.standard_normal((2, n_modes))
    return BoundaryTrace(cos_coeffs=coeffs[0], sin_coeffs=coeffs[1])


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


def sample_boundary_coefficients(n_modes, n_replicas, rng):
    """Coefficient block (n_replicas, 2, n_modes) from a single stream."""
    gen = rng.generator()
    return gen.standard_normal((n_replicas, 2, n_modes))


def harmonic_extension(trace, x):
    """Harmonic extension of the trace at interior points.

    P(r e^{i t}) = sum sqrt(2/n) r^n (a_n cos n t + b_n sin n t); the series
    is finite, harmonic in the disk, and vanishes at the origin.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=complex))
    check_interior(xa, "x")
    cosb, sinb = boundary_synthesis(np.angle(xa), trace.n_modes)
    radial = np.abs(xa)[:, None] ** np.arange(1, trace.n_modes + 1)[None, :]
    out = (radial * cosb) @ trace.cos_coeffs + (radial * sinb) @ trace.sin_coeffs
    return out if out.size > 1 else float(out[0])


def harmonic_extension_variance(r, n_modes):
    """Variance sum_{n<=N} (2/n) r^{2n} of the harmonic extension at radius r."""
    n = np.arange(1, n_modes + 1)
    return float(np.sum((2.0 / n) * np.asarray(r, dtype=float) ** (2 * n)))


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
    m = len(pts)
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), (m,)).copy()
    dist = check_averaging_circles(pts, eps_arr)
    r = np.abs(pts)
    with np.errstate(divide="ignore"):
        cov = -np.log(dist) - np.log(np.abs(1.0 - pts[:, None] * np.conj(pts[None, :])))
    cov[np.eye(m, dtype=bool)] = np.log(1.0 / eps_arr) - np.log1p(-r**2)
    return cov


def check_averaging_circles(points, eps):
    """Raise unless circles of radii eps at the points admit the closed-form covariance.

    There may be at most MAX_FIELD_POINTS points (checked before any
    pairwise matrix is built), each radius must be positive and each
    circle must stay inside the disk, and the points must be distinct
    (GridError); distinct circles must not overlap, up to a relative
    tolerance of 1e-12 (UnsupportedSeparationError).  Returns the pairwise
    distance matrix.
    """
    pts = np.asarray(points, dtype=complex)
    if len(pts) > MAX_FIELD_POINTS:
        raise GridError(f"at most {MAX_FIELD_POINTS} points are supported, got {len(pts)}")
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), pts.shape)
    if np.any(eps_arr <= 0.0):
        raise GridError("eps must be positive")
    if np.any(eps_arr >= 1.0 - np.abs(pts)):
        raise GridError("every averaging circle must stay inside the disk")
    dist = np.abs(pts[:, None] - pts[None, :])
    min_sep = eps_arr[:, None] + eps_arr[None, :]
    off = ~np.eye(len(pts), dtype=bool)
    if np.any(dist[off] == 0.0):
        raise GridError("points must be pairwise distinct")
    if np.any(dist[off] < min_sep[off] * (1.0 - 1e-12)):
        raise UnsupportedSeparationError(
            "pairwise distances must be at least the sum of the averaging radii"
        )
    return dist


@dataclass(frozen=True)
class FieldRealization:
    """One Gaussian draw of regularized field values with its covariance."""

    points: np.ndarray
    eps: np.ndarray
    values: np.ndarray
    covariance: np.ndarray

    @property
    def variances(self):
        return np.diag(self.covariance)


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

    def realize(self, rng):
        return FieldRealization(
            points=self.points,
            eps=self.eps,
            values=self.draw(rng),
            covariance=self.covariance,
        )


def _symmetric_factor(cov):
    try:
        return scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    w, v = scipy.linalg.eigh(cov)
    scale = max(float(w[-1]), 0.0)
    if scale == 0.0 or float(w[0]) < -1e-10 * scale:
        raise FactorizationError(
            f"covariance is not positive semidefinite (min eig {float(w[0]):.3e})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


def sample_field(points, eps, rng):
    """One exact-covariance draw of circle-average values.

    For repeated draws on the same point set build a FieldSampler once.
    """
    return FieldSampler(points, eps).realize(rng)


def variance_asymptotic_check(x, eps_ladder):
    """Values of G_eps(x, x) + ln eps along a ladder of radii.

    With the closed-form covariance this is constant in eps and equals
    0.5 ln g_P(x); deviations would indicate a regularization bug.
    """
    eps_ladder = np.asarray(eps_ladder, dtype=float)
    if np.any(np.diff(eps_ladder) >= 0.0):
        raise GridError("eps ladder must be strictly decreasing")
    return np.array(
        [green_regularized(x, x, e) + np.log(e) for e in eps_ladder]
    )
