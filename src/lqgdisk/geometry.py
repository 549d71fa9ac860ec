"""Exact geometry of the unit disk.

Neumann Green function, Mobius self-maps of the disk, the hyperbolic
density, scaling weights of marked points, and curvature/anomaly
functionals for conformal factors sampled on polar grids.

Points are complex numbers in the closed unit disk; angles are radians.
The Green function used everywhere is

    G(x, y) = ln 1 / (|x - y| |1 - x conj(y)|),

the kernel of the Laplace problem with Neumann boundary data and zero
boundary mean.  It is symmetric, vanishes in boundary mean, and satisfies
G(0, y) = -ln|y| exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryPointError,
    CoincidentPointsError,
    DomainError,
    GridError,
    InvalidMapError,
    UnsupportedSeparationError,
)

BOUNDARY_TOL = 1e-12


# ---------------------------------------------------------------------------
# point helpers
# ---------------------------------------------------------------------------

def check_in_disk(x, name="point"):
    """Raise DomainError unless every entry lies in the closed unit disk."""
    r = np.abs(np.asarray(x, dtype=complex))
    if np.any(r > 1.0 + BOUNDARY_TOL):
        raise DomainError(f"{name} outside the closed unit disk (|x| = {float(np.max(r)):.17g})")


def check_interior(x, name="point"):
    """Raise unless every entry lies strictly inside the disk."""
    r = np.abs(np.asarray(x, dtype=complex))
    if np.any(r >= 1.0 - BOUNDARY_TOL):
        raise BoundaryPointError(f"{name} must be interior (|x| = {float(np.max(r)):.17g})")


# ---------------------------------------------------------------------------
# Green function and regularizations
# ---------------------------------------------------------------------------

def green(x, y):
    """Neumann Green function G(x, y) = -ln(|x - y| |1 - x conj(y)|).

    Accepts scalars or broadcastable arrays of complex points in the
    closed disk.  Coincident points raise CoincidentPointsError.
    """
    xa = np.asarray(x, dtype=complex)
    ya = np.asarray(y, dtype=complex)
    check_in_disk(xa, "x")
    check_in_disk(ya, "y")
    d = np.abs(xa - ya)
    if np.any(d == 0.0):
        raise CoincidentPointsError("green() requires x != y")
    q = np.abs(1.0 - xa * np.conj(ya))
    out = -np.log(d * q)
    return float(out) if out.ndim == 0 else out


def green_regularized(x, y, eps):
    """Double circle-average of G at radius eps, in closed form.

    For x == y (same center) the value is ln(1/eps) - ln(1 - |x|^2).  For
    separated centers, |x - y| >= 2 eps, circle-averaging changes nothing
    and the value is G(x, y).  Overlapping distinct circles are not
    supported and raise UnsupportedSeparationError.
    """
    xc = complex(x)
    yc = complex(y)
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    check_interior(xc, "x")
    check_interior(yc, "y")
    if eps >= 1.0 - abs(xc) or eps >= 1.0 - abs(yc):
        raise DomainError("eps must be smaller than the distance to the boundary")
    if xc == yc:
        return float(np.log(1.0 / eps) - np.log1p(-abs(xc) ** 2))
    d = abs(xc - yc)
    if d < 2.0 * eps * (1.0 - 1e-12):
        raise UnsupportedSeparationError(
            f"circles of radius {eps} around points at distance {d} overlap"
        )
    return green(xc, yc)


def poincare_density(x):
    """Hyperbolic density 1 / (1 - |x|^2)^2 at an interior point."""
    xa = np.asarray(x, dtype=complex)
    r2 = np.abs(xa) ** 2
    if np.any(r2 >= (1.0 - BOUNDARY_TOL) ** 2):
        raise BoundaryPointError("poincare_density diverges on the boundary")
    out = 1.0 / (1.0 - r2) ** 2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# coupling parameters and scaling weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiouvilleParams:
    """Coupling gamma with bulk/boundary cosmological constants.

    The background charge Q = 2/gamma + gamma/2 is derived; gamma = 2 is
    the critical coupling and is only accepted by the critical-measure
    routines.
    """

    gamma: float
    mu: float = 1.0
    mu_boundary: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 2.0):
            raise DomainError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.mu < 0.0 or self.mu_boundary < 0.0:
            raise DomainError("cosmological constants must be nonnegative")
        if self.mu + self.mu_boundary <= 0.0:
            raise DomainError("mu + mu_boundary must be positive")

    @property
    def Q(self):
        return 2.0 / self.gamma + self.gamma / 2.0

    @property
    def central_charge(self):
        return 1.0 + 6.0 * self.Q**2


def conformal_weight(alpha, params):
    """Scaling weight (alpha/2)(Q - alpha/2) of an insertion of weight alpha."""
    return (alpha / 2.0) * (params.Q - alpha / 2.0)


# ---------------------------------------------------------------------------
# Mobius self-maps of the disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusMap:
    """psi(x) = e^{i alpha} (x - a) / (1 - conj(a) x) with |a| < 1.

    Maps the open disk bijectively onto itself and the circle onto itself.
    """

    a: complex = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if abs(complex(self.a)) >= 1.0:
            raise InvalidMapError(f"|a| must be < 1, got {abs(complex(self.a))}")

    def __call__(self, x):
        xa = np.asarray(x, dtype=complex)
        out = np.exp(1j * self.alpha) * (xa - self.a) / (1.0 - np.conj(self.a) * xa)
        return complex(out) if out.ndim == 0 else out

    def derivative(self, x):
        xa = np.asarray(x, dtype=complex)
        out = np.exp(1j * self.alpha) * (1.0 - abs(complex(self.a)) ** 2) / (
            1.0 - np.conj(self.a) * xa
        ) ** 2
        return complex(out) if out.ndim == 0 else out

    def inverse(self):
        return MobiusMap(a=-self.a * np.exp(1j * self.alpha), alpha=-self.alpha)


def mobius_green_residual(psi, x, y):
    """Residual of G(psi x, psi y) - G(x, y) + ln|psi'(x)| + ln|psi'(y)|.

    Identically zero for the disk Green function; the returned value is
    pure floating-point error.
    """
    gxy = green(x, y)
    gpp = green(psi(x), psi(y))
    return gpp - gxy + np.log(np.abs(psi.derivative(x))) + np.log(np.abs(psi.derivative(y)))


# ---------------------------------------------------------------------------
# conformal factors on polar grids
# ---------------------------------------------------------------------------

def _fd_weights(offsets, order):
    """Finite-difference weights for the given derivative order at 0.

    Solves the Vandermonde moment system for the stencil offsets; with
    four nodes this gives second-order accuracy for the second derivative.
    """
    import math

    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    rhs = np.zeros(n)
    rhs[order] = float(math.factorial(order))
    vander = np.vstack([offsets**k for k in range(n)])
    return np.linalg.solve(vander, rhs)


@dataclass(frozen=True)
class ConformalFactor:
    """Log-conformal factor phi sampled on a polar grid, g = e^{phi} dx^2.

    Values live at cell centers r_k = (k + 1/2)/n_r, theta_m = 2 pi m/n_theta,
    with a separate ring of samples on the boundary r = 1.  n_theta must be
    even so the grid is symmetric through the origin.
    """

    n_r: int
    n_theta: int
    values: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        self.check_grid(self.n_r, self.n_theta)
        if self.values.shape != (self.n_r, self.n_theta):
            raise GridError("values shape does not match the grid")
        if self.boundary.shape != (self.n_theta,):
            raise GridError("boundary shape does not match the grid")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.boundary))):
            raise GridError("conformal factor values must be finite")

    @staticmethod
    def check_grid(n_r, n_theta):
        """Raise GridError unless the grid is at least 16 x 16 with n_theta even."""
        if n_r < 16 or n_theta < 16:
            raise GridError("grid must be at least 16 x 16")
        if n_theta % 2 != 0:
            raise GridError("n_theta must be even")

    @property
    def radii(self):
        return (np.arange(self.n_r) + 0.5) / self.n_r

    @property
    def h_r(self):
        return 1.0 / self.n_r

    @property
    def h_theta(self):
        return 2.0 * np.pi / self.n_theta

    @classmethod
    def from_function(cls, fn, n_r, n_theta):
        """Sample fn (a function of a complex point) on the grid."""
        r = (np.arange(n_r) + 0.5) / n_r
        t = 2.0 * np.pi * np.arange(n_theta) / n_theta
        z = r[:, None] * np.exp(1j * t[None, :])
        vals = np.asarray(fn(z), dtype=float)
        if vals.shape != z.shape:
            vals = np.vectorize(fn)(z).astype(float)
        zb = np.exp(1j * t)
        bvals = np.asarray(fn(zb), dtype=float)
        if bvals.shape != zb.shape:
            bvals = np.vectorize(fn)(zb).astype(float)
        return cls(n_r=n_r, n_theta=n_theta, values=vals, boundary=bvals)

    @classmethod
    def constant(cls, c, n_r, n_theta):
        return cls(
            n_r=n_r,
            n_theta=n_theta,
            values=np.full((n_r, n_theta), float(c)),
            boundary=np.full(n_theta, float(c)),
        )

    def __add__(self, other):
        if (self.n_r, self.n_theta) != (other.n_r, other.n_theta):
            raise GridError("conformal factors live on different grids")
        return ConformalFactor(
            self.n_r, self.n_theta, self.values + other.values, self.boundary + other.boundary
        )


def _radial_derivatives(factor):
    """First and second radial derivatives of phi at the cell centers.

    Interior rings use centered differences; the innermost ring is closed
    with its antipodal ring (the smooth continuation through the origin);
    the outermost ring uses a one-sided cubic stencil that includes the
    boundary samples.
    """
    v = factor.values
    h = factor.h_r
    n_r, n_theta = v.shape
    ghost_inner = np.roll(v[0], n_theta // 2)

    up = np.empty_like(v)
    dn = np.empty_like(v)
    up[:-1] = v[1:]
    dn[1:] = v[:-1]
    dn[0] = ghost_inner
    # placeholder for the top ring; replaced by the one-sided stencil below
    up[-1] = v[-1]

    d1 = (up - dn) / (2.0 * h)
    d2 = (up - 2.0 * v + dn) / h**2

    # outermost ring at r = 1 - h/2: cubic through the three outer rings
    # and the boundary samples
    offsets = np.array([-2.0 * h, -h, 0.0, 0.5 * h])
    w1 = _fd_weights(offsets, 1)
    w2 = _fd_weights(offsets, 2)
    stack = np.vstack([v[-3], v[-2], v[-1], factor.boundary])
    d1[-1] = w1 @ stack
    d2[-1] = w2 @ stack
    return d1, d2


def _boundary_normal_derivative(factor):
    """Outward normal derivative of phi on the boundary ring.

    One-sided cubic stencil through the three outermost cell rings and the
    boundary samples; second-order accurate for smooth factors.
    """
    h = factor.h_r
    offsets = np.array([-2.5 * h, -1.5 * h, -0.5 * h, 0.0])
    w = _fd_weights(offsets, 1)
    stack = np.vstack([factor.values[-3], factor.values[-2], factor.values[-1], factor.boundary])
    return w @ stack


def _angular_derivatives(factor):
    v = factor.values
    ht = factor.h_theta
    d1 = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * ht)
    d2 = (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / ht**2
    return d1, d2


def laplacian(factor):
    """Flat Laplacian of phi at cell centers, in polar coordinates."""
    dr1, dr2 = _radial_derivatives(factor)
    _, dt2 = _angular_derivatives(factor)
    r = factor.radii[:, None]
    return dr2 + dr1 / r + dt2 / r**2


def curvatures(factor):
    """Bulk scalar curvature and boundary geodesic curvature of e^{phi} dx^2.

    With the flat base metric, R = -e^{-phi} (Delta phi) at cell centers
    and K = e^{-phi/2} (1 + d_n phi / 2) at boundary nodes.
    """
    lap = laplacian(factor)
    r_curv = -np.exp(-factor.values) * lap
    dn = _boundary_normal_derivative(factor)
    k_curv = np.exp(-factor.boundary / 2.0) * (1.0 + dn / 2.0)
    return r_curv, k_curv


def integrate_bulk(factor, integrand):
    """Midpoint-rule integral of a cell-center field over the disk."""
    r = factor.radii[:, None]
    return float(np.sum(integrand * r) * factor.h_r * factor.h_theta)


def integrate_boundary(factor, integrand):
    """Trapezoidal integral of a boundary field over the unit circle."""
    return float(np.sum(integrand) * factor.h_theta)


def gauss_bonnet(factor):
    """Total curvature int R dV_g + 2 int K ds_g; equals 4 pi for any factor."""
    r_curv, k_curv = curvatures(factor)
    bulk = integrate_bulk(factor, r_curv * np.exp(factor.values))
    bdry = integrate_boundary(factor, k_curv * np.exp(factor.boundary / 2.0))
    return bulk + 2.0 * bdry


def dirichlet_energy(factor):
    """Flat Dirichlet energy int |grad phi|^2 dx (conformally invariant)."""
    dr1, _ = _radial_derivatives(factor)
    dt1, _ = _angular_derivatives(factor)
    r = factor.radii[:, None]
    return integrate_bulk(factor, dr1**2 + (dt1 / r) ** 2)


def weyl_anomaly(phi, base, params):
    """Log-ratio of partition functions between e^{phi} g and g.

    Both factors must live on the same grid; `base` is the log-factor of g
    relative to the flat metric.  The value is

        (1 + 6 Q^2)/(96 pi) ( int |grad phi|^2 dx
                              + 2 int R_g phi dV_g + 4 int K_g phi ds_g ),

    evaluated with the exact identities R_g dV_g = -(Delta base) dx and
    K_g ds_g = (1 + d_n base / 2) ds.
    """
    if (phi.n_r, phi.n_theta) != (base.n_r, base.n_theta):
        raise GridError("phi and base live on different grids")
    coeff = params.central_charge / (96.0 * np.pi)
    energy = dirichlet_energy(phi)
    curv_term = 2.0 * integrate_bulk(phi, -laplacian(base) * phi.values)
    dn = _boundary_normal_derivative(base)
    bdry_term = 4.0 * integrate_boundary(phi, (1.0 + dn / 2.0) * phi.boundary)
    return coeff * (energy + curv_term + bdry_term)
