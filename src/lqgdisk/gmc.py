"""Multiplicative chaos measures on the disk and its boundary (gamma < 2).

Measures are atomized on a polar grid whose radial bands halve in width
toward the boundary, resolving the (1 - |x|^2)^{-gamma^2/2} blow-up of the
deterministic density.  Each ring carries its own averaging radius, half
the local atom spacing, so every covariance entry of the underlying field
stays in closed form.

Atom masses are the cell-normalized exponential of the field times the
exact cell integral of the deterministic density; the expected total mass
is then the exact integral whenever that integral is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .gff import ROTATION_ORDER, arc_centers, check_averaging_circles, check_point_count

__all__ = [
    "AtomicMeasure",
    "GradedDiskGrid",
    "graded_disk_grid",
    "window_sector_grid",
    "bulk_masses",
    "boundary_masses",
    "jackknife_var",
]


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finite list of (location, mass) atoms on the disk or the circle."""

    kind: str
    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.kind not in ("bulk", "boundary"):
            raise DomainError(f"kind must be 'bulk' or 'boundary', got {self.kind!r}")
        if self.points.shape != self.masses.shape or self.points.ndim != 1:
            raise GridError("points and masses must be 1-d arrays of equal length")
        if np.any(self.masses < 0.0) or not np.all(np.isfinite(self.masses)):
            raise DomainError("masses must be finite and nonnegative")

    @property
    def total(self):
        return float(np.sum(self.masses))

    def integrate(self, f):
        """Sum of f(location) * mass over atoms; f is vectorized over the locations."""
        return float(np.sum(np.asarray(f(self.points), dtype=float) * self.masses))


# ---------------------------------------------------------------------------
# graded polar grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedDiskGrid:
    """Cell centers of a boundary-graded polar partition of the disk.

    Bands halve in radial width toward r = 1 and the last band touches the
    boundary; every cell records its radial extent, angular width, center,
    averaging radius eps (half the local atom spacing, strictly less than
    the distance to the boundary).
    """

    centers: np.ndarray
    eps: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    dtheta: np.ndarray
    rings_per_band: int

    @property
    def size(self):
        return len(self.centers)

    def density_weights(self, s):
        """Exact cell integrals of (1 - r^2)^{-s} dlambda.

        Boundary-touching cells where the integral diverges (s >= 1) are
        truncated at the cell's own averaging horizon 1 - eps, the scale
        below which the regularized field does not resolve the boundary
        layer.
        """
        r_hi = self.r_hi.copy()
        if s >= 1.0:
            touching = r_hi >= 1.0
            r_hi[touching] = 1.0 - self.eps[touching]
        one_lo = 1.0 - self.r_lo**2
        one_hi = 1.0 - r_hi**2
        if s == 1.0:
            radial = 0.5 * (np.log(one_lo) - np.log(one_hi))
        else:
            radial = (one_lo ** (1.0 - s) - one_hi ** (1.0 - s)) / (2.0 * (1.0 - s))
        return self.dtheta * radial


def window_sector_grid(depth):
    """Uniform-scale grid on the fixed annular sector 0.3 <= r < 0.8, 0 <= theta < 0.84.

    At depth k the cell size is 2^(1-k) radially, and the 2^(k-3) angles
    give cells of about that extent at the inner radius; depth k + 1
    subdivides every cell of depth k in four.  The averaging radius is the uniform scale eps = 2^-k.  This
    is the grid used by scale-refinement diagnostics, where the observation
    window must stay fixed while the cutoff alone moves.
    """
    if depth < 4:
        raise GridError("window grids start at depth 4")
    r_lo, r_hi, span = 0.3, 0.8, 0.84
    eps = 2.0 ** (-depth)
    h = 2.0 * eps
    n_r = int(round((r_hi - r_lo) / h))
    n_t = 2 ** (depth - 3)
    if abs(n_r * h - (r_hi - r_lo)) > 1e-12:
        raise GridError("window radii must be an integer number of cells apart")
    radii = r_lo + (np.arange(n_r) + 0.5) * h
    dth = span / n_t
    theta = (np.arange(n_t) + 0.5) * dth
    centers = (radii[:, None] * np.exp(1j * theta[None, :])).ravel()
    chord = 2.0 * r_lo * np.sin(dth / 2.0)
    if chord < h * (1.0 - 1e-9):
        raise GridError("angular spacing at the inner radius is below the separation rule")
    return GradedDiskGrid(
        centers=centers,
        eps=np.full(centers.shape, eps * (1.0 - 1e-9)),
        r_lo=np.repeat(radii - eps, n_t),
        r_hi=np.repeat(radii + eps, n_t),
        dtheta=np.full(centers.shape, dth),
        rings_per_band=n_r,
    )


def graded_disk_grid(n_bands, rings_per_band=2, aspect=2.0):
    """Build the graded polar grid with the given dyadic depth.

    Band b < n_bands - 1 spans radii [1 - 2^-b, 1 - 2^-(b+1)]; the last
    band spans [1 - 2^-(n_bands-1), 1].  Each band is split into
    `rings_per_band` rings, and each ring into cells whose angular width is
    about `aspect` times the ring width: the cell count of a band is
    rounded up to a multiple of gff.ROTATION_ORDER, so the grid is
    invariant under rotation by 2 pi / ROTATION_ORDER (the symmetry
    gff.RotationSampler uses).  Each ring is emitted in orbit order: its
    cell a ROTATION_ORDER + d is its base cell a turned by 2 pi d / ROTATION_ORDER.
    Refining n_bands by one splits the last band and leaves all other
    cells unchanged.  An aspect that is not positive and finite, a band
    of zero width in floating point, or a grid of more than
    gff.MAX_FIELD_POINTS cells, raises GridError before any cell is
    built.  The circles pass gff.check_averaging_circles (its errors are
    raised), checked ring by ring against the next ring out: ring radii
    grow by at least the sum of the averaging radii.
    """
    if n_bands < 1:
        raise GridError("n_bands must be at least 1")
    if rings_per_band < 1:
        raise GridError("rings_per_band must be at least 1")
    if not 0.0 < aspect < np.inf:
        raise GridError(f"aspect must be positive and finite, got {aspect}")
    bands = []
    for b in range(n_bands):
        lo = 1.0 - 2.0 ** (-b)
        hi = 1.0 if b == n_bands - 1 else 1.0 - 2.0 ** (-b - 1)
        w = (hi - lo) / rings_per_band
        if w <= 0.0:
            raise GridError(f"band {b} has zero width in floating point; lower the depth")
        r_mid = 0.5 * (lo + hi)
        per_turn = 2.0 * np.pi * r_mid / (aspect * w * ROTATION_ORDER)
        bands.append((lo, w, ROTATION_ORDER * max(int(np.ceil(per_turn)), 1)))
    check_point_count(rings_per_band * sum(n for _, _, n in bands))
    centers, eps, r_lo, r_hi, dtheta = [], [], [], [], []
    shave = 1.0 - 1e-9
    for lo, w, n_theta in bands:
        theta = arc_centers(n_theta).reshape(ROTATION_ORDER, -1).T.ravel()
        for i in range(rings_per_band):
            a = lo + i * w
            c = a + 0.5 * w
            chord = 2.0 * c * np.sin(np.pi / n_theta)
            e = 0.5 * min(w, chord) * shave
            e = min(e, (1.0 - c) * shave)
            centers.append(c * np.exp(1j * theta))
            eps.append(np.full(n_theta, e))
            r_lo.append(np.full(n_theta, a))
            r_hi.append(np.full(n_theta, a + w))
            dtheta.append(np.full(n_theta, 2.0 * np.pi / n_theta))
    for i in range(max(len(centers) - 1, 1)):
        check_averaging_circles(np.concatenate(centers[i : i + 2]), np.concatenate(eps[i : i + 2]))
    return GradedDiskGrid(
        centers=np.concatenate(centers),
        eps=np.concatenate(eps),
        r_lo=np.concatenate(r_lo),
        r_hi=np.concatenate(r_hi),
        dtheta=np.concatenate(dtheta),
        rings_per_band=rings_per_band,
    )


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def bulk_masses(values, variances, weights, gamma):
    """Bulk atom masses exp(gamma X - (gamma^2/2) Var X) * w, elementwise, in one new C-ordered array.

    The arguments broadcast against each other, so a (points, replicas)
    block of field values takes variances and weights of shape
    (points, 1).  With w the exact cell integral of (1 - r^2)^{-gamma^2/2}
    (GradedDiskGrid.density_weights), each atom has mean w.  Any gamma is
    accepted; at gamma = 2 these are the plain critical masses.
    """
    out = np.multiply(gamma, values, out=np.empty(np.broadcast(values, variances, weights).shape))
    out -= 0.5 * gamma**2 * variances
    return np.multiply(np.exp(out, out=out), weights, out=out)


def boundary_masses(x, variance, gamma):
    """Boundary arc masses e^{-gamma^2/8} exp((gamma/2) X - (gamma^2/8) Var) (2 pi / n_arcs).

    Elementwise in the trace values x (arcs on the last axis); variance is
    the truncated trace variance, constant along the circle, which replaces
    the divergent limit in the normalization.  The factor e^{-gamma^2/8}
    carries the boundary-average constant of the limiting density, so the
    expected total mass is 2 pi e^{-gamma^2/8} at every truncation level.
    """
    return (
        np.exp(-0.125 * gamma**2)
        * np.exp(0.5 * gamma * x - 0.125 * gamma**2 * variance)
        * (2.0 * np.pi / x.shape[-1])
    )


# ---------------------------------------------------------------------------
# replica statistics
# ---------------------------------------------------------------------------

def jackknife_var(loo):
    """Jackknife variance (n - 1)/n sum (loo - mean loo)^2 from leave-one-out estimates."""
    n = len(loo)
    return (n - 1) / n * float(np.sum((loo - loo.mean()) ** 2))
