"""Shared vectorized helpers for the statistical tests."""

import numpy as np

from lqgdisk.gff import arc_centers, boundary_synthesis_matrix, truncated_boundary_variance
from lqgdisk.gmc import boundary_masses, bulk_masses


def boundary_coefficients(n_modes, n_replicas, rng):
    """Coefficient block (n_replicas, 2, n_modes) of the boundary trace, from a single stream."""
    return rng.generator().standard_normal((n_replicas, 2, n_modes))


def truncated_boundary_covariance(delta_theta, n_modes):
    """Covariance sum_{n<=N} (2/n) cos(n delta) of the N-mode boundary trace."""
    n = np.arange(1, n_modes + 1)
    d = np.atleast_1d(np.asarray(delta_theta, dtype=float))
    out = np.cos(np.outer(d, n)) @ (2.0 / n)
    return out if out.size > 1 else float(out[0])


def batched_boundary_totals(gamma, n_modes, n_arcs, n_replicas, rng):
    """Total masses of the boundary chaos measure across replicas."""
    coef = boundary_coefficients(n_modes, n_replicas, rng)
    x = coef.reshape(n_replicas, -1) @ boundary_synthesis_matrix(arc_centers(n_arcs), n_modes)
    var = truncated_boundary_variance(n_modes)
    return boundary_masses(x, var, gamma, n_arcs).sum(axis=1)


def batched_bulk_masses(gamma, grid, sampler, n_replicas, rng):
    """Cell masses of the bulk chaos measure, shape (points, replicas), from a FieldSampler."""
    vals = sampler.draw_batch(n_replicas, rng)
    variances = np.diag(sampler.covariance)
    w = grid.density_weights(0.5 * gamma**2)
    return bulk_masses(vals, variances[:, None], w[:, None], gamma)


def batched_bulk_totals(gamma, grid, sampler, n_replicas, rng):
    """Total masses of the bulk chaos measure across replicas."""
    return batched_bulk_masses(gamma, grid, sampler, n_replicas, rng).sum(axis=0)
