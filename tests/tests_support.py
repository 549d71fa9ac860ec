"""Shared vectorized helpers for the statistical tests."""

import numpy as np

from lqgdisk import gff
from lqgdisk.gff import boundary_synthesis, truncated_boundary_variance
from lqgdisk.gmc import boundary_masses, bulk_masses


def batched_boundary_totals(gamma, n_modes, n_arcs, n_replicas, rng):
    """Total masses of the boundary chaos measure across replicas."""
    theta = 2.0 * np.pi * (np.arange(n_arcs) + 0.5) / n_arcs
    cosb, sinb = boundary_synthesis(theta, n_modes)
    coef = gff.sample_boundary_coefficients(n_modes, n_replicas, rng)
    x = coef[:, 0, :] @ cosb.T + coef[:, 1, :] @ sinb.T
    var = truncated_boundary_variance(n_modes)
    return boundary_masses(x, var, gamma, n_arcs).sum(axis=1)


def batched_bulk_totals(gamma, grid, sampler, n_replicas, rng):
    """Total masses of the bulk chaos measure across replicas."""
    vals = sampler.draw_batch(n_replicas, rng)
    variances = np.diag(sampler.covariance)
    w = grid.density_weights(0.5 * gamma**2)
    return bulk_masses(vals, variances[:, None], w[:, None], gamma).sum(axis=0)
