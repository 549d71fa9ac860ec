"""Shared vectorized helpers for the statistical tests."""

import numpy as np

from lqgdisk.gff import TraceSampler
from lqgdisk.gmc import boundary_masses, bulk_masses


def boundary_coefficients(n_modes, n_replicas, rng):
    """Coefficient block (n_replicas, 2, n_modes) of the boundary trace, from a single stream."""
    return rng.generator().standard_normal((n_replicas, 2, n_modes))


def boundary_coefficient_chunks(n_modes, n_replicas, rng, chunk):
    """boundary_coefficients(n_modes, n_replicas, rng) as row blocks of at most `chunk` replicas."""
    gen = rng.generator()
    for start in range(0, n_replicas, chunk):
        yield gen.standard_normal((min(chunk, n_replicas - start), 2, n_modes))


def dense_trace(coef, theta):
    """Reference trace values sum_n sqrt(2/n) (a_n cos n theta + b_n sin n theta), replica by replica.

    coef has shape (n_replicas, 2, N); the result has shape (n_replicas, len(theta)).
    """
    mode = np.arange(1, coef.shape[-1] + 1)
    cos, sin = np.cos(np.outer(theta, mode)), np.sin(np.outer(theta, mode))
    amp = np.sqrt(2.0 / mode)
    return np.stack([cos @ (amp * a) + sin @ (amp * b) for a, b in coef])


def truncated_boundary_covariance(delta_theta, n_modes):
    """Covariance sum_{n<=N} (2/n) cos(n delta) of the N-mode boundary trace."""
    n = np.arange(1, n_modes + 1)
    d = np.atleast_1d(np.asarray(delta_theta, dtype=float))
    out = np.cos(np.outer(d, n)) @ (2.0 / n)
    return out if out.size > 1 else float(out[0])


def batched_boundary_totals(gamma, n_modes, n_arcs, n_replicas, rng):
    """Total masses of the boundary chaos measure across replicas."""
    trace = TraceSampler(n_modes, n_arcs)
    x = trace.fields(boundary_coefficients(n_modes, n_replicas, rng))
    return boundary_masses(x, trace.variance, gamma, n_arcs).sum(axis=1)


def batched_bulk_masses(gamma, grid, sampler, n_replicas, rng):
    """Cell masses of the bulk chaos measure, shape (points, replicas), from a FieldSampler."""
    vals = sampler.draw_batch(n_replicas, rng)
    variances = np.diag(sampler.covariance)
    w = grid.density_weights(0.5 * gamma**2)
    return bulk_masses(vals, variances[:, None], w[:, None], gamma)


def batched_bulk_totals(gamma, grid, sampler, n_replicas, rng):
    """Total masses of the bulk chaos measure across replicas."""
    return batched_bulk_masses(gamma, grid, sampler, n_replicas, rng).sum(axis=0)
