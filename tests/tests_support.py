"""Shared vectorized helpers for the statistical tests."""

import math
import tracemalloc

import numpy as np

from lqgdisk import critical, io, maps
from lqgdisk.gff import TraceSampler, check_eigenvalues, covariance_entries, replica_map
from lqgdisk.gmc import boundary_masses, bulk_masses, window_sector_grid


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
    return boundary_masses(x, trace.variance, gamma).sum(axis=1)


def batched_bulk_masses(gamma, grid, sampler, n_replicas, rng):
    """Cell masses of the bulk chaos measure, shape (points, replicas), from a FieldSampler."""
    vals = sampler.draw_batch(n_replicas, rng)
    variances = np.diag(sampler.covariance)
    w = grid.density_weights(0.5 * gamma**2)
    return bulk_masses(vals, variances[:, None], w[:, None], gamma)


def batched_bulk_totals(gamma, grid, sampler, n_replicas, rng):
    """Total masses of the bulk chaos measure across replicas."""
    return batched_bulk_masses(gamma, grid, sampler, n_replicas, rng).sum(axis=0)


def basis_reference(basis, rng, fb=None, fd=None):
    """Every replica's plain (bulk, boundary) masses of a ChaosBasis built on rng, drawn again by replica_map.

    Given drift factors fb and fd, each block of masses is reduced by its
    products with them instead: the drifted totals (I_r, J_r).
    """
    g, sampler, trace, n = basis.gamma, basis.sampler, basis.trace, basis.n_replicas
    weights = basis.grid.density_weights(0.5 * g**2)

    def bulk(noise):
        masses = bulk_masses(sampler.fields(noise), sampler.variances, weights, g)
        return masses if fb is None else masses @ fb

    def bdry(coef):
        masses = boundary_masses(trace.fields(coef), trace.variance, g)
        return masses if fd is None else masses @ fd

    return (
        replica_map(bulk, lambda r: rng.child(2 * r), n, sampler.noise_shape),
        replica_map(bdry, lambda r: rng.child(2 * r + 1), n, trace.noise_shape),
    )


def log_count_exact(n, p):
    """ln of the exact count at the integers n, indexing a log-gamma table at each argument.

    The reference for BoltzmannSampler.log_weight_row, which slices its rows
    from the same table and gives the same bits.
    """
    n = np.asarray(n, dtype=float)
    pf = float(p)
    table = maps._lgamma_table(2 * int(n.max(initial=0.0)) + 2 * p + 2)

    def lgamma(k):
        return table[np.maximum(k, 0.0).astype(np.intp)]  # k <= 0 reads the pole at 0

    out = maps._log_count(n, p, lgamma(2 * n + pf), lgamma(n - pf + 2.0), lgamma(n + 2 * pf + 1.0))
    return np.where(n - pf + 1 < 0, -np.inf, out)


def one_shot_sector(depth):
    """(spectrum, root, variances, min_eigenvalue) of SectorSampler(depth), each built in one piece.

    The whole block-Toeplitz embedding, its real FFT, one eigh of every
    eigenblock and one stacked root product: the reference that the
    sampler's chunked build must match bit for bit.
    """
    grid = window_sector_grid(depth)
    n_t = grid.size // grid.rings_per_band
    radii = np.abs(grid.centers[::n_t])
    shifts = np.exp(1j * grid.dtheta[0] * np.arange(n_t + 1))
    blocks = covariance_entries(radii[:, None], radii[None, :] * shifts[:, None, None], grid.eps[0])
    spectrum = np.fft.rfft(np.concatenate([blocks, blocks[-2:0:-1]]), axis=0).real
    w, v = np.linalg.eigh(spectrum)
    check_eigenvalues(w)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.conj(v).transpose(0, 2, 1)
    return spectrum, root, np.repeat(np.diag(blocks[0]), n_t), float(w.min())


def serial_bulk_ladder(levels, n_replicas, rng):
    """critical.bulk_ladder_totals as one serial loop: each segment's noise drawn, then used and coarsened.

    The reference that the ladder's worker-thread draws must match bit for
    bit; segments follow critical.BUILD_CHUNK as it is at the call.
    """
    levels, counts = critical.check_bulk_ladder(levels, n_replicas)
    samplers = [critical.SectorSampler(k) for k in levels]
    weights = [s.grid.density_weights(2.0) for s in samplers]
    plain = [np.empty(n) for n in counts]
    gen = rng.generator()
    r = 0
    while r < max(counts):
        finest = max(i for i, n in enumerate(counts) if n > r)
        shape = samplers[finest].noise_shape
        end = min(counts[finest], r + max(1, critical.BUILD_CHUNK // math.prod(shape)))
        noise = gen.standard_normal((end - r, *shape))
        for i in range(finest, -1, -1):
            n = min(end, counts[i]) - r
            if n > 0:
                x = samplers[i].fields(noise[:n])
                masses = bulk_masses(x, samplers[i].variances, weights[i], 2.0)
                plain[i][r : r + n] = masses.sum(axis=1)
            if i > 0:
                for _ in range(levels[i] - levels[i - 1]):
                    noise = critical.coarsen_noise(noise)
        r = end
    pushed = [t * math.sqrt(math.log(1.0 / s.grid.eps[0])) for t, s in zip(plain, samplers)]
    return pushed, plain


def cell_by_cell_csv(path, header, rows):
    """The CSV that io.write_csv writes, formatted one cell at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for c in row:
                if isinstance(c, (int, np.integer)):
                    cells.append(str(int(c)))
                elif isinstance(c, str):
                    cells.append(c)
                else:
                    cells.append(io.fmt(c))
            fh.write(",".join(cells) + "\n")
    return path


def traced_peak(fn):
    """Peak bytes traced by tracemalloc (numpy buffers included) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
