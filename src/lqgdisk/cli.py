"""Batch experiment driver.

Each subcommand runs one experiment from a JSON config.  The experiment
returns its summary and its tables, and main alone writes them as CSV/JSON
files plus a manifest with per-file checksums, byte-reproducible from
(config, seed).  --workers is accepted and recorded for compatibility
and has no effect.  Exit codes: 0 ok, 2 invalid config, 3 admissibility
rejection, 4 numeric failure; validate exits 2 when it reports a finding.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import critical, io, liouville, maps
from .errors import (
    ConfigurationError,
    DomainError,
    FactorizationError,
    GridError,
    NotAdmissibleError,
    ResamplingError,
    UnsupportedSeparationError,
)
from .geometry import ConformalFactor, LiouvilleParams, MobiusMap, green, mobius_green_residual, weyl_anomaly
from .gff import (
    ROTATION_ORDER,
    FieldSampler,
    RngStream,
    RotationSampler,
    TraceSampler,
    check_averaging_circles,
    replica_map,
)
from .gmc import boundary_masses, bulk_masses, graded_disk_grid

SEED_ENV = "LQG_SEED"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _params_from(config):
    return LiouvilleParams(
        gamma=_real(_key(config, "gamma"), "gamma"),
        mu=_real(config.get("mu", 1.0), "mu"),
        mu_boundary=_real(config.get("mu_boundary", 0.0), "mu_boundary"),
    )


def _insertions_from(config):
    params = _params_from(config)
    bulk, boundary = [], []
    for i, item in enumerate(_typed(config.get("insertions", []), list, "insertions")):
        name = f"insertion {i}"
        item = _closed(_typed(item, dict, "an insertion"), name, ("kind", "position", "weight"))
        z = _point(_key(item, "position", name), "position")
        kind = _key(item, "kind", name)
        if kind == "bulk":
            bulk.append((z, _real(_key(item, "weight", name), "weight")))
        elif kind == "boundary":
            boundary.append((z, _real(_key(item, "weight", name), "weight")))
        else:
            raise ConfigurationError(f"unknown insertion kind {kind!r}")
    return liouville.InsertionSet(params=params, bulk=tuple(bulk), boundary=tuple(boundary))


def _grid_from(config):
    """The graded_disk_grid(depth, rings_per_band, aspect) a config's "grid" object asks for."""
    grid_cfg = _closed(config.get("grid", {}), "grid", ("n_r", "rings_per_band", "aspect"))
    depth = _integer(grid_cfg.get("n_r", 7), "n_r", 1)
    rings = _integer(grid_cfg.get("rings_per_band", 2), "rings_per_band", 1)
    return graded_disk_grid(depth, rings, _real(grid_cfg.get("aspect", 2.0), "aspect"))


def _integer(n, name, least):
    """n as an int, if it is an integer of at least `least`."""
    if isinstance(n, bool) or not (isinstance(n, int) or isinstance(n, float) and n.is_integer()):
        raise ConfigurationError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ConfigurationError(f"{name} must be at least {least}, got {int(n)}")
    return int(n)


def _integers(xs, name):
    """xs as a list of ints, if it is a list of integers; their range is the caller's to check."""
    return [_integer(x, name, -math.inf) for x in _typed(xs, list, name)]


def _key(obj, key, name="the config"):
    """obj[key], if the config object `name` has that key."""
    if key not in obj:
        raise ConfigurationError(f"{name} has no key {key!r}")
    return obj[key]


def _closed(obj, name, keys):
    """obj, if the config object `name` is a JSON object with no key outside `keys`."""
    for key in _typed(obj, dict, name):
        if key not in keys:
            raise ConfigurationError(f"{name} takes no key {key!r}; it accepts {', '.join(keys)}")
    return obj


def _typed(x, kind, name):
    """x, if it is a JSON value of the given kind (list, dict or bool)."""
    if not isinstance(x, kind):
        raise ConfigurationError(f"{name} must be a {kind.__name__}, got {x!r}")
    return x


def _real(x, name):
    """x as a float, if it is a finite number."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ConfigurationError(f"{name} must be a finite number, got {x!r}")
    return float(x)


def _point(p, name):
    """A point [x, y] as x + iy, if x and y are finite numbers."""
    if not isinstance(p, list) or len(p) != 2:
        raise ConfigurationError(f"{name} must be a pair [x, y], got {p!r}")
    return complex(_real(p[0], name), _real(p[1], name))


def _count(config, key, default, least=2):
    """Integer count config[key] of at least `least` (2 leaves a standard error)."""
    return _integer(config.get(key, default), key, least)


def _samples_from(config):
    return _count(config, "n_samples", 10000, least=1)


def _points_from(config):
    """(points, eps) of a field-sample run: the config's points (at least 2), else the grid's cells."""
    if "points" in config:
        points = [_point(p, "points") for p in _typed(config["points"], list, "points")]
        if len(points) < 2:
            raise ConfigurationError(f"points must hold at least 2 points, got {len(points)}")
        return np.array(points), _real(_key(config, "eps"), "eps")
    grid = _grid_from(config)
    return grid.centers, grid.eps


def _modes_from(config):
    """(n_modes, n_arcs) of the boundary synthesis."""
    return _count(config, "n_modes", 1024, least=1), _count(config, "n_arcs", 256, least=1)


def _mobius_from(config):
    mb = _closed(config.get("mobius", {"a": [0.3, 0.0], "alpha": 0.0}), "mobius", ("a", "alpha"))
    alpha = _real(mb.get("alpha", 0.0), "mobius.alpha")
    return MobiusMap(a=_point(_key(mb, "a", "mobius"), "mobius.a"), alpha=alpha)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _summary(quantity, estimate, stderr, n_replicas, **rest):
    """A run's summary: the four keys every experiment reports, then its own."""
    return {"quantity": quantity, "estimate": estimate, "stderr": stderr, "n_replicas": n_replicas, **rest}


def _mean_summary(quantity, x, n_replicas, **rest):
    """The summary of the mean of the draws x, with its standard error."""
    return _summary(quantity, float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x))), n_replicas, **rest)


def run_green_selftest(config, seed):
    n = _samples_from(config)
    gen = RngStream(seed, 0).generator()
    x = np.sqrt(gen.uniform(size=n)) * 0.999 * np.exp(2j * np.pi * gen.uniform(size=n))
    y = np.sqrt(gen.uniform(size=n)) * 0.999 * np.exp(2j * np.pi * gen.uniform(size=n))
    a = np.sqrt(gen.uniform(size=n)) * 0.95 * np.exp(2j * np.pi * gen.uniform(size=n))
    psi = MobiusMap(a=a, alpha=2.0 * np.pi * gen.uniform(size=n))  # one map per sample
    px, py = psi(x), psi(y)
    root = np.abs(psi.derivative(x)) ** 0.5 * np.abs(psi.derivative(y)) ** 0.5
    res = {
        "green_symmetry": green(x, y) - green(y, x),
        "green_at_origin": green(0.0, y) + np.log(np.abs(y)),
        "mobius_difference_identity": np.abs(py - px) - root * np.abs(y - x),
        "mobius_inner_identity": np.abs(1.0 - px * np.conj(py)) - root * np.abs(1.0 - x * np.conj(y)),
        "green_transform_identity": mobius_green_residual(psi, x, y),
    }
    res = {check: float(np.max(np.abs(resid))) for check, resid in res.items()}
    summary = _summary(
        "closed-form identities of the disk Green function and Mobius maps", max(res.values()), 0.0, n,
        residuals=res,
    )
    return summary, {"green-selftest.csv": (["check", "max_abs_residual"], sorted(res.items()))}


def run_field_sample(config, seed):
    pts, eps = _points_from(config)
    sampler = FieldSampler(pts, eps)
    values = sampler.draw(RngStream(seed, 0))
    summary = _mean_summary(
        "one exact-covariance draw of regularized field values", values, 1,
        n_points=int(len(pts)),
    )
    # the snapshot: re,im,value per point, and a JSON sidecar with its stream and radii
    radii = sampler.eps
    sidecar = {"seed": seed, "stream_id": 0, "n_points": len(pts)}
    sidecar["eps"] = float(radii[0]) if np.ptp(radii) == 0.0 else [float(e) for e in radii]
    return summary, {
        "field-sample.csv": (["re", "im", "value"], zip(pts.real, pts.imag, values)),
        "field-sample.json": sidecar,
    }


def _totals_result(name, quantity, gamma, seed, n, sampler, block_totals):
    """The summary of the mean total mass of replicas 0..n-1, replica r from RngStream(seed, r), and their table."""
    totals = replica_map(block_totals, lambda r: RngStream(seed, r), n, sampler.noise_shape)
    mean = math.fsum(totals) / n
    var = math.fsum((t - mean) ** 2 for t in totals) / (n - 1)
    summary = _summary(
        quantity, mean, math.sqrt(var / n), n,
        gamma=gamma,
    )
    return summary, {f"{name}.csv": (["replica", "total"], enumerate(totals))}


def _sampler_report(sampler):
    """Summary keys describing the graded-grid sampler of a run."""
    return {
        "n_points": len(sampler.variances),
        "rotation_order": ROTATION_ORDER,
        "min_eigenvalue": sampler.min_eigenvalue,
    }


def run_gmc_bulk(config, seed):
    gamma = _params_from(config).gamma
    n_replicas = _count(config, "n_replicas", 1000)
    grid = _grid_from(config)
    sampler = RotationSampler(grid)
    weights = grid.density_weights(0.5 * gamma**2)

    def block_totals(noise):
        return bulk_masses(sampler.fields(noise), sampler.variances, weights, gamma).sum(axis=1)

    quantity = "mean total mass of the bulk chaos measure"
    summary, tables = _totals_result("gmc-bulk", quantity, gamma, seed, n_replicas, sampler, block_totals)
    summary.update(_sampler_report(sampler))
    if gamma**2 < 2.0:
        summary["analytic_mean"] = math.pi / (1.0 - gamma**2 / 2.0)
    return summary, tables


def run_gmc_boundary(config, seed):
    gamma = _params_from(config).gamma
    n_replicas = _count(config, "n_replicas", 1000)
    trace = TraceSampler(*_modes_from(config))

    def block_totals(coef):
        return boundary_masses(trace.fields(coef), trace.variance, gamma).sum(axis=1)

    quantity = "mean total mass of the boundary chaos measure"
    summary, tables = _totals_result("gmc-boundary", quantity, gamma, seed, n_replicas, trace, block_totals)
    summary["analytic_mean"] = 2.0 * math.pi * math.exp(-(gamma**2) / 8.0)
    return summary, tables


def _ladder_from(config):
    """Checked (kind, levels, counts) of a critical-ladder config."""
    kind = config.get("kind", "bulk")
    if kind == "bulk":
        key, levels, n = "levels", [4, 5, 6, 7, 8, 9], [20000, 20000, 10000, 5000, 2500, 1500]
    elif kind == "boundary":
        key, levels, n = "mode_levels", [64, 128, 256, 512, 1024, 2048], 1000
    else:
        raise ConfigurationError(f"unknown ladder kind {kind!r}")
    levels = _integers(config.get(key, levels), key)
    n = config.get("n_replicas", n)
    counts = _integers(n if isinstance(n, list) else [n] * len(levels), "n_replicas")
    check = critical.check_bulk_ladder if kind == "bulk" else critical.check_boundary_ladder
    return (kind, *check(levels, counts))


def run_critical_ladder(config, seed):
    kind, levels, n_replicas = _ladder_from(config)
    rng = RngStream(seed, 0)
    report = {}
    if kind == "bulk":
        pushed, plain = critical.bulk_ladder_totals(levels, n_replicas, rng, report)
        del report["noise_wait_s"]  # wall-clock seconds: not fixed by the config and seed
    else:
        pushed, plain = critical.boundary_ladder_totals(levels, n_replicas, rng)
    rows = [(lvl, len(tp), float(critical.median(tp)), float(critical.median(tn)))
            for lvl, tp, tn in zip(levels, pushed, plain)]
    ratios = critical.median_ratios(pushed)
    quantity = "total-mass medians of the critical measure along a cutoff ladder"
    summary = _summary(
        quantity, rows[-1][2], 0.0, rows[-1][1],
        kind=kind,
        levels=levels,
        pushed_median_ratios=[float(r) for r in ratios],
        plain_medians=[r[3] for r in rows],
        **report,
    )
    return summary, {"critical-ladder.csv": (["level", "n_replicas", "median_pushed", "median_plain"], rows)}


def run_seiberg_validate(config, seed):
    ins = _insertions_from(config)
    verdict = liouville.seiberg_check(ins)
    summary = _summary(
        "admissibility bounds of the insertion set", float(verdict.s_total), 0.0, 0,
        case=verdict.case,
        bound1_ok=verdict.bound1_ok,
        bound2_ok=verdict.bound2_ok,
        bound3_ok=verdict.bound3_ok,
        admissible=verdict.admissible,
    )
    return summary, {}


def _basis_from(config, seed, gamma):
    grid, trace = _grid_from(config), TraceSampler(*_modes_from(config))
    return liouville.ChaosBasis(gamma, _count(config, "n_replicas", 400), RngStream(seed, 1), grid, trace)


def run_volume_law(config, seed):
    ins = _insertions_from(config)
    liouville.require_admissible(ins)
    n_draws = _count(config, "n_draws", 10000)
    basis = _basis_from(config, seed, ins.params.gamma)
    # at mu_b = 0 the summary reports the correlation of V with the half-disk mass
    boundary_free = ins.params.mu_boundary == 0.0
    half = lambda pair: pair.bulk.integrate(lambda z: (np.real(z) > 0).astype(float)) / pair.bulk.total
    functionals = {"half_disk": half} if boundary_free else None
    draws = liouville.sample_liouville_triple(
        ins, n_draws, RngStream(seed, 2), basis=basis, functionals=functionals
    )
    summary = _mean_summary(
        "law of the total volume under the marked-point measure", draws["V"], basis.n_replicas,
        n_draws=n_draws,
        ess=draws["ess"],
        acceptance_rate=draws["acceptance_rate"],
        **_sampler_report(basis.sampler),
    )
    if boundary_free:
        import scipy.stats
        shape, rate = liouville.volume_law_params(ins)
        ks = scipy.stats.kstest(draws["V"], "gamma", args=(shape, 0.0, 1.0 / rate))
        corr = float(np.corrcoef(draws["V"], draws["half_disk"])[0, 1])
        summary.update(
            gamma_shape=shape,
            gamma_rate=rate,
            ks_statistic=float(ks.statistic),
            ks_pvalue=float(ks.pvalue),
            half_disk_corr=corr,
        )
    if draws["zero_mode_rel_err"] is not None:
        summary["zero_mode_rel_err"] = draws["zero_mode_rel_err"]
    rows = zip(draws["replica"], draws["V"], draws["L"], draws["weight"])
    return summary, {"volume-law.csv": (["replica", "V", "L", "weight"], rows)}


def run_partition(config, seed):
    ins = _insertions_from(config)
    liouville.require_admissible(ins)
    basis = _basis_from(config, seed, ins.params.gamma)
    value, stderr, rel_err = liouville.partition_estimate(ins, basis=basis)
    bulk_tot, bdry_tot = basis.drifted_totals(ins)
    summary = _summary(
        "reduced partition function of the insertion set", value, stderr, basis.n_replicas,
        method="gamma" if ins.params.mu_boundary == 0.0 else "quadrature",
        s_total=float(ins.s_total),
        **_sampler_report(basis.sampler),
    )
    if rel_err is not None:
        summary["zero_mode_rel_err"] = rel_err
    return summary, {"partition.csv": (["replica", "I", "J"], zip(range(len(bulk_tot)), bulk_tot, bdry_tot))}


def run_kpz_covariance(config, seed):
    ins = _insertions_from(config)
    liouville.require_admissible(ins)
    liouville.check_ratio_test(ins.params)
    psi = _mobius_from(config)
    basis = _basis_from(config, seed, ins.params.gamma)
    dev, stderr = liouville.kpz_ratio_test(ins, psi, basis)
    summary = _summary(
        "Mobius covariance of the partition function at the conformal weights", dev, stderr, basis.n_replicas,
        predicted_log_weight=liouville.kpz_log_weight(ins, psi),
        z_score=dev / stderr if stderr > 0 else float("inf"),
        **_sampler_report(basis.sampler),
    )
    return summary, {}


def _weyl_from(config):
    """(n_r, n_theta, c) of weyl-anomaly: its conformal grid and the constant shift c."""
    n_r = _count(config, "n_r", 512, least=1)
    n_theta = _count(config, "n_theta", 2 * n_r, least=1)
    ConformalFactor.check_grid(n_r, n_theta)
    return n_r, n_theta, _real(config.get("shift", 0.8), "shift")


def run_weyl_anomaly(config, seed):
    params = _params_from(config)
    n_r, n_theta, c = _weyl_from(config)
    base = ConformalFactor.constant(0.0, n_r, n_theta)
    const = ConformalFactor.constant(c, n_r, n_theta)
    const_resid = weyl_anomaly(const, base, params) - params.central_charge * c / 12.0

    def phi1(z):
        return 0.3 * (1.0 - np.abs(z) ** 2) + 0.2 * np.real(z) * np.imag(z)

    def phi2(z):
        return -0.25 + 0.4 * np.real(z) ** 2 - 0.1 * np.imag(z) ** 3 + 0.15 * np.real(z)

    f1 = ConformalFactor.from_function(phi1, n_r, n_theta)
    f2 = ConformalFactor.from_function(phi2, n_r, n_theta)
    cocycle_resid = weyl_anomaly(f1 + f2, base, params) - (
        weyl_anomaly(f1, base, params) + weyl_anomaly(f2, f1, params)
    )
    quantity = "conformal-background dependence of the log partition function"
    summary = _summary(
        quantity, float(weyl_anomaly(f1, base, params)), 0.0, 0,
        constant_shift_residual=float(const_resid),
        cocycle_residual=float(cocycle_resid),
        grid=[n_r, n_theta],
    )
    return summary, {}


def _pairs_from(config):
    """(n, p) of maps-count, n >= 0 and p >= 1: its pairs, else n <= n_max for each p <= p_max."""
    pairs = config.get("pairs")
    if pairs is None:
        n_max = _count(config, "n_max", 20, least=0)
        p_max = _count(config, "p_max", 5, least=1)
        return tuple((n, p) for p in range(1, p_max + 1) for n in range(0, n_max + 1))
    if not isinstance(pairs, list) or not all(isinstance(q, list) and len(q) == 2 for q in pairs):
        raise ConfigurationError(f"pairs must be a list of [n, p] pairs, got {pairs!r}")
    return tuple((_integer(n, "n", 0), _integer(p, "p", 1)) for n, p in pairs)


def run_maps_count(config, seed):
    rows = [(n, p, str(maps.count_exact(n, p))) for n, p in _pairs_from(config)]
    summary = _summary("exact boundary-quadrangulation counts", float(len(rows)), 0.0, 0)
    return summary, {"maps-count.csv": (["n", "p", "count"], rows)}


def _maps_config(config):
    return maps.BoltzmannConfig(
        a=_real(_key(config, "a"), "a"),
        mu=_real(config.get("mu", 1.0), "mu"),
        mu_boundary=_real(config.get("mu_boundary", 1.0), "mu_boundary"),
        n_max=None if config.get("n_max") is None else _count(config, "n_max", None, least=0),
        p_max=None if config.get("p_max") is None else _count(config, "p_max", None, least=1),
        interior_marked=_typed(config.get("interior_marked", True), bool, "interior_marked"),
    )


def run_maps_sample(config, seed):
    cfg = _maps_config(config)
    n_draws = _count(config, "n_draws", 100000)
    sampler = maps.BoltzmannSampler(cfg)
    n_arr, p_arr = sampler.sample(n_draws, RngStream(seed, 0))
    tables = {"maps-draws.csv": (["draw_index", "n", "p"], zip(range(len(n_arr)), n_arr, p_arr))}
    if (cfg.n_max + 1) * cfg.p_max <= 2_000_000:
        def table_iter():  # a row at a time, as the table is written
            for p in range(1, cfg.p_max + 1):
                row = sampler.log_weight_row(p)
                for n in np.flatnonzero(np.isfinite(row)):
                    yield (n, p, row[n])

        tables["maps-weight-table.csv"] = (["n", "p", "log_weight"], table_iter())
    else:
        tables["maps-p-marginal.csv"] = (["p", "log_marginal"], enumerate(sampler.log_p_marginal, 1))
    summary = _mean_summary(
        "Boltzmann draws of (n, p) from the truncated weight table", n_arr, n_draws,
        caps=[cfg.n_max, cfg.p_max],
        log_tail_mass=sampler.log_tail_mass,
    )
    return summary, tables


def _bins_from(config):
    """(volume, length) bin counts of maps-density, each at least 1."""
    bins = config.get("bins", [20, 20])
    if not isinstance(bins, list) or len(bins) != 2:
        raise ConfigurationError(f"bins must be a list of two counts, got {bins!r}")
    return tuple(_integer(b, "bins", 1) for b in bins)


def run_maps_density(config, seed):
    cfg = _maps_config(config)
    n_draws = _count(config, "n_draws", 100000)
    bins = _bins_from(config)
    density, rows = maps.joint_density_check(cfg, n_draws, RngStream(seed, 0), bins=bins)
    summary = _summary(
        "joint volume/perimeter law against the limit density", density["chi2"], 0.0, n_draws,
        **density,
    )
    header = ["v_lo", "v_hi", "l_lo", "l_hi", "observed", "expected"]
    return summary, {"maps-density-bins.csv": (header, rows)}


EXPERIMENTS = {
    "green-selftest": run_green_selftest,
    "field-sample": run_field_sample,
    "gmc-bulk": run_gmc_bulk,
    "gmc-boundary": run_gmc_boundary,
    "critical-ladder": run_critical_ladder,
    "seiberg-validate": run_seiberg_validate,
    "volume-law": run_volume_law,
    "partition": run_partition,
    "kpz-covariance": run_kpz_covariance,
    "weyl-anomaly": run_weyl_anomaly,
    "maps-count": run_maps_count,
    "maps-sample": run_maps_sample,
    "maps-density": run_maps_density,
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

CONFIG_ERRORS = (ConfigurationError, DomainError, GridError, UnsupportedSeparationError)
BASIS_COMMANDS = ("volume-law", "partition", "kpz-covariance")  # they build a ChaosBasis


def _bound_findings(config):
    """A finding per Seiberg bound (seiberg_check) that rejects the config's insertion set."""
    v = liouville.seiberg_check(_insertions_from(config))
    failed = (
        (v.bound1_ok, "bound1 violated", "total weight does not exceed Q"),
        (v.bound2_ok or v.case != "mu_positive", "bound2 violated", "a bulk weight reaches Q"),
        (v.bound3_ok, "bound3 violated", "a boundary weight reaches Q"),
    )
    return [{"code": code, "message": message} for ok, code, message in failed if not ok]


# (finding code, the config keys that select it when no experiment is named, the experiments whose run
# calls it, the reader or check it calls).  A reader's error is its finding, coded "separation rule" when
# averaging circles overlap; a check returns its findings as a list (and no reader returns a list).
VALIDATION = (
    ("seed", ("seed",), (), lambda c: _integer(c["seed"], "seed", 0)),
    ("parameters", ("gamma",),
     ("gmc-bulk", "gmc-boundary", "seiberg-validate", *BASIS_COMMANDS, "weyl-anomaly"), _params_from),
    ("insertions", (), ("seiberg-validate",), _insertions_from),
    ("insertions", ("insertions",), BASIS_COMMANDS, _bound_findings),
    ("parameters", (), ("kpz-covariance",), lambda c: liouville.check_ratio_test(_params_from(c))),
    ("averaging circles", ("points",), ("field-sample",), lambda c: check_averaging_circles(*_points_from(c))),
    ("grid", ("grid",), ("gmc-bulk", *BASIS_COMMANDS), _grid_from),
    ("ladder", ("kind", "levels", "mode_levels"), ("critical-ladder",), _ladder_from),
    ("counts", ("n_replicas",), ("gmc-bulk", "gmc-boundary", *BASIS_COMMANDS), lambda c: _count(c, "n_replicas", 2)),
    ("counts", ("n_draws",), ("volume-law", "maps-sample", "maps-density"), lambda c: _count(c, "n_draws", 2)),
    ("counts", ("n_samples",), ("green-selftest",), _samples_from),
    ("modes", ("n_modes", "n_arcs"), ("gmc-boundary", *BASIS_COMMANDS), _modes_from),
    ("parameters", (), BASIS_COMMANDS, lambda c: liouville.ChaosBasis.check_gamma(_params_from(c).gamma)),
    ("mobius", ("mobius",), ("kpz-covariance",), _mobius_from),
    ("maps-config", ("a",), ("maps-sample", "maps-density"), lambda c: maps.BoltzmannSampler(_maps_config(c))),
    ("bins", ("bins",), ("maps-density",), _bins_from),
    ("pairs", ("pairs",), ("maps-count",), _pairs_from),
    ("conformal grid", ("n_r", "n_theta", "shift"), ("weyl-anomaly",), _weyl_from),
)


def validate(config, command=None, seed=None):
    """Each distinct error that the readers and checks of VALIDATION raise on the config.  For a known experiment
    they are those of the rows that name it, and of the seed row by its key; else those of the rows whose keys
    the config holds, less the counts rows when a ladder key is held (_ladder_from reads a ladder's counts).
    A seed flag is checked in the seed row's place, as a run reads it (_resolve_seed)."""
    command = command or config.get("command")
    known = isinstance(command, str) and command in EXPERIMENTS
    findings = []
    if command is not None and not known:
        findings.append({"code": "unknown-command", "message": f"unknown experiment {command!r}"})
    ladder = any(code == "ladder" and not config.keys().isdisjoint(keys) for code, keys, _, _ in VALIDATION)
    for code, keys, commands, read in VALIDATION:
        if code == "seed" and seed is not None:  # the run reads the flag and never the key
            read = lambda c: _resolve_seed(seed, c)
        elif known and commands:
            if command not in commands:
                continue
        elif config.keys().isdisjoint(keys) or (ladder and code == "counts"):
            continue
        try:
            found = read(config)
        except CONFIG_ERRORS as exc:
            separation = isinstance(exc, UnsupportedSeparationError)
            found = [{"code": "separation rule" if separation else code, "message": str(exc)}]
        if isinstance(found, list):
            findings += [f for f in found if f["message"] not in {g["message"] for g in findings}]
    return findings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_seed(flag, config):
    if flag is not None:
        return _integer(flag, "--seed", 0)
    if "seed" in config:
        return _integer(config["seed"], "seed", 0)
    env = os.environ.get(SEED_ENV)
    if env:
        try:
            env = int(env)
        except ValueError:
            pass  # _integer refuses the string and names it
        return _integer(env, SEED_ENV, 0)
    raise ConfigurationError(f"no seed given (flag --seed, config key, or {SEED_ENV})")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lqgdisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(EXPERIMENTS) + ["validate"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=1, help="accepted and recorded; no effect")
        p.add_argument("--out", default="runs")
    args = parser.parse_args(argv)

    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigurationError(f"the config must be a JSON object, got {type(config).__name__}")
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2

    if args.command == "validate":
        findings = validate(config, seed=args.seed)
        print(json.dumps({"findings": findings}, indent=2))
        return 2 if findings else 0

    try:
        seed = _resolve_seed(args.seed, config)
        outdir = os.path.join(args.out, args.command)
        os.makedirs(outdir, exist_ok=True)
        t0 = time.time()
        summary, tables = EXPERIMENTS[args.command](config, seed)
        # the one writer of a run's files: each table (a .json one is an object), then the summary
        files = []
        for name, table in {**tables, f"{args.command}-summary.json": summary}.items():
            path = os.path.join(outdir, name)
            files.append(io.write_json(path, table) if name.endswith(".json") else io.write_csv(path, *table))
        manifest = {
            "command": args.command,
            "config": config,
            "config_sha256": io.config_hash(config),
            "seed": seed,
            "workers": args.workers,
            "wall_seconds": time.time() - t0,
            "files": [
                {
                    "name": os.path.basename(f),
                    "sha256": io.sha256_file(f),
                    "bytes": os.path.getsize(f),
                }
                for f in files
            ],
            "summary": summary,
        }
        io.write_json(os.path.join(outdir, "manifest.json"), manifest)
        print(json.dumps({"ok": True, "outdir": outdir, "summary": summary}, default=str))
        return 0
    except NotAdmissibleError as exc:
        print(json.dumps({"error": {"type": "not-admissible", "message": str(exc)}}))
        return 3
    except CONFIG_ERRORS as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2
    except (FactorizationError, ResamplingError, ArithmeticError) as exc:
        print(json.dumps({"error": {"type": "numeric", "message": str(exc)}}))
        return 4


if __name__ == "__main__":
    sys.exit(main())
