"""Batch experiment driver.

Each subcommand runs one experiment from a JSON config, writes CSV/JSON
artifacts plus a manifest with per-file checksums, and is byte-reproducible
from (config, seed).  --workers is accepted and recorded for compatibility
and has no effect.  Exit codes: 0 ok, 2 invalid config, 3 admissibility
rejection, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np
import scipy.stats

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
from .geometry import ConformalFactor, LiouvilleParams, MobiusMap, green, weyl_anomaly
from .gff import (
    ROTATION_ORDER,
    FieldSampler,
    RngStream,
    RotationSampler,
    arc_centers,
    boundary_synthesis_matrix,
    check_averaging_circles,
    replica_map,
    truncated_boundary_variance,
)
from .gmc import boundary_masses, bulk_masses, graded_disk_grid

SEED_ENV = "LQG_SEED"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _params_from(config):
    return LiouvilleParams(
        gamma=float(config["gamma"]),
        mu=float(config.get("mu", 1.0)),
        mu_boundary=float(config.get("mu_boundary", 0.0)),
    )


def _insertions_from(config):
    params = _params_from(config)
    bulk, boundary = [], []
    for item in config.get("insertions", []):
        z = complex(item["position"][0], item["position"][1])
        if item["kind"] == "bulk":
            bulk.append((z, float(item["weight"])))
        elif item["kind"] == "boundary":
            boundary.append((z, float(item["weight"])))
        else:
            raise ConfigurationError(f"unknown insertion kind {item['kind']!r}")
    return liouville.InsertionSet(params=params, bulk=tuple(bulk), boundary=tuple(boundary))


def _grid_shape(config):
    """(depth, rings_per_band, aspect) of the graded grid a config asks for."""
    grid_cfg = config.get("grid", {})
    depth = int(grid_cfg.get("n_r", grid_cfg.get("depth", 7)))
    rings = int(grid_cfg.get("rings_per_band", 2))
    if "n_theta" in grid_cfg:
        # angular resolution given as the outermost band's cell count
        aspect = 2.0 * math.pi * rings * 2.0 ** (depth - 1) / float(grid_cfg["n_theta"])
        aspect = min(max(aspect, 0.5), 8.0)
    else:
        aspect = float(grid_cfg.get("aspect", 2.0))
    return depth, rings, aspect


def _grid_from(config):
    return graded_disk_grid(*_grid_shape(config))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_green_selftest(config, seed, outdir):
    n = int(config.get("n_samples", 10000))
    gen = RngStream(seed, 0).generator()
    r = np.sqrt(gen.uniform(size=n)) * 0.999
    x = r * np.exp(2j * np.pi * gen.uniform(size=n))
    y = np.sqrt(gen.uniform(size=n)) * 0.999 * np.exp(2j * np.pi * gen.uniform(size=n))
    a = np.sqrt(gen.uniform(size=n)) * 0.95 * np.exp(2j * np.pi * gen.uniform(size=n))
    alpha = 2.0 * np.pi * gen.uniform(size=n)

    res = {}
    res["green_symmetry"] = float(np.max(np.abs(green(x, y) - green(y, x))))
    res["green_at_origin"] = float(np.max(np.abs(green(0.0, y) + np.log(np.abs(y)))))
    shift_res = []
    ratio_res = []
    greenpsi_res = []
    for k in range(n):
        psi = MobiusMap(a=a[k], alpha=float(alpha[k]))
        dx, dy = psi.derivative(x[k]), psi.derivative(y[k])
        lhs = abs(psi(y[k]) - psi(x[k]))
        shift_res.append(abs(lhs - abs(dx) ** 0.5 * abs(dy) ** 0.5 * abs(y[k] - x[k])))
        lhs2 = abs(1.0 - psi(x[k]) * np.conj(psi(y[k])))
        ratio_res.append(
            abs(lhs2 - abs(dx) ** 0.5 * abs(dy) ** 0.5 * abs(1.0 - x[k] * np.conj(y[k])))
        )
        greenpsi_res.append(
            abs(
                green(psi(x[k]), psi(y[k]))
                - green(x[k], y[k])
                + math.log(abs(dx))
                + math.log(abs(dy))
            )
        )
    res["mobius_difference_identity"] = float(np.max(shift_res))
    res["mobius_inner_identity"] = float(np.max(ratio_res))
    res["green_transform_identity"] = float(np.max(greenpsi_res))

    csv = io.write_csv(
        os.path.join(outdir, "green-selftest.csv"),
        ["check", "max_abs_residual"],
        sorted(res.items()),
    )
    summary = {
        "quantity": "closed-form identities of the disk Green function and Mobius maps",
        "estimate": max(res.values()),
        "stderr": 0.0,
        "n_replicas": n,
        "residuals": res,
    }
    return summary, [csv]


def run_field_sample(config, seed, outdir):
    if "points" in config:
        pts = np.array([complex(p[0], p[1]) for p in config["points"]])
        eps = float(config["eps"])
    else:
        grid = _grid_from(config)
        pts, eps = grid.centers, grid.eps
    sampler = FieldSampler(pts, eps)
    values = sampler.draw(RngStream(seed, 0))
    files = io.save_field(pts, sampler.eps, values, os.path.join(outdir, "field-sample"), seed, 0)
    summary = {
        "quantity": "one exact-covariance draw of regularized field values",
        "estimate": float(np.mean(values)),
        "stderr": float(np.std(values, ddof=1) / math.sqrt(len(values))),
        "n_replicas": 1,
        "n_points": int(len(pts)),
    }
    return summary, files


def _totals_result(name, quantity, gamma, totals, outdir):
    """CSV of per-replica total masses and the summary of their mean."""
    n = len(totals)
    csv = io.write_csv(
        os.path.join(outdir, f"{name}.csv"),
        ["replica", "total"],
        ((r, t) for r, t in enumerate(totals)),
    )
    mean = math.fsum(totals) / n
    var = math.fsum((t - mean) ** 2 for t in totals) / (n - 1)
    summary = {
        "quantity": quantity,
        "estimate": mean,
        "stderr": math.sqrt(var / n),
        "n_replicas": n,
        "gamma": gamma,
    }
    return summary, [csv]


def _sampler_report(sampler):
    """Summary keys describing the graded-grid sampler of a run."""
    return {
        "n_points": len(sampler.variances),
        "rotation_order": ROTATION_ORDER,
        "min_eigenvalue": sampler.min_eigenvalue,
    }


def run_gmc_bulk(config, seed, outdir):
    gamma = float(config["gamma"])
    n_replicas = int(config.get("n_replicas", 1000))
    grid = _grid_from(config)
    sampler = RotationSampler(grid.centers, grid.eps)
    weights = grid.density_weights(0.5 * gamma**2)

    def block_totals(noise):
        return bulk_masses(sampler.fields(noise), sampler.variances, weights, gamma).sum(axis=1)

    streams = [RngStream(seed, r) for r in range(n_replicas)]
    totals = replica_map(block_totals, streams, sampler.noise_shape)
    summary, files = _totals_result(
        "gmc-bulk", "mean total mass of the bulk chaos measure", gamma, totals, outdir
    )
    summary.update(_sampler_report(sampler))
    if gamma**2 < 2.0:
        summary["analytic_mean"] = math.pi / (1.0 - gamma**2 / 2.0)
    return summary, files


def run_gmc_boundary(config, seed, outdir):
    gamma = float(config["gamma"])
    n_replicas = int(config.get("n_replicas", 1000))
    n_modes = int(config.get("n_modes", 1024))
    n_arcs = int(config.get("n_arcs", 256))
    synthesis = boundary_synthesis_matrix(arc_centers(n_arcs), n_modes)
    var_n = truncated_boundary_variance(n_modes)

    def block_totals(coef):
        x = coef.reshape(len(coef), -1) @ synthesis
        return boundary_masses(x, var_n, gamma, n_arcs).sum(axis=1)

    streams = [RngStream(seed, r) for r in range(n_replicas)]
    totals = replica_map(block_totals, streams, (2, n_modes))
    summary, files = _totals_result(
        "gmc-boundary", "mean total mass of the boundary chaos measure", gamma, totals, outdir
    )
    summary["analytic_mean"] = 2.0 * math.pi * math.exp(-(gamma**2) / 8.0)
    return summary, files


def _ladder_from(config):
    """Checked (kind, levels, counts) of a critical-ladder config."""
    kind = config.get("kind", "bulk")
    if kind == "bulk":
        levels = config.get("levels", [4, 5, 6, 7, 8, 9])
        n_replicas = config.get("n_replicas", [20000, 20000, 10000, 5000, 2500, 1500])
        return (kind, *critical.check_bulk_ladder(levels, n_replicas))
    if kind == "boundary":
        levels = config.get("mode_levels", [64, 128, 256, 512, 1024, 2048])
        n_replicas = config.get("n_replicas", 1000)
        return (kind, *critical.check_boundary_ladder(levels, n_replicas))
    raise ConfigurationError(f"unknown ladder kind {kind!r}")


def run_critical_ladder(config, seed, outdir):
    kind, levels, n_replicas = _ladder_from(config)
    rng = RngStream(seed, 0)
    report = {}
    if kind == "bulk":
        pushed, plain = critical.bulk_ladder_totals(levels, n_replicas, rng, report)
    else:
        pushed, plain = critical.boundary_ladder_totals(levels, n_replicas, rng)
    rows = []
    for lvl, tp, tn in zip(levels, pushed, plain):
        rows.append((lvl, len(tp), float(np.median(tp)), float(np.median(tn))))
    csv = io.write_csv(
        os.path.join(outdir, "critical-ladder.csv"),
        ["level", "n_replicas", "median_pushed", "median_plain"],
        rows,
    )
    ratios = critical.median_ratios(pushed)
    summary = {
        "quantity": "total-mass medians of the critical measure along a cutoff ladder",
        "estimate": float(np.median(pushed[-1])),
        "stderr": 0.0,
        "n_replicas": rows[-1][1],
        "kind": kind,
        "levels": levels,
        "pushed_median_ratios": [float(r) for r in ratios],
        "plain_medians": [r[3] for r in rows],
        **report,
    }
    return summary, [csv]


def run_seiberg_validate(config, seed, outdir):
    ins = _insertions_from(config)
    verdict = liouville.seiberg_check(ins)
    summary = {
        "quantity": "admissibility bounds of the insertion set",
        "estimate": float(verdict.s_total),
        "stderr": 0.0,
        "n_replicas": 0,
        "case": verdict.case,
        "bound1_ok": verdict.bound1_ok,
        "bound2_ok": verdict.bound2_ok,
        "bound3_ok": verdict.bound3_ok,
        "admissible": verdict.admissible,
    }
    return summary, []


def _basis_from(config, seed, gamma):
    depth, rings, aspect = _grid_shape(config)
    return liouville.ChaosBasis(
        gamma,
        int(config.get("n_replicas", 400)),
        RngStream(seed, 1),
        depth=depth,
        rings_per_band=rings,
        aspect=aspect,
        n_modes=int(config.get("n_modes", 1024)),
        n_arcs=int(config.get("n_arcs", 256)),
    )


def run_volume_law(config, seed, outdir):
    ins = _insertions_from(config)
    liouville.require_admissible(ins)
    n_draws = int(config.get("n_draws", 10000))
    basis = _basis_from(config, seed, ins.params.gamma)
    half = lambda pair: pair.bulk.integrate(lambda z: (np.real(z) > 0).astype(float)) / pair.bulk.total
    draws = liouville.sample_liouville_triple(
        ins, n_draws, RngStream(seed, 2), basis=basis, functionals={"half_disk": half}
    )
    csv = io.write_csv(
        os.path.join(outdir, "volume-law.csv"),
        ["replica", "V", "L", "weight"],
        zip(draws["replica"], draws["V"], draws["L"], draws["weight"]),
    )
    summary = {
        "quantity": "law of the total volume under the marked-point measure",
        "estimate": float(np.mean(draws["V"])),
        "stderr": float(np.std(draws["V"], ddof=1) / math.sqrt(n_draws)),
        "n_replicas": basis.n_replicas,
        "n_draws": n_draws,
        **_sampler_report(basis.sampler),
    }
    if ins.params.mu_boundary == 0.0:
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
    return summary, [csv]


def run_partition(config, seed, outdir):
    ins = _insertions_from(config)
    basis = _basis_from(config, seed, ins.params.gamma)
    method = config.get("method", "auto")
    value, stderr = liouville.partition_estimate(ins, basis=basis, method=method)
    bulk_tot, bdry_tot = basis.drifted_totals(ins)
    csv = io.write_csv(
        os.path.join(outdir, "partition.csv"),
        ["replica", "I", "J"],
        ((r, i, j) for r, (i, j) in enumerate(zip(bulk_tot, bdry_tot))),
    )
    summary = {
        "quantity": "reduced partition function of the insertion set",
        "estimate": value,
        "stderr": stderr,
        "n_replicas": basis.n_replicas,
        "method": method,
        "s_total": float(ins.s_total),
        **_sampler_report(basis.sampler),
    }
    return summary, [csv]


def run_kpz_covariance(config, seed, outdir):
    ins = _insertions_from(config)
    mb = config.get("mobius", {"a": [0.3, 0.0], "alpha": 0.0})
    psi = MobiusMap(a=complex(mb["a"][0], mb["a"][1]), alpha=float(mb.get("alpha", 0.0)))
    basis = _basis_from(config, seed, ins.params.gamma)
    dev, stderr = liouville.kpz_ratio_test(ins, psi, basis)
    summary = {
        "quantity": "Mobius covariance of the partition function at the conformal weights",
        "estimate": dev,
        "stderr": stderr,
        "n_replicas": basis.n_replicas,
        "predicted_log_weight": liouville.kpz_log_weight(ins, psi),
        "z_score": dev / stderr if stderr > 0 else float("inf"),
        **_sampler_report(basis.sampler),
    }
    return summary, []


def run_weyl_anomaly(config, seed, outdir):
    params = _params_from({**config, "mu": config.get("mu", 1.0)})
    n_r = int(config.get("n_r", 512))
    n_theta = int(config.get("n_theta", 2 * n_r))
    c = float(config.get("shift", 0.8))
    base = ConformalFactor.constant(0.0, n_r, n_theta)
    const = ConformalFactor.constant(c, n_r, n_theta)
    const_resid = weyl_anomaly(const, base, params) - (1.0 + 6.0 * params.Q**2) * c / 12.0

    def phi1(z):
        return 0.3 * (1.0 - np.abs(z) ** 2) + 0.2 * np.real(z) * np.imag(z)

    def phi2(z):
        return -0.25 + 0.4 * np.real(z) ** 2 - 0.1 * np.imag(z) ** 3 + 0.15 * np.real(z)

    f1 = ConformalFactor.from_function(phi1, n_r, n_theta)
    f2 = ConformalFactor.from_function(phi2, n_r, n_theta)
    cocycle_resid = weyl_anomaly(f1 + f2, base, params) - (
        weyl_anomaly(f1, base, params) + weyl_anomaly(f2, f1, params)
    )
    summary = {
        "quantity": "conformal-background dependence of the log partition function",
        "estimate": float(weyl_anomaly(f1, base, params)),
        "stderr": 0.0,
        "n_replicas": 0,
        "constant_shift_residual": float(const_resid),
        "cocycle_residual": float(cocycle_resid),
        "grid": [n_r, n_theta],
    }
    return summary, []


def run_maps_count(config, seed, outdir):
    pairs = config.get("pairs")
    if pairs is None:
        n_max = int(config.get("n_max", 20))
        p_max = int(config.get("p_max", 5))
        pairs = [(n, p) for p in range(1, p_max + 1) for n in range(0, n_max + 1)]
    rows = [(n, p, str(maps.count_exact(int(n), int(p)))) for n, p in pairs]
    csv = io.write_csv(os.path.join(outdir, "maps-count.csv"), ["n", "p", "count"], rows)
    summary = {
        "quantity": "exact boundary-quadrangulation counts",
        "estimate": float(len(rows)),
        "stderr": 0.0,
        "n_replicas": 0,
    }
    return summary, [csv]


def _maps_config(config):
    return maps.BoltzmannConfig(
        a=float(config["a"]),
        mu=float(config.get("mu", 1.0)),
        mu_boundary=float(config.get("mu_boundary", 1.0)),
        n_max=config.get("n_max"),
        p_max=config.get("p_max"),
        interior_marked=bool(config.get("interior_marked", True)),
    )


def run_maps_sample(config, seed, outdir):
    cfg = _maps_config(config)
    n_draws = int(config.get("n_draws", 100000))
    sampler = maps.BoltzmannSampler(cfg)
    n_arr, p_arr = sampler.sample(n_draws, RngStream(seed, 0))
    files = [
        io.write_csv(
            os.path.join(outdir, "maps-draws.csv"),
            ["draw_index", "n", "p"],
            ((i, n, p) for i, (n, p) in enumerate(zip(n_arr, p_arr))),
        )
    ]
    table_rows = (cfg.n_max + 1) * cfg.p_max
    if table_rows <= 2_000_000:
        def table_iter():
            for p in range(1, cfg.p_max + 1):
                row = sampler.log_weight_row(p)
                for n in np.flatnonzero(np.isfinite(row)):
                    yield (n, p, row[n])

        files.append(
            io.write_csv(
                os.path.join(outdir, "maps-weight-table.csv"),
                ["n", "p", "log_weight"],
                table_iter(),
            )
        )
    else:
        files.append(
            io.write_csv(
                os.path.join(outdir, "maps-p-marginal.csv"),
                ["p", "log_marginal"],
                ((p + 1, lw) for p, lw in enumerate(sampler.log_p_marginal)),
            )
        )
    summary = {
        "quantity": "Boltzmann draws of (n, p) from the truncated weight table",
        "estimate": float(np.mean(n_arr)),
        "stderr": float(np.std(n_arr, ddof=1) / math.sqrt(n_draws)),
        "n_replicas": n_draws,
        "caps": [cfg.n_max, cfg.p_max],
    }
    return summary, files


def run_maps_density(config, seed, outdir):
    cfg = _maps_config(config)
    n_draws = int(config.get("n_draws", 100000))
    bins = tuple(config.get("bins", (20, 20)))
    report = maps.joint_density_check(cfg, n_draws, RngStream(seed, 0), bins=bins)
    rows = []
    for i in range(report.observed.shape[0]):
        for j in range(report.observed.shape[1]):
            rows.append(
                (
                    report.v_edges[i],
                    report.v_edges[i + 1],
                    report.l_edges[j],
                    report.l_edges[j + 1],
                    report.observed[i, j],
                    report.expected[i, j],
                )
            )
    csv = io.write_csv(
        os.path.join(outdir, "maps-density-bins.csv"),
        ["v_lo", "v_hi", "l_lo", "l_hi", "observed", "expected"],
        rows,
    )
    summary = {
        "quantity": "joint volume/perimeter law against the limit density",
        "estimate": report.chi2,
        "stderr": 0.0,
        "n_replicas": n_draws,
        **report.summary(),
    }
    return summary, [csv]


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

def validate(config, command=None):
    """Non-mutating config checks; returns a list of findings."""
    findings = []
    command = command or config.get("command")
    if command is not None and command not in EXPERIMENTS:
        findings.append({"code": "unknown-command", "message": f"unknown experiment {command!r}"})

    if "gamma" in config:
        try:
            params = _params_from(config)
        except DomainError as exc:
            findings.append({"code": "parameters", "message": str(exc)})
            params = None
        if params is not None and "insertions" in config:
            try:
                ins = _insertions_from(config)
                verdict = liouville.seiberg_check(ins)
                if not verdict.bound1_ok:
                    findings.append(
                        {"code": "bound1 violated", "message": "total weight does not exceed Q"}
                    )
                if verdict.case == "mu_positive" and not verdict.bound2_ok:
                    findings.append(
                        {"code": "bound2 violated", "message": "a bulk weight reaches Q"}
                    )
                if not verdict.bound3_ok:
                    findings.append(
                        {"code": "bound3 violated", "message": "a boundary weight reaches Q"}
                    )
                if verdict.case == "degenerate":
                    findings.append(
                        {"code": "degenerate", "message": "mu and mu_boundary are both zero"}
                    )
            except DomainError as exc:
                findings.append({"code": "insertions", "message": str(exc)})

    if "points" in config and "eps" in config:
        # the checks neumann_covariance applies before a field-sample run
        pts = np.array([complex(p[0], p[1]) for p in config["points"]])
        try:
            check_averaging_circles(pts, float(config["eps"]))
        except UnsupportedSeparationError as exc:
            findings.append({"code": "separation rule", "message": str(exc)})
        except GridError as exc:
            findings.append({"code": "averaging circles", "message": str(exc)})

    if "levels" in config or "mode_levels" in config or command == "critical-ladder":
        # the check critical-ladder runs before it draws anything
        try:
            _ladder_from(config)
        except (ConfigurationError, GridError) as exc:
            findings.append({"code": "ladder", "message": str(exc)})

    if "grid" in config or command in ("gmc-bulk", "volume-law", "partition", "kpz-covariance"):
        # the graded grid these runs build, under the checks their sampler runs first
        try:
            grid = _grid_from(config)
            check_averaging_circles(grid.centers, grid.eps)
        except (GridError, UnsupportedSeparationError) as exc:
            findings.append({"code": "grid", "message": str(exc)})

    if "a" in config:
        try:
            # the sampler checks its truncation tails against maps.TAIL_BOUND
            maps.BoltzmannSampler(_maps_config(config))
        except ConfigurationError as exc:
            findings.append({"code": "maps-config", "message": str(exc)})

    return findings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_seed(args, config):
    if args.seed is not None:
        return int(args.seed)
    if "seed" in config:
        return int(config["seed"])
    if os.environ.get(SEED_ENV):
        return int(os.environ[SEED_ENV])
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
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2

    if args.command == "validate":
        findings = validate(config)
        print(json.dumps({"findings": findings}, indent=2))
        return 0

    try:
        seed = _resolve_seed(args, config)
        outdir = os.path.join(args.out, args.command)
        os.makedirs(outdir, exist_ok=True)
        t0 = time.time()
        summary, files = EXPERIMENTS[args.command](config, seed, outdir)
        summary_path = io.write_json(os.path.join(outdir, f"{args.command}-summary.json"), summary)
        files = files + [summary_path]
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
    except (ConfigurationError, DomainError, GridError, UnsupportedSeparationError, KeyError) as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2
    except (FactorizationError, ResamplingError, ArithmeticError) as exc:
        print(json.dumps({"error": {"type": "numeric", "message": str(exc)}}))
        return 4


if __name__ == "__main__":
    sys.exit(main())
