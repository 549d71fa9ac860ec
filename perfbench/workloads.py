"""Workload definitions and their output checks.

A workload is a fixed sequence of `lqgdisk` CLI calls, each run in its own
process with BLAS_THREADS BLAS threads (capped at the CPUs available).
Each workload exercises different layers; its `why` says which.
`smoke_calls` run the same experiments at minimal counts.

Every call is checked against its own outputs: the manifest sha256 of each
file is recomputed, and the experiment's summary (and, where cheap, its
CSV) must pass the workload's statistical check.  The thresholds are set
so that the benchmark's many seeds do not fail a correct program by
chance; NOTES.md gives the measurements behind them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

GAMMA_SQRT83 = math.sqrt(8.0 / 3.0)
# part of every workload: the gmc-bulk row loop takes about twice as long on
# one OpenBLAS thread as on two
BLAS_THREADS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple  # ((experiment, config), ...)
    smoke_calls: tuple


def _marked(depth, replicas, draws):
    g = GAMMA_SQRT83
    return {
        "gamma": g,
        "mu": 1.0,
        "mu_boundary": 0.5,
        "insertions": [
            {"kind": "bulk", "position": [0.0, 0.0], "weight": g},
            {"kind": "boundary", "position": [1.0, 0.0], "weight": g},
        ],
        "grid": {"n_r": depth, "rings_per_band": 2},
        "n_modes": 1024,
        "n_arcs": 256,
        "n_replicas": replicas,
        "n_draws": draws,
    }


def _chaos(depth, replicas):
    return (
        ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": depth, "rings_per_band": 2}, "n_replicas": replicas}),
        ("gmc-boundary", {"gamma": 1.0, "n_modes": 1024, "n_arcs": 256, "n_replicas": replicas}),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "field-ladder",
            "critical bulk ladder at levels 4-9: dense covariance and Cholesky at m = 8192, factored twice",
            (("critical-ladder", {"kind": "bulk"}),),
            (("critical-ladder", {"kind": "bulk", "levels": [6, 7, 8], "n_replicas": [4000, 2000, 1000]}),),
        ),
        Workload(
            "chaos-replicas",
            "gmc-bulk (m = 2274) and gmc-boundary: per-replica GEMV, stream setup and cos/sin synthesis",
            _chaos(7, 8000),
            _chaos(4, 200),
        ),
        Workload(
            "marked-point",
            "volume-law and quadrature partition with mu_b > 0: ChaosBasis, drift factors, y-quadrature",
            (
                ("volume-law", _marked(7, 400, 40000)),
                ("partition", {**_marked(7, 400, 40000), "method": "quadrature"}),
            ),
            (
                ("volume-law", _marked(4, 100, 2000)),
                ("partition", {**_marked(4, 100, 2000), "method": "quadrature"}),
            ),
        ),
        Workload(
            "boltzmann",
            "maps-density at a = 0.0125: Boltzmann gammaln row builds and sampling, no field layer",
            (("maps-density", {"a": 0.0125, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 100000}),),
            (("maps-density", {"a": 0.03, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 20000}),),
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

# chi-square p-value floor: 0.01 family-wise over the hundred or so seeded
# runs one benchmark comparison makes (p-values are uniform under a correct
# sampler, so a per-run floor of 0.01 would fail about one comparison in four)
P_VALUE_FLOOR = 1e-4
STDERR_BAND = 5.0
PUSH_BAND = (0.75, 1.33)


def check_call(experiment, outdir):
    """Problems found in one call's outputs (empty when correct), its CSV digest,
    and summary values worth recording beside the verdict."""
    manifest_path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(manifest_path):
        return [f"{experiment}: no manifest"], None, {}
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    problems = []
    digest = hashlib.sha256()
    for entry in sorted(manifest["files"], key=lambda e: e["name"]):
        path = os.path.join(outdir, entry["name"])
        got = _sha256(path)
        if got != entry["sha256"] or os.path.getsize(path) != entry["bytes"]:
            problems.append(f"{experiment}: {entry['name']} does not match its manifest entry")
        if entry["name"].endswith(".csv"):
            digest.update(f"{entry['name']} {got}\n".encode())
    summary = manifest["summary"]
    problems += [f"{experiment}: {p}" for p in _CHECKS[experiment](summary, outdir)]
    info = {"estimate": summary["estimate"]}
    if experiment == "critical-ladder":
        info["plain_strictly_decreasing"] = _strictly_decreasing(summary["plain_medians"])
    if experiment == "maps-density":
        info["p_value"] = summary["p_value"]
    return problems, digest.hexdigest(), info


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _analytic_band(summary, outdir):
    dev = abs(summary["estimate"] - summary["analytic_mean"])
    if not (summary["stderr"] > 0.0 and dev <= STDERR_BAND * summary["stderr"]):
        return [f"estimate {summary['estimate']} is {dev / summary['stderr']:.1f} stderr from the analytic mean"]
    return []


def _ladder(summary, outdir):
    problems = []
    ratios = summary["pushed_median_ratios"][-3:]
    if not all(PUSH_BAND[0] < r < PUSH_BAND[1] for r in ratios):
        problems.append(f"pushed median ratios {ratios} leave {PUSH_BAND}")
    plain = [math.log(m) for m in summary["plain_medians"]]
    if _slope(summary["levels"], plain) >= 0.0 or plain[-1] >= plain[0]:
        problems.append(f"plain medians {summary['plain_medians']} do not fall with the level")
    return problems


def _strictly_decreasing(values):
    # recorded, not checked: sampling noise breaks a step-by-step fall on some seeds
    return all(b < a for a, b in zip(values, values[1:]))


def _slope(x, y):
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def _finite_positive(columns, csv_name):
    def check(summary, outdir):
        problems = []
        if not (math.isfinite(summary["estimate"]) and summary["estimate"] > 0.0):
            problems.append(f"estimate {summary['estimate']} is not finite and positive")
        if not (math.isfinite(summary["stderr"]) and summary["stderr"] >= 0.0):
            problems.append(f"stderr {summary['stderr']} is not finite")
        with open(os.path.join(outdir, csv_name)) as fh:
            rows = csv.DictReader(fh)
            for row in rows:
                vals = [float(row[c]) for c in columns]
                if not all(math.isfinite(v) and v > 0.0 for v in vals):
                    problems.append(f"{csv_name} row {row} is not finite and positive")
                    break
        return problems

    return check


def _density(summary, outdir):
    if not summary["p_value"] > P_VALUE_FLOOR:
        return [f"density chi-square p-value {summary['p_value']} is below {P_VALUE_FLOOR}"]
    return []


_CHECKS = {
    "gmc-bulk": _analytic_band,
    "gmc-boundary": _analytic_band,
    "critical-ladder": _ladder,
    "volume-law": _finite_positive(("V", "L", "weight"), "volume-law.csv"),
    "partition": _finite_positive(("I", "J"), "partition.csv"),
    "maps-density": _density,
}
