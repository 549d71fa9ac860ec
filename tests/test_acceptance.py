"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they complete.  Every tolerance is fixed here, not tuned at runtime.
"""

import json
import math
import time

import numpy as np
import scipy.stats

from lqgdisk import cli, io
from lqgdisk.critical import (
    boundary_ladder_totals,
    bulk_ladder_totals,
    median_ratios,
)
from lqgdisk.geometry import (
    ConformalFactor,
    LiouvilleParams,
    MobiusMap,
    green,
    green_regularized,
    mobius_green_residual,
    poincare_density,
    weyl_anomaly,
)
from lqgdisk.gff import FieldSampler, RngStream
from lqgdisk.gmc import graded_disk_grid
from lqgdisk.liouville import (
    ChaosBasis,
    InsertionSet,
    kpz_ratio_test,
    sample_liouville_triple,
)
from lqgdisk.maps import (
    BoltzmannConfig,
    count_exact,
    histogram_check,
    joint_density_check,
    log_count_asymptotic,
    log_count_exact_certified,
)

GAMMA_83 = math.sqrt(8.0 / 3.0)


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_green_mobius_identities():
    t0 = time.time()
    n = 10000
    gen = RngStream(101, 0).generator()
    x = 0.999 * np.sqrt(gen.uniform(size=n)) * np.exp(2j * np.pi * gen.uniform(size=n))
    y = 0.999 * np.sqrt(gen.uniform(size=n)) * np.exp(2j * np.pi * gen.uniform(size=n))
    a = 0.95 * np.sqrt(gen.uniform(size=n)) * np.exp(2j * np.pi * gen.uniform(size=n))
    alpha = 2 * np.pi * gen.uniform(size=n)

    worst = 0.0
    worst = max(worst, float(np.max(np.abs(green(x, y) - green(y, x)))))
    worst = max(worst, float(np.max(np.abs(green(0.0, y) + np.log(np.abs(y))))))
    for k in range(n):
        psi = MobiusMap(a=a[k], alpha=float(alpha[k]))
        dx, dy = psi.derivative(x[k]), psi.derivative(y[k])
        root = abs(dx) ** 0.5 * abs(dy) ** 0.5
        worst = max(worst, abs(abs(psi(y[k]) - psi(x[k])) - root * abs(y[k] - x[k])))
        worst = max(
            worst,
            abs(abs(1 - psi(x[k]) * np.conj(psi(y[k]))) - root * abs(1 - x[k] * np.conj(y[k]))),
        )
        worst = max(worst, abs(mobius_green_residual(psi, x[k], y[k])))
    dt = time.time() - t0
    verdict(1, worst < 1e-12 and dt < 5.0, f"max residual {worst:.2e} over {n} inputs in {dt:.1f}s")


def test_criterion_02_regularized_variance():
    t0 = time.time()
    gen = RngStream(102, 0).generator()
    pts = 0.93 * np.sqrt(gen.uniform(size=100)) * np.exp(2j * np.pi * gen.uniform(size=100))
    worst = 0.0
    for x in pts:
        for eps in (0.03, 0.01, 0.003, 0.001, 0.0003):
            got = green_regularized(x, x, eps) + math.log(eps)
            worst = max(worst, abs(got - 0.5 * math.log(poincare_density(x))))
    dt = time.time() - t0
    verdict(2, worst < 1e-12 and dt < 1.0, f"max deviation {worst:.2e} at 100 points x 5 radii in {dt:.2f}s")


def test_criterion_03_field_covariance_oracle():
    t0 = time.time()
    radii = 0.12 + 0.1 * np.arange(8)
    pts = np.concatenate(
        [r * np.exp(2j * np.pi * (np.arange(25) + 0.5) / 25) for r in radii]
    )
    assert len(pts) == 200
    sampler = FieldSampler(pts, 0.014)
    n_draws = 10000
    draws = sampler.draw_batch(n_draws, RngStream(103, 0))
    emp = draws @ draws.T / n_draws
    cov = sampler.covariance
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n_draws)
    zmax = float(np.max(np.abs(emp - cov) / se))
    dt = time.time() - t0
    verdict(3, zmax < 5.0 and dt < 120.0, f"max |z| {zmax:.2f} over 200x200 entries, {n_draws} draws, {dt:.1f}s")


def test_criterion_04_gmc_mean_masses():
    t0 = time.time()
    from tests_support import batched_boundary_totals

    grid = graded_disk_grid(7, 2, 2.0)
    sampler = FieldSampler(grid.centers, grid.eps)
    parts = []
    ok = True
    vals = sampler.draw_batch(1200, RngStream(104, 0))
    variances = np.diag(sampler.covariance)
    for g in (0.5, 1.0):
        w = grid.density_weights(g * g / 2.0)
        totals = (np.exp(g * vals - 0.5 * g * g * variances[:, None]) * w[:, None]).sum(axis=0)
        exact = math.pi / (1 - g * g / 2)
        z = (totals.mean() - exact) / (totals.std(ddof=1) / math.sqrt(len(totals)))
        ok &= abs(z) < 3.0
        parts.append(f"bulk g={g}: z={z:+.2f}")
    for g in (0.5, 1.0, 1.5):
        totals = batched_boundary_totals(g, 1024, 256, 3000, RngStream(104, int(10 * g)))
        exact = 2 * math.pi * math.exp(-g * g / 8)
        z = (totals.mean() - exact) / (totals.std(ddof=1) / math.sqrt(len(totals)))
        ok &= abs(z) < 3.0
        parts.append(f"bdry g={g}: z={z:+.2f}")
    dt = time.time() - t0
    verdict(4, ok and dt < 300.0, "; ".join(parts) + f" ({dt:.1f}s)")


def test_criterion_05_finiteness_large_gamma():
    t0 = time.time()
    medians = {}
    finite = True
    for depth, sid in ((7, 7), (8, 8)):
        grid = graded_disk_grid(depth, 2, 2.0)
        sampler = FieldSampler(grid.centers, grid.eps)
        vals = sampler.draw_batch(1000, RngStream(99, sid))
        variances = np.diag(sampler.covariance)
        w = grid.density_weights(1.8**2 / 2.0)
        totals = (np.exp(1.8 * vals - 0.5 * 1.8**2 * variances[:, None]) * w[:, None]).sum(axis=0)
        finite &= bool(np.all(np.isfinite(totals)))
        medians[depth] = float(np.median(totals))
    shift = abs(medians[8] / medians[7] - 1.0)
    dt = time.time() - t0
    verdict(
        5,
        finite and shift < 0.15 and dt < 600.0,
        f"all finite, median shift {shift:.1%} across refinement ({dt:.1f}s)",
    )


def test_criterion_06_gamma_volume_law():
    t0 = time.time()
    p = LiouvilleParams(gamma=GAMMA_83, mu=1.0, mu_boundary=0.0)
    ins = InsertionSet(params=p, bulk=((0.0, GAMMA_83),), boundary=((1.0, GAMMA_83),))
    basis = ChaosBasis(GAMMA_83, 300, RngStream(7, 100), depth=7)
    half = lambda pair: pair.bulk.integrate(
        lambda z: (np.real(z) > 0).astype(float)
    ) / pair.bulk.total
    draws = sample_liouville_triple(
        ins, 10000, RngStream(7, 555), basis=basis, functionals={"half": half}
    )
    ks = scipy.stats.kstest(draws["V"], "gamma", args=(0.25, 0.0, 1.0))
    corr = float(np.corrcoef(draws["V"], draws["half"])[0, 1])
    corr_bound = 3.0 / math.sqrt(len(draws["V"]))
    dt = time.time() - t0
    verdict(
        6,
        ks.pvalue > 0.01 and abs(corr) < corr_bound and dt < 900.0,
        f"KS p={ks.pvalue:.3f} vs Gamma(0.25, 1); |corr|={abs(corr):.4f} < {corr_bound:.4f} ({dt:.1f}s)",
    )


def test_criterion_07_kpz_covariance():
    t0 = time.time()
    gamma = 1.5
    p = LiouvilleParams(gamma=gamma, mu=1.0, mu_boundary=0.0)
    psi = MobiusMap(a=0.3, alpha=0.0)
    sets = {
        "A": InsertionSet(params=p, bulk=((0.55, 1.1), (-0.35 + 0.2j, 1.1))),
        "B": InsertionSet(params=p, bulk=((0.5j, 0.75), (-0.45, 0.75), (0.3 - 0.4j, 0.75))),
    }
    basis = ChaosBasis(gamma, 2000, RngStream(21, 1), depth=7)
    ok = True
    parts = []
    for name, ins in sets.items():
        dev, se = kpz_ratio_test(ins, psi, basis)
        ok &= abs(dev) < 3 * se
        parts.append(f"set {name}: dev={dev:+.4f} (3se={3 * se:.4f})")
    dt = time.time() - t0
    verdict(7, ok and dt < 1200.0, "; ".join(parts) + f" ({dt:.1f}s)")


def test_criterion_08_weyl_anomaly():
    t0 = time.time()
    p = LiouvilleParams(gamma=1.0, mu=1.0)
    n = 512
    base = ConformalFactor.constant(0.0, n, 2 * n)
    c = 0.8
    const_resid = abs(
        weyl_anomaly(ConformalFactor.constant(c, n, 2 * n), base, p)
        - (1 + 6 * p.Q**2) * c / 12.0
    )

    def phi1(z):
        return 0.3 * (1 - np.abs(z) ** 2) + 0.2 * np.real(z) * np.imag(z)

    def phi2(z):
        return -0.25 + 0.4 * np.real(z) ** 2 - 0.1 * np.imag(z) ** 3 + 0.15 * np.real(z)

    f1 = ConformalFactor.from_function(phi1, n, 2 * n)
    f2 = ConformalFactor.from_function(phi2, n, 2 * n)
    cocycle = abs(
        weyl_anomaly(f1 + f2, base, p)
        - weyl_anomaly(f1, base, p)
        - weyl_anomaly(f2, f1, p)
    )
    dt = time.time() - t0
    verdict(
        8,
        const_resid < 1e-8 and cocycle < 1e-6 and dt < 30.0,
        f"constant-shift residual {const_resid:.1e} (<1e-8), cocycle residual {cocycle:.1e} (<1e-6) ({dt:.1f}s)",
    )


def test_criterion_09_critical_seneta_heyde():
    t0 = time.time()
    ok = True
    parts = []
    # bulk: fixed window, scale ladder 2^-4 .. 2^-9
    levels = [4, 5, 6, 7, 8, 9]
    reps = [40000, 40000, 20000, 10000, 4000, 2000]
    pushed, plain = bulk_ladder_totals(levels, reps, RngStream(5150, 0))
    med_plain = np.array([np.median(t) for t in plain])
    mono = bool(np.all(np.diff(med_plain) < 0))
    ratios = median_ratios(pushed)[-3:]
    in_band = bool(np.all((ratios > 0.75) & (ratios < 1.33)))
    q_moms = np.array([np.mean(t**0.5) for t in pushed])
    q_ratios = q_moms[1:] / q_moms[:-1]
    q_stable = bool(np.all((q_ratios > 0.75) & (q_ratios < 1.33)))
    ok &= mono and in_band and q_stable
    parts.append(
        f"bulk: plain medians monotone={mono}, push last-3 ratios {np.round(ratios, 3)}, q=0.5 stable={q_stable}"
    )
    # boundary: mode-count ladder with shared coefficients
    modes = [64, 128, 256, 512, 1024, 2048]
    bpushed, bplain = boundary_ladder_totals(modes, 1000, RngStream(77, 0))
    bmono = bool(np.all(np.diff(np.median(bplain, axis=1)) < 0))
    bratios = median_ratios(bpushed)[-3:]
    b_in_band = bool(np.all((bratios > 0.75) & (bratios < 1.33)))
    bq = np.array([np.mean(t**0.5) for t in bpushed])
    bq_stable = bool(np.all((bq[1:] / bq[:-1] > 0.75) & (bq[1:] / bq[:-1] < 1.33)))
    ok &= bmono and b_in_band and bq_stable
    parts.append(
        f"boundary: plain medians monotone={bmono}, push last-3 ratios {np.round(bratios, 3)}, q=0.5 stable={bq_stable}"
    )
    dt = time.time() - t0
    verdict(9, ok and dt < 1200.0, "; ".join(parts) + f" ({dt:.1f}s)")


def test_criterion_10_quadrangulation_enumeration():
    t0 = time.time()
    pinned = count_exact(0, 1) == 1 and count_exact(1, 1) == 2
    integral = all(
        isinstance(count_exact(n, p), int) and (count_exact(n, p) > 0) == (n >= p - 1)
        for p in range(1, 21)
        for n in range(0, 201)
    )
    ratios = []
    for n in (10**4, 10**5, 10**6):
        p = math.isqrt(n)
        ratios.append(math.exp(log_count_asymptotic(n, p) - log_count_exact_certified(n, p)))
    errs = [abs(r - 1) for r in ratios]
    improving = errs[0] > errs[1] > errs[2]
    within = errs[2] < 0.02
    dt = time.time() - t0
    verdict(
        10,
        pinned and integral and improving and within and dt < 60.0,
        f"pinned values ok, integrality ok, ratio errors {[f'{e:.4f}' for e in errs]} ({dt:.1f}s)",
    )


def test_criterion_11_boltzmann_joint_density():
    t0 = time.time()
    coarse = BoltzmannConfig(a=0.25, mu=1.0, mu_boundary=1.0)
    zmax, n_cells = histogram_check(coarse, 100000, RngStream(2, 9))
    hist_ok = zmax < 3.0 and n_cells >= 10
    fine = BoltzmannConfig(a=0.01, mu=1.0, mu_boundary=1.0)
    report = joint_density_check(fine, 100000, RngStream(77, 1))
    dt = time.time() - t0
    verdict(
        11,
        hist_ok and report.p_value > 0.01 and dt < 300.0,
        f"exact-histogram max|z|={zmax:.2f} over {n_cells} cells; density chi2 p={report.p_value:.3f} "
        f"({report.n_in_range} draws in window, dof {report.dof}) ({dt:.1f}s)",
    )


def test_criterion_12_reproducibility(tmp_path):
    t0 = time.time()
    config = {"gamma": 1.0, "grid": {"n_r": 6}, "n_replicas": 64, "seed": 31}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    hashes = []
    for name, workers in (("w1", 1), ("w1b", 1), ("w2", 2)):
        args = ["gmc-bulk", "--config", str(cfg_path), "--out", str(tmp_path / name)]
        if workers != 1:
            args += ["--workers", str(workers)]
        assert cli.main(args) == 0
        hashes.append(io.sha256_file(str(tmp_path / name / "gmc-bulk" / "gmc-bulk.csv")))
    map_cfg = tmp_path / "maps.json"
    map_cfg.write_text(json.dumps({"a": 0.25, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 5000, "seed": 8}))
    mh = []
    for name in ("m1", "m2"):
        assert cli.main(["maps-sample", "--config", str(map_cfg), "--out", str(tmp_path / name)]) == 0
        mh.append(io.sha256_file(str(tmp_path / name / "maps-sample" / "maps-draws.csv")))
    same = hashes[0] == hashes[1] == hashes[2] and mh[0] == mh[1]
    dt = time.time() - t0
    verdict(12, same, f"gmc-bulk CSV identical across reruns and workers, maps draws identical ({dt:.1f}s)")
