"""Before/after records and output digests of a change: the one bench driver.

    python3 bench/run.py record --base <rev> --out BENCH_<n>.json [--scratch DIR]
    python3 bench/run.py digests --base <rev> [--scratch DIR]

Both run two sibling copies in a temporary directory under DIR: <tmp>/base from
`git archive <rev>` and <tmp>/head, the working tree as `git add -A` sees it.
Every run is a fresh process there, with 2 BLAS threads at most.  `digests`
prints the sha256 of every output file but `manifest.json` of the CONFIGS at
seeds 1 and 11 on both sides.  `record` runs those digests and tier-1 once per
side, then ROUNDS rounds, alternating which side goes first (ABBA), of
`perfbench/run.py --seed 101 --seconds 0 --trace 0` (one checked iteration of
every workload), the CALLS and the PROBES; it writes per side the median and
quartiles of every value, every digest and the line count of src/, and per head value
head_lower_rounds, the rounds in which the head read below the base.  Each end-to-end metric of a
perfbench workload is "resolved" unless the base's quartile spread exceeds its BENCHMARK.json bound
times the base median: a change of that size could not be told from noise; `record` prints the
unresolved ones.  Both exit 1 if a digest differs, and `record` also if a perfbench call fails its checks.

A probe is a function below that imports lqgdisk from the side's src/ and
returns {name: number}: a new layer needs one such function in PROBES.  Both
sides run this file's probes, so a probe may call only names that the base's
src/ also has; a name the change adds or renames fails the base's run.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import scipy

ROUNDS = 10  # ten alternating pairs: the fewest that can back a claimed gain
SIDES = ("base", "head")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PERFBENCH = ["perfbench/run.py", "--seed", "101", "--seconds", "0", "--trace", "0"]
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
SEED = 11
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CALLS = {
    "ladder_8_10": ("critical-ladder", {"kind": "bulk", "levels": [8, 9, 10], "n_replicas": [1000, 600, 500]}),
    "maps_density_a0.01": ("maps-density", {"a": 0.01, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 100000}),
    "ladder_boundary": ("critical-ladder", {"kind": "boundary"}),
}
GAMMA = 1.6329931618554518  # sqrt(8/3)
MARKED = {"gamma": GAMMA, "mu": 1.0, "mu_boundary": 0.0, "grid": {"n_r": 5}, "n_modes": 256, "n_replicas": 200,
          "n_draws": 2000, "insertions": [{"kind": "bulk", "position": [0.0, 0.0], "weight": GAMMA},
                                          {"kind": "boundary", "position": [1.0, 0.0], "weight": GAMMA}]}
# a run's name is its experiment, then an optional label: one config per experiment, the perfbench shapes
# of gmc-bulk and volume-law, volume-law at mu_b > 0 (the y quadrature and sampler), 4 arcs (1,024 modes
# folded onto 3 bins of the trace's half spectrum), a bulk ladder that reaches level-9 blocks, and a boundary
# ladder whose levels keep different replica counts
CONFIGS = {
    "green-selftest": {"n_samples": 2000},
    "field-sample": {"grid": {"n_r": 4}},
    "gmc-bulk": {"gamma": 1.0, "grid": {"n_r": 5}, "n_replicas": 500},
    "gmc-bulk depth-7": {"gamma": 1.0, "grid": {"n_r": 7, "rings_per_band": 2}, "n_replicas": 500},
    "gmc-boundary": {"gamma": 1.0, "n_modes": 256, "n_arcs": 128, "n_replicas": 500},
    "gmc-boundary few-arcs": {"gamma": 1.0, "n_modes": 1024, "n_arcs": 4, "n_replicas": 500},
    "critical-ladder": {"kind": "bulk", "levels": [4, 5, 6], "n_replicas": [2000, 1000, 500]},
    "critical-ladder levels 7-9": {"kind": "bulk", "levels": [7, 8, 9], "n_replicas": [400, 200, 100]},
    "critical-ladder boundary": {"kind": "boundary", "mode_levels": [64, 256, 1024], "n_replicas": [700, 300, 100]},
    "seiberg-validate": MARKED,
    "volume-law": MARKED,
    "volume-law mu_b": {**MARKED, "mu_boundary": 0.5},
    "volume-law depth-7": {**MARKED, "grid": {"n_r": 7, "rings_per_band": 2}, "n_modes": 1024,
                           "n_arcs": 256, "n_replicas": 400},
    "partition": {**MARKED, "mu_boundary": 0.5},
    "kpz-covariance": {**MARKED, "insertions": [{"kind": "bulk", "position": [0.4, 0.0], "weight": 1.5},
                                                {"kind": "bulk", "position": [-0.3, 0.2], "weight": 1.5}]},
    "weyl-anomaly": {"gamma": 1.0, "n_r": 64},
    "maps-count": {"n_max": 20, "p_max": 5},
    "maps-sample": {"a": 0.3, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 5000},
    "maps-density": {"a": 0.03, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 20000},
}


def _clock(out, key, fn, *args):
    """fn(*args), adding its seconds to out[key]."""
    t = time.perf_counter()
    result = fn(*args)
    out[key] = out.get(key, 0.0) + time.perf_counter() - t
    return result


def _peak_mb(fn, *args):
    """The tracemalloc peak of fn(*args), in MB."""
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return peak


def _seconds_and_peak(out, name, build):
    """out[name.s]: seconds of build(); out[name.peak_mb]: tracemalloc peak of a second build()."""
    _clock(out, f"{name}.s", build)
    out[f"{name}.peak_mb"] = _peak_mb(build)


def boltzmann_layers():
    """The Boltzmann sampler at a = 0.0125: its build, its row builds and their logsumexp apart, and sample; then
    the tracemalloc peaks of a second build, a second sample and a second joint_density_check of 100,000 draws."""
    from lqgdisk import maps
    from lqgdisk.gff import RngStream
    cfg, out = maps.BoltzmannConfig(a=0.0125, mu=1.0, mu_boundary=1.0), {}
    s = _clock(out, "sampler_build_s", maps.BoltzmannSampler, cfg)
    for p in range(1, cfg.p_max + 1):
        _clock(out, "logsumexp_s", maps._logsumexp, _clock(out, "row_build_s", s.log_weight_row, p))
    _clock(out, "sample_s", s.sample, 100000, RngStream(1, 0))
    out["sampler_build_peak_mb"] = _peak_mb(maps.BoltzmannSampler, cfg)
    out["sample_peak_mb"] = _peak_mb(s.sample, 100000, RngStream(1, 0))
    maps.joint_density_check(cfg, 100000, RngStream(1, 0))
    out["density_check_peak_mb"] = _peak_mb(maps.joint_density_check, cfg, 100000, RngStream(1, 0))
    return out


def ladder_layers():
    """SectorSampler builds at levels 4-10; the steps of the default ladder's level-9 blocks, as gff.circulant_fields
    and critical.bulk_ladder_totals take them (numpy alone, so both sides time the same steps), and the tracemalloc
    peak of one block's fields, over its noise where the side's SectorSampler.fields takes out; and the serial draw
    and coarsening of its noise (its worker's work)."""
    import inspect
    import math
    from lqgdisk import critical, gff
    from lqgdisk.gff import RngStream
    from lqgdisk.gmc import bulk_masses
    out, steps = {}, {}
    for k in range(4, 11):
        _seconds_and_peak(out, f"sector_build_level{k}", lambda: critical.SectorSampler(k))
    s = critical.SectorSampler(9)
    block = max(1, gff.BUILD_CHUNK // math.prod(s.noise_shape))
    weights, gen, starts = s.grid.density_weights(2.0), np.random.default_rng(1), range(0, 1500, block)

    def products(spec):  # a few eigenblocks at a time, each copied out as contiguous matrices and written back
        step = max(1, gff.BUILD_CHUNK // (16 * math.prod(spec.shape[:2])))
        for q in range(0, spec.shape[-1], step):
            chunk = np.ascontiguousarray(spec[:, :, q : q + step].transpose(2, 1, 0)).view(float)
            spec[:, :, q : q + step] = np.matmul(s._root[q : q + step], chunk).view(complex).transpose(2, 1, 0)

    for start in starts:
        noise = _clock(steps, "draw", gen.standard_normal, (min(block, 1500 - start), *s.noise_shape))
        spec = _clock(steps, "fft", np.fft.rfft, noise)
        _clock(steps, "products", products, spec)
        x = _clock(steps, "fft", lambda: np.fft.irfft(spec, n=noise.shape[-1], axis=-1, out=noise))
        _clock(steps, "masses", lambda: bulk_masses(x[:, :, : s.n_angles].reshape(len(x), -1), s.variances,
                                                    weights, 2.0).sum(axis=1))
    out["level9.block_replicas"] = block
    noise = gen.standard_normal((block, *s.noise_shape))
    over_noise = {"out": noise} if "out" in inspect.signature(s.fields).parameters else {}
    out["level9.fields_peak_mb"] = _peak_mb(lambda: s.fields(noise, **over_noise))
    out.update({f"level9.{key}_s_per_block": v / len(starts) for key, v in steps.items()})
    levels, counts = [4, 5, 6, 7, 8, 9], [20000, 20000, 10000, 5000, 2500, 1500]
    shapes = [critical.SectorSampler(k).noise_shape for k in levels]
    gen, r, t = RngStream(SEED, 0).generator(), 0, time.perf_counter()
    while r < max(counts):
        finest = max(i for i, n in enumerate(counts) if n > r)
        end = min(counts[finest], r + max(1, gff.BUILD_CHUNK // math.prod(shapes[finest])))
        noise = gen.standard_normal((end - r, *shapes[finest]))
        for i in range(finest, 0, -1):
            for _ in range(levels[i] - levels[i - 1]):
                noise = critical.coarsen_noise(noise)
        r = end
    out["draw_and_coarsen_s"] = time.perf_counter() - t
    return out


def chaos_builds():
    """Seconds and tracemalloc peaks of the chaos layer's four largest builds, the trace's with one 64-replica block;
    then the tracemalloc peaks of in-process gmc-bulk and partition runs at the depth-7 shapes of perfbench's
    chaos-replicas (640 replicas: the run peaks at the sampler build, before its replica loop) and marked-point."""
    from lqgdisk import cli, gff
    from lqgdisk.gmc import graded_disk_grid
    points = (np.linspace(-0.6, 0.6, 64)[:, None] + 1j * np.linspace(-0.6, 0.6, 64)).ravel()
    out = {}
    _seconds_and_peak(out, "rotation_sampler_depth7", lambda: gff.RotationSampler(graded_disk_grid(7)))
    _seconds_and_peak(out, "graded_disk_grid_depth8", lambda: graded_disk_grid(8))
    noise = np.random.default_rng(1).standard_normal((64, 2, 2048))
    _seconds_and_peak(out, "trace_sampler_2048_4096", lambda: gff.TraceSampler(2048, 4096).fields(noise))
    _seconds_and_peak(out, "check_averaging_circles_4096", lambda: gff.check_averaging_circles(points, 0.009))
    depth7 = {"grid": {"n_r": 7, "rings_per_band": 2}}
    out["gmc_bulk_depth7.peak_mb"] = _peak_mb(cli.run_gmc_bulk, {"gamma": 1.0, **depth7, "n_replicas": 640}, SEED)
    marked = {**MARKED, **depth7, "mu_boundary": 0.5, "n_modes": 1024, "n_arcs": 256, "n_replicas": 400,
              "method": "quadrature"}
    out["partition_depth7.peak_mb"] = _peak_mb(cli.run_partition, marked, SEED)
    return out


PROBES = (boltzmann_layers, ladder_layers, chaos_builds)
PROBE_CHILD = "import json, runpy, sys; print(json.dumps(runpy.run_path(sys.argv[1])[sys.argv[2]]()))"


def git(repo, *args, env=None):
    proc = subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True, text=True, env=env)
    return proc.stdout.strip()


def snapshot(repo, dest):
    """Write repo's working tree, as `git add -A` sees it, to dest: tracked and untracked files as on
    disk, not ignored or deleted ones.  Returns the git tree hash of its src/."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git(repo, "read-tree", "HEAD", env=env)
        git(repo, "add", "-A", env=env)
        git(repo, "checkout-index", "-a", f"--prefix={os.path.abspath(dest)}/", env=env)
        return git(repo, "write-tree", "--prefix=src/", env=env)


def src_lines(root):
    """Lines of the Python files under root/src, as `wc -l` counts them: the tracked src/ line count."""
    return sum(path.read_bytes().count(b"\n") for path in pathlib.Path(root, "src").rglob("*.py"))


def side_revisions(repo, base_sha, head_src, roots):
    """Per side, the commit, the git tree of its src/ and the line count of its copy's src/."""
    return {
        "base": {"commit": base_sha, "src_tree": git(repo, "rev-parse", f"{base_sha}:src"),
                 "src_lines": src_lines(roots["base"])},
        "head": {"parent_commit": git(repo, "rev-parse", "HEAD"), "src_tree": head_src,
                 "src_lines": src_lines(roots["head"])},
    }


def child_env(root, threads):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **{var: str(threads) for var in THREAD_VARS})


def timed(argv, root, env):
    """(wall s, CPU s, peak RSS MB, output) of one child process started in root; it must exit 0."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv} exited {os.waitstatus_to_exitcode(status)} in {root}:\n{out}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out


def cli_run(root, env, work, command, config, seed):
    """Output folder and (wall, CPU, peak RSS) of one `python -m lqgdisk.cli` run."""
    tag = os.path.join(work, f"seed{seed}-{command}")
    with open(tag + ".json", "w") as fh:
        json.dump(config, fh)
    argv = [sys.executable, "-m", "lqgdisk.cli", command, "--config", tag + ".json", "--seed", str(seed), "--out", tag]
    wall, cpu, rss, _ = timed(argv, root, env)
    return os.path.join(tag, command), {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digests(root, env, work):
    """{"seed <s> <run>/<file>": sha256} of every output file but manifest.json, CONFIGS at seeds 1 and 11."""
    found = {}
    for seed in (1, 11):
        for run, config in CONFIGS.items():
            folder, _ = cli_run(root, env, tempfile.mkdtemp(dir=work), run.split()[0], config, seed)
            for name in sorted(os.listdir(folder)):
                if name != "manifest.json":
                    found[f"seed {seed} {run}/{name}"] = sha256(os.path.join(folder, name))
    return found


def tier1(root, env):
    """Wall seconds and the pass/fail counts of the side's tier-1 tests."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped|x\w+)", last)}
    return {"wall_s": time.perf_counter() - t, "exit_code": proc.returncode, **counts}


def measure(root, env, work):
    """Every measurement of one side, once: ({metric: value}, {run: {file: sha256}})."""
    values, digests, workload = {}, {}, None
    for line in timed([sys.executable, *PERFBENCH], root, env)[3].splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("  digest "):
            digests.setdefault(f"perfbench {workload}", {})[line.split()[1]] = line.split()[2]
        elif line.startswith("{"):
            result = json.loads(line)
            values[f"perfbench.{workload}.failed"] = result["failed"]
            values.update({f"perfbench.{workload}.{k}": m["value"] for k, m in result["metrics"].items()})
    for name, (command, config) in CALLS.items():
        folder, run = cli_run(root, env, work, command, config, SEED)
        values.update({f"{name}.{k}": v for k, v in run.items()})
        digests[name] = {f: sha256(os.path.join(folder, f)) for f in sorted(os.listdir(folder)) if f.endswith(".csv")}
    for probe in PROBES:
        out = timed([sys.executable, "-c", PROBE_CHILD, os.path.abspath(__file__), probe.__name__], root, env)[3]
        values.update({f"{probe.__name__}.{k}": v for k, v in json.loads(out.splitlines()[-1]).items()})
    return values, digests


def round_order(r):
    """The sides in round r's order: the base first in even rounds, so the rounds run ABBA."""
    return SIDES if r % 2 == 0 else SIDES[::-1]


def abba_rounds(roots, measure, tmp, threads, rounds=ROUNDS):
    """measure(root, env, work) per side and round: per side, the value dicts and {run: {file: set of sha256}}."""
    runs, digests = {side: [] for side in SIDES}, {side: {} for side in SIDES}
    for r in range(rounds):
        for side in round_order(r):
            values, found = measure(roots[side], child_env(roots[side], threads), tempfile.mkdtemp(dir=tmp))
            runs[side].append(values)
            for run, files in found.items():
                for name, sha in files.items():
                    digests[side].setdefault(run, {}).setdefault(name, set()).add(sha)
            print(f"round {r} {side}: " + ", ".join(f"{k}={v:.3g}" for k, v in values.items()), flush=True)
    return runs, digests


def summarize(series):
    q1, median, q3 = np.percentile(series, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "runs": series}


def end_to_end_bounds():
    """{metric name: relative bound} of the benchmark's end-to-end metrics."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def make_record(command, revisions, threads, runs, digests, found, tiers):
    """The record of abba_rounds' (runs, digests), and per side the output digests and tier-1 counts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    environment = {  # what the timings and the digests depend on
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "threads": {var: str(threads) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }
    csv = {side: {run: {f: sorted(s) for f, s in files.items()} for run, files in digests[side].items()}
           for side in SIDES}
    metrics = {side: {k: summarize([v[k] for v in runs[side]]) for k in runs[side][0]} for side in SIDES}
    bounds = end_to_end_bounds()
    for key, metric in metrics["head"].items():  # rounds pair up in order, so round r's head meets its base
        base = metrics["base"][key]
        metric["head_lower_rounds"] = int(sum(h < b for h, b in zip(metric["runs"], base["runs"])))
        parts = key.split(".", 2)  # perfbench.<workload>.<metric>
        if parts[0] == "perfbench" and parts[-1] in bounds:
            metric["resolved"] = bool(base["q3"] - base["q1"] <= bounds[parts[-1]] * base["median"])
    return {
        "command": command, "revisions": revisions, "environment": environment, "rounds": len(runs["base"]),
        "metrics": metrics,
        "csv_sha256": csv, "csv_identical": csv["base"] == csv["head"],
        "digests": found, "tier1": tiers,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("record", "digests"))
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--out", help="JSON file the record is written to (record only)")
    parser.add_argument("--scratch", default=None, help="directory for both sides' copies and outputs")
    args = parser.parse_args(argv)
    if (args.command == "record") != (args.out is not None):
        parser.error("--out is required by record, and taken by it alone")
    repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
    threads, base_sha = min(2, len(os.sched_getaffinity(0))), git(repo, "rev-parse", args.base)
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}  # siblings, with names of one length
        os.makedirs(roots["base"])
        subprocess.run(f"git -C {repo} archive {base_sha} | tar -x -C {roots['base']}", shell=True, check=True)
        revisions = side_revisions(repo, base_sha, snapshot(repo, roots["head"]), roots)
        found = {side: output_digests(root, child_env(root, threads), tempfile.mkdtemp(dir=tmp))
                 for side, root in roots.items()}
        if args.command == "record":
            tiers = {side: tier1(root, child_env(root, threads)) for side, root in roots.items()}
            runs, digests = abba_rounds(roots, measure, tmp, threads)
    base, head = found["base"], found["head"]
    keys = sorted(set(base) | set(head))
    differ = [k for k in keys if base.get(k) is None or base.get(k) != head.get(k)]
    if args.command == "digests":
        print(f"file, base {args.base}, working tree:")
        for key in keys:
            print(key, base.get(key, "-"), head.get(key, "-"), "DIFFERS" if key in differ else "same")
        print(f"{len(keys)} files, {len(differ)} differ")
        return 1 if differ else 0
    # the scratch directory holds only the two copies and their outputs, so the command leaves it out
    command = f"python3 bench/run.py record --base {args.base} --out {args.out}"
    record = make_record(command, revisions, threads, runs, digests, found, tiers)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    unresolved = [key for key, metric in record["metrics"]["head"].items() if metric.get("resolved") is False]
    print(f"unresolved (base quartile spread above the bound): {', '.join(unresolved) or 'none'}")
    failed = any(any(m["runs"]) for side in SIDES for k, m in record["metrics"][side].items() if k.endswith(".failed"))
    return 1 if differ or failed or not record["csv_identical"] else 0


if __name__ == "__main__":
    sys.exit(main())
