"""Before/after timings of the Boltzmann ensemble: the command that wrote BENCH_16.json and BENCH_18.json.

    python3 bench/boltzmann.py --base <git rev> --out BENCH_<n>.json [--scratch DIR]

Compares the source at `--base` (unpacked with `git archive` into a temporary
directory under DIR) with the working tree of this repository.  Ten rounds
alternate the two sides, in ABBA order; every measurement runs in a fresh
Python process with 2 BLAS threads.  For each side the record holds the
median and quartiles over the rounds of:

- `lqgdisk maps-density` end to end at a = 0.0125 (the perfbench `boltzmann`
  config) and at a = 0.01: wall seconds, CPU seconds and peak RSS, with the
  sha256 of every CSV it writes;
- the layers at a = 0.0125, in one process: the `BoltzmannSampler` build, the
  row builds and the logsumexp of every row (timed apart), and `sample`;
- `lqgdisk validate` on {"a": a, "command": "maps-density"} at both meshes;
- the pytest call durations of acceptance criterion 11 and of
  `TestTablePath::test_acceptance_config_rows`.

It also records the CSV digests of the acceptance-12 `maps-sample` run, the
numpy, scipy and BLAS versions, the thread settings and the git revisions.
At a base whose `maps` has no `_logsumexp`, the layers time the
`scipy.special.logsumexp` that the rows were summed with there.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

ROUNDS = 10  # ten alternating pairs: the fewest that can back a claimed gain
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
DENSITY = {"a0.0125": 0.0125, "a0.01": 0.01}
PYTESTS = {
    "acceptance_11": "tests/test_acceptance.py::test_criterion_11_boltzmann_joint_density",
    "table_rows": "tests/test_maps.py::TestTablePath::test_acceptance_config_rows",
}
LAYERS = r"""
import json, time
from lqgdisk import maps
from lqgdisk.gff import RngStream
lse = getattr(maps, "_logsumexp", None)
if lse is None:
    import scipy.special
    lse = scipy.special.logsumexp
cfg = maps.BoltzmannConfig(a=0.0125, mu=1.0, mu_boundary=1.0)
t = time.perf_counter()
s = maps.BoltzmannSampler(cfg)
build = time.perf_counter() - t
rows = sums = 0.0
for p in range(1, cfg.p_max + 1):
    t = time.perf_counter()
    row = s.log_weight_row(p)
    t1 = time.perf_counter()
    lse(row)
    rows, sums = rows + t1 - t, sums + time.perf_counter() - t1
t = time.perf_counter()
s.sample(100000, RngStream(1, 0))
print(json.dumps({"sampler_build_s": build, "row_build_s": rows, "logsumexp_s": sums,
                  "sample_s": time.perf_counter() - t}))
"""


def git(*args, env=None):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True, env=env).stdout.strip()


def working_tree_of(path):
    """Git tree hash of the working copy of `path`: `git rev-parse <commit>:<path>` once committed."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", path, env=env)
        return git("write-tree", f"--prefix={path}/", env=env)


def child_env(root, threads):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def timed(argv, root, env):
    """(wall s, CPU s, peak RSS MB, stdout) of one child process; it must exit 0."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode} in {root}:\n{out}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out


def cli_run(root, env, work, command, config, seed, launcher=("-m", "lqgdisk.cli")):
    """Timing and CSV digests of one `lqgdisk <command>` run, started as `python <launcher> <args>`."""
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    outdir = os.path.join(work, "out")
    argv = [sys.executable, *launcher, command, "--config", cfg_path, "--out", outdir]
    if seed is not None:
        argv += ["--seed", str(seed)]
    wall, cpu, rss, _ = timed(argv, root, env)
    digests = {}
    if command != "validate":
        with open(os.path.join(outdir, command, "manifest.json")) as fh:
            files = json.load(fh)["files"]
        digests = {f["name"]: f["sha256"] for f in files if f["name"].endswith(".csv")}
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, digests


def one_round(side, root, env, work):
    """Every measurement of one side, once: ({metric: value}, {run: CSV digests})."""
    values, digests = {}, {}
    for name, a in DENSITY.items():
        config = {"a": a, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 100000}
        run, digests[f"maps-density {name}"] = cli_run(root, env, work, "maps-density", config, 1)
        values.update({f"maps_density_{name}.{k}": v for k, v in run.items()})
        run, _ = cli_run(root, env, work, "validate", {"a": a, "command": "maps-density"}, None)
        values[f"validate_{name}.wall_s"] = run["wall_s"]
    layers = json.loads(timed([sys.executable, "-c", LAYERS], root, env)[3].strip().splitlines()[-1])
    values.update({f"layers_a0.0125.{k}": v for k, v in layers.items()})
    for name, node in PYTESTS.items():
        out = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node], root, env)[3]
        values[f"pytest.{name}_s"] = float(re.search(rf"([\d.]+)s call\s+{re.escape(node)}", out).group(1))
    acc12 = {"a": 0.25, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 5000, "seed": 8}
    digests["maps-sample acceptance-12"] = cli_run(root, env, work, "maps-sample", acc12, None)[1]
    return values, digests


def summarize(series):
    q1, med, q3 = np.percentile(series, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "runs": series}


def abba_rounds(sides, measure, tmp, threads):
    """ROUNDS rounds of measure(side, root, env, work) on each side, in ABBA order.

    measure returns ({metric: value}, {run: {csv name: sha256}}).  Returns
    (runs, digests): per side, the list of value dicts and, per run and
    CSV, the set of digests seen.
    """
    runs = {side: [] for side in sides}
    digests = {side: {} for side in sides}
    for r in range(ROUNDS):
        for side in (("base", "head") if r % 2 == 0 else ("head", "base")):
            work = tempfile.mkdtemp(dir=tmp)
            values, found = measure(side, sides[side], child_env(sides[side], threads), work)
            runs[side].append(values)
            for run, files in found.items():
                for name, sha in files.items():
                    digests[side].setdefault(run, {}).setdefault(name, set()).add(sha)
            print(f"round {r} {side}: " + ", ".join(f"{k}={v:.2f}" for k, v in values.items()), flush=True)
    return runs, digests


def environment(threads):
    """The numerical environment that the timings and the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: str(threads) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def compare(script, doc, measure, argv=None):
    """Parse --base/--out/--scratch, run abba_rounds of measure on the base and the working tree, write the record."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--scratch", default=None, help="directory for the base checkout and run outputs")
    args = parser.parse_args(argv)
    repo = git("rev-parse", "--show-toplevel")
    os.chdir(repo)
    threads = min(2, len(os.sched_getaffinity(0)))
    base_sha = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        base_root = os.path.join(tmp, "base")
        os.makedirs(base_root)
        subprocess.run(f"git archive {base_sha} | tar -x -C {base_root}", shell=True, check=True)
        sides = {"base": base_root, "head": repo}
        runs, digests = abba_rounds(sides, measure, tmp, threads)
    record = {
        # the scratch directory holds only the base checkout and outputs, so the command leaves it out
        "command": f"python3 {script} --base {args.base} --out {args.out}",
        "revisions": {
            "base": {"commit": base_sha, "src_tree": git("rev-parse", f"{base_sha}:src")},
            "head": {"parent_commit": git("rev-parse", "HEAD"), "src_tree": working_tree_of("src")},
        },
        "environment": environment(threads),
        "rounds": ROUNDS,
        "metrics": {
            side: {k: summarize([v[k] for v in runs[side]]) for k in runs[side][0]} for side in sides
        },
        "csv_sha256": {
            side: {run: {name: sorted(s) for name, s in files.items()} for run, files in digests[side].items()}
            for side in sides
        },
    }
    # runs made on one side only (the working tree's extras) have nothing to match
    base, head = record["csv_sha256"]["base"], record["csv_sha256"]["head"]
    record["csv_identical"] = all(head.get(run) == files for run, files in base.items())
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    compare("bench/boltzmann.py", __doc__, one_round, argv)


if __name__ == "__main__":
    main()
