"""Output digests of every experiment at a git revision and in the working tree.

    python3 bench/digests.py --base <git rev> [--scratch DIR]

Unpacks `--base` with `git archive` into a temporary directory under DIR and
runs one fixed config of each of the 13 experiments (CONFIGS), the perfbench
shapes of `gmc-bulk` (depth 7) and `volume-law` (400 replicas), and
`gmc-boundary` on 4 arcs (small trace products, whose BLAS kernel can
depend on the replica block), at seeds 1 and 11, on that checkout and on
the working tree of this repository.  Every run is a fresh
`python -m lqgdisk.cli` process with 2 BLAS threads (never more than the
CPUs available), through the `timed` and `child_env` helpers of
bench/boltzmann.py.  It prints the sha256 of every output file except
`manifest.json` (which records wall seconds), base and working tree side by
side, and exits 1 if any file differs or exists on one side only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

from boltzmann import child_env, git, timed

SEEDS = (1, 11)
GAMMA = 1.6329931618554518  # sqrt(8/3)
MARKED = {
    "gamma": GAMMA,
    "mu": 1.0,
    "mu_boundary": 0.0,
    "insertions": [
        {"kind": "bulk", "position": [0.0, 0.0], "weight": GAMMA},
        {"kind": "boundary", "position": [1.0, 0.0], "weight": GAMMA},
    ],
    "grid": {"n_r": 5},
    "n_modes": 256,
    "n_replicas": 200,
    "n_draws": 2000,
}
KPZ_INSERTIONS = [
    {"kind": "bulk", "position": [0.4, 0.0], "weight": 1.5},
    {"kind": "bulk", "position": [-0.3, 0.2], "weight": 1.5},
]
# a run's name is its experiment, then an optional label
CONFIGS = {
    "green-selftest": {"n_samples": 2000},
    "field-sample": {"grid": {"n_r": 4}},
    "gmc-bulk": {"gamma": 1.0, "grid": {"n_r": 5}, "n_replicas": 500},
    "gmc-bulk depth-7": {"gamma": 1.0, "grid": {"n_r": 7, "rings_per_band": 2}, "n_replicas": 500},
    "gmc-boundary": {"gamma": 1.0, "n_modes": 256, "n_arcs": 128, "n_replicas": 500},
    "gmc-boundary few-arcs": {"gamma": 1.0, "n_modes": 1024, "n_arcs": 4, "n_replicas": 500},
    "critical-ladder": {"kind": "bulk", "levels": [4, 5, 6], "n_replicas": [2000, 1000, 500]},
    "seiberg-validate": MARKED,
    "volume-law": MARKED,
    "volume-law depth-7": {**MARKED, "grid": {"n_r": 7, "rings_per_band": 2}, "n_modes": 1024, "n_arcs": 256, "n_replicas": 400},
    "partition": {**MARKED, "mu_boundary": 0.5},
    "kpz-covariance": {**MARKED, "insertions": KPZ_INSERTIONS},
    "weyl-anomaly": {"gamma": 1.0, "n_r": 64},
    "maps-count": {"n_max": 20, "p_max": 5},
    "maps-sample": {"a": 0.3, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 5000},
    "maps-density": {"a": 0.03, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 20000},
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(root, work, threads):
    """{"seed <s> <run>/<file>": sha256} of every output file but manifest.json, run from root."""
    env, found = child_env(root, threads), {}
    for seed in SEEDS:
        for run, config in CONFIGS.items():
            command, tag = run.split()[0], run.replace(" ", "-")
            cfg_path = os.path.join(work, f"{tag}.json")
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            out = os.path.join(work, f"seed{seed}", tag)
            argv = [sys.executable, "-m", "lqgdisk.cli", command, "--config", cfg_path, "--seed", str(seed), "--out", out]
            timed(argv, root, env)
            folder = os.path.join(out, command)
            for name in sorted(os.listdir(folder)):
                if name != "manifest.json":
                    found[f"seed {seed} {run}/{name}"] = sha256(os.path.join(folder, name))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--scratch", default=None, help="directory for the base checkout and run outputs")
    args = parser.parse_args(argv)
    repo = git("rev-parse", "--show-toplevel")
    threads = min(2, len(os.sched_getaffinity(0)))
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        base_root = os.path.join(tmp, "base")
        os.makedirs(base_root)
        subprocess.run(f"git -C {repo} archive {git('rev-parse', args.base)} | tar -x -C {base_root}", shell=True, check=True)
        sides = []
        for name, root in (("base", base_root), ("head", repo)):
            work = os.path.join(tmp, f"{name}-out")
            os.makedirs(work)
            sides.append(digests(root, work, threads))
    base, head = sides
    mismatches = 0
    keys = sorted(set(base) | set(head), key=lambda k: (int(k.split()[1]), k))
    width = max(map(len, keys))
    print(f"{'file':{width}s} {'base ' + args.base:64s} working tree")
    for key in keys:
        same = base.get(key) is not None and base.get(key) == head.get(key)
        mismatches += not same
        print(f"{key:{width}s} {base.get(key, '-'):64s} {head.get(key, '-'):64s} {'same' if same else 'DIFFERS'}")
    print(f"{len(keys)} files, {mismatches} differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
