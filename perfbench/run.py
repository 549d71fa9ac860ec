"""End-to-end benchmark of the lqgdisk command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--trace 0|1] [--seed N]

Without --workload every workload runs, one after another.

Run from the root of a source checkout; the package is imported from
./src.  Each workload (see workloads.py) is a fixed sequence of CLI
experiments.  One iteration runs every experiment of the workload in a
fresh process through `lqgdisk.cli.main`, with `--workers 1` and
workloads.BLAS_THREADS BLAS threads (never more than the CPUs available).
Iterations repeat while the next one is expected to end within S seconds
(at least one runs); a few extra processes only import `lqgdisk.cli`, to
sample set-up time.  The experiment seed is N.

--trace 0 reports the end-to-end metrics, medians over iterations:
  wall_s       launch-to-exit seconds, summed over the iteration's processes
  setup_s      launch until `import lqgdisk.cli` returns, per process
  cpu_s        user + system CPU seconds, summed over the iteration
  peak_rss_mb  largest peak resident set of the iteration's processes
and failed_share, the failed calls over attempted calls (printed only: it
is 0 on a correct program, and the result line carries it as failed/attempted).

--trace 1 runs one untraced iteration, then one traced iteration (spans
from tracing.py), and reports the per-layer metrics, including
trace.overhead_s = traced wall minus the untraced wall.

Every call's outputs are checked (workloads.py); a digest of every output
CSV is printed and compared across the iterations of the run, so a run is
also a byte-reproducibility check.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  A record with all
samples and the environment is written under .perfbench/results/, for
compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy
import scipy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
STATE_DIR = ".perfbench"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 2
RUN_DEADLINE_S = 170.0  # hard limit for one run; a call still running then is killed
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Failure(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(root, threads):
    """Everything byte-identity and timings depend on, besides the hardware."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "source_sha256": source_digest(os.path.join(root, "src")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: str(threads) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one process
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root, workdir, threads, deadline):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.n_procs = 0
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src
        self.env["PERFBENCH_SRC"] = src
        for var in THREAD_VARS:
            self.env[var] = str(threads)

    def process(self, child_args, cli_args):
        """Run child.py once; returns (wall s, cpu s, peak rss MB, rc, record or None)."""
        self.n_procs += 1
        tag = os.path.join(self.workdir, f"p{self.n_procs:04d}")
        record_path = tag + ".record.json"
        argv = [sys.executable, CHILD, record_path, *child_args, "--", *cli_args]
        with open(tag + ".log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        record = None
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
            record["setup_s"] = record["setup_done"] - t0
        if rc != 0:
            with open(tag + ".log") as fh:
                tail = fh.read()[-2000:]
            print(f"process {' '.join(cli_args[:1])} exited with {rc}:\n{tail}", file=sys.stderr)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, rc, record

    def setup_probe(self):
        wall, cpu, rss, rc, record = self.process(["--setup-only"], [])
        if rc != 0 or record is None:
            raise Failure("a set-up probe could not import lqgdisk.cli from ./src")
        return record["setup_s"]


# ---------------------------------------------------------------------------
# one iteration of a workload
# ---------------------------------------------------------------------------

def run_iteration(runner, calls, seed, trace, results_prefix):
    it = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setup": [], "calls": [], "traces": []}
    for k, (experiment, config) in enumerate(calls):
        base = os.path.join(runner.workdir, f"it{runner.n_procs:04d}-{k}")
        os.makedirs(base)
        cfg_path = base + ".json"
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        child_args = ["--trace", f"{results_prefix}-spans-{k}.jsonl"] if trace else []
        cli_args = [experiment, "--config", cfg_path, "--seed", str(seed), "--workers", "1", "--out", base]
        wall, cpu, rss, rc, record = runner.process(child_args, cli_args)
        it["wall_s"] += wall
        it["cpu_s"] += cpu
        it["peak_rss_mb"] = max(it["peak_rss_mb"], rss)
        problems, digest, info = [f"{experiment}: exit code {rc}"], None, {}
        if rc == 0 and record is not None:
            try:
                problems, digest, info = workloads.check_call(experiment, os.path.join(base, experiment))
            except (KeyError, TypeError, ValueError, OSError) as exc:
                problems = [f"{experiment}: outputs could not be checked: {exc!r}"]
            it["setup"].append(record["setup_s"])
            if trace:
                summary = record["trace"]
                summary["wall_s"] = wall
                summary["self_sum_s"] = sum(r["self_s"] for r in summary["spans"].values())
                it["traces"].append(summary)
        it["calls"].append({"experiment": experiment, "wall_s": wall, "rc": rc, "problems": problems, "digest": digest, **info})
        shutil.rmtree(base, ignore_errors=True)
    return it


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(root, workload, seed, seconds, trace, smoke=False):
    t_start = time.monotonic()
    threads = min(workloads.BLAS_THREADS, len(os.sched_getaffinity(0)))
    calls = workload.smoke_calls if smoke else workload.calls
    state = os.path.join(root, STATE_DIR)
    results = os.path.join(state, "results")
    os.makedirs(results, exist_ok=True)
    workdir = os.path.join(state, f"work-{os.getpid()}-{workload.name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    prefix = os.path.join(results, f"{workload.name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}")
    runner = Runner(root, workdir, threads, t_start + RUN_DEADLINE_S)
    try:
        env = environment(root, threads)
        setup = [runner.setup_probe() for _ in range(1 if smoke else SETUP_PROBES)]
        iterations = []
        t_meas = time.monotonic()
        while True:
            iterations.append(run_iteration(runner, calls, seed, False, prefix))
            elapsed = time.monotonic() - t_meas
            if smoke or trace or elapsed * (1.0 + 1.0 / len(iterations)) > seconds:
                break
        traced = run_iteration(runner, calls, seed, True, prefix) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    everything = iterations + ([traced] if traced else [])
    for it in everything:
        setup += it["setup"]
    calls_made = [c for it in everything for c in it["calls"]]
    reference = [c["digest"] for c in iterations[0]["calls"]]
    for it in everything[1:]:
        for call, ref in zip(it["calls"], reference):
            if call["digest"] != ref and not call["problems"]:
                call["problems"].append(f"{call['experiment']}: outputs differ from the first iteration")
    failed = sum(1 for c in calls_made if c["problems"])
    samples = {key: [it[key] for it in iterations] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup
    end_to_end = {
        name: {"value": statistics.median(samples[name]), "unit": unit, "n": len(samples[name])}
        for name, unit in END_TO_END_UNITS.items()
    }
    end_to_end["failed_share"] = {"value": failed / len(calls_made), "unit": "ratio", "n": len(calls_made)}
    per_layer = {}
    if traced:
        per_layer = {
            name: {"value": value, "unit": unit, "n": 1}
            for name, (value, unit) in tracing.layer_metrics(traced["traces"]).items()
        }
        per_layer["trace.overhead_s"] = {
            "value": traced["wall_s"] - end_to_end["wall_s"]["value"],
            "unit": "s",
            "n": 1,
        }
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "env": env,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": samples,
        "iterations": [{k: v for k, v in it.items() if k != "setup"} for it in everything],
        "attempted": len(calls_made),
        "failed": failed,
        "digests": {c["experiment"]: c["digest"] for c in iterations[0]["calls"]},
        "run_s": time.monotonic() - t_start,
    }
    with open(prefix + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def report(result):
    """Human-readable lines, then the result line."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"iterations {len(result['iterations'])}  run {result['run_s']:.1f} s")
    rows = dict(result["end_to_end"], **result["per_layer"])
    for name, m in rows.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")
    for call in (c for it in result["iterations"] for c in it["calls"]):
        for problem in call["problems"]:
            print(f"  FAILED {problem}")
    for experiment, digest in result["digests"].items():
        print(f"  digest {experiment} {digest}")
    print("  env " + json.dumps(result["env"], sort_keys=True))
    chosen = result["per_layer"] if result["trace"] else {
        k: v for k, v in result["end_to_end"].items() if k in END_TO_END_UNITS
    }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()},
    }
    print(json.dumps(line), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, at minimal counts")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lqgdisk", "cli.py")):
        print("run from the root of an lqgdisk checkout: src/lqgdisk/cli.py is missing", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        for name in names:
            report(run_workload(root, workloads.WORKLOADS[name], args.seed, args.seconds, args.trace, args.smoke))
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
