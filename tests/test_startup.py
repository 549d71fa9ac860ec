"""Start-up cost and BLAS thread count, each checked in fresh interpreters."""

import json
import os
import subprocess
import sys

import numpy as np

import lqgdisk

SRC = os.path.dirname(os.path.dirname(lqgdisk.__file__))

# imports the package, then runs `lqgdisk.cli.main` on each argv of sys.argv[1]; prints
# the scipy modules loaded after the import and after the runs, and the exit codes
SCIPY_PROBE = """
import json, sys
import lqgdisk, lqgdisk.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
codes = [lqgdisk.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"after_import": after_import, "after_runs": scipy_modules(), "codes": codes}))
"""

GAMMA = 1.6329931618554518
MARKED = {
    "gamma": GAMMA,
    "mu_boundary": 0.5,
    "insertions": [
        {"kind": "bulk", "position": [0.0, 0.0], "weight": GAMMA},
        {"kind": "boundary", "position": [1.0, 0.0], "weight": GAMMA},
    ],
    "grid": {"n_r": 4},
    "n_modes": 64,
    "n_replicas": 100,
}

NUMPY_ONLY_RUNS = {
    "gmc-bulk": {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 20},
    "gmc-boundary": {"gamma": 1.0, "n_modes": 64, "n_replicas": 20},
    "critical-ladder": {"kind": "bulk", "levels": [4, 5], "n_replicas": [100, 50]},
    # the Cholesky factor, and its eigh fallback, from numpy.linalg
    "field-sample": {"grid": {"n_r": 4}},
    # the zero-mode quadrature route (mu_boundary > 0)
    "volume-law": {**MARKED, "n_draws": 500},
    "partition": MARKED,
    # log-gamma and the chi-square tail from the math module
    "maps-sample": {"a": 0.25, "n_draws": 500},
    "maps-density": {"a": 0.03, "n_draws": 20000},
}


def run_python(code, args=(), **env):
    """stdout of `python -c code args` in a fresh interpreter that imports lqgdisk from SRC."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def cli_argv(tmp_path, command, config, seed, outname):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    return [command, "--config", str(cfg_path), "--seed", str(seed), "--out", str(tmp_path / outname)]


def test_numpy_experiments_load_no_scipy(tmp_path):
    argvs = [cli_argv(tmp_path, c, cfg, 1, "out") for c, cfg in NUMPY_ONLY_RUNS.items()]
    lines = run_python(SCIPY_PROBE, [json.dumps(argvs)]).splitlines()
    probe = json.loads(lines[-1])
    assert probe["codes"] == [0] * len(NUMPY_ONLY_RUNS)
    assert probe["after_import"] == []
    assert probe["after_runs"] == []


def test_cli_import_loads_no_thread_pool():
    # the thread users (maps._thread_map, critical.bulk_ladder_totals) import them inside the call
    loaded = json.loads(run_python("import json, sys, lqgdisk.cli; print(json.dumps(sorted(sys.modules)))"))
    assert "concurrent.futures" not in loaded and "logging" not in loaded


def masked_arrays_loaded(tmp_path, command):
    """[exit code, whether numpy.ma is loaded] after the NUMPY_ONLY_RUNS run of command in a fresh interpreter."""
    argv = cli_argv(tmp_path, command, NUMPY_ONLY_RUNS[command], 1, "out")
    code = ("import json, sys, lqgdisk.cli; rc = lqgdisk.cli.main(sys.argv[1:]); "
            "print(json.dumps([rc, 'numpy.ma' in sys.modules]))")
    return json.loads(run_python(code, argv).splitlines()[-1])


def test_critical_ladder_loads_no_masked_arrays(tmp_path):
    # np.median imports numpy.ma for its NaN check; the ladder's medians come from critical.median
    assert masked_arrays_loaded(tmp_path, "critical-ladder") == [0, False]


def test_maps_density_loads_no_masked_arrays(tmp_path):
    # np.quantile and np.unique import numpy.ma; the density bins come from maps._quantiles and maps._unique
    assert masked_arrays_loaded(tmp_path, "maps-density") == [0, False]


def test_replica_totals_bounded_across_blas_thread_counts(tmp_path):
    # depth 7 (2,274 points): at these shapes the eigenblock products of
    # gff.circulant_fields round differently on one and two OpenBLAS threads
    config = {"gamma": 1.0, "grid": {"n_r": 7}, "n_replicas": 64}
    totals = []
    for threads in ("1", "2"):
        argv = cli_argv(tmp_path, "gmc-bulk", config, 3, f"threads-{threads}")
        run_python(
            "import sys, lqgdisk.cli; sys.exit(lqgdisk.cli.main(sys.argv[1:]))",
            argv,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        csv = tmp_path / f"threads-{threads}" / "gmc-bulk" / "gmc-bulk.csv"
        totals.append(np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1])
    one, two = totals
    assert one.shape == two.shape == (64,)
    np.testing.assert_allclose(two, one, rtol=1e-14, atol=0.0)
