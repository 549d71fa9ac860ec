"""Tests of the benchmark's own code, on its smoke mode.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload once at minimal counts with tracing (about half a
minute on two cores) and checks that every metric BENCHMARK.json names is
emitted with its unit, that the span self-times of each traced process sum
to no more than its wall time, and that the benchmark refuses to run, or
to compare, where it must.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace", "1", "--seed", str(SEED)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    records = {}
    for name in workloads.WORKLOADS:
        path = os.path.join(ROOT, run.STATE_DIR, "results", f"{name}-seed{SEED}-trace1-smoke.json")
        with open(path) as fh:
            records[name] = json.load(fh)
    return lines, records


def test_workloads_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_runs_are_correct(smoke):
    lines, records = smoke
    assert len(lines) == len(workloads.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_every_per_layer_metric_is_emitted_with_its_unit(smoke):
    lines, _ = smoke
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for line in lines:
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_every_end_to_end_metric_is_emitted_with_its_unit(smoke):
    _, records = smoke
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for record in records.values():
        assert record["end_to_end"]["failed_share"]["value"] == 0.0
        assert record["end_to_end"]["setup_s"]["n"] >= 2
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.report(dict(record, trace=0))
        line = json.loads(out.getvalue().splitlines()[-1])
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(v["value"] > 0.0 for v in line["metrics"].values())


def test_span_self_times_fit_in_the_wall_time(smoke):
    _, records = smoke
    for name, record in records.items():
        traces = record["iterations"][-1]["traces"]
        assert traces, name
        for k, summary in enumerate(traces):
            assert 0.0 < summary["self_sum_s"] <= summary["wall_s"], name
            spans_path = os.path.join(
                ROOT, run.STATE_DIR, "results", f"{name}-seed{SEED}-trace1-smoke-spans-{k}.jsonl"
            )
            with open(spans_path) as fh:
                spans = [json.loads(line) for line in fh]
            assert len(spans) == summary["n_spans"]
            child = [0.0] * len(spans)
            for _, t0, t1, parent in spans:
                assert t1 >= t0
                if parent >= 0:
                    child[parent] += t1 - t0
            self_sum = sum(t1 - t0 - child[i] for i, (_, t0, t1, _) in enumerate(spans))
            assert self_sum <= summary["wall_s"]


def test_from_imports_are_traced(smoke):
    _, records = smoke
    layers = records["field-ladder"]["per_layer"]
    # critical binds FieldSampler and window_sector_grid with `from` imports
    assert layers["gff.factorizations"]["value"] == 6
    assert layers["gff.factor_reuse"]["value"] == 0.5
    assert layers["gmc.grid_points"]["value"] > 0
    marked = records["marked-point"]["per_layer"]
    # liouville binds green with a `from` import
    assert marked["geometry.green_calls"]["value"] > 0
    assert marked["liouville.drift_factor_calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boltzmann", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_refuses_to_compare_different_environments(smoke):
    _, records = smoke
    base = records["boltzmann"]
    assert compare.comparable(base, base) == []
    other = json.loads(json.dumps(base))
    other["env"]["git_sha"] = "another commit"
    assert compare.comparable(base, other) == []
    other["env"]["threads"]["OPENBLAS_NUM_THREADS"] = "64"
    assert compare.comparable(base, other)
