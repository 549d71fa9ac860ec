"""The before/after driver bench/run.py, without starting a benchmark process."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

from lqgdisk import cli, critical, gff, maps

DRIVER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
WORKLOADS = DRIVER.parents[1] / "perfbench" / "workloads.py"
SCHEMA = ("command", "revisions", "environment", "rounds", "metrics", "csv_sha256", "csv_identical", "digests", "tier1")


def load_driver():
    spec = importlib.util.spec_from_file_location("bench_run", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rounds_run_abba():
    run = load_driver()
    order = [side for r in range(4) for side in run.round_order(r)]
    assert order == ["base", "head", "head", "base", "base", "head", "head", "base"]


def test_every_benchmark_config_validates(monkeypatch):
    # a config rule that refused one of these would make the benchmark's runs exit 2, and no other test runs them
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    perfbench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, perfbench)  # where its dataclass looks its module up
    spec.loader.exec_module(perfbench)
    run = load_driver()
    calls = [call for w in perfbench.WORKLOADS.values() for call in (*w.calls, *w.smoke_calls)]
    calls += [*run.CALLS.values(), *((name.split()[0], config) for name, config in run.CONFIGS.items())]
    for command, config in calls:
        assert cli.validate(config, command) == [], (command, config)


def test_named_library_attributes_exist():
    # a probe that names a removed attribute fails only when `record` runs it, after the digests and tier-1
    text = DRIVER.read_text()
    for module in (critical, gff, maps):
        name = module.__name__.rsplit(".", 1)[1]
        named = set(re.findall(rf"\b{name}\.(\w+)", text))
        assert named and [attr for attr in named if not hasattr(module, attr)] == [], name


def committed_repo(repo, files):
    """A throwaway git repository at repo with files {path: text} in one commit; returns its git argv."""
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "seed"], check=True)
    return git


def test_snapshot_holds_the_working_tree_as_git_add_sees_it(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "head"
    git = committed_repo(repo, {".gitignore": "ignored.txt\n", "src/kept.py": "x = 1\n", "deleted.txt": "gone\n"})
    (repo / "deleted.txt").unlink()
    (repo / "ignored.txt").write_text("ignored\n")
    (repo / "src" / "untracked.py").write_text("y = 2\n")
    (repo / "src" / "kept.py").write_text("x = 3\n")

    src_tree = load_driver().snapshot(str(repo), str(dest))

    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/untracked.py"]
    assert (dest / "src" / "kept.py").read_text() == "x = 3\n"
    committed = subprocess.run([*git, "rev-parse", "HEAD:src"], capture_output=True, text=True).stdout.strip()
    assert len(src_tree) == 40 and src_tree != committed


def test_revisions_hold_each_sides_src_line_count(tmp_path):
    run, repo = load_driver(), tmp_path / "repo"
    committed_repo(repo, {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/notes.txt": "not code\n", "run.py": "z = 0\n"})
    (repo / "src" / "pkg" / "b.py").write_text("z = 3\n")
    roots = {side: str(tmp_path / side) for side in run.SIDES}
    base_sha = run.git(str(repo), "rev-parse", "HEAD")
    (tmp_path / "base").mkdir()
    subprocess.run(f"git -C {repo} archive {base_sha} | tar -x -C {roots['base']}", shell=True, check=True)

    revisions = run.side_revisions(str(repo), base_sha, run.snapshot(str(repo), roots["head"]), roots)

    assert revisions["base"]["src_lines"] == 2 and revisions["head"]["src_lines"] == 3
    assert revisions["base"]["commit"] == revisions["head"]["parent_commit"] == base_sha


def test_record_of_two_fake_rounds_has_every_schema_key(tmp_path):
    run = load_driver()
    calls = []

    def fake_measure(root, env, work):
        calls.append(root)
        values = {"perfbench.boltzmann.wall_s": float(len(calls)), "perfbench.boltzmann.failed": 0}
        return values, {"call": {"a.csv": "0" * 64}}

    roots = {"base": "/b", "head": "/h"}
    runs, digests = run.abba_rounds(roots, fake_measure, str(tmp_path), threads=1, rounds=2)
    assert calls == ["/b", "/h", "/h", "/b"]
    found = {side: {"seed 1 maps-count/maps-count.csv": "1" * 64} for side in run.SIDES}
    tiers = {side: {"wall_s": 1.0, "passed": 3} for side in run.SIDES}
    revisions = {"base": {"commit": "c", "src_tree": "t"}, "head": {"parent_commit": "c", "src_tree": "t"}}
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(run.make_record("cmd", revisions, 1, runs, digests, found, tiers)))

    record = json.loads(path.read_text())
    assert set(SCHEMA) <= set(record)
    assert record["rounds"] == 2 and record["csv_identical"]
    assert record["metrics"]["head"]["perfbench.boltzmann.wall_s"]["runs"] == [2.0, 3.0]
    assert set(record["metrics"]["base"]["perfbench.boltzmann.wall_s"]) == {"median", "q1", "q3", "runs"}


def test_head_lower_rounds_counts_the_rounds_the_head_reads_below_the_base(tmp_path):
    run = load_driver()
    base = [3.0, 1.0, 2.0, 5.0]
    head = [2.0, 1.0, 2.5, 4.0]  # lower in rounds 0 and 3; a tie counts for neither side
    runs = {"base": [{"m": b, "n": 0} for b in base], "head": [{"m": h, "n": 0} for h in head]}
    tiers = {side: {"wall_s": 1.0, "passed": 3} for side in run.SIDES}
    record = json.loads(json.dumps(run.make_record("cmd", {}, 1, runs, {"base": {}, "head": {}}, {}, tiers)))
    assert record["metrics"]["head"]["m"]["head_lower_rounds"] == 2
    assert record["metrics"]["head"]["n"]["head_lower_rounds"] == 0
    assert "head_lower_rounds" not in record["metrics"]["base"]["m"]
