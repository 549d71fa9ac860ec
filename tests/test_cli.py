import json
import math
import tracemalloc

import pytest

from lqgdisk import cli, gff, gmc, io, liouville, maps
from lqgdisk.errors import GridError, UnsupportedSeparationError


def run_cli(tmp_path, command, config, seed=None, workers=1, outname="out"):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / outname)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if workers != 1:
        argv += ["--workers", str(workers)]
    return cli.main(argv)


class TestRunAndManifest:
    def test_green_selftest_manifest(self, tmp_path, capsys):
        code = run_cli(tmp_path, "green-selftest", {"n_samples": 2000}, seed=11)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]
        assert max(out["summary"]["residuals"].values()) < 1e-12
        outdir = tmp_path / "out" / "green-selftest"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == 11
        names = {f["name"] for f in manifest["files"]}
        assert "green-selftest.csv" in names
        for f in manifest["files"]:
            assert io.sha256_file(str(outdir / f["name"])) == f["sha256"]
        summary = json.loads((outdir / "green-selftest-summary.json").read_text())
        for key in ("quantity", "estimate", "stderr", "n_replicas"):
            assert key in summary

    def test_rerun_byte_identical_and_worker_invariant(self, tmp_path, capsys):
        config = {"gamma": 1.0, "grid": {"n_r": 5}, "n_replicas": 40, "seed": 31}
        assert run_cli(tmp_path, "gmc-bulk", config, outname="r1") == 0
        assert run_cli(tmp_path, "gmc-bulk", config, outname="r2") == 0
        assert run_cli(tmp_path, "gmc-bulk", config, workers=3, outname="r3") == 0
        capsys.readouterr()
        hashes = [
            io.sha256_file(str(tmp_path / r / "gmc-bulk" / "gmc-bulk.csv"))
            for r in ("r1", "r2", "r3")
        ]
        assert hashes[0] == hashes[1] == hashes[2]

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "777")
        code = run_cli(tmp_path, "green-selftest", {"n_samples": 500})
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        outdir = tmp_path / "out" / "green-selftest"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == 777

    def test_missing_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        code = run_cli(tmp_path, "green-selftest", {"n_samples": 500})
        assert code == 2

    @pytest.mark.parametrize("seed", [2.7, "abc", -3], ids=["fractional", "string", "negative"])
    def test_malformed_config_seed_is_exit_2(self, tmp_path, capsys, seed):
        config = {"n_samples": 500, "seed": seed}
        findings = cli.validate(config, "green-selftest")
        assert [f["code"] for f in findings] == ["seed"]
        assert run_cli(tmp_path, "green-selftest", config) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "config", "message": findings[0]["message"]}
        assert not (tmp_path / "out" / "green-selftest" / "manifest.json").exists()

    def test_malformed_seed_env_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "2.7")
        assert run_cli(tmp_path, "green-selftest", {"n_samples": 500}) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "config", "message": f"{cli.SEED_ENV} must be an integer, got '2.7'"}

    def test_negative_seed_flag_is_exit_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, "green-selftest", {"n_samples": 500}, seed=-3) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "config", "message": "--seed must be at least 0, got -3"}

    def test_field_sample_snapshot_format(self, tmp_path, capsys):
        config = {"points": [[0.1, 0.0], [0.5, 0.2]], "eps": 0.02, "seed": 5}
        assert run_cli(tmp_path, "field-sample", config) == 0
        capsys.readouterr()
        base = tmp_path / "out" / "field-sample" / "field-sample"
        with open(str(base) + ".csv") as fh:
            assert fh.readline().strip() == "re,im,value"
        sidecar = json.loads(base.with_suffix(".json").read_text())
        assert sidecar["n_points"] == 2 and sidecar["eps"] == 0.02

    def test_volume_law_summary(self, tmp_path, capsys):
        g = 1.6329931618554518
        config = {
            "gamma": g,
            "mu": 1.0,
            "mu_boundary": 0.0,
            "insertions": [
                {"kind": "bulk", "position": [0.0, 0.0], "weight": g},
                {"kind": "boundary", "position": [1.0, 0.0], "weight": g},
            ],
            "grid": {"n_r": 5},
            "n_replicas": 120,
            "n_draws": 1500,
            "seed": 99,
        }
        assert run_cli(tmp_path, "volume-law", config) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["gamma_shape"] == pytest.approx(0.25, abs=1e-9)
        assert out["summary"]["ks_pvalue"] > 0.01
        assert 10.0 < out["summary"]["ess"] <= 120
        assert out["summary"]["acceptance_rate"] == 1.0  # V is drawn directly
        csv_path = tmp_path / "out" / "volume-law" / "volume-law.csv"
        with open(csv_path) as fh:
            assert fh.readline().strip() == "replica,V,L,weight"

    def test_volume_law_summary_with_boundary_constant(self, tmp_path, capsys):
        assert run_cli(tmp_path, "volume-law", marked_config(mu_boundary=0.5), seed=99) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert 10.0 < summary["ess"] <= 100
        assert 1.0 / math.sqrt(2.0) < summary["acceptance_rate"] < 1.0
        assert "gamma_shape" not in summary and "ks_pvalue" not in summary
        assert 0.0 < summary["zero_mode_rel_err"] < 1e-8

    @pytest.mark.parametrize("mu_b, reported", [(0.0, True), (0.5, False)])
    def test_volume_law_evaluates_half_disk_only_when_reported(
        self, tmp_path, capsys, monkeypatch, mu_b, reported
    ):
        calls = []
        reduce = liouville.ChaosBasis.reduce

        def counted(basis, sets, functionals=None):
            if functionals:
                calls.append(sorted(functionals))
            return reduce(basis, sets, functionals)

        monkeypatch.setattr(liouville.ChaosBasis, "reduce", counted)
        assert run_cli(tmp_path, "volume-law", marked_config(mu_boundary=mu_b), seed=99) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert ("half_disk_corr" in summary) == reported
        assert calls == ([["half_disk"]] if reported else [])

    def test_maps_sample_formats(self, tmp_path, capsys):
        config = {"a": 0.3, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 500, "seed": 3}
        assert run_cli(tmp_path, "maps-sample", config) == 0
        capsys.readouterr()
        outdir = tmp_path / "out" / "maps-sample"
        with open(outdir / "maps-draws.csv") as fh:
            assert fh.readline().strip() == "draw_index,n,p"
        with open(outdir / "maps-weight-table.csv") as fh:
            assert fh.readline().strip() == "n,p,log_weight"
            lines = fh.read().splitlines()
        # one line per finite cell, p-major, as a cell-by-cell loop writes them
        sampler = maps.BoltzmannSampler(cli._maps_config(config))
        want = []
        for p in range(1, sampler.cfg.p_max + 1):
            row = sampler.log_weight_row(p)
            for n in range(sampler.cfg.n_max + 1):
                if math.isfinite(row[n]):
                    want.append(f"{n},{p},{io.fmt(row[n])}")
        assert lines == want


class TestExitCodes:
    def test_inadmissible_is_exit_3(self, tmp_path, capsys):
        config = {
            "gamma": 1.0,
            "mu": 1.0,
            "insertions": [{"kind": "bulk", "position": [0.0, 0.0], "weight": 0.1}],
            "n_replicas": 100,
            "seed": 1,
        }
        assert run_cli(tmp_path, "partition", config) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "not-admissible"

    @pytest.mark.parametrize("command", ["volume-law", "partition", "kpz-covariance"])
    def test_inadmissible_exits_before_the_basis_is_built(self, tmp_path, capsys, monkeypatch, command):
        def no_basis(*args):
            raise AssertionError("the chaos basis was built for an inadmissible insertion set")

        monkeypatch.setattr(cli, "_basis_from", no_basis)
        config = marked_config(insertions=[bulk_point([0.0, 0.0], 0.1)], seed=1)
        assert run_cli(tmp_path, command, config) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "not-admissible"

    def test_kpz_boundary_constant_exits_before_the_basis_is_built(self, tmp_path, capsys, monkeypatch):
        def no_basis(*args):
            raise AssertionError("the chaos basis was built for a ratio test it cannot run")

        monkeypatch.setattr(cli, "_basis_from", no_basis)
        config = marked_config(mu_boundary=0.5, insertions=KPZ_INSERTIONS, seed=1)
        assert run_cli(tmp_path, "kpz-covariance", config) == 2
        assert "mu_boundary = 0" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_collapsed_effective_sample_size_is_exit_4(self, tmp_path, capsys):
        # 3 replicas leave an effective sample size of at most 3, below the floor of 10
        assert run_cli(tmp_path, "volume-law", marked_config(n_replicas=3), seed=1) == 4
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "numeric"
        assert not (tmp_path / "out" / "volume-law" / "volume-law.csv").exists()

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        config = {"points": [[0.1, 0.0], [0.12, 0.0]], "eps": 0.05, "seed": 4}
        assert run_cli(tmp_path, "field-sample", config) == 2

    def test_missing_key_is_exit_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, "gmc-bulk", {"seed": 1}) == 2

    @pytest.mark.parametrize("command", ["validate", "gmc-bulk", "maps-count"])
    @pytest.mark.parametrize("config, kind", [([1, 2], "list"), ("x", "str")])
    def test_config_that_is_not_an_object_is_exit_2(self, tmp_path, capsys, command, config, kind):
        assert run_cli(tmp_path, command, config, seed=1) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "config", "message": f"the config must be a JSON object, got {kind}"}


# every graded grid shape the tests build up to depth 7; (5, 2, pi) has 64 cells in each outermost ring
TEST_GRID_SHAPES = [(d, 2, 2.0) for d in range(1, 8)] + [(5, 3, 0.5), (5, 1, 8.0), (5, 2, math.pi)]
# at aspect 1e20 every ring has 16 cells; past depth 21-23 the rings lie so close
# to r = 1 that rounding eats the 1e-9 shave of their averaging radii
DEEP_GRID_SHAPES = [(d, r, 1e20) for r in (1, 2, 3) for d in range(18, 56)]


def unchecked_grid(shape, monkeypatch):
    """The graded grid of the shape with no circle check, or None if it cannot be built."""
    with monkeypatch.context() as m:
        m.setattr(gmc, "check_averaging_circles", lambda points, eps: None)
        try:
            return gmc.graded_disk_grid(*shape)
        except GridError:
            return None


def circle_check_error(grid):
    """The type of error the m x m check of every pair of the grid's averaging circles raises, or None."""
    try:
        gff.check_averaging_circles(grid.centers, grid.eps)
    except (GridError, UnsupportedSeparationError) as err:
        return type(err)
    return None


def dense_rule_accepts(shape, monkeypatch):
    """Whether the grid's cells pass the m x m check of every pair of averaging circles."""
    grid = unchecked_grid(shape, monkeypatch)
    return grid is not None and circle_check_error(grid) is None


class TestGridRule:
    def test_ring_check_decides_as_the_dense_check(self, tmp_path, capsys, monkeypatch):
        deep = DEEP_GRID_SHAPES
        accepted = set()
        for shape in TEST_GRID_SHAPES + deep:
            config = {"gamma": 1.0, "grid": dict(zip(("n_r", "rings_per_band", "aspect"), shape))}
            findings = cli.validate(config)
            assert (findings == []) == dense_rule_accepts(shape, monkeypatch), shape
            if findings:
                assert [f["code"] for f in findings] in (["grid"], ["separation rule"]), shape
                assert run_cli(tmp_path, "gmc-bulk", config, seed=1) == 2, shape
            else:
                accepted.add(shape)
        assert set(TEST_GRID_SHAPES) <= accepted
        assert [max(d for d, r, _ in accepted & set(deep) if r == k) for k in (1, 2, 3)] == [23, 22, 21]

    def test_chunked_check_decides_as_one_piece(self, monkeypatch):
        # the m x m check compares a few rows of pairs at a time: here one row of the largest grid
        # (2,640 cells), its default (7 rows), and the whole matrix at once, as it did before chunks
        decided = set()
        for shape in TEST_GRID_SHAPES + DEEP_GRID_SHAPES:
            grid = unchecked_grid(shape, monkeypatch)
            if grid is not None:
                errors = set()
                for chunk in (2**14, gff.BUILD_CHUNK, 2**40):
                    monkeypatch.setattr(gff, "BUILD_CHUNK", chunk)
                    errors.add(circle_check_error(grid))
                assert len(errors) == 1, shape
                decided |= errors
        assert None in decided and len(decided) > 1  # both accepted and rejected shapes


def marked_config(**extra):
    g = 1.6329931618554518
    return {
        "gamma": g,
        "mu": 1.0,
        "mu_boundary": 0.0,
        "insertions": [
            {"kind": "bulk", "position": [0.0, 0.0], "weight": g},
            {"kind": "boundary", "position": [1.0, 0.0], "weight": g},
        ],
        "grid": {"n_r": 4},
        "n_modes": 64,
        "n_replicas": 100,
        "n_draws": 500,
        **extra,
    }


def bulk_grid_config(**grid):
    return {"gamma": 1.0, "grid": {"n_r": 5, **grid}, "n_replicas": 20}


def bulk_point(position, weight):
    return {"kind": "bulk", "position": position, "weight": weight}


KPZ_INSERTIONS = [
    {"kind": "bulk", "position": [0.4, 0.0], "weight": 1.5},
    {"kind": "bulk", "position": [-0.3, 0.2], "weight": 1.5},
]


class TestGradedSampler:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 20}),
            ("volume-law", marked_config()),
            ("partition", marked_config()),
            ("kpz-covariance", marked_config(insertions=KPZ_INSERTIONS)),
        ],
        ids=["gmc-bulk", "volume-law", "partition", "kpz-covariance"],
    )
    def test_summary_reports_the_sampler(self, tmp_path, capsys, command, config):
        assert run_cli(tmp_path, command, config, seed=3) == 0
        outdir = tmp_path / "out" / command
        summary = json.loads((outdir / f"{command}-summary.json").read_text())
        assert summary["n_points"] == cli._grid_from(config).size == 256
        assert summary["rotation_order"] == gff.ROTATION_ORDER == 16
        assert summary["min_eigenvalue"] > 0.0

    @pytest.mark.parametrize(
        "command, config",
        [
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}}),
            # 1,024 modes folded onto the 3 bins of 4 arcs
            ("gmc-boundary", {"gamma": 1.0, "n_modes": 1024, "n_arcs": 4}),
        ],
        ids=["gmc-bulk", "gmc-boundary-few-arcs"],
    )
    def test_replica_total_ignores_replica_count(self, tmp_path, capsys, command, config):
        # 600 replicas fill several blocks; replica r draws from RngStream(seed, r) alone
        config = {**config, "seed": 8}
        assert run_cli(tmp_path, command, {**config, "n_replicas": 3}, outname="few") == 0
        assert run_cli(tmp_path, command, {**config, "n_replicas": 600}, outname="many") == 0
        few = (tmp_path / "few" / command / f"{command}.csv").read_text().splitlines()
        many = (tmp_path / "many" / command / f"{command}.csv").read_text().splitlines()
        assert len(few) == 4 and len(many) == 601
        assert few == many[:4]

    def test_negative_spectrum_is_exit_4(self, tmp_path, capsys, monkeypatch):
        entries = gff.covariance_entries
        monkeypatch.setattr(gff, "covariance_entries", lambda *a: entries(*a) - 1000.0)
        config = {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 5, "seed": 1}
        assert run_cli(tmp_path, "gmc-bulk", config) == 4
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "numeric"


class TestCounts:
    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 1}, "n_replicas"),
            ("gmc-boundary", {"gamma": 1.0, "n_modes": 64, "n_replicas": 1}, "n_replicas"),
            ("volume-law", marked_config(n_replicas=1), "n_replicas"),
            ("volume-law", marked_config(n_draws=1), "n_draws"),
            ("partition", marked_config(n_replicas=1), "n_replicas"),
            (
                "kpz-covariance",
                marked_config(n_replicas=1, insertions=KPZ_INSERTIONS),
                "n_replicas",
            ),
            ("maps-sample", {"a": 0.3, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 1}, "n_draws"),
            ("maps-density", {"a": 0.05, "n_draws": 1}, "n_draws"),
        ],
        ids=[
            "gmc-bulk", "gmc-boundary", "volume-law-replicas", "volume-law-draws",
            "partition", "kpz-covariance", "maps-sample", "maps-density",
        ],
    )
    def test_count_below_two_is_exit_2(self, tmp_path, capsys, command, config, key):
        message = f"{key} must be at least 2, got 1"
        assert cli.validate(config) == [{"code": "counts", "message": message}]
        assert run_cli(tmp_path, command, config, seed=3) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "config", "message": message}

    def test_single_point_is_exit_2(self, tmp_path, capsys):
        # one field value leaves no standard error, as a count of 1 does
        config = {"points": [[0.1, 0.1]], "eps": 0.01}
        message = "points must hold at least 2 points, got 1"
        assert cli.validate(config, "field-sample") == [{"code": "averaging circles", "message": message}]
        assert run_cli(tmp_path, "field-sample", config, seed=3) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {"type": "config", "message": message}

    def test_ladder_counts_follow_the_ladder_rule(self):
        config = {"kind": "boundary", "mode_levels": [64, 128], "n_replicas": 1}
        assert cli.validate(config) == []


class TestPartitionRoute:
    @pytest.mark.parametrize(
        "mu_b, route, ignored", [(0.0, "gamma", "quadrature"), (0.5, "quadrature", "gamma")]
    )
    def test_route_follows_mu_boundary(self, tmp_path, capsys, mu_b, route, ignored):
        config = marked_config(mu_boundary=mu_b, method=ignored)
        assert run_cli(tmp_path, "partition", config, seed=3) == 0
        summary = json.loads((tmp_path / "out" / "partition" / "partition-summary.json").read_text())
        assert summary["method"] == route
        if route == "quadrature":
            assert 0.0 < summary["zero_mode_rel_err"] < 1e-8
        else:
            assert "zero_mode_rel_err" not in summary


class TestDensityDegreesOfFreedom:
    def test_density_without_degrees_of_freedom_is_exit_2(self, tmp_path, capsys):
        # every bin is below the expected-count floor: no chi-square test is left
        config = {"a": 0.05, "n_draws": 20000}
        assert run_cli(tmp_path, "maps-density", config, seed=3) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "config" and "increase n_draws" in err["message"]


SMOKE_CONFIGS = {
    "green-selftest": {"n_samples": 200},
    "field-sample": {"points": [[0.1, 0.0], [-0.4, 0.3]], "eps": 0.02},
    "gmc-bulk": {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 20},
    "gmc-boundary": {"gamma": 1.0, "n_modes": 64, "n_replicas": 20},
    "critical-ladder": {"kind": "bulk", "levels": [4, 5], "n_replicas": [100, 50]},
    "seiberg-validate": marked_config(),
    "volume-law": marked_config(),
    "partition": marked_config(mu_boundary=0.5),
    "kpz-covariance": marked_config(insertions=KPZ_INSERTIONS),
    "weyl-anomaly": {"gamma": 1.0, "n_r": 32},
    "maps-count": {"n_max": 10, "p_max": 3},
    "maps-sample": {"a": 0.3, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 500},
    "maps-density": {"a": 0.03, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 20000},
}


def test_every_output_is_byte_identical_on_rerun(tmp_path, capsys):
    # only the manifest records wall seconds; every other file is fixed by (config, seed)
    for command, config in SMOKE_CONFIGS.items():
        outputs = []
        for outname in ("r1", "r2"):
            assert run_cli(tmp_path, command, config, seed=2, outname=outname) == 0, command
            folder = tmp_path / outname / command
            outputs.append({f.name: f.read_bytes() for f in folder.iterdir() if f.name != "manifest.json"})
        assert outputs[0] == outputs[1], command


def test_every_summary_is_strict_json(tmp_path, capsys):
    assert set(SMOKE_CONFIGS) == set(cli.EXPERIMENTS)

    def reject(constant):
        raise ValueError(f"summary holds {constant}")

    for command, config in SMOKE_CONFIGS.items():
        assert cli.validate(config, command) == [], command
        assert run_cli(tmp_path, command, config, seed=2) == 0, command
        text = (tmp_path / "out" / command / f"{command}-summary.json").read_text()
        json.loads(text, parse_constant=reject)


def test_every_summary_begins_with_the_four_shared_keys():
    # the order the run prints them in: files sort their keys, the printed summary does not
    for command, config in SMOKE_CONFIGS.items():
        summary, _ = cli.EXPERIMENTS[command](config, 2)
        assert list(summary)[:4] == ["quantity", "estimate", "stderr", "n_replicas"], command


class TestCriticalLadder:
    def test_boundary_counts_per_level(self, tmp_path, capsys):
        config = {"kind": "boundary", "mode_levels": [64, 128], "n_replicas": [200, 100]}
        assert run_cli(tmp_path, "critical-ladder", config, seed=3) == 0
        rows = (tmp_path / "out" / "critical-ladder" / "critical-ladder.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [["64", "200"], ["128", "100"]]

    def test_summary_reports_min_eigenvalues(self, tmp_path, capsys):
        config = {"kind": "bulk", "levels": [4, 5, 6], "n_replicas": [300, 200, 100]}
        assert run_cli(tmp_path, "critical-ladder", config, seed=3) == 0
        outdir = tmp_path / "out" / "critical-ladder"
        summary = json.loads((outdir / "critical-ladder-summary.json").read_text())
        assert len(summary["min_eigenvalues"]) == 3
        assert all(w > 0.0 for w in summary["min_eigenvalues"])
        assert (outdir / "critical-ladder.csv").read_text().count("\n") == 4


class TestValidate:
    def test_bound_findings(self):
        q = 2.0  # gamma = 1: Q = 2.5; use weight above Q for bound2
        config = {
            "gamma": 1.0,
            "mu": 1.0,
            "insertions": [{"kind": "bulk", "position": [0.0, 0.0], "weight": 2.5}],
        }
        codes = {f["code"] for f in cli.validate(config)}
        assert "bound1 violated" in codes
        assert "bound2 violated" in codes

    def test_separation_finding(self):
        config = {"points": [[0.1, 0.0], [0.12, 0.0]], "eps": 0.05}
        codes = {f["code"] for f in cli.validate(config)}
        assert "separation rule" in codes

    @pytest.mark.parametrize(
        "points, eps, code",
        [
            # 1e-13 below twice eps: inside the covariance's relative tolerance of 1e-12
            ([[0.1, 0.0], [0.1 + 0.02 * (1.0 - 1e-13), 0.0]], 0.01, None),
            ([[0.1, 0.0], [0.1 + 0.02 * (1.0 - 1e-11), 0.0]], 0.01, "separation rule"),
            ([[0.1, 0.0], [0.1, 0.0]], 0.01, "averaging circles"),
            ([[0.985, 0.0], [-0.5, 0.0]], 0.02, "averaging circles"),
        ],
        ids=["inside-tolerance", "overlap", "coincident", "leaves-disk"],
    )
    def test_validate_agrees_with_field_sample(self, tmp_path, capsys, points, eps, code):
        config = {"points": points, "eps": eps, "seed": 5}
        codes = [f["code"] for f in cli.validate(config)]
        assert codes == ([] if code is None else [code])
        assert run_cli(tmp_path, "field-sample", config) == (0 if code is None else 2)

    def test_point_cap_finding(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gff, "MAX_FIELD_POINTS", 2)
        config = {"points": [[0.1, 0.0], [0.5, 0.0], [-0.3, 0.2]], "eps": 0.02, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["averaging circles"]
        assert "at most 2 points" in findings[0]["message"]
        assert run_cli(tmp_path, "field-sample", config) == 2

    @pytest.mark.parametrize(
        "levels, n_replicas, match",
        [
            ([4, 5, 6], [200, 200], "2 counts for 3 levels"),
            ([4, 5], [200, 0], "positive"),
            ([9, 11], 5, "from 4 to 10"),
        ],
        ids=["dropped-level", "zero-count", "level-limit"],
    )
    def test_ladder_finding(self, tmp_path, capsys, levels, n_replicas, match):
        config = {"kind": "bulk", "levels": levels, "n_replicas": n_replicas, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["ladder"]
        assert match in findings[0]["message"]
        assert run_cli(tmp_path, "critical-ladder", config) == 2
        assert not (tmp_path / "out" / "critical-ladder" / "critical-ladder.csv").exists()

    @pytest.mark.parametrize(
        "mode_levels, n_replicas, match",
        [
            ([64, 128], [100], "1 counts for 2 levels"),
            ([64, 128], [100, 0], "positive"),
            ([128, 64], 10, "increase"),
            ([0, 64], 10, "at least 1"),
        ],
        ids=["dropped-level", "zero-count", "decreasing", "no-modes"],
    )
    def test_boundary_ladder_finding(self, tmp_path, capsys, mode_levels, n_replicas, match):
        config = {"kind": "boundary", "mode_levels": mode_levels, "n_replicas": n_replicas, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["ladder"]
        assert match in findings[0]["message"]
        assert run_cli(tmp_path, "critical-ladder", config) == 2

    def test_grid_finding(self, tmp_path, capsys):
        config = {"gamma": 1.0, "grid": {"n_r": 9}, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["grid"]
        assert "at most 8192 points" in findings[0]["message"]
        assert run_cli(tmp_path, "gmc-bulk", config) == 2

    @pytest.mark.parametrize("n_r, match", [(54, "at most 8192 points"), (60, "zero width")])
    def test_zero_width_band_finding(self, tmp_path, capsys, n_r, match):
        # from band 54 on, 1 - 2^-b rounds to 1.0 and the band has no width
        config = {"gamma": 1.0, "grid": {"n_r": n_r}, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["grid"]
        assert match in findings[0]["message"]
        assert run_cli(tmp_path, "gmc-bulk", config) == 2

    def test_maps_tail_bound_finding(self, tmp_path, capsys):
        config = {"a": 0.2, "mu": 1, "mu_boundary": 1, "n_max": 40, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["maps-config"]
        assert "truncation tail mass" in findings[0]["message"]
        assert run_cli(tmp_path, "maps-sample", config) == 2

    def test_grid_cap_reported_before_the_grid_is_built(self):
        # depth 16 would have 1,235,200 cells
        config = {"gamma": 1.0, "grid": {"n_r": 16}}
        tracemalloc.start()
        try:
            findings = cli.validate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f["code"] for f in findings] == ["grid"]
        assert "at most 8192 points are supported, got 1235200" in findings[0]["message"]
        assert peak < 5 * 2**20

    def test_maps_mu_zero_finding(self, tmp_path, capsys):
        config = {"a": 0.2, "mu": 0.0, "mu_boundary": 1.0, "n_max": 300, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["maps-config"]
        assert "power of n" in findings[0]["message"]
        capsys.readouterr()
        assert run_cli(tmp_path, "maps-sample", config) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "config", "message": findings[0]["message"]}

    def test_clean_config_has_no_findings(self):
        g = 1.6329931618554518
        config = {
            "gamma": g,
            "mu": 1.0,
            "mu_boundary": 0.0,
            "insertions": [
                {"kind": "bulk", "position": [0.0, 0.0], "weight": g},
                {"kind": "boundary", "position": [1.0, 0.0], "weight": g},
            ],
        }
        assert cli.validate(config) == []

    @pytest.mark.parametrize(
        "command, config, code",
        [
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": [100]}, "counts"),
            ("kpz-covariance", marked_config(insertions=KPZ_INSERTIONS, mobius={"a": [1.5, 0]}), "mobius"),
            ("green-selftest", {"n_samples": 0}, "counts"),
            ("gmc-boundary", {"gamma": 1.0, "n_modes": 64, "n_replicas": 20, "n_arcs": 0}, "modes"),
            ("gmc-boundary", {"gamma": 1.0, "n_modes": 0, "n_replicas": 20}, "modes"),
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 2.5}, "counts"),
            ("gmc-boundary", {"gamma": 1.0, "n_modes": True, "n_replicas": 20}, "modes"),
            ("gmc-bulk", bulk_grid_config(aspect=0), "grid"),
            ("gmc-bulk", bulk_grid_config(aspect=-2), "grid"),
            ("gmc-bulk", bulk_grid_config(aspect=1e400), "grid"),
            ("gmc-bulk", bulk_grid_config(aspect=math.nan), "grid"),
            ("partition", marked_config(gamma=2.0), "parameters"),
            ("volume-law", marked_config(gamma=2.0), "parameters"),
            ("kpz-covariance", marked_config(gamma=2.0, insertions=KPZ_INSERTIONS), "parameters"),
            ("kpz-covariance", marked_config(mu_boundary=0.5, insertions=KPZ_INSERTIONS), "parameters"),
            ("weyl-anomaly", {"gamma": 1.0, "n_r": 0}, "conformal grid"),
            ("weyl-anomaly", {"gamma": 1.0, "n_r": 32, "n_theta": 33}, "conformal grid"),
            ("weyl-anomaly", {"gamma": 1.0, "n_r": 32, "shift": math.nan}, "conformal grid"),
            ("maps-density", {"a": 0.3, "n_draws": 20000, "bins": [0, 5]}, "bins"),
            ("maps-count", {"pairs": [[3, 0]]}, "pairs"),
            ("maps-count", {"pairs": [[3, 1, 2]]}, "pairs"),
            ("maps-count", {"n_max": 2.5, "p_max": 3}, "pairs"),
            ("maps-count", {"n_max": 10, "p_max": 0}, "pairs"),
            ("gmc-bulk", {"gamma": "x"}, "parameters"),
            ("volume-law", marked_config(mu_boundary=None), "parameters"),
            ("volume-law", marked_config(insertions=[bulk_point([0.0], 1.6)]), "insertions"),
            ("volume-law", marked_config(insertions=[bulk_point([0.0, 0.0], "2")]), "insertions"),
            ("gmc-bulk", bulk_grid_config(n_r="x"), "grid"),
            ("gmc-bulk", bulk_grid_config(n_r=4.7), "grid"),
            ("gmc-bulk", bulk_grid_config(n_r=2000), "grid"),
            ("gmc-bulk", bulk_grid_config(n_r=10**400), "grid"),
            ("gmc-bulk", bulk_grid_config(rings_per_band=1.5), "grid"),
            ("gmc-bulk", bulk_grid_config(aspect=[2.0]), "grid"),
            ("field-sample", {"points": [[0.1, "0"]], "eps": 0.02}, "averaging circles"),
            ("field-sample", {"points": 5, "eps": 0.01}, "averaging circles"),
            ("kpz-covariance", marked_config(mobius={"a": [0.3, 0], "alpha": "1"}), "mobius"),
            ("maps-density", {"a": "0.03", "n_draws": 20000}, "maps-config"),
            ("maps-sample", {"a": 0.3, "n_max": "x"}, "maps-config"),
            ("maps-sample", {"a": 0.3, "n_max": 2.5}, "maps-config"),
            ("maps-sample", {"a": 0.3, "n_max": -3}, "maps-config"),
            ("maps-sample", {"a": 0.3, "p_max": 0}, "maps-config"),
            ("maps-sample", {"a": 0.3, "n_max": 0}, "maps-config"),
            ("maps-sample", {"a": 0.3, "interior_marked": "no"}, "maps-config"),
            ("maps-density", {"a": 0.3, "n_draws": 20000, "interior_marked": 1}, "maps-config"),
            ("critical-ladder", {"kind": "bulk", "levels": [4.7, 5.2], "n_replicas": 10}, "ladder"),
            ("critical-ladder", {"kind": "bulk", "levels": ["a"], "n_replicas": 10}, "ladder"),
            ("critical-ladder", {"kind": "boundary", "mode_levels": 8}, "ladder"),
            ("critical-ladder", {"kind": "boundary", "mode_levels": [64], "n_replicas": True}, "ladder"),
            ("critical-ladder", {"kind": "boundary", "mode_levels": [64], "n_replicas": [1.5]}, "ladder"),
            ("critical-ladder", {"n_replicas": [100, 50]}, "ladder"),
            ("gmc-bulk", {"gamma": 1.0, "grid": [3]}, "grid"),
            ("volume-law", marked_config(grid=[3]), "grid"),
            ("volume-law", marked_config(insertions=[5]), "insertions"),
            ("volume-law", marked_config(insertions=5), "insertions"),
            ("kpz-covariance", marked_config(insertions=KPZ_INSERTIONS, mobius=5), "mobius"),
            ("gmc-bulk", bulk_grid_config(depth=5), "grid"),
            ("gmc-bulk", bulk_grid_config(rings_per_bands=5), "grid"),
            ("kpz-covariance", marked_config(insertions=KPZ_INSERTIONS, mobius={"a": [0.3, 0], "b": 1}), "mobius"),
            ("volume-law", marked_config(insertions=[{**bulk_point([0.0, 0.0], 1.6), "mass": 1.0}]), "insertions"),
            ("gmc-bulk", bulk_grid_config(n_theta=64), "grid"),
            ("gmc-bulk", {"grid": {"n_r": 3}, "n_replicas": 3}, "parameters"),
            ("gmc-boundary", {"n_modes": 64, "n_replicas": 3}, "parameters"),
            ("weyl-anomaly", {"n_r": 32}, "parameters"),
        ],
        ids=[
            "list-count", "mobius-outside-disk", "no-samples", "no-arcs", "no-modes",
            "fractional-count", "boolean-modes", "zero-aspect", "negative-aspect",
            "infinite-aspect", "nan-aspect", "partition-gamma-2",
            "volume-law-gamma-2", "kpz-gamma-2", "kpz-boundary-constant", "weyl-no-radii", "weyl-odd-angles",
            "weyl-nan-shift", "density-no-bins", "count-pair-domain", "count-pair-shape",
            "count-fractional-n-max", "count-no-p", "string-gamma", "null-mu-boundary",
            "short-position", "string-weight", "string-depth", "fractional-depth",
            "overflowing-depth", "huge-integer-depth", "fractional-rings", "list-aspect",
            "string-point", "number-points", "string-mobius-alpha", "string-maps-a",
            "maps-string-n-max", "maps-fractional-n-max", "maps-negative-n-max", "maps-no-p",
            "maps-weightless-rows", "maps-string-marking", "density-integer-marking",
            "fractional-levels", "string-level", "scalar-mode-levels", "boolean-count",
            "fractional-count-list", "counts-for-default-levels", "list-grid", "list-grid-basis",
            "number-insertion", "number-insertions", "number-mobius", "grid-depth-key",
            "grid-misspelt-key", "mobius-unknown-key", "insertion-unknown-key", "grid-n-theta-key",
            "bulk-no-gamma", "boundary-no-gamma", "weyl-no-gamma",
        ],
    )
    def test_validate_reports_the_error_the_run_stops_at(self, tmp_path, capsys, command, config, code):
        findings = cli.validate(config, command)
        assert [f["code"] for f in findings] == [code]
        assert run_cli(tmp_path, command, config, seed=3) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "config", "message": findings[0]["message"]}

    @pytest.mark.parametrize(
        "command, config, exit_code",
        [
            ("volume-law", {"gamma": 1.0}, 3),
            ("partition", {"gamma": 1.0}, 3),
            ("kpz-covariance", {"gamma": 1.0}, 3),
            ("seiberg-validate", {"gamma": 1.0, "insertions": []}, 0),
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 20, "a": -1}, 0),
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 20, "n_r": 3}, 0),
            ("partition", marked_config(n_draws=1), 0),
            ("maps-count", {"n_max": 10, "p_max": 3, "n_draws": 1}, 0),
            ("maps-sample", {"a": 0.3, "mu": 1.0, "mu_boundary": 1.0, "n_draws": 500, "pairs": [[1]]}, 0),
        ],
        ids=[
            "volume-law-no-insertions", "partition-no-insertions", "kpz-no-insertions", "seiberg-inadmissible",
            "bulk-maps-a", "bulk-weyl-n-r", "partition-n-draws", "count-n-draws", "sample-pairs",
        ],
    )
    def test_validate_checks_what_the_run_reads(self, tmp_path, capsys, command, config, exit_code):
        # the command's rows run whatever keys the config holds, and keys it never reads go unchecked
        findings = cli.validate(config, command)
        assert run_cli(tmp_path, command, config, seed=1) == exit_code
        if exit_code == 3:
            assert findings[0]["code"] == "bound1 violated"
        else:
            assert findings == []

    def test_every_row_names_known_experiments(self):
        # a misspelt experiment name would skip its checks without a word
        named = {command for _, _, commands, _ in cli.VALIDATION for command in commands}
        assert named == set(cli.EXPERIMENTS)

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("seiberg-validate", {"gamma": 1.0, "insertions": [{"position": [0, 0], "weight": 1}]},
             "insertion 0 has no key 'kind'"),
            ("seiberg-validate", {"gamma": 1.0, "insertions": [bulk_point([0, 0], 1), {"kind": "bulk", "weight": 1}]},
             "insertion 1 has no key 'position'"),
            ("seiberg-validate", {"gamma": 1.0, "insertions": [{"kind": "bulk", "position": [0, 0]}]},
             "insertion 0 has no key 'weight'"),
            ("seiberg-validate", {"insertions": []}, "the config has no key 'gamma'"),
            ("kpz-covariance", marked_config(insertions=KPZ_INSERTIONS, mobius={"alpha": 0.0}),
             "mobius has no key 'a'"),
            ("maps-density", {"n_draws": 20000}, "the config has no key 'a'"),
            ("maps-sample", {"mu": 1.0}, "the config has no key 'a'"),
        ],
        ids=["insertion-kind", "insertion-position", "insertion-weight", "gamma", "mobius-a",
             "density-a", "sample-a"],
    )
    def test_missing_key_is_named(self, tmp_path, capsys, command, config, message):
        # the reader names the config object and the key, not a bare KeyError string
        assert [f["message"] for f in cli.validate(config, command)] == [message]
        assert run_cli(tmp_path, command, config, seed=3) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {"type": "config", "message": message}

    @pytest.mark.parametrize(
        "config, code", [({"gamma": 1.0, "grid": {"n_r": 9}}, 2), ({"gamma": 1.0, "grid": {"n_r": 4}}, 0)]
    )
    def test_validate_exit_status(self, tmp_path, capsys, config, code):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["validate", "--config", str(cfg_path)]) == code
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert [f["code"] for f in findings] == (["grid"] if code else [])

    def test_validate_refuses_a_command_that_is_not_a_name(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": ["gmc-bulk"], "gamma": 1.0}))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 2
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert findings == [{"code": "unknown-command", "message": "unknown experiment ['gmc-bulk']"}]

    @pytest.mark.parametrize(
        "seed, config_seed, message",
        [(-5, None, "--seed must be at least 0, got -5"), (3, -1, None)],
        ids=["negative-flag", "flag-over-key"],
    )
    def test_validate_reads_the_seed_as_the_run_does(self, tmp_path, capsys, seed, config_seed, message):
        # the run checks the flag, and never reads the config's key when the flag is given
        config = {"gamma": 1.0, "grid": {"n_r": 3}, "n_replicas": 3}
        if config_seed is not None:
            config["seed"] = config_seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = 2 if message else 0
        assert cli.main(["validate", "--config", str(cfg_path), "--seed", str(seed)]) == code
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert findings == ([{"code": "seed", "message": message}] if message else [])
        assert run_cli(tmp_path, "gmc-bulk", config, seed=seed) == code
        out = json.loads(capsys.readouterr().out)
        assert out.get("error") == ({"type": "config", "message": message} if message else None)

    def test_degenerate_constants_finding(self):
        config = {
            "gamma": 1.0,
            "mu": 0.0,
            "mu_boundary": 0.0,
            "insertions": [{"kind": "bulk", "position": [0.0, 0.0], "weight": 2.4}],
        }
        codes = {f["code"] for f in cli.validate(config)}
        assert "parameters" in codes
