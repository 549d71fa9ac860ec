import json
import math
import tracemalloc

import pytest

from lqgdisk import cli, gff, io, maps


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
        csv_path = tmp_path / "out" / "volume-law" / "volume-law.csv"
        with open(csv_path) as fh:
            assert fh.readline().strip() == "replica,V,L,weight"

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

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        config = {"points": [[0.1, 0.0], [0.12, 0.0]], "eps": 0.05, "seed": 4}
        assert run_cli(tmp_path, "field-sample", config) == 2

    def test_missing_key_is_exit_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, "gmc-bulk", {"seed": 1}) == 2


class TestGridConfig:
    def test_n_theta_reaches_every_experiment_grid(self):
        # gmc-bulk builds its grid with _grid_from; volume-law, partition and
        # kpz-covariance build theirs inside the chaos basis
        config = {"gamma": 1.0, "grid": {"n_r": 5, "n_theta": 64}, "n_replicas": 2, "n_modes": 64}
        basis = cli._basis_from(config, 1, 1.0)
        assert basis.grid.size == cli._grid_from(config).size


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


class TestGradedSampler:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("gmc-bulk", {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 20}),
            ("volume-law", marked_config()),
            ("partition", marked_config()),
            (
                "kpz-covariance",
                marked_config(
                    insertions=[
                        {"kind": "bulk", "position": [0.4, 0.0], "weight": 1.5},
                        {"kind": "bulk", "position": [-0.3, 0.2], "weight": 1.5},
                    ]
                ),
            ),
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

    def test_replica_total_ignores_replica_count(self, tmp_path, capsys):
        # 600 replicas fill several blocks; replica r draws from RngStream(seed, r) alone
        config = {"gamma": 1.0, "grid": {"n_r": 4}, "seed": 8}
        assert run_cli(tmp_path, "gmc-bulk", {**config, "n_replicas": 3}, outname="few") == 0
        assert run_cli(tmp_path, "gmc-bulk", {**config, "n_replicas": 600}, outname="many") == 0
        few = (tmp_path / "few" / "gmc-bulk" / "gmc-bulk.csv").read_text().splitlines()
        many = (tmp_path / "many" / "gmc-bulk" / "gmc-bulk.csv").read_text().splitlines()
        assert len(few) == 4 and len(many) == 601
        assert few == many[:4]

    def test_negative_spectrum_is_exit_4(self, tmp_path, capsys, monkeypatch):
        entries = gff.covariance_entries
        monkeypatch.setattr(gff, "covariance_entries", lambda *a: entries(*a) - 1000.0)
        config = {"gamma": 1.0, "grid": {"n_r": 4}, "n_replicas": 5, "seed": 1}
        assert run_cli(tmp_path, "gmc-bulk", config) == 4
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "numeric"


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
            ([[0.985, 0.0]], 0.02, "averaging circles"),
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

    def test_degenerate_constants_finding(self):
        config = {
            "gamma": 1.0,
            "mu": 0.0,
            "mu_boundary": 0.0,
            "insertions": [{"kind": "bulk", "position": [0.0, 0.0], "weight": 2.4}],
        }
        codes = {f["code"] for f in cli.validate(config)}
        assert "parameters" in codes
