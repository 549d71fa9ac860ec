import json
import math

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

    def test_maps_tail_bound_finding(self, tmp_path, capsys):
        config = {"a": 0.2, "mu": 1, "mu_boundary": 1, "n_max": 40, "seed": 5}
        findings = cli.validate(config)
        assert [f["code"] for f in findings] == ["maps-config"]
        assert "truncation tail mass" in findings[0]["message"]
        assert run_cli(tmp_path, "maps-sample", config) == 2

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
