"""Command-line behavior: files, determinism, exit codes, config handling."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedsam.cli import main
from fedsam.harness import TrialResult
from fedsam.mdp import Mdp
from fedsam.validation import CheckResult


def run_cli(*argv) -> int:
    return main(list(argv))


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.glob("*")) if p.is_file()}


class TestGenMdp:
    def test_default_files_exist_and_reload(self, tmp_path):
        out = tmp_path / "env"
        assert run_cli("gen-mdp", "--out", str(out), "--seed", "3") == 0
        mdp = Mdp.read(out / "mdp.json")
        assert mdp.n_states == 5
        policies = json.loads((out / "policies.json").read_text())
        assert len(policies["behaviors"]) >= 1

    def test_fixed_seed_gives_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen-mdp", "--out", str(a), "--seed", "9") == 0
        assert run_cli("gen-mdp", "--out", str(b), "--seed", "9") == 0
        assert read_tree(a) == read_tree(b)

    def test_lfa_kind_writes_features(self, tmp_path):
        out = tmp_path / "env"
        assert run_cli(
            "gen-mdp", "--out", str(out), "--seed", "4",
            "--set", "kind=on_policy_td_lfa", "--set", "d=2",
        ) == 0
        feats = json.loads((out / "features.json").read_text())
        assert np.array(feats["phi"]).shape == (5, 2)

    def test_oversized_feature_dimension_exits_2(self, tmp_path):
        code = run_cli(
            "gen-mdp", "--out", str(tmp_path), "--seed", "1",
            "--set", "n_states=3", "--set", "d=7",
        )
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = run_cli("gen-mdp", "--out", str(tmp_path), "--set", "n_sates=3")
        assert code == 2
        assert "n_sates" in capsys.readouterr().err


class TestOracle:
    @pytest.fixture()
    def env_dir(self, tmp_path):
        out = tmp_path / "env"
        run_cli("gen-mdp", "--out", str(out), "--seed", "5")
        return out

    def test_zero_reward_mdp_gives_zero_table(self, tmp_path, capsys):
        mdp = Mdp(
            n_states=2, n_actions=1, transition=np.full((2, 1, 2), 0.5),
            reward=np.zeros((2, 1)), gamma=0.9,
        )
        (tmp_path / "mdp.json").write_text(mdp.to_json())
        assert run_cli("oracle", "--mdp", str(tmp_path / "mdp.json"), "--kind", "qstar") == 0
        out = capsys.readouterr().out
        assert "residual" in out

    def test_value_residual_reported_small(self, env_dir, capsys):
        assert run_cli(
            "oracle", "--mdp", str(env_dir / "mdp.json"),
            "--policies", str(env_dir / "policies.json"), "--kind", "value",
        ) == 0
        out = capsys.readouterr().out
        resid = float(out.rsplit("residual:", 1)[1].strip().split()[0])
        assert resid <= 1e-10

    def test_projected_with_identity_features_matches_value(self, env_dir, tmp_path, capsys):
        (tmp_path / "feat.json").write_text(json.dumps({"phi": np.eye(5).tolist(), "d": 5}))
        assert run_cli(
            "oracle", "--mdp", str(env_dir / "mdp.json"),
            "--policies", str(env_dir / "policies.json"),
            "--features", str(tmp_path / "feat.json"),
            "--kind", "projected", "--out", str(tmp_path),
        ) == 0
        assert run_cli(
            "oracle", "--mdp", str(env_dir / "mdp.json"),
            "--policies", str(env_dir / "policies.json"),
            "--kind", "value", "--out", str(tmp_path),
        ) == 0
        weights = json.loads((tmp_path / "oracle_projected.json").read_text())["weights"]
        values = json.loads((tmp_path / "oracle_value.json").read_text())["value"]
        assert np.abs(np.array(weights) - np.array(values)).max() <= 1e-8

    def test_missing_policies_is_usage_error(self, env_dir):
        assert run_cli("oracle", "--mdp", str(env_dir / "mdp.json"), "--kind", "value") == 2


class TestRunAndSweep:
    def test_default_run_exits_zero(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--seed", "2") == 0
        assert (tmp_path / "single-run.results.csv").exists()

    def test_default_sweep_exits_zero(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--seed", "2") == 0
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert meta["spec"]["master_seed"] == 2

    def test_run_rejects_grids(self, tmp_path):
        assert run_cli(
            "run", "--out", str(tmp_path), "--set", "n_agents_grid=[1,2]",
            "--set", "params.n_agents=2",
        ) == 2

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "run", "--out", str(out), "--seed", "6",
                "--set", "horizon=300", "--set", "replications=2",
            ) == 0
        for name in ("single-run.meta.json", "single-run.results.csv", "single-run.series.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_1_vs_8_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["sweep", "--seed", "7", "--set", "horizon=200", "--set", "replications=4"]
        assert run_cli(*common, "--out", str(a), "--parallel", "1") == 0
        assert run_cli(*common, "--out", str(b), "--parallel", "8") == 0
        for name in ("sweep.meta.json", "sweep.results.csv", "sweep.series.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, tmp_path, capsys, value):
        assert run_cli("sweep", "--out", str(tmp_path), "--parallel", value) == 2
        assert "--parallel" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_mistyped_override_exits_2(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--set", "horizon=notanumber") == 2

    @pytest.mark.parametrize("override, key", [
        ("replications=2.5", "replications"),
        ("n_agents_grid=[2.5]", "n_agents_grid"),
        ("sync_periods=[2.5]", "sync_periods"),
        ("checkpoint_stride=1.5", "checkpoint_stride"),
        ("params.n_states=4.5", "n_states"),
        ("horizon=true", "horizon"),
        ("horizon=4.0", "horizon"),
        ("alpha_grid=[NaN]", "alpha_grid"),
        ("alpha_grid=[Infinity]", "alpha_grid"),
        ("alpha_grid=[-0.1]", "alpha_grid"),
        ("alpha_grid=[true]", "alpha_grid"),
        ("master_seed=1.5", "master_seed"),
    ])
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, override, key):
        assert run_cli("run", "--out", str(tmp_path), "--set", override) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_config_file_with_overrides(self, tmp_path):
        cfg = {
            "name": "cfg",
            "kind": "q_learning",
            "params": {"n_states": 3, "n_actions": 2, "gamma": 0.5, "n_agents": 2},
            "n_agents_grid": [2],
            "sync_periods": [2],
            "alpha_grid": [0.2],
            "horizon": 100,
            "replications": 2,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(
            "sweep", "--config", str(path), "--out", str(tmp_path), "--seed", "1",
            "--set", "horizon=150",
        ) == 0
        meta = json.loads((tmp_path / "cfg.meta.json").read_text())
        assert meta["spec"]["horizon"] == 150
        assert meta["spec"]["kind"] == "q_learning"

    def test_sweep_reports_divergences_and_keeps_files(self, tmp_path, monkeypatch, capsys):
        # alpha 0.1 runs, 50 overflows the error while the iterates stay
        # finite, 1e6 turns non-finite at step 66 on agent 0
        cfg = {
            "name": "diverge",
            "kind": "off_policy_td_tabular",
            "params": {"n_states": 4, "n_actions": 2, "branching": 2, "gamma": 0.5, "n_agents": 2},
            "n_agents_grid": [2],
            "sync_periods": [1],
            "alpha_grid": [0.1, 50.0, 1e6],
            "horizon": 200,
            "replications": 1,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        # flag the ok trial as a late blow-up, so the count has something to count
        monkeypatch.setattr(TrialResult, "late_blowup", lambda self: self.status == "ok")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the c_out fallback at alpha 50
            assert run_cli("sweep", "--config", str(path), "--out", str(tmp_path), "--seed", "2024") == 0
        out = capsys.readouterr().out.splitlines()
        start = out.index("diverged trials: 2")
        assert out[start + 1:start + 4] == [
            "  N=2 K=1 alpha=50 T=200 replication=0 step=- agent=-",
            "  N=2 K=1 alpha=1e+06 T=200 replication=0 step=66 agent=0",
            "late blow-up trials: 1",
        ]
        # the same bytes as the sweep persisted directly (tests/test_harness.py)
        digests = {name: hashlib.sha256((tmp_path / f"diverge.{name}").read_bytes()).hexdigest()
                   for name in ("meta.json", "results.csv", "series.csv")}
        assert digests == {
            "meta.json": "2518b9584f2b7b5c0f2235e3cf915be1614ea726dd6b71aa1c734f2123e97bd3",
            "results.csv": "00b15bdafa03e0d94b9f9836d0b95cce00693bd18769ca9f1638ff95cabbcb42",
            "series.csv": "20e5a6cd85d82c8e269fc91a1cbf8a49e4d8ac97b31460cce4ea3d70d190b200",
        }

    def test_env_seed_used_and_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSAM_SEED", "41")
        assert run_cli("sweep", "--out", str(tmp_path / "env")) == 0
        meta = json.loads((tmp_path / "env" / "sweep.meta.json").read_text())
        assert meta["spec"]["master_seed"] == 41
        assert run_cli("sweep", "--out", str(tmp_path / "flag"), "--seed", "17") == 0
        meta = json.loads((tmp_path / "flag" / "sweep.meta.json").read_text())
        assert meta["spec"]["master_seed"] == 17


class TestIncompleteEnvironmentFiles:
    """An environment file or spec that lacks a key, or holds a scalar of the wrong type,
    is a usage error: exit 2 and one `error:` line."""

    @pytest.fixture()
    def env_dir(self, tmp_path):
        out = tmp_path / "env"
        assert run_cli("gen-mdp", "--out", str(out), "--seed", "5") == 0
        return out

    @staticmethod
    def drop_key(path: Path, key: str) -> None:
        data = json.loads(path.read_text())
        del data[key]
        path.write_text(json.dumps(data))

    @staticmethod
    def assert_usage_error(code: int, err: str, *words: str) -> None:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(word in err for word in words), err

    def test_mdp_path_without_policies_path(self, env_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out), "--set", f"mdp_path={env_dir / 'mdp.json'}")
        self.assert_usage_error(code, capsys.readouterr().err, "mdp_path", "policies_path")
        assert not out.exists()

    def test_policies_without_behaviors(self, env_dir, tmp_path, capsys):
        self.drop_key(env_dir / "policies.json", "behaviors")
        code = run_cli(
            "sweep", "--out", str(tmp_path / "out"), "--set", f"mdp_path={env_dir / 'mdp.json'}",
            "--set", f"policies_path={env_dir / 'policies.json'}",
        )
        self.assert_usage_error(code, capsys.readouterr().err, str(env_dir / "policies.json"), "'behaviors'")

    @pytest.mark.parametrize("name, key, kind", [
        ("mdp.json", "n_states", "qstar"),
        ("mdp.json", "reward", "value"),
        ("policies.json", "target", "value"),
    ])
    def test_oracle_file_without_a_key(self, env_dir, capsys, name, key, kind):
        self.drop_key(env_dir / name, key)
        code = run_cli(
            "oracle", "--mdp", str(env_dir / "mdp.json"),
            "--policies", str(env_dir / "policies.json"), "--kind", kind,
        )
        self.assert_usage_error(code, capsys.readouterr().err, str(env_dir / name), repr(key))

    @pytest.mark.parametrize("key", ["policies_path", "features_path"])
    def test_environment_file_without_mdp_path(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out), "--set", f"{key}=/nonexistent/env.json",
                       "--set", "horizon=50", "--set", "replications=1")
        self.assert_usage_error(code, capsys.readouterr().err, key, "mdp_path")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("n_states", "4"),
        ("n_actions", 2.0),
        ("n_states", True),
        ("gamma", "0.9"),
        ("gamma", None),
    ])
    def test_mdp_file_with_a_wrong_typed_scalar(self, env_dir, capsys, key, value):
        path = env_dir / "mdp.json"
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        code = run_cli("oracle", "--mdp", str(path), "--kind", "qstar")
        self.assert_usage_error(code, capsys.readouterr().err, str(path), repr(key))

    def test_a_file_that_is_not_an_object(self, env_dir, capsys):
        (env_dir / "policies.json").write_text("[]")
        code = run_cli(
            "oracle", "--mdp", str(env_dir / "mdp.json"),
            "--policies", str(env_dir / "policies.json"), "--kind", "value",
        )
        self.assert_usage_error(code, capsys.readouterr().err, str(env_dir / "policies.json"), "'target'")


class TestValidate:
    def _patch_checks(self, monkeypatch, results):
        import fedsam.validation

        monkeypatch.setattr(
            fedsam.validation, "run_all_checks", lambda **kw: results, raising=True
        )

    def test_all_pass_exit_zero_and_report(self, tmp_path, monkeypatch, capsys):
        self._patch_checks(monkeypatch, [CheckResult("a", True, "ok"), CheckResult("b", True, "ok")])
        assert run_cli("validate", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == ["a", "b"]
        out = capsys.readouterr().out
        assert "PASS a" in out and "PASS b" in out

    def test_failure_exits_one_and_lists_every_check(self, tmp_path, monkeypatch, capsys):
        self._patch_checks(
            monkeypatch,
            [CheckResult("good", True, "ok"), CheckResult("bad", False, "observed 7 > 3")],
        )
        assert run_cli("validate", "--out", str(tmp_path)) == 1
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["passed"] is False
        assert {c["name"] for c in report["checks"]} == {"good", "bad"}
        out = capsys.readouterr().out
        assert "FAIL bad" in out and "PASS good" in out

    def test_seed_resolves_as_in_every_subcommand(self, tmp_path, monkeypatch, capsys):
        import fedsam.validation

        seeds = []
        monkeypatch.setattr(fedsam.validation, "run_all_checks",
                            lambda **kw: seeds.append(kw["seed"]) or [CheckResult("a", True, "ok")])
        monkeypatch.delenv("FEDSAM_SEED", raising=False)
        assert run_cli("validate", "--out", str(tmp_path)) == 0
        monkeypatch.setenv("FEDSAM_SEED", "41")
        assert run_cli("validate", "--out", str(tmp_path)) == 0
        assert run_cli("validate", "--out", str(tmp_path), "--seed", "17") == 0
        assert seeds == [fedsam.validation.DEFAULT_SEED, 41, 17]
        capsys.readouterr()
        monkeypatch.setenv("FEDSAM_SEED", "abc")
        for command in ("validate", "sweep"):
            assert run_cli(command, "--out", str(tmp_path)) == 2
            assert capsys.readouterr().err == "error: FEDSAM_SEED must be an integer, got 'abc'\n"
        assert seeds == [fedsam.validation.DEFAULT_SEED, 41, 17]

    def test_injected_contraction_fault_fails(self):
        # halving gamma_c must break the contraction check
        from fedsam.validation import check_contraction

        result = check_contraction(seed=2024, instances=2, pairs=10, gamma_scale=0.5)
        assert not result.passed
