"""Tests for the command-line harness: config parsing, verbs, exit codes."""

import json

import numpy as np
import pytest

from sqgev.cli import (
    RUN_DEFAULTS,
    RUN_KEYS,
    UsageError,
    float_tuple,
    main,
    parse_config,
)
from sqgev.gevrey import heat_semigroup
from sqgev.spectral import Grid, SpectralField, save_field


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        merged = parse_config(str(cfg), [], RUN_KEYS, RUN_DEFAULTS)
        assert merged == RUN_DEFAULTS

    def test_file_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nkappa=0.5\nn=64\n\ndealias=none\n")
        merged = parse_config(str(cfg), [], RUN_KEYS, RUN_DEFAULTS)
        assert merged["kappa"] == 0.5
        assert merged["n"] == 64
        assert merged["dealias"] == "none"

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=0.5\n")
        merged = parse_config(str(cfg), ["kappa=0.9"], RUN_KEYS, RUN_DEFAULTS)
        assert merged["kappa"] == 0.9

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=0.5\n")
        monkeypatch.setenv("SQGEV_KAPPA", "0.7")
        merged = parse_config(str(cfg), [], RUN_KEYS, RUN_DEFAULTS)
        assert merged["kappa"] == 0.7

    def test_malformed_line_reports_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kappa=0.5\nnot a pair\n")
        with pytest.raises(UsageError, match=":2"):
            parse_config(str(cfg), [], RUN_KEYS, RUN_DEFAULTS)

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(UsageError, match="kappa"):
            parse_config(None, ["kappax=1"], RUN_KEYS, RUN_DEFAULTS)

    def test_type_mismatch_names_expected_type(self):
        with pytest.raises(UsageError, match="float"):
            parse_config(None, ["kappa=fast"], RUN_KEYS, RUN_DEFAULTS)

    def test_missing_file(self):
        with pytest.raises(UsageError, match="not found"):
            parse_config("/does/not/exist.cfg", [], RUN_KEYS, RUN_DEFAULTS)

    def test_tuple_coercion(self):
        assert float_tuple("2,4,8") == (2.0, 4.0, 8.0)


class TestSimulateVerb:
    def test_zero_initial_data_exits_clean(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "simulate", "-o", str(out),
                "--set", "n=32", "--set", "t_end=0.1", "--set", "dt=0.02",
                "--set", "initial_data=zero",
            ]
        )
        assert code == 0
        text = (out / "diagnostics.csv").read_text()
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in data_rows)

    def test_artifacts_embed_config(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["simulate", "-o", str(out), "--set", "n=32", "--set", "t_end=0.1",
             "--set", "dt=0.02", "--set", "kappa=0.9"]
        )
        assert code == 0
        assert "# kappa=0.9" in (out / "diagnostics.csv").read_text()
        assert "# kappa=0.9" in (out / "xt_trace.csv").read_text()

    def test_blowup_exits_3_and_saves_snapshot(self, tmp_path):
        out = tmp_path / "boom"
        with pytest.warns(UserWarning):
            code = main(
                ["simulate", "-o", str(out), "--set", "n=32", "--set", "dt=0.5",
                 "--set", "t_end=40", "--set", "amplitude=10000"]
            )
        assert code == 3
        assert (out / "last_snapshot.field").exists()

    def test_t_end_off_the_step_lattice_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "-o", str(tmp_path / "run"), "--set", "n=16",
             "--set", "dt=0.4", "--set", "t_end=1.0"]
        )
        assert code == 2
        assert "whole number of steps" in capsys.readouterr().err


class TestPicardVerb:
    def test_writes_convergence_and_levels(self, tmp_path):
        out = tmp_path / "pic"
        code = main(
            ["picard", "-o", str(out), "--set", "n=32", "--set", "t_end=0.1",
             "--set", "dt=0.02", "--set", "picard_depth=2", "--set", "amplitude=0.05"]
        )
        assert code == 0
        conv = (out / "convergence.csv").read_text()
        assert "sup_besov_gap_to_next" in conv
        assert (out / "diagnostics_level2.csv").exists()


class TestAnalyzeVerb:
    def test_heat_flow_snapshot_radius(self, tmp_path):
        # exact semigroup decay of flat data: fitted radius equals the time
        grid = Grid(64)
        kappa, t = 0.6, 0.5
        flat = SpectralField(grid, np.ones((64, 64), dtype=complex))
        field = heat_semigroup(flat, t, kappa)
        snap = tmp_path / "heat.field"
        save_field(snap, field, time=t)
        out = tmp_path / "ana"
        code = main(
            ["analyze", str(snap), "-o", str(out), "--set", f"alpha={kappa}",
             "--set", "n=64"]
        )
        assert code == 0
        text = (out / "analysis.csv").read_text()
        radius = float(next(l for l in text.splitlines() if l.startswith("# radius_estimate=")).split("=")[1])
        assert abs(radius - t) / t <= 0.02


class TestVerifyVerb:
    def test_single_check_writes_bundle(self, tmp_path):
        out = tmp_path / "ver"
        code = main(["verify", "--check", "concavity", "-o", str(out)])
        assert code == 0
        rows = [
            l for l in (out / "summary.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert rows[0] == "check_id,verdict,key_constant,residual"
        assert rows[1].startswith("concavity,pass")
        report = json.loads((out / "concavity.json").read_text())
        assert report["verdict"] == "pass"

    def test_unknown_check_is_usage_error(self, tmp_path):
        code = main(["verify", "--check", "nonsense", "-o", str(tmp_path / "x")])
        assert code == 2

    def test_override_flows_into_report(self, tmp_path):
        out = tmp_path / "ver2"
        code = main(
            ["verify", "--check", "positivity", "-o", str(out),
             "--set", "n=32", "--set", "trials=5"]
        )
        assert code == 0
        report = json.loads((out / "positivity.json").read_text())
        assert report["config"]["n"] == 32
        assert report["config"]["trials"] == 5


class TestSymbolsVerb:
    def test_lists_registry(self, capsys):
        assert main(["symbols"]) == 0
        out = capsys.readouterr().out
        for name in ("constant", "riesz-pair", "kgtrj", "ksimj", "mA", "mB", "commutator"):
            assert name in out


class TestUsage:
    def test_bad_verb_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_bad_override_exits_2(self, tmp_path):
        assert main(["simulate", "-o", str(tmp_path), "--set", "nonsense=1"]) == 2
