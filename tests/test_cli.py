"""Tests for the command-line harness: config parsing, verbs, exit codes."""

import csv
import json

import numpy as np
import pytest

from sqgev.cli import (
    ANALYZE_KEYS,
    RUN_DEFAULTS,
    RUN_KEYS,
    UsageError,
    float_tuple,
    main,
    parse_config,
)
from sqgev.dyadic import build_system
from sqgev.gevrey import heat_semigroup
from sqgev.solver import InitialData, SolverConfig, config_echo, picard_gaps, picard_solve
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


def echoed(path):
    """The '# key=value' header lines of an artifact."""
    lines = path.read_text().splitlines()
    return dict(l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l)


class TestRunKeys:
    def test_every_run_key_round_trips(self, tmp_path):
        values = dict(
            n=32, box_length=3.0, kappa=0.9, dt=0.02, t_end=0.08, dealias="none",
            picard_depth=2, record_every=2, p=4.0, q=1.0, alpha=0.3, sharpness=10.0,
            initial_data="gaussian-pair", amplitude=0.05, init_seed=3, ring_j=3,
            lam=0.7, beta=0.2,
        )
        assert set(values) == set(RUN_KEYS)
        assert all(value != RUN_DEFAULTS[key] for key, value in values.items())
        sets = [arg for key, value in values.items() for arg in ("--set", f"{key}={value}")]
        run = tmp_path / "run"
        assert main(["simulate", "-o", str(run), *sets]) == 0
        config = echoed(run / "diagnostics.csv")
        trace = echoed(run / "xt_trace.csv")
        for key, value in values.items():
            raw = trace[key] if key in ("lam", "beta") else config[key]
            assert RUN_KEYS[key](raw) == value
        # analyze takes, and echoes, only the keys it reads
        snapshot = next(run.glob("snapshot_*.field"))
        sets = [arg for key in ANALYZE_KEYS for arg in ("--set", f"{key}={values[key]}")]
        assert main(["analyze", str(snapshot), "-o", str(tmp_path / "ana"), *sets]) == 0
        analysis = echoed(tmp_path / "ana" / "analysis.csv")
        assert set(analysis) & set(RUN_KEYS) == set(ANALYZE_KEYS)
        for key in ANALYZE_KEYS:
            assert RUN_KEYS[key](analysis[key]) == values[key]


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
        # the gap column is picard_gaps of the same run
        cfg = SolverConfig(grid=Grid(32), t_end=0.1, dt=0.02, picard_depth=2,
                           initial_data=InitialData(amplitude=0.05))
        assert [f"# {k}={v}" for k, v in config_echo(cfg).items()] == [
            line for line in conv.splitlines() if line.startswith("#")
        ]
        rows = list(csv.reader(line for line in conv.splitlines() if not line.startswith("#")))
        gaps = picard_gaps(picard_solve(cfg), build_system(cfg.grid, cfg.sharpness))
        assert rows[1:] == [[str(lvl), repr(gap)] for lvl, gap in enumerate(gaps)]

    @pytest.mark.parametrize("kappa", ["0.5", "1.5"])
    def test_kappa_outside_the_x_t_range_runs(self, tmp_path, kappa):
        # only simulate writes the X_T trace, so only simulate needs
        # 0 <= beta < kappa/2 and kappa <= 1
        code = main(
            ["picard", "-o", str(tmp_path / "pic"), "--set", "n=16", "--set", "t_end=0.02",
             "--set", f"kappa={kappa}"]
        )
        assert code == 0

    def test_blowup_exits_3_and_saves_the_failing_level(self, tmp_path):
        out = tmp_path / "boom"
        with pytest.warns(UserWarning):
            code = main(
                ["picard", "-o", str(out), "--set", "n=32", "--set", "dt=0.5",
                 "--set", "t_end=50", "--set", "amplitude=10000", "--set", "picard_depth=2",
                 "--set", "record_every=1000"]
            )
        assert code == 3
        files = sorted(p.name for p in out.iterdir())
        assert files == ["diagnostics_level2.csv", "last_snapshot_level2.field"]
        assert "# picard_depth=2" in (out / "diagnostics_level2.csv").read_text()

    def test_non_finite_diagnostics_exit_3_and_stay_out_of_the_csv(self, tmp_path):
        out = tmp_path / "boom"
        with pytest.warns(UserWarning):
            code = main(
                ["picard", "-o", str(out), "--set", "n=32", "--set", "dt=0.5",
                 "--set", "t_end=50", "--set", "amplitude=10000", "--set", "picard_depth=2",
                 "--set", "record_every=1", "--set", "init_seed=7"]
            )
        assert code == 3
        (csv_path,) = out.glob("diagnostics_level*.csv")
        text = csv_path.read_text().lower()
        assert "inf" not in text and "nan" not in text

    def test_hermitian_defect_in_diagnostics_exits_3(self, tmp_path):
        with pytest.warns(UserWarning):
            code = main(
                ["picard", "-o", str(tmp_path / "boom"), "--set", "n=32", "--set", "dt=0.5",
                 "--set", "t_end=50", "--set", "amplitude=100000", "--set", "picard_depth=1",
                 "--set", "record_every=1", "--set", "init_seed=7"]
            )
        assert code == 3
        assert (tmp_path / "boom" / "last_snapshot_level1.field").exists()


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
        code = main(["analyze", str(snap), "-o", str(out), "--set", f"alpha={kappa}"])
        assert code == 0
        text = (out / "analysis.csv").read_text()
        radius = float(next(l for l in text.splitlines() if l.startswith("# radius_estimate=")).split("=")[1])
        assert abs(radius - t) / t <= 0.02

    @pytest.mark.parametrize("key", ["n", "dt", "lam"])
    def test_key_analyze_does_not_read_exits_2(self, tmp_path, key):
        snap = tmp_path / "flat.field"
        save_field(snap, SpectralField(Grid(16), np.ones((16, 16), dtype=complex)))
        out = tmp_path / "ana"
        assert main(["analyze", str(snap), "-o", str(out), "--set", f"{key}={RUN_DEFAULTS[key]}"]) == 2
        assert not (out / "analysis.csv").exists()


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

    def test_key_no_selected_check_takes_exits_2(self, tmp_path, capsys):
        code = main(
            ["verify", "--check", "concavity", "-o", str(tmp_path / "v"), "--set", "dt=99"]
        )
        assert code == 2
        assert "dt" in capsys.readouterr().err

    def test_exponent_outside_the_lemma_exits_2(self, tmp_path, capsys):
        code = main(
            ["verify", "--check", "positivity", "-o", str(tmp_path / "v"),
             "--set", "n=16", "--set", "trials=1", "--set", "p_set=1,2"]
        )
        assert code == 2
        assert "positivity" in capsys.readouterr().err

    def test_key_goes_to_each_selected_check_that_takes_it(self, tmp_path):
        out = tmp_path / "v"
        code = main(
            ["verify", "--check", "concavity", "--check", "positivity", "-o", str(out),
             "--set", "n=16", "--set", "trials=2", "--set", "seed=3"]
        )
        assert code == 0
        concavity = json.loads((out / "concavity.json").read_text())["config"]
        positivity = json.loads((out / "positivity.json").read_text())["config"]
        assert concavity == {"seed": 3, "alpha_set": [0.3, 0.5, 0.9], "c_set": [0.5, 1.0, 2.0]}
        assert (positivity["n"], positivity["trials"], positivity["seed"]) == (16, 2, 3)


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
