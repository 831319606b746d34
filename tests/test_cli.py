"""Tests for the command-line harness: config parsing, verbs, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sqgev
from sqgev import checks
from sqgev.checks import ALL_CHECKS, check_defaults
from sqgev.cli import (
    ANALYZE_KEYS,
    PICARD_KEYS,
    RUN_DEFAULTS,
    RUN_KEYS,
    UsageError,
    float_tuple,
    main,
    parse_config,
    write_csv,
    write_diagnostics,
)
from sqgev.dyadic import BesovParams
from sqgev.gevrey import GevreyParams, heat_semigroup, xt_norm
from sqgev.solver import (
    InitialData,
    SolverConfig,
    StabilityWarning,
    config_echo,
    config_from_flat,
    picard_solve,
    solve,
)
from sqgev.spectral import (
    Grid,
    RealField,
    SpectralField,
    forward_transform,
    load_field,
    save_field,
)

from reference import Collect, picard_gaps


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
            n=32, kappa=0.9, dt=0.02, t_end=0.08, dealias="none",
            picard_depth=2, record_every=2, p=4.0, q=1.0, alpha=0.3,
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
        # picard takes, and echoes, only the keys it reads
        sets = [arg for key in PICARD_KEYS for arg in ("--set", f"{key}={values[key]}")]
        assert main(["picard", "-o", str(tmp_path / "pic"), *sets]) == 0
        convergence = echoed(tmp_path / "pic" / "convergence.csv")
        assert set(convergence) & set(RUN_KEYS) == set(PICARD_KEYS)
        for key in PICARD_KEYS:
            assert RUN_KEYS[key](convergence[key]) == values[key]
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

    def test_cfl_note_reaches_the_diagnostics_echo(self, tmp_path):
        # the run exits 0 far past the CFL limit; its diagnostics say so
        out = tmp_path / "run"
        with pytest.warns(StabilityWarning, match="= 7.65"):
            code = main(
                ["simulate", "-o", str(out), "--set", "n=64", "--set", "dt=0.05",
                 "--set", "t_end=0.5", "--set", "amplitude=50"]
            )
        assert code == 0
        assert echoed(out / "diagnostics.csv")["cfl_note"] == (
            "advective CFL heuristic exceeded at t=0.05: dt*max|k|*max|u| = 7.65"
        )
        # a run within the limit writes no note
        quiet = tmp_path / "quiet"
        assert main(["simulate", "-o", str(quiet), "--set", "n=32", "--set", "t_end=0.1"]) == 0
        assert "cfl_note" not in echoed(quiet / "diagnostics.csv")

    def test_blowup_exits_3_and_saves_snapshot(self, tmp_path):
        out = tmp_path / "boom"
        with pytest.warns(UserWarning):
            code = main(
                ["simulate", "-o", str(out), "--set", "n=32", "--set", "dt=0.5",
                 "--set", "t_end=40", "--set", "amplitude=10000"]
            )
        assert code == 3
        # a snapshot of every good record, as the run wrote them, then the
        # last of them again and the diagnostics up to it
        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        snapshots = [f"snapshot_t{float(row['t']):.6f}.field" for row in rows]
        assert snapshots
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*snapshots, "last_snapshot.field", "diagnostics.csv"]
        )
        last = (out / "last_snapshot.field").read_bytes()
        assert last == (out / snapshots[-1]).read_bytes()

    def test_blowup_keeps_every_recorded_snapshot(self, tmp_path):
        out = tmp_path / "boom"
        with pytest.warns(UserWarning):
            code = main(
                ["simulate", "-o", str(out), "--set", "n=32", "--set", "dt=0.5",
                 "--set", "t_end=40", "--set", "amplitude=10000", "--set", "record_every=1"]
            )
        assert code == 3
        snapshots = sorted(out.glob("snapshot_t*.field"))
        assert len(snapshots) > 1
        _, header = load_field(out / "last_snapshot.field")
        assert header["time"] == max(load_field(p)[1]["time"] for p in snapshots)
        assert (out / "last_snapshot.field").read_bytes() == (
            out / f"snapshot_t{header['time']:.6f}.field"
        ).read_bytes()

    def test_t_end_off_the_step_lattice_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "-o", str(tmp_path / "run"), "--set", "n=16",
             "--set", "dt=0.4", "--set", "t_end=1.0"]
        )
        assert code == 2
        assert "whole number of steps" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", ["file:{missing}", "filexyz"])
    def test_bad_snapshot_profile_exits_2(self, tmp_path, capsys, profile):
        profile = profile.format(missing=tmp_path / "missing.field")
        code = main(["simulate", "-o", str(tmp_path / "run"), "--set", "n=16",
                     "--set", f"initial_data={profile}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("verb", ["simulate", "picard"])
    def test_unreadable_initial_data_leaves_no_output_dir(self, tmp_path, capsys, verb):
        out = tmp_path / "run"
        code = main([verb, "-o", str(out), "--set", "n=16",
                     "--set", f"initial_data=file:{tmp_path / 'missing.field'}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read snapshot")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["simulate", "picard"])
    def test_blowup_of_the_initial_row_saves_nothing(self, tmp_path, capsys, verb):
        # two finite 1e200 coefficients overflow the initial diagnostics row,
        # so the run ends before a snapshot is recorded
        coeffs = np.zeros((16, 16), dtype=complex)
        coeffs[1, 2] = coeffs[-1, -2] = 1e200
        snap = tmp_path / "huge.field"
        save_field(snap, SpectralField(Grid(16), coeffs))
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([verb, "-o", str(out), "--set", "n=16", "--set", "dealias=none",
                         "--set", f"initial_data=file:{snap}"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up at t=0")
        assert err[0].endswith("; no snapshot saved")
        assert not out.exists()

    def test_gevrey_overflow_exits_3_with_one_line(self, tmp_path, capsys):
        # gamma(0.1) = 1000 * 0.1^0.5 is past the overflow guard on n = 32:
        # the X_T trace, written last, fails and the run's other artifacts stay
        out = tmp_path / "run"
        code = main(
            ["simulate", "-o", str(out), "--set", "n=32", "--set", "t_end=0.1",
             "--set", "lam=1000"]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gevrey overflow:")
        assert (out / "diagnostics.csv").exists()
        assert sorted(p.name for p in out.glob("snapshot_t*.field")) == [
            "snapshot_t0.000000.field", "snapshot_t0.100000.field"
        ]
        assert not (out / "xt_trace.csv").exists()


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
        # the gap column is the gaps of the same run, collected
        cfg = SolverConfig(grid=Grid(32), t_end=0.1, dt=0.02, picard_depth=2,
                           initial_data=InitialData(amplitude=0.05))
        assert [f"# {k}={v}" for k, v in config_echo(cfg).items()] == [
            line for line in conv.splitlines() if line.startswith("#")
        ]
        rows = list(csv.reader(line for line in conv.splitlines() if not line.startswith("#")))
        sink = Collect()
        picard_solve(cfg, sink)
        gaps = picard_gaps(sink, cfg)
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

    @pytest.mark.parametrize("key", ["lam", "beta"])
    @pytest.mark.parametrize("source", ["--set", "--config"])
    def test_a_trace_key_exits_2(self, tmp_path, capsys, key, source):
        # picard writes no X_T trace, so it reads neither of its keys
        assert set(RUN_KEYS) - set(PICARD_KEYS) == {"lam", "beta"}
        item = f"{key}={RUN_DEFAULTS[key]}"
        if source == "--config":
            (tmp_path / "run.cfg").write_text(f"n=16\n{item}\n")
            item = str(tmp_path / "run.cfg")
        out = tmp_path / "pic"
        assert main(["picard", "-o", str(out), source, item]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_real_snapshot_is_analyzed_as_its_transform(self, tmp_path):
        grid = Grid(32)
        x1, x2 = grid.meshgrid()
        real = RealField(grid, np.cos(x1) * np.sin(2 * x2) + 0.5 * np.cos(3 * x1 + x2))
        tables = []
        for name, field in (("real", real), ("spectral", forward_transform(real))):
            snap = tmp_path / f"{name}.field"
            save_field(snap, field)
            assert main(["analyze", str(snap), "-o", str(tmp_path / name)]) == 0
            text = (tmp_path / name / "analysis.csv").read_text().splitlines()
            tables.append([l for l in text if not l.startswith("# snapshot")])
        assert tables[0] == tables[1]

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ana"
        assert main(["analyze", str(tmp_path / "missing.field"), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read snapshot")
        assert not out.exists()


class TestVerifyVerb:
    def test_single_check_writes_bundle(self, tmp_path):
        out = tmp_path / "ver"
        code = main(["verify", "--check", "concavity", "-o", str(out)])
        assert code == 0
        rows = [
            l for l in (out / "summary.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert rows[0] == "check_id,verdict,worst_clause,margin,residual,message"
        assert rows[1].startswith("concavity,pass,")
        assert rows[1].endswith(",")  # no message on a check that ran
        report = json.loads((out / "concavity.json").read_text())
        assert report["verdict"] == "pass"

    def test_unknown_check_is_usage_error(self, tmp_path, capsys):
        code = main(["verify", "--check", "nonsense", "-o", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown check 'nonsense'" in err
        assert all(cid in err for cid in ALL_CHECKS)
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("check, item, message", [
        ("lin-gevrey", "alpha=0.9", "need 0 < alpha < kappa"),
        ("commutator-decay", "delta=1.5", "need 0 < delta < 1"),
        # not above commutator_gamma = 0.05
        ("commutator-decay", "field_damping=0.01", "need damping gamma' > gamma"),
    ])
    def test_parameter_outside_the_estimate_exits_2(self, tmp_path, capsys, check, item, message):
        code = main(["verify", "--check", check, "-o", str(tmp_path / "v"),
                     "--set", item, "--set", "trials=1"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("check, bands", [
        ("bernstein", ["j_hi=9"]), ("heat-kernel", ["j_hi=9"]), ("lin-gevrey", ["j_hi=9"]),
        ("commutator-decay", ["j_lo=-9"]), ("commutator-decay", ["j_hi=9"]),
        ("bernstein", ["j_lo=4", "j_hi=3"]),  # an empty range
    ])
    def test_band_range_outside_the_grid_exits_2(self, tmp_path, capsys, check, bands):
        sets = [a for band in bands for a in ("--set", band)]
        code = main(["verify", "--check", check, "-o", str(tmp_path / "v"),
                     *sets, "--set", "trials=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: band range") and "resolved range [0, 5]" in err

    def test_commutator_decay_on_one_band_exits_2(self, tmp_path, capsys):
        code = main(["verify", "--check", "commutator-decay", "-o", str(tmp_path / "v"),
                     "--set", "j_lo=2", "--set", "j_hi=2", "--set", "trials=2"])
        assert code == 2
        assert "at least two bands" in capsys.readouterr().err

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

    def test_int_tuple_key(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["verify", "--check", "r-derivatives", "-o", str(out), "--set", "gap_set=3,4"])
        assert code == 0
        assert json.loads((out / "r-derivatives.json").read_text())["config"]["gap_set"] == [3, 4]
        code = main(["verify", "--check", "r-derivatives", "-o", str(tmp_path / "w"),
                     "--set", "gap_set=3.5"])
        assert code == 2
        assert "'gap_set' expects int_tuple" in capsys.readouterr().err

    @pytest.mark.parametrize("check, item", [
        ("lin-gevrey", "constant_cap=1e9"), ("bernstein", "box_length=3"),
        ("simulate", "box_length=3"), ("picard", "box_length=3"),
    ])
    def test_verdict_bounds_and_the_box_are_not_keys(self, tmp_path, capsys, check, item):
        # a verdict bound is a constant of the checks, and every check and
        # every run is on the 2*pi box
        out = tmp_path / "v"
        run = check in ("simulate", "picard")
        verb = [check] if run else ["verify", "--check", check]
        assert main([*verb, "-o", str(out), "--set", item]) == 2
        err = capsys.readouterr().err
        assert ("unknown key 'box_length'" if run else "no selected check takes") in err
        assert not out.exists()

    def test_gevrey_overflow_exits_3(self, tmp_path, capsys):
        code = main(
            ["verify", "--check", "wellposedness", "-o", str(tmp_path / "v"),
             "--set", "n=32", "--set", "lam=1000"]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gevrey overflow:")

    def test_a_raising_check_is_recorded_and_the_rest_still_run(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(
            ["verify", "--check", "concavity", "--check", "wellposedness", "-o", str(out),
             "--set", "n=32", "--set", "lam=1000"]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gevrey overflow:")
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [(row["check_id"], row["verdict"]) for row in rows] == [
            ("concavity", "pass"), ("wellposedness", "error")
        ]
        assert rows[1]["message"] == err[0]
        assert rows[1]["worst_clause"] == "" and math.isnan(float(rows[1]["margin"]))
        assert (out / "concavity.json").exists()
        assert not (out / "wellposedness.json").exists()

    @pytest.mark.parametrize("check, sets, code", [
        # no trials at all: a configuration error, before any work
        ("bernstein", ["n=32", "j_hi=3", "trials=0"], 2),
        ("heat-kernel", ["n=32", "j_hi=3", "trials=0"], 2),
        ("lin-gevrey", ["n=32", "j_hi=3", "trials=0"], 2),
        ("positivity", ["n=16", "trials=0"], 2),
        ("commutator-decay", ["n=32", "j_hi=3", "trials=0"], 2),
        ("wellposedness", ["n=32", "t_end=0.2", "dt=0.02", "record_every=5", "picard_depth=1",
                           "amplitudes=0.1,0"], 2),
        # trials whose clauses have no data: inconclusive
        ("lin-gevrey", ["n=32", "j_hi=3", "trials=3", "gamma_set=10000"], 4),
        ("heat-kernel", ["n=32", "j_hi=3", "trials=3", "t_grid=1e6"], 4),
    ])
    def test_input_without_data_does_not_pass(self, tmp_path, capsys, check, sets, code):
        out = tmp_path / "v"
        sets = [a for s in sets for a in ("--set", s)]
        assert main(["verify", "--check", check, "-o", str(out), *sets]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
            return
        assert captured.out.split()[:2] == [check, "inconclusive"]
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(line for line in fh if not line.startswith("#"))
        assert row["verdict"] == "inconclusive" and math.isnan(float(row["margin"]))

    def test_worst_clause_is_printed_and_summarized(self, tmp_path, capsys):
        out = tmp_path / "v"
        argv = ["verify", "--check", "wellposedness", "-o", str(out),
                "--set", "kappa=0.5", "--set", "alpha=0.45", "--set", "beta=0.2"]
        assert main(argv) == 4
        printed = capsys.readouterr().out.split()
        assert printed == ["wellposedness", "fail", "radius_slope=-0.292085"]
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(line for line in fh if not line.startswith("#"))
        assert (row["worst_clause"], row["verdict"]) == ("radius_slope", "fail")
        report = json.loads((out / "wellposedness.json").read_text())
        assert float(row["margin"]) == min(c["margin"] for c in report["clauses"])

    def test_checks_after_a_raising_check_still_run(self, tmp_path):
        out = tmp_path / "v"
        code = main(
            ["verify", "--check", "wellposedness", "--check", "concavity", "-o", str(out),
             "--set", "n=32", "--set", "lam=1000"]
        )
        assert code == 3
        assert json.loads((out / "concavity.json").read_text())["verdict"] == "pass"


def collected_simulate(argv: list[str], out) -> None:
    """The artifacts of `simulate` with argv's --set overrides, written from
    a run collected by the tests' sink: its diagnostics, every snapshot, and
    the X_T trace, one xt_norm call per sample at t > 0."""
    params = parse_config(None, argv[1::2], RUN_KEYS, RUN_DEFAULTS)
    cfg = config_from_flat(SolverConfig, params)
    gp = config_from_flat(GevreyParams, params)
    sink = Collect()
    traj = solve(cfg, sink)
    out.mkdir()
    write_diagnostics(traj, out / "diagnostics.csv")
    echo = {f"config_{key}": val for key, val in config_echo(cfg).items()}
    for t, snap in zip(traj.times, sink.snapshots[0]):
        save_field(out / f"snapshot_t{t:.6f}.field", snap, time=t, extra=echo)
    bp = BesovParams(cfg.sigma + gp.beta, cfg.p, cfg.q)
    samples = [xt_norm(t, snap, gp, bp) for t, snap in sink.samples()]
    radii = {row["t"]: row["radius"] for row in traj.diagnostics}
    write_csv(
        out / "xt_trace.csv",
        {**config_echo(cfg), "lam": gp.lam, "beta": gp.beta},
        ["t", "gamma_t", "besov_norm", "weighted_norm", "radius_estimate"],
        ([s.t, s.gamma, s.besov, s.weighted, radii[s.t]] for s in samples),
    )


class TestRecordStreaming:
    @pytest.mark.parametrize("p", ["2", "4"])
    def test_simulate_writes_what_the_collected_run_gives(self, tmp_path, p):
        argv = ["--set", "n=32", "--set", "t_end=0.1", "--set", "dt=0.02",
                "--set", "record_every=2", "--set", f"p={p}"]
        assert main(["simulate", *argv, "-o", str(tmp_path / "run")]) == 0
        collected_simulate(argv, tmp_path / "ref")
        names = sorted(path.name for path in (tmp_path / "ref").iterdir())
        assert len(names) == 6  # 4 snapshots, the diagnostics and the trace
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == names
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "ref" / name
            ).read_bytes(), name

    def test_picard_gaps_and_finals_equal_the_collected_run(self, tmp_path):
        out = tmp_path / "pic"
        code = main(
            ["picard", "-o", str(out), "--set", "n=32", "--set", "t_end=0.1",
             "--set", "dt=0.02", "--set", "picard_depth=3", "--set", "amplitude=0.5",
             "--set", "record_every=1"]
        )
        assert code == 0
        cfg = SolverConfig(grid=Grid(32), t_end=0.1, dt=0.02, picard_depth=3, record_every=1,
                           initial_data=InitialData(amplitude=0.5))
        sink = Collect()
        levels = picard_solve(cfg, sink)
        with open(out / "convergence.csv") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert [float(gap) for _, gap in rows[1:]] == picard_gaps(sink, cfg)
        for lvl, traj in enumerate(levels):
            final, header = load_field(out / f"final_level{lvl}.field")
            assert header["time"] == traj.times[-1]
            assert np.array_equal(final.coeffs, sink.snapshots[lvl][-1].coeffs)

    def test_simulate_memory_does_not_grow_with_the_record_count(self, tmp_path):
        def run(t_end):
            return main(["simulate", "-o", str(tmp_path / t_end), "--set", "n=128",
                         "--set", "record_every=1", "--set", f"t_end={t_end}"])

        assert run("0.01") == 0  # the grid's caches
        peaks = []
        for t_end in ("0.03", "0.3"):
            tracemalloc.start()
            try:
                assert run(t_end) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 4 and 31 records.  Python 3.11, numpy 2.4: 2.06 and 2.08 MiB;
        # 2.96 and 11.08 MiB when every recorded field was held until the
        # run ended
        assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20


# The text columns of summary.csv; every other cell of every table is a float
# or an int.
TEXT_COLUMNS = {"check_id", "verdict", "worst_clause", "message"}


class TestArtifactTables:
    def test_every_numeric_cell_parses_as_a_float(self, tmp_path):
        runs = {
            "sim": ["simulate", "--set", "n=32", "--set", "t_end=0.1", "--set", "dt=0.02"],
            "pic": ["picard", "--set", "n=32", "--set", "t_end=0.1", "--set", "dt=0.02",
                    "--set", "picard_depth=1"],
            "ver": ["verify", "--check", "concavity", "--check", "positivity",
                    "--set", "n=16", "--set", "trials=2"],
        }
        for name, argv in runs.items():
            assert main([*argv, "-o", str(tmp_path / name)]) == 0
        snap = max((tmp_path / "sim").glob("snapshot_t*.field"))
        assert main(["analyze", str(snap), "-o", str(tmp_path / "ana")]) == 0
        tables = sorted(tmp_path.glob("*/*.csv"))
        assert {p.name for p in tables} == {
            "diagnostics.csv", "xt_trace.csv", "convergence.csv", "diagnostics_level0.csv",
            "diagnostics_level1.csv", "analysis.csv", "summary.csv",
        }
        for path in tables:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
            assert rows, path
            for row in rows:
                for column, cell in zip(header, row):
                    if column not in TEXT_COLUMNS:
                        float(cell)


# The fuzz values of an int or float key, or of a tuple of them.
FUZZ_VALUES = {int: ("0", "-1", "99"), float: ("nan", "inf", "-inf", "0", "-1")}

# Every scalar key of the checks that never call the solver, and every flat
# tuple key of every check, with the fuzz values.  99 is left out for n,
# trials and max_order: it is a size there, which costs time or memory and
# tests no validation (max_order=99 once ran out of memory).
BAD_VERIFY_VALUES = [
    (cid, key, value)
    for cid in ALL_CHECKS
    for key, default in check_defaults(cid).items()
    if isinstance(default, (int, float)) and cid != "wellposedness"
    or isinstance(default, tuple) and not isinstance(default[0], tuple)
    for value in FUZZ_VALUES[type(default[0] if isinstance(default, tuple) else default)]
    if not (value == "99" and key in ("n", "trials", "max_order"))
] + [("r-derivatives", "gap_set", "1"),  # the least gap whose probe shells touch
       ("wellposedness", "amplitudes", "0.5")]  # one finite amplitude, where two are read
# Verify cases that once ended in a traceback, or in a pass on a value no
# check can use.
VERIFY_CONFIG_ERRORS = {
    ("bernstein", "s_set", "nan"), ("bernstein", "s_set", "inf"),
    ("positivity", "s_set", "nan"), ("positivity", "s_set", "inf"),
    ("positivity", "s_set", "-1"), ("positivity", "s_set", "-inf"),
    ("heat-kernel", "kappa_set", "nan"), ("heat-kernel", "kappa_set", "inf"),
    ("heat-kernel", "kappa_set", "0"), ("heat-kernel", "kappa_set", "-1"),
    ("heat-kernel", "kappa_set", "-inf"), ("heat-kernel", "t_grid", "nan"),
    ("heat-kernel", "t_grid", "-inf"), ("heat-kernel", "t_grid", "0"),
    ("heat-kernel", "t_grid", "-1"), ("heat-kernel", "p_set", "-inf"),
    ("heat-kernel", "p_set", "0"), ("heat-kernel", "p_set", "-1"),
    ("lin-gevrey", "kappa", "inf"), ("lin-gevrey", "gamma_set", "nan"),
    ("lin-gevrey", "gamma_set", "-1"), ("lin-gevrey", "p_set", "-inf"),
    ("lin-gevrey", "p_set", "0"), ("lin-gevrey", "p_set", "-1"),
    ("concavity", "alpha_set", "-1"), ("concavity", "c_set", "0"),
    ("wellposedness", "amplitudes", "inf"), ("r-derivatives", "sigma_set", "nan"),
    # these ten, and the s_set, p_set and kappa cases of bernstein, heat-kernel
    # and lin-gevrey above, were once rejected only after fields were drawn
    ("bernstein", "s_set", "-inf"), ("heat-kernel", "p_set", "nan"),
    ("commutator-decay", "commutator_alpha", "-1"),
    ("commutator-decay", "commutator_alpha", "-inf"),
    ("commutator-decay", "commutator_alpha", "0"),
    ("commutator-decay", "commutator_alpha", "inf"),
    ("commutator-decay", "commutator_alpha", "nan"),
    ("commutator-decay", "commutator_gamma", "-inf"),
    ("commutator-decay", "field_damping", "inf"), ("lin-gevrey", "p_set", "nan"),
    # these three once ran the stencils and failed the bound (exit 4)
    ("r-derivatives", "gap_set", "0"), ("r-derivatives", "gap_set", "1"),
    ("r-derivatives", "gap_set", "-1"),
    # this one ended in an IndexError traceback at amplitudes[1]
    ("wellposedness", "amplitudes", "0.5"),
}
# The check functions that draw a field, run the solver or build a stencil.
DRAWS = ("_shaped_band_field", "_smooth_noise", "_prescribed_profile_field", "initial_field",
         "solve", "picard_solve", "_multi_indices", "_fd_stencil")


def verify_argv(cid, key, value, out):
    """verify of one check with key=value, at sizes that resolve the check's
    bands, so that every value reaches the code that reads it."""
    sizes = {"n": 16, "j_lo": 0, "j_hi": 2, "trials": 1,
             "t_end": 0.04, "picard_depth": 2, "record_every": 1}
    if cid == "commutator-decay":  # its decay fit needs two bands from j = 1
        sizes.update(n=32, j_lo=1)
    argv = ["verify", "--check", cid, "-o", str(out), "--set", f"{key}={value}"]
    for size, default in sizes.items():
        if size in check_defaults(cid) and size != key:
            argv += ["--set", f"{size}={default}"]
    return argv


def verify_exits_2(cid, key, value):
    """Whether a BAD_VERIFY_VALUES case is a config error: a hand-listed one,
    no trials, a negative seed, or a max_order that measures no derivative."""
    return (cid, key, value) in VERIFY_CONFIG_ERRORS or key in ("trials", "max_order") or (
        key == "seed" and value == "-1"
    )


# Every int or float key of simulate, picard and analyze, and every scalar
# key of wellposedness, with the fuzz values.
FUZZ_KEYS = {
    "simulate": RUN_KEYS,
    "picard": PICARD_KEYS,
    "analyze": ANALYZE_KEYS,
    "wellposedness": {
        key: type(default) for key, default in check_defaults("wellposedness").items()
    },
}
FUZZ_CASES = [
    (verb, key, value)
    for verb, keys in FUZZ_KEYS.items()
    for key, kind in keys.items()
    if kind in FUZZ_VALUES
    for value in FUZZ_VALUES[kind]
]
# Fuzz cases that once ended in a traceback or in an exit code other than 2.
FUZZ_CONFIG_ERRORS = {
    ("analyze", "p", "0"), ("analyze", "p", "nan"), ("analyze", "q", "nan"),
    ("analyze", "kappa", "nan"), ("analyze", "kappa", "inf"),
    ("analyze", "alpha", "nan"), ("analyze", "alpha", "-1"),
    ("simulate", "lam", "nan"), ("simulate", "lam", "inf"),
    ("wellposedness", "lam", "nan"), ("wellposedness", "lam", "inf"),
    ("simulate", "ring_j", "99"), ("picard", "ring_j", "99"),
}


class TestUsage:
    def test_bad_verb_exits_2(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("verb", ["simulate", "picard"])
    @pytest.mark.parametrize("item", [
        "t_end=nan", "t_end=inf", "dt=nan", "p=0", "q=0.5", "init_seed=-1",
        "alpha=nan", "alpha=-1", "amplitude=nan", "amplitude=inf",
    ])
    def test_bad_run_value_exits_2(self, tmp_path, capsys, verb, item):
        # a value no run can use is a config error, not a traceback and not
        # a run that ends with exit 0
        argv = [verb, "-o", str(tmp_path / "out"),
                "--set", "n=16", "--set", "t_end=0.04", "--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    # a RuntimeWarning (a division by zero, an inf times 0) is an error here:
    # a value outside a check's hypotheses is rejected before it is computed with
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cid, key, value", BAD_VERIFY_VALUES)
    def test_bad_verify_value_exits_0_or_2(self, tmp_path, capsys, cid, key, value):
        # a value no check can use is a config error or a verdict, never a
        # traceback; no trials, a negative seed, and a max_order that
        # measures no derivative, are config errors
        code = main(verify_argv(cid, key, value, tmp_path / "out"))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if verify_exits_2(cid, key, value):
            assert code == 2 and err.startswith("error: ")
        else:
            assert code in (0, 2, 4)

    @pytest.mark.parametrize(
        "cid, key, value", [case for case in BAD_VERIFY_VALUES if verify_exits_2(*case)]
    )
    def test_config_error_comes_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                cid, key, value):
        # run_check tests every hypothesis before the check draws a field,
        # runs the solver or builds a stencil
        def no_field(*args, **kwargs):
            raise AssertionError("a field was drawn")

        for name in DRAWS:
            monkeypatch.setattr(checks, name, no_field)
        assert main(verify_argv(cid, key, value, tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("verb", ["analyze", "simulate"])
    def test_non_hermitian_snapshot_exits_2(self, tmp_path, capsys, verb):
        # a 16 x 16 spectrum with one unpaired mode is not a real field
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = c[-1, -2] = 1.0
        c[2, 3] = 0.5
        snap = tmp_path / "bad.field"
        save_field(snap, SpectralField(Grid(16), c))
        argv = (["analyze", str(snap)] if verb == "analyze" else
                ["simulate", "--set", "n=16", "--set", "t_end=0.04",
                 "--set", f"initial_data=file:{snap}"])
        assert main([*argv, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not Hermitian" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb, key, value", FUZZ_CASES)
    def test_fuzzed_value_exits_with_a_code(self, tmp_path, capsys, verb, key, value):
        # a run at n = 16 over four steps, or analyze on an n = 16 snapshot:
        # every value ends in an exit code, never in a traceback, and a
        # value that no run or report can use is a config error
        sizes = {"n": 16, "t_end": 0.04}
        if verb == "analyze":
            snap = tmp_path / "flat.field"
            save_field(snap, SpectralField(Grid(16), np.ones((16, 16), dtype=complex)))
            argv, sizes = ["analyze", str(snap)], {}
        elif verb == "wellposedness":
            argv = ["verify", "--check", verb]
            sizes.update(picard_depth=2, record_every=1)
        else:
            argv = [verb, *(["--set", "initial_data=single-ring"] if key == "ring_j" else [])]
        for size, default in sizes.items():
            if size != key:
                argv += ["--set", f"{size}={default}"]
        code = main([*argv, "-o", str(tmp_path / "out"), "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if (verb, key, value) in FUZZ_CONFIG_ERRORS:
            assert code == 2 and err.startswith("error: ")
        else:
            assert code in (0, 2, 3, 4)

    def test_bad_override_exits_2(self, tmp_path):
        assert main(["simulate", "-o", str(tmp_path), "--set", "nonsense=1"]) == 2

    def test_override_without_equals_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "-o", str(tmp_path / "out"), "--set", "kappa"]) == 2
        assert "override must be key=value, got 'kappa'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["simulate", "analyze", "verify"])
    def test_sharpness_is_not_a_key(self, tmp_path, capsys, verb):
        # the dyadic bump is fixed, so no verb takes its sharpness
        snap = tmp_path / "flat.field"
        save_field(snap, SpectralField(Grid(16), np.ones((16, 16), dtype=complex)))
        argv = [verb, *([str(snap)] if verb == "analyze" else []),
                "-o", str(tmp_path / "out"), "--set", "sharpness=12.0"]
        assert main(argv) == 2
        assert "unknown key 'sharpness'" in capsys.readouterr().err


class TestColdStart:
    def test_cli_import_leaves_out_the_harness(self):
        # simulate, picard and analyze start without compiling the checks or
        # the bilinear symbols; only verify loads them
        src = str(Path(sqgev.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import json, sys, sqgev.cli; print(json.dumps(sorted(sys.modules)))"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        loaded = json.loads(run.stdout)
        assert "sqgev.cli" in loaded
        assert "sqgev.checks" not in loaded and "sqgev.bilinear" not in loaded

    def test_verify_help_exits_0(self, capsys):
        assert main(["verify", "--help"]) == 0
        assert "--check CHECK_ID" in capsys.readouterr().out
