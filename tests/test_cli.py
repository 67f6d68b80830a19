"""Command line front end: configs, formats, exit codes, determinism."""

import argparse
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import castrace.cli
from castrace.cli import (
    _BLOCK_ROWS,
    _HARMONIC_KEY,
    EXIT_BROKEN_PIPE,
    _read_curve,
    build_parser,
    load_config,
    main,
    parse_config_text,
    report_blocks,
    write_output,
)
from castrace.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"

FLAT_C0 = repr(-math.pi**2 / 720.0)


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return [float(row[idx]) for row in rows]


class TestConfigParsing:
    def test_comments_and_blanks(self):
        entries = parse_config_text("# header\n\nc0 = 1.5  # inline\n d_s=3\n")
        assert entries == {"c0": "1.5", "d_s": "3"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(Exception):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(Exception):
            parse_config_text("just words\n")

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("trace", "c0 = abc\nd_min = 1\nd_max = 2\npoints = 3\n",
             "key 'c0': not a number: 'abc'"),
            ("trace", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 3.5\n",
             "key 'points': not an integer: '3.5'"),
            ("stack", "positions = 0, x\ncouplings = 1, 1\n",
             "key 'positions': not a number list: '0, x'"),
            ("trace", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 3\nspacing = cubic\n",
             "key 'spacing': expected one of linear, log, got 'cubic'"),
            ("trace", "c0 = 1\na1 = x\nd_min = 1\nd_max = 2\npoints = 3\n",
             "key 'a1': not a number: 'x'"),
        ],
        ids=["float", "int", "float-list", "choice", "harmonic"],
    )
    def test_bad_value_messages(self, tmp_path, capsys, command, text, message):
        cfg = write_config(tmp_path, "c.cfg", text)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestTraceCommand:
    def test_constant_coefficient_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "t.cfg",
            f"c0 = {FLAT_C0}\nd_min = 0.5\nd_max = 8\npoints = 40\nspacing = log\n",
        )
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        assert all(v == 0.0 for v in column(out, "vacuum_trace"))
        assert all(v == 0.0 for v in column(out, "ricci"))

    def test_flat_plate_row(self, tmp_path):
        cfg = write_config(
            tmp_path, "t.cfg",
            f"c0 = {FLAT_C0}\nd_min = 1\nd_max = 2\npoints = 2\nspacing = linear\n",
        )
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        assert column(out, "p_perp")[0] == pytest.approx(-math.pi**2 / 240, rel=1e-12)
        assert column(out, "e")[0] == pytest.approx(-math.pi**2 / 720, rel=1e-12)

    def test_euclidean_thermal_sector_traceless(self, tmp_path):
        cfg = write_config(
            tmp_path, "t.cfg",
            "c0 = 1\nrho_th = 4.0\nd_s = 3\nd_min = 1\nd_max = 2\npoints = 5\n",
        )
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        assert all(v == 0.0 for v in column(out, "thermal_trace"))

    def test_harmonic_keys_and_running(self, tmp_path):
        cfg = write_config(
            tmp_path, "t.cfg",
            "c0 = 1\nperiod = 1.0986122886681098\nb1 = 0.1\n"
            "d_min = 1\nd_max = 2\npoints = 2\nspacing = linear\n",
        )
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        expected = -0.1 * 2 * math.pi / math.log(3.0)
        assert column(out, "vacuum_trace")[0] == pytest.approx(expected, rel=1e-10)

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nwhatever = 2\nd_min = 1\nd_max = 2\npoints = 2\n")
        assert main(["trace", "--config", cfg]) == 2
        assert "whatever" in capsys.readouterr().err

    def test_overflowing_rows_exit_3(self, tmp_path, capsys):
        # rho = C/d^4 overflows: d^4 = 1e-400 is below the smallest double.
        cfg = write_config(
            tmp_path, "t.cfg", "c0 = -0.0137\nd_min = 1e-100\nd_max = 1e-99\npoints = 3\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["trace", "--config", cfg, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical" in captured.err

    def test_bad_sweep_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 2\nd_max = 1\npoints = 5\n")
        assert main(["trace", "--config", cfg]) == 2

    def test_repeat_runs_identical_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path, "t.cfg",
            "c0 = -0.5\na1 = 0.1\nb2 = 0.05\nd_min = 0.2\nd_max = 5\npoints = 64\n",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["trace", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["trace", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 3\n")
        out = tmp_path / "t.json"
        assert main(["trace", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "trace"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["vacuum_trace"] == 0.0


class TestStackCommand:
    def test_cantor_definition(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", "level = 1\nouter = 1\ncoupling = 5\n")
        out = tmp_path / "s.json"
        assert main(["stack", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        row = payload["rows"][0]
        assert row["plates"] == 4
        assert row["energy_per_area"] == pytest.approx(-0.10287512106212812, rel=1e-10)

    def test_explicit_positions(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.cfg", "positions = 0, 1\ncouplings = 1, 1\n"
        )
        out = tmp_path / "s.csv"
        assert main(["stack", "--config", cfg, "--out", str(out)]) == 0
        assert column(out, "energy_per_area")[0] == pytest.approx(
            -0.0007014483623612988, rel=1e-10
        )

    def test_conflicting_definitions(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "s.cfg",
            "positions = 0, 1\ncouplings = 1, 1\nlevel = 1\nouter = 1\ncoupling = 1\n",
        )
        assert main(["stack", "--config", cfg]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # E ~ -1/gap^3 = -1e360 overflows a double.
        cfg = write_config(
            tmp_path, "s.cfg", "positions = 0, 1e-120\ncouplings = 1e300, 1e300\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stack", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical" in captured.err

    @pytest.mark.parametrize(
        "key,value",
        [("quad_scheme", "fixed"), ("quad_nodes", "128"), ("quad_rel_tol", "1e-9"),
         ("quad_kappa_max", "60"), ("quad_fallback", "true")],
    )
    def test_removed_quadrature_keys(self, tmp_path, capsys, key, value):
        cfg = write_config(
            tmp_path, "s.cfg", f"positions = 0, 1\ncouplings = 1, 1\n{key} = {value}\n"
        )
        assert main(["stack", "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err


class TestExtractCommand:
    def test_level0_dirichlet_columns(self, tmp_path):
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1e6\nd_min = 0.5\nd_max = 2\npoints = 7\n",
        )
        out = tmp_path / "e.csv"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        target = -math.pi**2 / 1440.0
        for c in column(out, "c"):
            assert c == pytest.approx(target, rel=1e-3)
        for t in column(out, "trace"):
            assert abs(t) < 1e-8

    def test_fit_block_sidecar(self, tmp_path):
        # The fit of an extracted curve is the fit command run on its CSV.
        cfg_e = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 5\n",
        )
        curve = tmp_path / "e.csv"
        assert main(["extract", "--config", cfg_e, "--out", str(curve)]) == 0
        assert not (tmp_path / "e.fit.json").exists()
        cfg_f = write_config(
            tmp_path, "f.cfg", f"input = {curve}\nreduction = 3\nmax_harmonics = 0\n"
        )
        out = tmp_path / "f.json"
        assert main(["fit", "--config", cfg_f, "--out", str(out), "--format", "json"]) == 0
        fit = json.loads(out.read_text())
        assert fit["c0"] == pytest.approx(-0.0007014483623609125, rel=1e-8)
        assert fit["harmonics"] == []

    def test_json_format_with_fit(self, tmp_path):
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 5\n",
        )
        out = tmp_path / "e.json"
        assert main(["extract", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "extract"
        assert "fit" not in payload
        assert len(payload["rows"]) == 5

    def test_two_point_grid_with_fit_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 2\n",
        )
        assert main(["extract", "--config", cfg]) == 2


class TestFitCommand:
    def make_curve(self, tmp_path):
        period = math.log(3.0)
        d = np.geomspace(0.3, 3.0, 48)
        x = np.log(d)
        c = 1.0 * (1 + 0.1 * np.cos(2 * np.pi * x / period) + 0.05 * np.sin(2 * np.pi * x / period))
        lines = ["d,c"] + [f"{di:.17g},{ci:.17g}" for di, ci in zip(d, c)]
        path = tmp_path / "curve.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_round_trip_from_csv(self, tmp_path):
        curve = self.make_curve(tmp_path)
        cfg = write_config(
            tmp_path, "f.cfg",
            f"input = {curve}\nreduction = 3\nmax_harmonics = 1\n",
        )
        out = tmp_path / "fit.json"
        assert main(["fit", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["c0"] == pytest.approx(1.0, abs=1e-10)
        assert payload["harmonics"][0][0] == pytest.approx(0.1, abs=1e-8)
        assert payload["harmonics"][0][1] == pytest.approx(0.05, abs=1e-8)

    def test_csv_parameter_table(self, tmp_path):
        curve = self.make_curve(tmp_path)
        cfg = write_config(
            tmp_path, "f.cfg",
            f"input = {curve}\nreduction = 3\nmax_harmonics = 1\n",
        )
        out = tmp_path / "fit.csv"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        table = {row[0]: row[1] for row in rows}
        assert float(table["c0"]) == pytest.approx(1.0, abs=1e-10)
        assert float(table["a1"]) == pytest.approx(0.1, abs=1e-8)

    @pytest.mark.parametrize(
        "key,value",
        [("reduction", "nan"), ("reduction", "inf"), ("ell_star", "inf"),
         ("reduction", "0"), ("reduction", "-1")],
    )
    def test_non_finite_fit_keys_are_usage_errors(self, tmp_path, capsys, key, value):
        curve = self.make_curve(tmp_path)
        reduction = "" if key == "reduction" else "reduction = 3\n"
        cfg = write_config(
            tmp_path, "f.cfg",
            f"input = {curve}\n{reduction}{key} = {value}\nmax_harmonics = 1\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "d,c", [("0", "1"), ("-1", "1"), ("nan", "1"), ("inf", "1"), ("1", "nan"), ("1", "inf")]
    )
    @pytest.mark.parametrize("k", [0, 1])
    def test_bad_curve_rows_are_usage_errors(self, tmp_path, capsys, d, c, k):
        curve = self.make_curve(tmp_path)
        lines = curve.read_text().splitlines()
        lines[20] = f"{d},{c}"
        curve.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, "f.cfg", f"input = {curve}\nreduction = 3\nmax_harmonics = {k}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "line 21" in captured.err

    @pytest.mark.parametrize("d,ell_star", [("1e-300", "1e300"), ("1e300", "1e-300")])
    def test_out_of_range_log_ratio_is_usage_error(self, tmp_path, capsys, d, ell_star):
        # d/ell_star underflows to 0 or overflows to inf for finite, positive inputs.
        curve = self.make_curve(tmp_path)
        lines = curve.read_text().splitlines()
        lines[20] = f"{d},1"
        curve.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, "f.cfg",
            f"input = {curve}\nreduction = 3\nmax_harmonics = 1\nell_star = {ell_star}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "line 21" in captured.err
        assert f"ell_star = {float(ell_star)!r}" in captured.err

    @pytest.mark.parametrize(
        "row,extra,message",
        [
            ("0,1", "", "d must be positive and finite"),
            ("1e-300,1", "ell_star = 1e300\n", "ln(d/ell_star) is not finite"),
        ],
        ids=["bad-row", "log-ratio"],
    )
    def test_messages_count_leading_blank_lines(self, tmp_path, capsys, row, extra, message):
        # The bad row is the sixth line of the file, after two blank lines.
        curve = tmp_path / "blank.csv"
        curve.write_text(f"\n\nd,c\n1,1\n2,1\n{row}\n3,1\n")
        cfg = write_config(
            tmp_path, "f.cfg", f"input = {curve}\nreduction = 3\nmax_harmonics = 0\n{extra}"
        )
        assert main(["fit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"line 6: {message}" in err

    def test_missing_input_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "f.cfg", "input = nope.csv\nreduction = 3\nmax_harmonics = 1\n"
        )
        assert main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read input 'nope.csv'")


class TestDesignCommand:
    def test_min_level_table(self, tmp_path):
        cfg = write_config(
            tmp_path, "d.cfg", "outer = 1\nreduction = 3\nseparation = 0.01\n"
        )
        out = tmp_path / "d.json"
        assert main(["design", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["min_level"] == 5
        rows = payload["rows"]
        assert [r["n"] for r in rows] == list(range(8))
        assert rows[5]["in_window"] is True
        assert rows[4]["in_window"] is False

    def test_halving_example(self, tmp_path):
        cfg = write_config(
            tmp_path, "d.cfg", "outer = 1\nreduction = 2\nseparation = 0.5\n"
        )
        out = tmp_path / "d.json"
        assert main(["design", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["min_level"] == 1

    def test_no_window_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "d.cfg", "outer = 1\nreduction = 3\nseparation = 2\n"
        )
        assert main(["design", "--config", cfg]) == 2

    @pytest.mark.parametrize("margin", ["0", "-0.0", "0.5", "nan", "inf", "-1"])
    def test_bad_margin_is_usage_error(self, tmp_path, capsys, margin):
        cfg = write_config(
            tmp_path, "d.cfg",
            f"outer = 1\nreduction = 3\nseparation = 0.01\nmargin = {margin}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["design", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: margin must be finite and at least 1")

    def test_margin_flag_overrides_config(self, tmp_path):
        # The margin is set by its config key only; there is no --margin flag.
        cfg = write_config(
            tmp_path, "d.cfg",
            "outer = 1\nreduction = 3\nseparation = 0.3\nmargin = 2\n",
        )
        out = tmp_path / "d.json"
        assert main(["design", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["margin"] == 2.0
        assert any(r["in_window"] for r in payload["rows"])
        with pytest.raises(SystemExit) as exc:
            main(["design", "--config", cfg, "--margin", "2"])
        assert exc.value.code == 2


class TestRoundTrip:
    def test_extract_fit_trace_loop(self, tmp_path):
        # extract -> fit -> trace; the trace column of the extract run must be
        # reproduced by the fitted model wherever it is meaningfully nonzero.
        cfg_e = write_config(
            tmp_path, "e.cfg",
            "level = 1\nlambda_hat = 2\nd_min = 0.4\nd_max = 2.5\npoints = 24\n",
        )
        extract_csv = tmp_path / "e.csv"
        assert main(["extract", "--config", cfg_e, "--out", str(extract_csv)]) == 0

        cfg_f = write_config(
            tmp_path, "f.cfg",
            f"input = {extract_csv}\nreduction = 3\nmax_harmonics = 2\n",
        )
        fit_json = tmp_path / "f.json"
        assert main(["fit", "--config", cfg_f, "--out", str(fit_json), "--format", "json"]) == 0
        fit = json.loads(fit_json.read_text())

        harmonic_lines = "".join(
            f"a{k} = {a!r}\nb{k} = {b!r}\n"
            for k, (a, b) in enumerate(fit["harmonics"], start=1)
        )
        cfg_t = write_config(
            tmp_path, "t.cfg",
            f"c0 = {fit['c0']!r}\nperiod = {fit['period']!r}\n"
            f"ell_star = {fit['ell_star']!r}\n{harmonic_lines}"
            "d_min = 0.4\nd_max = 2.5\npoints = 24\n",
        )
        trace_csv = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg_t, "--out", str(trace_csv)]) == 0

        extracted = column(extract_csv, "trace")
        predicted = column(trace_csv, "vacuum_trace")
        for e_val, p_val in zip(extracted, predicted):
            if abs(e_val) > 1e-10:
                assert p_val == pytest.approx(e_val, rel=1e-6)

    def test_identical_configs_identical_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 1\nlambda_hat = 2\nd_min = 0.5\nd_max = 2\npoints = 6\n",
        )
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["extract", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["extract", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# One config per subcommand that fails after parsing, with its exit code.
FAILING_CONFIGS = {
    "trace": ("c0 = -0.0137\nd_min = 1e-100\nd_max = 1e-99\npoints = 3\n", 3),
    "stack": ("positions = 0, 1e-120\ncouplings = 1e300, 1e300\n", 3),
    "extract": ("level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 2\n", 2),
    "fit": ("input = {curve}\nreduction = 2.718281828459045\nmax_harmonics = 1\n", 3),
    "design": ("outer = 1\nreduction = 3\nseparation = 0.01\nmargin = 0.5\n", 2),
}


class TestOutputPlumbing:
    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 2\n")
        assert main(["trace", "--config", cfg]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("d,e,rho_vac")

    def test_env_var_prefixes_relative_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CASTRACE_OUT_DIR", str(tmp_path / "outputs"))
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 2\n")
        assert main(["trace", "--config", cfg, "--out", "run.csv"]) == 0
        assert (tmp_path / "outputs" / "run.csv").exists()

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["trace", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("where", ["directory", "under-file"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 2\n")
        (tmp_path / "file").write_text("")
        out = tmp_path if where == "directory" else tmp_path / "file" / "t.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output ")

    @pytest.mark.parametrize("command", FAILING_CONFIGS)
    def test_failed_run_creates_no_file(self, tmp_path, capsys, command):
        text, code = FAILING_CONFIGS[command]
        curve = tmp_path / "flat.csv"  # every d equal: singular normal equations
        curve.write_text("d,c\n" + "1,1\n" * 5)
        cfg = write_config(tmp_path, "c.cfg", text.format(curve=curve))
        out = tmp_path / "sub" / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_memory_stays_flat(self, tmp_path, fmt):
        # Built whole, as Python row lists and one string, this report peaks
        # at ~50 MB (CSV) and ~70 MB (JSON); written in blocks, the peak is
        # the result arrays plus one block, ~8 MB.
        cfg = write_config(
            tmp_path, "t.cfg",
            "c0 = -0.0137\na1 = 0.1\nb1 = -0.2\na2 = 0.05\nb3 = 0.1\nrho_th = 0.3\n"
            "d_s = 2\nd_min = 0.1\nd_max = 10\npoints = 50000\n",
        )
        out = tmp_path / f"t.{fmt}"
        tracemalloc.start()
        try:
            assert main(["trace", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 50000 * 9 * 10
        assert peak <= 16 * 2**20

    def test_seventeen_digit_serialization(self, tmp_path):
        cfg = write_config(
            tmp_path, "t.cfg",
            "c0 = 0.12345678901234567\nd_min = 1\nd_max = 2\npoints = 2\nspacing = linear\n",
        )
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        e_cell = rows[0][header.index("e")]
        assert float(e_cell) == 0.12345678901234567


NON_FINITE_CONFIGS = {
    "trace-c0-nan": ("trace", "c0 = nan\nd_min = 1\nd_max = 2\npoints = 3\n"),
    "trace-period-inf": (
        "trace", "c0 = 1\nperiod = inf\na1 = 0.1\nd_min = 1\nd_max = 2\npoints = 3\n"
    ),
    "trace-ell_star-inf": (
        "trace", "c0 = 1\nell_star = inf\nd_min = 1\nd_max = 2\npoints = 3\n"
    ),
    "trace-rho_th-nan": (
        "trace", "c0 = 1\nrho_th = nan\nd_min = 1\nd_max = 2\npoints = 3\n"
    ),
    "trace-d_max-inf": ("trace", "c0 = 1\nd_min = 1\nd_max = inf\npoints = 3\n"),
    "stack-coupling-inf": ("stack", "positions = 0, 1\ncouplings = inf, 1\n"),
    "extract-lambda_hat-nan": (
        "extract", "level = 0\nlambda_hat = nan\nd_min = 0.5\nd_max = 2\npoints = 4\n"
    ),
    "design-separation-nan": ("design", "outer = 1\nreduction = 3\nseparation = nan\n"),
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "command,text", NON_FINITE_CONFIGS.values(), ids=NON_FINITE_CONFIGS.keys()
    )
    def test_usage_error_without_warnings(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, "c.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["trace", "extract"])
def test_threads_flag_removed(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.cfg", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 3\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2", "--config", cfg])
    assert exc.value.code == 2


REMOVED_KEY_CONFIGS = {
    "trace": "c0 = 1\nd_min = 1\nd_max = 2\npoints = 3\n",
    "extract": "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 3\n",
    # The schema is checked before the input is read, so no curve file is needed.
    "fit": "input = nope.csv\nreduction = 3\nmax_harmonics = 1\n",
}


@pytest.mark.parametrize(
    "command,key",
    [("trace", "u_th"), ("trace", "v_s"),
     ("extract", "fit_harmonics"), ("extract", "ell_star"), ("extract", "ridge"),
     ("fit", "period"), ("fit", "ridge")],
)
def test_removed_config_keys(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path, "c.cfg", f"{REMOVED_KEY_CONFIGS[command]}{key} = 1\n")
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config key" in captured.err


JSON_CONFIGS = {
    "trace": ("trace", "c0 = -0.5\na1 = 0.1\nb3 = 0.05\nrho_th = 0.3\nd_s = 2\n"
                       "d_min = 0.2\nd_max = 5\npoints = 37\n"),
    "design": ("design", "outer = 1\nreduction = 3\nseparation = 0.01\n"),
    "stack": ("stack", "level = 2\nouter = 1.5\ncoupling = 5\n"),
    "extract": ("extract", "level = 1\nlambda_hat = 2\nd_min = 0.5\nd_max = 2\npoints = 6\n"),
}


class TestJsonWriter:
    @pytest.mark.parametrize(
        "command,text", JSON_CONFIGS.values(), ids=JSON_CONFIGS.keys()
    )
    def test_bytes_match_json_dumps(self, tmp_path, command, text):
        # json.loads keeps key order and round-trips every float, so dumping
        # the parsed payload again gives json.dumps's own bytes.
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        written = out.read_text()
        assert written == json.dumps(json.loads(written), indent=2) + "\n"

    def test_empty_rows(self, tmp_path):
        extra = {"margin": 10.0, "fit": {"harmonics": [[0.1, -0.2]]}}
        out = tmp_path / "out.json"
        write_output(out, report_blocks("design", ["n", "ok"], [[], []], "json", extra))
        payload = {"command": "design", **extra, "rows": []}
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def reference_csv(headers, rows):
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return f"{v + 0.0:.17g}"

    lines = [",".join(headers)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def reference_json(command, headers, rows, extra):
    payload = {"command": command, **extra, "rows": [dict(zip(headers, r)) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"


def float_table(n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 3)) * np.array([1e-200, 1.0, 1e200])
    if n:
        table[0, 1] = -0.0
    return table


def mixed_rows(n):
    # Cells typed like the design report's: int, float, three bools, int.
    return [[k, 3.0**-k, k % 2 == 0, k % 3 == 0, k % 5 == 0, 7] for k in range(n)]


def mixed_columns(n):
    # The columns of mixed_rows(n), with the constant last column as a scalar.
    k = range(n)
    return [list(k), [3.0**-i for i in k], [i % 2 == 0 for i in k],
            [i % 3 == 0 for i in k], [i % 5 == 0 for i in k], 7]


# Scalar columns: a Python float, an np.float64 -0.0, an int and a bool.
SCALARS = [0.1, np.float64(-0.0), 7, True]


class TestBlockWriter:
    @pytest.mark.parametrize(
        "n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_boundaries(self, tmp_path, fmt, n):
        table = float_table(n)
        cases = [
            (["x", "y%", "z", "f", "f64", "i", "b"], [*table.T, *SCALARS],
             [row + SCALARS for row in table.tolist()]),
            (["n", "ell", "lo", "hi", "ok", "min"], mixed_columns(n), mixed_rows(n)),
        ]
        extra = {"min_level": 7, "margin": 10.0}
        for headers, columns, expected_rows in cases:
            out = tmp_path / f"out.{fmt}"
            write_output(out, report_blocks("design", headers, columns, fmt, extra))
            if fmt == "csv":
                expected = reference_csv(headers, expected_rows)
            else:
                expected = reference_json("design", headers, expected_rows, extra)
            assert out.read_text() == expected


PUBLIC_NAMES_PROBE = """
import castrace
names = castrace.__all__
listed = set(names) <= set(dir(castrace))
star = {}
exec("from castrace import *", star)
bound = all(star[name] is getattr(castrace, name) for name in names)
try:
    castrace.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(listed, bound, unknown)
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # Each probe runs in a fresh interpreter: a subcommand loads only its
    # layer, and castrace's public names load on first use.
    cfg = write_config(tmp_path, "d.cfg", "outer = 1\nreduction = 3\nseparation = 0.01\n")
    design = f"main(['design', '--config', {cfg!r}, '--out', {str(tmp_path / 'd.csv')!r}])"
    stack_cfg = write_config(tmp_path, "s.cfg", "level = 2\nouter = 1\ncoupling = 5\n")
    stack = f"main(['stack', '--config', {stack_cfg!r}, '--out', {str(tmp_path / 's.csv')!r}])"
    loaded = "[m for m in ('numpy', 'dataclasses', 'inspect', 'fractions') if m in sys.modules]"
    probes = {
        "import sys, castrace.cli; print('scipy' in sys.modules)": "False",
        f"import sys; from castrace.cli import main; print({design}, {loaded})": "0 []",
        f"import sys; from castrace.cli import main; print({stack}, 'fractions' in sys.modules)":
            "0 False",
        "import sys, castrace; print([m for m in sys.modules if m.startswith('castrace.')])":
            "[]",
        PUBLIC_NAMES_PROBE: "True True AttributeError",
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for probe, expected in probes.items():
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert result.stdout.strip() == expected, probe


LAYERS = ["errors", "trace", "design", "scattering", "logfit"]


@pytest.mark.parametrize("module", LAYERS)
def test_export_table_matches_module_all(module):
    # castrace resolves its public names through one table; a layer's
    # __all__ and that table list the same names in the same order.
    assert set(castrace._SOURCES.values()) == set(LAYERS)
    listed = [name for name, source in castrace._SOURCES.items() if source == module]
    assert listed == importlib.import_module(f"castrace.{module}").__all__


def test_closed_stdout_exits_quietly(tmp_path):
    # The reader takes one line and closes the pipe (``castrace trace | head
    # -n 1``); the report is far larger than a pipe buffer, so the child is
    # still writing when the pipe closes.
    cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 1\nd_max = 2\npoints = 100000\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(tmp_path / "err.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "castrace.cli", "trace", "--config", cfg],
            env=env, stdout=subprocess.PIPE, stderr=err,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert first.startswith(b"d,e,rho_vac")
    assert (tmp_path / "err.txt").read_text() == ""
    assert code == EXIT_BROKEN_PIPE


@pytest.mark.parametrize("bad_file", ["config", "input"])
def test_non_utf8_file_is_usage_error(tmp_path, capsys, bad_file):
    curve = tmp_path / "curve.csv"
    curve.write_bytes(b"d,c\n1,1\n2,1\n3," + (b"\xff" if bad_file == "input" else b"1") + b"\n")
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(
        f"input = {curve}\nreduction = 3\nmax_harmonics = 0\n".encode()
        + (b"# caf\xe9\n" if bad_file == "config" else b"")
    )
    assert main(["fit", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    path, byte = (cfg, "e9") if bad_file == "config" else (curve, "ff")
    assert captured.err == f"error: {bad_file} {str(path)!r} line 4: not UTF-8 text (byte 0x{byte})\n"


# Each asks for more than a 64-bit address space holds, so the allocation
# fails at once: design's level list runs to min_level ~ 1e16, and trace's
# grid would take 7.11 PiB.
MEMORY_HUNGRY = {
    "design": "outer = 10\nreduction = 1.0000000000000002\nseparation = 1\n",
    "trace": "c0 = 1\nd_min = 1\nd_max = 2\npoints = 1000000000000000\n",
}


@pytest.mark.parametrize("command", MEMORY_HUNGRY)
def test_memory_exhaustion_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "m.cfg", MEMORY_HUNGRY[command])
    for out in ([], ["--out", str(tmp_path / "sub" / "x")]):
        assert main([command, "--config", cfg, *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {command} ran out of memory")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "sub").exists()


# Fuzzed inputs: keys from a small set, so duplicates are common; values empty,
# numeric or non-ASCII; separators that are sometimes missing; invalid UTF-8.
KEYS = st.sampled_from(["c0", "d_min", "a1", "é", "", " ", "#", "k#v", "x y"])
VALUES = st.one_of(
    st.sampled_from(["", "1", "-0.5", "nan", "1e400", "0, 1", "ü∞", "\u2028", "=", "#x"]),
    st.text(max_size=6),
)
CONFIG_LINES = st.one_of(
    st.tuples(KEYS, st.sampled_from(["=", " = ", "==", ""]), VALUES).map("".join),
    st.text(max_size=12),
)
CONFIG_TEXT = st.lists(CONFIG_LINES, max_size=6).map("\n".join)
# Config text around a byte sequence that is not UTF-8 (or none), and raw bytes.
ENCODED = st.one_of(
    st.tuples(CONFIG_TEXT, st.sampled_from([b"", b"\xff", b"\xc3(", b"\xed\xa0\x80"]), CONFIG_TEXT)
    .map(lambda parts: parts[0].encode() + parts[1] + parts[2].encode()),
    st.binary(max_size=40),
)
LINE_NUMBER = re.compile(r"line ([1-9][0-9]*)\b")
FUZZ = settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_line_in_range(message, text_bytes):
    lineno = int(LINE_NUMBER.search(message).group(1))
    lines = text_bytes.decode("utf-8", "replace").splitlines()
    assert lineno <= max(len(lines), 1)


class TestFuzzedInputs:
    @FUZZ
    @given(st.lists(CONFIG_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]))
    def test_parse_config_text(self, lines, newline):
        text = newline.join(lines)
        try:
            entries = parse_config_text(text)
        except ConfigError as exc:
            assert str(exc).startswith("line ")
            assert_line_in_range(str(exc), text.encode())
            return
        for key, value in entries.items():
            assert key and key == key.strip() and "#" not in key and "=" not in key
            assert value == value.strip() and "#" not in value

    @FUZZ
    @given(ENCODED)
    def test_load_config_file(self, tmp_path, data):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(data)
        try:
            load_config(str(path))
        except ConfigError as exc:
            assert_line_in_range(str(exc), data)

    @FUZZ
    @given(
        st.sampled_from(["d,c", "c,d", "x,d,c", "d", "d,x", "", "é,ü"]),
        st.lists(
            st.lists(st.sampled_from(["1", "2.5", "0", "-1", "nan", "inf", "", "é", "1e-300"]),
                     max_size=4).map(",".join),
            max_size=6,
        ),
        st.sampled_from([b"", b"\xff", b"\xc3", b"\n\n"]),
    )
    def test_read_curve(self, tmp_path, header, rows, tail):
        data = "\n".join([header, *rows]).encode() + tail
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        try:
            d, c, first = _read_curve(str(path))
        except ConfigError as exc:
            message = str(exc)
            assert repr(str(path)) in message
            # Only a file with no header line, or a header without d and c,
            # is rejected as a whole; every other message names its line.
            if "is empty" not in message and "must have 'd' and 'c'" not in message:
                assert_line_in_range(message, data)
            return
        assert len(d) == len(c)
        assert np.all(d > 0) and np.all(np.isfinite(d)) and np.all(np.isfinite(c))
        assert first >= 2


def reference_tables(path):
    """First-column names of each markdown table, keyed by its header cell."""
    tables: dict[str, set[str]] = {}
    header = None
    for line in path.read_text().splitlines():
        if not line.startswith("|"):
            header = None
            continue
        first = re.split(r"(?<!\\)\|", line)[1].strip()
        if header is None:
            header = first
        elif not first.startswith("---"):
            names = re.findall(r"`([^`]+)`", first)
            tables.setdefault(header, set()).update(name.split()[0] for name in names)
    return tables


def test_config_reference_matches_cli():
    # Every config key and flag the CLI reads is documented, and no row of
    # the reference names one it does not read.
    doc = Path(__file__).resolve().parents[1] / "docs" / "config_reference.md"
    tables = reference_tables(doc)

    documented_keys = {
        "<harmonic>" if _HARMONIC_KEY.match(name.split("..")[0]) else name
        for name in tables["key"]
    }
    source = Path(castrace.cli.__file__).read_text()
    code_keys = set(re.findall(r"\.(?:take|has)\(\s*\"(\w+)\"", source))
    if "take_harmonics()" in source:
        code_keys.add("<harmonic>")
    assert documented_keys == code_keys

    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert tables["flag"] == flags
