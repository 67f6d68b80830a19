"""Command line front end: configs, formats, exit codes, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from castrace.cli import main, parse_config_text

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

    def test_bad_sweep_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.cfg", "c0 = 1\nd_min = 2\nd_max = 1\npoints = 5\n")
        assert main(["trace", "--config", cfg]) == 2

    def test_rho_and_uth_conflict(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "t.cfg",
            "c0 = 1\nrho_th = 1\nu_th = 1\nv_s = 1\nd_min = 1\nd_max = 2\npoints = 2\n",
        )
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
        cfg = write_config(
            tmp_path, "s.cfg",
            "positions = 0, 0.4, 1\ncouplings = 2, 3, 1.5\n"
            "quad_nodes = 16\nquad_rel_tol = 1e-15\nquad_fallback = false\n",
        )
        assert main(["stack", "--config", cfg]) == 3
        assert "numerical" in capsys.readouterr().err


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
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 5\n"
            "fit_harmonics = 0\n",
        )
        out = tmp_path / "e.csv"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((tmp_path / "e.fit.json").read_text())
        assert fit["c0"] == pytest.approx(-0.0007014483623609125, rel=1e-8)
        assert fit["harmonics"] == []

    def test_json_format_with_fit(self, tmp_path):
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 5\n"
            "fit_harmonics = 1\n",
        )
        out = tmp_path / "e.json"
        assert main(["extract", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "extract"
        assert len(payload["fit"]["harmonics"]) == 1
        assert len(payload["rows"]) == 5

    def test_two_point_grid_with_fit_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "e.cfg",
            "level = 0\nlambda_hat = 1\nd_min = 0.5\nd_max = 2\npoints = 2\n"
            "fit_harmonics = 0\n",
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
            f"input = {curve}\nperiod = {math.log(3.0)!r}\nmax_harmonics = 1\n",
        )
        out = tmp_path / "fit.csv"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        table = {row[0]: row[1] for row in rows}
        assert float(table["c0"]) == pytest.approx(1.0, abs=1e-10)
        assert float(table["a1"]) == pytest.approx(0.1, abs=1e-8)

    def test_period_and_reduction_conflict(self, tmp_path):
        curve = self.make_curve(tmp_path)
        cfg = write_config(
            tmp_path, "f.cfg",
            f"input = {curve}\nperiod = 1.0\nreduction = 3\nmax_harmonics = 1\n",
        )
        assert main(["fit", "--config", cfg]) == 2

    def test_missing_input_file(self, tmp_path):
        cfg = write_config(
            tmp_path, "f.cfg", "input = nope.csv\nperiod = 1\nmax_harmonics = 1\n"
        )
        assert main(["fit", "--config", cfg]) == 2


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

    def test_margin_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path, "d.cfg",
            "outer = 1\nreduction = 3\nseparation = 0.3\nmargin = 10\n",
        )
        out = tmp_path / "d.json"
        assert main(["design", "--config", cfg, "--out", str(out),
                     "--format", "json", "--margin", "2"]) == 0
        payload = json.loads(out.read_text())
        assert payload["margin"] == 2.0
        assert any(r["in_window"] for r in payload["rows"])


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
