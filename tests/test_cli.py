import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandedge
from bandedge.cli import main, parse_config, write_csv
from bandedge.errors import ConfigError

# runs each argument list through cli.main in one fresh interpreter, then
# prints the scipy modules it has loaded
_COLD_PROBE = """
import json, sys
import bandedge
from bandedge.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


class TestParsing:
    def test_dynamics_flags(self):
        cfg = parse_config(
            ["dynamics", "--g", "0.02", "--eps-d", "-2", "--t-max", "600"]
        )
        assert cfg.subcommand == "dynamics"
        assert cfg.params["g"] == 0.02
        assert cfg.params["eps_d"] == -2.0
        assert cfg.params["t_max"] == 600.0
        assert cfg.params["dt"] == 0.5  # default preserved

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("g = 0.1\nt_max = 50   # comment\n\n# full-line comment\n")
        cfg = parse_config(
            ["dynamics", "--config", str(f), "--g", "0.02"]
        )
        assert cfg.params["g"] == 0.02  # flag wins
        assert cfg.params["t_max"] == 50.0  # file survives

    def test_unknown_key_reports_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("g = 0.1\ntyop = 3\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(["dynamics", "--config", str(f)])

    def test_unparsable_value_reports_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("g = fast\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(["dynamics", "--config", str(f)])

    def test_negative_coupling_rejected(self):
        with pytest.raises(ConfigError, match="g must be >= 0"):
            parse_config(["dynamics", "--g", "-1"])

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["dynamics", "--method", "magic"])

    def test_jordan_alias(self):
        assert parse_config(["jordan-check"]).subcommand == "jordan"

    def test_precision_flag(self, tmp_path):
        # there is a single double-precision root solver and no knob for it
        with pytest.raises(SystemExit):
            parse_config(["spectrum", "--precision", "fast"])
        f = tmp_path / "run.cfg"
        f.write_text("precision = high\n")
        with pytest.raises(ConfigError, match="line 1: unknown key 'precision'"):
            parse_config(["spectrum", "--config", str(f)])

    def test_half_specified_scan_rejected(self):
        with pytest.raises(ConfigError, match="eps_min and eps_max"):
            parse_config(["spectrum", "--eps-min", "-2.1"])


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "x.csv"
        values = [np.pi, 1.0 / 3.0, 6.02214076e23, -1.6e-35]
        write_csv(path, ["v"], [(v,) for v in values])
        lines = path.read_text().splitlines()
        assert lines[0] == "v"
        for line, v in zip(lines[1:], values):
            assert float(line) == v  # 17 significant digits round-trip


    @pytest.mark.parametrize(
        "value",
        [0.1, np.float64(1.0 / 3.0), 7, np.int64(-3), -0.0, np.inf, -np.inf, np.nan,
         5e-324, np.float64(-1.6e-35)],
        ids=["float", "float64", "int", "int64", "-0", "inf", "-inf", "nan",
             "subnormal", "float64-small"],
    )
    def test_number_cells_format_like_fstring(self, tmp_path, value):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "label", "b"], [(value, "tag", 2.5), (1.0, "x y", value)])
        want = f"{float(value):.16e}"
        assert path.read_text().splitlines() == [
            "a,label,b",
            f"{want},tag,2.5000000000000000e+00",
            f"1.0000000000000000e+00,x y,{want}",
        ]

    def test_zero_rows_write_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["t", "P"], [])
        assert path.read_text() == "t,P\n"

    @pytest.mark.parametrize(
        "rows",
        [[(1.0, "a"), ("b", "c")], [(1.0, "a"), (2.0, 3.0)], [(1.0, "a"), (2.0, None)],
         [(1.0, "a"), (1j, "b")]],
        ids=["str-in-number-column", "number-in-str-column", "none-in-str-column",
             "complex-in-number-column"],
    )
    def test_cell_type_must_match_column(self, tmp_path, rows):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "x.csv", ["v", "label"], rows)


class TestRunners:
    def test_jordan_exit_zero(self, capsys):
        assert main(["jordan"]) == 0
        out = capsys.readouterr().out
        assert "all structural checks exact" in out

    def test_spectrum_point(self, capsys, tmp_path):
        out = tmp_path / "states.csv"
        assert main(["spectrum", "--g", "0.5", "--eps-d", "-2", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "class,re_E,im_E,re_lambda,im_lambda,re_psid_sq,im_psid_sq"
        assert len(lines) == 5

    def test_spectrum_point_at_weak_coupling(self, capsys, tmp_path):
        # the upper bound state has 1 - |lam| ~ g^2/8 = 1.25e-11 here, inside
        # CUT_TOL, but a real root cannot lie on the cut
        out = tmp_path / "states.csv"
        assert main(["spectrum", "--g", "1e-5", "--eps-d", "-2", "-o", str(out)]) == 0
        classes = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert sorted(classes) == ["anti_resonance", "bound_lower", "bound_upper", "resonance"]
        assert "bound_upper" in capsys.readouterr().out

    def test_spectrum_scan_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["spectrum", "--g", "0.1", "--eps-min", "-2.05", "--eps-max",
                "-1.95", "--step", "0.05"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == (
            "eps_d,class,re_E,im_E,re_lambda,im_lambda,re_psid_sq,im_psid_sq"
        )

    def test_ep_runner(self, capsys):
        assert main(["ep", "--g", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "-2.0551759" in out

    def test_ep_sheet_csv(self, tmp_path):
        out = tmp_path / "sheet.csv"
        assert main([
            "ep", "--g", "0.1", "--sheet", "--re-min", "-2.06", "--re-max",
            "-2.03", "--im-min", "-0.01", "--im-max", "0.01",
            "--n-re", "4", "--n-im", "3", "-o", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re_eps,im_eps,branch_id,re_E,im_E"
        assert len(lines) == 1 + 4 * 3 * 3  # three branches per grid cell

    def test_dynamics_bessel_csv(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--g", "0.05", "--eps-d", "-2", "--t-max", "20",
            "--dt", "1.0", "--method", "bessel", "-o", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_A,im_A,P,method"
        assert len(lines) == 22
        assert lines[1].endswith(",BesselSum")

    def test_dynamics_bessel_at_zero_time_only(self, tmp_path):
        # t_max < dt leaves t = 0 alone: a Bessel window without panels
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--method", "bessel", "--eps-d", "-2.1", "--g", "0.1",
            "--t-max", "0.3", "--dt", "0.5", "-o", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.0000000000000000e+00,")
        assert lines[1].endswith(",BesselSum")

    def test_dynamics_all_law_rows_are_probabilities(self, tmp_path):
        # t_max = 200 runs past 2.42 g^(-4/3) = 131, where the t^{3/2} law
        # would pass P = 1; its rows stop at the window edge g^(-4/3) = 54.3
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--g", "0.05", "--eps-d", "-2", "--t-max", "200",
            "--dt", "0.5", "--method", "all", "-o", str(out),
        ]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        law = {m: [r for r in rows if r[4] == m]
               for m in ("IntermediateLaw", "LongTimeLaw")}
        assert len(law["LongTimeLaw"]) == 400
        assert len(law["IntermediateLaw"]) == 109
        assert float(law["IntermediateLaw"][-1][0]) <= 0.05 ** (-4.0 / 3.0)
        for r in law["IntermediateLaw"] + law["LongTimeLaw"]:
            re_a, im_a, P = float(r[1]), float(r[2]), float(r[3])
            assert P <= 1.0
            assert re_a**2 + im_a**2 == pytest.approx(P, rel=1e-14, abs=1e-15)

    def test_dynamics_all_leaves_out_route_outside_domain(self, capsys, tmp_path):
        # eps_d = -2.05 at g = 0.05 is in the virtual-state regime, where the
        # late-time law has no resonance; the other three routes are written
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--method", "all", "--g", "0.05", "--eps-d", "-2.05",
            "--t-max", "80", "-o", str(out),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("skipped longtime: no resonance")
        methods = [line.split(",")[4] for line in out.read_text().splitlines()[1:]]
        assert set(methods) == {"LatticeOracle", "BesselSum", "IntermediateLaw"}

    def test_dynamics_all_skips_triplet_routes_below_their_coupling_bound(self, capsys, tmp_path):
        # at g = 1e-8 the bound state above the band rounds to lam = -1, so the
        # Bessel route and the late-time law are out of their domain; the oracle
        # and the t^{3/2} law need no triplet and are written
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--method", "all", "--g", "1e-8", "--eps-d", "-2",
            "--t-max", "20", "-o", str(out),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["skipped bessel", "skipped longtime"]
        assert all("rounds to lam = -1.0" in line for line in err)
        methods = [line.split(",")[4] for line in out.read_text().splitlines()[1:]]
        assert methods.count("LatticeOracle") == 41
        assert set(methods) == {"LatticeOracle", "IntermediateLaw"}

    def test_dynamics_requested_route_outside_domain_fails(self, capsys, tmp_path):
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--method", "longtime", "--g", "0.05", "--eps-d", "-2.05",
            "--t-max", "80", "-o", str(out),
        ]) == 1
        assert "error: no resonance" in capsys.readouterr().err
        assert not out.exists()

    def test_dynamics_all_truncated_lattice_fails(self, capsys, tmp_path):
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--method", "all", "--g", "0.05", "--eps-d", "-2.05",
            "--t-max", "80", "--n-sites", "100", "-o", str(out),
        ]) == 1
        assert "error: N = 100 too small" in capsys.readouterr().err
        assert not out.exists()

    def test_dynamics_oracle_with_gnuplot(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--g", "0.1", "--t-max", "10", "--dt", "0.5",
            "--method", "oracle", "--n-sites", "60", "--gnuplot",
            "-o", str(out),
        ]) == 0
        assert out.exists()
        assert (tmp_path / "dyn.gp").exists()

    def test_generic_runner(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main([
            "generic", "--model", "const", "--g", "0.2",
            "--e-min", "-2", "--e-max", "-0.1", "--n-points", "11",
            "-o", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "E,sigma_quadrature,sigma_closed_form,abs_err"
        errs = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(errs) < 1e-8

    def test_figures_preset(self, tmp_path):
        assert main(["figures", "--name", "fig1", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "fig1_states.csv").exists()
        assert (tmp_path / "fig1.gp").exists()
        a = (tmp_path / "fig1_states.csv").read_bytes()
        assert main(["figures", "--name", "fig1", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "fig1_states.csv").read_bytes() == a

    def test_figure_presets_match_cli_output(self, tmp_path):
        # fig3 and fig4 are the spectrum scan and the EP sheet at fixed flags
        assert main(["figures", "--name", "fig3", "-o", str(tmp_path)]) == 0
        assert main(["figures", "--name", "fig4", "-o", str(tmp_path)]) == 0
        scan, sheet = tmp_path / "scan.csv", tmp_path / "sheet.csv"
        assert main(["spectrum", "--g", "0.1", "--eps-min", "-2.15", "--eps-max",
                     "-1.85", "--step", "0.001", "-o", str(scan)]) == 0
        assert main(["ep", "--g", "0.1", "--sheet", "--n-im", "33", "-o", str(sheet)]) == 0
        assert (tmp_path / "fig3_scan.csv").read_bytes() == scan.read_bytes()
        assert (tmp_path / "fig4_sheet.csv").read_bytes() == sheet.read_bytes()

    def test_figure_survival_preset_deterministic(self, tmp_path):
        assert main(["figures", "--name", "fig5", "-o", str(tmp_path)]) == 0
        csv = tmp_path / "fig5_survival.csv"
        assert csv.exists() and (tmp_path / "fig5.gp").exists()
        first = csv.read_bytes()
        assert main(["figures", "--name", "fig5", "-o", str(tmp_path)]) == 0
        assert csv.read_bytes() == first

    def test_error_exit_code(self, capsys):
        assert main(["dynamics", "--g", "-1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestColdStart:
    """What a fresh interpreter loads: scipy.special only for the routes that
    evaluate J0/J1, the anti-resonance tail's Gamma or the Faddeeva function."""

    @staticmethod
    def _scipy_modules(tmp_path, runs):
        env = dict(os.environ)
        src = str(Path(bandedge.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run(
            [sys.executable, "-c", _COLD_PROBE, json.dumps(runs)], cwd=tmp_path, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        return json.loads(done.stdout.splitlines()[-1])

    def test_spectral_subcommands_leave_scipy_unloaded(self, tmp_path):
        runs = [
            ["spectrum", "--g", "0.5", "--eps-d", "-2", "-o", "point.csv"],
            ["spectrum", "--g", "0.1", "--eps-min", "-2.05", "--eps-max", "-1.95",
             "--step", "0.05", "-o", "scan.csv"],
            ["ep", "--g", "0.1"],
            ["ep", "--g", "0.1", "--sheet", "--n-re", "4", "--n-im", "3", "-o", "sheet.csv"],
            ["jordan"],
            ["generic", "--model", "const", "--n-points", "11", "-o", "generic.csv"],
        ]
        assert self._scipy_modules(tmp_path, runs) == []
        assert {f.name for f in tmp_path.iterdir()} == {
            "point.csv", "scan.csv", "sheet.csv", "generic.csv"}

    def test_bessel_route_loads_scipy_special(self, tmp_path):
        runs = [["dynamics", "--method", "bessel", "--g", "0.05", "--t-max", "5",
                 "-o", "dyn.csv"]]
        assert "scipy.special" in self._scipy_modules(tmp_path, runs)
