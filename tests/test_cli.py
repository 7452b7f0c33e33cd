import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bandedge
import bandedge.cli as cli
from bandedge import jordan
from bandedge.cli import _survival_traces, main, parse_config, write_csv
from bandedge.dynamics import survival_bessel_sum
from bandedge.ep import complex_parameter_sheet
from bandedge.errors import ConfigError
from bandedge.generic import make_model, self_energy_quadrature, sigma_closed_form
from bandedge.model import ModelParams
from bandedge.spectrum import discrete_spectrum, spectrum_scan

# runs each argument list through cli.main in one fresh interpreter, then
# prints the modules it has loaded
_COLD_PROBE = """
import json, sys
import bandedge
from bandedge.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
print(json.dumps(sorted(sys.modules)))
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

    @pytest.mark.parametrize("argv, key, choices", [
        (["dynamics", "--method", "magic"], "method",
         ["all", "bessel", "intermediate", "longtime", "oracle"]),
        (["generic", "--model", "magic"], "model", ["const", "lorentzian", "main-text"]),
        (["figures", "--name", "fig2"], "name", ["fig1", "fig3", "fig4", "fig5"]),
    ], ids=["method", "model", "name"])
    def test_choice_error_names_key_and_sorted_choices(self, argv, key, choices):
        with pytest.raises(ConfigError) as info:
            parse_config(argv)
        assert str(info.value) == f"{key} must be one of {choices}"

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

    def test_parser_is_reused_without_carrying_state(self, tmp_path, capsys):
        assert cli._parser() is cli._parser()
        assert parse_config(["ep", "--sheet"]).params["sheet"] is True
        assert parse_config(["ep"]).params["sheet"] is False
        f = tmp_path / "run.cfg"
        f.write_text("n_re = 7\nre_min = -2.0\n")
        from_file = parse_config(["ep", "--config", str(f)]).params
        assert (from_file["n_re"], from_file["re_min"]) == (7, -2.0)
        defaults = parse_config(["ep"]).params
        assert (defaults["n_re"], defaults["re_min"]) == (61, -2.15)
        with pytest.raises(SystemExit) as exc:
            main(["ep", "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert parse_config(["ep"]).params == defaults


def _row_template_csv(header, rows) -> bytes:
    """The former row writer: one '%' template per file, '%s' for a column
    whose first cell is a str and '%.16e' for every other."""
    lines = [",".join(header)]
    if rows:
        template = ",".join("%s" if isinstance(v, str) else "%.16e" for v in rows[0])
        lines += [template % row for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _fstring_csv(values) -> bytes:
    return ("x\n" + "".join(f"{v:.16e}\n" for v in values)).encode()


def _written(path, values) -> bytes:
    write_csv(path, ["x"], [values])
    return path.read_bytes()


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "x.csv"
        values = [np.pi, 1.0 / 3.0, 6.02214076e23, -1.6e-35]
        write_csv(path, ["v"], [values])
        lines = path.read_text().splitlines()
        assert lines[0] == "v"
        for line, v in zip(lines[1:], values):
            assert float(line) == v  # 17 significant digits round-trip

    @pytest.mark.parametrize(
        "value",
        [0.1, np.float64(1.0 / 3.0), 7, np.int64(-3), -0.0, np.inf, -np.inf, np.nan,
         5e-324, np.float64(-1.6e-35), True],
        ids=["float", "float64", "int", "int64", "-0", "inf", "-inf", "nan",
             "subnormal", "float64-small", "bool"],
    )
    def test_number_cells_format_like_fstring(self, tmp_path, value):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "label", "b"], [[value, 1.0], ["tag", "x y"], [2.5, value]])
        want = f"{float(value):.16e}"
        assert path.read_text().splitlines() == [
            "a,label,b",
            f"{want},tag,2.5000000000000000e+00",
            f"1.0000000000000000e+00,x y,{want}",
        ]

    def test_array_columns(self, tmp_path):
        path = tmp_path / "x.csv"
        t = np.arange(3, dtype=np.int32)
        write_csv(path, ["t", "P", "m", "u"],
                  [t, np.float32([0.5, 0.25, 0.125])[::-1], np.array(["a", "bb", ""]),
                   ["é", "x", "ü€𝄞"]])
        assert path.read_bytes() == _row_template_csv(
            ["t", "P", "m", "u"],
            [(0, 0.125, "a", "é"), (1, 0.25, "bb", "x"), (2, 0.5, "", "ü€𝄞")])

    def test_zero_rows_write_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["t", "P"], [[], np.empty(0)])
        assert path.read_text() == "t,P\n"
        write_csv(path, ["t", "method"], [np.empty(0), np.array([], dtype=str)])
        assert path.read_text() == "t,method\n"

    @pytest.mark.parametrize(
        "columns",
        [[[1.0, "b"], ["a", "c"]], [[1.0, 2.0], ["a", 3.0]], [[1.0, 2.0], ["a", None]],
         [[1.0, 1j], ["a", "b"]], [np.array([1.0, 2.0]) + 0j, ["a", "b"]],
         [[None, None], ["a", "b"]], [[1.0, 2.0], np.array(["a", 1], dtype=object)],
         [[1.0, 2.0], [b"a", b"b"]]],
        ids=["str-in-number-column", "number-in-str-column", "none-in-str-column",
             "complex-in-number-column", "complex-array", "none-column", "object-array",
             "bytes-column"],
    )
    def test_cell_type_must_match_column(self, tmp_path, columns):
        path = tmp_path / "x.csv"
        with pytest.raises(TypeError):
            write_csv(path, ["v", "label"], columns)
        assert not path.exists()

    @pytest.mark.parametrize(
        "columns",
        [[[1.0, 2.0], [1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0], ["a", "b"]],
         [[1.0], np.zeros((1, 1))]],
        ids=["longer", "shorter", "two-dimensional"],
    )
    def test_unequal_columns_raise_naming_the_column(self, tmp_path, columns):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="CSV column 'second'"):
            write_csv(path, ["first", "second"], columns)
        assert not path.exists()  # never cut short to the shortest column

    def test_header_must_name_every_column(self, tmp_path):
        with pytest.raises(ValueError, match="2 CSV header names for 3 columns"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0], [2.0], [3.0]])


class TestFormatterExact:
    """The vectorized %.16e formatter against f"{x:.16e}", byte for byte."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20261018)
        for _ in range(4):  # 10^6 doubles in four files
            x = rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(np.float64)
            assert _written(tmp_path / "x.csv", x) == _fstring_csv(x.tolist())

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0)])
        x = np.concatenate([x, -x])
        assert _written(tmp_path / "x.csv", x) == _fstring_csv(x.tolist())

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_exact_with_log10_one_ulp_off(self, tmp_path, monkeypatch, direction):
        # a log10 that is not correctly rounded puts the decimal exponent
        # estimate one off at the powers of ten; those cells fall back
        log10 = np.log10
        monkeypatch.setattr(cli.np, "log10", lambda a: np.nextafter(log10(a), direction))
        p = np.array([float(f"1e{k}") for k in range(-30, 31)])
        x = np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0), [0.3, 7.0]])
        x = np.concatenate([x, -x])
        assert _written(tmp_path / "x.csv", x) == _fstring_csv(x.tolist())

    def test_exact_ties_round_half_even(self, tmp_path):
        assert _written(tmp_path / "x.csv", [2.0**-25]) == b"x\n2.9802322387695312e-08\n"
        # m 2^-k is m 5^k 10^-k: odd m with 18 digits in m 5^k, the last a 5,
        # lie exactly halfway between two 17-digit decimals
        rng = np.random.default_rng(7)
        ties = []
        for k in range(2, 26):
            lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
            for m in rng.integers(lo, hi, size=40).tolist():
                m |= 1
                if m < hi and len(str(m * 5**k)) == 18:
                    ties.append(m * 2.0**-k)
        assert len(ties) > 500
        x = np.array(ties + [-v for v in ties])
        assert _written(tmp_path / "x.csv", x) == _fstring_csv(x.tolist())

    def test_special_values_and_exponent_widths(self, tmp_path):
        x = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280, 9.999e279,
             1.0000000000000002e-280, 1e-100, -2.5e-150, 1.5e200, 1e100, 9.9999999999999999e99,
             1e-99, 1e99, 0.5, 1.0, 9.999999999999999e22, 123456789012345680.0]
        assert _written(tmp_path / "x.csv", x) == _fstring_csv(x)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, tmp_path, values):
        assert _written(tmp_path / "x.csv", values) == _fstring_csv(values)


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
        # the upper bound state has 1 - |lam| ~ g^2/8 = 1.25e-11 here, but
        # f(+-1) = -g^2, so a real root is placed by |lam| against 1 exactly
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
        # Bessel route is out of its domain; the oracle, the t^{3/2} law and
        # the late-time law, which takes the real EP in closed form, need no
        # triplet and are written
        out = tmp_path / "dyn.csv"
        assert main([
            "dynamics", "--method", "all", "--g", "1e-8", "--eps-d", "-2",
            "--t-max", "20", "-o", str(out),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["skipped bessel"]
        assert all("rounds to lam = -1.0" in line for line in err)
        methods = [line.split(",")[4] for line in out.read_text().splitlines()[1:]]
        assert methods.count("LatticeOracle") == 41
        assert methods.count("LongTimeLaw") == 40
        assert set(methods) == {"LatticeOracle", "IntermediateLaw", "LongTimeLaw"}

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

    def test_spectrum_point_at_zero_coupling_is_a_domain_error(self, capsys):
        assert main(["spectrum", "--g", "0", "--eps-d", "-2"]) == 1
        assert capsys.readouterr().err.startswith("error: g = 0 is outside the domain")

    def test_spectrum_point_below_the_upper_state_bound_is_a_domain_error(self, capsys):
        # the bound state above the band rounds to lam = -1 at g = 2e-8
        assert main(["spectrum", "--eps-d", "-2", "--g", "2e-8"]) == 1
        assert "rounds to lam = -1.0" in capsys.readouterr().err

    def test_ep_sheet_with_a_nan_bound_is_a_domain_error(self, capsys, tmp_path):
        # the NaN grid reached np.linalg.eigvals and ended in a traceback
        out = tmp_path / "sheet.csv"
        assert main(["ep", "--g", "0.1", "--sheet", "--re-min", "nan", "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: eps_d = (nan-0.08j) is not finite"]
        assert not out.exists()

    @pytest.mark.parametrize("bound, cell", [("--im-max", "(-2.15+infj)"),
                                             ("--re-max", "(inf-0.08j)")])
    def test_ep_sheet_with_an_infinite_bound_is_a_domain_error(self, capsys, tmp_path,
                                                               bound, cell):
        # linspace and the grid turned the bound into NaNs, with RuntimeWarnings
        out = tmp_path / "sheet.csv"
        assert main(["ep", "--g", "0.1", "--sheet", bound, "inf", "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: eps_d = {cell} is not finite"]
        assert not out.exists()

    def test_reversed_scan_range_is_an_error(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["spectrum", "--g", "0.1", "--eps-min", "-1.9", "--eps-max", "-2.1",
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: scan range is reversed: eps_stop = -2.1 < eps_start = -1.9"]
        assert not out.exists()

    def test_jordan_structural_mismatch_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(jordan, "limit_matrix", lambda: np.diag([-1, 1, 1, 2]))
        assert main(["jordan"]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "STRUCTURAL FAILURE"
        assert captured.err == ""


class TestCliBytes:
    """Each runner's CSV, byte for byte, against the row-template writer fed
    with rows built from the library calls as the runners once built them."""

    STATE = ["class", "re_E", "im_E", "re_lambda", "im_lambda", "re_psid_sq", "im_psid_sq"]

    @staticmethod
    def _state_row(s):
        return (s.state_class.value, s.energy.real, s.energy.imag,
                s.lam.real, s.lam.imag, s.psid_sq.real, s.psid_sq.imag)

    @staticmethod
    def _trace_rows(traces):
        return [(t, a.real, a.imag, P, tr.method.value) for tr in traces
                for t, a, P in zip(tr.times.tolist(), tr.amplitude.tolist(),
                                   tr.probability.tolist())]

    @pytest.mark.parametrize("eps_d", [-2.0, -2.05])
    def test_dynamics_all(self, tmp_path, eps_d):
        out = tmp_path / "d.csv"
        assert main(["dynamics", "--method", "all", "--g", "0.05", "--eps-d", str(eps_d),
                     "--t-max", "60", "-o", str(out)]) == 0
        times = np.arange(0.0, 60.0 + 1e-9, 0.5)
        traces = _survival_traces(ModelParams(eps_d, 0.05), times,
                                  {"oracle", "bessel", "intermediate", "longtime"},
                                  170, optional=True)
        assert out.read_bytes() == _row_template_csv(
            ["t", "re_A", "im_A", "P", "method"], self._trace_rows(traces))

    def test_dynamics_bessel(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dynamics", "--method", "bessel", "--g", "0.05", "--t-max", "40",
                     "--dt", "1", "-o", str(out)]) == 0
        trace = survival_bessel_sum(ModelParams(-2.0, 0.05), np.arange(0.0, 40.0 + 1e-9, 1.0))
        assert out.read_bytes() == _row_template_csv(
            ["t", "re_A", "im_A", "P", "method"], self._trace_rows([trace]))

    def test_spectrum_scan(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--g", "0.1", "--eps-min", "-2.1", "--eps-max", "-1.9",
                     "--step", "0.01", "-o", str(out)]) == 0
        s = spectrum_scan(0.1, -2.1, -1.9, 0.01)
        rows = [(e, c, E.real, E.imag, lam.real, lam.imag, psid.real, psid.imag)
                for e, c, E, lam, psid in zip(s.eps_d.tolist(), s.state_class.tolist(),
                                              s.energy.tolist(), s.lam.tolist(),
                                              s.psid_sq.tolist())]
        assert out.read_bytes() == _row_template_csv(["eps_d"] + self.STATE, rows)

    @pytest.mark.parametrize("g, eps_d", [(0.5, -2.0), (1e-5, -2.0), (0.2, -1.2)])
    def test_spectrum_point(self, tmp_path, g, eps_d):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--g", str(g), "--eps-d", str(eps_d), "-o", str(out)]) == 0
        states = sorted(discrete_spectrum(ModelParams(eps_d, g)), key=lambda s: s.energy.real)
        assert out.read_bytes() == _row_template_csv(
            self.STATE, [self._state_row(s) for s in states])

    def test_ep_sheet(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["ep", "--g", "0.1", "--sheet", "--re-min", "-2.06", "--re-max", "-2.03",
                     "--im-min", "-0.01", "--im-max", "0.01", "--n-re", "5", "--n-im", "4",
                     "-o", str(out)]) == 0
        re, im = np.linspace(-2.06, -2.03, 5), np.linspace(-0.01, 0.01, 4)
        energies = complex_parameter_sheet(0.1, re, im)
        eps = (re[None, :] + 1j * im[:, None]).ravel()
        rows = [(e.real, e.imag, str(b), E.real, E.imag)
                for e, row in zip(eps.tolist(), energies.tolist()) for b, E in enumerate(row)]
        assert out.read_bytes() == _row_template_csv(
            ["re_eps", "im_eps", "branch_id", "re_E", "im_E"], rows)

    def test_generic(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["generic", "--model", "lorentzian", "--g", "0.2", "--n-points", "9",
                     "-o", str(out)]) == 0
        model = make_model("lorentzian", 0.2)
        rows = []
        for E in np.linspace(model.e_th - 4.0, model.e_th - 0.01, 9).tolist():
            q, c = self_energy_quadrature(model, E), sigma_closed_form(model, E)
            rows.append((E, q, c, abs(q - c)))
        assert out.read_bytes() == _row_template_csv(
            ["E", "sigma_quadrature", "sigma_closed_form", "abs_err"], rows)

    def test_figure_fig1(self, tmp_path):
        assert main(["figures", "--name", "fig1", "-o", str(tmp_path)]) == 0
        states = discrete_spectrum(ModelParams(-2.0, 0.5))
        states.sort(key=lambda s: (s.energy.real, s.energy.imag))
        rows = []
        for s in states:
            k = -1j * cmath.log(s.lam)
            rows.append((s.state_class.value, s.energy.real, s.energy.imag, k.real, k.imag))
        assert (tmp_path / "fig1_states.csv").read_bytes() == _row_template_csv(
            ["class", "re_E", "im_E", "re_k", "im_k"], rows)


def _child_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(bandedge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_reader_gone_exits_one_without_a_traceback(self, unbuffered):
        # the reader has closed the pipe before the first write, so the run
        # meets EPIPE at its first print (unbuffered) or at the flush of its
        # buffer (buffered); both used to end in a BrokenPipeError on stderr
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "bandedge.cli", "ep", "--g", "1e-5"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


class TestColdStart:
    """What a fresh interpreter loads: scipy.special only for the routes that
    evaluate J0/J1, the anti-resonance tail's Gamma or the Faddeeva function."""

    @staticmethod
    def _probe(tmp_path, code, *argv) -> list[str]:
        """The stdout lines of code run in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=tmp_path, env=_child_env(),
            capture_output=True, text=True, check=True, timeout=120,
        )
        return done.stdout.splitlines()

    @classmethod
    def _loaded_modules(cls, tmp_path, runs):
        return json.loads(cls._probe(tmp_path, _COLD_PROBE, json.dumps(runs))[-1])

    @classmethod
    def _scipy_modules(cls, tmp_path, runs):
        return [m for m in cls._loaded_modules(tmp_path, runs)
                if m == "scipy" or m.startswith("scipy.")]

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

    def test_parser_is_built_on_first_use(self, tmp_path):
        probe = ("import bandedge.cli as cli\n"
                 "print(cli._parser.cache_info().currsize)\n"
                 "cli.main(['jordan'])\n"
                 "print(cli._parser.cache_info().currsize)\n")
        lines = self._probe(tmp_path, probe)
        assert (lines[0], lines[-1]) == ("0", "1")

    def test_jordan_checks_load_no_fractions(self, tmp_path):
        # the limit-point checks run in integer numpy, not Fraction
        assert "fractions" not in self._loaded_modules(tmp_path, [["jordan"]])

    def test_bessel_route_loads_scipy_special(self, tmp_path):
        runs = [["dynamics", "--method", "bessel", "--g", "0.05", "--t-max", "5",
                 "-o", "dyn.csv"]]
        assert "scipy.special" in self._scipy_modules(tmp_path, runs)
