import hashlib
import io
import math
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from zenocoupler import (
    CoherentInputs,
    CouplerParams,
    TruncationSpec,
    oracle_zeno_parameter,
    propagate,
    zeno_parameter,
)
from zenocoupler import cli, fock
from zenocoupler.cli import main, parse_complex, parse_range


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def parse_table(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestComplexEncoding:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.5", 1.5 + 0j),
            ("-2", -2 + 0j),
            ("1+2I", 1 + 2j),
            ("0.1-0.25I", 0.1 - 0.25j),
            ("-0.5I", -0.5j),
            ("2I", 2j),
            ("1e-3+2e-4I", 1e-3 + 2e-4j),
            ("I", 1j),
            ("-I", -1j),
            ("1+I", 1 + 1j),
            ("infI", complex(0.0, math.inf)),
            ("1e5+2e+3I", 1e5 + 2e3j),
            ("  -0.5 I ", -0.5j),
            ("1+2j", 1 + 2j),
            ("(1+2j)", 1 + 2j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_parse_polar(self):
        got = parse_complex("2@1.5707963267948966")
        assert got == pytest.approx(2j, abs=1e-15)

    def test_invalid(self):
        for text in ("abc", "", "(1+2I)"):
            with pytest.raises(ValueError):
                parse_complex(text)


class TestParseRange:
    def test_single(self):
        assert parse_range("0.5") == (0.5, 0.5, 1)

    def test_triplet(self):
        assert parse_range("0:0.1:11") == (0.0, 0.1, 11)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_range("1:2")


class TestCmdCoeffs:
    def test_zero_length_row(self):
        code, out = run_cli(["coeffs", "--z", "0"])
        assert code == 0
        _, rows = parse_table(out)
        assert len(rows) == 1
        r = rows[0]
        assert float(r["f1_re"]) == 1 and float(r["h1_re"]) == 1
        for name in ("f3", "f4", "g3", "g4", "h2", "h3", "h4"):
            assert float(r[f"{name}_re"]) == 0 and float(r[f"{name}_im"]) == 0

    def test_matches_library(self):
        from zenocoupler import CouplerParams, compute_coefficients

        code, out = run_cli(["coeffs", "--z", "10:100:4"])
        assert code == 0
        _, rows = parse_table(out)
        p = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
        for row in rows:
            c = compute_coefficients(p, float(row["z"]))
            assert float(row["h2_re"]) == pytest.approx(c.h[1].real, rel=1e-14)
            assert float(row["h2_im"]) == pytest.approx(c.h[1].imag, rel=1e-14)

    def test_missing_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--k"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_nan_length_exits_2(self):
        code, out = run_cli(["coeffs", "--z", "nan"])
        assert code == 2 and out == ""

    def test_resonance_exits_0(self):
        # 2|k| = dk: the coefficients stay finite on the resonance
        code, out = run_cli(["coeffs", "--k", "0.1", "--delta-k", "0.2", "--z", "1"])
        assert code == 0
        _, rows = parse_table(out)
        assert all(math.isfinite(float(v)) for name, v in rows[0].items() if name != "status")


class TestCmdZeno:
    def test_spontaneous_all_null(self):
        code, out = run_cli(["zeno", "--gamma", "0", "--gamma-z", "0:0.1:5"])
        assert code == 0
        _, rows = parse_table(out)
        for r in rows:
            assert float(r["delta_n_z"]) == 0
            assert r["classification"] == "Null"

    def test_fig2_all_zeno(self):
        code, out = run_cli(["zeno", "--gamma-z", "0.001:0.1:100"])
        assert code == 0
        _, rows = parse_table(out)
        assert all(r["classification"] == "Zeno" for r in rows)

    def test_gamma_negation(self):
        _, out_pos = run_cli(["zeno", "--gamma", "1", "--gamma-z", "0.01:0.1:10"])
        _, out_neg = run_cli(["zeno", "--gamma", "-1", "--gamma-z", "0.01:0.1:10"])
        _, rows_pos = parse_table(out_pos)
        _, rows_neg = parse_table(out_neg)
        for rp, rn in zip(rows_pos, rows_neg):
            assert float(rp["delta_n_z"]) == -float(rn["delta_n_z"])

    def test_z_and_gamma_z_exclusive(self):
        code, _ = run_cli(["zeno", "--z", "1", "--gamma-z", "0.001"])
        assert code == 2

    def test_determinism(self):
        a = run_cli(["zeno", "--gamma-z", "0:0.1:20"])
        b = run_cli(["zeno", "--gamma-z", "0:0.1:20"])
        assert a == b

    def test_overflowing_amplitude_exits_2(self, capsys):
        # |gamma|^2 overflows a double: a typed error, not a traceback
        assert main(["zeno", "--gamma", "1e200", "--z", "50"]) == 2
        assert "photon number overflows" in capsys.readouterr().err


# sha256 of `zenocoupler sweep --preset <name>` stdout (numpy 2.4, x86-64),
# recorded when the coefficients became sums of one entire function D(w);
# no byte of them may move
PRESET_SHA256 = {
    "fig2": "6eb2c85719b344eadd620fb6cec62e3914e0e3eae5db3e18816e896921e4cca9",
    "fig3": "c908b584c2ee6300dcd81bd9a7d65e08f07bcc730ab0b5712f94d58d17e01393",
    "fig4": "58d71ef81eadc2e2823e02278c77a9630e0c4cceb55bba68e5b75415ec0cfcb5",
}


class TestCmdSweep:
    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_preset_output_pinned(self, name):
        code, out = run_cli(["sweep", "--preset", name])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PRESET_SHA256[name]

    @pytest.mark.parametrize("argv", [
        ["zeno", "--delta-k", "0", "--z", "1e200:1e200:1"],
        ["sweep", "--delta-k", "0", "--z", "0:1e200:3"],
        ["sweep", "--delta-k", "1e-4", "--gamma-z", "0:1e300:3"],
    ], ids=["zeno-scalar-series", "sweep-series", "sweep-closed-form"])
    def test_long_lengths_give_a_number_or_a_typed_error(self, argv, capsys):
        # no power of z alone may overflow (or warn: tier-1 turns a
        # RuntimeWarning into an error), at dk = 0 and past it
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (code == 2 and err.startswith("error: "))
        if code == 0:
            _, rows = parse_table(out)
            assert all(math.isfinite(float(r["delta_n_z"])) for r in rows)

    def test_preset_fig2(self):
        code, out = run_cli(["sweep", "--preset", "fig2"])
        assert code == 0
        _, rows = parse_table(out)
        assert len(rows) == 101
        assert all(
            r["classification"] == "Zeno" for r in rows if float(r["gamma_z"]) > 0
        )

    def test_preset_fig3_has_both_classes(self):
        code, out = run_cli(["sweep", "--preset", "fig3"])
        assert code == 0
        _, rows = parse_table(out)
        classes = {r["classification"] for r in rows if r["status"] == "ok"}
        assert {"Zeno", "AntiZeno"} <= classes

    def test_preset_fig4_no_anti_zeno(self):
        code, out = run_cli(["sweep", "--preset", "fig4"])
        assert code == 0
        _, rows = parse_table(out)
        ok = [r for r in rows if r["status"] == "ok"]
        assert ok
        assert all(r["classification"] != "AntiZeno" for r in ok)

    def test_preset_rejects_overridden_flags(self, capsys):
        code, out = run_cli(["sweep", "--preset", "fig3", "--k", "5", "--tol", "1e-9"])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "--k" in err and "--tol" in err

    def test_zero_gamma_nl_cell_is_marked(self):
        # gamma_z cannot be turned into z at gamma_nl = 0; the cell must not
        # silently take 0.05 as z
        code, out = run_cli(["sweep", "--gamma-z", "0.05", "--axis", "gamma_nl:0:0.002:3"])
        assert code == 0
        _, rows = parse_table(out)
        assert [r["status"] for r in rows] == ["invalid", "ok", "ok"]
        assert rows[0]["z"] == "" and rows[0]["delta_n_z"] == ""

    def test_zero_k_cell_is_invalid(self):
        # k = 0 breaks a precondition; it is not the 2|k| = |dk| resonance
        code, out = run_cli(["sweep", "--gamma-z", "0:0.1:2", "--axis", "k_magnitude:0:0.3:2"])
        assert code == 0
        _, rows = parse_table(out)
        assert [r["status"] for r in rows] == ["invalid", "invalid", "ok", "ok"]

    def test_custom_axis(self, capsys):
        code, out = run_cli(
            ["sweep", "--gamma-z", "0.01:0.05:3", "--axis", "phi:0:3.14159:2"]
        )
        assert code == 0
        _, rows = parse_table(out)
        assert len(rows) == 6
        assert rows[0]["axis_name"] == "phi"
        assert capsys.readouterr().err == ""

    def test_overflowing_length_row_is_invalid(self, capsys):
        # gamma_z / gamma_nl overflows z on the first row only; the other
        # rows still run, and no RuntimeWarning escapes (tier-1 makes one an
        # error)
        code, out = run_cli(["sweep", "--axis", "gamma_nl:1e-310:0.001:3",
                             "--gamma-z", "0:0.1:2"])
        assert code == 0
        _, rows = parse_table(out)
        assert [r["status"] for r in rows] == ["invalid"] * 2 + ["ok"] * 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("overflows z" in line for line in err)

    def test_overflowing_phase_row_is_invalid(self, capsys):
        # 2|k| z overflows although z = gamma_z / gamma_nl does not: the row
        # is invalid, with no RuntimeWarning
        code, out = run_cli(["sweep", "--k", "1e10", "--gamma-nl", "1e-3",
                             "--gamma-z", "0:1e300:3"])
        assert code == 0
        _, rows = parse_table(out)
        assert [r["status"] for r in rows] == ["invalid"] * 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all("overflows" in line for line in err)

    def test_overflowing_amplitude_rows_are_invalid(self, capsys):
        code, out = run_cli(["sweep", "--gamma", "1e200", "--gamma-z", "0:0.1:2"])
        assert code == 0
        _, rows = parse_table(out)
        assert [r["status"] for r in rows] == ["invalid"] * 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("photon number overflows" in line for line in err)

    def test_failed_cells_say_why_on_stderr(self, capsys):
        code, out = run_cli(["sweep", "--gamma-z", "0:0.1:2", "--axis", "k_magnitude:0:0.3:2"])
        assert code == 0
        header, _ = parse_table(out)
        assert header[-3:] == ["delta_n_z", "classification", "status"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line, gz in zip(err, ("0", "0.1")):
            assert line.startswith(f"invalid cell k_magnitude=0, gamma_z={gz}: ")
            assert "k must be nonzero" in line


class TestCmdOracle:
    def test_zero_length(self):
        code, out = run_cli(
            ["oracle", "--alpha", "1", "--beta", "1", "--gamma", "0.5",
             "--z", "0", "--cutoffs", "10,10,6"]
        )
        assert code == 0
        _, rows = parse_table(out)
        r = rows[0]
        assert float(r["n_a"]) == pytest.approx(1.0, abs=1e-6)
        assert float(r["n_b2"]) == pytest.approx(0.25, abs=1e-6)
        assert float(r["norm_drift"]) == 0

    def test_linear_limit(self):
        code, out = run_cli(
            ["oracle", "--gamma-nl", "0", "--delta-k", "0", "--alpha", "1",
             "--beta", "0.5", "--gamma", "0", "--z", "12.5",
             "--cutoffs", "14,14,1"]
        )
        assert code == 0
        _, rows = parse_table(out)
        want = abs(math.cos(0.1 * 12.5) - 1j * math.sin(0.1 * 12.5) * 0.5) ** 2
        assert float(rows[0]["n_a"]) == pytest.approx(want, abs=1e-8)

    def test_infinite_length_exits_2(self):
        code, out = run_cli(
            ["oracle", "--z", "inf", "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.2"]
        )
        assert code == 2 and out == ""

    def test_defaults_run(self):
        code, out = run_cli(["oracle"])
        assert code == 0
        _, rows = parse_table(out)
        assert len(rows) == 1
        assert float(rows[0]["gamma_z"]) == pytest.approx(0.05)
        assert rows[0]["status"] == "ok"

    def test_help_shows_the_oracle_defaults(self, capsys):
        for command, alpha in (("oracle", "1"), ("zeno", "5")):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            lines = capsys.readouterr().out.splitlines()
            line = next(l for l in lines if l.strip().startswith("--alpha"))
            assert line.endswith(f"(default {alpha})")

    def test_huge_length_exits_4(self, capsys):
        code, out = run_cli(["oracle", "--z", "1e9"])
        assert code == 4 and out == ""
        assert "degree" in capsys.readouterr().err

    def test_truncation_loss_exits_4(self):
        code, _ = run_cli(
            ["oracle", "--alpha", "5", "--z", "1", "--cutoffs", "6,6,4"]
        )
        assert code == 4


# Each subcommand has only the flags of the settings it reads.
_UNREAD_FLAGS = [
    pytest.param("oracle", "--tol", id="oracle"),
    pytest.param("coeffs", "--tol", id="coeffs"),
    pytest.param("validate", "--tol", id="validate"),
    *(
        pytest.param(command, flag, id=f"{command}{flag}")
        for command, flag in [
            ("coeffs", "--alpha"), ("coeffs", "--beta"), ("coeffs", "--gamma"),
            ("coeffs", "--cutoffs"), ("zeno", "--cutoffs"), ("sweep", "--cutoffs"),
            ("validate", "--z"), ("validate", "--gamma-z"), ("validate", "--cutoffs"),
            ("validate", "--debug-break-gamma-linearity"),
        ]
    ),
]


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
def test_tol_is_usage_error_outside_zeno_and_sweep(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1e-9"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["coeffs", "--z", "1"], ["zeno", "--z", "1"],
                                  ["sweep", "--z", "1"], ["oracle"], ["validate"]],
                         ids=lambda argv: argv[0])
def test_header_is_the_help_column_list(argv, capsys):
    # one column tuple per subcommand gives both the CSV header and --help
    code, out = run_cli(argv)
    assert code == 0
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    listed = help_text.split("Columns: ", 1)[1].split(".", 1)[0]
    assert out.splitlines()[0].split(",") == listed.split(", ")


class TestParserReuse:
    def test_settings_do_not_leak_between_calls(self):
        # main parses every call with one shared parser; a flag given to one
        # call must not become a default of the next
        want = run_cli(["zeno", "--gamma-z", "0.01:0.1:3"])
        flagged = run_cli(["zeno", "--gamma-z", "0.01:0.1:3", "--gamma", "-1",
                           "--k", "0.2", "--tol", "1e-3"])
        assert flagged != want
        assert run_cli(["zeno", "--gamma-z", "0.01:0.1:3"]) == want
        assert cli.build_parser() is cli.build_parser()


class TestConfigFile:
    def test_config_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# fig2-like run\n"
            "k = 0.1\n"
            "gamma = 1\n"
            "gamma_z = 0.01:0.1:10\n"
        )
        _, out_cfg = run_cli(["zeno", "--config", str(cfg)])
        # flag overrides config
        _, out_flag = run_cli(["zeno", "--config", str(cfg), "--gamma", "-1"])
        _, rows_cfg = parse_table(out_cfg)
        _, rows_flag = parse_table(out_flag)
        assert float(rows_cfg[0]["delta_n_z"]) == -float(rows_flag[0]["delta_n_z"])

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        code, _ = run_cli(["zeno", "--config", str(cfg)])
        assert code == 2

    def test_key_the_command_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("cutoffs = 12,12,8\n")
        code, out = run_cli(["zeno", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "cutoffs" in capsys.readouterr().err

    def test_preset_rejects_config_settings(self, tmp_path, capsys):
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text("preset = fig3\nk = 5\n")
        code, out = run_cli(["sweep", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "remove k (in " in capsys.readouterr().err

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        code, stdout = run_cli(["zeno", "--gamma-z", "0.05", "--out", str(out)])
        assert code == 0 and stdout == ""
        header, rows = parse_table(out.read_text())
        assert header[0] == "z" and len(rows) == 1


class TestCmdValidate:
    def test_default_passes(self):
        code, out = run_cli(["validate"])
        assert code == 0
        _, rows = parse_table(out)
        assert rows and all(r["status"] == "pass" for r in rows)
        names = {r["check"] for r in rows}
        assert "oracle_gamma2_contraction" in names
        ratio = float(
            next(r["measured"] for r in rows if r["check"] == "oracle_gamma2_contraction")
        )
        assert 3.0 <= ratio <= 5.0

    def test_injected_failure_exits_1(self, monkeypatch):
        # perturb f3 wherever gamma_nl is twice that of the previous call
        # (the gamma-linearity pairs), so that only that check can fail
        compute = cli.compute_coefficients
        last = []

        def broken(params, z):
            c = compute(params, z)
            doubled = bool(last) and params == replace(
                last[-1], gamma_nl=2 * complex(last[-1].gamma_nl))
            last.append(params)
            if doubled:
                c = replace(c, f=(c.f[0], c.f[1], c.f[2] * (1 + 1e-6), c.f[3]))
            return c

        monkeypatch.setattr(cli, "compute_coefficients", broken)
        code, out = run_cli(["validate"])
        assert code == 1
        _, rows = parse_table(out)
        failed = [r for r in rows if r["status"] == "FAIL"]
        assert [r["check"] for r in failed] == ["gamma_linearity"]

    def test_four_oracle_propagations(self, monkeypatch):
        # the drift rows come from the same full-system runs as the Zeno
        # parameters: two (full, reference) pairs in all, each pair one
        # Chebyshev recurrence on the pair grid
        calls = []
        step = fock._expm_step

        def spy(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(fock, "_expm_step", spy)
        code, out = run_cli(["validate"])
        assert code == 0 and len(calls) == 2
        monkeypatch.undo()

        # each oracle row as the separate propagate / oracle_zeno_parameter
        # calls give it
        _, rows = parse_table(out)
        measured = {r["check"]: r["measured"] for r in rows}
        small = CoherentInputs(alpha=1.0, beta=1.0, gamma=0.5)
        trunc = TruncationSpec(10, 10, 6)
        diffs = []
        for g_nl in (1e-3, 5e-4):
            p = CouplerParams(k=0.1, gamma_nl=g_nl, delta_k=1e-4)
            exact = oracle_zeno_parameter(p, small, 50.0, trunc)
            diffs.append(abs(exact - zeno_parameter(p, small, 50.0)))
        # each drift row is the worst over both full-system runs
        reports = [propagate(CouplerParams(k=0.1, gamma_nl=g_nl, delta_k=1e-4),
                             small, 50.0, trunc) for g_nl in (1e-3, 5e-4)]
        assert measured["oracle_norm_drift"] == cli._fmt(
            max(r.norm_drift for r in reports))
        assert measured["oracle_conservation_drift"] == cli._fmt(
            max(r.conservation_drift for r in reports))
        assert measured["oracle_gamma2_contraction"] == cli._fmt(diffs[0] / diffs[1])
