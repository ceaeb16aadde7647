import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from zenocoupler.cli import format_complex, main, parse_complex, parse_range


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
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_parse_polar(self):
        got = parse_complex("2@1.5707963267948966")
        assert got == pytest.approx(2j, abs=1e-15)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = complex(rng.normal(), rng.normal() * (rng.random() > 0.3))
            assert parse_complex(format_complex(x)) == x

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_complex("abc")


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

    def test_degenerate_exits_3(self):
        code, _ = run_cli(["coeffs", "--k", "0.1", "--delta-k", "0.2", "--z", "1"])
        assert code == 3


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


class TestCmdSweep:
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
        ]
    ),
]


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
def test_tol_is_usage_error_outside_zeno_and_sweep(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1e-9"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


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

    def test_injected_failure_exits_1(self):
        code, out = run_cli(["validate", "--debug-break-gamma-linearity"])
        assert code == 1
        _, rows = parse_table(out)
        failed = [r for r in rows if r["status"] == "FAIL"]
        assert [r["check"] for r in failed] == ["gamma_linearity"]
