"""Command-line surface: subcommands, config layering, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import actionvar
from actionvar import cli, oracles
from actionvar.cli import main
from actionvar.core import ConfigInvalid, IoFailure, NotConverged


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(out: str):
    lines = [ln for ln in out.strip().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split()
    rows = [ln.split() for ln in lines[1:]]
    return header, rows


class TestTable1:
    def test_default_rows(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        header, rows = table_rows(out)
        assert header[0] == "eps"
        assert [r[0] for r in rows] == ["0.01", "0.05", "0.1"]

    def test_eps_zero_row_is_unity(self, capsys):
        code, out, _ = run(capsys, "table1", "--eps", "0")
        assert code == 0
        _, rows = table_rows(out)
        assert rows[0][1:6] == ["1"] * 5
        assert float(rows[0][6]) == 0.0

    def test_eps_point_one_values(self, capsys):
        code, out, _ = run(capsys, "table1", "--eps", "0.1")
        assert code == 0
        _, rows = table_rows(out)
        row = [float(v) for v in rows[0]]
        assert row[3] == pytest.approx(1.01875, rel=1e-10)
        assert row[4] == pytest.approx(1.01875, rel=1e-10)
        assert row[1] == pytest.approx(1.018559, abs=2e-6)
        assert row[2] == pytest.approx(1.018558, abs=2e-6)
        assert row[6] <= 5e-4

    def test_show_scheme_prints_tags(self, capsys):
        code, out, _ = run(capsys, "table1", "--eps", "0.01", "--show-scheme")
        assert code == 0
        assert "# column schemes:" in out
        assert "classical-wr-pdx" in out
        assert "classical-fullrel-xdp" in out

    def test_show_scheme_describes_the_first_order_xdp_column(self, capsys):
        code, out, _ = run(capsys, "table1", "--eps", "0.01", "--show-scheme")
        assert code == 0
        assert (
            "#   weakrel_xdp: classical-wr-xdp -- momentum form truncated at order eps, "
            "(e/omega0)(1 + 3 eps/16)"
        ) in out.splitlines()


_WEAK_REL_DIAG = "#   diag: weak-rel -- ladder-basis diagonalization oracle"


@pytest.mark.parametrize(
    "argv, notes",
    [
        (
            ["table1", "--eps", "0.01"],
            [
                "#   fullrel_pdx: classical-fullrel-pdx -- tabulated series in eps/(2+eps), coordinate contour",
                "#   fullrel_xdp: classical-fullrel-xdp -- tabulated series in eps, momentum contour",
                "#   weakrel_pdx: classical-wr-pdx -- (e/omega0)(1 + 3 eps/16)",
                "#   weakrel_xdp: classical-wr-xdp -- momentum form truncated at order eps, "
                "(e/omega0)(1 + 3 eps/16)",
                "#   quadrature: full-rel -- midpoint-rule contour integral oracle",
            ],
        ),
        (
            ["table2", "--nmax", "0"],
            [
                "#   wr-pdx: quantum-wr-pdx -- coordinate-form first-order spectrum",
                "#   wr-xdp: quantum-wr-xdp -- momentum-form first-order spectrum",
                "#   jwkb: jwkb-wr -- semiclassical discretization of the classical action",
                "#   rs: rayleigh-schrodinger -- first-order expectation value of the p^4 term",
                _WEAK_REL_DIAG,
            ],
        ),
        (
            ["levels", "--scheme", "sho", "--nmax", "0"],
            [
                "#   sho: quantum-sho-pdx -- harmonic spectrum (n + 1/2) hbar omega0",
                "#   exact: sho -- closed-form harmonic levels (n + 1/2) hbar omega0",
            ],
        ),
        (
            ["levels", "--scheme", "wr-pdx", "--nmax", "0"],
            ["#   wr-pdx: quantum-wr-pdx -- coordinate-form first-order spectrum", _WEAK_REL_DIAG],
        ),
        (
            ["levels", "--scheme", "wr-xdp", "--nmax", "0"],
            ["#   wr-xdp: quantum-wr-xdp -- momentum-form first-order spectrum", _WEAK_REL_DIAG],
        ),
        (
            ["levels", "--scheme", "jwkb", "--nmax", "0"],
            ["#   jwkb: jwkb-wr -- semiclassical discretization of the classical action", _WEAK_REL_DIAG],
        ),
        (
            ["levels", "--scheme", "rs", "--nmax", "0"],
            ["#   rs: rayleigh-schrodinger -- first-order expectation value of the p^4 term", _WEAK_REL_DIAG],
        ),
        (
            ["levels", "--scheme", "aho", "--nmax", "0", "--delta", "1e-3"],
            [
                "#   aho: quantum-aho-pdx -- quartic-anharmonic first-order spectrum",
                "#   diag: quartic-aho -- ladder-basis diagonalization oracle",
            ],
        ),
    ],
)
def test_show_scheme_block_is_pinned(capsys, argv, notes):
    # the whole block, byte for byte, ahead of the table it describes
    code, out, _ = run(capsys, *argv, "--show-scheme")
    assert code == 0
    block = "\n".join(["# column schemes:", *notes, "", ""])
    assert out.startswith(block)
    assert out[len(block):] == run(capsys, *argv)[1]


class TestTable2:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "table2", "--nmax", "4")
        assert code == 0
        header, rows = table_rows(out)
        assert header == ["n", "wr-pdx", "wr-xdp", "jwkb", "rs", "diag", "max_dev_from_diag"]
        assert len(rows) == 5

    def test_rs_column_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "table2", "--nmax", "3", "--ratio", "0.001")
        assert code == 0
        _, rows = table_rows(out)
        for n, row in enumerate(rows):
            expected = -(3.0 / 16.0) * ((n + 0.5) ** 2 + 0.25) * 0.001
            assert float(row[4]) == pytest.approx(expected, rel=1e-10)

    def test_rs_tracks_diag_at_small_ratio(self, capsys):
        code, out, _ = run(capsys, "table2", "--nmax", "3", "--ratio", "1e-4")
        assert code == 0
        _, rows = table_rows(out)
        for row in rows:
            assert abs(float(row[4]) - float(row[5])) < 1e-6

    def test_show_scheme_names_the_weak_rel_oracle(self, capsys):
        code, out, _ = run(capsys, "table2", "--nmax", "1", "--show-scheme")
        assert code == 0
        notes = [ln for ln in out.splitlines() if ln.startswith("#   ")]
        assert [ln.split(":")[0] for ln in notes] == [
            "#   wr-pdx", "#   wr-xdp", "#   jwkb", "#   rs", "#   diag"
        ]
        assert notes[-1] == "#   diag: weak-rel -- ladder-basis diagonalization oracle"

    def test_uncertifiable_basis_exits_two_before_solving(self, capsys, monkeypatch):
        # nmax 128 needs a basis of 1024, the certification cap, so no
        # doubling is left to certify it with
        def no_solve(*_):
            raise AssertionError("eigensolver ran before the refusal")

        monkeypatch.setattr(oracles, "jacobi_eigenvalues", no_solve)
        code, out, err = run(capsys, "table2", "--nmax", "128")
        assert code == 2
        assert out == ""
        assert err.startswith("actionvar: oracle convergence failure: ")
        assert "1024" in err


class TestFrequency:
    def test_shift_coefficient(self, capsys):
        code, out, _ = run(capsys, "freq", "--eps", "0.01,0.02")
        assert code == 0
        _, rows = table_rows(out)
        for row in rows:
            assert float(row[4]) == pytest.approx(3.0 / 8.0, rel=0.05)

    def test_eps_zero_row_is_the_harmonic_limit(self, capsys):
        code, out, _ = run(capsys, "freq", "--eps", "0,0.02")
        assert code == 0
        _, rows = table_rows(out)
        assert rows[0] == ["0", "1", "1", "1", "0.375"]
        assert rows[1][0] == "0.02"

    def test_three_routes_agree(self, capsys):
        code, out, _ = run(capsys, "freq", "--eps", "0.02,0.05")
        assert code == 0
        _, rows = table_rows(out)
        omegas = [float(v) for v in rows[0][1:4]]
        assert max(omegas) - min(omegas) < 5e-4
        # the closed form is first order in eps, but dJ/dE and the
        # trajectory period are exact up to their numerics
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[3]), rel=1e-8)

    def test_any_unconverged_oracle_exits_two(self, capsys, monkeypatch):
        def stalled(*_):
            raise NotConverged("planted")

        monkeypatch.setattr(cli, "rk4_period", stalled)
        code, out, err = run(capsys, "freq", "--eps", "0.02")
        assert code == 2
        assert out == ""
        assert err == "actionvar: oracle convergence failure: planted\n"


class TestLevels:
    def test_sho_energies(self, capsys):
        code, out, _ = run(capsys, "levels", "--scheme", "sho", "--nmax", "3")
        assert code == 0
        _, rows = table_rows(out)
        for n, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(n + 0.5)
            assert row[5] == "True"

    def test_wr_pdx_against_oracle(self, capsys):
        # the coordinate-form spectrum has a constant offset linear in the
        # level ratio, so the oracle check needs a small ratio to pass
        code, out, _ = run(
            capsys, "levels", "--scheme", "wr-pdx", "--nmax", "4", "--ratio", "1e-4"
        )
        assert code == 0
        _, rows = table_rows(out)
        assert all(row[5] == "True" for row in rows)

    def test_wr_pdx_offset_visible_at_default_ratio(self, capsys):
        code, out, _ = run(capsys, "levels", "--scheme", "wr-pdx", "--nmax", "4")
        assert code == 0
        _, rows = table_rows(out)
        assert all(row[5] == "False" for row in rows)

    def test_wr_pdx_ground_state_correction_prints_zero(self, capsys):
        # n (n + 10/3) vanishes exactly at n = 0, so no rounding residue shows
        code, out, _ = run(capsys, "levels", "--scheme", "wr-pdx", "--nmax", "0")
        assert code == 0
        _, rows = table_rows(out)
        assert rows[0][:3] == ["0", "0.5", "0"]

    def test_aho_scheme_uses_delta(self, capsys):
        code, out, _ = run(
            capsys, "levels", "--scheme", "aho", "--nmax", "2", "--delta", "0.001"
        )
        assert code == 0
        _, rows = table_rows(out)
        assert float(rows[0][1]) == pytest.approx(0.5007506, abs=1e-6)
        assert all(row[5] == "True" for row in rows)

    def test_show_scheme_names_the_aho_oracle(self, capsys):
        code, out, _ = run(
            capsys, "levels", "--scheme", "aho", "--nmax", "1", "--delta", "0.001", "--show-scheme"
        )
        assert code == 0
        oracle_lines = [ln for ln in out.splitlines() if ln.startswith("#   diag:")]
        assert len(oracle_lines) == 1
        assert "quartic-aho" in oracle_lines[0]
        assert "quantum-wr-pdx" not in oracle_lines[0]

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["--scheme", "wr-pdx"], "--delta", "0.5"),
            (["--scheme", "jwkb"], "--delta", "1e-3"),
            (["--scheme", "aho", "--delta", "1e-3"], "--ratio", "0.3"),
            (["--scheme", "sho"], "--ratio", "0.3"),  # c does not enter the harmonic levels
        ],
    )
    def test_ignored_flag_warns_and_leaves_output_alone(self, capsys, argv, flag, value):
        code, plain, plain_err = run(capsys, "levels", "--nmax", "2", *argv)
        assert code == 0 and plain_err == ""
        code, out, err = run(capsys, "levels", "--nmax", "2", *argv, flag, value)
        assert code == 0
        assert out == plain
        assert err.splitlines() == [
            f"actionvar: warning: {flag} does not apply to scheme {argv[1]!r} and is ignored"
        ]

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_nonfinite_delta_exits_one_before_solving(self, capsys, monkeypatch, delta):
        def no_solve(*args):
            raise AssertionError("the spectral oracle ran")

        monkeypatch.setattr(oracles, "jacobi_eigenvalues", no_solve)
        code, out, err = run(capsys, "levels", "--scheme", "aho", "--nmax", "2", "--delta", delta)
        assert code == 1 and out == ""
        assert err == f"actionvar: error: delta must be finite, got {delta}\n"

    def test_negative_delta_spellings_agree(self, capsys, tmp_path):
        # argparse takes "-1e-4" after a space for a flag; these three forms all work
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = -1e-4\n")
        argv = ["levels", "--scheme", "aho", "--nmax", "2"]
        outs = [
            run(capsys, *argv, "--delta=-1e-4"),
            run(capsys, *argv, "--delta", "-0.0001"),
            run(capsys, *argv, "--config", str(cfg)),
        ]
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][0] == 0 and outs[0][2] == ""
        assert float(table_rows(outs[0][1])[1][0][1]) < 0.5

    def test_applicable_flags_do_not_warn(self, capsys):
        _, _, err = run(capsys, "levels", "--scheme", "rs", "--nmax", "1", "--ratio", "1e-3")
        assert err == ""
        _, _, err = run(capsys, "levels", "--scheme", "aho", "--nmax", "1", "--delta", "1e-3")
        assert err == ""

    def test_tolerance_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ACTIONVAR_TOL", "1e-300")
        code, out, _ = run(capsys, "levels", "--scheme", "wr-pdx", "--nmax", "2")
        assert code == 0
        _, rows = table_rows(out)
        assert any(row[5] == "False" for row in rows)

    def test_bad_scheme_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["levels", "--scheme", "nope"])
        assert exc.value.code == 1
        capsys.readouterr()


class TestCsvOutput:
    def test_file_contents(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run(capsys, "table1", "--eps", "0.01,0.1", "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "eps"
        assert len(lines) == 3

    def test_deterministic_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "table2", "--nmax", "5", "--csv", str(a))
        run(capsys, "table2", "--nmax", "5", "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "table1", "--eps", "0.01", "--csv", str(tmp_path / "no" / "dir.csv")
        )
        assert code == 3
        assert "I/O error" in err


class TestConfigLayering:
    def test_config_file_sets_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.02  # a comment\nunits = c=5\n")
        code, out, _ = run(capsys, "table1", "--config", str(cfg))
        assert code == 0
        _, rows = table_rows(out)
        assert len(rows) == 1 and rows[0][0] == "0.02"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax = 9\n")
        code, out, _ = run(capsys, "table2", "--config", str(cfg), "--nmax", "2")
        assert code == 0
        _, rows = table_rows(out)
        assert len(rows) == 3

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        code, _, err = run(capsys, "table1", "--config", str(cfg))
        assert code == 1
        assert "config error" in err

    def test_missing_config_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "table1", "--config", str(tmp_path / "absent.cfg"))
        assert code == 3

    def test_read_of_a_missing_file_refused(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read config .*absent.cfg"):
            cli._read_config_file(str(tmp_path / "absent.cfg"))

    def test_resolve_refuses_a_value_that_does_not_convert(self):
        with pytest.raises(ConfigInvalid, match="bad value for nmax: '2.5'"):
            cli._resolve("nmax", "2.5", {})

    def test_whitespace_eps_keeps_the_default(self, capsys):
        code, out, _ = run(capsys, "table1", "--eps", "  ")
        assert code == 0
        assert out == run(capsys, "table1")[1]

    def test_bad_eps_exits_one(self, capsys):
        code, _, err = run(capsys, "table1", "--eps", "0.7")
        assert code == 1
        assert "config error" in err

    def test_bad_units_exits_one(self, capsys):
        code, _, err = run(capsys, "table1", "--units", "mass=2")
        assert code == 1

    def test_units_change_scales(self, capsys):
        # k = 4 doubles omega0; the normalized table is unchanged
        code, out, _ = run(capsys, "table1", "--eps", "0.05", "--units", "k=4")
        assert code == 0
        _, rows = table_rows(out)
        assert float(rows[0][3]) == pytest.approx(1.0 + 3.0 * 0.05 / 16.0, rel=1e-10)

    def test_blank_config_values_keep_the_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps =\nunits =\n")
        code, out, _ = run(capsys, "table1", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "table1")[1]

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmx = 50\n")
        code, out, err = run(capsys, "table2", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == f"actionvar: config error: {cfg}:1: unknown key 'nmx'\n"

    def test_scheme_is_not_a_config_key(self, capsys, tmp_path):
        # levels requires --scheme as a flag, so a file value could never apply
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = aho\n")
        code, out, err = run(capsys, "levels", "--scheme", "sho", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == f"actionvar: config error: {cfg}:1: unknown key 'scheme'\n"

    def test_key_another_subcommand_reads_is_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.02\n")
        code, out, _ = run(capsys, "table2", "--nmax", "1", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "table2", "--nmax", "1")[1]

    def test_malformed_config_value_names_the_setting(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ratio = abc\n")
        code, _, err = run(capsys, "table2", "--config", str(cfg))
        assert code == 1
        assert err == "actionvar: config error: bad value for ratio: 'abc'\n"

    @pytest.mark.parametrize(
        "argv, name, value",
        [
            (["table2", "--ratio", "abc"], "ratio", "abc"),
            (["table2", "--nmax", "2.5"], "nmax", "2.5"),
            (["levels", "--scheme", "aho", "--delta", "x"], "delta", "x"),
            (["table1", "--eps", "abc"], "eps", "abc"),
            (["table1", "--eps", ","], "eps", ","),
            (["freq", "--eps", " , ,"], "eps", " , ,"),
        ],
    )
    def test_malformed_flag_names_the_setting(self, capsys, argv, name, value):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"actionvar: config error: bad value for {name}: {value!r}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table2", "--nmax", "-1"], "nmax must be >= 0, got -1"),
            (["table2", "--ratio", "-1"], "ratio must be >= 0, got -1.0"),
            (["table1", "--units", "m"], "units entry 'm' is not key=value"),
            (["table1", "--units", "c=x"], "bad unit value in 'c=x'"),
        ],
    )
    def test_out_of_range_or_malformed_value_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"actionvar: config error: {message}\n"

    def test_bad_tolerance_env_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("ACTIONVAR_TOL", "abc")
        code, out, err = run(capsys, "levels", "--scheme", "sho", "--nmax", "1")
        assert code == 1
        assert out == ""
        assert err == "actionvar: config error: bad ACTIONVAR_TOL 'abc'\n"

    def test_library_refusal_exits_one(self, capsys):
        # c = 0 passes the units parser; make_params refuses it
        code, out, err = run(capsys, "table1", "--units", "c=0")
        assert code == 1
        assert out == ""
        assert err == "actionvar: error: c must be finite and > 0, got 0.0\n"


class TestModuleEntryPoint:
    def test_python_m_actionvar_matches_main(self, capsys):
        src = str(Path(actionvar.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "actionvar", "table1"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        code, out, _ = run(capsys, "table1")
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()


# Each file under tests/golden holds the stdout of `python -m actionvar <argv>`
# at the default settings; rewrite one the same way only when a change to the
# printed numbers is intended, and say which digits moved.
_GOLDEN = Path(__file__).parent / "golden"
_GOLDEN_RUNS = [
    ("table1", ["table1"]),
    ("table2", ["table2", "--nmax", "3"]),
    ("freq", ["freq"]),
    *[
        (f"levels-{scheme}", ["levels", "--scheme", scheme, "--nmax", "5"])
        for scheme in ("sho", "wr-pdx", "wr-xdp", "jwkb", "rs")
    ],
    ("levels-aho", ["levels", "--scheme", "aho", "--nmax", "5", "--delta", "1e-3"]),
]


@pytest.mark.parametrize("name, argv", _GOLDEN_RUNS, ids=[name for name, _ in _GOLDEN_RUNS])
def test_stdout_and_exit_code_match_the_golden_file(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (_GOLDEN / f"{name}.txt").read_text(encoding="ascii")
