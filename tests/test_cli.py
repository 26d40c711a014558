"""Drive the command-line entry point in-process.

Every test calls cli.main(argv) directly and reads stdout/stderr through
capsys, so the whole argparse -> handler -> exit-code path is exercised
without spawning subprocesses. Exit codes are contract: 0 success, 2 bad
input, 3 oracle violation, 5 factoring budget exhausted.
"""
import csv
import io
import json
from datetime import datetime

import pytest
import sympy

from perronpoly import __version__, search
from perronpoly.cli import CSV_COLUMNS, LEDGER_ENV, main
from perronpoly.errors import NonConvergenceError
from perronpoly.family import FamilyParams, strictly_perron_certificate


# (x^2 - 18014398509482143)(x^2 - 18014398509482147): both constant terms
# exceed 2^54, where a double no longer holds every integer.
BIG_QUARTIC = "324518553658432527419476073801021,0,-36028797018964290,0,1"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDisc:
    def test_routes_agree_and_print(self, capsys):
        rc, out, _ = run(capsys, "disc", "2", "1", "3")
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "13, 13"
        record = json.loads(lines[1])
        assert record == {
            "n": 2, "a": 1, "p": 3, "closed": 13, "resultant": 13, "agree": True,
        }

    def test_negative_discriminant(self, capsys):
        rc, out, _ = run(capsys, "disc", "3", "1", "2")
        assert rc == 0
        assert out.strip().splitlines()[0] == "-116, -116"

    def test_composite_p_rejected(self, capsys):
        rc, out, err = run(capsys, "disc", "2", "1", "4")
        assert rc == 2
        assert out == ""
        assert "error:" in err


class TestClassify:
    def test_coeffs_with_leading_minus(self, capsys):
        # x^2 - x - 1; the folding shim must stop argparse from reading
        # "-1,-1,1" as a flag.
        rc, out, _ = run(capsys, "classify", "--coeffs", "-1,-1,1")
        assert rc == 0
        record = json.loads(out)
        assert record["class"] == "Perron"
        assert record["subclass"] == "Pisot"
        assert abs(float(record["lambda"]) - (1 + 5 ** 0.5) / 2) < 1e-12
        assert record["profile"] == {"inside": 1, "on": 0, "outside": 1}

    def test_trinomial_flag(self, capsys):
        rc, out, _ = run(capsys, "classify", "--trinomial", "4", "3", "5")
        assert rc == 0
        record = json.loads(out)
        assert record["subclass"] == "StrictlyPerron"
        assert float(record["lambda"]) > 3

    def test_trinomial_above_the_oracle_ceiling(self, capsys):
        # No irreducibility criterion fires at degree 15 or 16 here; the
        # family dichotomy decides, as in the certificate.
        rc, out, _ = run(capsys, "classify", "--trinomial", "15", "2", "3")
        assert rc == 0
        assert json.loads(out)["subclass"] == "StrictlyPerron"
        rc, out, _ = run(capsys, "classify", "--trinomial", "16", "2", "3")  # x + 1 divides
        assert rc == 0
        assert json.loads(out)["class"] == "NotIrreducible"

    @pytest.mark.parametrize("point, coeffs", [
        (("4", "3", "5"), "-5,0,0,-3,1"), (("2", "1", "2"), "-2,-1,1"),
        (("32", "2", "3"), FamilyParams(32, 2, 3).poly.to_text()),  # root -1, degree > 14
    ])
    def test_trinomial_matches_coeffs(self, capsys, point, coeffs):
        assert run(capsys, "classify", "--trinomial", *point) == run(
            capsys, "classify", "--coeffs", coeffs
        )

    def test_lehmer_salem(self, capsys):
        rc, out, _ = run(
            capsys, "classify", "--coeffs", "1,1,0,-1,-1,-1,-1,-1,0,1,1"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["subclass"] == "Salem"
        assert 1.17627 < float(record["lambda"]) < 1.17629

    def test_poly_flags_are_exclusive(self, capsys):
        rc, _, err = run(
            capsys, "classify", "--coeffs", "-1,-1,1", "--trinomial", "2", "1", "3"
        )
        assert rc == 2
        assert "not both" in err

    def test_poly_flags_are_required(self, capsys):
        rc, _, err = run(capsys, "classify")
        assert rc == 2
        assert "required" in err

    def test_tied_conjugate_pairs(self, capsys):
        # x^4 - 2x^3 + 2x^2 - 4x + 4: all four roots on |z| = sqrt 2.
        rc, out, _ = run(capsys, "classify", "--coeffs", "4,-4,2,-2,1")
        assert rc == 0
        assert '"class": "NoPerronRoot"' in out

    def test_factor_with_a_constant_above_2_53(self, capsys):
        rc, out, _ = run(capsys, "classify", "--coeffs", BIG_QUARTIC)
        assert rc == 0
        assert '"class": "NotIrreducible"' in out


class TestMonogenic:
    def test_not_monogenic_witness(self, capsys):
        rc, out, _ = run(capsys, "monogenic", "--coeffs", "-11,-1,1")
        assert rc == 0
        record = json.loads(out)
        assert record["verdict"] == "NotMonogenic(3)"
        assert record["disc"] == 45

    def test_monogenic_trinomial(self, capsys):
        rc, out, _ = run(capsys, "monogenic", "--trinomial", "2", "1", "3")
        assert rc == 0
        assert json.loads(out)["verdict"] == "Monogenic"

    def test_reports_the_trinomial_condition(self, capsys):
        # Where the trinomial criterion applies its condition is reported;
        # the Dedekind test has confirmed the verdict.
        rc, out, _ = run(capsys, "monogenic", "--coeffs", "-11,-1,1")
        assert rc == 0
        record = json.loads(out)
        assert record["locals"] == [
            {"q": 3, "result": "DividesIndex", "condition": "(v)"}
        ]

    def test_trinomial_above_the_oracle_ceiling(self, capsys):
        rc, out, _ = run(capsys, "monogenic", "--trinomial", "15", "4", "5")
        assert rc == 0
        assert json.loads(out)["verdict"] == "Monogenic"

    @pytest.mark.parametrize(
        "point",
        [
            (2, 1, 31),  # G = 125: NotMonogenic(5)
            (2, 1, 3),
            (4, 3, 5),
            (6, 5, 7),
            (3, 2, 3),  # p = a + 1 at odd n
        ],
        ids=lambda point: "-".join(map(str, point)),
    )
    def test_trinomial_matches_coeffs(self, capsys, point):
        coeffs = FamilyParams(*point).poly.to_text()
        assert run(capsys, "monogenic", "--trinomial", *map(str, point)) == run(
            capsys, "monogenic", "--coeffs", coeffs
        )

    def test_trinomial_factors_g_not_the_discriminant(self, capsys):
        # |disc| = p^6 * G with p = 2305843009213693967: the report reads p^6
        # from the closed form and factors only G, as the certificate does,
        # instead of asking rho to find p inside |disc|.
        rc, out, _ = run(capsys, "monogenic", "--trinomial", "8", "1", "2305843009213693967")
        assert rc == 0
        record = json.loads(out)
        assert record["verdict"] == "Monogenic"
        assert record["disc_factors"]["complete"] is True

    def test_reducible_rejected(self, capsys):
        rc, _, err = run(capsys, "monogenic", "--coeffs", "-1,0,1")
        assert rc == 2
        assert "error:" in err
        assert run(capsys, "monogenic", "--trinomial", "16", "2", "3")[0] == 2

    def test_factor_with_a_constant_above_2_53_rejected(self, capsys):
        rc, _, err = run(capsys, "monogenic", "--coeffs", BIG_QUARTIC)
        assert rc == 2
        assert "irreducible" in err

    def test_budget_exhaustion_exits_5(self, capsys):
        # Discriminant 1 + 4c equal to a product of four ~1e9 primes: with a
        # zero factoring budget its squarefree status is undecidable, and the
        # command must say so through the exit code.
        primes, candidate = [], 10**9
        while len(primes) < 4:
            candidate = int(sympy.nextprime(candidate))
            if candidate % 4 == 1:
                primes.append(candidate)
        m = primes[0] * primes[1] * primes[2] * primes[3]
        c = (m - 1) // 4
        rc, out, _ = run(
            capsys, "monogenic", "--coeffs", f"-{c},-1,1", "--budget", "0"
        )
        assert rc == 5
        assert json.loads(out)["verdict"].startswith("Unknown(")


class TestSearch:
    def test_degree_spec_is_mandatory_and_exclusive(self, capsys):
        rc, _, err = run(capsys, "search", "--a", "1", "--pmax", "20")
        assert rc == 2
        assert "--n or --nmax" in err
        rc, _, err = run(
            capsys, "search", "--n", "2", "--nmax", "3", "--a", "1", "--pmax", "20"
        )
        assert rc == 2
        assert "not both" in err

    def test_degree_16_sweep_through_p_equals_a_plus_one(self, capsys):
        rc, out, _ = run(capsys, "search", "--n", "16", "--a", "2", "--pmax", "7")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["p"] for r in records] == [2, 3, 5, 7]
        assert records[1]["conclusion"] == "reducible"

    def test_json_lines_default(self, capsys):
        rc, out, err = run(capsys, "search", "--n", "2", "--a", "1", "--pmax", "50")
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 15  # primes up to 50 inclusive
        hits = [r["p"] for r in records if r["monogenic"] == "Monogenic"]
        assert hits == [3, 5, 7, 13, 17, 19, 23, 37, 41, 43]
        assert "searched 15 points" in err

    def test_summary_counts_unknowns(self, capsys):
        rc, _, err = run(capsys, "search", "--n", "14", "--a", "3", "--pmax", "5", "--budget", "0")
        assert rc == 0
        assert err.strip() == (
            "searched 3 points: 1 monogenic strictly-Perron, 0 with G not squarefree, "
            "1 unknown, 0 reducible"
        )

    def test_csv_format(self, capsys):
        rc, out, _ = run(
            capsys, "search", "--n", "2", "--a", "1", "--pmax", "13",
            "--format", "csv",
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 7  # header + primes 2..13
        by_p = {int(row[2]): dict(zip(CSV_COLUMNS, row)) for row in rows[1:]}
        assert by_p[3]["disc"] == "13"
        assert by_p[3]["G_status"] == "Squarefree"
        assert by_p[3]["conclusion"] == "monogenic strictly-Perron"
        # 12 significant digits, dominant root of x^2 - x - 3
        assert by_p[3]["lambda"] == "2.30277563773"
        assert by_p[2]["conclusion"] == "reducible"
        assert by_p[2]["lambda"] == ""

    def test_coprime_only_filter(self, capsys):
        rc, out, _ = run(
            capsys, "search", "--nmax", "2", "--amax", "2", "--pmax", "7",
            "--coprime-only",
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {(r["n"], r["a"]) for r in records} == {(2, 1)}
        assert len(records) == 4  # primes 2, 3, 5, 7

    def test_ledger_flag_appends(self, capsys, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        for _ in range(2):
            rc, _, _ = run(
                capsys, "search", "--n", "2", "--a", "1", "--pmax", "5",
                "--ledger", str(ledger),
            )
            assert rc == 0
        lines = ledger.read_text().strip().splitlines()
        assert len(lines) == 6  # three primes, two runs, appended not clobbered
        for line in lines:
            record = json.loads(line)
            assert record["version"] == __version__
            datetime.fromisoformat(record["timestamp"])

    def test_ledger_env_var(self, capsys, tmp_path, monkeypatch):
        ledger = tmp_path / "env.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger))
        rc, _, _ = run(capsys, "search", "--n", "2", "--a", "1", "--pmax", "3")
        assert rc == 0
        assert len(ledger.read_text().strip().splitlines()) == 2

    def test_unopenable_ledger_flag_is_invalid_input(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "x.jsonl"
        rc, out, err = run(
            capsys, "search", "--n", "2", "--a", "1", "--pmax", "3", "--ledger", str(missing),
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot open ledger")

    def test_unopenable_ledger_env_var_is_invalid_input(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "missing" / "x.jsonl"))
        rc, out, err = run(
            capsys, "search", "--n", "2", "--a", "1", "--pmax", "3", "--format", "csv",
        )
        assert rc == 2
        assert out == ""  # not even the CSV header
        assert err.startswith("error: cannot open ledger")

    def test_ledger_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        ignored = tmp_path / "ignored.jsonl"
        chosen = tmp_path / "chosen.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ignored))
        rc, _, _ = run(
            capsys, "search", "--n", "2", "--a", "1", "--pmax", "3",
            "--ledger", str(chosen),
        )
        assert rc == 0
        assert chosen.exists()
        assert not ignored.exists()


class TestVerify:
    def test_grid_past_oracle_ceiling_passes(self, capsys):
        # Degrees 15 and 16 are past the factor oracle; verify compares the
        # dichotomy with it only up to the ceiling and must not abort there.
        rc, out, _ = run(capsys, "verify", "--nmax", "16", "--amax", "1", "--pmax", "5")
        assert rc == 0
        assert out.strip() == "verify: all 30 grid points passed"

    def test_small_grid_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--nmax", "4", "--amax", "3", "--pmax", "30")
        assert rc == 0
        assert out.strip() == "verify: all 90 grid points passed"

    def test_fault_injection_trips_checks(self, capsys):
        rc, out, err = run(
            capsys, "verify", "--nmax", "2", "--amax", "1", "--pmax", "20",
            "--inject-fault", "disc-sign",
        )
        assert rc == 3
        fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(fail_lines) == 8  # every prime below 20 trips
        assert "failures" in err

    def test_mono_route_fault_trips_checks(self, capsys):
        rc, out, err = run(
            capsys, "verify", "--nmax", "4", "--amax", "3", "--pmax", "30",
            "--inject-fault", "mono-route",
        )
        assert rc == 3
        fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert fail_lines
        assert all("monogenicity routes disagree" in l for l in fail_lines)
        # The failure list stops at 25 entries; the summary still names the
        # whole grid, not the points visited before the stop.
        assert "failure list truncated" in out
        assert "failures on the 90-point grid" in err

    def test_failing_point_does_not_abort_the_grid(self, capsys, monkeypatch):
        def flaky(n, a, p, **kwargs):
            if (n, a, p) == (3, 2, 7):
                raise NonConvergenceError("injected")
            return strictly_perron_certificate(n, a, p, **kwargs)

        monkeypatch.setattr(search, "strictly_perron_certificate", flaky)
        rc, out, err = run(capsys, "verify", "--nmax", "4", "--amax", "3", "--pmax", "30")
        assert rc == 3
        assert out.splitlines() == ["FAIL (n=3, a=2, p=7): NonConvergenceError: injected"]
        assert "failures on the 90-point grid" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--nmax", "1", "--amax", "1", "--pmax", "10"],
            ["--nmax", "4", "--amax", "0", "--pmax", "10"],
            ["--nmax", "4", "--amax", "1", "--pmax", "2"],
        ],
    )
    def test_empty_grid_rejected(self, capsys, flags):
        rc, out, err = run(capsys, "verify", *flags)
        assert rc == 2
        assert out == ""
        assert "error: the grid needs" in err

    def test_unknown_fault_name_rejected(self, capsys):
        rc, _, err = run(
            capsys, "verify", "--nmax", "2", "--amax", "1", "--pmax", "5",
            "--inject-fault", "bogus",
        )
        assert rc == 2
        assert "error:" in err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "2", "--a", "1", "--pmax", "13", "--precision", "64"],
            ["verify", "--nmax", "2", "--amax", "1", "--pmax", "13", "--precision", "64"],
            ["classify", "--coeffs", "-1,-1,1", "--precision", "64"],
            ["monogenic", "--coeffs", "-11,-1,1", "--method", "jks"],
        ],
    )
    def test_certificate_commands_have_no_precision_flag(self, capsys, argv):
        # Every command starts at the solver's default precision and runs
        # both local tests; neither is a choice.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "2", "--a", "1", "--pmax", "3"],
            ["verify", "--nmax", "2", "--amax", "1", "--pmax", "4"],
            ["monogenic", "--coeffs", "-3,-1,1"],
        ],
    )
    def test_negative_budget_rejected(self, capsys, argv):
        # A factoring budget below zero is invalid input, not an instant
        # Unknown; --budget 0 stays valid (test_budget_exhaustion_exits_5).
        rc, out, err = run(capsys, *argv, "--budget", "-1")
        assert rc == 2
        assert out == ""
        assert "budget" in err
