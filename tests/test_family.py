"""The x^n - a x^{n-1} - p pipeline: closed forms, certificates, searches."""
from __future__ import annotations

import json
import math
from dataclasses import replace
from datetime import datetime
from fractions import Fraction

import pytest

from conftest import poly
import perronpoly
from perronpoly import __version__, family, search
from perronpoly.classification import classify_irreducible
from perronpoly.errors import InvalidInputError, OracleViolationError
from perronpoly.family import (
    Certificate,
    FamilyParams,
    build,
    descartes_profile,
    discriminant_closed,
    family_irreducible,
    family_monogenic,
    g_value,
    strictly_perron_certificate,
)
from perronpoly.intarith import factorize, is_prime, primes_below
from perronpoly.irreducibility import factor_oracle, irreducibility_witness, is_irreducible
from perronpoly.matrices import char_poly, companion_matrix, dominant_eigenvalue
from perronpoly.monogenicity import monogenic
from perronpoly.polynomial import discriminant
from perronpoly.search import SearchSpec, SearchTally, ledger_record, run_search, run_verify


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            FamilyParams(1, 1, 3)  # n too small
        with pytest.raises(InvalidInputError):
            FamilyParams(2, 0, 3)  # a too small
        with pytest.raises(InvalidInputError):
            FamilyParams(2, 1, 4)  # p not prime

    def test_coprime_and_applicability(self):
        assert FamilyParams(4, 3, 5).coprime
        assert FamilyParams(4, 3, 5).theorem_applicable
        assert not FamilyParams(4, 2, 5).coprime
        assert not FamilyParams(4, 2, 5).theorem_applicable
        # p = a + 1 fails the strict inequality even when coprime.
        assert not FamilyParams(3, 2, 3).theorem_applicable


class TestClosedForms:
    def test_build(self):
        assert build(2, 1, 3) == poly(-3, -1, 1)
        assert build(4, 3, 5) == poly(-5, 0, 0, -3, 1)
        assert build(4, 3, 5).pretty() == "x^4 - 3*x^3 - 5"

    def test_g_value(self):
        assert g_value(2, 1, 3) == 13
        assert g_value(3, 1, 2) == 58
        assert g_value(4, 3, 5) == 3467

    def test_discriminant_closed(self):
        assert discriminant_closed(2, 1, 3) == 13
        assert discriminant_closed(3, 1, 2) == -116
        assert discriminant_closed(4, 3, 5) == -86675

    def test_closed_matches_resultant_grid(self):
        for n in range(2, 7):
            for a in range(1, 5):
                for p in primes_below(30):
                    assert discriminant_closed(n, a, p) == discriminant(build(n, a, p))

    def test_irreducibility_dichotomy(self):
        # Reducible exactly at even n with p = a + 1.
        assert not family_irreducible(2, 1, 2)
        assert not family_irreducible(4, 1, 2)
        assert not family_irreducible(6, 2, 3)
        assert family_irreducible(3, 1, 2)  # odd n, p = a + 1
        assert family_irreducible(2, 1, 3)
        for n in range(2, 6):
            for a in range(1, 5):
                for p in primes_below(20):
                    assert family_irreducible(n, a, p) == is_irreducible(build(n, a, p))

    def test_companion_shape(self):
        m = companion_matrix(build(4, 3, 5))
        assert char_poly(m) == build(4, 3, 5)
        assert m[0][-1] == 5 and m[-1][-1] == 3


class TestFamilyMonogenic:
    def test_verdicts(self):
        assert family_monogenic(2, 1, 3) == "Monogenic"
        # G(31) = 125 = 5^3 for n = 2, a = 1.
        assert family_monogenic(2, 1, 31) == "NotMonogenic(5)"

    def test_requires_coprime(self):
        with pytest.raises(InvalidInputError):
            family_monogenic(4, 2, 5)

    def test_requires_irreducible(self):
        with pytest.raises(InvalidInputError):
            family_monogenic(2, 1, 2)

    def test_agrees_with_local_tests_everywhere(self):
        # The squarefree-G criterion and the local index tests are fully
        # independent routes; their verdicts (witness prime included) must
        # coincide on the whole coprime grid.
        for n in range(2, 6):
            for a in range(1, 5):
                if math.gcd(a, n) != 1:
                    continue
                for p in primes_below(60):
                    if not family_irreducible(n, a, p):
                        continue
                    assert family_monogenic(n, a, p) == monogenic(build(n, a, p)).verdict, (n, a, p)


class TestDescartes:
    def test_parity_profiles(self):
        assert descartes_profile(2, 1, 3) == (1, 1)
        assert descartes_profile(4, 3, 5) == (1, 1)
        assert descartes_profile(3, 1, 2) == (1, 0)
        assert descartes_profile(5, 2, 7) == (1, 0)


class TestCertificate:
    def test_strictly_perron_monogenic(self):
        cert = strictly_perron_certificate(4, 3, 5)
        assert cert.irreducible
        assert cert.g == 3467
        assert cert.g_status == "Squarefree"
        assert cert.monogenic_verdict == "Monogenic"
        assert cert.classification.headline == "StrictlyPerron"
        assert cert.conclusion == "monogenic strictly-Perron"
        assert cert.params.theorem_applicable

    def test_not_monogenic_member(self):
        cert = strictly_perron_certificate(2, 1, 31)
        assert cert.g_status == "NotSquarefree(5)"
        assert cert.monogenic_verdict == "NotMonogenic(5)"
        assert cert.conclusion == "strictly-Perron, NOT monogenic"

    def test_small_p_pisot_member(self):
        cert = strictly_perron_certificate(3, 2, 2)
        assert cert.classification.headline == "Pisot"
        assert cert.conclusion == "monogenic Pisot"
        assert not cert.params.theorem_applicable

    def test_small_p_anti_pisot_member(self):
        cert = strictly_perron_certificate(4, 3, 3)
        assert cert.classification.headline == "AntiPisot"
        assert cert.conclusion.startswith("monogenic anti-Pisot") or cert.conclusion == "anti-Pisot, NOT monogenic"

    def test_reducible_member(self):
        cert = strictly_perron_certificate(2, 1, 2)
        assert not cert.irreducible
        assert cert.monogenicity is None
        assert cert.monogenic_verdict == "NotApplicable(reducible)"
        assert cert.conclusion == "reducible"
        assert cert.classification.headline == "NotIrreducible"

    def test_eigenvalue_matches_dominant_root(self):
        cert = strictly_perron_certificate(5, 2, 11)
        lam = Fraction(cert.classification.dominant)
        eps = Fraction(1, 10**12) * lam
        assert cert.poly(lam - eps) < 0 < cert.poly(lam + eps)
        eigen = dominant_eigenvalue(companion_matrix(cert.poly))
        assert eigen == pytest.approx(float(lam), abs=1e-8)

    def test_shifted_root_trips_the_bracket(self, monkeypatch):
        # A root 1e-9 away (relatively) from the true one lies outside the
        # 1e-12 bracket, so the sign-change check must refuse it.
        def shifted(f, precision_bits):
            cls = classify_irreducible(f, precision_bits)
            lam = Fraction(cls.dominant) * (1 + Fraction(1, 10**9))
            return replace(cls, dominant=str(float(lam)))

        monkeypatch.setattr(family, "classify_irreducible", shifted)
        with pytest.raises(OracleViolationError, match="not bracketed"):
            strictly_perron_certificate(5, 2, 11)

    def test_json_shape(self):
        d = strictly_perron_certificate(4, 3, 5).to_json_dict()
        assert set(d) == {
            "n", "a", "p", "poly", "disc", "G", "G_status", "irreducible",
            "monogenic", "class", "lambda", "theorem_applicable", "conclusion",
        }
        assert d["disc"] == -86675
        assert d["G"] == 3467
        assert d["class"] == "StrictlyPerron"
        assert float(d["lambda"]) > 3  # root of x^4 - 3x^3 - 5 is ~3.17

    def test_fault_injection_trips_oracle(self):
        with pytest.raises(OracleViolationError):
            strictly_perron_certificate(4, 3, 5, _fault="disc-sign")
        with pytest.raises(InvalidInputError):
            strictly_perron_certificate(4, 3, 5, _fault="no-such-fault")

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            strictly_perron_certificate(2, 1, 9)

    @pytest.mark.parametrize(
        "point, irreducible, headline, conclusion",
        [
            ((15, 4, 5), True, "StrictlyPerron", "monogenic strictly-Perron"),
            ((16, 2, 3), False, "NotIrreducible", "reducible"),
            ((24, 1, 2), False, "NotIrreducible", "reducible"),
        ],
    )
    def test_p_equals_a_plus_one_above_oracle_ceiling(
        self, point, irreducible, headline, conclusion
    ):
        # Degree 15 and up is past the factor oracle; the dichotomy alone
        # decides irreducibility, so these points certify instead of raising.
        d = strictly_perron_certificate(*point).to_json_dict()
        assert (d["irreducible"], d["class"], d["conclusion"]) == (
            irreducible, headline, conclusion,
        )

    @pytest.mark.parametrize(
        "point",
        [(2, 1, 1000000007), (2, 1, 2305843009213693967), (6, 1, 2**61 - 1)],
    )
    def test_large_p_certifies(self, point):
        # Power iteration on the companion matrix did not converge here
        # (|lambda_2 / lambda_1| is close to 1); the exact bracket does not
        # iterate, so these points certify.
        cert = strictly_perron_certificate(*point)
        assert cert.classification.headline == "StrictlyPerron"
        assert cert.conclusion == "monogenic strictly-Perron"

    def test_large_p_discriminant_needs_no_rho_on_p(self):
        # |disc| = p^6 * G with p just above 2^61: G factored alone settles
        # every square prime, where factoring p^6 * G ran out of rho budget.
        p = 2**61 + 1
        while not is_prime(p):
            p += 2
        cert = strictly_perron_certificate(8, 1, p)
        assert cert.monogenic_verdict == "Monogenic"
        assert cert.conclusion == "monogenic strictly-Perron"


def _count_calls(monkeypatch, fn) -> list:
    """Wrap every binding of fn across the package; returns the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name in list(vars(perronpoly)):
        module = getattr(perronpoly, name)
        if isinstance(module, type(perronpoly)):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("point", [(4, 3, 5), (3, 2, 3), (4, 1, 2)])
def test_certificate_computes_each_fact_once(monkeypatch, point):
    # A plain member, an odd-n member with p = a + 1, and a reducible one.
    assert family.factorize is factorize
    assert family.discriminant_resultant is discriminant
    factorizations = _count_calls(monkeypatch, factorize)
    discriminants = _count_calls(monkeypatch, discriminant)
    witnesses = _count_calls(monkeypatch, irreducibility_witness)
    oracles = _count_calls(monkeypatch, factor_oracle)
    companions = _count_calls(monkeypatch, companion_matrix)
    eigenvalues = _count_calls(monkeypatch, dominant_eigenvalue)
    strictly_perron_certificate(*point)
    assert factorizations == [(g_value(*point),)]
    assert discriminants == [(build(*point),)]
    assert witnesses == [] and oracles == []
    assert companions == [] and eigenvalues == []


class TestSearch:
    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SearchSpec((), (1,), 50)
        with pytest.raises(InvalidInputError):
            SearchSpec((2,), (1,), 1)
        with pytest.raises(InvalidInputError):
            SearchSpec((1,), (1,), 50)

    def test_pairs_order_and_coprime_filter(self):
        spec = SearchSpec((2, 3), (1, 2), 10)
        assert spec.pairs() == [(2, 1), (2, 2), (3, 1), (3, 2)]
        spec_c = SearchSpec((2, 3), (1, 2), 10, coprime_only=True)
        assert spec_c.pairs() == [(2, 1), (3, 1), (3, 2)]

    def test_run_search_order_and_tally(self):
        tally = SearchTally()
        certs = list(run_search(SearchSpec((2,), (1,), 13), tally))
        # primes 2, 3, 5, 7, 11, 13 in ascending order.
        assert [c.params.p for c in certs] == [2, 3, 5, 7, 11, 13]
        assert tally.points == 6
        assert tally.reducible == 1  # p = 2 = a + 1
        # G = 4p + 1: 9, 13, 21, 29, 45, 53 — squares at p = 2 and p = 11.
        assert tally.hits == 4
        assert tally.misses == 2
        assert tally.unknowns == 0
        assert "searched 6 points" in tally.summary()

    def test_search_deterministic(self):
        spec = SearchSpec((3, 4), (1, 2, 3), 20)
        first = [c.to_json_dict() for c in run_search(spec)]
        second = [c.to_json_dict() for c in run_search(spec)]
        assert first == second

    def test_ledger_record_roundtrip(self):
        cert = strictly_perron_certificate(4, 3, 5)
        line = ledger_record(cert)
        record = json.loads(line)
        assert record["n"] == 4 and record["p"] == 5
        assert record["version"] == __version__
        datetime.fromisoformat(record["timestamp"])  # must parse
        fixed = json.loads(ledger_record(cert, timestamp="2024-01-01T00:00:00+00:00"))
        assert fixed["timestamp"] == "2024-01-01T00:00:00+00:00"

    def test_verify_checks_dichotomy_against_oracle(self, monkeypatch):
        # A dichotomy that calls every member irreducible must trip at the
        # reducible points (even n, p = a + 1) below the oracle ceiling.
        monkeypatch.setattr(search, "family_irreducible", lambda n, a, p: True)
        report = run_verify(4, 1, 3)
        assert [f.split(":")[0] for f in report.failures] == ["(n=2, a=1, p=2)", "(n=4, a=1, p=2)"]
