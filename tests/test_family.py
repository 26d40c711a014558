"""The x^n - a x^{n-1} - p pipeline: closed forms, certificates, searches."""
from __future__ import annotations

import json
import math
from dataclasses import replace
from datetime import datetime
from fractions import Fraction

import pytest
import sympy

from conftest import (
    contradict_parity,
    flip_dedekind,
    miscount_census,
    negate_closed_disc,
    poly,
    shift_lambda,
    swap_squarefree_verdict,
)
import perronpoly
from perronpoly import __version__, family, monogenicity, search
from perronpoly.classification import classify, classify_irreducible
from perronpoly.errors import InvalidInputError, NonConvergenceError, OracleViolationError
from perronpoly.family import (
    FamilyParams,
    descartes_profile,
    family_monogenic,
    member_monogenicity,
    strictly_perron_certificate,
)
from perronpoly.intarith import (
    TRIAL_BOUND,
    Factorization,
    factorize,
    finish_factorization,
    is_prime,
    primes_below,
    trial_divide,
)
from perronpoly.irreducibility import factor_oracle, irreducibility_witness, is_irreducible
from perronpoly.matrices import char_poly, companion_matrix, dominant_eigenvalue
from perronpoly.monogenicity import (
    DIVIDES,
    NOT_DIVIDES,
    LocalIndexVerdict,
    MonogenicityReport,
    monogenic,
)
from perronpoly.polynomial import IntPoly, discriminant, poly_gcd, sturm_count
from perronpoly.roots import escalate, try_modulus_tags, try_real_census
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
        assert FamilyParams(2, 1, 3).poly == poly(-3, -1, 1)
        assert FamilyParams(4, 3, 5).poly == poly(-5, 0, 0, -3, 1)
        assert FamilyParams(4, 3, 5).poly.to_text() == "-5,0,0,-3,1"

    def test_g_value(self):
        assert FamilyParams(2, 1, 3).g == 13
        assert FamilyParams(3, 1, 2).g == 58
        assert FamilyParams(4, 3, 5).g == 3467

    def test_discriminant_closed(self):
        assert FamilyParams(2, 1, 3).disc == 13
        assert FamilyParams(3, 1, 2).disc == -116
        assert FamilyParams(4, 3, 5).disc == -86675

    def test_closed_matches_resultant_grid(self):
        for n in range(2, 7):
            for a in range(1, 5):
                for p in primes_below(30):
                    point = FamilyParams(n, a, p)
                    assert point.disc == discriminant(point.poly)

    def test_irreducibility_dichotomy(self):
        # Reducible exactly at even n with p = a + 1.
        assert not FamilyParams(2, 1, 2).irreducible
        assert not FamilyParams(4, 1, 2).irreducible
        assert not FamilyParams(6, 2, 3).irreducible
        assert FamilyParams(3, 1, 2).irreducible  # odd n, p = a + 1
        assert FamilyParams(2, 1, 3).irreducible
        for n in range(2, 6):
            for a in range(1, 5):
                for p in primes_below(20):
                    point = FamilyParams(n, a, p)
                    assert point.irreducible == is_irreducible(point.poly)

    def test_companion_shape(self):
        f = FamilyParams(4, 3, 5).poly
        m = companion_matrix(f)
        assert char_poly(m) == f
        assert m[0][-1] == 5 and m[-1][-1] == 3


class TestFamilyMonogenic:
    def test_verdicts(self):
        assert family_monogenic(FamilyParams(2, 1, 3)) == "Monogenic"
        # G(31) = 125 = 5^3 for n = 2, a = 1.
        assert family_monogenic(FamilyParams(2, 1, 31)) == "NotMonogenic(5)"

    def test_requires_coprime(self):
        with pytest.raises(InvalidInputError):
            family_monogenic(FamilyParams(4, 2, 5))

    def test_requires_irreducible(self):
        with pytest.raises(InvalidInputError):
            family_monogenic(FamilyParams(2, 1, 2))

    @pytest.mark.parametrize("p", [3, 31])
    def test_negative_budget_rejected(self, p):
        with pytest.raises(InvalidInputError, match="budget"):
            family_monogenic(FamilyParams(2, 1, p), budget=-1)

    # G's cofactor at these points has its smaller prime at 37 to 44 bits;
    # ECM finds it. sympy's factorint is the referee.
    @pytest.mark.parametrize("point", [(24, 1, 41), (24, 1, 79), (24, 1, 109), (32, 1, 5)])
    def test_ecm_certifies_a_frontier_point(self, point):
        g = FamilyParams(*point).g
        expected = sympy.factorint(g)
        assert max(expected.values()) == 1
        fact = factorize(g)
        assert fact.complete and dict(fact.factors) == expected
        cert = strictly_perron_certificate(*point)
        assert cert.g_status == "Squarefree"
        assert cert.monogenic_verdict == "Monogenic"

    def test_unknown_at_budget_zero(self):
        # G(5) = 1448697805736569529237 for (14, 3): no prime up to the trial
        # bound divides it, so at budget 0, which runs no ECM curve, it stays
        # unknown.
        assert family_monogenic(FamilyParams(14, 3, 5), budget=0) == (
            "Unknown(G squarefree status unknown, cofactor 1448697805736569529237)"
        )

    def test_unknown_below_the_cube_of_the_trial_bound(self):
        # G(7) = 22477181694277 for (11, 2) has no prime factor up to the
        # trial bound and is below TRIAL_BOUND**3, so it has at most two prime
        # factors; it is squarefree, but at budget 0 nothing has shown it, and
        # the certificate at the same budget prints Unknown too.
        point = FamilyParams(11, 2, 7)
        assert point.g == 22477181694277 < TRIAL_BOUND**3
        assert family_monogenic(point, budget=0) == (
            "Unknown(G squarefree status unknown, cofactor 22477181694277)"
        )
        assert strictly_perron_certificate(11, 2, 7, budget=0).g_status == "Unknown(22477181694277)"
        assert family_monogenic(point) == "Monogenic"

    @pytest.mark.parametrize("budget", [0, 10**6])
    def test_agrees_with_the_certificate_at_every_budget(self, budget):
        # One factorization of G feeds both, so the squarefree verdict and the
        # certificate's G_status agree point by point, Unknowns included.
        for n in range(2, 13):
            for a in range(1, 5):
                if math.gcd(a, n) != 1:
                    continue
                for p in primes_below(60):
                    point = FamilyParams(n, a, p)
                    if not point.irreducible:
                        continue
                    verdict = family_monogenic(point, budget)
                    g_status = strictly_perron_certificate(n, a, p, budget).g_status
                    expected = (
                        verdict.replace("NotMonogenic", "NotSquarefree")
                        .replace("Monogenic", "Squarefree")
                        .replace("G squarefree status unknown, cofactor ", "")
                    )
                    assert g_status == expected, (n, a, p, verdict, g_status)

    def test_agrees_with_local_tests_everywhere(self):
        # The squarefree-G criterion and the local index tests are fully
        # independent routes; their verdicts (witness prime included) must
        # coincide on the whole coprime grid.
        for n in range(2, 6):
            for a in range(1, 5):
                if math.gcd(a, n) != 1:
                    continue
                for p in primes_below(60):
                    point = FamilyParams(n, a, p)
                    if not point.irreducible:
                        continue
                    assert family_monogenic(point) == monogenic(point.poly).verdict, (n, a, p)


# n 2..12 x a 1..3 x p <= 29, the reducible members left out.
SMALL_MEMBERS = [
    point
    for point in (
        FamilyParams(n, a, p) for n in range(2, 13) for a in (1, 2, 3) for p in primes_below(30)
    )
    if point.irreducible
]


def _point_id(point: FamilyParams) -> str:
    return f"{point.n}-{point.a}-{point.p}"


class TestMemberMonogenicity:
    @pytest.mark.parametrize(
        "point", SMALL_MEMBERS + [FamilyParams(8, 1, 2305843009213693967)], ids=_point_id
    )
    def test_verdict_is_the_certificates(self, point):
        # One pipeline: the report for a member is the certificate's own
        # local-test step, so its verdict is the certificate's monogenic
        # field, at large p too.
        certificate = strictly_perron_certificate(point.n, point.a, point.p)
        assert member_monogenicity(point).verdict == certificate.monogenic_verdict

    @pytest.mark.parametrize("point", SMALL_MEMBERS, ids=_point_id)
    def test_report_matches_monogenic(self, point):
        # Below the trial bound, factoring G and multiplying p^(n-2) back in
        # gives the factorization of |disc| that monogenic finds on its own.
        assert member_monogenicity(point).to_json_dict() == monogenic(point.poly).to_json_dict()

    def test_factors_g_once_and_never_the_discriminant(self, monkeypatch):
        point = FamilyParams(8, 1, 2305843009213693967)
        trials = _count_calls(monkeypatch, trial_divide)
        finishes = _count_calls(monkeypatch, finish_factorization)
        factorizations = _count_calls(monkeypatch, factorize)
        discriminants = _count_calls(monkeypatch, discriminant)
        member_monogenicity(point)
        assert trials == [(point.g,)]
        assert len(finishes) == 1
        assert factorizations == [] and discriminants == []


class TestDescartes:
    def test_parity_profiles(self):
        assert descartes_profile(FamilyParams(2, 1, 3)) == (1, 1)
        assert descartes_profile(FamilyParams(4, 3, 5)) == (1, 1)
        assert descartes_profile(FamilyParams(3, 1, 2)) == (1, 0)
        assert descartes_profile(FamilyParams(5, 2, 7)) == (1, 0)

    def test_census_off_by_one_trips(self, monkeypatch):
        # The census is checked against Descartes' rule where the classifier
        # makes it: one extra negative root trips at a family point, at a
        # cubic with three real roots outside the family, and in verify.
        miscount_census(monkeypatch)
        with pytest.raises(OracleViolationError, match="disagrees with the Descartes counts"):
            strictly_perron_certificate(4, 3, 5)
        with pytest.raises(OracleViolationError, match="disagrees with the Descartes counts"):
            classify(poly(1, -3, 0, 1))  # x^3 - 3x + 1
        failures = run_verify(2, 1, 4).failures  # (2, 1, 2) is reducible
        assert len(failures) == 1
        assert failures[0].startswith("(n=2, a=1, p=3): pipeline check tripped: real-root census")

    def test_parity_off_trips(self, monkeypatch):
        # Exact Descartes counts that contradict the sign analysis of the
        # coefficients (one positive and one negative root at even n) trip
        # the certificate's own parity check.
        contradict_parity(monkeypatch)
        with pytest.raises(OracleViolationError, match="real-root parity"):
            strictly_perron_certificate(4, 3, 5)


class TestCertificate:
    def test_strictly_perron_monogenic(self):
        cert = strictly_perron_certificate(4, 3, 5)
        assert cert.params.irreducible
        assert cert.params.g == 3467
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

    # At (24, 1, 5) ECM must split G's cofactor (at budget 0 G_status reads
    # Unknown(28530190479293004031507945039)); (2, 1, 31) is settled by trial
    # division, so no curve runs; (2, 1, 2) is reducible.
    @pytest.mark.parametrize("point", [(24, 1, 5), (2, 1, 31), (2, 1, 2)])
    def test_negative_budget_rejected(self, point):
        with pytest.raises(InvalidInputError, match="budget"):
            strictly_perron_certificate(*point, budget=-1)

    def test_ecm_decides_what_rho_left_unknown(self):
        # Unknown before the package had ECM: G's cofactor
        # 75502169955780014256901309 = 37649793551 * 2005380716191859, which
        # ECM splits on its fifth curve.
        cert = strictly_perron_certificate(24, 1, 3)
        assert cert.params.g == 4022087798550700285381599451441895
        assert sympy.factorint(cert.params.g) == {
            5: 1, 7: 1, 19: 1, 80107: 1, 37649793551: 1, 2005380716191859: 1,
        }
        assert cert.g_status == "Squarefree"
        assert cert.monogenic_verdict == "Monogenic"
        assert cert.conclusion == "monogenic strictly-Perron"

    def test_unknown_at_budget_zero(self):
        # At budget 0 G(5) for (14, 3) stays unfactored, so neither
        # monogenicity route can decide; the root class still can.
        cert = strictly_perron_certificate(14, 3, 5, budget=0)
        assert cert.g_status == "Unknown(1448697805736569529237)"
        assert cert.monogenic_verdict.startswith("Unknown(")
        assert cert.conclusion == "strictly-Perron, monogenicity unknown"

    def test_reducible_member(self):
        cert = strictly_perron_certificate(2, 1, 2)
        assert not cert.params.irreducible
        assert cert.monogenicity is None
        assert cert.monogenic_verdict == "NotApplicable(reducible)"
        assert cert.conclusion == "reducible"
        assert cert.classification.headline == "NotIrreducible"

    def test_eigenvalue_matches_dominant_root(self):
        cert = strictly_perron_certificate(5, 2, 11)
        lam = Fraction(cert.classification.dominant)
        eps = Fraction(1, 10**12) * lam
        assert cert.params.poly(lam - eps) < 0 < cert.params.poly(lam + eps)
        eigen = dominant_eigenvalue(companion_matrix(cert.params.poly))
        assert eigen == pytest.approx(float(lam), abs=1e-8)

    def test_shifted_root_trips_the_bracket(self, monkeypatch):
        # A root 1e-9 away (relatively) from the true one lies outside the
        # 1e-12 bracket, so the sign-change check must refuse it.
        shift_lambda(monkeypatch)
        with pytest.raises(OracleViolationError, match="not bracketed"):
            strictly_perron_certificate(5, 2, 11)

    def test_near_tie_lambda_keeps_its_rounding(self):
        # lambda = 5.00016636124964070184999..., 5e-23 below the point where
        # its 20th digit would round up: the printed digits need a disk far
        # narrower than double precision gives.
        d = strictly_perron_certificate(8, 5, 13).to_json_dict()
        assert d["lambda"] == "5.0001663612496407018"

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

    def test_fault_injection_trips_oracle(self, monkeypatch):
        negate_closed_disc(monkeypatch)
        with pytest.raises(OracleViolationError, match="discriminant mismatch") as caught:
            strictly_perron_certificate(4, 3, 5)
        # The message names f by its --coeffs text, which reads back as f.
        text = "-5,0,0,-3,1"
        assert f"mismatch for {text}:" in str(caught.value)
        assert IntPoly.from_text(text) == FamilyParams(4, 3, 5).poly

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
    def test_p_equals_a_plus_one_at_high_degree(
        self, point, irreducible, headline, conclusion
    ):
        # The certificate reads irreducibility off the dichotomy, not the
        # factor oracle, at every degree.
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
        # every square prime, and the factoring step is never asked to find
        # p inside p^6 * G.
        p = 2**61 + 1
        while not is_prime(p):
            p += 2
        cert = strictly_perron_certificate(8, 1, p)
        assert cert.monogenic_verdict == "Monogenic"
        assert cert.conclusion == "monogenic strictly-Perron"

    def test_square_of_the_largest_table_prime(self):
        # G = 13 * 43 * 999983^2, and 999983 is the last prime of the trial
        # table, in its short final block: missing it would leave 999983^2 as
        # a cofactor below TRIAL_BOUND^2, taken for a prime.
        d = strictly_perron_certificate(3, 1, 20702999783761).to_json_dict()
        assert d["G_status"] == "NotSquarefree(999983)"
        assert d["monogenic"] == "NotMonogenic(999983)"


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
    # The point is validated once: one primality test, of p. G is
    # trial-divided once, which factors it completely at all three points,
    # so it is never finished; nothing else (p, the discriminant) is
    # factored. The local tests run at most once, and the polynomial's text
    # is built only by to_json_dict, once. The roots of an irreducible
    # member are certified in one attempt: one escalation, one real-axis
    # census, one unit-circle tagging, and no squarefree gcd (disc != 0
    # already proves f squarefree). A reducible member solves nothing.
    assert family.trial_divide is trial_divide
    assert family.finish_factorization is finish_factorization
    assert family.discriminant_resultant is discriminant
    expected = FamilyParams(*point)
    primality = _count_family_primality(monkeypatch)
    trials = _count_calls(monkeypatch, trial_divide)
    finishes = _count_calls(monkeypatch, finish_factorization)
    factorizations = _count_calls(monkeypatch, factorize)
    discriminants = _count_calls(monkeypatch, discriminant)
    witnesses = _count_calls(monkeypatch, irreducibility_witness)
    oracles = _count_calls(monkeypatch, factor_oracle)
    companions = _count_calls(monkeypatch, companion_matrix)
    eigenvalues = _count_calls(monkeypatch, dominant_eigenvalue)
    sturm_chains = _count_calls(monkeypatch, sturm_count)
    gcds = _count_calls(monkeypatch, poly_gcd)
    escalations = _count_calls(monkeypatch, escalate)
    censuses = _count_calls(monkeypatch, try_real_census)
    taggings = _count_calls(monkeypatch, try_modulus_tags)
    local_tests = _count_calls(monkeypatch, family._local_tests)
    texts, to_text = [], IntPoly.to_text
    monkeypatch.setattr(IntPoly, "to_text", lambda f: texts.append(f) or to_text(f))
    cert = strictly_perron_certificate(*point)
    assert texts == []
    cert.to_json_dict()
    assert texts == [expected.poly]
    assert primality == [(point[2],)]
    assert trials == [(expected.g,)]
    assert finishes == []
    assert len(local_tests) <= 1
    assert factorizations == []
    assert discriminants == [(expected.poly,)]
    assert witnesses == [] and oracles == []
    assert companions == [] and eigenvalues == []
    assert sturm_chains == []
    assert gcds == []
    attempts = 1 if expected.irreducible else 0
    assert len(escalations) == len(censuses) == len(taggings) == attempts


def _count_family_primality(monkeypatch) -> list:
    """Spy on the is_prime binding FamilyParams validates p with (not the
    one the local tests check their own primes with); returns the call log."""
    assert family.is_prime is is_prime
    calls = []

    def counted(q):
        calls.append((q,))
        return is_prime(q)

    monkeypatch.setattr(family, "is_prime", counted)
    return calls


def test_verify_validates_each_point_once(monkeypatch):
    # run_verify(2, 1, 4) covers the reducible (2, 1, 2) and the irreducible
    # (2, 1, 3); its dichotomy check reads the certificate's point.
    primality = _count_family_primality(monkeypatch)
    report = run_verify(2, 1, 4)
    assert report.passed and report.points == 2
    assert primality == [(2,), (3,)]


class TestStopRule:
    """The certificate finishes G's factorization only when trial division
    leaves a reported verdict open. The expected verdicts are those of the
    full factorization (the certificates before the rule existed)."""

    @pytest.fixture
    def finishes(self, monkeypatch):
        calls = []

        def spy(partial, budget):
            calls.append(partial)
            return finish_factorization(partial, budget)

        monkeypatch.setattr(family, "finish_factorization", spy)
        return calls

    @pytest.mark.parametrize(
        "point, g_status, monogenic_verdict, conclusion",
        [
            # Trial division shows 2^2 | G, so G's cofactor is never split.
            ((24, 2, 7), "NotSquarefree(2)", "NotMonogenic(2)", "strictly-Perron, NOT monogenic"),
            ((24, 2, 3), "NotSquarefree(2)", "NotApplicable(reducible)", "reducible"),
            ((16, 1, 17), "NotSquarefree(7)", "NotMonogenic(7)", "strictly-Perron, NOT monogenic"),
        ],
    )
    def test_skipped_when_trial_division_settles(
        self, finishes, point, g_status, monogenic_verdict, conclusion
    ):
        d = strictly_perron_certificate(*point).to_json_dict()
        assert (d["G_status"], d["monogenic"], d["conclusion"]) == (
            g_status, monogenic_verdict, conclusion,
        )
        assert finishes == []

    def test_runs_when_the_monogenic_verdict_stays_open(self, finishes):
        # G is NotSquarefree(2), but 2 does not divide the index (a = 2 and
        # n = 16 are not coprime): Monogenic needs every square prime, and
        # trial division leaves G's cofactor unsplit.
        cert = strictly_perron_certificate(16, 2, 37)
        d = cert.to_json_dict()
        assert (d["G_status"], d["monogenic"], d["conclusion"]) == (
            "NotSquarefree(2)", "Monogenic", "monogenic strictly-Perron",
        )
        assert len(finishes) == 1
        assert cert.monogenic_verdict == monogenic(cert.params.poly).verdict

    def test_partial_report_covers_trial_primes_and_p(self):
        report = strictly_perron_certificate(24, 2, 7).monogenicity
        assert not report.disc_factorization.complete
        assert [v.q for v in report.locals] == [2, 7]
        assert report.locals[0].result == DIVIDES

    def test_rule_needs_a_failing_prime_within_the_trial_bound(self):
        # In the family p never divides the index (f = x^(n-1)*(x - a) mod p
        # and p^2 does not divide f(0), so Dedekind's test at p passes), and
        # every other prime above TRIAL_BOUND sits in the unsplit cofactor:
        # a report failing at such a prime is built by hand.
        big, other = 1000003, 1000033
        assert is_prime(big) and is_prime(other) and min(big, other) > TRIAL_BOUND
        settled = family._settled_by_trial_division
        g_fact = Factorization(((2, 2),), big * other)  # NotSquarefree(2)

        def report(*verdicts):
            return MonogenicityReport(poly(-2, 0, 1), 0, Factorization((), 1), verdicts, "")

        passes = LocalIndexVerdict(2, NOT_DIVIDES, "(iii)")
        beyond = report(passes, LocalIndexVerdict(big, DIVIDES, "(i)"))
        within = report(LocalIndexVerdict(2, DIVIDES, "(iii)"))
        assert not settled(g_fact, beyond)
        assert not settled(g_fact, report(passes))
        assert settled(g_fact, within)
        assert settled(g_fact, None)  # reducible: no monogenicity verdict to settle
        assert not settled(Factorization(((2, 1),), big * other), within)  # squarefree so far
        assert not settled(Factorization((), big * big), None)  # Unknown
        # A complete factorization leaves nothing to finish, with or without
        # a failing prime, and for a reducible member too.
        for complete in (Factorization(((2, 2),), 1), Factorization(((2, 1), (big, 1)), 1)):
            for r in (beyond, report(passes), within, None):
                assert settled(complete, r)

    def test_each_local_test_runs_once(self, finishes, monkeypatch):
        # Trial division leaves the verdict open at (16, 2, 37), ECM then
        # splits G's cofactor; the primes trial division already tested keep
        # their verdicts instead of being tested again.
        tested = []
        local_verdict = monogenicity._local_verdict

        def spy(poly, params, q):
            tested.append(q)
            return local_verdict(poly, params, q)

        monkeypatch.setattr(monogenicity, "_local_verdict", spy)
        cert = strictly_perron_certificate(16, 2, 37)
        assert len(finishes) == 1 and cert.monogenicity.disc_factorization.complete
        assert sorted(tested) == sorted(set(tested)) == [v.q for v in cert.monogenicity.locals]
        assert cert.monogenic_verdict == monogenic(cert.params.poly).verdict

    @pytest.mark.parametrize("point, finished", [((16, 1, 17), 0), ((11, 2, 7), 1)])
    def test_mono_route_fault_trips_on_both_paths(self, finishes, monkeypatch, point, finished):
        # (16, 1, 17) settles after trial division; (11, 2, 7) is finished,
        # since trial division leaves G's cofactor 22477181694277 unsplit.
        swap_squarefree_verdict(monkeypatch)
        with pytest.raises(OracleViolationError, match="monogenicity routes disagree"):
            strictly_perron_certificate(*point)
        assert len(finishes) == finished


class TestSearch:
    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SearchSpec((), (1,), 50)
        with pytest.raises(InvalidInputError):
            SearchSpec((2,), (1,), 1)
        with pytest.raises(InvalidInputError):
            SearchSpec((1,), (1,), 50)
        with pytest.raises(InvalidInputError):
            SearchSpec((2,), (1,), 50, budget=-1)
        assert SearchSpec((2,), (1,), 50, budget=0).budget == 0
        with pytest.raises(InvalidInputError, match="p_min <= p_max"):
            SearchSpec((2,), (1,), 50, p_min=51)

    def test_p_min_starts_the_window(self):
        # Within each pair the primes run from p_min to p_max, both inclusive;
        # the certificates are those of the full sweep.
        window = SearchSpec((2, 3), (1,), 13, p_min=7)
        assert list(window.points()) == [(n, 1, p) for n in (2, 3) for p in (7, 11, 13)]
        full = [c.to_json_dict() for c in run_search(SearchSpec((2, 3), (1,), 13))]
        assert [c.to_json_dict() for c in run_search(window)] == [r for r in full if r["p"] >= 7]
        assert list(SearchSpec((2,), (1,), 13, p_min=13).points()) == [(2, 1, 13)]

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

    def test_verify_checks_dichotomy_against_oracle(self, monkeypatch):
        # A dichotomy that calls every member irreducible must trip at the
        # reducible points (even n, p = a + 1).
        class AllIrreducible(FamilyParams):
            irreducible = True

        def misjudged(n, a, p, **kwargs):
            cert = strictly_perron_certificate(n, a, p, **kwargs)
            return replace(cert, params=AllIrreducible(n, a, p))

        monkeypatch.setattr(search, "strictly_perron_certificate", misjudged)
        report = run_verify(4, 1, 3)
        assert [f.split(":")[0] for f in report.failures] == ["(n=2, a=1, p=2)", "(n=4, a=1, p=2)"]

    def test_verify_checks_the_dichotomy_at_every_degree(self, monkeypatch):
        # is_irreducible runs on every grid point, degrees above 14 included.
        real, degrees = search.is_irreducible, []
        monkeypatch.setattr(search, "is_irreducible", lambda f: degrees.append(f.degree) or real(f))
        assert run_verify(16, 1, 3).passed
        assert degrees == list(range(2, 17))

    def test_verify_checks_profile_outside_unit_circle(self, monkeypatch):
        # A profile with a root inside the unit circle must trip at even n
        # with p > a + 1: there the negative root has to lie outside.
        def misplaced(f):
            cls = classify_irreducible(f)
            return replace(cls, profile=(1, 0, f.degree - 1))

        monkeypatch.setattr(family, "classify_irreducible", misplaced)
        report = run_verify(2, 1, 6)
        assert [f.split(":")[0] for f in report.failures] == ["(n=2, a=1, p=3)", "(n=2, a=1, p=5)"]

    def test_verify_isolates_a_failing_point(self, monkeypatch):
        # Any package error at one point becomes that point's failure; the
        # grid still runs to the end.
        def flaky(n, a, p, **kwargs):
            if (n, a, p) == (3, 1, 5):
                raise NonConvergenceError("injected")
            return strictly_perron_certificate(n, a, p, **kwargs)

        monkeypatch.setattr(search, "strictly_perron_certificate", flaky)
        report = run_verify(4, 2, 12)
        assert report.points == 3 * 2 * 5
        assert report.failures == ["(n=3, a=1, p=5): NonConvergenceError: injected"]
        assert not report.passed

    @pytest.mark.parametrize(
        "corrupt, message, runs_at",
        [
            pytest.param(negate_closed_disc, "discriminant mismatch", lambda cert: True, id="disc"),
            pytest.param(
                swap_squarefree_verdict,
                "monogenicity routes disagree",
                lambda cert: cert.params.irreducible and cert.params.coprime,
                id="monogenicity",
            ),
            pytest.param(
                shift_lambda,
                "not bracketed",
                lambda cert: cert.classification.dominant is not None,
                id="bracket",
            ),
            pytest.param(
                contradict_parity,
                "real-root parity",
                lambda cert: cert.params.irreducible and cert.params.n % 2 == 0,
                id="parity",
            ),
            pytest.param(
                miscount_census,
                "disagrees with the Descartes counts",
                lambda cert: cert.params.irreducible,
                id="census",
            ),
            pytest.param(
                flip_dedekind,
                "local tests disagree",
                lambda cert: cert.monogenicity is not None and cert.monogenicity.locals,
                id="local-tests",
            ),
        ],
    )
    def test_verify_names_every_tripped_check(self, monkeypatch, corrupt, message, runs_at):
        # One corrupted value trips its cross-check at every grid point where
        # the check runs (runs_at, read off the uncorrupted certificate), and
        # verify names the check there and visits the whole grid. The
        # 24-point grid stays under the 25-line failure list.
        points = list(SearchSpec((2, 3, 4), (1, 2), 7).points())
        expected = [
            f"(n={n}, a={a}, p={p})"
            for n, a, p in points
            if runs_at(strictly_perron_certificate(n, a, p))
        ]
        corrupt(monkeypatch)
        report = run_verify(4, 2, 8)
        assert report.points == report.grid == len(points)
        assert expected and not report.truncated
        tripped = [f.partition(": pipeline check tripped: ") for f in report.failures]
        assert [point for point, _, _ in tripped] == expected
        assert all(sep and message in problem for _, sep, problem in tripped)

    def test_verify_checks_the_theorem_conclusion(self, monkeypatch):
        # A conclusion that misreads the checked verdicts trips the theorem
        # check at exactly the points where the hypotheses hold and G is
        # squarefree; elsewhere the theorem promises nothing.
        points = list(SearchSpec((2, 3, 4), (1, 2), 7).points())
        expected = [
            f"(n={n}, a={a}, p={p}): hypotheses hold and G is squarefree"
            " but conclusion is 'no Perron root'"
            for n, a, p in points
            if (cert := strictly_perron_certificate(n, a, p)).params.theorem_applicable
            and cert.g_status == "Squarefree"
        ]
        monkeypatch.setattr(family, "_conclusion", lambda cls, verdict: "no Perron root")
        report = run_verify(4, 2, 8)
        assert report.points == report.grid == len(points)
        assert expected and report.failures == expected
