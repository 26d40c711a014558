"""Index-divisibility local tests and the monogenicity aggregate.

Two independent in-package routes (the trinomial local-index criterion and
the Dedekind factorization criterion) are compared on everything they can
both see, and both are refereed against sympy's maximal-order computation
on a curated sample.
"""
from __future__ import annotations

import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.exceptions import ClosureFailure

from conftest import X, flip_dedekind, poly, to_sympy
from perronpoly import monogenicity
from perronpoly.errors import InvalidInputError, OracleViolationError
from perronpoly.intarith import factorize
from perronpoly.irreducibility import is_irreducible
from perronpoly.monogenicity import (
    DIVIDES,
    NOT_DIVIDES,
    TrinomialParams,
    dedekind_local_test,
    jks_condition_v_quantity,
    jks_local_test,
    monogenic,
)
from perronpoly.polynomial import IntPoly, discriminant


def square_primes_of(n: int):
    return factorize(abs(n)).square_primes()


class TestTrinomialParams:
    def test_roundtrip(self):
        t = TrinomialParams(5, 2, -3, 7)
        assert t.polynomial() == poly(7, 0, -3, 0, 0, 1)
        assert TrinomialParams.from_polynomial(t.polynomial()) == t

    def test_gcd_split(self):
        t = TrinomialParams(6, 4, 5, 11)
        assert (t.d0, t.n1, t.m1) == (2, 3, 2)

    def test_family_shape(self):
        t = TrinomialParams.from_polynomial(poly(-5, 0, 0, -3, 1))
        assert t == TrinomialParams(4, 3, -3, -5)

    def test_rejects_non_trinomials(self):
        assert TrinomialParams.from_polynomial(poly(-2, 0, 1)) is None  # binomial
        assert TrinomialParams.from_polynomial(poly(1, 1, 1, 1)) is None  # four terms
        assert TrinomialParams.from_polynomial(poly(0, -1, 1)) is None  # zero constant
        assert TrinomialParams.from_polynomial(IntPoly((1, 1, 2))) is None  # not monic

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrinomialParams(2, 2, 1, 1)  # m = n
        with pytest.raises(InvalidInputError):
            TrinomialParams(3, 1, 0, 1)  # A = 0


class TestJksLocalTest:
    def test_worked_witness(self):
        # x^2 - x - 11: disc 45 = 3^2 * 5; the index at 3 is sensed by the
        # generic-prime condition.
        t = TrinomialParams(2, 1, -1, -11)
        v = jks_local_test(t, 3)
        assert v.result == DIVIDES
        assert v.condition == "(v)"

    def test_monogenic_witness(self):
        # x^2 - x - 3: disc 13; 13 | disc but 13^2 does not — still a legal
        # local question, and the answer is NotDivides.
        t = TrinomialParams(2, 1, -1, -3)
        assert jks_local_test(t, 13).result == NOT_DIVIDES

    def test_condition_two_sign_regression(self):
        # x^3 - 3x - 5 at q = 3: disc = -567 = -(3^4 * 7), and the maximal
        # order equals Z[x]/(f) (index 1), so the verdict must be NotDivides.
        # A sign slip in the second branch of condition (ii) flips this case.
        t = TrinomialParams(3, 1, -3, -5)
        v = jks_local_test(t, 3)
        assert v.condition == "(ii)"
        assert v.result == NOT_DIVIDES

    def test_condition_one(self):
        # x^2 + 3x + 3 (Eisenstein at 3): q | A, q | B, q^2 does not divide B.
        assert jks_local_test(TrinomialParams(2, 1, 3, 3), 3).result == NOT_DIVIDES
        # x^2 + 3x + 9: q^2 | B now, so 3 divides the index.
        v = jks_local_test(TrinomialParams(2, 1, 3, 9), 3)
        assert v.condition == "(i)" and v.result == DIVIDES

    def test_condition_three(self):
        # x^2 + x + 3 has disc -11... pick one with q | B, q not | A and
        # q^2 | disc: x^3 + x + 10, disc = -2704 = -(2^4 * 169): q = 2
        # divides B = 10 but not A = 1.
        t = TrinomialParams(3, 1, 1, 10)
        v = jks_local_test(t, 2)
        assert v.condition == "(iii)"
        assert v.result == dedekind_local_test(t.polynomial(), 2).result

    def test_condition_four(self):
        # q | m, q not dividing A*B: x^4 + 3x^2 + 1 at q = 2 (if 4 | disc).
        t = TrinomialParams(4, 2, 3, 1)
        d = discriminant(t.polynomial())
        assert d % 4 == 0
        v = jks_local_test(t, 2)
        assert v.condition == "(iv)"
        assert v.result == dedekind_local_test(t.polynomial(), 2).result

    def test_condition_five_quantity_matches_family(self):
        # For x^n - a x^{n-1} - p the generic-prime quantity is exactly
        # -(n^n p + a^n (n-1)^(n-1)).
        from perronpoly.family import FamilyParams

        for n, a, p in [(2, 1, 3), (3, 1, 2), (3, 2, 5), (5, 4, 7), (7, 6, 13)]:
            t = TrinomialParams(n, n - 1, -a, -p)
            assert jks_condition_v_quantity(t) == -FamilyParams(n, a, p).g

    def test_rejects_bad_q(self):
        t = TrinomialParams(2, 1, -1, -11)
        with pytest.raises(InvalidInputError):
            jks_local_test(t, 4)  # not prime
        with pytest.raises(InvalidInputError):
            jks_local_test(t, 7)  # does not divide disc 45


class TestDedekindLocalTest:
    def test_worked_witness(self):
        assert dedekind_local_test(poly(-11, -1, 1), 3).result == DIVIDES

    def test_index_free_case(self):
        assert dedekind_local_test(poly(-3, -1, 1), 13).result == NOT_DIVIDES

    def test_frobenius_branch(self):
        # f mod 2 = x^4 + x^2 + 1 has zero derivative; the radical needs the
        # q-th-root route. f = x^4 + x^2 + 5: disc = 2^4 * 1616... check q=2.
        f = poly(5, 0, 1, 0, 1)
        d = discriminant(f)
        assert d % 4 == 0
        v = dedekind_local_test(f, 2)
        assert v.result in (DIVIDES, NOT_DIVIDES)

    def test_requires_monic(self):
        with pytest.raises(InvalidInputError):
            dedekind_local_test(IntPoly((1, 1, 2)), 2)

    # Two tripwires no valid input reaches, fired at their seams: a quotient
    # by q of a coefficient q does not divide, and a q-th root of a
    # polynomial with a term at an exponent q does not divide.
    def test_over_q_trips_on_a_coefficient_q_does_not_divide(self):
        with pytest.raises(OracleViolationError, match="^not divisible$"):
            monogenicity._over_q([1, 3], 3, "not divisible")

    def test_qth_root_trips_on_a_non_q_power(self):
        with pytest.raises(OracleViolationError, match="non-q-power polynomial"):
            monogenicity._qth_root_mod([1, 1], 3)

    def test_against_sympy_round_two(self):
        # Maximal-order referee: q divides the index of Z[x]/(f) exactly when
        # v_q(disc f) > v_q(field discriminant).
        cases = [
            poly(-11, -1, 1),
            poly(-3, -1, 1),
            poly(-5, -3, 0, 1),
            poly(5, 0, 1, 0, 1),
            poly(9, 3, 0, 1),
            poly(-4, 0, 0, -3, 1),
            poly(49, 7, 1),
            poly(-8, 0, -2, 1),
            poly(175, 5, 0, 1),
        ]
        for f in cases:
            if not is_irreducible(f):
                continue
            d = discriminant(f)
            _, d_K = round_two(to_sympy(f))
            for q in square_primes_of(d):
                expected = DIVIDES if (d // int(d_K)) % q == 0 else NOT_DIVIDES
                got = dedekind_local_test(f, q).result
                assert got == expected, (f.to_text(), q)


def trinomial_grid(n_max=6, coef_max=6):
    """Deterministic sweep of monic trinomials with |A|, |B| <= coef_max."""
    for n in range(2, n_max + 1):
        for m in range(1, n):
            for A in range(-coef_max, coef_max + 1):
                if A == 0:
                    continue
                for B in range(-coef_max, coef_max + 1):
                    if B == 0:
                        continue
                    yield TrinomialParams(n, m, A, B)


class TestDifferentialSweep:
    def test_jks_agrees_with_dedekind_everywhere(self):
        """Every local verdict must match between the two routes, and all
        five trinomial conditions must actually fire. The trinomial test's
        own check that q divides the discriminant, by Swan's formula, must
        agree with the resultant at every prime below 50."""
        seen = {"(i)": 0, "(ii)": 0, "(iii)": 0, "(iv)": 0, "(v)": 0}
        tested = 0
        for t in trinomial_grid():
            f = t.polynomial()
            d = discriminant(f)
            for q in sympy.primerange(50):
                try:
                    jks_local_test(t, q)
                except InvalidInputError:
                    rejected = True
                else:
                    rejected = False
                assert rejected == (d % q != 0), (t, q, d)
            if d == 0 or not is_irreducible(f):
                continue
            for q in square_primes_of(d):
                jks = jks_local_test(t, q)
                ded = dedekind_local_test(f, q)
                tested += 1
                # Swan's formula puts every prime dividing the discriminant
                # in one of the five conditions; the sweep must confirm it.
                assert jks.condition in seen, (t, q, jks)
                seen[jks.condition] += 1
                assert jks.result == ded.result, (t, q)
        assert tested > 1500
        assert all(count > 0 for count in seen.values()), seen

    @given(
        st.integers(2, 7),
        st.integers(1, 6),
        st.integers(-15, 15).filter(lambda v: v != 0),
        st.integers(-15, 15).filter(lambda v: v != 0),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_trinomials_agree(self, n, m, A, B):
        if m >= n:
            return
        t = TrinomialParams(n, m, A, B)
        f = t.polynomial()
        d = discriminant(f)
        if d == 0 or not is_irreducible(f):
            return
        for q in square_primes_of(d):
            jks = jks_local_test(t, q)
            assert jks.condition in ("(i)", "(ii)", "(iii)", "(iv)", "(v)"), (t, q, jks)
            assert jks.result == dedekind_local_test(f, q).result


class TestMonogenicAggregate:
    def test_monogenic_example(self):
        report = monogenic(poly(-3, -1, 1))
        assert report.verdict == "Monogenic"
        assert report.disc == 13
        assert report.locals == ()  # no square primes to test

    def test_not_monogenic_example(self):
        report = monogenic(poly(-11, -1, 1))
        assert report.verdict == "NotMonogenic(3)"
        assert report.disc == 45
        assert [v.q for v in report.locals] == [3]
        assert report.locals[0].result == DIVIDES

    def test_negative_lead_normalized(self):
        report = monogenic(IntPoly((11, 1, -1)))  # -(x^2 - x - 11)
        assert report.verdict == "NotMonogenic(3)"

    def test_rejects_reducible(self):
        with pytest.raises(InvalidInputError):
            monogenic(poly(-1, 0, 1))

    def test_rejects_non_monic_in_its_own_name(self):
        with pytest.raises(InvalidInputError, match="^monogenic expects a monic polynomial$"):
            monogenic(poly(1, 1, 2))
        with pytest.raises(InvalidInputError, match="^monogenic needs degree >= 1$"):
            monogenic(poly(7))

    def test_non_trinomial_runs_dedekind(self):
        # x^3 - 6x^2 - 6x - 6: Eisenstein at 2, disc -7884 = -(2^2 3^3 73);
        # a four-term input, so the report must carry plain "dedekind" tags.
        f = poly(-6, -6, -6, 1)
        assert is_irreducible(f)
        report = monogenic(f)
        assert [v.q for v in report.locals] == [2, 3]
        for v in report.locals:
            assert v.condition == "dedekind"

    def test_unknown_budget_path(self):
        # Force an undecidable discriminant: 1 + 4c a product of four large
        # primes (all 1 mod 4 so c stays integral), budget zero, so no ECM
        # curve runs.
        primes = []
        candidate = 10**9
        while len(primes) < 4:
            candidate = int(sympy.nextprime(candidate))
            if candidate % 4 == 1:
                primes.append(candidate)
        M = 1
        for q in primes:
            M *= q
        c = (M - 1) // 4
        f = poly(-c, -1, 1)
        report = monogenic(f, budget=0)
        assert report.verdict.startswith("Unknown(")
        assert "cofactor" in report.verdict
        assert not report.disc_factorization.complete

    def test_local_tests_disagreeing_is_a_violation(self, monkeypatch):
        # x^2 - x - 11 at q = 3, where JKS condition (v) applies: a Dedekind
        # verdict flipped there contradicts it, which is a defect. 3 is the
        # only prime whose square divides the discriminant 45.
        flip_dedekind(monkeypatch)
        with pytest.raises(OracleViolationError, match="local tests disagree at q=3"):
            monogenic(poly(-11, -1, 1))

    def test_json_shape(self):
        d = monogenic(poly(-11, -1, 1)).to_json_dict()
        assert set(d) == {"poly", "disc", "disc_factors", "locals", "verdict"}
        assert d["disc_factors"]["complete"] is True
        assert d["locals"] == [{"q": 3, "result": DIVIDES, "condition": "(v)"}]

    def test_both_methods_cross_check_on_sweep(self):
        # monogenic raises OracleViolationError on any disagreement between
        # the two local tests; a clean pass over a mixed corpus is the assertion.
        corpus = [
            poly(-11, -1, 1),
            poly(9, 3, 0, 1),
            poly(5, 0, 1, 0, 1),
            poly(49, 7, 1),
            poly(-8, 0, -2, 1),
            poly(175, 5, 0, 1),
            poly(27, 0, 0, 1),
        ]
        for f in corpus:
            if is_irreducible(f):
                monogenic(f)


class TestAgainstMaximalOrder:
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(-9, 9).filter(lambda v: v != 0),
        st.integers(-9, 9).filter(lambda v: v != 0),
    )
    @settings(max_examples=25, deadline=None)
    def test_verdict_matches_round_two(self, n, m, A, B):
        if m >= n:
            return
        t = TrinomialParams(n, m, A, B)
        f = t.polynomial()
        if discriminant(f) == 0 or not is_irreducible(f):
            return
        report = monogenic(f)
        d = discriminant(f)
        try:
            _, d_K = round_two(to_sympy(f))
        except ClosureFailure:
            # sympy's referee fails on some inputs, x^4 + 4x^2 - 9 among them
            # (pinned below with its own referee); such a draw has no verdict.
            reject()
        truly_monogenic = d == int(d_K)
        assert (report.verdict == "Monogenic") == truly_monogenic

    def test_round_two_failure_pinned_independently(self):
        # round_two raises ClosureFailure on f = x^4 + 4x^2 - 9. With theta a
        # root, (theta^2 + 1)/2 is not in Z[theta] but is integral: it is a
        # root of y^2 + y - 3, since ((x^2 + 1)/2)^2 + (x^2 + 1)/2 - 3 is 0
        # mod f. So 2 divides the index.
        f = poly(-9, 0, 4, 0, 1)
        y = (X**2 + 1) / 2
        assert sympy.rem(sympy.expand(y**2 + y - 3), to_sympy(f).as_expr(), X) == 0
        assert monogenic(f).verdict == "NotMonogenic(2)"
