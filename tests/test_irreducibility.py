"""Irreducibility criteria and the brute-force factor oracle vs sympy."""
from __future__ import annotations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_sympy, poly, to_sympy
from perronpoly import irreducibility, roots
from perronpoly.errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from perronpoly.family import FamilyParams
from perronpoly.irreducibility import (
    ORACLE_MAX_DEGREE,
    eisenstein_prime,
    factor_oracle,
    irreducibility_witness,
    is_irreducible,
    perron_criterion,
    perron_equality_criterion,
    prime_constant_criterion,
)
from perronpoly.polynomial import IntPoly


class TestCriteria:
    def test_eisenstein(self):
        assert eisenstein_prime(poly(-2, 0, 1)) == 2
        assert eisenstein_prime(poly(3, 3, 1)) == 3
        assert eisenstein_prime(poly(-4, 0, 1)) is None  # 2^2 | constant
        assert eisenstein_prime(poly(-1, -1, 1)) is None

    def test_eisenstein_on_family_shape(self):
        # x^n - a x^{n-1} - p is Eisenstein at p exactly when p divides a
        # (the x^{n-1} coefficient must vanish mod p too).
        assert eisenstein_prime(poly(-3, 0, -6, 1)) == 3
        assert eisenstein_prime(poly(-7, 0, 0, -4, 1)) is None

    def test_perron_criterion(self):
        assert perron_criterion(poly(-1, 0, -5, 1))  # 5 > 1 + 1
        assert not perron_criterion(poly(-1, -1, 1))  # 1 > 2 fails

    def test_perron_equality(self):
        # x^3 - 2x^2 - 1: |c_2| = 2 = 1 + |c_0|, f(1) = -2, f(-1) = -4.
        assert perron_equality_criterion(poly(-1, 0, -2, 1)) is True
        # Equality but f(1) = 0: x^3 - 2x^2 + 1.
        assert perron_equality_criterion(poly(1, 0, -2, 1)) is None
        # Not at equality.
        assert perron_equality_criterion(poly(-3, 0, -2, 1)) is None

    def test_prime_constant(self):
        assert prime_constant_criterion(poly(-11, -1, 1))
        assert not prime_constant_criterion(poly(-12, -1, 1))  # 12 not prime
        assert not prime_constant_criterion(poly(-2, -1, 1))  # 2 < 1 + 1 fails

    def test_criteria_require_monic(self):
        with pytest.raises(InvalidInputError):
            perron_criterion(poly(1, 1, 2))


class TestFactorOracle:
    def test_known_split(self):
        f = poly(-1, 1) * poly(2, 1)
        assert factor_oracle(f) == ((poly(-1, 1), 1), (poly(2, 1), 1))

    def test_multiplicities(self):
        f = poly(-1, 1) * poly(-1, 1) * poly(2, 1)
        facs = dict(factor_oracle(f))
        assert facs[poly(-1, 1)] == 2
        assert facs[poly(2, 1)] == 1

    def test_power_of_x(self):
        f = poly(0, 0, -1, 1)  # x^2 (x - 1)
        facs = dict(factor_oracle(f))
        assert facs[poly(0, 1)] == 2
        assert facs[poly(-1, 1)] == 1

    def test_sophie_germain_split(self):
        # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
        facs = factor_oracle(poly(4, 0, 0, 0, 1))
        assert facs == ((poly(2, -2, 1), 1), (poly(2, 2, 1), 1))

    def test_factors_with_constants_above_2_53(self):
        # Each constant term needs more bits than a double holds, so a split
        # read from rounded coefficients would be missed.
        f = poly(324518553658432527419476073801021, 0, -36028797018964290, 0, 1)
        assert factor_oracle(f) == (
            (poly(-18014398509482147, 0, 1), 1),
            (poly(-18014398509482143, 0, 1), 1),
        )
        w = irreducibility_witness(f)
        assert not w.irreducible and w.detail == "deg 2, deg 2"

    def test_irreducible_comes_back_whole(self):
        f = poly(1, 1, 1, 1, 1)
        assert factor_oracle(f) == ((f, 1),)

    # Two degree-7 family members with a root near 1000 each: at 16 bits the
    # rounding bound on their product's subset coefficients is too loose, so
    # an oracle started there must retry.
    WIDE = poly(-1009, 0, 0, 0, 0, 0, -1000, 1) * poly(-1013, 0, 0, 0, 0, 0, -999, 1)

    def test_rounding_retry_at_doubled_precision(self, monkeypatch, start_at_16_bits):
        solve, requested = roots._solve, []

        def spy(coeffs, bits, floats):
            requested.append(bits)
            return solve(coeffs, bits, floats)

        monkeypatch.setattr(roots, "_solve", spy)
        assert factor_oracle(self.WIDE) == (
            (poly(-1013, 0, 0, 0, 0, 0, -999, 1), 1),
            (poly(-1009, 0, 0, 0, 0, 0, -1000, 1), 1),
        )
        assert requested == [16, 32]

    def test_rounding_retry_obeys_the_escalation_cap(self, monkeypatch, start_at_16_bits):
        # The retry is roots.escalate's, so it reads roots.MAX_ESCALATIONS.
        monkeypatch.setattr(roots, "MAX_ESCALATIONS", 0)
        with pytest.raises(
            PrecisionExhaustedError, match="factor oracle could not certify rounding"
        ):
            factor_oracle(self.WIDE)

    def test_exhaustion_names_the_last_precision_tried(self, monkeypatch, start_at_16_bits):
        # With no escalation allowed only 16 bits are tried, so the error
        # must not name the 32 bits that were never solved for.
        monkeypatch.setattr(roots, "MAX_ESCALATIONS", 0)
        with pytest.raises(PrecisionExhaustedError, match="rounding at 16 bits$"):
            factor_oracle(self.WIDE)

    # The oracle checks its own output: a factor that does not divide the
    # input, or factors whose product is not the input, is a defect.
    def test_non_factor_trips(self, monkeypatch):
        monkeypatch.setattr(irreducibility, "_enumerate_factors", lambda *_: [poly(1, 1, 1)])
        with pytest.raises(OracleViolationError, match="non-factor 1,1,1"):
            factor_oracle(poly(-2, 0, 1))

    def test_missing_factor_trips(self, monkeypatch):
        monkeypatch.setattr(irreducibility, "_enumerate_factors", lambda *_: [poly(-2, 0, 1)])
        with pytest.raises(OracleViolationError, match="does not multiply back"):
            factor_oracle(poly(-2, 0, 1) * poly(-3, 0, 1))

    def test_degree_guard(self):
        with pytest.raises(InvalidInputError):
            factor_oracle(poly(-1, 1))
        too_big = IntPoly((1,) + (0,) * ORACLE_MAX_DEGREE + (1,))
        with pytest.raises(InvalidInputError):
            factor_oracle(too_big)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=4),
           st.lists(st.integers(-8, 8), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_products_match_sympy(self, a, b):
        f = IntPoly(tuple(a) + (1,)) * IntPoly(tuple(b) + (1,))
        if f.degree < 2:
            return
        ours = {(g.coeffs, m) for g, m in factor_oracle(f)}
        _, sym_factors = to_sympy(f).factor_list()
        theirs = {(from_sympy(g).coeffs, m) for g, m in sym_factors}
        assert ours == theirs

    @given(st.lists(
        st.tuples(
            st.integers(2**53, 2**62).map(lambda c: (c | 1) * (-1) ** (c % 3)),
            st.lists(st.integers(-10, 10), max_size=2),
        ),
        min_size=2, max_size=3,
    ))
    @settings(max_examples=30, deadline=None)
    def test_products_with_big_constants_match_sympy(self, factors):
        # Odd constant terms above 2^53, which no double holds exactly; the
        # other strategies stay far below.
        f = IntPoly((1,))
        for constant, middle in factors:
            f = f * IntPoly((constant, *middle, 1))
        ours = {(g.coeffs, m) for g, m in factor_oracle(f)}
        _, sym_factors = to_sympy(f).factor_list()
        theirs = {(from_sympy(g).coeffs, m) for g, m in sym_factors}
        assert ours == theirs

    @given(st.lists(st.integers(-10, 10), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_polys_match_sympy(self, body):
        f = IntPoly(tuple(body) + (1,))
        ours = {(g.coeffs, m) for g, m in factor_oracle(f)}
        _, sym_factors = to_sympy(f).factor_list()
        theirs = {(from_sympy(g).coeffs, m) for g, m in sym_factors}
        assert ours == theirs


class TestWitness:
    def test_method_strings(self):
        assert irreducibility_witness(poly(-3, 1)).method == "degree-one"
        assert irreducibility_witness(poly(-2, 0, 1)).method == "eisenstein"
        assert irreducibility_witness(poly(-1, 0, -5, 1)).method == "dominant-coefficient"
        assert irreducibility_witness(poly(-11, -1, 1)).method == "prime-constant"
        assert irreducibility_witness(poly(0, 1, 1)).method == "zero-constant-term"
        w = irreducibility_witness(poly(1, 1, 1, 1, 1))
        assert w.irreducible and w.method == "factor-oracle"

    def test_reducible_detail_shape(self):
        w = irreducibility_witness(poly(4, 0, 0, 0, 1))
        assert not w.irreducible
        assert "deg 2" in w.detail

    def test_large_degree_needs_a_criterion(self):
        # Degree 16 Eisenstein: fine without the oracle.
        f = IntPoly((-2,) + (0,) * 15 + (1,))
        assert is_irreducible(f)
        # Degree 16 with no criterion: honest refusal, not a guess.
        g = IntPoly((-1, -1) + (0,) * 14 + (1,))
        with pytest.raises(InvalidInputError):
            is_irreducible(g)

    def test_root_one_or_minus_one_above_the_ceiling(self):
        # x^32 - 2x^31 - 3 vanishes at -1 and x^16 + x - 2 at 1; a linear
        # factor needs no oracle.
        x16_plus_x_minus_2 = IntPoly((-2, 1) + (0,) * 14 + (1,))
        for f, root in [(FamilyParams(32, 2, 3).poly, -1), (x16_plus_x_minus_2, 1)]:
            w = irreducibility_witness(f)
            assert (w.irreducible, w.method, w.detail) == (False, "linear-factor", f"root {root}")
        # Below the ceiling the oracle still answers x^2 - 1, and above it
        # (x^8 + 3)(x^8 + 5), with no root +-1, is still refused.
        assert irreducibility_witness(poly(-1, 0, 1)).method == "factor-oracle"
        with pytest.raises(InvalidInputError, match="oracle ceiling"):
            irreducibility_witness(IntPoly((15,) + (0,) * 7 + (8,) + (0,) * 7 + (1,)))

    def test_corpus(self):
        assert is_irreducible(poly(-1, -1, 1))
        assert is_irreducible(poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        assert is_irreducible(poly(1, 0, 0, 1, 0, 0, 1))  # 9th cyclotomic
        assert not is_irreducible(poly(4, 0, 0, 0, 1))
        assert not is_irreducible(poly(-4, 4, -3, 1))  # root at 2... checked below

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, body):
        f = IntPoly(tuple(body) + (1,))
        if f.degree < 2:
            return
        assert is_irreducible(f) == to_sympy(f).is_irreducible
