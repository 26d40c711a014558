"""Exact polynomial arithmetic over Z and F_q, refereed by sympy."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_real_roots, from_sympy, poly, sylvester_resultant, to_sympy
from perronpoly.errors import InvalidInputError
from perronpoly.monogenicity import _qth_root_mod, _radical_mod
from perronpoly.polynomial import (
    IntPoly,
    discriminant,
    divmod_mod,
    gcd_mod,
    is_self_reciprocal,
    monic_mod,
    mul_mod,
    poly_gcd,
    reduce_mod,
    resultant,
    squarefree_part,
    sturm_count,
    trace_transform,
)

# Bounded coefficient lists for property tests; the top slot is kept nonzero
# by construction so degrees are what the strategy says they are.
coeff_lists = st.lists(st.integers(-30, 30), min_size=1, max_size=7)


def nonzero_poly(coeffs, lead=1):
    return IntPoly(tuple(coeffs) + (lead,))


class TestIntPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).is_zero

    def test_degree_lead_constant(self):
        f = poly(-5, 0, 0, -3, 1)
        assert f.degree == 4
        assert f.lead == 1
        assert f.constant == -5
        assert f.is_monic
        assert f.coeff(3) == -3
        assert f.coeff(99) == 0

    def test_zero_degree_convention(self):
        assert IntPoly(()).degree == -1
        assert poly(7).degree == 0

    def test_text_roundtrip(self):
        for f in [poly(-1, -1, 1), poly(0, 1), poly(42), poly(-5, -3, 0, 0, 1)]:
            assert IntPoly.from_text(f.to_text()) == f

    def test_from_text_rejects_garbage(self):
        for bad in ["", "1,2,x", "1;2", "--3,1"]:
            with pytest.raises(InvalidInputError):
                IntPoly.from_text(bad)

    @pytest.mark.parametrize("bad", [(-3.9, -1, 1), ("7", 1), (2.5,), (None, 1), (float("inf"),)])
    def test_non_integer_coefficients_rejected(self, bad):
        # int() would truncate -3.9 to -3 and parse "7"; neither is an integer.
        with pytest.raises(InvalidInputError, match="must be integers"):
            IntPoly(bad)

    @pytest.mark.parametrize("good", [(-3, -1, 1), (sympy.Integer(-3), -1, 1), (-3.0, -1, 1.0)])
    def test_integer_valued_coefficients_accepted(self, good):
        f = IntPoly(good)
        assert f == poly(-3, -1, 1)
        assert all(type(c) is int for c in f.coeffs)

    def test_evaluation(self):
        f = poly(-1, -1, 1)
        assert f(2) == 1
        assert f(Fraction(1, 2)) == Fraction(-5, 4)


class TestRingOps:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_commutativity(self, a, b):
        f, g = IntPoly(tuple(a)), IntPoly(tuple(b))
        assert f + g == g + f
        assert f * g == g * f

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_distributivity(self, a, b, c):
        f, g, h = IntPoly(tuple(a)), IntPoly(tuple(b)), IntPoly(tuple(c))
        assert f * (g + h) == f * g + f * h

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_sympy(self, a, b):
        f, g = IntPoly(tuple(a)), IntPoly(tuple(b))
        if f.is_zero or g.is_zero:
            assert (f * g).is_zero
        else:
            assert f * g == from_sympy(to_sympy(f) * to_sympy(g))

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_divmod_by_monic(self, a, b):
        f = IntPoly(tuple(a))
        g = IntPoly(tuple(b) + (1,))  # force monic
        quo, rem = f.divmod(g)
        assert quo * g + rem == f
        assert rem.degree < g.degree

    def test_divmod_rejects_inexact(self):
        with pytest.raises(InvalidInputError):
            poly(0, 1).divmod(poly(0, 2))

    def test_exact_div(self):
        f = poly(-1, 0, 1)  # (x-1)(x+1)
        assert f.exact_div(poly(-1, 1)) == poly(1, 1)
        with pytest.raises(InvalidInputError):
            f.exact_div(poly(1, 1, 1))

    def test_divides(self):
        assert poly(-1, 1).divides(poly(-1, 0, 1))
        assert not poly(1, 1, 1).divides(poly(-1, 0, 1))

    def test_derivative_content_primitive(self):
        f = poly(6, 0, -9, 3)
        assert f.derivative() == poly(0, -18, 9)
        assert abs(f.content()) == 3
        assert f.primitive() == poly(2, 0, -3, 1)


class TestResultantDiscriminant:
    def test_known_resultants(self):
        # res(x^2 - 1, x - 2) = f(2) for monic linear second argument.
        assert resultant(poly(-1, 0, 1), poly(-2, 1)) == 3

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=120, deadline=None)
    def test_resultant_matches_sylvester_determinant(self, a, b):
        f, g = IntPoly(tuple(a)), IntPoly(tuple(b))
        if f.degree < 1 or g.degree < 1:
            return
        assert resultant(f, g) == sylvester_resultant(f, g)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=120, deadline=None)
    def test_resultant_magnitude_matches_sympy(self, a, b):
        # sympy's resultant follows the subresultant-PRS sign convention,
        # which flips relative to the Sylvester determinant on some degree
        # patterns; the magnitudes must still agree everywhere.
        f, g = IntPoly(tuple(a)), IntPoly(tuple(b))
        if f.degree < 1 or g.degree < 1:
            return
        expected = abs(int(sympy.resultant(to_sympy(f), to_sympy(g))))
        assert abs(resultant(f, g)) == expected

    @pytest.mark.parametrize(
        "f, g",
        [
            (poly(1, 2, 0, 3), poly(-1, 0, 1, 0, 0, 2)),  # degrees 3 < 5, both odd
            (poly(-7, 1), poly(2, -1, 0, 5)),  # degrees 1 < 3, both odd
            (poly(-6), poly(1, 2, 3)),  # a constant first operand
            (poly(2, 0, -4, 1), poly(3)),  # a constant second operand
            (poly(-3, 1) * poly(1, 1, 2), poly(-3, 1) * poly(5, 0, 1)),  # a common factor
        ],
    )
    def test_pinned_subresultant_cases(self, f, g):
        # The swap of operands, with the sign (-1)^(deg f deg g) it costs; the
        # early return on a constant; the zero remainder of a common factor.
        assert resultant(f, g) == sylvester_resultant(f, g)
        assert resultant(g, f) == (-1) ** (f.degree * g.degree) * resultant(f, g)

    def test_resultant_vanishes_on_shared_root(self):
        shared = poly(-3, 1)
        assert resultant(shared * poly(1, 1), shared * poly(5, 0, 1)) == 0

    def test_family_discriminants(self):
        assert discriminant(poly(-1, -1, 1)) == 5
        assert discriminant(poly(-3, -1, 1)) == 13
        assert discriminant(poly(-2, 0, -1, 1)) == -116
        assert discriminant(poly(-2, 0, -2, 1)) == -172

    def test_discriminant_requires_monic(self):
        with pytest.raises(InvalidInputError):
            discriminant(poly(1, 1, 2))

    @given(coeff_lists)
    @settings(max_examples=120, deadline=None)
    def test_discriminant_matches_sympy_monic(self, a):
        f = IntPoly(tuple(a) + (1,))
        if f.degree < 2:
            return
        assert discriminant(f) == int(to_sympy(f).discriminant())

    @given(coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_discriminant_matches_definition(self, a):
        # disc = (-1)^(d(d-1)/2) res(f, f') for monic f, Sylvester res.
        f = IntPoly(tuple(a) + (1,))
        d = f.degree
        if d < 2:
            return
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        assert discriminant(f) == sign * sylvester_resultant(f, f.derivative())

    def test_repeated_root_kills_discriminant(self):
        f = poly(-1, 1) * poly(-1, 1) * poly(3, 1)
        assert discriminant(f) == 0


class TestGcdSquarefree:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_gcd_matches_sympy(self, a, b):
        f, g = IntPoly(tuple(a)), IntPoly(tuple(b))
        ours = poly_gcd(f, g)
        if f.is_zero and g.is_zero:
            assert ours.is_zero
            return
        expected = from_sympy(sympy.Poly(sympy.gcd(to_sympy(f), to_sympy(g))))
        if expected.lead < 0:
            expected = -expected
        assert ours == expected

    def test_gcd_divides_both(self):
        f = poly(-1, 1) * poly(2, 1) * poly(2, 1)
        g = poly(2, 1) * poly(5, 0, 1)
        d = poly_gcd(f, g)
        assert d == poly(2, 1)

    def test_squarefree_part(self):
        f = poly(-1, 1) * poly(-1, 1) * poly(1, 1)
        assert squarefree_part(f) == poly(-1, 1) * poly(1, 1)

    @given(coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_squarefree_part_has_no_repeated_roots(self, a):
        f = IntPoly(tuple(a))
        if f.degree < 1:
            return
        sf = squarefree_part(f)
        assert poly_gcd(sf, sf.derivative()).degree == 0


class TestRealRootCounts:
    def test_sturm_interval(self):
        f = poly(-2, 0, 1)  # roots +-sqrt(2)
        assert sturm_count(f, 0, 2) == 1
        assert sturm_count(f, -2, 2) == 2
        assert sturm_count(f, 2, 3) == 0

    def test_sturm_rejects_root_endpoint(self):
        with pytest.raises(InvalidInputError):
            sturm_count(poly(-1, 0, 1), 1, 2)

    def test_count_real_roots_examples(self):
        assert count_real_roots(poly(-1, -1, 1)) == (1, 1)
        assert count_real_roots(poly(-5, -1, 0, 1)) == (1, 0)
        assert count_real_roots(poly(1, 0, 1)) == (0, 0)

    def test_count_real_roots_rejects_zero_constant(self):
        with pytest.raises(InvalidInputError):
            count_real_roots(poly(0, 1))

    @given(coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_counts_match_sympy(self, a):
        f = squarefree_part(IntPoly(tuple(a)))
        if f.degree < 1 or f.constant == 0:
            return
        pos, neg = count_real_roots(f)
        roots = sympy.real_roots(to_sympy(f))
        assert pos == sum(1 for r in roots if r > 0)
        assert neg == sum(1 for r in roots if r < 0)


class TestSelfReciprocal:
    def test_examples(self):
        lehmer = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        assert is_self_reciprocal(lehmer)
        assert is_self_reciprocal(poly(1, 3, 1))
        assert not is_self_reciprocal(poly(-1, -1, 1))

    def test_trace_transform_degree_halves(self):
        lehmer = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        g = trace_transform(lehmer)
        assert g.degree == 5

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_trace_transform_identity(self, half):
        # Build a self-reciprocal f of even degree from one half, then check
        # f(x) = x^k * g(x + 1/x) symbolically.
        body = half + [17] + list(reversed(half))
        f = IntPoly(tuple(body))
        if f.degree != len(body) - 1 or f.degree % 2 != 0 or f.degree == 0:
            return
        assert is_self_reciprocal(f)
        g = trace_transform(f)
        k = f.degree // 2
        assert g.degree == k
        x = sympy.Symbol("x")
        gx = sum(c * (x + 1 / x) ** i for i, c in enumerate(g.coeffs))
        assert sympy.simplify(sympy.expand(x**k * gx) - to_sympy(f).as_expr()) == 0


class TestModPoly:
    """Arithmetic in (Z/q)[x] on ascending coefficient lists."""

    def test_reduce_lift_roundtrip(self):
        f = poly(-5, -3, 0, 7, 1)
        m = reduce_mod(f.coeffs, 5)
        assert m == [0, 2, 0, 2, 1]
        assert IntPoly(tuple(m)) == poly(0, 2, 0, 2, 1)
        assert reduce_mod([5, 10, -15], 5) == []

    def test_monic(self):
        assert monic_mod([1, 3], 7) == [5, 1]  # 3^{-1} = 5 mod 7

    def test_divmod_property(self):
        q = 13
        f = reduce_mod(poly(3, 1, 4, 1, 5, 9).coeffs, q)
        g = reduce_mod(poly(2, 6, 5).coeffs, q)
        quo, rem = divmod_mod(f, g, q)
        product = mul_mod(quo, g, q)
        padded = rem + [0] * (len(product) - len(rem))
        assert reduce_mod([a + b for a, b in zip(product, padded)], q) == f
        assert len(rem) < len(g)

    @pytest.mark.parametrize("q, monic", [(2, False), (13, False), (1009, False),
                                          (3**4, True), (2**10, True), (7**3, True)])
    def test_divmod_identity(self, q, monic):
        # b * quo + rem == a modulo q with deg rem < deg b: for any nonzero b
        # over a prime q, and for a monic b over a prime power, as the
        # Hensel lift divides. Divisors with zero coefficients included.
        rng = random.Random(q)
        for _ in range(200):
            a = reduce_mod([rng.randrange(q) for _ in range(rng.randint(0, 14))], q)
            b = [rng.choice((0, 0, rng.randrange(q))) for _ in range(rng.randint(0, 7))]
            b.append(1 if monic else rng.randrange(1, q))
            quo, rem = divmod_mod(a, b, q)
            assert rem == reduce_mod(rem, q) and len(rem) < len(b)
            assert all(0 <= c < q for c in quo)
            exact = IntPoly(tuple(b)) * IntPoly(tuple(quo)) + IntPoly(tuple(rem))
            assert reduce_mod((exact - IntPoly(tuple(a))).coeffs, q) == []
        # An unreduced a of lower degree than b, with entries >= q, negative
        # entries and trailing zeros: the remainder is reduced like any other,
        # and it is a new list, not a itself.
        a = [q + 1, -3, 2 * q, -q - 2, 0, 0]
        quo, rem = divmod_mod(a, [1, 0, 0, 0, 0, 0, 1], q)
        assert quo == [] and rem == reduce_mod(a, q) and rem is not a

    def test_derivative_frobenius_kernel(self):
        # x^3 + 2 = (x + 2)^3 over F_3 has derivative 0, so its radical comes
        # from the q-th-root branch.
        assert _qth_root_mod([2, 0, 0, 1], 3) == [2, 1]
        assert _radical_mod([2, 0, 0, 1], 3) == [2, 1]

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_radical_matches_sympy(self, q):
        # Every constant and linear input, then seeded products of random
        # factors at multiplicities that include q and 2q, times x^v and a
        # unit; sympy's squarefree part over GF(q) is the referee.
        rng = random.Random(q)
        x = sympy.Symbol("x")
        cases = [[c] for c in range(1, q)] + [[c, u] for c in range(q) for u in range(1, q)]
        for _ in range(60):
            f = [0] * rng.choice((0, 0, 1, 2, q, q + 1)) + [rng.randrange(1, q)]
            for _ in range(rng.randint(0, 3)):
                factor = [rng.randrange(q) for _ in range(rng.randint(1, 3))] + [1]
                for _ in range(rng.choice((1, 2, 3, q, 2 * q))):
                    f = mul_mod(f, factor, q)
            cases.append(f)
        for f in cases:
            expected = sympy.Poly(list(reversed(f)), x, modulus=q).sqf_part().monic()
            assert _radical_mod(f, q) == [c % q for c in reversed(expected.all_coeffs())], f

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.lists(st.integers(0, 10), min_size=1, max_size=6),
        st.lists(st.integers(0, 10), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_gcd_matches_sympy(self, q, a, b):
        f, g = reduce_mod(a, q), reduce_mod(b, q)
        if not f or not g:
            return
        x = sympy.Symbol("x")
        sf = sympy.Poly(list(reversed(f)), x, modulus=q)
        sg = sympy.Poly(list(reversed(g)), x, modulus=q)
        expected = sf.gcd(sg).monic()
        assert [c % q for c in reversed(expected.all_coeffs())] == gcd_mod(f, g, q)
