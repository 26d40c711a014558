"""Shared helpers for the test suite.

sympy is used throughout the tests as an independent referee for integer
factorization, resultants, polynomial factorization, and maximal-order
computations.  It is a test-only dependency; nothing under src/ imports it.
"""
from __future__ import annotations

import pytest
import sympy

from perronpoly import roots
from perronpoly.polynomial import IntPoly

X = sympy.Symbol("x")


def poly(*coeffs: int) -> IntPoly:
    """IntPoly from ascending coefficients: poly(-1, -1, 1) is x^2 - x - 1."""
    return IntPoly(tuple(coeffs))


@pytest.fixture
def fresh_root_cache():
    """Clear the solver cache around a test that fakes solver results or
    moves the starting precision, so no other test reads its root sets."""
    solve = roots._solve_cached
    solve.cache_clear()
    yield
    solve.cache_clear()


@pytest.fixture
def start_at_16_bits(monkeypatch, fresh_root_cache):
    """Every root decision starts at 16 bits instead of the default, so a
    test can watch escalation past coarse disks."""
    monkeypatch.setattr(roots, "DEFAULT_PRECISION_BITS", 16)


def to_sympy(f: IntPoly):
    return sympy.Poly(list(reversed(f.coeffs)), X)


def from_sympy(sp) -> IntPoly:
    return IntPoly(tuple(int(c) for c in reversed(sp.all_coeffs())))


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Definitional resultant: determinant of the Sylvester matrix, computed
    by fraction-free-enough Gaussian elimination over Fraction.

    This is the referee of choice because sympy's resultant follows the
    subresultant-PRS sign convention, which differs from the Sylvester
    determinant on some degree patterns (the absolute values always agree,
    the signs do not).
    """
    from fractions import Fraction

    df, dg = f.degree, g.degree
    if df < 1 or dg < 1:
        raise ValueError("need two nonconstant polynomials")
    n = df + dg
    fc = [Fraction(c) for c in reversed(f.coeffs)]
    gc = [Fraction(c) for c in reversed(g.coeffs)]
    rows = [[Fraction(0)] * i + fc + [Fraction(0)] * (dg - 1 - i) for i in range(dg)]
    rows += [[Fraction(0)] * i + gc + [Fraction(0)] * (df - 1 - i) for i in range(df)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                fac = rows[r][col] / inv
                for c in range(col, n):
                    rows[r][c] -= fac * rows[col][c]
    assert det.denominator == 1
    return int(det)
