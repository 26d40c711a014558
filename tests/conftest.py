"""Shared helpers for the test suite.

sympy is used throughout the tests as an independent referee for integer
factorization, resultants, polynomial factorization, and maximal-order
computations.  It is a test-only dependency; nothing under src/ imports it.
The root disks are read back as mpmath numbers (disks, work) and their real
roots counted by Sturm chains (count_real_roots), as referees for the
integer decisions of the solver.
"""
from __future__ import annotations

import mpmath
import pytest
import sympy

from perronpoly import roots
from perronpoly.errors import InvalidInputError
from perronpoly.polynomial import IntPoly, sturm_count

X = sympy.Symbol("x")


def poly(*coeffs: int) -> IntPoly:
    """IntPoly from ascending coefficients: poly(-1, -1, 1) is x^2 - x - 1."""
    return IntPoly(tuple(coeffs))


@pytest.fixture
def start_at_16_bits(monkeypatch):
    """Every root decision starts at 16 bits instead of the default, so a
    test can watch escalation past coarse disks."""
    monkeypatch.setattr(roots, "DEFAULT_PRECISION_BITS", 16)


def disks(rs: roots.CertifiedRootSet) -> list[tuple[mpmath.mpc, mpmath.mpf]]:
    """(centre, radius) of each disk of rs as exact mpmath numbers; do
    arithmetic on them inside work(rs)."""
    width = max(abs(v).bit_length() for d in rs.roots for v in (d.x, d.y, d.r))
    with mpmath.workprec(width + 1):
        return [
            (
                mpmath.mpc(mpmath.mpf((d.x, -rs.scale)), mpmath.mpf((d.y, -rs.scale))),
                mpmath.mpf((d.r, -rs.scale)),
            )
            for d in rs.roots
        ]


def work(rs: roots.CertifiedRootSet):
    """A precision safely above the disk scale of rs: the global default
    would swamp radii of order 2^-precision_bits with rounding dust."""
    return mpmath.workprec(2 * rs.precision_bits + 48)


def dominant(rs: roots.CertifiedRootSet) -> tuple[mpmath.mpc, mpmath.mpf]:
    """The disk of rs whose centre has the largest modulus."""
    found = disks(rs)
    with work(rs):
        return max(found, key=lambda disk: abs(disk[0]))


def count_real_roots(f: IntPoly) -> tuple[int, int]:
    """(positive, negative) real-root counts of squarefree f with nonzero
    constant term, by Sturm chains over (0, M) and (-M, 0)."""
    if f.constant == 0:
        raise InvalidInputError("count_real_roots needs a nonzero constant term")
    # Cauchy bound: every root has |z| < 1 + max|c_i| / |lc|, and |lc| >= 1.
    bound = 1 + max(abs(c) for c in f.coeffs)
    return sturm_count(f, 0, bound), sturm_count(f, -bound, 0)


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
    if df < 0 or dg < 0:
        raise ValueError("need two nonzero polynomials")
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
