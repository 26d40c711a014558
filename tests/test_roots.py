"""Certified root solving: enclosures, modulus profiles, real-root census.

The ground truth referee is sympy's nroots at high precision; every
certified disk must contain exactly one reference root.
"""
from __future__ import annotations

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly, to_sympy
from perronpoly.errors import InvalidInputError
from perronpoly.polynomial import IntPoly, squarefree_part
from perronpoly.roots import (
    DEFAULT_PRECISION_BITS,
    CertifiedRoot,
    CertifiedRootSet,
    complex_roots,
    expected_on_circle,
    modulus_profile,
    real_axis_profile,
)

LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def reference_roots(f: IntPoly, digits: int = 40):
    return [complex(r) for r in to_sympy(f).nroots(n=digits, maxsteps=200)]


def assert_disks_cover_reference(f: IntPoly):
    # Certified radii can be far below double precision, so the reference
    # roots (converted through complex) carry the larger error; inflate the
    # disks by a double-precision allowance scaled to the root size.
    rs = complex_roots(f)
    assert len(rs) == f.degree
    refs = reference_roots(f)
    with rs.work():
        for ref in refs:
            slack = 1e-10 * (1 + abs(ref))
            inside = [
                r
                for r in rs.roots
                if abs(r.value - mpmath.mpc(ref.real, ref.imag)) <= r.radius + slack
            ]
            assert len(inside) == 1, f"reference root {ref} not near exactly one disk"


class TestComplexRoots:
    def test_golden_ratio(self):
        rs = complex_roots(poly(-1, -1, 1))
        with rs.work():
            vals = sorted(float(r.value.real) for r in rs.roots)
        assert vals[0] == pytest.approx((1 - 5**0.5) / 2, abs=1e-12)
        assert vals[1] == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)

    def test_disks_are_disjoint(self):
        rs = complex_roots(LEHMER)
        with rs.work():
            for i, a in enumerate(rs.roots):
                for b in rs.roots[i + 1 :]:
                    assert abs(a.value - b.value) > a.radius + b.radius

    def test_dominant_is_max_modulus(self):
        rs = complex_roots(poly(-5, -1, 0, 1))
        dom = rs.dominant()
        with rs.work():
            assert all(dom.modulus >= r.modulus - r.radius for r in rs.roots)
            assert dom.value.real > 1

    def test_vieta_residuals_within_allowance(self):
        rs = complex_roots(LEHMER)
        res = rs.vieta_residuals(LEHMER)
        with rs.work():
            assert res["sum_residual"] < res["sum_allowance"]
            assert res["product_residual"] < res["product_allowance"]

    def test_close_root_cluster_still_certifies(self):
        # x^6 - 2(5x - 1)^2 has two roots near 1/5 at distance ~1e-3.
        f = poly(-2, 20, -50, 0, 0, 0, 1)
        assert_disks_cover_reference(f)

    def test_huge_shifted_pair(self):
        # (x - 10^9)^2 - 1: two real roots a unit apart, nine orders of
        # magnitude out; float seeding alone cannot separate them.
        big = 10**9
        f = poly(big * big - 1, -2 * big, 1)
        rs = complex_roots(f)
        with rs.work():
            vals = sorted(float(r.value.real) for r in rs.roots)
            assert vals == [big - 1, big + 1]

    def test_rejects_constant_and_nonsquarefree_inputs(self):
        with pytest.raises(InvalidInputError):
            complex_roots(poly(3))
        with pytest.raises(InvalidInputError):
            complex_roots(poly(1, 2, 1))  # (x+1)^2

    def test_modulus_bounds_bracket(self):
        rs = complex_roots(poly(-3, -1, 1))
        with rs.work():
            for (lo, hi), r in zip(rs.modulus_bounds(), rs.roots):
                assert lo <= r.modulus <= hi

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_monic_against_sympy(self, body):
        f = squarefree_part(IntPoly(tuple(body) + (1,)))
        if f.degree < 2 or f.constant == 0:
            return
        assert_disks_cover_reference(f)

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, body):
        f = squarefree_part(IntPoly(tuple(body) + (1,)))
        if f.degree < 2 or f.constant == 0:
            return
        rs = complex_roots(f)
        with rs.work():
            values = [r.value for r in rs.roots]
            for v in values:
                conj = mpmath.mpc(v.real, -v.imag)
                assert any(
                    abs(conj - w) <= r.radius * 2 + 1e-30
                    for w, r in zip(values, rs.roots)
                )


class TestExpectedOnCircle:
    def test_cyclotomic(self):
        assert expected_on_circle(poly(1, 1, 1, 1, 1)) == 4
        assert expected_on_circle(poly(1, 1, 1)) == 2
        assert expected_on_circle(poly(1, 0, 1)) == 2

    def test_lehmer_salem_count(self):
        # Degree 10, Salem: 8 roots on the circle.
        assert expected_on_circle(LEHMER) == 8

    def test_non_palindromic_is_zero(self):
        assert expected_on_circle(poly(-1, -1, 1)) == 0
        assert expected_on_circle(poly(-5, 0, 0, 1)) == 0

    def test_degree_one(self):
        assert expected_on_circle(poly(1, 1)) == 1
        assert expected_on_circle(poly(-1, 1)) == 1
        assert expected_on_circle(poly(-3, 1)) == 0

    def test_odd_palindromic_rejected(self):
        with pytest.raises(InvalidInputError):
            expected_on_circle(poly(1, 1, 1, 1))


def coarse_roots_of_x2_minus_4x_plus_2() -> CertifiedRootSet:
    """A valid but coarse 16-bit root set of x^2 - 4x + 2 (roots 2 -+ sqrt 2):
    disjoint disks of radius 0.6, the one around 0.586 straddling both the
    unit circle and zero, so no decision can be read from it."""
    with mpmath.workprec(64):
        roots = tuple(
            CertifiedRoot(mpmath.mpc(2 + s * mpmath.sqrt(2)), mpmath.mpf("0.6")) for s in (-1, 1)
        )
    return CertifiedRootSet(roots, 16)


class TestModulusProfile:
    def test_escalates_past_straddling_disks(self):
        prof = modulus_profile(poly(2, -4, 1), roots=coarse_roots_of_x2_minus_4x_plus_2())
        assert prof.counts == (1, 0, 1)
        assert prof.rootset.precision_bits > 16

    def test_golden_ratio_profile(self):
        prof = modulus_profile(poly(-1, -1, 1))
        assert prof.counts == (1, 0, 1)

    def test_lehmer_profile(self):
        prof = modulus_profile(LEHMER)
        assert prof.counts == (1, 8, 1)
        assert prof.assignments.count("on") == 8

    def test_all_outside(self):
        prof = modulus_profile(poly(-5, -1, 0, 1))
        assert prof.counts[2] >= 1
        assert sum(prof.counts) == 3

    def test_cyclotomic_all_on(self):
        prof = modulus_profile(poly(1, 1, 1, 1, 1))
        assert prof.counts == (0, 4, 0)


class TestRealAxisProfile:
    def test_escalates_past_disk_straddling_zero(self):
        census = real_axis_profile(poly(2, -4, 1), roots=coarse_roots_of_x2_minus_4x_plus_2())
        assert (census.positive, census.negative, census.nonreal) == (2, 0, 0)
        assert census.rootset.precision_bits > 16

    def test_golden_ratio(self):
        prof = real_axis_profile(poly(-1, -1, 1))
        assert (prof.positive, prof.negative, prof.nonreal) == (1, 1, 0)
        assert prof.real_flags == (True, True)

    def test_strictly_complex(self):
        prof = real_axis_profile(poly(1, 0, 1))
        assert (prof.positive, prof.negative, prof.nonreal) == (0, 0, 2)

    def test_family_point_odd(self):
        prof = real_axis_profile(poly(-5, 0, -1, 1))
        assert (prof.positive, prof.negative) == (1, 0)
        assert prof.nonreal == 2

    def test_rejects_zero_constant(self):
        with pytest.raises(InvalidInputError):
            real_axis_profile(poly(0, 1, 1))

    def test_huge_real_pair(self):
        big = 10**9
        prof = real_axis_profile(poly(big * big - 1, -2 * big, 1))
        assert (prof.positive, prof.negative, prof.nonreal) == (2, 0, 0)

    @given(st.lists(st.integers(-15, 15), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_census_matches_sturm(self, body):
        from perronpoly.polynomial import count_real_roots

        f = squarefree_part(IntPoly(tuple(body) + (1,)))
        if f.degree < 1 or f.constant == 0:
            return
        prof = real_axis_profile(f)
        assert (prof.positive, prof.negative) == count_real_roots(f)
        assert prof.positive + prof.negative + prof.nonreal == f.degree
