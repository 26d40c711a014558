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
from perronpoly import roots as roots_module
from perronpoly.classification import STRICTLY_PERRON, classify
from perronpoly.errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from perronpoly.family import FamilyParams
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


@pytest.fixture
def coarse_x2_minus_4x_plus_2(monkeypatch):
    """Make the solver answer x^2 - 4x + 2 (roots 2 -+ sqrt 2) at the starting
    precision with a valid but coarse root set: disjoint disks of radius 0.6,
    the one around 0.586 straddling both the unit circle and zero, so no
    decision can be read from it. Other requests reach the real solver."""
    with mpmath.workprec(64):
        roots = tuple(
            CertifiedRoot(mpmath.mpc(2 + s * mpmath.sqrt(2)), mpmath.mpf("0.6")) for s in (-1, 1)
        )
    coarse, solve = CertifiedRootSet(roots, DEFAULT_PRECISION_BITS), roots_module._solve_cached
    start = ((2, -4, 1), DEFAULT_PRECISION_BITS)
    monkeypatch.setattr(
        roots_module, "_solve_cached",
        lambda coeffs, bits: coarse if (coeffs, bits) == start else solve(coeffs, bits),
    )
    return poly(2, -4, 1)


class TestModulusProfile:
    def test_escalates_past_straddling_disks(self, coarse_x2_minus_4x_plus_2):
        prof = modulus_profile(coarse_x2_minus_4x_plus_2)
        assert prof.counts == (1, 0, 1)
        assert prof.rootset.precision_bits > DEFAULT_PRECISION_BITS

    def test_golden_ratio_profile(self):
        prof = modulus_profile(poly(-1, -1, 1))
        assert prof.counts == (1, 0, 1)

    def test_lehmer_profile(self):
        prof = modulus_profile(LEHMER)
        assert prof.counts == (1, 8, 1)

    def test_all_outside(self):
        prof = modulus_profile(poly(-5, -1, 0, 1))
        assert prof.counts[2] >= 1
        assert sum(prof.counts) == 3

    def test_cyclotomic_all_on(self):
        prof = modulus_profile(poly(1, 1, 1, 1, 1))
        assert prof.counts == (0, 4, 0)

    def test_inconsistent_circle_accounting_is_a_violation(self, monkeypatch):
        # Both golden-ratio disks clear the circle; an exact count of 2
        # on-circle roots then contradicts them, which is a defect, not a
        # precision shortfall.
        monkeypatch.setattr(roots_module, "expected_on_circle", lambda f: 2)
        with pytest.raises(OracleViolationError, match="accounting"):
            modulus_profile(poly(-1, -1, 1))

    def test_rejects_nonsquarefree(self):
        with pytest.raises(InvalidInputError, match="squarefree"):
            modulus_profile(poly(4, -4, 1))  # (x - 2)^2


class TestRealAxisProfile:
    def test_escalates_past_disk_straddling_zero(self, coarse_x2_minus_4x_plus_2):
        census = real_axis_profile(coarse_x2_minus_4x_plus_2)
        assert (census.positive, census.negative, census.nonreal) == (2, 0, 0)
        assert census.rootset.precision_bits > DEFAULT_PRECISION_BITS

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

    def test_rejects_nonsquarefree(self):
        with pytest.raises(InvalidInputError, match="squarefree"):
            real_axis_profile(poly(4, -4, 1))  # (x - 2)^2

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


class TestSingleEscalationLoop:
    def test_one_cap_per_decision(self, monkeypatch, fresh_root_cache):
        # Disks collide below 1024 bits and the census needs 2048. Both
        # shortfalls draw on the same MAX_ESCALATIONS doublings from 64 bits,
        # so 1024 is the last precision tried and the decision gives up there.
        certify = roots_module._certify
        monkeypatch.setattr(
            roots_module, "_certify",
            lambda coeffs, zs, prec: certify(coeffs, zs, prec) if prec >= 1024 else None,
        )
        census = roots_module.try_real_census
        monkeypatch.setattr(
            roots_module, "try_real_census",
            lambda rs: census(rs) if rs.precision_bits >= 2048 else None,
        )
        with pytest.raises(PrecisionExhaustedError, match="census at 1024 bits$"):
            real_axis_profile(poly(-1, -1, 1))

    def test_isolation_escalates_from_the_requested_precision(
        self, monkeypatch, fresh_root_cache
    ):
        certify = roots_module._certify
        monkeypatch.setattr(
            roots_module, "_certify",
            lambda coeffs, zs, prec: certify(coeffs, zs, prec) if prec >= 256 else None,
        )
        assert complex_roots(poly(-1, -1, 1)).precision_bits == 256
        monkeypatch.setattr(roots_module, "MAX_ESCALATIONS", 1)
        with pytest.raises(PrecisionExhaustedError, match="at 128 bits$"):
            complex_roots(poly(-1, -1, 1))


class TestAberthStarts:
    def test_poisoned_warm_start_falls_back_to_circle_points(
        self, monkeypatch, fresh_root_cache
    ):
        # Real starts stay real under Aberth for a real polynomial, so they
        # never reach the nonreal roots of x^2 + x + 1 and the disks collide;
        # the retry from the circle points must certify at the first attempt.
        f = poly(1, 1, 1)
        monkeypatch.setattr(roots_module, "_float_aberth", lambda coeffs: [0.5, -0.25])
        refine, starts = roots_module._refine_mp, []

        def spy(coeffs, zs, prec, *args, **kwargs):
            starts.append(list(zs))
            return refine(coeffs, zs, prec, *args, **kwargs)

        monkeypatch.setattr(roots_module, "_refine_mp", spy)
        assert complex_roots(f).precision_bits == DEFAULT_PRECISION_BITS
        assert starts == [[0.5, -0.25], roots_module._initial_points(f.coeffs)]
        assert_disks_cover_reference(f)

    def test_warm_start_skipped_for_huge_coefficients(self, fresh_root_cache):
        f = poly(-(10**300), -1, 1)
        assert roots_module._float_aberth(f.coeffs) is None
        # The roots sit near +-10^150 with moduli 1 apart: ordering them needs
        # about 500 bits, reached by three doublings of the starting 64.
        c = classify(f)
        assert (c.headline, c.dominant, c.precision_bits) == (STRICTLY_PERRON, "1.0e+150", 512)

    def test_collision_is_nudged_apart(self):
        # Two equal starts for x^2 - 3x + 2: in either number type the first
        # sweep nudges one off the other, and the sweeps then find 1 and 2.
        zs = [0.5 + 0j, 0.5 + 0j]
        assert roots_module._aberth(zs, [2.0, -3.0, 1.0], 1e-14, 140, 1e-7)
        assert sorted(z.real for z in zs) == pytest.approx([1, 2])
        refined = roots_module._refine_mp((2, -3, 1), [0.5, 0.5], 64, 50)
        assert sorted(float(z.real) for z in refined) == pytest.approx([1, 2])


class TestFloatRung:
    @pytest.mark.parametrize("n", [2, 8, 16, 24, 32, 40])
    def test_float_disks_hold_the_roots(self, monkeypatch, fresh_root_cache, n):
        # The default precision is answered by the exact disks around the
        # double-precision approximations; each must hold the 200-bit root
        # Newton reaches from its centre (the disks being disjoint, these
        # are n distinct roots, so all of them).
        def refine(*args):
            raise AssertionError("the float rung should settle a family member")

        monkeypatch.setattr(roots_module, "_refine_mp", refine)
        for a, p in [(1, 5), (2, 13), (3, 101)]:
            f = FamilyParams(n, a, p).poly
            rs = complex_roots(f)
            assert rs.precision_bits == DEFAULT_PRECISION_BITS and len(rs) == n
            desc = list(reversed(f.coeffs))
            with mpmath.workprec(200):
                for r in rs.roots:
                    ref = mpmath.findroot(
                        lambda z: mpmath.polyval(desc, z), r.value, solver="newton",
                        df=lambda z: mpmath.polyval(desc, z, derivative=True)[1],
                    )
                    assert abs(ref - r.value) <= r.radius, (n, a, p, r)

    def test_equal_centres_do_not_certify(self):
        assert roots_module._certify((2, -3, 1), [1.5, 1.5], DEFAULT_PRECISION_BITS) is None
        assert roots_module._certify((2, -3, 1), [1.0, 2.0], DEFAULT_PRECISION_BITS) is not None

    def test_centres_and_radii_are_stored_exactly(self):
        # A centre needing more than 53 bits must not be rounded to the
        # ambient precision when it is stored, or its radius would be proven
        # for a different point.
        with mpmath.workprec(200):
            z = mpmath.mpc(3 + mpmath.mpf(2) ** -150)
        (root,) = roots_module._certify((-3, 1), [z], 200)
        assert root.value == z and root.radius >= mpmath.mpf(2) ** -150
