"""Certified root solving: enclosures, modulus profiles, real-root census.

The ground truth referee is sympy's nroots at high precision; every
certified disk must contain exactly one reference root.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import count_real_roots, disks, dominant, poly, real_census, to_sympy, work
from perronpoly import classification
from perronpoly import roots as roots_module
from perronpoly.classification import NO_PERRON_ROOT, STRICTLY_PERRON, _decide, classify
from perronpoly.classification import classify_irreducible
from perronpoly.errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from perronpoly.family import FamilyParams
from perronpoly.polynomial import IntPoly, squarefree_part
from perronpoly.roots import (
    DEFAULT_PRECISION_BITS,
    CertifiedRoot,
    CertifiedRootSet,
    complex_roots,
    expected_on_circle,
    sqrt_exceeds,
    try_modulus_tags,
    try_real_census,
)

LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def reference_roots(f: IntPoly, digits: int = 40):
    return [complex(r) for r in to_sympy(f).nroots(n=digits, maxsteps=200)]


def assert_disks_cover_reference(f: IntPoly):
    # Certified radii can be far below double precision, so the reference
    # roots (converted through complex) carry the larger error; inflate the
    # disks by a double-precision allowance scaled to the root size.
    rs = complex_roots(f)
    assert len(rs.roots) == f.degree
    refs, found = reference_roots(f), disks(rs)
    with work(rs):
        for ref in refs:
            slack = 1e-10 * (1 + abs(ref))
            inside = [
                centre
                for centre, radius in found
                if abs(centre - mpmath.mpc(ref.real, ref.imag)) <= radius + slack
            ]
            assert len(inside) == 1, f"reference root {ref} not near exactly one disk"


def vieta_residuals(rs: CertifiedRootSet, f: IntPoly) -> dict[str, mpmath.mpf]:
    """Residuals of the two symmetric-function identities, with their
    certified error allowances: a referee independent of the solver."""
    n, found = f.degree, disks(rs)
    with mpmath.workprec(max(rs.precision_bits * 2, 128)):
        total = mpmath.mpf(0)
        for centre, _ in found:
            total += centre
        sum_res = abs(total + mpmath.mpf(f.coeff(n - 1)) / f.lead)
        sum_bound = sum((radius for _, radius in found), mpmath.mpf(0))
        prod = mpmath.mpc(1)
        prod_hi = mpmath.mpf(1)
        prod_lo = mpmath.mpf(1)
        for centre, radius in found:
            prod *= centre
            prod_hi *= abs(centre) + radius
            prod_lo *= abs(centre)
        target = mpmath.mpf((-1) ** n) * f.constant / f.lead
        prod_res = abs(prod - target)
        prod_bound = prod_hi - prod_lo
        slack = mpmath.mpf(2) ** (-rs.precision_bits // 2)
    return {
        "sum_residual": sum_res,
        "sum_allowance": sum_bound + slack,
        "product_residual": prod_res,
        "product_allowance": prod_bound + slack,
    }


class TestComplexRoots:
    def test_golden_ratio(self):
        vals = sorted(float(centre.real) for centre, _ in disks(complex_roots(poly(-1, -1, 1))))
        assert vals[0] == pytest.approx((1 - 5**0.5) / 2, abs=1e-12)
        assert vals[1] == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)

    def test_disks_are_disjoint(self):
        rs = complex_roots(LEHMER)
        found = disks(rs)
        with work(rs):
            for i, (a, ra) in enumerate(found):
                for b, rb in found[i + 1 :]:
                    assert abs(a - b) > ra + rb

    def test_dominant_is_max_modulus(self):
        rs = complex_roots(poly(-5, -1, 0, 1))
        dom, found = dominant(rs)[0], disks(rs)
        with work(rs):
            assert all(abs(dom) >= abs(centre) - radius for centre, radius in found)
            assert dom.real > 1

    def test_vieta_residuals_within_allowance(self):
        rs = complex_roots(LEHMER)
        res = vieta_residuals(rs, LEHMER)
        with work(rs):
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
        vals = sorted(float(centre.real) for centre, _ in disks(complex_roots(f)))
        assert vals == [big - 1, big + 1]

    def test_rejects_constant_and_nonsquarefree_inputs(self):
        with pytest.raises(InvalidInputError):
            complex_roots(poly(3))
        with pytest.raises(InvalidInputError, match="squarefree"):
            complex_roots(poly(1, 2, 1))  # (x+1)^2

    def test_modulus_bounds_bracket(self):
        # |centre| -+ radius brackets the modulus of the root in each disk.
        f = poly(-3, -1, 1)
        rs = complex_roots(f)
        refs, found = sorted(reference_roots(f), key=lambda z: z.real), disks(rs)
        with work(rs):
            for ref, (centre, radius) in zip(refs, found):
                slack = 1e-12 * abs(ref)
                assert abs(centre) - radius - slack <= abs(ref) <= abs(centre) + radius + slack

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
        found = disks(rs)
        with work(rs):
            for v, _ in found:
                conj = mpmath.mpc(v.real, -v.imag)
                assert any(abs(conj - w) <= radius * 2 + 1e-30 for w, radius in found)


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
    scale = 64
    root2, radius = math.isqrt(2 << 2 * scale), 6 * (1 << scale) // 10
    roots = tuple(CertifiedRoot((2 << scale) + s * root2, 0, radius) for s in (-1, 1))
    coarse = CertifiedRootSet(roots, DEFAULT_PRECISION_BITS, scale)
    solve = roots_module._solve
    start = ((2, -4, 1), DEFAULT_PRECISION_BITS)
    monkeypatch.setattr(
        roots_module, "_solve",
        lambda coeffs, bits, floats: (
            coarse if (coeffs, bits) == start else solve(coeffs, bits, floats)
        ),
    )
    return poly(2, -4, 1)


class TestModulusProfile:
    # The (inside, on, outside) counts are the classifier's, from the same
    # unit-circle tags (roots.try_modulus_tags) its dominance decision reads.
    def test_escalates_past_straddling_disks(self, coarse_x2_minus_4x_plus_2):
        cls = classify_irreducible(coarse_x2_minus_4x_plus_2)
        assert cls.profile == (1, 0, 1)
        assert cls.precision_bits > DEFAULT_PRECISION_BITS

    def test_golden_ratio_profile(self):
        assert classify(poly(-1, -1, 1)).profile == (1, 0, 1)

    def test_lehmer_profile(self):
        assert classify(LEHMER).profile == (1, 8, 1)

    def test_all_outside(self):
        # x^3 - x - 5: the real root is about 1.90, and the complex pair has
        # squared modulus 5 / 1.90 > 1.
        assert classify(poly(-5, -1, 0, 1)).profile == (0, 0, 3)

    def test_cyclotomic_all_on(self):
        assert classify(poly(1, 1, 1, 1, 1)).profile == (0, 4, 0)

    def test_inconsistent_circle_accounting_is_a_violation(self, monkeypatch):
        # Both golden-ratio disks clear the circle; an exact count of 2
        # on-circle roots then contradicts them, which is a defect, not a
        # precision shortfall.
        monkeypatch.setattr(classification, "expected_on_circle", lambda f: 2)
        with pytest.raises(OracleViolationError, match="accounting"):
            classify_irreducible(poly(-1, -1, 1))


class TestRealAxisProfile:
    # The classifier's real-root census (roots.try_real_census), escalated on
    # its own through conftest.real_census.
    def test_escalates_past_disk_straddling_zero(self, coarse_x2_minus_4x_plus_2):
        census = real_census(coarse_x2_minus_4x_plus_2)
        assert (census.positive, census.negative, census.nonreal) == (2, 0, 0)
        assert census.rootset.precision_bits > DEFAULT_PRECISION_BITS

    def test_golden_ratio(self):
        prof = real_census(poly(-1, -1, 1))
        assert (prof.positive, prof.negative, prof.nonreal) == (1, 1, 0)
        assert prof.real_flags == (True, True)

    def test_strictly_complex(self):
        prof = real_census(poly(1, 0, 1))
        assert (prof.positive, prof.negative, prof.nonreal) == (0, 0, 2)

    def test_family_point_odd(self):
        prof = real_census(poly(-5, 0, -1, 1))
        assert (prof.positive, prof.negative) == (1, 0)
        assert prof.nonreal == 2

    def test_huge_real_pair(self):
        big = 10**9
        prof = real_census(poly(big * big - 1, -2 * big, 1))
        assert (prof.positive, prof.negative, prof.nonreal) == (2, 0, 0)

    @given(st.lists(st.integers(-15, 15), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_census_matches_sturm(self, body):
        f = squarefree_part(IntPoly(tuple(body) + (1,)))
        if f.degree < 1 or f.constant == 0:
            return
        prof = real_census(f)
        assert (prof.positive, prof.negative) == count_real_roots(f)
        assert prof.positive + prof.negative + prof.nonreal == f.degree


class TestSingleEscalationLoop:
    def test_one_cap_per_decision(self, monkeypatch):
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
            real_census(poly(-1, -1, 1))

    def test_isolation_escalates_from_the_requested_precision(
        self, monkeypatch
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
    def test_real_warm_start_reaches_nonreal_roots_once_turned(self, monkeypatch, refined):
        # Real starts stay real under Aberth for a real polynomial, so they
        # would never reach the nonreal roots of x^2 + x + 1; turned off the
        # axis, one refinement at the first rung certifies them.
        f = poly(1, 1, 1)
        monkeypatch.setattr(roots_module, "_float_aberth", lambda coeffs: [0.5, -0.25])
        assert complex_roots(f).precision_bits == DEFAULT_PRECISION_BITS
        assert refined == [DEFAULT_PRECISION_BITS]
        assert_disks_cover_reference(f)

    def test_close_real_pair_splits_from_the_turned_float_pair(self, refined):
        # The float roots of (x + 9007199254740993)(x + 9007199255964673) are
        # a conjugate pair, which refinement would keep; turned, the pair
        # splits, and one refinement certifies the two real roots.
        f = poly(9007199254740993, 1) * poly(9007199255964673, 1)
        z, w = roots_module._float_aberth(f.coeffs)
        assert z.imag and z == w.conjugate()
        rs = complex_roots(f)
        assert (rs.precision_bits, refined) == (DEFAULT_PRECISION_BITS, [DEFAULT_PRECISION_BITS])
        for root, d in zip((-9007199255964673, -9007199254740993), rs.roots):
            assert (d.x - (root << rs.scale)) ** 2 + d.y**2 <= d.r**2

    def test_refinement_waits_for_a_second_calm_sweep(self, refined):
        # The roots 363780848355639910180 and ...182 are 2^-67 of their size
        # apart. While the turned float pair splits, one sweep can move both
        # approximations by less than the tolerance; stopping there left the
        # pair unsplit, and only the 128-bit rung certified it.
        f = poly(-363780848355639910180, 1) * poly(-363780848355639910182, 1)
        rs = complex_roots(f)
        assert (rs.precision_bits, refined) == (DEFAULT_PRECISION_BITS, [DEFAULT_PRECISION_BITS])
        for root, d in zip((363780848355639910180, 363780848355639910182), rs.roots):
            assert (d.x - (root << rs.scale)) ** 2 + d.y**2 <= d.r**2

    def test_warm_start_skipped_for_huge_coefficients(self):
        f = poly(-(10**300), -1, 1)
        assert roots_module._float_aberth(f.coeffs) is None
        # The roots sit near +-10^150 with moduli 1 apart: ordering them needs
        # about 500 bits, reached by three doublings of the starting 64.
        c = classify(f)
        assert (c.headline, c.dominant, c.precision_bits) == (STRICTLY_PERRON, "1.0e+150", 512)

    def test_refinement_without_warm_start_begins_at_the_newton_polygon(self, refined):
        # No float warm start above _FLOAT_LIMIT: the one refinement per rung
        # starts from the Newton polygon, where the sweeps converge, and 128
        # bits order the roots near -+10^150.
        f = poly(-(10**300) - 7, -3, 1)
        assert complex_roots(f).precision_bits == DEFAULT_PRECISION_BITS
        assert refined == [DEFAULT_PRECISION_BITS]
        assert classify(f).precision_bits == 128

    def test_collision_is_nudged_apart(self, monkeypatch):
        # Two equal starts for x^2 - 3x + 2: in double precision and in fixed
        # point the first sweep nudges one off the other, and the sweeps then
        # find 1 and 2.
        starts = []
        monkeypatch.setattr(
            roots_module, "_newton_starts", lambda coeffs: starts.append(coeffs) or [0.5 + 0j] * 2
        )
        zs = roots_module._float_aberth((2, -3, 1))
        assert starts == [(2, -3, 1)]
        assert sorted(z.real for z in zs) == pytest.approx([1, 2])
        refined = roots_module._refine((2, -3, 1), [0.5, 0.5], 64)
        assert sorted(math.ldexp(m, e) for m, e in refined[::2]) == pytest.approx([1, 2])

    def test_newton_polygon_puts_starts_on_two_circles(self):
        # x^12 - 10^6 x^11 - 7: the hull of (i, log2 |c_i|) has an edge of
        # width 1 at radius 10^6 and one of width 11 at radius (7/10^6)^(1/11),
        # where the eleven starts are evenly spaced (so they sum to 0).
        starts = roots_module._newton_starts(FamilyParams(12, 10**6, 7).poly.coeffs)
        by_size = sorted(starts, key=abs)
        assert abs(by_size[-1]) == pytest.approx(10**6, rel=1e-12)
        small = by_size[:-1]
        assert [abs(z) for z in small] == pytest.approx([(7 / 10**6) ** (1 / 11)] * 11, rel=1e-12)
        assert abs(sum(small)) < 1e-12

    def test_zero_constant_term_starts_at_zero(self):
        # The hull below the lowest nonzero coefficient is an edge of radius 0.
        starts = roots_module._newton_starts((0, -2, 0, 1))
        assert starts[0] == 0 and [abs(z) for z in starts[1:]] == pytest.approx([2**0.5] * 2)
        assert_disks_cover_reference(poly(0, -2, 0, 1))

    def test_float_sweeps_ceiling(self, monkeypatch):
        # From the Newton polygon (16, 1, 3) settles in 5 sweeps (from the
        # Fujiwara circle it took 9): capped at 6 sweeps, the float rung
        # returns exactly what it returns uncapped.
        coeffs = FamilyParams(16, 1, 3).poly.coeffs
        uncapped = roots_module._float_aberth(coeffs)
        monkeypatch.setattr(roots_module, "_FLOAT_SWEEPS", 6)
        assert uncapped is not None and roots_module._float_aberth(coeffs) == uncapped


def dense_gaussian_horner(coeffs: list[int], x: int, y: int) -> tuple[int, int]:
    """coeffs[0] + coeffs[1] z + ... at z = x + iy, one Horner step per
    coefficient, zeros included."""
    re, im = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


class TestExactEvaluation:
    def test_sparse_value_matches_dense_horner(self):
        # _scaled_value multiplies by (x + iy)^g across a run of g zero
        # coefficients; the Gaussian integer must be dense Horner's, on
        # inputs with long and trailing zero runs, y = 0 and negative parts.
        family = list(FamilyParams(24, 2, 13).poly.coeffs)  # one run of 22 zeros
        for x, y in [(3, 2), (-5, 0), (0, -1)]:
            assert roots_module._scaled_value(family, x, y) == dense_gaussian_horner(family, x, y)
        rng = random.Random(35)
        for _ in range(400):
            n = rng.randint(1, 40)
            coeffs = [rng.choice((0, 0, 0, rng.randint(-(10**6), 10**6))) for _ in range(n)]
            coeffs.append(rng.choice((1, -1, rng.randint(-(10**6), 10**6) or 1)))
            k = rng.randint(0, 80)
            shifted = [c << (k * (n - j)) for j, c in enumerate(coeffs)]
            x = rng.randint(-(1 << (k + 12)), 1 << (k + 12))
            y = rng.choice((0, rng.randint(-(1 << (k + 12)), 1 << (k + 12))))
            assert roots_module._scaled_value(shifted, x, y) == dense_gaussian_horner(shifted, x, y)


class TestFloatRung:
    @pytest.mark.parametrize("n", [2, 8, 16, 24, 32, 40])
    def test_float_disks_hold_the_roots(self, monkeypatch, n):
        # The default precision is answered by the exact disks around the
        # double-precision approximations; each must hold the 200-bit root
        # Newton reaches from its centre (the disks being disjoint, these
        # are n distinct roots, so all of them).
        def refine(*args):
            raise AssertionError("the float rung should settle a family member")

        monkeypatch.setattr(roots_module, "_refine", refine)
        for a, p in [(1, 5), (2, 13), (3, 101)]:
            f = FamilyParams(n, a, p).poly
            rs = complex_roots(f)
            assert rs.precision_bits == DEFAULT_PRECISION_BITS and len(rs.roots) == n
            desc, found = list(reversed(f.coeffs)), disks(rs)
            with mpmath.workprec(200):
                for centre, radius in found:
                    ref = mpmath.findroot(
                        lambda z: mpmath.polyval(desc, z), centre, solver="newton",
                        df=lambda z: mpmath.polyval(desc, z, derivative=True)[1],
                    )
                    assert abs(ref - centre) <= radius, (n, a, p, centre)

    def test_wide_float_set_is_refined(self, monkeypatch, refined):
        # (x - 10^9)^2 - 1 from the float approximations 10^9 -+ 1.25: their
        # disks (radius about 0.45) are disjoint, but 2^-31 of their centres
        # wide, short of the 64 bits they would be labelled with. The set is
        # refused, and one refinement from those approximations answers.
        big = 10**9
        f = poly(big * big - 1, -2 * big, 1)
        approx = [big - 1.25 + 0j, big + 1.25 + 0j]
        parts = [roots_module._man_exp(v) for z in approx for v in (z.real, z.imag)]
        wide = roots_module._certify(f.coeffs, parts, DEFAULT_PRECISION_BITS)
        assert wide is not None and all((d.r << 40) ** 2 > d.norm for d in wide.roots)
        monkeypatch.setattr(roots_module, "_float_aberth", lambda coeffs: list(approx))
        rs = complex_roots(f)
        assert refined == [DEFAULT_PRECISION_BITS] and rs.precision_bits == DEFAULT_PRECISION_BITS
        assert all((d.r << 40) ** 2 <= d.norm for d in rs.roots)
        assert sorted(float(centre.real) for centre, _ in disks(rs)) == [big - 1, big + 1]

    def test_equal_centres_do_not_certify(self):
        # Parts (m, e) of the centres 1.5, 1.5 and then 1, 2, imaginary parts 0.
        equal, apart = [(3, -1), (0, 0)] * 2, [(1, 0), (0, 0), (2, 0), (0, 0)]
        assert roots_module._certify((2, -3, 1), equal, DEFAULT_PRECISION_BITS) is None
        assert roots_module._certify((2, -3, 1), apart, DEFAULT_PRECISION_BITS) is not None

    def test_centres_and_radii_are_stored_exactly(self):
        # A centre needing more than 53 bits is kept as the integers it was
        # proven for: 3 + 2^-150 on the grid, with a radius of at least
        # |f(3 + 2^-150)| = 2^-150.
        rs = roots_module._certify((-3, 1), [((3 << 150) + 1, -150), (0, 0)], 200)
        (root,) = rs.roots
        assert Fraction(root.x, 1 << rs.scale) == 3 + Fraction(1, 1 << 150) and root.y == 0
        assert Fraction(root.r, 1 << rs.scale) >= Fraction(1, 1 << 150)


def gap_sign(a: int, b: int, c: int) -> int | None:
    """The sign of sqrt(a) - sqrt(b) - c, from square roots bracketed to
    2^-64 (exact for squares); None when the bracket straddles 0."""
    t = 64
    ra, rb = math.isqrt(a << 2 * t), math.isqrt(b << 2 * t)
    if ra * ra == a << 2 * t and rb * rb == b << 2 * t:
        gap = Fraction(ra - rb, 1 << t) - c
        return (gap > 0) - (gap < 0)
    if Fraction(ra - rb - 1, 1 << t) > c:
        return 1
    if Fraction(ra + 1 - rb, 1 << t) < c:
        return -1
    return None


def tag(s: int, x: int, y: int, r: int) -> str | None:
    """The unit-circle tag of the disk (x + iy, r) / 2^s; None when it meets
    the circle (x^2 - 4x + 2 has no root on it, so no disk may)."""
    rs = CertifiedRootSet((CertifiedRoot(x, y, r),), DEFAULT_PRECISION_BITS, s)
    tags = try_modulus_tags(rs, expected_on_circle(poly(2, -4, 1)))
    return None if tags is None else tags[0]


def census_referee(s: int, found) -> tuple | None:
    """try_real_census in exact rationals: the disks (x + iy, r) / 2^s."""
    one = 1 << s
    found = [(Fraction(x, one), Fraction(y, one), Fraction(r, one)) for x, y, r in found]
    flags, pos, neg = [], 0, 0
    for i, (x, y, r) in enumerate(found):
        if abs(y) > r:
            flags.append(False)
            continue
        mirror_meets = [(x - u) ** 2 + (y + v) ** 2 <= (r + w) ** 2 for u, v, w in found]
        if any(meets for j, meets in enumerate(mirror_meets) if j != i):
            return None
        flags.append(True)
        if x > r:
            pos += 1
        elif x < -r:
            neg += 1
        else:
            return None
    return tuple(flags), pos, neg


scales = st.integers(0, 80)


def disk_on(s: int):
    return st.tuples(
        st.integers(-(4 << s), 4 << s), st.integers(-(2 << s), 2 << s), st.integers(0, 2 << s)
    )


class TestIntegerDecisions:
    """The root decisions are integer inequalities on one grid; each agrees
    with exact rational arithmetic and keeps its strict or non-strict form
    at the boundary."""

    @given(st.integers(0, 2**60), st.integers(0, 2**60), st.integers(-1, 1),
           st.integers(-3, 3), st.integers(-3, 3))
    @example(10, 8, 0, 0, 0)  # sqrt(100) = sqrt(64) + 2: intervals that touch
    @settings(max_examples=200, deadline=None)
    def test_sqrt_exceeds_matches_referee(self, p, q, e, da, db):
        # Near the boundary: sqrt(p^2 + da) against sqrt(q^2 + db) + c with
        # c = p - q - e, or exactly on it when e = da = db = 0.
        c = p - q - e
        a, b = p * p + da, q * q + db
        assume(min(a, b, c) >= 0)
        sign = gap_sign(a, b, c)
        assume(sign is not None)
        assert sqrt_exceeds(a, b, c, True) == (sign > 0)
        assert sqrt_exceeds(a, b, c, False) == (sign >= 0)

    @given(scales.flatmap(lambda s: st.tuples(st.just(s), disk_on(s))))
    @example((3, (24, 32, 32)))  # |z| = 5, r = 4: tangent from outside
    @example((3, (24, 32, 31)))
    @example((3, (3, 4, 3)))  # |z| = 5/8, r = 3/8: tangent from inside
    @example((3, (3, 4, 2)))
    @settings(max_examples=200, deadline=None)
    def test_unit_circle_tags_match_referee(self, case):
        s, (x, y, r) = case
        modulus2, rad = Fraction(x * x + y * y, 1 << 2 * s), Fraction(r, 1 << s)
        want = None
        if modulus2 > (1 + rad) ** 2:
            want = "out"
        elif rad < 1 and modulus2 < (1 - rad) ** 2:
            want = "in"
        assert tag(s, x, y, r) == want

    @given(scales.flatmap(lambda s: st.tuples(st.just(s), st.lists(disk_on(s), max_size=3))))
    @example((0, [(5, 1, 1), (5, -4, 2)]))  # the mirror of the first disk touches the second
    @example((0, [(5, 1, 1), (5, -5, 2)]))
    @example((2, [(4, 0, 4), (-12, 2, 1)]))  # a real disk with its edge at 0
    @settings(max_examples=200, deadline=None)
    def test_census_matches_referee(self, case):
        s, found = case
        rs = CertifiedRootSet(tuple(CertifiedRoot(*d) for d in found), DEFAULT_PRECISION_BITS, s)
        assert try_real_census(rs) == census_referee(s, found)

    @pytest.mark.parametrize("s", [0, 7, 64])
    def test_boundaries_decide_as_the_inequalities_say(self, s):
        one = 1 << s
        assert tag(s, 3 * one, 4 * one, 4 * one) is None  # |z| - r = 1 is not "out"
        assert tag(s, 3 * one, 4 * one, 4 * one - 1) == "out"
        assert tag(s + 3, 3 * one, 4 * one, 3 * one) is None  # |z| + r = 1 is not "in"
        assert tag(s + 3, 3 * one, 4 * one, 3 * one - 1) == "in"

        def census(*found):
            rs = CertifiedRootSet(tuple(CertifiedRoot(*d) for d in found), 64, s)
            return try_real_census(rs)

        # A mirrored disk that touches another disk meets it.
        assert census((5 * one, one, one), (5 * one, -4 * one, 2 * one)) is None
        assert census((5 * one, one, one), (5 * one, -4 * one - 1, 2 * one)) == (
            (True, False), 1, 0
        )
        # A real disk reaching 0 has no sign; one short of it has.
        assert census((one, 0, one)) is None and census((-one, 0, one)) is None
        assert census((one, 0, one - 1)) == ((True,), 1, 0)
        assert census((-one, 0, one - 1)) == ((True,), 0, 1)

    @pytest.mark.parametrize("s", [0, 7, 64])
    def test_dominance_rules_at_touching_intervals(self, s):
        # lambda's disk 10 -+ 1 against a nonreal disk of modulus 8 -+ 1: the
        # intervals touch, so lambda is not strictly dominant (Perron's rule
        # is strict), yet no other disk reaches 11 either: undecided. Against
        # modulus 12 -+ 1 they touch at 11, which NoPerronRoot's >= accepts.
        one, f = 1 << s, poly(-3, -1, 1)
        lam = CertifiedRoot(10 * one, 0, one)

        def decide(other: CertifiedRoot):
            rs = CertifiedRootSet((lam, other), 64, s)
            return _decide(f, rs, ("out", "out"), (0, 0, 2), (True, False))

        assert decide(CertifiedRoot(0, 8 * one, one)) is None
        assert decide(CertifiedRoot(0, 12 * one, one)).kind == NO_PERRON_ROOT
        assert decide(CertifiedRoot(0, 12 * one - 1, one)) is None
