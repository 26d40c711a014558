"""Taxonomy verdicts: Pisot / Salem / anti-Pisot / strictly-Perron."""
from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly
from perronpoly import classification, roots
from perronpoly.classification import (
    ANTI_PISOT,
    NO_PERRON_ROOT,
    NOT_IRREDUCIBLE,
    PERRON,
    PISOT,
    SALEM,
    STRICTLY_PERRON,
    classify,
    classify_irreducible,
)
from perronpoly.errors import InvalidInputError, OracleViolationError
from perronpoly.irreducibility import is_irreducible
from perronpoly.polynomial import IntPoly
from perronpoly.roots import CertifiedRoot, CertifiedRootSet, complex_roots

LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


class TestCorpus:
    def test_golden_ratio_is_pisot(self):
        cls = classify(poly(-1, -1, 1))
        assert cls.kind == PERRON
        assert cls.subclass == PISOT
        assert cls.profile == (1, 0, 1)
        assert float(cls.dominant) == pytest.approx((1 + 5**0.5) / 2, abs=1e-15)

    def test_plastic_number_is_pisot(self):
        cls = classify(poly(-1, -1, 0, 1))  # x^3 - x - 1
        assert cls.subclass == PISOT
        assert float(cls.dominant) == pytest.approx(1.3247179572447460, abs=1e-12)

    def test_lehmer_is_salem(self):
        cls = classify(LEHMER)
        assert cls.kind == PERRON
        assert cls.subclass == SALEM
        assert cls.profile == (1, 8, 1)
        assert 1.17627 < float(cls.dominant) < 1.17629

    def test_smallest_quartic_salem(self):
        cls = classify(poly(1, -1, -1, -1, 1))
        assert cls.subclass == SALEM
        assert cls.profile == (1, 2, 1)
        assert float(cls.dominant) == pytest.approx(1.7220838057390435, abs=1e-12)

    def test_strictly_perron_quadratics(self):
        for f in [poly(-11, -1, 1), poly(-3, -1, 1)]:
            cls = classify(f)
            assert cls.kind == PERRON
            assert cls.subclass == STRICTLY_PERRON
            assert cls.profile == (0, 0, 2)

    def test_spec_cubic_strictly_perron(self):
        cls = classify(poly(-5, 0, -1, 1))  # x^3 - x^2 - 5
        assert cls.subclass == STRICTLY_PERRON
        assert cls.profile == (0, 0, 3)
        assert float(cls.dominant) == pytest.approx(2.1163, abs=5e-5)

    def test_family_pisot_members(self):
        # Small-p members below the strict regime can drop inside the circle.
        assert classify(poly(-2, 0, -2, 1)).subclass == PISOT  # x^3 - 2x^2 - 2
        assert classify(poly(-2, 0, 0, -3, 1)).subclass == PISOT  # x^4 - 3x^3 - 2

    def test_family_anti_pisot_member(self):
        cls = classify(poly(-3, 0, 0, -3, 1))  # x^4 - 3x^3 - 3
        assert cls.subclass == ANTI_PISOT
        assert cls.profile[0] == 1
        assert cls.profile[2] >= 2

    def test_anti_pisot_quartic(self):
        cls = classify(poly(1, -4, 0, -2, 1))
        if cls.kind == PERRON:
            assert cls.profile[0] >= 0  # smoke: shape holds whatever the subclass


class TestStructuralShortcuts:
    def test_binomials_have_no_perron_root(self):
        for f in [poly(-2, 0, 1), poly(1, 0, 1), poly(-5, 0, 0, 1), poly(1, 0, 0, 0, 1)]:
            cls = classify(f)
            assert cls.kind == NO_PERRON_ROOT, f

    def test_even_polynomial_tie(self):
        cls = classify(poly(-1, 0, -1, 0, 1))  # x^4 - x^2 - 1
        assert cls.kind == NO_PERRON_ROOT

    def test_cyclotomic_on_circle(self):
        # The degree-4 case has two tied on-circle conjugate pairs, which
        # once drove the dominance loop to precision exhaustion; with no real
        # root at all, no root can be a strictly dominant real root.
        assert classify(poly(1, 1, 1)).kind == NO_PERRON_ROOT
        assert classify(poly(1, 1, 1, 1, 1)).kind == NO_PERRON_ROOT
        assert classify(poly(1, 0, 0, 1, 0, 0, 1)).kind == NO_PERRON_ROOT


class TestNoPerronRule:
    # Quartics whose four roots form two conjugate pairs of equal modulus
    # (x^4 - 2x^3 + 2x^2 - 4x + 4 = x^4 f(2/x) / 4 has all four on |z| = sqrt 2).
    # No root is real, so no real root can dominate; disks never separate
    # tied moduli, and these once exhausted precision.
    @pytest.mark.parametrize(
        "coeffs",
        [
            (4, -6, 5, -3, 1),
            (4, -4, 2, -2, 1),
            (4, -4, 3, -2, 1),
            (4, -2, -1, -1, 1),
            (4, -2, 0, -1, 1),
            (4, -2, 1, -1, 1),
            (4, -2, 3, -1, 1),
            (4, 2, -1, 1, 1),
            (4, 2, 0, 1, 1),
            (4, 2, 1, 1, 1),
            (4, 2, 3, 1, 1),
            (4, 4, 2, 2, 1),
            (4, 4, 3, 2, 1),
            (4, 6, 5, 3, 1),
        ],
    )
    def test_tied_pairs_without_real_root(self, coeffs):
        cls = classify(IntPoly(coeffs))
        assert (cls.kind, cls.profile, cls.precision_bits) == (NO_PERRON_ROOT, (0, 0, 4), 64)

    @pytest.mark.parametrize(
        "coeffs, profile",
        [
            ((1, 3, 1), (1, 0, 1)),  # the negative root dominates
            ((3, 1, 1), (0, 0, 2)),  # no real root
            ((3, 1, 0, 1), (0, 0, 3)),  # a conjugate pair tops a negative root
            ((-1, 1, 1, 1), (1, 0, 2)),  # a conjugate pair tops a positive root
        ],
    )
    def test_no_real_root_dominates(self, coeffs, profile):
        cls = classify(IntPoly(coeffs))
        assert (cls.kind, cls.profile) == (NO_PERRON_ROOT, profile)


class TestOracleFaults:
    """Each consistency check in the dominance decision fires on doctored data."""

    def test_nonreal_dominant_root(self, monkeypatch):
        monkeypatch.setattr(
            classification,
            "try_real_census",
            lambda rs: ((False,) * len(rs.roots), 0, 0, len(rs.roots)),
        )
        with pytest.raises(OracleViolationError, match="nonreal root certified as strictly dominant"):
            classify_irreducible(poly(-1, -1, 1))

    def test_salem_mate_not_real(self, monkeypatch):
        census = classification.try_real_census

        def inside_roots_nonreal(rs):
            flags, *counts = census(rs)
            one = 1 << 2 * rs.scale
            flags = tuple(real and d.norm > one for real, d in zip(flags, rs.roots))
            return (flags, *counts)

        monkeypatch.setattr(classification, "try_real_census", inside_roots_nonreal)
        with pytest.raises(OracleViolationError, match="reciprocal mate of a Salem candidate"):
            classify_irreducible(poly(1, -1, -1, -1, 1))

    def test_salem_product_off_one(self, monkeypatch):
        solve = roots._solve_cached

        def inside_roots_nudged(coeffs, bits):
            # Centres of modulus below 0.9 move by 2^-30 of themselves.
            rs = solve(coeffs, bits)
            moved = tuple(
                CertifiedRoot(d.x + (d.x >> 30), d.y + (d.y >> 30), d.r)
                if 100 * d.norm < 81 << 2 * rs.scale else d
                for d in rs.roots
            )
            return CertifiedRootSet(moved, bits, rs.scale)

        monkeypatch.setattr(roots, "_solve_cached", inside_roots_nudged)
        with pytest.raises(OracleViolationError, match="deviates from 1 beyond certified bounds"):
            classify_irreducible(poly(1, -1, -1, -1, 1))

    @pytest.mark.parametrize("shift, shrink", [(1e-9, 1), (0, 2**-20)])
    def test_polished_lambda_outside_every_disk(self, monkeypatch, shift, shrink):
        # lambda's float disk moves by 1e-9 * lambda with its radius kept, or
        # its radius shrinks 2^20-fold (a certifier bound too small): the
        # polish finds the true lambda, which no certified disk holds.
        solve = roots._solve_cached

        def lambda_disk_corrupted(coeffs, bits):
            rs = solve(coeffs, bits)
            assert bits == roots.DEFAULT_PRECISION_BITS
            moved = tuple(
                CertifiedRoot(
                    d.x + int(d.x * Fraction(shift)), d.y, int(d.r * Fraction(shrink))
                )
                if d.x > 3 << rs.scale else d
                for d in rs.roots
            )
            return CertifiedRootSet(moved, bits, rs.scale)

        monkeypatch.setattr(roots, "_solve_cached", lambda_disk_corrupted)
        with pytest.raises(OracleViolationError, match="lies in no certified root disk"):
            classify_irreducible(poly(-5, 0, 0, -3, 1))


class TestEdges:
    def test_reducible(self):
        cls = classify(poly(-1, 0, 1))
        assert cls.kind == NOT_IRREDUCIBLE
        assert cls.subclass is None and cls.dominant is None

    def test_family_reducible_point(self):
        assert classify(poly(-2, -1, 1)).kind == NOT_IRREDUCIBLE  # (x-2)(x+1)

    def test_degree_one(self):
        three = classify(poly(-3, 1))
        assert three.kind == PERRON and three.subclass == PISOT
        assert three.dominant == "3"
        assert classify(poly(-1, 1)).kind == NO_PERRON_ROOT
        assert classify(poly(5, 1)).kind == NO_PERRON_ROOT

    def test_negative_lead_normalized(self):
        up = classify(poly(-1, -1, 1))
        down = classify(IntPoly((1, 1, -1)))
        assert (down.kind, down.subclass) == (up.kind, up.subclass)

    def test_rejects_other_leads(self):
        with pytest.raises(InvalidInputError):
            classify(poly(1, 1, 2))
        with pytest.raises(InvalidInputError):
            classify(poly(7))

    def test_rejection_messages_name_classify(self):
        with pytest.raises(InvalidInputError, match="^classify expects a monic polynomial$"):
            classify(poly(1, 1, 2))
        with pytest.raises(InvalidInputError, match="^classify needs degree >= 1$"):
            classify(IntPoly(()))

    def test_headline(self):
        assert classify(poly(-1, -1, 1)).headline == "Pisot"
        assert classify(poly(-1, 0, 1)).headline == "NotIrreducible"
        assert classify(poly(-2, 0, 1)).headline == "NoPerronRoot"

    def test_json_shape(self):
        d = classify(poly(-5, 0, -1, 1)).to_json_dict()
        assert set(d) == {"poly", "class", "subclass", "lambda", "profile", "precision_bits"}
        assert d["class"] == PERRON
        assert d["subclass"] == STRICTLY_PERRON
        assert set(d["profile"]) == {"inside", "on", "outside"}
        assert d["profile"]["outside"] == 3


class TestEscalation:
    def test_dominance_decided_after_escalation(self, start_at_16_bits):
        # x^2 - x - 2^80: roots near +-2^40 whose moduli differ by exactly 1.
        # The 16-bit disks (radius about 1) are disjoint but cannot order the
        # moduli, so classify must redo the roots at a higher precision.
        f = poly(-(2**80), -1, 1)
        assert complex_roots(f).precision_bits == 16
        c = classify(f)
        assert c.headline == STRICTLY_PERRON
        assert c.precision_bits > 16

    def test_lambda_has_only_certified_digits(self, monkeypatch, start_at_16_bits):
        # At 16 bits the disk around lambda = 3.15865806723635933... has a
        # radius near 1e-11, which certifies 11 significant digits; 64-bit
        # disks certify more than the 20 digits printed.
        f = poly(-5, 0, 0, -3, 1)
        coarse = classify(f)
        assert (coarse.precision_bits, coarse.dominant) == (16, "3.1586580672")
        monkeypatch.setattr(roots, "DEFAULT_PRECISION_BITS", 64)
        assert classify(f).dominant == "3.1586580672363593388"


class TestProperties:
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_profile_accounting(self, body):
        f = IntPoly(tuple(body) + (1,))
        if f.constant == 0:
            return
        cls = classify(f)
        if cls.kind == NOT_IRREDUCIBLE:
            assert not is_irreducible(f)
            return
        assert is_irreducible(f)
        assert cls.profile is not None
        assert sum(cls.profile) == f.degree
        if cls.kind == PERRON:
            lam = float(cls.dominant)
            assert lam > 1
            assert cls.profile[2] >= 1
            # f really vanishes at the reported dominant root, to float slack.
            assert abs(f(lam)) < 1e-6 * max(abs(c) for c in f.coeffs) * (1 + lam) ** f.degree
        else:
            assert cls.dominant is None

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    @example([4, -4, 2, -2])  # two conjugate pairs tied at modulus sqrt 2
    def test_stable_under_extra_precision(self, body):
        # The default answer (mostly from the float rung) against one whose
        # roots are all refined by mpmath from the circle points, at 128 bits.
        f = IntPoly(tuple(body) + (1,))
        if f.constant == 0:
            return
        base = classify(f)
        roots._solve_cached.cache_clear()
        try:
            with (
                mock.patch.object(roots, "DEFAULT_PRECISION_BITS", 128),
                mock.patch.object(roots, "_float_aberth", lambda coeffs: None),
            ):
                fine = classify(f)
        finally:
            roots._solve_cached.cache_clear()
        assert fine.precision_bits is None or fine.precision_bits >= 128
        assert (base.kind, base.subclass, base.profile) == (
            fine.kind,
            fine.subclass,
            fine.profile,
        )

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_subclass_membership_rules(self, body):
        f = IntPoly(tuple(body) + (1,))
        if f.constant == 0:
            return
        cls = classify(f)
        if cls.kind != PERRON:
            return
        inside, on, outside = cls.profile
        if cls.subclass == PISOT:
            assert outside == 1 and on == 0
        elif cls.subclass == SALEM:
            assert outside == 1 and inside == 1 and on == f.degree - 2
        elif cls.subclass == ANTI_PISOT:
            assert inside == 1 and outside >= 2
        else:
            assert cls.subclass == STRICTLY_PERRON
