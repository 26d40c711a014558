"""Taxonomy verdicts: Pisot / Salem / anti-Pisot / strictly-Perron."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly
from perronpoly.classification import (
    ANTI_PISOT,
    NO_PERRON_ROOT,
    NOT_IRREDUCIBLE,
    PERRON,
    PISOT,
    SALEM,
    STRICTLY_PERRON,
    classify,
)
from perronpoly.errors import InvalidInputError
from perronpoly.irreducibility import is_irreducible
from perronpoly.polynomial import IntPoly
from perronpoly.roots import complex_roots

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
        # once drove the dominance loop to precision exhaustion; the zero
        # outside-count certificate settles it exactly.
        assert classify(poly(1, 1, 1)).kind == NO_PERRON_ROOT
        assert classify(poly(1, 1, 1, 1, 1)).kind == NO_PERRON_ROOT
        assert classify(poly(1, 0, 0, 1, 0, 0, 1)).kind == NO_PERRON_ROOT


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
    def test_dominance_decided_after_escalation(self):
        # x^2 - x - 2^80: roots near +-2^40 whose moduli differ by exactly 1.
        # The 16-bit disks (radius about 2) are disjoint but cannot order the
        # moduli, so classify must redo the roots at a higher precision.
        f = poly(-(2**80), -1, 1)
        assert complex_roots(f, 16).precision_bits == 16
        c = classify(f, precision_bits=16)
        assert c.headline == STRICTLY_PERRON
        assert c.precision_bits > 16


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
    def test_stable_under_extra_precision(self, body):
        f = IntPoly(tuple(body) + (1,))
        if f.constant == 0:
            return
        base = classify(f)
        fine = classify(f, precision_bits=128)
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
