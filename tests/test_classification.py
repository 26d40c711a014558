"""Taxonomy verdicts: Pisot / Salem / anti-Pisot / strictly-Perron."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
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
from perronpoly.irreducibility import irreducibility_witness, is_irreducible
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
        solve = roots._solve

        def inside_roots_nudged(coeffs, bits, floats):
            # Centres of modulus below 0.9 move by 2^-30 of themselves.
            rs = solve(coeffs, bits, floats)
            moved = tuple(
                CertifiedRoot(d.x + (d.x >> 30), d.y + (d.y >> 30), d.r)
                if 100 * d.norm < 81 << 2 * rs.scale else d
                for d in rs.roots
            )
            return CertifiedRootSet(moved, bits, rs.scale)

        monkeypatch.setattr(roots, "_solve", inside_roots_nudged)
        with pytest.raises(OracleViolationError, match="deviates from 1 beyond certified bounds"):
            classify_irreducible(poly(1, -1, -1, -1, 1))

    @pytest.mark.parametrize("shift, shrink", [(1e-9, 1), (0, 2**-20)])
    def test_polished_lambda_outside_every_disk(self, monkeypatch, shift, shrink):
        # lambda's float disk moves by 1e-9 * lambda with its radius kept, or
        # its radius shrinks 2^20-fold (a certifier bound too small): the
        # polish finds the true lambda, which no certified disk holds.
        solve = roots._solve

        def lambda_disk_corrupted(coeffs, bits, floats):
            rs = solve(coeffs, bits, floats)
            assert bits == roots.DEFAULT_PRECISION_BITS
            moved = tuple(
                CertifiedRoot(
                    d.x + int(d.x * Fraction(shift)), d.y, int(d.r * Fraction(shrink))
                )
                if d.x > 3 << rs.scale else d
                for d in rs.roots
            )
            return CertifiedRootSet(moved, bits, rs.scale)

        monkeypatch.setattr(roots, "_solve", lambda_disk_corrupted)
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

    def test_facts_about_f_computed_once_per_decision(self, monkeypatch, start_at_16_bits):
        # x^2 - x - 2^80 climbs past 16 bits (above), yet one decision runs
        # the float warm start once and reads f's exact facts once; a second
        # decision on the same f solves it afresh.
        f, calls = poly(-(2**80), -1, 1), []

        def spy(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args: calls.append(name) or fn(*args)
            )

        spy(roots, "_float_aberth")
        spy(roots, "_solve")
        spy(classification, "expected_on_circle")
        spy(classification, "descartes_counts")
        for _ in range(2):
            calls.clear()
            assert classify_irreducible(f).precision_bits > 16
            assert calls.count("_solve") >= 2
            for name in ("_float_aberth", "expected_on_circle", "descartes_counts"):
                assert calls.count(name) == 1, name

    def test_a_failed_polish_escalates(self, monkeypatch):
        # A polish whose interval leaves lambda's disk asks for the next rung,
        # and the decision there prints the same digits.
        real = classification.polish_real_root

        def fails_at_64_bits(f, rs, i):
            return None if rs.precision_bits == 64 else real(f, rs, i)

        monkeypatch.setattr(classification, "polish_real_root", fails_at_64_bits)
        c = classify(poly(-1, -1, 1))
        assert (c.precision_bits, c.dominant) == (128, "1.6180339887498948482")

    def test_the_witness_solves_no_roots(self, monkeypatch, start_at_16_bits):
        # No criterion decides x^3 - x - 1, so classify runs the factor oracle
        # on f before the dominance decision. The oracle works modulo primes
        # and solves no roots, so the float warm start and the 16-bit rung are
        # solved once, by the dominance decision.
        f, calls = poly(-1, -1, 0, 1), []
        for name in ("_float_aberth", "_solve"):
            fn = getattr(roots, name)
            monkeypatch.setattr(
                roots, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        assert irreducibility_witness(f).method == "factor-oracle"
        assert calls == []
        cls = classify(f)
        assert (cls.subclass, cls.precision_bits) == (PISOT, 16)
        assert calls == ["_float_aberth", "_solve"]


@st.composite
def centres(draw) -> tuple[int, int]:
    """(x, s) with 1 < x / 2^s < 2^3500 and x >= 2^69 > 10^20."""
    top = draw(st.integers(1, 3500))
    s = draw(st.integers(max(0, 70 - top), 400))
    return draw(st.integers((1 << (top + s - 1)) + 1, (1 << (top + s)) - 1)), s


class TestLambdaPrinter:
    @staticmethod
    def printed(x: int, s: int, d: int) -> str:
        # r = x // 10^d makes floor(log10(x / r)) = d for x >= 10^d.
        return classification._decimal(CertifiedRoot(x, 0, x // 10**d), s)

    @given(centres(), st.integers(1, 20))
    @settings(max_examples=300, deadline=None)
    @example((15 * 10**18 << 8, 8), 20)
    @example((15 * 10**19, 0), 20)
    @example((2 * 10**20 - 1, 1), 20)  # 99999999999999999999.5: every digit carries
    def test_matches_mpmath_nstr(self, centre, d):
        x, s = centre
        with mpmath.workprec(x.bit_length()):
            expected = mpmath.nstr(mpmath.mpf((x, -s)), d)
        assert self.printed(x, s, d) == expected

    def test_pinned_forms(self):
        assert self.printed(15 * 10**18 << 8, 8, 20) == "15000000000000000000.0"
        assert self.printed(15 * 10**19, 0, 20) == "1.5e+20"
        assert self.printed(2 * 10**20 - 1, 1, 20) == "1.0e+20"
        # Just above 9.9999999999999999999|5 on the grid 2^-80: rounds up to 10.
        x = -(-(int("9" * 20 + "5") << 80) // 10**20)
        assert self.printed(x, 80, 20) == "10.0"


def test_runs_without_mpmath():
    # With mpmath unimportable, classify escalates x^2 - x - 10^300 through
    # the refinement rung to 512 bits, and a certificate runs.
    script = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from perronpoly import IntPoly, classify, strictly_perron_certificate\n"
        "print(json.dumps(classify(IntPoly((-10**300, -1, 1))).to_json_dict()))\n"
        "print(json.dumps(strictly_perron_certificate(3, 1, 5).to_json_dict()))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    classified, cert = map(json.loads, done.stdout.splitlines())
    assert (classified["lambda"], classified["precision_bits"]) == ("1.0e+150", 512)
    assert (cert["class"], cert["lambda"]) == (STRICTLY_PERRON, "2.1163432986242116598")


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
        # roots are all refined in fixed point from the circle points, at 128
        # bits.
        f = IntPoly(tuple(body) + (1,))
        if f.constant == 0:
            return
        base = classify(f)
        with (
            mock.patch.object(roots, "DEFAULT_PRECISION_BITS", 128),
            mock.patch.object(roots, "_float_aberth", lambda coeffs: None),
        ):
            fine = classify(f)
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
