"""Root-location taxonomy for monic integer polynomials.

classify() sorts an input into NotIrreducible, NoPerronRoot, or Perron with
exactly one of four subclasses:

  Pisot          dominant real root > 1, every other root strictly inside
                 the unit circle;
  Salem          even degree >= 4, self-reciprocal, profile (1, n-2, 1) with
                 the inside root equal to 1/lambda;
  AntiPisot      exactly one root inside the unit circle and at least one
                 root besides lambda outside it;
  StrictlyPerron Perron and none of the above.

Every verdict rests on certified data from one escalating attempt: disks
from the root solver, exact unit-circle counts for self-reciprocal inputs,
and integer shortcuts where the answer is structural (binomials and
polynomials in x^2 can never have a strictly dominant root, since their
root moduli tie by symmetry). Otherwise two rules decide, from the
certified modulus bounds and real-root census: Perron when the disk of a
real positive root lies strictly above every other disk in modulus,
NoPerronRoot when every real positive root has another root whose modulus
lower bound reaches its upper bound. An exact tie between the top real
positive root and another root, outside those structural shortcuts,
satisfies neither rule: the routine escalates precision and, at the cap,
raises PrecisionExhaustedError instead of guessing. The census behind a
decision must then obey Descartes' rule of signs, or OracleViolationError.
Each rule, like the Salem check, compares integers, and lambda is printed
from integers too.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log

from .errors import OracleViolationError
from .irreducibility import irreducibility_witness, require_monic
from .polynomial import IntPoly, descartes_counts, is_self_reciprocal
from .roots import (
    CertifiedRoot,
    CertifiedRootSet,
    RootLadder,
    escalate,
    expected_on_circle,
    polish_real_root,
    sqrt_exceeds,
    try_modulus_tags,
    try_real_census,
)

NOT_IRREDUCIBLE = "NotIrreducible"
NO_PERRON_ROOT = "NoPerronRoot"
PERRON = "Perron"

PISOT = "Pisot"
SALEM = "Salem"
ANTI_PISOT = "AntiPisot"
STRICTLY_PERRON = "StrictlyPerron"


@dataclass(frozen=True)
class Classification:
    poly: str
    kind: str
    subclass: str | None
    dominant: str | None
    profile: tuple[int, int, int] | None
    precision_bits: int | None

    @property
    def headline(self) -> str:
        """Single-word answer: the subclass for Perron inputs, else the kind."""
        return self.subclass if self.kind == PERRON and self.subclass else self.kind

    def to_json_dict(self) -> dict:
        profile = None
        if self.profile is not None:
            profile = {
                "inside": self.profile[0],
                "on": self.profile[1],
                "outside": self.profile[2],
            }
        return {
            "poly": self.poly,
            "class": self.kind,
            "subclass": self.subclass,
            "lambda": self.dominant,
            "profile": profile,
            "precision_bits": self.precision_bits,
        }


def _decimal(root: CertifiedRoot, scale: int) -> str:
    """The centre x / 2^scale > 1 of a real positive root's disk to the d
    digits the disk certifies, floor(log10(x / r)) (r >= 1), at most 20.

    Printed as mpmath.nstr prints it: the decimal digits are truncated on a
    binary grid of int((d + 3) log2(10)) + 10 bits, rounded half up at digit
    d, stripped of trailing zeros, and put in exponent form from 10^d up.
    """
    d = max(1, min(20, len(str(root.x // root.r)) - 1))
    bits = max(int((d + 3) * log(10, 2)) + 10 - (root.x.bit_length() - scale), 0)
    places = int(bits / log(10, 2) + 0.5)
    digits = str((root.x << bits >> scale) * 10**places >> bits)
    exponent = len(digits) - places - 1
    head = str(int(digits[:d]) + (digits[d:d + 1] >= "5"))
    if len(head) > d:  # 10^d: the carry ran through every digit
        head, exponent = head[:d], exponent + 1
    split = exponent + 1 if exponent < d else 1
    text = (head[:split] + "." + head[split:]).rstrip("0")
    text += "0" if text.endswith(".") else ""
    return text if exponent < d else f"{text}e+{exponent}"


def _structural_tie(f: IntPoly) -> bool:
    """Whether the maximal root modulus of f (degree >= 2) is attained at
    least twice for an exact reason.

    A binomial x^n - c has all roots on one circle; a polynomial in x^2 has
    roots in +-pairs of equal modulus. Either way no single root can
    strictly dominate, whatever the numerics say.
    """
    return not any(f.coeffs[1:-1]) or not any(f.coeffs[1::2])


def _no_perron_root(f: IntPoly, profile: tuple[int, int, int], bits: int) -> Classification:
    return Classification(f.to_text(), NO_PERRON_ROOT, None, None, profile, bits)


def _degree_one(f: IntPoly) -> Classification:
    c = -f.constant
    if c * c > 1:
        prof = (0, 0, 1)
    elif c * c == 1:
        prof = (0, 1, 0)
    else:
        prof = (1, 0, 0)
    if c > 1:
        # Sole root, real, exceeding 1: Perron with the other-root conditions
        # vacuously true, which lands in the Pisot row.
        return Classification(f.to_text(), PERRON, PISOT, str(c), prof, 0)
    return Classification(f.to_text(), NO_PERRON_ROOT, None, None, prof, 0)


def classify(f: IntPoly) -> Classification:
    """Full taxonomy verdict for monic f (a leading -1 is normalized away).

    Runs the irreducibility pipeline first; reducible inputs come back as
    NotIrreducible without any root work. The roots are solved at
    roots.DEFAULT_PRECISION_BITS and escalated only as far as the decision
    needs; PrecisionExhaustedError propagates from the certified stages and
    is never converted into a verdict.
    """
    f = require_monic(f, "classify")
    ladder = RootLadder(f)
    if not irreducibility_witness(f, ladder).irreducible:
        return Classification(f.to_text(), NOT_IRREDUCIBLE, None, None, None, None)
    return classify_irreducible(f, ladder)


def classify_irreducible(f: IntPoly, ladder: RootLadder | None = None) -> Classification:
    """The root stage of classify, for monic f already known to be
    irreducible, so squarefree with f(0) != 0 at degree >= 2. classify and
    the family certificate establish that; it is not checked again here.
    ladder, when given, is f's, and holds the rungs the factor oracle solved."""
    if f.degree == 1:
        return _degree_one(f)
    tie = _structural_tie(f)
    expected_on, variations = expected_on_circle(f), descartes_counts(f)

    def attempt(rs: CertifiedRootSet) -> Classification | None:
        tags = try_modulus_tags(rs, expected_on)
        if tags is None:
            return None
        profile = (tags.count("in"), tags.count("on"), tags.count("out"))
        if tie:
            return _no_perron_root(f, profile, rs.precision_bits)
        census = try_real_census(rs)
        if census is None:
            return None
        cls = _decide(f, rs, tags, profile, census[0])
        # The exact route: by Descartes' rule each certified count is at most
        # its sign variations and of the same parity. Checked only once a rule
        # has decided, so the decision's own checks fire first.
        if cls is not None and any(c > v or (v - c) % 2 for c, v in zip(census[1:3], variations)):
            raise OracleViolationError(
                f"real-root census {census[1:3]} disagrees with the Descartes counts "
                f"{variations} for {f.pretty()}"
            )
        return cls

    failure = f"could not certify dominance structure of {f.to_text()}"
    return escalate(ladder or RootLadder(f), attempt, failure)[1]


def _decide(
    f: IntPoly,
    rs: CertifiedRootSet,
    tags: tuple[str, ...],
    profile: tuple[int, int, int],
    real_flags: tuple[bool, ...],
) -> Classification | None:
    """One dominance decision attempt from a fully tagged root set.

    Two certified rules, on lower[i] = |z_i| - r_i and upper[i] = |z_i| + r_i
    compared in integers (roots.sqrt_exceeds):

      Perron        the disk of a real positive root lies strictly above
                    every other disk in modulus, lower[i] > upper[j];
      NoPerronRoot  every certified real positive root i has another root j
                    with lower[j] >= upper[i], so |z_j| >= |z_i| and no real
                    root strictly dominates (vacuous with no real positive
                    root).

    None means neither rule holds at this precision, or lambda's disk could
    not be polished to the digits printed (roots.polish_real_root); the
    caller escalates.
    An exact tie between the top real positive root and another root, when
    _structural_tie does not catch it, never satisfies either rule.
    """
    n, norms, radii = len(rs.roots), [d.norm for d in rs.roots], [d.r for d in rs.roots]

    def above(i: int, j: int, strict: bool) -> bool:
        """lower[i] > upper[j], or >= when not strict."""
        return sqrt_exceeds(norms[i], norms[j], radii[i] + radii[j], strict)

    # A disk strictly above all others replaces any candidate and is never replaced.
    i_star = 0
    for j in range(1, n):
        i_star = i_star if above(i_star, j, True) else j
    if all(above(i_star, j, True) for j in range(n) if j != i_star):
        if not real_flags[i_star]:
            # The conjugate of a certified-nonreal root is a distinct root of
            # the same modulus, flatly contradicting strict dominance.
            raise OracleViolationError("nonreal root certified as strictly dominant")
        if rs.roots[i_star].x > 0:
            return _perron_subclass(f, rs, tags, profile, real_flags, i_star)
    positive = [i for i in range(n) if real_flags[i] and rs.roots[i].x > 0]
    if all(any(above(j, i, False) for j in range(n) if j != i) for i in positive):
        return _no_perron_root(f, profile, rs.precision_bits)
    return None


def _perron_subclass(
    f: IntPoly,
    rs: CertifiedRootSet,
    tags: tuple[str, ...],
    profile: tuple[int, int, int],
    real_flags: tuple[bool, ...],
    i_star: int,
) -> Classification | None:
    star = polish_real_root(f, rs, i_star)
    if star is None:
        return None
    n = f.degree
    inside, _, outside = profile
    lam = _decimal(*star)

    if inside == n - 1 and outside == 1:
        sub = PISOT
    elif (
        n >= 4
        and n % 2 == 0
        and is_self_reciprocal(f)
        and profile == (1, n - 2, 1)
    ):
        _check_salem_reciprocal(rs, tags, real_flags, i_star)
        sub = SALEM
    elif inside == 1 and outside >= 2:
        sub = ANTI_PISOT
    else:
        sub = STRICTLY_PERRON
    return Classification(f.to_text(), PERRON, sub, lam, profile, rs.precision_bits)


def _check_salem_reciprocal(
    rs: CertifiedRootSet,
    tags: tuple[str, ...],
    real_flags: tuple[bool, ...],
    i_star: int,
) -> None:
    """Verify lambda * lambda' = 1 within propagated disk bounds.

    For a self-reciprocal polynomial with profile (1, n-2, 1) this identity
    is forced, so a numeric violation beyond the certified allowance can only
    be a defect in the solver or the tagging — hence OracleViolationError,
    not a classification outcome. The allowance, in integers on the grid of
    products 4^-s, is 2 (|star| r_m + |mate| r_s + r_s r_m) + 2^-bits with
    both moduli rounded up.
    """
    inside_idx = tags.index("in")
    mate, star = rs.roots[inside_idx], rs.roots[i_star]
    if not real_flags[inside_idx] or mate.x < 0:
        raise OracleViolationError("reciprocal mate of a Salem candidate must be real positive")
    one, bits = 1 << 2 * rs.scale, rs.precision_bits
    re = star.x * mate.x - star.y * mate.y - one
    im = star.x * mate.y + star.y * mate.x
    m_star, m_mate = isqrt(star.norm) + 1, isqrt(mate.norm) + 1
    allowance = 2 * (m_star * mate.r + m_mate * star.r + star.r * mate.r)
    # |residual| > allowance + one / 2^bits, both sides times 2^bits, squared.
    if (re * re + im * im) << (2 * bits) > ((allowance << bits) + one) ** 2:
        raise OracleViolationError("lambda * lambda' deviates from 1 beyond certified bounds")
