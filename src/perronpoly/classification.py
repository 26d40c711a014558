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

Every verdict rests on certified data: disks from the root solver, exact
unit-circle counts for self-reciprocal inputs, and integer shortcuts where
the answer is structural (binomials and polynomials in x^2 can never have a
strictly dominant root, since their root moduli tie by symmetry). When a tie
cannot be certified either way the routine escalates precision and, at the
cap, raises PrecisionExhaustedError instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass

from mpmath import nstr, workprec

from .errors import InvalidInputError, OracleViolationError
from .irreducibility import irreducibility_witness
from .polynomial import IntPoly, is_self_reciprocal
from .roots import (
    DEFAULT_PRECISION_BITS,
    CertifiedRootSet,
    complex_roots,
    conjugate_partner,
    escalate,
    modulus_profile,
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


def _decimal(value, bits: int) -> str:
    with workprec(max(bits, 64)):
        return nstr(value, 20)


def _is_binomial(f: IntPoly) -> bool:
    return all(f.coeff(k) == 0 for k in range(1, f.degree))


def _is_even_polynomial(f: IntPoly) -> bool:
    return all(f.coeff(k) == 0 for k in range(1, f.degree + 1, 2))


def _structural_tie(f: IntPoly) -> str | None:
    """Exact reason the maximal root modulus is attained at least twice.

    A binomial x^n - c (n >= 2) has all roots on one circle; a polynomial in
    x^2 has roots in +-pairs of equal modulus. Either way no single root can
    strictly dominate, whatever the numerics say.
    """
    if f.degree < 2:
        return None
    if _is_binomial(f):
        return "all roots share one modulus (binomial)"
    if _is_even_polynomial(f):
        return "roots occur in +-pairs (polynomial in x^2)"
    return None


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


def classify(f: IntPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> Classification:
    """Full taxonomy verdict for monic f (a leading -1 is normalized away).

    Runs the irreducibility pipeline first; reducible inputs come back as
    NotIrreducible without any root work. PrecisionExhaustedError propagates
    from the certified stages; it is never converted into a verdict.
    """
    if f.degree < 1:
        raise InvalidInputError("classify needs degree >= 1")
    if f.lead == -1:
        f = -f
    if not f.is_monic:
        raise InvalidInputError("classify expects a monic polynomial")

    if not irreducibility_witness(f, precision_bits).irreducible:
        return Classification(f.to_text(), NOT_IRREDUCIBLE, None, None, None, None)
    return classify_irreducible(f, precision_bits)


def classify_irreducible(
    f: IntPoly, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Classification:
    """The root stage of classify, for monic f already known to be irreducible."""
    if f.degree == 1:
        return _degree_one(f)

    tie = _structural_tie(f)
    if tie is not None:
        prof = modulus_profile(f, precision_bits=precision_bits)
        return Classification(
            f.to_text(), NO_PERRON_ROOT, None, None, prof.counts, prof.rootset.precision_bits
        )

    def attempt(rs: CertifiedRootSet) -> Classification | None:
        tags = try_modulus_tags(f, rs)
        census = try_real_census(rs)
        if tags is None or census is None:
            return None
        return _decide(f, rs, tags, census[0])

    rs = complex_roots(f, precision_bits)
    return escalate(f, rs, attempt, f"could not certify dominance structure of {f.to_text()}")[1]


def _decide(
    f: IntPoly,
    rs: CertifiedRootSet,
    tags: tuple[str, ...],
    real_flags: tuple[bool, ...],
) -> Classification | None:
    """One dominance decision attempt from a fully tagged root set.

    None means the certificates at this precision cannot settle the
    question; the caller escalates.
    """
    n = len(rs.roots)
    if "out" not in tags:
        # Every root is certified inside or exactly on the unit circle, so
        # no root reaches modulus > 1 and none can strictly dominate; this
        # settles cyclotomic-like inputs where several on-circle pairs tie.
        return Classification(
            f.to_text(),
            NO_PERRON_ROOT,
            None,
            None,
            (tags.count("in"), tags.count("on"), tags.count("out")),
            rs.precision_bits,
        )
    bounds = rs.modulus_bounds()
    lower = [b[0] for b in bounds]
    upper = [b[1] for b in bounds]
    i_star = max(range(n), key=lambda i: lower[i])
    lb = lower[i_star]
    dominates = all(lb > upper[j] for j in range(n) if j != i_star)
    star = rs.roots[i_star]

    if dominates:
        if not real_flags[i_star]:
            # The conjugate of a certified-nonreal root is a distinct root of
            # the same modulus, flatly contradicting strict dominance.
            raise OracleViolationError("nonreal root certified as strictly dominant")
        if star.value.real < 0:
            # The unique maximal-modulus root is real negative, so no other
            # root can strictly dominate either.
            return Classification(
                f.to_text(),
                NO_PERRON_ROOT,
                None,
                None,
                (tags.count("in"), tags.count("on"), tags.count("out")),
                rs.precision_bits,
            )
        return _perron_subclass(f, rs, tags, real_flags, i_star)

    if not real_flags[i_star]:
        partner = conjugate_partner(rs, i_star)
        if partner is not None and all(
            lb > upper[j] for j in range(n) if j not in (i_star, partner)
        ):
            # The pair (root, conjugate) certifiedly tops every other root,
            # and its two members tie exactly.
            return Classification(
                f.to_text(),
                NO_PERRON_ROOT,
                None,
                None,
                (tags.count("in"), tags.count("on"), tags.count("out")),
                rs.precision_bits,
            )
    return None


def _perron_subclass(
    f: IntPoly,
    rs: CertifiedRootSet,
    tags: tuple[str, ...],
    real_flags: tuple[bool, ...],
    i_star: int,
) -> Classification:
    n = f.degree
    inside = tags.count("in")
    on = tags.count("on")
    outside = tags.count("out")
    star = rs.roots[i_star]
    lam = _decimal(star.value.real, rs.precision_bits)
    profile = (inside, on, outside)

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
    not a classification outcome.
    """
    inside_idx = tags.index("in")
    mate = rs.roots[inside_idx]
    if not real_flags[inside_idx] or mate.value.real < 0:
        raise OracleViolationError("reciprocal mate of a Salem candidate must be real positive")
    star = rs.roots[i_star]
    with workprec(2 * rs.precision_bits + 32):
        residual = abs(star.value * mate.value - 1)
        allowance = (
            abs(star.value) * mate.radius
            + abs(mate.value) * star.radius
            + star.radius * mate.radius
        ) * 2 + 2 ** (-rs.precision_bits)
        if residual > allowance:
            raise OracleViolationError(
                "lambda * lambda' deviates from 1 beyond certified bounds"
            )
