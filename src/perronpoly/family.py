"""The trinomial family x^n - a*x^(n-1) - p and its end-to-end certificate.

Everything specific to this one-parameter-of-three family lives here: the
closed-form discriminant and its companion integer G(p), the constant-time
irreducibility dichotomy, the monogenic-iff-G-squarefree criterion, real-root
parity, and the certificate pipeline that runs every check side by side with
its independent oracle and refuses to produce a verdict when any pair
disagrees.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classification import NOT_IRREDUCIBLE, PERRON, Classification, classify_irreducible
from .errors import InvalidInputError, OracleViolationError
from .intarith import DEFAULT_BUDGET, Factorization, SquarefreeStatus, factorize, is_prime
from .intarith import squarefree_status, squarefree_status_of
from .monogenicity import MonogenicityReport, TrinomialParams, monogenic_from_factorization
from .polynomial import IntPoly, count_real_roots
from .polynomial import discriminant as discriminant_resultant
from .roots import real_axis_profile

SUBCLASS_TEXT = {
    "Pisot": "Pisot",
    "Salem": "Salem",
    "AntiPisot": "anti-Pisot",
    "StrictlyPerron": "strictly-Perron",
}


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (n, a, p) of x^n - a*x^(n-1) - p.

    p must be prime. Coprimality of a and n is recorded (it gates the
    headline theorem) but deliberately not required: the pipeline studies
    non-coprime points too.
    """

    n: int
    a: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")
        if self.a < 1:
            raise InvalidInputError(f"need a >= 1, got {self.a}")
        if not is_prime(self.p):
            raise InvalidInputError(f"p must be prime, got {self.p}")

    @property
    def coprime(self) -> bool:
        return gcd(self.a, self.n) == 1

    @property
    def theorem_applicable(self) -> bool:
        """The headline hypothesis: gcd(a, n) = 1 and p > a + 1 (the latter
        also rules out the one reducible configuration)."""
        return self.coprime and self.p > self.a + 1


def build(n: int, a: int, p: int) -> IntPoly:
    """The family member x^n - a*x^(n-1) - p.

    >>> build(2, 1, 3).to_text()
    '-3,-1,1'
    >>> build(4, 3, 5).pretty()
    'x^4 - 3*x^3 - 5'
    """
    params = FamilyParams(n, a, p)
    coeffs = [0] * (params.n + 1)
    coeffs[0] = -params.p
    coeffs[params.n - 1] = -params.a
    coeffs[params.n] = 1
    return IntPoly(tuple(coeffs))


def g_value(n: int, a: int, p: int) -> int:
    """G(p) = n^n * p + a^n * (n-1)^(n-1), the squarefree-or-not heart of
    the discriminant.

    >>> g_value(2, 1, 3)
    13
    >>> g_value(3, 1, 2)
    58
    >>> g_value(4, 3, 5)
    3467
    """
    FamilyParams(n, a, p)
    return n**n * p + a**n * (n - 1) ** (n - 1)


def discriminant_closed(n: int, a: int, p: int) -> int:
    """Closed-form discriminant: (-1)^((n-1)(n+2)/2) * p^(n-2) * G(p).

    >>> discriminant_closed(2, 1, 3)
    13
    >>> discriminant_closed(3, 1, 2)
    -116
    >>> discriminant_closed(4, 3, 5)
    -86675
    """
    FamilyParams(n, a, p)
    sign = -1 if ((n - 1) * (n + 2) // 2) % 2 else 1
    return sign * p ** (n - 2) * g_value(n, a, p)


def family_irreducible(n: int, a: int, p: int) -> bool:
    """Constant-time irreducibility dichotomy: reducible exactly when n is
    even and p = a + 1 (then x + 1 divides). The factorization oracle
    confirms this empirically in the test suite; here it is a formula.
    """
    FamilyParams(n, a, p)
    return not (n % 2 == 0 and p == a + 1)


def family_monogenic(n: int, a: int, p: int, budget: int = DEFAULT_BUDGET) -> str:
    """Monogenicity by the squarefree criterion: for irreducible members
    with gcd(a, n) = 1, the field is monogenic exactly when G(p) is
    squarefree. Returns "Monogenic", "NotMonogenic(q)", or "Unknown(...)"
    when the budget ran out before G's square part was settled.
    """
    params = FamilyParams(n, a, p)
    if not family_irreducible(n, a, p):
        raise InvalidInputError("the squarefree criterion needs the irreducible case")
    if not params.coprime:
        raise InvalidInputError("the squarefree criterion needs gcd(a, n) = 1")
    return _squarefree_verdict(squarefree_status(g_value(n, a, p), budget=budget))


def _squarefree_verdict(status: SquarefreeStatus) -> str:
    """The monogenicity verdict the squarefree criterion reads off G's status."""
    if status.is_squarefree:
        return "Monogenic"
    if status.kind == "not_squarefree":
        return f"NotMonogenic({status.witness})"
    return f"Unknown(G squarefree status unknown, cofactor {status.cofactor})"


def descartes_profile(n: int, a: int, p: int) -> tuple[int, int]:
    """(positive, negative) real-root counts, computed twice: exactly by
    Sturm sequences and numerically by the certified census. The two must
    agree, and must equal (1, 1) for even n and (1, 0) for odd n — sign
    analysis of the coefficients forces that parity.
    """
    if not family_irreducible(n, a, p):
        raise InvalidInputError("real-root parity is stated for the irreducible case")
    f = build(n, a, p)
    exact = count_real_roots(f)
    census = real_axis_profile(f)
    certified = (census.positive, census.negative)
    if certified != exact:
        raise OracleViolationError(
            f"real-root census {certified} disagrees with Sturm counts {exact} for {f.pretty()}"
        )
    expected = (1, 1) if n % 2 == 0 else (1, 0)
    if exact != expected:
        raise OracleViolationError(
            f"real-root parity {exact} contradicts the sign analysis {expected} for {f.pretty()}"
        )
    return exact


@dataclass(frozen=True)
class Certificate:
    """Full diagnostic record for one family member.

    Every derived quantity sits next to the oracle that checked it; the
    conclusion is composed from the checked verdicts only.
    """

    params: FamilyParams
    poly: IntPoly
    disc: int
    g: int
    g_status: str
    irreducible: bool
    monogenicity: MonogenicityReport | None
    monogenic_verdict: str
    classification: Classification
    conclusion: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "a": self.params.a,
            "p": self.params.p,
            "poly": self.poly.to_text(),
            "disc": self.disc,
            "G": self.g,
            "G_status": self.g_status,
            "irreducible": self.irreducible,
            "monogenic": self.monogenic_verdict,
            "class": self.classification.headline,
            "lambda": self.classification.to_json_dict()["lambda"],
            "theorem_applicable": self.params.theorem_applicable,
            "conclusion": self.conclusion,
        }


def _conclusion(cls: Classification, monogenic_verdict: str) -> str:
    if cls.kind != PERRON:
        return "reducible" if cls.kind == NOT_IRREDUCIBLE else "no Perron root"
    text = SUBCLASS_TEXT.get(cls.subclass, cls.subclass)
    if monogenic_verdict == "Monogenic":
        return f"monogenic {text}"
    if monogenic_verdict.startswith("NotMonogenic"):
        return f"{text}, NOT monogenic"
    return f"{text}, monogenicity unknown"


def _times_prime_power(fact: Factorization, p: int, k: int) -> Factorization:
    """fact with the prime power p**k multiplied in."""
    exponents = {**dict(fact.factors), p: fact.exponent(p) + k}
    factors = tuple(sorted((q, e) for q, e in exponents.items() if e))
    return Factorization(factors, fact.cofactor, fact.complete)


def strictly_perron_certificate(
    n: int,
    a: int,
    p: int,
    budget: int = DEFAULT_BUDGET,
    precision_bits: int = 64,
    _fault: str | None = None,
) -> Certificate:
    """Run the complete pipeline for one family member.

    Both discriminant routes (closed form, resultant) must agree; both
    monogenicity routes (squarefree G, local index tests) must agree where
    both apply; at the classifier's dominant root lambda, f must go from
    negative to positive across lambda ± 1e-12*max(1, lambda) in exact
    rational arithmetic, which with the Sturm count of one positive root
    (descartes_profile) pins that root without the root solver. Any
    mismatch raises OracleViolationError — a certificate is never produced from
    contradictory evidence. The certificate is computed in full even when
    an early step already settles the headline question, so downstream
    consumers get complete diagnostics.

    Each fact is computed once: one factorization of G gives G_status, the
    squarefree verdict and, times p^(n-2), the factored |disc| for the local
    tests. Irreducibility is the family dichotomy (run_verify checks it).

    `_fault` deliberately corrupts an internal value ("disc-sign" flips the
    closed-form discriminant) so the tripwires themselves can be exercised.
    """
    params = FamilyParams(n, a, p)
    f = build(n, a, p)

    disc_closed = discriminant_closed(n, a, p)
    if _fault == "disc-sign":
        disc_closed = -disc_closed
    elif _fault is not None:
        raise InvalidInputError(f"unknown fault {_fault!r}")
    disc_oracle = discriminant_resultant(f)
    if disc_closed != disc_oracle:
        raise OracleViolationError(
            f"discriminant mismatch for {f.pretty()}: closed form {disc_closed}, "
            f"resultant {disc_oracle}"
        )

    g = g_value(n, a, p)
    g_fact = factorize(g, budget=budget)
    g_status = squarefree_status_of(g_fact)
    irreducible = family_irreducible(n, a, p)

    report: MonogenicityReport | None = None
    if irreducible:
        trinomial = TrinomialParams(n, n - 1, -a, -p)
        disc_fact = _times_prime_power(g_fact, p, n - 2)
        report = monogenic_from_factorization(f, trinomial, disc_oracle, disc_fact)
        verdict = report.verdict
        if params.coprime:
            family_verdict = _squarefree_verdict(g_status)
            if (
                not verdict.startswith("Unknown")
                and not family_verdict.startswith("Unknown")
                and verdict != family_verdict
            ):
                raise OracleViolationError(
                    f"monogenicity routes disagree for {f.pretty()}: local tests say "
                    f"{verdict}, squarefree criterion says {family_verdict}"
                )
        cls = classify_irreducible(f, precision_bits)
    else:
        verdict = "NotApplicable(reducible)"
        cls = Classification(f.to_text(), NOT_IRREDUCIBLE, None, None, None, None)

    if cls.dominant is not None:
        lam = Fraction(cls.dominant)
        eps = Fraction(1, 10**12) * max(1, lam)
        if not f(lam - eps) < 0 < f(lam + eps):
            raise OracleViolationError(
                f"certified root {cls.dominant} is not bracketed by a sign change of "
                f"{f.pretty()} within {float(eps):.3g}"
            )

    if irreducible:
        descartes_profile(n, a, p)

    conclusion = _conclusion(cls, verdict)
    return Certificate(
        params=params,
        poly=f,
        disc=disc_oracle,
        g=g,
        g_status=str(g_status),
        irreducible=irreducible,
        monogenicity=report,
        monogenic_verdict=verdict,
        classification=cls,
        conclusion=conclusion,
    )
