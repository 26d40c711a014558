"""The trinomial family x^n - a*x^(n-1) - p and its end-to-end certificate.

A family point is a FamilyParams: (n, a, p) checked once, when the point is
made, with the closed forms the paper proves things about as its attributes
(the member f and its trinomial shape, G(p), the closed-form discriminant
and the constant-time irreducibility dichotomy). Everything else here takes
a point and reads them: the monogenic-iff-G-squarefree criterion, real-root
parity, a member's class and monogenicity report with irreducibility taken
from the dichotomy, and the certificate pipeline that runs every check side
by side with its independent oracle and refuses to produce a verdict when
any pair disagrees. The monogenicity report and the certificate share one
local-test step: it factors G(p) only, multiplies p^(n-2) back in from the
closed form, and never factors the discriminant. The squarefree criterion
reads G's status off that same factorization (its square_primes and
whether it is complete), in the certificate and in family_monogenic
alike, so an Unknown means the same spent budget on both.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .classification import NOT_IRREDUCIBLE, PERRON, Classification, classify_irreducible
from .errors import InvalidInputError, OracleViolationError
from .intarith import DEFAULT_BUDGET, TRIAL_BOUND, Factorization, check_budget, factorize
from .intarith import finish_factorization, is_prime, trial_divide
from .monogenicity import DIVIDES, REDUCIBLE_INPUT, MonogenicityReport, TrinomialParams
from .monogenicity import monogenic_from_factorization
from .polynomial import IntPoly, descartes_counts
from .polynomial import discriminant as discriminant_resultant

SUBCLASS_TEXT = {
    "Pisot": "Pisot",
    "Salem": "Salem",
    "AntiPisot": "anti-Pisot",
    "StrictlyPerron": "strictly-Perron",
}


@dataclass(frozen=True)
class FamilyParams:
    """A family point (n, a, p) of x^n - a*x^(n-1) - p, validated once.

    p must be prime. Coprimality of a and n is recorded (it gates the
    headline theorem) but deliberately not required: the pipeline studies
    non-coprime points too. The closed forms are attributes computed from
    the validated point: poly and g once each, disc and irreducible on
    demand.
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

    @cached_property
    def trinomial(self) -> TrinomialParams:
        """The member's shape x^n + A x^m + B, for the trinomial index test."""
        return TrinomialParams(self.n, self.n - 1, -self.a, -self.p)

    @cached_property
    def poly(self) -> IntPoly:
        """The family member x^n - a*x^(n-1) - p.

        >>> FamilyParams(2, 1, 3).poly.to_text()
        '-3,-1,1'
        >>> FamilyParams(4, 3, 5).poly.pretty()
        'x^4 - 3*x^3 - 5'
        """
        return self.trinomial.polynomial()

    @cached_property
    def g(self) -> int:
        """G(p) = n^n * p + a^n * (n-1)^(n-1), the squarefree-or-not heart of
        the discriminant.

        >>> FamilyParams(2, 1, 3).g
        13
        >>> FamilyParams(3, 1, 2).g
        58
        >>> FamilyParams(4, 3, 5).g
        3467
        """
        n = self.n
        return n**n * self.p + self.a**n * (n - 1) ** (n - 1)

    @property
    def disc(self) -> int:
        """Closed-form discriminant: (-1)^((n-1)(n+2)/2) * p^(n-2) * G(p).

        >>> FamilyParams(2, 1, 3).disc
        13
        >>> FamilyParams(3, 1, 2).disc
        -116
        >>> FamilyParams(4, 3, 5).disc
        -86675
        """
        n = self.n
        sign = -1 if ((n - 1) * (n + 2) // 2) % 2 else 1
        return sign * self.p ** (n - 2) * self.g

    @property
    def irreducible(self) -> bool:
        """Constant-time irreducibility dichotomy: reducible exactly when n is
        even and p = a + 1 (then x + 1 divides). The factorization oracle
        confirms this in the test suite and in run_verify; here it is a
        formula.
        """
        return not (self.n % 2 == 0 and self.p == self.a + 1)


def family_monogenic(point: FamilyParams, budget: int = DEFAULT_BUDGET) -> str:
    """Monogenicity by the squarefree criterion: for irreducible members
    with gcd(a, n) = 1, the field is monogenic exactly when G(p) is
    squarefree. Returns "Monogenic", "NotMonogenic(q)", or "Unknown(...)"
    when the budget ran out before G's square part was settled. It factors
    G as the certificate does, so the two agree at every budget.
    """
    if not point.irreducible:
        raise InvalidInputError("the squarefree criterion needs the irreducible case")
    if not point.coprime:
        raise InvalidInputError("the squarefree criterion needs gcd(a, n) = 1")
    return _squarefree_verdict(factorize(point.g, budget))


def _g_status(g_fact: Factorization) -> str:
    """G's status as the certificate prints it: NotSquarefree(q) at the
    smallest square prime, else Unknown(cofactor) or Squarefree."""
    square = g_fact.square_primes()
    if square:
        return f"NotSquarefree({square[0]})"
    return "Squarefree" if g_fact.complete else f"Unknown({g_fact.cofactor})"


def _squarefree_verdict(g_fact: Factorization) -> str:
    """The monogenicity verdict the squarefree criterion reads off G."""
    square = g_fact.square_primes()
    if square:
        return f"NotMonogenic({square[0]})"
    if not g_fact.complete:
        return f"Unknown(G squarefree status unknown, cofactor {g_fact.cofactor})"
    return "Monogenic"


def member_classification(point: FamilyParams) -> Classification:
    """classify for a family member, irreducibility read from the dichotomy,
    a formula, where classify would run the factor oracle on most members."""
    if not point.irreducible:
        return Classification(point.poly.to_text(), NOT_IRREDUCIBLE, None, None, None, None)
    return classify_irreducible(point.poly)


def member_monogenicity(point: FamilyParams, budget: int = DEFAULT_BUDGET) -> MonogenicityReport:
    """monogenic for a family member, irreducibility read from the dichotomy
    and |disc| factored as the certificate factors it: G(p), times p^(n-2)."""
    if not point.irreducible:
        raise InvalidInputError(REDUCIBLE_INPUT)
    return _local_tests(point, finish_factorization(trial_divide(point.g), budget))


def descartes_profile(point: FamilyParams) -> tuple[int, int]:
    """(positive, negative) real-root counts by Descartes' rule, exact here
    where f(x) and f(-x) each have 0 or 1 sign variations. They must equal
    (1, 1) for even n and (1, 0) for odd n, the parity that sign analysis of
    the coefficients forces. classify_irreducible checks the certified
    census against the same rule.
    """
    if not point.irreducible:
        raise InvalidInputError("real-root parity is stated for the irreducible case")
    exact = descartes_counts(point.poly)
    expected = (1, 1) if point.n % 2 == 0 else (1, 0)
    if exact != expected:
        raise OracleViolationError(
            f"real-root parity {exact} contradicts the sign analysis {expected} "
            f"for {point.poly.pretty()}"
        )
    return exact


@dataclass(frozen=True)
class Certificate:
    """Full diagnostic record for one family member.

    Every derived quantity sits next to the oracle that checked it; the
    conclusion is composed from the checked verdicts only. The point's own
    closed forms (poly, G, disc, the dichotomy) are read from params: a
    certificate exists only when the resultant equals params.disc.

    monogenicity is the local-test report, None for a reducible member. Its
    disc_factorization may be the partial, trial-division-only one: when
    that already fixed the verdicts, G's cofactor was never split (see
    strictly_perron_certificate), and its local verdicts cover only the
    square primes trial division found, plus p.
    """

    params: FamilyParams
    g_status: str
    monogenicity: MonogenicityReport | None
    monogenic_verdict: str
    classification: Classification
    conclusion: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "a": self.params.a,
            "p": self.params.p,
            "poly": self.params.poly.to_text(),
            "disc": self.params.disc,
            "G": self.params.g,
            "G_status": self.g_status,
            "irreducible": self.params.irreducible,
            "monogenic": self.monogenic_verdict,
            "class": self.classification.headline,
            "lambda": self.classification.dominant,
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


def _local_tests(point: FamilyParams, g_fact: Factorization, known=()) -> MonogenicityReport:
    """monogenic_from_factorization for an irreducible member, on the
    factorization g_fact of G(p) with p^(n-2) multiplied in."""
    exponents = {**dict(g_fact.factors), point.p: g_fact.exponent(point.p) + point.n - 2}
    factors = tuple(sorted((q, e) for q, e in exponents.items() if e))
    disc_fact = Factorization(factors, g_fact.cofactor)
    return monogenic_from_factorization(point.poly, point.trinomial, point.disc, disc_fact, known)


def _settled_by_trial_division(g_fact: Factorization, report: MonogenicityReport | None) -> bool:
    """Whether the trial-division factorization g_fact of G already fixes
    every reported verdict. Finishing it adds only primes above TRIAL_BOUND,
    so it cannot move NotSquarefree(q), nor a NotMonogenic(q') with
    q' <= TRIAL_BOUND. report is None for a reducible member, whose
    monogenicity verdict needs no factoring at all. A failing q' above
    TRIAL_BOUND (only p can be one, on large p) settles nothing: a smaller
    index-dividing prime may still hide in the cofactor.
    """
    if not g_fact.square_primes():
        return False
    if report is None:
        return True
    return any(v.result == DIVIDES and v.q <= TRIAL_BOUND for v in report.locals)


def strictly_perron_certificate(
    n: int, a: int, p: int, budget: int = DEFAULT_BUDGET
) -> Certificate:
    """Run the complete pipeline for one family member.

    Both discriminant routes (closed form, resultant) must agree; both
    monogenicity routes (squarefree G, local index tests) must agree where
    both apply; at the classifier's dominant root lambda, f must go from
    negative to positive across lambda ± 1e-12*max(1, lambda) in exact
    rational arithmetic, which with the Descartes count (one sign variation
    ⇒ exactly one positive root; descartes_profile) pins that root without
    the root solver, and the classifier checks its real-root census against
    Descartes' rule. Any mismatch raises OracleViolationError — a
    certificate is never produced from contradictory evidence. Every check
    runs even when an early step already settles the headline question, so
    downstream consumers get complete diagnostics.

    Each fact is computed once. The point is validated once, and f, G, the
    closed-form disc and the dichotomy are read from it. G is trial-divided
    once, and for an irreducible member the local tests run on that partial
    factorization times p^(n-2). When this already fixes both reported
    verdicts — G_status is NotSquarefree(q), and the member is reducible or
    the local tests give NotMonogenic(q') with q' <= TRIAL_BOUND — the ECM
    step is skipped, since every prime it could add exceeds TRIAL_BOUND.
    Otherwise the factorization is finished once, within the budget, and
    only the primes ECM added are tested, so each local test runs once. The
    resulting G factorization gives G_status and the squarefree verdict.
    Irreducibility is the family dichotomy (run_verify checks it). The
    roots are certified once, without a squarefree gcd: disc != 0 shows it.
    """
    point = FamilyParams(n, a, p)
    check_budget(budget)
    f = point.poly

    disc_oracle = discriminant_resultant(f)
    if point.disc != disc_oracle:
        raise OracleViolationError(
            f"discriminant mismatch for {f.pretty()}: closed form {point.disc}, "
            f"resultant {disc_oracle}"
        )

    g_fact = trial_divide(point.g)
    report = _local_tests(point, g_fact) if point.irreducible else None
    if not _settled_by_trial_division(g_fact, report):
        g_fact = finish_factorization(g_fact, budget)
        if report is not None:  # tests only the primes ECM added
            report = _local_tests(point, g_fact, report.locals)

    if point.irreducible:
        verdict = report.verdict
        if point.coprime:
            family_verdict = _squarefree_verdict(g_fact)
            if (
                not verdict.startswith("Unknown")
                and not family_verdict.startswith("Unknown")
                and verdict != family_verdict
            ):
                raise OracleViolationError(
                    f"monogenicity routes disagree for {f.pretty()}: local tests say "
                    f"{verdict}, squarefree criterion says {family_verdict}"
                )
    else:
        verdict = "NotApplicable(reducible)"
    cls = member_classification(point)

    if cls.dominant is not None:
        # lambda -+ eps with eps = 1e-12 * max(1, lambda), as integers over
        # the common denominator den = 10**12 * den(lambda); the signs of
        # den**n * f(t / den) are those of f.
        lam = Fraction(cls.dominant)
        scale = 10**12
        mid, step = lam.numerator * scale, max(lam.numerator, lam.denominator)
        den = lam.denominator * scale
        shifted = IntPoly(tuple(c * den ** (f.degree - j) for j, c in enumerate(f.coeffs)))
        below, above = shifted(mid - step), shifted(mid + step)
        if not below < 0 < above:
            eps = Fraction(1, scale) * max(1, lam)
            raise OracleViolationError(
                f"certified root {cls.dominant} is not bracketed by a sign change of "
                f"{f.pretty()} within {float(eps):.3g}"
            )

    if point.irreducible:
        descartes_profile(point)

    return Certificate(
        params=point,
        g_status=_g_status(g_fact),
        monogenicity=report,
        monogenic_verdict=verdict,
        classification=cls,
        conclusion=_conclusion(cls, verdict),
    )
