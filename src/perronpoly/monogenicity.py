"""Monogenicity of trinomial-generated number fields, decided two ways.

A monic irreducible f with root t generates an order Z[t] inside the ring of
integers Z_K of K = Q(t); f is monogenic when the index [Z_K : Z[t]] is 1.
Only primes q with q^2 | disc(f) can divide the index, so the decision
aggregates local tests over exactly those primes.

Two independent local tests are implemented; at every prime the trinomial
test runs wherever it applies, the Dedekind test always runs, and the two
must agree:

* jks_local_test: the five-condition criterion for trinomials x^n + A x^m + B,
  a case split on (q | A?, q | B?, q | m?) with explicit divisibility and
  polynomial-coprimality conditions. The big powers appearing in its
  definitions (such as (-B)^(q^j)) are only ever needed modulo q^2, and the
  exponents q^j, q^l, q^k all divide n, n - m, or m, so everything stays
  small. Where the criterion's published hypotheses leave a case unstated
  (q | A, q not | B, q not | n; or the degenerate k = 0 in the coprimality
  case), the test reports NotApplicable rather than guessing — the
  aggregator then reports the second test's verdict.

* dedekind_local_test: the classical index criterion. Factor f mod q as
  g*h with g the radical of f mod q, lift, form F = (g*h - f)/q, and check
  gcd(F, g, h) mod q: the prime divides the index exactly when that gcd is
  nonconstant.

Any disagreement between the two on a prime where both apply raises
OracleViolationError: it cannot be a property of the input.

monogenic factors |disc(f)|; the family module, which knows |disc| as
p^(n-2) * G(p), factors G only and calls the decision step
monogenic_from_factorization itself. Either way the primes tested are the
factorization's own square_primes, so a budget that leaves the cofactor
unfinished leaves the verdict Unknown unless a tested prime already failed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidInputError, OracleViolationError
from .intarith import DEFAULT_BUDGET, Factorization, check_budget, factorize, is_prime, valuation
from .irreducibility import irreducibility_witness, require_monic
from .polynomial import (
    IntPoly,
    discriminant,
    divmod_mod,
    gcd_mod,
    monic_mod,
    mul_mod,
    pow_mod,
    reduce_mod,
)

NOT_DIVIDES = "NotDividesIndex"
DIVIDES = "DividesIndex"

REDUCIBLE_INPUT = "monogenicity is defined here only for irreducible polynomials"


@dataclass(frozen=True)
class TrinomialParams:
    """The shape data of x^n + A x^m + B used by the local criterion."""

    n: int
    m: int
    A: int
    B: int

    def __post_init__(self) -> None:
        if self.n < 2 or not 0 < self.m < self.n:
            raise InvalidInputError("trinomial exponents need n >= 2 and 0 < m < n")
        if self.A == 0 or self.B == 0:
            raise InvalidInputError("trinomial coefficients A and B must be nonzero")

    @property
    def d0(self) -> int:
        return gcd(self.m, self.n)

    @property
    def m1(self) -> int:
        return self.m // self.d0

    @property
    def n1(self) -> int:
        return self.n // self.d0

    def polynomial(self) -> IntPoly:
        coeffs = [0] * (self.n + 1)
        coeffs[0] = self.B
        coeffs[self.m] = self.A
        coeffs[self.n] = 1
        return IntPoly(tuple(coeffs))

    @staticmethod
    def from_polynomial(f: IntPoly) -> "TrinomialParams | None":
        """Read off (n, m, A, B) when f is a monic trinomial, else None."""
        if f.degree < 2 or not f.is_monic or f.constant == 0:
            return None
        middle = [k for k in range(1, f.degree) if f.coeff(k) != 0]
        if len(middle) != 1:
            return None
        m = middle[0]
        return TrinomialParams(f.degree, m, f.coeff(m), f.constant)


@dataclass(frozen=True)
class LocalIndexVerdict:
    """Outcome of one local test at one prime."""

    q: int
    result: str  # NOT_DIVIDES | DIVIDES | "NotApplicable(<reason>)"
    condition: str  # "(i)".."(v)" | "dedekind" | "dedekind-fallback"

    @property
    def applicable(self) -> bool:
        return self.result in (NOT_DIVIDES, DIVIDES)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "result": self.result, "condition": self.condition}


def _not_applicable(q: int, condition: str, reason: str) -> LocalIndexVerdict:
    return LocalIndexVerdict(q, f"NotApplicable({reason})", condition)


def jks_local_test(t: TrinomialParams, q: int, _disc: int | None = None) -> LocalIndexVerdict:
    """The five-condition criterion for whether q divides the index.

    Expects q to be a prime factor of disc(x^n + A x^m + B); anything else is
    rejected. The result is NotDividesIndex when the condition selected by
    the (q | A?, q | B?, q | m?) split holds, DividesIndex when it fails, and
    NotApplicable when the split lands outside the criterion's stated
    hypotheses.
    """
    if not is_prime(q):
        raise InvalidInputError("local tests need a prime q")
    disc = _disc if _disc is not None else discriminant(t.polynomial())
    if disc % q != 0:
        raise InvalidInputError(f"{q} does not divide the discriminant {disc}")
    n, m, A, B = t.n, t.m, t.A, t.B
    qq = q * q
    divides_A = A % q == 0
    divides_B = B % q == 0

    if divides_A and divides_B:
        ok = B % qq != 0
        return LocalIndexVerdict(q, NOT_DIVIDES if ok else DIVIDES, "(i)")

    if divides_A:
        j = valuation(q, n)
        if j == 0:
            return _not_applicable(q, "(ii)", "requires q | n")
        a2 = (A // q) % q
        numer = (B + pow(-B, q**j, qq)) % qq
        if numer % q != 0:
            raise OracleViolationError("b1 numerator not divisible by q")
        b1 = (numer // q) % q
        if a2 == 0 and b1 != 0:
            return LocalIndexVerdict(q, NOT_DIVIDES, "(ii)")
        quantity = (pow(-B, t.m1, q) * pow(a2, t.n1, q) - pow(-b1, t.n1, q)) % q
        ok = (a2 * quantity) % q != 0
        return LocalIndexVerdict(q, NOT_DIVIDES if ok else DIVIDES, "(ii)")

    if divides_B:
        l = valuation(q, n - m)
        numer = (A + pow(-A, q**l, qq)) % qq
        if numer % q != 0:
            raise OracleViolationError("a1 numerator not divisible by q")
        a1 = (numer // q) % q
        b2 = (B // q) % q
        if a1 == 0 and b2 != 0:
            return LocalIndexVerdict(q, NOT_DIVIDES, "(iii)")
        quantity = (
            pow(-A, t.m1, q) * pow(a1, t.n1 - t.m1, q) - pow(-b2, t.n1 - t.m1, q)
        ) % q
        ok = (a1 * pow(b2, m - 1, q) * quantity) % q != 0
        return LocalIndexVerdict(q, NOT_DIVIDES if ok else DIVIDES, "(iii)")

    if m % q == 0:
        k = min(valuation(q, n), valuation(q, m))
        if k == 0:
            return _not_applicable(q, "(iv)", "requires q | n alongside q | m")
        s_prime = n // q**k
        s = m // q**k
        first = reduce_mod(TrinomialParams(s_prime, s, A, B).polynomial().coeffs, q)
        second = _condition_iv_quotient(s=s, k=k, A=A, B=B, q=q)
        ok = len(gcd_mod(first, second, q)) <= 1
        return LocalIndexVerdict(q, NOT_DIVIDES if ok else DIVIDES, "(iv)")

    quantity = jks_condition_v_quantity(t)
    ok = quantity % qq != 0
    return LocalIndexVerdict(q, NOT_DIVIDES if ok else DIVIDES, "(v)")


def jks_condition_v_quantity(t: TrinomialParams) -> int:
    """The exact integer whose square-freedom at q drives condition (v):

        B^(n1-m1) * n1^n1 - (-1)^m1 * A^n1 * m1^m1 * (m1-n1)^(n1-m1)
    """
    n1, m1 = t.n1, t.m1
    return t.B ** (n1 - m1) * n1**n1 - (-1) ** m1 * t.A**n1 * m1**m1 * (m1 - n1) ** (
        n1 - m1
    )


def _over_q(coeffs: list[int], q: int, failure: str) -> list[int]:
    """coeffs / q reduced mod q, for integers coeffs that are given modulo
    q^2 and must all be divisible by q; OracleViolationError otherwise."""
    qq, out = q * q, []
    for c in coeffs:
        c %= qq
        if c % q != 0:
            raise OracleViolationError(failure)
        out.append(c // q)
    return reduce_mod(out, q)


def _condition_iv_quotient(s: int, k: int, A: int, B: int, q: int) -> list[int]:
    """(A x^(s q^k) + B + (-A x^s - B)^(q^k)) / q, reduced mod q.

    The numerator's coefficients are all divisible by q (freshman's-dream
    congruence), so it is enough to expand the power with coefficients mod
    q^2, divide by q, and reduce.
    """
    qq, top = q * q, s * q**k
    power = pow_mod(reduce_mod([-B] + [0] * (s - 1) + [-A], qq), q**k, qq)
    numerator = power + [0] * (top + 1 - len(power))
    numerator[0] += B
    numerator[top] += A
    return _over_q(numerator, q, "coprimality-case numerator not divisible by q")


def _qth_root_mod(f: list[int], q: int) -> list[int]:
    """Inverse of Frobenius on F_q[x]: the q-th root of a polynomial whose
    nonzero terms all sit at exponents divisible by q. On the prime field the
    coefficients are their own q-th roots."""
    out = [0] * ((len(f) - 1) // q + 1)
    for e, c in enumerate(f):
        if c == 0:
            continue
        if e % q != 0:
            raise OracleViolationError("q-th root requested of a non-q-power polynomial")
        out[e // q] = c
    return out


def _radical_mod(f: list[int], q: int) -> list[int]:
    """Product of the distinct monic irreducible factors of f over F_q."""
    f = monic_mod(f, q)
    if len(f) <= 1:
        return [1]
    d = reduce_mod([e * c for e, c in enumerate(f)][1:], q)
    if not d:
        return _radical_mod(_qth_root_mod(f, q), q)
    g = gcd_mod(f, d, q)
    s = divmod_mod(f, g, q)[0]  # carries each factor whose multiplicity q does not divide
    t = g
    while True:
        u = gcd_mod(t, s, q)
        if len(u) <= 1:
            break
        t = divmod_mod(t, u, q)[0]
    if len(t) <= 1:
        return s
    return mul_mod(s, _radical_mod(t, q), q)


def dedekind_local_test(f: IntPoly, q: int) -> LocalIndexVerdict:
    """Classical index criterion at q for monic f (assumed irreducible).

    With g = radical(f mod q), h = (f mod q)/g, and canonical lifts, the
    integer polynomial F = (lift(g)*lift(h) - f)/q is well defined, and q
    divides the index exactly when gcd(F, g, h) mod q is nonconstant. F mod q
    needs g*h - f only modulo q^2.
    """
    if not is_prime(q):
        raise InvalidInputError("local tests need a prime q")
    if not f.is_monic or f.degree < 1:
        raise InvalidInputError("dedekind_local_test needs a monic polynomial")
    fbar = reduce_mod(f.coeffs, q)
    gbar = _radical_mod(fbar, q)
    hbar = divmod_mod(fbar, gbar, q)[0]
    product = mul_mod(gbar, hbar, q * q)  # monic of f's degree
    Fbar = _over_q(
        [c - fc for c, fc in zip(product, f.coeffs, strict=True)], q,
        "Dedekind congruence failed: g*h != f mod q",
    )
    common = gcd_mod(gcd_mod(gbar, hbar, q), Fbar, q)
    divides = len(common) >= 2
    return LocalIndexVerdict(q, DIVIDES if divides else NOT_DIVIDES, "dedekind")


@dataclass(frozen=True)
class MonogenicityReport:
    poly: str
    disc: int
    disc_factorization: Factorization
    locals: tuple[LocalIndexVerdict, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly,
            "disc": self.disc,
            "disc_factors": {
                "factors": [[q, e] for q, e in self.disc_factorization.factors],
                "cofactor": self.disc_factorization.cofactor,
                "complete": self.disc_factorization.complete,
            },
            "locals": [v.to_json_dict() for v in self.locals],
            "verdict": self.verdict,
        }


def monogenic(f: IntPoly, budget: int = DEFAULT_BUDGET) -> MonogenicityReport:
    """Aggregate monogenicity verdict for a monic irreducible polynomial.

    Tests every prime q with q^2 | disc(f). The trinomial criterion (for a
    trinomial f) and the Dedekind criterion run side by side and must agree
    wherever both apply; where the trinomial criterion's hypotheses have a
    gap the Dedekind verdict stands alone, tagged "dedekind-fallback".

    The verdict is "Monogenic", "NotMonogenic(q)" with the smallest
    index-dividing prime, or "Unknown(...)" when the discriminant could not
    be fully factored and no tested prime already decided the question.
    """
    check_budget(budget)
    poly = require_monic(f, "monogenic")
    if not irreducibility_witness(poly).irreducible:
        raise InvalidInputError(REDUCIBLE_INPUT)
    disc = discriminant(poly)
    fact = factorize(abs(disc), budget=budget)
    return monogenic_from_factorization(poly, TrinomialParams.from_polynomial(poly), disc, fact)


def monogenic_from_factorization(
    poly: IntPoly,
    params: TrinomialParams | None,
    disc: int,
    fact: Factorization,
    known: tuple[LocalIndexVerdict, ...] = (),
) -> MonogenicityReport:
    """The decision step of monogenic, for a monic irreducible poly whose
    discriminant disc and factorization fact of |disc| are already known.
    params is poly's trinomial shape, or None when poly is not a trinomial.
    known holds verdicts already reached for poly; a local verdict depends
    on the prime alone, so those primes are not tested again.
    """
    reuse = {v.q: v for v in known}
    verdicts: list[LocalIndexVerdict] = []
    failing: int | None = None
    for q in fact.square_primes():
        chosen = reuse.get(q) or _local_verdict(poly, params, q, disc)
        verdicts.append(chosen)
        if chosen.result == DIVIDES and failing is None:
            failing = q

    if failing is not None:
        verdict = f"NotMonogenic({failing})"
    elif not fact.complete:
        verdict = f"Unknown(discriminant factorization incomplete, cofactor {fact.cofactor})"
    else:
        verdict = "Monogenic"
    return MonogenicityReport(poly.to_text(), disc, fact, tuple(verdicts), verdict)


def _local_verdict(
    poly: IntPoly, params: TrinomialParams | None, q: int, disc: int
) -> LocalIndexVerdict:
    jks = None if params is None else jks_local_test(params, q, _disc=disc)
    dedekind = dedekind_local_test(poly, q)
    if jks is None:
        return dedekind
    if not jks.applicable:
        return LocalIndexVerdict(q, dedekind.result, "dedekind-fallback")
    if dedekind.result != jks.result:
        raise OracleViolationError(
            f"local tests disagree at q={q}: trinomial criterion says {jks.result}, "
            f"factorization criterion says {dedekind.result}"
        )
    return jks
