"""Monogenicity of trinomial-generated number fields, decided two ways.

A monic irreducible f with root t generates an order Z[t] inside the ring of
integers Z_K of K = Q(t); f is monogenic when the index [Z_K : Z[t]] is 1.
Only primes q with q^2 | disc(f) can divide the index, so the decision
aggregates local tests over exactly those primes.

Two independent local tests are implemented and, by default, both run and
must agree:

* jks_local_test: the five-condition criterion for trinomials x^n + A x^m + B,
  a case split on (q | A?, q | B?, q | m?) with explicit divisibility and
  polynomial-coprimality conditions. The big powers appearing in its
  definitions (such as (-B)^(q^j)) are only ever needed modulo q^2, and the
  exponents q^j, q^l, q^k all divide n, n - m, or m, so everything stays
  small. Where the criterion's published hypotheses leave a case unstated
  (q | A, q not | B, q not | n; or the degenerate k = 0 in the coprimality
  case), the test reports NotApplicable rather than guessing — the
  aggregator then falls back to the second test.

* dedekind_local_test: the classical index criterion. Factor f mod q as
  g*h with g the radical of f mod q, lift, form F = (g*h - f)/q, and check
  gcd(F, g, h) mod q: the prime divides the index exactly when that gcd is
  nonconstant.

Any disagreement between the two on a prime where both apply raises
OracleViolationError: it cannot be a property of the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidInputError, OracleViolationError
from .intarith import DEFAULT_BUDGET, Factorization, factorize, is_prime, valuation
from .irreducibility import irreducibility_witness
from .polynomial import IntPoly, ModPoly, discriminant, gcd_mod

NOT_DIVIDES = "NotDividesIndex"
DIVIDES = "DividesIndex"

METHOD_JKS = "jks"
METHOD_DEDEKIND = "dedekind"
METHOD_BOTH = "both"


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
        first = _trinomial_mod(n=s_prime, m=s, A=A, B=B, q=q)
        second = _condition_iv_quotient(s=s, k=k, A=A, B=B, q=q)
        g = gcd_mod(first, second)
        ok = g.degree <= 0
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


def _trinomial_mod(n: int, m: int, A: int, B: int, q: int) -> ModPoly:
    coeffs = [0] * (n + 1)
    coeffs[0] = B
    coeffs[m] += A
    coeffs[n] += 1
    return ModPoly(q, tuple(coeffs))


def _condition_iv_quotient(s: int, k: int, A: int, B: int, q: int) -> ModPoly:
    """(A x^(s q^k) + B + (-A x^s - B)^(q^k)) / q, reduced mod q.

    The numerator's coefficients are all divisible by q (freshman's-dream
    congruence), so it is enough to expand the power with coefficients mod
    q^2, divide by q, and reduce. ModPoly drops zero top coefficients, so
    A x^(s q^k) is added as a polynomial rather than at an index of the power.
    """
    qq = q * q
    power = ModPoly(qq, (-B,) + (0,) * (s - 1) + (-A,)) ** (q**k)
    numerator = power + ModPoly(qq, (B,) + (0,) * (s * q**k - 1) + (A,))
    out = []
    for c in numerator.coeffs:
        if c % q != 0:
            raise OracleViolationError("coprimality-case numerator not divisible by q")
        out.append(c // q)
    return ModPoly(q, tuple(out))


def _qth_root_mod(f: ModPoly) -> ModPoly:
    """Inverse of Frobenius on F_q[x]: the q-th root of a polynomial whose
    nonzero terms all sit at exponents divisible by q. On the prime field the
    coefficients are their own q-th roots."""
    q = f.modulus
    out = [0] * (f.degree // q + 1)
    for e, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if e % q != 0:
            raise OracleViolationError("q-th root requested of a non-q-power polynomial")
        out[e // q] = c
    return ModPoly(q, tuple(out))


def _radical_mod(f: ModPoly) -> ModPoly:
    """Product of the distinct monic irreducible factors of f over F_q."""
    q = f.modulus
    f = f.monic()
    if f.is_constant:
        return ModPoly(q, (1,))
    d = f.derivative()
    if d.is_zero:
        return _radical_mod(_qth_root_mod(f))
    g = gcd_mod(f, d)
    s = f.exact_div(g)  # carries each factor whose multiplicity q does not divide
    t = g
    while True:
        u = gcd_mod(t, s)
        if u.is_constant:
            break
        t = t.exact_div(u)
    if t.is_constant:
        return s.monic()
    return (s * _radical_mod(t)).monic()


def dedekind_local_test(f: IntPoly, q: int) -> LocalIndexVerdict:
    """Classical index criterion at q for monic f (assumed irreducible).

    With g = radical(f mod q), h = (f mod q)/g, and canonical lifts, the
    integer polynomial F = (lift(g)*lift(h) - f)/q is well defined, and q
    divides the index exactly when gcd(F, g, h) mod q is nonconstant.
    """
    if not is_prime(q):
        raise InvalidInputError("local tests need a prime q")
    if not f.is_monic or f.degree < 1:
        raise InvalidInputError("dedekind_local_test needs a monic polynomial")
    fbar = ModPoly.reduce(f, q)
    gbar = _radical_mod(fbar)
    hbar = fbar.exact_div(gbar)
    product = gbar.lift() * hbar.lift() - f
    coeffs = []
    for c in product.coeffs:
        if c % q != 0:
            raise OracleViolationError("Dedekind congruence failed: g*h != f mod q")
        coeffs.append((c // q) % q)
    Fbar = ModPoly(q, tuple(coeffs))
    common = gcd_mod(gcd_mod(gbar, hbar), Fbar)
    divides = common.degree >= 1
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


def _square_primes(fact: Factorization) -> list[int]:
    """Primes whose square divides the factored integer, robust to an
    unfactored cofactor sharing primes with the factored part."""
    out = []
    for q, e in fact.factors:
        total = e
        if fact.cofactor > 1 and fact.cofactor % q == 0:
            total += valuation(q, fact.cofactor)
        if total >= 2:
            out.append(q)
    return sorted(out)


def monogenic(
    f: IntPoly | TrinomialParams,
    method: str = METHOD_BOTH,
    budget: int = DEFAULT_BUDGET,
) -> MonogenicityReport:
    """Aggregate monogenicity verdict for a monic irreducible polynomial.

    Tests every prime q with q^2 | disc(f) using the requested method. With
    METHOD_BOTH (the default) the trinomial criterion and the Dedekind
    criterion run side by side and must agree wherever both apply. The
    trinomial criterion also serves METHOD_JKS; where its hypotheses have a
    gap the Dedekind test silently substitutes, tagged "dedekind-fallback".

    The verdict is "Monogenic", "NotMonogenic(q)" with the smallest
    index-dividing prime, or "Unknown(...)" when the discriminant could not
    be fully factored and no tested prime already decided the question.
    """
    if isinstance(f, TrinomialParams):
        params: TrinomialParams | None = f
        poly = f.polynomial()
    else:
        poly = f
        params = TrinomialParams.from_polynomial(f)
    if method not in (METHOD_JKS, METHOD_DEDEKIND, METHOD_BOTH):
        raise InvalidInputError(f"unknown method {method!r}")
    if method == METHOD_JKS and params is None:
        raise InvalidInputError("the trinomial criterion needs a trinomial x^n + A x^m + B")
    if poly.lead == -1:
        poly = -poly
        params = TrinomialParams.from_polynomial(poly)
    witness = irreducibility_witness(poly)
    if not witness.irreducible:
        raise InvalidInputError("monogenicity is defined here only for irreducible polynomials")

    disc = discriminant(poly)
    fact = factorize(abs(disc), budget=budget)
    return monogenic_from_factorization(poly, params, disc, fact, method)


def monogenic_from_factorization(
    poly: IntPoly,
    params: TrinomialParams | None,
    disc: int,
    fact: Factorization,
    method: str = METHOD_BOTH,
    known: tuple[LocalIndexVerdict, ...] = (),
) -> MonogenicityReport:
    """The decision step of monogenic, for a monic irreducible poly whose
    discriminant disc and factorization fact of |disc| are already known.
    params is poly's trinomial shape, or None when poly is not a trinomial.
    known holds verdicts already reached for poly by the same method; a
    local verdict depends on the prime alone, so those primes are not
    tested again.
    """
    reuse = {v.q: v for v in known}
    verdicts: list[LocalIndexVerdict] = []
    failing: int | None = None
    for q in _square_primes(fact):
        chosen = reuse.get(q) or _local_verdict(poly, params, q, disc, method)
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
    poly: IntPoly,
    params: TrinomialParams | None,
    q: int,
    disc: int,
    method: str,
) -> LocalIndexVerdict:
    jks = None
    if method in (METHOD_JKS, METHOD_BOTH) and params is not None:
        jks = jks_local_test(params, q, _disc=disc)
    dedekind = None
    if method in (METHOD_DEDEKIND, METHOD_BOTH) or jks is None or not jks.applicable:
        dedekind = dedekind_local_test(poly, q)

    if jks is not None and jks.applicable:
        if dedekind is not None and dedekind.result != jks.result:
            raise OracleViolationError(
                f"local tests disagree at q={q}: trinomial criterion says {jks.result}, "
                f"factorization criterion says {dedekind.result}"
            )
        return jks
    if jks is not None:
        return LocalIndexVerdict(q, dedekind.result, "dedekind-fallback")
    return dedekind
