"""Irreducibility over Q for monic integer polynomials.

Two layers. The cheap layer is a cascade of classical coefficient criteria
(Eisenstein; Perron's dominant-coefficient bound, in both its strict and its
guarded equality form; the prime-constant-term variant). Each is a sufficient
condition proved by elementary root-location arguments, so a hit comes with a
named witness. The expensive layer, factor_oracle, decides the question
outright for degree up to 14 by enumerating subsets of certified roots:
every monic integer factor of f is a subproduct of the true roots, so if no
subset of approximations rounds to an integer polynomial dividing f, no
factor exists.

The oracle's rounding step is certified, and decided in integers on the
root disks of roots.escalate: centre (x_i + i y_i) / 2^s, radius r_i / 2^s.
With true roots in those disks, each coefficient of a subproduct of true
roots differs from the corresponding coefficient for the centres by at most

    E = prod_i (1 + |z_i| + r_i) - prod_i (1 + |z_i|)

(the bound for the full root set dominates every subset). Since
isqrt(x_i^2 + y_i^2) <= 2^s |z_i| < isqrt(x_i^2 + y_i^2) + 1, the integers
hi = prod (2^s + isqrt + 1 + r_i) and lo = prod (2^s + isqrt) give
E * 2^(sn) <= hi - lo, rounded outward with no further allowance. When
4 (hi - lo) < 2^(sn), so E < 1/4, each subset product of the centres,
expanded exactly in Gaussian integers, has at most one integer candidate,
and trial division settles it exactly; otherwise the root set is recomputed
at doubled precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt

from .errors import InvalidInputError, OracleViolationError
from .intarith import factorize, is_prime
from .polynomial import IntPoly, squarefree_part
from .roots import CertifiedRootSet, RootLadder, escalate

ORACLE_MAX_DEGREE = 14


@dataclass(frozen=True)
class IrreducibilityWitness:
    """Verdict plus the name of the argument that settled it."""

    irreducible: bool
    method: str
    detail: str = ""


def require_monic(f: IntPoly, what: str) -> IntPoly:
    """f with a leading -1 normalized away; non-monic input is invalid."""
    if f.degree < 1:
        raise InvalidInputError(f"{what} needs degree >= 1")
    if f.lead == -1:
        f = -f
    if f.lead != 1:
        raise InvalidInputError(f"{what} expects a monic polynomial")
    return f


def eisenstein_prime(f: IntPoly) -> int | None:
    """A prime witnessing Eisenstein's criterion for f, or None.

    Only primes found within the factorization budget of the non-leading
    content are considered, so None means "no witness found", which for
    enormous coefficients is weaker than "no witness exists".
    """
    f = require_monic(f, "eisenstein_prime")
    if f.degree < 2 or f.constant == 0:
        return None
    g = gcd(*f.coeffs[:-1])
    if g <= 1:
        return None
    for q, _ in factorize(g).factors:
        if f.constant % (q * q) != 0:
            return q
    return None


def perron_criterion(f: IntPoly) -> bool:
    """Strict dominant-coefficient test: |c_{n-1}| > 1 + sum of the others.

    For monic f with nonzero constant term this pins exactly one root outside
    the closed unit disk and the rest strictly inside, so no factorization
    into two nonconstant integer polynomials can balance the constant terms.
    """
    f = require_monic(f, "perron_criterion")
    n = f.degree
    if n < 2 or f.constant == 0:
        return False
    side = 1 + sum(abs(f.coeff(k)) for k in range(n - 1))
    return abs(f.coeff(n - 1)) > side


def perron_equality_criterion(f: IntPoly) -> bool | None:
    """Equality case of the dominant-coefficient test, guarded at +-1.

    When |c_{n-1}| equals 1 + sum of the remaining moduli, a unit-circle root
    is forced (by the equality case of the triangle inequality) to be +1 or
    -1; if f avoids both, the strict argument goes through. Returns True for
    irreducible, None when the guard fails and the test says nothing.
    """
    f = require_monic(f, "perron_equality_criterion")
    n = f.degree
    if n < 2 or f.constant == 0:
        return None
    side = 1 + sum(abs(f.coeff(k)) for k in range(n - 1))
    if abs(f.coeff(n - 1)) != side:
        return None
    if f(1) == 0 or f(-1) == 0:
        return None
    return True


def prime_constant_criterion(f: IntPoly) -> bool:
    """Irreducibility from a prime constant term dominating the rest.

    If |c_0| is prime and exceeds 1 + sum |c_k| (0 < k < n), every root lies
    strictly outside the unit circle, while any proper monic factorization
    would need one factor with constant term of modulus 1, i.e. a product of
    such roots with modulus 1.
    """
    f = require_monic(f, "prime_constant_criterion")
    n = f.degree
    if n < 2:
        return False
    c0 = abs(f.constant)
    if c0 <= 1 + sum(abs(f.coeff(k)) for k in range(1, n)):
        return False
    return is_prime(c0)


def factor_oracle(f: IntPoly, ladder: RootLadder | None = None) -> tuple[tuple[IntPoly, int], ...]:
    """Complete factorization of monic f into monic irreducibles, by brute force.

    Supported for 2 <= deg(f) <= 14 (the subset enumeration is exponential in
    the degree). Factors come out in ascending (degree, coefficients) order
    with their multiplicities in f. The product of the results is checked
    against f; a mismatch raises OracleViolationError, since it can only mean
    a defect in this module. ladder, when given, is f's; the oracle climbs
    it when f is squarefree, and its own one otherwise.
    """
    f = require_monic(f, "factor_oracle")
    original = f
    n = f.degree
    if not 2 <= n <= ORACLE_MAX_DEGREE:
        raise InvalidInputError(f"factor_oracle supports degrees 2..{ORACLE_MAX_DEGREE}, got {n}")

    while f.constant == 0:
        f = IntPoly(f.coeffs[1:])
    found: set[IntPoly] = set()
    if f.degree < original.degree:
        found.add(IntPoly((0, 1)))
    if f.degree >= 1:
        sf = squarefree_part(f)
        if sf.degree == 1:
            found.add(sf)
        else:
            shared = ladder is not None and ladder.f == sf
            found.update(_oracle_split(ladder if shared else RootLadder(sf)))

    result: list[tuple[IntPoly, int]] = []
    for g in sorted(found, key=lambda g: (g.degree, g.coeffs)):
        mult = 0
        rest = original
        while g.divides(rest):
            rest = rest.exact_div(g)
            mult += 1
        if mult == 0:
            raise OracleViolationError(f"oracle produced a non-factor {g.to_text()}")
        result.append((g, mult))
    check = IntPoly((1,))
    for g, m in result:
        for _ in range(m):
            check = check * g
    if check != original:
        raise OracleViolationError("oracle factorization does not multiply back to the input")
    return tuple(result)


def _oracle_split(ladder: RootLadder) -> list[IntPoly]:
    """Irreducible factors of the squarefree monic polynomial of ladder, via
    root subsets."""

    def attempt(rs: CertifiedRootSet) -> list[IntPoly] | None:
        # slack = hi - lo >= E * 2^(sn), as the module docstring shows.
        one, hi, lo = 1 << rs.scale, 1, 1
        for d in rs.roots:
            m = isqrt(d.norm)
            hi *= one + m + 1 + d.r
            lo *= one + m
        slack = hi - lo
        if 4 * slack >= 1 << (rs.scale * len(rs.roots)):
            return None
        return _enumerate_factors(ladder.f, rs, slack)

    return escalate(ladder, attempt, "factor oracle could not certify rounding")[1]


def _round_subset(
    rs: CertifiedRootSet, combo: tuple[int, ...], slack: int
) -> tuple[int, ...] | None:
    """The integer coefficients (ascending, monic term dropped) that the root
    subset combo of rs rounds to, or None when one of them lies farther
    than slack / 2^(sn) from every integer.

    prod (2^s x - (x_i + i y_i)) over the k roots of combo is expanded in
    Gaussian integers; its coefficients are 2^(sk) times those of the subset
    product of the centres, so each rounds to the nearest integer by a shift
    of sk bits and is held to |Im| and |Re - nearest| at most slack /
    2^(s(n - k)) on that scale.
    """
    s, k = rs.scale, len(combo)
    re, im = [1], [0]
    for i in combo:
        x, y = rs.roots[i].x, rs.roots[i].y
        up_re, up_im = [0] + [v << s for v in re], [0] + [v << s for v in im]
        re.append(0)
        im.append(0)
        re, im = (
            [u - x * a + y * b for u, a, b in zip(up_re, re, im)],
            [u - x * b - y * a for u, a, b in zip(up_im, re, im)],
        )
    sk, spare = s * k, s * (len(rs.roots) - k)
    half = 1 << (sk - 1)
    candidate = []
    for a, b in zip(re[:-1], im[:-1]):
        nearest = (a + half) >> sk
        if abs(b) << spare > slack or abs(a - (nearest << sk)) << spare > slack:
            return None
        candidate.append(nearest)
    return tuple(candidate)


def _enumerate_factors(sf: IntPoly, rs: CertifiedRootSet, slack: int) -> list[IntPoly]:
    pool = list(range(len(rs.roots)))
    remaining = sf
    factors: list[IntPoly] = []
    size = 1
    while pool and size <= len(pool) // 2:
        hit = False
        for combo in combinations(pool, size):
            candidate = _round_subset(rs, combo, slack)
            if candidate is None:
                continue
            g = IntPoly(candidate + (1,))
            if g.divides(remaining):
                factors.append(g)
                remaining = remaining.exact_div(g)
                pool = [i for i in pool if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if pool:
        factors.append(remaining)
    return factors


def irreducibility_witness(f: IntPoly, ladder: RootLadder | None = None) -> IrreducibilityWitness:
    """Decide irreducibility of monic f and say which argument decided it.

    Criteria run cheapest-first; the factor oracle is the fallback and the
    only route that can answer "reducible" (besides a vanishing constant
    term). Above the oracle ceiling a root 1 or -1 answers "reducible"
    too; there, an input no criterion decides is InvalidInputError. ladder,
    when given, is f's, and the factor oracle climbs it (factor_oracle).
    """
    f = require_monic(f, "irreducibility_witness")
    if f.degree == 1:
        return IrreducibilityWitness(True, "degree-one")
    if f.constant == 0:
        return IrreducibilityWitness(False, "zero-constant-term", "divisible by x")
    q = eisenstein_prime(f)
    if q is not None:
        return IrreducibilityWitness(True, "eisenstein", f"prime {q}")
    if perron_criterion(f):
        return IrreducibilityWitness(True, "dominant-coefficient")
    if prime_constant_criterion(f):
        return IrreducibilityWitness(True, "prime-constant")
    if perron_equality_criterion(f):
        return IrreducibilityWitness(True, "dominant-coefficient-equality")
    if f.degree > ORACLE_MAX_DEGREE:
        for root in (1, -1):
            if f(root) == 0:
                return IrreducibilityWitness(False, "linear-factor", f"root {root}")
        raise InvalidInputError(
            f"no criterion applies and degree {f.degree} exceeds the oracle ceiling"
        )
    factors = factor_oracle(f, ladder)
    if len(factors) == 1 and factors[0][1] == 1:
        return IrreducibilityWitness(True, "factor-oracle")
    shape = ", ".join(f"deg {g.degree}^{m}" if m > 1 else f"deg {g.degree}" for g, m in factors)
    return IrreducibilityWitness(False, "factor-oracle", shape)


def is_irreducible(f: IntPoly) -> bool:
    return irreducibility_witness(f).irreducible
