"""Irreducibility over Q for monic integer polynomials.

Two layers. The cheap layer is two classical coefficient criteria:
Eisenstein, then dominance_criterion (Perron's dominant-coefficient bound,
strict or at guarded equality, and the prime-constant-term variant, three
conditions that exclude one another). Each is a sufficient condition proved
by elementary root-location arguments, so a hit comes with a named witness.
The exact layer, factor_oracle, factors f completely, at any degree, by
Zassenhaus's method on the F_q arithmetic of polynomial. The squarefree
part g of f (deg g = n) is reduced modulo odd primes q that keep it
squarefree, and split there by distinct-degree factorization. A factor of
g over Z reduces to a product of factors mod every q, so its degree is a
subset sum of the factor degrees mod each q (Musser): when the only sums
common to _PRIMES primes are 0 and n, g is irreducible. Otherwise the
factors at the prime with the fewest are split apart (Cantor-Zassenhaus)
and Hensel-lifted to a modulus m > 2B, where B = 2^n ||g||_2 bounds every
coefficient of every factor of g (Mignotte). Each monic factor of g over Z
is then the product of a subset of the lifted factors, read in (-m/2, m/2);
subsets are tried smallest first, and a candidate counts only when it
divides g exactly over Z.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, count, zip_longest
from math import gcd, prod
from random import Random

from .errors import InvalidInputError, OracleViolationError
from .intarith import factorize, is_prime
from .polynomial import IntPoly, divmod_mod, gcd_mod, mul_mod, pow_mod, reduce_mod, squarefree_part

_PRIMES = 2  # primes whose factor degrees are intersected; 1 and 3 measured slower


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


def dominance_criterion(f: IntPoly) -> str | None:
    """The coefficient-dominance argument that proves monic f irreducible,
    by name, or None when none applies.

    With n = deg f, t = |c_(n-1)|, c = |c_0| != 0 and s = sum |c_k| over
    0 < k < n - 1:

    * "dominant-coefficient" (Perron), when t > 1 + s + c: exactly one root
      lies outside the closed unit disk and the rest strictly inside, so no
      factorization into two nonconstant integer polynomials can balance the
      constant terms.
    * "dominant-coefficient-equality", when t = 1 + s + c and neither +1 nor
      -1 is a root: a unit-circle root is forced (by the equality case of
      the triangle inequality) to be +1 or -1, so the strict argument goes
      through.
    * "prime-constant", when c is prime and c > 1 + s + t: every root lies
      strictly outside the unit circle, while any proper monic
      factorization would need one factor with constant term of modulus 1,
      i.e. a product of such roots with modulus 1.

    The first two need t >= 1 + c and the third c >= 2 + t, so at most one
    applies.
    """
    f = require_monic(f, "dominance_criterion")
    n = f.degree
    if n < 2 or f.constant == 0:
        return None
    s = sum(abs(v) for v in f.coeffs[1 : n - 1])
    t, c = abs(f.coeff(n - 1)), abs(f.constant)
    if t > 1 + s + c:
        return "dominant-coefficient"
    if t == 1 + s + c and f(1) != 0 and f(-1) != 0:
        return "dominant-coefficient-equality"
    if c > 1 + s + t and is_prime(c):
        return "prime-constant"
    return None


def factor_oracle(f: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """Complete factorization of monic f, deg f >= 2, into monic irreducibles.

    Factors come out in ascending (degree, coefficients) order with their
    multiplicities in f. Each factor is checked to divide f, and their
    product to be f; a failure raises OracleViolationError, since it can only
    mean a defect in this module.
    """
    f = require_monic(f, "factor_oracle")
    if f.degree < 2:
        raise InvalidInputError(f"factor_oracle needs degree >= 2, got {f.degree}")
    zeros = next(i for i, c in enumerate(f.coeffs) if c)
    found = [IntPoly((0, 1))] if zeros else []
    if zeros < f.degree:
        found += _split(squarefree_part(IntPoly(f.coeffs[zeros:])))

    result: list[tuple[IntPoly, int]] = []
    for g in sorted(found, key=lambda g: (g.degree, g.coeffs)):
        mult, rest = 0, f
        while g.divides(rest):
            rest, mult = rest.exact_div(g), mult + 1
        if mult == 0:
            raise OracleViolationError(f"oracle produced a non-factor {g.to_text()}")
        result.append((g, mult))
    if prod((g for g, m in result for _ in range(m)), start=IntPoly((1,))) != f:
        raise OracleViolationError("oracle factorization does not multiply back to the input")
    return tuple(result)


def _split(g: IntPoly) -> list[IntPoly]:
    """The monic irreducible factors of monic squarefree g, g(0) != 0."""
    n, sums, best = g.degree, (2 << g.degree) - 1, None
    primes = (q for q in count(3, 2) if is_prime(q))
    tried = 0
    while tried < _PRIMES and sums != 1 | 1 << n:
        q = next(primes)
        local = reduce_mod(g.coeffs, q)
        if len(gcd_mod(local, reduce_mod([i * c for i, c in enumerate(local)][1:], q), q)) > 1:
            continue
        tried += 1
        blocks = _distinct_degree(local, q)
        here, size = 1, 0  # bit k of here: some product of factors mod q has degree k
        for d, block in blocks:
            for _ in range((len(block) - 1) // d):
                here, size = here | here << d, size + 1
        sums &= here
        if best is None or size < best[0]:
            best = size, q, blocks
    if sums == 1 | 1 << n:
        return [g]
    _, q, blocks = best
    rng = Random(0)
    local = [h for d, block in blocks for h in _equal_degree(block, d, q, rng)]
    bound = sum(c * c for c in g.coeffs) << 2 * (n + 1)  # (2B)^2
    m = q
    while m * m <= bound:
        m *= m
    return _recombine(g, _hensel(list(g.coeffs), local, q, m), m, sums)


def _add_mod(a: list[int], b: list[int], q: int, k: int = 1) -> list[int]:
    """a + k b modulo q."""
    return reduce_mod([x + k * y for x, y in zip_longest(a, b, fillvalue=0)], q)


def _distinct_degree(f: list[int], q: int) -> list[tuple[int, list[int]]]:
    """(d, the product of the irreducible factors of degree d) for each d
    that occurs, for monic squarefree f in F_q[x]: the factors of degree d
    divide x^(q^d) - x, those of lower degree being gone already."""
    blocks, power, d = [], [0, 1], 0
    while len(f) > 2 * d + 2:
        d += 1
        power = pow_mod(power, q, q, f)
        block = gcd_mod(f, _add_mod(power, [0, 1], q, -1), q)
        if len(block) > 1:
            blocks.append((d, block))
            f = divmod_mod(f, block, q)[0]
            power = divmod_mod(power, f, q)[1]
    if len(f) > 1:
        blocks.append((len(f) - 1, f))
    return blocks


def _equal_degree(f: list[int], d: int, q: int, rng: Random) -> list[list[int]]:
    """The monic irreducible factors of f in F_q[x], q odd, f monic,
    squarefree and a product of irreducibles of degree d (Cantor-Zassenhaus):
    gcd(f, a^((q^d - 1) / 2) - 1) for random a splits f with probability at
    least 1/2."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = reduce_mod([rng.randrange(q) for _ in range(len(f) - 1)], q)
        h = gcd_mod(f, _add_mod(pow_mod(a, (q**d - 1) // 2, q, f), [1], q, -1), q)
        if 1 < len(h) < len(f):
            return _equal_degree(h, d, q, rng) + _equal_degree(divmod_mod(f, h, q)[0], d, q, rng)


def _hensel(f: list[int], local: list[list[int]], q: int, m: int) -> list[list[int]]:
    """Monic factors of f modulo m = q^(2^j), in the order of local and each
    congruent to its own of local modulo q, for monic f congruent modulo q to
    the product of local, whose members are monic and pairwise coprime. A
    balanced tree of quadratic Hensel steps (von zur Gathen and Gerhard,
    Modern Computer Algebra, Alg. 15.10): with f = g h, s g + t h = 1 and
    e = f - g h, all modulo p, and s e = u h + r, the lifts modulo p^2 are
    g + t e + u g and h + r, and b = s g + t h - 1 lifts s and t."""
    if len(local) == 1:
        return [reduce_mod(f, m)]
    half = len(local) // 2
    g, h = _product(local[:half], q), _product(local[half:], q)
    s = _inverse(g, h, q)
    t = divmod_mod(_add_mod([1], mul_mod(s, g, q), q, -1), h, q)[0]  # s g + t h = 1
    p = q
    while p < m:
        p *= p
        e = _add_mod(f, mul_mod(g, h, p), p, -1)
        u, r = divmod_mod(mul_mod(s, e, p), h, p)
        g = _add_mod(_add_mod(g, mul_mod(t, e, p), p), mul_mod(u, g, p), p)
        h = _add_mod(h, r, p)
        b = _add_mod(_add_mod(mul_mod(s, g, p), mul_mod(t, h, p), p), [1], p, -1)
        c, d = divmod_mod(mul_mod(s, b, p), h, p)
        s = _add_mod(s, d, p, -1)
        t = _add_mod(_add_mod(t, mul_mod(t, b, p), p, -1), mul_mod(c, g, p), p, -1)
    return _hensel(g, local[:half], q, m) + _hensel(h, local[half:], q, m)


def _product(factors: list[list[int]], q: int) -> list[int]:
    return reduce(lambda a, b: mul_mod(a, b, q), factors, [1])


def _inverse(g: list[int], h: list[int], q: int) -> list[int]:
    """The inverse of g modulo h in F_q[x], of degree below deg h, for g
    coprime to h: the extended Euclidean algorithm."""
    r0, r1, s0, s1 = g, h, [1], []
    while r1:
        u, r = divmod_mod(r0, r1, q)
        r0, r1, s0, s1 = r1, r, s1, _add_mod(s0, mul_mod(u, s1, q), q, -1)
    return mul_mod(s0, [pow(r0[0], -1, q)], q)


def _recombine(g: IntPoly, local: list[list[int]], m: int, sums: int) -> list[IntPoly]:
    """The irreducible factors of monic squarefree g from local, its monic
    factors modulo m > 2B: each is the product of the fewest members of local
    that, read in (-m/2, m/2), divide g. Subsets whose degree is no bit of
    sums cannot be factors and are skipped."""
    found, size = [], 1
    while 2 * size <= len(local):
        for subset in combinations(range(len(local)), size):
            if not sums >> sum(len(local[i]) - 1 for i in subset) & 1:
                continue
            product = _product([local[i] for i in subset], m)
            candidate = IntPoly(tuple(c - m if 2 * c > m else c for c in product))
            if g.constant % candidate.constant == 0 and candidate.divides(g):
                found.append(candidate)
                g = g.exact_div(candidate)
                local = [h for i, h in enumerate(local) if i not in subset]
                break
        else:
            size += 1
    return found + [g]


def irreducibility_witness(f: IntPoly) -> IrreducibilityWitness:
    """Decide irreducibility of monic f and say which argument decided it.

    Criteria run cheapest-first; the factor oracle decides what they leave,
    and is the only route besides a vanishing constant term to "reducible".
    """
    f = require_monic(f, "irreducibility_witness")
    if f.degree == 1:
        return IrreducibilityWitness(True, "degree-one")
    if f.constant == 0:
        return IrreducibilityWitness(False, "zero-constant-term", "divisible by x")
    q = eisenstein_prime(f)
    if q is not None:
        return IrreducibilityWitness(True, "eisenstein", f"prime {q}")
    name = dominance_criterion(f)
    if name is not None:
        return IrreducibilityWitness(True, name)
    factors = factor_oracle(f)
    if len(factors) == 1 and factors[0][1] == 1:
        return IrreducibilityWitness(True, "factor-oracle")
    shape = ", ".join(f"deg {g.degree}^{m}" if m > 1 else f"deg {g.degree}" for g, m in factors)
    return IrreducibilityWitness(False, "factor-oracle", shape)


def is_irreducible(f: IntPoly) -> bool:
    return irreducibility_witness(f).irreducible
