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

The oracle's rounding step is certified. With root approximations z_i in
disks of radius r_i, each coefficient of a subproduct of true roots differs
from the corresponding approximate coefficient by at most

    E = prod_i (1 + |z_i| + r_i) - prod_i (1 + |z_i|)

(the bound for the full root set dominates every subset). When E < 1/4 the
integer candidate is unique, and trial division settles it exactly; otherwise
the root set is recomputed at doubled precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from mpmath import mpc, mpf, workprec

from .errors import InvalidInputError, OracleViolationError
from .intarith import factorize, is_prime
from .polynomial import IntPoly, squarefree_part
from .roots import escalate

ORACLE_MAX_DEGREE = 14


@dataclass(frozen=True)
class IrreducibilityWitness:
    """Verdict plus the name of the argument that settled it."""

    irreducible: bool
    method: str
    detail: str = ""


def _require_monic(f: IntPoly, what: str) -> IntPoly:
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
    f = _require_monic(f, "eisenstein_prime")
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
    f = _require_monic(f, "perron_criterion")
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
    f = _require_monic(f, "perron_equality_criterion")
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
    f = _require_monic(f, "prime_constant_criterion")
    n = f.degree
    if n < 2:
        return False
    c0 = abs(f.constant)
    if c0 <= 1 + sum(abs(f.coeff(k)) for k in range(1, n)):
        return False
    return is_prime(c0)


def _subset_coefficients(values, indices, work_bits: int):
    """Expand prod_{i in indices} (x - z_i) at the given working precision."""
    with workprec(work_bits):
        coeffs = [mpc(1)]
        for i in indices:
            z = values[i]
            coeffs.append(mpc(0))
            for k in range(len(coeffs) - 1, 0, -1):
                coeffs[k] = coeffs[k - 1] - coeffs[k] * z
            coeffs[0] = -coeffs[0] * z
        return coeffs  # ascending


def factor_oracle(f: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """Complete factorization of monic f into monic irreducibles, by brute force.

    Supported for 2 <= deg(f) <= 14 (the subset enumeration is exponential in
    the degree). Factors come out in ascending (degree, coefficients) order
    with their multiplicities in f. The product of the results is checked
    against f; a mismatch raises OracleViolationError, since it can only mean
    a defect in this module.
    """
    f = _require_monic(f, "factor_oracle")
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
            found.update(_oracle_split(sf))

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


def _oracle_split(sf: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a squarefree monic polynomial, via root subsets."""

    def attempt(rs) -> list[IntPoly] | None:
        work, s = max(2 * rs.precision_bits, 128), rs.scale
        with workprec(work):
            values = [mpc(mpf((d.x, -s)), mpf((d.y, -s))) for d in rs.roots]
            hi = lo = mpf(1)
            for z, d in zip(values, rs.roots):
                m = abs(z)
                hi *= 1 + m + mpf((d.r, -s))
                lo *= 1 + m
            bound = (hi - lo) * (1 + mpf(2) ** (-24)) + mpf(2) ** (-work // 2) * hi
            if bound >= 0.25:
                return None
            return _enumerate_factors(sf, values, float(bound), work)

    return escalate(sf, attempt, "factor oracle could not certify rounding")[1]


def _enumerate_factors(sf: IntPoly, values: list, bound: float, work: int) -> list[IntPoly]:
    pool = list(range(len(values)))
    remaining = sf
    factors: list[IntPoly] = []
    size = 1
    while pool and size <= len(pool) // 2:
        hit = False
        for combo in combinations(pool, size):
            approx = _subset_coefficients(values, combo, work)
            candidate = []
            ok = True
            for c in approx[:-1]:
                if abs(float(c.imag)) > bound:
                    ok = False
                    break
                nearest = int(round(float(c.real)))
                if abs(float(c.real) - nearest) > bound:
                    ok = False
                    break
                candidate.append(nearest)
            if not ok:
                continue
            g = IntPoly(tuple(candidate) + (1,))
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


def irreducibility_witness(f: IntPoly) -> IrreducibilityWitness:
    """Decide irreducibility of monic f and say which argument decided it.

    Criteria run cheapest-first; the factor oracle is the fallback and the
    only route that can answer "reducible" (besides a vanishing constant
    term). Degrees above the oracle ceiling are only decidable when some
    criterion fires.
    """
    f = _require_monic(f, "irreducibility_witness")
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
        raise InvalidInputError(
            f"no criterion applies and degree {f.degree} exceeds the oracle ceiling"
        )
    factors = factor_oracle(f)
    if len(factors) == 1 and factors[0][1] == 1:
        return IrreducibilityWitness(True, "factor-oracle")
    shape = ", ".join(f"deg {g.degree}^{m}" if m > 1 else f"deg {g.degree}" for g, m in factors)
    return IrreducibilityWitness(False, "factor-oracle", shape)


def is_irreducible(f: IntPoly) -> bool:
    return irreducibility_witness(f).irreducible
