"""Unbounded-integer primitives: primality and bounded factorization.

Everything here is deterministic. Primality is a strong-pseudoprime test with a
fixed witness set that is exhaustive below 2**64; above that the witnesses are
topped up with a strong Lucas test (Selfridge parameters), for which no
composite passing both tests is known. The intended operating range of the
package is N <= 2**128.

Factorization is budgeted and runs in two public steps. trial_divide walks a
sieved prime table in blocks of consecutive primes: one gcd with a block's
product says whether any of its primes divides what is left (Bernstein's
batched trial division), and only then are they tried one by one. The block
products are built in chunks of 8, 8, 16, 32, ... blocks, each the first time
a walk reaches it, so a walk that stops early never pays for the blocks past
its stop. Before a block's gcd, what is left gets an is_prime test when it has
changed since the last one and lies in [2**32, 2**160), where the test costs
less than the walk it can save; a prime ends the walk, since no later block
divides it. Either way it returns the partial Factorization a prime-by-prime
pass gives, whose cofactor is 1 or free of primes up to TRIAL_BOUND (a prime
above about 10**12 stays the cofactor, as at the end of a full walk);
finish_factorization then splits that cofactor. Each composite piece gets
perfect-power extraction, then Lenstra's elliptic-curve method (ECM) on
Montgomery curves with Suyama's parametrization at sigma = 6, 7, 8, ...: a
ladder over lcm(1..B1), then a baby-step giant-step stage 2 over the primes in
(B1, B2]. B1 is 250 for the first 20 curves, which find most primes up to
10**11, and doubles every 20 curves up to 2,000 for larger ones. factorize is
the two steps in a row. A caller that only needs what the small primes settle
(the smallest square prime, say) can stop after the first step, since the
second only adds primes above TRIAL_BOUND. The budget counts a fixed charge
per curve, proportional to its B1. A curve runs only when its whole charge is
left, so no run spends more than its budget; when it runs out the unfinished
part is reported as an explicit composite cofactor rather than guessed at.

Whether N is squarefree is read off its Factorization alone, by
square_primes and complete. An unfinished cofactor is never judged on its
own, so two callers that factor N within one budget reach one answer.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, lcm, prod

from .errors import InvalidInputError

# Factoring budget, in the units of which an ECM curve is charged
# _ECM_UNITS_PER_B1 * B1: the default pays for 61 curves.
DEFAULT_BUDGET = 10**6

# ECM stage-1 bounds B1: _ECM_CURVES_PER_B1 curves at each but the last,
# which takes every curve after them. Each curve's stage-2 bound B2 is
# _ECM_B2_PER_B1 * B1, and stage 2 takes giant steps of D, with the j < D/2
# prime to D as baby steps.
_ECM_B1_STEPS = (250, 500, 1000, 2000)
_ECM_CURVES_PER_B1 = 20
_ECM_B2_PER_B1 = 60
_ECM_D = 210
_ECM_BABY = tuple(j for j in range(1, _ECM_D // 2, 2) if gcd(j, _ECM_D) == 1)

# Budget units charged per unit of B1 for one curve; this charge is what
# defines a unit. With B2 tied to B1, a curve's wall time grows about in step
# with B1, at 0.2 to 0.35 us per unit on 50- to 115-bit n (best of 5 runs,
# Python 3.11 on a Xeon core). The value is kept from an earlier calibration
# so that a budget buys the curves it bought before: 6,500 units at B1 = 250.
_ECM_UNITS_PER_B1 = 26

TRIAL_BOUND = 10**6

# Consecutive table primes per trial-division block; the table's 78,498 primes
# make 614 blocks, the last of 34 primes, with products of up to 2.6 kbit.
_TRIAL_BLOCK = 128

# What is left of N gets a primality test before a block's gcd when it lies in
# this window, [2**32, 2**160), and has changed since its last test. Below the
# window the walk ends within 52 blocks, at the first prime above its square
# root. Above it the test on a prime nears the cost of the 614 gcds it saves
# (1.5 against 2.2 ms at 256 bits, 4.0 against 3.2 ms at 384, Python 3.11 on
# a Xeon core), and a large composite would be tested at every block that
# divides it.
_PRIME_EXIT_LOW = 2**32
_PRIME_EXIT_HIGH = 2**160

# Exhaustive strong-pseudoprime witness set below 2**64 (Sinclair's seven bases).
_WITNESSES_U64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# Divided out first by is_prime, and its strong-pseudoprime bases above 2**64,
# alongside the Lucas check.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Prime exponents to probe in perfect-power extraction; 127 covers any
# 2**128-scale input since a power with prime exponent above the bit length
# would be below 2.
_POWER_EXPONENTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)


@lru_cache(maxsize=None)
def _trial_primes() -> tuple[int, ...]:
    """Primes up to TRIAL_BOUND, sieved once per process over the odd numbers
    only: entry i > 0 of the sieve stands for 2i + 1, and entry 0 for 2."""
    half = (TRIAL_BOUND + 1) // 2
    sieve = bytearray([1]) * half
    for i in range(1, (isqrt(TRIAL_BOUND) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes((half - 1 - p * p // 2) // p + 1)
    return tuple(compress(chain((2,), range(3, TRIAL_BOUND + 1, 2)), sieve))


@lru_cache(maxsize=None)
def _trial_chunk(i: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Chunk i of the trial-division blocks, each a run of _TRIAL_BLOCK
    consecutive table primes paired with its product: blocks 0..7 for i = 0,
    then blocks 8 * 2**(i - 1) up to 8 * 2**i, so chunks hold 8, 8, 16, 32,
    ... blocks. Built the first time a walk reaches it."""
    table = _trial_primes()
    start = 0 if i == 0 else 8 << (i - 1)
    stop = min(len(table), (8 << i) * _TRIAL_BLOCK)
    runs = (table[j : j + _TRIAL_BLOCK] for j in range(start * _TRIAL_BLOCK, stop, _TRIAL_BLOCK))
    return tuple((prod(run), run) for run in runs)


# Chunks 0..7 hold 8 << 7 = 1,024 blocks, enough for the 614 of the table.
_TRIAL_CHUNKS = 8


def primes_below(bound: int, low: int = 2) -> list[int]:
    """All primes p with low <= p < bound: the sieved table, continued past
    TRIAL_BOUND by testing each odd number from max(low, TRIAL_BOUND + 1)
    with is_prime."""
    table = _trial_primes()
    out = list(table[bisect_left(table, low) : bisect_left(table, bound)])
    out.extend(m for m in range(max(low, TRIAL_BOUND + 1) | 1, bound, 2) if is_prime(m))
    return out


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's method A parameters.

    Assumes n odd, n > 2, not divisible by any prime in _SMALL_PRIMES.
    """
    if isqrt(n) ** 2 == n:  # the search for D below never ends on a square
        return False
    d_param = 5
    while True:
        j = _jacobi(d_param % n, n)
        if j == -1:
            break
        if j == 0 and abs(d_param) % n != 0:
            return False
        d_param = -(d_param + 2) if d_param > 0 else -(d_param - 2)
    p_param = 1
    q_param = (1 - d_param) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # Binary ladder for U_d, V_d modulo n.
    u, v = 1, p_param
    qk = q_param % n
    for bit in bin(d)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = p_param * u + v, d_param * u + p_param * v
            if u & 1:
                u += n
            if v & 1:
                v += n
            u = (u >> 1) % n
            v = (v >> 1) % n
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality below 2**64; BPSW-style beyond.

    >>> is_prime(2), is_prime(561), is_prime(2**61 - 1)
    (True, False, True)
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n < 2**64:
        return all(_strong_probable_prime(n, b) for b in _WITNESSES_U64)
    return all(_strong_probable_prime(n, b) for b in _SMALL_PRIMES) and _strong_lucas_probable_prime(n)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 2, for k >= 2."""
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """Largest k with n = r**k; returns (r, k), k = 1 when n is not a power."""
    for k in _POWER_EXPONENTS:
        if k > n.bit_length():
            break
        r = _iroot(n, k)
        if r**k == n:
            r2, k2 = _perfect_power(r)
            return r2, k * k2
    return n, 1


@lru_cache(maxsize=None)
def _ecm_plan(b1: int) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """The stage-1 multiplier lcm(1..b1) and the stage-2 plan, built from
    primes_below on the first curve at b1. The plan lists, for each giant step
    m, the indices into _ECM_BABY of the j with m*D - j or m*D + j a prime in
    (b1, _ECM_B2_PER_B1 * b1]; every such prime is m*D +- j for m its nearest
    multiple of D, with j < D/2 prime to D."""
    primes = primes_below(_ECM_B2_PER_B1 * b1 + 1)
    index = {j: i for i, j in enumerate(_ECM_BABY)}
    steps: dict[int, set[int]] = {}
    for q in primes[bisect_left(primes, b1 + 1):]:
        m = (q + _ECM_D // 2) // _ECM_D
        steps.setdefault(m, set()).add(index[abs(q - m * _ECM_D)])
    return lcm(*range(1, b1 + 1)), tuple((m, tuple(sorted(js))) for m, js in sorted(steps.items()))


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve on n: Suyama's parametrization at sigma, a Montgomery
    ladder over lcm(1..b1), then the baby-step giant-step stage 2 over the
    primes in (b1, _ECM_B2_PER_B1 * b1]. Returns the last gcd taken with n:
    a proper factor, 1 when the curve found none, or n when stage 1 or 2 met
    every prime of n at once."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    denominator = 16 * u**3 * v**4 % n  # of a24 = (A + 2)/4 times that of x0
    g = gcd(denominator, n)
    if g != 1:
        return g
    inverse = pow(denominator, -1, n)
    a24 = (v - u) ** 3 * (3 * u + v) * v**3 * inverse % n
    x0 = 16 * u**6 * v * inverse % n  # u^3/v^3, with z0 = 1

    def add(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int) -> tuple[int, int]:
        s = (xp - zp) * (xq + zq)
        t = (xp + zp) * (xq - zq)
        return zd * (s + t) ** 2 % n, xd * (s - t) ** 2 % n

    def double(x: int, z: int) -> tuple[int, int]:
        s = (x + z) ** 2
        d = (x - z) ** 2
        t = s - d
        return s * d % n, t * (d + a24 * t) % n

    def ladder(x: int, z: int, k: int) -> tuple[int, int]:
        x1, z1 = x, z
        x2, z2 = double(x, z)
        for bit in bin(k)[3:]:
            if bit == "1":
                x1, z1 = add(x2, z2, x1, z1, x, z)
                x2, z2 = double(x2, z2)
            else:
                x2, z2 = add(x2, z2, x1, z1, x, z)
                x1, z1 = double(x1, z1)
        return x1, z1

    multiplier, plan = _ecm_plan(b1)
    x, z = ladder(x0, 1, multiplier)
    g = gcd(z, n)
    if g != 1:
        return g
    # Baby steps: j*Q for the odd j < D/2, kept with their products X*Z.
    x2, z2 = double(x, z)
    odd = [(x, z), add(x2, z2, x, z, x, z)]
    while len(odd) < _ECM_D // 4:
        xj, zj = odd[-1]
        xk, zk = odd[-2]
        odd.append(add(xj, zj, x2, z2, xk, zk))
    baby = [(xj, zj, xj * zj % n) for xj, zj in (odd[j // 2] for j in _ECM_BABY)]
    # Giant steps m*D*Q, m = 1, 2, ...; the product collects X_m*Z_j - X_j*Z_m
    # over the plan's pairs, which is 0 mod a prime q of n when the order of
    # Q mod q divides m*D - j or m*D + j.
    xd, zd = ladder(x, z, _ECM_D)
    m, (xm, zm), (xn, zn) = 1, (xd, zd), double(xd, zd)  # m*D*Q and (m + 1)*D*Q
    acc = 1
    for target, js in plan:
        while m < target:
            (xm, zm), (xn, zn) = (xn, zn), add(xn, zn, xd, zd, xm, zm)
            m += 1
        xz = xm * zm
        for j in js:
            xj, zj, xzj = baby[j]
            acc = acc * ((xm - xj) * (zm + zj) - xz + xzj) % n
    return gcd(acc, n)


def _ecm(n: int, budget: list[int]) -> int | None:
    """One nontrivial factor of odd composite n by ECM curves at sigma = 6,
    7, 8, ..., with B1 stepping through _ECM_B1_STEPS, or None when the
    budget can no longer pay for the next curve. Each curve is charged
    _ECM_UNITS_PER_B1 * B1 before it runs; a curve whose gcd is n gives way
    to the next sigma."""
    curve, b1 = 0, _ECM_B1_STEPS[0]
    while budget[0] >= _ECM_UNITS_PER_B1 * b1:
        budget[0] -= _ECM_UNITS_PER_B1 * b1
        g = _ecm_curve(n, 6 + curve, b1)
        if 1 < g < n:
            return g
        curve += 1
        b1 = _ECM_B1_STEPS[min(curve // _ECM_CURVES_PER_B1, len(_ECM_B1_STEPS) - 1)]
    return None


@dataclass(frozen=True)
class Factorization:
    """Partial or complete factorization of a positive integer.

    factors are (prime, exponent) pairs with primes ascending; cofactor is the
    unfactored remainder, and the factorization is complete exactly when it
    is 1. prod(p**e) * cofactor == N always.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def square_primes(self) -> list[int]:
        """The primes whose square this factorization shows to divide N,
        ascending. A factored prime's share of an unfinished cofactor counts;
        an empty list shows N squarefree only when the factorization is
        complete.

        >>> factorize(3 * 25 * 49).square_primes()
        [5, 7]
        """
        out = []
        for q, e in self.factors:
            if self.cofactor % q == 0:
                e += valuation(q, self.cofactor)
            if e >= 2:
                out.append(q)
        return out


def trial_divide(n: int) -> Factorization:
    """The first factoring step: trial division by the sieved primes, a block
    at a time. One gcd with a block's product tells whether any of its primes
    divides what is left; only then are they tried, in order, until the gcd's
    primes are all found. The walk still stops at the first prime p with p*p
    above what is left, so the result is the one a prime-by-prime pass gives:
    complete when the cofactor left is 1 or a prime; otherwise its cofactor
    has no prime factor up to TRIAL_BOUND, and every prime found is at most
    TRIAL_BOUND.

    Before a block's gcd, what is left gets one is_prime test when it lies in
    [2**32, 2**160) and has changed since its last test; a prime ends the
    walk. No later block could divide it, so the result is unchanged: a prime
    of at most about 10**12 is appended and the result is complete, a larger
    one stays the cofactor, as when the walk runs to the end of the table.

    >>> trial_divide(2**3 * 1000003**2)
    Factorization(factors=((2, 3),), cofactor=1000006000009)
    """
    if n < 1:
        raise InvalidInputError(f"factoring requires N >= 1, got {n}")
    found: list[tuple[int, int]] = []
    rem = n
    tested = 0  # what was left at the last primality test
    for product, run in chain.from_iterable(map(_trial_chunk, range(_TRIAL_CHUNKS))):
        if run[0] * run[0] > rem:
            break
        if rem != tested and _PRIME_EXIT_LOW <= rem < _PRIME_EXIT_HIGH:
            tested = rem
            if is_prime(rem):
                break
        g = gcd(rem, product)
        # g is the product of the run's primes that divide rem. Leaving the
        # run once g is 1 skips none of them, and a p*p stop is repeated by
        # the next run's first prime, which meets the same rem.
        for p in run:
            if g == 1 or p * p > rem:
                break
            if g % p == 0:
                g //= p
                e = 0
                while rem % p == 0:
                    rem //= p
                    e += 1
                found.append((p, e))
    if rem > 1 and isqrt(rem) <= TRIAL_BOUND:
        # Trial division left no factor up to sqrt(rem), or rem passed
        # is_prime; either way rem is prime.
        found.append((rem, 1))
        rem = 1
    return Factorization(tuple(found), rem)


def check_budget(budget: int) -> None:
    """A factoring budget below zero is invalid input, not an instant Unknown."""
    if budget < 0:
        raise InvalidInputError(f"need budget >= 0, got {budget}")


def finish_factorization(partial: Factorization, budget: int = DEFAULT_BUDGET) -> Factorization:
    """The second factoring step: split the cofactor of a trial_divide result
    by ECM curves on each composite piece, within the given budget of curve
    charges (budget 0 runs no curve). Every prime it adds exceeds
    TRIAL_BOUND; a complete input comes back unchanged."""
    check_budget(budget)
    if partial.complete:
        return partial
    found = dict(partial.factors)
    leftover = _factor_hard(partial.cofactor, found, [budget])
    return Factorization(tuple(sorted(found.items())), leftover)


def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Factor n >= 1 within the given budget: trial_divide, then
    finish_factorization.

    >>> factorize(604800).factors
    ((2, 7), (3, 3), (5, 2), (7, 1))
    """
    return finish_factorization(trial_divide(n), budget)


def _factor_hard(m: int, found: dict[int, int], cell: list[int]) -> int:
    """Split m (no prime factor <= TRIAL_BOUND) into found; returns the
    product of the pieces still composite when the budget runs out."""
    stack = [(m, 1)]
    leftover = 1
    while stack:
        v, mult = stack.pop()
        if is_prime(v):
            found[v] = found.get(v, 0) + mult
            continue
        r, k = _perfect_power(v)
        if k > 1:
            stack.append((r, mult * k))
            continue
        d = _ecm(v, cell)
        if d is None:
            leftover *= v**mult
            continue
        stack.append((d, mult))
        stack.append((v // d, mult))
    return leftover


def valuation(q: int, n: int) -> int:
    """Largest e with q**e dividing n. Requires q prime and n nonzero.

    >>> valuation(3, 45)
    2
    """
    if n == 0:
        raise InvalidInputError("valuation is undefined at N = 0")
    if q < 2 or not is_prime(q):
        raise InvalidInputError(f"valuation requires a prime q, got {q}")
    e = 0
    n = abs(n)
    while n % q == 0:
        n //= q
        e += 1
    return e
