"""Unbounded-integer primitives: primality and bounded factorization.

Everything here is deterministic. Primality is a strong-pseudoprime test with a
fixed witness set that is exhaustive below 2**64; above that the witnesses are
topped up with a strong Lucas test (Selfridge parameters), for which no
composite passing both tests is known. The intended operating range of the
package is N <= 2**128.

Factorization is budgeted and runs in two public steps. trial_divide walks a
sieved prime table in blocks of consecutive primes: one gcd with a block's
product says whether any of its primes divides what is left (Bernstein's
batched trial division), and only then are they tried one by one. It returns
the partial Factorization a prime-by-prime pass gives, whose cofactor is 1 or
free of primes up to TRIAL_BOUND; finish_factorization then splits that
cofactor by perfect-power extraction and Brent-cycle rho with a deterministic
parameter schedule. A composite that rho has not split by its first gcd past
PM1_CHECKPOINT iterations gets one Pollard p-1 stage-1 attempt (bound
PM1_BOUND), which splits it at once when one of its primes q has q - 1
smooth; rho then resumes where it stopped. Brent's advance stretches take no
gcd, and the one for cycle length 2**16 runs from iteration 131,070 to
196,606, so on a fresh composite that gcd, and the attempt, come at
iteration 196,734. factorize is the two steps in a row. A caller that only
needs what the small primes settle (the smallest square prime, say) can stop
after the first step, since the second only adds primes above TRIAL_BOUND.
The budget counts rho iterations plus one unit per bit of the p-1 exponent,
and no run spends more than it; when it runs out the unfinished part is
reported as an explicit composite cofactor rather than guessed at.

Whether N is squarefree is read off its Factorization alone, by
square_primes and complete. An unfinished cofactor is never judged on its
own, so two callers that factor N within one budget reach one answer.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import InvalidInputError

# Factoring budget, in rho iterations plus one unit per bit of the p-1
# exponent (14,447 when the attempt runs).
DEFAULT_BUDGET = 10**6

# Pollard p-1 stage-1 bound B1, and the rho iterations on one composite after
# which its single p-1 attempt runs, at rho's next gcd: iteration 196,734 on a
# fresh composite, since the advance stretch from 131,070 to 196,606 takes no
# gcd. Rho splits most family cofactors well before the checkpoint, so p-1
# runs only on those that would otherwise eat the budget.
PM1_BOUND = 10**4
PM1_CHECKPOINT = 2**17

TRIAL_BOUND = 10**6

# Consecutive table primes per trial-division block; the table's 78,498 primes
# make 614 blocks, the last of 34 primes, with products of up to 2.6 kbit.
_TRIAL_BLOCK = 128

# Exhaustive strong-pseudoprime witness set below 2**64 (Sinclair's seven bases).
_WITNESSES_U64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# Extra rounds used above 2**64, alongside the Lucas check.
_WITNESSES_WIDE = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Prime exponents to probe in perfect-power extraction; 127 covers any
# 2**128-scale input since a power with prime exponent above the bit length
# would be below 2.
_POWER_EXPONENTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)


@lru_cache(maxsize=None)
def _trial_primes() -> tuple[int, ...]:
    """Primes up to TRIAL_BOUND, sieved once per process."""
    bound = TRIAL_BOUND
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((bound - i * i) // i + 1)
    return tuple(compress(range(bound + 1), sieve))


@lru_cache(maxsize=None)
def _trial_blocks() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The prime table cut into runs of _TRIAL_BLOCK consecutive primes, each
    paired with its product; built on the first trial division."""
    table = _trial_primes()
    runs = (table[i : i + _TRIAL_BLOCK] for i in range(0, len(table), _TRIAL_BLOCK))
    return tuple((prod(run), run) for run in runs)


def primes_below(bound: int) -> list[int]:
    """All primes strictly below bound: the sieved table, continued past
    TRIAL_BOUND by testing each odd number with is_prime."""
    table = _trial_primes()
    out = list(table[: bisect_left(table, bound)])
    out.extend(m for m in range((TRIAL_BOUND + 1) | 1, bound, 2) if is_prime(m))
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


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's method A parameters.

    Assumes n odd, n > 2, not divisible by any prime in _SMALL_PRIMES.
    """
    if _is_square(n):
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
    return all(_strong_probable_prime(n, b) for b in _WITNESSES_WIDE) and _strong_lucas_probable_prime(n)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2:
        return n
    if k == 1:
        return n
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
def _pm1_exponent() -> int:
    """Pollard p-1 stage-1 exponent: the product, over the primes q <= PM1_BOUND,
    of the largest power of q that stays <= PM1_BOUND (lcm(1..PM1_BOUND),
    14,447 bits); built once per process from the sieved table."""
    table = _trial_primes()
    exponent = 1
    for q in table[: bisect_left(table, PM1_BOUND + 1)]:
        power = q
        while power * q <= PM1_BOUND:
            power *= q
        exponent *= power
    return exponent


def _pollard_pm1(n: int) -> int | None:
    """Pollard p-1 stage 1 on odd composite n: gcd(2**E - 1, n) with
    E = _pm1_exponent(), which catches every prime q | n whose q - 1 divides E.
    Returns the factor when it is proper, None when it is 1 or n."""
    g = gcd(pow(2, _pm1_exponent(), n) - 1, n)
    return g if 1 < g < n else None


def _brent_rho(n: int, budget: list[int]) -> int | None:
    """One nontrivial factor of odd composite n, or None if the budget dies.

    Deterministic: cycles use x**2 + c with c = 1, 2, 3, ... and start y = 2.
    budget is a single-element mutable cell counting remaining units; every
    loop is clamped to it, so a call never spends more than it holds. At the
    first gcd after PM1_CHECKPOINT iterations on n, one Pollard p-1 stage-1
    attempt is charged the exponent's bit length (when that much is left);
    if it finds no proper factor, rho resumes where it stopped.
    """
    start = budget[0]
    pm1_pending = True
    c = 0
    while budget[0] > 0:
        c += 1
        if c % n == 0:
            continue
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        batch = 128
        while g == 1 and budget[0] > 0:
            x = y
            advance = min(r, budget[0])
            for _ in range(advance):
                y = (y * y + c) % n
            budget[0] -= advance
            k = 0
            while k < r and g == 1 and budget[0] > 0:
                ys = y
                steps = min(batch, r - k, budget[0])
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= steps
                g = gcd(q, n)
                k += batch
                if g == 1 and pm1_pending and start - budget[0] >= PM1_CHECKPOINT:
                    pm1_pending = False
                    cost = _pm1_exponent().bit_length()
                    if budget[0] >= cost:
                        budget[0] -= cost
                        d = _pollard_pm1(n)
                        if d is not None:
                            return d
            r *= 2
        if g == 1:
            return None
        if g == n:
            g = 1
            while g == 1 and budget[0] > 0:
                ys = (ys * ys + c) % n
                budget[0] -= 1
                g = gcd(abs(x - ys), n)
            if g == 1:
                return None
            if g == n:
                continue  # degenerate cycle for this c, move on
        return g
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

    def value(self) -> int:
        v = self.cofactor
        for p, e in self.factors:
            v *= p**e
        return v

    def exponent(self, q: int) -> int:
        for p, e in self.factors:
            if p == q:
                return e
        return 0

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

    >>> trial_divide(2**3 * 1000003**2)
    Factorization(factors=((2, 3),), cofactor=1000006000009)
    """
    if n < 1:
        raise InvalidInputError(f"factoring requires N >= 1, got {n}")
    found: list[tuple[int, int]] = []
    rem = n
    for product, run in _trial_blocks():
        if run[0] * run[0] > rem:
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
        # Trial division left no factor up to sqrt(rem), so rem is prime.
        found.append((rem, 1))
        rem = 1
    return Factorization(tuple(found), rem)


def check_budget(budget: int) -> None:
    """A factoring budget below zero is invalid input, not an instant Unknown."""
    if budget < 0:
        raise InvalidInputError(f"need budget >= 0, got {budget}")


def finish_factorization(partial: Factorization, budget: int = DEFAULT_BUDGET) -> Factorization:
    """The second factoring step: split the cofactor of a trial_divide result
    by Brent rho, with one Pollard p-1 attempt on each composite that rho has
    not split by its first gcd past PM1_CHECKPOINT iterations, within the
    given budget (rho iterations plus the p-1 exponent's bit length; budget 0
    runs neither). Every prime it adds exceeds TRIAL_BOUND; a complete input
    comes back unchanged."""
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
        if v == 1:
            continue
        if is_prime(v):
            found[v] = found.get(v, 0) + mult
            continue
        r, k = _perfect_power(v)
        if k > 1:
            stack.append((r, mult * k))
            continue
        d = _brent_rho(v, cell)
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
