"""Independent checks on the program's outputs.

Nothing here imports perronpoly: the closed forms are written out again, and
factoring and primality come from sympy. Each check takes one certificate
record (the program's ``to_json_dict`` plus ``precision_bits``) and returns a
list of problems; an empty list means the record passed.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from sympy import isprime, perfect_power, primerange
from sympy.ntheory import pollard_rho

# Trial division bound and Pollard-rho step budget for confirming that G is
# squarefree. A G the budget cannot finish is left unconfirmed, not failed.
TRIAL_PRIMES = tuple(primerange(2, 2**16))
RHO_STEPS = 50_000


def g_of(n: int, a: int, p: int) -> int:
    return n**n * p + a**n * (n - 1) ** (n - 1)


def disc_of(n: int, a: int, p: int) -> int:
    """The paper's closed form (-1)^((n-1)(n+2)/2) * p^(n-2) * G(p)."""
    sign = -1 if ((n - 1) * (n + 2) // 2) % 2 else 1
    return sign * p ** (n - 2) * g_of(n, a, p)


def squarefree_verdict(g: int) -> bool | int | None:
    """True when g is squarefree, a prime q with q^2 | g when it is not, and
    None when the budget ran out first."""
    rest = g
    for q in TRIAL_PRIMES:
        if q * q > rest:
            break
        if rest % q == 0:
            rest //= q
            if rest % q == 0:
                return q
    pending = [rest] if rest > 1 else []
    found: list[int] = []
    while pending:
        c = pending.pop()
        if isprime(c):
            found.append(c)
            continue
        power = perfect_power(c)
        if power:
            return power[0] if isprime(power[0]) else None
        if c < TRIAL_PRIMES[-1] ** 3:
            # No prime factor below 2^16, not prime and not a power: exactly
            # two distinct primes.
            continue
        d = pollard_rho(c, retries=2, max_steps=RHO_STEPS)
        if d is None:
            return None
        pending += [d, c // d]
    repeated = sorted(q for q in set(found) if found.count(q) > 1)
    return repeated[0] if repeated else True


def _poly_value(n: int, a: int, p: int, x: Fraction) -> Fraction:
    return x**n - a * x ** (n - 1) - p


def check_record(rec: dict, sf_cache: dict) -> list[str]:
    """Every check that applies to one certificate record.

    ``sf_cache`` memoizes ``squarefree_verdict`` by G across the records of a
    run, and ends up holding the verdict of every G checked.
    """
    n, a, p = rec["n"], rec["a"], rec["p"]
    problems = []
    g = g_of(n, a, p)
    if rec["G"] != g:
        problems.append(f"G is {rec['G']}, closed form gives {g}")
    if rec["disc"] != disc_of(n, a, p):
        problems.append(f"disc is {rec['disc']}, closed form gives {disc_of(n, a, p)}")
    reducible = n % 2 == 0 and p == a + 1
    if rec["irreducible"] == reducible:
        problems.append(f"irreducible is {rec['irreducible']}, the dichotomy says {not reducible}")

    status = rec["G_status"]
    if status.startswith("NotSquarefree("):
        q = int(status[len("NotSquarefree("):-1])
        if not isprime(q) or g % (q * q):
            problems.append(f"{status}: {q} is not a prime whose square divides G")
    elif status.startswith("Unknown("):
        c = int(status[len("Unknown("):-1])
        if c < 2 or g % c or isprime(c):
            problems.append(f"{status}: the cofactor is not a composite divisor of G")
    elif status == "Squarefree":
        if g not in sf_cache:
            sf_cache[g] = squarefree_verdict(g)
        if sf_cache[g] not in (True, None):
            problems.append(f"G_status Squarefree, but {sf_cache[g]}^2 divides G")
    else:
        problems.append(f"unparseable G_status {status!r}")

    if rec["lambda"] is not None:
        lam = Fraction(rec["lambda"])
        eps = Fraction(1, 10**12) * max(1, lam)
        if not (_poly_value(n, a, p, lam - eps) < 0 < _poly_value(n, a, p, lam + eps)):
            problems.append(f"lambda {rec['lambda']} is not bracketed by a sign change of f")

    if gcd(a, n) == 1 and p > a + 1:
        problems += _theorem_problems(rec, status)
    return problems


def _theorem_problems(rec: dict, status: str) -> list[str]:
    """The paper's theorem: for gcd(a, n) = 1 and p > a + 1 the member is
    strictly Perron, and monogenic exactly when G is squarefree."""
    problems = []
    if rec["class"] != "StrictlyPerron":
        problems.append(f"class {rec['class']}, the theorem says StrictlyPerron")
    if not rec["theorem_applicable"]:
        problems.append("theorem_applicable is false")
    conclusion = rec["conclusion"]
    if rec["monogenic"].startswith("Unknown"):
        # The certificate may leave monogenicity open when its own factoring
        # budget runs out; it must then say so.
        if conclusion != "strictly-Perron, monogenicity unknown":
            problems.append(f"monogenic verdict unknown but conclusion {conclusion!r}")
    elif not status.startswith("Unknown("):
        squarefree = status == "Squarefree"
        if (conclusion == "monogenic strictly-Perron") != squarefree:
            problems.append(f"G squarefree is {squarefree} but conclusion {conclusion!r}")
    return problems


def corrupted(rec: dict) -> dict[str, dict]:
    """Three broken copies of a good record, one per check they must trip."""
    lam = Fraction(rec["lambda"])
    wrong = next(q for q in TRIAL_PRIMES if rec["G"] % (q * q))
    return {
        "flipped disc sign": dict(rec, disc=-rec["disc"]),
        "shifted lambda": {**rec, "lambda": str(float(lam * (1 + Fraction(1, 10**6))))},
        "wrong G witness": dict(rec, G_status=f"NotSquarefree({wrong})"),
    }


def self_test(records: list[dict]) -> list[str]:
    """Feed corrupted copies of a passing record with a lambda to the checks
    and report every corruption that was not rejected."""
    base = next((r for r in records if r["lambda"] is not None and not check_record(r, {})), None)
    if base is None:
        return ["self-test: no passing certificate with a lambda to corrupt"]
    misses = []
    for what, bad in corrupted(base).items():
        if not check_record(bad, {}):
            misses.append(f"self-test: the checks accepted a certificate with a {what}")
    return misses
