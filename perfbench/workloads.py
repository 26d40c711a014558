"""Seeded inputs of the four benchmark workloads.

Each workload turns ``--seed`` into one pass: a plain JSON spec that the
worker feeds to the program. Primes are chosen here with sympy, so the
program receives only the generated points. Points that fail today because of
a known fault are pinned (they do not depend on the seed), so every pass of a
workload under any seed has the same failing share.

Why the workloads look the way they do is in README.md next to this file.
"""
from __future__ import annotations

import random

from sympy import nextprime, primerange

WORKLOADS = ("sweep-low", "sweep-high-degree", "verify-grid", "large-p")

# sweep-low: run_search over n 2..12, a 1..3, every prime up to a seeded bound.
SWEEP_N = tuple(range(2, 13))
SWEEP_A = (1, 2, 3)
SWEEP_PMAX = (23, 29)

# sweep-high-degree: n = 16 draws its primes from the seed; n = 24 is pinned
# to the first primes above a + 1, because one n = 24 point costs anywhere
# from 0.1 s to 1.9 s depending on whether Brent rho finishes on G(p), and a
# seeded sample small enough for one pass would move points_per_s by a third
# from seed to seed.
HIGH_A = (1, 2)
HIGH_SEEDED_N = 16
HIGH_SEEDED_PRIMES = 10
HIGH_PINNED_N = 24
HIGH_PINNED_PRIMES = 6
HIGH_P_BOUND = 200

# verify-grid: run_verify on n 2..8, a 1..6 and the primes below a seeded limit.
VERIFY_NMAX = 8
VERIFY_AMAX = 6
VERIFY_PLIMIT = (53, 71)

# large-p: the first primes above 10**9 for n 3..8, plus points that fail or
# run out of rho budget. These inputs do not depend on the seed: at p near
# 10**9 one point costs anywhere from 0.15 s to 0.85 s, depending on how fast
# Brent rho splits p^(n-2)*G(p), so a seeded window of the size that fits a
# pass moved points_per_s by 12% and point_ms_p50 by 24% (interquartile range
# over five seeds). n = 2 never converges in power iteration at this size, so
# it is only there as a failing point.
LARGE_N = tuple(range(3, 9))
LARGE_FROM = 10**9
LARGE_WINDOW = 4
LARGE_PINNED = (
    (2, 1, nextprime(LARGE_FROM)),  # NonConvergenceError
    (2, 1, nextprime(2**61)),  # NonConvergenceError
    (8, 1, nextprime(2**61)),  # the rho budget runs out on the discriminant
)


def make_spec(workload: str, seed: int) -> dict:
    """The JSON spec of one pass of ``workload`` under ``seed``.

    ``kind`` selects the worker's loop; ``expected_failures`` maps each point
    that fails today to the exception class the known fault raises.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-low":
        return {
            "kind": "search",
            "n_values": list(SWEEP_N),
            "a_values": list(SWEEP_A),
            "p_max": rng.randint(*SWEEP_PMAX),
            "expected_failures": {},
        }
    if workload == "sweep-high-degree":
        points = []
        failures = {}
        for a in HIGH_A:
            # p = a + 1 is prime for both a; classify asks for a generic
            # irreducibility witness above the oracle's degree ceiling.
            for n in (HIGH_SEEDED_N, HIGH_PINNED_N):
                points.append([n, a, a + 1])
                failures[_key(n, a, a + 1)] = "InvalidInputError"
            pool = list(primerange(a + 2, HIGH_P_BOUND))
            points += [[HIGH_SEEDED_N, a, p] for p in sorted(rng.sample(pool, HIGH_SEEDED_PRIMES))]
            points += [[HIGH_PINNED_N, a, p] for p in pool[:HIGH_PINNED_PRIMES]]
        return {"kind": "points", "points": points, "expected_failures": failures}
    if workload == "verify-grid":
        return {
            "kind": "verify",
            "nmax": VERIFY_NMAX,
            "amax": VERIFY_AMAX,
            "p_limit": rng.randint(*VERIFY_PLIMIT),
            "expected_failures": {},
        }
    if workload == "large-p":
        window = [nextprime(LARGE_FROM)]
        while len(window) < LARGE_WINDOW:
            window.append(nextprime(window[-1]))
        points = [[n, 1, p] for n in LARGE_N for p in window]
        points += [list(point) for point in LARGE_PINNED]
        failures = {_key(*point): "NonConvergenceError" for point in LARGE_PINNED[:2]}
        return {"kind": "points", "points": points, "expected_failures": failures}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _key(n: int, a: int, p: int) -> str:
    return f"{n},{a},{p}"


def expected_points(spec: dict) -> list[tuple[int, int, int]]:
    """Every point the pass attempts, in the order the program visits them."""
    if spec["kind"] == "points":
        return [tuple(point) for point in spec["points"]]
    if spec["kind"] == "search":
        primes = list(primerange(2, spec["p_max"] + 1))
        return [(n, a, p) for n in spec["n_values"] for a in spec["a_values"] for p in primes]
    primes = list(primerange(2, spec["p_limit"]))
    return [
        (n, a, p)
        for n in range(2, spec["nmax"] + 1)
        for a in range(1, spec["amax"] + 1)
        for p in primes
    ]
