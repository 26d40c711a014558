"""Grid search over the family and the invariant-suite verifier.

run_search enumerates family members in a deterministic order (pairs (n, a)
lexicographically, primes ascending within each pair) and yields full
certificates; the CLI streams them out and optionally appends each to a
JSON-lines ledger. run_verify sweeps a grid and checks every family-level
property the pipeline promises, returning the offending points instead of
raising, so a harness can list all failures at once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import gcd
from typing import Iterator

from . import __version__
from .errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from .family import Certificate, family_irreducible, strictly_perron_certificate
from .intarith import DEFAULT_BUDGET, primes_below
from .irreducibility import ORACLE_MAX_DEGREE, is_irreducible
from .roots import real_axis_profile


@dataclass(frozen=True)
class SearchSpec:
    """What to search: which (n, a) pairs, up to which prime (inclusive)."""

    n_values: tuple[int, ...]
    a_values: tuple[int, ...]
    p_max: int
    coprime_only: bool = False
    budget: int = DEFAULT_BUDGET
    precision_bits: int = 64

    def __post_init__(self) -> None:
        if not self.n_values or not self.a_values:
            raise InvalidInputError("search ranges must be nonempty")
        if any(n < 2 for n in self.n_values):
            raise InvalidInputError("search needs n >= 2")
        if any(a < 1 for a in self.a_values):
            raise InvalidInputError("search needs a >= 1")
        if self.p_max < 2:
            raise InvalidInputError("search needs p_max >= 2")

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for n in self.n_values:
            for a in self.a_values:
                if self.coprime_only and gcd(a, n) != 1:
                    continue
                out.append((n, a))
        return out


@dataclass
class SearchTally:
    """Counters for the stderr summary line."""

    points: int = 0
    hits: int = 0
    misses: int = 0
    unknowns: int = 0
    reducible: int = 0

    def record(self, cert: Certificate) -> None:
        self.points += 1
        if cert.conclusion == "monogenic strictly-Perron":
            self.hits += 1
        if cert.g_status.startswith("NotSquarefree"):
            self.misses += 1
        if cert.monogenic_verdict.startswith("Unknown"):
            self.unknowns += 1
        if not cert.irreducible:
            self.reducible += 1

    def summary(self) -> str:
        return (
            f"searched {self.points} points: {self.hits} monogenic strictly-Perron, "
            f"{self.misses} with G not squarefree, {self.unknowns} unknown, "
            f"{self.reducible} reducible"
        )


def run_search(spec: SearchSpec, tally: SearchTally | None = None) -> Iterator[Certificate]:
    """Yield certificates in deterministic order: (n, a) pairs as given by
    the spec, primes ascending up to and including p_max."""
    primes = primes_below(spec.p_max + 1)
    for n, a in spec.pairs():
        for p in primes:
            cert = strictly_perron_certificate(
                n, a, p, budget=spec.budget, precision_bits=spec.precision_bits
            )
            if tally is not None:
                tally.record(cert)
            yield cert


def ledger_record(cert: Certificate, timestamp: str | None = None) -> str:
    """One immutable JSON line: the certificate plus timestamp and version."""
    record = cert.to_json_dict()
    record["timestamp"] = timestamp or datetime.now(timezone.utc).isoformat()
    record["version"] = __version__
    return json.dumps(record, separators=(", ", ": "))


@dataclass
class VerifyReport:
    points: int = 0
    failures: list[str] = field(default_factory=list)
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures and not self.truncated


MAX_REPORTED_FAILURES = 25


def run_verify(
    nmax: int = 8,
    amax: int = 6,
    p_limit: int = 300,
    budget: int = DEFAULT_BUDGET,
    precision_bits: int = 64,
    inject_fault: str | None = None,
) -> VerifyReport:
    """Check every promised family property on the grid n in [2, nmax],
    a in [1, amax], primes p < p_limit.

    Checked per point: both discriminant routes agree; both monogenicity
    routes agree (these two are enforced inside certificate construction);
    the constant-time irreducibility dichotomy matches the factorization
    oracle, at every degree up to ORACLE_MAX_DEGREE (the oracle's domain;
    above it the certificate rests on the dichotomy alone); real-root
    parity holds; when the headline hypothesis applies and G is squarefree
    the conclusion is "monogenic strictly-Perron"; and for even n with
    p > a+1 the unique negative real root has certified modulus > 1.

    inject_fault is the self-test hook: it is passed through to the
    certificate pipeline so the harness can demonstrate that a corrupted
    intermediate value actually trips a check.
    """
    report = VerifyReport()
    primes = primes_below(p_limit)
    for n in range(2, nmax + 1):
        for a in range(1, amax + 1):
            for p in primes:
                report.points += 1
                point = f"(n={n}, a={a}, p={p})"
                try:
                    cert = strictly_perron_certificate(
                        n,
                        a,
                        p,
                        budget=budget,
                        precision_bits=precision_bits,
                        _fault=inject_fault,
                    )
                except (OracleViolationError, PrecisionExhaustedError) as exc:
                    if not _note(report, f"{point}: pipeline check tripped: {exc}"):
                        return report
                    continue
                for problem in _point_problems(cert):
                    if not _note(report, f"{point}: {problem}"):
                        return report
    return report


def _note(report: VerifyReport, failure: str) -> bool:
    """Record a failure; False means the report is full and the sweep stops."""
    if len(report.failures) >= MAX_REPORTED_FAILURES:
        report.truncated = True
        return False
    report.failures.append(failure)
    return True


def _point_problems(cert: Certificate) -> list[str]:
    n, a, p = cert.params.n, cert.params.a, cert.params.p
    problems = []

    if n <= ORACLE_MAX_DEGREE:
        dichotomy = family_irreducible(n, a, p)
        oracle = is_irreducible(cert.poly)
        if dichotomy != oracle:
            problems.append(
                f"irreducibility dichotomy says {dichotomy}, factorization oracle says {oracle}"
            )

    if (
        cert.params.theorem_applicable
        and cert.g_status == "Squarefree"
        and cert.conclusion != "monogenic strictly-Perron"
    ):
        problems.append(
            f"hypotheses hold and G is squarefree but conclusion is {cert.conclusion!r}"
        )

    if cert.irreducible and n % 2 == 0 and p > a + 1:
        problems.extend(_negative_root_problem(cert))
    return problems


def _negative_root_problem(cert: Certificate) -> list[str]:
    """For even n past the reducible edge, the unique negative real root
    must sit strictly outside the unit circle (certified)."""
    census = real_axis_profile(
        cert.poly, precision_bits=cert.classification.precision_bits or 64
    )
    negatives = [
        i
        for i, flag in enumerate(census.real_flags)
        if flag and census.rootset.roots[i].value.real < 0
    ]
    if len(negatives) != 1:
        return [f"expected one negative real root, census found {len(negatives)}"]
    lo, _ = census.rootset.modulus_bounds()[negatives[0]]
    if not lo > 1:
        return [f"negative real root modulus lower bound {float(lo)} is not > 1"]
    return []
