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
from .errors import InvalidInputError, OracleViolationError, PerronPolyError
from .errors import PrecisionExhaustedError
from .family import Certificate, strictly_perron_certificate
from .intarith import DEFAULT_BUDGET, check_budget, primes_below
from .irreducibility import is_irreducible


@dataclass(frozen=True)
class SearchSpec:
    """What to search: which (n, a) pairs, and the primes from p_min to p_max
    (both inclusive)."""

    n_values: tuple[int, ...]
    a_values: tuple[int, ...]
    p_max: int
    coprime_only: bool = False
    budget: int = DEFAULT_BUDGET
    p_min: int = 2

    def __post_init__(self) -> None:
        if not self.n_values or not self.a_values:
            raise InvalidInputError("the grid needs at least one n and one a")
        if any(n < 2 for n in self.n_values):
            raise InvalidInputError("the grid needs n >= 2")
        if any(a < 1 for a in self.a_values):
            raise InvalidInputError("the grid needs a >= 1")
        if self.p_max < 2:
            raise InvalidInputError("the grid needs at least one prime")
        if self.p_min > self.p_max:
            raise InvalidInputError("the grid needs p_min <= p_max")
        check_budget(self.budget)

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for n in self.n_values:
            for a in self.a_values:
                if self.coprime_only and gcd(a, n) != 1:
                    continue
                out.append((n, a))
        return out

    def points(self) -> Iterator[tuple[int, int, int]]:
        """(n, a, p) in search order: the pairs as given, primes ascending
        from p_min up to and including p_max within each pair."""
        primes = primes_below(self.p_max + 1, self.p_min)
        for n, a in self.pairs():
            for p in primes:
                yield n, a, p


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
        if not cert.params.irreducible:
            self.reducible += 1

    def summary(self) -> str:
        return (
            f"searched {self.points} points: {self.hits} monogenic strictly-Perron, "
            f"{self.misses} with G not squarefree, {self.unknowns} unknown, "
            f"{self.reducible} reducible"
        )


def run_search(spec: SearchSpec, tally: SearchTally | None = None) -> Iterator[Certificate]:
    """Yield certificates in the deterministic order of spec.points()."""
    for n, a, p in spec.points():
        cert = strictly_perron_certificate(n, a, p, budget=spec.budget)
        if tally is not None:
            tally.record(cert)
        yield cert


def ledger_record(cert: Certificate) -> str:
    """One immutable JSON line: the certificate plus timestamp and version."""
    record = cert.to_json_dict()
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    record["version"] = __version__
    return json.dumps(record)


@dataclass
class VerifyReport:
    points: int = 0  # points visited
    failures: list[str] = field(default_factory=list)
    truncated: bool = False
    grid: int = 0  # points on the grid, visited or not

    @property
    def passed(self) -> bool:
        return not self.failures and not self.truncated


MAX_REPORTED_FAILURES = 25


def run_verify(nmax: int, amax: int, p_limit: int, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check every promised family property on the grid n in [2, nmax],
    a in [1, amax], primes p < p_limit. An empty grid or a negative budget
    raises InvalidInputError, as in SearchSpec.

    Checked per point: both discriminant routes agree; both monogenicity
    routes agree (these two are enforced inside certificate construction);
    the constant-time irreducibility dichotomy matches is_irreducible
    (Eisenstein and dominance_criterion, then the factor oracle where
    neither decides) at every point; real-root
    parity holds; when the headline hypothesis applies and G is squarefree
    the conclusion is "monogenic strictly-Perron"; and for even n with
    p > a+1 the certified profile puts no root inside or on the unit circle
    (the certificate has already certified the one negative root, so this
    puts it outside).

    A point whose certificate raises becomes a failure that names the
    error, and the sweep goes on: a tripped cross-check or exhausted
    precision reads "pipeline check tripped", any other package error reads
    as its class name.
    """
    spec = SearchSpec(
        tuple(range(2, nmax + 1)), tuple(range(1, amax + 1)), p_limit - 1, budget=budget
    )
    points = list(spec.points())
    report = VerifyReport(grid=len(points))
    for n, a, p in points:
        report.points += 1
        try:
            cert = strictly_perron_certificate(n, a, p, budget=spec.budget)
        except (OracleViolationError, PrecisionExhaustedError) as exc:
            problems = [f"pipeline check tripped: {exc}"]
        except PerronPolyError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = _point_problems(cert)
        for problem in problems:
            if not _note(report, f"(n={n}, a={a}, p={p}): {problem}"):
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
    point = cert.params
    n, a, p = point.n, point.a, point.p
    problems = []

    dichotomy, witness = point.irreducible, is_irreducible(point.poly)
    if dichotomy != witness:
        problems.append(f"irreducibility dichotomy says {dichotomy}, is_irreducible says {witness}")

    if (
        cert.params.theorem_applicable
        and cert.g_status == "Squarefree"
        and cert.conclusion != "monogenic strictly-Perron"
    ):
        problems.append(
            f"hypotheses hold and G is squarefree but conclusion is {cert.conclusion!r}"
        )

    if point.irreducible and n % 2 == 0 and p > a + 1:
        profile = cert.classification.profile
        if profile[0] or profile[1]:
            problems.append(f"certified profile {profile} puts a root inside or on the unit circle")
    return problems
