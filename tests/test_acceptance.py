"""The acceptance gate: ten numbered criteria, one per test, in order.

Each test prints a single "C<k>: PASS — ..." line on the live terminal
(bypassing capture) so a full run reads as a checklist. Grids, tolerances
and time budgets are pinned inside each test on purpose — relaxing any of
them changes what a green run certifies.

Everything here goes through public package entry points on one side and an
independent route on the other: closed forms against resultants, the
trinomial local-index criterion against Dedekind factorization, certified
disks against Descartes parity, power iteration against the root solver,
and the squarefree engine against a literal square-divisor sieve.
"""
from __future__ import annotations

import time
from math import gcd

import pytest

from conftest import disks, dominant, poly, work
from perronpoly.classification import PERRON, STRICTLY_PERRON, classify
from perronpoly.family import FamilyParams
from perronpoly.intarith import factorize, primes_below
from perronpoly.irreducibility import factor_oracle
from perronpoly.matrices import (
    char_poly,
    companion_matrix,
    dominant_eigenvalue,
    matrix_irreducible,
    permuted_conjugate,
    strongly_connected,
)
from perronpoly.monogenicity import (
    DIVIDES,
    TrinomialParams,
    dedekind_local_test,
    jks_condition_v_quantity,
    jks_local_test,
    monogenic,
)
from perronpoly.polynomial import discriminant
from perronpoly.roots import complex_roots, real_axis_profile
from perronpoly.search import SearchSpec, SearchTally, run_search

P50 = primes_below(50)  # 15 primes
P100 = primes_below(100)  # 25 primes
P300 = primes_below(300)  # 62 primes

# The main grid: every family member with 2 <= n <= 9, 1 <= a <= 6, p < 50.
GRID = [(n, a, p) for n in range(2, 10) for a in range(1, 7) for p in P50]


def _report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def coprime_points():
    """The hypothesis grid for the local-index criteria: gcd(a, n) = 1,
    p < 300, with the even-degree p = a + 1 reducible points removed.
    Discriminant square primes are factored once and shared."""
    points = []
    for n in range(2, 10):
        for a in range(1, 7):
            if gcd(a, n) != 1:
                continue
            for p in P300:
                if n % 2 == 0 and p == a + 1:
                    continue
                disc = FamilyParams(n, a, p).disc
                fac = factorize(abs(disc))
                assert fac.complete, (n, a, p)
                squares = tuple(q for q, e in fac.factors if e >= 2)
                points.append((n, a, p, squares))
    return points


def test_c01_discriminant_identity(capsys):
    """Closed-form discriminant == resultant-based discriminant, exactly,
    on all 720 grid points, inside a minute."""
    t0 = time.perf_counter()
    bad = []
    for n, a, p in GRID:
        point = FamilyParams(n, a, p)
        closed = point.disc
        via_resultant = discriminant(point.poly)
        if closed != via_resultant:
            bad.append((n, a, p, closed, via_resultant))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(
        capsys, "C1", ok,
        f"closed form == resultant on all {len(GRID)} grid points ({elapsed:.1f}s)",
    )
    assert not bad, f"discriminant routes disagree: {bad[:5]}"
    assert elapsed < 60.0


def test_c02_monogenic_iff_squarefree(capsys, coprime_points):
    """Local-index verdict (trinomial criterion, checked against Dedekind at
    every prime) == squarefree test of
    G(p) = n^n p + a^n (n-1)^(n-1), across the whole coprime grid, with
    zero undecided points, inside five minutes."""
    t0 = time.perf_counter()
    mismatches = []
    unknowns = 0
    for n, a, p, _ in coprime_points:
        point = FamilyParams(n, a, p)
        verdict = monogenic(point.poly).verdict
        g_fact = factorize(point.g)
        square = g_fact.square_primes()
        if verdict.startswith("Unknown") or not (square or g_fact.complete):
            unknowns += 1
            continue
        if (verdict == "Monogenic") != (not square):
            mismatches.append((n, a, p, verdict, square))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and unknowns == 0 and elapsed < 300.0
    _report(
        capsys, "C2", ok,
        f"index test == squarefree(G) on {len(coprime_points)} points, "
        f"{unknowns} unknowns ({elapsed:.1f}s)",
    )
    assert not mismatches, f"criterion mismatches: {mismatches[:5]}"
    assert unknowns == 0
    assert elapsed < 300.0


def test_c03_jks_agrees_with_dedekind(capsys, coprime_points):
    """Both local index tests give the same verdict at every prime whose
    square divides the discriminant, including the worked witness
    x^2 - x - 11 at q = 3 where both must report index divisibility."""
    witness = TrinomialParams(2, 1, -1, -11)
    jw = jks_local_test(witness, 3)
    dw = dedekind_local_test(poly(-11, -1, 1), 3)
    assert jw.result == DIVIDES and dw.result == DIVIDES

    checked = 0
    disagreements = []
    for n, a, p, squares in coprime_points:
        if not squares:
            continue
        t = TrinomialParams(n, n - 1, -a, -p)
        f = FamilyParams(n, a, p).poly
        for q in squares:
            j = jks_local_test(t, q)
            d = dedekind_local_test(f, q)
            if j.result != d.result:
                disagreements.append((n, a, p, q, j.result, d.result))
            checked += 1
    ok = not disagreements and checked > 0
    _report(
        capsys, "C3", ok,
        f"trinomial and Dedekind tests agree at {checked} square primes; "
        "witness x^2-x-11 @ q=3 divides both ways",
    )
    assert not disagreements, f"local tests disagree: {disagreements[:5]}"
    assert checked > 0


def test_c04_reducibility_dichotomy(capsys):
    """The factor oracle finds the family reducible exactly at the
    even-degree p = a + 1 points (n <= 7, a <= 6, p < 100, every a)."""
    bad = []
    reducible_count = 0
    points = 0
    for n in range(2, 8):
        for a in range(1, 7):
            for p in P100:
                point = FamilyParams(n, a, p)
                f = point.poly
                by_oracle = factor_oracle(f) == ((f, 1),)
                predicted = not (n % 2 == 0 and p == a + 1)
                if by_oracle != predicted or point.irreducible != predicted:
                    bad.append((n, a, p, by_oracle, predicted))
                if not predicted:
                    reducible_count += 1
                points += 1
    ok = not bad
    _report(
        capsys, "C4", ok,
        f"factorization oracle confirms the dichotomy on {points} points "
        f"({reducible_count} reducible, all with 2 | n and p = a + 1)",
    )
    assert not bad, f"dichotomy violated: {bad[:5]}"


def test_c05_qualifying_points_are_strictly_perron(capsys):
    """Every grid point satisfying the hypotheses (gcd(a, n) = 1, p > a + 1,
    G(p) squarefree) classifies as Perron with the strictly-Perron subclass;
    no point is left ambiguous."""
    qualifying = 0
    bad = []
    for n, a, p in GRID:
        if gcd(a, n) != 1 or p <= a + 1:
            continue
        g_fact = factorize(FamilyParams(n, a, p).g)
        if g_fact.square_primes() or not g_fact.complete:
            continue
        qualifying += 1
        cls = classify(FamilyParams(n, a, p).poly)
        if cls.kind != PERRON or cls.subclass != STRICTLY_PERRON:
            bad.append((n, a, p, cls.kind, cls.subclass))
    ok = not bad and qualifying > 0
    _report(
        capsys, "C5", ok,
        f"all {qualifying} qualifying grid points classify as "
        "Perron/StrictlyPerron, none ambiguous",
    )
    assert not bad, f"misclassified qualifying points: {bad[:5]}"
    assert qualifying > 0


def test_c06_corpus_classifications(capsys):
    """Named anchors: the golden-ratio quadratic is Pisot; Lehmer's degree-10
    polynomial is Salem with its root pinned to 5 decimals; x^2 - x - 11 is
    strictly Perron but not monogenic; x^2 - x - 3 is both."""
    phi = classify(poly(-1, -1, 1))
    assert phi.headline == "Pisot"

    lehmer = classify(poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    assert lehmer.headline == "Salem"
    assert 1.17627 < float(lehmer.dominant) < 1.17629

    sp_not = classify(poly(-11, -1, 1))
    assert sp_not.headline == "StrictlyPerron"
    assert monogenic(poly(-11, -1, 1)).verdict == "NotMonogenic(3)"

    sp_yes = classify(poly(-3, -1, 1))
    assert sp_yes.headline == "StrictlyPerron"
    assert monogenic(poly(-3, -1, 1)).verdict == "Monogenic"

    _report(
        capsys, "C6", True,
        "corpus anchors hold (Pisot, Salem @ 1.17628..., strictly-Perron "
        "non-monogenic, strictly-Perron monogenic)",
    )


def test_c07_companion_matrix_checks(capsys):
    """On every grid point: the companion matrix returns the polynomial as
    its characteristic polynomial exactly; its digraph is strongly
    connected; power iteration lands within 1e-8 of the certified dominant
    root; and five seeded permutation conjugates stay irreducible with the
    same characteristic polynomial."""
    bad = []
    for n, a, p in GRID:
        f = FamilyParams(n, a, p).poly
        m = companion_matrix(f)
        if char_poly(m) != f:
            bad.append((n, a, p, "char-poly"))
            continue
        if not strongly_connected(m):
            bad.append((n, a, p, "connectivity"))
            continue
        lam = dominant_eigenvalue(m)
        dominant_modulus = float(abs(dominant(complex_roots(f))[0]))
        if abs(lam - dominant_modulus) > 1e-8:
            bad.append((n, a, p, "eigenvalue", lam, dominant_modulus))
            continue
        for seed in range(5):
            pm = permuted_conjugate(m, seed)
            if not matrix_irreducible(pm) or char_poly(pm) != f:
                bad.append((n, a, p, "conjugate", seed))
                break
    ok = not bad
    _report(
        capsys, "C7", ok,
        f"companion checks on all {len(GRID)} points: char poly exact, "
        "digraph strongly connected, power iteration within 1e-8, "
        "5 permutation conjugates each stay irreducible",
    )
    assert not bad, f"companion-side failures: {bad[:5]}"


def test_c08_real_root_counts_and_certified_moduli(capsys):
    """Descartes parity on the irreducible grid — one positive and one
    negative real root for even degree, one positive and none negative for
    odd — plus certified modulus > 1 for the negative root whenever
    p > a + 1, and for every root at the odd-degree p = a + 1 points."""
    bad = []
    irreducible_points = 0
    negative_certified = 0
    all_out_points = 0
    for n, a, p in GRID:
        point = FamilyParams(n, a, p)
        if not point.irreducible:
            continue
        irreducible_points += 1
        f = point.poly
        rap = real_axis_profile(f)
        want = (1, 1) if n % 2 == 0 else (1, 0)
        if (rap.positive, rap.negative) != want:
            bad.append((n, a, p, "parity", rap.positive, rap.negative))
            continue
        if n % 2 == 0 and p > a + 1:
            with work(rap.rootset):
                for real, (centre, radius) in zip(rap.real_flags, disks(rap.rootset)):
                    if real and centre.real < 0:
                        if not abs(centre) - radius > 1:
                            bad.append((n, a, p, "negative-root-modulus"))
                        else:
                            negative_certified += 1
        if n % 2 == 1 and p == a + 1:
            rs = complex_roots(f)
            with work(rs):
                all_out = all(abs(centre) - radius > 1 for centre, radius in disks(rs))
            if all_out:
                all_out_points += 1
            else:
                bad.append((n, a, p, "all-roots-outside"))
    ok = not bad
    _report(
        capsys, "C8", ok,
        f"sign counts match Descartes on {irreducible_points} irreducible "
        f"points; {negative_certified} negative roots certified outside the "
        f"unit circle; all roots outside at {all_out_points} odd p = a+1 points",
    )
    assert not bad, f"real-root failures: {bad[:5]}"
    assert negative_certified > 0 and all_out_points > 0


def test_c09_squarefree_engine_and_condition_v(capsys):
    """The squarefree engine (factorize, then square_primes) agrees with a
    literal square-divisor sieve on every N up to 10^6 (witness primes
    verified), and the local test's condition-(v) quantity equals -G(p)
    exactly on the whole grid."""
    t0 = time.perf_counter()
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    for d in range(2, 1001):
        step = d * d
        sieve[step::step] = bytearray(len(range(step, limit + 1, step)))
    mismatches = []
    for value in range(1, limit + 1):
        fact = factorize(value)
        square = fact.square_primes()
        if not fact.complete or (not square) != bool(sieve[value]):
            mismatches.append((value, fact))
            if len(mismatches) > 5:
                break
        elif square and value % (square[0] ** 2):
            mismatches.append((value, fact, "bad witness"))
            if len(mismatches) > 5:
                break
    elapsed = time.perf_counter() - t0

    quantity_bad = []
    for n, a, p in GRID:
        t = TrinomialParams(n, n - 1, -a, -p)
        if jks_condition_v_quantity(t) != -FamilyParams(n, a, p).g:
            quantity_bad.append((n, a, p))
    ok = not mismatches and not quantity_bad
    _report(
        capsys, "C9", ok,
        f"squarefree engine == sieve for N <= 1e6 ({elapsed:.1f}s); "
        f"condition-(v) quantity == -G(p) on all {len(GRID)} grid points",
    )
    assert not mismatches, f"squarefree disagreements: {mismatches}"
    assert not quantity_bad, f"condition-(v) mismatches: {quantity_bad[:5]}"


def test_c10_search_smoke(capsys):
    """Five representative (n, a) pairs swept to p <= 2000 each yield at
    least ten primes with squarefree G(p), inside two minutes."""
    t0 = time.perf_counter()
    short = []
    details = []
    for n, a in [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2)]:
        tally = SearchTally()
        for _ in run_search(SearchSpec((n,), (a,), 2000), tally):
            pass
        details.append(f"({n},{a}): {tally.hits}")
        if tally.hits < 10:
            short.append((n, a, tally.hits))
    elapsed = time.perf_counter() - t0
    ok = not short and elapsed < 120.0
    _report(
        capsys, "C10", ok,
        f"squarefree-G hits to p <= 2000 — {', '.join(details)} ({elapsed:.1f}s)",
    )
    assert not short, f"pairs below ten hits: {short}"
    assert elapsed < 120.0
