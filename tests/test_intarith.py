"""Integer layer: primality, factorization, valuations, squarefree detection.

sympy plays referee for everything it can answer independently.
"""
from __future__ import annotations

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from perronpoly.errors import InvalidInputError
from perronpoly.family import FamilyParams
from perronpoly.intarith import (
    _TRIAL_BLOCK,
    TRIAL_BOUND,
    Factorization,
    SquarefreeStatus,
    _trial_primes,
    factorize,
    finish_factorization,
    is_prime,
    primes_below,
    squarefree_status,
    squarefree_status_of,
    trial_divide,
    valuation,
)


class TestIsPrime:
    def test_small_range_against_sympy(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_classic_pseudoprimes_rejected(self):
        # Carmichael numbers and strong pseudoprimes to small bases.
        for n in [561, 1105, 1729, 2465, 2821, 6601, 8911, 2047, 3277, 465658903]:
            assert not is_prime(n), n

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**89 - 1)
        assert is_prime(10**18 + 9)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287

    @given(st.integers(min_value=2, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)


def test_primes_below_matches_sieve():
    assert primes_below(2) == []
    assert primes_below(3) == [2]
    assert primes_below(50) == list(sympy.primerange(2, 50))
    assert primes_below(10**4) == list(sympy.primerange(2, 10**4))


def test_primes_below_continues_past_the_sieve():
    assert primes_below(TRIAL_BOUND + 200) == list(sympy.primerange(2, TRIAL_BOUND + 200))


class TestFactorize:
    def test_doc_example(self):
        assert factorize(604800).factors == ((2, 7), (3, 3), (5, 2), (7, 1))

    def test_one(self):
        f = factorize(1)
        assert f.factors == () and f.cofactor == 1 and f.complete

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            factorize(0)
        with pytest.raises(InvalidInputError):
            factorize(-6)

    def test_against_sympy_range(self):
        for n in range(1, 3000):
            fact = factorize(n)
            assert fact.complete
            assert dict(fact.factors) == sympy.factorint(n), n

    def test_large_semiprime(self):
        p, q = 10**9 + 7, 10**9 + 9
        fact = factorize(p * q)
        assert fact.complete
        assert fact.factors == ((p, 1), (q, 1))

    def test_perfect_power_of_large_prime(self):
        p = 10**9 + 7
        fact = factorize(p**3)
        assert fact.factors == ((p, 3),)

    def test_budget_exhaustion_leaves_honest_cofactor(self):
        n = (10**9 + 7) * (10**9 + 9) * (10**9 + 21)
        fact = factorize(n, budget=0)
        assert not fact.complete
        assert fact.cofactor > 1
        assert fact.value() == n

    def test_exponent_lookup(self):
        fact = factorize(2**5 * 7**2)
        assert fact.exponent(2) == 5
        assert fact.exponent(7) == 2
        assert fact.exponent(3) == 0

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_and_primality(self, n):
        fact = factorize(n)
        assert fact.value() == n
        for p, e in fact.factors:
            assert e >= 1 and sympy.isprime(p)


class TestTwoSteps:
    def test_trial_step_stops_at_the_bound(self):
        q = 1000003  # the first prime above TRIAL_BOUND
        partial = trial_divide(2**3 * 5 * q * q)
        assert partial.factors == ((2, 3), (5, 1))
        assert partial.cofactor == q * q and not partial.complete
        assert finish_factorization(partial).factors == ((2, 3), (5, 1), (q, 2))

    def test_trial_step_keeps_a_prime_cofactor(self):
        # Nothing up to sqrt(cofactor) divides it, so it is prime.
        q = 10**9 + 7
        partial = trial_divide(12 * q)
        assert partial.factors == ((2, 2), (3, 1), (q, 1)) and partial.complete
        assert finish_factorization(partial) is partial

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            trial_divide(0)

    @given(st.integers(min_value=1, max_value=10**24))
    @settings(max_examples=60, deadline=None)
    def test_steps_compose_to_factorize(self, n):
        partial = trial_divide(n)
        assert partial.value() == n
        assert all(p <= TRIAL_BOUND or partial.complete for p, _ in partial.factors)
        assert all(partial.cofactor % p for p in (2, 3, 5, 7, 999983))
        assert finish_factorization(partial) == factorize(n)


def _reference_trial_divide(n: int) -> Factorization:
    """Trial division one table prime at a time, stopping at the first p with
    p*p above what is left: the pass trial_divide batches into block gcds."""
    found = []
    rem = n
    for p in _trial_primes():
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            found.append((p, e))
    if rem > 1 and math.isqrt(rem) <= TRIAL_BOUND:
        found.append((rem, 1))
        rem = 1
    return Factorization(tuple(found), rem, rem == 1)


_TABLE = _trial_primes()


class TestBlockTrialDivision:
    """trial_divide returns exactly what the prime-by-prime pass returns."""

    def assert_agrees(self, n):
        assert trial_divide(n) == _reference_trial_divide(n), n

    def test_table_shape(self):
        assert len(_TABLE) == 78498 and _TABLE[-1] == 999983
        assert len(_TABLE) % _TRIAL_BLOCK == 34  # a short last block

    @pytest.mark.parametrize(
        "n",
        [
            1, 2, 999983, 1000003,
            999983**2, 999979 * 999983,
            999983 * 1000003,  # above 10**12, so the walk reaches the last block
            2**200,
        ],
    )
    def test_edges_of_the_table(self, n):
        self.assert_agrees(n)

    def test_block_boundaries(self):
        # The last prime of every block times the first of the next: all of
        # them at once, and alone at the first and last boundaries, where the
        # walk stops right after the boundary.
        starts = range(_TRIAL_BLOCK, len(_TABLE), _TRIAL_BLOCK)
        pairs = [_TABLE[start - 1] * _TABLE[start] for start in starts]
        self.assert_agrees(math.prod(pairs))
        self.assert_agrees(math.prod(pairs) ** 2)
        for pair in pairs[:8] + pairs[-8:]:
            self.assert_agrees(pair)

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("a", [1, 2])
    def test_family_g_at_high_degree(self, n, a):
        for p in _TABLE[:14]:
            self.assert_agrees(FamilyParams(n, a, p).g)

    @pytest.mark.parametrize(
        "p", [sympy.nextprime(10**9), sympy.nextprime(10**9 + 7), sympy.nextprime(2**61)]
    )
    def test_family_g_at_large_p(self, p):
        for n in range(3, 9):
            for a in (1, 2, 3):
                self.assert_agrees(FamilyParams(n, a, p).g)

    @given(
        st.lists(
            st.tuples(st.integers(0, len(_TABLE) - 1), st.integers(1, 4)), max_size=6
        ),
        st.one_of(st.just(1), st.integers(TRIAL_BOUND, 10**15).map(sympy.nextprime)),
    )
    @settings(max_examples=100, deadline=None)
    def test_smooth_part_times_a_large_prime(self, powers, cofactor):
        n = cofactor
        for i, e in powers:
            n *= _TABLE[i] ** e
        self.assert_agrees(n)


class TestValuation:
    def test_doc_example(self):
        assert valuation(3, 45) == 2

    def test_negative_argument(self):
        assert valuation(2, -48) == 4

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            valuation(5, 0)

    def test_composite_q_rejected(self):
        with pytest.raises(InvalidInputError):
            valuation(4, 16)

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_defining_property(self, q, n):
        e = valuation(q, n)
        assert n % q**e == 0
        assert (n // q**e) % q != 0


class TestSquarefreeStatus:
    def test_matches_the_verdict_of_a_full_factorization(self):
        for n in list(range(1, 2000)) + [(2**61 - 1) ** 2 * 3, (10**6 + 3) * (10**6 + 33)]:
            assert squarefree_status(n) == squarefree_status_of(factorize(n)), n

    def test_parse_roundtrip(self):
        for s in [
            SquarefreeStatus.squarefree(),
            SquarefreeStatus.not_squarefree(7),
            SquarefreeStatus.unknown(10**20 + 1),
        ]:
            assert SquarefreeStatus.parse(str(s)) == s

    def test_str_forms(self):
        assert str(SquarefreeStatus.squarefree()) == "Squarefree"
        assert str(SquarefreeStatus.not_squarefree(3)) == "NotSquarefree(3)"
        assert str(SquarefreeStatus.unknown(91)) == "Unknown(91)"

    def test_range_against_sympy(self):
        for n in range(1, 5000):
            status = squarefree_status(n)
            assert status.is_decided
            expected = all(e == 1 for e in sympy.factorint(n).values())
            assert status.is_squarefree == expected, n
            if not expected:
                assert status.witness is not None
                assert n % status.witness**2 == 0

    def test_witness_is_smallest_square_prime(self):
        assert squarefree_status(2**2 * 3**2 * 5).witness == 2
        assert squarefree_status(3 * 25 * 49).witness == 5

    def test_large_prime_square_certificate(self):
        # Perfect-power shortcut: no factorization budget needed.
        p = 10**9 + 7
        status = squarefree_status(p * p, budget=0)
        assert status == SquarefreeStatus.not_squarefree(p)

    def test_large_semiprime_certificate(self):
        # A non-square cofactor below TRIAL_BOUND**3 with no prime factor
        # below TRIAL_BOUND has exactly two prime divisors, so it is
        # certified squarefree without any factorization budget.
        p = int(sympy.prevprime(10**9))
        q = int(sympy.prevprime(p))
        status = squarefree_status(p * q, budget=0)
        assert status.is_squarefree

    def test_budget_exhaustion_reports_unknown(self):
        n = (10**9 + 7) * (10**9 + 9) * (10**9 + 21) * (10**9 + 33)
        status = squarefree_status(n, budget=0)
        assert not status.is_decided
        assert status.kind == "unknown"
        assert status.cofactor is not None and status.cofactor > 1

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            squarefree_status(0)

    @given(st.integers(min_value=1, max_value=10**8))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_sympy(self, n):
        status = squarefree_status(n)
        assert status.is_decided
        expected = all(e == 1 for e in sympy.factorint(n).values())
        assert status.is_squarefree == expected


def test_factorization_dataclass_value():
    fact = Factorization(((2, 3), (5, 1)), 77, False)
    assert fact.value() == 8 * 5 * 77
