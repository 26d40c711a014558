"""Integer layer: primality, factorization, valuations, square primes.

sympy plays referee for everything it can answer independently.
"""
from __future__ import annotations

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from perronpoly import family, intarith
from perronpoly.errors import InvalidInputError
from perronpoly.family import FamilyParams, strictly_perron_certificate
from perronpoly.intarith import (
    _SMALL_PRIMES,
    _TRIAL_BLOCK,
    PM1_BOUND,
    PM1_CHECKPOINT,
    TRIAL_BOUND,
    Factorization,
    _factor_hard,
    _pm1_exponent,
    _strong_lucas_probable_prime,
    _trial_primes,
    factorize,
    finish_factorization,
    is_prime,
    primes_below,
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

    def test_just_above_two_to_the_64(self):
        # The first prime past the deterministic range goes through the
        # Miller-Rabin rounds and the strong Lucas test.
        assert is_prime(int(sympy.nextprime(2**64)))


class TestStrongLucas:
    # For a Mersenne number the Selfridge parameter D stays 5 and the ladder
    # runs over no bits, so 2^89 - 1 alone leaves the loop untested.
    @given(st.integers(min_value=2**63, max_value=2**129 - 1))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sympy(self, half):
        n = 2 * half + 1
        while not all(n % q for q in _SMALL_PRIMES):
            n += 2
        assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_pseudoprimes_pass(self, n):
        # The smallest strong Lucas pseudoprimes: composite, yet the test
        # passes them, as it must (BPSW relies on the Miller-Rabin rounds).
        assert not sympy.isprime(n)
        assert _strong_lucas_probable_prime(n)


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

    @pytest.mark.parametrize("n", [12 * (10**9 + 7), 8 * 1000003**2])
    def test_negative_budget_rejected(self, n):
        # Also for a complete trial-division result, which needs no rho.
        with pytest.raises(InvalidInputError, match="budget"):
            finish_factorization(trial_divide(n), budget=-1)
        with pytest.raises(InvalidInputError, match="budget"):
            factorize(n, budget=-1)

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
    return Factorization(tuple(found), rem)


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


# The cofactor trial division leaves of G(3) at (24, 1, 3). Rho alone spends
# a 10**6 budget on it without a split, but Q - 1 = 2 * 5^2 * 109 * 1249 * 5531
# divides the p-1 exponent, so one stage-1 attempt splits it.
_PM1_Q, _PM1_R = 37649793551, 2005380716191859


@pytest.fixture
def pm1_calls(monkeypatch):
    """Spy on every Pollard p-1 attempt: a list of (n, factor or None)."""
    calls = []
    real = intarith._pollard_pm1

    def spy(n):
        calls.append((n, real(n)))
        return calls[-1][1]

    monkeypatch.setattr(intarith, "_pollard_pm1", spy)
    return calls


class TestRhoBudget:
    # The cofactor of G(19) at (24, 1, 19), on which every budget below runs
    # out; rho used to overshoot them (to 196,606, 393,214, 786,430 and
    # 1,000,062) because neither its advance loop nor its batches were
    # clamped to what was left.
    COFACTOR = 25361860228155246276566903016942311

    @pytest.mark.parametrize("budget", [140_000, 300_000, 600_000, 10**6])
    def test_never_spends_more_than_the_budget(self, budget):
        assert trial_divide(FamilyParams(24, 1, 19).g).cofactor == self.COFACTOR
        cell, found = [budget], {}
        assert _factor_hard(self.COFACTOR, found, cell) == self.COFACTOR
        assert found == {}
        assert cell == [0]  # all of the budget, and no more


class TestPollardPm1:
    def test_exponent_is_lcm_up_to_the_bound(self):
        exponent = _pm1_exponent()
        assert exponent == math.lcm(*range(1, PM1_BOUND + 1))
        assert exponent.bit_length() == 14447

    def test_splits_what_rho_cannot_at_the_default_budget(self, pm1_calls):
        n = _PM1_Q * _PM1_R
        fact = finish_factorization(trial_divide(n))
        assert fact.complete and fact.factors == ((_PM1_Q, 1), (_PM1_R, 1))
        assert dict(fact.factors) == sympy.factorint(n)
        assert pm1_calls == [(n, _PM1_Q)]

    # On this input the first gcd past the checkpoint comes after 196,734 rho
    # iterations (the 2**16-step advance starts at 131,070, then one batch of
    # 128), so p-1 runs only with 14,447 units left after them.
    @pytest.mark.parametrize(
        "budget", [PM1_CHECKPOINT, PM1_CHECKPOINT + 14_446, 196_734 + 14_446]
    )
    def test_a_budget_short_of_the_attempt_keeps_the_cofactor(self, budget, pm1_calls):
        n = _PM1_Q * _PM1_R
        assert factorize(n, budget) == Factorization((), n)
        assert pm1_calls == []

    def test_the_attempt_is_charged_its_exponent_bits(self):
        n = _PM1_Q * _PM1_R
        cell, found = [10**6], {}
        assert _factor_hard(n, found, cell) == 1 and found == {_PM1_Q: 1, _PM1_R: 1}
        assert 10**6 - cell[0] == 196_734 + 14_447

    def test_budget_zero_runs_neither_rho_nor_pm1(self, monkeypatch, pm1_calls):
        spent = []
        real = intarith._brent_rho

        def rho_spy(n, cell):
            before = cell[0]
            d = real(n, cell)
            spent.append(before - cell[0])
            return d

        monkeypatch.setattr(intarith, "_brent_rho", rho_spy)
        n = _PM1_Q * _PM1_R
        assert factorize(n, budget=0) == Factorization((), n)
        assert spent == [0] and pm1_calls == []

    def test_a_gcd_of_n_falls_back_to_rho(self, pm1_calls):
        # q - 1 = 2 * 191 * 557 * 677 * 727 and r - 1 = 2 * 347 * 397 * 503 * 887
        # both divide the exponent, so p-1 finds n itself; rho, resumed, splits
        # n after about 4.7 * 10**5 iterations.
        q, r = 104722894547, 122925386399
        fact = factorize(q * r)
        assert fact.complete and fact.factors == ((q, 1), (r, 1))
        assert pm1_calls == [(q * r, None)]

    def test_never_runs_where_rho_splits_before_the_checkpoint(self, pm1_calls):
        # The sweep-low grid (n 2..12, a 1..3, p <= 29), and a point where rho
        # needs 113,790 iterations on G.
        for n in range(2, 13):
            for a in (1, 2, 3):
                for p in sympy.primerange(2, 30):
                    strictly_perron_certificate(n, a, p)
        cert = strictly_perron_certificate(8, 1, sympy.nextprime(2**61))
        assert cert.g_status == "Squarefree"
        assert pm1_calls == []

    @given(
        st.lists(
            st.integers(6, 12).flatmap(
                lambda e: st.integers(10**e, min(10 ** (e + 1), 10**13 - 100))
            ).map(sympy.nextprime),
            min_size=2,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_products_of_large_primes_against_sympy(self, primes):
        # A budget that reaches the p-1 checkpoint but keeps each example short.
        n = math.prod(primes)
        fact = factorize(n, budget=300_000)
        assert fact.value() == n
        if fact.complete:
            assert dict(fact.factors) == sympy.factorint(n)
        else:
            assert fact.cofactor > 1 and not sympy.isprime(fact.cofactor)


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
    """Whether N is squarefree, read off its Factorization.square_primes."""

    def test_matches_the_verdict_of_a_full_factorization(self):
        # Finishing adds only primes above every prime trial division found,
        # so the square primes trial division shows are the first ones.
        for n in list(range(1, 2000)) + [(2**61 - 1) ** 2 * 3, (10**6 + 3) * (10**6 + 33)]:
            partial = trial_divide(n)
            full = finish_factorization(partial)
            assert full == factorize(n) and full.complete, n
            shown = partial.square_primes()
            assert full.square_primes()[: len(shown)] == shown, n

    def test_str_forms(self):
        assert family._g_status(Factorization(((3, 1),), 1)) == "Squarefree"
        assert family._g_status(Factorization(((3, 2),), 1)) == "NotSquarefree(3)"
        assert family._g_status(Factorization((), 91)) == "Unknown(91)"

    def test_range_against_sympy(self):
        for n in range(1, 5000):
            fact = factorize(n)
            assert fact.complete
            expected = [q for q, e in sorted(sympy.factorint(n).items()) if e >= 2]
            assert fact.square_primes() == expected, n
            for q in expected:
                assert n % q**2 == 0

    def test_witness_is_smallest_square_prime(self):
        assert factorize(2**2 * 3**2 * 5).square_primes()[0] == 2
        assert factorize(3 * 25 * 49).square_primes()[0] == 5

    def test_large_prime_square_certificate(self):
        # Perfect-power extraction: no factorization budget needed.
        p = 10**9 + 7
        fact = factorize(p * p, budget=0)
        assert fact.complete and fact.square_primes() == [p]

    def test_large_semiprime_certificate(self):
        # Two primes above TRIAL_BOUND: only rho splits their product, so at
        # budget 0 the question stays open, and the default budget settles it.
        p = int(sympy.prevprime(10**9))
        q = int(sympy.prevprime(p))
        assert not factorize(p * q, budget=0).complete
        fact = factorize(p * q)
        assert fact.complete and fact.square_primes() == []

    def test_budget_exhaustion_reports_unknown(self):
        n = (10**9 + 7) * (10**9 + 9) * (10**9 + 21) * (10**9 + 33)
        fact = factorize(n, budget=0)
        assert not fact.complete and fact.square_primes() == []
        assert fact.cofactor > 1

    def test_cofactor_share_counts(self):
        # A factored prime that also divides the unfinished cofactor squares
        # into N, whatever the rest of the cofactor turns out to be.
        q, r = 1000003, (10**9 + 7) * (10**9 + 9)
        assert Factorization(((q, 1),), q * r).square_primes() == [q]
        assert Factorization(((q, 1),), r).square_primes() == []

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            factorize(0)

    # Finished by trial division alone and only after rho: neither may read
    # a negative budget as an Unknown.
    @pytest.mark.parametrize(
        "n", [12, (10**9 + 7) * (10**9 + 9), (10**9 + 7) * (10**9 + 9) * (10**9 + 21)]
    )
    def test_negative_budget_rejected(self, n):
        with pytest.raises(InvalidInputError, match="budget"):
            factorize(n, budget=-1)

    @given(st.integers(min_value=1, max_value=10**8))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_sympy(self, n):
        fact = factorize(n)
        assert fact.complete
        expected = [q for q, e in sorted(sympy.factorint(n).items()) if e >= 2]
        assert fact.square_primes() == expected


def test_factorization_dataclass_value():
    fact = Factorization(((2, 3), (5, 1)), 77)
    assert fact.value() == 8 * 5 * 77
