"""Integer layer: primality, factorization, valuations, square primes.

sympy plays referee for everything it can answer independently.
"""
from __future__ import annotations

import math
import random
from collections import Counter

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from perronpoly import family, intarith
from perronpoly.errors import InvalidInputError
from perronpoly.family import FamilyParams, strictly_perron_certificate
from perronpoly.intarith import (
    _PRIME_EXIT_HIGH,
    _PRIME_EXIT_LOW,
    _SMALL_PRIMES,
    _TRIAL_BLOCK,
    _ECM_B1_STEPS,
    _ECM_UNITS_PER_B1,
    TRIAL_BOUND,
    Factorization,
    _factor_hard,
    _strong_lucas_probable_prime,
    _trial_primes,
    factorize,
    finish_factorization,
    is_prime,
    primes_below,
    trial_divide,
    valuation,
)


def value(fact: Factorization) -> int:
    """The integer fact factors: prod(q**e) * cofactor."""
    return fact.cofactor * math.prod(q**e for q, e in fact.factors)


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

    def test_square_is_composite(self):
        # On a square (D/n) is never -1, so the search for D would not end;
        # the test answers before it starts.
        assert not _strong_lucas_probable_prime(1000003**2)

    def test_d_sharing_a_factor_with_n_is_composite(self):
        # 539191 = 41 * 13151 is the least non-square n above 41^2, free of
        # _SMALL_PRIMES, whose Selfridge search meets (D/n) = 0 before -1:
        # (D/n) = 1 for D = 5, -7, ..., -39, then D = 41 shares 41 with n.
        n = 41 * 13151
        assert all(sympy.jacobi_symbol((-1) ** k * (5 + 2 * k) % n, n) == 1 for k in range(18))
        assert sympy.jacobi_symbol(41, n) == 0
        assert not _strong_lucas_probable_prime(n)


def test_primes_below_matches_sieve():
    assert primes_below(2) == []
    assert primes_below(3) == [2]
    assert primes_below(50) == list(sympy.primerange(2, 50))
    assert primes_below(10**4) == list(sympy.primerange(2, 10**4))


def test_primes_below_continues_past_the_sieve():
    assert primes_below(TRIAL_BOUND + 200) == list(sympy.primerange(2, TRIAL_BOUND + 200))


@pytest.mark.parametrize(
    "low, bound",
    [(20, 50), (2, 3), (3, 3), (TRIAL_BOUND - 100, TRIAL_BOUND + 200), (10**9, 10**9 + 101)],
)
def test_primes_below_from_a_lower_bound(low, bound):
    # The window is [low, bound): the table's slice, then is_prime from
    # max(low, TRIAL_BOUND + 1) on, so a window near 10^9 tests only its own
    # odd numbers.
    assert primes_below(bound, low) == list(sympy.primerange(low, bound))


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
        assert value(fact) == n

    def test_exponent_lookup(self):
        exponents = dict(factorize(2**5 * 7**2).factors)
        assert exponents.get(2, 0) == 5
        assert exponents.get(7, 0) == 2
        assert exponents.get(3, 0) == 0

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_and_primality(self, n):
        fact = factorize(n)
        assert value(fact) == n
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
        # Also for a complete trial-division result, which needs no curve.
        with pytest.raises(InvalidInputError, match="budget"):
            finish_factorization(trial_divide(n), budget=-1)
        with pytest.raises(InvalidInputError, match="budget"):
            factorize(n, budget=-1)

    @given(st.integers(min_value=1, max_value=10**24))
    @settings(max_examples=60, deadline=None)
    def test_steps_compose_to_factorize(self, n):
        partial = trial_divide(n)
        assert value(partial) == n
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


class TestLazyBlockTable:
    """The block table is built in chunks of 8, 8, 16, 32, ... blocks as walks
    reach them, and how far it is built never changes a result."""

    @pytest.fixture
    def chunks(self):
        """The table emptied, as at the start of a process."""
        intarith._trial_chunk.cache_clear()
        return intarith._trial_chunk

    def test_an_early_stop_builds_the_first_chunk_only(self, chunks):
        assert trial_divide(2**10 * 3**5 * 997) == Factorization(((2, 10), (3, 5), (997, 1)), 1)
        assert chunks.cache_info().currsize == 1

    def test_a_full_walk_builds_every_block(self, chunks):
        # A prime above 2**160 gets no primality exit, so the walk runs to
        # the end of the table, and a second walk builds nothing more.
        n = sympy.nextprime(2**170)
        for _ in range(2):
            assert trial_divide(n) == Factorization((), n)
            assert chunks.cache_info().currsize == intarith._TRIAL_CHUNKS
        built = [chunks(i) for i in range(intarith._TRIAL_CHUNKS)]
        assert [len(chunk) for chunk in built] == [8, 8, 16, 32, 64, 128, 256, 102]
        blocks = [block for chunk in built for block in chunk]
        assert [p for _, run in blocks for p in run] == list(_TABLE)
        assert all(len(run) == _TRIAL_BLOCK for _, run in blocks[:-1])
        assert all(product == math.prod(run) for product, run in blocks)

    def test_results_do_not_depend_on_how_far_the_table_is_built(self, chunks):
        # Smooth numbers times a prime of 1 to 13 digits, in seeded order,
        # so small inputs are walked before large ones and after them; the
        # two primes of 999979 * 999983 lie in the last chunk.
        rng = random.Random(7)
        inputs = [2 * 3, 999983**2 * 5, 999979 * 999983]
        for _ in range(150):
            n = sympy.prevprime(10 ** rng.randint(1, 13))
            for _ in range(rng.randint(0, 5)):
                n *= rng.choice(_TABLE[: rng.choice((20, 2000, len(_TABLE)))]) ** rng.randint(1, 3)
            inputs.append(n)
        trial_divide(sympy.nextprime(2**170))
        expected = [trial_divide(n) for n in inputs]
        assert expected[2] == Factorization(((999979, 1), (999983, 1)), 1)
        for order in (inputs, inputs[::-1]):
            chunks.cache_clear()
            results = dict(zip(order, map(trial_divide, order)))
            assert [results[n] for n in inputs] == expected


def _spy(monkeypatch, name):
    """Record the first argument of every call to intarith.<name>."""
    calls = []
    real = getattr(intarith, name)

    def spy(n, *rest):
        calls.append(n)
        return real(n, *rest)

    monkeypatch.setattr(intarith, name, spy)
    return calls


class TestPrimeExit:
    """A remainder in [2**32, 2**160) that passes is_prime ends the walk, and
    trial_divide still returns what the prime-by-prime pass returns."""

    @pytest.mark.parametrize(
        "q",
        [
            sympy.prevprime(_PRIME_EXIT_LOW), sympy.nextprime(_PRIME_EXIT_LOW),
            sympy.prevprime(_PRIME_EXIT_HIGH), sympy.nextprime(_PRIME_EXIT_HIGH),
        ],
        ids=["below-low", "above-low", "below-high", "above-high"],
    )
    @pytest.mark.parametrize("smooth", [1, 2**3 * 3**2 * 5, 7**2 * 1009 * 7919])
    def test_agrees_at_the_edges_of_the_window(self, monkeypatch, q, smooth):
        tested = _spy(monkeypatch, "is_prime")
        assert trial_divide(smooth * q) == _reference_trial_divide(smooth * q)
        # Each smooth part is shed far below sqrt(q), so q is tested exactly
        # when it lies inside the window.
        assert (q in tested) == (_PRIME_EXIT_LOW <= q < _PRIME_EXIT_HIGH)

    @pytest.mark.parametrize("smooth", [1, 2**5 * 3 * 7919])
    def test_two_primes_above_the_table_walk_to_the_last_block(self, monkeypatch, smooth):
        # q1 * q2 lies in the window but is composite: the walk goes on, and
        # tests it once, not at each of the blocks that leave it unchanged.
        q1 = sympy.nextprime(TRIAL_BOUND)
        q2 = sympy.nextprime(q1)
        n = smooth * q1 * q2
        blocks = _spy(monkeypatch, "gcd")
        tested = _spy(monkeypatch, "is_prime")
        fact = trial_divide(n)
        assert fact == _reference_trial_divide(n) and fact.cofactor == q1 * q2
        assert len(blocks) == 614
        assert tested.count(q1 * q2) == 1 and len(tested) == len(set(tested))

    def test_a_prime_cofactor_ends_the_walk(self, monkeypatch):
        # G = 7001 * q at (16, 1, 47), with q a 57-bit prime: the walk finds
        # 7001 in the eighth block, and q passes is_prime before the ninth.
        g = FamilyParams(16, 1, 47).g
        blocks = _spy(monkeypatch, "gcd")
        fact = trial_divide(g)
        assert fact == _reference_trial_divide(g)
        assert fact == Factorization(((7001, 1),), 123901566255496327)
        assert len(blocks) == 8

    def test_no_test_above_the_window(self, monkeypatch):
        # test_block_boundaries' 25-kbit product sheds two primes a block;
        # above the window it would be tested at each of them.
        starts = range(_TRIAL_BLOCK, len(_TABLE), _TRIAL_BLOCK)
        n = math.prod(_TABLE[start - 1] * _TABLE[start] for start in starts)
        tested = _spy(monkeypatch, "is_prime")
        assert trial_divide(n) == _reference_trial_divide(n)
        assert tested and all(m < _PRIME_EXIT_HIGH for m in tested)


# The cofactor trial division leaves of G(3) at (24, 1, 3). Brent rho once
# spent a 10**6 budget on it without a split; Q - 1 = 2 * 5^2 * 109 * 1249 *
# 5531 is 10**4-smooth, which once let Pollard p-1 split it, and ECM splits it
# on its fifth curve.
_PM1_Q, _PM1_R = 37649793551, 2005380716191859


@pytest.fixture
def ecm_curves(monkeypatch):
    """Spy on every ECM curve: a list of (n, sigma, B1, gcd)."""
    calls = []
    real = intarith._ecm_curve

    def spy(n, sigma, b1):
        calls.append((n, sigma, b1, real(n, sigma, b1)))
        return calls[-1][3]

    monkeypatch.setattr(intarith, "_ecm_curve", spy)
    return calls


class TestRhoBudget:
    # The cofactor of G(19) at (24, 1, 19), a 54-bit prime times a 60-bit
    # one, on which every budget below runs out without a split.
    COFACTOR = 25361860228155246276566903016942311

    # What each budget leaves: every curve it can pay for is spent (20 at
    # B1 = 250, 20 at 500, 20 at 1,000, then 2,000), and the rest, short of
    # the next curve, is kept.
    LEFT = {140_000: 10_000, 300_000: 1_000, 600_000: 2_000, 10**6: 38_000}

    @pytest.mark.parametrize("budget", [140_000, 300_000, 600_000, 10**6])
    def test_never_spends_more_than_the_budget(self, budget):
        assert trial_divide(FamilyParams(24, 1, 19).g).cofactor == self.COFACTOR
        cell, found = [budget], {}
        assert _factor_hard(self.COFACTOR, found, cell) == self.COFACTOR
        assert found == {}
        assert cell == [self.LEFT[budget]]


class TestEcm:
    @pytest.mark.parametrize("b1", _ECM_B1_STEPS)
    def test_the_plan_covers_every_prime_up_to_b2(self, b1):
        multiplier, plan = intarith._ecm_plan(b1)
        assert multiplier == math.lcm(*range(1, b1 + 1))
        # Every prime of (B1, B2] is m*D +- j for a giant step m and a baby
        # step j the plan pairs with it.
        d = intarith._ECM_D
        covered = set()
        for m, js in plan:
            for j in (intarith._ECM_BABY[i] for i in js):
                covered |= {m * d - j, m * d + j}
        stage_two = set(sympy.primerange(b1 + 1, intarith._ECM_B2_PER_B1 * b1 + 1))
        assert stage_two <= covered

    def test_splits_what_rho_cannot_at_the_default_budget(self, ecm_curves):
        n = _PM1_Q * _PM1_R
        fact = finish_factorization(trial_divide(n))
        assert fact.complete and fact.factors == ((_PM1_Q, 1), (_PM1_R, 1))
        assert dict(fact.factors) == sympy.factorint(n)
        assert [sigma for _, sigma, _, _ in ecm_curves] == [6, 7, 8, 9, 10]
        assert ecm_curves[-1] == (n, 10, 250, _PM1_Q)

    def test_each_curve_is_charged_its_units(self):
        # The five curves of the test above.
        n = _PM1_Q * _PM1_R
        cell, found = [10**6], {}
        assert _factor_hard(n, found, cell) == 1 and found == {_PM1_Q: 1, _PM1_R: 1}
        assert 10**6 - cell[0] == 5 * _ECM_UNITS_PER_B1 * 250 == 32_500

    @pytest.mark.parametrize("budget", [0, _ECM_UNITS_PER_B1 * 250 - 1])
    def test_a_budget_short_of_one_curve_keeps_the_cofactor(self, budget, ecm_curves):
        n = _PM1_Q * _PM1_R
        assert factorize(n, budget) == Factorization((), n)
        assert ecm_curves == []

    def test_budget_zero_runs_no_curve(self, ecm_curves):
        # Perfect-power extraction is free: a prime square is still
        # certified, and a composite square keeps its root unsplit.
        q = 10**9 + 7
        assert factorize(q * q, budget=0) == Factorization(((q, 2),), 1)
        n = _PM1_Q * _PM1_R
        assert factorize(n * n, budget=0) == Factorization((), n * n)
        assert ecm_curves == []

    def test_smooth_p_minus_1_primes_still_factor(self):
        # q - 1 = 2 * 191 * 557 * 677 * 727 and r - 1 = 2 * 347 * 397 * 503 * 887
        # are both 10**4-smooth, so Pollard p-1 used to find n itself and
        # hand n back to rho; the ECM schedule splits it.
        q, r = 104722894547, 122925386399
        assert sympy.isprime(q) and sympy.isprime(r)
        fact = factorize(q * r)
        assert fact.complete and fact.factors == ((q, 1), (r, 1))

    def test_a_gcd_of_n_moves_on_to_the_next_sigma(self, ecm_curves):
        # On the curve at sigma = 6, stage 2 completes the group order of
        # both primes, so the curve's gcd is n.
        q, r = 1000000093, 1000000103
        for prime in (q, r):
            assert intarith._ecm_curve(prime, 6, 250) == prime
        cell = [10**6]
        assert intarith._ecm(q * r, cell) == r
        assert [(sigma, g) for _, sigma, _, g in ecm_curves[2:]] == [(6, q * r), (7, 1), (8, r)]
        assert 10**6 - cell[0] == 3 * _ECM_UNITS_PER_B1 * 250

    @pytest.mark.parametrize("seed", range(6))
    def test_semiprimes_and_triples_against_sympy(self, seed):
        # One prime of 60 to 80 bits times one or two primes of 25 to 45 bits,
        # each confirmed by sympy.isprime. ECM alone returns a proper factor;
        # factorize is complete and finds the primes the test multiplied.
        rng = random.Random(seed)
        large = sympy.nextprime(rng.getrandbits(rng.randint(60, 80)))
        small = [sympy.nextprime(rng.getrandbits(rng.randint(25, 45))) for _ in range(1 + seed % 2)]
        primes = [large, *small]
        assert all(sympy.isprime(q) for q in primes)
        n = math.prod(primes)
        cell = [10**6]
        d = intarith._ecm(n, cell)
        assert d is not None and 1 < d < n and n % d == 0
        fact = factorize(n)
        assert fact.complete and dict(fact.factors) == Counter(primes)

    def test_reaches_only_two_sweep_low_points(self, ecm_curves):
        # On the sweep-low grid (n 2..12, a 1..3, p <= 29) trial division
        # finishes G everywhere but at two points, whose cofactors the first
        # curve splits.
        reached = {}
        for n in range(2, 13):
            for a in (1, 2, 3):
                for p in sympy.primerange(2, 30):
                    before = len(ecm_curves)
                    strictly_perron_certificate(n, a, p)
                    if len(ecm_curves) > before:
                        reached[n, a, p] = ecm_curves[before:]
        assert reached == {
            (11, 2, 7): [(2538691 * 8853847, 6, 250, 2538691)],
            (11, 2, 11): [(1241923 * 6339209, 6, 250, 1241923)],
        }

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
        # A budget of 33 curves that keeps each example short. The primes
        # come from sympy.nextprime and are confirmed by sympy.isprime.
        assert all(sympy.isprime(q) for q in primes)
        n = math.prod(primes)
        fact = factorize(n, budget=300_000)
        assert value(fact) == n
        if fact.complete:
            assert dict(fact.factors) == Counter(primes)
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
        # Two primes above TRIAL_BOUND: only ECM splits their product, so at
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

    # Finished by trial division alone and only after ECM: neither may read
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
    assert value(fact) == 8 * 5 * 77
