"""Companion matrices, digraph connectivity, Perron-Frobenius numerics."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dominant, poly
from perronpoly.errors import InvalidInputError, NonConvergenceError
from perronpoly.family import FamilyParams
from perronpoly.matrices import (
    adjacency,
    char_poly,
    companion_matrix,
    dominant_eigenvalue,
    is_nonnegative,
    matrix_irreducible,
    permuted_conjugate,
    strongly_connected,
    strongly_connected_components,
)
from perronpoly.polynomial import IntPoly
from perronpoly.roots import complex_roots

monic_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda body: IntPoly(tuple(body) + (1,))
)


class TestCompanion:
    def test_layout(self):
        # Constant column on the right, shifted identity below the diagonal.
        assert companion_matrix(poly(-7, 0, -2, 1)) == (
            (0, 0, 7),
            (1, 0, 0),
            (0, 1, 2),
        )

    def test_family_layout_corners(self):
        m = companion_matrix(poly(-5, 0, 0, -3, 1))  # x^4 - 3x^3 - 5
        assert m[0][-1] == 5  # p in the top-right corner
        assert m[-1][-1] == 3  # a in the bottom-right corner
        assert all(m[i + 1][i] == 1 for i in range(3))

    def test_rejects_non_monic(self):
        with pytest.raises(InvalidInputError):
            companion_matrix(poly(1, 2))

    def test_family_member_is_irreducible(self):
        # The subdiagonal 1s and p in the top-right corner close one cycle
        # through every index, so the pattern digraph is strongly connected.
        assert matrix_irreducible(companion_matrix(FamilyParams(4, 3, 5).poly))

    @given(monic_polys)
    @settings(max_examples=80, deadline=None)
    def test_char_poly_inverts(self, f):
        if f.degree < 1:
            return
        assert char_poly(companion_matrix(f)) == f


class TestCharPoly:
    def test_identity(self):
        assert char_poly(((1, 0), (0, 1))) == poly(1, -2, 1)

    def test_diagonal(self):
        assert char_poly(((2, 0), (0, 3))) == poly(6, -5, 1)

    def test_nilpotent(self):
        assert char_poly(((0, 1), (0, 0))) == poly(0, 0, 1)

    def test_rejects_ragged(self):
        with pytest.raises(InvalidInputError):
            char_poly(((1, 2), (3,)))


def naive_components(adj):
    """Reference partition by pairwise reachability, O(n^3)."""
    n = len(adj)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        seen = {i}
        frontier = [i]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        for j in seen:
            reach[i][j] = True
    comps = {}
    for i in range(n):
        key = frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
        comps.setdefault(key, set()).add(i)
    return {frozenset(c) for c in comps.values()}


class TestConnectivity:
    def test_cycle_connected(self):
        cyc = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert strongly_connected(cyc)

    def test_triangular_not_connected(self):
        tri = ((1, 1), (0, 1))
        assert not strongly_connected(tri)

    def test_one_by_one_needs_self_loop(self):
        assert strongly_connected(((5,),))
        assert not strongly_connected(((0,),))

    def test_deep_path_no_recursion_limit(self):
        # A 5000-cycle: digs far deeper than the default Python stack.
        n = 5000
        m = tuple(
            tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n)
        )
        assert strongly_connected(m)

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_components_match_naive(self, rows):
        m = tuple(tuple(r) for r in rows)
        adj = adjacency(m)
        ours = {frozenset(c) for c in strongly_connected_components(adj)}
        assert ours == naive_components(adj)


class TestDominantEigenvalue:
    def test_fibonacci_like(self):
        # char poly x^2 - x - 3, lambda = (1 + sqrt 13) / 2.
        lam = dominant_eigenvalue(((0, 3), (1, 1)))
        assert lam == pytest.approx((1 + 13**0.5) / 2, rel=1e-10)

    def test_scalar(self):
        assert dominant_eigenvalue(((7,),)) == pytest.approx(7.0)

    def test_zero_matrix(self):
        assert dominant_eigenvalue(((0, 0), (0, 0))) == 0.0

    def test_unweighted_cycle_converges_instantly(self):
        # The all-ones start is the exact Perron vector of a permutation
        # matrix, so the Collatz-Wielandt bracket closes at once.
        cyc = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert dominant_eigenvalue(cyc) == pytest.approx(1.0)

    def test_imprimitive_weighted_cycle_raises(self):
        # rho = sqrt(2), but the iterate oscillates with period two and the
        # bracket never closes; honest failure instead of a made-up number.
        with pytest.raises(NonConvergenceError):
            dominant_eigenvalue(((0, 2), (1, 0)), max_iters=2000)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInputError):
            dominant_eigenvalue(((0, -3), (1, 1)))

    def test_matches_root_solver_on_family_members(self):
        for coeffs in [(-3, -1, 1), (-5, 0, -1, 1), (-7, 0, 0, -4, 1)]:
            f = IntPoly(coeffs)
            lam = dominant_eigenvalue(companion_matrix(f))
            dom = float(dominant(complex_roots(f))[0].real)
            assert lam == pytest.approx(dom, abs=1e-8)


class TestPermutedConjugate:
    def test_deterministic(self):
        m = companion_matrix(poly(-5, 0, 0, -3, 1))
        assert permuted_conjugate(m, 17) == permuted_conjugate(m, 17)

    def test_entry_multiset_preserved(self):
        m = companion_matrix(poly(-5, 0, 0, -3, 1))
        flat = sorted(x for row in m for x in row)
        for seed in range(5):
            conj = permuted_conjugate(m, seed)
            assert sorted(x for row in conj for x in row) == flat

    @given(monic_polys, st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_char_poly_invariant(self, f, seed):
        if f.degree < 1:
            return
        m = companion_matrix(f)
        assert char_poly(permuted_conjugate(m, seed)) == f

    def test_connectivity_invariant(self):
        m = companion_matrix(poly(-2, -2, 0, 1))
        for seed in range(8):
            assert matrix_irreducible(permuted_conjugate(m, seed))


def test_is_nonnegative():
    assert is_nonnegative(((0, 1), (2, 3)))
    assert not is_nonnegative(((0, -1), (2, 3)))
