"""Companion matrices, their digraphs, and Perron-Frobenius numerics.

Matrices are plain tuples of tuples of Python ints; nothing here needs a
linear-algebra package. The characteristic polynomial is computed by the
Faddeev-LeVerrier recurrence, whose divisions are exact over the integers
(each is asserted, so a platform bug cannot silently corrupt a result).
Strong connectivity of the nonzero-pattern digraph is two reachability
sweeps from one vertex, and the dominant eigenvalue comes from straight power
iteration with a sup-norm ratio estimate.
"""
from __future__ import annotations

import random

from .errors import InvalidInputError, NonConvergenceError, OracleViolationError
from .polynomial import IntPoly

Matrix = tuple[tuple[int, ...], ...]

POWER_ITERATION_CAP = 200000
POWER_ITERATION_REL_TOL = 1e-10


def _validate_square(m: Matrix) -> int:
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise InvalidInputError("expected a nonempty square matrix")
    return n


def companion_matrix(f: IntPoly) -> Matrix:
    """Companion matrix of monic f, in last-column form.

    Row 0 is (0, ..., 0, -c_0), rows below carry 1 on the subdiagonal, and
    column n-1 holds -c_i in row i. For x^n - a*x^(n-1) - p this puts p in
    the top-right corner, a in the bottom-right corner, and 1s under the
    diagonal, which keeps the matrix entrywise nonnegative exactly when
    a, p >= 0.

    >>> companion_matrix(IntPoly((-7, 0, -2, 1)))
    ((0, 0, 7), (1, 0, 0), (0, 1, 2))
    """
    if f.degree < 1 or not f.is_monic:
        raise InvalidInputError("companion_matrix needs a monic polynomial of degree >= 1")
    n = f.degree
    rows = []
    for i in range(n):
        row = [0] * n
        if i >= 1:
            row[i - 1] = 1
        row[n - 1] = -f.coeff(i)
        rows.append(tuple(row))
    return tuple(rows)


def char_poly(m: Matrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - M), exactly.

    Faddeev-LeVerrier: N_0 = I, and for k = 1..n
        c_{n-k} = -tr(M N_{k-1}) / k,      N_k = M N_{k-1} + c_{n-k} I,
    every division landing on an integer. det(xI - M) = x^n + sum c_k x^k.
    """
    n = _validate_square(m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [
            [sum(m[i][t] * acc[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        if trace % k != 0:
            raise OracleViolationError("characteristic-polynomial recurrence left a remainder")
        c = -(trace // k)
        coeffs[n - k] = c
        for i in range(n):
            prod[i][i] += c
        acc = prod
    return IntPoly(tuple(coeffs))


def strongly_connected(m: Matrix) -> bool:
    """Whether the nonzero-pattern digraph of m (edge i -> j when
    m[i][j] != 0) is strongly connected: vertex 0 reaches every vertex both
    along the edges and along the reversed edges.

    A 1x1 matrix counts only when its entry is nonzero: the single vertex
    must reach itself along an actual edge, i.e. carry a self-loop.
    """
    n = _validate_square(m)
    if n == 1:
        return m[0][0] != 0
    out = [[j for j, entry in enumerate(row) if entry != 0] for row in m]
    into: list[list[int]] = [[] for _ in range(n)]
    for i, targets in enumerate(out):
        for j in targets:
            into[j].append(i)
    return _reaches_all(out) and _reaches_all(into)


def _reaches_all(adj: list[list[int]]) -> bool:
    """Whether vertex 0 reaches every vertex along the out-neighbour lists
    adj; iterative, so deep graphs cannot overflow the Python stack."""
    seen = [False] * len(adj)
    seen[0] = True
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def is_nonnegative(m: Matrix) -> bool:
    _validate_square(m)
    return all(entry >= 0 for row in m for entry in row)


def matrix_irreducible(m: Matrix) -> bool:
    """Irreducibility of a nonnegative matrix in the Perron-Frobenius sense:
    no permutation similarity to a nontrivial block-triangular form, which
    holds exactly when the nonzero-pattern digraph is strongly connected."""
    if not is_nonnegative(m):
        raise InvalidInputError("matrix irreducibility is defined here for nonnegative matrices")
    return strongly_connected(m)


def dominant_eigenvalue(
    m: Matrix,
    rel_tol: float = POWER_ITERATION_REL_TOL,
    max_iters: int = POWER_ITERATION_CAP,
) -> float:
    """Spectral radius of an entrywise-nonnegative matrix by power iteration.

    Starts from the all-ones vector and renormalizes in the sup norm. The
    stop rule is the Collatz-Wielandt bracket: whenever the iterate v is
    strictly positive,

        min_i (Mv)_i / v_i  <=  rho(M)  <=  max_i (Mv)_i / v_i,

    so the iteration returns once the bracket width shrinks to a hundredth
    of rel_tol times the estimate — a certified enclosure, immune to two
    successive norms agreeing by coincidence. Imprimitive or otherwise
    non-converging patterns hit the iteration cap and raise
    NonConvergenceError rather than returning a guess.
    """
    n = _validate_square(m)
    if not is_nonnegative(m):
        raise InvalidInputError("power iteration expects a nonnegative matrix")
    vec = [1.0] * n
    for _ in range(max_iters):
        nxt = [sum(m[i][j] * vec[j] for j in range(n)) for i in range(n)]
        norm = max(nxt)
        if norm == 0.0:
            return 0.0
        if all(x > 0.0 for x in vec):
            lo = min(nxt[i] / vec[i] for i in range(n))
            hi = max(nxt[i] / vec[i] for i in range(n))
            if hi - lo <= rel_tol * hi * 0.01:
                return (lo + hi) / 2.0
        vec = [x / norm for x in nxt]
    raise NonConvergenceError(
        f"power iteration did not settle within {max_iters} steps"
    )


def permuted_conjugate(m: Matrix, seed: int) -> Matrix:
    """P M P^T for a deterministic seed-derived permutation matrix P.

    Conjugation relabels the digraph vertices, so the spectrum, the
    characteristic polynomial and strong connectivity are all unchanged;
    useful for exercising basis-independence.
    """
    n = _validate_square(m)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return tuple(
        tuple(m[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )
