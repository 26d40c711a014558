"""Certified complex root isolation for squarefree integer polynomials.

The solver runs Aberth-Ehrlich sweeps in double precision (_float_aberth) from
Bini's starting points on the circles of the Newton polygon (_newton_starts).
At DEFAULT_PRECISION_BITS those float approximations are certified as they
stand; only when their disks collide or are too wide for that precision, and
at every higher precision, are they refined at the precision at hand by the
same sweeps in Gaussian fixed point (_refine), and should the refined
approximations fail to certify, refined once more from one perturbed circle
of starting points (_initial_points).
Certification is a posteriori and exact: each approximation is rounded to a
common dyadic grid X / 2^k, and around it we place the Weierstrass disk of
radius

    deg(f) * |f(z_i)| / (|lc(f)| * prod_{j != i} |z_i - z_j|),

bounded from above in integer arithmetic (Horner on Gaussian integers, exact
squared distances, an integer square root rounded up). The union of these
disks contains every root of f, and when they are pairwise disjoint (an
exact integer inequality) each disk holds exactly one root.

A disk is kept as it was proven: integers x, y, r over a power of two 2^s
shared by its root set, for centre (x + iy) / 2^s and radius r / 2^s. Every
decision read off the disks is an integer inequality on squared quantities,
so nothing decided here is rounded.

Every decision escalates through one loop, escalate, with one cap. It
solves f at DEFAULT_PRECISION_BITS; whenever the disks collide or cannot
settle the question, it solves f again at doubled precision, at most
MAX_ESCALATIONS times per decision, and then raises PrecisionExhaustedError.
One float solve seeds every rung of a decision, and no root set outlives
it. Isolation itself (complex_roots), the real-axis profile and the
dominance decision (which tags every root against the unit circle) are
each one such decision. A float disk is only as narrow as double
precision allows, so the one root whose digits get printed is refined alone
(polish_real_root) instead of the whole set.

The solver assumes a squarefree f: complex_roots and real_axis_profile check
it with one gcd; the package's own callers pass input known to be squarefree
and call escalate directly.

Roots exactly on the unit circle can never be separated from it numerically;
they are handled exactly instead: for a palindromic polynomial the on-circle
root pairs biject with the real roots of its trace transform inside (-2, 2),
which a Sturm chain counts in integer arithmetic. A non-palindromic
irreducible polynomial of degree at least 2 has no unit-modulus root at all,
so escalation is guaranteed to terminate for it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from .polynomial import IntPoly, is_self_reciprocal, poly_gcd, sturm_count, trace_transform

DEFAULT_PRECISION_BITS = 64
MAX_ESCALATIONS = 4

_FLOAT_LIMIT = 1e280  # coefficient magnitude beyond which the float warmstart is skipped
_GUARD = 16  # bits of each radius bound below the centres' grid spacing


@dataclass(frozen=True)
class CertifiedRoot:
    """The disk of centre (x + iy) / 2^s and radius r / 2^s, where s is the
    scale of the root set (or of the polished root) it comes with."""

    x: int
    y: int
    r: int

    @property
    def norm(self) -> int:
        """x^2 + y^2: the centre's squared modulus times 4^s."""
        return self.x * self.x + self.y * self.y


@dataclass(frozen=True)
class CertifiedRootSet:
    """All roots of a squarefree polynomial, one per pairwise-disjoint disk,
    every disk on the grid 2^-scale."""

    roots: tuple[CertifiedRoot, ...]
    precision_bits: int
    scale: int


def sqrt_exceeds(a: int, b: int, c: int, strict: bool) -> bool:
    """Whether sqrt(a) >= sqrt(b) + c (> when strict) for integers a, b, c >= 0,
    that is d = a - b - c^2 >= 2c sqrt(b): d >= 0 and d^2 >= 4c^2 b. On one
    grid, |z_i| - r_i >= |z_j| + r_j is sqrt_exceeds(norm_i, norm_j, r_i + r_j)."""
    d = a - b - c * c
    if strict:
        return d > 0 and d * d > 4 * c * c * b
    return d >= 0 and d * d >= 4 * c * c * b


def _horner(coeffs, z):
    """coeffs[0] + coeffs[1] z + ... for a complex z, started from the
    leading coefficient (the step 0 * z + lead would be exact anyway). A zero
    coefficient adds nothing, so its addition is skipped."""
    it = reversed(coeffs)
    acc = next(it)
    for c in it:
        acc = acc * z + c if c else acc * z
    return acc


def _log2_int(v: int) -> float:
    b = v.bit_length()
    if b <= 900:
        return math.log2(v)
    return math.log2(v >> (b - 900)) + (b - 900)


def _fujiwara_radius(coeffs: tuple[int, ...]) -> float:
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    best = 0.5
    for k in range(1, n + 1):
        c = abs(coeffs[n - k])
        if c == 0:
            continue
        log_est = 1.0 + (_log2_int(c) - _log2_int(lead) - (1.0 if k == n else 0.0)) / k
        best = max(best, 2.0 ** min(log_est, 930.0))
    return best


def _initial_points(coeffs: tuple[int, ...]) -> list[complex]:
    """n jittered points on the circle of Fujiwara radius: the retry start."""
    n = len(coeffs) - 1
    rho = _fujiwara_radius(coeffs)
    pts = []
    for k in range(n):
        theta = (2.0 * cmath.pi * k + 0.37) / n + 0.29
        jitter = 1.0 + 0.05 * ((k * 0.6180339887) % 1.0)
        pts.append(rho * jitter * cmath.exp(1j * theta))
    return pts


def _newton_starts(coeffs: tuple[int, ...]) -> list[complex]:
    """Bini's starting points from the Newton polygon: for each edge of the
    upper convex hull of (i, log2 |c_i|), c_i != 0, of width m and slope
    -log2 r, m points evenly spaced on the circle of radius r, turned by an
    angle fixed per edge. Below a zero constant term, the part of the hull
    from 0 to the lowest nonzero coefficient is an edge of radius 0. Radii
    are capped at 2^930, as the Fujiwara radius is."""
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(coeffs):
        if c:
            y = _log2_int(abs(c))
            while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])
            ):
                hull.pop()
            hull.append((i, y))
    edges = [(hull[0][0], 0.0)] if hull[0][0] else []
    for (i, u), (j, v) in zip(hull, hull[1:]):
        edges.append((j - i, 2.0 ** min((u - v) / (j - i), 930.0)))
    pts = []
    for e, (m, r) in enumerate(edges):
        pts += [r * cmath.exp(1j * (2.0 * cmath.pi * k / m + 0.29 + 0.37 * e)) for k in range(m)]
    return pts


def _float_aberth(coeffs: tuple[int, ...]) -> list[complex] | None:
    """Double-precision warm start: Aberth-Ehrlich sweeps from the Newton
    polygon's starts (_newton_starts), updating them in place; None when it
    cannot be trusted.

    Stops once no approximation moves by 1e-14 relative to 1 + |z|, or after
    140 sweeps. An approximation whose derivative vanishes or that collides
    with another moves by 1e-7 * (1 + |z|). None when a coefficient exceeds
    _FLOAT_LIMIT, or as soon as a real or imaginary part reaches 1e300 (or is
    NaN). Like the roots, the approximations returned are closed under
    conjugation: when z_j is the one nearest conj(z_i) and z_i the one
    nearest conj(z_j), z_i becomes (z_i + conj(z_j)) / 2 (i = j for a real
    root, made real).
    """
    if any(abs(c) > _FLOAT_LIMIT for c in coeffs):
        return None
    zs = _newton_starts(coeffs)
    values = [float(c) for c in coeffs]
    deriv = [i * values[i] for i in range(1, len(values))]
    for _ in range(140):
        worst = 0
        for i, z in enumerate(zs):
            fpz = _horner(deriv, z)
            dzs = [z - zj for j, zj in enumerate(zs) if j != i]
            if fpz == 0 or 0 in dzs:
                zs[i] = z + 1e-7 * (1 + abs(z))
                worst = 1
                continue
            sigma = 0
            for dz in dzs:
                sigma += 1 / dz
            w = _horner(values, z) / fpz
            den = 1 - w * sigma
            corr = w if den == 0 else w / den
            zs[i] = z - corr
            if not (abs(zs[i].real) < 1e300 and abs(zs[i].imag) < 1e300):
                return None
            worst = max(worst, abs(corr) / (1 + abs(zs[i])))
        if worst < 1e-14:
            break
    partner = [min(range(len(zs)), key=lambda j: abs(z.conjugate() - zs[j])) for z in zs]
    return [
        (z + zs[j].conjugate()) / 2 if partner[j] == i else z
        for i, (z, j) in enumerate(zip(zs, partner))
    ]


def _man_exp(x: float) -> tuple[int, int]:
    """(m, e) with x = m * 2^e exactly."""
    num, den = x.as_integer_ratio()
    return num, 1 - den.bit_length()


def _on_grid(m: int, e: int, k: int) -> int:
    """m * 2^(e + k) rounded to the nearest integer."""
    s = e + k
    return m << s if s >= 0 else (m + (1 << (-s - 1))) >> -s


def _scaled_value(shifted: list[int], x: int, y: int) -> tuple[int, int]:
    """2^(kn) f((x + iy) / 2^k) as a Gaussian integer, by Horner, where
    shifted[j] = coeffs[j] * 2^(k(n - j))."""
    re, im = shifted[-1], 0
    for s in reversed(shifted[:-1]):
        re, im = re * x - im * y + s, re * y + im * x
    return re, im


def _refine(coeffs: tuple[int, ...], starts: list, prec: int, max_iters: int) -> list:
    """_float_aberth's sweeps from starts at precision prec (tolerance 2^-(prec + 8),
    nudge 2^-(prec // 2)) in Gaussian fixed point: each approximation is
    (X + iY) / 2^k, with k prec + 32 plus the bit length of the largest start,
    and every product and quotient is floored back to that grid. Returns the
    parts (X, -k), (Y, -k) of each approximation in turn, as _certify reads them.
    """
    parts = [_man_exp(v) for z in starts for v in (z.real, z.imag)]
    k = prec + 32 + max(0, max((m.bit_length() + e for m, e in parts if m), default=0))
    grid = [_on_grid(m, e, k) for m, e in parts]
    zs = list(zip(grid[::2], grid[1::2]))
    one = 1 << k
    on_grid = [c << k for c in coeffs]
    deriv = [i * c << k for i, c in enumerate(coeffs)][1:]

    def value(cs: list[int], x: int, y: int) -> tuple[int, int]:
        re, im = cs[-1], 0
        for c in reversed(cs[:-1]):
            re, im = ((re * x - im * y) >> k) + c, (re * y + im * x) >> k
        return re, im

    def quotient(a: int, b: int, c: int, d: int) -> tuple[int, int]:
        """(a + ib) / (c + id) on the grid."""
        den = c * c + d * d
        return ((a * c + b * d) << k) // den, ((b * c - a * d) << k) // den

    for _ in range(max_iters):
        settled = True
        for i, (x, y) in enumerate(zs):
            px, py = value(deriv, x, y)
            dzs = [(x - u, y - v) for j, (u, v) in enumerate(zs) if j != i]
            if not (px or py) or (0, 0) in dzs:
                zs[i] = (x + ((one + math.isqrt(x * x + y * y)) >> prec // 2), y)
                settled = False
                continue
            d2s = [a * a + b * b for a, b in dzs]
            sx = sum((a << 2 * k) // d2 for (a, _), d2 in zip(dzs, d2s))
            sy = -sum((b << 2 * k) // d2 for (_, b), d2 in zip(dzs, d2s))
            wx, wy = quotient(*value(on_grid, x, y), px, py)
            ex, ey = one - ((wx * sx - wy * sy) >> k), -((wx * sy + wy * sx) >> k)
            cx, cy = quotient(wx, wy, ex, ey) if ex or ey else (wx, wy)
            x, y = x - cx, y - cy
            zs[i] = (x, y)
            if (cx * cx + cy * cy) << 2 * (prec + 8) >= (one + math.isqrt(x * x + y * y)) ** 2:
                settled = False
        if settled:
            break
    return [(v, -k) for z in zs for v in z]


def _certify(coeffs: tuple[int, ...], parts: list, prec: int) -> CertifiedRootSet | None:
    """The root set of exact Weierstrass disks around the approximations
    whose real and imaginary parts are m * 2^e, (m, e) in turn in parts,
    labelled with precision prec; None when two disks meet.

    The centres are rounded to the nearest point of the grid X / 2^k, with k
    prec + 24 bits below the largest centre, so that the disks carry about
    that precision whatever the accuracy of parts. Each radius is bounded from
    above by Q / 2^(k + _GUARD) with Q an integer, and the disks are disjoint
    when |X_i - X_j|^2 * 2^(2 _GUARD) > (Q_i + Q_j)^2. The set keeps these
    integers as they are, on the scale k + _GUARD: centre X * 2^_GUARD,
    radius Q. Its disks are sorted by centre, real part first.
    """
    n = len(coeffs) - 1
    k = max(0, prec + 24 - max((m.bit_length() + e for m, e in parts if m), default=0))
    grid = [_on_grid(m, e, k) for m, e in parts]
    pts = list(zip(grid[::2], grid[1::2]))
    # |X_i - X_j|^2 once per pair, for the denominators and the disjointness test.
    dist2 = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]
            dist2[i][j] = dist2[j][i] = dx * dx + dy * dy
    shifted = [c << (k * (n - j)) for j, c in enumerate(coeffs)]
    bounds = []
    for i in range(n):
        re, im = _scaled_value(shifted, *pts[i])
        den = coeffs[-1] ** 2
        for d2 in dist2[i]:
            den *= d2  # the diagonal entry is 1
        if den == 0:
            return None
        num = (n * n * (re * re + im * im)) << (2 * _GUARD)
        bounds.append(math.isqrt(-(-num // den)) + 1)  # > sqrt(num / den)
    for i in range(n):
        for j in range(i + 1, n):
            if dist2[i][j] << (2 * _GUARD) <= (bounds[i] + bounds[j]) ** 2:
                return None
    roots = tuple(
        CertifiedRoot(x << _GUARD, y << _GUARD, q) for (x, y), q in sorted(zip(pts, bounds))
    )
    return CertifiedRootSet(roots, prec, k + _GUARD)


def _solve(coeffs: tuple[int, ...], bits: int, floats: list | None) -> CertifiedRootSet | None:
    """Certified roots at exactly `bits` bits, or None when the disks collide.

    At DEFAULT_PRECISION_BITS the float approximations floats are tried
    first, as they stand, and kept only when each radius is at most
    2^-40 * max(1, |centre|), as the label of that precision claims.
    Otherwise they are refined, from floats (from the Newton polygon when
    None), and should those disks collide, from the circle points.
    """
    n = len(coeffs) - 1
    if floats is not None and bits == DEFAULT_PRECISION_BITS:
        parts = [_man_exp(v) for z in floats for v in (z.real, z.imag)]
        certified = _certify(coeffs, parts, bits)
        if certified is not None and all(
            (d.r << 40) ** 2 <= max(1 << 2 * certified.scale, d.norm) for d in certified.roots
        ):
            return certified
    starts = floats or _newton_starts(coeffs)
    certified = _certify(coeffs, _refine(coeffs, starts, bits, 36 + 6 * n), bits)
    if certified is None:
        # A poisoned start configuration (e.g. approximations trapped on a
        # symmetry line of the root set) stays poisoned at any precision;
        # retry from the generic circle points, which carry deliberate
        # angular and radial asymmetry.
        parts = _refine(coeffs, _initial_points(coeffs), bits, 72 + 10 * n)
        certified = _certify(coeffs, parts, bits)
    return certified


def _require_squarefree(f: IntPoly) -> None:
    """The solver's precondition, checked where outside input arrives."""
    if f.degree < 1:
        raise InvalidInputError("complex_roots needs degree >= 1")
    if f.degree >= 2 and poly_gcd(f, f.derivative()).degree >= 1:
        raise InvalidInputError("complex_roots requires a squarefree polynomial")


def complex_roots(f: IntPoly) -> CertifiedRootSet:
    """All complex roots of squarefree f, in certified disjoint disks.

    Raises InvalidInputError when f has degree < 1 or a repeated factor, and
    PrecisionExhaustedError when disks cannot be separated within the
    escalation schedule.
    """
    _require_squarefree(f)
    failure = f"could not isolate the roots of degree-{f.degree} polynomial"
    return escalate(f, lambda rs: rs, failure)[0]


def escalate(f: IntPoly, attempt, failure: str):
    """(root set, result) for the first non-None attempt(rs), rs the root
    set of squarefree f at DEFAULT_PRECISION_BITS, then at doubled
    precision, at most MAX_ESCALATIONS times, every rung from one float
    solve; past that, PrecisionExhaustedError with failure and the last
    precision tried.
    """
    floats = _float_aberth(f.coeffs)
    for escalation in range(MAX_ESCALATIONS + 1):
        rs = _solve(f.coeffs, DEFAULT_PRECISION_BITS << escalation, floats)
        result = None if rs is None else attempt(rs)
        if result is not None:
            return rs, result
    raise PrecisionExhaustedError(f"{failure} at {DEFAULT_PRECISION_BITS << escalation} bits")


def polish_real_root(f: IntPoly, rs: CertifiedRootSet, i: int) -> tuple[CertifiedRoot, int] | None:
    """Root i of rs, a real positive root, in a disk of radius at most about
    2^-(bits + 24) times its value, bits being rs.precision_bits; returned
    with the scale of that disk.

    A disk narrower than 2^-(bits + 16) times its centre comes back as it
    is: every _refine rung's disk is (its centres sit on a grid 2^-(bits + 24)
    relative to the largest root), no float-rung disk is. A wider one is
    refined alone: Newton in integer arithmetic at bits + 72 bits from its
    centre, then an exact sign change of f across [x - d, x + d] proves a
    root there. The interval must lie inside root i's disk, which holds
    exactly one root; if it does not, None asks the caller to escalate. An
    interval that meets no disk of rs at all contradicts the certificate
    that the disks hold every root: OracleViolationError.
    """
    bits, s, root = rs.precision_bits, rs.scale, rs.roots[i]
    if root.r << (bits + 16) <= root.x:
        return root, s
    # Newton in integers on the grid X / 2^k, bits + 72 bits below the centre:
    # with P = 2^(kn) f(X / 2^k) and D = 2^(k(n-1)) f'(X / 2^k), the Newton
    # step is P / D grid units.
    n, top = f.degree, root.x.bit_length() - s  # 2^(top - 1) <= centre < 2^top
    k = max(0, bits + 72 - top)
    shifted = [c << (k * (n - j)) for j, c in enumerate(f.coeffs)]
    derived = [j * c << (k * (n - j)) for j, c in enumerate(f.coeffs)][1:]
    mid = _on_grid(root.x, -s, k)
    for _ in range(12):
        slope = _scaled_value(derived, mid, 0)[0]
        if slope == 0:
            return None
        step = _scaled_value(shifted, mid, 0)[0] // slope
        mid -= step
        if abs(step) <= 1:
            break
    half = 1 << (top + k - 1 - bits - 24)  # 2^-(bits + 24) of the centre, at most
    if _scaled_value(shifted, mid - half, 0)[0] * _scaled_value(shifted, mid + half, 0)[0] >= 0:
        return None
    # The interval and the disks on the finer grid 2^-m of the two.
    m = max(k, s)
    lo, hi, u = (mid - half) << (m - k), (mid + half) << (m - k), m - s

    def reach(disk: CertifiedRoot, t: int) -> int:
        """|t - centre|^2 - radius^2 on the grid 2^-m: at most 0 for t in the disk."""
        return (t - (disk.x << u)) ** 2 + (disk.y << u) ** 2 - (disk.r << u) ** 2

    if reach(root, lo) <= 0 and reach(root, hi) <= 0:
        return CertifiedRoot(mid, 0, half), k
    # The point of [lo, hi] nearest a centre is the centre's real part, clamped.
    if all(reach(disk, min(max(disk.x << u, lo), hi)) > 0 for disk in rs.roots):
        raise OracleViolationError(
            f"a sign change of {f.to_text()} near {lo / (1 << m):.17g} "
            "lies in no certified root disk"
        )
    return None


def expected_on_circle(f: IntPoly) -> int:
    """Exact number of unit-modulus roots of an irreducible polynomial.

    Nonzero only in the palindromic case: an irreducible f of degree >= 2
    with a unit-modulus root z also has 1/z = conj(z) as a root, forcing f to
    equal its own reciprocal. Such f has even degree (the anti-palindromic
    alternative vanishes at 1), and its on-circle roots pair off with the
    real roots of the trace transform inside (-2, 2), counted by a Sturm
    chain — no floating point involved.
    """
    if f.degree == 1:
        c0, c1 = f.coeffs[0], f.coeffs[1]
        return int(c0 * c0 == c1 * c1)
    if not is_self_reciprocal(f):
        return 0
    if f.degree % 2 != 0:
        raise InvalidInputError("odd-degree palindromic input has a root at -1; factor it out first")
    return 2 * sturm_count(trace_transform(f), -2, 2)


def try_modulus_tags(rs: CertifiedRootSet, expected_on: int) -> tuple[str, ...] | None:
    """One classification attempt of each root of rs against the unit circle:
    "out" when |z| - r > 1, "in" when |z| + r < 1, both by sqrt_exceeds.

    Returns per-root tags "in" / "on" / "out" when the disks at this
    precision settle every root, or None when they do not and the caller
    should escalate. Disks that straddle the circle are only accepted as
    "on" when their number is expected_on, expected_on_circle's exact count.
    """
    one = 1 << 2 * rs.scale  # the unit circle's norm on the grid
    tags = [
        "out" if sqrt_exceeds(d.norm, one, d.r, True)
        else "in" if sqrt_exceeds(one, d.norm, d.r, True) else "?"
        for d in rs.roots
    ]
    ambiguous = tags.count("?")
    if ambiguous > expected_on:
        return None
    if ambiguous < expected_on:
        # More roots cleared the circle than the exact count allows; that
        # would mean the palindromic bookkeeping is wrong.
        raise OracleViolationError("unit-circle accounting is inconsistent")
    return tuple("on" if t == "?" else t for t in tags)


@dataclass(frozen=True)
class RealAxisProfile:
    """Certified real-root census: sign counts plus per-root flags."""

    positive: int
    negative: int
    nonreal: int
    real_flags: tuple[bool, ...]
    rootset: CertifiedRootSet


def try_real_census(rs: CertifiedRootSet) -> tuple[tuple[bool, ...], int, int, int] | None:
    """One attempt at (real flags, positive, negative, nonreal), or None.

    A root is certified real when its disk meets the real axis while the
    mirror image of its disk meets no other disk (conjugation permutes the
    true roots, so the conjugate root can then only be the root itself). It
    is certified nonreal when its disk avoids the axis. None asks the caller
    to escalate precision. In integers on the set's grid: |y| > r, the
    mirror meets a disk when |conj(c) - c'|^2 <= (r + r')^2, sign: x > r or x < -r.
    """
    flags: list[bool] = []
    pos = neg = nonreal = 0
    for i, disk in enumerate(rs.roots):
        x, y, r = disk.x, disk.y, disk.r
        if abs(y) > r:
            flags.append(False)
            nonreal += 1
            continue
        if any(
            (x - other.x) ** 2 + (y + other.y) ** 2 <= (r + other.r) ** 2
            for j, other in enumerate(rs.roots)
            if j != i
        ):
            return None
        flags.append(True)
        if x > r:
            pos += 1
        elif x < -r:
            neg += 1
        else:
            return None  # disk straddles zero; escalation fixes this when f(0) != 0
    return tuple(flags), pos, neg, nonreal


def real_axis_profile(f: IntPoly) -> RealAxisProfile:
    """Decide which roots of squarefree f are real, and count signs, from
    certified disks.

    Needs f(0) != 0 so that sign decisions terminate; see try_real_census for
    the certification argument.
    """
    if f.constant == 0:
        raise InvalidInputError("real_axis_profile needs a nonzero constant term")
    _require_squarefree(f)
    rs, (flags, pos, neg, nonreal) = escalate(
        f, try_real_census, "could not settle the real-root census"
    )
    return RealAxisProfile(pos, neg, nonreal, flags, rs)
