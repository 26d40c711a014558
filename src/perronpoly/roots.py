"""Certified complex root isolation for squarefree integer polynomials.

The solver runs one Aberth-Ehrlich routine, _aberth, twice: first in double
precision from perturbed-circle starting points, for cheap approximations,
then at the requested precision (mpmath backend) to polish them. Should the
polished approximations fail to certify, the routine runs once more at that
precision from the circle points. Certification is a posteriori: around
each approximation z_i we place the Weierstrass-style disk of radius

    deg(f) * |f(z_i)| / (|lc(f)| * prod_{j != i} |z_i - z_j|)

inflated by a coarse but safely dominant allowance for the floating-point
slop of evaluating it. The union of these disks contains every root of f, and
when they are pairwise disjoint each disk holds exactly one root.

Every decision escalates through one loop, escalate, with one cap. It
solves f at the starting precision (DEFAULT_PRECISION_BITS unless the caller
asks otherwise); whenever the disks collide or cannot settle the question,
it solves f again at doubled precision, at most MAX_ESCALATIONS times per
decision, and then raises PrecisionExhaustedError. Isolation itself
(complex_roots), the unit-circle and real-axis profiles, the dominance
decision and the factor oracle are each one such decision.

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
from functools import lru_cache

from mpmath import mp, mpc, mpf, workprec

from .errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from .polynomial import IntPoly, is_self_reciprocal, poly_gcd, sturm_count, trace_transform

DEFAULT_PRECISION_BITS = 64
MAX_ESCALATIONS = 4

_FLOAT_LIMIT = 1e280  # coefficient magnitude beyond which the float warmstart is skipped


@dataclass(frozen=True)
class CertifiedRoot:
    value: "mpc"
    radius: "mpf"

    @property
    def modulus(self) -> "mpf":
        return abs(self.value)


@dataclass(frozen=True)
class CertifiedRootSet:
    """All roots of a squarefree polynomial, one per pairwise-disjoint disk."""

    roots: tuple[CertifiedRoot, ...]
    precision_bits: int

    def __len__(self) -> int:
        return len(self.roots)

    def work(self):
        """Context manager setting a precision safely above the disk scale.

        All arithmetic on root values must happen inside (mpmath rounds every
        operation to the ambient precision, and the global default would
        swamp radii of order 2^-precision_bits with rounding dust).
        """
        return workprec(2 * self.precision_bits + 48)

    def modulus_bounds(self) -> tuple[tuple["mpf", "mpf"], ...]:
        """Certified (lower, upper) enclosures of each root's modulus."""
        with self.work():
            return tuple(
                (abs(r.value) - r.radius, abs(r.value) + r.radius) for r in self.roots
            )

    def dominant(self) -> CertifiedRoot:
        with self.work():
            return max(self.roots, key=lambda r: abs(r.value))

    def vieta_residuals(self, f: IntPoly) -> dict[str, "mpf"]:
        """Residuals of the two symmetric-function identities, with their
        certified error allowances; useful as an external sanity check."""
        n = f.degree
        with workprec(max(self.precision_bits * 2, 128)):
            total = mpf(0)
            for r in self.roots:
                total += r.value
            sum_res = abs(total + mpf(f.coeff(n - 1)) / f.lead)
            sum_bound = sum((r.radius for r in self.roots), mpf(0))
            prod = mpc(1)
            prod_hi = mpf(1)
            prod_lo = mpf(1)
            for r in self.roots:
                prod *= r.value
                prod_hi *= abs(r.value) + r.radius
                prod_lo *= abs(r.value)
            target = mpf((-1) ** n) * f.constant / f.lead
            prod_res = abs(prod - target)
            prod_bound = prod_hi - prod_lo
        return {
            "sum_residual": sum_res,
            "sum_allowance": sum_bound + mpf(2) ** (-self.precision_bits // 2),
            "product_residual": prod_res,
            "product_allowance": prod_bound + mpf(2) ** (-self.precision_bits // 2),
        }


def _horner(coeffs, z):
    """coeffs[0] + coeffs[1] z + ... in the number type of z, started from the
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
    n = len(coeffs) - 1
    rho = _fujiwara_radius(coeffs)
    pts = []
    for k in range(n):
        theta = (2.0 * cmath.pi * k + 0.37) / n + 0.29
        jitter = 1.0 + 0.05 * ((k * 0.6180339887) % 1.0)
        pts.append(rho * jitter * cmath.exp(1j * theta))
    return pts


def _aberth(zs: list, coeffs, tol, max_iters: int, nudge, limit: float | None = None) -> bool:
    """Aberth-Ehrlich sweeps updating zs in place, in the number type of zs
    and coeffs (complex and float, or mpc and int inside workprec).

    Stops once no approximation moves by tol relative to 1 + |z|, or after
    max_iters sweeps. An approximation whose derivative vanishes or that
    collides with another moves by nudge * (1 + |z|). With limit, returns
    False as soon as a real or imaginary part reaches it (or is NaN).
    """
    n = len(coeffs) - 1
    deriv = [i * coeffs[i] for i in range(1, n + 1)]
    for _ in range(max_iters):
        worst = 0
        for i, z in enumerate(zs):
            fpz = _horner(deriv, z)
            dzs = [z - zj for j, zj in enumerate(zs) if j != i]
            if fpz == 0 or 0 in dzs:
                zs[i] = z + nudge * (1 + abs(z))
                worst = 1
                continue
            sigma = 0
            for dz in dzs:
                sigma += 1 / dz
            w = _horner(coeffs, z) / fpz
            den = 1 - w * sigma
            corr = w if den == 0 else w / den
            zs[i] = z - corr
            if limit is not None and not (abs(zs[i].real) < limit and abs(zs[i].imag) < limit):
                return False
            worst = max(worst, abs(corr) / (1 + abs(zs[i])))
        if worst < tol:
            break
    return True


def _float_aberth(coeffs: tuple[int, ...]) -> list[complex] | None:
    """Double-precision warm start; None when it cannot be trusted."""
    if any(abs(c) > _FLOAT_LIMIT for c in coeffs):
        return None
    zs = _initial_points(coeffs)
    return zs if _aberth(zs, [float(c) for c in coeffs], 1e-14, 140, 1e-7, limit=1e300) else None


def _refine_mp(coeffs: tuple[int, ...], starts, prec: int, max_iters: int) -> list:
    """Aberth refinement at the given precision; returns mpc approximations."""
    with workprec(prec + 32):
        zs = [mpc(z) for z in starts]
        _aberth(zs, coeffs, mpf(2) ** (-(prec + 8)), max_iters, mpf(2) ** (-prec // 2))
        return zs


def _certify(coeffs: tuple[int, ...], zs, prec: int) -> tuple[CertifiedRoot, ...] | None:
    """Weierstrass disks with rounding allowance; None when disks collide."""
    n = len(coeffs) - 1
    work = 2 * prec + 48
    abs_coeffs = tuple(abs(c) for c in coeffs)
    with workprec(work):
        # Allowance far above the true roundoff at this precision, far below
        # anything the disjointness test cares about.
        slack = mpf(2) ** (-(work // 2))
        lead = mpf(abs(coeffs[-1]))
        values = [mpc(z) for z in zs]
        # |z_i - z_j| once per pair, for the denominators and the disjointness test.
        dist = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = abs(values[i] - values[j])
        radii = []
        for i in range(n):
            z = values[i]
            fz = _horner(coeffs, z)
            scale = _horner(abs_coeffs, abs(z))
            num = abs(fz) + slack * scale
            den = lead
            for j in range(n):
                if j != i:
                    den *= dist[i][j]
            if den == 0:
                return None
            r = mpf(n) * num / den * (1 + slack)
            radii.append(r)
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i][j] * (1 - slack) <= radii[i] + radii[j]:
                    return None
        roots = [CertifiedRoot(values[i], radii[i]) for i in range(n)]
        roots.sort(key=lambda r: (r.value.real, r.value.imag))
        return tuple(roots)


@lru_cache(maxsize=2048)
def _solve_cached(coeffs: tuple[int, ...], bits: int) -> CertifiedRootSet | None:
    """Certified roots at exactly `bits` bits, or None when the disks collide."""
    n = len(coeffs) - 1
    if n < 1:
        raise InvalidInputError("complex_roots needs degree >= 1")
    if bits < 16:
        raise InvalidInputError("precision_bits must be at least 16")
    f = IntPoly(coeffs)  # the squarefree gate sits behind the cache: a hit runs no gcd
    if n >= 2 and poly_gcd(f, f.derivative()).degree >= 1:
        raise InvalidInputError("complex_roots requires a squarefree polynomial")
    starts = _float_aberth(coeffs) or _initial_points(coeffs)
    certified = _certify(coeffs, _refine_mp(coeffs, starts, bits, 36 + 6 * n), bits)
    if certified is None:
        # A poisoned start configuration (e.g. approximations trapped on a
        # symmetry line of the root set) stays poisoned at any precision;
        # retry from the generic circle points, which carry deliberate
        # angular and radial asymmetry.
        zs = _refine_mp(coeffs, _initial_points(coeffs), bits, 72 + 10 * n)
        certified = _certify(coeffs, zs, bits)
    return None if certified is None else CertifiedRootSet(certified, bits)


def complex_roots(f: IntPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> CertifiedRootSet:
    """All complex roots of squarefree f, in certified disjoint disks.

    Raises InvalidInputError when f has degree < 1 or a repeated factor, and
    PrecisionExhaustedError when disks cannot be separated within the
    escalation schedule.
    """
    return escalate(
        f, precision_bits, lambda rs: rs,
        f"could not isolate the roots of degree-{f.degree} polynomial",
    )[0]


def escalate(f: IntPoly, start: CertifiedRootSet | int, attempt, failure: str):
    """(root set, result) for the first non-None attempt(rs).

    start is a root set to try first or the precision to solve f at. After
    each failure f is solved again at doubled precision, at most
    MAX_ESCALATIONS times; past that, PrecisionExhaustedError with failure and
    the last precision tried.
    """
    given = isinstance(start, CertifiedRootSet)
    bits = start.precision_bits if given else start
    for escalation in range(MAX_ESCALATIONS + 1):
        tried = bits << escalation
        rs = start if given and not escalation else _solve_cached(f.coeffs, tried)
        result = None if rs is None else attempt(rs)
        if result is not None:
            return rs, result
    raise PrecisionExhaustedError(f"{failure} at {tried} bits")


@dataclass(frozen=True)
class ModulusProfile:
    """How the root moduli sit against the unit circle."""

    inside: int
    on_circle: int
    outside: int
    assignments: tuple[str, ...]  # per root: "in" | "on" | "out"
    rootset: CertifiedRootSet

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.inside, self.on_circle, self.outside)


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


def try_modulus_tags(f: IntPoly, rs: CertifiedRootSet) -> tuple[str, ...] | None:
    """One classification attempt of each root against the unit circle.

    Returns per-root tags "in" / "on" / "out" when the disks at this
    precision settle every root, or None when they do not and the caller
    should escalate. Disks that straddle the circle are only accepted as
    "on" when their number matches the exact palindromic count.
    """
    expected_on = expected_on_circle(f)
    tags: list[str] = []
    ambiguous = 0
    for lo, hi in rs.modulus_bounds():
        if lo > 1:
            tags.append("out")
        elif hi < 1:
            tags.append("in")
        else:
            tags.append("?")
            ambiguous += 1
    if ambiguous > expected_on:
        return None
    if ambiguous < expected_on:
        # More roots cleared the circle than the exact count allows; that
        # would mean the palindromic bookkeeping is wrong.
        raise OracleViolationError("unit-circle accounting is inconsistent")
    return tuple("on" if t == "?" else t for t in tags)


def modulus_profile(
    f: IntPoly,
    roots: CertifiedRootSet | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ModulusProfile:
    """Certified (inside, on, outside) counts for the roots of f.

    An "on" verdict is only ever assigned through the exact palindromic route;
    otherwise precision escalates until every disk clears the circle. The
    caller is expected to pass irreducible f (or at least f with no root at
    +-1), as the exact route needs f(1) != 0 and f(-1) != 0.
    """
    rs, tags = escalate(
        f, precision_bits if roots is None else roots, lambda rs: try_modulus_tags(f, rs),
        "could not separate all root disks from the unit circle",
    )
    return ModulusProfile(tags.count("in"), tags.count("on"), tags.count("out"), tags, rs)


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
    to escalate precision.
    """
    with rs.work():
        flags: list[bool] = []
        pos = neg = nonreal = 0
        for i, r in enumerate(rs.roots):
            z, rad = r.value, r.radius
            if abs(z.imag) > rad:
                flags.append(False)
                nonreal += 1
                continue
            zc = mpc(z.real, -z.imag)
            if any(
                abs(zc - other.value) <= rad + other.radius
                for j, other in enumerate(rs.roots)
                if j != i
            ):
                return None
            flags.append(True)
            if z.real > rad:
                pos += 1
            elif z.real < -rad:
                neg += 1
            else:
                return None  # disk straddles zero; escalation fixes this when f(0) != 0
        return tuple(flags), pos, neg, nonreal


def real_axis_profile(
    f: IntPoly,
    roots: CertifiedRootSet | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RealAxisProfile:
    """Decide which roots are real, and count signs, from certified disks.

    Needs f(0) != 0 so that sign decisions terminate; see try_real_census for
    the certification argument.
    """
    if f.constant == 0:
        raise InvalidInputError("real_axis_profile needs a nonzero constant term")
    rs, (flags, pos, neg, nonreal) = escalate(
        f, precision_bits if roots is None else roots, try_real_census,
        "could not settle the real-root census",
    )
    return RealAxisProfile(pos, neg, nonreal, flags, rs)
