"""Exact univariate polynomial arithmetic over Z and over prime fields.

IntPoly stores ascending integer coefficients with no trailing zeros; the
empty tuple is the zero polynomial. The resultant runs over a subresultant
pseudo-remainder sequence, entirely in integers and on plain coefficient
lists, and the discriminant is derived from it; poly_gcd and the Sturm chain
wrap the same pseudo-remainder (_prem). Over Z/q the same ascending
coefficients travel as plain lists reduced into [0, q) (reduce_mod), and each
function takes the modulus as an argument: mul_mod and pow_mod for any
modulus, divmod_mod, monic_mod and gcd_mod for a prime one.

The text wire format used by the CLI is comma-separated ascending
coefficients: "-3,-1,1" is x**2 - x - 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidInputError


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            c = tuple(map(int, self.coeffs))
        except (TypeError, ValueError, OverflowError):
            c = None
        if c != tuple(self.coeffs):  # int() would truncate 2.5 and parse "7"
            raise InvalidInputError(f"polynomial coefficients must be integers: {self.coeffs!r}")
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_text(text: str) -> "IntPoly":
        """Parse the comma-separated ascending-coefficient format."""
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(p == "" for p in parts):
            raise InvalidInputError(f"bad polynomial text: {text!r}")
        try:
            return IntPoly(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise InvalidInputError(f"bad polynomial text: {text!r}") from exc

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(tuple(c * k for c in self.coeffs))

    def scale_div(self, k: int) -> "IntPoly":
        """Divide every coefficient by k; the division must be exact."""
        if k == 0:
            raise InvalidInputError("division by zero scale")
        return IntPoly(tuple(_exact_div(self.coeffs, k)))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the positive content; the sign pattern is preserved,
        which matters to Sturm chains."""
        g = abs(self.content())
        if g in (0, 1):
            return self
        return self.scale_div(g)

    def divmod(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Division with remainder; requires the quotient to stay integral,
        which holds whenever other is monic."""
        if other.is_zero:
            raise InvalidInputError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return IntPoly(()), self
        quo = [0] * (dq + 1)
        lead = other.lead
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            q, r = divmod(top, lead)
            if r:
                raise InvalidInputError("inexact polynomial division")
            if q:
                quo[k] = q
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= q * b
        return IntPoly(tuple(quo)), IntPoly(tuple(rem))

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise InvalidInputError("polynomial division left a remainder")
        return quo

    def divides(self, other: "IntPoly") -> bool:
        """True when self divides other exactly over Z."""
        try:
            _, rem = other.divmod(self)
        except InvalidInputError:
            return False
        return rem.is_zero

    # -- formatting --------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.pretty()


def is_self_reciprocal(f: IntPoly) -> bool:
    """Whether x**n * f(1/x) == f(x), i.e. the coefficients are palindromic."""
    c = f.coeffs
    return bool(c) and c == c[::-1]


def trace_transform(f: IntPoly) -> IntPoly:
    """For palindromic monic f of even degree 2k, the integer polynomial T of
    degree k with f(x) = x**k * T(x + 1/x).

    Real roots of T in (-2, 2) correspond exactly to conjugate pairs of roots
    of f on the unit circle.
    """
    if not is_self_reciprocal(f) or f.degree % 2 != 0 or f.degree < 2:
        raise InvalidInputError("trace_transform needs a palindromic polynomial of even degree >= 2")
    k = f.degree // 2
    # Basis polynomials P_j(y) = x**j + x**-j under y = x + 1/x, with the
    # three-term recurrence P_0 = 2, P_1 = y, P_{j+1} = y*P_j - P_{j-1}.
    p_prev = IntPoly((2,))
    p_cur = IntPoly((0, 1))
    total = IntPoly((f.coeff(k),))
    for j in range(1, k + 1):
        total = total + p_cur.scale(f.coeff(k + j))
        p_prev, p_cur = p_cur, IntPoly((0, 1)) * p_cur - p_prev
    return total


def _exact_div(coeffs, k: int) -> list[int]:
    """Each coefficient divided by k; every division must be exact."""
    out = []
    for c in coeffs:
        q, r = divmod(c, k)
        if r:
            raise InvalidInputError("inexact coefficient division")
        out.append(q)
    return out


def _prem(a, b) -> list[int]:
    """Pseudo-remainder lc(b)**(deg a - deg b + 1) * a modulo b, on ascending
    coefficient sequences with no trailing zeros (b nonzero)."""
    lb, db = b[-1], len(b) - 1
    r = list(a)
    e = len(r) - db
    while len(r) > db:
        top = r.pop()
        off = len(r) - db
        if lb != 1:
            r = [c * lb for c in r]
        for i in range(db):
            r[off + i] -= top * b[i]
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0:
        lbe = lb**e
        r = [c * lbe for c in r]
    return r


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant over Z via the subresultant pseudo-remainder sequence, run
    on plain coefficient lists.

    >>> resultant(IntPoly((-3, -1, 1)), IntPoly((-1, 2)))
    -13
    """
    if f.is_zero or g.is_zero:
        raise InvalidInputError("resultant requires nonzero polynomials")
    a, b = f.coeffs, g.coeffs
    s = 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            s = -1
        a, b = b, a
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    ca, cb = gcd(*a), gcd(*b)
    a, b = _exact_div(a, ca), _exact_div(b, cb)
    t = s * ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g_, h_ = 1, 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            t = -t
        r = _prem(a, b)
        if not r:
            return 0
        a, b = b, _exact_div(r, g_ * h_**delta)
        g_ = a[-1]
        if delta == 1:
            h_ = g_
        elif delta > 1:
            (h_,) = _exact_div((g_**delta,), h_ ** (delta - 1))
    (final,) = _exact_div((b[0] ** (len(a) - 1),), h_ ** (len(a) - 2))
    return t * final


def discriminant(f: IntPoly) -> int:
    """(-1)**(n(n-1)/2) * resultant(f, f'), for monic f of degree n >= 1.

    >>> discriminant(IntPoly((-3, -1, 1)))
    13
    """
    if f.is_zero or f.degree < 1:
        raise InvalidInputError("discriminant needs degree >= 1")
    if not f.is_monic:
        raise InvalidInputError("discriminant implemented for monic polynomials")
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Greatest common divisor over Z, primitive with positive leading
    coefficient, scaled by the gcd of the contents."""
    if f.is_zero:
        return g if g.is_zero or g.lead > 0 else -g
    if g.is_zero:
        return f if f.lead > 0 else -f
    cf, cg = abs(f.content()), abs(g.content())
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = IntPoly(tuple(_prem(a.coeffs, b.coeffs))).primitive()
        a, b = b, r
    a = a.primitive()
    if a.lead < 0:
        a = -a
    return a.scale(gcd(cf, cg))


def squarefree_part(f: IntPoly) -> IntPoly:
    """f divided by gcd(f, f'), primitive; the product of f's distinct
    irreducible factors (up to sign conventions)."""
    if f.degree < 1:
        return f
    g = poly_gcd(f, f.derivative())
    return f.exact_div(g) if g.degree >= 1 else f


def sturm_count(f: IntPoly, lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of squarefree f in the open interval
    (lo, hi). Requires f(lo) != 0 and f(hi) != 0."""
    if f.degree < 1:
        return 0
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        raise InvalidInputError("sturm_count needs lo < hi")
    if f(lo) == 0 or f(hi) == 0:
        raise InvalidInputError("sturm_count endpoints must avoid roots")
    chain = [f, f.derivative()]
    while chain[-1].degree >= 1:
        r = IntPoly(tuple(_prem(chain[-2].coeffs, chain[-1].coeffs)))
        # Sign fix: the pseudo-remainder is lc**e times the true remainder
        # with e = degree difference plus one. Sturm needs minus the true
        # remainder up to a positive factor, so flip exactly when lc**e > 0.
        lc = chain[-1].lead
        e = chain[-2].degree - chain[-1].degree + 1
        if lc > 0 or e % 2 == 0:
            r = -r
        chain.append(r.primitive())

    def variations(x: Fraction) -> int:
        signs = []
        for p in chain:
            v = p(x)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def descartes_counts(f: IntPoly) -> tuple[int, int]:
    """Sign changes along the coefficients of f(x) and of f(-x), zeros
    skipped: by Descartes' rule, the positive and the negative real-root
    counts of f, each plus an even number, so the counts themselves when
    they are 0 or 1.

    >>> descartes_counts(IntPoly((-3, -1, 1)))  # x^2 - x - 3
    (1, 1)
    >>> descartes_counts(IntPoly((-2, 0, -1, -1)))  # -(x^3 + x^2 + 2)
    (0, 1)
    """
    counts = []
    for coeffs in (f.coeffs, [-c if k % 2 else c for k, c in enumerate(f.coeffs)]):
        signs = [c > 0 for c in coeffs if c]
        counts.append(sum(s != t for s, t in zip(signs, signs[1:])))
    return counts[0], counts[1]


def reduce_mod(coeffs: tuple[int, ...] | list[int], q: int) -> list[int]:
    """The ascending coefficients reduced into [0, q), trailing zeros dropped:
    the form every function below takes and returns (the empty list is 0)."""
    out = [c % q for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def mul_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """a * b modulo q, for any modulus q >= 2."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return reduce_mod(out, q)


def pow_mod(a: list[int], e: int, q: int) -> list[int]:
    """a^e modulo q, for any modulus q >= 2, by square-and-multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = mul_mod(result, result, q)
        if bit == "1":
            result = mul_mod(result, a, q)
    return result


def divmod_mod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by nonzero b in F_q[x], q prime."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return [], a
    inv = pow(b[-1], -1, q)
    rem = list(a)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] * inv % q
        if c:
            quo[k] = c
            for i, y in enumerate(b):
                rem[k + i] = (rem[k + i] - c * y) % q
    return quo, reduce_mod(rem[:db], q)


def monic_mod(a: list[int], q: int) -> list[int]:
    """a scaled to leading coefficient 1 in F_q[x], q prime; 0 stays 0."""
    if not a:
        return a
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """The monic gcd of a and b in F_q[x], q prime."""
    while b:
        a, b = b, divmod_mod(a, b, q)[1]
    return monic_mod(a, q)
