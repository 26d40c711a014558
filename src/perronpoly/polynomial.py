"""Exact univariate polynomial arithmetic over Z and over prime fields.

IntPoly stores ascending integer coefficients with no trailing zeros; the
empty tuple is the zero polynomial. The resultant runs over a subresultant
pseudo-remainder sequence, entirely in integers, and the discriminant is
derived from it. ModPoly is the same shape reduced modulo a prime and carries
its modulus with it.

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
        c = tuple(int(x) for x in self.coeffs)
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
        out = []
        for c in self.coeffs:
            q, r = divmod(c, k)
            if r:
                raise InvalidInputError("inexact coefficient division")
            out.append(q)
        return IntPoly(tuple(out))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

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


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a modulo b."""
    lb = b.lead
    db = b.degree
    r = a
    e = a.degree - db + 1
    while not r.is_zero and r.degree >= db:
        r = r.scale(lb) - b.shift(r.degree - db).scale(r.lead)
        e -= 1
    if e > 0:
        r = r.scale(lb**e)
    return r


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant over Z via the subresultant pseudo-remainder sequence.

    >>> resultant(IntPoly((-3, -1, 1)), IntPoly((-1, 2)))
    -13
    """
    if f.is_zero or g.is_zero:
        raise InvalidInputError("resultant requires nonzero polynomials")
    a, b = f, g
    s = 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            s = -1
        a, b = b, a
    if b.degree == 0:
        return s * b.coeffs[0] ** a.degree
    ca, cb = abs(a.content()), abs(b.content())
    a = a.scale_div(ca)
    b = b.scale_div(cb)
    t = s * ca**b.degree * cb**a.degree
    g_, h_ = 1, 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            t = -t
        r = _prem(a, b)
        a = b
        if r.is_zero:
            return 0
        b = r.scale_div(g_ * h_**delta)
        g_ = a.lead
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h_ = g_
        else:
            num = g_**delta
            den = h_ ** (delta - 1)
            h_ = num // den
            if h_ * den != num:
                raise OverflowError("subresultant bookkeeping broke")  # unreachable
        if b.degree <= 0:
            break
    if b.is_zero:
        return 0
    da = a.degree
    lead = b.coeffs[0]
    num = lead**da
    den = h_ ** (da - 1) if da >= 1 else 1
    final = num // den
    if final * den != num:
        raise OverflowError("subresultant bookkeeping broke")  # unreachable
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
        r = _prem(a, b).primitive()
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
        r = _prem(chain[-2], chain[-1])
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


@dataclass(frozen=True)
class ModPoly:
    """Polynomial over the prime field F_q, ascending coefficients in [0, q).
    The ring operations (+, -, *, **) also serve any modulus >= 2."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        q = self.modulus
        if q < 2:
            raise InvalidInputError(f"modulus must be at least 2, got {q}")
        c = tuple(int(x) % q for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def reduce(f: IntPoly, q: int) -> "ModPoly":
        return ModPoly(q, f.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _check(self, other: "ModPoly") -> None:
        if self.modulus != other.modulus:
            raise InvalidInputError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ModPoly(self.modulus, tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ModPoly(self.modulus, tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return ModPoly(self.modulus, ())
        q = self.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % q
        return ModPoly(q, tuple(out))

    def __pow__(self, e: int) -> "ModPoly":
        result = ModPoly(self.modulus, (1,))
        for bit in bin(e)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale(self, k: int) -> "ModPoly":
        return ModPoly(self.modulus, tuple(c * k for c in self.coeffs))

    def monic(self) -> "ModPoly":
        if self.is_zero:
            return self
        inv = pow(self.lead, -1, self.modulus)
        return self.scale(inv)

    def divmod(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._check(other)
        if other.is_zero:
            raise InvalidInputError("polynomial division by zero")
        q_mod = self.modulus
        inv = pow(other.lead, -1, q_mod)
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return ModPoly(q_mod, ()), self
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] % q_mod
            if c:
                c = c * inv % q_mod
                quo[k] = c
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - c * b) % q_mod
        return ModPoly(q_mod, tuple(quo)), ModPoly(q_mod, tuple(rem))

    def exact_div(self, other: "ModPoly") -> "ModPoly":
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise InvalidInputError("mod-q polynomial division left a remainder")
        return quo

    def derivative(self) -> "ModPoly":
        return ModPoly(self.modulus, tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def lift(self) -> IntPoly:
        """Canonical integer lift with coefficients in [0, q)."""
        return IntPoly(self.coeffs)

    def __str__(self) -> str:
        return f"{self.lift().pretty()} (mod {self.modulus})"


def gcd_mod(f: ModPoly, g: ModPoly) -> ModPoly:
    """Monic gcd in F_q[x]; errors on modulus mismatch."""
    if f.modulus != g.modulus:
        raise InvalidInputError(f"modulus mismatch: {f.modulus} vs {g.modulus}")
    a, b = f, g
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()
