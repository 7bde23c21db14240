"""Exact arithmetic kernel: arbitrary-precision rationals, univariate
polynomials over Q, and truncated Puiseux series.

A Puiseux series here is a dense, truncated Laurent series in fractional
powers of q.  A series with ramification ``ram`` stores the coefficients of
q^(n/ram) for n = lo, lo+1, ..., trunc-1 and is known *modulo* q^(trunc/ram).
Every operation propagates the tightest provable truncation:

* addition:        trunc = min of the rescaled operand truncs
* multiplication:  trunc = min(a.trunc + b.lo, b.trunc + a.lo)
* inversion:       lo -> -lo, trunc -> trunc - 2*lo

so a coefficient inside the reported window is always exact, never an
artifact of discarded tail terms.  Ramifications are merged by lcm on binary
operations.  All values are immutable after construction.

Coefficients are stored as Fractions, but products and inverses are computed
on integers:

* Each operand window is written as integer numerators over one common
  denominator (the lcm of its coefficient denominators).
* Only every s-th slot is kept, where the stride s is the gcd of the
  relative indices of the nonzero coefficients (5 for phi, 24 for eta), so
  the integer work is on the compressed series in q^(s/ram).
* Integer series are multiplied by Kronecker substitution (Harvey, J.
  Symbolic Comput. 44, 2009): each is packed into one Python int, slot k at
  bit k*w with signed values, where w bits hold the bound
  max|A| * max|B| * min(len A, len B), and max|A| and max|B| themselves (one
  operand may be all zeros), plus a sign bit.  One bigint multiply
  gives the product, which is read back slot by slot after a bias of
  2^(w-1) per slot absorbs the borrows of negative slots.  The result is
  scattered back at stride s and divided by the product of the denominators.
* The inverse runs Newton's iteration w <- w - w*(u*w - 1) on that integer
  multiply, doubling the precision at each step (Brent and Kung, JACM 25,
  1978).  A leading numerator u0 other than 1 is handled on the same path:
  V(x) = U(u0*x)/u0 has integer coefficients and V0 = 1, so its inverse W is
  integral, and the inverse of u = U/D has coefficient W_k*D/u0^(k+1) at
  relative index k.
"""

from __future__ import annotations

import math
from fractions import Fraction

_ZERO = Fraction(0)


class ZeroLeadingCoefficient(ArithmeticError):
    """Inversion of a series that is zero through its known window."""


class OrderExceeded(ValueError):
    """A coefficient outside the provably known window was requested."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected int or Fraction, got {type(x).__name__}")


class PuiseuxSeries:
    """Truncated series sum c_n q^(n/ram), n = lo .. trunc-1, over Q.

    Instances are immutable; ``coeffs`` is a tuple of Fractions of length
    trunc - lo.  Leading stored zeros are trimmed on construction (raising
    ``lo``), which is information-preserving and tightens product bounds.
    The zero-through-window series is represented with lo == trunc.
    """

    __slots__ = ("ram", "lo", "trunc", "coeffs")

    def __init__(self, ram: int, lo: int, trunc: int, coeffs):
        if ram < 1:
            raise ValueError("ramification must be >= 1")
        coeffs = [_rat(c) for c in coeffs]
        if len(coeffs) != trunc - lo:
            raise ValueError("coefficient window does not match trunc - lo")
        k = 0
        while k < len(coeffs) and coeffs[k] == 0:
            k += 1
        lo += k
        coeffs = coeffs[k:]
        if not coeffs:
            lo = trunc
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order, ram: int = 1) -> "PuiseuxSeries":
        t = _floor_index(order, ram)
        return cls(ram, t, t, ())

    @classmethod
    def monomial(cls, exponent, order, coeff=1) -> "PuiseuxSeries":
        """coeff * q^exponent, known modulo q^order."""
        e = _rat(exponent)
        o = _rat(order)
        ram = math.lcm(e.denominator, o.denominator)
        lo = int(e * ram)
        t = int(o * ram)
        if t <= lo:
            return cls.zero(o, ram)
        c = [Fraction(0)] * (t - lo)
        c[0] = _rat(coeff)
        return cls(ram, lo, t, c)

    @classmethod
    def one(cls, order) -> "PuiseuxSeries":
        return cls.monomial(0, order, 1)

    @classmethod
    def from_terms(cls, terms: dict, order, ram: int = 1) -> "PuiseuxSeries":
        """Series with the given {exponent: coefficient} terms, mod q^order."""
        exps = [_rat(e) for e in terms]
        o = _rat(order)
        for e in exps:
            ram = math.lcm(ram, e.denominator)
        ram = math.lcm(ram, o.denominator)
        t = int(o * ram)
        lo = min((int(e * ram) for e in exps), default=t)
        lo = min(lo, t)
        c = [Fraction(0)] * (t - lo)
        for e, v in terms.items():
            i = int(_rat(e) * ram) - lo
            if 0 <= i < len(c):
                c[i] += _rat(v)
        return cls(ram, lo, t, c)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> Fraction:
        """Exponent bound: the series is known modulo q^order."""
        return Fraction(self.trunc, self.ram)

    def valuation(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero-through-window series has no valuation")
        return Fraction(self.lo, self.ram)

    def coefficient(self, exponent) -> Fraction:
        e = _rat(exponent)
        if e >= self.order:
            raise OrderExceeded(f"coefficient of q^{e} is beyond the known order q^{self.order}")
        n = e * self.ram
        if n.denominator != 1:
            return Fraction(0)
        i = int(n) - self.lo
        if i < 0:
            return Fraction(0)
        return self.coeffs[i]

    def terms(self):
        """Yield (exponent, coefficient) for the nonzero stored terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield Fraction(self.lo + i, self.ram), c

    # -- normalization ------------------------------------------------------

    def _rescaled(self, m: int) -> "PuiseuxSeries":
        """Same series on the finer grid ram*m."""
        if m == 1:
            return self
        c = [Fraction(0)] * ((self.trunc - self.lo) * m)
        for i, v in enumerate(self.coeffs):
            c[i * m] = v
        return PuiseuxSeries(self.ram * m, self.lo * m, self.trunc * m, c)

    def reduce_ram(self) -> "PuiseuxSeries":
        """Smallest ramification carrying the same nonzero exponents.

        The truncation is rounded down to the coarser grid, which only ever
        weakens the claimed window, never widens it.
        """
        if self.is_zero():
            return PuiseuxSeries(1, self.trunc // self.ram, self.trunc // self.ram, ())
        d = self.ram
        for i, v in enumerate(self.coeffs):
            if v:
                d = math.gcd(d, self.lo + i)
            if d == 1:
                return self
        return PuiseuxSeries(
            self.ram // d,
            self.lo // d,
            self.trunc // d,
            [self.coeffs[j * d] for j in range(self.trunc // d - self.lo // d)],
        )

    def truncate(self, order) -> "PuiseuxSeries":
        """Forget all coefficients at exponents >= order.

        An order off the grid refines the grid to lcm(ram, order's
        denominator), so an order below self.order is kept exactly."""
        o = _rat(order)
        if o >= self.order:
            return self
        s = self._rescaled(math.lcm(self.ram, o.denominator) // self.ram)
        t = int(o * s.ram)
        if t <= s.lo:
            return PuiseuxSeries(s.ram, t, t, ())
        return PuiseuxSeries(s.ram, s.lo, t, s.coeffs[: t - s.lo])

    # -- ring operations ----------------------------------------------------

    def _aligned(self, other: "PuiseuxSeries"):
        l = math.lcm(self.ram, other.ram)
        return self._rescaled(l // self.ram), other._rescaled(l // other.ram)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.monomial(0, self.order, other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        t = min(a.trunc, b.trunc)
        lo = min(a.lo, b.lo, t)
        c = [Fraction(0)] * (t - lo)
        for i, v in enumerate(a.coeffs):
            j = a.lo + i - lo
            if 0 <= j < len(c):
                c[j] += v
        for i, v in enumerate(b.coeffs):
            j = b.lo + i - lo
            if 0 <= j < len(c):
                c[j] += v
        return PuiseuxSeries(a.ram, lo, t, c)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.ram, self.lo, self.trunc, [-v for v in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, PuiseuxSeries) else -_rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = _rat(other)
            if s == 0:
                return PuiseuxSeries(self.ram, self.trunc, self.trunc, ())
            return PuiseuxSeries(self.ram, self.lo, self.trunc, [v * s for v in self.coeffs])
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        t = min(a.trunc + b.lo, b.trunc + a.lo)
        if a.is_zero() or b.is_zero():
            return PuiseuxSeries(a.ram, t, t, ())
        lo = a.lo + b.lo
        n = t - lo
        na, da, sa = _integer_window(a.coeffs[:n])
        nb, db, sb = _integer_window(b.coeffs[:n])
        s = math.gcd(sa, sb) or n
        prod = _int_mul(na[::s], nb[::s], -(-n // s))
        d = da * db
        c = [_ZERO] * n
        for k, v in enumerate(prod):
            if v:
                c[k * s] = Fraction(v, d)
        return PuiseuxSeries(a.ram, lo, t, c)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse as a truncated Laurent unit.

        Requires a nonzero leading coefficient; the result satisfies
        self * inverse == 1 through the provable window.
        """
        if self.is_zero():
            raise ZeroLeadingCoefficient("series is zero through its known window")
        n = self.trunc - self.lo
        u, d, s = _integer_window(self.coeffs)
        s = s or n
        u0 = u[0]
        # V(x) = U(u0 x) / u0 on the compressed slots: integral, V0 = 1
        v = [x * u0 ** (k * s - 1) if k else 1 for k, x in enumerate(u[::s])]
        w = [1]
        m = len(v)
        while len(w) < m:
            prec = len(w)
            top = min(2 * prec, m)
            err = _int_mul(v[:top], w, top)[prec:]
            w += [-x for x in _int_mul(w, err, top - prec)]
        c = [_ZERO] * n
        for k, x in enumerate(w):
            if x:
                c[k * s] = Fraction(x * d, u0 ** (k * s + 1))
        return PuiseuxSeries(self.ram, -self.lo, self.trunc - 2 * self.lo, c)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _rat(other))
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * _rat(other)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = PuiseuxSeries.one(Fraction(self.trunc - self.lo, self.ram))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def subst_q_power(self, r) -> "PuiseuxSeries":
        """Substitute q -> q^r (r a positive rational): every exponent e
        becomes r*e, on the minimal grid containing the scaled exponents."""
        r = _rat(r)
        if r <= 0:
            raise ValueError("exponent scale must be positive")
        p, s = r.numerator, r.denominator
        d = math.gcd(p, self.ram * s)
        ram2 = self.ram * s // d
        step = p // d
        c = [Fraction(0)] * ((self.trunc - self.lo) * step)
        for i, v in enumerate(self.coeffs):
            c[i * step] = v
        return PuiseuxSeries(ram2, self.lo * step, self.trunc * step, c)

    # -- comparisons --------------------------------------------------------

    def agrees_with(self, other: "PuiseuxSeries") -> bool:
        """Equal on the overlap of the two provable windows."""
        a, b = self._aligned(other)
        return (a - b).is_zero()

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return (a.lo, a.trunc, a.coeffs) == (b.lo, b.trunc, b.coeffs)

    def __hash__(self):
        r = self.reduce_ram()
        return hash((r.ram, r.lo, r.trunc, r.coeffs))

    def __repr__(self):
        parts = []
        for e, c in self.terms():
            if len(parts) == 6:
                parts.append("...")
                break
            parts.append(f"{c}*q^({e})" if e else str(c))
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^({self.order}))>"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Arbitrary-precision-safe dict: integers as decimal strings."""
        return {
            "ram": self.ram,
            "lo": self.lo,
            "trunc": self.trunc,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PuiseuxSeries":
        coeffs = [Fraction(int(n), int(d)) for n, d in obj["coeffs"]]
        return cls(int(obj["ram"]), int(obj["lo"]), int(obj["trunc"]), coeffs)


def _integer_window(coeffs):
    """(numerators, common denominator, stride) of a coefficient window.

    The numerators are integers over the lcm of the denominators; the
    stride is the gcd of the indices of the nonzero entries, 0 when only
    index 0 is nonzero.
    """
    d = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (d // c.denominator) for c in coeffs]
    s = 0
    for i, x in enumerate(nums):
        if x:
            s = math.gcd(s, i)
            if s == 1:
                break
    return nums, d, s


def _pack(xs, width: int) -> int:
    """sum xs[k] * 2^(8*width*k) for signed xs with |xs[k]| < 2^(8*width-1)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(width, "little") for x in xs)
    neg = b"".join((-x if x < 0 else 0).to_bytes(width, "little") for x in xs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _int_mul(a, b, m: int) -> list:
    """The first m coefficients of the product of two integer coefficient
    lists, by Kronecker substitution: one bigint multiply."""
    a, b = a[:m], b[:m]
    ma, mb = max(map(abs, a)), max(map(abs, b))
    # the slots hold the packed inputs as well as the product, which matters
    # when one operand is all zeros (a Newton step whose error vanished)
    bound = max(ma * mb * min(len(a), len(b)), ma, mb)
    # bytes per slot: room for the bound plus a sign bit
    width = (bound.bit_length() + 8) // 8
    # a bias of 2^(w-1) per slot makes every slot non-negative, so the low
    # m slots of the packed product are read back as plain unsigned slots
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((b"\x00" * (width - 1) + b"\x80") * m, "little")
    packed = (_pack(a, width) * _pack(b, width) + bias) & ((1 << (8 * width * m)) - 1)
    raw = packed.to_bytes(width * m, "little")
    return [int.from_bytes(raw[k * width:(k + 1) * width], "little") - half for k in range(m)]


def _floor_index(order, ram: int) -> int:
    n = _rat(order) * ram
    return n.numerator // n.denominator


def pochhammer_product(factors, prefactor_exp, order) -> PuiseuxSeries:
    """q^prefactor_exp * prod over n >= 1, n = a mod m, of (1 - q^n)^e,
    truncated at q^order.

    ``factors`` is an iterable of (residue a, modulus m, exponent e) with
    m >= 1 and integer e (negative exponents give the inverse factors).
    Only finitely many n touch exponents below the requested order, so the
    result is exact through the window.
    """
    pre = _rat(prefactor_exp)
    o = _rat(order)
    if o <= pre:
        raise ValueError("order must exceed the prefactor exponent")
    rel = o - pre
    m_int = int(math.ceil(rel)) + 1
    # the factors are integral, so the body stays in Python ints
    body = [0] * (m_int + 1)
    body[0] = 1
    for a, m, e in factors:
        if m < 1:
            raise ValueError("modulus must be >= 1")
        n = a % m if a % m else m
        while n <= m_int:
            if e > 0:
                for _ in range(e):
                    # multiply by (1 - q^n)
                    for i in range(m_int, n - 1, -1):
                        body[i] -= body[i - n]
            elif e < 0:
                for _ in range(-e):
                    # divide by (1 - q^n): geometric series
                    for i in range(n, m_int + 1):
                        body[i] += body[i - n]
            n += m
    series = PuiseuxSeries(1, 0, m_int + 1, body)
    if pre:
        series = series * PuiseuxSeries.monomial(pre, pre + m_int + 1)
    return series.truncate(o)


class QPoly:
    """Dense univariate polynomial over Q; index i holds the coefficient
    of the i-th power.  The zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [_rat(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def from_terms(cls, terms: dict) -> "QPoly":
        if not terms:
            return cls()
        d = max(terms)
        c = [Fraction(0)] * (d + 1)
        for k, v in terms.items():
            c[k] += _rat(v)
        return cls(c)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-v for v in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([v * _rat(other) for v in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly()
        c = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, va in enumerate(self.coeffs):
            if not va:
                continue
            for j, vb in enumerate(other.coeffs):
                if vb:
                    c[i + j] += va * vb
        return QPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power requires a non-negative integer")
        result = QPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([v / _rat(other) for v in self.coeffs])
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Horner evaluation; x may be a Fraction, complex, or series."""
        if not self.coeffs:
            return 0 * x
        acc = None
        for v in reversed(self.coeffs):
            if acc is None:
                acc = x * 0 + v if not isinstance(x, PuiseuxSeries) else _series_const(v, x)
            else:
                acc = acc * x + (v if not isinstance(x, PuiseuxSeries) else _series_const(v, x))
        return acc

    def in_power(self, k: int) -> "QPoly":
        """Reinterpret self(y) as a polynomial in x with y = x^k."""
        c = [Fraction(0)] * (k * len(self.coeffs))
        for i, v in enumerate(self.coeffs):
            c[i * k] = v
        return QPoly(c) if c else QPoly()

    def __repr__(self):
        if self.is_zero():
            return "QPoly(0)"
        parts = [f"{v}*x^{i}" for i, v in enumerate(self.coeffs) if v]
        return "QPoly(" + " + ".join(parts) + ")"


def _series_const(v, like: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries.monomial(0, Fraction(like.trunc - like.lo, like.ram), v)
