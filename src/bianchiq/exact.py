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
operations.  No change of grid moves the window: ``reduce_ram`` goes to the
coarsest grid carrying both the nonzero exponents and the truncation.  All
values are immutable after construction.

A series stores integers only: numerators ``nums`` over one positive
denominator ``den``, in lowest terms and with leading zeros trimmed, so each
value has one form.  Fractions appear only at the boundary (the constructor,
``coeffs``, ``coefficient``, ``terms``, JSON).  A change of grid spreads the
numerators to every m-th slot; truncation and ``reduce_ram`` are slices.  A
``QPoly`` is stored the same way, so its sums and products are integer work
too.

* Only every s-th slot of a product is computed, where the stride s is the
  gcd of the relative indices of the nonzero numerators (5 for phi, 24 for
  eta), so the integer work is on the compressed series in q^(s/ram).
* Integer series are multiplied by Kronecker substitution (Harvey, J.
  Symbolic Comput. 44, 2009).  Each is packed into one Python int, slot k
  at bit 8*k*w.  The w bytes per slot hold the bound max|A| * max|B| *
  min(len A, len B), and max|A| and max|B| themselves (one operand may be
  all zeros), plus a sign bit.  One bigint multiply gives the product,
  whose denominator is the product of the operands' denominators.  Slots
  of up to 8 bytes are converted by ``array`` at C level as machine words
  of 1, 2, 4 or 8 bytes: 5- and 6-byte slots are cut from 8-byte words by
  strided byte copies, and the other widths round up to a word.  Wider
  slots take one ``int.to_bytes`` each.  Both write two's complement
  slots, and one bias makes them signed: xor with 2^(8w-1) per slot turns
  a slot x into x + 2^(8w-1) >= 0, and subtracting the sum of those biases
  leaves the operand's value.  The product's low slots, biased the same
  way, are unsigned, and xor returns them to two's complement.
* Powers use left-to-right binary powering from the base itself, never a
  product by the constant 1, so x^2, x^3 and x^5 cost 1, 2 and 3 products.
* Inside a ``product_memo`` scope, which ``identities.run_identity`` opens
  around each exact-series check, a series product or inverse is looked up
  by the operands' values, so a repeated one is made once; a*b and b*a
  share an entry, and scalar products are not stored.  One scope holds at
  most _MAX_MEMO_SLOTS numerators and makes, without storing, any product
  past that.  Outside a scope nothing is stored.
* Each series keeps its stride once computed, and every product or
  inverse that reads it uses that one stride, whatever prefix it reads:
  the stride divides every nonzero index of any prefix.
* The inverse runs Newton's iteration w <- w - w*(u*w - 1) on that integer
  multiply, doubling the precision at each step (Brent and Kung, JACM 25,
  1978).  A leading numerator u0 other than 1 is handled on the same path:
  V(x) = U(u0*x)/u0 has integer coefficients and V0 = 1, so its inverse W is
  integral, and the inverse of u = U/D has coefficient W_k*D/u0^(k+1) at
  relative index k, written over u0^(last+1) for the last index ``last``.
* A q-Pochhammer product F = prod (1 - q^n)^(E_n) is built from its
  logarithmic derivative q F'/F = sum c_k q^k, c_k = -sum_{d | k} d E_d,
  as the recurrence n F_n = sum_{k=1..n} c_k F_{n-k} from F_0 = 1.  Each
  factor and its inverse 1 + q^n + q^2n + ... is an integer series with
  constant term 1, so F is one too, and the division by n is exact.  One
  pass costs about N^2/2 integer products for N terms, whatever the E_n.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from itertools import compress, count, repeat, zip_longest
from operator import add, index, mul


class ZeroLeadingCoefficient(ArithmeticError):
    """Inversion of a series that is zero through its known window."""


class OrderExceeded(ValueError):
    """A coefficient outside the provably known window was requested."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"exact coefficient expected int or Fraction, got {type(x).__name__}")


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def _numerators(coeffs) -> tuple[list, int]:
    """(integer numerators, their lcm denominator) of ints and Fractions."""
    pairs = [_ratio(c) for c in coeffs]
    d = math.lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


def _stride(nums, s: int = 0) -> int:
    """gcd of s and the indices of the nonzero entries."""
    return math.gcd(s, *compress(range(len(nums)), nums))


class PuiseuxSeries:
    """Truncated series sum c_n q^(n/ram), n = lo .. trunc-1, over Q.

    Instances are immutable and stored as integer numerators ``nums`` (one
    per slot) over the positive denominator ``den``, in lowest terms.
    ``coeffs`` is the same window as a tuple of Fractions of length
    trunc - lo.  Leading stored zeros are trimmed on construction (raising
    ``lo``), which is information-preserving and tightens product bounds.
    The zero-through-window series is represented with lo == trunc.
    """

    # _step: the stride of nums, set on first use (see _kept_stride)
    __slots__ = ("ram", "lo", "trunc", "den", "nums", "_step")

    def __init__(self, ram: int, lo: int, trunc: int, coeffs):
        if ram < 1:
            raise ValueError("ramification must be >= 1")
        nums, den = _numerators(coeffs)
        if len(nums) != trunc - lo:
            raise ValueError("coefficient window does not match trunc - lo")
        self._set(ram, lo, trunc, nums, den)

    def _set(self, ram, lo, trunc, nums, den):
        k = next(compress(count(), nums), None)
        if k is None:
            lo, nums, den = trunc, (), 1
        else:
            g = 1 if den == 1 else math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
            nums = tuple(x // g for x in nums[k:]) if g != 1 else tuple(nums[k:])
            lo, den = lo + k, den // g
        for name, value in (("ram", ram), ("lo", lo), ("trunc", trunc), ("den", den), ("nums", nums)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    def _kept_stride(self) -> int:
        """The stride of the numerators, kept on first use."""
        try:
            return self._step
        except AttributeError:
            object.__setattr__(self, "_step", _stride(self.nums))
            return self._step

    def _key(self) -> tuple:
        return self.ram, self.lo, self.trunc, self.den, self.nums

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order, ram: int = 1) -> "PuiseuxSeries":
        p, q = _ratio(order)
        return _of(ram, p * ram // q, p * ram // q, (), 1)

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
        num, den = _ratio(coeff)
        return _of(ram, lo, t, [num] + [0] * (t - lo - 1), den)

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

    @property
    def coeffs(self) -> tuple:
        """The window as Fractions, one per slot lo .. trunc-1."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

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
        return Fraction(self.nums[i], self.den)

    def terms(self):
        """Yield (exponent, coefficient) for the nonzero stored terms."""
        for i, x in enumerate(self.nums):
            if x:
                yield Fraction(self.lo + i, self.ram), Fraction(x, self.den)

    # -- normalization ------------------------------------------------------

    def _spread(self, ram: int, m: int) -> "PuiseuxSeries":
        """The numerators at every m-th slot of a grid of ramification ram."""
        c = [0] * ((self.trunc - self.lo) * m)
        c[::m] = self.nums
        return _of(ram, self.lo * m, self.trunc * m, c, self.den)

    def _rescaled(self, m: int) -> "PuiseuxSeries":
        """Same series on the finer grid ram*m."""
        return self if m == 1 else self._spread(self.ram * m, m)

    def reduce_ram(self) -> "PuiseuxSeries":
        """The same series on the coarsest grid carrying its nonzero
        exponents and its truncation, so the window stays the same."""
        d = _stride(self.nums, math.gcd(self.ram, self.lo, self.trunc))
        if d == 1:
            return self
        return _of(self.ram // d, self.lo // d, self.trunc // d, self.nums[::d], self.den)

    def truncate(self, order) -> "PuiseuxSeries":
        """Forget all coefficients at exponents >= order.

        An order off the grid refines the grid to lcm(ram, order's
        denominator), so an order below self.order is kept exactly."""
        p, q = _ratio(order)
        if p * self.ram >= self.trunc * q:
            return self
        s = self._rescaled(math.lcm(self.ram, q) // self.ram)
        t = p * (s.ram // q)
        if t <= s.lo:
            return _of(s.ram, t, t, (), 1)
        return _of(s.ram, s.lo, t, s.nums[: t - s.lo], s.den)

    # -- ring operations ----------------------------------------------------

    def _aligned(self, other: "PuiseuxSeries"):
        l = math.lcm(self.ram, other.ram)
        return self._rescaled(l // self.ram), other._rescaled(l // other.ram)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            t = self.trunc
            nums = [other.numerator] + [0] * (t - 1) if t > 0 else ()
            other = _of(self.ram, min(0, t), t, nums, other.denominator)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        t = min(a.trunc, b.trunc)
        lo = min(a.lo, b.lo, t)
        d = math.lcm(a.den, b.den)
        c = [0] * (t - lo)
        for k, s in enumerate((a, b)):
            # an operand starting at or past t has no slot in the window
            head = s.nums[: max(t - s.lo, 0)]
            i, j = s.lo - lo, s.lo - lo + len(head)
            m = d // s.den
            if m != 1:
                head = map(mul, head, repeat(m))
            # the first operand lands on zeros
            c[i:j] = map(add, c[i:j], head) if k else head
        return _of(a.ram, lo, t, c, d)

    __radd__ = __add__

    def __neg__(self):
        return _of(self.ram, self.lo, self.trunc, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _of(self.ram, self.lo, self.trunc, [x * p for x in self.nums], self.den * other.denominator)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if _memo is None:
            return _product(self, other)
        # a*b and b*a are the same series, so one entry serves both
        return _memo.get_or_make(frozenset((self._key(), other._key())), _product, self, other)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse as a truncated Laurent unit.

        Requires a nonzero leading coefficient; the result satisfies
        self * inverse == 1 through the provable window.
        """
        if _memo is None:
            return _inverse(self)
        return _memo.get_or_make(self._key(), _inverse, self)

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
        return _power(self, n) if n else PuiseuxSeries.one(Fraction(self.trunc - self.lo, self.ram))

    def subst_q_power(self, r) -> "PuiseuxSeries":
        """Substitute q -> q^r (r a positive rational): every exponent e
        becomes r*e, on the minimal grid containing the scaled exponents."""
        p, s = _ratio(r)
        if p <= 0:
            raise ValueError("exponent scale must be positive")
        d = math.gcd(p, self.ram * s)
        return self._spread(self.ram * s // d, p // d)

    # -- comparisons --------------------------------------------------------

    def agrees_with(self, other: "PuiseuxSeries") -> bool:
        """Equal on the overlap of the two provable windows."""
        a, b = self._aligned(other)
        return (a - b).is_zero()

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return (a.lo, a.trunc, a.den, a.nums) == (b.lo, b.trunc, b.den, b.nums)

    def __hash__(self):
        r = self.reduce_ram()
        return hash((r.ram, r.lo, r.trunc, r.den, r.nums))

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
        """Arbitrary-precision-safe dict: integers as decimal strings, each
        coefficient as its lowest-terms [numerator, denominator]."""
        den = self.den
        return {
            "ram": self.ram,
            "lo": self.lo,
            "trunc": self.trunc,
            "coeffs": [[str(x // (g := math.gcd(x, den))), str(den // g)] for x in self.nums],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PuiseuxSeries":
        coeffs = [Fraction(int(n), int(d)) for n, d in obj["coeffs"]]
        return cls(int(obj["ram"]), int(obj["lo"]), int(obj["trunc"]), coeffs)


def _product(x: PuiseuxSeries, y: PuiseuxSeries) -> PuiseuxSeries:
    """The series product x * y, on the integer kernel."""
    a, b = x._aligned(y)
    t = min(a.trunc + b.lo, b.trunc + a.lo)
    if a.is_zero() or b.is_zero():
        return _of(a.ram, t, t, (), 1)
    lo = a.lo + b.lo
    n = t - lo
    na, nb = a.nums[:n], b.nums[:n]
    s = math.gcd(a._kept_stride(), b._kept_stride()) or n
    c = [0] * n
    c[::s] = _int_mul(na[::s], nb[::s], -(-n // s))
    return _of(a.ram, lo, t, c, a.den * b.den)


def _inverse(series: PuiseuxSeries) -> PuiseuxSeries:
    """series.inverse(), by Newton iteration on the integer kernel."""
    if series.is_zero():
        raise ZeroLeadingCoefficient("series is zero through its known window")
    n = series.trunc - series.lo
    u = series.nums
    s = series._kept_stride() or n
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
    # W_k * D / u0^(ks+1) over the common denominator u0^(last+1)
    last = (m - 1) * s
    step, scale = u0 ** s, series.den
    for k in range(m - 1, -1, -1):
        w[k] *= scale
        scale *= step
    c = [0] * n
    c[::s] = w
    return _of(series.ram, -series.lo, series.trunc - 2 * series.lo, c, u0 ** (last + 1))


class product_memo(dict):
    """The scope ``with product_memo() as memo:``, in which every series
    product and inverse is looked up by the operands' values (ram, lo,
    trunc, den, nums) and made once.  Series are immutable and canonical,
    so equal keys mean equal results.  ``slots`` counts the numerators
    held; past _MAX_MEMO_SLOTS results are made without being stored.
    Scopes nest, and on exit the enclosing one is back."""

    slots = hits = misses = 0

    def __enter__(self):
        global _memo
        self.outer, _memo = _memo, self
        return self

    def __exit__(self, *exc_info):
        global _memo
        _memo = self.outer

    def get_or_make(self, key, make, *args):
        hit = self.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        made = make(*args)
        if self.slots + len(made.nums) <= _MAX_MEMO_SLOTS:
            self[key] = made
            self.slots += len(made.nums)
        return made


# The memo of the innermost open scope, or None.  The cap bounds what one
# scope holds: the largest check at order 60 (hulek-craig-2tors) stores
# 19,936 numerators.
_memo = None
_MAX_MEMO_SLOTS = 1 << 15


def _power(x, n: int):
    """x ** n for n >= 1 by left-to-right binary powering from x itself
    (Knuth, TAOCP vol. 2, 4.6.3): a squaring per bit after the leading one,
    and a product by x per set bit among them."""
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def _of(ram: int, lo: int, trunc: int, nums, den: int) -> PuiseuxSeries:
    """The series sum nums[i]/den q^((lo+i)/ram), i < trunc - lo, in
    canonical form: leading zeros trimmed, den > 0, gcd(den, *nums) == 1."""
    s = object.__new__(PuiseuxSeries)
    s._set(ram, lo, trunc, nums, den)
    return s


# signed array typecodes by item size: the narrow slot widths 1, 2, 4 and 8
_WORD_CODE = {array(code).itemsize: code for code in "bhilq"}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack_words(xs, width: int) -> int:
    """The int whose width-byte slots hold xs in two's complement, slot k
    at bit 8*width*k, for width in (1, 2, 4, 8)."""
    words = array(_WORD_CODE[width], xs)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _unpack_words(raw: bytes, width: int) -> list:
    """The two's complement width-byte slots of raw as ints, for width in
    (1, 2, 4, 8)."""
    words = array(_WORD_CODE[width], raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


# per byte value, the byte its sign extends to: 0xff from 0x80 up, else 0
_SIGN_FILL = bytes(255 * (b >> 7) for b in range(256))


def _pack_narrow(xs, width: int) -> int:
    """_pack_words for a width below 8: eight-byte words, of which each
    slot keeps its low width bytes, copied by strided slices."""
    words = array(_WORD_CODE[8], xs)
    if _BIG_ENDIAN:
        words.byteswap()
    # strided slices of bytes copy faster than those of a memoryview
    raw = words.tobytes()
    out = bytearray(width * len(words))
    for j in range(width):
        out[j::width] = raw[j::8]
    return int.from_bytes(out, "little")


def _unpack_narrow(raw: bytes, width: int) -> list:
    """_unpack_words for a width below 8: each slot widened to eight
    bytes, its top bytes filled from its sign."""
    wide = bytearray(8 * (len(raw) // width))
    for j in range(width):
        wide[j::8] = raw[j::width]
    sign = raw[width - 1::width].translate(_SIGN_FILL)
    for j in range(width, 8):
        wide[j::8] = sign
    words = array(_WORD_CODE[8], wide)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _pack_bytes(xs, width: int) -> int:
    """_pack_words for any width."""
    return int.from_bytes(b"".join([x.to_bytes(width, "little", signed=True) for x in xs]), "little")


def _unpack_bytes(raw: bytes, width: int) -> list:
    """_unpack_words for any width."""
    return [int.from_bytes(raw[k:k + width], "little", signed=True) for k in range(0, len(raw), width)]


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
    if width in (5, 6):
        # exact-width slots, narrowed from and widened to machine words
        pack, unpack = _pack_narrow, _unpack_narrow
    elif width <= 8:
        # one machine word per slot, converted at C level; 3 and 7 bytes
        # round up, which measured faster than narrowing
        width = 1 << (width - 1).bit_length()
        pack, unpack = _pack_words, _unpack_words
    else:
        pack, unpack = _pack_bytes, _unpack_bytes
    # xor with the top bit of each slot turns a two's complement slot x into
    # x + 2^(8*width-1) >= 0, so one bias per operand gives its signed value
    top = b"\x00" * (width - 1) + b"\x80"
    bias_a = int.from_bytes(top * len(a), "little")
    bias_b = bias_a if len(b) == len(a) else int.from_bytes(top * len(b), "little")
    bias_m = bias_a if m == len(a) else bias_b if m == len(b) else int.from_bytes(top * m, "little")
    product = ((pack(a, width) ^ bias_a) - bias_a) * ((pack(b, width) ^ bias_b) - bias_b)
    # biased, the low m slots of the product are unsigned; xor makes them
    # two's complement again
    low = ((product + bias_m) & ((1 << (8 * width * m)) - 1)) ^ bias_m
    return unpack(low.to_bytes(width * m, "little"), width)


def pochhammer_product(factors, prefactor_exp, order) -> PuiseuxSeries:
    """q^prefactor_exp * F, F = prod over n >= 1 of (1 - q^n)^(E_n),
    truncated at q^order.

    ``factors`` is an iterable of integer triples (residue a, modulus m,
    exponent e), m >= 1; each adds e to E_n for every n = a mod m, n >= 1
    (residue 0 means the multiples of m, and e < 0 gives inverse factors).
    F is built in one pass of its logarithmic-derivative recurrence (see
    the module docstring), whatever the signs and sizes of the E_n.  Only
    finitely many n touch exponents below the requested order, so the
    result is exact through the window.
    """
    pre = _rat(prefactor_exp)
    o = _rat(order)
    if o <= pre:
        raise ValueError("order must exceed the prefactor exponent")
    # the last body index below the order: pre + m_int < o <= pre + m_int + 1
    m_int = math.ceil(o - pre) - 1
    # weight[n] = -n * E_n
    weight = [0] * (m_int + 1)
    for a, m, e in factors:
        a, m, e = index(a), index(m), index(e)
        if m < 1:
            raise ValueError("modulus must be >= 1")
        for n in range(a % m or m, m_int + 1, m):
            weight[n] -= n * e
    # dlog[k] = c_k = sum over d | k of weight[d]
    dlog = [0] * (m_int + 1)
    for d in compress(range(m_int + 1), weight):
        for k in range(d, m_int + 1, d):
            dlog[k] += weight[d]
    # n F_n = sum_{k=1..n} c_k F_{n-k}, with F_0 = 1
    body = [1]
    for n in range(1, m_int + 1):
        body.append(sum(map(mul, dlog[1 : n + 1], reversed(body))) // n)
    # q^pre times the body, on the grid of pre's denominator
    r = pre.denominator
    c = [0] * ((m_int + 1) * r)
    c[::r] = body
    return _of(r, pre.numerator, pre.numerator + (m_int + 1) * r, c, 1).truncate(o)


class QPoly:
    """Dense univariate polynomial over Q, stored as a series is: integer
    numerators ``nums`` over one positive denominator ``den``, in lowest
    terms, with trailing zeros trimmed, so each value has one form.  Index i
    holds the coefficient of the i-th power, and ``coeffs`` is the same as a
    tuple of Fractions, built on each read.  The zero polynomial has no
    numerators."""

    # _floats: the coefficients as complex, highest first, set on first use (see __call__)
    __slots__ = ("nums", "den", "_floats")

    def __init__(self, coeffs=()):
        self._set(*_numerators(coeffs))

    def _set(self, nums, den) -> "QPoly":
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = 1 if den == 1 else math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(x // g for x in nums) if g != 1 else tuple(nums))
        object.__setattr__(self, "den", den // g)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def from_terms(cls, terms: dict) -> "QPoly":
        nums, den = _numerators(terms.values())
        c = [0] * (max(terms, default=-1) + 1)
        for k, x in zip(terms, nums):
            c[k] += x
        return _qpoly(c, den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power first."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        d = math.lcm(self.den, other.den)
        ma, mb = d // self.den, d // other.den
        return _qpoly([a * ma + b * mb for a, b in zip_longest(self.nums, other.nums, fillvalue=0)], d)

    __radd__ = __add__

    def __neg__(self):
        return _qpoly([-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return _qpoly([x * p for x in self.nums], self.den * q)
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly()
        a, b = self.nums, other.nums
        return _qpoly(_int_mul(a, b, len(a) + len(b) - 1), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power requires a non-negative integer")
        return _power(self, n) if n else QPoly([1])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / _rat(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        # a constant hashes as the number it equals
        if len(self.nums) <= 1:
            return hash(Fraction(self.nums[0], self.den) if self.nums else 0)
        return hash((self.nums, self.den))

    def __call__(self, x):
        """Horner evaluation, acc = acc * x + c from acc = x * 0 + c, the
        highest coefficient first; x may be a Fraction, int, float, complex
        or series.  At a series x every c is added exactly, so the value is
        known as far as x where x starts at or above q^0, and each product
        lowers the window by |v| where x starts at q^v, v < 0.

        At a complex x, acc * x + c adds complex(float(c)) through
        Fraction.__radd__; those numbers are made once per polynomial and
        added directly, so every value keeps its bits."""
        if not self.nums:
            return 0 * x
        if type(x) is complex:
            try:
                cs = iter(self._floats)
            except AttributeError:
                object.__setattr__(self, "_floats", tuple(complex(float(v)) for v in reversed(self.coeffs)))
                cs = iter(self._floats)
        else:
            cs = reversed(self.coeffs)
        acc = x * 0 + next(cs)
        for v in cs:
            acc = acc * x + v
        return acc

    def in_power(self, k: int) -> "QPoly":
        """Reinterpret self(y) as a polynomial in x with y = x^k."""
        c = [0] * (k * len(self.nums))
        c[::k] = self.nums
        return _qpoly(c, self.den)

    def __repr__(self):
        if self.is_zero():
            return "QPoly(0)"
        parts = [f"{v}*x^{i}" for i, v in enumerate(self.coeffs) if v]
        return "QPoly(" + " + ".join(parts) + ")"


def _qpoly(nums, den: int) -> QPoly:
    """The polynomial sum nums[i]/den x^i in canonical form: trailing zeros
    trimmed, den > 0, gcd(den, *nums) == 1."""
    return object.__new__(QPoly)._set(nums, den)
