"""Exact arithmetic over the Gaussian rationals.

Polynomials and rational functions in z with Q(i) coefficients carry the
structural layer of the toolkit: defining-equation coefficients, resultants,
discriminants, and Laurent orders are all computed here without rounding.
A Gaussian rational is held as the int triple (a, b, d) of (a + b*i)/d with
d > 0 and gcd(a, b, d) = 1, so field operations are a few int operations
and one gcd. A Poly has one stored form, q / d: its coefficients over the
Gaussian integers Z[i][z], as a tuple of (re, im) int pairs, over one
integer denominator d, canonical by gcd(d, every re and im of q) = 1. Every
operation but divmod runs on that form and ends with one integer gcd; its
coefficients as Gaussian rationals are a view built on first use, read
only at the edges: the formatter, divmod and the antiderivative's constant
snap. The product of two polynomials is the one Z[i][z] product. The
parser carries each value as an unreduced Z[i][z] numerator and
denominator and reduces once, at the end. A gcd is 1 without further work
when the images mod a prime keep their degrees and are coprime (Brown,
JACM 1971); otherwise it is Euclid's algorithm on primitive
pseudo-remainders, and the cofactors come from exact long division by the
primitive gcd, valid by Gauss's lemma (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 6).
A resultant Res(f, g), m = deg f >= deg g = n, clears f and g into F and G
over Z[i][z], one factor each, and takes Res(F, G) from the m x m Bezout
matrix of the coefficients of (F(x)G(y) - F(y)G(x))/(x - y), by the
identity det Bez(F, G) = (-1)**(m(m-1)/2) lc(F)**(m-n) Res(F, G) (Cox,
Little & O'Shea, *Using Algebraic Geometry*, ch. 3), in place of the
(m + n) x (m + n) Sylvester determinant. The determinant is taken by
fraction-free Bareiss elimination (Math. Comp. 1968), run over Z[i] at the
one point z = 2**B, with B from a bound on every minor of the Bezout matrix
and on Res(F, G): each pivot decision is the polynomial one, and Res(F, G)
unpacks into the same polynomial. Every factor of the multiplier
fscale**n gscale**m divides the product of the two clearing factors, so
the shared factors are stripped, over Z[i][z], first by exact division by
whole powers of each clearing factor the multiplier holds at least twice,
then by gcds against the low-degree product of the two factors alone.
The expression grammar accepts integers, `i`, `z`, the binary operators
`+ - * /`, `^` with a nonnegative integer exponent of at most 64, and
parentheses. A power whose numerator or denominator would pass degree 512
or hold a coefficient of more than 2^16 bits, parentheses nested more than
100 deep and an integer literal longer than the interpreter converts are
refused as SyntaxError before any work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

from .errors import (DivisionByZeroPoly, IdenticallyZeroDiscriminant, RootFindingFailure,
                     ZeroFunction)

__all__ = [
    "GaussianRational",
    "Poly",
    "RatFunc",
    "parse_coefficient",
    "resultant_w",
    "discriminant",
    "laurent_order",
    "w_poly_mul",
    "w_poly_derivative",
]

_FractionLike = Union[int, Fraction]


class GaussianRational:
    """Exact complex number (a + b*i)/d, held as the canonical int triple
    with d > 0 and gcd(a, b, d) = 1; immutable."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _FractionLike = 0, im: _FractionLike = 0):
        re, im = Fraction(re), Fraction(im)
        # with re = p/q and im = r/s reduced, gcd(a, b, lcm(q, s)) is already 1
        q, s = re.denominator, im.denominator
        d = math.lcm(q, s)
        _set_a(self, re.numerator * (d // q))
        _set_b(self, im.numerator * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _make(value, 0, 1)
        if isinstance(value, (Fraction, float)):
            value = Fraction(value)
            return _make(value.numerator, 0, value.denominator)
        if isinstance(value, complex):
            return GaussianRational(Fraction(value.real), Fraction(value.imag))
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a + other._a, self._b + other._b, d1)
        return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -GaussianRational.of(other)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2, d2 = self._a, self._b, other._a, other._b, other._d
        n2 = a2 * a2 + b2 * b2
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n2)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __complex__(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if not self._b:
            return _frac_str(self.re)
        if not self._a:
            return _imag_str(self.im)
        return f"{_frac_str(self.re)} {_imag_str(self.im, signed=True)}"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced to its canonical triple."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    obj = object.__new__(GaussianRational)
    _set_a(obj, a)
    _set_b(obj, b)
    _set_d(obj, d)
    return obj


_GR_ZERO = _make(0, 0, 1)
_GR_ONE = _make(1, 0, 1)
_GR_MINUS_ONE = _make(-1, 0, 1)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _imag_str(q: Fraction, signed: bool = False) -> str:
    sign = ""
    if signed:
        sign = "+ " if q >= 0 else "- "
        q = abs(q)
    if q == 1:
        return f"{sign}i"
    if q == -1:
        return f"{sign}-i" if not signed else f"{sign}i"
    return f"{sign}{_frac_str(q)}*i"


# --- polynomials over the Gaussian integers -------------------------------
#
# A polynomial over Z[i][z] is a sequence of (re, im) int pairs, ascending
# in z, with no trailing (0, 0); [] is the zero polynomial. It is the stored
# form of Poly, over one integer denominator, and the working form of the
# parser and the resultant.

_GZ_ONE = [(1, 0)]


def _gz_mul(a: list, b: list) -> list:
    """a * b over Z[i][z], by the schoolbook product: the one polynomial product."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ar, ai), = a
        return [(ar * br - ai * bi, ar * bi + ai * br) for br, bi in b]
    re, im = [0] * (len(a) + len(b) - 1), [0] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        if ar or ai:
            for j, (br, bi) in enumerate(b, i):
                re[j] += ar * br - ai * bi
                im[j] += ar * bi + ai * br
    return list(zip(re, im))


def _gz_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = [(ar + br, ai + bi) for (ar, ai), (br, bi) in zip(a, b)]
    out += a[len(b):]
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _gz_neg(a: list) -> list:
    return [(-r, -i) for r, i in a]


def _gz_norm1(a: list) -> int:
    """The sum of |re| + |im| over the coefficients, a norm with
    |ab| <= |a| |b| that bounds every coefficient."""
    return sum(abs(r) + abs(i) for r, i in a)


def _gz_pow(a: list, n: int) -> list:
    result = _GZ_ONE
    while n:
        if n & 1:
            result = a if result is _GZ_ONE else _gz_mul(result, a)
        n >>= 1
        if n:
            a = _gz_mul(a, a)
    return result


def _gz_pack(p: list, bits: int) -> tuple[int, int]:
    """p at z = 2**bits, as the (re, im) pair of a Gaussian integer."""
    re = im = 0
    for r, i in reversed(p):
        re, im = (re << bits) + r, (im << bits) + i
    return re, im


def _gz_unpack(re: int, im: int, bits: int) -> list:
    """The p with _gz_pack(p, bits) == (re, im) whose coefficients all lie in
    [-2**(bits-1), 2**(bits-1)), read as signed base-2**bits digits."""
    half, mask, parts = 1 << (bits - 1), (1 << bits) - 1, ([], [])
    for x, digits in zip((re, im), parts):
        while x:
            d = ((x + half) & mask) - half
            digits.append(d)
            x = (x - d) >> bits
    return list(zip_longest(*parts, fillvalue=0))


def _gi_exact_div(nr: int, ni: int, dr: int, di: int) -> tuple[int, int]:
    """(nr + i ni) / (dr + i di) in Z[i]; ArithmeticError unless exact."""
    norm = dr * dr + di * di
    qr, rr = divmod(nr * dr + ni * di, norm)
    qi, ri = divmod(ni * dr - nr * di, norm)
    if rr or ri:
        raise ArithmeticError("division was not exact")
    return qr, qi


def _gi_gcd(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    """A greatest common divisor in Z[i] (up to a unit), by Euclid with the
    rounded quotient: each remainder has at most half the divisor's norm."""
    while br or bi:
        norm = br * br + bi * bi
        xr, xi = ar * br + ai * bi, ai * br - ar * bi  # a * conj(b)
        qr, qi = (2 * xr + norm) // (2 * norm), (2 * xi + norm) // (2 * norm)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _gz_exact_div(num: list, div: list) -> list:
    """num / div over Z[i][z], by long division with exact Gaussian-integer
    quotients; ArithmeticError unless div divides num over Z[i][z]. By Gauss's
    lemma that holds whenever div is primitive and divides num over Q(i)."""
    n = len(div) - 1
    rem, quot = list(num), [(0, 0)] * max(0, len(num) - n)
    dr, di = div[-1]
    for k in range(len(quot) - 1, -1, -1):
        qr, qi = quot[k] = _gi_exact_div(*rem[k + n], dr, di)
        if qr or qi:
            for j in range(n):
                (xr, xi), (yr, yi) = rem[k + j], div[j]
                rem[k + j] = (xr - qr * yr + qi * yi, xi - qr * yi - qi * yr)
    if any(r or i for r, i in rem[:n]):
        raise ArithmeticError("division was not exact")
    return quot


def _gz_content(q) -> tuple[int, int]:
    """The Gaussian-integer gcd of q's coefficients (up to a unit)."""
    gr, gi = 0, 0
    for r, i in q:
        gr, gi = _gi_gcd(gr, gi, r, i)
    return gr, gi


def _gz_primitive(q: list) -> list:
    """q divided by the Gaussian-integer gcd of its coefficients, for q != []."""
    gr, gi = _gz_content(q)
    if gr * gr + gi * gi == 1:
        return q
    return [_gi_exact_div(r, i, gr, gi) for r, i in q]


def _gz_prem(f: list, g: list) -> list:
    """A nonzero Z[i] multiple of f mod g, over Z[i][z], for g != []: each
    step cancels the leading term by an exact Gaussian-integer quotient, or
    where there is none, after scaling the remainder by g's leading
    coefficient."""
    r, n = list(f), len(g) - 1
    gr, gi = g[-1]
    norm = gr * gr + gi * gi
    while len(r) > n:
        cr, ci = r.pop()
        k = len(r) - n
        xr, xi = cr * gr + ci * gi, ci * gr - cr * gi  # lead(r) * conj(lead(g))
        if xr % norm or xi % norm:
            r = [(gr * sr - gi * si, gr * si + gi * sr) for sr, si in r]
            qr, qi = cr, ci
        else:
            qr, qi = xr // norm, xi // norm
        for j in range(n):
            (sr, si), (yr, yi) = r[k + j], g[j]
            r[k + j] = (sr - qr * yr + qi * yi, si - qr * yi - qi * yr)
        while r and r[-1] == (0, 0):
            r.pop()
    return r


# The prime of the modular coprimality test: _MOD_P = 1 mod 4, so i -> _I_MOD_P,
# a square root of -1 mod _MOD_P, is a ring map from Z[i] onto GF(_MOD_P).
_MOD_P = 998244353
_I_MOD_P = 911660635  # 3**((_MOD_P - 1) // 4) % _MOD_P


def _gz_gcd(f: list, g: list) -> list:
    """A greatest common divisor over Z[i][z] of f, g != [], primitive.

    A nonzero constant has gcd 1 with anything. Two polynomials of positive
    degree whose images in GF(_MOD_P)[z] keep their degrees and are coprime
    are coprime (Brown, JACM 1971): a common factor of positive degree,
    taken primitive over the local ring of Z[i] at the kernel of the map,
    would keep its degree there and divide both images. Only otherwise does
    the Euclidean algorithm run.
    """
    if len(f) == 1 or len(g) == 1 or _coprime_mod_p(f, g):
        return _GZ_ONE
    return _gz_euclid(f, g)


def _gz_euclid(f: list, g: list) -> list:
    """The primitive gcd of f, g != [] by the Euclidean algorithm on
    pseudo-remainders, each made primitive: each is a nonzero Gaussian-
    integer multiple of the remainder over Q(i), so the last nonzero one is
    a gcd."""
    while g:
        f, g = g, _gz_prem(f, g)
        if g:
            g = _gz_primitive(g)
    return _gz_primitive(f)


def _mod_p(q: list) -> list[int] | None:
    """q's image in GF(_MOD_P)[z], descending; None when the image of its
    leading coefficient is 0."""
    out = [(r + i * _I_MOD_P) % _MOD_P for r, i in reversed(q)]
    return out if out[0] else None


def _gf_rem(f: list[int], g: list[int]) -> list[int]:
    """f mod g in GF(_MOD_P)[z], descending, for g with a nonzero leading
    coefficient; the remainder has no leading zeros ([] for zero)."""
    n = len(g)
    if len(f) < n:
        return f
    f, inv = list(f), pow(g[0], -1, _MOD_P)
    for k in range(len(f) - n + 1):
        c = f[k] * inv % _MOD_P
        if c:
            for j in range(1, n):
                f[k + j] = (f[k + j] - c * g[j]) % _MOD_P
    r = f[len(f) - n + 1:]
    while r and not r[0]:
        del r[0]
    return r


def _coprime_mod_p(f: list, g: list) -> bool:
    """True when the images of f and g in GF(_MOD_P)[z] keep their degrees
    and are coprime; f and g are then coprime over Q(i)."""
    f, g = _mod_p(f), _mod_p(g)
    if f is None or g is None:
        return False
    while len(g) > 1:
        f, g = g, _gf_rem(f, g)
    return bool(g)


def _poly(q, d: int = 1) -> "Poly":
    """The Poly q / d, for q over Z[i][z] and an int d > 0, brought to the
    canonical form by one gcd of d with every re and im of q."""
    if d != 1:
        g = math.gcd(d, *(x for pair in q for x in pair))
        if g != 1:
            q, d = [(r // g, i // g) for r, i in q], d // g
    out = object.__new__(Poly)
    _set_poly_q(out, tuple(q))
    _set_poly_d(out, d)
    _set_coeffs(out, None)
    _set_fc(out, None)
    return out


class Poly:
    """Univariate polynomial in z over the Gaussian rationals.

    Stored as q / d: q a tuple of (re, im) int pairs, the coefficients over
    Z[i] ascending in z with no trailing (0, 0) (the zero polynomial has
    q = ()), and an int d > 0 with gcd(d, every re and im of q) = 1. The
    form is canonical, so equal polynomials have equal (q, d). coeffs views
    the same coefficients as GaussianRationals.
    """

    __slots__ = ("q", "d", "_coeffs", "_fc")

    def __init__(self, coeffs: Iterable = ()):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # each triple is reduced, so a prime that divides d (the lcm of the
        # denominators) and every entry of q would divide some a, b and d
        d = math.lcm(*(c._d for c in cs))
        _set_poly_q(self, tuple((c._a * (d // c._d), c._b * (d // c._d)) for c in cs))
        _set_poly_d(self, d)
        _set_coeffs(self, tuple(cs))
        _set_fc(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients as GaussianRationals, ascending; built once."""
        cs = self._coeffs
        if cs is None:
            cs = tuple(_make(r, i, self.d) for r, i in self.q)
            _set_coeffs(self, cs)
        return cs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.q) - 1

    def is_zero(self) -> bool:
        return not self.q

    def leading(self) -> GaussianRational:
        if not self.q:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b, d = self.q, other.q, self.d
        if d != other.d:
            d = math.lcm(d, other.d)
            ma, mb = d // self.d, d // other.d
            a, b = [(r * ma, i * ma) for r, i in a], [(r * mb, i * mb) for r, i in b]
        return _poly(_gz_add(a, b), d)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _poly(_gz_neg(self.q), self.d)

    def __mul__(self, other: "Poly") -> "Poly":
        return _poly(_gz_mul(self.q, other.q), self.d * other.d)

    def scale(self, c) -> "Poly":
        c = GaussianRational.of(c)
        if not c:
            return _P_ZERO
        return _poly(_gz_mul(self.q, [(c._a, c._b)]), self.d * c._d)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _poly(_gz_pow(self.q, n), self.d**n)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        rem, div = list(self.coeffs), other.coeffs
        quot = [_GR_ZERO] * max(0, len(rem) - len(div) + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + len(div) - 1] / div[-1]
            if c:
                for j, b in enumerate(div):
                    rem[j + k] -= c * b
        return Poly(quot), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other; ArithmeticError unless other divides self."""
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        # other = c * prim / other.d with c its content, so self / other is
        # (self.q / prim) * conj(c) * other.d / (self.d * |c|^2); the first
        # quotient is over Z[i][z] by Gauss's lemma
        cr, ci = _gz_content(other.q)
        quot = _gz_exact_div(self.q, [_gi_exact_div(r, i, cr, ci) for r, i in other.q])
        return _poly(_gz_mul(quot, [(cr * other.d, -ci * other.d)]),
                     self.d * (cr * cr + ci * ci))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lr, li = self.q[-1]
        if lr == self.d and not li:
            return self
        # the leading coefficient is (lr + li i) / d
        return _poly(_gz_mul(self.q, [(lr, -li)]), lr * lr + li * li)

    def derivative(self) -> "Poly":
        return _poly([(n * r, n * i) for n, (r, i) in enumerate(self.q) if n], self.d)

    def eval_exact(self, z) -> GaussianRational:
        """The value at z = (a + b i)/e, by Horner's rule over Z[i] on
        sum q_n (a + b i)^n e^(deg - n), over d e^deg."""
        if not self.q:
            return _GR_ZERO
        z = GaussianRational.of(z)
        zr, zi, e = z._a, z._b, z._d
        (ar, ai), w = self.q[-1], 1
        for r, i in reversed(self.q[:-1]):
            w *= e
            ar, ai = ar * zr - ai * zi + r * w, ar * zi + ai * zr + i * w
        return _make(ar, ai, self.d * w)

    def _float_coeffs(self) -> tuple[complex, ...]:
        """The coefficients as complex floats, converted once;
        RootFindingFailure names a coefficient beyond float range."""
        fc = self._fc
        if fc is None:
            d, fc = self.d, []
            for n, (r, i) in enumerate(self.q):
                try:  # int true division is correctly rounded
                    fc.append(complex(r / d, i / d))
                except OverflowError:
                    c = self.coeffs[n]
                    bits = max(abs(c._a), abs(c._b)).bit_length() - c._d.bit_length()
                    raise RootFindingFailure(
                        f"the coefficient of z^{n}, of magnitude about 2^{bits}, "
                        "is beyond float range") from None
            fc = tuple(fc)
            _set_fc(self, fc)
        return fc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self._float_coeffs()):
            acc = acc * z + c
        return acc

    def root_multiplicity(self, z0: GaussianRational) -> int:
        """Exact multiplicity of z0 as a root."""
        if self.is_zero():
            raise ZeroFunction("multiplicity undefined for the zero polynomial")
        factor = Poly([-z0, _GR_ONE])
        p, count = self, 0
        while not p.is_zero() and not p.eval_exact(z0):
            p = p.exact_div(factor)
            count += 1
        return count

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.q, self.d))

    def __str__(self) -> str:
        return _format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({_format_poly(self)})"


_set_poly_q = Poly.q.__set__
_set_poly_d = Poly.d.__set__
_set_coeffs = Poly._coeffs.__set__
_set_fc = Poly._fc.__set__
_P_ZERO = Poly()
_P_ONE = Poly([1])
_P_Z = Poly([0, 1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (see _gz_gcd)."""
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    return _poly(_gz_gcd(a.q, b.q)).monic()


def _term_str(coef: GaussianRational, power: int) -> str:
    if power == 0:
        s = str(coef)
        return f"({s})" if coef.re != 0 and coef.im != 0 else s
    if coef == _GR_ONE:
        head = ""
    elif coef == _GR_MINUS_ONE:
        head = "-"
    else:
        s = str(coef)
        needs_parens = coef.im != 0 or coef.re.denominator != 1 or coef.re < 0
        head = (f"({s})" if needs_parens else s) + "*"
    zp = "z" if power == 1 else f"z^{power}"
    return head + zp


def _format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    terms = [_term_str(c, power) for power, c in reversed(list(enumerate(p.coeffs))) if c]
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-") and not t.startswith("-("):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero():
            raise DivisionByZeroPoly("denominator is identically zero")
        if num.is_zero():
            num, den = _P_ZERO, _P_ONE
        elif den.degree > 0:  # a constant denominator has only unit gcds
            g = _gz_gcd(num.q, den.q)
            if len(g) > 1:
                num = _poly(_gz_exact_div(num.q, g), num.d)
                den = _poly(_gz_exact_div(den.q, g), den.d)
        self._set_monic(num, den)

    @staticmethod
    def _reduced(num: Poly, den: Poly) -> "RatFunc":
        """num/den for coprime num and den != 0: only den is made monic."""
        out = object.__new__(RatFunc)
        out._set_monic(num, den)
        return out

    def _set_monic(self, num: Poly, den: Poly) -> None:
        lr, li = den.q[-1]
        if lr != den.d or li:
            # num over den's leading coefficient (lr + li i) / den.d
            num = _poly(_gz_mul(num.q, [(lr * den.d, -li * den.d)]), num.d * (lr * lr + li * li))
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def zero() -> "RatFunc":
        return _R_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _R_ONE

    @staticmethod
    def z() -> "RatFunc":
        return _R_Z

    @staticmethod
    def constant(c) -> "RatFunc":
        return RatFunc(Poly.constant(c))

    @staticmethod
    def of(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return RatFunc(value)
        return RatFunc(Poly.constant(GaussianRational.of(value)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def degree(self) -> int:
        """max(deg num, deg den); -1 for the zero function."""
        return max(self.num.degree, self.den.degree)

    def __add__(self, other):
        other = RatFunc.of(other)
        if self.den.degree == other.den.degree == 0:  # monic: both are 1
            return RatFunc(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -RatFunc.of(other)

    def __rsub__(self, other):
        return RatFunc.of(other) - self

    def __mul__(self, other):
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.of(other)
        if other.is_zero():
            raise DivisionByZeroPoly("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroPoly("zero function to a negative power")
            return RatFunc(self.den**-n, self.num**-n)
        return RatFunc(self.num**n, self.den**n if self.den.degree else _P_ONE)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval_complex(self, z: complex) -> complex:
        return self.num.eval_complex(z) / self.den.eval_complex(z)

    def eval_exact(self, z: GaussianRational) -> GaussianRational:
        """The value at z; ZeroDivisionError at a pole."""
        return self.num.eval_exact(z) / self.den.eval_exact(z)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.degree == 0:
            return _format_poly(self.num)
        return f"({_format_poly(self.num)})/({_format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


_R_ZERO = RatFunc(_P_ZERO)
_R_ONE = RatFunc(_P_ONE)
_R_Z = RatFunc(_P_Z)


# --- expression parser -----------------------------------------------------

_CHAR_TOKENS = set("+-*/^()iz")
# a larger power would be computed in full before any error could be raised
_MAX_EXPONENT = 64
# a power may not raise the degree of the numerator or denominator the
# parser carries above this: nested powers multiply their exponents
_MAX_DEGREE = 512
# nor give a coefficient of the numerator or denominator more bits than
# this: nested powers of a constant multiply its bit length
_MAX_BITS = 1 << 16
# parentheses nested deeper than this are refused before the recursion
# of the parser can reach the interpreter's limit
_MAX_DEPTH = 100


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError:  # more digits than the interpreter converts
                raise SyntaxError(
                    f"integer literal of {j - i} digits at position {i} is too long") from None
            i = j
            continue
        if ch in _CHAR_TOKENS:
            tokens.append((ch, ch))
            i += 1
            continue
        raise SyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent over values (num, den): two Z[i][z] polynomials,
    den != [], with no gcd taken until the one reduced RatFunc at the end."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise SyntaxError(f"expected {kind!r}, found {tok[0]!r}")
        return tok

    def parse(self) -> RatFunc:
        num, den = self.expr()
        self.expect("end")
        return RatFunc(_poly(num), _poly(den))

    def expr(self) -> tuple[list, list]:
        num, den = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rnum, rden = self.term()
            if op == "-":
                rnum = _gz_neg(rnum)
            if den == rden:
                num = _gz_add(num, rnum)
            else:
                num, den = _gz_add(_gz_mul(num, rden), _gz_mul(rnum, den)), _gz_mul(den, rden)
            if not num:
                den = _GZ_ONE
        return num, den

    def term(self) -> tuple[list, list]:
        num, den = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rnum, rden = self.unary()
            if op == "/":
                if not rnum:
                    raise DivisionByZeroPoly("division by the zero rational function")
                rnum, rden = rden, rnum
            num, den = _gz_mul(num, rnum), _gz_mul(den, rden)
            if not num:
                den = _GZ_ONE
        return num, den

    def unary(self) -> tuple[list, list]:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take()[0] == "-"
        num, den = self.power()
        return (_gz_neg(num) if negate else num), den

    def power(self) -> tuple[list, list]:
        num, den = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise SyntaxError("exponent must be a nonnegative integer literal")
            n = tok[1]
            if n > _MAX_EXPONENT:
                raise SyntaxError(f"exponent {n} is above the limit {_MAX_EXPONENT}")
            degree = (max(len(num), len(den)) - 1) * n
            if degree > _MAX_DEGREE:
                raise SyntaxError(f"power of degree {degree} is above the limit {_MAX_DEGREE}")
            # no coefficient of p^n exceeds the n-th power of p's coefficient 1-norm
            bits = n * max(_gz_norm1(num), _gz_norm1(den)).bit_length()
            if bits > _MAX_BITS:
                raise SyntaxError(f"power with coefficients of up to {bits} bits is above "
                                  f"the limit {_MAX_BITS}")
            num, den = _gz_pow(num, n), _gz_pow(den, n)
            if self.peek() == "^":
                raise SyntaxError("chained exponentiation is not allowed")
        return num, den

    def atom(self) -> tuple[list, list]:
        kind, value = self.take()
        if kind == "int":
            return ([(value, 0)] if value else []), _GZ_ONE
        if kind == "i":
            return [(0, 1)], _GZ_ONE
        if kind == "z":
            return [(0, 0), (1, 0)], _GZ_ONE
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise SyntaxError(f"parentheses nested deeper than {_MAX_DEPTH}")
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise SyntaxError(f"unexpected token {kind!r}")


def parse_coefficient(text: str) -> RatFunc:
    """Parse an expression string into a reduced rational function of z."""
    return _Parser(_tokenize(text)).parse()


# --- resultants and discriminants ------------------------------------------

# ascending coefficients in W, in a ring with +, -, * and is_zero: RatFunc,
# or GaussianRational for the values at one point
WPoly = Sequence


def _trim_w(f: WPoly) -> list:
    out = list(f)
    while out and out[-1].is_zero():
        out.pop()
    return out


def w_poly_mul(f: WPoly, g: WPoly) -> list:
    a, b = _trim_w(f), _trim_w(g)
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = ca * cb if out[i + j] is None else out[i + j] + ca * cb
    return _trim_w(out)


def w_poly_derivative(f: WPoly) -> list:
    # n * num and den stay coprime for an integer n > 0: no gcd is needed
    return _trim_w([RatFunc._reduced(c.num.scale(n), c.den) if isinstance(c, RatFunc)
                    else c * n for n, c in enumerate(_trim_w(f)) if n > 0])


def _bareiss(mat: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Fraction-free determinant (Bareiss, Math. Comp. 1968) of a square
    matrix over Z[i], given as rows of (re, im) pairs; the rows are consumed.

    Each entry after step c is the minor on rows 0..c and its own row, and
    columns 0..c and its own column, so every division by the previous
    pivot is exact (Sylvester's identity); it is checked all the same and
    raises ArithmeticError if not. A zero pivot takes the first row below
    it with a nonzero entry in its column.
    """
    n = len(mat)
    if n == 0:
        return 1, 0
    sign = 1
    vr, vi = 1, 0  # the previous pivot
    for col in range(n - 1):
        if mat[col][col] == (0, 0):
            r = next((r for r in range(col + 1, n) if mat[r][col] != (0, 0)), None)
            if r is None:
                return 0, 0
            mat[col], mat[r], sign = mat[r], mat[col], -sign
        pivot_row = mat[col]
        pr, pi = pivot_row[col]
        for row in mat[col + 1:]:
            lr, li = row[col]
            for j in range(col + 1, n):
                (xr, xi), (yr, yi) = row[j], pivot_row[j]
                row[j] = _gi_exact_div(pr * xr - pi * xi - lr * yr + li * yi,
                                       pr * xi + pi * xr - lr * yi - li * yr, vr, vi)
        vr, vi = pr, pi
    re, im = mat[n - 1][n - 1]
    return sign * re, sign * im


def _bezout_res(a: list, b: list) -> list:
    """Res(F, G) over Z[i][z] from the Bezout determinant, for F = sum a_p W^p
    and G = sum b_q W^q with a_p, b_q over Z[i][z] and m = deg F >= deg G = n.

    With b padded to m + 1 terms, the Bezoutian (F(x)G(y) - F(y)G(x))/(x - y)
    is sum B_ij x^i y^j over 0 <= i, j < m, and each p > q adds
    a_p b_q - a_q b_p to B[q+s][p-1-s], s = 0..p-q-1. Its determinant is
    det Bez(F, G) = (-1)**(m(m-1)/2) lc(F)**(m-n) Res(F, G) (Cox, Little &
    O'Shea, *Using Algebraic Geometry*, ch. 3).

    Everything runs over Z[i] at the one point z = 2**bits (Kronecker
    substitution), a ring map, so the entries are formed from the packed
    a_p and b_q, the determinant is taken by _bareiss, and lc(F)**(m-n) is
    divided out as one Gaussian integer. Every Bareiss entry is a minor of
    Bez, and its sum of |re| + |im| over the coefficients is at most the
    product over rows of max(1, r_i), where r_i, the sum over the terms
    landing in row i of |a_p| |b_q| + |a_q| |b_p| in that norm, bounds the
    row's; Res(F, G) is at most |F|**n |G|**m, the bound over the rows of
    its Sylvester matrix. With bits = bitlen(the larger bound) + 2, every
    coefficient of every entry and of Res(F, G) lies below 2**(bits-1) in
    absolute value, so each zero test and pivot choice is the one the
    polynomial elimination makes and Res(F, G) unpacks by signed digits
    into the same polynomial.
    """
    m, n = len(a) - 1, len(b) - 1
    na, nb = [_gz_norm1(x) for x in a], [_gz_norm1(x) for x in b] + [0] * (m - n)
    # the terms landing in row i are those with q <= i < p, so r_i is
    # |a_>i| |b_<=i| + |a_<=i| |b_>i| over the norms' partial sums
    hi_a, hi_b = sfa, sfb = sum(na), sum(nb)
    lo_a = lo_b = 0
    minors = 1
    for x, y in zip(na, nb[:m]):
        lo_a, lo_b, hi_a, hi_b = lo_a + x, lo_b + y, hi_a - x, hi_b - y
        minors *= max(1, hi_a * lo_b + lo_a * hi_b)
    bits = max(minors, sfa**n * sfb**m).bit_length() + 2
    a, b = [_gz_pack(x, bits) for x in a], [_gz_pack(x, bits) for x in b] + [(0, 0)] * (m - n)
    re, im = [[0] * m for _ in range(m)], [[0] * m for _ in range(m)]
    for p in range(1, m + 1):
        (apr, api), (bpr, bpi) = a[p], b[p]
        for q in range(p):
            (aqr, aqi), (bqr, bqi) = a[q], b[q]
            cr = apr * bqr - api * bqi - aqr * bpr + aqi * bpi
            ci = apr * bqi + api * bqr - aqr * bpi - aqi * bpr
            if cr or ci:
                for s in range(p - q):
                    re[q + s][p - 1 - s] += cr
                    im[q + s][p - 1 - s] += ci
    dr, di = _bareiss([list(zip(x, y)) for x, y in zip(re, im)])
    lr, li = a[m]
    if m > n and (lr, li) != (1, 0):
        pr, pi = lr, li
        for _ in range(m - n - 1):
            pr, pi = pr * lr - pi * li, pr * li + pi * lr
        dr, di = _gi_exact_div(dr, di, pr, pi)
    if m * (m - 1) // 2 % 2:
        dr, di = -dr, -di
    return _gz_unpack(dr, di, bits)


def _clear_block(coeffs: list[RatFunc]) -> tuple[list[list[tuple[int, int]]], list]:
    """The coefficients of one polynomial in W over Z[i][z], and the factor
    over Z[i][z] that cleared them.

    One factor clears them all: the lcm of their denominators (none for a
    polynomial), times the integer lcm of the Gaussian-rational
    denominators left after it.
    """
    lcm = _P_ONE
    for c in coeffs:
        if c.den.degree > 0:
            lcm = (lcm * c.den).exact_div(poly_gcd(lcm, c.den)).monic()
    forms = []
    for c in coeffs:
        p = c.num
        if c.den != lcm:
            p = p * (lcm if c.den.degree == 0 else lcm.exact_div(c.den))
        forms.append(p)
    forms.append(lcm)
    scale = math.lcm(*(p.d for p in forms))
    *entries, factor = [[(r * (scale // p.d), i * (scale // p.d)) for r, i in p.q]
                        for p in forms]
    return entries, factor


def resultant_w(f: WPoly, g: WPoly) -> RatFunc:
    """Resultant in W of two polynomials with rational-function coefficients.

    Res(f, g) is the Sylvester determinant over Q(i)(z). A constant side
    gives its closed form c**deg. Otherwise, for m = deg f >= n = deg g
    (else Res(f, g) = (-1)**(mn) Res(g, f)), f and g are cleared of
    denominators into F = fscale f and G = gscale g over Z[i][z], and
    Res(f, g) = Res(F, G) / (fscale**n gscale**m) (see _cleared_resultant).
    """
    fc, gc = _trim_w(f), _trim_w(g)
    if not fc or not gc:
        raise ValueError("resultant of a zero polynomial in W")
    m, n = len(fc) - 1, len(gc) - 1
    if n == 0:
        return gc[0] ** m
    if m == 0:
        return fc[0] ** n
    if m < n:
        res = _cleared_resultant(*_clear_block(gc), *_clear_block(fc))
        return -res if m * n % 2 else res
    return _cleared_resultant(*_clear_block(fc), *_clear_block(gc))


def _cleared_resultant(fq: list, fscale: list, gq: list, gscale: list) -> RatFunc:
    """Res(f, g) = Res(F, G) / (fscale**n gscale**m) in lowest terms, for
    F = fscale f and G = gscale g over Z[i][z] of degrees m >= n in W.

    Res(F, G) comes from the m x m Bezout determinant (_bezout_res). The
    denominator is a constant times pf**n pg**m, pf and pg the primitive
    forms of fscale and gscale: where one appears to a power e >= 2, whole
    powers of it are divided out first by exact division, each a pass over
    the numerator far cheaper than a gcd against it. A single power is left
    to the gcds, whose modular test settles a coprime pair at once, where a
    division that fails would cost a pass. Every factor of the
    denominator left divides fscale * gscale, so the shared factors left
    are stripped by gcds against that low-degree product, never against the
    denominator itself.
    """
    m, n = len(fq) - 1, len(gq) - 1
    num = _bezout_res(fq, gq)
    if not num:
        return _R_ZERO
    den = _gz_mul(_gz_pow(fscale, n), _gz_pow(gscale, m))
    for h, e in ((fscale, n), (gscale, m)):
        if e < 2 or len(h) == 1 or len(num) < len(h):
            continue
        h = _gz_primitive(h)
        while e and len(num) >= len(h):
            try:
                q = _gz_exact_div(num, h)
            except ArithmeticError:
                break
            num, den, e = q, _gz_exact_div(den, h), e - 1
    g = _gz_gcd(_gz_mul(fscale, gscale), num)
    while len(g) > 1:
        g = _gz_gcd(den, g)
        num, den = _gz_exact_div(num, g), _gz_exact_div(den, g)
        g = _gz_gcd(g, num)
    return RatFunc._reduced(_poly(num), _poly(den))


def discriminant(eq) -> RatFunc:
    """Res(Psi, Psi_W) = (-1)**(k(k-1)/2) disc(Psi) for the monic defining
    polynomial Psi of degree k in W.

    Accepts a DefiningEquation-like object (with .coeffs listing A_1..A_k)
    or a plain sequence of RatFunc coefficients. Psi = sum psi_p W**p is
    cleared into F. Psi_W is cleared into G without being formed over
    Q(i)(z): the sum over p >= 1 of psi_p W**(p-1) is cleared, and its
    coefficient of W**(p-1) is multiplied by p. Res(Psi, Psi_W) then comes
    from F and G, of degrees k and k - 1 (see _cleared_resultant).
    """
    coeffs = list(getattr(eq, "coeffs", eq))
    psi = list(reversed(coeffs)) + [_R_ONE]  # ascending in W
    gq, gscale = _clear_block(psi[1:])
    gq = [[(p * r, p * i) for r, i in c] for p, c in enumerate(gq, 1)]
    res = _cleared_resultant(*_clear_block(psi), gq, gscale)
    if res.is_zero():
        raise IdenticallyZeroDiscriminant(
            "discriminant vanishes identically: the defining equation has a repeated factor"
        )
    return res


def laurent_order(rf: RatFunc, z0: GaussianRational) -> int:
    """Order of vanishing at z0; negative at a pole."""
    if rf.is_zero():
        raise ZeroFunction("Laurent order undefined for the zero function")
    z0 = GaussianRational.of(z0)
    return rf.num.root_multiplicity(z0) - rf.den.root_multiplicity(z0)


def snap_to_gaussian(x: complex, fine_den: int = 10**12,
                     rel_tol: float = 1e-9) -> GaussianRational:
    """Nearest Gaussian rational, preferring small denominators.

    Components within rel_tol of a fraction with denominator <= 10^6
    snap to it; otherwise a denominator up to fine_den is used.
    """

    def snap(v: float) -> Fraction:
        fv = Fraction(v)
        coarse = fv.limit_denominator(10**6)
        if abs(float(coarse) - v) <= rel_tol * max(1.0, abs(v)):
            return coarse
        return fv.limit_denominator(fine_den)

    return GaussianRational(snap(x.real), snap(x.imag))
