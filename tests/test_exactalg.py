"""Exact-arithmetic layer: parser, field ops, resultants, Laurent orders."""

import math
import operator
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from algebroid import exactalg
from algebroid.errors import (
    DivisionByZeroPoly,
    IdenticallyZeroDiscriminant,
    ZeroFunction,
)
from algebroid.exactalg import (
    GaussianRational,
    Poly,
    RatFunc,
    _I_MOD_P,
    _MAX_BITS,
    _MAX_DEGREE,
    _MAX_DEPTH,
    _MAX_EXPONENT,
    _MOD_P,
    _bareiss,
    _bezout_res,
    _clear_block,
    _gi_exact_div,
    _gz_euclid,
    _gz_exact_div,
    _gz_pack,
    _gz_unpack,
    _poly,
    discriminant,
    laurent_order,
    parse_coefficient,
    poly_gcd,
    resultant_w,
    w_poly_derivative,
    w_poly_mul,
)

Z = RatFunc.z()
ONE = RatFunc.one()


def rf(text: str) -> RatFunc:
    return parse_coefficient(text)


# --- parsing ----------------------------------------------------------------


def test_parse_polynomial_literal():
    assert rf("z^2 - 1") == RatFunc(Poly([-1, 0, 1]))


def test_parse_quotient_literal():
    v = rf("-1/z")
    assert v.num == Poly([-1])
    assert v.den == Poly([0, 1])


def test_parse_reduces_to_constant():
    assert rf("(z+1)/(z+1)") == ONE


def test_parse_imaginary_and_precedence():
    assert rf("i*i") == rf("-1")
    assert rf("-z^2") == -(Z * Z)
    assert rf("2^3") == rf("8")
    assert rf("1/z/z") == ONE / (Z * Z)
    assert rf("(1+2*i)/(3-i)") == rf("(1+2*i)") / rf("(3-i)")


@pytest.mark.parametrize("bad", ["", "w", "1.5", "z^-1", "z^", "((z)", "z^2^3", "2 3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(SyntaxError):
        rf(bad)


def test_parse_refuses_an_exponent_above_the_cap():
    assert rf(f"z^{_MAX_EXPONENT}") == Z**_MAX_EXPONENT
    # refused before the power is computed: z^100000000 would exhaust memory
    for text in (f"z^{_MAX_EXPONENT + 1}", "(z+1/3)^400", "2^100000000"):
        with pytest.raises(SyntaxError, match="above the limit"):
            rf(text)


def test_parse_refuses_a_nested_power_above_the_degree_cap():
    assert rf("((z+1)^64)^8").num.degree == _MAX_DEGREE
    # the degree of a nested power is the product of its exponents: refused
    # before anything is computed, where ((z+1)^64)^64 alone took seconds
    for text in ("((z+1)^64)^64", "((z^64)^64)^64", "((1/(z-1))^64)^9"):
        with pytest.raises(SyntaxError, match="above the limit 512"):
            rf(text)
    assert rf("((2^64)^64)") == RatFunc.constant(2**4096)  # constants have degree 0


def test_parse_refuses_a_power_above_the_bit_cap():
    # nested powers of a constant multiply its bit length; the bound is
    # n times the bit length of the base's coefficient 1-norm
    assert rf("((2^64)^64)^15") == RatFunc.constant(2**61440)
    assert rf("(3*z - 5*i)^64").num.degree == 64
    for text in ("((2^64)^64)^16", "(((2^64)^64)^64)^64", "1/((2^64)^64)^64",
                 "((2^64)^64*z + 1)^16"):
        with pytest.raises(SyntaxError, match=f"above the limit {_MAX_BITS}"):
            rf(text)


def test_parse_refuses_deep_nesting_and_overlong_literals():
    assert rf("(" * _MAX_DEPTH + "z" + ")" * _MAX_DEPTH) == Z
    assert rf("-" * 5001 + "z") == -Z  # signs are read in a loop, not recursively
    with pytest.raises(SyntaxError, match="nested deeper than"):
        rf("(" * 1200 + "z" + ")" * 1200)
    with pytest.raises(SyntaxError, match="5000 digits"):
        rf("7" * 5000 + "*z")


def test_parse_zero_denominator():
    with pytest.raises(DivisionByZeroPoly):
        rf("1/(z-z)")


def schoolbook(a: Poly, b: Poly) -> Poly:
    """The Gaussian-rational schoolbook product (independent oracle)."""
    out = [GaussianRational()] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def divmod_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid with Poly.divmod over Q(i) (independent oracle)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


@st.composite
def expression_trees(draw, depth=4):
    """A random expression tree: ("int", n), ("i",), ("z",), (op, lhs, rhs)
    for op in + - * /, ("neg", x) or ("^", x, n)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.tuples(st.just("int"), st.integers(0, 4)),
                              st.just(("i",)), st.just(("z",)), st.just(("z",))))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "/", "neg", "^"]))
    if kind == "neg":
        return (kind, draw(expression_trees(depth - 1)))
    if kind == "^":
        return (kind, draw(expression_trees(depth - 1)), draw(st.integers(0, 3)))
    return (kind, draw(expression_trees(depth - 1)), draw(expression_trees(depth - 1)))


def tree_text(t) -> str:
    if t[0] == "int":
        return str(t[1])
    if t[0] in ("i", "z"):
        return t[0]
    if t[0] == "neg":
        return f"-({tree_text(t[1])})"
    if t[0] == "^":
        return f"({tree_text(t[1])})^{t[2]}"
    return f"({tree_text(t[1])}) {t[0]} ({tree_text(t[2])})"


def tree_ratfunc(t) -> RatFunc:
    """The tree's value by RatFunc field arithmetic."""
    if t[0] == "int":
        return RatFunc.constant(t[1])
    if t[0] == "i":
        return RatFunc.constant(GaussianRational(0, 1))
    if t[0] == "z":
        return Z
    if t[0] == "neg":
        return -tree_ratfunc(t[1])
    if t[0] == "^":
        return tree_ratfunc(t[1]) ** t[2]
    op = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    return op[t[0]](tree_ratfunc(t[1]), tree_ratfunc(t[2]))


def tree_pair(t) -> tuple[Poly, Poly]:
    """The tree's value as an unreduced (num, den) of Polys, by schoolbook
    products and Poly sums only (independent oracle)."""
    if t[0] == "int":
        return Poly([t[1]]), Poly([1])
    if t[0] in ("i", "z"):
        return Poly([GaussianRational(0, 1)] if t[0] == "i" else [0, 1]), Poly([1])
    if t[0] == "neg":
        num, den = tree_pair(t[1])
        return -num, den
    if t[0] == "^":
        num, den = tree_pair(t[1])
        pn, pd = Poly([1]), Poly([1])
        for _ in range(t[2]):
            pn, pd = schoolbook(pn, num), schoolbook(pd, den)
        return pn, pd
    (an, ad), (bn, bd) = tree_pair(t[1]), tree_pair(t[2])
    if t[0] == "+":
        return schoolbook(an, bd) + schoolbook(bn, ad), schoolbook(ad, bd)
    if t[0] == "-":
        return schoolbook(an, bd) - schoolbook(bn, ad), schoolbook(ad, bd)
    if t[0] == "*":
        return schoolbook(an, bn), schoolbook(ad, bd)
    if bn.is_zero():
        raise DivisionByZeroPoly("division by the zero rational function")
    return schoolbook(an, bd), schoolbook(ad, bn)


def _outcome(f, *args):
    try:
        return f(*args)
    except DivisionByZeroPoly as exc:
        return str(exc)


@seed(22001)
@settings(max_examples=300, deadline=None)
@given(expression_trees())
def test_parse_matches_field_arithmetic_on_random_trees(tree):
    text = tree_text(tree)
    got, want = _outcome(parse_coefficient, text), _outcome(tree_ratfunc, tree)
    assert got == want and str(got) == str(want)
    pair = _outcome(tree_pair, tree)
    if isinstance(pair, str):
        assert got == pair  # the same DivisionByZeroPoly message
        return
    num, den = pair
    g = divmod_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading()
    assert got.num == Poly([c / lead for c in num.coeffs]) and got.den == den.monic()
    _assert_stored_form(got.num, [c / lead for c in num.coeffs])
    _assert_stored_form(got.den, [c / lead for c in den.coeffs])


def test_str_round_trip_on_awkward_cases():
    cases = ["0", "1", "-1", "i", "-i", "z", "-(4/9)*z^3", "(z^2-1)/(z^3+2*z)",
             "(1+2*i)*z - 3/7", "((1/2)*z^2 + i)/(z - 5)"]
    for text in cases:
        v = rf(text)
        assert rf(str(v)) == v


# --- field arithmetic -------------------------------------------------------


def test_additive_inverse():
    assert rf("1/z") + rf("-1/z") == RatFunc.zero()


def test_multiplicative_inverse():
    assert Z * rf("1/z") == ONE


def test_division_reduces():
    # (z^2-1)/(z-1) = z+1 by long division
    assert rf("z^2-1") / rf("z-1") == rf("z+1")


def test_division_by_zero_function():
    with pytest.raises(DivisionByZeroPoly):
        ONE / RatFunc.zero()


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@st.composite
def gaussian_rationals(draw):
    return GaussianRational(draw(small_fracs), draw(small_fracs))


# --- the Gaussian-rational kernel, against a pair of Fractions --------------

wide_fracs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
kernel_fracs = st.one_of(small_fracs, wide_fracs)


def _oracle_str(re: Fraction, im: Fraction) -> str:
    def imag(q):
        return "i" if q == 1 else "-i" if q == -1 else f"{q}*i"

    if im == 0:
        return str(re)
    if re == 0:
        return imag(im)
    return f"{re} {'+' if im > 0 else '-'} {imag(abs(im))}"


def _assert_canonical(x: GaussianRational, re: Fraction, im: Fraction):
    a, b, d = x._a, x._b, x._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (x.re, x.im) == (re, im)
    assert str(x) == _oracle_str(re, im)
    assert complex(x) == complex(float(re), float(im))


@settings(max_examples=200, deadline=None)
@given(kernel_fracs, kernel_fracs, kernel_fracs, kernel_fracs)
def test_gaussian_rational_kernel_matches_fraction_pairs(r1, i1, r2, i2):
    x, y = GaussianRational(r1, i1), GaussianRational(r2, i2)
    _assert_canonical(x, r1, i1)
    _assert_canonical(-x, -r1, -i1)
    _assert_canonical(x + y, r1 + r2, i1 + i2)
    _assert_canonical(x - y, r1 - r2, i1 - i2)
    _assert_canonical(x * y, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    n2 = r2 * r2 + i2 * i2
    if n2:
        _assert_canonical(x / y, (r1 * r2 + i1 * i2) / n2, (i1 * r2 - r1 * i2) / n2)
        # equal values reached by different routes hold equal triples
        back = (x * y) / y
        assert (back._a, back._b, back._d) == (x._a, x._b, x._d)
        assert back == x and hash(back) == hash(x)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == ((r1, i1) == (r2, i2))
    if x == y:
        assert hash(x) == hash(y)
    assert GaussianRational.of(r1) == GaussianRational(r1) == GaussianRational(r1, 0)
    assert x != (r1, i1) and GaussianRational.of(r1) != r1  # only equal to its own kind


@st.composite
def rat_funcs(draw, max_deg=2, nonzero=False):
    num = Poly(draw(st.lists(gaussian_rationals(), min_size=1, max_size=max_deg + 1)))
    den = Poly(draw(st.lists(gaussian_rationals(), min_size=1, max_size=max_deg + 1)))
    if den.is_zero():
        den = Poly([1])
    if nonzero and num.is_zero():
        num = Poly([1, 1])
    return RatFunc(num, den)


@settings(max_examples=60, deadline=None)
@given(rat_funcs(), rat_funcs(nonzero=True))
def test_field_mul_div_cancels(r, s):
    assert (r * s) / s == r


@settings(max_examples=60, deadline=None)
@given(rat_funcs(), rat_funcs(), rat_funcs())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


polynomials = st.lists(gaussian_rationals(), max_size=4).map(lambda cs: RatFunc(Poly(cs)))
polys_or_rat_funcs = st.one_of(polynomials, rat_funcs())


@settings(max_examples=60, deadline=None)
@given(polys_or_rat_funcs, st.integers(min_value=0, max_value=7))
def test_power_matches_repeated_multiplication(r, n):
    num, den = Poly([1]), Poly([1])
    for _ in range(n):
        num, den = num * r.num, den * r.den
    assert r.num**n == num and r.den**n == den
    assert r**n == RatFunc(num, den)
    assert str(r**n) == str(RatFunc(num, den))


@settings(max_examples=80, deadline=None)
@given(polys_or_rat_funcs, polys_or_rat_funcs)
def test_field_ops_match_the_general_construction(a, b):
    # polynomial operands skip their unit denominators; the result is the same
    for got, want in [
        (a + b, RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)),
        (a - b, RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)),
        (a * b, RatFunc(a.num * b.num, a.den * b.den)),
    ]:
        assert got == want and str(got) == str(want)


# --- the Z[i][z] kernels: product and gcd ----------------------------------

big_gaussians = st.builds(GaussianRational, kernel_fracs, kernel_fracs)
product_factors = st.one_of(
    st.lists(big_gaussians, max_size=4),
    # long factors with wide coefficients
    st.lists(st.one_of(big_gaussians, st.just(GaussianRational(2**70 + 1, -(2**69)))),
             min_size=8, max_size=11),
).map(Poly)


@seed(22002)
@settings(max_examples=80, deadline=None)
@given(product_factors, product_factors)
def test_poly_product_matches_the_schoolbook_product(a, b):
    got = a * b
    assert got == schoolbook(a, b)
    assert all(c.__class__ is GaussianRational for c in got.coeffs)
    assert not got.coeffs or got.coeffs[-1]


# coefficients the modular test's prime divides: p, 1/p and i - 911660635,
# which maps to 0
mod_p_gaussians = st.sampled_from([
    GaussianRational(_MOD_P), GaussianRational(Fraction(1, _MOD_P)),
    GaussianRational(-_I_MOD_P, 1)])
gcd_factors = st.lists(st.one_of(gaussian_rationals(), mod_p_gaussians), max_size=4).map(Poly)


@seed(22003)
@settings(max_examples=200, deadline=None)
@given(gcd_factors, gcd_factors, gcd_factors)
def test_gcd_is_the_same_with_and_without_the_modular_test(a, b, common):
    a, b = a * common, b * common
    want = divmod_gcd(a, b)
    assert poly_gcd(a, b) == want
    if not a.is_zero() and not b.is_zero():
        assert _poly(_gz_euclid(a.q, b.q)).monic() == want


def test_modular_test_refuses_images_that_lose_a_degree_or_share_a_factor():
    # z and z + p share the factor z mod p, yet are coprime
    assert poly_gcd(Poly([0, 1]), Poly([_MOD_P, 1])) == Poly([1])
    # leading coefficients and denominators the prime divides
    lead_p = Poly([1, _MOD_P])
    assert poly_gcd(lead_p * Poly([2, 1]), Poly([2, 1]) * Poly([3, 1])) == Poly([2, 1])
    den_p = Poly([GaussianRational(Fraction(1, _MOD_P)), 1])
    assert poly_gcd(den_p * Poly([0, 1]), den_p * Poly([1, 1])) == den_p


# --- the stored form of Poly -------------------------------------------------


def _assert_stored_form(p: Poly, want) -> None:
    """p is the canonical q / d, and its coeffs are want, a Gaussian-rational
    reference, less trailing zeros."""
    q, d = p.q, p.d
    assert type(q) is tuple and type(d) is int and d > 0
    assert all(type(r) is int and type(i) is int for r, i in q)
    assert not q or q[-1] != (0, 0)
    assert math.gcd(d, *(x for pair in q for x in pair)) == 1
    want = list(want)
    while want and not want[-1]:
        want.pop()
    assert p.coeffs == tuple(want)
    assert p.coeffs == tuple(GaussianRational(Fraction(r, d), Fraction(i, d)) for r, i in q)


HALF_ONE_PLUS_I = GaussianRational(Fraction(1, 2), Fraction(1, 2))
form_polys = st.lists(st.one_of(gaussian_rationals(), big_gaussians, st.just(HALF_ONE_PLUS_I)),
                      max_size=4).map(Poly)


@seed(27001)
@settings(max_examples=150, deadline=None)
@given(form_polys, form_polys, gaussian_rationals(), st.integers(0, 4))
def test_every_operation_returns_the_canonical_stored_form(a, b, c, n):
    ca, cb, zero = list(a.coeffs), list(b.coeffs), GaussianRational()
    _assert_stored_form(a, ca)
    _assert_stored_form(a + b, [x + y for x, y in zip_longest(ca, cb, fillvalue=zero)])
    _assert_stored_form(a - b, [x - y for x, y in zip_longest(ca, cb, fillvalue=zero)])
    _assert_stored_form(a * b, schoolbook(a, b).coeffs)
    power = Poly([1])
    for _ in range(n):
        power = schoolbook(power, a)
    _assert_stored_form(a**n, power.coeffs)
    _assert_stored_form(a.scale(c), [x * c for x in ca])
    _assert_stored_form(a.derivative(), [x * k for k, x in enumerate(ca) if k])
    _assert_stored_form(a.monic(), [x / ca[-1] for x in ca] if ca else [])
    monic_b = [x / cb[-1] for x in cb] if cb else []
    _assert_stored_form(poly_gcd(schoolbook(a, b), b), monic_b)
    if not b.is_zero():
        _assert_stored_form(schoolbook(a, b).exact_div(b), ca)
        quot, rem = a.divmod(b)
        _assert_stored_form(quot, quot.coeffs)
        _assert_stored_form(rem, rem.coeffs)
        back = schoolbook(quot, b).coeffs
        assert rem.degree < b.degree
        assert [x + y for x, y in zip_longest(back, rem.coeffs, fillvalue=zero)] == ca
        _assert_stored_form(poly_gcd(a, b), divmod_gcd(a, b).coeffs)


def test_square_of_half_one_plus_i_is_i_over_two():
    # the raw product is 2i / 4: one gcd brings it to i / 2
    h = Poly([HALF_ONE_PLUS_I])
    for got in (h * h, h**2, h.scale(HALF_ONE_PLUS_I)):
        assert (got.q, got.d) == (((0, 1),), 2)
        _assert_stored_form(got, [GaussianRational(0, Fraction(1, 2))])
    assert (Poly([0, HALF_ONE_PLUS_I]) ** 2).q == ((0, 0), (0, 0), (0, 1))


# --- resultants -------------------------------------------------------------


def det3(m):
    """Cofactor expansion of a 3x3 RatFunc matrix (independent oracle)."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_resultant_sqrt_z_against_cofactor_oracle():
    # f = W^2 - z, g = 2W: Sylvester rows [1,0,-z],[2,0,0],[0,2,0]
    zero = RatFunc.zero()
    two = rf("2")
    oracle = det3([[ONE, zero, -Z], [two, zero, zero], [zero, two, zero]])
    assert oracle == rf("-4*z")
    assert resultant_w([-Z, zero, ONE], [zero, two]) == oracle


def test_resultant_shared_root_vanishes():
    # f = g = W - 1
    f = [rf("-1"), ONE]
    assert resultant_w(f, f) == RatFunc.zero()


def test_resultant_sqrt_z_squared():
    # f = W^2 - z^2, g = 2W -> -4z^2 (same determinant with A2 = -z^2)
    assert resultant_w([-(Z * Z), RatFunc.zero(), ONE], [RatFunc.zero(), rf("2")]) == rf("-4*z^2")


@settings(max_examples=40, deadline=None)
@given(gaussian_rationals(), rat_funcs(max_deg=1), rat_funcs(max_deg=1))
def test_resultant_detects_common_w_root(p, h_lead, j_lead):
    # f = (W - p) * h, g = (W - p) * j share the root W = p
    p_rf = RatFunc.constant(p)
    h = [h_lead, ONE]
    j = [j_lead, ONE]
    f = w_poly_mul([-p_rf, ONE], h)
    g = w_poly_mul([-p_rf, ONE], j)
    assert resultant_w(f, g).is_zero()


def test_resultant_no_common_root_nonzero():
    # f = (W-1)(W-2), g = W-3
    f = w_poly_mul([rf("-1"), ONE], [rf("-2"), ONE])
    g = [rf("-3"), ONE]
    # res = f evaluated at W=3 (up to sign convention) = 2
    res = resultant_w(f, g)
    assert not res.is_zero()
    assert res == rf("2")


# --- discriminant -----------------------------------------------------------


def test_discriminant_sqrt_z():
    assert discriminant([RatFunc.zero(), -Z]) == rf("-4*z")


def test_discriminant_circle_equation():
    assert discriminant([RatFunc.zero(), -(ONE + Z * Z)]) == rf("-4*(1+z^2)")


def test_discriminant_clears_psi_w_without_forming_it():
    # k = 2: Res(Psi, Psi_W) = 4 A_2 - A_1^2 for Psi = W^2 + A_1 W + A_2. The
    # cleared denominator is fscale * gscale^2: (z - i) once with no shared
    # factor, and (z - 1)^3 of which one power is spurious
    assert discriminant([RatFunc.zero(), rf("(z^3 + 1)/(z - i)")]) == rf("4*(z^3 + 1)/(z - i)")
    assert discriminant([rf("1/(z-1)"), rf("1/(z-1)")]) == rf("(4*z - 5)/(z - 1)^2")
    # k = 3: Psi_W's coefficient 2 * (1/2) has no denominator left, while
    # the W-part of Psi is cleared with the factor 2
    coeffs = [rf("1/2"), rf("z/(z - 1)"), rf("(z + i)/(3*z - 1)")]
    psi = list(reversed(coeffs)) + [ONE]
    assert discriminant(coeffs) == resultant_w(psi, w_poly_derivative(psi))


def test_discriminant_rejects_repeated_factor():
    # (W - z)^2 = W^2 - 2zW + z^2
    with pytest.raises(IdenticallyZeroDiscriminant):
        discriminant([rf("-2*z"), rf("z^2")])


def test_discriminant_numeric_cross_check():
    # evaluated at a non-critical z, matches the float resultant of the
    # evaluated polynomials within relative 1e-10
    import numpy as np

    coeffs = [rf("z"), rf("(z^2-1)/(z+3)")]
    disc = discriminant(coeffs)
    z0 = 1.7 + 0.3j
    a1, a2 = (c.eval_complex(z0) for c in coeffs)
    # float Sylvester for W^2 + a1 W + a2 vs 2W + a1
    m = np.array(
        [[1, a1, a2], [2, a1, 0], [0, 2, a1]], dtype=complex
    )
    expected = np.linalg.det(m)
    got = disc.eval_complex(z0)
    assert abs(got - expected) <= 1e-10 * abs(expected)


def scalar_det(mat):
    """Determinant over GaussianRational by Gaussian elimination (independent oracle)."""
    mat = [list(row) for row in mat]
    n = len(mat)
    det = GaussianRational.of(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return GaussianRational()
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det = det * mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            for j in range(col, n):
                mat[r][j] = mat[r][j] - factor * mat[col][j]
    return det


def scalar_sylvester(f, g):
    """Sylvester matrix of two scalar polynomials given ascending in W."""
    m, n = len(f) - 1, len(g) - 1
    zero = GaussianRational()
    rows = [[zero] * sh + f[::-1] + [zero] * (n - 1 - sh) for sh in range(n)]
    rows += [[zero] * sh + g[::-1] + [zero] * (m - 1 - sh) for sh in range(m)]
    return rows


proper_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def non_integer_gaussians(draw):
    v = GaussianRational(draw(proper_fracs), draw(proper_fracs))
    if v.re.denominator == 1 and v.im.denominator == 1:
        v = v + GaussianRational(Fraction(1, 3), Fraction(1, 2))
    return v


@st.composite
def sylvester_cases(draw):
    """A_1..A_k with Gaussian-rational numerators and some linear denominators."""
    k = draw(st.integers(min_value=2, max_value=4))
    coeffs = []
    for _ in range(k):
        num = Poly(draw(st.lists(non_integer_gaussians(), min_size=1, max_size=3)))
        den = Poly([1])
        if draw(st.booleans()):
            den = Poly([-draw(non_integer_gaussians()), 1])
        coeffs.append(RatFunc(num, den))
    z0 = draw(non_integer_gaussians())
    assume(all(c.den.eval_exact(z0) for c in coeffs))
    return coeffs, z0


@settings(max_examples=30, deadline=None)
@given(sylvester_cases())
def test_discriminant_matches_scalar_sylvester_oracle(case):
    # disc(z0) is the Sylvester determinant of Psi(., z0) and Psi_W(., z0)
    coeffs, z0 = case
    psi = [c.eval_exact(z0) for c in reversed(coeffs)] + [GaussianRational.of(1)]
    psi_w = [c * n for n, c in enumerate(psi) if n > 0]
    expected = scalar_det(scalar_sylvester(psi, psi_w))
    try:
        got = discriminant(coeffs).eval_exact(z0)
    except IdenticallyZeroDiscriminant:
        got = GaussianRational()
    assert got == expected


def test_resultant_strips_shared_and_repeated_denominators():
    # (z - 1) divides the numerator of the cleared resultant more often
    # than it divides fscale * gscale, so one gcd round cannot strip it
    coeffs = [rf("z"), rf("1/3 + i/2"), rf("1/(z-1)^2"), rf("(z+2)/((z-1)*(z-i))")]
    psi = list(reversed(coeffs)) + [ONE]
    psi_w = w_poly_derivative(psi)
    (fq, fscale), (gq, gscale) = _clear_block(psi), _clear_block(psi_w)
    fscale, gscale = gz_poly(fscale), gz_poly(gscale)
    det = gz_poly(_bezout_res(fq, gq))  # Res(F, G) for F = fscale Psi, G = gscale Psi_W
    generic = RatFunc(det, fscale**3 * gscale**4)
    one = GaussianRational.of(1)
    assert det.root_multiplicity(one) > (fscale * gscale).root_multiplicity(one)
    assert generic.den.root_multiplicity(one) > 0
    assert resultant_w(psi, psi_w) == generic
    assert discriminant(coeffs) == generic
    z0 = GaussianRational(Fraction(1, 3), Fraction(-2, 5))
    scalar = [c.eval_exact(z0) for c in psi]
    expected = scalar_det(scalar_sylvester(scalar, [c * n for n, c in enumerate(scalar) if n > 0]))
    assert discriminant(coeffs).eval_exact(z0) == expected


def test_resultant_constant_first_argument():
    # m = 0: the Sylvester matrix is n copies of the constant on the diagonal,
    # so the resultant is its closed form c^n
    c = rf("(1/3 + i/2)*z + 1/(z-1)")
    g = [rf("z"), rf("2/3"), rf("-i"), ONE]
    assert resultant_w([c], g) == c**3
    assert resultant_w([c], [rf("5"), rf("1/7")]) == c


def test_discriminant_rejects_repeated_rational_factor():
    # (W - (1/3 + i/2)/(z - 1))^2 (W + z/5) has a square factor
    p = rf("(1/3 + i/2)/(z - 1)")
    psi = w_poly_mul(w_poly_mul([-p, ONE], [-p, ONE]), [rf("z/5"), ONE])
    with pytest.raises(IdenticallyZeroDiscriminant):
        discriminant(list(reversed(psi[:-1])))


def test_gaussian_integer_division_checks_remainder():
    # polynomial quotients, packed at z = 2**8 as the determinant packs its entries
    def div(num, den):
        return _gz_unpack(*_gi_exact_div(*_gz_pack(num, 8), *_gz_pack(den, 8)), 8)

    assert div([(-1, 0), (0, 0), (1, 0)], [(-1, 0), (1, 0)]) == [(1, 0), (1, 0)]
    assert div([(3, 1), (1, 3)], [(1, 1)]) == [(2, -1), (2, 1)]
    assert _gi_exact_div(3, 1, 1, 1) == (2, -1)
    with pytest.raises(ArithmeticError):
        div([(1, 0), (0, 0), (1, 0)], [(1, 0), (1, 0)])  # z^2 + 1 by z + 1
    with pytest.raises(ArithmeticError):
        _gi_exact_div(2, 1, 1, 1)  # (2 + i)/(1 + i) is not in Z[i]
    with pytest.raises(ArithmeticError):
        div([(1, 0)], [(0, 0), (1, 0)])  # 1 by z
    # the long division of the gcd strip: (z + i)(2z - 1 + i) by z + i
    num = [(-1, -1), (-1, 3), (2, 0)]
    assert _gz_exact_div(num, [(0, 1), (1, 0)]) == [(-1, 1), (2, 0)]
    with pytest.raises(ArithmeticError):
        _gz_exact_div(num, [(1, 0), (1, 0)])  # z + 1 does not divide
    with pytest.raises(ArithmeticError):
        _gz_exact_div([(2, 0), (2, 0)], [(0, 0), (2, 0)])  # 2z + 2 by 2z


def gz_poly(p):
    """A Z[i][z] list of (re, im) pairs as a Poly."""
    return Poly([GaussianRational(re, im) for re, im in p])


def laplace_det(mat, one=Poly([1])):
    """Determinant by cofactor expansion along the first row (independent
    oracle), over Poly or, with one=GaussianRational.of(1), over Q(i)."""
    if not mat:
        return one
    total = one - one
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = entry * laplace_det(minor, one)
        total = total + term if j % 2 == 0 else total - term
    return total


def bareiss(mat):
    """_bareiss over Z[i] as a GaussianRational, the matrix left untouched."""
    return GaussianRational(*_bareiss([list(row) for row in mat]))


def gi_laplace(mat):
    return laplace_det([[GaussianRational(*x) for x in row] for row in mat],
                       GaussianRational.of(1))


def test_bareiss_swaps_rows_past_a_zero_pivot():
    p, q, r = (1, 2), (-5, 3), (7, -1)
    # a zero first pivot, then a zero second pivot once the first column is cleared
    mat = [[(0, 0), p, q], [r, (0, 0), p], [r, q, q]]
    got = bareiss(mat)
    assert got == gi_laplace(mat) and got
    assert bareiss([[(0, 0), p], [q, r]]) == -(GaussianRational(*p) * GaussianRational(*q))


def test_bareiss_singular_matrix_is_zero():
    p, q, o = (1, 1), (0, -3), (0, 0)
    assert _bareiss([[p, q], [p, q]]) == (0, 0)  # cancels to zero
    assert _bareiss([[o, p], [o, q]]) == (0, 0)  # no pivot in the first column
    assert _bareiss([[p, q, q], [q, o, p], [p, q, q]]) == (0, 0)
    assert _bareiss([]) == (1, 0)


def poly_sylvester(f, g):
    """Sylvester matrix over Poly of two polynomials given ascending in W."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[Poly()] * sh + f[::-1] + [Poly()] * (n - 1 - sh) for sh in range(n)]
    rows += [[Poly()] * sh + g[::-1] + [Poly()] * (m - 1 - sh) for sh in range(m)]
    return rows


def test_bareiss_reaches_the_packing_bound():
    # Res(F, G) = a_1 b_0 - a_0 b_1 = (a b - 1) z^4 for F = a z^3 W + z^3 and
    # G = z W + b z: its one coefficient is the whole row bound |a| |b| + 1,
    # negative, and the packing is sized to the Sylvester bound just above it
    a, b = -(2**61 - 1), 2**50 + 3
    f, g = [[(0, 0)] * 3 + [(1, 0)], [(0, 0)] * 3 + [(a, 0)]], [[(0, 0), (b, 0)], [(0, 0), (1, 0)]]
    assert _bezout_res(f, g) == [(0, 0)] * 4 + [(a * b - 1, 0)]
    assert gz_poly(_bezout_res(f, g)) == laplace_det(
        poly_sylvester([gz_poly(p) for p in f], [gz_poly(p) for p in g]))
    # F = a z^3 W^2, G = b z: Bez = [[0, a b z^4], [a b z^4, 0]] has a zero
    # pivot, and det Bez = -(a b)^2 z^8 = (-1)^1 lc(F)^2 Res(F, G)
    f, g = [[], [], [(0, 0)] * 3 + [(a, 0)]], [[(0, 0), (b, 0)]]
    assert _bezout_res(f, g) == [(0, 0)] * 2 + [(b * b, 0)]


def test_signed_digits_round_trip_near_the_digit_limit():
    bits = 20
    top = 2 ** (bits - 1)
    p = [(top - 1, -top), (-top, 0), (0, top - 1), (-1, 1), (top - 1, -top + 1)]
    assert _gz_unpack(*_gz_pack(p, bits), bits) == p
    assert _gz_unpack(*_gz_pack([(-top, 0)] + p[:2], bits), bits) == [(-top, 0)] + p[:2]


gz_coeffs = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


@st.composite
def gi_matrices(draw):
    """Square Z[i] matrices with many zero entries, so pivots are zero often."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just((0, 0)), st.tuples(gz_coeffs, gz_coeffs))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(gi_matrices())
def test_bareiss_matches_cofactor_expansion(mat):
    assert bareiss(mat) == gi_laplace(mat)


nonzero_gz_polys = (st.lists(st.tuples(gz_coeffs, gz_coeffs), min_size=1, max_size=3)
                    .filter(lambda p: p[-1] != (0, 0)))
# polynomials in W over Z[i][z] with a nonzero leading coefficient
gz_w_polys = st.builds(operator.add, st.lists(st.one_of(st.just([]), nonzero_gz_polys), max_size=3),
                       st.lists(nonzero_gz_polys, min_size=1, max_size=1))


@settings(max_examples=60, deadline=None)
@given(gz_w_polys, gz_w_polys)
def test_bezout_res_matches_the_sylvester_determinant(f, g):
    # zero coefficients are common, so the Bezout matrix has zero pivots
    if len(g) > len(f):
        f, g = g, f
    got = gz_poly(_bezout_res(f, g))
    assert got == laplace_det(poly_sylvester([gz_poly(p) for p in f], [gz_poly(p) for p in g]))


@st.composite
def resultant_sides(draw, m, n):
    """f and g of degrees m and n in W whose coefficients share and repeat
    two linear denominators, and a point z0 where none of them vanishes."""
    factors = [Poly([-draw(non_integer_gaussians()), 1]) for _ in range(2)]

    def side(deg):
        out = []
        for _ in range(deg + 1):
            num = Poly(draw(st.lists(non_integer_gaussians(), min_size=1, max_size=3)))
            den = Poly([1])
            for h in factors:
                den = den * h ** draw(st.integers(0, 2))
            out.append(RatFunc(num, den))
        return out

    f, g, z0 = side(m), side(n), draw(non_integer_gaussians())
    assume(all(c.den.eval_exact(z0) for c in f + g))
    return f, g, z0


@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 3), (3, 2), (5, 2), (4, 1),
                                  (0, 3), (3, 0), (0, 0)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_resultant_matches_scalar_sylvester_oracle_in_every_degree_order(m, n, data):
    # Res(f, g)(z0) is the Sylvester determinant of f(., z0) and g(., z0),
    # kept at the formal degrees m and n
    f, g, z0 = data.draw(resultant_sides(m, n))
    expected = scalar_det(scalar_sylvester([c.eval_exact(z0) for c in f],
                                           [c.eval_exact(z0) for c in g]))
    assert resultant_w(f, g).eval_exact(z0) == expected


def test_a_k4_discriminant_eliminates_one_4x4_matrix(monkeypatch):
    # the Bezout matrix of Psi and Psi_W has order k; the Sylvester one had 2k - 1
    orders, bareiss_at = [], exactalg._bareiss

    def spy(mat):
        orders.append(len(mat))
        return bareiss_at(mat)

    monkeypatch.setattr(exactalg, "_bareiss", spy)
    discriminant([rf("z"), rf("1/3 + i/2"), rf("1/(z-1)^2"), rf("(z+2)/((z-1)*(z-i))")])
    discriminant([rf("z^3 - i"), rf("2*z"), rf("(1 - i)*z^2"), rf("5")])
    assert orders == [4, 4]


def test_discriminant_k8_degree5_matches_scalar_sylvester_oracle():
    coeffs = [rf("(1/3 + i/2)*z^5 - 2*z + 5"), rf("-z^5 + (2 - i)*z^3 + 1/7"),
              rf("3*i*z^5 - z^2 + 1"), rf("(z^5 - 4)/(z - 1/2)"),
              rf("(-2 + 3*i)*z^5 + z^4 - (5/4)*z"), rf("z^5 + i*z^4 - 3"),
              rf("(z^5 + 2*z - i)/((z + i)*(z - 1/2))"), rf("(2 - i)*z^5 - z^3 + 1/3")]
    disc = discriminant(coeffs)
    for z0 in (GaussianRational(Fraction(1, 3), Fraction(-2, 5)), GaussianRational(-2, 1)):
        psi = [c.eval_exact(z0) for c in reversed(coeffs)] + [GaussianRational.of(1)]
        psi_w = [c * n for n, c in enumerate(psi) if n > 0]
        assert disc.eval_exact(z0) == scalar_det(scalar_sylvester(psi, psi_w))


def test_discriminant_k5_degree4_matches_scalar_sylvester_oracle():
    coeffs = [rf("(1/3 + i/2)*z^4 - 2*z + 5"), rf("-z^4 + (2 - i)*z^3 + 1/7"),
              rf("3*i*z^4 - z^2 + 1"), rf("(z^4 - 4)/(z - 1/2)"),
              rf("(-2 + 3*i)*z^4 + z^3 - (5/4)*z")]
    disc = discriminant(coeffs)
    for z0 in (GaussianRational(Fraction(1, 3), Fraction(-2, 5)), GaussianRational(-2, 1)):
        psi = [c.eval_exact(z0) for c in reversed(coeffs)] + [GaussianRational.of(1)]
        psi_w = [c * n for n, c in enumerate(psi) if n > 0]
        assert disc.eval_exact(z0) == scalar_det(scalar_sylvester(psi, psi_w))


# str(discriminant) of each equation, as recorded before the exact layer
# moved onto Gaussian-integer polynomials
GOLDEN_DISCRIMINANTS = [
    (["z", "z^3 - 2*i*z + 1"],
     "4*z^3 - z^2 + (-8*i)*z + 4"),
    (["(1+i)*z", "z^2 - 3", "2*z^3 + i"],
     "(60 - 22*i)*z^6 + (72 + 120*i)*z^4 + (10 + 82*i)*z^3 + (108 - 18*i)*z^2 + (-54 + "
     "54*i)*z - 135"),
    (["z^2/2 + i", "(2-i)*z", "-z^2 + 1/3", "(1+2*i)*z^2 - z + 5"],
     "(89/16 - 27/4*i)*z^12 + (-45/8)*z^11 + (619/16 + 7/2*i)*z^10 + (-1029/8 + "
     "797/2*i)*z^9 + (-1897/48 + 3299/12*i)*z^8 + (197/2 + 3445/4*i)*z^7 + (-244991/108 - "
     "58493/18*i)*z^6 + (3693 - 1154/3*i)*z^5 + (-233462/9 + 127361/9*i)*z^4 + (-64436/9 -"
     " 171880/9*i)*z^3 + (143354/9 + 488620/9*i)*z^2 + (-26000 + 12304/3*i)*z + (31328 - "
     "43196/27*i)"),
    (["z", "1", "i*z^2", "-2", "z - i"],
     "16*z^12 + (92*i)*z^11 + 164*z^10 + (784*i)*z^9 + 1152*z^8 + (664*i)*z^7 + 3779*z^6 +"
     " (-8962*i)*z^5 + 519*z^4 + (-11048*i)*z^3 + (-8239)*z^2 + (1118*i)*z - 17151"),
    (["1/(z-1)", "(z+i)/(z+2)", "z"],
     "(27*z^8 + 81*z^7 + (-95)*z^6 + (-345 - 6*i)*z^5 + (219 - 72*i)*z^4 + (451 + "
     "84*i)*z^3 + (-273 + 70*i)*z^2 + (45 - 80*i)*z + (-2 + 4*i))/(z^6 + 3*z^5 + (-3)*z^4 "
     "+ (-11)*z^3 + 6*z^2 + 12*z - 8)"),
    (["z", "(2*z - i)/(z + 1 - i)", "3/(z - 2)", "(z^2 + 1)/(z + 1 - i)"],
     "((-27)*z^15 + (135 + 81*i)*z^14 + (234 - 486*i)*z^13 + (-2152 + 144*i)*z^12 + (1569 "
     "+ 3978*i)*z^11 + (7447 - 5713*i)*z^10 + (-14388 - 6216*i)*z^9 + (21686 + "
     "18132*i)*z^8 + (-30433 - 51164*i)*z^7 + (-25871 + 106949*i)*z^6 + (83789 - "
     "57746*i)*z^5 + (-91361 + 23625*i)*z^4 + (91488 + 54484*i)*z^3 + (39612 - "
     "53492*i)*z^2 + (6876 - 19856*i)*z + (396 - 8620*i))/(z^9 + (-3 - 5*i)*z^8 + (-16 + "
     "20*i)*z^7 + (68 + 20*i)*z^6 + (-4 - 160*i)*z^5 + (-244 + 84*i)*z^4 + (192 + "
     "288*i)*z^3 + (224 - 224*i)*z^2 + (-192 - 128*i)*z + (-64 + 64*i))"),
    (["(z + 1)/(z^2 + i*z - 2)", "1/(z^2 + 1)"],
     "(3*z^4 + (-2 + 8*i)*z^3 + (-22)*z^2 + (-2 - 16*i)*z + 15)/(z^6 + (2*i)*z^5 + "
     "(-4)*z^4 + (-2*i)*z^3 - z^2 + (-4*i)*z + 4)"),
    (["1/(z - 1)^2", "(z + 2)/((z - 1)*(z - i))", "i/(z - 1)^3"],
     "(4*z^9 + (-36)*z^7 + (-4 - 18*i)*z^6 + (152 + 100*i)*z^5 + (-103 - 170*i)*z^4 + "
     "(-167 + 107*i)*z^3 + (283 - 19*i)*z^2 + (-149 + 5*i)*z + (28 - 13*i))/(z^12 + (-9 - "
     "3*i)*z^11 + (33 + 27*i)*z^10 + (-57 - 107*i)*z^9 + (18 + 243*i)*z^8 + (126 - "
     "342*i)*z^7 + (-294 + 294*i)*z^6 + (342 - 126*i)*z^5 + (-243 - 18*i)*z^4 + (107 + "
     "57*i)*z^3 + (-27 - 33*i)*z^2 + (3 + 9*i)*z - i)"),
]


@pytest.mark.parametrize("coeffs, want", GOLDEN_DISCRIMINANTS, ids=[
    "k2-poly", "k3-poly", "k4-poly-rational", "k5-poly",
    "k3-lin-den", "k4-lin-den-shared", "k2-quad-den", "k3-repeated-den"])
def test_discriminant_strings_are_unchanged(coeffs, want):
    assert str(discriminant([rf(c) for c in coeffs])) == want


def test_w_poly_derivative():
    # d/dW (W^2 - z) = 2W
    got = w_poly_derivative([-Z, RatFunc.zero(), ONE])
    assert got == [RatFunc.zero(), rf("2")]
    psi = [rf("(1/3 + i/2)/(z - 1)^2"), RatFunc.zero(), rf("(z + i)/(2*z + 3)"), ONE]
    assert w_poly_derivative(psi) == [c * RatFunc.constant(n) for n, c in enumerate(psi)][1:]


# --- Laurent order ----------------------------------------------------------


def test_laurent_order_simple_pole():
    assert laurent_order(rf("-1/z"), GaussianRational.of(0)) == -1


def test_laurent_order_zero_of_order_three():
    assert laurent_order(rf("z^3"), GaussianRational.of(0)) == 3


def test_laurent_order_double_pole():
    assert laurent_order(rf("(z-1)/z^2"), GaussianRational.of(0)) == -2


def test_laurent_order_zero_function():
    with pytest.raises(ZeroFunction):
        laurent_order(RatFunc.zero(), GaussianRational.of(0))


@settings(max_examples=40, deadline=None)
@given(rat_funcs(nonzero=True), rat_funcs(nonzero=True), gaussian_rationals())
def test_laurent_order_additive_over_products(r, s, z0):
    assert laurent_order(r * s, z0) == laurent_order(r, z0) + laurent_order(s, z0)
