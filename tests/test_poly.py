"""Exact polynomial and derivation arithmetic."""

import hashlib
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from smashmod import (
    Derivation,
    DimensionMismatch,
    Poly,
    PolyError,
    PolyParseError,
    parse_derivation,
    parse_poly,
)
from smashmod.modules import ModuleElement
from smashmod.poly import (
    DegreeOverflow,
    _sum_products,
    embed_coefficient,
    embed_function,
    multi_indices,
    partial_power,
    restrict_to_diagonal,
)

from oracles import evaluate, exact_divide_by_long_division, long_divide, random_poly_or_zero


def P(text, dim=1):
    return parse_poly(text, dim)


# -- parsing -----------------------------------------------------------------------

def test_parse_zero():
    p = parse_poly("0", 1)
    assert p.is_zero()
    assert str(p) == "0"


def test_parse_spec_example():
    p = parse_poly("3/2*x1^2*x2 - x2", 2)
    assert p.coefficient((2, 1)) == Fraction(3, 2)
    assert p.coefficient((0, 1)) == -1
    assert len(p.terms) == 2


def test_parse_rejects_parentheses():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("(x1-1)*(x1+1)", 1)
    assert exc.value.position == 0


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + @", 1)
    assert exc.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("", 1)
    with pytest.raises(PolyParseError):
        parse_poly("x1 x2", 2)  # missing '*'


def test_parse_index_out_of_range():
    with pytest.raises(PolyParseError, match="out of range"):
        parse_poly("x3", 2)
    with pytest.raises(PolyParseError, match="out of range"):
        parse_poly("x0", 2)


def test_parse_signs_and_merging():
    assert P("x1 - x1").is_zero()
    assert P("-x1 + 2*x1") == P("x1")
    assert P("- 3/2") == Poly.constant(1, Fraction(-3, 2))
    assert P("x1^2*x1") == P("x1^3")
    # typographic minus accepted
    assert parse_poly("x1 − 1", 1) == P("x1 - 1")


LONG = "9" * 5000  # past the 4300 digits int() converts by default


@pytest.mark.parametrize("text, position", [
    (LONG + "*x1", 0),            # coefficient
    ("1/" + LONG + "*x1", 2),     # denominator
    ("x1^" + LONG, 3),            # exponent
    ("x" + LONG, 1),              # variable index
], ids=["coefficient", "denominator", "exponent", "variable-index"])
def test_over_long_numbers_are_parse_errors(text, position):
    with pytest.raises(PolyParseError, match="too many digits") as exc:
        parse_poly(text, 1)
    assert exc.value.position == position
    with pytest.raises(PolyParseError, match="too many digits") as exc:
        parse_derivation(text + "*d1", 1)
    assert exc.value.position == position


def test_over_long_direction_index_is_a_parse_error():
    with pytest.raises(PolyParseError, match="too many digits") as exc:
        parse_derivation("x1*d" + LONG, 1)
    assert exc.value.position == 4
    # a long number under the limit is an ordinary coefficient
    assert parse_poly("9" * 4000, 1) == Poly.constant(1, int("9" * 4000))


def test_print_canonical_order():
    p = parse_poly("x2 + x1 + x1^2*x2 + 1", 2)
    assert str(p) == "x1^2*x2 + x1 + x2 + 1"
    assert repr(p) == "Poly(2, 'x1^2*x2 + x1 + x2 + 1')"
    assert repr(parse_derivation("x1*d2 - d1", 2)) == "Derivation(2, '-d1 + x1*d2')"


def test_scalar_minus_poly():
    # int - Poly and Fraction - Poly reach Poly.__rsub__
    p = P("x1^2 - 1/3")
    assert 2 - p == P("-x1^2 + 7/3")
    assert Fraction(1, 3) - p == P("-x1^2 + 2/3")
    assert 0 - p == -p
    assert (Fraction(-1, 3) - P("-1/3")).is_zero()


def test_inexact_coefficients_rejected():
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError):
            Poly.constant(1, bad)
        with pytest.raises(TypeError):
            Poly(1, {(1,): bad})
    assert Poly.constant(1, Fraction(4, 2)).terms == {0: 2}
    assert Poly(1, {(1,): Fraction(1, 2)}) == P("1/2*x1")


# -- derivative + derivation examples -----------------------------------------------

def test_partial_derivative_examples():
    assert P("x1^2").partial_derivative(1) == P("2*x1")
    assert parse_poly("x1", 2).partial_derivative(2).is_zero()
    assert parse_poly("x1*x2 + x1^3", 2).partial_derivative(1) == parse_poly("x2 + 3*x1^2", 2)
    with pytest.raises(ValueError, match="out of range"):
        P("x1").partial_derivative(2)


def test_apply_derivation_examples():
    x = Poly.variable(1, 1)
    d = Derivation.partial(1, 1)
    assert (x * d).apply(x ** 2) == 2 * x ** 2
    assert d.apply(Poly.constant(1, 7)).is_zero()
    eta = parse_derivation("x2*d1 + d2", 2)
    assert eta.apply(parse_poly("x1*x2", 2)) == parse_poly("x2^2 + x1", 2)
    with pytest.raises(DimensionMismatch):
        d.apply(parse_poly("x1", 2))


def test_derivation_bracket_examples():
    d1 = Derivation.partial(1, 1)
    x = Poly.variable(1, 1)
    assert d1.bracket(x * d1) == d1
    eta = parse_derivation("x1^2*d1", 1)
    assert eta.bracket(eta).is_zero()
    a, b = Derivation.partial(2, 1), Derivation.partial(2, 2)
    assert a.bracket(b).is_zero()


@pytest.mark.parametrize("text, position", [
    ("x1*d1 + x1^ *d2", 11),  # missing exponent
    ("d1 + 2*x3*d2", 7),      # variable out of range
    ("x1*d1 + 3/0*d2", 9),    # zero denominator
    ("x1*d1 + d3", 8),        # direction out of range
    ("x1*d1 + x2", 10),       # a term without its direction
    ("d1 + x1*d2*x1", 10),    # a factor after the direction
    ("  ", 0),                # empty
])
def test_derivation_error_positions_are_offsets_into_the_input(text, position):
    with pytest.raises(PolyParseError) as exc:
        parse_derivation(text, 2)
    assert exc.value.position == position


def test_derivation_terms_end_in_a_direction():
    assert parse_derivation("x1 * d2 - 2 *x2* d2", 2) == Derivation(
        (Poly.zero(2), parse_poly("x1 - 2*x2", 2)))
    for text in ("x1", "d1*x1", "x1*d1*d2", "*d1", "d 1", "x1*d1 x2*d2", "d1 + "):
        with pytest.raises(PolyParseError):
            parse_derivation(text, 2)
    with pytest.raises(PolyParseError):
        parse_poly("x1*d1", 2)  # a polynomial has no directions


_SPACE = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def field_terms(draw, dim):
    """(sign, coefficient text, direction) for one "<poly term>*d<i>" term;
    the coefficient text is "" when the term is the bare direction."""
    factors = draw(st.lists(
        st.tuples(st.integers(1, dim), st.one_of(st.none(), st.integers(0, 5))),
        max_size=3))
    parts = [f"x{i}" + ("" if e is None else f"^{e}") for i, e in factors]
    number = draw(st.one_of(st.none(), st.integers(0, 40).map(str),
                            st.tuples(st.integers(0, 40), st.integers(1, 9))
                            .map(lambda nd: f"{nd[0]}/{nd[1]}")))
    if number is not None:
        parts.insert(0, number)
    glue = draw(_SPACE) + "*" + draw(_SPACE)
    return draw(st.sampled_from("+-")), glue.join(parts), draw(st.integers(1, dim))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_terms_parse_to_their_coefficients(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    terms = data.draw(st.lists(field_terms(dim), min_size=1, max_size=4))
    text = ""
    comps = [Poly.zero(dim) for _ in range(dim)]
    for k, (sign, coeff, i) in enumerate(terms):
        term = f"{coeff}{data.draw(_SPACE)}*{data.draw(_SPACE)}d{i}" if coeff else f"d{i}"
        if k or sign == "-":
            text += f"{data.draw(_SPACE)}{sign}{data.draw(_SPACE)}"
        text += term
        value = parse_poly(coeff, dim) if coeff else Poly.constant(dim, 1)
        comps[i - 1] = comps[i - 1] + (value if sign == "+" else -value)
    assert parse_derivation(text, dim) == Derivation(comps)


def test_exact_divide():
    f = parse_poly("x1^2 - x2", 2)
    g = parse_poly("x1 + 3*x2^2", 2)
    assert (f * g).exact_divide(f) == g
    assert (f * g).exact_divide(g) == f
    assert parse_poly("x1 + 1", 2).exact_divide(f) is None
    assert Poly.zero(2).exact_divide(f) == Poly.zero(2)
    assert P("x1").exact_divide(P("2")) == Poly.constant(1, Fraction(1, 2)) * P("x1")
    with pytest.raises(ZeroDivisionError):
        P("x1").exact_divide(Poly.zero(1))
    for num, divisor, quotient in [
        # a monomial divisor whose degree and x1 exponent fit, failing only in x2
        ("x1^3", "x1*x2", None),
        ("x1^5*x2^2 + x1^4", "x1^2*x2", None),
        ("x1^5*x2^2 - 3*x1^4*x2", "x1^2*x2", "x1^3*x2 - 3*x1^2"),
        # the leading term divides, the trailing term x2 does not
        ("x1^3 + x2", "x1^2 + x1*x2", None),
        ("x1^3 + x1^2*x2", "x1^2 + x1*x2", "x1"),
        ("4*x1^3 + 2*x1*x2", "2/3*x1", "6*x1^2 + 3*x2"),
        ("x1^2 - x2", "2/3*x1", None),
        ("3*x1^2 + 6", "3", "x1^2 + 2"),
        ("x1 + 1", "-2", "-1/2*x1 - 1/2"),
        ("1/2*x2^2 - x1", "1/4", "2*x2^2 - 4*x1"),
    ]:
        num, divisor = P(num, 2), P(divisor, 2)
        got = num.exact_divide(divisor)
        assert str(got) == str(exact_divide_by_long_division(num, divisor))
        if quotient is None:
            assert got is None
        else:
            assert got == P(quotient, 2)
            assert all(type(c) is int for _, c in got.items() if c.denominator == 1)
    # the operands are checked before a zero numerator returns zero
    for zero in (Poly.zero(1), P("x1") - P("x1")):
        with pytest.raises(DimensionMismatch):
            zero.exact_divide(P("x1 + x2", 2))
        with pytest.raises(DimensionMismatch):
            zero.exact_divide(Poly.zero(2))
        with pytest.raises(ZeroDivisionError):
            zero.exact_divide(Poly.zero(1))
        assert zero.exact_divide(P("x1 + 1")) == Poly.zero(1)


@pytest.mark.parametrize("make", [Derivation, ModuleElement], ids=["derivation", "element"])
def test_tuple_exact_divide_is_componentwise(make):
    f = P("x1^2 - 2/3*x2", 2)
    a, b = P("x1 + 3*x2^2", 2), P("1/2*x1*x2 - 5", 2)
    assert make((f * a, f * b)).exact_divide(f) == make((a, b))
    assert make((f * a, f * b + 1)).exact_divide(f) is None
    assert make((f * a + 1, f * b)).exact_divide(f) is None
    zero = Poly.zero(2)
    assert make((zero, f * b)).exact_divide(f) == make((zero, b))
    assert make((zero, zero)).exact_divide(f) == make((zero, zero))
    with pytest.raises(DimensionMismatch):
        make((f * a, f * b)).exact_divide(P("x1"))
    with pytest.raises(DimensionMismatch):
        make((zero, zero)).exact_divide(P("x1"))


def test_an_empty_element_checks_the_dim_of_its_polynomial_operand():
    empty = ModuleElement((), dim=2)
    for op in (lambda p: empty * p, lambda p: p * empty, empty.exact_divide):
        with pytest.raises(DimensionMismatch):
            op(P("x1"))
        assert op(P("x1 + x2", 2)) == empty


# the leading coefficients of the localized action's divisors: negative, +-1, rational
_DIVISOR_COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 7, Fraction(2, 3), Fraction(-5, 2)])


@st.composite
def _divisors(draw, dim):
    """1-2 terms, none of them constant."""
    exps = st.tuples(*[st.integers(0, 3) for _ in range(dim)]).filter(any)
    return Poly(dim, draw(st.dictionaries(exps, _DIVISOR_COEFFS, min_size=1, max_size=2)))


def _lowered(p: Poly, data) -> Poly:
    """p with one exponent of one term lowered by one, when p has such an exponent."""
    items = p.items()
    places = [(t, i) for t, (exps, _) in enumerate(items) for i, e in enumerate(exps) if e]
    if not places:
        return p
    t, i = data.draw(st.sampled_from(places))
    terms = {}
    for u, (exps, c) in enumerate(items):
        if u == t:
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        terms[exps] = terms.get(exps, 0) + c
    return Poly(p.dim, terms)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_divide_matches_long_division(data):
    dim = data.draw(st.integers(1, 3))
    divisor = data.draw(_divisors(dim))
    b = data.draw(polys(dim, max_degree=3, max_terms=4))
    num = divisor * b
    shape = data.draw(st.sampled_from(["product", "plus remainder", "lowered"]))
    if shape == "plus remainder":
        num = num + data.draw(polys(dim, max_degree=4, max_terms=2, min_terms=1))
    elif shape == "lowered":
        num = _lowered(num, data)
    got = num.exact_divide(divisor)
    expected = exact_divide_by_long_division(num, divisor)
    if shape == "product":
        assert expected == b
    if expected is None:
        assert got is None
        return
    assert str(got) == str(expected)
    assert [(e, c, type(c)) for e, c in got.items()] == \
        [(e, c, type(c)) for e, c in expected.items()]
    assert all(c and (type(c) is int or c.denominator != 1) for _, c in got.items())


def test_multi_indices():
    assert multi_indices(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert partial_power(P("x1^3"), (2,)) == P("6*x1")


# -- random / property checks --------------------------------------------------------

coeffs = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def polys(dim, max_degree=4, max_terms=3, min_terms=0):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_degree) for _ in range(dim)])
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda t: Poly(dim, t))


def derivations(dim, max_degree=3):
    return st.tuples(*[polys(dim, max_degree, 2) for _ in range(dim)]).map(Derivation)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ring_axioms_and_evaluation(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    p = data.draw(polys(dim))
    q = data.draw(polys(dim))
    r = data.draw(polys(dim))
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == Poly.zero(dim)
    # cross-check multiplication against exact evaluation
    point = [Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
             for _ in range(dim)]
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_leibniz_rule(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    e = data.draw(derivations(dim))
    p = data.draw(polys(dim))
    q = data.draw(polys(dim))
    assert e.apply(p * q) == e.apply(p) * q + p * e.apply(q)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bracket_antisymmetry_and_jacobi(data):
    dim = data.draw(st.integers(min_value=1, max_value=2))
    a = data.draw(derivations(dim, 2))
    b = data.draw(derivations(dim, 2))
    c = data.draw(derivations(dim, 2))
    assert a.bracket(b) == -(b.bracket(a))
    jac = a.bracket(b.bracket(c)) + c.bracket(a.bracket(b)) + b.bracket(c.bracket(a))
    assert jac.is_zero()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_print_round_trip(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    p = data.draw(polys(dim))
    text = str(p)
    again = parse_poly(text, dim)
    assert again == p
    assert str(again) == text


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_derivation_round_trip(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    e = data.draw(derivations(dim))
    assert parse_derivation(str(e), dim) == e


def test_products_past_the_exponent_limit_raise():
    # 5 * 16000 = 80000 > 0xFFFF would carry into x1^14464 and x1*x2^14464
    with pytest.raises(PolyError):
        parse_poly("x1^16000", 1) ** 5
    with pytest.raises(PolyError):
        parse_poly("x2^16000", 2) ** 5
    top = parse_poly("x1^16383*x2^16383*x3^16383*x4^16383", 4)  # degree 65532
    assert (top * P("x1^3", 4)).coefficient((16386, 16383, 16383, 16383)) == 1
    with pytest.raises(PolyError):
        top * P("x1^4", 4)


def _reference_product(p, q):
    """Product over plain exponent tuples, without packed keys."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_near_the_exponent_limit(data):
    # dims 3 and 4 let two constructible operands reach past degree 0xFFFF
    dim = data.draw(st.integers(min_value=1, max_value=4))
    exponent = st.one_of(st.integers(0, 16383), st.integers(16000, 16383))
    terms = st.dictionaries(st.tuples(*[exponent] * dim), coeffs, min_size=1, max_size=3)
    p = Poly(dim, data.draw(terms))
    q = Poly(dim, data.draw(terms))
    ref = _reference_product(p, q)
    if max((sum(e) for e in ref), default=0) > 0xFFFF:
        with pytest.raises(PolyError):
            p * q
    else:
        assert dict((p * q).items()) == ref


def _unit_exps(dim, i, e):
    return tuple(e if j == i else 0 for j in range(dim))


def _triples(dim):
    return st.lists(st.tuples(coeffs, polys(dim), polys(dim)), max_size=5)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sum_products_matches_summed_reference_products(data):
    # c runs over int, Fraction, zero and negative scalars; operands may be zero
    dim = data.draw(st.integers(min_value=1, max_value=3))
    _assert_matches_reference(data.draw(_triples(dim)), dim)


def _assert_matches_reference(triples, dim):
    """_sum_products against the summed reference products: the same values,
    and an int for every integral value."""
    expect = {}
    for c, a, b in triples:
        for e, v in _reference_product(a, b).items():
            expect[e] = expect.get(e, 0) + c * v
    got = _sum_products(dim, triples)
    assert got.dim == dim
    assert dict(got.items()) == {e: v for e, v in expect.items() if v}
    assert all(type(v) is int or v.denominator != 1 for _, v in got.items())
    return got


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sum_products_of_wide_and_small_rational_triples_matches_the_reference(data):
    # wide triples of at least 4 x 4 terms mixed, in any order, with small
    # ones, so the running denominator grows both across many pairs and few
    dim = data.draw(st.integers(min_value=1, max_value=3))
    wide = polys(dim, max_degree=7, max_terms=8, min_terms=4)
    large = data.draw(st.lists(st.tuples(coeffs, wide, wide), min_size=1, max_size=3))
    small = data.draw(st.lists(st.tuples(coeffs, polys(dim, 7, 8), polys(dim)), max_size=4))
    _assert_matches_reference(data.draw(st.permutations(large + small)), dim)


def _wide(dim, coefficients, degree=0):
    """A polynomial with one term per coefficient, at distinct exponents
    starting from degree ``degree`` in x1."""
    return Poly(dim, {_unit_exps(dim, 0, degree + i): c for i, c in enumerate(coefficients)})


def test_sum_products_kernel_edge_cases():
    third = _wide(1, [Fraction(1, 3), 2, -1, 5])
    quarter = _wide(1, [3, Fraction(-1, 4), 1, 7], degree=2)
    ints = _wide(1, [1, -2, 3, 4])
    # a triple over 3, an integer triple, then one over 4: the running
    # denominator is raised from 3 to 12 in the middle of the sum
    got = _assert_matches_reference([(1, third, ints), (2, ints, ints), (1, quarter, ints)], 1)
    assert {3, 4, 12} <= {v.denominator for _, v in got.items() if type(v) is not int}
    # a small rational triple after a wide rational one
    small = (Fraction(2, 5), P("x1"), P("x1 + 1/7"))
    _assert_matches_reference([(1, third, quarter), small], 1)
    _assert_matches_reference([small, (1, third, quarter), small], 1)
    # terms that cancel across triples drop their keys, and the denominator
    # shrinks with them
    assert _sum_products(1, [(Fraction(1, 2), third, ints), (Fraction(-1, 2), third, ints),
                             (1, P("x1"), P("x1"))]) == P("x1^2")
    assert _sum_products(1, [(1, third, ints), (-1, ints, third)]).is_zero()
    # a Fraction scalar with integer operands
    got = _assert_matches_reference([(Fraction(2, 3), ints, ints)], 1)
    assert any(type(v) is not int for _, v in got.items())
    # the dimension check and the degree guard on a large rational triple
    other = _wide(2, [Fraction(1, 3), 1, Fraction(2, 7), 5])
    with pytest.raises(DimensionMismatch):
        _sum_products(1, [(1, third, ints), (Fraction(1, 3), third, other)])
    top = _wide(1, [Fraction(1, 3), 1, 2, 3], degree=0xFFFF - 3)
    with pytest.raises(DegreeOverflow):
        _sum_products(1, [(1, third, ints), (Fraction(1, 5), top, quarter)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_products_refuses_a_wrong_dim_triple(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    triples = data.draw(_triples(dim))
    other = data.draw(polys(data.draw(st.sampled_from([n for n in (1, 2, 3, 4) if n != dim]))))
    right = data.draw(polys(dim))
    bad = (data.draw(coeffs),) + ((other, right) if data.draw(st.booleans()) else (right, other))
    triples.insert(data.draw(st.integers(0, len(triples))), bad)
    with pytest.raises(DimensionMismatch):
        _sum_products(dim, triples)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_products_refuses_one_triple_past_the_degree_limit(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    triples = data.draw(_triples(dim))
    s = data.draw(st.integers(1, 0xFFFF))
    t = data.draw(st.integers(0x10000 - s, 0xFFFF))
    a = Poly.monomial(dim, _unit_exps(dim, data.draw(st.integers(0, dim - 1)), s))
    b = Poly.monomial(dim, _unit_exps(dim, data.draw(st.integers(0, dim - 1)), t))
    c = data.draw(coeffs.filter(bool))
    triples.insert(data.draw(st.integers(0, len(triples))), (c, a, b))
    with pytest.raises(PolyError, match="exponent limit"):
        _sum_products(dim, triples)


def test_terms_past_the_degree_limit_are_rejected():
    # 5 * 16383 = 81915 > 0xFFFF: summed into one packed key the exponents
    # carried into the x1 field and parsed as x1*x2^16379
    text = "1 + " + "*".join(["x2^16383"] * 5)
    with pytest.raises(PolyParseError, match="exponent limit") as exc:
        parse_poly(text, 2)
    assert exc.value.position == 4  # the start of the offending term
    with pytest.raises(ValueError):
        Poly(5, {(16383,) * 5: 1})  # degree 81915, admitted before
    with pytest.raises(ValueError):
        Poly(2, {(1, -1): 1})
    # degree 0xFFFF itself is admitted, in one exponent or spread out
    assert parse_poly("x1^65535", 1).total_degree() == 0xFFFF
    assert str(parse_poly("x1^30000*x2^35535", 2)) == "x1^30000*x2^35535"
    assert Poly(5, {(13107,) * 5: 1}) * Poly.constant(5, 1) == Poly(5, {(13107,) * 5: 1})


def test_dimension_mismatch_is_an_error():
    with pytest.raises(DimensionMismatch):
        P("x1") + parse_poly("x1", 2)
    with pytest.raises(DimensionMismatch):
        P("x1") * parse_poly("x1", 2)


def integer_rows(*sites):
    """Rows and ids for a table of test_each_guard_raises_its_message.

    Each site (id, call, error, message, below) is a one-argument call that
    passes its argument to one public integer parameter: True, 1.5 and
    ``below``, the value just under the parameter's least one, each raise the
    error and message.  ``below`` is None where another row or test checks it.
    A ``{got}`` in the message stands for the refused value's repr.
    """
    rows, ids = [], []
    for name, call, error, message, below in sites:
        for label, value in (("bool", True), ("float", 1.5), ("below-least", below)):
            if value is not None:
                rows.append((lambda call=call, value=value: call(value), error,
                             message.format(got=re.escape(repr(value)))))
                ids.append(f"{name}-{label}")
    return rows, ids


_INTEGER_ROWS, _INTEGER_IDS = integer_rows(
    ("poly-dim", Poly, ValueError, "dim must be a positive integer", None),
    ("poly-exponent", lambda v: Poly(2, {(1, v): 1}), ValueError, "exponent out of range", -1),
    ("coefficient-exponent", lambda v: P("x1 + 7").coefficient((v,)), ValueError,
     "exponent out of range", -1),
    ("power", lambda v: P("x1") ** v, ValueError,
     r"power of a polynomial must be a nonnegative integer \(got {got}\)", None),
    ("parse-dim", lambda v: parse_poly("x1", v), ValueError, "dim must be a positive integer",
     None),
    ("parse-derivation-dim", lambda v: parse_derivation("d1", v), ValueError,
     "dim must be a positive integer", 0),
    ("derivation-zero-dim", Derivation.zero, ValueError,
     r"dim must be a positive integer \(got {got}\)", 0),
)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Poly(0), ValueError, "dim must be a positive integer"),
    (lambda: Poly(2, {(1,): 1}), DimensionMismatch, r"\(1,\) has length 1, expected 2"),
    (lambda: Poly.variable(2, 3), ValueError, r"variable index 3 out of range 1\.\.2"),
    (lambda: P("x1") ** -1, ValueError,
     r"power of a polynomial must be a nonnegative integer \(got -1\)"),
    (lambda: parse_poly("x1", 0), ValueError, "dim must be a positive integer"),
    (lambda: Derivation(()), ValueError, "a derivation needs at least one component"),
    (lambda: Derivation((P("x1"), P("x1", 2))), DimensionMismatch,
     "derivation components disagree on dim"),
    (lambda: Derivation((P("x1"), P("x1"))), DimensionMismatch, "2 components for 1 variables"),
    (lambda: Derivation.partial(2, 3), ValueError, r"variable index 3 out of range 1\.\.2"),
    (lambda: Derivation.partial(1, 1).bracket(Derivation.partial(2, 1)), DimensionMismatch,
     "dim 1 vs 2"),
    (lambda: partial_power(P("x1", 2), (1,)), DimensionMismatch,
     "multi-index length 1 vs dim 2"),
    (lambda: P("x1") + "x1", TypeError, "unsupported operand"),
    (lambda: Derivation.partial(1, 1) + 3, TypeError, "unsupported operand"),
    (lambda: Derivation.partial(1, 1) - 3, TypeError, "unsupported operand"),
    (lambda: Derivation.partial(1, 1) * 0.5, TypeError, "unsupported operand"),
    # coefficient read (0,), () and (1, 0, 0) as keys of other lengths: 7, 7 and 0
    (lambda: P("3*x1 + 5*x2 + 7", 2).coefficient((0,)), DimensionMismatch,
     r"\(0,\) has length 1, expected 2"),
    (lambda: P("3*x1 + 5*x2 + 7", 2).coefficient(()), DimensionMismatch,
     r"\(\) has length 0, expected 2"),
    (lambda: P("3*x1 + 5*x2 + 7", 2).coefficient((1, 0, 0)), DimensionMismatch,
     r"\(1, 0, 0\) has length 3, expected 2"),
] + _INTEGER_ROWS,
   ids=["poly-dim-0", "exponents-of-the-wrong-length", "variable-out-of-range",
        "negative-power", "parse-dim-0", "empty-derivation", "components-of-two-dims",
        "component-count-other-than-dim", "partial-out-of-range", "bracket-across-dims",
        "partial-power-index-of-the-wrong-length", "poly-plus-text", "derivation-plus-int",
        "derivation-minus-int", "derivation-times-float", "coefficient-key-too-short",
        "coefficient-key-empty", "coefficient-key-too-long"] + _INTEGER_IDS)
def test_each_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_random_poly_or_zero_repeats_the_draws_of_random_poly_allowing_zero():
    # sha256 of 200 draws each, recorded from random_poly(rng, dim, degree,
    # nonzero=False) before that setting left the library; zeros included
    from smashmod.sampling import seeded_rng

    for dim, degree, zeros, digest in (
            (1, 1, 5, "69021c56292bbb2230af585e29602e8f0f7906e427948b3cab9273fb53e34a96"),
            (2, 2, 3, "2d2b441a6b903553739454a0eda9dc95bf43162cb87e3b69a50a4b355e93dddc")):
        rng = seeded_rng(61, "or-zero", dim, degree)
        draws = [str(random_poly_or_zero(rng, dim, degree)) for _ in range(200)]
        assert draws.count("0") == zeros
        assert hashlib.sha256("\n".join(draws).encode()).hexdigest() == digest


def test_random_poly_gives_up_after_64_draws_that_cancel():
    # every draw is 2*x1^2 - 2*x1^2: two terms at the top degree, all in the
    # first variable, with opposite integer coefficients
    from smashmod.sampling import random_poly

    class Cancelling:
        coefficients = 0

        def randint(self, low, high):
            return high

        def randrange(self, n):
            return 0

        def random(self):
            return 0.5  # above the rational share: integer coefficients

        def choice(self, seq):
            self.coefficients += 1
            return 2 if self.coefficients % 2 else -2

    rng = Cancelling()
    with pytest.raises(RuntimeError, match="sampling failed"):
        random_poly(rng, 1, 2)
    assert rng.coefficients == 2 * 64


def test_derivation_laws_seeded_sweep():
    # 100 seeded draws per dimension, degree <= 4: Leibniz, antisymmetry, Jacobi
    from smashmod.sampling import random_derivation, seeded_rng

    for dim in (1, 2, 3):
        rng = seeded_rng(61, "poly-laws", dim)
        for _ in range(100):
            e = random_derivation(rng, dim, 4)
            u = random_derivation(rng, dim, 3)
            w = random_derivation(rng, dim, 2)
            p = random_poly_or_zero(rng, dim, 4)
            q = random_poly_or_zero(rng, dim, 4)
            assert e.apply(p * q) == e.apply(p) * q + p * e.apply(q)
            assert e.bracket(u) == -(u.bracket(e))
            jac = e.bracket(u.bracket(w)) + w.bracket(e.bracket(u)) + u.bracket(w.bracket(e))
            assert jac.is_zero()


# -- cross-check against sympy -------------------------------------------------------

def _sympy_poly(p, gens):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.items()}, *gens,
        domain="QQ")


def _from_sympy(sp):
    """A sympy polynomial as {exponent tuple: coefficient}, zero terms dropped."""
    return {e: Fraction(int(c.p), int(c.q)) for e, c in sp.terms() if c}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_agrees_with_sympy(data):
    sympy = pytest.importorskip("sympy")
    dim = data.draw(st.integers(min_value=1, max_value=3))
    gens = sympy.symbols(f"x1:{dim + 1}")
    # up to 8 terms, so a product sums up to 64 coefficient pairs
    a = data.draw(polys(dim, max_terms=8))
    b = data.draw(polys(dim, max_terms=8).filter(bool))
    sa, sb = _sympy_poly(a, gens), _sympy_poly(b, gens)
    assert dict((a * b).items()) == _from_sympy(sa * sb)
    n = data.draw(st.integers(min_value=0, max_value=3))
    assert dict((a ** n).items()) == _from_sympy(sa ** n)
    for i in range(1, dim + 1):
        assert dict(a.partial_derivative(i).items()) == _from_sympy(sa.diff(gens[i - 1]))
    # division: exact exactly when sympy leaves no remainder
    quot, rem = sympy.div(sa, sb)
    got = a.exact_divide(b)
    if rem.is_zero:
        assert dict(got.items()) == _from_sympy(quot)
    else:
        assert got is None
    assert (a * b).exact_divide(b) == a
    if not b.is_constant():
        assert (a * b + 1).exact_divide(b) is None
        assert not sympy.div(_sympy_poly(a * b + 1, gens), sb)[1].is_zero


# -- cross-check against a dict-of-tuples Fraction reference -------------------------
#
# The reference keeps {exponent tuple: nonzero Fraction} and does each operation
# term by term; the library keeps integer numerators over one denominator on
# packed keys.  Every value a random program makes is compared with its
# reference, in its public view and in its text, and checked to be canonical.

def _assert_canonical(p: Poly):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    assert p.terms or p.den == 1


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _ref_clean(out)


def _ref_str(terms, dim):
    """The text form: terms in descending graded-lex order (total degree, then
    lex with x1 > x2 > ...), each an optional rational magnitude and factors."""
    out = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        mag = abs(c)
        body = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                        for i, k in enumerate(e, start=1) if k)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if out:
            out.append((" - " if c < 0 else " + ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return "".join(out) or "0"


def _assert_matches(p: Poly, ref, dim):
    _assert_canonical(p)
    assert p.dim == dim
    assert dict(p.items()) == ref
    assert all(type(c) is int or c.denominator != 1 for _, c in p.items())
    assert str(p) == _ref_str(ref, dim)


# denominators up to 12, so lcms and the cancelling gcds vary
_wide_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
_scalars = st.one_of(st.integers(min_value=-4, max_value=4),
                     st.fractions(min_value=-3, max_value=3, max_denominator=6))
_OPS = ("add", "sub", "mul", "scale", "pow", "diff", "divide", "diagonal")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_operations_agree_with_a_fraction_reference(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    pool = []
    for _ in range(2):
        drawn = data.draw(st.dictionaries(exps, _wide_coeffs, max_size=4))
        pool.append((Poly(dim, drawn), _ref_clean({e: Fraction(c) for e, c in drawn.items()})))
    for p, ref in pool:
        _assert_matches(p, ref, dim)
    for op in data.draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=6)):
        # operands from the drawn values and from earlier results alike
        pick = st.integers(0, len(pool) - 1)
        (x, rx), (y, ry) = pool[data.draw(pick)], pool[data.draw(pick)]
        if op == "add":
            new = x + y, _ref_add(rx, ry)
        elif op == "sub":
            new = x - y, _ref_add(rx, ry, -1)
        elif op == "mul":
            if x.total_degree() + y.total_degree() > 12:
                continue
            new = x * y, _ref_mul(rx, ry)
        elif op == "scale":
            c = data.draw(_scalars)
            new = x * c, _ref_clean({e: v * c for e, v in rx.items()})
            _assert_matches(c * x, new[1], dim)
        elif op == "pow":
            n = data.draw(st.integers(0, 3))
            if x.total_degree() * n > 12:
                continue
            ref = {(0,) * dim: Fraction(1)}
            for _ in range(n):
                ref = _ref_mul(ref, rx)
            new = x ** n, ref
        elif op == "diff":
            i = data.draw(st.integers(1, dim))
            new = x.partial_derivative(i), _ref_clean({
                e[:i - 1] + (e[i - 1] - 1,) + e[i:]: v * e[i - 1] for e, v in rx.items() if e[i - 1]})
        elif op == "divide":
            if not ry or x.total_degree() + y.total_degree() > 12:
                continue
            quot = x.exact_divide(y)
            expected = long_divide(rx, ry)
            if expected is None:
                assert quot is None
            else:
                _assert_matches(quot, expected, dim)
            product = x * y
            new = product.exact_divide(y), long_divide(_ref_mul(rx, ry), ry)
            assert new[0] == x
        else:  # "diagonal": x(x) * y(y) + y(x), restricted to y := x
            fx, gy, hx = embed_function(x), embed_coefficient(y), embed_function(y)
            zero = (0,) * dim
            rfx = {e + zero: v for e, v in rx.items()}
            rgy = {zero + e: v for e, v in ry.items()}
            rhx = {e + zero: v for e, v in ry.items()}
            for value, ref in ((fx, rfx), (gy, rgy), (hx, rhx)):
                _assert_matches(value, ref, 2 * dim)
            doubled = fx * gy + hx
            rdoubled = _ref_add(_ref_mul(rfx, rgy), rhx)
            _assert_matches(doubled, rdoubled, 2 * dim)
            ref = {}
            for e, v in rdoubled.items():
                d = tuple(a + b for a, b in zip(e[:dim], e[dim:]))
                ref[d] = ref.get(d, 0) + v
            new = restrict_to_diagonal(doubled), _ref_clean(ref)
        _assert_matches(*new, dim)
        pool.append(new)
