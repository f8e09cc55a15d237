"""Canonical smash-element form, annihilator elements, identity checks."""

import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smashmod import (
    Derivation,
    DimensionMismatch,
    Poly,
    SmashElement,
    from_term,
    function_commutator,
    omega,
    omega_definitional,
    omega_multi,
    omega_multi_definitional,
    parse_derivation,
    parse_poly,
    smash_bracket,
    tensor_act,
    verify_identity,
)
import smashmod.poly as poly
import smashmod.smash as smash
from smashmod.poly import embed_coefficient, embed_function, restrict_to_diagonal
from smashmod.smash import IDENTITY_IDS

from oracles import naive_smash_bracket
from test_poly import integer_rows

x = Poly.variable(1, 1)
one = Poly.constant(1, 1)
d = Derivation.partial(1, 1)


def doubled(text, dim=1):
    return parse_poly(text, 2 * dim)


# -- embedding ----------------------------------------------------------------------

def test_from_term_examples():
    assert from_term(one, d).components == (doubled("1"),)
    assert repr(from_term(x, d)) == "SmashElement(1, [x1])"
    assert from_term(x, x * d).components == (doubled("x1*x2"),)  # x * y in doubled vars
    assert from_term(Poly.zero(1), x * d).is_zero()


def test_from_term_bilinear():
    f, g = parse_poly("x1 + 2", 1), parse_poly("x1^2", 1)
    assert from_term(f + g, d) == from_term(f, d) + from_term(g, d)
    assert from_term(f, d + x * d) == from_term(f, d) + from_term(f, x * d)


def test_diagonal_restriction():
    p = embed_function(parse_poly("x1^2", 1)) * embed_coefficient(parse_poly("x1", 1))
    assert restrict_to_diagonal(p) == parse_poly("x1^3", 1)


# -- bracket ------------------------------------------------------------------------

def test_bracket_unit_example():
    # [1#d, x#d] = 1#d
    assert smash_bracket(from_term(one, d), from_term(x, d)) == from_term(one, d)


def test_bracket_antisymmetry_on_self():
    u = from_term(x, d) + from_term(one, x * d)
    assert smash_bracket(u, u).is_zero()


def test_bracket_against_expansion_oracle():
    u = from_term(x, d)
    v = from_term(one, x * d)
    got = smash_bracket(u, v)
    assert got == naive_smash_bracket(u, v)
    assert got.is_zero()  # the two terms cancel exactly for this pair


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_matches_naive_expansion(data):
    dim = data.draw(st.integers(min_value=1, max_value=2))
    exps = st.tuples(*[st.integers(0, 2) for _ in range(2 * dim)])
    coeffs = st.integers(-3, 3).filter(bool)
    comp = st.dictionaries(exps, coeffs, min_size=0, max_size=2).map(
        lambda t: Poly(2 * dim, t))
    u = SmashElement(dim, tuple(data.draw(comp) for _ in range(dim)))
    v = SmashElement(dim, tuple(data.draw(comp) for _ in range(dim)))
    assert smash_bracket(u, v) == naive_smash_bracket(u, v)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_bracket_jacobi(data):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeffs = st.integers(-2, 2).filter(bool)
    comp = st.dictionaries(exps, coeffs, min_size=1, max_size=2).map(
        lambda t: Poly(2, t))
    u, v, w = (SmashElement(1, (data.draw(comp),)) for _ in range(3))
    jac = smash_bracket(u, smash_bracket(v, w)) \
        + smash_bracket(w, smash_bracket(u, v)) \
        + smash_bracket(v, smash_bracket(w, u))
    assert jac.is_zero()


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        smash_bracket(from_term(one, d), from_term(parse_poly("x1", 2),
                                                   Derivation.partial(2, 1)))


# operands in two variables, for the guards against mixing dims
x_2d, d_2d = Poly.variable(2, 1), Derivation.partial(2, 1)

_INTEGER_ROWS, _INTEGER_IDS = integer_rows(
    ("dim", lambda v: SmashElement(v, (Poly.zero(2),)), ValueError,
     "dim must be a positive integer", None),
    ("omega-level", lambda v: omega(v, x, d), ValueError,
     r"level p must be a nonnegative integer \(got {got}\)", None),
    ("omega-definitional-level", lambda v: omega_definitional(v, x, d), ValueError,
     r"level p must be a nonnegative integer \(got {got}\)", None),
)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SmashElement(0, ()), ValueError, "dim must be a positive integer"),
    (lambda: SmashElement(1, (doubled("x1"),) * 2), DimensionMismatch, "2 components for dim 1"),
    (lambda: SmashElement(1, (x,)), DimensionMismatch,
     r"components must live in 2\*dim doubled variables"),
    (lambda: from_term(x, d_2d), DimensionMismatch, "dim 1 vs 2"),
    (lambda: tensor_act(x_2d, one, from_term(one, d)), DimensionMismatch, "dim 2/1 vs 1"),
    (lambda: omega(1, x_2d, d), DimensionMismatch, "dim 2 vs 1"),
    (lambda: omega_definitional(1, x_2d, d), DimensionMismatch, "dim 2 vs 1"),
    (lambda: omega_multi((x_2d,), d), DimensionMismatch, "dim 2 vs 1"),
    (lambda: function_commutator(from_term(one, d), x_2d), DimensionMismatch, "dim 2 vs 1"),
    (lambda: omega(-1, x, d), ValueError, r"level p must be a nonnegative integer \(got -1\)"),
    (lambda: omega_definitional(-1, x, d), ValueError,
     r"level p must be a nonnegative integer \(got -1\)"),
    (lambda: from_term(one, d) + 1, TypeError, "unsupported operand"),
] + _INTEGER_ROWS,
   ids=["dim-0", "wrong-component-count", "components-outside-the-doubled-variables",
        "from-term-across-dims", "tensor-act-across-dims", "omega-across-dims",
        "omega-definitional-across-dims", "omega-multi-across-dims",
        "function-commutator-across-dims", "omega-negative-level",
        "omega-definitional-negative-level", "element-plus-int"] + _INTEGER_IDS)
def test_each_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


# -- annihilator elements -------------------------------------------------------------

def test_omega_level_one():
    w = omega(1, x, d)
    assert w == from_term(x, d) - from_term(one, x * d)
    assert w.components == (doubled("x1 - x2"),)  # f(x) - f(y)


def test_omega_constant_vanishes():
    c = Poly.constant(1, Fraction(5, 3))
    for p in range(1, 5):
        assert omega(p, c, x * d).is_zero()
    assert not omega(0, c, d).is_zero()  # level 0 is 1 # eta


def test_omega_level_two_closed_form():
    w = omega(2, x, d)
    assert w.components == (doubled("x1^2 - 2*x1*x2 + x2^2"),)


def test_omega_matches_definitional_sum():
    f = parse_poly("x1^2 - 3*x2", 2)
    eta = parse_derivation("x2*d1 + x1^2*d2", 2)
    for p in range(6):
        assert omega(p, f, eta) == omega_definitional(p, f, eta)


def omega_fresh(p, f, eta):
    """omega's closed form built from scratch, (f(x) - f(y))^p * g_i(y)."""
    Fp = (embed_function(f) - embed_coefficient(f)) ** p
    return SmashElement(f.dim, tuple(Fp * embed_coefficient(g) for g in eta.coeffs))


def _polys(dim, max_size=2):
    exps = st.tuples(*[st.integers(0, 2) for _ in range(dim)])
    coeffs = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=max_size).map(
        lambda t: Poly(dim, t))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_omega_memo_matches_the_closed_form_over_interleaved_calls(data):
    # omega keeps the powers of the last f it met; interleave
    # two f of different dims and a distinct object equal to the first
    f1, f2 = data.draw(_polys(1)), data.draw(_polys(2))
    copy = Poly(1, dict(f1.items()))
    assert copy == f1 and copy is not f1
    etas = {dim: [Derivation(tuple(data.draw(_polys(dim, 1)) for _ in range(dim)))
                  for _ in range(3)] for dim in (1, 2)}
    calls = data.draw(st.lists(st.tuples(st.sampled_from((f1, copy, f2)),
                                         st.integers(0, 6), st.integers(0, 2)),
                               min_size=1, max_size=12))
    for f, p, k in calls:
        eta = etas[f.dim][k]
        assert omega(p, f, eta) == omega_fresh(p, f, eta)


def test_omega_memo_is_safe_across_threads(monkeypatch):
    # two real threads driven through the one interleaving that breaks a memo
    # kept in several bindings: thread Y is paused inside its replacement of
    # the memo for g, this test's own thread X replaces the memo for f and
    # reads it, then Y finishes its replacement and X reads again.  A memo of
    # (f, F, levels) in separate bindings would be left holding f with the
    # F of g.
    f, g, h = (parse_poly(t, 1) for t in ("x1^2 + 7*x1", "x1^3 - 5", "x1 + 11"))
    omega(2, h, d)  # the memo holds neither f nor g, so both threads replace it
    real = smash.embed_function
    paused, release = threading.Event(), threading.Event()
    got = []

    def embed_pausing_y(p):
        if threading.current_thread() is y and not paused.is_set():
            paused.set()
            assert release.wait(timeout=30)
        return real(p)

    monkeypatch.setattr(smash, "embed_function", embed_pausing_y)
    y = threading.Thread(target=lambda: got.append(omega(2, g, d)))
    y.start()
    try:
        assert paused.wait(timeout=30)
        assert omega(2, f, d) == omega_fresh(2, f, d)
    finally:
        release.set()
        y.join(timeout=30)
    assert not y.is_alive() and got == [omega_fresh(2, g, d)]
    for p in (2, 3):
        assert omega(p, f, d) == omega_fresh(p, f, d)


def test_omega_builds_one_power_per_new_level(monkeypatch):
    # a new level is F ** p from the cached F, not a chain of the lower levels;
    # __pow__ is stubbed so that level 20000 costs nothing here
    x1, eta = Poly.variable(1, 1), x * d
    monkeypatch.setattr(smash, "_omega_memo", None)
    powers, products = [], []
    monkeypatch.setattr(Poly, "__pow__", lambda self, n: powers.append(n) or self)
    real = poly._sum_products
    monkeypatch.setattr(poly, "_sum_products",
                        lambda *args: products.append(1) or real(*args))
    omega(20000, x1, d)
    assert powers == [20000]
    assert len(products) == 1  # the one component's product by g_1(y)
    omega(20000, x1, eta)  # a new eta at a known level: no power at all
    omega(20000, Poly.variable(1, 1), eta)  # an equal f: its known power
    assert powers == [20000] and len(products) == 3


def test_omega_multi_examples():
    assert omega_multi((x, x), d) == omega(2, x, d)
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    w = omega_multi((x1, x2), Derivation.partial(2, 1))
    assert w.components[0] == parse_poly("x1*x2 - x1*x4 - x2*x3 + x3*x4", 4)
    assert w.components[1].is_zero()
    assert omega_multi((Poly.constant(1, 4),), x * d).is_zero()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_empty_product_is_one_smash_eta(dim):
    f = Poly.variable(dim, dim) ** 2 + 1
    eta = Derivation((Poly.variable(dim, 1),) * dim)
    one = Poly.constant(dim, 1)
    assert omega_multi((), eta) == omega_multi_definitional((), eta) \
        == from_term(one, eta) == omega(0, f, eta)


def test_omega_multi_matches_tensor_route():
    f = parse_poly("x1*x2", 2)
    g = parse_poly("x2^2 - 1", 2)
    eta = parse_derivation("x1*d2", 2)
    assert omega_multi((f, g), eta) == omega_multi_definitional((f, g), eta)


def test_tensor_act_examples():
    u = from_term(one, d)
    assert tensor_act(one, one, u) == u
    assert tensor_act(x, one, u) == from_term(x, d)
    got = tensor_act(one, x, u)
    assert got == from_term(one, x * d)
    assert got.components == (doubled("x2"),)  # the y variable


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_act_is_a_module_action(data):
    coeffs = st.integers(-2, 2).filter(bool)
    exps = st.tuples(st.integers(0, 2))
    poly1 = st.dictionaries(exps, coeffs, min_size=1, max_size=2).map(lambda t: Poly(1, t))
    a, a2, b, b2 = (data.draw(poly1) for _ in range(4))
    u = omega(data.draw(st.integers(0, 2)), data.draw(poly1), d)
    assert tensor_act(a * a2, b * b2, u) == tensor_act(a, b, tensor_act(a2, b2, u))


def test_scaling_by_a_doubled_product_is_the_tensor_action():
    a, b = parse_poly("x1^2 - 3", 1), parse_poly("1/2*x1 + 1", 1)
    u = omega(2, parse_poly("x1^2 + x1", 1), x * d)
    P = embed_function(a) * embed_coefficient(b)  # a(x) b(y)
    expect = SmashElement(1, tuple(P * c for c in u.components))
    assert u * P == expect
    assert P * u == expect
    assert tensor_act(a, b, u) == expect
    with pytest.raises(DimensionMismatch):
        u * a  # a polynomial in the base variables, not the doubled ones


def test_tuple_types_compare_unequal():
    # a derivation, a module element and a smash element built on the same tuple
    from smashmod import ModuleElement

    comps = (doubled("x1*x2"),)
    assert Derivation((x,)) != ModuleElement((x,))
    assert ModuleElement((x,)) != Derivation((x,))
    assert SmashElement(1, comps) != ModuleElement(comps)
    assert SmashElement(1, comps) == from_term(x, x * d)
    assert x != "x1" and d != (one,)  # a value of another type is never equal


# -- identity verification ------------------------------------------------------------

def test_verify_lemma3_example():
    rep = verify_identity("lemma3-commutator",
                          {"f": x, "eta": d, "mu": x * d, "p": 1, "q": 1})
    assert rep.passed
    assert rep.witness is None
    assert rep.inputs["p"] == "1"


def test_verify_recurrence_example():
    # p = 0 is the lowest level the check accepts, and the suites never draw it
    for p in (0, 2):
        rep = verify_identity("lemma4.1-recurrence", {"f": x ** 2, "eta": d, "p": p})
        assert rep.passed, p


def test_verify_all_ids_on_fixed_instance():
    bound = {"f": parse_poly("x1^2 + 1", 1), "g": parse_poly("2*x1", 1),
             "h": parse_poly("x1 - 1", 1), "eta": x * d, "mu": d, "p": 2, "q": 1}
    for name in IDENTITY_IDS:
        assert verify_identity(name, bound).passed, name


def test_verify_corrupted_identity_fails_with_witness():
    # negative control: deliberately wrong right-hand side
    lhs = smash_bracket(omega(1, x, d), omega(1, x, x * d))
    rhs = omega(2, x, d.bracket(x * d))
    rhs = rhs - 1 * omega(1, x, (x * d).apply(x) * d)  # sign corrupted
    rhs = rhs - 1 * omega(1, x, d.apply(x) * (x * d))
    assert not (lhs - rhs).is_zero()


def test_verify_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("lemma9", {"f": x, "eta": d, "p": 1})


def test_verify_missing_binding():
    with pytest.raises(ValueError, match="missing binding"):
        verify_identity("lemma3-commutator", {"f": x, "eta": d, "p": 1, "q": 1})


def test_verify_bad_level():
    # every symbol any identity binds; each identity takes the ones it names
    symbols = {"f": x, "g": x, "h": one, "eta": d, "mu": d}
    for name, levels, message in [
        ("lemma3-commutator", {"p": 0, "q": 1},
         r"lemma3-commutator needs an integer p >= 1 \(got 0\)"),
        ("lemma2-commute-A", {"p": 0}, r"lemma2-commute-A needs an integer p >= 1 \(got 0\)"),
        ("lemma4-5", {"p": 0, "q": 0}, r"lemma4-5 needs p \+ q >= 1"),
        ("lemma5-deriv-bracket", {"p": 0},
         r"lemma5-deriv-bracket needs an integer p >= 1 \(got 0\)"),
        ("lemma4.1-recurrence", {"p": -1},
         r"lemma4.1-recurrence needs an integer p >= 0 \(got -1\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            verify_identity(name, symbols | levels)


def test_function_commutator_is_zero_on_annihilator_elements():
    f = parse_poly("x1^2 - x2", 2)
    g = parse_poly("x1*x2", 2)
    eta = parse_derivation("x1*d1 + d2", 2)
    for p in range(1, 4):
        assert function_commutator(omega(p, f, eta), g).is_zero()
    # but not for a bare embedding: [1#eta, g#1] = eta(g) # 1
    u = from_term(Poly.constant(2, 1), eta)
    assert function_commutator(u, g) == eta.apply(g)
