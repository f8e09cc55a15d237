"""Localized fractions, the series action, and the localized-action laws."""

import hashlib
import inspect
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from smashmod import (
    Derivation,
    LocalizedDerivation,
    LocalizedModule,
    LocalizedModuleElement,
    LocalizedPoly,
    ModuleElement,
    Poly,
    apply_localized_derivation,
    differential_forms,
    extend_base,
    jet_module,
    parse_derivation,
    parse_poly,
    tangent_adjoint,
    trivial_dmodule,
    verify_identity,
    verify_localized,
)
from smashmod.cli import main
from smashmod.localize import (
    LOCALIZED_CHECK_IDS,
    BaseMismatch,
    LocalizedOperator,
    _LAWS,
    _series_operator,
)
from smashmod.modules import AVModule, ValidationError
from smashmod.poly import DimensionMismatch
from smashmod.sampling import random_derivation, random_poly, seeded_rng
from smashmod.smash import IDENTITY_IDS, _IDENTITIES
from smashmod.suites import _localized_modules

from oracles import (
    act_by_tensor,
    lie_derivative_one_form,
    random_poly_or_zero,
    series_by_levels,
)
from test_poly import integer_rows, polys

x = Poly.variable(1, 1)
one = Poly.constant(1, 1)
d = Derivation.partial(1, 1)


# -- normal forms --------------------------------------------------------------------

def test_reduce_full_cancellation():
    forms = differential_forms(1)
    me = LocalizedModuleElement(x, forms, ModuleElement((x ** 2,)), 2).reduce()
    assert me.denom_exp == 0
    assert me.numerator == ModuleElement((one,))


def test_reduce_no_cancellation():
    lp = LocalizedPoly(x, parse_poly("x1 + 1", 1), 1).reduce()
    assert lp.denom_exp == 1 and lp.numerator == parse_poly("x1 + 1", 1)


def test_reduce_zero():
    lp = LocalizedPoly(x, Poly.zero(1), 3).reduce()
    assert lp.denom_exp == 0 and lp.is_zero()


def test_reduce_partial_cancellation():
    lp = LocalizedPoly(x, x ** 2 * parse_poly("x1 + 1", 1), 3).reduce()
    assert lp.denom_exp == 1
    assert lp.numerator == parse_poly("x1 + 1", 1)


def test_constant_base_fully_cancels():
    two = Poly.constant(1, 2)
    lp = LocalizedPoly(two, x, 2).reduce()
    assert lp.denom_exp == 0
    assert lp.numerator == parse_poly("1/4*x1", 1)


def test_equality_as_fractions():
    a = LocalizedPoly(x, x * parse_poly("x1 + 1", 1), 2)
    b = LocalizedPoly(x, parse_poly("x1 + 1", 1), 1)
    assert a == b  # their difference is zero; neither needs reducing first
    assert LocalizedPoly(x, one, 1) != LocalizedPoly(x, one, 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equality_is_equality_of_fractions(data):
    dim = data.draw(st.sampled_from((1, 2)), label="dim")
    f = data.draw(polys(dim, max_degree=2).filter(lambda p: not p.is_constant()), label="f")
    e = data.draw(st.integers(0, 2), label="e")
    k = data.draw(st.integers(0, 2), label="k")
    forms, adjoint = differential_forms(dim), tangent_adjoint(dim)
    entries = [data.draw(polys(dim, max_degree=2)) for _ in range(dim)]
    cases = [
        (LocalizedPoly, entries[0]),
        (LocalizedDerivation, Derivation(entries)),
        (lambda b, n, j: LocalizedModuleElement(b, forms, n, j), ModuleElement(entries)),
    ]
    other_base = f + Poly.constant(dim, 1)
    for make, n in cases:
        assert make(f, n * f ** e, k + e) == make(f, n, k)
        # another base or module gives False, not an error
        assert make(f, n, k) != make(other_base, n, k)
        if not n.is_zero():
            assert make(f, n, k) != make(f, n, k + 1)
    m = ModuleElement(entries)
    assert LocalizedModuleElement(f, forms, m, k) != LocalizedModuleElement(f, adjoint, m, k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equality_agrees_with_a_zero_difference(data):
    # == compares the numerators over the larger power of f; the difference,
    # which + reduces, is the oracle.  m f^j / f^(l+j) is m / f^l unreduced.
    dim = data.draw(st.sampled_from((1, 2)), label="dim")
    f = data.draw(polys(dim, max_degree=2).filter(lambda p: not p.is_constant()), label="f")
    l = data.draw(st.integers(0, 2), label="l")
    j = data.draw(st.integers(1, 2), label="j")
    forms = differential_forms(dim)
    n, other = ([data.draw(polys(dim, max_degree=2)) for _ in range(dim)] for _ in range(2))
    cases = [
        (LocalizedPoly, n[0], other[0]),
        (lambda b, m, e: LocalizedModuleElement(b, forms, m, e),
         ModuleElement(n), ModuleElement(other)),
    ]
    for make, m, m2 in cases:
        plain, unreduced = make(f, m, l), make(f, m * f ** j, l + j)
        values = [plain, unreduced, make(f, m2, l + j), make(f, m * f ** j + m2, l + j)]
        for a in values:
            for b in values:
                assert (a == b) == (a - b).is_zero()
                assert (a != b) == (not (a - b).is_zero())
        assert plain == unreduced and unreduced == plain


def test_text_forms():
    # only failure witnesses print these, so no golden report covers them
    f = parse_poly("x1^2 + 1", 2)
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    eta = parse_derivation("x1*d1 - 1/2*d2", 2)
    m = ModuleElement((x1, -x2))
    forms = differential_forms(2)
    assert str(LocalizedPoly(f, x1 - x2, 0)) == "x1 - x2"
    assert str(LocalizedPoly(f, x1 - x2, 2)) == "(x1 - x2) / (x1^2 + 1)^2"
    assert str(LocalizedDerivation(f, eta, 0)) == "x1*d1 - 1/2*d2"
    assert str(LocalizedDerivation(f, eta, 1)) == "(x1*d1 - 1/2*d2) / (x1^2 + 1)^1"
    assert str(LocalizedModuleElement(f, forms, m, 0)) == "(x1, -x2)"
    # the element prints its own parentheses; none are added around it
    assert str(LocalizedModuleElement(f, forms, m, 3)) == "(x1, -x2) / (x1^2 + 1)^3"
    # a value prints in normal form however it is represented
    assert str(LocalizedPoly(x, x ** 2 * (x + 1), 3)) == "(x1 + 1) / (x1)^1"
    assert repr(LocalizedPoly(f, x1 - x2, 2)) == "LocalizedPoly((x1 - x2) / (x1^2 + 1)^2)"
    assert repr(LocalizedModuleElement(f, forms, m, 0)) == "LocalizedModuleElement((x1, -x2))"
    assert LocalizedPoly(f, x1, 0) != x1  # a value of another type is never equal


def test_zero_base_rejected():
    with pytest.raises(ZeroDivisionError):
        LocalizedPoly(Poly.zero(1), x, 1)
    with pytest.raises(ZeroDivisionError):
        LocalizedModule(differential_forms(1), Poly.zero(1))


def test_reduce_stops_at_the_first_part_the_base_does_not_divide(monkeypatch):
    forms = differential_forms(2)
    f = parse_poly("x1 + x2", 2)
    me = LocalizedModuleElement(f, forms, ModuleElement((Poly.variable(2, 1), f)), 1)
    divided = []
    real = Poly.exact_divide
    monkeypatch.setattr(Poly, "exact_divide",
                        lambda self, divisor: divided.append(self) or real(self, divisor))
    assert me.reduce().denom_exp == 1
    assert divided == [Poly.variable(2, 1)]  # the second entry is never divided


def test_sum_rescales_only_the_numerator_below_the_common_exponent(monkeypatch):
    a, b, c = LocalizedPoly(x, one, 2), LocalizedPoly(x, x + one, 2), LocalizedPoly(x, one, 1)
    powers = []
    real = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda self, n: powers.append(n) or real(self, n))
    total = a + b
    assert powers == []
    assert (total.numerator, total.denom_exp) == (parse_poly("x1 + 2", 1), 2)
    assert (LocalizedPoly(x, Poly.zero(1), 0) + c).numerator == one
    assert powers == []  # nor for a zero numerator
    total = a + c
    assert powers == [1]
    assert (total.numerator, total.denom_exp) == (parse_poly("x1 + 1", 1), 2)


def test_base_mismatch_rejected():
    a = LocalizedPoly(x, one, 1)
    b = LocalizedPoly(x + one, one, 1)
    with pytest.raises(BaseMismatch):
        a + b


# -1 for the three value types is in test_public_constructors_keep_every_check
_NONNEGATIVE = r"denominator exponent must be a nonnegative integer \(got {got}\)"
_INTEGER_ROWS, _INTEGER_IDS = integer_rows(
    ("poly-exponent", lambda v: LocalizedPoly(x, one, v), ValueError, _NONNEGATIVE, None),
    ("derivation-exponent", lambda v: LocalizedDerivation(x, d, v), ValueError, _NONNEGATIVE,
     None),
    ("element-exponent", lambda v: LocalizedModuleElement(
        x, differential_forms(1), ModuleElement((x,)), v), ValueError, _NONNEGATIVE, None),
    ("context-derivation-exponent",
     lambda v: LocalizedModule(differential_forms(1), x).derivation(d, v), ValueError,
     _NONNEGATIVE, -1),
)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LocalizedPoly(x, one, 1) * LocalizedPoly(x + one, one, 1), BaseMismatch,
     "localized values have different bases"),
    (lambda: LocalizedModule(differential_forms(1), Poly.variable(2, 1)), DimensionMismatch,
     "base and module disagree on dim"),
    (lambda: extend_base(LocalizedPoly(x, one, 1), Poly.zero(1)), ZeroDivisionError,
     "base factor must be nonzero"),
    (lambda: LocalizedPoly(x, one, 1) + 1, TypeError, "unsupported operand"),
    (lambda: LocalizedPoly(x, one, 1) - 1, TypeError, "unsupported operand"),
] + _INTEGER_ROWS,
   ids=["product-over-two-bases", "base-of-another-dim", "extend-by-zero", "plus-int",
        "minus-int"] + _INTEGER_IDS)
def test_each_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_sum_refuses_elements_of_different_modules():
    f = parse_poly("x1 + x2", 2)
    forms, adjoint = differential_forms(2), tangent_adjoint(2)
    a = LocalizedModuleElement(f, forms, forms.basis_element(0), 1)
    b = LocalizedModuleElement(f, adjoint, adjoint.basis_element(1), 0)
    for combine in (lambda: a + b, lambda: a - b, lambda: b + a):
        with pytest.raises(BaseMismatch, match="different bases or modules"):
            combine()
    assert a != b
    # an element over an equal module, built again, adds
    twin = LocalizedModuleElement(f, differential_forms(2), forms.basis_element(0), 1)
    assert a + twin == a * 2 and (a - twin).is_zero()


# -- internal results skip the constructor checks --------------------------------------

def test_internal_results_keep_type_base_and_module():
    f, g, forms = parse_poly("x1 + 1", 1), parse_poly("x1 - 2", 1), differential_forms(1)
    scalar = LocalizedPoly(f, x, 1)
    for v in (LocalizedPoly(f, x * f, 2), LocalizedDerivation(f, Derivation((x * f,)), 1),
              LocalizedModuleElement(f, forms, ModuleElement((x * f,)), 1)):
        results = [v.reduce(), v + v, v - v, -v, v * 3, v * x, v * scalar, scalar * v]
        for r in results:
            assert type(r) is type(v) and r.base == f
        assert v + v == v * 2 and (v - v).is_zero() and (-v + v).is_zero()
        assert v * scalar == v * x * LocalizedPoly(f, one, 1)
        wider = extend_base(v, g)
        assert type(wider) is type(v) and wider.base == f * g
        if isinstance(v, LocalizedModuleElement):
            assert all(r.module is forms for r in results + [wider])


def test_public_constructors_keep_every_check():
    f, f2, forms = parse_poly("x1 + 1", 1), Poly.variable(2, 1), differential_forms(1)
    unvalidated = AVModule(1, 1, {(1, (1,)): ((one,),)}, name="raw")
    m = ModuleElement((x,))
    makers = [
        (LocalizedPoly, x),
        (LocalizedDerivation, d),
        (lambda b, n, k: LocalizedModuleElement(b, forms, n, k), m),
    ]
    for make, n in makers:
        with pytest.raises(ZeroDivisionError):
            make(Poly.zero(1), n, 1)
        with pytest.raises(DimensionMismatch):
            make(f2, n, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            make(f, n, -1)
    with pytest.raises(DimensionMismatch, match="module disagree"):
        LocalizedModuleElement(f2, forms, ModuleElement((f2,)), 0)
    with pytest.raises(DimensionMismatch, match="rank"):
        LocalizedModuleElement(f, forms, ModuleElement((x, x)), 0)
    with pytest.raises(ValidationError):
        LocalizedModuleElement(f, unvalidated, m, 0)


def test_only_the_public_constructor_checks_the_numerator(monkeypatch):
    f, forms = parse_poly("x1 + 1", 1), differential_forms(1)
    context = LocalizedModule(forms, f)
    op = context.operator(LocalizedDerivation(f, d, 1))
    checked = []
    real = LocalizedModuleElement._check_numerator
    monkeypatch.setattr(LocalizedModuleElement, "_check_numerator",
                        lambda self, base, num: checked.append(num) or real(self, base, num))
    me = context.include(ModuleElement((x,)))
    assert len(checked) == 1
    once = context.act(op, me)  # l = 0: the series alone
    twice = context.act(op, once)  # l = 2: the series plus the quotient-rule term
    assert (once.denom_exp, twice.denom_exp) == (2, 4)
    assert len(checked) == 1


# -- the localized action --------------------------------------------------------------

def _random_element(rng, module):
    return ModuleElement(random_poly_or_zero(rng, module.dim, 2)
                         for _ in range(module.rank))


def test_action_embeds_the_plain_action():
    forms = differential_forms(1)
    ctx = LocalizedModule(forms, x)
    dx = ctx.include(forms.basis_element(0))
    eta = parse_derivation("x1^2*d1", 1)
    got = ctx.act(ctx.derivation(eta, 0), dx)
    assert got == ctx.include(forms.act_derivation(eta, forms.basis_element(0)))
    assert got.denom_exp == 0
    # at k = 0 the action applies the operator of S # eta with S = 1, the
    # plain action goes through act_derivation; on m / f^l the quotient rule
    # adds -l eta(f) m / f^{l+1}
    for dim in (1, 2):
        rng = seeded_rng(59, "plain", dim)
        for mod in _localized_modules(dim):
            f = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
            eta = random_derivation(rng, dim, 2)
            ctx = LocalizedModule(mod, f)
            for m in mod.basis() + [_random_element(rng, mod)]:
                for l in range(3):
                    got = ctx.act(ctx.derivation(eta, 0), LocalizedModuleElement(f, mod, m, l))
                    plain = mod.act_derivation(eta, m) * f - m * (l * eta.apply(f))
                    assert got == LocalizedModuleElement(f, mod, plain, l + 1)
                    assert l or got.denom_exp == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_series_is_one_smash_element(dim):
    # the series applied as one element S # eta against one action per level
    rng = seeded_rng(53, "series", dim)
    for mod in _localized_modules(dim):
        f = random_poly(rng, dim, 2, nonconstant=True)
        eta = random_derivation(rng, dim, 2)
        m = _random_element(rng, mod)
        cases = [(f ** k, 1, None) for k in range(4)]
        cases += [(f, 2, lambda u: u + 1), (f, 3, lambda u: (u + 1) * (u + 2) // 2)]
        for g, j, weights in cases:
            pair, exp = _series_operator(mod, g, eta, j)
            assert exp == mod.order + j
            assert mod._apply(pair, m) == series_by_levels(mod, g, eta, m, weights), \
                (mod.name, str(g), j)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_operator_serves_every_vector_in_either_order(dim):
    # an operator built once, then applied to the vectors forwards and
    # backwards, against the level-by-level series plus the quotient rule
    rng = seeded_rng(67, "shared-operator", dim)
    for mod in _localized_modules(dim):
        f = random_poly(rng, dim, 2, nonconstant=True)
        eta = random_derivation(rng, dim, 2)
        ctx = LocalizedModule(mod, f)
        vectors = mod.basis() + [_random_element(rng, mod) for _ in range(2)]
        cases = [(i, l) for i in range(len(vectors)) for l in range(3)]
        for k in range(4):
            expected = {}
            for i, m in enumerate(vectors):
                series = series_by_levels(mod, f ** k, eta, m)
                for l in range(3):
                    expected[i, l] = (
                        LocalizedModuleElement(f, mod, series, k * (mod.order + 1) + l)
                        + LocalizedModuleElement(f, mod, m * (-l * eta.apply(f)), k + l + 1))
            op = ctx.operator(ctx.derivation(eta, k))
            for order in (cases, cases[::-1]):
                for i, l in order:
                    got = ctx.act(op, LocalizedModuleElement(f, mod, vectors[i], l))
                    assert got == expected[i, l], (mod.name, k, i, l)


@pytest.mark.parametrize("dim", [1, 2])
def test_the_series_and_its_reexpansion_in_f_agree(dim):
    # eta/f^k as the series in g = f^k and as the series in g = f with
    # j = k, both applied through act to m/f^l, the quotient-rule term included
    rng = seeded_rng(73, "reexpansion", dim)
    for mod in _localized_modules(dim):
        f = random_poly(rng, dim, 2, nonconstant=True)
        eta = random_derivation(rng, dim, 2)
        ctx = LocalizedModule(mod, f)
        vectors = mod.basis() + [_random_element(rng, mod)]
        for k in range(1, 4):
            in_f_k = ctx.operator(ctx.derivation(eta, k))
            pair, exp = _series_operator(mod, f, eta, k)
            in_f = LocalizedOperator(mod, f, k, pair, exp, eta.apply(f))
            for m in vectors:
                for l in range(3):
                    me = LocalizedModuleElement(f, mod, m, l)
                    assert ctx.act(in_f_k, me) == ctx.act(in_f, me), (mod.name, k, l)


def test_an_operator_is_a_value_whose_fields_cannot_be_set():
    # op.pair_exp = 0 would silently change every later act of op
    forms = differential_forms(1)
    ctx = LocalizedModule(forms, x + one)
    op = ctx.operator(ctx.derivation(x * d, 1))
    me = ctx.include(x * forms.basis_element(0))
    before = ctx.act(op, me)
    for field in ("module", "base", "denom_exp", "pair", "pair_exp", "eta_f"):
        with pytest.raises(AttributeError):
            setattr(op, field, 0)
    assert ctx.act(op, me) == before


def test_operator_and_act_refuse_another_base_or_module():
    forms, jets = differential_forms(1), jet_module(1, 1)
    ctx, other_base, other_module = (LocalizedModule(forms, x), LocalizedModule(forms, x + one),
                                     LocalizedModule(jets, x))
    me = ctx.include(forms.basis_element(0))
    op = ctx.operator(ctx.derivation(d, 1))
    context_msg = "operands do not belong to this localized context"
    with pytest.raises(BaseMismatch, match=context_msg):
        ctx.operator(other_base.derivation(d, 1))
    with pytest.raises(BaseMismatch, match=context_msg):
        ctx.act(other_base.derivation(d, 1), me)
    with pytest.raises(BaseMismatch, match=context_msg):
        ctx.act(other_base.operator(other_base.derivation(d, 1)), me)
    with pytest.raises(BaseMismatch, match=context_msg):
        ctx.act(op, other_base.include(forms.basis_element(0)))
    with pytest.raises(BaseMismatch, match="element does not belong to this module"):
        ctx.act(op, other_module.include(jets.basis_element(0)))
    with pytest.raises(BaseMismatch, match="operator does not belong to this module"):
        ctx.act(other_module.operator(other_module.derivation(d, 1)), me)


def test_action_inverse_derivative_witness():
    # (d/x)(dx) = -dx/x^2, matching the quotient-rule Lie derivative
    forms = differential_forms(1)
    ctx = LocalizedModule(forms, x)
    dx = ctx.include(forms.basis_element(0))
    got = ctx.act(ctx.derivation(d, 1), dx)
    assert got.denom_exp == 2
    assert got.numerator == ModuleElement((Poly.constant(1, -1),))
    oracle = lie_derivative_one_form(LocalizedPoly(x, one, 1), LocalizedPoly(x, one, 0))
    assert LocalizedPoly(x, got.numerator.entries[0], got.denom_exp) == oracle


def test_action_agrees_with_rational_lie_derivative():
    # forms on the line: compare the series against quotient-rule calculus
    forms = differential_forms(1)
    rng = seeded_rng(41, "lie-oracle")
    for base in (x, parse_poly("x1 + 1", 1), parse_poly("x1^2 + 1", 1)):
        ctx = LocalizedModule(forms, base)
        for _ in range(6):
            gnum = random_poly(rng, 1, 3)
            anum = random_poly(rng, 1, 3)
            k = rng.randint(0, 2)
            l = rng.randint(0, 2)
            got = ctx.act(ctx.derivation(gnum * d, k),
                          LocalizedModuleElement(base, forms, ModuleElement((anum,)), l))
            oracle = lie_derivative_one_form(LocalizedPoly(base, gnum, k),
                                             LocalizedPoly(base, anum, l))
            assert LocalizedPoly(base, got.numerator.entries[0], got.denom_exp) == oracle


def test_action_agrees_with_the_action_tensor_on_fractions():
    # the series cut at the module order against rho(g d_i) n = g d_i(n) +
    # sum_alpha d^alpha(g) D[i,alpha] n with g = eta_i/f^k, n = m/f^l
    for dim in (1, 2):
        rng = seeded_rng(79, "action-tensor", dim)
        for mod in _localized_modules(dim):
            vectors = mod.basis() + [Poly.variable(dim, 1) * b for b in mod.basis()]
            for _ in range(2):
                f = random_poly(rng, dim, 2, nonconstant=True)
                eta = random_derivation(rng, dim, 2)
                ctx = LocalizedModule(mod, f)
                for k in range(3):
                    op = ctx.operator(ctx.derivation(eta, k))
                    for m in vectors:
                        for l in range(3):
                            got = ctx.act(op, LocalizedModuleElement(f, mod, m, l))
                            assert got == act_by_tensor(mod, f, eta, k, m, l), (mod.name, k, l)


def test_action_does_not_depend_on_the_representative_of_the_element():
    # no action result is reduced, so act must give the same value on
    # m f^j / f^(l+j) as on m / f^l, and every result must equal and print
    # as its normal form
    for dim in (1, 2):
        rng = seeded_rng(61, "representative", dim)
        for mod in _localized_modules(dim):
            f = random_poly(rng, dim, 2, nonconstant=True)
            eta = random_derivation(rng, dim, 2)
            ctx = LocalizedModule(mod, f)
            for k in range(3):
                op = ctx.operator(ctx.derivation(eta, k))
                for m in mod.basis():
                    for l in range(3):
                        plain = ctx.act(op, LocalizedModuleElement(f, mod, m, l))
                        for j in (1, 2):
                            v = ctx.act(op, LocalizedModuleElement(f, mod, m * f ** j, l + j))
                            assert v == plain, (mod.name, k, l, j)
                            for r in (v, plain):
                                assert r == r.reduce() and str(r) == str(r.reduce())


def test_action_is_representation_independent():
    # (f eta / f) m = (eta / 1) m, fed through the series unreduced
    j = jet_module(1, 2)
    ctx = LocalizedModule(j, x)
    eta = parse_derivation("x1*d1", 1)
    for b in j.basis():
        me = ctx.include(b)
        lhs = ctx.act(LocalizedDerivation(x, x * eta, 1), me)
        rhs = ctx.act(LocalizedDerivation(x, eta, 0), me)
        assert lhs == rhs


def test_apply_localized_derivation():
    ed = LocalizedDerivation(x, d, 1)
    a = LocalizedPoly(x, one, 1)          # 1/x
    got = apply_localized_derivation(ed, a)
    # (d/x)(1/x) = -1/x^3
    assert got == LocalizedPoly(x, Poly.constant(1, -1), 3)
    # and on an integral scalar: (d/x)(x^2) = 2
    got2 = apply_localized_derivation(ed, LocalizedPoly(x, x ** 2, 0))
    assert got2 == LocalizedPoly(x, Poly.constant(1, 2), 0)


def test_extend_base():
    g = parse_poly("x1 + 1", 1)
    a = LocalizedPoly(x, x + one, 2)
    b = extend_base(a, g)
    assert b.base == x * g
    assert b.numerator == (x + one) * g ** 2 and b.denom_exp == 2


# -- the named checks ------------------------------------------------------------------

def test_bracket_check_spec_instance():
    rep = verify_localized("bracket", differential_forms(1), x,
                           {"eta": d, "mu": parse_derivation("x1^2*d1", 1)})
    assert rep.passed


def test_inverse_square_check_spec_instance():
    rep = verify_localized("inverse-square", jet_module(1, 2), parse_poly("x1 + 1", 1),
                           {"eta": d})
    assert rep.passed


def test_inverse_cube_check():
    rep = verify_localized("inverse-cube", jet_module(1, 2), parse_poly("x1 + 1", 1),
                           {"eta": parse_derivation("x1*d1", 1)})
    assert rep.passed


@pytest.mark.parametrize("name, k", [("inverse-square", 2), ("inverse-cube", 3)])
def test_each_inverse_law_acts_by_the_power_its_id_names(name, k):
    # the records echo eta and not k, so no report shows which power a law
    # builds: its first side on the basis is eta/f^k by the action tensor
    rng = seeded_rng(83, "inverse-power")
    for dim in (1, 2):
        for mod in _localized_modules(dim):
            f = random_poly(rng, dim, 2, nonconstant=True)
            eta = random_derivation(rng, dim, 2)
            ctx = LocalizedModule(mod, f)
            sides = _LAWS[name][0](ctx, f, eta)
            for m in mod.basis():
                assert sides(ctx.include(m))[0] == act_by_tensor(mod, f, eta, k, m, 0), mod.name


def test_restriction_trivial_instance():
    # equal representatives eta/1 = mu/1
    eta = parse_derivation("x1*d1", 1)
    rep = verify_localized("restriction", differential_forms(1), x,
                           {"eta": eta, "eta_exp": 0, "mu": eta, "mu_exp": 0,
                            "g": x + one})
    assert rep.passed


def test_restriction_nontrivial_instance():
    sigma = parse_derivation("x1*d1", 1)
    f, g = x, x + one
    rep = verify_localized("restriction", jet_module(1, 1), f,
                           {"eta": (f ** 2) * sigma, "eta_exp": 2,
                            "mu": g * sigma, "mu_exp": 1, "g": g})
    assert rep.passed


def test_restriction_rejects_unequal_representatives():
    with pytest.raises(ValueError, match="not equal"):
        verify_localized("restriction", differential_forms(1), x,
                         {"eta": d, "eta_exp": 1, "mu": d, "mu_exp": 0, "g": x + one})


def test_welldefined_needs_a_positive_power():
    with pytest.raises(ValueError, match=r"welldefined needs an integer j >= 1 \(got 0\)"):
        verify_localized("welldefined", differential_forms(1), x, {"eta": d, "j": 0})


def test_unknown_check_id():
    with pytest.raises(ValueError, match="unknown localized check"):
        verify_localized("gluing", differential_forms(1), x, {})


def test_check_ids_are_the_law_table_in_order():
    assert LOCALIZED_CHECK_IDS == tuple(_LAWS) == (
        "welldefined", "leibniz", "bracket", "inverse-square", "inverse-cube", "restriction")


def test_missing_binding_is_named():
    with pytest.raises(ValueError, match="missing binding 'a_num' for check 'leibniz'"):
        verify_localized("leibniz", differential_forms(1), x, {"eta": d})
    with pytest.raises(ValueError, match="missing binding 'g' for check 'restriction'"):
        verify_localized("restriction", differential_forms(1), x, {"eta": d, "mu": d})


def test_optional_bindings_take_their_defaults_and_are_not_echoed(monkeypatch):
    exps = []
    real = LocalizedModule.operator
    monkeypatch.setattr(LocalizedModule, "operator",
                        lambda self, ed: exps.append(ed.denom_exp) or real(self, ed))
    f, jets = parse_poly("x1 + 1", 1), jet_module(1, 2)
    eta = parse_derivation("x1*d1", 1)
    cases = [
        ("welldefined", {"eta": eta}, [1, 0]),  # j = 1
        ("leibniz", {"eta": eta, "a_num": x}, [1]),  # k = 1; a_exp = 1
        ("restriction", {"eta": eta, "mu": eta, "g": x}, [0, 0]),  # eta_exp = mu_exp = 0
    ]
    for name, inputs, built in cases:
        exps.clear()
        rep = verify_localized(name, jets, f, inputs)
        assert rep.passed and exps == built, name
        assert set(rep.inputs) == {"module", "f"} | set(inputs), name


def test_an_input_the_law_does_not_take_is_not_echoed():
    rep = verify_localized("bracket", differential_forms(1), x,
                           {"eta": d, "mu": x * d, "g": x + one, "j": 2})
    assert rep.passed
    assert rep.inputs == {"module": "forms(1)", "f": "x1", "eta": "d1", "mu": "x1*d1"}


def _binder_calls():
    """(id, check row, verify call, inputs) for every identity and localized
    check: symbols that make each law hold, and every integer binding one
    above its row's least value (lemma4-5 needs p + q >= 1)."""
    symbols = {"f": x, "g": x, "h": one, "eta": d, "mu": d}
    f, g, sigma = x + one, x, x * d  # eta/f = mu/g for eta = f*sigma, mu = g*sigma
    laws = {
        "welldefined": {"eta": sigma},
        "leibniz": {"eta": sigma, "a_num": x},
        "bracket": {"eta": d, "mu": sigma},
        "inverse-square": {"eta": sigma},
        "inverse-cube": {"eta": sigma},
        "restriction": {"eta": f * sigma, "mu": g * sigma, "g": g},
    }
    calls = [(name, _IDENTITIES[name], verify_identity, symbols) for name in IDENTITY_IDS]
    calls += [(name, _LAWS[name], lambda name, inputs: verify_localized(
        name, differential_forms(1), f, inputs), laws[name]) for name in LOCALIZED_CHECK_IDS]
    return [(name, row, verify, inputs | {p: row[2] + 1 for p in row[1]})
            for name, row, verify, inputs in calls]


# sha256 of the JSON list of the reports of _binder_calls, all passing; the
# code before the binder gave the same reports
BINDER_REPORTS_SHA256 = "8f2a7d245b24215e993106ad30215352d1ac6bfa31ddcbf066e62efee804ff87"


def test_the_binder_refuses_an_integer_binding_that_is_not_an_int_at_least_its_rows_least():
    # j = 1.9 was checked as 1 and echoed as "1.9", p = True passed
    # lemma3-commutator echoing "True", and p = 1.5 ended in a TypeError
    reports = []
    for name, (_, ints, least), verify, inputs in _binder_calls():
        for p in ints:
            for bad in (True, 1.5, "1", least - 1):
                message = re.escape(f"{name} needs an integer {p} >= {least} (got {bad!r})")
                with pytest.raises(ValueError, match=message):
                    verify(name, inputs | {p: bad})
        rep = verify(name, inputs)
        assert rep.passed and all(rep.inputs[p] == str(least + 1) for p in ints), name
        reports.append(rep.to_dict())
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BINDER_REPORTS_SHA256


def test_every_integer_binding_a_row_declares_is_a_parameter_of_its_check():
    # a misspelt name would leave the binding it meant unchecked
    for table in (_IDENTITIES, _LAWS):
        for name, (check, ints, least) in table.items():
            assert set(ints) <= set(inspect.signature(check).parameters), name
            assert type(least) is int, name


def test_zero_denominators_rejected():
    with pytest.raises(ZeroDivisionError):
        verify_localized("welldefined", differential_forms(1), Poly.zero(1), {"eta": d})
    with pytest.raises(ZeroDivisionError):
        verify_localized("restriction", differential_forms(1), x,
                         {"eta": d, "mu": d, "g": Poly.zero(1)})


def test_all_checks_across_small_zoo():
    rng = seeded_rng(43, "localized-all")
    for mod in (trivial_dmodule(1, 2), differential_forms(1), jet_module(1, 2),
                differential_forms(2), tangent_adjoint(2)):
        dim = mod.dim
        f = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
        g = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
        eta = random_derivation(rng, dim, 2)
        mu = random_derivation(rng, dim, 2)
        bindings = {
            "welldefined": {"eta": eta, "j": 2},
            "leibniz": {"eta": eta, "k": 1, "a_num": g, "a_exp": 1},
            "bracket": {"eta": eta, "mu": mu},
            "inverse-square": {"eta": eta},
            "inverse-cube": {"eta": eta},
            "restriction": {"eta": (f ** 2) * mu, "eta_exp": 2,
                            "mu": g * mu, "mu_exp": 1, "g": g},
        }
        for name, inputs in bindings.items():
            rep = verify_localized(name, mod, f, inputs)
            assert rep.passed, (mod.name, name, rep.witness)


# operators each law builds before its vector loop, and its act calls per vector
_LAW_COSTS = {
    "welldefined": (2, 2),
    "leibniz": (1, 2),
    "bracket": (5, 7),
    "inverse-square": (2, 2),  # eta / f^2 as the series in f^2 and in f
    "inverse-cube": (2, 2),
    "restriction": (2, 2),  # one per base
}


@pytest.mark.parametrize("dim", [1, 2])
def test_each_law_builds_its_operators_once(dim, monkeypatch):
    built, acted = [], []
    real_operator, real_act = AVModule._smash_operator, LocalizedModule.act
    monkeypatch.setattr(AVModule, "_smash_operator",
                        lambda self, u: built.append(u) or real_operator(self, u))
    monkeypatch.setattr(LocalizedModule, "act",
                        lambda self, op, me: acted.append(op) or real_act(self, op, me))
    rng = seeded_rng(71, "operator-count", dim)
    for mod in _localized_modules(dim):
        f = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
        g = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
        eta = random_derivation(rng, dim, 2)
        mu = random_derivation(rng, dim, 2)
        bindings = {
            "welldefined": {"eta": eta, "j": 2},
            "leibniz": {"eta": eta, "k": 1, "a_num": g, "a_exp": 1},
            "bracket": {"eta": eta, "mu": mu},
            "inverse-square": {"eta": eta},
            "inverse-cube": {"eta": eta},
            "restriction": {"eta": (f ** 2) * mu, "eta_exp": 2,
                            "mu": g * mu, "mu_exp": 1, "g": g},
        }
        vectors = mod.rank * (1 + dim)
        for name, inputs in bindings.items():
            built.clear()
            acted.clear()
            assert verify_localized(name, mod, f, inputs).passed
            operators, acts_per_vector = _LAW_COSTS[name]
            assert len(built) == operators, (mod.name, name)
            assert len(acted) == acts_per_vector * vectors, (mod.name, name)


def test_double_localization_consistency():
    # act over base f, then pass to base f*g: same as acting there directly
    j = jet_module(1, 1)
    rng = seeded_rng(47, "double")
    for _ in range(6):
        f = random_poly(rng, 1, 2, nonconstant=True, rational_share=0.0)
        g = random_poly(rng, 1, 2, nonconstant=True, rational_share=0.0)
        eta = random_derivation(rng, 1, 2)
        a = rng.randint(0, 2)
        ctx_f = LocalizedModule(j, f)
        ctx_fg = LocalizedModule(j, f * g)
        for b in j.basis():
            via_f = extend_base(ctx_f.act(LocalizedDerivation(f, eta, a),
                                          ctx_f.include(b)), g)
            direct = ctx_fg.act(LocalizedDerivation(f * g, (g ** a) * eta, a),
                                ctx_fg.include(b))
            assert via_f == direct
    # and the two orders of localization agree through the shared base
    for _ in range(4):
        f = random_poly(rng, 1, 2, nonconstant=True, rational_share=0.0)
        g = random_poly(rng, 1, 2, nonconstant=True, rational_share=0.0)
        eta = random_derivation(rng, 1, 2)
        ctx_f = LocalizedModule(j, f)
        ctx_g = LocalizedModule(j, g)
        for b in j.basis():
            lhs = extend_base(ctx_f.act(LocalizedDerivation(f, f * eta, 1),
                                        ctx_f.include(b)), g)
            rhs = extend_base(ctx_g.act(LocalizedDerivation(g, g * eta, 1),
                                        ctx_g.include(b)), f)
            assert lhs == rhs


# The report of verify --suite localized --dims 1,2 --trials 6 --seed 7 with a planted
# fault: LocalizedOperator doubles eta(f) when denom_exp > 0, so the quotient-rule
# term is wrong and the action depends on the representative m / f^l.  No sum,
# product or action is reduced, so the bracket and leibniz laws feed non-normal
# representatives into act and catch the fault on 17 checks, where feeding only
# normal forms caught it on 15.  Passing reports print no action result; the
# failure witnesses print differences in normal form, which this hash pins.
MUTANT_REPORT_SHA256 = "8c23cac46c8fed15f1a4dcf119087c1dac2cf4d73ac0bb40a4222a10ce53e27f"


def test_failing_localized_report_is_pinned(monkeypatch, capsys):
    real = LocalizedOperator.__new__

    def doubled(cls, module, base, denom_exp, pair, pair_exp, eta_f):
        return real(cls, module, base, denom_exp, pair, pair_exp,
                    eta_f * 2 if denom_exp > 0 else eta_f)

    monkeypatch.setattr(LocalizedOperator, "__new__", doubled)
    code = main(["verify", "--suite", "localized", "--dims", "1,2", "--trials", "6",
                 "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count('"status": "fail"') == 17
    assert hashlib.sha256(out.encode()).hexdigest() == MUTANT_REPORT_SHA256
