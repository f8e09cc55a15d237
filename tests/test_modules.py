"""Module actions, validation, annihilation, orders, functors, the zoo."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from smashmod import (
    AVModule,
    LOCALIZED_CHECK_IDS,
    Derivation,
    DimensionMismatch,
    LocalizedModule,
    LocalizedModuleElement,
    ModuleElement,
    ModuleSchemaError,
    Poly,
    SmashElement,
    ValidationError,
    differential_forms,
    dual_module,
    exterior_power,
    from_term,
    jet_module,
    min_annihilating_order,
    module_from_dict,
    module_to_dict,
    multi_indices,
    omega,
    oracle_order,
    parse_derivation,
    parse_poly,
    smash_bracket,
    tangent_adjoint,
    tensor_act,
    tensor_product,
    trivial_dmodule,
    twist,
    verify_localized,
    zoo,
)
from smashmod.sampling import random_derivation, random_poly, seeded_rng

from oracles import (
    act_by_tensor,
    act_smash_by_terms,
    annihilates_by_sampling,
    gauge,
    jet_tensor_by_prolongation,
    mat_apply,
    random_poly_or_zero,
    random_unipotent,
    spanning_vectors,
    validate_by_sampling,
    wedge,
)
from test_acceptance import small_zoo
from test_poly import polys

x = Poly.variable(1, 1)
one = Poly.constant(1, 1)
d = Derivation.partial(1, 1)


# -- zoo construction ----------------------------------------------------------------

def test_forms_one_dimensional_tensor():
    m = differential_forms(1)
    assert m.rank == 1 and m.order == 1
    assert m.tensor == {(1, (1,)): ((one,),)}


def test_jet_tensor_matches_spec_example():
    j = jet_module(1, 2)
    assert j.rank == 3 and j.order == 2
    g = parse_poly("x1^4", 1)  # generic enough: g' = 4x^3, g'' = 12x^2
    e0, e1, e2 = j.basis()
    assert j.act_derivation(g * d, e0).is_zero()
    got1 = j.act_derivation(g * d, e1)
    assert got1 == g.partial_derivative(1) * e1 + parse_poly("12*x1^2", 1) * e2
    got2 = j.act_derivation(g * d, e2)
    assert got2 == 2 * g.partial_derivative(1) * e2


@pytest.mark.parametrize("dim,n", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_jet_tensor_against_prolongation_oracle(dim, n):
    assert jet_module(dim, n).tensor == jet_tensor_by_prolongation(dim, n)


@pytest.mark.parametrize("dim,n", [(1, 2), (2, 1)])
def test_jet_prolongation_property(dim, n):
    # rho(g d_i)(jet of h) = jet of (g * d_i h)
    from smashmod import multi_indices, partial_power

    j = jet_module(dim, n)
    rng = seeded_rng(5, "jets", dim, n)
    betas = multi_indices(dim, n)

    def jet_of(h):
        return ModuleElement(tuple(partial_power(h, b) for b in betas))

    for _ in range(8):
        g = random_poly(rng, dim, 3)
        h = random_poly(rng, dim, 4)
        for i in range(1, dim + 1):
            eta = Derivation(tuple(g if t == i - 1 else Poly.zero(dim) for t in range(dim)))
            assert j.act_derivation(eta, jet_of(h)) == jet_of(g * h.partial_derivative(i))


def test_zoo_dispatch_and_aliases():
    assert zoo("forms", dim=2) == differential_forms(2)
    assert zoo("jets", dim=1, n=2) == jet_module(1, 2)
    assert zoo("dmodule", dim=1, rank=3) == trivial_dmodule(1, 3)
    assert zoo("twist", lam="1/2") == twist(Fraction(1, 2))
    with pytest.raises(ValueError, match="unknown zoo"):
        zoo("nonsense")
    with pytest.raises(ValueError):
        zoo("jets", dim=1, n=-1)
    with pytest.raises(ValueError):
        zoo("dmodule", dim=0)
    with pytest.raises(ValueError, match="unexpected"):
        zoo("forms", dim=1, n=2)
    with pytest.raises(ValueError, match="unexpected"):  # refused before forms(0) is built
        zoo("forms", dim=0, rank=3)
    with pytest.raises(ValueError, match="dim must be 1"):
        zoo("twist", dim=2, lam=1)


@pytest.mark.parametrize("names, params, direct", [
    (("dmodule", "trivial_dmodule"), {"dim": 2, "rank": 3}, lambda: trivial_dmodule(2, 3)),
    (("dmodule", "trivial_dmodule"), {}, lambda: trivial_dmodule(1, 1)),
    (("forms", "differential_forms"), {"dim": 2}, lambda: differential_forms(2)),
    (("adjoint", "tangent_adjoint"), {}, lambda: tangent_adjoint(1)),
    (("jets", "jet_module"), {"dim": 2, "n": 1}, lambda: jet_module(2, 1)),
    (("jets", "jet_module"), {"dim": 1}, lambda: jet_module(1, 0)),
    (("twist",), {"lam": "-3/2"}, lambda: twist(Fraction(-3, 2))),
    (("twist",), {"dim": 1}, lambda: twist(Fraction(0))),
], ids=["dmodule", "dmodule-defaults", "forms", "adjoint", "jets", "jets-default-n",
        "twist", "twist-default"])
def test_zoo_names_return_the_builders_modules(names, params, direct):
    # the short name and the builder's own name build the builder's module;
    # zoo passes every parameter, and twist takes its weight as a Fraction
    for name in names:
        assert zoo(name, **params) == direct(), name
    with pytest.raises(ValueError, match=f"unexpected parameters for {names[-1]!r}"):
        zoo(names[-1], **params, degree=2)


@pytest.mark.parametrize("call, same", [
    (lambda: differential_forms(), lambda: differential_forms(1)),
    (lambda: tangent_adjoint(dim=1), lambda: tangent_adjoint(1)),
    (lambda: jet_module(1), lambda: jet_module(1, 0)),
    (lambda: jet_module(n=1), lambda: jet_module(1, n=1)),
    (lambda: trivial_dmodule(2), lambda: trivial_dmodule(2, 1)),
    (lambda: twist(), lambda: twist(0)),
    (lambda: twist(1), lambda: twist(Fraction(1))),
    (lambda: twist("-1/2"), lambda: twist(lam=Fraction(-1, 2))),
], ids=["forms", "adjoint", "jets", "jets-keyword", "dmodule", "twist-default", "twist",
        "twist-text"])
def test_each_zoo_module_builds_one_module_whatever_the_call(call, same):
    # the module a call names does not depend on the call's form
    assert call() == same()


@pytest.mark.parametrize("call", [
    lambda: differential_forms(1, 2),  # too many arguments
    lambda: jet_module(m=1),  # an unknown parameter
    lambda: jet_module(1, dim=1),  # dim given twice
], ids=["too-many", "unknown", "twice"])
def test_a_zoo_call_python_refuses_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_a_default_call_and_an_explicit_one_share_a_localized_module():
    # localized values compare modules with ==
    f, m = parse_poly("x1 + 1", 1), ModuleElement((parse_poly("x1", 1),))
    context = LocalizedModule(differential_forms(), f)
    me = LocalizedModuleElement(f, differential_forms(1), m, 0)
    got = context.act(context.derivation(Derivation.partial(1, 1), 1), me)
    assert got == LocalizedModuleElement(f, differential_forms(), got.numerator, got.denom_exp)
    assert me == context.include(m)


@pytest.mark.parametrize("build, again", [
    (lambda: tensor_product(differential_forms(2), tangent_adjoint(2)),
     lambda: tensor_product(differential_forms(2), tangent_adjoint(2))),
    (lambda: module_from_dict(module_to_dict(differential_forms(2))),
     lambda: differential_forms(2)),
], ids=["functor", "file"])
def test_equal_modules_built_twice_share_a_localized_space(build, again):
    module, twin = build(), again()
    assert module is not twin and module == twin
    f = parse_poly("x1 * x2 + 1", 2)
    here, there = LocalizedModule(module, f), LocalizedModule(twin, f)
    ed = here.derivation(Derivation((parse_poly("x2", 2), parse_poly("x1 + 1", 2))), 1)
    for m in module.basis():
        # an operator and an element over one module act in the other's space
        got = there.act(here.operator(ed), LocalizedModuleElement(f, module, m, 1))
        assert got == here.act(ed, LocalizedModuleElement(f, twin, m, 1))


def test_twist_family_points():
    assert twist(0) == trivial_dmodule(1, 1)
    assert twist(1) == differential_forms(1)
    assert twist(-1) == tangent_adjoint(1)
    half = twist(Fraction(1, 2))
    assert half.validated and half.order == 1


# -- actions -------------------------------------------------------------------------

def test_act_derivation_forms_is_lie_derivative():
    m = differential_forms(1)
    dx = m.basis_element(0)
    assert m.act_derivation(x * d, dx) == dx  # L_{x d}(dx) = dx
    g, a = parse_poly("x1^2", 1), parse_poly("x1^3 - 2", 1)
    got = m.act_derivation(g * d, a * dx)
    expect = (g * a.partial_derivative(1) + a * g.partial_derivative(1)) * dx
    assert got == expect


def test_act_derivation_adjoint_is_bracket():
    m = tangent_adjoint(1)
    g, h = parse_poly("x1^2", 1), parse_poly("x1 + 1", 1)
    got = m.act_derivation(g * d, ModuleElement((h,)))
    expect = ModuleElement(((g * h.partial_derivative(1) - h * g.partial_derivative(1)),))
    assert got == expect


def test_act_zero_derivation():
    m = jet_module(1, 2)
    v = ModuleElement((x, x ** 2, one))
    assert m.act_derivation(Derivation.zero(1), v).is_zero()


def test_elements_of_different_rank_do_not_combine():
    a, b = ModuleElement((x, x)), ModuleElement((x,))
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a - b
    with pytest.raises(DimensionMismatch):
        b - a


def test_act_smash_forms_examples():
    m = differential_forms(1)
    dx = m.basis_element(0)
    assert m.act_smash(omega(1, x, d), dx) == -dx
    assert m.act_smash(omega(2, x, d), dx).is_zero()


def test_act_smash_adjoint_level_two_vanishes():
    for dim in (1, 2):
        m = tangent_adjoint(dim)
        rng = seeded_rng(11, "adjoint", dim)
        for _ in range(5):
            f = random_poly(rng, dim, 3)
            eta = random_derivation(rng, dim, 2)
            w = omega(2, f, eta)
            for b in m.basis():
                assert m.act_smash(w, b).is_zero()


def test_act_smash_matches_term_expansion():
    for mod in (differential_forms(2), jet_module(1, 2), tangent_adjoint(1)):
        rng = seeded_rng(13, "actsmash", mod.name)
        for _ in range(6):
            u = omega(rng.randint(0, 2), random_poly(rng, mod.dim, 2),
                      random_derivation(rng, mod.dim, 2))
            v = ModuleElement(tuple(random_poly_or_zero(rng, mod.dim, 2)
                                    for _ in range(mod.rank)))
            assert mod.act_smash(u, v) == act_smash_by_terms(mod, u, v)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(small_zoo()), st.data())
def test_a_function_of_x_scales_the_action(mod, data):
    # the localized series sums its levels into one element on this fact
    d = mod.dim
    a = data.draw(polys(d, 2, 3))
    u = SmashElement(d, [data.draw(polys(2 * d, 2, 3)) for _ in range(d)])
    m = ModuleElement([data.draw(polys(d, 2, 2)) for _ in range(mod.rank)])
    assert mod.act_smash(tensor_act(a, Poly.constant(d, 1), u), m) == a * mod.act_smash(u, m)


def test_representation_property():
    mod = jet_module(1, 1)
    rng = seeded_rng(17, "rep")
    for _ in range(12):
        u = omega(rng.randint(0, 2), random_poly(rng, 1, 2), random_derivation(rng, 1, 2))
        v = omega(rng.randint(0, 2), random_poly(rng, 1, 2), random_derivation(rng, 1, 2))
        m = ModuleElement((random_poly(rng, 1, 2), random_poly(rng, 1, 2)))
        lhs = mod.act_smash(smash_bracket(u, v), m)
        rhs = mod.act_smash(u, mod.act_smash(v, m)) - mod.act_smash(v, mod.act_smash(u, m))
        assert lhs == rhs


def test_omega_action_commutes_with_multiplication():
    # the annihilator elements act A-linearly on every module
    mod = jet_module(1, 2)
    rng = seeded_rng(19, "lemma2")
    for _ in range(8):
        f = random_poly(rng, 1, 3)
        eta = random_derivation(rng, 1, 2)
        g = random_poly(rng, 1, 3)
        p = rng.randint(1, 3)
        w = omega(p, f, eta)
        m = ModuleElement(tuple(random_poly(rng, 1, 2) for _ in range(3)))
        assert mod.act_smash(w, g * m) == g * mod.act_smash(w, m)


# -- validation ----------------------------------------------------------------------

def test_validate_trivial_and_jets():
    assert trivial_dmodule(2, 2).validated
    assert jet_module(1, 2).validated


def _tampered() -> AVModule:
    # a non-flat, incompatible single entry in dim 2
    return AVModule(2, 2, {(1, (1, 0)): (
        (Poly.variable(2, 1), Poly.zero(2)),
        (Poly.zero(2), Poly.zero(2)),
    )}, name="tampered")


def _corrupted(module: AVModule) -> AVModule:
    """The module with x2^2 added to entry [0][-1] of its first tensor key."""
    tensor = dict(module.tensor)
    key = sorted(tensor)[0]
    rows = [list(row) for row in tensor[key]]
    rows[0][-1] = rows[0][-1] + parse_poly("x2^2", module.dim)
    tensor[key] = tuple(tuple(row) for row in rows)
    return AVModule(module.dim, module.rank, tensor, name=module.name)


def test_validate_detects_tampered_tensor():
    bad = _tampered()
    report = bad.validate()
    assert report.status == "fail"
    assert report.witness is not None and "defect" in report.witness
    assert not bad.validated


@pytest.mark.parametrize("build, inputs, witness", [
    (_tampered,
     {"module": "tampered", "dim": "2", "rank": "2", "order": "1"},
     {"i": "1", "j": "1", "beta": "(0, 0)", "gamma": "(1, 0)", "entry": "(0, 0)",
      "defect": "1"}),
    (lambda: _corrupted(jet_module(2, 1)),
     {"module": "jets(2,1)", "dim": "2", "rank": "3", "order": "1"},
     {"i": "1", "j": "1", "beta": "(0, 1)", "gamma": "(1, 0)", "entry": "(0, 2)",
      "defect": "-x2^2"}),
    (lambda: _corrupted(differential_forms(2)),
     {"module": "forms(2)", "dim": "2", "rank": "2", "order": "1"},
     {"i": "1", "j": "1", "beta": "(0, 1)", "gamma": "(1, 0)", "entry": "(0, 1)",
      "defect": "-2*x2^2"}),
], ids=["tampered", "jets", "forms"])
def test_failing_validation_witnesses(build, inputs, witness):
    # no golden report hash covers a failed validation: pin the first witness,
    # the first nonzero entry of a structure matrix C_ij[beta, gamma]
    assert build().validate().to_dict() == {
        "identity": "module-bracket-compatibility", "inputs": inputs,
        "status": "fail", "witness": witness}


def test_sampling_validator_witnesses():
    # the sampler's first (i, j, g, h, vector) witnesses, pinned exactly
    witnesses = [validate_by_sampling(build()).witness for build in (
        _tampered, lambda: _corrupted(jet_module(2, 1)),
        lambda: _corrupted(differential_forms(2)))]
    assert witnesses == [
        {"defect": "(1, 0)", "g": "1", "h": "x1", "i": "1", "j": "1", "vector": "(1, 0)"},
        {"defect": "(-x2^2, 0, 0)", "g": "x2", "h": "x1", "i": "1", "j": "1",
         "vector": "(0, 0, 1)"},
        {"defect": "(-2*x2^2, 0)", "g": "x2", "h": "x1", "i": "1", "j": "1",
         "vector": "(0, 1)"},
    ]


# -- validation against the sampling oracle ------------------------------------------

def _verdicts(module: AVModule) -> tuple[bool, bool]:
    """(library, oracle) pass/fail of one module."""
    return module.validate().passed, validate_by_sampling(module).passed


def _rank_one_order_zero(*entries: str) -> AVModule:
    """The rank-one module on the plane with D[i,0] = entries[i-1]."""
    return AVModule(2, 1, {(i, (0, 0)): ((parse_poly(t, 2),),)
                           for i, t in enumerate(entries, start=1)}, name="order0")


def test_validate_agrees_with_the_sampling_oracle_on_the_zoo():
    for module in small_zoo():
        assert _verdicts(module) == (True, True), module.name


@pytest.mark.parametrize("build, passes", [
    (lambda: exterior_power(jet_module(1, 2), 2), True),
    (lambda: exterior_power(jet_module(2, 1), 2), True),
    (lambda: exterior_power(differential_forms(2), 2), True),
    (lambda: tensor_product(twist(Fraction(1, 2)), jet_module(1, 1)), True),
    (lambda: tensor_product(differential_forms(1), dual_module(jet_module(1, 2))), True),
    (lambda: dual_module(jet_module(1, 2)), True),
    (lambda: dual_module(jet_module(2, 1)), True),
    (lambda: module_from_dict(module_to_dict(jet_module(2, 1))), True),
    (lambda: module_from_dict(module_to_dict(twist(Fraction(-3, 2)))), True),
    # a flat connection D[i,0] = d_i(x1^2*x2 + x2^3), and one with curl -2
    (lambda: _rank_one_order_zero("2*x1*x2", "x1^2 + 3*x2^2"), True),
    (lambda: _rank_one_order_zero("x2", "-x1"), False),
    (_tampered, False),
    (lambda: _corrupted(jet_module(2, 1)), False),
    (lambda: _corrupted(differential_forms(2)), False),
], ids=["wedge-jets1", "wedge-jets2", "wedge-forms", "twist-x-jets", "forms-x-dual",
        "dual-jets1", "dual-jets2", "file-jets", "file-twist", "order0-flat", "order0-curl",
        "tampered", "corrupted-jets", "corrupted-forms"])
def test_validate_agrees_with_the_sampling_oracle(build, passes):
    assert _verdicts(build()) == (passes, passes)


_CORRUPTIBLE = {
    "forms(2)": lambda: differential_forms(2),
    "adjoint(2)": lambda: tangent_adjoint(2),
    "jets(1,2)": lambda: jet_module(1, 2),
    "jets(2,1)": lambda: jet_module(2, 1),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_validate_agrees_with_the_sampling_oracle_on_perturbed_tensors(data):
    # add a small polynomial to one entry of D[i,alpha], |alpha| <= order;
    # the module's order follows the perturbed tensor
    module = _CORRUPTIBLE[data.draw(st.sampled_from(sorted(_CORRUPTIBLE)))]()
    d, r = module.dim, module.rank
    key = data.draw(st.sampled_from(
        [(i, a) for i in range(1, d + 1) for a in multi_indices(d, module.order)]))
    row, col = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * d),
                                      st.sampled_from((-2, -1, 1, 2)), min_size=1, max_size=2))
    tensor = dict(module.tensor)
    rows = [list(line) for line in tensor.get(key, ((Poly.zero(d),) * r,) * r)]
    rows[row][col] = rows[row][col] + Poly(d, terms)
    tensor[key] = tuple(map(tuple, rows))
    order = max((sum(alpha) for (_, alpha), mat in tensor.items()
                 if any(p.terms for line in mat for p in line)), default=0)
    perturbed = AVModule(d, r, tensor, name=module.name)
    assert perturbed.order == order
    library, oracle = _verdicts(perturbed)
    event("pass" if oracle else "fail")
    assert library == oracle
def test_unvalidated_module_refuses_to_act():
    raw = AVModule(1, 1, {(1, (1,)): ((one,),)}, name="raw")
    with pytest.raises(ValidationError):
        raw.act_derivation(d, ModuleElement((one,)))
    with pytest.raises(ValidationError):
        raw.annihilates(omega(1, x, d))
    assert raw.validate().passed
    raw.act_derivation(d, ModuleElement((one,)))  # fine now


def test_schema_errors():
    with pytest.raises(ModuleSchemaError):
        AVModule(1, -1, {})  # negative rank
    with pytest.raises(ModuleSchemaError):
        AVModule(1, 2, {(1, (1,)): ((one,),)})  # wrong matrix shape
    with pytest.raises(ModuleSchemaError):
        AVModule(2, 1, {(3, (1, 0)): ((parse_poly("x1", 2),),)})  # bad direction


# -- gauge-equivalent modules --------------------------------------------------------

# dmodule(2,3) has an empty tensor: its gauged copy has D'[i,0] = U^-1 d_i(U) alone
_GAUGED = pytest.mark.parametrize("build", [
    lambda: jet_module(1, 2),
    lambda: differential_forms(2),
    lambda: tangent_adjoint(2),
    lambda: jet_module(2, 1),
    lambda: tensor_product(differential_forms(2), tangent_adjoint(2)),
    lambda: trivial_dmodule(2, 3),
], ids=["jets(1,2)", "forms(2)", "adjoint(2)", "jets(2,1)", "forms(2)xadjoint(2)",
        "dmodule(2,3)"])


@_GAUGED
def test_gauge_equivalent_module_keeps_every_invariant(build):
    # every zoo tensor is constant, so validate's d_i D[j,alpha] term is zero on
    # them; a gauged module has polynomial entries and a nonzero D'[i,0]
    module = build()
    rng = seeded_rng(5, "gauge", module.name)
    # degree 1: a degree-2 U doubles validate_by_sampling's time on the rank-4 module
    u = random_unipotent(rng, module.dim, module.rank, 1)
    gauged = gauge(module, u)
    assert _verdicts(gauged) == (True, True)
    assert gauged.lie_map_order() == module.lie_map_order()
    n_max = module.rank ** 2
    assert oracle_order(gauged, n_max) == oracle_order(module, n_max)
    eta = random_derivation(rng, module.dim, 2)
    for m in spanning_vectors(gauged):  # U rho'(eta) m == rho(eta) (U m)
        assert mat_apply(u, gauged.act_derivation(eta, m)) == module.act_derivation(
            eta, mat_apply(u, m))
    f = random_poly(rng, module.dim, 2, nonconstant=True)
    assert min_annihilating_order(gauged, f, eta) == min_annihilating_order(module, f, eta)
    # without a tensor, dropping U^-1 d_i(U) leaves the plain action, a valid module
    valid = not module.tensor
    assert _verdicts(gauge(module, u, connection=False)) == (valid, valid)


@_GAUGED
def test_gauge_equivalent_module_keeps_the_smash_action_and_the_localized_laws(build):
    # a gauged module is built outside the zoo, with polynomial entries
    module = build()
    dim = module.dim
    rng = seeded_rng(5, "gauge-localized", module.name)
    u = random_unipotent(rng, dim, module.rank, 1)
    gauged = gauge(module, u)
    assert gauged.validate().passed
    f = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
    s = omega(2, f, random_derivation(rng, dim, 2))
    for m in spanning_vectors(gauged):  # U (s m) == s (U m)
        assert mat_apply(u, gauged.act_smash(s, m)) == module.act_smash(s, mat_apply(u, m))
    # bindings shaped like those of suites._check_localized
    g = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
    eta, mu = random_derivation(rng, dim, 2), random_derivation(rng, dim, 2)
    bindings = {
        "welldefined": {"eta": eta, "j": 2},
        "leibniz": {"eta": eta, "k": 2, "a_num": g, "a_exp": 1},
        "bracket": {"eta": eta, "mu": mu},
        "inverse-square": {"eta": eta},
        "inverse-cube": {"eta": eta},
        "restriction": {"eta": (f ** 2) * mu, "eta_exp": 2, "mu": g * mu, "mu_exp": 1, "g": g},
    }
    for name in LOCALIZED_CHECK_IDS:
        assert verify_localized(name, gauged, f, bindings[name]).passed, name
    # the series against the action tensor on fractions, with polynomial entries
    ctx = LocalizedModule(gauged, f)
    vectors = gauged.basis() + [Poly.variable(dim, 1) * b for b in gauged.basis()]
    for k in range(3):
        op = ctx.operator(ctx.derivation(eta, k))
        for m in vectors:
            for l in range(3):
                got = ctx.act(op, LocalizedModuleElement(f, gauged, m, l))
                assert got == act_by_tensor(gauged, f, eta, k, m, l), (k, l)


# -- annihilation --------------------------------------------------------------------

def test_annihilates_examples():
    m = differential_forms(1)
    rng = seeded_rng(23, "ann")
    for _ in range(6):
        f = random_poly(rng, 1, 3)
        eta = random_derivation(rng, 1, 3)
        assert m.annihilates(omega(2, f, eta))
    assert not m.annihilates(omega(1, x, d))
    assert m.annihilates(omega(17, x, d))  # well beyond the order
    from smashmod import SmashElement
    assert m.annihilates(SmashElement.zero(1))


def test_annihilates_agrees_with_sampling_oracle():
    for mod in (differential_forms(1), jet_module(1, 2), tangent_adjoint(2)):
        rng = seeded_rng(29, "annorc", mod.name)
        for _ in range(6):
            u = omega(rng.randint(1, 3), random_poly(rng, mod.dim, 2),
                      random_derivation(rng, mod.dim, 2))
            assert mod.annihilates(u) == annihilates_by_sampling(mod, u)


def test_min_annihilating_order_examples():
    assert min_annihilating_order(differential_forms(1), x, d) == 2
    rng = seeded_rng(31, "trivial")
    triv = trivial_dmodule(2, 2)
    for _ in range(4):
        f = random_poly(rng, 2, 3)
        eta = random_derivation(rng, 2, 2)
        assert min_annihilating_order(triv, f, eta) == 1
    assert min_annihilating_order(jet_module(1, 2), x, d) == 3
    # constant localizing polynomial
    assert min_annihilating_order(differential_forms(1), Poly.constant(1, 3), d) == 1


def test_min_annihilating_order_brute_force_cross_check():
    j = jet_module(1, 2)
    # independent route: apply each level to a spanning family by term expansion
    fails = [q for q in range(1, j.order + 1)
             if not annihilates_by_sampling(j, omega(q, x, d))]
    assert fails == [1, 2]
    assert min_annihilating_order(j, x, d) == max(fails) + 1


# -- orders --------------------------------------------------------------------------

def test_lie_map_order_values():
    assert trivial_dmodule(1, 2).lie_map_order() == 0
    assert differential_forms(2).lie_map_order() == 1
    assert jet_module(1, 2).lie_map_order() == 2


def test_oracle_order_values():
    assert oracle_order(trivial_dmodule(1, 1), 2) == 0
    assert oracle_order(differential_forms(2), 4) == 1
    assert oracle_order(jet_module(1, 3), 9) == 3


def test_oracle_order_bound_exceeded():
    assert oracle_order(jet_module(1, 2), 1) == 2  # n_max + 1: no n <= 1 suffices


def test_min_order_bounded_by_lie_order_plus_one():
    rng = seeded_rng(53, "minbound")
    for mod in (differential_forms(1), differential_forms(2), jet_module(1, 2),
                tangent_adjoint(2), trivial_dmodule(1, 3)):
        for _ in range(6):
            f = random_poly(rng, mod.dim, 3)
            eta = random_derivation(rng, mod.dim, 2)
            assert min_annihilating_order(mod, f, eta) <= mod.lie_map_order() + 1


def test_jet_order_table():
    for n in range(4):
        j = jet_module(1, n)
        assert j.rank == n + 1
        assert j.lie_map_order() == n
        assert oracle_order(j, j.rank ** 2) == n
        # equality case of the annihilation bound on the jet family
        assert min_annihilating_order(j, x, d) == n + 1


# -- functors ------------------------------------------------------------------------

def test_exterior_power_examples():
    f2 = differential_forms(2)
    vol = exterior_power(f2, 2)
    assert vol.rank == 1 and vol.order == 1 and vol.validated
    # the wedge action of forms(2) on the top power is the divergence twist
    assert vol.tensor == {(1, (1, 0)): ((Poly.constant(2, 1),),),
                          (2, (0, 1)): ((Poly.constant(2, 1),),)}
    assert exterior_power(f2, 3).is_zero_module
    assert exterior_power(f2, 1) == f2
    with pytest.raises(ValueError):
        exterior_power(f2, 0)


def test_the_zero_module_is_an_ordinary_module():
    # the wedge above the rank is built and validated like any other module
    forms = differential_forms(1)
    zero = exterior_power(forms, 2)
    assert zero.is_zero_module and zero.validated and zero.tensor == {}
    assert zero == AVModule(1, 0, {})
    assert tensor_product(zero, forms) == zero == tensor_product(forms, zero)
    assert dual_module(zero) == zero == exterior_power(zero, 1)
    # every element acts as zero on it, one with a nonzero symbol too
    assert zero.annihilates(from_term(one, d)) and not forms.annihilates(from_term(one, d))
    assert zero.lie_map_order() == oracle_order(zero, 0) == 0
    assert min_annihilating_order(zero, x, d) == 1


def test_the_zero_module_has_an_element_to_act_on():
    # an element with no entry raised "needs at least one entry", so nothing
    # could act on the zero module
    zero = exterior_power(differential_forms(2), 3)
    empty = ModuleElement.zero(2, 0)
    assert empty.dim == 2 and empty.rank == 0 and empty.is_zero() and str(empty) == "()"
    assert empty == ModuleElement((), 2) != ModuleElement.zero(1, 0)
    x1 = Poly.variable(2, 1)
    eta = Derivation((x1, Poly.constant(2, 1)))
    assert zero.act_derivation(eta, empty) == empty
    assert zero.act_smash(omega(2, x1, eta), empty) == empty
    with pytest.raises(ValueError, match="needs its dim"):
        ModuleElement(())
    with pytest.raises(DimensionMismatch):
        ModuleElement((x1,), 1)


def test_exterior_power_of_jets():
    j = jet_module(1, 2)
    top = exterior_power(j, 3)
    assert top.rank == 1 and top.validated
    assert exterior_power(j, 4).is_zero_module
    mid = exterior_power(j, 2)
    assert mid.rank == 3 and mid.validated


def _assert_wedge_derivation(module, k, eta):
    """wedge^k(module) acts on e_T as eta acts on each factor of e_t1 ^ ... ^ e_tk
    in turn, the wedges built from minors by the oracle."""
    power, basis = exterior_power(module, k), module.basis()
    for a, T in enumerate(combinations(range(module.rank), k)):
        factors = [basis[t] for t in T]
        expected = ModuleElement.zero(module.dim, power.rank)
        for pos, t in enumerate(T):
            moved = module.act_derivation(eta, basis[t])
            expected = expected + wedge(factors[:pos] + [moved] + factors[pos + 1:])
        assert power.act_derivation(eta, power.basis_element(a)) == expected, (module.name, T)


@pytest.mark.parametrize("k", [2, 3])
def test_exterior_power_acts_on_wedges_as_their_minors_give_on_the_zoo(k):
    for module in small_zoo():
        rng = seeded_rng(13, "wedge", module.name, k)
        _assert_wedge_derivation(module, k, random_derivation(rng, module.dim, 2))


@_GAUGED
@pytest.mark.parametrize("k", [2, 3])
def test_exterior_power_acts_on_wedges_as_their_minors_give_on_gauged_modules(build, k):
    # gauged modules have polynomial entries, so every sign meets a polynomial
    module = build()
    rng = seeded_rng(5, "gauge-wedge", module.name, k)
    gauged = gauge(module, random_unipotent(rng, module.dim, module.rank, 1))
    assert gauged.validate().passed
    _assert_wedge_derivation(gauged, k, random_derivation(rng, module.dim, 2))


def test_dual_examples():
    assert dual_module(trivial_dmodule(1, 2)) == trivial_dmodule(1, 2)
    assert dual_module(differential_forms(1)) == tangent_adjoint(1)
    assert dual_module(differential_forms(2)) == tangent_adjoint(2)


def test_dual_pairing_invariance():
    # eta<phi, m> = <rho*(eta) phi, m> + <phi, rho(eta) m>
    m = differential_forms(2)
    md = dual_module(m)
    rng = seeded_rng(37, "pairing")
    for _ in range(6):
        eta = random_derivation(rng, 2, 2)
        mm = ModuleElement((random_poly(rng, 2, 2), random_poly(rng, 2, 2)))
        phi = ModuleElement((random_poly(rng, 2, 2), random_poly(rng, 2, 2)))
        pair = sum((a * b for a, b in zip(phi.entries, mm.entries)), Poly.zero(2))
        lhs = eta.apply(pair)
        rhs_elems = md.act_derivation(eta, phi), m.act_derivation(eta, mm)
        rhs = sum((a * b for a, b in zip(rhs_elems[0].entries, mm.entries)), Poly.zero(2)) \
            + sum((a * b for a, b in zip(phi.entries, rhs_elems[1].entries)), Poly.zero(2))
        assert lhs == rhs


def test_tensor_product_order_cancellation():
    m = differential_forms(1)
    prod = tensor_product(m, dual_module(m))
    assert prod.rank == 1
    assert prod.order == 0  # the +1 and -1 weights cancel: a plain D-module
    assert prod == trivial_dmodule(1, 1)


def test_tensor_product_rank_and_validation():
    t = tensor_product(differential_forms(2), tangent_adjoint(2))
    assert t.rank == 4 and t.validated and t.order <= 1


def _tensor_element(u, v):
    """u (x) v in the tensor product's basis order: entry (k1, k2) at k1 * rank(v) + k2."""
    return ModuleElement(tuple(a * b for a in u.entries for b in v.entries))


@pytest.mark.parametrize("m1, m2, eta", [
    (differential_forms(2), tangent_adjoint(2), "x1^2*x2*d1 + x2^2*d2 - 3*x1*d2"),
    (jet_module(1, 1), jet_module(1, 2), "x1^3*d1 - 2*x1^2*d1"),
], ids=["forms-adjoint", "jets-jets"])
def test_tensor_product_acts_by_the_leibniz_rule(m1, m2, eta):
    # rho(e)(b1 (x) b2) = rho1(e) b1 (x) b2 + b1 (x) rho2(e) b2 on every basis pair,
    # which pins the (i1, i2) -> i1 * r2 + i2 layout of the product's basis
    t = tensor_product(m1, m2)
    e = parse_derivation(eta, m1.dim)
    for i1, b1 in enumerate(m1.basis()):
        for i2, b2 in enumerate(m2.basis()):
            got = t.act_derivation(e, t.basis_element(i1 * m2.rank + i2))
            expect = _tensor_element(m1.act_derivation(e, b1), b2) \
                + _tensor_element(b1, m2.act_derivation(e, b2))
            assert got == expect


# -- serialization -------------------------------------------------------------------

def test_round_trip_every_zoo_module():
    mods = [trivial_dmodule(1, 2), differential_forms(2), tangent_adjoint(1),
            jet_module(1, 2), jet_module(2, 1), twist(Fraction(1, 2))]
    for mod in mods:
        again = module_from_dict(module_to_dict(mod))
        assert again == mod, mod.name


def test_from_dict_schema_errors():
    good = module_to_dict(differential_forms(1))
    # the declared order is checked against the order the tensor gives
    for order, message in [(0, "exceeds declared order 0"), (-1, "order must be nonnegative"),
                           (2, r"declared order 2 is not tight \(largest nonzero entry has "
                               r"order 1\)")]:
        with pytest.raises(ModuleSchemaError, match=message):
            module_from_dict(dict(good, order=order))
    # an all-zero entry is refused above the declared order, and it does not
    # make an order tight
    zero_term = {"i": 1, "alpha": [2], "matrix": [["0"]]}
    for order, message in [(1, r"entry at \(2,\) exceeds declared order 1"),
                           (2, "declared order 2 is not tight")]:
        with pytest.raises(ModuleSchemaError, match=message):
            module_from_dict(dict(good, order=order, terms=good["terms"] + [zero_term]))
    bad2 = dict(good)
    bad2["rank"] = 2  # matrices no longer match the declared rank
    with pytest.raises(ModuleSchemaError):
        module_from_dict(bad2)
    with pytest.raises(ModuleSchemaError):
        module_from_dict({"dim": 1, "rank": 1})  # missing order
    with pytest.raises(ModuleSchemaError):
        module_from_dict({"dim": 1, "rank": 1, "order": "x"})
    # the range and shape checks are AVModule's; each still raises a schema error
    for field, value in [
        ("rank", 0),
        ("terms", [{"i": 2, "alpha": [1], "matrix": [["1"]]}]),  # direction
        ("terms", [{"i": 1, "alpha": [1, 0], "matrix": [["1"]]}]),  # alpha length
        ("terms", [{"i": 1, "alpha": [-1], "matrix": [["1"]]}]),  # alpha sign
        ("terms", [{"i": 1, "alpha": [1], "matrix": [["1", "0"]]}]),  # row length
        ("terms", [{"i": "1", "alpha": [1], "matrix": [["1"]]}]),  # JSON types
        ("terms", [{"i": 1, "alpha": 1, "matrix": [["1"]]}]),
        ("terms", [{"i": 1, "alpha": [1], "matrix": ["1"]}]),
        ("dim", True),  # JSON booleans are not integers
        ("rank", True),
        ("order", True),
        ("terms", [{"i": True, "alpha": [1], "matrix": [["1"]]}]),
        ("terms", [{"i": 1, "alpha": [True], "matrix": [["1"]]}]),
    ]:
        with pytest.raises(ModuleSchemaError):
            module_from_dict(dict(good, **{field: value}))


def test_from_dict_validation_failure():
    data = {
        "name": "broken", "dim": 2, "rank": 2, "order": 1,
        "terms": [{"i": 1, "alpha": [1, 0],
                   "matrix": [["x1", "0"], ["0", "0"]]}],
    }
    with pytest.raises(ValidationError) as exc:
        module_from_dict(data)
    assert exc.value.report is not None and exc.value.report.status == "fail"


def test_hand_encoded_forms_two():
    # the one-forms module in dim 2, written out by hand
    z, o = "0", "1"
    data = {
        "name": "forms-by-hand", "dim": 2, "rank": 2, "order": 1,
        "terms": [
            {"i": 1, "alpha": [1, 0], "matrix": [[o, z], [z, z]]},
            {"i": 1, "alpha": [0, 1], "matrix": [[z, z], [o, z]]},
            {"i": 2, "alpha": [1, 0], "matrix": [[z, o], [z, z]]},
            {"i": 2, "alpha": [0, 1], "matrix": [[z, z], [z, o]]},
        ],
    }
    mod = module_from_dict(data)
    assert mod == differential_forms(2)
    assert mod.lie_map_order() == 1
