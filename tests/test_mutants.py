"""The mutant table: each row plants one fault in a library function, and
the suite that covers the function must report a failure with a witness.

A row rebinds a function (or ``Class.method``) with ``monkeypatch``, in
every layer that defines it or imported it by name or, when a layer
qualifies the name (``"localize._sum_products"``), in that layer only.
Most rows rebind a faulty collaborator of the function under test, or wrap
the live function with a fault in its input or output, so that the live
code runs under the fault.  ``omega`` keeps a memo of the elements it
built for the last f it met, and the memo holds only values that the real
``omega`` computed: a row that corrupts anything beneath ``omega`` must
rebind ``omega`` itself, or a memoized element hides the fault.  So three
rows rebind a corrupted copy: ``omega_reversed`` and the memo keyed on p
alone, whose faults sit beneath that memo, and ``_structure_terms``
without its mirror Leibniz term, whose fault sits inside the body.  A
mutant that survives shows a check that cannot fail: strengthen the check,
never the mutant.  The method is mutation testing (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978), with
no mutation tool.
"""

import json
from collections import defaultdict
from itertools import combinations_with_replacement, islice, product

import pytest

import smashmod.cli as cli
import smashmod.localize as localize
import smashmod.modules as modules
import smashmod.smash as smash
import smashmod.suites as suites
from smashmod import differential_forms, jet_module
from smashmod.cli import main, save_module_spec
from smashmod.localize import LocalizedDerivation, LocalizedModule
from smashmod.modules import AVModule
from smashmod.poly import (Poly, _sum_products, embed_coefficient, embed_function,
                           multi_binomial, parse_poly, unit_index)
from smashmod.sampling import seeded_rng
from smashmod.smash import SmashElement
from smashmod.suites import RunConfig, run_suite

from oracles import gauge, random_unipotent, validate_by_sampling
from test_acceptance import small_zoo
from test_modules import (GAUGED_BUILDS, _corrupted, _rank_one_order_zero, _tampered,
                          perturbed_module)

IDENTITIES = RunConfig(dims=(1, 2), trials=4, p_max=2)
LOCALIZED = RunConfig(dims=(1, 2), trials=6)


def restrict_to_diagonal_to_zero(p):
    """restrict_to_diagonal giving 0: rebound in ``smash`` only, it drops the
    eta(g) and mu(f) cross terms of smash_bracket, which are taken on the
    diagonal (function_commutator is then 0, so lemma2 still passes)."""
    return Poly.zero(p.dim // 2)


def omega_reversed(p, f, e):
    """omega with (f(y) - f(x))^p in place of (f(x) - f(y))^p."""
    fp = (embed_coefficient(f) - embed_function(f)) ** p
    return SmashElement(f.dim, (fp * embed_coefficient(g) for g in e.coeffs))


def omega_with_a_memo_keyed_on_p_only():
    """A copy of omega whose memo of the powers (f(x) - f(y))^p keys on the
    level p and ignores f: a later f of the same dim gets the power of the
    first f met at that level.  (Keyed on p alone, the first product across
    dims would raise instead of failing a check.)"""
    powers = {}

    def omega(p, f, e):
        key = (f.dim, p)
        if key not in powers:
            powers[key] = (embed_function(f) - embed_coefficient(f)) ** p
        return SmashElement(f.dim, (powers[key] * embed_coefficient(g) for g in e.coeffs))

    return omega


_two_brackets = smash._two_brackets


def two_brackets_without_k(f, p, q, a, b, c, e, k, r):
    """The two-bracket lemmas with the factor k of omega_{p+q}(f, r) taken as 1."""
    return _two_brackets(f, p, q, a, b, c, e, 1, r)


_omega_multi = smash.omega_multi


def omega_multi_without_its_last_factor(fs, e):
    """omega_multi over all but the last function: one function gives 1 # e."""
    return _omega_multi(tuple(fs)[:-1], e)


_series_operator = localize._series_operator
_act = LocalizedModule.act


def series_one_power_too_high(module, g, eta, j=1):
    """_series_operator with the power of g under its pair one too high."""
    pair, exp = _series_operator(module, g, eta, j)
    return pair, exp + 1


def sum_products_without_its_last_triple(dim, triples):
    """_sum_products without its last triple: rebound in ``localize`` only, it
    drops the level u = N of _series_operator's sum, its one caller there."""
    return _sum_products(dim, list(triples)[:-1])


def series_with_the_weights_of_j2(module, g, eta, j=1):
    """_series_operator that builds eta/g^3 with the weights C(u+1, 1) of
    j = 2 in place of C(u+2, 2); every other j is left as it is."""
    if j != 3:
        return _series_operator(module, g, eta, j)
    pair, exp = _series_operator(module, g, eta, 2)
    return pair, exp + 1


def act_with_the_quotient_term_flipped(self, op, me):
    """LocalizedModule.act with +l eta(f) m / f^{k+l+1} as its quotient-rule
    term, in place of -l eta(f) m / f^{k+l+1}."""
    if isinstance(op, LocalizedDerivation):
        op = self.operator(op)
    l = me.denom_exp
    flip = me._new(self.base, me.numerator * (2 * l * op.eta_f), op.denom_exp + l + 1)
    return _act(self, op, me) + flip


_smash_operator = AVModule._smash_operator


def smash_operator_without_its_symbol(self, u):
    """AVModule._smash_operator with an empty symbol: the live annihilates then
    tests only the matrix of u's action, not the vector field it applies."""
    return (), _smash_operator(self, u)[1]


def smash_operator_with_a_unit_symbol(self, u):
    """AVModule._smash_operator with the symbol 1 in place of u's: the live
    annihilates then holds on the zero module only, so that no order up to
    the search bound works."""
    return (Poly.constant(self.dim, 1),), _smash_operator(self, u)[1]


def combinations_with_one_more(iterable, r):
    """combinations_with_replacement drawing r + 1 items: under it the live
    oracle_order, its one caller in ``modules``, takes products of n + 2
    coordinate functions for order n, so it answers one below the order."""
    return combinations_with_replacement(iterable, r + 1)


def structure_terms_without_the_mirror_leibniz_term(self, i, j):
    """AVModule._structure_terms without its mirror Leibniz term, the one of
    D[i,alpha] in the direction j."""
    d, r = self.dim, range(self.rank)
    eye = tuple(tuple(Poly.constant(d, int(a == b)) for b in r) for a in r)
    coeffs = defaultdict(list)
    tensor_i, tensor_j = ([(alpha, mat) for (k, alpha), mat in self.tensor.items()
                           if k == t] for t in (i, j))
    for alpha, mat in tensor_j:
        coeffs[((0,) * d, alpha)].append(
            (1, eye, tuple(tuple(p.partial_derivative(i) for p in row) for row in mat)))
        for delta in islice(product(*(range(a + 1) for a in alpha)), 1, None):
            rest = tuple(a - dl + x for a, dl, x in zip(alpha, delta, unit_index(d, i)))
            coeffs[(delta, rest)].append((-multi_binomial(alpha, delta), eye, mat))
    for alpha, mat in tensor_i:
        for beta, other in tensor_j:
            coeffs[(alpha, beta)] += [(1, mat, other), (-1, other, mat)]
    return coeffs


def partial_derivative_to_zero(self, i):
    """Poly.partial_derivative giving 0: the live validate differentiates only
    in the derivative terms d_k D of its structure matrices."""
    return Poly.zero(self.dim)


_structure_terms = AVModule._structure_terms


def structure_terms_only_for_i_equal_j(self, i, j):
    """AVModule._structure_terms with no term for i < j: under it the live
    validate checks the structure matrices C_ii only."""
    return _structure_terms(self, i, j) if i == j else {}


_LAYERS = {"smash": smash, "suites": suites, "localize": localize, "modules": modules, "cli": cli}


def _rebind(monkeypatch, name, mutant):
    """Rebind ``name`` to ``mutant``: a function or ``Class.method`` in every
    layer that has it, a ``layer.function`` in that layer only."""
    owner, _, attr = name.rpartition(".")
    if owner in _LAYERS:
        monkeypatch.setattr(_LAYERS[owner], attr, mutant)
        return
    for module in _LAYERS.values():
        target = getattr(module, owner, None) if owner else module
        if hasattr(target, attr):
            monkeypatch.setattr(target, attr, mutant)


def test_the_clean_identity_suite_passes():
    reports = run_suite("identities", IDENTITIES)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("suite, config", [
    ("omega-coherence", IDENTITIES), ("localized", LOCALIZED),
], ids=["omega-coherence", "localized"])
def test_the_clean_suite_passes(suite, config):
    reports = run_suite(suite, config)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("name, mutant", [
    ("smash.restrict_to_diagonal", restrict_to_diagonal_to_zero),
    ("omega", omega_reversed),
    ("_two_brackets", two_brackets_without_k),
], ids=["smash_bracket-without-cross-terms", "omega-reversed", "two-brackets-without-k"])
def test_the_identity_suite_catches_the_mutant(monkeypatch, name, mutant):
    _rebind(monkeypatch, name, mutant)
    failed = [r for r in run_suite("identities", IDENTITIES) if not r.passed]
    assert failed and all(r.status == "fail" and r.witness for r in failed)


def test_the_identity_suite_catches_a_memo_that_ignores_f(monkeypatch):
    _rebind(monkeypatch, "omega", omega_with_a_memo_keyed_on_p_only())
    failed = [r for r in run_suite("identities", IDENTITIES) if not r.passed]
    assert failed and all(r.status == "fail" and r.witness for r in failed)


def test_the_coherence_suite_catches_omega_multi_without_its_last_factor(monkeypatch):
    _rebind(monkeypatch, "omega_multi", omega_multi_without_its_last_factor)
    failed = [r for r in run_suite("omega-coherence", IDENTITIES) if not r.passed]
    assert failed and all(r.status == "fail" and r.witness for r in failed)


@pytest.mark.parametrize("name, mutant", [
    ("_series_operator", series_one_power_too_high),
    ("localize._sum_products", sum_products_without_its_last_triple),
    ("_series_operator", series_with_the_weights_of_j2),
    ("LocalizedModule.act", act_with_the_quotient_term_flipped),
], ids=["series-one-power-too-high", "series-without-its-top-level",
        "inverse-cube-with-the-weights-of-j2", "act-with-the-quotient-term-flipped"])
def test_the_localized_suite_catches_the_mutant(monkeypatch, name, mutant):
    _rebind(monkeypatch, name, mutant)
    failed = [r for r in run_suite("localized", LOCALIZED) if not r.passed]
    assert failed and all(r.status == "fail" and r.witness for r in failed)


def order_reports(tmp_path):
    """The ``order`` report of each small_zoo() module, read from its file."""
    records = []
    for k, module in enumerate(small_zoo()):
        spec, out = tmp_path / f"module-{k}.json", tmp_path / f"order-{k}.json"
        save_module_spec(module, str(spec))
        main(["order", "--module", str(spec), "--out", str(out)])
        (record,) = json.loads(out.read_text())["results"]
        records.append(record)
    return records


def test_the_clean_order_reports_pass(tmp_path):
    assert all(r["status"] == "pass" for r in order_reports(tmp_path))


@pytest.mark.parametrize("name, mutant", [
    ("AVModule._smash_operator", smash_operator_without_its_symbol),
    ("combinations_with_replacement", combinations_with_one_more),
], ids=["annihilates-ignoring-the-symbol", "oracle-order-off-by-one"])
def test_the_order_check_catches_the_mutant(monkeypatch, tmp_path, name, mutant):
    _rebind(monkeypatch, name, mutant)
    assert any(r["status"] == "fail" for r in order_reports(tmp_path))


def test_the_order_check_fails_when_no_order_up_to_rank_squared_works(monkeypatch, tmp_path):
    # the oracle's fallback: it answers rank^2 + 1, one past the bound it searched
    _rebind(monkeypatch, "AVModule._smash_operator", smash_operator_with_a_unit_symbol)
    reports = [r for r in order_reports(tmp_path) if r["rank"]]
    assert reports and all(r["status"] == "fail"
                           and r["oracle_order"] == r["rank_squared_bound"] + 1
                           for r in reports)


def gauged_modules():
    """The gauged copies of the modules of test_modules.GAUGED_BUILDS, each of
    which has polynomial tensor entries."""
    out = []
    for build in GAUGED_BUILDS.values():
        module = build()
        rng = seeded_rng(5, "gauge", module.name)
        out.append(gauge(module, random_unipotent(rng, module.dim, module.rank, 1)))
    return out


def invalid_modules():
    """Invalid tensors of test_modules, each unvalidated: a curl in D[i,0]
    shows only in C_12."""
    return [_tampered(), _corrupted(jet_module(2, 1)), _corrupted(differential_forms(2)),
            _rank_one_order_zero("x2", "-x1"),
            perturbed_module(jet_module(2, 1), (1, (0, 0)), (0, 0), parse_poly("x2", 2))]


def test_the_clean_validate_passes_and_agrees_with_the_sampling_oracle():
    assert all(m.validate().passed for m in small_zoo() + gauged_modules())
    assert not any(m.validate().passed or validate_by_sampling(m).passed
                   for m in invalid_modules())


def test_validate_catches_structure_terms_without_the_mirror_leibniz_term(monkeypatch):
    zoo = small_zoo()  # built, and validated, before the fault is planted
    _rebind(monkeypatch, "AVModule._structure_terms",
            structure_terms_without_the_mirror_leibniz_term)
    reports = {m.name: m.validate() for m in zoo}
    failed = [r for r in reports.values() if not r.passed]
    assert failed and all(r.status == "fail" and r.witness for r in failed)
    # on forms(1), C[(1),(1)] is -D instead of 0
    assert reports["forms(1)"].witness == {"i": "1", "j": "1", "beta": "(1,)", "gamma": "(1,)",
                                          "entry": "(0, 0)", "defect": "-1"}


def test_validate_catches_structure_terms_without_the_derivative_term(monkeypatch):
    # zoo tensors are constant, so only modules with polynomial entries can;
    # gauge differentiates, so they are built before the fault is planted
    gauged = gauged_modules()
    _rebind(monkeypatch, "Poly.partial_derivative", partial_derivative_to_zero)
    reports = [m.validate() for m in gauged]
    assert all(r.status == "fail" and r.witness for r in reports)


def test_the_sampling_oracle_catches_a_validate_that_skips_the_pairs_i_below_j(monkeypatch):
    # the zoo modules are valid, so a fault in validate shows on invalid input
    _rebind(monkeypatch, "AVModule._structure_terms", structure_terms_only_for_i_equal_j)
    assert any(m.validate().passed != validate_by_sampling(m).passed
               for m in invalid_modules())
