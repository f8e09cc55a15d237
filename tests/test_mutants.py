"""The mutant table: each row plants one fault in a library function, and
the suite that covers the function must report a failure with a witness.

A row rebinds the function (or ``Class.method``) to a corrupted copy with
``monkeypatch``, in the library module that defines it and wherever
``suites`` or ``cli`` imported it by name.  ``omega`` keeps a memo of the
elements it built for the last f it met, and the memo holds only values that
the real ``omega`` computed: a row that corrupts anything beneath ``omega``
must rebind ``omega`` itself, or a memoized element hides the fault.  A
mutant that survives shows a check that cannot fail: strengthen the check,
never the mutant.  The method is mutation testing (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978), with no
mutation tool.
"""

import json
from itertools import combinations_with_replacement
from math import comb

import pytest

import smashmod.cli as cli
import smashmod.localize as localize
import smashmod.modules as modules
import smashmod.smash as smash
import smashmod.suites as suites
from smashmod.cli import main, save_module_spec
from smashmod.localize import LocalizedDerivation, LocalizedModule
from smashmod.modules import _direction, _mat_is_zero
from smashmod.poly import Poly, embed_coefficient, embed_function, multi_indices
from smashmod.smash import SmashElement, from_term, omega_multi
from smashmod.suites import RunConfig, run_suite

from test_acceptance import small_zoo

IDENTITIES = RunConfig(dims=(1, 2), trials=4, p_max=2)
LOCALIZED = RunConfig(dims=(1, 2), trials=6)


def bracket_without_cross_terms(u, v):
    """smash_bracket with the vector-field terms only: the eta(g) and mu(f)
    cross terms, taken on the diagonal, are dropped."""
    d, P, Q = u.dim, u.components, v.components
    return SmashElement(d, (
        sum((P[i] * Q[l].partial_derivative(d + i + 1)
             - Q[i] * P[l].partial_derivative(d + i + 1) for i in range(d)), Poly.zero(2 * d))
        for l in range(d)))


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


def two_brackets_without_k(name, f, p, q, a, b, c, e, k, r):
    """The two-bracket lemmas with the factor k of omega_{p+q}(f, r) taken as 1."""
    return _two_brackets(name, f, p, q, a, b, c, e, 1, r)


_omega_multi = smash.omega_multi


def omega_multi_without_its_last_factor(fs, e):
    """omega_multi over all but the last function: one function gives 1 # e."""
    fs = tuple(fs)
    if len(fs) == 1:
        return SmashElement(e.dim, (embed_coefficient(g) for g in e.coeffs))
    return _omega_multi(fs[:-1], e)


_series_operator = localize._series_operator
_act = LocalizedModule.act


def series_one_power_too_high(module, g, eta, j=1):
    """_series_operator with the power of g under its pair one too high."""
    pair, exp = _series_operator(module, g, eta, j)
    return pair, exp + 1


def series_without_its_top_level(module, g, eta, j=1):
    """_series_operator with the level u = N of its sum dropped."""
    N, d = module.order, module.dim
    gx = embed_function(g)
    G = gx - embed_coefficient(g)
    S = sum((comb(u + j - 1, j - 1) * gx ** (N - u) * G ** u for u in range(N)),
            Poly.zero(2 * d))
    element = SmashElement(d, (S * embed_coefficient(c) for c in eta.coeffs))
    return module._smash_operator(element), N + j


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


def annihilates_ignoring_the_symbol(self, u):
    """AVModule.annihilates that tests only the matrix of u's action, not its
    symbol, the vector field it applies to the entries."""
    self._require_validated()
    if self.rank == 0:
        return True
    _, matrix = self._smash_operator(u)
    return _mat_is_zero(matrix)


def oracle_order_off_by_one(module, n_max):
    """oracle_order with products of n + 2 coordinate functions in place of
    n + 1 for order n, so it answers one below the order."""
    module._require_validated()
    d = module.dim
    one = Poly.constant(d, 1)
    coords = [Poly.variable(d, i) for i in range(1, d + 1)]
    fields = [_direction(d, i, Poly.monomial(d, a))
              for i in range(1, d + 1) for a in multi_indices(d, module.order + 1)]
    for n in range(-1 if module.rank else 0, n_max + 1):
        if all(module.annihilates(omega_multi(fs, e) if fs else from_term(one, e))
               for fs in combinations_with_replacement(coords, n + 2) for e in fields):
            return n
    return n_max + 1


def _rebind(monkeypatch, name, mutant):
    owner, _, attr = name.rpartition(".")
    for module in (smash, suites, localize, modules, cli):
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
    ("smash_bracket", bracket_without_cross_terms),
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
    ("_series_operator", series_without_its_top_level),
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
    ("AVModule.annihilates", annihilates_ignoring_the_symbol),
    ("oracle_order", oracle_order_off_by_one),
], ids=["annihilates-ignoring-the-symbol", "oracle-order-off-by-one"])
def test_the_order_check_catches_the_mutant(monkeypatch, tmp_path, name, mutant):
    _rebind(monkeypatch, name, mutant)
    assert any(r["status"] == "fail" for r in order_reports(tmp_path))
