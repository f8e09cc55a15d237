"""The mutant table: each row plants one fault in a library function, and
the suite that covers the function must report a failure with a witness.

A row rebinds the function (or ``Class.method``) to a corrupted copy with
``monkeypatch``, in ``smash`` and ``localize`` and wherever ``suites``
imported it by name.  A mutant that
survives shows a check that cannot fail: strengthen the check, never the
mutant.  The method is mutation testing (DeMillo, Lipton and Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978), with no mutation tool.
"""

from math import comb

import pytest

import smashmod.localize as localize
import smashmod.smash as smash
import smashmod.suites as suites
from smashmod.localize import LocalizedDerivation, LocalizedModule
from smashmod.poly import Poly, embed_coefficient, embed_function
from smashmod.smash import SmashElement
from smashmod.suites import RunConfig, run_suite

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


def _rebind(monkeypatch, name, mutant):
    owner, _, attr = name.rpartition(".")
    for module in (smash, suites, localize):
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
