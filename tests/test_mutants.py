"""The mutant table: each row plants one fault in a library function, and
the suite that covers the function must report a failure with a witness.

A row rebinds the function to a corrupted copy with ``monkeypatch``, in
``smash`` and wherever ``suites`` imported it by name.  A mutant that
survives shows a check that cannot fail: strengthen the check, never the
mutant.  The method is mutation testing (DeMillo, Lipton and Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978), with no mutation tool.
"""

import pytest

import smashmod.smash as smash
import smashmod.suites as suites
from smashmod.poly import Poly, embed_coefficient, embed_function
from smashmod.smash import SmashElement
from smashmod.suites import RunConfig, run_suite

IDENTITIES = RunConfig(dims=(1, 2), trials=4, p_max=2)


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


def _rebind(monkeypatch, name, mutant):
    for module in (smash, suites):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, mutant)


def test_the_clean_identity_suite_passes():
    reports = run_suite("identities", IDENTITIES)
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
