"""Acceptance gate: the exact, zero-tolerance criteria, one line printed each.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  All arithmetic is exact rational; every comparison is equality.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from smashmod import (
    Derivation,
    IDENTITY_IDS,
    LocalizedModule,
    LocalizedPoly,
    ModuleElement,
    Poly,
    SmashElement,
    differential_forms,
    exterior_power,
    jet_module,
    min_annihilating_order,
    module_from_dict,
    omega,
    omega_definitional,
    omega_multi,
    omega_multi_definitional,
    oracle_order,
    smash_bracket,
    tangent_adjoint,
    tensor_product,
    trivial_dmodule,
    twist,
)
from smashmod.cli import main
from smashmod.modules import ValidationError
from smashmod.sampling import random_derivation, random_poly, seeded_rng
from smashmod.suites import RunConfig, iter_identity_samples, run_suite

from oracles import distinct_random_polys, lie_derivative_one_form, random_poly_or_zero

SEED = 2026
ONE_D = Poly.variable(1, 1)
D1 = Derivation.partial(1, 1)


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL - {description}")
        raise
    print(f"[criterion {n}] PASS - {description}")


def small_zoo():
    """Every zoo family instantiated with rank <= 6, plus one tensor product."""
    mods = [
        trivial_dmodule(1, 1), trivial_dmodule(2, 2),
        differential_forms(1), differential_forms(2),
        tangent_adjoint(1), tangent_adjoint(2),
        jet_module(1, 0), jet_module(1, 1), jet_module(1, 2), jet_module(1, 3),
        jet_module(2, 0), jet_module(2, 1), jet_module(2, 2),
        twist(0), twist(1), twist(-1), twist(2), twist(Fraction(1, 2)),
        tensor_product(differential_forms(2), tangent_adjoint(2)),
    ]
    assert all(m.rank <= 6 for m in mods)
    return mods


def test_criterion_1_identity_suites():
    config = RunConfig(dims=(1, 2, 3), max_degree=4, trials=100, seed=SEED, p_max=4)
    with criterion(1, "all bracket identities exact: p,q in 1..4 exhaustive, "
                      "dims 1..3, 100 seeded samples each, degree <= 4, < 60 s"):
        start = time.monotonic()
        reports = run_suite("identities", config)
        elapsed = time.monotonic() - start
        assert all(r.passed for r in reports), [
            r.to_dict() for r in reports if not r.passed][:3]
        # coverage accounting: every identity saw >= 100 samples per dim,
        # and the (p, q) grid was exhausted in every dimension
        per = {}
        grid = {}
        for r in reports:
            per[(r.identity, r.inputs["dim"])] = per.get((r.identity, r.inputs["dim"]), 0) + 1
            if "q" in r.inputs:  # the single-level identities echo only p
                grid.setdefault(r.inputs["dim"], set()).add((r.inputs["p"], r.inputs["q"]))
        assert all(count >= 100 for count in per.values())
        full = {(str(p), str(q)) for p in range(1, 5) for q in range(1, 5)}
        assert all(full <= seen for seen in grid.values())
        assert len(per) == len(IDENTITY_IDS) * 3
        assert elapsed < 60.0, f"identity suites took {elapsed:.1f} s"


def test_criterion_2_closed_form_coherence():
    config = RunConfig(dims=(1, 2, 3), max_degree=4, trials=100, seed=SEED, p_max=4)
    with criterion(2, "definitional alternating sum equals the (f(x)-f(y))^p "
                      "closed form on every criterion-1 sample"):
        for dim, t, bound in iter_identity_samples(config):
            f, eta, p = bound["f"], bound["eta"], bound["p"]
            assert omega(p, f, eta) == omega_definitional(p, f, eta), (dim, t)
            fs = (f, bound["g"], bound["h"])[: 1 + t % 3]
            assert omega_multi(fs, eta) == omega_multi_definitional(fs, eta), (dim, t)
            assert omega_multi((f,) * p, eta) == omega(p, f, eta), (dim, t)


def test_criterion_3_worked_examples():
    with criterion(3, "one-forms annihilated from level 2; level 2 kills the "
                      "adjoint action; D-module has order 0"):
        assert min_annihilating_order(differential_forms(1), ONE_D, D1) == 2
        for dim in (1, 2):
            adj = tangent_adjoint(dim)
            rng = seeded_rng(SEED, "criterion3", dim)
            for _ in range(25):
                f = random_poly(rng, dim, 3)
                eta = random_derivation(rng, dim, 3)
                assert adj.annihilates(omega(2, f, eta))
        assert trivial_dmodule(1, 1).lie_map_order() == 0
        assert trivial_dmodule(2, 2).lie_map_order() == 0


def test_criterion_4_order_bound():
    with criterion(4, "lie map order = commutator-oracle order <= rank^2 on the "
                      "whole small zoo; jet ladder has orders 0,1,2,3"):
        for mod in small_zoo():
            lie = mod.lie_map_order()
            orc = oracle_order(mod, mod.rank ** 2)
            assert lie == orc, (mod.name, lie, orc)
            assert lie <= mod.rank ** 2, mod.name
        for n in range(4):
            j = jet_module(1, n)
            assert j.rank == n + 1
            assert j.lie_map_order() == n
            assert oracle_order(j, j.rank ** 2) == n


def test_criterion_5_uniform_annihilation():
    with criterion(5, "levels above rank^2 annihilate: single-function and "
                      "distinct-multi-function elements, 50 seeded draws per module"):
        for mod in small_zoo():
            dim, bound = mod.dim, mod.rank ** 2
            rng = seeded_rng(SEED, "criterion5", mod.name)
            # keep the power-size tame for the large-rank modules: a shifted
            # signed monomial still exercises random exponents and signs
            simple_f = mod.rank >= 4
            for s in range(50):
                if simple_f:
                    f = distinct_random_polys(rng, dim, 3, 1)[0]
                else:
                    f = random_poly(rng, dim, 3)
                eta = random_derivation(rng, dim, 2)
                for p in range(bound + 1, bound + 4):
                    assert mod.annihilates(omega(p, f, eta)), (mod.name, s, p)
                p = bound + 1 + s % 3
                fs = distinct_random_polys(rng, dim, 2, p)
                assert mod.annihilates(omega_multi(fs, eta)), (mod.name, s, p)


def test_criterion_6_localization():
    config = RunConfig(dims=(1, 2), max_degree=3, trials=30, seed=SEED, p_max=4)
    with criterion(6, "localized action: well-definedness, Leibniz, bracket "
                      "display, 1/f^2 and 1/f^3 series, 60 samples per law"):
        reports = run_suite("localized", config)
        assert all(r.passed for r in reports), [
            r.to_dict() for r in reports if not r.passed][:3]
        per = {}
        for r in reports:
            per[r.identity] = per.get(r.identity, 0) + 1
        assert all(count >= 50 for count in per.values()), per
        # the worked witness: (d/x)(dx) = -dx/x^2, against quotient-rule calculus
        forms = differential_forms(1)
        ctx = LocalizedModule(forms, ONE_D)
        got = ctx.act(ctx.derivation(D1, 1), ctx.include(forms.basis_element(0)))
        assert got.denom_exp == 2
        assert got.numerator == ModuleElement((Poly.constant(1, -1),))
        oracle = lie_derivative_one_form(
            LocalizedPoly(ONE_D, Poly.constant(1, 1), 1),
            LocalizedPoly(ONE_D, Poly.constant(1, 1), 0))
        assert LocalizedPoly(ONE_D, got.numerator.entries[0], got.denom_exp) == oracle


def test_criterion_7_exterior_powers():
    with criterion(7, "top exterior power is nonzero and valid, the next one "
                      "vanishes, for every small zoo module"):
        for mod in small_zoo():
            r = mod.rank
            top = exterior_power(mod, r)
            assert not top.is_zero_module
            assert top.rank >= 1 and top.validated, mod.name
            assert exterior_power(mod, r + 1).is_zero_module, mod.name
            assert exterior_power(mod, r + 3).is_zero_module, mod.name


def test_criterion_8_representation_property():
    with criterion(8, "bracket goes to commutator under the module action, "
                      "100 seeded samples across the zoo"):
        mods = [differential_forms(1), tangent_adjoint(1), jet_module(1, 1),
                jet_module(1, 2), trivial_dmodule(2, 2), differential_forms(2)]
        rng = seeded_rng(SEED, "criterion8")
        for s in range(100):
            mod = mods[s % len(mods)]
            dim = mod.dim

            def rand_smash():
                comps = []
                for _ in range(dim):
                    terms = {
                        tuple(rng.randint(0, 3) for _ in range(2 * dim)):
                            rng.choice((-2, -1, 1, 2))
                        for _ in range(rng.randint(1, 2))}
                    comps.append(Poly(2 * dim, terms))
                return SmashElement(dim, comps)

            u, v = rand_smash(), rand_smash()
            m = ModuleElement(tuple(
                random_poly_or_zero(rng, dim, 2) for _ in range(mod.rank)))
            lhs = mod.act_smash(smash_bracket(u, v), m)
            rhs = mod.act_smash(u, mod.act_smash(v, m)) \
                - mod.act_smash(v, mod.act_smash(u, m))
            assert lhs == rhs, (mod.name, s)


def test_criterion_9_negative_controls(tmp_path, capsys):
    with criterion(9, "corrupted identity and incompatible tensor are caught "
                      "(verify exit 1, validation failure, load exit 2)"):
        # corrupted identity: the fixed fixture must FAIL with a witness
        (rep,) = run_suite("negative-control", RunConfig())
        assert rep.status == "fail" and rep.witness is not None
        out = tmp_path / "neg.json"
        assert main(["verify", "--suite", "negative-control",
                     "--out", str(out)]) == 1
        assert json.loads(out.read_text())["exit_status"] == 1
        # incompatible tensor: library raises, CLI exits 2
        broken = {
            "name": "broken", "dim": 2, "rank": 2, "order": 1,
            "terms": [{"i": 1, "alpha": [1, 0],
                       "matrix": [["x1", "0"], ["0", "0"]]}],
        }
        try:
            module_from_dict(broken)
            raise AssertionError("incompatible tensor was not rejected")
        except ValidationError as e:
            assert e.report is not None and e.report.status == "fail"
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(broken))
        assert main(["order", "--module", str(bad)]) == 2
        capsys.readouterr()
        # a genuinely passing identity run still exits 0 (non-vacuity of exit codes)
        assert main(["verify", "--suite", "lemma3", "--dims", "1", "--trials", "2",
                     "--out", str(tmp_path / "ok.json")]) == 0
