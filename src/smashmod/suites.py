"""Deterministic verification suites over seeded random instances.

A suite runs the checks of one or more families (bracket identities,
closed-form coherence, localized-action laws, the negative control) over
exhaustive small levels (p, q) and seeded random polynomial data.  Each
family is a generator of (dim, trial, report) over its own seeded sample
stream; ``run_suite`` is the one loop that walks the family table, tags each
report with its dim and trial and collects them.  Identical (seed, config)
reproduce the exact same reports, in one run or split into shares of trials.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .localize import LOCALIZED_CHECK_IDS, verify_localized
from .modules import (
    AVModule,
    differential_forms,
    jet_module,
    tangent_adjoint,
    trivial_dmodule,
)
from .poly import _MASK, Derivation, Poly
from .sampling import random_derivation, random_poly, seeded_rng
from .smash import (
    IDENTITY_IDS,
    VerificationReport,
    _lemma3_rhs,
    _report,
    _smash_witness,
    omega,
    omega_definitional,
    omega_multi,
    omega_multi_definitional,
    smash_bracket,
    verify_identity,
)

__all__ = ["RunConfig", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a verification run, checked on construction (ValueError);
    identical configs give identical reports."""

    dims: tuple[int, ...] = (1, 2, 3)
    max_degree: int = 4
    trials: int = 100
    seed: int = 2026
    p_max: int = 4

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be a nonempty list of positive integers")
        for i, d in enumerate(self.dims):
            if d in self.dims[:i]:
                raise ValueError(f"dimension {d} given twice")
        if not 1 <= self.max_degree <= _MASK:
            raise ValueError(f"max degree must be in 1..{_MASK}, the exponent limit "
                             f"(got {self.max_degree})")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "dims": list(self.dims)}


def iter_identity_samples(config: RunConfig, trials: range | None = None):
    """The seeded sample stream behind the identity suites.

    Yields (dim, trial, bindings) with bindings holding f, g, h, eta, mu and
    the levels p, q; the (p, q) grid 1..p_max x 1..p_max is cycled so that
    trials >= p_max^2 covers it exhaustively in every dimension.  Given a
    range of ``trials``, it yields theirs only, drawing all samples up to them.
    """
    trials = range(config.trials) if trials is None else trials
    for dim in config.dims:
        rng = seeded_rng(config.seed, "identities", dim)
        for t in range(trials.stop):
            f = random_poly(rng, dim, config.max_degree)
            g = random_poly(rng, dim, config.max_degree)
            h = random_poly(rng, dim, config.max_degree)
            eta = random_derivation(rng, dim, config.max_degree)
            mu = random_derivation(rng, dim, config.max_degree)
            if t in trials:
                p, q = divmod(t % config.p_max ** 2, config.p_max)  # row-major, from 0
                yield dim, t, dict(f=f, g=g, h=h, eta=eta, mu=mu, p=p + 1, q=q + 1)


def _identity_reports(ids, config: RunConfig, trials: range):
    """The named bracket identities: every (p, q) in 1..p_max is hit,
    trials seeded samples per dimension, all identities sharing each sample."""
    for dim, t, bound in iter_identity_samples(config, trials):
        for name in ids:
            yield dim, t, verify_identity(name, bound)


def _coherence_reports(ids, config: RunConfig, trials: range):
    """Closed forms against the definitional constructions: the alternating
    binomial sum for omega, the iterated tensor action for the multi-function
    product, and the collapse of the product form onto equal functions."""
    for dim in config.dims:
        rng = seeded_rng(config.seed, "coherence", dim)
        for t in range(trials.stop):
            f = random_poly(rng, dim, config.max_degree)
            eta = random_derivation(rng, dim, config.max_degree)
            fs = tuple(random_poly(rng, dim, config.max_degree)
                       for _ in range(1 + t % 3))
            if t not in trials:
                continue
            p = t % (config.p_max + 1)
            yield dim, t, _report(
                "omega-coherence", {"f": str(f), "eta": str(eta), "p": str(p)},
                _smash_witness(omega(p, f, eta) - omega_definitional(p, f, eta)))
            diff = omega_multi(fs, eta) - omega_multi_definitional(fs, eta)
            collapse = omega_multi((f,) * max(p, 1), eta) - omega(max(p, 1), f, eta)
            yield dim, t, _report(
                "omega-multi-coherence",
                {"fs": "; ".join(str(x) for x in fs), "f": str(f), "eta": str(eta),
                 "p": str(max(p, 1))},
                _smash_witness(diff) or _smash_witness(collapse))


def _localized_modules(dim: int) -> list[AVModule]:
    mods = [trivial_dmodule(dim, 2), differential_forms(dim)]
    if dim == 1:
        mods.append(jet_module(1, 2))
    else:
        mods.extend([tangent_adjoint(dim), jet_module(dim, 1)])
    return mods


# The localized-action laws are dimension independent, and their sweep's cost
# grows quickly with the dimension: they run at these dimensions only.
LOCALIZED_DIMS = (1, 2)


def _localized_reports(ids, config: RunConfig, trials: range):
    """The localized-action checks over small zoo modules, cycling the
    module per trial; dimensions outside LOCALIZED_DIMS are skipped."""
    for dim in [d for d in config.dims if d in LOCALIZED_DIMS]:
        mods = _localized_modules(dim)
        rng = seeded_rng(config.seed, "localized", dim)
        for t in range(trials.stop):
            f = random_poly(rng, dim, max(config.max_degree - 1, 1),
                            nonconstant=True, rational_share=0.0)
            g = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
            eta = random_derivation(rng, dim, 2)
            mu = random_derivation(rng, dim, 2)
            if t not in trials:
                continue
            mod = mods[t % len(mods)]
            bindings = {
                "welldefined": {"eta": eta, "j": 1 + t % 3},
                "leibniz": {"eta": eta, "k": 1 + t % 2, "a_num": g, "a_exp": t % 3},
                "bracket": {"eta": eta, "mu": mu},
                "inverse-square": {"eta": eta},
                "inverse-cube": {"eta": eta},
                "restriction": {"eta": (f ** 2) * mu, "eta_exp": 2,
                                "mu": g * mu, "mu_exp": 1, "g": g},
            }
            for name in ids:
                yield dim, t, verify_localized(name, mod, f, bindings[name])


def _negative_control(ids, config: RunConfig, trials: range):
    """A deliberately corrupted commutator identity on a fixed instance in
    dimension 1, with no trial; it runs in the share that holds trial 0.

    The sign of the level-p correction term is flipped, so the check must
    fail with a nonzero witness; a passing run here means the harness has
    gone vacuous.
    """
    if 0 not in trials:
        return
    x = Poly.variable(1, 1)
    dd = Derivation.partial(1, 1)
    eta, mu, p, q = dd, x * dd, 1, 1
    lhs = smash_bracket(omega(p, x, eta), omega(q, x, mu))
    # the planted fault: the p-term of lemma 3's right-hand side with its sign flipped
    rhs = _lemma3_rhs(x, eta, mu, p, q) - 2 * p * omega(p + q - 1, x, mu.apply(x) * eta)
    yield 1, None, _report(
        "negative-control-lemma3",
        {"f": str(x), "eta": str(eta), "mu": str(mu), "p": "1", "q": "1"},
        _smash_witness(lhs - rhs))


# check family: its check ids -> the generator of its (dim, trial, report),
# called with the ids a suite selects from the family, the config and the trials
_FAMILIES = {
    IDENTITY_IDS: _identity_reports,
    ("omega-coherence",): _coherence_reports,
    LOCALIZED_CHECK_IDS: _localized_reports,
    ("negative-control",): _negative_control,
}


# suite name -> the ids of the checks it runs
SUITE_CHECKS = {
    "lemma2": ("lemma2-commute-A",),
    "lemma3": ("lemma3-commutator",),
    "lemma4": ("lemma4-1", "lemma4-2", "lemma4-3", "lemma4-4", "lemma4-5"),
    "lemma4-1": ("lemma4-1",),
    "lemma4-2": ("lemma4-2",),
    "lemma4-3": ("lemma4-3",),
    "lemma4-4": ("lemma4-4",),
    "lemma4-5": ("lemma4-5",),
    "lemma5": ("lemma5-deriv-bracket",),
    "lemma4.1": ("lemma4.1-recurrence",),
    "identities": IDENTITY_IDS,
    "omega-coherence": ("omega-coherence",),
    **{name: (name,) for name in LOCALIZED_CHECK_IDS},
    "localized": LOCALIZED_CHECK_IDS,
    "negative-control": ("negative-control",),
    "all": IDENTITY_IDS + ("omega-coherence",) + LOCALIZED_CHECK_IDS,
}

SUITE_NAMES = tuple(SUITE_CHECKS)


def _checks_of(name: str) -> tuple[str, ...]:
    """The ids of the checks suite ``name`` runs; ValueError if it is unknown."""
    if name not in SUITE_CHECKS:
        raise ValueError(f"unknown suite {name!r} (known: {', '.join(SUITE_NAMES)})")
    return SUITE_CHECKS[name]


def plan_suites(selection: str, config: RunConfig) -> list[str]:
    """The suites of a comma-separated selection, in order.  ValueError when
    it names none, or a suite that is unknown, given twice, repeats checks of
    an earlier one (they would count twice) or runs no check at config.dims
    (it would pass vacuously)."""
    suites = [s for s in selection.split(",") if s]
    if not suites:
        raise ValueError("no suite selected")
    owner = {}  # check id -> the first selected suite that runs it
    for s in suites:
        checks = _checks_of(s)
        first = next((owner[c] for c in checks if c in owner), None)
        if first == s:
            raise ValueError(f"suite {s!r} given twice")
        if first is not None:
            raise ValueError(f"suite {s!r} repeats checks of suite {first!r}")
        if set(checks) <= set(LOCALIZED_CHECK_IDS) and not set(config.dims) & set(LOCALIZED_DIMS):
            raise ValueError(
                f"suite {s!r} runs no check at dims {','.join(map(str, config.dims))}: "
                f"the localized checks run at dims {' and '.join(map(str, LOCALIZED_DIMS))} only")
        owner.update(dict.fromkeys(checks, s))
    return suites


def run_suite(name: str, config: RunConfig, share=(0, 1)) -> list[VerificationReport]:
    """Run one named suite: each check family it selects, in table order,
    every report tagged with its dim and, unless it has none, its trial.
    ``share`` (k, n) runs trials k*T//n <= t < (k+1)*T//n, T = config.trials,
    in every dim: the n shares make between them the reports of the run (0, 1)."""
    k, n = share
    if not 0 <= k < n:
        raise ValueError(f"there is no share {k} of {n}")
    trials = range(k * config.trials // n, (k + 1) * config.trials // n)
    checks = _checks_of(name)
    reports = []
    for ids, family in _FAMILIES.items():
        selected = [c for c in checks if c in ids]
        if selected:
            for dim, trial, report in family(selected, config, trials):
                inputs = {**report.inputs, "dim": str(dim)}
                if trial is not None:  # the negative control has none
                    inputs["trial"] = str(trial)
                reports.append(dataclasses.replace(report, inputs=inputs))
    return reports
