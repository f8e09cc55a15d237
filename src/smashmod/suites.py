"""Deterministic verification suites over seeded random instances.

A suite runs the checks of one or more sampled families (bracket identities,
closed-form coherence, localized-action laws) over exhaustive small levels
(p, q) and seeded random polynomial data, and a fixed negative control.  Each
family is a stream of (dim, trial, sample) from its own seed plus a check of
one sample; ``run_suite`` alone keeps a share's trials, tags each report with
its dim and trial and collects them.  Identical (seed, config) reproduce the
exact same reports, in one run or split into shares of trials.
"""

from __future__ import annotations

from typing import NamedTuple

from .localize import LOCALIZED_CHECK_IDS, verify_localized
from .modules import (
    AVModule,
    differential_forms,
    jet_module,
    tangent_adjoint,
    trivial_dmodule,
)
from .poly import _MASK, Derivation, Poly, _is_int
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


class _RunConfigFields(NamedTuple):  # RunConfig's fields and defaults, unchecked
    dims: tuple[int, ...] = (1, 2, 3)
    max_degree: int = 4
    trials: int = 100
    seed: int = 2026
    p_max: int = 4


class RunConfig(_RunConfigFields):
    """Knobs for a verification run, checked on construction (ValueError);
    identical configs give identical reports."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        dims, *numbers = super().__new__(cls, *args, **kwargs)
        if not isinstance(dims, (tuple, list)) or not dims \
                or not all(_is_int(d, 1) for d in dims):
            raise ValueError("dims must be a nonempty list of positive integers")
        for i, d in enumerate(dims):
            if d in dims[:i]:
                raise ValueError(f"dimension {d} given twice")
        for field, value in zip(cls._fields[1:], numbers):
            if not _is_int(value):
                raise ValueError(f"{field} must be an integer (got {value!r})")
        max_degree, trials, _, p_max = numbers
        if not 1 <= max_degree <= _MASK:
            raise ValueError(f"max degree must be in 1..{_MASK}, the exponent limit "
                             f"(got {max_degree})")
        for field, value in (("trials", trials), ("p_max", p_max)):
            if value < 1:
                raise ValueError(f"{field} must be >= 1")
        return super().__new__(cls, tuple(dims), *numbers)

    def to_dict(self) -> dict:
        return {**self._asdict(), "dims": list(self.dims)}


def iter_identity_samples(config: RunConfig):
    """The seeded sample stream behind the identity suites.

    Yields (dim, trial, bindings) with bindings holding f, g, h, eta, mu and
    the levels p, q; the (p, q) grid 1..p_max x 1..p_max is cycled so that
    trials >= p_max^2 covers it exhaustively in every dimension.
    """
    for dim in config.dims:
        rng = seeded_rng(config.seed, "identities", dim)
        for t in range(config.trials):
            f = random_poly(rng, dim, config.max_degree)
            g = random_poly(rng, dim, config.max_degree)
            h = random_poly(rng, dim, config.max_degree)
            eta = random_derivation(rng, dim, config.max_degree)
            mu = random_derivation(rng, dim, config.max_degree)
            p, q = divmod(t % config.p_max ** 2, config.p_max)  # row-major, from 0
            yield dim, t, dict(f=f, g=g, h=h, eta=eta, mu=mu, p=p + 1, q=q + 1)


def _check_identities(ids, bound) -> list[VerificationReport]:
    """The named bracket identities, all on one sample of iter_identity_samples."""
    return [verify_identity(name, bound) for name in ids]


def _coherence_samples(config: RunConfig):
    for dim in config.dims:
        rng = seeded_rng(config.seed, "coherence", dim)
        for t in range(config.trials):
            f = random_poly(rng, dim, config.max_degree)
            eta = random_derivation(rng, dim, config.max_degree)
            fs = tuple(random_poly(rng, dim, config.max_degree)
                       for _ in range(1 + t % 3))
            yield dim, t, (f, eta, fs, t % (config.p_max + 1))


def _check_coherence(ids, sample) -> list[VerificationReport]:
    """Closed forms against the definitional constructions: the alternating
    binomial sum for omega, the iterated tensor action for the multi-function
    product, and the collapse of the product form onto equal functions."""
    f, eta, fs, p = sample
    single = _report(
        "omega-coherence", {"f": str(f), "eta": str(eta), "p": str(p)},
        _smash_witness(omega(p, f, eta), omega_definitional(p, f, eta)))
    multi = _smash_witness(omega_multi(fs, eta), omega_multi_definitional(fs, eta))
    collapse = _smash_witness(omega_multi((f,) * max(p, 1), eta), omega(max(p, 1), f, eta))
    return [single, _report(
        "omega-multi-coherence",
        {"fs": "; ".join(str(x) for x in fs), "f": str(f), "eta": str(eta),
         "p": str(max(p, 1))},
        multi or collapse)]


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


def _localized_samples(config: RunConfig):
    """A small zoo module, cycled per trial, with the trial and f, g, eta,
    mu; dimensions outside LOCALIZED_DIMS are skipped."""
    for dim in [d for d in config.dims if d in LOCALIZED_DIMS]:
        mods = _localized_modules(dim)
        rng = seeded_rng(config.seed, "localized", dim)
        for t in range(config.trials):
            f = random_poly(rng, dim, max(config.max_degree - 1, 1),
                            nonconstant=True, rational_share=0.0)
            g = random_poly(rng, dim, 2, nonconstant=True, rational_share=0.0)
            eta = random_derivation(rng, dim, 2)
            mu = random_derivation(rng, dim, 2)
            yield dim, t, (mods[t % len(mods)], t, f, g, eta, mu)


def _check_localized(ids, sample) -> list[VerificationReport]:
    """The localized-action checks on one zoo module."""
    mod, t, f, g, eta, mu = sample
    bindings = {
        "welldefined": {"eta": eta, "j": 1 + t % 3},
        "leibniz": {"eta": eta, "k": 1 + t % 2, "a_num": g, "a_exp": t % 3},
        "bracket": {"eta": eta, "mu": mu},
        "inverse-square": {"eta": eta},
        "inverse-cube": {"eta": eta},
        "restriction": {"eta": (f ** 2) * mu, "eta_exp": 2,
                        "mu": g * mu, "mu_exp": 1, "g": g},
    }
    return [verify_localized(name, mod, f, bindings[name]) for name in ids]


def _negative_control() -> VerificationReport:
    """A deliberately corrupted commutator identity on a fixed instance in
    dimension 1, with no trial.  The sign of the level-p correction term is
    flipped, so the check must fail with a nonzero witness; a passing run
    here means the harness has gone vacuous."""
    x = Poly.variable(1, 1)
    dd = Derivation.partial(1, 1)
    eta, mu, p, q = dd, x * dd, 1, 1
    lhs = smash_bracket(omega(p, x, eta), omega(q, x, mu))
    # the planted fault: the p-term of lemma 3's right-hand side with its sign flipped
    rhs = _lemma3_rhs(x, eta, mu, p, q) - 2 * p * omega(p + q - 1, x, mu.apply(x) * eta)
    return _report(
        "negative-control-lemma3",
        {"f": str(x), "eta": str(eta), "mu": str(mu), "p": "1", "q": "1", "dim": "1"},
        _smash_witness(lhs, rhs))


# sampled family: its check ids -> (stream, check).  The stream yields (dim,
# trial, sample) over the config's whole seeded stream; the check returns the
# reports of one sample for the ids a suite selects from the family.
_FAMILIES = {
    IDENTITY_IDS: (iter_identity_samples, _check_identities),
    ("omega-coherence",): (_coherence_samples, _check_coherence),
    LOCALIZED_CHECK_IDS: (_localized_samples, _check_localized),
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


def max_shares(suites: list[str], config: RunConfig) -> int:
    """The most shares (see ``run_suite``) that can each hold a check of the
    suites: one per trial, or 1 when the negative control, which has no
    trial, is all they run."""
    if all(_checks_of(s) == ("negative-control",) for s in suites):
        return 1
    return config.trials


def run_suite(name: str, config: RunConfig, share=(0, 1)) -> list[VerificationReport]:
    """Run one named suite: each sampled family it selects, in table order,
    every report tagged with its dim and trial, then the negative control.
    ``share`` (k, n) checks trials k*T//n <= t < (k+1)*T//n, T = config.trials,
    in every dim, and the negative control in the share with trial 0: the n
    shares make between them the reports of the run (0, 1)."""
    k, n = share
    if not 0 <= k < n:
        raise ValueError(f"there is no share {k} of {n}")
    trials = range(k * config.trials // n, (k + 1) * config.trials // n)
    checks = _checks_of(name)
    reports = []
    for ids, (stream, check) in _FAMILIES.items():
        selected = [c for c in checks if c in ids]
        if selected:
            for dim, trial, sample in stream(config):
                if trial in trials:
                    tags = {"dim": str(dim), "trial": str(trial)}
                    texts = {}  # the first of each equal echoed text of the sample
                    reports.extend(
                        r._replace(inputs={k: texts.setdefault(v, v)
                                           for k, v in {**r.inputs, **tags}.items()})
                        for r in check(selected, sample))
    if "negative-control" in checks and 0 in trials:
        reports.append(_negative_control())
    return reports
