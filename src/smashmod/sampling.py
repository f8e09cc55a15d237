"""Seeded random polynomials and vector fields for the verification sweeps.

Everything is driven by ``random.Random`` seeded from a string, so a given
(seed, suite, dim) triple reproduces byte-identical draws on any platform.
Samples are kept sparse (few terms, mixed integer and small rational
coefficients): the identities are multilinear in the coefficients, so sparse
instances exercise them fully while keeping the exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Derivation, Poly

_COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)
_DENOMS = (2, 3, 4)


def seeded_rng(seed: int, *tags) -> random.Random:
    """A deterministic generator namespaced by the given tags."""
    return random.Random("|".join([str(seed), *map(str, tags)]))


def random_coefficient(rng: random.Random, rational_share: float = 0.2):
    c = rng.choice(_COEFFS)
    if rng.random() < rational_share:
        return Fraction(c, rng.choice(_DENOMS))
    return c


def random_exponents(rng: random.Random, dim: int, max_degree: int,
                     min_degree: int = 0) -> tuple[int, ...]:
    total = rng.randint(min_degree, max_degree)
    exps = [0] * dim
    for _ in range(total):
        exps[rng.randrange(dim)] += 1
    return tuple(exps)


def random_poly(rng: random.Random, dim: int, max_degree: int, nonconstant: bool = False,
                rational_share: float = 0.2) -> Poly:
    """A nonzero polynomial of one or two terms."""
    for _ in range(64):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = random_exponents(rng, dim, max_degree,
                                    min_degree=1 if nonconstant else 0)
            terms[exps] = terms.get(exps, 0) + random_coefficient(rng, rational_share)
        p = Poly(dim, terms)
        if p.is_zero() or (nonconstant and p.is_constant()):
            continue
        return p
    raise RuntimeError("sampling failed to satisfy the requested constraints")


def random_derivation(rng: random.Random, dim: int, max_degree: int) -> Derivation:
    """A nonzero vector field, usually supported on a single direction."""
    if dim == 1 or rng.random() < 0.6:
        support = [rng.randrange(dim)]
    else:
        support = sorted(rng.sample(range(dim), 2))
    coeffs = [Poly.zero(dim) for _ in range(dim)]
    for i in support:
        coeffs[i] = random_poly(rng, dim, max_degree)
    return Derivation(tuple(coeffs))

