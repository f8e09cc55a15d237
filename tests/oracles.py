"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity through a different route than the library
uses: term-by-term expansion instead of closed forms, bracket compatibility
by applying the action to sampled monomial fields instead of the structure
equations, quotient-rule calculus on rational one-forms instead of the
localized series, the localized series one level at a time instead of as
one smash element, triangular solves from jet prolongations instead of the
closed binomial tensor, long division on unpacked exponents with Fraction
quotients instead of tests on packed keys, and exact evaluation at a point
instead of products of terms.  The seeded samplers at the end draw inputs
that only the tests need, among them gauge-equivalent copies of a module:
its tensor conjugated by a unipotent polynomial matrix.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Sequence

from smashmod import (
    AVModule,
    Derivation,
    LocalizedPoly,
    ModuleElement,
    Poly,
    SmashElement,
    from_term,
    multi_indices,
)
from smashmod.modules import Matrix, _direction
from smashmod.poly import (
    Coeff,
    MultiIndex,
    _sum_products,
    embed_coefficient,
    embed_function,
)
from smashmod.sampling import random_coefficient, random_exponents, random_poly
from smashmod.smash import VerificationReport


def decompose_terms(u: SmashElement) -> list[tuple[Poly, Derivation]]:
    """Split a canonical element into monomial terms f # g*d_i."""
    dim = u.dim
    out = []
    for i, comp in enumerate(u.components):
        for exps, c in comp.items():
            fx = Poly.monomial(dim, exps[:dim], c)
            gy = Poly.monomial(dim, exps[dim:], 1)
            coeffs = [Poly.zero(dim)] * dim
            coeffs[i] = gy
            out.append((fx, Derivation(tuple(coeffs))))
    return out


def naive_smash_bracket(u: SmashElement, v: SmashElement) -> SmashElement:
    """[f#eta, g#mu] = fg#[eta,mu] + f eta(g)#mu - g mu(f)#eta, summed over
    all monomial term pairs of the two operands."""
    acc = SmashElement.zero(u.dim)
    for f, eta in decompose_terms(u):
        for g, mu in decompose_terms(v):
            acc = acc + from_term(f * g, eta.bracket(mu))
            acc = acc + from_term(f * eta.apply(g), mu)
            acc = acc - from_term(g * mu.apply(f), eta)
    return acc


def act_smash_by_terms(module: AVModule, u: SmashElement, m: ModuleElement) -> ModuleElement:
    """Apply u by expanding into terms and summing f * rho(eta)(m)."""
    acc = ModuleElement.zero(module.dim, module.rank)
    for f, eta in decompose_terms(u):
        acc = acc + f * module.act_derivation(eta, m)
    return acc


def spanning_vectors(module: AVModule) -> list[ModuleElement]:
    """The basis and its multiples x_k * basis.

    A first-order operator that kills the basis has no matrix part, and one
    that then kills x_k * basis has no symbol either, so both samplers below
    test their operator identities on these vectors.
    """
    vectors = module.basis()
    for k in range(1, module.dim + 1):
        xk = Poly.variable(module.dim, k)
        vectors.extend(xk * b for b in module.basis())
    return vectors


def annihilates_by_sampling(module: AVModule, u: SmashElement) -> bool:
    """Annihilation decided by applying u to a spanning family."""
    return all(act_smash_by_terms(module, u, v).is_zero() for v in spanning_vectors(module))


def validate_by_sampling(module: AVModule) -> VerificationReport:
    """Bracket compatibility decided by applying the action to sampled fields.

    The defect [rho(g d_i), rho(h d_j)] - rho([g d_i, h d_j]) is A-linear
    in the argument and bilinear in the order-(N+1) jets of (g, h), so
    vanishing on all monomials of per-variable degree <= N+2 applied to
    the basis (and, as a redundant guard, to x_k * basis) proves it
    vanishes identically.  Never marks the module validated; the witness
    names the first failing (i, j, g, h, vector).
    """
    inputs = {"module": module.name or "<anonymous>", "dim": str(module.dim),
              "rank": str(module.rank), "order": str(module.order)}
    d = module.dim
    exps = product(range(module.order + 3), repeat=d)
    monos = [Poly.monomial(d, e) for e in exps]
    vectors = spanning_vectors(module)
    cache = {}

    def field(idx: int, gidx: int):
        """(g d_idx, its operator, its images of the test vectors), g = monos[gidx]."""
        got = cache.get((idx, gidx))
        if got is None:
            eta = _direction(d, idx, monos[gidx])
            op = module._field_operator(eta)
            got = cache[(idx, gidx)] = (eta, op, [module._apply(op, v) for v in vectors])
        return got

    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for gi, g in enumerate(monos):
                for hj, h in enumerate(monos):
                    if i == j and gi >= hj:
                        continue  # antisymmetric defect: ordered pairs suffice
                    eta, eta_op, eta_v = field(i, gi)
                    mu, mu_op, mu_v = field(j, hj)
                    lie_op = module._field_operator(eta.bracket(mu))
                    for t, v in enumerate(vectors):
                        defect = (module._apply(eta_op, mu_v[t]) - module._apply(mu_op, eta_v[t])
                                  - module._apply(lie_op, v))
                        if not defect.is_zero():
                            witness = {
                                "i": str(i), "j": str(j), "g": str(g), "h": str(h),
                                "vector": str(v), "defect": str(defect),
                            }
                            return VerificationReport(
                                "module-bracket-compatibility", inputs, "fail", witness)
    return VerificationReport("module-bracket-compatibility", inputs, "pass")


# -- rational one-forms on the line -------------------------------------------------

def localized_derivative(a: LocalizedPoly) -> LocalizedPoly:
    """d/dx of numerator/f^k by the quotient rule (dim 1)."""
    f, num, k = a.base, a.numerator, a.denom_exp
    return LocalizedPoly(
        f, num.partial_derivative(1) * f - (k * num) * f.partial_derivative(1),
        k + 1).reduce()


def lie_derivative_one_form(g: LocalizedPoly, a: LocalizedPoly) -> LocalizedPoly:
    """L_{g d}(a dx) = (g a' + a g') dx for rational g, a over the same base."""
    return g * localized_derivative(a) + a * localized_derivative(g)


# -- the localized series level by level ---------------------------------------------

def series_by_levels(module: AVModule, g: Poly, eta: Derivation, m: ModuleElement,
                     weights=None) -> ModuleElement:
    """sum_{u=0}^{N} w(u) * (omega(u, g, eta) m) * g^{N-u}, N the module order,
    with one action per level u, each scaled by g^{N-u} afterwards (the
    library applies the weighted sum as one smash element instead).
    """
    N = module.order
    d = module.dim
    G = embed_function(g) - embed_coefficient(g)
    g_pow = [Poly.constant(d, 1)]
    for _ in range(N):
        g_pow.append(g_pow[-1] * g)
    Gu = Poly.constant(2 * d, 1)
    parts = []  # (w(u), omega(u, g, eta) m, g^{N-u})
    for u in range(N + 1):
        smash_u = SmashElement(d, tuple(Gu * embed_coefficient(c) for c in eta.coeffs))
        parts.append((1 if weights is None else weights(u), module.act_smash(smash_u, m),
                      g_pow[N - u]))
        if u < N:
            Gu = Gu * G
    return ModuleElement(_sum_products(d, [(w, term.entries[j], scale) for w, term, scale in parts])
                         for j in range(module.rank))


# -- jets by brute-force prolongation ------------------------------------------------

def _falling(gamma: MultiIndex, beta: MultiIndex) -> int:
    out = 1
    for g, b in zip(gamma, beta):
        out *= factorial(g) // factorial(g - b)
    return out


def _le(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


def jet_tensor_by_prolongation(dim: int, n: int) -> dict[tuple[int, MultiIndex], Matrix]:
    """Reconstruct the jet action tensor from first principles.

    The jet of h is the vector of partials (d^beta h); the action must send
    the jet of h to the jet of g * d_i(h) and extend by the Leibniz rule.
    This routine expresses the basis slots through jets of monomials by a
    triangular solve, computes rho(x^alpha d_i) on them, and solves a second
    triangular system for the matrices D[i, alpha].
    """
    betas = multi_indices(dim, n)
    index = {b: a for a, b in enumerate(betas)}
    r = len(betas)

    def jet_vector(h: Poly) -> list[Poly]:
        out = []
        for beta in betas:
            p = h
            for i, e in enumerate(beta, start=1):
                for _ in range(e):
                    p = p.partial_derivative(i)
            out.append(p)
        return out

    # e_gamma = sum_delta coeff(x) * jet(x^delta), solved gradedly:
    # jet(x^gamma) = gamma! e_gamma + sum_{beta<gamma} falling(gamma,beta) x^{gamma-beta} e_beta
    expansions: dict[MultiIndex, dict[MultiIndex, Poly]] = {}
    for gamma in betas:
        fact = 1
        for g in gamma:
            fact *= factorial(g)
        combo: dict[MultiIndex, Poly] = {gamma: Poly.constant(dim, Fraction(1, fact))}
        for beta in betas:
            if beta == gamma or not _le(beta, gamma):
                continue
            scale = Poly.monomial(
                dim, tuple(g - b for g, b in zip(gamma, beta)),
                Fraction(-_falling(gamma, beta), fact))
            for delta, coeff in expansions[beta].items():
                prev = combo.get(delta, Poly.zero(dim))
                combo[delta] = prev + scale * coeff
        expansions[gamma] = combo

    def act_on_basis(i: int, g: Poly, gamma: MultiIndex) -> list[Poly]:
        # rho(g d_i)(e_gamma) via Leibniz over the monomial-jet expansion
        out = [Poly.zero(dim) for _ in range(r)]
        gd = Derivation(tuple(g if t == i - 1 else Poly.zero(dim) for t in range(dim)))
        for delta, coeff in expansions[gamma].items():
            mono = Poly.monomial(dim, delta)
            jv = jet_vector(mono)
            led = gd.apply(coeff)
            prolonged = jet_vector(g * mono.partial_derivative(i))
            for t in range(r):
                out[t] = out[t] + led * jv[t] + coeff * prolonged[t]
        return out

    tensor: dict[tuple[int, MultiIndex], Matrix] = {}
    for i in range(1, dim + 1):
        solved: dict[MultiIndex, list[list[Poly]]] = {}
        for alpha in multi_indices(dim, n):
            fact = 1
            for a in alpha:
                fact *= factorial(a)
            cols = []
            for gamma in betas:
                img = act_on_basis(i, Poly.monomial(dim, alpha), gamma)
                # remove the symbol part g * d_i(e_gamma) = 0 (basis is constant)
                for delta in multi_indices(dim, n):
                    if delta == alpha or not _le(delta, alpha):
                        continue
                    prev = solved.get(delta)
                    if prev is None:
                        continue
                    scale = Poly.monomial(
                        dim, tuple(a - dd for a, dd in zip(alpha, delta)),
                        _falling(alpha, delta))
                    for t in range(r):
                        img[t] = img[t] - scale * prev[index[gamma]][t]
                cols.append([p * Fraction(1, fact) for p in img])
            solved[alpha] = cols
            mat = tuple(tuple(cols[c][rr] for c in range(r)) for rr in range(r))
            # keep every nonzero solved matrix, level zero included, so any
            # spurious zeroth-order part would show up as a tensor mismatch
            if any(p.terms for row in mat for p in row):
                tensor[(i, alpha)] = mat
    return tensor


# -- exact division by plain long division ------------------------------------------

def exact_divide_by_long_division(p: Poly, divisor: Poly) -> Poly | None:
    """Quotient p/divisor when the division is exact, else None: long division
    on exponent tuples with the Fraction coefficients of the public view (the
    library divides integer numerators on packed keys)."""
    p._check(divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quot = long_divide(dict(p.items()), dict(divisor.items()))
    return None if quot is None else Poly(p.dim, quot)


def long_divide(num: dict[MultiIndex, Coeff],
                divisor: dict[MultiIndex, Coeff]) -> dict[MultiIndex, Fraction] | None:
    """{exponent tuple: coefficient} long division in graded-lex order (total
    degree, then lex): the exact quotient, or None when a leading term of the
    remainder is not divisible.  ``divisor`` is nonzero; zero terms are absent."""
    def lead(terms):
        return max(terms, key=lambda e: (sum(e), e))

    dexp = lead(divisor)
    dc = divisor[dexp]
    rem = {e: Fraction(c) for e, c in num.items()}
    quot: dict[MultiIndex, Fraction] = {}
    while rem:
        lexp = lead(rem)
        if any(le < de for le, de in zip(lexp, dexp)):
            return None
        qexp = tuple(le - de for le, de in zip(lexp, dexp))
        c = rem[lexp] / dc
        quot[qexp] = c
        for e, dcf in divisor.items():
            kk = tuple(q + f for q, f in zip(qexp, e))
            v = rem.get(kk, 0) - c * dcf
            if v:
                rem[kk] = v
            else:
                rem.pop(kk, None)
    return quot


# -- evaluation at a point -----------------------------------------------------------

def evaluate(p: Poly, point: Sequence[Coeff]) -> Fraction:
    """Exact value of p at a rational point (one value per variable)."""
    assert len(point) == p.dim
    total = Fraction(0)
    for exps, c in p.items():
        term = Fraction(c)
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


# -- seeded samples only the tests draw ----------------------------------------------

def random_poly_or_zero(rng: random.Random, dim: int, max_degree: int) -> Poly:
    """One or two random terms that may cancel to zero: the first draw of
    ``random_poly``, which would draw again on zero."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = random_exponents(rng, dim, max_degree)
        terms[exps] = terms.get(exps, 0) + random_coefficient(rng)
    return Poly(dim, terms)


def distinct_random_polys(rng: random.Random, dim: int, max_degree: int,
                          count: int) -> list[Poly]:
    """Pairwise distinct nonconstant polynomials of a shape that keeps
    products of count doubled difference factors small: a signed monomial
    plus a constant offset."""
    out: list[Poly] = []
    seen = set()
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("could not draw enough distinct polynomials")
        exps = random_exponents(rng, dim, max_degree, min_degree=1)
        c = rng.choice((-2, -1, 1, 2))
        b = rng.randint(-2, 2)
        key = (exps, c, b)
        if key in seen:
            continue
        seen.add(key)
        out.append(Poly(dim, {exps: c}) + Poly.constant(dim, b))
    return out


# -- gauge-equivalent modules --------------------------------------------------------

def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    r = range(len(a))
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in r), Poly.zero(a[i][j].dim))
                       for j in r) for i in r)


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(p + q for p, q in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_apply(a: Matrix, m: ModuleElement) -> ModuleElement:
    """The matrix a times the column m."""
    return ModuleElement((sum((p * e for p, e in zip(row, m.entries)), Poly.zero(m.dim))
                          for row in a), m.dim)


def unipotent_inverse(u: Matrix) -> Matrix:
    """U^-1 = sum_k N^k with N = 1 - U, which is nilpotent (N^rank = 0)."""
    r = range(len(u))
    eye = tuple(tuple(Poly.constant(u[a][b].dim, int(a == b)) for b in r) for a in r)
    n = tuple(tuple(e - p for e, p in zip(re, ru)) for re, ru in zip(eye, u))
    total, power = eye, eye
    for _ in r:
        power = _mat_mul(power, n)
        total = _mat_add(total, power)
    return total


def gauge(module: AVModule, u: Matrix, connection: bool = True) -> AVModule:
    """The module M^U, unvalidated, for an invertible polynomial matrix U:

        D'[i,alpha] = U^-1 D[i,alpha] U             for alpha != 0,
        D'[i,0]     = U^-1 D[i,0] U + U^-1 d_i(U),

    so that m -> U m maps M^U isomorphically onto M.  ``connection=False``
    drops the U^-1 d_i(U) term, which leaves a module that fails to validate
    whenever the tensor is nonzero and U is not constant.
    """
    inv = unipotent_inverse(u)
    tensor = {key: _mat_mul(_mat_mul(inv, mat), u) for key, mat in module.tensor.items()}
    if connection:
        zero_index = (0,) * module.dim
        for i in range(1, module.dim + 1):
            term = _mat_mul(inv, tuple(tuple(p.partial_derivative(i) for p in row) for row in u))
            old = tensor.get((i, zero_index))
            tensor[(i, zero_index)] = term if old is None else _mat_add(old, term)
    return AVModule(module.dim, module.rank, tensor, name=f"gauge({module.name})")


def random_unipotent(rng: random.Random, dim: int, rank: int, max_degree: int) -> Matrix:
    """Ones on the diagonal, seeded nonconstant polynomials of degree at most
    ``max_degree`` above it, zeros below."""
    one, zero = Poly.constant(dim, 1), Poly.zero(dim)
    return tuple(tuple(one if a == b else zero if a > b
                       else random_poly(rng, dim, max_degree, nonconstant=True)
                       for b in range(rank)) for a in range(rank))
