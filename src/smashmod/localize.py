"""Localization of a validated module at a fixed nonzero polynomial f.

Fractions are pairs (numerator, k) standing for numerator / f^k, kept over
the single base f (principal open sets only).  No result is reduced: sums,
products and actions keep the power of f they were built over, and ``==``
compares numerators over the larger power.  Only ``str`` and ``reduce`` make
the normal form, cancelling f by exact trial division.  Internal results skip
the checks of the public constructors, which their operands have passed.

The localized vector-field action is the finite series

    (eta / f^k) m  =  sum_{p=0}^{N} omega(p, f^k, eta) m / f^{k(p+1)},

cut off at the module order N: beyond it the terms annihilate because the
doubled components vanish on the diagonal to order p > N.  Over the common
denominator f^{k(N+1)} the levels are one smash element S # eta, with
S = sum_p f(x)^{k(N-p)} (f(x)^k - f(y)^k)^p: a function of x only scales
the action.  At k = 0, S = 1 and the series is eta itself.  The operator
pair of S # eta depends on (f, k, eta) only, so ``LocalizedModule.operator``
builds it once as a ``LocalizedOperator`` with the power of f under it, and
``act`` applies it to each element.  Elements with denominators act through
the quotient rule (eta/f^k)(m/f^l) = -l eta(f)/f^{k+l+1} m + f^{-l} (eta/f^k)(m).
The inverse checks build eta/f^k a second way, re-expanded in powers of f as
sum_p C(p+k-1, k-1) omega(p, f, eta) / f^{p+k}, and apply both through ``act``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, NamedTuple

from .poly import (
    Derivation,
    DimensionMismatch,
    Poly,
    PolyError,
    _is_int,
    _sum_products,
    embed_coefficient,
    embed_function,
)
from .modules import AVModule, ModuleElement, Operator
from .smash import SmashElement, VerificationReport, _bind, _report

__all__ = [
    "LocalizedPoly",
    "LocalizedDerivation",
    "LocalizedModuleElement",
    "LocalizedModule",
    "apply_localized_derivation",
    "extend_base",
    "verify_localized",
    "LOCALIZED_CHECK_IDS",
]


class BaseMismatch(PolyError):
    """Operands live over different localizing polynomials."""


def _check_base(a, b):
    if a.base != b.base:
        raise BaseMismatch("localized values have different bases")


class _LocalizedFraction:
    """numerator / base^denom_exp over the fixed localizing polynomial.

    The one place that decides how such a fraction is checked, reduced,
    compared, added, scaled and printed.  The numerator is a Poly, a
    Derivation or a ModuleElement; each has an ``exact_divide`` by a Poly,
    componentwise for a tuple, which only the normal form calls.
    """

    __slots__ = ("base", "numerator", "denom_exp")
    # whether __str__ parenthesizes the numerator
    _paren = True

    def __init__(self, base: Poly, numerator, denom_exp: int):
        if base.is_zero():
            raise ZeroDivisionError("localizing polynomial must be nonzero")
        self._check_numerator(base, numerator)
        if not _is_int(denom_exp, 0):
            raise ValueError(f"denominator exponent must be a nonnegative integer "
                             f"(got {denom_exp!r})")
        self.base = base
        self.numerator = numerator
        self.denom_exp = denom_exp

    def _check_numerator(self, base: Poly, numerator):
        if numerator.dim != base.dim:
            raise DimensionMismatch("numerator and base disagree on dim")

    def _new(self, base: Poly, numerator, denom_exp: int):
        """A value of the same type, without the constructor's checks."""
        out = object.__new__(type(self))
        out.base, out.numerator, out.denom_exp = base, numerator, denom_exp
        return out

    def _reduce(self):
        """Normal form: cancel the base out of every component of the
        numerator at once (value-preserving), while it divides them all."""
        num, k = self.numerator, self.denom_exp
        while k:
            q = num.exact_divide(self.base)
            if q is None:
                break
            num, k = q, k - 1
        return self._new(self.base, num, k)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def _same_space(self, other) -> bool:
        return self.base == other.base

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        k = max(self.denom_exp, other.denom_exp)
        return self._same_space(other) and self._over(k) == other._over(k)

    __hash__ = None

    def _over(self, k: int):
        """The numerator over base^k, for k >= denom_exp."""
        e = k - self.denom_exp
        if not e or self.is_zero():
            return self.numerator
        return self.numerator * self.base ** e

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self._same_space(other):
            raise BaseMismatch("localized values have different bases or modules")
        k = max(self.denom_exp, other.denom_exp)
        return self._new(self.base, self._over(k) + other._over(k), k)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._new(self.base, -self.numerator, self.denom_exp)

    def __mul__(self, other):
        if isinstance(other, LocalizedPoly):
            _check_base(self, other)
            return self._new(self.base, self.numerator * other.numerator,
                             self.denom_exp + other.denom_exp)
        if isinstance(other, (int, Fraction, Poly)):
            return self._new(self.base, self.numerator * other, self.denom_exp)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        r = self._reduce()  # values print in normal form
        if r.denom_exp == 0:
            return str(r.numerator)
        num = f"({r.numerator})" if self._paren else str(r.numerator)
        return f"{num} / ({self.base})^{r.denom_exp}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class LocalizedPoly(_LocalizedFraction):
    """numerator / base^denom_exp, over the fixed localizing polynomial."""

    __slots__ = ()

    def reduce(self) -> "LocalizedPoly":
        """Normal form: cancel the base out of the numerator (value-preserving)."""
        return self._reduce()


class LocalizedDerivation(_LocalizedFraction):
    """A vector field divided by a power of the base: numerator / base^k."""

    __slots__ = ()

    def reduce(self) -> "LocalizedDerivation":
        """Cancel the base out of all components simultaneously."""
        return self._reduce()


class LocalizedModuleElement(_LocalizedFraction):
    """A module element divided by a power of the base: numerator / base^l."""

    __slots__ = ("module",)
    _paren = False  # a ModuleElement prints its own parentheses

    def __init__(self, base: Poly, module: AVModule, numerator: ModuleElement, denom_exp: int):
        self.module = module
        super().__init__(base, numerator, denom_exp)

    def _check_numerator(self, base: Poly, numerator: ModuleElement):
        self.module._require_validated()
        if numerator.dim != base.dim or numerator.dim != self.module.dim:
            raise DimensionMismatch("numerator, base and module disagree on dim")
        if numerator.rank != self.module.rank:
            raise DimensionMismatch("element rank does not match the module")

    def _new(self, base: Poly, numerator: ModuleElement, denom_exp: int):
        out = super()._new(base, numerator, denom_exp)
        out.module = self.module
        return out

    def _same_space(self, other) -> bool:
        return self.base == other.base and self.module == other.module

    def reduce(self) -> "LocalizedModuleElement":
        return self._reduce()


def _series_operator(module: AVModule, g: Poly, eta: Derivation,
                     j: int = 1) -> tuple[Operator, int]:
    """eta/g^j on integral elements: the operator pair of
    sum_{u=0}^{N} C(u+j-1, j-1) * omega(u, g, eta) * g^{N-u}, N the module
    order, and the power N + j of g under it.

    The levels are the one element S # eta, with the doubled polynomial
    S = sum_u C(u+j-1, j-1) * g(x)^{N-u} * (g(x) - g(y))^u.  This holds
    because a function of x only scales the action, act_smash(a(x) * v, m) =
    a * act_smash(v, m), so the weighted levels sum to one smash element.
    """
    N, d = module.order, module.dim
    gx = embed_function(g)
    G = gx - embed_coefficient(g)
    gx_pow, G_pow = [Poly.constant(2 * d, 1)], [Poly.constant(2 * d, 1)]
    for _ in range(N):
        gx_pow.append(gx_pow[-1] * gx)
        G_pow.append(G_pow[-1] * G)
    S = _sum_products(2 * d, [(comb(u + j - 1, j - 1), gx_pow[N - u], G_pow[u])
                              for u in range(N + 1)])
    pair = module._smash_operator(SmashElement(d, (S * embed_coefficient(c) for c in eta.coeffs)))
    return pair, N + j


class LocalizedOperator(NamedTuple):
    """eta/f^k, built once and applied to any number of elements of one
    localized module: its series' pair over f^pair_exp, and eta(f) for the
    quotient-rule term.  A value: ``_replace`` builds a variant (``_inverse``)."""

    module: AVModule
    base: Poly
    denom_exp: int
    pair: Operator
    pair_exp: int
    eta_f: Poly


class LocalizedModule:
    """The localized module context: a validated module plus the base f."""

    __slots__ = ("module", "base")

    def __init__(self, module: AVModule, base: Poly):
        module._require_validated()
        if base.dim != module.dim:
            raise DimensionMismatch("base and module disagree on dim")
        if base.is_zero():
            raise ZeroDivisionError("localizing polynomial must be nonzero")
        self.module = module
        self.base = base

    def include(self, m: ModuleElement) -> LocalizedModuleElement:
        """Embed an integral element as m / f^0."""
        return LocalizedModuleElement(self.base, self.module, m, 0)

    def derivation(self, e: Derivation, denom_exp: int) -> LocalizedDerivation:
        return LocalizedDerivation(self.base, e, denom_exp)

    def operator(self, ed: LocalizedDerivation) -> LocalizedOperator:
        """Build eta/f^k once, to apply to any number of elements."""
        if ed.base != self.base:
            raise BaseMismatch("operands do not belong to this localized context")
        k, eta = ed.denom_exp, ed.numerator
        pair, exp = _series_operator(self.module, self.base ** k, eta)  # over (f^k)^exp
        return LocalizedOperator(self.module, self.base, k, pair, k * exp, eta.apply(self.base))

    def act(self, op: LocalizedOperator | LocalizedDerivation,
            me: LocalizedModuleElement) -> LocalizedModuleElement:
        """Apply eta/f^k, a LocalizedOperator or a LocalizedDerivation, to
        m/f^l through the finite annihilator series, with the quotient-rule
        term -l eta(f) m / f^{k+l+1}; the result is not reduced."""
        if isinstance(op, LocalizedDerivation):
            op = self.operator(op)
        if op.base != self.base or me.base != self.base:
            raise BaseMismatch("operands do not belong to this localized context")
        if op.module != self.module:
            raise BaseMismatch("operator does not belong to this module")
        if me.module != self.module:
            raise BaseMismatch("element does not belong to this module")
        f, l, m = self.base, me.denom_exp, me.numerator
        series = me._new(f, self.module._apply(op.pair, m), op.pair_exp + l)
        if l:  # l = 0 skips adding a zero term
            return series + me._new(f, m * (-l * op.eta_f), op.denom_exp + l + 1)
        return series


def apply_localized_derivation(ed: LocalizedDerivation, a: LocalizedPoly) -> LocalizedPoly:
    """(eta/f^k)(g/f^j) = (eta(g) f - j g eta(f)) / f^{k+j+1}, not reduced."""
    _check_base(ed, a)
    f = ed.base
    eta, k = ed.numerator, ed.denom_exp
    g, j = a.numerator, a.denom_exp
    num = eta.apply(g) * f - (j * g) * eta.apply(f)
    return LocalizedPoly(f, num, k + j + 1)


def extend_base(value, extra: Poly):
    """Rewrite a localized value over base f as one over base f*extra.

    n / f^k maps to n * extra^k / (f*extra)^k; used to compare localizations
    at different polynomials inside their common refinement.
    """
    if extra.is_zero():
        raise ZeroDivisionError("base factor must be nonzero")
    return value._new(value.base * extra, value.numerator * extra ** value.denom_exp,
                      value.denom_exp)


# ---------------------------------------------------------------------------------
# exact checks of the localized-action laws
# ---------------------------------------------------------------------------------

# Each law takes the localized context, f and the bindings its signature names
# (with the defaults of the optional ones), builds its operators once and
# returns sides(me): the two sides of the law on the integral element me.

def _welldefined(context: LocalizedModule, f: Poly, eta: Derivation, j=1):
    # eta f^j / f^j, unreduced on purpose
    scaled = context.operator(LocalizedDerivation(f, (f ** j) * eta, j))
    plain = context.operator(LocalizedDerivation(f, eta, 0))
    return lambda me: (context.act(scaled, me), context.act(plain, me))


def _leibniz(context: LocalizedModule, f: Poly, eta: Derivation, a_num: Poly, k=1, a_exp=1):
    a = LocalizedPoly(f, a_num, a_exp)
    ed = LocalizedDerivation(f, eta, k)
    da = apply_localized_derivation(ed, a)
    op = context.operator(ed)
    return lambda me: (context.act(op, a * me), da * me + a * context.act(op, me))


def _bracket(context: LocalizedModule, f: Poly, eta: Derivation, mu: Derivation):
    ed = context.operator(LocalizedDerivation(f, eta, 1))
    md = context.operator(LocalizedDerivation(f, mu, 1))
    rhs_parts = [context.operator(LocalizedDerivation(f, num, exp)) for num, exp in (
        (-eta.apply(f) * mu, 3), (mu.apply(f) * eta, 3), (eta.bracket(mu), 2))]

    def sides(me):
        lhs = context.act(ed, context.act(md, me)) - context.act(md, context.act(ed, me))
        a, b, c = (context.act(op, me) for op in rhs_parts)
        return lhs, a + b + c
    return sides


def _inverse(k: int):
    """The law that eta/f^k, built as the series in f^k and re-expanded in
    powers of f, acts the same both ways: the two operators differ only in
    the series, the pair and the power of f under it."""
    def law(context: LocalizedModule, f: Poly, eta: Derivation):
        in_f_k = context.operator(LocalizedDerivation(f, eta, k))
        pair, exp = _series_operator(context.module, f, eta, k)
        in_f = in_f_k._replace(pair=pair, pair_exp=exp)
        return lambda me: (context.act(in_f_k, me), context.act(in_f, me))
    return law


def _restriction(context: LocalizedModule, f: Poly, eta: Derivation, mu: Derivation, g: Poly,
                 eta_exp=0, mu_exp=0):
    if g.is_zero():
        raise ZeroDivisionError("second localizing polynomial must be nonzero")
    if eta * (g ** mu_exp) != mu * (f ** eta_exp):
        raise ValueError("representatives are not equal in the common localization")
    context_g = LocalizedModule(context.module, g)
    ed_f = context.operator(LocalizedDerivation(f, eta, eta_exp))
    ed_g = context_g.operator(LocalizedDerivation(g, mu, mu_exp))
    # f*g == g*f structurally, so both sides live over the same base
    return lambda me: (extend_base(context.act(ed_f, me), g),
                       extend_base(context_g.act(ed_g, context_g.include(me.numerator)), f))


# check id -> (law, integer bindings, least value), bound by smash._bind
_LAWS = {
    "welldefined": (_welldefined, ("j",), 1),
    "leibniz": (_leibniz, ("k", "a_exp"), 0),
    "bracket": (_bracket, (), 0),
    "inverse-square": (_inverse(2), (), 0),
    "inverse-cube": (_inverse(3), (), 0),
    "restriction": (_restriction, ("eta_exp", "mu_exp"), 0),
}

LOCALIZED_CHECK_IDS = tuple(_LAWS)


def verify_localized(name: str, module: AVModule, f: Poly,
                     inputs: Mapping) -> VerificationReport:
    """Check one localized-action law exactly on a basis and x_k-multiples.

    Check ids: welldefined (representation independence of eta f^j / f^j),
    leibniz (against a localized scalar), bracket (the [eta/f, mu/f]
    expansion), inverse-square / inverse-cube (eta/f^2 and eta/f^3 as the
    series in f^k against its re-expansion in powers of f, with weights u+1
    and (u+1)(u+2)/2, both applied by ``act``), and restriction (actions of
    equal representatives over two bases agree in the common refinement).
    ``inputs`` binds the parameters of the law's function in ``_LAWS``
    after (context, f); the report echoes the ones given.
    """
    if name not in _LAWS:
        raise ValueError(f"unknown localized check id {name!r}")
    row = _LAWS[name]
    context = LocalizedModule(module, f)
    bound = _bind("check", name, row, inputs, 2)
    sides = row[0](context, f, **bound)
    echoed = {"module": module.name or "<anonymous>", "f": str(f)}
    echoed |= {p: str(v) for p, v in bound.items()}
    basis = module.basis()  # each law is tested on the basis and on x_k * basis
    for v in basis + [Poly.variable(module.dim, k) * b for k in range(1, module.dim + 1)
                      for b in basis]:
        lhs, rhs = sides(context.include(v))
        if lhs != rhs:
            return _report(f"localized-{name}", echoed,
                           {"vector": str(v), "difference": str(lhs - rhs)})
    return _report(f"localized-{name}", echoed, None)
