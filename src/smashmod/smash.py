"""The Lie algebra of function#vector-field pairs in canonical form.

An element sum_j f_j # eta_j (f_j a polynomial, eta_j a vector field in d
variables) is stored as d polynomials in 2d doubled variables: component i
collects sum_j f_j(x1..xd) * g_{j,i}(y1..yd), where g_{j,i} is the i-th
coefficient of eta_j.  The x-block carries the function tensor factor and
the y-block the vector-field coefficients, so two elements are equal exactly
when all d doubled polynomials are equal, and the A(x)A action
(a(x)b)(f # eta) = af # b*eta is plain multiplication by a(x)*b(y).

In this form the annihilator generators have closed components::

    omega(p, f, eta)      ->  (f(x) - f(y))^p * g_i(y)
    omega_multi(fs, eta)  ->  prod_j (f_j(x) - f_j(y)) * g_i(y)

and the commutator bracket is a first-order differential expression in the
doubled polynomials (derived by expanding [f#eta, g#mu] = fg#[eta,mu]
+ f*eta(g)#mu - g*mu(f)#eta term by term and collecting components).
"""

from __future__ import annotations

from math import comb
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .poly import (
    Derivation,
    DimensionMismatch,
    Poly,
    _PolyTuple,
    _format_terms,
    _sum_products,
    _x_names,
    embed_coefficient,
    embed_function,
    restrict_to_diagonal,
)

__all__ = [
    "SmashElement",
    "VerificationReport",
    "from_term",
    "smash_bracket",
    "omega",
    "omega_definitional",
    "omega_multi",
    "omega_multi_definitional",
    "tensor_act",
    "function_commutator",
    "verify_identity",
    "IDENTITY_IDS",
]


class SmashElement(_PolyTuple):
    """Canonical form of an element of the function#vector-field Lie algebra.

    ``components[i-1]`` is the doubled polynomial P_i(x, y); scaling by a
    doubled polynomial a(x)*b(y) is the A(x)A action.
    """

    __slots__ = ()
    components = property(attrgetter("_polys"))

    def __init__(self, dim: int, components: Iterable[Poly]):
        components = tuple(components)
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        if len(components) != dim:
            raise DimensionMismatch(f"{len(components)} components for dim {dim}")
        if any(c.dim != 2 * dim for c in components):
            raise DimensionMismatch("components must live in 2*dim doubled variables")
        self.dim = dim
        self._polys = components

    @classmethod
    def zero(cls, dim: int) -> "SmashElement":
        z = Poly.zero(2 * dim)
        return cls(dim, (z,) * dim)

    def __str__(self) -> str:
        names = _x_names(self.dim) + [f"y{i + 1}" for i in range(self.dim)]
        body = ", ".join(_format_terms(((c, None),), names) for c in self.components)
        return f"[{body}]"

    def __repr__(self) -> str:
        return f"SmashElement({self.dim}, {self})"


def from_term(f: Poly, e: Derivation) -> SmashElement:
    """The single term f # e, with component i equal to f(x)*g_i(y)."""
    if f.dim != e.dim:
        raise DimensionMismatch(f"dim {f.dim} vs {e.dim}")
    fx = embed_function(f)
    return SmashElement(f.dim, (fx * embed_coefficient(g) for g in e.coeffs))


def tensor_act(a: Poly, b: Poly, u: SmashElement) -> SmashElement:
    """(a tensor b) acting by af # b*eta: multiply component i by a(x)*b(y)."""
    if a.dim != u.dim or b.dim != u.dim:
        raise DimensionMismatch(f"dim {a.dim}/{b.dim} vs {u.dim}")
    return u * (embed_function(a) * embed_coefficient(b))


def smash_bracket(u: SmashElement, v: SmashElement) -> SmashElement:
    """Commutator bracket, computed on canonical components.

    With P_i, Q_i the components of u, v, component l of [u, v] is

        sum_i ( P_i dQ_l/dy_i - Q_i dP_l/dy_i
              + P_i|_{y=x} dQ_l/dx_i - Q_i|_{y=x} dP_l/dx_i ).

    The first pair comes from the vector-field bracket, the second from the
    eta(g) / mu(f) cross terms (where the function slot collapses products
    onto the diagonal).
    """
    u._check(v)
    d = u.dim
    P = u.components
    Q = v.components
    # P_i|_{y=x}, kept in the doubled variables as a function of x
    diagP = [embed_function(restrict_to_diagonal(p)) if p.terms else p for p in P]
    diagQ = [embed_function(restrict_to_diagonal(q)) if q.terms else q for q in Q]
    out = []
    for l in range(d):
        Ql = Q[l]
        Pl = P[l]
        triples = []
        for i in range(d):
            if P[i].terms:
                triples.append((1, P[i], Ql.partial_derivative(d + i + 1)))
            if Q[i].terms:
                triples.append((-1, Q[i], Pl.partial_derivative(d + i + 1)))
            if diagP[i].terms:
                triples.append((1, diagP[i], Ql.partial_derivative(i + 1)))
            if diagQ[i].terms:
                triples.append((-1, diagQ[i], Pl.partial_derivative(i + 1)))
        out.append(_sum_products(2 * d, triples))
    return SmashElement(d, out)


def omega(p: int, f: Poly, e: Derivation) -> SmashElement:
    """The annihilator element of level p for the pair (f, eta).

    Defined by the alternating sum over k of (-1)^k C(p,k) f^{p-k} # f^k eta;
    in canonical form component i is (f(x) - f(y))^p * g_i(y), which is what
    this constructor computes.  Level 0 is the plain embedding 1 # eta.
    """
    if p < 0:
        raise ValueError("level p must be nonnegative")
    if f.dim != e.dim:
        raise DimensionMismatch(f"dim {f.dim} vs {e.dim}")
    F = embed_function(f) - embed_coefficient(f)
    Fp = F ** p
    return SmashElement(f.dim, (Fp * embed_coefficient(g) for g in e.coeffs))


def omega_definitional(p: int, f: Poly, e: Derivation) -> SmashElement:
    """Same element built literally from the alternating binomial sum.

    Kept separate from omega() as the second route of the closed-form
    coherence check; do not fold the two together.
    """
    if p < 0:
        raise ValueError("level p must be nonnegative")
    if f.dim != e.dim:
        raise DimensionMismatch(f"dim {f.dim} vs {e.dim}")
    acc = SmashElement.zero(f.dim)
    fpow = [Poly.constant(f.dim, 1)]
    for _ in range(p):
        fpow.append(fpow[-1] * f)
    for k in range(p + 1):
        term = from_term(fpow[p - k], fpow[k] * e)
        acc = acc + ((-1) ** k * comb(p, k)) * term
    return acc


def omega_multi(fs: Sequence[Poly], e: Derivation) -> SmashElement:
    """Product form over several functions: component i is
    prod_j (f_j(x) - f_j(y)) * g_i(y).  Coincides with omega(p, f, e) when
    all p functions equal f."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one function")
    dim = e.dim
    prod = Poly.constant(2 * dim, 1)
    for f in fs:
        if f.dim != dim:
            raise DimensionMismatch(f"dim {f.dim} vs {dim}")
        prod = prod * (embed_function(f) - embed_coefficient(f))
    return SmashElement(dim, (prod * embed_coefficient(g) for g in e.coeffs))


def omega_multi_definitional(fs: Sequence[Poly], e: Derivation) -> SmashElement:
    """Product form built one factor at a time through the tensor action,
    u -> (f tensor 1)u - (1 tensor f)u.  Second route for coherence checks."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one function")
    one = Poly.constant(e.dim, 1)
    u = from_term(one, e)
    for f in fs:
        u = tensor_act(f, one, u) - tensor_act(one, f, u)
    return u


def function_commutator(u: SmashElement, g: Poly) -> Poly:
    """The pure-function part of [u, g#1], as a polynomial in x1..xd.

    For u = sum f#eta the commutator is sum f*eta(g) # 1; the vector-field
    part cancels identically.  Returns sum_i (P_i(x,y) * dg/dx_i(y))|_{y=x}.
    """
    if g.dim != u.dim:
        raise DimensionMismatch(f"dim {g.dim} vs {u.dim}")
    return restrict_to_diagonal(_sum_products(2 * u.dim, [
        (1, P, embed_coefficient(g.partial_derivative(i)))
        for i, P in enumerate(u.components, start=1)]))


# ---------------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------------

class VerificationReport(NamedTuple):
    """Outcome of one exact identity check.

    ``witness`` holds the serialized nonzero difference when the check fails
    and is None exactly when the status is "pass".
    """

    identity: str
    inputs: dict
    status: str
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"identity": self.identity, "inputs": dict(self.inputs), "status": self.status}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


def _report(identity: str, inputs: dict, witness: Optional[dict]) -> VerificationReport:
    """A report that passes exactly when there is no witness."""
    return VerificationReport(identity, inputs, "pass" if witness is None else "fail", witness)


def _smash_witness(diff: SmashElement) -> Optional[dict]:
    if diff.is_zero():
        return None
    return {"difference": str(diff)}


def _check_lemma2(f, g, eta, p):
    if p < 1:
        raise ValueError("lemma2-commute-A needs p >= 1")
    w = function_commutator(omega(p, f, eta), g)
    return None if w.is_zero() else {"scalar_part": str(w)}


def _lemma3_rhs(f, eta, mu, p, q):
    rhs = omega(p + q, f, eta.bracket(mu))
    rhs = rhs + p * omega(p + q - 1, f, mu.apply(f) * eta)
    rhs = rhs - q * omega(p + q - 1, f, eta.apply(f) * mu)
    return rhs


def _require_pq(name, p, q):
    if p < 1 or q < 1:
        raise ValueError(f"{name} needs p, q >= 1")


def _check_lemma3(f, eta, mu, p, q):
    _require_pq("lemma3-commutator", p, q)
    lhs = smash_bracket(omega(p, f, eta), omega(q, f, mu))
    return _smash_witness(lhs - _lemma3_rhs(f, eta, mu, p, q))


def _two_brackets(name, terms):
    """Checker of [omega_p(f,a), omega_q(f,b)] - [omega_p(f,c), omega_q(f,e)]
    = k * omega_{p+q}(f, r), where terms(**bindings) gives (a, b, c, e, k, r).

    omega and smash_bracket are looked up as module globals when the check
    runs, so a profiler that rebinds them sees every call.
    """
    def check(f, p, q, **bindings):
        _require_pq(name, p, q)
        a, b, c, e, k, r = terms(**bindings)
        lhs = smash_bracket(omega(p, f, a), omega(q, f, b)) \
            - smash_bracket(omega(p, f, c), omega(q, f, e))
        rhs = omega(p + q, f, r)
        return _smash_witness(lhs - (rhs if k == 1 else k * rhs))
    return check


def _lemma4_1(g, eta, mu):
    return eta, g * mu, g * eta, mu, 1, eta.apply(g) * mu + mu.apply(g) * eta


def _lemma4_2(g, h, eta):
    # Stated with the two brackets in the orientation the proof establishes:
    # [omega_p(f,eta), omega_q(f,gh eta)] - [omega_p(f,g eta), omega_q(f,h eta)].
    return eta, (g * h) * eta, g * eta, h * eta, 2, (h * eta.apply(g)) * eta


def _lemma4_3(g, eta):
    return eta, g * eta, g * eta, eta, 2, eta.apply(g) * eta


def _lemma4_4(g, h, eta):
    eh = eta.apply(h)
    return eta, (g * eh) * eta, g * eta, eh * eta, 2, (eta.apply(g) * eh) * eta


def _check_lemma4_5(f, g, h, eta, p, q):
    if p + q < 1:
        raise ValueError("lemma4-5 needs p + q >= 1")
    eh = eta.apply(h)
    lhs = omega(p + q, f, (g * eta.apply(eh)) * eta)
    rhs = omega(p + q, f, eta.apply(g * eh) * eta) \
        - omega(p + q, f, (eta.apply(g) * eh) * eta)
    return _smash_witness(lhs - rhs)


def _check_lemma5(f, eta, mu, p):
    if p < 1:
        raise ValueError("lemma5-deriv-bracket needs p >= 1")
    one = Poly.constant(f.dim, 1)
    lhs = smash_bracket(omega(p, f, eta), from_term(one, mu))
    muf = mu.apply(f)
    rhs = omega(p, f, eta.bracket(mu))
    rhs = rhs + p * omega(p - 1, f, muf * eta)
    rhs = rhs - p * tensor_act(muf, one, omega(p - 1, f, eta))
    return _smash_witness(lhs - rhs)


def _check_lemma4p1(f, eta, p):
    if p < 0:
        raise ValueError("lemma4.1-recurrence needs p >= 0")
    one = Poly.constant(f.dim, 1)
    lhs = omega(p, f, f * eta)
    rhs = tensor_act(f, one, omega(p, f, eta)) - omega(p + 1, f, eta)
    return _smash_witness(lhs - rhs)


_IDENTITIES = {
    "lemma2-commute-A": (("f", "g", "eta", "p"), _check_lemma2),
    "lemma3-commutator": (("f", "eta", "mu", "p", "q"), _check_lemma3),
    "lemma4-1": (("f", "g", "eta", "mu", "p", "q"), _two_brackets("lemma4-1", _lemma4_1)),
    "lemma4-2": (("f", "g", "h", "eta", "p", "q"), _two_brackets("lemma4-2", _lemma4_2)),
    "lemma4-3": (("f", "g", "eta", "p", "q"), _two_brackets("lemma4-3", _lemma4_3)),
    "lemma4-4": (("f", "g", "h", "eta", "p", "q"), _two_brackets("lemma4-4", _lemma4_4)),
    "lemma4-5": (("f", "g", "h", "eta", "p", "q"), _check_lemma4_5),
    "lemma5-deriv-bracket": (("f", "eta", "mu", "p"), _check_lemma5),
    "lemma4.1-recurrence": (("f", "eta", "p"), _check_lemma4p1),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def verify_identity(name: str, inputs: Mapping) -> VerificationReport:
    """Check one named bracket identity exactly on the given bound values.

    ``inputs`` must bind every free symbol of the identity (f, g, h
    polynomials; eta, mu derivations; p, q integer levels).  Returns a
    report whose witness is the nonzero difference on failure.
    """
    try:
        symbols, checker = _IDENTITIES[name]
    except KeyError:
        raise ValueError(f"unknown identity id {name!r}") from None
    missing = [s for s in symbols if s not in inputs]
    if missing:
        raise ValueError(f"missing binding {missing[0]!r} for identity {name!r}")
    bound = {s: inputs[s] for s in symbols}
    witness = checker(**bound)
    return _report(name, {k: str(v) for k, v in bound.items()}, witness)
