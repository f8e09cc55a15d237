"""Finite modules over functions and vector fields, given by action tensors.

A module here is a free module A^r over the polynomial ring in d variables
together with a compatible vector-field action.  The action of g*d_i is

    rho(g d_i)(m) = g * d_i(m) + sum_{|alpha| <= N} d^alpha(g) * D[i,alpha] * m

for r x r polynomial matrices D[i,alpha]; the Leibniz rule holds by
construction and bracket compatibility [rho(eta), rho(mu)] = rho([eta, mu])
is what ``validate`` checks, exactly: it holds iff the finitely many
structure matrices C_ij[beta,gamma] built from D vanish.  N is the
differential-operator order of the module's Lie map, bounded by rank^2 for
every valid module.

Every action is a first-order operator on A^r, held as one operator pair
(symbol, matrix): d polynomials s_i and one r x r polynomial matrix
M = sum_{(i,alpha)} c_{i,alpha} * D[i,alpha], acting as

    m -> sum_i s_i * d_i(m) + M m.

For a vector field g_1 d_1 + ... + g_d d_d the symbol is (g_i) and
c_{i,alpha} = d^alpha(g_i).  For a smash element with canonical components
P_i(x, y) the symbol is P_i|_{y=x} and c_{i,alpha} = (d_y^alpha P_i)|_{y=x}.
M is summed once per operator; applying an operator takes one product sum
(``poly._sum_products``) per entry of the result.

The annihilation test for a smash element is exact: the element kills the
whole module iff its symbol and its matrix are both zero (a first-order
operator vanishes iff its symbol and its values on a module basis vanish).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, product
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from .poly import (
    Coeff,
    Derivation,
    DimensionMismatch,
    MultiIndex,
    Poly,
    PolyError,
    _PolyTuple,
    _is_int,
    _sum_products,
    multi_binomial,
    multi_indices,
    parse_poly,
    partial_power,
    restrict_to_diagonal,
    unit_index,
)
from .smash import SmashElement, VerificationReport, _report, omega, omega_multi

__all__ = [
    "Matrix",
    "ModuleElement",
    "AVModule",
    "ModuleSchemaError",
    "ValidationError",
    "min_annihilating_order",
    "oracle_order",
    "exterior_power",
    "tensor_product",
    "dual_module",
    "zoo",
    "trivial_dmodule",
    "differential_forms",
    "tangent_adjoint",
    "jet_module",
    "twist",
    "module_to_dict",
    "module_from_dict",
]

Matrix = tuple[tuple[Poly, ...], ...]
# An operator pair (symbol, matrix), as in the module docstring.
Operator = tuple[Sequence[Poly], Matrix]


class ModuleSchemaError(PolyError):
    """The action-tensor data is structurally malformed."""


class ValidationError(PolyError):
    """A module failed (or has not passed) bracket-compatibility validation."""

    def __init__(self, message: str, report: Optional[VerificationReport] = None):
        super().__init__(message)
        self.report = report


# -- small matrix helpers ----------------------------------------------------------

def _mat_is_zero(mat: Matrix) -> bool:
    return all(p.is_zero() for row in mat for p in row)


class ModuleElement(_PolyTuple):
    """An element of A^r: r polynomials in ``dim`` variables (given when r = 0)."""

    __slots__ = ()
    entries = property(attrgetter("_polys"))

    def __init__(self, entries: Iterable[Poly], dim: Optional[int] = None):
        entries = tuple(entries)
        dim = entries[0].dim if dim is None and entries else dim
        if not _is_int(dim, 1):  # None when there is no entry
            raise ValueError(f"a module element needs its dim, a positive integer (got {dim!r})")
        if any(p.dim != dim for p in entries):
            raise DimensionMismatch("entries disagree on dim")
        self.dim = dim
        self._polys = entries

    @classmethod
    def zero(cls, dim: int, rank: int) -> "ModuleElement":
        if not _is_int(rank, 0):
            raise ValueError(f"rank must be a nonnegative integer (got {rank!r})")
        return cls((Poly.zero(dim) for _ in range(rank)), dim)

    @property
    def rank(self) -> int:
        return len(self._polys)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.entries) + ")"

    def __repr__(self) -> str:
        return f"ModuleElement{self}"


class AVModule:
    """A free module with a differential-operator action tensor.

    ``tensor`` maps (i, alpha) to the r x r matrix D[i,alpha]; only nonzero
    matrices are stored.  ``order`` is the order N of the Lie map, read off
    the tensor: the largest |alpha| with D[i,alpha] nonzero (0 when there is
    none).  The rank may be 0: that zero module is an ordinary module, with
    an empty tensor, on which every element acts as zero.  An instance is
    usable only after ``validate()`` has passed (the zoo constructors and
    file loader do this for you).  Instances are immutable and safe to share.
    A module is its value: two instances with equal ``dim``, ``rank`` and
    tensor are the same module (``==``), however they were built; the name
    is only a label.
    """

    __slots__ = ("dim", "rank", "order", "tensor", "name", "_validated")

    def __init__(self, dim: int, rank: int,
                 tensor: Mapping[tuple[int, MultiIndex], Matrix],
                 name: str = ""):
        if not _is_int(dim, 1):
            raise ModuleSchemaError("dim must be a positive integer")
        if not _is_int(rank, 0):
            raise ModuleSchemaError(f"rank must be a nonnegative integer (got {rank!r})")
        clean: dict[tuple[int, MultiIndex], Matrix] = {}
        for (i, alpha), mat in tensor.items():
            alpha = tuple(alpha)
            if not (_is_int(i, 1) and i <= dim):
                raise ModuleSchemaError(f"direction index {i} out of range 1..{dim}")
            if len(alpha) != dim or not all(_is_int(a, 0) for a in alpha):
                raise ModuleSchemaError(f"bad multi-index {alpha} for dim {dim}")
            if len(mat) != rank or any(len(row) != rank for row in mat):
                raise ModuleSchemaError(f"matrix at ({i}, {alpha}) is not {rank}x{rank}")
            mat = tuple(tuple(row) for row in mat)
            for row in mat:
                for p in row:
                    if not isinstance(p, Poly) or p.dim != dim:
                        raise ModuleSchemaError(
                            f"matrix entries at ({i}, {alpha}) must be {dim}-variable polynomials")
            if not _mat_is_zero(mat):
                clean[(i, alpha)] = mat
        self.dim = dim
        self.rank = rank
        self.order = max((sum(a) for (_, a) in clean), default=0)
        self.tensor = clean
        self.name = name
        self._validated = False

    # -- bookkeeping ---------------------------------------------------------------

    @property
    def is_zero_module(self) -> bool:
        return self.rank == 0

    @property
    def validated(self) -> bool:
        return self._validated

    def _require_validated(self):
        if not self._validated:
            raise ValidationError(
                f"module {self.name or '<anonymous>'} has not passed validation")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AVModule):
            return NotImplemented
        return (self.dim == other.dim and self.rank == other.rank
                and self.tensor == other.tensor)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"AVModule(name={self.name!r}, dim={self.dim}, rank={self.rank}, "
                f"order={self.order})")

    def basis_element(self, j: int) -> ModuleElement:
        """The j-th standard basis vector (0-based)."""
        if not (_is_int(j, 0) and j < self.rank):
            raise ValueError(f"basis index {j} out of range")
        one = Poly.constant(self.dim, 1)
        zero = Poly.zero(self.dim)
        return ModuleElement(tuple(one if t == j else zero for t in range(self.rank)))

    def basis(self) -> list[ModuleElement]:
        return [self.basis_element(j) for j in range(self.rank)]

    # -- actions -------------------------------------------------------------------

    def _operator(self, symbol: Sequence[Poly], coeffs: list[Poly]) -> Operator:
        """The pair (symbol, sum of c * D[i,alpha]), with coeffs holding one
        c per tensor entry, in the tensor's order."""
        terms = [(c, mat) for c, mat in zip(coeffs, self.tensor.values()) if c.terms]
        r = range(self.rank)
        matrix = tuple(tuple(
            _sum_products(self.dim, [(1, c, mat[a][b]) for c, mat in terms])
            for b in r) for a in r)
        return symbol, matrix

    def _field_operator(self, e: Derivation) -> Operator:
        """rho(e) as an operator pair: symbol e, coefficients d^alpha(g_i)."""
        return self._operator(e.coeffs, [partial_power(e.coeffs[i - 1], alpha)
                                         for i, alpha in self.tensor])

    def _smash_operator(self, u: SmashElement) -> Operator:
        """The action of u as an operator pair, read off the canonical
        components: symbol P_i|_{y=x}, coefficients (d_y^alpha P_i)|_{y=x}."""
        P = u.components
        return self._operator(
            tuple(restrict_to_diagonal(p) for p in P),
            [restrict_to_diagonal(partial_power(P[i - 1], (0,) * self.dim + alpha))
             for i, alpha in self.tensor])

    def _apply(self, op: Operator, m: ModuleElement) -> ModuleElement:
        """op(m), with one product sum per entry:
        out_j = sum_i s_i * d_i(m_j) + sum_k matrix[j][k] * m_k."""
        symbol, matrix = op
        entries = m.entries
        ones = (1,) * len(entries)
        out = []
        for row, entry in zip(matrix, entries):
            triples = [(1, s, entry.partial_derivative(i))
                       for i, s in enumerate(symbol, start=1) if s.terms]
            triples.extend(zip(ones, row, entries))
            out.append(_sum_products(self.dim, triples))
        return m._new(out)

    def _check_operands(self, x, m: ModuleElement):
        self._require_validated()
        if x.dim != self.dim or m.dim != self.dim:
            raise DimensionMismatch("dimension mismatch with the module")
        if m.rank != self.rank:
            raise DimensionMismatch(f"element rank {m.rank} vs module rank {self.rank}")

    def act_derivation(self, e: Derivation, m: ModuleElement) -> ModuleElement:
        """Apply the vector field e to m through the action tensor."""
        self._check_operands(e, m)
        return self._apply(self._field_operator(e), m)

    def act_smash(self, u: SmashElement, m: ModuleElement) -> ModuleElement:
        """Apply a function#vector-field element to m.

        Uses the canonical components P_i(x, y) directly, not an expansion of
        u into terms f # eta; agrees with summing f * rho(eta)m over those.
        """
        self._check_operands(u, m)
        return self._apply(self._smash_operator(u), m)

    def annihilates(self, u: SmashElement) -> bool:
        """Exact decision: does u act as zero on the whole module?  Always
        true on the zero module, whose only element is 0."""
        self._require_validated()
        if u.dim != self.dim:
            raise DimensionMismatch("dimension mismatch with the module")
        if self.rank == 0:
            return True
        symbol, matrix = self._smash_operator(u)
        return not any(s.terms for s in symbol) and _mat_is_zero(matrix)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> VerificationReport:
        """Exact bracket-compatibility check; marks the module usable on pass.

        The defect [rho(g d_i), rho(h d_j)] - rho([g d_i, h d_j]) is the
        matrix sum_{beta,gamma} d^beta(g) d^gamma(h) C_ij[beta,gamma] where,
        for 0 < delta <= alpha and b = multi_binomial(alpha, delta),

            C[0, alpha] += d_i D[j,alpha]        C[alpha, 0] -= d_j D[i,alpha]
            C[alpha, beta] += D[i,alpha] D[j,beta] - D[j,beta] D[i,alpha]
            C[delta, alpha-delta+e_i] -= b D[j,alpha]
            C[alpha-delta+e_j, delta] += b D[i,alpha].

        The jets of g and h are free, so the module is valid iff every C_ij
        vanishes; as C_ji[gamma,beta] = -C_ij[beta,gamma], i <= j suffices.
        A failure names the first nonzero entry, searching i <= j, then
        sorted (beta, gamma), then the entries row by row.
        """
        inputs = {"module": self.name or "<anonymous>", "dim": str(self.dim),
                  "rank": str(self.rank), "order": str(self.order)}
        r = range(self.rank)
        for i in range(1, self.dim + 1):
            for j in range(i, self.dim + 1):
                for (beta, gamma), terms in sorted(self._structure_terms(i, j).items()):
                    for a, b in product(r, r):
                        defect = _sum_products(self.dim, [(c, left[a][k], right[k][b])
                                                          for c, left, right in terms for k in r])
                        if defect.terms:
                            return _report("module-bracket-compatibility", inputs, {
                                "i": str(i), "j": str(j), "beta": str(beta),
                                "gamma": str(gamma), "entry": str((a, b)),
                                "defect": str(defect)})
        self._validated = True
        return _report("module-bracket-compatibility", inputs, None)

    def _structure_terms(self, i: int, j: int) -> dict[tuple[MultiIndex, MultiIndex], list]:
        """The C_ij[beta,gamma] of ``validate`` that some term reaches, each a
        list of (c, L, R) standing for the sum of c * L R."""
        d, r = self.dim, range(self.rank)
        eye = tuple(tuple(Poly.constant(d, int(a == b)) for b in r) for a in r)
        coeffs: dict[tuple[MultiIndex, MultiIndex], list] = defaultdict(list)

        def leibniz(alpha: MultiIndex, mat: Matrix, k: int, sign: int, key):
            """Add sign * d_k(mat) at key(0, alpha) and -sign * b * mat at
            key(delta, alpha-delta+e_k)."""
            coeffs[key((0,) * d, alpha)].append(
                (sign, eye, tuple(tuple(p.partial_derivative(k) for p in row) for row in mat)))
            for delta in islice(product(*(range(a + 1) for a in alpha)), 1, None):  # delta > 0
                rest = tuple(a - dl + x for a, dl, x in zip(alpha, delta, unit_index(d, k)))
                coeffs[key(delta, rest)].append((-sign * multi_binomial(alpha, delta), eye, mat))

        tensor_i, tensor_j = ([(alpha, mat) for (k, alpha), mat in self.tensor.items() if k == t]
                              for t in (i, j))
        for alpha, mat in tensor_j:
            leibniz(alpha, mat, i, 1, lambda u, v: (u, v))
        for alpha, mat in tensor_i:  # the mirror image: swapped keys, opposite sign
            leibniz(alpha, mat, j, -1, lambda u, v: (v, u))
            for beta, other in tensor_j:
                coeffs[(alpha, beta)] += [(1, mat, other), (-1, other, mat)]
        return coeffs

    def lie_map_order(self) -> int:
        """The order N of the Lie map, ``self.order``, once validated."""
        self._require_validated()
        return self.order


# ---------------------------------------------------------------------------------
# orders and annihilation profiles
# ---------------------------------------------------------------------------------

def min_annihilating_order(module: AVModule, f: Poly, e: Derivation) -> int:
    """Smallest p >= 1 such that omega(q, f, e) annihilates for every q >= p.

    Levels above the module order annihilate automatically: the components
    (f(x)-f(y))^q g_i(y) vanish on the diagonal to order q, so every
    y-derivative of order <= N dies there.  Constant f gives 1 since the
    elements vanish identically for every q >= 1.
    """
    module._require_validated()
    if f.dim != module.dim or e.dim != module.dim:
        raise DimensionMismatch("dimension mismatch with the module")
    worst = 0
    for q in range(1, module.order + 1):
        if not module.annihilates(omega(q, f, e)):
            worst = q
    return worst + 1


def oracle_order(module: AVModule, n_max: int) -> int:
    """Differential-operator order of the Lie map, by the commutator criterion.

    Smallest n <= n_max such that the product elements over every choice of
    n+1 coordinate functions annihilate, for every direction d_i and every
    monomial coefficient of total degree <= order+1.  Iterated commutators
    with multiplication operators are spanned by the coordinate choices, and
    the monomial coefficients span all order-N jets, so this family decides
    the order exactly.  Returns n_max + 1 when no n suffices.  The ``order``
    report searches up to n_max = rank^2, the bound it checks.

    The search starts at n = -1, whose empty products give the vector fields
    themselves, omega_multi((), g d_i) = 1 # g d_i: they act through their
    symbol, so on a nonzero module they never all annihilate, and -1 (a zero
    Lie map) shows a criterion that has stopped seeing the symbol.  Every
    element annihilates the zero module, whose order is taken as 0.
    """
    module._require_validated()
    if not _is_int(n_max, 0):
        raise ValueError(f"oracle_order needs an integer n_max >= 0 (got {n_max!r})")
    d = module.dim
    coords = [Poly.variable(d, i) for i in range(1, d + 1)]
    fields = [Derivation.partial(d, i) * Poly.monomial(d, a)
              for i in range(1, d + 1) for a in multi_indices(d, module.order + 1)]
    for n in range(-1 if module.rank else 0, n_max + 1):
        if all(module.annihilates(omega_multi(fs, e))
               for fs in combinations_with_replacement(coords, n + 1) for e in fields):
            return n
    return n_max + 1


def _validated(module: AVModule) -> AVModule:
    """Validate a freshly built module, raising ValidationError on failure."""
    report = module.validate()
    if not report.passed:
        raise ValidationError(f"module {module.name or '<anonymous>'} failed "
                              "bracket-compatibility validation", report)
    return module


# ---------------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------------

def exterior_power(module: AVModule, k: int) -> AVModule:
    """k-th exterior power, with the action extended as a derivation on wedges.

    For k = rank it is the rank-1 module whose tensor entries are the traces;
    for k > rank there is no k-subset of the basis, and it is the zero module
    of rank 0, built and validated like any other.
    """
    module._require_validated()
    if not _is_int(k, 1):
        raise ValueError(f"exterior power needs an integer k >= 1 (got {k!r})")
    r = module.rank
    subsets = list(combinations(range(r), k))
    index = {S: a for a, S in enumerate(subsets)}
    nr = len(subsets)
    d = module.dim
    tensor = {}
    for (i, alpha), mat in module.tensor.items():
        ent = [[Poly.zero(d) for _ in range(nr)] for _ in range(nr)]
        for col, T in enumerate(subsets):
            for pos, t in enumerate(T):
                rest = T[:pos] + T[pos + 1:]
                for s in range(r):
                    c = mat[s][t]
                    if c.terms and s not in rest:  # a repeated factor makes the wedge zero
                        # e_s moves from slot pos to its place in the sorted subset S
                        S = tuple(sorted(rest + (s,)))
                        row = index[S]
                        ent[row][col] = ent[row][col] + (-c if (pos + S.index(s)) & 1 else c)
        tensor[(i, alpha)] = tuple(tuple(row) for row in ent)
    return _validated(AVModule(d, nr, tensor, name=f"wedge^{k}({module.name or 'M'})"))


def tensor_product(m1: AVModule, m2: AVModule) -> AVModule:
    """Tensor product over A, acting by rho(eta)(m x m') = rho m x m' + m x rho m'."""
    m1._require_validated()
    m2._require_validated()
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    d = m1.dim
    zero = Poly.zero(d)
    # basis e_{i1} (x) e_{i2} at index i1 * r2 + i2; entrywise D1 (x) 1 + 1 (x) D2
    pairs = [(i1, i2) for i1 in range(m1.rank) for i2 in range(m2.rank)]
    zero1 = ((zero,) * m1.rank,) * m1.rank
    zero2 = ((zero,) * m2.rank,) * m2.rank
    tensor = {}
    for key in set(m1.tensor) | set(m2.tensor):
        a = m1.tensor.get(key, zero1)
        b = m2.tensor.get(key, zero2)
        tensor[key] = tuple(tuple(
            (a[i1][j1] if i2 == j2 else zero) + (b[i2][j2] if i1 == j1 else zero)
            for j1, j2 in pairs) for i1, i2 in pairs)
    name = f"({m1.name or 'M'})x({m2.name or 'N'})"
    return _validated(AVModule(d, m1.rank * m2.rank, tensor, name=name))


def dual_module(module: AVModule) -> AVModule:
    """Contragredient module: (rho*(eta) phi)(m) = eta(phi(m)) - phi(rho(eta) m)."""
    module._require_validated()
    tensor = {}
    for (i, alpha), mat in module.tensor.items():
        r = len(mat)
        tensor[(i, alpha)] = tuple(tuple(-mat[b][a] for b in range(r)) for a in range(r))
    name = f"dual({module.name or 'M'})"
    return _validated(AVModule(module.dim, module.rank, tensor, name=name))


# ---------------------------------------------------------------------------------
# the zoo
# ---------------------------------------------------------------------------------

def trivial_dmodule(dim: int = 1, rank: int = 1) -> AVModule:
    """Flat connection: rho(g d_i) = g d_i, order 0."""
    if not (_is_int(dim, 1) and _is_int(rank, 1)):
        raise ValueError(f"trivial_dmodule needs integers dim, rank >= 1 (got {dim!r}, {rank!r})")
    return _validated(AVModule(dim, rank, {}, name=f"dmodule({dim},{rank})"))


def _unit_entries(dim: int, c: int, at) -> dict[tuple[int, MultiIndex], Matrix]:
    """D[i, e_k] for i, k in 1..dim: the matrix whose one nonzero entry, c,
    sits at the 1-based (row, column) at(i, k)."""
    zero, entry, span = Poly.zero(dim), Poly.constant(dim, c), range(1, dim + 1)
    return {(i, unit_index(dim, k)): tuple(tuple(entry if (a, b) == at(i, k) else zero
                                                 for b in span) for a in span)
            for i in span for k in span}


def differential_forms(dim: int = 1) -> AVModule:
    """One-forms with the Lie-derivative action; basis dx_1..dx_d.

    L_{g d_i}(dx_j) = delta_ij * sum_k d_k(g) dx_k, so D[i, e_k] has a single
    1 in row k, column i.
    """
    if not _is_int(dim, 1):
        raise ValueError(f"differential_forms needs an integer dim >= 1 (got {dim!r})")
    tensor = _unit_entries(dim, 1, lambda i, k: (k, i))
    return _validated(AVModule(dim, dim, tensor, name=f"forms({dim})"))


def tangent_adjoint(dim: int = 1) -> AVModule:
    """Vector fields acting on themselves by the bracket; basis d_1..d_d.

    [g d_i, d_k] = -d_k(g) d_i, so D[i, e_k] = -E_{i,k}.
    """
    if not _is_int(dim, 1):
        raise ValueError(f"tangent_adjoint needs an integer dim >= 1 (got {dim!r})")
    tensor = _unit_entries(dim, -1, lambda i, k: (i, k))
    return _validated(AVModule(dim, dim, tensor, name=f"adjoint({dim})"))


def jet_module(dim: int = 1, n: int = 0) -> AVModule:
    """Jets of order n: slots e_beta for the partials d^beta(h), |beta| <= n.

    The action prolongs rho(eta)(j h) = j(eta h) along the jet sections and
    extends A-linearly: expanding d^beta(g * d_i h) by the product rule gives

        (D[i,alpha] m)_beta = C(beta, alpha) * m_{beta - alpha + e_i}

    for 0 < alpha <= beta, with constant entries.  Rank C(n+d, d), order n.
    """
    if not (_is_int(dim, 1) and _is_int(n, 0)):
        raise ValueError(f"jet_module needs integers dim >= 1, n >= 0 (got {dim!r}, {n!r})")
    betas = multi_indices(dim, n)
    index = {b: a for a, b in enumerate(betas)}
    r = len(betas)
    zero = Poly.zero(dim)
    tensor = {}
    for i in range(1, dim + 1):
        ei = unit_index(dim, i)
        for alpha in betas[1:]:  # graded order: betas[0] is the zero index
            ent = [[zero] * r for _ in range(r)]
            for beta in betas:  # beta = alpha qualifies, so ent is nonzero
                if any(b < a for b, a in zip(beta, alpha)):
                    continue
                target = tuple(b - a + e for b, a, e in zip(beta, alpha, ei))
                ent[index[beta]][index[target]] = Poly.constant(dim, multi_binomial(beta, alpha))
            tensor[(i, alpha)] = tuple(tuple(row) for row in ent)
    return _validated(AVModule(dim, r, tensor, name=f"jets({dim},{n})"))


def twist(lam: Coeff | str = 0) -> AVModule:
    """The rank-one family on the line: rho(g d)(m) = g m' + lam g' m.

    lam is an int, a Fraction or a text such as "-3/2", never a float;
    twist(1), twist(Fraction(1)) and twist("1") are one module.
    lam = 0 is the trivial D-module point, lam = 1 the one-forms, lam = -1
    the adjoint action.
    """
    if not isinstance(lam, (int, Fraction, str)):  # Fraction(0.1) is binary, not 1/10
        raise TypeError(f"twist weight {lam!r} is not an int, a Fraction or a text")
    try:
        lam = Fraction(lam)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"twist weight {lam!r} is not a rational number") from None
    mat = ((Poly.constant(1, lam),),)  # zero at lam = 0, which the constructor drops
    return _validated(AVModule(1, 1, {(1, (1,)): mat}, name=f"twist({lam})"))


# short name -> builder; each builder's own name is an alias
_ZOO = {"dmodule": trivial_dmodule, "forms": differential_forms, "adjoint": tangent_adjoint,
        "jets": jet_module, "twist": twist}
_ZOO |= {builder.__name__: builder for builder in _ZOO.values()}


def zoo(name: str, **params) -> AVModule:
    """Construct a named example module; see the builders for parameters.
    Unknown parameters and non-int sizes are refused before anything is built."""
    if name not in _ZOO:
        raise ValueError(f"unknown zoo module {name!r}")
    for key, value in params.items():
        if key != "lam" and not _is_int(value):
            raise ValueError(f"zoo parameter {key}={value!r} is not an integer")
    builder = _ZOO[name]
    if builder is twist and params.pop("dim", 1) != 1:
        raise ValueError("twist is defined on the line (dim must be 1)")
    code = builder.__code__
    unknown = sorted(params.keys() - set(code.co_varnames[:code.co_argcount]))
    if unknown:
        raise ValueError(f"unexpected parameters for {name!r}: {unknown}")
    return builder(**params)


# ---------------------------------------------------------------------------------
# serialization (module-definition files)
# ---------------------------------------------------------------------------------

def module_to_dict(module: AVModule) -> dict:
    """Serialize to the module-definition schema; omitted entries are zero.
    ModuleSchemaError for the rank-0 module: the schema needs rank >= 1."""
    if module.rank < 1:
        raise ModuleSchemaError(
            f"module {module.name or '<anonymous>'} has rank 0; module files need rank >= 1")
    terms = []
    for (i, alpha) in sorted(module.tensor):
        mat = module.tensor[(i, alpha)]
        terms.append({
            "i": i,
            "alpha": list(alpha),
            "matrix": [[str(p) for p in row] for row in mat],
        })
    return {
        "name": module.name,
        "dim": module.dim,
        "rank": module.rank,
        "order": module.order,
        "terms": terms,
    }


def module_from_dict(data: Mapping) -> AVModule:
    """Parse and validate a module-definition mapping.

    The declared ``order`` must equal the order the tensor gives (the largest
    |alpha| of a nonzero entry), and no term's |alpha| may exceed it.
    Raises ModuleSchemaError for structural problems, PolyParseError for bad
    polynomial text, and ValidationError when the bracket check fails.
    """
    if not isinstance(data, Mapping):
        raise ModuleSchemaError("module definition must be a mapping")
    for field in ("dim", "rank", "order"):
        if field not in data:
            raise ModuleSchemaError(f"missing field {field!r}")
        if not _is_int(data[field]):
            raise ModuleSchemaError(f"field {field!r} must be an integer")
    dim = data["dim"]
    rank = data["rank"]
    order = data["order"]
    if dim < 1:
        raise ModuleSchemaError("dim must be >= 1")
    if rank < 1:  # the zero module has no file form
        raise ModuleSchemaError("rank must be >= 1")
    name = str(data.get("name", ""))
    terms = data.get("terms", [])
    if not isinstance(terms, (list, tuple)):
        raise ModuleSchemaError("terms must be a list")
    tensor: dict[tuple[int, MultiIndex], Matrix] = {}
    for entry in terms:
        if not isinstance(entry, Mapping):
            raise ModuleSchemaError("each term must be a mapping")
        for field in ("i", "alpha", "matrix"):
            if field not in entry:
                raise ModuleSchemaError(f"term missing field {field!r}")
        i = entry["i"]
        alpha = entry["alpha"]
        # AVModule checks the ranges, shapes and types too; these name a JSON type as written
        if not _is_int(i):
            raise ModuleSchemaError(f"term direction {i!r} is not an integer")
        if not isinstance(alpha, (list, tuple)) or not all(map(_is_int, alpha)):
            raise ModuleSchemaError(f"bad multi-index {alpha!r}")
        key = (i, tuple(alpha))
        if key in tensor:
            raise ModuleSchemaError(f"duplicate term at {key}")
        rows = entry["matrix"]
        if not isinstance(rows, (list, tuple)) \
                or any(not isinstance(row, (list, tuple)) for row in rows):
            raise ModuleSchemaError(f"matrix at {key} is not a list of rows")
        mat = tuple(tuple(parse_poly(str(cell), dim) for cell in row) for row in rows)
        tensor[key] = mat
    module = AVModule(dim, rank, tensor, name=name)
    if order < 0:
        raise ModuleSchemaError("order must be nonnegative")
    for _, alpha in tensor:  # zero entries too: the constructor drops them
        if sum(alpha) > order:
            raise ModuleSchemaError(f"tensor entry at {alpha} exceeds declared order {order}")
    if module.order != order:
        raise ModuleSchemaError(f"declared order {order} is not tight "
                                f"(largest nonzero entry has order {module.order})")
    return _validated(module)
