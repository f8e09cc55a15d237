"""Exact sparse multivariate polynomials over the rationals, and derivations.

A polynomial in ``dim`` variables x1..x<dim> is stored as integer numerators
over one positive common denominator, as FLINT's ``fmpq_mpoly`` does:
``terms`` maps packed exponent keys to nonzero ``int`` numerators, and the
polynomial is ``sum(terms[k] * x^k) / den``.  The pair is kept canonical:
``gcd(den, *terms.values()) == 1``, and the zero polynomial has ``den == 1``.
Equal polynomials therefore have equal ``den`` and ``terms``, and an integer
polynomial has ``den == 1``, so integer work never meets a Fraction.  Only
the public views (``coefficient``, ``items``, the text form) and the entry
points that take coefficients (the constructor, ``constant``, the parser)
convert between numerators and ``int``/``Fraction`` coefficients; a view's
coefficient is an ``int`` whenever the value is integral.

Exponent packing: a monomial x1^e1 * ... * xn^en is stored as a single
integer with n+1 fields of 16 bits, the total degree occupying the topmost
field::

    key = (e1+...+en) << 16*n  |  e1 << 16*(n-1)  |  ...  |  en

Because the degree field is most significant, comparing keys as integers is
exactly the graded-lexicographic order with x1 > x2 > ... > xn, and adding
two keys multiplies the monomials.  Invariant: every term has total degree
<= 0xFFFF, so no field carries into the next.  The constructor and the
parser reject a term of higher degree, and a product that would create one
raises ``PolyError``.  No other module reads or writes keys: the smash
layer's doubled variables (x; y) are the keys of 2n variables, built and
restricted here by ``embed_function``, ``embed_coefficient`` and
``restrict_to_diagonal``.

There is one product loop, ``_sum_products``: it adds up c * a * b over
(scalar, polynomial, polynomial) triples in one dictionary, and it is the
one place that checks the operands' dimensions and the product degree
guard.  ``Poly.__mul__`` is its one-triple case; every sum of products in
the package (derivations, brackets, module actions) is one call.  It
multiplies numerators only: a triple's scale is the product of the
denominators of c, a and b, folded into the running lcm of the sum's
denominator, and the sum is reduced by one ``gcd`` at the end.  Sums,
differences, scalar multiples, derivatives and diagonal restrictions
likewise rescale to a common denominator and reduce once, in ``_reduced``,
the one function that computes a canonical pair.  Every other ``Poly._raw``
call has ``den == 1`` or relabels or negates a canonical pair: the
embeddings, ``__neg__``, ``constant``, and the integer return of
``partial_derivative``.

``Poly.exact_divide`` is one long-division loop on the packed keys.  Only
output divides: the normal form of a localized value, printed or returned by
``reduce()``, cancels the base out of every component of its numerator at
once (``_PolyTuple.exact_divide`` for a tuple of polynomials).

A derivation g1*d1 + ... + gn*dn is a tuple of coefficient polynomials,
where d<i> denotes the partial derivative in x<i>.  It shares its
componentwise arithmetic with the other tuples of polynomials (smash
elements, module elements) through ``_PolyTuple``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Coeff", "MultiIndex", "PolyError", "DimensionMismatch", "PolyParseError", "Poly",
    "Derivation", "parse_poly", "parse_derivation", "multi_indices", "partial_power",
]

Coeff = Union[int, Fraction]
MultiIndex = tuple[int, ...]

_FIELD = 16
_MASK = (1 << _FIELD) - 1


class PolyError(ValueError):
    """Base class for errors raised by this package."""


class DimensionMismatch(PolyError):
    """Operands live over different numbers of variables."""


class DegreeOverflow(PolyError):
    """A product's total degree would pass the exponent limit."""


class PolyParseError(PolyError):
    """Input text does not match the polynomial grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_int(value, least: int | None = None) -> bool:
    """The one integer rule of every public size, level, index and exponent: an int
    but not a bool (JSON has no such int), and at least ``least`` when one is given."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and (least is None or value >= least)


def _exact(c) -> Coeff:
    """Admit only exact coefficients: a float would smuggle in rounding."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return c


def _rational(n: int, d: int) -> Coeff:
    """n / d as an int when integral, else as a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _reduced(dim: int, terms: dict[int, int], den: int) -> "Poly":
    """The canonical Poly terms / den: zero numerators dropped (in place) and
    the common factor of den and the numerators divided out, in one gcd."""
    if 0 in terms.values():  # a C-level scan; most sums cancel no term
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: v // g for k, v in terms.items()}
    return Poly._raw(dim, terms, den)


def _from_coefficients(dim: int, coeffs: dict[int, Coeff]) -> "Poly":
    """The canonical Poly with the given int or Fraction coefficients, zeros dropped."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return _reduced(dim, {k: c.numerator * (den // c.denominator)
                          for k, c in coeffs.items()}, den)


def _key(exps: MultiIndex, dim: int) -> int:
    """The packed key of an exponent tuple from outside the module, checked."""
    if len(exps) != dim:
        raise DimensionMismatch(f"exponent tuple {exps} has length {len(exps)}, expected {dim}")
    if not all(_is_int(e, 0) for e in exps) or sum(exps) > _MASK:
        raise ValueError(f"exponent out of range in {exps}")
    return _pack(exps)


def _pack(exps: Sequence[int]) -> int:
    key = 0
    deg = 0
    for e in exps:
        key = (key << _FIELD) | e
        deg += e
    return (deg << (_FIELD * len(exps))) | key


def _unpack(key: int, dim: int) -> MultiIndex:
    return tuple((key >> (_FIELD * (dim - 1 - i))) & _MASK for i in range(dim))


# -- packed-key block surgery ------------------------------------------------------
#
# A d-variable key is [deg | e1..ed]; a 2d-variable key is [deg | e1..ed | f1..fd].
# Fields are 16 bits, so shifting whole blocks moves exponents between the x- and
# y-blocks without unpacking.

def embed_function(p: Poly) -> Poly:
    """View a d-variable polynomial as f(x) inside the doubled 2d variables."""
    d = p.dim
    shift = _FIELD * d  # the whole key moves up, leaving the y-block empty
    return Poly._raw(2 * d, {k << shift: c for k, c in p.terms.items()}, p.den)


def embed_coefficient(p: Poly) -> Poly:
    """View a d-variable polynomial as g(y) inside the doubled 2d variables."""
    d = p.dim
    shift = _FIELD * d  # the degree moves up past the empty x-block
    low = (1 << shift) - 1
    return Poly._raw(2 * d, {((k >> shift) << (2 * shift)) | (k & low): c
                             for k, c in p.terms.items()}, p.den)


def restrict_to_diagonal(p: Poly) -> Poly:
    """Substitute y := x in a doubled polynomial, returning a d-variable one."""
    d = p.dim // 2
    block = (1 << (_FIELD * d)) - 1
    out: dict[int, int] = {}
    get = out.get
    for k, c in p.terms.items():
        deg = k >> (_FIELD * 2 * d)
        xpart = (k >> (_FIELD * d)) & block
        ypart = k & block
        kk = (deg << (_FIELD * d)) | (xpart + ypart)
        out[kk] = get(kk, 0) + c
    return _reduced(d, out, p.den)


class Poly:
    """An immutable exact polynomial in x1..x<dim> with rational coefficients.

    ``terms`` holds integer numerators and ``den`` their common denominator,
    kept canonical (see the module docstring).  Values never mutate after
    construction; every operation returns a new Poly, so instances may be
    freely shared across threads.
    """

    __slots__ = ("dim", "terms", "den")

    def __init__(self, dim: int, terms: dict[MultiIndex, Coeff] | None = None):
        if not _is_int(dim, 1):
            raise ValueError("dim must be a positive integer")
        packed: dict[int, Coeff] = {}
        if terms:
            for exps, c in terms.items():
                key = _key(exps, dim)
                packed[key] = packed.get(key, 0) + _exact(c)
        p = _from_coefficients(dim, packed)
        self.dim, self.terms, self.den = dim, p.terms, p.den

    # -- fast internal constructor -------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, terms: dict[int, int], den: int) -> "Poly":
        """A Poly from numerators that are already canonical over ``den``."""
        p = object.__new__(cls)
        p.dim = dim
        p.terms = terms
        p.den = den
        return p

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls._raw(dim, {}, 1)

    @classmethod
    def constant(cls, dim: int, c: Coeff) -> "Poly":
        if not _exact(c):
            return cls.zero(dim)
        return cls._raw(dim, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, dim: int, i: int) -> "Poly":
        """The polynomial x<i>, with 1 <= i <= dim."""
        if not 1 <= i <= dim:
            raise ValueError(f"variable index {i} out of range 1..{dim}")
        return cls.monomial(dim, unit_index(dim, i))

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], c: Coeff = 1) -> "Poly":
        return cls(dim, {tuple(exps): c})

    # -- queries -------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(k >> (_FIELD * self.dim) == 0 for k in self.terms)

    def total_degree(self) -> int:
        """Largest total degree of a term, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> (_FIELD * self.dim)

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return _rational(self.terms.get(_key(tuple(exps), self.dim), 0), self.den)

    def items(self) -> list[tuple[MultiIndex, Coeff]]:
        """(exponent, coefficient) pairs in descending graded-lex order."""
        terms, dim, den = self.terms, self.dim, self.den
        return [(_unpack(k, dim), _rational(terms[k], den)) for k in sorted(terms, reverse=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.terms == other.terms

    __hash__ = None  # mutable-dict-backed; never used as a key

    # -- arithmetic ----------------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
        else:
            den = lcm(da, db)
            sa, sign = den // da, sign * (den // db)
            out = {k: c * sa for k, c in self.terms.items()}
            da = den
        get = out.get
        for k, c in other.terms.items():
            out[k] = get(k, 0) + sign * c
        return _reduced(self.dim, out, da)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly._raw(self.dim, {k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return _sum_products(self.dim, ((1, self, other),))
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _reduced(self.dim, {k: c * n for k, c in self.terms.items()},
                            self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not _is_int(n, 0):
            raise ValueError(f"power of a polynomial must be a nonnegative integer (got {n!r})")
        result = Poly.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def partial_derivative(self, i: int) -> "Poly":
        """Exact partial derivative with respect to x<i> (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"variable index {i} out of range 1..{self.dim}")
        sh = _FIELD * (self.dim - i)
        drop = (1 << sh) + (1 << (_FIELD * self.dim))
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            e = (k >> sh) & _MASK
            if e:
                out[k - drop] = c * e
        if self.den == 1:
            return Poly._raw(self.dim, out, 1)
        # the exponents may cancel part of the denominator: (1/2*x1^2)' = x1
        return _reduced(self.dim, out, self.den)

    def exact_divide(self, divisor: "Poly") -> "Poly | None":
        """Quotient self/divisor when the division is exact, else None.

        Long division on the numerators: the leading term of the remainder is
        cancelled until the remainder is empty, or until its leading monomial
        is not a multiple of the divisor's, when no quotient exists.
        Divisibility of monomials is one test on the packed keys.  The
        quotient of the numerators is then scaled by divisor.den / self.den."""
        self._check(divisor)
        dt, dim = divisor.terms, self.dim
        if not dt:
            raise ZeroDivisionError("division by the zero polynomial")
        # b's monomial divides a's iff a - b borrows across no field boundary:
        # (a - b) ^ a ^ b then has no bit of ``borrow``, the lowest of each field
        # above the first
        borrow = ((1 << (_FIELD * (dim + 1))) - 1) // _MASK - 1
        dlead = max(dt)
        dc = dt[dlead]
        rest = [(k, c) for k, c in dt.items() if k != dlead]
        rem = dict(self.terms)
        quot = {}
        while rem:
            lead = max(rem)
            qk = lead - dlead
            if (qk ^ lead ^ dlead) & borrow:
                return None
            q = quot[qk] = Fraction(rem.pop(lead), dc)
            for k, dcf in rest:
                kk = qk + k
                v = rem.get(kk, 0) - q * dcf
                if v:
                    rem[kk] = v
                else:
                    del rem[kk]
        scale = Fraction(divisor.den, self.den)
        return _from_coefficients(dim, {k: q * scale for k, q in quot.items()})

    # -- text form -----------------------------------------------------------------

    def __str__(self) -> str:
        return _format_terms(((self, None),), _x_names(self.dim))

    def __repr__(self) -> str:
        return f"Poly({self.dim}, {str(self)!r})"


def _sum_products(dim: int, triples: Iterable[tuple[Coeff, Poly, Poly]]) -> Poly:
    """sum c * a * b over the (c, a, b) triples, c an int or a Fraction,
    accumulated in one dictionary and reduced once.

    The accumulator holds integer numerators over ``den``, the lcm of the
    scales of the triples so far; a triple's scale is the product of the
    denominators of c, a and b."""
    sh = _FIELD * dim
    out: dict[int, int] = {}
    get = out.get
    den = 1
    for c, a, b in triples:
        if a.dim != dim or b.dim != dim:
            raise DimensionMismatch(f"dim {dim} vs {b.dim if a.dim == dim else a.dim}")
        ta, tb = a.terms, b.terms
        if not c or not ta or not tb:
            continue
        # Adding keys adds every field, the degree field included; with
        # the product's degree <= _MASK no field can carry into the next.
        if (max(ta) >> sh) + (max(tb) >> sh) > _MASK:
            raise DegreeOverflow(f"product degree exceeds the exponent limit {_MASK}")
        t = a.den * b.den
        if type(c) is not int:
            c, t = c.numerator, t * c.denominator
        if t != den:
            if den % t:
                step = t // gcd(den, t)
                den *= step
                for k, v in out.items():
                    out[k] = v * step
            c *= den // t
        for ka, ca in ta.items():
            if c != 1:
                ca = c * ca
            for kb, cb in tb.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    return _reduced(dim, out, den)


def _x_names(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)]


def _format_terms(parts: Iterable[tuple[Poly, str | None]], names: Sequence[str]) -> str:
    """Signed sum of the terms of each (polynomial, trailing factor) pair.

    ``names`` names the variables in key order (one per exponent field);
    within a polynomial terms run in descending graded-lex order, and a
    trailing factor such as ``d2`` closes every term of its polynomial.
    """
    out = []
    for p, tail in parts:
        for key in sorted(p.terms, reverse=True):
            c = _rational(p.terms[key], p.den)
            neg = c < 0
            mag = -c if neg else c
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(_unpack(key, len(names))) if e]
            if tail:
                factors.append(tail)
            body = "*".join(factors)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not out:
                out.append(("-" if neg else "") + body)
            else:
                out.append((" - " if neg else " + ") + body)
    return "".join(out) or "0"


# ---------------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------------

_WS = " \t\r\n"
_SIGNS = "+-−"  # ASCII minus and the typographic minus both accepted


def parse_poly(text: str, dim: int) -> Poly:
    """Parse the flat polynomial grammar.

    term ::= [sign] (rational | [rational "*"] factor ("*" factor)*)
    factor ::= "x"<index> ["^"<exponent>]     rational ::= int ["/" positive-int]

    Terms are joined by "+"/"-"; whitespace is ignored between tokens; no
    parentheses.  Raises PolyParseError with the offending position on bad input.
    """
    (p,) = _parse_terms(text, dim, field=False)
    return p


def _parse_terms(text: str, dim: int, field: bool) -> list[Poly]:
    """The one scanner behind ``parse_poly`` and ``parse_derivation``.

    Returns the polynomial, or with ``field`` the ``dim`` coefficients of a
    vector field, each of whose terms is a polynomial term closed by the
    factor d<index>.  Every error position is an offset into ``text``.
    """
    if not _is_int(dim, 1):
        raise ValueError("dim must be a positive integer")
    n = len(text)
    comps: list[dict[int, Coeff]] = [{} for _ in range(dim if field else 1)]

    def skip_ws(i: int) -> int:
        while i < n and text[i] in _WS:
            i += 1
        return i

    def read_int(i: int, what: str) -> tuple[int, int]:
        j = i
        while j < n and text[j].isdecimal():
            j += 1
        if j == i:
            raise PolyParseError(f"expected {what}", i)
        try:
            return int(text[i:j]), j
        except ValueError:  # past int()'s limit, sys.get_int_max_str_digits()
            raise PolyParseError(f"{what} has too many digits", i) from None

    def read_index(i: int, what: str) -> tuple[int, int]:
        # the 0-based index after the letter at text[i] ("x" or "d")
        idx, j = read_int(i + 1, what)
        if not 1 <= idx <= dim:
            raise PolyParseError(f"{what} {text[i]}{idx} out of range 1..{dim}", i)
        return idx - 1, j

    i = skip_ws(0)
    if i == n:
        raise PolyParseError("empty vector field" if field else "empty polynomial", 0)
    while True:
        # here i < n, and text[i] starts the first term or is a sign
        sign = 1
        if text[i] in _SIGNS:
            if text[i] != "+":
                sign = -1
            i = skip_ws(i + 1)
        start = i
        coeff: Coeff = 1
        exps = [0] * dim
        direction = None
        # "*"-joined items: a leading rational, factors, and d<index> last
        while True:
            c = text[i] if i < n else ""
            if i == start and c.isdecimal():
                coeff, i = read_int(i, "number")
                if i < n and text[i] == "/":
                    slash = i
                    den, i = read_int(i + 1, "denominator")
                    if den == 0:
                        raise PolyParseError("zero denominator", slash)
                    coeff = Fraction(coeff, den)
            elif c == "x":
                var, i = read_index(i, "variable index")
                e = 1
                if i < n and text[i] == "^":
                    e, i = read_int(i + 1, "exponent")
                exps[var] += e
            elif field and c == "d":
                direction, i = read_index(i, "direction index")
            elif i == start:
                raise PolyParseError("expected a term", i)
            else:
                raise PolyParseError(
                    f"expected {'variable or d<index>' if field else 'variable'} after '*'", i)
            i = skip_ws(i)
            if direction is not None or i == n or text[i] != "*":
                break
            i = skip_ws(i + 1)
        if field and direction is None:
            raise PolyParseError("term does not end in d<index>", i)
        if sum(exps) > _MASK:
            raise PolyParseError(f"term degree exceeds the exponent limit {_MASK}", start)
        terms = comps[direction or 0]
        key = _pack(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
        if i == n:
            return [_from_coefficients(dim, t) for t in comps]
        if text[i] not in _SIGNS:
            raise PolyParseError(f"unexpected character {text[i]!r}", i)


# ---------------------------------------------------------------------------------
# tuples of polynomials; derivations
# ---------------------------------------------------------------------------------

class _PolyTuple:
    """A fixed-length tuple of polynomials with componentwise arithmetic.

    The one place that decides how vector fields, smash elements and module
    elements compare, add, subtract, negate, scale and divide.  Each subclass
    checks its own constructor arguments, sets ``dim`` and exposes the tuple
    under its own read-only name; results keep the shape of their operands.
    """

    __slots__ = ("dim", "_polys")
    # the components are polynomials in _doubling * dim variables, and so is
    # a polynomial operand, checked once whether or not there is a component
    _doubling = 1

    def _new(self, polys: Iterable[Poly]):
        """A value of the same type and ``dim``, without the constructor's
        checks (the operations here preserve the shape)."""
        out = object.__new__(type(self))
        out.dim = self.dim
        out._polys = tuple(polys)
        return out

    def is_zero(self) -> bool:
        return not any(p.terms for p in self._polys)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self._polys == other._polys

    __hash__ = None

    def _check(self, other: "_PolyTuple"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        if len(self._polys) != len(other._polys):
            raise DimensionMismatch(
                f"{len(self._polys)} components vs {len(other._polys)}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._new(a + b for a, b in zip(self._polys, other._polys))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._new(a - b for a, b in zip(self._polys, other._polys))

    def __neg__(self):
        return self._new(-p for p in self._polys)

    def _check_poly(self, p: Poly):
        if p.dim != self._doubling * self.dim:
            raise DimensionMismatch(f"dim {p.dim} vs {self._doubling * self.dim}")

    def __mul__(self, other):
        """Scaling by a rational or by a polynomial in the components' variables."""
        if isinstance(other, Poly):
            self._check_poly(other)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._new(p * other for p in self._polys)

    __rmul__ = __mul__

    def exact_divide(self, divisor: Poly):
        """The componentwise quotient by ``divisor``, or None at the first
        component that it does not divide exactly."""
        self._check_poly(divisor)
        quots = []
        for p in self._polys:
            q = p.exact_divide(divisor)
            if q is None:
                return None
            quots.append(q)
        return self._new(quots)


class Derivation(_PolyTuple):
    """A polynomial vector field g1*d1 + ... + g<dim>*d<dim>.

    Immutable; ``coeffs[i-1]`` is the coefficient of the partial derivative
    in x<i>.
    """

    __slots__ = ()
    coeffs = property(attrgetter("_polys"))

    def __init__(self, coeffs: Iterable[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a derivation needs at least one component")
        dim = coeffs[0].dim
        if any(c.dim != dim for c in coeffs):
            raise DimensionMismatch("derivation components disagree on dim")
        if len(coeffs) != dim:
            raise DimensionMismatch(
                f"{len(coeffs)} components for {dim} variables")
        self.dim = dim
        self._polys = coeffs

    @classmethod
    def zero(cls, dim: int) -> "Derivation":
        if not _is_int(dim, 1):
            raise ValueError(f"dim must be a positive integer (got {dim!r})")
        return cls(tuple(Poly.zero(dim) for _ in range(dim)))

    @classmethod
    def partial(cls, dim: int, i: int) -> "Derivation":
        """The coordinate vector field d<i>."""
        if not 1 <= i <= dim:
            raise ValueError(f"variable index {i} out of range 1..{dim}")
        return cls(tuple(Poly.constant(dim, e) for e in unit_index(dim, i)))

    def apply(self, p: Poly) -> Poly:
        """eta(p) = sum_i g_i * dp/dx_i; satisfies the Leibniz rule exactly."""
        self._check_poly(p)
        return _sum_products(self.dim, [(1, g, p.partial_derivative(i))
                                        for i, g in enumerate(self.coeffs, start=1) if g.terms])

    def bracket(self, other: "Derivation") -> "Derivation":
        """Lie bracket of vector fields: component j is self(other_j) - other(self_j)."""
        self._check(other)
        return Derivation(tuple(
            self.apply(other.coeffs[j]) - other.apply(self.coeffs[j])
            for j in range(self.dim)))

    def __str__(self) -> str:
        if self.is_zero():
            return "0*d1"
        return _format_terms(
            ((g, f"d{i}") for i, g in enumerate(self.coeffs, start=1)), _x_names(self.dim))

    def __repr__(self) -> str:
        return f"Derivation({self.dim}, {str(self)!r})"


def parse_derivation(text: str, dim: int) -> Derivation:
    """Parse 'x1^2*d1 + 3/2*d2' style vector-field text.

    field ::= the polynomial grammar with every term closed by a final
    factor "d"<index> naming the coordinate direction; a bare d<index> has
    coefficient 1.
    """
    return Derivation(_parse_terms(text, dim, field=True))


# ---------------------------------------------------------------------------------
# multi-indices (iterated partials d^alpha)
# ---------------------------------------------------------------------------------

def multi_indices(dim: int, max_order: int) -> list[MultiIndex]:
    """All alpha in N^dim with |alpha| <= max_order, graded-lex ascending."""
    out: list[MultiIndex] = []
    for total in range(max_order + 1):
        out.extend(_compositions(total, dim))
    return out


def _compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def unit_index(dim: int, i: int) -> MultiIndex:
    """The multi-index e_i (1-based i)."""
    return tuple(1 if j == i - 1 else 0 for j in range(dim))


def multi_binomial(beta: MultiIndex, alpha: MultiIndex) -> int:
    """Product of componentwise binomial coefficients C(beta_j, alpha_j)."""
    out = 1
    for b, a in zip(beta, alpha):
        out *= comb(b, a)
    return out


def partial_power(p: Poly, alpha: MultiIndex) -> Poly:
    """Iterated partial derivative d^alpha p."""
    if len(alpha) != p.dim:
        raise DimensionMismatch(f"multi-index length {len(alpha)} vs dim {p.dim}")
    out = p
    for i, e in enumerate(alpha, start=1):
        for _ in range(e):
            if out.is_zero():
                return out
            out = out.partial_derivative(i)
    return out
