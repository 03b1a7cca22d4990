"""Sparse multivariate polynomials over the complex numbers.

A monomial is represented by a tuple of nonnegative integer exponents, one
entry per variable. A :class:`Polynomial` maps exponent tuples to complex
coefficients; a :class:`PolySystem` bundles equations with variable names and
evaluates the system with its Jacobian and the Jacobian's higher derivatives
(``PolySystem.jet``). A :class:`PolyMatrix` is a grid of polynomials, such
as the symbolic Jacobian that ``DeflatedSystem.expand`` builds for export.

A polynomial holds one term map, ``terms``, whose iteration order is graded
lexicographic (total degree, then exponents): evaluation sums in that
reproducible sequence, printing and hashing follow it, the degree is that of
the last term, and the dual-space oracle reads the terms by degree as they
come. Coefficients whose modulus falls below ``DROP_TOL`` (an underflow guard
only) are dropped during arithmetic.

Polynomials are built on one of two paths. The public constructor
``Polynomial(nvars, terms)`` checks its input: every exponent tuple is
converted to ints, its length and signs are validated, and coefficients are
converted to Python ``complex``. It serves everything that comes from
outside: callers and tests. Results of arithmetic on polynomials (``+``,
``-``, ``*``, ``**``, ``differentiate``, ``shift``, ``embed``,
``PolyMatrix.right_multiply``) and parsed polynomials are built from terms
that are valid by construction and go through ``Polynomial._trusted``,
which skips those checks. The checked path sums repeated monomials and then
finishes as ``_trusted`` does, through ``_canonical``: it cleans the
coefficients (``_clean``: drops tiny ones, makes zero parts positive) and
orders the terms. ``differentiate`` lowers one exponent and ``embed`` pads
every exponent tuple with zeros; both keep graded order, so they only
clean or copy and do not sort. Sums (a parsed polynomial, a row times a
matrix column) are accumulated in one dictionary and constructed once:
building one per added term would make a long sum quadratic in its length.

Every evaluation takes its powers from a table built per call by repeated
squaring, and one loop (``_values``) sums flat term lists keyed by factors
((j, e > 0), ..): from 0j in term order, each coefficient times its powers
in variable order. ``PolySystem.jet(point, orders)`` returns the value with
the first ``orders`` derivatives, read from term lists built once per
system and only up to the order asked for, with the coefficients and order
that symbolic differentiation would give: a value alone builds the
equations' lists and no derivative list. A list of a higher order is
differentiated from its parent one order below only when that parent is
not empty: the children of an empty list are empty.
``PolySystem.coefficient_scale`` is read from the order-1 lists once per
system. ``PolyMatrix.evaluate`` puts its entries in the same form and sums
them with the same loop.

The parser reads the equations through compiled regexes: one match takes a
run of simple factors (numbers, complex literals such as ``(1.5-0.5i)`` and
variables, each with an optional exponent, joined by ``*``), and it recurses
only at other parentheses. It works on term dictionaries and cleans where
``*``, ``**`` and ``+`` on polynomials clean (products and powers when
formed, sums when closed), so a parsed coefficient has the bits polynomial
arithmetic on the same expression gives. Its errors are those of reading
every token first: a character that starts no token, then the first syntax
error, then a literal that overflows (``1e400``) or a coefficient that is
not finite (``(1e200*x)^2``).

System file format (UTF-8 text)::

    # comments run to end of line
    <equation count>
    <variable names, whitespace separated>
    <polynomial> ;
    ...

Inside polynomials, terms are joined with ``+``/``-``, factors with ``*``,
and powers written ``x^3``. Coefficients are real literals or parenthesized
complex literals such as ``(1.5-0.5i)``; both ``i`` and ``j`` denote the
imaginary unit unless declared as variable names.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, combinations_with_replacement, compress, product
from operator import add

import numpy as np

DROP_TOL = 1e-300

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class ParseError(ValueError):
    """Syntax or consistency error in a system file, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _fmt_real(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"({_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i)"


def check_point(point, nvars: int, what: str = "point") -> np.ndarray:
    """``point`` as a complex vector; a ValueError, whose text the CLI prints
    as its one-line error, unless it has ``nvars`` coordinates."""
    z = np.asarray(point, dtype=complex)
    if z.shape != (nvars,):
        raise ValueError(f"{what} has shape {z.shape}, expected ({nvars},)" if z.ndim > 1
                         else f"{what} has {z.size if z.ndim else 0} coordinates, "
                         f"expected {nvars}")
    return z


def _power_table(point, top: int) -> list:
    """Row j holds x_j**e, e <= ``top``, by repeated squaring; ``point`` is checked."""
    table = []
    for x in point.tolist():
        row = [1.0, x]
        for e in range(2, top + 1):
            half = row[e >> 1]
            row.append(half * half * x if e & 1 else half * half)
        table.append(row)
    return table


def _values(order, table) -> list:
    """Each list of ``order`` (``_order``) at the table's point: from 0j, in
    term order, each coefficient times its factors' powers in variable order.
    The one summation loop: values, Jacobians, their derivatives and
    ``PolyMatrix.evaluate`` all read it."""
    lists, nonempty = order
    out = [0j] * len(lists)
    for k, terms in nonempty:
        total = 0j
        for factors, c in terms.items():
            for j, e in factors:
                c = c * table[j][e]
            total += c
        out[k] = total
    return out


def _order(lists: tuple) -> tuple:
    """``lists`` and the (position, list) pairs of its nonempty lists, the ones summed."""
    return lists, tuple((k, terms) for k, terms in enumerate(lists) if terms)


def _factor_form(terms: dict) -> dict:
    """The term map ``terms`` keyed by factors ((j, e > 0), ..), the form ``_values`` sums."""
    return {tuple(compress(enumerate(exps), exps)): c for exps, c in terms.items()}


def _differentiated(terms: dict, var: int) -> dict:
    """The term list ``terms`` differentiated by variable ``var`` as
    ``Polynomial.differentiate`` does it, order and coefficients alike."""
    out = []
    for factors, c in terms.items():
        for k, (j, e) in enumerate(factors):
            if j == var:   # the factor goes when its exponent falls to 0
                out.append((factors[:k] + ((j, e - 1),) * (e > 1) + factors[k + 1:], c * e))
    return _clean(out)


@functools.lru_cache(maxsize=32)
def _derivative_layout(nvars: int, order: int):
    """``(alphas, index)``: the sorted multi-indices of ``order`` over ``nvars``
    variables in lexicographic order, and the read-only array whose entry
    [i_1, .., i_order] is the position of ``sorted((i_1, .., i_order))``."""
    alphas = tuple(combinations_with_replacement(range(nvars), order))
    position = {alpha: k for k, alpha in enumerate(alphas)}
    index = np.array([position[tuple(sorted(tup))]
                      for tup in product(range(nvars), repeat=order)],
                     dtype=np.intp).reshape((nvars,) * order)
    index.flags.writeable = False
    return alphas, index


def _clean(items) -> dict:
    """The (exponents, coefficient) pairs ``items`` as a term dict that
    polynomial arithmetic keeps, in their order: ``+ 0j`` turns a negative
    zero part into a positive one, and moduli below ``DROP_TOL`` are
    dropped."""
    clean = {}
    for exps, c in items:
        c = c + 0j
        if not abs(c) < DROP_TOL:
            clean[exps] = c
    return clean


def _canonical(terms: dict) -> dict:
    """``terms`` cleaned (``_clean``) and in graded lexicographic order (total
    degree, then exponents), the term map every ``Polynomial`` holds."""
    return _clean(sorted(terms.items(), key=lambda item: (sum(item[0]), item[0])))


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts, before ``_clean``."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def _pow_terms(terms: dict, exponent: int, nvars: int) -> dict:
    """Clean ``terms`` to a nonnegative power by repeated squaring, every
    product cleaned. A square with a coefficient that is not finite is
    returned as it is: the power would not be finite either, and squaring on
    would only grow the work."""
    result = {(0,) * nvars: 1 + 0j}
    while exponent:
        if exponent & 1:
            result = _clean(_mul_terms(result, terms).items())
        exponent >>= 1
        if exponent:
            terms = _clean(_mul_terms(terms, terms).items())
            if not all(map(cmath.isfinite, terms.values())):
                return terms
    return result


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` complex variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("a polynomial needs at least one variable")
        self.nvars = int(nvars)
        summed = {}
        items: Iterable
        if terms is None:
            items = ()
        elif isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        for exps, coeff in items:
            exps = tuple(map(int, exps))
            if len(exps) != nvars:
                raise ValueError(
                    f"monomial {exps} has {len(exps)} exponents, expected {nvars}"
                )
            if min(exps) < 0:
                raise ValueError(f"negative exponent in monomial {exps}")
            summed[exps] = summed.get(exps, 0j) + complex(coeff)
        self.terms = _canonical(summed)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict, canonical: bool = False) -> "Polynomial":
        """Unchecked constructor for arithmetic results.

        ``terms`` maps exponent tuples of length ``nvars`` (nonnegative ints)
        to Python complex numbers, which holds for anything computed from
        valid polynomials and Python complex scalars. It finishes as the
        checked constructor does, through ``_canonical``, unless ``canonical``.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = terms if canonical else _canonical(terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree, that of the last term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return sum(next(reversed(self.terms)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(self.terms.items())))

    def __repr__(self):
        body = self.format(tuple(f"x{k}" for k in range(self.nvars)))
        return f"Polynomial({self.nvars}, {body!r})"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixing polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out = dict(self.terms)
            for exps, c in other.terms.items():
                out[exps] = out.get(exps, 0j) + c
            return Polynomial._trusted(self.nvars, out)
        if isinstance(other, (int, float, complex)):
            return self + Polynomial.constant(self.nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.nvars, other)
        if isinstance(other, Polynomial):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if isinstance(other, complex):
                other = complex(other)  # a numpy scalar would give numpy coefficients
            return Polynomial._trusted(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return Polynomial._trusted(self.nvars, _mul_terms(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return Polynomial._trusted(self.nvars,
                                   _pow_terms(self.terms, exponent, self.nvars))

    # -- calculus and substitution ----------------------------------------

    def differentiate(self, var_index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``var_index``, only
        cleaned: lowering one exponent keeps graded order and merges no terms."""
        if not 0 <= var_index < self.nvars:
            raise IndexError(
                f"variable index {var_index} out of range for {self.nvars} variables"
            )
        j = var_index
        return Polynomial._trusted(self.nvars, _clean(
            [(exps[:j] + (exps[j] - 1,) + exps[j + 1:], c * exps[j])
             for exps, c in self.terms.items() if exps[j]]), canonical=True)

    def shift(self, center: Sequence[complex]) -> "Polynomial":
        """Recenter: return q with q(u) = p(u + center), same variables.

        At the origin q is p, and p itself is returned.
        """
        center = [complex(c) for c in check_point(center, self.nvars, "center")]
        moved = [(j, c) for j, c in enumerate(center) if c != 0]
        if not moved:
            return self
        out = {}
        for exps, coeff in self.terms.items():
            # binomial expansion in each variable the term has and the shift moves
            partial = {exps: coeff}
            for j, c in moved:
                e = exps[j]
                if e:
                    partial = {key[:j] + (k,) + key[j + 1:]:
                               pc * math.comb(e, k) * c ** (e - k)
                               for key, pc in partial.items() for k in range(e + 1)}
            for key, val in partial.items():
                out[key] = out.get(key, 0j) + val
        return Polynomial._trusted(self.nvars, out)

    def embed(self, nvars_new: int) -> "Polynomial":
        """The same polynomial in ``nvars_new`` variables, the added ones last:
        each exponent tuple is padded with zeros, which keeps graded order."""
        if nvars_new < self.nvars:
            raise ValueError(f"cannot embed {self.nvars} variables in {nvars_new}")
        pad = (0,) * (nvars_new - self.nvars)
        return Polynomial._trusted(nvars_new, {exps + pad: c for exps, c in self.terms.items()},
                                   canonical=True)

    # -- printing ----------------------------------------------------------

    def format(self, names: Sequence[str]) -> str:
        if len(names) != self.nvars:
            raise ValueError("need one name per variable")
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms.items():
            mono = "*".join(
                names[j] if e == 1 else f"{names[j]}^{e}"
                for j, e in enumerate(exps) if e
            )
            if not mono:
                pieces.append(_fmt_coeff(coeff))
            elif coeff.imag == 0.0 and coeff.real == 1.0:
                pieces.append(mono)
            elif coeff.imag == 0.0 and coeff.real == -1.0:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{_fmt_coeff(coeff)}*{mono}")
        text = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                text += f" - {piece[1:]}"
            else:
                text += f" + {piece}"
        return text


class PolyMatrix:
    """Rectangular grid of polynomials sharing one variable space."""

    __slots__ = ("entries", "rows", "cols", "nvars")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("a polynomial matrix needs at least one entry")
        nvars = grid[0][0].nvars
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise ValueError("ragged polynomial matrix")
            for p in row:
                if p.nvars != nvars:
                    raise ValueError("matrix entries must share the variable space")
        self.entries = grid
        self.rows = len(grid)
        self.cols = width
        self.nvars = nvars

    def evaluate(self, point: Sequence[complex]) -> np.ndarray:
        """The entries' values at ``point``, summed as ``PolySystem.jet`` sums."""
        table = _power_table(check_point(point, self.nvars),
                             max(p.degree for row in self.entries for p in row))
        lists = _order(tuple(_factor_form(p.terms) for row in self.entries for p in row))
        return np.array(_values(lists, table), dtype=complex).reshape(self.rows, self.cols)

    def differentiate(self, var_index: int) -> "PolyMatrix":
        return PolyMatrix(
            [[p.differentiate(var_index) for p in row] for row in self.entries]
        )

    def right_multiply(self, matrix) -> "PolyMatrix":
        """Product with a constant matrix on the right."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape[0] != self.cols:
            raise ValueError("inner dimensions do not match")
        columns = [[complex(m) for m in column] for column in matrix.T]
        out = []
        for row in self.entries:
            new_row = []
            for column in columns:
                acc = {}
                for m, p in zip(column, row):
                    if m != 0:
                        for exps, c in p.terms.items():
                            acc[exps] = acc.get(exps, 0j) + c * m
                new_row.append(Polynomial._trusted(self.nvars, acc))
            out.append(new_row)
        return PolyMatrix(out)


class PolySystem:
    """A system of N polynomial equations in n named variables."""

    __slots__ = ("equations", "var_names", "degree", "_lists", "_scale")

    def __init__(self, equations: Sequence[Polynomial], var_names: Sequence[str]):
        eqs = tuple(equations)
        names = tuple(str(s) for s in var_names)
        if not eqs:
            raise ValueError("empty system")
        if not names:
            raise ValueError("a system needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        for p in eqs:
            if p.nvars != len(names):
                raise ValueError("equation variable count does not match names")
        self.equations = eqs
        self.var_names = names
        self.degree = max(p.degree for p in eqs)   # -1 when every equation is zero
        self._lists = None   # term lists by derivative order (``_term_lists``)
        self._scale = None   # ``coefficient_scale``, once read

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @property
    def neqs(self) -> int:
        return len(self.equations)

    def __eq__(self, other):
        if not isinstance(other, PolySystem):
            return NotImplemented
        return self.var_names == other.var_names and self.equations == other.equations

    def __hash__(self):
        return hash((self.var_names, self.equations))

    def _term_lists(self, orders: int) -> list:
        """The term lists of orders 0 .. ``orders``, each built once (``_order``)
        when first asked for: one per equation, then one per entry of J (row by
        row), then of D^m J at each multi-index of ``_derivative_layout(nvars,
        m)``. A list maps factors ((j, e), ..) to coefficients in graded order
        (``_factor_form``); each order differentiates the one below by the
        multi-index's last variable. An empty list's children are empty, and
        are not differentiated."""
        lists = self._lists
        if lists is None:
            lists = self._lists = [_order(tuple(_factor_form(p.terms) for p in self.equations))]
        if orders and len(lists) == 1:
            lists.append(_order(tuple(_differentiated(terms, j) for terms in lists[0][0]
                                      for j in range(self.nvars))))
        size = self.neqs * self.nvars
        while len(lists) <= orders:
            order, below = len(lists) - 1, lists[-1][0]
            first = {alpha: k * size for k, alpha in
                     enumerate(_derivative_layout(self.nvars, order - 1)[0])}
            lists.append(_order(tuple(
                _differentiated(parent, alpha[-1]) if parent else {}
                for alpha in _derivative_layout(self.nvars, order)[0]
                for parent in below[first[alpha[:-1]]:first[alpha[:-1]] + size])))
        return lists

    def jet(self, point, orders: int):
        """``(F, [J, D J, .., D^(orders - 1) J])`` at the checked vector ``point``;
        D^m J[a_1, .., a_m] (shape (nvars,) * m + (neqs, nvars)) is J
        differentiated by x_(a_1) .. x_(a_m). Every one is summed by
        ``_values`` from the term lists of orders 0 .. ``orders``; orders 0
        builds the equations' lists and no derivative list."""
        table = _power_table(point, self.degree)
        lists = self._term_lists(orders)
        tensors = [np.array(_values(lists[m + 1], table), dtype=complex)
                   .reshape(-1, self.neqs, self.nvars)[_derivative_layout(self.nvars, m)[1]]
                   for m in range(orders)]
        return np.array(_values(lists[0], table), dtype=complex), tensors

    def value_at(self, point: Sequence[complex]) -> np.ndarray:
        return self.jet(check_point(point, self.nvars), 0)[0]

    def jacobian_at(self, point: Sequence[complex]) -> np.ndarray:
        return self.value_and_jacobian(point)[1]

    def value_and_jacobian(self, point: Sequence[complex]):
        """``(value_at(point), jacobian_at(point))`` from one power table."""
        value, tensors = self.jet(check_point(point, self.nvars), 1)
        return value, tensors[0]

    @property
    def coefficient_scale(self) -> float:
        """Largest coefficient modulus appearing in the Jacobian, computed once
        per system: every refinement and deflation step on it reads this."""
        if self._scale is None:
            self._scale = max((abs(c) for terms in self._term_lists(1)[1][0]
                               for c in terms.values()), default=0.0)
        return self._scale


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

# one token per match, read only to report an error; a number directly
# followed by a lone i or j (no word character after it) carries that unit
_TOKEN_RE = re.compile(rf"""\s*(?:
      (?P<op>[-+*^();])
    | (?P<num>{_NUM})(?P<unit>[ij](?!\w))?
    | (?P<name>[^\W\d]\w*)
    | (?P<other>\S))""", re.VERBOSE)

_SPACE_RE = re.compile(r"\s*")

_OUT_OF_RANGE = "polynomial has a coefficient out of range"


@functools.lru_cache(maxsize=64)
def _factor_regexes(names):
    """The (run, factor, power) regexes of a system in the variables ``names``.

    A factor's groups: number, unit (an i or j not in ``names``), the real
    sign and part and imaginary sign and part of a literal like (1.5-0.5i),
    name, whole exponent. A run's: its text, its first factor, the text of
    the others. ``power`` reads an exponent after ``)``. Each piece is greedy
    and nothing after it is required, so none gives back part of a token."""
    units = "".join(u for u in "ij" if u not in names)
    unit = f"[{units}]" if units else "(?!)"
    exponent = rf"\s*\^\s*(\d+)(?![\d.]|[eE][+-]?\d|{unit}(?!\w))"
    factor = rf"""(?: ({_NUM})({unit}(?!\w))?
        | \(\s*([-+]?)\s*({_NUM})\s*([-+])\s*({_NUM}){unit}(?!\w)\s*\)
        | ([^\W\d]\w*) )(?:{exponent})?"""
    later = re.sub(r"(?<!\\)\((?!\?)", "(?:", factor)   # the same, capturing nothing
    return (re.compile(rf"\s*({factor}((?:\s*\*\s*{later})*))\s*", re.VERBOSE),
            re.compile(factor, re.VERBOSE), re.compile(rf"(?:{exponent})?\s*"))


@functools.lru_cache(maxsize=4096)
def _run_factors(names, text):
    """The factors in ``text``, part of a run, which recurs from term to term:
    the summed exponents of the variables ``names`` and the other factors."""
    exps, others = None, []
    for f in _factor_regexes(names)[1].findall(text):
        if f[6] in names:
            exps = exps or [0] * len(names)
            exps[names.index(f[6])] += int(f[7] or 1)
        else:
            others.append(f)
    return exps and tuple(exps), tuple(others)


class _Parser:
    """Recursive descent over the equations, one regex match per run of
    simple factors; it recurses at a ``(`` that opens no complex literal.
    Results are cleaned where polynomial arithmetic cleans them (see the
    module docstring). Offsets index ``src``: the lines joined by newlines
    and closed by a NUL that no rule takes."""

    def __init__(self, lines, var_names):
        self.lines = [lineno for lineno, _ in lines]
        self.starts = list(accumulate((len(body) + 1 for _, body in lines[:-1]), initial=0))
        self.src = "\n".join(body for _, body in lines) + "\0"
        self.end, self.names, self.nvars = len(self.src) - 1, tuple(var_names), len(var_names)
        self.origin = (0,) * self.nvars
        run, self.factor, power = _factor_regexes(self.names)
        self.run, self.power = run.match, power.match
        self.overflow = None  # (message, offset) of the first value not finite

    def error(self, message, at) -> ParseError:
        """The error of a parser that reads every token first: a character
        that starts no token, else ``message`` at ``at`` (offset or pair)."""
        last = 0
        for m in _TOKEN_RE.finditer(self.src, 0, self.end):
            kind = m.lastgroup
            first = m[kind][0]
            if kind == "other" or kind == "name" and not (first.isalpha() or first == "_"):
                return ParseError(f"unexpected character {first!r}", *self.location(m.start(kind)))
            # a number and its unit are one token unless the unit is declared
            last = m.start("num" if kind == "unit" and first not in self.names else kind)
        if not isinstance(at, tuple):
            at = self.location(at if at < self.end else last)
        return ParseError(message, *at)

    def location(self, offset):
        k = bisect_right(self.starts, offset) - 1
        return self.lines[k], offset - self.starts[k] + 1

    def polynomials(self, count, last):
        """``count`` polynomials closed by ``;``; ``last`` is the last line."""
        skip, equations, pos = _SPACE_RE.match, [], 0
        for _ in range(count):
            pos = skip(self.src, pos).end()
            if pos >= self.end:
                raise self.error(f"expected {count} polynomials, found {len(equations)}",
                                 (last[0], len(last[1])))
            try:
                terms, end = self.sum(pos)
                if self.src[end] != ";":
                    raise self.error("expected ';' after polynomial", end)
                poly = Polynomial._trusted(self.nvars, terms)
            except OverflowError:  # abs() of a coefficient beyond the float range
                raise self.error(_OUT_OF_RANGE, pos) from None
            if self.overflow is None and not all(map(cmath.isfinite, poly.terms.values())):
                self.overflow = (_OUT_OF_RANGE, pos)
            equations.append(poly)
            pos = end + 1
        if skip(self.src, pos).end() < self.end:
            raise self.error("trailing input after final polynomial", skip(self.src, pos).end())
        if self.overflow is not None:
            raise self.error(*self.overflow)
        return equations

    def sum(self, pos):
        """Terms of a signed sum of products, before ``_clean``, and the
        offset after it; a zero part's sign is lost once the sum is cleaned."""
        src, acc = self.src, {}
        get, pos = acc.get, _SPACE_RE.match(src, pos).end()
        op = src[pos]
        while True:  # each product starts past its sign, if it has one
            terms, pos = self.product(pos + (op == "+" or op == "-"))
            for exps, c in terms.items():
                acc[exps] = get(exps, 0j) + (-c if op == "-" else c)
            op = src[pos]
            if op != "+" and op != "-":
                return acc, pos

    def product(self, pos):
        """Terms of the product at ``pos`` and the offset after it."""
        src, nvars, origin, inf = self.src, self.nvars, self.origin, math.inf
        acc = None  # product of the factors that are not powers of variables
        exps = None  # summed exponents of the powers of variables
        while True:
            run = self.run(src, pos)
            if run:
                groups = run.groups("")
                if groups[7]:  # a name first: the run is looked up by its text
                    found, factors = _run_factors(self.names, groups[0])
                else:  # a literal first, and the others looked up by their text
                    found, factors = _run_factors(self.names, groups[9])
                    factors = (groups[1:9], *factors)
                if found:
                    exps = tuple(map(add, exps, found)) if exps else found
                for factor in factors:
                    num, unit, re_sign, re_num, im_sign, im_num, name, power = factor
                    if name:  # i or j: a declared variable is among the exponents found
                        if name != "i" and name != "j":
                            raise self.error(f"unknown variable {name!r}",
                                             self.offset(run, factor, 6))
                        value = {origin: 1j}
                    elif num:  # no literal is negative or NaN; one below DROP_TOL is dropped
                        v = float(num)
                        if v == inf:
                            self.infinite(run, factor, 0)
                        value = {origin: complex(0.0, v) if unit else complex(v)}
                        value = {} if v < DROP_TOL else value
                    else:  # a complex literal, summed and cleaned as a sum is
                        real, imag = float(re_num), float(im_num)
                        if real == inf or imag == inf:
                            self.infinite(run, factor, 3 if real == inf else 5)
                        c = complex(0.0 if real < DROP_TOL else -real if re_sign == "-" else real,
                                    0.0 if imag < DROP_TOL else -imag if im_sign == "-" else imag)
                        value = {} if abs(c) < DROP_TOL else {origin: c}
                    if power:
                        value = _pow_terms(value, int(power), nvars)
                    acc = value if acc is None else _clean(_mul_terms(acc, value).items())
                pos = run.end()
            else:
                pos = _SPACE_RE.match(src, pos).end()
                if src[pos] != "(":
                    raise self.error("unexpected end of input" if pos >= self.end
                                     else f"unexpected token {src[pos]!r}", pos)
                inner, pos = self.sum(pos + 1)
                if src[pos] != ")":
                    raise self.error("expected ')'", pos)
                after = self.power(src, pos + 1)
                value, power, pos = _clean(inner.items()), after[1], after.end()
                if power:
                    value = _pow_terms(value, int(power), nvars)
                acc = value if acc is None else _clean(_mul_terms(acc, value).items())
            if src[pos] != "*":
                break
            pos += 1
        # a '^' is valid only after an exponent, which ends the product
        if src[pos] == "^" and not (
                self.factor.findall(src, run.start(), run.end())[-1][7] if run else power):
            raise self.error("exponent must be a nonnegative integer",
                             _SPACE_RE.match(src, pos + 1).end())
        if exps is None:
            return acc, pos
        if acc is None:
            return {exps: 1 + 0j}, pos
        if len(acc) == 1 and origin in acc:  # one coefficient, as most terms have
            return {exps: acc[origin]}, pos
        return {tuple(map(add, key, exps)): c for key, c in acc.items()}, pos

    def infinite(self, run, factor, group):
        """Note literal ``group`` of ``factor`` in ``run`` as out of range."""
        if self.overflow is None:
            self.overflow = (f"number {factor[group]} is out of range",
                             self.offset(run, factor, group))

    def offset(self, run, factor, group):
        """Where ``group`` starts in the first factor of ``run`` like ``factor``."""
        for m in self.factor.finditer(self.src, run.start(), run.end()):
            if m.groups("") == factor:
                return m.start(group + 1)


def parse_system(text: str) -> PolySystem:
    """Parse the text format documented in the module docstring."""
    logical = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        body = raw if hash_at < 0 else raw[:hash_at]
        if body.strip():
            logical.append((lineno, body))
    if not logical:
        raise ParseError("empty system", 1, 1)
    head_line, head = logical[0]
    try:
        count = int(head.strip())
    except ValueError:
        raise ParseError("first line must be the equation count", head_line, 1)
    if count < 1:
        raise ParseError("empty system", head_line, 1)
    if len(logical) < 2:
        raise ParseError("missing variable declaration line", head_line, 1)
    names_line, names_text = logical[1]
    names = names_text.split()
    for name in names:
        if not _IDENT_RE.match(name):
            raise ParseError(f"invalid variable name {name!r}", names_line,
                             names_text.find(name) + 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", names_line, 1)
    return PolySystem(_Parser(logical[2:], names).polynomials(count, logical[-1]), names)


def format_system(system: PolySystem) -> str:
    """Render in the file format; parse_system(format_system(F)) == F."""
    lines = [str(system.neqs), " ".join(system.var_names)]
    lines.extend(f"{p.format(system.var_names)};" for p in system.equations)
    return "\n".join(lines) + "\n"
