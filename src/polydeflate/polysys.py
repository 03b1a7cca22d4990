"""Sparse multivariate polynomials over the complex numbers.

A monomial is represented by a tuple of nonnegative integer exponents, one
entry per variable. A :class:`Polynomial` maps exponent tuples to complex
coefficients; a :class:`PolySystem` bundles equations with variable names and
offers numeric evaluation of the system and of its Jacobian matrix, which is
itself a :class:`PolyMatrix` of symbolic partial derivatives.

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
orders the terms. Sums (a parsed polynomial, a row times a matrix column)
are accumulated in one dictionary and constructed once: building one per
added term would make a long sum quadratic in its length.

A ``PolyMatrix`` whose entries are all constant is evaluated when it is
built; every evaluation checks the point and returns that one read-only
array.

The parser works on plain term dictionaries. It multiplies with the same
``_mul_terms`` and ``_pow_terms`` as ``*`` and ``**`` and cleans where they
clean, so a parsed coefficient has the bits that polynomial arithmetic on
the same expression gives, and it builds one ``Polynomial`` per equation.
Syntax errors are reported first; after them, a literal that overflows to
infinity (``1e400``) or a coefficient that is not finite (``(1e200*x)^2``)
is a ``ParseError`` too.

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
import math
import re
from collections.abc import Iterable, Mapping, Sequence
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
        raise ValueError(f"{what} has {z.shape[0] if z.ndim else 0} coordinates, "
                         f"expected {nvars}")
    return z


def _power(point, j, e, cache):
    """x_j**e by repeated squaring, memoized in ``cache`` for this call."""
    if e == 0:
        return 1.0
    if e == 1:
        return point[j]
    key = (j, e)
    v = cache.get(key)
    if v is None:
        half = _power(point, j, e >> 1, cache)
        v = half * half
        if e & 1:
            v = v * point[j]
        cache[key] = v
    return v


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
    product cleaned."""
    result = {(0,) * nvars: 1 + 0j}
    while exponent:
        if exponent & 1:
            result = _clean(_mul_terms(result, terms).items())
        exponent >>= 1
        if exponent:
            terms = _clean(_mul_terms(terms, terms).items())
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
    def _trusted(cls, nvars: int, terms: dict) -> "Polynomial":
        """Unchecked constructor for arithmetic results.

        ``terms`` maps exponent tuples of length ``nvars`` (nonnegative ints)
        to Python complex numbers, which holds for anything computed from
        valid polynomials and Python complex scalars. It finishes as the
        checked constructor does, through ``_canonical``.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = _canonical(terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

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
        """Exact partial derivative with respect to variable ``var_index``."""
        if not 0 <= var_index < self.nvars:
            raise IndexError(
                f"variable index {var_index} out of range for {self.nvars} variables"
            )
        out = {}
        for exps, c in self.terms.items():
            e = exps[var_index]
            if e == 0:
                continue
            key = exps[:var_index] + (e - 1,) + exps[var_index + 1:]
            out[key] = out.get(key, 0j) + c * e
        return Polynomial._trusted(self.nvars, out)

    def evaluate(self, point: Sequence[complex], cache=None) -> complex:
        check_point(point, self.nvars)
        return self._evaluate(point, {} if cache is None else cache)

    def _evaluate(self, point, cache) -> complex:
        """``evaluate`` without the length check, for callers that made it."""
        total = 0j
        for exps, c in self.terms.items():
            v = c
            for j, e in enumerate(exps):
                if e:
                    v = v * _power(point, j, e, cache)
            total += v
        return total

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

    def embed(self, nvars_new: int, positions: Sequence[int]) -> "Polynomial":
        """Reinterpret in a larger variable space; positions maps old->new index."""
        if len(positions) != self.nvars:
            raise ValueError("positions must list one target index per variable")
        out = {}
        for exps, c in self.terms.items():
            key = [0] * nvars_new
            for j, e in enumerate(exps):
                key[positions[j]] = e
            out[tuple(key)] = c
        return Polynomial._trusted(nvars_new, out)

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

    __slots__ = ("entries", "rows", "cols", "nvars", "_const")

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
        # the value of a matrix without a variable, computed once: read-only,
        # since every evaluation hands out this one array
        self._const = None
        if all(p.degree <= 0 for row in grid for p in row):
            origin = (0,) * nvars
            self._const = np.array([[p.terms.get(origin, 0j) for p in row] for row in grid],
                                   dtype=complex)
            self._const.flags.writeable = False

    def evaluate(self, point: Sequence[complex], cache=None) -> np.ndarray:
        """The entries' values at ``point``; a constant matrix returns its one
        read-only array."""
        check_point(point, self.nvars)
        if self._const is not None:
            return self._const
        if cache is None:
            cache = {}
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                out[i, j] = p._evaluate(point, cache)
        return out

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

    __slots__ = ("equations", "var_names", "_jac", "_scale")

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
        self._jac = None
        self._scale = None

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

    def value_at(self, point: Sequence[complex]) -> np.ndarray:
        return self._value(check_point(point, self.nvars), {})

    def _value(self, point, cache) -> np.ndarray:
        return np.array([p._evaluate(point, cache) for p in self.equations],
                        dtype=complex)

    @property
    def jacobian_matrix(self) -> PolyMatrix:
        if self._jac is None:
            self._jac = PolyMatrix(
                [[p.differentiate(j) for j in range(self.nvars)]
                 for p in self.equations]
            )
        return self._jac

    def jacobian_at(self, point: Sequence[complex]) -> np.ndarray:
        return self.jacobian_matrix.evaluate(check_point(point, self.nvars))

    def value_and_jacobian(self, point: Sequence[complex]):
        """``(value_at(point), jacobian_at(point))`` from one pass over the powers."""
        point, cache = check_point(point, self.nvars), {}
        return self._value(point, cache), self.jacobian_matrix.evaluate(point, cache)

    @property
    def coefficient_scale(self) -> float:
        """Largest coefficient modulus appearing in the Jacobian."""
        if self._scale is None:
            self._scale = max((abs(c) for row in self.jacobian_matrix.entries
                               for p in row for c in p.terms.values()), default=0.0)
        return self._scale


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

# one token per match: leading whitespace, then one group; a number directly
# followed by a lone i or j (no word character after it) is imaginary
_TOKEN_RE = re.compile(r"""\s*(?:
      (?P<op>[-+*^();])
    | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)(?P<unit>[ij](?!\w))?
    | (?P<name>[^\W\d]\w*)
    | (?P<other>\S))""", re.VERBOSE)


_OUT_OF_RANGE = "polynomial has a coefficient out of range"


def _tokenize(lines, var_names):
    """(kind, text, line, column) tokens of the (line number, text) pairs.

    An operator is its own kind; the others are ``num``, ``imag`` (the text
    is the number before the unit), ``name``, and a closing ``end`` token at
    the place of the last token.
    """
    declared = set(var_names)
    tokens = []
    append = tokens.append
    for lineno, text in lines:
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            value = m[kind]
            col = m.start(kind) + 1
            if kind == "op":
                append((value, value, lineno, col))
            elif kind == "num":
                append(("num", value, lineno, col))
            elif kind == "name":
                # \w also takes digits such as superscripts; a name starts with a letter
                if not (value[0].isalpha() or value[0] == "_"):
                    raise ParseError(f"unexpected character {value[0]!r}", lineno, col)
                append(("name", value, lineno, col))
            elif kind == "unit":
                number = m.start("num") + 1
                if value in declared:
                    append(("num", m["num"], lineno, number))
                    append(("name", value, lineno, col))
                else:
                    append(("imag", m["num"], lineno, number))
            else:
                raise ParseError(f"unexpected character {value!r}", lineno, col)
    _, _, line, col = tokens[-1] if tokens else (None, None, 1, 1)
    append(("end", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over ``_tokenize`` output, building term dicts.

    Each result is cleaned (``_clean``) where polynomial arithmetic would
    clean it: every product and power when it is formed, every sum when it
    is closed, so the coefficients come out as ``+``, ``*`` and ``**`` on
    polynomials would give them. A power of a variable is the single term
    1, and multiplying by it leaves a clean coefficient as it is; a product
    therefore sums the exponents of its variable factors and adds them to
    its terms once at the end.
    """

    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.nvars = len(var_names)
        self.index = {name: k for k, name in enumerate(var_names)}
        self.origin = (0,) * self.nvars
        # (message, line, column) of the first literal or coefficient that
        # is not finite; reported once the whole text has parsed
        self.overflow = None

    def fail(self, message):
        _, _, line, col = self.tokens[self.pos]
        raise ParseError(message, line, col)

    def polynomial(self) -> Polynomial:
        _, _, line, col = self.tokens[self.pos]
        try:
            terms = self.sum()
            if self.tokens[self.pos][0] != ";":
                self.fail("expected ';' after polynomial")
            poly = Polynomial._trusted(self.nvars, terms)
        except OverflowError:  # abs() of a coefficient beyond the float range
            raise ParseError(_OUT_OF_RANGE, line, col) from None
        self.pos += 1
        if self.overflow is None and not all(map(cmath.isfinite, poly.terms.values())):
            self.overflow = (_OUT_OF_RANGE, line, col)
        return poly

    def sum(self) -> dict:
        """Terms of a signed sum of products, before ``_clean``."""
        tokens = self.tokens
        kind = tokens[self.pos][0]
        sign = 1.0
        if kind == "+" or kind == "-":
            sign = -1.0 if kind == "-" else 1.0
            self.pos += 1
        # a clean product times 1.0 or -1.0 needs no cleaning: its moduli
        # stay, and a negative zero part is lost in the sum or its cleaning
        acc = {exps: c * sign for exps, c in self.product().items()}
        kind = tokens[self.pos][0]
        get = acc.get
        while kind == "+" or kind == "-":
            self.pos += 1
            negate = kind == "-"
            for exps, c in self.product().items():
                acc[exps] = get(exps, 0j) + (-c if negate else c)
            kind = tokens[self.pos][0]
        return acc

    def product(self) -> dict:
        tokens, index = self.tokens, self.index
        acc = None  # product of the factors that are not powers of variables
        exps = None  # summed exponents of the powers of variables
        while True:
            kind, value, _, _ = tokens[self.pos]
            if kind == "name" and value in index:
                self.pos += 1
                e = self.exponent() if tokens[self.pos][0] == "^" else 1
                if exps is None:
                    exps = [0] * self.nvars
                exps[index[value]] += e
            else:
                factor = self.atom()
                if tokens[self.pos][0] == "^":
                    factor = _pow_terms(factor, self.exponent(), self.nvars)
                acc = factor if acc is None else _clean(_mul_terms(acc, factor).items())
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if exps is None:
            return acc
        exps = tuple(exps)
        if acc is None:
            return {exps: 1 + 0j}
        return {tuple(map(add, key, exps)): c for key, c in acc.items()}

    def exponent(self) -> int:
        """The exponent after a '^'."""
        self.pos += 1
        kind, value, _, _ = self.tokens[self.pos]
        if kind != "num" or not value.isdigit():
            self.fail("exponent must be a nonnegative integer")
        self.pos += 1
        return int(value)

    def atom(self) -> dict:
        """Clean terms of a number, an undeclared i or j, or a parenthesized sum."""
        kind, value, line, col = self.tokens[self.pos]
        if kind == "num" or kind == "imag":
            self.pos += 1
            v = float(value)
            if math.isinf(v) and self.overflow is None:  # no literal is negative or NaN
                self.overflow = (f"number {value} is out of range", line, col)
            return _clean([(self.origin, complex(v) if kind == "num" else complex(0.0, v))])
        if kind == "name":
            if value in ("i", "j"):
                self.pos += 1
                return {self.origin: 0j + 1j}
            raise ParseError(f"unknown variable {value!r}", line, col)
        if kind == "(":
            self.pos += 1
            inner = _clean(self.sum().items())
            if self.tokens[self.pos][0] != ")":
                self.fail("expected ')'")
            self.pos += 1
            return inner
        if kind == "end":
            self.fail("unexpected end of input")
        self.fail(f"unexpected token {value!r}")


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
    tokens = _tokenize(logical[2:], names)
    parser = _Parser(tokens, names)
    equations = []
    for _ in range(count):
        if tokens[parser.pos][0] == "end":
            last = logical[-1]
            raise ParseError(
                f"expected {count} polynomials, found {len(equations)}",
                last[0], len(last[1]),
            )
        equations.append(parser.polynomial())
    kind, _, line, col = tokens[parser.pos]
    if kind != "end":
        raise ParseError("trailing input after final polynomial", line, col)
    if parser.overflow is not None:
        raise ParseError(*parser.overflow)
    return PolySystem(equations, names)


def format_system(system: PolySystem) -> str:
    """Render in the file format; parse_system(format_system(F)) == F."""
    lines = [str(system.neqs), " ".join(system.var_names)]
    lines.extend(f"{p.format(system.var_names)};" for p in system.equations)
    return "\n".join(lines) + "\n"
