"""Sparse multivariate polynomials over the complex numbers.

A monomial is represented by a tuple of nonnegative integer exponents, one
entry per variable. A :class:`Polynomial` maps exponent tuples to complex
coefficients; a :class:`PolySystem` bundles equations with variable names and
offers numeric evaluation of the system and of its Jacobian matrix, which is
itself a :class:`PolyMatrix` of symbolic partial derivatives.

Terms are kept in a fixed graded lexicographic order so that evaluation sums
in a reproducible sequence. Coefficients whose modulus falls below
``DROP_TOL`` (an underflow guard only) are dropped during arithmetic.

Polynomials are built on one of two paths. The public constructor
``Polynomial(nvars, terms)`` checks its input: every exponent tuple is
converted to ints, its length and signs are validated, and coefficients are
converted to Python ``complex``. It serves everything that comes from outside
(the parser's atoms, ``compose_linear``, callers and tests). Results of
arithmetic on polynomials (``+``, ``-``, ``*``, ``differentiate``,
``shift``, ``embed``, ``PolyMatrix.right_multiply``) are built from terms
that are valid by construction and go through ``Polynomial._trusted``, which
skips those checks but still drops tiny coefficients and orders the terms.
Sums (a parsed polynomial, a row times a matrix column) are accumulated in
one dictionary and constructed once: building one per added term would make
a long sum quadratic in its length.

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

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from operator import add

import numpy as np

DROP_TOL = 1e-300

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


class ParseError(ValueError):
    """Syntax or consistency error in a system file, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _grlex_item(item):
    """Sort key of a (exponents, coefficient) pair: graded lexicographic."""
    exponents = item[0]
    return (sum(exponents), exponents)


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


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` complex variables."""

    __slots__ = ("nvars", "terms", "_ordered")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("a polynomial needs at least one variable")
        self.nvars = int(nvars)
        clean = {}
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
            c = clean.get(exps, 0j) + complex(coeff)
            if abs(c) < DROP_TOL:
                clean.pop(exps, None)
            else:
                clean[exps] = c
        self.terms = clean
        self._ordered = tuple(sorted(clean.items(), key=_grlex_item))

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Polynomial":
        """Unchecked constructor for arithmetic results.

        ``terms`` maps exponent tuples of length ``nvars`` (nonnegative ints)
        to Python complex numbers, which holds for anything computed from
        valid polynomials and Python complex scalars. Coefficients are kept
        exactly as the checked constructor keeps them: ``+ 0j`` turns a
        negative zero part into a positive one, and moduli below
        ``DROP_TOL`` are dropped.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        clean = {}
        for exps, c in terms.items():
            c = c + 0j
            if not abs(c) < DROP_TOL:
                clean[exps] = c
        self.terms = clean
        self._ordered = tuple(sorted(clean.items(), key=_grlex_item))
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
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient_scale(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self._ordered))

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
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(map(add, ea, eb))
                    out[key] = out.get(key, 0j) + ca * cb
            return Polynomial._trusted(self.nvars, out)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.nvars, 1.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
        for exps, c in self._ordered:
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

    def compose_linear(self, matrix) -> "Polynomial":
        """Substitute x_j = sum_l matrix[j, l] * y_l (matrix is nvars x m)."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape[0] != self.nvars:
            raise ValueError("substitution matrix row count must equal nvars")
        m = matrix.shape[1]
        forms = [
            Polynomial(m, {tuple(int(l == k) for k in range(m)): matrix[j, l]
                           for l in range(m) if matrix[j, l] != 0})
            for j in range(self.nvars)
        ]
        total = Polynomial.zero(m)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(m, coeff)
            for j, e in enumerate(exps):
                if e:
                    term = term * forms[j] ** e
            total = total + term
        return total

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
        if not self._ordered:
            return "0"
        pieces = []
        for exps, coeff in self._ordered:
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

    __slots__ = ("entries", "rows", "cols", "nvars", "_const", "_constflag")

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
        self._const = None
        self._constflag = None

    @property
    def is_constant(self) -> bool:
        if self._constflag is None:
            self._constflag = all(
                p.degree <= 0 for row in self.entries for p in row
            )
        return self._constflag

    def constant_value(self) -> np.ndarray:
        """Cached numeric value, valid only when ``is_constant``."""
        if self._const is None:
            if not self.is_constant:
                raise ValueError("matrix is not constant")
            origin = (0,) * self.nvars
            self._const = np.array(
                [[row_p.terms.get(origin, 0j) for row_p in row] for row in self.entries],
                dtype=complex,
            )
        return self._const

    def evaluate(self, point: Sequence[complex], cache=None) -> np.ndarray:
        if self.is_constant:
            return self.constant_value()
        check_point(point, self.nvars)
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

    def coefficient_scale(self) -> float:
        return max((p.coefficient_scale() for row in self.entries for p in row),
                   default=0.0)


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
            self._scale = self.jacobian_matrix.coefficient_scale()
        return self._scale

    def compose_linear(self, matrix, new_names=None) -> "PolySystem":
        matrix = np.asarray(matrix, dtype=complex)
        if new_names is None:
            if matrix.shape[1] != self.nvars:
                raise ValueError("square substitution required to reuse names")
            new_names = self.var_names
        return PolySystem(
            [p.compose_linear(matrix) for p in self.equations], new_names
        )


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*^();")


def _tokenize(chunks, var_names):
    """Yield (kind, value, line, col) from (line_number, text) chunks."""
    declared = set(var_names)
    tokens = []
    for lineno, text in chunks:
        pos = 0
        limit = len(text)
        while pos < limit:
            ch = text[pos]
            if ch == "#":
                break
            if ch.isspace():
                pos += 1
                continue
            col = pos + 1
            if ch in _TOKEN_OPS:
                tokens.append(("op", ch, lineno, col))
                pos += 1
                continue
            m = _NUM_RE.match(text, pos)
            if m:
                raw = m.group(0)
                pos = m.end()
                if pos < limit and text[pos] in "ij" and text[pos] not in declared:
                    follower = text[pos + 1] if pos + 1 < limit else ""
                    if not (follower.isalnum() or follower == "_"):
                        tokens.append(("imag", complex(0.0, float(raw)), lineno, col))
                        pos += 1
                        continue
                tokens.append(("num", raw, lineno, col))
                continue
            if ch.isalpha() or ch == "_":
                end = pos + 1
                while end < limit and (text[end].isalnum() or text[end] == "_"):
                    end += 1
                tokens.append(("name", text[pos:end], lineno, col))
                pos = end
                continue
            raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return tokens


class _PolyParser:
    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.var_names = list(var_names)
        self.index = {name: k for k, name in enumerate(var_names)}
        self.nvars = len(var_names)
        self.variables = [Polynomial.variable(self.nvars, k)
                          for k in range(self.nvars)]

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("op", "", 1, 1)
            raise ParseError(message, last[2], last[3])
        raise ParseError(message, tok[2], tok[3])

    def at_op(self, *ops):
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def parse_polynomial(self) -> Polynomial:
        poly = self.parse_sum()
        if not self.at_op(";"):
            self.fail("expected ';' after polynomial")
        self.next()
        return poly

    def parse_sum(self) -> Polynomial:
        sign = 1.0
        if self.at_op("+", "-"):
            sign = -1.0 if self.next()[1] == "-" else 1.0
        first = self.parse_product() * sign
        if not self.at_op("+", "-"):
            return first
        acc = dict(first.terms)
        while self.at_op("+", "-"):
            negate = self.next()[1] == "-"
            for exps, c in self.parse_product().terms.items():
                acc[exps] = acc.get(exps, 0j) + (-c if negate else c)
        return Polynomial._trusted(self.nvars, acc)

    def parse_product(self) -> Polynomial:
        acc = self.parse_power()
        while self.at_op("*"):
            self.next()
            acc = acc * self.parse_power()
        return acc

    def parse_power(self) -> Polynomial:
        base = self.parse_atom()
        if self.at_op("^"):
            self.next()
            tok = self.peek()
            if tok is None or tok[0] != "num" or not tok[1].isdigit():
                self.fail("exponent must be a nonnegative integer")
            self.next()
            return base ** int(tok[1])
        return base

    def parse_atom(self) -> Polynomial:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        kind, value, line, col = tok
        if kind == "num":
            self.next()
            return Polynomial.constant(self.nvars, float(value))
        if kind == "imag":
            self.next()
            return Polynomial.constant(self.nvars, value)
        if kind == "name":
            self.next()
            if value in self.index:
                return self.variables[self.index[value]]
            if value in ("i", "j"):
                return Polynomial.constant(self.nvars, 1j)
            raise ParseError(f"unknown variable {value!r}", line, col)
        if kind == "op" and value == "(":
            self.next()
            inner = self.parse_sum()
            if not self.at_op(")"):
                self.fail("expected ')'")
            self.next()
            return inner
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
    parser = _PolyParser(tokens, names)
    equations = []
    for _ in range(count):
        if parser.peek() is None:
            last = logical[-1]
            raise ParseError(
                f"expected {count} polynomials, found {len(equations)}",
                last[0], len(last[1]),
            )
        equations.append(parser.parse_polynomial())
    extra = parser.peek()
    if extra is not None:
        raise ParseError("trailing input after final polynomial", extra[2], extra[3])
    return PolySystem(equations, names)


def format_system(system: PolySystem) -> str:
    """Render in the file format; parse_system(format_system(F)) == F."""
    lines = [str(system.neqs), " ".join(system.var_names)]
    lines.extend(f"{p.format(system.var_names)};" for p in system.equations)
    return "\n".join(lines) + "\n"
