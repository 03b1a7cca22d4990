"""The parser against the token-by-token parser it replaced.

``reference_parse_system`` below is the earlier parser, kept here as the
reference: a per-character tokenizer, and a recursive descent that builds
every atom with the checked ``Polynomial`` constructor and combines them
with ``Polynomial`` arithmetic. ``parse_system`` must agree with it:

* where the reference raises a ``ParseError``, the same text, line and
  column;
* where it returns finite coefficients, the same coefficient bits, Python
  ``complex`` coefficients and the same term order; unless a literal
  overflows, which is now an error even where its term vanishes
  (``0*1e400``);
* where it returns a coefficient that is not finite, or fails with an
  ``OverflowError``, a ``ParseError`` saying a value is out of range.
"""

import cmath
import math
import pathlib
import re
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from polydeflate import deflate
from polydeflate.polysys import (_IDENT_RE, ParseError, Polynomial, PolySystem,
                                 format_system, parse_system)

from conftest import FIXTURES, is_graded
from reference import variable

# ---------------------------------------------------------------------------
# the reference parser
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
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
        self.variables = [variable(self.nvars, k) for k in range(self.nvars)]

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


def reference_parse_system(text: str) -> PolySystem:
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


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

_OUT_OF_RANGE = re.compile(r"number (\S+) is out of range|polynomial has a coefficient "
                           r"out of range")


def _bits(c):
    return c.real.hex(), c.imag.hex(), type(c) is complex


def _signature(system):
    return system.var_names, [
        (p.nvars, [(exps, _bits(c)) for exps, c in p.terms.items()])
        for p in system.equations]


def assert_same_parse(text):
    try:
        expected = reference_parse_system(text)
    except ParseError as err:
        expected = err
    except OverflowError:  # abs() of a coefficient beyond the float range
        expected = None
    try:
        result = parse_system(text)
    except ParseError as err:
        result = err

    if isinstance(expected, ParseError):
        assert isinstance(result, ParseError), text
        assert (str(result), result.line, result.column) == \
            (str(expected), expected.line, expected.column), text
        return
    finite = expected is not None and all(
        cmath.isfinite(c) for p in expected.equations for c in p.terms.values())
    if not finite:
        assert isinstance(result, ParseError), text
        assert _OUT_OF_RANGE.search(str(result)), (text, str(result))
        return
    if isinstance(result, ParseError):
        # a literal beyond the float range is an error even where its term
        # vanishes, as in 0*1e400 or (1e400)^0
        literal = _OUT_OF_RANGE.search(str(result))
        assert literal and literal.group(1), (text, str(result))
        assert math.isinf(float(literal.group(1))), (text, str(result))
        return
    assert _signature(result) == _signature(expected), text
    assert all(is_graded(p.terms) for p in result.equations), text


# ---------------------------------------------------------------------------
# generated system texts
# ---------------------------------------------------------------------------

_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000"])
_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", ".25", "3.", "07", "2E+3",
                     "\u0661", "\u0662.5", "1e200", "1.5e308", "1e400"]),
    # tiny literals, and factors whose products and sums cross DROP_TOL
    st.sampled_from(["1e-310", "1e-400", "1e-300", "1e-301", "1e-150", "1e-151",
                     "3e-151", "1e-155", "9.99e-301"]),
    st.floats(min_value=0, max_value=1e6, allow_nan=False).map(lambda x: format(x, ".17g")),
)
_UNITS = st.sampled_from(["i", "j"])
# x and y are always declared, i, j and z1 sometimes; é and x² never can be
_ATOMS = st.one_of(
    st.sampled_from(["x", "y", "i", "j"]),
    st.sampled_from(["x*y", "x*x", "y*x^2"]),
    _NUMBERS,
    st.tuples(_NUMBERS, _UNITS).map("".join),
    st.tuples(_NUMBERS, st.sampled_from("+-"), _NUMBERS, _UNITS).map(
        lambda t: f"({t[0]}{t[1]}{t[2]}{t[3]})"),
    st.sampled_from(["x", "y", "x", "2", "z1", "\u00e9", "x\u00b2"]),
)
# mostly valid exponents
_POWERS = st.sampled_from(["^0", "^1", "^2", "^3", "^ 2", "^\u0662"] * 3
                          + ["^2.5", "^\u00b2", "^x"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, _SPACE, st.sampled_from("+-*"), _SPACE, inner).map("".join),
        st.tuples(_SPACE, inner, _SPACE).map(lambda t: "(" + "".join(t) + ")"),
        st.tuples(inner, _POWERS).map(lambda t: f"({t[0]}){t[1]}"),
        st.tuples(st.sampled_from("+-"), inner).map("".join),
    )


_EXPRESSIONS = st.recursive(st.one_of(_ATOMS, st.tuples(_ATOMS, _POWERS).map("".join)),
                           _extend, max_leaves=8)
_STRAY = st.sampled_from(["\u00b2", "\u00e9", "@", "(", ")", "^", "*", "+",
                          "-", ";", "i", "j", "2", ".", "e", "#", "\n"])


@st.composite
def system_texts(draw):
    names = ["x", "y"] + draw(st.sampled_from([[], [], ["z1"], ["i"], ["i", "j", "z1"]]))
    names = draw(st.permutations(names))
    equations = draw(st.lists(_EXPRESSIONS, min_size=1, max_size=3))
    count = len(equations) + draw(st.sampled_from([0] * 6 + [1, -1]))
    lines = [f"{count}", " ".join(names)]
    for eq in equations:
        comment = draw(st.sampled_from(["", "", " # note", "# x^2;"]))
        cut = eq.find(" ")
        if cut > 0 and draw(st.booleans()):
            # the equation goes on on the next line
            lines.append(eq[:cut])
            eq = eq[cut:]
        lines.append(eq + draw(_SPACE) + ";" + comment)
    text = "\n".join(lines) + "\n"
    if draw(st.integers(0, 4)) == 0:
        # an edit that mostly breaks the syntax
        at = draw(st.integers(len(lines[0]) + len(lines[1]) + 2, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(_STRAY) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system_texts())
def test_parser_matches_the_reference(text):
    assert_same_parse(text)


def test_parser_matches_the_reference_on_fixtures_and_exports():
    # the first two stages of each fixture draw from rng, later ones from
    # deeper, so that the texts of the first two stay the same as more
    # stages are compared
    rng = np.random.Generator(np.random.PCG64(29))
    deeper = np.random.Generator(np.random.PCG64(30))
    texts = []
    for path in sorted(pathlib.Path(FIXTURES).glob("*.ps")):
        texts.append(path.read_text())
        current = deflate.DeflatedSystem(parse_system(texts[-1]))
        z = np.zeros(current.nvars, dtype=complex)
        # deflate at the root until it is regular, as perfbench's export does
        while len(current.stages) < deflate.STAGE_CAP:
            try:
                current, multipliers = deflate.deflate_once(
                    current, z, 1e-8, rng if len(current.stages) < 2 else deeper)
            except deflate.RegularPointError:
                break
            z = np.concatenate([z, multipliers])
            texts.append(deflate.format_deflated(current))
            texts.append(format_system(current.expand()))
    systems = [reference_parse_system(text) for text in texts]
    assert len(texts) > 10 and all(isinstance(s, PolySystem) for s in systems)
    # axis_quartic's third stage: 16 variables, 299 terms
    assert (16, 299) in [(s.nvars, sum(len(p.terms) for p in s.equations)) for s in systems]
    for text in texts:
        assert_same_parse(text)
    # one-character deletions and replacements in the second half of the
    # longest line of each long export: errors far from the line start
    edits = np.random.Generator(np.random.PCG64(31))
    for text in texts:
        lines = text.split("\n")
        k = max(range(len(lines)), key=lambda i: len(lines[i]))
        if len(lines[k]) < 300:
            continue
        for _ in range(6):
            at = int(edits.integers(len(lines[k]) // 2, len(lines[k])))
            put = ["", "", *"+-*^();.i2 \u00b2@"][edits.integers(15)]
            lines_edited = lines[:k] + [lines[k][:at] + put + lines[k][at + 1:]] + lines[k + 1:]
            assert_same_parse("\n".join(lines_edited))


def test_parser_matches_the_reference_on_edge_cases():
    for text in ["1\nx\n-(x+1)^3*(2-3i) - (x - j)^2;", "1\ni\n2i*i + 2j;",
                 "1\nx\n2ix;", "2\nx y\nx²;\ny;", "1\nx\n١*x^١;",
                 "1\nx\n1e-310*x + 1e-400 + 1e-300;", "1\nx\nx^2 + ;", "1\nx\n",
                 "1\nx\nx;　 ", "1\nx\né;", "1\nx\n²;", "1\nx\n(1e400)^0*x;",
                 "1\nx\n0*1e400;", "1\nx\n(1.5e308+1.5e308i)*x;", "1\nx\nx^2^3;",
                 "1\nx\n(x;", "1\nx\nx)", "2\nx\nx;", "1\nx\n1e-310 + 1e-300;",
                 "1\nx\n(1e-150*1e-151 + 1e-300)*x;", "1\nx\n1e-150*1e-151*x + 1e-300*x;",
                 "1\nx\n1e-150*x*1e-151 + 1e-300*x;", "1\nx\n(1e-301 + 1e-300)*x;",
                 "1\nx\n2i\u00e9;", "1\nx\n2j\u00b2;", "1\nx\n(1.5e-300 - 1e-300) + 1e-300;",
                 "1\nx\n-(1.5e-300 - 1e-300)*x - 1e-300*x;", "2\nx y\nx*y*x^2*3*x;\n(1e200*x)^2;",
                 "1\nx y\n(x + 1) * y^0 * (2-1i)^2 * x;"]:
        assert_same_parse(text)


def test_parser_matches_the_reference_on_runs_of_factors():
    # a run of factors read in one match: an exponent on a later factor, a
    # literal or an unknown name after the first factor, complex literals
    for text in ["1\nx\n2*x^3^2;", "1\nx\n2*x^2.5;", "1\nx\nx^2 * (1-2i)^2.5;",
                 "1\nx y\n(1-2i)*x^2*y^2^3;", "1\nx y\n3*x*y^2.5 + 1;", "1\nx y\nx*foo*y;",
                 "1\nx y\n(1-2i)*x*1e400*y;", "1\nx y\nx*(1e400+1i)*y;", "1\ni y\n(1-2i)*y;",
                 "1\nx y\n( 1 - 2i ) * x;", "1\nx y\n(-0-0i)*x - (0+0i);",
                 "1\nx y\n(1e-301-1e-301i)*x + x;", "1\nx y\n(1.5e308+1.5e308i)*x*y;",
                 "1\nx y\nx*y*(1-2i) - y*x*(2+1j)^2*x;", "1\nx\nx ^ 2 * x^\n2;",
                 "1\nj\n(1-2i)^2*j - (1-2j);", "1\nx\n2j*x^2j;", "1\nx y\nx*y^2*(x + 1)*3*y;",
                 "1\nx y\n-(2.5-1e-310i)*x^0*y^1 + 2.5*y;", "2\nx y\nx*y;\nx*y*z;"]:
        assert_same_parse(text)


def test_regex_classes_are_the_reference_character_tests():
    # the tokenizer's \w, \s and \d stand for the reference's str.isalnum or
    # "_", str.isspace and str.isdecimal; both follow the Unicode database
    # of the running Python
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\w", chars)) == "".join(
        c for c in chars if c.isalnum() or c == "_")
    assert "".join(re.findall(r"\s", chars)) == "".join(filter(str.isspace, chars))
    assert "".join(re.findall(r"\d", chars)) == "".join(filter(str.isdecimal, chars))
