"""The package's size in lines, per module and in all.

Run from the repository root::

    python tests/src_size.py

For each module of ``src/polydeflate`` it prints the raw line count and
the code line count, then both totals. A code line holds a token of a
statement: docstrings, comments and blank lines do not count, and a string
that spans lines counts each of its lines. Lines are read with
``tokenize``, so a ``#`` or a quote inside a string is not mistaken for a
comment or a docstring. pytest does not collect it.
"""

import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "polydeflate"

# tokens that hold no statement text; NEWLINE, INDENT and DEDENT can start one
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token other than a docstring's."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    before = tokenize.NEWLINE   # the module's first statement starts a line
    for token, after in zip(tokens, tokens[1:] + [None]):
        # a string that is a whole statement: a docstring, or one in its place
        alone = (token.type == tokenize.STRING and before in _STATEMENT_START
                 and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if token.type not in _LAYOUT and not alone:
            lines.update(range(token.start[0], token.end[0] + 1))
        before = token.type
    return len(lines)


def main() -> int:
    raw_total = code_total = 0
    print(f"{'raw':>6} {'code':>6}  module")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        raw, code = len(text.splitlines()), code_lines(text)
        raw_total += raw
        code_total += code
        print(f"{raw:>6} {code:>6}  {path.name}")
    print(f"{raw_total:>6} {code_total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
