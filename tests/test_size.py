"""The code lines of each module of ``src/gfusion``, counted by one rule and pinned.

The rule: every statement that ``tokenize`` ends with a NEWLINE token counts
the physical lines its tokens span, unless all its tokens are string literals
(a docstring).  Comments and blank lines never count, inside a bracketed
statement or between statements.  A count does not depend on the machine, so
a change that grows or shrinks a module shows here.  A change that moves a
count edits SIZE in the same change.
"""

import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gfusion"
_LAYOUT = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

SIZE = {
    "__init__": 58,
    "bases": 74,
    "cli": 215,
    "errors": 9,
    "generate": 123,
    "induced": 80,
    "io": 205,
    "linalg": 97,
    "perturb": 447,
    "sampling": 31,
    "system": 191,
}


def code_lines(text: str) -> int:
    """The number of physical lines spanned by the tokens of the statements of ``text`` that are not docstrings."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            if not all(t.type == tokenize.STRING for t in statement):
                lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def test_the_rule_skips_docstrings_comments_and_blank_lines():
    text = '"""Module."""\n\n# a comment\ndef f(\n    x,  # inline\n\n    y,\n):\n    """Doc."""\n    return x\n'
    assert code_lines(text) == 5  # def f( ... ): on lines 4, 5, 7 and 8, then the return


def test_every_module_is_pinned():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(SIZE)


@pytest.mark.parametrize("module", sorted(SIZE))
def test_each_module_keeps_its_code_lines(module):
    assert code_lines((SRC / f"{module}.py").read_text(encoding="utf-8")) == SIZE[module]
