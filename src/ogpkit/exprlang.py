"""Expression language for building shapes.

CONSTRUCTORS is the language: each head's argument kinds and the
constructor it calls.  The parser, evaluate and the printer `text` read it,
and harness.enumerate_catalog names its entries with `text`.  The heads
mirror the shape operations: point, arrow, globe(n), paste(e, e, k),
atom(e, e), gray(e, e), dual({j, ...}, e), op(e), cyl(e, {ids}), lcyl(e),
rcyl(e), inv("LR...", e), unit(e), lunitor(e), runitor(e), merger(e),
boundary(e, n, +|-), horn(e, "id").  Ids are double-quoted labels, such as
"(a,b)" or "in0:a", matched as written.

Tokens are ASCII-exact: an int is [0-9]+, a name [A-Za-z_] then letters,
digits or _, a string anything but " between double quotes, and each of
(){},+- a token of its own; whitespace between tokens is skipped.  Each
token carries its offset, which _syntax_error turns into the line:column
of an ExprSyntaxError only when one is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .contexts import atomic_horn
from .cylinder import (
    gray_cylinder,
    invertor_shape,
    unit_shape,
    unitor_shape,
    whole_inverted_cylinder,
)
from .errors import EvalError, ExprSyntaxError, ShapeError
from .gray import gray as gray_product
from .molecule import (
    Molecule,
    arrow,
    atom,
    dual,
    globe,
    merger,
    op,
    paste,
    point,
)
from .poset import MINUS, PLUS


@dataclass(frozen=True)
class Expr:
    head: str
    args: tuple = ()


# head -> (argument kinds, constructor).  Argument kinds: e = expression,
# n = integer, J = int set, K = id set, s = string (an id, matched as
# written, is one), ! = sign (+ or -).  The constructor takes the evaluated
# arguments in order.  Each is a lambda, so it reads this module's names
# when called, and a wrapper rebound onto one of them (perfbench/tracer.py
# times the constructors so) sees the call.
CONSTRUCTORS = {
    "point": ("", lambda: point()),
    "arrow": ("", lambda: arrow()),
    "globe": ("n", lambda n: globe(n)),
    "paste": ("een", lambda m1, m2, k: paste(m1, m2, k)),
    "atom": ("ee", lambda m1, m2: atom(m1, m2)),
    "gray": ("ee", lambda m1, m2: gray_product(m1, m2)),
    "dual": ("Je", lambda dims, m: dual(m, dims)),
    "op": ("e", lambda m: op(m)),
    "cyl": ("eK", lambda m, ids: gray_cylinder(m, m.poset.encode(ids))),
    "lcyl": ("e", lambda m: whole_inverted_cylinder(m, "L")),
    "rcyl": ("e", lambda m: whole_inverted_cylinder(m, "R")),
    "inv": ("se", lambda s, m: invertor_shape(s, m)),
    "unit": ("e", lambda m: unit_shape(m)),
    "lunitor": ("e", lambda m: unitor_shape(m, "left")),
    "runitor": ("e", lambda m: unitor_shape(m, "right")),
    "merger": ("e", lambda m: merger(m)),
    "boundary": ("en!", lambda m, n, sign: m.boundary_molecule(n, sign)),
    "horn": ("es", lambda u, x: atomic_horn(u, u.poset.id_of(x))),
}


# -- tokenizer -----------------------------------------------------------------

_PUNCT = "(){},+-"
_TOKEN = re.compile(
    r'\s+|(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|"(?P<string>[^"]*)"')
# the token kind read by each literal argument kind, or by each item of a set
_LITERAL = {"n": "int", "s": "string", "J": "int", "K": "string"}


def _syntax_error(text: str, offset: int, message: str) -> ExprSyntaxError:
    """The error at offset in text, placed at its line and column (from 1)."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ExprSyntaxError(message, text.count("\n", 0, line_start) + 1, offset - line_start + 1)


def _tokens(text: str):
    """(kind, value, offset) for each token of text, then ("eof", None, len(text))."""
    out = []
    i, end = 0, len(text)
    while i < end:
        ch = text[i]
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise _syntax_error(text, i, "unterminated string literal" if ch == '"'
                                else f"unexpected character {ch!r}")
        kind = m.lastgroup
        if kind is not None:  # else whitespace
            value = m[kind]
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise _syntax_error(text, i, "integer literal too long") from None
            out.append((kind, value, i))
        i = m.end()
    out.append(("eof", None, end))
    return out


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokens(text)[::-1]  # the next token last

    def fail(self, offset, message):
        raise _syntax_error(self.text, offset, message)

    def peek(self):
        return self.toks[-1]

    def next(self):
        return self.toks.pop()

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.fail(tok[2], f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def parse_expr(self) -> Expr:
        kind, value, offset = self.next()
        if kind != "name":
            self.fail(offset, f"expected a constructor, found {value!r}")
        if value not in CONSTRUCTORS:
            self.fail(offset, f"unknown constructor {value!r}")
        kinds = CONSTRUCTORS[value][0]
        if not kinds:
            if self.peek()[0] == "(":
                self.next()
                self.expect(")")
            return Expr(value)
        self.expect("(")
        args = []
        for i, code in enumerate(kinds):
            if i > 0:
                self.expect(",")
            args.append(self.parse_arg(code, value, i))
        self.expect(")")
        return Expr(value, tuple(args))

    def parse_arg(self, code, head, index):
        if code == "e":
            return self.parse_expr()
        if code == "!":
            kind, _, offset = self.next()
            if kind not in (MINUS, PLUS):
                self.fail(offset, f"{head} needs a sign (+ or -) in position {index + 1}")
            return kind
        if code in "ns":
            return self.expect(_LITERAL[code])[1]
        self.expect("{")  # J or K
        items = []
        while self.peek()[0] != "}":
            if items:
                self.expect(",")
            items.append(self.expect(_LITERAL[code])[1])
        self.next()
        return frozenset(items)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.fail(tok[2], f"trailing input {tok[1]!r}")
    return expr


def text(head: str, *args) -> str:
    """The text of head applied to args, where an expression argument is
    given as its text."""
    kinds = CONSTRUCTORS[head][0]
    if not kinds:
        return head
    parts = []
    for code, arg in zip(kinds, args):
        if code == "n":
            parts.append(str(arg))
        elif code == "s":
            parts.append(f'"{arg}"')
        elif code == "J":
            parts.append("{" + ",".join(str(j) for j in sorted(arg)) + "}")
        elif code == "K":
            parts.append("{" + ",".join(f'"{s}"' for s in sorted(arg)) + "}")
        else:  # e, already a text, or a sign
            parts.append(arg)
    return f"{head}({','.join(parts)})"


def print_expr(e: Expr) -> str:
    kinds = CONSTRUCTORS[e.head][0]
    return text(e.head, *(print_expr(arg) if code == "e" else arg
                          for code, arg in zip(kinds, e.args)))


# -- evaluation ----------------------------------------------------------------


def evaluate(e: Expr, path: str = ""):
    """Evaluate an expression to a shape (or a horn for horn(...)).

    Domain errors are re-raised as EvalError carrying the expression path
    at which they occurred.
    """
    here = f"{path}.{e.head}" if path else e.head
    kinds, construct = CONSTRUCTORS[e.head]
    args = [evaluate(arg, f"{here}.arg{i + 1}") if code == "e" else arg
            for i, (code, arg) in enumerate(zip(kinds, e.args))]
    try:
        if any(code == "e" and not isinstance(arg, Molecule)
               for code, arg in zip(kinds, args)):
            raise ShapeError(f"{e.head} needs a molecule argument")
        return construct(*args)
    except ShapeError as exc:
        if isinstance(exc, EvalError):
            raise
        raise EvalError(here, exc) from exc


def eval_text(text: str):
    return evaluate(parse(text))
