"""Expression language for building shapes.

CONSTRUCTORS is the language: each head's argument kinds and the
constructor it calls.  The parser, evaluate and the printer `text` read it,
and harness.enumerate_catalog names its entries with `text`.  The heads
mirror the shape operations: point, arrow, globe(n), paste(e, e, k),
atom(e, e), gray(e, e), dual({j, ...}, e), op(e), cyl(e, {ids}), lcyl(e),
rcyl(e), inv("LR...", e), unit(e), lunitor(e), runitor(e), merger(e),
boundary(e, n, +|-), horn(e, "id").  Ids are double-quoted labels, such as
"(a,b)" or "in0:a", matched as written.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contexts import atomic_horn
from .cylinder import (
    gray_cylinder,
    inverted_cylinder,
    invertor_shape,
    unit_shape,
    unitor_shape,
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


def _inverted_cylinder(m, side):
    """Inverted on the whole (n-1)-boundary: the output for L, input for R."""
    sign = PLUS if side == "L" else MINUS
    return inverted_cylinder(m, m.poset.boundary_mask(m.poset.full, m.dim - 1, sign), side)


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
    "lcyl": ("e", lambda m: _inverted_cylinder(m, "L")),
    "rcyl": ("e", lambda m: _inverted_cylinder(m, "R")),
    "inv": ("se", lambda s, m: invertor_shape(s, m)),
    "unit": ("e", lambda m: unit_shape(m)),
    "lunitor": ("e", lambda m: unitor_shape(m, "left")),
    "runitor": ("e", lambda m: unitor_shape(m, "right")),
    "merger": ("e", lambda m: merger(m)),
    "boundary": ("en!", lambda m, n, sign: m.boundary_molecule(n, sign)),
    "horn": ("es", lambda u, x: atomic_horn(u, u.poset.id_of(x))),
}


# -- tokenizer -----------------------------------------------------------------


def _tokens(text: str):
    line, col = 1, 1
    i = 0
    out = []
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "(){},+-":
            out.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ExprSyntaxError("unterminated string literal", line, col)
            out.append(("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    out.append(("eof", None, line, col))
    return out


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse_expr(self) -> Expr:
        kind, value, line, col = self.next()
        if kind != "name":
            raise ExprSyntaxError(f"expected a constructor, found {value!r}", line, col)
        if value not in CONSTRUCTORS:
            raise ExprSyntaxError(f"unknown constructor {value!r}", line, col)
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
        if code == "n":
            return self.expect("int")[1]
        if code == "!":
            tok = self.next()
            if tok[0] not in (MINUS, PLUS):
                raise ExprSyntaxError(
                    f"{head} needs a sign (+ or -) in position {index + 1}", tok[2], tok[3]
                )
            return tok[0]
        if code == "s":
            return self.expect("string")[1]
        if code in ("J", "K"):
            self.expect("{")
            items = []
            while self.peek()[0] != "}":
                if items:
                    self.expect(",")
                items.append(self.expect("int" if code == "J" else "string")[1])
            self.next()
            return frozenset(items)
        raise AssertionError(code)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])
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
