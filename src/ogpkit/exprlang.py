"""Expression language for building shapes.

Constructors mirror the shape operations: point, arrow, globe(n),
paste(e, e, k), atom(e, e), gray(e, e), dual({j, ...}, e), op(e),
cyl(e, {ids}), lcyl(e), rcyl(e), inv("LR...", e), unit(e), lunitor(e),
runitor(e), merger(e), boundary(e, n, +|-), horn(e, "id").  Ids are
double-quoted labels, such as "(a,b)" or "in0:a", matched as written.
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
    line: int = 0
    column: int = 0


# argument kinds: e = expression, n = integer, J = int set, K = id set,
# s = string (an id, matched as written, is one), sign = +/-
SIGNATURES = {
    "point": "",
    "arrow": "",
    "globe": "n",
    "paste": "een",
    "atom": "ee",
    "gray": "ee",
    "dual": "Je",
    "op": "e",
    "cyl": "eK",
    "lcyl": "e",
    "rcyl": "e",
    "inv": "se",
    "unit": "e",
    "lunitor": "e",
    "runitor": "e",
    "merger": "e",
    "boundary": "en!",
    "horn": "es",
}
# "!" marks a trailing sign argument


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

    def fail(self, message):
        tok = self.peek()
        raise ExprSyntaxError(message, tok[2], tok[3])

    def parse_expr(self) -> Expr:
        kind, value, line, col = self.next()
        if kind != "name":
            raise ExprSyntaxError(f"expected a constructor, found {value!r}", line, col)
        if value not in SIGNATURES:
            raise ExprSyntaxError(f"unknown constructor {value!r}", line, col)
        sig = SIGNATURES[value]
        if not sig:
            if self.peek()[0] == "(":
                self.next()
                self.expect(")")
            return Expr(value, (), line, col)
        self.expect("(")
        args = []
        for i, code in enumerate(sig):
            if i > 0:
                self.expect(",")
            args.append(self.parse_arg(code, value, i))
        self.expect(")")
        return Expr(value, tuple(args), line, col)

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
                if code == "J":
                    items.append(self.expect("int")[1])
                else:
                    items.append(self.expect("string")[1])
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


def print_expr(e: Expr) -> str:
    sig = SIGNATURES[e.head]
    if not sig:
        return e.head
    parts = []
    for code, arg in zip(sig, e.args):
        if code == "e":
            parts.append(print_expr(arg))
        elif code == "n":
            parts.append(str(arg))
        elif code == "!":
            parts.append(arg)
        elif code == "s":
            parts.append(f'"{arg}"')
        elif code == "J":
            parts.append("{" + ",".join(str(j) for j in sorted(arg)) + "}")
        elif code == "K":
            parts.append("{" + ",".join(f'"{s}"' for s in sorted(arg)) + "}")
    return f"{e.head}({','.join(parts)})"


# -- evaluation ----------------------------------------------------------------


def evaluate(e: Expr, path: str = ""):
    """Evaluate an expression to a shape (or a horn for horn(...)).

    Domain errors are re-raised as EvalError carrying the expression path
    at which they occurred.
    """
    here = f"{path}.{e.head}" if path else e.head
    sig = SIGNATURES[e.head]
    args = []
    for i, (code, arg) in enumerate(zip(sig, e.args)):
        if code == "e":
            args.append(evaluate(arg, f"{here}.arg{i + 1}"))
        else:
            args.append(arg)
    try:
        return _apply(e.head, args)
    except ShapeError as exc:
        if isinstance(exc, EvalError):
            raise
        raise EvalError(here, exc) from exc


def _as_molecule(value, head):
    if not isinstance(value, Molecule):
        raise ShapeError(f"{head} needs a molecule argument")
    return value


def _apply(head, args):
    if head == "point":
        return point()
    if head == "arrow":
        return arrow()
    if head == "globe":
        return globe(args[0])
    if head == "paste":
        return paste(_as_molecule(args[0], head), _as_molecule(args[1], head), args[2])
    if head == "atom":
        return atom(_as_molecule(args[0], head), _as_molecule(args[1], head))
    if head == "gray":
        return gray_product(_as_molecule(args[0], head), _as_molecule(args[1], head))
    if head == "dual":
        return dual(_as_molecule(args[1], head), args[0])
    if head == "op":
        return op(_as_molecule(args[0], head))
    if head == "cyl":
        m = _as_molecule(args[0], head)
        return gray_cylinder(m, m.poset.encode(args[1]))
    if head in ("lcyl", "rcyl"):
        m = _as_molecule(args[0], head)
        side = "L" if head == "lcyl" else "R"
        sign = PLUS if side == "L" else MINUS
        return inverted_cylinder(m, m.poset.boundary_mask(m.poset.full, m.dim - 1, sign), side)
    if head == "inv":
        return invertor_shape(args[0], _as_molecule(args[1], head))
    if head == "unit":
        return unit_shape(_as_molecule(args[0], head))
    if head in ("lunitor", "runitor"):
        return unitor_shape(_as_molecule(args[0], head),
                            "left" if head == "lunitor" else "right")
    if head == "merger":
        return merger(_as_molecule(args[0], head))
    if head == "boundary":
        return _as_molecule(args[0], head).boundary_molecule(args[1], args[2])
    if head == "horn":
        u = _as_molecule(args[0], head)
        return atomic_horn(u, u.poset.id_of(args[1]))
    raise AssertionError(head)


def eval_text(text: str):
    return evaluate(parse(text))
