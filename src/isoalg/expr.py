"""Parser for expressions over algebra generators, U and U*.

Grammar (whitespace ignored)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' INT | "'")*
    primary := IDENT | 'U' | NUMBER | '(' expr ')'

``'`` is the adjoint, ``U`` names the distinguished partial isometry and any
other identifier is looked up in the generator table.  Numbers may carry an
``i``/``j`` suffix for imaginary literals, and must be finite as floats
(``1e400`` is a ParseError).  Powers must be non-negative integers; adjoint
powers are written ``(U')^k``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnknownGenerator
from .linalg import as_matrix


@dataclass(frozen=True)
class Scalar:
    value: complex


@dataclass(frozen=True)
class Gen:
    name: str
    matrix: np.ndarray


@dataclass(frozen=True)
class USym:
    star: bool = False


@dataclass(frozen=True)
class Sum:
    items: tuple


@dataclass(frozen=True)
class Prod:
    items: tuple


@dataclass(frozen=True)
class Adj:
    item: object


@dataclass(frozen=True)
class Pow:
    item: object
    exponent: int


Expression = Scalar | Gen | USym | Sum | Prod | Adj | Pow

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[ij]?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>[-+*^'()])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: dict[str, np.ndarray]):
        self.tokens = _tokenize(text)
        self.table = table
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse_expr(self):
        items = []
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.next()
        first = self.parse_term()
        items.append(Prod((Scalar(-1.0), first)) if negate else first)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self.parse_term()
                items.append(Prod((Scalar(-1.0), term)) if val == "-" else term)
            else:
                break
        return items[0] if len(items) == 1 else Sum(tuple(items))

    def parse_term(self):
        items = [self.parse_factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                items.append(self.parse_factor())
            else:
                break
        return items[0] if len(items) == 1 else Prod(tuple(items))

    def parse_factor(self):
        node = self.parse_primary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind, val, pos = self.next()
                if kind != "number" or not val.isdigit():
                    raise ParseError(
                        "power must be a non-negative integer (write (U')^k "
                        "for adjoint powers)", pos)
                node = Pow(node, int(val))
            elif kind == "op" and val == "'":
                self.next()
                node = Adj(node)
            else:
                return node

    def parse_primary(self):
        kind, val, pos = self.next()
        if kind == "number":
            imaginary = val[-1] in "ij"
            value = float(val[:-1] if imaginary else val)
            if not np.isfinite(value):
                raise ParseError(f"number {val!r} is not finite", pos)
            return Scalar(complex(0.0, value) if imaginary
                          else complex(value, 0.0))
        if kind == "ident":
            if val == "U":
                return USym()
            if val not in self.table:
                raise UnknownGenerator(
                    f"unknown generator {val!r}; known: "
                    f"{sorted(self.table) or '(none)'}")
            return Gen(val, self.table[val])
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a generator, 'U', a number or '(', found "
                         f"{val or 'end of input'!r}", pos)


def parse(text: str, system, table: dict[str, np.ndarray]) -> Expression:
    """Parse expression text, resolving identifiers against ``table``.

    Generator matrices must match the system's ambient dimension.
    """
    for name, mat in table.items():
        if as_matrix(mat).shape[0] != system.dim:
            raise UnknownGenerator(
                f"generator {name!r} has dim {as_matrix(mat).shape[0]}, "
                f"system has dim {system.dim}")
    parser = _Parser(text, table)
    node = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return node
