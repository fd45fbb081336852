"""Tiny expression language for kernels, curves, nonlinearities and data.

Grammar (ASCII or U+2212 minus accepted)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative exponent
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

Identifiers are the variables ``t``, ``s``, ``x`` and the functions
``sin``, ``cos``, ``exp``, ``log``, ``sqrt``.  ``^`` binds tighter than
unary minus, so ``-t^2`` is ``-(t^2)``.

Number literals must be finite, and constants are folded only when the
result is finite, so every tree prints and compiles.  A product with 0
folds only when both factors are constant: ``0*log(t)`` is nan at 0.

Expressions are immutable after parsing and safe to evaluate from several
threads at once.  Calling an expression (``e(t=..., s=...)``) is the only
way to evaluate it: the tree is compiled once to a vectorized numpy form
that accepts arrays or scalars.  Domain violations (log of a non-positive
value, division by zero, overflow, ...) give nan or inf instead of raising;
the callers check finiteness where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionSyntaxError

VARIABLES = ("t", "s", "x")

_NP_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_BIN_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3
_ATOM_PRECEDENCE = 5


@dataclass(frozen=True)
class _Const:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Neg:
    arg: object


@dataclass(frozen=True)
class _Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class _Bin:
    op: str
    lhs: object
    rhs: object


def _const(value):
    return _Const(float(value))


def _neg(a):
    if isinstance(a, _Const):
        return _Const(-a.value)
    if isinstance(a, _Neg):
        return a.arg
    return _Neg(a)


def _add(a, b):
    if (isinstance(a, _Const) and isinstance(b, _Const)
            and math.isfinite(a.value + b.value)):
        return _Const(a.value + b.value)
    if isinstance(a, _Const) and a.value == 0.0:
        return b
    if isinstance(b, _Const) and b.value == 0.0:
        return a
    return _Bin("+", a, b)


def _sub(a, b):
    if (isinstance(a, _Const) and isinstance(b, _Const)
            and math.isfinite(a.value - b.value)):
        return _Const(a.value - b.value)
    if isinstance(b, _Const) and b.value == 0.0:
        return a
    if isinstance(a, _Const) and a.value == 0.0:
        return _neg(b)
    return _Bin("-", a, b)


def _mul(a, b):
    if (isinstance(a, _Const) and isinstance(b, _Const)
            and math.isfinite(a.value * b.value)):
        return _Const(a.value * b.value)
    if isinstance(a, _Const) and a.value == 1.0:
        return b
    if isinstance(b, _Const) and b.value == 1.0:
        return a
    return _Bin("*", a, b)


def _dmul(a, b):
    """``a*b`` in a derivative, which drops a term with a factor 0."""
    product = _mul(a, b)
    if isinstance(product, _Bin) and _Const(0.0) in (a, b):
        return _Const(0.0)
    return product


def _div(a, b):
    if (isinstance(a, _Const) and isinstance(b, _Const) and b.value != 0.0
            and math.isfinite(a.value / b.value)):
        return _Const(a.value / b.value)
    if isinstance(b, _Const) and b.value == 1.0:
        return a
    return _Bin("/", a, b)


def _pow(a, b):
    if isinstance(a, _Const) and isinstance(b, _Const):
        try:
            v = math.pow(a.value, b.value)
        except (ValueError, OverflowError):
            return _Bin("^", a, b)
        return _Const(v)
    if isinstance(b, _Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _Const(1.0)
    return _Bin("^", a, b)


def _call(fn, a):
    if isinstance(a, _Const):
        try:
            v = {
                "sin": math.sin,
                "cos": math.cos,
                "exp": math.exp,
                "log": math.log,
                "sqrt": math.sqrt,
            }[fn](a.value)
        except (ValueError, OverflowError):
            return _Call(fn, a)
        return _Const(v)
    return _Call(fn, a)


class _Tokenizer:
    """Splits text into (kind, value, offset) tuples."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c == "−":  # unicode minus
                self.tokens.append(("op", "-", i))
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append(("op", c, i))
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        while k < n and text[k].isdigit():
                            k += 1
                        j = k
                lit = text[i:j]
                try:
                    value = float(lit)
                except ValueError:
                    raise ExpressionSyntaxError(f"bad number literal {lit!r}", i)
                if not math.isfinite(value):
                    raise ExpressionSyntaxError(
                        f"number literal {lit!r} is not finite", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _Tokenizer(text)

    def parse(self):
        node = self._expr()
        kind, value, offset = self.toks.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {value!r}", offset)
        return node

    def _expr(self):
        node = self._term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.next()
                rhs = self._term()
                node = _add(node, rhs) if value == "+" else _sub(node, rhs)
            else:
                return node

    def _term(self):
        node = self._unary()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "*/":
                self.toks.next()
                rhs = self._unary()
                node = _mul(node, rhs) if value == "*" else _div(node, rhs)
            else:
                return node

    def _unary(self):
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "-":
            self.toks.next()
            return _neg(self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            return _pow(base, self._unary())
        return base

    def _atom(self):
        kind, value, offset = self.toks.next()
        if kind == "num":
            return _const(value)
        if kind == "ident":
            nk, nv, _ = self.toks.peek()
            if nk == "op" and nv == "(":
                if value not in _NP_FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function {value!r}", offset)
                self.toks.next()
                arg = self._expr()
                self._expect(")")
                return _call(value, arg)
            if value in _NP_FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"function {value!r} requires an argument list", offset
                )
            if value not in VARIABLES:
                raise ExpressionSyntaxError(f"unknown identifier {value!r}", offset)
            return _Var(value)
        if kind == "op" and value == "(":
            node = self._expr()
            self._expect(")")
            return node
        raise ExpressionSyntaxError(
            "expected a number, identifier or parenthesized expression", offset
        )

    def _expect(self, op):
        kind, value, offset = self.toks.next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", offset)


def _square(a):
    return np.multiply(a, a, dtype=float)


def _cube(a):
    out = np.multiply(a, a, dtype=float)
    out *= a
    return out


def _fourth(a):
    out = np.multiply(a, a, dtype=float)
    out *= out
    return out


#: constant exponents compiled to products, and the helper that forms each
_INTEGER_POWERS = {2.0: _square, 3.0: _cube, 4.0: _fourth}

_COMPILE_NAMESPACE = {"np": np, **{
    fn.__name__: fn for fn in _INTEGER_POWERS.values()}}


def _to_source(node, consts):
    """Python source for the compiled vectorized form (fully parenthesized).

    Each constant becomes a name ``_c<k>`` bound to ``consts[k]``, a numpy
    float, so that an operation between two constants is numpy arithmetic
    too: it gives inf or nan where Python floats raise or turn complex.
    """
    if isinstance(node, _Const):
        consts.append(np.float64(node.value))
        return f"_c{len(consts) - 1}"
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Neg):
        return f"(-{_to_source(node.arg, consts)})"
    if isinstance(node, _Call):
        return f"np.{node.fn}({_to_source(node.arg, consts)})"
    if isinstance(node, _Bin):
        if node.op == "^" and isinstance(node.rhs, _Const):
            power = _INTEGER_POWERS.get(node.rhs.value)
            if power is not None:
                return f"{power.__name__}({_to_source(node.lhs, consts)})"
        op = "**" if node.op == "^" else node.op
        return (f"({_to_source(node.lhs, consts)}{op}"
                f"{_to_source(node.rhs, consts)})")
    raise TypeError(node)


def _compile(root):
    """The vectorized form of a tree, a function of t, s and x.

    A constant (a default guess "0", a kernel "1", the slope of G = x)
    returns its numpy float without going through ``eval``.
    """
    if isinstance(root, _Const):
        value = np.float64(root.value)
        return lambda t=None, s=None, x=None: value
    consts = []
    src = "lambda t=None, s=None, x=None: " + _to_source(root, consts)
    namespace = dict(_COMPILE_NAMESPACE, **{
        f"_c{k}": c for k, c in enumerate(consts)})
    return eval(src, namespace)  # noqa: S307 - source built above


def _node_precedence(node):
    if isinstance(node, _Const):
        return _NEG_PRECEDENCE if node.value < 0 else _ATOM_PRECEDENCE
    if isinstance(node, (_Var, _Call)):
        return _ATOM_PRECEDENCE
    if isinstance(node, _Neg):
        return _NEG_PRECEDENCE
    return _BIN_PRECEDENCE[node.op]


def _format_const(value):
    # integral constants print without the trailing ".0"; both forms
    # re-parse to the identical float
    if value == int(value) and abs(value) <= 1e15:
        return str(int(value))
    return repr(value)


def _to_text(node):
    if isinstance(node, _Const):
        return _format_const(node.value)
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Call):
        return f"{node.fn}({_to_text(node.arg)})"
    if isinstance(node, _Neg):
        arg = _to_text(node.arg)
        if _node_precedence(node.arg) < _NEG_PRECEDENCE:
            arg = f"({arg})"
        return f"-{arg}"
    prec = _BIN_PRECEDENCE[node.op]
    lhs, rhs = _to_text(node.lhs), _to_text(node.rhs)
    if node.op == "^":
        # right-associative: parenthesize lhs at equal precedence
        if _node_precedence(node.lhs) <= prec:
            lhs = f"({lhs})"
        if _node_precedence(node.rhs) < prec:
            rhs = f"({rhs})"
    else:
        if _node_precedence(node.lhs) < prec:
            lhs = f"({lhs})"
        if _node_precedence(node.rhs) <= prec:
            rhs = f"({rhs})"
    return f"{lhs}{node.op}{rhs}"


def _free_variables(node, acc):
    if isinstance(node, _Var):
        acc.add(node.name)
    elif isinstance(node, _Neg):
        _free_variables(node.arg, acc)
    elif isinstance(node, _Call):
        _free_variables(node.arg, acc)
    elif isinstance(node, _Bin):
        _free_variables(node.lhs, acc)
        _free_variables(node.rhs, acc)


def _diff_node(node, wrt):
    if isinstance(node, _Const):
        return _Const(0.0)
    if isinstance(node, _Var):
        return _Const(1.0 if node.name == wrt else 0.0)
    if isinstance(node, _Neg):
        return _neg(_diff_node(node.arg, wrt))
    if isinstance(node, _Call):
        du = _diff_node(node.arg, wrt)
        u = node.arg
        if node.fn == "sin":
            return _dmul(_call("cos", u), du)
        if node.fn == "cos":
            return _neg(_dmul(_call("sin", u), du))
        if node.fn == "exp":
            return _dmul(_call("exp", u), du)
        if node.fn == "log":
            return _div(du, u)
        if node.fn == "sqrt":
            return _div(du, _dmul(_const(2.0), _call("sqrt", u)))
        raise TypeError(node.fn)
    if isinstance(node, _Bin):
        a, b = node.lhs, node.rhs
        da = _diff_node(a, wrt)
        db = _diff_node(b, wrt)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_dmul(da, b), _dmul(a, db))
        if node.op == "/":
            return _div(_sub(_dmul(da, b), _dmul(a, db)), _pow(b, _const(2.0)))
        # power
        if isinstance(b, _Const):
            c = b.value
            return _dmul(_dmul(_const(c), _pow(a, _const(c - 1.0))), da)
        # general exponent: a^b * (db*log(a) + b*da/a)
        return _dmul(
            _pow(a, b),
            _add(_dmul(db, _call("log", a)), _div(_dmul(b, da), a)),
        )
    raise TypeError(node)


def _degree(node, max_degree):
    """(degree bound in x, value) of a subtree, the value only for a bound
    of 0, else None; None for a subtree that is not a polynomial."""
    if isinstance(node, _Const):
        return 0, np.float64(node.value)
    if isinstance(node, _Var):
        return (1, None) if node.name == "x" else None
    if isinstance(node, _Neg):
        arg = _degree(node.arg, max_degree)
        return None if arg is None else (
            arg[0], None if arg[1] is None else -arg[1])
    if not isinstance(node, _Bin):
        return None
    lhs = _degree(node.lhs, max_degree)
    rhs = _degree(node.rhs, max_degree)
    if lhs is None or rhs is None:
        return None
    (dl, a), (dr, b) = lhs, rhs
    if node.op in "+-":
        degree = max(dl, dr)
        return degree, (a + b if node.op == "+" else a - b) if not degree \
            else None
    if node.op == "*":
        if dl + dr > max_degree:
            return None
        return dl + dr, a * b if not dl + dr else None
    if dr:
        return None
    if node.op == "/":
        return None if b == 0.0 else (dl, a / b if not dl else None)
    # a non-negative integer power; a non-finite exponent is none
    if not 0.0 <= b < math.inf or b != int(b) or dl * b > max_degree:
        return None
    degree = dl * int(b)
    return degree, (a ** b if not dl else 1.0) if not degree else None


def polynomial_degree(expression, max_degree):
    """The degree bound in x of ``expression`` if it is a polynomial in x,
    or None.

    An expression built from x and constants by ``+``, ``-``, ``*``,
    division by a nonzero constant and non-negative integer constant powers
    is a polynomial; one that uses ``t`` or ``s``, calls a function or
    takes any other power or quotient is not.  The bound is that of its
    coefficients: a sum keeps the larger degree even where the top terms
    cancel (``x^2 - x^2`` has degree 2).  None too when the bound would
    exceed ``max_degree``.
    """
    with np.errstate(all="ignore"):
        walked = _degree(expression._root, max_degree)
    return None if walked is None else walked[0]


def _numeric(value):
    return np.float64(value) if isinstance(value, (int, float)) else value


class Expression:
    """Immutable expression tree over the variables t, s, x."""

    __slots__ = ("_root", "_compiled")

    def __init__(self, root):
        self._root = root
        self._compiled = None

    @property
    def free_variables(self):
        acc = set()
        _free_variables(self._root, acc)
        return frozenset(acc)

    def __call__(self, t=None, s=None, x=None):
        """Vectorized evaluation (numpy arrays or scalars).

        Domain violations yield nan or inf; callers check finiteness.
        Python numbers, like the compiled constants, are taken as numpy
        floats, whose arithmetic gives nan or inf where Python's raises
        (``1/0.0``, ``0.0**-1``, ``1e100**5``) or turns complex
        (``(-2.0)**0.5``).
        """
        if self._compiled is None:
            self._compiled = _compile(self._root)
        with np.errstate(all="ignore"):
            return self._compiled(t=_numeric(t), s=_numeric(s), x=_numeric(x))

    def diff(self, wrt):
        """Exact symbolic derivative with respect to ``t``, ``s`` or ``x``."""
        if wrt not in VARIABLES:
            raise ValueError(f"cannot differentiate with respect to {wrt!r}")
        return Expression(_diff_node(self._root, wrt))

    def __str__(self):
        return _to_text(self._root)

    def __repr__(self):
        return f"Expression({_to_text(self._root)!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self._root == other._root

    def __hash__(self):
        return hash(self._root)


def parse(text):
    """Parse expression text into an :class:`Expression`."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return Expression(_Parser(text).parse())
