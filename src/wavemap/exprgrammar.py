"""Tiny expression grammar for user-defined metric factors.

Custom targets are specified in config files as a pair of expression
strings for g and g' in the variable `rho`.  The grammar is deliberately
small so that a scenario file documents itself:

    expr   :=  term  (("+" | "-") term)*
    term   :=  unary (("*" | "/") unary)*
    unary  :=  ("+" | "-") unary | power
    power  :=  atom ("^" unary)?
    atom   :=  NUMBER | "rho" | "pi" | "e"
             | ("sin" | "cos") "(" expr ")"
             | "pow" "(" expr "," expr ")"
             | "(" expr ")"

NUMBER is a plain decimal: digits, an optional fraction and an optional
exponent.  "^" binds tighter than unary minus, so "-rho^2" is -(rho^2).

Python's parser (`ast.parse`) reads the text, "^" replaced by "**", and
`_compile` accepts only the grammar's nodes: plain decimals, rho, pi and e,
unary + and -, binary + - * / and **, sin(x), cos(x) and pow(x, y).  The
text is parsed, never executed.  Parsed expressions evaluate on floats and
numpy arrays alike.
"""

import ast
import math
import operator
import re
import warnings

import numpy as np

_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg,
              ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow}
_FUNCTIONS = {"sin": (np.sin, 1), "cos": (np.cos, 1),
              "pow": (operator.pow, 2)}
# what the grammar never holds, once whitespace is single spaces: another
# character, "**" (its power is "^") and a comma not between pow's arguments
_FOREIGN = re.compile(r"[^\w .+\-*/^(),]|\*\*|, ?\)", re.ASCII)
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
# the zeros leading a decimal integer such as 007, which Python refuses
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")


class ExpressionError(ValueError):
    """Raised when an expression string does not match the grammar."""


def _constant(value):
    return lambda r: np.full_like(np.asarray(r, dtype=float), value) \
        if np.ndim(r) else value


def _rho(r):
    return np.asarray(r, dtype=float) if np.ndim(r) else float(r)


_NAMES = {"rho": _rho, "pi": _constant(math.pi), "e": _constant(math.e)}


def _apply(fn, a, b=None):
    """r -> fn(a(r)), or fn(a(r), b(r)) given b: one Python frame per node,
    so evaluation nests no deeper than the expression."""
    if b is None:
        return lambda r: fn(a(r))
    return lambda r: fn(a(r), b(r))


def _compile(node, source):
    """The callable of one argument that `node`, a node of `source`'s parse,
    computes; ExpressionError for a node outside the grammar."""
    text = ast.get_source_segment(source, node)
    if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(text):
        return _constant(float(text))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _apply(_OPERATORS[type(node.op)],
                      _compile(node.operand, source))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _apply(_OPERATORS[type(node.op)], _compile(node.left, source),
                      _compile(node.right, source))
    # a function named and called: not (sin)(rho), which starts before sin
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _FUNCTIONS and not node.keywords \
            and node.col_offset == node.func.col_offset \
            and len(node.args) == _FUNCTIONS[node.func.id][1]:
        return _apply(_FUNCTIONS[node.func.id][0],
                      *[_compile(arg, source) for arg in node.args])
    raise ExpressionError(f"{text.replace('**', '^')!r} is not in the "
                          f"grammar (the variable is 'rho')")


def parse_expression(text):
    """Parse `text` into a callable of one argument (float or ndarray)."""
    # single spaces, and ASCII for each decimal digit, which float() reads
    source = "".join(str(int(c)) if c.isdecimal() else c
                     for c in " ".join(text.split()))
    foreign = _FOREIGN.search(source)
    if foreign:
        raise ExpressionError(f"unexpected {foreign.group()!r} in {text!r}")
    source = _LEADING_ZEROS.sub("", source).replace("^", "**")
    # ast.parse's ValueError is for null bytes, refused above; a text too
    # deep for the parser's stack raises a bare MemoryError
    try:
        with warnings.catch_warnings():
            # Python warns of some texts it then parses, such as "1or 2"
            warnings.simplefilter("ignore")
            node = _compile(ast.parse(source, mode="eval").body, source)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ExpressionError(f"{text!r} does not parse: "
                              f"{getattr(exc, 'msg', str(exc)) or 'too deep'}")
    # probe once so malformed expressions fail at parse time, not in a solver loop
    try:
        node(0.5)
        node(np.array([0.25, 0.75]))
    except Exception as exc:
        raise ExpressionError(f"expression {text!r} does not evaluate: {exc}")
    return node
