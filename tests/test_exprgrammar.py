"""Expression grammar: the language parse_expression accepts and its values.

Expression trees are drawn, rendered as grammar text with random spacing
and redundant parentheses, and the parsed callable must give the tree's
own numpy evaluation bit for bit.  A table of texts outside the grammar
must each be refused with ExpressionError alone.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemap.exprgrammar import ExpressionError, parse_expression

# binding strength: sum < term < unary < power < atom
SUM, TERM, UNARY, POWER, ATOM = range(1, 6)
BINARY = {"+": (SUM, operator.add), "-": (SUM, operator.sub),
          "*": (TERM, operator.mul), "/": (TERM, operator.truediv)}
NUMBERS = ["0", "7", "007", "2.5", ".5", "5.", "1e-3", "2E+1", "0.125e2",
           "3"]

leaves = st.one_of(st.sampled_from(NUMBERS).map(lambda t: ("num", t)),
                   st.sampled_from(["rho", "pi", "e"]).map(
                       lambda n: ("name", n)))


def _extend(sub):
    return st.one_of(
        st.tuples(st.just("unary"), st.sampled_from("+-"), sub),
        st.tuples(st.just("binary"), st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.just("call"), st.sampled_from(["sin", "cos"]), sub),
        st.tuples(st.just("pow"), sub, sub))


trees = st.recursive(leaves, _extend, max_leaves=10)


def render(tree, rnd):
    """(text, binding strength) of tree, spaced at random, with redundant
    parentheses added at random and the needed ones always."""
    def sp():
        return rnd.choice(["", "", " ", "  ", "\t"])

    def at_least(sub, level):
        text, strength = render(sub, rnd)
        if strength < level or rnd.random() < 0.15:
            return f"({sp()}{text}{sp()})"
        return text

    kind = tree[0]
    if kind in ("num", "name"):
        return tree[1], ATOM
    if kind == "unary":
        return tree[1] + sp() + at_least(tree[2], UNARY), UNARY
    if kind == "binary" and tree[1] == "^":
        # the base is an atom and the exponent a unary: "^" binds tighter
        # than unary minus on its left and right-associates
        return (at_least(tree[2], ATOM) + sp() + "^" + sp()
                + at_least(tree[3], UNARY)), POWER
    if kind == "binary":
        level = BINARY[tree[1]][0]
        return (at_least(tree[2], level) + sp() + tree[1] + sp()
                + at_least(tree[3], level + 1)), level
    if kind == "call":
        return f"{tree[1]}({sp()}{at_least(tree[2], SUM)}{sp()})", ATOM
    return (f"pow({sp()}{at_least(tree[1], SUM)}{sp()},{sp()}"
            f"{at_least(tree[2], SUM)})"), ATOM


def evaluate(tree, r):
    """The tree's value at r, a float or an array, by numpy and Python
    arithmetic directly."""
    kind = tree[0]
    if kind in ("num", "name"):
        if tree[1] == "rho":
            return np.asarray(r, dtype=float) if np.ndim(r) else float(r)
        value = {"pi": math.pi, "e": math.e}.get(tree[1])
        value = float(tree[1]) if value is None else value
        return np.full_like(r, value) if np.ndim(r) else value
    if kind == "unary":
        x = evaluate(tree[2], r)
        return -x if tree[1] == "-" else +x
    if kind == "call":
        return {"sin": np.sin, "cos": np.cos}[tree[1]](evaluate(tree[2], r))
    if kind == "pow" or tree[1] == "^":
        return evaluate(tree[-2], r) ** evaluate(tree[-1], r)
    return BINARY[tree[1]][1](evaluate(tree[2], r), evaluate(tree[3], r))


def outcome(f, r):
    """f(r) as (type, dtype, bytes), or the arithmetic error it raises."""
    with np.errstate(all="ignore"):
        try:
            value = f(r)
        except ArithmeticError as exc:
            return type(exc)
    return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trees, st.randoms(use_true_random=False),
       st.floats(-4.0, 4.0, allow_nan=False),
       st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1,
                max_size=6))
def test_parsed_text_equals_the_tree_bit_for_bit(tree, rnd, x, xs):
    text = render(tree, rnd)[0]
    ref = lambda r: evaluate(tree, r)
    # the parser probes 0.5 and [0.25, 0.75]; a text that fails there is
    # refused
    probes = (0.5, np.array([0.25, 0.75]))
    if any(isinstance(outcome(ref, p), type) for p in probes):
        with pytest.raises(ExpressionError):
            with np.errstate(all="ignore"):
                parse_expression(text)
        return
    with np.errstate(all="ignore"):
        f = parse_expression(text)
    for r in (x, np.array(xs)):
        assert outcome(f, r) == outcome(ref, r), text


@pytest.mark.parametrize("text", [
    "rho**2", "rho % 2", "0x10", "1_0", "1j", "True", "rho(2)", "sin",
    "pow(rho)", "x", "()", "(1, 2)", "rho if 1 else 2",
    "(" * 300 + "rho" + ")" * 300, "-" * 3000 + "rho",
    "+".join(["rho"] * 5000), "(sin)(rho)", "sin(rho,)", "pow(rho, 2 ,)",
    "rho # 2", "1or 2", "pow(rho, exp=2)", "sin(*rho)", "rho^^2", "",
    "2rho", "1e", "рho", "rho // 2", "rho.real"],
    ids=["pow-operator", "modulo", "hex", "underscore", "imaginary", "bool",
         "call-rho", "bare-sin", "pow-one-argument", "unknown-name",
         "empty-tuple", "tuple", "conditional", "300-parentheses",
         "3000-minuses", "5000-term-sum", "parenthesized-callee",
         "trailing-comma", "pow-trailing-comma", "comment",
         "keyword-after-number", "keyword-argument", "starred",
         "double-caret", "empty", "number-then-name", "bare-exponent",
         "cyrillic-letter", "floor-division", "attribute"])
def test_text_outside_the_grammar_is_refused(text, recwarn):
    with pytest.raises(ExpressionError):
        parse_expression(text)
    assert not recwarn.list


def test_leading_zeros_are_a_decimal_integer():
    assert parse_expression("01")(0.3) == 1.0
    assert parse_expression("007 * rho")(2.0) == 14.0
    assert parse_expression("1e+05")(0.0) == 1e5
