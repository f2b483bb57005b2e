"""Analytic fields from formula strings: parse, differentiate, evaluate.

A formula is an expression in x, y, z built from

    numbers, x y z pi, + - * / ** and unary minus, sin cos exp sqrt log

which is also valid sympy syntax.  Trees are Python ast nodes.

parse() checks a string against this grammar with the ast module and
rebuilds it from the allowed node types; anything else (attributes, other
names or calls, lambdas, ...) raises ValueError, and nothing is evaluated.

diff() differentiates a tree symbolically.  The builders (add, sub, mul,
div, power, neg, call) fold constants as they build: 0*a, 1*a, a+0, a-0,
0/a, a/1, a**1, a**0, and any operation on numbers alone.  So derivatives
of polynomial data stay small and the derivative of a constant is the
number 0.

compile_trees() turns a list of trees into one numpy function, a
straight-line program that computes every distinct subtree once: the
entries of a field and their derivatives share sin(pi*x) and the like
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 2).
"""

import ast
import operator
from functools import partial

import numpy as np

VARIABLES = ("x", "y", "z")
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "log": np.log}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def num(v):
    return ast.Constant(float(v))


def _tree(a):
    return a if isinstance(a, ast.AST) else num(a)


def _number(node):
    """The value of a number node, None for any other node."""
    return node.value if isinstance(node, ast.Constant) else None


def _binop(op, a, b):
    a, b = _tree(a), _tree(b)
    va, vb = _number(a), _number(b)
    if va is not None and vb is not None:
        return num(_BINOPS[op](np.float64(va), vb))
    if op is ast.Add:
        if va == 0:
            return b
        if vb == 0:
            return a
    elif op is ast.Sub:
        if vb == 0:
            return a
        if va == 0:
            return neg(b)
    elif op is ast.Mult:
        if va == 0 or vb == 0:
            return num(0)
        if va == 1:
            return b
        if vb == 1:
            return a
    elif op is ast.Div:
        if va == 0:
            return num(0)
        if vb == 1:
            return a
    elif op is ast.Pow:
        if vb == 0:
            return num(1)
        if vb == 1:
            return a
    return ast.BinOp(a, op(), b)


add, sub, mul, div, power = (partial(_binop, op) for op in _BINOPS)


def neg(a):
    a = _tree(a)
    if _number(a) is not None:
        return num(-a.value)
    if isinstance(a, ast.UnaryOp):
        return a.operand
    return ast.UnaryOp(ast.USub(), a)


def call(name, a):
    a = _tree(a)
    if _number(a) is not None:
        return num(FUNCTIONS[name](np.float64(a.value)))
    return ast.Call(ast.Name(name, ast.Load()), [a], [])


def parse(text):
    """Tree of one formula string; ValueError for anything outside the grammar."""
    try:
        body = ast.parse(str(text).strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse formula {text!r}: {exc.msg}") from None
    return _rebuilt(body, text)


def _rebuilt(node, text):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return num(node.value)
    if isinstance(node, ast.Name) and node.id in VARIABLES:
        return ast.Name(node.id, ast.Load())
    if isinstance(node, ast.Name) and node.id == "pi":
        return num(np.pi)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        a = _rebuilt(node.operand, text)
        return neg(a) if isinstance(node.op, ast.USub) else a
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _binop(type(node.op), _rebuilt(node.left, text), _rebuilt(node.right, text))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in FUNCTIONS and len(node.args) == 1 and not node.keywords):
        return call(node.func.id, _rebuilt(node.args[0], text))
    raise ValueError(
        f"formula {text!r}: {ast.unparse(node)!r} is outside the grammar "
        f"(numbers, x y z pi, + - * / **, {' '.join(FUNCTIONS)})"
    )


def diff(node, var):
    """d node / d var as a tree."""
    if isinstance(node, ast.Constant):
        return num(0)
    if isinstance(node, ast.Name):
        return num(node.id == var)
    if isinstance(node, ast.UnaryOp):
        return neg(diff(node.operand, var))
    if isinstance(node, ast.Call):
        a = node.args[0]
        outer = {
            "sin": lambda: call("cos", a),
            "cos": lambda: neg(call("sin", a)),
            "exp": lambda: node,
            "sqrt": lambda: div(0.5, node),
            "log": lambda: div(1, a),
        }[node.func.id]
        da = diff(a, var)
        return num(0) if _number(da) == 0 else mul(outer(), da)
    a, b, op = node.left, node.right, type(node.op)
    da, db = diff(a, var), diff(b, var)
    if op in (ast.Add, ast.Sub):
        return _binop(op, da, db)
    if op is ast.Mult:
        return add(mul(da, b), mul(a, db))
    if op is ast.Div:
        return sub(div(da, b), div(mul(a, db), mul(b, b)))
    if _number(b) is not None:
        return mul(mul(b, power(a, b.value - 1)), da)
    return mul(node, add(mul(db, call("log", a)), div(mul(b, da), a)))


def compile_trees(trees):
    """fn(points (m, 3)) -> (m, len(trees)), the values of every tree.

    Each distinct subtree is one step of a straight-line program and is
    computed once per call, whichever trees hold it.  A subtree's key is
    its node type, operator or value, and the slots of its children, so
    two subtrees share a key exactly when their ast.dump agree, at the
    cost of one visit per node.  Constant trees are broadcast to the points.
    """
    slot = {("Name", v): i for i, v in enumerate(VARIABLES)}
    steps = []        # (function, argument slots); slots 0-2 hold x, y, z
    seen = {}         # id(node) -> slot, for subtrees shared by reference

    def visit(node):
        if id(node) in seen:
            return seen[id(node)]
        if isinstance(node, ast.Constant):
            key, fn, args = ("Constant", repr(node.value)), partial(float, node.value), ()
        elif isinstance(node, ast.UnaryOp):
            fn, args = operator.neg, (visit(node.operand),)
            key = ("USub",) + args
        elif isinstance(node, ast.BinOp):
            fn, args = _BINOPS[type(node.op)], (visit(node.left), visit(node.right))
            key = (type(node.op).__name__,) + args
        elif isinstance(node, ast.Call):
            fn, args = FUNCTIONS[node.func.id], (visit(node.args[0]),)
            key = (node.func.id,) + args
        else:
            key = ("Name", node.id)     # in slot from the start
        if key not in slot:
            steps.append((fn, args))
            slot[key] = len(slot)
        seen[id(node)] = slot[key]
        return slot[key]

    outputs = [visit(t) for t in trees]
    # free each intermediate after its last use, so that numpy reuses its memory
    last_use = {i: k for k, (_, args) in enumerate(steps) for i in args}
    for i in outputs:
        last_use.pop(i, None)
    dead = [[] for _ in steps]
    for i, k in last_use.items():
        dead[k].append(i)
    program = [(fn, args, d) for (fn, args), d in zip(steps, dead)]

    def evaluate(points):
        vals = list(np.asarray(points, dtype=float).T.copy())
        m = len(vals[0])
        for fn, args, d in program:
            vals.append(fn(*[vals[i] for i in args]))
            for i in d:
                vals[i] = None
        return np.stack([np.broadcast_to(vals[i], (m,)) for i in outputs], axis=-1)

    return evaluate
