"""Tiny arithmetic expression compiler for config-supplied coefficients.

Grammar: + - * / ** (with ^ accepted for **), unary sign, numeric literals,
the constants pi and e, a fixed set of elementwise functions, and only the
variable names declared by the caller. Everything else is rejected, so a
config file can never smuggle arbitrary code into a scenario.
"""

import ast

import numpy as np

from .errors import ParameterError

_FUNCS = {
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "exp": np.exp,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "log": np.log,
}

_CONSTS = {"pi": np.pi, "e": np.e}

_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

# the only names a compiled expression can reach besides its own variables
_NAMESPACE = {"__builtins__": {}, **_FUNCS, **_CONSTS}


def _reject(node, why):
    raise ParameterError(f"expression not allowed: {why}", tag="PARAM_EXPR")


def _validate(node, variables):
    if isinstance(node, ast.Expression):
        _validate(node.body, variables)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINARY_OPS):
            _reject(node, type(node.op).__name__)
        _validate(node.left, variables)
        _validate(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            _reject(node, type(node.op).__name__)
        _validate(node.operand, variables)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            _reject(node, f"literal {node.value!r}")
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTS:
            _reject(node, f"unknown name {node.id!r}")
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            _reject(node, "unknown function")
        if node.keywords:
            _reject(node, "keyword arguments")
        want = 2 if node.func.id in ("min", "max") else 1
        if len(node.args) != want:
            _reject(node, f"{node.func.id} takes {want} argument(s)")
        for a in node.args:
            _validate(a, variables)
    else:
        _reject(node, type(node).__name__)


def make_expr(source, variables):
    """Compile `source` into a vectorised callable over the named variables,
    in the given positional order: the validated tree becomes the body of a
    plain lambda whose only globals are the allowed functions and constants."""
    if not isinstance(source, str) or not source.strip():
        raise ParameterError("expression must be a non-empty string", tag="PARAM_EXPR")
    variables = tuple(variables)
    text = source.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParameterError(f"expression does not parse: {exc.msg}", tag="PARAM_EXPR") from None
    _validate(tree, variables)
    params = ast.arguments(
        posonlyargs=[], args=[ast.arg(v) for v in variables], kwonlyargs=[], kw_defaults=[], defaults=[]
    )
    lam = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, tree.body)))
    body = eval(compile(lam, "<expr>", "eval"), _NAMESPACE)
    arity = len(variables)

    def fn(*args):
        if len(args) != arity:
            raise ParameterError(f"expression takes {arity} argument(s)", tag="PARAM_EXPR")
        return body(*args)

    fn.source = source
    fn.variables = variables
    return fn
