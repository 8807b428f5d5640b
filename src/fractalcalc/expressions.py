"""Safe arithmetic expressions for CLI-supplied functions.

Expressions are parsed with ``ast``, validated against a small whitelist
(numbers, named variables, + - * / **, unary minus, and the functions exp,
sin, cos, abs, sgn, pow), then compiled once and evaluated with numpy
implementations so array arguments vectorize.  Anything outside the
whitelist, including attribute access, subscripts and unknown names, is
rejected with ExpressionError before compilation.
"""

import ast
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "sgn": np.sign,
    "pow": np.power,
}

_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _validate(node, variables):
    if isinstance(node, ast.Expression):
        _validate(node.body, variables)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"literal {node.value!r} is not a number")
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ExpressionError(
                f"unknown name {node.id!r}; allowed variables: {sorted(variables)}")
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_OPS):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.left, variables)
        _validate(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.operand, variables)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only exp, sin, cos, abs, sgn and pow may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments are not allowed")
        expected = 2 if node.func.id == "pow" else 1
        if len(node.args) != expected:
            raise ExpressionError(
                f"{node.func.id} takes exactly {expected} argument(s)")
        for arg in node.args:
            _validate(arg, variables)
    else:
        raise ExpressionError(f"syntax element {type(node).__name__} not allowed")


@dataclass(frozen=True)
class Expression:
    """A validated expression over a fixed set of variables, held as a tuple."""

    source: str
    variables: tuple

    def __post_init__(self):
        if not (isinstance(self.source, str) and isinstance(self.variables, (tuple, list))
                and all(isinstance(v, str) and v.isidentifier() and v not in _FUNCTIONS
                        and self.variables.index(v) == i for i, v in enumerate(self.variables))):
            raise ExpressionError(f"an expression must be a string over a tuple or list of "
                                  f"distinct identifiers, none a function name; got "
                                  f"{self.source!r} over {self.variables!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        text = self.source.replace("τ", "tau")
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {self.source!r}: {exc.msg}") from None
        _validate(tree, set(self.variables))
        # float literals keep every power and product in floating point, so
        # 9**9**9 overflows at once instead of building a huge integer
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                try:
                    node.value = float(node.value)
                except OverflowError:
                    raise ExpressionError(
                        "a numeric literal is too large for a float") from None
        code = compile(tree, "<expression>", "eval")
        object.__setattr__(self, "_code", code)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise ExpressionError(
                f"expected {len(self.variables)} argument(s) {self.variables}, "
                f"got {len(args)}")
        scope = dict(zip(self.variables, args), **_FUNCTIONS)
        try:
            return eval(self._code, {"__builtins__": {}}, scope)  # noqa: S307
        except OverflowError as exc:
            raise ExpressionError(f"{self.source!r} overflows: {exc}") from None


def compile_expression(source: str, variables) -> Expression:
    """Validate and compile the string ``source`` over ``variables``: a tuple or list
    of distinct identifiers other than exp, sin, cos, abs, sgn and pow, or an ExpressionError."""
    return Expression(source=source, variables=variables)
