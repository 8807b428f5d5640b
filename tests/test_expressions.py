import math

import numpy as np
import pytest

from fractalcalc import Expression, ExpressionError, compile_expression


def test_basic_arithmetic():
    f = compile_expression("2*t + 1", ("t",))
    assert f(3.0) == 7.0


def test_power_and_division():
    f = compile_expression("t**2 / 4", ("t",))
    assert f(6.0) == 9.0


def test_unary_minus():
    f = compile_expression("-t", ("t",))
    assert f(2.5) == -2.5


def test_whitelisted_functions():
    f = compile_expression("exp(-t) + sin(t) + cos(t) + abs(-t) + sgn(t)",
                           ("t",))
    t = 0.7
    expected = math.exp(-t) + math.sin(t) + math.cos(t) + abs(-t) + 1.0
    assert f(t) == pytest.approx(expected, rel=1e-15)


def test_pow_function_two_arguments():
    f = compile_expression("pow(t, 3)", ("t",))
    assert f(2.0) == 8.0
    with pytest.raises(ExpressionError):
        compile_expression("pow(t)", ("t",))


def test_multiple_variables():
    f = compile_expression("tau * y - z", ("tau", "y", "z"))
    assert f(2.0, 3.0, 1.0) == 5.0


def test_tau_glyph_alias():
    f = compile_expression("exp(-τ)", ("tau",))
    assert f(0.0) == 1.0


def test_vectorizes_over_arrays():
    f = compile_expression("t**2", ("t",))
    out = f(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, np.array([1.0, 4.0, 9.0]))


@pytest.mark.parametrize("source", ["t*10**400", "9**9**6", "pow(t, 10**400)"])
def test_overflow_is_an_expression_error(source):
    # literals are floats, so huge powers overflow at once instead of
    # building a many-digit integer
    f = compile_expression(source, ("t",))
    with pytest.raises(ExpressionError):
        f(np.array([1.0, 2.0]))


def test_rejects_literals_beyond_float_range():
    with pytest.raises(ExpressionError):
        compile_expression("t*1" + "0" * 400, ("t",))


def test_wrong_arity_call_rejected():
    f = compile_expression("y", ("y",))
    with pytest.raises(ExpressionError):
        f(1.0, 2.0)


@pytest.mark.parametrize("source", [
    "__import__('os')",
    "().__class__",
    "t.__class__",
    "open('x')",
    "[1,2][0]",
    "{'a': 1}",
    "lambda: 1",
    "t if t else 0",
    "t @ t",
    "t // 2",
    "t % 2",
    "f'{t}'",
    "'text'",
])
def test_rejects_unsafe_or_unknown_syntax(source):
    with pytest.raises(ExpressionError):
        compile_expression(source, ("t",))


def test_rejects_unknown_names():
    with pytest.raises(ExpressionError) as exc:
        compile_expression("q + t", ("t",))
    assert "unknown name" in str(exc.value)


def test_rejects_unknown_functions():
    with pytest.raises(ExpressionError):
        compile_expression("tan(t)", ("t",))


def test_rejects_keyword_arguments():
    with pytest.raises(ExpressionError):
        compile_expression("pow(t, x=2)", ("t",))


def test_rejects_unparsable_source():
    with pytest.raises(ExpressionError):
        compile_expression("t +", ("t",))


def test_source_round_trip():
    f = compile_expression("t + 1", ("t",))
    assert f.source == "t + 1"
    assert f.variables == ("t",)


@pytest.mark.parametrize("source,variables", [
    ("t", None), ("t", object()), ("x + y", "xy"), ("exp", ("exp",)), ("t", ("t", "t")),
    ("t", ("t", 1)), ("t", ("t", ["y"])), ("t", ("t", np.ones(2))), ("t", ("1t",)),
    ("t", ("t y",)), (1.0, ("t",)),
], ids=["none", "object", "string", "function-name", "repeated", "number", "list", "array",
        "not-an-identifier", "two-words", "source-not-a-string"])
def test_variables_are_distinct_identifiers_other_than_the_functions(source, variables):
    with pytest.raises(ExpressionError, match="must be a"):
        compile_expression(source, variables)
    with pytest.raises(ExpressionError, match="must be a"):
        Expression(source=source, variables=variables)


def test_a_list_of_variables_is_stored_as_a_tuple():
    f = compile_expression("x - y", ["x", "y"])
    assert f.variables == ("x", "y") and f(3.0, 1.0) == 2.0
