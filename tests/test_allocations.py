"""Peak allocations of the 2^m-entry paths, in units of one table array.

One table array is 2 * 2^m float64s: the size of a depth-m staircase's ``t``
(or ``s``), and of a depth-m IntervalSet's ``left`` and ``right`` together.
tracemalloc sees numpy's data buffers, so a temporary or a copy the size of
the table shows in these peaks, while small Python objects do not move them.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fractalcalc import (
    CantorSpec,
    GridFunction,
    build_staircase,
    eval_staircase,
    generate,
    hausdorff_dimension,
)

DEPTH = 18
SPEC = CantorSpec(mu=0.2, depth=DEPTH)
ALPHA = hausdorff_dimension(0.2)
TABLE_ARRAY = 2 * 2 ** DEPTH * np.dtype(float).itemsize


def _peak(fn):
    """Peak bytes allocated while fn runs, in table arrays."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / TABLE_ARRAY


@pytest.fixture(scope="module")
def table():
    return build_staircase(SPEC, ALPHA)


def test_generate_peak_is_the_last_doubling():
    # the last doubling holds its parents (0.5x), one cut array (0.25x) and
    # the children (1x)
    assert _peak(lambda: generate(SPEC)) <= 1.8


def test_build_staircase_peak_is_the_table():
    # t plus s: the interval set is dropped before s is allocated
    assert _peak(lambda: build_staircase(SPEC, ALPHA, t0=0.3)) <= 2.05


_POINTS = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
_SET_POINTS = np.sort(np.random.default_rng(8).choice(2 * 2 ** DEPTH, 2000, replace=False))

_QUERIES = {
    "eval-1000": lambda table: eval_staircase(table, _POINTS),
    "eval-scalar": lambda table: eval_staircase(table, 0.3),
    "from-function-2000": lambda table: GridFunction.from_function(
        table, np.sin, t=table.t[_SET_POINTS]),
    "from-values-2000": lambda table: GridFunction.from_values(
        table, table.t[_SET_POINTS], _SET_POINTS),
}


@pytest.mark.parametrize("query", _QUERIES.values(), ids=_QUERIES.keys())
def test_queries_allocate_for_the_query_not_the_table(table, query):
    assert _peak(lambda: query(table)) <= 0.05


def test_public_arrays_stay_read_only(table):
    iset = generate(SPEC.with_depth(4))
    f = GridFunction.from_function(build_staircase(SPEC.with_depth(4), ALPHA), np.cos)
    # the arrays a table is built from are locked too, as the table's own
    given_t, given_s = table.t[:8].copy(), table.s[:8].copy()
    dataclasses.replace(table, t=given_t, s=given_s)
    for arr in (table.t, table.s, iset.left, iset.right, f.t, f.s, f.values,
                given_t, given_s):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_a_table_rebuilt_from_views_answers_the_same(table):
    # dataclasses.replace hands the new table the old one's read-only views
    same = dataclasses.replace(table, alpha=table.alpha)
    points = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(eval_staircase(same, points), eval_staircase(table, points))
    doubled = dataclasses.replace(table, s=table.s * 2.0)
    assert np.array_equal(eval_staircase(doubled, points),
                          eval_staircase(table, points) * 2.0)
    assert not same.t.flags.writeable and not doubled.s.flags.writeable
