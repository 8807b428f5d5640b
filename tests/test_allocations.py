"""Peak allocations of the 2^m-entry paths, in units of one table array.

One table array is 2 * 2^m float64s: the size of a depth-m staircase's ``t``
(or ``s``), and of a depth-m IntervalSet's ``left`` and ``right`` together.
tracemalloc sees numpy's data buffers, so a temporary or a copy the size of
the table shows in these peaks, while small Python objects do not move them.
"""

import contextlib
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from fractalcalc import (
    CantorSpec,
    GridFunction,
    build_staircase,
    contains,
    estimate_mass,
    eval_staircase,
    generate,
    hausdorff_dimension,
    in_set,
    l_alpha_sum,
    warp_time,
)
from fractalcalc.cli import _write, main

DEPTH = 18
SPEC = CantorSpec(mu=0.2, depth=DEPTH)
ALPHA = hausdorff_dimension(0.2)
TABLE_ARRAY = 2 * 2 ** DEPTH * np.dtype(float).itemsize


def _peak(fn, depth=DEPTH):
    """Peak bytes allocated while fn runs, in table arrays of a depth."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (TABLE_ARRAY << (depth - DEPTH))


@pytest.fixture(scope="module")
def table():
    return build_staircase(SPEC, ALPHA)


@pytest.fixture(scope="module")
def iset():
    return generate(SPEC)


def test_generate_peak_is_the_last_doubling():
    # the breakpoints (1x) and the last doubling of one chunk, a quarter of
    # the set at this depth: its parents, one cut array and the children
    assert _peak(lambda: generate(SPEC)) <= 1.8


def test_build_staircase_peak_is_the_table():
    # t plus s and the ramp s is filled from
    assert _peak(lambda: build_staircase(SPEC, ALPHA, t0=0.3)) <= 2.05


DEEP_SPEC = CantorSpec(mu=0.2, depth=22)


def test_deep_generate_peak_is_its_breakpoints():
    # a chunk is 1/64 of the set; the set takes the breakpoint array as it
    # is, with no order check over it
    assert _peak(lambda: generate(DEEP_SPEC), DEEP_SPEC.depth) <= 1.1


def test_deep_build_staircase_peak_is_the_table():
    assert _peak(lambda: build_staircase(DEEP_SPEC, ALPHA, t0=0.3), DEEP_SPEC.depth) <= 2.05


def test_mass_and_dimension_build_no_set():
    # the masses descend from the base interval, so neither path holds a
    # 2^m-entry array at any depth
    def dimension():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["dimension", "--depth", "24"]) == 0

    assert _peak(dimension, 24) <= 0.05
    spec = CantorSpec(mu=0.2, depth=20)
    assert _peak(lambda: estimate_mass(spec, ALPHA, 0.3, 0.7, spec.keep_ratio ** 20),
                 20) <= 0.05


class _Sink(io.TextIOBase):
    """A text stream that keeps only the count of what it is given."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_csv_writer_peak_is_below_its_output():
    # the deriv --depth 16 table's shape: two float columns and an int one,
    # formatted and written a bounded chunk of rows at a time
    rows = 2 ** 17
    rng = np.random.default_rng(3)
    columns = (rng.uniform(0.0, 1.0, rows), rng.standard_normal(rows), np.arange(rows))
    table = (("t", "f", "n"), columns)
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        peak_bytes = _peak(lambda: _write("-", table, "csv")) * TABLE_ARRAY
    assert sink.written > 0
    assert peak_bytes <= 1.0 * sink.written


_POINTS = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
_SET_POINTS = np.sort(np.random.default_rng(8).choice(2 * 2 ** DEPTH, 2000, replace=False))

_QUERIES = {
    "eval-1000": lambda table, iset: eval_staircase(table, _POINTS),
    "eval-scalar": lambda table, iset: eval_staircase(table, 0.3),
    "from-function-2000": lambda table, iset: GridFunction.from_function(
        table, np.sin, t=table.t[_SET_POINTS]),
    "from-values-2000": lambda table, iset: GridFunction.from_values(
        table, table.t[_SET_POINTS], _SET_POINTS),
    # membership searches the set's own breakpoints; an interleaving copy of
    # left and right would show as a whole table array
    "contains-1000": lambda table, iset: contains(iset, _POINTS),
    "contains-scalar": lambda table, iset: contains(iset, 0.3),
    "in-set-scalar": lambda table, iset: in_set(table, 0.3),
    "l-alpha-sum-1000": lambda table, iset: l_alpha_sum(iset, ALPHA, np.sort(_POINTS)),
    "warp-1000": lambda table, iset: warp_time(table, _POINTS * table.s_range[1]),
    "warp-scalar": lambda table, iset: warp_time(table, 0.3),
}


@pytest.mark.parametrize("query", _QUERIES.values(), ids=_QUERIES.keys())
def test_queries_allocate_for_the_query_not_the_table(table, iset, query):
    assert _peak(lambda: query(table, iset)) <= 0.05


def test_warp_time_peak_is_a_few_query_arrays(table):
    # the index guess, four gathers from the table and the answer written
    # over one of them; no sort, no scatter
    taus = np.random.default_rng(9).uniform(*table.s_range, 500_000)
    assert _peak(lambda: warp_time(table, taus)) * TABLE_ARRAY / taus.nbytes <= 7.0


def test_public_arrays_stay_read_only(table):
    iset = generate(SPEC.with_depth(4))
    f = GridFunction.from_function(build_staircase(SPEC.with_depth(4), ALPHA), np.cos)
    # a table built from a caller's arrays locks its copies; the caller's
    # arrays stay theirs, and a write to them misses the table
    given_t, given_s = table.t[:8].copy(), table.s[:8].copy()
    rebuilt = dataclasses.replace(table, t=given_t, s=given_s)
    for arr in (table.t, table.s, iset.left, iset.right, f.t, f.s, f.values,
                rebuilt.t, rebuilt.s):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    given_t[0] = given_s[0] = 1.0
    assert rebuilt.t[0] == table.t[0] and rebuilt.s[0] == table.s[0]


def test_a_table_rebuilt_from_views_answers_the_same(table):
    # dataclasses.replace hands the new table the old one's read-only views
    same = dataclasses.replace(table, alpha=table.alpha)
    points = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(eval_staircase(same, points), eval_staircase(table, points))
    doubled = dataclasses.replace(table, s=table.s * 2.0)
    assert np.array_equal(eval_staircase(doubled, points),
                          eval_staircase(table, points) * 2.0)
    assert not same.t.flags.writeable and not doubled.s.flags.writeable
