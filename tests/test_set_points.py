"""The set-point path: membership, table searches and the dimension command.

Array queries are answered in ascending key order internally; these
properties check that the answers match one scalar query per point, bit for
bit, on breakpoints, gap midpoints, interval midpoints and both span ends.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    GridFunction,
    build_staircase,
    contains,
    eval_staircase,
    gamma_dimension,
    generate,
    hausdorff_dimension,
    in_set,
    warp_time,
)
from fractalcalc import staircase as staircase_module
from fractalcalc.calculus import _in_set
from fractalcalc.cli import main

MUS = st.floats(0.05, 0.9)
DEPTHS = st.integers(0, 10)


def _shuffled_points(table, seed):
    """Breakpoints, gap and interval midpoints and the span ends, shuffled."""
    t = table.t
    pool = np.concatenate([t, 0.5 * (t[1:-1:2] + t[2::2]), 0.5 * (t[0::2] + t[1::2])])
    rng = np.random.default_rng(seed)
    picked = rng.choice(pool, size=min(pool.size, 200), replace=False)
    return rng.permutation(np.concatenate([picked, t[[0, -1]]]))


def _table(mu, depth, t0):
    return build_staircase(CantorSpec(mu=mu, depth=depth), hausdorff_dimension(mu),
                           t0=t0)


@settings(max_examples=25)
@given(mu=MUS, depth=DEPTHS, t0=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_array_membership_matches_scalar_in_set(mu, depth, t0, seed):
    table = _table(mu, depth, t0)
    pts = _shuffled_points(table, seed)
    expected = [in_set(table, x) for x in pts.tolist()]
    assert _in_set(table, pts).tolist() == expected


@settings(max_examples=25)
@given(mu=MUS, depth=DEPTHS, t0=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_shuffled_queries_match_scalar_queries_bit_for_bit(mu, depth, t0, seed):
    table = _table(mu, depth, t0)
    pts = _shuffled_points(table, seed)
    s = eval_staircase(table, pts)
    assert s.tobytes() == np.array([eval_staircase(table, x) for x in pts]).tobytes()
    taus = np.concatenate([s, table.s[[0, -1]]])
    t = warp_time(table, taus)
    assert t.tobytes() == np.array([warp_time(table, x) for x in taus]).tobytes()
    iset = generate(table.spec)
    assert contains(iset, pts).tolist() == [contains(iset, x) for x in pts]


@settings(max_examples=10)
@given(mu=MUS, depth=st.integers(2, 10))
def test_cli_dimension_sweeps_once(mu, depth):
    calls = []

    def counting_generate(spec):
        calls.append(spec.depth)
        return generate(spec)

    out = io.StringIO()
    with mock.patch.object(staircase_module, "generate", counting_generate), \
            contextlib.redirect_stdout(out):
        assert main(["dimension", "--mu", repr(mu), "--depth", str(depth),
                     "--format", "json"]) == 0
    assert sorted(calls) == [max(depth - 4, 1), depth]
    spec = CantorSpec(mu=mu, depth=depth)
    payload = json.loads(out.getvalue())
    assert payload["estimate"] == gamma_dimension(
        spec, payload["delta_coarse"], payload["delta_fine"])

