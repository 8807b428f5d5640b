"""The set-point path: membership, table searches and the dimension command.

Membership and staircase queries are answered in ascending key order
internally, and warp_time from a one-step index guess; these properties check
that the answers match one scalar query per point, bit for bit, on
breakpoints, gap midpoints, interval midpoints and both span ends.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    DomainError,
    GridFunction,
    build_staircase,
    characteristic,
    contains,
    eval_staircase,
    fractal_derivative,
    gamma_dimension,
    generate,
    hausdorff_dimension,
    in_set,
    warp_time,
)
from fractalcalc import cantor as cantor_module
from fractalcalc import staircase as staircase_module
from fractalcalc.cantor import _search
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
    assert _search(table.t, pts)[1].tolist() == expected


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
    # the masses come from the closed form, so no set is built at any depth
    calls = []

    def counting_generate(spec):
        calls.append(spec.depth)
        return generate(spec)

    out = io.StringIO()
    with mock.patch.object(staircase_module, "generate", counting_generate), \
            mock.patch.object(cantor_module, "generate", counting_generate), \
            contextlib.redirect_stdout(out):
        assert main(["dimension", "--mu", repr(mu), "--depth", str(depth),
                     "--format", "json"]) == 0
    assert calls == []
    spec = CantorSpec(mu=mu, depth=depth)
    payload = json.loads(out.getvalue())
    assert payload["estimate"] == gamma_dimension(
        spec, payload["delta_coarse"], payload["delta_fine"])



@settings(max_examples=40)
@given(mu=MUS, depth=st.integers(0, 8), origin=st.floats(-10.0, 10.0),
       length=st.floats(0.1, 100.0))
def test_in_set_agrees_with_contains(mu, depth, origin, length):
    # the table's segment search and the interval set's search answer the
    # same membership question, so they must agree at every breakpoint,
    # every segment midpoint and the floats on either side of a breakpoint
    spec = CantorSpec(mu=mu, depth=depth, origin=origin, extent=origin + length)
    table = build_staircase(spec, hausdorff_dimension(mu))
    t = table.t
    pts = np.concatenate([t, 0.5 * (t[:-1] + t[1:]), np.nextafter(t, -np.inf),
                          np.nextafter(t, np.inf)])
    pts = pts[(pts >= t[0]) & (pts <= t[-1])]
    iset = generate(table.spec)
    assert [in_set(table, x) for x in pts.tolist()] == \
        [contains(iset, x) for x in pts.tolist()]


_SPEC = CantorSpec(mu=0.2, depth=4)
_ALPHA = hausdorff_dimension(0.2)
_TABLE = build_staircase(_SPEC, _ALPHA)
_ISET = generate(_SPEC)
_SAMPLES = GridFunction.from_function(_TABLE, np.cos)
# each function, and its answer at a point outside the span [0, 1]; the
# scalar-only functions get their array as a 0-d one
_MEMBERSHIP = {
    "contains": (lambda t: contains(_ISET, t), False),
    "characteristic": (lambda t: characteristic(_SPEC, _ALPHA, t), 0.0),
    "in_set": (lambda t: in_set(_TABLE, t if np.ndim(t) == 0 else np.asarray(t[-1])),
               DomainError),
    "from_values": (lambda t: GridFunction.from_values(_TABLE, t, np.ones(np.shape(t))),
                    DomainError),
    "fractal_derivative": (
        lambda t: fractal_derivative(_SAMPLES, t if np.ndim(t) == 0 else np.asarray(t[-1])),
        DomainError),
    "eval_staircase": (lambda t: eval_staircase(_TABLE, t), DomainError),
}


@pytest.mark.parametrize("name", sorted(_MEMBERSHIP))
def test_nan_raises_and_points_outside_the_span_keep_their_answers(name):
    fn, outside = _MEMBERSHIP[name]
    for nan in (np.nan, np.array([0.0, np.nan])):
        with pytest.raises(DomainError):
            fn(nan)
    for point in (-0.5, 1.5, -np.inf, np.inf):
        if outside is DomainError:
            with pytest.raises(DomainError):
                fn(point)
        else:
            assert fn(point) == outside
            assert fn(np.array([0.0, point])).tolist() == [fn(0.0), outside]
