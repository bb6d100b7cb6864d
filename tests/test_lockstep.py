"""Flows integrated as one stack: ``solve_ode`` on a (B, m) stack of initial
states steps B lanes in lockstep.  Every lane is bit for bit the run of its
state alone, whichever flows share its stack and however many, and a stack
fails as a loop over its flows would."""

import re
from pathlib import Path

import numpy as np
import pytest

from finslerkit import dynamics, integrate
from finslerkit.connection import GeneralConnection
from finslerkit.dynamics import TIGHT, exp_map, integrate_horizontal_autoparallel
from finslerkit.errors import (
    ExcludedSetEntered,
    FinslerKitError,
    NearZeroDirection,
    StepBudgetExceeded,
    StepSizeUnderflow,
)
from finslerkit.integrate import solve_ode
from finslerkit.models import builtin_names, load_model

from test_connection import _skew_fiber

LINE_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "line1d.json"
# more lanes than the 4-lane order-1 kernel chunk of flat4d and quartic4d,
# so a stack of them runs in chunks of 4, 4 and 1
LANES = 9


def _flows(name):
    """A connection and LANES draws of (x0, u, v), as three (LANES, n) stacks."""
    rng = np.random.default_rng([41, len(name)])
    if name == "explicit":
        conn = GeneralConnection.explicit(_skew_fiber, 2)
        draws = [
            (rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.3, 0.3, 2), rng.uniform(0.5, 1.0, 2))
            for _ in range(LANES)
        ]
    else:
        model = load_model(str(LINE_MODEL) if name == "line1d" else f"builtin:{name}")
        conn = GeneralConnection.cartan(model)
        draws = [
            (model.draw_inner_x(rng), model.draw_fiber(rng, (0.2, 0.35)), model.draw_fiber(rng))
            for _ in range(LANES)
        ]
    return conn, [np.array(stack) for stack in zip(*draws)]


def _assert_same_mesh(sol, alone):
    """The two solutions' meshes, states and counts agree bit for bit."""
    assert sol.ts.shape == alone.ts.shape and sol.ts.tobytes() == alone.ts.tobytes()
    assert sol.states.tobytes() == alone.states.tobytes()
    counts = (sol.naccepted, sol.nrejected, sol.nfev)
    assert counts == (alone.naccepted, alone.nrejected, alone.nfev)


def _assert_same_run(sol, alone, t_end):
    """The two unqueried solutions agree bit for bit: mesh, states, counts,
    and the dense output and its derivative at interior times."""
    _assert_same_mesh(sol, alone)
    for t in np.linspace(0.0, t_end, 9)[1:-1]:
        assert sol(t).tobytes() == alone(t).tobytes()
        assert sol.derivative(t).tobytes() == alone.derivative(t).tobytes()
    assert sol.nfev == alone.nfev


@pytest.mark.parametrize("name", builtin_names() + ["line1d", "explicit"])
def test_every_lane_of_a_stack_is_its_run_alone(name):
    conn, (x0, u, v) = _flows(name)
    rhs = dynamics._horizontal_rhs(conn)
    z0 = np.concatenate([x0, v, u], axis=1)
    ends = np.resize([1.0, 2.0], LANES)
    # Hairer's starting-step estimate, and the unit trial of time-one flows
    for first_step in (None, 1.0):
        sols = solve_ode(rhs, 0.0, z0, ends, TIGHT.rtol, TIGHT.atol, first_step)
        assert len(sols) == LANES
        # no lane depends on how many flows share its stack: the first three
        # stacked on their own are the first three lanes of all nine
        three = solve_ode(rhs, 0.0, z0[:3], ends[:3], TIGHT.rtol, TIGHT.atol, first_step)
        for sol, other in zip(three, sols):
            _assert_same_mesh(sol, other)
        for sol, z, t_end in zip(sols, z0, ends):
            alone = solve_ode(rhs, 0.0, z, t_end, TIGHT.rtol, TIGHT.atol, first_step)
            _assert_same_run(sol, alone, t_end)


@pytest.mark.parametrize("name", ["sphere2d", "quartic4d", "line1d"])
def test_stacked_flows_and_exp_maps_are_their_calls(name):
    conn, (x0, u, v) = _flows(name)
    ends = np.resize([2.0, 1.0, 1.0], LANES)
    trajectories = integrate_horizontal_autoparallel(conn, x0, u, v, ends, TIGHT)
    for j, traj in enumerate(trajectories):
        alone = integrate_horizontal_autoparallel(conn, x0[j], u[j], v[j], ends[j], TIGHT)
        for attr in ("ts", "xs", "ys"):
            assert getattr(traj, attr).tobytes() == getattr(alone, attr).tobytes()
        assert traj.state(0.5 * ends[j]).y.tobytes() == alone.state(0.5 * ends[j]).y.tobytes()
        got, want = traj.diagnostics, alone.diagnostics
        assert got.max_horizontality_residual == want.max_horizontality_residual
        assert (got.accepted, got.rejected, got.field_evals) == (
            want.accepted, want.rejected, want.field_evals
        )
    # a shared base point and fiber broadcast against a stack of velocities
    for j, p in enumerate(exp_map(conn, x0[0], u, v[0])):
        q = exp_map(conn, x0[0], u[j], v[0])
        assert p.x.tobytes() == q.x.tobytes() and p.y.tobytes() == q.y.tobytes()


def test_a_lane_whose_trial_stage_is_excluded_rejects_only_its_own_step():
    # polar2d degenerates at r = 0, which the first flow's unit trial reaches
    # (the flow itself passes r = 0.16); the other two stay clear of it
    conn = GeneralConnection.cartan(load_model("builtin:polar2d"))
    rhs = dynamics._horizontal_rhs(conn)
    z0 = np.array([
        [0.8, 0.0, 1.0, 0.0, -2.0, 0.5],
        [1.0, 0.3, 0.5, 0.5, 0.3, 0.1],
        [1.2, -0.2, 0.7, -0.1, -0.2, 0.4],
    ])
    refusals, states = [], 0

    def field(t, z):
        nonlocal states
        states += len(z) if z.ndim > 1 else 1
        try:
            return rhs(t, z)
        except ExcludedSetEntered:
            refusals.append(z.ndim)
            raise

    sols = solve_ode(field, 0.0, z0, 1.0, first_step=1.0)
    # a stacked stage was refused, then ran lane by lane, and only the
    # first lane's own call was refused
    assert 2 in refusals
    alone = []
    for j, z in enumerate(z0):
        refusals, states = [], 0
        alone.append(solve_ode(field, 0.0, z, 1.0, first_step=1.0))
        assert bool(refusals) == (j == 0)
        assert alone[-1].nfev == states  # the refused stage counts, later ones do not run
    assert alone[0].nrejected >= 1
    for sol, one in zip(sols, alone):
        _assert_same_run(sol, one, 1.0)


def test_a_lane_excluded_at_its_start_raises_its_own_error_naming_its_point():
    conn = GeneralConnection.cartan(load_model("builtin:sphere2d"))
    x0 = np.array([[1.1, 0.3], [0.9, -0.4], [1.3, 0.2]])
    u = np.array([[0.3, -0.2], [0.1, 0.2], [-0.2, 0.1]])
    v = np.array([[0.5, 0.3], [1e-13, 0.0], [0.4, 0.1]])
    with pytest.raises(NearZeroDirection) as stacked:
        exp_map(conn, x0, u, v)
    with pytest.raises(NearZeroDirection) as alone:
        exp_map(conn, x0[1], u[1], v[1])
    assert str(stacked.value) == str(alone.value)
    assert re.search(re.escape(f"x = {x0[1].tolist()}, y = {v[1].tolist()}"), str(alone.value))


def _kinds(t, z):
    """A field whose first component picks a flow's kind: 0 a harmonic
    oscillator, 1 the blow-up p' = p^2, 2 excluded everywhere."""
    kind, p, q = z[..., 0], z[..., 1], z[..., 2]
    if np.any(kind == 2.0):
        raise NearZeroDirection(f"excluded state {z}")
    osc = kind == 0.0
    return np.stack([np.zeros_like(kind), np.where(osc, q, p * p), np.where(osc, -p, 0.0)], axis=-1)


# (initial state, end time) of a flow that reaches its end, one that spends
# its step budget, one whose step underflows at the blow-up t = 1, and one
# excluded at its start
FLOWS = {
    "ok": ([0.0, 1.0, 0.0], 1.0),
    "budget": ([0.0, 1.0, 0.0], 1e4),
    "underflow": ([1.0, 1.0, 0.0], 1.5),
    "excluded": ([2.0, 1.0, 0.0], 1.0),
}


@pytest.mark.parametrize("order", [
    ("ok", "budget", "underflow", "excluded"),
    ("ok", "excluded", "budget", "underflow"),
    ("underflow", "ok", "excluded", "budget"),
    ("ok", "underflow", "budget", "excluded"),
])
def test_several_failing_lanes_raise_the_first_lanes_error(order, monkeypatch):
    # the budget is spent long before t_end = 1e4 and well after the blow-up
    # step underflows; the lowest failing lane wins, as in a loop over the
    # flows, whatever lane failed first in time
    monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
    z0 = np.array([FLOWS[name][0] for name in order])
    ends = np.array([FLOWS[name][1] for name in order])
    with pytest.raises(FinslerKitError) as stacked:
        solve_ode(_kinds, 0.0, z0, ends)
    with pytest.raises(FinslerKitError) as looped:
        for z, t_end in zip(z0, ends):
            solve_ode(_kinds, 0.0, z, t_end)
    err, want = stacked.value, looped.value
    assert type(err) is type(want)
    assert str(err) == str(want)
    first = next(name for name in order if name != "ok")
    assert type(err) is {
        "budget": StepBudgetExceeded, "underflow": StepSizeUnderflow, "excluded": NearZeroDirection
    }[first]
    if first == "budget":
        assert (err.t, err.h) == (want.t, want.h)
    if first == "excluded":  # the lane's own state, not the stack's
        assert str(err) == f"excluded state {z0[order.index('excluded')]}"


def _horizon(t, z):
    """A still flow whose first component is a time past which its field is
    excluded."""
    if np.any(np.asarray(t) >= z[..., 0]):
        raise ExcludedSetEntered(f"past its horizon at t = {t}, state {z}")
    return np.zeros_like(z)


def test_a_lane_excluded_at_an_accepted_steps_end_point_ends_at_once(monkeypatch):
    # from t0 = 0.2, one step of the whole span ends on t_end = 0.9, while
    # its last trial stage sits at 0.2 + 0.7000000000000001 = 0.8999999999999999;
    # so a horizon of 0.9 excludes that step's end point and no trial stage
    monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
    assert 0.2 + (0.9 - 0.2) < 0.9
    states = 0

    def field(t, z):
        nonlocal states
        states += len(z) if z.ndim > 1 else 1
        return _horizon(t, z)

    end = np.array([0.9, 1.0, 0.0])
    with pytest.raises(ExcludedSetEntered) as alone:
        solve_ode(field, 0.2, end, 0.9, first_step=1.0)
    # the start, 11 trial stages and the end point, then the flow ends
    assert states == 13
    assert str(alone.value) == f"past its horizon at t = 0.9, state {end}"
    z0 = np.array([[5.0, 1.0, 0.0], end, [5.0, 2.0, 0.0]])
    with pytest.raises(ExcludedSetEntered) as stacked:
        solve_ode(field, 0.2, z0, 0.9, first_step=1.0)
    assert str(stacked.value) == str(alone.value)


def test_a_failed_lane_stops_the_lanes_above_it_and_raises_once_none_below_it_runs(monkeypatch):
    # a loop over the flows would run the first flow to its end and then
    # raise the second flow's error, never starting the third, whose budget
    # would run out; the stack spends no more than that on the third lane
    monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
    states = 0

    def field(t, z):
        nonlocal states
        states += len(z) if z.ndim > 1 else 1
        return _kinds(t, z)

    ok, budget, excluded = FLOWS["ok"], FLOWS["budget"], FLOWS["excluded"]
    solve_ode(field, 0.0, np.array(ok[0]), ok[1])
    ok_states, states = states, 0
    # the refused start on the stack, each lane's start alone and the
    # first-step estimate of each lane that started; then only the first
    # flow steps, its states those of its run alone after its start and
    # estimate
    for lanes, steps in (((excluded, budget), 0), ((ok, excluded, budget), ok_states - 2)):
        z0 = np.array([z for z, _ in lanes])
        with pytest.raises(NearZeroDirection) as stacked:
            solve_ode(field, 0.0, z0, np.array([t_end for _, t_end in lanes]))
        assert str(stacked.value) == f"excluded state {np.array(excluded[0])}"
        assert states == 2 * len(lanes) + (len(lanes) - 1) + steps
        states = 0
