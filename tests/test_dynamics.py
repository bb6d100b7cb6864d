"""Autoparallel integration, the exponential map, and its derivative blocks."""

import csv
import dataclasses
import re
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from finslerkit import connection, dynamics, expressions, integrate
from finslerkit.bundle import TangentBundlePoint, bundle_point
from finslerkit.connection import ConnectionEval, GeneralConnection
from finslerkit.dynamics import (
    IntegrationControls,
    exp_map,
    exp_map_jets,
    exp_map_with_jacobian,
    integrate_autoparallel,
    integrate_horizontal_autoparallel,
)
from finslerkit.errors import (
    ExcludedSetEntered,
    FinslerKitError,
    NearDegenerateMetric,
    NearZeroDirection,
    NonFiniteField,
    StepBudgetExceeded,
    StepSizeUnderflow,
)
from finslerkit.integrate import solve_ode
from finslerkit.jets import JetSpace
from finslerkit.models import builtin_names, load_model

from fd_oracles import richardson_hessian
from jet_oracles import (
    closed_form_blocks,
    count_kernel_calls,
    multi_indices,
    rest_blocks,
    second_derivatives,
    slot,
    unit_index,
)

TIGHT = IntegrationControls(rtol=1e-12, atol=1e-13)
LINE_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "line1d.json"


def conn_for(name):
    return GeneralConnection.cartan(load_model(f"builtin:{name}"))


# -- integrator ----------------------------------------------------------------


def test_oscillator_round_trip_and_dense_output():
    f = lambda t, z: np.array([z[1], -z[0]])
    sol = solve_ode(f, 0.0, np.array([1.0, 0.0]), 2 * np.pi)
    assert np.abs(sol.state_end - [1.0, 0.0]).max() < 1e-9
    for t in np.linspace(0.3, 6.0, 17):
        assert abs(sol(t)[0] - np.cos(t)) < 1e-9
        assert abs(sol.derivative(t)[0] + np.sin(t)) < 1e-7


def test_backward_time_integration():
    f = lambda t, z: np.array([z[1], -z[0]])
    sol = solve_ode(f, 0.0, np.array([1.0, 0.0]), -1.3)
    assert abs(sol.state_end[0] - np.cos(1.3)) < 1e-9
    assert abs(sol(-0.7)[0] - np.cos(0.7)) < 1e-9


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_dense_output_segment_lookup_matches_bisection(t_end):
    # the segment whose left end is the last one <= t (>= t backward), the
    # end point in the last one; a query outside the run raises
    f = lambda t, z: np.array([z[1], -z[0]])
    sol = solve_ode(f, 0.0, np.array([1.0, 0.0]), t_end)
    assert len(sol.segments) > 2
    sign = 1.0 if t_end > 0 else -1.0
    lefts = [sign * seg.t0 for seg in sol.segments]
    mids = 0.5 * (sol.ts[1:] + sol.ts[:-1])
    queries = list(sol.ts) + list(mids)
    for t in queries:
        k = min(max(bisect_right(lefts, sign * t) - 1, 0), len(lefts) - 1)
        assert sol._segment(float(t)) == k, t
    for t in (-sign * 0.5, t_end + sign * 0.5):
        with pytest.raises(ValueError, match="outside the integrated interval"):
            sol._segment(t)
    # a query exactly on an interior node starts the following segment
    assert np.array_equal(sol(float(sol.ts[1])), sol.states[1])
    assert sol.segments[1].coeffs.shape == (8, 2)  # degree 7


def test_dense_output_of_zero_length_run():
    sol = solve_ode(lambda t, z: -z, 0.5, np.array([1.0, 2.0]), 0.5)
    assert len(sol.segments) == 1
    assert np.array_equal(sol(0.5), [1.0, 2.0])
    assert np.array_equal(sol.derivative(0.5), [0.0, 0.0])
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"t = .* outside the integrated interval \[0.5, 0.5\]"):
            sol(t)
    assert sol.segments[0].coeffs.shape == (8, 2)
    assert sol.nfev == 0


@pytest.mark.parametrize("t_end", [1.0, -1.0, 10.0])
def test_trajectory_refuses_times_outside_its_run(t_end):
    # dense output answers on [t0, t_end] only, its end points included
    conn = conn_for("sphere2d")
    traj = integrate_horizontal_autoparallel(conn, [1.1, 0.3], [0.4, -0.2], [0.5, 0.3], t_end)
    assert traj.ts[-1] == t_end
    assert np.array_equal(traj.state(0.0).x, [1.1, 0.3])
    assert np.allclose(traj.state(t_end).x, traj.endpoint.x, rtol=0.0, atol=1e-12)
    lo, hi = sorted((0.0, t_end))
    for t in (5.0 * t_end, -0.5 * t_end, float(np.nextafter(t_end, 2.0 * t_end))):
        message = f"t = {t!r} lies outside the integrated interval [{lo!r}, {hi!r}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            traj.state(t)
    with pytest.raises(ValueError, match="outside the integrated interval"):
        traj.solution.derivative(5.0 * t_end)


def test_tableau_order_conditions():
    # the quadrature conditions of an 8th-order method
    b, c = integrate._A[12], integrate._C[:12]
    for k in range(1, 9):
        assert abs(b @ c ** (k - 1) - 1.0 / k) < 1e-15, k


def test_tableau_rows_sum_to_their_nodes():
    assert len(integrate._A) == len(integrate._C) == 16
    for i, row in enumerate(integrate._A):
        assert row.shape == (i,)
        assert abs(row.sum() - integrate._C[i]) < 1e-14, i


def test_error_rows_sum_to_zero():
    e3 = integrate._A[12].copy()  # b minus the embedded 3rd-order weights
    e3[[0, 8, 11]] -= integrate._BHH
    for row in (integrate._E5, e3):
        assert row.shape == (12,)
        assert abs(row.sum()) < 1e-15


def test_interpolant_matches_the_step_ends():
    # s = 0 and s = 1 give z and z_new, with slopes f(t, z) and f(t + h, z_new)
    f = lambda t, z: np.array([z[1], 5.0 * (1.0 - z[0] ** 2) * z[1] - z[0]])
    sol = solve_ode(f, 0.0, np.array([2.0, 0.0]), 3.0)
    for i, seg in enumerate(sol.segments):
        r = sol._coefficients(i)
        z, z_new = sol.states[i], sol.states[i + 1]
        ends = [
            (r[0], z),
            (r.sum(axis=0), z_new),
            (r[1] / seg.h, f(seg.t0, z)),
            (np.arange(1, 8) @ r[1:] / seg.h, f(seg.t0 + seg.h, z_new)),
        ]
        for got, want in ends:
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max()), i


@pytest.mark.parametrize("t_end", [7.0, -7.0])
def test_dense_output_matches_the_oscillator(t_end):
    # z = (cos t, -sin t) at the default tolerances, forward and backward
    f = lambda t, z: np.array([z[1], -z[0]])
    sol = solve_ode(f, 0.0, np.array([1.0, 0.0]), t_end)
    ts = np.linspace(0.0, t_end, 1001)
    exact = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
    slope = np.stack([-np.sin(ts), -np.cos(ts)], axis=1)
    values = np.array([sol(t) for t in ts])
    derivs = np.array([sol.derivative(t) for t in ts])
    assert np.abs(values - exact).max() < 1e-9
    assert np.abs(derivs - slope).max() < 1e-7
    # the same run with its segments built last to first is bitwise the same
    again = solve_ode(f, 0.0, np.array([1.0, 0.0]), t_end)
    assert np.array_equal(again.states, sol.states)
    for t, v, d in zip(ts[::-1], values[::-1], derivs[::-1]):
        assert np.array_equal(again(t), v)
        assert np.array_equal(again.derivative(t), d)


def test_nfev_counts_every_evaluation_and_dense_stages_are_lazy():
    calls = 0

    def f(t, z):
        nonlocal calls
        calls += 1
        return np.array([z[1], 5.0 * (1.0 - z[0] ** 2) * z[1] - z[0]])

    sol = solve_ode(f, 0.0, np.array([2.0, 0.0]), 10.0)
    assert sol.nrejected > 0
    # start-up (f at t0 and the initial-step probe), 11 stages per attempted
    # step, the FSAL stage per accepted step, and no dense stages
    assert sol.nfev == calls == 2 + 11 * (sol.naccepted + sol.nrejected) + sol.naccepted
    assert all(seg.coeffs is None for seg in sol.segments)
    t = float(sol.ts[3] + 0.25 * (sol.ts[4] - sol.ts[3]))
    before = calls
    sol(t)
    assert sol.nfev == calls == before + 3
    sol.derivative(t)
    sol(float(sol.ts[3]))
    assert sol.nfev == calls == before + 3
    assert sol.segments[3].stages is None


def test_blow_up_raises_step_underflow():
    f = lambda t, z: z**2
    with pytest.raises(StepSizeUnderflow):
        solve_ode(f, 0.0, np.array([1.0]), 1.5)


def test_non_finite_rhs_raises_non_finite_field_with_the_time():
    f = lambda t, z: np.array([np.nan]) if t > 0.5 else -z
    with pytest.raises(NonFiniteField, match=r"t = \S+") as info:
        solve_ode(f, 0.0, np.array([1.0]), 1.0)
    t = float(re.search(r"t = (\S+),", str(info.value)).group(1))
    assert 0.5 < t <= 1.0
    assert "state [" in str(info.value)


def test_an_excluded_trial_stage_rejects_the_step():
    # the field is undefined for z < 0; a first step of 10 overshoots into it
    refusals = 0

    def f(t, z):
        nonlocal refusals
        if z[0] < 0.0:
            refusals += 1
            raise ExcludedSetEntered(f"z = {z[0]} < 0")
        return -z

    sol = solve_ode(f, 0.0, np.array([1.0]), 5.0, first_step=10.0)
    assert refusals >= 1
    assert sol.nrejected >= refusals
    exact = np.exp(-sol.ts)
    assert np.abs(sol.states[:, 0] / exact - 1.0).max() <= integrate.DEFAULT_RTOL


def test_a_trial_stage_on_a_pole_is_a_rejected_step():
    # 0 / sin(t - 1/3) is 0 except on its pole t = 1/3, the node of the unit
    # trial's stage 5; that stage's division by zero rejects the step
    field = expressions.parse("0 / sin(t - 1/3) - z")
    poles = []

    def f(t, z):
        try:
            return np.array([expressions.evaluate(field, {"t": t, "z": z[0]})])
        except NonFiniteField:
            poles.append(t)
            raise

    sol = solve_ode(f, 0.0, np.array([1.0]), 1.0, first_step=1.0)
    assert poles == [1 / 3]
    assert sol.nrejected >= 1
    assert sol.segments[0].h < 1.0
    exact = np.exp(-sol.ts)
    assert np.abs(sol.states[:, 0] / exact - 1.0).max() <= integrate.DEFAULT_RTOL


def test_an_overflowing_trial_stage_is_a_rejected_step():
    # exp(z) overflows for z > 709.78; the unit trial's stages of z' = -50 z
    # swing far past that, and the overflow rejects the step
    field = expressions.parse("0 * exp(z) - 50 * z")
    overflows = []

    def f(t, z):
        try:
            return np.array([expressions.evaluate(field, {"t": t, "z": z[0]})])
        except NonFiniteField as err:
            overflows.append(str(err))
            raise

    sol = solve_ode(f, 0.0, np.array([1.0]), 1.0, first_step=1.0)
    assert overflows and all(re.fullmatch(r"exp of \S+ overflows", e) for e in overflows)
    assert sol.nrejected >= len(overflows)
    assert np.abs(sol.states[:, 0] - np.exp(-50.0 * sol.ts)).max() <= 1e-10


def test_a_spent_step_budget_is_typed_and_carries_t_and_h(monkeypatch):
    monkeypatch.setattr(integrate, "MAX_STEPS", 3)
    with pytest.raises(StepBudgetExceeded) as info:
        solve_ode(lambda t, z: -z, 0.0, np.array([1.0]), 100.0, first_step=0.1)
    assert isinstance(info.value, FinslerKitError)
    assert 0.0 < info.value.t < 100.0 and info.value.h > 0.0
    assert f"t = {info.value.t!r}" in str(info.value)


def test_a_field_that_fails_past_a_time_raises_its_error_there():
    # every step past t* = 0.3 is rejected until the step underflows; the
    # error raised is the failing stage's, at a time just past t*
    f = lambda t, z: np.array([np.nan]) if t > 0.3 else -z
    with pytest.raises(NonFiniteField) as info:
        solve_ode(f, 0.0, np.array([1.0]), 1.0, first_step=1.0)
    t = float(re.search(r"t = (\S+),", str(info.value)).group(1))
    assert 0.3 < t < 0.3 + 1e-12


def test_connection_refusals_are_excluded_set_errors():
    assert issubclass(NearZeroDirection, ExcludedSetEntered)
    assert issubclass(NearDegenerateMetric, ExcludedSetEntered)
    assert isinstance(NearZeroDirection("y = 0"), ExcludedSetEntered)
    assert isinstance(NearDegenerateMetric("cond"), ExcludedSetEntered)


# -- autoparallel lifts ----------------------------------------------------------


def test_flat_lift_is_a_straight_line():
    conn = conn_for("flat4d")
    x0 = np.array([0.3, -1.0, 2.0, 0.5])
    u = np.array([1.0, 0.25, -0.5, 1.5])
    traj = integrate_autoparallel(conn, x0, u, 2.0)
    assert np.abs(traj.endpoint.x - (x0 + 2.0 * u)).max() < 1e-13
    assert np.abs(traj.endpoint.y - u).max() < 1e-13
    mid = traj.state(0.77)
    assert np.abs(mid.x - (x0 + 0.77 * u)).max() < 1e-12


def test_polar_geodesic_reaches_known_point():
    # the straight line x = 1, parameterized by arclength, in polar coordinates
    conn = conn_for("polar2d")
    traj = integrate_autoparallel(conn, [1.0, 0.0], [0.0, 1.0], 1.0, TIGHT)
    assert np.abs(traj.endpoint.x - [np.sqrt(2.0), np.pi / 4]).max() < 1e-8
    assert np.abs(traj.endpoint.y - [np.sqrt(2.0) / 2, 0.5]).max() < 1e-8


def test_energy_constant_along_lift():
    model = load_model("builtin:polar2d")
    conn = GeneralConnection.cartan(model)
    traj = integrate_autoparallel(conn, [1.0, 0.0], [0.0, 1.0], 1.0, TIGHT)
    values = [
        model.evaluate(traj.state(t)) for t in np.linspace(0.0, 1.0, 11)
    ]
    assert np.abs(np.array(values) - values[0]).max() < 1e-9 * max(1.0, abs(values[0]))


def test_lift_rescaling_property():
    # gamma_{alpha u}(t) == gamma_u(alpha t)
    conn = conn_for("randers2d")
    x0, u, alpha = np.array([0.2, -0.1]), np.array([0.9, 0.5]), 0.7
    a = integrate_autoparallel(conn, x0, alpha * u, 1.0, TIGHT)
    b = integrate_autoparallel(conn, x0, u, alpha, TIGHT)
    assert np.abs(a.endpoint.x - b.endpoint.x).max() < 1e-8
    assert np.abs(a.endpoint.y - alpha * b.endpoint.y).max() < 1e-8


def test_lift_into_coordinate_singularity_is_caught():
    # a straight line passing within 1e-6 of the origin: the angular fiber
    # metric component r^2 degenerates and the connection must refuse it
    conn = conn_for("polar2d")
    x0 = np.array([1.0, 0.0])
    b = 1e-6
    u = np.array([-1.0, b])  # tiny angular momentum, r_min ~ b
    with pytest.raises(ExcludedSetEntered):
        integrate_autoparallel(conn, x0, u, 2.0)


def test_a_lift_that_starts_on_a_pole_raises_non_finite_field():
    pole = load_model({
        "dimension": 2, "homogeneity_degree": 2, "family": "custom",
        "parameters": {"expression": "(y1^2 + y2^2) * (2 + 1/x1)"},
    })
    with pytest.raises(NonFiniteField, match="reciprocal"):
        integrate_autoparallel(GeneralConnection.cartan(pole), [0.0, 0.5], [1.0, 0.0], 1.0)


# -- horizontal transport ---------------------------------------------------------


def test_flat_horizontal_transport_is_trivial():
    conn = conn_for("flat4d")
    x0 = np.zeros(4)
    u = np.array([1.0, 0.2, 0.0, -0.4])
    v = np.array([0.5, -1.0, 2.0, 0.1])
    traj = integrate_horizontal_autoparallel(conn, x0, u, v, 1.0)
    assert np.abs(traj.endpoint.x - u).max() < 1e-13
    assert np.abs(traj.endpoint.y - v).max() < 1e-13


def test_horizontal_with_matching_fiber_reduces_to_lift():
    # when v = u the fiber stays glued to the velocity (degree-1 homogeneity)
    conn = conn_for("polar2d")
    x0, u = np.array([1.0, 0.0]), np.array([0.3, 1.0])
    hor = integrate_horizontal_autoparallel(conn, x0, u, u, 1.0, TIGHT)
    lift = integrate_autoparallel(conn, x0, u, 1.0, TIGHT)
    assert np.abs(hor.endpoint.x - lift.endpoint.x).max() < 1e-9
    assert np.abs(hor.endpoint.y - lift.endpoint.y).max() < 1e-9


def test_horizontality_residual_is_small():
    conn = conn_for("randers2d")
    traj = integrate_horizontal_autoparallel(
        conn, [0.1, -0.2], [1.0, 0.3], [0.4, 1.1], 1.0
    )
    assert traj.diagnostics.max_horizontality_residual < 1e-6
    assert traj.diagnostics.rejected <= traj.diagnostics.accepted


def _assert_residual_measured_on_first_read(traj, orders):
    """No residual probe and no interpolant until the residual is read; then
    one probe per segment, and the 3 dense stages of each interpolant.
    Hairer's start-up estimate costs the flow one evaluation more.
    ``orders`` records the connection's kernel calls (``count_kernel_calls``);
    a probe reads N alone, the order-0 kernel."""
    d = traj.diagnostics
    assert orders.count(0) == 0
    assert d.field_evals == 2 + 11 * (d.accepted + d.rejected) + d.accepted
    assert not any(seg.coeffs is not None for seg in traj.solution.segments)
    before = d.field_evals
    resid = d.max_horizontality_residual
    assert orders.count(0) == d.accepted
    assert d.field_evals == traj.solution.nfev == before + 3 * d.accepted
    assert d.max_horizontality_residual == resid  # measured once, then kept
    assert orders.count(0) == d.accepted


def test_exp_map_skips_the_residual_pass():
    conn = conn_for("randers2d")
    x0, u, v = np.array([0.2, -0.1]), np.array([0.8, 0.4]), np.array([1.0, -0.3])
    orders = count_kernel_calls(conn)
    exp_map(conn, x0, u, v)
    assert orders.count(0) == 0
    traj = integrate_horizontal_autoparallel(conn, x0, u, v, 1.0)
    traj.endpoint  # reading the samples measures nothing
    _assert_residual_measured_on_first_read(traj, orders)


@pytest.mark.parametrize(
    "name,base,u,v",
    [
        ("sphere2d", [1.1, 0.3], [0.4, -0.2], [0.5, 0.3]),
        ("quartic4d", [0.1, 0.2, -0.1, 0.3], [0.2, 0.1, -0.1, 0.05], [0.5, 0.5, -0.5, 0.5]),
    ],
)
def test_an_order_zero_jet_flow_is_exp_map_from_order_one_connection_jets(name, base, u, v):
    conn = conn_for(name)
    orders = count_kernel_calls(conn)
    x, y = exp_map_jets(conn, base, u, v, JetSpace.get(1, 0))
    assert set(orders) == {1}  # the flow composes N and dN/dy at its primal point
    want = exp_map(conn, base, u, v).as_state()
    got = np.concatenate([x[:, 0], y[:, 0]])
    assert np.abs(got - want).max() <= 1e-8 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("name", ["sphere2d", "quartic4d"])
def test_exp_jets_at_rest_evaluate_the_connection_once(name):
    # the flow at rest never leaves (base, v): every sweep composes one
    # evaluation of N's jet there
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    rng = np.random.default_rng(3)
    base, v = model.draw_inner_x(rng), model.draw_fiber(rng)
    orders = count_kernel_calls(conn)
    for order in (1, 2, 3, 4):
        for space, u_seed, v_seed in (
            (JetSpace.get(n, order), 0, None),
            (JetSpace.get(2 * n, order, n, 1), n, 0),
        ):
            del orders[:]
            exp_map_jets(conn, base, np.zeros(n), v, space, u_seed, v_seed)
            assert orders == [order], (order, space.nvars)


# -- flow stages -----------------------------------------------------------------


def _stage(conn, kind, x, y, u):
    """A flow field of ``conn`` and the state of one of its stages at (x, y)
    with velocity u: the horizontal field, or the order-1 Taylor-mode field
    in (u, v) seeds that ``exp_map_with_jacobian`` integrates."""
    n = conn.dimension
    if kind == "horizontal":
        return dynamics._horizontal_rhs(conn), np.concatenate([x, y, u]).astype(float)
    space = JetSpace.get(2 * n, 1)
    z = dynamics._seeded_state(space, x, np.asarray(u, float), y, 0, n)
    return dynamics._jet_rhs(conn, space, at_rest=False), z.ravel()


@pytest.mark.parametrize(
    "name,kind", [("sphere2d", "horizontal"), ("quartic4d", "jacobian")]
)
def test_a_flow_stage_after_the_first_builds_nothing(name, kind, monkeypatch):
    # a field takes its kernel once; a stage is one call of it on the state
    model = load_model(f"builtin:{name}")
    rng = np.random.default_rng(12)
    x, y = model.draw_inner_x(rng), model.draw_fiber(rng)
    u = 0.3 * model.draw_fiber(rng)
    rhs, z = _stage(GeneralConnection.cartan(model), kind, x, y, u)
    first = rhs(0.0, z)
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        TangentBundlePoint, "__post_init__", counted("point", TangentBundlePoint.__post_init__)
    )
    monkeypatch.setattr(ConnectionEval, "__init__", counted("evaluation", ConnectionEval.__init__))
    monkeypatch.setattr(JetSpace, "get", classmethod(counted("JetSpace.get", JetSpace.get.__func__)))
    monkeypatch.setattr(JetSpace, "partial_slots", counted("partial_slots", JetSpace.partial_slots))
    monkeypatch.setattr(expressions, "compiled", counted("compiled", expressions.compiled))
    for attr in ("_spray_tables", "_degree_blocks", "_fiber_rows"):
        monkeypatch.setattr(connection, attr, counted(attr, getattr(connection, attr)))
    for _ in range(3):
        assert rhs(0.0, z).tobytes() == first.tobytes()
    assert calls == []
    # the counters see the lookups: a new connection's first stage makes them
    _stage(GeneralConnection.cartan(model), kind, x, y, u)[0](0.0, z)
    assert {"JetSpace.get", "compiled", "_spray_tables", "partial_slots"} <= set(calls)


# a quadratic model whose L-metric diag(1, x1^2) degenerates at x1 = 0, and
# one whose L jet overflows at large x1
DEGENERATE = {
    "dimension": 2, "homogeneity_degree": 2, "family": "quadratic",
    "parameters": {"metric": [["1", "0"], ["0", "x1^2"]]},
}
OVERFLOWING = {
    "dimension": 2, "homogeneity_degree": 2, "family": "custom",
    "parameters": {"expression": "y1^2 + y2^2 + 1e307 * x1^2 * (y1^2 + y2^2)"},
}


@pytest.mark.parametrize("kind", ["horizontal", "jacobian"])
@pytest.mark.parametrize(
    "source,x,y,error",
    [
        ("builtin:sphere2d", [1.1, 0.3], [1e-13, 0.0], NearZeroDirection),
        (DEGENERATE, [1e-5, 0.3], [0.6, 0.8], NearDegenerateMetric),
        (OVERFLOWING, [1e200, 0.0], [1.0, 0.5], NonFiniteField),
    ],
    ids=["zero-fiber", "degenerate", "non-finite"],
)
def test_a_failing_stage_keeps_its_error_type_and_point(kind, source, x, y, error):
    conn = GeneralConnection.cartan(load_model(source))
    rhs, z = _stage(conn, kind, x, y, [0.3, -0.2])
    with np.errstate(all="ignore"), pytest.raises(error, match=re.escape(f"x = {x}, y = {y}")):
        rhs(0.0, z)


@pytest.mark.parametrize("wrt", ["x", "U", "uu", "vu", ""])
def test_exp_map_with_jacobian_refuses_an_unknown_wrt(wrt, flows):
    conn = conn_for("randers2d")
    with pytest.raises(ValueError, match="wrt"):
        exp_map_with_jacobian(conn, [0.2, -0.3], [0.3, 0.1], [1.0, 0.4], wrt=wrt)
    assert flows == []  # refused before any flow


def test_trajectory_counts_include_queries_after_return():
    traj = integrate_autoparallel(conn_for("sphere2d"), [1.1, 0.3], [0.4, -0.2], 2.0)
    d, sol = traj.diagnostics, traj.solution
    # the canonical lift builds no interpolant before it returns
    assert d.field_evals == sol.nfev == 2 + 11 * (d.accepted + d.rejected) + d.accepted
    at_return = d.field_evals
    traj.state(0.7)
    traj.state(1.5)
    built = sum(seg.coeffs is not None for seg in sol.segments)
    assert built == 2
    # each built interpolant evaluated its 3 dense stages, and the counts say so
    assert d.field_evals == sol.nfev == at_return + 3 * built
    assert (d.accepted, d.rejected) == (sol.naccepted, sol.nrejected)
    assert d.max_horizontality_residual is None  # the lift has none


def test_horizontal_rescaling_property():
    # EXP(alpha u, v) equals the (u, v)-curve evaluated at t = alpha
    conn = conn_for("randers2d")
    x0, u, v = np.array([0.2, -0.1]), np.array([0.8, 0.4]), np.array([1.0, -0.3])
    alpha = 0.6
    short = exp_map(conn, x0, alpha * u, v, TIGHT)
    full = integrate_horizontal_autoparallel(conn, x0, u, v, 1.0, TIGHT)
    at_alpha = full.state(alpha)
    assert np.abs(short.x - at_alpha.x).max() < 1e-8
    assert np.abs(short.y - at_alpha.y).max() < 1e-8


def test_the_shared_tight_controls_cannot_be_changed():
    # charts, verify and the geodesic trace all read this one instance
    assert (dynamics.TIGHT.rtol, dynamics.TIGHT.atol) == (1e-12, 1e-14)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dynamics.TIGHT.rtol = 1e-6


# -- exponential map ---------------------------------------------------------------


def test_exp_with_zero_base_velocity_is_identity():
    conn = conn_for("randers2d")
    x0, v = np.array([0.3, 0.7]), np.array([0.9, -0.2])
    p = exp_map(conn, x0, np.zeros(2), v)
    assert np.abs(p.x - x0).max() < 1e-12
    assert np.abs(p.y - v).max() < 1e-12


def test_polar_exp_closed_form():
    conn = conn_for("polar2d")
    p = exp_map(conn, [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], TIGHT)
    assert np.abs(p.x - [np.sqrt(2.0), np.pi / 4]).max() < 1e-8
    assert np.abs(p.y - [np.sqrt(2.0) / 2, 0.5]).max() < 1e-8


def test_exp_first_derivative_blocks():
    conn = conn_for("randers2d")
    x0, v = np.array([0.2, -0.3]), np.array([1.0, 0.4])
    d = rest_blocks(conn, x0, v)
    N = conn.coefficients(bundle_point(x0, v))
    assert np.abs(d.dx_du - np.eye(2)).max() == 0.0
    assert np.abs(d.dx_dv).max() == 0.0
    assert np.abs(d.dy_dv - np.eye(2)).max() == 0.0
    assert np.abs(d.dy_du + N).max() < 1e-14

    # cross-check the -N block against finite differences of the flow
    h1, h2 = 1e-2, 1e-3
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0

        def diff(h):
            p = exp_map(conn, x0, h * e, v, TIGHT)
            m = exp_map(conn, x0, -h * e, v, TIGHT)
            return (p.y - m.y) / (2 * h)

        rich = (diff(h2) * (h1 / h2) ** 2 - diff(h1)) / ((h1 / h2) ** 2 - 1.0)
        assert np.abs(rich - d.dy_du[:, j]).max() < 1e-5 * (1 + np.abs(N).max())


@pytest.mark.parametrize(
    "name,x0,v",
    [
        ("randers2d", [0.2, -0.3], [1.0, 0.4]),
        ("polar2d", [1.3, 0.2], [0.6, 0.8]),
    ],
)
def test_exp_higher_derivative_blocks_match_finite_differences(name, x0, v):
    conn = conn_for(name)
    x0, v = np.asarray(x0, float), np.asarray(v, float)
    n = conn.dimension
    d = rest_blocks(conn, x0, v)
    base = exp_map(conn, x0, np.zeros(n), v, TIGHT)
    rng = np.random.default_rng(41)

    def along(h, w):
        return exp_map(conn, x0, h * w, v, TIGHT)

    for _ in range(3):
        w = rng.normal(size=n)
        w /= np.linalg.norm(w)

        def dir2(h):
            p, m = along(h, w), along(-h, w)
            return (p.x - 2 * base.x + m.x) / h**2, (p.y - 2 * base.y + m.y) / h**2

        a1, a2 = dir2(2e-2), dir2(1e-2)
        fd_x = (4 * a2[0] - a1[0]) / 3
        fd_y = (4 * a2[1] - a1[1]) / 3
        cl_x = np.einsum("qbc,b,c->q", d.d2x_duu, w, w)
        cl_y = np.einsum("qbc,b,c->q", d.d2y_duu, w, w)
        assert np.abs(fd_x - cl_x).max() < 1e-5 * (1 + np.abs(cl_x).max())
        assert np.abs(fd_y - cl_y).max() < 1e-5 * (1 + np.abs(cl_y).max())

        def dir3(h):
            p2, p1 = along(2 * h, w), along(h, w)
            m1, m2 = along(-h, w), along(-2 * h, w)
            return (p2.x - 2 * p1.x + 2 * m1.x - m2.x) / (2 * h**3)

        b1, b2 = dir3(4e-2), dir3(2e-2)
        fd_3 = (4 * b2 - b1) / 3
        cl_3 = np.einsum("qbcd,b,c,d->q", d.d3x_duuu, w, w, w)
        assert np.abs(fd_3 - cl_3).max() < 1e-5 * (1 + np.abs(cl_3).max())


def test_exp_derivative_blocks_are_symmetric():
    conn = conn_for("randers2d")
    d = rest_blocks(conn, [0.1, 0.4], [0.7, -0.6])
    assert np.abs(d.d2x_duu - np.transpose(d.d2x_duu, (0, 2, 1))).max() < 1e-14
    assert np.abs(d.d2y_duu - np.transpose(d.d2y_duu, (0, 2, 1))).max() < 1e-14
    for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
        assert np.abs(d.d3x_duuu - np.transpose(d.d3x_duuu, perm)).max() < 1e-14


def test_exp_jacobian_from_variational_flow():
    conn = conn_for("randers2d")
    x0, u, v = np.array([0.2, -0.3]), np.array([0.5, 0.9]), np.array([1.0, 0.4])
    p, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(conn, x0, u, v, controls=TIGHT)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        pu = exp_map(conn, x0, u + e, v, TIGHT)
        mu = exp_map(conn, x0, u - e, v, TIGHT)
        assert np.abs((pu.x - mu.x) / (2 * h) - dxdu[:, j]).max() < 1e-7
        assert np.abs((pu.y - mu.y) / (2 * h) - dydu[:, j]).max() < 1e-7
        pv = exp_map(conn, x0, u, v + e, TIGHT)
        mv = exp_map(conn, x0, u, v - e, TIGHT)
        assert np.abs((pv.x - mv.x) / (2 * h) - dxdv[:, j]).max() < 1e-7
        assert np.abs((pv.y - mv.y) / (2 * h) - dydv[:, j]).max() < 1e-7


# -- time-one flows start from the unit interval ---------------------------------

REFERENCE = IntegrationControls(rtol=1e-13, atol=1e-15)
ENDPOINT_TOL = 1e-8  # perfbench's flow-4d endpoint bound


@pytest.fixture
def flows(monkeypatch):
    """The OdeSolution of every flow the dynamics module runs, in call order."""
    sols = []

    def recorded(*args, **kwargs):
        sols.append(solve_ode(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(dynamics, "solve_ode", recorded)
    return sols


def _endpoint_gap(p, ref):
    r = np.concatenate([ref.x, ref.y])
    return np.abs(np.concatenate([p.x, p.y]) - r).max() / (1.0 + np.abs(r).max())


@pytest.mark.parametrize("name", builtin_names() + ["line1d"])
def test_time_one_flows_match_a_tight_run(name, flows):
    model = load_model(str(LINE_MODEL) if name == "line1d" else f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    rng = np.random.default_rng([606, n])
    for speed in (0.05, 0.4, 2.0):
        p = model.draw_point(rng)
        d = rng.standard_normal(n)
        u = speed * d / np.linalg.norm(d)
        ref = exp_map(conn, p.x, u, p.y, REFERENCE)
        assert _endpoint_gap(exp_map(conn, p.x, u, p.y), ref) <= ENDPOINT_TOL
        # the first trial is the unit interval; only a rejection shortens it
        assert flows[-1].segments[0].h == 1.0 or flows[-1].nrejected >= 1
        end = exp_map_with_jacobian(conn, p.x, u, p.y)[0]
        assert _endpoint_gap(end, ref) <= ENDPOINT_TOL


def test_a_rejected_unit_trial_shrinks_and_stays_accurate(flows):
    conn = conn_for("randers2d")
    x0, u, v = np.array([0.3, 0.6]), np.array([1.2, -1.4]), np.array([0.8, 0.5])
    ref = exp_map(conn, x0, u, v, REFERENCE)
    for run in (
        lambda: exp_map(conn, x0, u, v),
        lambda: exp_map_with_jacobian(conn, x0, u, v)[0],
    ):
        p = run()
        sol = flows[-1]
        assert sol.nrejected >= 1
        # the unit trial cut by error control, at most 5x per rejection
        assert integrate.MIN_FACTOR**sol.nrejected <= sol.segments[0].h < 1.0
        assert _endpoint_gap(p, ref) <= ENDPOINT_TOL


def test_a_unit_trial_with_an_excluded_stage_is_a_rejected_step(flows, monkeypatch):
    # polar2d degenerates at r = 0: the unit trial's stages reach it, the
    # flow itself passes r = 0.16 (the Cartesian chord's closest approach)
    conn = conn_for("polar2d")
    base, u, v = np.array([0.8, 0.0]), np.array([-2.0, 0.5]), np.array([1.0, 0.0])
    # the reference starts with a short step, clear of the excluded set
    z0 = np.concatenate([base, v, u])
    end = solve_ode(
        dynamics._horizontal_rhs(conn), 0.0, z0, 1.0, rtol=1e-13, atol=1e-15, first_step=1e-3
    ).state_end
    ref = bundle_point(end[:2], end[2:4])

    def no_estimate(*args):
        raise AssertionError("a time-one flow asked for the starting-step estimate")

    monkeypatch.setattr(integrate, "_initial_step", no_estimate)
    for controls in (None, IntegrationControls()):
        for run in (
            lambda: exp_map(conn, base, u, v, controls),
            lambda: exp_map_with_jacobian(conn, base, u, v, controls=controls)[0],
        ):
            del flows[:]
            p = run()
            assert len(flows) == 1
            assert flows[0].nrejected >= 1
            assert _endpoint_gap(p, ref) <= ENDPOINT_TOL


def test_exp_map_of_an_explicit_connection_refuses_the_zero_fiber():
    conn = GeneralConnection.explicit(lambda xs, ys: [[0.0, 0.0], [0.0, 0.0]], 2)
    with pytest.raises(NearZeroDirection):
        exp_map(conn, [0.1, 0.2], [0.3, -0.4], [0.0, 0.0])


def test_small_velocity_flow_takes_one_step(flows):
    conn = conn_for("quartic4d")
    base = np.array([0.2, -0.3, 0.1, 0.4])
    u, v = 0.1 * np.array([0.5, -0.5, 0.5, 0.5]), np.array([0.6, 0.2, -0.7, 0.3])
    exp_map(conn, base, u, v)
    exp_map_with_jacobian(conn, base, u, v)
    for sol in flows:
        # one accepted step: start, 11 stages and the FSAL end point
        assert (sol.naccepted, sol.nrejected, sol.nfev) == (1, 0, 13)
        assert sol.segments[0].h == 1.0


def test_flows_to_any_end_time_keep_the_starting_step_estimate(monkeypatch):
    calls = 0
    estimate = integrate._initial_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return estimate(*args)

    monkeypatch.setattr(integrate, "_initial_step", counted)
    conn = conn_for("randers2d")
    x0, u, v = np.array([0.2, -0.1]), np.array([0.08, 0.04]), np.array([1.0, -0.3])
    exp_map(conn, x0, u, v)
    assert calls == 0
    orders = count_kernel_calls(conn)
    traj = integrate_horizontal_autoparallel(conn, x0, u, v, 1.0)
    assert calls == 1
    assert traj.solution.segments[0].h < 1.0
    # the estimate's probe is the start's second evaluation
    _assert_residual_measured_on_first_read(traj, orders)
    integrate_autoparallel(conn, x0, u, 1.0)
    assert calls == 2


# -- Taylor-mode flows ----------------------------------------------------------


def _variational_matrix(deep, u, n):
    """A(z) of the first variational equations J' = A J of the horizontal field."""
    A = np.zeros((3 * n, 3 * n))
    A[0:n, 2 * n : 3 * n] = np.eye(n)
    A[n : 2 * n, 0:n] = -np.einsum("abc,b->ac", deep.dN_x, u)
    A[n : 2 * n, n : 2 * n] = -np.einsum("abc,b->ac", deep.dN_y, u)
    A[n : 2 * n, 2 * n :] = -deep.N
    second = second_derivatives(deep)
    A[2 * n :, 0:n] = -np.einsum("abcd,b,c->ad", second.ddN_xy, u, u)
    A[2 * n :, n : 2 * n] = -np.einsum("abcd,b,c->ad", second.ddN_yy, u, u)
    A[2 * n :, 2 * n :] = -(
        np.einsum("adb,b->ad", deep.dN_y, u) + np.einsum("abd,b->ad", deep.dN_y, u)
    )
    return A


def _variational_jacobian(conn, x0, u, v):
    """Reference (u, v)-Jacobian of EXP from the hand-built variational system."""
    n = conn.dimension

    def rhs(t, z):
        x, y, uu = z[:n], z[n : 2 * n], z[2 * n : 3 * n]
        deep = conn.evaluate_deep(bundle_point(x, y))
        base = np.concatenate([uu, -deep.N @ uu, -np.einsum("abc,b,c->a", deep.dN_y, uu, uu)])
        J = z[3 * n :].reshape(3 * n, 2 * n)
        return np.concatenate([base, (_variational_matrix(deep, uu, n) @ J).ravel()])

    seeds = np.zeros((3 * n, 2 * n))
    seeds[2 * n :, :n] = np.eye(n)
    seeds[n : 2 * n, n:] = np.eye(n)
    z0 = np.concatenate([x0, v, u, seeds.ravel()])
    zf = solve_ode(rhs, 0.0, z0, 1.0, rtol=TIGHT.rtol, atol=TIGHT.atol).state_end
    J = zf[3 * n :].reshape(3 * n, 2 * n)
    return np.concatenate([zf[: 2 * n], J[: 2 * n].ravel()])


@pytest.mark.parametrize("name", builtin_names())
def test_order_one_flow_matches_the_variational_system(name):
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    lo, hi = (np.asarray(model.domain[k], float) for k in ("x_min", "x_max"))
    rng = np.random.default_rng(41)
    x0 = lo + (0.3 + 0.4 * rng.random(n)) * (hi - lo)
    u = 0.3 * rng.standard_normal(n) / np.sqrt(n)
    v = rng.standard_normal(n) + 0.5
    end, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(conn, x0, u, v, controls=TIGHT)
    mine = np.concatenate(
        [end.x, end.y, np.block([[dxdu, dxdv], [dydu, dydv]]).ravel()]
    )
    ref = _variational_jacobian(conn, x0, u, v)
    assert np.abs(mine - ref).max() <= 1e-10 * (1.0 + np.abs(ref).max())


class _CachedExp:
    """exp_map at (u, v) = z[:n], z[n:], memoized so every output component
    reuses the same flows."""

    def __init__(self, conn, x0):
        self.conn, self.x0, self.cache = conn, x0, {}

    def __call__(self, z):
        key = z.tobytes()
        if key not in self.cache:
            n = self.conn.dimension
            self.cache[key] = exp_map(self.conn, self.x0, z[:n], z[n:], TIGHT).as_state()
        return self.cache[key]


@pytest.mark.parametrize("name,x0,u,v", [
    ("sphere2d", [1.1, 0.3], [0.25, -0.15], [0.8, -0.6]),
    ("randers2d", [0.2, -0.3], [0.3, 0.2], [1.0, 0.4]),
])
def test_order_two_and_three_flow_jets_match_differences_of_exp_map(name, x0, u, v):
    conn = conn_for(name)
    x0, u, v = (np.asarray(a, float) for a in (x0, u, v))
    n = 2
    # order 2 in (u, v): every second partial of the time-one point
    space = JetSpace.get(2 * n, 2)
    x, y = exp_map_jets(conn, x0, u, v, space, u_seed=0, v_seed=n, controls=TIGHT)
    flow = _CachedExp(conn, x0)
    z0 = np.concatenate([u, v])
    for row, comp in enumerate(np.vstack([x, y])):
        fd = richardson_hessian(lambda z: flow(z)[row], z0, 2e-2, 1e-2)
        jet = np.array(
            [[comp[slot(space, unit_index(2 * n, a, b))] * (1.0 + (a == b))
              for b in range(2 * n)] for a in range(2 * n)]
        )
        assert np.abs(jet - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())

    # order 3 in u: the third derivative along a direction
    space = JetSpace.get(n, 3)
    x, y = exp_map_jets(conn, x0, u, v, space, u_seed=0, controls=TIGHT)
    w = np.array([0.6, 0.8])
    indices = multi_indices(space)
    cubic = [i for i, alpha in enumerate(indices) if sum(alpha) == 3]
    weights = np.array([6.0 * np.prod(w ** np.array(indices[i])) for i in cubic])

    def third(h):
        p = [exp_map(conn, x0, u + k * h * w, v, TIGHT).as_state() for k in (2, 1, -1, -2)]
        return (p[0] - 2 * p[1] + 2 * p[2] - p[3]) / (2 * h**3)

    fd = (4 * third(2e-2) - third(4e-2)) / 3
    jet = np.vstack([x, y])[:, cubic] @ weights
    assert np.abs(jet - fd).max() <= 1e-5 * (1.0 + np.abs(fd).max())


@pytest.mark.parametrize("name,x0,v", [
    ("sphere2d", [1.1, 0.3], [0.8, -0.6]),
    ("randers2d", [0.2, -0.3], [1.0, 0.4]),
    ("polar2d", [1.3, 0.2], [0.6, 0.8]),
])
def test_order_three_jets_at_zero_velocity_match_the_closed_form_blocks(name, x0, v):
    conn = conn_for(name)
    n = 2
    space = JetSpace.get(n, 3)
    x, y = exp_map_jets(conn, x0, np.zeros(n), v, space, u_seed=0, controls=TIGHT)
    d = closed_form_blocks(conn, x0, v)

    def partials(comp, k):
        shape = (n,) * k
        out = np.empty(shape)
        for idx in np.ndindex(*shape):
            i = slot(space, unit_index(n, *idx))
            out[idx] = comp[i] * space.factorials[i]
        return out

    for got, want in (
        (np.array([partials(c, 2) for c in x]), d.d2x_duu),
        (np.array([partials(c, 2) for c in y]), d.d2y_duu),
        (np.array([partials(c, 3) for c in x]), d.d3x_duuu),
    ):
        assert np.abs(got - want).max() <= 1e-8 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("name,x0,v", [
    ("randers2d", [0.2, -0.3], [1.0, 0.4]),
    ("quartic4d", [0.2, -0.3, 0.1, 0.4], [0.6, 0.2, -0.7, 0.3]),
])
def test_mixed_jets_at_zero_velocity_match_the_du_dv_block(name, x0, v):
    conn = conn_for(name)
    n = len(x0)
    space = JetSpace.get(2 * n, 2)
    y = exp_map_jets(conn, x0, np.zeros(n), v, space, u_seed=0, v_seed=n, controls=TIGHT)[1]
    d = closed_form_blocks(conn, x0, v)
    # the slot of du^b dv^c holds d^2 y / du^b dv^c itself (factorial 1)
    slots = [[slot(space, unit_index(2 * n, b, n + c)) for c in range(n)] for b in range(n)]
    got = y[:, slots]
    assert np.abs(got - d.d2y_duv).max() <= 1e-10 * (1.0 + np.abs(d.d2y_duv).max())


# -- trajectory container -----------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    conn = conn_for("polar2d")
    traj = integrate_autoparallel(conn, [1.0, 0.0], [0.0, 1.0], 0.5)
    out = tmp_path / "curve.csv"
    traj.to_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "y1", "y2"]
    assert len(rows) == len(traj.ts) + 1
    k = len(rows) // 2
    assert float(rows[k][1]) == pytest.approx(traj.xs[k - 1][0], abs=0)


def test_dense_state_matches_stored_nodes():
    conn = conn_for("randers2d")
    traj = integrate_horizontal_autoparallel(
        conn, [0.0, 0.0], [1.0, 0.2], [0.8, -0.1], 1.0
    )
    for k in (0, len(traj.ts) // 2, len(traj.ts) - 1):
        p = traj.state(traj.ts[k])
        assert np.abs(p.x - traj.xs[k]).max() < 1e-12
        assert np.abs(p.y - traj.ys[k]).max() < 1e-12


@pytest.mark.parametrize(
    "name, base, u, v",
    [
        ("sphere2d", [np.pi / 3, 0.4], [0.3, -0.2], [0.8, -0.5]),
        ("quartic4d", [0.2, -0.3, 0.1, 0.4], [0.1, -0.05, 0.05, 0.1], [0.6, 0.2, -0.7, 0.3]),
    ],
)
def test_time_one_endpoints_own_their_coordinates(name, base, u, v):
    # a kept endpoint must not pin the flow's state history or its jet state
    conn = conn_for(name)
    for endpoint in (exp_map(conn, base, u, v), exp_map_with_jacobian(conn, base, u, v)[0]):
        assert endpoint.x.base is None
        assert endpoint.y.base is None
