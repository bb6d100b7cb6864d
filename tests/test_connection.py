"""Connection construction against independent oracles and closed forms."""

from pathlib import Path

import numpy as np
import pytest

from finslerkit import (
    NearDegenerateMetric,
    NearZeroDirection,
    NonFiniteField,
    bundle_point,
)
from finslerkit.connection import (
    ConnectionEval,
    GeneralConnection,
    _degree_blocks,
    _series_solve,
    _Spray,
    _x_cap,
    cartan_linear_delta,
)
from finslerkit import expressions, jets
from finslerkit.jets import JetSpace, TaylorJet, eval_taylor
from finslerkit.lagrangian import FinslerLagrangian
from finslerkit.models import load_model

from fd_oracles import central_gradient, central_hessian
from jet_oracles import (
    family_walk,
    horizontal_derivative,
    jet_level_n,
    jet_partial,
    jet_solve,
    multi_indices,
    second_derivatives,
    slot,
    unit_index,
)

MODELS = ["flat4d", "polar2d", "sphere2d", "randers2d", "quartic4d"]
LINE_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "line1d.json"


def load(name):
    """A builtin model, or the benchmark's one-dimensional model ``line1d``."""
    return load_model(LINE_MODEL if name == "line1d" else f"builtin:{name}")


def sample_points(model, count, seed):
    rng = np.random.default_rng(seed)
    return [model.draw_point(rng) for _ in range(count)]


# -- independent finite-difference construction of the canonical connection --


def fd_cartan_nonlinear(model, x, y, h=1e-4):
    """Finite-difference evaluation of N^a_b, sharing no code with the jets."""
    n = len(x)

    def lag(xv, yv):
        return model.evaluate(bundle_point(xv, yv))

    def bracket(yv):
        # g_aq at (x, yv)
        g = 0.5 * central_hessian(lambda w: lag(x, w), np.asarray(yv, float), h)
        # d_q L and y^p d_p dbar_q L
        dLx = central_gradient(lambda w: lag(w, yv), np.asarray(x, float), h)

        def dbar_of_dx(q):
            def inner(w):
                return central_gradient(lambda u: lag(u, w), np.asarray(x, float), h)[q]

            return inner

        mixed = np.array(
            [central_gradient(dbar_of_dx(q), np.asarray(yv, float), h) for q in range(n)]
        )  # mixed[q, p] = dbar_p d_q L -> we need y^p d_p dbar_q L = sum_p yv[p]*mixed?? see below
        # mixed[q][p] = d/dy^p (d/dx^q L); the bracket wants y^p d/dx^p d/dy^q L,
        # which by equality of mixed partials is sum_p yv[p] * mixed[p][q]
        rhs = np.array([sum(yv[p] * mixed[p][q] for p in range(n)) for q in range(n)]) - dLx
        return np.linalg.solve(g, rhs)

    cols = central_gradient(bracket, np.asarray(y, float), h)
    return 0.25 * cols


def test_flat_connection_vanishes():
    model = load_model("builtin:flat4d")
    conn = GeneralConnection.cartan(model)
    for p in sample_points(model, 5, seed=11):
        ev = conn.evaluate(p)
        assert np.abs(ev.N).max() < 1e-13
        assert np.abs(ev.R).max() < 1e-13
        assert np.abs(conn.berwald(p)).max() < 1e-13


def test_polar_plane_closed_form():
    model = load_model("builtin:polar2d")
    p = bundle_point([2.0, 0.7], [1.0, 1.0])
    N = GeneralConnection.cartan(model).coefficients(p)
    assert np.allclose(N, [[0.0, -2.0], [0.5, 0.5]], atol=1e-12)

    D = GeneralConnection.cartan(model).berwald(p)
    # D^a_bc = dbar_b N^a_c, linear case reduces to the Christoffel symbols
    assert D[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
    assert D[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
    assert D[1, 1, 0] == pytest.approx(0.5, abs=1e-12)

    G = cartan_linear_delta(model, p)
    assert G[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)  # radial/angular term -r
    assert G[1, 0, 1] == pytest.approx(0.5, abs=1e-12)  # 1/r
    assert np.allclose(np.einsum("abc,b->ac", G, p.y), N, atol=1e-12)


def test_polar_plane_curvature_is_zero():
    model = load_model("builtin:polar2d")
    conn = GeneralConnection.cartan(model)
    for p in sample_points(model, 5, seed=3):
        assert np.abs(conn.evaluate(p).R).max() < 1e-11


def test_sphere_curvature_closed_form():
    conn = GeneralConnection.cartan(load_model("builtin:sphere2d"))
    theta, yth, yph = 1.1, 0.8, -0.6
    ev = conn.evaluate(bundle_point([theta, 0.4], [yth, yph]))
    assert ev.R[0, 0, 1] == pytest.approx(-np.sin(theta) ** 2 * yph, rel=1e-12)
    assert ev.R[1, 0, 1] == pytest.approx(yth, rel=1e-12)
    assert np.allclose(ev.R[:, 0, 1], -ev.R[:, 1, 0], atol=1e-14)


def test_connection_matches_fd_oracle_on_randers():
    model = load_model("builtin:randers2d")
    p = bundle_point([0.3, 0.6], [1.1, -0.4])
    N = GeneralConnection.cartan(model).coefficients(p)
    N_fd = fd_cartan_nonlinear(model, p.x, p.y)
    scale = 1.0 + np.abs(N).max()
    assert np.abs(N - N_fd).max() < 2e-5 * scale


def test_connection_matches_fd_oracle_on_quartic():
    model = load_model("builtin:quartic4d")
    p = bundle_point([0.2, -0.3, 0.5, 0.1], [0.9, 0.4, -0.7, 1.2])
    N = GeneralConnection.cartan(model).coefficients(p)
    N_fd = fd_cartan_nonlinear(model, p.x, p.y, h=2e-4)
    scale = 1.0 + np.abs(N).max()
    assert np.abs(N - N_fd).max() < 5e-5 * scale


def test_first_derivatives_of_n_match_fd():
    model = load_model("builtin:sphere2d")
    conn = GeneralConnection.cartan(model)
    p = bundle_point([1.2, -0.5], [0.7, 0.9])
    ev = conn.evaluate(p)
    h = 1e-5
    for c in range(2):
        ex = np.zeros(2)
        ex[c] = h
        fd_x = (
            conn.coefficients(bundle_point(p.x + ex, p.y))
            - conn.coefficients(bundle_point(p.x - ex, p.y))
        ) / (2 * h)
        fd_y = (
            conn.coefficients(bundle_point(p.x, p.y + ex))
            - conn.coefficients(bundle_point(p.x, p.y - ex))
        ) / (2 * h)
        assert np.abs(ev.dN_x[:, :, c] - fd_x).max() < 1e-8
        assert np.abs(ev.dN_y[:, :, c] - fd_y).max() < 1e-8


def test_second_derivatives_of_n_match_fd():
    model = load_model("builtin:randers2d")
    conn = GeneralConnection.cartan(model)
    p = bundle_point([0.25, -0.6], [1.3, 0.4])
    deep = second_derivatives(conn.evaluate_deep(p))
    h = 1e-4
    for c in range(2):
        for d in range(2):
            ec, ed = np.zeros(2), np.zeros(2)
            ec[c] = h
            ed[d] = h

            def dNy_c(q):
                plus = conn.evaluate(bundle_point(q.x, q.y + ec)).N
                minus = conn.evaluate(bundle_point(q.x, q.y - ec)).N
                return (plus - minus) / (2 * h)

            fd_xy = (
                dNy_c(bundle_point(p.x + ed, p.y)) - dNy_c(bundle_point(p.x - ed, p.y))
            ) / (2 * h)
            fd_yy = (
                dNy_c(bundle_point(p.x, p.y + ed)) - dNy_c(bundle_point(p.x, p.y - ed))
            ) / (2 * h)
            assert np.abs(deep.ddN_xy[:, :, c, d] - fd_xy).max() < 5e-6
            assert np.abs(deep.ddN_yy[:, :, c, d] - fd_yy).max() < 5e-6


@pytest.mark.parametrize("name", MODELS)
def test_structural_identities_per_model(name):
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    for p in sample_points(model, 8, seed=17):
        ev = conn.evaluate(p)

        # fiber symmetry of the connection derivative
        sym_gap = np.abs(ev.dN_y - np.transpose(ev.dN_y, (0, 2, 1))).max()
        assert sym_gap <= 1e-10 * (1.0 + np.abs(ev.dN_y).max())

        # positive 1-homogeneity in y
        for lam in (0.5, 2.0):
            scaled = conn.coefficients(bundle_point(p.x, lam * p.y))
            assert np.abs(scaled - lam * ev.N).max() <= 1e-10 * (
                1.0 + np.abs(ev.N).max()
            ) * max(1.0, lam)

        # horizontal constancy of L
        delta_L = horizontal_derivative(conn, model, p)
        jet = model.taylor(p, 1)
        gy = np.array([jet_partial(jet, _unit(n, n + a)) for a in range(n)])
        gx = np.array([jet_partial(jet, _unit(n, a)) for a in range(n)])
        scale = 1.0 + np.abs(gx).max() + np.abs(ev.N.T @ gy).max()
        assert np.abs(delta_L).max() <= 1e-10 * scale

        # curvature antisymmetry and its two trace identities
        assert np.abs(ev.R + np.transpose(ev.R, (0, 2, 1))).max() <= 1e-12 * (
            1.0 + np.abs(ev.R).max()
        )
        contraction = np.einsum("rbc,r->bc", ev.R, gy)
        assert np.abs(contraction).max() <= 1e-8 * (
            1.0 + np.abs(ev.R).max() * np.abs(gy).max()
        )
        g = model.l_metric(p)
        R_low = np.einsum("am,mbd->abd", g, ev.R)
        cyclic = (
            R_low
            + np.transpose(R_low, (1, 2, 0))
            + np.transpose(R_low, (2, 0, 1))
        )
        assert np.abs(cyclic).max() <= 1e-8 * (1.0 + np.abs(R_low).max())

        # contraction of the linear coefficients reproduces N
        G = cartan_linear_delta(model, p)
        assert np.allclose(
            np.einsum("abc,b->ac", G, p.y), ev.N, atol=1e-9 * (1.0 + np.abs(ev.N).max())
        )

        # Euler identity for the 1-homogeneous N: (dbar_b N^a_c) y^b = N^a_c
        D = np.transpose(ev.dN_y, (0, 2, 1))
        assert np.allclose(
            np.einsum("abc,b->ac", D, p.y), ev.N, atol=1e-10 * (1.0 + np.abs(ev.N).max())
        )


def _unit(n, v):
    e = [0] * (2 * n)
    e[v] = 1
    return tuple(e)


@pytest.mark.parametrize("name", ["polar2d", "sphere2d"])
def test_riemannian_reduction_to_levi_civita(name):
    """For quadratic models, N must equal the Levi-Civita linear transport."""
    model = load_model(f"builtin:{name}")

    def metric(xv):
        n = model.dimension
        g = np.empty((n, n))
        probe = np.zeros(n)
        for a in range(n):
            for b in range(n):
                ya, yb = np.zeros(n), np.zeros(n)
                ya[a] = 1.0
                yb[b] = 1.0
                # polarization of the quadratic form
                g[a, b] = 0.5 * (
                    model.evaluate(bundle_point(xv, ya + yb))
                    - model.evaluate(bundle_point(xv, ya))
                    - model.evaluate(bundle_point(xv, yb))
                )
        del probe
        return g

    def levi_civita(xv, h=1e-5):
        n = model.dimension
        dg = np.empty((n, n, n))  # dg[c][q][b] = d_c g_qb
        for c in range(n):
            e = np.zeros(n)
            e[c] = h
            dg[c] = (metric(xv + e) - metric(xv - e)) / (2 * h)
        ginv = np.linalg.inv(metric(xv))
        gamma = np.empty((n, n, n))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    gamma[a, b, c] = 0.5 * sum(
                        ginv[a, q] * (dg[b][q][c] + dg[c][q][b] - dg[q][b][c])
                        for q in range(n)
                    )
        return gamma

    for p in sample_points(model, 4, seed=23):
        N = GeneralConnection.cartan(model).coefficients(p)
        gamma = levi_civita(p.x)
        N_lc = np.einsum("abc,c->ab", gamma, p.y)
        assert np.abs(N - N_lc).max() <= 1e-8 * (1.0 + np.abs(N).max())


def test_berwald_is_y_independent_for_quadratic():
    model = load_model("builtin:sphere2d")
    conn = GeneralConnection.cartan(model)
    x = np.array([1.3, 0.2])
    D1 = conn.berwald(bundle_point(x, [1.0, 0.3]))
    D2 = conn.berwald(bundle_point(x, [-0.4, 1.7]))
    assert np.abs(D1 - D2).max() < 1e-9 * (1.0 + np.abs(D1).max())


def test_transformation_law_under_linear_change():
    """Connection coefficients conjugate correctly under x~ = A x, y~ = A y."""
    base = load_model("builtin:randers2d")
    rng = np.random.default_rng(42)
    A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    Ainv = np.linalg.inv(A)

    def transformed(xs, ys):
        xb = [Ainv[0, 0] * xs[0] + Ainv[0, 1] * xs[1], Ainv[1, 0] * xs[0] + Ainv[1, 1] * xs[1]]
        yb = [Ainv[0, 0] * ys[0] + Ainv[0, 1] * ys[1], Ainv[1, 0] * ys[0] + Ainv[1, 1] * ys[1]]
        return base(xb, yb)

    tilde = FinslerLagrangian.from_callable(transformed, 2, 2)
    p = bundle_point([0.4, -0.2], [1.0, 0.6])
    N = GeneralConnection.cartan(base).coefficients(p)
    Nt = GeneralConnection.cartan(tilde).coefficients(bundle_point(A @ p.x, A @ p.y))
    assert np.abs(Nt - A @ N @ Ainv).max() < 1e-9 * (1.0 + np.abs(N).max())


def test_explicit_connection_and_flag_audit():
    polar = load_model("builtin:polar2d")

    def n_fn(xs, ys):
        r = xs[0]
        inv_r = 1.0 / r if isinstance(r, float) else r.reciprocal()
        return [
            [0.0 * ys[0], -1.0 * r * ys[1]],
            [inv_r * ys[1], inv_r * ys[0]],
        ]

    conn = GeneralConnection.explicit(n_fn, 2, homogeneous=True, symmetric=True)
    p = bundle_point([2.0, 0.7], [1.0, 1.0])
    assert np.allclose(conn.coefficients(p), [[0, -2], [0.5, 0.5]], atol=1e-13)
    cartan = GeneralConnection.cartan(polar)
    assert np.allclose(conn.coefficients(p), cartan.coefficients(p), atol=1e-12)

    pts = sample_points(polar, 4, seed=9)
    audit = conn.validate_flags(pts)
    assert audit["homogeneous"] and audit["symmetric"]

    def lopsided(xs, ys):
        return [[ys[1], 0.0 * ys[0]], [0.0 * ys[0], ys[0]]]

    bad = GeneralConnection.explicit(lopsided, 2, homogeneous=True, symmetric=True)
    audit = bad.validate_flags(pts)
    assert audit["homogeneous"] and not audit["symmetric"]


def test_horizontal_derivative_hand_value():
    model = load_model("builtin:polar2d")
    conn = GeneralConnection.cartan(model)
    p = bundle_point([2.0, 0.7], [1.0, 1.0])

    # f = r^2 y_theta: delta_r f = 2 r y_th - N^th_r r^2 = r y_th
    def f(xs, ys):
        return xs[0] * xs[0] * ys[1]

    delta = horizontal_derivative(conn, f, p)
    assert delta[0] == pytest.approx(2.0, rel=1e-12)

    ev = conn.evaluate(p)
    assert np.allclose(ev.N, conn.coefficients(p), atol=1e-14)


def test_degenerate_and_zero_direction_guards():
    degenerate = FinslerLagrangian(2, 4, "pth_root", {"form": "y1^4", "p": 4})
    conn = GeneralConnection.cartan(degenerate)
    with pytest.raises(NearDegenerateMetric):
        conn.coefficients(bundle_point([0.0, 0.0], [1.0, 0.5]))
    randers = GeneralConnection.cartan(load_model("builtin:randers2d"))
    with pytest.raises(NearZeroDirection):
        randers.coefficients(bundle_point([0.0, 0.0], [0.0, 0.0]))


def test_jet_solve_takes_one_reciprocal_per_pivot(monkeypatch):
    space = JetSpace.get(3, 2)
    rng = np.random.default_rng(41)
    n = 3
    matrix = [[None] * n for _ in range(n)]
    rhs = []
    for a in range(n):
        for b in range(n):
            matrix[a][b] = TaylorJet(space, rng.standard_normal(space.size))
        rhs.append(space.variable(a, rng.standard_normal()))
    calls = 0
    reciprocal = TaylorJet.reciprocal

    def counted(jet):
        nonlocal calls
        calls += 1
        return reciprocal(jet)

    monkeypatch.setattr(TaylorJet, "reciprocal", counted)
    out = jet_solve(matrix, rhs)
    assert calls == n
    for a in range(n):
        back = sum((matrix[a][b] * out[b] for b in range(1, n)), matrix[a][0] * out[0])
        assert np.abs((back - rhs[a]).c).max() < 1e-12


def _full_space_n_jets(model, p, order):
    """Reference N jets: the same kernel on a full-space L jet of total
    degree order + 3."""
    L = eval_taylor(model, p, order + 3)
    return _Spray(L.space, order)(L.c, p.as_state())


@pytest.mark.parametrize("name", MODELS + ["line1d"])
def test_n_jets_match_full_space_on_the_slots_callers_read(name):
    # the spray is solved on x-degree <= _x_cap(order) - 1 only: bit-identical
    # there to the uncapped solve, and N's slots above are exact zeros
    model = load(name)
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    for p in sample_points(model, 2, seed=5):
        for order in (0, 1, 2, 3):
            capped = conn.n_jets(p, order)
            full = _full_space_n_jets(model, p, order)
            lspace = JetSpace.get(2 * n, order + 3, n, _x_cap(order))
            assert lspace.size < JetSpace.get(2 * n, order + 3).size
            space = JetSpace.get(2 * n, order)
            assert capped.shape == full.shape == (n, n, space.size)
            assert capped.flags.c_contiguous
            x_degree = np.array([sum(alpha[:n]) for alpha in multi_indices(space)])
            solved = x_degree <= _x_cap(order) - 1
            assert solved.sum() >= (x_degree <= min(order, 1)).sum()
            assert capped[:, :, solved].tobytes() == full[:, :, solved].tobytes(), (name, order)
            zeros = np.zeros((n, n, (~solved).sum()))
            assert capped[:, :, ~solved].tobytes() == zeros.tobytes(), (name, order)


@pytest.mark.parametrize("name", MODELS + ["line1d"])
def test_cartan_linear_delta_matches_the_metric_jet_gather(name):
    # oracle: d_b g_qc and d/dy^m g_qc gathered, as before the capped solve,
    # from g's jet on the uncapped order-1 working space
    model = load(name)
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    work = JetSpace.get(2 * n, 1)
    for p in sample_points(model, 3, seed=21):
        L = model.taylor(p, 3, x_order=1)
        g = np.empty((n, n, work.size))
        for q in range(n):
            for c in range(n):
                for i, alpha in enumerate(multi_indices(work)):
                    beta = list(alpha)
                    beta[n + c] += 1
                    rise_c = beta[n + c]
                    beta[n + q] += 1
                    fac = 1.0 * rise_c * beta[n + q] * 0.5
                    g[q, c, i] = L.c[slot(L.space, beta)] * fac
        x_slots = [slot(work, unit_index(2 * n, b)) for b in range(n)]
        y_slots = [slot(work, unit_index(2 * n, n + b)) for b in range(n)]
        N = conn.n_jets(p, 0)[:, :, 0]
        delta_g = g[:, :, x_slots] - np.einsum("mb,qcm->qcb", N, g[:, :, y_slots])
        term = np.transpose(delta_g, (0, 2, 1)) + delta_g - np.transpose(delta_g, (2, 0, 1))
        want = 0.5 * np.einsum("aq,qbc->abc", np.linalg.inv(g[:, :, 0]), term)
        assert cartan_linear_delta(model, p).tobytes() == want.tobytes(), name


def _skew_fiber(xs, ys):
    """An explicit connection whose d/dy^c N^a_b is not symmetric in (b, c)
    and whose second y-derivatives do not all vanish."""
    return [
        [0.3 * xs[0] * ys[0] + 0.4 * ys[1], 0.5 * ys[0] - 0.2 * xs[1] * ys[1]],
        [0.1 * ys[0] + 0.4 * xs[0] * ys[1], -0.3 * ys[1] + 0.25 * xs[1] * ys[0] * ys[0]],
    ]


def _eager_tensors(conn, p, order):
    """Oracle: the tensors of an evaluation of ``order``, built all at once
    from N's jet as the connection built them before they were derived on
    first access."""
    n = conn.dimension
    taylor = conn.n_jets(p, order)
    space = JetSpace.get(2 * n, order)
    fiber = [space.derivative(taylor, n + c) for c in range(n)]
    stack = np.stack([taylor] + fiber, axis=2)
    taylor = stack[:, :, 0]

    def partials(*slot_lists):
        idx = np.array([slot(space, unit_index(2 * n, *sl)) for sl in slot_lists])
        return taylor[:, :, idx] * space.factorials[idx]

    out = {
        "N": taylor[:, :, 0],
        "dN_x": partials(*((c,) for c in range(n))),
        "dN_y": partials(*((n + c,) for c in range(n))),
    }
    out["delta_N"] = out["dN_x"] - np.einsum("mc,abm->abc", out["N"], out["dN_y"])
    out["R"] = out["delta_N"] - np.transpose(out["delta_N"], (0, 2, 1))
    out["taylor"] = stack
    return out


@pytest.mark.parametrize("name", MODELS + ["explicit"])
def test_evaluation_tensors_are_derived_on_first_access(name):
    if name == "explicit":
        conn = GeneralConnection.explicit(_skew_fiber, 2)
        points = [bundle_point([0.2, -0.1], [0.6, 0.8]), bundle_point([-0.4, 0.3], [1.1, -0.2])]
    else:
        model = load_model(f"builtin:{name}")
        conn = GeneralConnection.cartan(model)
        points = sample_points(model, 2, seed=29)
    for p in points:
        for order in (1, 2, 3):
            ev = conn.evaluate(p) if order == 1 else conn.evaluate_deep(p, order)
            assert type(ev) is ConnectionEval  # one class at every order
            # every call builds its own evaluation, from the same N jet
            again = conn.evaluate(p) if order == 1 else conn.evaluate_deep(p, order)
            assert again is not ev
            assert again.jet.tobytes() == ev.jet.tobytes()
            want = _eager_tensors(conn, p, order)
            # the flows' fiber stack comes from the kernel, not the evaluation
            stack = want.pop("taylor")
            assert not hasattr(ev, "taylor")
            assert conn.kernel(order).fiber_stack(ev.jet).tobytes() == stack.tobytes()
            assert not ev.__dict__.keys() & want.keys()  # nothing derived yet
            for attr, value in want.items():
                got = getattr(ev, attr)
                assert got.shape == value.shape, (name, order, attr)
                assert got.tobytes() == value.tobytes(), (name, order, attr)
                assert getattr(ev, attr) is got  # derived once, then kept
            assert conn.kernel(order).fiber_derivative(ev.jet).tobytes() == ev.dN_y.tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_evaluation_tensors_are_the_jet_partials(name):
    # the array extraction in _assemble against a slot-by-slot loop
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    p = sample_points(model, 1, seed=8)[0]
    deep = conn.evaluate_deep(p)
    second = second_derivatives(deep)
    njets = conn.n_jets(p, 2)
    space = JetSpace.get(2 * n, 2)

    def partial(a, b, *slots):
        i = slot(space, unit_index(2 * n, *slots))
        return float(njets[a, b, i] * space.factorials[i])

    for a in range(n):
        for b in range(n):
            assert deep.N[a, b] == njets[a, b, 0]
            for c in range(n):
                assert deep.dN_x[a, b, c] == partial(a, b, c)
                assert deep.dN_y[a, b, c] == partial(a, b, n + c)
                for d in range(n):
                    assert second.ddN_xy[a, b, c, d] == partial(a, b, n + c, d)
                    assert second.ddN_yy[a, b, c, d] == partial(a, b, n + c, n + d)


def _jet_stack(space, arrays):
    return [TaylorJet(space, np.array(c)) for c in arrays]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_series_solve_matches_jet_elimination(n):
    rng = np.random.default_rng(60 + n)
    pivoting = np.eye(n)[::-1]  # zero leading entry for n >= 2: elimination must pivot
    for order in range(5):
        space = JetSpace.get(3, order)
        for g0 in (rng.standard_normal((n, n)) + 2.0 * np.eye(n), pivoting):
            g = rng.standard_normal((n, n, space.size))
            g[:, :, 0] = g0
            rhs = rng.standard_normal((n, space.size))
            stack = np.concatenate([g.reshape(n, -1), rhs], axis=1)
            s = _series_solve(_degree_blocks(space, n), stack, None)
            ref = jet_solve([_jet_stack(space, row) for row in g], _jet_stack(space, rhs))
            ref = np.array([jet.c for jet in ref])
            assert np.abs(s - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max()), (n, order)


def test_series_solve_refuses_a_degenerate_metric():
    space = JetSpace.get(2, 2)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2, space.size))
    rhs = rng.standard_normal((2, space.size))
    xy = bundle_point([0.25], [1.5]).as_state()
    blocks = _degree_blocks(space, 2)
    g[:, :, 0] = [[1.0, 0.0], [0.0, 1e-9]]
    with pytest.raises(NearDegenerateMetric, match=r"at x = \[0.25\], y = \[1.5\]"):
        _series_solve(blocks, np.concatenate([g.reshape(2, -1), rhs], axis=1), xy)
    g[:, :, 0] = [[1.0, np.nan], [0.0, 1.0]]
    with pytest.raises(NonFiniteField, match=r"not finite at the requested point x = \[0.25\], y = \[1.5\]"):
        _series_solve(blocks, np.concatenate([g.reshape(2, -1), rhs], axis=1), xy)


@pytest.mark.parametrize("name", MODELS)
def test_n_jets_match_jet_level_elimination(name):
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    for p in sample_points(model, 2, seed=13):
        for order in (0, 1, 2, 3):
            mine = conn.n_jets(p, order)
            L = model.taylor(p, order + 3)
            ref = jet_level_n(L, p.y)
            space = JetSpace.get(2 * n, order)
            read = [al for al in multi_indices(space) if sum(al[:n]) <= max(min(order, 1), order - 1)]
            got = np.array([[[mine[a, b, slot(space, al)] for al in read]
                             for b in range(n)] for a in range(n)])
            want = np.array([[[ref[a][b].c[slot(ref[a][b].space, al)] for al in read]
                              for b in range(n)] for a in range(n)])
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max()), (name, order)


def test_n_jets_take_no_jet_products_outside_the_lagrangian(monkeypatch):
    # the connection's kernel runs L's jet as its compiled tape
    inside = 0
    calls = {"inside": 0, "outside": 0}
    run = expressions.Tape.run

    def traced_run(self, *args):
        nonlocal inside
        inside += 1
        try:
            return run(self, *args)
        finally:
            inside -= 1

    def counted(fn):
        def wrapper(*args):
            calls["inside" if inside else "outside"] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(expressions.Tape, "run", traced_run)
    for attr in ("__mul__", "__rmul__", "reciprocal"):
        monkeypatch.setattr(TaylorJet, attr, counted(TaylorJet.__dict__[attr]))
    # L's own products run as waves of its compiled tape
    monkeypatch.setattr(jets, "wave_products", counted(jets.wave_products))
    for name in MODELS:
        model = load_model(f"builtin:{name}")
        conn = GeneralConnection.cartan(model)
        for p in sample_points(model, 2, seed=19):
            for order in (0, 1, 2, 3):
                conn.n_jets(p, order)
    assert calls["outside"] == 0
    assert calls["inside"] > 0  # the counters see L's own products


# -- L's compiled tape against the family walk ---------------------------------

CUSTOM3D = {
    "dimension": 3,
    "homogeneity_degree": 2,
    "family": "custom",
    "parameters": {
        "expression": "exp(0.2 * x1) * y1^2 - (1 + 0.1 * sin(x2) * cos(x3)) * (y2^2 + y3^2)"
        " + 0.05 * log(2 + x2) * y1 * y2 + 0.02 * abs(x1 - 2) * (y1^4 + y2^4) / (y1^2 + y2^2 + y3^2)"
        " - 0.02 * sqrt(y2^4 + y3^4)"
    },
}
SEXTIC = {
    "dimension": 2,
    "homogeneity_degree": 6,
    "family": "pth_root",
    "parameters": {"form": "(1 + 0.3 * sin(x1)) * y1^6 + y1^2 * y2^4 + exp(0.1 * x2) * y2^6", "p": 6},
}


@pytest.mark.parametrize(
    "source", [f"builtin:{name}" for name in MODELS] + [str(LINE_MODEL), CUSTOM3D, SEXTIC],
    ids=MODELS + ["line1d", "custom3d", "sextic"],
)
def test_n_jets_from_the_tape_are_the_family_walks_bit_for_bit(source):
    model = load_model(source)
    walk = FinslerLagrangian.from_callable(
        family_walk(model), model.dimension, model.homogeneity_degree
    )
    conn, ref = GeneralConnection.cartan(model), GeneralConnection.cartan(walk)
    for p in sample_points(model, 2, seed=23):
        for order in (0, 1, 2, 3):
            assert conn.n_jets(p, order).tobytes() == ref.n_jets(p, order).tobytes()
    # a second load of the same document compiles no new tape
    compiled = len(expressions._TAPES)
    conn = GeneralConnection.cartan(load_model(source))
    for p in sample_points(model, 2, seed=23):
        for order in (0, 1, 2, 3):
            conn.n_jets(p, order)
    assert len(expressions._TAPES) == compiled


def test_non_finite_connection_coefficients_name_their_point():
    # a finite L jet whose x-degree-2 coefficients (1e307) overflow the spray solve
    model = load_model({
        "dimension": 2, "homogeneity_degree": 2, "family": "custom",
        "parameters": {"expression": "y1^2 + y2^2 + 1e307 * x1^2 * (y1^2 + y2^2)"},
    })
    p = bundle_point([1e-160, 0.0], [1.0, 0.5])
    at = r"at x = \[1e-160, 0.0\], y = \[1.0, 0.5\]"
    with np.errstate(all="ignore"), pytest.raises(NonFiniteField, match="coefficients are not finite " + at):
        GeneralConnection.cartan(model).n_jets(p, 3)
