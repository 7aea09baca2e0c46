import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resilnet import dynamics, reports
from resilnet.dynamics import (
    AttackSignal,
    DeceptionAttack,
    DoSInterval,
    DoSRandomSpec,
    DoSSchedule,
    Gains,
    SimulationTrace,
    SystemState,
    _attackers,
    _plant_matrices,
    _plant_rows,
    _rk4_matrices,
    _walk,
    build_edge_timeline,
    check_step_stability,
    closed_loop_matrix,
    consensus_metrics,
    output_series,
    constant,
    ramp,
    realized_disconnection_time,
    simulate,
    sinusoid,
    stability_constants,
)
from resilnet.errors import ConfigurationError
from resilnet.graphs import (
    Graph,
    SwitchingNetwork,
    algebraic_connectivity,
    complete_graph,
    laplacian,
    path_graph,
    pe_margin,
    static_network,
)
from resilnet.scenarios import (
    generate_example1,
    materialize,
    random_connected_graph,
    split_edges_alternating,
)
from stepwise import per_step, plant_step


def test_gains_positive():
    with pytest.raises(ValueError):
        Gains(0.0, 1.0)
    with pytest.raises(ValueError):
        Gains(1.0, -2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Gains(bad, 1.0)
        with pytest.raises(ValueError):
            Gains(1.0, bad)


def test_attack_signals():
    assert AttackSignal("ramp", slope=0.3)(2.0) == pytest.approx(0.6)
    assert AttackSignal("constant", value=1.5)(17.0) == 1.5
    sig = AttackSignal("sinusoid", amplitude=2.0, frequency=0.25)
    assert sig(1.0) == pytest.approx(2.0)  # sin(pi/2)
    with pytest.raises(ValueError):
        AttackSignal("square")
    atk = DeceptionAttack(agent=1, activation_time=3.0, signal=AttackSignal("ramp", slope=1.0))
    assert atk.value(2.9) == 0.0
    assert atk.value(4.0) == pytest.approx(4.0)


def test_closed_loop_matrix_empty_graph_spectrum():
    g = Graph(3, ())
    a = closed_loop_matrix(g, Gains(1.0, 2.0))
    vals = np.sort_complex(np.linalg.eigvals(a))
    assert np.allclose(sorted(vals.real), [-2, -2, -2, 0, 0, 0], atol=1e-12)


def test_closed_loop_matrix_k2_roots():
    # eigenvalues solve s^2 + gamma*s + alpha*lam = 0 over the Laplacian
    # spectrum lam in {0, 2}
    a = closed_loop_matrix(Graph(2, ((0, 1),)), Gains(1.0, 1.0))
    got = np.sort_complex(np.linalg.eigvals(a))
    want = np.sort_complex(
        np.array([0, -1, (-1 + 1j * math.sqrt(7)) / 2, (-1 - 1j * math.sqrt(7)) / 2])
    )
    assert np.allclose(got, want, atol=1e-9)


@given(st.integers(0, 1_000))
def test_closed_loop_nullspace(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 9)))
    a = closed_loop_matrix(g, Gains(1.5, 2.5))
    direction = np.concatenate([np.ones(g.node_count), np.zeros(g.node_count)])
    assert np.allclose(a @ direction, 0.0, atol=1e-12)


def test_simulate_attack_free_consensus():
    g = complete_graph(4)
    net = static_network(g, 16.0)
    rng = np.random.default_rng(3)
    init = SystemState(rng.uniform(-5, 5, 4), np.zeros(4))
    trace = simulate(net, Gains(1.0, 3.0), init)
    metrics = consensus_metrics(trace)
    assert metrics.max_position_gap[-1] < 1e-6
    assert metrics.max_speed[-1] < 1e-6


def test_simulate_bounded_under_ramp():
    g = complete_graph(4)
    net = static_network(g, 10.0)
    rng = np.random.default_rng(4)
    init = SystemState(rng.uniform(-5, 5, 4), np.zeros(4))
    gains = Gains(1.0, 4.0)  # gamma = alpha * N
    attacks = (DeceptionAttack(0, 0.0, AttackSignal("ramp", slope=0.4)),)
    trace = simulate(net, gains, init, attacks)
    consts = stability_constants(4.0, 1.0, gains, 4)
    y_norm = np.linalg.norm(output_series(trace), axis=1)
    u_sup = 0.4 * 10.0
    envelope = consts.envelope(trace.t, 0.0, float(np.linalg.norm(init.stacked()))) + consts.kappa_u * u_sup
    assert np.all(y_norm <= envelope + 1e-9)
    # after the consensus transient the injected ramp keeps dragging every
    # cooperative position away from the (would-be) equilibrium
    drift = np.abs(trace.p_tilde[:, 1:]).max(axis=1)
    assert drift[-1] > 1.25 * drift[len(drift) // 2]


def test_simulate_total_dos_freezes_positions():
    g = complete_graph(3)
    net = static_network(g, 4.0)
    init = SystemState(np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.0, -0.1]))
    gains = Gains(1.0, 2.0)
    dos = DoSSchedule((DoSInterval(0.0, 4.0, dropped_edges=g.edges),))
    trace = simulate(net, gains, init, dos=dos)
    # v decays at rate gamma, positions drift to p0 + v0/gamma
    assert np.allclose(trace.v[-1], init.v * math.exp(-2.0 * 4.0), atol=1e-8)
    assert np.allclose(trace.p_tilde[-1], init.p_tilde + init.v / 2.0, atol=1e-3)


def test_simulate_step_halving_order():
    net = split_edges_alternating(random_connected_graph(np.random.default_rng(5), 5), 0.5, 2.0, 1)
    init = SystemState(np.random.default_rng(6).uniform(-5, 5, 5), np.zeros(5))
    gains = Gains(1.0, 3.0)
    coarse = simulate(net, gains, init, step_h=1e-3)
    fine = simulate(net, gains, init, step_h=5e-4)

    def final(trace):
        return np.concatenate([trace.p_tilde[-1], trace.v[-1]])

    diff = np.abs(final(coarse) - final(fine))
    assert np.max(diff) < 1e-8 * (1.0 + np.max(np.abs(final(fine))))


def test_example1_plant_is_fourth_order():
    # schedule switches and DoS bounds fall on all three grids, so the run
    # is one piecewise-smooth solution and RK4 keeps its order across them
    problem = materialize(generate_example1(0))
    for attacks in (problem.attacks, ()):
        finals = []
        for h in (1e-2, 5e-3, 2.5e-3):
            trace = simulate(
                problem.net, problem.gains, problem.initial, attacks, problem.dos,
                step_h=h, horizon=2.0,
            )
            finals.append(np.concatenate([trace.p_tilde[-1], trace.v[-1]]))
        coarse = np.max(np.abs(finals[0] - finals[1]))
        fine = np.max(np.abs(finals[1] - finals[2]))
        # 16x for a fourth-order method; both differences stay far above
        # rounding (about 2e-10 for the finer pair)
        assert coarse >= 12.0 * fine > 0.0, (len(attacks), coarse, fine)


def _stage_rk4_step(a_mat, x, b_fun, t, h):
    """Stage-form RK4 step of x' = A x + b(t), the reference for the step
    matrices."""
    b_mid = b_fun(t + 0.5 * h)
    k1 = a_mat @ x + b_fun(t)
    k2 = a_mat @ (x + 0.5 * h * k1) + b_mid
    k3 = a_mat @ (x + 0.5 * h * k2) + b_mid
    k4 = a_mat @ (x + h * k3) + b_fun(t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize(
    "signal",
    [ramp(0.8), constant(-1.5), sinusoid(2.0, 0.7, 0.3)],
    ids=["ramp", "constant", "sinusoid"],
)
def test_simulate_step_matrices_match_stage_rk4(signal):
    rng = np.random.default_rng(12)
    # 5 000 steps: longer than one block of injection samples
    net = split_edges_alternating(random_connected_graph(rng, 6), 0.5, 5.0, 4)
    init = SystemState(rng.uniform(-5, 5, 6), rng.uniform(-1, 1, 6))
    gains = Gains(1.0, 3.0)
    h = 1e-3
    # activations a quarter step past a grid point, so that the grid and the
    # stage times agree on which samples are live; agent 1 carries two
    attacks = (
        DeceptionAttack(1, 0.40025, signal),
        DeceptionAttack(4, 1.25075, ramp(-0.7)),
        DeceptionAttack(1, 2.00025, constant(0.2)),
    )
    dos = DoSSchedule((DoSInterval(0.5, 1.0, random=DoSRandomSpec(8, 0.5, 3)),))
    trace = simulate(net, gains, init, attacks, dos, step_h=h)
    n = init.node_count

    def forcing(t):
        b = np.zeros(2 * n)
        for atk in attacks:
            b[n + atk.agent] += atk.value(t)
        return b

    ref = _walk(
        net, init, attacks, dos, None, h,
        lambda edges, t, x: closed_loop_matrix(Graph(n, tuple(edges)), gains),
        per_step(lambda a_mat, x, k, u: _stage_rk4_step(a_mat, x, forcing, k * h, h)),
    )
    got = np.hstack([trace.p_tilde, trace.v])
    want = np.hstack([ref.p_tilde, ref.v])
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    assert trace.segments == ref.segments
    # the attacks move the run by far more than the tolerance
    free = simulate(net, gains, init, dos=dos, step_h=h)
    assert np.max(np.abs(free.v - trace.v)) > 1e-3


def test_simulate_builds_step_matrices_once_per_edge_set(monkeypatch):
    g = complete_graph(4)
    net = static_network(g, 4.0)
    # edge (0, 1) blinks off on [1, 2) and [3, 4): edge sets A, B, A, B
    dos = DoSSchedule(
        (
            DoSInterval(1.0, 1.0, dropped_edges=((0, 1),)),
            DoSInterval(3.0, 1.0, dropped_edges=((0, 1),)),
        )
    )
    init = SystemState(np.array([1.0, -2.0, 0.5, 0.0]), np.array([0.3, 0.0, -0.1, 0.2]))
    gains = Gains(1.0, 2.0)
    attacks = (DeceptionAttack(2, 0.5, ramp(0.4)),)
    h = 1e-3
    builds = []

    def counted(graph, gains):
        builds.append(graph.edges)
        return closed_loop_matrix(graph, gains)

    monkeypatch.setattr(dynamics, "closed_loop_matrix", counted)
    trace = simulate(net, gains, init, attacks, dos, step_h=h)
    assert [len(seg[3]) for seg in trace.segments] == [6, 5, 6, 5]
    assert builds == [g.edges, g.edges[1:]]
    # the walk that builds the step matrices on every segment and steps
    # one step at a time
    agents = _attackers(attacks)
    ref = _walk(
        net, init, attacks, dos, None, h,
        lambda edges, t, x: _plant_matrices(Graph(4, tuple(edges)), gains, agents, h),
        per_step(lambda plant, x, k, u: plant_step(plant, x, u)),
    )
    assert len(builds) == 2 + 4
    assert trace.p_tilde.tobytes() == ref.p_tilde.tobytes()
    assert trace.v.tobytes() == ref.v.tobytes()
    assert trace.segments == ref.segments


@pytest.mark.parametrize("agents", [(), (1,), (0, 3, 5), "all"], ids=["0", "1", "3", "all"])
def test_plant_matrices_match_dense_rk4(rng, agents):
    # the block-polynomial build against the dense RK4 polynomial in hA: a
    # few ulp of the largest entry apart, and G1 = h/6 I bit for bit
    gains = Gains(1.3, 2.7)
    h = 1e-3
    tol = 8 * np.finfo(float).eps
    graphs = [Graph(2, ())]
    graphs += [random_connected_graph(rng, int(rng.integers(6, 13)), 0.4) for _ in range(4)]
    for g in graphs:
        n = g.node_count
        picked = tuple(range(n)) if agents == "all" else tuple(i for i in agents if i < n)
        r, g_cols = _plant_matrices(g, gains, picked, h)
        r_ref, g0, gm = _rk4_matrices(closed_loop_matrix(g, gains), h)
        cols = [n + i for i in picked]
        g1 = np.zeros((2 * n, len(cols)))
        g1[cols, np.arange(len(cols))] = h / 6.0
        want = np.hstack([g0[:, cols], gm[:, cols], g1])
        assert r.shape == r_ref.shape
        assert g_cols.shape == want.shape
        assert np.max(np.abs(r - r_ref)) <= tol * max(1.0, np.max(np.abs(r_ref)))
        assert np.max(np.abs(g_cols - want), initial=0.0) <= tol * max(
            1.0, np.max(np.abs(want), initial=0.0)
        )
        assert g_cols[:, 2 * len(cols) :].tobytes() == g1.tobytes()


def _per_step_rows(plant, x0, U):
    """Rows of a run from ``x0`` stepped one ``np.matmul`` and one ``+=`` of
    its forcing row at a time, the reference of ``_plant_rows``."""
    r, g = plant
    forcing = np.matmul(g, U[:, :, None])[:, :, 0]
    X = np.empty((len(U) + 1, len(x0)))
    X[0] = x0
    for k, gu in enumerate(forcing):
        np.matmul(r, X[k], out=X[k + 1])
        X[k + 1] += gu
    return X


def _plant_row_cases():
    rng = np.random.default_rng(23)
    steps = 600
    gains = Gains(1.0, 3.0)
    x0 = rng.uniform(-1.0, 1.0, 12)
    x0[[0, 7]] = 0.0, -0.0
    g6 = random_connected_graph(rng, 6)
    yield "no_attackers", _plant_matrices(g6, gains, (), 1e-3), x0, np.zeros((steps, 0))
    # numpy multiplies a 1 x 1 matrix as a scalar, so R x is -0.0 of +0.0
    # on every other step, which the per-step add turns into +0.0 (BLAS
    # products of two or more states start their sums at +0.0)
    minus_identity = (-np.eye(1), np.zeros((1, 0)))
    yield "minus_identity", minus_identity, np.zeros(1), np.zeros((steps, 0))
    # products that underflow to zero give the forcing -0.0 entries on
    # fused multiply-add kernels; rows of zero samples give +0.0 ones, and
    # R's zero rows give zero states
    r = rng.uniform(-0.3, 0.3, (8, 8))
    r[:2] = 0.0
    U = np.zeros((steps, 9))
    U[::2] = 1e-200
    yield "negative_zero_forcing", (r, np.full((8, 9), -1e-200)), x0[:8], U
    # a +0.0 prefix, then an injection from within the first block on
    U = np.zeros((steps, 3))
    U[100:] = np.arange(100, steps)[:, None] * 1e-3
    yield "zero_prefix", _plant_matrices(g6, gains, (2,), 1e-3), x0, U


PLANT_ROW_CASES = list(_plant_row_cases())


@pytest.mark.parametrize("case", PLANT_ROW_CASES, ids=[c[0] for c in PLANT_ROW_CASES])
def test_plant_rows_match_per_step_matmul(case):
    _, plant, x0, U = case
    want = _per_step_rows(plant, x0, U)
    for block in (1, 3, 256):
        got = np.empty_like(want)
        got[0] = x0
        for k0 in range(0, len(U), block):
            k1 = min(k0 + block, len(U))
            assert _plant_rows(plant, got, k0, k1, U[k0:k1]) == k1
        assert got.tobytes() == want.tobytes(), block


def _peak_beyond_trace(drops):
    """tracemalloc peak of a 2 s ``simulate`` on a 60-ring whose first
    ``drops`` edges are each dropped once by DoS, less the trace's arrays."""
    n = 60
    ring = Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))
    dos = DoSSchedule(
        tuple(
            DoSInterval(0.05 + 0.09 * k, 0.05, dropped_edges=(ring.edges[k],))
            for k in range(drops)
        )
    )
    rng = np.random.default_rng(drops)
    init = SystemState(rng.uniform(-1, 1, n), np.zeros(n))
    tracemalloc.start()
    try:
        trace = simulate(static_network(ring, 2.0), Gains(1.0, 3.0), init, dos=dos, step_h=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({seg[3] for seg in trace.segments}) == drops + 1
    own = (trace.t, trace.p_tilde, trace.v, trace.mode_index, trace.dos_active)
    return peak - sum(a.nbytes for a in own)


def test_simulate_releases_step_matrices_after_last_use():
    """Every dropped edge set is used once, so its step matrices are freed
    when the walk leaves it: twice as many left behind cost no memory."""
    few, many = _peak_beyond_trace(10), _peak_beyond_trace(20)
    # one R of the 120-state ring; kept, the 10 more edge sets would hold ten
    plant_bytes = 120 * 120 * 8
    assert many - few < 2 * plant_bytes


def test_simulate_rejects_misaligned_breakpoints():
    from resilnet.graphs import SwitchingNetwork

    net = SwitchingNetwork((complete_graph(3), path_graph(3)), ((0.0, 0), (0.25e-3 + 0.5, 1)), 2.0)
    init = SystemState(np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigurationError):
        simulate(net, Gains(1.0, 1.0), init, step_h=1e-3)
    # within the grid tolerance a breakpoint switches on its nearest step,
    # from either side
    for t_switch in (0.5 - 4e-10, 0.5 + 4e-10):
        net = SwitchingNetwork((complete_graph(3), path_graph(3)), ((0.0, 0), (t_switch, 1)), 2.0)
        trace = simulate(net, Gains(1.0, 1.0), init, step_h=1e-3)
        assert trace.segments[0][:3] == (0.0, 0.5, 0)
        assert trace.mode_index[499:501].tolist() == [0, 1]


def test_dos_prefix_invariance_and_flags():
    g = complete_graph(4)
    net = static_network(g, 6.0)
    init = SystemState(np.random.default_rng(8).uniform(-3, 3, 4), np.zeros(4))
    gains = Gains(1.0, 3.0)
    dos = DoSSchedule((DoSInterval(3.0, 1.0, random=DoSRandomSpec(10, 0.5, 42)),))
    with_dos = simulate(net, gains, init, dos=dos)
    without = simulate(net, gains, init)
    k = int(3.0 / 1e-3)
    assert np.array_equal(with_dos.p_tilde[: k + 1], without.p_tilde[: k + 1])
    assert not with_dos.dos_active[: k].any()
    assert with_dos.dos_active[k + 5]
    # outside declared windows the realized edges equal the scheduled mode
    for a, b, _, edges, flag in with_dos.segments:
        if b <= 3.0 or a >= 4.0:
            assert edges == frozenset(g.edges) and not flag


def test_dos_event_scheme_drops_at_most_one_link():
    g = complete_graph(5)
    dos = DoSSchedule((DoSInterval(0.0, 2.0, random=DoSRandomSpec(20, 0.5, 7)),))
    segs = dos.realize(g.edges, math.inf)
    assert len(segs) == 20
    assert all(len(dropped) <= 1 for _, _, dropped in segs)


def test_dos_realize_stops_at_the_horizon():
    # the trials that start before the horizon draw as in the full expansion
    g = complete_graph(5)
    random = DoSInterval(0.0, 2.0, random=DoSRandomSpec(20, 0.5, 7))
    full = DoSSchedule((random,)).realize(g.edges, math.inf)
    assert DoSSchedule((random,)).realize(g.edges, 1.0) == full[:10]
    # intervals that overlap only past the horizon still overlap
    late = DoSSchedule((random, DoSInterval(1.5, 1.0, dropped_edges=((0, 1),))))
    with pytest.raises(ConfigurationError, match="overlap"):
        late.realize(g.edges, 1.0)


def test_output_vector_cases():
    """Each row of ``output_series`` is the consensus output Y = col(Q p~, v)."""
    p = np.array([[3.3] * 4, [1.0, 0.0, 0.0, 0.0], [-1.0] * 4])
    v = np.array([[0.0] * 4, [0.0] * 4, [0.5, -0.5, 0.25, 0.0]])
    trace = SimulationTrace(
        t=np.arange(3.0),
        p_tilde=p,
        v=v,
        mode_index=np.zeros(3, dtype=int),
        dos_active=np.zeros(3, dtype=bool),
        segments=(),
        step_h=1.0,
    )
    y = output_series(trace)
    assert y.shape == (3, 3 + 4)
    assert np.allclose(y[0], 0.0, atol=1e-12)
    assert np.linalg.norm(y[1]) ** 2 == pytest.approx(np.linalg.norm(p[1] - p[1].mean()) ** 2)
    assert np.linalg.norm(y[2]) == pytest.approx(np.linalg.norm(v[2]))


def test_stability_constants_formulas():
    with pytest.raises(ValueError):
        stability_constants(0.0, 1.0, Gains(1.0, 3.0), 4)
    # gamma = alpha*N, mu = N, T = 1 gives eta = -(1/2) ln(1/2)
    n = 6
    consts = stability_constants(n, 1.0, Gains(1.0, float(n)), n)
    assert consts.eta == pytest.approx(0.5 * math.log(2.0))
    assert consts.lambda_chi == pytest.approx(consts.eta * math.exp(-2 * consts.eta))
    assert 0 < consts.lambda_x < consts.lambda_chi
    c8 = stability_constants(2.0, 1.0, Gains(1.0, 3.0), 8)
    for value in (c8.eta, c8.lambda_chi, c8.lambda_x, c8.kappa_x, c8.kappa_u):
        assert np.isfinite(value) and value > 0


def test_stability_constants_small_mu_limit():
    tiny = stability_constants(1e-9, 1.0, Gains(1.0, 3.0), 5)
    assert tiny.eta == pytest.approx(0.0, abs=1e-9)
    assert tiny.lambda_chi == pytest.approx(0.0, abs=1e-9)


def test_consensus_metrics_equilibrium():
    g = complete_graph(3)
    net = static_network(g, 1.0)
    init = SystemState(np.zeros(3), np.zeros(3))
    trace = simulate(net, Gains(1.0, 1.0), init)
    metrics = consensus_metrics(trace)
    assert np.allclose(metrics.max_position_gap, 0.0, atol=1e-12)
    assert np.allclose(metrics.max_speed, 0.0, atol=1e-12)


def test_consensus_metrics_row_blocks_match_whole_array(rng, monkeypatch):
    monkeypatch.setattr(dynamics, "_METRIC_CELLS", 64)
    n = 5
    # more than two row blocks of every column count used, a multiple of none
    rows = 2 * (64 // 3) + 5
    p = rng.normal(size=(rows, n))
    v = rng.normal(size=(rows, n))
    p[3, 1], p[30, 4], v[7, 0], v[40, 2], v[11, 3] = np.nan, -0.0, -np.inf, np.nan, -0.0
    trace = SimulationTrace(
        t=np.arange(rows) * 0.5,
        p_tilde=p,
        v=v,
        mode_index=np.zeros(rows, dtype=int),
        dos_active=np.zeros(rows, dtype=bool),
        segments=(),
        step_h=0.5,
    )
    for cooperative in (None, {4, 0, 2}):
        idx = list(range(n)) if cooperative is None else sorted(cooperative)
        assert rows > 2 * (64 // len(idx)) and rows % (64 // len(idx))
        metrics = consensus_metrics(trace, cooperative)
        gap = p[:, idx].max(axis=1) - p[:, idx].min(axis=1)
        speed = np.abs(v[:, idx]).max(axis=1)
        assert metrics.max_position_gap.tobytes() == gap.tobytes()
        assert metrics.max_speed.tobytes() == speed.tobytes()
        final = reports._final_consensus(trace, idx)
        assert final == {"final_consensus_gap": gap[-1], "final_max_speed": speed[-1]}


@settings(max_examples=15)
@given(st.integers(0, 500))
def test_attack_free_exponential_envelope(seed):
    """Prop-2 style output envelope holds on PE-connected attack-free runs
    with gamma = alpha * N."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    net = split_edges_alternating(random_connected_graph(rng, n, 0.6), 0.5, 6.0, seed)
    report = pe_margin(net, 1.0)
    if report.mu <= 0:
        return
    gains = Gains(1.0, float(n))
    init = SystemState(rng.uniform(-5, 5, n), np.zeros(n))
    trace = simulate(net, gains, init)
    consts = stability_constants(report.mu, 1.0, gains, n)
    y_norm = np.linalg.norm(output_series(trace), axis=1)
    envelope = consts.envelope(trace.t, 0.0, float(np.linalg.norm(init.stacked())))
    assert np.all(y_norm <= envelope * (1.0 + 1e-9))


def test_realized_disconnection_time():
    g1 = Graph(3, ((0, 1), (1, 2)))
    net = static_network(g1, 4.0)
    init = SystemState(np.zeros(3), np.zeros(3))
    dos = DoSSchedule((DoSInterval(1.0, 0.5, dropped_edges=((0, 1), (1, 2))),))
    trace = simulate(net, Gains(1.0, 1.0), init, dos=dos)
    assert realized_disconnection_time(trace, 1.0) == pytest.approx(0.5, abs=1e-9)
    clean = simulate(net, Gains(1.0, 1.0), init)
    assert realized_disconnection_time(clean, 1.0) == 0.0
    # the segments it sums tile the run exactly
    p = materialize(generate_example1(0))
    trace = simulate(p.net, p.gains, p.initial, p.attacks, p.dos, p.step_h, p.horizon)
    bounds = [seg[:2] for seg in trace.segments]
    assert all(b == a for (_, b), (a, _) in zip(bounds, bounds[1:]))
    assert bounds[0][0] == 0.0 and bounds[-1][1] == trace.t[-1]


def _float_edge_timeline(net, dos, horizon, step_h):
    """``build_edge_timeline`` as it was in float time: cuts at the schedule
    breakpoints and the snapped DoS bounds, each entry's mode and DoS
    sub-interval looked up at its midpoint, the latter within 1e-12."""
    union_edges = set()
    for g in net.modes:
        union_edges.update(g.edges)
    drops = dos.realize(sorted(union_edges), horizon) if dos is not None else ()
    cuts = {0.0, horizon}
    cuts.update(t for t, _ in net.schedule if t < horizon)
    for a, b, _ in drops:
        for x in (a, b):
            snapped = round(x / step_h) * step_h
            if 0.0 < snapped < horizon:
                cuts.add(snapped)
    cuts = sorted(cuts)
    times = [t for t, _ in net.schedule]
    timeline = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        mode = net.schedule[max(bisect_right(times, mid) - 1, 0)][1]
        edges = set(net.modes[mode].edges)
        dos_now = False
        for d0, d1, dropped in drops:
            if d0 - 1e-12 <= mid <= d1 + 1e-12:
                dos_now = True
                edges -= dropped
                break
        timeline.append((a, b, mode, frozenset(edges), dos_now))
    return tuple(timeline)


def _segment_realized_disconnection_time(trace, window):
    """``realized_disconnection_time`` as it was: one eigensolve per
    segment, and every disconnected segment summed for every window."""
    disconnected = []
    n = trace.node_count
    for t0, t1, _, edges, _ in trace.segments:
        if algebraic_connectivity(laplacian(Graph(n, tuple(edges)))) <= 0.0:
            disconnected.append((t0, t1))
    if not disconnected:
        return 0.0
    starts = [max(0.0, seg[0] - window) for seg in disconnected] + [
        seg[0] for seg in disconnected
    ]
    worst = 0.0
    horizon = trace.t[-1]
    for t in starts:
        t = min(max(t, 0.0), max(horizon - window, 0.0))
        total = sum(
            max(0.0, min(t + window, b) - max(t, a)) for a, b in disconnected
        )
        worst = max(worst, total)
    return worst


def _random_dos(rng, horizon, h, edges):
    """Explicit and random DoS intervals at off-grid bounds, some shorter
    than a step, with random trials shorter than a step and intervals that
    start where the previous one ends."""
    intervals = []
    t = rng.uniform(0.0, 0.2 * horizon)
    while t < horizon:
        if rng.random() < 0.5:
            sub_step = rng.random() < 0.3
            duration = rng.uniform(0.05, 0.95) * h if sub_step else rng.uniform(h, 0.3 * horizon)
            size = min(len(edges), int(rng.integers(1, 4)))
            picks = rng.choice(len(edges), size=size, replace=False)
            dropped = tuple(edges[int(p)] for p in picks)
            intervals.append(DoSInterval(t, duration, dropped_edges=dropped))
        else:
            trials = int(rng.integers(1, 40))
            dt = rng.uniform(0.2, 0.95) * h if rng.random() < 0.4 else rng.uniform(h, 5 * h)
            spec = DoSRandomSpec(trials, rng.uniform(0.3, 1.0), int(rng.integers(2**31)))
            intervals.append(DoSInterval(t, trials * dt, random=spec))
            duration = trials * dt
        gap = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.2 * horizon)
        t = t + duration + gap
    return DoSSchedule(tuple(intervals))


def _random_timeline_case(rng):
    """A switching network on the 0.01 grid, a DoS document for it and a
    walk of a whole number of steps no longer than the network."""
    h = 0.01
    n = int(rng.integers(3, 7))
    modes = tuple(
        random_connected_graph(rng, n, rng.uniform(0.0, 0.7))
        for _ in range(int(rng.integers(1, 4)))
    )
    steps = int(rng.integers(20, 400))
    grid = np.arange(1, steps + 40)
    cuts = sorted(rng.choice(grid, size=int(rng.integers(0, 12)), replace=False))
    schedule = [(0.0, int(rng.integers(len(modes))))]
    schedule += [(int(k) * h, int(rng.integers(len(modes)))) for k in cuts]
    net = SwitchingNetwork(modes, tuple(schedule), (steps + 40) * h)
    union = sorted(set().union(*(g.edges for g in modes)) | {(0, n - 1)})
    return net, _random_dos(rng, steps * h, h, union), steps, h


def _per_step(entries, steps, to_step):
    """Each step's (mode, edges, dos flag) from timeline entries."""
    out = [None] * steps
    for a, b, mode, edges, flag in entries:
        for k in range(to_step(a), to_step(b)):
            out[k] = (mode, edges, flag)
    return out


def test_step_timeline_matches_float_timeline(rng):
    for _ in range(120):
        net, dos, steps, h = _random_timeline_case(rng)
        got = build_edge_timeline(net, dos, steps, h)
        want = _float_edge_timeline(net, dos, steps * h, h)
        # the entries tile the steps, and each one begins at a float cut
        assert got[0][0] == 0 and got[-1][1] == steps
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
        assert all(k0 < k1 for k0, k1, *_ in got)
        assert {k0 for k0, *_ in got} <= {round(a / h) for a, *_ in want}
        assert _per_step(got, steps, int) == _per_step(want, steps, lambda t: round(t / h))
        assert got[-1][2:] == want[-1][2:]


def test_timeline_entries_share_equal_edge_sets():
    # two alternating modes, and random trials that blink single links off
    # and on again
    net = split_edges_alternating(complete_graph(6), 0.5, 3.0, 4)
    dos = DoSSchedule((DoSInterval(0.2, 2.4, random=DoSRandomSpec(40, 0.6, 5)),))
    edge_sets = [edges for *_, edges, _ in build_edge_timeline(net, dos, 3000, 1e-3)]
    assert len(set(edge_sets)) < len(edge_sets)
    assert len({id(edges) for edges in edge_sets}) == len(set(edge_sets))


def test_realized_disconnection_time_matches_per_segment_sum(rng):
    gains = Gains(1.0, 2.0)
    for _ in range(40):
        net, dos, steps, h = _random_timeline_case(rng)
        n = net.node_count
        init = SystemState(rng.uniform(-1, 1, n), np.zeros(n))
        trace = simulate(net, gains, init, dos=dos, step_h=h, horizon=steps * h)
        for window in (0.05, 0.5, steps * h, 2.0 * steps * h):
            got = realized_disconnection_time(trace, window)
            want = _segment_realized_disconnection_time(trace, window)
            assert float(got).hex() == float(want).hex()


def test_step_stability_check_matches_a_dense_scan(rng):
    # the check evaluates |P(h s)| at a few points per root branch; a dense
    # scan of lambda over [0, lambda_max] agrees with it on gains drawn
    # across the boundary of RK4's stability region
    net = split_edges_alternating(complete_graph(6), 0.5, 3.0, 4)
    rk4 = np.polynomial.Polynomial([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24])
    lam = np.linspace(0.0, 6.0, 20001)  # the union is K6: lambda_max = 6
    verdicts = set()
    for _ in range(300):
        gains = Gains(10 ** rng.uniform(-1.0, 7.0), 10 ** rng.uniform(-2.0, 4.0))
        root = np.sqrt(gains.gamma**2 - 4.0 * gains.alpha * lam + 0j)
        s = np.concatenate([-gains.gamma + root, -gains.gamma - root]) / 2.0
        # the consensus mode, s = 0 at lambda = 0, is the one on |P| = 1
        worst = np.abs(rk4(1e-3 * s[s != 0])).max()
        if abs(worst - 1.0) < 1e-6:
            continue
        try:
            check_step_stability(net, gains, 1e-3)
            stable = True
        except ConfigurationError as exc:
            assert "stability region" in str(exc)
            stable = False
        assert stable == (worst <= 1.0), (gains, worst)
        verdicts.add(stable)
    assert verdicts == {True, False}
