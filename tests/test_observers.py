import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from resilnet.dynamics import Gains, StabilityConstants, SystemState, simulate
from resilnet.errors import ConfigurationError, DesignFailureError
from resilnet.graphs import (
    Graph,
    _laplacian,
    complete_graph,
    khop_neighbors,
    path_graph,
    star_graph,
    static_network,
)
from resilnet.observers import (
    ObserverGain,
    ObserverState,
    ThresholdRule,
    _lyapunov,
    _view_key,
    decay_envelope,
    design_gain,
    gain_matrix,
    make_record,
    pbh_observability,
    two_hop_view,
    validate_envelope,
    view_members,
)
from resilnet.scenarios import (
    generate_example2,
    materialize,
    random_connected_graph,
    split_edges_alternating,
)
from resilnet.stealth import view_coupling

GAINS = Gains(1.0, 3.0)


def _velocity_coupling(g, view, p):
    """The velocity rows of rho at positions ``p``.  The model carries each
    member's velocity and damping term, so rho's position rows vanish and
    no velocity enters its velocity rows."""
    v = np.linspace(-1.0, 1.0, g.node_count)
    rho = view_coupling(g, view, p, v)
    assert np.array_equal(rho[: view.size], np.zeros(view.size))
    return rho[view.size :]


def test_two_hop_view_complete_graph(rng):
    g = complete_graph(5)
    view = two_hop_view(g, 2, GAINS)
    assert view.members[0] == 2
    assert set(view.members) == set(range(5))
    # every edge is modeled: no unknown coupling, whatever the state
    rho = view_coupling(g, view, rng.uniform(-2, 2, 5), rng.uniform(-1, 1, 5))
    assert np.allclose(rho, 0.0, atol=1e-12)


def test_two_hop_view_path_coupling_structure():
    # path 0-1-2-3-4 seen from node 0: members {0,1,2}; the unknown
    # coupling enters through edge (2,3) only
    g = path_graph(5)
    gains = Gains(2.5, 3.0)
    view = two_hop_view(g, 0, gains)
    assert view.members == (0, 1, 2)
    p = np.array([0.3, -1.1, 0.7, 2.0, -4.0])
    want = np.zeros(3)
    want[view.member_index(2)] = gains.alpha * (p[3] - p[2])
    assert np.allclose(_velocity_coupling(g, view, p), want, atol=1e-12)


def test_two_hop_view_star_hub_sees_all():
    view = two_hop_view(star_graph(6), 0, GAINS)
    assert set(view.members) == set(range(6))


def _edge_set_families(rng, count):
    """(n, edge sets) of ``count`` random networks: the edge sets of their
    switching modes, of each with one link dropped (a DoS trial) and with
    random links removed (isolations)."""
    for _ in range(count):
        n = int(rng.integers(3, 16))
        overlay = random_connected_graph(rng, n, rng.uniform(0.1, 0.8))
        net = split_edges_alternating(overlay, 0.5, 4.0, int(rng.integers(2**31)))
        graphs = []
        for mode in net.modes:
            graphs.append(mode)
            graphs += [mode.drop_edges([e]) for e in mode.edges]
            for _ in range(3):
                cut = rng.random(len(mode.edges)) < rng.uniform(0.1, 0.5)
                graphs.append(mode.drop_edges([e for e, c in zip(mode.edges, cut) if c]))
        yield n, graphs


def _reference_model(g, owner):
    """The 2-hop model by its definition over the whole graph: the owner,
    then its 1-hop and 2-hop neighbors sorted; the edges of ``g`` with both
    ends among them, except those between two strictly-2-hop nodes."""
    one = khop_neighbors(g, owner, 1)
    members = (owner, *sorted((one | khop_neighbors(g, owner, 2)) - {owner}))
    index = {v: k for k, v in enumerate(members)}
    two_only = set(members) - {owner} - one
    edges = [
        (index[u], index[w])
        for u, w in g.edges
        if u in index and w in index and not (u in two_only and w in two_only)
    ]
    m = len(members)
    a_model = np.block(
        [
            [np.zeros((m, m)), np.eye(m)],
            [-GAINS.alpha * _laplacian(m, edges), -GAINS.gamma * np.eye(m)],
        ]
    )
    return members, a_model


def test_two_hop_view_matches_whole_graph_definition(rng):
    # the view read off the local edge set is the model defined over every
    # edge of the graph, bit for bit, on every owner of every edge set
    isolated = 0
    for n, graphs in _edge_set_families(rng, 40):
        for g in graphs:
            for owner in range(n):
                members, a_model = _reference_model(g, owner)
                view = two_hop_view(g, owner, GAINS)
                assert view.members == view_members(g, owner) == members
                assert view.a_model.tobytes() == a_model.tobytes()
                isolated += not g.neighbors(owner)
    assert isolated > 0


def test_view_key_is_exact(rng):
    # for every owner, two edge sets share a key exactly when their views
    # are equal
    shared = distinct = 0
    for n, graphs in _edge_set_families(rng, 40):
        for owner in range(n):
            views, edge_sets = {}, {}
            for g in graphs:
                view = two_hop_view(g, owner, GAINS)
                value = (view.members, view.a_model.tobytes(), view.c_meas.tobytes())
                key = _view_key(g, owner)
                views.setdefault(key, set()).add(value)
                edge_sets.setdefault(key, set()).add(g.edges)
            assert all(len(values) == 1 for values in views.values())
            assert len(set.union(*views.values())) == len(views)
            shared += sum(len(e) > 1 for e in edge_sets.values())
            distinct += len(views) > 1
    # keys shared by different edge sets, and owners with several keys
    assert shared > 100 and distinct > 100


def test_pbh_observability_cases(rng):
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 9)))
        owner = int(rng.integers(0, g.node_count))
        assert pbh_observability(two_hop_view(g, owner, GAINS))
    # isolated owner still observes its own position and velocity
    lonely = Graph(4, ((1, 2), (2, 3)))
    assert pbh_observability(two_hop_view(lonely, 0, GAINS))


def test_pbh_fails_with_ablated_measurements():
    # measuring only the owner's position cannot separate exchangeable
    # neighbors (any view with a symmetry fixing the owner)
    view = two_hop_view(complete_graph(4), 0, GAINS)
    crippled_c = np.zeros((1, 2 * view.size))
    crippled_c[0, 0] = 1.0  # owner position only
    from dataclasses import replace

    ablated = replace(view, c_meas=crippled_c)
    assert not pbh_observability(ablated)


def test_decay_envelope_scalar_and_symmetric():
    kappa, lam = decay_envelope(np.array([[-1.0]]))
    assert (kappa, lam) == (pytest.approx(1.0), pytest.approx(1.0))
    p = scipy.linalg.solve_continuous_lyapunov(np.array([[-1.0]]).T, -np.eye(1))
    assert p[0, 0] == pytest.approx(0.5)
    sym = np.diag([-0.5, -2.0, -3.0])
    kappa, lam = decay_envelope(sym)
    assert kappa == pytest.approx(1.0)
    assert lam == pytest.approx(0.5)
    with pytest.raises(Exception):
        decay_envelope(np.array([[1.0]]))


def _scipy_envelope(a):
    """P from scipy's Bartels-Stewart solver and the envelope it yields."""
    p = scipy.linalg.solve_continuous_lyapunov(a.T, -np.eye(a.shape[0]))
    eigs = np.linalg.eigvalsh(0.5 * (p + p.T))
    return p, np.sqrt(eigs[-1] / eigs[0]), 1.0 / (2.0 * eigs[-1])


def _assert_lyapunov_matches_scipy(a):
    p_ref, kappa_ref, lambda_ref = _scipy_envelope(a)
    p = _lyapunov(a)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    kappa, lam = decay_envelope(a)
    assert kappa == pytest.approx(kappa_ref, rel=1e-12, abs=0)
    assert lam == pytest.approx(lambda_ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("coupling", [0.0, 1.0, 3.0])
def test_lyapunov_matches_scipy_random(rng, coupling):
    """Dense shifted Gaussian matrices (coupling 0) and Schur forms -D + c T /
    sqrt(n) with T strictly upper triangular, rotated by a random orthogonal
    Q; at c = 3 kappa_e reaches about 100, a strongly non-normal A."""
    for n in [*range(1, 13), 20, 30, 45, 60, 75, 90]:
        if coupling == 0.0:
            m = rng.standard_normal((n, n))
            shift = np.max(np.linalg.eigvals(m).real) + rng.uniform(0.1, 1.0)
            a = m - shift * np.eye(n)
        else:
            t = np.triu(rng.standard_normal((n, n)), 1) * coupling / np.sqrt(n)
            t -= np.diag(rng.uniform(0.5, 3.0, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q @ t @ q.T
        _assert_lyapunov_matches_scipy(a)


def test_lyapunov_matches_scipy_on_example2_views():
    """Every observer matrix a_model - H c_meas of example2's seed-0 modes
    (orders 14 to 90)."""
    problem = materialize(generate_example2(0))
    orders = set()
    for g in problem.net.modes:
        for owner in range(g.node_count):
            view = two_hop_view(g, owner, problem.gains)
            a_bar = view.a_model - design_gain(view).h_matrix @ view.c_meas
            orders.add(a_bar.shape[0])
            _assert_lyapunov_matches_scipy(a_bar)
    assert max(orders) >= 80


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 5.0], [0.0, -1.0]],  # one eigenvalue in the right half plane
        [[1.0, 5.0], [0.0, 2.0]],  # both
        [[0.0, 4.0], [-1.0, 0.0]],  # +-2i, on the imaginary axis
        [[0.0, 1.0], [0.0, -1.0]],  # singular
    ],
)
def test_decay_envelope_rejects_non_hurwitz_non_normal(a):
    with pytest.raises(DesignFailureError):
        decay_envelope(np.array(a))


def test_design_gain_certifies_envelope(rng):
    g = random_connected_graph(rng, 6)
    view = two_hop_view(g, 0, GAINS)
    gain = design_gain(view)
    a_bar = view.a_model - gain.h_matrix @ view.c_meas
    assert gain.spectral_abscissa <= -0.1 + 1e-12
    ok, worst = validate_envelope(a_bar, gain, points=500)
    assert ok, f"envelope violated by {worst}"


def test_gain_matrix_structure():
    view = two_hop_view(complete_graph(4), 1, GAINS)
    h = gain_matrix(view, 0.5)
    m = view.size
    assert np.count_nonzero(h[:m]) == 0
    block = h[m:, :m]
    assert np.allclose(block, block.T)
    assert np.all(np.linalg.eigvalsh(block) > 0)
    assert h[m, m] == pytest.approx(0.5)


def _make_observer(g, owner, w=10.0):
    view = two_hop_view(g, owner, GAINS)
    gain = design_gain(view)
    return ObserverState(view, gain, w, 0.0)


def test_observer_zero_residual_at_truth():
    # complete graph: no coupling, no attack; start at the true state
    g = complete_graph(4)
    net = static_network(g, 2.0)
    rng = np.random.default_rng(0)
    init = SystemState(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
    trace = simulate(net, GAINS, init)
    obs = _make_observer(g, 0)
    obs.x_hat = obs.view.member_state(init.p_tilde, init.v)
    h = trace.step_h
    worst = 0.0
    for k in range(500):
        y0 = obs.view.measure(trace.p_tilde[k], trace.v[k])
        y1 = obs.view.measure(trace.p_tilde[k + 1], trace.v[k + 1])
        obs.step(y0, h, y1)
        worst = max(worst, np.abs(obs.residual(y1)).max())
    # midpoint measurements are interpolated, so tracking is exact only to
    # the interpolation order
    assert worst < 1e-6


def test_observer_reinit_masking():
    g = path_graph(5)
    obs = _make_observer(g, 0)
    y = np.array([1.0, 2.0, 3.0, 0.7])
    obs.reinit(y, 5.0)
    m = obs.view.size
    assert np.allclose(obs.x_hat[:m], [1.0, 2.0, 3.0])
    assert obs.x_hat[m] == pytest.approx(0.7)  # owner velocity copied
    assert np.allclose(obs.x_hat[m + 1 :], 0.0)  # others zeroed
    assert np.allclose(obs.residual(y)[: m], 0.0, atol=1e-12)


def test_observer_remap_preserves_residual_signature():
    g = complete_graph(5)
    obs = _make_observer(g, 0)
    rng = np.random.default_rng(1)
    obs.x_hat = rng.uniform(-1, 1, 2 * obs.view.size)
    p = rng.uniform(-1, 1, 5)
    v = rng.uniform(-1, 1, 5)
    y_before = obs.view.measure(p, v)
    res_before = obs.residual(y_before)
    # drop node 4 from the graph: membership shrinks, estimates carry over
    g2 = complete_graph(5).drop_edges([(i, 4) for i in range(4)])
    view2 = two_hop_view(g2, 0, GAINS)
    gain2 = design_gain(view2)
    obs.remap(view2, gain2, view2.measure(p, v), 1.0)
    res_after = obs.residual(view2.measure(p, v))
    kept = [j for j in view2.members]
    for node in kept:
        i_new = view2.members.index(node)
        i_old = (0, 1, 2, 3, 4).index(node)
        assert res_after[i_new] == pytest.approx(res_before[i_old])
    # re-entry within the grace period restores the cached position
    # estimate (the residual signature); the velocity estimate restarts
    cached_p = obs._departed[4][0]
    view3 = two_hop_view(complete_graph(5), 0, GAINS)
    obs.remap(view3, design_gain(view3), view3.measure(p, v), 1.4)
    i4 = view3.members.index(4)
    assert obs.x_hat[i4] == pytest.approx(cached_p)
    assert obs.x_hat[view3.size + i4] == 0.0


def test_observer_step_detects_ramp():
    g = complete_graph(4)
    net = static_network(g, 8.0)
    rng = np.random.default_rng(2)
    init = SystemState(rng.uniform(-1, 1, 4), np.zeros(4))
    from resilnet.dynamics import AttackSignal, DeceptionAttack

    attacks = (DeceptionAttack(2, 0.0, AttackSignal("ramp", slope=0.5)),)
    trace = simulate(net, GAINS, init, attacks)
    obs = _make_observer(g, 0)
    h = trace.step_h
    y0 = obs.view.measure(trace.p_tilde[0], trace.v[0])
    obs.reinit(y0, 0.0)
    obs.step(y0, h)
    crossed = None
    for k in range(1, len(trace.t) - 1):
        y_start = obs.view.measure(trace.p_tilde[k], trace.v[k])
        y_end = obs.view.measure(trace.p_tilde[k + 1], trace.v[k + 1])
        obs.step(y_start, h, y_end)
        residual = obs.residual(y_end)
        if abs(residual[obs.view.member_index(2)]) > 0.95:
            crossed = trace.t[k + 1]
            break
    assert crossed is not None and crossed < 8.0


def test_residual_threshold_formula():
    # kappa_e = 2, lambda_e = 1 and kappa_r = kappa_x kappa_e alpha = 3, with
    # the model changed at t_k = 2
    view = two_hop_view(complete_graph(3), 0, GAINS)
    gain = ObserverGain(gain_matrix(view, 1.0), kappa_e=2.0, lambda_e=1.0, spectral_abscissa=None)
    obs = ObserverState(view, gain, w_budget=0.5, t0=2.0)
    consts = StabilityConstants(
        eta=1.0, lambda_chi=1.0, lambda_x=0.1, kappa_x=1.5, kappa_u=1.0, mu=1.0,
        window_T=1.0, n_agents=3,
    )
    rule = ThresholdRule(kind="analytic")
    eps0 = rule.evaluate(2.0, obs, t0=0.0, x0_norm=4.0, consts=consts)
    assert eps0 == pytest.approx(2.0 * 0.5)  # t = t_k: only the restart term
    eps_inf = rule.evaluate(60.0, obs, t0=0.0, x0_norm=4.0, consts=consts)
    want = 3.0 / 1.0 * 4.0 * np.exp(-0.1 * 2.0)
    assert eps_inf == pytest.approx(want, rel=1e-6)
    with pytest.raises(ValueError):
        rule.evaluate(1.0, obs, t0=0.0, x0_norm=4.0, consts=consts)


def test_threshold_rule_overrides():
    rule = ThresholdRule(kind="constant", value=0.95)
    assert rule.evaluate(3.0, obs=None) == 0.95
    # every rule's bound starts at t0
    with pytest.raises(ValueError, match="t_k >= t0"):
        rule.evaluate(-1.0, obs=None)
    exp_rule = ThresholdRule(kind="exponential", amplitude=10.0, rate=1.0, offset=0.95)
    assert exp_rule.evaluate(0.0, obs=None) == pytest.approx(10.95)
    assert exp_rule.evaluate(50.0, obs=None) == pytest.approx(0.95, abs=1e-6)
    with pytest.raises(ValueError):
        ThresholdRule(kind="quadratic")
    with pytest.raises(ConfigurationError):
        ThresholdRule(kind="analytic").evaluate(1.0, obs=None, consts=None)


def test_threshold_rule_rejects_non_finite():
    # |r| > nan is never true, so a NaN threshold would silently disable detection
    for name in ("value", "amplitude", "rate", "offset"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=name):
                ThresholdRule(kind="exponential", **{name: bad})


def test_hypothesis_test_strict_and_sticky():
    again = make_record(
        t=2.0, owner=0, neighbors=(1, 2, 3),
        residuals=(0.0, 0.0, 0.0), thresholds=(0.95,) * 3, flagged=frozenset({2}),
    )
    assert again.verdicts == ("null", "attacked", "null")


@settings(max_examples=10)
@given(st.integers(0, 200))
def test_pbh_random_modes(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(4, 8)))
    for owner in range(g.node_count):
        assert pbh_observability(two_hop_view(g, owner, GAINS))


def test_observer_dimension_mismatch():
    obs = _make_observer(complete_graph(4), 1)
    with pytest.raises(ConfigurationError):
        obs.residual(np.zeros(3))


def test_observer_error_envelope_under_bounded_attack():
    """With a bounded injection and certified decay constants, the sampled
    estimation error stays below the finite-gain envelope
    kappa_e |e0| e^{-lambda_e t} + ((1 + kappa_r)/lambda_e) sup|u| (1 - e^{-lambda_e t})
    (complete graph: the coupling term is structurally absent)."""
    from resilnet.dynamics import AttackSignal, DeceptionAttack, stability_constants

    g = complete_graph(4)
    net = static_network(g, 6.0)
    rng = np.random.default_rng(11)
    init = SystemState(rng.uniform(-2, 2, 4), np.zeros(4))
    u_const = 0.8
    attacks = (DeceptionAttack(2, 0.0, AttackSignal("constant", value=u_const)),)
    trace = simulate(net, GAINS, init, attacks)
    view = two_hop_view(g, 0, GAINS)
    gain = design_gain(view)
    consts = stability_constants(4.0, 1.0, GAINS, 4)
    kappa_r = GAINS.alpha * consts.kappa_x * gain.kappa_e
    obs = ObserverState(view, gain, w_budget=10.0, t0=0.0)
    obs.reinit(view.measure(init.p_tilde, init.v), 0.0)
    e0 = np.linalg.norm(view.member_state(init.p_tilde, init.v) - obs.x_hat)
    h = trace.step_h
    for k in range(len(trace.t) - 1):
        y0 = obs.view.measure(trace.p_tilde[k], trace.v[k])
        y1 = obs.view.measure(trace.p_tilde[k + 1], trace.v[k + 1])
        obs.step(y0, h, y1)
        t = trace.t[k + 1]
        err = np.linalg.norm(
            view.member_state(trace.p_tilde[k + 1], trace.v[k + 1]) - obs.x_hat
        )
        decay = np.exp(-gain.lambda_e * t)
        bound = gain.kappa_e * e0 * decay + (1 + kappa_r) / gain.lambda_e * u_const * (
            1 - decay
        )
        assert err <= bound * (1 + 1e-9)
