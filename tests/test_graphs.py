import itertools
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resilnet.errors import CapabilityError, ConfigurationError
from resilnet import graphs
from resilnet.graphs import (
    ZERO_TOL,
    Graph,
    SwitchingNetwork,
    algebraic_connectivity,
    adversary_classification,
    check_bound_chain,
    complete_graph,
    generate_r_robust_preferential,
    khop_neighbors,
    laplacian,
    path_graph,
    pe_margin,
    projection_matrix,
    r_robustness,
    remove_nodes,
    star_graph,
    static_network,
    vertex_connectivity,
    _window_pieces,
    _window_starts,
)
from resilnet.scenarios import (
    build_network,
    generate_example2,
    random_connected_graph,
    split_edges_alternating,
)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(3, ((0, 5),))


def test_laplacian_path3():
    lap = laplacian(path_graph(3))
    assert np.array_equal(lap, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))


def test_laplacian_complete_lambda2_equals_n():
    for n in (3, 5, 8):
        lam2 = algebraic_connectivity(laplacian(complete_graph(n)))
        assert lam2 == pytest.approx(n, abs=1e-9)


def test_laplacian_empty_edges_zero_matrix():
    g = Graph(4, ())
    assert np.count_nonzero(laplacian(g)) == 0
    assert algebraic_connectivity(laplacian(g)) == 0.0


@given(st.integers(min_value=4, max_value=11), st.integers(0, 10_000))
def test_laplacian_invariants_random(n, seed):
    g = random_connected_graph(np.random.default_rng(seed), n)
    lap = laplacian(g)
    assert np.allclose(lap @ np.ones(n), 0.0, atol=1e-12)
    vals = np.linalg.eigvalsh(lap)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] <= n + 1e-9
    assert algebraic_connectivity(lap) > 0  # connected by construction


def test_projection_matrix_small_cases():
    q2 = projection_matrix(2)
    assert np.allclose(np.abs(q2), np.array([[1, 1]]) / math.sqrt(2), atol=1e-12)
    q3 = projection_matrix(3)
    expected = np.array(
        [[1 / math.sqrt(2), -1 / math.sqrt(2), 0],
         [1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6)]]
    )
    assert np.allclose(np.abs(q3), np.abs(expected), atol=1e-12)


@given(st.integers(min_value=2, max_value=40))
def test_projection_matrix_identities(n):
    q = projection_matrix(n)
    assert np.allclose(q @ np.ones(n), 0.0, atol=1e-12)
    assert np.allclose(q @ q.T, np.eye(n - 1), atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(n) - np.ones((n, n)) / n, atol=1e-12)
    spectrum = np.sort(np.linalg.eigvalsh(q.T @ q))
    assert spectrum[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(spectrum[1:], 1.0, atol=1e-12)


def test_projection_matrix_rejects_small_n():
    with pytest.raises(ValueError):
        projection_matrix(1)


def _scan_mode_at(net, t):
    """The mode active at t by a linear scan of the schedule, the first
    scheduled mode for t < 0."""
    mode = net.schedule[0][1]
    for start, m in net.schedule:
        if start > t:
            break
        mode = m
    return mode


def _scan_segments(net, t0, t1):
    """``(start, end, mode)`` pieces covering [t0, t1], by linear scans."""
    cuts = [t0] + [t for t, _ in net.schedule if t0 < t < t1] + [t1]
    return [(a, b, _scan_mode_at(net, a)) for a, b in itertools.pairwise(cuts) if b > a]


def _window_mean(net, build, t, window):
    """(1/T) * integral over [t, t+T] of ``build(mode)``, summed segment by
    segment."""
    n = net.node_count
    acc = np.zeros((n, n))
    for a, b, m in _scan_segments(net, t, t + window):
        acc += (b - a) * build(net.modes[m])
    return acc / window


def _adjacency(g):
    """The 0/1 adjacency matrix of ``g``, one edge at a time."""
    a = np.zeros((g.node_count, g.node_count))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def integral_laplacian(net, t, window):
    """Duration-weighted mean Laplacian (1/T) * integral of L_sigma over
    [t, t+T]: symmetric PSD with zero row sums."""
    return _window_mean(net, laplacian, t, window)


def test_integral_laplacian_single_mode():
    net = static_network(path_graph(4), 5.0)
    assert np.allclose(integral_laplacian(net, 1.0, 2.0), laplacian(path_graph(4)))


def test_integral_laplacian_two_modes_mean():
    g1, g2 = path_graph(4), star_graph(4)
    net = SwitchingNetwork((g1, g2), ((0.0, 0), (1.0, 1)), 2.0)
    want = 0.5 * (laplacian(g1) + laplacian(g2))
    assert np.allclose(integral_laplacian(net, 0.0, 2.0), want, atol=1e-12)


def test_disconnected_modes_connected_in_integral_sense():
    # each mode alone is disconnected; their union is a path
    g1 = Graph(4, ((0, 1), (2, 3)))
    g2 = Graph(4, ((1, 2),))
    sched = tuple((0.5 * k, k % 2) for k in range(8))
    net = SwitchingNetwork((g1, g2), sched, 4.0)
    assert algebraic_connectivity(laplacian(g1)) == 0.0
    lbar = integral_laplacian(net, 0.0, 1.0)
    assert algebraic_connectivity(lbar) > 0.0
    assert pe_margin(net, 1.0).mu > 0.0


def test_pe_margin_static_connected_equals_lambda2():
    g = complete_graph(5)
    report = pe_margin(static_network(g, 4.0), 1.0)
    assert report.mu == pytest.approx(5.0, abs=1e-9)
    assert report.lambda2_integral == pytest.approx(5.0, abs=1e-9)
    assert report.effective_graph.edges == g.edges
    # no window longer than the horizon
    with pytest.raises(ConfigurationError, match="shorter than the PE window"):
        pe_margin(static_network(g, 4.0), 4.5)


def test_pe_margin_static_disconnected_zero():
    g = Graph(4, ((0, 1), (2, 3)))
    report = pe_margin(static_network(g, 4.0), 1.0)
    assert report.mu == 0.0


@given(st.integers(0, 5_000))
def test_pe_margin_spectral_equivalence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    net = split_edges_alternating(
        random_connected_graph(rng, n), 0.5, 4.0, int(rng.integers(0, 2**31))
    )
    report = pe_margin(net, 1.0)
    assert report.equivalence_gap < 1e-9


def _lambda2(lap):
    """``algebraic_connectivity`` as one eigensolve and one SVD of one matrix."""
    lam2 = float(np.linalg.eigvalsh(lap)[1])
    scale = max(1.0, float(np.linalg.norm(lap, 2)))
    return 0.0 if abs(lam2) <= ZERO_TOL * scale else lam2


def _grid_window_starts(net, window):
    """The window starts before they were cut down to the breakpoint set: a
    uniform 100-point grid plus every breakpoint and breakpoint - T, clamped."""
    last = max(net.horizon - window, 0.0)
    starts = set(np.linspace(0.0, last, 100))
    for t, _ in net.schedule:
        for cand in (t, t - window):
            if -1e-12 <= cand <= last + 1e-12:
                starts.add(min(max(cand, 0.0), last))
    return sorted(starts)


def _reference_pe_margin(net, window, starts):
    """``pe_margin`` one window start at a time, with the mean Laplacian and
    adjacency of each window summed segment by segment: the loop that the
    stacked distinct windows replaced."""
    n = net.node_count
    q = projection_matrix(n)
    mu = lam2_at_min = math.inf
    gap = 0.0
    min_weights = np.full((n, n), math.inf)
    for t in starts:
        lbar = integral_laplacian(net, t, window)
        lam_min = float(np.linalg.eigvalsh(q @ lbar @ q.T)[0])
        lam2 = _lambda2(lbar)
        gap = max(gap, abs(max(lam_min, 0.0) - lam2))
        if lam_min < mu:
            mu, lam2_at_min = lam_min, lam2
        min_weights = np.minimum(min_weights, _window_mean(net, _adjacency, t, window))
    if abs(mu) <= ZERO_TOL * max(1.0, float(n)):
        mu = 0.0
    positive = min_weights > ZERO_TOL
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if positive[i, j])
    weights = np.where(positive, min_weights, 0.0)
    delta_floor = float(min(weights[i, j] for i, j in edges)) if edges else 0.0
    return (max(mu, 0.0), window, edges, weights, lam2_at_min, delta_floor, gap)


def _bits(report_fields):
    """Every field as bytes, so that -0.0 and 0.0 differ."""
    mu, window, edges, weights, lam2, delta_floor, gap = report_fields
    return struct.pack("<5d", mu, window, lam2, delta_floor, gap), edges, weights.tobytes()


def _assert_pe_margin_matches_reference(net, window):
    """Bitwise the per-window loop over ``pe_margin``'s own starts; against
    the loop over the full grid, no lower and within rounding, since the
    breakpoint starts are a subset of the grid on which the minima lie."""
    report = pe_margin(net, window)
    got = (
        report.mu,
        report.window_T,
        report.effective_graph.edges,
        report.effective_weights,
        report.lambda2_integral,
        report.delta_floor,
        report.equivalence_gap,
    )
    starts, grid = _window_starts(net, window), _grid_window_starts(net, window)
    assert set(starts) <= set(grid)
    assert _bits(got) == _bits(_reference_pe_margin(net, window, starts))
    mu, _, edges, weights, lam2, _, gap = _reference_pe_margin(net, window, grid)
    tol = 1e-12 * max(1.0, float(net.node_count))
    assert mu <= report.mu <= mu + tol
    assert abs(report.lambda2_integral - lam2) <= tol
    assert report.effective_graph.edges == edges
    assert np.all(report.effective_weights >= weights)
    assert np.all(report.effective_weights - weights <= 1e-12)
    assert report.equivalence_gap <= gap


def _random_switching(rng, n, mode_count, horizon, edgeless=False):
    """Modes of random density, mode 0 edgeless on request, on a schedule
    whose breakpoints lie on a 0.25 grid, so that the ends of windows of
    length 0.5 or 1.0 land on breakpoints."""
    modes = tuple(
        Graph(n, ()) if edgeless and k == 0
        else random_connected_graph(rng, n, rng.uniform(0.0, 0.6))
        for k in range(mode_count)
    )
    grid = np.arange(1, int(horizon / 0.25)) * 0.25
    cuts = sorted(rng.choice(grid, size=int(rng.integers(0, len(grid) // 2 + 1)), replace=False))
    # mode 0 (the edgeless one, if any) is active from t = 0
    schedule = [(0.0, 0)] + [(float(t), int(rng.integers(mode_count))) for t in cuts]
    return SwitchingNetwork(modes, tuple(schedule), horizon)


@given(st.integers(0, 10_000))
def test_pe_margin_matches_per_window_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    mode_count = int(rng.integers(1, 5))
    horizon = float(rng.choice([2.0, 3.0, 4.0]))
    net = _random_switching(rng, n, mode_count, horizon, edgeless=bool(rng.integers(2)))
    for window in (0.5, 1.0, horizon):
        _assert_pe_margin_matches_reference(net, window)


def test_pe_margin_matches_per_window_loop_edge_cases():
    rng = np.random.default_rng(7)
    # an edgeless mode, window == horizon (a single window start), and
    # window ends on every breakpoint
    edgeless = _random_switching(rng, 5, 3, 2.0, edgeless=True)
    assert any(not g.edges for g in edgeless.modes)
    for window in (0.25, 0.5, 2.0):
        _assert_pe_margin_matches_reference(edgeless, window)
    _assert_pe_margin_matches_reference(static_network(Graph(3, ()), 1.0), 1.0)
    # example2's 84-node network
    net = build_network(generate_example2(0).network)
    assert net.node_count == 84
    _assert_pe_margin_matches_reference(net, 1.0)


def test_pe_margin_matches_per_window_loop_many_distinct_windows(monkeypatch):
    # off-grid breakpoints and four modes: more distinct window piece lists
    # than a stacked block of one or of 32 windows holds
    rng = np.random.default_rng(11)
    modes = tuple(random_connected_graph(rng, 6, rng.uniform(0.0, 0.6)) for _ in range(4))
    cuts = np.sort(rng.uniform(0.0, 20.0, 45))
    schedule = [(0.0, 1)] + [(float(t), int(rng.integers(4))) for t in cuts]
    net = SwitchingNetwork(modes, tuple(schedule), 20.0)
    times = [t for t, _ in net.schedule]
    modes = [m for _, m in net.schedule]
    ends = [*times[1:], math.inf]
    pieces = {
        _window_pieces(times, ends, modes, t, t + 1.0) for t in _window_starts(net, 1.0)
    }
    assert len(pieces) > 32
    for windows in (1, 32, graphs._WINDOW_WORK // 36):
        monkeypatch.setattr(graphs, "_WINDOW_WORK", windows * 36)
        _assert_pe_margin_matches_reference(net, 1.0)


def test_pe_margin_many_breakpoints_fast():
    # 3 200 breakpoints: a scan of the whole schedule per window start made
    # this quadratic (over a second); bisection keeps it well under 0.1 s
    rng = np.random.default_rng(3)
    modes = tuple(random_connected_graph(rng, 8, 0.3) for _ in range(3))
    schedule = [(0.0, 0)] + [(0.25 * k, int(rng.integers(3))) for k in range(1, 3201)]
    net = SwitchingNetwork(modes, tuple(schedule), 801.0)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        pe_margin(net, 1.0)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


def test_algebraic_connectivity_examples():
    assert algebraic_connectivity(laplacian(complete_graph(3))) == pytest.approx(3.0)
    # eigenvalues of the P3 Laplacian are {0, 1, 3}
    assert algebraic_connectivity(laplacian(path_graph(3))) == pytest.approx(1.0)
    two_pairs = Graph(4, ((0, 1), (2, 3)))
    assert algebraic_connectivity(laplacian(two_pairs)) == 0.0
    with pytest.raises(ValueError):
        algebraic_connectivity(np.array([[1.0, 2.0], [0.0, 1.0]]))


def _two_cliques_bridged(weight):
    """Laplacian of two K4s joined by one edge of the given weight."""
    k4 = complete_graph(4).edges
    lap = laplacian(Graph(8, k4 + tuple((i + 4, j + 4) for i, j in k4)))
    lap[3, 3] += weight
    lap[4, 4] += weight
    lap[3, 4] = lap[4, 3] = -weight
    return lap


def test_algebraic_connectivity_clamp_scale():
    """The clamp scale, max |eigenvalue| of the one eigensolve, decides as
    the 2-norm of ``_lambda2`` does: a disconnected graph and a lambda_2
    below ZERO_TOL * ||L|| give exactly +0.0, a larger one stays."""
    zero = struct.pack("<d", 0.0)
    for weight in (0.0, 1e-12, 4e-9):
        lap = _two_cliques_bridged(weight)
        assert struct.pack("<d", algebraic_connectivity(lap)) == zero
        assert struct.pack("<d", _lambda2(lap)) == zero
    # clamped only because ||L|| is about 4, not 1
    assert ZERO_TOL < np.linalg.eigvalsh(_two_cliques_bridged(4e-9))[1] < 2 * ZERO_TOL
    for weight in (1e-8, 1e-3, 1.0):
        lap = _two_cliques_bridged(weight)
        assert algebraic_connectivity(lap) > 0.0
        assert algebraic_connectivity(lap) == _lambda2(lap)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(star_graph(5)) == 1
    # singleton attached to a clique by 2 edges: kappa = 2
    clique = complete_graph(6)
    g = Graph(7, clique.edges + ((0, 6), (1, 6)))
    assert vertex_connectivity(g) == 2


def test_vertex_connectivity_disconnected_and_large():
    assert vertex_connectivity(Graph(4, ((0, 1), (2, 3)))) == 0
    big = complete_graph(16)
    assert vertex_connectivity(big) == 15
    ring = Graph(16, tuple((i, (i + 1) % 16) if i < (i + 1) % 16 else ((i + 1) % 16, i) for i in range(16)))
    assert vertex_connectivity(ring) == 2  # a ring is 2-connected at any size


def _random_graph(rng, n):
    p = rng.uniform(0.1, 0.9)
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, tuple(e for e in pairs if rng.random() < p))


def _is_connected(g):
    """One component, by a depth-first search from node 0."""
    seen, stack = {0}, [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.node_count


def _brute_force_connectivity(g):
    """The smallest vertex cut, by trying every node set in size order."""
    n = g.node_count
    for k in range(n - 1):
        for cut in itertools.combinations(range(n), k):
            if not _is_connected(g.subgraph(set(range(n)) - set(cut))):
                return k
    return n - 1


def test_vertex_connectivity_matches_brute_force(rng):
    for _ in range(150):
        g = _random_graph(rng, int(rng.integers(2, 13)))
        assert vertex_connectivity(g) == _brute_force_connectivity(g), g


def test_vertex_connectivity_matches_networkx(rng):
    nx = pytest.importorskip("networkx")

    def reference(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.node_count))
        h.add_edges_from(g.edges)
        return nx.node_connectivity(h)

    for _ in range(40):
        g = _random_graph(rng, int(rng.integers(13, 41)))
        assert vertex_connectivity(g) == reference(g), g
    net = build_network(generate_example2(0).network)
    eff = pe_margin(net, 1.0).effective_graph
    assert eff.node_count == 84
    assert vertex_connectivity(eff) == reference(eff) == 2


def test_r_robustness_examples():
    assert r_robustness(complete_graph(3)) == 2
    assert r_robustness(Graph(4, ((0, 1), (2, 3)))) == 0
    for n in (*range(3, 9), *range(13, 17)):
        assert r_robustness(complete_graph(n)) == math.ceil(n / 2)
    with pytest.raises(CapabilityError):
        r_robustness(complete_graph(17))


def test_r_robustness_star_and_path():
    for n in (5, 16):
        assert r_robustness(star_graph(n)) == 1
        assert r_robustness(path_graph(n)) == 1


def _reference_r_robustness(g):
    """r-robustness by enumeration of disjoint subset pairs, O(3^N): the
    path that the subset-minimum transform replaced."""
    n = g.node_count
    if not _is_connected(g):
        return 0
    adj_bits = [0] * n
    for i, j in g.edges:
        adj_bits[i] |= 1 << j
        adj_bits[j] |= 1 << i
    full = (1 << n) - 1
    best = math.ceil(n / 2)

    def pair_reach(s1: int, s2: int, need: int) -> int:
        reach = 0
        for s in (s1, s2):
            outside = full & ~s
            m = s
            while m:
                low = m & -m
                i = low.bit_length() - 1
                reach = max(reach, (adj_bits[i] & outside).bit_count())
                if reach >= need:
                    return reach
                m ^= low
        return reach

    for s1 in range(1, full + 1):
        low1 = s1 & -s1
        comp = full & ~s1
        # only pair with subsets whose members sit above s1's lowest bit;
        # every unordered pair is still visited once
        comp &= ~(low1 - 1)
        s2 = comp
        while s2:
            reach = pair_reach(s1, s2, best)
            if reach < best:
                best = reach
                if best == 0:
                    return 0
            s2 = (s2 - 1) & comp
    return best


def test_r_robustness_matches_pair_enumeration(rng):
    for n in range(2, 11):
        cases = [complete_graph(n), star_graph(n), path_graph(n)]
        for _ in range(4):
            cases.append(random_connected_graph(rng, n, rng.uniform(0.0, 0.9)))
            cases.append(_random_graph(rng, n))
            # two random connected parts side by side
            k = int(rng.integers(1, n))
            left = random_connected_graph(rng, k) if k > 1 else Graph(2, ())
            right = random_connected_graph(rng, n - k) if n - k > 1 else Graph(2, ())
            edges = left.edges + tuple((i + k, j + k) for i, j in right.edges)
            cases.append(Graph(n, edges))
        for g in cases:
            want = _reference_r_robustness(g)
            assert r_robustness(g) == want, g
            if not _is_connected(g):
                assert want == 0
        assert r_robustness(complete_graph(n)) == math.ceil(n / 2)


def test_check_bound_chain_k3_tight():
    net = static_network(complete_graph(3), 3.0)
    report = check_bound_chain(pe_margin(net, 1.0))
    assert (math.ceil(report.mu_hat / 2), report.r, report.kappa, report.upper) == (2, 2, 2, 2)
    assert report.chain_holds and report.is_complete


def test_check_bound_chain_star():
    net = static_network(star_graph(5), 3.0)
    report = check_bound_chain(pe_margin(net, 1.0))
    assert report.r == 1 and report.kappa == 1 and report.upper == 4
    assert math.ceil(report.mu_hat / 2 - 1e-12) <= report.r
    assert report.chain_holds and report.noncomplete_bound_holds


@given(st.integers(0, 3_000))
def test_bound_chain_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    g = random_connected_graph(rng, n)
    lam2 = algebraic_connectivity(laplacian(g))
    r = r_robustness(g)
    kappa = vertex_connectivity(g)
    assert math.ceil(lam2 / 2 - 1e-12) <= r <= kappa <= n - 1
    if len(g.edges) < n * (n - 1) // 2:
        assert lam2 <= kappa + 1e-9


def test_remove_nodes_identity_and_errors():
    net = split_edges_alternating(complete_graph(6), 0.5, 2.0, 1)
    same = remove_nodes(net, ())
    assert same.network.modes == net.modes
    assert same.index_map == {i: i for i in range(6)}
    with pytest.raises(ValueError):
        remove_nodes(net, range(6))
    with pytest.raises(ValueError):
        remove_nodes(net, (9,))


def test_remove_non_cut_node_keeps_connectivity():
    g = complete_graph(5)
    net = static_network(g, 2.0)
    reduced = remove_nodes(net, (2,))
    lam2 = algebraic_connectivity(laplacian(reduced.network.modes[0]))
    assert lam2 > 0


@given(st.integers(0, 2_000))
def test_removal_resilience(seed):
    """Removing fewer nodes than the effective graph's vertex connectivity
    keeps a positive PE margin, and lambda2 drops by at most the removal
    count."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 10))
    net = split_edges_alternating(random_connected_graph(rng, n, 0.5), 0.5, 4.0, seed)
    report = pe_margin(net, 1.0)
    kappa = vertex_connectivity(report.effective_graph)
    if kappa < 2 or n - (kappa - 1) < 3:
        return
    size = int(rng.integers(1, kappa))
    removed = rng.choice(n, size=size, replace=False)
    reduced = remove_nodes(net, removed)
    after = pe_margin(reduced.network, 1.0)
    assert after.mu > 0
    assert report.lambda2_integral <= after.lambda2_integral + size + 1e-9


def test_khop_examples():
    g = path_graph(3)
    assert khop_neighbors(g, 0, 1) == frozenset({1})
    assert khop_neighbors(g, 0, 2) == frozenset({2})
    lonely = Graph(4, ((1, 2), (2, 3)))
    assert khop_neighbors(lonely, 0, 1) == frozenset()
    with pytest.raises(ValueError):
        khop_neighbors(g, 0, 3)


def test_khop_overlap_convention():
    # 1-hop neighbors joined by an edge also appear in the 2-hop set
    g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert khop_neighbors(g, 0, 1) == frozenset({1, 2})
    assert khop_neighbors(g, 0, 2) == frozenset({1, 2, 3})


FIG_STYLE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4),
    (2, 5), (4, 6), (5, 6), (6, 7), (7, 8), (8, 9),
)


def test_khop_neighbors_ten_node_topology():
    """A 10-node topology where 1-hop neighbors joined by an edge (1-2, 3-4)
    also sit in the 2-hop set, next to the strictly-2-hop nodes 5 and 6."""
    g = Graph(10, FIG_STYLE_EDGES)
    assert khop_neighbors(g, 0, 1) == frozenset({1, 2, 3, 4})
    assert khop_neighbors(g, 0, 2) == frozenset({1, 2, 3, 4, 5, 6})


def test_generate_r_robust_seed_clique():
    g = generate_r_robust_preferential(5, 2, seed=0)
    assert g.edges == complete_graph(5).edges


def test_generate_r_robust_certificate_vs_enumeration():
    for seed in range(3):
        g = generate_r_robust_preferential(8, 3, seed=seed)
        assert r_robustness(g) >= 3


def test_generate_r_robust_large_with_cap():
    g = generate_r_robust_preferential(84, 2, seed=5, max_degree=9)
    assert g.node_count == 84
    assert max(g.degree(i) for i in range(84)) <= 9


def test_generate_r_robust_invalid_parameters():
    with pytest.raises(ValueError):
        generate_r_robust_preferential(4, 2, seed=0)
    with pytest.raises(ValueError):
        generate_r_robust_preferential(10, 2, seed=0, max_degree=2)


def test_adversary_classification():
    g = complete_graph(5)
    assert adversary_classification(g, (3, 4)) == (2, 2)
    path = path_graph(5)
    assert adversary_classification(path, (0,)) == (1, 1)
