"""Time-varying communication graphs, Laplacian algebra, and robustness metrics.

The module covers the static side of the toolkit: simple undirected graphs,
finite mode libraries with piecewise-constant switching schedules,
connectivity in the integral ("persistently exciting") sense, and exact
r-robustness and vertex-connectivity computation.

Every integral-connectivity metric takes its Laplacians from one builder,
``_laplacian_timeline``: it turns sorted ``(t0, t1, edges)`` intervals into
their bounds, a key per interval and one Laplacian per distinct edge set.
``pe_margin`` feeds it the switching schedule, ``reports.lambda2_series``
a trace's realized segments.  ``dynamics.realized_disconnection_time``
needs no Laplacian: it tells a disconnected edge set by ``_connected``.
Every window is cut into pieces by ``_window_pieces``: the intervals that
overlap it are a bisect slice, each clipped to the window.  The metrics of
window means, the PE margin and the lambda_2 series, share one window loop,
``_window_map``: it cuts each start's window, builds the mean of each
distinct piece list once, in stacks of at most ``_WINDOW_WORK`` matrix
entries summed one piece position after another, and maps a caller's
function of those means back to every start.  Each mean gets the
arithmetic of a single-window call, so a metric whose function solves each
matrix on its own (one batched LAPACK call per stack) is bitwise that of a
window-by-window loop.

The PE margin evaluates the windows that start at 0, at horizon - T and at
every breakpoint b and b - T in between: the window mean is affine in the
start between those, so the minima over all starts are attained there.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapabilityError, ConfigurationError

# Eigenvalues within ZERO_TOL * ||L|| of zero are treated as zero; rank
# decisions use singular values against max_dim * sigma_max * RANK_RTOL.
ZERO_TOL = 1e-9
RANK_RTOL = 1e-12

R_ROBUSTNESS_EXACT_CAP = 16
# matrix entries of the window means stacked at once by _window_map, n^2
# per window (256 KB of float64): 512 windows of 8 nodes, 4 of 84.  Every
# window of a stack is padded to its longest piece list, and a stack of
# thousands ran slower than one of 32
_WINDOW_WORK = 2**15


def _canonical_edges(edges) -> tuple:
    canon = []
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) not allowed")
        canon.append((i, j) if i < j else (j, i))
    canon.sort()
    for a, b in itertools.pairwise(canon):
        if a == b:
            raise ValueError(f"duplicate edge {a}")
    return tuple(canon)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0..node_count-1``.

    Edges are stored canonically as sorted ``(i, j)`` pairs with ``i < j``.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("graph needs at least 2 nodes")
        object.__setattr__(self, "edges", _canonical_edges(self.edges))
        for i, j in self.edges:
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range for N={self.node_count}")

    @cached_property
    def _neighbor_lists(self) -> tuple:
        """Sorted neighbors of every node, built on first use.  Not a field:
        equality, hashing and the scenario codec see ``edges`` only."""
        nbrs = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbors(self, i: int) -> tuple:
        return self._neighbor_lists[i]

    def degree(self, i: int) -> int:
        return len(self._neighbor_lists[i])

    def subgraph(self, nodes) -> "Graph":
        """Induced subgraph, renumbered by the sorted order of ``nodes``."""
        kept = sorted(set(nodes))
        index = {v: k for k, v in enumerate(kept)}
        edges = [
            (index[i], index[j]) for i, j in self.edges if i in index and j in index
        ]
        return Graph(len(kept), tuple(edges))

    def drop_edges(self, removed) -> "Graph":
        removed = {(min(i, j), max(i, j)) for i, j in removed}
        return Graph(self.node_count, tuple(e for e in self.edges if e not in removed))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((k, k + 1) for k in range(n - 1)))


def star_graph(n: int, hub: int = 0) -> Graph:
    return Graph(n, tuple((hub, k) for k in range(n) if k != hub))


def union_graph(graphs) -> Graph:
    graphs = list(graphs)
    n = graphs[0].node_count
    edges = set()
    for g in graphs:
        if g.node_count != n:
            raise ValueError("graphs must share node_count")
        edges.update(g.edges)
    return Graph(n, tuple(sorted(edges)))


@dataclass(frozen=True)
class SwitchingNetwork:
    """Finite library of graph modes plus a right-continuous switching schedule.

    ``schedule`` is an ordered tuple of ``(start_time, mode_index)`` with the
    first start at t=0; mode k is active on ``[t_k, t_{k+1})``.
    """

    modes: tuple
    schedule: tuple
    horizon: float

    def __post_init__(self):
        if not self.modes:
            raise ValueError("at least one mode required")
        n = self.modes[0].node_count
        if n < 3:
            raise ValueError("switching network needs N >= 3 agents")
        if any(g.node_count != n for g in self.modes):
            raise ValueError("all modes must share node_count")
        sched = tuple((float(t), int(m)) for t, m in self.schedule)
        object.__setattr__(self, "schedule", sched)
        times = [t for t, _ in sched]
        if not times or times[0] != 0.0:
            raise ValueError("schedule must start at t=0")
        if any(b <= a for a, b in itertools.pairwise(times)):
            raise ValueError("schedule times must be strictly increasing")
        if any(not 0 <= m < len(self.modes) for _, m in sched):
            raise ValueError("schedule references unknown mode index")
        if self.horizon <= times[-1]:
            raise ValueError("horizon must exceed the last switch time")

    @property
    def node_count(self) -> int:
        return self.modes[0].node_count


def static_network(g: Graph, horizon: float) -> SwitchingNetwork:
    return SwitchingNetwork((g,), ((0.0, 0),), horizon)


# ---------------------------------------------------------------------------
# Laplacian algebra
# ---------------------------------------------------------------------------


def _laplacian(n: int, edges) -> np.ndarray:
    """L = D - A of the unit-weight ``edges`` on nodes 0..n-1, which need not
    make a valid ``Graph`` (a 2-hop view may have one member)."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return np.diag(a.sum(axis=1)) - a


def laplacian(g: Graph) -> np.ndarray:
    """Unit-weight Laplacian L = D - A; PSD with L @ 1 = 0 and ||L|| <= N."""
    return _laplacian(g.node_count, g.edges)


def projection_matrix(n: int) -> np.ndarray:
    """Helmert-style orthonormal basis of the hyperplane orthogonal to 1_n.

    Returns Q of shape (n-1, n) with Q @ 1 = 0, Q @ Q.T = I and
    Q.T @ Q = I - (1/n) 1 1^T.
    """
    if n < 2:
        raise ValueError("projection matrix needs n >= 2")
    q = np.zeros((n - 1, n))
    for k in range(1, n):
        q[k - 1, :k] = 1.0
        q[k - 1, k] = -float(k)
        q[k - 1] /= math.sqrt(k * (k + 1))
    return q


def _lambda2_stack(laps: np.ndarray) -> np.ndarray:
    """Second-smallest eigenvalue of each matrix of a stack of symmetric
    zero-row-sum matrices, clamped to 0 within ``ZERO_TOL * ||L||``.  ||L||
    of a symmetric matrix is its largest |eigenvalue|, taken from the same
    eigensolve.  The batched LAPACK call runs per matrix, so a slice's value
    does not depend on the stack around it."""
    lam = np.linalg.eigvalsh(laps)
    lam2 = lam[:, 1]
    scale = np.maximum(1.0, np.maximum(np.abs(lam[:, 0]), np.abs(lam[:, -1])))
    return np.where(np.abs(lam2) <= ZERO_TOL * scale, 0.0, lam2)


def algebraic_connectivity(lap: np.ndarray) -> float:
    """Second-smallest eigenvalue of a symmetric zero-row-sum matrix.

    Values within ``ZERO_TOL * ||L||`` of zero are clamped to exactly 0.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.shape[0] != lap.shape[1] or not np.allclose(lap, lap.T, atol=1e-12):
        raise ValueError("input must be a symmetric matrix")
    return float(_lambda2_stack(lap[None])[0])


def _connected(n: int, edges) -> bool:
    """Whether ``edges`` join all of nodes 0..n-1, by a union-find with path
    halving: n - 1 merges of two roots leave one tree."""
    parent = list(range(n))

    def root(u):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    merges = 0
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            merges += 1
    return merges == n - 1


def _laplacian_timeline(n: int, intervals) -> tuple:
    """``(begins, ends, keys, laps)`` of sorted, disjoint ``(t0, t1, edges)``
    intervals on nodes 0..n-1: their bounds, the index of each one's edge
    set among the distinct ones, and one Laplacian per distinct edge set."""
    begins, ends, edge_sets = zip(*intervals)
    index = {}
    keys = [index.setdefault(edges, len(index)) for edges in edge_sets]
    return begins, ends, keys, np.stack([_laplacian(n, edges) for edges in index])


def _window_pieces(begins, ends, index, t0: float, t1: float) -> tuple:
    """``(duration, index[k])`` of every interval [begins[k], ends[k]) of a
    sorted, disjoint list that overlaps the window [t0, t1], clipped to it,
    in order.  Those that end after t0 and begin before t1 are a slice, and
    each of them overlaps the window by a positive duration."""
    lo, hi = bisect_right(ends, t0), bisect_left(begins, t1)
    return tuple(
        (min(t1, ends[k]) - max(t0, begins[k]), index[k]) for k in range(lo, hi)
    )


def _window_means(mats: np.ndarray, pieces, window: float) -> np.ndarray:
    """Duration-weighted means (1/T) sum_k d_k mats[m_k], one per window.

    ``pieces`` holds one ``(duration, index)`` list per window, in time
    order.  Shorter lists are padded with zero durations: 0 * M adds nothing
    to a sum that starts at +0.0, so each mean is bitwise the loop
    ``acc += d * mats[m]`` over its own pieces.
    """
    width = max(map(len, pieces))
    dur = np.zeros((len(pieces), width))
    idx = np.zeros((len(pieces), width), dtype=np.intp)
    for w, row in enumerate(pieces):
        dur[w, : len(row)], idx[w, : len(row)] = zip(*row)
    acc = np.zeros((len(pieces),) + mats.shape[1:])
    for j in range(width):
        acc += dur[:, j, None, None] * mats[idx[:, j]]
    return acc / window


def _window_map(timeline, starts, window: float, measure) -> list:
    """``measure``'s value on the mean Laplacian of the window
    [t, t + window] of every start t, over a ``_laplacian_timeline``.

    Equal piece lists give bitwise-equal means, so the mean of each
    distinct list is built once, in stacks of at most ``_WINDOW_WORK``
    matrix entries; ``measure`` maps a stack to a list of one value per
    mean.  Every mean gets the arithmetic of a one-window stack, so a value
    does not depend on the starts beside it, as long as ``measure`` solves
    each matrix on its own.
    """
    begins, ends, keys, laps = timeline
    pieces = [_window_pieces(begins, ends, keys, t, t + window) for t in starts]
    distinct = list(dict.fromkeys(pieces))
    block = max(1, _WINDOW_WORK // laps[0].size)
    values = []
    for lo in range(0, len(distinct), block):
        values += measure(_window_means(laps, distinct[lo : lo + block], window))
    value = dict(zip(distinct, values))
    return [value[key] for key in pieces]


def _window_starts(net: SwitchingNetwork, window: float):
    """Window starts: 0, horizon - T, and every breakpoint b and b - T that
    lies in between (clamped to [0, horizon - T]).

    Between two consecutive starts of this set neither t nor t + T crosses a
    breakpoint, so the window mean Lbar(t, T) is affine in t there.
    lambda_min(Q Lbar Q^T) is concave over an affine symmetric family
    (Rayleigh-Ritz: a minimum of affine functions) and every mean edge weight
    is affine, so both attain their minima over all starts on this finite
    set.
    """
    last = net.horizon - window
    if last < -1e-12:
        raise ConfigurationError("horizon shorter than the PE window")
    last = max(last, 0.0)
    starts = {0.0, last}
    for t, _ in net.schedule:
        for cand in (t, t - window):
            if -1e-12 <= cand <= last + 1e-12:
                starts.add(min(max(cand, 0.0), last))
    return sorted(starts)


@dataclass(frozen=True, eq=False)
class PEReport:
    """Connectivity of a switching network in the integral sense.

    ``mu`` is the uniform-in-time margin min_t lambda_min(Q Lbar(t,T) Q^T)
    clamped at 0; ``lambda2_integral`` is lambda_2 of the averaged Laplacian
    at the first minimizing window start; ``equivalence_gap`` is the largest
    |lambda_min(Q Lbar Q^T) - lambda_2(Lbar)| over the evaluated window
    starts (``_window_starts``: 0, horizon - T and every breakpoint b and
    b - T in between, on which the minima over all starts are attained).
    ``effective_graph`` keeps the edges whose time-averaged adjacency stays
    positive uniformly over window starts; ``delta_floor`` is the smallest
    such uniform average (0 when there are no edges).
    """

    mu: float
    window_T: float
    effective_graph: Graph
    effective_weights: np.ndarray = field(repr=False)
    lambda2_integral: float
    delta_floor: float
    equivalence_gap: float


def pe_margin(net: SwitchingNetwork, window: float) -> PEReport:
    """PE margin of the network for windows of length ``window``.

    Records the spectral equivalence gap |lambda_min(Q Lbar Q^T) -
    lambda_2(Lbar)| over every evaluated window.  The window means and their
    eigenvalues are computed once per distinct ``(duration, edge set)``
    piece list (``_window_map``); the min and gap fold over the window
    starts in order.  The least mean adjacency is
    -max Lbar: off the diagonal the Laplacian mean is exactly the negated
    adjacency mean, and the diagonal, never positive, keeps no edge.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    n = net.node_count
    q = projection_matrix(n)
    # the last mode lasts: a window that ends an ulp past the horizon keeps
    # its whole last piece
    ends = [t for t, _ in net.schedule[1:]] + [math.inf]
    timeline = _laplacian_timeline(
        n, ((t, end, net.modes[m].edges) for (t, m), end in zip(net.schedule, ends))
    )
    min_weights = np.full((n, n), math.inf)

    def measure(lbar):
        np.minimum(min_weights, -lbar.max(axis=0), out=min_weights)
        lam_mins = np.linalg.eigvalsh(q @ lbar @ q.T)[:, 0]
        return list(zip(lam_mins.tolist(), _lambda2_stack(lbar).tolist()))

    mu = math.inf
    lam2_at_min = math.inf
    gap = 0.0
    for lam_min, lam2 in _window_map(timeline, _window_starts(net, window), window, measure):
        gap = max(gap, abs(max(lam_min, 0.0) - lam2))
        if lam_min < mu:
            mu = lam_min
            lam2_at_min = lam2
    scale = max(1.0, float(n))
    if abs(mu) <= ZERO_TOL * scale:
        mu = 0.0
    positive = min_weights > ZERO_TOL
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if positive[i, j]
    )
    weights = np.where(positive, min_weights, 0.0)
    delta_floor = float(min(weights[i, j] for i, j in edges)) if edges else 0.0
    return PEReport(
        mu=max(mu, 0.0),
        window_T=window,
        effective_graph=Graph(n, edges),
        effective_weights=weights,
        lambda2_integral=lam2_at_min,
        delta_floor=delta_floor,
        equivalence_gap=gap,
    )


# ---------------------------------------------------------------------------
# Robustness metrics
# ---------------------------------------------------------------------------


class _SplitNetwork:
    """Unit-capacity vertex-split network of a graph, for local vertex
    connectivity by augmenting paths.  Node v becomes v_in = 2v and
    v_out = 2v + 1, joined by the arc v_in -> v_out; each edge {u, v}
    becomes the arcs u_out -> v_in and v_out -> u_in.  ``heads[x]`` lists
    the arcs out of x in the residual network (reverse arcs included) and
    ``capacity`` holds every arc's capacity (0 for a reverse arc)."""

    def __init__(self, g: Graph):
        self.nbrs = g._neighbor_lists
        self.heads = []
        self.capacity = {}
        for v, nbrs in enumerate(self.nbrs):
            self.heads.append((2 * v + 1, *(2 * u + 1 for u in nbrs)))
            self.heads.append((2 * v, *(2 * u for u in nbrs)))
            self.capacity[2 * v, 2 * v + 1] = 1
            self.capacity[2 * v + 1, 2 * v] = 0
            for u in nbrs:
                self.capacity[2 * v + 1, 2 * u] = 1
                self.capacity[2 * u, 2 * v + 1] = 0

    def local_connectivity(self, s: int, t: int, bound: int) -> int:
        """Internally vertex-disjoint paths between non-adjacent s and t,
        counted up to ``bound``.  Each common neighbor w is one path
        s-w-t; breadth-first augmenting paths from s_out to t_in add the
        rest, one unit of flow each."""
        heads = self.heads
        residual = self.capacity.copy()
        source, sink = 2 * s + 1, 2 * t
        common = sorted(set(self.nbrs[s]) & set(self.nbrs[t]))[:bound]
        for w in common:
            # one unit of flow along s_out -> w_in -> w_out -> t_in
            for arc in ((source, 2 * w), (2 * w, 2 * w + 1), (2 * w + 1, sink)):
                residual[arc] = 0
                residual[arc[::-1]] = 1
        flow = len(common)
        while flow < bound:
            parent = {source: None}
            frontier = [source]
            while frontier and sink not in parent:
                reached = []
                for x in frontier:
                    for y in heads[x]:
                        if y not in parent and residual[x, y]:
                            parent[y] = x
                            reached.append(y)
                frontier = reached
            if sink not in parent:
                break
            y = sink
            while parent[y] is not None:
                x = parent[y]
                residual[x, y] -= 1
                residual[y, x] += 1
                y = x
            flow += 1
        return flow


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity: 0 when disconnected, N-1 when complete.

    Even's algorithm: kappa is the least local connectivity over
    non-adjacent pairs (v_i, v_j), and it suffices to take i <= kappa.  A
    minimum cut S misses one of v_0..v_kappa, and the first such v_i has a
    node of higher index on the other side of S.  Each local connectivity
    is a unit-capacity max flow (``_SplitNetwork``), stopped once it
    reaches the best cut so far; the minimum degree starts the bound.
    """
    network = _SplitNetwork(g)
    best = min(len(a) for a in network.nbrs)
    i = 0
    while i <= best:
        adjacent = set(network.nbrs[i])
        for j in range(i + 1, g.node_count):
            if j not in adjacent:
                best = min(best, network.local_connectivity(i, j, best))
        i += 1
    return best


def r_robustness(g: Graph) -> int:
    """Exact r-robustness over all subsets as bitmask arrays.

    r(G) is the largest r such that for every pair of nonempty disjoint
    subsets, some node in one of them has at least r neighbors outside its
    own subset, capped at ceil(N/2).  With reach(S) = max over i in S of
    |N(i) \\ S|, that is the least max(reach(S), low(S^c)) over nonempty
    proper subsets S, where low(M) is the lowest reach over nonempty subsets
    of M: a subset-minimum transform, one vectorized pass per node.
    O(N 2^N); capped at N <= 16.
    """
    n = g.node_count
    if n > R_ROBUSTNESS_EXACT_CAP:
        raise CapabilityError(
            f"exact r-robustness capped at N={R_ROBUSTNESS_EXACT_CAP}; "
            "use a construction certificate for larger graphs"
        )
    full = (1 << n) - 1
    subsets = np.arange(full + 1)
    complements = full ^ subsets
    # bit counts by table (np.bitwise_count needs numpy 2)
    ones = np.zeros(full + 1, dtype=np.intp)
    for b in range(n):
        ones[1 << b : 2 << b] = ones[: 1 << b] + 1
    reach = np.zeros(full + 1, dtype=np.intp)
    for i, nbrs in enumerate(g._neighbor_lists):
        outside = ones[sum(1 << j for j in nbrs) & complements]
        np.maximum(reach, np.where(subsets >> i & 1, outside, 0), out=reach)
    # low[M] = min of reach over nonempty subsets of M: the empty set's n
    # exceeds every reach, so it wins no minimum
    low = reach.copy()
    low[0] = n
    for b in range(n):
        pairs = low.reshape(-1, 2, 1 << b)
        np.minimum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    pair_min = np.maximum(reach, low[complements])[1:full].min()
    return int(min(math.ceil(n / 2), pair_min))


def khop_neighbors(g: Graph, i: int, k: int) -> frozenset:
    """Nodes j != i reachable from i by a path of exactly k edges (k in {1, 2}).

    With this convention a 1-hop neighbor that also closes a triangle (or
    shares another common neighbor) with i appears in the 2-hop set as well.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    one = set(g.neighbors(i))
    if k == 1:
        return frozenset(one)
    two = set()
    for m in one:
        two.update(g.neighbors(m))
    two.discard(i)
    return frozenset(two)


# ---------------------------------------------------------------------------
# Bound chain and removal resilience
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundChainReport:
    """ceil(mu_hat/2) <= r <= kappa <= N-1 on the effective graph."""

    mu: float
    mu_hat: float
    r: int
    kappa: int
    upper: int
    is_complete: bool
    chain_holds: bool
    noncomplete_bound_holds: bool


def check_bound_chain(report: PEReport) -> BoundChainReport:
    """Check the chain on the effective graph of a ``pe_margin`` report."""
    eff = report.effective_graph
    r = r_robustness(eff)
    kappa = vertex_connectivity(eff)
    n = eff.node_count
    is_complete = len(eff.edges) == n * (n - 1) // 2
    mu_hat = report.lambda2_integral
    chain = (
        math.ceil(mu_hat / 2 - 1e-12) <= r <= kappa <= n - 1
        and mu_hat >= report.mu - 1e-9
    )
    noncomplete = True if is_complete else (mu_hat <= kappa + 1e-9)
    return BoundChainReport(
        mu=report.mu,
        mu_hat=mu_hat,
        r=r,
        kappa=kappa,
        upper=n - 1,
        is_complete=is_complete,
        chain_holds=chain,
        noncomplete_bound_holds=noncomplete,
    )


@dataclass(frozen=True)
class ReducedNetwork:
    network: SwitchingNetwork
    kept_nodes: tuple
    index_map: dict  # old node id -> new node id


def remove_nodes(net: SwitchingNetwork, removed) -> ReducedNetwork:
    removed = set(removed)
    if not removed <= set(range(net.node_count)):
        raise ValueError("removed nodes out of range")
    kept = tuple(sorted(set(range(net.node_count)) - removed))
    if not kept:
        raise ValueError("cannot remove every node")
    if len(kept) < 3:
        raise ValueError("fewer than 3 agents would remain")
    modes = tuple(g.subgraph(kept) for g in net.modes)
    reduced = SwitchingNetwork(modes, net.schedule, net.horizon)
    return ReducedNetwork(
        network=reduced,
        kept_nodes=kept,
        index_map={old: new for new, old in enumerate(kept)},
    )


# ---------------------------------------------------------------------------
# Certified r-robust construction
# ---------------------------------------------------------------------------


def generate_r_robust_preferential(
    n: int, r: int, seed, max_degree: int | None = None
) -> Graph:
    """Grow an r-robust graph by preferential attachment from a K_{2r+1} seed.

    Each added node attaches to r distinct existing nodes drawn with
    probability proportional to degree, which preserves r-robustness of the
    seed clique, so the returned graph is certified r-robust by construction
    without enumeration.  An optional degree cap redirects attachments away
    from saturated nodes.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    clique = 2 * r + 1
    if n < clique:
        raise ValueError(f"need n >= 2r+1 = {clique}")
    if max_degree is not None and max_degree < clique - 1:
        raise ValueError("max_degree below the seed clique degree")
    rng = np.random.default_rng(seed)
    edges = set(itertools.combinations(range(clique), 2))
    degree = [clique - 1] * clique + [0] * (n - clique)
    for new in range(clique, n):
        eligible = [
            v
            for v in range(new)
            if max_degree is None or degree[v] < max_degree
        ]
        if len(eligible) < r:
            raise ValueError("degree cap leaves too few attachment targets")
        weights = np.array([degree[v] for v in eligible], dtype=float)
        weights /= weights.sum()
        chosen = rng.choice(eligible, size=r, replace=False, p=weights)
        for v in sorted(int(c) for c in chosen):
            edges.add((min(v, new), max(v, new)))
            degree[v] += 1
            degree[new] += 1
    return Graph(n, tuple(sorted(edges)))


def adversary_classification(g: Graph, malicious) -> tuple:
    """(F_total, F_local) of a malicious set on a static (effective) graph."""
    malicious = set(malicious)
    f_total = len(malicious)
    f_local = 0
    for i in range(g.node_count):
        if i in malicious:
            continue
        f_local = max(f_local, len(malicious & set(g.neighbors(i))))
    return f_total, f_local
