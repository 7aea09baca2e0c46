"""Closed-loop simulation of the switched double-integrator network.

Plant model: each agent is a double integrator driven by the relative-position
consensus protocol u_i = -alpha * sum_j (p~_i - p~_j) - gamma * v_i, plus an
injected signal for malicious agents.  Stacked, the closed loop is a switched
linear system xdot = A_sigma x + B_A u_A with A_sigma = [[0, I], [-alpha L,
-gamma I]].  Deception attacks enter through named waveforms; DoS attacks
nullify scheduled edge subsets.  Integration is fixed-step RK4 on the grid
t = k h, and the step index k is the only clock: the edge timeline lists its
entries in steps, with schedule breakpoints on the grid and DoS bounds
snapped to it.

Between two edge-set changes the closed loop is linear time-invariant, so one
RK4 step is a matrix: x+ = R x + G0 b(t) + Gm b(t + h/2) + G1 b(t + h), with R
RK4's stability polynomial in hA.  With E = -alpha h L and c = -gamma h,
hA = [[0, hI], [E, cI]], so every block of R, G0, Gm and G1 is a
polynomial in E of degree at most 2: ``_plant_matrices`` builds them from
E and the one n x n product E^2, not from powers of the 2n x 2n hA.
``simulate`` builds R and the attacker columns of G0, Gm, G1 once per
distinct edge set of a run and releases them after the last timeline entry
that uses that edge set; the attack waveforms are sampled as arrays on the
half-step grid.  The method is RK4 either way; only rounding differs from
the stage form and from the dense polynomial.  A step costs one
BLAS matrix-vector product; a block of steps whose forcing is +0.0
throughout (every block of an attack-free run) adds it once, after its last
step, which gives the same bits as adding it every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graphs import (
    Graph,
    SwitchingNetwork,
    _lambda2_stack,
    _laplacian_timeline,
    _window_pieces,
    laplacian,
    projection_matrix,
    union_graph,
)

_GRID_RTOL = 1e-9
# a run stores (steps + 1) x node_count positions and as many velocities;
# about 15x example2's 40 s trace
_MAX_TRACE_CELLS = 5e7
# steps whose injections are sampled at once: a block, not the whole run, so
# that the samples never add to a long run's peak memory
_SAMPLE_BLOCK = 4096
# most steps a walker callee advances at once; it divides _SAMPLE_BLOCK, so
# that the sample blocks cut no block short
_STEP_BLOCK = 256
# trace cells gathered at once by consensus_metrics: a row block, not the
# whole trace, so that the gathered copies stay small beside the trace
_METRIC_CELLS = 1 << 17


@dataclass(frozen=True)
class Gains:
    alpha: float
    gamma: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.gamma < math.inf):
            raise ValueError("control gains must be positive and finite")


@dataclass(frozen=True, eq=False)
class SystemState:
    """Stacked relative-position errors and velocities; a run starts from it
    at t = 0."""

    p_tilde: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_tilde, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if p.shape != v.shape or p.ndim != 1:
            raise ValueError("p_tilde and v must be 1-D vectors of equal length")
        if not (np.isfinite(p).all() and np.isfinite(v).all()):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "p_tilde", p)
        object.__setattr__(self, "v", v)

    @property
    def node_count(self) -> int:
        return self.p_tilde.size

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.p_tilde, self.v])


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackSignal:
    """Named waveform: ramp (slope*t), constant, or sinusoid."""

    kind: str
    slope: float = 0.0
    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ramp", "constant", "sinusoid"):
            raise ValueError(f"unknown signal kind {self.kind!r}")

    def __call__(self, t):
        """Value at ``t``, a float or an array of times (a constant stays a
        scalar and broadcasts)."""
        if self.kind == "ramp":
            return self.slope * t
        if self.kind == "constant":
            return self.value
        return self.amplitude * np.sin(
            2.0 * math.pi * self.frequency * t + self.phase
        )


def ramp(slope: float) -> AttackSignal:
    return AttackSignal(kind="ramp", slope=slope)


def constant(value: float) -> AttackSignal:
    return AttackSignal(kind="constant", value=value)


def sinusoid(amplitude: float, frequency: float, phase: float = 0.0) -> AttackSignal:
    return AttackSignal(
        kind="sinusoid", amplitude=amplitude, frequency=frequency, phase=phase
    )


@dataclass(frozen=True)
class DeceptionAttack:
    agent: int
    activation_time: float
    signal: AttackSignal

    def value(self, t: float) -> float:
        return self.signal(t) if t >= self.activation_time else 0.0


def _attackers(attacks) -> tuple:
    """The injecting agents in sorted order: the columns of the injection
    samples and of the plant's forcing matrix."""
    return tuple(sorted({atk.agent for atk in attacks}))


def _injection_samples(attacks, first: int, last: int, h: float) -> np.ndarray:
    """Injections on the half-step grid of steps ``first`` to ``last``: row
    2j at t = (first + j) h, row 2j + 1 at the RK4 midpoint after it, one
    column per ``_attackers`` entry."""
    agents = _attackers(attacks)
    t = np.arange(2 * first, 2 * last + 1) * (0.5 * h)
    u = np.zeros((t.size, len(agents)))
    for atk in attacks:
        live = t >= atk.activation_time
        u[live, agents.index(atk.agent)] += atk.signal(t[live])
    return u


# ---------------------------------------------------------------------------
# DoS schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoSRandomSpec:
    """Counted-trials link nullification over a window split into ``trials``
    equal sub-intervals: per sub-interval, with probability ``success_prob``
    one uniformly drawn link is nullified, so the dropout count over the
    window is Binomial(trials, success_prob).
    """

    trials: int
    success_prob: float
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError("success_prob must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class DoSInterval:
    start: float
    duration: float
    dropped_edges: tuple[tuple[int, int], ...] | None = None
    random: DoSRandomSpec | None = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("DoS duration must be positive")
        if (self.dropped_edges is None) == (self.random is None):
            raise ValueError("specify exactly one of dropped_edges or random")


@dataclass(frozen=True)
class DoSSchedule:
    intervals: tuple[DoSInterval, ...]

    def realize(self, candidate_edges, horizon: float) -> tuple:
        """Expand to sorted ``(t0, t1, frozenset(dropped))`` sub-intervals,
        without the random trials that start at or after ``horizon``.  Each
        trial draws in turn, so the kept trials draw as in a full expansion."""
        declared = sorted((iv.start, iv.start + iv.duration) for iv in self.intervals)
        for (_, a1), (b0, _) in zip(declared, declared[1:]):
            if b0 < a1 - 1e-12:
                raise ConfigurationError("DoS intervals must not overlap")
        candidate_edges = sorted(
            (min(i, j), max(i, j)) for i, j in candidate_edges
        )
        out = []
        for iv in self.intervals:
            if iv.dropped_edges is not None:
                dropped = frozenset(
                    (min(i, j), max(i, j)) for i, j in iv.dropped_edges
                )
                out.append((iv.start, iv.start + iv.duration, dropped))
                continue
            rng = np.random.default_rng(iv.random.seed)
            dt = iv.duration / iv.random.trials
            for k in range(iv.random.trials):
                if iv.start + k * dt >= horizon:
                    break
                hit = rng.random() < iv.random.success_prob
                pick = int(rng.integers(0, len(candidate_edges)))
                dropped = frozenset((candidate_edges[pick],)) if hit else frozenset()
                out.append((iv.start + k * dt, iv.start + (k + 1) * dt, dropped))
        out.sort(key=lambda seg: seg[0])
        return tuple(out)


# ---------------------------------------------------------------------------
# Closed-loop matrix
# ---------------------------------------------------------------------------


def _closed_loop(lap: np.ndarray, gains: Gains) -> np.ndarray:
    """[[0, I], [-alpha L, -gamma I]] of the Laplacian ``lap``."""
    n = len(lap)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    # the lower blocks are products assigned whole: their zeros are -0.0
    a[n:, :n] = -gains.alpha * lap
    a[n:, n:] = -gains.gamma * np.eye(n)
    return a


def closed_loop_matrix(g: Graph, gains: Gains) -> np.ndarray:
    """A_sigma = [[0, I], [-alpha L, -gamma I]]; col(1, 0) is always in its
    nullspace."""
    return _closed_loop(laplacian(g), gains)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Fixed-step record of a closed-loop run.

    ``segments`` lists the realized constant-topology intervals as
    ``(t0, t1, mode_index, edges, dos_active)``; their bounds are step-grid
    times k h, so they tile [0, horizon] exactly, and they are what graph
    metrics over the *realized* network use (cut into window pieces by
    ``graphs._window_pieces``).  Consecutive steps with equal edges share one
    segment, which carries the mode and DoS flag of its first step.
    """

    t: np.ndarray
    p_tilde: np.ndarray  # (steps+1, N)
    v: np.ndarray
    mode_index: np.ndarray
    dos_active: np.ndarray
    segments: tuple
    step_h: float

    @property
    def node_count(self) -> int:
        return self.p_tilde.shape[1]


def _on_grid(value: float, h: float) -> bool:
    # the exact remainder, which no quotient too large for an int breaks
    return abs(math.remainder(value, h)) <= _GRID_RTOL * max(1.0, abs(value))


def _grid_steps(net_horizon, node_count, step_h, breakpoints=(), horizon=None) -> int:
    """The step count of a walk of [0, horizon] (``net_horizon`` for None)
    on the grid t = k ``step_h``, checked before anything of the grid's
    size exists: the step is positive and finite, the horizon lies in
    (0, ``net_horizon``], (steps + 1) x ``node_count`` trace cells are
    within the limit, the horizon is a whole number of at least one step,
    and every schedule breakpoint lies on the grid."""
    if not (math.isfinite(step_h) and step_h > 0):
        raise ConfigurationError(f"step must be positive and finite, got {step_h}")
    horizon = net_horizon if horizon is None else horizon
    if not 0 < horizon <= net_horizon + 1e-12:
        raise ConfigurationError("horizon must lie in (0, network horizon]")
    if not (horizon / step_h + 1) * node_count <= _MAX_TRACE_CELLS:
        raise ConfigurationError(
            f"{horizon / step_h:.3g} steps of {node_count} agents exceed the "
            f"{_MAX_TRACE_CELLS:.0e}-cell trace limit"
        )
    if not _on_grid(horizon, step_h):
        raise ConfigurationError("horizon must be a multiple of the step")
    steps = round(horizon / step_h)
    if steps < 1:
        raise ConfigurationError(f"horizon {horizon} is shorter than one step of {step_h}")
    for t in breakpoints:
        if not _on_grid(t, step_h):
            raise ConfigurationError(f"schedule breakpoint {t} is not a multiple of step {step_h}")
    return steps


def build_edge_timeline(
    net: SwitchingNetwork,
    dos: DoSSchedule | None,
    steps: int,
    step_h: float,
) -> tuple:
    """Merge schedule and DoS boundaries into constant-edge entries on the
    step grid.

    Schedule breakpoints fall on the step grid (``_grid_steps`` checks
    them); DoS sub-interval bounds are snapped to it, so a sub-interval
    drops its edges on steps [round(t0 / h), round(t1 / h)) and one shorter
    than half a step may drop nothing.  Returns ``(k0, k1, mode, edges,
    dos_active)`` tuples that tile steps [0, steps), each k0 < k1; entries
    with equal edges share one frozenset.
    """
    # every list ends in a sentinel that the walk never passes
    switches = [(round(t / step_h), m) for t, m in net.schedule] + [(steps, None)]
    union_edges = sorted(set().union(*(g.edges for g in net.modes)))
    realized = dos.realize(union_edges, steps * step_h) if dos is not None else ()
    drops = [
        (max(round(a / step_h), 0), min(round(b / step_h), steps), dropped)
        for a, b, dropped in realized
    ]
    # realize sorts the sub-intervals and rejects overlaps; one snapped to
    # no step drops nothing
    drops = [d for d in drops if d[0] < d[1]] + [(steps, steps, frozenset())]
    mode_edges = [frozenset(g.edges) for g in net.modes]
    interned = {}  # each distinct edge set, keyed by itself
    timeline = []
    s = d = k = 0  # the schedule entry and the drop in force or next, the step
    while k < steps:
        while switches[s + 1][0] <= k:
            s += 1
        while drops[d][1] <= k:
            d += 1
        mode = switches[s][1]
        d0, d1, dropped = drops[d]
        dos_now = d0 <= k
        k1 = min(switches[s + 1][0], d1 if dos_now else d0)
        edges = mode_edges[mode] - dropped if dos_now else mode_edges[mode]
        timeline.append((k, k1, mode, interned.setdefault(edges, edges), dos_now))
        k = k1
    return tuple(timeline)


def _rk4_matrices(a_mat: np.ndarray, h: float) -> tuple:
    """RK4 on x' = A x + b(t) as x+ = R x + G0 b(t) + Gm b(t + h/2) + G1 b(t + h).

    Returns (R, G0, Gm); G1 = h/6 I.  With a = hA, R = I + a + a^2/2 + a^3/6
    + a^4/24 (RK4's stability polynomial), G0 = h/6 (I + a + a^2/2 + a^3/4)
    and Gm = h/6 (4I + 2a + a^2/2) gather the two midpoint stages.  This is
    the dense build of any A, three products of A's size: the observers'
    step matrices.  The plant's have a block structure that
    ``_plant_matrices`` builds from one product of half the size.
    """
    eye = np.eye(a_mat.shape[0])
    a = h * a_mat
    a2 = a @ a
    a3 = a2 @ a
    s = eye + a + a2 / 2.0
    r = s + a3 / 6.0 + (a2 @ a2) / 24.0
    g0 = (h / 6.0) * (s + a3 / 4.0)
    gm = (h / 6.0) * (4.0 * eye + 2.0 * a + a2 / 2.0)
    return r, g0, gm


@np.errstate(over="ignore", invalid="ignore")
def check_step_stability(net: SwitchingNetwork, gains: Gains, step_h: float) -> None:
    """Reject a step at which RK4 amplifies a mode of the closed loop on
    some edge set the run may meet.

    Every such edge set (a mode, DoS-pruned or isolation-pruned) is a
    subgraph of the modes' union, so its Laplacian eigenvalues lie in
    [0, lam_max], lam_max the union's largest; each gives the eigenvalues s
    of s^2 + gamma s + alpha lambda = 0, and RK4 is stable there when its
    polynomial P has |P(h s)| <= 1.  Up to lambda = gamma^2 / (4 alpha) the
    two roots are real, start at -gamma and 0 and close in on -gamma/2;
    RK4's real stability set is an interval [-2.785..., 0], so this branch
    is stable when P(-h gamma) <= 1.  Past it the roots are -gamma/2 +- i y
    with y in [0, y_max], y_max = sqrt(4 alpha lam_max - gamma^2) / 2, a
    conjugate pair with equal |P(h s)|, and |P(h s)|^2 is a polynomial in
    y: its maximum on [0, y_max] lies at an end or at a stationary point,
    so evaluating it there covers the branch.

    This covers RK4's plant step only.  DP-MSR's zero-order hold has
    another stability region, and its guard stays the walk's overflow
    check.  The observers' RK4 step matrices get no check of their own: on
    example1 seeds 0-2 their spectral radius is 0.9992 for every alpha up
    to 1e6 and passes 1 only where this check rejects the step."""
    h, gamma = step_h, gains.gamma
    rk4 = [1 / 24, 1 / 6, 1 / 2, 1.0, 1.0]  # P's coefficients, highest first
    lam_max = np.linalg.eigvalsh(laplacian(union_graph(net.modes)))[-1]
    disc = 4.0 * gains.alpha * lam_max - gamma * gamma
    stable = abs(np.polyval(rk4, -h * gamma)) <= 1.0
    if stable and disc > 0.0:
        # P(h (-gamma/2 + i y)) and |P|^2 as polynomials in y
        line = np.polyval(rk4, np.poly1d([1j * h, -h * gamma / 2]))
        square = (line * np.poly1d(line.coeffs.conj())).coeffs.real
        y_max = math.sqrt(disc) / 2
        ys = np.clip(np.r_[0.0, y_max, np.roots(np.polyder(square)).real], 0.0, y_max)
        stable = bool((np.polyval(square, ys) <= 1.0).all())
    if not stable:
        raise ConfigurationError(
            f"step {h} is outside RK4's stability region for alpha {gains.alpha} "
            f"and gamma {gamma} on this network: |P(h s)| > 1"
        )


def _plant_matrices(g: Graph, gains: Gains, agents: tuple, h: float) -> tuple:
    """R and [G0 | Gm | G1] of the closed loop on ``g``, the forcing blocks
    cut to the velocity columns of ``agents``: ``_rk4_matrices`` of
    ``closed_loop_matrix(g, gains)`` up to rounding, from one n x n product.

    With E = -alpha h L and c = -gamma h, hA = [[0, hI], [E, cI]], so every
    power of hA is a 2 x 2 block matrix whose blocks are polynomials in E:

        R11 = I + (h/2 + hc/6 + hc^2/24) E + (h^2/24) E^2
        R12 = (h + hc/2 + hc^2/6 + hc^3/24) I + (h^2/6 + h^2 c/12) E
        R21 = (1 + c/2 + c^2/6 + c^3/24) E + (h/6 + hc/12) E^2
        R22 = (1 + c + c^2/2 + c^3/6 + c^4/24) I + (h/2 + hc/3 + hc^2/8) E
              + (h^2/24) E^2

    The forcing enters the velocities, so [G0 | Gm | G1] is the velocity
    block column of the dense forms, cut to the columns of ``agents``:

        G0 = h/6 [(h + hc/2 + hc^2/4) I + (h^2/4) E;
                  (1 + c + c^2/2 + c^3/4) I + ((h + hc)/2) E]
        Gm = h/6 [(2h + hc/2) I; (4 + 2c + c^2/2) I + (h/2) E]
        G1 = h/6 [0; I]"""
    n, m = g.node_count, len(agents)
    a_mat = closed_loop_matrix(g, gains)
    e = h * a_mat[n:, :n]
    c = -gains.gamma * h
    hc = h * c
    # block (p, q) of R is [p, :, q, :] of a 4-d view: every block takes its
    # E and E^2 terms at once, then its identity term on its diagonal
    r = np.empty((2 * n, 2 * n))
    blocks = r.reshape(2, n, 2, n)
    r_e = [[h / 2 + hc / 6 + hc * c / 24, h * h / 6 + h * hc / 12],
           [1 + c / 2 + c * c / 6 + c**3 / 24, h / 2 + hc / 3 + hc * c / 8]]
    r_e2 = [[h * h / 24, 0.0], [h / 6 + hc / 12, h * h / 24]]
    np.multiply(np.array(r_e)[:, None, :, None], e[None, :, None, :], out=blocks)
    blocks += np.array(r_e2)[:, None, :, None] * (e @ e)[None, :, None, :]
    diagonal = 2 * n + 1  # the stride of a block's diagonal in R's flat view
    flat = r.reshape(-1)
    flat[: 2 * n * n : diagonal] += 1.0
    flat[n : 2 * n * n : diagonal] += h + hc / 2 + hc * c / 6 + hc * c * c / 24
    flat[2 * n * n + n :: diagonal] += 1 + c + c * c / 2 + c**3 / 6 + c**4 / 24
    # row half p of forcing block q is [p, :, q, :] of a 4-d view, its E
    # term plus its I term; a zero coefficient's E term is +-0.0 and the I
    # term's zeros are +0.0, so G1 comes out bitwise h/6 [0; I]
    forcing = np.empty((2 * n, 3 * m))
    cols = forcing.reshape(2, n, 3, m)
    w = h / 6.0
    g_e = [[h * h / 4, 0.0, 0.0], [(h + hc) / 2, h / 2, 0.0]]
    g_i = [[h + hc / 2 + hc * c / 4, 2 * h + hc / 2, 0.0],
           [1 + c + c * c / 2 + c**3 / 4, 4 + 2 * c + c * c / 2, 1.0]]
    e_cols = np.take(e, agents, axis=1)[None, :, None, :]
    i_cols = (np.arange(n)[:, None] == agents)[None, :, None, :]
    np.multiply(w * np.array(g_e)[:, None, :, None], e_cols, out=cols)
    cols += w * np.array(g_i)[:, None, :, None] * i_cols
    return r, forcing


def _plant_rows(plant: tuple, X: np.ndarray, k0: int, k1: int, U: np.ndarray) -> int:
    """Rows k0 + 1 to k1 of ``X`` by RK4 step matrices, x+ = R x + G u, with
    row j of ``U`` the ``u`` of step k0 + j; returns k1, so that it is the
    walker's block callee of a plant-only run.  The block's forcing G u is
    one stacked ``matmul``, which numpy computes row by row with the product
    of ``g @ u`` (``U @ g.T`` rounds differently).  Each step is one bound
    ``r.dot`` into its row: the same BLAS product as ``np.matmul``, with
    less call overhead.

    A block whose forcing is +0.0 bit for bit (every block of a run without
    attacker columns) adds it once after the loop, not once per step.  That
    add only turns -0.0 into +0.0, and the sign of a zero entry of x never
    changes a nonzero entry of R x, so the rows come out bitwise as with the
    add per step.  A forcing with a -0.0 entry would not be exact that way,
    so it keeps the add per step, as does any nonzero forcing."""
    r, g = plant
    forcing = np.matmul(g, U[:, :, None])[:, :, 0]
    rows = list(X[k0 : k1 + 1])
    step = r.dot
    if forcing.view(np.int64).any():
        for x, x_next, gu in zip(rows, rows[1:], forcing):
            step(x, out=x_next)
            x_next += gu
    else:
        for x, x_next in zip(rows, rows[1:]):
            step(x, out=x_next)
        X[k0 + 1 : k1 + 1] += forcing
    return k1


# an overflow is reported once, as the error at the end of the walk, rather
# than as a warning per step
@np.errstate(over="ignore", invalid="ignore")
def _walk(
    net, initial, attacks, dos, horizon, step_h, on_edges, advance, removed=frozenset(),
    on_timeline=None,
):
    """Walk the edge timeline of [0, horizon] in blocks of steps and record
    the run.

    The step index k is the walk's only clock: every time it hands out or
    records is k ``step_h``, and each timeline entry ends at a whole step.
    The effective edges of a step are the timeline's edges minus ``removed``,
    a set the caller may grow during the walk.  ``on_timeline(timeline)``,
    if given, sees the ``build_edge_timeline`` entries before the first
    step.  ``on_edges(edges, t, x)`` builds the caller's context whenever the
    effective edges change.
    ``advance(context, X, k0, k1, U)`` fills rows k0 + 1 to k1 of the run's
    stacked states ``X`` and returns how far it got, k_end in (k0, k1]; the
    walk resumes at row k_end and writes later rows again.  A block [k0, k1)
    lies in one timeline entry and one block of injection samples, and ends
    at the entry's end or at the next multiple of ``_STEP_BLOCK``.  Row j of
    ``U`` holds the attackers' injections at t_{k0+j}, the midpoint and
    t_{k0+j+1} (three rows of ``_injection_samples``, flattened).  A callee
    that stops early after growing ``removed`` repeats at most one block of
    work per stop.  Consecutive steps with equal effective edges form one
    realized segment.
    """
    n = net.node_count
    if initial.node_count != n:
        raise ConfigurationError("initial state dimension != network size")
    # the guard of an API caller; a document has passed it in materialize
    steps = _grid_steps(net.horizon, n, step_h, (t for t, _ in net.schedule), horizon)
    timeline = build_edge_timeline(net, dos, steps, step_h)
    if on_timeline is not None:
        on_timeline(timeline)

    t_arr = np.arange(steps + 1) * step_h
    X = np.empty((steps + 1, 2 * n))
    X[0] = initial.stacked()
    mode_arr = np.empty(steps + 1, dtype=int)
    dos_arr = np.empty(steps + 1, dtype=bool)
    columns = len(_attackers(attacks))

    segments: list = []
    entry = 0
    current = None
    k = 0
    while k < steps:
        t = k * step_h
        # no block crosses its entry's end, so the walk stops at each end
        if k == timeline[entry][1]:
            entry += 1
        _, k_stop, mode, base_edges, dos_now = timeline[entry]
        # entries with equal edges share one frozenset, so while nothing is
        # removed the identity test settles most blocks without comparing edges
        edges = base_edges - removed if removed else base_edges
        if edges is not current and edges != current:
            current = edges
            context = on_edges(edges, t, X[k])
            segments.append([t, t, mode, edges, dos_now])
        # no block straddles two sample blocks, so each one's first step is
        # the first step of a block
        if k % _SAMPLE_BLOCK == 0:
            first = k
            samples = _injection_samples(attacks, k, min(k + _SAMPLE_BLOCK, steps), step_h)
            # row j: sample rows 2j to 2j + 2, a view of the samples
            step_u = np.lib.stride_tricks.as_strided(
                samples,
                (len(samples) // 2, 3 * columns),
                (2 * samples.strides[0], samples.itemsize),
                writeable=False,
            )
        k1 = min(k_stop, (k // _STEP_BLOCK + 1) * _STEP_BLOCK, first + _SAMPLE_BLOCK)
        k_end = advance(context, X, k, k1, step_u[k - first : k1 - first])
        mode_arr[k:k_end] = mode
        dos_arr[k:k_end] = dos_now
        segments[-1][1] = k_end * step_h
        k = k_end
    # no update turns a non-finite entry finite again, so the last state
    # tells whether any step overflowed
    if not np.isfinite(X[steps]).all():
        finite = np.isfinite(X).all(axis=1)
        raise ConfigurationError(
            f"the state is not finite from t = {t_arr[np.argmin(finite)]:.6g} on"
        )
    mode_arr[steps] = timeline[-1][2]
    dos_arr[steps] = timeline[-1][4]
    return SimulationTrace(
        t=t_arr,
        p_tilde=X[:, :n],
        v=X[:, n:],
        mode_index=mode_arr,
        dos_active=dos_arr,
        segments=tuple(tuple(seg) for seg in segments),
        step_h=step_h,
    )


def _edge_set_cache(build):
    """``on_timeline`` and ``on_edges`` callbacks of ``_walk`` for a caller
    that removes no edge: ``build(edges, steps)`` runs when the walk first
    enters an edge set, ``steps`` being the timeline steps that the edge set
    covers in all, and its result is released when the walk enters that
    edge set for the last time.  A DoS blink or a schedule that returns to
    a mode realizes an earlier edge set again, and with nothing removed the
    timeline says in full which edge sets recur."""
    built = {}
    entries = {}
    steps = {}

    def on_timeline(timeline):
        # one on_edges call per run of entries with equal edges
        current = None
        for k0, k1, _, edges, _ in timeline:
            steps[edges] = steps.get(edges, 0) + k1 - k0
            if edges is not current and edges != current:
                current = edges
                entries[edges] = entries.get(edges, 0) + 1

    def on_edges(edges, t, x):
        value = built.pop(edges, None)
        if value is None:
            value = build(edges, steps[edges])
        entries[edges] -= 1
        if entries[edges]:
            built[edges] = value
        return value

    return on_timeline, on_edges


def simulate(
    net: SwitchingNetwork,
    gains: Gains,
    initial: SystemState,
    attacks=(),
    dos: DoSSchedule | None = None,
    step_h: float = 1e-3,
    horizon: float | None = None,
) -> SimulationTrace:
    """Fixed-step RK4 integration of the switched closed loop.

    The active mode (with DoS-nullified edges) is constant within each step;
    deception inputs are evaluated at the RK4 stage times.  The step
    matrices of an edge set are built once, when the walk first enters it,
    and released when it enters it for the last time (``_edge_set_cache``).
    """
    n = net.node_count
    agents = _attackers(attacks)
    on_timeline, on_edges = _edge_set_cache(
        lambda edges, steps: _plant_matrices(Graph(n, tuple(edges)), gains, agents, step_h)
    )
    return _walk(
        net,
        initial,
        attacks,
        dos,
        horizon,
        step_h,
        on_edges,
        _plant_rows,
        on_timeline=on_timeline,
    )


def output_series(trace: SimulationTrace) -> np.ndarray:
    q = projection_matrix(trace.node_count)
    return np.hstack([trace.p_tilde @ q.T, trace.v])


# ---------------------------------------------------------------------------
# Stability constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityConstants:
    eta: float
    lambda_chi: float
    lambda_x: float
    kappa_x: float
    kappa_u: float
    mu: float
    window_T: float
    n_agents: int

    def envelope(self, t, t0: float, x0_norm: float):
        """Exponential output envelope kappa_x * exp(-lambda_x (t-t0)) * |x0|."""
        return self.kappa_x * np.exp(-self.lambda_x * (np.asarray(t) - t0)) * x0_norm


def stability_constants(
    mu: float,
    window: float,
    gains: Gains,
    n_agents: int,
) -> StabilityConstants:
    """Finite-gain stability constants for a (mu, T)-PE-connected network.

    eta = -1/(2T) ln(1 - (a/g) mu T / (1 + (a/g)^2 N^2 T^2)), lambda_chi =
    eta e^{-2 eta T}, lambda_x = 0.9 lambda_chi, and the output gains come
    from the coordinate change C = [[I/gamma, -Q/gamma], [0, I]], with the
    paper's beta taken as 1.
    """
    if mu <= 0:
        raise ValueError("degenerate connectivity: stability constants need mu > 0")
    if mu > n_agents + 1e-9:
        raise ValueError("mu cannot exceed the agent count")
    ratio = gains.alpha / gains.gamma
    arg = 1.0 - (ratio * mu * window) / (1.0 + ratio**2 * n_agents**2 * window**2)
    eta = -math.log(arg) / (2.0 * window)
    lambda_chi = eta * math.exp(-2.0 * eta * window)
    lambda_x = 0.9 * lambda_chi
    q = projection_matrix(n_agents)
    c = np.block(
        [
            [np.eye(n_agents - 1) / gains.gamma, -q / gains.gamma],
            [np.zeros((n_agents, n_agents - 1)), np.eye(n_agents)],
        ]
    )
    c_norm = float(np.linalg.norm(c, 2))
    c_inv_norm = float(np.linalg.norm(np.linalg.inv(c), 2))
    hi = max(1.0 / lambda_chi, 1.0)
    kappa_x = c_norm * math.sqrt(hi / min(gains.gamma / (gains.alpha * n_agents), 1.0)) * c_inv_norm
    kappa_u = c_norm * hi / (lambda_x * min(gains.gamma / (2.0 * gains.alpha * n_agents), 0.5))
    return StabilityConstants(
        eta=eta,
        lambda_chi=lambda_chi,
        lambda_x=lambda_x,
        kappa_x=kappa_x,
        kappa_u=kappa_u,
        mu=mu,
        window_T=window,
        n_agents=n_agents,
    )


# ---------------------------------------------------------------------------
# Trace metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConsensusMetrics:
    t: np.ndarray
    max_position_gap: np.ndarray
    max_speed: np.ndarray


def _gap_and_speed(p: np.ndarray, v: np.ndarray) -> tuple:
    """Per row of gathered positions and velocities: the max pairwise
    position gap and the largest speed."""
    return p.max(axis=1) - p.min(axis=1), np.abs(v).max(axis=1)


def _columns(trace: SimulationTrace, cooperative) -> np.ndarray:
    """The trace columns of ``cooperative``, all agents for None."""
    if cooperative is None:
        return np.arange(trace.node_count)
    return np.array(sorted(cooperative), dtype=int)


def consensus_metrics(trace: SimulationTrace, cooperative=None) -> ConsensusMetrics:
    """Max pairwise position gap and max speed over the cooperative set.

    The cooperative columns are gathered one row block at a time, of at most
    ``_METRIC_CELLS`` cells, so no whole-trace copy is made; max, min and
    abs are exact, so the blocks give the bits of the whole-array formula."""
    idx = _columns(trace, cooperative)
    rows = len(trace.t)
    gap, speed = np.empty(rows), np.empty(rows)
    block = max(1, _METRIC_CELLS // max(1, len(idx)))
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        gap[lo:hi], speed[lo:hi] = _gap_and_speed(
            trace.p_tilde[lo:hi, idx], trace.v[lo:hi, idx]
        )
    return ConsensusMetrics(t=trace.t, max_position_gap=gap, max_speed=speed)


def realized_disconnection_time(trace: SimulationTrace, window: float) -> float:
    """Worst-case time per window during which the realized instantaneous
    graph was disconnected (the measurable form of the DoS budget).  The
    worst window starts at a disconnected segment's start, clamped to
    [0, horizon - T]: the disconnected time of [t, t + T) has slope
    1[t + T off] - 1[t off] in t, so it does not fall from a connected t up
    to the next disconnected start (or horizon - T) and does not rise from
    a disconnected t back to its segment's start.  Each distinct edge set is
    classified once."""
    begins, ends, keys, laps = _laplacian_timeline(
        trace.node_count, ((a, b, edges) for a, b, _, edges, _ in trace.segments)
    )
    cut = (_lambda2_stack(laps) <= 0.0).tolist()
    off = [k for k, key in enumerate(keys) if cut[key]]
    if not off:
        return 0.0
    begins, ends = [begins[k] for k in off], [ends[k] for k in off]
    last = max(trace.t[-1] - window, 0.0)
    worst = 0.0
    for t in begins:
        t = min(t, last)
        pieces = _window_pieces(begins, ends, off, t, t + window)
        worst = max(worst, sum(d for d, _ in pieces))
    return worst
