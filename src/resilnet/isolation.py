"""Concurrent detection, isolation, and resilient cooperation.

The rescue loop steps every cooperative agent's local observer against
fresh measurements, tests each 1-hop neighbor's residual against its
threshold, and permanently severs any link whose residual exceeds it.
Isolation is a state-dependent switch: the pruned network is what both the
plant and every observer see from the next tick on.  A trimming-based DP-MSR
baseline is included for comparison runs.

Between edge-set changes all observers run as one bank.  An observer's
model is linear time-invariant there and its measurement is interpolated
linearly across a plant step, so its RK4 step is one matrix: x^+ = R_o x^ +
F0 y_start + F1 y_end.  The bank is built from one row per detector: its
observer, (R_o, F0, F1), its neighbors and its threshold terms, and stacks
[R_o | F0 | F1] in a zero-padded batch.  A view is a function of the owner's
local edge set (``observers._view_key``), so a run keeps one cache of
views under that key and builds each once, also for edge sets it returns
to.  A gain and its step matrices are functions of the view's model
(a_model, c_meas) alone, so they are built once per distinct model, which
views of other detectors or edge sets may share.

Up to its first verdict, a run on one edge set is a fixed function of the
trajectory, so the loop goes in blocks of steps: the plant's rows first,
then every estimate by one batched product per step, then measurements,
residuals, thresholds, the test |r| > eps and the residual log as array
operations over the block.  A monotone threshold rule is evaluated only at
the block's ends and log steps while every residual stays below both ends.
A block ends one step past its first verdict and the walk resumes there on
the pruned edge set, so at most one block of work is repeated per verdict.
A flagged pair leaves the edge set, so a bank's verdicts all fall on its
last step, and the bank records their times in its own slots.  Each
agent's ``ObserverState`` stays its reconfiguration record: on every
edge-set change the old bank hands the estimates back and logs its slots,
the observers whose view changed reconfigure at the walker's time k h, and
a new bank is built from their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DoSSchedule,
    Gains,
    SimulationTrace,
    StabilityConstants,
    SystemState,
    _attackers,
    _edge_set_cache,
    _plant_matrices,
    _plant_rows,
    _rk4_matrices,
    _walk,
    stability_constants,
)
from .errors import ConfigurationError
from .graphs import Graph, SwitchingNetwork, pe_margin, remove_nodes, PEReport
from .observers import (
    STRUCTURED_K1,
    ObserverGain,
    ObserverState,
    ThresholdRule,
    TwoHopView,
    _view_key,
    design_gain,
    gain_matrix,
    make_record,
    two_hop_view,
)


@dataclass(frozen=True)
class IsolationEvent:
    t: float
    detector: int
    isolated: int
    residual: float
    threshold: float


@dataclass(frozen=True)
class DetectorSettings:
    """Observer-side knobs of a rescue run.

    Every cooperative agent runs a 2-hop observer and flags a neighbor on
    the first step its residual exceeds ``threshold``.  When the agent's
    model changes, members kept in its view keep their estimates, members
    back within ``observers.RETAIN_GRACE`` get their cached positions back
    and new members are mask-filled; the analytic threshold restarts from
    that time.  The reinit error budget is ``_auto_w_budget``'s, and an
    uncertified gain is ``gain_matrix`` at k1 = ``STRUCTURED_K1``.
    """

    threshold: ThresholdRule = ThresholdRule(kind="constant", value=0.95)
    pe_window: float = 1.0
    residual_log_stride: int = 10

    def __post_init__(self):
        if self.residual_log_stride < 1:
            raise ValueError("residual_log_stride must be >= 1")
        if not 0 < self.pe_window < math.inf:
            raise ValueError("pe_window must be positive and finite")


@dataclass(frozen=True, eq=False)
class RescueProblem:
    """Materialized inputs of one detection-and-cooperation run."""

    net: SwitchingNetwork
    gains: Gains
    initial: SystemState
    attacks: tuple = ()
    dos: DoSSchedule | None = None
    step_h: float = 1e-3
    horizon: float | None = None
    detector: DetectorSettings = field(default_factory=DetectorSettings)

    @property
    def malicious(self) -> frozenset:
        return frozenset(a.agent for a in self.attacks)

    @property
    def cooperative(self) -> tuple:
        return tuple(sorted(set(range(self.net.node_count)) - self.malicious))


@dataclass(frozen=True, eq=False)
class RescueRun:
    """Outcome log of one run: who isolated whom, and the pruned edge set."""

    problem: RescueProblem
    events: tuple
    removed_edges: frozenset
    cooperative: tuple
    consts: StabilityConstants | None

    def isolated_by(self, malicious: int) -> frozenset:
        return frozenset(e.detector for e in self.events if e.isolated == malicious)


@dataclass(frozen=True, eq=False)
class LogEpoch:
    """One bank's log: a row per log step, a column per residual slot."""

    t: np.ndarray  # log times
    res: np.ndarray
    eps: np.ndarray
    pairs: tuple  # (detector, neighbor) per slot
    flag_t: np.ndarray  # first flag time per slot, inf if none; flags are sticky
    groups: tuple  # (detector, neighbors, first slot, end slot)


@dataclass(frozen=True, eq=False)
class ResidualLog:
    """The residual log, one ``LogEpoch`` per edge set; iterates as the
    ``ResidualRecord``s of every log step and detector, built on demand."""

    epochs: tuple

    def __len__(self) -> int:
        return sum(len(e.t) * len(e.groups) for e in self.epochs)

    def __iter__(self):
        for e in self.epochs:
            attacked = e.flag_t <= e.t[:, None]
            for r, t in enumerate(e.t.tolist()):
                for i, nbrs, lo, hi in e.groups:
                    flagged = {j for j, a in zip(nbrs, attacked[r, lo:hi]) if a}
                    yield make_record(t, i, nbrs, e.res[r, lo:hi], e.eps[r, lo:hi], flagged)


@dataclass(frozen=True, eq=False)
class RescueResult:
    trace: SimulationTrace
    run: RescueRun
    residual_log: ResidualLog


def _auto_w_budget(problem: RescueProblem, consts: StabilityConstants | None) -> float:
    """Reinit error budget: after a masked restart the error is at most the
    stacked velocity norm, bounded attack-free by sqrt(N) kappa_x |x0|."""
    v0 = float(np.max(np.abs(problem.initial.v), initial=0.0))
    if consts is None:
        return max(2.0 * v0, 1.0)
    x0 = float(np.linalg.norm(problem.initial.stacked()))
    n = problem.net.node_count
    return max(2.0 * v0, float(np.sqrt(n)) * consts.kappa_x * x0)


def _observer_step_matrices(view: TwoHopView, gain: ObserverGain, h: float) -> tuple:
    """(R_o, F0, F1) of x^' = A_bar x^ + H y(t), A_bar = A - H C, with y
    linear across a step of length h: x^+ = R_o x^ + F0 y_start + F1 y_end is
    the RK4 step of ``ObserverState.step``.  The midpoint measurement
    (y_start + y_end)/2 splits Gm evenly: F0 = (G0 + Gm/2) H and
    F1 = (G1 + Gm/2) H."""
    h_gain = gain.h_matrix
    r, g0, gm = _rk4_matrices(view.a_model - h_gain @ view.c_meas, h)
    half = gm / 2.0
    return r, (g0 + half) @ h_gain, (h / 6.0) * h_gain + half @ h_gain


# multiply-adds of observer steps per test of the bank, about half a
# millisecond of batched products on a 2-core x86-64 host: a chunk's dozen
# numpy calls cost a few percent of that, and a bank as large as example2's
# (75 rows) repeats at most one step past a verdict
_CHUNK_WORK = 2**20
# numpy >= 2.2's batched matrix-vector product; None on older numpy
_MATVEC = getattr(np, "matvec", None)


def _step_bank(step_mat: np.ndarray, z: np.ndarray, est: int):
    """z[k + 1, :, :est] = step_mat z[k] for every step k of ``z``: one
    batched product per step, one BLAS gemv per row.  ``np.matvec`` calls
    the gemv with less overhead than ``np.matmul`` on column vectors, which
    runs the same gemv and so gives the same bits."""
    if _MATVEC is None:
        for z_now, z_next in zip(z[..., None], z[1:, :, :est, None]):
            np.matmul(step_mat, z_now, out=z_next)
    else:
        for z_now, z_next in zip(z, z[1:, :, :est]):
            _MATVEC(step_mat, z_now, out=z_next)


class _ObserverBank:
    """Every detector's observer as one zero-padded batch, for one edge set.

    Row k of a step's ``z`` stacks observer k's estimate (2m entries, m =
    view size), the measurement at the start of the step and the one at its
    end (m + 1 entries each), each part zero-padded to the largest view.
    Row k of ``step_mat`` holds [R_o | F0 | F1] on the same padding with
    zeros elsewhere, so padding never mixes into an estimate.  ``rows`` holds
    one (observer, (R_o, F0, F1), neighbors, threshold terms) per detector;
    the residual slots are its (detector, neighbor) pairs in row order, and
    ``flag_t`` holds each slot's verdict time, inf if none.
    """

    def __init__(self, rows, n, h, stride):
        self.observers = [obs for obs, *_ in rows]
        size = max((obs.view.size for obs in self.observers), default=0)
        est, meas = 2 * size, size + 1
        self.est = est
        self.step_mat = np.zeros((len(rows), est, est + 2 * meas))
        self.x_hat = np.zeros((len(rows), est))
        # a chunk's z of every step, kept for the next chunk
        self.z = np.empty((0, len(rows), est + 2 * meas))
        # index into col(x_start, x_end) of every measurement: member
        # positions, then the owner's velocity; padded entries read p~_0
        # into zero columns
        self.gather = np.zeros((len(rows), 2 * meas), dtype=int)
        self.pairs = []
        self.groups = []  # (detector, neighbors, first slot, end slot)
        slot_row, slot_state = [], []
        for k, (obs, (r, f0, f1), nbrs, _) in enumerate(rows):
            i, m = obs.view.owner, obs.view.size
            self.step_mat[k, : 2 * m, : 2 * m] = r
            self.step_mat[k, : 2 * m, est : est + m + 1] = f0
            self.step_mat[k, : 2 * m, est + meas : est + meas + m + 1] = f1
            self.x_hat[k, : 2 * m] = obs.x_hat
            measured = np.array([*obs.view.members, n + i])
            self.gather[k, : m + 1] = measured
            self.gather[k, meas : meas + m + 1] = 2 * n + measured
            if nbrs:
                self.groups.append((i, nbrs, len(self.pairs), len(self.pairs) + len(nbrs)))
            for j in nbrs:
                self.pairs.append((i, j))
                slot_row.append(k)
                slot_state.append(k * (est + 2 * meas) + obs.view.member_index(j))
        self.slot_row = np.array(slot_row, dtype=int)
        self.slot_state = np.array(slot_state, dtype=int)
        self.slot_meas = np.array([j for _, j in self.pairs], dtype=int)
        self.flag_t = np.full(len(self.pairs), math.inf)
        self.h = h
        self.stride = stride
        # the distinct threshold terms, a column each, those of rate 0 last: a
        # rate of 0 gives d = 1 exactly, so their thresholds are fixed here
        terms = [row[3] for row in rows]
        distinct = sorted(dict.fromkeys(terms), key=lambda tm: tm[3] == 0)
        column = {tm: c for c, tm in enumerate(distinct)}
        self.slot_term = np.array([column[terms[k]] for k in slot_row], dtype=int)
        a, b, c, rate, t_k = np.array(distinct, dtype=float).reshape(-1, 5).T
        self.t_k_max = max(t_k, default=-math.inf)
        self.live = live = int(np.count_nonzero(rate))
        # thresholds monotone in t with no cancellation: see _chunk
        self.monotone = bool(live) and bool((np.stack((a, b, c, rate)) >= 0.0).all())
        self.fixed = (c + (a + b * 0.0))[None, live:]
        self.live_terms = tuple(x[:live] for x in (a, b, c, -rate, t_k))
        self.logged = []  # (t, residuals, thresholds) of the log steps, per chunk

    def thresholds(self, t: np.ndarray) -> np.ndarray:
        """Every slot's threshold at the times ``t``, a row per time:
        ``ThresholdRule.evaluate`` of its detector, c + (a d + b (1 - d))
        with d = exp(-rate (t - t_k)) on the terms fixed at build time, with
        ``math.exp`` per term and time (``np.exp`` may round otherwise)."""
        if not t[0] >= self.t_k_max:
            raise ValueError("need t >= t_k >= t0")
        if not self.live:
            return np.repeat(self.fixed, len(t), axis=0)[:, self.slot_term]
        a, b, c, neg_rate, t_k = self.live_terms
        arg = neg_rate * (t[:, None] - t_k)
        d = np.array([math.exp(x) for x in arg.ravel().tolist()]).reshape(arg.shape)
        eps = c + (a * d + b * (1.0 - d))
        if self.fixed.size:
            eps = np.hstack((eps, np.repeat(self.fixed, len(t), axis=0)))
        return eps[:, self.slot_term]

    def advance(self, X: np.ndarray, k0: int, k1: int) -> tuple:
        """``ObserverState.step`` for every row across plant steps k0 to k1
        (rows of ``X``, already stepped), then every slot's test |r| > eps;
        keep the log steps.  Stops after the first step that flags a slot:
        returns (k_end, verdicts), the (slot, residual, threshold) of each
        slot flagged on the step to k_end, and records k_end h as their
        verdict time in ``flag_t``.  Runs in chunks of at most
        ``_CHUNK_WORK`` multiply-adds, so that a large bank repeats little
        work past a verdict.

        A flagged pair's edge leaves the edge set from the next step on, so
        no bank holds a slot already flagged."""
        chunk = max(1, _CHUNK_WORK // max(1, self.step_mat.size))
        for c0 in range(k0, k1, chunk):
            k_end, verdicts = self._chunk(X, c0, min(c0 + chunk, k1))
            if verdicts:
                break
        return k_end, verdicts

    def _chunk(self, X: np.ndarray, k0: int, k1: int) -> tuple:
        """``advance`` over plant steps k0 to k1, in one go.

        Under a rule whose terms are all nonnegative and which has a rate
        (``monotone``), each threshold c + b + (a - b) d is monotone in t,
        since d = exp(-rate (t - t_k)) is, and so is its computed value: the
        computed d never rises with t, and a sum of nonnegative products
        rounds within a few ulp of its exact value.  Over the chunk every
        threshold is then at least the smallest one at its first and last
        step, less a relative 1e-9 for rounding.  If every |r| lies below
        that, no slot is flagged, and only the log steps' thresholds are
        evaluated; ``thresholds`` computes each entry on its own, so they
        have the bits of the full evaluation.  Otherwise (a residual near
        its threshold, a NaN) every step's thresholds are evaluated."""
        est, length = self.est, k1 - k0
        if len(self.z) <= length:
            self.z = np.empty((length + 1, *self.z.shape[1:]))
        z = self.z[: length + 1]
        z[0, :, :est] = self.x_hat
        z[:length, :, est:] = np.concatenate((X[k0:k1], X[k0 + 1 : k1 + 1]), axis=1)[
            :, self.gather
        ]
        _step_bank(self.step_mat, z, est)
        # a neighbor's residual is its measured position minus its estimate
        res = X[k0 + 1 : k1 + 1, self.slot_meas] - z[1:].reshape(length, -1)[:, self.slot_state]
        t = np.arange(k0 + 1, k1 + 1) * self.h
        stop, flagged, eps = length, [], None
        if not self._clear(res, t):
            eps = self.thresholds(t)
            over = np.abs(res) > eps
            hit = over.any(axis=1).nonzero()[0]
            if hit.size:
                stop = int(hit[0]) + 1
                flagged = over[stop - 1].nonzero()[0].tolist()
                self.flag_t[flagged] = (k0 + stop) * self.h
        # a view that the next chunk copies to its first row
        self.x_hat = z[stop, :, :est]
        first = -(k0 + 1) % self.stride
        if first < stop:
            log = slice(first, stop, self.stride)
            self.logged.append(
                (t[log], res[log], self.thresholds(t[log]) if eps is None else eps[log])
            )
        last = stop - 1
        return k0 + stop, [(s, float(res[last, s]), float(eps[last, s])) for s in flagged]

    def _clear(self, res: np.ndarray, t: np.ndarray) -> bool:
        """Whether no residual of ``res`` can reach its threshold at the
        times ``t``, by the bound of a monotone rule (see ``_chunk``)."""
        if not self.monotone:
            return False
        floor = self.thresholds(t[[0, -1]]).min(initial=math.inf) * (1.0 - 1e-9)
        return bool((np.abs(res) < floor).all())

    def close(self, epochs: list):
        """Return the estimates to their owners and append the log, with the
        slots' verdict times, to ``epochs``."""
        for k, obs in enumerate(self.observers):
            obs.x_hat = self.x_hat[k, : 2 * obs.view.size].copy()
        if self.logged and self.pairs:
            t, res, eps = (np.concatenate(part) for part in zip(*self.logged))
            epochs.append(
                LogEpoch(t, res, eps, tuple(self.pairs), self.flag_t, tuple(self.groups))
            )


def run_rescue(problem: RescueProblem) -> RescueResult:
    """Algorithm core: plant step, observer steps, hypothesis tests, pruning.

    Detectors run on the ground-truth cooperative agents (malicious agents do
    not execute the defense).  A verdict against neighbor j removes edge
    (i, j) from every mode starting at the next tick and reconfigures every
    observer whose view changed: those whose local edge set changed, the
    edges touching the owner or one of its 1-hop neighbors.
    """
    net, gains, settings = problem.net, problem.gains, problem.detector
    n = net.node_count
    h = problem.step_h

    consts = None
    x0_norm = float(np.linalg.norm(problem.initial.stacked()))
    certified = settings.threshold.kind == "analytic"
    if certified:
        report = pe_margin(net, settings.pe_window)
        if report.mu <= 0:
            raise ConfigurationError("analytic thresholds require a positive PE margin")
        consts = stability_constants(report.mu, settings.pe_window, gains, n)
    w_budget = _auto_w_budget(problem, consts)

    detectors = problem.cooperative
    removed: set = set()
    observers: dict[int, ObserverState] = {}
    bank: _ObserverBank | None = None
    views: dict = {}  # (owner, local edge set) -> (view, gain, step matrices)
    models: dict = {}  # (a_model, c_meas) bytes -> (gain, step matrices)
    events: list[IsolationEvent] = []
    epochs: list[LogEpoch] = []
    agents = _attackers(problem.attacks)

    def local_view(g, i) -> tuple:
        """Detector ``i``'s view of ``g``, its gain and its step matrices:
        the view built the first time the run meets ``i``'s local edge set,
        the gain and step matrices the first time it meets the view's
        model, of which they are functions alone."""
        key = _view_key(g, i)
        entry = views.get(key)
        if entry is None:
            view = two_hop_view(g, i, gains)
            model = (view.a_model.tobytes(), view.c_meas.tobytes())
            design = models.get(model)
            if design is None:
                if certified:
                    gain = design_gain(view)
                else:
                    gain = ObserverGain(gain_matrix(view, STRUCTURED_K1), None, None, None)
                design = models[model] = (gain, _observer_step_matrices(view, gain, h))
            entry = views[key] = (view, *design)
        return entry

    def on_edges(edges, t, x):
        """Hand the bank's state back, reconfigure every observer whose view
        changed and build the bank from a row per detector; return the
        plant's step matrices and the bank.  An equal local edge set gives
        the very view object the observer holds, so identity tells an
        unchanged view."""
        nonlocal bank
        if bank is not None:
            bank.close(epochs)
        graph_eff = Graph(n, tuple(sorted(edges)))
        plant = _plant_matrices(graph_eff, gains, agents, h)
        rows = []
        for i in detectors:
            view, gain, mats = local_view(graph_eff, i)
            obs = observers.get(i)
            if obs is None:
                obs = observers[i] = ObserverState(view, gain, w_budget, t)
                obs.reinit(view.measure(x[:n], x[n:]), t)
            elif view.members != obs.view.members:
                obs.remap(view, gain, view.measure(x[:n], x[n:]), t)
            elif view is not obs.view:
                # pure edge change: swap the model, keep the estimate
                obs.reconfigure(view, gain, t, keep_state=True)
            terms = settings.threshold.terms(obs, 0.0, x0_norm, consts)
            rows.append((obs, mats, graph_eff.neighbors(i), terms))
        bank = _ObserverBank(rows, n, h, settings.residual_log_stride)
        return plant, bank

    def advance(context, X, k0, k1, U):
        """The plant's rows of the block, then the bank's; Python runs per
        pair only on a new verdict, which ends the block."""
        plant, bank = context
        _plant_rows(plant, X, k0, k1, U)
        k_end, verdicts = bank.advance(X, k0, k1)
        t = k_end * h
        for s, res, eps in verdicts:
            i, j = bank.pairs[s]
            removed.add((min(i, j), max(i, j)))
            events.append(IsolationEvent(t, i, j, res, eps))
        return k_end

    trace = _walk(
        net, problem.initial, problem.attacks, problem.dos, problem.horizon, h,
        on_edges, advance, removed,
    )
    bank.close(epochs)
    run = RescueRun(
        problem=problem,
        events=tuple(events),
        removed_edges=frozenset(removed),
        cooperative=detectors,
        consts=consts,
    )
    return RescueResult(trace=trace, run=run, residual_log=ResidualLog(tuple(epochs)))


def post_isolation_connectivity(run: RescueRun, window: float | None = None) -> PEReport:
    """PE margin of the cooperative network after all isolations: drop the
    ground-truth malicious nodes and every permanently removed edge."""
    problem = run.problem
    window = window if window is not None else problem.detector.pe_window
    modes = tuple(g.drop_edges(run.removed_edges) for g in problem.net.modes)
    pruned = SwitchingNetwork(modes, problem.net.schedule, problem.net.horizon)
    if problem.malicious:
        pruned = remove_nodes(pruned, problem.malicious).network
    return pe_margin(pruned, window)


def isolation_complete(run: RescueRun, effective: Graph) -> bool:
    """Every malicious agent with a cooperative 1-hop neighbor on the
    effective graph was isolated by all such neighbors."""
    malicious = run.problem.malicious
    for m in sorted(malicious):
        coop_nbrs = set(effective.neighbors(m)) - malicious
        if coop_nbrs and not coop_nbrs <= run.isolated_by(m):
            return False
    return True


# ---------------------------------------------------------------------------
# DP-MSR baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DPMSRConfig:
    f_max: int

    def __post_init__(self):
        if self.f_max < 0:
            raise ValueError("f_max must be >= 0")


# terms added per statement of a compiled DP-MSR block: a chain of binary
# operators nests one level in the compiler per term, so a long sum is split
# into statements and any degree compiles
_CHAIN = 32


def _sum_lines(terms) -> list:
    """Statements that set ``s`` to 0.0 plus ``terms`` added left to right."""
    lines, acc = [], "0.0"
    for k in range(0, len(terms), _CHAIN):
        lines.append(f"s = {' + '.join([acc, *terms[k : k + _CHAIN]])}")
        acc = "s"
    return lines or ["s = 0.0"]


def _dp_msr_block(nbrs_of, columns, f: int):
    """Compile the DP-MSR step of one edge set into straight-line Python.

    ``block(x, steps, na, g, ts, half)`` steps the state list ``x`` once per
    row ``inj`` of ``steps`` and returns the new states as tuples.  Every
    p_i, v_i and u_i is a local.  A cooperative agent (``columns[i]`` None)
    sorts its relative positions to ``nbrs_of[i]``, unpacks them, drops the
    ``f`` largest and ``f`` smallest and adds the rest left to right from
    0.0; equal values are interchangeable, so sorting by value alone keeps
    the kept sum.  An attacker adds every relative position the same way,
    then ``inj[c]``.  The control is u_i = na * s - g * v_i and the hold
    p_i + ts * v_i + half * u_i, v_i + ts * u_i: per step, the float
    operations of a loop over agents and neighbors, in its order.  Builtin
    ``sum`` is never used, as it compensates rounding on floats from
    Python 3.12.  The source holds integer indices and fixed names only."""
    n = len(columns)
    state = ", ".join([f"p{i}" for i in range(n)] + [f"v{i}" for i in range(n)])
    body = []
    for i, (nbrs, c) in enumerate(zip(nbrs_of, columns)):
        diffs = [f"p{i} - p{j}" for j in nbrs]
        if c is None:
            kept = range(f, len(diffs) - f)
            if kept:
                names = [f"d{k}" if k in kept else "_" for k in range(len(diffs))]
                body.append(f"{', '.join(names)}, = sorted([{', '.join(diffs)}])")
            terms = [f"d{k}" for k in kept]
        else:
            terms = [f"({d})" for d in diffs]
        body += _sum_lines(terms)
        inj = "" if c is None else f" + inj[{c}]"
        body.append(f"u{i} = na * s - g * v{i}{inj}")
    # exact zero-order hold of the double integrator
    hold = [f"p{i} + ts * v{i} + half * u{i}" for i in range(n)]
    hold += [f"v{i} + ts * u{i}" for i in range(n)]
    body += [f"x = ({', '.join(hold)})", "append(x)", f"{state} = x"]
    source = "\n".join(
        [
            "def block(x, steps, na, g, ts, half):",
            f"    {state} = x",
            "    rows = []",
            "    append = rows.append",
            "    for inj in steps:",
            *[f"        {line}" for line in body],
            "    return rows",
        ]
    )
    namespace = {}
    exec(compile(source, "<dp_msr block>", "exec"), namespace)
    # popped, so that the block and its namespace form no reference cycle
    # and a released block is freed at once
    return namespace.pop("block")


def _dp_msr_loop(nbrs_of, columns, f: int):
    """The block function of ``_dp_msr_block`` as a loop over agents and
    neighbors, with no compile: the same float operations in the same
    order, so either steps an edge set to the same bits."""
    n = len(columns)
    agents = list(zip(range(n), nbrs_of, columns))

    def block(x, steps, na, g, ts, half):
        rows = []
        for inj in steps:
            p, v = x[:n], x[n:]
            u = []
            for i, nbrs, c in agents:
                pi = p[i]
                d = [pi - p[j] for j in nbrs]
                if c is None:
                    d.sort()
                    d = d[f : len(d) - f]
                s = 0.0
                for dk in d:
                    s += dk
                u.append(na * s - g * v[i] if c is None else na * s - g * v[i] + inj[c])
            # exact zero-order hold of the double integrator
            x = [pk + ts * vk + half * uk for pk, vk, uk in zip(p, v, u)]
            x += [vk + ts * uk for vk, uk in zip(v, u)]
            rows.append(x)
        return rows

    return block


# timeline steps from which an edge set's DP-MSR step is compiled.  A
# compiled block pays for its compile after about 60-100 steps (8 to 261
# agents, CPython 3.11 on x86-64: 0.75 ms against 8 us saved per step for
# 8 agents, 7 ms against 86 us for 84); an edge set held for fewer steps,
# as under one-step DoS trials, runs the loop instead
_COMPILE_STEPS = 80


def dp_msr_run(problem: RescueProblem, cfg: DPMSRConfig) -> SimulationTrace:
    """Zero-order-hold discretization of the consensus protocol with MSR-style
    trimming: each cooperative agent sorts its neighbors' relative-position
    values, discards the f_max largest and smallest, and applies the control
    to the remainder.  Malicious agents run the untrimmed protocol plus their
    injection.  The hold lasts the problem's ``step_h`` and the control uses
    its ``gains``, so the run sees the network, attacks and realized DoS of
    ``simulate`` and ``run_rescue`` on the same problem.

    Each effective edge set's step is built once, when the walk first
    enters the edge set, and released after its last timeline entry, as
    ``simulate`` keeps its step matrices (``dynamics._edge_set_cache``).
    An edge set that the timeline holds for at least ``_COMPILE_STEPS``
    steps in all is compiled into straight-line Python (``_dp_msr_block``);
    a shorter-lived one runs the same operations as a loop
    (``_dp_msr_loop``).  A block of steps runs on Python floats: one
    ``tolist()`` of its first state and one of its injections, and its
    rows written back at once."""
    n = problem.net.node_count
    # inj[columns[i]] is attacker i's injection at the sample time, the first
    # of the three instants the walker samples per step; None for the others
    column = {agent: c for c, agent in enumerate(_attackers(problem.attacks))}
    columns = [column.get(i) for i in range(n)]
    ts, gains = problem.step_h, problem.gains
    consts = (-gains.alpha, gains.gamma, ts, 0.5 * ts * ts)

    def build(edges, steps):
        g = Graph(n, tuple(edges))
        make = _dp_msr_block if steps >= _COMPILE_STEPS else _dp_msr_loop
        return make([g.neighbors(i) for i in range(n)], columns, cfg.f_max)

    def advance(block, X, k0, k1, U):
        X[k0 + 1 : k1 + 1] = block(X[k0].tolist(), U.tolist(), *consts)
        return k1

    on_timeline, on_edges = _edge_set_cache(build)
    return _walk(
        problem.net,
        problem.initial,
        problem.attacks,
        problem.dos,
        problem.horizon,
        ts,
        on_edges,
        advance,
        on_timeline=on_timeline,
    )
