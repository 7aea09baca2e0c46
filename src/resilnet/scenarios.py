"""Scenario configuration: ingestion, generation, and lossless round-trips.

A scenario document pins everything a run needs -- network (inline modes or a
seeded generator), gains, initial state, attacks, DoS schedule, observer
settings, integrator step -- with every random choice carried as an explicit
seed so identical configs reproduce identical traces bit for bit.

The dataclasses are plain data: each checks its own fields as it is built,
and ``materialize`` checks how the fields relate (the step grid, the trace
limit, the PE window, the attacked agents, RK4's stability) before it builds
anything of a run's size.  Every verb materializes its document before it
writes a file, so a rejected document gets one error category whatever the
verb.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import (
    AttackSignal,
    DeceptionAttack,
    DoSInterval,
    DoSRandomSpec,
    DoSSchedule,
    Gains,
    SystemState,
    _grid_steps,
    _on_grid,
    check_step_stability,
)
from .errors import ConfigurationError
from .graphs import (
    Graph,
    SwitchingNetwork,
    generate_r_robust_preferential,
    union_graph,
)
from .isolation import DetectorSettings, DPMSRConfig, RescueProblem
from .observers import ThresholdRule


@dataclass(frozen=True)
class GeneratorSpec:
    """Seeded overlay construction plus a two-mode alternating edge split.

    "r_robust_preferential" grows an r-robust overlay by preferential
    attachment (robust by construction, so ``r`` is its certificate) and
    blinks a seeded ``blink_fraction`` of its edges between well-connected
    endpoints: half of them are missing from each mode, every other edge
    stays shared (``split_edges_blinking``, drawn from ``split_seed``; they
    default to 0.1 and 0).  "clique_pendant" builds the 8-node overlay used
    by the first case study: a clique core plus two degree-r pendant nodes
    (5 and 6) whose link sets alternate between the modes while the core
    stays mostly shared, keeping every core agent's 2-hop membership
    identical across modes.  It draws from ``seed`` alone and rejects a
    ``max_degree``, ``split_seed`` or ``blink_fraction``, which would change
    nothing.
    """

    kind: str
    n: int
    r: int
    seed: int
    max_degree: int | None = None
    split_period: float = 0.5
    split_seed: int | None = None
    blink_fraction: float | None = None

    def __post_init__(self):
        if self.kind not in ("r_robust_preferential", "clique_pendant"):
            raise ConfigurationError(f"unknown network generator {self.kind!r}")
        if not self.split_period > 0:
            raise ConfigurationError("split_period must be positive")
        if self.kind == "clique_pendant":
            if self.n != 8 or self.r != 3:
                raise ConfigurationError("clique_pendant overlay is defined for n=8, r=3")
            for name in ("max_degree", "split_seed", "blink_fraction"):
                if getattr(self, name) is not None:
                    raise ConfigurationError(f"{name} has no effect on a clique_pendant overlay")
            return
        if self.split_seed is None:
            object.__setattr__(self, "split_seed", 0)
        if self.blink_fraction is None:
            object.__setattr__(self, "blink_fraction", 0.1)
        if not 0.0 < self.blink_fraction <= 1.0:
            raise ConfigurationError("blink_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class NetworkSpec:
    horizon: float
    modes: tuple[Graph, ...] | None = None
    schedule: tuple[tuple[float, int], ...] | None = None
    generator: GeneratorSpec | None = None

    def __post_init__(self):
        if self.generator is not None:
            if self.modes is not None or self.schedule is not None:
                raise ConfigurationError("a generated network takes no inline modes or schedule")
        elif self.modes is None or self.schedule is None:
            raise ConfigurationError(
                "network needs either inline modes+schedule or a generator"
            )


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "uniform"
    low: float = -5.0
    high: float = 5.0
    seed: int = 0
    p_tilde: tuple[float, ...] | None = None
    v: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "explicit"):
            raise ConfigurationError(f"unknown initial-state kind {self.kind!r}")
        if self.kind == "explicit" and (self.p_tilde is None or self.v is None):
            raise ConfigurationError("explicit initial state needs p_tilde and v")
        for name in ("p_tilde", "v"):
            if self.kind == "uniform" and getattr(self, name) is not None:
                raise ConfigurationError(f"{name} has no effect on a uniform initial state")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    network: NetworkSpec
    gains: Gains
    initial: InitialSpec
    attacks: tuple[DeceptionAttack, ...] = ()
    dos: DoSSchedule | None = None
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    step_h: float = 1e-3
    dp_msr: DPMSRConfig | None = None


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def split_edges_alternating(
    overlay: Graph, period: float, horizon: float, seed
) -> SwitchingNetwork:
    """Split the overlay's edges into two disjoint halves that alternate every
    ``period``; their union (hence the effective graph for windows covering a
    full cycle) is the overlay itself."""
    rng = np.random.default_rng(seed)
    order = list(overlay.edges)
    rng.shuffle(order)
    half = len(order) // 2
    mode_a = Graph(overlay.node_count, tuple(order[:half]))
    mode_b = Graph(overlay.node_count, tuple(order[half:]))
    return SwitchingNetwork(
        (mode_a, mode_b), _alternating_schedule(period, horizon), horizon
    )


def split_edges_blinking(
    overlay: Graph,
    period: float,
    horizon: float,
    seed,
    blink_fraction: float = 0.1,
    min_endpoint_degree: int | None = None,
) -> SwitchingNetwork:
    """Alternate two near-overlay modes: a seeded edge subset blinks, half of
    it missing from each mode, everything else stays shared.  Useful for
    sparse overlays where agents' 2-hop views would not survive a disjoint
    split.

    ``min_endpoint_degree`` restricts the blinking candidates to edges whose
    endpoints are both at least that well connected, so the switching
    transients stay in the stiff part of the graph.
    """
    rng = np.random.default_rng(seed)
    order = list(overlay.edges)
    rng.shuffle(order)
    if min_endpoint_degree is not None:
        stiff = [
            e
            for e in order
            if min(overlay.degree(e[0]), overlay.degree(e[1])) >= min_endpoint_degree
        ]
        if len(stiff) >= 2:
            order = stiff
    count = max(2, int(round(blink_fraction * len(overlay.edges))))
    blink = order[: min(count, len(order))]
    mode_a = overlay.drop_edges(blink[0::2])
    mode_b = overlay.drop_edges(blink[1::2])
    return SwitchingNetwork(
        (mode_a, mode_b), _alternating_schedule(period, horizon), horizon
    )


def _alternating_schedule(period: float, horizon: float) -> tuple:
    switches = []
    t, idx = 0.0, 0
    while t < horizon - 1e-12:
        switches.append((round(t, 9), idx))
        idx = 1 - idx
        t += period
    return tuple(switches)


def _clique_pendant_modes(seed) -> tuple:
    """The two modes of an 8-node overlay: clique core {0,1,2,3,4,7} plus
    pendant nodes 5 and 6, each attached to 3 seeded core nodes with exactly
    one target in common.

    Each mode keeps two of every pendant's three links and all but one core
    edge, so the modes' union is the overlay and every core agent's 2-hop
    membership is mode-invariant.  The overlay inherits 3-robustness from
    the 3-robust clique core by r-edge attachment.
    """
    core = (0, 1, 2, 3, 4, 7)
    rng = np.random.default_rng(seed)
    a, b, c, d, e = (int(x) for x in rng.choice(core, size=5, replace=False))
    core_edges = [
        (min(u, v), max(u, v))
        for k, u in enumerate(core)
        for v in core[k + 1 :]
    ]
    pendant5 = [(min(5, x), max(5, x)) for x in (a, b, c)]
    pendant6 = [(min(6, x), max(6, x)) for x in (c, d, e)]
    overlay = Graph(8, tuple(core_edges + pendant5 + pendant6))
    blink = [core_edges[int(i)] for i in rng.choice(len(core_edges), size=2, replace=False)]
    return (
        overlay.drop_edges([pendant5[0], pendant6[1], blink[0]]),
        overlay.drop_edges([pendant5[1], pendant6[2], blink[1]]),
    )


def build_network(spec: NetworkSpec) -> SwitchingNetwork:
    if spec.generator is None:
        return SwitchingNetwork(spec.modes, spec.schedule, spec.horizon)
    gen = spec.generator
    if gen.kind == "clique_pendant":
        return SwitchingNetwork(
            _clique_pendant_modes(gen.seed),
            _alternating_schedule(gen.split_period, spec.horizon),
            spec.horizon,
        )
    return split_edges_blinking(
        generate_r_robust_preferential(gen.n, gen.r, gen.seed, gen.max_degree),
        gen.split_period,
        spec.horizon,
        gen.split_seed,
        gen.blink_fraction,
        min_endpoint_degree=5,
    )


def build_initial(spec: InitialSpec, n: int) -> SystemState:
    if spec.kind == "explicit":
        p = np.asarray(spec.p_tilde, dtype=float)
        v = np.asarray(spec.v, dtype=float)
        if p.size != n or v.size != n:
            raise ConfigurationError("explicit initial state has wrong length")
        return SystemState(p, v)
    rng = np.random.default_rng(spec.seed)
    return SystemState(rng.uniform(spec.low, spec.high, n), np.zeros(n))


def materialize(config: ScenarioConfig) -> RescueProblem:
    """Check the document as a whole and build its run's inputs.

    Every verb calls this before it writes anything.  What relates fields
    to each other is checked here, each field alone in its dataclass.  The
    grid, the split period and the DoS trials are checked before anything
    of the run's size is built: a generated schedule holds one entry per
    ``split_period``, at most one per step."""
    spec, h = config.network, config.step_h
    gen = spec.generator
    if gen is None:
        n = spec.modes[0].node_count if spec.modes else 0
        _grid_steps(spec.horizon, n, h, (t for t, _ in spec.schedule))
    else:
        _grid_steps(spec.horizon, gen.n, h)
        period = gen.split_period
        if not (period > h / 2 and _on_grid(period, h)):
            raise ConfigurationError(f"split_period {period} is not a multiple of step {h}")
    intervals = config.dos.intervals if config.dos is not None else ()
    for k, iv in enumerate(intervals):
        if iv.random is not None and not iv.duration / iv.random.trials >= h:
            raise ConfigurationError(
                f"the {iv.random.trials} trials of DoS interval {k} are shorter "
                f"than one step of {h}"
            )
    if spec.horizon - config.detector.pe_window < -1e-12:
        raise ConfigurationError("horizon shorter than the PE window")
    net = build_network(spec)
    random_dos = any(iv.random is not None for iv in intervals)
    if random_dos and not any(g.edges for g in net.modes):
        raise ConfigurationError(
            "a random DoS interval draws links to drop, but no mode of the network has an edge"
        )
    initial = build_initial(config.initial, net.node_count)
    for atk in config.attacks:
        if not 0 <= atk.agent < net.node_count:
            raise ConfigurationError(f"attack agent {atk.agent} out of range")
    if len({atk.agent for atk in config.attacks}) == net.node_count:
        raise ConfigurationError("every agent is attacked: no agent is cooperative")
    check_step_stability(net, config.gains, h)
    return RescueProblem(
        net=net,
        gains=config.gains,
        initial=initial,
        attacks=tuple(config.attacks),
        dos=config.dos,
        step_h=config.step_h,
        detector=config.detector,
    )


# ---------------------------------------------------------------------------
# Canonical scenarios
# ---------------------------------------------------------------------------


def generate_example1(seed: int = 0) -> ScenarioConfig:
    """8 agents on a 3-robust overlay split into two 0.5 s modes; agents 5
    and 6 inject 0.3t / 0.5t ramps; counted-trials DoS (100 draws at 0.3)
    runs for the first 10 s; constant detection threshold 0.95."""
    rng = np.random.default_rng(seed)
    # sub[1] is unused (the overlay draws from sub[0] alone), but still drawn
    # so that the initial state and the DoS trials keep their seeds
    sub = [int(s) for s in rng.integers(0, 2**31 - 1, size=4)]
    return ScenarioConfig(
        name="example1",
        network=NetworkSpec(
            horizon=30.0,
            generator=GeneratorSpec(
                kind="clique_pendant",
                n=8,
                r=3,
                seed=sub[0],
                split_period=0.5,
            ),
        ),
        gains=Gains(alpha=1.0, gamma=3.0),
        initial=InitialSpec(kind="uniform", low=-5.0, high=5.0, seed=sub[2]),
        attacks=(
            DeceptionAttack(agent=5, activation_time=0.0, signal=AttackSignal("ramp", slope=0.3)),
            DeceptionAttack(agent=6, activation_time=0.0, signal=AttackSignal("ramp", slope=0.5)),
        ),
        dos=DoSSchedule(
            intervals=(
                DoSInterval(
                    start=0.0,
                    duration=10.0,
                    random=DoSRandomSpec(trials=100, success_prob=0.3, seed=sub[3]),
                ),
            )
        ),
        detector=DetectorSettings(
            threshold=ThresholdRule(kind="constant", value=0.95),
            pe_window=1.0,
            residual_log_stride=10,
        ),
        step_h=1e-3,
        dp_msr=DPMSRConfig(f_max=1),
    )


def _pick_one_local_set(
    overlay: Graph, count: int, rng, attempts: int = 200
) -> tuple:
    """A malicious set that is 1-local on the overlay (no cooperative agent
    has two malicious neighbors) with every member visible to some
    cooperative neighbor.

    Greedy seeded construction: nodes are taken in random order and accepted
    while no cooperative agent would see a second malicious neighbor.
    """
    n = overlay.node_count
    neighbors = {i: set(overlay.neighbors(i)) for i in range(n)}
    for _ in range(attempts):
        order = [int(x) for x in rng.permutation(n)]
        cand: set = set()
        for m in order:
            if m in cand:
                continue
            ok = all(
                not (cand & neighbors[x]) for x in neighbors[m] if x not in cand
            )
            if ok and neighbors[m] - cand:
                cand.add(m)
                if len(cand) == count:
                    break
        if len(cand) == count and all(neighbors[m] - cand for m in cand):
            final = all(
                len(cand & neighbors[i]) <= 1 for i in range(n) if i not in cand
            )
            if final:
                return tuple(sorted(cand))
    raise ConfigurationError(
        f"could not place a 1-local set of {count} agents in {attempts} attempts"
    )


def generate_example2(seed: int = 0) -> ScenarioConfig:
    """84 agents on a degree-capped 2-robust preferential-attachment overlay
    with a blinking mode split; a 1-local set of 9 malicious agents injects
    seeded ramps; counted-trials DoS (600 dropout draws at 0.4) spans the
    horizon; threshold 10 e^{-t} + 0.95."""
    rng = np.random.default_rng(seed)
    sub = [int(s) for s in rng.integers(0, 2**31 - 1, size=6)]
    overlay = generate_r_robust_preferential(84, 2, sub[0], max_degree=9)
    placement_rng = np.random.default_rng(sub[1])
    malicious = _pick_one_local_set(overlay, 9, placement_rng)
    slope_rng = np.random.default_rng(sub[2])
    attacks = tuple(
        DeceptionAttack(
            agent=m,
            activation_time=0.0,
            signal=AttackSignal("ramp", slope=float(slope_rng.uniform(3.5, 6.0))),
        )
        for m in malicious
    )
    return ScenarioConfig(
        name="example2",
        network=NetworkSpec(
            horizon=40.0,
            generator=GeneratorSpec(
                kind="r_robust_preferential",
                n=84,
                r=2,
                seed=sub[0],
                max_degree=9,
                split_period=0.5,
                split_seed=sub[3],
                blink_fraction=0.03,
            ),
        ),
        gains=Gains(alpha=5.0, gamma=3.0),
        initial=InitialSpec(kind="uniform", low=-5.0, high=5.0, seed=sub[4]),
        attacks=attacks,
        dos=DoSSchedule(
            intervals=(
                DoSInterval(
                    start=0.0,
                    duration=40.0,
                    random=DoSRandomSpec(trials=600, success_prob=0.4, seed=sub[5]),
                ),
            )
        ),
        detector=DetectorSettings(
            threshold=ThresholdRule(kind="exponential", amplitude=10.0, rate=1.0, offset=0.95),
            pe_window=1.0,
            residual_log_stride=50,
        ),
        step_h=1e-3,
    )


# ---------------------------------------------------------------------------
# Seeded test networks
# ---------------------------------------------------------------------------


def random_connected_graph(rng, n: int, extra_edge_prob: float = 0.35) -> Graph:
    """Random spanning tree plus Bernoulli extra edges; always connected."""
    edges = set()
    order = list(rng.permutation(n))
    for k in range(1, n):
        a = order[k]
        b = order[int(rng.integers(0, k))]
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return Graph(n, tuple(sorted(edges)))


def network_union(net: SwitchingNetwork) -> Graph:
    return union_graph(net.modes)


# ---------------------------------------------------------------------------
# Serialization (lossless JSON-compatible dicts)
# ---------------------------------------------------------------------------


def _encode(value):
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(x) for x in value]
    return value


def config_to_dict(c: ScenarioConfig) -> dict:
    """Every field of every dataclass by name, in field order; tuples become
    lists and absent optionals ``None``."""
    return _encode(c)


def _decode(hint, value, path: str):
    """Build ``hint`` from a JSON value, strictly: no coercion between types,
    finite floats only, no unknown or missing dataclass fields.  Failures
    name the field path; ``__post_init__`` errors propagate unchanged."""
    if get_origin(hint) is UnionType:
        if value is None and NoneType in get_args(hint):
            return None
        (inner,) = (a for a in get_args(hint) if a is not NoneType)
        return _decode(inner, value, path)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path} must be an object")
        unknown = sorted(set(value) - {f.name for f in fields(hint)})
        if unknown:
            raise ConfigurationError(
                "unknown field(s) " + ", ".join(f"{path}.{name}" for name in unknown)
            )
        hints = get_type_hints(hint)
        kwargs = {}
        for f in fields(hint):
            if f.name in value:
                kwargs[f.name] = _decode(hints[f.name], value[f.name], f"{path}.{f.name}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigurationError(f"missing field {path}.{f.name}")
        return hint(**kwargs)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{path} must be a list")
        args = get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{path} must have {len(args)} entries")
        return tuple(
            _decode(a, x, f"{path}[{k}]") for k, (a, x) in enumerate(zip(args, value))
        )
    if hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        raise ConfigurationError(f"{path} must be a finite number")
    if type(value) is not hint:
        raise ConfigurationError(f"{path} must be of type {hint.__name__}")
    return value


def config_from_dict(d: dict) -> ScenarioConfig:
    """Inverse of ``config_to_dict``; raises ``ConfigurationError`` naming the
    path of the first malformed field."""
    return _decode(ScenarioConfig, d, "scenario")
