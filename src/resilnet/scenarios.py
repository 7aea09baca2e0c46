"""Scenario configuration: ingestion, generation, and lossless round-trips.

A scenario document pins everything a run needs -- network (inline modes or a
seeded generator), gains, initial state, attacks, DoS schedule, observer
settings, integrator step -- with every random choice carried as an explicit
seed so identical configs reproduce identical traces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    AttackSignal,
    DeceptionAttack,
    DoSInterval,
    DoSRandomSpec,
    DoSSchedule,
    Gains,
    SystemState,
)
from .errors import ConfigurationError
from .graphs import (
    CertifiedGraph,
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

    "r_robust_preferential" grows a certified r-robust overlay and splits its
    edges into disjoint alternating halves.  "clique_pendant" builds the
    8-node overlay used by the first case study: a clique core plus two
    degree-r pendant nodes (5 and 6) whose link sets alternate between the
    modes while the core stays mostly shared, keeping every core agent's
    2-hop membership identical across modes.
    """

    kind: str
    n: int
    r: int
    seed: int
    max_degree: int | None = None
    split_period: float = 0.5
    split_seed: int = 0
    split_style: str = "halves"  # "halves": disjoint split; "blink": a small
    blink_fraction: float = 0.1  # seeded edge subset alternates off per mode

    def __post_init__(self):
        if self.kind not in ("r_robust_preferential", "clique_pendant"):
            raise ConfigurationError(f"unknown network generator {self.kind!r}")
        if self.kind == "clique_pendant" and (self.n != 8 or self.r != 3):
            raise ConfigurationError("clique_pendant overlay is defined for n=8, r=3")
        if self.split_style not in ("halves", "blink"):
            raise ConfigurationError(f"unknown split style {self.split_style!r}")
        if not 0.0 < self.blink_fraction <= 1.0:
            raise ConfigurationError("blink_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class NetworkSpec:
    horizon: float
    modes: tuple | None = None
    schedule: tuple | None = None
    generator: GeneratorSpec | None = None

    def __post_init__(self):
        inline = self.modes is not None and self.schedule is not None
        if inline == (self.generator is not None):
            raise ConfigurationError(
                "network needs either inline modes+schedule or a generator"
            )


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "uniform"
    low: float = -5.0
    high: float = 5.0
    seed: int = 0
    p_tilde: tuple | None = None
    v: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "explicit"):
            raise ConfigurationError(f"unknown initial-state kind {self.kind!r}")
        if self.kind == "explicit" and (self.p_tilde is None or self.v is None):
            raise ConfigurationError("explicit initial state needs p_tilde and v")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    network: NetworkSpec
    gains: Gains
    initial: InitialSpec
    attacks: tuple = ()
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


def _clique_pendant_overlay(seed) -> tuple:
    """8-node overlay: clique core {0,1,2,3,4,7} plus pendant nodes 5 and 6,
    each attached to 3 seeded core nodes with exactly one target in common.

    Returns (overlay, mode_a, mode_b).  Each mode keeps two of every
    pendant's three links and all but one core edge, so the modes' union is
    the overlay and every core agent's 2-hop membership is mode-invariant.
    The overlay inherits 3-robustness from the 3-robust clique core by
    r-edge attachment.
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
    mode_a = overlay.drop_edges([pendant5[0], pendant6[1], blink[0]])
    mode_b = overlay.drop_edges([pendant5[1], pendant6[2], blink[1]])
    return overlay, mode_a, mode_b


def build_network(spec: NetworkSpec) -> SwitchingNetwork:
    if spec.generator is None:
        return SwitchingNetwork(spec.modes, spec.schedule, spec.horizon)
    gen = spec.generator
    if gen.kind == "clique_pendant":
        _, mode_a, mode_b = _clique_pendant_overlay(gen.seed)
        return SwitchingNetwork(
            (mode_a, mode_b),
            _alternating_schedule(gen.split_period, spec.horizon),
            spec.horizon,
        )
    cert = generate_r_robust_preferential(gen.n, gen.r, gen.seed, gen.max_degree)
    if gen.split_style == "blink":
        return split_edges_blinking(
            cert.graph,
            gen.split_period,
            spec.horizon,
            gen.split_seed,
            gen.blink_fraction,
            min_endpoint_degree=5,
        )
    return split_edges_alternating(
        cert.graph, gen.split_period, spec.horizon, gen.split_seed
    )


def overlay_certificate(spec: NetworkSpec) -> CertifiedGraph | None:
    if spec.generator is None:
        return None
    gen = spec.generator
    if gen.kind == "clique_pendant":
        overlay, _, _ = _clique_pendant_overlay(gen.seed)
        return CertifiedGraph(
            graph=overlay,
            certified_r=gen.r,
            seed_clique=6,
            attachment_order=((5, ()), (6, ())),
        )
    return generate_r_robust_preferential(gen.n, gen.r, gen.seed, gen.max_degree)


def build_initial(spec: InitialSpec, n: int) -> SystemState:
    if spec.kind == "explicit":
        p = np.asarray(spec.p_tilde, dtype=float)
        v = np.asarray(spec.v, dtype=float)
        if p.size != n or v.size != n:
            raise ConfigurationError("explicit initial state has wrong length")
        return SystemState(p, v, 0.0)
    rng = np.random.default_rng(spec.seed)
    return SystemState(rng.uniform(spec.low, spec.high, n), np.zeros(n), 0.0)


def materialize(config: ScenarioConfig) -> RescueProblem:
    net = build_network(config.network)
    initial = build_initial(config.initial, net.node_count)
    for atk in config.attacks:
        if not 0 <= atk.agent < net.node_count:
            raise ConfigurationError(f"attack agent {atk.agent} out of range")
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
                split_seed=sub[1],
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
            dwell=1,
            pe_window=1.0,
            gain_k1=0.3,
            gain_kc=1.5,
            residual_log_stride=10,
        ),
        step_h=1e-3,
        dp_msr=DPMSRConfig(f_max=1, sample_time=1e-3, gains=Gains(alpha=1.0, gamma=3.0)),
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
    cert = generate_r_robust_preferential(84, 2, sub[0], max_degree=9)
    placement_rng = np.random.default_rng(sub[1])
    malicious = _pick_one_local_set(cert.graph, 9, placement_rng)
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
                split_style="blink",
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
            dwell=1,
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


def _check_keys(d: dict, allowed, context: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {sorted(unknown)} in {context}"
        )


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigurationError(f"missing field {key!r} in {context}")
    return d[key]


def graph_to_dict(g: Graph) -> dict:
    return {"node_count": g.node_count, "edges": [list(e) for e in g.edges]}


def graph_from_dict(d: dict, context: str = "graph") -> Graph:
    _check_keys(d, {"node_count", "edges"}, context)
    return Graph(
        int(_require(d, "node_count", context)),
        tuple(tuple(e) for e in _require(d, "edges", context)),
    )


def config_to_dict(c: ScenarioConfig) -> dict:
    net = {"horizon": c.network.horizon}
    if c.network.generator is not None:
        g = c.network.generator
        net["generator"] = {
            "kind": g.kind,
            "n": g.n,
            "r": g.r,
            "seed": g.seed,
            "max_degree": g.max_degree,
            "split_period": g.split_period,
            "split_seed": g.split_seed,
            "split_style": g.split_style,
            "blink_fraction": g.blink_fraction,
        }
    else:
        net["modes"] = [graph_to_dict(m) for m in c.network.modes]
        net["schedule"] = [[t, m] for t, m in c.network.schedule]
    init = {"kind": c.initial.kind}
    if c.initial.kind == "uniform":
        init.update(low=c.initial.low, high=c.initial.high, seed=c.initial.seed)
    else:
        init.update(p_tilde=list(c.initial.p_tilde), v=list(c.initial.v))
    out = {
        "name": c.name,
        "network": net,
        "gains": {"alpha": c.gains.alpha, "gamma": c.gains.gamma},
        "initial": init,
        "attacks": [
            {
                "agent": a.agent,
                "activation_time": a.activation_time,
                "signal": {
                    "kind": a.signal.kind,
                    "slope": a.signal.slope,
                    "value": a.signal.value,
                    "amplitude": a.signal.amplitude,
                    "frequency": a.signal.frequency,
                    "phase": a.signal.phase,
                },
            }
            for a in c.attacks
        ],
        "detector": {
            "threshold": {
                "kind": c.detector.threshold.kind,
                "value": c.detector.threshold.value,
                "amplitude": c.detector.threshold.amplitude,
                "rate": c.detector.threshold.rate,
                "offset": c.detector.threshold.offset,
            },
            "w_budget": c.detector.w_budget,
            "dwell": c.detector.dwell,
            "one_hop_only": c.detector.one_hop_only,
            "pe_window": c.detector.pe_window,
            "gain_k1": c.detector.gain_k1,
            "gain_kc": c.detector.gain_kc,
            "residual_log_stride": c.detector.residual_log_stride,
            "reinit_policy": c.detector.reinit_policy,
            "retain_grace": c.detector.retain_grace,
        },
        "step_h": c.step_h,
    }
    if c.dos is not None:
        out["dos"] = {
            "intervals": [
                {
                    "start": iv.start,
                    "duration": iv.duration,
                    "dropped_edges": (
                        [list(e) for e in iv.dropped_edges]
                        if iv.dropped_edges is not None
                        else None
                    ),
                    "random": (
                        {
                            "trials": iv.random.trials,
                            "success_prob": iv.random.success_prob,
                            "seed": iv.random.seed,
                            "scheme": iv.random.scheme,
                        }
                        if iv.random is not None
                        else None
                    ),
                }
                for iv in c.dos.intervals
            ]
        }
    if c.dp_msr is not None:
        out["dp_msr"] = {
            "f_max": c.dp_msr.f_max,
            "sample_time": c.dp_msr.sample_time,
            "gains": {"alpha": c.dp_msr.gains.alpha, "gamma": c.dp_msr.gains.gamma},
        }
    return out


def config_from_dict(d: dict) -> ScenarioConfig:
    _check_keys(
        d,
        {"name", "network", "gains", "initial", "attacks", "dos", "detector", "step_h", "dp_msr"},
        "scenario",
    )
    netd = _require(d, "network", "scenario")
    _check_keys(netd, {"horizon", "modes", "schedule", "generator"}, "network")
    if "generator" in netd:
        gd = netd["generator"]
        _check_keys(
            gd,
            {"kind", "n", "r", "seed", "max_degree", "split_period", "split_seed",
             "split_style", "blink_fraction"},
            "network.generator",
        )
        network = NetworkSpec(
            horizon=float(_require(netd, "horizon", "network")),
            generator=GeneratorSpec(
                kind=_require(gd, "kind", "network.generator"),
                n=int(_require(gd, "n", "network.generator")),
                r=int(_require(gd, "r", "network.generator")),
                seed=int(_require(gd, "seed", "network.generator")),
                max_degree=(
                    None if gd.get("max_degree") is None else int(gd["max_degree"])
                ),
                split_period=float(gd.get("split_period", 0.5)),
                split_seed=int(gd.get("split_seed", 0)),
                split_style=str(gd.get("split_style", "halves")),
                blink_fraction=float(gd.get("blink_fraction", 0.1)),
            ),
        )
    else:
        network = NetworkSpec(
            horizon=float(_require(netd, "horizon", "network")),
            modes=tuple(
                graph_from_dict(m, "network.modes")
                for m in _require(netd, "modes", "network")
            ),
            schedule=tuple(
                (float(t), int(m)) for t, m in _require(netd, "schedule", "network")
            ),
        )
    gd = _require(d, "gains", "scenario")
    _check_keys(gd, {"alpha", "gamma"}, "gains")
    gains = Gains(float(_require(gd, "alpha", "gains")), float(_require(gd, "gamma", "gains")))
    ind = _require(d, "initial", "scenario")
    _check_keys(ind, {"kind", "low", "high", "seed", "p_tilde", "v"}, "initial")
    kind = ind.get("kind", "uniform")
    if kind == "uniform":
        initial = InitialSpec(
            kind="uniform",
            low=float(ind.get("low", -5.0)),
            high=float(ind.get("high", 5.0)),
            seed=int(ind.get("seed", 0)),
        )
    else:
        initial = InitialSpec(
            kind="explicit",
            p_tilde=tuple(float(x) for x in _require(ind, "p_tilde", "initial")),
            v=tuple(float(x) for x in _require(ind, "v", "initial")),
        )
    attacks = []
    for k, ad in enumerate(d.get("attacks", [])):
        _check_keys(ad, {"agent", "activation_time", "signal"}, f"attacks[{k}]")
        sd = _require(ad, "signal", f"attacks[{k}]")
        _check_keys(
            sd,
            {"kind", "slope", "value", "amplitude", "frequency", "phase"},
            f"attacks[{k}].signal",
        )
        attacks.append(
            DeceptionAttack(
                agent=int(_require(ad, "agent", f"attacks[{k}]")),
                activation_time=float(ad.get("activation_time", 0.0)),
                signal=AttackSignal(
                    kind=_require(sd, "kind", f"attacks[{k}].signal"),
                    slope=float(sd.get("slope", 0.0)),
                    value=float(sd.get("value", 0.0)),
                    amplitude=float(sd.get("amplitude", 0.0)),
                    frequency=float(sd.get("frequency", 0.0)),
                    phase=float(sd.get("phase", 0.0)),
                ),
            )
        )
    dos = None
    if d.get("dos") is not None:
        dd = d["dos"]
        _check_keys(dd, {"intervals"}, "dos")
        ivs = []
        for k, ivd in enumerate(_require(dd, "intervals", "dos")):
            _check_keys(
                ivd, {"start", "duration", "dropped_edges", "random"}, f"dos.intervals[{k}]"
            )
            rnd = ivd.get("random")
            if rnd is not None:
                _check_keys(rnd, {"trials", "success_prob", "seed", "scheme"}, "dos.random")
            ivs.append(
                DoSInterval(
                    start=float(_require(ivd, "start", f"dos.intervals[{k}]")),
                    duration=float(_require(ivd, "duration", f"dos.intervals[{k}]")),
                    dropped_edges=(
                        tuple(tuple(e) for e in ivd["dropped_edges"])
                        if ivd.get("dropped_edges") is not None
                        else None
                    ),
                    random=(
                        DoSRandomSpec(
                            trials=int(_require(rnd, "trials", "dos.random")),
                            success_prob=float(_require(rnd, "success_prob", "dos.random")),
                            seed=int(_require(rnd, "seed", "dos.random")),
                            scheme=str(rnd.get("scheme", "event")),
                        )
                        if rnd is not None
                        else None
                    ),
                )
            )
        dos = DoSSchedule(intervals=tuple(ivs))
    det = d.get("detector", {})
    _check_keys(
        det,
        {
            "threshold",
            "w_budget",
            "dwell",
            "one_hop_only",
            "pe_window",
            "gain_k1",
            "gain_kc",
            "residual_log_stride",
            "reinit_policy",
            "retain_grace",
        },
        "detector",
    )
    td = det.get("threshold", {"kind": "constant", "value": 0.95})
    _check_keys(td, {"kind", "value", "amplitude", "rate", "offset"}, "detector.threshold")
    detector = DetectorSettings(
        threshold=ThresholdRule(
            kind=td.get("kind", "constant"),
            value=float(td.get("value", 0.95)),
            amplitude=float(td.get("amplitude", 0.0)),
            rate=float(td.get("rate", 1.0)),
            offset=float(td.get("offset", 0.0)),
        ),
        w_budget=(None if det.get("w_budget") is None else float(det["w_budget"])),
        dwell=int(det.get("dwell", 1)),
        one_hop_only=bool(det.get("one_hop_only", False)),
        pe_window=float(det.get("pe_window", 1.0)),
        gain_k1=float(det.get("gain_k1", 0.3)),
        gain_kc=float(det.get("gain_kc", 1.5)),
        residual_log_stride=int(det.get("residual_log_stride", 10)),
        reinit_policy=str(det.get("reinit_policy", "retain")),
        retain_grace=float(det.get("retain_grace", 1.0)),
    )
    dp = None
    if d.get("dp_msr") is not None:
        dpd = d["dp_msr"]
        _check_keys(dpd, {"f_max", "sample_time", "gains"}, "dp_msr")
        dpg = dpd.get("gains", {"alpha": 1.0, "gamma": 3.0})
        dp = DPMSRConfig(
            f_max=int(_require(dpd, "f_max", "dp_msr")),
            sample_time=float(dpd.get("sample_time", 1e-3)),
            gains=Gains(float(dpg["alpha"]), float(dpg["gamma"])),
        )
    return ScenarioConfig(
        name=str(_require(d, "name", "scenario")),
        network=network,
        gains=gains,
        initial=initial,
        attacks=tuple(attacks),
        dos=dos,
        detector=detector,
        step_h=float(d.get("step_h", 1e-3)),
        dp_msr=dp,
    )
