import weakref
from dataclasses import replace

import numpy as np
import pytest

from resilnet.dynamics import (
    AttackSignal,
    DeceptionAttack,
    DoSInterval,
    DoSRandomSpec,
    DoSSchedule,
    Gains,
    SystemState,
    _STEP_BLOCK,
    _attackers,
    _walk,
    closed_loop_matrix,
    consensus_metrics,
    simulate,
    stability_constants,
)
from resilnet.errors import ConfigurationError
from resilnet.graphs import Graph, complete_graph, pe_margin, static_network
from resilnet.isolation import (
    DetectorSettings,
    DPMSRConfig,
    IsolationEvent,
    RescueProblem,
    _ObserverBank,
    _COMPILE_STEPS,
    _auto_w_budget,
    _dp_msr_block,
    _dp_msr_loop,
    _observer_step_matrices,
    dp_msr_run,
    isolation_complete,
    post_isolation_connectivity,
    run_rescue,
)
from resilnet.observers import (
    STRUCTURED_K1,
    ObserverGain,
    ObserverState,
    ThresholdRule,
    design_gain,
    gain_matrix,
    _view_key,
    make_record,
    two_hop_view,
)
from resilnet import dynamics, isolation
from resilnet.scenarios import (
    generate_example1,
    generate_example2,
    materialize,
    network_union,
    random_connected_graph,
    split_edges_alternating,
)
from stepwise import per_step, rebuild_all_rescue, stepwise_rescue

GAINS = Gains(1.0, 3.0)


def _small_problem(rng, attacks=(), dos=None, horizon=6.0, threshold=None):
    overlay = random_connected_graph(rng, 6, 0.6)
    net = split_edges_alternating(overlay, 0.5, horizon, int(rng.integers(0, 2**31)))
    init = SystemState(rng.uniform(-5, 5, 6), np.zeros(6))
    detector = DetectorSettings(threshold=threshold or ThresholdRule(kind="constant", value=0.95))
    return RescueProblem(
        net=net, gains=GAINS, initial=init, attacks=tuple(attacks), dos=dos,
        detector=detector,
    )


def test_attack_free_run_no_events(rng):
    # analytic thresholds carry the no-false-alarm guarantee; the DoS trials
    # that drop nothing leave equal edges in consecutive timeline entries
    dos = DoSSchedule((DoSInterval(1.0, 2.0, random=DoSRandomSpec(8, 0.3, 11)),))
    problem = _small_problem(rng, dos=dos, threshold=ThresholdRule(kind="analytic"))
    result = run_rescue(problem)
    assert result.run.events == ()
    assert result.run.removed_edges == frozenset()
    # with nothing isolated, the rescue run walks the plant-only run's timeline
    plant = simulate(problem.net, GAINS, problem.initial, dos=dos)
    for name in ("t", "p_tilde", "v", "mode_index", "dos_active"):
        assert np.array_equal(getattr(result.trace, name), getattr(plant, name)), name
    assert result.trace.segments == plant.segments
    assert result.trace.step_h == plant.step_h
    metrics = consensus_metrics(result.trace)
    assert metrics.max_position_gap[-1] < 0.25 * metrics.max_position_gap[0]
    report = post_isolation_connectivity(result.run)
    assert report.mu == pytest.approx(
        post_isolation_connectivity(result.run, 1.0).mu
    )


def test_rescue_isolates_ramp_attacker():
    config = generate_example1(2)
    base = materialize(config)
    attacks = (DeceptionAttack(5, 0.0, AttackSignal("ramp", slope=0.8)),)
    from dataclasses import replace

    detector = replace(
        base.detector, threshold=ThresholdRule(kind="constant", value=1.3)
    )
    problem = RescueProblem(
        net=base.net, gains=base.gains, initial=base.initial, attacks=attacks,
        detector=detector, horizon=12.0,
    )
    result = run_rescue(problem)
    overlay = network_union(problem.net)
    coop_nbrs = set(overlay.neighbors(5))
    assert result.run.isolated_by(5) == coop_nbrs
    assert isolation_complete(result.run, overlay)
    # monotone: every event removes an edge permanently
    assert len(result.run.removed_edges) >= 1
    for event in result.run.events:
        assert event.isolated == 5
        assert abs(event.residual) > event.threshold


def test_rescue_events_marked_on_live_edges_only(rng):
    attacks = (DeceptionAttack(5, 0.0, AttackSignal("ramp", slope=0.9)),)
    problem = _small_problem(
        rng, attacks, horizon=8.0,
        threshold=ThresholdRule(kind="exponential", amplitude=10.0, rate=1.0, offset=0.95),
    )
    result = run_rescue(problem)
    seen = set()
    for event in result.run.events:
        pair = (min(event.detector, event.isolated), max(event.detector, event.isolated))
        assert pair not in seen  # no duplicate isolation of the same link
        seen.add(pair)


def _stage_rk4_step(a_mat, x, b_fun, t, h):
    """Stage-form RK4 step of x' = A x + b(t), the reference for the step
    matrices."""
    b_mid = b_fun(t + 0.5 * h)
    k1 = a_mat @ x + b_fun(t)
    k2 = a_mat @ (x + 0.5 * h * k1) + b_mid
    k3 = a_mat @ (x + 0.5 * h * k2) + b_mid
    k4 = a_mat @ (x + h * k3) + b_fun(t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_forcing(attacks, n):
    """Stacked deception input col(0, u_A(t)), one ``DeceptionAttack.value``
    per attack."""

    def forcing(t):
        b = np.zeros(2 * n)
        for atk in attacks:
            b[n + atk.agent] += atk.value(t)
        return b

    return forcing


def _per_agent_rescue(problem):
    """Reference rescue loop, observer by observer: the plant steps in stage
    form, and every detector measures through its view, steps with
    ``ObserverState.step`` and tests ``neighbor_residuals`` on every tick;
    a neighbor is flagged on its first step over the threshold."""
    net, gains, settings = problem.net, problem.gains, problem.detector
    n, h = net.node_count, problem.step_h
    certified = settings.threshold.kind == "analytic"
    consts = None
    if certified:
        mu = pe_margin(net, settings.pe_window).mu
        consts = stability_constants(mu, settings.pe_window, gains, n)
    w_budget = _auto_w_budget(problem, consts)
    x0_norm = float(np.linalg.norm(problem.initial.stacked()))
    detectors = problem.cooperative
    removed, observers, events, log = set(), {}, [], []
    flagged = {i: frozenset() for i in detectors}
    forcing = _stage_forcing(problem.attacks, n)

    def gain_of(view):
        if certified:
            return design_gain(view)
        return ObserverGain(gain_matrix(view, STRUCTURED_K1), None, None, None)

    def on_edges(edges, t, x):
        graph = Graph(n, tuple(sorted(edges)))
        for i in detectors:
            view = two_hop_view(graph, i, gains)
            obs = observers.get(i)
            y = view.measure(x[:n], x[n:])
            if obs is None:
                observers[i] = ObserverState(view, gain_of(view), w_budget, t)
                observers[i].reinit(y, t)
            elif view.members != obs.view.members:
                obs.remap(view, gain_of(view), y, t)
            elif not np.array_equal(view.a_model, obs.view.a_model):
                obs.reconfigure(view, gain_of(view), t, keep_state=True)
        a_mat = closed_loop_matrix(graph, gains)
        return a_mat, {i: graph.neighbors(i) for i in detectors}

    def step(context, x, k, u):
        a_mat, neighbor_map = context
        y_start = {i: observers[i].view.measure(x[:n], x[n:]) for i in detectors}
        x = _stage_rk4_step(a_mat, x, forcing, k * h, h)
        t_next = (k + 1) * h
        for i in detectors:
            obs = observers[i]
            y_end = obs.view.measure(x[:n], x[n:])
            obs.step(y_start[i], h, y_end)
            nbrs = neighbor_map[i]
            if not nbrs:
                continue
            res = obs.neighbor_residuals(y_end, nbrs)
            eps = settings.threshold.evaluate(
                t_next, obs, t0=0.0, x0_norm=x0_norm, consts=consts
            )
            hits = {j for j, r in zip(nbrs, res) if abs(r) > eps}
            for j in sorted(hits - flagged[i]):
                removed.add((min(i, j), max(i, j)))
                events.append(IsolationEvent(t_next, i, j, float(res[nbrs.index(j)]), eps))
            flagged[i] = flagged[i] | hits
            if (k + 1) % settings.residual_log_stride == 0:
                log.append(make_record(t_next, i, nbrs, res, [eps] * len(nbrs), flagged[i]))
        return x

    trace = _walk(
        net, problem.initial, problem.attacks, problem.dos, problem.horizon, h,
        on_edges, per_step(step, removed), removed,
    )
    return trace, events, log


@pytest.mark.parametrize("kind", ["constant", "analytic"])
def test_rescue_bank_matches_per_agent_loop(rng, kind):
    dos = DoSSchedule((DoSInterval(0.5, 2.0, random=DoSRandomSpec(10, 0.6, 5)),))
    attacks = (DeceptionAttack(5, 0.0, AttackSignal("ramp", slope=4.0)),)
    problem = _small_problem(rng, attacks, dos=dos, horizon=3.0, threshold=ThresholdRule(kind=kind))
    result = run_rescue(problem)
    trace, events, log = _per_agent_rescue(problem)
    # the constant threshold isolates someone; the analytic bound stays
    # above this run's residuals
    assert bool(events) == (kind == "constant")

    def key(e):
        return (e.t, e.detector, e.isolated, e.threshold)

    assert [key(e) for e in result.run.events] == [key(e) for e in events]
    for got, want in zip(result.run.events, events):
        assert got.residual == pytest.approx(want.residual, rel=0, abs=1e-12)
    # the bank's plant steps by its RK4 step matrix, the reference in stage
    # form: the two differ by rounding only
    assert np.allclose(result.trace.p_tilde, trace.p_tilde, rtol=0, atol=1e-12)
    assert np.allclose(result.trace.v, trace.v, rtol=0, atol=1e-12)
    assert result.trace.segments == trace.segments
    assert len(result.residual_log) == len(log)
    for got, want in zip(result.residual_log, log):
        assert (got.t, got.owner, got.neighbors) == (want.t, want.owner, want.neighbors)
        assert got.thresholds == want.thresholds
        assert got.verdicts == want.verdicts
        assert np.allclose(got.residuals, want.residuals, rtol=0, atol=1e-12)


def _pin_cases():
    rng = np.random.default_rng(20240817)
    dos = DoSSchedule((DoSInterval(0.5, 2.0, random=DoSRandomSpec(10, 0.6, 5)),))
    attacks = (DeceptionAttack(5, 0.0, AttackSignal("ramp", slope=4.0)),)
    for kind in ("constant", "analytic"):
        yield kind, _small_problem(
            rng, attacks, dos=dos, horizon=3.0, threshold=ThresholdRule(kind=kind)
        )
    yield "example1_seed6", materialize(generate_example1(6))
    # the certified sweep's recipe: attack-free under the analytic rule, so
    # every chunk's residuals sit below its smallest end threshold
    yield "analytic_attack_free", _small_problem(
        np.random.default_rng(5001), horizon=4.0, threshold=ThresholdRule(kind="analytic")
    )
    # a decaying threshold that a residual crosses at t = 1.315, inside a
    # block, and the same problem under a rising one, whose negative
    # amplitude makes every chunk evaluate every step's thresholds
    attacks = (DeceptionAttack(5, 0.0, AttackSignal("ramp", slope=1.0)),)
    for name, amplitude, offset in (("crossing", 5.0, 0.5), ("negative_amplitude", -0.5, 1.5)):
        rule = ThresholdRule(kind="exponential", amplitude=amplitude, rate=1.0, offset=offset)
        yield f"exponential_{name}", _small_problem(
            np.random.default_rng(7), attacks, dos=dos, horizon=3.0, threshold=rule
        )


PIN_CASES = list(_pin_cases())
# whether a run's chunks found every residual clear of the thresholds at the
# chunk's ends (True) or evaluated every step's thresholds (False)
PIN_CLEAR = {
    "constant": {False},
    "analytic": {True},
    "example1_seed6": {False},
    "analytic_attack_free": {True},
    "exponential_crossing": {True, False},
    "exponential_negative_amplitude": {False},
}


def _fields(result):
    """The bytes of a rescue result's trace and log arrays."""
    trace = result.trace
    out = [trace.t, trace.p_tilde, trace.v, trace.mode_index, trace.dos_active]
    for e in result.residual_log.epochs:
        out += [e.t, e.res, e.eps, e.flag_t]
    return [a.tobytes() for a in out]


def _meta(result):
    epochs = result.residual_log.epochs
    return (
        result.trace.segments,
        result.run.events,
        [(e.pairs, e.groups, e.res.shape) for e in epochs],
    )


@pytest.mark.parametrize("case", PIN_CASES, ids=[name for name, _ in PIN_CASES])
def test_rescue_blocks_match_stepwise_rescue(case, monkeypatch):
    # blocks of one step, of three and of the default length: verdicts land
    # on a block's first and last step and mid-block
    name, problem = case
    want = stepwise_rescue(problem)
    runs = [(cap, isolation._CHUNK_WORK) for cap in (1, 3, dynamics._STEP_BLOCK)]
    # and default blocks that the bank tests one step at a time
    runs.append((dynamics._STEP_BLOCK, 1))
    clear = _ObserverBank._clear
    seen = set()

    def spy(bank, res, t):
        found = clear(bank, res, t)
        seen.add(found)
        return found

    monkeypatch.setattr(_ObserverBank, "_clear", spy)
    for cap, work in runs:
        monkeypatch.setattr(dynamics, "_STEP_BLOCK", cap)
        monkeypatch.setattr(isolation, "_CHUNK_WORK", work)
        got = run_rescue(problem)
        assert _meta(got) == _meta(want), (cap, work)
        assert _fields(got) == _fields(want), (cap, work)
    assert seen == PIN_CLEAR[name]
    # the analytic bound stays above these runs' residuals
    assert bool(want.run.events) == (name not in ("analytic", "analytic_attack_free"))


def _view_cache_cases():
    for seed in (0, 6):
        yield f"example1_seed{seed}", materialize(generate_example1(seed))
    rng = np.random.default_rng(20240817)
    dos = DoSSchedule((DoSInterval(0.5, 2.0, random=DoSRandomSpec(10, 0.6, 5)),))
    yield "certified", _small_problem(
        rng, dos=dos, horizon=3.0, threshold=ThresholdRule(kind="analytic")
    )
    yield "example2_short", replace(materialize(generate_example2(0)), horizon=EX2_SHORT)


# example2's DoS trials drop links from t = 0; by 3 s its run has 45
# segments and nine isolations
EX2_SHORT = 3.0
VIEW_CACHE_CASES = list(_view_cache_cases())


@pytest.mark.parametrize("case", VIEW_CACHE_CASES, ids=[name for name, _ in VIEW_CACHE_CASES])
def test_view_cache_matches_rebuild_all(case, monkeypatch):
    # views looked up by local edge set give the run of views rebuilt on
    # every edge-set change, no (owner, local edge set) is built twice, and
    # no model (a_model, c_meas) reaches the gain design or the step
    # matrices twice: each distinct model of the built views once
    _, problem = case
    want = rebuild_all_rescue(problem)
    built, models, designed, stepped = [], set(), [], []

    def model(view):
        return view.a_model.tobytes(), view.c_meas.tobytes()

    def counted(g, owner, gains):
        built.append(_view_key(g, owner))
        view = two_hop_view(g, owner, gains)
        models.add(model(view))
        return view

    def counted_design(view):
        designed.append(model(view))
        return design_gain(view)

    def counted_steps(view, gain, h):
        stepped.append(model(view))
        return _observer_step_matrices(view, gain, h)

    monkeypatch.setattr(isolation, "two_hop_view", counted)
    monkeypatch.setattr(isolation, "design_gain", counted_design)
    monkeypatch.setattr(isolation, "_observer_step_matrices", counted_steps)
    got = run_rescue(problem)
    assert _meta(got) == _meta(want)
    assert _fields(got) == _fields(want)
    assert len(set(built)) == len(built) < len(got.trace.segments) * len(problem.cooperative)
    assert sorted(stepped) == sorted(models)
    certified = problem.detector.threshold.kind == "analytic"
    assert sorted(designed) == (sorted(models) if certified else [])


@pytest.mark.parametrize("case", PIN_CASES, ids=[name for name, _ in PIN_CASES])
def test_bank_matmul_path_matches_matvec(case, monkeypatch):
    # numpy < 2.2 has no np.matvec and steps the bank by np.matmul on
    # column vectors, the same gemv: the same run, bit for bit
    _, problem = case
    want = run_rescue(problem)
    monkeypatch.setattr(isolation, "_MATVEC", None)
    got = run_rescue(problem)
    assert _meta(got) == _meta(want)
    assert _fields(got) == _fields(want)


K4 = complete_graph(4)


def _one_bank(rule, consts=None, gain=None, t0=0.0):
    """A bank of detector 0 on K4, testing its three neighbors."""
    view = two_hop_view(K4, 0, GAINS)
    obs = ObserverState(view, gain or design_gain(view), 1.0, t0)
    mats = _observer_step_matrices(obs.view, obs.gain, 1e-3)
    settings = DetectorSettings(threshold=rule)
    terms = settings.threshold.terms(obs, 0.0, 1.0, consts)
    return _ObserverBank([(obs, mats, (1, 2, 3), terms)], 4, 1e-3, settings.residual_log_stride)


@pytest.mark.parametrize(
    "rule",
    [
        ThresholdRule(kind="constant", value=0.95),
        ThresholdRule(kind="exponential", amplitude=10.0, rate=1.0, offset=0.95),
        ThresholdRule(kind="analytic"),
    ],
    ids=lambda rule: rule.kind,
)
def test_bank_thresholds_match_evaluate(rng, monkeypatch, rule):
    # every row on every step of a run whose models change: the terms the
    # bank fixes at build time give ``ThresholdRule.evaluate`` bit for bit
    dos = DoSSchedule((DoSInterval(0.5, 2.0, random=DoSRandomSpec(10, 0.6, 5)),))
    problem = _small_problem(rng, dos=dos, horizon=3.0, threshold=rule)
    net, window, h = problem.net, problem.detector.pe_window, problem.step_h
    consts = stability_constants(pe_margin(net, window).mu, window, GAINS, net.node_count)
    x0_norm = float(np.linalg.norm(problem.initial.stacked()))
    thresholds, t_k, covered = _ObserverBank.thresholds, set(), set()

    def checked(self, t):
        eps = thresholds(self, t)
        for row, t_step in zip(eps.tolist(), t.tolist()):
            want = [rule.evaluate(t_step, obs, 0.0, x0_norm, consts) for obs in self.observers]
            assert row == [want[k] for k in self.slot_row.tolist()]
            covered.add(round(t_step / h))
        t_k.update(obs.last_model_change for obs in self.observers)
        return eps

    monkeypatch.setattr(_ObserverBank, "thresholds", checked)
    # every step's thresholds, also where the residuals sit clear of a
    # monotone rule's end values
    monkeypatch.setattr(_ObserverBank, "_clear", lambda self, res, t: False)
    result = run_rescue(problem)
    assert covered == set(range(1, len(result.trace.t)))
    assert max(t_k) > 0.0
    # a model's t_k is the walker's grid time k h, not a running sum of h
    assert all(t == round(t / h) * h for t in t_k)


def test_bank_threshold_checks():
    # every check of ``evaluate``, at build time or per step
    consts = stability_constants(pe_margin(static_network(K4, 4.0), 1.0).mu, 1.0, GAINS, 4)
    view = two_hop_view(K4, 0, GAINS)
    uncertified = ObserverGain(gain_matrix(view, 0.3), None, None, None)
    with pytest.raises(ConfigurationError, match="stability constants"):
        _one_bank(ThresholdRule(kind="analytic"))
    with pytest.raises(ConfigurationError, match="certified"):
        _one_bank(ThresholdRule(kind="analytic"), consts=consts, gain=uncertified)
    with pytest.raises(ValueError, match="t_k >= t0"):
        _one_bank(ThresholdRule(kind="analytic"), consts=consts, t0=-1.0)
    late = _one_bank(ThresholdRule(kind="analytic"), consts=consts, t0=0.5)
    with pytest.raises(ValueError, match="t >= t_k"):
        late.thresholds(np.array([0.25, 0.75]))
    want = ThresholdRule(kind="analytic").evaluate(0.75, late.observers[0], 0.0, 1.0, consts)
    assert late.thresholds(np.array([0.75])).tolist() == [[want] * 3]


@pytest.mark.parametrize(
    "terms, near",
    [((0.5, 2.0, 0.1, 1.0, 0.0), 1.0), ((2.0, 0.5, 0.1, 1.0, 0.0), 1.3)],
    ids=["rising", "falling"],
)
def test_bank_clear_bounds_by_the_smaller_end(monkeypatch, terms, near):
    # c + b + (a - b) d rises when a < b and falls when a > b: the bound is
    # the smaller end threshold, whichever end that is
    monkeypatch.setattr(ThresholdRule, "terms", lambda self, *_: terms)
    bank = _one_bank(ThresholdRule(kind="exponential"))
    assert bank.monotone
    t = np.linspace(0.25, 1.0, 16)
    eps = bank.thresholds(t)
    assert eps.min() < near < eps.max()
    assert not bank._clear(np.full(eps.shape, near), t)
    assert bank._clear(np.full(eps.shape, 0.5), t)
    res = np.full(eps.shape, 0.5)
    res[3, 1] = np.nan
    assert not bank._clear(res, t)


def test_bank_clear_needs_nonnegative_terms(monkeypatch):
    # a negative amplitude: thresholds still monotone, but the bank
    # evaluates every step rather than bound rounding with cancellation
    monkeypatch.setattr(ThresholdRule, "terms", lambda self, *_: (-0.5, 0.0, 1.5, 1.0, 0.0))
    bank = _one_bank(ThresholdRule(kind="exponential"))
    assert not bank.monotone
    assert not bank._clear(np.zeros((4, 3)), np.linspace(0.25, 1.0, 4))


def test_bank_thresholds_mix_fixed_and_decaying_terms(monkeypatch):
    # terms of rate 0, fixed when the bank is built, and decaying terms in
    # one bank, two detectors sharing a tuple: every slot still gets its
    # detector's ``evaluate``, bit for bit
    terms = {
        0: (0.0, 0.0, 0.95, 0.0, 0.0),
        1: (10.0, 0.0, 0.95, 1.0, 0.0),
        2: (2.0, 0.5, 0.1, 3.0, 0.25),
        3: (0.0, 0.0, 0.95, 0.0, 0.0),
    }
    monkeypatch.setattr(ThresholdRule, "terms", lambda self, obs, *_: terms[obs.view.owner])
    rule = ThresholdRule()
    observers, mats = {}, {}
    for i in range(4):
        view = two_hop_view(K4, i, GAINS)
        observers[i] = ObserverState(view, design_gain(view), 1.0, 0.0)
        mats[i] = _observer_step_matrices(view, observers[i].gain, 1e-3)
    neighbor_map = {i: K4.neighbors(i) for i in range(4)}
    settings = DetectorSettings(threshold=rule)
    rows = [
        (observers[i], mats[i], neighbor_map[i], rule.terms(observers[i], 0.0, 0.0, None))
        for i in range(4)
    ]
    bank = _ObserverBank(rows, 4, 1e-3, settings.residual_log_stride)
    t = np.linspace(0.25, 3.0, 12)
    want = [[rule.evaluate(x, observers[i]) for i, _ in bank.pairs] for x in t.tolist()]
    assert bank.thresholds(t).tolist() == want
    assert len(set(bank.slot_term.tolist())) == 3


def test_detector_settings_validation():
    nan, inf = float("nan"), float("inf")
    bad = [
        *({"pe_window": value} for value in (0.0, -1.0, nan, inf)),
        {"residual_log_stride": 0},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            DetectorSettings(**kwargs)
    # the boundary that stays valid
    DetectorSettings(residual_log_stride=1)


def test_post_isolation_connectivity_negative_case(rng):
    # adversaries forming a cutset: removal disconnects, mu = 0
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)))
    net = static_network(g, 4.0)
    init = SystemState(rng.uniform(-1, 1, 6), np.zeros(6))
    attacks = (
        DeceptionAttack(2, 0.0, AttackSignal("constant", value=0.0)),
        DeceptionAttack(4, 0.0, AttackSignal("constant", value=0.0)),
    )
    problem = RescueProblem(net=net, gains=GAINS, initial=init, attacks=attacks)
    run = run_rescue(problem).run
    report = post_isolation_connectivity(run)
    assert report.mu == 0.0


def test_example1_full_pipeline():
    config = generate_example1(0)
    problem = materialize(config)
    result = run_rescue(problem)
    overlay = network_union(problem.net)
    run = result.run

    malicious = {5, 6}
    assert {e.isolated for e in run.events} <= malicious  # soundness
    assert isolation_complete(run, overlay)  # completeness
    last_detection = max(e.t for e in run.events)
    assert last_detection <= 10.0

    metrics = consensus_metrics(result.trace, run.cooperative)
    assert metrics.max_position_gap[-1] < 0.05

    post = post_isolation_connectivity(run)
    assert post.mu > 0.0


def test_residual_log_matches_identity():
    config = generate_example1(1)
    problem = materialize(config)
    result = run_rescue(problem)
    # verdicts flip to "attacked" exactly when an event was recorded
    flagged_pairs = {(e.detector, e.isolated) for e in result.run.events}
    seen_attacked = set()
    for rec in result.residual_log:
        for j, verdict in zip(rec.neighbors, rec.verdicts):
            if verdict == "attacked":
                seen_attacked.add((rec.owner, j))
    assert seen_attacked <= flagged_pairs


# ---------------------------------------------------------------------------
# DP-MSR baseline
# ---------------------------------------------------------------------------


def test_dp_msr_config_validation():
    with pytest.raises(ValueError):
        DPMSRConfig(f_max=-1)
    # a 1.0 s horizon is not a whole number of 7e-4 s samples
    net = static_network(complete_graph(4), 1.0)
    problem = RescueProblem(
        net=net, gains=GAINS, initial=SystemState(np.ones(4), np.zeros(4)), step_h=7e-4
    )
    with pytest.raises(ConfigurationError, match="multiple of the step"):
        dp_msr_run(problem, DPMSRConfig(f_max=1))


def test_dp_msr_attack_free_consensus(rng):
    g = complete_graph(6)
    net = static_network(g, 20.0)
    init = SystemState(rng.uniform(-5, 5, 6), np.zeros(6))
    problem = RescueProblem(net=net, gains=GAINS, initial=init)
    trace = dp_msr_run(problem, DPMSRConfig(f_max=1))
    metrics = consensus_metrics(trace)
    assert metrics.max_position_gap[-1] < 0.05


def _hub_velocity(p, v, nbrs, f):
    """v_0 + 1.0 * u_0, agent 0's velocity after one step of the DP-MSR
    block with ts = 1, agent 0 cooperative with neighbors ``nbrs``; from
    v_0 = 0 it is agent 0's control u_0.  The compiled block and the loop
    must give the same bits."""
    n = len(p)
    rows = [
        make([tuple(nbrs)] + [()] * (n - 1), [None] * n, f)(
            list(p) + list(v), [()], -GAINS.alpha, GAINS.gamma, 1.0, 0.5
        )
        for make in (_dp_msr_block, _dp_msr_loop)
    ]
    (compiled,), (looped,) = rows
    assert np.array(compiled).tobytes() == np.array(looped).tobytes()
    return compiled[n]


def test_dp_msr_trimming_drops_extremes():
    # star hub with 4 neighbors: values sorted, extremes removed
    p = np.array([0.0, 5.0, -4.0, 1.0, -1.0])
    v = np.zeros(5)
    for pv in ((p, v), (p.tolist(), v.tolist())):
        u = _hub_velocity(*pv, (1, 2, 3, 4), 1)
        # diffs: p0-pj = -5, 4, -1, 1; trim -5 and 4; keep -1, 1 -> sum 0
        assert u == pytest.approx(0.0)
        u2 = _hub_velocity(*pv, (1, 2), 1)
        assert u2 == pytest.approx(0.0)  # fewer than 2f+1 neighbors: all trimmed
    # ties at the trim boundary keep equal values, whichever copy is dropped
    p = [0.0, 0.1, -0.3, 0.1, 0.2, -0.3]
    v = [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    # diffs sorted: -0.2, -0.1, -0.1, 0.3, 0.3; kept and added left to right
    assert _hub_velocity(p, v, (1, 2, 3, 4, 5), 1) == 0.5 + 1.0 * (
        -1.0 * (-0.1 + -0.1 + 0.3) - 3.0 * 0.5
    )


def _reference_dp_msr(problem, cfg):
    """``dp_msr_run`` with the step it had on numpy scalars: neighbors sorted
    by (value, index) and the kept values added by builtin ``sum``, which
    does not compensate ``np.float64`` items."""
    n = problem.net.node_count
    column = {agent: c for c, agent in enumerate(_attackers(problem.attacks))}
    alpha, gamma = problem.gains.alpha, problem.gains.gamma
    ts, f = problem.step_h, cfg.f_max

    def trimmed(p, v, nbrs, i):
        diffs = sorted(((p[i] - p[j], j) for j in nbrs), key=lambda x: (x[0], x[1]))
        kept = diffs[f : len(diffs) - f] if len(diffs) > 2 * f else []
        return -alpha * sum(d for d, _ in kept) - gamma * v[i]

    def neighbor_lists(edges, t, x):
        g = Graph(n, tuple(sorted(edges)))
        return [g.neighbors(i) for i in range(n)]

    def step(nbrs_of, x, k, inj):
        p, v = x[:n], x[n:]
        u = np.empty(n)
        for i in range(n):
            if i in column:
                u[i] = (
                    -alpha * sum(p[i] - p[j] for j in nbrs_of[i])
                    - gamma * v[i]
                    + inj[column[i]]
                )
            else:
                u[i] = trimmed(p, v, nbrs_of[i], i)
        return np.concatenate([p + ts * v + 0.5 * ts * ts * u, v + ts * u])

    return _walk(
        problem.net, problem.initial, problem.attacks, problem.dos, problem.horizon,
        ts, neighbor_lists, per_step(step),
    )


def _dp_msr_cases():
    config = generate_example1(0)
    problem = materialize(config)
    # example1's DoS barrage covers [0, 10)
    yield "example1", replace(problem, horizon=12.0), config.dp_msr
    overlay = network_union(problem.net)
    attacked = RescueProblem(
        net=static_network(overlay, 6.0),
        gains=problem.gains,
        initial=problem.initial,
        attacks=problem.attacks,
    )
    yield "attacked_overlay", attacked, config.dp_msr
    yield "no_attackers", replace(attacked, attacks=()), config.dp_msr
    # nodes 0 and 1 (degree 1 and 2) keep no neighbor for f >= 1, and no
    # node keeps one for f = 2
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
    rng = np.random.default_rng(31)
    small = RescueProblem(
        net=static_network(g, 2.0),
        gains=GAINS,
        initial=SystemState(rng.uniform(-5, 5, 6), rng.uniform(-1, 1, 6)),
        attacks=(DeceptionAttack(5, 0.2, AttackSignal("sinusoid", amplitude=2.0, frequency=1.5)),),
    )
    for f in (0, 1, 2):
        yield f"f_max{f}", small, DPMSRConfig(f_max=f)
    # 300 steps: one block of 256, then a short last block of 44
    short = replace(small, horizon=0.3)
    assert round(short.horizon / 1e-3) % _STEP_BLOCK != 0
    yield "short_last_block", short, DPMSRConfig(f_max=1)
    # one-step DoS trials: each edge set with a dropped edge is held for too
    # few steps to compile and runs the loop, between steps of the
    # compiled full edge set
    blinking = replace(
        short,
        dos=DoSSchedule((DoSInterval(0.0, 0.3, random=DoSRandomSpec(300, 0.3, 5)),)),
    )
    for f in (0, 1, 2):
        yield f"one_step_dos_f_max{f}", blinking, DPMSRConfig(f_max=f)
    # a hub of 260 neighbors, past the compiler's limit of 200 nested
    # parentheses, with a leaf and then the hub attacked; held long enough
    # to compile
    assert 100 >= _COMPILE_STEPS
    star = RescueProblem(
        net=static_network(Graph(261, tuple((0, j) for j in range(1, 261))), 0.1),
        gains=GAINS,
        initial=SystemState(rng.uniform(-5, 5, 261), rng.uniform(-1, 1, 261)),
        attacks=(DeceptionAttack(1, 0.0, AttackSignal("ramp", slope=0.5)),),
    )
    yield "star260", star, DPMSRConfig(f_max=1)
    hub = replace(star, attacks=(DeceptionAttack(0, 0.0, AttackSignal("ramp", slope=0.5)),))
    yield "star260_attacked_hub", hub, DPMSRConfig(f_max=1)


@pytest.mark.parametrize("case", list(_dp_msr_cases()), ids=lambda c: c[0])
def test_dp_msr_matches_numpy_scalar_step(case):
    _, problem, cfg = case
    got = dp_msr_run(problem, cfg)
    want = _reference_dp_msr(problem, cfg)
    assert got.p_tilde.tobytes() == want.p_tilde.tobytes()
    assert got.v.tobytes() == want.v.tobytes()
    assert got.segments == want.segments


def test_dp_msr_compiles_each_edge_set_once(monkeypatch):
    """Each distinct edge set's block is built once, when the walk first
    enters it, and freed after the walk's last entry into it.  It is
    compiled if the timeline holds the edge set for at least
    ``_COMPILE_STEPS`` steps in all, else it is the loop."""
    config = generate_example1(0)
    problem = materialize(config)
    # example1's barrage of 0.1 s DoS trials covers [0, 10) and returns to
    # earlier edge sets; 0.01 s trials over the first second add edge sets
    # held for too few steps to compile
    (barrage,) = problem.dos.intervals
    short = DoSInterval(0.0, 1.0, random=replace(barrage.random, trials=100))
    barrage = replace(barrage, start=1.0, duration=9.0, random=replace(barrage.random, trials=90))
    problem = replace(problem, horizon=12.0, dos=DoSSchedule((short, barrage)))
    built = []  # (edge set, compiled, weak reference to its block)
    alive_at_build = []

    def counting(make):
        def counted(nbrs_of, columns, f):
            alive_at_build.append({edges for edges, _, ref in built if ref() is not None})
            block = make(nbrs_of, columns, f)
            edges = frozenset((i, j) for i, nbrs in enumerate(nbrs_of) for j in nbrs if i < j)
            built.append((edges, make is compile_block, weakref.ref(block)))
            return block

        return counted

    compile_block = isolation._dp_msr_block
    monkeypatch.setattr(isolation, "_dp_msr_block", counting(compile_block))
    monkeypatch.setattr(isolation, "_dp_msr_loop", counting(isolation._dp_msr_loop))
    trace = dp_msr_run(problem, config.dp_msr)
    runs = [seg[3] for seg in trace.segments]
    assert len(set(runs)) < len(runs)
    assert [edges for edges, _, _ in built] == list(dict.fromkeys(runs))
    steps = dict.fromkeys(runs, 0)
    for t0, t1, _, edges, _ in trace.segments:
        steps[edges] += round((t1 - t0) / problem.step_h)
    compiled = [c for _, c, _ in built]
    assert compiled == [steps[edges] >= _COMPILE_STEPS for edges, _, _ in built]
    assert any(compiled) and not all(compiled)
    # while a new edge set builds, the walk still holds the block it leaves;
    # every other live block belongs to an edge set entered again
    for (edges, _, _), alive in zip(built, alive_at_build):
        s = runs.index(edges)
        assert alive <= {runs[s - 1]} | set(runs[s + 1 :])
    assert any(len(alive) > 1 for alive in alive_at_build)
    assert all(ref() is None for _, _, ref in built)


def test_dp_msr_fails_against_two_total():
    """The F=1 trimming baseline cannot withstand a 2-total ramp pair on the
    same overlay where the observer pipeline succeeds."""
    config = generate_example1(0)
    problem = materialize(config)
    overlay = network_union(problem.net)
    static = RescueProblem(
        net=static_network(overlay, 30.0),
        gains=problem.gains,
        initial=problem.initial,
        attacks=problem.attacks,
    )
    trace = dp_msr_run(static, config.dp_msr)
    coop = sorted(set(range(8)) - {5, 6})
    gap = consensus_metrics(trace, coop).max_position_gap
    assert gap[-1] > 0.5


def test_dp_msr_attack_free_on_example1_overlay():
    config = generate_example1(0)
    problem = materialize(config)
    overlay = network_union(problem.net)
    static = RescueProblem(
        net=static_network(overlay, 30.0),
        gains=problem.gains,
        initial=problem.initial,
    )
    trace = dp_msr_run(static, config.dp_msr)
    gap = consensus_metrics(trace).max_position_gap
    assert gap[-1] < 0.05
