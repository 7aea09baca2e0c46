"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` (or ``-v``) to
see them.  Later criteria reuse earlier runs through the module-level cache.
"""

import math
import time

import numpy as np

import resilnet as rn
from resilnet.dynamics import (
    SystemState,
    consensus_metrics,
    output_series,
    simulate,
    stability_constants,
)
from resilnet.graphs import (
    algebraic_connectivity,
    laplacian,
    pe_margin,
    r_robustness,
    remove_nodes,
    star_graph,
    path_graph,
    vertex_connectivity,
)
from resilnet.isolation import (
    DetectorSettings,
    RescueProblem,
    dp_msr_run,
    isolation_complete,
    post_isolation_connectivity,
    run_rescue,
)
from resilnet.observers import (
    ThresholdRule,
    design_gain,
    pbh_observability,
    two_hop_view,
    validate_envelope,
)
from resilnet.scenarios import (
    generate_example1,
    generate_example2,
    materialize,
    network_union,
    random_connected_graph,
    split_edges_alternating,
)
from resilnet.stealth import (
    malicious_velocity_span,
    measurement_kernel,
    pencil_matrix,
    stealth_pencil_kernel,
    subspace_distance,
    zero_dynamics_search,
)

_CACHE = {}


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_bound_chain():
    """ceil(lambda2/2) <= r <= kappa <= N-1 on 200 seeded connected graphs."""
    t0 = time.time()
    violations = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 11))
        g = random_connected_graph(rng, n)
        lam2 = algebraic_connectivity(laplacian(g))
        r = r_robustness(g)
        kappa = vertex_connectivity(g)
        if not math.ceil(lam2 / 2 - 1e-12) <= r <= kappa <= n - 1:
            violations += 1
    wall = time.time() - t0
    _report(
        1,
        violations == 0 and wall < 180.0,
        f"200 graphs, {violations} violations, {wall:.1f}s (< 180s)",
    )


def test_criterion_2_pe_equivalence():
    """|lambda_min(Q Lbar Q^T) - lambda_2(Lbar)| < 1e-9 on every PE window of
    100 seeded switching networks."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 10))
        net = split_edges_alternating(
            random_connected_graph(rng, n), 0.5, 4.0, int(rng.integers(0, 2**31))
        )
        report = pe_margin(net, 1.0)
        worst = max(worst, report.equivalence_gap)
    _report(2, worst < 1e-9, f"max |lambda_min - lambda_2| = {worst:.2e}")


def test_criterion_3_removal_resilience():
    """Removing at most kappa-1 nodes keeps a positive PE margin and obeys
    lambda_2(L) <= lambda_2(Lbar) + |A| on 100 seeded networks."""
    checked = 0
    violations = 0
    seed = 0
    while checked < 100:
        seed += 1
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(6, 11))
        net = split_edges_alternating(
            random_connected_graph(rng, n, 0.5), 0.5, 4.0, int(rng.integers(0, 2**31))
        )
        report = pe_margin(net, 1.0)
        kappa = vertex_connectivity(report.effective_graph)
        if kappa < 2 or n - (kappa - 1) < 3:
            continue
        size = int(rng.integers(1, kappa))
        removed = [int(x) for x in rng.choice(n, size=size, replace=False)]
        after = pe_margin(remove_nodes(net, removed).network, 1.0)
        if not (after.mu > 0 and report.lambda2_integral <= after.lambda2_integral + size + 1e-9):
            violations += 1
        checked += 1
    _report(3, violations == 0, f"100 removal checks, {violations} violations")


def _example1_run():
    """example1 seed 0's document, problem, rescue result and wall time of
    the rescue, run once for criteria 4, 7 and 10."""
    run = _CACHE.get("example1")
    if run is None:
        config = generate_example1(0)
        problem = materialize(config)
        t0 = time.time()
        result = run_rescue(problem)
        run = _CACHE["example1"] = (config, problem, result, time.time() - t0)
    return run


def test_criterion_4_example1_reproduction():
    """8-node 3-robust two-mode overlay with {5,6} ramp injectors, constant
    threshold 0.95, counted-trials DoS: full isolation within 10 s, final
    cooperative gap < 0.05, positive post-isolation connectivity, < 30 s."""
    config, problem, result, wall = _example1_run()
    overlay = network_union(problem.net)
    run = result.run
    malicious = {5, 6}
    sound = {e.isolated for e in run.events} <= malicious
    complete = isolation_complete(run, overlay)
    last_t = max(e.t for e in run.events)
    gap = consensus_metrics(result.trace, run.cooperative).max_position_gap[-1]
    post = post_isolation_connectivity(run)
    ok = (
        sound
        and complete
        and last_t <= 10.0
        and gap < 0.05
        and post.lambda2_integral > 0
        and wall < 30.0
    )
    _report(
        4,
        ok,
        f"isolations by t={last_t:.2f}s (<=10), sound={sound}, gap={gap:.4f} "
        f"(<0.05), post lambda2={post.lambda2_integral:.3f} (>0), {wall:.1f}s (<30s)",
    )


def _attack_free_analytic_runs():
    runs = _CACHE.get("attack_free")
    if runs is None:
        runs = []
        for seed in range(50):
            rng = np.random.default_rng(5000 + seed)
            n = int(rng.integers(5, 7))
            net = split_edges_alternating(
                random_connected_graph(rng, n, 0.6), 0.5, 4.0, int(rng.integers(0, 2**31))
            )
            init = SystemState(rng.uniform(-5, 5, n), np.zeros(n))
            problem = RescueProblem(
                net=net,
                gains=rn.Gains(1.0, 3.0),
                initial=init,
                detector=DetectorSettings(threshold=ThresholdRule(kind="analytic")),
            )
            runs.append((problem, run_rescue(problem)))
        _CACHE["attack_free"] = runs
    return runs


def test_criterion_5_no_false_alarms():
    """50 seeded attack-free runs under analytic thresholds: zero threshold
    exceedances at any sample."""
    exceedances = 0
    for _, result in _attack_free_analytic_runs():
        exceedances += len(result.run.events)
        for rec in result.residual_log:
            for r, eps in zip(rec.residuals, rec.thresholds):
                if abs(r) > eps:
                    exceedances += 1
    _report(5, exceedances == 0, f"50 runs, {exceedances} exceedances")


def test_criterion_6_output_envelope():
    """30 seeded attack-free PE-connected runs with gamma = alpha N stay under
    kappa_x e^{-lambda_x (t-t0)} |x0| at every sample."""
    violations = 0
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(4, 8))
        net = split_edges_alternating(
            random_connected_graph(rng, n, 0.6), 0.5, 8.0, int(rng.integers(0, 2**31))
        )
        report = pe_margin(net, 1.0)
        if report.mu <= 0:
            continue
        gains = rn.Gains(1.0, float(n))
        init = SystemState(rng.uniform(-5, 5, n), np.zeros(n))
        trace = simulate(net, gains, init)
        consts = stability_constants(report.mu, 1.0, gains, n)
        y_norm = np.linalg.norm(output_series(trace), axis=1)
        envelope = consts.envelope(trace.t, 0.0, float(np.linalg.norm(init.stacked())))
        if np.any(y_norm > envelope * (1 + 1e-9)):
            violations += 1
        checked += 1
    _report(6, violations == 0, f"30 runs, {violations} envelope violations")


def test_criterion_7_observer_certification():
    """PBH observability plus certified exponential envelopes (1000-point
    grid on [0, 10]) for every agent and mode of the criterion-4 and
    criterion-5 networks."""
    nets = [_example1_run()[1].net] + [p.net for p, _ in _attack_free_analytic_runs()]
    gains_list = [_example1_run()[1].gains] + [
        p.gains for p, _ in _attack_free_analytic_runs()
    ]
    pbh_failures = 0
    envelope_failures = 0
    views = 0
    for net, gains in zip(nets, gains_list):
        for mode in net.modes:
            for agent in range(net.node_count):
                view = two_hop_view(mode, agent, gains)
                views += 1
                if not pbh_observability(view):
                    pbh_failures += 1
                    continue
                gain = design_gain(view)
                a_bar = view.a_model - gain.h_matrix @ view.c_meas
                ok, _ = validate_envelope(a_bar, gain, t_max=10.0, points=1000)
                if not ok:
                    envelope_failures += 1
    _report(
        7,
        pbh_failures == 0 and envelope_failures == 0,
        f"{views} (agent, mode) pairs: {pbh_failures} PBH failures, "
        f"{envelope_failures} envelope failures",
    )


def test_criterion_8_measurement_kernel():
    """On 50 seeded F-bounded adversary placements over (F+1)-connected
    effective graphs, the cross-mode measurement kernel equals the malicious
    velocity span to 1e-9."""
    checked = 0
    failures = 0
    seed = 0
    while checked < 50:
        seed += 1
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(5, 10))
        net = split_edges_alternating(
            random_connected_graph(rng, n, 0.55), 0.5, 2.0, int(rng.integers(0, 2**31))
        )
        report = pe_margin(net, 1.0)
        kappa = vertex_connectivity(report.effective_graph)
        if kappa < 2:
            continue
        f_bound = kappa - 1
        size = int(rng.integers(1, min(f_bound, n - 3) + 1))
        malicious = tuple(int(x) for x in rng.choice(n, size=size, replace=False))
        basis = measurement_kernel(net.modes, malicious)
        want = malicious_velocity_span(n, malicious)
        if basis.shape[1] != size or subspace_distance(basis, want) > 1e-9:
            failures += 1
        checked += 1
    _report(8, failures == 0, f"50 placements, {failures} kernel mismatches")


def test_criterion_9_zero_dynamics():
    """A hand-built static chain admits an output-zeroing direction (pencil
    residual <= 1e-8); stacking a second mode from the same connected family
    empties the kernel at all sampled lambda plus eigenvalue candidates."""
    chain = path_graph(4)
    malicious = (1, 2, 3)
    gains = rn.Gains(1.0, 3.0)
    found = zero_dynamics_search(chain, malicious, gains, seed=0)
    residual_ok = found is not None
    if residual_ok:
        p = pencil_matrix(chain, malicious, gains, found.lam)
        vec = np.concatenate([found.x0, found.u0])
        residual_ok = np.linalg.norm(p @ vec) <= 1e-8
    star = star_graph(4, hub=0)
    stacked = stealth_pencil_kernel((chain, star), malicious, gains, n_samples=20, seed=3)
    single = stealth_pencil_kernel((chain,), malicious, gains, n_samples=20, seed=3)
    ok = residual_ok and (not single.all_empty) and stacked.all_empty
    _report(
        9,
        ok,
        f"single-mode kernel dims max={max(single.kernel_dims)}, "
        f"stacked empty at {len(stacked.lambdas)} lambdas, residual ok={residual_ok}",
    )


def test_criterion_10_dp_msr_contrast():
    """DP-MSR with F=1 trimming reaches consensus attack-free but fails
    against the 2-total ramp pair on the very network where the observer
    pipeline (criterion 4) succeeds."""
    config, problem, result, _ = _example1_run()
    overlay = network_union(problem.net)
    from resilnet.graphs import static_network

    static = static_network(overlay, 30.0)
    clean = RescueProblem(
        net=static, gains=rn.Gains(1.0, 3.0), initial=problem.initial
    )
    trace_clean = dp_msr_run(clean, config.dp_msr)
    gap_clean = consensus_metrics(trace_clean).max_position_gap[-1]

    attacked = RescueProblem(
        net=static, gains=rn.Gains(1.0, 3.0), initial=problem.initial,
        attacks=problem.attacks,
    )
    trace_attacked = dp_msr_run(attacked, config.dp_msr)
    coop = sorted(set(range(8)) - {5, 6})
    gap_attacked = consensus_metrics(trace_attacked, coop).max_position_gap[-1]

    rescue_gap = consensus_metrics(result.trace, result.run.cooperative).max_position_gap[-1]
    ok = gap_clean < 0.05 and gap_attacked > 0.5 and rescue_gap < 0.05
    _report(
        10,
        ok,
        f"attack-free gap={gap_clean:.4f} (<0.05), 2-total gap={gap_attacked:.2f} "
        f"(>0.5), observer pipeline gap={rescue_gap:.4f}",
    )


def test_criterion_11_example2_scale():
    """84-agent blink-split overlay with a 1-local set of 9 ramp injectors:
    all isolated, cooperative gap < 0.1 at horizon, wall clock < 5 min."""
    config = generate_example2(0)
    problem = materialize(config)
    overlay = network_union(problem.net)
    malicious = problem.malicious
    t0 = time.time()
    result = run_rescue(problem)
    wall = time.time() - t0
    complete = isolation_complete(result.run, overlay)
    isolated = {e.isolated for e in result.run.events} & malicious
    gap = consensus_metrics(result.trace, result.run.cooperative).max_position_gap[-1]
    ok = complete and len(isolated) == 9 and gap < 0.1 and wall < 300.0
    _CACHE["example2"] = result
    _report(
        11,
        ok,
        f"{len(isolated)}/9 isolated (complete={complete}), gap={gap:.4f} (<0.1), "
        f"{wall:.0f}s (<300s)",
    )


def test_criterion_12_determinism(tmp_path):
    """Re-running the criterion-4 scenario with the same seed produces
    bit-identical CSV artifacts."""
    from resilnet.reports import run_scenario

    config = generate_example1(0)
    report_a = run_scenario(config, tmp_path / "a")
    report_b = run_scenario(config, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trace.csv", "events.csv", "residuals.csv", "plot_data.csv")
    )
    _report(
        12,
        identical and report_a == report_b,
        "trace/events/residuals/plot_data byte-identical across reruns",
    )
