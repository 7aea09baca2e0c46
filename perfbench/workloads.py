"""The four benchmark workloads, run against resilnet's public API.

Each workload has a ``setup(seed)`` that builds its materialized inputs, a
``run(inputs, out, clock)`` that executes the computational calls (timed as
"run") and writes the artifacts (timed as "report"), and a
``check(inputs, results)`` that returns an ``Outcome``.  The checks keep the
tolerances of the acceptance criteria they come from.

Cost must not depend on the seed, because a run's spread is taken across
seeds.  The seed therefore varies random draws but not problem sizes: the
certified sweep alternates 5 and 6 agents, the graph sweep cycles through
4..10 nodes, and the 84-agent scenario keeps example2's seed-0 network, DoS
trials and attacks while the seed redraws the initial state (the overlay and
the DoS draws set how often the 75 observers are rebuilt, which moved the
run time by up to 20 % between seeds).  At seed 0 the rescue workloads run
example1 and example2 unchanged.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
from calib import Calibration

from resilnet import dynamics, graphs, isolation, observers, reports, scenarios

# Shortened example2 run.  It must hold the whole isolation phase: for seed 0
# all 26 isolation events of the 40 s run fall by t = 4.167 s.
EX2_HORIZON = 5.0
CERTIFIED_RUNS = 6
SWEEP_GRAPHS = 49


class Clock:
    """Wall time per phase and per timed call, plus the agent-steps of the
    simulation calls.

    Each call has a label that is unique within a repetition and the same in
    every repetition of a workload, so the runner can take each call's
    median over the repetitions of a run.  Between calls the calibration
    kernel runs now and then (``calib.py``); its time is left out of the
    phases.
    """

    def __init__(self):
        self.phases = {"run": 0.0, "report": 0.0}
        self.calls = {}  # label -> [phase, seconds, first kernel, end kernel]
        self.sim_labels = []
        self.agent_steps = 0
        self.calibration = Calibration()
        self._phase = None

    @contextmanager
    def phase(self, name):
        self._phase = name
        self.calibration.sample(force=True)
        spent = self.calibration.spent_s
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - t0 - (self.calibration.spent_s - spent)
            self._phase = None
            self.calibration.sample(force=True)

    def call(self, label, fn, *args, **kwargs):
        if label in self.calls:
            raise ValueError(f"call label used twice: {label}")
        cal = self.calibration
        cal.sample()
        spent, first = cal.spent_s, len(cal.kernel_s) - 1
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0 - (cal.spent_s - spent)
        # the kernel times taken just before the call and during it
        self.calls[label] = [self._phase, elapsed, first, len(cal.kernel_s)]
        return out

    def simulation(self, label, fn, *args):
        out = self.call(label, fn, *args)
        trace = getattr(out, "trace", out)
        self.agent_steps += (len(trace.t) - 1) * trace.node_count
        self.sim_labels.append(label)
        return out


@dataclass
class Outcome:
    checks: list = field(default_factory=list)  # (name, passed)
    isolation_errors: int = 0

    def check(self, name, passed):
        self.checks.append((name, bool(passed)))


def _isolation_errors(run, overlay) -> int:
    """False isolations plus (attacker, cooperative neighbor) pairs in which
    the neighbor never isolated the attacker."""
    malicious = run.problem.malicious
    false = sum(1 for e in run.events if e.isolated not in malicious)
    missed = sum(
        len(set(overlay.neighbors(m)) - malicious - run.isolated_by(m))
        for m in malicious
    )
    return false + missed


def _finite(trace) -> bool:
    return bool(np.isfinite(trace.p_tilde).all() and np.isfinite(trace.v).all())


# ---------------------------------------------------------------------------
# Rescue pipelines: the run_scenario sequence with its phases split
# ---------------------------------------------------------------------------


def _rescue_pipeline(inputs, out, clock):
    config, problem = inputs
    with clock.phase("run"):
        result = clock.simulation("run_rescue", isolation.run_rescue, problem)
    with clock.phase("report"):
        clock.call("trace.csv", reports.write_trace_csv, out / "trace.csv", result.trace)
        clock.call("events.csv", reports.write_events_csv, out / "events.csv", result.run.events)
        clock.call(
            "residuals.csv",
            reports.write_residuals_csv,
            out / "residuals.csv",
            result.residual_log,
        )
        clock.call(
            "plot_data.csv",
            reports.write_long_csv,
            out / "plot_data.csv",
            result.trace,
            result.residual_log,
            window=config.detector.pe_window,
        )
        report = {"scenario": config.name}
        report.update(clock.call("graph_metrics", reports.graph_metrics, config))
        report.update(clock.call("rescue_report", reports.rescue_report, config, result))
        clock.call("report.json", reports.write_report, out / "report.json", report)
    return result, report


def setup_ex1(seed):
    config = scenarios.generate_example1(seed)
    return config, scenarios.materialize(config)


def check_ex1(inputs, results):
    _, problem = inputs
    result, report = results
    run = result.run
    overlay = scenarios.network_union(problem.net)
    outcome = Outcome(isolation_errors=_isolation_errors(run, overlay))
    # criterion 4
    outcome.check("sound", {e.isolated for e in run.events} <= problem.malicious)
    outcome.check("complete", isolation.isolation_complete(run, overlay))
    outcome.check(
        "last_isolation_by_10s", run.events and max(e.t for e in run.events) <= 10.0
    )
    outcome.check("gap_below_0.05", report["final_consensus_gap"] < 0.05)
    outcome.check("post_isolation_lambda2_positive", report["post_isolation_lambda2"] > 0)
    return outcome


def example2_variant(seed):
    """example2's seed-0 scenario with the initial state of ``seed``."""
    base = scenarios.generate_example2(0)
    return replace(base, initial=scenarios.generate_example2(seed).initial)


def setup_ex2(seed):
    config = example2_variant(seed)
    problem = replace(scenarios.materialize(config), horizon=EX2_HORIZON)
    return config, problem


def check_ex2(inputs, results):
    _, problem = inputs
    result, _ = results
    run = result.run
    overlay = scenarios.network_union(problem.net)
    outcome = Outcome(isolation_errors=_isolation_errors(run, overlay))
    # criterion 11: every attacker isolated by every cooperative neighbor
    isolated = {e.isolated for e in run.events} & problem.malicious
    outcome.check("all_attackers_isolated", isolated == problem.malicious)
    outcome.check("complete", isolation.isolation_complete(run, overlay))
    outcome.check("finite_trace", _finite(result.trace))
    return outcome


# ---------------------------------------------------------------------------
# Certified sweep: criterion 5's attack-free analytic-threshold runs
# ---------------------------------------------------------------------------


def setup_certified(seed):
    problems = []
    for k in range(CERTIFIED_RUNS):
        # criterion 5's recipe, with the agent count alternating 5, 6
        rng = np.random.default_rng(5000 + CERTIFIED_RUNS * seed + k)
        n = 5 + k % 2
        net = scenarios.split_edges_alternating(
            scenarios.random_connected_graph(rng, n, 0.6),
            0.5,
            4.0,
            int(rng.integers(0, 2**31)),
        )
        problems.append(
            isolation.RescueProblem(
                net=net,
                gains=dynamics.Gains(1.0, 3.0),
                initial=dynamics.SystemState(rng.uniform(-5, 5, n), np.zeros(n)),
                detector=isolation.DetectorSettings(
                    threshold=observers.ThresholdRule(kind="analytic")
                ),
            )
        )
    return problems


def run_certified(problems, out, clock):
    with clock.phase("run"):
        results = [
            clock.simulation(f"net{k}.run_rescue", isolation.run_rescue, p)
            for k, p in enumerate(problems)
        ]
    with clock.phase("report"):
        for k, result in enumerate(results):
            clock.call(f"net{k}.report", _certified_report, out / f"net{k}", result)
    return results


def _certified_report(run_dir, result):
    reports.write_trace_csv(run_dir / "trace.csv", result.trace)
    reports.write_events_csv(run_dir / "events.csv", result.run.events)
    reports.write_residuals_csv(run_dir / "residuals.csv", result.residual_log)
    reports.write_report(
        run_dir / "report.json",
        {
            "node_count": result.trace.node_count,
            "isolation_event_count": len(result.run.events),
            "pe_margin_mu": result.run.consts.mu,
            "kappa_x": result.run.consts.kappa_x,
            "lambda_x": result.run.consts.lambda_x,
        },
    )


def check_certified(problems, results):
    outcome = Outcome(isolation_errors=sum(len(r.run.events) for r in results))
    # criterion 5: zero threshold exceedances at any logged sample
    for k, result in enumerate(results):
        exceed = len(result.run.events) + sum(
            abs(r) > eps
            for rec in result.residual_log
            for r, eps in zip(rec.residuals, rec.thresholds)
        )
        outcome.check(f"net{k}_no_exceedance", exceed == 0)
    return outcome


# ---------------------------------------------------------------------------
# Plant and graph verbs, no observers
# ---------------------------------------------------------------------------


def setup_plant_graph(seed):
    config1 = scenarios.generate_example1(seed)
    config2 = example2_variant(seed)
    problem1 = scenarios.materialize(config1)
    problem2 = scenarios.materialize(config2)
    # criterion 10's attacked DP-MSR case: example1's overlay held static
    attacked = isolation.RescueProblem(
        net=graphs.static_network(scenarios.network_union(problem1.net), 30.0),
        gains=dynamics.Gains(1.0, 3.0),
        initial=problem1.initial,
        attacks=problem1.attacks,
    )
    sweep = []
    for k in range(SWEEP_GRAPHS):
        # scripts/sweep_graph_metrics.py's recipe, node count cycling 4..10
        rng = np.random.default_rng(SWEEP_GRAPHS * seed + k)
        n = 4 + k % 7
        sweep.append(
            scenarios.split_edges_alternating(
                scenarios.random_connected_graph(rng, n),
                0.5,
                4.0,
                int(rng.integers(0, 2**31)),
            )
        )
    return config1, config2, problem1, problem2, attacked, sweep


def _simulate(problem):
    return dynamics.simulate(
        problem.net,
        problem.gains,
        problem.initial,
        problem.attacks,
        problem.dos,
        problem.step_h,
    )


def _plant_report(config, trace):
    coop = sorted(set(range(trace.node_count)) - {a.agent for a in config.attacks})
    metrics = dynamics.consensus_metrics(trace, coop)
    return {
        "scenario": config.name,
        "final_consensus_gap": float(metrics.max_position_gap[-1]),
        "final_max_speed": float(metrics.max_speed[-1]),
    }


def _sweep_row(k, net):
    pe = graphs.pe_margin(net, 1.0)
    eff = pe.effective_graph
    lam2 = graphs.algebraic_connectivity(graphs.laplacian(eff))
    r = graphs.r_robustness(eff)
    kappa = graphs.vertex_connectivity(eff)
    return (k, net.node_count, pe.mu, pe.lambda2_integral, lam2, r, kappa)


def _write_reports(items):
    for path, report in items:
        reports.write_report(path, report)


def run_plant_graph(inputs, out, clock):
    config1, config2, problem1, problem2, attacked, sweep = inputs
    with clock.phase("run"):
        trace1 = clock.simulation("simulate_ex1", _simulate, problem1)
        trace2 = clock.simulation("simulate_ex2", _simulate, problem2)
        dp_trace = clock.simulation("dp_msr", isolation.dp_msr_run, attacked, config1.dp_msr)
        metrics1 = clock.call("graph_metrics_ex1", reports.graph_metrics, config1)
        metrics2 = clock.call("graph_metrics_ex2", reports.graph_metrics, config2)
        rows = [clock.call(f"sweep{k}", _sweep_row, k, net) for k, net in enumerate(sweep)]
    with clock.phase("report"):
        # example2's 40 s plant trace and the DP-MSR trace are not written
        # out: trace writing is measured by the rescue workloads, and these
        # CSVs would each take as long as example1's
        clock.call(
            "simulate_ex1.trace.csv",
            reports.write_trace_csv,
            out / "simulate_ex1" / "trace.csv",
            trace1,
        )
        clock.call(
            "simulate_ex1.plot_data.csv",
            reports.write_long_csv,
            out / "simulate_ex1" / "plot_data.csv",
            trace1,
            window=config1.detector.pe_window,
        )
        clock.call(
            "report.json",
            _write_reports,
            [
                (out / "simulate_ex1" / "report.json", _plant_report(config1, trace1)),
                (out / "simulate_ex2" / "report.json", _plant_report(config2, trace2)),
                (out / "dp_msr" / "report.json", _plant_report(config1, dp_trace)),
                (out / "analyze_ex1" / "graph_metrics.json", metrics1),
                (out / "analyze_ex2" / "graph_metrics.json", metrics2),
            ],
        )
        clock.call(
            "sweep.csv",
            reports.write_csv,
            out / "sweep.csv",
            ["k", "n", "mu", "lambda2_integral", "lambda2_effective", "r", "kappa"],
            rows,
        )
    return trace1, trace2, dp_trace, rows


def check_plant_graph(inputs, results):
    config1 = inputs[0]
    trace1, trace2, dp_trace, rows = results
    outcome = Outcome()
    # criterion 1 on every swept effective graph
    for k, n, _, _, lam2, r, kappa in rows:
        outcome.check(
            f"sweep{k}_bound_chain", math.ceil(lam2 / 2 - 1e-12) <= r <= kappa <= n - 1
        )
    # criterion 10: DP-MSR trimming fails against the 2-total ramp pair
    dp_gap = _plant_report(config1, dp_trace)["final_consensus_gap"]
    outcome.check("dp_msr_attacked_gap_above_0.5", dp_gap > 0.5)
    for name, trace in (("simulate_ex1", trace1), ("simulate_ex2", trace2), ("dp_msr", dp_trace)):
        outcome.check(f"{name}_finite_trace", _finite(trace))
    return outcome


WORKLOADS = {
    "ex1_rescue": (setup_ex1, _rescue_pipeline, check_ex1),
    "ex2_rescue_short": (setup_ex2, _rescue_pipeline, check_ex2),
    "certified_sweep": (setup_certified, run_certified, check_certified),
    "plant_graph": (setup_plant_graph, run_plant_graph, check_plant_graph),
}
