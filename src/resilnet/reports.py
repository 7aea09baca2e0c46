"""Persistence and report emission: CSV traces, event logs, metric documents.

Numeric CSV cells use 12 significant digits with a mandatory header row;
metric reports are flat key->value JSON documents.  A long-format (t, series,
value) CSV feeds external plotting."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import (
    SimulationTrace,
    consensus_metrics,
    realized_disconnection_time,
    simulate,
)
from .errors import ConfigurationError
from .graphs import (
    Graph,
    algebraic_connectivity,
    adversary_classification,
    check_bound_chain,
    laplacian,
    pe_margin,
    R_ROBUSTNESS_EXACT_CAP,
    remove_nodes,
    vertex_connectivity,
)
from .isolation import RescueResult, dp_msr_run, post_isolation_connectivity, run_rescue
from .scenarios import ScenarioConfig, build_network, materialize, overlay_certificate


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def write_trace_csv(path, trace: SimulationTrace):
    n = trace.node_count
    header = (
        ["t"]
        + [f"p_tilde_{i}" for i in range(n)]
        + [f"v_{i}" for i in range(n)]
        + ["active_mode", "dos_active"]
    )

    def rows():
        for k in range(len(trace.t)):
            yield (
                [trace.t[k]]
                + list(trace.p_tilde[k])
                + list(trace.v[k])
                + [int(trace.mode_index[k]), bool(trace.dos_active[k])]
            )

    write_csv(path, header, rows())


def write_events_csv(path, events):
    write_csv(
        path,
        ["t", "detector", "isolated", "residual_value", "threshold"],
        ([e.t, e.detector, e.isolated, e.residual, e.threshold] for e in events),
    )


def write_residuals_csv(path, residual_log):
    def rows():
        for rec in residual_log:
            for j, r, eps, verdict in zip(
                rec.neighbors, rec.residuals, rec.thresholds, rec.verdicts
            ):
                yield [rec.t, rec.owner, j, r, eps, verdict]

    write_csv(path, ["t", "owner", "neighbor", "residual", "threshold", "verdict"], rows())


def lambda2_series(trace: SimulationTrace, window: float, points: int = 200):
    """lambda_2 of the realized integral Laplacian over a sliding window,
    evaluated on a uniform grid (matches the run's actual edge timeline,
    DoS drops and isolations included)."""
    horizon = float(trace.t[-1])
    if horizon < window:
        return np.array([]), np.array([])
    n = trace.node_count
    laps = [
        (a, b, laplacian(Graph(n, tuple(edges))))
        for a, b, _, edges, _ in trace.segments
    ]
    starts = np.linspace(0.0, horizon - window, points)
    out = np.empty(points)
    for idx, t0 in enumerate(starts):
        acc = np.zeros((n, n))
        for a, b, lap in laps:
            lo, hi = max(a, t0), min(b, t0 + window)
            if hi > lo:
                acc += (hi - lo) * lap
        out[idx] = algebraic_connectivity(acc / window)
    return starts, out


def write_long_csv(path, trace: SimulationTrace, residual_log=(), window: float | None = None):
    """Plot-ready long format: consensus trajectories, residual/threshold
    pairs, and the sliding lambda_2 series."""

    def rows():
        stride = max(1, len(trace.t) // 3000)
        for k in range(0, len(trace.t), stride):
            for i in range(trace.node_count):
                yield [trace.t[k], f"p_tilde_{i}", trace.p_tilde[k, i]]
        for rec in residual_log:
            for j, r, eps in zip(rec.neighbors, rec.residuals, rec.thresholds):
                yield [rec.t, f"residual_{rec.owner}_{j}", abs(r)]
                yield [rec.t, f"threshold_{rec.owner}_{j}", eps]
        if window is not None:
            ts, lam = lambda2_series(trace, window)
            for t, val in zip(ts, lam):
                yield [t, "lambda2_window", val]

    write_csv(path, ["t", "series", "value"], rows())


# ---------------------------------------------------------------------------
# Metric documents
# ---------------------------------------------------------------------------


def graph_metrics(config: ScenarioConfig) -> dict:
    """Connectivity/robustness report of the configured network plus the
    removal check for the configured adversary set."""
    net = build_network(config.network)
    window = config.detector.pe_window
    report = pe_margin(net, window)
    eff = report.effective_graph
    out = {
        "node_count": net.node_count,
        "pe_margin_mu": report.mu,
        "lambda2_integral": report.lambda2_integral,
        "delta_floor": report.delta_floor,
        "equivalence_gap": report.equivalence_gap,
        "effective_edge_count": len(eff.edges),
    }
    cert = overlay_certificate(config.network)
    if cert is not None:
        out["certified_r"] = cert.certified_r
    if eff.node_count <= R_ROBUSTNESS_EXACT_CAP:
        chain = check_bound_chain(net, window)
        out.update(
            r_robustness=chain.r,
            vertex_connectivity=chain.kappa,
            mu_hat=chain.mu_hat,
            bound_chain_holds=chain.chain_holds,
            noncomplete_bound_holds=chain.noncomplete_bound_holds,
        )
    else:
        out["vertex_connectivity"] = vertex_connectivity(eff)
    malicious = sorted({a.agent for a in config.attacks})
    if malicious:
        f_total, f_local = adversary_classification(eff, malicious)
        out.update(adversary_f_total=f_total, adversary_f_local=f_local)
        kept = remove_nodes(net, malicious)
        removed_report = pe_margin(kept.network, window)
        out.update(
            post_removal_mu=removed_report.mu,
            post_removal_lambda2=removed_report.lambda2_integral,
            removal_bound_holds=bool(
                report.lambda2_integral
                <= removed_report.lambda2_integral + len(malicious) + 1e-9
            ),
        )
    return out


def rescue_report(config: ScenarioConfig, result: RescueResult) -> dict:
    """Summary of a detection-and-cooperation run."""
    run = result.run
    trace = result.trace
    metrics = consensus_metrics(trace, run.cooperative)
    detection_times = {}
    for e in run.events:
        detection_times.setdefault(e.isolated, []).append(e.t)
    post = post_isolation_connectivity(run)
    out = {
        "isolation_event_count": len(run.events),
        "removed_edge_count": len(run.removed_edges),
        "final_consensus_gap": float(metrics.max_position_gap[-1]),
        "final_max_speed": float(metrics.max_speed[-1]),
        "post_isolation_mu": post.mu,
        "post_isolation_lambda2": post.lambda2_integral,
        "realized_disconnection_time": realized_disconnection_time(
            trace, config.detector.pe_window
        ),
    }
    for agent, times in sorted(detection_times.items()):
        out[f"first_detection_t_agent_{agent}"] = min(times)
        out[f"last_detection_t_agent_{agent}"] = max(times)
    return out


def write_report(path, report: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------


def run_scenario(config: ScenarioConfig, out_dir) -> dict:
    """Full pipeline: rescue run, trace/event/residual CSVs, metric report,
    plot data.  Returns the report dict."""
    out_dir = Path(out_dir)
    problem = materialize(config)
    result = run_rescue(problem)
    write_trace_csv(out_dir / "trace.csv", result.trace)
    write_events_csv(out_dir / "events.csv", result.run.events)
    write_residuals_csv(out_dir / "residuals.csv", result.residual_log)
    write_long_csv(
        out_dir / "plot_data.csv",
        result.trace,
        result.residual_log,
        window=config.detector.pe_window,
    )
    report = {"scenario": config.name}
    report.update(graph_metrics(config))
    report.update(rescue_report(config, result))
    write_report(out_dir / "report.json", report)
    return report


def run_plant_only(config: ScenarioConfig, out_dir) -> dict:
    """Plant simulation without detection (attacks and DoS still apply)."""
    out_dir = Path(out_dir)
    problem = materialize(config)
    trace = simulate(
        problem.net,
        problem.gains,
        problem.initial,
        problem.attacks,
        problem.dos,
        problem.step_h,
    )
    write_trace_csv(out_dir / "trace.csv", trace)
    write_long_csv(out_dir / "plot_data.csv", trace, window=config.detector.pe_window)
    malicious = {a.agent for a in config.attacks}
    coop = sorted(set(range(trace.node_count)) - malicious)
    metrics = consensus_metrics(trace, coop)
    report = {
        "scenario": config.name,
        "final_consensus_gap": float(metrics.max_position_gap[-1]),
        "final_max_speed": float(metrics.max_speed[-1]),
    }
    write_report(out_dir / "report.json", report)
    return report


def run_dp_msr(config: ScenarioConfig, out_dir) -> dict:
    if config.dp_msr is None:
        raise ConfigurationError("scenario has no dp_msr section")
    out_dir = Path(out_dir)
    problem = materialize(config)
    trace = dp_msr_run(problem, config.dp_msr)
    write_trace_csv(out_dir / "trace.csv", trace)
    malicious = {a.agent for a in config.attacks}
    coop = sorted(set(range(trace.node_count)) - malicious)
    metrics = consensus_metrics(trace, coop)
    report = {
        "scenario": config.name,
        "f_max": config.dp_msr.f_max,
        "final_consensus_gap": float(metrics.max_position_gap[-1]),
        "final_max_speed": float(metrics.max_speed[-1]),
    }
    write_report(out_dir / "report.json", report)
    return report
