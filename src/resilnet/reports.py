"""Persistence and report emission: CSV traces, event logs, metric documents.

Numeric CSV cells use 12 significant digits with a mandatory header row;
metric reports are flat key->value JSON documents.  A long-format (t, series,
value) CSV feeds external plotting.

The trace, residual and plot writers format whole blocks of rows, not
cells, through one writer, ``_write_timed_rows``: a row template is repeated
once per row of a block and applied in one format call to the block's
cells, read with ``ndarray.tolist()``, so no whole-trace list is built and
no Python list per row.  Every row's time is formatted once and joined into
the block's template as text, and so is every cell that is fixed over a run
of rows: the trace's mode index and DoS flag over a run of steps where both
are equal, the residual log's verdicts, and a threshold that is bitwise
fixed over its epoch; only the other cells are formatted, and the blocks
are formatted as bytes.  ``"%.12g" % x`` and ``b"%.12g" % x`` are
``f"{float(x):.12g}"`` for every float, signed zeros, infinities, NaN and
subnormals included, so the bytes are those of the per-cell ``fmt``, which
``write_csv`` keeps for rows of mixed cells."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dynamics import (
    SimulationTrace,
    _columns,
    _gap_and_speed,
    realized_disconnection_time,
    simulate,
)
from .errors import ConfigurationError
from .graphs import (
    _lambda2_stack,
    _laplacian_timeline,
    _window_map,
    adversary_classification,
    check_bound_chain,
    pe_margin,
    R_ROBUSTNESS_EXACT_CAP,
    remove_nodes,
    vertex_connectivity,
)
from .isolation import RescueResult, dp_msr_run, post_isolation_connectivity, run_rescue
from .scenarios import ScenarioConfig, materialize

# a block of rows holds at most 16 _BLOCK cells: bounds the Python floats,
# the argument tuple and the block's bytes alive at once
_BLOCK = 512
# window starts of the sliding lambda_2 series in plot_data.csv
_LAMBDA2_POINTS = 200


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


@contextmanager
def _csv_file(path, header):
    """Open ``path`` for writing bytes, parent directories made, header
    written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        yield fh


def write_csv(path, header, rows):
    """Write rows of mixed cells (str, bool, int, float) through ``fmt``."""
    with _csv_file(path, header) as fh:
        for row in rows:
            fh.write((",".join(fmt(x) for x in row) + "\n").encode())


def write_trace_csv(path, trace: SimulationTrace):
    """One row per step: t, every p_tilde, every v, the mode index and the
    DoS flag.  Each run of steps with equal mode index and DoS flag has one
    row template with the two written into it as text, and each step's time
    is formatted once (``_write_timed_rows``), so the ``%`` fields take only
    the positions and velocities."""
    n = trace.node_count
    header = (
        ["t"]
        + [f"p_tilde_{i}" for i in range(n)]
        + [f"v_{i}" for i in range(n)]
        + ["active_mode", "dos_active"]
    )
    # the runs come from the per-step columns, not from the segments: a
    # segment keeps its first step's mode and flag across a change of either
    # that leaves the edges equal
    mode, dos = trace.mode_index, trace.dos_active
    turns = np.flatnonzero((mode[1:] != mode[:-1]) | (dos[1:] != dos[:-1])) + 1
    bounds = [0, *turns.tolist(), len(mode)]

    def cells(a, b):
        return np.hstack((trace.p_tilde[a:b], trace.v[a:b]))

    with _csv_file(path, header) as fh:
        for lo, hi in zip(bounds, bounds[1:]):
            line = ",%.12g" * (2 * n) + f",{int(mode[lo])},{int(dos[lo])}\n"
            _write_timed_rows(fh, trace.t, [line], cells, 1 + 2 * n, lo, hi)


def write_events_csv(path, events):
    write_csv(
        path,
        ["t", "detector", "isolated", "residual_value", "threshold"],
        ([e.t, e.detector, e.isolated, e.residual, e.threshold] for e in events),
    )


def _write_timed_rows(fh, t, lines, cells, width, lo, hi):
    """Write rows lo:hi of a series that has one time per row: row r is
    every template of ``lines``, each after the text of t[r].  That text is
    formatted once per row with ``%.12g`` and joined into the block's
    template, so the ``%`` fields take only ``cells(a, b)``, the cells of
    rows a:b in field order.  A block holds at most 16 ``_BLOCK`` of the
    ``width`` numeric cells per row, formatted or written as text, so only
    its time text, its cells and its string exist at once.  The block is
    formatted as bytes, so no str copy of it is encoded on top: its
    template's length changes with its times, and with that extra copy the
    freed blocks fragmented the heap (about 1 MB more peak memory on
    example1)."""
    parts = [b"", *(line.encode() for line in lines)]
    rows = max(1, 16 * _BLOCK // width)
    for a in range(lo, hi, rows):
        b = min(a + rows, hi)
        template = b"".join([(b"%.12g" % x).join(parts) for x in t[a:b].tolist()])
        fh.write(template % tuple(cells(a, b).ravel().tolist()))


def _threshold_fields(eps):
    """Per slot of a log epoch, the text of its threshold if that is bitwise
    fixed over the epoch, else a ``%.12g`` field; and the positions of the
    fields among a row's (value, threshold) cells, slot by slot.  The bits
    are compared as int64, so a slot holding both 0.0 and -0.0 keeps its
    field."""
    bits = eps.view(np.int64)
    fixed = bits.min(axis=0) == bits.max(axis=0)
    fields = ["%.12g" % x if f else "%.12g" for x, f in zip(eps[0].tolist(), fixed.tolist())]
    return fields, np.flatnonzero(np.column_stack((np.ones_like(fixed), ~fixed)))


def _slot_cells(values, eps, keep):
    """A block's (value, threshold) cells, slot by slot, at ``keep``."""
    return np.stack((values, eps), axis=2).reshape(len(values), -1)[:, keep]


def write_residuals_csv(path, residual_log):
    """One row template per run of log steps with equal verdicts; each log
    time and each fixed threshold is formatted once and written into it as
    text (``_write_timed_rows``, ``_threshold_fields``)."""
    header = ["t", "owner", "neighbor", "residual", "threshold", "verdict"]
    with _csv_file(path, header) as fh:
        for e in residual_log.epochs:
            fields, keep = _threshold_fields(e.eps)

            def cells(a, b):
                return _slot_cells(e.res[a:b], e.eps[a:b], keep)

            # a verdict turns at the first row at or after its flag time
            bounds = sorted({0, len(e.t), *np.searchsorted(e.t, e.flag_t).tolist()})
            for lo, hi in zip(bounds, bounds[1:]):
                verdicts = np.where(e.flag_t <= e.t[lo], "attacked", "null")
                lines = [
                    f",{i},{j},%.12g,{x},{v}\n" for (i, j), x, v in zip(e.pairs, fields, verdicts)
                ]
                _write_timed_rows(fh, e.t, lines, cells, 3 * len(e.pairs), lo, hi)


def lambda2_series(trace: SimulationTrace, window: float):
    """lambda_2 of the realized integral Laplacian over a sliding window,
    evaluated at ``_LAMBDA2_POINTS`` uniformly spaced starts (matches the
    run's actual edge timeline, DoS drops and isolations included)."""
    horizon = float(trace.t[-1])
    if horizon < window:
        return np.array([]), np.array([])
    timeline = _laplacian_timeline(
        trace.node_count, ((a, b, edges) for a, b, _, edges, _ in trace.segments)
    )
    starts = np.linspace(0.0, horizon - window, _LAMBDA2_POINTS)
    lam2 = _window_map(timeline, starts.tolist(), window, lambda m: _lambda2_stack(m).tolist())
    return starts, np.array(lam2)


def write_long_csv(path, trace: SimulationTrace, residual_log=None, *, window: float):
    """Plot-ready long format: consensus trajectories, residual/threshold
    pairs, and the sliding lambda_2 series.  The time of a sampled step or
    log step is formatted once for all its lines, and a fixed threshold once
    per epoch (``_write_timed_rows``, ``_threshold_fields``)."""
    # every stride-th step, views of the trace
    stride = max(1, len(trace.t) // 3000)
    p_tilde = trace.p_tilde[::stride]
    with _csv_file(path, ["t", "series", "value"]) as fh:
        _write_timed_rows(
            fh,
            trace.t[::stride],
            [f",p_tilde_{i},%.12g\n" for i in range(trace.node_count)],
            lambda a, b: p_tilde[a:b],
            2 * trace.node_count,
            0,
            len(p_tilde),
        )
        for e in residual_log.epochs if residual_log is not None else ():
            fields, keep = _threshold_fields(e.eps)
            lines = [
                line
                for (i, j), x in zip(e.pairs, fields)
                for line in (f",residual_{i}_{j},%.12g\n", f",threshold_{i}_{j},{x}\n")
            ]

            def cells(a, b):
                return _slot_cells(np.abs(e.res[a:b]), e.eps[a:b], keep)

            _write_timed_rows(fh, e.t, lines, cells, 4 * len(e.pairs), 0, len(e.t))
        ts, lam = lambda2_series(trace, window)
        _write_timed_rows(
            fh, ts, [",lambda2_window,%.12g\n"], lambda a, b: lam[a:b], 2, 0, len(ts)
        )


# ---------------------------------------------------------------------------
# Metric documents
# ---------------------------------------------------------------------------


def graph_metrics(config: ScenarioConfig) -> dict:
    """Connectivity/robustness report of the configured network plus the
    removal check for the configured adversary set, which needs at least 3
    cooperative agents."""
    problem = materialize(config)
    net, malicious = problem.net, sorted(problem.malicious)
    if net.node_count - len(malicious) < 3:
        raise ConfigurationError(
            f"{len(malicious)} of {net.node_count} agents are attacked: "
            "fewer than 3 cooperative agents would remain"
        )
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
    if config.network.generator is not None:
        # both generators build an overlay that is r-robust by construction
        out["certified_r"] = config.network.generator.r
    if eff.node_count <= R_ROBUSTNESS_EXACT_CAP:
        chain = check_bound_chain(report)
        out.update(
            r_robustness=chain.r,
            vertex_connectivity=chain.kappa,
            mu_hat=chain.mu_hat,
            bound_chain_holds=chain.chain_holds,
            noncomplete_bound_holds=chain.noncomplete_bound_holds,
        )
    else:
        out["vertex_connectivity"] = vertex_connectivity(eff)
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
    detection_times = {}
    for e in run.events:
        detection_times.setdefault(e.isolated, []).append(e.t)
    post = post_isolation_connectivity(run)
    out = {
        "isolation_event_count": len(run.events),
        "removed_edge_count": len(run.removed_edges),
        **_final_consensus(trace, run.cooperative),
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


def _final_consensus(trace: SimulationTrace, cooperative) -> dict:
    """The cooperative agents' position gap and largest speed at the end:
    ``consensus_metrics`` on the last row only."""
    idx = _columns(trace, cooperative)
    (gap,), (speed,) = _gap_and_speed(trace.p_tilde[-1:, idx], trace.v[-1:, idx])
    return {"final_consensus_gap": float(gap), "final_max_speed": float(speed)}


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
    plot data.  Returns the report dict.  The graph metrics come first, so a
    document with too few cooperative agents for them is rejected before
    any step and writes nothing."""
    out_dir = Path(out_dir)
    report = {"scenario": config.name, **graph_metrics(config)}
    result = run_rescue(materialize(config))
    write_trace_csv(out_dir / "trace.csv", result.trace)
    write_events_csv(out_dir / "events.csv", result.run.events)
    write_residuals_csv(out_dir / "residuals.csv", result.residual_log)
    write_long_csv(
        out_dir / "plot_data.csv",
        result.trace,
        result.residual_log,
        window=config.detector.pe_window,
    )
    report.update(rescue_report(config, result))
    write_report(out_dir / "report.json", report)
    return report


def _write_plant_run(out_dir, config: ScenarioConfig, problem, trace, **fields) -> dict:
    """Write a run's trace.csv and its report.json: the scenario name,
    ``fields`` and the cooperative agents' final gap and speed."""
    out_dir = Path(out_dir)
    write_trace_csv(out_dir / "trace.csv", trace)
    report = {"scenario": config.name, **fields, **_final_consensus(trace, problem.cooperative)}
    write_report(out_dir / "report.json", report)
    return report


def run_plant_only(config: ScenarioConfig, out_dir) -> dict:
    """Plant simulation without detection (attacks and DoS still apply)."""
    problem = materialize(config)
    trace = simulate(
        problem.net,
        problem.gains,
        problem.initial,
        problem.attacks,
        problem.dos,
        problem.step_h,
    )
    write_long_csv(Path(out_dir) / "plot_data.csv", trace, window=config.detector.pe_window)
    return _write_plant_run(out_dir, config, problem, trace)


def run_dp_msr(config: ScenarioConfig, out_dir) -> dict:
    if config.dp_msr is None:
        raise ConfigurationError("scenario has no dp_msr section")
    problem = materialize(config)
    trace = dp_msr_run(problem, config.dp_msr)
    return _write_plant_run(out_dir, config, problem, trace, f_max=config.dp_msr.f_max)
