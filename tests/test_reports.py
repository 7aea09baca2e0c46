"""The row-template CSV writers against the per-cell writer they replaced,
the stacked lambda_2 series against a per-window loop, and the columnar
residual log against a record-by-record log: the bytes of every file must
be equal."""

import numpy as np
import pytest

from resilnet import reports
from resilnet.dynamics import (
    AttackSignal,
    DeceptionAttack,
    DoSInterval,
    DoSRandomSpec,
    DoSSchedule,
    Gains,
    SimulationTrace,
    SystemState,
    simulate,
)
from resilnet.graphs import ZERO_TOL, Graph, _lambda2_stack, _window_means, laplacian
from resilnet.isolation import (
    DetectorSettings,
    IsolationEvent,
    LogEpoch,
    ResidualLog,
    RescueProblem,
    run_rescue,
)
from resilnet.observers import ThresholdRule, make_record
from resilnet.scenarios import random_connected_graph, split_edges_alternating
from stepwise import stepwise_rescue


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_cells(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _lambda2(lap):
    """``algebraic_connectivity`` as one eigensolve and one SVD of one matrix."""
    lam2 = float(np.linalg.eigvalsh(lap)[1])
    scale = max(1.0, float(np.linalg.norm(lap, 2)))
    return 0.0 if abs(lam2) <= ZERO_TOL * scale else lam2


def _lambda2_rows(trace, window, points=200):
    """(t, lambda_2) of the realized mean Laplacian over each window of a
    uniform grid of starts, one window and one segment at a time."""
    n = trace.node_count
    for t0 in np.linspace(0.0, float(trace.t[-1]) - window, points):
        acc = np.zeros((n, n))
        for a, b, _, edges, _ in trace.segments:
            lo, hi = max(a, t0), min(b, t0 + window)
            if hi > lo:
                acc += (hi - lo) * laplacian(Graph(n, tuple(edges)))
        yield t0, _lambda2(acc / window)


def _reference_files(out, trace, events, residual_log, window):
    """The four CSVs as the per-cell writer wrote them."""
    n = trace.node_count
    _write_cells(
        out / "trace.csv",
        ["t"] + [f"p_tilde_{i}" for i in range(n)] + [f"v_{i}" for i in range(n)]
        + ["active_mode", "dos_active"],
        (
            [trace.t[k]] + list(trace.p_tilde[k]) + list(trace.v[k])
            + [int(trace.mode_index[k]), bool(trace.dos_active[k])]
            for k in range(len(trace.t))
        ),
    )
    _write_cells(
        out / "events.csv",
        ["t", "detector", "isolated", "residual_value", "threshold"],
        ([e.t, e.detector, e.isolated, e.residual, e.threshold] for e in events),
    )
    _write_cells(
        out / "residuals.csv",
        ["t", "owner", "neighbor", "residual", "threshold", "verdict"],
        (
            [rec.t, rec.owner, j, r, eps, verdict]
            for rec in residual_log
            for j, r, eps, verdict in zip(
                rec.neighbors, rec.residuals, rec.thresholds, rec.verdicts
            )
        ),
    )

    def long_rows():
        stride = max(1, len(trace.t) // 3000)
        for k in range(0, len(trace.t), stride):
            for i in range(n):
                yield [trace.t[k], f"p_tilde_{i}", trace.p_tilde[k, i]]
        for rec in residual_log:
            for j, r, eps in zip(rec.neighbors, rec.residuals, rec.thresholds):
                yield [rec.t, f"residual_{rec.owner}_{j}", abs(r)]
                yield [rec.t, f"threshold_{rec.owner}_{j}", eps]
        for t, val in _lambda2_rows(trace, window):
            yield [t, "lambda2_window", val]

    _write_cells(out / "plot_data.csv", ["t", "series", "value"], long_rows())


def _scan_lambda2_series(trace, window, points=200):
    """``reports.lambda2_series`` as it was before it bisected the segments:
    every segment scanned for every window start, 32 windows per stack."""
    n = trace.node_count
    index = {}
    segments = [
        (a, b, index.setdefault(edges, len(index))) for a, b, _, edges, _ in trace.segments
    ]
    laps = np.stack([laplacian(Graph(n, tuple(edges))) for edges in index])
    starts = np.linspace(0.0, float(trace.t[-1]) - window, points)
    out = np.empty(points)
    for first in range(0, points, 32):
        pieces = []
        for t0 in starts[first : first + 32].tolist():
            t1 = t0 + window
            pieces.append(
                [(min(b, t1) - max(a, t0), k) for a, b, k in segments if min(b, t1) > max(a, t0)]
            )
        out[first : first + 32] = _lambda2_stack(_window_means(laps, pieces, window))
    return starts, out


EXPONENTIAL = ThresholdRule(kind="exponential", amplitude=10.0, rate=1.0, offset=0.95)


def _rescue_problem(threshold=EXPONENTIAL, residual_log_stride=10):
    """A short rescue problem: ramp attacker, counted-trials DoS, two modes."""
    rng = np.random.default_rng(20240817)
    horizon = 4.0
    overlay = random_connected_graph(rng, 6, 0.6)
    net = split_edges_alternating(overlay, 0.5, horizon, 5)
    dos = DoSSchedule((DoSInterval(0.5, 2.0, random=DoSRandomSpec(12, 0.6, 3)),))
    return RescueProblem(
        net=net,
        gains=Gains(1.0, 3.0),
        initial=SystemState(rng.uniform(-5, 5, 6), np.zeros(6)),
        attacks=(DeceptionAttack(5, 0.0, AttackSignal("ramp", slope=0.9)),),
        dos=dos,
        horizon=horizon,
        detector=DetectorSettings(threshold=threshold, residual_log_stride=residual_log_stride),
    )


def _rescue_inputs():
    result = run_rescue(_rescue_problem())
    assert result.run.events
    # more than one formatting block, the last one partial
    assert len(result.trace.t) % reports._BLOCK != 0
    assert len(result.trace.t) > 2 * reports._BLOCK
    return result.trace, result.run.events, result.residual_log


EDGE_VALUES = (-0.0, 5e-324, 1e300, 123456789012.5, -2.5e-7, np.inf, -np.inf, np.nan)


def _edge_value_inputs():
    """A hand-built trace and columnar log holding signed zero, a subnormal,
    huge and long-mantissa values, non-finite values, three modes and both
    DoS flags."""
    steps = 9
    t = np.arange(steps) * 0.375
    values = np.array(EDGE_VALUES + (0.1,))
    p_tilde = np.stack([np.roll(values, k)[:3] for k in range(steps)])
    v = -p_tilde[::-1]
    edges = ((0, 1), (1, 2))
    trace = SimulationTrace(
        t=t,
        p_tilde=p_tilde,
        v=v,
        mode_index=np.array([0, 0, 1, 1, 2, 2, 2, 0, 1]),
        dos_active=np.array([False, True, True, False, False, True, False, False, True]),
        segments=(
            (0.0, 1.0, 0, edges, False),
            (1.0, 2.0, 1, edges[:1], True),
            (2.0, 3.0, 2, edges, False),
        ),
        step_h=0.375,
    )
    events = tuple(
        IsolationEvent(t=float(t[k]), detector=k % 3, isolated=(k + 1) % 3, residual=x, threshold=y)
        for k, (x, y) in enumerate(zip(EDGE_VALUES, EDGE_VALUES[::-1]))
    )

    # the verdict of (0, 2) turns within the first epoch, that of (3, 7)
    # within the second
    flag_t = {(0, 2): t[2], (3, 7): t[6]}

    def epoch(ks, owners):
        # log step k, group g: the values rolled by k + 3 g
        shifts = [[k + 3 * g for g in range(len(owners))] for k in ks]
        res = np.array([np.concatenate([np.roll(values, s)[:3] for s in row]) for row in shifts])
        eps = np.array([np.concatenate([np.roll(values, -s)[:3] for s in row]) for row in shifts])
        pairs = tuple((i, j) for i in owners for j in (1, 2, 7))
        flags = np.array([flag_t.get(pair, np.inf) for pair in pairs])
        groups = tuple((i, (1, 2, 7), 3 * g, 3 * g + 3) for g, i in enumerate(owners))
        return LogEpoch(t[ks], res, eps, pairs, flags, groups)

    log = ResidualLog((epoch([0, 1, 2, 3, 4], (0, 3)), epoch([5, 6, 7, 8], (3,))))
    return trace, events, log


def _fixed_threshold_inputs():
    """The edge-value trace and events with a log whose thresholds are fixed
    in some slots: a bitwise-fixed column, 0.0 then -0.0, NaN of one sign
    and of both signs and a fixed -0.0, beside a varying slot, in an epoch
    whose verdicts turn twice; and a one-row epoch."""
    trace, events, _ = _edge_value_inputs()
    t = trace.t
    values = np.array(EDGE_VALUES + (0.1,))
    rows = 6
    eps = np.empty((rows, 6))
    eps[:, 0] = 0.95
    eps[:, 1] = -0.0
    eps[0, 1] = 0.0
    eps[:, 2] = np.nan
    eps[:, 3] = np.where(np.arange(rows) % 2, np.nan, -np.nan)
    eps[:, 4] = -0.0
    eps[:, 5] = values[:rows]
    res = np.stack([np.roll(values, k)[:6] for k in range(rows)])
    pairs = ((0, 1), (0, 2), (0, 7), (3, 1), (3, 2), (3, 7))
    flags = np.array([np.inf, t[2], np.inf, t[4], np.inf, np.inf])
    groups = ((0, (1, 2, 7), 0, 3), (3, (1, 2, 7), 3, 6))
    mixed = LogEpoch(t[:rows], res, eps, pairs, flags, groups)
    one_row = LogEpoch(
        t[rows : rows + 1],
        np.array([[5e-324, -np.inf, 0.1]]),
        np.array([[-0.0, np.nan, 1e300]]),
        pairs[3:],
        np.array([t[4], np.inf, t[rows]]),
        ((3, (1, 2, 7), 0, 3),),
    )
    return trace, events, ResidualLog((mixed, one_row))


@pytest.mark.parametrize(
    "make_inputs",
    [_rescue_inputs, _edge_value_inputs, _fixed_threshold_inputs],
    ids=["rescue", "edge_values", "fixed_thresholds"],
)
def test_writers_match_per_cell_format(make_inputs, tmp_path):
    trace, events, log = make_inputs()
    window = 1.0
    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir()
    _reference_files(ref, trace, events, log, window)
    reports.write_trace_csv(out / "trace.csv", trace)
    reports.write_events_csv(out / "events.csv", events)
    reports.write_residuals_csv(out / "residuals.csv", log)
    reports.write_long_csv(out / "plot_data.csv", trace, log, window=window)
    for name in ("trace.csv", "events.csv", "residuals.csv", "plot_data.csv"):
        expected = (ref / name).read_bytes()
        assert (out / name).read_bytes() == expected, name
    assert b"lambda2_window" in (ref / "plot_data.csv").read_bytes()


def _record_by_record(problem):
    """The log kept the way it was kept before it became columnar: on every
    log step of the step-by-step run, one ``make_record`` per detector with
    neighbors, its verdicts from the flags raised so far."""
    records, flagged = [], set()

    # a verdict ends its bank and no later bank holds the pair, so the flags
    # raised on log steps are all that a record can show
    def keep(bank, t, residuals, eps, hits):
        flagged.update(bank.pairs[s] for s in hits)
        for i, nbrs, lo, hi in bank.groups:
            mine = {j for d, j in flagged if d == i}
            records.append(make_record(t, i, nbrs, residuals[lo:hi], eps[lo:hi], mine))

    stepwise_rescue(problem, keep)
    return records


# divides neither every realized segment's step count nor every event's step
STRIDE = 4


@pytest.mark.parametrize(
    "rule",
    [ThresholdRule(kind="constant", value=0.95), EXPONENTIAL, ThresholdRule(kind="analytic")],
    ids=["constant", "exponential", "analytic"],
)
def test_columnar_log_matches_record_log(rule, tmp_path):
    problem = _rescue_problem(rule, STRIDE)
    result, records = run_rescue(problem), _record_by_record(problem)
    trace, events, log = result.trace, result.run.events, result.residual_log
    h = problem.step_h
    assert any(round((b - a) / h) % STRIDE for a, b, *_ in trace.segments)
    if rule.kind == "exponential":
        # one verdict lands on a log step, and one between two
        logged = {rec.t for rec in records}
        assert {e.t in logged for e in events} == {True, False}
    got = list(log)
    assert len(log) == len(got) == len(records)

    def fields(rec):
        return rec.t, rec.owner, rec.neighbors, rec.residuals, rec.thresholds, rec.verdicts

    assert [fields(rec) for rec in got] == [fields(rec) for rec in records]
    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir()
    _reference_files(ref, trace, events, records, 1.0)
    reports.write_residuals_csv(out / "residuals.csv", log)
    reports.write_long_csv(out / "plot_data.csv", trace, log, window=1.0)
    for name in ("residuals.csv", "plot_data.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


@pytest.mark.parametrize(
    "rule",
    [ThresholdRule(kind="constant", value=0.95), EXPONENTIAL, ThresholdRule(kind="analytic")],
    ids=["constant", "exponential", "analytic"],
)
def test_writer_blocks_do_not_show(rule, tmp_path, monkeypatch):
    result = run_rescue(_rescue_problem(rule))
    log = result.residual_log
    # a block holds at most 16 _BLOCK cells, more than one per slot and row,
    # so at 7 (and 1) block ends fall inside a run of equal verdicts
    runs = []
    for e in log.epochs:
        bounds = sorted({0, len(e.t), *np.searchsorted(e.t, e.flag_t).tolist()})
        runs += [hi - lo > 16 * 7 // len(e.pairs) for lo, hi in zip(bounds, bounds[1:])]
    assert any(runs)
    # the trace has more than one run of equal mode and DoS flag, and at 7
    # one of them spans a block end too
    trace = result.trace
    mode, dos = trace.mode_index, trace.dos_active
    turns = np.flatnonzero((mode[1:] != mode[:-1]) | (dos[1:] != dos[:-1])) + 1
    lengths = np.diff([0, *turns.tolist(), len(mode)])
    assert len(lengths) >= 2
    assert (lengths > 16 * 7 // (1 + 2 * trace.node_count)).any()
    names = ("residuals.csv", "plot_data.csv", "trace.csv")
    files = {}
    for block in (1, 7, 512):
        monkeypatch.setattr(reports, "_BLOCK", block)
        out = tmp_path / str(block)
        reports.write_residuals_csv(out / "residuals.csv", log)
        reports.write_long_csv(out / "plot_data.csv", trace, log, window=1.0)
        reports.write_trace_csv(out / "trace.csv", trace)
        files[block] = [(out / name).read_bytes() for name in names]
    assert files[1] == files[7] == files[512]


def test_lambda2_series_matches_segment_scan(monkeypatch):
    # DoS trials blink single links on and off, so windows cut many short
    # segments; windows of one stack, of 32 and of one
    rng = np.random.default_rng(3)
    overlay = random_connected_graph(rng, 10, 0.5)
    net = split_edges_alternating(overlay, 0.5, 8.0, 9)
    dos = DoSSchedule((DoSInterval(1.0, 5.0, random=DoSRandomSpec(60, 0.6, 4)),))
    trace = simulate(net, Gains(1.0, 3.0), SystemState(rng.uniform(-5, 5, 10), np.zeros(10)), dos=dos)
    assert sum(d for *_, d in trace.segments) > 20
    for trace in (trace, run_rescue(_rescue_problem()).trace):
        for windows in (200, 32, 1):
            monkeypatch.setattr(reports, "_WINDOW_WORK", windows * trace.node_count**2)
            for window in (1.0, 0.37):
                got = reports.lambda2_series(trace, window)
                want = _scan_lambda2_series(trace, window)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
