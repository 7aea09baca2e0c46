"""Per-step forms of the timeline walker's block callees, and the rescue
loop that rebuilt every view on every edge-set change: the references the
block path and the view cache are pinned against, bit for bit."""

import numpy as np
import pytest

from resilnet import isolation
from resilnet.dynamics import _attackers, _plant_matrices, _plant_rows, _walk, stability_constants
from resilnet.graphs import Graph, pe_margin
from resilnet.isolation import (
    IsolationEvent,
    RescueResult,
    RescueRun,
    ResidualLog,
    _ObserverBank,
    _auto_w_budget,
    _observer_step_matrices,
)
from resilnet.observers import (
    STRUCTURED_K1,
    ObserverGain,
    ObserverState,
    design_gain,
    gain_matrix,
    two_hop_view,
)


def per_step(step, removed=None):
    """A ``_walk`` block callee that steps one step at a time: row k + 1 is
    ``step(context, X[k], k, u)``, ``u`` being row k - k0 of the block's
    injections.  It stops after a step that grew ``removed``."""

    def advance(context, X, k0, k1, U):
        for k in range(k0, k1):
            size = len(removed) if removed is not None else 0
            X[k + 1] = step(context, X[k], k, U[k - k0])
            if removed is not None and len(removed) > size:
                return k + 1
        return k1

    return advance


def plant_step(plant, x, u):
    """One RK4 step of the closed loop by its step matrices."""
    r, g = plant
    return r @ x + g @ u


def _bank_step(bank, z, x_start, x_end):
    """The bank's observer step across one plant step, on the column vectors
    ``z`` holding the estimates and then the measurements, by ``np.matmul``;
    returns every slot's residual."""
    est = bank.est
    z[:, est:, 0] = np.concatenate((x_start, x_end))[bank.gather]
    z[:, :est] = bank.step_mat @ z
    return x_end[bank.slot_meas] - z.ravel()[bank.slot_state]


def _threshold_inputs(problem):
    """(consts, x0_norm) of ``problem``'s thresholds: the stability constants
    of an analytic rule, None otherwise, and |x0|."""
    net, settings = problem.net, problem.detector
    consts = None
    if settings.threshold.kind == "analytic":
        mu = pe_margin(net, settings.pe_window).mu
        consts = stability_constants(mu, settings.pe_window, problem.gains, net.node_count)
    return consts, float(np.linalg.norm(problem.initial.stacked()))


def _thresholds(bank, rule, t, consts, x0_norm):
    """Every slot's threshold at ``t``: ``rule.evaluate`` of its detector."""
    eps = [rule.evaluate(t, obs, 0.0, x0_norm, consts) for obs in bank.observers]
    return np.array(eps)[bank.slot_row]


def stepwise_rescue(problem, keep=None):
    """``run_rescue`` with each block run one step at a time: the plant step,
    the bank's observer step, the thresholds, the test |r| > eps and the log
    step, stopping after the first step with a verdict.  ``keep(bank, t,
    res, eps, hits)`` sees every log step."""
    pending = {}
    consts, x0_norm = _threshold_inputs(problem)

    def stash(plant, X, k0, k1, U):
        pending.update(plant=plant, U=U)
        return k1

    def advance(bank, X, k0, k1):
        plant, U = pending["plant"], pending["U"]
        rows, _, width = bank.step_mat.shape
        z = np.zeros((rows, width, 1))
        z[:, : bank.est, 0] = bank.x_hat
        verdicts = ()
        for k in range(k0, k1):
            X[k + 1] = plant_step(plant, X[k], U[k - k0])
            res = _bank_step(bank, z, X[k], X[k + 1])
            t = (k + 1) * bank.h
            eps = _thresholds(bank, problem.detector.threshold, t, consts, x0_norm)
            hits = (np.abs(res) > eps).nonzero()[0].tolist()
            if (k + 1) % bank.stride == 0:
                bank.logged.append((np.array([t]), res[None], eps[None]))
                if keep is not None:
                    keep(bank, t, res, eps, hits)
            if hits:
                verdicts = [(s, float(res[s]), float(eps[s])) for s in hits]
                bank.flag_t[hits] = t
                break
        bank.x_hat = z[:, : bank.est, 0].copy()
        return k + 1, verdicts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isolation, "_plant_rows", stash)
        patch.setattr(_ObserverBank, "advance", advance)
        return isolation.run_rescue(problem)


def rebuild_all_rescue(problem):
    """``run_rescue`` as it was before its view cache: every edge-set change
    builds every detector's view and compares it with the observer's by
    members and model; gains are cached by size or by the certified model,
    step matrices by the model's and the gain's bytes."""
    net, gains, settings = problem.net, problem.gains, problem.detector
    n, h = net.node_count, problem.step_h
    certified = settings.threshold.kind == "analytic"
    consts, x0_norm = _threshold_inputs(problem)
    w_budget = _auto_w_budget(problem, consts)
    detectors = problem.cooperative
    removed, observers, step_matrices, events, epochs = set(), {}, {}, [], []
    gain_cache, step_cache = {}, {}
    banks = []
    agents = _attackers(problem.attacks)

    def observer_gain(view):
        key = (view.owner, view.a_model.tobytes()) if certified else view.size
        if key not in gain_cache:
            if certified:
                gain_cache[key] = design_gain(view)
            else:
                gain_cache[key] = ObserverGain(gain_matrix(view, STRUCTURED_K1), None, None, None)
        return gain_cache[key]

    def on_edges(edges, t, x):
        if banks:
            banks[-1].close(epochs)
        graph_eff = Graph(n, tuple(sorted(edges)))
        plant = _plant_matrices(graph_eff, gains, agents, h)
        for i in detectors:
            view = two_hop_view(graph_eff, i, gains)
            obs = observers.get(i)
            if (
                obs is not None
                and view.members == obs.view.members
                and np.array_equal(view.a_model, obs.view.a_model)
            ):
                continue
            gain = observer_gain(view)
            if obs is None:
                obs = observers[i] = ObserverState(view, gain, w_budget, t)
                obs.reinit(view.measure(x[:n], x[n:]), t)
            elif view.members == obs.view.members:
                obs.reconfigure(view, gain, t, keep_state=True)
            else:
                obs.remap(view, gain, view.measure(x[:n], x[n:]), t)
            key = (obs.view.a_model.tobytes(), obs.gain.h_matrix.tobytes())
            if key not in step_cache:
                step_cache[key] = _observer_step_matrices(obs.view, obs.gain, h)
            step_matrices[i] = step_cache[key]
        rows = [
            (
                observers[i],
                step_matrices[i],
                graph_eff.neighbors(i),
                settings.threshold.terms(observers[i], 0.0, x0_norm, consts),
            )
            for i in detectors
        ]
        banks.append(_ObserverBank(rows, n, h, settings.residual_log_stride))
        return plant, banks[-1]

    def advance(context, X, k0, k1, U):
        plant, bank = context
        _plant_rows(plant, X, k0, k1, U)
        k_end, verdicts = bank.advance(X, k0, k1)
        for s, res, eps in verdicts:
            i, j = bank.pairs[s]
            removed.add((min(i, j), max(i, j)))
            events.append(IsolationEvent(k_end * h, i, j, res, eps))
        return k_end

    trace = _walk(
        net, problem.initial, problem.attacks, problem.dos, problem.horizon, h,
        on_edges, advance, removed,
    )
    banks[-1].close(epochs)
    run = RescueRun(problem, tuple(events), frozenset(removed), detectors, consts)
    return RescueResult(trace, run, ResidualLog(tuple(epochs)))
