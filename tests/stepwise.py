"""Per-step forms of the timeline walker's block callees: the references the
block path is pinned against, bit for bit."""

import math

import numpy as np
import pytest

from resilnet import isolation
from resilnet.isolation import _ObserverBank


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
    """The bank's observer step across one plant step, on ``z`` holding the
    estimates and then the measurements; returns every slot's residual."""
    est = bank.est
    z[:, est:] = np.concatenate((x_start, x_end))[bank.gather]
    z[:, :est] = bank.step_mat @ z
    return x_end[bank.slot_meas] - z.ravel()[bank.slot_state]


def _thresholds(bank, t):
    """Every slot's threshold at ``t``."""
    rule = bank.rule
    if rule.kind == "constant":
        return bank.eps
    if rule.kind == "exponential":
        return np.full(len(bank.pairs), rule.evaluate(t, None))
    if not t >= bank.t_k_max:
        raise ValueError("need t >= t_k >= t0")
    eps = []
    for a, b, neg_lambda, t_k in bank.terms.T.tolist():
        d = math.exp(neg_lambda * (t - t_k))
        eps.append(a * d + b * (1.0 - d))
    return np.array(eps)[bank.slot_row]


def stepwise_rescue(problem, keep=None):
    """``run_rescue`` with each block run one step at a time: the plant step,
    the bank's observer step, the thresholds, the test |r| > eps and the log
    step, stopping after the first step with a verdict.  ``keep(bank, t,
    res, eps, hits)`` sees every log step."""
    pending = {}

    def stash(plant, X, k0, k1, U):
        pending.update(plant=plant, U=U)
        return k1

    def advance(bank, X, k0, k1):
        plant, U = pending["plant"], pending["U"]
        rows, _, width = bank.step_mat.shape
        z = np.zeros((rows, width, 1))
        z[:, : bank.est] = bank.x_hat
        verdicts = ()
        for k in range(k0, k1):
            X[k + 1] = plant_step(plant, X[k], U[k - k0])
            res = _bank_step(bank, z, X[k], X[k + 1])
            t = (k + 1) * bank.h
            eps = _thresholds(bank, t)
            hits = (np.abs(res) > eps).nonzero()[0].tolist()
            if (k + 1) % bank.stride == 0:
                bank.logged.append((np.array([t]), res[None], eps[None]))
                if keep is not None:
                    keep(bank, t, res, eps, hits)
            if hits:
                verdicts = [(s, float(res[s]), float(eps[s])) for s in hits]
                break
        bank.x_hat = z[:, : bank.est].copy()
        return k + 1, verdicts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isolation, "_plant_rows", stash)
        patch.setattr(_ObserverBank, "advance", advance)
        return isolation.run_rescue(problem)
