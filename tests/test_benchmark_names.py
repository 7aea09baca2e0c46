"""The benchmark's tracer wraps resilnet functions and methods by name; a
rename or deletion of one of them must fail here, not only in a traced
benchmark run."""

import sys
from pathlib import Path

import numpy as np

import resilnet
from resilnet import reports  # noqa: F401  -- the tracer wraps its writers
from resilnet.dynamics import Gains, SystemState
from resilnet.graphs import Graph, SwitchingNetwork
from resilnet.isolation import RescueProblem, run_rescue

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _package_bindings(classes):
    """Every attribute of every loaded resilnet module and of ``classes``,
    by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "resilnet" or name.startswith("resilnet."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for cls in classes:
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = value
    return out


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    classes = {getattr(resilnet.observers, cls) for cls, _ in tracer.METHODS.values()}
    before = _package_bindings(classes)
    t = tracer.Tracer()
    try:
        t.install(resilnet)
        during = _package_bindings(classes)
        wrapped = {key for key, value in before.items() if during[key] is not value}
        for span, targets in tracer.FUNCTIONS.items():
            for module, attr in targets:
                assert (f"resilnet.{module}", attr) in wrapped, span
        for span, (cls_name, attr) in tracer.METHODS.items():
            assert (cls_name, attr) in wrapped, span
    finally:
        t.uninstall()
    after = _package_bindings(classes)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_reconfigurations(monkeypatch):
    # three modes on six agents: dropping edge 0-1 from K5 leaves every 2-hop
    # view's members as they are (a kept estimate), while cutting agent 5
    # off changes them (a remap); every observer starts with a reinit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    modes = (
        Graph(6, (*k5, (4, 5))),
        Graph(6, (*k5[1:], (4, 5))),
        Graph(6, tuple(k5)),
    )
    net = SwitchingNetwork(modes, ((0.0, 0), (0.1, 1), (0.2, 2)), 0.3)
    problem = RescueProblem(
        net=net,
        gains=Gains(1.0, 3.0),
        initial=SystemState(np.linspace(-1.0, 1.0, 6), np.zeros(6)),
    )
    t = tracer.Tracer()
    try:
        t.install(resilnet)
        run_rescue(problem)
    finally:
        t.uninstall()
    layers = t.layer_metrics(0.0)
    for kind in ("keep", "remap", "reinit"):
        assert layers[f"observers.reconfig.{kind}"] > 0, kind
