"""A scenario run loads neither scipy nor networkx: scipy is imported only
inside the stealth analysis and the envelope validation, so that every
fresh process running a scenario skips its import cost."""

import subprocess
import sys

import pytest

SCENARIO_RUN = """
import sys
from dataclasses import replace

import numpy as np

import resilnet as rn
from resilnet import reports, scenarios
from resilnet.isolation import DetectorSettings, RescueProblem
from resilnet.observers import ThresholdRule

def heavy():
    return sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "networkx"})

assert heavy() == [], ("import resilnet", heavy())
example1 = scenarios.materialize(scenarios.generate_example1(0))
rn.run_rescue(replace(example1, horizon=1.0))
# criterion 5's recipe: an attack-free run under analytic thresholds
rng = np.random.default_rng(5000)
net = scenarios.split_edges_alternating(
    scenarios.random_connected_graph(rng, 5, 0.6), 0.5, 4.0, int(rng.integers(0, 2**31))
)
rn.run_rescue(
    RescueProblem(
        net=net,
        gains=rn.Gains(1.0, 3.0),
        initial=rn.SystemState(rng.uniform(-5, 5, 5), np.zeros(5)),
        detector=DetectorSettings(threshold=ThresholdRule(kind="analytic")),
    )
)
reports.graph_metrics(scenarios.generate_example2(0))
assert heavy() == [], ("scenario run", heavy())
"""

LAZY_LOADERS = {
    # no probe finds a zero of this pencil, so the search reaches the
    # projected generalized eigenvalue problem
    "stealth": "rn.zero_dynamics_search(rn.path_graph(5), [4], rn.Gains(1.0, 3.0))",
    "envelope": (
        "from resilnet.observers import design_gain, two_hop_view, validate_envelope\n"
        "view = two_hop_view(rn.path_graph(4), 0, rn.Gains(1.0, 3.0))\n"
        "gain = design_gain(view)\n"
        "validate_envelope(view.a_model - gain.h_matrix @ view.c_meas, gain, points=10)"
    ),
}


@pytest.mark.parametrize("loader", sorted(LAZY_LOADERS))
def test_scenario_run_loads_no_scipy_or_networkx(loader):
    script = SCENARIO_RUN + LAZY_LOADERS[loader] + '\nassert "scipy" in sys.modules\n'
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
