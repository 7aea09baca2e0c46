import contextlib
import copy
import functools
import io
import json
import math
import operator
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

from resilnet.cli import main
from resilnet.dynamics import DoSSchedule, DoSInterval, simulate
from resilnet.errors import ConfigurationError
from resilnet.graphs import pe_margin, r_robustness
from resilnet.isolation import dp_msr_run, run_rescue
from resilnet.scenarios import (
    ScenarioConfig,
    build_network,
    config_from_dict,
    config_to_dict,
    generate_example1,
    generate_example2,
    materialize,
    network_union,
    split_edges_blinking,
    random_connected_graph,
)
from resilnet.graphs import adversary_classification


def test_config_roundtrip_example1():
    config = generate_example1(7)
    assert config_from_dict(config_to_dict(config)) == config
    # through actual JSON text as well
    text = json.dumps(config_to_dict(config))
    assert config_from_dict(json.loads(text)) == config
    # inline modes, explicit initial state and fixed DoS edges
    from resilnet.scenarios import InitialSpec, NetworkSpec

    net = build_network(config.network)
    inline = replace(
        config,
        network=NetworkSpec(horizon=net.horizon, modes=net.modes, schedule=net.schedule),
        initial=InitialSpec(kind="explicit", p_tilde=(1.0,) * 8, v=(0.0,) * 8),
        dos=DoSSchedule((DoSInterval(1.0, 2.0, dropped_edges=((0, 1), (2, 3))),)),
    )
    assert config_from_dict(json.loads(json.dumps(config_to_dict(inline)))) == inline


def test_config_roundtrip_example2():
    config = generate_example2(3)
    assert config_from_dict(config_to_dict(config)) == config


def test_config_rejects_unknown_fields():
    d = config_to_dict(generate_example1(0))
    d["volume"] = 11
    with pytest.raises(ConfigurationError, match="volume"):
        config_from_dict(d)
    d2 = config_to_dict(generate_example1(0))
    d2["detector"]["threshold"]["shape"] = "round"
    with pytest.raises(ConfigurationError, match="shape"):
        config_from_dict(d2)


def test_config_reports_missing_fields():
    d = config_to_dict(generate_example1(0))
    del d["gains"]["alpha"]
    with pytest.raises(ConfigurationError, match="alpha"):
        config_from_dict(d)


_DROP = object()  # mutation that deletes the field


def _field_paths(node, prefix=()):
    """Every object-key and list-index path of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _mutated(d, path, value):
    d = copy.deepcopy(d)
    node = functools.reduce(operator.getitem, path[:-1], d)
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d


class _Overrun(Exception):
    """Raised by the alarm; neither the CLI nor the decoder catches it."""


def _mutation_sweep(*runs):
    """Run each of ``runs`` on every field of a 1 s example1 document
    dropped, nulled, retyped, made NaN, inf or 0, negated, or scaled (ints
    by 10**9, floats by 1e9 and by 1e-9, a 0 replaced by the factor).
    Return (path, value, index of the run, exception) of each run that
    raised or took longer than the 2 s alarm, and (path, value, what each
    run returned) of each document."""
    base = config_to_dict(generate_example1(0))
    base["network"]["horizon"] = 1.0
    base["dos"]["intervals"][0]["duration"] = 1.0

    def on_alarm(signum, frame):
        raise _Overrun("no return within the bound")

    escaped, outcomes = [], []
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        for path in list(_field_paths(base)):
            original = functools.reduce(operator.getitem, path, base)
            values = [_DROP, None, "x", math.nan, math.inf, 0]
            if type(original) in (int, float):
                values.append(-original)
            if type(original) is int:
                values.append(original * 10**9 or 10**9)
            elif type(original) is float:
                values += [original * 1e9 or 1e9, original * 1e-9 or 1e-9]
            for value in values:
                d = _mutated(base, path, value)
                results = []
                for k, run in enumerate(runs):
                    signal.alarm(2)
                    try:
                        results.append(run(d))
                    except Exception as exc:
                        escaped.append((path, value, k, repr(exc)))
                        results.append(None)
                    finally:
                        signal.alarm(0)
                outcomes.append((path, value, results))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return escaped, outcomes


def test_config_mutation_sweep():
    # decoding and materializing either return or raise
    # ConfigurationError/ValueError
    def decode(d):
        try:
            materialize(config_from_dict(d))
        except (ConfigurationError, ValueError):
            pass

    escaped, _ = _mutation_sweep(decode)
    assert not escaped


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


_VERBS = ("rescue", "simulate", "analyze-graph", "dp-msr")
# mutations on which one verb may end differently from the others: that
# verb and its outcome
_ONE_VERB_DIFFERS = {
    # only dp-msr runs the dp_msr section, so only it needs one
    (("dp_msr",), None): ("dp-msr", (2, "configuration")),
    (("dp_msr",), _DROP): ("dp-msr", (2, "configuration")),
}


@pytest.fixture(scope="module")
def cli_sweep(tmp_path_factory):
    # every verb in-process on every mutated document, once for the
    # per-verb tests below: (exceptions, outcomes) of _mutation_sweep
    tmp = tmp_path_factory.mktemp("cli_sweep")
    config, out = tmp / "scenario.json", tmp / "out"

    def verb_run(verb):
        def run(d):
            config.write_text(json.dumps(d))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([verb, "--config", str(config), "--out", str(out)])
            if code == 0:
                assert isinstance(_strict_json(stdout.getvalue()), dict)
                return code, None
            error = _strict_json(stderr.getvalue())
            assert code == 2 and error["error"] and "message" in error, (verb, stderr.getvalue())
            return code, error["error"]

        return run

    return _mutation_sweep(*map(verb_run, _VERBS))


@pytest.mark.parametrize("verb", _VERBS)
def test_cli_mutation_sweep(verb, cli_sweep):
    # the verb on every mutated document: exit 0 with a JSON report or exit
    # 2 with a categorized JSON error, no traceback; and the same (exit
    # code, category) as every other verb, as each one checks the document
    # through materialize before anything else
    escaped, outcomes = cli_sweep
    k = _VERBS.index(verb)
    assert not [e for e in escaped if e[2] == k]
    # both outcomes occur
    assert {results[k][0] for *_, results in outcomes if results[k]} == {0, 2}
    for path, value, results in outcomes:
        by_verb = dict(zip(_VERBS, results))
        differs = _ONE_VERB_DIFFERS.get((path, value))
        if differs:
            one, outcome = differs
            assert by_verb.pop(one) == outcome, (path, value)
            if one == verb:
                continue
        assert all(r == by_verb[verb] for r in by_verb.values()), (path, value, by_verb)


def test_example1_network_properties():
    config = generate_example1(0)
    net = build_network(config.network)
    overlay = network_union(net)
    assert r_robustness(overlay) == 3
    assert adversary_classification(overlay, (5, 6)) == (2, 2)
    report = pe_margin(net, 1.0)
    assert report.mu > 0


def test_example2_network_properties():
    config = generate_example2(0)
    malicious = sorted({a.agent for a in config.attacks})
    assert len(malicious) == 9
    overlay = network_union(build_network(config.network))
    assert max(overlay.degree(i) for i in range(84)) <= 9
    f_total, f_local = adversary_classification(overlay, malicious)
    assert f_total == 9 and f_local <= 1
    # every malicious agent remains visible to some cooperative neighbor
    for m in malicious:
        assert set(overlay.neighbors(m)) - set(malicious)


def test_generated_seeds_differ():
    a, b = generate_example1(0), generate_example1(1)
    assert a != b


def test_materialize_rejects_bad_attack_agent():
    config = generate_example1(0)
    from resilnet.dynamics import AttackSignal, DeceptionAttack

    bad = replace(
        config,
        attacks=(DeceptionAttack(99, 0.0, AttackSignal("constant", value=1.0)),),
    )
    with pytest.raises(ConfigurationError):
        materialize(bad)


def test_materialize_grid_checks_take_any_quotient():
    # a split_period of 1e318 steps is a quotient no int holds: the grid
    # checks decide it without overflow, and the period outlasts the run
    d = config_to_dict(generate_example1(0))
    d["network"]["horizon"] = d["detector"]["pe_window"] = 2e-12
    d["step_h"] = 1e-18
    d["network"]["generator"]["split_period"] = 1e300
    assert materialize(config_from_dict(d)).net.schedule == ((0.0, 0),)


def test_blinking_split_union(rng):
    overlay = random_connected_graph(rng, 10, 0.4)
    net = split_edges_blinking(overlay, 0.5, 3.0, 4, blink_fraction=0.3)
    assert network_union(net).edges == overlay.edges
    assert net.modes[0].edges != net.modes[1].edges


# ---------------------------------------------------------------------------
# CLI and persistence
# ---------------------------------------------------------------------------


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "resilnet.cli", *args],
        capture_output=True,
        text=True,
    )


def _tiny_config(tmp_path, horizon=1.0):
    from resilnet.scenarios import GeneratorSpec, InitialSpec, NetworkSpec
    from resilnet.dynamics import Gains
    from resilnet.isolation import DetectorSettings, DPMSRConfig
    from resilnet.observers import ThresholdRule

    config = ScenarioConfig(
        name="tiny",
        network=NetworkSpec(
            horizon=horizon,
            generator=GeneratorSpec(kind="clique_pendant", n=8, r=3, seed=1),
        ),
        gains=Gains(1.0, 3.0),
        initial=InitialSpec(kind="uniform", low=-2.0, high=2.0, seed=5),
        detector=DetectorSettings(threshold=ThresholdRule(kind="constant", value=5.0)),
        dp_msr=DPMSRConfig(f_max=1),
        step_h=1e-3,
    )
    path = tmp_path / "tiny.json"
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh)
    return path


def test_cli_analyze_graph(tmp_path):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    proc = _run_cli(["analyze-graph", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pe_margin_mu"] > 0
    assert (out / "graph_metrics.json").exists()


def test_cli_simulate_and_rescue(tmp_path):
    cfg = _tiny_config(tmp_path)
    out1, out2 = tmp_path / "sim", tmp_path / "resc"
    assert _run_cli(["simulate", "--config", str(cfg), "--out", str(out1)]).returncode == 0
    assert (out1 / "trace.csv").exists()
    header = (out1 / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("t,p_tilde_0") and header.endswith("active_mode,dos_active")
    proc = _run_cli(["rescue", "--config", str(cfg), "--out", str(out2)])
    assert proc.returncode == 0, proc.stderr
    for name in ("trace.csv", "events.csv", "residuals.csv", "plot_data.csv", "report.json"):
        assert (out2 / name).exists()


def test_cli_dp_msr(tmp_path):
    # DP-MSR steps on the document's step_h: 500 steps of 2 ms in 1 s
    cfg = _tiny_config(tmp_path)
    d = json.loads(cfg.read_text())
    d["step_h"] = 2e-3
    cfg.write_text(json.dumps(d))
    out = tmp_path / "dp"
    proc = _run_cli(["dp-msr", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["f_max"] == 1
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 501


def test_cli_malformed_config(tmp_path):
    # (field path, value or _DROP, error category, message fragment): each mutated
    # document must exit 2 with a categorized error, never a traceback
    cases = [
        (("network", "generator", "kind"), "teleport", "configuration", "teleport"),
        (("step_h",), 0, "configuration", "step"),
        (("detector", "residual_log_stride"), 0, "invalid-parameter", "residual_log_stride"),
        (
            ("attacks", 0, "signal", "kind"),
            _DROP,
            "configuration",
            "scenario.attacks[0].signal.kind",
        ),
        (("attacks",), 5, "configuration", "scenario.attacks"),
        (
            ("dos", "intervals", 0, "random", "seed"),
            None,
            "configuration",
            "scenario.dos.intervals[0].random.seed",
        ),
        (("initial", "kind"), "unifrom", "configuration", "unifrom"),
        (("gains", "alpha"), math.nan, "configuration", "scenario.gains.alpha"),
        (("network", "horizon"), math.inf, "configuration", "scenario.network.horizon"),
        (("step_h",), 1e-9, "configuration", "trace limit"),
        # options a scenario document no longer has
        (("detector", "dwell"), 1, "configuration", "scenario.detector.dwell"),
        (("dp_msr", "sample_time"), 1e-3, "configuration", "scenario.dp_msr.sample_time"),
        (
            ("dp_msr", "gains"),
            {"alpha": 1.0, "gamma": 3.0},
            "configuration",
            "scenario.dp_msr.gains",
        ),
        (
            ("network", "generator", "split_style"),
            "blink",
            "configuration",
            "scenario.network.generator.split_style",
        ),
        (
            ("dos", "intervals", 0, "random", "scheme"),
            "event",
            "configuration",
            "scenario.dos.intervals[0].random.scheme",
        ),
        # example1's overlay draws from its seed alone
        (("network", "generator", "split_seed"), 7, "configuration", "split_seed"),
        (("network", "generator", "blink_fraction"), 0.5, "configuration", "blink_fraction"),
    ]
    for k, (field_path, value, category, fragment) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        d = _mutated(config_to_dict(generate_example1(0)), field_path, value)
        with open(path, "w") as fh:
            json.dump(d, fh)
        proc = _run_cli(["rescue", "--config", str(path), "--out", str(tmp_path / "x")])
        assert proc.returncode == 2, field_path
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "message"}
        assert err["error"] == category
        assert fragment in err["message"]


def test_cli_zero_step_horizon(tmp_path, capsys):
    # a horizon that rounds to no step at all is an error on every verb
    # that walks the timeline, not a crash or a one-row trace
    d = config_to_dict(generate_example1(0))
    d["network"]["horizon"] = 1e-9
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d))
    for verb in ("rescue", "simulate", "dp-msr"):
        code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
        error = json.loads(capsys.readouterr().err)
        assert code == 2, verb
        assert error["error"] == "configuration"
        assert "shorter than one step" in error["message"]


def test_cli_no_cooperative_agent(tmp_path, capsys):
    # attacks that name every agent leave no agent to detect or to report
    # on: every verb that walks the timeline rejects the document before any
    # step, not after the horizon with numpy's text
    d = config_to_dict(generate_example1(0))
    d["attacks"] = [dict(d["attacks"][k % 2], agent=k) for k in range(8)]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d))
    for verb in ("rescue", "simulate", "dp-msr", "example1"):
        code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
        error = json.loads(capsys.readouterr().err)
        assert code == 2, verb
        assert error["error"] == "configuration"
        assert "no agent is cooperative" in error["message"]
        assert not (tmp_path / verb).exists()


@pytest.mark.parametrize(
    "path, value",
    [
        (("initial", "p_tilde"), [100.0] * 8),
        (("initial", "v"), [1.0] * 8),
        (("network", "generator", "max_degree"), 3),
    ],
)
def test_cli_rejects_fields_that_change_nothing(tmp_path, capsys, path, value):
    # a uniform initial state draws from its seed and a clique_pendant
    # overlay from its seed alone: a field that neither reads is an error on
    # every document verb, not a run that ignores it
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(_mutated(config_to_dict(generate_example1(0)), path, value)))
    for verb in _VERBS:
        code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
        error = json.loads(capsys.readouterr().err)
        assert code == 2, verb
        assert error["error"] == "configuration"
        assert f"{path[-1]} has no effect" in error["message"]
        assert not (tmp_path / verb).exists()


def test_cli_generated_network_rejects_inline_fields(tmp_path, capsys):
    # a generated network carries no inline schedule or modes beside its
    # generator: every verb rejects the document rather than run the
    # generator's schedule and ignore the written one
    d = config_to_dict(generate_example1(0))
    d["network"]["schedule"] = [[0.0, 0], [0.25, 1]]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d))
    for verb in ("rescue", "simulate", "analyze-graph", "dp-msr", "example1", "example2"):
        code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
        error = json.loads(capsys.readouterr().err)
        assert code == 2, verb
        assert error["error"] == "configuration"
        assert "no inline modes or schedule" in error["message"]
        assert not (tmp_path / verb).exists()


def test_cli_random_dos_on_edgeless_network(tmp_path, capsys):
    # a random DoS trial draws one of the modes' links: on a network whose
    # modes have no edge there is none, and every verb rejects the document
    d = config_to_dict(generate_example1(0))
    d["network"] = {
        "horizon": 2.0,
        "modes": [{"node_count": 8, "edges": []}],
        "schedule": [[0.0, 0]],
        "generator": None,
    }
    d["dos"]["intervals"][0]["duration"] = 1.0
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d))
    for verb in ("rescue", "simulate", "analyze-graph", "dp-msr"):
        code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
        error = json.loads(capsys.readouterr().err)
        assert code == 2, verb
        assert error["error"] == "configuration"
        assert "no mode of the network has an edge" in error["message"]
        assert not (tmp_path / verb).exists()
    # the same network without the random DoS runs
    d["dos"] = None
    config.write_text(json.dumps(d))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "free")]) == 0


def _short_example1(tmp_path, attacked):
    """example1 seed 0's document on a 2 s horizon, written to a file, with
    ``attacked`` agents attacked (all with seed 0's attack signals)."""
    d = config_to_dict(generate_example1(0))
    d["network"]["horizon"] = 2.0
    d["dos"]["intervals"][0]["duration"] = 1.0
    d["attacks"] = [dict(d["attacks"][k % 2], agent=k) for k in attacked]
    path = tmp_path / f"attacked{len(attacked)}.json"
    path.write_text(json.dumps(d))
    return path


def test_cli_too_few_cooperative_agents(tmp_path, capsys):
    # six of eight agents attacked leaves two cooperative agents: the verbs
    # that report graph metrics reject the document before writing anything;
    # the plant-only verbs still run it.  Eight attacked agents leave none,
    # which materialize rejects under every verb
    six = _short_example1(tmp_path, range(6))
    eight = _short_example1(tmp_path, range(8))
    cases = (
        ("rescue", six, "fewer than 3 cooperative agents"),
        ("analyze-graph", six, "fewer than 3 cooperative agents"),
        ("analyze-graph", eight, "no agent is cooperative"),
    )
    for verb, config, fragment in cases:
        out = tmp_path / f"{verb}_{config.stem}"
        code = main([verb, "--config", str(config), "--out", str(out)])
        error = json.loads(capsys.readouterr().err)
        assert code == 2, verb
        assert error["error"] == "configuration"
        assert fragment in error["message"]
        assert not out.exists()
    for verb in ("simulate", "dp-msr"):
        out = tmp_path / verb
        assert main([verb, "--config", str(six), "--out", str(out)]) == 0, verb
        capsys.readouterr()
        assert (out / "report.json").exists()


def test_cli_example_config_takes_seed(tmp_path, capsys):
    # --seed reseeds a loaded document under the example verbs as under
    # rescue, and the written scenario.json is the reseeded document
    config = _short_example1(tmp_path, (5, 6))
    runs = {}
    for verb in ("example1", "rescue"):
        out = tmp_path / verb
        assert main([verb, "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
        runs[verb] = out
    capsys.readouterr()
    for name in ("trace.csv", "report.json"):
        assert (runs["example1"] / name).read_bytes() == (runs["rescue"] / name).read_bytes()
    written = json.loads((runs["example1"] / "scenario.json").read_text())
    assert written["network"]["generator"]["seed"] == 3
    assert written["initial"]["seed"] == 4
    unseeded = tmp_path / "unseeded"
    assert main(["example1", "--config", str(config), "--out", str(unseeded)]) == 0
    capsys.readouterr()
    assert (unseeded / "trace.csv").read_bytes() != (runs["rescue"] / "trace.csv").read_bytes()


def test_step_count_cap_allocates_nothing():
    # 3e10 steps of 8 agents: materialize rejects the document, and every
    # run rejects such a problem before any array of the grid's size exists
    d = config_to_dict(generate_example1(0))
    d["step_h"] = 1e-9
    config = config_from_dict(d)
    with pytest.raises(ConfigurationError, match="trace limit"):
        materialize(config)
    problem = replace(materialize(generate_example1(0)), step_h=1e-9)
    runs = (
        lambda: simulate(problem.net, problem.gains, problem.initial, step_h=problem.step_h),
        lambda: run_rescue(problem),
        lambda: dp_msr_run(problem, config.dp_msr),
    )
    tracemalloc.start()
    try:
        for run in runs:
            with pytest.raises(ConfigurationError, match="trace limit"):
                run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_cli_non_finite_run(tmp_path):
    # a ramp this steep overflows the state within 2 s: the run must exit 2,
    # not 0 with a NaN trace and a report holding bare NaN
    d = config_to_dict(generate_example1(0))
    d["network"]["horizon"] = 2.0
    d["attacks"][0]["signal"]["slope"] = 1e308
    path = tmp_path / "overflow.json"
    with open(path, "w") as fh:
        json.dump(d, fh)
    out = tmp_path / "out"
    proc = _run_cli(["simulate", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "configuration"
    assert "not finite from t = 1.798" in err["message"]
    assert not (out / "report.json").exists()


def test_cli_dos_trials_past_the_horizon(tmp_path):
    # 10**11 trials of 0.01 s: only the 100 that start within the 1 s run
    # are drawn
    d = config_to_dict(generate_example1(0))
    d["network"]["horizon"] = 1.0
    d["dos"]["intervals"][0]["duration"] = 1e9
    d["dos"]["intervals"][0]["random"]["trials"] = 10**11
    path = tmp_path / "trials.json"
    with open(path, "w") as fh:
        json.dump(d, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "resilnet.cli", "rescue", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode in (0, 2)
    json.loads(proc.stdout if proc.returncode == 0 else proc.stderr)


def test_cli_determinism(tmp_path):
    cfg = _tiny_config(tmp_path, horizon=2.0)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run_cli(["rescue", "--config", str(cfg), "--out", str(out1)]).returncode == 0
    assert _run_cli(["rescue", "--config", str(cfg), "--out", str(out2)]).returncode == 0
    for name in ("trace.csv", "events.csv", "residuals.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
