"""Command-line entry point.

Verbs: analyze-graph, simulate, rescue, dp-msr, example1, example2.  All read
a JSON scenario (--config) or generate one (--seed), write CSV traces and a
JSON report under --out, and exit 0 on success or 2 with a machine-readable
error category on failure.  Every verb checks the whole document through
``scenarios.materialize`` before it writes anything, so a rejected document
leaves no file behind and gets the same category under every verb (``dp-msr``
also needs the document's ``dp_msr`` section).  The example verbs write the
run's ``scenario.json`` last.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ResilnetError
from .reports import (
    graph_metrics,
    run_dp_msr,
    run_plant_only,
    run_scenario,
    write_report,
)
from .scenarios import (
    config_from_dict,
    config_to_dict,
    generate_example1,
    generate_example2,
)


def _load_config(path) -> "ScenarioConfig":
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _add_common(sub, config_required=True):
    if config_required:
        sub.add_argument("--config", required=True, help="scenario JSON file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="seed override")


def _reseed(config, seed):
    if seed is None:
        return config
    if config.network.generator is not None:
        gen = replace(config.network.generator, seed=seed)
        network = replace(config.network, generator=gen)
        config = replace(config, network=network)
    if config.initial.kind == "uniform":
        config = replace(config, initial=replace(config.initial, seed=seed + 1))
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resilnet",
        description="Resilient consensus on switching networks: simulate, detect, isolate.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("analyze-graph", "simulate", "rescue", "dp-msr"):
        _add_common(sub.add_parser(verb))
    for verb in ("example1", "example2"):
        p = sub.add_parser(verb)
        _add_common(p, config_required=False)
        p.add_argument("--config", default=None, help="optional pre-generated scenario")
    args = parser.parse_args(argv)

    try:
        if args.verb in ("example1", "example2"):
            if args.config is not None:
                config = _reseed(_load_config(args.config), args.seed)
            else:
                gen = generate_example1 if args.verb == "example1" else generate_example2
                config = gen(args.seed if args.seed is not None else 0)
            report = run_scenario(config, args.out)
            with open(Path(args.out) / "scenario.json", "w") as fh:
                json.dump(config_to_dict(config), fh, indent=2)
                fh.write("\n")
        else:
            config = _reseed(_load_config(args.config), args.seed)
            if args.verb == "analyze-graph":
                report = graph_metrics(config)
                write_report(Path(args.out) / "graph_metrics.json", report)
            elif args.verb == "simulate":
                report = run_plant_only(config, args.out)
            elif args.verb == "rescue":
                report = run_scenario(config, args.out)
            else:
                report = run_dp_msr(config, args.out)
        json.dump(
            report, sys.stdout, indent=2, sort_keys=True, default=float, allow_nan=False
        )
        print()
        return 0
    except ResilnetError as exc:
        json.dump({"error": exc.category, "message": str(exc)}, sys.stderr)
        print(file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        category = "io" if isinstance(exc, OSError) else "invalid-parameter"
        json.dump({"error": category, "message": str(exc)}, sys.stderr)
        print(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
