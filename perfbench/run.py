"""Scenario-run benchmark for resilnet.

Usage:
    python3 perfbench/run.py --workload NAME [--seed 0] [--seconds S] [--trace 0|1]

Runs one workload (see ``workloads.py``; names, metric lists and the default
``--seconds`` come from ``BENCHMARK.json``) as a closed
loop with one client: repetitions run back to back, each in a fresh process
(``rep.py``), so every repetition pays set-up and has its own peak memory.
numpy's BLAS keeps its default thread count.

``--trace 0`` runs a few set-up-only processes, then at least
``MIN_REPS`` untraced repetitions, and more while that brings the measured
time closer to ``--seconds``.  It reports the end-to-end metrics built
from medians over the repetitions (see ``end_to_end``) and scaled to a
reference host speed (see ``calib.py``).  ``--trace 1`` runs one untraced
and one traced repetition and reports the per-layer metrics of the traced
one, in unscaled wall seconds; the self times add up to ``trace.total_s``,
and ``trace.overhead_s`` is traced minus untraced wall time.

Every repetition's correctness checks and artifact digest are recorded; all
repetitions of a run must produce identical artifacts.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (machine, versions, commit, seed, per-repetition values).
Output goes to ``.bench_out/<workload>/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Runnable by hand but left out of BENCHMARK.json: its one ~30 s repetition
# per run spread by up to a third between runs on a noisy 2-core host.
MANUAL_WORKLOADS = ("ex2_rescue_short",)
# set-up-only processes per run, after one unmeasured warm-up that leaves the
# bytecode caches filled
SETUP_PROBES = 2
# fewest untraced repetitions per run, so every median drops an outlier
MIN_REPS = 3
# every run must end within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit():
    """HEAD of the checkout, read without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "resilnet").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, out: Path, run_id: str):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.run_id = run_id
        self.started = now()

    def child(self, out_dir: Path, *flags) -> dict:
        remaining = RUN_LIMIT_S - (now() - self.started)
        if remaining <= 0:
            raise BenchError("run time limit reached")
        spawned = now()
        cmd = [
            sys.executable,
            str(HERE / "rep.py"),
            self.workload,
            str(self.seed),
            str(out_dir),
            repr(spawned),
            "--run-id",
            self.run_id,
            *flags,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded the run time limit: {cmd}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"repetition failed with exit code {proc.returncode}: {cmd}")
        return json.loads(lines[-1])

    def setup_probe(self) -> dict:
        return self.child(self.out / "probe", "--setup-only")

    def rep(self, k: int, traced: bool = False) -> dict:
        flags = ["--trace", str(self.out / f"rep{k}-spans.npz")] if traced else []
        result = self.child(self.out / f"rep{k}", *flags)
        result["traced"] = traced
        return result


def scale(kernel_s: list) -> float:
    """Factor from wall seconds to reported seconds, from the kernel times
    taken around them (see calib.py).  The mean, not the median: a call's
    time adds up its slow and fast spells, and so does the kernels' mean."""
    return calib.REF_S / statistics.mean(kernel_s)


def end_to_end(reps: list, probes: list, scaled: bool = True) -> dict:
    """The end-to-end metrics of a run's untraced repetitions.

    Each timed call is scaled by the kernel times taken just before it,
    during it and just after it; the set-up and the time between calls by
    all of the repetition's kernel times.  A phase's time is then each
    call's median over the repetitions, summed, plus the median of the
    phase's time outside those calls.  The host's speed changes within
    seconds, so a call that a slow spell hit in one repetition is dropped
    by its median, where the median of whole-phase sums would keep it
    whenever the spells hit different calls in different repetitions.
    ``scaled=False`` gives the same medians of wall seconds."""
    if any(r["calls"].keys() != reps[0]["calls"].keys() for r in reps):
        raise BenchError("repetitions timed different calls")

    def rep_f(r):
        return scale(r["kernel_s"]) if scaled else 1.0

    def call_s(label):
        values = []
        for r in reps:
            _, seconds, first, end = r["calls"][label]
            f = scale(r["kernel_s"][first : end + 1]) if scaled else 1.0
            values.append(seconds * f)
        return statistics.median(values)

    def rest_s(fn):
        return statistics.median(fn(r) * rep_f(r) for r in reps)

    phases = {}
    for phase in ("run", "report"):
        labels = [label for label, (p, *_) in reps[0]["calls"].items() if p == phase]
        phases[phase] = sum(call_s(label) for label in labels) + rest_s(
            lambda r: r[f"{phase}_s"] - sum(r["calls"][label][1] for label in labels)
        )
    sim_s = sum(call_s(label) for label in reps[0]["sim_labels"])
    return {
        # set-up and the glue between phases, then the two phases
        "total_s": rest_s(lambda r: r["total_s"] - r["run_s"] - r["report_s"])
        + phases["run"]
        + phases["report"],
        "setup_s": statistics.median(
            [p["setup_s"] * (scale(p["kernel_s"]) if scaled else 1.0) for p in probes]
            + [r["setup_s"] * rep_f(r) for r in reps]
        ),
        "run_s": phases["run"],
        "report_s": phases["report"],
        "agent_steps_per_s": reps[0]["agent_steps"] / sim_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def run(args, spec: dict) -> tuple:
    if not (ROOT / "src" / "resilnet" / "__init__.py").is_file():
        raise BenchError(f"no resilnet sources under {ROOT / 'src'}")
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run_id = uuid.uuid4().hex
    runner = Runner(args.workload, args.seed, out, run_id)

    runner.setup_probe()
    probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    reps = []
    if args.trace:
        reps.append(runner.rep(0))
        reps.append(runner.rep(1, traced=True))
    else:
        # stop when one more repetition as long as the longest would take
        # the measured time further from --seconds than stopping now
        t0 = now()
        longest = 0.0
        while len(reps) < MIN_REPS or now() - t0 + longest / 2 < args.seconds:
            t_rep = now()
            reps.append(runner.rep(len(reps)))
            longest = max(longest, now() - t_rep)

    checks = []
    for k, rep in enumerate(reps):
        checks += [(f"rep{k}.{name}", ok) for name, ok in rep["checks"]]
        if k:
            # criterion 12: repetitions of one input produce identical artifacts
            checks.append((f"rep{k}.digest_matches_rep0", rep["digest"] == reps[0]["digest"]))
    failed = [name for name, ok in checks if not ok]
    untraced = [r for r in reps if not r["traced"]]

    if args.trace:
        traced = reps[-1]
        computed = dict(traced["layers"])
        computed.update(
            {
                "trace.total_s": traced["total_s"],
                "trace.overhead_s": traced["total_s"] - untraced[0]["total_s"],
                "reports.bytes_written": traced["bytes_written"],
                "isolation_errors": traced["isolation_errors"],
            }
        )
        wanted = spec["per_layer"]
    else:
        computed = end_to_end(untraced, probes)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cpu_count": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **reps[0]["env"],
        },
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "isolation_errors": reps[0]["isolation_errors"],
        "fail_rate": len(failed) / len(checks),
        "failed_checks": failed,
        "calibration_ref_s": calib.REF_S,
        "unscaled": None if args.trace else end_to_end(untraced, probes, scaled=False),
        "setup_probes": probes,
        "repetitions": [
            {k: r[k] for k in r if k not in ("checks", "layers", "env", "sim_labels")}
            for r in reps
        ],
    }
    (out / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in spec["workloads"]] + list(MANUAL_WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
