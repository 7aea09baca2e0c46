"""One repetition of a benchmark workload, in a fresh process.

Usage: python3 perfbench/rep.py WORKLOAD SEED OUT_DIR SPAWNED [--setup-only] [--trace SPANS]

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time counts interpreter start and ``import resilnet``.
With ``--setup-only`` the process exits once the inputs are materialized.
With ``--trace`` the resilnet functions are wrapped in spans, which are
saved to SPANS; without it, ``calib.py``'s kernel is also timed inside
long calls.  The result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# calibration kernels timed after set-up in a set-up-only process
SETUP_KERNELS = 5


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_info() -> dict:
    """Name and thread count of the BLAS library numpy loaded."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"blas": name, "blas_threads": threads}


def digest_dir(out: Path) -> tuple:
    """SHA-256 over every artifact (relative path and bytes, in path order)
    and the total bytes written."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(data)
    return h.hexdigest(), total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import resilnet
    from calib import Calibration
    from workloads import WORKLOADS, Clock

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(resilnet)

    setup, run, check = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = now() - args.spawned
    if args.setup_only:
        calibration = Calibration()
        for _ in range(SETUP_KERNELS):
            calibration.sample(force=True)
        print(json.dumps({"setup_s": setup_s, "kernel_s": calibration.kernel_s}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    if tracer is None:
        # inside spans the kernel would count as resilnet's self time
        clock.calibration.install(resilnet)
    results = run(inputs, args.out, clock)
    total_s = now() - args.spawned - clock.calibration.spent_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(total_s)
        tracer.save(args.trace, args.run_id)
    outcome = check(inputs, results)
    digest, nbytes = digest_dir(args.out)
    # removed before the operating system writes them back to disk, so
    # that no repetition waits on the disk for the artifacts of an earlier one
    shutil.rmtree(args.out)

    import numpy
    import scipy

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "total_s": total_s,
                "run_s": clock.phases["run"],
                "report_s": clock.phases["report"],
                "agent_steps": clock.agent_steps,
                "calls": clock.calls,
                "sim_labels": clock.sim_labels,
                "kernel_s": clock.calibration.kernel_s,
                "peak_rss_mb": peak_rss_mb,
                "checks": outcome.checks,
                "isolation_errors": outcome.isolation_errors,
                "digest": digest,
                "bytes_written": nbytes,
                "layers": layers,
                "env": {"numpy": numpy.__version__, "scipy": scipy.__version__, **blas_info()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
