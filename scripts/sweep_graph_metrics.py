#!/usr/bin/env python3
"""Batch sweep of graph-resilience metrics over seeded random networks.

For each seed: build a two-mode switching network, compute the PE margin,
and read the effective graph's exact robustness, vertex connectivity and
the ceil(lambda2/2) <= r <= kappa <= N-1 chain from ``check_bound_chain``.
Rows go to stdout as CSV; the exit status is 1 when the chain fails on any
row.
"""

import argparse
import sys

import numpy as np

from resilnet.graphs import algebraic_connectivity, check_bound_chain, laplacian, pe_margin
from resilnet.scenarios import random_connected_graph, split_edges_alternating


def one_row(seed, n_low, n_high):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_low, n_high + 1))
    net = split_edges_alternating(
        random_connected_graph(rng, n), 0.5, 4.0, int(rng.integers(0, 2**31))
    )
    report = pe_margin(net, 1.0)
    chain = check_bound_chain(report)
    lam2 = algebraic_connectivity(laplacian(report.effective_graph))
    row = (report.mu, report.lambda2_integral, lam2, chain.r, chain.kappa)
    return (seed, n, *row, int(chain.chain_holds))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--n-low", type=int, default=4)
    parser.add_argument("--n-high", type=int, default=10)
    args = parser.parse_args()

    print("seed,n,mu,lambda2_integral,lambda2_effective,r,kappa,chain_holds")
    failed = 0
    for seed in range(args.count):
        row = one_row(seed, args.n_low, args.n_high)
        print(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row))
        failed += not row[-1]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
