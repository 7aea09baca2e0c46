import numpy as np
import pytest

from resilnet.dynamics import Gains, closed_loop_matrix
from resilnet.graphs import RANK_RTOL, Graph, complete_graph, path_graph, star_graph
from resilnet.scenarios import (
    build_network,
    generate_example1,
    random_connected_graph,
    split_edges_alternating,
)
from resilnet.stealth import (
    collective_measurement_matrix,
    coupling_bound,
    kernel_basis,
    malicious_velocity_span,
    measurement_kernel,
    pencil_matrix,
    sample_lambdas,
    stealth_pencil_kernel,
    subspace_distance,
    view_coupling,
    zero_dynamics_search,
)

GAINS = Gains(1.0, 3.0)

# static chain 0-1-2-3 with malicious {1,2,3}: agent 3 is out of 0's 2-hop
# reach, so a zero-dynamics direction survives on the static graph
CHAIN = path_graph(4)
CHAIN_MALICIOUS = (1, 2, 3)
# second mode: star centered at 0 makes every position visible
STAR_MODE = star_graph(4, hub=0)


def test_collective_measurement_rows():
    c = collective_measurement_matrix(CHAIN, CHAIN_MALICIOUS)
    # single cooperative agent 0 measures p0, p1, p2 and v0
    assert c.shape == (4, 8)
    expected_cols = {0, 1, 2, 4}
    assert {int(np.argmax(row)) for row in c} == expected_cols


def test_measurement_kernel_empty_for_no_adversary():
    g = complete_graph(4)
    basis = measurement_kernel((g,), ())
    assert basis.shape[1] == 0


def test_measurement_kernel_single_and_double():
    g = complete_graph(5)
    basis1 = measurement_kernel((g,), (2,))
    want1 = malicious_velocity_span(5, (2,))
    assert basis1.shape[1] == 1
    assert subspace_distance(basis1, want1) < 1e-9

    basis2 = measurement_kernel((g,), (1, 3))
    want2 = malicious_velocity_span(5, (1, 3))
    assert basis2.shape[1] == 2
    assert subspace_distance(basis2, want2) < 1e-9


def test_measurement_kernel_across_modes(rng):
    overlay = random_connected_graph(rng, 7, 0.5)
    net = split_edges_alternating(overlay, 0.5, 2.0, 3)
    malicious = (2, 5)
    basis = measurement_kernel(net.modes, malicious)
    want = malicious_velocity_span(7, malicious)
    assert basis.shape[1] == len(malicious)
    assert subspace_distance(basis, want) < 1e-9


def test_pencil_kernel_requires_suspects():
    with pytest.raises(ValueError):
        stealth_pencil_kernel((complete_graph(4),), (), GAINS)


def test_pencil_kernel_empty_for_connected_modes(rng):
    overlay = random_connected_graph(rng, 6, 0.6)
    net = split_edges_alternating(overlay, 0.5, 2.0, 5)
    report = stealth_pencil_kernel(net.modes, (1,), GAINS, seed=1)
    assert report.all_empty


def test_zero_dynamics_on_weak_chain():
    found = zero_dynamics_search(CHAIN, CHAIN_MALICIOUS, GAINS, seed=0)
    assert found is not None
    p = pencil_matrix(CHAIN, CHAIN_MALICIOUS, GAINS, found.lam)
    vec = np.concatenate([found.x0, found.u0])
    assert np.linalg.norm(p @ vec) <= 1e-8
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_zero_dynamics_direction_hides_far_agent():
    found = zero_dynamics_search(CHAIN, CHAIN_MALICIOUS, GAINS, seed=0)
    # only the position/velocity of unmeasured agents can be nonzero
    x0 = found.x0
    measured_positions = np.abs(x0[[0, 1, 2]])
    assert np.all(measured_positions < 1e-8)
    assert np.linalg.norm(x0) > 1e-3


def test_zero_dynamics_absent_for_well_measured():
    g = complete_graph(5)
    assert zero_dynamics_search(g, (3,), GAINS, seed=1, n_probes=10) is None


@pytest.mark.parametrize("seed", range(3))
def test_zero_dynamics_rejects_zeros_at_infinity(seed):
    # the projected eigenproblem of example1's modes yields candidates near
    # |lambda| ~ 1e6 whose kernel vector is almost all input (||x0|| ~ 1e-6)
    # and whose unit residual is ~1e-10: no zero of the pencil, as a
    # residual measured against ||x0|| shows
    config = generate_example1(seed)
    for g in build_network(config.network).modes:
        assert zero_dynamics_search(g, (5, 6), config.gains, seed=0) is None


def test_switching_empties_stealth_kernel():
    single = stealth_pencil_kernel((CHAIN,), CHAIN_MALICIOUS, GAINS, seed=2)
    assert not single.all_empty
    stacked = stealth_pencil_kernel((CHAIN, STAR_MODE), CHAIN_MALICIOUS, GAINS, seed=2)
    assert stacked.all_empty


def test_kernel_basis_tolerances():
    mat = np.diag([1.0, 1e-20, 2.0])
    basis = kernel_basis(mat)
    assert basis.shape[1] == 1
    assert abs(basis[1, 0]) == pytest.approx(1.0)


@pytest.mark.parametrize("trial", range(6))
def test_pencil_matrix_is_the_block_pencil(trial):
    # lam E - G from the one pencil builder, entry by entry against the
    # blocks [[lam I - A, -B], [C, 0]] from their own builders
    rng = np.random.default_rng(300 + trial)
    n = int(rng.integers(4, 9))
    g = random_connected_graph(rng, n, 0.5)
    suspected = tuple(int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    a = closed_loop_matrix(g, GAINS)
    b = malicious_velocity_span(n, suspected)
    c = collective_measurement_matrix(g, suspected)
    eig = complex(np.linalg.eigvals(a)[int(rng.integers(0, 2 * n))])
    for lam in (float(rng.uniform(-5, 5)), complex(*rng.uniform(-5, 5, 2)), eig):
        want = np.block([[lam * np.eye(2 * n) - a, -b], [c, np.zeros((len(c), len(suspected)))]])
        np.testing.assert_array_equal(pencil_matrix(g, suspected, GAINS, lam), want)


def _full_svd_kernel(mat):
    _, sv, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(sv > max(mat.shape) * sv[0] * RANK_RTOL))
    return vh[rank:].conj().T


@pytest.mark.parametrize("rows, cols, rank", [(12, 5, 3), (9, 9, 6), (4, 7, 2), (6, 6, 6)])
def test_kernel_basis_matches_full_svd(rows, cols, rank):
    # the thin SVD of a tall or square matrix gives the nullspace of the
    # full one, real or complex
    rng = np.random.default_rng(rows * cols + rank)
    real = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    for mat in (real, real + 1j * (rng.standard_normal((rows, rank)) @ real[:rank])):
        basis, want = kernel_basis(mat), _full_svd_kernel(mat)
        assert basis.shape == want.shape == (cols, cols - np.linalg.matrix_rank(mat))
        assert subspace_distance(basis, want) <= 1e-12


@pytest.mark.parametrize("case", ["random", "chain", "chain_star"])
def test_pencil_kernel_matches_per_lambda_stack(case):
    # the stacked (E, G) pair built once per call against stacking each
    # mode's pencil_matrix afresh at every lambda
    if case == "random":
        rng = np.random.default_rng(41)
        net = split_edges_alternating(random_connected_graph(rng, 7, 0.5), 0.5, 2.0, 6)
        modes, suspected = net.modes, (2, 5)
    else:
        modes = (CHAIN,) if case == "chain" else (CHAIN, STAR_MODE)
        suspected = CHAIN_MALICIOUS
    report = stealth_pencil_kernel(modes, suspected, GAINS, seed=4)
    assert report.lambdas == sample_lambdas(modes, GAINS, seed=4)
    for lam, dim, basis in zip(report.lambdas, report.kernel_dims, report.bases):
        want = kernel_basis(np.vstack([pencil_matrix(g, suspected, GAINS, lam) for g in modes]))
        assert dim == basis.shape[1] == want.shape[1]
        assert subspace_distance(basis, want) <= 1e-9
    assert report.all_empty == (case != "chain")


def test_coupling_bound_shapes():
    assert coupling_bound(5.0, 0.0, 1.0, 2.0, 0.5, 3.0, 4.0, u_sup=0.0) == pytest.approx(
        1.0 * 2.0 * np.exp(-2.5) * 4.0
    )
    at_start = coupling_bound(0.0, 0.0, 2.0, 2.0, 0.5, 3.0, 4.0, u_sup=1.5)
    assert at_start == pytest.approx(2.0 * 2.0 * 4.0 + 2.0 * 3.0 * 1.5)
    assert coupling_bound(100.0, 0.0, 1.0, 2.0, 0.5, 3.0, 4.0) < 1e-10


def test_coupling_bound_dominates_simulation(rng):
    """Simulated coupling stays under its analytic envelope on attack-free
    PE-connected runs with gamma = alpha N."""
    from resilnet.dynamics import SystemState, simulate, stability_constants
    from resilnet.graphs import pe_margin
    from resilnet.observers import two_hop_view

    n = 6
    overlay = random_connected_graph(rng, n, 0.45)
    net = split_edges_alternating(overlay, 0.5, 5.0, 9)
    report = pe_margin(net, 1.0)
    gains = Gains(1.0, float(n))
    consts = stability_constants(report.mu, 1.0, gains, n)
    init = SystemState(rng.uniform(-5, 5, n), np.zeros(n))
    trace = simulate(net, gains, init)
    x0 = float(np.linalg.norm(init.stacked()))
    stride = 40
    for k in range(0, len(trace.t), stride):
        t = float(trace.t[k])
        g = Graph(n, tuple(sorted(next(
            edges for a, b, _, edges, _ in trace.segments if a <= t < b or (t == trace.t[-1] and b >= t)
        ))))
        bound = coupling_bound(t, 0.0, gains.alpha, consts.kappa_x, consts.lambda_x, consts.kappa_u, x0)
        for owner in range(n):
            view = two_hop_view(g, owner, gains)
            rho = view_coupling(g, view, trace.p_tilde[k], trace.v[k])
            assert np.linalg.norm(rho) <= bound * (1 + 1e-9)
