"""Stealthiness analysis: matrix pencils, zero-dynamics directions, kernels.

An injected input is stealthy when some initial-condition/input pair zeroes
every cooperative measurement; mode by mode that happens exactly on the rank
deficiencies of the pencil P(lambda) = [[lambda I - A, -B], [C, 0]].  Under
switching, stealth requires a direction in the kernel of *every* active
mode's pencil, so stacking the pencils and checking the joint nullspace at
sampled lambda decides whether a generic stealthy input can exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Gains, closed_loop_matrix
from .graphs import RANK_RTOL, Graph
from .observers import TwoHopView, view_members

PENCIL_RESIDUAL_TOL = 1e-8


def collective_measurement_matrix(g: Graph, malicious) -> np.ndarray:
    """Stacked measurement rows of all cooperative agents, in global
    coordinates col(p~, v): each cooperative agent contributes the positions
    of its 2-hop members plus its own velocity."""
    n = g.node_count
    cooperative = sorted(set(range(n)) - set(malicious))
    cols = [j for i in cooperative for j in (*view_members(g, i), n + i)]
    c = np.zeros((len(cols), 2 * n))
    c[np.arange(len(cols)), cols] = 1.0
    return c


def _pencil(g: Graph, suspected, gains: Gains) -> tuple:
    """The pair (E, G) with lambda E - G = [[lambda I - A, -B], [C, 0]]: the
    one place the pencil is laid out, built once per mode and reused at
    every lambda."""
    n = g.node_count
    b = malicious_velocity_span(n, suspected)
    c = collective_measurement_matrix(g, suspected)
    g_mat = np.block([[closed_loop_matrix(g, gains), b], [-c, np.zeros((len(c), b.shape[1]))]])
    e = np.zeros_like(g_mat)
    e[: 2 * n, : 2 * n] = np.eye(2 * n)
    return e, g_mat


def pencil_matrix(g: Graph, suspected, gains: Gains, lam: complex) -> np.ndarray:
    """Single-mode pencil [[lambda I - A, -B], [C, 0]]."""
    e, g_mat = _pencil(g, suspected, gains)
    return complex(lam) * e - g_mat


def kernel_basis(mat: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal nullspace basis from the SVD (columns; empty when trivial).
    A matrix with at least as many rows as columns gets the thin SVD, whose
    V is already complete; U is never used."""
    _, sv, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    if sv.size == 0:
        return np.eye(mat.shape[1])
    tol = max(mat.shape) * sv[0] * rtol
    rank = int(np.sum(sv > tol))
    return vh[rank:].conj().T


@dataclass(frozen=True, eq=False)
class PencilKernelReport:
    lambdas: tuple
    kernel_dims: tuple
    bases: tuple  # one (2N+|A|, dim) array per lambda

    @property
    def all_empty(self) -> bool:
        return all(d == 0 for d in self.kernel_dims)


def sample_lambdas(modes, gains: Gains, n_samples: int = 20, seed: int = 0) -> tuple:
    """Seeded complex probes with real parts in [-5, 5], plus every mode's
    closed-loop eigenvalues (the candidate invariant zeros)."""
    rng = np.random.default_rng(seed)
    pts = [
        complex(re, im)
        for re, im in zip(
            rng.uniform(-5.0, 5.0, n_samples), rng.uniform(-5.0, 5.0, n_samples)
        )
    ]
    for g in modes:
        pts.extend(complex(z) for z in np.linalg.eigvals(closed_loop_matrix(g, gains)))
    return tuple(pts)


def stealth_pencil_kernel(
    modes,
    suspected,
    gains: Gains,
    lambdas=None,
    n_samples: int = 20,
    seed: int = 0,
) -> PencilKernelReport:
    """Joint kernel of the stacked mode pencils at each sampled lambda.

    An empty kernel at (almost) all lambda rules out generic stealthy inputs
    from the suspected set across the supplied modes.
    """
    suspected = tuple(sorted(set(suspected)))
    if not suspected:
        raise ValueError("suspected set must be nonempty")
    modes = tuple(modes)
    if lambdas is None:
        lambdas = sample_lambdas(modes, gains, n_samples, seed)
    e, g_mat = map(np.vstack, zip(*(_pencil(g, suspected, gains) for g in modes)))
    bases = tuple(kernel_basis(complex(lam) * e - g_mat) for lam in lambdas)
    return PencilKernelReport(
        lambdas=tuple(lambdas), kernel_dims=tuple(b.shape[1] for b in bases), bases=bases
    )


@dataclass(frozen=True, eq=False)
class ZeroDynamics:
    """Output-zeroing direction: P(lam) @ col(x0, u0) = 0 to within residual."""

    lam: complex
    x0: np.ndarray
    u0: np.ndarray
    residual: float


def _verify_zero(e, g_mat, lam, n2) -> ZeroDynamics | None:
    """The unit kernel vector of the pencil at ``lam`` if its residual is at
    most ``PENCIL_RESIDUAL_TOL`` times the norm of its state part.  Measured
    against the unit vector alone, a zero at infinity would pass: near
    |lam| ~ 1e6 an almost pure-input vector, with ||x0|| ~ 1/|lam|, leaves a
    residual far below the tolerance.  n2 = 2N, where the state part of a
    kernel vector ends."""
    p = lam * e - g_mat
    basis = kernel_basis(p)
    if basis.shape[1] == 0:
        return None
    vec = basis[:, 0]
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(p @ vec))
    if residual > PENCIL_RESIDUAL_TOL * np.linalg.norm(vec[:n2]):
        return None
    return ZeroDynamics(lam=lam, x0=vec[:n2], u0=vec[n2:], residual=residual)


def zero_dynamics_search(
    g: Graph,
    suspected,
    gains: Gains,
    seed: int = 0,
    n_probes: int = 20,
) -> ZeroDynamics | None:
    """Scan a single static mode for an invariant zero of its pencil.

    Random probes catch degenerate (normal-rank-deficient) pencils; isolated
    zeros come from a randomly projected generalized eigenvalue problem whose
    candidates are verified against the full pencil.
    """
    suspected = tuple(sorted(set(suspected)))
    if not suspected:
        raise ValueError("suspected set must be nonempty")
    e, g_mat = _pencil(g, suspected, gains)
    n2 = 2 * g.node_count
    rng = np.random.default_rng(seed)
    for _ in range(n_probes):
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        found = _verify_zero(e, g_mat, lam, n2)
        if found is not None:
            return found
    candidates = [complex(z) for z in np.linalg.eigvals(g_mat[:n2, :n2])]
    # random square projection of the rectangular pencil lam*E - G; spurious
    # eigenvalues are weeded out by verifying against the full pencil
    rows, cols = g_mat.shape
    import scipy.linalg  # generalized eig; loaded only by this analysis

    for _ in range(3):
        w = rng.standard_normal((cols, rows))
        try:
            vals = scipy.linalg.eig(w @ g_mat, w @ e, right=False)
        except (np.linalg.LinAlgError, ValueError):
            continue
        candidates.extend(complex(z) for z in vals if np.isfinite(z))
    for lam in candidates:
        found = _verify_zero(e, g_mat, lam, n2)
        if found is not None:
            return found
    return None


def measurement_kernel(modes, malicious) -> np.ndarray:
    """Joint nullspace of the cooperative measurement maps across modes."""
    stacked = np.vstack([collective_measurement_matrix(g, malicious) for g in modes])
    return kernel_basis(stacked)


def malicious_velocity_span(n: int, malicious) -> np.ndarray:
    """span{ col(0_N, e_i) : i malicious } -- the states no cooperative agent
    ever measures, and the input matrix B of the malicious injections."""
    basis = np.zeros((2 * n, len(tuple(malicious))))
    for k, a in enumerate(sorted(malicious)):
        basis[n + a, k] = 1.0
    return basis


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Spectral distance between the projectors onto the column spans."""

    def projector(b):
        if b.size == 0:
            return np.zeros((b.shape[0], b.shape[0]))
        q, _ = np.linalg.qr(b)
        return q @ q.conj().T

    return float(np.linalg.norm(projector(b1) - projector(b2), 2))


def view_coupling(
    g: Graph, view: TwoHopView, p_tilde: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """True value of the unknown perturbation rho(x_I, x_R) on ``view``'s
    member rows: the closed loop on ``g`` minus the view's model, ordered
    like ``view.member_state``."""
    idx = np.array(view.members)
    full = closed_loop_matrix(g, view.gains) @ np.concatenate([p_tilde, v])
    local = view.a_model @ view.member_state(p_tilde, v)
    return full[np.concatenate([idx, g.node_count + idx])] - local


def coupling_bound(
    t: float,
    t0: float,
    alpha: float,
    kappa_x: float,
    lambda_x: float,
    kappa_u: float,
    x0_norm: float,
    u_sup: float = 0.0,
) -> float:
    """Upper bound on the unknown coupling into a 2-hop subsystem:
    alpha kappa_x e^{-lambda_x (t-t0)} |x0| + alpha kappa_u sup|u_A|."""
    return alpha * kappa_x * np.exp(-lambda_x * (t - t0)) * x0_norm + alpha * kappa_u * u_sup
