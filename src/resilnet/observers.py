"""Reconfigurable local attack detectors built on 2-hop proximity dynamics.

Each agent reconstructs the subsystem spanned by itself, its 1-hop and its
2-hop neighbors (positions of all of them plus its own velocity are
measurable).  A Luenberger-style observer with a structured gain tracks that
subsystem; whatever the model cannot explain -- couplings into deeper nodes
plus injected attack signals -- shows up in the measurement residual, which a
per-neighbor threshold turns into an attack-free / attacked verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Gains, _closed_loop
from .errors import ConfigurationError, DesignFailureError
from .graphs import RANK_RTOL, Graph, _laplacian

GAIN_LADDER = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
# k1 of the structured gain of a detector without a certified design, and
# the consensus-direction weight k_c of every structured gain
STRUCTURED_K1 = 0.3
K_CONSENSUS = 1.5
HURWITZ_MARGIN = 0.1
# Newton steps allowed to the Lyapunov sign iteration; with determinant
# scaling the observer matrices reach -I in about ten
LYAPUNOV_MAX_STEPS = 100
# how long (s) ``ObserverState.remap`` keeps a departed member's position
# estimate for its return
RETAIN_GRACE = 1.0


@dataclass(frozen=True, eq=False)
class TwoHopView:
    """An agent's locally reconstructible subsystem in one communication mode.

    ``members`` (owner first) are the agents whose positions the owner
    measures; ``a_model`` is the known part of their joint dynamics and
    ``c_meas`` picks the measured entries (member positions, owner
    velocity) out of the member state.  Couplings the model leaves out
    (edges between two strictly-2-hop nodes and into deeper nodes) act as
    an unknown perturbation the observer never uses;
    ``stealth.view_coupling`` evaluates it for analysis.
    """

    owner: int
    members: tuple
    a_model: np.ndarray
    c_meas: np.ndarray
    gains: Gains

    @property
    def size(self) -> int:
        return len(self.members)

    def member_index(self, node: int) -> int:
        return self.members.index(node)

    def measure(self, p_tilde: np.ndarray, v: np.ndarray) -> np.ndarray:
        idx = np.array(self.members)
        return np.concatenate([p_tilde[idx], [v[self.owner]]])

    def member_state(self, p_tilde: np.ndarray, v: np.ndarray) -> np.ndarray:
        idx = np.array(self.members)
        return np.concatenate([p_tilde[idx], v[idx]])


def _view_key(g: Graph, owner: int) -> tuple:
    """The owner's local edge set: the neighbors of the owner and of each of
    its 1-hop neighbors, so every edge that touches one of them.  A view is
    built from this key alone (``view_members``, ``two_hop_view``), so equal
    keys give equal views by construction, and with alpha > 0 different keys
    give different ``members`` or ``a_model``."""
    return owner, tuple(g.neighbors(u) for u in (owner, *g.neighbors(owner)))


def view_members(g: Graph, owner: int) -> tuple:
    """Agents whose positions ``owner`` measures: itself, then its 1-hop and
    2-hop neighbors in sorted order.  The order keeps an estimate's
    numbering across mode switches that change edges but not membership."""
    lists = _view_key(g, owner)[1]
    return (owner, *sorted(set().union(*lists) - {owner}))


def two_hop_view(g: Graph, owner: int, gains: Gains) -> TwoHopView:
    members = view_members(g, owner)
    index = {v: k for k, v in enumerate(members)}
    lists = _view_key(g, owner)[1]
    # the model edges (u, w), u the owner or a 1-hop neighbor and w in N(u),
    # are those the owner can infer: never one between two strictly-2-hop nodes
    edges = [(index[u], index[w]) for u, nbrs in zip((owner, *lists[0]), lists) for w in nbrs]
    m = len(members)
    a_model = _closed_loop(_laplacian(m, edges), gains)
    c_meas = np.zeros((m + 1, 2 * m))
    c_meas[:m, :m] = np.eye(m)
    c_meas[m, m] = 1.0  # owner velocity; owner is first in the ordering
    return TwoHopView(
        owner=owner, members=members, a_model=a_model, c_meas=c_meas, gains=gains
    )


def pbh_observability(view: TwoHopView) -> bool:
    """PBH rank test of (A_model, C) at every eigenvalue of A_model."""
    a, c = view.a_model, view.c_meas
    dim = a.shape[0]
    for lam in np.linalg.eigvals(a):
        stacked = np.vstack([lam * np.eye(dim) - a, c.astype(complex)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        tol = max(stacked.shape) * sv[0] * RANK_RTOL
        if np.sum(sv > tol) < dim:
            return False
    return True


# ---------------------------------------------------------------------------
# Gain design
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ObserverGain:
    h_matrix: np.ndarray
    kappa_e: float | None
    lambda_e: float | None
    spectral_abscissa: float | None


def gain_matrix(view: TwoHopView, k1: float) -> np.ndarray:
    """Structured gain [[0, 0], [H, k1 e1]] with H = k1 I + k_c 11^T/|I|,
    k_c = ``K_CONSENSUS``.

    H is symmetric PD; the rank-one term damps the shared (consensus
    direction) estimation error much faster than the per-node terms, which
    keeps an attack's residual signature localized to the injecting
    neighbor instead of leaking into every component.
    """
    m = view.size
    h = np.zeros((2 * m, m + 1))
    h[m:, :m] = k1 * np.eye(m) + K_CONSENSUS * np.ones((m, m)) / m
    h[m, m] = k1
    return h


def _norm1(m: np.ndarray) -> float:
    """||m||_1, the largest column sum of |m|: the ``add.reduce`` and ``max``
    of ``np.linalg.norm(m, 1)``, so its bits, without its dispatch."""
    return np.abs(m).sum(axis=0).max()


def _lyapunov(a: np.ndarray) -> np.ndarray:
    """P with A^T P + P A = -I, by Roberts' sign-function iteration.

    Newton's iteration for sign(M), M = [[A, 0], [I, -A^T]], kept on the
    two blocks that differ: from Z = A and Y = I,

        Z <- (Z/c + c Z^-1) / 2,   Y <- (Y/c + c Z^-T Y Z^-1) / 2,

    with determinant scaling c = |det Z|^(1/n), taken from ``slogdet`` so
    that no order overflows.  sign(M) commutes with M, so when A is Hurwitz
    Z tends to -I and Y to 2P.  The step taken from a Z with
    ||Z + I||_1 <= 1e-13 n is the last.  An A that is not Hurwitz sends Z
    to another sign matrix, or nowhere, and raises DesignFailureError.
    """
    n = a.shape[0]
    eye = np.eye(n)
    z, y = a, eye
    for _ in range(LYAPUNOV_MAX_STEPS):
        sign, logdet = np.linalg.slogdet(z)
        if sign == 0:
            raise DesignFailureError("sign iteration met a singular Z: not Hurwitz")
        c = math.exp(logdet / n)
        z_inv = np.linalg.inv(z)
        y = 0.5 * (y / c + c * (z_inv.T @ y @ z_inv))
        if _norm1(z + eye) <= 1e-13 * n:
            # Z had converged, so this last step brought Y to rounding level
            return 0.5 * y
        z_next = 0.5 * (z / c + c * z_inv)
        # Z settled on a sign matrix S != -I: S + I has an eigenvalue 2
        settled = _norm1(z_next - z) <= 1e-10 * _norm1(z_next)
        if settled and _norm1(z_next + eye) >= 1.0:
            raise DesignFailureError("matrix is not Hurwitz: sign(A) is not -I")
        z = z_next
    raise DesignFailureError(
        f"Lyapunov sign iteration did not converge in {LYAPUNOV_MAX_STEPS} steps"
    )


def decay_envelope(a_bar: np.ndarray) -> tuple:
    """Certified (kappa_e, lambda_e) with ||exp(A t)|| <= kappa_e e^{-lambda_e t}.

    Normal matrices get the exact envelope (kappa_e = 1, spectral abscissa);
    otherwise the Lyapunov solution of A^T P + P A = -I (``_lyapunov``, a
    scaled Newton sign-function iteration in numpy) yields lambda_e =
    1 / (2 lambda_max(P)) and kappa_e = sqrt(cond(P)).
    """
    scale = max(1.0, float(np.linalg.norm(a_bar, "fro")))
    if np.linalg.norm(a_bar @ a_bar.T - a_bar.T @ a_bar, "fro") <= 1e-10 * scale**2:
        abscissa = float(np.max(np.linalg.eigvals(a_bar).real))
        if abscissa >= 0:
            raise DesignFailureError("matrix is not Hurwitz")
        return 1.0, -abscissa
    p = _lyapunov(a_bar)
    p = 0.5 * (p + p.T)
    eigs = np.linalg.eigvalsh(p)
    if eigs[0] <= 0:
        raise DesignFailureError("Lyapunov solution not positive definite")
    lambda_e = 1.0 / (2.0 * eigs[-1])
    kappa_e = math.sqrt(eigs[-1] / eigs[0])
    return kappa_e, lambda_e


def design_gain(view: TwoHopView) -> ObserverGain:
    """Deterministic gain design: escalate k1 until the Hurwitz margin
    ``HURWITZ_MARGIN`` holds, then certify the decay envelope via the
    Lyapunov route."""
    for k1 in GAIN_LADDER:
        h = gain_matrix(view, k1)
        a_bar = view.a_model - h @ view.c_meas
        abscissa = float(np.max(np.linalg.eigvals(a_bar).real))
        if abscissa <= -HURWITZ_MARGIN:
            kappa_e, lambda_e = decay_envelope(a_bar)
            return ObserverGain(
                h_matrix=h,
                kappa_e=kappa_e,
                lambda_e=lambda_e,
                spectral_abscissa=abscissa,
            )
    raise DesignFailureError("gain ladder exhausted without a Hurwitz margin")


def validate_envelope(
    a_bar: np.ndarray, gain: ObserverGain, t_max: float = 10.0, points: int = 1000
) -> tuple:
    """Sample ||exp(A t)|| on a uniform grid against the certified envelope.

    Returns (ok, worst_excess).  The grid's matrices are the powers of one
    precomputed propagator, taken by sequential products; their spectral
    norms come from one batched SVD.
    """
    import scipy.linalg  # loaded only here and by the stealth analysis

    dt = t_max / (points - 1)
    prop = scipy.linalg.expm(a_bar * dt)
    powers = np.empty((points, *a_bar.shape))
    powers[0] = np.eye(a_bar.shape[0])
    for k in range(1, points):
        np.matmul(powers[k - 1], prop, out=powers[k])
    norms = np.linalg.norm(powers, 2, axis=(1, 2)).tolist()
    worst = 0.0
    for k, norm in enumerate(norms):
        t = k * dt
        bound = gain.kappa_e * math.exp(-gain.lambda_e * t)
        worst = max(worst, norm - bound * (1.0 + 1e-9))
    return worst <= 0.0, worst


# ---------------------------------------------------------------------------
# Observer state machine
# ---------------------------------------------------------------------------


class ObserverState:
    """Mutable per-agent detector: estimate, gain and ``last_model_change``,
    the t_k of its analytic threshold, stamped with the caller's time.

    ``w_budget`` bounds the estimation error right after a reinitialization
    and anchors the analytic threshold.
    """

    def __init__(self, view: TwoHopView, gain: ObserverGain, w_budget: float, t0: float):
        self.view = view
        self.gain = gain
        self.w_budget = float(w_budget)
        self.x_hat = np.zeros(2 * view.size)
        self.last_model_change = float(t0)
        self._departed: dict = {}

    def reconfigure(self, view: TwoHopView, gain: ObserverGain, t: float, keep_state: bool = False):
        """Swap in the model of a new mode at time ``t``, the model's t_k.

        ``keep_state`` carries the running estimate across the switch, which
        is only meaningful when the member set (and hence the state
        numbering) is unchanged.
        """
        if keep_state and view.members != self.view.members:
            raise ConfigurationError("cannot keep state across a membership change")
        self.view = view
        self.gain = gain
        if not keep_state:
            self.x_hat = np.zeros(2 * view.size)
        self.last_model_change = float(t)

    def reinit(self, y: np.ndarray, t: float):
        """Masked restart: copy measured positions and the owner's velocity,
        zero the unmeasured velocities."""
        m = self.view.size
        self.x_hat = np.zeros(2 * m)
        self.x_hat[:m] = y[:m]
        self.x_hat[m] = y[m]
        self.last_model_change = float(t)

    def remap(self, view: TwoHopView, gain: ObserverGain, y: np.ndarray, t: float):
        """Warm reconfiguration across a membership change: members retained
        from the old view keep their position and velocity estimates (the
        residual signature survives the switch); members that recently left
        and return within ``RETAIN_GRACE`` are restored from the departure
        cache; genuinely new members get the masked fill (measured position,
        zero velocity)."""
        old_view, old_x = self.view, self.x_hat
        old_m = old_view.size
        old_index = {node: k for k, node in enumerate(old_view.members)}
        new_members = set(view.members)
        for node, j in old_index.items():
            if node not in new_members:
                self._departed[node] = (old_x[j], t)
        self._departed = {
            node: rec
            for node, rec in self._departed.items()
            if t - rec[1] <= RETAIN_GRACE
        }
        m = len(view.members)
        x = np.zeros(2 * m)
        for k, node in enumerate(view.members):
            j = old_index.get(node)
            if j is not None:
                x[k] = old_x[j]
                x[m + k] = old_x[old_m + j]
            elif node in self._departed:
                # restore the cached position estimate: the accumulated
                # residual signature survives the absence; the velocity
                # estimate restarts at zero like a masked fill (re-estimating
                # it from scratch is stable, dead-reckoning it is not)
                x[k] = self._departed.pop(node)[0]
            else:
                x[k] = y[k]
        self.view = view
        self.gain = gain
        self.x_hat = x
        self.last_model_change = float(t)

    def step(self, y_start: np.ndarray, h: float, y_end: np.ndarray | None = None):
        """One RK4 step of x^dot = A x^ + H (y - C x^).

        The measurement at the midpoint stage is linearly interpolated when
        the end-of-step sample is supplied, otherwise held constant.
        """
        if y_end is None:
            y_end = y_start
        y_mid = 0.5 * (y_start + y_end)
        hm = self.gain.h_matrix
        a = self.view.a_model - hm @ self.view.c_meas
        x = self.x_hat
        k1 = a @ x + hm @ y_start
        k2 = a @ (x + 0.5 * h * k1) + hm @ y_mid
        k3 = a @ (x + 0.5 * h * k2) + hm @ y_mid
        k4 = a @ (x + h * k3) + hm @ y_end
        self.x_hat = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def residual(self, y: np.ndarray) -> np.ndarray:
        if y.shape[0] != self.view.c_meas.shape[0]:
            raise ConfigurationError("measurement dimension mismatch")
        return y - self.view.c_meas @ self.x_hat

    def neighbor_residuals(self, y: np.ndarray, neighbors) -> np.ndarray:
        r = self.residual(y)
        return np.array([r[self.view.member_index(j)] for j in neighbors])


# ---------------------------------------------------------------------------
# Thresholds and hypothesis testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRule:
    """Threshold policy: a constant ``value``, ``amplitude e^{-rate (t - t0)}
    + offset``, or the analytic bound

        eps = kappa_e w e^{-lambda_e (t - t_k)}
              + (kappa_r/lambda_e) |x0| e^{-lambda_x (t_k - t0)} (1 - e^{-lambda_e (t - t_k)}),

    kappa_r = kappa_x kappa_e alpha, for t >= t_k >= t0 while one model
    stands.  Each is c + (a d + b (1 - d)), d = e^{-rate (t - t_k)}, on the
    terms (a, b, c, rate, t_k) of ``terms``: (0, 0, value, 0, t0),
    (amplitude, 0, offset, rate, t0) and (kappa_e w, the bound's limit, 0,
    lambda_e, t_k).  So ``evaluate`` raises for t < t0 under every rule.
    """

    kind: str = "constant"
    value: float = 0.95
    amplitude: float = 0.0
    rate: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("analytic", "constant", "exponential"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        # |r| > nan is never true: a NaN threshold would disable detection
        for name in ("value", "amplitude", "rate", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"threshold {name} must be finite")

    def terms(self, obs: ObserverState, t0: float, x0_norm: float, consts) -> tuple:
        """(a, b, c, rate, t_k) of ``obs``'s threshold while its model stands;
        the only code that tells the rule kinds apart."""
        if self.kind == "constant":
            return 0.0, 0.0, self.value, 0.0, t0
        if self.kind == "exponential":
            return self.amplitude, 0.0, self.offset, self.rate, t0
        if consts is None:
            raise ConfigurationError("analytic threshold needs stability constants")
        kappa_e, lambda_e = obs.gain.kappa_e, obs.gain.lambda_e
        if kappa_e is None or lambda_e is None:
            raise ConfigurationError("analytic threshold needs certified decay constants")
        t_k = obs.last_model_change
        if not t_k >= t0:
            raise ValueError("need t >= t_k >= t0")
        kappa_r = consts.kappa_x * kappa_e * obs.view.gains.alpha
        b = (kappa_r / lambda_e) * x0_norm * math.exp(-consts.lambda_x * (t_k - t0))
        return kappa_e * obs.w_budget, b, 0.0, lambda_e, t_k

    def evaluate(
        self,
        t: float,
        obs: ObserverState,
        t0: float = 0.0,
        x0_norm: float = 0.0,
        consts=None,
    ) -> float:
        a, b, c, rate, t_k = self.terms(obs, t0, x0_norm, consts)
        if not t >= t_k:
            raise ValueError("need t >= t_k >= t0")
        d = math.exp(-rate * (t - t_k))
        return c + (a * d + b * (1.0 - d))


@dataclass(frozen=True)
class ResidualRecord:
    """Per-neighbor residual snapshot of one detector at one sample time."""

    t: float
    owner: int
    neighbors: tuple
    residuals: tuple
    thresholds: tuple
    verdicts: tuple  # "null" | "attacked"


def make_record(
    t: float, owner: int, neighbors, residuals, thresholds, flagged
) -> ResidualRecord:
    return ResidualRecord(
        t=t,
        owner=owner,
        neighbors=tuple(neighbors),
        residuals=tuple(np.asarray(residuals, dtype=float).tolist()),
        thresholds=tuple(np.asarray(thresholds, dtype=float).tolist()),
        verdicts=tuple("attacked" if j in flagged else "null" for j in neighbors),
    )
