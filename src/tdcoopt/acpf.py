"""Exact nonlinear power flow for radial feeders, plus slack-bus bookkeeping.

The feeder solver is a backward/forward sweep on the DistFlow branch
equations: the backward pass accumulates receiving-end branch flows and
I^2 z losses with voltages from the previous pass, the forward pass
propagates squared voltage magnitudes down from the substation.  The fixed
point satisfies the exact single-phase branch-flow equations.

The transmission level stays lossless: the slack bus supplies whatever the
generators, feeders, and fixed injections do not, and its recorded initial
output turns the power-balance constraint into a deviation-from-start
residual that is independent of any globally consistent load data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindistflow import LinearFeederModel
from .network import (
    TransmissionSystem,
    feeder_topology,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
)

__all__ = [
    "SweepDivergence",
    "SweepResult",
    "sweep_feeder",
    "recompute_branch_mismatch",
    "SlackAccount",
    "fixed_injection",
    "record_slack",
    "slack_residual",
]


class SweepDivergence(RuntimeError):
    """Sweep failed: operating point outside the contraction region."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SweepResult:
    """Single-feeder slice of an AC solution."""

    v: np.ndarray  # node voltage magnitudes, p.u.
    P_L: float  # real power entering at the substation (positive = draw)
    Q_L: float  # reactive power entering at the substation
    loss: float  # total I^2 r line loss, p.u.
    iterations: int
    residual: float  # final max voltage change between passes


def sweep_feeder(
    model: LinearFeederModel,
    p: np.ndarray,
    q: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
    v_init: np.ndarray | None = None,
) -> SweepResult:
    """Solve the compiled feeder's exact power flow for DER injections.

    ``p`` and ``q`` are added to the fixed base injections of each node
    (positive = generation).  ``v_init`` warm-starts the voltage profile;
    the default is a flat start at the substation voltage.

    Raises :class:`SweepDivergence` on non-convergence or voltage collapse.
    """
    n = model.n_nodes
    if len(p) != n or len(q) != n:
        raise ValueError(f"injection vectors must have length {n}")
    topo = model.topology
    order = topo.order
    parent = topo.parent
    r = topo.r
    x = topo.x

    p_inj = (model.p0 + p).tolist()
    q_inj = (model.q0 + q).tolist()

    v0_sq = model.v0 * model.v0
    if v_init is None:
        v = [model.v0] * n
    else:
        if len(v_init) != n:
            raise ValueError(f"v_init must have length {n}")
        v = [float(vi) for vi in v_init]

    rev = order[::-1]
    P_send = [0.0] * n
    Q_send = [0.0] * n
    ell = [0.0] * n

    residual = math.inf
    for it in range(1, max_iter + 1):
        # backward: receiving-end flows, then losses with current voltages
        P_recv = [-pi for pi in p_inj]
        Q_recv = [-qi for qi in q_inj]
        for j in rev:
            u_j = v[j] * v[j]
            l_j = (P_recv[j] * P_recv[j] + Q_recv[j] * Q_recv[j]) / u_j
            ell[j] = l_j
            ps = P_recv[j] + r[j] * l_j
            qs = Q_recv[j] + x[j] * l_j
            P_send[j] = ps
            Q_send[j] = qs
            pj = parent[j]
            if pj >= 0:
                P_recv[pj] += ps
                Q_recv[pj] += qs
        # forward: squared-magnitude update from the substation
        residual = 0.0
        for j in order:
            pj = parent[j]
            u_up = v0_sq if pj < 0 else v[pj] * v[pj]
            u_j = (
                u_up
                - 2.0 * (r[j] * P_send[j] + x[j] * Q_send[j])
                + (r[j] * r[j] + x[j] * x[j]) * ell[j]
            )
            if u_j <= 0.0:
                raise SweepDivergence(
                    f"voltage collapse at node {model.node_ids[j]} "
                    f"(iteration {it})",
                    iterations=it,
                    residual=math.inf,
                )
            v_new = math.sqrt(u_j)
            change = abs(v_new - v[j])
            if change > residual:
                residual = change
            v[j] = v_new
        if residual < tol:
            P_L = sum(P_send[j] for j in order if parent[j] < 0)
            Q_L = sum(Q_send[j] for j in order if parent[j] < 0)
            loss = sum(r[j] * ell[j] for j in range(n))
            return SweepResult(
                v=np.array(v),
                P_L=P_L,
                Q_L=Q_L,
                loss=loss,
                iterations=it,
                residual=residual,
            )
    raise SweepDivergence(
        f"sweep did not converge within {max_iter} iterations "
        f"(last voltage change {residual:.3e})",
        iterations=max_iter,
        residual=residual,
    )


def recompute_branch_mismatch(
    model: LinearFeederModel, p: np.ndarray, q: np.ndarray, result: SweepResult
) -> float:
    """Max violation of the exact branch-flow equations at a sweep solution.

    Used by tests to confirm the returned fixed point: rebuilding branch
    flows and voltages from ``result.v`` must reproduce them.
    """
    topo = model.topology
    n = model.n_nodes
    v = result.v
    P_recv = -(model.p0 + p)
    Q_recv = -(model.q0 + q)
    P_send = np.zeros(n)
    Q_send = np.zeros(n)
    ell = np.zeros(n)
    for j in topo.order[::-1]:
        ell[j] = (P_recv[j] ** 2 + Q_recv[j] ** 2) / (v[j] * v[j])
        P_send[j] = P_recv[j] + topo.r[j] * ell[j]
        Q_send[j] = Q_recv[j] + topo.x[j] * ell[j]
        if topo.parent[j] >= 0:
            P_recv[topo.parent[j]] += P_send[j]
            Q_recv[topo.parent[j]] += Q_send[j]
    mismatch = 0.0
    for j in topo.order:
        pj = topo.parent[j]
        u_up = model.v0 ** 2 if pj < 0 else v[pj] ** 2
        u_j = (
            u_up
            - 2.0 * (topo.r[j] * P_send[j] + topo.x[j] * Q_send[j])
            + (topo.r[j] ** 2 + topo.x[j] ** 2) * ell[j]
        )
        mismatch = max(mismatch, abs(math.sqrt(max(u_j, 0.0)) - v[j]))
    return mismatch


# ---------------------------------------------------------------------------
# slack-bus bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackAccount:
    """Recorded slack-bus output; the balance target for the whole run.

    ``P0_slack`` is set exactly once at scenario start.
    """

    P0_slack: float


def fixed_injection(ts: TransmissionSystem) -> float:
    """Summed fixed injections ``p0`` of every bus except the slack bus."""
    return sum(b.p0 for b in ts.buses if b.id != ts.slack_bus_id)


def _implied_slack(fixed: float, P_M: np.ndarray, P_L: np.ndarray) -> float:
    return float(np.sum(P_L)) - float(np.sum(P_M)) - fixed


def record_slack(fixed: float, P_M: np.ndarray, P_L: np.ndarray) -> SlackAccount:
    """Record the slack output implied by the initial operating point.

    ``fixed`` is the transmission system's :func:`fixed_injection`.
    """
    return SlackAccount(P0_slack=_implied_slack(fixed, P_M, P_L))


def slack_residual(
    account: SlackAccount, fixed: float, P_M: np.ndarray, P_L: np.ndarray
) -> float:
    """Deviation of the implied slack output from its recorded value.

    ``fixed`` is the transmission system's :func:`fixed_injection`.
    Positive when the controllable fleet now over-supplies relative to the
    start; this quantity replaces the raw power-balance expression in the
    price update, which freezes the slack bus out of the balancing task.
    """
    return account.P0_slack - _implied_slack(fixed, P_M, P_L)
