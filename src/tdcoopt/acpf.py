"""Exact nonlinear power flow for radial feeders, plus slack-bus bookkeeping.

The feeder solver is a backward/forward sweep on the DistFlow branch
equations: the backward pass accumulates receiving-end branch flows and
I^2 z losses with voltages from the previous pass, the forward pass
propagates squared voltage magnitudes down from the substation.  The fixed
point satisfies the exact single-phase branch-flow equations.

:func:`sweep_feeder` runs the sweep in C (``_sweep.c``, through
``ctypes``), from the package's compiled library, which is built at the
first AC sweep or trace write and cached (:mod:`tdcoopt._native`).  Each
feeder model is bound to the kernel once: its :class:`SweepWorkspace`
holds the injection, voltage and result buffers, the kernel's scratch and
one C struct pointing at all of them and at the model's tree arrays, so a
call writes the injections and the starting voltages and passes a single
pointer.  A workspace is reused by every sweep of its model, so one model
must not be swept from two threads at once.  The kernel repeats
:func:`_sweep_python` operation for operation, so both give the same
bits; the Python sweep is the reference and runs where no kernel can be
built.

The transmission level stays lossless: the slack bus supplies whatever the
generators, feeders, and fixed injections do not, and its recorded initial
output turns the power-balance constraint into a deviation-from-start
residual that is independent of any globally consistent load data.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .lindistflow import LinearFeederModel
from .network import (
    TransmissionSystem,
    feeder_topology,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
)

__all__ = [
    "SweepDivergence",
    "SweepResult",
    "sweep_feeder",
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


@dataclass(slots=True)
class SweepResult:
    """Single-feeder slice of an AC solution; ``v`` is its own array."""

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

    Runs the compiled kernel, or :func:`_sweep_python` where none can be
    built; both give the same bits.

    Raises :class:`SweepDivergence` on non-convergence or voltage collapse.
    """
    n = model.n_nodes
    if len(p) != n or len(q) != n:
        raise ValueError(f"injection vectors must have length {n}")
    if v_init is not None and len(v_init) != n:
        raise ValueError(f"v_init must have length {n}")
    kernel = _sweep_kernel()
    if kernel is None:
        return _sweep_python(model, p, q, tol, max_iter, v_init)

    ws = model.sweep_workspace
    np.add(model.p0, p, out=ws.p_inj)
    np.add(model.q0, q, out=ws.q_inj)
    ws.v[:] = model.v0 if v_init is None else v_init
    ws.sweep.tol = tol
    ws.sweep.max_iter = max_iter
    status = kernel(ws.address)
    if status == _CONVERGED:
        P_L, Q_L, loss, residual = ws.out.tolist()
        return SweepResult(
            v=ws.v.copy(), P_L=P_L, Q_L=Q_L, loss=loss,
            iterations=int(ws.info[0]), residual=residual,
        )
    if status == _COLLAPSE:
        iterations, j = ws.info.tolist()
        raise _collapse(model, j, iterations)
    if status == _NOT_CONVERGED:
        raise _not_converged(max_iter, float(ws.out[3]))
    raise ZeroDivisionError("float division by zero")


def _collapse(model: LinearFeederModel, j: int, it: int) -> SweepDivergence:
    return SweepDivergence(
        f"voltage collapse at node {model.node_ids[j]} (iteration {it})",
        iterations=it,
        residual=math.inf,
    )


def _not_converged(max_iter: int, residual: float) -> SweepDivergence:
    return SweepDivergence(
        f"sweep did not converge within {max_iter} iterations "
        f"(last voltage change {residual:.3e})",
        iterations=max_iter,
        residual=residual,
    )


def _sweep_python(
    model: LinearFeederModel,
    p: np.ndarray,
    q: np.ndarray,
    tol: float,
    max_iter: int,
    v_init: np.ndarray | None,
) -> SweepResult:
    """The sweep in plain Python: the reference the C kernel mirrors.

    Arguments as :func:`sweep_feeder`, lengths already checked.  Sums are
    accumulated left to right from 0.0, as in the kernel (``sum()`` of
    floats is compensated from Python 3.12 on).
    """
    n = model.n_nodes
    order = model.order.tolist()
    parent = model.parent.tolist()
    r = model.r.tolist()
    x = model.x.tolist()

    p_inj = (model.p0 + p).tolist()
    q_inj = (model.q0 + q).tolist()

    v0_sq = model.v0 * model.v0
    if v_init is None:
        v = [model.v0] * n
    else:
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
                raise _collapse(model, j, it)
            v_new = math.sqrt(u_j)
            change = abs(v_new - v[j])
            if change > residual:
                residual = change
            v[j] = v_new
        if residual < tol:
            P_L = Q_L = loss = 0.0
            for j in model.roots.tolist():
                P_L += P_send[j]
                Q_L += Q_send[j]
            for j in range(n):
                loss += r[j] * ell[j]
            return SweepResult(
                v=np.array(v),
                P_L=P_L,
                Q_L=Q_L,
                loss=loss,
                iterations=it,
                residual=residual,
            )
    raise _not_converged(max_iter, residual)


# ---------------------------------------------------------------------------
# the compiled kernel
# ---------------------------------------------------------------------------

# status codes of ``tdcoopt_sweep``, in the order of its enum
_CONVERGED, _COLLAPSE, _NOT_CONVERGED, _ZERO_VOLTAGE = range(4)


class _Sweep(ctypes.Structure):
    """``struct sweep`` of ``_sweep.c``, field for field."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "order", "parent", "roots", "r", "x", "p_inj", "q_inj",
            "v", "out", "scratch", "info",
        )),
        ("v0", ctypes.c_double),
        ("tol", ctypes.c_double),
        ("n", ctypes.c_int),
        ("n_roots", ctypes.c_int),
        ("max_iter", ctypes.c_int),
    ]


class SweepWorkspace:
    """One feeder model bound to the compiled sweep: its buffers and struct.

    Built once per model (``LinearFeederModel.sweep_workspace``) and reused
    by every :func:`sweep_feeder` call on it, so a call allocates nothing
    but the copy of ``v`` it returns.  ``sweep`` points at the buffers here
    and at the model's read-only tree arrays, all kept alive in ``arrays``;
    ``address`` is the struct's address, the kernel's one argument.  Not
    to be shared across threads.
    """

    __slots__ = (
        "p_inj", "q_inj", "v", "out", "info", "scratch", "arrays", "sweep", "address",
    )

    def __init__(self, model: LinearFeederModel):
        n = model.n_nodes
        self.p_inj = np.empty(n)
        self.q_inj = np.empty(n)
        self.v = np.empty(n)
        self.out = np.zeros(4)  # P_L, Q_L, loss, residual
        self.info = np.zeros(2, dtype=np.intc)  # iterations, collapsing node
        self.scratch = np.empty(5 * n)
        self.arrays = (
            model.order, model.parent, model.roots, model.r, model.x,
            self.p_inj, self.q_inj, self.v, self.out, self.scratch, self.info,
        )
        self.sweep = _Sweep(
            *(a.ctypes.data for a in self.arrays),
            v0=model.v0, n=n, n_roots=len(model.roots),
        )
        self.address = ctypes.addressof(self.sweep)


@functools.cache
def _sweep_kernel():
    """``tdcoopt_sweep`` from the package's compiled library, or ``None``
    where none can be built (see :mod:`tdcoopt._native`)."""
    library = _native.library()
    if library is None:
        return None
    kernel = library.tdcoopt_sweep
    kernel.argtypes = (ctypes.c_void_p,)  # a SweepWorkspace's address
    kernel.restype = ctypes.c_int
    return kernel


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
    return float(np.add.reduce(P_L)) - float(np.add.reduce(P_M)) - fixed


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
