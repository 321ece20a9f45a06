"""Exact nonlinear power flow for radial feeders.

The feeder solver is a backward/forward sweep on the DistFlow branch
equations: the backward pass accumulates receiving-end branch flows and
I^2 z losses with voltages from the previous pass, the forward pass
propagates squared voltage magnitudes down from the substation.  The fixed
point satisfies the exact single-phase branch-flow equations.

:func:`sweep_feeder` runs the sweep in C (``_sweep.c``), one call of the
package's extension module (:mod:`tdcoopt._native`, built at the first
kernel use and cached): it adds the call's injections to the model's base
ones, copies the warm start (or a flat one) into the voltage array, and
sweeps it in place, allocating its scratch per call.  The voltage array
is the caller's ``out`` where one is given (the engine passes each
feeder's slice of the round's voltage vector), else a new one.  The
kernel repeats :func:`_sweep_python` operation for operation, so both
give the same bits; the Python sweep is the reference and runs where no
kernel can be built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .lindistflow import LinearFeederModel
from .network import feeder_topology  # noqa: F401  (kept patchable here, see perfbench/spans.py)

__all__ = ["SweepDivergence", "SweepResult", "sweep_feeder"]

class SweepDivergence(RuntimeError):
    """Sweep failed: operating point outside the contraction region."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(slots=True)
class SweepResult:
    """Single-feeder slice of an AC solution; ``v`` is the sweep's ``out``,
    or an array of its own where none was given."""

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
    out: np.ndarray | None = None,
) -> SweepResult:
    """Solve the compiled feeder's exact power flow for DER injections.

    ``p`` and ``q`` are added to the fixed base injections of each node
    (positive = generation).  ``v_init`` warm-starts the voltage profile;
    the default is a flat start at the substation voltage.  ``out``, when
    given, receives the voltages and is the result's ``v``: a writeable,
    aligned, C-contiguous float64 array of ``n_nodes`` entries that
    shares no memory with ``p``, ``q`` or ``v_init``, unless it is
    ``v_init`` itself.  After a failure its contents are unspecified.

    Runs the compiled kernel, which checks every argument, or
    :func:`_sweep_python` where none can be built; both give the same
    bits and refuse the same arguments.

    Raises :class:`SweepDivergence` on non-convergence or voltage collapse.
    """
    kernel = _sweep_kernel()
    if kernel is None:
        return _sweep_python(model, p, q, tol, max_iter, v_init, out)
    res = kernel(
        model.order, model.parent, model.roots, model.r, model.x,
        model.p0, model.q0, model.v0, p, q, v_init, tol, max_iter, out,
    )
    if len(res) == 6:  # converged: SweepResult's fields
        return SweepResult(*res)
    status, iterations, node, residual = res
    if status == _COLLAPSE:
        raise _collapse(model, node, iterations)
    raise _not_converged(max_iter, residual)


def _check_arguments(n, p, q, v_init, out) -> None:
    """The kernel's refusals of the call's vectors, in its order."""
    for name, a in (("p", p), ("q", q), ("v_init", v_init)):
        if a is None:
            continue
        if np.ndim(a) != 1:
            raise ValueError(f"{name} must have 1 dimension(s)")
        if len(a) != n:
            raise ValueError(f"{name} must have length {n}")
    if out is None:
        return
    if not isinstance(out, np.ndarray):
        raise TypeError("out must be a numpy array")
    if out.dtype != np.float64:  # a byte-swapped float64 too
        raise TypeError("out must have dtype float64")
    if out.ndim != 1:
        raise ValueError("out must have 1 dimension(s)")
    if not (out.flags.c_contiguous and out.flags.aligned):
        raise ValueError("out must be C-contiguous and aligned")
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    if len(out) != n:
        raise ValueError(f"out has length {len(out)}, not {n}")
    for name, a in (("p", p), ("q", q), ("v_init", v_init)):
        if name == "v_init" and a is out:
            continue
        if isinstance(a, np.ndarray) and np.may_share_memory(out, a):
            raise ValueError(f"out overlaps {name}")


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
    out: np.ndarray | None = None,
) -> SweepResult:
    """The sweep in plain Python: the reference the C kernel mirrors.

    Arguments as :func:`sweep_feeder`, checked as the kernel checks them.
    Sums are accumulated left to right from 0.0, as in the kernel
    (``sum()`` of floats is compensated from Python 3.12 on).
    """
    n = model.n_nodes
    _check_arguments(n, p, q, v_init, out)
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
            if out is None:
                out = np.array(v)
            else:
                out[:] = v
            return SweepResult(
                v=out,
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

# the collapse status of ``_sweep.c``, as its enum numbers it
_COLLAPSE = 1


@functools.cache
def _sweep_kernel():
    """The compiled sweep of the package's extension module, or ``None``
    where none can be built (see :mod:`tdcoopt._native`)."""
    library = _native.library()
    return None if library is None else library.sweep

