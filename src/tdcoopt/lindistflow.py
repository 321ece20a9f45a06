"""Compiled feeder model: voltages and head power affine in DER injections.

Dropping line losses from the branch-flow equations leaves an affine map

    v   = A p + B q + c        (node voltage magnitudes)
    P_L = d - sum(p)           (real power drawn at the substation)

where ``p``, ``q`` are the controllable DER injections at every node and
the fixed base injections are folded into ``c`` and ``d``.  ``A`` and
``B`` are the classic resistance/reactance path matrices: entry (i, j) is
the summed r (or x) over the edges shared by the substation-to-i and
substation-to-j paths, divided by the substation voltage.  Both are
symmetric positive semidefinite by construction.  Losslessness makes every
unit of local injection displace exactly one unit of head draw, and
reactive injections do not move the head draw at all.

The same model also carries what the exact sweep needs (the tree as C
arrays, read by the compiled sweep and its Python reference, base
injections, substation voltage)
and where the feeder's nodes sit in the global node vectors, but no DER
data: it is all the market operator may know about a feeder.
:func:`tdcoopt.core.build_problem` compiles each feeder once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DistributionFeeder, feeder_topology

__all__ = [
    "LinearFeederModel",
    "build_lindistflow",
    "predict",
]


@dataclass(frozen=True)
class LinearFeederModel:
    """One feeder compiled for the iteration; holds no DER data."""

    feeder_id: str
    A: np.ndarray  # dv/dp, n x n, symmetric PSD
    B: np.ndarray  # dv/dq, n x n, symmetric PSD
    c: np.ndarray  # voltages at zero DER output
    d: float  # head draw at zero DER output
    node_ids: tuple[int, ...]  # case-file node id per position
    p0: np.ndarray  # fixed base injections per node
    q0: np.ndarray
    v0: float  # substation voltage magnitude
    span: slice  # the feeder's positions in the global node vectors
    # the tree (:func:`~tdcoopt.network.feeder_topology`) as contiguous
    # intc/float64 arrays, for the compiled sweep
    order: np.ndarray
    parent: np.ndarray
    roots: np.ndarray
    r: np.ndarray
    x: np.ndarray
    ones: np.ndarray  # the head draw's BLAS dot operand

    @property
    def n_nodes(self) -> int:
        return len(self.c)


def build_lindistflow(
    feeder: DistributionFeeder, offset: int = 0
) -> LinearFeederModel:
    """Compile ``feeder``, its nodes placed at ``offset`` in global vectors.

    The path matrices come from the edge-path incidence ``T`` (edge e lies
    on the path to node j), giving ``A = T' diag(r) T / v0``.
    """
    topo = feeder_topology(feeder)
    n = feeder.n_nodes
    T = np.zeros((n, n))
    for j in topo.order:
        pj = topo.parent[j]
        if pj >= 0:
            T[:, j] = T[:, pj]
        T[j, j] = 1.0
    r = np.array(topo.r)
    x = np.array(topo.x)
    A = (T * r[:, None]).T @ T / feeder.v0
    B = (T * x[:, None]).T @ T / feeder.v0

    p0 = np.array([node.p_load for node in feeder.nodes])
    q0 = np.array([node.q_load for node in feeder.nodes])
    c = feeder.v0 + A @ p0 + B @ q0
    d = -float(np.sum(p0))

    order = np.array(topo.order, dtype=np.intc)
    parent = np.array(topo.parent, dtype=np.intc)
    roots = np.array(topo.roots, dtype=np.intc)
    ones = np.ones(n)
    for arr in (A, B, c, p0, q0, order, parent, roots, r, x, ones):
        arr.flags.writeable = False
    return LinearFeederModel(
        feeder_id=feeder.feeder_id,
        A=A,
        B=B,
        c=c,
        d=d,
        node_ids=tuple(node.id for node in feeder.nodes),
        p0=p0,
        q0=q0,
        v0=feeder.v0,
        span=slice(offset, offset + n),
        order=order,
        parent=parent,
        roots=roots,
        r=r,
        x=x,
        ones=ones,
    )


def predict(
    model: LinearFeederModel, p: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, float]:
    """Voltage profile and head draw for DER injections ``p``, ``q``."""
    v = model.c + model.A @ p + model.B @ q
    # a BLAS dot with ones, not np.sum: pairwise summation rounds differently
    P_L = model.d - float(model.ones @ p)
    return v, P_L
