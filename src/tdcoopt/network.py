"""Domain model for the coupled transmission/distribution system.

Sign convention, used everywhere in this package: power injected into the
network is positive, consumption is negative.  A feeder's substation draw
``P_L`` is positive when the feeder is a net load.  All quantities are in
per-unit; feeder case files may carry their own MVA base and are rebased
onto the transmission base when attached (see :func:`attach_feeders`).

A case is checked once, when it is built: ``TransmissionSystem``,
``DistributionFeeder`` and ``CoupledSystem`` refuse invalid data with a
:class:`CaseError` on every construction, ``dataclasses.replace``
included, so an object that exists is valid and nothing downstream
re-checks it.  The rules live in :func:`validate_transmission`,
:func:`validate_feeder` and ``CoupledSystem.__post_init__``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace

__all__ = [
    "CaseError",
    "Bus",
    "Generator",
    "TransmissionSystem",
    "FeederNode",
    "FeederLine",
    "Der",
    "DistributionFeeder",
    "VoltageLimits",
    "CoupledSystem",
    "parse_case",
    "serialize_case",
    "validate_transmission",
    "validate_feeder",
    "attach_feeders",
    "rebase_feeder",
    "FeederTopology",
    "feeder_topology",
]


class CaseError(ValueError):
    """Malformed case data.  ``element`` names the offending item when known."""

    def __init__(self, message: str, element: object = None):
        super().__init__(message)
        self.element = element


@dataclass(frozen=True)
class Bus:
    id: int
    p0: float = 0.0  # uncontrollable injection, p.u. (negative = load)


@dataclass(frozen=True)
class Generator:
    bus_id: int
    cost_coefficient: float  # cost = c * P^2, per p.u.^2 per unit time
    p_min: float
    p_max: float
    setpoint_initial: float = 0.0
    online: bool = True


@dataclass(frozen=True)
class TransmissionSystem:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[tuple[int, int], ...]
    generators: tuple[Generator, ...]
    slack_bus_id: int

    def __post_init__(self):
        validate_transmission(self)

    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]


@dataclass(frozen=True)
class FeederNode:
    id: int
    p_load: float = 0.0  # fixed base injection, p.u. (negative = consumption)
    q_load: float = 0.0


@dataclass(frozen=True)
class FeederLine:
    parent: int  # substation id or node id
    child: int
    r: float  # series resistance, p.u.
    x: float  # series reactance, p.u.


@dataclass(frozen=True)
class Der:
    """Controllable resource at a feeder node with cost a_p*p^2 + a_q*q^2."""

    node_id: int
    a_p: float
    a_q: float
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    capacity_scale: float = 1.0

    def box(self) -> tuple[float, float, float, float]:
        """Effective (p_min, p_max, q_min, q_max) after capacity scaling."""
        s = self.capacity_scale
        return (s * self.p_min, s * self.p_max, s * self.q_min, s * self.q_max)


@dataclass(frozen=True)
class DistributionFeeder:
    feeder_id: str
    host_bus_id: int | None
    base_mva: float
    substation_id: int
    v0: float  # substation voltage magnitude, p.u.
    nodes: tuple[FeederNode, ...]
    lines: tuple[FeederLine, ...]
    ders: tuple[Der, ...] = ()

    def __post_init__(self):
        validate_feeder(self)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_index(self) -> dict[int, int]:
        """Node id -> position in ``nodes`` (and in every per-feeder vector)."""
        return {n.id: i for i, n in enumerate(self.nodes)}


@dataclass(frozen=True)
class VoltageLimits:
    v_min: float
    v_max: float

    def __post_init__(self):
        if not (0.0 < self.v_min < self.v_max):
            raise ValueError(
                f"voltage limits require 0 < v_min < v_max, got ({self.v_min}, {self.v_max})"
            )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_transmission(ts: TransmissionSystem) -> TransmissionSystem:
    """Return ``ts`` or raise :class:`CaseError`; every construction runs it."""
    ids = ts.bus_ids()
    seen = set()
    for bus in ts.buses:
        b = bus.id
        if b in seen:
            raise CaseError(f"duplicate bus id {b}", element=b)
        seen.add(b)
        if not math.isfinite(bus.p0):
            raise CaseError(f"bus {b}: non-finite injection p0", element=b)
    if ts.slack_bus_id not in seen:
        raise CaseError(f"slack bus {ts.slack_bus_id} not in bus list", element=ts.slack_bus_id)
    for (u, v) in ts.lines:
        if u not in seen:
            raise CaseError(f"line ({u},{v}): unknown bus {u}", element=(u, v))
        if v not in seen:
            raise CaseError(f"line ({u},{v}): unknown bus {v}", element=(u, v))
    hosts: set[int] = set()
    for g in ts.generators:
        if g.bus_id not in seen:
            raise CaseError(f"generator at unknown bus {g.bus_id}", element=g.bus_id)
        if g.bus_id in hosts:
            raise CaseError(f"two generators on bus {g.bus_id}", element=g.bus_id)
        hosts.add(g.bus_id)
        if not g.p_min <= g.p_max:
            raise CaseError(f"generator at bus {g.bus_id}: p_min > p_max", element=g.bus_id)
        if not math.isfinite(g.setpoint_initial):
            raise CaseError(
                f"generator at bus {g.bus_id}: non-finite setpoint", element=g.bus_id
            )
        if not 0 < g.cost_coefficient < math.inf:
            raise CaseError(
                f"generator at bus {g.bus_id}: cost coefficient must be > 0 and finite",
                element=g.bus_id,
            )
    if not 0 < ts.base_mva < math.inf:
        raise CaseError("base_mva must be positive and finite")
    # connectivity of the line graph
    if len(ids) > 1:
        adj: dict[int, list[int]] = {b: [] for b in ids}
        for (u, v) in ts.lines:
            adj[u].append(v)
            adj[v].append(u)
        stack = [ids[0]]
        reached = {ids[0]}
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(ids):
            missing = sorted(set(ids) - reached)
            raise CaseError(f"transmission graph is disconnected (e.g. bus {missing[0]})",
                            element=missing[0])
    return ts


def validate_feeder(feeder: DistributionFeeder) -> DistributionFeeder:
    """Return ``feeder`` or raise :class:`CaseError`; every construction runs it."""
    if not feeder.nodes:
        raise CaseError(
            f"feeder {feeder.feeder_id}: a feeder without nodes has no voltage "
            "range to record",
            element=feeder.feeder_id,
        )
    seen = set()
    for node in feeder.nodes:
        n = node.id
        if n in seen:
            raise CaseError(f"feeder {feeder.feeder_id}: duplicate node id {n}", element=n)
        seen.add(n)
        if not (math.isfinite(node.p_load) and math.isfinite(node.q_load)):
            raise CaseError(
                f"feeder {feeder.feeder_id}: node {n} has a non-finite injection",
                element=n,
            )
    if feeder.substation_id in seen:
        raise CaseError(
            f"feeder {feeder.feeder_id}: substation id {feeder.substation_id} reused as node",
            element=feeder.substation_id,
        )
    if not 0 < feeder.v0 < math.inf:
        raise CaseError(
            f"feeder {feeder.feeder_id}: substation voltage must be positive and finite"
        )
    if not 0 < feeder.base_mva < math.inf:
        raise CaseError(f"feeder {feeder.feeder_id}: base_mva must be positive and finite")

    # radial topology: one parent per node, |lines| == |nodes|, all reachable
    # from the substation.
    if len(feeder.lines) != len(feeder.nodes):
        raise CaseError(
            f"feeder {feeder.feeder_id}: non-radial, {len(feeder.lines)} lines for "
            f"{len(feeder.nodes)} nodes",
        )
    parent: dict[int, int] = {}
    for ln in feeder.lines:
        if ln.child not in seen:
            raise CaseError(
                f"feeder {feeder.feeder_id}: line ends at unknown node {ln.child}",
                element=ln.child,
            )
        if ln.parent != feeder.substation_id and ln.parent not in seen:
            raise CaseError(
                f"feeder {feeder.feeder_id}: line from unknown node {ln.parent}",
                element=ln.parent,
            )
        if ln.child in parent:
            raise CaseError(
                f"feeder {feeder.feeder_id}: non-radial, node {ln.child} has two parents",
                element=ln.child,
            )
        if not ln.r > 0:
            raise CaseError(
                f"feeder {feeder.feeder_id}: non-positive resistance on line "
                f"({ln.parent},{ln.child})",
                element=(ln.parent, ln.child),
            )
        if not (math.isfinite(ln.r) and math.isfinite(ln.x)):
            raise CaseError(
                f"feeder {feeder.feeder_id}: non-finite impedance on line "
                f"({ln.parent},{ln.child})",
                element=(ln.parent, ln.child),
            )
        parent[ln.child] = ln.parent
    children: dict[int, list[int]] = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    stack = list(children.get(feeder.substation_id, []))
    reached = set(stack)
    while stack:
        u = stack.pop()
        for w in children.get(u, []):
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(feeder.nodes):
        missing = sorted(seen - reached)
        raise CaseError(
            f"feeder {feeder.feeder_id}: non-radial, node {missing[0]} unreachable "
            f"from substation",
            element=missing[0],
        )
    # the substation edge must carry nonzero reactance magnitude
    for ln in feeder.lines:
        if ln.parent == feeder.substation_id and not abs(ln.x) > 0:
            raise CaseError(
                f"feeder {feeder.feeder_id}: substation line ({ln.parent},{ln.child}) "
                f"has zero reactance",
                element=(ln.parent, ln.child),
            )
    hosts: set[int] = set()
    for der in feeder.ders:
        if der.node_id not in seen:
            raise CaseError(
                f"feeder {feeder.feeder_id}: DER at unknown node {der.node_id}",
                element=der.node_id,
            )
        if der.node_id in hosts:
            raise CaseError(
                f"feeder {feeder.feeder_id}: two DERs on node {der.node_id}",
                element=der.node_id,
            )
        hosts.add(der.node_id)
        if not (0 < der.a_p < math.inf and 0 < der.a_q < math.inf):
            raise CaseError(
                f"feeder {feeder.feeder_id}: DER at node {der.node_id} needs finite "
                f"positive cost coefficients",
                element=der.node_id,
            )
        if not (der.p_min <= der.p_max and der.q_min <= der.q_max):
            raise CaseError(
                f"feeder {feeder.feeder_id}: DER at node {der.node_id} has an empty box",
                element=der.node_id,
            )
        if not 0 < der.capacity_scale < math.inf:
            kind = "infinite" if der.capacity_scale == math.inf else "non-positive"
            raise CaseError(
                f"feeder {feeder.feeder_id}: DER at node {der.node_id} has {kind} "
                f"capacity scale",
                element=der.node_id,
            )
    return feeder


# ---------------------------------------------------------------------------
# case file I/O
# ---------------------------------------------------------------------------

def parse_case(text: str) -> TransmissionSystem | DistributionFeeder:
    """Parse a JSON case file into a model, which validates itself.

    The top-level ``kind`` field selects between ``transmission`` and
    ``feeder``; the field-by-field schema is documented in
    ``docs/case_format.md``.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict) or "kind" not in raw:
        raise CaseError("case file must be a JSON object with a 'kind' field")
    kind = raw["kind"]
    try:
        if kind == "transmission":
            return _transmission_from_dict(raw)
        if kind == "feeder":
            return _feeder_from_dict(raw)
    except (KeyError, TypeError) as exc:
        raise CaseError(f"missing or malformed field: {exc}") from exc
    raise CaseError(f"unknown case kind {kind!r}", element=kind)


def _transmission_from_dict(raw: dict) -> TransmissionSystem:
    buses = tuple(Bus(id=int(b["id"]), p0=float(b.get("p0", 0.0))) for b in raw["buses"])
    lines = tuple((int(u), int(v)) for u, v in raw.get("lines", []))
    gens = tuple(
        Generator(
            bus_id=int(g["bus"]),
            cost_coefficient=float(g["cost"]),
            p_min=float(g["p_min"]),
            p_max=float(g["p_max"]),
            setpoint_initial=float(g.get("setpoint", 0.0)),
            online=bool(g.get("online", True)),
        )
        for g in raw.get("generators", [])
    )
    return TransmissionSystem(
        name=str(raw.get("name", "transmission")),
        base_mva=float(raw["base_mva"]),
        buses=buses,
        lines=lines,
        generators=gens,
        slack_bus_id=int(raw["slack_bus"]),
    )


def _feeder_from_dict(raw: dict) -> DistributionFeeder:
    nodes = tuple(
        FeederNode(id=int(n["id"]), p_load=float(n.get("p", 0.0)), q_load=float(n.get("q", 0.0)))
        for n in raw["nodes"]
    )
    lines = tuple(
        FeederLine(
            parent=int(ln["from"]),
            child=int(ln["to"]),
            r=float(ln["r"]),
            x=float(ln["x"]),
        )
        for ln in raw["lines"]
    )
    ders = tuple(
        Der(
            node_id=int(d["node"]),
            a_p=float(d["a_p"]),
            a_q=float(d["a_q"]),
            p_min=float(d["p_min"]),
            p_max=float(d["p_max"]),
            q_min=float(d["q_min"]),
            q_max=float(d["q_max"]),
            capacity_scale=float(d.get("capacity_scale", 1.0)),
        )
        for d in raw.get("ders", [])
    )
    host = raw.get("host_bus")
    return DistributionFeeder(
        feeder_id=str(raw.get("name", "feeder")),
        host_bus_id=None if host is None else int(host),
        base_mva=float(raw["base_mva"]),
        substation_id=int(raw["substation"]),
        v0=float(raw.get("v0", 1.0)),
        nodes=nodes,
        lines=lines,
        ders=ders,
    )


def serialize_case(model: TransmissionSystem | DistributionFeeder) -> str:
    """Inverse of :func:`parse_case`; round-trips to a structurally equal model."""
    if isinstance(model, TransmissionSystem):
        raw = {
            "kind": "transmission",
            "name": model.name,
            "base_mva": model.base_mva,
            "slack_bus": model.slack_bus_id,
            "buses": [{"id": b.id, "p0": b.p0} for b in model.buses],
            "lines": [[u, v] for u, v in model.lines],
            "generators": [
                {
                    "bus": g.bus_id,
                    "cost": g.cost_coefficient,
                    "p_min": g.p_min,
                    "p_max": g.p_max,
                    "setpoint": g.setpoint_initial,
                    "online": g.online,
                }
                for g in model.generators
            ],
        }
    elif isinstance(model, DistributionFeeder):
        raw = {
            "kind": "feeder",
            "name": model.feeder_id,
            "base_mva": model.base_mva,
            "substation": model.substation_id,
            "v0": model.v0,
            "host_bus": model.host_bus_id,
            "nodes": [{"id": n.id, "p": n.p_load, "q": n.q_load} for n in model.nodes],
            "lines": [
                {"from": ln.parent, "to": ln.child, "r": ln.r, "x": ln.x}
                for ln in model.lines
            ],
            "ders": [
                {
                    "node": d.node_id,
                    "a_p": d.a_p,
                    "a_q": d.a_q,
                    "p_min": d.p_min,
                    "p_max": d.p_max,
                    "q_min": d.q_min,
                    "q_max": d.q_max,
                    "capacity_scale": d.capacity_scale,
                }
                for d in model.ders
            ],
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(raw, indent=1)


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

def rebase_feeder(feeder: DistributionFeeder, base_mva: float) -> DistributionFeeder:
    """Express a feeder on a different MVA base (voltage base unchanged).

    Injections and box limits scale by old/new, impedances by new/old, and
    quadratic cost coefficients by (new/old)^2 so cost values are preserved.
    """
    if feeder.base_mva == base_mva:
        return feeder
    ratio = feeder.base_mva / base_mva
    nodes = tuple(replace(n, p_load=n.p_load * ratio, q_load=n.q_load * ratio)
                  for n in feeder.nodes)
    lines = tuple(replace(ln, r=ln.r / ratio, x=ln.x / ratio) for ln in feeder.lines)
    ders = tuple(
        replace(
            d,
            a_p=d.a_p / ratio**2,
            a_q=d.a_q / ratio**2,
            p_min=d.p_min * ratio,
            p_max=d.p_max * ratio,
            q_min=d.q_min * ratio,
            q_max=d.q_max * ratio,
        )
        for d in feeder.ders
    )
    return replace(feeder, base_mva=base_mva, nodes=nodes, lines=lines, ders=ders)


@dataclass(frozen=True)
class CoupledSystem:
    """Transmission system with its attached feeders, all on one MVA base.

    Per-feeder node vectors are concatenated in feeder order into global
    vectors of length ``n_total``; ``offsets`` gives each feeder's slice start.
    Construction refuses a repeated feeder id, a feeder on another MVA
    base (:func:`attach_feeders` rebases first), and a host bus that is
    unset, unknown, the slack bus, or already taken.
    """

    transmission: TransmissionSystem
    feeders: tuple[DistributionFeeder, ...]
    offsets: tuple[int, ...] = field(init=False)
    n_total: int = field(init=False)

    def __post_init__(self):
        ts = self.transmission
        bus_ids = set(ts.bus_ids())
        taken: set[int] = set()
        ids_seen: set[str] = set()
        offs = []
        total = 0
        for f in self.feeders:
            if f.feeder_id in ids_seen:
                raise CaseError(
                    f"feeder id {f.feeder_id!r} used twice", element=f.feeder_id
                )
            ids_seen.add(f.feeder_id)
            if f.base_mva != ts.base_mva:
                raise CaseError(
                    f"feeder {f.feeder_id}: base_mva {f.base_mva} differs from the "
                    f"transmission base {ts.base_mva}",
                    element=f.feeder_id,
                )
            host = f.host_bus_id
            if host is None:
                raise CaseError(f"feeder {f.feeder_id} has no host bus assigned",
                                element=f.feeder_id)
            if host not in bus_ids:
                raise CaseError(f"feeder {f.feeder_id}: host bus {host} unknown",
                                element=host)
            if host == ts.slack_bus_id:
                raise CaseError(f"feeder {f.feeder_id}: host bus {host} is the slack bus",
                                element=host)
            if host in taken:
                raise CaseError(
                    f"feeder {f.feeder_id}: host bus {host} already hosts a feeder",
                    element=host,
                )
            taken.add(host)
            offs.append(total)
            total += f.n_nodes
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "n_total", total)

    def global_index(self, feeder_pos: int, node_pos: int) -> int:
        if not (0 <= node_pos < self.feeders[feeder_pos].n_nodes):
            raise IndexError(f"node position {node_pos} out of range")
        return self.offsets[feeder_pos] + node_pos


@dataclass(frozen=True)
class FeederTopology:
    """Per-node edge arrays for a radial feeder, in ``nodes`` order.

    ``parent[j]`` is the position of node j's parent, or -1 for the
    substation; ``order`` lists positions parents-first, starting with
    ``roots``, the nodes fed by the substation; ``r``/``x`` are the
    impedances of the edge feeding each node.
    """

    order: tuple[int, ...]
    parent: tuple[int, ...]
    r: tuple[float, ...]
    x: tuple[float, ...]
    roots: tuple[int, ...]


def feeder_topology(feeder: DistributionFeeder) -> FeederTopology:
    """The edge arrays of a feeder, which is radial since it was constructed."""
    n = feeder.n_nodes
    idx = feeder.node_index()
    parent = [-1] * n
    r = [0.0] * n
    x = [0.0] * n
    for ln in feeder.lines:
        j = idx[ln.child]
        parent[j] = -1 if ln.parent == feeder.substation_id else idx[ln.parent]
        r[j] = ln.r
        x[j] = ln.x
    children: dict[int, list[int]] = {}
    roots = []
    for j, p in enumerate(parent):
        if p == -1:
            roots.append(j)
        else:
            children.setdefault(p, []).append(j)
    order = []
    queue = deque(roots)
    while queue:
        j = queue.popleft()
        order.append(j)
        queue.extend(children.get(j, []))
    return FeederTopology(
        order=tuple(order),
        parent=tuple(parent),
        r=tuple(r),
        x=tuple(x),
        roots=tuple(roots),
    )


def attach_feeders(
    ts: TransmissionSystem, feeders: list[DistributionFeeder] | tuple[DistributionFeeder, ...]
) -> CoupledSystem:
    """Couple feeders to transmission buses, rebasing onto the transmission base."""
    return CoupledSystem(
        transmission=ts, feeders=tuple(rebase_feeder(f, ts.base_mva) for f in feeders)
    )
