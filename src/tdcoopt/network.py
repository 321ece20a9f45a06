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

The case file format is written down once, here: one table per record
(``_FIELDS``) gives each field's JSON key, dataclass field, reader and
default.  :func:`parse_case` reads by it and :func:`serialize_case`
writes by it, in the same key order.  The typed readers (``integer``,
``real``, ``bound``, ``flag``, ``text``, ``choice``, and ``section`` and
``array`` for an object or a list) also read scenario files.  They refuse
a bool, a string or a fraction where a number or an integer is meant,
NaN, ±Infinity anywhere but a box edge, and a section of the wrong
shape, with a :class:`FieldError` naming the record and the field;
:func:`parse_case` reports it as a :class:`CaseError`.  An integer where
a number is meant is read as a ``float``.  A key that no table row names
is refused too (:func:`refuse_unknown`), so a misspelt optional field
cannot silently take its default.
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
    slack_bus_id: int
    buses: tuple[Bus, ...]
    lines: tuple[tuple[int, int], ...]
    generators: tuple[Generator, ...]

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
    base_mva: float
    substation_id: int
    v0: float  # substation voltage magnitude, p.u.
    host_bus_id: int | None
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
            raise CaseError(
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
# case file I/O: typed field readers and one field table per record
# ---------------------------------------------------------------------------

class FieldError(ValueError):
    """A field of a case or scenario file is missing or of the wrong type."""


_REQUIRED = object()  # the default of a field that must be present


def _place(where) -> str:
    # a case record's place, ("buses", 3), is spelled out only on failure
    return where if type(where) is str else "%s[%d]" % where


def _missing(key, where, default):
    if default is _REQUIRED:
        raise FieldError(f"{_place(where)}: missing field {key!r}")
    return default


def _wrong(where, key, what: str, value) -> FieldError:
    field_ = f"[{key}]" if type(key) is int else f": {key}"
    return FieldError(f"{_place(where)}{field_} must be {what}, got {value!r}")


def _reader(kind: type, what: str):
    """The reader of a field of JSON type ``kind``.

    ``read(raw, key, where, default)`` is ``raw[key]``, or ``default``
    when the key is missing; ``where`` names the record in an error.  A
    field whose default is ``None`` may also be ``null``.
    """

    def read(raw, key, where, default=_REQUIRED):
        try:
            value = raw[key]
        except LookupError:
            return _missing(key, where, default)
        if type(value) is kind or value is default:
            return value
        raise _wrong(where, key, what, value)

    return read


def _number(finite: bool):
    """The reader of a float field; a JSON integer is read as a float."""
    what = "a finite number" if finite else "a number or ±Infinity"
    accept = math.isfinite if finite else (lambda value: value == value)  # not NaN

    def read(raw, key, where, default=_REQUIRED) -> float:
        try:
            value = raw[key]
        except LookupError:
            return _missing(key, where, default)
        if type(value) is float:
            if accept(value):
                return value
        elif type(value) is int and value.bit_length() < 1024:  # else float() overflows
            return float(value)
        raise _wrong(where, key, what, value)

    return read


integer = _reader(int, "an integer")  # so no bool, string or float
flag = _reader(bool, "true or false")
text = _reader(str, "a string")
section = _reader(dict, "an object")
array = _reader(list, "an array")
real = _number(finite=True)
bound = _number(finite=False)  # a box edge, which may be ±Infinity but not NaN


def choice(raw, key, where, options, default=_REQUIRED, label=None) -> str:
    """``raw[key]``, one of the strings ``options``; ``label`` names the
    field in an error (default: ``key``)."""
    value = text(raw, key, where, default)
    if value in options:
        return value
    raise FieldError(
        f"{_place(where)}: unknown {label or key} {value!r} "
        f"(expected one of: {', '.join(options)})"
    )


def refuse_unknown(raw: dict, keys, where) -> None:
    """Refuse a key of the object ``raw`` that is not in ``keys``."""
    if not raw.keys() <= keys:
        unknown = ", ".join(repr(key) for key in raw if key not in keys)
        raise FieldError(f"{_place(where)}: unknown field {unknown}")


def _records(cls):
    """The reader of an array of ``cls`` records, each read by its table."""

    def read(raw, key, where, default=_REQUIRED) -> tuple:
        items = array(raw, key, where, default)
        records = []
        for i, item in enumerate(items):
            if type(item) is not dict:
                raise _wrong(key, i, "an object", item)
            records.append(_record(cls, item, (key, i)))
        return tuple(records)

    return read


def _bus_pairs(raw, key, where, default=_REQUIRED) -> tuple[tuple[int, int], ...]:
    """An array of ``[u, v]`` bus-id pairs."""
    items = array(raw, key, where, default)
    pairs = []
    for i in range(len(items)):
        pair = array(items, i, key)
        if len(pair) != 2:
            raise _wrong(key, i, "a pair of bus ids", pair)
        pairs.append((integer(pair, 0, (key, i)), integer(pair, 1, (key, i))))
    return tuple(pairs)


# One table per record: (JSON key, dataclass field, reader, default), in
# the order of the dataclass's fields.  parse_case reads by it and
# serialize_case writes the keys in its order.
_FIELDS = {
    Bus: (("id", "id", integer, _REQUIRED), ("p0", "p0", real, 0.0)),
    Generator: (
        ("bus", "bus_id", integer, _REQUIRED),
        ("cost", "cost_coefficient", real, _REQUIRED),
        ("p_min", "p_min", bound, _REQUIRED),
        ("p_max", "p_max", bound, _REQUIRED),
        ("setpoint", "setpoint_initial", real, 0.0),
        ("online", "online", flag, True),
    ),
    TransmissionSystem: (
        ("name", "name", text, "transmission"),
        ("base_mva", "base_mva", real, _REQUIRED),
        ("slack_bus", "slack_bus_id", integer, _REQUIRED),
        ("buses", "buses", _records(Bus), _REQUIRED),
        ("lines", "lines", _bus_pairs, ()),
        ("generators", "generators", _records(Generator), ()),
    ),
    FeederNode: (
        ("id", "id", integer, _REQUIRED),
        ("p", "p_load", real, 0.0),
        ("q", "q_load", real, 0.0),
    ),
    FeederLine: (
        ("from", "parent", integer, _REQUIRED),
        ("to", "child", integer, _REQUIRED),
        ("r", "r", real, _REQUIRED),
        ("x", "x", real, _REQUIRED),
    ),
    Der: (
        ("node", "node_id", integer, _REQUIRED),
        ("a_p", "a_p", real, _REQUIRED),
        ("a_q", "a_q", real, _REQUIRED),
        ("p_min", "p_min", bound, _REQUIRED),
        ("p_max", "p_max", bound, _REQUIRED),
        ("q_min", "q_min", bound, _REQUIRED),
        ("q_max", "q_max", bound, _REQUIRED),
        ("capacity_scale", "capacity_scale", real, 1.0),
    ),
    DistributionFeeder: (
        ("name", "feeder_id", text, "feeder"),
        ("base_mva", "base_mva", real, _REQUIRED),
        ("substation", "substation_id", integer, _REQUIRED),
        ("v0", "v0", real, 1.0),
        ("host_bus", "host_bus_id", integer, None),
        ("nodes", "nodes", _records(FeederNode), _REQUIRED),
        ("lines", "lines", _records(FeederLine), _REQUIRED),
        ("ders", "ders", _records(Der), ()),
    ),
}
_KEYS = {cls: frozenset(row[0] for row in rows) for cls, rows in _FIELDS.items()}
_KINDS = {"transmission": TransmissionSystem, "feeder": DistributionFeeder}


def _record(cls, raw: dict, where):
    refuse_unknown(raw, _KEYS[cls], where)
    # positional, as the rows follow the dataclass's fields: a keyword call
    # costs ~0.6 us more per record
    return cls(*[read(raw, key, where, default) for key, _, read, default in _FIELDS[cls]])


def parse_case(
    text: str, host_bus: int | None = None
) -> TransmissionSystem | DistributionFeeder:
    """Parse a JSON case file into a model, which validates itself.

    The top-level ``kind`` field selects between ``transmission`` and
    ``feeder``; the field-by-field schema is documented in
    ``docs/case_format.md``.  A key that no table names is refused.  A
    feeder is built with ``host_bus``, when given, in place of its
    file's, so a scenario that assigns the host builds and checks the
    feeder once.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CaseError("case file nests too deeply to read") from exc
    if not isinstance(raw, dict):
        raise CaseError("case file must be a JSON object with a 'kind' field")
    try:
        kind = choice(raw, "kind", "case file", tuple(_KINDS), label="case kind")
        del raw["kind"]
        if host_bus is not None and kind == "feeder":
            raw["host_bus"] = host_bus
        return _record(_KINDS[kind], raw, f"{kind} case")
    except FieldError as exc:
        raise CaseError(f"missing or malformed field: {exc}") from exc


def serialize_case(model: TransmissionSystem | DistributionFeeder) -> str:
    """Inverse of :func:`parse_case`; round-trips to a structurally equal model."""
    for kind, cls in _KINDS.items():
        if type(model) is cls:
            return json.dumps({"kind": kind, **_plain(model)}, indent=1)
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _plain(value):
    """A model as JSON data, each record's keys in its table's order."""
    rows = _FIELDS.get(type(value))
    if rows is not None:
        return {key: _plain(getattr(value, attr)) for key, attr, _, _ in rows}
    if type(value) is tuple:
        return [_plain(item) for item in value]
    return value


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
