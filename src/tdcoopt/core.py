"""Primal-dual gradient engine for joint dispatch and voltage regulation.

The problem: dispatch transmission generators and feeder-connected DERs to
minimize total quadratic cost, subject to a single real-power balance
(priced by ``lambda``), per-node voltage-band constraints on every feeder
(priced by nonnegative ``mu``), and box limits on every injection.  The
engine iterates a projected primal-dual gradient step on the regularized
Lagrangian

    L = sum(costs) + sum_k mu_k' g_k(v_k) + lambda * balance
        - eta/2 * (lambda^2 + ||mu||^2)

where voltages and head draws come from the affine feeder model, and the
balance term is the deviation of the implied slack-bus output from its
recorded value.

The transmission level stays lossless: the slack bus supplies whatever the
generators, feeders, and fixed injections do not.  Its output at the start
of a run is recorded once (the float ``P0_slack``), which turns the
power-balance constraint into a deviation-from-start residual that is
independent of any globally consistent load data; :func:`_balance` is the
one place that residual is read.

Each iteration is one synchronous round: DERs and generators move first
(using the prices of the previous round), the network response at the new
setpoints is then measured — either through the affine model or through an
exact power-flow sweep — and the dual variables move last, consuming that
measurement.  One driver loop, :func:`solve`, serves both engines:
it takes the starting measurement and slack record, fires events,
measures step norms, guards against divergence, keeps the records, and
applies the stopping rule.  An engine supplies only its round, as
``step`` — by default :func:`primal_dual_step`, the projected primal
step followed by the round's network half, :func:`settle` (measure, dual
update, reprice).  The market engine routes the primal half as messages
between agents, and its operator ends the round in the same
:func:`settle`.

:func:`build_problem` compiles each feeder once, and the round runs on
flat global vectors.  The primal is one vector ``z = [p, q, P_M]``: the
real and reactive DER injections at every feeder node in the coupled
system's order, then the generator outputs.  One cost-coefficient vector
and one box share that layout (nodes without a DER are pinned by
``[0, 0]`` boxes), so the primal step, its projection, its norm and the
events are each one expression over ``z``.  Voltages span every feeder
node, the prices span ``z``, and ``mu`` holds the upper-band
multipliers of all nodes, then the lower-band ones.  Only the per-feeder
matvec (into the feeder's slice) or sweep (handed the round's whole
vectors, writing the feeder's own entries), the products of the feeders
whose voltage multipliers are nonzero, and the per-feeder
trace cells loop over feeders.  The sign convention makes the converged price
``lambda`` negative when extra generation is needed: the stationarity
condition for each generator is ``2 c P + lambda = 0``.

Each of the round's array steps is one call of the package's extension
module (``_round.c``, see :mod:`tdcoopt._native`): the projected primal
step, the dual step (the multipliers, then the price along the balance
residual), the prices when no multiplier is nonzero, the three norms
:func:`solve` reads, the total cost and the record row.  Each ports the
numpy code written beside its call, which is the reference and runs
where no library can be built, with the same bits.  Each call asks
:func:`tdcoopt._native.library`, the one switch between kernel and
reference, so patching it to return ``None`` runs the numpy code
in-process.  The record row writes a zero voltage extreme as ``+0.0``
on both paths, whichever signed zero its reduction keeps.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _native
from .acpf import SweepDivergence, sweep_feeder
from .lindistflow import LinearFeederModel, build_lindistflow, predict
from .network import CoupledSystem, VoltageLimits
from .trace import Records

__all__ = [
    "FEEDBACK_MODES",
    "EngineError",
    "DivergenceError",
    "PrimalState",
    "DualState",
    "SolverConfig",
    "CompiledNetwork",
    "DispatchProblem",
    "build_problem",
    "initial_state",
    "Measurement",
    "measure",
    "measure_feeders",
    "der_signals",
    "dual_update",
    "settle",
    "eval_lagrangian",
    "grad_primal",
    "grad_dual",
    "kkt_residual",
    "total_cost",
    "check_stepsize",
    "StepsizeReport",
    "GeneratorOutage",
    "DerCapacityScale",
    "apply_event",
    "primal_dual_step",
    "default_probes",
    "iteration_record",
    "solve",
    "Phase",
    "SolveResult",
]

logger = logging.getLogger(__name__)

# the network response the duals read: the affine model or the exact sweep
FEEDBACK_MODES = ("linear", "ac")


class EngineError(RuntimeError):
    """Engine failure carrying the iteration it happened at.

    A failure inside :func:`solve` also carries ``records``, the trace
    rows of the iterations completed before it.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.records: Records | None = None


class DivergenceError(EngineError):
    """State exceeded the blow-up bound: the stepsize is too large."""


# ---------------------------------------------------------------------------
# states and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalState:
    """All primal decisions as one vector ``z = [p, q, P_M]``.

    ``p`` and ``q`` are the real and reactive DER injections, one entry
    per feeder node (``n_nodes`` of each); ``P_M`` the generator outputs.
    All three are views of ``z``.
    """

    z: np.ndarray
    n_nodes: int

    @property
    def p(self) -> np.ndarray:
        return self.z[: self.n_nodes]

    @property
    def q(self) -> np.ndarray:
        return self.z[self.n_nodes : 2 * self.n_nodes]

    @property
    def P_M(self) -> np.ndarray:
        return self.z[2 * self.n_nodes :]


@dataclass(frozen=True)
class DualState:
    """Balance price and voltage-band multipliers.

    ``mu`` has 2N entries for N feeder nodes: the upper-band multipliers
    of all nodes in global order, then the lower-band ones.  It is
    componentwise nonnegative.
    """

    lam: float
    mu: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    """Stepsize, regularization, stopping rule, and feedback source.

    The run stops once all three residuals are below ``tol``: the primal
    and dual step infinity-norms divided by the stepsize, and the
    absolute balance residual.
    """

    eps: float = 5e-4
    eta: float = 0.0
    max_iter: int = 20000
    tol: float = 1e-6
    feedback: str = "linear"  # one of FEEDBACK_MODES
    zero_lambda_to_ders: bool = False  # baseline: hide the price from DERs
    divergence_limit: float = 1e6
    record_state: bool = False  # keep the full (x, y) trajectory

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if type(self.max_iter) is not int or self.max_iter < 0:  # no bool, no float
            raise ValueError(
                f"max_iter must be a nonnegative integer, got {self.max_iter!r}"
            )
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if not self.divergence_limit > 0:
            raise ValueError(
                f"divergence_limit must be positive, got {self.divergence_limit}"
            )
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(f"unknown feedback mode {self.feedback!r}")


# ---------------------------------------------------------------------------
# the assembled problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """The round's network half: what the market operator may know.

    The feeder models (topology, impedances and base loads), the summed
    fixed bus injection (slack bus excluded), the voltage band, the
    generator and node counts, and ``starts``, each feeder's first
    position in the global node order.  It holds no DER data, no cost and
    no box, and an event leaves it as it is.  All vectors over feeder
    nodes use the global node order; ``models[k].span`` is feeder k's
    slice of them.
    """

    models: tuple[LinearFeederModel, ...]  # each feeder, compiled once
    fixed_injection: float
    limits: VoltageLimits
    n_generators: int
    n_nodes: int
    starts: np.ndarray  # np.intp, one entry per feeder


@dataclass
class DispatchProblem:
    """A coupled system compiled into flat arrays for the iteration.

    ``coef``, ``lo`` and ``hi`` span the primal vector ``z = [p, q, P_M]``
    (:class:`PrimalState`): the cost of ``z`` is ``sum(coef * z * z)``,
    with ``a_p``, ``a_q`` at each DER's node (zero where none sits) and
    each generator's coefficient, and ``[lo, hi]`` is its box.  The boxes
    are the limits at the start of a run; an event yields a modified copy
    (:func:`apply_event`) that carries the same ``network`` and never
    edits them in place.
    """

    system: CoupledSystem
    network: CompiledNetwork
    gen_bus: np.ndarray  # bus id per generator
    coef: np.ndarray  # quadratic cost coefficient per entry of z
    lo: np.ndarray
    hi: np.ndarray

    @property
    def models(self) -> tuple[LinearFeederModel, ...]:
        return self.network.models

    @property
    def n_nodes(self) -> int:
        return self.network.n_nodes

    @property
    def n_generators(self) -> int:
        return self.network.n_generators


def build_problem(system: CoupledSystem, limits: VoltageLimits) -> DispatchProblem:
    """Compile a coupled system into the flat-array problem form.

    This is the one place a feeder is compiled (:func:`build_lindistflow`).
    It only compiles: the case objects refused invalid data when they were
    built (:mod:`tdcoopt.network`), so every cost coefficient is positive,
    ``coef`` is zero exactly where no DER sits, each bus holds at most one
    generator (events name generators by bus), and every feeder has a node.
    """
    N = system.n_total
    models = tuple(
        build_lindistflow(f, offset, N)
        for f, offset in zip(system.feeders, system.offsets)
    )
    ts = system.transmission
    gens = ts.generators
    coef = np.zeros(2 * N + len(gens))
    lo = np.zeros(2 * N + len(gens))
    hi = np.zeros(2 * N + len(gens))
    gen_bus = [g.bus_id for g in gens]

    for i, g in enumerate(gens, start=2 * N):
        coef[i] = g.cost_coefficient
        if g.online:
            lo[i], hi[i] = g.p_min, g.p_max

    for k, feeder in enumerate(system.feeders):
        index = feeder.node_index()
        for der in feeder.ders:
            g = system.global_index(k, index[der.node_id])
            coef[g], coef[N + g] = der.a_p, der.a_q
            lo[g], hi[g], lo[N + g], hi[N + g] = der.box()

    network = CompiledNetwork(
        models=models,
        fixed_injection=sum(b.p0 for b in ts.buses if b.id != ts.slack_bus_id),
        limits=limits,
        n_generators=len(gens),
        n_nodes=N,
        starts=np.array(system.offsets, dtype=np.intp),
    )
    return DispatchProblem(
        system=system,
        network=network,
        gen_bus=np.array(gen_bus, dtype=int),
        coef=coef,
        lo=lo,
        hi=hi,
    )


def initial_state(
    problem: DispatchProblem,
    mode: str = "midbox",
    P_M: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[PrimalState, DualState]:
    """Starting point: generators per ``mode``, DERs at zero, duals at zero.

    Modes: ``midbox`` (box midpoint), ``setpoint`` (the case file's
    recorded outputs), ``random`` (uniform in the boxes, needs ``rng``).
    An explicit ``P_M`` overrides the mode.  Everything is projected into
    the current boxes.
    """
    N = problem.n_nodes
    lo, hi = problem.lo[2 * N :], problem.hi[2 * N :]
    if P_M is not None:
        P = np.asarray(P_M, dtype=float)
        if P.shape != lo.shape:
            raise ValueError(
                f"P_M has shape {P.shape}, not one entry for each of the "
                f"{len(lo)} generators"
            )
    elif mode == "midbox":
        mid = 0.5 * (lo + hi)
        P = np.where(np.isfinite(mid), mid, 0.0)
    elif mode == "setpoint":
        gens = problem.system.transmission.generators
        P = np.array([g.setpoint_initial for g in gens])
    elif mode == "random":
        if rng is None:
            raise ValueError("mode='random' requires an rng")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("mode='random' requires finite generator boxes")
        P = rng.uniform(lo, hi)
    else:
        raise ValueError(f"unknown init mode {mode!r}")

    z = np.clip(np.concatenate([np.zeros(2 * N), P]), problem.lo, problem.hi)
    return PrimalState(z, N), DualState(lam=0.0, mu=np.zeros(2 * N))


# ---------------------------------------------------------------------------
# network feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measurement:
    """Network response at one primal state: node voltages and head draws.

    ``v`` spans all feeder nodes in global order; ``P_L`` has one entry
    per feeder.
    """

    v: np.ndarray
    P_L: np.ndarray


def measure_feeders(
    network: CompiledNetwork,
    p: np.ndarray,
    q: np.ndarray,
    feedback: str = "linear",
    warm: np.ndarray | None = None,
    iteration: int | None = None,
) -> Measurement:
    """Voltages and head draws for global injection vectors ``p``, ``q``.

    ``linear`` evaluates the affine models; ``ac`` runs the exact sweep
    (optionally warm-started from the ``warm`` voltages), each feeder's
    handed the whole ``p``, ``q``, ``warm`` and ``v`` and writing in place
    into its own entries of the returned ``v``.  ``v`` is new
    on every call: earlier measurements, and the market journal's
    messages, hold views of theirs.  Needs only the network, so the
    market operator can call it.  A failed sweep raises
    :class:`EngineError` carrying ``iteration`` and naming the feeder.
    """
    if feedback not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback mode {feedback!r}")
    models = network.models
    v = np.empty(network.n_nodes)
    P_L = np.empty(len(models))
    if feedback == "linear":
        for k, model in enumerate(models):
            sl = model.span
            v[sl], P_L[k] = predict(model, p[sl], q[sl])
        return Measurement(v, P_L)
    try:
        for k, model in enumerate(models):
            P_L[k] = sweep_feeder(model, p, q, v_init=warm, out=v).P_L
    except SweepDivergence as exc:
        raise EngineError(
            f"power flow failed at iteration {iteration} on feeder "
            f"{model.feeder_id}: {exc}",
            iteration=iteration,
        ) from exc
    return Measurement(v, P_L)


def measure(
    problem: DispatchProblem,
    x: PrimalState,
    feedback: str = "linear",
    warm: np.ndarray | None = None,
    iteration: int | None = None,
) -> Measurement:
    """Feeder voltages and head draws at the setpoints of ``x``."""
    return measure_feeders(problem.network, x.p, x.q, feedback, warm, iteration)


# ---------------------------------------------------------------------------
# shared round pieces (used verbatim by the market engine)
# ---------------------------------------------------------------------------

def der_signals(
    network: CompiledNetwork, y: DualState, zero_lambda: bool = False
) -> np.ndarray:
    """The round's prices: one array over the primal vector ``z``.

    Its first N entries are ``alpha``, priced against ``p``; on feeder k,
    ``alpha = lambda + A_k' (mu_upper - mu_lower)`` (a unit of local
    injection displaces a unit of head draw).  The next N are ``beta``,
    priced against ``q``: ``beta = B_k' (mu_upper - mu_lower)`` (reactive
    injections leave the head draw alone).  The last ``n_generators``
    entries hold ``lambda`` itself, priced against ``P_M``.  With
    ``zero_lambda`` the balance price is hidden from the DERs (voltage
    terms remain; the generators still see it) — the no-participation
    baseline.

    A feeder whose ``w = mu_upper - mu_lower`` is all zero (NaN counts as
    nonzero) skips its products: they would all be ``+0.0``, since ``A``
    and ``B`` are finite and ``mu`` holds no ``-0.0`` (it starts at
    ``+0.0``, and :func:`dual_update` clamps with ``np.maximum(., 0.0)``),
    so ``w`` is ``+0.0`` too.  Its DER prices are then ``lambda + 0.0``
    and ``0.0``, the same bits.  One kernel call (``tdcoopt_flat_signals``)
    forms ``w``, writes the prices of every such feeder and of the
    generators, and names the feeders left, whose products run here in
    numpy (:func:`_price_feeder`); :func:`_der_prices` is its reference.
    """
    kernels = _native.library()
    if kernels is not None:
        lam = 0.0 if zero_lambda else y.lam
        signals = kernels.flat_signals(
            y.mu, network.n_nodes, network.n_generators, lam, y.lam, network.starts,
        )
        if signals is not None:  # None: mu is not an array the kernel reads
            prices, w, active = signals
            for k in active:
                _price_feeder(prices, network.models[k], w, lam)
            return prices
    return _der_prices(network, y, zero_lambda)


def _der_prices(
    network: CompiledNetwork, y: DualState, zero_lambda: bool = False
) -> np.ndarray:
    """:func:`der_signals` in numpy alone, which the certificate reads
    (set-up never builds or loads the library)."""
    lam = 0.0 if zero_lambda else y.lam
    n = network.n_nodes
    prices = np.empty(2 * n + network.n_generators)
    prices[2 * n :] = y.lam  # as it is: a -0.0 price keeps its sign
    w = y.mu[:n] - y.mu[n:]
    for model in network.models:
        sl = model.span
        if np.count_nonzero(w[sl]):
            _price_feeder(prices, model, w, lam)
        else:
            prices[sl] = lam + 0.0
            prices[n + sl.start : n + sl.stop] = 0.0
    return prices


def _price_feeder(
    prices: np.ndarray, model: LinearFeederModel, w: np.ndarray, lam: float
) -> None:
    """Write one feeder's DER prices from its voltage multipliers: the
    products of :func:`der_signals`, ``w`` spanning every node.  Per
    feeder, not one block-diagonal product: that would change the
    rounding of the sums."""
    n, sl = len(w), model.span
    prices[sl] = lam + model.A.T @ w[sl]
    prices[n + sl.start : n + sl.stop] = model.B.T @ w[sl]


def _dual_gradient(
    network: CompiledNetwork,
    y: DualState,
    measurement: Measurement,
    P_M: np.ndarray,
    P0_slack: float,
    eta: float,
) -> tuple[float, np.ndarray, float]:
    """Partial gradients of L in (lambda, mu) at a measurement.

    Returns ``(dlam, dmu, residual)``: ``dmu`` is the band ``g(v)`` less
    ``eta * mu``, ``dlam`` and ``residual`` are :func:`_balance`'s.  The
    one copy of ``g(v)`` and the dual gradient: :func:`dual_update` steps
    along it, :func:`grad_dual` returns it.
    """
    limits, v = network.limits, measurement.v
    dmu = np.concatenate([v - limits.v_max, limits.v_min - v]) - eta * y.mu
    dlam, residual = _balance(network, y.lam, measurement, P_M, P0_slack, eta)
    return dlam, dmu, residual


def _balance(
    network: CompiledNetwork,
    lam: float,
    measurement: Measurement,
    P_M: np.ndarray,
    P0_slack: float,
    eta: float,
) -> tuple[float, float]:
    """``(residual - eta * lam, residual)``: the partial gradient of L in
    ``lambda`` and the balance residual it holds at a measurement.

    The residual is the recorded slack output less the implied one:
    positive when the controllable fleet now over-supplies relative to the
    start.  The one copy of the balance residual: every round, round 0
    included, reads it here.
    """
    residual = P0_slack - _implied_slack(network, P_M, measurement.P_L)
    return residual - eta * lam, residual


def _implied_slack(
    network: CompiledNetwork, P_M: np.ndarray, P_L: np.ndarray
) -> float:
    """The slack-bus output that balances the head draws ``P_L``, the
    generators ``P_M`` and the fixed injections."""
    fixed = network.fixed_injection
    return float(np.add.reduce(P_L)) - float(np.add.reduce(P_M)) - fixed


def dual_update(
    network: CompiledNetwork,
    y: DualState,
    measurement: Measurement,
    P_M: np.ndarray,
    P0_slack: float,
    eps: float,
    eta: float,
) -> tuple[DualState, float]:
    """Projected dual ascent step consuming a network measurement.

    Multipliers rise with the measured constraint violations; the price
    integrates the balance residual.  Returns the new duals and the
    residual that drove the price.  One kernel call
    (``tdcoopt_dual_step``) does both, :func:`_balance`'s sums included;
    :func:`_dual_gradient` is its reference.
    """
    kernels = _native.library()
    if kernels is not None:
        limits = network.limits
        mu, lam, residual = kernels.dual_step(
            y.mu, measurement.v, limits.v_min, limits.v_max, eps, eta, y.lam,
            measurement.P_L, P_M, P0_slack, network.fixed_injection,
        )
        return DualState(lam, mu), residual
    dlam, dmu, residual = _dual_gradient(network, y, measurement, P_M, P0_slack, eta)
    mu = np.maximum(y.mu + eps * dmu, 0.0)
    return DualState(lam=y.lam + eps * dlam, mu=mu), residual


# ---------------------------------------------------------------------------
# Lagrangian and gradients
# ---------------------------------------------------------------------------

def total_cost(problem: DispatchProblem, x: PrimalState) -> float:
    """Generation cost plus DER cost at the given primal state.

    Summed per block, generators first, then ``p`` and ``q``, as the
    compiled ``record_row`` sums a trace row's total-cost cell.
    """
    N = x.n_nodes
    cost = problem.coef * x.z
    cost *= x.z
    add = np.add.reduce  # what ndarray.sum runs, without its Python wrapper
    return float(add(cost[2 * N :]) + add(cost[:N]) + add(cost[N : 2 * N]))


def eval_lagrangian(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    P0_slack: float = 0.0,
    eta: float = 0.0,
) -> float:
    """The regularized Lagrangian, with the affine feeder model throughout;
    each dual multiplies its constraint, :func:`grad_dual` at ``eta = 0``."""
    balance, g = grad_dual(problem, x, y, P0_slack)
    value = total_cost(problem, x) + float(y.mu @ g) + y.lam * balance
    if eta:
        value -= 0.5 * eta * (y.lam * y.lam + float(y.mu @ y.mu))
    return value


def grad_primal(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    signals: np.ndarray | None = None,
) -> np.ndarray:
    """Partial gradient of L in the primal vector ``z = [p, q, P_M]``.

    Composed exactly as the decentralized agents compute it, coordinate
    by coordinate: private cost gradient plus the received price.
    ``signals`` are the round's prices over ``z`` (:func:`der_signals`)
    when already computed; by default they are those of ``y`` with the
    balance price shown to the DERs.
    """
    if signals is None:
        signals = der_signals(problem.network, y)
    return 2.0 * problem.coef * x.z + signals


def grad_dual(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    P0_slack: float = 0.0,
    eta: float = 0.0,
    measurement: Measurement | None = None,
) -> tuple[float, np.ndarray]:
    """Partial gradients of L in (lambda, mu) at ``measurement``, by
    default the affine model's at ``x``."""
    if measurement is None:
        measurement = measure(problem, x)
    return _dual_gradient(problem.network, y, measurement, x.P_M, P0_slack, eta)[:2]


def kkt_residual(
    problem: DispatchProblem, x: PrimalState, y: DualState, P0_slack: float
) -> dict[str, float]:
    """The KKT residuals at ``(x, y)``, read from :func:`grad_primal` and
    :func:`grad_dual` (the affine model, ``eta = 0``): each of the five is
    zero exactly at a saddle of the ``eta = 0`` problem."""
    grad = grad_primal(problem, x, y)
    balance, g = grad_dual(problem, x, y, P0_slack)
    projected = x.z - np.clip(x.z - grad, problem.lo, problem.hi)
    return {
        "projected gradient": _max_abs(projected),
        "band violation": float(np.max(g, initial=0.0)),
        "balance residual": abs(balance),
        "negative multiplier": -float(np.min(y.mu, initial=0.0)),
        "complementarity": _max_abs(y.mu * g),
    }


# ---------------------------------------------------------------------------
# stepsize certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepsizeReport:
    """Strong-monotonicity modulus, operator norm bound, and stepsize bound.

    With ``eta == 0`` the modulus comes from the cost curvatures alone and
    the bound is advisory (the dual block is then merely monotone).
    """

    s: float
    l: float
    eps_bound: float


def check_stepsize(problem: DispatchProblem, eta: float) -> StepsizeReport | None:
    """Bound the provably safe stepsize ``2 s / l**2``.

    ``s`` is the smallest cost curvature ``2 coef`` over the entries of
    ``z`` that carry a cost, the generators and the DERs (and ``eta``
    when positive); a problem with neither generators nor DERs has none,
    and gets ``None``.  ``l`` is the spectral norm of the primal-dual
    operator ``F = [[H, C], [-C', eta I]]``, where ``H`` is the diagonal
    cost curvature and ``C`` couples the primal vector (p, q, P_M) to the
    duals (upper-band mu, lower-band mu, lambda) through the affine
    feeder model and the balance constraint.

    ``F`` is never assembled: ``l**2 = lambda_max(F' F)`` comes from
    Lanczos iteration with full reorthogonalisation, applying ``F`` and
    ``F'`` block by block with each feeder's own matrices.  The start
    vector is drawn from a fixed seed, so reruns give the same ``l`` bit
    for bit.  Iteration stops when the residual of the top Ritz pair is
    at most 1e-14 relative (this includes the Krylov space running out)
    or after as many steps as ``F`` has columns.  A test on the Ritz
    value alone would stop inside a cluster of near-equal top singular
    values, short of the largest.
    """
    N = problem.n_nodes
    xdim = len(problem.coef)
    dim = xdim + 2 * N + 1
    network, models = problem.network, problem.models
    curvature = 2.0 * problem.coef
    # build_problem leaves coef zero exactly where no DER sits
    moduli = curvature[problem.coef > 0]
    if not moduli.size:
        return None
    s = float(np.min(moduli))
    if eta > 0:
        s = min(s, eta)

    def couple_t(x: np.ndarray) -> np.ndarray:
        """``C' x``: x holds p, q, then P_M."""
        p, q = x[:N], x[N : 2 * N]
        out = np.empty(2 * N + 1)
        head = 0.0
        for model in models:
            sl = model.span
            u = model.A.T @ p[sl] + model.B.T @ q[sl]
            out[sl] = u
            out[N + sl.start : N + sl.stop] = -u
            # the lossless head draw, summed as ``predict`` sums it
            head -= float(model.ones @ p[sl])
        out[-1] = float(np.sum(x[2 * N :])) - head
        return out

    def gram(z: np.ndarray) -> np.ndarray:
        """``F' F z``.  ``C y`` is the round's prices (:func:`_der_prices`)
        of the duals ``y`` holds: upper-band mu, lower-band mu, then lambda."""
        x, y = z[:xdim], z[xdim:]
        fx = curvature * x + _der_prices(network, DualState(y[-1], y[: 2 * N]))
        fy = eta * y - couple_t(x)
        c_fy = _der_prices(network, DualState(fy[-1], fy[: 2 * N]))
        return np.concatenate([curvature * fx - c_fy, couple_t(fx) + eta * fy])

    # a seeded random start: the all-ones vector can be orthogonal to the
    # top singular vector when feeders are laid out symmetrically.  The
    # standard library's generator, whose random() sequence is fixed across
    # Python versions, because importing numpy.random costs ~14 ms, three
    # times this whole certificate on the default scenario
    rng = random.Random(0)
    v = np.array([rng.random() - 0.5 for _ in range(dim)])
    v /= math.sqrt(float(v @ v))
    basis: list[np.ndarray] = []
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(dim):
        basis.append(v)
        r = gram(v)
        if betas:
            r -= betas[-1] * basis[-2]
        alphas.append(float(v @ r))
        r -= alphas[-1] * v
        Q = np.array(basis)
        for _ in range(2):  # full reorthogonalisation, twice is enough
            r -= Q.T @ (Q @ r)
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vectors = np.linalg.eigh(T)
        theta = float(ritz[-1])
        beta = math.sqrt(float(r @ r))
        # beta times the last entry of the top eigenvector of T is the
        # residual of the top Ritz pair; it also covers breakdown (beta
        # near 0, the Krylov space exhausted)
        if beta * abs(float(vectors[-1, -1])) <= 1e-14 * theta:
            break
        betas.append(beta)
        v = r / beta

    l = math.sqrt(theta)
    eps_bound = 2.0 * s / (l * l) if l > 0 else math.inf
    return StepsizeReport(s=s, l=l, eps_bound=eps_bound)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

def _check_iteration(iteration) -> None:
    if type(iteration) is not int or iteration < 1:  # no bool, no float; 0 is the start
        raise ValueError(f"iteration must be an integer >= 1, got {iteration!r}")


@dataclass(frozen=True)
class GeneratorOutage:
    """Generator at ``bus_id`` trips at ``iteration``: output pinned to 0.

    ``kind`` and ``target`` name it as a scenario file does.
    """

    iteration: int
    bus_id: int
    kind = "generator-outage"

    def __post_init__(self):
        _check_iteration(self.iteration)

    @property
    def target(self) -> int:
        return self.bus_id


@dataclass(frozen=True)
class DerCapacityScale:
    """All DER boxes rescaled by ``factor`` at ``iteration``.

    ``kind`` and ``target`` name it as a scenario file does.
    """

    iteration: int
    factor: float
    kind = "der-capacity-scale"
    target = "all-DERs"

    def __post_init__(self):
        _check_iteration(self.iteration)
        # an infinite factor would make each pinned [0, 0] box NaN (0 * inf)
        if not (self.factor > 0 and math.isfinite(self.factor)):
            raise ValueError(f"needs a finite positive factor, got {self.factor}")


def apply_event(
    problem: DispatchProblem, x: PrimalState, event
) -> tuple[DispatchProblem, PrimalState]:
    """The problem with the event's limits, and ``x`` re-projected into them.

    Returns copies; the caller's problem and state are left untouched.
    Only the coordinates of ``z`` the event names change: an outage pins
    its generator's entry to ``[0, 0]``, a capacity rescale scales the
    DER entries ``z[:2N]`` and pulls them back into their boxes.  This is
    the one place an event acts: both engines step on the returned problem.
    """
    N = x.n_nodes
    lo, hi, z = problem.lo.copy(), problem.hi.copy(), x.z.copy()
    if isinstance(event, GeneratorOutage):
        hits = np.flatnonzero(problem.gen_bus == event.bus_id)
        if len(hits) == 0:
            raise EngineError(
                f"outage targets bus {event.bus_id}, which hosts no generator",
                iteration=event.iteration,
            )
        i = 2 * N + int(hits[0])
        lo[i] = hi[i] = z[i] = 0.0
    elif isinstance(event, DerCapacityScale):
        der = slice(0, 2 * N)
        lo[der] *= event.factor
        hi[der] *= event.factor
        z[der] = np.clip(z[der], lo[der], hi[der])
    else:
        raise EngineError(f"unknown event type {type(event).__name__}")
    return replace(problem, lo=lo, hi=hi), PrimalState(z, N)


# ---------------------------------------------------------------------------
# one round, and the full iteration
# ---------------------------------------------------------------------------

# A round's five values ``(x, y, measurement, residual, prices)``: the primal
# state, the new duals, the measurement at ``x``, the balance residual that
# drove the price, and the prices over ``z`` of the new duals.
Round = tuple[PrimalState, DualState, Measurement, float, np.ndarray]


def settle(
    network: CompiledNetwork,
    x: PrimalState,
    y: DualState,
    P0_slack: float,
    cfg: SolverConfig,
    iteration: int | None,
    warm: np.ndarray | None,
) -> Round:
    """The round's network half: measure at ``x``, step the duals, reprice.

    Takes only what the market operator may know, the network (no DER
    data).  Returns the round's five values (:data:`Round`).
    """
    meas = measure_feeders(network, x.p, x.q, cfg.feedback, warm, iteration)
    y_new, residual = dual_update(network, y, meas, x.P_M, P0_slack, cfg.eps, cfg.eta)
    prices = der_signals(network, y_new, cfg.zero_lambda_to_ders)
    return x, y_new, meas, residual, prices


def primal_dual_step(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    P0_slack: float,
    cfg: SolverConfig,
    iteration: int | None,
    warm: np.ndarray | None,
    signals: np.ndarray,
) -> Round:
    """One synchronous round: primal moves, network response, dual moves.

    The primal vector steps along :func:`grad_primal` from the round's
    prices ``signals``, projected; :func:`settle` then moves the
    duals along the gradient :func:`grad_dual` returns, prices them and
    returns the round's five values.
    """
    kernels = _native.library()
    if kernels is None:
        step = x.z - cfg.eps * grad_primal(problem, x, y, signals)
        z = np.clip(step, problem.lo, problem.hi)
    else:
        z = kernels.primal_step(
            x.z, cfg.eps, problem.coef, signals, problem.lo, problem.hi
        )
    x_new = PrimalState(z, x.n_nodes)
    return settle(problem.network, x_new, y, P0_slack, cfg, iteration, warm)


# ---------------------------------------------------------------------------
# trace plumbing shared by both engines
# ---------------------------------------------------------------------------

def default_probes(problem: DispatchProblem) -> tuple[int, ...]:
    """One probe node per feeder: the node of largest path impedance."""
    probes = []
    for model in problem.models:
        parent, r, x = model.parent.tolist(), model.r.tolist(), model.x.tolist()
        depth = [0.0] * model.n_nodes
        best, best_depth = 0, -1.0
        for j in model.order.tolist():
            parent_depth = depth[parent[j]] if parent[j] >= 0 else 0.0
            depth[j] = parent_depth + math.hypot(r[j], x[j])
            if depth[j] > best_depth:
                best, best_depth = j, depth[j]
        probes.append(best)
    return tuple(probes)


def iteration_record(
    records: Records,
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    measurement: Measurement,
    balance_residual: float,
    signals: np.ndarray,
    probes: np.ndarray,
    step_primal: float,
    step_dual: float,
) -> None:
    """Write the round's diagnostics into the next row of ``records``.

    ``probes`` holds one global node position per feeder (an integer
    array); ``signals`` are the round's prices over ``z``.  The step
    norms of row 0, the initial record, are ``NA`` and are passed as
    0.0.  A feeder's zero voltage extreme is written as ``+0.0``.  Every
    feeder must have a node.
    """
    row = records.new_row()
    network = problem.network
    kernels = _native.library()
    if kernels is not None:
        kernels.record_row(
            row, records.layout, y.lam, x.z, network.n_nodes, problem.coef,
            measurement.P_L, measurement.v, network.starts, signals, probes,
            balance_residual, step_primal, step_dual,
        )
        return
    N = network.n_nodes
    row[-2] = step_primal
    row[-1] = step_dual
    row[0] = y.lam
    row[records.P_M] = x.P_M
    row[records.P_L] = measurement.P_L
    # + 0.0: a zero extreme is +0.0, whichever of tied signed zeros the
    # reduction keeps
    row[records.v_min] = np.minimum.reduceat(measurement.v, network.starts) + 0.0
    row[records.v_max] = np.maximum.reduceat(measurement.v, network.starts) + 0.0
    row[records.alpha_probe] = signals[probes]
    row[records.beta_probe] = signals[N:][probes]
    row[records.slack_residual] = balance_residual
    row[records.total_cost] = total_cost(problem, x)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    """Rounds ``first`` to ``last`` of a run, all stepped on ``problem``."""

    first: int
    last: int
    problem: DispatchProblem


@dataclass
class SolveResult:
    """Final states, per-iteration records, and the stopping status.

    ``phases`` tile the rounds run, ``[0, iterations]``, in order.
    ``stepsize`` is the run's certificate (:func:`check_stepsize`), or
    ``None`` when the problem has neither generators nor DERs.
    """

    status: str  # "converged" | "not-converged"
    iterations: int  # steps actually executed
    x: PrimalState
    y: DualState
    records: Records
    P0_slack: float  # the balance target the run held
    phases: tuple[Phase, ...]
    history: list[tuple[PrimalState, DualState]] | None = None
    stepsize: StepsizeReport | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def problem(self) -> DispatchProblem:
        """The problem the last round stepped on, events applied."""
        return self.phases[-1].problem


# One round of an engine, called as :func:`primal_dual_step`: it runs round
# ``t`` from the prices ``signals`` of the current duals and returns the
# round's five values (:data:`Round`).
Step = Callable[..., Round]


def solve(
    problem: DispatchProblem,
    cfg: SolverConfig,
    x0: PrimalState | None = None,
    y0: DualState | None = None,
    *,
    P0_slack: float | None = None,
    events: tuple = (),
    probes: tuple[int, ...] | None = None,
    step: Step | None = None,
) -> SolveResult:
    """The driver loop of both engines: iterate ``step`` until done.

    Events fire just before the step of their scheduled iteration, so the
    record of that iteration already shows their effect: the loop applies
    each one (:func:`apply_event`; one iteration's in list order, starting a
    :class:`Phase`) and hands ``step`` the changed problem, the only copy of
    the limits either engine reads.  Step norms are measured from the state
    after the event.  Without an explicit ``P0_slack``, the implied slack
    output at the start is recorded and held as the balance target.
    ``probes`` holds one node position per feeder, counted within it
    (:func:`default_probes` when ``None``); ``x0`` and ``y0`` are
    :func:`initial_state`'s when ``None``, and ``step`` is
    :func:`primal_dual_step`.  The caller's ``problem`` is not modified,
    events included.  Raises :class:`ValueError`, before any round, when
    a box of the problem is empty (``lo > hi``) or has a NaN bound, naming
    the first such coordinate of ``z``; :class:`DivergenceError` when the
    state passes the blow-up bound.  Any :class:`EngineError` raised here
    leaves with the records kept so far.
    """
    unboxed = np.flatnonzero(~(problem.lo <= problem.hi))
    if len(unboxed):
        i = int(unboxed[0])
        lo, hi = float(problem.lo[i]), float(problem.hi[i])
        if lo > hi:
            raise ValueError(f"empty box at coordinate {i} of z: lo {lo} > hi {hi}")
        raise ValueError(f"NaN bound at coordinate {i} of z: lo {lo}, hi {hi}")
    report = check_stepsize(problem, cfg.eta)
    if report is not None and cfg.eps > report.eps_bound:
        level = logging.WARNING if cfg.eta > 0 else logging.INFO
        logger.log(
            level,
            "stepsize %.3g exceeds the certified bound %.3g (s=%.3g, l=%.3g)%s",
            cfg.eps,
            report.eps_bound,
            report.s,
            report.l,
            "" if cfg.eta > 0 else " — advisory only at eta=0",
        )

    if step is None:  # read here, not as a default, so a patched one runs
        step = primal_dual_step
    if probes is None:
        probes = default_probes(problem)
    if x0 is None or y0 is None:
        x_init, y_init = initial_state(problem)
        x0 = x_init if x0 is None else x0
        y0 = y_init if y0 is None else y0
    # the round's kernels read float64 arrays in C order
    x = PrimalState(np.ascontiguousarray(x0.z, dtype=np.float64), x0.n_nodes)
    y = DualState(y0.lam, np.ascontiguousarray(y0.mu, dtype=np.float64))
    if len(probes) != len(problem.models) or not all(
        0 <= j < model.n_nodes for model, j in zip(problem.models, probes)
    ):
        raise ValueError(f"probes {probes} do not name one node of each feeder")
    at_probe = np.array(
        [model.span.start + j for model, j in zip(problem.models, probes)],
        dtype=np.intp,
    )
    schedule: dict[int, list] = {}
    for event in events:
        schedule.setdefault(event.iteration, []).append(event)
    last_event = max(schedule, default=0)
    starts = [(0, problem)]
    records = Records(problem.n_generators, len(problem.models))
    try:
        meas = measure(problem, x, feedback=cfg.feedback, iteration=0)
        if P0_slack is None:
            P0_slack = _implied_slack(problem.network, x.P_M, meas.P_L)
        residual = _balance(problem.network, y.lam, meas, x.P_M, P0_slack, cfg.eta)[1]
        signals = der_signals(problem.network, y, cfg.zero_lambda_to_ders)

        iteration_record(
            records, problem, x, y, meas, residual, signals, at_probe, 0.0, 0.0
        )
        history = [(x, y)] if cfg.record_state else None
        warm = meas.v

        status = "not-converged"
        executed = 0
        for t in range(1, cfg.max_iter + 1):
            if t in schedule:
                for event in schedule[t]:
                    problem, x = apply_event(problem, x, event)
                starts.append((t, problem))
            x_new, y_new, meas, residual, signals = step(
                problem, x, y, P0_slack, cfg, t, warm, signals
            )
            step_primal, step_dual, worst = _step_norms(x_new, x, y_new, y, cfg.eps)
            x, y = x_new, y_new
            warm = meas.v
            executed = t

            bound = cfg.divergence_limit
            if not math.isfinite(worst) or worst > bound:
                raise DivergenceError(
                    f"state norm {worst:.3g} exceeded the blow-up bound {bound:.3g} "
                    f"at iteration {t}; reduce the stepsize",
                    iteration=t,
                )

            iteration_record(
                records,
                problem,
                x,
                y,
                meas,
                residual,
                signals,
                at_probe,
                step_primal,
                step_dual,
            )
            if history is not None:
                history.append((x, y))

            # never stop while scheduled events are still ahead: the run must
            # reach and absorb every perturbation before it can count as done
            if (
                step_primal < cfg.tol
                and step_dual < cfg.tol
                and abs(residual) < cfg.tol
                and t >= last_event
            ):
                status = "converged"
                break
    except EngineError as exc:
        exc.records = records
        raise

    lasts = [first - 1 for first, _ in starts[1:]] + [executed]
    return SolveResult(
        status=status,
        iterations=executed,
        x=x,
        y=y,
        records=records,
        P0_slack=P0_slack,
        phases=tuple(Phase(f, last, p) for (f, p), last in zip(starts, lasts)),
        history=history,
        stepsize=report,
    )


def _step_norms(
    x_new: PrimalState, x: PrimalState, y_new: DualState, y: DualState, eps: float
) -> tuple[float, float, float]:
    """A round's primal and dual step norms, each over ``eps``, and the
    new state's norm, which the divergence guard reads: one kernel call
    (``tdcoopt_step_norms``) for the three, or this numpy reference."""
    kernels = _native.library()
    if kernels is not None:
        return kernels.step_norms(x_new.z, x.z, y_new.mu, y.mu, y_new.lam, y.lam, eps)
    # np.maximum, not max(): a NaN on either side is the result
    step_primal = _max_abs_diff(x_new.z, x.z) / eps
    step_dual = float(np.maximum(abs(y_new.lam - y.lam), _max_abs_diff(y_new.mu, y.mu)))
    state = float(np.maximum(_max_abs(x_new.z), abs(y_new.lam)))
    return step_primal, step_dual / eps, state


# ``np.maximum.reduce`` and ``np.add.reduce`` (:func:`_implied_slack`) are the
# reductions ``.max()`` and ``np.sum`` run, without their wrappers
def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(a - b))) if len(a) else 0.0


def _max_abs(a: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(a))) if len(a) else 0.0
