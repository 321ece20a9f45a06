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

Each iteration is one synchronous round: DERs and generators move first
(using the prices of the previous round), the network response at the new
setpoints is then measured — either through the affine model or through an
exact power-flow sweep — and the dual variables move last, consuming that
measurement.  One driver loop, :func:`run_rounds`, serves both engines:
it takes the starting measurement and slack record, fires events,
measures step norms, guards against divergence, keeps the records, and
applies the stopping rule.  An engine supplies only its round — here
:func:`primal_dual_step`; the market engine routes the same arithmetic
(:func:`der_signals`, :func:`dual_update`) as messages between agents.

:func:`build_problem` compiles each feeder once, and the round runs on
flat global vectors: primal ``p``/``q``, voltages and price vectors span
every feeder node in the coupled system's order (nodes without a DER are
pinned by ``[0, 0]`` boxes), and ``mu`` holds the upper-band multipliers
of all nodes, then the lower-band ones.  Only the per-feeder matvec or
sweep, writing into the feeder's slice, and the per-feeder trace cells
loop over feeders.  The sign convention makes the converged price
``lambda`` negative when extra generation is needed: the stationarity
condition for each generator is ``2 c P + lambda = 0``.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .acpf import (
    SlackAccount,
    SweepDivergence,
    fixed_injection,
    record_slack,
    slack_residual,
    sweep_feeder,
)
from .lindistflow import LinearFeederModel, build_lindistflow, predict
from .network import CaseError, CoupledSystem, VoltageLimits
from .trace import TraceRecord

__all__ = [
    "EngineError",
    "DivergenceError",
    "StaleFeedbackError",
    "PrimalState",
    "DualState",
    "SolverConfig",
    "DispatchProblem",
    "build_problem",
    "initial_state",
    "project_box",
    "Measurement",
    "measure",
    "measure_feeders",
    "der_signals",
    "dual_update",
    "eval_lagrangian",
    "grad_primal",
    "grad_dual",
    "total_cost",
    "check_stepsize",
    "StepsizeReport",
    "GeneratorOutage",
    "DerCapacityScale",
    "apply_event",
    "primal_dual_step",
    "StepOutcome",
    "default_probes",
    "iteration_record",
    "run_rounds",
    "solve",
    "SolveResult",
]

logger = logging.getLogger(__name__)


class EngineError(RuntimeError):
    """Engine failure carrying the iteration it happened at.

    A failure inside :func:`run_rounds` also carries ``records``, the
    trace rows of the iterations completed before it.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.records: list[TraceRecord] | None = None


class DivergenceError(EngineError):
    """State exceeded the blow-up bound: the stepsize is too large."""


class StaleFeedbackError(EngineError):
    """An AC measurement tagged with a different iteration was supplied."""


# ---------------------------------------------------------------------------
# states and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalState:
    """All primal decisions: DER injections (global) and generator outputs."""

    p: np.ndarray  # real DER injections, one entry per feeder node
    q: np.ndarray  # reactive DER injections
    P_M: np.ndarray  # generator outputs


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
    """Stepsize, regularization, stopping rules, and feedback source.

    The run stops once all three normalized residuals are below their
    tolerances: primal and dual step infinity-norms divided by the
    stepsize, and the absolute balance residual.
    """

    eps: float = 5e-4
    eta: float = 0.0
    max_iter: int = 20000
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    tol_balance: float = 1e-6
    feedback: str = "linear"  # "linear" | "ac"
    zero_lambda_to_ders: bool = False  # baseline: hide the price from DERs
    divergence_limit: float = 1e6
    record_state: bool = False  # keep the full (x, y) trajectory

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.feedback not in ("linear", "ac"):
            raise ValueError(f"unknown feedback mode {self.feedback!r}")


# ---------------------------------------------------------------------------
# the assembled problem
# ---------------------------------------------------------------------------

@dataclass
class DispatchProblem:
    """A coupled system compiled into flat arrays for the iteration.

    The boxes are the limits at the start of a run; an event yields a
    modified copy (:func:`apply_event`) and never edits them in place.
    All vectors over feeder nodes use the coupled system's global node
    ordering; ``models[k].span`` is feeder k's slice of them.
    """

    system: CoupledSystem
    limits: VoltageLimits
    models: tuple[LinearFeederModel, ...]  # each feeder, compiled once
    fixed_injection: float  # summed fixed bus injections, slack bus excluded
    # generators
    gen_bus: np.ndarray  # bus id per generator
    gen_coef: np.ndarray  # quadratic cost coefficients
    gen_lo: np.ndarray
    gen_hi: np.ndarray
    # DERs, expanded over all feeder nodes (zeros where no DER)
    a_p: np.ndarray
    a_q: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.system.n_total

    @property
    def n_generators(self) -> int:
        return len(self.gen_coef)


def build_problem(system: CoupledSystem, limits: VoltageLimits) -> DispatchProblem:
    """Compile a coupled system into the flat-array problem form.

    This is the one place a feeder is compiled (:func:`build_lindistflow`).
    Every cost coefficient must be positive: the costs must be strongly
    convex for the stepsize certificate, and ``a_p`` is zero exactly
    where no DER sits.
    """
    models = tuple(
        build_lindistflow(f, offset)
        for f, offset in zip(system.feeders, system.offsets)
    )
    N = system.n_total

    gens = system.transmission.generators
    for g in gens:
        if g.cost_coefficient <= 0:
            raise CaseError(
                f"generator@{g.bus_id}: cost coefficient must be positive, "
                f"got {g.cost_coefficient}",
                element=f"generator@{g.bus_id}",
            )
    gen_bus = np.array([g.bus_id for g in gens], dtype=int)
    gen_coef = np.array([g.cost_coefficient for g in gens])
    gen_lo = np.array([g.p_min if g.online else 0.0 for g in gens])
    gen_hi = np.array([g.p_max if g.online else 0.0 for g in gens])

    a_p = np.zeros(N)
    a_q = np.zeros(N)
    p_lo = np.zeros(N)
    p_hi = np.zeros(N)
    q_lo = np.zeros(N)
    q_hi = np.zeros(N)
    for k, feeder in enumerate(system.feeders):
        index = feeder.node_index()
        seen: set[int] = set()
        for der in feeder.ders:
            if der.node_id in seen:
                raise CaseError(
                    f"feeder {feeder.feeder_id}: two DERs on node {der.node_id}",
                    element=f"der@{der.node_id}",
                )
            if der.a_p <= 0 or der.a_q <= 0:
                tag = f"der@{feeder.feeder_id}:{der.node_id}"
                raise CaseError(
                    f"{tag}: cost coefficients must be positive, got "
                    f"a_p={der.a_p}, a_q={der.a_q}",
                    element=tag,
                )
            seen.add(der.node_id)
            g = system.global_index(k, index[der.node_id])
            a_p[g] = der.a_p
            a_q[g] = der.a_q
            p_lo[g], p_hi[g], q_lo[g], q_hi[g] = der.box()

    return DispatchProblem(
        system=system,
        limits=limits,
        models=models,
        fixed_injection=fixed_injection(system.transmission),
        gen_bus=gen_bus,
        gen_coef=gen_coef,
        gen_lo=gen_lo,
        gen_hi=gen_hi,
        a_p=a_p,
        a_q=a_q,
        p_lo=p_lo,
        p_hi=p_hi,
        q_lo=q_lo,
        q_hi=q_hi,
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
    gens = problem.system.transmission.generators
    if P_M is not None:
        P = np.clip(np.asarray(P_M, dtype=float), problem.gen_lo, problem.gen_hi)
    elif mode == "midbox":
        mid = 0.5 * (problem.gen_lo + problem.gen_hi)
        P = np.where(np.isfinite(mid), mid, 0.0)
        P = np.clip(P, problem.gen_lo, problem.gen_hi)
    elif mode == "setpoint":
        P = np.clip(
            np.array([g.setpoint_initial for g in gens]),
            problem.gen_lo,
            problem.gen_hi,
        )
    elif mode == "random":
        if rng is None:
            raise ValueError("mode='random' requires an rng")
        if not (
            np.all(np.isfinite(problem.gen_lo))
            and np.all(np.isfinite(problem.gen_hi))
        ):
            raise ValueError("mode='random' requires finite generator boxes")
        P = rng.uniform(problem.gen_lo, problem.gen_hi)
    else:
        raise ValueError(f"unknown init mode {mode!r}")

    N = problem.n_nodes
    p = np.clip(np.zeros(N), problem.p_lo, problem.p_hi)
    q = np.clip(np.zeros(N), problem.q_lo, problem.q_hi)
    x = PrimalState(p=p, q=q, P_M=P)
    return x, DualState(lam=0.0, mu=np.zeros(2 * N))


def project_box(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into ``[lo, hi]``; idempotent and nonexpansive."""
    if lo > hi:
        raise ValueError(f"empty box: lo {lo} > hi {hi}")
    return min(max(value, lo), hi)


# ---------------------------------------------------------------------------
# network feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measurement:
    """Network response at one primal state: node voltages and head draws.

    ``v`` spans all feeder nodes in global order; ``P_L`` has one entry
    per feeder.  ``tag`` identifies the iteration the snapshot belongs
    to; :func:`grad_dual` refuses AC snapshots tagged with a different
    iteration.
    """

    v: np.ndarray
    P_L: np.ndarray
    tag: int | None
    source: str  # "linear" | "ac"
    ac_iterations: int = 0
    ac_residual: float = 0.0


def measure_feeders(
    models: tuple[LinearFeederModel, ...],
    p: np.ndarray,
    q: np.ndarray,
    feedback: str = "linear",
    warm: np.ndarray | None = None,
    tag: int | None = None,
) -> Measurement:
    """Voltages and head draws for global injection vectors ``p``, ``q``.

    ``linear`` evaluates the affine models; ``ac`` runs the exact sweep
    (optionally warm-started from the ``warm`` voltages).  Needs only the
    compiled feeder models, so the market operator can call it.  A failed
    sweep raises :class:`EngineError` carrying ``tag`` as its iteration.
    """
    if feedback not in ("linear", "ac"):
        raise ValueError(f"unknown feedback mode {feedback!r}")
    v = np.empty(len(p))
    P_L = np.zeros(len(models))
    ac_iterations = 0
    ac_residual = 0.0
    for k, model in enumerate(models):
        sl = model.span
        if feedback == "linear":
            v[sl], P_L[k] = predict(model, p[sl], q[sl])
            continue
        try:
            res = sweep_feeder(
                model, p[sl], q[sl], v_init=None if warm is None else warm[sl]
            )
        except SweepDivergence as exc:
            raise EngineError(
                f"power flow failed at iteration {tag}: {exc}", iteration=tag
            ) from exc
        v[sl] = res.v
        P_L[k] = res.P_L
        ac_iterations = max(ac_iterations, res.iterations)
        ac_residual = max(ac_residual, res.residual)
    return Measurement(
        v=v,
        P_L=P_L,
        tag=tag,
        source=feedback,
        ac_iterations=ac_iterations,
        ac_residual=ac_residual,
    )


def measure(
    problem: DispatchProblem,
    x: PrimalState,
    feedback: str = "linear",
    warm: np.ndarray | None = None,
    tag: int | None = None,
) -> Measurement:
    """Feeder voltages and head draws at the setpoints of ``x``."""
    return measure_feeders(
        problem.models, x.p, x.q, feedback=feedback, warm=warm, tag=tag
    )


# ---------------------------------------------------------------------------
# shared round pieces (used verbatim by the market engine)
# ---------------------------------------------------------------------------

Signals = tuple[np.ndarray, np.ndarray]  # the price vectors (alpha, beta)


def der_signals(
    models: tuple[LinearFeederModel, ...],
    y: DualState,
    zero_lambda: bool = False,
) -> Signals:
    """Price vectors (alpha, beta) over all feeder nodes for the DER updates.

    On feeder k, ``alpha = lambda + A_k' (mu_upper - mu_lower)`` (a unit
    of local injection displaces a unit of head draw) and
    ``beta = B_k' (mu_upper - mu_lower)`` (reactive injections leave the
    head draw alone).  With ``zero_lambda`` the balance price is hidden
    from the DERs (voltage terms remain) — the no-participation baseline.
    """
    lam = 0.0 if zero_lambda else y.lam
    n = len(y.mu) // 2
    w = y.mu[:n] - y.mu[n:]
    alpha = np.empty(n)
    beta = np.empty(n)
    # per feeder, not one block-diagonal product: that would change the
    # rounding of the sums
    for model in models:
        sl = model.span
        alpha[sl] = lam + model.A.T @ w[sl]
        beta[sl] = model.B.T @ w[sl]
    return alpha, beta


def _band_violation(limits: VoltageLimits, v: np.ndarray) -> np.ndarray:
    """Constraint values ``g(v)``: upper-band rows, then lower-band rows."""
    return np.concatenate([v - limits.v_max, limits.v_min - v])


def _dual_gradient(
    fixed: float,
    limits: VoltageLimits,
    y: DualState,
    measurement: Measurement,
    P_M: np.ndarray,
    account: SlackAccount,
    eta: float,
) -> tuple[float, np.ndarray, float]:
    """Partial gradients of L in (lambda, mu) at a measurement.

    Returns ``(dlam, dmu, residual)``, where ``residual`` is the balance
    residual in ``dlam`` (``fixed`` is the summed fixed bus injection, see
    :func:`~tdcoopt.acpf.slack_residual`).  The one copy of the dual
    gradient: :func:`dual_update` steps along it, :func:`grad_dual`
    returns it.
    """
    dmu = _band_violation(limits, measurement.v) - eta * y.mu
    residual = slack_residual(account, fixed, P_M, measurement.P_L)
    return residual - eta * y.lam, dmu, residual


def dual_update(
    fixed: float,
    limits: VoltageLimits,
    y: DualState,
    measurement: Measurement,
    P_M: np.ndarray,
    account: SlackAccount,
    eps: float,
    eta: float,
) -> tuple[DualState, float]:
    """Projected dual ascent step consuming a network measurement.

    Multipliers rise with the measured constraint violations; the price
    integrates the balance residual.  Returns the new duals and the
    residual that drove the price.
    """
    dlam, dmu, residual = _dual_gradient(
        fixed, limits, y, measurement, P_M, account, eta
    )
    mu_new = np.maximum(y.mu + eps * dmu, 0.0)
    return DualState(lam=y.lam + eps * dlam, mu=mu_new), residual


# ---------------------------------------------------------------------------
# Lagrangian and gradients
# ---------------------------------------------------------------------------

# the balance target when no slack account is given
_ZERO_SLACK = SlackAccount(P0_slack=0.0)


def total_cost(problem: DispatchProblem, x: PrimalState) -> float:
    """Generation cost plus DER cost at the given primal state."""
    return float(
        np.sum(problem.gen_coef * x.P_M * x.P_M)
        + np.sum(problem.a_p * x.p * x.p)
        + np.sum(problem.a_q * x.q * x.q)
    )


def eval_lagrangian(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    account: SlackAccount = _ZERO_SLACK,
    eta: float = 0.0,
) -> float:
    """The regularized Lagrangian, with the affine feeder model throughout."""
    meas = measure(problem, x, feedback="linear")
    value = total_cost(problem, x)
    value += float(y.mu @ _band_violation(problem.limits, meas.v))
    value += y.lam * slack_residual(
        account, problem.fixed_injection, x.P_M, meas.P_L
    )
    if eta:
        value -= 0.5 * eta * (y.lam * y.lam + float(y.mu @ y.mu))
    return value


def grad_primal(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    signals: Signals | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial gradients of L in the primal blocks (p, q, P_M).

    Composed exactly as the decentralized agents compute them: private
    cost gradient plus the received price vector.  ``signals`` are the
    round's price vectors (:func:`der_signals`) when already computed;
    by default they are those of ``y`` with the balance price shown to
    the DERs.
    """
    alpha, beta = der_signals(problem.models, y) if signals is None else signals
    dp = 2.0 * problem.a_p * x.p + alpha
    dq = 2.0 * problem.a_q * x.q + beta
    dP = 2.0 * problem.gen_coef * x.P_M + y.lam
    return dp, dq, dP


def grad_dual(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    account: SlackAccount = _ZERO_SLACK,
    eta: float = 0.0,
    feedback: str = "linear",
    measurement: Measurement | None = None,
    iteration: int | None = None,
) -> tuple[float, np.ndarray]:
    """Partial gradients of L in (lambda, mu), from the chosen feedback.

    With ``feedback='ac'`` a fresh measurement must be supplied; one
    tagged with a different iteration raises :class:`StaleFeedbackError`.
    """
    if feedback == "ac":
        if measurement is None:
            raise StaleFeedbackError("ac feedback requires a measurement")
        if iteration is not None and measurement.tag != iteration:
            raise StaleFeedbackError(
                f"measurement tagged {measurement.tag}, expected {iteration}",
                iteration=iteration,
            )
    elif measurement is None:
        measurement = measure(problem, x, feedback="linear", tag=iteration)

    dlam, dmu, _ = _dual_gradient(
        problem.fixed_injection, problem.limits, y, measurement, x.P_M,
        account, eta,
    )
    return dlam, dmu


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

    ``s`` is the smallest cost curvature: ``2 c`` over the generators and
    ``2 a_p``, ``2 a_q`` over the DERs (and ``eta`` when positive); a
    problem with neither generators nor DERs has none, and gets ``None``.
    ``l`` is the spectral norm of the primal-dual operator
    ``F = [[H, C], [-C', eta I]]``, where ``H`` is the diagonal cost
    curvature and ``C`` couples the primal blocks (p, q, P_M) to the
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
    xdim = 2 * N + problem.n_generators
    dim = xdim + 2 * N + 1
    models = problem.models
    curvature = np.concatenate(
        [2.0 * problem.a_p, 2.0 * problem.a_q, 2.0 * problem.gen_coef]
    )
    # build_problem leaves a_p zero exactly where no DER sits
    der = problem.a_p > 0
    has_cost = np.concatenate([der, der, np.ones(problem.n_generators, bool)])
    moduli = curvature[has_cost]
    if not moduli.size:
        return None
    s = float(np.min(moduli))
    if eta > 0:
        s = min(s, eta)

    def couple(y: np.ndarray) -> np.ndarray:
        """``C y``: y holds upper-band mu, lower-band mu, then lambda."""
        w = y[:N] - y[N : 2 * N]
        lam = y[-1]
        out = np.empty(xdim)
        for model in models:
            sl = model.span
            out[sl] = model.A @ w[sl] + lam
            out[N + sl.start : N + sl.stop] = model.B @ w[sl]
        out[2 * N :] = lam
        return out

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
            head -= float(np.ones(model.n_nodes) @ p[sl])
        out[-1] = float(np.sum(x[2 * N :])) - head
        return out

    def gram(z: np.ndarray) -> np.ndarray:
        """``F' F z``."""
        x, y = z[:xdim], z[xdim:]
        fx = curvature * x + couple(y)
        fy = eta * y - couple_t(x)
        return np.concatenate([curvature * fx - couple(fy), couple_t(fx) + eta * fy])

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

@dataclass(frozen=True)
class GeneratorOutage:
    """Generator at ``bus_id`` trips at ``iteration``: output pinned to 0."""

    iteration: int
    bus_id: int


@dataclass(frozen=True)
class DerCapacityScale:
    """All DER boxes rescaled by ``factor`` at ``iteration``."""

    iteration: int
    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError(f"scale factor must be positive, got {self.factor}")


def apply_event(
    problem: DispatchProblem, x: PrimalState, event
) -> tuple[DispatchProblem, PrimalState]:
    """The problem with the event's limits, and ``x`` re-projected into them.

    Returns a copy; the caller's problem is left untouched.  This is the
    one place an event acts: both engines step on the returned problem.
    """
    if isinstance(event, GeneratorOutage):
        hits = np.flatnonzero(problem.gen_bus == event.bus_id)
        if len(hits) == 0:
            raise EngineError(
                f"outage targets bus {event.bus_id}, which hosts no generator",
                iteration=event.iteration,
            )
        tripped = int(hits[0])
        gen_lo = problem.gen_lo.copy()
        gen_hi = problem.gen_hi.copy()
        gen_lo[tripped] = 0.0
        gen_hi[tripped] = 0.0
        P = x.P_M.copy()
        P[tripped] = 0.0
        return replace(problem, gen_lo=gen_lo, gen_hi=gen_hi), replace(x, P_M=P)
    if not isinstance(event, DerCapacityScale):
        raise EngineError(f"unknown event type {type(event).__name__}")
    factor = event.factor
    problem = replace(
        problem,
        p_lo=problem.p_lo * factor,
        p_hi=problem.p_hi * factor,
        q_lo=problem.q_lo * factor,
        q_hi=problem.q_hi * factor,
    )
    return problem, replace(
        x,
        p=np.clip(x.p, problem.p_lo, problem.p_hi),
        q=np.clip(x.q, problem.q_lo, problem.q_hi),
    )


# ---------------------------------------------------------------------------
# one round, and the full iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepOutcome:
    """Everything produced by one primal-dual round."""

    x: PrimalState
    y: DualState
    measurement: Measurement
    balance_residual: float


def primal_dual_step(
    problem: DispatchProblem,
    x: PrimalState,
    y: DualState,
    account: SlackAccount,
    cfg: SolverConfig,
    iteration: int | None = None,
    warm: np.ndarray | None = None,
    signals: Signals | None = None,
) -> StepOutcome:
    """One synchronous round: primal moves, network response, dual moves.

    The primal blocks step along :func:`grad_primal` and the duals along
    the gradient :func:`grad_dual` returns, each projected.  ``signals``
    may carry the already-computed price vectors for the current duals
    (they are recomputed otherwise).
    """
    if signals is None:
        signals = der_signals(problem.models, y, cfg.zero_lambda_to_ders)
    eps = cfg.eps

    dp, dq, dP = grad_primal(problem, x, y, signals)
    x_new = PrimalState(
        p=np.clip(x.p - eps * dp, problem.p_lo, problem.p_hi),
        q=np.clip(x.q - eps * dq, problem.q_lo, problem.q_hi),
        P_M=np.clip(x.P_M - eps * dP, problem.gen_lo, problem.gen_hi),
    )

    meas = measure(problem, x_new, feedback=cfg.feedback, warm=warm, tag=iteration)
    y_new, residual = dual_update(
        problem.fixed_injection,
        problem.limits,
        y,
        meas,
        x_new.P_M,
        account,
        eps,
        cfg.eta,
    )

    return StepOutcome(x=x_new, y=y_new, measurement=meas, balance_residual=residual)


# ---------------------------------------------------------------------------
# trace plumbing shared by both engines
# ---------------------------------------------------------------------------

def default_probes(problem: DispatchProblem) -> tuple[int, ...]:
    """One probe node per feeder: the node of largest path impedance."""
    probes = []
    for model in problem.models:
        topo = model.topology
        depth = [0.0] * model.n_nodes
        best, best_depth = 0, -1.0
        for j in topo.order:
            parent_depth = depth[topo.parent[j]] if topo.parent[j] >= 0 else 0.0
            depth[j] = parent_depth + math.hypot(topo.r[j], topo.x[j])
            if depth[j] > best_depth:
                best, best_depth = j, depth[j]
        probes.append(best)
    return tuple(probes)


def iteration_record(
    problem: DispatchProblem,
    iteration: int,
    x: PrimalState,
    y: DualState,
    measurement: Measurement,
    balance_residual: float,
    signals: Signals,
    probes: tuple[int, ...],
    step_primal: float | None,
    step_dual: float | None,
) -> TraceRecord:
    """Assemble the per-iteration diagnostics row.

    ``probes`` holds one node position per feeder, counted within it.
    """
    alpha, beta = signals
    v = measurement.v
    spans = [model.span for model in problem.models]
    at_probe = [sl.start + j for sl, j in zip(spans, probes)]
    return TraceRecord(
        iteration=iteration,
        lam=y.lam,
        P_M=tuple(float(P) for P in x.P_M),
        P_L=tuple(float(P) for P in measurement.P_L),
        v_min=tuple(float(np.min(v[sl])) for sl in spans),
        v_max=tuple(float(np.max(v[sl])) for sl in spans),
        slack_residual=balance_residual,
        total_cost=total_cost(problem, x),
        alpha_probe=tuple(float(alpha[i]) for i in at_probe),
        beta_probe=tuple(float(beta[i]) for i in at_probe),
        step_primal=step_primal,
        step_dual=step_dual,
    )


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    """Final states, per-iteration records, and the stopping status.

    ``stepsize`` is the run's certificate (:func:`check_stepsize`), or
    ``None`` when the problem has neither generators nor DERs.
    """

    status: str  # "converged" | "not-converged"
    iterations: int  # steps actually executed
    x: PrimalState
    y: DualState
    records: list[TraceRecord]
    account: SlackAccount
    history: list[tuple[PrimalState, DualState]] | None = None
    stepsize: StepsizeReport | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# One round of an engine: ``step(problem, x, y, account, t, warm, signals)``
# runs round ``t`` from the price vectors ``signals`` of the current duals
# and returns its outcome plus the price vectors of the new duals.
Step = Callable[..., tuple[StepOutcome, Signals]]


def run_rounds(
    problem: DispatchProblem,
    cfg: SolverConfig,
    x: PrimalState,
    y: DualState,
    account: SlackAccount | None,
    events: tuple,
    probes: tuple[int, ...],
    step: Step,
) -> SolveResult:
    """The driver loop of both engines: iterate ``step`` until done.

    Events fire just before the step of their scheduled iteration, so the
    record of that iteration already shows their effect: the loop applies
    each one (:func:`apply_event`) and hands ``step`` the changed problem,
    the only copy of the limits either engine reads.  Step norms are
    measured from the state after the event.  Without an explicit slack
    account, the implied slack output at the start is recorded and held
    as the balance target.  Raises :class:`DivergenceError` when the state passes the
    blow-up bound; any :class:`EngineError` raised here leaves with the
    records kept so far.
    """
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

    records: list[TraceRecord] = []
    try:
        meas = measure(problem, x, feedback=cfg.feedback, tag=0)
        fixed = problem.fixed_injection
        if account is None:
            account = record_slack(fixed, x.P_M, meas.P_L)
        residual = slack_residual(account, fixed, x.P_M, meas.P_L)
        signals = der_signals(problem.models, y, cfg.zero_lambda_to_ders)

        records.append(
            iteration_record(
                problem, 0, x, y, meas, residual, signals, probes, None, None
            )
        )
        history = [(x, y)] if cfg.record_state else None
        warm = meas.v

        status = "not-converged"
        executed = 0
        for t in range(1, cfg.max_iter + 1):
            for event in events:
                if event.iteration == t:
                    problem, x = apply_event(problem, x, event)
            outcome, signals = step(problem, x, y, account, t, warm, signals)

            step_primal = max(
                _inf_diff(outcome.x.p, x.p),
                _inf_diff(outcome.x.q, x.q),
                _inf_diff(outcome.x.P_M, x.P_M),
            ) / cfg.eps
            step_dual = max(
                abs(outcome.y.lam - y.lam), _inf_diff(outcome.y.mu, y.mu)
            ) / cfg.eps

            x, y = outcome.x, outcome.y
            warm = outcome.measurement.v
            executed = t

            bound = cfg.divergence_limit
            worst = max(
                _inf_norm(x.p), _inf_norm(x.q), _inf_norm(x.P_M), abs(y.lam)
            )
            if not math.isfinite(worst) or worst > bound:
                raise DivergenceError(
                    f"state norm {worst:.3g} exceeded the blow-up bound {bound:.3g} "
                    f"at iteration {t}; reduce the stepsize",
                    iteration=t,
                )

            records.append(
                iteration_record(
                    problem,
                    t,
                    x,
                    y,
                    outcome.measurement,
                    outcome.balance_residual,
                    signals,
                    probes,
                    step_primal,
                    step_dual,
                )
            )
            if history is not None:
                history.append((x, y))

            # never stop while scheduled events are still ahead: the run must
            # reach and absorb every perturbation before it can count as done
            if (
                step_primal < cfg.tol_primal
                and step_dual < cfg.tol_dual
                and abs(outcome.balance_residual) < cfg.tol_balance
                and all(event.iteration <= t for event in events)
            ):
                status = "converged"
                break
    except EngineError as exc:
        exc.records = records
        raise

    return SolveResult(
        status=status,
        iterations=executed,
        x=x,
        y=y,
        records=records,
        account=account,
        history=history,
        stepsize=report,
    )


def solve(
    problem: DispatchProblem,
    cfg: SolverConfig,
    x0: PrimalState | None = None,
    y0: DualState | None = None,
    account: SlackAccount | None = None,
    events: tuple = (),
    probes: tuple[int, ...] | None = None,
) -> SolveResult:
    """Iterate :func:`primal_dual_step` rounds (see :func:`run_rounds`).

    The caller's ``problem`` is not modified, events included.
    """
    x_init, y_init = initial_state(problem)
    x = x_init if x0 is None else x0
    y = y_init if y0 is None else y0
    if probes is None:
        probes = default_probes(problem)

    def step(problem, x, y, account, t, warm, signals):
        outcome = primal_dual_step(
            problem, x, y, account, cfg, iteration=t, warm=warm, signals=signals
        )
        return outcome, der_signals(problem.models, outcome.y, cfg.zero_lambda_to_ders)

    return run_rounds(problem, cfg, x, y, account, events, probes, step)


def _inf_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if len(a) else 0.0


def _inf_norm(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if len(a) else 0.0
