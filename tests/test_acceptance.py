"""Release gate: nine go/no-go checks with frozen tolerances.

Each test prints exactly one verdict line (surfaced by ``-rP``)::

    ACCEPTANCE CRITERION <n> [<label>]: PASS/FAIL - <measured detail>

A FAIL here means the build does not meet its contract; the tolerances
are pinned on purpose and must not be loosened to make a run green.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from tdcoopt.acpf import sweep_feeder
from tdcoopt.core import (
    DivergenceError,
    DualState,
    PrimalState,
    SolverConfig,
    build_problem,
    check_stepsize,
    eval_lagrangian,
    grad_dual,
    grad_primal,
    initial_state,
    measure,
    solve,
)
from tdcoopt.lindistflow import build_lindistflow, predict
from tdcoopt.network import (
    VoltageLimits,
    attach_feeders,
    parse_case,
)
from tdcoopt.scenario import (
    compare_runs,
    load_scenario,
    probe_oracle,
    run_scenario,
    run_scenario_in_memory,
)

from conftest import (
    CASES_DIR, SCENARIOS_DIR, make_chain_feeder, make_ts, primal,
    random_small_instance,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {num} [{label}]: {state} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients against central finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    feeder_a = make_chain_feeder(
        "grad-a",
        n_nodes=4,
        der_nodes={
            3: dict(a_p=0.7, a_q=0.12, p_min=0.0, p_max=0.04,
                    q_min=-0.015, q_max=0.015),
            5: dict(a_p=1.3, a_q=0.08, p_min=0.0, p_max=0.03,
                    q_min=-0.01, q_max=0.01),
        },
        host_bus=7,
    )
    feeder_b = make_chain_feeder(
        "grad-b",
        n_nodes=3,
        der_nodes={
            2: dict(a_p=0.9, a_q=0.2, p_min=0.0, p_max=0.05,
                    q_min=-0.02, q_max=0.02),
            4: dict(a_p=1.1, a_q=0.15, p_min=0.0, p_max=0.02,
                    q_min=-0.008, q_max=0.008),
        },
        host_bus=8,
    )
    ts = make_ts(
        [(1, 0.8), (2, 1.4), (6, 1.1)],
        load_bus=5,
        load=2.4,
        slack_bus=9,
        extra_buses=(7, 8),
    )
    system = attach_feeders(ts, [feeder_a, feeder_b])
    problem = build_problem(system, VoltageLimits(0.95, 1.05))
    P0_slack = 0.3
    eta = 0.07
    h = 1e-6
    n_states = 120
    n_nodes = problem.n_nodes
    n_gens = problem.n_generators
    p_box = problem.lo[:n_nodes], problem.hi[:n_nodes]
    q_box = problem.lo[n_nodes : 2 * n_nodes], problem.hi[n_nodes : 2 * n_nodes]

    worst = 0.0
    for _ in range(n_states):
        x = primal(
            rng.uniform(*p_box),
            rng.uniform(*q_box),
            rng.uniform(0.0, 3.0, n_gens),
        )
        y = DualState(
            lam=rng.uniform(-5.0, 5.0),
            mu=rng.uniform(0.0, 2.0, 2 * n_nodes),
        )
        d_x = np.concatenate(
            [
                rng.normal(size=n_nodes),
                rng.normal(size=n_nodes),
                rng.normal(size=n_gens),
            ]
        )
        d_lam = rng.normal()
        d_mu = rng.normal(size=2 * n_nodes)

        dx = grad_primal(problem, x, y)
        dlam, dmu = grad_dual(problem, x, y, P0_slack=P0_slack, eta=eta)
        analytic = float(dx @ d_x) + dlam * d_lam + float(dmu @ d_mu)

        def shifted(sign: float):
            xs = PrimalState(x.z + sign * h * d_x, n_nodes)
            ys = DualState(
                lam=y.lam + sign * h * d_lam,
                mu=y.mu + sign * h * d_mu,
            )
            return eval_lagrangian(problem, xs, ys, P0_slack=P0_slack, eta=eta)

        fd = (shifted(+1.0) - shifted(-1.0)) / (2.0 * h)
        rel = abs(fd - analytic) / max(1.0, abs(analytic))
        worst = max(worst, rel)

    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 10.0
    _verdict(
        1,
        "analytic-vs-fd-gradients",
        ok,
        f"max rel err {worst:.3e} over {n_states} states (tol 1e-6), "
        f"{dt:.1f}s (budget 10s)",
    )
    assert worst < 1e-6
    assert dt < 10.0


# ---------------------------------------------------------------------------
# criterion 2: nine-generator dispatch against the closed form
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_dispatch():
    t0 = time.perf_counter()
    sc = load_scenario(SCENARIOS_DIR / "dispatch9.json")
    res = run_scenario_in_memory(sc)
    ts = sc.system.transmission
    c = np.array([g.cost_coefficient for g in ts.generators])
    demand = -sum(b.p0 for b in ts.buses if b.id != ts.slack_bus_id)
    # equal marginal prices 2 c_k P_k across generators split the demand
    # in proportion to 1/c_k
    P_star = demand * (1.0 / c) / np.sum(1.0 / c)
    dev = float(np.max(np.abs(res.x.P_M - P_star)))
    residual = abs(float(np.sum(res.x.P_M)) - demand)
    dt = time.perf_counter() - t0
    ok = (
        res.status == "converged"
        and dev < 1e-6
        and residual < 1e-8
        and dt < 5.0
    )
    _verdict(
        2,
        "closed-form-dispatch",
        ok,
        f"status {res.status} after {res.iterations} iterations, "
        f"max |P - P*| {dev:.3e} (tol 1e-6), balance {residual:.3e} "
        f"(tol 1e-8), {dt:.1f}s (budget 5s)",
    )
    assert res.status == "converged"
    assert dev < 1e-6
    assert residual < 1e-8
    assert dt < 5.0


# ---------------------------------------------------------------------------
# criterion 3: message-passing engine reproduces the monolithic trajectory
# ---------------------------------------------------------------------------

def test_criterion_3_engine_equivalence():
    t0 = time.perf_counter()
    sc = load_scenario(SCENARIOS_DIR / "default.json")
    cfg = dataclasses.replace(
        sc.config,
        max_iter=1000,
        tol=0.0,
        record_state=True,
    )
    run_core = run_scenario_in_memory(
        dataclasses.replace(sc, config=cfg, engine="core")
    )
    run_market = run_scenario_in_memory(
        dataclasses.replace(sc, config=cfg, engine="market")
    )
    dev = 0.0
    for (xa, ya), (xb, yb) in zip(run_core.history, run_market.history):
        dev = max(
            dev,
            float(np.max(np.abs(xa.p - xb.p))),
            float(np.max(np.abs(xa.q - xb.q))),
            float(np.max(np.abs(xa.P_M - xb.P_M))),
            abs(ya.lam - yb.lam),
            float(np.max(np.abs(ya.mu - yb.mu))),
        )
    dt = time.perf_counter() - t0
    ok = len(run_core.history) == 1001 and dev < 1e-12 and dt < 30.0
    _verdict(
        3,
        "engine-equivalence",
        ok,
        f"max coordinate deviation {dev:.3e} over 1000 iterations "
        f"(tol 1e-12), {dt:.1f}s (budget 30s)",
    )
    assert len(run_core.history) == 1001
    assert dev < 1e-12
    assert dt < 30.0


# ---------------------------------------------------------------------------
# criterion 4: randomized small instances against the exact optimum
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_agreement():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_vio = 0.0
    worst_dist = 0.0
    n_tight = 0
    n_converged = 0
    failures = []
    for seed in range(20):
        sc = random_small_instance(seed)
        rep = probe_oracle(sc)
        if sc.limits.v_max < 1.05:
            n_tight += 1
        n_converged += rep.converged
        worst_gap = max(worst_gap, rep.objective_gap_rel)
        worst_vio = max(worst_vio, rep.engine_feasibility)
        worst_dist = max(worst_dist, rep.coordinate_gap_inf)
        if (
            not rep.converged
            or rep.objective_gap_rel >= 1e-3
            or rep.engine_feasibility >= 1e-6
            or rep.coordinate_gap_inf > 1e-7
        ):
            failures.append(seed)
    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    _verdict(
        4,
        "oracle-agreement",
        ok,
        f"20 instances ({n_tight} with a binding voltage cap): worst "
        f"objective gap {worst_gap:.3e} (tol 1e-3), worst infeasibility "
        f"{worst_vio:.3e} (tol 1e-6), worst distance to z* {worst_dist:.3e} "
        f"(tol 1e-7), {n_converged} of 20 runs converged, {dt:.1f}s (budget 120s)",
    )
    assert not failures, f"instances over tolerance: {failures}"
    assert dt < 120.0


# ---------------------------------------------------------------------------
# criterion 5: certified stepsize contracts, 10x the bound may diverge
# ---------------------------------------------------------------------------

def test_criterion_5_stepsize_certificate():
    t0 = time.perf_counter()
    # single generator c=1 against a fixed draw of 2.0, eta=0.1
    ts = make_ts([(1, 1.0)], load_bus=5, load=2.0, slack_bus=9)
    system = attach_feeders(ts, [])
    problem = build_problem(system, VoltageLimits(0.95, 1.05))
    eta = 0.1
    bound = check_stepsize(problem, eta).eps_bound
    # [DERIVED] stationarity: 2 P* + lam* = 0 and P* - 2 = eta lam*,
    # so P* = 2 / (1 + 2 eta) and lam* = -2 P*
    P_star = 2.0 / (1.0 + 2.0 * eta)
    lam_star = -2.0 * P_star
    P0_slack = 0.0

    def distances(history):
        return np.array(
            [
                float(np.hypot(x.P_M[0] - P_star, y.lam - lam_star))
                for x, y in history
            ]
        )

    cfg_good = SolverConfig(
        eps=0.9 * bound,
        eta=eta,
        max_iter=2000,
        tol=0.0,
        record_state=True,
    )
    x0, y0 = initial_state(problem, "explicit", P_M=np.array([5.0]))
    res = solve(problem, cfg_good, x0=x0, y0=y0, P0_slack=P0_slack)
    d = distances(res.history)
    max_increase = float(np.max(np.diff(d)))

    cfg_bad = dataclasses.replace(cfg_good, eps=10.0 * bound)
    x1 = PrimalState(np.array([P_star]), 0)
    y1 = DualState(lam=lam_star + 1.0, mu=np.zeros(0))
    try:
        res_bad = solve(problem, cfg_bad, x0=x1, y0=y1, P0_slack=P0_slack)
        d_bad = distances(res_bad.history)
        finite = bool(np.all(np.isfinite(d_bad)))
        bad_note = (
            f"completed with finite iterates (distance {d_bad[0]:.2f} -> "
            f"{d_bad[-1]:.2e})"
        )
    except DivergenceError:
        finite = True
        bad_note = "divergence detector fired"

    dt = time.perf_counter() - t0
    ok = max_increase <= 1e-12 and finite and dt < 10.0
    _verdict(
        5,
        "stepsize-certificate",
        ok,
        f"eps=0.9*bound: distance to saddle non-increasing over "
        f"{len(d) - 1} iterations (max step {max_increase:.2e}); "
        f"eps=10*bound: {bad_note}; {dt:.1f}s (budget 10s)",
    )
    # the certified stepsize must contract monotonically; above the bound
    # the run is merely allowed to misbehave, not required to
    assert max_increase <= 1e-12
    assert finite
    assert dt < 10.0


# ---------------------------------------------------------------------------
# criteria 6-8 share one pair of converged runs of each two-level study:
# the default scenario (two feeders) and full39, the paper's 39-bus grid
# with seven feeders
# ---------------------------------------------------------------------------

def _paired_runs(tmp_path_factory, name: str) -> dict:
    """``name`` run to convergence, and ``<name>_baseline`` (prices
    withheld from the DERs) over the same horizon."""
    t0 = time.perf_counter()
    sc_full = load_scenario(SCENARIOS_DIR / f"{name}.json")
    art_full = run_scenario(sc_full, tmp_path_factory.mktemp(f"accept-{name}-full"))

    # same horizon for the no-price baseline so the traces line up
    n = art_full.result.iterations
    sc_base = load_scenario(SCENARIOS_DIR / f"{name}_baseline.json")
    sc_base = dataclasses.replace(
        sc_base,
        config=dataclasses.replace(
            sc_base.config,
            max_iter=n,
            tol=0.0,
        ),
    )
    art_base = run_scenario(sc_base, tmp_path_factory.mktemp(f"accept-{name}-base"))
    return {
        "full": art_full,
        "base": art_base,
        "wall": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    return _paired_runs(tmp_path_factory, "default")


@pytest.fixture(scope="module")
def full39_runs(tmp_path_factory):
    return _paired_runs(tmp_path_factory, "full39")


def _criterion_6(runs: dict, study: str = "") -> None:
    t0 = time.perf_counter()
    art = runs["full"]
    res = art.result
    problem = build_problem(art.scenario.system, art.scenario.limits)
    v = measure(problem, res.x, feedback="ac").v
    v_min = float(v.min())
    v_max = float(v.max())

    mu_up = res.y.mu[: problem.n_nodes]
    pinned = int(np.sum((np.abs(v - 1.05) <= 1e-3) & (mu_up > 1e-8)))

    slack_dev = abs(res.records[-1].slack_residual)
    dt = time.perf_counter() - t0
    wall = runs["wall"] + dt
    ok = (
        res.status == "converged"
        and v_max <= 1.05 + 1e-3
        and v_min >= 0.95 - 1e-3
        and pinned >= 1
        and slack_dev < 1e-2
        and wall < 300.0
    )
    _verdict(
        6,
        "voltage-band-regulation",
        ok,
        f"{study}status {res.status} after {res.iterations} iterations; exact "
        f"voltages in [{v_min:.4f}, {v_max:.4f}] (band 0.95/1.05 "
        f"+-1e-3); {pinned} node(s) riding the upper limit with a "
        f"positive multiplier; slack deviation {slack_dev:.2e} "
        f"(tol 1e-2); {wall:.0f}s incl. runs (budget 300s)",
    )
    assert res.status == "converged"
    assert v_max <= 1.05 + 1e-3
    assert v_min >= 0.95 - 1e-3
    assert pinned >= 1
    assert slack_dev < 1e-2
    assert wall < 300.0


def test_criterion_6_voltage_regulation(default_runs):
    _criterion_6(default_runs)


def test_criterion_6_voltage_regulation_on_full39(full39_runs):
    _criterion_6(full39_runs, "full39: ")


def _criterion_7(runs: dict, study: str = "") -> None:
    art = runs["full"]
    res = art.result
    problem = build_problem(art.scenario.system, art.scenario.limits)
    outage_iter = min(e.iteration for e in art.scenario.events)
    pre = res.records[outage_iter - 1]
    post = res.records[-1]
    tripped = [
        e.target for e in art.scenario.events
        if e.kind == "generator-outage"
    ]
    gen_bus = [int(b) for b in problem.gen_bus]
    tripped_idx = [gen_bus.index(b) for b in tripped]
    survivors = [i for i in range(len(gen_bus)) if i not in tripped_idx]

    lam_growth = abs(post.lam) - abs(pre.lam)
    worst_drop = float(
        np.min(
            np.array([post.P_M[i] for i in survivors])
            - np.array([pre.P_M[i] for i in survivors])
        )
    )
    tripped_output = max(abs(float(post.P_M[i])) for i in tripped_idx)
    ok = lam_growth > 0.0 and worst_drop >= -1e-9 and tripped_output == 0.0
    _verdict(
        7,
        "outage-response",
        ok,
        f"{study}|lambda| {abs(pre.lam):.4f} -> {abs(post.lam):.4f} "
        f"(+{lam_growth:.4f}); surviving outputs all rise (worst change "
        f"{worst_drop:+.2e}); tripped unit at exactly 0",
    )
    assert lam_growth > 0.0
    assert worst_drop >= -1e-9
    assert tripped_output == 0.0


def test_criterion_7_outage_response(default_runs):
    _criterion_7(default_runs)


def test_criterion_7_outage_response_on_full39(full39_runs):
    _criterion_7(full39_runs, "full39: ")


def _criterion_8(runs: dict, study: str = "") -> None:
    rep = compare_runs(
        runs["full"].trace_path,
        runs["base"].trace_path,
        metric="total-cost",
    )
    ok = rep.final_delta < 0.0
    _verdict(
        8,
        "participation-cost-benefit",
        ok,
        f"{study}final total cost {rep.final_a:.6f} with price signals vs "
        f"{rep.final_b:.6f} with prices withheld from DERs "
        f"(delta {rep.final_delta:+.6f}, must be strictly negative)",
    )
    assert rep.final_delta < 0.0


def test_criterion_8_participation_lowers_cost(default_runs):
    _criterion_8(default_runs)


def test_criterion_8_participation_lowers_cost_on_full39(full39_runs):
    _criterion_8(full39_runs, "full39: ")


# ---------------------------------------------------------------------------
# criterion 9: linear feeder model against the exact sweep
# ---------------------------------------------------------------------------

FEEDER_CASES = [
    "case33bw",
    "feeder141",
    "feeder18",
    "feeder22",
    "feeder4",
    "feeder42sce",
    "feeder69",
    "feeder85",
]


def test_criterion_9_linear_model_accuracy():
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_ratio = np.inf
    for name in FEEDER_CASES:
        feeder = parse_case((CASES_DIR / f"{name}.json").read_text())
        n = len(feeder.nodes)
        zeros = np.zeros(n)
        model = build_lindistflow(feeder)
        exact = sweep_feeder(model, zeros, zeros, tol=1e-12)
        v_lin, _ = predict(model, zeros, zeros)
        err = float(np.max(np.abs(v_lin - exact.v)))

        half = dataclasses.replace(
            feeder,
            nodes=tuple(
                dataclasses.replace(
                    node, p_load=node.p_load / 2, q_load=node.q_load / 2
                )
                for node in feeder.nodes
            ),
        )
        model_half = build_lindistflow(half)
        exact_half = sweep_feeder(model_half, zeros, zeros, tol=1e-12)
        v_half, _ = predict(model_half, zeros, zeros)
        err_half = float(np.max(np.abs(v_half - exact_half.v)))

        worst_err = max(worst_err, err)
        worst_ratio = min(worst_ratio, err / err_half)
    dt = time.perf_counter() - t0
    ok = worst_err < 0.01 and worst_ratio >= 3.0 and dt < 30.0
    _verdict(
        9,
        "linear-model-accuracy",
        ok,
        f"{len(FEEDER_CASES)} feeders: worst |v_lin - v_ac| "
        f"{worst_err:.5f} p.u. (tol 0.01), worst halving ratio "
        f"{worst_ratio:.2f} (min 3.0), {dt:.1f}s (budget 30s)",
    )
    assert worst_err < 0.01
    assert worst_ratio >= 3.0
    assert dt < 30.0
