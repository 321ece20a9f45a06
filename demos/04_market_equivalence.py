#!/usr/bin/env python3
"""The message-passing market engine retraces the monolithic solver.

The market engine decomposes every iteration into agent messages: users
and generators report setpoints computed from broadcast incentive
signals, the operator folds in power-flow results and updates the
prices.  No private cost or capacity data ever crosses the bus, yet the
trajectory matches the centralized gradient iteration coordinate for
coordinate — same fixed point, same path.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from tdcoopt.core import build_problem
from tdcoopt.market import MessageBus, run_market
from tdcoopt.scenario import load_scenario, run_scenario_in_memory

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "tdcoopt" / "scenarios"


def main() -> None:
    sc = load_scenario(SCENARIOS / "default.json")
    cfg = dataclasses.replace(
        sc.config, max_iter=300, tol=0.0, record_state=True,
    )
    core = run_scenario_in_memory(
        dataclasses.replace(sc, config=cfg, engine="core")
    )
    market = run_scenario_in_memory(
        dataclasses.replace(sc, config=cfg, engine="market")
    )

    dev = 0.0
    for (xa, ya), (xb, yb) in zip(core.history, market.history):
        # every primal coordinate at once: z = [p, q, P_M]
        dev = max(dev, float(np.max(np.abs(xa.z - xb.z))), abs(ya.lam - yb.lam))
    print(f"default scenario, {cfg.max_iter} iterations, both engines:")
    print(f"  max coordinate deviation {dev:.3e}")
    print(f"  final price lambda       {market.y.lam:.6f}")

    # peek at the wire traffic of a tiny run
    bus = MessageBus(record=True)
    tiny = dataclasses.replace(cfg, max_iter=2, record_state=False)
    run_market(build_problem(sc.system, sc.limits), tiny, bus=bus)
    print(f"\nmessages per round on a 2-iteration run "
          f"({len(bus.journal)} total):")
    for t in (0, 1, 2):
        print(f"  round {t}: {bus.counts(t)}")
    sample = next(m for m in bus.journal if m.kind == "setpoint-report")
    print("\nfirst setpoint report on the wire (no private fields):")
    print(f"  {json.dumps(sample.to_jsonable())[:120]}...")


if __name__ == "__main__":
    main()
