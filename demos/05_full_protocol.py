#!/usr/bin/env python3
"""The full co-optimization protocol on the default two-feeder system.

A 39-bus transmission grid hosts two distribution feeders (18 and 33
nodes).  The run starts cold, converges towards a price equilibrium,
then absorbs two mid-run events — a generator outage and a doubling of
DER capacity — and settles again.  A second run withholds the price
signal from the DERs; comparing the traces shows what participation is
worth.  Expect about five seconds of compute on a 2-vCPU machine.

Artifacts (CSV trace + JSON summary per run) land in ./runs/.
"""

import dataclasses
from pathlib import Path

import numpy as np

from tdcoopt.core import build_problem, measure
from tdcoopt.scenario import compare_runs, load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "tdcoopt" / "scenarios"


def main() -> None:
    out = Path("runs")
    out.mkdir(exist_ok=True)

    sc = load_scenario(SCENARIOS / "default.json")
    print(f"running {sc.name!r} (events at iteration "
          f"{min(e.iteration for e in sc.events)}) ...")
    art = run_scenario(sc, out)
    res = art.result
    print(f"  {res.status} after {res.iterations} iterations")

    pre = res.records[min(e.iteration for e in sc.events) - 1]
    post = res.records[-1]
    print(f"  price lambda: {pre.lam:.4f} before the outage, "
          f"{post.lam:.4f} at the end (deeper price, more generation)")

    problem = build_problem(sc.system, sc.limits)
    v = measure(problem, res.x, feedback="ac").v
    at_cap = int(np.sum(v > 1.05 - 1e-3))
    print(f"  exact voltages in [{v.min():.4f}, {v.max():.4f}] p.u.; "
          f"{at_cap} nodes ride the 1.05 cap")
    print(f"  slack deviation {abs(post.slack_residual):.2e} p.u. "
          f"(the substation barely notices)")

    # same horizon, but DERs never see the price
    base = load_scenario(SCENARIOS / "default_baseline.json")
    base = dataclasses.replace(
        base,
        config=dataclasses.replace(base.config, max_iter=res.iterations, tol=0.0),
    )
    print(f"\nrunning {base.name!r} at the matched horizon ...")
    art_base = run_scenario(base, out)

    rep = compare_runs(art.trace_path, art_base.trace_path,
                       metric="total-cost")
    saving = -rep.final_delta / rep.final_b * 100.0
    print(f"  final total cost {rep.final_a:.4f} with participation vs "
          f"{rep.final_b:.4f} without ({saving:.1f}% cheaper)")
    print(f"\ntraces: {art.trace_path}\n        {art_base.trace_path}")


if __name__ == "__main__":
    main()
