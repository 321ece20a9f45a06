#!/usr/bin/env python3
"""Exact power flow on a benchmark feeder, and the linear model's error.

The backward/forward sweep solves the full nonlinear branch equations of
a radial feeder.  On the 33-node benchmark it reproduces the published
solution; the linear model tracks it to loss order, and the gap shrinks
quadratically as the loading shrinks.
"""

import dataclasses
from pathlib import Path

import numpy as np

from tdcoopt.acpf import sweep_feeder
from tdcoopt.lindistflow import build_lindistflow, predict
from tdcoopt.network import parse_case

CASES = Path(__file__).resolve().parents[1] / "src" / "tdcoopt" / "cases"


def main() -> None:
    feeder = parse_case((CASES / "case33bw.json").read_text())
    n = len(feeder.nodes)
    zeros = np.zeros(n)

    # the compiled feeder model serves both the sweep and the linear model
    model = build_lindistflow(feeder)
    sol = sweep_feeder(model, zeros, zeros, tol=1e-12)
    base_kw = feeder.base_mva * 1000.0
    print(f"case33bw at nominal load ({sol.iterations} sweep iterations):")
    print(f"  min voltage   {np.min(sol.v):.6f} p.u.")
    print(f"  line loss     {sol.loss * base_kw:.2f} kW")
    print(f"  head draw     {sol.P_L:.6f} p.u.")

    v_lin, head_lin = predict(model, zeros, zeros)
    err = float(np.max(np.abs(v_lin - sol.v)))
    print(f"\nlinear model: worst voltage error {err:.5f} p.u. "
          f"(head gap {head_lin - sol.P_L:+.5f} = minus the loss)")

    for scale in (0.5, 0.25):
        scaled = dataclasses.replace(
            feeder,
            nodes=tuple(
                dataclasses.replace(
                    node, p_load=node.p_load * scale, q_load=node.q_load * scale
                )
                for node in feeder.nodes
            ),
        )
        model_s = build_lindistflow(scaled)
        sol_s = sweep_feeder(model_s, zeros, zeros, tol=1e-12)
        v_s, _ = predict(model_s, zeros, zeros)
        err_s = float(np.max(np.abs(v_s - sol_s.v)))
        print(f"load x{scale}: worst error {err_s:.6f} p.u. "
              f"({err / err_s:.1f}x smaller)")


if __name__ == "__main__":
    main()
