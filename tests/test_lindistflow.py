"""Affine feeder model: structure, hand-checked entries, and accuracy.

On a uniform 3-node chain (r = 0.02, x = 0.012 per edge, v0 = 1) the path
matrices can be written down directly — entry (i, j) is the impedance of
the shared substation path — which pins the assembly code against hand
arithmetic.  Accuracy against the exact sweep and the O(injection^2) decay
of the linearization error are covered per shipped feeder in the
acceptance suite; here a small chain confirms the same behavior cheaply.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcoopt.acpf import sweep_feeder
from tdcoopt.lindistflow import build_lindistflow, predict
from tdcoopt.network import feeder_topology, parse_case

from conftest import CASES_DIR, make_chain_feeder


def test_chain_path_matrices_by_hand():
    # [DERIVED] shared-path impedances on a uniform chain: A[i, j] is
    # 0.02 * (1 + min(i, j)) and B scales the same pattern by x/r
    feeder = make_chain_feeder(n_nodes=3, r=0.02, x=0.012)
    model = build_lindistflow(feeder)
    expected_A = 0.02 * np.minimum.outer([1, 2, 3], [1, 2, 3])
    np.testing.assert_allclose(model.A, expected_A, atol=1e-15)
    np.testing.assert_allclose(model.B, expected_A * 0.6, atol=1e-15)


def test_chain_offsets_by_hand():
    # [DERIVED] c = v0 + A p0 + B q0 with p0 = -0.002, q0 = -0.001 per
    # node; d is the total base draw, which the lossless injections
    # displace one for one (P_L = d - sum p) while q leaves it alone
    feeder = make_chain_feeder(n_nodes=3, load=2e-3)
    model = build_lindistflow(feeder)
    np.testing.assert_allclose(model.c, [0.999844, 0.99974, 0.999688], atol=1e-12)
    assert model.d == pytest.approx(0.006)
    p = np.array([1e-3, 2e-3, 4e-3])
    _, P_L = predict(model, p, np.zeros(3))
    assert P_L == pytest.approx(0.006 - 7e-3, abs=1e-15)
    _, P_L_q = predict(model, p, np.array([5e-3, -1e-3, 2e-3]))
    assert P_L_q == P_L
    assert model.n_nodes == 3


@pytest.mark.parametrize(
    "name",
    ["case33bw", "feeder4", "feeder18", "feeder22", "feeder42sce",
     "feeder69", "feeder85", "feeder141"],
)
def test_path_matrices_symmetric_psd(name):
    # [DERIVED] A = T' diag(r) T / v0 with r > 0 is symmetric PSD
    feeder = parse_case((CASES_DIR / f"{name}.json").read_text())
    model = build_lindistflow(feeder)
    for mat in (model.A, model.B):
        np.testing.assert_allclose(mat, mat.T, atol=1e-15)
        assert np.linalg.eigvalsh(mat).min() > -1e-12


def test_head_draw_is_lossless_displacement():
    # every unit injected locally displaces exactly one unit of head draw
    feeder = make_chain_feeder(n_nodes=4)
    model = build_lindistflow(feeder)
    rng = np.random.default_rng(3)
    p = rng.uniform(-1e-3, 1e-3, 4)
    q = rng.uniform(-1e-3, 1e-3, 4)
    _, P_L = predict(model, p, q)
    assert P_L == pytest.approx(model.d - p.sum(), abs=1e-15)


def test_predict_tracks_sweep_to_loss_order():
    feeder = make_chain_feeder(n_nodes=5, load=4e-3)
    model = build_lindistflow(feeder)
    rng = np.random.default_rng(11)
    p = rng.uniform(0.0, 2e-3, 5)
    q = rng.uniform(-1e-3, 1e-3, 5)
    exact = sweep_feeder(model, p, q, tol=1e-12)
    v_lin, P_L_lin = predict(model, p, q)
    err_full = float(np.max(np.abs(v_lin - exact.v)))
    assert err_full < 1e-3
    assert abs(P_L_lin - exact.P_L) == pytest.approx(exact.loss, rel=1e-6)

    # [DERIVED] halving load and injections shrinks the error ~4x
    import dataclasses

    half = dataclasses.replace(
        feeder,
        nodes=tuple(
            dataclasses.replace(n, p_load=n.p_load / 2, q_load=n.q_load / 2)
            for n in feeder.nodes
        ),
    )
    model_half = build_lindistflow(half)
    exact_half = sweep_feeder(model_half, p / 2, q / 2, tol=1e-12)
    v_half, _ = predict(model_half, p / 2, q / 2)
    err_half = float(np.max(np.abs(v_half - exact_half.v)))
    assert err_full / err_half > 3.0


def test_model_is_frozen():
    model = build_lindistflow(make_chain_feeder(n_nodes=3))
    with pytest.raises(ValueError, match="read-only"):
        model.A[0, 0] = 99.0


def test_model_holds_the_tree_as_c_arrays():
    # the compiled sweep reads these through their addresses, taken once
    feeder = parse_case((CASES_DIR / "feeder18.json").read_text())
    model = build_lindistflow(feeder)
    topo = feeder_topology(feeder)
    for name, dtype in [("order", np.intc), ("parent", np.intc),
                        ("roots", np.intc), ("r", np.float64),
                        ("x", np.float64), ("ones", np.float64)]:
        arr = getattr(model, name)
        assert arr.dtype == dtype and arr.flags.c_contiguous, name
        assert not arr.flags.writeable, name
    assert model.order.tolist() == list(topo.order)
    assert model.parent.tolist() == list(topo.parent)
    assert model.roots.tolist() == list(topo.roots)
    assert model.r.tolist() == list(topo.r) and model.x.tolist() == list(topo.x)
    assert model.ones.tolist() == [1.0] * model.n_nodes
    workspace = model.sweep_workspace
    assert model.sweep_workspace is workspace
    assert workspace.sweep.order == model.order.ctypes.data
    assert workspace.sweep.x == model.x.ctypes.data
    # a copy owns copies of the arrays, so it must bind its own workspace
    twin = copy.deepcopy(model)
    assert twin.sweep_workspace is not workspace
    assert twin.sweep_workspace.sweep.order == twin.order.ctypes.data
    assert twin.sweep_workspace.sweep.order != workspace.sweep.order


@settings(deadline=None, max_examples=40)
@given(
    n_nodes=st.integers(min_value=1, max_value=9),
    r=st.floats(min_value=1e-4, max_value=0.1),
    x=st.floats(min_value=1e-4, max_value=0.1),
)
def test_chain_psd_property(n_nodes, r, x):
    feeder = make_chain_feeder(n_nodes=n_nodes, r=r, x=x)
    model = build_lindistflow(feeder)
    np.testing.assert_allclose(model.A, model.A.T, atol=1e-15)
    assert np.linalg.eigvalsh(model.A).min() > -1e-10
    assert np.linalg.eigvalsh(model.B).min() > -1e-10
    # diagonal dominance of path matrices: A[i, i] >= A[i, j]
    for i in range(n_nodes):
        assert np.all(model.A[i, i] >= model.A[i] - 1e-15)
