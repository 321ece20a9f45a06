"""The compiled round kernels (``_round.c``) against their numpy references.

Each kernel of the package's extension module replaces a chain of numpy
calls in :mod:`tdcoopt.core`, which stays as the reference and runs where
no library can be built.  Here each kernel meets that numpy code on
drawn inputs, special values included (signed zeros, NaN, infinities),
and must give the same bits (NaN only as NaN: see :func:`same_bits`).  Every kernel checks its arguments before
it reads them, so arrays that do not fit raise instead of being read out
of bounds.  The last test runs short scenarios in fresh processes with
no compiler on ``PATH`` and checks that the numpy and Python paths write
the same trace and summary bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcoopt import _native, core
from tdcoopt.core import DualState, Measurement, PrimalState, build_problem
from tdcoopt.network import VoltageLimits
from tdcoopt.trace import Records

from conftest import SCENARIOS_DIR, make_system


@pytest.fixture(scope="module")
def kernels():
    # with a compiler on PATH, falling back to numpy is a failure
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the round runs its numpy reference")
    kernels = _native.library()
    assert kernels is not None, "cc is on PATH but the extension module did not load"
    return kernels


@contextlib.contextmanager
def numpy_reference():
    """A context in which :mod:`tdcoopt.core` runs its numpy code."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "library", lambda: None)
        yield


def same_bits(a, b) -> bool:
    """Equal bits, where any NaN equals any NaN.

    The sign of a NaN is not compared: numpy itself gives either sign for
    the same operands (on numpy 2.4, ``-nan + nan`` is ``-nan`` in an
    8-entry array and ``nan`` in a 30-entry one), and a trace writes every
    NaN as ``nan``.
    """
    a, b = (np.asarray(side, dtype=np.float64) for side in (a, b))
    return (
        a.shape == b.shape
        and np.array_equal(np.isnan(a), np.isnan(b))
        and np.where(np.isnan(a), 0.0, a).tobytes()
        == np.where(np.isnan(b), 0.0, b).tobytes()
    )


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 1e-300, -2.5)
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def arrays(data, n, elements=values):
    return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)


# ---------------------------------------------------------------------------
# the projected primal step
# ---------------------------------------------------------------------------

boxes = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                     (-math.inf, math.inf), (0.0, 1.0), (-1.0, -0.0)]),
    st.tuples(values, values),  # NaN and empty boxes too: numpy's rules hold
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=32),
    eps=st.one_of(st.sampled_from([5e-4, 1.0, 0.0]), st.floats(1e-6, 10.0)),
)
def test_primal_step_is_numpys_clip_of_the_gradient_step(kernels, data, n, eps):
    # coef and signals of 0.0 leave z on its bound, so ties at ±0.0 occur
    z = arrays(data, n)
    coef = arrays(data, n)
    signals = arrays(data, n)
    pairs = data.draw(st.lists(boxes, min_size=n, max_size=n))
    lo = np.array([low for low, _ in pairs], dtype=float)
    hi = np.array([high for _, high in pairs], dtype=float)
    with np.errstate(all="ignore"):
        expected = np.clip(z - eps * (2.0 * coef * z + signals), lo, hi)
    assert same_bits(kernels.primal_step(z, eps, coef, signals, lo, hi), expected)


def test_primal_step_gives_the_bound_on_a_tie(kernels):
    z = np.array([-0.0, 0.0, 0.0, 0.0, math.nan, 2.0])
    lo = np.array([0.0, -0.0, 0.0, -1.0, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 0.0, -0.0, 1.0, math.nan])
    zero = np.zeros(6)
    got = kernels.primal_step(z, 5e-4, zero, zero, lo, hi)
    assert [math.copysign(1.0, g) for g in got[:4]] == [1.0, -1.0, 1.0, -1.0]
    assert math.isnan(got[4]) and math.isnan(got[5])


# ---------------------------------------------------------------------------
# the multiplier step
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=32),
    eps=st.one_of(st.sampled_from([5e-4, 1.0]), st.floats(1e-6, 10.0)),
    eta=st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 5.0)),
)
def test_mu_step_is_numpys_projected_ascent(kernels, data, n, eps, eta):
    limits = VoltageLimits(0.95, 1.05)
    # voltages on the band edges give zero violations of either sign
    v = arrays(data, n, st.one_of(
        st.sampled_from([0.95, 1.05, 1.0, math.nan, math.inf]),
        st.floats(0.9, 1.1),
    ))
    mu = arrays(data, 2 * n, st.one_of(st.sampled_from([0.0, -0.0, 1e-3]), values))
    with np.errstate(all="ignore"):
        dmu = np.concatenate([v - limits.v_max, limits.v_min - v]) - eta * mu
        expected = np.maximum(mu + eps * dmu, 0.0)
    got = kernels.mu_step(mu, v, limits.v_min, limits.v_max, eps, eta)
    assert same_bits(got, expected)


def test_mu_step_clamps_minus_zero_to_plus_zero(kernels):
    # both violations are +0.0, so a step of eps = -1 takes -0.0 to
    # -0.0 + -0.0: the clamp gives +0.0, as np.maximum(., 0.0) does
    mu = np.array([-0.0, -0.0])
    got = kernels.mu_step(mu, np.array([1.0]), 1.0, 1.0, -1.0, 0.0)
    assert same_bits(got, [0.0, 0.0])
    assert same_bits(np.maximum(mu + -1.0 * (np.zeros(2) - 0.0 * mu), 0.0), got)


# ---------------------------------------------------------------------------
# the norms
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=32))
def test_norms_match_numpys_maximum_reduce(kernels, data, n):
    a = arrays(data, n)
    b = arrays(data, n)
    with numpy_reference(), np.errstate(all="ignore"):
        diff, norm = core._inf_diff(a, b), core._inf_norm(a)
    assert same_bits(kernels.inf_diff(a, b), diff)
    assert same_bits(kernels.inf_norm(a), norm)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 64])
def test_norms_propagate_a_nan_at_any_position(kernels, n):
    for at in range(n):
        a = np.arange(n, dtype=float)
        a[at] = math.nan
        assert math.isnan(kernels.inf_norm(a))
        assert math.isnan(kernels.inf_diff(np.zeros(n), a))
    assert kernels.inf_norm(np.zeros(0)) == 0.0
    assert kernels.inf_diff(np.zeros(0), np.zeros(0)) == 0.0


# ---------------------------------------------------------------------------
# the total cost and the record row
# ---------------------------------------------------------------------------

# block lengths either side of the pairwise sum's 8, its 128 and numpy's
# 8 192-entry buffer
EDGES = (0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 256, 257,
         8191, 8192, 8193, 16384, 20000)
lengths = st.one_of(st.sampled_from(EDGES), st.integers(0, 20000))


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=lengths,
    n_generators=lengths,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["mixed", "minus-zero", "special"]),
)
def test_total_cost_sums_in_numpys_order(kernels, n_nodes, n_generators, seed, kind):
    rng = np.random.default_rng(seed)
    n = 2 * n_nodes + n_generators
    if kind == "minus-zero":  # every term -0.0: numpy's sum is +0.0
        coef, z = np.full(n, -1.0), np.zeros(n)
    else:
        coef = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-8, 2, n)
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2, n)
        if kind == "special" and n:
            z[rng.integers(0, n, 3)] = rng.choice([0.0, -0.0, math.inf, math.nan], 3)
    x = PrimalState(z, n_nodes)
    with numpy_reference(), np.errstate(all="ignore"):
        expected = core.total_cost(SimpleNamespace(coef=coef), x)
    assert same_bits(kernels.total_cost(coef, z, n_nodes), expected)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    n_feeders=st.integers(1, 3),
    n_feeder_nodes=st.integers(2, 12),
)
def test_record_row_matches_iteration_record(kernels, data, seed, n_feeders, n_feeder_nodes):
    # voltages are never zero, so the ±0.0 order of numpy's SIMD min and
    # max reductions is left out; NaN voltages are drawn
    problem = build_problem(
        make_system(n_feeders=n_feeders, n_feeder_nodes=n_feeder_nodes),
        VoltageLimits(0.95, 1.05),
    )
    rng = np.random.default_rng(seed)
    N, G = problem.n_nodes, problem.n_generators
    z = rng.normal(size=2 * N + G)
    v = rng.uniform(0.9, 1.1, N)
    for at in data.draw(st.lists(st.integers(0, N - 1), max_size=3)):
        v[at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    x = PrimalState(z, N)
    y = DualState(lam=float(rng.normal()), mu=rng.uniform(0, 1, 2 * N))
    meas = Measurement(v=v, P_L=rng.normal(size=n_feeders))
    signals = rng.normal(size=2 * N + G)
    probes = np.array(
        [m.span.start + int(rng.integers(0, m.n_nodes)) for m in problem.models],
        dtype=np.intp,
    )
    rows = []
    for path in (contextlib.nullcontext(), numpy_reference()):
        records = Records(G, n_feeders)
        with path:
            core.iteration_record(
                records, problem, x, y, meas, 0.25, signals, probes, 1.5, 0.5
            )
        rows.append(records._chunks[0][0].tobytes())
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# argument checks: nothing is read that does not fit
# ---------------------------------------------------------------------------

def valid_calls():
    """Each kernel's name and a call of it that succeeds."""
    n, G, F = 6, 2, 2
    records = Records(G, F)
    z = np.linspace(-1.0, 1.0, 2 * n + G)
    order = np.arange(3, dtype=np.intc)
    return {
        "primal_step": [z, 5e-4, np.ones(2 * n + G), np.zeros(2 * n + G),
                        np.full(2 * n + G, -1.0), np.ones(2 * n + G)],
        "mu_step": [np.zeros(2 * n), np.ones(n), 0.95, 1.05, 5e-4, 0.0],
        "inf_diff": [np.zeros(4), np.ones(4)],
        "inf_norm": [np.ones(4)],
        "total_cost": [np.ones(2 * n + G), z, n],
        "record_row": [np.empty(records.width), records.layout, 0.5, z, n,
                       np.ones(2 * n + G), np.ones(F), np.ones(n),
                       np.array([0, 3], dtype=np.intp), np.ones(2 * n + G),
                       np.array([1, 4], dtype=np.intp), 0.0, 0.0, 0.0],
        "sweep": [order, np.array([-1, 0, 1], dtype=np.intc),
                  np.array([0], dtype=np.intc), np.full(3, 0.01), np.full(3, 0.01),
                  np.full(3, -1e-3), np.zeros(3), 1.0, np.zeros(3), np.zeros(3),
                  None, 1e-8, 100, None],
    }


def noncontiguous(a):
    spread = np.empty(2 * len(a), dtype=a.dtype)
    spread[::2] = a
    return spread[::2]


def read_only(a):
    a.flags.writeable = False
    return a


# (kernel, argument position, how it is spoilt, the error)
SPOILT = [
    ("primal_step", 0, lambda a: a.astype(np.float32), TypeError),
    ("primal_step", 2, lambda a: a.tolist(), TypeError),
    ("primal_step", 3, noncontiguous, ValueError),
    ("primal_step", 4, lambda a: a[:-1], ValueError),
    ("primal_step", 5, lambda a: a.reshape(1, -1), ValueError),
    ("primal_step", 1, lambda eps: "5e-4", TypeError),
    ("mu_step", 0, lambda a: a[:-1], ValueError),
    ("mu_step", 1, lambda a: a.astype(np.int64), TypeError),
    ("mu_step", 1, lambda a: a.astype(">f8"), TypeError),
    ("inf_diff", 1, lambda a: a[:-1], ValueError),
    ("inf_diff", 0, noncontiguous, ValueError),
    ("inf_norm", 0, lambda a: a.astype(np.float32), TypeError),
    ("total_cost", 2, lambda n: 8, ValueError),  # 2 n_nodes > len(z)
    ("total_cost", 2, lambda n: -1, ValueError),
    ("total_cost", 1, lambda a: a[:-1], ValueError),
    ("record_row", 0, lambda row: row[:-1], ValueError),  # the layout overruns it
    ("record_row", 0, lambda row: row.astype(np.float32), TypeError),
    ("record_row", 1, lambda layout: layout[:-1], ValueError),
    ("record_row", 1, lambda layout: layout.astype(np.int32), TypeError),
    ("record_row", 1, lambda layout: np.where(layout == 1, -1, layout), ValueError),
    ("record_row", 6, lambda P_L: P_L[:1], ValueError),
    ("record_row", 7, lambda v: v[:-1], ValueError),
    ("record_row", 8, lambda starts: starts + 4, IndexError),
    ("record_row", 8, lambda starts: starts - 1, IndexError),
    ("record_row", 9, lambda s: s[:11], ValueError),  # fewer than 2 N prices
    ("record_row", 10, lambda probes: probes + 5, IndexError),
    ("record_row", 10, lambda probes: np.array([-1, 0], dtype=np.intp), IndexError),
    ("record_row", 10, lambda probes: probes.astype(np.int32), TypeError),
    ("sweep", 0, lambda order: order + 1, IndexError),
    ("sweep", 1, lambda parent: parent - 1, IndexError),
    ("sweep", 2, lambda roots: np.array([3], dtype=np.intc), IndexError),
    ("sweep", 0, lambda order: order.astype(np.int64), TypeError),
    ("sweep", 3, lambda r: r[:-1], ValueError),
    ("sweep", 8, lambda p: np.zeros(4), ValueError),
    ("sweep", 10, lambda v_init: np.ones(2), ValueError),
    ("sweep", 12, lambda max_iter: 2**40, ValueError),
    ("sweep", 13, lambda out: np.empty(2), ValueError),
    ("sweep", 13, lambda out: read_only(np.empty(3)), ValueError),
    ("sweep", 13, lambda out: np.empty(3, dtype=np.float32), TypeError),
    ("sweep", 13, lambda out: noncontiguous(np.empty(3)), ValueError),
    ("sweep", 13, lambda out: np.empty((1, 3)), ValueError),
    ("sweep", 13, lambda out: [0.0, 0.0, 0.0], TypeError),
    ("sweep", 8, lambda p: p.reshape(3, 1), ValueError),
    ("sweep", 9, lambda q: np.float64(0.0), ValueError),
    ("sweep", 10, lambda v_init: np.ones((1, 3)), ValueError),
]


@pytest.mark.parametrize(
    "name, at, spoil, error", SPOILT, ids=[f"{s[0]}-{k}" for k, s in enumerate(SPOILT)]
)
def test_kernels_refuse_arguments_that_do_not_fit(kernels, name, at, spoil, error):
    args = valid_calls()[name]
    getattr(kernels, name)(*args)  # the unspoilt call works
    args[at] = spoil(args[at])
    with pytest.raises(error):
        getattr(kernels, name)(*args)


@pytest.mark.parametrize("name", sorted(valid_calls()))
def test_kernels_refuse_a_wrong_argument_count(kernels, name):
    args = valid_calls()[name]
    with pytest.raises(TypeError, match="arguments"):
        getattr(kernels, name)(*args[:-1])


@pytest.mark.parametrize("shared", ["p", "q", "v_init", "v_init-shifted"])
def test_sweep_refuses_an_out_that_overlaps_its_inputs(kernels, shared):
    # the voltages may be written over the warm start itself, never over
    # the injections or over part of another array
    args = valid_calls()["sweep"]
    buffer = np.ones(4)
    at = {"p": 8, "q": 9}.get(shared, 10)
    args[at] = buffer[:3]
    args[13] = buffer[1:] if shared == "v_init-shifted" else buffer[:3]
    with pytest.raises(ValueError, match="out overlaps"):
        kernels.sweep(*args)
    assert buffer.tolist() == [1.0] * 4


def test_record_row_refuses_a_read_only_row(kernels):
    args = valid_calls()["record_row"]
    args[0].flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        kernels.record_row(*args)


def test_format_rows_refuses_a_buffer_too_small(kernels):
    from tdcoopt import trace

    cells = np.ones((3, 2))
    iterations = np.arange(3, dtype=np.int64)
    out = np.empty(3 * trace._row_bytes(2) - 1, dtype=np.uint8)
    with pytest.raises(ValueError, match="cannot hold"):
        trace._format_rows(kernels.format_rows, iterations, cells, out)
    with pytest.raises(ValueError):
        trace._format_rows(kernels.format_rows, iterations[:2], cells, out)
    with pytest.raises(TypeError):
        trace._format_rows(kernels.format_rows, iterations, cells.astype(np.float32), out)


# ---------------------------------------------------------------------------
# no compiler: the numpy and Python paths write the same bytes
# ---------------------------------------------------------------------------

RUN = """
import json, sys
from pathlib import Path
from tdcoopt.scenario import load_scenario, run_scenario
for path, overrides, out in json.loads(sys.argv[1]):
    run_scenario(load_scenario(path, overrides), out)
"""


def short_scenario(tmp_path, name, rounds, event_at):
    """A shipped scenario cut to ``rounds`` rounds, its events at ``event_at``."""
    source = SCENARIOS_DIR / f"{name}.json"
    raw = json.loads(source.read_text())
    raw["transmission"] = str(source.parent / raw["transmission"])
    for entry in raw.get("feeders", []):
        entry["case"] = str(source.parent / entry["case"])
    raw["config"]["max_iter"] = rounds
    for event in raw.get("events", []):
        event["iteration"] = event_at
    path = tmp_path / f"short-{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_runs_without_a_compiler_write_the_same_bytes(kernels, tmp_path):
    default = short_scenario(tmp_path, "default", 400, 150)
    runs = [
        (default, {"engine": "core", "feedback": "ac"}),
        (default, {"engine": "market", "feedback": "ac"}),
        (short_scenario(tmp_path, "dispatch9", 300, 100),
         {"engine": "market", "feedback": "linear"}),
    ]
    outputs = {}
    for label in ("compiled", "fallback"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        if label == "fallback":
            cache = tmp_path / "empty-cache"
            cache.mkdir(mode=0o700)
            no_cc = tmp_path / "no-cc"
            no_cc.mkdir()
            env.update(PATH=str(no_cc), XDG_CACHE_HOME=str(cache))
        jobs = [(path, overrides, str(tmp_path / label / str(k)))
                for k, (path, overrides) in enumerate(runs)]
        done = subprocess.run(
            [sys.executable, "-c", RUN, json.dumps(jobs)], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        if label == "fallback":
            assert done.stderr.count("using the Python sweep and trace formatter") == 1
            assert not list(cache.rglob("*.so"))
        outputs[label] = {
            path.relative_to(tmp_path / label): path.read_bytes()
            for path in sorted((tmp_path / label).rglob("*")) if path.is_file()
        }
    assert len(outputs["compiled"]) == 6  # a trace and a summary per run
    assert outputs["fallback"] == outputs["compiled"]
