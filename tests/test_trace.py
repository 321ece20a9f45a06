"""Trace CSV round-trip, format guards, byte determinism, and the compiled
formatter's equality with ``repr``."""

from __future__ import annotations

import dataclasses
import math
import shutil
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS_DIR
from tdcoopt import core, trace
from tdcoopt.scenario import load_scenario, run_scenario, run_scenario_in_memory
from tdcoopt.trace import (
    NA,
    TRACE_FORMAT,
    Records,
    Trace,
    TraceRecord,
    read_trace,
    trace_columns,
    write_trace,
)

GEN_LABELS = ("1", "2")
FEEDER_LABELS = ("f0", "f1")


# where each field sits in a row of the two-generator, two-feeder store
LAYOUT = Records(len(GEN_LABELS), len(FEEDER_LABELS))


def store_of(cells, n_gen: int = 2, n_feeder: int = 2) -> Records:
    """A store holding ``cells`` (rows × cells), one row each."""
    store = Records(n_gen, n_feeder)
    for row in np.asarray(cells, dtype=np.float64):
        store.new_row()[:] = row
    return store


def make_cells(n: int = 3) -> np.ndarray:
    """``n`` rows of the two-generator, two-feeder store."""
    t = np.arange(n, dtype=np.float64)
    cells = np.empty((n, LAYOUT.width))
    cells[:, 0] = -0.1 * t + 1e-15
    cells[:, LAYOUT.P_M] = np.stack([0.5 + t, 0.25 * t], axis=1)
    cells[:, LAYOUT.P_L] = np.stack([0.01 * t, np.full(n, 0.02)], axis=1)
    cells[:, LAYOUT.v_min] = np.stack([np.full(n, 0.97), 0.96 + 1e-9 * t], axis=1)
    cells[:, LAYOUT.v_max] = (1.01, 1.04)
    cells[:, LAYOUT.slack_residual] = 1e-7 * t
    cells[:, LAYOUT.total_cost] = 3.0 / (t + 1)
    cells[:, LAYOUT.alpha_probe] = (0.1, -0.2)
    cells[:, LAYOUT.beta_probe] = (0.0, 1e-12)
    cells[0, -2:] = 0.0  # the initial record's NA step norms
    cells[1:, -2] = 0.5 / t[1:]
    cells[1:, -1] = 0.25 / t[1:]
    return cells


def make_store(n: int = 3) -> Records:
    return store_of(make_cells(n))


def test_column_order():
    cols = trace_columns(GEN_LABELS, FEEDER_LABELS)
    assert cols == [
        "iteration", "lambda",
        "P_M_1", "P_M_2",
        "P_L_f0", "v_min_f0", "v_max_f0", "alpha_f0", "beta_f0",
        "P_L_f1", "v_min_f1", "v_max_f1", "alpha_f1", "beta_f1",
        "slack_residual", "total_cost", "step_primal", "step_dual",
    ]


def test_round_trip_is_exact(tmp_path):
    # repr cells must survive the trip bit-for-bit
    path = tmp_path / "run.csv"
    records = make_store()
    write_trace(path, records, GEN_LABELS, FEEDER_LABELS)
    trace = read_trace(path)
    assert trace.format == TRACE_FORMAT
    assert len(trace) == len(records)
    assert trace.columns == tuple(trace_columns(GEN_LABELS, FEEDER_LABELS))
    for rec, row in zip(records, trace.rows):
        got = dict(zip(trace.columns, row))
        assert got["iteration"] == rec.iteration
        assert got["lambda"] == rec.lam
        assert got["P_M_1"] == rec.P_M[0]
        assert got["v_min_f1"] == rec.v_min[1]
        assert got["beta_f1"] == rec.beta_probe[1]
        assert got["step_primal"] == rec.step_primal
        assert got["step_dual"] == rec.step_dual
    assert trace.rows[0][-2:] == (None, None)


def test_na_cells_become_nan():
    trace = Trace(
        format=TRACE_FORMAT,
        columns=("iteration", "step_primal"),
        rows=((0.0, None), (1.0, 0.5)),
    )
    col = trace.column("step_primal")
    assert np.isnan(col[0]) and col[1] == 0.5
    np.testing.assert_allclose(trace.iterations, [0.0, 1.0])


def test_header_line_format(tmp_path):
    path = tmp_path / "run.csv"
    write_trace(path, make_store(1), GEN_LABELS, FEEDER_LABELS)
    first = path.read_text().splitlines()[0]
    assert first.startswith(f"# {TRACE_FORMAT}; columns: iteration,lambda,")
    assert NA in path.read_text()  # initial record has no step norms


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, make_store(), GEN_LABELS, FEEDER_LABELS)
    write_trace(b, make_store(), GEN_LABELS, FEEDER_LABELS)
    assert a.read_bytes() == b.read_bytes()


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,lambda\n0,0.0\n")
    with pytest.raises(ValueError, match="format header"):
        read_trace(path)


def test_read_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# tdcoopt-trace v999; columns: iteration\niteration\n0\n")
    with pytest.raises(ValueError, match="unsupported trace format"):
        read_trace(path)


def test_read_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"# {TRACE_FORMAT}; columns: a,b\na,b\n1.0\n")
    with pytest.raises(ValueError, match="row 2 has 1 cells"):
        read_trace(path)


def test_column_lookup_unknown_name(tmp_path):
    path = tmp_path / "run.csv"
    write_trace(path, make_store(1), GEN_LABELS, FEEDER_LABELS)
    with pytest.raises(ValueError):
        read_trace(path).column("no_such_column")


# ---------------------------------------------------------------------------
# the compiled formatter against repr
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel():
    # with a compiler on PATH, falling back to the Python formatter is a failure
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: write_trace runs the Python formatter")
    kernel = trace._format_kernel()
    assert kernel is not None, "cc is on PATH but the compiled formatter did not load"
    return kernel


def kernel_cells(kernel, values) -> list[str]:
    """Each value as the kernel writes it, one single-cell row per value."""
    cells = np.array(values, dtype=np.float64).reshape(-1, 1)
    rows = len(cells)
    out = np.empty(rows * trace._row_bytes(1), dtype=np.uint8)
    n = trace._format_rows(kernel, np.zeros(rows, dtype=np.int64), cells, out)
    lines = out[:n].tobytes().decode("ascii").split("\r\n")
    assert lines.pop() == ""
    assert all(line.startswith("0,") for line in lines)
    return [line[2:] for line in lines]


def assert_cells_are_repr(kernel, values):
    values = [float(v) for v in values]
    got = kernel_cells(kernel, values)
    wrong = [(v.hex(), text, repr(v)) for v, text in zip(values, got) if text != repr(v)]
    assert not wrong, wrong[:10]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def neighbours(values):
    """Each value with the doubles either side of it."""
    for v in values:
        yield from (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_writes_repr_of_random_bit_patterns(kernel, patterns):
    assert_cells_are_repr(kernel, map(from_bits, patterns))


SPECIAL = {
    "zeros-infinities-nan": [0.0, -0.0, math.inf, -math.inf, math.nan,
                             -math.nan, from_bits(0x7FF0000000000001)],
    # the smallest subnormals print one or two digits; the largest
    # subnormal and the smallest normal sit on either side of 2^-1022
    "subnormals": [5e-324, -5e-324, 1e-323, 1.5e-323, 2e-323, 5e-323, 1e-322,
                   *(t * 5e-324 for t in range(1, 120)),
                   from_bits(0x000FFFFFFFFFFFFF), from_bits(0x0008000000000000),
                   2.2250738585072014e-308, 2.225073858507201e-308],
    # the fixed/exponent switch at 1e-4 and 1e16, with neighbours
    "powers-of-ten": list(neighbours(float(f"1e{k}") for k in range(-5, 18))),
    "integral": [*map(float, range(-1100, 1100)), 2.0**52, 2.0**53 - 1,
                 2.0**53, 2.0**53 + 2, 2.0**54, 2.0**63, 2.0**64,
                 1e15 + 1, 1e16 - 2, 123456789012345680.0, 1.7976931348623157e308,
                 *neighbours(float(10**k) for k in range(15, 23))],
    # a power-of-two significand: the double below is half as far as the
    # one above, so the interval is lopsided
    "powers-of-two": list(neighbours(math.ldexp(1.0, e) for e in range(-1074, 1024))),
}


@pytest.mark.parametrize("kind", SPECIAL)
def test_kernel_writes_repr_of_special_values(kernel, kind):
    assert_cells_are_repr(kernel, SPECIAL[kind])


def test_kernel_writes_repr_at_halfway_points(kernel):
    # short decimals lying exactly halfway between two doubles (1e23 is one):
    # each end of a rounding interval belongs to the double with the even
    # significand, so one neighbour prints the short decimal and the other
    # does not
    cases = []
    for exponent in range(-30, 40):
        for digits in range(1, 200):
            exact = Fraction(digits) * Fraction(10) ** exponent
            x = float(exact)
            other = math.nextafter(x, math.inf if Fraction(x) < exact else -math.inf)
            if 2 * exact == Fraction(x) + Fraction(other):
                cases += [x, other]
    assert 1e23 in cases and len(cases) > 20
    assert_cells_are_repr(kernel, cases)


def test_kernel_writes_repr_of_trace_like_values(kernel):
    rng = np.random.default_rng(7)
    values = rng.normal(size=20_000) * 10.0 ** rng.integers(-9, 20, size=20_000)
    values[::3] = np.round(values[::3], 3)
    assert_cells_are_repr(kernel, values)


# ---------------------------------------------------------------------------
# the compiled and the Python path write the same bytes
# ---------------------------------------------------------------------------

def both_paths(tmp_path, monkeypatch, write):
    """``write(directory)`` with the kernel, then with the Python path; the
    bytes of each file the first call wrote, from both."""
    fast, slow = tmp_path / "kernel", tmp_path / "python"
    write(fast)
    with monkeypatch.context() as patch:
        patch.setattr(trace, "_format_kernel", lambda: None)
        write(slow)
    names = sorted(p.name for p in fast.iterdir() if p.name.endswith(".csv"))
    assert names
    return [((fast / n).read_bytes(), (slow / n).read_bytes()) for n in names]


def test_write_trace_runs_the_kernel(kernel, tmp_path, monkeypatch):
    # only the initial record, with its NA step norms, is written by _row
    python_rows = []
    reference = trace._row

    def counted(iteration, cells):
        python_rows.append(iteration)
        return reference(iteration, cells)

    monkeypatch.setattr(trace, "_row", counted)
    write_trace(tmp_path / "run.csv", make_store(3000), GEN_LABELS, FEEDER_LABELS)
    assert python_rows == [0]


def test_paths_agree_on_a_shipped_run(kernel, tmp_path, monkeypatch):
    # default's first 2 500 rounds, AC feedback: two feeders, many blocks
    sc = load_scenario(SCENARIOS_DIR / "default.json", {"feedback": "ac"})
    sc = dataclasses.replace(sc, config=dataclasses.replace(
        sc.config, max_iter=2500, tol=0.0,
    ))

    def write(out):
        run_scenario(sc, out)

    for fast, slow in both_paths(tmp_path, monkeypatch, write):
        assert fast == slow
        assert fast.count(b"\r\n") == 2 + 2500


def test_paths_agree_on_a_partial_error_trace(kernel, tmp_path, monkeypatch):
    sc = load_scenario(SCENARIOS_DIR / "dispatch9.json", {"eps": 1e5})

    def write(out):
        with pytest.raises(core.DivergenceError):
            run_scenario(sc, out)

    for fast, slow in both_paths(tmp_path, monkeypatch, write):
        assert fast == slow


def special_store() -> Records:
    """nan, infinities, -0.0 and other edge cells in every kind of cell,
    on rows in several blocks."""
    cells = make_cells(2 * trace._BLOCK + 5)
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 2.0**53]
    for i in range(1, len(cells), 7):
        v = odd[i % len(odd)]
        cells[i, 0] = cells[i, LAYOUT.total_cost] = cells[i, -1] = v
        cells[i, LAYOUT.P_M] = (v, -v)
        cells[i, LAYOUT.v_max] = (1, v)
        cells[i, LAYOUT.beta_probe] = (v, 0.0)
    return store_of(cells)


def test_paths_agree_on_special_cells(kernel, tmp_path, monkeypatch):
    store = special_store()

    def write(out):
        out.mkdir()
        write_trace(out / "special.csv", store, GEN_LABELS, FEEDER_LABELS)

    [(fast, slow)] = both_paths(tmp_path, monkeypatch, write)
    assert fast == slow
    assert b",nan," in fast and b",-inf," in fast and b",-0.0," in fast
    assert fast.count(b"NA") == 2  # the initial record's step norms


def test_a_store_writes_across_its_chunks(kernel, tmp_path, monkeypatch):
    # edge cells on either side of a chunk boundary and past it
    cells = make_cells(trace._CHUNK + 300)
    for i in (trace._CHUNK - 1, trace._CHUNK, trace._CHUNK + trace._BLOCK):
        cells[i, -1] = cells[i, 0] = math.nan if i % 2 else -0.0
    store = store_of(cells)

    def write(out):
        out.mkdir()
        write_trace(out / "store.csv", store, GEN_LABELS, FEEDER_LABELS)

    [(fast, slow)] = both_paths(tmp_path, monkeypatch, write)
    assert fast == slow
    assert fast.count(b"\r\n") == 1 + len(cells)  # the column row, then each record


@pytest.mark.parametrize("gen_labels", [("1", "2", "3"), ("1",)])
def test_labels_that_do_not_fit_the_store_are_refused(tmp_path, gen_labels):
    # refused before the file is opened: an existing trace is kept
    path = tmp_path / "run.csv"
    path.write_text("kept")
    store = store_of(np.zeros((3, 12)), 2, 1)
    with pytest.raises(ValueError, match=(
        f"labels for {len(gen_labels)} generators and 1 feeders do not fit "
        "records of 2 generators and 1 feeders"
    )):
        write_trace(path, store, gen_labels, ("f0",))
    assert path.read_text() == "kept"


# ---------------------------------------------------------------------------
# the records store
# ---------------------------------------------------------------------------

finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


def bits(record: TraceRecord) -> tuple:
    """Every value of ``record``, a float as its bit pattern."""
    def of(value):
        if type(value) is tuple:
            return tuple(map(of, value))
        if type(value) is float:
            return struct.pack("<d", value)
        return value

    return tuple(of(getattr(record, f.name)) for f in dataclasses.fields(record))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_gen=st.integers(0, 3), n_feeder=st.integers(0, 3),
       k=st.integers(0, trace._CHUNK + 1))
def test_a_row_gives_back_its_record_bit_for_bit(data, n_gen, n_feeder, k):
    store = Records(n_gen, n_feeder)
    for _ in range(k):  # the rows before it, in this chunk or the one before
        store.new_row()[:] = 0.0
    cells = data.draw(st.lists(finite_or_not, min_size=store.width,
                               max_size=store.width))
    store.new_row()[:] = cells
    # the cells in trace_columns order: lambda, P_M, five per feeder, four
    feeders = [cells[1 + n_gen + 5 * j : 6 + n_gen + 5 * j] for j in range(n_feeder)]
    expected = TraceRecord(
        iteration=k,
        lam=cells[0],
        P_M=tuple(cells[1 : 1 + n_gen]),
        P_L=tuple(f[0] for f in feeders),
        v_min=tuple(f[1] for f in feeders),
        v_max=tuple(f[2] for f in feeders),
        alpha_probe=tuple(f[3] for f in feeders),
        beta_probe=tuple(f[4] for f in feeders),
        slack_residual=cells[-4],
        total_cost=cells[-3],
        step_primal=None if k == 0 else cells[-2],
        step_dual=None if k == 0 else cells[-1],
    )
    assert bits(store[k]) == bits(expected)
    assert bits(store[-1]) == bits(expected)
    assert (store[0].step_primal, store[0].step_dual) == (None, None)


def test_records_read_like_a_list():
    cells = make_cells(trace._CHUNK + 3)
    store = store_of(cells)
    records = list(store)
    assert len(store) == len(records) == len(cells)
    assert [r.iteration for r in records] == list(range(len(cells)))
    assert store[0].step_primal is None and store[0].step_dual is None
    assert store[1].step_primal == cells[1, -2]
    assert store[-1] == records[-1] and store[-1].iteration == trace._CHUNK + 2
    assert store[trace._CHUNK - 2 : trace._CHUNK + 2] == records[
        trace._CHUNK - 2 : trace._CHUNK + 2
    ]
    assert store[::-1000] == records[::-1000]
    assert store == store_of(cells)
    assert store != store_of(cells[:-1])
    changed = cells.copy()
    changed[-1, 0] = 0.5
    assert store != store_of(changed)
    for k in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            store[k]


def test_a_run_keeps_its_records_as_float64_rows():
    # 5 000 rounds of default, linear feedback: the records take at most
    # one float64 per cell, plus one chunk not yet filled
    sc = load_scenario(SCENARIOS_DIR / "default.json", {"feedback": "linear"})
    sc = dataclasses.replace(sc, config=dataclasses.replace(
        sc.config, max_iter=5000, tol=0.0,
    ))
    problem = core.build_problem(sc.system, sc.limits)
    tracemalloc.start()
    try:
        result = run_scenario_in_memory(sc, problem)
        with_records = tracemalloc.get_traced_memory()[0]
        result.records = None
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = 5001
    cells = len(trace_columns(
        tuple(str(g.bus_id) for g in sc.system.transmission.generators),
        tuple(f.feeder_id for f in sc.system.feeders),
    )) - 1  # the iteration is the row's index
    assert result.iterations == rows - 1
    assert with_records - without <= (rows + trace._CHUNK) * cells * 8
