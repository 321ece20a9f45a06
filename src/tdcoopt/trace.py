"""Per-iteration trace records and their CSV serialization.

One record per iteration (plus the initial state).  The CSV layout is
fixed and versioned in a leading comment line so downstream plot scripts
and diffs stay stable; fields that do not apply (for example step norms on
the initial record) are written as an explicit ``NA`` marker, never
omitted.  Every float cell is the text of ``repr(float(value))``, byte for
byte (the shortest round-trip form), so identical runs produce
byte-identical files and every cell reads back as the same double.

Rows are written a block of ``_BLOCK`` records at a time by the compiled
formatter ``_format.c`` (Schubfach digits, laid out as ``repr`` lays them
out), from the package's compiled library (:mod:`tdcoopt._native`), into
one reused buffer.  :func:`_row`, which calls ``repr`` itself, is the
reference: it writes the rows that hold an ``NA`` cell, and every row
where no library can be built, with the same bytes, only more slowly.
"""

from __future__ import annotations

import csv
import ctypes
import functools
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from . import _native

__all__ = [
    "TRACE_FORMAT",
    "NA",
    "TraceRecord",
    "Trace",
    "trace_columns",
    "write_trace",
    "read_trace",
]

TRACE_FORMAT = "tdcoopt-trace v1"
NA = "NA"


@dataclass(frozen=True)
class TraceRecord:
    """Diagnostics for one solver iteration.

    Per-feeder tuples are ordered like the feeders of the coupled system;
    ``alpha_probe``/``beta_probe`` sample the incentive signals at one
    probe node per feeder.  ``step_primal``/``step_dual`` are the
    infinity-norm state changes divided by the stepsize; ``None`` on the
    initial record.
    """

    iteration: int
    lam: float
    P_M: tuple[float, ...]
    P_L: tuple[float, ...]
    v_min: tuple[float, ...]
    v_max: tuple[float, ...]
    slack_residual: float
    total_cost: float
    alpha_probe: tuple[float, ...]
    beta_probe: tuple[float, ...]
    step_primal: float | None
    step_dual: float | None


def trace_columns(
    gen_labels: tuple[str, ...], feeder_labels: tuple[str, ...]
) -> list[str]:
    """Fixed column order for the given system shape."""
    cols = ["iteration", "lambda"]
    cols += [f"P_M_{g}" for g in gen_labels]
    for f in feeder_labels:
        cols += [f"P_L_{f}", f"v_min_{f}", f"v_max_{f}", f"alpha_{f}", f"beta_{f}"]
    cols += ["slack_residual", "total_cost", "step_primal", "step_dual"]
    return cols


# records per call of the compiled formatter: ~0.2 MB of text on full39,
# written from one reused buffer, so writing a large trace holds neither
# its text nor more than a block of its cells
_BLOCK = 256
# the fields of each feeder's columns and of the last columns, in order
_FEEDER_FIELDS = ("P_L", "v_min", "v_max", "alpha_probe", "beta_probe")
_LAST_FIELDS = ("slack_residual", "total_cost", "step_primal", "step_dual")


def write_trace(
    path,
    records: list[TraceRecord],
    gen_labels: tuple[str, ...],
    feeder_labels: tuple[str, ...],
) -> None:
    columns = trace_columns(gen_labels, feeder_labels)
    n_gen, n_feeder = len(gen_labels), len(feeder_labels)
    kernel = _format_kernel()
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRACE_FORMAT}; columns: {','.join(columns)}\n")
        csv.writer(fh).writerow(columns)
        if kernel is None:
            fh.writelines(_row(rec, n_feeder) for rec in records)
            return
        out = np.empty(_BLOCK * _row_bytes(len(columns) - 1), dtype=np.uint8)
        for block in _blocks(records):
            try:
                iterations, cells = _block_arrays(block, n_gen, n_feeder)
            except TypeError:  # an NA cell, or an iteration that is no int
                fh.writelines(_row(rec, n_feeder) for rec in block)
            else:
                n = _format_rows(kernel, iterations, cells, out)
                fh.flush()  # the text written so far, then the block's bytes
                fh.buffer.write(out[:n])


def _cell(value: float | None) -> str:
    return NA if value is None else repr(float(value))


def _row(rec: TraceRecord, n_feeder: int) -> str:
    """One record as its CSV line: the reference the compiled formatter mirrors."""
    cells = [str(rec.iteration), _cell(rec.lam)]
    cells += map(_cell, rec.P_M)
    per_feeder = [getattr(rec, name) for name in _FEEDER_FIELDS]
    for k in range(n_feeder):
        cells += (_cell(values[k]) for values in per_feeder)
    cells += (_cell(getattr(rec, name)) for name in _LAST_FIELDS)
    return ",".join(cells) + "\r\n"


def _blocks(records: list[TraceRecord]):
    """``records`` in order, in slices of at most ``_BLOCK``; each record
    with an ``NA`` step norm (the initial one) is a slice of its own."""
    steps = map(attrgetter("step_primal", "step_dual"), records)
    na = [i for i, pair in enumerate(steps) if None in pair]
    start = 0
    for stop in (*na, len(records)):
        for first in range(start, stop, _BLOCK):
            yield records[first : min(first + _BLOCK, stop)]
        if stop < len(records):
            yield records[stop : stop + 1]
        start = stop + 1


def _block_arrays(
    block: list[TraceRecord], n_gen: int, n_feeder: int
) -> tuple[np.ndarray, np.ndarray]:
    """The block's iterations and its float cells in column order.

    ``array`` converts like ``int()`` and ``float()`` do, and raises
    ``TypeError`` on ``None`` (an ``NA`` cell) and on a float iteration,
    which only :func:`_row` writes as the text the reference gives.
    """
    rows = len(block)

    def column(name: str) -> np.ndarray:
        return np.frombuffer(array("d", list(map(attrgetter(name), block))))

    def columns(name: str, width: int) -> np.ndarray:
        data = array("d", list(chain.from_iterable(map(attrgetter(name), block))))
        return np.frombuffer(data).reshape(rows, width)

    iterations = array("q", list(map(attrgetter("iteration"), block)))
    iterations = np.frombuffer(iterations, dtype=np.int64)
    cells = np.empty((rows, 1 + n_gen + 5 * n_feeder + 4))
    cells[:, 0] = column("lam")
    cells[:, 1 : 1 + n_gen] = columns("P_M", n_gen)
    first = 1 + n_gen
    for j, name in enumerate(_FEEDER_FIELDS):
        cells[:, first + j : first + 5 * n_feeder : 5] = columns(name, n_feeder)
    for j, name in enumerate(_LAST_FIELDS):
        cells[:, first + 5 * n_feeder + j] = column(name)
    return iterations, cells


def _row_bytes(n_cells: int) -> int:
    """Longest line of ``n_cells`` floats: a 20-character iteration, 25
    per cell (a comma and at most 24 characters, as in
    ``-2.2250738585072014e-308``) and the CRLF."""
    return 22 + 25 * n_cells


def _format_rows(kernel, iterations: np.ndarray, cells: np.ndarray, out: np.ndarray) -> int:
    """Write the lines of ``iterations`` and ``cells`` (rows × cells, C
    order) into ``out`` with ``kernel``; return their length in bytes.

    ``out`` (bytes) must hold the longest such lines.
    """
    rows, n_cells = cells.shape
    if not (
        cells.dtype == np.float64 and cells.flags.c_contiguous
        and iterations.dtype == np.int64 and iterations.flags.c_contiguous
        and iterations.shape == (rows,)
        and out.flags.c_contiguous and out.nbytes >= rows * _row_bytes(n_cells)
    ):
        raise ValueError("iterations, cells and output buffer do not fit the kernel")
    return kernel(
        iterations.ctypes.data, cells.ctypes.data, rows, n_cells,
        _schubfach_table().ctypes.data, out.ctypes.data,
    )


@functools.cache
def _format_kernel():
    """``tdcoopt_format_rows`` from the package's compiled library, or
    ``None`` where none can be built (see :mod:`tdcoopt._native`)."""
    library = _native.library()
    if library is None:
        return None
    kernel = library.tdcoopt_format_rows
    kernel.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
        ctypes.c_void_p, ctypes.c_void_p,
    )
    kernel.restype = ctypes.c_long
    return kernel


@functools.cache
def _schubfach_table() -> np.ndarray:
    """The 126-bit multipliers g(k) of ``_format.c``, for -324 <= k <= 292.

    g(k) = floor(10^-k 2^(125 - E)) + 1, with E = floor(log2 10^-k), so
    2^125 < g(k) < 2^126; stored as its high and low 63 bits, interleaved.
    Exact, from Python integers.
    """
    halves = []
    for k in range(-324, 293):
        if k <= 0:
            power = 10**-k
            e = power.bit_length() - 1
            beta = power << (125 - e) if e <= 125 else power >> (e - 125)
        else:
            power = 10**k
            e = -power.bit_length()  # 10^k is not a power of two
            beta = (1 << (125 - e)) // power
        halves += divmod(beta + 1, 1 << 63)
    return np.array(halves, dtype=np.uint64)


@dataclass(frozen=True)
class Trace:
    """A parsed trace file: versioned format tag, columns, and row data."""

    format: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        """One column as a float array; NA cells become NaN."""
        idx = self.columns.index(name)
        return np.array(
            [np.nan if row[idx] is None else row[idx] for row in self.rows]
        )

    @property
    def iterations(self) -> np.ndarray:
        return self.column("iteration")


def read_trace(path) -> Trace:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing trace format header")
        fmt = first[2:].split(";")[0].strip()
        if fmt != TRACE_FORMAT:
            raise ValueError(f"{path}: unsupported trace format {fmt!r}")
        reader = csv.reader(fh)
        columns = tuple(next(reader))
        rows = []
        for raw in reader:
            if len(raw) != len(columns):
                raise ValueError(
                    f"{path}: row {len(rows) + 2} has {len(raw)} cells, "
                    f"expected {len(columns)}"
                )
            rows.append(
                tuple(None if cell == NA else float(cell) for cell in raw)
            )
    return Trace(format=fmt, columns=columns, rows=tuple(rows))
