"""Per-iteration trace records and their CSV serialization.

One record per iteration (plus the initial state).  The CSV layout is
fixed and versioned in a leading comment line so downstream plot scripts
and diffs stay stable; the initial record's step norms, which do not
apply, are written as an explicit ``NA`` marker, never omitted.  Every
float cell is the text of ``repr(float(value))``, byte for byte (the
shortest round-trip form), so identical runs produce byte-identical
files and every cell reads back as the same double.

A run keeps its records in a :class:`Records` store: one float64 row per
iteration, in the trace's column order, in chunks that grow with the run
and are never copied; a :class:`TraceRecord` is built from a row only
when one is read.  A trace is written from a store alone.  Rows are
written a block of ``_BLOCK`` rows at a time by the compiled formatter
``_format.c`` (Schubfach digits, laid out as ``repr`` lays them out),
from the package's extension module (:mod:`tdcoopt._native`), straight
from the store's chunks into one reused buffer.  :func:`_row`, which
calls ``repr`` itself on the same float rows the formatter formats, is
the reference: it writes the initial record, and every row where no
library can be built, with the same bytes, only more slowly.
"""

from __future__ import annotations

import csv
import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _native

__all__ = [
    "TRACE_FORMAT",
    "NA",
    "TraceRecord",
    "Records",
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
# rows per chunk of a Records store, ~1.6 MB on full39; a multiple of
# _BLOCK, so a chunk's end cuts no block of the formatter short
_CHUNK = 16 * _BLOCK
# the fields of each feeder's columns and of the last columns, in order
_FEEDER_FIELDS = ("P_L", "v_min", "v_max", "alpha_probe", "beta_probe")
_LAST_FIELDS = ("slack_residual", "total_cost", "step_primal", "step_dual")


class Records(Sequence):
    """A run's trace records, one float64 row each.

    A row holds every cell of its trace line but the iteration, in
    :func:`trace_columns` order; the iteration is the row's index.  Rows
    live in chunks of ``_CHUNK`` rows, allocated as the run reaches them
    and never copied.  Row 0 is the initial record: its step norms are
    ``NA``, their cells hold 0.0 and read as ``None``.  Indexing, slicing
    and iteration build a :class:`TraceRecord` from each row on access,
    and two stores are equal when their records are.
    """

    def __init__(self, n_gen: int, n_feeder: int):
        self.n_gen, self.n_feeder = n_gen, n_feeder
        per = len(_FEEDER_FIELDS)
        first, last = 1 + n_gen, 1 + n_gen + per * n_feeder
        self.width = last + len(_LAST_FIELDS)
        # where each field of a record sits in a row
        self.P_M = slice(1, first)
        self.P_L, self.v_min, self.v_max, self.alpha_probe, self.beta_probe = (
            slice(first + j, last, per) for j in range(per)
        )
        self.slack_residual, self.total_cost = last, last + 1
        # the same positions for the compiled row writer (``_round.c``'s
        # record_row): lam, P_M's first cell, each feeder field's first
        # cell, the stride between feeders, then the last four cells
        self.layout = np.array(
            [0, 1, *(first + j for j in range(per)), per,
             last, last + 1, self.width - 2, self.width - 1],
            dtype=np.intp,
        )
        self._chunks: list[np.ndarray] = []
        self._len = 0

    def new_row(self) -> np.ndarray:
        """The next row, for the caller to fill."""
        k = self._len
        if k == len(self._chunks) * _CHUNK:
            self._chunks.append(np.empty((_CHUNK, self.width)))
        self._len = k + 1
        return self._chunks[-1][k % _CHUNK]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self._len))]
        k = operator.index(k)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("record index out of range")
        cells = self._chunks[k // _CHUNK][k % _CHUNK].tolist()
        return TraceRecord(
            iteration=k,
            lam=cells[0],
            P_M=tuple(cells[self.P_M]),
            P_L=tuple(cells[self.P_L]),
            v_min=tuple(cells[self.v_min]),
            v_max=tuple(cells[self.v_max]),
            slack_residual=cells[self.slack_residual],
            total_cost=cells[self.total_cost],
            alpha_probe=tuple(cells[self.alpha_probe]),
            beta_probe=tuple(cells[self.beta_probe]),
            step_primal=None if k == 0 else cells[-2],
            step_dual=None if k == 0 else cells[-1],
        )

    def __iter__(self):
        return map(self.__getitem__, range(self._len))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Records):
            return NotImplemented
        # cells equal as floats are records equal as TraceRecords: NaN
        # equals nothing, and row 0's NA cells hold 0.0 on both sides
        return (
            self._len == other._len
            and (self.n_gen, self.n_feeder) == (other.n_gen, other.n_feeder)
            and all(map(np.array_equal, self._filled(), other._filled()))
        )

    def __repr__(self) -> str:
        return f"<Records: {self._len} rows of {self.width} cells>"

    def _filled(self):
        """Each chunk's rows written so far."""
        for c, chunk in enumerate(self._chunks):
            yield chunk[: self._len - c * _CHUNK]

    def _blocks(self):
        """``(first, cells)``: row 0 alone, then each run of at most
        ``_BLOCK`` rows of one chunk, in order; ``cells`` holds the rows
        from row ``first`` on."""
        start = 0
        while start < self._len:
            chunk, first = divmod(start, _CHUNK)
            n = 1 if start == 0 else min(_BLOCK, self._len - start, _CHUNK - first)
            yield start, self._chunks[chunk][first : first + n]
            start += n


def write_trace(
    path,
    records: Records,
    gen_labels: tuple[str, ...],
    feeder_labels: tuple[str, ...],
) -> None:
    """Write ``records`` as a trace file whose columns carry the labels.

    Row 0 is written by :func:`_row`, the others a block at a time by the
    compiled formatter, or by :func:`_row` where no library loads.
    Raises ``ValueError``, before the file is opened, when the labels do
    not fit the store's generators and feeders.
    """
    shape = (len(gen_labels), len(feeder_labels))
    if shape != (records.n_gen, records.n_feeder):
        raise ValueError(
            f"labels for {shape[0]} generators and {shape[1]} feeders do not fit "
            f"records of {records.n_gen} generators and {records.n_feeder} feeders"
        )
    columns = trace_columns(gen_labels, feeder_labels)
    kernel = _format_kernel()
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRACE_FORMAT}; columns: {','.join(columns)}\n")
        csv.writer(fh).writerow(columns)
        out = np.empty(_BLOCK * _row_bytes(records.width), dtype=np.uint8)
        for first, cells in records._blocks():
            if kernel is None or first == 0:  # row 0's step norms are NA
                fh.writelines(map(_row, itertools.count(first), cells.tolist()))
                continue
            iterations = np.arange(first, first + len(cells), dtype=np.int64)
            n = _format_rows(kernel, iterations, cells, out)
            fh.flush()  # the text written so far, then the block's bytes
            fh.buffer.write(out[:n])


def _row(iteration: int, cells: list[float]) -> str:
    """One row as its CSV line, the ``repr`` of each cell after the
    iteration; row 0's step norms are ``NA``.  The reference the compiled
    formatter mirrors."""
    text = [str(iteration), *map(repr, cells)]
    if iteration == 0:
        text[-2:] = NA, NA
    return ",".join(text) + "\r\n"


def _row_bytes(n_cells: int) -> int:
    """Longest line of ``n_cells`` floats: a 20-character iteration, 25
    per cell (a comma and at most 24 characters, as in
    ``-2.2250738585072014e-308``) and the CRLF."""
    return 22 + 25 * n_cells


def _format_rows(kernel, iterations: np.ndarray, cells: np.ndarray, out: np.ndarray) -> int:
    """Write the lines of ``iterations`` (int64) and ``cells`` (float64,
    rows × cells, C order) into ``out`` (uint8) with ``kernel``; return
    their length in bytes.

    ``out`` must hold the longest such lines (:func:`_row_bytes` per row);
    the kernel raises ``TypeError`` or ``ValueError`` for arrays that do
    not fit it.
    """
    return kernel(iterations, cells, _schubfach_table(), out)


@functools.cache
def _format_kernel():
    """The compiled formatter of the package's extension module, or
    ``None`` where none can be built (see :mod:`tdcoopt._native`)."""
    library = _native.library()
    return None if library is None else library.format_rows


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
