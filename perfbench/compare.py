"""Compare two sets of untraced benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``run.py`` wrote (``--results``).
For every (workload, end-to-end metric) pair it prints each side's median
and quartiles over runs, and a verdict against the metric's bound in
BENCHMARK.json:

- ``within bound``: the new median is not worse than the base median by
  more than the bound;
- ``worse``: it is;
- ``unresolved``: a side's spread (quartile distance over median) is
  wider than the bound, unless every new run reads better than every
  base run.

``v_violation_max`` and ``failed_ratio`` are zero at the seed commit, so
they get no relative bound: any rise of the median is ``worse``.
Exits 1 if any pair is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import workloads


def load_results(directory: Path) -> dict[str, list[dict]]:
    """Untraced result records of ``directory``, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base: list[float], new: list[float], bound: float | None,
            better: str = "lower") -> str:
    """``bound`` None: the metric may not rise at all (zero at the seed)."""
    sign = 1.0 if better == "lower" else -1.0
    med_b, med_n = statistics.median(base), statistics.median(new)
    if bound is None:
        return "worse" if sign * (med_n - med_b) > 0 else "within bound"
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "within bound"
        return "unresolved"
    change = sign * (med_n - med_b) / med_b if med_b else 0.0
    return "worse" if change > bound else "within bound"


def metric_values(records: list[dict], name: str) -> list[float]:
    return [
        r["metrics"][name] if name in r["metrics"] else r["quality"][name]
        for r in records
    ]


def compare(base_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    spec = workloads.benchmark_spec()
    metrics = [(m["name"], m["unit"], m["bound"], m["better"]) for m in spec["end_to_end"]]
    metrics += [(name, unit, None, "lower") for name, unit in workloads.QUALITY.items()]
    base, new = load_results(base_dir), load_results(new_dir)
    lines = [
        f"{'workload':22s} {'metric':16s} {'base median [q1, q3] (n)':>40s} "
        f"{'new median [q1, q3] (n)':>40s}  verdict"
    ]
    any_worse = False
    for workload in workloads.WORKLOADS:
        if workload not in base and workload not in new:
            continue
        if workload not in base or workload not in new:
            lines.append(f"{workload:22s} missing on {'base' if workload not in base else 'new'} side")
            continue
        for name, unit, bound, better in metrics:
            a = metric_values(base[workload], name)
            b = metric_values(new[workload], name)
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)}) {unit}")
            v = verdict(a, b, bound, better)
            any_worse |= v == "worse"
            limit = "must not rise" if bound is None else f"bound {bound:g}"
            lines.append(
                f"{workload:22s} {name:16s} {cells[0]:>40s} {cells[1]:>40s}  {v} ({limit})"
            )
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, any_worse = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
