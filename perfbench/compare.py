"""Compare two sets of benchmark records and flag regressions.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that ``run.py --out FILE`` appended.  For every
(workload, metric) present in both, the medians are compared; a metric
is flagged when the new median is worse than the base median by more
than the metric's bound in ``BENCHMARK.json`` (end-to-end metrics) or
``PER_LAYER_BOUND`` (per-layer metrics, which have no bound of their own).
Spreads are quartile distances as a share of the median.

Records from hosts with different core counts are never compared: the
command refuses (exit 2).  Exit 1 when something is flagged, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Allowed worsening share for per-layer metrics.
PER_LAYER_BOUND = 0.1


def load(path) -> List[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            record = json.loads(line)
            if record.get("kind") == "perfbench":
                records.append(record)
    return records


def _specs() -> Dict[str, dict]:
    """Every metric in BENCHMARK.json by name (per-layer ones lack a bound)."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / abs(mid) if mid else 0.0


def group(records: List[dict]) -> Dict[tuple, List[float]]:
    values = defaultdict(list)
    for record in records:
        for name, data in record["metrics"].items():
            values[(record["workload"], record["mode"], name)].append(
                data["value"]
            )
    return values


def compare(base: List[dict], new: List[dict]) -> dict:
    """Per (workload, mode, metric): medians, spreads and a verdict."""
    cores = {r["provenance"]["nproc"] for r in base + new}
    if len(cores) > 1:
        raise ValueError(
            f"records come from hosts with different core counts {sorted(cores)}"
        )
    specs = _specs()
    base_values, new_values = group(base), group(new)
    rows = []
    for key in sorted(set(base_values) & set(new_values)):
        workload, mode, name = key
        before = statistics.median(base_values[key])
        after = statistics.median(new_values[key])
        spec = specs.get(name, {})
        bound = spec.get("bound", PER_LAYER_BOUND)
        higher = spec.get("better") == "higher"
        if before == 0:
            change = 0.0 if after == 0 else float("inf")
        else:
            change = (after - before) / abs(before)
        worse = -change if higher else change
        rows.append(
            {
                "workload": workload,
                "mode": mode,
                "metric": name,
                "base_median": before,
                "new_median": after,
                "change": change,
                "base_spread": spread(base_values[key]),
                "new_spread": spread(new_values[key]),
                "bound": bound,
                "flagged": worse > bound,
            }
        )
    return {"nproc": cores.pop() if cores else None, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        result = compare(load(args.base), load(args.new))
    except ValueError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    flagged = 0
    for row in result["rows"]:
        flagged += row["flagged"]
        print(
            f"{row['workload']:12s} {row['mode']:9s} {row['metric']:38s} "
            f"{row['base_median']:12.6g} -> {row['new_median']:12.6g} "
            f"({row['change']:+.1%}, spreads {row['base_spread']:.1%}/"
            f"{row['new_spread']:.1%}, bound {row['bound']:.0%})"
            + ("  FLAGGED" if row["flagged"] else "")
        )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
