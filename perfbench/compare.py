"""Compare two sets of benchmark results, refusing cross-host comparisons.

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR CHANGED_DIR

Each directory holds run records saved by ``run.py`` (``*.json`` under
``.perfbench-results/<workload>/``; copy them aside per commit). For every
workload and end-to-end metric it prints both medians, the change, each
side's quartile spread and whether the change stays within the bound
``BENCHMARK.json`` fixes, and beside it the change in the unscaled
figure the record keeps (``<metric>_raw``): the scaled figures divide by
a host-speed reference, so a change that moved the reference itself
shows as a gap between the two. Records from different hosts (CPU count or
model, machine, Python or numpy version) are refused: figures from
different machines are not evidence of a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from record import HOST_KEYS, same_host


def load(directory: Path) -> List[dict]:
    records = []
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            records.append(record)
    return records


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def raw_value(record: dict, name: str) -> Optional[float]:
    """The unscaled figure behind ``name`` (a list of set-ups: their median)."""
    value = record.get("info", {}).get(name + "_raw")
    if isinstance(value, list):
        return statistics.median(value) if value else None
    return value


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, changed = (load(Path(arg)) for arg in argv)
    if not base or not changed:
        print("compare: no untraced run records found", file=sys.stderr)
        return 2
    reference = base[0]
    for record in base + changed:
        if not same_host(reference, record):
            print("compare: refused, results come from different hosts:", file=sys.stderr)
            for key in HOST_KEYS:
                print(f"  {key}: {reference.get(key)!r} vs {record.get(key)!r}", file=sys.stderr)
            return 3
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in changed})
    worse = 0
    for workload in workloads:
        print(f"== {workload}")
        sides: Dict[str, Dict[str, List[float]]] = {"base": {}, "changed": {}}
        raws: Dict[str, Dict[str, List[float]]] = {"base": {}, "changed": {}}
        for label, records in (("base", base), ("changed", changed)):
            for record in records:
                if record["workload"] == workload:
                    for name, metric in record["result"]["metrics"].items():
                        sides[label].setdefault(name, []).append(metric["value"])
                        raw = raw_value(record, name)
                        if raw is not None:
                            raws[label].setdefault(name, []).append(raw)
        for name, spec_metric in metrics.items():
            a, b = sides["base"].get(name), sides["changed"].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            loss = -change if spec_metric["better"] == "higher" else change
            verdict = "worse" if loss > spec_metric["bound"] else "ok"
            worse += verdict == "worse"
            line = (f"  {name:20s} {ma:12.4f} -> {mb:12.4f} {spec_metric['unit']:10s} "
                    f"{change:+7.1%}  spread {spread(a):.3f}/{spread(b):.3f}  n={len(a)}/{len(b)}  {verdict}")
            ra, rb = raws["base"].get(name), raws["changed"].get(name)
            if ra and rb:
                raw_a, raw_b = statistics.median(ra), statistics.median(rb)
                line += f"  unscaled {raw_a:.4f} -> {raw_b:.4f} ({(raw_b - raw_a) / raw_a:+.1%})"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
