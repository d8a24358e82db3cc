"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.txt CANDIDATE.txt

Each file holds the standard output of one or more ``run.py`` runs of
one workload; every line that is a result object counts as one run.
For each end-to-end metric the candidate's median is compared with the
base's median, and the metric regresses when it is worse by more than
its bound, taken as a share of the base median.  Exits 1 on any
regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path: Path) -> List[Dict[str, float]]:
    """The metric values of every result line in ``path``."""
    runs = []
    for line in Path(path).read_text().splitlines():
        try:
            document = json.loads(line)
        except ValueError:
            continue
        if isinstance(document, dict) and "metrics" in document:
            runs.append({k: v["value"] for k, v in document["metrics"].items()})
    return runs


def compare(
    base: List[Dict[str, float]],
    candidate: List[Dict[str, float]],
    metrics: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per metric: medians, worsening share, bound, verdict."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        before = statistics.median(run[name] for run in base)
        after = statistics.median(run[name] for run in candidate)
        worse = (after - before) / before
        if metric["better"] == "higher":
            worse = -worse
        rows.append({
            "name": name,
            "base": before,
            "candidate": after,
            "worse_by": worse,
            "bound": metric["bound"],
            "regressed": worse > metric["bound"],
        })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (load_results(Path(p)) for p in argv)
    if not base or not candidate:
        print("compare: no result lines found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    rows = compare(base, candidate, spec["end_to_end"])
    for row in rows:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        print(f"{row['name']:18s} {row['base']:12.6g} -> {row['candidate']:12.6g}  "
              f"worse by {row['worse_by']:+7.1%} (bound {row['bound']:.0%})  {verdict}")
    return 1 if any(row["regressed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
