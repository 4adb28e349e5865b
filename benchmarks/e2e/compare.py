"""Compare two sets of benchmark results, workload by workload.

    python benchmarks/e2e/compare.py --base a1.json a2.json a3.json \\
                                     --new  b1.json b2.json b3.json

Each file is an ``out/results.json`` written by ``run.py``; a side is
N runs, given in the order they ran (pairs are base[i], new[i]). For
every workload × end-to-end metric the table gives each side's median
and quartiles and one verdict, with the bounds from ``BENCHMARK.json``:

* ``worse`` — the new median is worse than the base median by more than
  the bound;
* ``better`` — at least ten pairs ran, the new side wins at least nine
  tenths of them, and the medians differ by more than the base side's
  quartile distance;
* ``unresolved`` — either side's quartile distance, as a share of its
  median, exceeds the bound, so a difference within it cannot be told
  from noise; it still reads ``worse`` when every new run trails every
  base run, and is resolved (``better`` by the rule above, else
  ``same``) when every new run beats every base run;
* ``same`` — otherwise.

A metric whose runs all read exactly the same on both sides is marked
``=``. The exit status is 1 when any verdict is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Pairs of runs a gain needs before it can be claimed.
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], *, bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    scale = abs(bmed) or 1.0
    spread = max((b3 - b1) / scale, (n3 - n1) / (abs(nmed) or 1.0))
    gain = sign * (nmed - bmed) / scale
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    gained = (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and gain > 0
        and abs(nmed - bmed) > b3 - b1
    )
    if spread > bound:
        if max(sign * x for x in new) < min(sign * x for x in base):
            return "worse"
        if min(sign * x for x in new) > max(sign * x for x in base):
            return "better" if gained else "same"
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gained else "same"


def _collect(paths: list[str]) -> tuple[dict, set]:
    values: dict[tuple[str, str], list[float]] = {}
    seeds = set()
    for path in paths:
        data = json.loads(Path(path).read_text())
        seeds.add(data["seed"])
        for workload, result in data["workloads"].items():
            for metric, m in result["metrics"].items():
                values.setdefault((workload, metric), []).append(m["value"])
    return values, seeds


def compare(base_paths: list[str], new_paths: list[str]) -> tuple[list[list[str]], bool]:
    spec = json.loads(SPEC.read_text())
    base, base_seeds = _collect(base_paths)
    new, new_seeds = _collect(new_paths)
    if base_seeds != new_seeds:
        print(f"warning: seeds differ: base {sorted(base_seeds)}, new {sorted(new_seeds)}",
              file=sys.stderr)
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    rows, ok = [], True
    for workload in workloads:
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in base or key not in new:
                continue
            b, n = base[key], new[key]
            v = verdict(b, n, bound=m["bound"], better=m["better"])
            ok &= v not in ("worse", "unresolved")
            b1, bmed, b3 = quartiles(b)
            n1, nmed, n3 = quartiles(n)
            rows.append([
                workload, m["name"], m["unit"],
                f"{bmed:.6g} [{b1:.4g}, {b3:.4g}]",
                f"{nmed:.6g} [{n1:.4g}, {n3:.4g}]",
                f"{(nmed - bmed) / (abs(bmed) or 1.0):+.2%}",
                f"{m['bound']:.0%}",
                v + (" =" if len(set(b + n)) == 1 else ""),
            ])
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="results.json of the base runs")
    parser.add_argument("--new", nargs="+", required=True, help="results.json of the new runs")
    args = parser.parse_args(argv)
    rows, ok = compare(args.base, args.new)
    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "new median [q1, q3]", "change", "bound", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
