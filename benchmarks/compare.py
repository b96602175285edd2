"""Compare two results files written by ``run.py --out``.

    python3 benchmarks/compare.py benchmarks/results/BENCH_0.json new.json

For every workload and metric in both files it prints the two medians, the
change, each file's spread (interquartile range over median) and, for the
end-to-end metrics, a verdict against the bound in ``BENCHMARK.json``:

* ``WORSE``: the median got worse by more than the bound;
* ``unresolved``: not worse by the bound, but a spread exceeds the bound,
  so the runs cannot tell;
* ``better``: improved by more than the base file's spread;
* ``same``: anything else.

Exits 1 if any end-to-end metric is ``WORSE``.  Both files must come from
the same ``--seconds`` and ``--trace`` settings on the same machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(base: dict, new: dict, spec: dict) -> str:
    change = new["median"] / base["median"] - 1 if base["median"] else 0.0
    worse_by = change if spec["better"] == "lower" else -change
    if worse_by > spec["bound"]:
        return "WORSE"
    if max(base["spread"], new["spread"]) > spec["bound"]:
        return "unresolved"
    return "better" if -worse_by > base["spread"] else "same"


def compare(base: dict, new: dict, specs: dict) -> tuple[list[str], bool]:
    lines, worse = [], False
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_sum = base["workloads"][workload]["summary"]
        n_sum = new["workloads"][workload]["summary"]
        for metric in sorted(set(b_sum) & set(n_sum)):
            b, n = b_sum[metric], n_sum[metric]
            if "median" not in b:
                lines.append(f"{workload:16} {metric:38} {b['value']:.4g} -> {n['value']:.4g}")
                continue
            change = f"{n['median'] / b['median'] - 1:+.1%}" if b["median"] else "n/a"
            text = (
                f"{workload:16} {metric:38} {b['median']:.6g} -> {n['median']:.6g} {b['unit']:5} "
                f"{change:>8}  spread {b['spread']:.3f}/{n['spread']:.3f}"
            )
            if metric in specs:
                v = verdict(b, n, specs[metric])
                worse = worse or v == "WORSE"
                text += f"  bound {specs[metric]['bound']:.2f}  {v}"
            lines.append(text)
    return lines, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    lines, worse = compare(base, new, specs)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
