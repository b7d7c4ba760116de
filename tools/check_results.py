#!/usr/bin/env python3
"""Shape check of a bench_paper RESULTS.json.

    tools/check_results.py RESULTS.json

Passes (exit 0) when every paper row is present, every value is a finite
number, and Figure 12's ablation order holds in mean error:
full < base + branch < base < analytical min bound. It checks no
accuracy level: the smoke scale is far from the paper's.
"""

import json
import math
import sys

ROWS = ("fig01 fig04 fig05 fig06 fig07 fig08 fig09 fig11 fig12 fig13 "
        "fig14 fig15 fig16 fig17 sec522 sec523 sec524 sec526 sec8 "
        "table1 table2 table3 table4").split()
ABLATION_ORDER = ("full", "base_branch", "base", "min_bound")


def main(path):
    with open(path) as f:
        results = json.load(f)
    rows = {row["name"]: row for row in results["rows"]}
    failures = [f"missing row {name}" for name in ROWS if name not in rows]
    for row in results["rows"]:
        if not row["values"]:
            failures.append(f"{row['name']}: no values")
        for value in row["values"]:
            number = value["value"]
            if not isinstance(number, (int, float)) or not math.isfinite(
                    number):
                failures.append(f"{row['name']}.{value['key']} = {number}")
    if "fig12" in rows:
        fig12 = {v["key"]: v["value"] for v in rows["fig12"]["values"]}
        means = [fig12[f"{name}.mean"] for name in ABLATION_ORDER]
        print("fig12 mean error, must ascend: " + ", ".join(
            f"{name} {mean:.2f}%" for name, mean in zip(ABLATION_ORDER,
                                                          means)))
        if not all(a < b for a, b in zip(means, means[1:])):
            failures.append("fig12 ablation order broken")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"{path}: {len(rows)} rows, "
              f"{sum(len(r['values']) for r in rows.values())} values, "
              "all finite")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
