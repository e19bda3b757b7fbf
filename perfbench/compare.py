"""Compare two sets of benchmark results for one workload.

    python3 perfbench/compare.py base.txt new.txt

Each file holds the stdout of one or more runs of perfbench/run.py; the
result lines (JSON objects) are read.  For every metric it prints each
side's median, new / base, and for end-to-end metrics whether new is
worse than base by more than the bound in BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path


def results(path) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("{"):
            for name, metric in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = results(sys.argv[1]), results(sys.argv[2])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name in base:
        if name not in new:
            continue
        b, n = statistics.median(base[name]), statistics.median(new[name])
        ratio = n / b if b else float("nan")
        verdict = ""
        if name in bounds:
            m = bounds[name]
            worse = n > b * (1 + m["bound"]) if m["better"] == "lower" else n < b * (1 - m["bound"])
            verdict = "WORSE than bound" if worse else "within bound"
        print(f"{name:32s} base {b:12.6g}  new {n:12.6g}  new/base {ratio:7.4f}  {verdict}")


if __name__ == "__main__":
    main()
