"""Markdown tables from the result records that run.py leaves behind.

    python3 perfbench/summarize.py [RESULT.json or DIRECTORY ...]

With no arguments it reads .perfbench_work/results/. For untraced runs it
prints one table per workload: per end-to-end metric the median over
runs, the quartiles, the spread (quartile distance over the median, the
figure the regression bounds are compared with) and the run count. For
traced runs it prints one table of per-layer values, a column per
workload and seed (the median when a pair was traced more than once).
"""

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_work" / "results"


def load(args):
    paths = []
    for arg in map(Path, args or [RESULTS]):
        paths += sorted(arg.glob("*.json")) if arg.is_dir() else [arg]
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def spec():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def end_to_end_tables(records, metrics):
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in sorted(by_workload.items()):
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        print(f"#### {workload}: {len(recs)} runs, seeds {sorted(r['seed'] for r in recs)}, "
              f"{failed} of {attempted} replicas failed\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("| --- | --- | --- | --- | --- | --- | --- |")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in recs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            print(f"| `{m['name']}` | {m['unit']} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                  f"| {(q3 - q1) / med:.3f} | {m['bound']} |")
        print()


def per_layer_table(records, metrics):
    columns = sorted({(r["workload"], r["seed"]) for r in records})
    print("| metric | unit | " + " | ".join(f"{w} s{seed}" for w, seed in columns) + " |")
    print("| --- | --- |" + " --- |" * len(columns))
    for m in metrics:
        cells = []
        for col in columns:
            values = [r["metrics"][m["name"]] for r in records if (r["workload"], r["seed"]) == col]
            cells.append(f"{statistics.median(values):.4g}")
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
    print()


def main(args) -> int:
    records = load(args)
    bench = spec()
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    if plain:
        end_to_end_tables(plain, bench["end_to_end"])
    if traced:
        per_layer_table(traced, bench["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
