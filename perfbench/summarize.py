"""Summarize sweep files written by perfbench/sweep.sh.

    python3 perfbench/summarize.py .bench_out/sweep-compile-t0.jsonl ...

For every metric: the median of the runs, the quartiles, and the spread
(distance between the quartiles as a share of the median) — the
statistics BENCHMARK.json's bounds are checked against. Prints JSON.
"""
import json
import statistics
import sys


def summarize(path):
    runs = []
    for line in open(path):
        if line.strip():
            seed, result = line.split(" ", 1)
            runs.append((int(seed), json.loads(result)))
    metrics = {}
    for _, r in runs:
        for name, m in r["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for m in metrics.values():
        v = m["values"]
        med = statistics.median(v)
        m["median"] = med
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            m["q1"], m["q3"] = q1, q3
            m["spread"] = (q3 - q1) / med if med else None
    return {
        "seeds": [s for s, _ in runs],
        "all_correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": metrics,
    }


if __name__ == "__main__":
    json.dump({p: summarize(p) for p in sys.argv[1:]}, sys.stdout, indent=1)
    print()
