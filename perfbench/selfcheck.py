"""Fast self-check of the benchmark at reduced sizes (about a minute).

Usage, from the repository root: ``python3 perfbench/selfcheck.py``.
For every workload it runs ``run.py --size small`` untraced once and traced
twice, and confirms that

- the result line has exactly the contract's keys, every check passed and
  every digest matched the small-size reference;
- the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) names and units of BENCHMARK.json;
- every count metric is equal in the two traced runs.

Exits 0 when all of that holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "small"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    if done.returncode != 0:
        return None, f"exit code {done.returncode}"
    return json.loads(done.stdout.decode().splitlines()[-1]), None


def problems_of(result, expected):
    out = []
    if set(result) != RESULT_KEYS:
        out.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        out.append(f"{result.get('failed')} of {result.get('attempted')} checks failed")
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        out.append(f"metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            out.append(f"{name} is not a number")
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    counts = {name for name, unit in per_layer.items() if unit != "s"}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        before = failures
        results = []
        for trace, expected in ((0, end_to_end), (1, per_layer), (1, per_layer)):
            result, error = run(workload, trace)
            issues = [error] if error else problems_of(result, expected)
            for issue in issues:
                print(f"FAIL {workload} trace={trace}: {issue}")
            failures += len(issues)
            results.append(result)
        if results[1] and results[2]:
            first, second = results[1]["metrics"], results[2]["metrics"]
            for name in sorted(counts & set(first) & set(second)):
                if first[name]["value"] != second[name]["value"]:
                    print(f"FAIL {workload}: count {name} differs between traced runs: "
                          f"{first[name]['value']} vs {second[name]['value']}")
                    failures += 1
        print(f"{workload}: {'ok' if failures == before else 'see failures above'}")
    print("selfcheck: " + ("PASS" if not failures else f"FAIL ({failures} problems)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
