"""Smoke mode: every workload at smoke sizes, untraced and traced.

Checks that each run exits 0 and that its last line carries every metric
that BENCHMARK.json declares for that mode, with the declared unit.
"""

import json
import subprocess
import sys
from pathlib import Path


def main(root, workloads):
    spec = json.loads((Path(root) / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    script = str(Path(__file__).resolve().parent / "run.py")
    problems = []
    for name in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, script, "--workload", name, "--seed", "1",
                   "--seconds", "0.1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
            tag = f"{name} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            wrong = sorted(k for k in expected[trace] if k in got and got[k] != expected[trace][k])
            for label, names in (("missing", missing), ("undeclared", extra),
                                 ("wrong unit", wrong)):
                if names:
                    problems.append(f"{tag}: {label}: {', '.join(names)}")
            print(f"smoke {tag}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"{len(got)} metrics")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1
