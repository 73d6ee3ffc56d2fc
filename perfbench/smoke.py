#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json and the layer table agree; that an untraced run
of every workload prints every end-to-end metric with its unit and no golden
mismatch; that a traced run prints every per-layer metric and records spans
for every layer; and that the benchmark refuses to run, without printing a
result, where the package is missing.  Exits non-zero on the first failure.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace),
                           "--scale", "tiny"], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(proc, declared, what: str) -> dict:
    if proc.returncode:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{what}: failed_frac is not 0\n{proc.stdout}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{what}: metrics {got} != declared {want}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
            raise SystemExit(f"{what}: {k} = {v['value']!r}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = [{"name": n, "unit": u, "better": b} for n, u, b, *_ in METRICS]
    if bench["per_layer"] != table:
        raise SystemExit("BENCHMARK.json per_layer differs from layers.METRICS")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in WORKLOADS:
        check_result(run(name, 0), bench["end_to_end"], f"{name} untraced")
        print(f"ok  {name} untraced")

    check_result(run("pomc-jsonl", 1), bench["per_layer"], "pomc-jsonl traced")
    spans = json.loads((HERE / "_out" / "spans-pomc-jsonl-seed0-trace1.json").read_text())
    seen = {s["name"].rsplit(".", 1)[0] for s in spans}
    missing = set(LAYERS) - seen
    if missing:
        raise SystemExit(f"traced run has no spans for layers {sorted(missing)}")
    if any(s["end"] is None or s["end"] < s["start"] for s in spans):
        raise SystemExit("a span is open or ends before it starts")
    print(f"ok  pomc-jsonl traced, {len(spans)} spans over {len(seen)} layers")

    (HERE / "_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
        proc = run("pomc-jsonl", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("without the package the benchmark must fail and print nothing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
