#!/usr/bin/env python3
"""Regenerate ``goldens.json`` from the package as it is now.

    python3 perfbench/make_goldens.py [--scale SCALE] [WORKLOAD ...]

Runs every workload (or the ones named) once per input slot and scale (or
the scale named), untimed, and stores the block hashes of each output
stream; entries of the workloads and scales not named are kept.  Only
regenerate when a change is meant to alter verdicts or streams, and say so
where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import golden
import inputs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def hashes_for(w) -> dict:
    w.prepare()
    full = w.run(w.full_cmd())
    if full.code:
        raise SystemExit(f"{w.name} slot {w.slot}: exited {full.code}\n{full.err}")
    out = {w.stream: golden.block_hashes(w.records(full.out), golden.BLOCK[(w.name, w.stream)])}
    if hasattr(w, "library_pass"):
        *_, recs = w.library_pass()
        for stream, records in recs.items():
            out[stream] = golden.block_hashes(records, golden.BLOCK[(w.name, stream)])
        if w.name == "simulate" and out["lib"] != out["cli"][:len(out["lib"])]:
            raise SystemExit(f"simulate slot {w.slot}: in-process symbols differ from the CLI's")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    args = sys.argv[1:]
    scales = list(inputs.SCALES)
    if args[:1] == ["--scale"]:
        scales, args = args[1:2], args[2:]
        if len(scales) != 1 or scales[0] not in inputs.SCALES:
            raise SystemExit(f"unknown scale {scales}; choose from {sorted(inputs.SCALES)}")
    names = args or list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; choose from {sorted(WORKLOADS)}")
    table = golden.load() if golden.GOLDEN_FILE.exists() else {}
    (HERE / "_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="goldens-", dir=HERE / "_out"))
    try:
        for scale in scales:
            for name in names:
                entry = table.setdefault(scale, {})[name] = {}
                for slot in range(inputs.SLOTS):
                    streams = hashes_for(WORKLOADS[name](ROOT, work, slot, scale))
                    for stream, h in streams.items():
                        entry.setdefault(stream, {})[str(slot)] = h
                print(f"{scale} {name}: {inputs.SLOTS} slots", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden.GOLDEN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
