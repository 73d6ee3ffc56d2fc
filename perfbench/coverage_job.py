"""The researcher's batch path: coverage studies, as a user script would run them.

    python3 coverage_job.py --model M --spec S --runs R --horizon H --seeds N,N,... [--empty]

Runs one study per seed (confidence 0.05, engine pomc) and prints one JSON
object with, per study, its wall time and the report's counts and rows.
``--empty`` stops after loading the model and spec, which is how the
benchmark measures set-up time.  The package must be importable (the
benchmark puts the checkout's ``src`` on ``PYTHONPATH``).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from fairmon.experiments.runners import run_coverage
from fairmon.markov import ObservationModel
from fairmon.speclang.parser import parse_spec_file
from inputs import DELTA


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated study seeds")
    p.add_argument("--empty", action="store_true")
    args = p.parse_args()
    model = ObservationModel.from_json(Path(args.model).read_text())
    spec = parse_spec_file(Path(args.spec).read_text(), allow_transvars=False)
    if args.empty:
        return 0
    studies = []
    for seed in (int(x) for x in args.seeds.split(",")):
        t0 = time.perf_counter()
        report = run_coverage(model, spec.expression, "pomc", args.runs, args.horizon,
                              DELTA, seed)
        studies.append({"seed": seed, "study_s": time.perf_counter() - t0,
                        "coverage": report.coverage, "rows": report.rows})
    sys.stdout.write(json.dumps({"studies": studies}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
