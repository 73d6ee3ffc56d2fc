"""Workload inputs: model and spec files, and the benchmark's own stream sampler.

The event streams of the monitor workloads are drawn here from the model's
transition matrix, never with ``fairmon.markov.simulate*``, so a change to
the package's simulator cannot alter what the monitors are fed.  The package
only ever receives the files written by this module.
"""

from __future__ import annotations

import bisect
import json
from itertools import accumulate
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MODELS = HERE / "models"

# Goldens exist for this many input slots; a seed selects slot ``seed % SLOTS``.
SLOTS = 16

POMC_SPEC = "alphabet: s a b y n\nproperty: P[y | a] - P[y | b]\n"
MC_SPEC = "alphabet: init g gbar gy gbary ybar z zbar\nproperty: T[gbar->gbary] / T[g->gy]\n"
DELTA = 0.05

# Per-scale sizes.  "full" is what the timed runs use; "tiny" is for the smoke test.
# ``*_lib`` is the prefix of the stream that each in-process pass covers.
SCALES = {
    "full": {"pomc_events": 10_000, "pomc_lib": 5_000,
             "mc_events": 30_000, "mc_stride": 3_000, "mc_lib": 10_000,
             "sim_steps": 200_000, "sim_lib": 50_000,
             "cov_runs": 25, "cov_horizon": 10_000, "cov_studies": 6},
    "tiny": {"pomc_events": 2_000, "pomc_lib": 2_000,
             "mc_events": 10_000, "mc_stride": 2_500, "mc_lib": 4_000,
             "sim_steps": 20_000, "sim_lib": 10_000,
             "cov_runs": 5, "cov_horizon": 1_000, "cov_studies": 2},
}

# Distinct stream tags keep the workloads' random streams apart for one slot.
_TAGS = {"pomc-jsonl": 1, "mc-ratio": 2}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def model_path(name: str) -> Path:
    return MODELS / f"{name}.json"


def sample_stream(model_file: Path, events: int, slot: int, tag: str) -> list:
    """Observation labels of one trajectory, drawn from the model's own matrix.

    One uniform per step, inverse-CDF over the cumulative row, starting from
    the model's initial distribution.
    """
    data = json.loads(model_file.read_text())
    states = data["states"]
    labels = [data["labels"][s] for s in states]
    rows = [list(accumulate(row)) for row in data["transitions"]]
    start = list(accumulate(data["initial"]))
    last = len(states) - 1
    rng = np.random.default_rng(np.random.SeedSequence([slot, _TAGS[tag]]))
    draws = rng.random(events).tolist()
    s = min(bisect.bisect_right(start, draws[0]), last)
    out = []
    for u in draws[1:]:
        out.append(labels[s])
        s = min(bisect.bisect_right(rows[s], u), last)
    out.append(labels[s])
    return out


def write_lines(path: Path, items) -> Path:
    path.write_text("".join(f"{x}\n" for x in items))
    return path
