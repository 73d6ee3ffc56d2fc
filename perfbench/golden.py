"""Golden outputs: hashes over fixed-size blocks of output records.

A record is one output line (CLI streams), one verdict rendered as
``t lo hi point kind`` (in-process monitor passes), or one JSON line of a
coverage report.  Comparing block by block lets ``failed`` count how much
of a stream differs instead of only whether it does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_FILE = Path(__file__).resolve().parent / "goldens.json"

# Records per block, by stream: "cli" is a full invocation's output, "lib"
# an in-process pass (for ``simulate``, a prefix of the same symbols).
BLOCK = {
    ("pomc-jsonl", "cli"): 1000,
    ("pomc-jsonl", "lib"): 1000,
    ("mc-ratio", "cli"): 1,
    ("mc-ratio", "lib"): 2000,
    ("simulate", "cli"): 10_000,
    ("simulate", "lib"): 10_000,
    ("coverage", "report"): 1,
}


def block_hashes(records, block: int) -> list:
    out = []
    for i in range(0, len(records), block):
        text = "\n".join(records[i:i + block])
        out.append(hashlib.blake2b(text.encode(), digest_size=8).hexdigest())
    return out


def verdict_record(t: int, verdict) -> str:
    iv = verdict.interval
    lo, hi = (None, None) if iv is None else (iv.lo, iv.hi)
    return f"{t} {lo!r} {hi!r} {verdict.point!r} {verdict.kind}"


def load() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


class Ledger:
    """Blocks checked and blocks that differ from the golden reference."""

    def __init__(self, goldens: dict, scale: str, slot: int):
        self._table = goldens[scale]
        self._slot = str(slot)
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def expected(self, workload: str, stream: str) -> list:
        return self._table[workload][stream][self._slot]

    def check(self, workload: str, stream: str, records) -> None:
        want = self.expected(workload, stream)
        got = block_hashes(records, BLOCK[(workload, stream)])
        bad = sum(1 for a, b in zip(want, got) if a != b) + abs(len(want) - len(got))
        self.attempted += max(len(want), len(got))
        self.failed += bad
        if bad:
            self.mismatches.append(f"{workload}/{stream}: {bad} of {len(want)} blocks differ")

    def process_failed(self, workload: str, stream: str, what: str) -> None:
        """A process that exited non-zero fails every block it should have produced."""
        n = len(self.expected(workload, stream))
        self.attempted += n
        self.failed += n
        self.mismatches.append(f"{workload}/{stream}: {what}")
