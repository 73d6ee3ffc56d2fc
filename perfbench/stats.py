"""Statistics shared by the timed and the traced runs.

The machine this benchmark was tuned on is shared, and it runs at two
speeds about 1.7x apart: a fixed loop timed in 1 ms pieces reads either
near its fastest or 1.5-1.7x slower, with the share of slow pieces moving
from minute to minute whatever runs inside the VM.  A sample of a tenth of
a second is then either fast or slow, and the best of a run's samples
depends on whether the run met a fast stretch at all; over ten seeds that
spread the best samples by 0.24-0.38 of their median.  Samples of a few
tenths of a second average the two speeds instead, and the median of a
run's samples moves only with the run's share of slow time.  So each
sample covers a whole piece of work (the stream of an invocation, an
in-process pass, a study), a cost that grows along the stream or hits only
part of it is counted in full, and every metric reports the median of its
samples, with their quartiles.
"""

from __future__ import annotations

import math
import statistics

def percentiles_us(lat_ns) -> tuple:
    """p50 and p99 in microseconds over every per-call latency of one pass."""
    import numpy as np
    p50, p99 = np.percentile(np.asarray(lat_ns, dtype=float), [50, 99]) / 1e3
    return float(p50), float(p99)


def summarize(values, value, bound) -> dict:
    """The reported value, and the median and quartiles of the samples it came from."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else math.inf
    return {"value": value, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values), "bound": bound, "unresolved": spread > bound}
