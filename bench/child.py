"""One benchmark process: a set-up or one timed sample of a workload.

    python3 bench/child.py '<request JSON>' <result path>

`run.py` starts it with detlab's sources on PYTHONPATH.  Every child first
imports detlab and builds the inputs.  A set-up stops there (casebook-warm
goes on to fill its disk cache) and reports its time from the moment it
was spawned.  A sample then times each step of the workload, with tracing
off or with the tracer installed, and checks the outputs after the last
step.

The machine this runs on is shared, and its speed drifts by tens of percent
over seconds to minutes.  So between steps, outside the timed intervals,
the child times a fixed pure-Python kernel that does not touch detlab, and
scales each step by CAL_REF_S over the kernel's time around it: the
reported times are seconds at the speed where the kernel takes CAL_REF_S.
The raw times are reported next to them.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from heapq import heappop, heappush
from math import gcd

CAL_REF_S = 0.012   # the kernel's time on an idle 2-core Intel Xeon, Python 3.11
CAL_REPS = 5


def _kernel() -> int:
    """Dict, tuple, heap and big-integer work, like the Groebner engine's."""
    d, h, x = {}, [], 1
    for i in range(4000):
        e = (i % 7, i % 11, i % 13, i % 5, i % 3)
        s = tuple(a + b for a, b in zip(e, (1, 2, 3, 4, 5)))
        d[s] = d.get(s, 0) + x
        x = (x * 1000003 + i) % (1 << 256)
        heappush(h, (s, i))
    g = 0
    for v in d.values():
        g = gcd(g, v)
    while h:
        heappop(h)
    return g


def calibrate() -> float:
    """Median seconds of CAL_REPS kernel runs."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cache_size(cache_dir) -> tuple[int, int]:
    if not cache_dir or not os.path.isdir(cache_dir):
        return 0, 0
    files = [e for e in os.scandir(cache_dir) if e.name.endswith(".gb")]
    return len(files), sum(e.stat().st_size for e in files)


def main(req: dict) -> dict:
    import workloads
    work = workloads.make(req["workload"], req["seed"], req["cache_dir"])
    pre = time.monotonic() - req["spawned"]
    setup = req["phase"] == "setup"
    cals = [calibrate()]
    pre_s = pre * CAL_REF_S / cals[0]
    if setup and not req["fill"]:
        return {"setup_s": pre_s, "setup_raw_s": pre, "attempted": 0, "failed": 0}

    tracer = None
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    walls, wall_s, cpu_s = {}, 0.0, 0.0
    for name, step in work.steps():
        c0 = time.process_time()
        t0 = time.perf_counter()
        step()
        walls[name] = time.perf_counter() - t0
        cpu = time.process_time() - c0
        cals.append(calibrate())
        scale = CAL_REF_S / statistics.mean(cals[-2:])
        wall_s += walls[name] * scale
        cpu_s += cpu * scale
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "wall_raw_s": sum(walls.values()),
              "walls": walls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics()
        layer["groebner.cache_files"], layer["groebner.cache_bytes"] = \
            _cache_size(req["cache_dir"])
        result["layer"] = layer
        result["trace"] = tracer.report()
        result["millis"] = work.millis()
    if setup:
        result["setup_s"] = pre_s + wall_s
        result["setup_raw_s"] = pre + result["wall_raw_s"]
    result["attempted"], result["failed"] = work.check()
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(main(request), fh)
