"""detlab benchmark: the entry point.

    python3 bench/run.py --workload casebook-cold --seed 1 --seconds 15 --trace 0

A closed loop: this process runs one child (`child.py`) at a time and waits
for it.  Every child is a fresh interpreter, because detlab's in-memory GB
cache and scenario registry are process-global.  The run first sets up at
least SETUP_REPS times and for at least SETUP_MIN_S seconds (imports,
inputs, and for casebook-warm a full disk-cache fill) and reports the
median as `setup_s`.  It then times samples until `--seconds` have passed
(at least MIN_SAMPLES), reports medians, and checks every sample's
outputs.  Times are scaled to a reference machine speed by a calibration
kernel that each child times between its steps (see child.py); the raw
times are printed on the line before the result.  With `--trace 1` it
alternates traced and untraced samples and reports the per-layer metrics
instead (see README.md).

The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import CALLS, LAYERS, TICKS, TIMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("casebook-cold", "casebook-warm", "cat43-colon")
SCENARIOS = ("cat-3-2", "cat-4-2", "cat-4-3", "dg-3", "generic-3", "hankel-3",
             "hankel-4", "sc-3", "subhankel-3", "subhankel-4", "subhankel-5",
             "subhankel-6", "symmetric-3")
SETUP_REPS = 3          # at least; cheap set-ups repeat until SETUP_MIN_S
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 25
MIN_SAMPLES = 3
RUN_LIMIT_S = 170  # every child is killed before the whole run reaches this

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_bytes": "B"}


class BenchError(Exception):
    pass


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in output order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += list(TICKS.values()) + list(TIMES) + list(CALLS)
    names += ["groebner.gb_hit_ratio", "groebner.cached_serve_s",
              "groebner.basis_size_max", "linalg.rank_useful_ratio",
              "groebner.cache_files", "groebner.cache_bytes"]
    names += [f"casebook.{sid}.wall_s" for sid in SCENARIOS]
    return names + ["trace_overhead_ratio"]


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.dir = WORK / f"run-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("DETLAB_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.count = 0

    def child(self, phase: str, cache_dir=None, fill=False, trace=False) -> dict:
        self.count += 1
        out = self.dir / f"result-{self.count}.json"
        req = {"workload": self.args.workload, "seed": self.args.seed,
               "phase": phase, "cache_dir": cache_dir and str(cache_dir),
               "fill": fill, "trace": trace, "spawned": time.monotonic()}
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(req), str(out)],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{phase} child exceeded the {RUN_LIMIT_S} s run limit")
        if proc.returncode != 0:
            raise BenchError(f"{phase} child exited with code {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))

    def setup(self) -> tuple[list[dict], Path | None]:
        warm = self.args.workload == "casebook-warm"
        results, cache = [], None
        t0 = time.monotonic()
        while len(results) < SETUP_REPS or (
                len(results) < SETUP_MAX_REPS and time.monotonic() - t0 < SETUP_MIN_S):
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)  # keep the last fill only
            cache = self.dir / f"fill-{len(results)}" if warm else None
            results.append(self.child("setup", cache_dir=cache, fill=warm))
        return results, cache

    def samples(self, warm_cache) -> tuple[list[dict], list[dict]]:
        deadline = time.monotonic() + self.args.seconds
        plain, traced = [], []
        while True:
            trace = self.args.trace and len(traced) <= len(plain)
            if self.args.workload == "casebook-cold":
                cache = self.dir / f"cold-{self.count}"
            else:
                cache = warm_cache
            t0 = time.monotonic()
            res = self.child("sample", cache_dir=cache, trace=trace)
            last = time.monotonic() - t0
            if self.args.workload == "casebook-cold":
                shutil.rmtree(cache, ignore_errors=True)
            (traced if trace else plain).append(res)
            enough = (len(plain) >= 1 and len(traced) >= 1 if self.args.trace
                      else len(plain) >= MIN_SAMPLES)
            if enough and time.monotonic() + last > deadline:
                return plain, traced


def end_to_end(setups, plain) -> dict:
    m = {k: median(s[k] for s in plain) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    m["setup_s"] = median(s["setup_s"] for s in setups)
    return m


def per_layer(plain, traced) -> dict:
    m = {}
    for name in per_layer_names()[:-1]:
        sid = name[len("casebook."):-len(".wall_s")]
        if sid in SCENARIOS:
            m[name] = median(t["walls"].get(sid, 0.0) for t in traced)
        else:
            m[name] = median(t["layer"][name] for t in traced)
    m["trace_overhead_ratio"] = (median(t["wall_s"] for t in traced)
                                 / median(p["wall_s"] for p in plain))
    return m


def write_trace(args, machine, metrics, traced) -> Path:
    millis: dict = {}
    for t in traced:
        src = t["millis"] or {k: v * 1000 for k, v in t["walls"].items()}
        for k, v in src.items():
            millis.setdefault(k, []).append(v)
    slowest = sorted(((k, median(v)) for k, v in millis.items()),
                     key=lambda kv: -kv[1])
    doc = {"workload": args.workload, "seed": args.seed, "machine": machine,
           "per_layer": metrics,
           "millis": [{"id": k, "millis": v} for k, v in slowest],
           "samples": [t["trace"] for t in traced]}
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=94089)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "detlab" / "__init__.py").is_file():
        print(f"error: detlab sources not found under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM raise SystemExit, so that subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir(str(SRC), quiet=1)
    runner = Runner(args)
    runner.dir.mkdir(parents=True, exist_ok=True)
    try:
        setups, warm_cache = runner.setup()
        plain, traced = runner.samples(warm_cache)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    machine = machine_info()
    runs = setups + plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "samples": len(plain),
        "traced_samples": len(traced), "setups": len(setups),
        "fail_ratio": f"{failed}/{attempted}",
        "wall_s": [p["wall_s"] for p in plain],
        "wall_raw_s": [p["wall_raw_s"] for p in plain],
        "setup_raw_s": median(s["setup_raw_s"] for s in setups)}))
    if args.trace:
        values = per_layer(plain, traced)
        names = per_layer_names()
        path = write_trace(args, machine, values, traced)
        print(f"trace written to {path.relative_to(ROOT)}")
        slowest = json.loads(path.read_text(encoding="utf-8"))["millis"][:5]
        print("slowest: " + ", ".join(f"{s['id']} {s['millis']:.0f} ms" for s in slowest))
        metrics = {n: {"value": values[n], "unit": unit_of(n)} for n in names}
    else:
        values = end_to_end(setups, plain)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
