"""Checks of the benchmark's tracer and of the work counts it reports.

    python3 -m pytest bench/test_bench.py -q

The traced runs start `run.py` as a subprocess with `--seconds 1` (one
traced and one untraced sample after the set-ups); all tests together take
about three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 5
LAYERS = ("casebook", "groebner", "syzygy", "structmat", "linalg", "polyring",
          "polar", "hankelplucker", "subhankel", "modp")

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def traced_run(workload: str) -> tuple[dict, dict]:
    """(per-layer metrics, trace document) of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    trace_path = ROOT / ".bench_work" / f"trace-{workload}-seed{SEED}.json"
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return {k: v["value"] for k, v in result["metrics"].items()}, trace


_FIRST: dict = {}


def first_run(workload: str) -> tuple[dict, dict]:
    if workload not in _FIRST:
        _FIRST[workload] = traced_run(workload)
    return _FIRST[workload]


def test_wrappers_replace_from_imports_and_restore():
    import detlab.casebook as casebook
    import detlab.groebner as groebner
    import detlab.structmat as structmat
    from detlab.config import Budget
    from tracer import Tracer
    originals = (casebook.colon, casebook.determinant, Budget.tick)
    t = Tracer()
    t.install()
    try:
        assert casebook.colon is groebner.colon
        assert casebook.colon.__wrapped__ is originals[0]
        assert casebook.determinant is structmat.determinant
        assert casebook.determinant.__wrapped__ is originals[1]
        assert Budget.tick is not originals[2]
    finally:
        t.uninstall()
    assert (casebook.colon, casebook.determinant, Budget.tick) == originals


@pytest.mark.parametrize("workload,layers", [
    ("casebook-cold", LAYERS),
    ("casebook-warm", ("casebook", "groebner", "syzygy", "structmat", "linalg",
                       "polyring", "polar", "modp")),
    ("cat43-colon", ("groebner", "polyring")),
])
def test_spans_load_their_layers(workload, layers):
    m, _ = first_run(workload)
    for layer in layers:
        assert m[f"{layer}.self_s"] > 0, layer
    if workload == "casebook-cold":
        for name in ("groebner.gb_computed", "groebner.buchberger_s",
                     "structmat.det_calls", "structmat.det_s", "linalg.rows_added",
                     "syzygy.fitting_s", "syzygy.rees_kernel_s", "polar.verdict_s",
                     "polyring.format_calls", "groebner.cache_files"):
            assert m[name] > 0, name
    elif workload == "casebook-warm":
        assert m["groebner.gb_computed"] == 0
        assert m["groebner.buchberger_s"] == 0
        assert m["groebner.spairs"] == 0
        assert m["groebner.cached_serve_s"] > 0
        assert m["polyring.parse_calls"] > 0
    else:
        assert m["groebner.colon_s"] > 0 and m["groebner.intersect_s"] > 0
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert m["groebner.self_s"] > 0.5 * total


@pytest.mark.parametrize("workload", ["casebook-cold", "casebook-warm", "cat43-colon"])
def test_work_counts_repeat(workload):
    first_m, first_trace = first_run(workload)
    second_m, second_trace = traced_run(workload)
    ticks = [s["ticks"] for s in first_trace["samples"] + second_trace["samples"]]
    assert all(t == ticks[0] for t in ticks[1:])
    for name in ("groebner.gb_computed", "groebner.gb_requests", "linalg.rows_added",
                 "structmat.det_calls", "polyring.mul_calls"):
        assert first_m[name] == second_m[name], name


def test_metric_names_match_benchmark_json():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
