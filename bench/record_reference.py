"""Record the benchmark's reference outputs from the current source tree.

    python3 bench/record_reference.py

Writes `reference/casebook-no-timings.json` (the output of
`detlab casebook run --json --no-timings` with the default config) and
`reference/cat43-colon.json` (per prime generator: its text, the colon's
basis digest and its cost in calibrated seconds, see child.py, the median
of three fresh processes; plus the digest of the reference seed's
intersection).  The costs only weight the seeded choice of generators, so
re-recording them changes which generators a seed picks.  Re-record only
when a change to the program's output is intended.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPS = 3


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DETLAB_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _costs() -> None:
    """Child: colon cost of every generator, in generator order, as JSON."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from detlab.config import Config
    from detlab.groebner import colon_poly
    from child import CAL_REF_S, calibrate
    from workloads import cat43_ideals
    config = Config()
    J, gens = cat43_ideals()
    J.groebner_basis(None, config=config)
    out = []
    before = calibrate()
    for g in gens:
        t0 = time.perf_counter()
        colon_poly(J, g, config=config)
        wall = time.perf_counter() - t0
        after = calibrate()
        out.append(wall * CAL_REF_S / statistics.mean((before, after)))
        before = after
    print(json.dumps(out))


def main() -> None:
    ref = BENCH / "reference"
    ref.mkdir(exist_ok=True)
    cli = subprocess.run([sys.executable, "-m", "detlab.cli", "casebook", "run",
                          "--json", "--no-timings"], env=_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True)
    (ref / "casebook-no-timings.json").write_text(cli.stdout, encoding="utf-8")

    runs = [json.loads(subprocess.run([sys.executable, __file__, "--costs"],
                                      env=_env(), capture_output=True, text=True,
                                      check=True).stdout) for _ in range(REPS)]
    sys.path.insert(0, str(ROOT / "src"))
    from detlab.config import DEFAULT_SEED, Config
    from detlab.groebner import colon_poly, intersect
    from detlab.polyring import format_polynomial
    from workloads import basis_digest, cat43_ideals, choose_generators
    config = Config()
    J, gens = cat43_ideals()
    table = []
    for i, g in enumerate(gens):
        table.append({"poly": format_polynomial(g),
                      "cost_s": round(statistics.median(r[i] for r in runs), 3),
                      "digest": basis_digest(colon_poly(J, g, config=config), config)})
    acc = None
    for i in choose_generators(DEFAULT_SEED, [t["cost_s"] for t in table]):
        c = colon_poly(J, gens[i], config=config)
        acc = c if acc is None else intersect(acc, c, config=config)
    doc = {"reference_seed": DEFAULT_SEED,
           "reference_digest": basis_digest(acc, config),
           "generators": table}
    (ref / "cat43-colon.json").write_text(json.dumps(doc, indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--costs"]:
        _costs()
    else:
        main()
