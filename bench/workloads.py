"""The benchmark's workloads: inputs from a seed, the timed steps, the checks.

Runs inside a fresh interpreter per sample (see `child.py`), because
`groebner._MEMORY_CACHE` and `casebook.registry()` are process-global.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
CASEBOOK_REFERENCE = REFERENCE / "casebook-no-timings.json"
CAT43_REFERENCE = REFERENCE / "cat43-colon.json"

CAT43 = "cat43-colon"

# cat43-colon: the seed draws CAT43_STEPS of the 35 prime generators whose
# recorded colon costs add up to CAT43_TARGET_S within CAT43_TOLERANCE, so
# every seed asks for about the same work (single steps cost 0.04 s to 17 s);
# many short steps give the child many calibration points
CAT43_STEPS = 4
CAT43_TARGET_S = 3.0
CAT43_TOLERANCE = 0.02


# ---------------------------------------------------------------------------
# casebook-cold / casebook-warm

class Casebook:
    """All 13 scenarios with their default facts, in the seed's order; one
    step is one `run_scenario` call, as `casebook run` makes it."""

    def __init__(self, seed: int, cache_dir: str):
        from detlab.casebook import registry
        from detlab.config import Config
        self.order = sorted(registry())
        random.Random(f"casebook:{seed}").shuffle(self.order)
        self.config = Config(seed=seed, cache_dir=cache_dir)
        self.reports: dict = {}

    def steps(self):
        return [(sid, functools.partial(self._run, sid)) for sid in self.order]

    def _run(self, sid: str) -> None:
        from detlab import casebook
        self.reports[sid] = casebook.run_scenario(sid, config=self.config)

    def check(self) -> tuple[int, int]:
        return check_casebook(self.reports)

    def millis(self) -> dict[str, float]:
        return {rec.anchor: rec.millis
                for rep in self.reports.values() for rec in rep.records}


def casebook_text(reports: dict) -> str:
    """`casebook run --json --no-timings` output with the default seed and
    no cache directory in the embedded config, so that every seed and cache
    location is compared with the one reference."""
    from detlab.config import DEFAULT_SEED
    parts = []
    for sid in sorted(reports):
        rep = reports[sid]
        rep = dataclasses.replace(
            rep, config={**rep.config, "seed": DEFAULT_SEED, "cache_dir": None})
        parts.append(rep.to_json(no_timings=True) + "\n")
    return "".join(parts)


def _reference_facts(text: str) -> dict:
    dec = json.JSONDecoder()
    out, pos = {}, 0
    while pos < len(text):
        doc, pos = dec.raw_decode(text, pos)
        for f in doc["facts"]:
            out[(doc["scenario"], f["anchor"])] = f
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


def check_casebook(reports: dict) -> tuple[int, int]:
    """(attempted, failed) facts.  A fact fails when its no-timings record
    differs from the reference (so also when it is not a match); the whole
    text must also be byte-identical, else at least one failure counts."""
    ref_text = CASEBOOK_REFERENCE.read_text(encoding="utf-8")
    want = _reference_facts(ref_text)
    got = {(sid, rec.anchor): {**rec.to_dict(), "millis": 0}
           for sid, rep in reports.items() for rec in rep.records}
    keys = want.keys() | got.keys()
    failed = sum(1 for k in keys if got.get(k) != want.get(k))
    if failed == 0 and casebook_text(reports) != ref_text:
        failed = 1
    return len(keys), failed


# ---------------------------------------------------------------------------
# cat43-colon

def choose_generators(seed: int, costs: list[float]) -> list[int]:
    """Seeded draw of CAT43_STEPS generator indices near the cost target."""
    rng = random.Random(f"cat43-colon:{seed}")
    idx = list(range(len(costs)))
    lo = CAT43_TARGET_S * (1 - CAT43_TOLERANCE)
    hi = CAT43_TARGET_S * (1 + CAT43_TOLERANCE)
    for _ in range(100_000):
        pick = rng.sample(idx, CAT43_STEPS)
        if lo <= sum(costs[i] for i in pick) <= hi:
            return pick
    raise RuntimeError("no generator subset meets the cost target")


def cat43_ideals():
    """Gradient ideal J of the 4x4 three-leap catalecticant and the
    generators of the rectangular-minor prime, as the cat-4-3 colon fact
    builds them."""
    from detlab.groebner import Ideal
    from detlab.structmat import (build_gp_associated, build_structured,
                                  determinant, minors_ideal_gens)
    C = build_structured("catalecticant", m=4, r=3)
    f = determinant(C)
    J = Ideal(C.ring, [f.diff(i) for i in range(C.ring.nvars)])
    P = Ideal(C.ring, minors_ideal_gens(build_gp_associated(4, 3), 3))
    return J, P.gens


class Cat43Colon:
    """`colon_poly(J, g)` and the running `intersect`, as `colon(J, P)` does
    them, for the seed's generators g of P; one step per generator."""

    def __init__(self, seed: int):
        from detlab.config import Config
        from detlab.polyring import format_polynomial
        self.seed = seed
        self.ref = json.loads(CAT43_REFERENCE.read_text(encoding="utf-8"))
        self.J, gens = cat43_ideals()
        table = self.ref["generators"]
        if [format_polynomial(g) for g in gens] != [t["poly"] for t in table]:
            raise RuntimeError("cat-4-3 prime generators differ from the reference table")
        pick = choose_generators(seed, [t["cost_s"] for t in table])
        self.chosen = [(i, gens[i]) for i in pick]
        self.config = Config(seed=seed)
        self.done: list = []
        self.acc = None

    def steps(self):
        return [(f"g{i}", functools.partial(self._run, i, g)) for i, g in self.chosen]

    def _run(self, i: int, g) -> None:
        from detlab import groebner
        c = groebner.colon_poly(self.J, g, config=self.config)
        self.acc = c if self.acc is None else groebner.intersect(self.acc, c, config=self.config)
        self.done.append((i, g, c))

    def check(self) -> tuple[int, int]:
        return check_cat43(self.config, self.J, self.done, self.acc, self.seed, self.ref)

    def millis(self) -> dict[str, float]:
        return {}


def make(workload: str, seed: int, cache_dir):
    """The workload object: `steps()`, then `check()` and `millis()`."""
    if workload == CAT43:
        return Cat43Colon(seed)
    return Casebook(seed, cache_dir)


def basis_digest(ideal, config) -> str:
    """sha256 of the reduced grevlex basis, which is canonical for the ideal."""
    from detlab.polyring import format_polynomial
    gb = ideal.groebner_basis(None, config=config)
    return hashlib.sha256("\n".join(format_polynomial(g) for g in gb).encode()).hexdigest()


def check_cat43(config, J, steps, acc, seed: int, ref: dict) -> tuple[int, int]:
    """(attempted, failed): one per colon step, one for the intersection.

    Each step must satisfy g*(J:g) in J and J in J:g and match the recorded
    basis digest; the intersection must contain J and be killed into J by
    every chosen g, and match the recorded digest for the reference seed."""
    table = ref["generators"]
    failed = 0
    for i, g, c in steps:
        ok = (basis_digest(c, config) == table[i]["digest"]
              and all(J.contains(g * h, config=config) for h in c.gens)
              and c.contains_ideal(J, config=config))
        failed += not ok
    ok = acc.contains_ideal(J, config=config) and all(
        J.contains(g * h, config=config) for _, g, _ in steps for h in acc.gens)
    if seed == ref["reference_seed"]:
        ok = ok and basis_digest(acc, config) == ref["reference_digest"]
    failed += not ok
    return len(steps) + 1, failed
