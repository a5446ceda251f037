"""Run configuration, reproducible seeding, and computation budgets.

Every report embeds the full config; identical config + version must give
identical output, so all randomness flows through seeded generators derived
from (seed, tag).
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, asdict

from .modp import PRIME_31

DEFAULT_SEED = 94089
DEFAULT_STEP_CAP = 2_000_000
# fields of two knobs that no computation read, "prime" and "output": every
# report still records their old defaults, so reports stay comparable
_RECORDED = {"prime": PRIME_31, "output": "text"}


class ComputationTimeout(Exception):
    """A budgeted computation exceeded its step cap or wall-clock deadline."""

    def __init__(self, what: str = "computation"):
        super().__init__(f"{what}: budget exceeded")
        self.what = what


class Budget:
    """Step counter plus optional wall-clock deadline, and the Config it was
    built from (`DEFAULT_CONFIG` unless given).  One Budget meters a casebook
    fact or a CLI command; the computations under it read the GB cache
    directory from its config.  `tick` raises ComputationTimeout rather than
    ever returning a wrong answer; callers that promise a Timeout *result*
    catch it.
    """

    __slots__ = ("step_cap", "steps", "deadline", "config", "_timecheck")

    def __init__(self, timeout_secs: float | None = None, step_cap: int | None = None,
                 config: "Config | None" = None):
        self.config = config if config is not None else DEFAULT_CONFIG
        self.step_cap = step_cap
        self.steps = 0
        self.deadline = None if timeout_secs is None else time.monotonic() + timeout_secs
        self._timecheck = 0

    def share(self, timeout_secs: float | None = None, step_cap: int | None = None) -> "Budget":
        """A meter of its own for a bounded attempt under this budget: its
        own step count and cap, the same config, and a deadline no later
        than this one's (now + timeout_secs, when given, if that is earlier)."""
        sub = Budget(timeout_secs, step_cap, self.config)
        if self.deadline is not None and (sub.deadline is None or self.deadline < sub.deadline):
            sub.deadline = self.deadline
        return sub

    def tick(self, n: int = 1, what: str = "computation") -> None:
        self.steps += n
        if self.step_cap is not None and self.steps > self.step_cap:
            raise ComputationTimeout(what)
        self._timecheck += 1
        if self.deadline is not None and self._timecheck >= 64:
            self._timecheck = 0
            if time.monotonic() > self.deadline:
                raise ComputationTimeout(what)


def _env_int(name: str, default):
    v = os.environ.get(name)
    return default if v in (None, "") else int(v)


def _env_float(name: str, default):
    v = os.environ.get(name)
    return default if v in (None, "") else float(v)


@dataclass
class Config:
    seed: int = DEFAULT_SEED
    timeout_secs: float | None = None
    gb_step_cap: int = DEFAULT_STEP_CAP
    cache_dir: str | None = None

    @classmethod
    def from_env(cls, **overrides) -> "Config":
        kw = dict(
            seed=_env_int("DETLAB_SEED", DEFAULT_SEED),
            timeout_secs=_env_float("DETLAB_TIMEOUT_SECS", None),
            gb_step_cap=_env_int("DETLAB_GB_STEP_CAP", DEFAULT_STEP_CAP),
            cache_dir=os.environ.get("DETLAB_CACHE_DIR") or None,
        )
        kw.update(overrides)
        return cls(**kw)

    def budget(self) -> Budget:
        return Budget(self.timeout_secs, self.gb_step_cap, self)

    def rng(self, tag: str) -> random.Random:
        """Deterministic per-purpose generator derived from (seed, tag)."""
        h = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return random.Random(int.from_bytes(h[:8], "big"))

    def to_dict(self) -> dict:
        """The fields as a casebook report records them."""
        return {**asdict(self), **_RECORDED}


DEFAULT_CONFIG = Config()
