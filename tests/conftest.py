import os
import random
import sys

import pytest
from hypothesis import core as hypothesis_core

sys.path.insert(0, os.path.dirname(__file__))

from detlab import polar
from detlab.config import Config
from detlab.groebner import Ideal
from detlab.structmat import build_structured, determinant, minors_ideal_gens


def pytest_configure(config):
    # a fresh Hypothesis seed for every run, unless --hypothesis-seed gives
    # one: the run prints it, and passing it back replays the run's draws
    if config.getoption("--hypothesis-seed", None) is None:
        hypothesis_core.global_force_seed = random.getrandbits(32)


def pytest_report_collectionfinish(config):
    # after the collection line of the header, printed under -q too
    seed = hypothesis_core.global_force_seed
    return f"hypothesis seed: {seed} (replay with --hypothesis-seed={seed})"


def pytest_collection_modifyitems(config, items):
    if os.environ.get("DETLAB_LONG") == "1":
        return
    skip = pytest.mark.skip(reason="long-budget check; enable with DETLAB_LONG=1")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def cfg():
    return Config(seed=424243)


@pytest.fixture(scope="session")
def subhankel_record():
    """Builds the polar record of the order-n sub-Hankel determinant, the
    object every sub-Hankel check reads; each call gives a fresh record."""
    def build(n, config=None):
        return polar.polar_data(determinant(build_structured("sub-hankel", n=n)), config)
    return build


@pytest.fixture(scope="session")
def hankel_record():
    """Builds the Hankel record of order m, the objects every bracket and
    filtration check reads: the matrix H, the polar record of its
    determinant and the submaximal minor ideal P; each call gives a fresh
    record."""
    def build(m, config=None):
        H = build_structured("hankel", m=m)
        P = Ideal(H.ring, minors_ideal_gens(H, m - 1))
        return H, polar.polar_data(determinant(H), config), P
    return build
