import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from detlab.config import Config


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
