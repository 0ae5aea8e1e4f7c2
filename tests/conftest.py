import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports ogpkit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def d3_catalog():
    """The depth-3 catalog of the catalog-d3 benchmark workload."""
    from ogpkit.harness import Bounds, enumerate_catalog

    return enumerate_catalog(Bounds(depth=3, max_dim=4, max_elements=12))
