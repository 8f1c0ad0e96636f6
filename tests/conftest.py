import copy
import importlib.util
from pathlib import Path

import pytest

from ptdyson import validation

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def workloads():
    """bench/workloads.py, imported without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def record():
    """A deep copy of the gate's pinned record, free to change in a test."""
    return copy.deepcopy(validation.REFERENCE_CONFIG)
