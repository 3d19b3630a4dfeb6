"""Shared fixtures for the test suite.

Tests run tiny transfers (tens to hundreds of KB) — enough to exercise
every code path in seconds; the benchmarks run the paper-scale 40 MB
workloads.  Reusable helpers live in tests/_support.py.
"""

from __future__ import annotations

import pytest

from repro.simnet import topology
from repro.simnet.engine import Simulator
from repro.simnet.topology import Network

try:
    from hypothesis import settings as _hypothesis_settings

    # print_blob=True makes a failing property print its
    # @reproduce_failure blob in the CI log, so a stall/recovery
    # regression found by a random seed can be replayed exactly.
    _hypothesis_settings.register_profile("repro", print_blob=True)
    # CI's dataset job runs the folded-trailer properties under this
    # (``--hypothesis-profile=dataset-ci``); tier-1 keeps the default.
    _hypothesis_settings.register_profile(
        "dataset-ci", _hypothesis_settings.get_profile("repro"),
        max_examples=1_000)
    _hypothesis_settings.load_profile("repro")
except ImportError:  # hypothesis is an optional test dependency
    pass


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def short_net() -> Network:
    return topology.short_haul(seed=0)


@pytest.fixture
def long_net() -> Network:
    return topology.long_haul(seed=0)
