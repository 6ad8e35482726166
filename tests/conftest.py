"""Shared fixtures for the test suite."""

from __future__ import annotations

import atexit
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from repro.ir.builder import LoopBuilder
from repro.machine.presets import four_cluster, two_cluster, unified
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.kernels import daxpy, dot_product, recurrence_chain, stencil5

# Tier-1 is deterministic and side-effect free: every run draws the same
# examples, and no example database is written under ``.hypothesis/``.
# Each test's own ``max_examples`` still applies.  Hypothesis also caches
# the constants it mines from the tested modules; that cache goes to a
# temporary directory removed at exit.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="repro-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def unified_machine():
    return unified(64)


@pytest.fixture
def two_cluster_machine():
    return two_cluster(64)


@pytest.fixture
def two_cluster_small():
    return two_cluster(32)


@pytest.fixture
def four_cluster_machine():
    return four_cluster(64)


@pytest.fixture
def daxpy_loop():
    return daxpy()


@pytest.fixture
def dot_loop():
    return dot_product()


@pytest.fixture
def stencil_loop():
    return stencil5()


@pytest.fixture
def recurrence_loop():
    return recurrence_chain()


@pytest.fixture
def chain_loop():
    """A pure serial chain: ld -> fmul -> fadd -> fmul -> st."""
    b = LoopBuilder("chain", trip_count=100)
    x = b.load("x")
    a = b.op("fmul", x)
    c = b.op("fadd", a)
    d = b.op("fmul", c)
    b.store(d, "out")
    return b.build()


@pytest.fixture
def wide_loop():
    """A medium synthetic loop that stresses several clusters."""
    return generate_loop(
        "wide", LoopShape(32, mem_ratio=0.3, depth_bias=0.3, trip_count=120), seed=7
    )


@pytest.fixture
def recurrence_heavy_loop():
    return generate_loop(
        "rec_heavy",
        LoopShape(24, mem_ratio=0.3, depth_bias=0.5, recurrences=2, trip_count=90),
        seed=11,
    )
