"""Shared fixtures: one calibrated plan and wavelet per parameter cell
used across the suite. Session scope, because calibration and the
high-precision mother construction dominate test runtime. Also the
helpers the process-pool tests share."""

import os

import pytest

from qwave.qgrid import BesselParams, build_grid
from qwave.qtransform import make_plan
from qwave.qwavelet import operator_mother


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def set_cpus(monkeypatch, n):
    """Make parallel_map see n CPUs in the affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def exit_abruptly(*args):
    """A worker function that kills its process."""
    os._exit(3)


@pytest.fixture(scope="session")
def grid00():
    return build_grid(0.5, -20, 40)


@pytest.fixture(scope="session")
def plan00(grid00):
    return make_plan(grid00, BesselParams(0.0, 0.0))


@pytest.fixture(scope="session")
def spec00(plan00):
    return operator_mother(plan00)


@pytest.fixture(scope="session")
def plan_shifted():
    # beta != 0 exercises the dual-lattice kernel sampling
    return make_plan(build_grid(0.5, -20, 40), BesselParams(0.5, 0.25))


@pytest.fixture(scope="session")
def spec_shifted(plan_shifted):
    return operator_mother(plan_shifted)
