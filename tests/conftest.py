"""Shared fixtures: one calibrated plan and wavelet per parameter cell
used across the suite. Session scope, because calibration and the
high-precision mother construction dominate test runtime. Also the
helpers the process-pool tests share."""

import math
import os

import pytest

from qwave.qgrid import BesselParams, build_grid
from qwave.qtransform import make_plan
from qwave.qwavelet import GATE_REL_TAIL, GATE_RUN, operator_mother


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def eager_gated_scale_sum(contrib):
    """The gated scale sum as written before it took bounds: every
    contribution {m: value} is computed first, then the walk. The
    reference that qwavelet.gated_scale_sum must equal bit for bit,
    whatever its bounds. Returns (total, set of scales summed)."""
    mpeak = max(sorted(contrib), key=lambda m: contrib[m])
    used = [mpeak]
    total = contrib[mpeak]
    for step in (1, -1):
        falling = 0
        m = mpeak
        while True:
            m += step
            if m not in contrib:
                break
            if contrib[m] < GATE_REL_TAIL * total:
                falling += 1
                if falling >= GATE_RUN:
                    break
            else:
                falling = 0
                used.append(m)
                total += contrib[m]
    return math.fsum(contrib[m] for m in used), set(used)


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


# Two cells of the sweep grid [-160, 320] (N = 481): at q = 0.3,
# v = (0.5, 0.25) b^2 w(b) overflows float64 and I_R's term takes its
# overflow-safe branch; q = 0.5, v = (0, 0) is where a whole-matrix
# Cauchy-Schwarz bound on the exact transform failed on a mean-free probe.
@pytest.fixture(scope="session")
def spec_sweep_deep():
    return operator_mother(make_plan(build_grid(0.3, -160, 320),
                                     BesselParams(0.5, 0.25)))


@pytest.fixture(scope="session")
def spec_sweep00():
    return operator_mother(make_plan(build_grid(0.5, -160, 320),
                                     BesselParams(0.0, 0.0)))
