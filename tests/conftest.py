"""Shared fixtures: one calibrated plan and wavelet per parameter cell
used across the suite. Session scope, because calibration and the
high-precision mother construction dominate test runtime. Also the
helpers the process-pool tests share, and the reference versions that
faster library routes must equal."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from qwave.qgrid import BesselParams, GridFunction, QGrid, build_grid
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


def line_read_function(path):
    """qgrid.read_function as it was first written. The reference whose
    values (bit for bit) or ValueError message the library's reader
    must give on every input. It parses the CSV with the library's own
    line loop, and differs from the library in the rest: it finds the
    sidecar by os.path.realpath, where the library walks only the CSV's
    own links, and reads both files through text-mode opens, where the
    library reads the bytes unbuffered and decodes them at once."""
    real = os.path.realpath(path)
    root, _ = os.path.splitext(real)
    if root + ".json" == real:
        raise ValueError(f"{path} is its own sidecar; give the CSV "
                         "another extension than .json")
    with open(root + ".json", "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError("sidecar is not a JSON object")
    for key, kind, want in (("q", (int, float), "a real number"),
                            ("n_low", int, "an int"),
                            ("n_high", int, "an int")):
        if key not in desc:
            raise ValueError(f"sidecar lacks key {key!r}")
        if not isinstance(desc[key], kind) or isinstance(desc[key], bool):
            raise ValueError(
                f"sidecar key {key!r} must be {want}, got {desc[key]!r}")
    grid = QGrid(desc["q"], desc["n_low"], desc["n_high"])
    vals = np.zeros(grid.size)
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "n,value":
            raise ValueError(f"unexpected header {header!r} in {path}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            n_str, v_str = line.split(",")
            n = int(n_str)
            if n in seen:
                raise ValueError(f"index {n} listed twice")
            seen.add(n)
            vals[grid.pos(n)] = float(v_str)
    return GridFunction(grid, vals)


def plan_kernel(plan):
    """The plan's kernel matrix M itself, rebuilt exactly from its
    column-scaled array: column j times 2^k_j."""
    return np.ldexp(plan.scaled_kernel, plan.kernel_exponents)


def set_cpus(monkeypatch, n):
    """Make parallel_map see n CPUs in the affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def exit_abruptly(*args):
    """A worker function that kills its process."""
    os._exit(3)


def nan_ratio_for(probe, report):
    """report (uncertainty_report), with a nan ratio for the plane of
    probe. The plane is found by its input's values, so that a forked
    worker finds it too."""
    def patched(plane):
        r = report(plane)
        if np.array_equal(plane.f.values, probe.values):
            r = dataclasses.replace(r, ratio=math.nan)
        return r
    return patched


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
