"""The three benchmark workloads. Each is a closed loop with one caller
in one process: the next operation starts when the previous one ends.

A workload has three steps, called in order by run.py:

- ``setup(seed, work)`` imports qwave and builds everything the timed
  region needs; its time is ``setup_s``.
- ``run(seconds)`` is the timed region. It returns the start and end
  time (``time.perf_counter``) and the outcome of every operation, and
  the number of passes made: a pass is the workload's fixed unit of
  work, and ``wall_s`` is the timed region, in seconds at the reference
  host speed (speed.py), divided by the passes.
- ``check()`` compares outputs with the references recorded in
  references.json, outside the timed region.

``LATENCY_PER`` says what the latency and throughput metrics time: each
operation, or each pass where a run makes a single pass over cells of
very different cost (nine samples of unlike work have no stable median).
Failures are always counted per operation.

Workloads call qwave through module attributes (``qtransform.make_plan``,
not a name imported at load time), so the wrappers a traced run installs
on those attributes see the benchmark's own calls too.

Why each workload exists, and which layers it does and does not load,
is in WORKLOADS.md.
"""

import hashlib
import io
import json
import math
import random
import sys
import time
from collections import namedtuple
from pathlib import Path

REFERENCES = json.loads(
    (Path(__file__).resolve().parent / "references.json").read_text())

ACCEPTANCE_Q = (0.3, 0.5, 0.7)
ACCEPTANCE_V = ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))


def cell_key(q, alpha, beta):
    return f"{q:g},{alpha:g},{beta:g}"


Op = namedtuple("Op", "start end ok")


class _CellClock(io.TextIOBase):
    """Stands in for stdout during ``qwave verify``: the table for each
    cell is written once the cell's checks finish, so the write times
    split the lattice into per-cell latencies."""

    def __init__(self):
        self.stamps = []

    def write(self, text):
        if text.startswith("cell "):
            self.stamps.append(time.perf_counter())
        return len(text)


class VerifyLattice:
    """``qwave verify --out FILE`` over the full 3x3 acceptance lattice,
    in process. One pass is the whole lattice; an operation is a cell.
    The seed does not change the inputs, and the run makes exactly one
    pass whatever ``--seconds`` says, because a second pass would find
    the kernel tables the first one built."""

    LATENCY_PER = "pass"

    def setup(self, seed, work):
        from qwave import qcli
        self.qcli = qcli
        self.out = work / "verify.json"
        self.status = None

    def run(self, seconds):
        clock = _CellClock()
        stdout = sys.stdout
        sys.stdout = clock
        t0 = time.perf_counter()
        try:
            self.status = self.qcli.main(["verify", "--out", str(self.out)])
        except Exception as exc:
            self.status = repr(exc)
        finally:
            sys.stdout = stdout
        t1 = time.perf_counter()
        stamps = [t0] + clock.stamps
        ops = [Op(begin, end, cell["passed"] is True)
               for begin, end, cell in zip(stamps, stamps[1:], self._cells())]
        # A cell that never reported counts as failed, at the pass's time.
        ops += [Op(t0, t1, False)] * (len(ACCEPTANCE_Q) * len(ACCEPTANCE_V) - len(ops))
        return ops, 1

    def _cells(self):
        try:
            return json.loads(self.out.read_text(encoding="utf-8"))["cells"]
        except (OSError, ValueError, KeyError):
            return []

    def check(self):
        want = REFERENCES["verify-lattice"]["sha256"]
        try:
            got = hashlib.sha256(self.out.read_bytes()).hexdigest()
        except OSError:
            got = None
        return {"exit_status": self.status, "sha256": got,
                "sha256_matches": got == want}, got == want and self.status == 0


class UncertaintySweep:
    """The empirical uncertainty constant K_emp for every cell of the
    3x3 (q, v) lattice on the grid [-160, 320] (N = 481), each built the
    way ``qwave uncertainty --sweep`` builds it: make_plan, then
    operator_mother, probe_family and empirical_lower_constant. The seed
    sets the order of the cells. A run always covers all nine, because
    cell costs differ ninefold across the lattice and a partial draw
    would make the run's cost depend on the seed. One pass is the nine
    cells; an operation is a cell, and it fails when it raises or
    returns a non-finite K_emp."""

    LATENCY_PER = "pass"
    N_LOW, N_HIGH = -160, 320

    def setup(self, seed, work):
        from qwave import qgrid, qtransform, qwavelet, uncertainty
        self.qwave = qgrid, qtransform, qwavelet, uncertainty
        self.cells = [(q, a, b) for q in ACCEPTANCE_Q for a, b in ACCEPTANCE_V]
        random.Random(seed).shuffle(self.cells)
        self.results = {}

    def _cell(self, q, alpha, beta):
        qgrid, qtransform, qwavelet, uncertainty = self.qwave
        plan = qtransform.make_plan(
            qgrid.build_grid(q, self.N_LOW, self.N_HIGH),
            qgrid.BesselParams(alpha, beta))
        spec = qwavelet.operator_mother(plan)
        return uncertainty.empirical_lower_constant(
            uncertainty.probe_family(plan), spec)

    def run(self, seconds):
        ops = []
        for q, alpha, beta in self.cells:
            t0 = time.perf_counter()
            try:
                K = self._cell(q, alpha, beta)
            except Exception as exc:
                K = repr(exc)
            ops.append(Op(t0, time.perf_counter(),
                          isinstance(K, float) and math.isfinite(K)))
            self.results[cell_key(q, alpha, beta)] = K
        return ops, 1

    def check(self):
        """A cell with a finite reference must reproduce it to all 17
        digits. A cell whose reference is NaN (the known float64
        overflow at q = 0.3) may stay NaN, which counts as a failed op,
        or become finite and positive once that defect is fixed."""
        refs = REFERENCES["uncertainty-sweep"]["K_emp"]
        detail = {}
        ok = True
        for key, K in self.results.items():
            ref = refs[key]
            if not isinstance(K, float):
                good = False
            elif ref == "nan":
                good = math.isnan(K) or K > 0.0
            else:
                good = "%.17g" % K == ref
            detail[key] = {"K_emp": K if isinstance(K, str) else "%.17g" % K,
                           "matches": good}
            ok = ok and good
        return detail, ok and len(self.results) == len(refs)


class TransformStream:
    """One caller running the README's library pattern on a stream of
    files. Set-up builds one plan and one operator_mother at
    (q, v) = (0.5, (0.5, 0.25)) on the default grid [-20, 40] and writes
    a pool of seeded input CSVs. An operation is read_function,
    q_bessel_fourier, cwt over every scale, write_function. The pool
    holds one input of each support size 3, 5, ..., 61 (dense) in
    seeded order, so every pass has the same mix. Sizes run through the
    whole range rather than a few classes because the median of a few
    classes is one class's median, which jumps by the host's fast/slow
    speed ratio whenever the run's share of slow time crosses one half.
    One pass runs every pool input once; passes repeat until --seconds
    have gone by and at least MIN_OPS operations are done, so that ten
    or more latencies lie beyond p95."""

    LATENCY_PER = "op"
    Q, ALPHA, BETA = 0.5, 0.5, 0.25
    N_LOW, N_HIGH = -20, 40
    # Supports stay at n <= SPARSE_HIGH, or fill [N_LOW, N_LOW + k - 1]
    # when k is larger. Deeper, the spectral window [-20, 40] no longer
    # reaches where the kernel oscillates, so the truncated grid cannot
    # resolve an input whose shallowest point is there and no transform
    # of it can round-trip (an indicator at n = 19 comes back with
    # relative residual 6e-2, at n >= 22 with about 1).
    SPARSE_HIGH = 10
    SIZES = range(3, 62, 2)
    MIN_OPS = 200
    RESIDUAL_TOL = 1e-6

    def setup(self, seed, work):
        from qwave import qgrid, qtransform, qwavelet
        self.qwave = qgrid, qtransform, qwavelet
        self.seed = seed
        self.plan = qtransform.make_plan(
            qgrid.build_grid(self.Q, self.N_LOW, self.N_HIGH),
            qgrid.BesselParams(self.ALPHA, self.BETA))
        self.spec = qwavelet.operator_mother(self.plan)
        rng = random.Random(seed)
        sizes = list(self.SIZES)
        rng.shuffle(sizes)
        self.inputs, self.outputs = [], []
        grid = self.plan.grid
        for i, k in enumerate(sizes):
            top = max(grid.n_low + k - 1, self.SPARSE_HIGH)
            idx = sorted(rng.sample(range(grid.n_low, top + 1), k))
            pairs = [(n, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0))
                     for n in idx]
            path = work / f"in_{i:02d}.csv"
            qgrid.write_function(qgrid.GridFunction.from_pairs(grid, pairs),
                                 str(path))
            self.inputs.append(path)
            self.outputs.append(work / f"out_{i:02d}.csv")
        self.scaleograms = [None] * len(self.inputs)

    def run(self, seconds):
        qgrid, qtransform, qwavelet = self.qwave
        plan, spec = self.plan, self.spec
        ops, passes = [], 0
        start = time.perf_counter()
        while True:
            for i, path in enumerate(self.inputs):
                t0 = time.perf_counter()
                try:
                    f = qgrid.read_function(str(path))
                    F = qtransform.q_bessel_fourier(f, plan)
                    self.scaleograms[i] = qwavelet.cwt(f, spec).coeffs
                    qgrid.write_function(F, str(self.outputs[i]))
                    ok = True
                except Exception:
                    ok = False
                ops.append(Op(t0, time.perf_counter(), ok))
            passes += 1
            if (time.perf_counter() - start >= seconds
                    and len(ops) >= self.MIN_OPS):
                return ops, passes

    def check(self):
        """Every output must double-transform back to its input (the
        transform is an involution once calibrated) and every
        scaleogram must be finite. On the default seed the outputs must
        also reproduce the recorded digest byte for byte."""
        import numpy as np
        read_function = self.qwave[0].read_function
        h = hashlib.sha256()
        worst = 0.0
        ok = True
        for path_in, path_out, coeffs in zip(self.inputs, self.outputs,
                                             self.scaleograms):
            if coeffs is None or not path_out.exists():
                return {"missing_output": str(path_out.name)}, False
            ok = ok and bool(np.all(np.isfinite(coeffs)))
            h.update(path_out.read_bytes())
            h.update(path_out.with_suffix(".json").read_bytes())
            h.update(np.ascontiguousarray(coeffs, dtype="<f8").tobytes())
            f = read_function(str(path_in)).values
            F = read_function(str(path_out)).values
            g = self.plan.fourier_values(F)
            worst = max(worst, math.sqrt(self.plan.norm_sq(g - f)
                                         / self.plan.norm_sq(f)))
        ref = REFERENCES["transform-stream"]
        digest = h.hexdigest()
        detail = {"digest": digest, "max_involution_residual": worst}
        ok = ok and worst < self.RESIDUAL_TOL
        if self.seed == ref["seed"]:
            detail["digest_matches"] = digest == ref["digest"]
            ok = ok and digest == ref["digest"]
        return detail, ok


WORKLOADS = {
    "verify-lattice": VerifyLattice,
    "uncertainty-sweep": UncertaintySweep,
    "transform-stream": TransformStream,
}
