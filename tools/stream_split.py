"""Milliseconds per operation for each stage of the transform-stream
benchmark's operation, run in this process on the benchmark's own seeded
inputs (bench/workloads.py's TransformStream set-up).

An operation reads one input CSV, transforms it, takes its wavelet
transform over every scale and writes the transform. The stages are:

    read      qgrid.read_function
    fourier   qtransform.q_bessel_fourier
    spectrum  the call inside qwavelet.cwt that gives the input's
              spectrum array, qwavelet's spectrum
    rows      the rest of qwavelet.cwt: the scale rows and the Scaleogram
    write     qgrid.write_function

Under the spectrum stage it prints the part of it spent inside dd_dot
and dd_round, timed by wrappers on the names qtransform imports.

Each stage is timed with time.perf_counter around its own call; spectrum
is timed by a wrapper on that name in qwavelet, and rows is cwt's time
less that. The script prints the median and mean ms per op of every
stage, and a digest of the outputs and scaleograms so that two trees can
be compared bit for bit.

    python tools/stream_split.py [--src TREE/src] [--seed N] [--passes P]

--src imports qwave from another tree, which must have the names the
script wraps: qwavelet.spectrum, TransformPlan.float_transform
and qtransform's dd_dot and dd_round. The inputs and outputs go to a
temporary directory that is removed at the end.
"""

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("read", "fourier", "spectrum", "rows", "write")
# qtransform's imported names whose time inside the spectrum stage is
# printed under it
INNER = ("dd_dot", "dd_round")


def spectrum_counter(TransformPlan):
    """Wrap TransformPlan's transform routes to count spectrum outputs:
    returns a dict whose "outputs" counts every output that
    float_transform was asked for and "mp" every output that went
    through mp_transform."""
    counts = {"outputs": 0, "mp": 0}
    mp_transform = TransformPlan.mp_transform
    float_transform = TransformPlan.float_transform

    def counted_mp(self, values, s_lo, s_hi, dps):
        counts["mp"] += max(0, s_hi - s_lo + 1)
        return mp_transform(self, values, s_lo, s_hi, dps)

    def counted_float(self, values, s_lo, s_hi, dps):
        counts["outputs"] += max(0, s_hi - s_lo + 1)
        return float_transform(self, values, s_lo, s_hi, dps)

    TransformPlan.mp_transform = counted_mp
    TransformPlan.float_transform = counted_float
    return counts


def certified_line(counts):
    """'certified C of N spectrum outputs, M through mp_transform'."""
    kept = counts["outputs"] - counts["mp"]
    return (f"certified {kept} of {counts['outputs']} spectrum outputs "
            f"({100.0 * kept / max(counts['outputs'], 1):.1f}%), "
            f"{counts['mp']} through mp_transform")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=10,
                        help="passes over the 30-input pool (default 10)")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy as np
    from qwave import qgrid, qtransform, qwavelet
    from workloads import TransformStream

    spent = {}

    def timed(module, name, key):
        """Wrap module.name to add its time to spent[key]."""
        func = getattr(module, name)

        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                return func(*a, **kw)
            finally:
                spent[key] += time.perf_counter() - t0

        spent[key] = 0.0
        setattr(module, name, wrapper)

    timed(qwavelet, "spectrum", "spectrum")
    for name in INNER:
        timed(qtransform, name, name)
    counts = spectrum_counter(qtransform.TransformPlan)
    times = {stage: [] for stage in STAGES + INNER}
    digest = hashlib.sha256()
    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as tmp:
        stream = TransformStream()
        stream.setup(args.seed, Path(tmp))
        plan, spec = stream.plan, stream.spec
        counts.update(outputs=0, mp=0)
        for p in range(args.passes):
            for path_in, path_out in zip(stream.inputs, stream.outputs):
                t0 = clock()
                f = qgrid.read_function(str(path_in))
                t1 = clock()
                F = qtransform.q_bessel_fourier(f, plan)
                t2 = clock()
                spent.update(dict.fromkeys(spent, 0.0))
                coeffs = qwavelet.cwt(f, spec).coeffs
                t3 = clock()
                qgrid.write_function(F, str(path_out))
                t4 = clock()
                spent.update(read=t1 - t0, fourier=t2 - t1, write=t4 - t3,
                             rows=t3 - t2 - spent["spectrum"])
                for stage, dt in spent.items():
                    times[stage].append(1e3 * dt)
                if p == 0:
                    digest.update(path_out.read_bytes())
                    digest.update(np.ascontiguousarray(
                        coeffs, dtype="<f8").tobytes())
    ops = len(times["read"])
    print(f"{ops} ops, seed {args.seed}, qwave from {args.src}")
    print(f"{'stage':<9} {'p50 ms':>8} {'mean ms':>8}")
    for stage in STAGES:
        print(f"{stage:<9} {statistics.median(times[stage]):8.3f} "
              f"{statistics.fmean(times[stage]):8.3f}")
        if stage == "spectrum":
            for name in INNER:
                print(f"  {name:<9} {statistics.median(times[name]):6.3f} "
                      f"{statistics.fmean(times[name]):8.3f}")
    total = [sum(parts) for parts in zip(*(times[s] for s in STAGES))]
    print(f"{'op':<9} {statistics.median(total):8.3f} "
          f"{statistics.fmean(total):8.3f}")
    print(certified_line(counts))
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
