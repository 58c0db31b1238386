"""Rows built and time per probe for the 81 probes of the uncertainty
sweep (nine (q, v) cells on [-160, 320], nine probes each), run in this
process, one probe after another.

The sweep benchmark runs the probes on forked workers, so a traced run
cannot see them; this script can. For each probe it times
uncertainty_report(WaveletPlane(f, spec)) and counts the coefficient
rows that scale_rows builds for it, the scale_rows calls that build
them and the batches of scales that gated_scale_sum asks for over the
probe's three plane integrals, and it prints I_R, its scale set and the
cell's K_emp so that two trees can be compared bit for bit. Per cell
and in total it prints the rows built, the calls, the batches and the
rows summed (I_R's scale set) side by side, so that rows asked for in
advance and never summed show. It also prints how
many spectrum outputs of the mother and of the probes the certified
float route kept, and how many went through TransformPlan.mp_transform
(stream_split.spectrum_counter).

    python tools/sweep_rows.py [--src TREE/src] [--json OUT]

--src imports qwave from another tree, which must have the same
public names (any tree whose wavelet plane keeps its own I_R,
plane.position_moment()).
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

CELLS = [(q, a, b) for q in (0.3, 0.5, 0.7)
         for a, b in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))]
N_LOW, N_HIGH = -160, 320


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parent.parent / "src"))
    parser.add_argument("--json", default=None,
                        help="also write every probe's record here")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from qwave import qwavelet, uncertainty
    from qwave.qgrid import BesselParams, build_grid
    from qwave.qtransform import TransformPlan, make_plan
    from stream_split import certified_line, spectrum_counter

    built = [0, 0, 0]  # rows, scale_rows calls, gate batches
    scale_rows = qwavelet.scale_rows
    gated_scale_sum = qwavelet.gated_scale_sum

    def counted(Ff, spec, scale_indices=None):
        rows = scale_rows(Ff, spec, scale_indices)
        built[0] += len(rows)
        built[1] += 1
        return rows

    def counted_gate(bounds, contributions):
        def batch(ms):
            built[2] += 1
            return contributions(ms)
        return gated_scale_sum(bounds, batch)

    qwavelet.scale_rows = counted
    qwavelet.gated_scale_sum = counted_gate
    counts = spectrum_counter(TransformPlan)
    totals = {part: {"outputs": 0, "mp": 0} for part in ("mother", "probes")}

    def tally(part):
        for key in counts:
            totals[part][key] += counts[key]
        line = certified_line(counts)
        counts.update(outputs=0, mp=0)
        return line
    records = []
    total_rows = total_calls = total_batches = total_summed = 0
    total_scales = 0
    total_time = 0.0
    for q, alpha, beta in CELLS:
        plan = make_plan(build_grid(q, N_LOW, N_HIGH),
                         BesselParams(alpha, beta))
        counts.update(outputs=0, mp=0)
        spec = qwavelet.operator_mother(plan)
        mother = tally("mother")
        ratios = []
        for i, f in enumerate(uncertainty.probe_family(plan)):
            built[:] = [0, 0, 0]
            t0 = time.perf_counter()
            plane = qwavelet.WaveletPlane(f, spec)
            report = uncertainty.uncertainty_report(plane)
            dt = time.perf_counter() - t0
            batches = built[2]
            _, used = plane.position_moment()
            ratios.append(report.ratio)
            records.append({"cell": [q, alpha, beta], "probe": i,
                            "I_R": repr(report.I_R), "used": sorted(used),
                            "rows": built[0], "calls": built[1],
                            "batches": batches,
                            "scales": len(spec.scale_indices),
                            "seconds": dt})
            total_rows += built[0]
            total_calls += built[1]
            total_batches += batches
            total_summed += len(used)
            total_scales += len(spec.scale_indices)
            total_time += dt
        cell = records[-9:]
        print(f"q={q} v=({alpha}, {beta}): K_emp "
              f"{float(np.min(ratios))!r}, rows "
              f"{sum(r['rows'] for r in cell)} of "
              f"{9 * len(spec.scale_indices)} in "
              f"{sum(r['calls'] for r in cell)} scale_rows calls, "
              f"{sum(r['batches'] for r in cell)} gate batches, "
              f"{sum(len(r['used']) for r in cell)} summed", flush=True)
        print(f"  mother: {mother}\n  probes: {tally('probes')}",
              flush=True)
    print(f"rows built: {total_rows} of {total_scales} "
          f"({100.0 * total_rows / total_scales:.1f}%) in {total_calls} "
          f"scale_rows calls, {total_batches} gate batches; rows summed: "
          f"{total_summed}")
    print(f"probe time: {total_time:.2f} s in all, "
          f"{1e3 * total_time / len(records):.1f} ms per probe")
    for part, tot in totals.items():
        print(f"{part}: {certified_line(tot)}")
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(math.isfinite(float(r["I_R"])) for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
