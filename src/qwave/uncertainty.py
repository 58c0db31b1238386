"""Uncertainty quantities for the wavelet transform: position and
spectral second moments of the coefficient plane, slice-wise Heisenberg
products, and the empirical lower constant over a probe family.

The position moment I_R integrates b^2 |C(a,b)|^2 over the coefficient
plane. On the truncated grid that integral converges only for inputs
whose transform vanishes at the spectral origin; for anything else the
per-scale contributions flatten to a positive constant toward deep
dilations and the sum tracks the scale cutoff, not the function. The
probe family therefore carries mean-free members, and the minimizing
probe is always one of them, which is what makes the reported lower
constant stable under grid refinement.

Everything here runs in the calling thread. The one parallel path is
``parallel_map``, which runs independent cells (a verify cell, a sweep
cell) in worker processes: the work is mpmath and small float64 kernels
that hold the interpreter lock, so threads cannot overlap it. Callers may
still call in from several threads: no result depends on threads, workers
or ``mpmath.mp``, as each high-precision block has its own mpmath context.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from qwave.qgrid import GridFunction
from qwave.qwavelet import WaveletPlane, gated_scale_sum

SLICE_NORM_FLOOR = 1e-22


@dataclass(frozen=True)
class UncertaintyReport:
    """Plane moments and their Heisenberg-type ratio for one input."""
    I_R: float
    I_S: float
    norm_sq: float
    ratio: float


class WorkerError(RuntimeError):
    """A worker process of ``parallel_map`` ended before returning its
    result (killed, or out of memory)."""


def parallel_map(fn, items):
    """Map fn over independent items on worker processes, yielding the
    results in input order as they arrive.

    fn must be a module-level function and the items and results
    picklable. One worker per CPU in the affinity mask, at most one per
    item. Workers are forked, so each starts from the caller's state.
    fn runs inline, in this process, when that count is 1, inside a
    daemonic process (which may not start children) or where the
    affinity mask is unavailable (not Linux). An exception fn raises in
    a worker is raised here, at its item's position; a worker that dies
    raises WorkerError."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers > 1:
        import multiprocessing
        if multiprocessing.current_process().daemon:
            workers = 1
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            yield from pool.map(fn, items)
        except BrokenProcessPool as exc:
            raise WorkerError("a worker process ended before returning "
                              "its result") from exc


def probe_family(plan):
    """Nine standard probes: four point indicators, three short mixed
    combinations, and two mean-free combinations.

    Mean-free means the zeroth spectral moment vanishes; those are the
    inputs whose I_R survives grid refinement, and they are built by
    solving the one- and two-moment cancellation conditions exactly (the
    two-point one kills the zeroth moment, the three-point one the zeroth
    and first, via the cofactor solution of the 2x3 moment system)."""
    grid = plan.grid
    q = grid.q
    alpha = plan.v.alpha
    fam = [GridFunction.from_pairs(grid, [(n, 1.0)]) for n in (-2, 0, 1, 3)]
    fam.append(GridFunction.from_pairs(grid, [(0, 1.0), (2, -1.0)]))
    fam.append(GridFunction.from_pairs(grid, [(-1, 1.0), (1, 2.0), (3, 0.5)]))
    fam.append(GridFunction.from_pairs(
        grid, [(n, q ** (2.0 * n)) for n in range(-2, 5)]))
    fam.append(GridFunction.from_pairs(
        grid, [(0, 1.0), (2, -q ** (-2 * (2 * alpha + 2)))]))
    r, s = 2 * alpha + 2, 2 * alpha + 4
    n3 = (-1, 1, 2)
    A = [[q ** (ni * r) for ni in n3], [q ** (ni * s) for ni in n3]]
    amps = (A[1][1] * A[0][2] - A[0][1] * A[1][2],
            A[1][2] * A[0][0] - A[0][2] * A[1][0],
            A[1][0] * A[0][1] - A[0][0] * A[1][1])
    f = GridFunction.from_pairs(grid, list(zip(n3, amps)))
    fam.append(GridFunction(grid, f.values / math.sqrt(plan.norm_sq(f.values))))
    return fam


def _position_moment_contrib(rows, plan):
    """Per-scale contributions to I_R: (1-q)/a * sum_b b^2 |C|^2 w(b),
    from the coefficient rows {m: C(q^m, .)}.

    On a deep grid b^2 w(b) itself can overflow float64 (q = 0.3 on
    [-160, 320]). Where it does, the term is formed as (b sqrt(w(b)) C)^2,
    which stays finite. Elsewhere it is (b^2 w(b)) C C, whose rounding
    the frozen verify numbers were computed with."""
    q = plan.grid.q
    points, weights = plan.grid.points, plan.weights
    with np.errstate(over="ignore", invalid="ignore"):
        x2w = points ** 2 * weights
        finite = np.isfinite(x2w)
        xsw = points * np.sqrt(weights)
        return {m: (1.0 - q) / (q ** float(m)) * math.fsum(np.where(
                    finite, x2w * row * row, (xsw * row) ** 2).tolist())
                for m, row in rows.items()}


def uncertainty_report(plane):
    """I_R (gated sum over the plane's rows), I_S = ||xi Ff||^2 (from the
    plane's high-precision spectrum Ff), and their Heisenberg-type ratio
    sqrt(I_R I_S) / ||f||^2 for a WaveletPlane."""
    plan = plane.spec.plan
    nf = plan.norm_sq(plane.f.values)
    if nf == 0.0:
        raise ValueError("uncertainty ratio undefined for the zero function")
    I_R, _ = gated_scale_sum(_position_moment_contrib(plane.rows, plan))
    I_S = plan.norm_sq(plan.grid.points * plane.Ff)
    return UncertaintyReport(I_R=I_R, I_S=I_S, norm_sq=nf,
                             ratio=math.sqrt(I_R * I_S) / nf)


def _slice_ratio(row, n2, plan):
    """N1 N2 / ||C||^2 for one coefficient slice C of squared norm n2,
    where N1 weights C by position and N2 its transform by position."""
    points = plan.grid.points
    return (math.sqrt(plan.norm_sq(points * row))
            * math.sqrt(plan.norm_sq(points * plan.fourier_values(row))) / n2)


def heisenberg_slice_minimum(plane):
    """Minimum slice ratio over the rows of a WaveletPlane that the gated
    plane sum uses, skipping slices at the noise floor."""
    plan, rows = plane.spec.plan, plane.rows
    _, used = gated_scale_sum(_position_moment_contrib(rows, plan))
    norms = {m: plan.norm_sq(rows[m]) for m in used}
    top = max(norms.values())
    best = math.inf
    for m in sorted(used):
        if norms[m] <= SLICE_NORM_FLOOR * top:
            continue
        best = min(best, _slice_ratio(rows[m], norms[m], plan))
    if not math.isfinite(best):
        raise ValueError("no coefficient slice rises above the noise floor")
    return best


def weighted_energy_ratio(plane):
    """Ratio of the b-weighted spectral energy of a WaveletPlane to the
    matching spectral moment of its input: integrate |b F[C(a,.)](b)|^2
    against the plain d_q b measure and d_q a / a^2, divide by
    ||xi Ff||^2 under the same plain measure. Scale-invariant in the
    exact identity; it returns the wavelet's admissibility constant."""
    plan = plane.spec.plan
    grid = plan.grid
    q = grid.q
    points = grid.points
    wb_plain = (1.0 - q) * points
    x2wp = points ** 2 * wb_plain
    den = math.fsum((points ** 2 * plane.Ff ** 2 * wb_plain).tolist())
    if den == 0.0:
        raise ValueError("input has no spectral energy on the grid")
    contrib = {}
    for m, row in plane.rows.items():
        frow = plan.fourier_values(row)
        contrib[m] = (1.0 - q) / (q ** float(m)) * math.fsum(
            (x2wp * frow ** 2).tolist())
    num, _ = gated_scale_sum(contrib)
    return num / den


def empirical_lower_constant(probes, spec):
    """min over probes of sqrt(I_R * I_S) / ||f||^2; the reported
    empirical stand-in for the uncertainty inequality's constant, from
    one WaveletPlane per probe, built one at a time."""
    if not probes:
        raise ValueError("need at least one probe")
    return min(uncertainty_report(WaveletPlane(f, spec)).ratio
               for f in probes)
