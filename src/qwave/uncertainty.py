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

The moments' rows are GEMVs with the plan's kernel M (qwavelet's
scale_rows, TransformPlan.gemv), which keeps column j scaled by 2^-k_j
and multiplies operand entry x_j by 2^k_j. Both scalings are exact
(powers of two, k_j chosen so that every nonzero entry of column j stays
normal, and an operand that would overflow takes M itself), so every
product is M_ij x_j and every row keeps the bits of np.dot(M, x); but
the operand entries that underflowing Jackson weights leave subnormal
become normal, which the BLAS GEMV multiplies two to three times faster.

The one parallel path is ``parallel_map``, which runs independent work
in forked worker processes: a verify or sweep cell, or one probe's plane
and report (``probe_reports``). The work is mpmath and small float64
kernels that hold the interpreter lock, so threads cannot overlap it.
Workers never nest: inside a worker, ``parallel_map`` runs inline, so a
sweep runs its cells on workers and each cell's probes in its worker.
Callers may still call in from several threads: no result depends on
threads, workers or ``mpmath.mp``, as each high-precision block has its
own mpmath context.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from qwave.qbessel import fsum_rows
from qwave.qgrid import GridFunction
from qwave.qwavelet import WaveletPlane

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


# fn of the parallel_map that started this worker process; fork hands
# it over, so it is never pickled.
_worker_fn = None


def _start_worker(fn):
    global _worker_fn
    _worker_fn = fn


def _run_in_worker(item):
    return _worker_fn(item)


def parallel_map(fn, items):
    """Map fn over independent items on worker processes, yielding the
    results in input order as they arrive.

    Workers are forked, so each starts from the caller's state: fn
    reaches them through fork and is never pickled (it may be a closure
    over mpf values of a private mpmath context); only the items and the
    results are. One worker per CPU in the affinity mask, at most one
    per item. fn runs inline, in this process, when that count is 1,
    inside any multiprocessing child (so workers never nest: a
    parallel_map inside a worker runs in that worker) or where the
    affinity mask is unavailable (not Linux). Any thread may call it:
    fork copies only the calling thread, and qwave's own code holds no
    lock a worker could inherit held. An exception fn raises in a
    worker is raised here, at its item's position; a worker that dies
    raises WorkerError."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers > 1:
        import multiprocessing
        if multiprocessing.parent_process() is not None:
            workers = 1
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(fn,)) as pool:
        try:
            yield from pool.map(_run_in_worker, items)
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


def uncertainty_report(plane):
    """I_R (the plane's position_moment), I_S = ||xi Ff||^2 (from the
    plane's high-precision spectrum Ff), and their Heisenberg-type ratio
    sqrt(I_R I_S) / ||f||^2 for a WaveletPlane."""
    plan = plane.spec.plan
    nf = plan.norm_sq(plane.f.values)
    if nf == 0.0:
        raise ValueError("uncertainty ratio undefined for the zero function")
    I_R, _ = plane.position_moment()
    I_S = plan.norm_sq(plan.grid.points * plane.Ff)
    return UncertaintyReport(I_R=I_R, I_S=I_S, norm_sq=nf,
                             ratio=math.sqrt(I_R * I_S) / nf)


def heisenberg_slice_minimum(plane):
    """Minimum slice ratio N1 N2 / ||C||^2 over the rows C of a
    WaveletPlane at the scales that its position moment I_R uses, where
    N1 weights C by position and N2 its transform by position. The rows
    are read as one block, and slices at the noise floor are skipped; a
    nan norm or ratio gives nan."""
    plan = plane.spec.plan
    points, weights = plan.grid.points, plan.weights
    _, used = plane.position_moment()
    rows = plane.rows(sorted(used))
    norms = fsum_rows(rows * rows * weights)
    kept = ~(norms <= SLICE_NORM_FLOOR * np.max(norms))
    if not kept.any():
        raise ValueError("no coefficient slice rises above the noise floor")
    X = points * rows[kept]
    Y = points * plan.fourier_values(rows[kept])
    return float(np.min(np.sqrt(fsum_rows(X * X * weights))
                        * np.sqrt(fsum_rows(Y * Y * weights)) / norms[kept]))


def weighted_energy_ratio(plane):
    """Ratio of the b-weighted spectral energy of a WaveletPlane to the
    matching spectral moment of its input: integrate |b F[C(a,.)](b)|^2
    against the plain d_q b measure and d_q a / a^2, divide by
    ||xi Ff||^2 under the same plain measure. Scale-invariant in the
    exact identity; it returns the wavelet's admissibility constant. The
    numerator is plane.integral, of a term taken through the transform.

    The identity needs the plain-measure moment ||xi Ff||^2 to be
    finite: so beta < 3/4, or f mean-free. For f with zeroth moment
    m0 != 0, Ff(q^s) ~ c m0 q^{-2 beta s} as s -> inf, and the plain
    measure's terms go like q^{(3 - 4 beta) s}; on a truncated grid with
    beta >= 3/4 the ratio tends to a constant that is not C_psi."""
    plan = plane.spec.plan
    points = plan.grid.points
    wb_plain = (1.0 - plan.grid.q) * points
    x2wp = points ** 2 * wb_plain
    den = math.fsum((points ** 2 * plane.Ff ** 2 * wb_plain).tolist())
    if den == 0.0:
        raise ValueError("input has no spectral energy on the grid")
    num, _ = plane.integral(lambda rows: x2wp * plan.fourier_values(rows) ** 2,
                            np.sqrt(x2wp), transformed=True)
    return num / den


def probe_reports(probes, spec):
    """uncertainty_report of each probe's WaveletPlane under spec, in
    probe order. The planes are built and reported on parallel_map's
    workers, which inherit spec; only the probes and the reports cross
    between processes. A probe's exception is raised at its position."""
    return list(parallel_map(
        lambda f: uncertainty_report(WaveletPlane(f, spec)), probes))


def empirical_lower_constant(probes, spec):
    """min over probes of sqrt(I_R * I_S) / ||f||^2; the reported
    empirical stand-in for the uncertainty inequality's constant, from
    probe_reports."""
    if not probes:
        raise ValueError("need at least one probe")
    return float(np.min([r.ratio for r in probe_reports(probes, spec)]))
