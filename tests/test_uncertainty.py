"""Position/spectral moment operators, per-scale slice ratios, the
empirical uncertainty constant, the process-pool map, and calls from
several caller threads."""

import concurrent.futures
import math
import multiprocessing
import os
import sys
import threading

import mpmath
import numpy as np
import pytest

from qwave.qgrid import BesselParams, GridFunction, build_grid
from qwave.qtransform import make_plan, spectrum
from qwave import qtransform, qwavelet, uncertainty
from qwave.qwavelet import (WaveletPlane, _scale_bounds,
                            factorization_error, operator_mother,
                            scale_rows, wavelet_plancherel_ratio)
from qwave.uncertainty import (
    SLICE_NORM_FLOOR,
    WorkerError,
    empirical_lower_constant,
    heisenberg_slice_minimum,
    parallel_map,
    probe_family,
    probe_reports,
    uncertainty_report,
    weighted_energy_ratio,
)

from conftest import (eager_gated_scale_sum, exit_abruptly, nan_ratio_for,
                      rel_err, set_cpus)


def slice_ratio(row, n2, plan):
    """The per-row reference of heisenberg_slice_minimum's ratio: N1 N2
    / ||C||^2 for one coefficient slice C of squared norm n2, each norm
    summed by plan.norm_sq and the transform taken of the row alone."""
    points = plan.grid.points
    return (math.sqrt(plan.norm_sq(points * row))
            * math.sqrt(plan.norm_sq(points * plan.fourier_values(row))) / n2)


class TestProbeFamily:
    def test_nine_probes(self, plan00):
        probes = probe_family(plan00)
        assert len(probes) == 9
        for p in probes:
            assert np.all(np.isfinite(p.values))
            assert np.any(p.values != 0.0)

    def test_family_ends_with_mean_free_probes(self, plan00):
        # the moment integrals diverge on probes with mass at zero, so
        # the family must include mean-free members; they sit at the end
        probes = probe_family(plan00)
        w = plan00.weights
        for p in probes[-2:]:
            moment = math.fsum(p.values * w)
            assert abs(moment) < 1e-12 * math.sqrt(plan00.norm_sq(p.values))

    def test_mean_free_probes_are_normalized(self, plan00):
        probes = probe_family(plan00)
        assert plan00.norm_sq(probes[-1].values) == pytest.approx(1.0, rel=1e-12)


class TestUncertaintyReport:
    def test_ratio_consistent_with_fields(self, plan00, spec00):
        r = uncertainty_report(WaveletPlane(probe_family(plan00)[1], spec00))
        assert r.ratio == pytest.approx(
            math.sqrt(r.I_R * r.I_S) / r.norm_sq, rel=1e-15)

    def test_ratio_scale_invariant(self, plan00, spec00):
        f = probe_family(plan00)[-1]
        r1 = uncertainty_report(WaveletPlane(f, spec00))
        r2 = uncertainty_report(WaveletPlane(f.scaled(13.0), spec00))
        assert rel_err(r2.ratio, r1.ratio) < 1e-13
        # the moments themselves scale quadratically
        assert rel_err(r2.I_R, 169.0 * r1.I_R) < 1e-12
        assert rel_err(r2.I_S, 169.0 * r1.I_S) < 1e-12

    def test_zero_input_rejected(self, spec00, grid00):
        with pytest.raises(ValueError, match="zero function"):
            uncertainty_report(
                WaveletPlane(GridFunction.zeros(grid00), spec00))

    def test_empirical_constant_is_family_minimum(self, plan00, spec00):
        probes = probe_family(plan00)[:3]
        ratios = [uncertainty_report(WaveletPlane(p, spec00)).ratio
                  for p in probes]
        assert empirical_lower_constant(probes, spec00) == min(ratios)

    def test_position_moment_integrated_once(self, monkeypatch, spec00):
        # the plane keeps I_R and its scales: the report and the slice
        # minimum read the one integral
        plane = WaveletPlane(probe_family(spec00.plan)[-1], spec00)
        calls = []
        integral = WaveletPlane.integral

        def counted(self, *args, **kwargs):
            calls.append(args)
            return integral(self, *args, **kwargs)

        monkeypatch.setattr(WaveletPlane, "integral", counted)
        moment = plane.position_moment()
        assert uncertainty_report(plane).I_R == moment[0]
        heisenberg_slice_minimum(plane)
        assert plane.position_moment() is moment
        assert len(calls) == 1

    def test_empty_probe_list_rejected(self, spec00):
        with pytest.raises(ValueError, match="at least one probe"):
            empirical_lower_constant([], spec00)


class TestOneSpectrumPerCall:
    # a plane reads one spectrum when it is built; every integral over it
    # (both moments, both sides of the energy ratio) reads the plane
    @pytest.mark.parametrize("fn", [uncertainty_report, weighted_energy_ratio,
                                    heisenberg_slice_minimum,
                                    wavelet_plancherel_ratio])
    def test_single_spectrum(self, monkeypatch, spec00, fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        f = probe_family(spec00.plan)[-1]
        want = fn(WaveletPlane(f, spec00))
        monkeypatch.setattr(qwavelet, "spectrum", counted)
        monkeypatch.setattr(qtransform, "spectrum", counted)
        plane = WaveletPlane(f, spec00)
        assert len(calls) == 1
        assert fn(plane) == want
        assert len(calls) == 1


def contributions(plane, term):
    """Every scale's contribution to plane.integral of term, from the
    block of rows that scale_rows builds all at once."""
    q = plane.spec.plan.grid.q
    # the callers form their terms inside the same errstate
    with np.errstate(over="ignore", invalid="ignore"):
        return {m: (1.0 - q) / (q ** float(m))
                * math.fsum(term(row).tolist())
                for m, row in zip(plane.spec.scale_indices,
                                  scale_rows(plane.Ff, plane.spec))}


def integral_args(monkeypatch, plane, caller):
    """The (term, d, transformed) that caller hands plane.integral, on a
    fresh copy of plane: the plane keeps its position moment, so a second
    caller on the same plane would not integrate it again."""
    seen = []
    integral = WaveletPlane.integral

    def spy(self, term, d, transformed=False):
        seen.append((term, d, transformed))
        return integral(self, term, d, transformed)

    with monkeypatch.context() as patch:
        patch.setattr(WaveletPlane, "integral", spy)
        caller(WaveletPlane(plane.f, plane.spec))
    return seen[0]


class TestPlaneIntegral:
    """plane.integral against the eager reference, the walk over every
    contribution with every row built (eager_gated_scale_sum), bit for
    bit, for each of the three terms; and the callers against the same
    reference. On q = 0.3, v = (0.5, 0.25) over [-120, 60], b^2 w(b)
    overflows float64 for n <= -108, so I_R's term takes its
    overflow-safe branch there, as it does on the sweep grid
    [-160, 320] at that cell."""

    @pytest.fixture(scope="class", params=["q0.5", "q0.3-deep",
                                           "sweep-q0.3", "sweep-q0.5"])
    def plane(self, request):
        if request.param == "q0.5":
            spec = request.getfixturevalue("spec_shifted")
        elif request.param == "q0.3-deep":
            spec = operator_mother(make_plan(build_grid(0.3, -120, 60),
                                             BesselParams(0.5, 0.25)))
        else:
            spec = request.getfixturevalue(
                {"sweep-q0.3": "spec_sweep_deep",
                 "sweep-q0.5": "spec_sweep00"}[request.param])
        return WaveletPlane(probe_family(spec.plan)[-1], spec)

    def test_plancherel_term(self, plane, monkeypatch):
        plan = plane.spec.plan
        term = lambda row: row * row * plan.weights
        want = eager_gated_scale_sum(contributions(plane, term))
        _, d, transformed = integral_args(monkeypatch, plane,
                                          wavelet_plancherel_ratio)
        assert plane.integral(term, d, transformed) == want
        nf = plan.norm_sq(plane.f.values)
        assert wavelet_plancherel_ratio(plane) == want[0] / nf

    def test_position_moment_term(self, plane, monkeypatch):
        plan = plane.spec.plan
        points, weights = plan.grid.points, plan.weights
        with np.errstate(over="ignore", invalid="ignore"):
            x2w = points ** 2 * weights
            finite = np.isfinite(x2w)
            xsw = points * np.sqrt(weights)
            term = lambda row: np.where(
                finite, x2w * row * row, (xsw * row) ** 2)
            want = eager_gated_scale_sum(contributions(plane, term))
            _, d, transformed = integral_args(monkeypatch, plane,
                                              uncertainty_report)
            assert plane.integral(term, d, transformed) == want
        assert finite.all() == (plan.grid.q == 0.5)
        assert uncertainty_report(plane).I_R == want[0]
        assert plane.position_moment() == want
        rows = dict(zip(plane.spec.scale_indices,
                        scale_rows(plane.Ff, plane.spec)))
        norms = {m: plan.norm_sq(rows[m]) for m in want[1]}
        top = max(norms.values())
        assert heisenberg_slice_minimum(plane) == min(
            slice_ratio(rows[m], norms[m], plan) for m in want[1]
            if norms[m] > SLICE_NORM_FLOOR * top)

    def test_weighted_energy_term(self, plane, monkeypatch):
        plan = plane.spec.plan
        points = plan.grid.points
        wb_plain = (1.0 - plan.grid.q) * points
        x2wp = points ** 2 * wb_plain
        term = lambda row: x2wp * plan.fourier_values(row) ** 2
        want = eager_gated_scale_sum(contributions(plane, term))
        _, d, transformed = integral_args(monkeypatch, plane,
                                          weighted_energy_ratio)
        assert plane.integral(term, d, transformed) == want
        den = math.fsum((points ** 2 * plane.Ff ** 2 * wb_plain).tolist())
        assert weighted_energy_ratio(plane) == want[0] / den

    @pytest.mark.parametrize("caller", ["plancherel", "position",
                                        "weighted"])
    def test_rows_built_once_by_the_run(self, plane, monkeypatch, caller):
        # the gate asks for the top scale, then for one batch, and the
        # plane builds the batch in ascending order, 64 rows per
        # scale_rows call: no row twice, every row summed among those
        # built, and at most three calls on these planes, where one call
        # per row would make 15 to 26
        term, d, transformed = integral_args(monkeypatch, plane,
                                             CALLERS[caller])
        calls = []

        def counted(Ff, spec, scale_indices=None):
            calls.append(list(scale_indices))
            return scale_rows(Ff, spec, scale_indices)

        monkeypatch.setattr(qwavelet, "scale_rows", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            _, used = WaveletPlane(plane.f, plane.spec).integral(
                term, d, transformed)
        built = [m for run in calls for m in run]
        assert len(built) == len(set(built))
        assert used <= set(built)
        assert len(calls) <= 3


CALLERS = {"plancherel": wavelet_plancherel_ratio,
           "position": uncertainty_report,
           "weighted": weighted_energy_ratio}


class TestScaleBounds:
    """The bound each scale's contribution gets before its row is built,
    on two cells of the sweep grid [-160, 320]: q = 0.3, v = (0.5, 0.25),
    where I_R's term takes its overflow-safe branch, and q = 0.5,
    v = (0, 0) with its two mean-free probes, where a whole-matrix
    Cauchy-Schwarz bound on the exact transform fell below the computed
    contribution at 22 scales."""

    @pytest.fixture(scope="class", params=[
        ("spec_sweep_deep", 0), ("spec_sweep_deep", -1),
        ("spec_sweep00", -2), ("spec_sweep00", -1)],
        ids=("q0.3-probe0", "q0.3-meanfree", "q0.5-meanfree1",
             "q0.5-meanfree2"))
    def plane(self, request):
        spec_name, probe = request.param
        spec = request.getfixturevalue(spec_name)
        return WaveletPlane(probe_family(spec.plan)[probe], spec)

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_bound_covers_every_scale(self, plane, monkeypatch, caller):
        term, d, transformed = integral_args(monkeypatch, plane,
                                             CALLERS[caller])
        bounds = _scale_bounds(plane, d, transformed)
        contrib = contributions(plane, term)
        assert bounds.keys() == contrib.keys()
        assert [m for m in contrib if not bounds[m] >= contrib[m]] == []
        # and the bound is finite, so it can skip
        assert all(math.isfinite(b) for b in bounds.values())

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_plane_builds_few_rows(self, plane, monkeypatch, caller):
        # a bound silently left infinite would build every row
        built = []

        def counted(Ff, spec, scale_indices=None):
            built.extend(scale_indices)
            return scale_rows(Ff, spec, scale_indices)

        monkeypatch.setattr(qwavelet, "scale_rows", counted)
        fresh = WaveletPlane(plane.f, plane.spec)
        CALLERS[caller](fresh)
        assert len(built) == len(set(built))
        assert len(built) < len(plane.spec.scale_indices) // 4
        if caller == "position":
            # the slices read the rows the integral has built
            before = len(built)
            heisenberg_slice_minimum(fresh)
            assert len(built) == before


class TestProbeReports:
    """The probes' planes and reports on parallel_map's workers. The spec
    reaches them through fork: its mp_values hold mpf values of a private
    mpmath context, which do not pickle."""

    def test_identical_inline_and_pooled(self, monkeypatch, spec_shifted):
        probes = probe_family(spec_shifted.plan)
        runs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            runs.append((probe_reports(probes, spec_shifted),
                         empirical_lower_constant(probes, spec_shifted)))
        assert runs[0] == runs[1]
        assert runs[0][0] == [uncertainty_report(
            WaveletPlane(f, spec_shifted)) for f in probes]
        assert runs[0][1] == min(r.ratio for r in runs[0][0])

    def test_zero_probe_raises_through_the_pool(self, monkeypatch, spec00,
                                                grid00):
        probes = probe_family(spec00.plan)[:2]
        probes.insert(1, GridFunction.zeros(grid00))
        errors = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError, match="zero function") as exc:
                empirical_lower_constant(probes, spec00)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nan_ratio_reaches_the_constant(self, monkeypatch, plan00,
                                            spec00, cpus):
        # a nan past the first place: min() over the ratios dropped it
        # and gave the minimum of the other eight, 0.8145548349683932
        probes = probe_family(plan00)
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(uncertainty, "uncertainty_report",
                            nan_ratio_for(probes[2], uncertainty_report))
        assert math.isnan(empirical_lower_constant(probes, spec00))


class TestSliceRatios:
    def test_zero_slice_rejected(self, spec00, grid00):
        # a zero input leaves every slice at the noise floor
        with pytest.raises(ValueError, match="noise floor"):
            heisenberg_slice_minimum(
                WaveletPlane(GridFunction.zeros(grid00), spec00))

    def test_minimum_over_used_scales_exceeds_half(self, plan00, spec00):
        for p in probe_family(plan00)[:2]:
            assert heisenberg_slice_minimum(WaveletPlane(p, spec00)) \
                >= 0.5 - 1e-3

    def test_minimum_bounded_by_any_used_slice(self, plan00, spec00):
        f = probe_family(plan00)[1]
        plane = WaveletPlane(f, spec00)
        msl = heisenberg_slice_minimum(plane)
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]
        row = plane.rows([mid])[0]
        assert msl <= slice_ratio(row, plan00.norm_sq(row), plan00) + 1e-12

    @pytest.mark.parametrize("where", ["row", "transform"])
    def test_nan_slice_gives_nan(self, plan00, spec00, monkeypatch, where):
        # a nan in the third used slice, or in its transform: the block's
        # minimum reads it, where a loop of min() dropped it
        plane = WaveletPlane(probe_family(plan00)[-1], spec00)
        assert math.isfinite(heisenberg_slice_minimum(plane))
        if where == "row":
            rows = WaveletPlane.rows

            def patched(self, ms):
                block = rows(self, ms)
                block[2, 5] = math.nan
                return block
            monkeypatch.setattr(WaveletPlane, "rows", patched)
        else:
            transform = qtransform.TransformPlan.fourier_values

            def patched(self, values):
                out = transform(self, values)
                out[2, 5] = math.nan
                return out
            monkeypatch.setattr(qtransform.TransformPlan, "fourier_values",
                                patched)
        assert math.isnan(heisenberg_slice_minimum(plane))


class TestEnergyRatio:
    def test_input_independent(self, plan00, spec00):
        probes = probe_family(plan00)
        k1 = weighted_energy_ratio(WaveletPlane(probes[0], spec00))
        k2 = weighted_energy_ratio(WaveletPlane(probes[4], spec00))
        assert rel_err(k1, k2) < 1e-6

    def test_equals_admissibility(self, plan00, spec00):
        plane = WaveletPlane(probe_family(plan00)[1], spec00)
        k = weighted_energy_ratio(plane)
        assert rel_err(k, spec00.admissibility) < 1e-6

    def test_zero_input_rejected(self, spec00, grid00):
        with pytest.raises(ValueError, match="no spectral energy"):
            weighted_energy_ratio(
                WaveletPlane(GridFunction.zeros(grid00), spec00))


def _square_minus_one(x):
    return x * x - 1


def _pid_of(_):
    return os.getpid()


def _reject_three(x):
    if x == 3:
        raise ValueError("item 3 rejected")
    return x


def _map_in_daemon(items):
    return list(parallel_map(_pid_of, items))


def _pid_and_inner_pids(_):
    return os.getpid(), list(parallel_map(_pid_of, range(3)))


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("fn must not be pickled")


class TestParallelMap:
    def test_one_cpu_runs_inline(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        assert list(parallel_map(_pid_of, range(4))) == [os.getpid()] * 4

    def test_several_cpus_run_in_workers(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert os.getpid() not in parallel_map(_pid_of, range(4))

    def test_single_item_runs_inline(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        assert list(parallel_map(_pid_of, [0])) == [os.getpid()]
        assert list(parallel_map(_pid_of, [])) == []

    def test_daemonic_process_runs_inline(self, monkeypatch):
        # a multiprocessing.Pool worker is daemonic and may not start
        # children; the map must fall back to running in that worker
        set_cpus(monkeypatch, 4)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pids = pool.apply_async(_map_in_daemon, ([0, 1, 2],)).get(60)
        assert len(set(pids)) == 1
        assert pids[0] != os.getpid()

    def test_workers_never_nest(self, monkeypatch):
        # a parallel_map inside a worker runs in that worker, even though
        # a ProcessPoolExecutor worker is not daemonic and may fork
        set_cpus(monkeypatch, 2)
        results = list(parallel_map(_pid_and_inner_pids, range(4)))
        for pid, inner in results:
            assert pid != os.getpid()
            assert inner == [pid] * 3

    def test_other_threads_use_workers(self, monkeypatch):
        # only the CPU count, nesting and the platform decide; a call
        # from a thread other than the main one forks workers too
        set_cpus(monkeypatch, 2)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            pids = pool.submit(
                lambda: list(parallel_map(_pid_of, range(3)))).result(60)
        assert os.getpid() not in pids

    def test_fn_closure_reaches_workers_unpickled(self, monkeypatch):
        # fn goes to the workers by fork, closure and all
        set_cpus(monkeypatch, 2)
        held = _Unpicklable()
        got = list(parallel_map(
            lambda x: (type(held).__name__, os.getpid(), 10 + x), range(4)))
        assert [(name, k) for name, _, k in got] == \
            [("_Unpicklable", 10 + x) for x in range(4)]
        assert os.getpid() not in {pid for _, pid, _ in got}

    # However the map ends (an exception, a dead worker, the caller
    # closing it early), no worker outlives it: the pool is shut down and
    # its workers joined before parallel_map raises or returns.
    def test_worker_exception_raised_at_its_item(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        results = parallel_map(_reject_three, range(6))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="item 3 rejected"):
            next(results)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_worker_error(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        with pytest.raises(WorkerError, match="ended before returning"):
            list(parallel_map(exit_abruptly, range(3)))
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_an_early_close(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        results = parallel_map(_square_minus_one, range(6))
        assert next(results) == -1
        results.close()
        assert multiprocessing.active_children() == []


class TestThreading:
    # results must not depend on how many worker processes or caller
    # threads compute them; the library itself runs in the calling
    # thread, and every high-precision block works on a private mpmath
    # context, so callers may call in from several threads at once
    def test_default_uses_all_cores(self, monkeypatch):
        # one worker per CPU in the affinity mask, capped at the items,
        # on forked workers
        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context, initializer,
                         initargs):
                pools.append((max_workers, mp_context.get_start_method()))
                super().__init__(max_workers, mp_context=mp_context,
                                 initializer=initializer, initargs=initargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        set_cpus(monkeypatch, 3)
        assert list(parallel_map(_square_minus_one, range(5))) == \
            [x * x - 1 for x in range(5)]
        assert list(parallel_map(_square_minus_one, range(2))) == [-1, 0]
        assert pools == [(3, "fork"), (2, "fork")]

    def test_map_order_independent_of_workers(self, monkeypatch):
        items = list(range(40))
        set_cpus(monkeypatch, 1)
        inline = list(parallel_map(_square_minus_one, items))
        set_cpus(monkeypatch, 5)
        pooled = list(parallel_map(_square_minus_one, items))
        assert inline == pooled == [_square_minus_one(x) for x in items]

    def test_transform_results_identical_across_thread_counts(
            self, plan00, spec00):
        # results must not depend on how many caller threads compute at
        # once
        probes = probe_family(plan00)[:4]
        serial = empirical_lower_constant(probes, spec00)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(
                lambda _: empirical_lower_constant(probes, spec00), range(4)))
        assert threaded == [serial] * 4

    def test_cold_plan_cache_filled_from_threads(self):
        # the plan's high-precision operands are filled on first use; with
        # more threads than cores and frequent switches, threads that fill
        # one plan's cache at once must give what a serial run gives
        def cold_spec():
            plan = make_plan(build_grid(0.55, -20, 40),
                             BesselParams(0.5, 0.25))
            return operator_mother(plan)

        spec = cold_spec()
        serial = [uncertainty_report(WaveletPlane(f, spec))
                  for f in probe_family(spec.plan)]
        threads = 2 * (os.cpu_count() or 1) + 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                spec = cold_spec()
                with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                    threaded = list(pool.map(
                        lambda f: uncertainty_report(WaveletPlane(f, spec)),
                        probe_family(spec.plan)))
                assert threaded == serial
        finally:
            sys.setswitchinterval(interval)

    def test_results_independent_of_global_precision(self, spec00):
        # another mpmath user in the same process may set mpmath.mp.dps
        # at any moment; the library's high-precision blocks must not see
        # it, so every result equals the one from a quiet run
        plan = spec00.plan
        f = probe_family(plan)[-1]
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]

        def run():
            return (spectrum(f, plan).tolist(),
                    factorization_error(spec00, [mid - 1, mid], (-2, 0, 3),
                                        range(-5, 6), dps=20))

        quiet = run()
        stop = threading.Event()

        def toggle():
            while not stop.is_set():
                mpmath.mp.dps = 15
                mpmath.mp.dps = 500

        default = mpmath.mp.dps
        interval = sys.getswitchinterval()
        toggler = threading.Thread(target=toggle, daemon=True)
        sys.setswitchinterval(1e-5)
        toggler.start()
        try:
            noisy = [run() for _ in range(20)]
        finally:
            stop.set()
            toggler.join(10)
            sys.setswitchinterval(interval)
            mpmath.mp.dps = default
        assert noisy == [quiet] * 20
