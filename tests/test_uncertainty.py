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

from qwave.qbessel import MP_LOCK
from qwave.qgrid import BesselParams, GridFunction, build_grid
from qwave.qtransform import make_plan
from qwave import qwavelet
from qwave.qwavelet import cwt, operator_mother
from qwave.uncertainty import (
    WorkerError,
    empirical_lower_constant,
    heisenberg_slice_minimum,
    intermediate_heisenberg_check,
    op_R,
    op_S,
    parallel_map,
    probe_family,
    uncertainty_report,
    weighted_energy_ratio,
)

from conftest import exit_abruptly, rel_err, set_cpus


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


class TestMomentOperators:
    def test_position_operator_weights_by_position(self, plan00, spec00):
        f = probe_family(plan00)[1]
        weighted = op_R(f, spec00)
        plain = cwt(f, spec00)
        ref = plain.coeffs * plan00.grid.points[None, :]
        np.testing.assert_array_equal(weighted.coeffs, ref)

    def test_spectral_operator_is_homogeneous(self, plan00):
        f = probe_family(plan00)[-1]
        base = op_S(f, plan00).values
        scaled = op_S(f.scaled(-4.0), plan00).values
        np.testing.assert_allclose(scaled, -4.0 * base, rtol=1e-13)

    def test_spectral_operator_vanishes_on_zero(self, plan00, grid00):
        out = op_S(GridFunction.zeros(grid00), plan00)
        assert np.all(out.values == 0.0)


class TestUncertaintyReport:
    def test_ratio_consistent_with_fields(self, plan00, spec00):
        r = uncertainty_report(probe_family(plan00)[1], spec00)
        assert r.ratio == pytest.approx(
            math.sqrt(r.I_R * r.I_S) / r.norm_sq, rel=1e-15)

    def test_ratio_scale_invariant(self, plan00, spec00):
        f = probe_family(plan00)[-1]
        r1 = uncertainty_report(f, spec00)
        r2 = uncertainty_report(f.scaled(13.0), spec00)
        assert rel_err(r2.ratio, r1.ratio) < 1e-13
        # the moments themselves scale quadratically
        assert rel_err(r2.I_R, 169.0 * r1.I_R) < 1e-12
        assert rel_err(r2.I_S, 169.0 * r1.I_S) < 1e-12

    def test_zero_input_rejected(self, spec00, grid00):
        with pytest.raises(ValueError, match="zero function"):
            uncertainty_report(GridFunction.zeros(grid00), spec00)

    def test_empirical_constant_is_family_minimum(self, plan00, spec00):
        probes = probe_family(plan00)[:3]
        ratios = [uncertainty_report(p, spec00).ratio for p in probes]
        assert empirical_lower_constant(probes, spec00) == min(ratios)

    def test_empty_probe_list_rejected(self, spec00):
        with pytest.raises(ValueError, match="at least one probe"):
            empirical_lower_constant([], spec00)


class TestOneSpectrumPerCall:
    # both moments, or both sides of the energy ratio, read one spectrum
    @pytest.mark.parametrize("fn", [uncertainty_report, weighted_energy_ratio])
    def test_single_spectrum(self, monkeypatch, spec00, fn):
        calls = []
        spectrum = qwavelet.spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        f = probe_family(spec00.plan)[-1]
        want = fn(f, spec00)
        monkeypatch.setattr(qwavelet, "spectrum", counted)
        assert fn(f, spec00) == want
        assert len(calls) == 1


class TestSliceRatios:
    def test_slice_value_matches_by_hand(self, plan00, spec00):
        from qwave.qwavelet import scale_rows
        f = probe_family(plan00)[1]
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]
        row = scale_rows(f, spec00, [mid])[mid]
        pts = plan00.grid.points
        n2 = plan00.norm_sq(row)
        ref = (math.sqrt(plan00.norm_sq(pts * row))
               * math.sqrt(plan00.norm_sq(pts * plan00.fourier_values(row)))
               / n2)
        assert intermediate_heisenberg_check(f, spec00, mid) == pytest.approx(
            ref, rel=1e-15)

    def test_zero_slice_rejected(self, spec00, grid00):
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]
        with pytest.raises(ValueError, match="is zero"):
            intermediate_heisenberg_check(
                GridFunction.zeros(grid00), spec00, mid)

    def test_minimum_over_used_scales_exceeds_half(self, plan00, spec00):
        for p in probe_family(plan00)[:2]:
            assert heisenberg_slice_minimum(p, spec00) >= 0.5 - 1e-3

    def test_minimum_bounded_by_any_used_slice(self, plan00, spec00):
        f = probe_family(plan00)[1]
        msl = heisenberg_slice_minimum(f, spec00)
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]
        assert msl <= intermediate_heisenberg_check(f, spec00, mid) + 1e-12


class TestEnergyRatio:
    def test_input_independent(self, plan00, spec00):
        probes = probe_family(plan00)
        k1 = weighted_energy_ratio(probes[0], spec00)
        k2 = weighted_energy_ratio(probes[4], spec00)
        assert rel_err(k1, k2) < 1e-6

    def test_equals_admissibility(self, plan00, spec00):
        k = weighted_energy_ratio(probe_family(plan00)[1], spec00)
        assert rel_err(k, spec00.admissibility) < 1e-6

    def test_zero_input_rejected(self, spec00, grid00):
        with pytest.raises(ValueError, match="no spectral energy"):
            weighted_energy_ratio(GridFunction.zeros(grid00), spec00)


def _square_minus_one(x):
    return x * x - 1


def _pid_of(_):
    return os.getpid()


def _reject_three(x):
    if x == 3:
        raise ValueError("item 3 rejected")
    return x


def _mp_dps(_):
    return mpmath.mp.dps


def _map_in_daemon(items):
    return list(parallel_map(_pid_of, items))


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

    def test_worker_exception_raised_at_its_item(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        results = parallel_map(_reject_three, range(6))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="item 3 rejected"):
            next(results)

    def test_dead_worker_raises_worker_error(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        with pytest.raises(WorkerError, match="ended before returning"):
            list(parallel_map(exit_abruptly, range(3)))

    def test_fork_waits_for_precision_block(self, monkeypatch):
        # a caller thread inside a precision block holds MP_LOCK; a worker
        # forked then would start at that thread's precision (and could
        # never take the lock), so the fork waits until the block ends
        set_cpus(monkeypatch, 2)
        default = mpmath.mp.dps
        entered, leave = threading.Event(), threading.Event()

        def hold():
            with MP_LOCK, mpmath.mp.workdps(300):
                entered.set()
                leave.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10)
            threading.Timer(0.3, leave.set).start()
            dps = list(parallel_map(_mp_dps, range(2)))
        finally:
            leave.set()
            holder.join(10)
        assert not holder.is_alive()
        assert dps == [default, default]


class TestThreading:
    # results must not depend on how many worker processes or caller
    # threads compute them; the library itself runs in the calling
    # thread, and MP_LOCK keeps the shared mp context consistent for
    # callers that call in from several threads at once
    def test_default_uses_all_cores(self, monkeypatch):
        # one worker per CPU in the affinity mask, capped at the items,
        # on forked workers
        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))
                super().__init__(max_workers, mp_context=mp_context)

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
        # the mp context is guarded by a lock; results must not depend
        # on how many caller threads compute at once
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
        serial = [uncertainty_report(f, spec) for f in probe_family(spec.plan)]
        threads = 2 * (os.cpu_count() or 1) + 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                spec = cold_spec()
                with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                    threaded = list(pool.map(
                        lambda f: uncertainty_report(f, spec),
                        probe_family(spec.plan)))
                assert threaded == serial
        finally:
            sys.setswitchinterval(interval)
