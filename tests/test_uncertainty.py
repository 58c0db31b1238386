"""Position/spectral moment operators, per-scale slice ratios, the
empirical uncertainty constant, and the threading knobs."""

import math
import os
import sys

import numpy as np
import pytest

from qwave.qgrid import BesselParams, GridFunction, build_grid
from qwave.qtransform import make_plan
from qwave import qwavelet
from qwave.qwavelet import cwt, operator_mother
from qwave.uncertainty import (
    empirical_lower_constant,
    heisenberg_slice_minimum,
    intermediate_heisenberg_check,
    op_R,
    op_S,
    parallel_map,
    probe_family,
    thread_count,
    uncertainty_report,
    weighted_energy_ratio,
)

from conftest import rel_err


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


class TestThreading:
    def test_default_uses_all_cores(self, monkeypatch):
        monkeypatch.delenv("QWAVE_THREADS", raising=False)
        assert thread_count() == (os.cpu_count() or 1)

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("QWAVE_THREADS", "4")
        assert thread_count() == 4

    def test_floor_at_one(self, monkeypatch):
        monkeypatch.setenv("QWAVE_THREADS", "0")
        assert thread_count() == 1
        monkeypatch.setenv("QWAVE_THREADS", "-3")
        assert thread_count() == 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("QWAVE_THREADS", "many")
        with pytest.raises(ValueError, match="QWAVE_THREADS"):
            thread_count()

    def test_map_order_independent_of_workers(self, monkeypatch):
        items = list(range(40))
        fn = lambda x: x * x - 1
        monkeypatch.setenv("QWAVE_THREADS", "1")
        serial = parallel_map(fn, items)
        monkeypatch.setenv("QWAVE_THREADS", "5")
        threaded = parallel_map(fn, items)
        assert serial == threaded == [fn(x) for x in items]

    def test_transform_results_identical_across_thread_counts(
            self, monkeypatch, plan00, spec00):
        # the mp context is guarded by a lock; results must not depend
        # on scheduling
        probes = probe_family(plan00)[:4]
        monkeypatch.setenv("QWAVE_THREADS", "1")
        serial = empirical_lower_constant(probes, spec00)
        monkeypatch.setenv("QWAVE_THREADS", "4")
        threaded = empirical_lower_constant(probes, spec00)
        assert serial == threaded

    def test_cold_plan_cache_filled_from_threads(self, monkeypatch):
        # the plan's high-precision operands are filled on first use; with
        # more workers than cores and frequent switches, threads that fill
        # one plan's cache at once must give what a serial run gives
        def reports(threads):
            plan = make_plan(build_grid(0.55, -20, 40),
                             BesselParams(0.5, 0.25))
            spec = operator_mother(plan)
            monkeypatch.setenv("QWAVE_THREADS", str(threads))
            return parallel_map(lambda f: uncertainty_report(f, spec),
                                probe_family(plan))

        serial = reports(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = [reports(2 * (os.cpu_count() or 1) + 1)
                        for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(t == serial for t in threaded)
