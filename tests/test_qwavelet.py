"""Mother wavelets, admissibility, the two transform routes, and the
gated scale summation."""

import math

import mpmath
import numpy as np
import pytest

from qwave.qbessel import lattice_kernel
from qwave.qgrid import BesselParams, GridFunction, build_grid
from qwave.qtransform import make_plan
from qwave.qwavelet import (
    Scaleogram,
    WaveletPlane,
    cwt,
    cwt_direct,
    daughter_wavelet,
    factorization_error,
    gated_scale_sum,
    indicator_difference_mother,
    make_wavelet,
    mother_scale_range,
    operator_mother,
    scale_rows,
    wavelet_plancherel_ratio,
)

from conftest import rel_err


class TestMothers:
    def test_operator_mother_is_normalized(self, spec00, plan00):
        assert plan00.norm_sq(spec00.mother.values) == pytest.approx(
            1.0, rel=1e-12)
        assert spec00.mp_values is not None

    def test_operator_mother_admissibility_pinned(self, spec00):
        # regression value from a high-precision run at q = 0.5, v = (0, 0)
        assert rel_err(spec00.admissibility, 0.19937694704049844) < 1e-9

    def test_indicator_mother_admissible(self, plan00):
        spec = indicator_difference_mother(plan00)
        assert spec.admissibility > 0.0
        assert math.isfinite(spec.admissibility)
        assert plan00.norm_sq(spec.mother.values) == pytest.approx(
            1.0, rel=1e-12)

    def test_mothers_are_mean_free(self, spec00, plan00):
        # zeroth moment zero <=> the spectrum profile dies at small xi
        # (large positive index); the other end must decay as well for
        # the admissibility sum to converge
        prof = spec00.profile
        keys = sorted(prof)
        top = max(abs(val) for val in prof.values())
        assert abs(prof[keys[0]]) < 1e-6 * top
        assert abs(prof[keys[-1]]) < 1e-6 * top

    def test_float_route_matches_mp_route(self, spec00, plan00):
        got = make_wavelet(spec00.mother, plan00).admissibility
        assert rel_err(got, spec00.admissibility) < 1e-10

    def test_float_mother_factorizes(self, spec00, plan00):
        # a mother given only as float values takes the same route
        spec = make_wavelet(spec00.mother, plan00)
        assert spec.mp_values == spec00.mother.nonzero_values()
        mid = spec.scale_indices[len(spec.scale_indices) // 2]
        err = factorization_error(spec, [mid - 1, mid, mid + 1], [0, 2],
                                  range(-6, 7))
        assert err < 1e-8

    def test_zero_mother_rejected(self, plan00, grid00):
        with pytest.raises(ValueError, match="zero mother"):
            make_wavelet(GridFunction.zeros(grid00), plan00)

    def test_grid_mismatch_rejected(self, plan00):
        other = build_grid(0.5, -5, 5)
        psi = GridFunction.from_pairs(other, [(0, 1.0), (1, -2.0)])
        with pytest.raises(ValueError, match="different grids"):
            make_wavelet(psi, plan00)

    def test_scale_range_keeps_support_on_grid(self, grid00):
        ms = mother_scale_range((-2, 2), grid00)
        assert ms[0] == grid00.n_low + 2
        assert ms[-1] == grid00.n_high - 2


class TestDaughters:
    def test_off_grid_scale_rejected(self, spec00):
        bad = spec00.scale_indices[-1] + 1
        with pytest.raises(ValueError, match="off the grid"):
            daughter_wavelet(spec00, bad, 0)

    def test_daughter_values_finite(self, spec00):
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]
        d = daughter_wavelet(spec00, mid, 1)
        assert np.all(np.isfinite(d.values))
        assert np.any(d.values != 0.0)

    def test_spectrum_factorization(self, spec_shifted):
        # F[daughter] = sqrt(a) F[mother](a .) kernel(b .); the shifted
        # kernel lattice is the regime where a naive kernel sampling fails
        mid = spec_shifted.scale_indices[len(spec_shifted.scale_indices) // 2]
        err = factorization_error(spec_shifted, [mid - 1, mid, mid + 1],
                                  [0, 2], range(-6, 7))
        assert err < 1e-8


class TestTransformRoutes:
    def test_spectral_matches_direct(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (3, -0.5)])
        half = len(spec00.scale_indices) // 2
        ms = spec00.scale_indices[half - 1: half + 2]
        pos = [-2, 0, 3]
        fast = cwt(f, spec00, ms, pos).coeffs
        slow = cwt_direct(f, spec00, ms, pos).coeffs
        scale = np.max(np.abs(slow))
        np.testing.assert_allclose(fast, slow, atol=1e-10 * scale)

    def test_full_scaleogram_shape(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(1, 1.0)])
        sc = cwt(f, spec00)
        assert sc.coeffs.shape == (len(spec00.scale_indices), grid00.size)
        assert sc.scale_indices == spec00.scale_indices
        assert np.all(np.isfinite(sc.coeffs))

    def test_scale_rows_rejects_foreign_scale(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(1, 1.0)])
        with pytest.raises(ValueError, match="off the grid"):
            scale_rows(WaveletPlane(f, spec00).Ff, spec00,
                       [spec00.scale_indices[0] - 1])

    def test_transform_is_linear(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(0, 1.0)])
        g = GridFunction.from_pairs(grid00, [(2, 1.0)])
        half = len(spec00.scale_indices) // 2
        ms = spec00.scale_indices[half: half + 2]
        combo = GridFunction(grid00, 2.0 * f.values - 3.0 * g.values)
        lhs = cwt(combo, spec00, ms).coeffs
        rhs = 2.0 * cwt(f, spec00, ms).coeffs - 3.0 * cwt(g, spec00, ms).coeffs
        scale = np.max(np.abs(rhs))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


class TestScaleogram:
    def test_shape_mismatch_rejected(self, grid00):
        with pytest.raises(ValueError, match="does not match"):
            Scaleogram([0, 1], [0, 1, 2], np.zeros((2, 2)), grid00,
                       BesselParams(0.0, 0.0))

    def test_non_finite_rejected(self, grid00):
        bad = np.array([[1.0, math.inf]])
        with pytest.raises(ValueError, match="finite"):
            Scaleogram([0], [0, 1], bad, grid00, BesselParams(0.0, 0.0))

    def test_scales_and_positions_materialized(self, grid00):
        sc = Scaleogram([2, 3], [0, 1], np.ones((2, 2)), grid00,
                        BesselParams(0.0, 0.0))
        np.testing.assert_allclose(sc.scales, [0.25, 0.125])
        np.testing.assert_allclose(sc.positions, [1.0, 0.5])


class TestGatedSum:
    def test_pure_decay_sums_everything(self):
        contrib = {m: 0.5 ** abs(m) for m in range(-6, 7)}
        total, used = gated_scale_sum(contrib)
        assert used == set(range(-6, 7))
        assert total == pytest.approx(math.fsum(contrib.values()), rel=1e-15)

    def test_noise_floor_excluded(self):
        true_part = {m: 10.0 ** (-2 * abs(m)) for m in range(-5, 6)}
        noise = {m: 1e-20 for m in range(6, 40)}
        total, used = gated_scale_sum({**true_part, **noise})
        assert used == set(range(-5, 6))
        assert total == pytest.approx(math.fsum(true_part.values()), rel=1e-15)

    def test_short_gap_is_bridged(self):
        contrib = {0: 1.0, 1: 1e-20, 2: 1e-20, 3: 0.5, 4: 1e-20}
        total, used = gated_scale_sum(contrib)
        assert used == {0, 3}
        assert total == pytest.approx(1.5, rel=1e-15)

    def test_run_length_terminates_walk(self):
        contrib = {0: 1.0, 1: 1e-20, 2: 1e-20, 3: 1e-20, 4: 0.5}
        total, used = gated_scale_sum(contrib)
        assert used == {0}
        assert total == pytest.approx(1.0, rel=1e-15)


class TestPlancherel:
    def test_ratio_is_input_independent(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(0, 1.0)])
        g = GridFunction.from_pairs(grid00, [(2, 1.0), (4, -0.7)])
        r1 = wavelet_plancherel_ratio(WaveletPlane(f, spec00))
        r2 = wavelet_plancherel_ratio(WaveletPlane(g, spec00))
        assert rel_err(r1, r2) < 1e-6

    def test_ratio_equals_admissibility(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(1, 1.0)])
        r = wavelet_plancherel_ratio(WaveletPlane(f, spec00))
        assert rel_err(r, spec00.admissibility) < 1e-6

    def test_ratio_scale_invariant(self, spec00, grid00):
        f = GridFunction.from_pairs(grid00, [(1, 1.0)])
        r1 = wavelet_plancherel_ratio(WaveletPlane(f, spec00))
        r2 = wavelet_plancherel_ratio(WaveletPlane(f.scaled(37.0), spec00))
        assert rel_err(r1, r2) < 1e-13

    def test_zero_input_rejected(self, spec00, grid00):
        with pytest.raises(ValueError, match="zero function"):
            wavelet_plancherel_ratio(
                WaveletPlane(GridFunction.zeros(grid00), spec00))


def fdot_factorization_error(spec, scale_indices, position_indices,
                             xi_indices, dps=100):
    """factorization_error as it was written with mpmath's fdot and a
    kappa row of mpf objects, kept as the reference: the library's
    mp_dot on raw tuples must reproduce it bit for bit."""
    plan = spec.plan
    grid, v = plan.grid, plan.v
    psi = spec.mp_values
    k_lo, k_hi = 2 * grid.n_low, 2 * grid.n_high
    tab = lattice_kernel(v.nu, grid.q, k_lo, k_hi)
    idx = [int(n) for n in grid.indices]
    worst = 0.0
    with mpmath.workdps(dps):
        mp = mpmath.mp
        qmp = mp.mpf(grid.q)
        cmp_ = mp.mpf(plan.c_qv)
        wexp = 2.0 * v.abs_v + 2.0
        b = mp.mpf(v.beta)
        step = qmp ** (-2 * b)
        p = qmp ** (-2 * b * (k_lo + b))
        kap = {}
        for t in range(k_lo, k_hi + 1):
            kap[t] = p * tab[t]
            p *= step
        w = {n: (1 - qmp) * qmp ** (n * wexp) for n in idx}
        psi_mp = {n: mp.mpf(val) for n, val in psi.items()}

        def transform(weighted, s):
            return cmp_ * mp.fdot((val, kap[n + s]) for n, val in weighted)

        psi_w = [(n, val * w[n]) for n, val in psi_mp.items()]
        for m in scale_indices:
            root_a = mp.sqrt(qmp ** m)
            dil = qmp ** (-m * wexp)
            psi_a = {n + m: dil * val for n, val in psi_mp.items()}
            psi_a_w = [(n, val * w[n]) for n, val in psi_a.items()]
            FPa_w = {s: transform(psi_a_w, s) * w[s] for s in idx}
            profile = {s: root_a * transform(psi_w, m + s) for s in xi_indices}
            root_c = root_a * cmp_
            for n_b in position_indices:
                u = [(s, val * kap[n_b + s]) for s, val in FPa_w.items()]
                daughter_w = [(n, root_c * mp.fdot((val, kap[n + s])
                                                   for s, val in u) * w[n])
                              for n in idx]
                lhs = {s: transform(daughter_w, s) for s in xi_indices}
                rhs = {s: profile[s] * kap[n_b + s] for s in xi_indices}
                ref = max(abs(val) for val in rhs.values())
                err = max(abs(lhs[s] - rhs[s]) for s in xi_indices) / ref
                worst = max(worst, float(err))
    return worst


class TestFactorizationBitwise:
    # q = 0.5, v = (0, 0) leaves an error near 1e-73 at dps = 100: the
    # value most exposed to a change in mp rounding. At dps = 20 the
    # error is mp rounding alone, so a one-bit change anywhere shows.
    @pytest.mark.parametrize("dps", [100, 20])
    @pytest.mark.parametrize("q,alpha,beta", [(0.5, 0.0, 0.0),
                                              (0.3, 0.5, 0.25),
                                              (0.7, 1.0, -0.25)])
    def test_matches_fdot_reference(self, q, alpha, beta, dps):
        spec = operator_mother(make_plan(build_grid(q, -20, 40),
                                         BesselParams(alpha, beta)))
        mid = spec.scale_indices[len(spec.scale_indices) // 2]
        args = (spec, [mid - 1, mid], (-2, 0, 3), range(-5, 6), dps)
        got = factorization_error(*args)
        assert got == fdot_factorization_error(*args)
        assert 0.0 < got < 1e-8

    @pytest.mark.parametrize("positions,xis", [([41], range(-2, 3)),
                                               ([0], range(-21, -18)),
                                               ([0], range(38, 42))])
    def test_off_grid_indices_rejected(self, spec00, positions, xis):
        mid = spec00.scale_indices[len(spec00.scale_indices) // 2]
        with pytest.raises(ValueError, match="off the grid"):
            factorization_error(spec00, [mid], positions, xis)
