"""Calibrated transform: normalization constant, involution, kernel
columns, translation, and the high-precision spectrum route."""

import math
import random
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_float, round_nearest, to_float

from qwave import qtransform
from qwave.qbessel import (FLOAT_ROW_DPS, lattice_kernel,
                           modified_q_bessel_bound, mp_context, mp_dot,
                           spectrum_dps)
from qwave.qgrid import BesselParams, GridFunction, build_grid, dilate
from qwave.qtransform import (
    CalibrationError,
    OrderError,
    TransformPlan,
    make_plan,
    q_bessel_fourier,
    spectrum,
    translate,
)
from qwave.qwavelet import operator_mother

from conftest import plan_kernel, rel_err


class TestCalibration:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_constant_closed_form(self, q):
        # at v = (0, 0) the normalization is 1 / (1 - q)
        c = make_plan(build_grid(q, -20, 40), BesselParams(0.0, 0.0)).c_qv
        assert rel_err(c, 1.0 / (1.0 - q)) < 1e-9

    @pytest.mark.parametrize("q,alpha,beta", [
        (q, a, b) for q in (0.3, 0.5, 0.7)
        for a, b in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))])
    def test_constant_matches_its_closed_form(self, q, alpha, beta):
        # c = q^{2 beta^2} (Q^{nu+1}; Q)_inf / ((1-q) (Q; Q)_inf), with
        # Q = q^2 and nu = alpha - beta, at 40 digits: the calibrated
        # constant on the x1 and x2 grids is within 2^-49 of it (at most
        # 0.71 of that, at q = 0.7, v = (0, 0) on x1, from truncation)
        with mpmath.workdps(40):
            qm = mpmath.mpf(q)
            Q = qm ** 2
            nu = mpmath.mpf(alpha) - mpmath.mpf(beta)
            want = (qm ** (2 * mpmath.mpf(beta) ** 2)
                    * mpmath.qp(Q ** (nu + 1), Q)
                    / ((1 - qm) * mpmath.qp(Q, Q)))
            for k in (1, 2):
                c = make_plan(build_grid(q, -20 * k, 40 * k),
                              BesselParams(alpha, beta)).c_qv
                assert abs(c / want - 1) < mpmath.mpf(2) ** -49, k

    def test_exact_at_half(self, plan00):
        assert plan00.c_qv == pytest.approx(2.0, rel=1e-12)
        assert plan00.calibration_residual < 1e-6

    def test_probe_independent(self, grid00, plan00):
        # the constant calibrated on the plan's own probes inverts the
        # double transform on a different probe family too
        mid = 12
        probes = [GridFunction.from_pairs(grid00, [(mid + k, 1.0)])
                  for k in range(-2, 2)]
        probes.append(GridFunction.from_pairs(
            grid00, [(mid, 1.0), (mid + 3, -0.5)]))
        assert plan00.involution_residual(probes) < 1e-9

    def test_empty_probe_list_rejected(self, plan00):
        # this returned 0.0, a residual that no probe measured
        with pytest.raises(ValueError, match="need at least one probe"):
            plan00.involution_residual([])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_probe_rejected(self, grid00, plan00):
        # this returned nan, with a RuntimeWarning from dividing 0 by 0
        probes = [GridFunction.from_pairs(grid00, [(0, 1.0)]),
                  GridFunction.from_pairs(grid00, [])]
        with pytest.raises(ValueError,
                           match="^involution probe 1 is identically zero$"):
            plan00.involution_residual(probes)

    @pytest.mark.parametrize("q,alpha,beta", [
        (0.3, 0.0, 0.0), (0.5, 0.5, 0.25), (0.7, 1.0, -0.25)])
    def test_block_reads_each_probe_alone(self, q, alpha, beta):
        # the probes are read as one block; each ratio and residual has
        # the bits of its probe's own transforms and math.fsum sums
        plan = make_plan(build_grid(q, -20, 40), BesselParams(alpha, beta))
        probes = qtransform._calibration_probes(plan.grid)
        c, plan.c_qv = plan.c_qv, 1.0
        rhos = []
        for f in probes:
            g = plan.fourier_values(plan.fourier_values(f.values))
            rhos.append(math.fsum((g * f.values * plan.weights).tolist())
                        / plan.norm_sq(f.values))
        assert c == 1.0 / math.sqrt(rhos[0])
        plan.c_qv = c
        resid = 0.0
        for f in probes:
            g = plan.fourier_values(plan.fourier_values(f.values))
            resid = max(resid, math.sqrt(plan.norm_sq(g - f.values)
                                         / plan.norm_sq(f.values)))
        assert plan.calibration_residual == resid
        assert plan.involution_residual(probes) == resid

    def test_nan_spread_refused(self, monkeypatch):
        # a nan ratio past the first probe: max() over the spreads
        # dropped it, and the plan was made
        probes = qtransform._calibration_probes

        def with_nan(grid):
            fam = probes(grid)
            values = fam[2].values.copy()
            values[values != 0.0] = math.nan
            fam[2] = SimpleNamespace(values=values)
            return fam

        monkeypatch.setattr(qtransform, "_calibration_probes", with_nan)
        with pytest.raises(CalibrationError,
                           match="spread nan across probes"):
            TransformPlan(build_grid(0.5, -20, 40), BesselParams(0.0, 0.0))

    def test_one_plan_per_call(self, grid00, monkeypatch):
        # c is calibrated on the plan it is measured on, not on a copy
        built = []

        class Recorded(TransformPlan):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(qtransform, "TransformPlan", Recorded)
        plan = make_plan(grid00, BesselParams(0.0, 0.0))
        assert built == [(grid00, plan.v)]
        assert plan.c_qv == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("q,alpha,beta", [
        (q, a, b) for q in (0.3, 0.5, 0.7)
        for a, b in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))])
    def test_constructor_is_calibrated(self, q, alpha, beta):
        # a plan made directly is make_plan's, bit for bit: no
        # uncalibrated c = 1 plan can be had
        grid, v = build_grid(q, -20, 40), BesselParams(alpha, beta)
        plan, want = TransformPlan(grid, v), make_plan(grid, v)
        assert plan.c_qv == want.c_qv != 1.0
        assert plan.calibration_residual == want.calibration_residual
        assert np.array_equal(plan.scaled_kernel, want.scaled_kernel)
        assert np.array_equal(plan.kernel_exponents, want.kernel_exponents)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-0.5, 0.75)],
                             ids=("nu-1", "nu-1.25"))
    def test_order_refused_before_any_table(self, monkeypatch, alpha,
                                            beta):
        def no_table(*args):
            raise AssertionError("kernel table built")

        monkeypatch.setattr(qtransform, "lattice_kernel", no_table)
        with pytest.raises(OrderError, match="must satisfy nu > -1"):
            TransformPlan(build_grid(0.5, -20, 40),
                          BesselParams(alpha, beta))

    def test_constructor_refuses_a_spread_calibration(self):
        # the probes' ratios spread 0.39 at q = 0.99 on [-20, 40]
        with pytest.raises(CalibrationError,
                           match=r"spread 3\.899e-01 across probes"):
            TransformPlan(build_grid(0.99, -20, 40), BesselParams(0.0, 0.0))

    def test_cramped_grid_fails_calibration(self):
        with pytest.raises(CalibrationError, match="grid too small"):
            make_plan(build_grid(0.5, -2, 2), BesselParams(0.0, 0.0))

    def test_zero_ratio_fails_calibration(self):
        # every probe's double-transform ratio is exactly 0 on this grid
        with pytest.raises(CalibrationError, match="ratio 0 of the first"):
            make_plan(build_grid(0.5, -40, -5), BesselParams(0.0, 0.0))

    def test_sub_minimal_grid_rejected(self):
        with pytest.raises(ValueError, match="four grid points"):
            make_plan(build_grid(0.5, 0, 2), BesselParams(0.0, 0.0))


class TestTransform:
    def test_zero_maps_to_zero(self, plan00, grid00):
        out = q_bessel_fourier(GridFunction.zeros(grid00), plan00)
        assert np.all(out.values == 0.0)

    def test_linearity(self, plan00, grid00):
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (3, -0.5)])
        g = GridFunction.from_pairs(grid00, [(1, 2.0), (2, 0.25)])
        combo = GridFunction(grid00, 2.0 * f.values + 3.0 * g.values)
        lhs = q_bessel_fourier(combo, plan00).values
        rhs = (2.0 * q_bessel_fourier(f, plan00).values
               + 3.0 * q_bessel_fourier(g, plan00).values)
        scale = np.max(np.abs(rhs))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)

    def test_indicator_column_is_kernel(self, plan00, grid00):
        # F[delta_0](s) = c (1-q) j(q^s) when v = (0, 0)
        q = grid00.q
        v = BesselParams(0.0, 0.0)
        out = q_bessel_fourier(
            GridFunction.from_pairs(grid00, [(0, 1.0)]), plan00)
        for s in range(0, 11):
            ref = plan00.c_qv * (1.0 - q) * modified_q_bessel_bound(
                v, q ** s, q)[0]
            assert rel_err(out.value_at(s), ref) < 1e-11

    def test_indicator_column_shifted_kernel(self, plan_shifted):
        # with beta != 0 the kernel is sampled on the shifted lattice:
        # F[delta_0](s) = c (1-q) jtilde(q^{s + beta})
        grid = plan_shifted.grid
        q = grid.q
        v = plan_shifted.v
        out = q_bessel_fourier(
            GridFunction.from_pairs(grid, [(0, 1.0)]), plan_shifted)
        for s in range(0, 11):
            ref = plan_shifted.c_qv * (1.0 - q) * modified_q_bessel_bound(
                v, q ** (s + v.beta), q)[0]
            assert rel_err(out.value_at(s), ref) < 1e-11

    def test_involution_on_fresh_probe(self, plan00, grid00):
        # double transform must return the input; use a probe outside
        # the calibration family
        f = GridFunction.from_pairs(grid00, [(4, 1.0), (6, -2.0), (9, 0.5)])
        back = q_bessel_fourier(q_bessel_fourier(f, plan00), plan00)
        num = math.sqrt(plan00.norm_sq(back.values - f.values))
        den = math.sqrt(plan00.norm_sq(f.values))
        assert num / den < 1e-5

    def test_grid_mismatch_rejected(self, plan00):
        other = build_grid(0.5, -5, 5)
        with pytest.raises(ValueError, match="different grids"):
            q_bessel_fourier(GridFunction.zeros(other), plan00)


class TestPlanMatrix:
    """The plan's matrix, a copy of the float kappa row's sliding windows,
    against the gather through the N x N array of index sums that it
    replaced, bit for bit: on the verify grids x1, x2 and x4 and on the
    sweep grid at q = 0.5, v = (0, 0) (the sweep fixture's table covers
    the smaller plans), and on two beta != 0 cells."""

    @pytest.fixture(params=["x1", "x2", "x4", "sweep", "shifted",
                            "sweep-deep"])
    def plan(self, request, spec_sweep00):
        k = {"x1": 1, "x2": 2, "x4": 4}.get(request.param)
        if k:
            return make_plan(build_grid(0.5, -20 * k, 40 * k),
                             BesselParams(0.0, 0.0))
        return {"sweep": lambda: spec_sweep00.plan,
                "shifted": lambda: request.getfixturevalue("plan_shifted"),
                "sweep-deep": lambda: request.getfixturevalue(
                    "spec_sweep_deep").plan}[request.param]()

    def test_equals_the_index_sum_gather(self, plan):
        grid = plan.grid
        row = np.array([to_float(k, rnd=round_nearest)
                        for k in plan.kappa_row(FLOAT_ROW_DPS)])
        sums = np.add.outer(grid.indices, grid.indices) - 2 * grid.n_low
        gathered = row[sums]
        kernel = plan_kernel(plan)
        assert kernel.shape == (grid.size, grid.size)
        assert kernel.tobytes() == gathered.tobytes()
        # scaled in place in its own C-ordered buffer, not a view of the row
        scaled = plan.scaled_kernel
        assert scaled.flags.c_contiguous and scaled.flags.owndata

    def test_column_exponents_keep_every_entry_normal(self, plan):
        # k_j in [0, 64], as large as keeps every nonzero entry of column
        # j normal: its least magnitude is then below 2^-1021 unless k_j
        # is 64, and a column holding a subnormal entry keeps k_j = 0
        k = plan.kernel_exponents
        assert 0 <= k.min() and k.max() <= 64
        mags = np.abs(plan_kernel(plan))
        mags[mags == 0.0] = math.inf
        least = np.ldexp(mags.min(axis=0), -k)
        tiny = np.finfo(float).tiny
        assert np.all((least >= tiny) | (k == 0))
        assert np.all((least < 2 * tiny) | (k == 64)
                      | (mags.min(axis=0) < tiny))
        assert k.max() > 0


class TestTranslate:
    def test_symmetry_in_the_two_points(self, plan00, grid00):
        f = GridFunction.from_pairs(grid00, [(1, 1.0)])
        t2 = translate(f, 2, plan00)
        t5 = translate(f, 5, plan00)
        assert abs(t2.value_at(5) - t5.value_at(2)) < 1e-12

    def test_double_sum_oracle(self, plan00, grid00):
        # T_{q^x} f(q^y) = c sum_s kappa(y+s) kappa(x+s) Ff(s) w(s),
        # assembled here term by term from the kernel matrix
        f = GridFunction.from_pairs(grid00, [(1, 1.0)])
        x_idx, y_idx = 1, 1
        w = plan00.weights
        ker = plan_kernel(plan00)
        Ff = plan00.c_qv * ker @ (w * f.values)
        oracle = plan00.c_qv * math.fsum(
            ker[grid00.pos(y_idx)] * w * Ff * ker[grid00.pos(x_idx)])
        got = translate(f, x_idx, plan00).value_at(y_idx)
        assert abs(got - oracle) < 1e-14

    def test_translate_by_largest_point_of_unit_mass(self, plan00, grid00):
        # translating an indicator keeps total transform mass bounded
        f = GridFunction.from_pairs(grid00, [(2, 1.0)])
        out = translate(f, 2, plan00)
        assert np.all(np.isfinite(out.values))
        assert abs(out.value_at(2)) > 0.0


class TestSpectrum:
    def test_matches_matrix_route_at_moderate_depth(self, plan00, grid00):
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (2, -0.5)])
        dense = plan00.fourier_values(f.values)
        sparse = spectrum(f, plan00, 0, 10)
        for s in range(0, 11):
            assert rel_err(sparse[s], dense[grid00.pos(s)]) < 1e-12

    def test_dilation_covariance(self, plan00, grid00):
        # F[f(./q^m)](s) = q^{m(2|v|+2)} F[f](s + m), exact on the lattice
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (1, -0.5)])
        m = 3
        lam = grid00.q ** (m * (2.0 * plan00.v.abs_v + 2.0))
        lhs = spectrum(dilate(f, m), plan00, -5, 5)
        rhs = spectrum(f, plan00, -5 + m, 5 + m)
        # both arrays start at their s_lo: lhs[i] is s = i - 5, rhs[i]
        # is s + m
        for i in range(11):
            assert rel_err(lhs[i], lam * rhs[i]) < 1e-14

    def test_accepts_high_precision_dict_input(self, plan00):
        import mpmath as mp
        direct = spectrum({0: mp.mpf(1), 2: mp.mpf("-0.5")}, plan00, 0, 5)
        via_fn = spectrum(GridFunction.from_pairs(
            plan00.grid, [(0, 1.0), (2, -0.5)]), plan00, 0, 5)
        for s in range(0, 6):
            assert direct[s] == via_fn[s]

    def test_one_sided_bounds(self, plan00, grid00):
        # each bound left out defaults to its own end of the grid range
        f = {0: 1.0, 3: -0.5}
        for s_lo, s_hi, lo, hi in ((None, 3, grid00.n_low, 3),
                                   (-3, None, -3, grid00.n_high)):
            want = spectrum(f, plan00, lo, hi)
            assert len(want) == hi - lo + 1
            assert spectrum(f, plan00, s_lo, s_hi).tolist() == want.tolist()

    def test_zero_input_gives_zero_spectrum(self, plan00, grid00):
        out = spectrum(GridFunction.zeros(grid00), plan00, -3, 3)
        assert len(out) == 7 and all(val == 0.0 for val in out)

    def test_mean_free_depth_beyond_float64(self, plan00, grid00):
        # a mean-free pair decays like q^{2s} in the spectrum; at depth
        # s = 30 the matrix route is pure noise while the entrywise route
        # still resolves the value
        q = grid00.q
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (2, -q ** -4.0)])
        deep = spectrum(f, plan00, 28, 32)
        assert all(math.isfinite(val) and val != 0.0 for val in deep)
        # with the leading order cancelled the tail decays like q^{2s};
        # deep[i] is s = 28 + i
        for i in (1, 2, 3):
            assert rel_err(abs(deep[i + 1] / deep[i]), q * q) < 1e-6

    def test_index_sum_off_the_plan_range_rejected(self, plan00, grid00):
        # the plan's kappa row spans the index sums [2 n_low, 2 n_high]
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (2, -0.5)])
        for s_lo, s_hi in ((-41, 0), (0, 79)):
            with pytest.raises(ValueError, match="plan's range"):
                spectrum(f, plan00, s_lo, s_hi)
        edges = spectrum(f, plan00, -40, 78)
        assert all(math.isfinite(val) for val in edges)

    def test_rejected_before_any_precision_is_set_up(self, plan00, grid00):
        # a far-off index would ask for a context of millions of digits;
        # the call must raise before it builds one
        f = GridFunction.from_pairs(grid00, [(0, 1.0), (2, -0.5)])
        built = mp_context.cache_info().misses
        for s_lo, s_hi in ((-10 ** 6, 0), (0, 10 ** 6)):
            with pytest.raises(ValueError, match="plan's range"):
                spectrum(f, plan00, s_lo, s_hi)
        assert mp_context.cache_info().misses == built


def per_term_spectrum(f, plan, s_lo, s_hi):
    """The entrywise spectrum as first written: one mpmath power and two
    roundings per (n, s) pair, summed in order. The library hoists the
    powers and sums exact products; rounded to float64 the two must not
    differ. Its exponents are formed from mpf(alpha) and mpf(beta), as
    the library's are, not from float64 sums. Returns the outputs over
    [s_lo, s_hi] as a list."""
    grid, v = plan.grid, plan.v
    if isinstance(f, GridFunction):
        support = {int(grid.indices[i]): f.values[i]
                   for i in np.nonzero(f.values)[0]}
    else:
        support = dict(f)
    ns = list(support)
    tab = lattice_kernel(v.nu, grid.q, min(ns) + s_lo, max(ns) + s_hi)
    depth = max(abs(s_lo), abs(s_hi), abs(grid.n_low), abs(grid.n_high),
                *(abs(n) for n in ns))
    dps = int(2 * depth * math.log10(1.0 / grid.q)) + 80
    out = []
    with mpmath.mp.workdps(dps):
        qmp = mpmath.mpf(grid.q)
        cmp_ = mpmath.mpf(plan.c_qv)
        alpha, beta = mpmath.mpf(v.alpha), mpmath.mpf(v.beta)
        wexp = 2 * (alpha + beta) + 2
        weighted = {n: (1 - qmp) * qmp ** (n * wexp) * mpmath.mpf(val)
                    for n, val in support.items()}
        for s in range(s_lo, s_hi + 1):
            acc = mpmath.mpf(0)
            for n, wval in weighted.items():
                acc += wval * (qmp ** (-2 * beta * (n + s + beta))) \
                    * tab[n + s]
            out.append(float(cmp_ * acc))
    return out


# (1, 0.45): alpha + beta is not a double, so only exact exponents agree
_ORACLE_CELLS = [(q, alpha, beta) for q in (0.3, 0.7)
                 for alpha, beta in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25),
                                     (1.0, 0.45))]


@pytest.fixture(scope="module", params=_ORACLE_CELLS,
                ids=lambda c: "q{}-a{}-b{}".format(*c))
def oracle_plan(request):
    q, alpha, beta = request.param
    return make_plan(build_grid(q, -20, 40), BesselParams(alpha, beta))


class TestSpectrumBitwise:
    def test_dense_input(self, oracle_plan):
        grid = oracle_plan.grid
        vals = np.random.default_rng(11).standard_normal(grid.size)
        f = GridFunction(grid, vals)
        want = per_term_spectrum(f, oracle_plan, grid.n_low, grid.n_high)
        assert spectrum(f, oracle_plan).tolist() == want

    def test_mean_free_input_at_depth(self, oracle_plan):
        # the zeroth moment cancels, so deep outputs sit far below the
        # individual terms
        grid, v = oracle_plan.grid, oracle_plan.v
        q = grid.q
        f = GridFunction.from_pairs(
            grid, [(0, 1.0), (2, -q ** (-2.0 * (2.0 * v.abs_v + 2.0)))])
        want = per_term_spectrum(f, oracle_plan, -10, 70)
        assert spectrum(f, oracle_plan, -10, 70).tolist() == want

    def test_mother_profile_range(self, oracle_plan):
        # the mp-valued mother over the extended range make_wavelet asks
        spec = operator_mother(oracle_plan)
        lo = spec.scale_indices[0] + oracle_plan.grid.n_low
        hi = lo + len(spec.profile) - 1
        want = per_term_spectrum(spec.mp_values, oracle_plan, lo, hi)
        assert spec.profile.tolist() == want


def cold_spectrum(f, plan, s_lo=None, s_hi=None):
    """spectrum on a copy of plan with an empty operand cache, as a
    list."""
    fresh = make_plan(plan.grid, plan.v)
    return spectrum(f, fresh, s_lo, s_hi).tolist()


class TestSpectrumOperandCache:
    """spectrum keeps the Jackson weights and one kappa row per working
    precision with the plan; a warm plan must give exactly what a cold
    computation gives, and what the per-term oracle gives."""

    @pytest.fixture(params=[(0.75, 0.25), (0.7, 0.3)], ids=("b0.25", "b0.3"))
    def plan(self, request):
        # a q no other test uses, so deepening its tables here does not
        # reach another test's values
        return make_plan(build_grid(0.45, -20, 40), BesselParams(*request.param))

    def oracles(self, f, plan, s_lo, s_hi):
        yield cold_spectrum(f, plan, s_lo, s_hi)
        yield per_term_spectrum(f, plan, s_lo, s_hi)

    def inputs(self, plan):
        grid, v = plan.grid, plan.v
        rng = random.Random(3)
        out = []
        for lo in (-20, -7, 0, 4, 12, -7):
            ns = sorted(rng.sample(range(lo, lo + 12), 4))
            out.append(GridFunction.from_pairs(
                grid, [(n, rng.uniform(-1.0, 1.0)) for n in ns]))
        # mean-free, so deep outputs sit far below the individual terms
        q = grid.q
        out.append(GridFunction.from_pairs(
            grid, [(0, 1.0), (2, -q ** (-2.0 * (2.0 * v.abs_v + 2.0)))]))
        return out

    def test_repeated_calls_across_supports(self, plan):
        grid = plan.grid
        for f in self.inputs(plan) * 2:
            # (-5, 57) is the widest window whose index sums stay in range
            for s_lo, s_hi in ((grid.n_low, grid.n_high), (-5, 57)):
                got = spectrum(f, plan, s_lo, s_hi).tolist()
                for want in self.oracles(f, plan, s_lo, s_hi):
                    assert got == want

    def test_one_row_per_precision(self, plan):
        grid = plan.grid
        for f in self.inputs(plan):
            for s_lo, s_hi in ((grid.n_low, grid.n_high), (-5, 57)):
                spectrum(f, plan, s_lo, s_hi)
        operator_mother(plan)
        # depths 40, 57 and 78 (the mother's profile range): three
        # working precisions, each with one row over every index sum
        rows = list(plan._kappa_rows.values())
        assert len(rows) == 3
        assert all(len(row) == 2 * grid.size - 1 for row in rows)

    def test_dict_input_after_grid_function(self, plan):
        # the same support as a GridFunction first, then as mpf values at
        # excess precision, which round to the working precision
        f = GridFunction.from_pairs(plan.grid, [(0, 1.0), (2, -0.5)])
        spectrum(f, plan, -10, 30)
        with mpmath.mp.workdps(400):
            d = {0: mpmath.mpf(1) / 3, 2: -mpmath.mpf(2) / 7}
        got = spectrum(d, plan, -10, 30).tolist()
        for want in self.oracles(d, plan, -10, 30):
            assert got == want

    def test_table_deepened_between_calls(self, plan):
        grid, v = plan.grid, plan.v
        f = self.inputs(plan)[1]
        first = spectrum(f, plan).tolist()
        # deepening changes the table's s < 0 entries in their last
        # digits, far below the row's float64 outputs
        lattice_kernel(v.nu, grid.q, -200, 120)
        again = spectrum(f, plan).tolist()
        for want in self.oracles(f, plan, grid.n_low, grid.n_high):
            assert again == want
        assert again == first


class TestPlanOperands:
    """The plan's cached weights and kappa row, raw tuple for raw tuple
    against a fresh computation at the same precision. Float outputs
    cannot show a row rounded from another start or precision: spectrum
    works 80 digits beyond the depth its outputs need."""

    def test_rows_and_weights_match_fresh(self):
        plan = make_plan(build_grid(0.35, -20, 40), BesselParams(0.7, 0.3))
        grid, v = plan.grid, plan.v
        t_lo, t_hi = 2 * grid.n_low, 2 * grid.n_high
        requests = [(120, -13, 30), (120, -5, 30), (160, -5, 45),
                    (120, -15, 25), (120, -5, 37), (160, -13, 45)]
        for dps, n_lo, n_hi in requests * 2:
            ns = range(n_lo, n_hi)
            row = plan.kappa_row(dps)
            weights = plan.mp_weights(ns, dps)
            tab = lattice_kernel(v.nu, grid.q, t_lo, t_hi)
            # the fresh values come from mpmath's global context: one
            # power, then one multiply by q^{-2 beta} per step
            with mpmath.mp.workdps(dps):
                qmp = mpmath.mpf(grid.q)
                b = mpmath.mpf(v.beta)
                step = qmp ** (-2 * b)
                p = qmp ** (-2 * b * (t_lo + b))
                fresh = []
                for t in range(t_lo, t_hi + 1):
                    fresh.append((p * tab[t])._mpf_)
                    p *= step
                assert row == fresh
                # the exact exponent: 0.7 + 0.3 rounds to 1.0 in float64
                wexp = 2 * (mpmath.mpf(v.alpha) + mpmath.mpf(v.beta)) + 2
                for n in ns:
                    assert weights[n] == ((1 - qmp) * qmp ** (n * wexp))._mpf_


def global_transform(values, plan, s_values, dps):
    """c * sum_n w(n) values[n] kappa(n + s) for each s, in mpmath's
    global context at dps digits, term by term: each weight from its
    formula, each kappa(t) from one power and a running product by
    q^{-2 beta} (the rounding plan.kappa_row documents), each weighted
    value rounded once, each sum by mpmath.fdot. Raw tuples out."""
    grid, v = plan.grid, plan.v
    t_lo, t_hi = 2 * grid.n_low, 2 * grid.n_high
    tab = lattice_kernel(v.nu, grid.q, t_lo, t_hi)
    with mpmath.mp.workdps(dps):
        mp = mpmath.mp
        qmp = mp.mpf(grid.q)
        b = mp.mpf(v.beta)
        step = qmp ** (-2 * b)
        p = qmp ** (-2 * b * (t_lo + b))
        kappa = {}
        for t in range(t_lo, t_hi + 1):
            kappa[t] = p * tab[t]
            p *= step
        wexp = 2 * (mp.mpf(v.alpha) + b) + 2
        weighted = {n: (1 - qmp) * qmp ** (n * wexp) * mp.make_mpf(val)
                    for n, val in values.items()}
        c = mp.mpf(plan.c_qv)
        return {s: (c * mp.fdot((wval, kappa[n + s])
                                for n, wval in weighted.items()))._mpf_
                for s in s_values}


class TestMpTransform:
    """plan.mp_transform raw tuple for raw tuple against global_transform,
    at spectrum's precision for the call's depth and at 20 digits, where
    a one-bit change in any rounding shows."""

    @pytest.mark.parametrize("x", [1.0, -0.75, 2.0 ** -1074, -3e-310,
                                   1.7976931348623157e308, 0.1,
                                   np.float64(-1e-300)])
    def test_float_converts_to_the_context_tuple(self, x):
        # spectrum converts a float input with from_float, which is exact
        for dps in (20, 80, 400):
            assert from_float(x) == mp_context(dps).mpf(x)._mpf_

    def test_empty_input_sums_to_zero(self, plan00):
        assert plan00.mp_transform({}, -3, 2, 60) == \
            {s: mpmath.mpf(0)._mpf_ for s in range(-3, 3)}

    @pytest.fixture(params=["spec00", "spec_shifted"])
    def spec(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("low", [False, True], ids=("deep", "dps20"))
    def test_mean_free_input_at_depth(self, spec, low):
        plan = spec.plan
        q, v = plan.grid.q, plan.v
        values = {0: from_float(1.0),
                  2: from_float(-q ** (-2.0 * (2.0 * v.abs_v + 2.0)))}
        s_values = range(-10, 71)
        dps = 20 if low else spectrum_dps(q, 70)
        assert plan.mp_transform(values, -10, 70, dps) == \
            global_transform(values, plan, s_values, dps)

    @pytest.mark.parametrize("low", [False, True], ids=("deep", "dps20"))
    def test_mpf_valued_input(self, spec, low):
        # the mother at its own excess precision, over its profile range
        plan = spec.plan
        grid = plan.grid
        values = {n: val._mpf_ for n, val in spec.mp_values.items()}
        lo = spec.scale_indices[0] + grid.n_low
        s_values = range(lo, lo + len(spec.profile))
        depth = max(abs(s_values[0]), abs(s_values[-1]),
                    abs(grid.n_low), abs(grid.n_high))
        dps = 20 if low else spectrum_dps(grid.q, depth)
        assert plan.mp_transform(values, s_values[0], s_values[-1],
                                 dps) == \
            global_transform(values, plan, s_values, dps)


    def test_index_sum_off_the_plan_range_rejected(self, plan00):
        # the kappa row is a list over [2 n_low, 2 n_high] = [-40, 80]: a
        # sum below it must not wrap to the row's far end, and one above
        # it must not end in an IndexError
        one = {0: from_float(1.0)}
        for s in (-41, -50, 81):
            with pytest.raises(ValueError, match=r"plan's range \[-40, 80\]"):
                plan00.mp_transform(one, min(0, s), max(0, s), 60)
        with pytest.raises(ValueError, match=r"index sums \[-45, 5\]"):
            plan00.mp_transform({-5: from_float(1.0), 5: from_float(1.0)},
                                -40, 0, 60)
        edges = {**plan00.mp_transform(one, -40, -40, 60),
                 **plan00.mp_transform(one, 80, 80, 60)}
        assert edges == global_transform(one, plan00, [-40, 80], 60)


def _random_mpf(rng, spread):
    """A random mpf at the current precision: zero one time in ten, else
    a signed mantissa of up to 2*prec bits times 2^e, |e| <= spread."""
    if rng.random() < 0.1:
        return mpmath.mpf(0)
    man = rng.getrandbits(rng.randint(1, 2 * mpmath.mp.prec)) or 1
    return mpmath.ldexp(rng.choice((-1, 1)) * mpmath.mpf(man),
                        rng.randint(-spread, spread))


def _both(A, B):
    """(mp_dot, fdot) at the current precision, as raw tuples."""
    A = [mpmath.mpf(a) for a in A]
    B = [mpmath.mpf(b) for b in B]
    got = mp_dot([a._mpf_ for a in A], [b._mpf_ for b in B],
                 mpmath.mp.prec)
    return got, mpmath.fdot(A, B)._mpf_


class TestMpDot:
    """mp_dot against mpmath's fdot, which it replaces: the raw tuples
    must be equal, not merely close."""

    @pytest.mark.parametrize("dps", [15, 40, 120, 300, 900])
    def test_random_vectors(self, dps):
        rng = random.Random(dps)
        with mpmath.workdps(dps):
            for length in range(71):
                spread = rng.choice((0, 20, 300, 5000, 20000))
                A = [_random_mpf(rng, spread) for _ in range(length)]
                B = [_random_mpf(rng, spread) for _ in range(length)]
                if length >= 3 and rng.random() < 0.3:
                    # cancel the first product exactly at the end
                    A[-1], B[-1] = -A[0], B[0]
                got, want = _both(A, B)
                assert got == want, (dps, length, spread)

    @pytest.mark.parametrize("dps", [15, 300])
    def test_drop_and_replace_branches(self, dps):
        # mpf_sum drops a term more than 2*prec bits below the running
        # sum and replaces a running sum that far below a new term; each
        # case below enters one of those branches
        with mpmath.workdps(dps):
            far = 5 * mpmath.mp.prec
            big, tiny = mpmath.ldexp(3, far), mpmath.ldexp(5, -far)
            cases = [
                ([tiny, big], [1, 1]),          # replace a nonzero sum
                ([big], [7]),                   # replace the empty sum
                ([big, tiny], [1, -1]),         # drop the smaller term
                ([big, -big, tiny], [1, 1, 1]),  # cancelled sum: take it
                ([1, tiny, -1, big, tiny], [tiny, big, 3, big, 1]),
            ]
            for A, B in cases:
                got, want = _both(A, B)
                assert got == want

    @pytest.mark.parametrize("dps", [15, 100])
    def test_threshold_edges(self, dps):
        # a term d bits away from the running sum survives (d <= 2*prec
        # plus its own width) or not; a later exact cancellation of the
        # larger term leaves either it or zero, so an off-by-one in
        # either threshold changes the result
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            for man in (1, 5, 2 ** 70 + 1):
                for d in range(prec - 2, 2 * prec + 80):
                    big = mpmath.ldexp(man, d)
                    for A in ([man, big, -big], [big, man, -big]):
                        got, want = _both(A, [1, 1, 1])
                        assert got == want, (man, d, A.index(man))

    def test_empty_and_zero(self):
        with mpmath.workdps(30):
            assert _both([], []) == (mpmath.mpf(0)._mpf_,) * 2
            assert _both([0, 2], [5, 0]) == (mpmath.mpf(0)._mpf_,) * 2
            assert _both([3, -3], [2, 2]) == (mpmath.mpf(0)._mpf_,) * 2

    @pytest.mark.parametrize("special", ["+inf", "-inf", "nan"])
    @pytest.mark.parametrize("other", [1, 0])
    def test_special_operands_raise(self, special, other):
        # mpmath stores +-inf and nan with a zero mantissa; summed as
        # zeros they would give a finite number where fdot gives inf/nan
        x = mpmath.mpf(special)._mpf_
        y = mpmath.mpf(other)._mpf_
        for A, B in (([x, y], [y, y]), ([y, y], [y, x])):
            with pytest.raises(ValueError, match="inf or nan"):
                mp_dot(A, B, 53)
