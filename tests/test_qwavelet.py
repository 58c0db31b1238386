"""Mother wavelets, admissibility, the two transform routes, and the
gated scale summation."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import qwavelet
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
from qwave.uncertainty import probe_family
from qwave.verify import ACCEPTANCE_Q, ACCEPTANCE_V

from conftest import eager_gated_scale_sum, plan_kernel, rel_err

# sha256 of both mothers' sorted (n, raw mpf tuple) pairs over the nine
# acceptance cells on [-20, 40], from before the stencil was shared
MOTHER_DIGEST = ("7b74bb371da6c39399b5d2dcb2f04e0c"
                 "25279e84904c36188489aee1d5593161")


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
        top = np.max(np.abs(prof))
        assert abs(prof[0]) < 1e-6 * top
        assert abs(prof[-1]) < 1e-6 * top

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

    @pytest.mark.parametrize("mother,alpha,beta", [
        (operator_mother, 1.0, 0.45),
        (indicator_difference_mother, 1.0, 0.45),
        (operator_mother, 0.3, 0.55)])
    def test_admissibility_flat_under_grid_doubling(self, mother, alpha,
                                                    beta):
        # 1 + 0.45 and 0.3 + 0.55 are rounded in float64; an exponent
        # formed from that sum left the mother's spectrum a residual of
        # its zeroth moment, which q^{-2 beta s} blew up on the finer
        # grid: C_psi read 11.96 and then 1.2e13 at v = (1, 0.45)
        c = [mother(make_plan(build_grid(0.5, -20 * k, 40 * k),
                              BesselParams(alpha, beta))).admissibility
             for k in (1, 2)]
        assert rel_err(c[1], c[0]) < 1e-12

    def test_zero_mother_rejected(self, plan00, grid00):
        with pytest.raises(ValueError, match="zero mother"):
            make_wavelet(GridFunction.zeros(grid00), plan00)

    def test_grid_mismatch_rejected(self, plan00):
        other = build_grid(0.5, -5, 5)
        psi = GridFunction.from_pairs(other, [(0, 1.0), (1, -2.0)])
        with pytest.raises(ValueError, match="different grids"):
            make_wavelet(psi, plan00)

    def test_mother_mp_values_are_pinned(self):
        # both mothers' excess-precision values, as raw mpf tuples, at
        # the nine acceptance cells on the default grid: operator_mother
        # forms them through qbessel.q_bessel_operator, the stencil the
        # eigencheck shares, so a change to that stencil's operations
        # shows here, not only in the float64 roundings downstream
        digest = hashlib.sha256()
        for q in ACCEPTANCE_Q:
            for alpha, beta in ACCEPTANCE_V:
                plan = make_plan(build_grid(q, -20, 40),
                                 BesselParams(alpha, beta))
                for mother in (operator_mother, indicator_difference_mother):
                    digest.update(repr(sorted(
                        (n, val._mpf_)
                        for n, val in mother(plan).mp_values.items()
                    )).encode())
        assert digest.hexdigest() == MOTHER_DIGEST

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
        fast = cwt(f, spec00, ms).coeffs[:, [grid00.pos(n) for n in pos]]
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


class TestScaleRowBlock:
    """cwt's coefficients are the block that scale_rows builds over every
    scale. Each of its rows must equal the one-row block that
    plane.rows([m]) builds, and the row formula the block replaced,
    sqrt(q^m) * plan.fourier_values(profile window * Ff), bit for bit:
    on q = 0.5, v = (0, 0) at N = 61, 121, 241 and 481, for the mean-free
    probe, whose deep spectrum holds subnormals."""

    @pytest.fixture(scope="class", params=[1, 2, 4, 8],
                    ids=("N61", "N121", "N241", "N481"))
    def plane(self, request, spec_sweep00):
        k = request.param
        spec = spec_sweep00 if k == 8 else operator_mother(make_plan(
            build_grid(0.5, -20 * k, 40 * k), BesselParams(0.0, 0.0)))
        return WaveletPlane(probe_family(spec.plan)[-1], spec)

    def test_cwt_block_equals_one_row_blocks(self, plane, monkeypatch):
        spec = plane.spec
        blocks = []

        def spy(Ff, spec, scale_indices=None):
            blocks.append(scale_rows(Ff, spec, scale_indices))
            return blocks[-1]

        monkeypatch.setattr(qwavelet, "scale_rows", spy)
        coeffs = cwt(plane.f, spec).coeffs
        # the block itself, with no copy or restacking
        assert len(blocks) == 1 and coeffs is blocks[0]
        assert coeffs.shape == (len(spec.scale_indices), spec.plan.grid.size)
        for row, m in zip(coeffs, spec.scale_indices):
            assert row.tobytes() == plane.rows([m])[0].tobytes()

    def test_rows_equal_the_row_formula(self, plane):
        spec = plane.spec
        plan = spec.plan
        n = plan.grid.size
        for i, m in enumerate(spec.scale_indices):
            want = math.sqrt(plan.grid.q ** float(m)) * plan.fourier_values(
                spec.profile[i:i + n] * plane.Ff)
            assert plane.rows([m])[0].tobytes() == want.tobytes()

    def test_sub_block_equals_its_rows(self, plane):
        spec = plane.spec
        ms = spec.scale_indices[3:9]
        block = scale_rows(plane.Ff, spec, range(ms[0], ms[-1] + 1))
        assert block.tobytes() == np.vstack(
            [plane.rows([m])[0] for m in ms]).tobytes()

    @pytest.mark.parametrize("pick", [[0, 2], [1, 0], []],
                             ids=("gap", "descending", "empty"))
    def test_scales_in_any_order(self, spec00, pick):
        # any admissible scales, in the order asked for, each row with
        # the bits of its one-row block
        f = GridFunction.from_pairs(spec00.plan.grid, [(1, 1.0)])
        Ff = WaveletPlane(f, spec00).Ff
        ms = [spec00.scale_indices[3 * i] for i in pick]
        block = scale_rows(Ff, spec00, ms)
        assert block.shape == (len(ms), spec00.plan.grid.size)
        for row, m in zip(block, ms):
            assert row.tobytes() == scale_rows(Ff, spec00, [m])[0].tobytes()


@pytest.mark.parametrize("q,alpha,beta", [
    (q, a, b) for q in (0.3, 0.5, 0.7)
    for a, b in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))])
def test_stacked_gemv_equals_per_row_dot(q, alpha, beta):
    """scale_rows' one stacked matmul over the plan's column-scaled
    kernel gives each row the bits of its own np.dot(M, x_i) with the
    kernel M itself, the loop it replaced, on every lattice cell at
    N = 61, 121, 241 and 481, for blocks of one, two, seven and 64 rows
    (every scale at N = 61). The profile and spectrum are random over a
    wide exponent range, with zeros and subnormals among them."""
    rng = np.random.default_rng(0)
    for k in (1, 2, 4, 8):
        plan = make_plan(build_grid(q, -20 * k, 40 * k),
                         BesselParams(alpha, beta))
        n = plan.grid.size
        ms = mother_scale_range((0, 2), plan.grid)
        kernel = plan_kernel(plan)

        def wide(size):
            x = rng.standard_normal(size) * np.exp2(
                rng.integers(-1070, -100, size).astype(float))
            x[rng.random(size) < 0.05] = 0.0
            return x

        spec = qwavelet.WaveletSpec(None, plan, 1.0, {}, ms,
                                    wide(len(ms) + n - 1))
        Ff = wide(n)
        for start, count in ((0, min(len(ms), 64)), (5, 1),
                             (len(ms) - 2, 2), (n // 3, 7)):
            x = spec.windows[start:start + count] * Ff[None]
            x *= plan.weights[None]
            want = np.empty_like(x)
            for xi, wi in zip(x, want):
                np.dot(kernel, xi, out=wi)
            want *= plan.c_qv
            want *= spec.roots[start:start + count, None]
            got = scale_rows(Ff, spec, ms[start:start + count])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (k, start, count)


@pytest.mark.parametrize("power", [1.0, 2.0])
@pytest.mark.parametrize("plan_of", [
    lambda request: request.getfixturevalue("plan_shifted"),
    lambda request: request.getfixturevalue("spec_sweep00").plan],
    ids=("stream-grid", "sweep-grid"))
def test_log2_abs_matvec_reads_the_transpose(request, plan_of, power):
    """The bounds' |M| product, read from the scaled kernel's rows with
    log2 |S_ij| + k_j, is log2(|M^T|^p @ 2^v) for the kernel M rebuilt
    exactly: M is symmetric, and the shift k_j restores each column."""
    plan = plan_of(request)
    v = np.random.default_rng(1).uniform(-40.0, 40.0, plan.grid.size)
    want = np.log2(np.abs(plan_kernel(plan).T) ** power @ np.exp2(v))
    with np.errstate(divide="ignore"):
        got = qwavelet._log2_abs_matvec(plan, v, power)
    np.testing.assert_allclose(got, want, rtol=2.0 ** -40, atol=0.0)


class TestScaleogram:
    def test_shape_mismatch_rejected(self, grid00):
        with pytest.raises(ValueError, match="does not match"):
            Scaleogram([0, 1], [0, 1, 2], np.zeros((2, 2)), grid00)

    def test_non_finite_rejected(self, grid00):
        bad = np.array([[1.0, math.inf]])
        with pytest.raises(ValueError, match="finite"):
            Scaleogram([0], [0, 1], bad, grid00)

    def test_scales_and_positions_materialized(self, grid00):
        sc = Scaleogram([2, 3], [0, 1], np.ones((2, 2)), grid00)
        np.testing.assert_allclose(sc.scales, [0.25, 0.125])
        np.testing.assert_allclose(sc.positions, [1.0, 0.5])


def bounded_gate(contrib, bounds):
    """gated_scale_sum over the contributions {m: value} with the given
    bounds, and the batches of scales it asked for, in order."""
    batches = []

    def contributions(ms):
        batches.append(list(ms))
        return [contrib[m] for m in ms]

    return gated_scale_sum(bounds, contributions), batches


def check_batches(batches):
    """At most three batches, none empty, and no scale asked twice.
    Returns the scales asked for, in order."""
    computed = [m for batch in batches for m in batch]
    assert 1 <= len(batches) <= 3 and all(batches)
    assert len(computed) == len(set(computed))
    return computed


def same_sum(got, want):
    """(total, used) equal, a NaN total included."""
    return (repr(got[0]), got[1]) == (repr(want[0]), want[1])


class TestGatedSum:
    """The walk, on the eager reference and on gated_scale_sum with exact
    and with infinite bounds, which must agree bit for bit."""

    @staticmethod
    def gate(contrib):
        want = eager_gated_scale_sum(contrib)
        for bounds in (dict(contrib), dict.fromkeys(contrib, math.inf)):
            got, batches = bounded_gate(contrib, bounds)
            assert same_sum(got, want)
            check_batches(batches)
        return want

    def test_pure_decay_sums_everything(self):
        contrib = {m: 0.5 ** abs(m) for m in range(-6, 7)}
        total, used = self.gate(contrib)
        assert used == set(range(-6, 7))
        assert total == pytest.approx(math.fsum(contrib.values()), rel=1e-15)

    def test_noise_floor_excluded(self):
        true_part = {m: 10.0 ** (-2 * abs(m)) for m in range(-5, 6)}
        noise = {m: 1e-20 for m in range(6, 40)}
        total, used = self.gate({**true_part, **noise})
        assert used == set(range(-5, 6))
        assert total == pytest.approx(math.fsum(true_part.values()), rel=1e-15)

    def test_short_gap_is_bridged(self):
        contrib = {0: 1.0, 1: 1e-20, 2: 1e-20, 3: 0.5, 4: 1e-20}
        total, used = self.gate(contrib)
        assert used == {0, 3}
        assert total == pytest.approx(1.5, rel=1e-15)

    def test_run_length_terminates_walk(self):
        contrib = {0: 1.0, 1: 1e-20, 2: 1e-20, 3: 1e-20, 4: 0.5}
        total, used = self.gate(contrib)
        assert used == {0}
        assert total == pytest.approx(1.0, rel=1e-15)

    def test_infinite_bounds_compute_every_scale(self):
        contrib = {m: 10.0 ** (-2 * abs(m)) for m in range(-5, 30)}
        _, batches = bounded_gate(contrib, dict.fromkeys(contrib, math.inf))
        assert sorted(check_batches(batches)) == sorted(contrib)

    def test_exact_bounds_compute_the_peak_and_the_walk(self):
        # the top scale, then every scale whose bound is not below
        # GATE_REL_TAIL of its value; on a clean decay those are exactly
        # the scales the walk sums
        contrib = {m: 10.0 ** (-2 * abs(m)) for m in range(-5, 30)}
        (_, used), batches = bounded_gate(contrib, dict(contrib))
        assert batches == [[0], sorted(used - {0})]
        assert used == set(range(-5, 7))

    def test_peak_tie_goes_to_the_lowest_scale(self):
        # two equal peaks a falling run apart: the walk from scale 1 sums
        # {1}, the walk from 5 would sum {5}
        contrib = {0: 1e-20, 1: 1.0, 2: 1e-20, 3: 1e-20, 4: 1e-20, 5: 1.0}
        want = eager_gated_scale_sum(contrib)
        assert want == (1.0, {1})
        for bounds in (dict(contrib), {**contrib, 1: 2.0},
                       {**contrib, 5: 2.0}, {**contrib, 5: math.nan}):
            got, batches = bounded_gate(contrib, bounds)
            assert same_sum(got, want)
            assert {1, 5} <= set(check_batches(batches))

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=("inf", "nan"))
    def test_non_finite_contributions(self, bad):
        # a contribution that is not finite carries a bound that is not
        # finite either; the walk then matches the reference's, whose
        # peak is a NaN scale only when that scale is the lowest. In the
        # last layout a falling run parts the NaN from the true peak.
        hill = {m: 2.0 ** -abs(m - 3) for m in range(8)}
        parted = {0: 1e-20, 1: 0.0, 2: 1e-20, 3: 1e-20, 4: 1e-20, 5: 1.0,
                  6: 0.5}
        for layout, where in ((hill, 0), (hill, 1), (hill, 5), (parted, 1)):
            contrib = {**layout, where: bad}
            for bound in (math.inf, math.nan):
                bounds = {**contrib, where: bound}
                got, batches = bounded_gate(contrib, bounds)
                assert same_sum(got, eager_gated_scale_sum(contrib))
                check_batches(batches)


@st.composite
def gate_cases(draw):
    """Contributions over a window of scales, drawn from a few repeated
    levels (so that peaks tie), zeros and random values, with a few
    replaced by negative, infinite or NaN ones, and a bound for each:
    equal to it, above it, infinite or NaN (a NaN contribution only gets
    the last two, since no finite bound is above it). Both dicts list
    their scales in a shuffled order."""
    lo = draw(st.integers(-40, 40))
    level = st.one_of(st.sampled_from([0.0, 1e-30, 1e-13, 0.5, 1.0, 2.0]),
                      st.floats(0.0, 4.0), st.floats(0.0, 1e-12))
    values = draw(st.lists(level, min_size=1, max_size=30))
    odd = st.one_of(st.sampled_from([-0.0, -1e-20, -1.0, math.inf,
                                     -math.inf, math.nan]),
                    st.floats(-4.0, 0.0))
    for i, val in draw(st.lists(st.tuples(
            st.integers(0, len(values) - 1), odd), max_size=3)):
        values[i] = val
    order = draw(st.permutations(range(lo, lo + len(values))))
    contrib = {m: values[m - lo] for m in order}
    bounds = {}
    for m, val in contrib.items():
        kind = draw(st.sampled_from(
            ["inf", "nan"] if math.isnan(val)
            else ["equal", "above", "above", "inf", "nan"]))
        if kind == "above":
            factor = draw(st.floats(1.0, 1e6))
            bounds[m] = val * factor if val >= 0.0 else val / factor
        else:
            bounds[m] = {"equal": val, "inf": math.inf, "nan": math.nan}[kind]
    return contrib, bounds


@settings(derandomize=True, max_examples=400, deadline=None)
@given(gate_cases())
def test_bounded_gate_equals_eager_gate(case):
    contrib, bounds = case
    got, batches = bounded_gate(contrib, bounds)
    assert same_sum(got, eager_gated_scale_sum(contrib))
    computed = check_batches(batches)
    # a scale whose bound is +inf or NaN is always computed
    assert {m for m, b in bounds.items() if not b < math.inf} <= \
        set(computed)


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
