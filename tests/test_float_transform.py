"""The certified float route of the transform: plan.float_transform,
which spectrum calls, must give to_float(plan.mp_transform(...)) bit for
bit on every input, whichever route each output takes; qbessel's dd_dot
bound must hold against the exact sums; and dd_split_floats must split
a float array as dd_split splits from_float's tuples."""

import math
import random
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_float, from_man_exp, mpf_abs, mpf_add,
                          mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_shift,
                          round_nearest, to_float, to_int)

from qwave.qbessel import dd_dot, dd_round, dd_split, dd_split_floats, \
    mp_context, mp_dot, spectrum_dps
from qwave.qgrid import BesselParams, GridFunction, build_grid, \
    weight_exponent
from qwave.qtransform import TransformPlan, make_plan, spectrum
from qwave.qwavelet import operator_mother
from qwave.uncertainty import probe_family

ACCEPTANCE_CELLS = [(q, a, b) for q in (0.3, 0.5, 0.7)
                    for a, b in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))]


def mp_route(f, plan, s_lo=None, s_hi=None):
    """spectrum with every output from plan.mp_transform rounded once to
    float64, as it was computed before the certified route."""
    grid = plan.grid
    s_lo = grid.n_low if s_lo is None else s_lo
    s_hi = grid.n_high if s_hi is None else s_hi
    support = f.nonzero_values() if isinstance(f, GridFunction) else dict(f)
    depth = max(abs(s_lo), abs(s_hi), abs(grid.n_low), abs(grid.n_high),
                *(abs(n) for n in support))
    dps = spectrum_dps(grid.q, depth)
    ctx = mp_context(dps)
    values = {n: from_float(val) if isinstance(val, float)
              else ctx.mpf(val)._mpf_ for n, val in support.items()}
    return {s: to_float(val, rnd=round_nearest)
            for s, val in plan.mp_transform(values, s_lo, s_hi, dps).items()}


def bits(out):
    """{s: float.hex()}: equal only for the same bits, signed zeros too."""
    return {s: val.hex() for s, val in out.items()}


def array_bits(out, s_lo):
    """bits of a float_transform array over [s_lo, s_lo + len(out))."""
    return bits(dict(zip(range(s_lo, s_lo + len(out)), out.tolist())))


def raw_pair(values):
    """{n: raw tuple} as float_transform's (indices, values) pair."""
    return list(values), list(values.values())


@pytest.fixture
def routed(monkeypatch):
    """Records the outputs that take the mp_transform route: a list that
    gets every s each mp_transform call covers."""
    taken = []
    mp_transform = TransformPlan.mp_transform

    def recorded(self, values, s_lo, s_hi, dps):
        taken.extend(range(s_lo, s_hi + 1))
        return mp_transform(self, values, s_lo, s_hi, dps)

    monkeypatch.setattr(TransformPlan, "mp_transform", recorded)
    return taken


def stream_pool(grid, seed):
    """transform-stream's input pool (bench/workloads.py) for a seed: one
    input of each support size 3, 5, ..., 61, values in +-[0.1, 1)."""
    rng = random.Random(seed)
    sizes = list(range(3, 62, 2))
    rng.shuffle(sizes)
    pool = []
    for k in sizes:
        top = max(grid.n_low + k - 1, 10)
        idx = sorted(rng.sample(range(grid.n_low, top + 1), k))
        pool.append(GridFunction.from_pairs(grid, [
            (n, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0))
            for n in idx]))
    return pool


class TestSameBitsAsTheMpRoute:
    def test_stream_pool(self, plan_shifted, routed):
        # the stream's plan: every output is certified
        outputs = 0
        for f in stream_pool(plan_shifted.grid, 0):
            want = bits(mp_route(f, plan_shifted))
            routed.clear()
            assert array_bits(spectrum(f, plan_shifted),
                              plan_shifted.grid.n_low) == want
            assert routed == []
            outputs += len(want)
        assert outputs == 1830

    @pytest.mark.parametrize("cell", ACCEPTANCE_CELLS,
                             ids=lambda c: "q{}-a{}-b{}".format(*c))
    def test_verify_cell_probes_and_mother(self, cell, routed):
        q, alpha, beta = cell
        plan = make_plan(build_grid(q, -20, 40), BesselParams(alpha, beta))
        routed.clear()
        spec = operator_mother(plan)
        lo = spec.scale_indices[0] + plan.grid.n_low
        hi = lo + len(spec.profile) - 1
        declined = len(routed)
        want = mp_route(spec.mp_values, plan, lo, hi)
        assert [v.hex() for v in spec.profile.tolist()] == \
            [want[s].hex() for s in range(lo, hi + 1)]
        outputs = len(want)
        for f in probe_family(plan):
            want = bits(mp_route(f, plan))
            routed.clear()
            assert array_bits(spectrum(f, plan), plan.grid.n_low) == want
            declined += len(routed)
            outputs += len(want)
        assert declined < outputs

    def test_sweep_cell_probes_and_mother(self, spec_sweep00, routed):
        spec = spec_sweep00
        plan = spec.plan
        lo = spec.scale_indices[0] + plan.grid.n_low
        hi = lo + len(spec.profile) - 1
        want = mp_route(spec.mp_values, plan, lo, hi)
        assert [v.hex() for v in spec.profile.tolist()] == \
            [want[s].hex() for s in range(lo, hi + 1)]
        tiny_outputs = 0
        for i, f in enumerate(probe_family(plan)):
            want = mp_route(f, plan)
            routed.clear()
            assert array_bits(spectrum(f, plan), plan.grid.n_low) == \
                bits(want)
            assert len(routed) < len(want)
            tiny = {s for s, val in want.items() if abs(val) < 2.0 ** -1022}
            if i >= 7:
                # the two mean-free probes: the 2^-98 bound cannot
                # resolve their deep cancellation
                assert routed
            else:
                # zero and subnormal outputs are certified like the rest
                assert not tiny & set(routed)
                tiny_outputs += len(tiny)
        assert tiny_outputs > 0


def test_declined_counts_stay_bounded(routed):
    """How many outputs the certificate declines, as upper bounds: a
    bound that is rigorous but looser than dd_dot's must not quietly
    send more outputs to mp_transform. The stream pool declines none
    (TestSameBitsAsTheMpRoute.test_stream_pool); over the nine cells on
    [-20, 40] the mothers decline 473 and the probes 416."""
    mothers = probes = 0
    for q, alpha, beta in ACCEPTANCE_CELLS:
        plan = make_plan(build_grid(q, -20, 40), BesselParams(alpha, beta))
        routed.clear()
        operator_mother(plan)
        mothers += len(routed)
        routed.clear()
        for f in probe_family(plan):
            spectrum(f, plan)
        probes += len(routed)
    assert mothers <= 473
    assert probes <= 416


def test_folded_weights_follow_c_qv():
    """The plan keeps the products c w(n) with c = c_qv folded in: when
    c_qv is set by hand after the first float_transform, every output
    still has the mp route's bits, over supports that reuse some kept
    entries and need new ones."""
    plan = TransformPlan(build_grid(0.5, -20, 40), BesselParams(0.5, 0.25))
    dps = spectrum_dps(0.5, 40)
    outs = []
    for c, ns in ((1.0, range(-5, 6)), (1.7, range(0, 11)),
                  (1.7, range(-8, 3)), (0.3, range(-8, 11))):
        plan.c_qv = c
        x = np.array([1.0 / (n + 30) for n in ns])
        raw = dict(zip(ns, map(from_float, x.tolist())))
        want = bits({s: to_float(val, rnd=round_nearest) for s, val in
                     plan.mp_transform(raw, -20, 30, dps).items()})
        got = plan.float_transform((list(ns), x), -20, 30, dps)
        assert array_bits(got, -20) == want
        outs.append(got)
    assert not np.array_equal(outs[0], outs[1])


def test_inputs_off_the_grid(routed):
    """An input index off the grid is fine where every index sum n + s
    stays on the plan's range; the weights kept by grid position must
    not take it, nor hand its weight to another index."""
    plan = TransformPlan(build_grid(0.5, -20, 40), BesselParams(0.5, 0.25))
    for f, s_lo, s_hi in (({-25: 1.0, -22: -0.5}, -10, 10),
                          ({36: 0.25, 45: 1.0}, -30, 30),
                          ({36: 0.25, 39: -2.0}, -30, 30),
                          ({-25: 1.0, -22: -0.5}, -10, 10)):
        want = bits(mp_route(f, plan, s_lo, s_hi))
        routed.clear()
        assert array_bits(spectrum(f, plan, s_lo, s_hi), s_lo) == want
        assert routed == []


@st.composite
def transform_cases(draw):
    """Supports on [-20, 40], float or 200-digit mpf values, and some
    terms paired with a partner that cancels their zeroth moment, with
    an s window whose index sums stay on the plan's range."""
    ns = draw(st.lists(st.integers(-20, 36), min_size=1, max_size=8,
                       unique=True))
    values = {}
    for n in ns:
        if draw(st.booleans()):
            man = draw(st.integers(1, 2 ** 600))
            with mpmath.workdps(200):
                val = mpmath.mpf(man) / draw(st.integers(1, 2 ** 600))
        else:
            val = draw(st.floats(0.01, 100.0))
        if draw(st.booleans()):
            val = -val
        values[n] = val
        if draw(st.booleans()):
            values.setdefault(n + draw(st.integers(1, 4)),
                              ("partner", n, val))
    s_lo = draw(st.integers(-40 - min(values), 20))
    s_hi = draw(st.integers(s_lo, 80 - max(values)))
    return values, s_lo, s_hi


@settings(derandomize=True, max_examples=60, deadline=None)
@given(transform_cases())
def test_float_transform_equals_mp_transform(plan_shifted, case):
    plan = plan_shifted
    values, s_lo, s_hi = case
    q, grid = plan.grid.q, plan.grid
    depth = max(abs(s_lo), abs(s_hi), abs(grid.n_low), abs(grid.n_high))
    dps = spectrum_dps(q, depth)
    ctx = mp_context(dps + 40)
    wexp = weight_exponent(plan.v)
    raw = {}
    for n, val in values.items():
        if isinstance(val, tuple):
            # w(n) f(n) + w(m) f(m) = 0: the zeroth moment cancels
            _, m, partner = val
            val = -ctx.mpf(partner) * ctx.mpf(q) ** ((m - n) * wexp)
        raw[n] = from_float(val) if isinstance(val, float) \
            else mp_context(dps).mpf(val)._mpf_
    want = bits({s: to_float(val, rnd=round_nearest) for s, val in
                 plan.mp_transform(raw, s_lo, s_hi, dps).items()})
    got = plan.float_transform(raw_pair(raw), s_lo, s_hi, dps)
    assert array_bits(got, s_lo) == want
    floats = {n: val for n, val in values.items() if isinstance(val, float)}
    if len(floats) == len(values):
        # the same input as a float array
        got = plan.float_transform((list(floats), np.array(list(
            floats.values()))), s_lo, s_hi, dps)
        assert array_bits(got, s_lo) == want


# one_term_input's index and output index
N0, S0 = 3, 5


def one_term_input(plan, target):
    """A one-term input at N0 whose transform at S0 is target(x), for x
    the exact transform of the input 1 there, c w(N0) kappa(N0 + S0),
    all at three times the working precision. Returns the input as
    {N0: raw tuple} and that working precision (spectrum's at depth
    40)."""
    grid = plan.grid
    dps = spectrum_dps(grid.q, 40)
    w = plan.mp_weights([N0], dps)[N0]
    kap = plan.kappa_row(dps)[N0 + S0 - 2 * grid.n_low]
    with mpmath.workdps(3 * dps):
        x = mpmath.mpf(plan.c_qv) * mpmath.mpf(w) * mpmath.mpf(kap)
        val = target(x) / x
    return {N0: mp_context(dps).mpf(val)._mpf_}, dps


class TestCloseToAMidpoint:
    """A one-term input whose transform at s0 lies a chosen relative
    distance from a float64 round-to-nearest midpoint. The double-double
    bound (about 2^-98 relative) cannot decide 2^-101 and decides 2^-70;
    the double-double value itself (within about 2^-104) lies on the
    same side as the exact one, so each sign of 2^-101 meets the test on
    one side of the midpoint."""

    def output_near_midpoint(self, plan, rel):
        def target(x):
            d = float(x)
            mid = (mpmath.mpf(d) + mpmath.mpf(math.nextafter(d, math.inf))) / 2
            return mid * (1 + mpmath.mpf(rel))

        return one_term_input(plan, target)

    @pytest.mark.parametrize("rel,declined", [
        (2.0 ** -101, True), (-2.0 ** -101, True),
        (2.0 ** -70, False), (-2.0 ** -70, False)])
    def test_declined_only_where_the_bound_cannot_decide(
            self, plan_shifted, routed, rel, declined):
        values, dps = self.output_near_midpoint(plan_shifted, rel)
        s0 = S0
        got = plan_shifted.float_transform(raw_pair(values), s0 - 2, s0 + 2,
                                           dps)
        assert (s0 in routed) == declined
        assert routed in ([], [s0])
        routed.clear()
        want = plan_shifted.mp_transform(values, s0 - 2, s0 + 2, dps)
        assert array_bits(got, s0 - 2) == bits(
            {s: to_float(val, rnd=round_nearest) for s, val in want.items()})

    def test_the_side_of_the_midpoint_picks_the_float(self, plan_shifted):
        # the reference rounds up above the midpoint and down below it,
        # so a route that misjudged the side would differ by one ulp
        ups = []
        for rel in (2.0 ** -101, -2.0 ** -101):
            values, dps = self.output_near_midpoint(plan_shifted, rel)
            ups.append(plan_shifted.float_transform(
                raw_pair(values), S0, S0, dps)[0])
        assert ups[0] == math.nextafter(ups[1], math.inf)


class TestBelowTheNormalRange:
    """Outputs that round to zero or a subnormal are certified, and keep
    to_float's bits: its double rounding (to 53 bits, then to the
    subnormal grid) and the sign of a zero. A one-term input is scaled
    so that its transform R at S0 lies within 2^-200 relative of a
    chosen value. At a subnormal tie t(1 +- 2^-60), the first rounding
    lands on t and the second rounds half to even, which differs from
    rounding R once."""

    # R = man 2^exp; 2^-1075 is the tie between 0 and the least subnormal
    @pytest.mark.parametrize("man,exp,want,tie", [
        (2 ** 60 + 1, -1135, 0.0, True),
        (-2 ** 60 - 1, -1135, -0.0, True),
        (3 * 2 ** 60 - 3, -1135, 2.0 ** -1073, True),
        (-1, -1080, -0.0, False),
        (12345, -1094, 12345 * 2.0 ** -1094, False),
    ], ids=("tie-to-zero", "tie-to-minus-zero", "tie-to-even",
            "minus-zero", "subnormal"))
    def test_certified_with_to_floats_bits(self, plan_shifted, routed,
                                           man, exp, want, tie):
        values, dps = one_term_input(plan_shifted,
                                     lambda x: mpmath.ldexp(man, exp))
        s0 = S0
        got = plan_shifted.float_transform(raw_pair(values), s0, s0, dps)
        assert routed == []
        ref = plan_shifted.mp_transform(values, s0, s0, dps)[s0]
        assert got[0].hex() == to_float(ref, rnd=round_nearest).hex() \
            == want.hex()
        # rounding R once to the subnormal grid gives another float
        once = math.ldexp(to_int(mpf_shift(ref, 1074), round_nearest),
                          -1074)
        assert (once != want) == tie
        assert mpf_lt(ref, from_float(0.0)) == (man < 0)


def _random_tuple(rng, prec, exp_lo, exp_hi):
    """A random raw mpf tuple: zero one time in twenty, a float's 53 bits
    one time in five, else a full prec-bit mantissa."""
    if rng.random() < 0.05:
        return from_man_exp(0, 0)
    bc = 53 if rng.random() < 0.2 else prec
    man = rng.getrandbits(bc) | (1 << (bc - 1)) | 1
    return from_man_exp(rng.choice((-1, 1)) * man,
                        rng.randint(exp_lo, exp_hi) - bc)


def _dd_value(hi, lo, exp):
    """(hi + lo) 2^exp as an exact raw tuple."""
    return mpf_mul(mpf_add(from_float(hi), from_float(lo)),
                   from_man_exp(1, int(exp)))


def _within(a, b, err, exp):
    """|a - b| <= err 2^exp, exactly."""
    if math.isinf(err):
        return True
    return mpf_le(mpf_abs(mpf_add(a, mpf_neg(b))),
                  mpf_mul(from_float(err), from_man_exp(1, int(exp))))


def _exact_sum(w, v, col):
    """sum_k w_k v_k col_k, exactly."""
    total = from_man_exp(0, 0)
    for a, b, k in zip(w, v, col):
        total = mpf_add(total, mpf_mul(mpf_mul(a, b), k))
    return total


def _check_dd_dot(w, v, kap, c, prec, where):
    """dd_dot on the exact products c w_k, the v_k and the rows kap_i
    (raw tuples): the mp_transform reference and the exact sum both lie
    within err of the double-double value. Returns how many rows
    dd_round certifies."""
    c_raw = from_float(c)
    cw = [mpf_mul(c_raw, a) for a in w]
    # dd_dot's kap is (terms, rows)
    kap_dd = tuple(np.array(part).T for part in
                   zip(*[dd_split(col) for col in kap]))
    hi, lo, err, exp = dd_dot(dd_split(cw), dd_split(v), kap_dd, prec)
    weighted = [mpf_mul(a, b, prec, round_nearest) for a, b in zip(w, v)]
    for i, col in enumerate(kap):
        ref = mpf_mul(c_raw, mp_dot(weighted, col, prec), prec,
                      round_nearest)
        exact = mpf_mul(c_raw, _exact_sum(w, v, col))
        approx = _dd_value(hi[i], lo[i], exp[i])
        assert _within(ref, approx, err[i], exp[i]), (where, i)
        assert _within(exact, approx, err[i], exp[i]), (where, i)
    return int(dd_round(hi, lo, err, exp)[1].sum())


@pytest.mark.parametrize("seed", range(6))
def test_dd_dot_bound_holds_against_exact_sums(seed):
    """Random rows, mean-free ones among them, terms spread far enough
    to flush, and precisions whose 2^(3-prec) underflows: the
    mp_transform reference and the exact sum both lie within err of the
    double-double value."""
    rng = random.Random(seed)
    certified = 0
    for case in range(40):
        prec = rng.choice((120, 400, 1200))
        m = rng.randint(1, 12)
        rows = rng.randint(1, 5)
        spread = rng.choice((4, 60, 1500))
        w = [_random_tuple(rng, prec, -spread, spread) for _ in range(m)]
        v = [_random_tuple(rng, prec, -20, 20) for _ in range(m)]
        kap = [[_random_tuple(rng, prec, -spread, spread) for _ in range(m)]
               for _ in range(rows)]
        if m >= 2 and w[-1][1] and v[-1][1] and rng.random() < 0.5:
            # the last term cancels the first to a relative 2^-r
            r = rng.randint(0, 3 * prec)
            for col in kap:
                lead = mpmath.mpf(_exact_sum(w[:1], v[:1], col[:1]))
                with mpmath.workprec(prec):
                    col[-1] = (lead * (-1 + mpmath.ldexp(1, -r))
                               / (mpmath.mpf(w[-1]) * mpmath.mpf(v[-1])))._mpf_
        c = rng.uniform(0.5, 4.0)
        certified += _check_dd_dot(w, v, kap, c, prec, (seed, case))
    assert certified > 60


def _all_ones(exp, sign, bits):
    """sign (1 - 2^-bits) 2^exp as a raw tuple: a mantissa of bits ones."""
    return from_man_exp(sign * ((1 << bits) - 1), exp - bits)


# m + 2 crosses a power of two inside each run, so the extraction's 2^M
# is as tight as it gets; 481 terms is the sweep grid's widest support
TERM_COUNTS = [m for k in range(2, 9) for m in range(2 ** k - 3, 2 ** k + 1)]
TERM_COUNTS.append(481)


@pytest.mark.parametrize("m", TERM_COUNTS)
def test_dd_dot_bound_at_the_extractions_limits(m):
    """Term counts around powers of two, on columns that fill the first
    extraction's range. Where every term has the exponent of the
    column's largest, the scaled highs of one sign sum to near m: from
    random mantissas, and from all-ones ones, whose highs are all
    +-(1 - 2^-52), the float next to 1 - 2^-53, so every extracted part
    is +-1. Mixed signs and random rows ride along."""
    rng = random.Random(m)
    prec = 400
    # c w_k v_k = 2 (1 - 2^-400) 2^-a_k 2^a_k: one exponent for all k
    a = [rng.randint(-30, 30) for _ in range(m)]
    w = [_all_ones(-ak, 1, prec) for ak in a]
    v = [from_man_exp(1, ak) for ak in a]
    signs = [rng.choice((-1, 1)) for _ in range(m)]
    kap = [[_all_ones(0, sign, prec) for _ in range(m)] for sign in (1, -1)]
    kap.append([_all_ones(0, (-1) ** k, prec) for k in range(m)])
    kap.append([_all_ones(0, sign, prec) for sign in signs])
    kap += [[from_man_exp(sign * (rng.getrandbits(prec) | 1 << (prec - 1)),
                          -prec) for _ in range(m)] for sign in (1, -1)]
    kap.append([from_man_exp(sign * (rng.getrandbits(prec) | 1 << (prec - 1)),
                             -prec) for sign in signs])
    certified = _check_dd_dot(w, v, kap, 2.0, prec, m)
    assert certified >= 5
    w = [_random_tuple(rng, prec, -4, 4) for _ in range(m)]
    v = [_random_tuple(rng, prec, -4, 4) for _ in range(m)]
    kap = [[_random_tuple(rng, prec, -60, 60) for _ in range(m)]
           for _ in range(2)]
    _check_dd_dot(w, v, kap, rng.uniform(0.5, 4.0), prec, m)


def test_dd_round_certifies_only_away_from_midpoints():
    """dd_round on hand-made double-double values: 1 + 2^-53 is the
    midpoint above 1, and 1 - 2^-54 the one below it."""
    one = np.ones(6)
    # the last four: below 1, clear of its midpoint; reaching it; an
    # infinite bound; and, above 1, reaching 1 + 2^-53
    lo = np.array([2.0 ** -60, 2.0 ** -54, -2.0 ** -56, -2.0 ** -55, 0.0,
                   2.0 ** -54])
    err = np.array([2.0 ** -80, 2.0 ** -55, 2.0 ** -56, 2.0 ** -55,
                    math.inf, 2.0 ** -54])
    values, ok = dd_round(one, lo, err, np.zeros(6, dtype=np.int64))
    assert values.tolist() == [1.0] * 6
    assert ok.tolist() == [True, True, True, False, False, False]
    # nothing at 2^1023 or above is certified, nor a |hi| below 2^-900
    exps = np.array([1022, 1023, 0, 0], dtype=np.int64)
    hi = np.array([1.0, 1.0, 2.0 ** -900, 2.0 ** -901])
    _, ok = dd_round(hi, np.zeros(4), 2.0 ** -80 * hi, exps)
    assert ok.tolist() == [True, False, True, False]


def test_dd_round_matches_to_float_below_the_normal_range():
    """Down through the subnormal range and past it, a certified value
    is to_float of the exact (hi + lo) 2^exp, double rounding and the
    sign of a zero included: hi on, next to and between subnormal ties,
    lo pushing the value off them either way."""
    mants = [0.5, 0.75, 0.625, 1 - 2.0 ** -53, 0.5 + 2.0 ** -53,
             0.75 + 2.0 ** -53, 0.75 - 2.0 ** -53]
    rows = [(sign * m, sign * lo, e) for m in mants for sign in (1, -1)
            for lo in (0.0, 2.0 ** -70, -2.0 ** -70)
            for e in range(-1140, -1015)]
    hi, lo, exp = (np.array(col) for col in zip(*rows))
    values, ok = dd_round(hi, lo, np.full(len(rows), 2.0 ** -90),
                          exp.astype(np.int64))
    assert ok.all()
    want = [to_float(_dd_value(*row), rnd=round_nearest).hex()
            for row in rows]
    assert [v.hex() for v in values.tolist()] == want
    assert {"0x0.0p+0", "-0x0.0p+0"} <= set(want)


def _finite_floats(rng, count):
    """Floats from uniform random bit patterns, so every exponent,
    subnormals included, is about as likely, and the edge values."""
    xs = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -2.0 ** -1022,
          math.nextafter(2.0 ** -1022, 0.0), 1.0, -0.5, 3.0,
          1.7976931348623157e308, -1.7976931348623157e308]
    while len(xs) < count:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(x):
            xs.append(x)
    return xs


def test_dd_split_floats_equals_dd_split_of_from_float():
    xs = _finite_floats(random.Random(0), 4000)
    got = dd_split_floats(np.array(xs))
    want = dd_split([from_float(x) for x in xs])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    # -0.0 maps to from_float's +0 tuple
    assert dd_split_floats(np.array([-0.0]))[0].tobytes() == \
        np.array([0.0]).tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_spectrum_rejects_non_finite_floats(plan_shifted, bad):
    with pytest.raises(ValueError, match="inf or nan"):
        spectrum({0: 1.0, 2: bad}, plan_shifted, -5, 5)
