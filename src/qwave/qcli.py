"""Command-line entry point: configuration, data ingestion, the
verification suites, and CSV/JSON emission.

Every numeric field is printed through one formatter at 17 significant
digits, so identical inputs produce byte-identical outputs. CSV column
order follows the grid index (ascending n, so descending x); JSON keys
keep construction order. Output files are UTF-8 with LF line ends.
"""

import argparse
import json
import math
import sys

import numpy as np

from qwave.qbessel import (TruncationError, generalized_q_bessel_operator,
                           modified_q_bessel_bound)
from qwave.qgrid import (BesselParams, GridFunction, build_grid,
                         jackson_integral, jackson_weights, q_derivative,
                         read_function, write_function, dilate)
from qwave.qtransform import CalibrationError, make_plan, q_bessel_fourier
from qwave.qwavelet import (WaveletPlane, cwt, factorization_error,
                            indicator_difference_mother, operator_mother,
                            wavelet_plancherel_ratio)
from qwave.uncertainty import (WorkerError, empirical_lower_constant,
                               heisenberg_slice_minimum, parallel_map,
                               probe_family, uncertainty_report,
                               weighted_energy_ratio)

ACCEPTANCE_Q = (0.3, 0.5, 0.7)
ACCEPTANCE_V = ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))

_MOTHERS = {"operator": operator_mother, "indicator": indicator_difference_mother}

_DEFAULTS = {"q": 0.5, "alpha": 0.0, "beta": 0.0, "n_low": -20, "n_high": 40,
             "mother": "operator"}

_LIST_KEYS = {"q_list", "alpha_list", "beta_list"}


class UsageError(ValueError):
    """Bad flags, config values, or input files; exits with status 2."""


def fmt17(x):
    return "%.17g" % float(x)


def _json_text(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class RunConfig:
    """Validated run parameters, merged from defaults, a flat key=value
    config file, and command-line flags (flags win)."""

    __slots__ = ("q", "alpha", "beta", "n_low", "n_high", "mother", "given")

    def __init__(self, q, alpha, beta, n_low, n_high, mother, given=()):
        self.q = float(q)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.n_low = int(n_low)
        self.n_high = int(n_high)
        self.mother = str(mother)
        self.given = frozenset(given)
        self.validate()

    def validate(self):
        if not 0.0 < self.q < 1.0:
            raise UsageError(f"q must lie in (0,1), got {fmt17(self.q)}")
        for name, val in (("alpha", self.alpha), ("beta", self.beta),
                          ("alpha + beta", self.alpha + self.beta)):
            if not math.isfinite(val):
                raise UsageError(f"{name} must be finite, got {fmt17(val)}")
        if not self.alpha + self.beta > -1.0:
            raise UsageError(
                f"alpha + beta must exceed -1, got {fmt17(self.alpha + self.beta)}")
        if self.n_low > self.n_high:
            raise UsageError(f"need n_low <= n_high, got [{self.n_low}, {self.n_high}]")
        if self.mother not in _MOTHERS:
            raise UsageError(f"mother must be one of {sorted(_MOTHERS)}, "
                             f"got {self.mother!r}")

    @property
    def v(self):
        return BesselParams(self.alpha, self.beta)

    def grid(self):
        return build_grid(self.q, self.n_low, self.n_high)


def parse_config_file(path):
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    out = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_CONFIG_KEYS = {"q": float, "alpha": float, "beta": float,
                "nlow": int, "nhigh": int, "mother": str}
_FIELD_OF = {"q": "q", "alpha": "alpha", "beta": "beta",
             "nlow": "n_low", "nhigh": "n_high", "mother": "mother"}


def build_config(args):
    fields = dict(_DEFAULTS)
    given = set()
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key in _LIST_KEYS:
                continue
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            try:
                fields[_FIELD_OF[key]] = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: cannot parse {raw!r}")
            given.add(_FIELD_OF[key])
    for flag, field in _FIELD_OF.items():
        val = getattr(args, flag, None)
        if val is not None:
            fields[field] = val
            given.add(field)
    return RunConfig(fields["q"], fields["alpha"], fields["beta"],
                     fields["n_low"], fields["n_high"], fields["mother"],
                     given)


def _parse_float_list(raw, key):
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {raw!r}")
    if not vals:
        raise UsageError(f"config key {key!r} is empty")
    return vals


def _read_input(path):
    if not path:
        raise UsageError("this subcommand requires --in <csv>")
    try:
        return read_function(path)
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}")
    except ValueError as exc:
        raise UsageError(f"malformed input {path}: {exc}")


# --- subcommands -----------------------------------------------------------


def cmd_grid(cfg, args):
    grid = cfg.grid()
    w = jackson_weights(grid, cfg.v)
    lines = ["n,x,weight"]
    for i, n in enumerate(grid.indices):
        lines.append(f"{int(n)},{fmt17(grid.points[i])},{fmt17(w[i])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bessel(cfg, args):
    grid = cfg.grid()
    v = cfg.v
    if args.eigencheck:
        lam = float(args.lam)
        if lam <= 0.0:
            raise UsageError(f"lam must be positive, got {fmt17(lam)}")
        vals = np.array([modified_q_bessel_bound(v, lam * x, cfg.q)[0]
                         for x in grid.points])
        f = GridFunction(grid, vals)
        op = generalized_q_bessel_operator(f, v)
        lines = ["x,ratio"]
        for i, x in enumerate(op.grid.points):
            denom = f.value_at(op.grid.n_low + i)
            lines.append(f"{fmt17(x)},{fmt17(op.values[i] / denom)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    lines = ["x,value,err_bound"]
    for x in grid.points:
        val, bound = modified_q_bessel_bound(v, x, cfg.q)
        lines.append(f"{fmt17(x)},{fmt17(val)},{fmt17(bound)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_fourier(cfg, args):
    if args.calibrate:
        plan = make_plan(cfg.grid(), cfg.v)
        payload = {"c_qv": plan.c_qv, "residual": plan.calibration_residual}
        _emit(_json_text(payload) + "\n", args.out)
        return 0
    f = _read_input(getattr(args, "infile", None))
    plan = make_plan(f.grid, cfg.v)
    g = q_bessel_fourier(f, plan)
    if args.out:
        write_function(g, args.out)
    else:
        lines = ["n,value"]
        for i, n in enumerate(g.grid.indices):
            lines.append(f"{int(n)},{fmt17(g.values[i])}")
        _emit("\n".join(lines) + "\n", None)
    return 0


def _parse_scales(raw, spec):
    if raw is None:
        return None
    try:
        lo_s, _, hi_s = raw.partition(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"--scales wants LO:HI integers, got {raw!r}")
    avail = spec.scale_indices
    if lo > hi or lo < avail[0] or hi > avail[-1]:
        raise UsageError(f"scale range [{lo}, {hi}] outside available "
                         f"[{avail[0]}, {avail[-1]}]")
    return list(range(lo, hi + 1))


def cmd_cwt(cfg, args):
    f = _read_input(getattr(args, "infile", None))
    plan = make_plan(f.grid, cfg.v)
    spec = _MOTHERS[cfg.mother](plan)
    scales = _parse_scales(args.scales, spec)
    sg = cwt(f, spec, scales)
    lines = ["a,b,coeff"]
    for i, m in enumerate(sg.scale_indices):
        a = sg.scales[i]
        for j in range(len(sg.position_indices)):
            lines.append(f"{fmt17(a)},{fmt17(sg.positions[j])},"
                         f"{fmt17(sg.coeffs[i, j])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_plancherel(cfg, args):
    plan = make_plan(cfg.grid(), cfg.v)
    spec = _MOTHERS[cfg.mother](plan)
    probes = probe_family(plan)
    ratio = wavelet_plancherel_ratio(WaveletPlane(probes[0], spec))
    payload = {"ratio": ratio, "C_v_psi": spec.admissibility,
               "ratio_over_C": ratio / spec.admissibility,
               "probes": len(probes)}
    _emit(_json_text(payload) + "\n", args.out)
    return 0


def cmd_uncertainty(cfg, args):
    if args.sweep:
        return _run_sweep(cfg, args)
    plan = make_plan(cfg.grid(), cfg.v)
    spec = _MOTHERS[cfg.mother](plan)
    probes = probe_family(plan)
    reports = [uncertainty_report(WaveletPlane(f, spec)) for f in probes]
    for i, r in enumerate(reports):
        if not math.isfinite(r.ratio):
            raise ValueError(
                f"uncertainty ratio of probe {i} is {r.ratio:g} "
                f"(I_R = {r.I_R:g}, I_S = {r.I_S:g}) "
                f"{_cell_text(cfg.q, cfg.alpha, cfg.beta, cfg)}")
    lines = [_json_text({"I_R": r.I_R, "I_S": r.I_S, "norm_sq": r.norm_sq,
                         "ratio": r.ratio}) for r in reports]
    lines.append(_json_text({"K_emp": min(r.ratio for r in reports),
                             "probes": len(reports), "q": cfg.q,
                             "alpha": cfg.alpha, "beta": cfg.beta}))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cell_text(q, alpha, beta, cfg):
    return (f"at q = {q:g}, alpha = {alpha:g}, beta = {beta:g} "
            f"on grid [{cfg.n_low}, {cfg.n_high}]")


def _run_sweep(cfg, args):
    raw = parse_config_file(args.sweep)
    missing = sorted(k for k in _LIST_KEYS if k not in raw)
    if missing:
        raise UsageError(f"sweep config needs keys {missing}")
    qs = _parse_float_list(raw["q_list"], "q_list")
    alphas = _parse_float_list(raw["alpha_list"], "alpha_list")
    betas = _parse_float_list(raw["beta_list"], "beta_list")
    if len(alphas) != len(betas):
        raise UsageError("alpha_list and beta_list must pair up "
                         f"({len(alphas)} vs {len(betas)} entries)")
    cells = [RunConfig(q, alpha, beta, cfg.n_low, cfg.n_high, cfg.mother)
             for q in qs for alpha, beta in zip(alphas, betas)]
    lines = ["q,alpha,beta,K_emp"]
    for c, K in zip(cells, parallel_map(_sweep_cell, cells)):
        if not math.isfinite(K):
            raise ValueError(f"K_emp is {K:g} "
                             f"{_cell_text(c.q, c.alpha, c.beta, cfg)}")
        lines.append(f"{fmt17(c.q)},{fmt17(c.alpha)},{fmt17(c.beta)},{fmt17(K)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _sweep_cell(cell):
    """K_emp of one sweep cell (a RunConfig)."""
    plan = make_plan(cell.grid(), cell.v)
    return empirical_lower_constant(probe_family(plan),
                                    _MOTHERS[cell.mother](plan))


# --- verification suite ----------------------------------------------------


class _Cell:
    """Plans, wavelets and probe families for one (q, v) cell, keyed by
    grid factor 4, 2, 1, and the probe planes at factors 1 and 2, all
    built once, when the cell is constructed."""

    def __init__(self, q, alpha, beta, n_low, n_high):
        self.q = q
        self.v = BesselParams(alpha, beta)
        self.base = (n_low, n_high)
        # The x4 plan first: its kernel table then covers the index sums
        # of the x2 and x1 plans, so the cell builds one table.
        self.plans = {k: make_plan(build_grid(q, k * n_low, k * n_high),
                                   self.v) for k in (4, 2, 1)}
        self.specs = {k: operator_mother(p) for k, p in self.plans.items()}
        self.probes = {k: probe_family(p) for k, p in self.plans.items()}
        self.planes = {k: [WaveletPlane(f, self.specs[k])
                           for f in self.probes[k]] for k in (1, 2)}


def _check_jackson_power(cell):
    grid = build_grid(cell.q, 0, 350)
    q = cell.q
    worst = 0.0
    for k in range(9):
        got = jackson_integral(lambda x: x ** k, grid, 0.0, 1.0)
        want = (1.0 - q) / (1.0 - q ** (k + 1))
        worst = max(worst, abs(got / want - 1.0))
    return worst < 1e-12, {"max_rel_err": worst, "tol": 1e-12}


def _check_q_derivative(cell):
    grid = build_grid(cell.q, *cell.base)
    q = cell.q
    worst = 0.0
    for k in range(1, 9):
        f = GridFunction(grid, grid.points ** float(k))
        d = q_derivative(f)
        bracket = (1.0 - q ** k) / (1.0 - q)
        want = bracket * d.grid.points ** float(k - 1)
        worst = max(worst, float(np.max(np.abs(d.values / want - 1.0))))
    return worst < 1e-12, {"max_rel_err": worst, "tol": 1e-12}


def _check_change_of_variables(cell):
    grid = build_grid(cell.q, *cell.base)
    q = cell.q
    probes = [GridFunction.from_pairs(grid, [(0, 1.0)]),
              GridFunction.from_pairs(grid, [(-1, 1.0), (2, -1.0)]),
              GridFunction.from_pairs(
                  grid, [(n, q ** (2.0 * n)) for n in range(-2, 5)])]

    def integral(g):
        return (1.0 - q) * math.fsum(g.values * grid.points)

    worst = 0.0
    for f in probes:
        base = integral(f)
        for m in range(-2, 4):
            lhs = integral(dilate(f, m))
            worst = max(worst, abs(lhs / (q ** m * base) - 1.0))
    return worst < 1e-12, {"max_rel_err": worst, "tol": 1e-12}


def _check_involution(cell):
    plan = cell.plans[1]
    resid = plan.involution_residual(cell.probes[1])
    c_fine = cell.plans[2].c_qv
    drift = abs(c_fine / plan.c_qv - 1.0)
    ok = resid < 1e-6 and drift < 1e-3
    return ok, {"residual": resid, "c_qv": plan.c_qv, "c_refined": c_fine,
                "c_drift": drift, "tol_residual": 1e-6, "tol_drift": 1e-3}


def _check_factorization(cell):
    spec = cell.specs[1]
    scales = spec.scale_indices
    mid = len(scales) // 2
    sample = scales[mid - 2: mid + 3]
    err = factorization_error(spec, sample, (-2, 0, 1, 2, 4), range(-10, 11))
    return err < 1e-8, {"max_rel_err": err, "tol": 1e-8}


def _check_weighted_energy(cell):
    kappas = [weighted_energy_ratio(p) for p in cell.planes[2]]
    spread = max(abs(k / kappas[0] - 1.0) for k in kappas)
    C = cell.specs[2].admissibility
    return spread < 1e-6, {"kappa": kappas[0], "spread": spread, "C_v_psi": C,
                           "kappa_over_C": kappas[0] / C, "tol": 1e-6}


def _check_plancherel(cell):
    ratios = [wavelet_plancherel_ratio(p) for p in cell.planes[2]]
    spread = max(abs(r / ratios[0] - 1.0) for r in ratios)
    fine = wavelet_plancherel_ratio(
        WaveletPlane(cell.probes[4][0], cell.specs[4]))
    drift = abs(fine / ratios[0] - 1.0)
    C = cell.specs[2].admissibility
    qpow = cell.q ** (4.0 * cell.v.abs_v + 2.0)
    ok = spread < 1e-6 and drift < 1e-2
    return ok, {"ratio": ratios[0], "spread": spread, "C_v_psi": C,
                "ratio_over_C": ratios[0] / C, "q_power_C": qpow * C,
                "refinement_drift": drift, "tol_spread": 1e-6,
                "tol_drift": 1e-2}


def _check_heisenberg(cell):
    minima = [heisenberg_slice_minimum(p) for p in cell.planes[1]]
    worst = min(minima)
    bound = 0.5 - 1e-3
    return worst >= bound, {"min_slice": worst, "bound": bound}


def _check_uncertainty(cell):
    reports = [uncertainty_report(p) for p in cell.planes[1]]
    K = min(r.ratio for r in reports)
    fine = min(uncertainty_report(p).ratio for p in cell.planes[2])
    drift = abs(fine / K - 1.0)
    scaled = WaveletPlane(cell.probes[1][0].scaled(7.0), cell.specs[1])
    inv_err = abs(uncertainty_report(scaled).ratio / reports[0].ratio - 1.0)
    ok = K > 0.0 and drift < 1e-2 and inv_err < 1e-13
    return ok, {"K_emp": K, "K_refined": fine, "refinement_drift": drift,
                "scale_invariance_err": inv_err, "tol_drift": 1e-2,
                "tol_scale": 1e-13}


_CHECKS = (
    ("jackson-power-rule", _check_jackson_power),
    ("q-derivative-power-rule", _check_q_derivative),
    ("change-of-variables", _check_change_of_variables),
    ("fourier-involution", _check_involution),
    ("daughter-factorization", _check_factorization),
    ("weighted-energy-identity", _check_weighted_energy),
    ("plancherel-ratio", _check_plancherel),
    ("heisenberg-slices", _check_heisenberg),
    ("uncertainty-constant", _check_uncertainty),
)


def run_cell_checks(q, alpha, beta, n_low=-20, n_high=40):
    """All verification checks for one (q, v) cell; returns a report dict
    with one entry per check, in fixed order."""
    cell = _Cell(q, alpha, beta, n_low, n_high)
    checks = []
    for name, fn in _CHECKS:
        ok, details = fn(cell)
        entry = {"name": name, "passed": bool(ok)}
        entry.update(details)
        checks.append(entry)
    return {"q": q, "alpha": alpha, "beta": beta,
            "passed": all(c["passed"] for c in checks), "checks": checks}


def _cell_report(cell):
    """run_cell_checks on one (q, alpha, beta, n_low, n_high) tuple."""
    return run_cell_checks(*cell)


def _format_table(report):
    head = (f"cell q={fmt17(report['q'])} alpha={fmt17(report['alpha'])} "
            f"beta={fmt17(report['beta'])}")
    lines = [head]
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        detail = " ".join(
            f"{k}={fmt17(v) if isinstance(v, float) else v}"
            for k, v in c.items() if k not in ("name", "passed"))
        lines.append(f"  {c['name']:<26} {status}  {detail}")
    return "\n".join(lines)


def cmd_verify(cfg, args):
    if cfg.given & {"q", "alpha", "beta"}:
        cells = [(cfg.q, cfg.alpha, cfg.beta)]
    else:
        cells = [(q, a, b) for q in ACCEPTANCE_Q for a, b in ACCEPTANCE_V]
    grid = (cfg.n_low, cfg.n_high)
    reports = []
    for report in parallel_map(_cell_report, [c + grid for c in cells]):
        reports.append(report)
        sys.stdout.write(_format_table(report) + "\n")
    passed = all(r["passed"] for r in reports)
    payload = reports[0] if len(reports) == 1 else \
        {"passed": passed, "cells": reports}
    if args.out:
        _emit(_json_text(payload) + "\n", args.out)
    else:
        sys.stdout.write(_json_text(payload) + "\n")
    sys.stdout.write(f"verify: {'PASS' if passed else 'FAIL'}\n")
    return 0 if passed else 1


# --- argument wiring --------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, default=None)
    common.add_argument("--alpha", type=float, default=None)
    common.add_argument("--beta", type=float, default=None)
    common.add_argument("--nlow", type=int, default=None)
    common.add_argument("--nhigh", type=int, default=None)
    common.add_argument("--config", default=None,
                        help="flat key=value file; flags override it")
    common.add_argument("--out", default=None, help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="qwave",
        description="Harmonic analysis on the geometric grid {q^n}.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("grid", parents=[common],
                   help="emit grid points and Jackson weights as CSV")

    p = sub.add_parser("bessel", parents=[common],
                       help="emit kernel values as CSV x,value,err_bound")
    p.add_argument("--eigencheck", action="store_true",
                   help="emit the operator/kernel pointwise ratio instead")
    p.add_argument("--lam", type=float, default=1.0,
                   help="kernel argument scale for --eigencheck")

    p = sub.add_parser("fourier", parents=[common],
                       help="transform a sampled function, or calibrate")
    p.add_argument("--in", dest="infile", default=None,
                   help="input CSV (n,value with sidecar JSON)")
    p.add_argument("--calibrate", action="store_true",
                   help="print the calibrated constant as JSON and stop")

    p = sub.add_parser("cwt", parents=[common],
                       help="wavelet coefficients as CSV a,b,coeff")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--mother", choices=sorted(_MOTHERS), default=None)
    p.add_argument("--scales", default=None, metavar="LO:HI",
                   help="restrict scale indices (default: all that fit)")

    p = sub.add_parser("plancherel", parents=[common],
                       help="scaleogram energy ratio over the probe family")
    p.add_argument("--mother", choices=sorted(_MOTHERS), default=None)

    p = sub.add_parser("uncertainty", parents=[common],
                       help="uncertainty moments and the empirical constant")
    p.add_argument("--mother", choices=sorted(_MOTHERS), default=None)
    p.add_argument("--sweep", default=None, metavar="CFG",
                   help="lattice config (q_list, alpha_list, beta_list); "
                        "emits CSV q,alpha,beta,K_emp")

    sub.add_parser("verify", parents=[common],
                   help="run the acceptance checks (all cells, or one via --q)")
    return parser


_HANDLERS = {"grid": cmd_grid, "bessel": cmd_bessel, "fourier": cmd_fourier,
             "cwt": cmd_cwt, "plancherel": cmd_plancherel,
             "uncertainty": cmd_uncertainty, "verify": cmd_verify}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except UsageError as exc:
        sys.stderr.write(f"qwave: {exc}\n")
        return 2
    try:
        return _HANDLERS[args.command](cfg, args)
    except UsageError as exc:
        sys.stderr.write(f"qwave: {exc}\n")
        return 2
    except (CalibrationError, TruncationError, ValueError, WorkerError) as exc:
        sys.stderr.write(f"qwave: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
