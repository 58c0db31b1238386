"""Command-line entry point: configuration, data ingestion, and CSV/JSON
emission.

Every numeric field is printed through one formatter at 17 significant
digits, so identical inputs produce byte-identical outputs. CSV column
order follows the grid index (ascending n, so descending x); JSON keys
keep construction order. Output files are UTF-8 with LF line ends.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from qwave.qbessel import (TruncationError, eigencheck_ratios,
                           modified_q_bessel_bound)
from qwave.qgrid import (BesselParams, build_grid, function_csv,
                         jackson_weights, read_function, sidecar_path,
                         write_function, write_in_place)
from qwave.qtransform import CalibrationError, make_plan, q_bessel_fourier
from qwave.qwavelet import (WaveletPlane, cwt, indicator_difference_mother,
                            operator_mother, wavelet_plancherel_ratio)
from qwave.uncertainty import (WorkerError, empirical_lower_constant,
                               parallel_map, probe_family, probe_reports)
from qwave.verify import ACCEPTANCE_Q, ACCEPTANCE_V, run_cell_checks

_MOTHERS = {"operator": operator_mother, "indicator": indicator_difference_mother}

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
        # json's own tokens for nan and inf, which json.loads reads
        return fmt17(obj) if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _emit(text, out_path=None, write=None):
    """The one writer of every output. Without out_path, text goes to
    sys.stdout, looked up at each call. With it, write_in_place writes
    text to that file, or write(out_path) writes it; an unwritable path
    is a usage error. With text None, it only checks that out_path can
    be written: the path is opened, and removed again if it was new."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        if write:
            write(out_path)
        elif text is None:
            new = not os.path.lexists(out_path)
            write_in_place(out_path, None)
            if new:
                os.remove(out_path)
        else:
            write_in_place(out_path, text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run parameters, merged from these defaults, a flat
    key=value config file, and command-line flags (flags win). A field's
    config key and flag are its name without the underscore: n_low is
    nlow and --nlow. given holds the fields the file or a flag set."""

    q: float = 0.5
    alpha: float = 0.0
    beta: float = 0.0
    n_low: int = -20
    n_high: int = 40
    mother: str = "operator"
    given: frozenset = frozenset()

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise UsageError(f"q must lie in (0,1), got {fmt17(self.q)}")
        try:
            BesselParams(self.alpha, self.beta)
        except ValueError as exc:
            raise UsageError(str(exc))
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


# config key and flag -> its RunConfig field (name, type, default)
_PARAMS = {f.name.replace("_", ""): f
           for f in dataclasses.fields(RunConfig) if f.name != "given"}


def build_config(args):
    fields = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key in _LIST_KEYS:
                continue
            if key not in _PARAMS:
                raise UsageError(f"unknown config key {key!r}")
            try:
                fields[_PARAMS[key].name] = _PARAMS[key].type(raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: cannot parse {raw!r}")
    for key, field in _PARAMS.items():
        if getattr(args, key, None) is not None:
            fields[field.name] = getattr(args, key)
    return RunConfig(**fields, given=frozenset(fields))


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
        if not 0.0 < lam < math.inf:
            raise UsageError(
                f"lam must be positive and finite, got {fmt17(lam)}")
        lines = ["x,ratio"] + [f"{fmt17(x)},{fmt17(r)}"
                               for x, r in eigencheck_ratios(v, lam, grid)]
    else:
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
    _emit(function_csv(g), args.out, lambda path: write_function(g, path))
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
    reports = probe_reports(probe_family(plan), spec)
    for i, r in enumerate(reports):
        if not math.isfinite(r.ratio):
            raise ValueError(
                f"uncertainty ratio of probe {i} is {r.ratio:g} "
                f"(I_R = {r.I_R:g}, I_S = {r.I_S:g}) "
                f"{_cell_text(cfg)}")
    K = float(np.min([r.ratio for r in reports]))
    lines = [_json_text({"I_R": r.I_R, "I_S": r.I_S, "norm_sq": r.norm_sq,
                         "ratio": r.ratio}) for r in reports]
    lines.append(_json_text({"K_emp": K,
                             "probes": len(reports), "q": cfg.q,
                             "alpha": cfg.alpha, "beta": cfg.beta}))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cell_text(cfg):
    return (f"at q = {cfg.q:g}, alpha = {cfg.alpha:g}, beta = {cfg.beta:g} "
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
    cells = [dataclasses.replace(cfg, q=q, alpha=alpha, beta=beta)
             for q in qs for alpha, beta in zip(alphas, betas)]
    lines = ["q,alpha,beta,K_emp"]
    for c, K in zip(cells, parallel_map(_sweep_cell, cells)):
        if not math.isfinite(K):
            raise ValueError(f"K_emp is {K:g} {_cell_text(c)}")
        lines.append(f"{fmt17(c.q)},{fmt17(c.alpha)},{fmt17(c.beta)},{fmt17(K)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _sweep_cell(cell):
    """K_emp of one sweep cell (a RunConfig)."""
    plan = make_plan(cell.grid(), cell.v)
    return empirical_lower_constant(probe_family(plan),
                                    _MOTHERS[cell.mother](plan))


def _format_table(report):
    lines = [f"cell q={fmt17(report['q'])} alpha={fmt17(report['alpha'])} "
             f"beta={fmt17(report['beta'])}"]
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
    reports = []
    for report in parallel_map(lambda c: run_cell_checks(*c),
                               [c + (cfg.n_low, cfg.n_high) for c in cells]):
        reports.append(report)
        _emit(_format_table(report) + "\n")
    passed = all(r["passed"] for r in reports)
    payload = reports[0] if len(reports) == 1 else \
        {"passed": passed, "cells": reports}
    _emit(_json_text(payload) + "\n", args.out)
    _emit(f"verify: {'PASS' if passed else 'FAIL'}\n")
    return 0 if passed else 1


# --- argument wiring --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse takes a token that starts with '-' for an option name
    unless it is digits with at most a point: `--lam -inf` or `--q -1e5`
    would fail as a missing argument. This parser, and the subcommand
    parsers made from it, read every negative float literal (exponent,
    inf, nan) as a value, so the value reaches the checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    for key, field in _PARAMS.items():
        if key != "mother":  # --mother is on three subcommands only
            common.add_argument(f"--{key}", type=field.type)
    common.add_argument("--config", default=None,
                        help="flat key=value file; flags override it")
    common.add_argument("--out", default=None, help="output file (default stdout)")

    parser = _Parser(
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.out:
            # refuse a path that cannot be written before any work
            if args.command == "fourier" and not args.calibrate:
                try:
                    sidecar_path(args.out)
                except ValueError as exc:
                    raise UsageError(f"cannot write output: {exc}")
            _emit(None, args.out)
        return _HANDLERS[args.command](cfg, args)
    except (CalibrationError, TruncationError, ValueError, WorkerError) as exc:
        sys.stderr.write(f"qwave: {exc}\n")
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
