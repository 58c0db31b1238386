"""Command-line interface: flag and config merging, output schemas,
17-digit formatting, and exit codes. Commands run in-process through
main(argv) so stdout/stderr land in capsys."""

import concurrent.futures
import contextlib
import gc
import io
import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qwave import (qbessel, qcli, qgrid, qtransform, qwavelet, uncertainty,
                   verify)
from qwave.qcli import fmt17, main
from qwave.qgrid import (BesselParams, GridFunction, build_grid,
                         read_function, write_function)
from qwave.qtransform import make_plan, q_bessel_fourier
from qwave.uncertainty import UncertaintyReport

from conftest import exit_abruptly, nan_ratio_for, rel_err, set_cpus


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _reject_cell(*cell):
    raise ValueError(f"cell {cell[:3]} rejected")


def _nan_report(plane):
    return UncertaintyReport(I_R=math.nan, I_S=1.0, norm_sq=1.0,
                             ratio=math.nan)


def _one_check(monkeypatch, cell, name):
    """(passed, entry) of the check called name, as run_cell_checks
    reports it with cell in place of the cell it builds."""
    monkeypatch.setattr(verify, "_Cell", lambda *args: cell)
    monkeypatch.setattr(verify, "_CHECKS", [c for c in verify._CHECKS
                                            if c[0] == name])
    entry, = verify.run_cell_checks(0.5, 0.0, 0.0, -20, 40)["checks"]
    return entry["passed"], entry


def _nan_on_call(index, fn):
    """fn, with a nan in place of its value on call number index (from
    0)."""
    calls = []

    def patched(*args):
        calls.append(args)
        return math.nan if len(calls) == index + 1 else fn(*args)
    return patched


# A sidecar field of the wrong JSON type: q wants a real number, n_low and
# n_high want ints; a bool is neither.
_NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(-50, 50), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-50, 50), max_size=1))
_BAD_FIELD = {
    "q": st.one_of(_NOT_A_NUMBER, st.integers(-50, 50),
                   st.floats().filter(lambda x: not 0.0 < x < 1.0)),
    "n_low": st.one_of(_NOT_A_NUMBER, st.floats(-50, 50)),
    "n_high": st.one_of(_NOT_A_NUMBER, st.floats(-50, 50)),
}
_GOOD_SIDECAR = {"q": 0.5, "n_low": -20, "n_high": 40}


@st.composite
def malformed_sidecars(draw):
    """Sidecar JSON values with at least one field missing or of the
    wrong type, or no JSON object at all. Every |n| stays <= 50."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.one_of(st.none(), st.integers(-50, 50),
                              st.text(max_size=4),
                              st.lists(st.integers(-50, 50), max_size=3)))
    desc = dict(_GOOD_SIDECAR)
    for key in draw(st.sets(st.sampled_from(sorted(desc)), min_size=1)):
        if draw(st.booleans()):
            del desc[key]
        else:
            desc[key] = draw(_BAD_FIELD[key])
    return desc


@pytest.fixture(scope="module")
def sidecar_csv(tmp_path_factory):
    """A valid f.csv whose sidecar f.json each test writes itself."""
    path = tmp_path_factory.mktemp("sidecar") / "f.csv"
    path.write_text("n,value\n0,1\n2,-0.5\n", encoding="utf-8")
    return path


def fourier_on_sidecar(csv_path, desc):
    """Exit status, stdout and stderr of qwave fourier --in csv_path with
    desc written as its sidecar."""
    csv_path.with_suffix(".json").write_text(json.dumps(desc),
                                             encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["fourier", "--in", str(csv_path)])
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture()
def input_csv(tmp_path):
    g = build_grid(0.5, -20, 40)
    f = GridFunction.from_pairs(g, [(0, 1.0), (2, -0.5)])
    path = str(tmp_path / "input.csv")
    write_function(f, path)
    return path, f


class TestExitCodes:
    def test_q_out_of_range(self, capsys):
        rc, _, err = run(capsys, "grid", "--q", "1.5")
        assert rc == 2
        assert "q must lie in (0,1)" in err

    def test_weight_exponent_constraint(self, capsys):
        rc, _, err = run(capsys, "grid", "--alpha", "-2", "--beta", "0.5")
        assert rc == 2
        assert "alpha + beta must exceed -1" in err

    def test_inverted_index_range(self, capsys):
        rc, _, err = run(capsys, "grid", "--nlow", "5", "--nhigh", "2")
        assert rc == 2
        assert "n_low <= n_high" in err

    def test_unknown_mother_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cwt", "--mother", "gaussian"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_input_file_flag(self, capsys):
        rc, _, err = run(capsys, "cwt")
        assert rc == 2
        assert "--in" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("qq=0.5\n")
        rc, _, err = run(capsys, "grid", "--config", str(cfg))
        assert rc == 2
        assert "unknown config key" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q 0.5\n")
        rc, _, err = run(capsys, "grid", "--config", str(cfg))
        assert rc == 2
        assert "key=value" in err

    def test_nonpositive_eigencheck_rate(self, capsys):
        rc, _, err = run(capsys, "bessel", "--eigencheck", "--lam", "-1")
        assert rc == 2
        assert "lam must be positive" in err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_eigencheck_rate(self, capsys, lam):
        rc, _, err = run(capsys, "bessel", "--eigencheck", "--lam", lam)
        assert rc == 2
        assert err == f"qwave: lam must be positive and finite, got {lam}\n"

    @pytest.mark.parametrize("lam", ["-inf", "-nan", "-1e5", "-0.5"])
    def test_negative_eigencheck_rate_either_spelling(self, capsys, lam):
        # argparse took "-inf" after "--lam" for an option name
        runs = [run(capsys, "bessel", "--eigencheck", *argv)
                for argv in (["--lam", lam], [f"--lam={lam}"])]
        assert runs[0] == runs[1]
        rc, out, err = runs[0]
        assert (rc, out) == (2, "")
        assert err.startswith("qwave: lam must be positive and finite, got ")
        assert err.count("\n") == 1

    def test_huge_eigencheck_rate_is_numerical(self, capsys):
        rc, _, err = run(capsys, "bessel", "--eigencheck", "--lam", "1e300")
        assert rc == 1
        assert "did not converge" in err

    def test_sweep_requires_list_keys(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.5\n")
        rc, _, err = run(capsys, "uncertainty", "--sweep", str(cfg))
        assert rc == 2
        assert "sweep config needs keys" in err

    def test_sweep_lists_must_pair(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.5\nalpha_list=0,1\nbeta_list=0\n")
        rc, _, err = run(capsys, "uncertainty", "--sweep", str(cfg))
        assert rc == 2
        assert "pair up" in err

    def test_scales_outside_mother_range(self, capsys, input_csv):
        path, _ = input_csv
        rc, _, err = run(capsys, "cwt", "--in", path, "--scales=-900:-890")
        assert rc == 2
        assert "outside available" in err

    @pytest.mark.parametrize("flag", ["--config", "--sweep"])
    def test_non_utf8_config_exits_2(self, capsys, tmp_path, flag):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"q_list=0.5\nalpha_list=\xff\nbeta_list=0\n")
        command = "grid" if flag == "--config" else "uncertainty"
        rc, out, err = run(capsys, command, flag, str(cfg))
        assert rc == 2
        assert out == ""
        assert err.startswith("qwave: cannot read config file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,name", [
        (("fourier", "--calibrate", "--alpha", "inf"), "alpha"),
        (("bessel", "--alpha", "1e308", "--beta", "1e308", "--nlow", "0",
          "--nhigh", "1"), "alpha + beta"),
        (("grid", "--beta", "inf"), "beta"),
    ], ids=("alpha-inf", "sum-overflows", "beta-inf"))
    def test_non_finite_parameter_exits_2(self, capsys, recwarn, argv, name):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"qwave: {name} must be finite")
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    @pytest.mark.parametrize("desc,key", [
        ({"q": 0.5, "n_low": -20}, "n_high"),
        ({"q": 0.5, "n_low": [1], "n_high": 40}, "n_low"),
        ([1, 2], "JSON object"),
        ({"q": "0.5", "n_low": -20, "n_high": 40}, "q"),
        ({"q": 0.5, "n_low": -20.5, "n_high": 40}, "n_low"),
        ({"q": 0.5, "n_low": True, "n_high": 40}, "n_low"),
    ], ids=("missing", "list", "array", "string", "fraction", "bool"))
    def test_malformed_sidecar_exits_2(self, sidecar_csv, desc, key):
        rc, out, err = fourier_on_sidecar(sidecar_csv, desc)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"qwave: malformed input {sidecar_csv}")
        assert key in err
        assert err.count("\n") == 1

    @settings(max_examples=150, deadline=None)
    @given(desc=malformed_sidecars())
    def test_any_malformed_sidecar_exits_2(self, sidecar_csv, desc):
        rc, out, err = fourier_on_sidecar(sidecar_csv, desc)
        assert (rc, out) == (2, "")
        assert err.startswith("qwave: malformed input")
        assert err.count("\n") == 1

    def test_index_listed_twice_exits_2(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("n,value\n0,1\n0,2\n", encoding="utf-8")
        rc, out, err = fourier_on_sidecar(path, _GOOD_SIDECAR)
        assert (rc, out) == (2, "")
        assert err == (f"qwave: malformed input {path}: "
                       "index 0 listed twice\n")

    def test_sidecar_grid_off_float64_exits_2(self, sidecar_csv, recwarn):
        rc, out, err = fourier_on_sidecar(
            sidecar_csv, {"q": 0.5, "n_low": -1100, "n_high": -1097})
        assert (rc, out) == (2, "")
        assert err.startswith(f"qwave: malformed input {sidecar_csv}")
        assert "at n = -1100" in err
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    def test_sidecar_grid_of_a_trillion_points_exits_2(self, sidecar_csv,
                                                        recwarn):
        # 0.5^(10^12) underflows: the grid is refused on its end points,
        # not after asking numpy for 8 TB of points
        rc, out, err = fourier_on_sidecar(
            sidecar_csv, {"q": 0.5, "n_low": 0, "n_high": 10 ** 12})
        assert (rc, out) == (2, "")
        assert err.startswith(f"qwave: malformed input {sidecar_csv}")
        assert "at n = 1000000000000 " in err
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    def test_sidecar_grid_too_large_to_allocate_exits_2(self, sidecar_csv,
                                                        monkeypatch):
        # q = 1 - 1e-13 on [0, 10^12] passes the end-point check (its last
        # point is e^-0.1) but asks for terabytes; numpy's MemoryError is
        # stood in for, not provoked
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qgrid.np, "arange", refuse)
        rc, out, err = fourier_on_sidecar(
            sidecar_csv, {"q": 1.0 - 1e-13, "n_low": 0, "n_high": 10 ** 12})
        assert (rc, out) == (2, "")
        assert err.startswith(f"qwave: malformed input {sidecar_csv}: "
                              "grid [0, 1000000000000] of 1000000000001 "
                              "points is too large to allocate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["grid", "bessel"])
    def test_grid_off_float64_exits_1(self, capsys, recwarn, command):
        # q^-1100 overflows float64; the grid refuses it rather than
        # printing x = inf or blaming the kernel series
        rc, out, err = run(capsys, command, "--alpha", "-0.5", "--beta",
                           "-0.49", "--nlow", "-1100", "--nhigh", "-1097")
        assert (rc, out) == (1, "")
        assert err.startswith("qwave: grid point q^n = inf")
        assert "at n = -1100" in err
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    def test_zero_calibration_ratio_exits_1(self, capsys):
        # on [-40, -5] at q = 0.5 all six probe ratios are exactly 0
        rc, out, err = run(capsys, "fourier", "--calibrate",
                           "--nlow", "-40", "--nhigh", "-5")
        assert (rc, out) == (1, "")
        assert err.startswith("qwave: double-transform ratio 0 ")
        assert "not finite positive" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command,n_high", [("grid", "1001"),
                                                ("fourier", "1074")])
    def test_all_weights_underflowing_exits_1(self, capsys, command, n_high):
        # every weight (1-q) q^{2n} underflows to 0 here; neither a CSV of
        # zero weights nor a "probe is identically zero" blame may result
        extra = ["--calibrate"] if command == "fourier" else []
        rc, out, err = run(capsys, command, *extra, "--nlow", "1000",
                           "--nhigh", n_high)
        assert (rc, out) == (1, "")
        assert err.startswith("qwave: every Jackson weight")
        assert f"underflows to 0 on [1000, {n_high}]" in err
        assert err.count("\n") == 1

    def test_degenerate_order_exits_1(self, capsys):
        # nu = alpha - beta = -3 makes (q^{2 nu + 2}; q^2)_n vanish at n = 3
        # inside the kernel series, which bessel evaluates for any nu
        rc, out, err = run(capsys, "bessel", "--alpha", "0", "--beta", "3")
        assert rc == 1
        assert out == ""
        assert err.startswith("qwave: q-Pochhammer factor ~0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha,beta,nu", [("0", "1", "-1.0"),
                                               ("-0.5", "0.75", "-1.25")],
                             ids=("nu-1", "nu-1.25"))
    @pytest.mark.parametrize("command", ["verify", "fourier"])
    def test_order_at_most_minus_one_exits_1(self, capsys, monkeypatch,
                                             command, alpha, beta, nu):
        # a plan needs nu > -1, where the q-Hankel inversion holds; it is
        # refused by name before any kernel table is built
        built = []
        monkeypatch.setattr(qbessel, "_kernel_values",
                            lambda *args: built.append(args))
        extra = ["--calibrate"] if command == "fourier" else []
        rc, out, err = run(capsys, command, *extra, "--q", "0.5",
                           "--alpha", alpha, "--beta", beta)
        assert (rc, out, built) == (1, "", [])
        assert err == (f"qwave: kernel order nu = alpha - beta = {nu} must "
                       "satisfy nu > -1 for a transform plan\n")

    def test_bessel_takes_order_below_minus_one(self, capsys):
        rc, out, err = run(capsys, "bessel", "--q", "0.5", "--alpha", "-0.5",
                           "--beta", "0.75")
        assert (rc, err) == (0, "")
        assert out.startswith("x,value,err_bound\n")

    def test_series_truncation_exits_1(self, capsys):
        # near q = 1 the series needs more than its 800 terms
        rc, out, err = run(capsys, "bessel", "--q", "0.999")
        assert rc == 1
        assert out == ""
        assert err.startswith("qwave: series did not converge")
        assert err.count("\n") == 1

    def test_jackson_weight_overflow_exits_1(self, capsys, recwarn):
        # verify's x4 grid reaches n = -160, where q^{n(2|v|+2)} = 2^1280
        rc, out, err = run(capsys, "verify", "--q", "0.5", "--alpha", "2",
                           "--beta", "1", "--nlow", "-40", "--nhigh", "80")
        assert rc == 1
        assert out == ""
        assert err.startswith("qwave: Jackson weight")
        assert "overflows float64 at n = -160" in err
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    @pytest.mark.parametrize("argv,m", [
        (("uncertainty", "--alpha", "5", "--beta", "5"), 26),
        (("plancherel", "--alpha", "4", "--beta", "4"), 2),
    ], ids=("uncertainty", "plancherel"))
    def test_plane_term_overflow_exits_1(self, capsys, recwarn, monkeypatch,
                                         argv, m):
        # large (alpha, beta) on the default grid: uncertainty's row sum
        # raised math.fsum's OverflowError, a 74-line traceback, and
        # plancherel printed numpy's overflow warning twice and wrote
        # {"ratio": Infinity, ...} with exit 0
        set_cpus(monkeypatch, 1)  # the probes inline, so recwarn sees them
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == ("qwave: the plane's term leaves float64 at scale "
                       f"index m = {m} (q = 0.5)\n")
        assert len(recwarn) == 0

    def test_cwt_row_overflow_exits_1(self, capsys, recwarn, tmp_path):
        # a point indicator at n = 0: scale_rows' window product
        # overflowed, and numpy's warning escaped before the line
        path = str(tmp_path / "f.csv")
        write_function(GridFunction.from_pairs(build_grid(0.5, -20, 40),
                                               [(0, 1.0)]), path)
        rc, out, err = run(capsys, "cwt", "--alpha", "5", "--beta", "5",
                           "--in", path)
        assert (rc, out) == (1, "")
        assert err == ("qwave: scaleogram entries must be finite: the row "
                       "at scale index m = 38 leaves float64 (q = 0.5)\n")
        assert len(recwarn) == 0

    @pytest.mark.parametrize("sweep", [False, True], ids=("single", "sweep"))
    def test_non_finite_uncertainty_exits_1(self, capsys, recwarn, tmp_path,
                                            monkeypatch, sweep):
        # the library returns a non-finite ratio as it is; the command
        # refuses to print it
        monkeypatch.setattr(uncertainty, "uncertainty_report", _nan_report)
        if sweep:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text("q_list=0.3\nalpha_list=0\nbeta_list=0\n")
            rc, out, err = run(capsys, "uncertainty", "--sweep", str(cfg))
            assert err.startswith("qwave: K_emp is nan at q = 0.3")
        else:
            rc, out, err = run(capsys, "uncertainty", "--q", "0.3")
            assert err.startswith("qwave: uncertainty ratio of probe 0 is nan")
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    def test_nan_past_the_first_probe_exits_1(self, capsys, recwarn,
                                              tmp_path, monkeypatch):
        # the third probe's ratio alone: min() dropped it, printed the
        # minimum of the other eight and exited 0
        grid = build_grid(0.5, -20, 40)
        third = GridFunction.from_pairs(grid, [(1, 1.0)])
        assert np.array_equal(third.values, uncertainty.probe_family(
            make_plan(grid, BesselParams(0.0, 0.0)))[2].values)
        monkeypatch.setattr(uncertainty, "uncertainty_report", nan_ratio_for(
            third, uncertainty.uncertainty_report))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.5\nalpha_list=0\nbeta_list=0\n")
        rc, out, err = run(capsys, "uncertainty", "--sweep", str(cfg))
        assert (rc, out) == (1, "")
        assert err.startswith("qwave: K_emp is nan at q = 0.5")
        assert err.count("\n") == 1
        assert len(recwarn) == 0

    @pytest.mark.parametrize("argv,message", [
        (("--beta", "2000", "--nlow", "0", "--nhigh", "2"),
         "series did not converge within 800 terms (x=1.0)"),
        (("--alpha", "3000", "--beta", "-2000", "--nlow", "-2", "--nhigh",
          "0"), "the kernel value 1.7377e+2408 at x = 4.0 leaves float64"),
        (("--eigencheck", "--lam", "1e-300", "--beta", "1", "--nlow", "0",
          "--nhigh", "4"), "q-Pochhammer factor ~0 at n=1 for order -1.0"),
        (("--beta", "1000", "--nlow", "-2", "--nhigh", "2"),
         "series did not converge within 800 terms (x=4.0)"),
        (("--beta", "600", "--nlow", "0", "--nhigh", "1"),
         "q-Pochhammer factor ~0 at n=600 for order -600.0"),
    ], ids=("q-power", "x-power", "eigencheck", "series-power-1000",
            "series-power-600"))
    def test_kernel_power_overflow_exits_1(self, capsys, argv, message):
        # a float power of the kernel's prefactor or argument left
        # float64: this was an OverflowError traceback. In mp no power
        # overflows, and each case fails for what it is. A series that
        # does not converge names the x the command evaluated at, not
        # the series' argument q^-beta x (1.15e602 at x = 1)
        rc, out, err = run(capsys, "bessel", *argv)
        assert (rc, out) == (1, "")
        assert err == f"qwave: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("--beta", "2", "--nlow", "30", "--nhigh", "32"),
        ("--eigencheck", "--beta", "2", "--q", "0.1", "--nlow", "60",
         "--nhigh", "66"),
    ], ids=("values", "eigencheck"))
    def test_order_minus_two_exits_1(self, capsys, argv):
        # nu = -2 at tiny x: the float64 series stopped after one term and
        # divided by the next factor 1 - Q^(nu + 2) = 0, a
        # ZeroDivisionError traceback
        rc, out, err = run(capsys, "bessel", *argv)
        assert (rc, out) == (1, "")
        assert err == "qwave: q-Pochhammer factor ~0 at n=2 for order -2.0\n"

    def test_eigencheck_argument_overflow_exits_1(self, capsys, recwarn):
        # lam * x = 1e300 * 2^40 overflowed with numpy's RuntimeWarning,
        # and the series was blamed for not converging at x = inf. Formed
        # in mp, lam * x leaves no range: at the first interior row,
        # x = 2^39, the series' argument near 5.5e311 needs more than its
        # 800 terms, and the line names that row's x
        rc, out, err = run(capsys, "bessel", "--eigencheck", "--lam",
                           "1e300", "--nlow", "-40", "--nhigh", "-36")
        assert (rc, out) == (1, "")
        assert err == ("qwave: series did not converge within 800 terms "
                       "(x=549755813888.0)\n")
        assert len(recwarn) == 0

    def test_dead_worker_exits_1(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(qcli, "run_cell_checks", exit_abruptly)
        rc, out, err = run(capsys, "verify")
        assert rc == 1
        assert out == ""
        assert err == ("qwave: a worker process ended before returning "
                       "its result\n")

    def test_worker_value_error_exits_1(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(qcli, "run_cell_checks", _reject_cell)
        rc, out, err = run(capsys, "verify")
        assert rc == 1
        assert out == ""
        assert err == "qwave: cell (0.3, 0.0, 0.0) rejected\n"

    @pytest.mark.parametrize("command,target", [
        (command, target) for command in ("grid", "verify", "fourier")
        for target in ("missing-dir", "directory")] + [
        ("fourier", "sidecar-is-directory")])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, input_csv,
                                    command, target):
        out_path = {"missing-dir": tmp_path / "no" / "such" / "x.csv",
                    "directory": tmp_path,
                    "sidecar-is-directory": tmp_path / "x.csv"}[target]
        if target == "sidecar-is-directory":
            (tmp_path / "x.json").mkdir()
        extra = {"grid": [],
                 "verify": ["--q", "0.5", "--nlow", "-12", "--nhigh", "24"],
                 "fourier": ["--in", input_csv[0]]}[command]
        rc, out, err = run(capsys, command, *extra, "--out", str(out_path))
        assert rc == 2
        assert err.startswith("qwave: cannot write output: [Errno ")
        assert err.count("\n") == 1
        # verify refuses the path before its first cell prints a table
        assert out == ""
        # nothing is left behind: fourier writes its CSV and sidecar
        # both or neither
        left = {p.name for p in tmp_path.parent.iterdir()
                if p.name.startswith(tmp_path.name + ".")}
        left |= {p.name for p in tmp_path.iterdir()}
        assert left == {"input.csv", "input.json"} | (
            {"x.json"} if target == "sidecar-is-directory" else set())

    def test_unwritable_out_refused_before_any_cell(self, capsys,
                                                    monkeypatch, tmp_path):
        # a cell that ran would exit 1 with its own message
        monkeypatch.setattr(qcli, "run_cell_checks", _reject_cell)
        rc, out, err = run(capsys, "verify", "--out",
                           str(tmp_path / "no" / "x.txt"))
        assert (rc, out) == (2, "")
        assert err.startswith("qwave: cannot write output: [Errno 2] ")
        assert err.count("\n") == 1

    def test_sweep_refuses_unwritable_out_before_any_cell(
            self, capsys, monkeypatch, tmp_path):
        # one CPU runs the cells inline, so a cell that ran is seen here
        ran = []
        monkeypatch.setattr(qcli, "_sweep_cell", ran.append)
        set_cpus(monkeypatch, 1)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.4,0.6\nalpha_list=0\nbeta_list=0\n")
        rc, out, err = run(capsys, "uncertainty", "--sweep", str(cfg),
                           "--out", str(tmp_path / "no" / "k.csv"))
        assert (rc, out, ran) == (2, "", [])
        assert err.startswith("qwave: cannot write output: [Errno 2] ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(qcli._HANDLERS))
    def test_every_command_checks_out_first(self, capsys, monkeypatch,
                                            tmp_path, command):
        def handler(cfg, args):
            raise AssertionError(f"{command} ran with an unwritable --out")

        monkeypatch.setitem(qcli._HANDLERS, command, handler)
        rc, out, err = run(capsys, command, "--out",
                           str(tmp_path / "no" / "x.txt"))
        assert (rc, out) == (2, "")
        assert err.startswith("qwave: cannot write output: [Errno 2] ")
        assert err.count("\n") == 1

    def test_fourier_out_that_is_its_own_sidecar_exits_2(
            self, capsys, monkeypatch, tmp_path, input_csv):
        # g.json would hold the CSV and then its sidecar over it: refused
        # before the input is read, with no file left behind
        monkeypatch.setattr(qcli, "read_function", _reject_cell)
        rc, out, err = run(capsys, "fourier", "--in", input_csv[0],
                           "--out", str(tmp_path / "g.json"))
        assert (rc, out) == (2, "")
        assert err.startswith("qwave: cannot write output: ")
        assert "its own sidecar" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "input.csv", "input.json"]

    def test_calibrate_may_write_json(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        rc, out, _ = run(capsys, "fourier", "--calibrate", "--out",
                         str(out_path))
        assert (rc, out) == (0, "")
        assert set(json.loads(out_path.read_text())) == {"c_qv", "residual"}

    @pytest.mark.parametrize("existing", [False, True],
                             ids=("new", "existing"))
    def test_out_check_leaves_the_path_as_it_was(self, capsys, monkeypatch,
                                                 tmp_path, existing):
        # the check before the first cell writes nothing: a run that
        # then fails leaves no new file, and an old one unchanged
        monkeypatch.setattr(qcli, "run_cell_checks", _reject_cell)
        out_path = tmp_path / "report.json"
        if existing:
            out_path.write_text("old\n")
        rc, out, err = run(capsys, "verify", "--out", str(out_path))
        assert (rc, out) == (1, "")
        assert err == "qwave: cell (0.3, 0.0, 0.0) rejected\n"
        assert (out_path.read_text() if existing else out_path.exists()) \
            == ("old\n" if existing else False)


@st.composite
def cli_argvs(draw):
    """argv for grid, bessel, bessel --eigencheck or fourier --calibrate
    with q in [0.01, 0.999], alpha and beta in [-5, 300], and a grid of
    3 to 31 points within n = -300 to 130."""
    command = draw(st.sampled_from([["grid"], ["bessel"],
                                    ["bessel", "--eigencheck"],
                                    ["fourier", "--calibrate"]]))
    size = draw(st.integers(3, 31))
    n_low = draw(st.integers(-300, 131 - size))
    return command + [
        "--q", repr(draw(st.floats(0.01, 0.999))),
        "--alpha", repr(draw(st.floats(-5.0, 300.0))),
        "--beta", repr(draw(st.floats(-5.0, 300.0))),
        "--nlow", str(n_low), "--nhigh", str(n_low + size - 1)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(argv=cli_argvs())
@example(argv=["bessel", "--eigencheck", "--lam", "1e300", "--nlow", "-40",
               "--nhigh", "-36"])
@example(argv=["bessel", "--beta", "2", "--nlow", "30", "--nhigh", "32"])
@example(argv=["bessel", "--eigencheck", "--beta", "2", "--q", "0.1",
               "--nlow", "60", "--nhigh", "66"])
def test_every_argv_exits_cleanly(argv):
    # a number, or one typed stderr line with exit 1 or 2: no traceback,
    # no warning
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert caught == []
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc in (1, 2)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("qwave: ")
        assert err.getvalue().count("\n") == 1


class TestGridCommand:
    def test_schema_and_values(self, capsys):
        rc, out, _ = run(capsys, "grid", "--q", "0.5", "--nlow", "-2",
                         "--nhigh", "3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "n,x,weight"
        assert lines[1] == "-2,4,8"
        assert lines[-1] == "3,0.125,0.0078125"
        assert len(lines) == 7

    def test_weights_follow_parameters(self, capsys):
        rc, out, _ = run(capsys, "grid", "--q", "0.5", "--alpha", "0.5",
                         "--beta", "0.25", "--nlow", "0", "--nhigh", "1")
        assert rc == 0
        row = out.splitlines()[2].split(",")
        # w(1) = (1-q) q^{2|v|+2} with |v| = 0.75
        assert float(row[2]) == pytest.approx(0.5 * 0.5 ** 3.5, rel=1e-15)

    def test_out_file_is_lf_utf8(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        rc, out, _ = run(capsys, "grid", "--nlow", "0", "--nhigh", "3",
                         "--out", str(path))
        assert rc == 0
        assert out == ""
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.decode("utf-8").splitlines()[0] == "n,x,weight"


class TestBesselCommand:
    def test_value_schema(self, capsys):
        rc, out, _ = run(capsys, "bessel", "--nlow", "-2", "--nhigh", "4")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "x,value,err_bound"
        for line in lines[1:]:
            x, val, bound = (float(tok) for tok in line.split(","))
            assert math.isfinite(val)
            assert bound > 0.0

    def test_eigencheck_ratio_near_minus_lam_sq(self, capsys):
        rc, out, _ = run(capsys, "bessel", "--alpha", "0.5", "--beta", "0.25",
                         "--nlow", "-2", "--nhigh", "6",
                         "--eigencheck", "--lam", "1")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "x,ratio"
        for line in lines[1:]:
            _, ratio = (float(tok) for tok in line.split(","))
            assert ratio == pytest.approx(-1.0, rel=1e-8)

    @pytest.mark.parametrize("n_low,first", [(160, 161), (300, 301)])
    def test_eigencheck_subnormal_x_squared_exits_1(self, capsys, recwarn,
                                                    n_low, first):
        # 0.1^(2n) is subnormal from n = 154 and zero from n = 162; the
        # float stencil refused x^2 there, naming n = first, with exit 1.
        # In mp every x^2 is kept, and every ratio is certified: -1
        rc, out, err = run(capsys, "bessel", "--eigencheck", "--q", "0.1",
                           "--nlow", str(n_low), "--nhigh", str(n_low + 6),
                           "--alpha", "0.5", "--beta", "0.25")
        assert (rc, err) == (0, "")
        assert out == eigencheck_bytes(0.1, n_low, n_low + 6, "-1")
        x = build_grid(0.1, n_low, n_low + 6).points[first - n_low]
        assert f"\n{fmt17(x)},-1\n" in out
        assert len(recwarn) == 0

    @pytest.mark.parametrize("n_low,first", [(140, 141), (148, 149)])
    def test_eigencheck_quotient_overflow_exits_1(self, capsys, recwarn,
                                                  n_low, first):
        # x^2 is normal, but the kernel's x^(-1/2) over it overflowed
        # float64: the float stencil refused the quotient at n = first,
        # with exit 1. In mp no quotient overflows: every row reads -1
        rc, out, err = run(capsys, "bessel", "--eigencheck", "--q", "0.1",
                           "--nlow", str(n_low), "--nhigh", str(n_low + 6),
                           "--alpha", "0.5", "--beta", "0.25")
        assert (rc, err) == (0, "")
        assert out == eigencheck_bytes(0.1, n_low, n_low + 6, "-1")
        x = build_grid(0.1, n_low, n_low + 6).points[first - n_low]
        assert f"\n{fmt17(x)},-1\n" in out
        assert len(recwarn) == 0

    @pytest.mark.parametrize("argv,x", [
        (("--q", "0.1", "--nlow", "148", "--nhigh", "153"),
         "1.0000000000000082e-149"),
        (("--q", "0.1", "--nlow", "20", "--nhigh", "26", "--alpha", "0.5",
          "--beta", "0.25"), "1.0000000000000012e-21"),
        (("--q", "0.1", "--nlow", "100", "--nhigh", "106", "--alpha", "0.5",
          "--beta", "0.25"), "1.0000000000000056e-101"),
        ((), "5.9604644775390625e-08"),
        (("--q", "0.5", "--nlow", "400", "--nhigh", "406", "--alpha", "1",
          "--beta", "1"), "1.9362959574246591e-121"),
    ], ids=("q0.1-deep", "q0.1-shallow", "q0.1-mid", "default-grid",
            "bound-overflows"))
    def test_eigencheck_ratio_with_no_digit_exits_1(self, capsys, recwarn,
                                                    argv, x):
        # the float stencil cancelled below the series' error bound or
        # its own roundings, and exited 1 naming x (where it had printed
        # 0, -3.0e25 or 2.57 before that). The certified ratio, formed
        # in mp with one more pass at the digits the first lost, is -1
        # on every row
        cfg = dict(zip(argv[::2], argv[1::2]))
        rc, out, err = run(capsys, "bessel", "--eigencheck", *argv)
        assert (rc, err) == (0, "")
        assert out == eigencheck_bytes(
            float(cfg.get("--q", 0.5)), int(cfg.get("--nlow", -20)),
            int(cfg.get("--nhigh", 40)), "-1")
        assert f"\n{x},-1\n" in out
        assert len(recwarn) == 0

    def test_eigencheck_ratio_leaving_float64_exits_1(self, capsys, recwarn):
        # -lam^2 = -1e400 is certain, and past float64's range
        rc, out, err = run(capsys, "bessel", "--eigencheck", "--lam", "1e200",
                           "--q", "0.01", "--nlow", "125", "--nhigh", "127")
        assert (rc, out) == (1, "")
        assert err == ("qwave: the eigencheck ratio at x = "
                       "1.0000000000000026e-252 leaves float64\n")
        assert len(recwarn) == 0

    def test_eigencheck_bytes_where_every_ratio_holds(self, capsys):
        # the x = 8 row read -1.0000000000499849 from the float64 series,
        # off by its own error of 5e-11, and the float stencil's rows at
        # x = 1 to 0.125 read -1.0000000000000004 to -1.0000000000000011
        rc, out, err = run(capsys, "bessel", "--eigencheck", "--q", "0.5",
                           "--nlow", "-4", "--nhigh", "4")
        assert (rc, err) == (0, "")
        assert out == ("x,ratio\n"
                       "8,-1\n"
                       "4,-1\n"
                       "2,-1\n"
                       "1,-1\n"
                       "0.5,-1\n"
                       "0.25,-1\n"
                       "0.125,-1\n")


def eigencheck_bytes(q, n_low, n_high, ratio):
    """The eigencheck's CSV with every interior row reading ratio."""
    points = build_grid(q, n_low, n_high).points[1:-1]
    return "x,ratio\n" + "".join(f"{x:.17g},{ratio}\n" for x in points)


@pytest.mark.parametrize("q,alpha,beta", [
    (0.3, 0.0, 0.0), (0.5, 0.0, 0.0), (0.9, 0.0, 0.0), (0.5, 0.5, 0.25),
    (0.7, 1.0, -0.25)])
@pytest.mark.parametrize("lam,ratio", [("1", "-1"), ("0.5", "-0.25"),
                                       ("2", "-4")])
def test_eigencheck_reads_minus_lam_squared(capsys, q, alpha, beta, lam,
                                            ratio):
    # the oracle: the kernel at lam x is the operator's eigenfunction
    # with eigenvalue -lam^2, exact in float64 for these lam, and every
    # row of the default grid [-20, 40] prints it. The float stencil
    # exited 1 on these grids, at x = 2^-24 for q = 0.5
    rc, out, err = run(capsys, "bessel", "--eigencheck", "--q", str(q),
                       "--alpha", str(alpha), "--beta", str(beta),
                       "--lam", lam)
    assert (rc, err) == (0, "")
    assert out == eigencheck_bytes(q, -20, 40, ratio)


class TestFourierCommand:
    def test_calibrate_schema(self, capsys):
        rc, out, _ = run(capsys, "fourier", "--calibrate")
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"c_qv", "residual"}
        assert payload["c_qv"] == pytest.approx(2.0, rel=1e-12)
        assert payload["residual"] < 1e-6

    def test_roundtrip_matches_library(self, capsys, tmp_path, input_csv):
        path, f = input_csv
        out_path = str(tmp_path / "spectrum.csv")
        rc, _, _ = run(capsys, "fourier", "--in", path, "--out", out_path)
        assert rc == 0
        got = read_function(out_path)
        plan = make_plan(f.grid, BesselParams(0.0, 0.0))
        ref = q_bessel_fourier(f, plan)
        np.testing.assert_array_equal(got.values, ref.values)

    def test_stdout_schema(self, capsys, input_csv):
        path, _ = input_csv
        rc, out, _ = run(capsys, "fourier", "--in", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 62

    def test_stdout_equals_out_file(self, capsys, tmp_path, input_csv):
        path, _ = input_csv
        out_path = tmp_path / "spectrum.csv"
        rc, out, _ = run(capsys, "fourier", "--in", path)
        assert run(capsys, "fourier", "--in", path, "--out",
                   str(out_path)) == (0, "", "")
        assert rc == 0
        assert out.encode("utf-8") == out_path.read_bytes()

    def test_missing_input_rejected(self, capsys):
        rc, _, err = run(capsys, "fourier")
        assert rc == 2
        assert "--in" in err


class TestCwtCommand:
    def test_schema_and_scale_window(self, capsys, input_csv):
        path, _ = input_csv
        rc, out, _ = run(capsys, "cwt", "--in", path, "--scales", "0:2")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,coeff"
        a_vals = {line.split(",")[0] for line in lines[1:]}
        assert a_vals == {"1", "0.5", "0.25"}
        assert len(lines) == 1 + 3 * 61

    def test_mother_choice_changes_output(self, capsys, input_csv):
        path, _ = input_csv
        rc1, out1, _ = run(capsys, "cwt", "--in", path, "--scales", "0:0",
                           "--mother", "operator")
        rc2, out2, _ = run(capsys, "cwt", "--in", path, "--scales", "0:0",
                           "--mother", "indicator")
        assert rc1 == rc2 == 0
        assert out1 != out2


class TestPlancherelCommand:
    def test_schema_and_identity(self, capsys, monkeypatch):
        calls = []
        ratio = qcli.wavelet_plancherel_ratio

        def counted(plane):
            calls.append(plane)
            return ratio(plane)

        monkeypatch.setattr(qcli, "wavelet_plancherel_ratio", counted)
        rc, out, _ = run(capsys, "plancherel")
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"ratio", "C_v_psi", "ratio_over_C", "probes"}
        assert payload["probes"] == 9
        assert payload["ratio_over_C"] == pytest.approx(1.0, abs=1e-6)
        assert out == ('{"ratio": 0.19937694696288444, '
                       '"C_v_psi": 0.19937694704049844, '
                       '"ratio_over_C": 0.99999999961071728, "probes": 9}\n')
        # only the printed ratio is computed
        assert len(calls) == 1


class TestUncertaintyCommand:
    def test_report_lines_and_summary(self, capsys):
        rc, out, _ = run(capsys, "uncertainty")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 10
        ratios = []
        for line in lines[:9]:
            rec = json.loads(line)
            assert set(rec) == {"I_R", "I_S", "norm_sq", "ratio"}
            assert rec["ratio"] > 0.0
            ratios.append(rec["ratio"])
        summary = json.loads(lines[9])
        assert set(summary) == {"K_emp", "probes", "q", "alpha", "beta"}
        assert summary["probes"] == 9
        assert summary["K_emp"] == min(ratios)

    def test_deep_grid_moment_is_finite(self, capsys, recwarn):
        # at q = 0.3 on [-160, 320], b^2 w(b) overflows float64
        rc, out, err = run(capsys, "uncertainty", "--q", "0.3",
                           "--nlow", "-160", "--nhigh", "320")
        assert (rc, err) == (0, "")
        K = json.loads(out.splitlines()[-1])["K_emp"]
        # the K_emp the default grid [-20, 40] gives (test_acceptance FROZEN)
        assert rel_err(K, 0.3406470336786589) < 1e-9
        assert len(recwarn) == 0

    def test_sweep_schema(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.4,0.6\nalpha_list=0,0.5\nbeta_list=0,0.25\n")
        rc, out, _ = run(capsys, "uncertainty", "--sweep", str(cfg))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "q,alpha,beta,K_emp"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[3]) > 0.0

    def test_sweep_pooled_equals_inline(self, capsys, monkeypatch, tmp_path):
        # (alpha, beta) = (0, 0) and (0.25, 0.25) share nu = 0; a cell's
        # table goes with its plan, so each cell builds its own either way
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.4,0.6\nalpha_list=0,0.25\nbeta_list=0,0.25\n")
        outs = []
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            rc, out, err = run(capsys, "uncertainty", "--sweep", str(cfg),
                               "--nlow", "-12", "--nhigh", "24")
            assert (rc, err) == (0, "")
            outs.append(out)
        assert len(outs[0].splitlines()) == 5
        assert outs[0] == outs[1]


    def test_sweep_starts_one_level_of_workers(self, capsys, monkeypatch,
                                               tmp_path):
        # the cells run on workers, and each cell's probes in its worker:
        # one pool, made here, and every probe report made in a worker
        log = tmp_path / "pids.log"

        def record(what):
            with open(log, "a") as fh:
                fh.write(f"{what} {os.getpid()}\n")

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                record("pool")
                super().__init__(*args, **kwargs)

        report = uncertainty.uncertainty_report

        def recorded_report(plane):
            record("report")
            return report(plane)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recorded)
        monkeypatch.setattr(uncertainty, "uncertainty_report",
                            recorded_report)
        set_cpus(monkeypatch, 2)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q_list=0.4,0.6\nalpha_list=0\nbeta_list=0\n")
        rc, out, err = run(capsys, "uncertainty", "--sweep", str(cfg),
                           "--nlow", "-12", "--nhigh", "24")
        assert (rc, err) == (0, "")
        assert len(out.splitlines()) == 3
        entries = [line.split() for line in log.read_text().splitlines()]
        assert [pid for what, pid in entries if what == "pool"] == \
            [str(os.getpid())]
        reporters = {pid for what, pid in entries if what == "report"}
        assert len(entries) == 1 + 2 * 9
        assert 1 <= len(reporters) <= 2
        assert str(os.getpid()) not in reporters


# Per config key: the value a config file gives, and the flag's value
# that overrides it; neither is the default.
_KEY_VALUES = {"q": ("0.25", "0.75"), "alpha": ("0.5", "1"),
               "beta": ("0.25", "-0.25"), "nlow": ("-10", "-5"),
               "nhigh": ("20", "30"), "mother": ("indicator", "operator")}


class TestConfigMerging:
    @pytest.mark.parametrize("key", sorted(qcli._PARAMS))
    def test_each_key_set_by_file_and_flag(self, tmp_path, key):
        field = qcli._PARAMS[key]
        from_file, from_flag = _KEY_VALUES[key]
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key}={from_file}\n")
        parser = qcli._build_parser()
        base = ["uncertainty", "--config", str(cfg_path)]
        cfg = qcli.build_config(parser.parse_args(base))
        assert getattr(cfg, field.name) == field.type(from_file) != \
            field.default
        assert cfg.given == {field.name}
        cfg = qcli.build_config(parser.parse_args(
            base + [f"--{key}", from_flag]))
        assert getattr(cfg, field.name) == field.type(from_flag) != \
            field.type(from_file)
        assert cfg.given == {field.name}

    def test_config_file_sets_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# cell setup\nq=0.25\nnlow=0\nnhigh=2\n")
        rc, out, _ = run(capsys, "grid", "--config", str(cfg))
        assert rc == 0
        lines = out.splitlines()
        assert lines[1] == "0,1," + fmt17(0.75)
        assert len(lines) == 4

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.25\nnlow=0\nnhigh=2\n")
        rc, out, _ = run(capsys, "grid", "--config", str(cfg), "--q", "0.5")
        assert rc == 0
        assert out.splitlines()[2].startswith("1,0.5,")


class TestVerifyCommand:
    def test_single_cell_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "verify", "--q", "0.5", "--alpha", "0",
                         "--beta", "0", "--out", str(out_path))
        assert rc == 0
        assert "verify: PASS" in out
        assert out.count(" PASS ") == 9
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 9
        names = [c["name"] for c in report["checks"]]
        assert names[0] == "jackson-power-rule"
        assert names[-1] == "uncertainty-constant"

    def test_nan_detail_is_json(self, capsys, monkeypatch, tmp_path):
        # a nan in a check's details fails it, and --out writes it as
        # json's NaN, which json.loads reads
        monkeypatch.setattr(verify, "weighted_energy_ratio", _nan_on_call(
            1, verify.weighted_energy_ratio))
        out_path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "verify", "--q", "0.5", "--out",
                         str(out_path))
        assert rc == 1
        assert out.endswith("verify: FAIL\n")
        text = out_path.read_text()
        assert '"spread": NaN' in text
        report = json.loads(text)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["weighted-energy-identity"]
        assert math.isnan(failed[0]["spread"])

    @pytest.mark.parametrize("non_finite,token", [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"),
        (np.float64(math.nan), "NaN")],
        ids=("nan", "inf", "minus-inf", "numpy-nan"))
    def test_json_writes_non_finite_tokens(self, non_finite, token):
        text = qcli._json_text({"x": non_finite, "y": [0.1, non_finite]})
        assert text == f'{{"x": {token}, "y": [0.10000000000000001, {token}]}}'
        assert json.dumps(json.loads(text)) == text.replace(
            "0.10000000000000001", "0.1")

    def test_nan_past_the_first_fails_a_spread(self, monkeypatch):
        # kappa = (1, nan, 1): max() dropped the nan and read spread 0.0
        monkeypatch.setattr(verify, "weighted_energy_ratio", lambda k: k)
        cell = SimpleNamespace(planes={2: [1.0, math.nan, 1.0]},
                               specs={2: SimpleNamespace(admissibility=1.0)})
        ok, details = _one_check(monkeypatch, cell, "weighted-energy-identity")
        assert not ok
        assert math.isnan(details["spread"])
        assert details["kappa"] == 1.0

    def test_nan_past_the_first_fails_the_power_rule(self, monkeypatch):
        # the third power's Jackson integral alone
        monkeypatch.setattr(verify, "jackson_integral", _nan_on_call(
            2, verify.jackson_integral))
        cell = SimpleNamespace(q=0.5)
        ok, details = _one_check(monkeypatch, cell, "jackson-power-rule")
        assert not ok
        assert math.isnan(details["max_rel_err"])

    def test_jackson_power_rule_at_q_01(self):
        # the check once built its own grid [0, 350], and 0.1^324
        # underflows; the Jackson integral over [0, 1] needs only q
        report = qcli.run_cell_checks(0.1, 0.5, 0.25, -12, 24)
        assert len(report["checks"]) == 9
        assert report["checks"][0]["name"] == "jackson-power-rule"
        assert report["checks"][0]["passed"]

    def test_cell_builds_one_kernel_table(self, monkeypatch):
        # the x4 plan comes first, so its table covers the x1 and x2 plans
        calls = []
        build = qbessel._kernel_values

        def recording(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(qbessel, "_tables", {})
        monkeypatch.setattr(qbessel, "_kernel_values", recording)
        report = qcli.run_cell_checks(0.45, 0.5, 0.25, -12, 24)
        assert report["passed"]
        assert calls == [(0.25, 0.45, -96, 192)]

    def test_cell_table_lives_as_long_as_the_cell(self, monkeypatch):
        # in the weak cache too: the x2 and x1 plans find the x4 plan's
        # table while the cell holds all three, and it goes with the cell
        calls = []
        build = qbessel._kernel_values

        def recording(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(qbessel, "_kernel_values", recording)
        key = (0.25, 0.46)
        assert key not in qbessel._tables
        report = qcli.run_cell_checks(0.46, 0.5, 0.25, -12, 24)
        assert report["passed"]
        assert calls == [(0.25, 0.46, -96, 192)]
        gc.collect()
        assert key not in qbessel._tables

    def test_cell_reads_one_spectrum_per_plane(self, monkeypatch):
        # one per wavelet (x1, x2, x4), one per x1 and x2 probe plane, one
        # for the x4 plane of probe 0 and one for the scaled x1 probe 0
        calls = []
        spectrum = qtransform.spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(qtransform, "spectrum", counted)
        monkeypatch.setattr(qwavelet, "spectrum", counted)
        qcli.run_cell_checks(0.5, 0.5, 0.25, -12, 24)
        assert len(calls) == 3 + 9 + 9 + 1 + 1

    def test_cell_integrates_each_plane_once(self, monkeypatch):
        # I_R of each x1 probe plane feeds the heisenberg and the
        # uncertainty check and is integrated once: 9 x1 planes, then 9
        # x2 and 1 scaled x1 plane for the uncertainty check, 9 for the
        # weighted energy and 9 + 1 for the Plancherel ratio
        calls = []
        gate = qwavelet.gated_scale_sum

        def counted(bounds, contributions):
            calls.append(len(bounds))
            return gate(bounds, contributions)

        monkeypatch.setattr(qwavelet, "gated_scale_sum", counted)
        qcli.run_cell_checks(0.5, 0.5, 0.25, -12, 24)
        assert len(calls) == 9 + 9 + 1 + 9 + 10

    def test_cell_off_the_exact_lattice_passes(self):
        # alpha + beta = 1.45 is rounded in float64: with exponents formed
        # from that sum, four checks failed here (daughter factorization,
        # weighted energy, Plancherel and the uncertainty constant)
        report = qcli.run_cell_checks(0.5, 1.0, 0.45, -20, 40)
        assert [c["name"] for c in report["checks"] if not c["passed"]] == []
        assert report["passed"]

    def test_pooled_equals_inline(self, capsys, monkeypatch, tmp_path):
        # the whole lattice, on a grid small enough to be quick (some
        # checks fail there, which does not matter for the comparison)
        runs = []
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            out_path = tmp_path / f"report_{cpus}.json"
            rc, out, err = run(capsys, "verify", "--nlow", "-10", "--nhigh",
                               "20", "--out", str(out_path))
            assert err == ""
            runs.append((rc, out, out_path.read_bytes()))
        assert runs[0] == runs[1]
        assert len(json.loads(runs[0][2])["cells"]) == 9
