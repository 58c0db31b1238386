"""Command-line interface: flag and config merging, output schemas,
17-digit formatting, and exit codes. Commands run in-process through
main(argv) so stdout/stderr land in capsys."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import qbessel, qcli, qtransform, qwavelet, uncertainty
from qwave.qcli import fmt17, main
from qwave.qgrid import (BesselParams, GridFunction, build_grid,
                         read_function, write_function)
from qwave.qtransform import make_plan, q_bessel_fourier
from qwave.uncertainty import UncertaintyReport

from conftest import exit_abruptly, rel_err, set_cpus


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _reject_cell(*cell):
    raise ValueError(f"cell {cell[:3]} rejected")


def _nan_report(plane):
    return UncertaintyReport(I_R=math.nan, I_S=1.0, norm_sq=1.0,
                             ratio=math.nan)


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
        # inside the high-precision kernel table
        rc, out, err = run(capsys, "fourier", "--calibrate",
                           "--alpha", "0", "--beta", "3")
        assert rc == 1
        assert out == ""
        assert err.startswith("qwave: q-Pochhammer factor ~0")
        assert err.count("\n") == 1

    def test_series_truncation_exits_1(self, capsys):
        # near q = 1 the float64 series needs more than SERIES_MAX_TERMS terms
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

    @pytest.mark.parametrize("sweep", [False, True], ids=("single", "sweep"))
    def test_non_finite_uncertainty_exits_1(self, capsys, recwarn, tmp_path,
                                            monkeypatch, sweep):
        # the library returns a non-finite ratio as it is; the command
        # refuses to print it
        monkeypatch.setattr(qcli, "uncertainty_report", _nan_report)
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
        # (alpha, beta) = (0, 0) and (0.25, 0.25) share nu = 0, so inline
        # the second cell at each q finds the first one's kernel table
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


class TestConfigMerging:
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
