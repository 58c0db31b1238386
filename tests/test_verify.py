"""The verification table, qwave.verify._CHECKS: a nan in any limited
value fails its check and the cell, and each report entry keeps its key
order (name, passed, the measured values, then the limit keys), which
the verify JSON's bytes depend on. The measures are stubbed, so no cell
is built."""

import math
from types import SimpleNamespace

import pytest

from qwave import verify

# Each check's entry keys after name and passed, in report order.
ENTRY_KEYS = {
    "jackson-power-rule": ("max_rel_err", "tol"),
    "q-derivative-power-rule": ("max_rel_err", "tol"),
    "change-of-variables": ("max_rel_err", "tol"),
    "fourier-involution": ("residual", "c_qv", "c_refined", "c_drift",
                           "tol_residual", "tol_drift"),
    "daughter-factorization": ("max_rel_err", "tol"),
    "weighted-energy-identity": ("kappa", "spread", "C_v_psi",
                                 "kappa_over_C", "tol"),
    "plancherel-ratio": ("ratio", "spread", "C_v_psi", "ratio_over_C",
                         "q_power_C", "refinement_drift", "tol_spread",
                         "tol_drift"),
    "heisenberg-slices": ("min_slice", "bound"),
    "uncertainty-constant": ("K_emp", "K_refined", "refinement_drift",
                             "scale_invariance_err", "tol_drift",
                             "tol_scale"),
}

LIMITS = [(name, key) for name, _, limits in verify._CHECKS
          for key, _, _, _ in limits]


def stub_measure(limits, keys, nan_key):
    """A measure returning keys (the entry keys that are not limit keys),
    each limited one at a value its test passes, the rest at 1.0, and
    nan at nan_key."""
    limit_keys = {limit for _, limit, _, _ in limits}
    values = {k: 1.0 for k in keys if k not in limit_keys}
    for key, _, test, value in limits:
        values[key] = next(x for x in (0.0, 1.0) if test(x, value))
    if nan_key is not None:
        values[nan_key] = math.nan
    return lambda cell: dict(values)


def run_stubbed(monkeypatch, nan_at=(None, None)):
    table = tuple((name, stub_measure(limits, ENTRY_KEYS[name],
                                      nan_at[1] if name == nan_at[0]
                                      else None), limits)
                  for name, _, limits in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", table)
    monkeypatch.setattr(verify, "_Cell", lambda *args: SimpleNamespace())
    return verify.run_cell_checks(0.5, 0.0, 0.0, -20, 40)


def test_table_names_every_check_in_order():
    assert [name for name, _, _ in verify._CHECKS] == list(ENTRY_KEYS)
    # 12 tolerances and bounds, and K_emp > 0 with no key in the report
    assert len(LIMITS) == 13


def test_stubbed_cell_passes(monkeypatch):
    report = run_stubbed(monkeypatch)
    assert report["passed"] is True
    assert all(entry["passed"] is True for entry in report["checks"])


@pytest.mark.parametrize("name,key", LIMITS,
                         ids=[f"{name}:{key}" for name, key in LIMITS])
def test_nan_fails_its_check_and_the_cell(monkeypatch, name, key):
    report = run_stubbed(monkeypatch, (name, key))
    assert report["passed"] is False
    assert [e["name"] for e in report["checks"] if not e["passed"]] == [name]
    for entry in report["checks"]:
        assert list(entry) == ["name", "passed", *ENTRY_KEYS[entry["name"]]]
    entry, = (e for e in report["checks"] if e["name"] == name)
    assert entry["passed"] is False
    assert math.isnan(entry[key])
