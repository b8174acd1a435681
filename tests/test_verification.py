"""Verification harness: structure, pass state, tamper sanity."""

from __future__ import annotations

import pytest

import zittersim.verification as verification
from zittersim import InvalidConfig, cli, simulate
from zittersim.cli import main

CHECK_NAMES = [
    "velocity_addition_equals_probability_route",
    "group_law_commutativity",
    "group_law_identity",
    "group_law_inverse",
    "group_law_associativity_via_rapidity",
    "entropy_identity_relativistic_form",
    "entropy_at_rest_is_log2",
    "entropy_at_light_speed_is_zero",
    "monte_carlo_drift_within_5_sigma",
    "frame_transform_drift_within_5_sigma",
    "frame_transform_acceptance_rate_within_5_sigma",
    "telegraph_iid_drift_consistency",
    "determinism_same_config_same_estimate",
    "electron_scales_in_expected_orders",
    "length_times_frequency_is_c",
]


def test_fast_suite_passes():
    report = verification.run_verification("fast")
    assert report.passed
    assert report.level == "fast"
    for check in report.checks:
        assert check.observed <= check.tolerance, check.name


def test_report_shape():
    report = verification.run_verification("fast")
    payload = report.to_dict()
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))
    for check in payload["checks"]:
        assert set(check) == {"name", "tolerance", "observed", "passed", "detail"}


def test_check_names_in_order():
    report = verification.run_verification("fast")
    assert [c.name for c in report.checks] == CHECK_NAMES


def test_monte_carlo_checks_run_through_simulate_drift(monkeypatch, capsys, tmp_path):
    # verify and the CLI hold the drift route they ship, not the whole-path API
    def whole_path_api(*args, **kwargs):
        raise AssertionError("a product path reached the whole-path API")

    for module in (simulate, cli, verification):
        for name in ("generate_path", "estimate_drift", "write_path_csv"):
            monkeypatch.setattr(module, name, whole_path_api, raising=False)
    assert verification.run_verification("fast").passed
    simulate_args = ["simulate", "--beta", "0.3", "--ticks", "1000", "--seed", "1"]
    for extra in (
        [],
        ["--dynamics", "telegraph"],
        ["--path", str(tmp_path / "path.csv")],
        ["--replicates", "3"],
    ):
        assert main(simulate_args + extra) == 0, extra
    assert main(["observe", "--u", "0.5", "--v", "0.5", "--ticks", "1000", "--seed", "1"]) == 0
    assert main(["verify", "--level", "fast"]) == 0
    capsys.readouterr()


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verification.run_verification("paranoid")


@pytest.mark.parametrize("level", ["x", None, 1])
def test_unknown_level_raises_invalid_config(level):
    with pytest.raises(InvalidConfig):
        verification.run_verification(level)


def test_tampered_tolerance_fails(monkeypatch, capsys):
    # harness sanity: a zeroed tolerance must turn the run red
    monkeypatch.setattr(verification, "ENTROPY_IDENTITY_TOL", 0.0)
    report = verification.run_verification("fast")
    assert not report.passed
    assert main(["verify", "--level", "fast"]) == 1
    capsys.readouterr()
