"""End-to-end acceptance suite.

Criteria 1-6 and 8 run ``zittersim verify``'s full-level checks against fixed
bounds. Each named result must pass, at a tolerance no looser than its bound,
and the check's detail must name the full input size, so neither a loosened
tolerance nor a shrunk grid or tick count passes. Criterion 7 runs the CLI.

Each check prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
Monte Carlo checks use fixed seeds, so every run is deterministic.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from zittersim import LEVELS, SPEED_OF_LIGHT, scale_for_particle, verification
from zittersim.cli import main

from test_cli import without_run

FULL = LEVELS["full"]


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def hold(criterion: str, check, *args, limit_s=None, sizes=(), **bounds) -> None:
    """Run one verify check at the full level and report it: each result named in
    ``bounds`` passed at a tolerance no looser than its bound, every string in
    ``sizes`` appears in the details, and the call took under ``limit_s`` seconds."""
    rep = verification.VerificationReport("full")
    start = time.perf_counter()
    check(rep, *args)
    elapsed = time.perf_counter() - start
    results = {c.name: c for c in rep.checks}
    details = " ".join(c.detail for c in rep.checks)
    passed = all(s in details for s in sizes) and (limit_s is None or elapsed < limit_s)
    parts = []
    for name, bound in bounds.items():
        c = results[name]
        passed = passed and c.passed and c.tolerance <= bound
        parts.append(f"{name} {c.observed:.1e} <= {c.tolerance:g} (bound {bound:g})")
    parts += [f"{s!r} {'in' if s in details else 'NOT in'} detail" for s in sizes]
    parts.append(f"{elapsed:.2f}s" + ("" if limit_s is None else f" < {limit_s:g}s"))
    report(criterion, passed, ", ".join(parts))


def test_criterion_1_velocity_addition_equivalence():
    hold(
        "1 velocity-addition equivalence",
        verification._check_velocity_grid,
        limit_s=1.0,
        sizes=("99x99",),
        velocity_addition_equals_probability_route=1e-12,
    )


def test_criterion_2_group_laws():
    hold(
        "2 group laws",
        verification._check_velocity_grid,
        sizes=("99x99",),
        group_law_commutativity=0.0,
        group_law_identity=0.0,
        group_law_inverse=1e-15,
        group_law_associativity_via_rapidity=1e-10,
    )


def test_criterion_3_entropy_identity():
    hold(
        "3 entropy identity",
        verification._check_entropy_identity,
        limit_s=1.0,
        sizes=("999 points",),
        entropy_identity_relativistic_form=1e-12,
        entropy_at_rest_is_log2=1e-15,
        entropy_at_light_speed_is_zero=0.0,
    )


def test_criterion_4_monte_carlo_drift():
    hold(
        "4 Monte Carlo drift",
        verification._check_monte_carlo_drift,
        FULL,
        limit_s=5.0,
        sizes=("n = 1000000",),
        monte_carlo_drift_within_5_sigma=5.0,
    )


def test_criterion_5_rejection_sampled_frame_transform():
    hold(
        "5 rejection-sampled frame transform",
        verification._check_frame_transform,
        FULL,
        limit_s=60.0,
        sizes=("1000000 ticks/pair",),
        frame_transform_drift_within_5_sigma=5.0,
        frame_transform_acceptance_rate_within_5_sigma=5.0,
    )


def test_criterion_6_physical_scales():
    hold(
        "6 physical scales",
        verification._check_scales,
        electron_scales_in_expected_orders=0.0,
        length_times_frequency_is_c=1e-12,
    )
    # verify's mass sweep (1e-31 to 1e-25 kg) does not include the electron's own mass
    electron = scale_for_particle("electron")
    rel = abs(electron.omega_rad_per_s * electron.length_m - SPEED_OF_LIGHT) / SPEED_OF_LIGHT
    report("6 electron omega*lambda", rel <= 1e-12, f"|omega*lambda - c|/c = {rel:.2e} <= 1e-12")


def test_criterion_7_simulate_determinism(capsys):
    argv = ["simulate", "--beta", "0.3", "--ticks", "100000", "--seed", "2024"]
    assert main(list(argv)) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(list(argv)) == 0
    second = json.loads(capsys.readouterr().out)
    passed = without_run(first) == without_run(second)
    with capsys.disabled():
        report(
            "7 determinism",
            passed,
            "two identical simulate invocations agree bit-for-bit apart from "
            "the manifest's run key",
        )


def test_criterion_8_telegraph_iid_consistency():
    hold(
        "8 telegraph/iid consistency",
        verification._check_telegraph_consistency,
        FULL,
        telegraph_iid_drift_consistency=5.0,
    )


@pytest.mark.parametrize(
    "name, value, criterion, reason",
    [
        ("VELOCITY_GRID_TOL", 1e-6, test_criterion_1_velocity_addition_equivalence, "<= 1e-06"),
        ("SIGMA_BOUND", 6.0, test_criterion_4_monte_carlo_drift, "<= 6 "),
        (
            "_GRID",
            np.linspace(-0.98, 0.98, 9),
            test_criterion_1_velocity_addition_equivalence,
            "'99x99' NOT in",
        ),
    ],
    ids=["grid-tolerance", "sigma-bound", "grid-size"],
)
def test_a_weakened_verify_check_fails_its_criterion(monkeypatch, name, value, criterion, reason):
    monkeypatch.setattr(verification, name, value)
    with pytest.raises(AssertionError, match=reason):
        criterion()
