"""End-to-end acceptance suite.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
Monte Carlo criteria use fixed seeds, so every run is deterministic.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from zittersim import (
    SimConfig,
    compose_velocity_via_probabilities_array,
    entropy_from_beta_array,
    entropy_relativistic_form_array,
    observe_from_moving_frame,
    rapidity_from_beta_array,
    scale_for_particle,
    simulate_drift,
    velocity_addition_array,
    SPEED_OF_LIGHT,
)
from zittersim.cli import main

GRID = np.linspace(-0.98, 0.98, 99)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_velocity_addition_equivalence():
    start = time.perf_counter()
    u, v = GRID[:, None], GRID[None, :]
    closed = velocity_addition_array(u, v)
    worst = float(np.max(np.abs(closed - compose_velocity_via_probabilities_array(u, v))))
    elapsed = time.perf_counter() - start
    report(
        "1 velocity-addition equivalence",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.3e} <= 1e-12 on 99x99 grid, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_group_laws():
    u, v = GRID[:, None], GRID[None, :]
    w = velocity_addition_array(u, v)
    phi = rapidity_from_beta_array(GRID)
    comm = float(np.max(np.abs(w - velocity_addition_array(v, u))))
    ident = float(np.max(np.abs(velocity_addition_array(GRID, 0.0) - GRID)))
    inv = float(np.max(np.abs(velocity_addition_array(GRID, -GRID))))
    assoc = float(np.max(np.abs(rapidity_from_beta_array(w) - (phi[:, None] + phi[None, :]))))
    passed = comm == 0.0 and ident == 0.0 and inv <= 1e-15 and assoc <= 1e-10
    report(
        "2 group laws",
        passed,
        f"commutativity {comm:.1e} (exact), identity {ident:.1e} (exact), "
        f"inverse {inv:.1e} <= 1e-15, associativity-via-rapidity {assoc:.3e} <= 1e-10",
    )


def test_criterion_3_entropy_identity():
    start = time.perf_counter()
    b = np.linspace(-0.999, 0.999, 999)
    worst = float(np.max(np.abs(entropy_from_beta_array(b)[0] - entropy_relativistic_form_array(b))))
    rest, right, left = entropy_from_beta_array([0.0, 1.0, -1.0])[0].tolist()
    rest_dev = abs(rest - math.log(2.0))
    boundary = max(right, left)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and rest_dev <= 1e-15 and boundary == 0.0 and elapsed < 1.0
    report(
        "3 entropy identity",
        passed,
        f"max route gap {worst:.3e} <= 1e-12 on 999 points, S(0)-ln2 = {rest_dev:.1e} "
        f"<= 1e-15, S(+-1) = {boundary} (exact), {elapsed:.2f}s < 1s",
    )


def test_criterion_4_monte_carlo_drift():
    start = time.perf_counter()
    n = 1_000_000
    worst_ratio = 0.0
    for i, beta in enumerate((-0.9, -0.5, 0.0, 0.5, 0.9)):
        est = simulate_drift(SimConfig(beta=beta, ticks=n, seed=20_000 + i))
        bound = 5.0 * math.sqrt((1.0 - beta * beta) / n)
        worst_ratio = max(worst_ratio, abs(est.mean - beta) / bound)
    elapsed = time.perf_counter() - start
    report(
        "4 Monte Carlo drift",
        worst_ratio <= 1.0 and elapsed < 5.0,
        f"worst |mean-beta| at {worst_ratio:.2f} of the 5-sigma bound, "
        f"n = 10^6, {elapsed:.2f}s < 5s",
    )


def test_criterion_5_rejection_sampled_frame_transform():
    start = time.perf_counter()
    n = 1_000_000
    values = (-0.8, -0.4, 0.0, 0.4, 0.8)
    worst_drift = 0.0
    worst_accept = 0.0
    seed = 77_000
    for u in values:
        for v in values:
            seed += 1
            obs = observe_from_moving_frame(u, v, ticks=n, seed=seed)
            expected = (u + v) / (1.0 + u * v)
            worst_drift = max(
                worst_drift, abs(obs.estimate.mean - expected) / (5.0 * obs.estimate.std_error)
            )
            z = 0.5 * (1.0 + u * v)
            sigma = math.sqrt(z * (1.0 - z) / n)
            worst_accept = max(worst_accept, abs(obs.acceptance_rate - z) / (5.0 * sigma))
    elapsed = time.perf_counter() - start
    passed = worst_drift <= 1.0 and worst_accept <= 1.0 and elapsed < 60.0
    report(
        "5 rejection-sampled frame transform",
        passed,
        f"drift at {worst_drift:.2f} and acceptance rate at {worst_accept:.2f} of "
        f"their 5-sigma bounds over 25 pairs, {elapsed:.1f}s < 60s",
    )


def test_criterion_6_physical_scales():
    electron = scale_for_particle("electron")
    omega_ok = 1.0e21 <= electron.omega_rad_per_s <= 2.0e21
    lambda_ok = 1.5e-13 <= electron.length_m <= 2.5e-13
    rel = abs(electron.omega_rad_per_s * electron.length_m - SPEED_OF_LIGHT) / SPEED_OF_LIGHT
    report(
        "6 physical scales",
        omega_ok and lambda_ok and rel <= 1e-12,
        f"omega = {electron.omega_rad_per_s:.4e} rad/s in [1e21, 2e21], "
        f"lambda = {electron.length_m:.4e} m in [1.5e-13, 2.5e-13], "
        f"|omega*lambda - c|/c = {rel:.2e} <= 1e-12",
    )


def test_criterion_7_simulate_determinism(capsys):
    argv = ["simulate", "--beta", "0.3", "--ticks", "100000", "--seed", "2024"]
    assert main(list(argv)) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(list(argv)) == 0
    second = json.loads(capsys.readouterr().out)
    first["manifest"].pop("timestamp")
    second["manifest"].pop("timestamp")
    passed = first == second
    with capsys.disabled():
        report(
            "7 determinism",
            passed,
            "two identical simulate invocations agree bit-for-bit apart from "
            "the manifest timestamp",
        )


def test_criterion_8_telegraph_iid_consistency():
    n = 1_000_000
    beta = 0.3
    iid_est = simulate_drift(SimConfig(beta=beta, ticks=n, seed=505))
    tg_cfg = SimConfig(beta=beta, ticks=n, seed=606, dynamics="telegraph")
    tg_est = simulate_drift(tg_cfg)
    # combined sigma: iid binomial variance plus the telegraph variance
    # inflated by the chain's integrated autocorrelation (1+rho)/(1-rho)
    a, b = tg_cfg.flip_probabilities
    rho = 1.0 - (a + b)
    base_var = (1.0 - beta * beta) / n
    sigma = math.sqrt(base_var + base_var * (1.0 + rho) / (1.0 - rho))
    gap = abs(tg_est.mean - iid_est.mean)
    report(
        "8 telegraph/iid consistency",
        gap <= 5.0 * sigma,
        f"|telegraph - iid| = {gap:.2e} <= 5 sigma = {5.0 * sigma:.2e} at matched "
        f"beta = {beta}, n = 10^6",
    )
