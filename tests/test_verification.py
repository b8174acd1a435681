"""Verification harness: structure, pass state, tamper sanity."""

from __future__ import annotations

import dataclasses
import io
import re
import sys

import numpy as np
import pytest

import zittersim.verification as verification
from zittersim import InvalidConfig, SimConfig, cli, simulate, simulate_drift
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


def test_full_suite_passes():
    report = verification.run_verification("full")
    assert report.passed
    assert report.level == "full"
    for check in report.checks:
        assert check.observed <= check.tolerance, check.name


@pytest.mark.parametrize("level", ["fast", "full"])
def test_level_help_names_the_monte_carlo_size(level):
    # the --level help repeats run_verification's tick count for each level
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    action = sub.choices["verify"]._option_string_actions["--level"]
    sizes = {lv: size for size, lv in re.findall(r"(1e\d+) ticks at (\w+)", action.help)}
    check = next(c for c in verification.run_verification(level).checks
                 if c.name == "monte_carlo_drift_within_5_sigma")
    assert check.detail.endswith(f"at n = {int(float(sizes[level]))}")


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


@pytest.mark.parametrize("level", ["x", None, 1, [], {}, "FAST"])
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


def _restarted_at_block_edges(blocks):
    """``_direction_blocks`` that starts a new chain at each ``chunk`` edge."""
    def restarted(streams, ticks, p_right, flips=None, chunk=simulate._CHUNK):
        for start in range(0, ticks, chunk):
            yield from blocks(streams, min(chunk, ticks - start), p_right, flips, chunk)
    return restarted


def _swapped_flip_pair(blocks):
    """``_direction_blocks`` that reads the right flip at b and the left at a."""
    def swapped(streams, ticks, p_right, flips=None, chunk=simulate._CHUNK):
        return blocks(streams, ticks, p_right, flips and flips[::-1], chunk)
    return swapped


def _observer_drawn_with_v(blocks):
    """``_direction_blocks`` that draws every path of one ``_Streams`` at the
    first path's p_right: ``observe`` draws its observer at (1+v)/2."""
    first = {}

    def drawn_with_v(streams, ticks, p_right, flips=None, chunk=simulate._CHUNK):
        return blocks(streams, ticks, first.setdefault(streams, p_right), flips, chunk)
    return drawn_with_v


def _std_error_times_10(estimate):
    def inflated(*args):
        est = estimate(*args)
        return dataclasses.replace(est, std_error=10.0 * est.std_error)
    return inflated


# verify's power: each broken sampler, as (private of simulate, its replacement
# built from the original), with the verdict of run_verification("full") on it,
# "passes" or the names of the checks that fail, and the reason.
MUTANTS = {
    "threshold-q-plus-1e-4": (
        "_threshold", lambda threshold: lambda q: threshold(q + 1e-4), "passes",
        "the 5-sigma mean checks at n = 1e6 see a Bernoulli bias above ~2.5e-3, 25x this one",
    ),
    "no-variance-inflation": (
        "_variance_inflation", lambda inflation: lambda flips, n: 1.0, "passes",
        "no check holds std_error against the spread of replicates",
    ),
    "tie-words-never-right": (
        "_Streams.tie_words", lambda tie_words: lambda self, n: np.full(n, 2**64 - 1, np.uint64),
        "passes",
        "a tie defect biases a draw by less than 2**-16, below any affordable mean check, "
        "and no check reads the stream against the layout's rule",
    ),
    "chain-restarted-at-block-edges": (
        "_direction_blocks", _restarted_at_block_edges, "passes",
        "a restarted chain keeps every marginal, and no check reads a law across a block edge",
    ),
    "std-error-times-10": (
        "_estimate_from_sum", _std_error_times_10, "passes",
        "no check holds std_error against the spread of replicates, and the two checks "
        "that divide by it pass more easily",
    ),
    "swapped-flip-pair": (
        "_direction_blocks", _swapped_flip_pair, ("telegraph_iid_drift_consistency",),
        "swapped flips move the telegraph chain's stationary drift from beta to -beta",
    ),
    "observer-drawn-with-v": (
        "_direction_blocks", _observer_drawn_with_v,
        ("frame_transform_drift_within_5_sigma", "frame_transform_acceptance_rate_within_5_sigma"),
        "the retained drift becomes 2v/(1+v^2) and the retained fraction (1+v^2)/2",
    ),
    "small-run-tie-stream-unjumped": (
        "_PCG64.jumped", lambda jumped: lambda self: self, "passes",
        "verify's Monte Carlo runs are too large for the pure-Python PCG64, so only "
        "the test that pins it to numpy's sees its tie stream",
    ),
}


def _probe():
    # seed 17's iid path at beta 0.3 draws its tick 53270 right from a tie
    # word; the telegraph path crosses two block edges, and its CSV shows a
    # restarted chain whose drift happens to be the same.  Seed 172's frame
    # observation draws a tie in its 2000 draws that its stream's own next word
    # settles the other way; it draws from the pure-Python PCG64, since
    # numpy.random is out of sys.modules, as in a fresh process.
    iid = SimConfig(beta=0.3, ticks=60_000, seed=17)
    telegraph = SimConfig(beta=0.3, ticks=2 * simulate._CHUNK + 1, seed=17, dynamics="telegraph")
    csv = io.BytesIO()
    with pytest.MonkeyPatch.context() as fresh:
        fresh.delitem(sys.modules, "numpy.random", raising=False)
        observed = simulate.observe_from_moving_frame(0.4, 0.5, 1_000, 172)
    return simulate_drift(iid), simulate_drift(telegraph, csv), csv.getvalue(), observed


@pytest.mark.parametrize("mutant", MUTANTS)
def test_full_suite_verdict_on_each_mutant(monkeypatch, mutant):
    target, mutate, verdict, _reason = MUTANTS[mutant]
    owner, _, name = target.rpartition(".")
    owner = getattr(simulate, owner) if owner else simulate
    unbroken = _probe()
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    assert _probe() != unbroken  # the mutant changes what the sampler reports
    report = verification.run_verification("full")
    failed = tuple(c.name for c in report.checks if not c.passed)
    assert failed == (() if verdict == "passes" else verdict)
