"""Tick-process generation, drift estimation, frame observation, ensembles."""

from __future__ import annotations

import io
import math
import os
import random
import statistics
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zittersim import (
    IndeterminateComposition,
    InvalidBeta,
    InvalidConfig,
    NoAcceptedTicks,
    SimConfig,
    _format,
    derive_seed,
    observe_from_moving_frame,
    run_ensemble,
    simulate,
    simulate_drift,
    velocity_addition_array,
)
from zittersim.simulate import estimate_drift, generate_path, write_path_csv


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(beta=0.3, ticks=100, seed=1)
        assert cfg.dynamics == "iid"
        assert cfg.p_right == pytest.approx(0.65)

    @pytest.mark.parametrize("ticks", [0, -5, 1.5])
    def test_rejects_bad_ticks(self, ticks):
        with pytest.raises(InvalidConfig):
            SimConfig(beta=0.0, ticks=ticks, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidConfig):
            SimConfig(beta=0.0, ticks=10, seed=seed)

    def test_rejects_superluminal_beta(self):
        with pytest.raises(InvalidBeta):
            SimConfig(beta=1.5, ticks=10, seed=1)

    @pytest.mark.parametrize("beta", ["0.5", True, None, [[0.1], [0.2, 0.3]]])
    def test_rejects_non_number_beta(self, beta):
        with pytest.raises(InvalidBeta):
            SimConfig(beta=beta, ticks=10, seed=1)
        with pytest.raises(InvalidBeta):
            observe_from_moving_frame(beta, 0.1, ticks=10, seed=1)

    def test_rejects_unknown_dynamics(self):
        with pytest.raises(InvalidConfig):
            SimConfig(beta=0.0, ticks=10, seed=1, dynamics="levy")

    def test_flip_asymmetry_requires_telegraph(self):
        with pytest.raises(InvalidConfig):
            SimConfig(beta=0.0, ticks=10, seed=1, flip_asymmetry=(0.25, 0.25))

    def test_flip_asymmetry_must_match_stationary_law(self):
        # stationary Pr(R) = b/(a+b); (0.05, 0.2) gives 0.8 = (1+0.6)/2
        SimConfig(
            beta=0.6, ticks=10, seed=1, dynamics="telegraph", flip_asymmetry=(0.05, 0.2)
        )
        with pytest.raises(InvalidConfig):
            SimConfig(
                beta=0.6, ticks=10, seed=1, dynamics="telegraph",
                flip_asymmetry=(0.2, 0.2),
            )

    def test_flip_asymmetry_rejects_degenerate_pair(self):
        with pytest.raises(InvalidConfig):
            SimConfig(
                beta=0.0, ticks=10, seed=1, dynamics="telegraph",
                flip_asymmetry=(0.0, 0.0),
            )

    def test_default_flips_keep_stationary_law(self):
        for beta in (-1.0, -0.4, 0.0, 0.7, 1.0):
            cfg = SimConfig(beta=beta, ticks=10, seed=1, dynamics="telegraph")
            a, b = cfg.flip_probabilities
            assert abs(b / (a + b) - cfg.p_right) <= 1e-12

    def test_flip_probabilities_none_for_iid(self):
        assert SimConfig(beta=0.2, ticks=10, seed=1).flip_probabilities is None
        tg = SimConfig(beta=0.2, ticks=10, seed=1, dynamics="telegraph")
        p = tg.p_right
        assert tg.flip_probabilities == (0.5 * (1.0 - p), 0.5 * p)
        explicit = SimConfig(
            beta=0.6, ticks=10, seed=1, dynamics="telegraph", flip_asymmetry=(0.05, 0.2)
        )
        assert explicit.flip_probabilities == (0.05, 0.2)

    def test_accepts_numpy_integers(self):
        cfg = SimConfig(beta=0.0, ticks=np.int64(10), seed=np.uint64(2**64 - 1))
        assert type(cfg.ticks) is int and cfg.ticks == 10
        assert type(cfg.seed) is int and cfg.seed == 2**64 - 1


class TestGeneratePath:
    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    def test_light_speed_never_reverses(self, dynamics):
        assert np.all(_directions(SimConfig(beta=1.0, ticks=500, seed=3, dynamics=dynamics)) == 1)
        assert np.all(_directions(SimConfig(beta=-1.0, ticks=500, seed=3, dynamics=dynamics)) == -1)

    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_speed_is_always_c(self, dynamics, seed):
        path = _directions(SimConfig(beta=0.3, ticks=2000, seed=seed, dynamics=dynamics))
        assert np.all(np.abs(path) == 1)

    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    def test_deterministic_for_fixed_seed(self, dynamics):
        cfg = SimConfig(beta=0.2, ticks=5000, seed=99, dynamics=dynamics)
        assert np.array_equal(_directions(cfg), _directions(cfg))

    def test_different_seeds_differ(self):
        a = _directions(SimConfig(beta=0.0, ticks=5000, seed=1))
        b = _directions(SimConfig(beta=0.0, ticks=5000, seed=2))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "beta,seed", [(0.0, 11), (0.6, 12), (-0.35, 13)]
    )
    def test_iid_drift_within_five_sigma(self, beta, seed):
        n = 1_000_000
        mean = float(np.mean(_directions(SimConfig(beta=beta, ticks=n, seed=seed))))
        assert abs(mean - beta) <= 5.0 * math.sqrt((1.0 - beta * beta) / n)

    @pytest.mark.parametrize("beta,seed", [(0.0, 21), (0.6, 22), (-0.35, 23)])
    def test_telegraph_drift_within_inflated_five_sigma(self, beta, seed):
        n = 500_000
        cfg = SimConfig(beta=beta, ticks=n, seed=seed, dynamics="telegraph")
        mean = float(np.mean(_directions(cfg)))
        # persistent chain: variance of the mean inflates by (1+rho)/(1-rho)
        a, b = cfg.flip_probabilities
        rho = 1.0 - (a + b)
        sigma = math.sqrt((1.0 - beta * beta) / n * (1.0 + rho) / (1.0 - rho))
        assert abs(mean - beta) <= 5.0 * sigma

    def test_telegraph_custom_flips_respected(self):
        # near-frozen chain: long runs in each state
        cfg = SimConfig(
            beta=0.0, ticks=20_000, seed=5, dynamics="telegraph",
            flip_asymmetry=(0.001, 0.001),
        )
        path = _directions(cfg)
        flips = int(np.sum(path[1:] != path[:-1]))
        # ~20 expected; the iid chain would give ~10000
        assert flips < 200

    def test_positions_are_cumulative_sums(self):
        cfg = SimConfig(beta=1.0, ticks=4, seed=1)
        assert _csv_positions(cfg) == [1.0, 2.0, 3.0, 4.0]

    def test_path_carries_seed(self):
        cfg = SimConfig(beta=0.0, ticks=5, seed=77)
        assert simulate_drift(cfg).seed == 77


def _csv_positions(cfg: SimConfig) -> list[float]:
    """The position column of ``cfg``'s path CSV."""
    buf = io.BytesIO()
    simulate_drift(cfg, buf)
    return [float(row.split(",")[2]) for row in buf.getvalue().decode().splitlines()[1:]]


class TestZitterPath:
    """The handles on ``simulate_drift`` that the benchmark harness calls."""

    def test_length(self):
        assert len(generate_path(SimConfig(beta=0.0, ticks=3, seed=1))) == 3

    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    def test_handles_are_simulate_drift(self, monkeypatch, dynamics):
        cfg = SimConfig(beta=0.3, ticks=1_000, seed=12, dynamics=dynamics)
        want = io.BytesIO()
        expected = simulate_drift(cfg, want)
        # generate_path draws nothing
        monkeypatch.setattr(simulate, "_Streams", None)
        path = generate_path(cfg)
        monkeypatch.undo()
        assert path.config == cfg
        assert estimate_drift(path) == expected
        got = io.BytesIO()
        assert write_path_csv(path, got) is None
        assert got.getvalue() == want.getvalue()


def _directions(cfg: SimConfig, chunk: int = simulate._CHUNK) -> np.ndarray:
    """``cfg``'s whole path as +/-1 ticks: the ``chunk``-tick right-masks of
    ``simulate._direction_blocks`` joined."""
    streams = simulate._Streams(cfg.seed)
    blocks = simulate._direction_blocks(
        streams, cfg.ticks, cfg.p_right, cfg.flip_probabilities, chunk
    )
    return np.where(np.concatenate(list(blocks)), 1, -1)


def _right_counts(cfg: SimConfig, replicates: int, chunk: int) -> list[int]:
    """Right-tick counts of ``run_ensemble(cfg, replicates)``'s replicates,
    each drawn in ``chunk``-tick blocks."""
    sums = (
        simulate._path_sum(cfg, derive_seed(cfg.seed, r), chunk=chunk) for r in range(replicates)
    )
    return [(total + cfg.ticks) // 2 for total in sums]


def _whole_path_estimate(cfg: SimConfig):
    """The drift estimate of ``cfg``'s path reduced as one array."""
    total = int(np.sum(_directions(cfg), dtype=np.int64))
    inflation = simulate._variance_inflation(cfg.flip_probabilities, cfg.ticks)
    return simulate._estimate_from_sum(total, cfg.ticks, cfg.seed, inflation)


def _estimate_of(cfg: SimConfig, directions: list[int]):
    """``simulate_drift`` of ``cfg``'s path, which must draw ``directions``;
    the whole-array reduction must agree with it."""
    assert _directions(cfg).tolist() == directions
    est = simulate_drift(cfg)
    assert _whole_path_estimate(cfg) == est
    return est


class TestEstimateDrift:
    def test_all_right(self):
        est = _estimate_of(SimConfig(beta=1.0, ticks=4, seed=1), [1, 1, 1, 1])
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert est.n == 4

    def test_alternating(self):
        est = _estimate_of(SimConfig(beta=0.0, ticks=4, seed=4), [1, -1, 1, -1])
        assert est.mean == 0.0
        # flips (1, 1) alternate every tick, so the mean of 4 ticks is exact
        cfg = SimConfig(beta=0.0, ticks=4, seed=1, dynamics="telegraph", flip_asymmetry=(1, 1))
        est = simulate_drift(cfg)
        assert (est.mean, est.std_error) == (0.0, 0.0)

    def test_three_quarters(self):
        est = _estimate_of(SimConfig(beta=0.0, ticks=4, seed=34), [1, 1, -1, 1])
        assert est.mean == 0.5
        # sqrt((1 - 0.25)/4)
        assert est.std_error == pytest.approx(0.4330127018922193, abs=1e-15)


class TestObserveFromMovingFrame:
    def test_symmetric_case(self):
        obs = observe_from_moving_frame(0.0, 0.0, ticks=200_000, seed=1)
        assert abs(obs.estimate.mean) <= 5.0 * obs.estimate.std_error
        assert obs.acceptance_rate == pytest.approx(0.5, abs=5.0 * math.sqrt(0.25 / 200_000))

    def test_boosted_case(self):
        n = 1_000_000
        obs = observe_from_moving_frame(0.5, 0.5, ticks=n, seed=2)
        assert abs(obs.estimate.mean - 0.8) <= 5.0 * obs.estimate.std_error
        z = 0.625
        assert abs(obs.acceptance_rate - z) <= 5.0 * math.sqrt(z * (1 - z) / n)

    def test_light_speed_observer_sees_light_speed(self):
        obs = observe_from_moving_frame(1.0, 0.3, ticks=10_000, seed=3)
        assert obs.estimate.mean == 1.0
        # retained ticks are exactly the particle's right-moving ticks
        assert obs.estimate.n == pytest.approx(0.65 * 10_000, abs=5 * math.sqrt(0.65 * 0.35 * 10_000))

    @pytest.mark.parametrize("u,v", [(1.0, -1.0), (-1.0, 1.0)])
    def test_antipodal_raises(self, u, v):
        with pytest.raises(IndeterminateComposition):
            observe_from_moving_frame(u, v, ticks=100, seed=1)

    def test_no_accepted_ticks(self):
        # acceptance probability 5e-8 per tick; 10 ticks retain nothing
        with pytest.raises(NoAcceptedTicks):
            observe_from_moving_frame(1.0, -0.9999999, ticks=10, seed=3)

    def test_grid_against_closed_form(self):
        values = (-0.8, 0.0, 0.8)
        n = 200_000
        seed = 40
        for u in values:
            for v in values:
                seed += 1
                obs = observe_from_moving_frame(u, v, ticks=n, seed=seed)
                expected = velocity_addition_array(u, v)
                assert abs(obs.estimate.mean - expected) <= 5.0 * obs.estimate.std_error
                z = 0.5 * (1.0 + u * v)
                sigma = math.sqrt(z * (1.0 - z) / n)
                assert abs(obs.acceptance_rate - z) <= 5.0 * sigma

    def test_deterministic(self):
        a = observe_from_moving_frame(0.4, -0.2, ticks=10_000, seed=11)
        b = observe_from_moving_frame(0.4, -0.2, ticks=10_000, seed=11)
        assert a == b

    @pytest.mark.parametrize(
        "u,v,ticks,seed,golden",
        [
            (0.4, -0.2, 150_000, 11,
             (0.21852228189867906, 0.003717893499035018, 68890, 0.45926666666666666)),
            (-0.7, 0.9, 200_003, 12,
             (0.5436691942610877, 0.004383378126189953, 36662, 0.18330725039124413)),
            (1.0, 0.3, 70_001, 13, (1.0, 0.0, 45520, 0.6502764246225053)),
        ],
    )
    def test_stream_is_layout_4(self, u, v, ticks, seed, golden):
        # golden values drawn under stream layout 4; more ticks than one block,
        # so particle and observer blocks interleave on the one stream
        assert ticks > simulate._CHUNK
        obs = observe_from_moving_frame(u, v, ticks=ticks, seed=seed)
        est = obs.estimate
        assert (est.mean, est.std_error, est.n, obs.acceptance_rate) == golden


class TestDeriveSeed:
    def test_splitmix64_reference_stream(self):
        # published SplitMix64 outputs for state 0
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_seed(0, 2) == 0x06C45D188009454F

    def test_distinct_across_replicates(self):
        seeds = {derive_seed(12345, r) for r in range(10_000)}
        assert len(seeds) == 10_000

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidConfig):
            derive_seed(1, -1)


TELEGRAPH = {"beta": 0.0, "ticks": 10, "seed": 1, "dynamics": "telegraph"}


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: SimConfig(**TELEGRAPH, flip_asymmetry=(0.1, 0.1, 0.1)), id="flips-3"),
        pytest.param(lambda: SimConfig(**TELEGRAPH, flip_asymmetry=("x", 0.1)), id="flips-str"),
        pytest.param(lambda: SimConfig(**TELEGRAPH, flip_asymmetry=0.5), id="flips-scalar"),
        pytest.param(lambda: SimConfig(**TELEGRAPH, flip_asymmetry=(True, True)), id="flips-bool"),
        pytest.param(lambda: derive_seed(1, 1.5), id="index-float"),
        pytest.param(lambda: derive_seed(1, "2"), id="index-str"),
        pytest.param(lambda: derive_seed(1, True), id="index-bool"),
        pytest.param(lambda: derive_seed(np.array(0.5), 1), id="seed-float-array"),
        pytest.param(lambda: derive_seed(1, np.array(1.5)), id="index-float-array"),
        pytest.param(lambda: SimConfig(beta=0.0, ticks=True, seed=1), id="ticks-bool"),
        pytest.param(lambda: SimConfig(beta=0.0, ticks=10, seed=True), id="config-seed-bool"),
        pytest.param(lambda: SimConfig(beta=0.0, ticks=np.array(0.5), seed=1),
                     id="ticks-float-array"),
        pytest.param(lambda: SimConfig(beta=0.0, ticks=10, seed=np.array(0.5)),
                     id="config-seed-float-array"),
        pytest.param(lambda: observe_from_moving_frame(0.1, 0.2, ticks=True, seed=1),
                     id="observe-ticks-bool"),
        pytest.param(lambda: observe_from_moving_frame(0.1, 0.2, ticks=0, seed=1),
                     id="observe-ticks-0"),
        pytest.param(lambda: observe_from_moving_frame(0.1, 0.2, ticks=2.0, seed=1),
                     id="observe-ticks-float"),
        pytest.param(lambda: observe_from_moving_frame(0.1, 0.2, ticks=np.array(0.5), seed=1),
                     id="observe-ticks-float-array"),
        pytest.param(lambda: observe_from_moving_frame(0.1, 0.2, ticks=10, seed=np.array(0.5)),
                     id="observe-seed-float-array"),
        pytest.param(lambda: run_ensemble(SimConfig(**TELEGRAPH), np.array(0.5)),
                     id="replicates-float-array"),
        pytest.param(lambda: SimConfig(beta=0.0, ticks=2**63, seed=1), id="ticks-2**63"),
        pytest.param(lambda: SimConfig(beta=0.0, ticks=10**400, seed=1), id="ticks-10**400"),
        pytest.param(lambda: observe_from_moving_frame(0.1, 0.2, ticks=2**63, seed=1),
                     id="observe-ticks-2**63"),
    ],
)
def test_non_number_input_raises_invalid_config(make):
    with pytest.raises(InvalidConfig):
        make()


def test_largest_ticks_accepted():
    # the CSV positions are int64 sums of up to ticks directions; 2**63 raises
    assert SimConfig(beta=0.0, ticks=np.uint64(2**63 - 1), seed=1).ticks == 2**63 - 1


class TestRunEnsemble:
    def test_single_replicate_matches_single_path(self):
        cfg = SimConfig(beta=0.3, ticks=5_000, seed=123)
        result = run_ensemble(cfg, 1)
        derived = SimConfig(beta=0.3, ticks=5_000, seed=derive_seed(123, 0))
        direct = _whole_path_estimate(derived)
        assert result.replicates[0] == direct
        assert result.pooled.mean == direct.mean
        assert result.pooled.n == direct.n

    def test_pooled_mean_is_tick_weighted(self):
        cfg = SimConfig(beta=0.3, ticks=2_000, seed=9)
        result = run_ensemble(cfg, 20)
        total = sum(e.mean * e.n for e in result.replicates)
        n = sum(e.n for e in result.replicates)
        assert result.pooled.n == n
        assert result.pooled.mean == pytest.approx(total / n, abs=1e-12)

    def test_pooled_drift_within_five_sigma(self):
        # 100 x 10^4 ticks at beta = 0.3
        cfg = SimConfig(beta=0.3, ticks=10_000, seed=314)
        result = run_ensemble(cfg, 100)
        bound = 5.0 * math.sqrt((1.0 - 0.09) / 1_000_000)
        assert abs(result.pooled.mean - 0.3) <= bound

    def test_deterministic(self):
        cfg = SimConfig(beta=-0.2, ticks=1_000, seed=55)
        assert run_ensemble(cfg, 5) == run_ensemble(cfg, 5)

    def test_rejects_bad_replicates(self):
        cfg = SimConfig(beta=0.0, ticks=10, seed=1)
        with pytest.raises(InvalidConfig):
            run_ensemble(cfg, 0)

    def test_rejects_a_pooled_n_of_2_63(self):
        # the pooled n is replicates * ticks, bounded below 2**63 like ticks
        with pytest.raises(InvalidConfig, match="replicates \\* ticks"):
            run_ensemble(SimConfig(beta=0.0, ticks=2**62, seed=1), 2)


class TestPathCsv:
    def test_format(self):
        buf = io.BytesIO()
        simulate_drift(SimConfig(beta=1.0, ticks=3, seed=1), buf)
        lines = buf.getvalue().decode().strip().splitlines()
        assert lines[0] == "tick,direction,position"
        assert lines[1] == "0,+1,1.0"
        assert lines[2] == "1,+1,2.0"
        assert lines[3] == "2,+1,3.0"

    def test_directions_signed(self):
        # seed 41 draws [-1, -1, 1, -1]
        buf = io.BytesIO()
        simulate_drift(SimConfig(beta=0.0, ticks=4, seed=41), buf)
        rows = buf.getvalue().decode().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["-1", "-1", "+1", "-1"]


def _reference_rows(tick: int, directions: list[int], positions: list[int]) -> str:
    """Path CSV rows from ``tick`` on, one per tick, one f-string each: the tick,
    the signed direction and the position's exact tick count with ``.0``."""
    rows = zip(range(tick, tick + len(directions)), directions, positions)
    return "".join([f"{t},{d:+d},{x}.0\n" for t, d, x in rows])


def _reference_csv(cfg: SimConfig) -> str:
    """``cfg``'s whole path CSV, row by row: the byte-for-byte reference for
    the block writer."""
    directions = _directions(cfg)
    positions = np.cumsum(directions, dtype=np.int64)
    rows = _reference_rows(0, directions.tolist(), positions.tolist())
    return "tick,direction,position\n" + rows


def _dump_to_devnull(cfg: SimConfig):
    """``simulate_drift`` of ``cfg`` with its path CSV written to the null device."""
    with open(os.devnull, "wb") as sink:
        return simulate_drift(cfg, sink)


def _assert_same_text(got: bytes, want: str) -> None:
    """Byte equality of ``got`` and ``want``'s ASCII that reports the first
    differing line; pytest's full diff of two large dumps would take minutes."""
    want = want.encode("ascii")
    for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
        assert g == w, f"line {i}"
    identical = got == want
    assert identical, f"{len(got)} bytes written, {len(want)} expected"


def _layout3_ticks(beta: float, ticks: int, seed: int) -> np.ndarray:
    """Stream layout 3's iid path drawn in one piece: tick i is right iff the
    i-th 16-bit digit of PCG64(seed)'s raw words is below p's leading digit
    head, or equals it and the next word of PCG64(seed).jumped() is below
    the 64 bits of p that follow."""
    head, tail = divmod(int(Fraction(0.5 * (1.0 + beta)) * 2**80), 2**64)
    digits = np.random.PCG64(seed).random_raw(-(-ticks // 4)).view(np.uint16)[:ticks]
    right = digits < head
    ties = np.flatnonzero(digits == head)
    right[ties] = np.random.PCG64(seed).jumped().random_raw(ties.size) < tail
    return np.where(right, 1, -1)


def _layout4_ticks(cfg: SimConfig, chunk: int) -> list[int]:
    """Stream layout 4's telegraph path, tick by tick.  One Bernoulli(p) draw
    starts the chain right or left.  Each block of ``chunk`` ticks then draws
    a right flip per tick, then a left flip per tick, and the tick after t
    reverses tick t iff the flip of tick t's own direction is set.  Draw j of
    Bernoulli(q) reads the j-th 16-bit digit of PCG64(seed)'s words, least
    significant first; it is true iff the digit is below q's leading 16 bits,
    or equals them and the next word of PCG64(seed).jumped() is below the 64
    bits of q that follow."""
    words = np.random.PCG64(cfg.seed).random_raw(-(-(1 + 2 * cfg.ticks) // 4)).tolist()
    digits = iter([word >> shift & 0xFFFF for word in words for shift in (0, 16, 32, 48)])
    ties = np.random.PCG64(cfg.seed).jumped()
    a, b = cfg.flip_probabilities
    thresholds = {q: divmod(math.floor(Fraction(q) * 2**80), 2**64) for q in (cfg.p_right, a, b)}

    def draw(q: float) -> bool:
        head, tail = thresholds[q]
        digit = next(digits)
        return digit < head or (digit == head and int(ties.random_raw()) < tail)

    right = draw(cfg.p_right)
    path = []
    for start in range(0, cfg.ticks, chunk):
        k = min(chunk, cfg.ticks - start)
        flip_right = [draw(a) for _ in range(k)]
        flip_left = [draw(b) for _ in range(k)]
        for t in range(k):
            path.append(1 if right else -1)
            right ^= flip_right[t] if right else flip_left[t]
    return path


def _binomial_pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def _telegraph_pmf(n: int, p: float, a: float, b: float) -> np.ndarray:
    """Exact law of the right-tick count of n stationary telegraph ticks with
    flips (a, b): the forward recursion over (state, #right)."""
    right, left = np.zeros(n + 1), np.zeros(n + 1)
    right[1], left[0] = p, 1.0 - p
    for _ in range(n - 1):
        stay_or_enter = right * (1.0 - a) + left * b
        right, left = np.concatenate(([0.0], stay_or_enter[:-1])), right * a + left * (1.0 - b)
    return right + left


def _right_counts_chi2(counts: list[int], pmf) -> tuple[float, int]:
    """Pearson X^2 of right-tick counts against ``pmf`` over 0..n right ticks,
    with bins pooled from the left until each expects at least 5 paths;
    (X^2, df)."""
    n = len(pmf) - 1
    observed = np.bincount(counts, minlength=n + 1)
    bins, expected, seen = [], 0.0, 0
    for k in range(n + 1):
        expected += pmf[k] * len(counts)
        seen += int(observed[k])
        if expected >= 5.0:
            bins.append((expected, seen))
            expected, seen = 0.0, 0
    last = bins.pop()
    bins.append((last[0] + expected, last[1] + seen))
    chi2 = sum((o - e) ** 2 / e for e, o in bins)
    return chi2, len(bins) - 1


class TestChunkedSampler:
    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    @pytest.mark.parametrize("chunk", [7, simulate._CHUNK])
    def test_blocks_are_right_masks(self, dynamics, chunk):
        # two whole blocks and a partial one
        cfg = SimConfig(beta=0.3, ticks=2 * chunk + 5, seed=9, dynamics=dynamics)
        streams = simulate._Streams(cfg.seed)
        blocks = list(simulate._direction_blocks(
            streams, cfg.ticks, cfg.p_right, cfg.flip_probabilities, chunk
        ))
        assert all(b.dtype == np.bool_ and b.ndim == 1 and b.size <= chunk for b in blocks)
        assert sum(b.size for b in blocks) == cfg.ticks

    @pytest.mark.parametrize("chunk", [1, 7, 4096, simulate._CHUNK])
    def test_iid_stream_independent_of_chunk_size(self, chunk):
        # 3e5 ticks hold ~5 ties per path, and chunks 1 and 7 carry digits
        # across most block edges; -1 + 2**-52 has head 0, so only tie words
        # can draw right.  Chunk 1 draws one block per tick, so it draws 6e4
        # ticks: they hold beta 0.3's ties at ticks 49889 and 53270, and the
        # second tie draws right.
        ticks = 60_000 if chunk == 1 else 300_000
        for beta in (0.3, 1.0, -1.0, 0.0, -1.0 + 2.0**-52):
            cfg = SimConfig(beta=beta, ticks=ticks, seed=17)
            directions = _directions(cfg, chunk)
            assert np.array_equal(directions, _layout3_ticks(beta, ticks, 17)), beta
        # the sums behind simulate_drift and run_ensemble
        small = SimConfig(beta=0.3, ticks=10_000, seed=17)
        for est in (simulate_drift(small), *run_ensemble(small, 3).replicates):
            assert simulate._path_sum(small, est.seed, chunk=chunk) == round(est.mean * small.ticks)

    @given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_threshold_is_p_in_80_bits(self, beta, q):
        # any q in [0, 1] is truncated to 80 bits
        head, tail = simulate._threshold(q)
        assert 0 <= head <= 2**16 and 0 <= tail < 2**64
        assert head * 2**64 + tail == math.floor(Fraction(q) * 2**80)
        # p and the default flips s * (1 - p), s * p lose nothing
        cfg = SimConfig(beta=beta, ticks=1, seed=0, dynamics="telegraph")
        for exact in (cfg.p_right, *cfg.flip_probabilities):
            head, tail = simulate._threshold(exact)
            assert head * 2**64 + tail == Fraction(exact) * 2**80

    @pytest.mark.parametrize("beta,seed", [(-0.6, 61), (0.3, 62)])
    def test_iid_right_counts_are_binomial(self, beta, seed):
        # 7-tick blocks carry digits across 7 of the 9 block edges
        n = 64
        counts = _right_counts(SimConfig(beta=beta, ticks=n, seed=seed), 5_000, chunk=7)
        chi2, df = _right_counts_chi2(counts, _binomial_pmf(n, 0.5 * (1.0 + beta)))
        assert (chi2 - df) / math.sqrt(2.0 * df) < 5.0

    @pytest.mark.parametrize(
        "beta,flips,seed", [(0.3, None, 63), (-0.4, (0.035, 0.015), 64)],
        ids=["default-flips", "slow-flips"],
    )
    def test_telegraph_right_counts_follow_exact_law(self, beta, flips, seed):
        # 64 ticks in 7-tick blocks carry the chain's state across 9 block edges
        n = 64
        cfg = SimConfig(beta=beta, ticks=n, seed=seed, dynamics="telegraph", flip_asymmetry=flips)
        counts = _right_counts(cfg, 3_000, chunk=7)
        pmf = _telegraph_pmf(n, cfg.p_right, *cfg.flip_probabilities)
        assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
        chi2, df = _right_counts_chi2(counts, pmf)
        assert (chi2 - df) / math.sqrt(2.0 * df) < 5.0

    @pytest.mark.parametrize(
        "beta,flips",
        [(0.3, None), (-0.6, (0.4, 0.1)), (0.0, (0.9, 0.9)), (-1.0, (0.3, 0.0)),
         (0.0, (2.0**-20, 2.0**-20))],
        ids=["default-flips", "flips-0.4-0.1", "flips-0.9-0.9", "never-left-flip", "tie-words"],
    )
    @pytest.mark.parametrize("chunk", [7, simulate._CHUNK])
    def test_telegraph_stream_matches_tick_by_tick_reference(self, beta, flips, chunk):
        # two whole blocks and a partial one
        cfg = SimConfig(beta=beta, ticks=2 * chunk + 8_000, seed=31, dynamics="telegraph",
                        flip_asymmetry=flips)
        path = _directions(cfg, chunk)
        assert path.tolist() == _layout4_ticks(cfg, chunk)
        if flips == (2.0**-20, 2.0**-20) and chunk > 8_000:
            # a 2**-20 flip is a 0 digit (odds 2**-16) and then a tie word
            # below 2**60 (odds 1/16): seed 31 draws one such flip
            assert np.count_nonzero(path[1:] != path[:-1]) == 1

    def test_digits_read_words_least_significant_first(self):
        class BigEndianWords:
            """PCG64's raw words, stored big-endian."""

            def __init__(self, seed: int) -> None:
                self.bits = np.random.PCG64(seed)

            def random_raw(self, n: int) -> np.ndarray:
                return self.bits.random_raw(n).astype(">u8")

        native, swapped = simulate._Streams(5), simulate._Streams(5)
        swapped.bits = BigEndianWords(5)
        words = np.random.PCG64(5).random_raw(6).tolist()
        expected = [word >> shift & 0xFFFF for word in words for shift in (0, 16, 32, 48)]
        drawn = [streams.digits(k).tolist() for streams in (native, swapped) for k in (3, 1, 9, 8)]
        assert drawn[:4] == drawn[4:]
        assert sum(drawn[:4], []) == expected[:21]

    @pytest.mark.parametrize(
        "cfg,replicates,mean,std_error",
        [
            (SimConfig(beta=0.3, ticks=150_000, seed=2024, dynamics="telegraph"), 1,
             0.2978266666666667, 0.004269171292380309),
            (SimConfig(beta=-0.6, ticks=150_000, seed=2025, dynamics="telegraph",
                       flip_asymmetry=(0.4, 0.1)), 1,
             -0.5962533333333333, 0.00359019841724753),
            (SimConfig(beta=0.3, ticks=1_000, seed=2026, dynamics="telegraph"), 5,
             0.3052, 0.02331064764505697),
        ],
        ids=["default-flips", "flips-0.4-0.1", "replicates"],
    )
    def test_telegraph_stream_is_layout_4(self, cfg, replicates, mean, std_error):
        # golden values drawn under stream layout 4
        est = simulate_drift(cfg) if replicates == 1 else run_ensemble(cfg, replicates).pooled
        assert (est.mean, est.std_error) == (mean, std_error)

    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    @pytest.mark.parametrize("chunk", [7, simulate._CHUNK])
    def test_simulate_drift_is_estimate_of_generated_path(self, dynamics, chunk):
        cfg = SimConfig(beta=-0.4, ticks=5_000, seed=8, dynamics=dynamics)
        whole = int(np.sum(_directions(cfg, chunk), dtype=np.int64))
        assert simulate._path_sum(cfg, cfg.seed, chunk=chunk) == whole
        assert simulate_drift(cfg) == _whole_path_estimate(cfg)

    @pytest.mark.parametrize(
        "beta,flips,seed", [(0.3, None, 31), (-0.6, (0.4, 0.1), 32), (0.0, (0.9, 0.9), 33)]
    )
    @pytest.mark.parametrize("chunk", [64, simulate._CHUNK])
    def test_telegraph_mean_and_lag1_correlation(self, beta, flips, seed, chunk):
        # small chunks put thousands of block edges inside the path
        n = 200_000
        cfg = SimConfig(beta=beta, ticks=n, seed=seed, dynamics="telegraph", flip_asymmetry=flips)
        x = _directions(cfg, chunk)
        a, b = cfg.flip_probabilities
        sigma_mean = math.sqrt(
            (1.0 - beta * beta) / n * simulate._variance_inflation((a, b), n)
        )
        assert abs(x.mean() - beta) <= 5.0 * sigma_mean
        # lag-1 correlation 1 - a - b from the chain's transition counts,
        # each flip rate binomial in the visits to its state
        prev, nxt = x[:-1], x[1:]
        n_right, n_left = int(np.sum(prev == 1)), int(np.sum(prev == -1))
        a_hat = np.sum((prev == 1) & (nxt == -1)) / n_right
        b_hat = np.sum((prev == -1) & (nxt == 1)) / n_left
        sigma_rho = math.sqrt(a * (1 - a) / n_right + b * (1 - b) / n_left)
        assert abs((1.0 - a_hat - b_hat) - (1.0 - a - b)) <= 5.0 * sigma_rho

    @pytest.mark.parametrize("beta,flips", [(1.0, None), (1.0, (0.0, 0.3)), (-1.0, (0.3, 0.0))])
    def test_light_speed_telegraph_across_blocks(self, beta, flips):
        cfg = SimConfig(beta=beta, ticks=100, seed=2, dynamics="telegraph", flip_asymmetry=flips)
        assert np.all(_directions(cfg, 7) == int(beta))
        assert simulate._path_sum(cfg, cfg.seed, chunk=7) == beta * cfg.ticks
        assert simulate_drift(cfg).mean == beta

    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    def test_reported_std_error_matches_ensemble_spread(self, dynamics):
        replicates = 400
        cfg = SimConfig(beta=0.3, ticks=5_000, seed=2718, dynamics=dynamics)
        result = run_ensemble(cfg, replicates)
        spread = statistics.stdev(e.mean for e in result.replicates)
        reported = statistics.mean(e.std_error for e in result.replicates)
        assert 0.85 <= spread / reported <= 1.15
        # independent replicates: the pooled error shrinks by sqrt(replicates)
        assert result.pooled.std_error * math.sqrt(replicates) == pytest.approx(reported, rel=0.01)

    def test_telegraph_std_error_is_exact_formula(self):
        cfg = SimConfig(beta=0.2, ticks=1_000, seed=3, dynamics="telegraph")
        est = simulate_drift(cfg)
        rho = 1.0 - sum(cfg.flip_probabilities)
        factor = (1 + rho) / (1 - rho) - 2 * rho * (1 - rho**1_000) / (1_000 * (1 - rho) ** 2)
        assert est.std_error == pytest.approx(
            math.sqrt((1 - est.mean**2) / 1_000 * factor), rel=1e-12
        )

    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("d", [1.5, 0.5, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_variance_inflation_matches_direct_sum(self, n, d):
        # Var(mean) / iid value = 1 + 2 sum_k (1 - k/n) rho^k for rho = 1 - a - b
        rho = 1.0 - d
        direct = 1.0 + 2.0 * math.fsum((1.0 - k / n) * rho**k for k in range(1, n))
        got = simulate._variance_inflation((0.5 * d, 0.5 * d), n)
        assert got == pytest.approx(direct, rel=1e-9)

    def test_near_frozen_pooled_std_error_matches_spread(self):
        # (5e-12, 5e-12) flips almost never reverse within 100 ticks, so each
        # replicate is nearly all +1 or all -1 and the inflation is ~n
        replicates = 2_000
        cfg = SimConfig(beta=0.0, ticks=100, seed=1, dynamics="telegraph",
                        flip_asymmetry=(5e-12, 5e-12))
        result = run_ensemble(cfg, replicates)
        spread = statistics.stdev(e.mean for e in result.replicates) / math.sqrt(replicates)
        assert result.pooled.std_error == pytest.approx(spread, rel=0.1)

    @pytest.mark.parametrize(
        "reduce",
        [
            lambda: simulate_drift(SimConfig(beta=0.3, ticks=4_000_000, seed=1)),
            lambda: simulate_drift(
                SimConfig(beta=0.3, ticks=4_000_000, seed=1, dynamics="telegraph")
            ),
            lambda: observe_from_moving_frame(0.4, 0.5, ticks=4_000_000, seed=1),
            lambda: _dump_to_devnull(SimConfig(beta=0.3, ticks=1_000_000, seed=1)),
        ],
        ids=["iid", "telegraph", "observe", "csv"],
    )
    def test_reducers_hold_one_block_at_a_time(self, reduce):
        tracemalloc.start()
        try:
            reduce()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole path would need 4 MB even at one byte per tick
        assert peak < 40 * simulate._CHUNK


class TestBlockCsvWriter:
    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(beta=0.2, ticks=10_000, seed=4),
            SimConfig(beta=-0.3, ticks=9_001, seed=5, dynamics="telegraph"),
        ],
        ids=["unit-steps", "telegraph"],
    )
    def test_byte_identical_to_csv_writer(self, cfg):
        buf = io.BytesIO()
        simulate_drift(cfg, buf)
        _assert_same_text(buf.getvalue(), _reference_csv(cfg))

    @pytest.mark.parametrize("chunk", [7, simulate._CHUNK])
    def test_streamed_dump_matches_path_dump(self, chunk):
        cfg = SimConfig(beta=0.1, ticks=10_000, seed=9)
        buf = io.BytesIO()
        assert simulate._path_sum(cfg, cfg.seed, buf, chunk) == simulate._path_sum(cfg, cfg.seed)
        _assert_same_text(buf.getvalue(), _reference_csv(cfg))

    @pytest.mark.parametrize("size", [1, simulate._CSV_ROWS])
    @pytest.mark.parametrize("tick", [0, 5, 99_990, 10**15, 2**62, 2**63 - simulate._CSV_ROWS])
    def test_rows_match_reference_at_edges(self, tick, size):
        # every position is its exact count, also beyond 2**53, where a float
        # would round 2**53 + 1 and write -2**60 in scientific notation
        mixed = np.random.default_rng(tick).random(size) < 0.5
        for total in [0, -40, 2**53 - 3, 2**53 + 1, -(2**60)]:
            for right in [np.ones(size, bool), np.zeros(size, bool), mixed]:
                directions = np.where(right, 1, -1)
                positions = total + np.cumsum(directions, dtype=np.int64)
                want = _reference_rows(tick, directions.tolist(), positions.tolist())
                _assert_same_text(_format.path_csv(tick, total, right), want)


# Seeds for the pure-Python PCG64 twin: 0, the one- and two-word edges of
# numpy's seed hash, a seed whose high 32 bits are 0, one whose low 32 bits
# are 0, 2**63, the largest seed and 50 random ones.
TWIN_SEEDS = [0, 1, 2**32 - 1, 2**32, 0x9E3779B9, 5 << 32, 2**63, 2**64 - 1] + [
    random.Random(39).getrandbits(64) for _ in range(50)
]

# A path over both sizes: 1000 ticks, and two block edges and then some.
TWIN_TICKS = [1_000, 2 * simulate._CHUNK + 5]


def _both_sources(monkeypatch, run) -> list:
    """``run()`` twice in a process that has not loaded numpy.random, once
    with its words from numpy's PCG64 and once from ``simulate._PCG64``, the
    threshold set so that each run takes that source; each result comes with
    the set of seeds that built a ``_PCG64``, the tie streams' among them."""
    monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
    twin, made = simulate._PCG64, []
    monkeypatch.setattr(simulate, "_PCG64", lambda seed: made.append(seed) or twin(seed))
    results = []
    for small_words in (0, 2**40):
        monkeypatch.setattr(simulate, "_SMALL_WORDS", small_words)
        made.clear()
        results.append((run(), set(made)))
    return results


def _with_csv(cfg: SimConfig):
    buf = io.BytesIO()
    return simulate_drift(cfg, buf), buf.getvalue()


class TestSmallRunWordSource:
    """A small run draws PCG64's words from a pure-Python twin of numpy's."""

    @pytest.mark.parametrize("seed", TWIN_SEEDS)
    def test_twin_matches_numpy(self, seed):
        twin, bits = simulate._PCG64(seed), np.random.PCG64(seed)
        state = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert simulate._seed_state(seed) == tuple(state.tolist())
        # the tie stream's origin, from the seed and from a drawn state
        assert np.array_equal(twin.jumped().random_raw(8), bits.jumped().random_raw(8))
        for n in (1, 1_000, 63, 0):
            words = twin.random_raw(n)
            assert words.dtype == np.uint64
            assert np.array_equal(words, bits.random_raw(n))
        assert np.array_equal(twin.jumped().random_raw(8), bits.jumped().random_raw(8))

    def test_small_is_one_rule_on_the_run_size(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
        # one path's draws fill 4 digits a word, and its seed costs _SEED_WORDS
        draws = 4 * (simulate._SMALL_WORDS - simulate._SEED_WORDS)
        assert simulate._small(draws)
        assert not simulate._small(draws + 1)
        assert simulate._small(draws // 2 - 4 * simulate._SEED_WORDS, 2)
        assert not simulate._small(draws // 2, 2)
        # a process that holds numpy's generator already draws from it
        monkeypatch.setitem(sys.modules, "numpy.random", np.random)
        assert not simulate._small(1)

    @pytest.mark.parametrize("ticks", TWIN_TICKS)
    @pytest.mark.parametrize(
        "beta,seed,dynamics",
        [(0.3, 127, "iid"), (0.3, 17, "iid"), (-0.6, 3, "iid"), (0.3, 78, "telegraph"),
         (-0.5, 4, "telegraph")],
        ids=["iid-tie", "iid-seed-17", "iid", "telegraph-tie", "telegraph"],
    )
    def test_path_csv_and_sum_from_both_sources(self, monkeypatch, beta, seed, dynamics, ticks):
        # seeds 127 and 78 draw a tie in their first 1000 ticks, and seed 17
        # at ticks 49889 and 53270
        cfg = SimConfig(beta=beta, ticks=ticks, seed=seed, dynamics=dynamics)
        (numpy_run, no_twin), (twin_run, twins) = _both_sources(monkeypatch, lambda: _with_csv(cfg))
        assert (no_twin, twins) == (set(), {seed})
        assert twin_run == numpy_run

    @pytest.mark.parametrize("ticks", TWIN_TICKS)
    @pytest.mark.parametrize("seed", [172, 2])
    def test_observe_from_both_sources(self, monkeypatch, seed, ticks):
        # seed 172 draws a tie in its first 1000 ticks
        (numpy_run, no_twin), (twin_run, twins) = _both_sources(
            monkeypatch, lambda: observe_from_moving_frame(0.4, 0.5, ticks, seed)
        )
        assert (no_twin, twins) == (set(), {seed})
        assert twin_run == numpy_run

    @pytest.mark.parametrize("dynamics,seed", [("telegraph", 136), ("iid", 2026)])
    def test_ensemble_from_both_sources(self, monkeypatch, dynamics, seed):
        # seed 136's three telegraph replicates draw a tie
        cfg = SimConfig(beta=0.3, ticks=100, seed=seed, dynamics=dynamics)
        (numpy_run, no_twin), (twin_run, twins) = _both_sources(
            monkeypatch, lambda: run_ensemble(cfg, 3)
        )
        assert (no_twin, twins) == (set(), {derive_seed(seed, r) for r in range(3)})
        assert twin_run == numpy_run
