"""Seeded Monte Carlo generation of +/-c tick processes and drift estimation.

Every step of a path is exactly +1 or -1: the model contains no speed other
than c, and any finite velocity only exists as the long-run average of the
tick directions.  Two dynamics share the same stationary law
Pr(R) = (1 + beta)/2:

* ``iid``       - each tick is an independent Bernoulli draw,
* ``telegraph`` - a two-state Markov chain (discrete Kac telegraph process)
                  started from its stationary distribution, with per-tick
                  flip probabilities (a, b), b/(a + b) = (1 + beta)/2.

Only the stationary statistics are physically constrained; what causes a
reversal is deliberately left unmodeled, so the dynamics choice is a knob.
Telegraph ticks are correlated (lag-1 correlation 1 - a - b); their standard
errors are the exact ones for a correlated mean.

The sampler is unitless: a drift is a dimensionless mean of +/-1 ticks, and a
position in the path CSV is a running count of ticks.  One tick covers the
characteristic length of ``scales``, so meters are that count times
``ParticleScale.length_m``.

One private generator yields the directions as boolean blocks of ``_CHUNK``
ticks, true where a tick is right; drift estimates, ensembles, frame
observation and the CSV dump reduce the blocks as they arrive, so memory is
O(chunk), not O(ticks), and no path is ever held whole.  The CSV dump writes
each slice of ``_CSV_ROWS`` rows to a binary stream as ``_format.path_csv``.
``generate_path``, ``estimate_drift`` and ``write_path_csv`` are one-line
handles on ``simulate_drift``, kept as module attributes for the benchmark
harness in ``perfbench/``; the package does not export them.

``observe_from_moving_frame`` realizes frame composition stochastically:
particle and observer directions are drawn per tick and a tick is retained
iff they coincide.  Conditioning on agreement is exactly the normalized
product law of the frame composition, so the retained-tick drift converges
to (u + v)/(1 + u v) and the acceptance rate to (1 + u v)/2.

All randomness flows from a single 64-bit seed through PCG64; replicate
streams are derived with the published SplitMix64 mixer.  A large run draws
from numpy's PCG64.  A small one (``_small``), in a process that has not
imported numpy.random, draws the same words from ``_PCG64``, a pure-Python
twin of numpy's seeding and generator, and so never pays for that import;
tests pin the twin to numpy bit for bit, so either source gives one stream.
``STREAM_LAYOUT`` (recorded in run manifests) numbers the order of draws.
Since layout 4 every draw is one exact Bernoulli(q) draw: the next 16-bit
digit of the raw PCG64 stream, followed by a 64-bit word of a second stream
when it ties with q's leading digit, reads below q's 80-bit expansion (Knuth
& Yao).  Layout 3 drew iid ticks this way; layout 4 also draws the telegraph
start and per-tick flips so.  A seed thus reproduces a run under one layout
on any platform and numpy version that keeps PCG64's raw stream.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import IO, Iterator, Optional

import numpy as np

from . import DYNAMICS, MAX_TICKS
from .errors import InvalidConfig, NoAcceptedTicks
from .kinematics import _beta, _is_real, _reject_antipodal

__all__ = [
    "SimConfig",
    "DriftEstimate",
    "FrameObservation",
    "EnsembleResult",
    "derive_seed",
    "simulate_drift",
    "observe_from_moving_frame",
    "run_ensemble",
]

# Telegraph flip probabilities must reproduce Pr(R) = (1+beta)/2 this closely.
STATIONARY_TOL = 1e-12

_MAX_SEED = 2**64

# Default telegraph flip scale s: (a, b) = s * (1 - p, p) keeps the
# stationary law at p for any s in (0, 1]; s = 1 would degenerate to iid.
_DEFAULT_FLIP_SCALE = 0.5

# Ticks per sampled block: the samplers hold 5 (iid) to 14 (telegraph) bytes per
# block tick at once.  64k-tick blocks also measured faster than 4k or 1M ones.
_CHUNK = 1 << 16

# CSV rows per write, formatted as one uint8 matrix of at most 43 bytes a row;
# 16k-row slices measured slower per row than these 4k ones.
_CSV_ROWS = 1 << 12


def _validate_int(name: str, value: object, low: int = 1, high: float = math.inf) -> int:
    """``value`` as a Python int in [low, high), as ``operator.index`` reads
    it: numpy integers pass, bools, floats and float arrays raise InvalidConfig."""
    try:
        if not isinstance(value, bool) and low <= operator.index(value) < high:
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidConfig(f"{name} must be an integer in [{low}, {high}), got {value!r}")


def _validate_replicates(cfg: SimConfig, replicates: object) -> int:
    """``replicates`` as an int >= 1 whose pooled n, replicates * ticks, stays
    below ``MAX_TICKS`` like ``cfg.ticks``."""
    replicates = _validate_int("replicates", replicates)
    _validate_int("replicates * ticks", replicates * cfg.ticks, 1, MAX_TICKS)
    return replicates


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-replicate seed: output ``index`` of the SplitMix64
    stream seeded at ``seed`` (Steele, Lea & Flood's published mixer)."""
    seed = _validate_int("seed", seed, 0, _MAX_SEED)
    index = _validate_int("replicate index", index, 0)
    mask = _MAX_SEED - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SimConfig:
    """Validated configuration of one tick-process simulation.

    ``flip_asymmetry`` overrides the telegraph flip probabilities (from-right,
    from-left); it must keep the stationary right-probability at (1 + beta)/2.
    """

    beta: float
    ticks: int
    seed: int
    dynamics: str = "iid"
    flip_asymmetry: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _beta(self.beta))
        object.__setattr__(self, "ticks", _validate_int("ticks", self.ticks, 1, MAX_TICKS))
        object.__setattr__(self, "seed", _validate_int("seed", self.seed, 0, _MAX_SEED))
        if not isinstance(self.dynamics, str) or self.dynamics not in DYNAMICS:
            raise InvalidConfig(f"dynamics must be one of {DYNAMICS}, got {self.dynamics!r}")
        if self.flip_asymmetry is not None:
            if self.dynamics != "telegraph":
                raise InvalidConfig("flip_asymmetry applies to telegraph dynamics only")
            pair = np.asarray(self.flip_asymmetry, dtype=object)
            if pair.shape != (2,) or not all(map(_is_real, pair)):
                raise InvalidConfig(
                    f"flip_asymmetry must be a pair of real numbers, got {self.flip_asymmetry!r}"
                )
            a, b = map(float, pair)
            object.__setattr__(self, "flip_asymmetry", (a, b))
            self._check_stationary(a, b)

    def _check_stationary(self, a: float, b: float) -> None:
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise InvalidConfig(f"flip probabilities must lie in [0, 1], got ({a}, {b})")
        if a + b == 0.0:
            raise InvalidConfig("flip probabilities cannot both be zero")
        stationary_right = b / (a + b)
        if abs(stationary_right - self.p_right) > STATIONARY_TOL:
            raise InvalidConfig(
                f"flip probabilities ({a}, {b}) give stationary Pr(R) = "
                f"{stationary_right}, which misses (1+beta)/2 = {self.p_right} "
                f"by more than {STATIONARY_TOL}"
            )

    @property
    def p_right(self) -> float:
        """Per-tick probability of a +1 step under the stationary law."""
        return 0.5 * (1.0 + self.beta)

    @property
    def flip_probabilities(self) -> Optional[tuple[float, float]]:
        """Telegraph (from-right, from-left) flip probabilities in use; None for iid."""
        if self.dynamics == "iid":
            return None
        if self.flip_asymmetry is not None:
            return self.flip_asymmetry
        p = self.p_right
        return (_DEFAULT_FLIP_SCALE * (1.0 - p), _DEFAULT_FLIP_SCALE * p)


@dataclass(frozen=True)
class DriftEstimate:
    """Sample mean of tick directions with its standard error: binomial for
    iid ticks, the exact one for a mean of correlated telegraph ticks."""

    mean: float
    std_error: float
    n: int
    seed: int


@dataclass(frozen=True)
class FrameObservation:
    """Drift seen from a drifting frame plus the tick acceptance rate."""

    estimate: DriftEstimate
    acceptance_rate: float
    ticks_total: int


@dataclass(frozen=True)
class EnsembleResult:
    """Per-replicate drift estimates and their tick-weighted pooled estimate."""

    replicates: tuple[DriftEstimate, ...]
    pooled: DriftEstimate


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's LCG multiplier and the stride of its jumped(), as numpy's pcg64.h
# and _pcg64.pyx define them.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _seed_state(seed: int) -> tuple[int, int, int, int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` as ints:
    O'Neill's seed_seq hash-mix of the seed's 32-bit words, least significant
    first, into a pool of four, with the constants of numpy's bit_generator.pyx.
    A seed below 2**64 has at most two words, so the pool takes them all."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    mult, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        state.append(value ^ value >> 16)
    return tuple(state[i] | state[i + 1] << 32 for i in range(0, 8, 2))


class _PCG64:
    """numpy's ``PCG64(seed)`` in Python ints: its raw words, and ``jumped()``.

    PCG64 is a 128-bit LCG with the XSL-RR output (O'Neill, "PCG",
    HMC-CS-2014-0905), seeded from ``_seed_state`` as numpy's
    ``pcg64_set_seed`` does.  A run too short to pay for importing
    ``numpy.random`` draws from it (``_small``); tests hold its words to
    numpy's bit for bit.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int) -> None:
        s_high, s_low, i_high, i_low = _seed_state(seed)
        self.inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self.state = ((self.inc + (s_high << 64 | s_low)) * _PCG_MULT + self.inc) & _MASK128

    def random_raw(self, n: int) -> np.ndarray:
        """The next ``n`` 64-bit words, as numpy's ``random_raw(n)`` gives them."""
        state, inc, words = self.state, self.inc, []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _MASK128
            xored, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            words.append((xored >> rot | xored << (64 - rot)) & _MASK64)
        self.state = state
        return np.array(words, np.uint64)

    def jumped(self) -> _PCG64:
        """A copy advanced by ``_PCG_JUMP`` steps, by Brown's jump-ahead
        (Trans. ANS 71, 1994): ``_PCG_JUMP``'s bits select powers of the step."""
        mult, plus, acc_mult, acc_plus = _PCG_MULT, self.inc, 1, 0
        delta = _PCG_JUMP
        while delta:
            if delta & 1:
                acc_mult = acc_mult * mult & _MASK128
                acc_plus = (acc_plus * mult + plus) & _MASK128
            plus = (mult + 1) * plus & _MASK128
            mult = mult * mult & _MASK128
            delta >>= 1
        jumped = object.__new__(type(self))
        jumped.inc, jumped.state = self.inc, (acc_mult * self.state + acc_plus) & _MASK128
        return jumped


# A run reads ``_PCG64`` while its raw words, a seed's set-up counted as
# ``_SEED_WORDS`` of them, stay within ``_SMALL_WORDS``.  Measured in children on
# a 2-core Xeon: importing numpy.random costs ~10 ms, ``_PCG64`` ~0.45 us a word
# and ~14 us a seed, so a run at the bound spends ~2 ms on its words.
_SMALL_WORDS = 1 << 12
_SEED_WORDS = 32


def _small(draws: int, paths: int = 1) -> bool:
    """Whether a run of ``paths`` paths of ``draws`` Bernoulli draws each reads
    its words from ``_PCG64``: its words fit ``_SMALL_WORDS``, and numpy.random,
    whose generator is faster per word, is not loaded yet."""
    words = paths * (-(-draws // 4) + _SEED_WORDS)
    return words <= _SMALL_WORDS and "numpy.random" not in sys.modules


_NO_DIGITS = np.empty(0, np.uint16)


class _Streams:
    """The random streams of one seed.

    ``bits`` is PCG64 at ``seed``: numpy's, or with ``small`` its twin
    ``_PCG64``, which gives the same words.  ``digits`` reads its raw words as
    four 16-bit digits each, least significant first on any platform; digits
    a draw leaves over go to the next one.  ``tie_words`` reads the 64-bit
    words of a second stream that starts at ``PCG64(seed).jumped()``; it is
    created at the first tie, so its origin depends on the seed alone and a
    path without a tie never pays for it.
    """

    __slots__ = ("seed", "bits", "_carry", "_ties", "_source")

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self._source = _PCG64 if small else np.random.PCG64
        self.bits = self._source(seed)
        self._carry = _NO_DIGITS
        self._ties = None

    def digits(self, k: int) -> np.ndarray:
        """The next ``k`` 16-bit digits of ``bits``."""
        digits = self._carry
        if digits.size < k:
            drawn = self.bits.random_raw((k - digits.size + 3) // 4)
            drawn = drawn.astype("<u8", copy=False).view("<u2")
            if not digits.size and drawn.size == k:
                return drawn
            digits = np.concatenate((digits, drawn))
        self._carry = digits[k:]
        return digits[:k]

    def tie_words(self, n: int) -> np.ndarray:
        """The next ``n`` 64-bit words of the tie stream."""
        if self._ties is None:
            self._ties = self._source(self.seed).jumped()
        return self._ties.random_raw(n)


def _threshold(q: float) -> tuple[int, int]:
    """(head, tail) with head * 2**64 + tail = floor(q * 2**80): q's leading
    16-bit digit (65536 at q = 1) and the 64 bits below.  1 + beta rounds to
    a multiple of 2**-53, so p = (1 + beta)/2 and the default flips s * (1 - p),
    s * p are exact; a user's flip asymmetry is truncated, a bias below 2**-80."""
    return divmod(int(math.ldexp(q, 80)), 1 << 64)


def _bernoulli(streams: _Streams, k: int, q: float) -> np.ndarray:
    """The next ``k`` exact Bernoulli(q) draws of ``streams`` as booleans: draw
    i is true iff the i-th digit is below ``head``, or equals it and the next
    tie word is below ``tail`` (``_threshold(q)``); q = 0 never draws true."""
    head, tail = _threshold(q)
    digits = streams.digits(k)
    drawn = digits < head
    ties = digits == head
    n_ties = np.count_nonzero(ties)
    if n_ties:
        drawn[ties] = streams.tie_words(n_ties) < tail
    return drawn


def _direction_blocks(
    streams: _Streams, ticks: int, p_right: float, flips: Optional[tuple] = None,
    chunk: int = _CHUNK,
) -> Iterator[np.ndarray]:
    """Yield ``ticks`` directions as boolean blocks of at most ``chunk``:
    entry t is true iff tick t is right.

    iid tick i is right iff the i-th ``_bernoulli`` draw of p_right is true,
    whatever the block size.  A telegraph chain with ``flips`` = (a, b) starts
    right iff one draw of p_right is true.  Each block of k ticks then draws
    k Bernoulli(a) right flips, then k Bernoulli(b) left flips: entry t says
    whether a right or a left tick t would reverse, and the flips of the
    block's last tick give the next block's first.
    """
    if flips is not None:
        state = _bernoulli(streams, 1, p_right)
    for k in (min(chunk, ticks - start) for start in range(0, ticks, chunk)):
        if flips is None:
            yield _bernoulli(streams, k, p_right)
        else:
            flip_right = _bernoulli(streams, k, flips[0])
            flip_left = _bernoulli(streams, k, flips[1])
            # Tick t + 1 keeps or reverses tick t where neither or both flips are set;
            # where one is, it is right iff that is the left flip (its verdict).  The
            # direction xor the reversal parity changes only there, as verdict xor parity.
            toggle = flip_right & flip_left
            known = np.flatnonzero(flip_right ^ flip_left)
            verdict_xor_parity = flip_left[known] ^ np.logical_xor.accumulate(toggle)[known]
            toggle[known] = np.diff(verdict_xor_parity, prepend=state)
            right = np.concatenate((state, np.logical_xor.accumulate(toggle) ^ state))
            state = right[k:]
            yield right[:k]


def _draws(cfg: SimConfig) -> int:
    """Bernoulli draws of ``cfg``'s path: one a tick, or for a telegraph chain
    its start and two flips a tick."""
    return cfg.ticks if cfg.dynamics == "iid" else 1 + 2 * cfg.ticks


def _path_sum(
    cfg: SimConfig, seed: int, stream: Optional[IO[bytes]] = None, chunk: int = _CHUNK,
    small: bool = False,
) -> int:
    """Direction sum of ``cfg``'s path from ``seed``, drawn in ``chunk``-tick
    blocks from ``_Streams(seed, small)``; with the binary ``stream`` also its CSV."""
    blocks = _direction_blocks(
        _Streams(seed, small), cfg.ticks, cfg.p_right, cfg.flip_probabilities, chunk
    )
    total = tick = 0
    if stream is not None:
        from ._format import path_csv
        stream.write(b"tick,direction,position\n")
        blocks = (b[i : i + _CSV_ROWS] for b in blocks for i in range(0, b.size, _CSV_ROWS))
    for right in blocks:
        if stream is not None:
            stream.write(path_csv(tick, total, right))
        total += 2 * int(np.count_nonzero(right)) - right.size
        tick += right.size
    return total


def _variance_inflation(flips: Optional[tuple[float, float]], n: int) -> float:
    """Var(mean of n stationary ticks) over its iid value: 1 for iid ticks.
    Telegraph flips (a, b) give lag-k correlations rho^k, rho = 1 - d, d = a + b,
    which sum exactly to 1 + 2 rho h/(n d^2) with h = rho^n - 1 + n d.  h is
    evaluated from d, not rho, so that it keeps its digits as d -> 0."""
    if flips is None:
        return 1.0
    d = flips[0] + flips[1]
    if n * d >= 1.0:
        h = (math.expm1(n * math.log1p(-d)) if d < 1.0 else (1.0 - d) ** n - 1.0) + n * d
        h_ratio = h / (n * d * d)
    else:
        # h/(n d^2) = sum_{k=2..n} C(n, k) (-d)^(k-2) / n; terms shrink by n d/(k+1) < 1.
        term, h_ratio, k = 0.5 * (n - 1), 0.0, 2
        while h_ratio + term != h_ratio:
            h_ratio += term
            term *= -d * (n - k) / (k + 1)
            k += 1
    return 1.0 + 2.0 * (1.0 - d) * h_ratio


def _estimate_from_sum(total: int, n: int, seed: int, inflation: float) -> DriftEstimate:
    mean = total / n
    std_error = math.sqrt(max(0.0, (1.0 - mean * mean) * inflation) / n)
    return DriftEstimate(mean=mean, std_error=std_error, n=n, seed=seed)


def simulate_drift(cfg: SimConfig, stream: Optional[IO[bytes]] = None) -> DriftEstimate:
    """Sample mean of ``cfg``'s tick directions with its standard error, in
    bounded memory: the path is reduced block by block and, with the binary
    ``stream``, written in the same pass as CSV rows ``tick,direction,position``:
    direction +1/-1, position the exact running direction sum, ``<ticks>.0``."""
    inflation = _variance_inflation(cfg.flip_probabilities, cfg.ticks)
    total = _path_sum(cfg, cfg.seed, stream, small=_small(_draws(cfg)))
    return _estimate_from_sum(total, cfg.ticks, cfg.seed, inflation)


def observe_from_moving_frame(u: float, v: float, ticks: int, seed: int) -> FrameObservation:
    """Rejection-sampled drift of a particle as seen by a drifting observer.

    Per tick, the particle direction D (right with probability (1+v)/2) and
    the observer direction E (right with probability (1+u)/2) are drawn
    independently; the tick is retained iff D = E.  The mean of D over
    retained ticks estimates (u+v)/(1+uv) and the retained fraction
    estimates (1+uv)/2.

    Raises IndeterminateComposition for the antipodal light-speed pair and
    NoAcceptedTicks when no tick is retained.
    """
    uf, vf = _beta(u), _beta(v)
    # No tick of an antipodal light-speed pair is ever retained.
    _reject_antipodal(uf, vf)
    ticks = _validate_int("ticks", ticks, 1, MAX_TICKS)
    seed = _validate_int("seed", seed, 0, _MAX_SEED)

    # zip draws particle block j, then observer block j, from the same streams.
    streams = _Streams(seed, _small(2 * ticks))
    particle = _direction_blocks(streams, ticks, 0.5 * (1.0 + vf))
    observer = _direction_blocks(streams, ticks, 0.5 * (1.0 + uf))
    n_retained = total = 0
    for d, e in zip(particle, observer):
        retained = int(np.count_nonzero(d == e))
        n_retained += retained
        total += 2 * int(np.count_nonzero(d & e)) - retained
    if n_retained == 0:
        raise NoAcceptedTicks(
            f"0 of {ticks} ticks retained for u = {uf!r}, v = {vf!r}; "
            "increase ticks to estimate this composition"
        )
    return FrameObservation(
        estimate=_estimate_from_sum(total, n_retained, seed, 1.0),
        acceptance_rate=n_retained / ticks,
        ticks_total=ticks,
    )


def run_ensemble(cfg: SimConfig, replicates: int) -> EnsembleResult:
    """Run independent replicates with SplitMix64-derived seeds and pool them.

    Replicate r reuses ``cfg`` with seed ``derive_seed(cfg.seed, r)``.  The
    pooled mean is the tick-weighted average; for +/-1 ticks it reduces to
    integer (step sum, tick count) accumulation, whose merge is associative
    and commutative exactly, so the pooling order cannot matter.  Replicates
    are independent chains, so the pooled error keeps their inflation.
    """
    replicates = _validate_replicates(cfg, replicates)
    inflation = _variance_inflation(cfg.flip_probabilities, cfg.ticks)
    seeds = [derive_seed(cfg.seed, r) for r in range(replicates)]
    small = _small(_draws(cfg), replicates)
    sums = [_path_sum(cfg, seed, small=small) for seed in seeds]
    estimates = tuple(
        _estimate_from_sum(total, cfg.ticks, seed, inflation) for total, seed in zip(sums, seeds)
    )
    pooled = _estimate_from_sum(sum(sums), cfg.ticks * replicates, cfg.seed, inflation)
    return EnsembleResult(replicates=estimates, pooled=pooled)


# Handles on ``simulate_drift`` that the benchmark harness reaches by name.


@dataclass(frozen=True)
class _Path:
    """The config of a path that ``generate_path`` names but does not draw."""

    config: SimConfig

    def __len__(self) -> int:
        return self.config.ticks


def generate_path(cfg: SimConfig) -> _Path:
    """A handle on ``cfg``'s path; it draws nothing."""
    return _Path(cfg)


def estimate_drift(path: _Path) -> DriftEstimate:
    """``simulate_drift`` of the path's config."""
    return simulate_drift(path.config)


def write_path_csv(path: _Path, stream: IO[bytes]) -> None:
    """Write the path's CSV to the binary ``stream`` as ``simulate_drift`` does."""
    simulate_drift(path.config, stream)
