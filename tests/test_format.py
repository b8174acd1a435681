"""The numpy CSV formatter writes each float64 as Python's repr, byte for byte."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from zittersim import _format
from zittersim._format import repr_csv


def _reprs(x: np.ndarray) -> list[str]:
    """The formatter's text of each value of ``x``, one per line."""
    lines = repr_csv(x[:, None]).decode("ascii").split("\n")
    assert lines.pop() == ""
    return lines


def _with_neighbours(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


SPECIAL = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max,
    # the edges of repr's two notations
    1e-4, 1e-5, 9.999999999999999e-05, 9999999999999998.0, 1e16, 1e16 + 2, 1.0, 0.1,
]

# any mantissa under an exponent field of 0; the test adds their negatives
_SUBNORMALS = np.random.default_rng(20201011).integers(1, 2**52, 200_000, np.uint64).view(np.float64)


def test_random_bit_patterns_are_repr():
    # any sign, exponent and mantissa, so every class and both notations
    x = np.random.default_rng(20201010).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert _reprs(x) == [repr(v) for v in x.tolist()]


@pytest.mark.parametrize(
    "x",
    [
        pytest.param(np.array(SPECIAL), id="special"),
        pytest.param(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))), id="powers-of-2"),
        pytest.param(_with_neighbours(np.array([float(f"1e{e}") for e in range(-323, 309)])), id="powers-of-10"),
        pytest.param(np.arange(2**53 - 2_000, 2**53 + 2_000, dtype=np.float64), id="integers-near-2**53"),
        pytest.param(_SUBNORMALS, id="random-subnormals"),
    ],
)
def test_values_and_their_negatives_are_repr(x):
    for signed in (x, -x):
        assert _reprs(signed) == [repr(v) for v in signed.tolist()]


def test_rows_are_comma_separated_lines():
    table = np.array([[-1.0, 0.5, float("nan")], [1e-300, 0.0, 7e22]])
    want = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert repr_csv(table) == want.encode("ascii")


def test_no_value_takes_repr(monkeypatch):
    # zeros, infinities, nans and subnormals take the numpy route like the rest
    def fail(value):
        raise AssertionError(f"repr({value!r}) called")

    monkeypatch.setattr(_format, "repr", fail, raising=False)
    nan = float("nan")
    table = np.array([[0.0, -0.0, float("inf"), -float("inf")], [nan, -nan, 5e-324, -5e-324],
                      [1.5, -2.25e-5, 1e300, 0.1]])
    want = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert repr_csv(table) == want.encode("ascii")
