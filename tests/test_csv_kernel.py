"""The numpy ``%.16e`` kernel of trajectory.csv, pinned to ``%`` byte for byte.

``fraclv._csv.format_block`` must give exactly the bytes of the ``%`` line
for every block it accepts, and must refuse (return None) exactly the
blocks with a value outside its fast range: +-0.0, or finite with
1e-11 < |x| < 2^51.  Each block below is checked against the ``%`` line,
and each check also asserts which path the block takes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraclv._csv
from fraclv._csv import format_block, rows_in_range
from fraclv.cli import _CSV_BLOCK_ROWS, _trajectory_csv
from fraclv.solvers import Trajectory

#: The range limits: the double nearest 1e-11 lies below 10^-11 and is refused.
LOW, HIGH = 1e-11, 2.0 ** 51


def reference(block):
    """The ``%`` line: ``%.16e`` of each value, comma-separated rows."""
    rows, cols = block.shape
    line = ",".join(["%.16e"] * cols) + "\n"
    return ((line * rows) % tuple(block.ravel().tolist())).encode("ascii")


def in_range(x):
    return x == 0.0 or LOW < abs(x) < HIGH


def check(values, cols=4):
    """Format ``values`` as whole blocks of ``cols`` columns; assert each block's
    path and, on the kernel path, its bytes.  Returns the number of kernel blocks."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.zeros(-len(values) % cols)))
    table = values.reshape(-1, cols)
    kernel = 0
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        text = format_block(block)
        if all(in_range(x) for x in block.ravel().tolist()):
            assert text == reference(block)
            kernel += 1
        else:
            assert text is None
    return kernel


def neighbours(x, ulps):
    """x and its float neighbours up to ``ulps`` steps away on each side."""
    out = [x]
    up = down = x
    for _ in range(ulps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


@settings(max_examples=500)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_any_finite_row_formats_as_the_percent_line(row):
    check(row)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_uniform_magnitudes_both_signs(seed):
    # 1e-12 to 1e18: every block holds a value outside the range on either side
    rng = np.random.default_rng(seed)
    size = 4 * _CSV_BLOCK_ROWS
    values = 10.0 ** rng.uniform(-12.0, 18.0, 16 * size) * rng.choice([-1.0, 1.0], 16 * size)
    check(values)
    # and blocks drawn inside the range only, which the kernel must take
    values = 10.0 ** rng.uniform(-10.99, 15.35, 16 * size) * rng.choice([-1.0, 1.0], 16 * size)
    assert check(values) == 16


def test_powers_of_ten_and_their_neighbours():
    # floor(log10 x) is one off near a power of ten: 1e-7 prints as
    # 9.9999999999999995e-08, which a digit count taken after rounding gets wrong
    values = []
    for e in range(-11, 17):
        for x in (10.0 ** e, float(f"1e{e}")):
            values += neighbours(x, 2)
    values += [-x for x in values]
    check(values)  # 1e16 and its neighbours send the block through %
    assert check([x for x in values if in_range(x)]) == 1
    assert format_block(np.array([[1e-7, 0.0, 0.0, 0.0]])) == (
        b"9.9999999999999995e-08,0.0000000000000000e+00,"
        b"0.0000000000000000e+00,0.0000000000000000e+00\n")


def test_ties_round_half_to_even():
    # exact decimal halves of the 17th digit, with a carry into the 16th
    block = np.array([[1000000000000000.25, 1000000000000000.75, 1000000000000001.25, -0.0]])
    assert format_block(block) == (b"1.0000000000000002e+15,1.0000000000000008e+15,"
                                   b"1.0000000000000012e+15,-0.0000000000000000e+00\n")
    assert format_block(block) == reference(block)


@pytest.mark.parametrize("value,kernel", [
    (0.0, True),
    (-0.0, True),
    (math.nextafter(LOW, math.inf), True),
    (LOW, False),  # just below 10^-11
    (math.nextafter(LOW, 0.0), False),
    (5e-324, False),  # subnormals
    (-2.2250738585072009e-308, False),
    (math.nextafter(HIGH, 0.0), True),
    (HIGH, False),
    (-HIGH, False),
    (1e16, False),
    (1e17, False),
    (math.inf, False),
    (-math.inf, False),
    (math.nan, False),
])
def test_range_boundaries(value, kernel):
    block = np.array([[1.5, value, -2.25, 0.1]])
    text = format_block(block)
    assert (text is not None) == kernel
    assert in_range(value) == kernel
    if kernel:
        assert text == reference(block)


def test_row_wide_blocks_and_other_column_counts():
    rng = np.random.default_rng(5)
    for cols in (1, 3, 4, 7):
        assert check(rng.uniform(-100.0, 100.0, cols * 300), cols=cols) == 1


def test_trajectory_with_a_non_finite_row_goes_through_percent():
    # the CSV writer takes any Trajectory; a block holding NaN or inf falls back
    states = np.random.default_rng(4).uniform(0.0, 2.0, (3 * _CSV_BLOCK_ROWS, 3))
    states[5, 1] = math.nan
    states[2 * _CSV_BLOCK_ROWS + 7] = (math.inf, -math.inf, 0.0)
    traj = Trajectory(0.01 * np.arange(len(states)), states)
    chunks = list(_trajectory_csv(traj))
    table = np.column_stack((traj.times, traj.states))
    assert chunks[0] == b"t,x,y,z\n"
    assert chunks[1:] == [reference(table[i : i + _CSV_BLOCK_ROWS])
                          for i in range(0, len(table), _CSV_BLOCK_ROWS)]
    assert b"nan" in chunks[1] and b"inf" in chunks[3] and b"n" not in chunks[2]
    assert [format_block(table[i : i + _CSV_BLOCK_ROWS]) is None
            for i in range(0, len(table), _CSV_BLOCK_ROWS)] == [True, False, True]


LAST = _CSV_BLOCK_ROWS - 1


@pytest.mark.parametrize("bad", [[0], [500], [LAST], [300, 301], [0, 300, 301, 500, LAST]],
                         ids=["first", "middle", "last", "adjacent", "all"])
def test_only_the_rows_out_of_range_go_through_percent(monkeypatch, bad):
    # example1-cf's y falls to 2.6e-12 in one block; that block's other rows
    # still go through the kernel, and only the whole block is refused
    states = np.random.default_rng(6).uniform(0.1, 2.0, (2 * _CSV_BLOCK_ROWS, 3))
    for row, value in zip(bad, [2.6e-12, -1e300, math.nan, 5e-324, math.inf]):
        states[row, row % 3] = value
    traj = Trajectory(0.01 * np.arange(len(states)), states)
    table = np.column_stack((traj.times, traj.states))
    fast = rows_in_range(table)
    assert np.flatnonzero(~fast).tolist() == bad
    assert fast.tolist() == [all(in_range(x) for x in row) for row in table.tolist()]
    calls = []  # per kernel call: did it refuse the rows, and which rows

    def spy(block):
        text = format_block(block)
        calls.append((text is None, block.copy()))
        return text

    monkeypatch.setattr(fraclv._csv, "format_block", spy)
    chunks = list(_trajectory_csv(traj))
    assert chunks[1:] == [reference(table[:_CSV_BLOCK_ROWS]), reference(table[_CSV_BLOCK_ROWS:])]
    assert [len(rows) for refused, rows in calls if refused] == [_CSV_BLOCK_ROWS]
    kernel_rows = np.concatenate([rows for refused, rows in calls if not refused])
    assert kernel_rows.tobytes() == table[fast].tobytes()
