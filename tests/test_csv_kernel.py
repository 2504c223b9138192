"""The text of trajectory.csv's rows, pinned to ``%`` byte for byte.

``fraclv._csv.trajectory_blocks`` must give exactly the bytes of the ``%``
line for every table, one chunk per block of ``_BLOCK_ROWS`` rows.  Each run
of rows whose values all lie in the numpy kernel's fast range (+-0.0, or
finite with 1e-11 < |x| < 2^51) must go through the kernel, and each run of
the other rows through ``%``.  Each table below is checked against the ``%``
line, and each check also asserts which path each row takes.
"""

import contextlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraclv._csv
from fraclv._csv import _BLOCK_ROWS, trajectory_blocks
from fraclv.cli import _trajectory_csv, _write_atomic
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


@contextlib.contextmanager
def paths():
    """Record each call of the kernel and of ``%`` as (path, copy of its rows)."""
    calls = []
    kernel, percent = fraclv._csv._kernel, fraclv._csv._percent

    def spy(function, path):
        def recorded(block, *rest):
            calls.append((path, block.copy()))
            return function(block, *rest)
        return recorded

    fraclv._csv._kernel, fraclv._csv._percent = spy(kernel, "kernel"), spy(percent, "%")
    try:
        yield calls
    finally:
        fraclv._csv._kernel, fraclv._csv._percent = kernel, percent


def write(table):
    """The chunks of ``table`` (times in column 0) and the calls that made them."""
    with paths() as calls:
        chunks = list(trajectory_blocks(table[:, 0], table[:, 1:]))
    return chunks, calls


def check(values, cols=4):
    """Write ``values`` as a table of ``cols`` columns; assert each block's bytes,
    and that the kernel got exactly the rows in range, in maximal runs.
    Returns the number of rows that went through ``%``."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.zeros(-len(values) % cols)))
    table = values.reshape(-1, cols)
    chunks, calls = write(table)
    starts = range(0, len(table), _BLOCK_ROWS)
    assert chunks == [reference(table[i : i + _BLOCK_ROWS]) for i in starts]
    assert np.concatenate([rows for _, rows in calls]).tobytes() == table.tobytes()
    fast = [all(in_range(x) for x in row) for row in table.tolist()]
    for path, rows in calls:
        in_kernel = [all(in_range(x) for x in row) for row in rows.tolist()]
        assert in_kernel == [path == "kernel"] * len(rows)
    # a block is split only where a row's path changes
    ends = np.cumsum([len(rows) for _, rows in calls]).tolist()
    for (path, _), end in zip(calls, ends[:-1]):
        assert end % _BLOCK_ROWS == 0 or fast[end] != (path == "kernel")
    return fast.count(False)


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
    # 1e-12 to 1e18: every block holds rows outside the range on either side
    rng = np.random.default_rng(seed)
    size = 4 * _BLOCK_ROWS
    values = 10.0 ** rng.uniform(-12.0, 18.0, 16 * size) * rng.choice([-1.0, 1.0], 16 * size)
    assert check(values) > 0
    # and blocks drawn inside the range only, which the kernel must take whole
    values = 10.0 ** rng.uniform(-10.99, 15.35, 16 * size) * rng.choice([-1.0, 1.0], 16 * size)
    assert check(values) == 0
    assert [path for path, _ in write(values.reshape(-1, 4))[1]] == ["kernel"] * 16


def test_powers_of_ten_and_their_neighbours():
    # floor(log10 x) is one off near a power of ten: 1e-7 prints as
    # 9.9999999999999995e-08, which a digit count taken after rounding gets wrong
    values = []
    for e in range(-11, 17):
        for x in (10.0 ** e, float(f"1e{e}")):
            values += neighbours(x, 2)
    values += [-x for x in values]
    assert check(values) > 0  # 1e16 and its neighbours go through %
    assert check([x for x in values if in_range(x)]) == 0
    chunks, calls = write(np.array([[1e-7, 0.0, 0.0, 0.0]]))
    assert chunks == [b"9.9999999999999995e-08,0.0000000000000000e+00,"
                      b"0.0000000000000000e+00,0.0000000000000000e+00\n"]
    assert [path for path, _ in calls] == ["kernel"]


def test_ties_round_half_to_even():
    # exact decimal halves of the 17th digit, with a carry into the 16th
    block = np.array([[1000000000000000.25, 1000000000000000.75, 1000000000000001.25, -0.0]])
    chunks, calls = write(block)
    assert chunks == [b"1.0000000000000002e+15,1.0000000000000008e+15,"
                      b"1.0000000000000012e+15,-0.0000000000000000e+00\n"]
    assert chunks == [reference(block)]
    assert [path for path, _ in calls] == ["kernel"]


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
    chunks, calls = write(block)
    assert [path for path, _ in calls] == ["kernel" if kernel else "%"]
    assert in_range(value) == kernel
    assert chunks == [reference(block)]


def test_row_wide_blocks_and_other_column_counts():
    # the times alone (no state column) up to seven columns, in range and
    # with an out-of-range value in the middle row, which goes through % alone
    rng = np.random.default_rng(5)
    for cols in (1, 3, 4, 7):
        values = rng.uniform(-100.0, 100.0, cols * 300)
        assert check(values, cols=cols) == 0
        values[150 * cols + cols // 2] = math.nan
        assert check(values, cols=cols) == 1
        assert [path for path, _ in write(values.reshape(-1, cols))[1]] == ["kernel", "%", "kernel"]


def test_trajectory_with_a_non_finite_row_goes_through_percent():
    # the CSV writer takes any Trajectory; a row holding NaN or inf goes through %
    states = np.random.default_rng(4).uniform(0.0, 2.0, (3 * _BLOCK_ROWS, 3))
    states[5, 1] = math.nan
    states[2 * _BLOCK_ROWS + 7] = (math.inf, -math.inf, 0.0)
    traj = Trajectory(0.01 * np.arange(len(states)), states)
    with paths() as calls:
        chunks = list(_trajectory_csv(traj))
    table = np.column_stack((traj.times, traj.states))
    assert chunks[0] == b"t,x,y,z\n"
    assert chunks[1:] == [reference(table[i : i + _BLOCK_ROWS])
                          for i in range(0, len(table), _BLOCK_ROWS)]
    assert b"nan" in chunks[1] and b"inf" in chunks[3] and b"n" not in chunks[2]
    assert [rows.tobytes() for path, rows in calls if path == "%"] == [
        table[5:6].tobytes(), table[2 * _BLOCK_ROWS + 7 : 2 * _BLOCK_ROWS + 8].tobytes()]


LAST = _BLOCK_ROWS - 1


@pytest.mark.parametrize("bad", [[0], [500], [LAST], [300, 301], [0, 300, 301, 500, LAST]],
                         ids=["first", "middle", "last", "adjacent", "all"])
def test_only_the_rows_out_of_range_go_through_percent(bad):
    # example1-cf's y falls to 2.6e-12 in one block; that block's other rows
    # still go through the kernel, in the runs between the rows out of range
    states = np.random.default_rng(6).uniform(0.1, 2.0, (2 * _BLOCK_ROWS, 3))
    for row, value in zip(bad, [2.6e-12, -1e300, math.nan, 5e-324, math.inf]):
        states[row, row % 3] = value
    traj = Trajectory(0.01 * np.arange(len(states)), states)
    table = np.column_stack((traj.times, traj.states))
    fast = np.array([all(in_range(x) for x in row) for row in table.tolist()])
    assert np.flatnonzero(~fast).tolist() == bad
    with paths() as calls:
        chunks = list(_trajectory_csv(traj))
    assert chunks[1:] == [reference(table[:_BLOCK_ROWS]), reference(table[_BLOCK_ROWS:])]
    runs = np.flatnonzero(np.diff(fast[:_BLOCK_ROWS].astype(int))).size + 1
    assert len(calls) == runs + 1  # the second block is one kernel call
    percent_rows = np.concatenate([rows for path, rows in calls if path == "%"])
    assert percent_rows.tobytes() == table[~fast].tobytes()
    kernel_rows = np.concatenate([rows for path, rows in calls if path == "kernel"])
    assert kernel_rows.tobytes() == table[fast].tobytes()


def test_writing_a_long_trajectory_copies_no_whole_table(tmp_path):
    # each block's columns are filled into one reused buffer: writing 200,001
    # rows (6.4 MB as a table) holds well under a megabyte at its peak
    rows = 200_001
    traj = Trajectory(0.01 * np.arange(rows), np.random.default_rng(8).uniform(0.1, 2.0, (rows, 3)))
    path = os.path.join(tmp_path, "trajectory.csv")
    _write_atomic(path, _trajectory_csv(Trajectory(traj.times[:2], traj.states[:2])))  # loads _csv
    tracemalloc.start()
    try:
        _write_atomic(path, _trajectory_csv(traj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
    with open(path, "rb") as fh:
        assert fh.read(8) == b"t,x,y,z\n"
    assert os.path.getsize(path) == 8 + rows * 4 * 23  # 17 digits, "e+00" and a separator
