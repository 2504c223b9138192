"""Checks of fraclv's outputs against computations made apart from fraclv.

Every function here is pure: it takes plain data (numbers, arrays, text) and
returns a list of problems, empty when the output is correct.  Nothing here
imports fraclv; the model's right-hand side, equilibria, Jacobian, the
Caputo cone, the CF disk and the two scalar oracles are written out again so
that a fault in the program cannot also hide in its own check.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

#: Margin below which a point counts as on a region boundary and is not compared.
BOUNDARY_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# the model, written out


def lv_rhs(params, state):
    """x' = x(a1 - a2 x - y - z), y' = y(1 - a3 + a4 x), z' = z(1 - a5 + a6 x + a7 y)."""
    a1, a2, a3, a4, a5, a6, a7 = params
    x, y, z = state
    return np.array([
        x * (a1 - a2 * x - y - z),
        y * (1.0 - a3 + a4 * x),
        z * (1.0 - a5 + a6 * x + a7 * y),
    ])


def lv_jacobian(params, point):
    a1, a2, a3, a4, a5, a6, a7 = params
    x, y, z = point
    return np.array([
        [a1 - 2.0 * a2 * x - y - z, -x, -x],
        [a4 * y, 1.0 - a3 + a4 * x, 0.0],
        [a6 * z, a7 * z, 1.0 - a5 + a6 * x + a7 * y],
    ])


#: Which components are free (non-zero) at E0..E4.
_SUPPORT = {"E0": (), "E1": (0,), "E2": (0, 2), "E3": (0, 1), "E4": (0, 1, 2)}


def lv_equilibria(params):
    """E0..E4 as the solutions of the linear system on each support pattern.

    On its support every free component must zero the bracket of its own
    equation, and the brackets are linear in the state.
    """
    a1, a2, a3, a4, a5, a6, a7 = params
    rows = np.array([[a2, 1.0, 1.0], [-a4, 0.0, 0.0], [-a6, -a7, 0.0]])
    rhs = np.array([a1, 1.0 - a3, 1.0 - a5])
    out = {}
    for kind, free in _SUPPORT.items():
        point = np.zeros(3)
        if free:
            idx = list(free)
            point[idx] = np.linalg.solve(rows[np.ix_(idx, idx)], rhs[idx])
        out[kind] = point
    return out


def equilibrium_problems(params, target, tol=1e-12):
    """The target must zero the model's right-hand side."""
    residual = np.max(np.abs(lv_rhs(params, target)))
    scale = max(1.0, max(abs(v) for v in params)) ** 2 * max(1.0, np.max(np.abs(target))) ** 2
    if not residual <= tol * scale:
        return [f"target {tuple(target)} is not an equilibrium: |rhs| = {residual:.3e}"]
    return []


# ---------------------------------------------------------------------------
# scenarios: files written by `fraclv simulate`


def simulate_problems(exit_code, manifest_text, csv_text, *, step, num_steps, params,
                      target, tolerance, planar):
    """Exit code, manifest, CSV grid and terminal state of one simulate run."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        manifest = json.loads(manifest_text)
    except ValueError as exc:
        return problems + [f"manifest does not parse: {exc}"]
    if manifest.get("diverged") is not False:
        problems.append(f"manifest diverged = {manifest.get('diverged')!r}")

    lines = csv_text.splitlines()
    if not lines or lines[0] != "t,x,y,z":
        return problems + [f"CSV header {lines[:1]!r}, expected 't,x,y,z'"]
    if len(lines) - 1 != num_steps + 1:
        problems.append(f"CSV has {len(lines) - 1} rows, expected {num_steps + 1}")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return problems + [f"CSV field does not parse: {exc}"]
    if rows.ndim != 2 or rows.shape[1] != 4:
        return problems + [f"CSV rows have shape {rows.shape}, expected (n, 4)"]
    if not np.all(np.isfinite(rows)):
        problems.append("CSV holds a non-finite field")
    k = np.arange(rows.shape[0])
    if not np.allclose(rows[:, 0], k * step, rtol=1e-12, atol=1e-12 * step):
        bad = int(np.argmax(np.abs(rows[:, 0] - k * step)))
        problems.append(f"CSV row {bad}: t = {rows[bad, 0]!r}, expected {bad * step!r}")
    if planar and np.any(rows[:, 3] != 0.0):
        problems.append("planar run: z column is not exactly 0")

    problems += equilibrium_problems(params, target)
    err = np.max(np.abs(rows[-1, 1:] - np.asarray(target)))
    if not err <= tolerance:
        problems.append(f"terminal state {rows[-1, 1:]} is {err:.3e} from {tuple(target)} "
                        f"(tolerance {tolerance})")
    return problems


# ---------------------------------------------------------------------------
# long-horizon trajectories, and the two scalar oracles checked with scenarios


def trajectory_problems(times, states, *, step, num_steps, target, tolerance):
    problems = []
    if states.shape != (num_steps + 1, 3):
        problems.append(f"states have shape {states.shape}, expected ({num_steps + 1}, 3)")
    if not np.allclose(times, step * np.arange(len(times)), rtol=1e-12, atol=1e-12 * step):
        problems.append("times are not k*h")
    if not np.all(np.isfinite(states)):
        return problems + ["a state is not finite"]
    err = np.max(np.abs(states[-1] - np.asarray(target)))
    if not err <= tolerance:
        problems.append(f"terminal state {states[-1]} is {err:.3e} from {tuple(target)} "
                        f"(tolerance {tolerance})")
    return problems


def positivity_problems(states):
    """Every component of every state must stay > 0: each coordinate plane is
    invariant, so a solution that starts positive stays positive."""
    if np.all(states > 0.0):
        return []
    low = np.flatnonzero(np.min(states, axis=1) <= 0.0)
    return [f"{low.size} states are not positive, first at step {low[0]}: {states[low[0]]}"]


def mittag_leffler(alpha, z, digits=40):
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1), summed in mpmath."""
    import mpmath as mp

    with mp.workdps(digits):
        z = mp.mpf(z)
        total, k = mp.mpf(0), 0
        while True:
            term = z ** k / mp.gamma(alpha * k + 1)
            total += term
            k += 1
            if k > 5 and abs(term) < mp.mpf(10) ** (-digits + 5) * max(1, abs(total)):
                return float(total)


def cf_linear_exact(alpha, lam, x0, t):
    """Solution of the CF problem D^a x = lam x (normalization 1)."""
    return x0 * math.exp(alpha * lam * t / (1.0 - (1.0 - alpha) * lam))


def convergence_problems(label, errors, min_order, max_error):
    """Errors at successively halved steps must shrink at least at min_order."""
    problems = []
    if not all(math.isfinite(e) for e in errors):
        return [f"{label}: non-finite error {errors}"]
    if not errors[-1] <= max_error:
        problems.append(f"{label}: error {errors[-1]:.3e} at the finest step exceeds {max_error:.1e}")
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine) if fine > 0.0 else math.inf
        if not order >= min_order:
            problems.append(f"{label}: observed order {order:.3f} < {min_order} "
                            f"(errors {coarse:.3e} -> {fine:.3e})")
    return problems


# ---------------------------------------------------------------------------
# stability-map: regions, spectra, verdicts, reproduce-table2, probes


def region_reference(w, alpha):
    """Region class and distance to the nearer boundary, for an array of w.

    Caputo-stable: |arg w| > alpha pi / 2.  CF-stable: outside the closed
    disk |w - c| <= c, c = 1 / (2 (1 - alpha)).
    """
    w = np.asarray(w, dtype=complex)
    half = alpha * math.pi / 2.0
    angle = np.abs(np.angle(w))
    cone = angle > half
    c = 1.0 / (2.0 * (1.0 - alpha))
    disk_gap = np.abs(w - c) - c
    disk = disk_gap > 0.0
    # distance to the cone edges, and to the apex at 0 where both rays meet
    cone_gap = np.where(np.abs(angle - half) < math.pi / 2.0,
                        np.abs(w) * np.sin(np.abs(angle - half)), np.abs(w))
    classes = np.where(cone & disk, "A", np.where(cone, "B", np.where(disk, "D", "C")))
    return classes, cone, disk, np.minimum(cone_gap, np.abs(disk_gap))


def region_problems(points, alpha, classes):
    """Region classes away from the boundaries must match the reference."""
    want, _, _, margin = region_reference(points, alpha)
    got = np.asarray(classes)
    if got.shape != want.shape:
        return [f"alpha={alpha}: {got.shape} classes for {want.shape} points"]
    clear = margin > BOUNDARY_MARGIN * np.maximum(1.0, np.abs(points))
    wrong = np.flatnonzero(clear & (got != want))
    if wrong.size:
        i = wrong[0]
        return [f"alpha={alpha}: {wrong.size} region classes differ, first at w={points[i]}: "
                f"got {got[i]}, expected {want[i]}"]
    return []


def _pair(computed, reference):
    """Pair each reference eigenvalue with the nearest computed one not yet taken."""
    left = list(range(len(computed)))
    pairs = []
    for w in reference:
        j = min(left, key=lambda i: abs(computed[i] - w))
        left.remove(j)
        pairs.append(j)
    return pairs


def eigen_tolerance(matrix, eigs):
    """Error bound for eigenvalues of a 3x3 matrix: eps * ||J|| / separation."""
    norm = max(1.0, np.linalg.norm(matrix))
    out = []
    for i, w in enumerate(eigs):
        sep = min(abs(w - v) for j, v in enumerate(eigs) if j != i)
        out.append(1e4 * np.finfo(float).eps * norm * (1.0 + norm / max(sep, 1e-300)))
    return np.array(out)


def _verdict_problem(where, name, got, passes, clear):
    """A verdict is owed where the margins decide it: unstable if any eigenvalue
    clearly fails, stable if every eigenvalue clearly passes."""
    if np.any(~passes & clear):
        want = False
    elif np.all(passes & clear):
        want = True
    else:
        return []
    if got != want:
        return [f"{where}: {name} verdict {got}, the eigenvalues give {want}"]
    return []


def report_problems(params, alpha, reports):
    """Points, spectra, verdicts and regions of one equilibrium_report.

    ``reports`` is a list of (kind, point, eigenvalues, caputo_stable,
    cf_disk_stable, cf_theorem_stable, regions) in order E0..E4.
    """
    problems = []
    want_points = lv_equilibria(params)
    if [r[0] for r in reports] != list(want_points):
        return [f"params {params}: kinds {[r[0] for r in reports]}, expected E0..E4"]
    for kind, point, eigs, caputo, cf_disk, cf_theorem, regions in reports:
        where = f"params {params} alpha={alpha} {kind}"
        ref_point = want_points[kind]
        if not np.allclose(point, ref_point, rtol=1e-12, atol=1e-12):
            problems.append(f"{where}: point {point}, expected {ref_point}")
            continue
        jac = lv_jacobian(params, ref_point)
        ref = np.linalg.eigvals(jac)
        tol = eigen_tolerance(jac, ref)
        pairs = _pair(eigs, ref)
        if any(abs(eigs[j] - w) > t for j, w, t in zip(pairs, ref, tol)):
            problems.append(f"{where}: eigenvalues {eigs}, numpy gives {ref} (tolerance {tol})")
            continue
        want, cone, disk, margin = region_reference(ref, alpha)
        clear = margin > tol
        problems += _verdict_problem(where, "Caputo", caputo, cone, clear)
        problems += _verdict_problem(where, "CF disk", cf_disk, disk, clear)
        if cf_theorem and not cf_disk:
            problems.append(f"{where}: CF theorem verdict stable but disk verdict unstable")
        for j, cls, ok in zip(pairs, want, clear):
            if ok and regions[j] != cls:
                problems.append(f"{where}: region of {eigs[j]} is {regions[j]}, expected {cls}")
    return problems


def table2_problems(exit_code, stdout):
    problems = []
    if exit_code != 0:
        problems.append(f"reproduce-table2 exit code {exit_code}")
    want = ["stability cells: 30 total, 29 PASS, 1 KNOWN-DISCREPANCY, 0 FAIL",
            "value cells: 30 total, 30 PASS, 0 FAIL"]
    lines = stdout.splitlines()
    if lines[-2:] != want:
        problems.append(f"reproduce-table2 summary {lines[-2:]}, expected {want}")
    known = [line for line in lines if ": KNOWN-DISCREPANCY" in line]
    if len(known) != 1 or not known[0].startswith("example2 E4 cf:"):
        problems.append(f"reproduce-table2 known discrepancies {known}")
    return problems


def cubic_reference(a, b, c):
    """Roots of w^3 + a w^2 + b w + c in 400-digit arithmetic, any exponent range.

    The roots are found as w = s u with s = max(|a|, |b|^(1/2), |c|^(1/3)), so
    the cubic in u has coefficients of magnitude at most 1; its error bound is
    absolute, and 400 digits resolve roots down to 1e-300 of the largest.
    """
    import mpmath as mp

    with mp.workdps(400):
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        s = max(abs(a), mp.sqrt(abs(b)), mp.cbrt(abs(c)))
        roots = mp.polyroots([1, a / s, b / s ** 2, c / s ** 3], maxsteps=2000, extraprec=2000)
        return [complex(s * r) for r in roots]


def roots_problems(label, roots, reference, rtol=1e-9):
    """Each reference root must be matched within rtol of its own magnitude."""
    roots = [complex(w) for w in roots]
    if len(roots) != 3 or not all(cmath.isfinite(w) for w in roots):
        return [f"{label}: roots {roots}"]
    for j, w in zip(_pair(roots, reference), reference):
        if not abs(roots[j] - w) <= rtol * abs(w):
            return [f"{label}: root {roots[j]} where {w} is owed (roots {roots})"]
    return []
