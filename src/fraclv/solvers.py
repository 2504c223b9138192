"""Fixed-step predictor-corrector solvers for fractional initial-value problems.

Two operator families are covered:

* Caputo (power-law kernel): the standard fractional Adams-Bashforth-Moulton
  PECE scheme with corrector prefactor ``h^a / Gamma(a+2)``.
* Caputo-Fabrizio, "CF" (exponential kernel): a trapezoidal PECE scheme over
  the operator's resolvent integral.  Two variants are available, selected by
  ``SolverConfig.cf_mode``:

  - ``"paper"`` keeps only the integral term, so the limiting dynamics as
    ``h -> 0`` is the time-rescaled classical system ``x' = a g(x)``.
  - ``"corrected"`` restores the non-integral term of the CF integral,
    ``(1-a) (g(t, x(t)) - g(0, x0))``, in both the predictor (with the
    lagged field value) and the corrector (with the predicted value).  This
    variant converges to the exact CF solution.

The CF operator is taken with M(a) = 1 in its prefactor M(a)/(1-a), as in
the stability criteria of ``fraclv.stability``.  At ``alpha = 1`` every
variant collapses to the classical trapezoidal PECE method.

Orders are plain floats.  ``check_order`` is the one range check for them,
shared by the integrators, the stability criteria and the CLI config
parser: alpha must lie in (0, 1], or in (0, 1) where a criterion is
undefined at alpha = 1.

Cost.  The CF kernel is exponential, so the operator is Markovian: its
order-1 weights are all ``h`` (predictor) and ``h/2, h, ..., h, h/2``
(corrector), and the history sum is a running sum.  A CF step costs O(1) and
a run O(N).  The Caputo kernel is singular, so every step sums the whole
field history g_0..g_k, once with the predictor and once with the corrector
weights.  ``integrate_caputo`` splits the history into blocks of
``HISTORY_BLOCK`` = B steps.  For step k in the block that starts at K, both
sums over the near history g_K..g_k are one matrix product against the
(N, 2) weight table that ``_caputo_tables`` builds once per run, at O(B) per
step.  Both sums over the far history g_0..g_{K-1} are convolutions, taken
for all B steps of the block at once by FFT of size K + B at the block start
(``_far_sums``).  A run of N steps costs O(N B) for the near sums and
O((N^2 / B) log N) for the far ones, and a run of at most B steps takes no
FFT.  In a sweep of B from 128 to 4096 on 2 vCPUs, 1024 was the fastest or
within the host's noise of it from 5k to 50k steps.

Both integrators sum the history in a different order from a direct
full-history evaluation of the weight formulas (one dot product over all of
g_0..g_k per step), and the Caputo far sums carry the FFT's rounding, so
results match that evaluation to rounding, not bit for bit: on the bundled
scenarios the two agree to 1e-12 (max abs), and the test suite holds them to
that tolerance.

Field contract.  A field is called as ``field(t, state)`` with ``t`` a float
and ``state`` a 1-d float64 ndarray of the initial state's length d; it
returns any length-d sequence of floats (a tuple, a list or an ndarray).  A
return of another length raises ValueError, and so does an initial state
with a component outside the divergence guard's range.  Each integrator
calls the field 2N + 1 times for N steps.

Per-step arithmetic.  For d = 3 a step costs fixed interpreter overhead
more than arithmetic, so the predictor, the corrector, the corrected-mode
term, the CF running sum and the divergence guard run on Python floats.
numpy holds only the weight tables, the Caputo history with its one matrix
product per step and its FFTs per block, and the ``states`` array.  Python
and numpy float ``+ - *`` are the same IEEE operations, so the trajectories
are bit for bit those of an all-numpy step, and Python float ``+ - *``
overflows to inf (which the guard catches) rather than raising.  Self time
per step on the bundled scenarios, measured under the benchmark's tracer on
2 vCPUs with Python 3.11: CF ~8 us and Caputo ~15 us at 5k-10k steps.
A field call takes ~1 us.

Runs are strictly sequential and deterministic; all returned objects are
immutable value containers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DIVERGENCE_LIMIT",
    "DivergenceError",
    "SolverConfig",
    "Trajectory",
    "check_order",
    "integrate_caputo",
    "integrate_cf",
]

#: Abort threshold for any state component (divergence guard).
DIVERGENCE_LIMIT = 1e12

#: Steps per block of the Caputo history: within a block the history since
#: its start is summed directly, and the history before it once by FFT at
#: the block start.
HISTORY_BLOCK = 1024

VectorField = Callable[[float, np.ndarray], Sequence[float]]


def check_order(alpha: float, allow_one: bool = True) -> float:
    """``alpha`` as a float if it lies in (0, 1], or in (0, 1) when
    ``allow_one`` is false; otherwise ValueError.  NaN is rejected."""
    alpha = float(alpha)
    if 0.0 < alpha < 1.0 or (allow_one and alpha == 1.0):
        return alpha
    interval = "(0, 1]" if allow_one else "(0, 1) for the CF criteria"
    raise ValueError(f"order alpha must be in {interval}, got {alpha}")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-grid run settings.

    step        grid spacing h > 0
    horizon     final time t_end >= h, with a finite step count t_end / h
    cf_mode     "paper" or "corrected"; only the CF integrator reads it
    """

    step: float
    horizon: float
    cf_mode: str = "paper"

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.horizon >= self.step:
            raise ValueError(f"horizon must be >= step, got {self.horizon}")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError(
                f"horizon / step must be finite, got horizon {self.horizon} and step {self.step}"
            )
        if self.cf_mode not in ("paper", "corrected"):
            raise ValueError(f"cf_mode must be 'paper' or 'corrected', got {self.cf_mode!r}")

    @property
    def num_steps(self) -> int:
        # small slack so horizons like 50.0 with h=0.01 do not lose a step
        return int(math.floor(self.horizon / self.step + 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution on the fixed grid t_k = k*h.

    ``states[0]`` is the supplied initial condition, bit for bit.
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


class DivergenceError(RuntimeError):
    """State left the admissible range; carries the surviving prefix.

    ``step_index`` is the first step whose state was non-finite or exceeded
    ``DIVERGENCE_LIMIT``; ``partial`` holds the valid trajectory up to and
    excluding that step.
    """

    def __init__(self, step_index: int, time: float, partial: Trajectory):
        super().__init__(
            f"trajectory diverged at step {step_index} (t = {time:.6g}); "
            f"component left +/-{DIVERGENCE_LIMIT:g}"
        )
        self.step_index = step_index
        self.partial = partial


def _caputo_tables(num: int, alpha: float, step: float):
    """The Caputo ABM weights of an N-step run (N = ``num``), with 1/Gamma(a) folded in.

    With the prefactors P = h^a / (a Gamma(a)) and C = h^a / Gamma(a+2), the
    weights of step k (k = 0..N-1, history index i = 0..k) depend on i only
    through the lag m = k - i:

        predictor       P [(m+1)^a - m^a]                                i = 0..k
        corrector i>=1  C [(m+2)^(a+1) - 2 (m+1)^(a+1) + m^(a+1)]        i = 1..k
        corrector i=0   C [k^(a+1) - (k-a) (k+1)^a]  (``first[k]``)
        predicted value C                             (``new``)

    Returns ``(lagged, c0, new)``.  ``lagged`` is an (N, 2) table whose row
    N-1-m holds the predictor and the corrector weight of lag m, so
    ``lagged[N-1-k:]`` pairs with g_0..g_k and one matrix product gives both
    history sums of step k.  That product weighs g_0 with the lag-k corrector
    formula, so ``c0[k] = first[k] - lagged[N-1-k, 1]`` is the rest of the
    weight of g_0.  At a = 1 the weights are h, h, h/2 and h/2 (trapezoid
    PECE), and c0 is -h/2.
    """
    try:
        inv_gamma = 1.0 / math.gamma(alpha)
    except OverflowError:  # Gamma(a) ~ 1/a is past the float range for a below ~5.6e-309
        raise ValueError(f"order alpha = {alpha} is too small: Gamma(alpha) overflows") from None
    m = np.arange(num - 1, -1, -1, dtype=float)  # m = N-1-row
    lagged = np.empty((num, 2))
    lagged[:, 0] = inv_gamma * ((step ** alpha / alpha) * ((m + 1.0) ** alpha - m ** alpha))
    scale = step ** alpha / (alpha * (alpha + 1.0))
    lagged[:, 1] = inv_gamma * (scale * ((m + 2.0) ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0)
                                         + m ** (alpha + 1.0)))
    new = inv_gamma * scale
    # k gets its own contiguous array: the bracket below cancels about 2 log10(k)
    # digits, and ``**`` on a reversed view of m can differ from it by an ulp
    k = np.arange(num, dtype=float)
    first = new * (k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha)
    return lagged, first - lagged[::-1, 1], new


def _far_sums(hist: np.ndarray, lagged: np.ndarray, start: int) -> np.ndarray:
    """Both history sums over g_0..g_{K-1} (K = ``start``) for steps K..K+B-1.

    Returns a (B, d, 2) array, B = HISTORY_BLOCK: entry [j, c] holds the
    predictor and corrector sums of component c at step K+j.  Each is a
    linear convolution of g_0..g_{K-1} with the weights of lags 1..K+B-1,
    taken by FFT of size K+B, at which no needed term wraps around.  One
    component at a time keeps the buffers small.
    """
    size = start + HISTORY_BLOCK
    weights = [np.fft.rfft(w, size) for w in lagged[::-1][:size].T]  # ascending lag, zero-padded
    far = np.empty((HISTORY_BLOCK, len(hist), 2))
    for c, row in enumerate(hist[:, :start]):
        spectrum = np.fft.rfft(row, size)
        for j, w in enumerate(weights):
            far[:, c, j] = np.fft.irfft(spectrum * w, size)[start:]
    return far


def _start(field: VectorField, initial: Sequence[float]) -> tuple[list[float], list[float]]:
    """Initial state and field value as lists of floats, checked for shape.

    Each initial component must pass the divergence guard's own comparison
    ``-L <= v <= L``, so a state of exactly +-L is accepted.
    """
    x0 = np.asarray(initial, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("initial state must be a non-empty 1-d vector")
    for i, v in enumerate(x0.tolist()):
        if not -DIVERGENCE_LIMIT <= v <= DIVERGENCE_LIMIT:
            raise ValueError(
                f"initial state component {i} is {v}; it must lie within +/-{DIVERGENCE_LIMIT:g}"
            )
    g0 = np.asarray(field(0.0, x0), dtype=float)
    if g0.shape != x0.shape:
        raise ValueError(
            f"field dimension {g0.shape} does not match initial state {x0.shape}"
        )
    return x0.tolist(), g0.tolist()


def _evaluate(field: VectorField, t: float, x: np.ndarray, d: int) -> Sequence[float]:
    """The field at (t, x); the length of its value is checked."""
    g = field(t, x)
    if len(g) != d:
        raise ValueError(f"field returned {len(g)} components at t = {t:g}, expected {d}")
    return g


def _guard(x, k, times, states) -> None:
    """Divergence guard for the state ``x`` (floats) of step k+1.

    Each component must satisfy ``-L <= v <= L`` with L = DIVERGENCE_LIMIT;
    NaN fails both comparisons, so it trips the guard, and so does inf.
    """
    for v in x:
        if not -DIVERGENCE_LIMIT <= v <= DIVERGENCE_LIMIT:
            partial = Trajectory(times[: k + 1], states[: k + 1].copy())
            raise DivergenceError(k + 1, times[k + 1], partial)


def _grid(x0: list[float], config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    num = config.num_steps
    try:
        states = np.empty((num + 1, len(x0)))
    except (ValueError, MemoryError) as exc:  # numpy's message names neither field
        raise ValueError(
            f"step count {num:.6g} (horizon {config.horizon} / step {config.step}) "
            f"is too large to allocate: {exc}"
        ) from None
    states[0] = x0
    return config.step * np.arange(num + 1), states


def integrate_cf(
    field: VectorField,
    initial: Sequence[float],
    order: float,
    config: SolverConfig,
) -> Trajectory:
    """Integrate ``D^alpha x = g(t, x)`` under the exponential-kernel operator.

    Order-1 PECE on the CF integral with the running field sum
    S_k = g_0 + ... + g_k, so one step costs O(1):

        predictor  x0 + a h S_k
        corrector  x0 + a (h/2) (2 S_k - g_0 + g_p)

    In ``corrected`` mode the non-integral term ``(1-a)(g - g0)`` is added
    to both, at the lagged and at the predicted field value.  Its explicit
    treatment requires ``(1-a) * L < 1`` for a local Lipschitz constant L,
    otherwise the run is aborted by the divergence guard.
    """
    alpha = check_order(order)
    x0, g0 = _start(field, initial)
    d = len(x0)
    times, states = _grid(x0, config)
    ch = alpha * config.step
    ch2 = ch / 2.0
    cf_coeff = 1.0 - alpha if config.cf_mode == "corrected" else 0.0
    total = g0
    g = g0
    with np.errstate(over="ignore", invalid="ignore"):  # for fields that return ndarrays
        for k in range(len(times) - 1):
            t = times.item(k + 1)
            if cf_coeff:
                xp = [a + ch * s + cf_coeff * (b - c) for a, s, b, c in zip(x0, total, g, g0)]
            else:
                xp = [a + ch * s for a, s in zip(x0, total)]
            gp = _evaluate(field, t, np.array(xp), d)
            if cf_coeff:
                xc = [a + ch2 * (2.0 * s - c + p) + cf_coeff * (p - c)
                      for a, s, c, p in zip(x0, total, g0, gp)]
            else:
                xc = [a + ch2 * (2.0 * s - c + p) for a, s, c, p in zip(x0, total, g0, gp)]
            _guard(xc, k, times, states)
            xc = np.array(xc)
            states[k + 1] = xc
            g = _evaluate(field, t, xc, d)
            total = [s + b for s, b in zip(total, g)]
    return Trajectory(times, states)


def integrate_caputo(
    field: VectorField,
    initial: Sequence[float],
    order: float,
    config: SolverConfig,
) -> Trajectory:
    """Integrate ``D^alpha x = g(t, x)`` under the power-kernel operator.

    Standard fractional Adams-Bashforth-Moulton: the weight exponent is the
    real order alpha and the corrector prefactor is ``h^a / Gamma(a+2)``
    (equivalently ``1/Gamma(a)`` applied to the shared weight form).

    The field history g_0..g_N is held component-major and read in blocks of
    B = ``HISTORY_BLOCK`` steps.  In the block that starts at K, step k gets
    both history sums over g_K..g_k from one matrix product with the tail
    ``lagged[last-k+K:]`` of the table of ``_caputo_tables`` (last = N-1),
    adds the sums over g_0..g_{K-1} that ``_far_sums`` computed by FFT at the
    block start, and adds ``c0[k] g_0`` for the rest of the weight of g_0.
    """
    alpha = check_order(order)
    x0, g0 = _start(field, initial)
    d = len(x0)
    times, states = _grid(x0, config)
    num = len(times) - 1
    last = num - 1
    hist = np.empty((d, num + 1))
    hist[:, 0] = g0
    lagged, c0, new = _caputo_tables(num, alpha, config.step)
    far = np.zeros((min(HISTORY_BLOCK, num), d, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, num, HISTORY_BLOCK):
            if start:
                far = _far_sums(hist, lagged, start)
            for k in range(start, min(start + HISTORY_BLOCK, num)):
                t = times.item(k + 1)
                sums = (hist[:, start : k + 1] @ lagged[last - k + start :] + far[k - start]).tolist()
                xp = [a + s[0] for a, s in zip(x0, sums)]
                gp = _evaluate(field, t, np.array(xp), d)
                f = c0.item(k)
                xc = [a + (s[1] + f * c + new * p) for a, s, c, p in zip(x0, sums, g0, gp)]
                _guard(xc, k, times, states)
                xc = np.array(xc)
                states[k + 1] = xc
                hist[:, k + 1] = _evaluate(field, t, xc, d)
    return Trajectory(times, states)
