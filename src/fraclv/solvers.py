"""Fixed-step predictor-corrector solvers for fractional initial-value problems.

Two operator families are covered:

* Caputo (power-law kernel): the standard fractional Adams-Bashforth-Moulton
  PECE scheme with corrector prefactor ``h^a / Gamma(a+2)``.
* Caputo-Fabrizio, "CF" (exponential kernel): a trapezoidal PECE scheme over
  the operator's resolvent integral.  Two variants are available, selected by
  ``SolverConfig.cf_mode``:

  - ``"paper"`` keeps only the integral term, so the limiting dynamics as
    ``h -> 0`` is the time-rescaled classical system ``x' = (a/M) g(x)``.
  - ``"corrected"`` restores the non-integral term of the CF integral,
    ``((1-a)/M) (g(t, x(t)) - g(0, x0))``, in both the predictor (with the
    lagged field value) and the corrector (with the predicted value).  This
    variant converges to the exact CF solution; see ``linear_cf_exact``.

At ``alpha = 1`` (and normalization 1) every variant collapses to the
classical trapezoidal PECE method.

Orders are plain floats.  ``check_order`` is the one range check for them,
shared by the integrators, ``linear_cf_exact``, the stability criteria and
the CLI config parser: alpha must lie in (0, 1], or in (0, 1) where a
criterion is undefined at alpha = 1.

Cost.  The CF kernel is exponential, so the operator is Markovian: its
order-1 weights are all ``h`` (predictor) and ``h/2, h, ..., h, h/2``
(corrector), and the history sum is a running sum.  A CF step costs O(1) and
a run O(N).  The Caputo kernel is singular, so every step sums the whole
history: a step costs O(k) and a run O(N^2).  The Caputo field history is
stored component-major, so each history sum is one contiguous matrix-vector
product against a weight table built once per run from ``predictor_weights``
and ``corrector_weights``.

Both integrators sum the history in a different order from a direct
full-history evaluation of the weight formulas (one dot product over all of
g_0..g_k per step), so results match that evaluation to rounding, not bit for
bit: on the bundled scenarios the two agree to 1e-12 (max abs), and the test
suite holds them to that tolerance.

Field contract.  A field is called as ``field(t, state)`` with ``t`` a float
and ``state`` a 1-d float64 ndarray of the initial state's length d; it
returns any length-d sequence of floats (a tuple, a list or an ndarray).  A
return of another length raises ValueError.  Each integrator calls the field
2N + 1 times for N steps.

Per-step arithmetic.  For d = 3 a step costs fixed interpreter overhead
more than arithmetic, so the predictor, the corrector, the corrected-mode
term, the CF running sum and the divergence guard run on Python floats.
numpy holds only the weight tables, the Caputo history with its two
matrix-vector products per step, and the ``states`` array.  Python and numpy
float ``+ - *`` are the same IEEE operations, so the trajectories are bit for
bit those of an all-numpy step, and Python float ``+ - *`` overflows to inf
(which the guard catches) rather than raising.  Self time per step on the
bundled scenarios, measured under the benchmark's tracer on 2 vCPUs with
Python 3.11: CF ~10 us (from ~20 us for an all-numpy step) and Caputo
~26 us at 5k-10k steps (from ~33 us), most of it the history products.
A field call takes ~1 us.

Runs are strictly sequential and deterministic; all returned objects are
immutable value containers.
"""

from __future__ import annotations

import cmath
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
    "corrector_weights",
    "predictor_weights",
    "integrate_caputo",
    "integrate_cf",
    "linear_cf_exact",
    "reference_rk4",
]

#: Abort threshold for any state component (divergence guard).
DIVERGENCE_LIMIT = 1e12

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
    horizon     final time t_end >= h
    normalization   kernel normalization M (default 1.0)
    cf_mode     "paper" or "corrected"; only the CF integrator reads it
    """

    step: float
    horizon: float
    normalization: float = 1.0
    cf_mode: str = "paper"

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.horizon >= self.step:
            raise ValueError(f"horizon must be >= step, got {self.horizon}")
        if not self.normalization > 0.0:
            raise ValueError(f"normalization must be positive, got {self.normalization}")
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
    operator: str  # "caputo", "cf" or "rk4"
    alpha: float

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


def _check_weight_args(step_index: int, order_exponent: float, step: float) -> None:
    if step_index < 0:
        raise ValueError(f"step index must be >= 0, got {step_index}")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not order_exponent > 0.0:
        raise ValueError(f"order exponent must be positive, got {order_exponent}")


def _corrector_first(k, n: float):
    """Unscaled corrector weight of the initial value at step index k (array or scalar)."""
    return k ** (n + 1.0) - (k - n) * (k + 1.0) ** n


def corrector_weights(step_index: int, order_exponent: float, step: float) -> np.ndarray:
    """Corrector weights b_{i,k+1}, i = 0..k+1, prefactor h^n / (n (n+1)).

    i = 0       : k^(n+1) - (k - n) (k+1)^n
    1 <= i <= k : (k-i+2)^(n+1) - 2 (k-i+1)^(n+1) + (k-i)^(n+1)
    i = k+1     : 1

    For n = 1 this is the composite trapezoidal rule: [h/2, h, ..., h, h/2].
    """
    _check_weight_args(step_index, order_exponent, step)
    k, n = step_index, float(order_exponent)
    w = np.empty(k + 2)
    w[0] = _corrector_first(k, n)
    m = np.arange(k - 1, -1, -1, dtype=float)  # m = k - i for i = 1..k
    w[1 : k + 1] = (m + 2.0) ** (n + 1.0) - 2.0 * (m + 1.0) ** (n + 1.0) + m ** (n + 1.0)
    w[k + 1] = 1.0
    return (step ** n / (n * (n + 1.0))) * w


def predictor_weights(step_index: int, order_exponent: float, step: float) -> np.ndarray:
    """Predictor weights d_{i,k+1} = (h^n / n) [(k-i+1)^n - (k-i)^n], i = 0..k.

    For n = 1 every weight equals h (composite rectangle rule).
    """
    _check_weight_args(step_index, order_exponent, step)
    k, n = step_index, float(order_exponent)
    m = np.arange(k, -1, -1, dtype=float)  # m = k - i
    return (step ** n / n) * ((m + 1.0) ** n - m ** n)


def _initial_state(initial: Sequence[float]) -> np.ndarray:
    x0 = np.asarray(initial, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("initial state must be a non-empty 1-d vector")
    return x0


def _start(field: VectorField, initial: Sequence[float]) -> tuple[list[float], list[float]]:
    """Initial state and field value as lists of floats, checked for shape."""
    x0 = _initial_state(initial)
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


def _guard(x, k, times, states, operator, alpha) -> None:
    """Divergence guard for the state ``x`` (floats) of step k+1.

    Each component must satisfy ``-L <= v <= L`` with L = DIVERGENCE_LIMIT;
    NaN fails both comparisons, so it trips the guard, and so does inf.
    """
    for v in x:
        if not -DIVERGENCE_LIMIT <= v <= DIVERGENCE_LIMIT:
            partial = Trajectory(times[: k + 1], states[: k + 1].copy(), operator, alpha)
            raise DivergenceError(k + 1, times[k + 1], partial)


def _grid(x0: list[float], config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    num = config.num_steps
    states = np.empty((num + 1, len(x0)))
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

        predictor  x0 + (a/M) h S_k
        corrector  x0 + (a/M) (h/2) (2 S_k - g_0 + g_p)

    In ``corrected`` mode the non-integral term ``((1-a)/M)(g - g0)`` is added
    to both, at the lagged and at the predicted field value.  Its explicit
    treatment requires ``(1-a) * L / M < 1`` for a local Lipschitz constant L,
    otherwise the run is aborted by the divergence guard.
    """
    alpha = check_order(order)
    x0, g0 = _start(field, initial)
    d = len(x0)
    times, states = _grid(x0, config)
    ch = alpha / config.normalization * config.step
    ch2 = ch / 2.0
    cf_coeff = (1.0 - alpha) / config.normalization if config.cf_mode == "corrected" else 0.0
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
            _guard(xc, k, times, states, "cf", alpha)
            xc = np.array(xc)
            states[k + 1] = xc
            g = _evaluate(field, t, xc, d)
            total = [s + b for s, b in zip(total, g)]
    return Trajectory(times, states, "cf", alpha)


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

    The field history g_0..g_N is held component-major, so the history sums
    of step k are contiguous matrix-vector products against the tails of the
    last step's weight tables: ``pred[last-k:]`` pairs with g_0..g_k and
    ``mid[last-k:]`` with g_1..g_k (last = N-1).
    """
    alpha = check_order(order)
    x0, g0 = _start(field, initial)
    d = len(x0)
    times, states = _grid(x0, config)
    num = len(times) - 1
    last = num - 1
    hist = np.empty((d, num + 1))
    hist[:, 0] = g0
    inv_gamma = 1.0 / math.gamma(alpha)
    pred = inv_gamma * predictor_weights(last, alpha, config.step)
    corr = inv_gamma * corrector_weights(last, alpha, config.step)
    mid = corr[1:-1]
    new = float(corr[-1])  # h^a / Gamma(a+2), weight of the predicted field value
    first = new * _corrector_first(np.arange(num, dtype=float), alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(num):
            t = times.item(k + 1)
            xp = [a + s for a, s in zip(x0, (hist[:, : k + 1] @ pred[last - k :]).tolist())]
            gp = _evaluate(field, t, np.array(xp), d)
            f = first.item(k)
            xc = [a + (s + f * c + new * p) for a, s, c, p
                  in zip(x0, (hist[:, 1 : k + 1] @ mid[last - k :]).tolist(), g0, gp)]
            _guard(xc, k, times, states, "caputo", alpha)
            xc = np.array(xc)
            states[k + 1] = xc
            hist[:, k + 1] = _evaluate(field, t, xc, d)
    return Trajectory(times, states, "caputo", alpha)


def linear_cf_exact(
    lam: complex,
    order: float,
    x0: complex,
    t: float,
) -> complex:
    """Exact solution of the scalar CF problem ``D^alpha x = lam x`` (M = 1).

    Returns ``x0 * exp(alpha * lam * t / (1 - (1-alpha) * lam))``.  Validation
    oracle for ``integrate_cf`` in corrected mode; the modulus is constant in
    time exactly on the circle ``|lam - c| = c`` with ``c = 1/(2(1-alpha))``.
    """
    alpha = check_order(order)
    denom = 1.0 - (1.0 - alpha) * lam
    if denom == 0:
        raise ValueError(f"singular parameter combination: (1 - alpha) * lam = 1 (lam={lam})")
    return x0 * cmath.exp(alpha * lam * t / denom)


def reference_rk4(
    field: VectorField,
    initial: Sequence[float],
    config: SolverConfig,
) -> Trajectory:
    """Classical fixed-step 4th-order integration; ground truth at alpha = 1."""
    x = _initial_state(initial).tolist()
    d = len(x)
    h = config.step
    h2, h6 = h / 2.0, h / 6.0
    times, states = _grid(x, config)
    with np.errstate(over="ignore", invalid="ignore"):  # for fields that return ndarrays
        for k in range(len(times) - 1):
            tk = times.item(k)
            k1 = _evaluate(field, tk, np.array(x), d)
            k2 = _evaluate(field, tk + h2, np.array([a + h2 * b for a, b in zip(x, k1)]), d)
            k3 = _evaluate(field, tk + h2, np.array([a + h2 * b for a, b in zip(x, k2)]), d)
            k4 = _evaluate(field, tk + h, np.array([a + h * b for a, b in zip(x, k3)]), d)
            x = [a + h6 * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
            _guard(x, k, times, states, "rk4", 1.0)
            states[k + 1] = x
    return Trajectory(times, states, "rk4", 1.0)
