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

Runs are strictly sequential and deterministic; all returned objects are
immutable value containers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "DIVERGENCE_LIMIT",
    "DivergenceError",
    "FractionalOrder",
    "SolverConfig",
    "Trajectory",
    "corrector_weights",
    "predictor_weights",
    "integrate_caputo",
    "integrate_cf",
    "linear_cf_exact",
    "reference_rk4",
]

#: Abort threshold for any state component (divergence guard).
DIVERGENCE_LIMIT = 1e12

VectorField = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FractionalOrder:
    """Differentiation order, restricted to the working range (0, 1]."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"fractional order must be in (0, 1], got {self.alpha}")


def _order_value(order: Union[float, FractionalOrder]) -> float:
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"fractional order must be in (0, 1], got {alpha}")
    return alpha


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


def _start(field: VectorField, initial: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Initial state and field value, checked for shape."""
    x0 = np.asarray(initial, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("initial state must be a non-empty 1-d vector")
    g0 = np.asarray(field(0.0, x0), dtype=float)
    if g0.shape != x0.shape:
        raise ValueError(
            f"field dimension {g0.shape} does not match initial state {x0.shape}"
        )
    return x0, g0


def _guard(x, k, times, states, operator, alpha) -> None:
    """Divergence guard for the state ``x`` of step k+1; NaN and inf trip it too."""
    if not np.abs(x).max() <= DIVERGENCE_LIMIT:
        partial = Trajectory(times[: k + 1], states[: k + 1].copy(), operator, alpha)
        raise DivergenceError(k + 1, times[k + 1], partial)


def _grid(x0: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    num = config.num_steps
    states = np.empty((num + 1, x0.size))
    states[0] = x0
    return config.step * np.arange(num + 1), states


def integrate_cf(
    field: VectorField,
    initial: Sequence[float],
    order: Union[float, FractionalOrder],
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
    alpha = _order_value(order)
    x0, g0 = _start(field, initial)
    times, states = _grid(x0, config)
    ch = alpha / config.normalization * config.step
    ch2 = ch / 2.0
    cf_coeff = (1.0 - alpha) / config.normalization if config.cf_mode == "corrected" else 0.0
    total = g0.copy()
    g = g0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            t = times[k + 1]
            xp = x0 + ch * total
            if cf_coeff:
                xp = xp + cf_coeff * (g - g0)
            gp = np.asarray(field(t, xp), dtype=float)
            xc = x0 + ch2 * (2.0 * total - g0 + gp)
            if cf_coeff:
                xc = xc + cf_coeff * (gp - g0)
            _guard(xc, k, times, states, "cf", alpha)
            states[k + 1] = xc
            g = np.asarray(field(t, xc), dtype=float)
            total += g
    return Trajectory(times, states, "cf", alpha)


def integrate_caputo(
    field: VectorField,
    initial: Sequence[float],
    order: Union[float, FractionalOrder],
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
    alpha = _order_value(order)
    x0, g0 = _start(field, initial)
    times, states = _grid(x0, config)
    num = len(times) - 1
    last = num - 1
    hist = np.empty((x0.size, num + 1))
    hist[:, 0] = g0
    inv_gamma = 1.0 / math.gamma(alpha)
    pred = inv_gamma * predictor_weights(last, alpha, config.step)
    corr = inv_gamma * corrector_weights(last, alpha, config.step)
    mid = corr[1:-1]
    new = corr[-1]  # h^a / Gamma(a+2), weight of the predicted field value
    first = new * _corrector_first(np.arange(num, dtype=float), alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(num):
            t = times[k + 1]
            xp = x0 + hist[:, : k + 1] @ pred[last - k :]
            gp = np.asarray(field(t, xp), dtype=float)
            xc = x0 + (hist[:, 1 : k + 1] @ mid[last - k :] + first[k] * g0 + new * gp)
            _guard(xc, k, times, states, "caputo", alpha)
            states[k + 1] = xc
            hist[:, k + 1] = field(t, xc)
    return Trajectory(times, states, "caputo", alpha)


def linear_cf_exact(
    lam: complex,
    order: Union[float, FractionalOrder],
    x0: complex,
    t: float,
) -> complex:
    """Exact solution of the scalar CF problem ``D^alpha x = lam x`` (M = 1).

    Returns ``x0 * exp(alpha * lam * t / (1 - (1-alpha) * lam))``.  Validation
    oracle for ``integrate_cf`` in corrected mode; the modulus is constant in
    time exactly on the circle ``|lam - c| = c`` with ``c = 1/(2(1-alpha))``.
    """
    alpha = _order_value(order)
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
    x0 = np.asarray(initial, dtype=float)
    h = config.step
    times, states = _grid(x0, config)
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            tk = times[k]
            k1 = np.asarray(field(tk, x), dtype=float)
            k2 = np.asarray(field(tk + h / 2.0, x + (h / 2.0) * k1), dtype=float)
            k3 = np.asarray(field(tk + h / 2.0, x + (h / 2.0) * k2), dtype=float)
            k4 = np.asarray(field(tk + h, x + h * k3), dtype=float)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _guard(x, k, times, states, "rk4", 1.0)
            states[k + 1] = x
    return Trajectory(times, states, "rk4", 1.0)
