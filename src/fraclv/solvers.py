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
weights, which ``_caputo_weights`` builds once per run in lag order (row m
of its table holds the two weights of lag m).  ``integrate_caputo`` splits
the history into blocks of ``HISTORY_BLOCK`` = B steps and takes the steps
of a block in groups of ``_GROUP`` = G, each at a multiple of G from the
block start K.  For a group k..k+G-1, the sums of all G steps over the
near history g_K..g_k are one matrix product against a (2G, B) weight
table, at O(B) per group; step k+j adds the j lags of g_{k+1}..g_{k+j} in
Python floats.  The sums over the far history g_0..g_{K-1} are taken for
all B steps of the block at once by
uniformly partitioned convolution (Gardner 1995, J. Audio Eng. Soc. 43(3),
the one-level form of Hairer, Lubich & Schlichte 1985, SIAM J. Sci. Stat.
Comput. 6): at the start of block m, the block before it is transformed once
(rfft of size 2B) and its spectrum X_{m-1} stored, and so is the spectrum
W_m of the weight segment of lags (m-1)B..(m+1)B-1; the block's far sums are
one irfft of sum_{s=1..m} W_s X_{m-s}, one batched matrix product over the
stored spectra, taken on their real and imaginary parts as reals: at these
small per-frequency shapes numpy's batched complex product costs 1.6-3x
as much, from 390 blocks down to 2.  No transform grows with K and none is
taken twice, so a run of N steps costs O(N B) for the near products,
O(N^2 / B) spectral multiply-adds and O(N log B) for the transforms, and a
run of at most B steps takes no FFT.  B and G come from a sweep over
{512, 1024} x {4, 8} at 5k-200k steps (``tools/caputo_sweep.py``; Intel Xeon,
2 vCPUs): at G = 4, B = 512 was 7-11% faster than B = 1024 at every length
with the field called, and with ``vector_field``'s source text inlined it is
faster up to 50k steps and 0-11% slower at 100k-200k; G = 8 was 2-8% faster
than G = 4, but doubles the cost of generating the step loop and its
in-group terms grow as G^2 d, so G = 4 is kept.

Both integrators sum the history in a different order from a direct
full-history evaluation of the weight formulas (one dot product over all of
g_0..g_k per step), and the Caputo far sums carry the FFT's rounding, so
results match that evaluation to rounding, not bit for bit: on the bundled
scenarios the two agree to 1e-12 (max abs), and the test suite holds them to
that tolerance.  A lag's weight does not depend on the table's length,
Caputo groups start at multiples of G from a block start, and a block's far
sums read the same weight segments and block spectra, whatever the run's
length, so a shorter run of either integrator is bit for bit the prefix of a
longer one.

Field contract.  A field is called as ``field(t, state)`` with ``t`` a float
and ``state`` a fresh 1-d float64 ndarray of the initial state's length d; it
returns any length-d sequence of floats (a tuple, a list or an ndarray).  A
return of another length raises ValueError, and so does an initial state with
a component that is not a real number, or a bool, or outside the divergence
guard's range, or a value at t = 0 (g_0) with a component that is not a real
number, or a bool.  Later values are checked for length only, since a check
per component would cost every called evaluation.  Each integrator calls the
field 2N + 1 times for N steps, unless it is one of ``vector_field``'s, whose
``source``, a ``_Source``, holds its right-hand side as text: the steps
evaluate that inline (``_step_loop``), and the field is called once, for g_0.
A ``source`` of any other type is ignored, so no text comes from outside.

Per-step arithmetic.  For d = 3 a step costs fixed interpreter overhead more
than arithmetic, so the predictor, the corrector, the corrected-mode term,
the CF running sum, the divergence guard and a field's source text run on
Python floats, in a step loop generated once per operator, CF mode, d and
source text (``_step_loop``, on the first run that needs it): each component
is a scalar local and each per-component line is written out d times, so a
step builds no list but the states it passes to a called field, and stores
its accepted state straight into its row of ``states``.  Generating a loop
costs ~0.3-0.4 ms (CF) and ~1 ms (Caputo) at d = 3, and grows with d (~0.08
s and ~0.2-0.3 s per 1,000 components).  numpy holds the weight tables, the
Caputo history with its one matrix product per group of steps and its
transforms per block, and ``states``.  Python and numpy float ``+ - *`` are
the same IEEE operations, so the trajectories are bit for bit those of an
all-numpy step, and Python float ``+ - *`` overflows to inf (which the guard
catches) rather than raising.  Untraced time per step on the bundled
scenarios (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4.6; minimum of 15
runs): CF ~0.7-0.9 us and Caputo ~2.3 us at 5k-10k steps, against ~2.1-2.3
us and ~3.7-3.8 us with the same field called, through a lambda around it.

Runs are strictly sequential and deterministic; all returned objects are
immutable value containers.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn, Sequence

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
#: its start is summed directly, and the history before it at the block start,
#: from the stored spectra of the blocks before.
HISTORY_BLOCK = 512

#: Steps per group of the Caputo near history: one matrix product gives the
#: sums of a group's steps over the history since the block start.
_GROUP = 4

VectorField = Callable[[float, np.ndarray], Sequence[float]]


class _Source(NamedTuple):
    """``model.vector_field``'s right-hand side as text: one expression per
    component over ``{x0}``, ``{x1}``, ... and ``{c0}``, ``{c1}``, ..., whose
    float values ``coefficients`` holds."""

    exprs: tuple[str, ...]
    coefficients: tuple[float, ...]


def _as_float(value, what: str) -> float:
    """``value`` as a float if it is a real number but not a bool, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer past the float range") from None


def check_order(alpha: float, allow_one: bool = True) -> float:
    """``alpha`` as a float if it lies in (0, 1], or in (0, 1) when
    ``allow_one`` is false; otherwise ValueError, also for NaN and non-reals."""
    if type(alpha) is not float:  # the stability map checks ~69k floats per pass
        alpha = _as_float(alpha, "order alpha")
    if 0.0 < alpha < 1.0 or (allow_one and alpha == 1.0):
        return alpha
    interval = "(0, 1]" if allow_one else "(0, 1) for the CF criteria"
    raise ValueError(f"order alpha must be in {interval}, got {alpha}")


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Fixed-grid run settings.

    step        grid spacing h > 0; a real number but not a bool, stored as a float
    horizon     final time t_end >= h, with a finite step count t_end / h; likewise
    cf_mode     "paper" or "corrected"; only the CF integrator reads it
    """

    step: float
    horizon: float
    cf_mode: str = "paper"

    def __post_init__(self):
        for name in ("step", "horizon"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
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
        # slack so horizons like 50.0 with h=0.01 do not lose a step; past ~2^24
        # steps the quotient's rounding exceeds 1e-9, so the slack is 4 ulp there
        q = self.horizon / self.step
        return int(math.floor(q + max(1e-9, 4.0 * math.ulp(q))))


@dataclass(frozen=True, slots=True)
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


def _caputo_weights(num: int, alpha: float, step: float):
    """The Caputo ABM weights of lags 0..N-1 (N = ``num``), with 1/Gamma(a) folded in.

    With the prefactors P = h^a / (a Gamma(a)) and C = h^a / Gamma(a+2), the
    weights of step k (k = 0..N-1, history index i = 0..k) depend on i only
    through the lag m = k - i:

        predictor       P [(m+1)^a - m^a]                                i = 0..k
        corrector i>=1  C [(m+2)^(a+1) - 2 (m+1)^(a+1) + m^(a+1)]        i = 1..k
        corrector i=0   C [k^(a+1) - (k-a) (k+1)^a]
        predicted value C                             (``new``)

    Returns ``(lags, c0, new)``.  ``lags`` is an (N, 2) table in lag order:
    row m holds the predictor and the corrector weight of lag m.  A sum that
    weighs g_0 with the lag-k corrector formula leaves ``c0[k]``, the rest of
    the weight of g_0 at step k.  Every bracket takes its powers from the two
    arrays j^a and j^(a+1), j = 0..N+1, each ``**`` taken on a contiguous
    input: on a strided view it can differ by an ulp, which the brackets'
    cancellation of about 2 log10(m) digits magnifies.  At a = 1 the weights
    are h, h, h/2 and h/2 (trapezoid PECE), and c0 is -h/2.
    """
    try:
        inv_gamma = 1.0 / math.gamma(alpha)
    except OverflowError:  # Gamma(a) ~ 1/a is past the float range for a below ~5.6e-309
        raise ValueError(f"order alpha = {alpha} is too small: Gamma(alpha) overflows") from None
    k = np.arange(num + 2.0)
    pa, pb = k ** alpha, k ** (alpha + 1.0)
    lags = np.empty((num, 2))
    lags[:, 0] = inv_gamma * ((step ** alpha / alpha) * (pa[1:-1] - pa[:-2]))
    scale = step ** alpha / (alpha * (alpha + 1.0))
    lags[:, 1] = inv_gamma * (scale * (pb[2:] - 2.0 * pb[1:-1] + pb[:-2]))
    new = inv_gamma * scale
    return lags, new * (pb[:-2] - (k[:-2] - alpha) * pa[1:-1]) - lags[:, 1], new


def _start(field: VectorField, initial: Sequence[float]):
    """Initial state and g_0 as lists of floats, checked for shape, and the
    text and coefficient count of the field's ``_Source`` and its
    coefficients, or else None and the field.  Each of their values must pass
    ``_as_float`` (NaN and inf in g_0 are left to the guard), and each initial
    one the divergence guard's own comparison ``-L <= v <= L`` (so +-L is accepted)."""
    values = np.asarray(initial, dtype=object)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("initial state must be a non-empty 1-d vector")
    x0 = [_as_float(v, f"initial state component {i}") for i, v in enumerate(values.tolist())]
    for i, v in enumerate(x0):
        if not -DIVERGENCE_LIMIT <= v <= DIVERGENCE_LIMIT:
            raise ValueError(f"initial state component {i} is {v}; "
                             f"it must lie within +/-{DIVERGENCE_LIMIT:g}")
    g0 = np.asarray(field(0.0, np.array(x0)), dtype=object)
    if g0.shape != (len(x0),):
        raise ValueError(f"field dimension {g0.shape} does not match initial state {(len(x0),)}")
    g0 = [_as_float(v, f"field value component {i} at t = 0") for i, v in enumerate(g0.tolist())]
    source = getattr(field, "source", None)
    if type(source) is _Source:
        return x0, g0, (source.exprs, len(source.coefficients)), source.coefficients
    return x0, g0, None, field


def _wrong_length(g: Sequence[float], t: float, d: int) -> NoReturn:
    """The field's value at time t has a length other than d: ValueError."""
    raise ValueError(f"field returned {len(g)} components at t = {t:g}, expected {d}")


def _diverged(k: int, times: np.ndarray, states: np.ndarray) -> NoReturn:
    """The state of step k+1 failed the divergence guard: raise DivergenceError
    with the trajectory up to step k, whose rows are stored already.

    The guard is ``-L <= v <= L`` on each component, L = DIVERGENCE_LIMIT;
    NaN fails both comparisons, so it trips the guard, and so does inf.
    """
    raise DivergenceError(k + 1, times[k + 1], Trajectory(times[: k + 1], states[: k + 1].copy()))


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


# The step loops, as source text.  A loop runs the steps k = 0..N-1 (CF) or
# the steps k = start..end-1 of one block (Caputo); ``_step_loop`` writes
# each line that names a component ``{i}`` out once per component, so every
# component is a scalar local.  ``_STEP`` is one PECE step at time t_{k+lag}:
# the field at the predictor, in p0, p1, ..., the corrector, the divergence
# guard on it, the store of the corrector into row k+lag of ``states``, and
# the field at the corrector, in its components ``{b}`` (b0, b1, ... in CF).
# The store is item k+lag-1 of o0, o1, ..., memoryviews of the columns of
# ``states[1:]``: ~90 ns at d = 3, against ~130 ns for a list of the row or
# for flat-index stores (isolated loop; Intel Xeon, Python 3.11).  Each of
# the two field evaluations is a slot: ``_CALL``, which calls the field and
# checks the length of its value, or a field's source text written out in
# its place.  A step that calls the field computes t as h (k + lag), which
# is bit for bit ``times[k + lag]``.
_STEP = """\
{at_predictor}\
        {corrector}
        if not ({guard}):
            _diverged({k}, times, states)
        {store}
{at_corrector}\
"""

_CALL = """\
        {g} = field(t, array({state}))
        if len({g}) != {d}:
            _wrong_length({g}, t, {d})
        [{out}] = {g}
"""

# CF: x0 in a0, a1, ..., g_0 in c0, c1, ..., and the running sum S_k in s0, s1, ...
_CF_LOOP = """\
def cf_steps(field, times, states, num, h, lim, x0, g0, ch, ch2, cf):
{coefficients}\
    [{a}] = x0
    [{c}] = g0
    [{s}] = [{b}] = g0
    [{o}] = map(memoryview, states[1:].T)
    for k in range(num):
{step}\
        {total}
"""

# Caputo: the G steps k..k+G-1 of a group.  The matrix product gives the sums
# of step k+j over g_K..g_k: the predictor's in q{j}_0, q{j}_1, ... and the
# corrector's in e{j}_0, e{j}_1, ...  Step k+j then adds the lags of
# g_{k+1}..g_{k+j}, the field values b0_*..b{j-1}_* of the group's earlier
# steps, with the lag weights u0, u1, ... (predictor) and w0, w1, ...
# (corrector), and the group's G field values go into the history, through
# its flat view, in one slice assignment.
_CAPUTO_LOOP = """\
def caputo_steps(field, times, states, start, end, h, lim, hist, table, base, new, lagw):
{coefficients}\
    [{w}] = lagw
    [{o}] = map(memoryview, states[1:].T)
    flat = hist.reshape(-1)
    last = start + {B} - 1
    for k in range(start, end, {G}):
        {sums} = (dot(table[:, last - k :], hist[start : k + 1])
                  + base[(k - start) // {G}]).tolist()
{steps}\
        flat[{d} * k + {d} : {d} * k + {end}] = {values}
"""


@functools.cache
def _step_loop(operator: str, cf_mode: str | None, d: int, source: tuple | None) -> Callable:
    """The step loop of ``operator`` ("cf" in ``cf_mode``, or "caputo") for
    states of d components, generated on first use from the templates above.

    ``source``, a ``_Source``'s text and coefficient count (None for a field
    that is called), is written out in place of the field's two calls, over
    the state's components and the coefficients f0, f1, ..., which the loop
    takes as its ``field`` argument.  The generator owns every local name.

    Each component is computed by the same expression, with the same order
    of operations, whatever d is, and the guard checks the components in
    order.  The loops of a process are kept: there is one per key, and the
    coefficients are an argument, so all ``ModelParams`` share one.
    """

    def each(expr: str, sep: str = ", ") -> str:
        return sep.join(expr.format(i=i) for i in range(d))

    exprs, count = source or (None, 0)
    coefficients = {f"c{j}": f"f{j}" for j in range(count)}  # placeholder: local
    head = f"    [{', '.join(coefficients.values())}] = field\n" if count else ""

    def inline(out: str, state: str) -> str:  # the field's value at the state's components
        names = {f"x{i}": state.format(i=i) for i in range(d)} | coefficients
        return "".join(f"        {out.format(i=i)} = {e.format(**names)}\n"
                       for i, e in enumerate(exprs))

    def step(lag: int, predictor: str, corrector: str, b: str = "b{i}") -> str:
        if exprs is None:
            at_predictor = f"        t = h * (k + {lag})\n" + _CALL.format(
                g="gp", state="[" + each(predictor) + "]", d=d, out=each("p{i}"))
            at_corrector = _CALL.format(g="g", state="[" + each("v{i}") + "]", d=d, out=each(b))
        else:
            at_predictor = each(f"        y{{i}} = {predictor}\n", "") + inline("p{i}", "y{i}")
            at_corrector = inline(b, "v{i}")
        k = "k" if lag == 1 else f"k + {lag - 1}"  # row k+lag of ``states``: item k+lag-1 of o*
        return _STEP.format(k=k, at_predictor=at_predictor, at_corrector=at_corrector,
                            corrector=each(f"v{{i}} = {corrector}", "\n        "),
                            guard=each("-lim <= v{i} <= lim", " and "),
                            store=each(f"o{{i}}[{k}] = v{{i}}", "\n        "))

    if operator == "cf":
        lagged = predicted = ""
        if cf_mode == "corrected":  # the term (1-a)(g - g0) at the lagged and predicted g
            lagged, predicted = " + cf * (b{i} - c{i})", " + cf * (p{i} - c{i})"
        source = _CF_LOOP.format(
            a=each("a{i}"), c=each("c{i}"), s=each("s{i}"), b=each("b{i}"), o=each("o{i}"),
            step=step(1, "a{i} + ch * s{i}" + lagged,
                      "a{i} + ch2 * (2.0 * s{i} - c{i} + p{i})" + predicted),
            total=each("s{i} += b{i}", "\n        "), coefficients=head)
    else:
        def in_group(weight: str, j: int) -> str:  # step k+j's terms: g_{k+1+l} at lag j-1-l
            return "".join(f" + {weight}{j - 1 - l} * b{l}_{{i}}" for l in range(j))

        def row(name: str, j: int) -> str:
            return "[" + each(f"{name}{j}_{{i}}") + "]"

        steps = [(f"        if k + {j} == end:\n            break\n" if j else "")
                 + step(j + 1, f"q{j}_{{i}}" + in_group("u", j),
                        f"e{j}_{{i}}" + in_group("w", j) + " + new * p{i}", f"b{j}_{{i}}")
                 for j in range(_GROUP)]
        source = _CAPUTO_LOOP.format(
            w=", ".join(f"u{l}, w{l}" for l in range(_GROUP - 1)), B=HISTORY_BLOCK, G=_GROUP,
            sums=", ".join(row("q", j) + ", " + row("e", j) for j in range(_GROUP)),
            steps="".join(steps), d=d, end=d * (_GROUP + 1), coefficients=head, o=each("o{i}"),
            values="(" + ", ".join(each(f"b{j}_{{i}}") for j in range(_GROUP)) + ")")
    # __name__ puts a warning raised in the loop under this module for warning filters
    namespace = {"__name__": __name__, "_wrong_length": _wrong_length, "_diverged": _diverged,
                 "dot": np.dot, "array": np.array}
    key = (operator, cf_mode, d, "inlined" if exprs else "called")
    exec(compile(source, f"<fraclv.solvers step loop {key}>", "exec"), namespace)
    return namespace[f"{operator}_steps"]


def integrate_cf(
    field: VectorField,
    initial: Sequence[float],
    order: float,
    config: SolverConfig,
) -> Trajectory:
    """Integrate ``D^alpha x = g(t, x)`` under the exponential-kernel operator.

    Order-1 PECE on the CF integral with the running field sum
    S_k = g_0 + ... + g_k, so a step costs O(1) and one loop call runs all N:

        predictor  x0 + a h S_k
        corrector  x0 + a (h/2) (2 S_k - g_0 + g_p)

    In ``corrected`` mode the non-integral term ``(1-a)(g - g0)`` is added
    to both, at the lagged and at the predicted field value.  Its explicit
    treatment requires ``(1-a) * L < 1`` for a local Lipschitz constant L,
    otherwise the run is aborted by the divergence guard.  At a = 1 the term
    is zero and the run is a ``paper`` mode run.
    """
    alpha = check_order(order)
    x0, g0, source, field = _start(field, initial)
    times, states = _grid(x0, config)
    cf_coeff = 1.0 - alpha if config.cf_mode == "corrected" else 0.0
    steps = _step_loop("cf", "corrected" if cf_coeff else "paper", len(x0), source)
    ch = alpha * config.step
    with np.errstate(over="ignore", invalid="ignore"):  # for fields that return ndarrays
        steps(field, times, states, len(times) - 1, config.step, DIVERGENCE_LIMIT, x0, g0,
              ch, ch / 2.0, cf_coeff)
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

    The field history g_0..g_N is held row-major, one row per step, and read
    in blocks of B = ``HISTORY_BLOCK`` steps.  At the start K = mB of block
    m, x0, the far sums over g_0..g_{K-1} (one irfft of the blocks' stored
    spectra times the weight segments'), and ``c0[k] g_0`` (the rest of the
    weight of g_0) are added into one base per step.  The weights come from
    ``_caputo_weights`` in lag order, for every lag of the run's whole blocks
    and the G-1 lags past them, and the near table, the 2B-lag segments and
    the in-group weights are slices of it.  The steps then go in groups of
    G = ``_GROUP`` from K: one matrix product of the tail ``table[:, B-n:]``
    of the (2G, B) near table with g_K..g_k (n = k-K+1 rows), plus the
    group's bases, gives both sums of each step of the group but for its
    in-group lags, which step k+j adds in Python floats.  The G new field
    values go into the history at the end of the group.
    """
    alpha = check_order(order)
    x0, g0, source, field = _start(field, initial)
    d = len(x0)
    times, states = _grid(x0, config)
    num = len(times) - 1
    hist = np.empty((num + 1, d))
    hist[0] = g0
    blocks = -(-num // HISTORY_BLOCK)
    lags, c0, new = _caputo_weights(blocks * HISTORY_BLOCK + _GROUP - 1, alpha, config.step)
    # column B-1-m of row 2j (2j+1) holds the predictor (corrector) weight of lag m+j
    table = np.concatenate([lags[j : j + HISTORY_BLOCK][::-1].T for j in range(_GROUP)])
    lagw = lags[: _GROUP - 1].ravel().tolist()  # lags 0..G-2, for the in-group terms
    if blocks > 1:  # the spectra, as reals: of the weight segments, last first, and of blocks
        weights = np.zeros((HISTORY_BLOCK + 1, 4, blocks - 1))  # Re pred, Re corr, Im pred, Im corr
        spectra = np.zeros((HISTORY_BLOCK + 1, blocks - 1, 2 * d))  # Re, Im of each component
    steps = _step_loop("caputo", None, d, source)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, start in enumerate(range(0, num, HISTORY_BLOCK)):
            end = min(start + HISTORY_BLOCK, num)
            if m:  # numpy.fft is loaded by the first run longer than one block
                w = np.fft.rfft(lags[start - HISTORY_BLOCK : start + HISTORY_BLOCK], axis=0)
                weights[:, :, blocks - 1 - m] = np.concatenate((w.real, w.imag), axis=1)
                spectra.view(complex)[:, m - 1] = np.fft.rfft(hist[start - HISTORY_BLOCK : start],
                                                              2 * HISTORY_BLOCK, axis=0)
                # one batched matrix product over the stored spectra, in real form: its rows
                # are Re W and Im W, its columns Re X and Im X, so W X = RR - II + i (RI + IR)
                prod = weights[:, :, blocks - 1 - m :] @ spectra[:, :m]
                rr, ri = prod[:, :2, ::2], prod[:, :2, 1::2]
                ir, ii = prod[:, 2:, ::2], prod[:, 2:, 1::2]
                base = np.fft.irfft(rr - ii + 1j * (ri + ir), 2 * HISTORY_BLOCK,
                                    axis=0)[HISTORY_BLOCK:]
            else:
                base = np.zeros((HISTORY_BLOCK, 2, d))
            base[:, 1] += np.multiply.outer(c0[start : start + HISTORY_BLOCK], g0)
            base += x0
            steps(field, times, states, start, end, config.step, DIVERGENCE_LIMIT, hist,
                  table, base.reshape(HISTORY_BLOCK // _GROUP, 2 * _GROUP, d), new, lagw)
    return Trajectory(times, states)
