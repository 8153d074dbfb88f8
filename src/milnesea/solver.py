"""Explicit Runge-Kutta integrators with blow-up and step-limit reporting.

Everything dynamical in this package is a small first-order system
y' = f(t, y). Two integrators are provided:

* ``integrate_fixed``    classic fourth-order Runge-Kutta on a uniform grid,
* ``integrate_adaptive`` embedded Dormand-Prince 5(4) pair with proportional
  step control, recording every accepted step.

They are deliberately independent code paths: the adaptive integrator acts
as the accuracy oracle for the fixed one in the test suite, so neither may
be expressed in terms of the other.

A right-hand side ``rhs(t, y)`` indexes its state ``y`` and returns a
length-n sequence of floats (a tuple is cheapest). Both integrators pass
``y`` as a tuple of Python floats, so an RHS must not rely on array
arithmetic on ``y``; a first result of the wrong length is a
``ValueError``.

Both record their samples into flat ``array("d")`` buffers, one of times
and one of states laid end to end, and wrap them as the trajectory's
arrays when the run ends: 8 bytes per time and per state component, with
no per-sample Python object kept.

Divergence is an expected physical regime here (the medium can pump energy
into a signal until the pressure grows without bound), so hitting the
blow-up guard is reported as a trajectory status instead of raised as an
exception. Callers inspect ``Trajectory.status``.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

COMPLETED = "completed"
ABORTED_BLOWUP = "aborted-blowup"
ABORTED_STEP_LIMIT = "aborted-step-limit"

DEFAULT_DT = 1e-3
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
DEFAULT_MAX_STEPS = 10_000_000

# rhs(t, y): y is indexed, never used in array arithmetic; the result is a
# length-n sequence of floats (see the module docstring)
RHS = Callable[[float, Sequence[float]], Sequence[float]]


def grid_points(span: float, step: float):
    """Points of the grid 0, step, 2 step, ... <= span (inf if unbounded)."""
    n = span / step + 1e-9  # keeps an endpoint that divides evenly
    return math.floor(n) + 1 if math.isfinite(n) else math.inf


def fixed_steps(t0: float, t1: float, dt: float):
    """Steps of integrate_fixed from t0 to t1 (inf if unbounded): whole
    steps of dt, then one to t1 unless they end within 1e-12 dt of it.
    A span shorter than that takes one step, so the run still ends on t1."""
    n_whole = (t1 - t0) // dt
    if not math.isfinite(n_whole):
        return math.inf
    return max(1, int(n_whole) + (t1 - (t0 + dt * n_whole) > 1e-12 * dt))


def check_sample_budget(samples) -> None:
    """Reject more than DEFAULT_MAX_STEPS samples; call before allocating."""
    if samples > DEFAULT_MAX_STEPS:
        raise ValueError(f"{samples} samples exceed the sample budget of "
                         f"{DEFAULT_MAX_STEPS}")


@dataclass
class Trajectory:
    """Recorded solution samples plus how the integration ended.

    ``times`` is strictly increasing and ``states`` has one row per time.
    ``status`` is one of COMPLETED, ABORTED_BLOWUP, ABORTED_STEP_LIMIT;
    aborted trajectories carry a diagnostic ``message`` and keep every
    finite state recorded up to the abort.

    The integrators pass C-contiguous float64 arrays that view the flat
    buffers they recorded into (see the module docstring), so none is
    copied here; each run has buffers of its own.
    """

    times: np.ndarray
    states: np.ndarray
    status: str = COMPLETED
    message: Optional[str] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be a 1-d array")
        if self.states.shape[:1] != self.times.shape:
            raise ValueError("states must have one row per time")
        # a > b holds exactly when a - b > 0, with no difference array
        t = self.times
        if t.size > 1 and not np.all(t[1:] > t[:-1]):
            raise ValueError("times must be strictly increasing")
        if self.status not in (COMPLETED, ABORTED_BLOWUP, ABORTED_STEP_LIMIT):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != COMPLETED and not self.message:
            raise ValueError("aborted trajectories need a message")

    def __len__(self):
        return self.times.size

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    @property
    def last_time(self) -> float:
        return float(self.times[-1])


def default_blowup_threshold(y0) -> float:
    """Guard level used when the caller does not supply one.

    It is 1e6 * max(1, |y0|), capped at the largest float, so a huge but
    finite initial state still gets a finite guard.
    """
    y0 = np.asarray(y0, dtype=float)
    return min(1e6 * max(1.0, float(np.max(np.abs(y0)))), sys.float_info.max)


def _check_span(t_span):
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise ValueError(f"need finite t1 > t0, got {t_span!r}")
    return t0, t1


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_rhs_length(f, n: int) -> None:
    if len(f) != n:
        raise ValueError(f"rhs returned a result of length {len(f)} for a "
                         f"state of length {n}")


def _recorder(t0: float, y: tuple):
    """Flat sample buffers holding (t0, y), and their finish(status,
    message) that wraps them as a Trajectory."""
    times, states = array("d", [t0]), array("d", y)

    def finish(status, message=None):
        return Trajectory(np.frombuffer(times),
                          np.frombuffer(states).reshape(-1, len(y)),
                          status, message)

    return times, states, finish


def _prepare(y0, blowup_threshold):
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    if blowup_threshold is None:
        blowup_threshold = default_blowup_threshold(y0)
    _check_positive("blowup_threshold", blowup_threshold)
    return y0, float(blowup_threshold)


def integrate_fixed(rhs: RHS, y0, t_span, dt: float = DEFAULT_DT,
                    blowup_threshold: Optional[float] = None) -> Trajectory:
    """Integrate y' = rhs(t, y) with classic RK4 on a uniform grid.

    The grid is t0 + i*dt, each time computed as it is reached, with the
    last time moved or appended onto t1 (see fixed_steps). Every step is
    recorded. If any state component exceeds ``blowup_threshold`` in
    magnitude the offending state is recorded (it is still finite) and
    integration stops with status ABORTED_BLOWUP; a non-finite
    right-hand side aborts the same way without recording.

    The state is a tuple of Python floats, and ``rhs`` receives it as
    one. Each component is updated in the order of the array form
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4), so the result is the same to the
    last bit.
    """
    t0, t1 = _check_span(t_span)
    y0, threshold = _prepare(y0, blowup_threshold)
    _check_positive("dt", dt)
    steps = fixed_steps(t0, t1, dt)
    check_sample_budget(steps + 1)

    y = tuple(y0.tolist())
    times, states, finish = _recorder(t0, y)

    if max(map(abs, y)) > threshold:
        return finish(ABORTED_BLOWUP,
                      f"initial state already exceeds guard {threshold:g}")

    for i in range(steps):
        t = t0 + dt * i  # not t0: the grid's first time is +0.0 for -0.0
        t_next = t0 + dt * (i + 1) if i < steps - 1 else t1
        h = t_next - t
        hh = 0.5 * h
        k1 = rhs(t, y)
        if i == 0:
            _check_rhs_length(k1, len(y))
        k2 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k1)]))
        k3 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k2)]))
        k4 = rhs(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
        h6 = h / 6.0
        y = tuple([a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        if not all(map(math.isfinite, y)):
            return finish(ABORTED_BLOWUP,
                          f"non-finite state near t={t_next:.6g}")
        times.append(t_next)
        states.extend(y)
        if max(map(abs, y)) > threshold:
            return finish(ABORTED_BLOWUP,
                          f"|state| exceeded {threshold:g} at t={t_next:.6g}")

    return finish(COMPLETED)


# Dormand-Prince 5(4) tableau. The last row of _A is the fifth-order weight
# row (first same as last: stage 6's argument is the step's result), and _E
# is the difference between the fifth- and fourth-order rows (direct error
# weights).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _initial_step(t0, t1, y0, f0, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if d0 >= 1e-5 and d1 >= 1e-5:
        h = 0.01 * d0 / d1
    else:
        h = 1e-3 * (t1 - t0)
    return min(h, t1 - t0)


# a blow-up overflows stage values, stage sums or the error norm; the step
# loop turns each non-finite one into a rejection or an abort, not a warning
@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(rhs: RHS, y0, t_span, rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL,
                       max_steps: int = DEFAULT_MAX_STEPS,
                       blowup_threshold: Optional[float] = None) -> Trajectory:
    """Integrate y' = rhs(t, y) with an embedded Dormand-Prince 5(4) pair.

    Step sizes follow the standard proportional controller on the RMS of
    the scaled local error estimate (scale = atol + rtol*|y|). The initial
    point and every accepted step point are recorded.

    Aborts with ABORTED_BLOWUP when an accepted state exceeds the guard
    or the step size underflows near a finite-time singularity, and with
    ABORTED_STEP_LIMIT when ``max_steps`` step attempts are exhausted.

    The state is a tuple of Python floats, and ``rhs`` receives it as
    one; its result, any length-n sequence of floats, fills one row of
    the stage buffer. The sums of stages 2 to 6 and of the error weights
    are BLAS products on that buffer; stage 1's one-term sum and the rest
    of the step are float arithmetic in the order of the array form, so
    the result is the same to the last bit. The step's result is stage
    6's argument, since the tableau's last row is the fifth-order weight
    row.
    """
    t0, t1 = _check_span(t_span)
    y0, threshold = _prepare(y0, blowup_threshold)
    _check_positive("rtol", rtol)
    _check_positive("atol", atol)
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) \
            or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, "
                         f"got {max_steps!r}")

    n = y0.size
    y = tuple(y0.tolist())
    f = rhs(t0, y)
    _check_rhs_length(f, n)
    if not all(map(math.isfinite, f)):
        return Trajectory(np.empty(0), np.empty((0, n)), ABORTED_BLOWUP,
                          f"non-finite right-hand side at t={t0:.6g}")
    times, states, finish = _recorder(t0, y)

    if max(map(abs, y)) > threshold:
        return finish(ABORTED_BLOWUP,
                      f"initial state already exceeds guard {threshold:g}")

    t = t0
    h = float(_initial_step(t0, t1, y0, f, rtol, atol))
    attempts = 0
    k = np.empty((7, n))
    kT = k.T
    # The sums of stages 2 to 6 and of the error weights stay BLAS dgemv
    # products on the stage buffer: dgemv adds their terms with fused
    # multiply-adds in a blocked order, which no sum of Python floats
    # reproduces (math.fma needs Python 3.13), so any other form moves the
    # last bits of every trajectory. kT[:, :i].dot(a) is the same dgemv on
    # the same memory as a @ k[:i], through a cheaper entry point. Stage
    # 1's (n, 1) product skips dgemv and gives -0.0 where dgemv gives
    # +0.0; the float form a1 * d + 0.0 matches dgemv. TestStageSums in
    # tests/test_solver.py checks each of these identities.
    a1 = float(_A[1][0])
    stages = [(i, _A[i], kT[:, :i], _C[i]) for i in range(1, 7)]

    while t < t1:
        if attempts >= max_steps:
            return finish(ABORTED_STEP_LIMIT,
                          f"gave up after {max_steps} step attempts at t={t:.6g}")
        attempts += 1
        h = min(h, t1 - t)
        if t + h == t:
            return finish(ABORTED_BLOWUP,
                          f"step size underflow at t={t:.6g} "
                          "(finite-time singularity suspected)")

        k[0] = f
        bad_stage = False
        for i, a, head, c in stages:
            sums = (head.dot(a).tolist() if i > 1
                    else [a1 * d + 0.0 for d in k[0].tolist()])
            yi = tuple([u + h * d for u, d in zip(y, sums)])
            k[i] = ki = rhs(t + c * h, yi)
            if not all(map(math.isfinite, ki)):
                bad_stage = True
                break
        if bad_stage:
            h *= 0.25
            continue

        y_new = yi  # stage 6's argument: the fifth-order solution
        # u if u >= v else v keeps np.maximum's nan, which max() drops: a
        # nan in y_new gives a nan norm and a rejected attempt
        scale = [atol + rtol * (u if u >= v else v)
                 for u, v in zip(map(abs, y), map(abs, y_new))]
        sq = [q * q for q in [h * e / s
                              for e, s in zip(kT.dot(_E).tolist(), scale)]]
        # np.mean adds fewer than 8 terms left to right from the first
        # (sum() compensates since Python 3.12), and more pairwise
        err_norm = math.sqrt(functools.reduce(operator.add, sq) / n if n < 8
                             else np.mean(sq))
        if not math.isfinite(err_norm):
            h *= 0.25
            continue

        if err_norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            continue

        t_new = t + h
        f_new = k[6]  # FSAL: already rhs(t_new, y_new)
        times.append(t_new)
        states.extend(y_new)

        if max(map(abs, y_new)) > threshold:
            return finish(ABORTED_BLOWUP,
                          f"|state| exceeded {threshold:g} at t={t_new:.6g}")

        t, y, f = t_new, y_new, f_new
        if err_norm == 0.0:
            h *= _MAX_FACTOR
        else:
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))

    return finish(COMPLETED)
