"""Explicit Runge-Kutta integrators with blow-up and step-limit reporting.

Everything dynamical in this package is a small first-order system
y' = f(t, y). Two integrators are provided:

* ``integrate_fixed``    classic fourth-order Runge-Kutta on a uniform grid;
  the whole run is one loop generated per state length and number of
  ``args`` (``_rk4_run``),
* ``integrate_adaptive`` embedded Dormand-Prince 5(4) pair with proportional
  step control, recording every accepted step; the whole run is likewise
  one loop generated per state length and number of ``args``
  (``_dp_run``), whose BLAS stage sums write into one preallocated
  vector (``dot``'s ``out``) instead of allocating an array each.

Both generated runs are written from a source template with every
component and every arg spelled out, compiled on first use and cached,
and registered with ``linecache`` so tracebacks show their source. The
two integrators share that generator and nothing of their arithmetic.

They are deliberately independent code paths: the adaptive integrator acts
as the accuracy oracle for the fixed one in the test suite, so neither may
be expressed in terms of the other.

A right-hand side ``rhs(t, y, *args)`` indexes its state ``y`` and
returns a length-n sequence of floats (a tuple is cheapest). Both
integrators pass ``y`` as a tuple of Python floats, so an RHS must not
rely on array arithmetic on ``y``. ``args``, as in SciPy's
``solve_ivp``, are extra arguments passed after the state on every
call, so an RHS with parameters needs no closure around it. Both unpack
every result, so one of the wrong length is a ``ValueError``; the first
one's message names both lengths.

Both record their samples into flat ``array("d")`` buffers, one of times
and one of states laid end to end, and wrap them as the trajectory's
arrays when the run ends: 8 bytes per time and per state component, with
no per-sample Python object kept. The trajectory also counts the run's
right-hand-side calls, rejected and retried steps, and reads its accepted
steps and step range off its times (see ``Trajectory``).

Divergence is an expected physical regime here (the medium can pump energy
into a signal until the pressure grows without bound), so hitting the
blow-up guard is reported as a trajectory status instead of raised as an
exception. Callers inspect ``Trajectory.status``. Both runs test the guard
before any RHS call and end by one rule (``_recorder``), so both keep t0
and only finite states.
"""

from __future__ import annotations

import functools
import linecache
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

COMPLETED = "completed"
ABORTED_BLOWUP = "aborted-blowup"
ABORTED_STEP_LIMIT = "aborted-step-limit"

DEFAULT_DT = 1e-3
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
DEFAULT_MAX_STEPS = 10_000_000
# scipy's floor for rtol; below it the stages' rounding alone fails the
# error test, and a run creeps on in steps too small to move the state
MIN_RTOL = 100 * sys.float_info.epsilon

# rhs(t, y, *args): y is indexed, never used in array arithmetic; the
# result is a length-n sequence of floats (see the module docstring)
RHS = Callable[..., Sequence[float]]


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


def _g(n: int) -> str:
    """`n`, an int of 2**53 or more, as f"{float(n):g}" prints it, also
    past the float range: 6 digits, rounded half to even, and the
    exponent."""
    if n <= sys.float_info.max:
        return f"{n:g}"
    from decimal import Decimal  # only here: keep it off the import path

    digits, exponent = format(Decimal(n), ".6g").split("e")
    return f"{digits.rstrip('0').rstrip('.')}e{exponent}"


def check_sample_budget(samples) -> None:
    """Reject more than DEFAULT_MAX_STEPS samples; call before allocating.
    A count from 2**53 on is printed as %g prints a float."""
    if samples > DEFAULT_MAX_STEPS:
        if isinstance(samples, int) and samples >= 2 ** 53:
            samples = _g(samples)
        raise ValueError(f"{samples} samples exceed the sample budget of "
                         f"{DEFAULT_MAX_STEPS}")


@dataclass
class Trajectory:
    """Recorded solution samples plus how the integration ended.

    ``times`` is strictly increasing and ``states`` has one row per time.
    ``status`` is one of COMPLETED, ABORTED_BLOWUP, ABORTED_STEP_LIMIT;
    aborted trajectories carry a diagnostic ``message``. An integrator's
    trajectory holds its t0 sample and every finite state up to the end.

    The integrators pass C-contiguous float64 arrays that view the flat
    buffers they recorded into (see the module docstring), so none is
    copied here; each run has buffers of its own.

    The counters say what the run cost: ``rhs_evals`` right-hand-side
    calls, ``rejected`` attempts (error test failed) and ``retried``
    attempts (a non-finite stage or error norm). The step statistics
    ``accepted``, ``h_min`` and ``h_max`` are read off ``times``, so they
    cannot disagree with the samples. A fixed-step run makes four calls
    per step and neither rejects nor retries. They are deterministic, and
    no output file carries them.
    """

    times: np.ndarray
    states: np.ndarray
    status: str = COMPLETED
    message: Optional[str] = None
    rhs_evals: int = 0
    rejected: int = 0
    retried: int = 0

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

    @property
    def accepted(self) -> int:
        return max(len(self) - 1, 0)

    @property
    def h_min(self) -> Optional[float]:
        return float(np.diff(self.times).min()) if len(self) > 1 else None

    @property
    def h_max(self) -> Optional[float]:
        return float(np.diff(self.times).max()) if len(self) > 1 else None


def default_blowup_threshold(y0) -> float:
    """Guard level used when the caller does not supply one.

    It is 1e6 * max(1, |y0|), capped at the largest float, so a huge but
    finite initial state still gets a finite guard.
    """
    y0 = np.asarray(y0, dtype=float)
    return min(1e6 * max(1.0, float(np.max(np.abs(y0)))), sys.float_info.max)


def check_step(t0: float, t1: float, step: float) -> None:
    """Reject a step finer than 4 float spacings at max(|t0|, |t1|)."""
    far = max(abs(t0), abs(t1))
    if step < 4 * math.ulp(far):
        raise ValueError(f"step {step!r} is finer than 4 float spacings at "
                         f"|t| = {far!r} ({4 * math.ulp(far)!r})")


def check_rtol(rtol: float) -> None:
    """Reject an rtol below MIN_RTOL, which no double can meet."""
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol must be at least 100 machine epsilons "
                         f"({MIN_RTOL!r}), got {rtol!r}")


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


def _recorder(t0: float, y: tuple, threshold: float, max_steps=None):
    """Flat sample buffers holding (t0, y), and their finish(end, t,
    state=None, rhs_evals=0, **counters), both integrators' one end-of-run
    rule: it records an out-of-range finite ``state`` at t and wraps the
    buffers as a Trajectory with the status and message of ``end`` ("t1",
    "initial", "guard", "non-finite", "underflow" or "limit") from one table.
    """
    times, states = array("d", [t0]), array("d", y)

    def finish(end, t, state=None, rhs_evals=0, **counters):
        if end == "guard" and all(map(math.isfinite, state)):
            times.append(t)
            states.extend(state)
        elif end == "guard":
            end = "non-finite"
        status, text = {
            "t1": (COMPLETED, None),
            "initial": (ABORTED_BLOWUP,
                        "initial state already exceeds guard {thr:g}"),
            "guard": (ABORTED_BLOWUP, "|state| exceeded {thr:g} at t={t:.6g}"),
            "non-finite": (ABORTED_BLOWUP, "non-finite state near t={t:.6g}"),
            "underflow": (ABORTED_BLOWUP, "step size underflow at t={t:.6g} "
                          "(finite-time singularity suspected)"),
            "limit": (ABORTED_STEP_LIMIT,
                      "gave up after {max_steps} step attempts at t={t:.6g}"),
        }[end]
        message = text and text.format(t=t, thr=threshold, max_steps=max_steps)
        return Trajectory(np.frombuffer(times),
                          np.frombuffer(states).reshape(-1, len(y)),
                          status, message, rhs_evals, **counters)

    return times, states, finish


def _prepare(y0, blowup_threshold):
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    if blowup_threshold is None:
        blowup_threshold = default_blowup_threshold(y0)
    _check_positive("blowup_threshold", blowup_threshold)
    return y0, float(blowup_threshold)


def _display(items) -> str:
    """Tuple display of the expressions in items (a 1-tuple keeps its comma)."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _names(prefix: str, n: int) -> str:
    """Tuple display of the n names prefix0, prefix1, ..."""
    return _display([f"{prefix}{j}" for j in range(n)])


def _extra(m: int) -> str:
    """The trailing parameters of a run that takes m args: ", a0, a1, ..."."""
    return "".join(f", a{i}" for i in range(m))


def _generate(name: str, n: int, m: int, source: str, **names):
    """Compile the source generated for state length n and m args and
    return the function it defines, ``name`` without its leading
    underscore.

    ``names`` are the globals the source reads. The source is registered
    with ``linecache`` under a ``<milnesea.solver.name(n)>`` filename, or
    ``<milnesea.solver.name(n, m)>`` for m > 0, so tracebacks and
    ``inspect.getsource`` show it.
    """
    shape = f"{n}, {m}" if m else f"{n}"
    filename = f"<milnesea.solver.{name}({shape})>"
    namespace = {"__name__": __name__, **names}
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return namespace[name.lstrip("_")]


_RK4_RUN_SOURCE = """\
def rk4_run(rhs, t, y, k1, t0, dt, t1, steps, thr, append, extend{args}):
    {y} = y
    {k1} = k1
    lo, last = -thr, steps - 1
    for i in range(steps):
        if i:
            {k1} = rhs(t, y{args})
        t_next = t0 + dt * (i + 1) if i < last else t1
        h = t_next - t
        hh = 0.5 * h
        {k2} = rhs(t + hh, {stage2}{args})
        {k3} = rhs(t + hh, {stage3}{args})
        {k4} = rhs(t + h, {stage4}{args})
        h6 = h / 6.0
        y = {y} = {update}
        if not ({in_range}):
            return "guard", t_next, y, 4 * i + 4
        append(t_next)
        extend(y)
        t = t_next
    return "t1", t, None, 4 * steps
"""


@functools.lru_cache(maxsize=8)
def _rk4_run(n: int, m: int = 0):
    """The classic RK4 run for states of length n and m args, written out
    per component.

    Returns ``run(rhs, t, y, k1, t0, dt, t1, steps, thr, append, extend,
    a0, ..., a(m-1))``. From the state tuple ``y`` at the grid's first
    time ``t`` and ``k1 = rhs(t, y, *args)``, it makes ``steps`` steps on
    integrate_fixed's grid and passes each new time to ``append`` and
    state to ``extend``. Every call is ``rhs(t, y, a0, ..., a(m-1))``,
    with the args spelled out, so none unpacks a tuple. The time is
    carried as ``t = t_next``, the same float as ``t0 + dt * i``. Every
    stage result and state is unpacked into names, so a result of the
    wrong length is a ``ValueError``, and each state component is tested
    once, ``-thr <= y_j <= thr``, which fails on nan, on inf and past the
    guard alike. It returns ``(end, t, state, calls)``: "t1", t1 and
    None, or "guard" and the first failed state, unrecorded, and its
    time; ``calls`` is 4 per step made. Each component takes the
    float operations of the array form y + (h/6) (k1 + 2 k2 + 2 k3 + k4)
    in that form's order, so the result is the same to the last bit.

    The cost grows with n. On a 2-CPU Xeon host (Python 3.11),
    generation took 0.3-0.6 ms at n = 2 and 60-100 ms at n = 1,000. From
    n ~ 1,000 up the written-out run no longer beats per-component
    comprehensions: 10 steps of an RHS that returns its state took
    3-6 ms either way at n = 1,000. Every caller in the package
    integrates n = 2, so there is one path and no size threshold.
    """
    def stage(k, step):
        return _display([f"y{j} + {step} * {k}_{j}" for j in range(n)])

    return _generate("_rk4_run", n, m, _RK4_RUN_SOURCE.format(
        args=_extra(m), y=_names("y", n), k1=_names("k1_", n),
        k2=_names("k2_", n), k3=_names("k3_", n), k4=_names("k4_", n),
        stage2=stage("k1", "hh"), stage3=stage("k2", "hh"),
        stage4=stage("k3", "h"),
        update=_display([f"y{j} + h6 * (k1_{j} + 2.0 * k2_{j} + 2.0 * "
                         f"k3_{j} + k4_{j})" for j in range(n)]),
        in_range=" and ".join(f"lo <= y{j} <= thr" for j in range(n))))


def integrate_fixed(rhs: RHS, y0, t_span, dt: float = DEFAULT_DT,
                    blowup_threshold: Optional[float] = None,
                    args: Sequence = ()) -> Trajectory:
    """Integrate y' = rhs(t, y, *args) with classic RK4 on a uniform grid.

    The grid is t0 + i*dt, each time computed as it is reached, with the
    last time moved or appended onto t1 (see fixed_steps). Every step is
    recorded. If any state component exceeds ``blowup_threshold`` in
    magnitude the offending state is recorded (it is still finite) and
    integration stops with status ABORTED_BLOWUP; a non-finite state
    aborts the same way without recording.

    The state is a tuple of Python floats, and ``rhs`` receives it as
    one, followed by ``args`` (as in SciPy's ``solve_ivp``). The whole
    run is generated once per state length and number of args
    (``_rk4_run``) and updates each component in the order of the array
    form y + (h/6) (k1 + 2 k2 + 2 k3 + k4), so the result is the same to
    the last bit. It returns at the first state out of range, and
    ``_recorder``'s rule tells the two aborts above apart.
    """
    t0, t1 = _check_span(t_span)
    y0, threshold = _prepare(y0, blowup_threshold)
    _check_positive("dt", dt)
    steps = fixed_steps(t0, t1, dt)
    check_sample_budget(steps + 1)
    check_step(t0, t1, dt)

    args = tuple(args)
    y = tuple(y0.tolist())
    times, states, finish = _recorder(t0, y, threshold)
    if max(map(abs, y)) > threshold:
        return finish("initial", t0)

    t = t0 + dt * 0  # not t0: the grid's first time is +0.0 for -0.0
    k1 = rhs(t, y, *args)
    _check_rhs_length(k1, len(y))  # the run's unpacking names neither length
    return finish(*_rk4_run(len(y), len(args))(
        rhs, t, y, k1, t0, dt, t1, steps, threshold, times.append,
        states.extend, *args))


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


def _initial_step(t0, t1, y0, f0, rtol, atol):
    """First step: 0.01 d0 / d1 from the scaled RMS norms of y0 and f0, or
    1e-3 of the span where that step is 0, inf or too small to move t0 (a
    norm too small to trust, or one that a tolerance near 0 inflates)."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 0.0
    if not (0.0 < h < math.inf and t0 + h > t0):
        h = 1e-3 * (t1 - t0)
    return min(h, t1 - t0)


def _cap_step(h, t, windows):
    """h capped by each (start, end, width) window ahead of or around t."""
    for start, end, width in windows:
        if t < end:
            h = min(h, max(start - t, 0.0) + max(width, math.ulp(t)))
    return h


_DP_RUN_SOURCE = """\
def dp_run(rhs, t, y, h, f, t1, km, dots, sm, atol, rtol, thr, windows,
           max_steps, append, extend{args}):
    {y} = y
    fsal = km[{row6}:]
    (d2, d3, d4, d5, d6, de) = dots
    lo = -thr
    attempts = rejected = retried = calls = 0
    while t < t1:
        if attempts >= max_steps:
            return "limit", t, None, calls, rejected, retried
        attempts += 1
        if windows:
            h = cap(h, t, windows)
        last = h >= t1 - t  # t + (t1 - t) may round off t1: record t1
        if last:
            h = t1 - t
        if t + h == t:
            return "underflow", t, None, calls, rejected, retried
        km[:{n}] = f
        {f} = f
{stages}
        calls += 6
        de()
        {e} = sm
{norm}
        if not isfinite(err):
            retried += 1
            h *= 0.25
            continue
        if err > 1.0:  # safety factor 0.9, step factors 0.2 to 5
            rejected += 1
            g = 0.9 * err ** -0.2
            h *= g if g > 0.2 else 0.2
            continue
        t = t1 if last else t + h
        if not ({in_range}):
            return "guard", t, z, calls, rejected, retried
        append(t)
        extend(z)
        {y} = z
        f = fsal
        if err == 0.0:
            h *= 5.0
        else:
            g = 0.9 * err ** -0.2
            g = g if g > 0.2 else 0.2
            h *= g if g < 5.0 else 5.0
    return "t1", t, None, calls, rejected, retried
"""


@functools.lru_cache(maxsize=8)
def _dp_run(n: int, m: int = 0):
    """The Dormand-Prince 5(4) run for states of length n and m args,
    written out per component.

    Returns ``run(rhs, t, y, h, f, t1, km, dots, sm, atol, rtol, thr,
    windows, max_steps, append, extend, a0, ..., a(m-1))``,
    integrate_adaptive's step loop: from the state tuple ``y`` at ``t``
    and the first step ``h`` it attempts steps until ``t1``, passing each
    accepted time to ``append`` and state to ``extend``. It spells out
    the args in every ``rhs`` call, as ``_rk4_run`` does. It returns
    ``(end, t, state, calls, rejected, retried)``: ``end`` is "t1",
    "limit" (``max_steps`` attempts made), "underflow" (a step too small
    to move t) or "guard" (``state``, unrecorded, is past [-thr, thr]),
    ``t`` where that happened.

    ``km`` is a flat memoryview of the (7, n) stage buffer and ``f`` a
    view of the row holding the derivative at (t, y), which each attempt
    copies to row 0; on acceptance ``f`` becomes row 6 (first same as
    last). Each stage's result is unpacked into its row of ``km``, so one
    of the wrong length is a ``ValueError``. A non-finite stage or error
    norm retries the step at a quarter of its size. Each component is
    guarded once, ``-thr <= z_j <= thr``, which fails on inf and past the
    guard alike (``_recorder`` tells them apart); a nan state has a nan
    norm and never gets there. The step factors are conditional
    expressions that give what ``min`` and ``max`` give, nan included.

    ``dots`` holds six calls without arguments: the sums of stages 2 to 6
    and of the error weights, each ``kT[:, :i].dot(a, sums)`` on the
    transposed buffer ``kT``, written into the one n-vector ``sums``,
    which the memoryview ``sm`` reads back, so no sum allocates an array.
    They stay BLAS dgemv products: dgemv adds their terms with fused
    multiply-adds in a blocked order, which no sum of Python floats
    reproduces (math.fma needs Python 3.13), so any other form moves the
    last bits of every trajectory. The dgemv is ``a @ k[:i]``'s, on the
    same memory, through a cheaper entry point. Stage 1's (n, 1) product
    skips dgemv and gives -0.0 where dgemv gives +0.0, so stage 1 is the
    float form ``a1 * f_j + 0.0``, which matches dgemv. TestStageSums in
    tests/test_solver.py checks each of these identities. The rest is
    float arithmetic in the order of the array form, so the result is
    the same to the last bit; the error norm adds its squares left to
    right for n < 8, as ``np.mean`` does, and calls ``np.mean``
    (pairwise) from 8 on.

    The source is generated and cached like ``_rk4_run``'s, and its cost
    grows with n the same way. On a 2-CPU Xeon host (Python 3.11),
    generation took 1.7-2.0 ms at n = 2 and 0.35-0.41 s at n = 1,000.
    Every caller in the package integrates n = 2, so there is one path
    and no size threshold.
    """
    extra = _extra(m)
    finite = " and ".join(f"isfinite(k{j})" for j in range(n))
    a1 = float(_A[1][0])
    stages = []
    for i in range(1, 7):
        if i == 1:
            arg = _display([f"y{j} + h * ({a1!r} * f{j} + 0.0)"
                            for j in range(n)])
        else:
            stages += [f"        d{i}()", f"        {_names('s', n)} = sm"]
            arg = _display([f"y{j} + h * s{j}" for j in range(n)])
        if i == 6:  # stage 6's argument is the fifth-order solution
            stages.append(f"        {_names('z', n)} = z = {arg}")
            arg = "z"
        row = _display([f"km[{i * n + j}]" for j in range(n)])
        stages += [f"        {row} = {_names('k', n)} = "
                   f"rhs(t + {_C[i]!r} * h, {arg}{extra})",
                   f"        if not ({finite}):", f"            calls += {i}",
                   "            retried += 1", "            h *= 0.25",
                   "            continue"]
    # u if u >= v else v keeps np.maximum's nan, which max() drops: a nan
    # in z gives a nan norm and a retried attempt
    norm = []
    for j in range(n):
        norm += [f"        u{j}, v{j} = abs(y{j}), abs(z{j})",
                 f"        q{j} = h * e{j} / (atol + rtol * "
                 f"(u{j} if u{j} >= v{j} else v{j}))"]
    squares = [f"q{j} * q{j}" for j in range(n)]
    norm.append("        err = sqrt(" + (f"({' + '.join(squares)}) / {n})"
                                         if n < 8 else
                                         f"mean([{', '.join(squares)}]))"))
    return _generate("_dp_run", n, m, _DP_RUN_SOURCE.format(
        args=extra, y=_names("y", n), n=n, row6=6 * n, f=_names("f", n),
        stages="\n".join(stages), e=_names("e", n), norm="\n".join(norm),
        in_range=" and ".join(f"lo <= z{j} <= thr" for j in range(n))),
        isfinite=math.isfinite, sqrt=math.sqrt, mean=np.mean, cap=_cap_step)


# a blow-up overflows stage values, stage sums or the error norm; the step
# loop turns each non-finite one into a rejection or an abort, not a warning
@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(rhs: RHS, y0, t_span, rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL,
                       max_steps: int = DEFAULT_MAX_STEPS,
                       blowup_threshold: Optional[float] = None,
                       windows: Sequence[Tuple[float, float, float]] = (),
                       args: Sequence = ()) -> Trajectory:
    """Integrate y' = rhs(t, y, *args) with an embedded Dormand-Prince 5(4)
    pair.

    Step sizes follow the standard proportional controller on the RMS of
    the scaled local error estimate (scale = atol + rtol*|y|). The initial
    point and every accepted step point are recorded. ``rtol`` must be at
    least MIN_RTOL (see check_rtol).

    ``windows`` holds (start, end, width) spans where ``rhs`` has a
    feature as narrow as width, which a step grown on the slow dynamics
    around it could jump. Before each attempt the step is capped at width
    inside a window and at (start - t) + width before one, so it lands
    at most width into the window; after a window nothing is capped.
    The width is floored at the float spacing at t, so a window
    narrower than that cannot stall the run.

    Aborts with ABORTED_BLOWUP when the initial state exceeds the guard
    (tested before any ``rhs`` call), when rhs(t0, y0) is non-finite,
    when an accepted state exceeds the guard (recorded only if finite) or
    when the step size underflows near a finite-time singularity, and with
    ABORTED_STEP_LIMIT when ``max_steps`` step attempts are exhausted. A
    first step that cannot move t0 is a ``ValueError``.

    The state is a tuple of Python floats, and ``rhs`` receives it as
    one, followed by ``args`` (as in SciPy's ``solve_ivp``); a result of
    the wrong length is a ``ValueError`` at every stage. The whole step
    loop is one call of the run generated for the state length and
    number of args (``_dp_run``), whose stage sums stay BLAS products on
    a (7, n) stage buffer, written into one n-vector, so the result is
    the array form's to the last bit. The step's result is stage 6's
    argument, since the tableau's last row is the fifth-order weight row.
    An attempt after the first accepted step starts from row 6 as it
    stands (first same as last), which after a rejection is the rejected
    trial's last stage, not rhs(t, y, *args). The pinned bytes
    (perfbench/golden.json, TestAdaptiveBits) record that behaviour, so
    its fix waits for a re-record of them.
    """
    t0, t1 = _check_span(t_span)
    y0, threshold = _prepare(y0, blowup_threshold)
    _check_positive("rtol", rtol)
    check_rtol(rtol)
    _check_positive("atol", atol)
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) \
            or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, "
                         f"got {max_steps!r}")

    args = tuple(args)
    n = y0.size
    y = tuple(y0.tolist())
    times, states, finish = _recorder(t0, y, threshold, max_steps)
    if max(map(abs, y)) > threshold:
        return finish("initial", t0)
    f = rhs(t0, y, *args)
    _check_rhs_length(f, n)
    if not all(map(math.isfinite, f)):
        return finish("non-finite", t0, rhs_evals=1)

    h = float(_initial_step(t0, t1, y0, f, rtol, atol))
    if t0 + h == t0:
        raise ValueError(f"first step h = {h!r} does not move t0 = {t0!r}")
    k = np.empty((7, n))
    k[0] = f
    kT = k.T
    sums = np.empty(n)
    dots = tuple(functools.partial(kT[:, :i].dot, _A[i], sums)
                 for i in range(2, 7)) + (functools.partial(kT.dot, _E, sums),)
    km = memoryview(k).cast("B").cast("d")
    # row 0 holds f until the first accepted step, and row 6 from then on
    end, t, z, calls, rejected, retried = _dp_run(n, len(args))(
        rhs, t0, y, h, km[:n], t1, km, dots, memoryview(sums), atol, rtol,
        threshold, windows, max_steps, times.append, states.extend, *args)
    return finish(end, t, z, rhs_evals=1 + calls, rejected=rejected,
                  retried=retried)
