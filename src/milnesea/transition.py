"""2x2 transition matrices describing how the medium transforms a signal.

Two closed forms are provided for the transition matrix:

* the composed form, a rotation sandwich D(tau) . K(2 delta) . D(tau)
  where the kernel K carries the envelope squares on its off-diagonal,
* the expanded form, written directly in single angles.

The two are NOT algebraically equal and are deliberately kept as written;
``compare_forms`` measures the gap between them entrywise so downstream
users can see exactly how far apart they sit for given parameters.
Both broadcast: envelope squares of shape S give matrices S + (2, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustic_signal import SignalSpec
from .medium import MediumSpec
from .milne import q_plus_minus_squared

COMPOSED = "composed"
EXPANDED = "expanded"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def rotation(tau: float) -> np.ndarray:
    """Read-only rotation matrix [[cos tau, -sin tau], [sin tau, cos tau]]."""
    c = math.cos(tau)
    s = math.sin(tau)
    return _freeze(np.array([[c, -s], [s, c]]))


def _matrices(m11, m12, m21, m22) -> np.ndarray:
    """2x2 matrices from broadcastable entries: shape S + (2, 2)."""
    entries = np.broadcast_arrays(m11, m12, m21, m22)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def composed_from_q(q_plus_sq, q_minus_sq, delta: float,
                    tau: float) -> np.ndarray:
    """Rotation-sandwich form D(tau) . K(2 delta) . D(tau).

    The kernel K = [[cos 2d, q_minus^2 sin 2d], [-q_plus^2 sin 2d, cos 2d]]
    is multiplied by the SAME rotation on both sides (not a similarity
    transform; neither side is inverted). With both envelope squares
    forced to 1 the whole product collapses to a rotation by
    2 tau - 2 delta.
    """
    d = rotation(tau)
    c2 = math.cos(2.0 * delta)
    s2 = math.sin(2.0 * delta)
    kernel = _matrices(c2, q_minus_sq * s2, -q_plus_sq * s2, c2)
    return d @ kernel @ d


def expanded_from_q(q_plus_sq, q_minus_sq, delta: float,
                    tau: float) -> np.ndarray:
    """Direct single-angle form of the transition matrix."""
    ct = math.cos(tau)
    st = math.sin(tau)
    cd = math.cos(delta)
    sd = math.sin(delta)
    return _matrices(ct * cd + q_minus_sq * st * sd,
                     q_minus_sq * sd * ct - st * cd,
                     st * cd - q_plus_sq * sd * ct,
                     cd * ct + q_plus_sq * st * sd)


@dataclass(frozen=True)
class FormComparison:
    """Both transition-matrix forms at the times ``t`` and their gap.

    ``composed`` and ``expanded`` are read-only arrays of shape S + (2, 2)
    for times of shape S; ``discrepancy`` is the max |difference| of their
    entries per time. Scalar t gives Python floats ``t`` and
    ``discrepancy``.
    """

    t: float
    composed: np.ndarray
    expanded: np.ndarray
    discrepancy: float


def compare_forms(e_m: float, delta: float, tau: float, spec: SignalSpec,
                  medium: MediumSpec, t) -> FormComparison:
    """Both forms at scalar or array t and their max |difference| per time.

    The forms share one evaluation of the envelope squares; where those
    overflow the entries come out non-finite, without a warning.
    """
    t = np.asarray(t, dtype=float)
    qp, qm = q_plus_minus_squared(e_m, tau, spec, medium, t)
    with np.errstate(over="ignore", invalid="ignore"):
        comp = _freeze(composed_from_q(qp, qm, delta, tau))
        expa = _freeze(expanded_from_q(qp, qm, delta, tau))
        gap = np.max(np.abs(comp - expa), axis=(-2, -1))
    if t.ndim == 0:
        t, gap = t.item(), gap.item()
    return FormComparison(t, comp, expa, gap)
