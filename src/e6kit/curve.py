"""The curve commutator cross-check: the bracket from finite group actions.

The second difference of a commutator curve of two one-parameter actions is
compared with the exact bracket of their doubled tangents.  No CLI verb runs
this; the tests do.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Optional

from . import jordan
from .algebra import DIM, _flat, _flat_commutator, _operand, doubled_tangent
from .group import GeneratorLabel, apply
from .jordan import from_coords, to_coords


class StepTooLarge(RuntimeError):
    pass


def _calibration_chi() -> jordan.JordanElement:
    rng = random.Random(0)
    return from_coords([Fraction(rng.randint(-9, 9)) for _ in range(DIM)])


def _second_difference(label1, label2, h, chi):
    def curve(alpha):
        x = apply(label1, alpha / 2, chi)
        x = apply(label2, alpha / 2, x)
        x = apply(label1, -alpha / 2, x)
        x = apply(label2, -alpha / 2, x)
        return [float(v) for v in to_coords(x)]

    f0 = [float(v) for v in to_coords(chi)]
    fp, fm = curve(h), curve(-h)
    return [(a - 2 * b + c) / (h * h) for a, c, b in zip(fp, fm, f0)]


def _bracket_on(label1: GeneratorLabel, label2: GeneratorLabel, chi) -> list[Fraction]:
    """[T1, T2] chi, exact: a quarter of [2T1, 2T2] (_flat_commutator) applied to chi."""
    x, y = (_operand(_flat(doubled_tangent(label))) for label in (label1, label2))
    coords = [Fraction(v) for v in to_coords(chi)]
    out = [Fraction(0)] * DIM
    for key, v in _flat_commutator(x, y).items():
        r, c = divmod(key, DIM)
        out[r] += v * coords[c]
    return [v / 4 for v in out]


@functools.cache
def calibration_constant() -> float:
    """The curve constant fitted on (A_i, A_j) at step 1e-3, measured once per process.

    curve_commutator divides by the exact 1/2; this fit is the check that
    the second difference really is half the bracket.
    """
    l1 = GeneratorLabel("A", 1, axis="i")
    l2 = GeneratorLabel("A", 1, axis="j")
    chi = _calibration_chi()
    fd = _second_difference(l1, l2, 1e-3, chi)
    mc = [float(v) for v in _bracket_on(l1, l2, chi)]
    return sum(a * b for a, b in zip(fd, mc)) / sum(b * b for b in mc)


def curve_commutator(label1: GeneratorLabel, label2: GeneratorLabel,
                     h: float, chi: jordan.JordanElement,
                     tol: Optional[float] = None) -> list[float]:
    """Finite-difference estimate of [T1, T2] applied to chi.

    The second difference of the curve g2(-a/2) g1(-a/2) g2(a/2) g1(a/2)
    approaches 1/2 [T1, T2] chi, so the estimate is twice it.
    """
    est = [2 * v for v in _second_difference(label1, label2, h, chi)]
    if tol is not None:
        mc = _bracket_on(label1, label2, chi)
        err = max(abs(a - float(b)) for a, b in zip(est, mc))
        scale = max(1.0, max(abs(float(b)) for b in mc))
        if err / scale > tol:
            raise StepTooLarge(f"relative mismatch {err / scale:g} exceeds {tol:g}")
    return est
