"""Focal length from a single fundamental matrix and a known principal point.

With the principal point moved to the origin and square pixels assumed, the
epipolar constraint on the image of the absolute conic reduces to
F C F' = s [e]x C [e]x' with C = diag(f^2, f^2, 1). Both sides, L and R, are
linear in y = f^2; the scale-free misalignment 1 - a^2 / (p q), with a = L.R,
p = |L|^2 and q = |R|^2 quadratic in y, is minimised in closed form over the
roots of one quintic and evaluated there as the squared rejection of one
unit side from the other (the entry-wise ratio system in raw form is
hopelessly noise-sensitive).
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateMotion, NegativeFocalSquared
from ..geometry import FundamentalPair, skew

Array = np.ndarray

_DIAG110 = np.diag([1.0, 1.0, 0.0])

_FOCAL_SPAN = (0.02, 50.0)  # focal range, multiples of the coordinate scale


def _sides(pair: FundamentalPair, principal: tuple[float, float]):
    """Linear-in-y parts of both sides, in centered and rescaled coordinates."""
    cx, cy = principal
    sigma = max(1.0, cx + cy)
    S = np.array([[1.0, 0.0, -cx], [0.0, 1.0, -cy], [0.0, 0.0, 1.0]])
    D = np.diag([1.0 / sigma, 1.0 / sigma, 1.0])
    T = D @ S
    Tinv = np.linalg.inv(T)
    F = Tinv.T @ pair.fundamental @ Tinv
    F = F / np.linalg.norm(F)
    e = T @ pair.epipole_right
    e = e / np.linalg.norm(e)
    L1 = F @ _DIAG110 @ F.T
    f3 = F[:, 2]
    L0 = np.outer(f3, f3)
    E = skew(e)
    R1 = E @ _DIAG110 @ E.T
    q = np.cross(e, np.array([0.0, 0.0, 1.0]))
    R0 = np.outer(q, q)
    return sigma, L1, L0, R1, R0


def _ratio_rows(L1: Array, L0: Array, R1: Array, R0: Array) -> Array:
    """Coefficients (c2, c1, c0) of the cross-multiplied column ratios."""
    rows = []
    for a in range(3):
        for b in range(2):
            c2 = L1[a, b] * R1[a, 2] - L1[a, 2] * R1[a, b]
            c1 = (
                L1[a, b] * R0[a, 2]
                + L0[a, b] * R1[a, 2]
                - L1[a, 2] * R0[a, b]
                - L0[a, 2] * R1[a, b]
            )
            c0 = L0[a, b] * R0[a, 2] - L0[a, 2] * R0[a, b]
            rows.append((c2, c1, c0))
    return np.array(rows)


def _misalignment(L1, L0, R1, R0, y: Array) -> Array:
    """sin^2 of the angle between the stacked sides, per y value: the squared
    norm of the unit left side's rejection from the unit right side, which
    keeps the digits that 1 - cos^2 loses when the sides are nearly parallel."""
    L = y[:, None] * L1.ravel()[None, :] + L0.ravel()[None, :]
    R = y[:, None] * R1.ravel()[None, :] + R0.ravel()[None, :]
    L = L / np.maximum(np.linalg.norm(L, axis=1, keepdims=True), 1e-300)
    R = R / np.maximum(np.linalg.norm(R, axis=1, keepdims=True), 1e-300)
    rejection = L - np.einsum("ij,ij->i", L, R)[:, None] * R
    return np.einsum("ij,ij->i", rejection, rejection)


def _stationary_points(L1, L0, R1, R0) -> Array:
    """Roots of 2 a' p q - a (p' q + p q'), the numerator of d(cos^2)/dy
    over a, with a = L.R, p = |L|^2 and q = |R|^2."""
    l1, l0, r1, r0 = (M.ravel() for M in (L1, L0, R1, R0))
    P = np.polynomial.Polynomial  # coefficients in ascending powers of y
    a = P([l0 @ r0, l1 @ r0 + l0 @ r1, l1 @ r1])
    p = P([l0 @ l0, 2.0 * (l1 @ l0), l1 @ l1])
    q = P([r0 @ r0, 2.0 * (r1 @ r0), r1 @ r1])
    return (2.0 * a.deriv() * p * q - a * (p.deriv() * q + p * q.deriv())).roots()


def solve_kruppa_focal(pair: FundamentalPair, principal: tuple[float, float]) -> float:
    """Shared focal length in pixels implied by one camera pair.

    The exact minimiser of the misalignment over f in _FOCAL_SPAN times the
    coordinate scale: the best of the range ends and the quintic's roots
    between them. Raises DegenerateMotion when the ratio system is rank
    deficient or the misalignment cost is flat (for example pure translation
    along the optical axis), and NegativeFocalSquared when the minimum lies
    at a range end.
    """
    sigma, L1, L0, R1, R0 = _sides(pair, principal)

    rows = _ratio_rows(L1, L0, R1, R0)
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 1e-14 * max(float(norms.max()), 1e-300)
    if keep.sum() == 0:
        raise DegenerateMotion("all ratio constraints vanish for this pair")
    s = np.linalg.svd(rows[keep] / norms[keep, None], compute_uv=False)
    if len(s) < 2 or s[1] < 1e-10 * s[0]:
        raise DegenerateMotion(
            f"focal-length system is rank deficient (singular values {s})"
        )

    lo, hi = _FOCAL_SPAN[0] ** 2, _FOCAL_SPAN[1] ** 2
    # a complex root's real part is a harmless extra candidate: the cost there
    # is never below the minimum, which lies at a real root or a range end
    roots = _stationary_points(L1, L0, R1, R0).real
    ys = np.concatenate([[lo, hi], roots[(roots > lo) & (roots < hi)]])
    cost = _misalignment(L1, L0, R1, R0, ys)
    if float(cost.max() - cost.min()) < 1e-12:
        raise DegenerateMotion("misalignment cost is flat in f^2")
    k = int(np.argmin(cost))
    if k < 2:
        raise NegativeFocalSquared("no interior optimum for f^2 in the search range")
    return sigma * float(np.sqrt(ys[k]))
