"""Piecewise polynomials and the clamped cubic spline, in numpy alone.

The Morawetz weight profiles and the radial ground-state profile are
both piecewise polynomials built here.
"""

from __future__ import annotations

import numpy as np


class _PiecewisePoly:
    """Piecewise polynomial in the local power basis (the layout of scipy's PPoly).

    c[m, i] multiplies (v - x[i])^(k - m) on [x[i], x[i+1]], k = len(c) - 1;
    beyond the ends the first and last pieces extend.
    """

    def __init__(self, c, x):
        self.c = np.array(c, dtype=float)
        self.x = np.asarray(x, dtype=float)

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, side="right") - 1, 0, self.x.size - 2)
        t = v - self.x[i]
        out = self.c[0, i]
        for row in self.c[1:]:
            out = out * t + row[i]
        return out

    def derivative(self) -> "_PiecewisePoly":
        k = self.c.shape[0] - 1
        return _PiecewisePoly(self.c[:-1] * np.arange(k, 0, -1)[:, None], self.x)

    def antiderivative(self) -> "_PiecewisePoly":
        """The antiderivative that vanishes at x[0] and is continuous at the knots."""
        k = self.c.shape[0] - 1
        c = np.vstack([self.c / np.arange(k + 1, 0, -1)[:, None], np.zeros(self.c.shape[1])])
        h = np.diff(self.x)
        rise = c[0]
        for row in c[1:-1]:
            rise = rise * h + row
        c[-1, 1:] = np.cumsum(rise * h)[:-1]
        return _PiecewisePoly(c, self.x)


def _clamped_spline(x: np.ndarray, y: np.ndarray) -> _PiecewisePoly:
    """Cubic spline through (x, y) with zero slope at both ends.

    The interior knot slopes s solve the tridiagonal system
    h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
        = 3 (h_i delta_{i-1} + h_{i-1} delta_i),
    diagonally dominant, so the Thomas elimination needs no pivoting.
    """
    h = np.diff(x)
    delta = np.diff(y) / h
    sub, diag, sup = h[1:].tolist(), (2.0 * (h[:-1] + h[1:])).tolist(), h[:-1].tolist()
    rhs = (3.0 * (h[1:] * delta[:-1] + h[:-1] * delta[1:])).tolist()
    for i in range(1, len(diag)):
        f = sub[i] / diag[i - 1]
        diag[i] -= f * sup[i - 1]
        rhs[i] -= f * rhs[i - 1]
    s = [0.0] * (len(diag) + 2)
    for i in range(len(diag) - 1, -1, -1):
        s[i + 1] = (rhs[i] - sup[i] * s[i + 2]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * delta) / h
    return _PiecewisePoly([t / h, (delta - s[:-1]) / h - t, s[:-1], y[:-1]], x)
