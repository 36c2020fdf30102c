"""Closed-form group law of the origin-fixing automorphisms, used as an oracle.

``H(z, w) = (s U (z + a w), s^2 w) / D`` with
``D = 1 - 2i <z, a> + (R - i ||a||^2) w`` is linear in homogeneous
coordinates ``(z, w, 1)``.  Its (d+2) x (d+2) projective matrix has the rows

    [ s U        s U a          0 ]
    [ 0          s^2            0 ]
    [ -2i a^H    R - i ||a||^2  1 ]

and a last column that is always ``e_{d+2}``.  Composition is the matrix
product and inversion the matrix inverse; the parameters are read back off
the blocks.  None of this goes through the package's jet machinery, so it
checks ``compose``, ``invert`` and jet recovery independently.
"""

from __future__ import annotations

import math

import numpy as np


def matrix(p) -> np.ndarray:
    """Projective matrix of the automorphism with parameters ``p``."""
    d = p.U.shape[0]
    a = np.asarray(p.a, dtype=complex)
    M = np.zeros((d + 2, d + 2), dtype=complex)
    M[:d, :d] = p.s * p.U
    M[:d, d] = p.s * (p.U @ a)
    M[d, d] = p.s**2
    M[d + 1, :d] = -2j * np.conj(a)
    M[d + 1, d] = p.R - 1j * float(np.vdot(a, a).real)
    M[d + 1, d + 1] = 1.0
    return M


def params_of(M: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Read ``(U, s, a, R)`` off a projective matrix with last column e_{d+2}."""
    d = M.shape[0] - 2
    s = math.sqrt(M[d, d].real)
    sU = M[:d, :d]
    return sU / s, s, np.linalg.solve(sU, M[:d, d]), float(M[d + 1, d].real)


def compose(outer, inner) -> tuple:
    """Closed-form parameters of ``outer o inner``."""
    return params_of(matrix(outer) @ matrix(inner))


def invert(p) -> tuple:
    """Closed-form parameters of the inverse automorphism."""
    return params_of(np.linalg.inv(matrix(p)))


def exact(p) -> tuple:
    """The parameters themselves, as the oracle for jet recovery."""
    return p.U, p.s, np.asarray(p.a, dtype=complex), p.R


def distance(p, expected: tuple) -> float:
    """``param_distance`` between computed parameters and an oracle tuple."""
    U, s, a, R = expected
    return max(
        float(np.linalg.norm(p.U - U, 2)),
        abs(p.s - s),
        float(np.linalg.norm(p.a - a)),
        abs(p.R - R),
    )
