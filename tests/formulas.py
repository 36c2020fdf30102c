"""The package's maps as direct formulas, written independently of its code.

Each formula acts on one point, a list of coordinates (Siegel points as
``(z, w)`` with ``z`` a list), using only arithmetic and ``conjugate()``, so
the same code runs on Python complex numbers and on mpmath's ``mpc`` at any
precision.  A point on a pole raises ``ZeroDivisionError``.  The tests use
them as the oracle for the package's one projective kernel.
"""


def _dot(u, v):
    """sum_k u_k v_k."""
    return sum(x * y for x, y in zip(u, v))


def _inner(u, v):
    """sum_k u_k conj(v_k)."""
    return _dot(u, [y.conjugate() for y in v])


def cayley(Z):
    """z = zeta / (1 + eta), w = i (1 - eta) / (1 + eta)."""
    *zeta, eta = Z
    den = 1 + eta
    return [x / den for x in zeta], 1j * (1 - eta) / den


def inverse_cayley(z, w):
    """zeta = 2i z / (i + w), eta = (i - w) / (i + w), as one list."""
    den = 1j + w
    return [2j * x / den for x in z] + [(1j - w) / den]


def omega(U, s, z, w):
    """(z, w) -> (s U z, s^2 w)."""
    return [s * _dot(row, z) for row in U], s * s * w


def phi_a(a, z, w):
    """((z + w a) / d, w / d) with d = 1 - 2i <z, a> - i w ||a||^2."""
    d = 1 - 2j * _inner(z, a) - 1j * w * _inner(a, a)
    return [(x + w * y) / d for x, y in zip(z, a)], w / d


def h_R(R, z, w):
    """(z, w) / (1 + R w)."""
    d = 1 + R * w
    return [x / d for x in z], w / d


def automorphism(U, s, a, R, z, w):
    """(s U (z + a w) / D, s^2 w / D), D = 1 - 2i <z, a> + (R - i ||a||^2) w."""
    D = 1 - 2j * _inner(z, a) + (R - 1j * _inner(a, a)) * w
    shifted = [x + y * w for x, y in zip(z, a)]
    return [s * _dot(row, shifted) / D for row in U], s * s * w / D


def factored(U, s, a, R, z, w):
    """omega_{U,s} o phi_a o h_R, factor by factor."""
    return omega(U, s, *phi_a(a, *h_R(R, z, w)))


def ball_automorphism(U, s, a, R, Z):
    """The automorphism conjugated by the Cayley transform."""
    return inverse_cayley(*automorphism(U, s, a, R, *cayley(Z)))


def jet2(U, s, a, R):
    """The 2-jet of ``automorphism`` at the origin as (f_z, f_w, g_z, g_w,
    g_ww, f_zw, f_ww), f_z[i][j] = d f_i / d z_j, from the expansion
    1/D = 1 + 2i <z, a> - beta w + (second order), beta = R - i ||a||^2:
    f_zw = sU (-beta I + 2i a a^H) and f_ww = -2 beta sUa."""
    beta = R - 1j * _inner(a, a)
    sU = [[s * x for x in row] for row in U]
    f_w = [_dot(row, a) for row in sU]
    f_zw = [[2j * x * y.conjugate() - beta * u for y, u in zip(a, row)]
            for x, row in zip(f_w, sU)]
    return (sU, f_w, [0] * len(a), s * s, -2 * beta * s * s, f_zw,
            [-2 * beta * x for x in f_w])
