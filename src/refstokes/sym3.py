"""Algebra of symmetric trace-free 3x3 matrices.

Strain rates and stresslet coefficients live in the 5-dimensional space of
symmetric trace-free matrices. Throughout the library an element of that
space is a plain ndarray of 5 coefficients in the fixed orthonormal basis
below (orthonormal w.r.t. the Frobenius inner product), and a linear map on
the space ("mobility") is a plain 5x5 ndarray acting on coefficients.

Basis:
    E1 = diag(1,-1,0)/sqrt(2)      E2 = diag(1,1,-2)/sqrt(6)
    E3 = (e1 e2' + e2 e1')/sqrt(2) E4 = (e1 e3' + e3 e1')/sqrt(2)
    E5 = (e2 e3' + e3 e2')/sqrt(2)

The basis is written once, as the closed forms `sym_matrix` and
`sym_coefficients` in the pair kernels' component-major layout (coefficient
or entry axis first). `BASIS`, `embed` and `project_sym_tracefree` derive
from them in the coefficient-last layout of everything else, and
`apply_mobility` is the one spelling of a mobility's action. Diagonal strains
are sparse in this basis. All functions broadcast over leading axes but
`sym_from_list`, the one strain rule every function taking a strain applies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BASIS", "sym_matrix", "sym_coefficients", "project_sym_tracefree", "embed",
           "apply_mobility", "frobenius", "sym_from_list"]

_IS2 = 1.0 / np.sqrt(2.0)
_IS6 = 1.0 / np.sqrt(6.0)


def sym_matrix(c):
    """The symmetric matrices with the component-major coefficients c (5
    arrays), as one (3, 3, ...) array of entries."""
    xx, yy, zz = c[0] * _IS2 + c[1] * _IS6, c[1] * _IS6 - c[0] * _IS2, -2.0 * _IS6 * c[1]
    xy, xz, yz = c[2] * _IS2, c[3] * _IS2, c[4] * _IS2
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def sym_coefficients(e, out=(None,) * 5):
    """The 5 coefficients <E_a, S> of the symmetric S with diagonal e[0:3] and off-diagonal
    xy, xz, yz = e[3:6] / 2, each counted twice as in a Frobenius product. Each is
    written into its array of `out` when given (which may be e[3:6] for the last three)."""
    c0 = np.multiply(np.subtract(e[0], e[1], out=out[0]), _IS2, out=out[0])
    c1 = np.subtract(np.add(e[0], e[1], out=out[1]), 2.0 * e[2], out=out[1])
    return [c0, np.multiply(c1, _IS6, out=out[1])] + [
        np.multiply(x, _IS2, out=y) for x, y in zip(e[3:], out[2:])]


BASIS = np.ascontiguousarray(np.moveaxis(sym_matrix(np.eye(5)), -1, 0))
BASIS.setflags(write=False)


def project_sym_tracefree(M):
    """Orthogonal projection of 3x3 matrices onto symmetric trace-free ones.

    Returns the 5 coefficients of (M + M')/2 - tr(M)/3 I in the fixed basis.
    Because the basis matrices are themselves symmetric and trace-free, the
    coefficients are plain Frobenius contractions <M, E_a>, the
    `sym_coefficients` of M's diagonal and its summed off-diagonal pairs, which
    makes the projection exactly self-adjoint. Broadcasts over leading axes of M.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing 3x3 axes, got shape {M.shape}")
    out = np.empty(M.shape[:-2] + (5,))
    o = [out[..., a] for a in range(5)]      # 0-d views, not scalars, for a lone matrix
    e = [M[..., i, i] for i in range(3)] + [np.add(M[..., i, j], M[..., j, i], out=a)
                                            for a, (i, j) in zip(o[2:], ((0, 1), (0, 2), (1, 2)))]
    sym_coefficients(e, out=o)
    return out


def embed(s):
    """Inverse of the coefficient representation: 5 coefficients -> 3x3 matrix."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != 5:
        raise ValueError(f"expected trailing axis of length 5, got shape {s.shape}")
    return np.moveaxis(sym_matrix(np.moveaxis(s, -1, 0)), (0, 1), (-2, -1))


def apply_mobility(m, s):
    """Apply a 5x5 mobility matrix to strain coefficients (linear in s)."""
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.einsum("...ab,...b->...a", m, s)


def frobenius(s1, s2):
    """Frobenius inner product of two coefficient vectors (basis orthonormal)."""
    return np.einsum("...a,...a->...", np.asarray(s1, float), np.asarray(s2, float))


def sym_from_list(data):
    """The one strain rule: 5 finite numbers, in any shape, as a float (5,) array."""
    arr = np.asarray(data, dtype=float)
    if arr.size != 5 or not np.isfinite(arr).all():
        raise ValueError("a strain must be 5 finite numbers")
    return arr.reshape(5)
