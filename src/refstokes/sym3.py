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

Diagonal strains are sparse in this basis. Everything here is pure
float64 ndarray manipulation; all functions broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BASIS",
    "project_sym_tracefree",
    "embed",
    "apply_mobility",
    "frobenius",
    "sym_from_list",
]


def _build_basis():
    b = np.zeros((5, 3, 3))
    b[0] = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    b[1] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    b[2, 0, 1] = b[2, 1, 0] = 1.0 / np.sqrt(2.0)
    b[3, 0, 2] = b[3, 2, 0] = 1.0 / np.sqrt(2.0)
    b[4, 1, 2] = b[4, 2, 1] = 1.0 / np.sqrt(2.0)
    b.setflags(write=False)
    return b


BASIS = _build_basis()


def project_sym_tracefree(M):
    """Orthogonal projection of 3x3 matrices onto symmetric trace-free ones.

    Returns the 5 coefficients of (M + M')/2 - tr(M)/3 I in the fixed basis.
    Because the basis matrices are themselves symmetric and trace-free, the
    coefficients are plain Frobenius contractions <M, E_a>, which makes the
    projection exactly self-adjoint. Broadcasts over leading axes of M.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing 3x3 axes, got shape {M.shape}")
    return np.einsum("aij,...ij->...a", BASIS, M)


def embed(s):
    """Inverse of the coefficient representation: 5 coefficients -> 3x3 matrix."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != 5:
        raise ValueError(f"expected trailing axis of length 5, got shape {s.shape}")
    return np.einsum("...a,aij->...ij", s, BASIS)


def apply_mobility(m, s):
    """Apply a 5x5 mobility matrix to strain coefficients (linear in s)."""
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.einsum("...ab,...b->...a", m, s)


def frobenius(s1, s2):
    """Frobenius inner product of two coefficient vectors (basis orthonormal)."""
    return np.einsum("...a,...a->...", np.asarray(s1, float), np.asarray(s2, float))


def sym_from_list(data):
    arr = np.asarray(data, dtype=float)
    if arr.shape != (5,):
        raise ValueError("expected a JSON array of 5 numbers")
    return arr
