import json
import tracemalloc

import numpy as np
import pytest

from refstokes import sym3


def projection_oracle(M):
    """Direct 3x3 projection: symmetrize and remove the trace."""
    M = np.asarray(M, dtype=float)
    return (M + M.T) / 2 - np.trace(M) / 3 * np.eye(3)


# E1-E5 as the sym3 docstring writes them
ORACLE = np.array([np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0),
                   np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0),
                   [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]] / np.sqrt(2.0),
                   [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]] / np.sqrt(2.0),
                   [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]] / np.sqrt(2.0)])


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_basis_is_the_docstring_basis():
    assert np.array_equal(sym3.BASIS, ORACLE)
    assert not sym3.BASIS.flags.writeable


def test_sym_matrix_matches_oracle(rng):
    c = rng.normal(size=(40, 5))
    want = np.einsum("...a,aij->...ij", c, ORACLE)
    assert close(np.moveaxis(sym3.sym_matrix(c.T), (0, 1), (-2, -1)), want)
    assert close(sym3.embed(c), want)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_sym_coefficients_match_oracle(rng, symmetric):
    M = rng.normal(size=(40, 3, 3))
    if symmetric:
        M += M.transpose(0, 2, 1)
    want = np.einsum("aij,...ij->...a", ORACLE, M)
    # off-diagonal entries come summed, as the strain kernel returns them
    e = [M[:, 0, 0], M[:, 1, 1], M[:, 2, 2],
         M[:, 0, 1] + M[:, 1, 0], M[:, 0, 2] + M[:, 2, 0], M[:, 1, 2] + M[:, 2, 1]]
    assert close(np.stack(sym3.sym_coefficients(e), axis=-1), want)
    assert close(sym3.project_sym_tracefree(M), want)


def summed_entries(M):
    """The diagonal of M and its summed off-diagonal pairs."""
    return [M[..., 0, 0], M[..., 1, 1], M[..., 2, 2],
            M[..., 0, 1] + M[..., 1, 0], M[..., 0, 2] + M[..., 2, 0], M[..., 1, 2] + M[..., 2, 1]]


def stacked_projection(M):
    """`project_sym_tracefree` as the stack of five separately computed
    coefficient arrays, each spelled out."""
    e = summed_entries(M)
    return np.stack([(e[0] - e[1]) * sym3._IS2, (e[0] + e[1] - 2.0 * e[2]) * sym3._IS6,
                     e[3] * sym3._IS2, e[4] * sym3._IS2, e[5] * sym3._IS2], axis=-1)


@pytest.mark.parametrize("shape", [(3, 3), (7, 3, 3), (8, 8, 8, 3, 3)])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_projection_in_place_bit_for_bit(rng, shape, symmetric):
    M = rng.normal(size=shape)
    if symmetric:
        M += np.swapaxes(M, -1, -2)
    got = sym3.project_sym_tracefree(M)
    assert got.shape == shape[:-2] + (5,)
    assert np.array_equal(got, stacked_projection(M))
    assert np.array_equal(np.stack(sym3.sym_coefficients(summed_entries(M)), axis=-1), got)


def test_projection_peak_memory(rng):
    # the five coefficients are written into the result: it and one
    # temporary field are the only n^3 arrays alive at once
    n = 32
    M = rng.normal(size=(n, n, n, 3, 3))
    tracemalloc.start()
    try:
        out = sym3.project_sym_tracefree(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, n, n, 5)
    assert peak <= 7 * n ** 3 * 8


def test_basis_gram_is_identity():
    gram = np.einsum("aij,bij->ab", sym3.BASIS, sym3.BASIS)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-14


def test_basis_matrices_symmetric_tracefree():
    for E in sym3.BASIS:
        assert np.array_equal(E, E.T)
        assert abs(np.trace(E)) < 4 * np.finfo(float).eps


def test_project_identity_is_zero():
    assert np.all(sym3.project_sym_tracefree(np.eye(3)) == 0.0)


def test_project_skew_is_zero():
    S = np.array([[0.0, 1.5, -2.0], [-1.5, 0.0, 0.7], [2.0, -0.7, 0.0]])
    assert np.max(np.abs(sym3.project_sym_tracefree(S))) < 1e-15


def test_project_uniaxial_norm():
    M = np.diag([1.0, -0.5, -0.5])
    coeffs = sym3.project_sym_tracefree(M)
    # Frobenius norm of the projection oracle: sqrt(1 + 1/4 + 1/4)
    oracle = projection_oracle(M)
    assert np.isclose(np.linalg.norm(coeffs), np.sqrt(1.5), atol=1e-14)
    assert np.isclose(np.linalg.norm(coeffs), np.linalg.norm(oracle), atol=1e-14)


def test_project_matches_oracle_random(rng):
    M = rng.normal(size=(200, 3, 3))
    coeffs = sym3.project_sym_tracefree(M)
    backs = sym3.embed(coeffs)
    for Mi, Bi in zip(M, backs):
        assert np.max(np.abs(Bi - projection_oracle(Mi))) < 1e-14


def test_embed_zero_and_basis():
    assert np.all(sym3.embed(np.zeros(5)) == 0.0)
    e1 = np.zeros(5)
    e1[0] = 1.0
    E = sym3.embed(e1)
    assert np.isclose(np.linalg.norm(E), 1.0, atol=1e-15)
    assert np.array_equal(E, sym3.BASIS[0])


def test_embed_project_roundtrip(rng):
    s = rng.normal(size=(1000, 5))
    back = sym3.project_sym_tracefree(sym3.embed(s))
    assert np.max(np.abs(back - s)) < 1e-14


def test_projection_idempotent_bulk(rng):
    M = rng.normal(size=(10_000, 3, 3))
    c1 = sym3.project_sym_tracefree(M)
    c2 = sym3.project_sym_tracefree(sym3.embed(c1))
    assert np.max(np.abs(c1 - c2)) < 1e-13


def test_projection_self_adjoint(rng):
    M = rng.normal(size=(500, 3, 3))
    N = rng.normal(size=(500, 3, 3))
    PM = sym3.embed(sym3.project_sym_tracefree(M))
    PN = sym3.embed(sym3.project_sym_tracefree(N))
    lhs = np.einsum("kij,kij->k", PM, N)
    rhs = np.einsum("kij,kij->k", M, PN)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_embedded_invariants(rng):
    s = rng.normal(size=(300, 5))
    mats = sym3.embed(s)
    assert np.max(np.abs(mats - np.swapaxes(mats, -1, -2))) == 0.0
    assert np.max(np.abs(np.trace(mats, axis1=-2, axis2=-1))) < 4 * np.finfo(float).eps
    # coefficient 2-norm equals Frobenius norm of the embedding (4 eps relative)
    cn = np.linalg.norm(s, axis=1)
    fn = np.linalg.norm(mats, axis=(1, 2))
    assert np.max(np.abs(cn - fn) / cn) < 4 * np.finfo(float).eps


def test_apply_mobility_identity_and_zero(rng):
    s = rng.normal(size=5)
    assert np.array_equal(sym3.apply_mobility(np.eye(5), s), s)
    assert np.all(sym3.apply_mobility(np.zeros((5, 5)), s) == 0.0)


def test_apply_mobility_sphere_value():
    s = np.zeros(5)
    s[1] = 1.0
    out = sym3.apply_mobility((20 * np.pi / 3) * np.eye(5), s)
    assert np.isclose(np.linalg.norm(out), 20 * np.pi / 3, atol=1e-12)
    assert np.isclose(np.linalg.norm(out), 20.944, atol=1e-3)


def test_apply_mobility_linear(rng):
    m = rng.normal(size=(5, 5))
    s1, s2 = rng.normal(size=5), rng.normal(size=5)
    a, b = 0.7, -1.3
    lhs = sym3.apply_mobility(m, a * s1 + b * s2)
    rhs = a * sym3.apply_mobility(m, s1) + b * sym3.apply_mobility(m, s2)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_json_roundtrips(rng):
    s = rng.normal(size=5)
    assert np.array_equal(sym3.sym_from_list(json.loads(json.dumps(s.tolist()))), s)


def test_shape_errors():
    with pytest.raises(ValueError):
        sym3.project_sym_tracefree(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        sym3.embed(np.zeros(4))
    with pytest.raises(ValueError):
        sym3.sym_from_list([0.0] * 6)
