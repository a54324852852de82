import numpy as np
import pytest

from esfem.errors import DimensionMismatch, NonConvergence
from esfem.sparse import (
    SparseMatrix,
    cg_solve,
    symmetry_defect,
)


def random_spd(n, rng, density=0.2):
    dense = rng.standard_normal((n, n))
    dense = 0.5 * (dense + dense.T)
    mask = rng.uniform(size=(n, n)) < density
    mask |= mask.T
    np.fill_diagonal(mask, True)
    dense = np.where(mask, dense, 0.0)
    dense += n * np.eye(n)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(n, rows, cols, dense[rows, cols]), dense


def tridiagonal_laplacian_plus_identity(n):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(3.0)
        if i + 1 < n:
            rows.extend([i, i + 1]); cols.extend([i + 1, i]); vals.extend([-1.0, -1.0])
    return SparseMatrix.from_coo(n, rows, cols, vals)


def test_matvec_identity():
    eye = SparseMatrix.identity(7)
    x = np.arange(7.0)
    assert np.array_equal(eye.matvec(x), x)


def test_matvec_small_example():
    mat = SparseMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0])
    assert np.allclose(mat @ np.ones(2), [3.0, 3.0])


def test_matvec_against_dense_oracle():
    rng = np.random.default_rng(7)
    mat, dense = random_spd(50, rng)
    x = rng.standard_normal(50)
    assert np.abs(mat.matvec(x) - dense @ x).max() <= 1e-13 * np.abs(dense @ x).max()


@pytest.mark.parametrize("empty_rows", [(1,), (5,), (0, 2, 5)],
                         ids=["interior", "trailing", "leading-interior-trailing"])
def test_matvec_with_empty_rows(empty_rows):
    rng = np.random.default_rng(11)
    n = 6
    dense = rng.standard_normal((n, n))
    dense[list(empty_rows)] = 0.0
    rows, cols = np.nonzero(dense)
    mat = SparseMatrix.from_coo(n, rows, cols, dense[rows, cols])
    x = rng.standard_normal(n)
    out = mat.matvec(x)
    expected = mat.to_dense() @ x
    assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()
    assert np.all(out[list(empty_rows)] == 0.0)


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        SparseMatrix.identity(3).matvec(np.ones(4))


def test_from_coo_sums_duplicates_and_drops_zeros():
    mat = SparseMatrix.from_coo(
        2, [0, 0, 0, 1], [0, 0, 1, 1], [1.0, 2.0, 0.0, 5.0]
    )
    assert mat.nnz == 2  # the explicit zero is gone
    dense = mat.to_dense()
    assert dense[0, 0] == 3.0 and dense[1, 1] == 5.0 and dense[0, 1] == 0.0


def test_symmetry_defect_zero_for_symmetric():
    rng = np.random.default_rng(3)
    mat, _ = random_spd(30, rng)
    assert symmetry_defect(mat) == 0.0


def test_cg_identity_converges_immediately():
    eye = SparseMatrix.identity(9)
    b = np.linspace(1, 2, 9)
    x, report = cg_solve(eye, b)
    assert np.allclose(x, b, atol=1e-14)
    assert report.iterations <= 1


def test_cg_tridiagonal_against_dense_oracle():
    mat = tridiagonal_laplacian_plus_identity(100)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(100)
    expected = np.linalg.solve(mat.to_dense(), b)
    x, report = cg_solve(mat, b, tol=1e-12)
    assert np.abs(x - expected).max() <= 1e-10
    assert report.converged and report.relative_residual <= 1e-12


def test_cg_constructed_rhs_returns_ones():
    from esfem.fem import FeSpace, assemble_mass
    from esfem.meshing import build_circle_mesh
    from esfem.surfaces import Circle

    mesh = build_circle_mesh(Circle(), 32, 1)
    mass = assemble_mass(FeSpace(mesh))
    ones = np.ones(mass.n)
    x, _ = cg_solve(mass, mass.matvec(ones), tol=1e-12)
    assert np.abs(x - ones).max() <= 1e-11


def test_cg_polish_changes_little():
    mat = tridiagonal_laplacian_plus_identity(60)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(60)
    tol = 1e-6
    x, _ = cg_solve(mat, b, tol=tol)
    x2, _ = cg_solve(mat, b, tol=tol / 10, x0=x)
    assert np.linalg.norm(x2 - x) <= 10 * tol * np.linalg.norm(x)


def test_cg_nonconvergence_raises():
    mat = tridiagonal_laplacian_plus_identity(80)
    rng = np.random.default_rng(2)
    with pytest.raises(NonConvergence):
        cg_solve(mat, rng.standard_normal(80), tol=1e-14, maxiter=2)
