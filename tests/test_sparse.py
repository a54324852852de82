import tracemalloc

import numpy as np
import pytest

from esfem import sparse
from esfem.errors import DimensionMismatch, NonConvergence, NonFiniteValue
from esfem.fem import FeSpace
from esfem.meshing import build_circle_mesh, build_sphere_mesh
from esfem.sparse import SparsityPattern, cg_solve
from esfem.surfaces import Circle, Sphere
from oracles import dense, pattern_arrays


def coo_matrix(n, rows, cols, values):
    # every matrix a test builds from triplets goes through the pattern
    return SparsityPattern(n, rows, cols).assemble(values)


def identity(n):
    return coo_matrix(n, np.arange(n), np.arange(n), np.ones(n))


def random_spd(n, rng, density=0.2):
    dense = rng.standard_normal((n, n))
    dense = 0.5 * (dense + dense.T)
    mask = rng.uniform(size=(n, n)) < density
    mask |= mask.T
    np.fill_diagonal(mask, True)
    dense = np.where(mask, dense, 0.0)
    dense += n * np.eye(n)
    rows, cols = np.nonzero(dense)
    return coo_matrix(n, rows, cols, dense[rows, cols]), dense


def tridiagonal_laplacian_plus_identity(n):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(3.0)
        if i + 1 < n:
            rows.extend([i, i + 1]); cols.extend([i + 1, i]); vals.extend([-1.0, -1.0])
    return coo_matrix(n, rows, cols, vals)


def test_matvec_identity():
    eye = identity(7)
    x = np.arange(7.0)
    assert np.array_equal(eye.matvec(x), x)


def test_matvec_small_example():
    mat = coo_matrix(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0])
    assert np.allclose(mat.matvec(np.ones(2)), [3.0, 3.0])


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
    full = rng.standard_normal((n, n))
    full[list(empty_rows)] = 0.0
    rows, cols = np.nonzero(full)
    mat = coo_matrix(n, rows, cols, full[rows, cols])
    x = rng.standard_normal(n)
    out = mat.matvec(x)
    expected = dense(mat) @ x
    assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()
    assert np.all(out[list(empty_rows)] == 0.0)


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        identity(3).matvec(np.ones(4))


def test_from_coo_sums_duplicates_and_drops_zeros():
    # duplicates are summed; an explicit zero is kept as an entry
    mat = coo_matrix(
        2, [0, 0, 0, 1], [0, 0, 1, 1], [1.0, 2.0, 0.0, 5.0]
    )
    assert mat.indices.size == 3
    full = dense(mat)
    assert full[0, 0] == 3.0 and full[1, 1] == 5.0 and full[0, 1] == 0.0


def test_pattern_tables_and_compressed_rows():
    rows = [2, 0, 2, 0, 1, 2, 0]
    cols = [0, 2, 0, 0, 1, 2, 2]
    mat = coo_matrix(3, rows, cols, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    pattern = mat.pattern
    # (width, n): column i of the table is row i of the matrix
    assert pattern.cols.tolist() == [[0, 1, 0], [2, 0, 2]]
    assert mat.vals.tolist() == [[4.0, 5.0, 4.0], [9.0, 0.0, 6.0]]
    assert mat.indptr.tolist() == [0, 2, 3, 5]
    assert mat.indices.tolist() == [0, 2, 1, 0, 2]
    assert mat.data.tolist() == [4.0, 9.0, 5.0, 4.0, 6.0]
    assert mat.data is mat.data  # gathered once
    assert mat.indptr.dtype == mat.indices.dtype == np.int64
    assert mat.data.dtype == np.float64
    assert np.array_equal(mat.diagonal(), [4.0, 5.0, 6.0])


def test_diagonal_reads_zero_where_the_pattern_has_none():
    mat = coo_matrix(3, [0, 1, 2], [0, 2, 1], [2.0, 3.0, 4.0])
    assert np.array_equal(mat.diagonal(), [2.0, 0.0, 0.0])


def test_nonfinite_x0_reaches_every_padded_row():
    # padding is column 0 at weight 0, so NaN in x[0] shows in the short rows
    mat = coo_matrix(3, [0, 0, 0, 1, 2], [0, 1, 2, 1, 2], np.ones(5))
    x = np.array([np.nan, 1.0, 1.0])
    assert np.all(np.isnan(mat.matvec(x)))


def test_assemble_rejects_wrong_number_of_values():
    pattern = SparsityPattern(2, [0, 1], [0, 1])
    with pytest.raises(DimensionMismatch):
        pattern.assemble(np.ones(3))


def test_scaled_add_on_one_pattern():
    rng = np.random.default_rng(4)
    pattern = SparsityPattern(20, rng.integers(0, 20, 60), rng.integers(0, 20, 60))
    a = pattern.assemble(rng.standard_normal(60))
    b = pattern.assemble(rng.standard_normal(60))
    out = a.scaled_add(0.25, b)
    assert out.pattern is pattern
    assert np.array_equal(dense(out), dense(a) + 0.25 * dense(b))


def test_scaled_add_across_patterns_raises():
    a = coo_matrix(2, [0, 1], [0, 1], [1.0, 1.0])
    same_entries = coo_matrix(2, [0, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        a.scaled_add(1.0, same_entries)
    with pytest.raises(DimensionMismatch):
        a.scaled_add(1.0, identity(3))


def test_cg_identity_converges_immediately():
    eye = identity(9)
    b = np.linspace(1, 2, 9)
    x, report = cg_solve(eye, b)
    assert np.allclose(x, b, atol=1e-14)
    assert report.iterations <= 1


def test_cg_tridiagonal_against_dense_oracle():
    mat = tridiagonal_laplacian_plus_identity(100)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(100)
    expected = np.linalg.solve(dense(mat), b)
    x, report = cg_solve(mat, b, tol=1e-12)
    assert np.abs(x - expected).max() <= 1e-10
    assert report.relative_residual <= 1e-12


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


def test_cg_nonconvergence_raises(monkeypatch):
    # an iteration cap of 2 on 80 unknowns
    mat = tridiagonal_laplacian_plus_identity(80)
    rng = np.random.default_rng(2)
    monkeypatch.setattr(sparse, "CG_ITERATIONS_PER_DOF", 2 / 80)
    with pytest.raises(NonConvergence, match="after 2 iterations"):
        cg_solve(mat, rng.standard_normal(80), tol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_padded_matvec_on_random_patterns(seed):
    # rows of very different lengths, some of them empty, duplicates summed
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    nnz = int(rng.integers(0, 4 * n))
    rows = rng.integers(0, n, size=nnz)
    rows[: nnz // 4] = 0  # one long row
    cols = rng.integers(0, n, size=nnz)
    mat = coo_matrix(n, rows, cols, rng.standard_normal(nnz))
    x = rng.standard_normal(n)
    expected = dense(mat) @ x
    scale = max(np.abs(expected).max(initial=0.0), 1.0)
    assert np.abs(mat.matvec(x) - expected).max(initial=0.0) <= 1e-14 * scale
    empty = np.diff(mat.indptr) == 0
    assert np.all(mat.matvec(x)[empty] == 0.0)


def assert_pattern_equals_oracle(pattern, n, rows, cols):
    expected = pattern_arrays(n, rows, cols)
    assert vars(pattern).keys() == expected.keys()
    for name, value in expected.items():
        got = getattr(pattern, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), name
        else:
            assert got == value, name


@pytest.mark.parametrize("seed", range(8))
def test_pattern_equals_the_np_unique_oracle(seed):
    # duplicates, empty rows, one long row, and no entries at all (seed 0)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    nnz = 0 if seed == 0 else int(rng.integers(1, 6 * n))
    rows = rng.integers(0, n, size=nnz)
    rows[: nnz // 4] = 0
    cols = rng.integers(0, n, size=nnz)
    assert_pattern_equals_oracle(SparsityPattern(n, rows, cols), n, rows, cols)
    # the same entries as 2-D arrays and as lists
    if nnz % 2 == 0:
        shape = (2, nnz // 2)
        assert_pattern_equals_oracle(
            SparsityPattern(n, rows.reshape(shape), cols.reshape(shape)), n, rows, cols)
    assert_pattern_equals_oracle(
        SparsityPattern(n, rows.tolist(), cols.tolist()), n, rows, cols)


def test_pattern_of_broadcast_element_views_equals_the_oracle():
    # rows and cols as FeSpace.pattern passes them: read-only broadcast views
    el = np.array([[0, 3, 1], [1, 3, 2], [4, 2, 3]])
    shape = el.shape + el.shape[1:]
    rows = np.broadcast_to(el[:, :, None], shape)
    cols = np.broadcast_to(el[:, None, :], shape)
    assert_pattern_equals_oracle(SparsityPattern(5, rows, cols), 5,
                                 np.repeat(el, 3, axis=1), np.tile(el, (1, 3)))


@pytest.mark.parametrize("mesh", [
    build_sphere_mesh(Sphere(), 1, 1), build_sphere_mesh(Sphere(), 3, 1),
    build_sphere_mesh(Sphere(), 2, 2), build_circle_mesh(Circle(), 16, 1),
    build_circle_mesh(Circle(), 32, 2), build_circle_mesh(Circle(), 24, 3),
], ids=["sphere-L1-P1", "sphere-L3-P1", "sphere-L2-P2", "circle16-P1", "circle32-P2",
        "circle24-P3"])
def test_space_pattern_equals_the_np_unique_oracle(mesh):
    # equal slots give bitwise-equal matrices, since assembly is one bincount
    el = mesh.elements
    assert_pattern_equals_oracle(FeSpace(mesh).pattern(), mesh.num_nodes,
                                 np.repeat(el, el.shape[1], axis=1),
                                 np.tile(el, (1, el.shape[1])))


def test_space_pattern_set_up_memory_is_bounded():
    # sphere L5 P1: 184 320 local entries, 1.47 MB per int64 key array; the
    # pattern keeps 3.4 MB, and np.unique(..., return_inverse=True) on
    # repeated and tiled element arrays peaked at 12.6 MB
    space = FeSpace(build_sphere_mesh(Sphere(), 5, 1))
    tracemalloc.start()
    try:
        space.pattern()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


@pytest.mark.parametrize("n", [0, 1, 5])
def test_matvec_of_all_zero_matrix(n):
    mat = coo_matrix(n, np.arange(n), np.arange(n), np.zeros(n))
    assert mat.indices.size == n  # explicit zeros are kept
    out = mat.matvec(np.ones(n))
    assert out.shape == (n,) and np.all(out == 0.0)


def test_cg_in_place_updates_against_dense_solve():
    rng = np.random.default_rng(5)
    mat, dense = random_spd(60, rng)
    b = rng.standard_normal(60)
    x0 = rng.standard_normal(60)
    b_copy, x0_copy = b.copy(), x0.copy()
    expected = np.linalg.solve(dense, b)
    for start in (None, x0, np.zeros(60)):
        x, report = cg_solve(mat, b, tol=1e-12, x0=start)
        assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()
        assert report.relative_residual <= 1e-12
    # the solver works on its own copies of the right-hand side and start
    assert np.array_equal(b, b_copy) and np.array_equal(x0, x0_copy)


def test_cg_result_does_not_alias_its_start():
    mat = tridiagonal_laplacian_plus_identity(30)
    b = np.ones(30)
    x0 = np.zeros(30)
    x, _ = cg_solve(mat, b, x0=x0)
    assert not np.shares_memory(x, x0) and np.all(x0 == 0.0)


def _allocating_cg(mat, b, tol, x0):
    # the textbook loop that builds new vectors every iteration: the reference
    # for the in-place updates of cg_solve (Jacobi preconditioned)
    bnorm = np.linalg.norm(b)
    inv_diag = 1.0 / mat.diagonal()
    x = np.array(x0, dtype=float)
    r = b - mat.matvec(x)
    if np.linalg.norm(r) > bnorm:
        x = np.zeros(mat.n)
        r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rho = float(r @ z)
    while np.linalg.norm(r) > 0.5 * tol * bnorm:
        ap = mat.matvec(p)
        alpha = rho / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        z = inv_diag * r
        rho_new = float(r @ z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x


def test_cg_in_place_matches_allocating_loop_bitwise():
    rng = np.random.default_rng(9)
    mat, _ = random_spd(80, rng)
    b = rng.standard_normal(80)
    for x0 in (np.zeros(80), 0.9 * np.linalg.solve(dense(mat), b),
               100.0 * rng.standard_normal(80)):
        x, _ = cg_solve(mat, b, tol=1e-12, x0=x0)
        assert np.array_equal(x, _allocating_cg(mat, b, 1e-12, x0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_cg_rejects_nonfinite_rhs(bad):
    # an infinite entry once came back as zeros with a report of success
    with pytest.raises(NonFiniteValue, match=r"right-hand side b: 1 non-finite .* index 0"):
        cg_solve(identity(3), np.array([bad, 0.0, 0.0]))


def test_cg_rejects_rhs_whose_norm_overflows():
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteValue, match="entries are finite but its norm overflows"):
        cg_solve(identity(2), np.array([1e200, 1e200]))


def test_cg_rejects_nonfinite_start_vector():
    mat = tridiagonal_laplacian_plus_identity(4)
    with pytest.raises(NonFiniteValue, match=r"start vector x0: 2 non-finite .* index 1"):
        cg_solve(mat, np.ones(4), x0=np.array([0.0, np.nan, np.inf, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_cg_rejects_a_diagonal_that_is_not_finite_and_positive(bad):
    mat = coo_matrix(3, [0, 1, 2], [0, 1, 2], [1.0, bad, 2.0])
    with pytest.raises(NonFiniteValue, match=r"diagonal entry 1 is .*not SPD"):
        cg_solve(mat, np.ones(3))
    # checked before the shortcut for a zero right-hand side too
    with pytest.raises(NonFiniteValue, match="diagonal entry 1"):
        cg_solve(mat, np.zeros(3))
    # a rejected diagonal is not cached: every call raises the same way
    with pytest.raises(NonFiniteValue, match=r"diagonal entry 1 is .*not SPD"):
        cg_solve(mat, np.ones(3))


def test_jacobi_diagonal_is_inverted_once_per_matrix():
    mat = tridiagonal_laplacian_plus_identity(20)
    diagonals = []
    gather = mat.diagonal
    mat.diagonal = lambda: diagonals.append(1) or gather()
    b = np.linspace(1.0, 2.0, 20)
    first, _ = cg_solve(mat, b)
    second, _ = cg_solve(mat, b, x0=np.zeros(20))
    assert len(diagonals) == 1
    assert np.array_equal(mat.inverse_diagonal(), 1.0 / gather())
    assert np.array_equal(first, second)
