import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stheat.fem import assemble, gather, load_vector, spectral
from reference import dense_line_tables, from_matrices, l2_project


def test_p1_two_elements_matrices():
    space = assemble(1, 2, 1)
    assert space.dof_count == 1
    assert space.mass[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert space.stiffness[0, 0] == pytest.approx(4.0, abs=1e-13)


def test_p1_three_elements_matrices():
    space = assemble(1, 3, 1)
    assert np.allclose(space.mass, [[2.0 / 9.0, 1.0 / 18.0], [1.0 / 18.0, 2.0 / 9.0]], atol=1e-14)
    assert np.allclose(space.stiffness, [[6.0, -3.0], [-3.0, 6.0]], atol=1e-12)


def test_2d_single_interior_node():
    space = assemble(2, 2, 1)
    assert space.dof_count == 1
    assert space.mass[0, 0] == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert space.stiffness[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("dimension,n,p", [(3, 4, 1), (1, 4, 0), (1, 4, 4), (1, 1, 2)])
def test_assemble_rejects_bad_arguments(dimension, n, p):
    with pytest.raises(ValueError):
        assemble(dimension, n, p)


@pytest.mark.parametrize("n,p,expected", [(4, 1, 3), (4, 2, 7), (4, 3, 11), (5, 2, 9)])
def test_dof_count_1d(n, p, expected):
    assert assemble(1, n, p).dof_count == expected


@pytest.mark.parametrize("n,p,expected", [(3, 1, 4), (2, 2, 9), (2, 3, 25)])
def test_dof_count_2d(n, p, expected):
    assert assemble(2, n, p).dof_count == expected


@pytest.mark.parametrize("dimension,n,p", [(1, 6, 1), (1, 5, 2), (1, 4, 3), (2, 3, 1), (2, 2, 2)])
def test_matrices_symmetric_positive_definite(dimension, n, p):
    space = assemble(dimension, n, p)
    for mat in (space.mass, space.stiffness):
        assert np.allclose(mat, mat.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(mat) > 0)


def test_coarsest_eigenvalue_exact():
    # one interior P1 node: K/M = 4 / (1/3) = 12
    dec = spectral(assemble(1, 2, 1))
    assert dec.eigenvalues[0] == pytest.approx(12.0, abs=1e-10)


@pytest.mark.parametrize("dimension,n,p,lam_exact", [
    (1, 8, 1, np.pi ** 2),
    (1, 4, 2, np.pi ** 2),
    (1, 8, 3, np.pi ** 2),
    (2, 6, 1, 2.0 * np.pi ** 2),
])
def test_smallest_eigenvalue_from_above(dimension, n, p, lam_exact):
    """Conforming Galerkin eigenvalues approach the Laplace eigenvalue from above."""
    dec = spectral(assemble(dimension, n, p))
    lam1 = dec.eigenvalues[0]
    assert lam1 >= lam_exact - 1e-10
    assert lam1 <= lam_exact * 1.05


def test_p1_extreme_eigenvalue_scaling():
    """lambda_max h^2 for 1D P1 tends to 12; check the h^-2 growth."""
    lam8 = spectral(assemble(1, 8, 1)).eigenvalues[-1]
    lam16 = spectral(assemble(1, 16, 1)).eigenvalues[-1]
    assert 3.5 <= lam16 / lam8 <= 4.5


def test_spectral_reconstructs_stiffness():
    space = assemble(1, 6, 2)
    dec = spectral(space)
    M, K = space.mass, space.stiffness
    approx = M @ dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T @ M
    assert np.allclose(approx, K, rtol=1e-8, atol=1e-8)


def test_spectral_mass_orthonormal():
    space = assemble(1, 5, 3)
    dec = spectral(space)
    gram = dec.eigenvectors.T @ space.mass @ dec.eigenvectors
    assert np.allclose(gram, np.eye(space.dof_count), atol=1e-10)


@pytest.mark.parametrize("dimension,n,p", [
    (1, 2, 1), (1, 128, 1), (1, 64, 2), (1, 128, 2), (1, 96, 3), (1, 128, 3), (2, 32, 2),
])
def test_spectral_matches_scipy_generalized_eigh(dimension, n, p):
    """The Cholesky reduction on numpy's LAPACK gives the eigenvalues of
    scipy.linalg.eigh(K, M) to 1e-10 relative, and eigenvectors that meet
    the same orthonormality and residual bounds as scipy's."""
    space = assemble(dimension, n, p)
    M, K = space.line_mass, space.line_stiffness
    dec = spectral(space)
    ref_vals, ref_vecs = scipy.linalg.eigh(K, M)
    ref = ref_vals if dimension == 1 else (ref_vals[:, None] + ref_vals[None, :]).ravel()
    assert np.max(np.abs(dec.eigenvalues - ref) / ref) < 1e-10
    vals = dec.eigenvalues
    if dimension == 2:   # the line's lam_i, exactly, from the diagonal lam_i + lam_i
        vals = vals[:: M.shape[0] + 1] / 2.0
    for lam, V in ((vals, dec.eigenvectors), (ref_vals, ref_vecs)):
        assert np.max(np.abs(V.T @ M @ V - np.eye(M.shape[0]))) < 1e-13
        assert np.max(np.abs(K @ V - M @ V * lam)) / lam[-1] < 1e-15


def test_spectral_2d_is_the_tensor_product_of_the_line():
    """In 2D the eigenpairs are V (x) V with eigenvalues lam_i + lam_j, never
    formed by the package; formed here, they diagonalize the dense matrices,
    and the modal maps equal the dense products."""
    space = assemble(2, 3, 2)
    dec = spectral(space)
    V2 = np.kron(dec.eigenvectors, dec.eigenvectors)
    lam = spectral(assemble(1, 3, 2)).eigenvalues
    assert np.allclose(dec.eigenvalues, (lam[:, None] + lam[None, :]).ravel(), rtol=1e-14)
    assert np.allclose(V2.T @ space.mass @ V2, np.eye(space.dof_count), atol=1e-12)
    assert np.allclose(space.mass @ V2 @ np.diag(dec.eigenvalues) @ V2.T @ space.mass,
                       space.stiffness, rtol=1e-10, atol=1e-10)
    rng = np.random.default_rng(3)
    for X in (rng.standard_normal((4, space.dof_count)),
              rng.standard_normal((3, 2, space.dof_count))):
        assert np.allclose(dec.modal_loads(X), X @ V2, atol=1e-12)
        assert np.allclose(dec.coefficients(X), X @ V2.T, atol=1e-12)


@pytest.mark.parametrize("dimension", [1, 2])
def test_modal_maps_of_a_stack_equal_the_row_products(dimension):
    """modal_loads and coefficients, one GEMM per axis over a (c, m, dof)
    stack, equal the products of its rows one at a time."""
    space = assemble(dimension, 5, 2)
    dec = spectral(space)
    V = dec.eigenvectors if dimension == 1 else np.kron(dec.eigenvectors, dec.eigenvectors)
    X = np.random.default_rng(8).standard_normal((6, 3, space.dof_count))
    for got, matrix in ((dec.modal_loads(X), V), (dec.coefficients(X), V.T)):
        want = np.array([[row @ matrix for row in item] for item in X])
        assert got.shape == X.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_line_tables_are_cached_and_read_only():
    space = assemble(1, 6, 2)
    tables = space.line_tables(4)
    assert assemble(1, 6, 2).line_tables(4) is tables
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0.5


def test_2d_space_keeps_only_line_matrices_until_asked():
    space = assemble(2, 3, 2)
    l2_project(space, lambda x, y: np.sin(np.pi * x) * y)
    spectral(space)
    assert "mass" not in vars(space) and "stiffness" not in vars(space)
    assert space.mass.shape == (space.dof_count, space.dof_count)


def test_l2_project_zero():
    space = assemble(1, 6, 2)
    assert np.allclose(l2_project(space, lambda x: 0.0 * x), 0.0, atol=1e-15)


@pytest.mark.parametrize("dimension,n,p", [(1, 5, 1), (1, 4, 2), (2, 3, 1)])
def test_l2_project_reproduces_space_members(dimension, n, p):
    """Projection is the identity on functions already in the space."""
    space = assemble(dimension, n, p)
    rng = np.random.default_rng(11 + p)
    coeffs = rng.standard_normal(space.dof_count)
    got = l2_project(space, _fe_callable(space, coeffs))
    assert np.allclose(got, coeffs, atol=1e-11)


def _fe_callable(space, coeffs):
    """Pointwise evaluator for a FE coefficient vector (slow, tests only)."""
    if space.dimension == 1:
        n, p = space.n, space.degree

        def g(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            flat_x = np.atleast_1d(x)
            flat_out = np.atleast_1d(out)
            for i, xi in enumerate(flat_x):
                e = min(int(xi * n), n - 1)
                t = xi * n - e
                nodes = np.linspace(0.0, 1.0, p + 1)
                for a in range(p + 1):
                    gi = e * p + a - 1  # global index, boundary removed
                    if gi < 0 or gi >= space.dof_count:
                        continue
                    lag = 1.0
                    for b in range(p + 1):
                        if b != a:
                            lag *= (t - nodes[b]) / (nodes[a] - nodes[b])
                    flat_out[i] += coeffs[gi] * lag
            return flat_out if x.ndim else float(flat_out[0])

        return g
    # 2D tensor-product: coefficient index i * line_dof + j pairs the i-th
    # basis function in x with the j-th in y
    line_dof = space.line_mass.shape[0]
    n, p = space.n, space.degree

    def basis_1d(x):
        vals = np.zeros(line_dof)
        e = min(int(x * n), n - 1)
        t = x * n - e
        nodes = np.linspace(0.0, 1.0, p + 1)
        for a in range(p + 1):
            gi = e * p + a - 1
            if gi < 0 or gi >= line_dof:
                continue
            lag = 1.0
            for b in range(p + 1):
                if b != a:
                    lag *= (t - nodes[b]) / (nodes[a] - nodes[b])
            vals[gi] += lag
        return vals

    def g(x, y):
        grid = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        xs, ys = grid[0].ravel(), grid[1].ravel()
        out = np.empty(xs.size)
        C = coeffs.reshape(line_dof, line_dof)
        for i in range(xs.size):
            out[i] = basis_1d(xs[i]) @ C @ basis_1d(ys[i])
        return out.reshape(grid[0].shape) if grid[0].ndim else float(out[0])

    return g


def test_l2_project_sine_error_frozen():
    """Quadratic elements, n = 32: L2 error of projecting sin(pi x).

    Value measured once against an independent assembly of the same
    projection; kept as a regression anchor together with the third-order
    decay checked below.
    """
    space = assemble(1, 32, 2)
    coeffs = l2_project(space, lambda x: np.sin(np.pi * x))
    err = _l2_error_1d(space, coeffs, lambda x: np.sin(np.pi * x))
    assert err == pytest.approx(3.8414900019e-06, rel=1e-9)


def test_l2_project_sine_third_order():
    errs = []
    for n in (16, 32, 64):
        space = assemble(1, n, 2)
        coeffs = l2_project(space, lambda x: np.sin(np.pi * x))
        errs.append(_l2_error_1d(space, coeffs, lambda x: np.sin(np.pi * x)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 7.5) and np.all(ratios < 8.5)


def _l2_error_1d(space, coeffs, g):
    x, w, B, _ = dense_line_tables(space.n, space.degree, space.degree + 3)
    vals = coeffs @ B
    diff = vals - g(x)
    return float(np.sqrt(np.sum(w * diff ** 2)))


def test_load_vector_matches_mass_action():
    """load(g) == M c when g is the FE function with coefficients c."""
    space = assemble(1, 4, 2)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(space.dof_count)
    load = load_vector(space, _fe_callable(space, coeffs), nq=space.degree + 2)
    assert np.allclose(load, space.mass @ coeffs, atol=1e-12)


def test_load_vector_2d_matches_mass_action():
    space = assemble(2, 3, 1)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(space.dof_count)
    load = load_vector(space, _fe_callable(space, coeffs), nq=space.degree + 2)
    assert np.allclose(load, space.mass @ coeffs, atol=1e-12)


def test_2d_matrices_are_kronecker_products():
    space2 = assemble(2, 3, 2)
    space1 = assemble(1, 3, 2)
    M1, K1 = space1.mass, space1.stiffness
    assert np.allclose(space2.mass, np.kron(M1, M1), atol=1e-10)
    assert np.allclose(space2.stiffness, np.kron(M1, K1) + np.kron(K1, M1), atol=1e-10)


@pytest.mark.parametrize("dimension", [1, 2])
def test_load_vector_time_axis_matches_per_time_loads(dimension):
    space = assemble(dimension, 3, 2)
    t = np.array([0.1, 0.45, 0.8])
    if dimension == 1:
        g = lambda x, s: np.sin(np.pi * x) * np.cos(3.0 * s) + x * s
        per_time = [load_vector(space, lambda x: g(x, s)) for s in t]
    else:
        g = lambda x, y, s: np.sin(np.pi * x) * y * np.cos(3.0 * s) + x * s
        per_time = [load_vector(space, lambda x, y: g(x, y, s)) for s in t]
    batched = load_vector(space, g, t=t)
    assert batched.shape == (t.size, space.dof_count)
    assert np.allclose(batched, np.stack(per_time), rtol=0.0, atol=1e-15)
    # two time axes: the spatial axes follow both, and the result is t.shape + (dof,)
    column = load_vector(space, g, t=t[:, None])
    assert column.shape == (t.size, 1, space.dof_count)
    assert np.array_equal(column[:, 0], batched)


def test_load_vector_time_axis_broadcasts_time_independent_values():
    space = assemble(1, 4, 1)
    batched = load_vector(space, lambda x, s: np.ones_like(x), t=np.linspace(0.0, 1.0, 5))
    assert batched.shape == (5, space.dof_count)
    assert np.allclose(batched, load_vector(space, np.ones_like), atol=1e-15)


def _assert_close(value, reference):
    assert value.shape == reference.shape
    assert np.abs(value - reference).max() <= 1e-13 * np.abs(reference).max()


@settings(max_examples=40, deadline=None)
@given(dimension=st.sampled_from([1, 2]), n=st.integers(2, 9), p=st.integers(1, 3),
       nq=st.integers(1, 7), times=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_element_local_kernels_match_dense_tables(dimension, n, p, nq, times, seed):
    """load_vector (one time or a batch of times) and the gradient of error_norms'
    U1 term, evaluated element by element, against the dense (dof, n*nq) tables."""
    space = assemble(dimension, n, p)
    x, w, B, D = dense_line_tables(n, p, nq)
    _, w_local, B_local, D_local = space.line_tables(nq)
    assert np.array_equal(w_local, w)
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-4.0, 4.0, 3)
    t = rng.uniform(0.0, 1.0, times)
    Bw = B * w
    if dimension == 1:
        g = lambda x, s=0.0: np.cos(a * x + b) * (1.0 + c * s) + x * s
        dense = lambda s: Bw @ g(x, s)
    else:
        g = lambda x, y, s=0.0: np.cos(a * x + b * y * y + c) * (1.0 + c * s) + x * s
        dense = lambda s: (Bw @ g(x[:, None], x[None, :], s) @ Bw.T).ravel()
    _assert_close(load_vector(space, g, nq=nq), dense(0.0))
    if times:
        _assert_close(load_vector(space, g, nq=nq, t=t), np.stack([dense(s) for s in t]))

    d = space.line_mass.shape[0]
    coeffs = rng.standard_normal((times + 1,) + (d,) * dimension)
    if dimension == 1:
        _assert_close(gather(D_local, coeffs), coeffs @ D)
    else:
        # the x- and y-derivatives as error_norms forms them, as (nt, ny, nx) arrays
        ux = gather(D_local, gather(B_local, coeffs).swapaxes(1, 2))
        uy = gather(B_local, gather(D_local, coeffs).swapaxes(1, 2))
        _assert_close(ux, (D.T @ coeffs @ B).swapaxes(1, 2))
        _assert_close(uy, (B.T @ coeffs @ D).swapaxes(1, 2))


def test_from_matrices_scalar_surrogate():
    space = from_matrices([[0.5]], [[2.0]])
    assert space.dof_count == 1
    assert space.dimension == 1
    with pytest.raises(ValueError):
        space.h
    with pytest.raises(ValueError):
        space.line_tables(3)


def test_from_matrices_shape_mismatch():
    with pytest.raises(ValueError):
        from_matrices(np.eye(2), np.eye(3))
