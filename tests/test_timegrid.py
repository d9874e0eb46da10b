import tracemalloc

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from hypothesis import given, settings, strategies as st

from reference import quadrature_reference_blocks
from stheat.timegrid import (
    MAX_TRIAL_DEGREE,
    ReferenceBlocks,
    TemporalBasis,
    TimePartition,
    cut_points,
    gauss_rule,
    lobatto_points,
    make_uniform_partition,
    quadrature_nodes,
    reference_blocks,
    reference_values,
)


def _moment(f, phi, nodes, npoints, breakpoints=()):
    """int f(s) phi(s) ds over each interval of the partition, by the kernel."""
    N = len(nodes) - 1
    t, _, w, owner = quadrature_nodes(TimePartition(nodes), 0, N, npoints, breakpoints)
    return np.bincount(np.arange(N) if owner is None else owner, np.sum(w * f(t) * phi(t), axis=1))


def test_uniform_partition_nodes():
    part = make_uniform_partition(1.0, 4)
    assert np.allclose(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert part.num_intervals == 4
    assert part.k_max == 0.25


def test_uniform_partition_single_interval():
    part = make_uniform_partition(1.0, 1)
    assert np.allclose(part.nodes, [0.0, 1.0])


def test_uniform_partition_widths():
    part = make_uniform_partition(2.0, 5)
    assert np.allclose(part.widths, 0.4)


@pytest.mark.parametrize("a,b", [(0.0, 0.001), (0.0, 0.3), (0.0, 1.0), (0.0, 7.0), (0.0, 64.9),
                                 (-1.0, 2.0), (100.0, 101.0)])
def test_a_linspace_partition_has_one_width(a, b):
    """linspace's rounding spreads np.diff(nodes) by at most 2 ulps of the
    largest |node|, so each of these partitions has one width, the step
    (b - a)/N that linspace used, and k_max is that width; the nodes are kept."""
    for N in (1, 3, 7, 45, 100, 576, 2304, 4000, 9216, 10 ** 5, 10 ** 6):
        nodes = np.linspace(a, b, N + 1)
        part = TimePartition(nodes)
        assert np.all(part.widths == (b - a) / N) and part.k_max == (b - a) / N, N
        assert np.array_equal(part.nodes, nodes)


def test_other_partitions_keep_their_node_differences():
    """Graded nodes, and linspace nodes with one node moved by 1e-9, keep
    np.diff(nodes) as their widths bit for bit."""
    moved = np.linspace(0.0, 1.0, 101)
    moved[37] += 1e-9
    for nodes in ((np.arange(101) / 100) ** 2, moved, np.array([0.0, 0.1, 0.35, 0.4, 1.0])):
        assert np.array_equal(TimePartition(nodes).widths, np.diff(nodes))


@pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (np.nan, 4), (np.inf, 4)])
def test_uniform_partition_rejects_bad_input(T, N):
    with pytest.raises(ValueError):
        make_uniform_partition(T, N)


def test_partition_widths_sum_to_span():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, size=rng.integers(1, 12)))])
        part = TimePartition(nodes)
        span = part.nodes[-1] - part.nodes[0]
        assert abs(part.widths.sum() - span) <= 1e-13 * span


def test_partition_rejects_nonmonotone_nodes():
    with pytest.raises(ValueError):
        TimePartition([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        TimePartition([0.7])
    for nodes in ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
        with pytest.raises(ValueError):
            TimePartition(nodes)


@pytest.mark.parametrize("npts", [1, 2, 3, 5, 8])
def test_gauss_rule_exactness(npts):
    """n-point Gauss integrates monomials up to degree 2n-1 on [0,1]."""
    points, weights = gauss_rule(npts)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(weights > 0)
    for d in range(2 * npts):
        approx = np.sum(weights * points ** d)
        assert approx == pytest.approx(1.0 / (d + 1), abs=5e-15)


def test_lobatto_points_include_endpoints():
    for m in (2, 3, 4, 6):
        pts = lobatto_points(m)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)


def test_lagrange_basis_cardinal_and_partition_of_unity():
    basis = TemporalBasis(3)
    vals = basis.eval_all(basis.nodes)
    assert np.allclose(vals, np.eye(4), atol=1e-12)
    tau = np.linspace(0.0, 1.0, 11)
    assert np.allclose(basis.eval_all(tau).sum(axis=0), 1.0, atol=1e-12)


def test_legendre_basis_orthogonality():
    # the trial basis, as LevelSums evaluates it
    points, weights = gauss_rule(6)
    vals = npleg.legvander(2.0 * points - 1.0, 4).T
    gram = (vals * weights) @ vals.T
    # shifted Legendre P~_m on [0,1]: int P~_i P~_j = delta_ij / (2i+1)
    expected = np.diag(1.0 / (2.0 * np.arange(5) + 1.0))
    assert np.allclose(gram, expected, atol=1e-10)


def test_temporal_moment_hat_function():
    # right hat on [0, 0.1]: integral of 1 * (s/k) ds = k/2
    moment = _moment(lambda s: np.ones_like(s), lambda s: s / 0.1, [0.0, 0.1], 3)
    assert moment[0] == pytest.approx(0.05, abs=1e-15)


def test_temporal_moment_zero_integrand():
    moment = _moment(lambda s: 0.0 * s, lambda s: s ** 3, [0.2, 0.9], 4)
    assert moment[0] == 0.0


def test_temporal_moment_two_point_gauss_linear():
    moment = _moment(lambda s: s, lambda s: np.ones_like(s), [0.0, 1.0], 2)
    assert moment[0] == pytest.approx(0.5, abs=1e-15)


def test_moment_kink_splitting_is_exact():
    # |s - 0.5| against a linear weight: piecewise quadratic, so split
    # 3-point Gauss is exact; the unsplit rule is not
    f = lambda s: np.abs(s - 0.5)
    phi = lambda s: s
    exact = 0.125  # int_0^1 |s-1/2| s ds
    split = _moment(f, phi, [0.0, 1.0], 3, breakpoints=(0.5,))
    assert split[0] == pytest.approx(exact, abs=1e-15)
    unsplit = _moment(f, phi, [0.0, 1.0], 3)
    assert abs(unsplit[0] - exact) > 1e-5
    # a breakpoint on a node cuts nothing: the same kink is exact per interval
    on_node = _moment(f, phi, [0.0, 0.5, 1.0], 3, breakpoints=(0.5,))
    assert on_node.sum() == pytest.approx(exact, abs=1e-15)
    assert on_node.shape == (2,)


def test_quadrature_nodes_layout():
    part = TimePartition([0.0, 0.1, 0.35, 0.4, 1.0])
    t, tau, w, owner = quadrature_nodes(part, 1, 4, 2, breakpoints=(0.2, 0.4, 0.7, 5.0))
    # intervals 1 and 3 are cut once (0.2, 0.7); 0.4 is a node, 5.0 outside:
    # five segments, each with the 2 Gauss nodes, owned by intervals 1, 1, 2, 3, 3
    assert owner.tolist() == [0, 0, 1, 2, 2]
    assert t.shape == tau.shape == w.shape == (5, 2)
    assert np.allclose(w.sum(axis=1), [0.1, 0.15, 0.05, 0.3, 0.3], rtol=0.0, atol=1e-15)
    assert np.array_equal(tau[2], gauss_rule(2)[0])
    a, k = part.nodes[1 + owner, None], part.widths[1 + owner, None]
    assert np.allclose(t, a + k * tau, rtol=0.0, atol=1e-15)



def test_quadrature_nodes_build_the_times_in_place():
    """One block of 1365 intervals at 4 points, the f term's chunk of a 1D
    p=1, n=2 level (one unknown): with warm caches quadrature_nodes traces
    below 24.8 k doubles, what it took while its times were the sum of two
    temporary blocks and each outer product held numpy's ufunc buffers
    (19.4 k now), and its times and weights stay bit for bit the nodes plus
    the node differences times the Gauss points, and those differences times
    the weights (the partition's one width may differ from them by 2 ulps)."""
    part = make_uniform_partition(1.0, 1365)
    quadrature_nodes(part, 0, 1365, 4)   # caches filled outside the trace
    tracemalloc.start()
    try:
        t, _, w, _ = quadrature_nodes(part, 0, 1365, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 24800
    points, weights = gauss_rule(4)
    seg = np.diff(part.nodes)[:, None]
    assert np.array_equal(t, part.nodes[:-1, None] + seg * points)
    assert np.array_equal(w, seg * weights)

@settings(max_examples=200, deadline=None)
@given(widths=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
       anywhere=st.lists(st.floats(-0.1, 1.1), max_size=4),
       near_nodes=st.lists(st.tuples(st.integers(0, 8), st.sampled_from([-1.0, 0.0, 1.0])),
                           max_size=3),
       npoints=st.integers(1, 5), data=st.data())
def test_quadrature_rows_are_segments(widths, anywhere, near_nodes, npoints, data):
    """Random partitions and breakpoints (anywhere, on a node, an ulp off
    one): one row per time segment, in time order, owned by the interval it
    lies in, whose segments' weights sum to its width; an uncut interval
    gets the reference Gauss points bit for bit, also beside a cut one, and
    a block without a cut returns the points themselves and owner None."""
    part = TimePartition(np.concatenate([[0.0], np.cumsum(widths)]))
    N, T = part.num_intervals, part.nodes[-1]
    lo = data.draw(st.integers(0, N - 1))
    hi = data.draw(st.integers(lo + 1, N))
    breakpoints = [T * x for x in anywhere] + [
        np.nextafter(part.nodes[i % (N + 1)], part.nodes[i % (N + 1)] + step)
        for i, step in near_nodes]
    t, tau, w, owner = quadrature_nodes(part, lo, hi, npoints, breakpoints)
    points = gauss_rule(npoints)[0]
    assert t.shape == w.shape == (hi - lo + len(cut_points(part, breakpoints, lo, hi)), npoints)
    assert np.all(w > 0.0) and np.all(np.diff(t.ravel()) > 0.0)
    if owner is None:
        assert tau is points
        owner, tau = np.arange(hi - lo), np.broadcast_to(points, t.shape)
    assert np.allclose(np.bincount(owner, w.sum(axis=1), minlength=hi - lo), part.widths[lo:hi],
                       rtol=1e-15, atol=0.0)
    a, b = part.nodes[lo + owner, None], part.nodes[lo + owner + 1, None]
    assert np.all((a < t) & (t < b))
    assert np.allclose(a + (b - a) * tau, t, rtol=0.0, atol=1e-14 * T)
    uncut = np.bincount(owner)[owner] == 1
    assert np.array_equal(tau[uncut], np.broadcast_to(points, tau[uncut].shape))


def test_reference_values_are_cached_and_read_only():
    """The time bases at the Gauss points of [0,1], built once per (q, npoints):
    the test basis times the weights and the Legendre trial basis."""
    for q, npoints in ((0, 3), (1, 5), (4, 8)):
        test, trial = tables = reference_values(q, npoints)
        assert reference_values(q, npoints) is tables
        points, weights = gauss_rule(npoints)
        assert np.array_equal(test, TemporalBasis(q + 1).eval_all(points) * weights)
        assert np.array_equal(trial, npleg.legvander(2.0 * points - 1.0, q))
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = 0.5


def test_gauss_rule_is_cached_and_read_only():
    rule = gauss_rule(4)
    assert gauss_rule(4) is rule
    for array in rule:
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_reference_blocks_are_cached_and_read_only():
    rb = reference_blocks(2)
    assert reference_blocks(2) is rb
    for name in ("D", "G", "E", "GL2", "L"):
        with pytest.raises(ValueError):
            getattr(rb, name)[0, 0] = 0.5
        assert np.array_equal(getattr(rb, name), getattr(ReferenceBlocks(2), name))


def test_reference_blocks_row_sums():
    """sum_j l_j == 1, so columns of G sum to the Legendre means and
    columns of D sum to zero."""
    for q in (0, 1, 2, 3):
        rb = ReferenceBlocks(q)
        colsum_G = rb.G.sum(axis=0)
        expected = np.zeros(q + 1)
        expected[0] = 1.0
        assert np.allclose(colsum_G, expected, atol=1e-13)
        assert np.allclose(rb.D.sum(axis=0), 0.0, atol=1e-13)


def test_reference_blocks_identities_hold_up_to_the_degree_bound():
    """The row-sum identities sum_j G[j,0] = 1 and sum_j D[j,m] = 0 hold to
    rounding for every trial degree a config may ask for."""
    assert MAX_TRIAL_DEGREE == 9
    for q in range(MAX_TRIAL_DEGREE + 1):
        rb = ReferenceBlocks(q)
        assert abs(rb.G[:, 0].sum() - 1.0) <= 1e-14, q
        assert np.abs(rb.D.sum(axis=0)).max() <= 1e-14, q


@pytest.mark.parametrize("q", range(MAX_TRIAL_DEGREE + 1))
def test_reference_blocks_match_the_quadrature_oracle(q):
    """The closed-form blocks against Gauss quadrature of the Lagrange
    product formula, each to 1e-13 of its largest entry."""
    rb = ReferenceBlocks(q)
    for name, want in zip(("D", "G", "E", "GL2", "L"), quadrature_reference_blocks(q)):
        got = getattr(rb, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (name, q)


@pytest.mark.parametrize("q", range(MAX_TRIAL_DEGREE + 1))
def test_reference_blocks_are_an_isometry(q):
    """The three identities behind c_B = C_B = 1 (W = diag(2m+1)) hold on
    the quadrature oracle's blocks, to 1e-13 of each right side's largest
    entry, and check_isometry passes on the closed-form blocks."""
    D, G, E, GL2, L = quadrature_reference_blocks(q)
    odd = 2.0 * np.arange(q + 1) + 1.0
    ends = np.zeros((q + 2, q + 2))
    ends[0, 0], ends[-1, -1] = -1.0, 1.0
    cross = (G * odd) @ D.T
    for got, want in (((G * odd) @ G.T, (L[:, : q + 1] / odd) @ L[:, : q + 1].T),
                      ((D * odd) @ D.T, E),
                      (cross + cross.T, ends)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), q
    ReferenceBlocks(q).check_isometry()


@pytest.mark.parametrize("name", ["G", "D", "E", "L"])
def test_a_perturbed_block_breaks_the_isometry(name):
    rb = ReferenceBlocks(3)
    getattr(rb, name)[1, 0] += 1e-9
    with pytest.raises(RuntimeError, match="reference blocks of q=3 break"):
        rb.check_isometry()


def test_reference_blocks_q0_values():
    rb = ReferenceBlocks(0)
    assert np.allclose(rb.D, [[-1.0], [1.0]], atol=1e-14)
    assert np.allclose(rb.G, [[0.5], [0.5]], atol=1e-14)

