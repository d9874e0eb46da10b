import numpy as np
import pytest

from reference import quadrature_reference_blocks
from stheat.timegrid import (
    MAX_TRIAL_DEGREE,
    QuadratureRule,
    ReferenceBlocks,
    TemporalBasis,
    TimePartition,
    chunks,
    gauss_rule,
    lobatto_points,
    make_uniform_partition,
    quadrature_nodes,
    reference_blocks,
)


def _moment(f, phi, nodes, npoints, breakpoints=()):
    """int f(s) phi(s) ds over each interval of the partition, by the kernel."""
    t, _, w = quadrature_nodes(TimePartition(nodes), 0, len(nodes) - 1, npoints, breakpoints)
    return np.sum(w * f(t) * phi(t), axis=1)


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


@pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0)])
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


@pytest.mark.parametrize("npts", [1, 2, 3, 5, 8])
def test_gauss_rule_exactness(npts):
    """n-point Gauss integrates monomials up to degree 2n-1 on [0,1]."""
    rule = gauss_rule(npts)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.weights > 0)
    for d in range(2 * npts):
        approx = np.sum(rule.weights * rule.points ** d)
        assert approx == pytest.approx(1.0 / (d + 1), abs=5e-15)


def test_lobatto_points_include_endpoints():
    for m in (2, 3, 4, 6):
        pts = lobatto_points(m)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)


def test_lagrange_basis_cardinal_and_partition_of_unity():
    basis = TemporalBasis(3, "nodal-lagrange")
    vals = basis.eval_all(basis.nodes)
    assert np.allclose(vals, np.eye(4), atol=1e-12)
    tau = np.linspace(0.0, 1.0, 11)
    assert np.allclose(basis.eval_all(tau).sum(axis=0), 1.0, atol=1e-12)


def test_legendre_basis_orthogonality():
    basis = TemporalBasis(4, "legendre")
    rule = gauss_rule(6)
    vals = basis.eval_all(rule.points)
    gram = (vals * rule.weights) @ vals.T
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
    t, tau, w = quadrature_nodes(part, 1, 4, 2, breakpoints=(0.2, 0.4, 0.7, 5.0))
    # interval 1 and 3 are cut once (0.2, 0.7); 0.4 is a node, 5.0 outside;
    # interval 2 fills its 2 Gauss nodes and pads 2 slots
    assert t.shape == tau.shape == w.shape == (3, 4)
    a, k = part.nodes[1:4, None], part.widths[1:4, None]
    assert np.allclose(t, a + k * tau, atol=1e-15)
    assert np.all((tau > 0.0) & (tau < 1.0))
    assert np.allclose(w.sum(axis=1), part.widths[1:4], atol=1e-15)
    live = w > 0.0
    assert live.sum(axis=1).tolist() == [4, 2, 4]
    assert np.all(np.diff(t[0]) > 0) and np.all(np.diff(t[2]) > 0)
    assert np.all(w[1, 2:] == 0.0) and np.all(np.diff(t[1, :2]) > 0)
    # each pad repeats a real node of its own row
    for row_t, row_live in zip(t, live):
        assert np.all(np.isin(row_t[~row_live], row_t[row_live]))
    # no node sits on a cut
    assert not np.any(np.isin(t, (0.2, 0.7)))


def test_gauss_rule_is_cached_and_read_only():
    rule = gauss_rule(4)
    assert gauss_rule(4) is rule
    with pytest.raises(ValueError):
        rule.points[0] = 0.5
    with pytest.raises(ValueError):
        rule.weights[0] = 0.5


def test_reference_blocks_are_cached_and_read_only():
    rb = reference_blocks(2)
    assert reference_blocks(2) is rb
    for name in ("D", "G", "E", "GL2", "L"):
        with pytest.raises(ValueError):
            getattr(rb, name)[0, 0] = 0.5
        assert np.array_equal(getattr(rb, name), getattr(ReferenceBlocks(2), name))


def test_chunks_cover_the_range():
    assert chunks(3, 3, 10) == []
    ranges = chunks(2, 1000, 100)
    assert ranges[0][0] == 2 and ranges[-1][1] == 1000
    assert all(b0 == a1 for (_, b0), (a1, _) in zip(ranges, ranges[1:]))
    assert len(ranges) > 1
    assert chunks(0, 5, 10 ** 9) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


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


def test_reference_blocks_q0_values():
    rb = ReferenceBlocks(0)
    assert np.allclose(rb.D, [[-1.0], [1.0]], atol=1e-14)
    assert np.allclose(rb.G, [[0.5], [0.5]], atol=1e-14)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(points=np.array([0.2, 0.8]), weights=np.array([0.5, -0.1]))
