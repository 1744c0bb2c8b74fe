"""Orthonormal bases, quadrature, testing-node selection, moments."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from pssuq.circuit import DistributionSpec
from pssuq.gpc import (
    COND_BOUND,
    PIVOT_THRESHOLD,
    GpcError,
    HERMITE,
    LEGENDRE,
    QuadratureRule,
    basis_size,
    build_basis,
    eval_univariate,
    gauss_rule,
    moments,
    select_testing_nodes,
    tensor_rule,
)

from conftest import gram_matrix

G = DistributionSpec.gaussian(0.0, 1.0)
U = DistributionSpec.uniform(-1.0, 1.0)


def test_basis_count_formula():
    assert build_basis([G] * 4, 3).size == 35
    assert build_basis([G, U], 2).size == 6
    assert build_basis([G] * 7, 0).size == 1
    assert basis_size(3, 4) == 35


def test_constant_basis_is_one():
    b = build_basis([G, U, G], 0)
    assert b.size == 1
    xi = np.array([0.3, -0.2, 1.1])
    assert b.eval(xi)[0] == pytest.approx(1.0)


def test_first_basis_function_is_constant_one():
    b = build_basis([G, U], 3)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 2))
    vals = b.eval(pts)
    assert np.allclose(vals[:, 0], 1.0)


def test_univariate_values():
    bh = build_basis([G], 2)
    # orthonormal degree-2 Hermite value at 1 is (1 - 1)/sqrt(2) = 0
    assert bh.eval(np.array([1.0]))[2] == pytest.approx(0.0, abs=1e-15)
    bl = build_basis([U], 1)
    assert bl.eval(np.array([1.0]))[1] == pytest.approx(np.sqrt(3.0))


def _per_family_eval_univariate(family, max_order, x):
    """The per-family recurrences the shared beta table replaced, as they were."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_order + 1,) + x.shape)
    out[0] = 1.0
    if max_order == 0:
        return out
    if family == HERMITE:
        out[1] = x
        for k in range(1, max_order):
            out[k + 1] = (x * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    else:
        p_prev = np.ones_like(x)
        p_cur = x
        out[1] = x * math.sqrt(3.0)
        for k in range(1, max_order):
            p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
            out[k + 1] = p_next * math.sqrt(2 * k + 3)
            p_prev, p_cur = p_cur, p_next
    return out


def _per_family_gauss_rule(family, m):
    """The per-family Jacobi matrices the shared beta table replaced, as they were."""
    if family == HERMITE:
        beta = np.arange(1, m, dtype=float)
    else:
        k = np.arange(1, m, dtype=float)
        beta = k * k / (4.0 * k * k - 1.0)
    if m == 1:
        return np.zeros(1), np.ones(1)
    off = np.sqrt(beta)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    weights /= weights.sum()
    return nodes, weights


def test_univariate_values_match_numpy_polynomials():
    xh = np.linspace(-4.0, 4.0, 161)
    xl = np.linspace(-1.0, 1.0, 81)
    hermite = eval_univariate(HERMITE, 8, xh)
    legendre = eval_univariate(LEGENDRE, 8, xl)
    for k in range(9):
        unit = np.eye(k + 1)[k]
        ref = np.polynomial.hermite_e.hermeval(xh, unit) / math.sqrt(math.factorial(k))
        assert np.abs(hermite[k] - ref).max() <= 1e-14 * np.abs(ref).max(), k
        ref = np.polynomial.legendre.legval(xl, unit) * math.sqrt(2 * k + 1)
        assert np.abs(legendre[k] - ref).max() <= 5e-14, k


def test_one_recurrence_reproduces_the_per_family_code():
    x = np.linspace(-4.0, 4.0, 801)
    assert np.array_equal(
        eval_univariate(HERMITE, 8, x), _per_family_eval_univariate(HERMITE, 8, x)
    )
    x = np.linspace(-1.0, 1.0, 401)
    delta = eval_univariate(LEGENDRE, 6, x) - _per_family_eval_univariate(LEGENDRE, 6, x)
    assert np.abs(delta).max() <= 1e-14
    for family, m in itertools.product([HERMITE, LEGENDRE], range(1, 21)):
        for got, ref in zip(gauss_rule(family, m), _per_family_gauss_rule(family, m)):
            assert np.array_equal(got, ref), (family, m)


def test_unknown_family_is_rejected():
    with pytest.raises(GpcError, match="unknown family"):
        eval_univariate("laguerre", 2, 0.5)
    with pytest.raises(GpcError, match="unknown family"):
        gauss_rule("laguerre", 3)


def test_odd_components_vanish_at_origin():
    b = build_basis([G, G], 3)
    vals = b.eval(np.zeros(2))
    odd = np.sum(b.index_set, axis=1) % 2 == 1
    assert np.allclose(vals[odd], 0.0)
    mixed_odd = (b.index_set % 2 == 1).any(axis=1)
    assert np.allclose(vals[mixed_odd], 0.0)


def test_dimension_mismatch():
    b = build_basis([G, U], 2)
    with pytest.raises(GpcError):
        b.eval(np.zeros(3))


def test_constant_distribution_rejected():
    with pytest.raises(GpcError):
        build_basis([DistributionSpec.constant(2.0)], 1)


# -- quadrature -------------------------------------------------------------


def test_hermite_rules():
    n, w = gauss_rule(HERMITE, 1)
    assert n[0] == pytest.approx(0.0) and w[0] == pytest.approx(1.0)
    n, w = gauss_rule(HERMITE, 2)
    assert np.allclose(n, [-1.0, 1.0])
    assert np.allclose(w, [0.5, 0.5])


@pytest.mark.parametrize("family", [HERMITE, LEGENDRE])
def test_gauss_rule_matches_scipy_tridiagonal_solver(family):
    from scipy.linalg import eigh_tridiagonal

    for m in range(1, 13):
        k = np.arange(1, m, dtype=float)
        beta = k if family == HERMITE else k * k / (4.0 * k * k - 1.0)
        nodes, vecs = eigh_tridiagonal(np.zeros(m), np.sqrt(beta))
        weights = vecs[0] ** 2 / np.sum(vecs[0] ** 2)
        x, w = gauss_rule(family, m)
        np.testing.assert_allclose(x, nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, weights, rtol=1e-14, atol=0)


def test_legendre_two_point_rule_matches_moments():
    n, w = gauss_rule(LEGENDRE, 2)
    assert np.allclose(n, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(w, [0.5, 0.5])
    # brute-force oracle: reproduce the density-1/2 moments up to degree 3
    for k in range(4):
        exact = 0.0 if k % 2 else 1.0 / (k + 1)
        assert w @ n**k == pytest.approx(exact, abs=1e-15)


def test_hermite_rule_matches_normal_moments():
    n, w = gauss_rule(HERMITE, 2)
    for k, exact in enumerate([1.0, 0.0, 1.0, 0.0]):
        assert w @ n**k == pytest.approx(exact, abs=1e-14)


def test_rules_match_numpy_reference():
    n, w = gauss_rule(HERMITE, 7)
    nr, wr = np.polynomial.hermite_e.hermegauss(7)
    assert np.allclose(n, nr) and np.allclose(w, wr / wr.sum())
    n, w = gauss_rule(LEGENDRE, 7)
    nr, wr = np.polynomial.legendre.leggauss(7)
    assert np.allclose(n, nr) and np.allclose(w, wr / 2.0)


def test_tensor_rule_weights_sum_to_one():
    b = build_basis([G, U, G], 2)
    r = tensor_rule(b, 4)
    assert r.count == 64
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_quadrature_exactness():
    """m points per dimension integrate per-dim degree <= 2m-1 exactly."""
    b = build_basis([G, U], 0)
    for m in (2, 3, 4):
        r = tensor_rule(b, m)
        for kg in range(2 * m):
            for ku in range(2 * m):
                got = np.sum(r.weights * r.nodes[:, 0] ** kg * r.nodes[:, 1] ** ku)
                mg = 0.0 if kg % 2 else scipy.stats.norm.moment(kg)
                mu_ = 0.0 if ku % 2 else 1.0 / (ku + 1)
                assert got == pytest.approx(mg * mu_, abs=1e-12, rel=1e-12)


def test_gram_identity_all_small_cases():
    for d in (1, 2, 3):
        for p in range(9 if d <= 2 else 5):
            for fams in itertools.product([G, U], repeat=d) if d <= 2 else [(G, U, G)]:
                b = build_basis(list(fams), p)
                r = tensor_rule(b, p + 1)
                err = np.abs(gram_matrix(b, r) - np.eye(b.size)).max()
                assert err < 1e-12, (d, p, fams)


# -- testing nodes ------------------------------------------------------------


def test_selection_d1_p1():
    b = build_basis([G], 1)
    ts = select_testing_nodes(b, tensor_rule(b, 2))
    assert np.allclose(ts.nodes.ravel(), [-1.0, 1.0])
    assert np.allclose(ts.vandermonde, [[1.0, -1.0], [1.0, 1.0]])


def test_selection_p0_single_node():
    b = build_basis([G, U], 0)
    ts = select_testing_nodes(b, tensor_rule(b, 1))
    assert ts.size == 1
    assert np.allclose(ts.vandermonde, [[1.0]])


def test_selection_conditioning_close_to_best_subset():
    b = build_basis([G, G], 2)
    r = tensor_rule(b, 3)
    ts = select_testing_nodes(b, r)
    best = np.inf
    for sub in itertools.combinations(range(r.count), b.size):
        V = b.eval(r.nodes[list(sub)])
        best = min(best, np.linalg.cond(V))
    assert ts.cond_estimate <= 10.0 * best


def test_selection_deterministic_and_serializable():
    b = build_basis([G, U], 3)
    r = tensor_rule(b, 4)
    a = select_testing_nodes(b, r)
    c = select_testing_nodes(b, r)
    assert np.array_equal(a.nodes, c.nodes)
    assert "cond_estimate" in a.to_json()


def test_selection_v_identity_and_inverse():
    b = build_basis([G, U], 3)
    ts = select_testing_nodes(b, tensor_rule(b, 4))
    assert np.allclose(b.eval(ts.nodes), ts.vandermonde)
    assert np.abs(ts.vandermonde @ ts.v_inv - np.eye(ts.size)).max() < 1e-8


def test_selection_needs_enough_candidates():
    b = build_basis([G], 3)
    with pytest.raises(GpcError):
        select_testing_nodes(b, tensor_rule(b, 2))


def test_selection_raises_when_candidates_do_not_span():
    b = build_basis([G], 2)
    repeated = QuadratureRule(np.array([[-1.0], [1.0], [-1.0], [1.0]]), np.full(4, 0.25))
    with pytest.raises(GpcError, match="does not span"):
        select_testing_nodes(b, repeated)


def test_selection_at_twelve_dimensions():
    b = build_basis([G, U] * 6, 2)  # K = 91 of 531,441 candidates
    ts = select_testing_nodes(b, tensor_rule(b, 3))
    assert ts.size == b.size == 91
    assert np.linalg.matrix_rank(ts.vandermonde) == b.size
    assert ts.cond_estimate < COND_BOUND
    assert np.abs(ts.vandermonde @ ts.v_inv - np.eye(b.size)).max() < 1e-8


def _parent_tensor_rule(basis, points_per_dim):
    """The earlier tensor rule: one meshgrid of nodes, one of weights."""
    rules = [gauss_rule(fam, points_per_dim) for fam in basis.families]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for w in wgrids:
        weights = weights * w.ravel()
    return QuadratureRule(nodes, weights)


def _parent_selection(basis, candidates):
    """The earlier selection: every candidate row evaluated up front, and
    the scan restarted at a tenth of the threshold until K rows are found."""
    K = basis.size
    keys = tuple(candidates.nodes[:, j] for j in range(basis.dim - 1, -1, -1))
    order = np.lexsort(keys + (-candidates.weights,))
    rows_all = basis.eval(candidates.nodes[order])
    threshold = PIVOT_THRESHOLD
    while True:
        picked = []
        ortho = np.zeros((K, K))
        for i, row in enumerate(rows_all):
            n = len(picked)
            resid = row - ortho[:n].T @ (ortho[:n] @ row)
            resid -= ortho[:n].T @ (ortho[:n] @ resid)
            rnorm = np.linalg.norm(resid)
            if rnorm > threshold * max(np.linalg.norm(row), 1e-300):
                ortho[n] = resid / rnorm
                picked.append(i)
                if n + 1 == K:
                    break
        if len(picked) == K:
            break
        threshold *= 0.1
        assert threshold >= 1e-13
    V = rows_all[picked]
    return candidates.nodes[order[picked]], V, np.linalg.inv(V), float(np.linalg.cond(V))


@pytest.mark.parametrize("pattern", ["alternating", "hermite", "legendre"])
def test_selection_matches_the_full_evaluation_bit_for_bit(pattern):
    fams = {"alternating": [G, U], "hermite": [G], "legendre": [U]}[pattern]
    for d in range(1, 7):
        for p in range(6):
            if (p + 1) ** d > 4096:
                break
            b = build_basis((fams * d)[:d], p)
            rule = tensor_rule(b, p + 1)
            ref_rule = _parent_tensor_rule(b, p + 1)
            assert np.array_equal(rule.nodes, ref_rule.nodes)
            assert np.array_equal(rule.weights, ref_rule.weights)
            ts = select_testing_nodes(b, rule)
            got = (ts.nodes, ts.vandermonde, ts.v_inv, ts.cond_estimate)
            for name, a, r in zip(("nodes", "V", "V^-1", "cond"), got, _parent_selection(b, ref_rule)):
                assert np.array_equal(a, r), (d, p, name)


# -- expansions ----------------------------------------------------------------


def test_surrogate_eval_constant_and_linear():
    b = build_basis([G], 2)
    blocks = np.array([[3.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
    for xi in (-1.3, 0.0, 2.1):
        assert np.allclose(b.eval(np.array([xi])) @ blocks, [3.0, -1.0])
    lin = np.array([[0.0], [1.0], [0.0]])
    assert (b.eval(np.array([0.7])) @ lin)[0] == pytest.approx(0.7)


def test_surrogate_at_testing_nodes_is_v_product():
    b = build_basis([G, U], 2)
    ts = select_testing_nodes(b, tensor_rule(b, 3))
    rng = np.random.default_rng(1)
    blocks = rng.normal(size=(b.size, 4))
    stacked = ts.basis.eval(ts.nodes) @ blocks
    assert np.allclose(stacked, ts.vandermonde @ blocks)


def test_moments_trivial():
    mean, std = moments(np.array([2.5, 0.0, 0.0]))
    assert mean == pytest.approx(2.5) and std == pytest.approx(0.0)
    mean, std = moments(np.array([0.0, 1.0, 0.0]))
    assert mean == pytest.approx(0.0) and std == pytest.approx(1.0)


def test_moments_match_quasi_random_sampling():
    b = build_basis([G, U], 3)
    rng = np.random.default_rng(2)
    blocks = rng.normal(size=(b.size, 2))
    mean, std = moments(blocks)
    sob = scipy.stats.qmc.Sobol(d=2, seed=0).random(2**20)
    xi = np.column_stack([scipy.stats.norm.ppf(sob[:, 0]), 2.0 * sob[:, 1] - 1.0])
    vals = b.eval(xi) @ blocks
    assert np.abs(vals.mean(axis=0) - mean).max() < 2e-3 * np.abs(mean).max()
    assert np.abs(vals.std(axis=0) - std).max() < 2e-3 * np.abs(std).max()


def test_blockwise_solve_round_trip():
    b = build_basis([G, G, U], 3)  # K = 20
    ts = select_testing_nodes(b, tensor_rule(b, 4))
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(b.size, 20))
    forward = ts.vandermonde @ blocks
    back = ts.v_inv @ forward
    assert np.abs(back - blocks).max() < 1e-10
