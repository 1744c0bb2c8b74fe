"""Orthonormal polynomial-chaos bases, quadrature, and testing nodes.

Each chaos family is one entry of ``FAMILIES``: the distribution kind it
serves, the coefficients beta_k of the three-term recurrence of its
orthonormal polynomials, and its standardized sampler. Gaussian parameters
use probabilists' Hermite polynomials (beta_k = k), uniform ones Legendre
polynomials on [-1, 1] with density 1/2 (beta_k = k^2 / (4k^2 - 1)). The
same beta_k give the basis values and, through the Jacobi matrix, the Gauss
rules, each a plain ``(nodes, weights)`` pair. Multivariate basis
functions are products of univariate factors over a total-degree index set
in graded lexicographic order with the constant function first, so the
first coefficient block of any expansion is its mean.

The testing-node set is a size-K subset of a tensor Gauss rule chosen so
that the collocation matrix V[i, j] = H_j(node_i) is well conditioned:
one pass ranks the candidates by quadrature weight, evaluates their basis
rows as it reaches them, and accepts a candidate greedily when its row
stays numerically independent of the rows already taken. The rule's
exactness on the Gram matrix leaves some candidate at least 1/sqrt(K) of
its row outside any smaller span, so the first pivot threshold fills K.
The ``TestingSet`` is the one carrier of its basis.

An expansion is a plain array of coefficient blocks, chaos index first;
its value at xi is ``basis.eval(xi) @ blocks`` and ``moments`` gives its
mean and standard deviation.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERMITE = "hermite"
LEGENDRE = "legendre"


class GpcError(ValueError):
    pass


@dataclass(frozen=True)
class Family:
    """One chaos family: its distribution kind, recurrence and sampler.

    ``beta(k)`` gives the recurrence coefficients of the orthonormal
    polynomials, x p_k = sqrt(beta_{k+1}) p_{k+1} + sqrt(beta_k) p_{k-1}
    (both densities are symmetric, so every alpha_k is zero), for an array
    of k >= 1. ``sample`` maps an (N, ``uniforms``) block of uniforms on
    [0, 1) to N standardized coordinates.
    """

    kind: str
    beta: Callable
    uniforms: int
    sample: Callable


def _box_muller(u):
    return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * math.pi * u[:, 1])


FAMILIES = {
    HERMITE: Family("gaussian", lambda k: k, 2, _box_muller),
    LEGENDRE: Family(
        "uniform", lambda k: k * k / (4.0 * k * k - 1.0), 1, lambda u: 2.0 * u[:, 0] - 1.0
    ),
}


def lookup_family(name):
    """The ``FAMILIES`` entry of a family name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise GpcError(f"unknown family {name!r}") from None


def family_for(dist):
    """Polynomial family matching a distribution."""
    for name, fam in FAMILIES.items():
        if fam.kind == dist.kind:
            return name
    raise GpcError(f"no polynomial family for {dist.kind!r} parameters")


def eval_univariate(family, max_order, x):
    """Orthonormal polynomial values of orders 0..max_order at x.

    Returns an array of shape (max_order + 1,) + x.shape.
    """
    b = np.sqrt(lookup_family(family).beta(np.arange(1, max_order + 1, dtype=float)))
    x = np.asarray(x, dtype=float)
    out = np.empty((max_order + 1,) + x.shape)
    out[0] = 1.0
    if max_order == 0:
        return out
    # b[k - 1] = sqrt(beta_k); p_1 has no p_{-1} term
    out[1] = x / b[0]
    for k in range(1, max_order):
        out[k + 1] = (x * out[k] - b[k - 1] * out[k - 1]) / b[k]
    return out


def _graded_indices(d, p):
    """Total-degree multi-indices, grade by grade, lexicographic within."""
    idx = []

    def grade(g, dims):
        if dims == 1:
            return [(g,)]
        return [(first,) + rest for first in range(g, -1, -1) for rest in grade(g - first, dims - 1)]

    for g in range(p + 1):
        idx.extend(grade(g, d))
    return np.array(idx, dtype=int).reshape(len(idx), d)


@dataclass(frozen=True)
class GpcBasis:
    """Multivariate orthonormal basis of total order <= `order`."""

    families: tuple
    order: int
    index_set: np.ndarray  # (K, d)

    @property
    def dim(self):
        return len(self.families)

    @property
    def size(self):
        return self.index_set.shape[0]

    def eval(self, xi):
        """Basis values H_1..H_K at xi; shape (K,) or (B, K)."""
        xi = np.asarray(xi, dtype=float)
        single = xi.ndim == 1
        pts = np.atleast_2d(xi)
        if pts.shape[1] != self.dim:
            raise GpcError(f"expected {self.dim} coordinates, got {pts.shape[1]}")
        vals = np.ones((pts.shape[0], self.size))
        for j, fam in enumerate(self.families):
            uni = eval_univariate(fam, self.order, pts[:, j])  # (p+1, B)
            vals *= uni[self.index_set[:, j]].T
        return vals[0] if single else vals


def basis_size(order, dim):
    """Number of total-degree basis functions, (order + dim)! / (order! dim!)."""
    return math.comb(order + dim, dim)


def build_basis(dists, order):
    """Construct the orthonormal basis for a list of distributions."""
    if order < 0:
        raise GpcError("order must be >= 0")
    families = tuple(family_for(s) for s in dists)
    index_set = _graded_indices(len(families), order)
    basis = GpcBasis(families, order, index_set)
    assert basis.size == basis_size(order, len(families))
    return basis


# ---------------------------------------------------------------------------
# quadrature


def gauss_rule(family, m):
    """1-D Gauss rule with m points for the family's weight function.

    Computed by eigen-decomposition of the symmetric tridiagonal (Jacobi)
    matrix with sqrt(beta_1), ..., sqrt(beta_{m-1}) of the family's
    recurrence off the diagonal (Golub & Welsch), stored dense since m is
    small; weights are normalized to sum to one (the densities are
    probability densities). For m = 1 the matrix is the 1x1 zero: node 0,
    weight 1.
    """
    if m < 1:
        raise GpcError("quadrature needs at least one point")
    off = np.sqrt(lookup_family(family).beta(np.arange(1, m, dtype=float)))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    weights /= weights.sum()
    return nodes, weights


def tensor_rule(basis, points_per_dim):
    """Tensor-product Gauss rule across the basis dimensions, the full grid:
    ``(nodes, weights)``, (M, d) and (M,), the weights summing to one."""
    rules = [gauss_rule(fam, points_per_dim) for fam in basis.families]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij", copy=False)
    nodes = np.stack(grids, axis=-1).reshape(-1, basis.dim)
    weights = rules[0][1]
    for r in rules[1:]:
        weights = np.multiply.outer(weights, r[1]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# testing nodes


@dataclass(frozen=True)
class TestingSet:
    """K testing nodes of a basis with the collocation matrix V and its inverse."""

    basis: GpcBasis
    nodes: np.ndarray  # (K, d)
    vandermonde: np.ndarray  # (K, K), row i = basis values at node i
    v_inv: np.ndarray
    cond_estimate: float

    @property
    def size(self):
        return self.nodes.shape[0]

    def to_json(self):
        return json.dumps(
            {
                "nodes": self.nodes.tolist(),
                "cond_estimate": self.cond_estimate,
                "order": int(self.basis.order),
                "families": list(self.basis.families),
            },
            indent=2,
        )


COND_BOUND = 1e6  # largest accepted condition number of the collocation matrix
PIVOT_THRESHOLD = 1e-3  # relative pivot a candidate row must exceed


def select_testing_nodes(basis, candidates):
    """Pick K candidate nodes whose collocation matrix is well conditioned.

    ``candidates`` is a quadrature rule, ``(nodes, weights)``. One pass
    visits the candidates in order of decreasing quadrature weight (ties
    broken by coordinates, so the choice is deterministic), evaluating
    their basis rows K at a time as the scan reaches them, and accepts a
    candidate when the orthogonalized remainder of its row exceeds
    ``PIVOT_THRESHOLD`` relative to the row norm. For a rule that integrates
    the Gram matrix exactly, as the (p + 1)-point tensor Gauss rule does,
    sum_q w_q H(xi_q) H(xi_q)^T = I, so while fewer than K rows are taken
    some candidate keeps at least 1/sqrt(K) of its row norm outside their
    span and the pass fills all K slots. Candidates that run out first do
    not span the basis; that, or a selection whose condition number exceeds
    ``COND_BOUND``, raises GpcError.
    """
    K = basis.size
    nodes, weights = candidates
    if nodes.shape[0] < K:
        raise GpcError(f"need at least {K} candidates, got {nodes.shape[0]}")
    keys = tuple(nodes[:, j] for j in range(basis.dim - 1, -1, -1))
    order = np.lexsort(keys + (-weights,))
    rows = (
        row
        for start in range(0, order.size, K)
        for row in basis.eval(nodes[order[start:start + K]])
    )

    picked = []
    V = np.empty((K, K))
    ortho = np.zeros((K, K))
    for i, row in zip(order, rows):
        n = len(picked)
        q = ortho[:n]
        resid = row - q.T @ (q @ row)
        # second orthogonalization pass for numerical safety
        resid -= q.T @ (q @ resid)
        rnorm = np.sqrt(resid @ resid)
        if rnorm > PIVOT_THRESHOLD * max(np.sqrt(row @ row), 1e-300):
            ortho[n] = resid / rnorm
            V[n] = row
            picked.append(i)
            if n + 1 == K:
                break
    else:
        raise GpcError("candidate set does not span the basis (rank deficient)")

    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > COND_BOUND:
        raise GpcError(f"collocation matrix too ill-conditioned: cond = {cond:.3e}")
    return TestingSet(basis, nodes[picked], V, np.linalg.inv(V), cond)


# ---------------------------------------------------------------------------
# expansion statistics


def moments(blocks):
    """Mean and standard deviation of an orthonormal expansion whose
    coefficients run along the leading axis: block 0, and the root sum of
    squares of the others."""
    return blocks[0].copy(), np.sqrt(np.sum(blocks[1:] ** 2, axis=0))
