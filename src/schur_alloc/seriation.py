"""Asset reordering (quasi-diagonalization) by single-linkage clustering
on the correlation distance, so that bisection discards less covariance.

The leaf order is that of merging the closest pair of clusters one at a
time, with exact ties broken by keys that read distances, not labels. It is
computed from the minimum spanning tree of the distance graph (Gower & Ross
1969; Muellner 2011, arXiv:1109.2378) in O(n^2) time, O(n^2 log n) at worst
when three or more clusters tie at many heights. Beyond the distance matrix
it needs O(n) memory, tied distances included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .covmat import cov_values
from .errors import DimensionMismatch, InputError, ZeroVariance

SERIATION_METHODS = ("single_linkage", "identity")


@dataclass(frozen=True)
class Permutation:
    """order[i] = original index of the asset placed at position i."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise InputError("order is not a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.order)


def correlation_distance(cov) -> np.ndarray:
    """d_ij = sqrt(0.5 * (1 - rho_ij)), zero diagonal, entries in [0, 1].

    Computed as sqrt(max(0.5 * (1 - clip(rho, -1, 1)), 0)), one step at a
    time in a single n x n buffer. A covariance accepted as symmetric may
    still differ across the diagonal in its last bits; each distance pair
    then takes the smaller of its two readings, so the result is exactly
    symmetric.
    """
    values = cov_values(cov)
    diag = np.diag(values)
    if diag.min() <= 0.0:
        raise ZeroVariance("correlation distance needs strictly positive variances")
    vol = np.sqrt(diag)
    dist = np.outer(vol, vol)
    np.divide(values, dist, out=dist)
    np.clip(dist, -1.0, 1.0, out=dist)
    np.subtract(1.0, dist, out=dist)
    np.multiply(0.5, dist, out=dist)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    for i in range(values.shape[0] - 1):
        upper = dist[i, i + 1:]
        np.minimum(upper, dist[i + 1:, i], out=upper)
        dist[i + 1:, i] = upper
    np.fill_diagonal(dist, 0.0)
    return dist


def seriate(cov, method: str = "single_linkage") -> Permutation:
    """Leaf order of the single-linkage dendrogram of the correlation distance.

    O(n^2) time and O(n) memory beyond the n x n distance matrix; see
    `_single_linkage_order` for the algorithm and the tie rule.
    """
    values = cov_values(cov)
    n = values.shape[0]
    if method not in SERIATION_METHODS:
        raise InputError(f"unknown seriation method {method!r}")
    if method == "identity" or n <= 2:
        return Permutation(tuple(range(n)))
    return Permutation(tuple(_single_linkage_order(correlation_distance(cov))))


def _mst_edges(dist: np.ndarray) -> list[tuple[float, int, int]]:
    """The n - 1 edges (weight, i, j) of a minimum spanning tree of the
    distance graph, by ascending weight.

    Prim's algorithm, O(n^2) time and O(n) memory. Every minimum spanning
    tree has the same weights, and its edges below any level join the same
    clusters (Gower & Ross 1969), so these are the single-linkage merges.
    """
    n = dist.shape[0]
    nearest = dist[0].copy()                # distance from the tree to each vertex
    via = np.zeros(n, dtype=np.intp)        # the tree vertex at that distance
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    nearest[0] = np.inf
    edges = []
    for _ in range(n - 1):
        j = int(np.argmin(nearest))
        edges.append((float(nearest[j]), int(via[j]), j))
        in_tree[j] = True
        closer = dist[j] < nearest
        np.copyto(nearest, dist[j], where=closer)
        via[closer] = j
        nearest[in_tree] = np.inf
    edges.sort(key=itemgetter(0))
    return edges


def _components(pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph with edges `pairs`, each sorted."""
    adjacent: dict[int, list[int]] = {}
    for a, b in pairs:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    seen: set[int] = set()
    groups = []
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        stack, group = [start], []
        while stack:
            vertex = stack.pop()
            group.append(vertex)
            for other in adjacent[vertex]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        groups.append(sorted(group))
    return groups


def _single_linkage_order(dist: np.ndarray) -> list[int]:
    """Dendrogram leaf order from agglomerative single-linkage clustering.

    `dist` must be exactly symmetric, as `correlation_distance` returns it.
    Each asset i has the key (rowmass_i, i), with rowmass_i its total
    distance, and a cluster the smallest key of its assets. Merge selection
    is by minimum linkage distance with exact ties broken by the smallest
    pair of cluster keys, and within a merge the child with the smaller key
    is placed first. The distance mass makes the leaf order a function of
    distances alone wherever masses differ, exact ties included, so that
    relabelling the assets permutes the order; the index only separates
    equal masses (e.g. equicorrelated inputs).

    The merge heights are the weights of a minimum spanning tree
    (`_mst_edges`), taken in increasing order. The tree edges at one height
    join the clusters below it into groups. A group of two is one merge. In
    a larger group the tie rule grows the smallest-key cluster, which absorbs
    its smallest-key neighbour at that height until none is left; a pair is
    neighbours if any of their assets lie exactly that far apart. The
    neighbours are found by scanning the distance rows of each absorbed
    cluster's assets, except those of the group's largest cluster, which are
    found from the other side. An asset is scanned only when its cluster at
    least doubles, so the whole costs O(n^2) time without three-way ties and
    O(n^2 log n) at worst, with O(n) memory beyond `dist`. The order is the
    one merging a single closest pair at a time would give.
    """
    n = dist.shape[0]
    mass = dist.sum(axis=1)
    rowmass = mass.tolist()
    # a cluster lives at the index of its smallest-key asset, so its key is (rowmass[c], c)
    label = np.arange(n)                        # cluster of each asset
    leaves = [[i] for i in range(n)]            # leaf list per cluster

    def key(cluster: int) -> tuple[float, int]:
        return rowmass[cluster], cluster

    def merge(first: int, second: int) -> None:
        if key(second) < key(first):
            first, second = second, first
        leaves[first] = leaves[first] + leaves[second]
        label[leaves[second]] = first
        leaves[second] = []

    def absorb(group: list[int], level: float) -> None:
        grown = min(group, key=key)
        big = max(group, key=lambda c: len(leaves[c]))
        beside_big = np.zeros(n, dtype=bool)    # clusters that neighbour `big`
        for cluster in group:
            if cluster != big:
                beside_big[cluster] = any((label[dist[i] == level] == big).any()
                                          for i in leaves[cluster])
        frontier = np.zeros(n, dtype=bool)      # neighbours of `grown` not yet absorbed
        cluster = grown
        while True:
            assets = leaves[cluster]
            if cluster != grown:
                merge(grown, cluster)
            beside_big[cluster] = False
            if cluster == big:
                frontier |= beside_big
            else:
                for i in assets:
                    frontier[label[dist[i] == level]] = True
            frontier[grown] = frontier[cluster] = False
            # the smallest key in the frontier: least mass, then least index
            cluster = int(np.argmin(np.where(frontier, mass, np.inf)))
            if not frontier[cluster]:
                return

    for level, edges in groupby(_mst_edges(dist), key=itemgetter(0)):
        pairs = [(int(label[i]), int(label[j])) for _, i, j in edges]
        for group in _components(pairs):
            if len(group) == 2:
                merge(*group)
            else:
                absorb(group, level)

    return leaves[label[0]]


def permute_matrix(cov, perm: Permutation) -> np.ndarray:
    """P Sigma P': entry (i, j) of the result is Sigma[order[i], order[j]]."""
    values = cov_values(cov)
    if values.shape[0] != len(perm):
        raise DimensionMismatch("permutation size does not match matrix size")
    idx = np.asarray(perm.order)
    return values[np.ix_(idx, idx)]


def permute_vector(vec, perm: Permutation) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (len(perm),):
        raise DimensionMismatch("permutation size does not match vector size")
    return vec[np.asarray(perm.order)]


def unpermute_weights(weights, perm: Permutation) -> np.ndarray:
    """Map weights computed in permuted coordinates back to the original order."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(perm),):
        raise DimensionMismatch("permutation size does not match weight size")
    out = np.empty_like(weights)
    out[np.asarray(perm.order)] = weights
    return out
