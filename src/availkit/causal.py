"""Metric dependency structure learning: PC-stable with Fisher-z tests.

The pipeline is correlation -> skeleton search -> v-structure orientation
-> Meek completion, yielding a CPDAG per service. The skeleton search is
the order-independent PC-stable variant: neighbourhoods are snapshotted at
the start of each level, so edge removals within a level cannot influence
one another. d-separation on a known DAG doubles as an exact CI oracle for
testing the same machinery.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AllColumnsDegenerate,
    DuplicateName,
    InsufficientRows,
    SingularSubmatrix,
    TooFewSamples,
)
from .model import MetricDependencyGraph, MetricMatrix, column_name, topological_order


@dataclass(frozen=True)
class PCConfig:
    alpha: float = 0.01
    max_cond: int = 3
    min_rows: int = 100

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.max_cond < 0:
            raise ValueError("max_cond must be >= 0")
        if self.min_rows < 5:
            raise ValueError("min_rows must be >= 5")


@dataclass
class CorrelationResult:
    matrix: np.ndarray
    columns: list  # retained column labels
    dropped: list  # degenerate column labels, in input order
    n_rows: int    # complete rows the correlations were computed over


@dataclass
class SkeletonResult:
    adjacency: np.ndarray                      # symmetric bool, False diagonal
    sepsets: dict[tuple[int, int], frozenset]  # unordered pair -> separating set
    columns: list = field(default_factory=list)
    n_rows: int = 0

    def edges(self) -> list[tuple[int, int]]:
        n = self.adjacency.shape[0]
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.adjacency[i, j]]


def _complete_and_nondegenerate(values: np.ndarray, columns: Sequence) -> tuple[np.ndarray, list[int], list]:
    """Listwise deletion interleaved with degenerate-column removal.

    A column is degenerate when it has fewer than two present values or
    zero variance; dropping one can promote rows to complete, so iterate
    to a fixpoint. Column membership depends only on per-column data, so
    the outcome is invariant under column permutation.
    """
    keep = list(range(values.shape[1]))
    dropped: list[int] = []
    # columns useless on their own data never survive
    for idx in list(keep):
        col = values[:, idx]
        present = col[~np.isnan(col)]
        if present.size < 2 or float(np.std(present)) == 0.0:
            keep.remove(idx)
            dropped.append(idx)
    while True:
        if not keep:
            break
        sub = values[:, keep]
        complete = ~np.isnan(sub).any(axis=1)
        rows = sub[complete]
        if rows.shape[0] < 2:
            break
        degenerate = [keep[c] for c in range(rows.shape[1]) if float(np.std(rows[:, c])) == 0.0]
        if not degenerate:
            break
        for idx in degenerate:
            keep.remove(idx)
            dropped.append(idx)
    sub = values[:, keep] if keep else values[:, :0]
    complete = ~np.isnan(sub).any(axis=1) if keep else np.zeros(values.shape[0], bool)
    dropped_labels = [columns[i] for i in sorted(dropped)]
    return sub[complete], keep, dropped_labels


def correlation_matrix(data: MetricMatrix) -> CorrelationResult:
    """Pearson correlations over complete rows, degenerate columns dropped.

    The diagonal is exactly 1 and every entry is clamped to [-1, 1]. A
    name that labels two columns raises DuplicateName.
    """
    names = data.column_names()
    if len(set(names)) != len(names):
        repeated = sorted(name for name, count in Counter(names).items() if count > 1)
        raise DuplicateName(f"column names must be unique, got {repeated} more than once")
    rows, keep, dropped = _complete_and_nondegenerate(data.values, data.columns)
    if not keep:
        raise AllColumnsDegenerate("every column is constant or too sparse")
    if rows.shape[0] < 2:
        raise InsufficientRows(f"need >= 2 complete rows, got {rows.shape[0]}")
    corr = np.corrcoef(rows, rowvar=False)
    corr = np.atleast_2d(corr)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationResult(
        matrix=corr,
        columns=[data.columns[i] for i in keep],
        dropped=dropped,
        n_rows=int(rows.shape[0]),
    )


def partial_correlation(corr: np.ndarray, i: int, j: int, cond: Iterable[int]) -> float:
    """Partial correlation of i and j given the conditioning set.

    Empty set: the raw entry. One variable: the textbook recursion.
    Larger sets: off-diagonal of the inverse of the principal submatrix
    over {i, j} union S, sign-flipped and normalised.
    """
    s = sorted(set(cond))
    if i == j or i in s or j in s:
        raise ValueError("i, j must be distinct and outside the conditioning set")
    if not s:
        return float(corr[i, j])
    if len(s) == 1:
        k = s[0]
        rij, rik, rjk = float(corr[i, j]), float(corr[i, k]), float(corr[j, k])
        denom = (1.0 - rik * rik) * (1.0 - rjk * rjk)
        if denom <= 1e-20:
            raise SingularSubmatrix(f"conditioning on {k} leaves no residual variance")
        return float(np.clip((rij - rik * rjk) / math.sqrt(denom), -1.0, 1.0))
    idx = [i, j, *s]
    sub = corr[np.ix_(idx, idx)]
    smallest = float(np.linalg.svd(sub, compute_uv=False)[-1])
    if smallest < 1e-10:
        raise SingularSubmatrix(f"principal submatrix over {idx} is singular")
    omega = np.linalg.inv(sub)
    denom = omega[0, 0] * omega[1, 1]
    if denom <= 0:
        raise SingularSubmatrix(f"inverse over {idx} is not positive on the diagonal")
    return float(np.clip(-omega[0, 1] / math.sqrt(denom), -1.0, 1.0))


def fisher_z_test(rho: float, n: int, s: int, alpha: float) -> tuple[bool, float]:
    """Fisher-z conditional independence test.

    Returns (independent, p_value) where the statistic is
    sqrt(n - s - 3) * |atanh(rho)| against the standard normal, and
    independence is declared when p > alpha.
    """
    if n - s - 3 < 1:
        raise TooFewSamples(f"need n - s - 3 >= 1, got n={n}, s={s}")
    r = float(rho)
    if abs(r) >= 1.0:
        return False, 0.0
    z = 0.5 * math.log((1.0 + r) / (1.0 - r))
    stat = math.sqrt(n - s - 3) * abs(z)
    p = math.erfc(stat / math.sqrt(2.0))  # == 2 * (1 - Phi(stat))
    return p > alpha, p


CITest = Callable[[int, int, tuple[int, ...]], bool]


def skeleton_from_ci(n_vars: int, ci: CITest, max_cond: int) -> SkeletonResult:
    """PC-stable skeleton search over an arbitrary CI predicate.

    Starts complete; at level l every ordered edge (i, j) is tested against
    the size-l subsets of i's level-start neighbourhood (minus j) in
    lexicographic order, removing the edge on the first independence and
    recording that subset as the pair's separating set.
    """
    adj = np.ones((n_vars, n_vars), dtype=bool)
    np.fill_diagonal(adj, False)
    sepsets: dict[tuple[int, int], frozenset] = {}
    for level in range(0, max_cond + 1):
        snapshot = adj.copy()
        for i in range(n_vars):
            for j in range(n_vars):
                if i == j or not adj[i, j]:
                    continue
                neighbours = [k for k in range(n_vars) if snapshot[i, k] and k != j]
                if len(neighbours) < level:
                    continue
                for cond in combinations(neighbours, level):
                    if ci(i, j, cond):
                        adj[i, j] = adj[j, i] = False
                        sepsets[(min(i, j), max(i, j))] = frozenset(cond)
                        break
        degrees = adj.sum(axis=1)
        if degrees.size and int(degrees.max()) <= level + 1:
            break
    return SkeletonResult(adjacency=adj, sepsets=sepsets)


def _fisher_ci(corr: np.ndarray, n_rows: int, alpha: float) -> CITest:
    def ci(i: int, j: int, cond: tuple[int, ...]) -> bool:
        try:
            rho = partial_correlation(corr, i, j, cond)
        except SingularSubmatrix:
            return False  # keep the edge: conservative
        try:
            independent, _ = fisher_z_test(rho, n_rows, len(cond), alpha)
        except TooFewSamples:
            return False
        return independent

    return ci


def pc_skeleton(data: MetricMatrix, cfg: PCConfig) -> SkeletonResult:
    """Skeleton of the metric dependency graph from aligned data."""
    corr_res = correlation_matrix(data)
    if corr_res.n_rows < cfg.min_rows:
        raise InsufficientRows(
            f"need >= {cfg.min_rows} complete rows, got {corr_res.n_rows}"
        )
    ci = _fisher_ci(corr_res.matrix, corr_res.n_rows, cfg.alpha)
    skel = skeleton_from_ci(len(corr_res.columns), ci, cfg.max_cond)
    skel.columns = corr_res.columns
    skel.n_rows = corr_res.n_rows
    return skel


def orient_v_structures(skel: SkeletonResult, metrics: Sequence[str] | None = None) -> MetricDependencyGraph:
    """Orient unshielded colliders i -> k <- j where k is outside sepset(i, j).

    When two triples demand opposite directions on one edge, the edge stays
    undirected and is flagged as a conflict.
    """
    n = skel.adjacency.shape[0]
    if metrics is None:
        metrics = [column_name(c) for c in skel.columns] if skel.columns else [f"x{i}" for i in range(n)]
    demanded: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for k in range(n):
        nbrs = [i for i in range(n) if skel.adjacency[i, k]]
        for i, j in combinations(nbrs, 2):
            if skel.adjacency[i, j]:
                continue  # shielded
            pair = (min(i, j), max(i, j))
            sepset = skel.sepsets.get(pair)
            if sepset is None or k in sepset:
                continue
            demanded.setdefault((min(i, k), max(i, k)), set()).add((i, k))
            demanded.setdefault((min(j, k), max(j, k)), set()).add((j, k))

    directed: set[tuple[int, int]] = set()
    undirected: set[tuple[int, int]] = set()
    conflicts: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if not skel.adjacency[i, j]:
                continue
            wants = demanded.get((i, j), set())
            if len(wants) == 1:
                directed.add(next(iter(wants)))
            else:
                undirected.add((i, j))
                if len(wants) > 1:
                    conflicts.add((i, j))
    return MetricDependencyGraph(
        metrics=list(metrics),
        directed=directed,
        undirected=undirected,
        conflicts=conflicts,
    )


def _has_directed_path(directed: set[tuple[int, int]], src: int, dst: int) -> bool:
    succ: dict[int, list[int]] = {}
    for a, b in directed:
        succ.setdefault(a, []).append(b)
    stack = [src]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(succ.get(cur, ()))
    return False


def meek_closure(pdag: MetricDependencyGraph) -> MetricDependencyGraph:
    """Apply Meek rules R1-R3 to a fixpoint.

    An orientation that would create a directed cycle or a fresh
    v-structure is skipped (possible only when the input carries
    conflicting evidence). R4 is omitted: no background knowledge.
    """
    n = len(pdag.metrics)
    directed = set(pdag.directed)
    undirected = set(pdag.undirected)

    def adjacent(a: int, b: int) -> bool:
        return (
            (min(a, b), max(a, b)) in undirected
            or (a, b) in directed
            or (b, a) in directed
        )

    def try_orient(x: int, y: int) -> bool:
        edge = (min(x, y), max(x, y))
        if edge not in undirected:
            return False
        if _has_directed_path(directed, y, x):
            return False  # would close a directed cycle
        for z, t in directed:
            if t == y and z != x and not adjacent(z, x):
                return False  # would create a new v-structure x -> y <- z
        undirected.discard(edge)
        directed.add((x, y))
        return True

    changed = True
    while changed:
        changed = False
        # R1: a -> b, b - c, a and c non-adjacent  =>  b -> c
        for a, b in sorted(directed):
            for edge in sorted(undirected):
                for b2, c in (edge, edge[::-1]):
                    if b2 == b and c != a and not adjacent(a, c):
                        if try_orient(b, c):
                            changed = True
        # R2: a -> b -> c with a - c  =>  a -> c
        for a, b in sorted(directed):
            for b2, c in sorted(directed):
                if b2 == b and c != a and (min(a, c), max(a, c)) in undirected:
                    if try_orient(a, c):
                        changed = True
        # R3: a - b, a - c, a - d, c -> b, d -> b, c and d non-adjacent  =>  a -> b
        for a in range(n):
            a_undir = [
                (min(a, x), max(a, x)) for x in range(n) if (min(a, x), max(a, x)) in undirected
            ]
            nbrs = sorted({x for e in a_undir for x in e if x != a})
            for b in nbrs:
                into_b = sorted({c for c, t in directed if t == b})
                for c, d in combinations(into_b, 2):
                    if c in nbrs and d in nbrs and not adjacent(c, d):
                        if try_orient(a, b):
                            changed = True
                            break
    out = MetricDependencyGraph(
        metrics=list(pdag.metrics),
        directed=directed,
        undirected=undirected,
        conflicts=set(pdag.conflicts),
        dropped=list(pdag.dropped),
    )
    if not out.directed_is_acyclic():
        raise AssertionError("Meek closure produced a directed cycle")
    return out


def learn_metric_graph(data: MetricMatrix, cfg: PCConfig) -> MetricDependencyGraph:
    """Full structure-learning pipeline over one aligned matrix.

    Columns are processed in a canonical (name-sorted) internal order, so
    the result is exactly invariant under input column permutation; edge
    indices in the returned graph refer to the retained metrics in their
    original input order.
    """
    names = data.column_names()
    order = sorted(range(len(names)), key=lambda k: names[k])
    canon = MetricMatrix(
        interval_ms=data.interval_ms,
        start_ms=data.start_ms,
        columns=[names[k] for k in order],
        values=data.values[:, order],
    )

    skel = pc_skeleton(canon, cfg)
    pdag = orient_v_structures(skel)
    cpdag = meek_closure(pdag)

    # map back to the original column order, restricted to retained metrics
    retained = set(skel.columns)
    out_names = [nm for nm in names if nm in retained]
    canon_to_out = {cn: out_names.index(cn) for cn in skel.columns}
    remap = lambda e: (canon_to_out[cpdag.metrics[e[0]]], canon_to_out[cpdag.metrics[e[1]]])
    return MetricDependencyGraph(
        metrics=out_names,
        directed={remap(e) for e in cpdag.directed},
        undirected={remap(e) for e in cpdag.undirected},
        conflicts={tuple(sorted(remap(e))) for e in cpdag.conflicts},
        dropped=[nm for nm in names if nm not in retained],
    )


# --- exact oracles over known DAGs ---

def d_separated(n: int, dag_edges: Iterable[tuple[int, int]], i: int, j: int, cond: Iterable[int]) -> bool:
    """Exact d-separation via the moralized ancestral graph criterion.

    i and j are d-separated by S iff they are disconnected in the
    moralization of the subgraph induced on the ancestors of {i, j} | S,
    after removing S.
    """
    z = set(cond)
    if i == j or i in z or j in z:
        raise ValueError("i, j must be distinct and outside the conditioning set")
    parents: dict[int, set[int]] = {k: set() for k in range(n)}
    for a, b in dag_edges:
        parents[b].add(a)
    # ancestors of {i, j} union S (inclusive)
    anc: set[int] = set()
    stack = [i, j, *z]
    while stack:
        cur = stack.pop()
        if cur in anc:
            continue
        anc.add(cur)
        stack.extend(parents[cur])
    # moralize: undirected edges for parent->child and co-parent pairs
    neigh: dict[int, set[int]] = {k: set() for k in anc}
    for b in anc:
        ps = [p for p in parents[b] if p in anc]
        for p in ps:
            neigh[p].add(b)
            neigh[b].add(p)
        for p, q in combinations(ps, 2):
            neigh[p].add(q)
            neigh[q].add(p)
    # connectivity avoiding S
    stack = [i]
    seen = {i}
    while stack:
        cur = stack.pop()
        if cur == j:
            return False
        for nxt in neigh[cur]:
            if nxt not in seen and nxt not in z:
                seen.add(nxt)
                stack.append(nxt)
    return True


def cpdag_of_dag(metrics: Sequence[str], dag_edges: Iterable[tuple[int, int]]) -> MetricDependencyGraph:
    """The CPDAG of a known DAG: skeleton + its unshielded colliders,
    completed by the Meek rules. Used as ground truth when evaluating the
    learned graph."""
    n = len(metrics)
    edges = set(dag_edges)
    if topological_order(n, edges) is None:
        raise ValueError("input edge set has a directed cycle")
    adjacent = {(min(a, b), max(a, b)) for a, b in edges}
    parents: dict[int, set[int]] = {k: set() for k in range(n)}
    for a, b in edges:
        parents[b].add(a)
    directed: set[tuple[int, int]] = set()
    for k in range(n):
        for i, j in combinations(sorted(parents[k]), 2):
            if (min(i, j), max(i, j)) not in adjacent:
                directed.add((i, k))
                directed.add((j, k))
    undirected = {e for e in adjacent if e not in directed and e[::-1] not in directed}
    pdag = MetricDependencyGraph(
        metrics=list(metrics), directed=directed, undirected=undirected
    )
    return meek_closure(pdag)
