import math

import numpy as np
import pytest

from availkit.causal import (
    PCConfig,
    SkeletonResult,
    correlation_matrix,
    cpdag_of_dag,
    d_separated,
    fisher_z_test,
    learn_metric_graph,
    meek_closure,
    orient_v_structures,
    partial_correlation,
    pc_skeleton,
    skeleton_from_ci,
)
from availkit.errors import (
    AllColumnsDegenerate,
    DuplicateName,
    InsufficientRows,
    SingularSubmatrix,
    TooFewSamples,
)
from availkit.model import MetricDependencyGraph, MetricMatrix


def matrix(values, columns=None):
    values = np.asarray(values, dtype=float)
    if columns is None:
        columns = [f"m{i}" for i in range(values.shape[1])]
    return MetricMatrix(interval_ms=1000, start_ms=0, columns=columns, values=values)


def sample_chain(n, rng):
    """X -> Y -> Z linear-Gaussian rows."""
    x = rng.normal(size=n)
    y = 0.8 * x + rng.normal(size=n)
    z = 0.8 * y + rng.normal(size=n)
    return np.column_stack([x, y, z])


def sample_collider(n, rng):
    """X -> Z <- Y with X independent of Y."""
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    z = 0.8 * x + 0.8 * y + rng.normal(size=n)
    return np.column_stack([x, y, z])


class TestCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        res = correlation_matrix(matrix(np.column_stack([x, x * 2.0 + 1.0])))
        assert res.matrix[0, 0] == 1.0
        assert res.matrix[0, 1] == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=300)
        res = correlation_matrix(matrix(np.column_stack([x, -x])))
        assert res.matrix[0, 1] == pytest.approx(-1.0)

    def test_independent_noise_is_small(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(10000, 2))
        res = correlation_matrix(matrix(data))
        assert abs(res.matrix[0, 1]) < 0.05

    def test_degenerate_column_dropped(self):
        rng = np.random.default_rng(3)
        data = np.column_stack([rng.normal(size=200), np.full(200, 7.0), rng.normal(size=200)])
        res = correlation_matrix(matrix(data, ["a", "b", "c"]))
        assert res.columns == ["a", "c"]
        assert res.dropped == ["b"]

    def test_all_degenerate(self):
        with pytest.raises(AllColumnsDegenerate):
            correlation_matrix(matrix(np.ones((50, 2))))

    def test_insufficient_rows(self):
        # both columns individually fine, but no row is jointly complete
        data = np.array(
            [[1.0, np.nan], [3.0, np.nan], [np.nan, 2.0], [np.nan, 5.0]]
        )
        with pytest.raises(InsufficientRows):
            correlation_matrix(matrix(data))

    def test_single_surviving_column(self):
        data = np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, np.nan]])
        res = correlation_matrix(matrix(data, ["a", "b"]))
        assert res.columns == ["a"]
        assert res.matrix.shape == (1, 1) and res.matrix[0, 0] == 1.0

    def test_incomplete_rows_ignored(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(400, 2))
        dirty = data.copy()
        dirty[::7, 0] = np.nan
        res = correlation_matrix(matrix(dirty))
        clean_rows = data[~np.isnan(dirty).any(axis=1)]
        want = np.corrcoef(clean_rows, rowvar=False)[0, 1]
        assert res.matrix[0, 1] == pytest.approx(want)
        assert res.n_rows == clean_rows.shape[0]


class TestPartialCorrelation:
    def test_empty_set_returns_raw(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert partial_correlation(corr, 0, 1, []) == pytest.approx(0.3)

    def test_zero_off_diagonals_stay_zero(self):
        corr = np.eye(4)
        assert partial_correlation(corr, 0, 1, [2]) == 0.0
        assert partial_correlation(corr, 0, 1, [2, 3]) == pytest.approx(0.0)

    def test_chain_values_vanish(self):
        corr = np.array(
            [
                [1.0, 0.48, 0.8],
                [0.48, 1.0, 0.6],
                [0.8, 0.6, 1.0],
            ]
        )
        assert partial_correlation(corr, 0, 1, [2]) == pytest.approx(0.0, abs=1e-15)

    def test_conditioning_on_uncorrelated_variable(self):
        corr = np.array(
            [
                [1.0, 0.5, 0.0],
                [0.5, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert partial_correlation(corr, 0, 1, [2]) == pytest.approx(0.5)

    def test_recursion_matches_inverse_method(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(2000, 4)) @ rng.normal(size=(4, 4))
        corr = np.corrcoef(data, rowvar=False)
        # |S|=2 via inverse vs nested recursion formula
        r01_2 = partial_correlation(corr, 0, 1, [2])
        r03_2 = partial_correlation(corr, 0, 3, [2])
        r13_2 = partial_correlation(corr, 1, 3, [2])
        nested = (r01_2 - r03_2 * r13_2) / math.sqrt((1 - r03_2**2) * (1 - r13_2**2))
        direct = partial_correlation(corr, 0, 1, [2, 3])
        assert direct == pytest.approx(nested, abs=1e-10)

    def test_singular_submatrix(self):
        corr = np.array(
            [
                [1.0, 0.5, 1.0],
                [0.5, 1.0, 0.5],
                [1.0, 0.5, 1.0],
            ]
        )
        with pytest.raises(SingularSubmatrix):
            partial_correlation(corr, 0, 1, [2])


class TestFisherZ:
    def test_zero_rho_is_independent(self):
        independent, p = fisher_z_test(0.0, 100, 0, 0.5)
        assert independent and p == 1.0

    def test_strong_rho_is_dependent(self):
        # stat = sqrt(97) * 0.5 * ln(19) ~ 14.50
        independent, p = fisher_z_test(0.9, 100, 0, 0.01)
        stat = math.sqrt(97) * 0.5 * math.log(19)
        assert stat == pytest.approx(14.4997, abs=1e-3)
        assert not independent and p < 1e-12

    def test_weak_rho_small_sample_independent(self):
        # stat = sqrt(12) * 0.100335 ~ 0.3476
        independent, p = fisher_z_test(0.1, 20, 5, 0.05)
        stat = math.sqrt(12) * 0.5 * math.log(1.1 / 0.9)
        assert stat == pytest.approx(0.34757, abs=1e-4)
        assert independent and p > 0.05

    def test_unit_rho_is_dependent(self):
        independent, p = fisher_z_test(1.0, 100, 0, 0.01)
        assert not independent and p == 0.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fisher_z_test(0.5, 8, 5, 0.05)

    def test_p_monotone_in_abs_rho(self):
        last = 2.0
        for rho in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            _, p = fisher_z_test(rho, 200, 2, 0.05)
            assert p <= last
            last = p


class TestSkeleton:
    def test_independent_columns_empty_skeleton(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(5000, 2))
        skel = pc_skeleton(matrix(data), PCConfig(alpha=0.01))
        assert skel.edges() == []
        assert skel.sepsets[(0, 1)] == frozenset()

    def test_chain_skeleton_and_sepset(self):
        rng = np.random.default_rng(7)
        skel = pc_skeleton(matrix(sample_chain(5000, rng)), PCConfig(alpha=0.01))
        assert skel.edges() == [(0, 1), (1, 2)]
        assert skel.sepsets[(0, 2)] == frozenset({1})

    def test_collider_skeleton_and_empty_sepset(self):
        rng = np.random.default_rng(8)
        skel = pc_skeleton(matrix(sample_collider(5000, rng)), PCConfig(alpha=0.01))
        assert skel.edges() == [(0, 2), (1, 2)]
        assert skel.sepsets[(0, 1)] == frozenset()

    def test_min_rows_enforced(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InsufficientRows):
            pc_skeleton(matrix(rng.normal(size=(50, 3))), PCConfig(min_rows=100))


class TestOrientation:
    def test_collider_oriented(self):
        rng = np.random.default_rng(10)
        skel = pc_skeleton(matrix(sample_collider(5000, rng)), PCConfig())
        pdag = orient_v_structures(skel)
        assert pdag.directed == {(0, 2), (1, 2)}
        assert pdag.undirected == set()

    def test_chain_not_oriented(self):
        rng = np.random.default_rng(11)
        skel = pc_skeleton(matrix(sample_chain(5000, rng)), PCConfig())
        pdag = orient_v_structures(skel)
        assert pdag.directed == set()
        assert pdag.undirected == {(0, 1), (1, 2)}

    def test_conflicting_orientations_stay_undirected(self):
        # two unshielded triples demand b -> c and c -> b
        adjacency = np.zeros((4, 4), dtype=bool)
        for i, j in [(0, 1), (1, 2), (2, 3)]:  # a - b - c - d path
            adjacency[i, j] = adjacency[j, i] = True
        sepsets = {(0, 2): frozenset(), (1, 3): frozenset(), (0, 3): frozenset()}
        skel = SkeletonResult(adjacency=adjacency, sepsets=sepsets)
        pdag = orient_v_structures(skel, metrics=["a", "b", "c", "d"])
        # triple a-b-c demands b <- ... wait: a->b<-c and b->c<-d both touch (1,2)
        assert (1, 2) in pdag.undirected
        assert (1, 2) in pdag.conflicts


class TestMeek:
    def test_r1_propagates(self):
        pdag = MetricDependencyGraph(
            metrics=["x", "z", "w"], directed={(0, 1)}, undirected={(1, 2)}
        )
        out = meek_closure(pdag)
        assert (1, 2) in out.directed

    def test_undirected_triangle_unchanged(self):
        pdag = MetricDependencyGraph(
            metrics=["a", "b", "c"], undirected={(0, 1), (1, 2), (0, 2)}
        )
        out = meek_closure(pdag)
        assert out.directed == set()
        assert out.undirected == {(0, 1), (1, 2), (0, 2)}

    def test_r2_closes_triangle(self):
        pdag = MetricDependencyGraph(
            metrics=["a", "b", "c"], directed={(0, 1), (1, 2)}, undirected={(0, 2)}
        )
        out = meek_closure(pdag)
        assert (0, 2) in out.directed

    def test_r3_fires(self):
        # a - b, a - c, a - d, c -> b, d -> b, c/d non-adjacent => a -> b
        pdag = MetricDependencyGraph(
            metrics=["a", "b", "c", "d"],
            directed={(2, 1), (3, 1)},
            undirected={(0, 1), (0, 2), (0, 3)},
        )
        out = meek_closure(pdag)
        assert (0, 1) in out.directed


def random_dag(n_nodes, rng, p=0.4):
    order = rng.permutation(n_nodes)
    edges = set()
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            if rng.uniform() < p:
                edges.add((int(order[a]), int(order[b])))
    return edges


class TestDSeparationOracle:
    def test_chain_blocked_by_middle(self):
        edges = [(0, 1), (1, 2)]
        assert not d_separated(3, edges, 0, 2, [])
        assert d_separated(3, edges, 0, 2, [1])

    def test_collider_opens_when_conditioned(self):
        edges = [(0, 2), (1, 2)]
        assert d_separated(3, edges, 0, 1, [])
        assert not d_separated(3, edges, 0, 1, [2])

    def test_descendant_of_collider_opens_path(self):
        edges = [(0, 2), (1, 2), (2, 3)]
        assert d_separated(4, edges, 0, 1, [])
        assert not d_separated(4, edges, 0, 1, [3])

    def test_matches_path_enumeration_on_random_dags(self):
        from itertools import combinations as combos

        def active_path_exists(n, edges, i, j, z):
            # brute force over all simple trails with the d-connection rules
            adj = {}
            for a, b in edges:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            parents = {k: {a for a, b in edges if b == k} for k in range(n)}
            desc = {k: set() for k in range(n)}
            for k in range(n):
                stack = [k]
                while stack:
                    cur = stack.pop()
                    for b in [b for a, b in edges if a == cur]:
                        if b not in desc[k]:
                            desc[k].add(b)
                            stack.append(b)

            def extend(path):
                last = path[-1]
                if last == j:
                    return True
                for nxt in adj.get(last, ()):
                    if nxt in path:
                        continue
                    if len(path) >= 2:
                        a, b = path[-2], last
                        is_collider = (a in parents[b]) and (nxt in parents[b])
                        if is_collider:
                            if not (b in z or (desc[b] & z)):
                                continue
                        else:
                            if b in z:
                                continue
                    if extend(path + [nxt]):
                        return True
                return False

            return extend([i])

        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(3, 6))
            edges = random_dag(n, rng)
            nodes = list(range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    others = [k for k in nodes if k not in (i, j)]
                    for size in range(len(others) + 1):
                        for z in combos(others, size):
                            want_connected = active_path_exists(n, edges, i, j, set(z))
                            got = d_separated(n, edges, i, j, z)
                            assert got == (not want_connected), (edges, i, j, z)


class TestPipelineAgainstOracle:
    def test_chain_equivalence_class(self):
        rng = np.random.default_rng(12)
        g = learn_metric_graph(matrix(sample_chain(5000, rng), ["x", "y", "z"]), PCConfig())
        assert g.directed == set()
        assert g.undirected == {(0, 1), (1, 2)}

    def test_collider_recovered(self):
        rng = np.random.default_rng(13)
        g = learn_metric_graph(matrix(sample_collider(5000, rng), ["x", "y", "z"]), PCConfig())
        assert g.directed == {(0, 2), (1, 2)}

    def test_all_degenerate_raises(self):
        with pytest.raises(AllColumnsDegenerate):
            learn_metric_graph(matrix(np.ones((500, 3))), PCConfig())

    def test_oracle_ci_recovers_true_cpdag(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            edges = random_dag(n, rng)
            names = [f"x{i}" for i in range(n)]
            ci = lambda i, j, s: d_separated(n, edges, i, j, s)
            skel = skeleton_from_ci(n, ci, max_cond=n - 2 if n > 2 else 0)
            learned = meek_closure(orient_v_structures(skel, metrics=names))
            truth = cpdag_of_dag(names, edges)
            assert learned.directed == truth.directed, (edges, learned, truth)
            assert learned.undirected == truth.undirected, (edges, learned, truth)

    def test_order_independence_up_to_relabelling(self):
        rng = np.random.default_rng(15)
        data = sample_collider(4000, rng)
        names = ["x", "y", "z"]
        g1 = learn_metric_graph(matrix(data, names), PCConfig())
        perm = [2, 0, 1]
        g2 = learn_metric_graph(matrix(data[:, perm], [names[k] for k in perm]), PCConfig())

        def named_edges(g):
            directed = {(g.metrics[i], g.metrics[j]) for i, j in g.directed}
            undirected = {tuple(sorted((g.metrics[i], g.metrics[j]))) for i, j in g.undirected}
            return directed, undirected

        assert named_edges(g1) == named_edges(g2)

    def test_repeated_column_name_raises(self):
        rng = np.random.default_rng(17)
        with pytest.raises(DuplicateName):
            learn_metric_graph(matrix(rng.normal(size=(500, 3)), ["a", "a", "b"]), PCConfig())

    def test_dropped_metrics_recorded(self):
        rng = np.random.default_rng(16)
        data = np.column_stack([rng.normal(size=500), np.full(500, 1.0), rng.normal(size=500)])
        g = learn_metric_graph(matrix(data, ["a", "flat", "c"]), PCConfig())
        assert g.dropped == ["flat"]
        assert g.metrics == ["a", "c"]
