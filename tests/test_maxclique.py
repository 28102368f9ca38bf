"""Exact clique solver: examples, witness soundness, oracle agreement."""

import hashlib
import time
from typing import Optional

import numpy as np
import pytest

from eqlines.maxclique import CliqueResult, SimpleGraph, max_clique, to_dimacs
from eqlines.saturation import (
    build_compatibility_graph,
    check_saturated,
    enumerate_candidates,
    select_basis,
    verify_nonbasis_cover,
)
from eqlines.spansearch import SplitMix64
from oracles import (
    _bits,
    color_order,
    graph_from_bits,
    graph_from_edges,
    graph_from_matrix,
    mcq_max_clique,
    numpy_dimacs,
)


def greedy_coloring_bound(g: SimpleGraph, candidates: Optional[int] = None) -> int:
    """Number of greedy colors of the induced subgraph; an upper bound on
    its clique number.  candidates is a vertex bitset (default: all)."""
    pool = (1 << g.n) - 1 if candidates is None else candidates
    order = color_order(g.adj, pool)
    return order[-1][1] if order else 0


def brute_force_omega(g: SimpleGraph) -> int:
    """Enumerate every clique by extending with higher-indexed vertices."""
    best = 0

    def rec(pool: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while pool:
            v = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            rec(pool & g.adj[v], size + 1)

    rec((1 << g.n) - 1, 0)
    return best


def random_graph(rng: SplitMix64, n: int, density_pct: int) -> SimpleGraph:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < density_pct:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return SimpleGraph(n, tuple(adj))


def random_clique(rng: SplitMix64, g: SimpleGraph) -> list[int]:
    """A maximal clique grown greedily from a random vertex order."""
    clique: list[int] = []
    for v in sorted(range(g.n), key=lambda _: rng.next64()):
        if all(g.adj[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


def assert_witness_ok(g: SimpleGraph, result: CliqueResult) -> None:
    assert len(result.witness) == result.size
    assert len(set(result.witness)) == result.size
    for a in range(result.size):
        for b in range(a + 1, result.size):
            i, j = result.witness[a], result.witness[b]
            assert g.adj[i] >> j & 1, f"witness pair ({i},{j}) not adjacent"


def petersen() -> SimpleGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return graph_from_edges(10, edges)


class TestSimpleGraph:
    def test_from_edges(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert g.edge_count() == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            SimpleGraph(2, (1, 0))
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            SimpleGraph(3, (0, 0, 4))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, (2, 0))

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, (4, 0))

    def test_from_matrix_round_trip(self):
        g = petersen()
        a = np.array([[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)])
        assert graph_from_matrix(a) == g
        assert graph_from_matrix(a.astype(bool)) == g
        assert graph_from_matrix(a.tolist()) == g
        assert graph_from_matrix(np.zeros((0, 0))) == SimpleGraph(0, ())
        assert graph_from_matrix([]) == SimpleGraph(0, ())

    def test_from_bits_inverts_bits(self):
        rng = SplitMix64(48)
        for n in (0, 1, 7, 8, 9, 300):
            g = random_graph(rng, n, 40)
            bits = _bits(g.adj, g.n)
            assert bits.shape == (n, (n + 7) // 8)
            assert graph_from_bits(bits) == g

    def test_from_bits_rejects_bad_masks(self):
        bits = _bits((0b010, 0, 0), 3)
        with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
            graph_from_bits(bits)
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            graph_from_bits(_bits((0, 0, 0b100), 3))
        with pytest.raises(ValueError, match="beyond vertex 2"):
            graph_from_bits(_bits((0b1000, 0, 0), 3))

    def test_from_matrix_rejects_asymmetric(self):
        a = np.zeros((4, 4), dtype=np.int64)
        a[1, 3] = a[2, 0] = 1
        with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
            graph_from_matrix(a)

    def test_from_matrix_rejects_self_loop_and_bad_shape(self):
        a = np.zeros((3, 3), dtype=np.int64)
        a[1, 1] = 1
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            graph_from_matrix(a)
        with pytest.raises(ValueError, match="square"):
            graph_from_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            graph_from_matrix([[0, 1], [1]])


class TestExamples:
    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        result = max_clique(g)
        assert result.size == 3
        assert result.witness == (0, 1, 2)
        assert result.optimal

    def test_five_cycle(self):
        g = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert max_clique(g).size == 2

    def test_petersen(self):
        assert max_clique(petersen()).size == 2

    def test_empty_graphs(self):
        assert max_clique(SimpleGraph(0, ())).size == 0
        result = max_clique(SimpleGraph(4, (0, 0, 0, 0)))
        assert result.size == 1 and len(result.witness) == 1


class TestColoringBound:
    def test_k4(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert greedy_coloring_bound(g) == 4

    def test_edgeless(self):
        g = SimpleGraph(6, (0,) * 6)
        assert greedy_coloring_bound(g) == 1
        assert greedy_coloring_bound(g, candidates=0) == 0

    def test_petersen_range(self):
        b = greedy_coloring_bound(petersen())
        assert 2 <= b <= 3

    def test_bound_dominates_omega(self):
        rng = SplitMix64(11)
        for _ in range(40):
            g = random_graph(rng, 1 + rng.below(14), 20 + rng.below(70))
            assert greedy_coloring_bound(g) >= brute_force_omega(g)


class TestSolver:
    def test_matches_brute_force(self):
        rng = SplitMix64(12)
        for _ in range(60):
            g = random_graph(rng, 1 + rng.below(14), 10 + rng.below(85))
            result = max_clique(g)
            assert result.optimal
            assert result.size == brute_force_omega(g)
            assert_witness_ok(g, result)

    def test_deterministic_witness(self):
        rng = SplitMix64(13)
        for _ in range(10):
            g = random_graph(rng, 12, 50)
            assert max_clique(g) == max_clique(g)

    def test_time_budget_flag(self):
        # a budget of 0 or 1 pools still returns a valid partial result
        rng = SplitMix64(14)
        g = random_graph(rng, 18, 80)
        full = max_clique(g)
        assert full.optimal and full.nodes > 1
        for budget in (0, 1):
            result = max_clique(g, node_budget=budget)
            assert_witness_ok(g, result)
            assert not result.optimal and result.nodes == budget
            assert result.size <= full.size

    def test_zero_budget_stops_at_first_clock_read(self):
        # a budget of 0 stops before the first pool, the whole vertex
        # set, with no clique found
        g = random_graph(SplitMix64(18), 120, 75)
        assert max_clique(g, node_budget=0) == CliqueResult(0, (), False, 0)

    def test_node_budget_caps_pools_entered(self):
        g = random_graph(SplitMix64(18), 120, 75)
        full = max_clique(g)
        assert full.optimal and full.nodes > 2048
        cut = max_clique(g, node_budget=2048)
        assert not cut.optimal and cut.nodes == 2048
        assert_witness_ok(g, cut)
        assert cut.size <= full.size
        # a budget of exactly the pools the search needs is enough
        assert max_clique(g, node_budget=full.nodes) == full
        short = max_clique(g, node_budget=full.nodes - 1)
        assert not short.optimal and short.nodes == full.nodes - 1

    def test_clock_jumps_change_no_result(self, monkeypatch):
        g = random_graph(SplitMix64(18), 120, 75)
        expected = [max_clique(g), max_clique(g, node_budget=2048)]
        hours = iter(range(0, 10**9, 3600))
        for name in ("monotonic", "perf_counter", "time"):
            monkeypatch.setattr(time, name, lambda: float(next(hours)))
        assert [max_clique(g), max_clique(g, node_budget=2048)] == expected

    def test_budgeted_calls_repeat(self):
        rng = SplitMix64(19)
        for _ in range(10):
            g = random_graph(rng, 40, 60)
            seed = random_clique(rng, g)
            budget = 1 + rng.below(max_clique(g, initial=seed).nodes)
            first = max_clique(g, node_budget=budget, initial=seed)
            assert all(
                max_clique(g, node_budget=budget, initial=seed) == first
                for _ in range(3)
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            max_clique(petersen(), node_budget=-1)

    def test_seeded_search_matches_brute_force(self):
        rng = SplitMix64(15)
        for _ in range(60):
            g = random_graph(rng, 1 + rng.below(16), 10 + rng.below(85))
            seed = random_clique(rng, g)
            result = max_clique(g, initial=seed)
            assert result.optimal
            assert result.size == brute_force_omega(g) >= len(seed)
            assert_witness_ok(g, result)
            if result.size == len(seed):
                assert result.witness == tuple(sorted(seed))

    def test_zero_budget_keeps_seed(self):
        # a budget of 0 returns the seed itself; any budget keeps a
        # clique at least as large
        rng = SplitMix64(16)
        for _ in range(20):
            g = random_graph(rng, 24, 70)
            seed = random_clique(rng, g)
            result = max_clique(g, node_budget=0, initial=seed)
            assert result == CliqueResult(len(seed), tuple(sorted(seed)), False, 0)
            result = max_clique(g, node_budget=1 + rng.below(8), initial=seed)
            assert result.size >= len(seed)
            assert_witness_ok(g, result)

    @pytest.mark.parametrize("seed", [[0, 2], [0, 0], [1, 7], [-1]])
    def test_rejects_non_clique_seed(self, seed):
        # 0-2 is not an edge of the Petersen graph; 7 is no neighbour
        # of 1; repeated and out-of-range vertices are not cliques
        with pytest.raises(ValueError):
            max_clique(petersen(), initial=seed)

    def test_witness_rule(self):
        # two disjoint triangles, the second with a pendant edge at 4:
        # unseeded, the degree-descending labels pick the second one;
        # a seed of maximum size is kept, a smaller one is not
        g = graph_from_edges(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (4, 6)]
        )
        assert max_clique(g).witness == (3, 4, 5)
        assert max_clique(g, initial=[0, 1, 2]).witness == (0, 1, 2)
        assert max_clique(g, initial=[0, 1]).witness == (3, 4, 5)


class TestLargeCliques:
    """The search keeps its own stack: a clique far deeper than Python's
    recursion limit is still found and proved."""

    @staticmethod
    def complete(n: int) -> np.ndarray:
        return ~np.eye(n, dtype=bool)

    def test_complete_graph(self):
        result = max_clique(graph_from_matrix(self.complete(1200)))
        assert result.size == 1200 and result.optimal
        assert result.witness == tuple(range(1200))
        assert result.nodes == 1200

    def test_budget_keeps_the_clique_being_extended(self):
        # each pool of the first branch adds a vertex to the clique being
        # extended, and no leaf is reached before the budget runs out:
        # the result is that clique, not the empty starting best
        g = graph_from_matrix(self.complete(600))
        for budget in (1, 5, 599):
            result = max_clique(g, node_budget=budget)
            assert (result.size, result.nodes) == (budget, budget)
            assert not result.optimal
            assert_witness_ok(g, result)

    def test_complete_graph_minus_perfect_matching(self):
        a = self.complete(1200)
        a[0::2, 1::2] &= ~np.eye(600, dtype=bool)
        a[1::2, 0::2] &= ~np.eye(600, dtype=bool)
        g = graph_from_matrix(a)
        assert g.edge_count() == 1200 * 1199 // 2 - 600
        result = max_clique(g)
        assert result.size == 600 and result.optimal
        assert_witness_ok(g, result)


class TestNodeCount:
    def test_best56_pinned(self, best56):
        """2,287 pools under check_saturated's cover seed, from the
        oracle; the counter stays out of the report."""
        basis = select_basis(best56)
        cands = enumerate_candidates(best56, basis)
        g = build_compatibility_graph(cands, best56, basis)
        cover = verify_nonbasis_cover(best56, basis, cands, g)
        result = max_clique(g, initial=cover)
        assert (g.n, result.size, result.nodes) == (197, 38, 2287)
        assert result == mcq_max_clique(g, initial=cover)
        assert check_saturated(best56).to_dict() == {
            "basis": [*range(1, 16), 19, 21, 22],
            "candidate_count": 197,
            "clique_number": 38,
            "N": 56,
            "saturated": True,
            "clique_witness": [
                7, 13, 14, 18, 19, 25, 34, 43, 46, 49, 56, 62, 66, 72, 75,
                82, 84, 103, 104, 113, 119, 124, 128, 130, 134, 135, 141,
                144, 149, 153, 160, 162, 166, 171, 176, 180, 187, 194,
            ],
            "clique_optimal": True,
            "total_patterns": 131072,
        }

    def test_best56_budget_at_and_below_its_count(self, best56):
        """A budget of the 2,287 pools the search needs changes nothing;
        one fewer stops it with the cover as the best clique so far, the
        same on every call, and leaves saturation undecided."""
        basis = select_basis(best56)
        cands = enumerate_candidates(best56, basis)
        g = build_compatibility_graph(cands, best56, basis)
        cover = verify_nonbasis_cover(best56, basis, cands, g)
        full = max_clique(g, initial=cover)
        assert max_clique(g, node_budget=2287, initial=cover) == full
        cut = max_clique(g, node_budget=2286, initial=cover)
        assert (cut.size, cut.optimal, cut.nodes) == (38, False, 2286)
        assert cut.witness == tuple(sorted(cover)) == full.witness
        assert max_clique(g, node_budget=2286, initial=cover) == cut
        report = check_saturated(best56, node_budget=2286)
        assert (report.n_bound, report.clique_optimal, report.saturated) == (
            56, False, False
        )
        assert check_saturated(best56, node_budget=2287) == check_saturated(best56)


class TestDimacs:
    def test_format(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        text = to_dimacs(g, comment="triangle minus an edge")
        lines = text.splitlines()
        assert lines[0] == "c triangle minus an edge"
        assert lines[1] == "p edge 3 2"
        assert set(lines[2:]) == {"e 1 2", "e 2 3"}

    @pytest.mark.parametrize("name,sha256", [
        ("tremain", "2d92e37ad5b100eb5c22a8ee48e5a172ad2ca2ca4498e1498f669958c3ffcae7"),
        ("best56", "33e874d7258a86354bc6fd9d9562ce79813f6fb1962d280f154af8a24da78363"),
    ], ids=["tremain", "best56"])
    def test_export_bytes_pinned(self, request, name, sha256):
        """The compatibility graph over the default basis, exported as
        the numpy export oracle writes it, with the sha256 of the file
        that `saturate --export-graph` wrote before the export left
        numpy (K = 431 for tremain14, 197 for best56)."""
        ls = request.getfixturevalue(name)
        basis = select_basis(ls)
        g = build_compatibility_graph(enumerate_candidates(ls, basis), ls, basis)
        text = to_dimacs(g)
        assert text == numpy_dimacs(g)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
        assert to_dimacs(g, "two\nlines") == numpy_dimacs(g, "two\nlines")
