"""Basis selection, candidate enumeration, and saturation checking."""

from collections import Counter
from concurrent import futures
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest

from eqlines import _intops, lineset, linalg, saturation, spansearch
from eqlines.errors import HypothesisViolated, InvalidLineSet, NotABasis, NotPSD
from eqlines.lineset import LineSet, SignMatrix, from_sign_matrix
from eqlines.linalg import RatMatrix
from eqlines.maxclique import CliqueResult, SimpleGraph
from eqlines.saturation import (
    CandidateSet,
    SaturationReport,
    build_compatibility_graph,
    check_saturated,
    enumerate_candidates,
    line_pattern_indices,
    select_basis,
    verify_nonbasis_cover,
)
from eqlines.spansearch import SplitMix64
from oracles import (
    _balanced_limbs,
    _exact_array,
    _pattern_block,
    candidate_coeffs,
    enumerate_range_batch,
    greedy_span_basis,
)

F = Fraction
HALF = F(1, 2)

TAYLOR_BASIS_1B = (6, 7, 13, 19, 21, 24, 27, 34, 43, 45, 48, 52, 57, 61, 66, 70, 74, 80, 82, 89)
TAYLOR_BASIS = tuple(i - 1 for i in TAYLOR_BASIS_1B)


def hexagon() -> LineSet:
    g = RatMatrix.from_rows(
        [[1, HALF, -HALF], [HALF, 1, HALF], [-HALF, HALF, 1]]
    )
    return LineSet.from_gram(g, HALF)


def single_line() -> LineSet:
    return LineSet.from_gram(RatMatrix.from_rows([[1]]), F(1, 3))


def inner(ls: LineSet, basis, ca, cb) -> Fraction:
    """<v_a, v_b> for candidate coefficient vectors over the basis."""
    return sum(
        ca[i] * cb[j] * ls.gram[basis[i], basis[j]]
        for i in range(len(basis))
        for j in range(len(basis))
    )


def pattern_signs(m: int, d: int) -> tuple[int, ...]:
    """The sign pattern of index m, from the block-scan oracle's `_pattern_block`."""
    return tuple(_pattern_block(np.array([m], dtype=np.int64), d)[0].tolist())


def limb_candidates(rng: SplitMix64, d: int) -> CandidateSet:
    """Every first-plus pattern over a synthetic symmetric W whose
    entries are at least 2^62 in size: two limbs of the oracles'
    base-2^40 split, and past int64, so the graph's forms are Python
    ints; L is the commonest |eps_i^T W eps_j| over i < j, so the graph
    has edges."""
    big = (1 << 62) + 7
    w = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            w[i][j] = w[j][i] = (
                (rng.below(9) + 1) * (1 - 2 * rng.below(2)) * big
                + rng.below(3) - 1
            )
    ms = list(range(1 << (d - 1)))
    e = [pattern_signs(m, d) for m in ms]
    forms = Counter(
        abs(sum(a * x * b for a, row in zip(e[i], w) for x, b in zip(row, e[j])))
        for j in range(len(ms)) for i in range(j)
    )
    scale = max(forms, key=lambda t: (forms[t], t))
    return CandidateSet(ms, w, scale, scale)


class TestPatternSigns:
    def test_first_sign_always_plus(self):
        for d in (1, 2, 5):
            for m in range(1 << (d - 1)):
                s = pattern_signs(m, d)
                assert len(s) == d and s[0] == 1
                assert all(x in (-1, 1) for x in s)

    def test_ordering_is_lexicographic(self):
        # ascending index = lexicographic with + before -
        d = 4
        pats = [pattern_signs(m, d) for m in range(1 << (d - 1))]
        key = [tuple(0 if x == 1 else 1 for x in p) for p in pats]
        assert key == sorted(key)
        assert pats[0] == (1, 1, 1, 1)
        assert pats[-1] == (1, -1, -1, -1)

    def test_bit_convention(self):
        # bit (d-1-t) of the index drives sign t
        assert pattern_signs(0b100, 4) == (1, -1, 1, 1)
        assert pattern_signs(0b001, 4) == (1, 1, 1, -1)

    def test_pattern_index_inverts_signs(self):
        # every first-plus pattern, and its negation, maps back to its index
        for d in range(1, 11):
            pats = _pattern_block(np.arange(1 << (d - 1), dtype=np.int64), d)
            for m, eps in enumerate(pats.tolist()):
                assert _intops.pattern_index(eps) == m
                assert _intops.pattern_index([-x for x in eps]) == m


class TestSelectBasis:
    def test_hexagon_default(self):
        assert select_basis(hexagon()) == [0, 1]

    def test_tremain_default_greedy(self, tremain):
        basis = select_basis(tremain)
        assert len(basis) == 14
        assert basis == sorted(basis)
        assert basis[:7] == [0, 1, 2, 3, 4, 5, 6]

    def test_override_accepted(self, tremain):
        odd = list(range(1, 28, 2))
        assert select_basis(tremain, odd) == odd

    def test_override_rank_deficient(self, tremain):
        even = list(range(0, 28, 2))  # rank 13 block
        with pytest.raises(NotABasis):
            select_basis(tremain, even)

    def test_override_wrong_length(self, tremain):
        with pytest.raises(NotABasis):
            select_basis(tremain, list(range(13)))

    def test_override_repeated_index(self):
        with pytest.raises(NotABasis):
            select_basis(hexagon(), [0, 0])

    def test_override_out_of_range(self):
        with pytest.raises(IndexError):
            select_basis(hexagon(), [0, 3])

    def test_not_psd_refused(self):
        # 5 lines at 1/3, all signs -1: rank 5, the all-ones vector has
        # eigenvalue -1/3
        signs = [[0 if i == j else -1 for j in range(5)] for i in range(5)]
        ls = from_sign_matrix(SignMatrix.from_rows(signs), F(1, 3))
        assert ls.rank == 5 and not ls.is_psd
        with pytest.raises(NotPSD):
            select_basis(ls)
        with pytest.raises(NotPSD):
            select_basis(ls, [0, 1, 2, 3, 4])

    @pytest.mark.parametrize("override", [None, list(range(1, 28, 2))],
                             ids=["default", "odd"])
    def test_saturate_runs_no_span_scan_or_rank(self, monkeypatch, tremain,
                                                override):
        """Loading and saturating a valid set take the basis, and check an
        override, with the one elimination on load."""
        want = check_saturated(tremain, override)
        if override is None:
            assert list(want.basis_indices) == greedy_span_basis(tremain)

        def refuse(*args):
            raise AssertionError("a second mechanism ran")

        monkeypatch.setattr(spansearch, "SpanEngine", refuse)
        monkeypatch.setattr(linalg, "rank", refuse)
        ls = lineset.loads(lineset.dumps(tremain))
        assert check_saturated(ls, override) == want

    def test_greedy_block_is_invertible(self, taylor):
        from eqlines import linalg

        basis = select_basis(taylor)
        assert len(basis) == 20
        sub = taylor.gram.submatrix(basis, basis)
        assert linalg.rank(sub) == 20


class TestEnumerateHexagon:
    def test_single_candidate(self):
        ls = hexagon()
        cands = enumerate_candidates(ls, [0, 1])
        assert len(cands) == 1
        assert list(cands.patterns) == [1]
        assert pattern_signs(1, 2) == (1, -1)
        assert candidate_coeffs(cands) == [(F(1), F(-1))]

    def test_candidate_is_third_line(self):
        # the lone candidate is line 2 of the hexagon itself
        ls = hexagon()
        cands = enumerate_candidates(ls, [0, 1])
        mapping = line_pattern_indices(ls, [0, 1])
        assert mapping == {2: 1}
        assert cands.patterns[0] == 1

    def test_line_off_angle_to_basis_rejected(self):
        # 1/3 has no numerator over the denominator 6 that is +-1/2's;
        # 1/6 has one, but not +-3
        for x in (F(1, 3), F(-1, 6)):
            g = RatMatrix.from_rows([[1, HALF, x], [HALF, 1, HALF], [x, HALF, 1]])
            ls = LineSet(3, HALF, g, 3)
            with pytest.raises(HypothesisViolated) as err:
                line_pattern_indices(ls, [0, 1])
            assert str(err.value) == f"line 2 meets basis line 0 at {x}, not +-1/2"

    def test_report_saturated(self):
        report = check_saturated(hexagon())
        assert isinstance(report, SaturationReport)
        assert report.basis_indices == (0, 1)
        assert report.candidate_count == 1
        assert report.clique_number == 1
        assert report.n_bound == 3
        assert report.saturated is True
        assert report.clique_optimal is True
        assert report.total_patterns == 2

    def test_to_dict_one_based(self):
        doc = check_saturated(hexagon()).to_dict()
        assert doc["basis"] == [1, 2]
        assert doc["N"] == 3
        assert doc["saturated"] is True
        assert doc["candidate_count"] == 1
        assert doc["clique_number"] == 1
        assert doc["total_patterns"] == 2


class TestSingleLine:
    def test_no_candidates_saturated(self):
        report = check_saturated(single_line())
        assert report.basis_indices == (0,)
        assert report.candidate_count == 0
        assert report.clique_number == 0
        assert report.n_bound == 1
        assert report.saturated is True


class TestEnumerateTremain:
    def test_alternate_basis_count(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        assert len(cands) == 378

    def test_pattern_indices_sorted_unique(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        ms = list(cands.patterns)
        assert ms == sorted(ms)
        assert len(set(ms)) == len(ms)
        assert all(0 <= m < 1 << 13 for m in ms)

    def test_candidates_are_unit_and_equiangular_to_basis(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        alpha = tremain.angle
        coeffs = candidate_coeffs(cands)
        for v in [*range(0, len(cands), 17), len(cands) - 1]:
            c, signs = coeffs[v], pattern_signs(int(cands.patterns[v]), 14)
            # <v, b_k> = eps_k * alpha, recomputed from scratch
            for k in range(14):
                dot = sum(
                    c[i] * tremain.gram[odd[i], odd[k]]
                    for i in range(14)
                )
                assert dot == signs[k] * alpha
            assert inner(tremain, odd, c, c) == 1

    def test_engines_agree(self, tremain, taylor):
        # the serial scan against the block-scan oracle
        for ls, basis in (
            (tremain, list(range(1, 28, 2))),
            (taylor, list(TAYLOR_BASIS)),
        ):
            w, _, t_target = _intops.scaled_candidate_matrix(
                ls.gram, basis, ls.angle
            )
            want = enumerate_range_batch(w, t_target, 0, 1 << (len(basis) - 1))
            got = enumerate_candidates(ls, basis)
            assert list(got.patterns) == want

    def test_every_nonbasis_line_is_a_candidate(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        mapping = line_pattern_indices(tremain, odd)
        assert sorted(mapping) == [i for i in range(28) if i not in odd]
        have = set(cands.patterns)
        assert set(mapping.values()) <= have
        g = build_compatibility_graph(cands, tremain, odd)
        verify_nonbasis_cover(tremain, odd, cands, g)


class TestCandidateSet:
    def test_unordered_patterns_rejected(self):
        """The record's one input check: strictly ascending patterns, so
        no pattern, hence no line, is listed twice."""
        w, scale, target = [[1]], 1, 1
        assert len(CandidateSet([0, 2, 5], w, scale, target)) == 3
        assert len(CandidateSet([], w, scale, target)) == 0
        for ms in ([1, 1], [3, 2], [0, 4, 4, 7]):
            with pytest.raises(ValueError, match="strictly ascending"):
                CandidateSet(ms, w, scale, target)


class TestNonbasisCover:
    def test_missing_lines_reported_in_line_order(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        g = build_compatibility_graph(cands, tremain, odd)
        mapping = line_pattern_indices(tremain, odd)
        cover = verify_nonbasis_cover(tremain, odd, cands, g)
        where = {m: v for v, m in enumerate(cands.patterns)}
        assert cover == [where[m] for m in mapping.values()]
        lines = list(mapping)
        ms = list(cands.patterns)
        lo, hi = min(mapping.values()), max(mapping.values())
        cases = [
            # two lines' patterns dropped: the first in line order is named
            ([m for m in ms if m not in (mapping[lines[-1]], mapping[lines[5]])],
             lines[5]),
            # every line missing, past the last or before the first entry
            ([m for m in ms if m < lo], lines[0]),
            ([m for m in ms if m > hi], lines[0]),
            ([], lines[0]),
        ]
        for kept, j in cases:
            fewer = CandidateSet(kept, cands.w, cands.scale, cands.target)
            with pytest.raises(HypothesisViolated) as err:
                verify_nonbasis_cover(tremain, odd, fewer, g)
            assert str(err.value) == (
                f"non-basis line {j} is missing from the candidate list"
            )

    def test_incompatible_cover_rejected(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        cover = verify_nonbasis_cover(
            tremain, odd, cands, build_compatibility_graph(cands, tremain, odd))
        edgeless = SimpleGraph(len(cands), (0,) * len(cands))
        i, j = cover[:2]
        with pytest.raises(HypothesisViolated,
                           match=f"incompatible candidates {i},{j}$"):
            verify_nonbasis_cover(tremain, odd, cands, edgeless)


class TestCompatibilityGraph:
    def test_hexagon_graph(self):
        ls = hexagon()
        cands = enumerate_candidates(ls, [0, 1])
        g = build_compatibility_graph(cands, ls, [0, 1])
        assert g.n == 1 and g.edge_count() == 0

    def test_duplicate_candidates_rejected(self):
        # a pattern listed twice is one line twice; the record refuses it
        ls = hexagon()
        c = enumerate_candidates(ls, [0, 1])
        m = int(c.patterns[0])
        with pytest.raises(ValueError, match="strictly ascending"):
            CandidateSet([m, m], c.w, c.scale, c.target)

    def test_edges_match_direct_inner_products(self, tremain):
        odd = list(range(1, 28, 2))
        cands = enumerate_candidates(tremain, odd)
        g = build_compatibility_graph(cands, ls=tremain, basis=odd)
        assert g.n == 378
        alpha = tremain.angle
        coeffs = candidate_coeffs(cands)
        for i in (0, 5, 100):
            for j in range(i + 1, i + 40):
                dot = inner(tremain, odd, coeffs[i], coeffs[j])
                want_edge = abs(dot) == alpha
                assert bool(g.adj[i] >> j & 1) == want_edge
                assert abs(dot) != 1  # no duplicated lines

    def test_multi_limb_edges_match_fraction_oracle(self):
        cands = limb_candidates(SplitMix64(45), d=7)
        assert min(abs(x) for row in cands.w for x in row) >= 1 << 62
        assert len(_balanced_limbs(cands.w)) == 2
        assert _exact_array(cands.w).dtype == object
        g = build_compatibility_graph(cands, single_line(), [0])
        assert g.n == 64 and g.edge_count() > 0
        # eps_i^T c_j = +-1 with c_j = W eps_j / L, in Fractions
        coeffs = candidate_coeffs(cands)
        for j, cj in enumerate(coeffs):
            for i in range(j):
                eps = pattern_signs(int(cands.patterns[i]), 7)
                dot = sum(a * x for a, x in zip(eps, cj))
                assert bool(g.adj[i] >> j & 1) == (abs(dot) == 1), (i, j)

    def test_multi_limb_duplicate_rejected(self):
        cands = limb_candidates(SplitMix64(46), d=5)
        ms = list(cands.patterns)
        for dup in ([ms[0], ms[0]], ms[:3] + ms[2:]):
            with pytest.raises(ValueError, match="strictly ascending"):
                CandidateSet(dup, cands.w, cands.scale, cands.target)

    def test_clique_gives_saturation(self, tremain):
        odd = list(range(1, 28, 2))
        report = check_saturated(tremain, basis_override=odd)
        assert report.candidate_count == 378
        assert report.clique_number == 14
        assert report.n_bound == 28
        assert report.saturated is True
        assert report.clique_optimal is True
        assert len(report.clique_witness) == 14

    def test_default_basis_also_saturates(self, tremain):
        report = check_saturated(tremain)
        assert report.n_bound == 28
        assert report.saturated is True


class TestGraphSinkAndBudget:
    def test_graph_sink_receives_graph(self):
        seen = []
        check_saturated(hexagon(), graph_sink=seen.append)
        assert len(seen) == 1
        assert seen[0].n == 1

    def test_time_budget_keeps_report_consistent(self, tremain):
        odd = list(range(1, 28, 2))
        report = check_saturated(tremain, basis_override=odd, time_budget=0.0)
        assert report.n_bound == 14 + report.clique_number
        assert report.saturated == (report.n_bound == 28)
        assert report.clique_number <= 14


class TestProgressAndThreads:
    def test_progress_final_call(self, tremain):
        odd = list(range(1, 28, 2))
        calls = []
        enumerate_candidates(
            tremain, odd, progress=lambda a, b: calls.append((a, b))
        )
        assert calls[-1] == (1 << 13, 1 << 13)
        assert all(b == 1 << 13 for _, b in calls)
        assert [a for a, _ in calls] == sorted(a for a, _ in calls)

    def test_threads_match_serial(self, taylor):
        serial = enumerate_candidates(taylor, list(TAYLOR_BASIS))
        parallel = enumerate_candidates(
            taylor, list(TAYLOR_BASIS), threads=3
        )
        assert list(parallel.patterns) == list(serial.patterns)
        assert len(serial) == 70

    def test_huge_thread_count_is_clamped(self, taylor, monkeypatch):
        # threads is ignored: no pool is ever started, however large
        def no_pool(*args, **kwargs):
            raise AssertionError("enumeration must not start a process pool")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(saturation, "ProcessPoolExecutor", no_pool,
                            raising=False)
        serial = enumerate_candidates(taylor, list(TAYLOR_BASIS))
        clamped = enumerate_candidates(
            taylor, list(TAYLOR_BASIS), threads=10**9
        )
        assert list(clamped.patterns) == list(serial.patterns)


class TestTaylorSaturation:
    def test_named_basis_covers_every_line(self, taylor):
        cands = enumerate_candidates(taylor, list(TAYLOR_BASIS))
        assert len(cands) == 70
        mapping = line_pattern_indices(taylor, TAYLOR_BASIS)
        assert len(mapping) == 70
        assert set(cands.patterns) == set(mapping.values())
        g = build_compatibility_graph(cands, taylor, TAYLOR_BASIS)
        assert g.n == 70 and g.edge_count() == 70 * 69 // 2
        verify_nonbasis_cover(taylor, TAYLOR_BASIS, cands, g)

    def test_default_basis_witness_is_the_cover(self, taylor):
        basis = select_basis(taylor)
        report = check_saturated(taylor)
        assert report.candidate_count == 1806
        assert report.clique_number == 70
        assert report.n_bound == 90
        assert report.clique_optimal is True
        assert report.saturated is True
        cands = enumerate_candidates(taylor, basis)
        where = {m: v for v, m in enumerate(cands.patterns)}
        cover = sorted(where[m] for m in line_pattern_indices(taylor, basis).values())
        assert report.clique_witness == tuple(cover)

    def test_default_basis_graph_packed_in_bits(self, taylor):
        """The graph stage holds its K x K masks as bits: its tracemalloc
        peak on taylor90's default basis (K = 1806) is under half of the
        13.65 MB that byte masks took, and the adjacency equals a dense
        int64 construction of the same forms."""
        basis = select_basis(taylor)
        cands = enumerate_candidates(taylor, basis)
        tracemalloc.start()
        try:
            g = build_compatibility_graph(cands, taylor, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13.65e6 / 2, peak
        e = _pattern_block(cands.patterns, 20)
        dense = np.triu(np.abs(e @ np.array(cands.w) @ e.T) == cands.scale, 1)
        assert g == SimpleGraph.from_matrix(dense | dense.T)
        assert (g.n, g.edge_count()) == (1806, 517457)


class TestCertificateSelfCheck:
    def test_witness_must_be_a_clique(self, monkeypatch):
        def bogus(graph, time_budget=None, initial=()):
            return CliqueResult(2, (0,), True)

        monkeypatch.setattr(saturation, "max_clique", bogus)
        with pytest.raises(HypothesisViolated, match="not a clique"):
            check_saturated(hexagon())

    def test_bound_must_respect_relative_bound(self, monkeypatch):
        # d = 2 at alpha = 1/2 allows at most R = 3 lines; a complete
        # graph on 3 candidates would claim N = 5
        def complete(cands, ls, basis):
            return SimpleGraph(3, (0b110, 0b101, 0b011))

        monkeypatch.setattr(saturation, "build_compatibility_graph", complete)
        with pytest.raises(HypothesisViolated, match="relative bound"):
            check_saturated(hexagon())


class TestInputGate:
    """check_saturated refuses what `validate` rejects, before any work,
    and trusts the rank computed on load."""

    @pytest.mark.parametrize(
        "rows,failed",
        [
            # not PSD: three lines pairwise at -1/2 plus a fourth at +-1/2
            ([[1, -HALF, -HALF, HALF], [-HALF, 1, -HALF, HALF],
              [-HALF, -HALF, 1, HALF], [HALF, HALF, HALF, 1]],
             "positive_semidefinite"),
            ([[1, HALF], [-HALF, 1]], "symmetric"),
        ],
        ids=["not-psd", "asymmetric"],
    )
    def test_refused(self, monkeypatch, rows, failed):
        ls = LineSet.from_gram(RatMatrix.from_rows(rows), HALF)

        def no_basis(*args):
            raise AssertionError("the gate must refuse before select_basis")

        monkeypatch.setattr(saturation, "select_basis", no_basis)
        with pytest.raises(InvalidLineSet, match=failed):
            check_saturated(ls)

    def test_rank_zero_refused(self):
        # the empty set passes validate, but has no pattern to scan
        ls = lineset.from_json_dict({"n": 0, "angle": "1/3", "signs": []})
        assert lineset.validate(ls).passed and ls.rank == 0
        with pytest.raises(HypothesisViolated, match="rank at least 1"):
            check_saturated(ls)

    def test_valid_input_skips_the_rank_recompute(self, monkeypatch):
        def no_rank(m):
            raise AssertionError("rank is recomputed")

        ls = hexagon()
        monkeypatch.setattr(linalg, "rank", no_rank)
        assert check_saturated(ls).saturated
