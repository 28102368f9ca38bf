"""Integer computation engines: enumeration, pairwise forms, span tiers."""

import os
from fractions import Fraction

import numpy as np
import pytest

from eqlines import _intops, linalg
from eqlines.linalg import RatMatrix
from eqlines.spansearch import SplitMix64

F = Fraction


def direct_unit_patterns(w, t_target):
    """All pattern indices with eps^T W eps == t_target, by Python ints."""
    d = len(w)
    out = []
    for m in range(1 << (d - 1)):
        eps = [1] + [
            -1 if m >> (d - 1 - t) & 1 else 1 for t in range(1, d)
        ]
        s = sum(w[i][j] * eps[i] * eps[j] for i in range(d) for j in range(d))
        if s == t_target:
            out.append(m)
    return out


def random_symmetric(rng: SplitMix64, d: int, scale: int = 1) -> list[list[int]]:
    w = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            v = (rng.below(19) - 9) * scale
            w[i][j] = w[j][i] = v
    return w


class TestWorkerCount:
    def test_clamped_to_cpus_and_jobs(self):
        cpus = len(os.sched_getaffinity(0))
        assert _intops.worker_count(10**12, 10**12) == cpus
        assert _intops.worker_count(10**12, 3) == min(3, cpus)
        assert _intops.worker_count(2, 10**9) == min(2, cpus)

    def test_at_least_one(self):
        assert _intops.worker_count(0, 10) == 1
        assert _intops.worker_count(-5, 10) == 1
        assert _intops.worker_count(8, 0) == 1


class TestScaledCandidateMatrix:
    def test_hexagon(self):
        half = F(1, 2)
        g = RatMatrix.from_rows(
            [[1, half, -half], [half, 1, half], [-half, half, 1]]
        )
        w, scale, t_target = _intops.scaled_candidate_matrix(g, [0, 1], half)
        assert w == [[2, -1], [-1, 2]]
        assert scale == 3
        assert t_target == 6

    def test_unit_identity(self, taylor):
        basis = list(range(20))
        # greedy check elsewhere; here just use the first 20 if independent
        sub = taylor.gram.submatrix(basis, basis)
        if linalg.rank(sub) != 20:
            pytest.skip("first 20 lines happen to be dependent")
        w, scale, t_target = _intops.scaled_candidate_matrix(
            taylor.gram, basis, taylor.angle
        )
        assert t_target * taylor.angle == scale
        # W must be L * alpha * inverse(G_B): check one column exactly
        inv = linalg.inverse(sub)
        for i in range(20):
            assert F(w[i][0], scale) == taylor.angle * inv[i, 0]


class TestBalancedLimbs:
    def test_small_single_limb(self):
        limbs = _intops._balanced_limbs([[5, -3], [-3, 7]])
        assert len(limbs) == 1
        assert limbs[0].tolist() == [[5, -3], [-3, 7]]

    def test_zero_matrix(self):
        limbs = _intops._balanced_limbs([[0]])
        assert len(limbs) == 1 and limbs[0].tolist() == [[0]]

    def test_recombination(self):
        rng = SplitMix64(21)
        base = 1 << 40
        for _ in range(10):
            vals = [
                [(rng.below(1 << 50)) - (1 << 49) for _ in range(3)]
                for _ in range(3)
            ]
            limbs = _intops._balanced_limbs(vals)
            assert len(limbs) >= 2
            again = [[0] * 3 for _ in range(3)]
            for k, limb in enumerate(limbs):
                for i in range(3):
                    for j in range(3):
                        again[i][j] += int(limb[i, j]) * base**k
            assert again == vals
            for limb in limbs:
                assert np.all(np.abs(limb) <= base // 2)


class TestEnumeration:
    def test_engines_match_direct(self):
        rng = SplitMix64(22)
        for trial in range(12):
            d = 2 + rng.below(8)
            w = random_symmetric(rng, d)
            # target drawn from realized values half the time
            direct_all = direct_unit_patterns(w, 0)
            t_target = 0
            if trial % 2 and direct_all:
                t_target = 0
            else:
                t_target = int(rng.below(40)) - 20
            want = direct_unit_patterns(w, t_target)
            total = 1 << (d - 1)
            got_batch = _intops.enumerate_range_batch(w, t_target, 0, total)
            got_gray = _intops.enumerate_range_gray(w, t_target, 0, total)
            assert got_batch == want
            assert got_gray == want

    def test_engines_match_on_multi_limb_entries(self):
        rng = SplitMix64(23)
        big = (1 << 45) + 12345
        for _ in range(6):
            d = 2 + rng.below(5)
            w = random_symmetric(rng, d, scale=big)
            t_target = w[0][0] and sum(w[i][j] for i in range(d) for j in range(d))
            want = direct_unit_patterns(w, t_target)
            total = 1 << (d - 1)
            assert _intops.enumerate_range_batch(w, t_target, 0, total) == want
            assert _intops.enumerate_range_gray(w, t_target, 0, total) == want

    def test_range_partition_equals_whole(self):
        rng = SplitMix64(24)
        d = 9
        w = random_symmetric(rng, d)
        t_target = w[0][0]
        total = 1 << (d - 1)
        whole = _intops.enumerate_range_batch(w, t_target, 0, total)
        parts = []
        cuts = [0, 17, 100, 256, total]
        for a, b in zip(cuts, cuts[1:]):
            parts.extend(_intops.enumerate_range_gray(w, t_target, a, b))
        assert parts == whole

    def test_progress_called(self):
        w = [[1, 0], [0, 1]]
        seen = []
        _intops.enumerate_range_batch(w, 2, 0, 2, progress=seen.append)
        assert seen and seen[-1] == 2


class TestPairwiseForms:
    def test_exact_small(self):
        rng = SplitMix64(25)
        d = 5
        w = random_symmetric(rng, d)
        ms = list(range(1 << (d - 1)))
        e = _intops.patterns_from_indices(ms, d)
        mat, exact, is_exact = _intops.pairwise_forms(e, w)
        assert is_exact
        eps = e.tolist()
        for i in range(0, len(ms), 3):
            for j in range(0, len(ms), 5):
                direct = sum(
                    w[a][b] * eps[i][a] * eps[j][b]
                    for a in range(d)
                    for b in range(d)
                )
                assert int(mat[i, j]) == direct == exact(i, j)

    def test_multi_limb_lookup(self):
        rng = SplitMix64(26)
        d = 4
        w = random_symmetric(rng, d, scale=(1 << 44) + 7)
        ms = list(range(1 << (d - 1)))
        e = _intops.patterns_from_indices(ms, d)
        mat, exact, is_exact = _intops.pairwise_forms(e, w)
        assert not is_exact
        eps = e.tolist()
        for i in range(len(ms)):
            for j in range(len(ms)):
                direct = sum(
                    w[a][b] * eps[i][a] * eps[j][b]
                    for a in range(d)
                    for b in range(d)
                )
                assert exact(i, j) == direct
                assert (int(mat[i, j]) - direct) % (1 << 40) == 0


class TestDetInverseMod:
    def test_against_fraction_det(self):
        rng = SplitMix64(27)
        p = _intops._PRIMES26[0]
        for _ in range(15):
            d = 1 + rng.below(5)
            a = [[rng.below(50) - 25 for _ in range(d)] for _ in range(d)]
            det = linalg.det(RatMatrix.from_rows(a))
            det_p, inv_p = _intops._det_inverse_mod(
                np.array(a, dtype=np.int64), p
            )
            assert det_p == int(det) % p
            if inv_p is not None:
                prod = (np.array(a) % p) @ inv_p % p
                assert np.array_equal(prod, np.eye(d, dtype=np.int64))

    def test_singular_mod_p(self):
        p = _intops._PRIMES26[0]
        a = np.array([[p, 0], [0, 1]], dtype=np.int64)
        det_p, inv_p = _intops._det_inverse_mod(a, p)
        assert det_p == 0 and inv_p is None


def gram_from_vectors(vectors) -> list[list[int]]:
    n = len(vectors)
    return [
        [sum(a * b for a, b in zip(vectors[i], vectors[j])) for j in range(n)]
        for i in range(n)
    ]


class TestSpanEngine:
    def _random_instance(self, rng, ambient, n, coord_range=5):
        vectors = [
            [rng.below(2 * coord_range + 1) - coord_range for _ in range(ambient)]
            for _ in range(n)
        ]
        return vectors, gram_from_vectors(vectors)

    def _oracle(self, m_rows, subset):
        sub = RatMatrix.from_rows(
            [[F(m_rows[i][j]) for j in subset] for i in subset]
        )
        if linalg.rank(sub) != len(subset):
            return None
        members = []
        n = len(m_rows)
        for j in range(n):
            ext = list(subset) + [j]
            block = RatMatrix.from_rows(
                [[F(m_rows[a][b]) for b in ext] for a in ext]
            )
            if linalg.rank(block) == len(subset):
                members.append(j)
        return members

    def test_tiers_agree_with_rank_oracle(self):
        rng = SplitMix64(28)
        for _ in range(12):
            ambient = 3 + rng.below(3)
            n = ambient + 2 + rng.below(4)
            vectors, m_rows = self._random_instance(rng, ambient, n)
            engine = _intops.SpanEngine(m_rows)
            k = 1 + rng.below(ambient)
            subset = sorted(
                set(rng.below(n) for _ in range(k))
            )
            want = self._oracle(m_rows, subset)
            assert engine.members(subset) == want
            assert engine._members_exact(subset) == want
            assert engine._members_modular(subset) == want

    def test_modular_tier_on_huge_entries(self):
        rng = SplitMix64(29)
        shift = 1 << 41
        for _ in range(6):
            vectors, m_rows = self._random_instance(rng, 3, 7)
            big = [[x * shift for x in row] for row in m_rows]
            engine = _intops.SpanEngine(big)
            assert not engine.small
            subset = [0, 1]
            want = self._oracle(m_rows, subset)  # scaling preserves membership
            assert engine.members(subset) == want

    def test_singular_subset_returns_none(self):
        vectors = [[1, 0], [2, 0], [0, 1]]
        m_rows = gram_from_vectors(vectors)
        engine = _intops.SpanEngine(m_rows)
        assert engine.members([0, 1]) is None  # parallel vectors
        assert engine.members([0, 2]) == [0, 1, 2]

    def test_members_includes_subset(self):
        rng = SplitMix64(30)
        vectors, m_rows = self._random_instance(rng, 4, 8)
        engine = _intops.SpanEngine(m_rows)
        got = engine.members([1, 3])
        if got is not None:
            assert {1, 3} <= set(got)

    def test_one_shot_wrapper(self):
        vectors = [[1, 0], [0, 1], [1, 1]]
        m_rows = gram_from_vectors(vectors)
        assert _intops.span_members(m_rows, [0, 1]) == [0, 1, 2]
