"""Integer computation engines: enumeration, pairwise hits, span tiers."""

import os
from fractions import Fraction

import numpy as np
import pytest

from eqlines import _intops, linalg
from eqlines.linalg import RatMatrix
from eqlines.spansearch import SplitMix64
from oracles import det, direct_unit_patterns, enumerate_range_batch

F = Fraction


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


def realized_target(rng: SplitMix64, w: list[list[int]]) -> int:
    """The form of a random pattern, so the target is always hit."""
    d = len(w)
    m = rng.below(1 << (d - 1))
    eps = [1] + [-1 if m >> (d - 1 - t) & 1 else 1 for t in range(1, d)]
    return sum(w[i][j] * eps[i] * eps[j] for i in range(d) for j in range(d))


class TestEnumeration:
    def test_engines_match_direct(self):
        rng = SplitMix64(22)
        for d in range(1, 21):
            w = random_symmetric(rng, d)
            for t_target in (realized_target(rng, w), rng.below(40) - 20):
                got = _intops.enumerate_unit_patterns(w, t_target)
                total = 1 << (d - 1)
                assert got == enumerate_range_batch(w, t_target, 0, total)
                if d <= 12:
                    assert got == direct_unit_patterns(w, t_target)

    def test_engines_match_on_multi_limb_entries(self):
        rng = SplitMix64(23)
        big = (1 << 45) + 12345
        for _ in range(6):
            d = 1 + rng.below(6)
            w = random_symmetric(rng, d, scale=big)
            t_target = realized_target(rng, w)
            want = direct_unit_patterns(w, t_target)
            assert _intops.enumerate_unit_patterns(w, t_target) == want
        # two limbs at d = 16, where the scan takes several row blocks
        w = random_symmetric(rng, 16, scale=big)
        assert len(_intops._balanced_limbs(w)) == 2
        t_target = realized_target(rng, w)
        got = _intops.enumerate_unit_patterns(w, t_target)
        assert got and got == enumerate_range_batch(w, t_target, 0, 1 << 15)

    def test_recombination_decides_when_low_limb_agrees(self):
        # W = 3I + 2^39 J: eps^T W eps = 3d + 2^39 s^2 with s the sign
        # sum, odd at d = 5, so every pattern agrees with the target mod
        # 2^40 and only the recombined value tells s^2 = 25 from 9 or 1
        d = 5
        w = [[3 * (i == j) + (1 << 39) for j in range(d)] for i in range(d)]
        assert len(_intops._balanced_limbs(w)) == 2
        for s in (5, 3, 1):
            t_target = 3 * d + (1 << 39) * s * s
            want = direct_unit_patterns(w, t_target)
            assert want
            assert _intops.enumerate_unit_patterns(w, t_target) == want
        assert _intops.enumerate_unit_patterns(w, 3 * d) == []

    def test_range_partition_equals_whole(self):
        rng = SplitMix64(24)
        d = 9
        w = random_symmetric(rng, d)
        t_target = w[0][0]
        total = 1 << (d - 1)
        whole = _intops.enumerate_unit_patterns(w, t_target)
        parts = []
        cuts = [0, 17, 100, 256, total]
        for a, b in zip(cuts, cuts[1:]):
            parts.extend(enumerate_range_batch(w, t_target, a, b))
        assert parts == whole

    def test_progress_called(self):
        seen = []
        _intops.enumerate_unit_patterns(
            [[1, 0], [0, 1]], 2, lambda a, b: seen.append((a, b))
        )
        assert seen == [(2, 2)]
        d = 20
        total = 1 << (d - 1)
        w = [[int(i == j) for j in range(d)] for i in range(d)]
        seen = []
        _intops.enumerate_unit_patterns(w, d, lambda a, b: seen.append((a, b)))
        step = _intops._PROGRESS_STEP
        assert step == 1 << 16
        assert seen == [(k * step, total) for k in range(1, total // step)] + [
            (total, total)
        ]


def random_signs(rng: SplitMix64, k: int, d: int) -> np.ndarray:
    return np.array(
        [[1 - 2 * rng.below(2) for _ in range(d)] for _ in range(k)],
        dtype=np.int64,
    )


def assert_hits_match_direct(e: np.ndarray, m: list[list[int]], targets) -> None:
    """pairwise_hits against |eps_i^T m_j| == t in Python ints."""
    hits = _intops.pairwise_hits(e, m, targets)
    direct = [[abs(sum(a * b for a, b in zip(ei, mj))) for mj in m]
              for ei in e.tolist()]
    assert len(hits) == len(targets)
    for hit, t in zip(hits, targets):
        assert hit.shape == (len(e), len(m))
        assert hit.tolist() == [[v == t for v in row] for row in direct]


class TestPairwiseHits:
    # more rows than one block, so the row-block seams are crossed
    K = 150

    def test_single_limb(self):
        rng = SplitMix64(25)
        d = 6
        e = random_signs(rng, self.K, d)
        m = [[rng.below(19) - 9 for _ in range(d)] for _ in range(self.K - 7)]
        assert _intops._SCAN_BLOCK // len(m) < self.K
        eps = e.tolist()
        forms = [sum(a * b for a, b in zip(eps[i], m[j]))
                 for i, j in ((0, 1), (40, 3), (149, 100))]
        targets = [abs(f) for f in forms] + [0, 10**6]
        assert_hits_match_direct(e, m, targets)
        assert len(_intops._balanced_limbs(m)) == 1

    def test_two_limbs(self):
        rng = SplitMix64(26)
        d = 4
        big = (1 << 44) + 7
        e = random_signs(rng, self.K, d)
        m = [[(rng.below(19) - 9) * big + rng.below(3) - 1 for _ in range(d)]
             for _ in range(self.K)]
        assert _intops._SCAN_BLOCK // len(m) < self.K
        eps = e.tolist()
        forms = [sum(a * b for a, b in zip(eps[i], m[j]))
                 for i, j in ((0, 1), (75, 2), (149, 149))]
        # the last target agrees with a form mod 2^40 but differs from it
        targets = [abs(f) for f in forms] + [abs(forms[0]) + (1 << 40)]
        assert_hits_match_direct(e, m, targets)
        assert len(_intops._balanced_limbs(m)) == 2


class TestDetInverseMod:
    def test_against_fraction_det(self):
        rng = SplitMix64(27)
        p = _intops._PRIMES26[0]
        for _ in range(15):
            d = 1 + rng.below(5)
            a = [[rng.below(50) - 25 for _ in range(d)] for _ in range(d)]
            det_a = det(RatMatrix.from_rows(a))
            det_p, inv_p = _intops._det_inverse_mod(
                np.array(a, dtype=np.int64), p
            )
            assert det_p == int(det_a) % p
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
