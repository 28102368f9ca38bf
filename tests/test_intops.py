"""Integer computation engines: enumeration, pairwise hits, span tiers."""

from fractions import Fraction

import numpy as np
import pytest

from eqlines import _intops, linalg, spansearch
from eqlines.linalg import RatMatrix
from eqlines.spansearch import SplitMix64
from oracles import (
    _PRIMES26,
    _SCAN_BLOCK,
    PerDrawSpanEngine,
    _balanced_limbs,
    _det_inverse_mod,
    _det_mod_many,
    _exact_array,
    _pattern_block,
    det,
    direct_unit_patterns,
    enumerate_range_batch,
    exact_members,
    inverse,
    modular_members,
    pairwise_hits,
    sample_subset,
    sign_patterns,
    span_engine,
    span_members,
    span_members_many,
)

F = Fraction
P0 = _PRIMES26[0]
# 8191^2 + 113^2 + 60^2 + 3^2 == P0: a vector whose squared norm is P0
P0_VECTOR = (8191, 113, 60, 3)


def random_symmetric(rng: SplitMix64, d: int, scale: int = 1) -> list[list[int]]:
    w = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            v = (rng.below(19) - 9) * scale
            w[i][j] = w[j][i] = v
    return w


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
        inv = inverse(sub)
        for i in range(20):
            assert F(w[i][0], scale) == taylor.angle * inv[i, 0]


class TestExactArray:
    """`_exact_array` keeps int64 while d^2 * max|W| < 2^63, the bound on
    every partial sum of a +-1 form, and object dtype past it."""

    def test_small_entries_stay_int64(self):
        wa = _exact_array([[5, -3], [-3, 7]])
        assert wa.dtype == np.int64
        assert wa.tolist() == [[5, -3], [-3, 7]]

    def test_boundary_pair(self):
        # d = 4: 16 * (2^59 - 1) = 2^63 - 16 fits, 16 * 2^59 = 2^63 does not
        d = 4
        for top, dtype in (((1 << 59) - 1, np.int64), (1 << 59, object)):
            w = [[top if i == j else -1 for j in range(d)] for i in range(d)]
            wa = _exact_array(w)
            assert wa.dtype == dtype
            assert wa.tolist() == w
        # the largest form at the int64 side of the boundary is exact:
        # the all-plus pattern of top * J sums to 16 * top = 2^63 - 16
        top = (1 << 59) - 1
        w = [[top] * d for _ in range(d)]
        assert _exact_array(w).dtype == np.int64
        assert _intops.enumerate_unit_patterns(w, d * d * top) == [0]
        e = _pattern_block(np.arange(1 << (d - 1)), d)
        hit = pairwise_hits(e, w, d * d * top)
        assert np.unpackbits(hit, axis=1, count=8, bitorder="little")[0, 0] == 1
        # the lanes of that form, +B and -B with B = d^2 * top, sit at
        # the edges of the lane range [0, 2B]
        for sign in (1, -1):
            w = [[sign * top] * d for _ in range(d)]
            assert _intops._lanes(w)[0] == d * d * top
            assert _intops.enumerate_unit_patterns(w, sign * d * d * top) == [0]
            assert _intops.pairwise_rows(range(8), w, d * d * top)[0] == 1

    def test_wide_entries_are_python_ints(self):
        w = [[(1 << 70) + 1, -(1 << 65)], [-(1 << 65), 3]]
        wa = _exact_array(w)
        assert wa.dtype == object
        assert all(type(x) is int for x in wa.flat)
        assert wa.tolist() == w


class TestBalancedLimbs:
    """The base-2^40 limb split of the block-scan oracle
    (`oracles.enumerate_range_batch`)."""

    def test_small_single_limb(self):
        limbs = _balanced_limbs([[5, -3], [-3, 7]])
        assert len(limbs) == 1
        assert limbs[0].tolist() == [[5, -3], [-3, 7]]

    def test_zero_matrix(self):
        limbs = _balanced_limbs([[0]])
        assert len(limbs) == 1 and limbs[0].tolist() == [[0]]

    def test_recombination(self):
        rng = SplitMix64(21)
        base = 1 << 40
        for _ in range(10):
            vals = [
                [(rng.below(1 << 50)) - (1 << 49) for _ in range(3)]
                for _ in range(3)
            ]
            limbs = _balanced_limbs(vals)
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
        # entries that take two base-2^40 limbs in the block-scan oracle
        # and still fit the scan's int64 forms
        rng = SplitMix64(23)
        big = (1 << 45) + 12345
        for _ in range(6):
            d = 1 + rng.below(6)
            w = random_symmetric(rng, d, scale=big)
            t_target = realized_target(rng, w)
            want = direct_unit_patterns(w, t_target)
            assert _intops.enumerate_unit_patterns(w, t_target) == want
        # d = 16, where the scan takes several row blocks
        w = random_symmetric(rng, 16, scale=big)
        assert len(_balanced_limbs(w)) == 2
        assert _exact_array(w).dtype == np.int64
        t_target = realized_target(rng, w)
        got = _intops.enumerate_unit_patterns(w, t_target)
        assert got and got == enumerate_range_batch(w, t_target, 0, 1 << 15)

    def test_recombination_decides_when_low_limb_agrees(self):
        # W = 3I + 2^39 J: eps^T W eps = 3d + 2^39 s^2 with s the sign
        # sum, odd at d = 5, so every pattern agrees with the target mod
        # 2^40 and only the block-scan oracle's recombination of its
        # limbs tells s^2 = 25 from 9 or 1; the scan's int64 forms are
        # the values
        d = 5
        w = [[3 * (i == j) + (1 << 39) for j in range(d)] for i in range(d)]
        assert len(_balanced_limbs(w)) == 2
        assert _exact_array(w).dtype == np.int64
        for s in (5, 3, 1):
            t_target = 3 * d + (1 << 39) * s * s
            want = direct_unit_patterns(w, t_target)
            assert want
            assert _intops.enumerate_unit_patterns(w, t_target) == want
            assert enumerate_range_batch(w, t_target, 0, 1 << (d - 1)) == want
        assert _intops.enumerate_unit_patterns(w, 3 * d) == []

    def test_wrapping_forms_decided_exactly(self):
        # W = 3I + 2^61 J: s^2 = 25, 9 and 1 all give 2^61 s^2 == 2^61
        # mod 2^64, so int64 forms would wrap every pattern onto the
        # s = +-1 target; the object-dtype forms tell them apart
        d = 5
        w = [[3 * (i == j) + (1 << 61) for j in range(d)] for i in range(d)]
        assert _exact_array(w).dtype == object
        e = _pattern_block(np.arange(1 << (d - 1)), d)
        wrapped = ((e @ np.array(w, dtype=np.int64)) * e).sum(axis=1)
        assert (wrapped == 3 * d + (1 << 61)).all()
        for s in (5, 3, 1):
            t_target = 3 * d + (1 << 61) * s * s
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


def bilinear_forms(e: np.ndarray, w: list[list[int]]) -> list[list[int]]:
    """eps_i^T W eps_j for every pair of rows of e, in Python ints."""
    eps = e.tolist()
    we = [[sum(x * s for x, s in zip(row, ej)) for row in w] for ej in eps]
    return [[sum(a * b for a, b in zip(ei, wj)) for wj in we] for ei in eps]


def assert_hits_match_direct(e: np.ndarray, w: list[list[int]], targets) -> None:
    """The numpy oracle pairwise_hits, unpacked, and the packed-lane
    rows of `_intops.pairwise_rows` against |eps_i^T W eps_j| == t in
    Python ints, for each target t."""
    direct = bilinear_forms(e, w)
    k = len(e)
    for t in targets:
        want = [[int(abs(v) == t) for v in row] for row in direct]
        hit = pairwise_hits(e, w, t)
        assert hit.shape == (k, (k + 7) // 8)
        got = np.unpackbits(hit, axis=1, count=k, bitorder="little")
        assert got.tolist() == want
        # the padding bits of the last byte stay clear
        assert np.unpackbits(hit, axis=1, bitorder="little")[:, k:].sum() == 0
        rows = _intops.pairwise_rows(sign_patterns(e), w, t)
        assert rows == [sum(x << j for j, x in enumerate(row)) for row in want]


class TestPairwiseHits:
    """The bilinear forms eps_i^T W eps_j of the compatibility graph;
    K rows span more than one row block, so the block seams are crossed.
    The limb counts are those of the oracles' base-2^40 split: the
    kernel computes both widths on int64, and past d^2 * max|W| = 2^63
    on Python ints."""

    K = 150

    def test_single_limb(self):
        rng = SplitMix64(25)
        d = 6
        e = random_signs(rng, self.K, d)
        w = random_symmetric(rng, d)
        assert _SCAN_BLOCK // self.K < self.K
        forms = bilinear_forms(e, w)
        targets = [abs(forms[i][j]) for i, j in ((0, 1), (40, 3), (149, 100))]
        assert_hits_match_direct(e, w, targets + [0, 10**6])
        assert len(_balanced_limbs(w)) == 1

    def test_two_limbs(self):
        rng = SplitMix64(26)
        d = 4
        big = (1 << 44) + 7
        e = random_signs(rng, self.K, d)
        w = random_symmetric(rng, d, big)
        for i in range(d):
            for j in range(i, d):
                w[i][j] += rng.below(3) - 1
                w[j][i] = w[i][j]
        assert min(abs(x) for row in w for x in row) >= 1 << 44
        assert _SCAN_BLOCK // self.K < self.K
        forms = bilinear_forms(e, w)
        targets = [abs(forms[i][j]) for i, j in ((0, 1), (75, 2), (149, 149))]
        # the last target agrees with a form mod 2^40 but differs from it
        assert_hits_match_direct(e, w, targets + [targets[0] + (1 << 40)])
        assert len(_balanced_limbs(w)) == 2
        assert _exact_array(w).dtype == np.int64

    def test_wide_entries(self):
        # entries near 2^66 at d = 8 take the object path
        rng = SplitMix64(47)
        d = 8
        big = (1 << 66) + 5
        e = random_signs(rng, self.K, d)
        w = random_symmetric(rng, d, big)
        for i in range(d):
            w[i][i] += rng.below(5) - 2
        assert _exact_array(w).dtype == object
        forms = bilinear_forms(e, w)
        targets = [abs(forms[i][j]) for i, j in ((0, 1), (75, 2), (149, 149))]
        assert_hits_match_direct(e, w, targets + [targets[0] + (1 << 64)])

    def test_wrapping_forms_decided_exactly(self):
        # W = 3I + 2^61 J over all 16 first-plus patterns at d = 5:
        # eps_i^T W eps_j = 3 eps_i.eps_j + 2^61 s_i s_j with odd sign
        # sums, so int64 forms wrap s_i s_j = 9 and 25 onto 1
        d = 5
        w = [[3 * (i == j) + (1 << 61) for j in range(d)] for i in range(d)]
        e = _pattern_block(np.arange(1 << (d - 1)), d)
        forms = bilinear_forms(e, w)
        t = 3 * d + (1 << 61)
        wrapped = (e @ np.array(w, dtype=np.int64)) @ e.T
        exact = [[abs(v) == t for v in row] for row in forms]
        assert (np.abs(wrapped) == t).sum() > np.sum(exact) > 0
        targets = sorted({abs(v) for row in forms for v in row})
        assert_hits_match_direct(e, w, targets)


class TestDetInverseMod:
    def test_against_fraction_det(self):
        rng = SplitMix64(27)
        for _ in range(15):
            d = 1 + rng.below(5)
            a = [[rng.below(50) - 25 for _ in range(d)] for _ in range(d)]
            det_a = det(RatMatrix.from_rows(a))
            for p in (P0, spansearch._PRIME):
                det_p, inv_p = _det_inverse_mod(
                    np.array(a, dtype=np.int64), p
                )
                assert det_p == int(det_a) % p
                rank_p = spansearch._rref_mod(np.array([a], dtype=np.int64), p)[2]
                assert (rank_p[0] < d) == (det_p == 0)
                if inv_p is not None:
                    # Python ints: products of two 31-bit residues overflow
                    prod = np.array(a, dtype=object) @ inv_p.astype(object) % p
                    assert np.array_equal(prod, np.eye(d, dtype=np.int64))

    def test_singular_mod_p(self):
        for p in (P0, spansearch._PRIME):
            a = np.array([[p, 0], [0, 1]], dtype=np.int64)
            det_p, inv_p = _det_inverse_mod(a, p)
            assert det_p == 0 and inv_p is None
            assert spansearch._rref_mod(a[None], p)[2].tolist() == [1]


class TestDetModMany:
    """The stacked eliminations, the one-prime `_det_mod_many` oracle and
    the ranks of the int64 `_rref_mod`, against the per-matrix
    `_det_inverse_mod`."""

    @staticmethod
    def assert_matches(stack):
        for p in (*_PRIMES26, spansearch._PRIME):
            got = _det_mod_many(stack, p)
            want = [_det_inverse_mod(a, p)[0] for a in stack]
            assert got.tolist() == want
            rank = spansearch._rref_mod(stack, p)[2]
            assert (rank < stack.shape[1]).tolist() == [w == 0 for w in want]

    def test_random_stacks_with_row_swaps(self):
        rng = SplitMix64(31)
        for d in (1, 2, 3, 5, 8, 18):
            stack = np.array(
                [[[rng.below(2**31) - 2**30 for _ in range(d)]
                  for _ in range(d)] for _ in range(6)],
                dtype=np.int64,
            )
            # leading entries divisible by every prime force pivot swaps
            stack[:, 0, 0] = 0
            stack[1, : d - 1, min(1, d - 1)] = 0
            stack[2, :, 0] = [0] * (d - 1) + [7]
            self.assert_matches(stack)

    def test_d1_zero_row_and_duplicate_rows(self):
        rng = SplitMix64(32)
        ones = np.array([[[5]], [[0]], [[P0]], [[-3 * P0 + 1]]], dtype=np.int64)
        self.assert_matches(ones)
        stack = np.array(
            [[[rng.below(99) - 49 for _ in range(4)] for _ in range(4)]
             for _ in range(3)],
            dtype=np.int64,
        )
        stack[0, 2] = 0  # a zero row
        stack[1, 3] = stack[1, 0]  # duplicate rows
        stack[2, 1] = stack[2, 3] + P0  # duplicate rows mod P0 only
        self.assert_matches(stack)
        assert _det_mod_many(stack[:2], P0).tolist() == [0, 0]

    def test_det_equal_to_first_prime(self):
        vectors = [(1, 0, 0, 0, 0), (0, *P0_VECTOR)]
        block = np.array(gram_from_vectors(vectors), dtype=np.int64)
        assert int(det(RatMatrix.from_rows(block.tolist()))) == P0
        self.assert_matches(block[None])
        assert _det_mod_many(block[None], P0).tolist() == [0]
        assert _det_mod_many(block[None], _PRIMES26[1])[0] != 0

    def test_empty_stack_and_empty_matrices(self):
        assert _det_mod_many(np.zeros((0, 3, 3), np.int64), P0).size == 0
        assert _det_mod_many(np.zeros((2, 0, 0), np.int64), P0).tolist() == [1, 1]


class TestInverseMod:
    """The stacked int64 `_rref_mod` against the per-matrix
    `_det_inverse_mod`, one prime per matrix: A has rank below d mod p
    exactly when det A == 0 mod p, and otherwise the RREF of [A | I] is
    [I | A^-1]."""

    @staticmethod
    def assert_matches(stack, primes):
        k, d = stack.shape[:2]
        eye = np.broadcast_to(np.eye(d, dtype=np.int64), stack.shape)
        for p in set(primes):
            take = [i for i, q in enumerate(primes) if q == p]
            rank = spansearch._rref_mod(stack[take], p)[2]
            w, pivots, _ = spansearch._rref_mod(
                np.concatenate([stack[take], eye[take]], axis=2), p
            )
            assert w.min(initial=0) >= 0 and w.max(initial=0) < p
            for a, r, w_a, piv in zip(stack[take], rank, w, pivots):
                det_p, inv_p = _det_inverse_mod(a, p)
                assert (r < d) == (inv_p is None) == (det_p == 0)
                # the identity block keeps every row a pivot row
                assert (piv.max(initial=0) >= d) == (r < d)
                if inv_p is not None:
                    assert np.array_equal(w_a[:, :d], np.eye(d, dtype=np.int64))
                    assert np.array_equal(w_a[:, d:], inv_p)

    def test_random_stacks_with_pivot_search(self):
        rng = SplitMix64(41)
        for d in (1, 2, 3, 5, 8, 18):
            primes = [_PRIMES26[rng.below(24)] for _ in range(8)]
            stack = np.array(
                [[[rng.below(2**31) - 2**30 for _ in range(d)]
                  for _ in range(d)] for _ in range(8)],
                dtype=np.int64,
            )
            # columns 0 mod p in the leading rows force the pivot search
            for k, p in enumerate(primes[:4]):
                stack[k, : d - 1, k % d] = p * (k - 2)
            stack[4, d - 1] = stack[4, 0] + primes[4]  # singular mod p only
            stack[5, 0] = 0  # a zero row
            self.assert_matches(stack, primes)

    def test_small_gram_blocks(self):
        rng = SplitMix64(42)
        for _ in range(20):
            d = 1 + rng.below(6)
            vectors = [[rng.below(5) - 2 for _ in range(d)] for _ in range(d)]
            stack = np.array([gram_from_vectors(vectors)], dtype=np.int64)
            self.assert_matches(stack, [_PRIMES26[rng.below(24)]])


# v1 - v2 and v3 - v4 + v5 close the list; v0 has squared norm 4, the
# largest Gram entry
EDGE_VECTORS = (
    (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
    (0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1),
    (1, 0, -1, 0, 0, 0), (0, 0, 1, 0, 0, 1),
)


def edge_rows(shift: int = 23) -> list[list[int]]:
    """The Gram matrix of EDGE_VECTORS (rank 6) times 2^shift: at the
    default shift max|M| = 2^25, so a draw of d = 4 lines sits on the
    span engine's width rule, d * max|M| = 2^27."""
    return [[x << shift for x in row] for row in gram_from_vectors(EDGE_VECTORS)]


class TestFormsMod:
    """The modular tier at the width rule's edge: at d * max|M| = 2^27
    the float tier's budget fails, so the modular tier decides every
    nonsingular draw, with its int64 residues, checks and u . C_j at
    their widest.  The same rows scaled past the width rule reach no
    numpy tier: the exact tier answers them."""

    @pytest.mark.parametrize("wrap", [0, 256], ids=["small", "wide"])
    def test_digit_split_is_exact(self, wrap):
        m_rows = edge_rows(23 + 8 * (wrap > 0))
        d, n = 4, len(m_rows)
        engine = span_engine(m_rows)
        subsets = [list(range(k, k + d)) for k in range(n - d + 1)]
        got = span_members_many(engine, subsets)
        assert got == PerDrawSpanEngine(m_rows).members_many(subsets)
        assert got == [exact_members(engine, s) for s in subsets]
        assert [6 in g for g in got] == [True, True, False, True, True]
        assert [7 in g for g in got] == [False, False, True, True, True]
        assert (d * engine.max_m == 2**27) == (wrap == 0)
        tier = "exact" if wrap else "modular"
        assert engine.tier_counts[tier] == len(subsets)


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
            engine = span_engine(m_rows)
            k = 1 + rng.below(ambient)
            subset = sorted(
                set(rng.below(n) for _ in range(k))
            )
            want = self._oracle(m_rows, subset)
            assert span_members(engine, subset) == want
            assert exact_members(engine, subset) == want
            assert modular_members(engine, [subset]) == [want]

    def test_modular_tier_on_huge_entries(self):
        # scaled by 2^41 the draws are past the width rule and the exact
        # tier answers them; scaled to its edge (2 * max_m <= 2^27) the
        # modular tier, called directly, answers them as well
        rng = SplitMix64(29)
        shift = 1 << 41
        for _ in range(6):
            vectors, m_rows = self._random_instance(rng, 3, 7)
            big = [[x * shift for x in row] for row in m_rows]
            engine = span_engine(big)
            subset = [0, 1]
            want = self._oracle(m_rows, subset)  # scaling preserves membership
            assert span_members(engine, subset) == want
            assert engine.tier_counts["exact"] == 1
            scale = (1 << 26) // max(abs(x) for row in m_rows for x in row)
            edge = span_engine([[x * scale for x in row] for row in m_rows])
            assert 2 * edge.max_m > 1 << 26
            assert modular_members(edge, [subset]) == [want]
            assert edge.tier_counts["exact"] == 0

    def test_width_rule_boundary(self):
        # d * max_m = 2^27 is decided by the numpy tiers: the float
        # budget (d * max_m)^2 <= 2^53 fails, so by the modular tier,
        # which agrees with the per-draw residues
        m_rows = edge_rows()
        d = 4
        engine = span_engine(m_rows)
        oracle = PerDrawSpanEngine(m_rows)
        assert d * engine.max_m == 2**27
        assert span_members(engine, list(range(d))) == oracle.members(list(range(d)))
        assert engine.tier_counts["modular"] == 1
        # one past the edge, the exact tier decides the same draw
        wide = [[x + (x == 2**25) for x in row] for row in m_rows]
        engine = span_engine(wide)
        assert d * engine.max_m == 2**27 + d
        assert span_members(engine, list(range(d))) == PerDrawSpanEngine(wide).members(
            list(range(d))
        )
        assert engine.tier_counts["exact"] == 1
        # draw [0] has det top and adjugate [1]: at top = 2^27 the
        # modular tier answers it; one past, the exact tier does
        for top, tier in ((2**27, "modular"), (2**27 + 1, "exact")):
            m_rows = [[top, 0, top], [0, 1, 0], [top, 0, top]]
            engine = span_engine(m_rows)
            assert span_members(engine, [0]) == [0, 2]
            assert span_members(engine, [0]) == PerDrawSpanEngine(m_rows).members([0])
            assert engine.tier_counts[tier] == 2
            assert sum(engine.tier_counts.values()) == 2

    def test_singular_subset_returns_none(self):
        vectors = [[1, 0], [2, 0], [0, 1]]
        m_rows = gram_from_vectors(vectors)
        engine = span_engine(m_rows)
        assert span_members(engine, [0, 1]) is None  # parallel vectors
        assert span_members(engine, [0, 2]) == [0, 1, 2]

    def test_members_includes_subset(self):
        rng = SplitMix64(30)
        vectors, m_rows = self._random_instance(rng, 4, 8)
        engine = span_engine(m_rows)
        got = span_members(engine, [1, 3])
        if got is not None:
            assert {1, 3} <= set(got)


def draws(ls, d, count, seed):
    rng = SplitMix64(seed)
    return [sample_subset(rng, ls.n, d) for _ in range(count)]


class TestStackedSpan:
    """`members_many` against the per-draw path it replaced."""

    @staticmethod
    def engines(m_rows):
        return span_engine(m_rows), PerDrawSpanEngine(m_rows)

    @pytest.mark.parametrize("name", ["tremain", "taylor", "asche"])
    def test_random_draws_match_per_draw(self, name, request):
        ls = request.getfixturevalue(name)
        engine, oracle = self.engines(linalg.integer_scaled(ls.gram)[0])
        kinds = set()
        for d in (17, 18, 19):
            # more draws than one block, so a block seam is crossed
            subsets = draws(ls, d, engine.block(d) + 7, seed=33 + d)
            want = oracle.members_many(subsets)
            assert span_members_many(engine, subsets) == want
            kinds |= {w is None for w in want}
        # tremain has rank 14, so all of its draws are singular
        assert kinds == ({True} if ls.rank < 17 else {True, False})

    def test_members_is_one_draw_block(self, asche):
        engine, oracle = self.engines(linalg.integer_scaled(asche.gram)[0])
        for subset in draws(asche, 18, 12, seed=34):
            assert span_members(engine, subset) == oracle.members(subset)
        assert span_members_many(engine, []) == []

    def test_wide_entries_match_per_draw(self, asche):
        # entries of 5 * 2^29 put every draw past the width rule
        m_rows = [[x << 29 for x in row] for row in linalg.integer_scaled(asche.gram)[0]]
        engine, oracle = self.engines(m_rows)
        for d, count in ((6, 12), (18, 3)):
            subsets = draws(asche, d, count, seed=35)
            assert span_members_many(engine, subsets) == oracle.members_many(subsets)
        # every draw is past the width rule, so the exact tier answers it
        assert engine.tier_counts["exact"] == 15
        rng = SplitMix64(36)
        for _ in range(8):
            vectors = [[rng.below(11) - 5 for _ in range(4)] for _ in range(10)]
            m_rows = [[x << 31 for x in row] for row in gram_from_vectors(vectors)]
            engine, oracle = self.engines(m_rows)
            # five lines in R^4 are always dependent
            for k in (3, 5):
                subsets = [sample_subset(rng, 10, k) for _ in range(4)]
                want = oracle.members_many(subsets)
                assert span_members_many(engine, subsets) == want
                assert k == 3 or want == [None] * 4
            assert engine.tier_counts["exact"] == 8

    def test_failed_float_proposal_answered_by_modular_tier(self, asche, monkeypatch):
        engine, oracle = self.engines(linalg.integer_scaled(asche.gram)[0])
        subsets = draws(asche, 18, 30, seed=37)
        want = oracle.members_many(subsets)
        nonsingular = [s for s, w in zip(subsets, want) if w is not None]
        assert nonsingular and len(nonsingular) < len(subsets)
        inv = np.linalg.inv
        # each proposed adjugate entry comes out one too large
        monkeypatch.setattr(
            np.linalg, "inv",
            lambda a: inv(a) + 0.75 / np.linalg.det(a)[..., None, None],
        )
        asked = []
        modular = engine._members_mod
        monkeypatch.setattr(
            engine, "_members_mod",
            lambda sub, left, full, mask: asked.extend(sub[left].tolist())
            or modular(sub, left, full, mask),
        )
        assert span_members_many(engine, subsets) == want
        assert asked == nonsingular
        assert engine.tier_counts == {
            "float": 0, "kernel": len(subsets) - len(nonsingular),
            "singular": 0, "modular": len(nonsingular), "exact": 0,
        }

    def test_asche72_singular_draws_need_two_primes(self, asche, monkeypatch):
        # one prime decides every asche72 draw of 18: one stack of the
        # 60 Gram blocks mod p, then one stack of the load rows of the
        # draws of rank 18 mod p, and no draw takes a second prime
        engine, oracle = self.engines(linalg.integer_scaled(asche.gram)[0])
        sub = np.array(draws(asche, 18, 60, seed=38))
        calls = []
        rref = spansearch._rref_mod
        monkeypatch.setattr(
            spansearch, "_rref_mod",
            lambda a, p: calls.append((a.shape, p)) or rref(a, p),
        )
        got = modular_members(engine, sub)
        singular = engine.tier_counts["singular"]
        assert 0 < singular < 60 and got.count(None) == singular
        assert engine.tier_counts["modular"] == 60 - singular
        assert got == oracle.members_many(sub.tolist())
        p = spansearch._PRIME
        assert calls == [((60, 18, 18), p), ((60 - singular, 18, asche.rank), p)]

    def test_first_round_primes_count_as_votes(self, monkeypatch):
        # lines 0 and 1 have a Gram block of det P0, a prime of the old
        # residue pool; line 2 is their sum.  The modular tier decides
        # the draw with its one prime: the Gram block, then the load
        # rows on the basis (lines 0, 1 and 3) of the rank-3 set
        vectors = [
            (1, 0, 0, 0, 0, 0),
            (0, *P0_VECTOR, 0),
            (1, *P0_VECTOR, 0),
            (0, 0, 0, 0, 0, 1),
        ]
        engine = span_engine(gram_from_vectors(vectors))
        assert engine.basis == (0, 1, 3)
        calls = []
        rref = spansearch._rref_mod
        monkeypatch.setattr(
            spansearch, "_rref_mod",
            lambda a, p: calls.append((a.shape, p)) or rref(a, p),
        )
        assert modular_members(engine, [[0, 1]]) == [[0, 1, 2]]
        p = spansearch._PRIME
        assert calls == [((1, 2, 2), p), ((1, 2, 3), p)]
        assert engine.tier_counts["modular"] == 1

    def test_det_equal_to_first_prime_is_not_singular(self):
        # lines 0 and 1 have a Gram block of det P0; line 2 is their sum
        vectors = [
            (1, 0, 0, 0, 0, 0),
            (0, *P0_VECTOR, 0),
            (1, *P0_VECTOR, 0),
            (0, 0, 0, 0, 0, 1),
        ]
        m_rows = gram_from_vectors(vectors)
        engine = span_engine(m_rows)
        assert modular_members(engine, [[0, 1], [0, 2]]) == [[0, 1, 2]] * 2
        assert engine.tier_counts["singular"] == 0
        # 3 * (P0 + 1) > 2^27: a draw of three is past the width rule
        assert span_members(engine, [1, 2, 0]) is None
        assert engine.tier_counts["exact"] == 1
        # scaled by 2^31 every draw is past the width rule (det P0 * 2^62)
        wide = [[x << 31 for x in row] for row in m_rows]
        engine, oracle = self.engines(wide)
        for subset in ([0, 1], [1, 2], [0, 1, 2], [3]):
            assert span_members(engine, subset) == oracle.members(subset)
        assert span_members(engine, [0, 1]) == [0, 1, 2]
        assert span_members(engine, [0, 1, 2]) is None
        assert engine.tier_counts["exact"] == 6
