"""Exact linear algebra: ranks, determinants, inverses, PSD, kernels."""

import re
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from eqlines import linalg
from eqlines.errors import NotSymmetric, SingularMatrix
from eqlines.linalg import RatMatrix, format_rational, parse_rational
from eqlines.spansearch import SplitMix64
from oracles import det, identity, inverse, matmul, matvec, solve, transpose

F = Fraction


def rand_int_matrix(rng, rows, cols, lo=-6, hi=6):
    span = hi - lo + 1
    return RatMatrix.from_rows(
        [[lo + rng.below(span) for _ in range(cols)] for _ in range(rows)]
    )


def cofactor_det(m: RatMatrix) -> Fraction:
    n = m.rows
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = F(sign)
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


class TestRational:
    def test_parse_and_format(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-7") == F(-7)
        assert parse_rational(" 1/5 ") == F(1, 5)
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(5)) == "5"
        assert format_rational(F(-2, 6)) == "-1/3"

    def test_parse_rejects_junk(self):
        for bad in ("", "1/0", "-3/00", "a/b", "1.5"):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestRatMatrix:
    def test_shape_and_indexing(self):
        m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert transpose(m)[2, 1] == 6

    def test_immutable(self):
        m = identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_submatrix_and_matmul(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert m.submatrix([1], [0]) == RatMatrix.from_rows([[3]])
        prod = matmul(m, identity(2))
        assert prod == m
        assert matvec(m, [1, 1]) == (3, 7)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", "2", True, False, None])
    def test_only_fractions_and_integers_accepted(self, bad):
        # a float would be stored as its binary value, a string parsed
        # and a bool read as 0/1: each is refused, naming the entry
        with pytest.raises(ValueError, match=r"entry 2 .*" + re.escape(repr(bad))):
            RatMatrix(2, 2, [1, F(1, 2), bad, 0])
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            RatMatrix.from_rows([[bad]])

    def test_numpy_integers_accepted(self):
        m = RatMatrix.from_rows([[np.int64(3), np.int32(-2)], [np.uint8(7), 1]])
        assert m == RatMatrix.from_rows([[3, -2], [7, 1]])
        assert type(m[1, 0]) is Fraction and type(m.nums[2]) is int

    def test_canonical_form(self):
        m = RatMatrix.from_rows([[F(1, 2), F(-1, 3)], [0, 2]])
        assert (m.nums, m.den) == ((3, -2, 0, 12), 6)
        same = RatMatrix.from_integers(2, 2, [-9, 6, 0, -36], -18)
        assert (same.nums, same.den) == (m.nums, m.den)
        assert same == m and hash(same) == hash(m)
        assert m.entries == (F(1, 2), F(-1, 3), F(0), F(2))
        assert m.submatrix([0], [1]).den == 3
        assert m.submatrix([1], [0, 1]) == RatMatrix.from_integers(1, 2, [0, 2], 1)
        with pytest.raises(ValueError):
            RatMatrix.from_integers(1, 1, [1], 0)
        with pytest.raises(ValueError):
            RatMatrix.from_integers(1, 2, [1], 1)


class TestRank:
    def test_examples(self):
        assert linalg.rank(identity(4)) == 4
        assert linalg.rank(RatMatrix.from_rows([[0, 0], [0, 0]])) == 0
        assert linalg.rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert linalg.rank(RatMatrix.from_rows([[F(1, 3), F(1, 7)]])) == 1

    def test_rank_transpose_invariant(self):
        rng = SplitMix64(101)
        for _ in range(25):
            m = rand_int_matrix(rng, 2 + rng.below(4), 2 + rng.below(4))
            assert linalg.rank(m) == linalg.rank(transpose(m))

    def test_rank_of_outer_products(self):
        # A = U @ V with inner dimension r has rank at most r
        rng = SplitMix64(202)
        for _ in range(25):
            r = 1 + rng.below(3)
            n = r + 1 + rng.below(3)
            u = rand_int_matrix(rng, n, r)
            v = rand_int_matrix(rng, r, n)
            assert linalg.rank(matmul(u, v)) <= r

    def test_duplicated_row_does_not_raise_rank(self):
        m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        dup = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert linalg.rank(dup) == linalg.rank(m)


class TestDet:
    def test_examples(self):
        assert det(identity(3)) == 1
        assert det(RatMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert det(RatMatrix.from_rows([[1, 2], [2, 4]])) == 0
        assert det(RatMatrix.from_rows([[F(1, 2)]])) == F(1, 2)

    def test_matches_cofactor_expansion(self):
        rng = SplitMix64(303)
        for _ in range(20):
            n = 1 + rng.below(4)
            m = rand_int_matrix(rng, n, n)
            assert det(m) == cofactor_det(m)

    def test_multiplicative(self):
        rng = SplitMix64(404)
        for _ in range(15):
            n = 1 + rng.below(4)
            a = rand_int_matrix(rng, n, n)
            b = rand_int_matrix(rng, n, n)
            assert det(matmul(a, b)) == det(a) * det(b)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(RatMatrix.from_rows([[1, 2]]))


class TestSolveInverse:
    def test_inverse_identity(self):
        rng = SplitMix64(505)
        count = 0
        while count < 15:
            n = 1 + rng.below(4)
            a = rand_int_matrix(rng, n, n)
            if det(a) == 0:
                continue
            count += 1
            assert matmul(a, inverse(a)) == identity(n)

    def test_solve(self):
        a = RatMatrix.from_rows([[2, 1], [1, 3]])
        x = solve(a, [F(5), F(10)])
        assert matvec(a, x) == (F(5), F(10))

    def test_singular_raises(self):
        singular = RatMatrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrix):
            inverse(singular)
        with pytest.raises(SingularMatrix):
            solve(singular, [1, 1])


class TestPSD:
    def test_simple_cases(self):
        assert linalg.psd_basis(identity(3)) == (0, 1, 2)
        assert linalg.psd_basis(RatMatrix.from_rows([[0, 0], [0, 0]])) == ()
        assert linalg.psd_basis(RatMatrix.from_rows([[1, 0], [0, 0]])) == (0,)
        assert linalg.psd_basis(RatMatrix.from_rows([[0, 0], [0, 1]])) == (1,)
        assert linalg.psd_basis(RatMatrix.from_rows([[1, 0], [0, -1]])) is None
        assert linalg.psd_basis(RatMatrix.from_rows([[0, 1], [1, 0]])) is None
        # boundary: [[1,1],[1,1]] is PSD (eigenvalues 2, 0)
        assert linalg.psd_basis(RatMatrix.from_rows([[1, 1], [1, 1]])) == (0,)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.psd_basis(RatMatrix.from_rows([[1, 2], [0, 1]]))
        with pytest.raises(NotSymmetric):
            linalg.psd_basis(RatMatrix.from_rows([[1, 2]]))

    def test_gram_matrices_are_psd(self):
        rng = SplitMix64(606)
        for _ in range(20):
            n = 1 + rng.below(4)
            k = 1 + rng.below(4)
            b = rand_int_matrix(rng, k, n)
            g = matmul(transpose(b), b)
            basis = linalg.psd_basis(g)
            assert len(basis) == linalg.rank(g)
            assert basis == tuple(sorted(basis))
            assert linalg.rank(g.submatrix(basis, basis)) == len(basis)

    def test_shifted_gram_matrices_are_not_psd(self):
        rng = SplitMix64(707)
        for _ in range(20):
            n = 1 + rng.below(4)
            b = rand_int_matrix(rng, n, n)
            g = matmul(transpose(b), b)
            shift = sum(g[i, i] for i in range(n)) + 1
            rows = [
                [g[i, j] - (shift if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            assert linalg.psd_basis(RatMatrix.from_rows(rows)) is None

    def test_rational_entries(self):
        g = RatMatrix.from_rows(
            [[1, F(1, 5), -F(1, 5)], [F(1, 5), 1, F(1, 5)], [-F(1, 5), F(1, 5), 1]]
        )
        assert linalg.psd_basis(g) == (0, 1, 2)


class TestKernel:
    def test_zero_kernel(self):
        assert linalg.kernel(identity(3)) == []

    def test_dimension_and_membership(self):
        rng = SplitMix64(808)
        for _ in range(20):
            rows = 1 + rng.below(4)
            cols = 1 + rng.below(5)
            m = rand_int_matrix(rng, rows, cols)
            basis = linalg.kernel(m)
            assert len(basis) == cols - linalg.rank(m)
            for vec in basis:
                assert matvec(m, vec) == (F(0),) * rows

    def test_primitive_integer_vectors(self):
        from math import gcd

        m = RatMatrix.from_rows([[F(1, 2), F(1, 3), 0]])
        for vec in linalg.kernel(m):
            ints = [int(x) for x in vec]
            assert all(Fraction(i) == x for i, x in zip(ints, vec))
            assert gcd(*ints) == 1
