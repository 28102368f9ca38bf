"""Named line-set constructions and design/graph ingestion."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from eqlines import linalg
from eqlines.lineset import LineSet, require_coords, validate
from eqlines._tables import (
    E1_MINUS_E3,
    TAYLOR_OCTADS,
    VEC_C,
    VEC_C1,
    VEC_C2,
)
from eqlines.constructions import (
    TremainColumn,
    _greedy_blocks,
    _octads_in_span,
    from_adjacency,
    g_vector,
    generate_octads,
    srg_check,
    tremain_columns,
)
from eqlines.errors import ConstructionMismatch, MalformedGraph6, NotPSD
from eqlines.spansearch import orthogonal_complement

from oracles import (
    EmptyResult,
    complement_rows,
    count_containing,
    encode_graph6,
    filter_orthogonal,
    from_graph6,
    greedy_octads,
    tremain_inner,
    w3_collinear,
)

F = Fraction
DATA = Path(__file__).parent / "data"


def petersen_adj() -> list[int]:
    adj = [0] * 10
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def cycle_adj(n: int) -> list[int]:
    adj = [0] * n
    for i in range(n):
        j = (i + 1) % n
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


@pytest.fixture(scope="module")
def greedy() -> tuple[int, ...]:
    return greedy_octads()


class TestOctads:
    def test_count_and_block_size(self, octads):
        assert len(octads.masks) == 759
        assert all(m.bit_count() == 8 for m in octads.masks)

    def test_first_block_is_smallest(self, octads):
        assert octads.points(0) == (1, 2, 3, 4, 5, 6, 7, 8)
        assert octads.masks[0] == 0xFF

    def test_every_point_count(self, octads):
        for p in range(1, 25):
            assert count_containing(octads, p) == 253

    def test_every_pair_count(self, octads):
        for p in range(1, 25):
            for q in range(p + 1, 25):
                assert count_containing(octads, p, q) == 77

    def test_five_points_determine_block(self, octads):
        # any 5 points of a block lie in no other block
        first = octads.points(0)
        for five in itertools.combinations(first, 5):
            assert count_containing(octads, *five) == 1

    def test_every_five_points_in_exactly_one_block(self, octads):
        # S(5,8,24): the 759 * 56 five-subsets of the blocks are distinct,
        # so they are all C(24,5) five-subsets of {1,...,24}, once each
        fives = [
            sum(1 << (p - 1) for p in five)
            for i in range(len(octads))
            for five in itertools.combinations(octads.points(i), 5)
        ]
        assert len(fives) == 759 * 56 == math.comb(24, 5)
        assert len(set(fives)) == len(fives)

    def test_search_matches_greedy_scan_in_order(self):
        assert generate_octads.__wrapped__().masks == greedy_octads()

    def test_search_stops_at_the_78th_block(self, greedy):
        drawn: list[int] = []
        design = _octads_in_span(drawn.append(b) or b for b in _greedy_blocks())
        assert design == greedy
        assert tuple(drawn) == greedy[:78]

    def test_short_greedy_prefix_is_refused(self, greedy):
        # the first 78 blocks span the 12-dimensional code; 77 do not
        assert _octads_in_span(greedy[:78]) == greedy
        with pytest.raises(ConstructionMismatch, match="span 11 dimensions"):
            _octads_in_span(greedy[:77])

    @pytest.mark.parametrize("bad", [0, 25, -1])
    def test_count_containing_rejects_points_outside_range(self, octads, bad):
        # the design's masks have 24 bits, so no block holds such a point
        assert all(m >> 24 == 0 for m in octads.masks)
        assert not any(bad in octads.points(i) for i in range(len(octads)))
        with pytest.raises(ValueError, match=r"points must lie in 1\.\.24"):
            count_containing(octads, bad)
        with pytest.raises(ValueError, match=r"points must lie in 1\.\.24"):
            count_containing(octads, 1, bad)

    def test_pairwise_intersections_even_and_small(self, octads):
        masks = octads.masks
        seen = set()
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                c = (masks[i] & masks[j]).bit_count()
                seen.add(c)
        assert seen == {0, 2, 4}

    def test_masks_distinct(self, octads):
        masks = octads.masks
        assert len(set(masks)) == 759

    def test_frozen_fixture_rows_are_blocks(self, octads):
        """Each row of the committed fixture file must be an actual block."""
        mask_set = set(octads.masks)
        rows = [
            tuple(int(tok) for tok in line.split())
            for line in (DATA / "taylor_octads.txt").read_text().splitlines()
            if line.strip()
        ]
        assert len(rows) == 90
        assert tuple(rows) == TAYLOR_OCTADS
        for row in rows:
            m = 0
            for p in row:
                m |= 1 << (p - 1)
            assert m in mask_set


class TestTremainColumns:
    def test_shape(self):
        cols = tremain_columns()
        assert len(cols) == 28
        star_use = [0] * 8
        for c in cols:
            assert sum(abs(x) for x in c.circle) == 3
            star_use[c.star_row] += 1
        assert star_use[1:] == [4] * 7

    def test_unit_norm_and_angle(self):
        cols = tremain_columns()
        for i, a in enumerate(cols):
            assert tremain_inner(a, a) == 1
            for b in cols[i + 1 :]:
                assert abs(tremain_inner(a, b)) == F(1, 5)

    def test_float_model(self):
        """Columns realize unit vectors in R^14: circle entries scaled by
        1/sqrt(5) plus a sqrt(2/5) entry in the star coordinate."""
        cols = tremain_columns()
        s = 1 / math.sqrt(5.0)
        t = math.sqrt(2.0 / 5.0)

        def embed(c: TremainColumn) -> list[float]:
            v = [x * s for x in c.circle] + [0.0] * 7
            v[6 + c.star_row] = t
            return v

        vs = [embed(c) for c in cols]
        for i in range(28):
            for j in range(28):
                dot = sum(a * b for a, b in zip(vs[i], vs[j]))
                assert abs(dot - float(tremain_inner(cols[i], cols[j]))) <= 1e-12

    def test_int_coords_reproduce_inner(self):
        cols = tremain_columns()
        for a in cols:
            ca = a.int_coords()
            assert len(ca) == 21
            for b in cols:
                cb = b.int_coords()
                dot = sum(x * y for x, y in zip(ca, cb))
                assert F(dot, 5) == tremain_inner(a, b)

    def test_validation_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            TremainColumn(circle=(1, 1, 0, 0, 0, 0, 0), star_row=1)
        with pytest.raises(ValueError):
            TremainColumn(circle=(1, 1, 2, 0, 0, 0, 0), star_row=1)
        with pytest.raises(ValueError):
            TremainColumn(circle=(1, 1, 1, 0, 0, 0, 0), star_row=8)


class TestTremain28:
    def test_counts(self, tremain):
        assert tremain.n == 28
        assert tremain.rank == 14
        assert tremain.angle == F(1, 5)

    def test_validates(self, tremain):
        assert validate(tremain).passed

    def test_coords_match_gram(self, tremain):
        coords = tremain.coords
        assert coords is not None and tremain.coords_norm_sq == 5
        for i in range(28):
            for j in range(28):
                dot = sum(a * b for a, b in zip(coords[i], coords[j]))
                assert F(dot, 5) == tremain.gram[i, j]

    def test_alternate_lines_form_basis(self, tremain):
        # the 2nd, 4th, ..., 28th lines (0-based odd indices) are a basis;
        # the complementary alternation is NOT (rank 13)
        odd = list(range(1, 28, 2))
        even = list(range(0, 28, 2))
        assert linalg.rank(tremain.gram.submatrix(odd, odd)) == 14
        assert linalg.rank(tremain.gram.submatrix(even, even)) == 13


class TestGVector:
    def test_entries(self):
        g = g_vector((1, 3, 4, 5, 9, 15, 18, 24))
        assert len(g) == 24
        assert g[0] == -1  # contains 1 but the -4 correction applies
        assert g[2] == 3  # contains 3
        assert g[1] == -1  # omits 2
        assert sum(x * x for x in g) == 80

    def test_norm_constant_over_blocks(self, octads):
        for i in range(0, 759, 37):
            pts = octads.points(i)
            g = g_vector(pts)
            assert sum(x * x for x in g) == (80 if 1 in pts else 112)


class TestTaylor90:
    def test_counts(self, taylor):
        assert taylor.n == 90
        assert taylor.rank == 20
        assert taylor.angle == F(1, 5)

    def test_validates(self, taylor):
        assert validate(taylor).passed

    def test_first_survivor(self, octads, taylor):
        assert TAYLOR_OCTADS[0] == (1, 3, 4, 5, 9, 15, 18, 24)
        assert taylor.coords[0] == g_vector(TAYLOR_OCTADS[0])

    def test_orthogonality_filter_was_applied(self, taylor):
        for g in taylor.coords:
            for v in (VEC_C, VEC_C1, VEC_C2):
                assert sum(a * b for a, b in zip(g, v)) == 0
            assert g[0] == g[1]  # orthogonal to e1 - e2

    def test_gram_from_g_vectors(self, taylor):
        coords = taylor.coords
        assert taylor.coords_norm_sq == 80
        for i in range(0, 90, 9):
            for j in range(0, 90, 7):
                dot = sum(a * b for a, b in zip(coords[i], coords[j]))
                assert F(dot, 80) == taylor.gram[i, j]


class TestAsche72:
    def test_counts(self, asche):
        assert asche.n == 72
        assert asche.rank == 19
        assert asche.angle == F(1, 5)

    def test_validates(self, asche):
        assert validate(asche).passed

    def test_is_principal_submatrix_of_taylor(self, taylor, asche):
        keep = [i for i, row in enumerate(TAYLOR_OCTADS) if 3 not in row]
        assert len(keep) == 72
        for a, i in enumerate(keep):
            assert asche.coords[a] == taylor.coords[i]
            for b, j in enumerate(keep):
                assert asche.gram[a, b] == taylor.gram[i, j]

    def test_equals_restriction_of_taylor(self, taylor, asche):
        keep = [i for i, row in enumerate(TAYLOR_OCTADS) if 3 not in row]
        old = taylor.restrict(keep)
        assert asche.gram.nums == old.gram.nums
        assert asche.gram.den == old.gram.den
        assert asche.rank == old.rank == 19
        assert asche.coords == old.coords
        assert asche.coords_norm_sq == old.coords_norm_sq == 80
        assert asche.angle == old.angle

    def test_equals_orthogonal_filter(self, taylor, asche):
        via_filter = filter_orthogonal(taylor, [E1_MINUS_E3])
        assert via_filter.n == 72
        assert via_filter.gram == asche.gram


class TestFilterOrthogonal:
    """A filter by orthogonality keeps lines through `LineSet.restrict`,
    which carries their coordinates; the tests check that library path."""

    def test_identity_returns_same_object(self, taylor):
        # restricting to every line gives the same set back
        out = taylor.restrict(range(90))
        assert (out.gram, out.angle, out.rank) == (taylor.gram, taylor.angle, 20)
        assert (out.coords, out.coords_norm_sq) == (taylor.coords, 80)

    def test_empty_result(self, taylor):
        ones = (1,) * 24
        with pytest.raises(EmptyResult):
            filter_orthogonal(taylor, [ones])

    def test_requires_coords(self, taylor):
        bare = LineSet.from_gram(taylor.gram, taylor.angle)
        with pytest.raises(ValueError, match="carries no coordinate vectors"):
            require_coords(bare)
        with pytest.raises(ValueError, match="carries no coordinate vectors"):
            orthogonal_complement(bare, [0])

    def test_constraint_length_checked(self, taylor):
        coords = [list(row) for row in taylor.coords]
        coords[5] = coords[5][:-1]
        with pytest.raises(ValueError, match="rows differ in length"):
            LineSet.from_gram(taylor.gram, taylor.angle, coords, 80)

    def test_filtered_set_still_validates(self, taylor):
        # e4 - e5 keeps the lines whose defining point set contains
        # both of the points 4 and 5 or neither
        keep = [i for i, g in enumerate(taylor.coords) if g[3] == g[4]]
        out = taylor.restrict(keep)
        assert 0 < out.n < 90
        report = validate(out)
        assert report.passed
        assert report.checks[-1].name == "coords_match_gram"
        assert keep == [
            i
            for i, row in enumerate(TAYLOR_OCTADS)
            if (4 in row) == (5 in row)
        ]


class TestFromGraph6:
    def test_petersen_third(self):
        data = encode_graph6(10, petersen_adj())
        ls = from_graph6(data, F(1, 3))
        assert ls.n == 10
        assert ls.rank == 5
        assert validate(ls).passed
        # adjacent pairs carry -1/3, non-adjacent +1/3
        adj = petersen_adj()
        for i in range(10):
            for j in range(10):
                if i == j:
                    continue
                want = F(-1, 3) if adj[i] >> j & 1 else F(1, 3)
                assert ls.gram[i, j] == want

    def test_petersen_half_not_psd(self):
        data = encode_graph6(10, petersen_adj())
        with pytest.raises(NotPSD):
            from_graph6(data, F(1, 2))

    def test_malformed_rejected(self):
        with pytest.raises(MalformedGraph6):
            from_graph6(b"", F(1, 3))

    def test_single_vertex(self):
        ls = from_graph6(b"@", F(1, 3))
        assert ls.n == 1 and ls.rank == 1


class TestFromAdjacency:
    def test_petersen_third_puts_minus_third_on_adjacent_pairs(self):
        adj = petersen_adj()
        ls = from_adjacency(10, adj, F(1, 3))
        assert (ls.n, ls.rank) == (10, 5)
        for i in range(10):
            assert ls.gram[i, i] == 1
            for j in range(10):
                if i != j:
                    want = F(-1, 3) if adj[i] >> j & 1 else F(1, 3)
                    assert ls.gram[i, j] == want

    @pytest.mark.parametrize(
        "n, adj, angle",
        [
            (10, petersen_adj(), F(1, 3)),
            (40, complement_rows(40, w3_collinear()), F(1, 5)),
        ],
        ids=["petersen", "w3_complement"],
    )
    def test_complement_rows_give_adjacent_positive_gram(self, n, adj, angle):
        # the Gram of S = 2A - J + I, written entry by entry: adjacent
        # pairs at +angle, the others at -angle
        ls = from_adjacency(n, complement_rows(n, adj), angle)
        for i in range(n):
            assert ls.gram[i, i] == 1
            for j in range(n):
                if i != j:
                    want = angle if adj[i] >> j & 1 else -angle
                    assert ls.gram[i, j] == want

    @pytest.mark.parametrize("rows", [9, 11])
    def test_row_count_must_match_n(self, rows):
        adj = (petersen_adj() + [0])[:rows]
        with pytest.raises(ValueError, match=f"expected 10 adjacency rows, got {rows}"):
            from_adjacency(10, adj, F(1, 3))

    def test_asymmetric_rows_rejected(self):
        # edge 0 -> 1 without 1 -> 0
        with pytest.raises(ValueError, match="not symmetric at \\(0,1\\)"):
            from_adjacency(3, [0b010, 0b000, 0b000], F(1, 3))

    def test_self_loop_rejected(self):
        # row 0 claims a loop at vertex 0 and vertex 2, but row 2 does
        # not claim 0
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            from_adjacency(3, [0b101, 0b000, 0b000], F(1, 3))

    def test_bits_beyond_n_rejected(self):
        # row 0 of a 2-vertex graph claims vertices 1 and 2, and a loop
        with pytest.raises(ValueError, match="row 0 has bits beyond vertex 1"):
            from_adjacency(2, [0b111, 0b001], F(1, 3))
        with pytest.raises(ValueError, match="row 1 has bits beyond vertex 1"):
            from_adjacency(2, [0b10, 0b101], F(1, 3))

    def test_petersen_and_w3_still_build(self):
        assert from_adjacency(10, petersen_adj(), F(1, 3)).rank == 5
        ls = from_adjacency(40, w3_collinear(), F(1, 5))
        assert (ls.n, ls.rank) == (40, 16)


class TestSrgCheck:
    def test_petersen(self):
        assert srg_check(10, petersen_adj()) == (10, 3, 0, 1)

    def test_five_cycle(self):
        assert srg_check(5, cycle_adj(5)) == (5, 2, 0, 1)

    def test_four_cycle(self):
        assert srg_check(4, cycle_adj(4)) == (4, 2, 0, 2)

    def test_complete_graph_none(self):
        n = 5
        adj = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        assert srg_check(n, adj) is None

    def test_empty_graph_none(self):
        assert srg_check(4, [0, 0, 0, 0]) is None
        assert srg_check(0, []) is None

    def test_irregular_none(self):
        # path on 3 vertices: degrees 1, 2, 1
        adj = [0b010, 0b101, 0b010]
        assert srg_check(3, adj) is None

    def test_regular_but_not_strongly(self):
        # 6-cycle: adjacent pairs share 0, but non-adjacent pairs share
        # 2 (antipodal) or 1 (distance 2) -> not strongly regular
        assert srg_check(6, cycle_adj(6)) is None
