"""Acceptance gate: one test per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v` to get one PASS/FAIL line
per criterion.  Tolerances are pinned here and nowhere else:

  * float-oracle comparisons: 1e-12 (criterion 3), 1e-9 (criterion 9d)
  * runtime ceilings: 30 s (criterion 1), 60 s (criterion 4),
    600 s single-threaded (criterion 5)

Criterion 8 needs an externally supplied strongly-regular-graph file
(set EQLINES_SRG344 or drop it at tests/data/srg_344_168_92_72.g6); it
is skipped, never failed, when the file is absent.
"""

import itertools
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eqlines import _intops, linalg, spansearch
from eqlines._tables import TAYLOR_OCTADS
from eqlines.cli import main
from eqlines.constructions import (
    asche_72,
    from_adjacency,
    g_vector,
    generate_octads,
    srg_check,
    taylor_90,
    tremain_28,
    tremain_columns,
)
from eqlines.errors import NotPSD, NotSymmetric, SingularMatrix
from eqlines.graph6 import parse_graph6
from eqlines.lineset import (
    LineSet,
    SignMatrix,
    _rank_and_basis,
    from_sign_matrix,
    relative_bound,
    validate,
)
from eqlines.linalg import RatMatrix
from eqlines.maxclique import SimpleGraph, max_clique
from eqlines.saturation import (
    build_compatibility_graph,
    check_saturated,
    enumerate_candidates,
    line_pattern_indices,
    select_basis,
    verify_nonbasis_cover,
)
from eqlines.spansearch import (
    SplitMix64,
    _draw_block,
    extract_sublineset,
    random_search,
    span_closure,
)
from oracles import (
    FractionRatMatrix,
    _exact_array,
    _pattern_block,
    block_unit_patterns,
    candidate_coeffs,
    complement_rows,
    count_containing,
    direct_unit_patterns,
    enumerate_range_batch,
    exact_members,
    fraction_enumerate_candidates,
    lcm_compatibility_graph,
    is_psd,
    mcq_max_clique,
    PerDrawSpanEngine,
    _det_mod_many,
    fraction_integer_scaled,
    fraction_inverse,
    fraction_kernel,
    fraction_scaled_candidate_matrix,
    graph_from_edges,
    greedy_span_basis,
    inverse,
    matvec,
    pairwise_hits,
    psd_by_minors,
    residue_members,
    sample_subset,
    sign_patterns,
    span_members,
    span_members_many,
    w3_collinear,
)

F = Fraction

# documented master seed for the randomized-search criterion (7); if a
# code change ever invalidates it, rerun the search, commit the new seed
# here, and record the run log alongside — the 56-closure assertion
# itself must not change
SEARCH_MASTER_SEED = 0
SEARCH_RUNS = 5000

EVEN_BASIS_0B = list(range(1, 28, 2))  # lines 2, 4, ..., 28 in 1-based labels
BASIS_J_1B = (6, 7, 13, 19, 21, 24, 27, 34, 43, 45, 48, 52, 57, 61, 66, 70, 74, 80, 82, 89)


def test_criterion_1_octad_generator():
    """759 octads, first {1..8}, point in 253, intersections in {0,2,4}."""
    start = time.perf_counter()
    design = generate_octads.__wrapped__()  # defeat the cache for timing
    elapsed = time.perf_counter() - start

    assert len(design) == 759
    assert design.points(0) == (1, 2, 3, 4, 5, 6, 7, 8)
    for p in range(1, 25):
        assert count_containing(design, p) == 253
    masks = design.masks
    sizes = {
        (masks[i] & masks[j]).bit_count()
        for i in range(759)
        for j in range(i + 1, 759)
    }
    assert sizes == {0, 2, 4}
    assert elapsed < 30.0, f"octad generation took {elapsed:.1f}s (budget 30s)"


def test_criterion_2_taylor_and_asche():
    """taylor_90: 90 lines = frozen table rows, rank 20; asche_72: the 72
    rows without point 3, rank 19.  All equalities exact."""
    taylor = taylor_90()
    assert taylor.n == 90
    assert taylor.rank == 20
    assert taylor.angle == F(1, 5)
    assert validate(taylor).passed
    assert len(TAYLOR_OCTADS) == 90
    for i, row in enumerate(TAYLOR_OCTADS):
        assert taylor.coords[i] == g_vector(row)

    design_masks = set(generate_octads().masks)
    for row in TAYLOR_OCTADS:
        m = 0
        for p in row:
            m |= 1 << (p - 1)
        assert m in design_masks

    asche = asche_72()
    assert asche.n == 72
    assert asche.rank == 19
    assert validate(asche).passed
    discarded = [row for row in TAYLOR_OCTADS if 3 in row]
    assert len(discarded) == 18
    kept = [i for i, row in enumerate(TAYLOR_OCTADS) if 3 not in row]
    for a, i in enumerate(kept):
        assert asche.coords[a] == taylor.coords[i]


def test_criterion_3_tremain_against_float_oracle():
    """tremain_28: 28 lines, rank 14, validate passes; exact Gram within
    1e-12 of the floating-point model (entries 1/sqrt(5), sqrt(2/5))."""
    ls = tremain_28()
    assert ls.n == 28
    assert ls.rank == 14
    assert ls.angle == F(1, 5)
    assert validate(ls).passed

    circle_entry = 0.4472135954999579  # 1/sqrt(5)
    star_entry = 0.6324555320336759  # sqrt(2/5)
    floats = []
    for col in tremain_columns():
        v = [x * circle_entry for x in col.circle] + [0.0] * 7
        v[6 + col.star_row] = star_entry
        floats.append(v)
    for i in range(28):
        for j in range(28):
            approx = sum(a * b for a, b in zip(floats[i], floats[j]))
            assert abs(approx - float(ls.gram[i, j])) <= 1e-12


def test_criterion_4_saturation_rank_14():
    """Even-label basis on the 28-line set: 378 candidates, clique 14,
    N = 28, saturated.  Budget 60 s."""
    start = time.perf_counter()
    report = check_saturated(tremain_28(), basis_override=EVEN_BASIS_0B)
    elapsed = time.perf_counter() - start

    assert report.candidate_count == 378
    assert report.clique_number == 14
    assert report.clique_optimal is True
    assert report.n_bound == 28
    assert report.saturated is True
    assert elapsed < 60.0, f"saturation took {elapsed:.1f}s (budget 60s)"


def test_criterion_5_saturation_rank_20():
    """Named 20-line basis on the 90-line set: the 2^19 sign patterns
    yield exactly 70 candidates, equal (up to global sign) to the 70
    non-basis lines; N = 90, saturated.  Budget 600 s single-threaded."""
    taylor = taylor_90()
    basis = [i - 1 for i in BASIS_J_1B]
    start = time.perf_counter()
    cands = enumerate_candidates(taylor, basis, threads=1)
    report = check_saturated(taylor, basis_override=basis)
    elapsed = time.perf_counter() - start

    assert report.total_patterns == 1 << 19
    assert len(cands) == 70
    mapping = line_pattern_indices(taylor, basis)
    assert len(mapping) == 70  # every non-basis line realizes a candidate
    assert set(cands.patterns) == set(mapping.values())
    assert report.candidate_count == 70
    assert report.clique_number == 70
    assert report.n_bound == 90
    assert report.saturated is True
    assert elapsed < 600.0, f"saturation took {elapsed:.1f}s (budget 600s)"


def test_criterion_6_relative_bounds():
    """Floors 288, 246, 213, 187 at alpha = 1/7 for ranks 42..39, and
    the alpha = 1/5 sanity values 96 and 76; library and CLI agree."""
    seventh = F(1, 7)
    for rank, floor in ((42, 288), (41, 246), (40, 213), (39, 187)):
        value = relative_bound(rank, seventh)
        assert value.numerator // value.denominator == floor
    assert relative_bound(20, F(1, 5)) == 96
    assert relative_bound(19, F(1, 5)) == 76

    assert main(["bound", "40", "1/7", "--json"]) == 0
    assert main(["bound", "20", "1/5"]) == 0


def test_criterion_7_randomized_span_search(capsys):
    """5000 draws of 18 lines from the 72-line set (documented master
    seed): at least one closure of 56 lines at rank 18; the extracted
    set validates and is reported saturated."""
    asche = asche_72()
    summary = random_search(
        asche, target_rank=18, runs=SEARCH_RUNS, seed=SEARCH_MASTER_SEED
    )
    hits = [r for r in summary.run_log if r.closure_size == 56]
    assert hits, (
        f"no 56-line closure in {SEARCH_RUNS} runs of master seed "
        f"{SEARCH_MASTER_SEED}; histogram: {sorted(summary.histogram.items())}"
    )
    best = summary.best
    assert best.closure_size == 56
    assert best.rank == 18

    sub = extract_sublineset(asche, best.closure)  # raises if invalid
    assert sub.n == 56
    assert sub.rank == 18
    report = check_saturated(sub)
    assert report.saturated is True

    # keep the frozen values visible in the -v log
    print(
        f"\nseed {SEARCH_MASTER_SEED}: first 56-closure at run "
        f"{hits[0].index}; {len(hits)}/{SEARCH_RUNS} runs reach 56; "
        f"{summary.histogram.get(0, 0)} draws were rank-deficient"
    )


def _srg344_path() -> Path | None:
    env = os.environ.get("EQLINES_SRG344")
    if env:
        return Path(env)
    bundled = Path(__file__).parent / "data" / "srg_344_168_92_72.g6"
    return bundled if bundled.exists() else None


def test_criterion_8_sign_rule_on_w3_complement():
    """The criterion-8 reading on a small analogue.  The complement of
    W(3)'s collinearity graph is an SRG(40,27,18,18) with eigenvalues
    27, 3 (x15) and -3 (x24).  Under `from_adjacency`'s S = J - I - 2A,
    I + S/5 has the eigenvalue -2, so loading refuses it; under
    S = 2A - J + I, which is `from_adjacency` of the complement rows
    (the collinearity rows), it has the eigenvalues 4, 12/5 (x15) and
    0 (x24): 40 lines at rank 16."""
    adj = complement_rows(40, w3_collinear())
    assert srg_check(40, adj) == (40, 27, 18, 18)
    with pytest.raises(NotPSD):
        from_adjacency(40, adj, F(1, 5))
    ls = from_adjacency(40, complement_rows(40, adj), F(1, 5))
    assert (ls.n, ls.rank) == (40, 16)
    assert validate(ls).passed
    assert all(
        ls.gram[i, j] == (F(1, 5) if adj[i] >> j & 1 else F(-1, 5))
        for i in range(40) for j in range(40) if i != j
    )


def test_table_d16_w3_lines_are_maximal():
    """The d = 16 cell of the paper's table: the collinearity graph of
    W(3) (`w3_collinear`), read by `from_adjacency` at 1/5, is 40
    lines at rank 16.  Over the default basis there are K = 940
    candidates and 107,263 compatible pairs (both depend on the form and
    the point order, which fix the basis).  The 24 non-basis lines are a
    clique of candidates, and no candidate is adjacent to all of them,
    so no line extends the set: it is maximal.  The clique stage, which
    proves omega = 24 (saturation), is left out for its time."""
    ls = from_adjacency(40, w3_collinear(), F(1, 5))
    assert ls.rank == 16
    assert validate(ls).passed
    basis = select_basis(ls)
    cands = enumerate_candidates(ls, basis)
    graph = build_compatibility_graph(cands, ls, basis)
    assert (len(cands), graph.edge_count()) == (940, 107263)
    cover = verify_nonbasis_cover(ls, basis, cands, graph)
    assert len(cover) == 24
    common = (1 << len(cands)) - 1
    for v in cover:
        common &= graph.adj[v]
    assert common == 0


def test_criterion_8_srg_344_lines():
    """With a user-supplied SRG(344,168,92,72) graph: 344 lines at
    alpha 1/7 validate at rank 43, and a 2000-run rank-42 search
    reaches a closure of at least 200 lines.

    The graph has eigenvalues 168, 24 (x43) and -4 (x300).  Under
    `from_adjacency`'s S = J - I - 2A, I + S/7 has the eigenvalue -6, so
    the lines are read with S = 2A - J + I, `from_adjacency` of the
    complement rows, whose I + S/7 has the eigenvalues 8 (x43) and 0: a
    PSD Gram of rank 43."""
    path = _srg344_path()
    if path is None or not path.exists():
        pytest.skip(
            "no SRG(344,168,92,72) graph6 file supplied "
            "(set EQLINES_SRG344 or add tests/data/srg_344_168_92_72.g6)"
        )
    n, adj = parse_graph6(path.read_bytes())
    assert srg_check(n, adj) == (344, 168, 92, 72), (
        "supplied graph is not an SRG(344,168,92,72)"
    )
    ls = from_adjacency(n, complement_rows(n, adj), F(1, 7))
    assert ls.n == 344
    assert ls.rank == 43
    assert validate(ls).passed

    summary = random_search(
        ls, target_rank=42, runs=2000, seed=SEARCH_MASTER_SEED
    )
    assert summary.best is not None
    assert summary.best.closure_size >= 200, (
        f"best closure {summary.best.closure_size} < 200; "
        f"histogram: {sorted(summary.histogram.items())}"
    )


# --------------------------------------------------------------------------
# criterion 9: property suites against independent oracles
# --------------------------------------------------------------------------


def _brute_force_omega(g: SimpleGraph) -> int:
    best = 0

    def rec(pool: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        v = pool
        while v:
            low = v & -v
            i = low.bit_length() - 1
            v ^= low
            rec(pool & g.adj[i] & ~((1 << (i + 1)) - 1), size + 1)

    rec((1 << g.n) - 1, 0)
    return best


def _random_graph(rng: SplitMix64, n: int, density_pct: int) -> SimpleGraph:
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < density_pct:
                edges.append((i, j))
    return graph_from_edges(n, edges)


def test_criterion_9a_max_clique_vs_brute_force():
    """200 random graphs on up to 20 vertices: solver size equals the
    brute-force clique number and every witness is a real clique."""
    rng = SplitMix64(9001)
    for trial in range(200):
        n = 1 + rng.below(20)
        g = _random_graph(rng, n, 10 + rng.below(81))
        res = max_clique(g)
        assert res.optimal
        assert res.size == _brute_force_omega(g)
        assert len(res.witness) == res.size
        for a, b in itertools.combinations(res.witness, 2):
            assert g.adj[a] >> b & 1


def _random_low_rank_subset(rng: SplitMix64, source, rank: int) -> list[int]:
    """A random subset of `rank` lines with invertible Gram block."""
    while True:
        picked = sorted(rng.below(source.n) for _ in range(rank))
        if len(set(picked)) != rank:
            continue
        block = source.gram.submatrix(picked, picked)
        if linalg.rank(block) == rank:
            return picked


def test_criterion_9b_candidates_vs_sign_system_oracle():
    """Candidate enumeration on 25 random rank 5-7 equiangular sets that
    carry non-basis lines, so that every draw keeps candidates, agrees
    with solving all 2^(d-1) sign systems in exact arithmetic.  Each set
    is the span closure, larger than the draw, of a random draw of the
    span search in tremain28, taylor90 or asche72; its own non-basis
    lines are candidates, so K > 0 (below rank 5, R(d, 1/5) < d + 1
    leaves no room for a candidate)."""
    rng = SplitMix64(9002)
    sources = [tremain_28(), taylor_90(), asche_72()]
    for trial in range(25):
        source = sources[trial % 3]
        rank = 5 + rng.below(3)  # 5..7
        closures = []
        while not closures:
            search = random_search(source, rank, 2000, rng.next64())
            closures = [r.closure for r in search.run_log if r.closure_size > rank]
        ls = source.restrict(closures[rng.below(len(closures))])
        basis = select_basis(ls)
        d = len(basis)
        assert d == rank < ls.n
        cands = enumerate_candidates(ls, basis)

        # oracle: solve G_B c = alpha*eps for every first-plus pattern,
        # through the Fraction inverse of G_B, and keep exact unit-norm
        # solutions
        gram_b = ls.gram.submatrix(basis, basis)
        inv_b = fraction_inverse(gram_b)
        expected = {}
        for m in range(1 << (d - 1)):
            eps = [1] + [
                -1 if m >> (d - 1 - t) & 1 else 1 for t in range(1, d)
            ]
            coeffs = matvec(inv_b, [ls.angle * e for e in eps])
            norm = sum(
                coeffs[i] * coeffs[j] * gram_b[i, j]
                for i in range(d)
                for j in range(d)
            )
            if norm == 1:
                expected[m] = coeffs
        got = dict(zip(list(cands.patterns), candidate_coeffs(cands)))
        assert len(got) >= ls.n - d
        assert got == expected


def test_criterion_9c_span_closure_vs_rank_oracle():
    """Projection-criterion closures match the rank criterion on 100
    random full-rank subsets of the 90-line set."""
    taylor = taylor_90()
    rng = SplitMix64(9003)
    done = 0
    while done < 100:
        k = 2 + rng.below(5)  # 2..6
        picked = sorted(set(rng.below(90) for _ in range(k)))
        block = taylor.gram.submatrix(picked, picked)
        if linalg.rank(block) != len(picked):
            continue
        done += 1
        got = span_closure(taylor, picked)
        want = []
        for j in range(90):
            ext = sorted(set(picked) | {j})
            sub = taylor.gram.submatrix(ext, ext)
            if linalg.rank(sub) == len(picked):
                want.append(j)
        assert got == want


def test_criterion_9d_psd_vs_eigenvalue_oracle():
    """Exact PSD decisions match numpy eigenvalues at 1e-9, skipping
    numerically boundary cases the float oracle cannot decide."""
    rng = SplitMix64(9004)
    checked = 0
    for trial in range(60):
        n = 1 + rng.below(7)
        b = [[rng.below(11) - 5 for _ in range(n)] for _ in range(n)]
        if trial % 2:
            # Gram matrices: PSD by construction
            m = [
                [
                    F(sum(b[k][i] * b[k][j] for k in range(n)), 4)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        else:
            sym = [
                [F(b[i][j] + b[j][i], 3) for j in range(n)] for i in range(n)
            ]
            m = sym
        mat = RatMatrix.from_rows(m)
        exact = linalg.psd_basis(mat) is not None
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in m]))
        lo = float(eigs.min())
        if abs(lo) < 1e-9:
            continue  # boundary: the float oracle is not trustworthy
        checked += 1
        assert exact == (lo > -1e-9)
    assert checked >= 30


def _random_rational_entries(rng: SplitMix64) -> tuple[int, int, list[Fraction]]:
    """Seeded rows x cols rational matrix (0..6 each, so 0x0 and empty
    shapes occur) of rank at most k, as (rows, cols, row-major entries):
    a product of random rational factors with an inner dimension k,
    sometimes with a row or column zeroed."""
    rows, cols = rng.below(7), rng.below(7)
    if rng.below(2):
        cols = rows  # square: inverse is compared too
    k = rng.below(max(rows, cols) + 1)
    u = [[F(rng.below(13) - 6, 1 + rng.below(4)) for _ in range(k)]
         for _ in range(rows)]
    v = [[F(rng.below(13) - 6, 1 + rng.below(3)) for _ in range(cols)]
         for _ in range(k)]
    m = [[sum((u[i][t] * v[t][j] for t in range(k)), F(0)) for j in range(cols)]
         for i in range(rows)]
    if rows and cols and rng.below(3) == 0:
        zero = rng.below(rows)
        m[zero] = [F(0)] * cols
        zero = rng.below(cols)
        for row in m:
            row[zero] = F(0)
    return rows, cols, [x for row in m for x in row]


def _random_rational_matrix(rng: SplitMix64) -> RatMatrix:
    return RatMatrix(*_random_rational_entries(rng))


def test_criterion_9e_fraction_free_vs_fraction_oracle():
    """rank, inverse and kernel from the one fraction-free Gauss-Jordan
    routine equal the Fraction Gauss-Jordan oracles on 400 seeded random
    rational matrices (non-square, rank-deficient, singular, with zero
    rows and columns, with negative last pivots, and 0x0), and the
    integer candidate system (W, L, T) equals the Fraction path on the
    shipped sets and bases."""
    rng = SplitMix64(9005)
    negative_pivot_kernels = singular = inverted = 0
    for trial in range(400):
        m = _random_rational_matrix(rng)
        want = fraction_kernel(m)
        assert linalg.kernel(m) == want
        assert linalg.rank(m) == m.cols - len(want)
        rows, _ = linalg.integer_scaled(m)
        if want and linalg._fraction_free_rref(rows)[1] < 0:
            negative_pivot_kernels += 1
        if m.rows == m.cols:
            try:
                inv = fraction_inverse(m)
            except SingularMatrix:
                singular += 1
                with pytest.raises(SingularMatrix):
                    inverse(m)
            else:
                inverted += 1
                assert inverse(m) == inv
    assert inverse(RatMatrix(0, 0, [])) == RatMatrix(0, 0, [])
    assert min(negative_pivot_kernels, singular, inverted) >= 20

    tremain, taylor, asche = tremain_28(), taylor_90(), asche_72()
    best = random_search(asche, 18, 12, SEARCH_MASTER_SEED).best
    best56 = extract_sublineset(asche, best.closure)
    assert best56.n == 56
    cases = [
        (tremain, None),
        (tremain, EVEN_BASIS_0B),
        (taylor, [i - 1 for i in BASIS_J_1B]),
        (taylor, None),
        (asche, None),
        (best56, None),
    ]
    for ls, basis in cases:
        basis = select_basis(ls, basis)
        want = fraction_scaled_candidate_matrix(ls.gram, basis, ls.angle)
        assert _intops.scaled_candidate_matrix(ls.gram, basis, ls.angle) == want


def _symmetric_variants(n: int, ents: list[Fraction]) -> list[list[Fraction]]:
    """M + M^T (often indefinite) and M^T M (PSD) of a square M."""
    m = [ents[i * n:(i + 1) * n] for i in range(n)]
    return [
        [m[i][j] + m[j][i] for i in range(n) for j in range(n)],
        [sum((m[k][i] * m[k][j] for k in range(n)), F(0))
         for i in range(n) for j in range(n)],
    ]


def test_criterion_9g_numerators_vs_fraction_matrix_oracle():
    """`RatMatrix` (integer numerators over one least denominator) equals
    the Fraction-tuple oracle `FractionRatMatrix` on 300 seeded random
    rational matrices (0x0, 1x1, non-square, mixed denominators, rank
    deficient) and their symmetric variants, built from `Fraction`s,
    from rows and by `from_integers` over a non-least denominator:
    entries, rows, [i, j], submatrices, ==/hash across the routes,
    `integer_scaled`, rank, psd_basis, inverse and kernel."""
    rng = SplitMix64(9007)
    seen = dict.fromkeys(["0x0", "1x1", "non_square", "mixed", "psd",
                          "not_psd", "singular", "inverted"], 0)
    for trial in range(300):
        rows, cols, ents = _random_rational_entries(rng)
        if trial < 10:
            rows = cols = trial % 2  # 0x0 and 1x1 for sure
            ents = [F(rng.below(13) - 6, 1 + rng.below(5))] * rows
        cases = [(rows, cols, ents)]
        if rows == cols:
            cases += [(rows, rows, e) for e in _symmetric_variants(rows, ents)]
        for r, c, e in cases:
            old = FractionRatMatrix(r, c, e)
            new = RatMatrix(r, c, e)
            least = math.lcm(*(x.denominator for x in e))
            den = (1 + rng.below(5)) * least * (1 - 2 * rng.below(2))
            routes = [RatMatrix.from_integers(r, c, [int(x * den) for x in e], den)]
            if r or not c:
                routes.append(RatMatrix.from_rows([e[i * c:(i + 1) * c]
                                                   for i in range(r)]))
            for other in routes:
                assert other == new and hash(other) == hash(new)
            assert new.den == least
            assert new.entries == old.entries
            assert all(type(x) is Fraction for x in new.entries)
            for i in range(r):
                assert new.row(i) == old.row(i)
                for j in range(c):
                    assert new[i, j] == old[i, j]
            if r and c:
                ri = [rng.below(r) for _ in range(rng.below(r + 2))]
                ci = [rng.below(c) for _ in range(rng.below(c + 2))]
                assert new.submatrix(ri, ci).entries == old.submatrix(ri, ci).entries
                assert new.submatrix(ri, ci) == RatMatrix(
                    len(ri), len(ci), old.submatrix(ri, ci).entries)
            assert linalg.integer_scaled(new) == fraction_integer_scaled(old)
            want_kernel = fraction_kernel(old)
            assert linalg.kernel(new) == want_kernel
            assert linalg.rank(new) == c - len(want_kernel)
            assert new.is_symmetric() == old.is_symmetric()
            if old.is_symmetric():
                psd = psd_by_minors(old)
                basis = linalg.psd_basis(new)
                assert (basis is not None) == psd
                if psd:
                    assert len(basis) == linalg.rank(new)
                seen["psd" if psd else "not_psd"] += 1
            if r == c:
                try:
                    inv = fraction_inverse(old)
                except SingularMatrix:
                    seen["singular"] += 1
                    with pytest.raises(SingularMatrix):
                        inverse(new)
                else:
                    seen["inverted"] += 1
                    assert inverse(new).entries == inv.entries
            seen["0x0"] += r == c == 0
            seen["1x1"] += r == c == 1
            seen["non_square"] += r != c
            seen["mixed"] += len({x.denominator for x in e} - {1}) >= 2
    assert min(seen.values()) >= 20, seen


def _dependent_group(rng: SplitMix64, d: int, nullity: int, ambient: int,
                     coord: int) -> list[list[int]]:
    """d integer vectors spanning exactly d - nullity dimensions (almost
    surely): random ones, then integer combinations of them, shuffled."""
    free = [[rng.below(2 * coord + 1) - coord for _ in range(ambient)]
            for _ in range(d - nullity)]
    vecs = list(free)
    for _ in range(nullity):
        c = [rng.below(5) - 2 for _ in free]
        vecs.append([sum(ci * v[j] for ci, v in zip(c, free))
                     for j in range(ambient)])
    for i in range(d - 1, 0, -1):
        j = rng.below(i + 1)
        vecs[i], vecs[j] = vecs[j], vecs[i]
    return vecs


def _near_half_stack(rng: SplitMix64, k: int, d: int):
    """k integer d x d matrices with one 26-bit prime each: entries are
    +-(p-1)/2 or +-(p+1)/2 plus multiples of p, some leading column
    entries are 0 mod p (pivot swaps), and some rows repeat another row
    mod p (singular mod p only)."""
    primes = [spansearch._PRIMES26[rng.below(len(spansearch._PRIMES26))]
              for _ in range(k)]
    stack = []
    for p in primes:
        a = [[(1 - 2 * rng.below(2)) * ((p - 1) // 2 + rng.below(2))
              + p * (rng.below(5) - 2) for _ in range(d)] for _ in range(d)]
        for r in range(rng.below(d + 1)):
            a[r][0] = p * (rng.below(5) - 2)
        if d > 1 and rng.below(2):
            r, s = rng.below(d), rng.below(d)
            if r != s:
                c = 1 + rng.below(p - 1)
                a[r] = [c * x % p + p * (rng.below(3) - 1) for x in a[s]]
        stack.append(a)
    return np.array(stack, dtype=np.int64), primes


def test_criterion_9f_stacked_singular_vs_exact_rank():
    """The stacked modular Gauss-Jordan `_inverse_mod` gives a zero unit
    exactly where the one-prime `_det_mod_many` oracle finds det == 0
    mod p, on 300 seeded matrices with residues near +-p/2, pivot swaps
    and rows dependent mod p only; and the residue tiers
    (`SpanEngine._members_residue`) certify singular exactly the draws
    that `linalg.rank` finds singular (nullities 0-3), for Gram entries
    that are small and at the width rule's edge (d * max|M| near 2^27),
    and leave the det = P0 boundary uncertified; with entries of about
    2^30 and 2^32, past the rule, `members_many` answers every draw by
    the exact tier, singular exactly where `linalg.rank` says."""
    rng = SplitMix64(9006)
    swaps = zero_mod_p = 0
    for _ in range(50):
        d = 1 + rng.below(7)
        stack, primes = _near_half_stack(rng, 6, d)
        want = [_det_mod_many(a[None], p)[0] == 0 for a, p in zip(stack, primes)]
        unit = spansearch._inverse_mod(stack.astype(np.float64), np.array(primes))[1]
        assert (unit == 0).tolist() == want
        zero_mod_p += sum(want)
        swaps += sum(a[0, 0] % p == 0 for a, p in zip(stack, primes))
    assert min(zero_mod_p, swaps) >= 20

    nullities = set()
    # the largest entry scaled up to about 2^30 and 2^32 by an odd
    # factor, so that every bit of the entries stays significant; 2^27
    # stands for the width rule's edge, the largest odd factor that
    # keeps d * max|M| <= 2^27
    for top in (0, 2**30, 2**32, 2**27):
        for _ in range(4):
            d = 2 + rng.below(5)
            groups = [_dependent_group(rng, d, g % 4 if g % 4 < d else 0, 6, 3)
                      for g in range(8)]
            vecs = [v for grp in groups for v in grp]
            gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
            width = top // d if top == 2**27 else top
            scale = width // max(map(max, gram))
            scale = scale - 1 | 1 if top == 2**27 else scale | 1
            m_rows = [[scale * x for x in row] for row in gram]
            engine = spansearch.SpanEngine(m_rows)
            assert engine.max_m > width // 2
            sub = np.arange(len(vecs)).reshape(8, d)
            want = []
            for draw in sub.tolist():
                nullity = d - linalg.rank(RatMatrix.from_rows(
                    [[m_rows[i][j] for j in draw] for i in draw]))
                nullities.add(nullity)
                want.append(nullity > 0)
            if top <= 2**27:
                assert d * engine.max_m <= 2**27
                got = residue_members(engine, sub.tolist())
                assert engine.tier_counts["singular"] == sum(want)
            else:
                got = span_members_many(engine, sub.tolist())
                assert engine.tier_counts["exact"] == 8
            assert [g is None for g in got] == want
    assert nullities == {0, 1, 2, 3}

    p0 = spansearch._PRIMES26[0]
    boundary = spansearch.SpanEngine([[1, 0], [0, p0]])
    assert residue_members(boundary, [[0, 1]]) == [[0, 1]]
    assert boundary.tier_counts["singular"] == 0


def _assert_modular_tier_agrees(m_rows, subsets):
    """The residue tiers, called directly on draws of d lines within the
    width rule (d * max|M| <= 2^27), against `_members_exact` and the
    per-draw oracle; `members_many` must answer wider draws by the exact
    tier.  Returns the answers."""
    engine = spansearch.SpanEngine(m_rows)
    if len(subsets[0]) * engine.max_m <= 2**27:
        got = residue_members(engine, subsets)
    else:
        got = span_members_many(engine, subsets)
        assert engine.tier_counts["exact"] == len(subsets)
    assert got == [exact_members(engine, s) for s in subsets]
    assert got == PerDrawSpanEngine(m_rows).members_many(subsets)
    return got


def test_criterion_9h_stacked_modular_vs_exact_and_per_draw(
    tremain, taylor, asche, monkeypatch
):
    """The residue tiers `SpanEngine._members_residue`, called
    directly on draws within the width rule, and the exact tier that
    `members_many` sends every wider draw to, agree with
    `_members_exact` and the per-draw `PerDrawSpanEngine` oracle: on
    random subsets of the shipped sets, singular and rank-deficient ones
    included; on Gram entries widened by 2^22 (within the rule up to
    d = 6), 2^29 and 2^31; on a draw whose determinant is a pool prime,
    which skips that prime and takes the next; and on draws just over
    either 2^53 budget of the float tier, which the engine sends to the
    residue tiers."""
    rng = SplitMix64(9008)
    kinds = set()
    for ls in (tremain, taylor, asche):
        m_rows = linalg.integer_scaled(ls.gram)[0]
        for d in (3, ls.rank - 1, ls.rank + 1):
            subsets = [sample_subset(rng, ls.n, d) for _ in range(8)]
            got = _assert_modular_tier_agrees(m_rows, subsets)
            kinds |= {(d > ls.rank, g is None) for g in got}
    # every oversized draw is rank-deficient; the others mix both kinds
    assert kinds == {(False, False), (False, True), (True, True)}

    base = linalg.integer_scaled(asche.gram)[0]
    for shift in (22, 29, 31):
        m_rows = [[x << shift for x in row] for row in base]
        for d in (2, 6, 18, 20):
            subsets = [sample_subset(rng, asche.n, d) for _ in range(3)]
            _assert_modular_tier_agrees(m_rows, subsets)

    # lines 0 and 1 have a Gram block of det P0; line 2 is their sum
    p0_vector = (8191, 113, 60, 3)  # squared norm P0
    vectors = [(1, 0, 0, 0, 0, 0), (0, *p0_vector, 0), (1, *p0_vector, 0),
               (0, 0, 0, 0, 0, 1)]
    m_rows = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    rounds = []
    kernel = spansearch._inverse_mod
    monkeypatch.setattr(spansearch, "_inverse_mod",
                        lambda a, p: rounds.append(p.tolist()) or kernel(a, p))
    assert _assert_modular_tier_agrees(m_rows, [[0, 1]]) == [[0, 1, 2]]
    primes = spansearch._PRIMES26
    # the Hadamard bound P0^2 takes 2 primes first: P0 divides det and
    # P1 is the first vote of the 4 the value bound wants, so the draw
    # takes 3 more primes next
    assert rounds == [list(primes[:2]), list(primes[2:5])]
    monkeypatch.undo()

    # draw [0] of M = [[x, 0, x], [0, 1, 0], [x, 0, x]] has det x and
    # adjugate [1], and max_m = x, so both float-tier budgets read
    # x^2 <= 2^53
    x = math.isqrt(2**53)
    for top, tier in ((x, "float"), (x + 1, "modular")):
        m_rows = [[top, 0, top], [0, 1, 0], [top, 0, top]]
        engine = spansearch.SpanEngine(m_rows)
        assert span_members(engine, [0]) == [0, 2]
        assert engine.tier_counts[tier] == 1 and sum(engine.tier_counts.values()) == 1
        assert _assert_modular_tier_agrees(m_rows, [[0], [1], [2]]) == [
            [0, 2], [1], [0, 2]
        ]
        assert _assert_modular_tier_agrees(m_rows, [[0, 1], [0, 2]]) == [
            [0, 1, 2], None
        ]

    # draw [0, 1] of the next M has det -1 and adjugate entries up to
    # max_m = x, so its budget max|B| * (d * max_m)^2 = 4x^3 <= 2^53 holds
    # up to x = 2^17 while max_m * |det| = x stays far inside; row 2 lies
    # in the span, since (A^-1)_00 = 2 - x
    for top, tier in ((2**17, "float"), (2**17 + 1, "modular")):
        m_rows = [[top, top - 1, 1], [top - 1, top - 2, 0], [1, 0, 2 - top]]
        engine = spansearch.SpanEngine(m_rows)
        assert span_members(engine, [0, 1]) == [0, 1, 2]
        assert engine.tier_counts[tier] == 1 and sum(engine.tier_counts.values()) == 1
        assert _assert_modular_tier_agrees(m_rows, [[0, 1], [1, 2]]) == [
            [0, 1, 2], [0, 1, 2]
        ]


def _kernel_sound(blocks: list[list[list[int]]], max_m: int) -> list[bool]:
    """`_kernel_zero` on a list of integer blocks of one size, with every
    block it certifies checked singular by the exact rank."""
    got = spansearch._kernel_zero(np.array(blocks, dtype=np.float64), max_m).tolist()
    for block, zero in zip(blocks, got):
        if zero:
            assert linalg.rank(RatMatrix.from_rows(block)) < len(block), block
    return got


def test_criterion_9k_kernel_certificate_vs_exact_rank(
    tremain, taylor, asche, monkeypatch
):
    """The kernel-vector certificate `_kernel_zero` never certifies a
    block that `linalg.rank` finds nonsingular: on 9f's dependent groups
    (nullities 0-3), on random subsets of the four shipped sets, on
    Gram entries scaled near 2^22 (the same blocks certified), on
    indefinite and near-singular blocks, and under a `solve` that
    returns NaN, zeros or garbage, or raises.  A true kernel vector is
    certified up to the 2^53 budget max|w| * max_m * d and refused one
    past it.  Of the 2274 seed-0 draws on asche72 at rank 18 whose float
    det rounds to 0, it certifies 2253, all singular by residues too."""
    rng = SplitMix64(9011)
    by_nullity = {}
    for _ in range(12):
        d = 2 + rng.below(5)
        groups = [_dependent_group(rng, d, g % 4 if g % 4 < d else 0, 6, 3)
                  for g in range(8)]
        blocks = [[[sum(a * b for a, b in zip(u, v)) for v in grp] for u in grp]
                  for grp in groups]
        max_m = max(abs(x) for blk in blocks for row in blk for x in row)
        for blk, zero in zip(blocks, _kernel_sound(blocks, max_m)):
            nullity = len(blk) - linalg.rank(RatMatrix.from_rows(blk))
            by_nullity.setdefault(nullity, []).append(zero)
    assert set(by_nullity) == {0, 1, 2, 3}
    assert not any(by_nullity[0]) and sum(by_nullity[1]) >= 20

    best = random_search(asche, 18, 12, SEARCH_MASTER_SEED).best
    best56 = extract_sublineset(asche, best.closure)
    certified = 0
    for ls in (tremain, taylor, asche, best56):
        m_rows = linalg.integer_scaled(ls.gram)[0]
        max_m = max(abs(x) for row in m_rows for x in row)
        for d in (3, ls.rank - 1, ls.rank, ls.rank + 1):
            draws = [sample_subset(rng, ls.n, d) for _ in range(10)]
            blocks = [[[m_rows[i][j] for j in s] for i in s] for s in draws]
            got = _kernel_sound(blocks, max_m)
            certified += sum(got)
            # scaled by an odd factor to entries near 2^22, the same
            # blocks are certified, each within the budget
            scale = (2**22 // max_m) | 1
            wide = [[[scale * x for x in row] for row in blk] for blk in blocks]
            assert _kernel_sound(wide, scale * max_m) == got
    assert certified >= 60

    # indefinite: row 2 is the sum of rows 0 and 1, and [[1, 2], [2, 1]]
    # has the eigenvalue -1; near-singular: Fibonacci blocks of det +-1
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    assert _kernel_sound([[[1, 2, 3], [2, 1, 3], [3, 3, 6]],
                          [[0, 1, 1], [1, 0, 1], [1, 1, 0]]], 6) == [True, False]
    near = [[[fib[k], fib[k + 1]], [fib[k + 1], fib[k + 2]]] for k in range(10, 37)]
    assert not any(_kernel_sound(near, fib[38]))

    # w = (1, 1, -1) spans the kernel of s * G, G the Gram matrix of
    # e1, e2 and e1 + e2 (max entry 2s), so the budget is 3 * 2s <= 2^53
    top = 2**53 // 6
    for s, zero in ((top, True), (top + 1, False)):
        block = [[s, 0, s], [0, s, s], [s, s, 2 * s]]
        assert _kernel_sound([block], 2 * s) == [zero]

    # a solve that fails certifies nothing: NaN, zeros (w = 0, which
    # A @ w == 0 alone would accept) or a LinAlgError; garbage certifies
    # no nonsingular block
    m_rows = linalg.integer_scaled(asche.gram)[0]
    max_m = max(abs(x) for row in m_rows for x in row)
    draws = [sample_subset(rng, asche.n, 18) for _ in range(40)]
    blocks = [[[m_rows[i][j] for j in s] for i in s] for s in draws]
    assert 0 < sum(linalg.rank(RatMatrix.from_rows(b)) == 18 for b in blocks) < 40
    noise = np.random.default_rng(9011)

    def fail(a, b):
        raise np.linalg.LinAlgError("singular")

    garbage = (lambda a, b: noise.integers(-2, 3, a.shape[:-1] + (1,)) * 1.0,
               lambda a, b: noise.standard_normal(a.shape[:-1] + (1,)) * 1e3)
    for fake in (lambda a, b: np.full(a.shape[:-1] + (1,), np.nan),
                 lambda a, b: np.zeros(a.shape[:-1] + (1,)), fail, *garbage):
        monkeypatch.setattr(np.linalg, "solve", fake)
        got = _kernel_sound(blocks, max_m)
        assert fake in garbage or not any(got)
    monkeypatch.undo()

    engine = spansearch.SpanEngine(m_rows)
    _, sub = _draw_block(0, 0, 5000, asche.n, 18)
    a = engine._blocks(sub)
    zero = np.flatnonzero(np.abs(np.linalg.det(a)) < 0.5)
    kernel = zero[spansearch._kernel_zero(a[zero], engine.max_m)]
    assert (len(zero), len(kernel)) == (2274, 2253)
    assert residue_members(engine, sub[kernel]) == [None] * len(kernel)
    assert engine.tier_counts["singular"] == len(kernel)


def _greedy_rank_basis(m: RatMatrix) -> tuple[int, ...]:
    """Each row, in order, that raises the Gauss-Jordan rank of the
    principal block of the rows kept before it."""
    kept: list[int] = []
    for j in range(m.rows):
        ext = kept + [j]
        if linalg.rank(m.submatrix(ext, ext)) > len(kept):
            kept.append(j)
    return tuple(kept)


def test_criterion_9i_shared_rank_psd_elimination():
    """The one symmetric elimination behind a line set's rank, PSD check
    and basis (`linalg.psd_basis`, `lineset._rank_and_basis`, and through
    them `LineSet.from_gram`) agrees with the oracle `is_psd` and the
    Gauss-Jordan `linalg.rank` on 288 seeded matrices: low-rank PSD
    X X^T with rational X, the same with a nonzero entry between two
    zero rows (a zero diagonal left after the positive pivots, not PSD),
    indefinite symmetric, non-symmetric (which `psd_basis` refuses), and
    zero, 0x0 and 1x1 matrices.  On PSD input its pivot rows are the
    greedy leftmost basis by principal-block rank.  On every kind the
    `rank` check of `validate` passes, on the set `from_gram` built and
    on one built by hand with the Gauss-Jordan rank."""
    rng = SplitMix64(9009)
    seen = dict.fromkeys(["low_rank_psd", "zero_diagonal_pair", "indefinite",
                          "non_symmetric", "zero", "1x1"], 0)
    empty = 0
    for trial in range(288):
        kind = list(seen)[trial % len(seen)]
        n = 1 if kind == "1x1" else rng.below(10)
        if kind in ("zero_diagonal_pair", "non_symmetric"):
            n = max(n, 2)
        if kind in ("low_rank_psd", "zero_diagonal_pair"):
            k = rng.below(n + 1)
            x = [[F(rng.below(9) - 4, 1 + rng.below(3)) for _ in range(k)]
                 for _ in range(n)]
            if kind == "zero_diagonal_pair":
                # rows 0 and 1 of X X^T vanish; a nonzero entry between
                # them leaves a zero-diagonal block that is not zero
                x[0] = x[1] = [F(0)] * k
            rows = [[sum((a * b for a, b in zip(u, v)), F(0)) for v in x]
                    for u in x]
            if kind == "zero_diagonal_pair":
                rows[0][1] = rows[1][0] = F(1 + rng.below(5), 1 + rng.below(3))
        elif kind == "zero":
            rows = [[0] * n for _ in range(n)]
        else:
            rows = [[F(rng.below(11) - 5, 1 + rng.below(4)) for _ in range(n)]
                    for _ in range(n)]
            if kind != "non_symmetric":
                rows = [[rows[i][j] + rows[j][i] for j in range(n)]
                        for i in range(n)]
            if kind == "non_symmetric":
                rows[0][1] = rows[1][0] + 1
        m = RatMatrix(n, n, [x for row in rows for x in row])
        rank = linalg.rank(m)
        ls = LineSet.from_gram(m, F(1, 3))
        assert ls.rank == rank
        for built in (ls, LineSet(n, F(1, 3), m, rank)):
            checks = validate(built).checks
            assert [(c.name, c.passed) for c in checks][-1] == ("rank", True)
        if kind == "non_symmetric":
            with pytest.raises(NotSymmetric):
                linalg.psd_basis(m)
            with pytest.raises(NotSymmetric):
                ls.is_psd
            assert _rank_and_basis(m) == (rank, None, False)
            seen[kind] += 1
            continue
        psd = is_psd(m)
        basis = linalg.psd_basis(m)
        assert (basis is not None) == psd
        assert _rank_and_basis(m) == (rank, basis, True)
        assert ls.basis == basis and ls.is_psd == psd
        if psd:
            assert basis == _greedy_rank_basis(m)
        if kind == "low_rank_psd":
            assert psd and rank <= k
        if kind == "zero_diagonal_pair":
            assert not psd
        if kind != "indefinite" or not psd:
            seen[kind] += 1
        empty += n == 0
    assert min(seen.values()) >= 30 and empty, (seen, empty)


def test_criterion_9j_basis_from_load_elimination(tremain, taylor, asche):
    """The basis that loading finds (`LineSet.basis`) and the default of
    `select_basis` equal the old greedy span scan `greedy_span_basis`,
    in order, on 124 sets: tremain14, taylor90, asche72 and best56 as
    built, under 20 seeded line permutations each, and on 10 seeded
    random subsets of each.  A set that is not PSD (5 lines at 1/3, all
    signs -1) has no basis, and `select_basis` raises NotPSD."""
    best = random_search(asche, 18, 12, SEARCH_MASTER_SEED).best
    best56 = extract_sublineset(asche, best.closure)
    rng = SplitMix64(9010)
    checked = 0
    for ls in (tremain, taylor, asche, best56):
        variants = [ls]
        for _ in range(20):
            perm = list(range(ls.n))
            for i in range(ls.n - 1):
                j = i + rng.below(ls.n - i)
                perm[i], perm[j] = perm[j], perm[i]
            variants.append(ls.restrict(perm))
        for _ in range(10):
            variants.append(ls.restrict(
                sample_subset(rng, ls.n, 1 + rng.below(ls.n))))
        for v in variants:
            want = greedy_span_basis(v)
            assert list(v.basis) == want
            assert select_basis(v) == want
            checked += 1
    assert checked == 124

    signs = [[0 if i == j else -1 for j in range(5)] for i in range(5)]
    ls = from_sign_matrix(SignMatrix.from_rows(signs), F(1, 3))
    assert ls.rank == 5 and ls.basis is None and not ls.is_psd
    with pytest.raises(NotPSD):
        select_basis(ls)


def _random_maximal_clique(rng: SplitMix64, g: SimpleGraph) -> list[int]:
    """A maximal clique grown greedily from a seeded vertex order."""
    order = list(range(g.n))
    for i in range(g.n - 1):
        j = i + rng.below(g.n - i)
        order[i], order[j] = order[j], order[i]
    clique: list[int] = []
    for v in order:
        if all(g.adj[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


def test_criterion_9l_class_coloring_vs_mcq_oracle(tremain, taylor, asche, best56):
    """`max_clique` (class-at-a-time coloring, explicit stack) equals the
    recursive MCQ oracle in size, witness, optimality and node count:
    on 240 seeded random graphs of up to 40 vertices at densities
    10-95%, unseeded and seeded with a random maximal clique, and on
    the compatibility graphs of tremain14 (even basis, K = 378),
    asche72 (default basis), taylor90 (basis J) and best56 (default
    basis), unseeded and under check_saturated's cover seed."""
    rng = SplitMix64(9012)
    seeded = 0
    for trial in range(240):
        g = _random_graph(rng, 1 + rng.below(40), 10 + rng.below(86))
        initial = _random_maximal_clique(rng, g) if trial % 2 else []
        seeded += bool(initial)
        assert max_clique(g, initial=initial) == mcq_max_clique(g, initial)
    assert seeded == 120

    cases = [
        (tremain, EVEN_BASIS_0B, 378),
        (asche, None, 112),
        (taylor, [i - 1 for i in BASIS_J_1B], 70),
        (best56, None, 197),
    ]
    for ls, basis, k in cases:
        basis = select_basis(ls, basis)
        cands = enumerate_candidates(ls, basis)
        g = build_compatibility_graph(cands, ls, basis)
        assert g.n == k
        cover = verify_nonbasis_cover(ls, basis, cands, g)
        for initial in ([], cover):
            got = max_clique(g, initial=initial)
            assert got.optimal and got == mcq_max_clique(g, initial)


def test_criterion_9m_integer_candidates_vs_fraction_oracle(tremain, taylor, asche, best56):
    """The candidates as pattern indices over the scan's integer W, and
    the graph from the bilinear forms eps_i^T W eps_j, equal the
    `Candidate` list of `Fraction` coordinates and its lcm-integerized
    graph: same patterns in the same order, same exact coordinates and
    same adjacency, on tremain14 (the even-labelled basis, the default
    basis and a random one), asche72 (default basis), taylor90 (basis
    J), best56 (default basis) and 10 random subsets of up to 24 lines
    (rank <= 20) with their default bases."""
    rng = SplitMix64(9013)
    cases = [
        (tremain, EVEN_BASIS_0B),
        (tremain, None),
        (tremain, _random_low_rank_subset(rng, tremain, 14)),
        (asche, None),
        (taylor, [i - 1 for i in BASIS_J_1B]),
        (best56, None),
    ]
    sources = [tremain, taylor, asche]
    for trial in range(10):
        # rank <= 20 and, in most draws, nonempty candidates and edges
        source = sources[trial % 3]
        picked = sorted(set(rng.below(source.n) for _ in range(8 + rng.below(17))))
        cases.append((source.restrict(picked), None))
    for ls, basis in cases:
        basis = select_basis(ls, basis)
        cands = enumerate_candidates(ls, basis)
        want = fraction_enumerate_candidates(ls, basis)
        assert list(cands.patterns) == [c.pattern_index for c in want]
        assert candidate_coeffs(cands) == [c.coeffs for c in want]
        g = build_compatibility_graph(cands, ls, basis)
        assert g.adj == lcm_compatibility_graph(want, ls, basis).adj


def _wide_symmetric(rng: SplitMix64, d: int, bits: int) -> list[list[int]]:
    """A symmetric W with entries +-2^bits + r, r in [-2, 2], so that many
    +-1 forms collide in their high part and only the low part tells
    them apart."""
    w = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            high = (1 - 2 * rng.below(2)) << bits
            w[i][j] = w[j][i] = high + rng.below(5) - 2
    return w


def _wide_cases():
    """(W, 64 random sign rows) at d = 5 to 16, W from `_wide_symmetric`
    with b from 60 to 70."""
    rng = SplitMix64(9014)
    for d in (5, 6, 8, 10, 12, 16):
        w = _wide_symmetric(rng, d, 60 + rng.below(11))
        e = np.array(
            [[1 - 2 * rng.below(2) for _ in range(d)] for _ in range(64)],
            dtype=np.int64,
        )
        yield w, e


def test_criterion_9n_wide_forms_vs_python_int_oracles():
    """Past d^2 * max|W| = 2^63 the pattern scan and the pairwise forms
    of the compatibility graph agree with direct Python-int scans:
    symmetric W with entries +-2^b + r, b from 60 to 70 and |r| <= 2, at
    d = 5 to 16.  The scan is checked against the direct scan up to
    d = 12 and against the limb block scan at d = 16, on a target that
    some pattern hits; the pairwise masks of 64 random sign rows, in the
    numpy oracle (object dtype past 2^63) and in the packed lanes, on the
    |form| of three pairs."""
    for w, e in _wide_cases():
        d = len(w)
        assert _exact_array(w).dtype == object
        forms = [
            [sum(a * x * b for a, row in zip(ei, w) for x, b in zip(row, ej))
             for ej in e.tolist()]
            for ei in e.tolist()
        ]
        # e[0] with its first sign made +1 is a pattern whose form is forms[0][0]
        t_target = forms[0][0]
        got = _intops.enumerate_unit_patterns(w, t_target)
        if d <= 12:
            want = direct_unit_patterns(w, t_target)
        else:
            want = enumerate_range_batch(w, t_target, 0, 1 << (d - 1))
        assert got == want and got
        ms = sign_patterns(e)
        for t in (abs(forms[0][1]), abs(forms[5][40]), abs(forms[63][63])):
            want = [[int(abs(v) == t) for v in row] for row in forms]
            hit = pairwise_hits(e, w, t)
            got = np.unpackbits(hit, axis=1, count=64, bitorder="little")
            assert got.tolist() == want
            assert _intops.pairwise_rows(ms, w, t) == [
                sum(x << j for j, x in enumerate(row)) for row in want]


def _assert_lanes_match_numpy(w, t_target, scale, extra=()):
    """The packed-lane scan equals the numpy block scan on t_target, and
    the packed-lane rows equal the numpy masks on scale, over the kept
    patterns and the patterns of extra."""
    kept = _intops.enumerate_unit_patterns(w, t_target)
    assert kept == block_unit_patterns(w, t_target)
    ms = sorted(set(kept) | set(extra))
    hit = pairwise_hits(_pattern_block(ms, len(w)), w, scale)
    assert _intops.pairwise_rows(ms, w, scale) == [
        int.from_bytes(row.tobytes(), "little") for row in hit]
    return kept


def test_criterion_9o_lane_kernels_vs_numpy_kernels(tremain, taylor, asche, best56):
    """The packed Python-int lanes of the pattern scan and of the
    compatibility rows equal the numpy block scan and `pairwise_hits`
    that they replaced: on tremain14, taylor90, asche72 and best56 with
    their default bases, tremain14 on recipe 04's basis and taylor90 on
    recipe 05's basis J; on 10 random subsets of up to 24 lines (rank
    <= 20) with their default bases; on random symmetric W at d = 2 to
    23, on a target that some pattern hits, on the |form| of a pair and
    on targets past +-B that none hits; on W = +-top * u u^T, whose
    all-u pattern has the form +-B, the edge of the lane range,
    B = d^2 * top; and on the wide entries of criterion 9n."""
    rng = SplitMix64(9015)
    cases = [(tremain, None), (tremain, EVEN_BASIS_0B), (taylor, None),
             (taylor, [i - 1 for i in BASIS_J_1B]), (asche, None), (best56, None)]
    sources = [tremain, taylor, asche]
    for trial in range(10):
        source = sources[trial % 3]
        picked = sorted(set(rng.below(source.n) for _ in range(8 + rng.below(17))))
        cases.append((source.restrict(picked), None))
    for ls, basis in cases:
        basis = select_basis(ls, basis)
        w, scale, t_target = _intops.scaled_candidate_matrix(ls.gram, basis, ls.angle)
        _assert_lanes_match_numpy(w, t_target, scale)
    for d in range(2, 24):
        w = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                w[i][j] = w[j][i] = rng.below(4001) - 2000
        eps = [[1] + [1 - 2 * rng.below(2) for _ in range(d - 1)] for _ in range(2)]
        forms = [sum(a * x * b for a, row in zip(ei, w) for x, b in zip(row, eps[1]))
                 for ei in eps]
        randoms = [rng.below(1 << (d - 1)) for _ in range(100)]
        # eps[0] @ W @ eps[0] is a target some pattern hits; no form
        # reaches -B - 1 or B + 1, and the lane targets of the scan
        # leave the lane range
        t_target = sum(a * x * b for a, row in zip(eps[0], w)
                       for x, b in zip(row, eps[0]))
        assert _assert_lanes_match_numpy(w, t_target, abs(forms[0]), randoms)
        bound = _intops._lanes(w)[0]
        assert not _assert_lanes_match_numpy(w, -bound - 1, bound + 1, randoms)
        top = 1 + rng.below(1 << 20)
        u = [1] + [1 - 2 * rng.below(2) for _ in range(d - 1)]
        m_u = sum(1 << (d - 1 - t) for t in range(1, d) if u[t] < 0)
        for sign in (1, -1):
            w = [[sign * top * a * b for b in u] for a in u]
            bound = d * d * top
            assert _intops._lanes(w)[0] == bound
            kept = _assert_lanes_match_numpy(w, sign * bound, bound, randoms)
            assert kept == [m_u]
    for w, e in _wide_cases():
        d = len(w)
        ms = sign_patterns(e)
        we = _pattern_block(ms[:2], d) @ _exact_array(w) @ _pattern_block(ms[:2], d).T
        _assert_lanes_match_numpy(w, int(we[0, 0]), abs(int(we[0, 1])), ms)
