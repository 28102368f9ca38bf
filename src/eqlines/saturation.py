"""Saturation analysis for an equiangular line set.

Pipeline: pick a basis among the lines, enumerate every unit vector that
meets each basis line at +-alpha (one serial scan over the 2^(d-1) sign
patterns), connect two candidates when their inner product is +-alpha,
and bound any equiangular extension of the basis by d + omega of that
compatibility graph.  The set is saturated when the bound equals its
own size.

All decisions are exact, on Python ints: the scan and the graph run on
the packed lanes of `_intops`, and no module of the pipeline imports
numpy.  Patterns are indexed by m in [0, 2^(d-1)), first sign +1, by
the bit rule of `_intops` (`_intops.pattern_index`).  Indices into line
sets are 0-based throughout the API.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Sequence

from . import _intops, linalg
from ._record import Record
from .errors import HypothesisViolated, NotABasis, NotPSD, OverLimit
from .lineset import LineSet, _alpha_signs, relative_bound_floor, require_valid
from .maxclique import CliqueResult, SimpleGraph, max_clique

ProgressSink = Callable[[int, int], None]

# bytes of the K x K bit matrix of the compatibility graph, K^2/8, above
# which check_saturated refuses to build it unless forced
GRAPH_BYTES_LIMIT = 1 << 30


class CandidateSet(Record):
    """The K unit vectors meeting every basis line at +-alpha.

    patterns: the ascending pattern indices of the candidates, a tuple
    of ints; w, scale, target: W = L * alpha * G_B^(-1), L and T =
    L/alpha from `_intops.scaled_candidate_matrix`, in Python ints of
    any size, as the packed-lane kernels of `_intops` are exact at any
    width.  Candidate i is the vector with coordinates c = W eps_i / L
    over the basis lines, where eps_i is the sign pattern of patterns[i].
    Two candidate sets are equal only when they are the same object.
    """

    __slots__ = _fields = ("patterns", "w", "scale", "target")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, patterns: tuple[int, ...], w: list[list[int]], scale: int,
        target: int,
    ):
        ms = tuple(map(int, patterns))
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError("candidate patterns must be strictly ascending")
        super().__init__(ms, w, scale, target)

    def __len__(self) -> int:
        return len(self.patterns)


class SaturationReport(Record):
    __slots__ = _fields = (
        "basis_indices", "candidate_count", "clique_number", "n_bound",
        "saturated", "clique_witness", "clique_optimal", "total_patterns",
    )

    def to_dict(self) -> dict:
        return {
            "basis": [i + 1 for i in self.basis_indices],
            "candidate_count": self.candidate_count,
            "clique_number": self.clique_number,
            "N": self.n_bound,
            "saturated": self.saturated,
            "clique_witness": [i + 1 for i in self.clique_witness],
            "clique_optimal": self.clique_optimal,
            "total_patterns": self.total_patterns,
        }


def select_basis(
    ls: LineSet, override: Optional[Sequence[int]] = None
) -> list[int]:
    """Indices of rank(ls) lines whose Gram block is nonsingular.

    Default: `LineSet.basis`, the greedy leftmost basis that the
    elimination on load found.  With override: the given indices are
    verified and returned.  NotPSD when the Gram matrix is not PSD.
    """
    if ls.basis is None:
        raise NotPSD("the Gram matrix is not positive semidefinite")
    if override is None:
        return list(ls.basis)
    r = ls.rank
    idx = [int(i) for i in override]
    if any(not 0 <= i < ls.n for i in idx):
        raise IndexError("basis index out of range")
    if len(idx) != r:
        raise NotABasis(f"basis needs {r} indices, got {len(idx)}")
    # a repeated index leaves the block rank-deficient too
    if len(linalg.psd_basis(ls.gram.submatrix(idx, idx))) != r:
        raise NotABasis("override indices have rank-deficient Gram block")
    return idx


def enumerate_candidates(
    ls: LineSet,
    basis: Sequence[int],
    progress: Optional[ProgressSink] = None,
    threads: int = 1,
) -> CandidateSet:
    """All candidates over the basis, in sign-pattern lexicographic order.

    Each of the 2^(d-1) patterns eps (first sign +1) is kept iff the
    solution c of <v, b_k> = eps_k * alpha for all k has exact unit norm.
    One serial scan decides every pattern exactly.  progress (if given)
    receives (patterns_done, patterns_total) about every 2^16 patterns
    and once at the end.  threads is accepted and ignored: the scan is
    faster serial than split across processes.
    """
    w, scale, t_target = _intops.scaled_candidate_matrix(
        ls.gram, basis, ls.angle
    )
    ms = _intops.enumerate_unit_patterns(w, t_target, progress)
    return CandidateSet(ms, w, scale, t_target)


def build_compatibility_graph(
    cands: CandidateSet, ls: LineSet, basis: Sequence[int]
) -> SimpleGraph:
    """Graph on the candidates; i ~ j iff their inner product is +-alpha.

    With c = W eps / L, <v_i, v_j> = alpha * eps_i^T c_j, so i ~ j iff
    eps_i^T W eps_j = +-L: one exact integer bilinear form per pair, a
    packed lane of `_intops.pairwise_rows`, whose rows are the graph's
    bitset rows (ls and basis are accepted for the signature).  The
    mask is symmetric because W is, and its diagonal is empty:
    |eps_i^T W eps_i| = T = L/alpha != L.  No two candidates are one
    line: a candidate v lies in span(B) and meets b_k at alpha * eps_k,
    so eps fixes v; v = +-v' forces eps = +-eps', and two first-plus
    patterns are never negatives of each other, so the patterns are
    equal.
    """
    rows = _intops.pairwise_rows(cands.patterns, cands.w, cands.scale)
    return SimpleGraph(len(rows), tuple(rows))


def line_pattern_indices(ls: LineSet, basis: Sequence[int]) -> dict[int, int]:
    """Pattern index (`_intops.pattern_index`) of each non-basis line's
    sign vector over the basis."""
    n, signs = ls.n, _alpha_signs(ls)
    out: dict[int, int] = {}
    basis_set = set(basis)
    for j in range(n):
        if j in basis_set:
            continue
        row = [signs[j * n + k] for k in basis]
        if None in row:
            k = basis[row.index(None)]
            raise HypothesisViolated(
                f"line {j} meets basis line {k} at {ls.gram[j, k]}, "
                f"not +-{ls.angle}"
            )
        out[j] = _intops.pattern_index(row)
    return out


def verify_nonbasis_cover(
    ls: LineSet,
    basis: Sequence[int],
    cands: CandidateSet,
    graph: SimpleGraph,
) -> list[int]:
    """The non-basis lines must appear among the candidates (up to global
    sign) and be pairwise compatible, which forces N >= n.  Returns the
    candidate of each non-basis line, in line order: a clique of size
    n - d in the compatibility graph."""
    vertices = []
    for j, m in line_pattern_indices(ls, basis).items():
        v = bisect_left(cands.patterns, m)
        if v == len(cands) or cands.patterns[v] != m:
            raise HypothesisViolated(
                f"non-basis line {j} is missing from the candidate list"
            )
        vertices.append(v)
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            i, j = vertices[a], vertices[b]
            if not graph.adj[i] >> j & 1:
                raise HypothesisViolated(
                    f"non-basis lines map to incompatible candidates {i},{j}"
                )
    return vertices


def check_saturated(
    ls: LineSet,
    basis_override: Optional[Sequence[int]] = None,
    progress: Optional[ProgressSink] = None,
    time_budget: Optional[float] = None,
    graph_sink: Optional[Callable[[SimpleGraph], None]] = None,
    force: bool = False,
) -> SaturationReport:
    """Full pipeline; saturated iff len(basis) + omega equals ls.n.

    A line set that fails a check of `validate` (symmetry, unit
    diagonal, off-diagonal entries +-alpha, positive semidefiniteness)
    is refused with InvalidLineSet before any work; the rank computed on
    load is trusted, and a set of rank 0 (no lines) is refused with
    HypothesisViolated.

    The input's own non-basis lines must appear among the candidates and
    be pairwise compatible (hence the bound can never fall below ls.n);
    that clique is the clique search's starting best, and the witness
    whenever omega = n - d.  graph_sink
    (if given) receives the compatibility graph, e.g. for export.  If a
    time budget cut the clique search short, clique_optimal is False
    and the bound is only a lower bound.

    The certificate checks itself: the witness must be a clique of
    exactly omega vertices, and when d < 1/alpha^2 the bound N must not
    exceed the relative bound floor(R(d, alpha)), since the basis and the
    witness form an equiangular set of N lines at rank d.  Either
    failure raises HypothesisViolated.

    The graph's bit matrix takes K^2/8 bytes for K candidates: above
    GRAPH_BYTES_LIMIT the call raises OverLimit before building it,
    unless force is true.
    """
    require_valid(ls)
    if ls.rank < 1:
        raise HypothesisViolated("saturation needs a line set of rank at least 1")
    basis = select_basis(ls, basis_override)
    cands = enumerate_candidates(ls, basis, progress=progress)
    k = len(cands)
    if k * k > 8 * GRAPH_BYTES_LIMIT and not force:
        raise OverLimit(
            f"the compatibility graph on K = {k} candidates needs "
            f"K^2/8 = {k * k // 8} bytes, above the limit of "
            f"{GRAPH_BYTES_LIMIT}"
        )
    graph = build_compatibility_graph(cands, ls, basis)
    if graph_sink is not None:
        graph_sink(graph)
    cover = verify_nonbasis_cover(ls, basis, cands, graph)
    clique: CliqueResult = max_clique(graph, time_budget, initial=cover)
    d = len(basis)
    n_bound = d + clique.size
    if len(clique.witness) != clique.size or not graph.is_clique(clique.witness):
        raise HypothesisViolated(
            f"clique witness is not a clique of size {clique.size}"
        )
    if d * ls.angle ** 2 < 1 and n_bound > relative_bound_floor(d, ls.angle):
        raise HypothesisViolated(
            f"N = {n_bound} exceeds the relative bound at rank {d}"
        )
    return SaturationReport(
        basis_indices=tuple(basis),
        candidate_count=len(cands),
        clique_number=clique.size,
        n_bound=n_bound,
        saturated=n_bound == ls.n,
        clique_witness=clique.witness,
        clique_optimal=clique.optimal,
        total_patterns=1 << (d - 1),
    )
