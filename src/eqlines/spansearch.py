"""Randomized rank-reduction search inside an equiangular line set.

Strategy: draw a subset of lines whose Gram block is nonsingular, take
its span-closure (every line of the parent set lying in the span), and
keep the largest closure seen.  Closures of d independent lines have
rank exactly d, so large closures are large lower-rank line sets.

The generator is SplitMix64, pinned here so that results reproduce
bit-for-bit: state advances by the golden-ratio increment and is
finalized by two xor-multiply rounds.  Run i of a search derives its
own seed as mix64(master + i*GOLDEN), so runs are independent of
execution order.

The search runs in one process, a chunk of runs at a time.  A chunk
is a whole number of the blocks that `SpanEngine.block` sizes so that
their (draws, d, n) column gather holds about 2^17 float64 entries (101
draws at n = 72, d = 18), as many as keep the chunk's (runs, n)
permutation near _DRAW_CHUNK = 2^16 entries (9 blocks there).  The
subsets of a chunk are drawn together, one numpy uint64 SplitMix64 lane
per run (`_draw_block`), bit-identical to drawing each run on its own;
`SplitMix64`, `mix64` and `run_seed` remain the definition of the
stream.  `SpanEngine.members_many` then decides the chunk in stacked
numpy, block by block, with the draws the float tiers leave open
gathered across the chunk's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _intops, linalg
from .errors import OutOfRange, RankDeficient
from .lineset import LineSet, validate

# entries of the (runs, n) permutation that one `_draw_block` call
# shuffles: random_search draws chunks of whole blocks about this size
_DRAW_CHUNK = 1 << 16

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the SplitMix64 finalizer
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

ProgressSink = Callable[[int, int], None]


def mix64(z: int) -> int:
    """SplitMix64 finalizer: two xor-shift-multiply rounds plus a shift."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; identical output on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform value in [0, bound) via rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        lim = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next64()
            if r < lim:
                return r % bound


def run_seed(master: int, index: int) -> int:
    """Per-run seed: decorrelates consecutive runs of one master seed."""
    return mix64((master + index * GOLDEN) & MASK64)


def _mix64_many(z: np.ndarray) -> np.ndarray:
    """`mix64` of every entry of a uint64 array (products wrap mod 2^64)."""
    z = z ^ (z >> 30)
    z *= MIX1
    z ^= z >> 27
    z *= MIX2
    return z ^ (z >> 31)


def _draw_block(
    master: int, lo: int, hi: int, n: int, k: int
) -> tuple[list[int], np.ndarray]:
    """Seeds and sorted k-subsets of range(n) of runs lo..hi-1.

    Bit-identical to drawing each run on its own with
    SplitMix64(run_seed(master, i)): every lane takes the same partial
    Fisher-Yates steps, j = i + below(n - i), with below's rejection
    rule.  A rejected lane advances its own state and redraws until it
    is accepted; a bound dividing 2^64 rejects nothing.
    """
    runs = np.arange(lo, hi, dtype=np.uint64)
    seeds = _mix64_many(runs * GOLDEN + master)
    state = seeds.copy()
    lanes = np.arange(hi - lo)
    # the smallest dtype that holds n keeps the (runs, n) shuffle small
    perm = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (hi - lo, 1))
    for i in range(k):
        bound = n - i
        lim = (1 << 64) - (1 << 64) % bound
        state += GOLDEN
        r = _mix64_many(state)
        if lim < 1 << 64:
            redo = np.flatnonzero(r >= lim)
            while len(redo):
                state[redo] += GOLDEN
                r[redo] = _mix64_many(state[redo])
                redo = redo[r[redo] >= lim]
        j = i + (r % bound).astype(np.intp)
        perm[lanes, i], perm[lanes, j] = perm[lanes, j], perm[lanes, i]
    return seeds.tolist(), np.sort(perm[:, :k], axis=1).astype(np.intp)


@dataclass(frozen=True)
class SearchRun:
    """One draw: its subset and closure; rank 0 marks a rank-deficient
    draw, whose closure is not computed and counts as size 0."""

    index: int
    seed: int
    subset: tuple[int, ...]
    closure: tuple[int, ...]
    closure_size: int
    rank: int

    @property
    def rank_ok(self) -> bool:
        return self.rank > 0

    def to_dict(self, one_based: bool = True) -> dict:
        off = 1 if one_based else 0
        return {
            "run": self.index,
            "seed": self.seed,
            "subset": [i + off for i in self.subset],
            "closure": [i + off for i in self.closure],
            "closure_size": self.closure_size,
            "rank": self.rank,
            "rank_ok": self.rank_ok,
        }


@dataclass(frozen=True)
class SearchSummary:
    runs: int
    target_rank: int
    master_seed: int
    best: Optional[SearchRun]
    histogram: dict[int, int]
    run_log: tuple[SearchRun, ...]

    def to_dict(self, one_based: bool = True) -> dict:
        return {
            "runs": self.runs,
            "target_rank": self.target_rank,
            "seed": self.master_seed,
            "best": None if self.best is None else self.best.to_dict(one_based),
            "histogram": {
                str(k): self.histogram[k] for k in sorted(self.histogram)
            },
        }


def span_closure(ls: LineSet, subset: Sequence[int]) -> list[int]:
    """Ascending indices of every line lying in the span of the subset.

    Exact projection criterion: j is in the span iff
    G_jS (G_SS)^(-1) G_Sj == G_jj.  The subset itself is always included.
    Raises RankDeficient when the subset's Gram block is singular.
    """
    idx = [int(i) for i in subset]
    if any(not 0 <= i < ls.n for i in idx):
        raise IndexError("line index out of range")
    m_rows, _ = linalg.integer_scaled(ls.gram)
    got = _intops.SpanEngine(m_rows).members(sorted(idx))
    if got is None:
        raise RankDeficient(
            f"Gram block on {len(idx)} lines is singular"
        )
    return got


def random_search(
    ls: LineSet,
    target_rank: int,
    runs: int,
    seed: int,
    progress: Optional[ProgressSink] = None,
) -> SearchSummary:
    """runs independent draws of target_rank lines; summary of closures.

    Deterministic in (ls, target_rank, runs, seed): each run's subset
    comes from its own derived seed, results merge in run order, and the
    best run is the smallest-index run of maximal closure size.  Draws
    with singular Gram blocks are recorded at histogram size 0.
    progress (if given) receives (done, runs) once for each block of
    draws, as each chunk of blocks is logged, ending at (runs, runs);
    runs = 0 reports nothing.
    """
    if not 1 <= target_rank <= ls.rank:
        raise OutOfRange(
            f"target rank must lie in 1..{ls.rank}, got {target_rank}"
        )
    if runs < 0:
        raise OutOfRange(f"runs must be at least 0, got {runs}")
    seed &= MASK64
    m_rows, _ = linalg.integer_scaled(ls.gram)
    engine = _intops.SpanEngine(m_rows)
    block = engine.block(target_rank)
    chunk = block * max(1, _DRAW_CHUNK // (block * ls.n))
    log: list[SearchRun] = []
    for lo in range(0, runs, chunk):
        seeds, drawn = _draw_block(
            seed, lo, min(lo + chunk, runs), ls.n, target_rank
        )
        got = engine.members_many(drawn)
        for b in range(0, len(got), block):
            for s, subset, members in zip(
                seeds[b:b + block], drawn[b:b + block].tolist(), got[b:b + block]
            ):
                closure = () if members is None else tuple(members)
                log.append(SearchRun(
                    len(log), s, tuple(subset), closure, len(closure),
                    0 if members is None else target_rank,
                ))
            if progress is not None:
                progress(len(log), runs)

    histogram: dict[int, int] = {}
    best: Optional[SearchRun] = None
    for run in log:
        histogram[run.closure_size] = histogram.get(run.closure_size, 0) + 1
        if best is None or run.closure_size > best.closure_size:
            best = run
    return SearchSummary(
        runs=runs,
        target_rank=target_rank,
        master_seed=seed,
        best=best,
        histogram=histogram,
        run_log=tuple(log),
    )


def extract_sublineset(ls: LineSet, indices: Sequence[int]) -> LineSet:
    """Principal Gram submatrix as a new LineSet, rank recomputed and all
    invariants re-validated (a failed validation raises ValueError)."""
    sub = ls.restrict(indices)
    report = validate(sub)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise ValueError(f"extracted line set fails validation: {failed}")
    return sub


def orthogonal_complement(
    ls: LineSet, indices: Sequence[int]
) -> list[tuple[int, ...]]:
    """Primitive integer basis of the space orthogonal to the coordinate
    vectors of the indexed lines.  Requires a coordinate-carrying set."""
    if ls.coords is None:
        raise ValueError("line set carries no coordinate vectors")
    rows = [[int(x) for x in ls.coords[i]] for i in indices]
    kernel = linalg.kernel(linalg.RatMatrix.from_rows(rows))
    return [tuple(int(x) for x in vec) for vec in kernel]

