"""Pinned PRNG stream, span closures, and randomized subset search."""

import concurrent.futures
import re
import signal
from fractions import Fraction

import numpy as np
import pytest

from eqlines import linalg, lineset, spansearch
from eqlines.cli import main
from eqlines._tables import E1_MINUS_E2, E1_MINUS_E3, VEC_C, VEC_C1, VEC_C2
from eqlines.errors import InvalidLineSet, OutOfRange, RankDeficient
from eqlines.lineset import LineSet
from eqlines.linalg import RatMatrix
from eqlines.spansearch import (
    GOLDEN,
    MASK64,
    SplitMix64,
    _draw_block,
    extract_sublineset,
    mix64,
    orthogonal_complement,
    random_search,
    run_seed,
    span_closure,
)
from oracles import (
    PerDrawSpanEngine,
    mix64_inverse,
    sample_subset,
    span_members,
    span_members_many,
)

F = Fraction
HALF = F(1, 2)

TAYLOR_BASIS = tuple(
    i - 1
    for i in (6, 7, 13, 19, 21, 24, 27, 34, 43, 45, 48, 52, 57, 61, 66, 70, 74, 80, 82, 89)
)


def hexagon() -> LineSet:
    g = RatMatrix.from_rows(
        [[1, HALF, -HALF], [HALF, 1, HALF], [-HALF, HALF, 1]]
    )
    return LineSet.from_gram(g, HALF)


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # published reference outputs of the splitmix64 generator
        r = SplitMix64(0)
        assert r.next64() == 0xE220A8397B1DCDAF
        assert r.next64() == 0x6E789E6AA1B965F4
        assert r.next64() == 0x06C45D188009454F

    def test_mix64_fixed_points_and_mask(self):
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5
        for z in (1, 2**63, MASK64):
            assert 0 <= mix64(z) <= MASK64

    def test_state_wraps(self):
        r = SplitMix64(MASK64)
        v = r.next64()
        assert 0 <= v <= MASK64
        # state advanced by GOLDEN modulo 2^64
        assert r.state == (MASK64 + GOLDEN) & MASK64

    def test_below_range_and_determinism(self):
        r1 = SplitMix64(99)
        r2 = SplitMix64(99)
        vals1 = [r1.below(7) for _ in range(200)]
        vals2 = [r2.below(7) for _ in range(200)]
        assert vals1 == vals2
        assert set(vals1) <= set(range(7))
        assert len(set(vals1)) == 7  # all residues appear in 200 draws

    def test_below_one(self):
        r = SplitMix64(5)
        assert r.below(1) == 0

    def test_below_past_64_bits_raises(self):
        """A bound past 2^64 has rejection limit 0, so no draw could be
        accepted: it raises before drawing.  A real-time timer turns a
        draw loop into a failure after 2 s (no thread or process)."""

        def hang(signum, frame):
            raise AssertionError("below() did not return")

        r = SplitMix64(5)
        old = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            assert 0 <= r.below(1 << 64) <= MASK64
            state = r.state
            for bound in ((1 << 64) + 1, 1 << 65, 0, -1):
                with pytest.raises(ValueError, match=r"1\.\.2\^64"):
                    r.below(bound)
            assert r.state == state
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def test_run_seed_formula(self):
        for master in (0, 123456789, MASK64):
            for i in (0, 1, 11, 4999):
                want = mix64((master + i * GOLDEN) & MASK64)
                assert run_seed(master, i) == want
        assert run_seed(0, 0) == 0  # mix64(0) == 0: a valid stream
        assert run_seed(0, 11) == 0x657EECDD3CB13D09


class TestSampleSubset:
    def test_shape(self):
        r = SplitMix64(7)
        for _ in range(50):
            s = sample_subset(r, 90, 18)
            assert len(s) == 18
            assert s == sorted(s)
            assert len(set(s)) == 18
            assert all(0 <= x < 90 for x in s)

    def test_full_draw(self):
        r = SplitMix64(7)
        assert sample_subset(r, 5, 5) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = sample_subset(SplitMix64(42), 30, 10)
        b = sample_subset(SplitMix64(42), 30, 10)
        assert a == b


def rejecting_master(run: int, step: int) -> int:
    """A master seed whose run `run` draws 2^64 - 1 at Fisher-Yates step
    `step`, which every bound not dividing 2^64 rejects."""
    state = mix64_inverse(MASK64)
    seed = (state - (step + 1) * GOLDEN) & MASK64
    return (mix64_inverse(seed) - run * GOLDEN) & MASK64


class TestDrawBlock:
    """The vectorised draws of a block against the scalar sampler."""

    @staticmethod
    def assert_matches_scalar(master, lo, hi, n, k):
        seeds, subsets = _draw_block(master, lo, hi, n, k)
        want_seeds = [run_seed(master, i) for i in range(lo, hi)]
        assert seeds == want_seeds
        assert subsets.tolist() == [
            sample_subset(SplitMix64(s), n, k) for s in want_seeds
        ]

    @pytest.mark.parametrize("n,k", [(5, 5), (30, 10), (72, 18), (90, 18)])
    def test_matches_scalar_sampler(self, n, k):
        # (72, 18) passes through the bound 64, which divides 2^64
        for master in (0, 3, 0x1234, MASK64):
            self.assert_matches_scalar(master, 0, 40, n, k)
            self.assert_matches_scalar(master, 4990, 5000, n, k)

    @pytest.mark.parametrize("step", [0, 5, 8, 17])
    def test_rejected_lane_redraws_alone(self, step):
        master = rejecting_master(run=7, step=step)
        rng = SplitMix64(run_seed(master, 7))
        assert [rng.next64() for _ in range(step + 1)][-1] == MASK64
        # at step 8 of 72 lines the bound is 64: nothing is rejected
        self.assert_matches_scalar(master, 3, 12, 72, 18)
        self.assert_matches_scalar(master, 7, 8, 30, 18)

    @pytest.mark.parametrize(
        "name,rank,runs,seed", [("asche", 18, 500, 0), ("taylor", 16, 200, 3)]
    )
    def test_run_log_matches_scalar_per_draw(self, name, rank, runs, seed, request):
        ls = request.getfixturevalue(name)
        oracle = PerDrawSpanEngine(linalg.integer_scaled(ls.gram)[0])
        summary = random_search(ls, target_rank=rank, runs=runs, seed=seed)
        assert len(summary.run_log) == runs
        for i, run in enumerate(summary.run_log):
            s = run_seed(seed, i)
            subset = sample_subset(SplitMix64(s), ls.n, rank)
            want = oracle.members(subset)
            assert (run.index, run.seed, run.subset) == (i, s, tuple(subset))
            assert run.closure == (() if want is None else tuple(want))
            assert run.rank == (0 if want is None else rank)


class TestSpanClosure:
    def test_hexagon_pair_spans_all(self):
        ls = hexagon()
        assert span_closure(ls, [0, 1]) == [0, 1, 2]
        assert span_closure(ls, [1, 2]) == [0, 1, 2]

    def test_single_line_spans_itself(self):
        ls = hexagon()
        assert span_closure(ls, [2]) == [2]

    def test_subset_always_included(self, taylor):
        got = span_closure(taylor, [0, 10, 40])
        assert {0, 10, 40} <= set(got)

    def test_basis_spans_everything(self, taylor):
        assert span_closure(taylor, TAYLOR_BASIS) == list(range(90))

    def test_rank_deficient_raises(self, taylor):
        with pytest.raises(RankDeficient):
            span_closure(taylor, list(range(90)))
        with pytest.raises(RankDeficient):
            span_closure(taylor, list(TAYLOR_BASIS) + [0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            span_closure(hexagon(), [0, 3])

    def test_closure_grows_with_subset(self, tremain):
        small = set(span_closure(tremain, [1, 3, 5]))
        large = set(span_closure(tremain, [1, 3, 5, 7]))
        assert small <= large


class TestRandomSearch:
    def test_reproducible(self, taylor):
        a = random_search(taylor, target_rank=18, runs=40, seed=0)
        b = random_search(taylor, target_rank=18, runs=40, seed=0)
        assert a == b

    def test_known_prefix_of_frozen_search(self, asche):
        # documented search: master seed 0 on the 72-line set first hits a
        # 56-line closure at run 11
        summary = random_search(asche, target_rank=18, runs=60, seed=0)
        assert summary.best is not None
        assert summary.best.closure_size == 56
        assert summary.best.index == 11
        assert summary.best.subset == (
            2, 3, 5, 6, 8, 11, 20, 22, 26, 31, 35, 37, 39, 43, 45, 66, 68, 71,
        )
        assert summary.best.rank == 18

    def test_histogram_accounts_every_run(self, taylor):
        summary = random_search(taylor, target_rank=18, runs=50, seed=3)
        assert sum(summary.histogram.values()) == 50
        deficient = sum(1 for r in summary.run_log if not r.rank_ok)
        assert summary.histogram.get(0, 0) == deficient
        for run in summary.run_log:
            if run.rank_ok:
                assert run.closure_size == len(run.closure) >= 18
            else:
                assert run.closure_size == 0 and run.closure == ()

    def test_run_seeds_derived_not_sequential(self, taylor):
        summary = random_search(taylor, target_rank=18, runs=5, seed=77)
        for run in summary.run_log:
            assert run.seed == run_seed(77, run.index)

    def test_best_is_smallest_index_of_max(self, taylor):
        summary = random_search(taylor, target_rank=18, runs=30, seed=1)
        best = summary.best
        sizes = [r.closure_size for r in summary.run_log]
        assert best.closure_size == max(sizes)
        assert best.index == sizes.index(max(sizes))

    def _search_json(self, taylor, tmp_path, monkeypatch, capsys, threads):
        # --threads is accepted and ignored: the search never starts a pool
        def no_pool(*args, **kwargs):
            raise AssertionError("search must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        path = tmp_path / "taylor90.json"
        lineset.save(taylor, str(path))
        argv = ["search", str(path), "--rank", "18", "--runs", "64",
                "--seed", "0", "--json", "--threads", str(threads)]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_threads_match_serial(self, taylor, tmp_path, monkeypatch, capsys):
        args = (taylor, tmp_path, monkeypatch, capsys)
        assert self._search_json(*args, 3) == self._search_json(*args, 1)

    def test_huge_thread_count_is_clamped(
        self, taylor, tmp_path, monkeypatch, capsys
    ):
        args = (taylor, tmp_path, monkeypatch, capsys)
        assert self._search_json(*args, 10**9) == self._search_json(*args, 1)

    @pytest.mark.parametrize("runs", [0, 7, 97])
    def test_block_seams_match_per_draw(self, taylor, runs):
        m_rows, _ = linalg.integer_scaled(taylor.gram)
        # taylor90 at rank 18 is decided in blocks of 80 draws, so 97
        # runs cross a block seam
        assert spansearch.SpanEngine(m_rows).block(18) == 80
        oracle = PerDrawSpanEngine(m_rows)
        summary = random_search(taylor, target_rank=18, runs=runs, seed=5)
        assert len(summary.run_log) == runs
        for i, run in enumerate(summary.run_log):
            subset = sample_subset(SplitMix64(run_seed(5, i)), taylor.n, 18)
            want = oracle.members(subset)
            assert run.index == i and run.subset == tuple(subset)
            assert run.closure == (() if want is None else tuple(want))
            assert run.rank == (0 if want is None else 18)

    def test_target_rank_bounds(self, taylor):
        with pytest.raises(OutOfRange):
            random_search(taylor, target_rank=0, runs=1, seed=0)
        with pytest.raises(OutOfRange):
            random_search(taylor, target_rank=21, runs=1, seed=0)

    def test_invalid_input_refused(self):
        # four lines pairwise at -1/2: the Gram matrix has eigenvalue -1/2
        signs = [[0 if i == j else -1 for j in range(4)] for i in range(4)]
        ls = lineset.from_json_dict({"n": 4, "angle": "1/2", "signs": signs})
        assert not lineset.validate(ls).passed
        with pytest.raises(InvalidLineSet, match="positive_semidefinite"):
            random_search(ls, target_rank=2, runs=5, seed=0)

    def test_negative_runs_rejected(self, taylor):
        with pytest.raises(OutOfRange, match="runs"):
            random_search(taylor, target_rank=18, runs=-3, seed=0)
        summary = random_search(taylor, target_rank=18, runs=0, seed=0)
        assert summary.runs == 0 and summary.best is None

    def test_to_dict_one_based(self, taylor):
        summary = random_search(taylor, target_rank=18, runs=12, seed=0)
        doc = summary.to_dict()
        assert doc["runs"] == 12
        assert doc["target_rank"] == 18
        assert doc["seed"] == 0
        assert set(doc["histogram"]) <= {str(k) for k in range(91)}
        assert sum(summary.histogram.values()) == 12
        best = doc["best"]
        assert best["run"] == summary.best.index  # run numbers stay 0-based
        assert min(best["subset"]) >= 1  # line indices shift to 1-based
        assert best["closure_size"] == summary.best.closure_size
        assert best["subset"] == [i + 1 for i in summary.best.subset]
        assert best["closure"] == [i + 1 for i in summary.best.closure]

    def test_progress_called(self, taylor):
        def calls(runs):
            got = []
            random_search(
                taylor, 18, runs=runs, seed=0,
                progress=lambda a, b: got.append((a, b)),
            )
            return got

        # once after each block of 80 draws, never twice at the end
        assert calls(200) == [(80, 200), (160, 200), (200, 200)]
        assert calls(160) == [(80, 160), (160, 160)]
        assert calls(10) == [(10, 10)]
        assert calls(0) == []


def per_draw_summary(ls, rank, runs, seed):
    """(best, histogram, run_log) by the per-run merge that `random_search`
    made before its closures became masks: one `SearchRun` per draw from
    the per-draw oracle, then the histogram and the first run of
    maximal size, in run order."""
    oracle = PerDrawSpanEngine(linalg.integer_scaled(ls.gram)[0])
    log = []
    for i in range(runs):
        s = run_seed(seed, i)
        subset = tuple(sample_subset(SplitMix64(s), ls.n, rank))
        members = oracle.members(list(subset))
        closure = () if members is None else tuple(members)
        log.append(spansearch.SearchRun(
            i, s, subset, closure, len(closure), 0 if members is None else rank
        ))
    histogram, best = {}, None
    for run in log:
        histogram[run.closure_size] = histogram.get(run.closure_size, 0) + 1
        if best is None or run.closure_size > best.closure_size:
            best = run
    return best, histogram, tuple(log)


class TestMaskPath:
    """`random_search` decides its draws into closure masks and builds
    records only for the best run and for a `run_log` that is read."""

    @staticmethod
    def assert_matches_per_draw(ls, rank, runs, seed):
        summary = random_search(ls, rank, runs, seed)
        best, histogram, log = per_draw_summary(ls, rank, runs, seed)
        assert summary.best == best
        assert summary.histogram == histogram
        assert len(summary.run_log) == runs
        assert tuple(summary.run_log) == log
        assert summary.run_log == log
        return summary

    def test_no_runs(self, taylor):
        summary = self.assert_matches_per_draw(taylor, 18, 0, 0)
        assert summary.histogram == {} and summary.best is None
        assert list(summary.run_log) == [] and summary.run_log == ()
        with pytest.raises(IndexError):
            summary.run_log[0]

    def test_short_last_block_and_chunk(self, asche):
        engine = spansearch.SpanEngine(linalg.integer_scaled(asche.gram)[0])
        # asche72 at rank 18: blocks of 101 draws, chunks of 9 blocks
        assert engine.block(18) == 101
        runs = 909 + 101 + 7
        summary = self.assert_matches_per_draw(asche, 18, runs, 2)
        assert summary.run_log[-1] == summary.run_log[runs - 1]
        assert summary.run_log[-1].index == runs - 1
        assert summary.run_log[-3::2] == tuple(summary.run_log)[-3::2]

    def test_all_singular(self, taylor):
        # the first five seed-0 draws of 20 lines in taylor90 are singular
        summary = self.assert_matches_per_draw(taylor, 20, 5, 0)
        assert summary.histogram == {0: 5}
        best = summary.best
        assert (best.index, best.closure_size, best.rank) == (0, 0, 0)
        assert best.seed == run_seed(0, 0) and best.closure == ()

    def test_progress_crosses_a_chunk(self, asche):
        got = []
        random_search(asche, 18, 1017, 0, progress=lambda a, b: got.append((a, b)))
        # once per block of 101 draws, the last block of each chunk short
        done = [*range(101, 910, 101), 1010, 1017]
        assert got == [(k, 1017) for k in done]

    def test_records_built_on_read(self, asche, tmp_path, monkeypatch, capsys):
        path = tmp_path / "asche72.json"
        lineset.save(asche, str(path))
        built = []

        class Counted(spansearch.SearchRun):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(spansearch, "SearchRun", Counted)
        argv = ["search", str(path), "--rank", "18", "--runs", "300",
                "--seed", "0", "--json"]
        assert main(argv) == 0
        assert built == [11]  # the best run alone
        built.clear()
        assert main([*argv, "--csv", str(tmp_path / "runs.csv")]) == 0
        # --csv reads the log: the best run, then every run in order
        assert built == [11, *range(300)]
        capsys.readouterr()


class TestTierCounts:
    """Which span tier decides each seeded draw, pinned, so that a
    narrower budget cannot quietly move draws to slower tiers."""

    @pytest.mark.parametrize(
        "name,rank,runs,split",
        [
            ("asche", 18, 5000, (2726, 2253, 21, 0, 0)),
            ("taylor", 19, 2000, (1102, 883, 15, 0, 0)),
            ("tremain", 12, 2000, (1447, 553, 0, 0, 0)),
        ],
    )
    def test_seed0_split(self, name, rank, runs, split, request):
        ls = request.getfixturevalue(name)
        engine = spansearch.SpanEngine(linalg.integer_scaled(ls.gram)[0])
        assert engine.tier_counts == dict.fromkeys(
            ("float", "kernel", "singular", "modular", "exact"), 0
        )
        _, subsets = _draw_block(0, 0, runs, ls.n, rank)
        got = span_members_many(engine, subsets.tolist())
        assert tuple(engine.tier_counts.values()) == split
        summary = random_search(ls, rank, runs, 0)
        assert [run.closure for run in summary.run_log] == [
            () if g is None else tuple(g) for g in got
        ]

    def test_leftovers_reach_residues_a_block_at_a_time(
        self, asche, monkeypatch
    ):
        # with the kernel tier certifying nothing, the 2274 seed-0 draws
        # whose float det rounds to 0 are left open; they wait for a
        # whole block's worth (101 draws), so the residues take one
        # stack of two primes per draw for each 101 of them and one for
        # the rest, not one stack per block of 101 draws
        engine = spansearch.SpanEngine(linalg.integer_scaled(asche.gram)[0])
        _, subsets = _draw_block(0, 0, 5000, asche.n, 18)
        stacks = []
        kernel = spansearch._inverse_mod
        monkeypatch.setattr(
            spansearch, "_inverse_mod",
            lambda a, p: stacks.append(len(a)) or kernel(a, p),
        )
        monkeypatch.setattr(
            spansearch, "_kernel_zero", lambda a, max_m: np.zeros(len(a), bool)
        )
        span_members_many(engine, subsets.tolist())
        step, left = engine.block(18), engine.tier_counts["singular"]
        assert (step, left) == (101, 2274)
        assert stacks == [2 * step] * (left // step) + [2 * (left % step)]


class TestKernelCertificate:
    def test_balanced_kernel_vector_certified(self):
        # u4 = -u1 + u2 + u3, so v = (1, -1, -1, 1) spans the kernel of
        # the Gram; sum v_j = sum j*v_j = 0 makes v orthogonal to every
        # affine probe, such as 1 + frac(j * phi)
        us = [(2, 0, 1), (0, 3, 1), (1, 1, 4)]
        us.append(tuple(-a + b + c for a, b, c in zip(*us)))
        gram = [[sum(x * y for x, y in zip(u, w)) for w in us] for u in us]
        assert linalg.rank(RatMatrix.from_rows(gram)) == 3
        max_m = max(abs(x) for row in gram for x in row)
        a = np.array([gram], dtype=np.float64)
        assert spansearch._kernel_zero(a, max_m).tolist() == [True]
        engine = spansearch.SpanEngine(gram)
        assert span_members(engine, [0, 1, 2, 3]) is None
        assert engine.tier_counts["kernel"] == 1


class TestBlockArrays:
    """`SpanEngine` reuses its float-tier arrays across blocks, sizes
    and calls; no answer may depend on what they held before."""

    def test_reused_engine_matches_fresh_and_per_draw(self, asche):
        m_rows = linalg.integer_scaled(asche.gram)[0]
        engine = spansearch.SpanEngine(m_rows)
        # 5000 draws at rank 18 end in a short block
        assert 5000 == 49 * engine.block(18) + 51
        for rank, seed in ((18, 0), (12, 1), (18, 7)):
            _, subsets = _draw_block(seed, 0, 5000, asche.n, rank)
            subsets = subsets.tolist()
            got = span_members_many(engine, subsets)
            assert got == span_members_many(spansearch.SpanEngine(m_rows), subsets)
            # a sample of the full blocks and the whole short block
            for k in [*range(0, 4949, 97), *range(4949, 5000)]:
                assert span_members(engine, subsets[k]) == got[k]

    def test_residue_gather_leaves_block_arrays_alone(self, asche, monkeypatch):
        # with no kernel certificates, the residue tiers run between
        # float blocks; their Hadamard gather must not write the arrays
        # of the float tier
        engine = spansearch.SpanEngine(linalg.integer_scaled(asche.gram)[0])
        _, subsets = _draw_block(0, 0, 1000, asche.n, 18)
        monkeypatch.setattr(
            spansearch, "_kernel_zero", lambda a, max_m: np.zeros(len(a), bool)
        )
        hadamard, calls = engine._hadamard, []

        def spy(sub):
            before = [w.tobytes() for w in engine._work[18]]
            got = hadamard(sub)
            calls.append(len(sub))
            assert [w.tobytes() for w in engine._work[18]] == before
            return got

        monkeypatch.setattr(engine, "_hadamard", spy)
        got = span_members_many(engine, subsets.tolist())
        assert len(calls) >= 2
        monkeypatch.undo()
        fresh = spansearch.SpanEngine(linalg.integer_scaled(asche.gram)[0])
        assert got == span_members_many(fresh, subsets.tolist())

    @pytest.mark.parametrize("bad", [[0, 72], [-1, 5]])
    def test_index_out_of_range(self, asche, bad):
        engine = spansearch.SpanEngine(linalg.integer_scaled(asche.gram)[0])
        with pytest.raises(IndexError, match="line index out of range"):
            span_members_many(engine, [[0, 1], bad])


class TestExtract:
    def test_extract_validates(self, asche):
        summary = random_search(asche, target_rank=18, runs=60, seed=0)
        sub = extract_sublineset(asche, summary.best.closure)
        assert sub.n == 56
        assert sub.rank == 18
        assert sub.angle == F(1, 5)

    def test_extract_eliminates_once(self, monkeypatch, asche):
        closure = random_search(asche, 18, 12, 0).best.closure
        calls = []
        real = linalg.psd_basis

        def rank(*args):
            raise AssertionError("Gauss-Jordan rank ran")

        monkeypatch.setattr(
            linalg, "psd_basis", lambda g: calls.append(g.rows) or real(g)
        )
        monkeypatch.setattr(linalg, "rank", rank)
        sub = extract_sublineset(asche, closure)
        assert calls == [56] and (sub.n, sub.rank) == (56, 18)

    def test_coords_checked_once(self, asche, monkeypatch):
        closure = random_search(asche, 18, 12, 0).best.closure
        calls = []
        real = lineset._coords_check
        monkeypatch.setattr(
            lineset, "_coords_check", lambda ls: calls.append(ls.n) or real(ls)
        )
        # an unchecked parent: extraction checks the 56-line closure
        unchecked = lineset.loads(lineset.dumps(asche))
        assert extract_sublineset(unchecked, closure).n == 56
        assert calls == [56]
        # as `search --emit-best` runs: the complement checks the parent,
        # whose pass the closure takes on
        calls.clear()
        checked = lineset.loads(lineset.dumps(asche))
        orthogonal_complement(checked, closure)
        sub = extract_sublineset(checked, closure)
        assert calls == [72]
        assert lineset.validate(sub) == lineset.validate(
            lineset.loads(lineset.dumps(sub))
        )

    def test_extract_rejects_invalid_source(self):
        bad = LineSet.from_gram(
            RatMatrix.from_rows([[1, F(2, 5)], [F(2, 5), 1]]), F(1, 5)
        )
        with pytest.raises(ValueError, match="off_diagonal_pm_alpha"):
            extract_sublineset(bad, [0, 1])


def is_orthogonal_to_all(ls, indices, vector) -> bool:
    return all(
        sum(a * b for a, b in zip(ls.coords[i], vector)) == 0 for i in indices
    )


class TestOrthogonalComplement:
    def test_full_set_complement_is_construction_kernel(self, taylor):
        comp = orthogonal_complement(taylor, range(90))
        assert len(comp) == 4  # 24 ambient - rank 20
        for v in comp:
            assert is_orthogonal_to_all(taylor, range(90), v)
        # the four defining constraints span the same space
        base = RatMatrix.from_rows([list(v) for v in comp])
        r0 = linalg.rank(base)
        assert r0 == 4
        for known in (VEC_C, VEC_C1, VEC_C2, E1_MINUS_E2):
            aug = RatMatrix.from_rows([list(v) for v in comp] + [list(known)])
            assert linalg.rank(aug) == 4

    def test_frozen_56_subset_has_dim_6_complement(self, asche):
        summary = random_search(asche, target_rank=18, runs=60, seed=0)
        closure = summary.best.closure
        comp = orthogonal_complement(asche, closure)
        assert len(comp) == 6
        span_rows = [list(v) for v in comp]
        assert linalg.rank(RatMatrix.from_rows(span_rows)) == 6
        for v in comp:
            assert is_orthogonal_to_all(asche, closure, v)
        # all five defining constraint directions lie inside it
        for known in (VEC_C, VEC_C1, VEC_C2, E1_MINUS_E2, E1_MINUS_E3):
            aug = RatMatrix.from_rows(span_rows + [list(known)])
            assert linalg.rank(aug) == 6

    def test_no_lines_give_the_whole_space(self, asche):
        comp = orthogonal_complement(asche, [])
        dim = len(asche.coords[0])
        assert comp == [
            tuple(int(i == j) for j in range(dim)) for i in range(dim)
        ]

    def test_requires_coords(self):
        ls = hexagon()
        with pytest.raises(ValueError):
            orthogonal_complement(ls, [0])

    def test_coords_contradicting_gram(self, asche):
        coords = [list(row) for row in asche.coords]
        coords[0] = [-x for x in coords[0][:12]] + coords[0][12:]
        bad = LineSet.from_gram(asche.gram, asche.angle, coords,
                                asche.coords_norm_sq)
        # the whole set is checked, not only the indexed lines
        want = ("line set fails coords_match_gram (pair (0,1): dot product "
                "-40, expected 16)")
        with pytest.raises(ValueError, match=re.escape(want)):
            orthogonal_complement(bad, [1, 2])

    @pytest.mark.parametrize("bad", [[-1], [0, 90], [3, -90]])
    def test_index_out_of_range(self, taylor, bad):
        # a negative index would otherwise pick a line from the end
        with pytest.raises(IndexError, match="line index out of range"):
            orthogonal_complement(taylor, bad)
        with pytest.raises(IndexError, match="line index out of range"):
            span_closure(taylor, bad)

    def test_is_orthogonal_simple(self, taylor):
        # VEC_C lies in the complement of all 90 lines; a line's own
        # coordinate vector does not lie in its complement
        def in_span(vectors, v):
            rows = [list(u) for u in vectors]
            return linalg.rank(RatMatrix.from_rows(rows + [list(v)])) == len(rows)

        assert in_span(orthogonal_complement(taylor, range(90)), VEC_C)
        assert not in_span(
            orthogonal_complement(taylor, [0]), taylor.coords[0]
        )
