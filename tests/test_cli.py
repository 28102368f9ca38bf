"""End-to-end command-line interface tests driven through main(argv)."""

import argparse
import csv
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eqlines
from eqlines import lineset
from eqlines.cli import (
    BLAS_THREAD_VARS,
    WORK_CEILING_CAP_BITS,
    _ceiling,
    build_parser,
    main,
)
from oracles import encode_graph6, w3_collinear


def petersen_bytes() -> bytes:
    adj = [0] * 10
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return encode_graph6(10, adj)


@pytest.fixture(scope="module")
def tremain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tremain.json"
    assert main(["construct", "tremain14", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def asche_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "asche.json"
    assert main(["construct", "asche72", "-o", str(path)]) == 0
    return str(path)


class TestBound:
    @pytest.mark.parametrize(
        "rank,alpha,text",
        [
            ("42", "1/7", "R(42, 1/7) = 288 (floor 288)"),
            ("41", "1/7", "R(41, 1/7) = 246 (floor 246)"),
            ("40", "1/7", "R(40, 1/7) = 640/3 (floor 213)"),
            ("39", "1/7", "R(39, 1/7) = 936/5 (floor 187)"),
            ("20", "1/5", "R(20, 1/5) = 96 (floor 96)"),
            ("19", "1/5", "R(19, 1/5) = 76 (floor 76)"),
        ],
    )
    def test_values(self, capsys, rank, alpha, text):
        assert main(["bound", rank, alpha]) == 0
        assert capsys.readouterr().out.strip() == text

    def test_json(self, capsys):
        assert main(["bound", "40", "1/7", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "alpha": "1/7",
            "exact": "640/3",
            "floor": 213,
            "rank": 40,
        }

    def test_out_of_hypothesis(self, capsys):
        assert main(["bound", "49", "1/7"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["0"], ["--", "-1/5"], ["1"]])
    def test_alpha_outside_unit_interval(self, capsys, args):
        """A refusal with exit 2 and one line on stderr, no traceback."""
        assert main(["bound", "3", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: alpha must lie in (0, 1), got {args[-1]}\n"
        )

    def test_bad_alpha(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "40", "0.14"])
        assert exc.value.code == 2


class TestInfo:
    def test_range(self, capsys):
        assert main(["info", "18"]) == 0
        assert capsys.readouterr().out.strip() == "N(18) in [56, 60]"

    def test_exact(self, capsys):
        assert main(["info", "7"]) == 0
        assert capsys.readouterr().out.strip() == "N(7) = 28"

    def test_json(self, capsys):
        assert main(["info", "23", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 23,
            "lower": 276,
            "upper": 276,
        }

    def test_out_of_table(self, capsys):
        assert main(["info", "44"]) == 2
        assert main(["info", "0"]) == 2


class TestConstruct:
    def test_tremain_human(self, capsys):
        assert main(["construct", "tremain14"]) == 0
        out = capsys.readouterr().out
        assert "28 lines, rank 14, angle 1/5" in out

    def test_octads_json(self, capsys):
        assert main(["construct", "octads", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 759
        assert doc["octads"][0] == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_octads_human(self, capsys):
        assert main(["construct", "octads"]) == 0
        assert "759 blocks" in capsys.readouterr().out

    def test_output_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "taylor.json"
        assert main(["construct", "taylor90", "-o", str(path)]) == 0
        ls = lineset.load(str(path))
        assert ls.n == 90 and ls.rank == 20

    def test_json_deterministic(self, capsys):
        assert main(["construct", "taylor90", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["construct", "taylor90", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    # sha256 of the files written before the Gram matrix moved from
    # Fraction entries to integer numerators
    PINNED = {
        "tremain14": "6c2cbf024446571f2214bf2212bd43babe1966189dc81dd1df7d5b69e391b107",
        "taylor90": "6b10f31075c2ebbebc1e3ccd173f07a39995f10f50d6190686df47173f7d1048",
        "asche72": "8a7f32ba79517c4bb1914a6933a1b56b7253225a87b77c33de7507b5d78ce7c7",
    }

    @pytest.mark.parametrize("target", sorted(PINNED))
    def test_output_file_bytes_pinned(self, tmp_path, capsys, target):
        path = tmp_path / f"{target}.json"
        assert main(["construct", target, "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED[target]

    # sha256 of the design file written by the full pruned search, before
    # the design became the weight-8 words of its first blocks' span
    PINNED_OCTADS = "2bb227d3ad49448328bf251afd37127cf64ebb0a2a8fb2eb50886368949c6382"

    def test_octads_file_bytes_pinned(self, tmp_path, capsys):
        path = tmp_path / "octads.json"
        assert main(["construct", "octads", "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_OCTADS


class TestFromGraph6:
    def test_petersen(self, tmp_path, capsys):
        g6 = tmp_path / "petersen.g6"
        g6.write_bytes(petersen_bytes())
        code = main(["construct", "from-graph6", str(g6), "--angle", "1/3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "10 lines, rank 5, angle 1/3" in captured.out
        assert "strongly regular: SRG(10, 3, 0, 1)" in captured.err

    def test_not_strongly_regular_warning(self, tmp_path, capsys):
        # path on 3 vertices
        g6 = tmp_path / "p3.g6"
        g6.write_bytes(encode_graph6(3, [0b010, 0b101, 0b010]))
        code = main(["construct", "from-graph6", str(g6), "--angle", "1/3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "not strongly regular" in captured.err

    def test_incompatible_angle_fails_validation(self, tmp_path, capsys):
        g6 = tmp_path / "petersen.g6"
        g6.write_bytes(petersen_bytes())
        assert main(["construct", "from-graph6", str(g6), "--angle", "1/2"]) == 1
        assert "not positive semidefinite" in capsys.readouterr().err

    def test_angle_required(self, tmp_path):
        g6 = tmp_path / "petersen.g6"
        g6.write_bytes(petersen_bytes())
        with pytest.raises(SystemExit) as exc:
            main(["construct", "from-graph6", str(g6)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("angle", ["0", "1", "-1/3"])
    def test_angle_outside_unit_interval(self, tmp_path, capsys, angle):
        g6 = tmp_path / "petersen.g6"
        g6.write_bytes(petersen_bytes())
        assert main(["construct", "from-graph6", str(g6), f"--angle={angle}"]) == 2
        assert "angle must lie in (0, 1)" in capsys.readouterr().err

    def test_file_required(self, capsys):
        assert main(["construct", "from-graph6", "--angle", "1/3"]) == 2

    def test_missing_file(self, capsys):
        assert main(["construct", "from-graph6", "no.g6", "--angle", "1/3"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        g6 = tmp_path / "bad.g6"
        g6.write_bytes(b"B")  # n=3 but no edge bytes
        assert main(["construct", "from-graph6", str(g6), "--angle", "1/3"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_file_decoded_once(self, tmp_path, capsys, monkeypatch):
        # the handler imports parse_graph6 when it runs, so the spy on
        # the module attribute sees every decode of the file
        from eqlines import graph6

        calls = []
        real = graph6.parse_graph6

        def spy(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(graph6, "parse_graph6", spy)
        g6 = tmp_path / "petersen.g6"
        g6.write_bytes(petersen_bytes())
        assert main(["construct", "from-graph6", str(g6), "--angle", "1/3"]) == 0
        assert calls == [petersen_bytes()]

    def test_w3_collinearity_fifth(self, tmp_path, capsys):
        g6 = tmp_path / "w3.g6"
        g6.write_bytes(encode_graph6(40, w3_collinear()))
        assert main(["construct", "from-graph6", str(g6), "--angle", "1/5"]) == 0
        out, err = capsys.readouterr()
        assert out == "from-graph6: 40 lines, rank 16, angle 1/5\n"
        assert err == "strongly regular: SRG(40, 12, 2, 4)\n"


class TestValidate:
    def test_pass(self, tremain_file, capsys):
        assert main(["validate", tremain_file]) == 0
        out = capsys.readouterr().out
        assert "PASS: 28 lines, rank 14, angle 1/5" in out
        # five invariants, and coords_match_gram for its coordinates
        assert out.count(": ok") == 6
        assert "coords_match_gram: ok" in out

    def test_json(self, tremain_file, capsys):
        assert main(["validate", tremain_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["n"] == 28
        assert len(doc["checks"]) == 6

    def test_coords_contradicting_signs(self, asche_file, tmp_path, capsys):
        doc = json.loads(Path(asche_file).read_text())
        row = doc["coords"][0]
        doc["coords"][0] = [-x for x in row[:12]] + row[12:]
        path = tmp_path / "bad_coords.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert ("coords_match_gram: FAIL (pair (0,1): dot product -40, "
                "expected 16)") in out
        assert out.count(": ok") == 5 and "FAIL: 72 lines" in out
        # search's emitted set goes through validate too, so it is refused
        best = tmp_path / "best.json"
        argv = ["search", str(path), "--rank", "18", "--runs", "12", "--seed", "0",
                "--json", "--emit-best", str(best)]
        assert main(argv) == 2
        assert "coords_match_gram" in capsys.readouterr().err
        assert not best.exists()
        # saturate reads the Gram alone, which the coordinates do not
        # change: the same output as on asche72 itself
        assert main(["saturate", asche_file, "--json"]) == 0
        expected = capsys.readouterr().out
        assert main(["saturate", str(path), "--json"]) == 0
        assert capsys.readouterr().out == expected
        assert main(["validate", str(path)]) == 1

    def test_fail_not_psd(self, tmp_path, capsys):
        # 3 lines at pairwise angle arccos(2/3) cannot exist in any rank:
        # the all-minus sign triangle at alpha 2/3 is not PSD
        doc = {
            "n": 3,
            "angle": "2/3",
            "signs": [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_gram_form_accepted(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "angle": "1/3",
            "gram": [["1", "1/3"], ["1/3", "1"]],
        }
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2


PAIR = [[0, 1], [1, 0]]


@pytest.mark.parametrize("command", ["validate", "saturate"])
@pytest.mark.parametrize(
    "doc,field",
    [
        ({"n": 2, "signs": PAIR}, '"angle"'),
        ({"angle": "1/0", "signs": PAIR}, '"angle"'),
        ({"angle": 0.2, "signs": PAIR}, '"angle"'),
        ({"angle": "1/3", "signs": 5}, '"signs"'),
        ({"angle": "1/3", "signs": [5]}, '"signs"'),
        ([{"angle": "1/3", "signs": PAIR}], "JSON object"),
        ({"n": 3, "angle": "1/3", "signs": PAIR}, '"n"'),
        ({"angle": "1/3", "signs": [[0, 1.5], [1.5, 0]]}, '"signs"'),
        ({"angle": "1/3", "signs": [[0, "1"], ["1", 0]]}, '"signs"'),
        ({"angle": "1/3", "signs": [[0, True], [True, 0]]}, '"signs"'),
        ({"angle": "1/3", "gram": [["1", "x"], ["x", "1"]]}, '"gram"'),
        ({"angle": "0", "signs": PAIR}, "angle"),
        ({"angle": "-1/3", "signs": PAIR}, "angle"),
        ({"angle": "1", "signs": PAIR}, "angle"),
        ({"angle": "1/3", "signs": PAIR, "coords": [[1.5, 2], [2, 1]]}, '"coords"'),
        ({"angle": "1/3", "signs": PAIR, "coords": [[1, "2"], [2, 1]]}, '"coords"'),
        ({"angle": "1/3", "signs": PAIR, "coords": [[1, 2], [True, 1]]}, '"coords"'),
        ({"angle": "1/3", "signs": PAIR, "coords": [[1, 2], [2]]}, '"coords"'),
        ({"angle": "1/3", "signs": PAIR, "coords": [[1, 2], [2, 1]],
          "coords_norm_sq": "x"}, '"coords_norm_sq"'),
    ],
    ids=["no-angle", "angle-1/0", "angle-float", "signs-int", "signs-row-int",
         "top-level-array", "n-mismatch", "sign-1.5", "sign-string",
         "sign-bool", "gram-junk", "angle-0", "angle-neg", "angle-1",
         "coord-1.5", "coord-string", "coord-bool", "coords-ragged",
         "norm-string"],
)
def test_malformed_lineset_file_is_usage_error(tmp_path, capsys, command, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


class TestSaturate:
    BASIS = ",".join(str(i) for i in range(2, 29, 2))

    def test_named_basis_json(self, tremain_file, capsys):
        code = main(
            ["saturate", tremain_file, "--basis", self.BASIS, "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["basis"] == list(range(2, 29, 2))
        assert doc["candidate_count"] == 378
        assert doc["clique_number"] == 14
        assert doc["N"] == 28
        assert doc["saturated"] is True
        assert doc["total_patterns"] == 1 << 13

    def test_human_output(self, tremain_file, capsys):
        assert main(["saturate", tremain_file, "--basis", self.BASIS]) == 0
        captured = capsys.readouterr()
        assert "candidates: 378" in captured.out
        assert "clique number: 14" in captured.out
        assert "N = 14 + 14 = 28" in captured.out
        assert "saturated: yes" in captured.out
        assert "patterns:" in captured.err  # progress went to stderr

    def test_json_byte_identical(self, tremain_file, capsys):
        argv = ["saturate", tremain_file, "--basis", self.BASIS, "--json"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err == ""

    def test_engine_flag_is_usage_error(self, tremain_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["saturate", tremain_file, "--json", "--engine", "gray"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_work_ceiling_refusal(self, tremain_file, capsys):
        code = main(["saturate", tremain_file, "--work-ceiling", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "refusing" in err and "--force" in err

    def test_graph_memory_refusal_and_force(self, tremain_file, capsys,
                                            monkeypatch):
        """Above GRAPH_BYTES_LIMIT (K^2/8 bytes) the graph is refused
        before it is built; --force builds it, with unchanged output."""
        from eqlines import _intops, saturation

        argv = ["saturate", tremain_file, "--json"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        # tremain14's default basis gives K = 431: 23,220 bytes
        monkeypatch.setattr(saturation, "GRAPH_BYTES_LIMIT", 20_000)
        real = _intops.pairwise_rows

        def refused(*args):
            raise AssertionError("graph built despite the limit")

        monkeypatch.setattr(_intops, "pairwise_rows", refused)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refusing" in captured.err and "K = 431" in captured.err
        assert "23220 bytes" in captured.err and "--force" in captured.err
        monkeypatch.setattr(_intops, "pairwise_rows", real)
        assert main([*argv, "--force"]) == 0
        assert capsys.readouterr().out == want

    def test_work_ceiling_power_syntax_and_force(self, tremain_file, capsys):
        code = main(
            ["saturate", tremain_file, "--work-ceiling", "2^6", "--force",
             "--basis", self.BASIS, "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["saturated"] is True

    def test_export_graph(self, tremain_file, tmp_path, capsys):
        clq = tmp_path / "compat.clq"
        code = main(
            ["saturate", tremain_file, "--basis", self.BASIS,
             "--export-graph", str(clq), "--json"]
        )
        assert code == 0
        lines = clq.read_text().splitlines()
        header = next(l for l in lines if l.startswith("p "))
        fields = header.split()
        assert fields[:3] == ["p", "edge", "378"]
        m = int(fields[3])
        edge_lines = [l for l in lines if l.startswith("e ")]
        assert len(edge_lines) == m > 0

    def test_rank_deficient_basis_rejected(self, tremain_file, capsys):
        # 1-based odd labels = complementary alternation, rank 13
        basis = ",".join(str(i) for i in range(1, 28, 2))
        assert main(["saturate", tremain_file, "--basis", basis]) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_index_rejected(self, tremain_file):
        with pytest.raises(SystemExit) as exc:
            main(["saturate", tremain_file, "--basis", "0,1,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_index_past_last_line_rejected(self, tremain_file, capsys, flag):
        basis = self.BASIS.replace("28", "99")
        assert main(["saturate", tremain_file, "--basis", basis, *flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: basis index out of range\n"

    @pytest.mark.parametrize("extra", [[], ["--work-ceiling", "0"]])
    def test_rank_zero_refused(self, tmp_path, capsys, extra):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "angle": "1/3", "signs": []}))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["saturate", str(path), "--json", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: saturation needs a line set of rank at least 1\n"

    @pytest.mark.parametrize(
        "doc,failed",
        [
            # a diagonal entry 2 and off-diagonal 1/3 at angle 1/5: every
            # line lies in the basis, so nothing downstream notices
            ({"angle": "1/5", "gram": [["2", "1/3", "1/3"],
                                       ["1/3", "1", "1/3"],
                                       ["1/3", "1/3", "1"]]},
             ["unit_diagonal", "off_diagonal_pm_alpha"]),
            # entries +-1/5 declared at angle 1/7
            ({"angle": "1/7", "gram": [["1", "-1/5"], ["-1/5", "1"]]},
             ["off_diagonal_pm_alpha"]),
        ],
        ids=["diagonal-2", "angle-mismatch"],
    )
    def test_invalid_input_refused_like_validate(
        self, tmp_path, capsys, doc, failed
    ):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()
        assert main(["saturate", str(path), "--json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("validation failure: line set fails ")
        named = {c for c in ("symmetric", "unit_diagonal", "off_diagonal_pm_alpha",
                             "positive_semidefinite") if c in err}
        assert named == set(failed)


class TestSearch:
    ARGS = ["--rank", "18", "--runs", "60", "--seed", "0"]

    def test_json_document(self, asche_file, capsys):
        assert main(["search", asche_file, *self.ARGS, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 60
        assert doc["seed"] == 0
        best = doc["best"]
        assert best["run"] == 11
        assert best["closure_size"] == 56
        assert best["rank"] == 18
        assert len(best["closure"]) == 56
        assert min(best["closure"]) >= 1
        assert len(doc["complement"]) == 6
        assert all(len(v) == 24 for v in doc["complement"])

    def test_invalid_input_refused_like_saturate(self, tmp_path, capsys):
        # four lines pairwise at -1/2 exist in no rank
        signs = [[0 if i == j else -1 for j in range(4)] for i in range(4)]
        path = tmp_path / "not_psd.json"
        path.write_text(json.dumps({"n": 4, "angle": "1/2", "signs": signs}))
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()
        argv = ["search", str(path), "--rank", "2", "--runs", "5", "--seed", "0",
                "--json"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "validation failure: line set fails positive_semidefinite"
        )

    def test_coords_contradicting_gram_refused(self, asche_file, tmp_path,
                                               capsys):
        doc = json.loads(Path(asche_file).read_text())
        row = doc["coords"][0]
        doc["coords"][0] = [-x for x in row[:12]] + row[12:]
        path = tmp_path / "bad_coords.json"
        path.write_text(json.dumps(doc))
        assert main(["search", str(path), *self.ARGS, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: line set fails coords_match_gram (pair (0,1): "
                       "dot product -40, expected 16)\n")

    def test_contradicting_coords_refused_before_any_draw(
        self, asche_file, tmp_path, capsys, monkeypatch
    ):
        from eqlines import spansearch

        doc = json.loads(Path(asche_file).read_text())
        row = doc["coords"][0]
        row[row.index(-1)] = 0  # one coordinate changed: norm 79, not 80
        path = tmp_path / "one_coord.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(spansearch, "random_search",
                            lambda *a, **k: calls.append(a))
        for runs in ("0", "50"):
            argv = ["search", str(path), "--rank", "18", "--runs", runs,
                    "--seed", "0"]
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: line set fails coords_match_gram (pair (0,0): "
                           "dot product 79, expected 80)\n")
        assert calls == []

    def test_unallocatable_run_count_is_usage_error(self, asche_file, capsys):
        # the draw array alone needs 10^15 * 18 * 8 bytes, beyond any
        # address space, so numpy refuses it before touching a page
        argv = ["search", asche_file, "--rank", "18", "--runs",
                "1000000000000000", "--seed", "0", "--json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: not enough memory: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_negative_runs_rejected(self, asche_file, capsys):
        argv = ["search", asche_file, "--rank", "18", "--runs", "-3",
                "--seed", "0", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "runs" in captured.err

    def test_human_output(self, asche_file, capsys):
        assert main(["search", asche_file, *self.ARGS]) == 0
        captured = capsys.readouterr()
        assert "best closure: 56 lines of rank 18 at run 11" in captured.out
        assert "orthogonal complement of the best closure:" in captured.out
        assert "histogram (closure size: runs):" in captured.out
        assert "runs:" in captured.err

    def test_csv_log(self, asche_file, tmp_path, capsys):
        log = tmp_path / "runs.csv"
        assert main(["search", asche_file, *self.ARGS, "--csv", str(log)]) == 0
        with open(log, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "seed", "closure_size", "rank_ok"]
        assert len(rows) == 61
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(60)]
        assert rows[12][2] == "56" and rows[12][3] == "true"

    def test_emit_best_round_trip(self, asche_file, tmp_path, capsys):
        best = tmp_path / "best56.json"
        assert main(
            ["search", asche_file, *self.ARGS, "--emit-best", str(best)]
        ) == 0
        capsys.readouterr()
        assert main(["validate", str(best)]) == 0
        ls = lineset.load(str(best))
        assert ls.n == 56 and ls.rank == 18

    def test_json_byte_identical(self, asche_file, capsys):
        argv = ["search", asche_file, *self.ARGS, "--json", "--threads", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        argv[-1] = "3"
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bad_rank(self, asche_file, capsys):
        assert main(
            ["search", asche_file, "--rank", "0", "--runs", "1", "--seed", "0"]
        ) == 2
        assert main(
            ["search", asche_file, "--rank", "20", "--runs", "1", "--seed", "0"]
        ) == 2

    def test_hex_seed_accepted(self, asche_file, capsys):
        assert main(
            ["search", asche_file, "--rank", "18", "--runs", "2",
             "--seed", "0xDEADBEEF", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0xDEADBEEF


class TestExitFreeze:
    """A program run freezes the heap just before `main` returns, so the
    interpreter's collection at exit skips it; a `main(argv)` call
    leaves the heap as it was."""

    SEARCH = ["--rank", "18", "--runs", "60", "--seed", "0", "--json"]

    @pytest.fixture
    def unfrozen(self):
        gc.unfreeze()
        yield
        gc.unfreeze()

    def test_call_with_argv_freezes_nothing(self, asche_file, capsys):
        before = gc.get_freeze_count()
        assert main(["info", "18"]) == 0
        assert main(["search", asche_file, *self.SEARCH]) == 0
        assert main(["validate", "no-such-file.json"]) == 2
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("args,code", [
        (["info", "18"], 0), (["validate", "no-such-file.json"], 2),
    ])
    def test_program_run_freezes(self, unfrozen, monkeypatch, capsys, args, code):
        monkeypatch.setattr(sys, "argv", ["eqlines", *args])
        assert gc.get_freeze_count() == 0
        assert main() == code
        assert gc.get_freeze_count() > 0

    def test_program_run_prints_as_in_process(self, asche_file, capsys):
        argv = ["search", asche_file, *self.SEARCH]
        assert main(argv) == 0
        want = capsys.readouterr().out
        env = dict(os.environ)
        src = str(Path(eqlines.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from eqlines.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == want


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_ceiling(self, tremain_file):
        with pytest.raises(SystemExit) as exc:
            main(["saturate", tremain_file, "--work-ceiling", "many"])
        assert exc.value.code == 2

    def test_ceiling_powers_by_bit_length(self):
        assert _ceiling("2^24") == 1 << 24
        assert _ceiling("10^3") == 1000
        assert _ceiling("1^1000000000000") == 1
        assert _ceiling("0^0") == 1
        # never evaluated: 2^(10^12) would need 125 GB
        assert _ceiling("2^1000000000000") == 1 << WORK_CEILING_CAP_BITS

    @pytest.mark.parametrize("text", ["2^-1", "-2^3", "2^x", "^3"])
    def test_bad_ceiling_power(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _ceiling(text)


IMPORT_BUDGET_SCRIPT = """
import contextlib, io, json, sys
from eqlines.cli import main

tremain, asche = sys.argv[1:]
report = {"codes": {}, "numpy": {}}
for argv in (["construct", "tremain14", "-o", tremain],
             ["construct", "asche72", "-o", asche], ["validate", asche],
             ["info", "20"], ["bound", "18", "1/5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"][" ".join(argv[:2])] = main(argv)
    report["numpy"][" ".join(argv[:2])] = "numpy" in sys.modules

import eqlines
report["unresolved"] = [n for n in eqlines.__all__ if not hasattr(eqlines, n)]
for argv in (["saturate", tremain, "--json"],
             ["search", asche, "--rank", "18", "--runs", "3", "--seed", "0",
              "--json"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        report["codes"][argv[0]] = main(argv)
    report[argv[0]] = json.loads(out.getvalue())
print(json.dumps(report))
"""

# Runs one CLI call in a fresh interpreter and reports the eqlines
# modules (and csv) it loaded, whether it loaded numpy, dataclasses and
# inspect, and the BLAS thread variables as numpy began to load.
LOAD_PROBE_SCRIPT = """
import contextlib, io, json, os, sys

BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = {}

class NumpyProbe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in BLAS})
        return None

sys.meta_path.insert(0, NumpyProbe())
from eqlines.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "blas": seen, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules,
                  "modules": sorted(m for m in sys.modules
                                    if m.startswith("eqlines") or m == "csv")}))
"""


def test_import_budget(tmp_path):
    """construct, validate, info and bound never import numpy, every
    name in eqlines.__all__ resolves, and saturate and search still run
    once the lazily imported modules load (in a fresh interpreter).
    In fresh interpreters of their own, saturate and search load no
    construction module and no csv module (search loads it for --csv
    alone), saturate loads no numpy, with --json, with its human output
    and with --export-graph, search's numpy starts loading with one
    BLAS thread unless the caller set a thread count, and construct
    asche72 does not load the graph6 codec.  saturate, validate, bound,
    info and construct load neither dataclasses nor inspect (each costs
    start-up time), and search loads no dataclasses."""
    src = str(Path(eqlines.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT,
         str(tmp_path / "tremain.json"), str(tmp_path / "asche.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert not any(report["numpy"].values()), report["numpy"]
    assert report["unresolved"] == []
    assert set(report["codes"].values()) == {0}, report["codes"]
    assert report["saturate"]["saturated"] is True
    assert report["search"]["runs"] == 3

    def probe(argv, **blas):
        env_probe = {k: v for k, v in env.items() if k not in BLAS_THREAD_VARS}
        env_probe.update(blas)
        proc = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE_SCRIPT, *argv],
            capture_output=True, text=True, env=env_probe, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["code"] == 0
        return got

    unused = {"eqlines.constructions", "eqlines.graph6", "eqlines._tables",
              "csv"}
    tremain = str(tmp_path / "tremain.json")
    for argv in ([tremain, "--json"], [tremain],
                 [tremain, "--export-graph", str(tmp_path / "tremain.clq")]):
        got = probe(["saturate", *argv])
        assert not unused & set(got["modules"]), got["modules"]
        assert not got["numpy"] and got["blas"] == {}, got
        assert not got["dataclasses"] and not got["inspect"], got
    assert (tmp_path / "tremain.clq").read_text().startswith("p edge 431 ")
    argv = ["search", str(tmp_path / "asche.json"), "--rank", "18",
            "--runs", "3", "--seed", "0", "--json"]
    got = probe(argv)
    assert not unused & set(got["modules"]), got["modules"]
    assert got["numpy"] and not got["dataclasses"], got
    assert got["blas"] == dict.fromkeys(BLAS_THREAD_VARS, "1")
    # only --csv loads the csv module
    got = probe([*argv, "--csv", str(tmp_path / "runs.csv")])
    assert "csv" in got["modules"], got["modules"]
    # a caller's own thread count wins, and the others stay unset
    got = probe(argv, OPENBLAS_NUM_THREADS="3")
    assert got["blas"] == {
        "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": None,
    }
    # a named construction leaves the graph6 codec unloaded
    got = probe(["construct", "asche72"])
    assert "eqlines.constructions" in got["modules"]
    assert "eqlines.graph6" not in got["modules"], got["modules"]
    assert not got["dataclasses"] and not got["inspect"], got
    for argv in (["validate", str(tmp_path / "asche.json")],
                 ["bound", "40", "1/7"], ["info", "20"]):
        got = probe(argv)
        assert not got["dataclasses"] and not got["inspect"], (argv, got)


ROOT = Path(__file__).resolve().parents[1]

# an `eqlines <subcommand>` call up to the end of its line, a comment,
# a redirection, a closing backquote or parenthesis, or a semicolon
_CALL = re.compile(r"\beqlines\s+([a-z][\w-]*)([^\n`#>);]*)")


def _documented_calls() -> list[tuple[str, str, list[str]]]:
    """(file, subcommand, --options) of every `eqlines <subcommand>` call
    in README.md and docs/recipes/*.sh.  A shell line continuation, and
    an indented line that opens with "[" (a wrapped usage synopsis),
    continue the call of the line before."""
    calls = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs" / "recipes").glob("*.sh"))]:
        text = re.sub(r"\\\n", " ", path.read_text())
        text = re.sub(r"\n(?=[ \t]+\[)", " ", text)
        for m in _CALL.finditer(text):
            options = re.findall(r"(?<![\w-])--[a-z][\w-]*", m.group(2))
            calls.append((path.name, m.group(1), options))
    return calls


def test_documented_options_exist_on_their_subcommand():
    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    commands = subparsers.choices
    calls = [c for c in _documented_calls() if c[1] in commands]
    # the pattern must keep finding the usage block and the recipes' calls
    assert len(calls) >= 25
    assert {name for name, _, _ in calls} >= {"README.md", "07_search_rank18.sh"}
    assert {"--emit-best", "--basis", "--angle"} <= {
        o for _, _, options in calls for o in options
    }
    missing = [
        (name, command, option)
        for name, command, options in calls
        for option in options
        if option not in commands[command]._option_string_actions
    ]
    assert not missing, f"documented options the parser lacks: {missing}"
