"""graph6 decoder: known encodings, round trips through the test
encoder, malformed input."""

import pytest

from eqlines import graph6
from eqlines.errors import MalformedGraph6
from eqlines.maxclique import SimpleGraph
from eqlines.spansearch import SplitMix64
from oracles import _encode_n, encode_graph6


def petersen_adj() -> list[int]:
    """Outer 5-cycle 0-4, inner pentagram 5-9, spokes i <-> i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    adj = [0] * 10
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


class TestKnownEncodings:
    def test_trivial_graphs(self):
        assert graph6.parse_graph6(b"?") == (0, [])
        assert graph6.parse_graph6(b"@") == (1, [0])
        # n = 2, one edge
        assert graph6.parse_graph6(b"A_") == (2, [2, 1])
        # n = 2, no edge
        assert graph6.parse_graph6(b"A?") == (2, [0, 0])

    def test_k4(self):
        n, adj = graph6.parse_graph6(b"C~")
        assert n == 4
        assert all(row == (0b1111 ^ (1 << i)) for i, row in enumerate(adj))
        assert encode_graph6(4, adj) == b"C~"

    def test_header_accepted(self):
        assert graph6.parse_graph6(b">>graph6<<A_\n") == (2, [2, 1])

    def test_encode_sizes(self):
        # the decoder reads each size form: 1 byte up to n = 62, 4 bytes
        # from 63, and 8 bytes (written by encoders only from n = 258048,
        # but read for any n)
        assert encode_graph6(0, []) == b"?"
        assert graph6.parse_graph6(b"?") == (0, [])
        path = [0] * 62
        for i in range(61):
            path[i] |= 1 << i + 1
            path[i + 1] |= 1 << i
        small = encode_graph6(62, path)
        assert small[:1] == bytes([63 + 62])
        assert graph6.parse_graph6(small) == (62, path)
        big = encode_graph6(63, path + [0])
        assert big[0] == 126 and len(big) == 4 + (63 * 62 // 2 + 5) // 6
        assert graph6.parse_graph6(big) == (63, path + [0])
        assert graph6.parse_graph6(b"~~?????A_") == (2, [2, 1])


class TestRoundTrip:
    def test_petersen(self):
        adj = petersen_adj()
        data = graph6.parse_graph6(encode_graph6(10, adj))
        assert data == (10, adj)

    def test_random_graphs(self):
        rng = SplitMix64(42)
        for _ in range(30):
            n = rng.below(30)
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.below(2):
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            enc = encode_graph6(n, adj, header=bool(rng.below(2)))
            assert graph6.parse_graph6(enc) == (n, adj)

    def test_large_n_prefix(self):
        # 3-byte form for 63 <= n <= 258047, 6-byte form above
        n, rest = graph6._decode_n(_encode_n(100))
        assert (n, rest) == (100, b"")
        n, rest = graph6._decode_n(_encode_n(258047))
        assert (n, rest) == (258047, b"")
        n, rest = graph6._decode_n(_encode_n(258048))
        assert (n, rest) == (258048, b"")


class TestMalformed:
    @pytest.mark.parametrize(
        "data",
        [
            b"",  # empty
            b"B",  # missing adjacency bytes for n = 3
            b"A__",  # too many adjacency bytes
            b"A\x1f",  # byte below 63
            b"A\x7f",  # byte above 126
            b"~?",  # truncated 3-byte count
            b"~~??",  # truncated 6-byte count
        ],
    )
    def test_rejects(self, data):
        with pytest.raises(MalformedGraph6):
            graph6.parse_graph6(data)

    @pytest.mark.parametrize("first", [0, 127, 200, 255])
    def test_rejects_bad_first_size_byte(self, first):
        # the 1-byte form holds 63..125 (n = 0..62); 126 is the '~'
        # marker, and a byte outside 63..126 is no size at all
        with pytest.raises(MalformedGraph6, match=f"^bad size byte {first}$"):
            graph6.parse_graph6(bytes([first]) + b"?" * 336)

    def test_rejects_nonzero_padding(self):
        # n = 3 has 3 adjacency bits; set a padding bit below them
        bad = bytes([63 + 3, 63 + 0b000001])
        with pytest.raises(MalformedGraph6):
            graph6.parse_graph6(bad)

    def test_encode_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            encode_graph6(2, [2, 0])
        # graph6 holds one bit per pair, so every decoded graph is
        # symmetric: all 64 graphs on 4 vertices pass `SimpleGraph`
        for byte in range(63, 127):
            n, adj = graph6.parse_graph6(bytes([63 + 4, byte]))
            assert SimpleGraph(n, tuple(adj)).n == 4
            assert all(
                (adj[i] >> j & 1) == (adj[j] >> i & 1)
                for i in range(4) for j in range(4)
            )

    def test_encode_rejects_self_loop(self):
        with pytest.raises(ValueError):
            encode_graph6(1, [1])
        # graph6 holds no diagonal bit, so no decoded graph has a loop
        assert graph6.parse_graph6(b"@") == (1, [0])
        for byte in range(63, 127):
            _, adj = graph6.parse_graph6(bytes([63 + 4, byte]))
            assert not any(row >> i & 1 for i, row in enumerate(adj))
