"""graph6 decoding of simple graphs.

Adjacency is represented as one Python int bitset per vertex (bit j of
row i set iff ij is an edge).  The byte format: optional ">>graph6<<"
header, the vertex count N(n), then ceil(n(n-1)/2 / 6) bytes of the
upper triangle read column by column, 6 bits per byte, offset by 63.
"""

from __future__ import annotations

from .errors import MalformedGraph6

HEADER = b">>graph6<<"


def _split_header(data: bytes) -> bytes:
    if data.startswith(HEADER):
        data = data[len(HEADER):]
    return data.strip(b"\r\n")


def _decode_n(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise MalformedGraph6("empty input")
    if data[0] != 126:  # '~'
        if not 63 <= data[0] <= 125:
            raise MalformedGraph6(f"bad size byte {data[0]}")
        return data[0] - 63, data[1:]
    # '~' then 3 size bytes, or '~~' then 6
    start, width = (1, 3) if len(data) >= 2 and data[1] != 126 else (2, 6)
    end = start + width
    if len(data) < end:
        raise MalformedGraph6(f"truncated {width}-byte vertex count")
    n = 0
    for b in data[start:end]:
        if not 63 <= b <= 126:
            raise MalformedGraph6(f"bad size byte {b}")
        n = (n << 6) | (b - 63)
    return n, data[end:]


def parse_graph6(data: bytes) -> tuple[int, list[int]]:
    """Decode one graph; returns (n, adjacency bitset rows)."""
    body = _split_header(data)
    n, rest = _decode_n(body)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(rest) != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} adjacency bytes for n = {n}, got {len(rest)}"
        )
    bits = []
    for b in rest:
        if not 63 <= b <= 126:
            raise MalformedGraph6(f"bad adjacency byte {b}")
        v = b - 63
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return n, adj
