#!/usr/bin/env bash
# Octad generator: 759 blocks, first = {1..8}, every point in 253 blocks,
# pairwise intersections always 0, 2, or 4, every 5-subset in exactly one
# block, and the blocks are the 759 weight-8 words of a 12-dimensional
# XOR span.  Budget: 30 s.
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

start=$SECONDS
eqlines construct octads --json > "$work/octads.json"
elapsed=$((SECONDS - start))

python3 - "$work/octads.json" <<'PY'
import json, sys
from itertools import combinations

doc = json.load(open(sys.argv[1]))
octads = doc["octads"]
assert doc["count"] == len(octads) == 759
assert octads[0] == [1, 2, 3, 4, 5, 6, 7, 8]
masks = [sum(1 << (p - 1) for p in row) for row in octads]
for p in range(1, 25):
    assert sum(1 for m in masks if m >> (p - 1) & 1) == 253
sizes = {(a & b).bit_count() for a, b in combinations(masks, 2)}
assert sizes == {0, 2, 4}, sizes
# S(5,8,24): each 5-subset of {1..24} lies in exactly one block
fives = [sum(five) for m in masks
         for five in combinations([1 << k for k in range(24) if m >> k & 1], 5)]
assert len(set(fives)) == len(fives) == 42504
# the blocks are the weight-8 words of a 12-dimensional binary code
span = {0}
for m in masks:
    if m not in span:
        span |= {w ^ m for w in span}
assert len(span) == 1 << 12, len(span)
assert sum(1 for w in span if w.bit_count() == 8) == 759
print("759 octads verified: first block, point counts, intersections,"
      " 5-subsets, 12-dimensional span")
PY

test "$elapsed" -lt 30 || { echo "FAIL: took ${elapsed}s (budget 30s)"; exit 1; }
echo "PASS: criterion 1 (generated in ${elapsed}s)"
