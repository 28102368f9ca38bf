#!/usr/bin/env bash
# 344 lines at angle 1/7 from a user-supplied strongly regular graph
# with parameters (344, 168, 92, 72), then a rank-42 span search.
#
# Usage: 08_srg344.sh <graph6-file>   (or set EQLINES_SRG344)
# The graph file is not bundled; without one this recipe reports SKIP.
set -euo pipefail

file="${1:-${EQLINES_SRG344:-}}"
if [ -z "$file" ] || [ ! -f "$file" ]; then
    echo "SKIP: criterion 8 (no SRG(344,168,92,72) graph6 file supplied)"
    exit 0
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The graph's adjacency eigenvalues are 168, 24 (x43) and -4.  Read by
# `construct from-graph6` (S = J - I - 2A, adjacent pairs at -1/7) the
# Gram I + S/7 has the eigenvalue -6 and is refused as not PSD; read with
# S = 2A - J + I (adjacent pairs at +1/7) it has the eigenvalues 8 (x43)
# and 0, so the lines are built here by `from_adjacency` of the
# complement rows, which gives that sign rule.
python3 - "$file" "$work/lines344.json" <<'PY'
import sys
from fractions import Fraction
from eqlines import lineset
from eqlines.constructions import from_adjacency, srg_check
from eqlines.graph6 import parse_graph6
with open(sys.argv[1], "rb") as f:
    n, adj = parse_graph6(f.read())
assert srg_check(n, adj) == (344, 168, 92, 72), "not an SRG(344,168,92,72)"
full = (1 << n) - 1
complement = [full ^ row ^ (1 << i) for i, row in enumerate(adj)]
ls = from_adjacency(n, complement, Fraction(1, 7))
assert ls.n == 344, ls.n
assert ls.rank == 43, ls.rank
lineset.save(ls, sys.argv[2])
print("344 lines at rank 43 built")
PY
eqlines validate "$work/lines344.json"

eqlines search "$work/lines344.json" --rank 42 --runs 2000 --seed 0 \
    --json > "$work/summary.json"
python3 - "$work/summary.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
best = doc["best"]["closure_size"]
assert best >= 200, f"best closure {best} < 200"
print(f"best rank-42 closure: {best} lines (>= 200)")
PY
echo "PASS: criterion 8"
