#!/usr/bin/env bash
# 90-line and 72-line sets at angle 1/5: exact row-for-row construction,
# ranks 20 and 19, full validation.
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

eqlines construct taylor90 -o "$work/taylor.json"
eqlines validate "$work/taylor.json"
eqlines construct asche72 -o "$work/asche.json"
eqlines validate "$work/asche.json"

python3 - <<'PY'
from eqlines._tables import TAYLOR_OCTADS
from eqlines.constructions import asche_72, g_vector, taylor_90

taylor = taylor_90()
assert taylor.n == 90 and taylor.rank == 20
for i, row in enumerate(TAYLOR_OCTADS):
    assert taylor.coords[i] == g_vector(row)

asche = asche_72()
assert asche.n == 72 and asche.rank == 19
assert sum(1 for row in TAYLOR_OCTADS if 3 in row) == 18
keep = [i for i, row in enumerate(TAYLOR_OCTADS) if 3 not in row]
sub = taylor.restrict(keep)
assert (asche.gram.nums, asche.gram.den) == (sub.gram.nums, sub.gram.den)
assert (asche.rank, asche.angle) == (sub.rank, sub.angle)
assert (asche.coords, asche.coords_norm_sq) == (sub.coords, sub.coords_norm_sq)
print("90 rows match the frozen table; the 72-line set equals the 90-line"
      " set without the 18 blocks containing point 3")
PY
echo "PASS: criterion 2"
