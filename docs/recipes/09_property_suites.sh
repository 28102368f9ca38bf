#!/usr/bin/env bash
# Property suites against independent oracles:
#   9a  clique solver  vs brute-force enumeration (200 random graphs)
#   9b  candidate enumeration vs exact sign-system solving (25 rank 5-7
#       span closures in tremain28, taylor90 and asche72 that carry
#       non-basis lines, so every draw keeps candidates)
#   9c  span closures  vs the rank criterion (100 random subsets)
#   9d  exact PSD      vs numpy eigenvalues at 1e-9
#   9e  fraction-free rank, inverse, kernel and candidate system
#       vs the Fraction Gauss-Jordan oracles
#   9f  singularity in the residue tiers (zero units of the stacked
#       modular Gauss-Jordan) vs the one-prime elimination oracle and
#       the exact rank, up to the width rule's edge d * max|M| = 2^27,
#       and the exact tier's answers past it
#   9g  RatMatrix (numerators over one denominator) vs the
#       Fraction-tuple matrix oracle
#   9h  the residue tiers' one round loop (singular and modular) vs
#       the exact tier and the per-draw span oracle (shipped sets, wide
#       entries, a det divisible by a pool prime, draws just over the
#       float tier's 2^53 budget); draws past d * max|M| = 2^27 must
#       reach the exact tier
#   9i  shared rank/PSD elimination (psd_basis, from_gram) vs the old
#       PSD elimination oracle and the Gauss-Jordan rank (low-rank PSD,
#       zero-diagonal pairs, indefinite, non-symmetric, zero, 0x0 and
#       1x1 matrices)
#   9j  the basis found on load (LineSet.basis, select_basis) vs the
#       old greedy span scan, in order (the four shipped sets, 20 line
#       permutations and 10 random subsets of each), and NotPSD on a
#       set that is not PSD
#   9k  the span engine's kernel-vector certificate of singular draws vs
#       the exact rank (dependent groups of nullity 0-3, the four shipped
#       sets, entries near 2^22, indefinite and near-singular blocks, a
#       failing solve), its 2^53 budget, and its seed-0 asche72 count
#   9l  class-at-a-time clique coloring vs the recursive MCQ oracle:
#       size, witness, optimality and node count (240 random graphs,
#       unseeded and seeded; tremain14, asche72, taylor90, best56)
#   9m  candidates as pattern indices over the integer W, with the
#       graph from eps_i^T W eps_j, vs the Fraction Candidate list and
#       its lcm-integerized graph: patterns, coordinates and adjacency
#       (tremain14 on three bases, asche72, taylor90 basis J, best56,
#       10 random subsets)
#   9n  the scan and the pairwise forms past d^2 * max|W| = 2^63 vs
#       direct Python-int scans and the limb block scan, and the numpy
#       pairwise masks (object dtype) and the packed-lane rows vs
#       Python-int forms (entries +-2^60 to 2^70 at d = 5 to 16)
#   9o  the packed-lane scan and compatibility rows vs the numpy block
#       scan and pairwise_hits they replaced (tremain14, taylor90,
#       asche72, best56 on their default bases, recipe 04's and 05's
#       bases, 10 random subsets, random W at d = 2 to 23 with lanes
#       at exactly +-B, the wide entries of 9n)
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."

python3 -m pytest tests/test_acceptance.py -v -k "criterion_9"
echo "PASS: criterion 9"
