"""Exact lattice-point pipelines for chain polytopes and string polytopes.

The package constructs, in exact integer/rational arithmetic, the lattice
points of the PBW-chain polytopes of families A and C, the string points of
the matching Demazure modules in rank 2n-1, and the affine unimodular map
carrying one set onto the other, together with verification pipelines that
confirm the set equality and its supporting properties by exhaustive
computation at small rank.
"""

__version__ = "0.1.0"
