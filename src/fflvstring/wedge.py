"""Independent oracle: exact lowering-operator actions on exterior powers.

A basis wedge e_{t_1} ^ ... ^ e_{t_i} is keyed by the bitmask sum 2^{t_k}, and
a wedge vector is a sparse map from such keys to integers: a lowering step
picks up neither a sign nor a denominator, so every coefficient is a
nonnegative integer.  For family A the generator with index j is the
elementary lowering e_j -> e_{j+1} on the natural module of the companion
algebra; for family C it is the unfolded pair e_j -> e_{j+1},
e_{2m-j} -> e_{2m-j+1} on the reordered natural module, so both families act
through the same elementary step; ``_steps`` holds that unfolding for
``act_simple`` and ``power_action`` alike.  ``power_action`` tabulates each
generator on the basis of one exterior power, one pass over the basis per
generator straight from its elementary steps; the equivalence test composes
its rows into one sparse product per generator sequence and compares the
images of two products by integer cross-multiplication.  On top of the
action sit that equivalence test, the non-annihilation check, and the
fully independent reconstruction of the type-A string points; the
minimality check is membership in that reconstruction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .degenmap import apply_T, fold_vector
from .errors import VerificationError
from .rootsys import (
    ExponentVector,
    LieType,
    build_labels,
    fundamental_weight,
    natural_dim,
    reduced_word,
)

WedgeVector = dict[int, int]
# the terms of one image, in the order ``act_simple`` produced them
Terms = tuple[tuple[int, int], ...]


def wedge_basis(indices: Iterable[int]) -> WedgeVector:
    """Basis wedge for a strictly increasing index tuple, keyed by its bitmask."""
    t = tuple(indices)
    if list(t) != sorted(set(t)):
        raise ValueError(f"indices {t} are not strictly increasing")
    return {sum(1 << k for k in t): 1}


def highest_wedge(k: int) -> WedgeVector:
    """The wedge of the first k basis vectors."""
    return wedge_basis(range(1, k + 1))


def _steps(j: int, family: str, rank: int) -> tuple[int, ...]:
    """Elementary steps of the generator with index j: j, and 2*rank - j in type C."""
    if not 1 <= j <= rank:
        raise ValueError(f"operator index {j} out of range")
    other = 2 * rank - j
    return (j, other) if family == "C" and other != j else (j,)


def act_simple(j: int, v: WedgeVector, family: str, rank: int) -> WedgeVector:
    """Action of the rank-``rank`` generator with index j on a wedge vector.

    Family A acts on the (rank+1)-dimensional natural module, family C on
    the 2*rank-dimensional one through the unfolded operator: the sum over
    the generator's steps t, which all lie below the dimension, of the
    Leibniz action of e_t -> e_{t+1}.  In a key holding t but not t+1, t+1
    takes the slot of t, so no sign is picked up; a key already holding t+1
    vanishes.
    """
    # the steps are inlined: on the one-term vectors of the oracle and the
    # sweeps, a call per step costs more than the move itself
    out: WedgeVector = {}
    for t in _steps(j, family, rank):
        # both steps have nonnegative coefficients: merged terms never cancel
        for key, coeff in v.items():
            if key >> t & 3 == 1:
                moved = key + (1 << t)
                out[moved] = out.get(moved, 0) + coeff
    return out


def act_sequence(
    ops: Sequence[int], v: WedgeVector, family: str, rank: int
) -> WedgeVector:
    """Apply a written product of generators, rightmost factor first."""
    for j in reversed(ops):
        if not v:
            return {}
        v = act_simple(j, v, family, rank)
    return v


def _basis_keys(dim: int, i: int) -> list[int]:
    """Keys of the basis wedges of the i-th exterior power of a dim-space."""
    return [sum(1 << k for k in t) for t in combinations(range(1, dim + 1), i)]


@lru_cache(maxsize=None)
def power_action(family: str, rank: int, i: int) -> tuple[dict[int, Terms], ...]:
    """The action of every generator on the basis of the i-th exterior power.

    Entry j - 1 maps the key of every basis wedge that generator j does not
    kill to the terms of its image, in ``act_simple``'s order.  Each row is
    made in one pass over the basis from the generator's elementary steps:
    a step moves a key with coefficient 1, and the two steps of a type-C
    generator never reach the same key.  Equal terms of different rows share
    one tuple object, so the terms take memory in proportion to the basis,
    not to the number of rows.
    """
    keys = _basis_keys(natural_dim(family, rank), i)
    # a step moves a basis wedge onto another one of the same power
    unit = {key: (key, 1) for key in keys}
    rows = []
    for j in range(1, rank + 1):
        # step t applies to a key holding t but not t + 1
        masks = [(3 << t, 1 << t) for t in _steps(j, family, rank)]
        row = {}
        for key in keys:
            terms = tuple(unit[key + bit] for mask, bit in masks if key & mask == bit)
            if terms:
                row[key] = terms
        rows.append(row)
    return tuple(rows)


def _product_images(
    ops: Sequence[int], i: int, family: str, rank: int
) -> dict[int, Terms]:
    """Nonzero images of the basis wedges of the i-th power under a written product.

    Rightmost factor first, one table row per surviving term; a basis wedge
    whose image dies is dropped.  The empty product is the identity.  An
    image lists each key once, with a positive coefficient.
    """
    for j in ops:
        if not 1 <= j <= rank:
            raise ValueError(f"operator index {j} out of range")
    if not ops:
        return {key: ((key, 1),) for key in _basis_keys(natural_dim(family, rank), i)}
    rows = power_action(family, rank, i)
    images = rows[ops[-1] - 1]
    for j in reversed(ops[:-1]):
        image_of = rows[j - 1].get
        step = {}
        for base, terms in images.items():
            out: WedgeVector = {}
            for key, coeff in terms:
                for moved, c in image_of(key, ()):
                    out[moved] = out.get(moved, 0) + coeff * c
            if out:
                step[base] = tuple(out.items())
        images = step
    return images


def monomial_ops(lt: LieType, x: Sequence[int]) -> tuple[int, ...]:
    """Expand a word-aligned exponent vector into its written generator sequence."""
    word = reduced_word(lt)
    if len(x) != len(word):
        raise ValueError(f"exponent vector must have length {len(word)}")
    ops: list[int] = []
    for letter, e in zip(word, x):
        ops.extend([letter] * e)
    return tuple(ops)


def act_monomial(lt: LieType, x: Sequence[int], v: WedgeVector) -> WedgeVector:
    """Action of the word monomial with exponents x on a wedge vector."""
    return act_sequence(monomial_ops(lt, x), v, lt.family, lt.target_rank)


def sim_check_ops(
    ops_x: Sequence[int], ops_y: Sequence[int], i: int, family: str, rank: int
) -> bool:
    """Equivalence of two generator products on the i-th exterior power.

    Requires one shared positive rational scalar r with r * x(v) = y(v) on
    every basis wedge v.  The sorted terms of x(v) and y(v) must pair up key
    by key; r = num/den is read off the first pair and checked on every
    other by cross-multiplication.  No sign test is needed: every
    coefficient is a positive integer, so r > 0 whenever it exists.
    """
    fx = _product_images(ops_x, i, family, rank)
    fy = _product_images(ops_y, i, family, rank)
    # a basis wedge that only one product kills has no scalar
    if fx.keys() != fy.keys():
        return False
    num = den = 0  # r is unset while den is 0
    for base, terms in fx.items():
        if len(terms) != len(fy[base]):
            return False
        for (key, c), (k, d) in zip(sorted(terms), sorted(fy[base])):
            if key != k:
                return False
            if not den:
                num, den = d, c
            elif d * den != c * num:
                return False
    return True


def sim_check(lt: LieType, x: Sequence[int], y: Sequence[int], i: int) -> bool:
    """Equivalence of two word-aligned monomials on the i-th exterior power."""
    return sim_check_ops(
        monomial_ops(lt, x), monomial_ops(lt, y), i, lt.family, lt.target_rank
    )


def nonannihilation_check(lt: LieType, i: int, p: Sequence[int]) -> bool:
    """True iff the mapped chain point acts nonzero on the highest wedge."""
    image = apply_T(lt, fundamental_weight(lt.rank, i), p, expect_nonnegative=True)
    return bool(act_monomial(lt, image, highest_wedge(2 * i - 1)))


@lru_cache(maxsize=None)
def restriction_block(lt: LieType, i: int) -> tuple[int, ...]:
    """Word positions of the labels with row <= i <= col (type A only)."""
    if lt.family != "A":
        raise ValueError("the restriction block is a type-A notion")
    return tuple(
        k
        for k, lab in enumerate(build_labels(lt))
        if lab.row <= i <= lab.col
    )


def minimality_check_A(lt: LieType, i: int, p: Sequence[int]) -> bool:
    """True iff the mapped point is the smallest nonzero actor of its weight.

    That is, the image of p is one of the oracle's string points: a 0/1
    vector on the restriction block that acts nonzero on the highest wedge
    and is the neglex minimum of its letter-histogram class.
    """
    if lt.family != "A":
        raise ValueError("minimality sweep is implemented for type A only")
    image = apply_T(lt, fundamental_weight(lt.rank, i), p, expect_nonnegative=True)
    return image in oracle_string_points_A(lt, i)


@lru_cache(maxsize=None)
def oracle_string_points_A(lt: LieType, i: int) -> tuple[ExponentVector, ...]:
    """Type-A string points rebuilt from the wedge action alone.

    Enumerates all 0/1 monomials on the restriction block, groups them by
    letter histogram (the weight class), and keeps the neglex-minimal
    nonzero actor of each class.  Completely independent of the crystal
    construction.
    """
    if lt.family != "A":
        raise ValueError("the oracle is a type-A construction")
    if not 1 <= i <= lt.rank:
        raise ValueError(f"fundamental index {i} out of range")
    block = restriction_block(lt, i)
    word = reduced_word(lt)
    v = highest_wedge(2 * i - 1)
    classes: dict[tuple[int, ...], list[ExponentVector]] = {}
    for bits in product((0, 1), repeat=len(block)):
        ones = [k for k, bit in zip(block, bits) if bit]
        x = tuple(1 if k in ones else 0 for k in range(len(word)))
        if act_monomial(lt, x, v):
            # the letter histogram of a 0/1 monomial is its sorted letters
            classes.setdefault(tuple(sorted(word[k] for k in ones)), []).append(x)
    # the neglex minimum: a larger first differing entry is smaller
    return tuple(sorted(max(group) for group in classes.values()))


def unfold_dominates(a_vec: Sequence[int], m: int, wedge_power: int) -> bool:
    """Summand containment of an A-monomial action inside the folded C-action.

    ``a_vec`` is a dense exponent vector on H(A_{2m-1}).  Acting on every
    basis wedge of the given exterior power of the shared 4m-2 dimensional
    module, the coefficients of the A-action must be dominated entrywise by
    those of the folded C-monomial's (unfolded) action.
    """
    src = LieType("A", 2 * m - 1)
    dst = LieType("C", m)
    folded = fold_vector(a_vec, m)
    dim = src.target_dim
    if dim != dst.target_dim:
        raise VerificationError(
            "wedge.unfold_dimension",
            f"{src} acts on dimension {dim}, {dst} on {dst.target_dim}",
        )
    for base in combinations(range(1, dim + 1), wedge_power):
        va = act_monomial(src, a_vec, wedge_basis(base))
        vc = act_monomial(dst, folded, wedge_basis(base))
        for key, coeff in va.items():
            if vc.get(key, 0) < coeff:
                return False
    return True

