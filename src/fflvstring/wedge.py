"""Independent oracle: exact lowering-operator actions on exterior powers.

A basis wedge e_{t_1} ^ ... ^ e_{t_i} is keyed by the bitmask sum 2^{t_k}, and
a wedge vector is a sparse map from such keys to integers: a lowering step
picks up neither a sign nor a denominator, so every coefficient is a
nonnegative integer.  For family A the generator with index j is the
elementary lowering e_j -> e_{j+1} on the natural module of the companion
algebra; for family C it is the unfolded pair e_j -> e_{j+1},
e_{2m-j} -> e_{2m-j+1} on the reordered natural module, so both families act
through the same elementary step; ``_steps`` holds that unfolding for
``act_simple`` and the packed commutation tables alike.  The equivalence
test acts wedge by wedge.  The commutation tables of a rank act on every
exterior power 1..rank at once: bit 0 of a key is never set, so digit v
of an int stands for the key 2v, and an image is a map from the offset o
of a term to one int whose digit v holds the coefficient of the wedge
keyed 2(v + o) in the image of the wedge keyed 2v.  An int spans 2^dim
digits, 4^m at acting rank m in type C, and a step moves
every basis wedge of every power it applies to with one masked AND
(``packed_powers`` builds the bases in one pass, ``step_masks`` the masks
shared by all powers).  All the powers share one int, and two images are
split into powers, by masking, only where they differ; then they are
compared offset by offset, by integer cross-multiplication.  The masks
and bases are built once per rank, each generator's image once, and each
ordered pair's product once.  On top of the action sit the
equivalence test, the non-annihilation check, and the fully independent
reconstruction of the type-A string points: a depth-first walk over the 0/1
monomials on the restriction block that carries each prefix's image of the
highest wedge, so a product is built one factor from its parent and a zero
image prunes every extension.  The minimality check is membership in that
reconstruction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
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
    """Apply a written product of generators, rightmost factor first; every
    factor is checked before any acts, even those a dead vector never meets."""
    for j in ops:
        _steps(j, family, rank)
    for j in reversed(ops):
        if not v:
            return {}
        v = act_simple(j, v, family, rank)
    return v


def packed_powers(family: str, rank: int, top: int, width: int) -> list[int]:
    """The bases of the exterior powers 0..top, packed: digit v, ``width``
    bits wide, stands for the key 2v (bit 0 of a key is never set), and
    basis i holds a 1 at every key of power i.  One doubling pass over the
    bits 1..dim builds them all: the keys that use bit b are those without
    it, shifted by 2^(b-1) digits."""
    if top < 0:
        raise ValueError(f"exterior power {top} is negative")
    ones = [1] + [0] * top  # ones[k]: the keys of k bits among the bits done
    for b in range(natural_dim(family, rank)):
        ones = [1] + [ones[k] | ones[k - 1] << (width << b) for k in range(1, top + 1)]
    return ones


def step_masks(family: str, rank: int, width: int) -> tuple[int, ...]:
    """Mask t of every power: all-ones digits at the digits v < 2^dim whose
    key 2v has bit t set and bit t + 1 clear, the keys step t moves (mask 0
    is 0).  A step reads it at targets v + o of nonzero coefficients, keys
    of the power by themselves."""
    dim = natural_dim(family, rank)
    # has[b]: all-ones digits at every v < 2^dim with bit b set, key bit b + 1
    has = []
    for b in range(dim):
        pattern, span = (1 << (width << b)) - 1 << (width << b), 2 << b
        while span < 1 << dim:
            pattern |= pattern << width * span
            span *= 2
        has.append(pattern)
    return (0, *(has[t - 1] & ~has[t] for t in range(1, dim)))


def _step(
    terms: dict[int, int], factor: tuple[int, ...], masks: tuple[int, ...], width: int
) -> dict[int, int]:
    """One factor, given by its steps, applied to a packed product."""
    out: dict[int, int] = {}
    for o, c in terms.items():
        for t in factor:
            moved = c & (masks[t] >> width * o)
            if moved:
                o_t = o + (1 << t - 1)
                out[o_t] = out.get(o_t, 0) + moved
    return out


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
    every basis wedge v.  Both products act on each basis wedge through
    ``act_sequence``, and their images must have the same keys; r = num/den
    is read off the first coefficient pair and checked on every coefficient
    as num * x == den * y.  No sign test is needed: every coefficient is a
    positive integer, so r > 0 whenever it exists.  The factors are checked
    even on a power above the dimension, the zero space.
    """
    for j in (*ops_x, *ops_y):
        _steps(j, family, rank)
    if i < 0:
        raise ValueError(f"exterior power {i} is negative")
    ratio = None
    for t in combinations(range(1, natural_dim(family, rank) + 1), i):
        fx, fy = (act_sequence(ops, wedge_basis(t), family, rank) for ops in (ops_x, ops_y))
        if fx.keys() != fy.keys():
            return False
        for key, c in fx.items():
            num, den = ratio = ratio or (fy[key], c)
            if num * c != den * fy[key]:
                return False
    return True


def _proportional(fx: dict[int, int], fy: dict[int, int], width: int) -> bool:
    """r * fx = fy for one positive rational r, digits ``width`` bits wide."""
    if fx == fy:
        return True  # r = 1, or both products are 0
    # a term that only one product has admits no scalar
    if fx.keys() != fy.keys():
        return False
    first = next(iter(fx))
    num, den = _lowest_digit(fy[first], width), _lowest_digit(fx[first], width)
    return all(num * fx[o] == den * c for o, c in fy.items())


def commutation_tables(family: str, rank: int) -> list[dict[tuple[int, int], bool]]:
    """``sim_check_ops([l, j], [j, l], i, family, rank)`` for every pair l < j,
    one table per power i = 1..rank, at index i - 1.

    A step maps each power into itself, and the keys of different powers
    are different digits, so the products act on the sum of the bases of
    all the powers at once.  The rightmost factor acts first, so [l, j] is
    step l on the image of j and [j, l] step j on the image of l: each
    generator's first-factor image is built once and shared by every pair,
    and each ordered pair's product is built once.  Two equal products
    agree on every power (r = 1); only two that differ are cut into powers,
    each masked by its basis times the all-ones digit.  A coefficient of a
    product of length k = 2 counts at most 2^k step paths, so num, den <=
    2^k and a digit of either side of ``_proportional`` is at most 4^k:
    digits 2k + 2 bits wide never carry.
    """
    width = 2 * 2 + 2
    masks = step_masks(family, rank, width)
    bases = packed_powers(family, rank, rank, width)[1:]
    steps = {j: _steps(j, family, rank) for j in range(1, rank + 1)}
    start = {0: sum(bases)}
    first = {j: _step(start, factor, masks, width) for j, factor in steps.items()}
    powers = [basis * ((1 << width) - 1) for basis in bases]
    tables: list[dict[tuple[int, int], bool]] = [{} for _ in powers]
    for l, j in combinations(range(1, rank + 1), 2):
        fx = _step(first[j], steps[l], masks, width)
        fy = _step(first[l], steps[j], masks, width)
        equal = fx == fy
        for table, power in zip(tables, powers):
            table[l, j] = equal or _proportional(_masked(fx, power), _masked(fy, power), width)
    return tables


def _masked(terms: dict[int, int], mask: int) -> dict[int, int]:
    """The nonzero terms of a packed product cut to the digits of ``mask``."""
    return {o: cut for o, c in terms.items() if (cut := c & mask)}


def _lowest_digit(c: int, width: int) -> int:
    """The lowest nonzero digit of a positive packed int."""
    low = (c & -c).bit_length() - 1
    return (c >> low - low % width) & ((1 << width) - 1)


def nonannihilation_check(lt: LieType, i: int, p: Sequence[int]) -> bool:
    """True iff the mapped chain point acts nonzero on the highest wedge."""
    image = apply_T(lt, fundamental_weight(lt.rank, i), p)
    return bool(act_monomial(lt, image, highest_wedge(2 * i - 1)))


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
    image = apply_T(lt, fundamental_weight(lt.rank, i), p)
    return image in oracle_string_points_A(lt, i)


@lru_cache(maxsize=None)
def oracle_string_points_A(lt: LieType, i: int) -> tuple[ExponentVector, ...]:
    """Type-A string points rebuilt from the wedge action alone.

    Walks the 0/1 monomials on the restriction block depth first, one block
    position per level from the last to the first, since the rightmost
    factor of a written product acts first.  Each node carries the image of
    the highest wedge under the factors taken so far: skipping a position
    keeps it, taking position k applies the generator of word[k] once.  A
    zero image prunes its subtree, as every product that extends an
    annihilating one annihilates too, so each leaf is a nonzero actor built
    in one step from its parent.  The leaves are grouped by letter
    histogram (the weight class), and the neglex-minimal actor of each
    class is kept.  Completely independent of the crystal construction.
    """
    if lt.family != "A":
        raise ValueError("the oracle is a type-A construction")
    fundamental_weight(lt.rank, i)  # refuses an index outside 1..rank
    word = reduced_word(lt)
    size = len(word)
    order = restriction_block(lt, i)[::-1]
    # a node carries its image, its positions as bits (position k at bit
    # size - 1 - k, so a larger int is a lex-larger 0/1 vector) and its letter
    # histogram as digits base size + 1, where no letter count carries
    unit = [(1 << size - 1 - k, (size + 1) ** letter) for k, letter in enumerate(word)]
    best: dict[int, int] = {}
    stack = [(0, highest_wedge(2 * i - 1), 0, 0)]
    while stack:
        depth, v, bits, hist = stack.pop()
        if depth == len(order):
            # the neglex minimum: a larger first differing entry is smaller
            best[hist] = max(best.get(hist, bits), bits)
            continue
        k = order[depth]
        stack.append((depth + 1, v, bits, hist))
        taken = act_simple(word[k], v, lt.family, lt.target_rank)
        if taken:
            stack.append((depth + 1, taken, bits | unit[k][0], hist + unit[k][1]))
    return tuple(
        sorted(tuple(bits >> size - 1 - k & 1 for k in range(size)) for bits in best.values())
    )


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

