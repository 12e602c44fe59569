"""Signature calculus for the independent-set case analysis.

A signature is a multiset of integer partitions of n, one per color: the
component-size profile that a vertex set X induces in each color class of a
closed multigraph.  A signature is valid when some closed coloring of K_n
realizes it, which (color classes being disjoint unions of cliques that
together cover every pair) happens exactly when some tuple of set partitions
with the prescribed shapes covers all vertex pairs.

Reproduces the case counts 84 -> 37 -> 2 at (n,p)=(5,3) and
1001 -> 560 -> 173 at (6,4).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .core import (ColoredMultigraph, GraphError, closed_graph, component_masks, mask_of,
                   vertices_of)
from .exact import SolveBudget


def _shape_str(shape) -> str:
    return "(" + ",".join(map(str, shape)) + ")"


@dataclass(frozen=True)
class SignatureSet:
    """Multiset of p integer partitions of n, each a weakly decreasing tuple
    of positive ints, stored sorted descending."""

    n: int
    p: int
    sigs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for s in self.sigs:
            if any(q <= 0 for q in s):
                raise ValueError("partition parts must be positive")
            if list(s) != sorted(s, reverse=True):
                raise ValueError("partition parts must be weakly decreasing")
        if len(self.sigs) != self.p:
            raise ValueError("need exactly p partitions")
        for s in self.sigs:
            if sum(s) != self.n:
                raise ValueError(f"partition {_shape_str(s)} does not sum to {self.n}")
        if list(self.sigs) != sorted(self.sigs, reverse=True):
            raise ValueError("signature partitions must be stored sorted descending")

    @classmethod
    def of(cls, n: int, parts_list) -> "SignatureSet":
        sigs = tuple(sorted((tuple(p) for p in parts_list), reverse=True))
        return cls(n, len(sigs), sigs)

    @classmethod
    def _trusted(cls, n: int, sigs) -> "SignatureSet":
        """A signature built without the checks, for sigs that pass them by
        construction."""
        sig = object.__new__(cls)
        sig.__dict__.update(n=n, p=len(sigs), sigs=sigs)
        return sig

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return self.sigs

    def __str__(self):
        return "{" + ",".join(map(_shape_str, self.sigs)) + "}"


def int_partitions(n: int) -> list[tuple[int, ...]]:
    """All weakly decreasing integer partitions of n, largest-part-first order."""
    return list(_partitions_at_most(n, n))


def _partitions_at_most(n: int, mx: int):
    """The partitions of n into parts at most mx, largest-part-first order."""
    if n == 0:
        yield ()
    for q in range(min(n, mx), 0, -1):
        for rest in _partitions_at_most(n - q, q):
            yield (q,) + rest


def set_partitions_with_shape(n: int, shape) -> list[tuple[tuple[int, ...], ...]]:
    """Every set partition of range(n) whose block sizes form the given shape.

    The smallest remaining element always opens a block, and blocks of equal
    size are deduplicated by trying each distinct size once, so each set
    partition appears exactly once.
    """
    return list(_shaped_partitions(tuple(range(n)), tuple(shape)))


def _shaped_partitions(remaining: tuple[int, ...], sizes: tuple[int, ...]):
    """set_partitions_with_shape's partitions of the elements remaining."""
    if not remaining:
        yield ()
        return
    v = remaining[0]
    tried = set()
    for idx, s in enumerate(sizes):
        if s in tried:
            continue
        tried.add(s)
        nsizes = sizes[:idx] + sizes[idx + 1:]
        for rest in itertools.combinations(remaining[1:], s - 1):
            block = (v,) + rest
            bs = set(block)
            for blocks in _shaped_partitions(tuple(x for x in remaining if x not in bs), nsizes):
                yield (block,) + blocks


# ---------------------------------------------------------------------------
# signature of a concrete colored graph


def signature_of(g: ColoredMultigraph, X, S) -> SignatureSet:
    """Per color in S, the sorted component-size partition induced on X."""
    X = sorted(set(X))
    if not X:
        raise GraphError("signature of an empty vertex set")
    xmask = mask_of(X)
    parts_list = []
    for c in sorted(S):
        sizes = [m.bit_count() for m in component_masks(g.adjacency(c), xmask)]
        parts_list.append(tuple(sorted(sizes, reverse=True)))
    return SignatureSet.of(len(X), parts_list)


def _signature_stream(n: int, p: int):
    """The signatures of `enumerate_signatures`, in its order, made one at a
    time; n and p are checked before the first one is asked for."""
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    shapes = sorted(int_partitions(n), reverse=True)
    return (SignatureSet._trusted(n, combo)
            for combo in itertools.combinations_with_replacement(shapes, p))


def enumerate_signatures(n: int, p: int, budget=None) -> list[SignatureSet]:
    """All multisets of p integer partitions of n, in canonical descending order.

    A given `SolveBudget` is charged `signature_count(n, p)` nodes before the
    list is built, so a request too large for it raises `Inconclusive` first."""
    stream = _signature_stream(n, p)
    if budget is not None:
        budget.charge("signature enumeration", signature_count(n, p))
    return list(stream)


def passes_edge_count(sig: SignatureSet) -> bool:
    """The counting necessary condition: component cliques must cover all pairs."""
    n = sig.n
    total = sum(q * (q - 1) // 2 for s in sig.sigs for q in s)
    return total >= n * (n - 1) // 2


# ---------------------------------------------------------------------------
# realizability search

class _ShapeTables:
    """Per-(n) cache of set partitions, clique rows, pair masks, pair holders,
    W-pair-count codes and dead search states.

    `ensure(shape)` lists the set partitions of that shape (`parts`), each
    one's `_clique_rows` (`rows`: per vertex, the mask of its block, checked
    once here), the `_pair_mask` of the vertex pairs each one covers
    (`masks`), and,
    bit-sliced the other way round, `holders[shape][j]`: the mask over the
    shape's partition indices whose bit i is set iff partition i covers pair
    j.  The W tables behind `w_codes` and `qualifying_fourth` give one bit to
    each pair (W, W-pair count) over the subsets W of size 3..5, in the order
    of `_w_pair_masks`; they are built on first use.

    `dead` holds the keys of the search states of `_covering_tuples` whose
    subtree holds no covering tuple, for every signature of this n.  A key
    packs the state's remaining shapes (`suffix_id`), its `lo` (the least
    index its shape may take, nonzero only when that shape repeats the one
    before it) and `acc`, the mask of the pairs covered so far:
    `suffix_id << sid_shift | lo << lo_shift | acc`.  A shape has at most n!
    set partitions, so lo fits in the bits between lo_shift and sid_shift.
    """

    def __init__(self, n: int):
        self.n = n
        self.lo_shift = n * (n - 1) // 2
        self.full = (1 << self.lo_shift) - 1
        self.parts: dict[tuple[int, ...], list] = {}
        self.rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self.masks: dict[tuple[int, ...], list[int]] = {}
        self.holders: dict[tuple[int, ...], list[int]] = {}
        self.codes: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
        self.w_offset: list[int] = []
        self._slots: list[tuple[int, dict[int, int]]] = []
        self._qual: list[tuple[int, list[int]]] = []
        self.dead: set[int] = set()
        self.suffix_ids: dict[tuple[tuple[int, ...], ...], int] = {}
        self.sid_shift = self.lo_shift + math.factorial(n).bit_length()

    def ensure(self, shape: tuple[int, ...]):
        if shape not in self.parts:
            plist = set_partitions_with_shape(self.n, shape)
            masks = [_pair_mask(self.n, map(mask_of, p)) for p in plist]
            self.rows[shape] = [_clique_rows(self.n, shape, p) for p in plist]
            self.parts[shape] = plist
            self.masks[shape] = masks
            self.holders[shape] = [sum(1 << i for i, m in enumerate(masks) if m >> j & 1)
                                   for j in range(self.lo_shift)]

    def suffix_id(self, shapes) -> int:
        """A small int naming this sequence of remaining shapes."""
        return self.suffix_ids.setdefault(tuple(shapes), len(self.suffix_ids))

    def _build_w_tables(self):
        """For each W, the qualifying-fourth bits of every triple of W-pair counts.

        A restriction to W is named by its W-pair count, one of 3, 5, 7 for
        |W| = 3, 4, 5 (`_count_profiles`); W's slot of a count is its rank
        among them.  Entry (a*k + b)*k + c of W's table has the bit of slot d
        set iff the counts in slots (a, b, c, d) are in `_qualifying_counts`.
        """
        offset = 0
        for size, wmasks in _w_pair_masks(self.n).items():
            counts = sorted(_count_profiles(size))
            slot = {x: i for i, x in enumerate(counts)}
            qualifying = _qualifying_counts(size)
            table = [sum(1 << d for d, y in enumerate(counts) if (a, b, c, y) in qualifying)
                     for a in counts for b in counts for c in counts]
            for wp in wmasks:
                self._slots.append((wp, slot))
                self.w_offset.append(offset)
                self._qual.append((len(counts), [m << offset for m in table]))
                offset += len(counts)

    def w_codes(self, shape: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Per partition of this shape: (the bits of its W-pair count on each
        W, its slot index on each W).  W's pairs inside one of the
        partition's blocks are the popcount of the AND of their pair masks."""
        if shape not in self.codes:
            if not self._qual:
                self._build_w_tables()
            self.ensure(shape)
            out = []
            for pm in self.masks[shape]:
                idx = tuple(slot[(wp & pm).bit_count()] for wp, slot in self._slots)
                out.append((sum(1 << (off + i) for off, i in zip(self.w_offset, idx)), idx))
            self.codes[shape] = out
        return self.codes[shape]

    def qualifying_fourth(self, a, b, c) -> int:
        """The (W, W-pair count) bits of the fourth partitions that make some
        W qualify, given the first three partitions' slot indices a, b, c."""
        m = 0
        for (k, q), x, y, z in zip(self._qual, a, b, c):
            m |= q[(x * k + y) * k + z]
        return m


def _clique_rows(n: int, shape, blocks) -> tuple[int, ...]:
    """Per vertex of range(n), the mask of its block in this set partition;
    raises unless the blocks are disjoint, cover range(n) and have the
    shape's sizes."""
    bmasks = [mask_of(b) for b in blocks]
    seen = 0
    for m in bmasks:
        if seen & m:
            raise AssertionError(f"set partition {blocks} repeats a vertex")
        seen |= m
    if seen != (1 << n) - 1:
        raise AssertionError(f"set partition {blocks} does not cover range({n})")
    if sorted((m.bit_count() for m in bmasks), reverse=True) != list(shape):
        raise AssertionError(f"set partition {blocks} does not have shape {_shape_str(shape)}")
    rows = [0] * n
    for m in bmasks:
        for v in vertices_of(m):
            rows[v] = m
    return tuple(rows)


_TABLES: dict[int, _ShapeTables] = {}


def _tables(n: int) -> _ShapeTables:
    if n not in _TABLES:
        _TABLES[n] = _ShapeTables(n)
    return _TABLES[n]


def _drop_tables_above(n: int) -> None:
    """Forget the tables of every size above n.  A run for n uses none of
    them, and they grow steeply with the size: after a (7, 5) run they hold
    about 30 MB, which a later (5, 3) run would otherwise keep."""
    for m in [m for m in _TABLES if m > n]:
        del _TABLES[m]


def _search_order(tab: _ShapeTables, sig: SignatureSet):
    """(colors, shapes): the signature's colors ordered by how few set
    partitions their shape has (ties by color), and the shapes in that order."""
    shapes = sig.shapes()
    for s in shapes:
        tab.ensure(s)
    order = sorted(range(len(shapes)), key=lambda i: (len(tab.parts[shapes[i]]), i))
    return order, [shapes[i] for i in order]


def _covering_tuples(tab: _ShapeTables, shapes, budget):
    """The tuples of set partitions, one index into tab.parts[shape] per
    shape, that together cover every vertex pair, a prefix at a time: yields
    (prefix, hits) in lexicographic order of prefix, where prefix holds the
    indices of every shape but the last and hits, never 0, is the mask of the
    last shape's indices that complete it to a covering tuple.

    The first partition is pinned to its canonical representative (vertex
    symmetry), and equal consecutive shapes take nondecreasing indices (color
    symmetry).  Every partition of a shape covers the same number of pairs,
    the sum of q(q-1)/2 over its block sizes q, so a prefix is dropped once it
    misses more pairs than the later shapes cover together.  The last shape
    is not scanned: hits is the AND of its `holders` over the pairs the
    prefix misses.  A state below the root whose subtree is exhausted with
    nothing yielded goes into `tab.dead` and is skipped from then on, by
    this and every later search at this n; a state whose walk the consumer
    abandons records nothing.  The states the search expands and the
    prefixes whose last shape it decides are added to the budget's nodes,
    unchecked: its caller charges the budget once per search.
    """
    last = len(shapes) - 1
    masks = [tab.masks[shapes[0]][:1]] + [tab.masks[s] for s in shapes[1:]]
    holders = tab.holders[shapes[-1]]
    every_last = (1 << len(masks[last])) - 1
    full, dead, lo_shift = tab.full, tab.dead, tab.lo_shift
    room = [0] * (len(shapes) + 1)  # room[c]: pairs that shapes c.. cover
    for c in range(last, -1, -1):
        room[c] = room[c + 1] + sum(q * (q - 1) // 2 for q in shapes[c])
    repeat = [c > 0 and shapes[c] == shapes[c - 1] for c in range(len(shapes))]
    # base[c]: the key bits of the remaining shapes at level c, from level 1 on
    base = [c and tab.suffix_id(shapes[c:]) << tab.sid_shift for c in range(last)]

    def rec(c, acc, idxs):
        """Yield below the state (c, acc, idxs); return whether anything was."""
        budget.nodes += 1
        found = False
        ms = masks[c]
        room_after = room[c + 1]
        lo = idxs[-1] if repeat[c] else 0
        if c + 1 == last:
            rep = repeat[last]
            for i in range(lo, len(ms)):
                miss = full ^ (acc | ms[i])
                if miss.bit_count() <= room_after:
                    budget.nodes += 1
                    hits = every_last >> i << i if rep else every_last
                    while miss and hits:
                        j = miss & -miss
                        hits &= holders[j.bit_length() - 1]
                        miss ^= j
                    if hits:
                        found = True
                        yield idxs + (i,), hits
            return found
        key0, rep = base[c + 1], repeat[c + 1]
        for i in range(lo, len(ms)):
            a = acc | ms[i]
            if (full ^ a).bit_count() <= room_after:
                key = key0 | (i << lo_shift if rep else 0) | a
                if key in dead:
                    continue
                if (yield from rec(c + 1, a, idxs + (i,))):
                    found = True
                else:
                    dead.add(key)
        return found

    try:
        if last:
            yield from rec(0, 0, ())
        else:
            budget.nodes += 1
            if masks[0][0] == full:
                yield (), 1
    finally:
        # rec holds itself through its closure cell; without this the cycle
        # would keep the tables it reads alive until a cyclic collection
        del rec


def _gate(sig: SignatureSet, tab: _ShapeTables, order, shapes, idxs) -> list[tuple[int, ...]]:
    """Per color, in the signature's order, the clique rows of a covering
    tuple's partition; raises unless every vertex's rows OR to all of
    range(n), so that every pair of K_n lies in a block of some color, and
    each color's blocks, the distinct masks among its rows, have the
    signature's shape for that color."""
    by_color = [None] * len(shapes)
    for color, shape, i in zip(order, shapes, idxs):
        by_color[color] = tab.rows[shape][i]
    everything = (1 << sig.n) - 1
    for reach in zip(*by_color):
        if functools.reduce(operator.or_, reach) != everything:
            raise AssertionError(f"realization of {sig} leaves a pair uncolored")
    for rows, shape in zip(by_color, sig.sigs):
        if tuple(sorted(map(int.bit_count, set(rows)), reverse=True)) != shape:
            raise AssertionError(f"realization of {sig} has another signature")
    return by_color


def _realization(sig: SignatureSet, tab: _ShapeTables, order, shapes, idxs):
    """The realization graph of a covering tuple, colored in the signature's
    order and built from the blocks its `_gate` checked; raises where the
    gate does."""
    return closed_graph(sig.n, [set(rows) for rows in _gate(sig, tab, order, shapes, idxs)])


def _first_covering(sig: SignatureSet, tab: _ShapeTables, budget):
    """(order, shapes, idxs) of the signature's first covering tuple, or None.

    Applies the edge-counting filter first, then takes the first prefix of
    `_covering_tuples` and the lowest index of its hits.  The budget gets
    the search nodes visited and is charged one node for the signature.
    """
    if not passes_edge_count(sig):
        budget.charge("signature search")
        return None
    order, shapes = _search_order(tab, sig)
    first = next(_covering_tuples(tab, shapes, budget), None)
    budget.charge("signature search")
    if first is None:
        return None
    prefix, hits = first
    return order, shapes, prefix + ((hits & -hits).bit_length() - 1,)


def _realizable(sig: SignatureSet, tab: _ShapeTables, budget) -> bool:
    """Whether the signature has a covering tuple, decided as in `is_valid`;
    the first one must pass `_gate`, but no graph is built."""
    first = _first_covering(sig, tab, budget)
    if first is None:
        return False
    _gate(sig, tab, *first)
    return True


def is_valid(sig: SignatureSet, budget=None) -> ColoredMultigraph | None:
    """A realization of the signature as a closed multicoloring of K_n, or None:
    the `_realization` of its first covering tuple (`_first_covering`)."""
    tab = _tables(sig.n)
    first = _first_covering(sig, tab, budget or SolveBudget())
    return None if first is None else _realization(sig, tab, *first)


# ---------------------------------------------------------------------------
# lemma filters


def _lemma_eliminates(shapes) -> bool:
    """Lemmas R5 and R6 as one rule, for p shapes of n.

    A threshold vector is a partition of 2p - 1 into p parts, assigned to the
    colors in some order.  The signature is eliminated when, for some such
    vector, the colors' counts of parts at least their threshold sum to at
    most n - 1: (3,1,1) and (2,2,1) at (5,3), (4,1,1,1), (3,2,1,1) and
    (2,2,2,1) at (6,4).
    """
    p, n = len(shapes), sum(shapes[0])
    at_least = [_parts_at_least(s, p) for s in shapes]
    for order in _threshold_orders(p):
        if sum(map(operator.getitem, at_least, order)) <= n - 1:
            return True
    return False


@functools.cache
def _threshold_orders(p: int) -> tuple[tuple[int, ...], ...]:
    """Every ordering of every partition of 2p - 1 into p parts, once each."""
    return tuple(sorted({order for lam in int_partitions(2 * p - 1) if len(lam) == p
                         for order in itertools.permutations(lam)}))


@functools.cache
def _parts_at_least(shape: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Entry t, for t in 0..p: how many parts of shape are >= t."""
    return tuple(sum(1 for x in shape if x >= t) for t in range(p + 1))


def _w_qualifies(size: int, profs) -> bool:
    """Does some lem:r6ii condition hold for these four W-restriction profiles?"""
    t = [q[0] for q in profs]
    g2 = [q[1] for q in profs]
    g3 = [q[2] for q in profs]
    st = t[0] + t[1] + t[2] + t[3]
    if size == 3:
        return st <= 5
    if size == 4:
        return st - max(t[i] - g2[i] for i in range(4)) <= 5
    d2 = sorted((t[i] - g2[i] for i in range(4)), reverse=True)
    if st - d2[0] - d2[1] <= 5:
        return True
    return st - max(t[i] - g3[i] for i in range(4)) <= 5


def _pair_mask(n: int, blocks) -> int:
    """The mask of the vertex pairs inside one of the vertex masks in blocks,
    pair uv (u < v) at its index in `itertools.combinations(range(n), 2)`:
    row u starts at bit u(2n - u - 1)/2 and holds the v > u in order."""
    m = 0
    for b in blocks:
        for u in vertices_of(b):
            m |= b >> u + 1 << u * (2 * n - u - 1) // 2
    return m


@functools.cache
def _w_pair_masks(n: int) -> dict[int, tuple[int, ...]]:
    """Per size 3..5, the `_pair_mask` of each W of that size in range(n),
    in `itertools.combinations` order."""
    return {size: tuple(_pair_mask(n, [mask_of(w)])
                        for w in itertools.combinations(range(n), size))
            for size in range(3, min(n, 5) + 1)}


@functools.cache
def _count_profiles(size: int) -> dict[int, tuple[int, int, int]]:
    """W-pair count -> the profile (#blocks, #blocks >= 2, #blocks >= 3) of a
    set partition restricted to a W of this size.

    The restriction's blocks have sizes q forming an integer partition of
    |W|, and the sum of q(q-1)/2 over them counts W's pairs inside one block.
    For |W| <= 5 that count names the partition (3: 0, 1, 3; 4: 0, 1, 2, 3,
    6; 5: 0, 1, 2, 3, 4, 6, 10), so it names the profile too.  At 6, (4,1,1)
    and (3,3) both give 6, and this raises ValueError.
    """
    parts = int_partitions(size)
    profile = {sum(q * (q - 1) // 2 for q in lam):
               (len(lam), sum(1 for x in lam if x >= 2), sum(1 for x in lam if x >= 3))
               for lam in parts}
    if len(profile) != len(parts):
        raise ValueError(f"pair counts do not name the partitions of {size}")
    return profile


@functools.cache
def _qualifying_counts(size: int) -> frozenset[tuple[int, int, int, int]]:
    """The 4-tuples of W-pair counts, one per color, for which `_w_qualifies`
    holds on the profiles they name (`_count_profiles`), in every order (the
    lemma is evaluated once per sorted tuple)."""
    profile = _count_profiles(size)
    return frozenset(order
                     for four in itertools.combinations_with_replacement(sorted(profile), 4)
                     if _w_qualifies(size, [profile[x] for x in four])
                     for order in itertools.permutations(four))


def realization_admits_w(g: ColoredMultigraph) -> bool:
    """Whether some W of size 3..5 in this 4-colored realization satisfies lem:r6ii.

    Reads the graph, not the search tables: each color's component masks,
    found by BFS on the graph, give the `_pair_mask` of the pairs inside one
    of its components, and W's restriction in that color is named by how
    many of W's pairs the mask holds, a popcount looked up in
    `_qualifying_counts`.  Only the lemma (`_qualifying_counts`) and the pair
    layout (`_pair_mask`, `_w_pair_masks`) are shared with the table path.
    """
    n = g.n
    everything = (1 << n) - 1
    s1, s2, s3, s4 = (_pair_mask(n, component_masks(g.adjacency(c), everything))
                      for c in range(1, 5))
    for size, wmasks in _w_pair_masks(n).items():
        qualifying = _qualifying_counts(size)
        for w in wmasks:
            if ((w & s1).bit_count(), (w & s2).bit_count(),
                    (w & s3).bit_count(), (w & s4).bit_count()) in qualifying:
                return True
    return False


def _analyze_r6ii(sig: SignatureSet, budget=None) -> tuple[bool, ColoredMultigraph | None]:
    """(valid, free): free is a realization admitting no qualifying W, or None.

    Walks the covering tuples of `_covering_tuples` in order and stops at the
    first free one.  A tuple admits a qualifying W iff the bits of its fourth
    partition meet `qualifying_fourth` of its first three, which is computed
    once per prefix and tested against each index of the prefix's hits.  The
    free realization is rechecked by the independent `realization_admits_w`
    before it is returned.  The budget is charged as in `is_valid`.
    """
    budget = budget or SolveBudget()
    if not passes_edge_count(sig):
        budget.charge("signature search")
        return False, None
    tab = _tables(sig.n)
    order, shapes = _search_order(tab, sig)
    codes = [tab.w_codes(s) for s in shapes]
    fourth = [bits for bits, _ in codes[3]]
    valid = False
    for prefix, hits in _covering_tuples(tab, shapes, budget):
        valid = True
        qualifying = tab.qualifying_fourth(*(codes[c][i][1] for c, i in enumerate(prefix)))
        while hits:
            i = (hits & -hits).bit_length() - 1
            if not qualifying & fourth[i]:
                g = _realization(sig, tab, order, shapes, prefix + (i,))
                if realization_admits_w(g):
                    raise AssertionError(f"free realization of {sig} admits a qualifying W")
                budget.charge("signature search")
                return True, g
            hits &= hits - 1
    budget.charge("signature search")
    return valid, None


def lemma_filter(sig: SignatureSet, which: str, g: ColoredMultigraph | None = None) -> bool:
    """True iff the named lemma eliminates this signature.

    R5 applies at (n,p)=(5,3), R6 and R6II at (6,4).  R6II with a concrete
    realization g tests that single realization; without one it quantifies
    over every realization found by the validity search (a signature is
    eliminated only when each realization admits a qualifying subset W).  The
    search stops at the first free realization, one admitting no qualifying
    W, and raises unless `realization_admits_w` confirms that it is free.  A
    g that does not realize sig raises GraphError.
    """
    which = which.upper()
    if which not in ("R5", "R6", "R6II"):
        raise ValueError(f"unknown lemma filter {which!r}")
    n, p = (5, 3) if which == "R5" else (6, 4)
    if (sig.n, sig.p) != (n, p):
        raise ValueError(f"{which} needs (n,p)=({n},{p})")
    if which != "R6II":
        return _lemma_eliminates(sig.shapes())
    if g is not None:
        if g.n != sig.n or signature_of(g, range(sig.n), range(1, 5)) != sig:
            raise GraphError(f"R6II needs a realization of {sig}")
        return realization_admits_w(g)
    valid, free = _analyze_r6ii(sig)
    return valid and free is None


def valid_signatures(n: int, p: int, budget=None) -> list[SignatureSet]:
    """The signatures that `is_valid` realizes, decided by `_realizable`
    without building their graphs.  The signatures are walked one at a time,
    and one budget, the given one or else a fresh `SolveBudget`, is charged
    for the whole call, a signature at a time; it raises `Inconclusive` once
    exhausted."""
    sigs = _signature_stream(n, p)
    budget = budget or SolveBudget()
    _drop_tables_above(n)
    tab = _tables(n)
    return [s for s in sigs if _realizable(s, tab, budget)]


def residual_cases(n: int, p: int, budget=None) -> list[SignatureSet]:
    """Valid signatures surviving every applicable lemma filter, sorted.

    Cheap filters run first.  At (5,3): lemma R5 on the shapes, then
    `_realizable`, which builds no graph.  At (6,4): lemma R6 on the shapes,
    the edge count, then one realization search that stops at the first
    realization admitting no qualifying W (lemma R6II); each such free
    realization is confirmed by `realization_admits_w` before its signature
    is reported, and the call raises if one is not.  The budget is charged
    as in `valid_signatures`.
    """
    if (n, p) not in ((5, 3), (6, 4)):
        raise ValueError(f"residual_cases supports (5,3) and (6,4), not ({n},{p})")
    budget = budget or SolveBudget()
    _drop_tables_above(n)
    tab = _tables(n)
    shaped = (s for s in _signature_stream(n, p) if not _lemma_eliminates(s.shapes()))
    if n == 5:
        out = [s for s in shaped if _realizable(s, tab, budget)]
    else:
        out = [s for s in shaped if _analyze_r6ii(s, budget)[1] is not None]
    return sorted(out, key=lambda s: s.shapes(), reverse=True)


def load_r6_fixture() -> list[SignatureSet]:
    """The shipped transcription of the 173 surviving (6,4) signatures.

    One signature per line in the form `(6),(4,2),(4,2),(4,2)`.
    """
    from importlib import resources

    text = resources.files("ryserlab.data").joinpath("r6_residual.txt").read_text()
    out = []
    for line in text.strip().splitlines():
        chunks = line.strip().strip("()").split("),(")
        parts = [tuple(int(x) for x in chunk.split(",")) for chunk in chunks]
        out.append(SignatureSet.of(6, parts))
    return out


def signature_count(n: int, p: int) -> int:
    """C(P(n)+p-1, p) where P(n) is the number of partitions of n."""
    pn = len(int_partitions(n))
    return math.comb(pn + p - 1, p)
