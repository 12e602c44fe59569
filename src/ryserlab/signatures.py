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

import itertools
import math
from dataclasses import dataclass
from importlib import resources

from .core import (ColoredMultigraph, GraphError, component_masks, components,
                   mask_of)


@dataclass(frozen=True, order=True)
class IntPartition:
    """Weakly decreasing positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def count_at_least(self, k: int) -> int:
        return sum(1 for p in self.parts if p >= k)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class SignatureSet:
    """Multiset of p integer partitions of n, stored sorted descending."""

    n: int
    p: int
    sigs: tuple[IntPartition, ...]

    def __post_init__(self):
        if len(self.sigs) != self.p:
            raise ValueError("need exactly p partitions")
        for s in self.sigs:
            if s.total != self.n:
                raise ValueError(f"partition {s} does not sum to {self.n}")
        if list(self.sigs) != sorted(self.sigs, reverse=True):
            raise ValueError("signature partitions must be stored sorted descending")

    @classmethod
    def of(cls, n: int, parts_list) -> "SignatureSet":
        sigs = tuple(sorted((IntPartition(tuple(p)) for p in parts_list), reverse=True))
        return cls(n, len(sigs), sigs)

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.parts for s in self.sigs)

    def __str__(self):
        return "{" + ",".join(str(s) for s in self.sigs) + "}"


def int_partitions(n: int) -> list[tuple[int, ...]]:
    """All weakly decreasing integer partitions of n, largest-part-first order."""
    out: list[tuple[int, ...]] = []

    def rec(rem, mx, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for q in range(min(rem, mx), 0, -1):
            cur.append(q)
            rec(rem - q, q, cur)
            cur.pop()

    rec(n, n, [])
    return out


def set_partitions_with_shape(n: int, shape) -> list[tuple[tuple[int, ...], ...]]:
    """Every set partition of range(n) whose block sizes form the given shape.

    The smallest remaining element always opens a block, and blocks of equal
    size are deduplicated by trying each distinct size once, so each set
    partition appears exactly once.
    """
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(remaining, sizes, blocks):
        if not remaining:
            out.append(tuple(blocks))
            return
        v = remaining[0]
        tried = set()
        for idx, s in enumerate(sizes):
            if s in tried:
                continue
            tried.add(s)
            nsizes = sizes[:idx] + sizes[idx + 1:]
            for rest in itertools.combinations(remaining[1:], s - 1):
                block = (v,) + tuple(rest)
                bs = set(block)
                rec(tuple(x for x in remaining if x not in bs), nsizes, blocks + [block])

    rec(tuple(range(n)), tuple(shape), [])
    return out


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


def enumerate_signatures(n: int, p: int) -> list[SignatureSet]:
    """All multisets of p integer partitions of n, in canonical descending order."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    shapes = sorted(int_partitions(n), reverse=True)
    return [SignatureSet.of(n, combo)
            for combo in itertools.combinations_with_replacement(shapes, p)]


def passes_edge_count(sig: SignatureSet) -> bool:
    """The counting necessary condition: component cliques must cover all pairs."""
    n = sig.n
    total = sum(q * (q - 1) // 2 for s in sig.sigs for q in s.parts)
    return total >= n * (n - 1) // 2


# ---------------------------------------------------------------------------
# realizability search

class _ShapeTables:
    """Per-(n) cache of set partitions, pair masks and W-restriction profiles."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = list(itertools.combinations(range(n), 2))
        self.pair_idx = {pq: i for i, pq in enumerate(self.pairs)}
        self.full = (1 << len(self.pairs)) - 1
        self.parts: dict[tuple[int, ...], list] = {}
        self.masks: dict[tuple[int, ...], list[int]] = {}
        self.profiles: dict[tuple[int, ...], list[list[tuple[int, int, int]]]] = {}
        self.w_subsets = [w for size in (3, 4, 5) if size <= n
                          for w in itertools.combinations(range(n), size)]
        self.w_size = [len(w) for w in self.w_subsets]

    def ensure(self, shape: tuple[int, ...], with_profiles: bool = False):
        if shape not in self.parts:
            plist = set_partitions_with_shape(self.n, shape)
            self.parts[shape] = plist
            self.masks[shape] = [self._pmask(p) for p in plist]
        if with_profiles and shape not in self.profiles:
            self.profiles[shape] = [
                [_restrict_profile(p, w) for w in self.w_subsets]
                for p in self.parts[shape]
            ]

    def _pmask(self, blocks) -> int:
        m = 0
        for b in blocks:
            for u, v in itertools.combinations(b, 2):
                m |= 1 << self.pair_idx[(u, v)]
        return m


def _restrict_profile(blocks, w) -> tuple[int, int, int]:
    """(#blocks, #blocks of size>=2, #blocks of size>=3) of the restriction to w."""
    t = g2 = g3 = 0
    ws = set(w)
    for b in blocks:
        c = len(ws.intersection(b))
        if c:
            t += 1
            if c >= 2:
                g2 += 1
            if c >= 3:
                g3 += 1
    return (t, g2, g3)


_TABLES: dict[int, _ShapeTables] = {}


def _tables(n: int) -> _ShapeTables:
    if n not in _TABLES:
        _TABLES[n] = _ShapeTables(n)
    return _TABLES[n]


def _realization_graph(n: int, p: int, blocks_tuple) -> ColoredMultigraph:
    """The closed multicoloring of K_n whose color classes are the given partitions."""
    edges = []
    for ci, blocks in enumerate(blocks_tuple, start=1):
        for b in blocks:
            for u, v in itertools.combinations(sorted(b), 2):
                edges.append((u, v, ci))
    return ColoredMultigraph.from_edges(n, p, edges)


def is_valid(sig: SignatureSet) -> ColoredMultigraph | None:
    """A realization of the signature as a closed multicoloring of K_n, or None.

    Applies the edge-counting filter first, then searches tuples of set
    partitions with the prescribed shapes whose blocks cover every vertex pair.
    The first partition is pinned to a canonical representative (vertex
    symmetry) and equal shapes are enumerated index-nondecreasing.
    """
    if not passes_edge_count(sig):
        return None
    tab = _tables(sig.n)
    shapes = list(sig.shapes())
    for s in shapes:
        tab.ensure(s)
    order = sorted(range(len(shapes)), key=lambda i: (len(tab.parts[shapes[i]]), i))
    fixed_shape = shapes[order[0]]
    rest = [shapes[i] for i in order[1:]]
    rest_masks = [tab.masks[s] for s in rest]
    suffix_union = [0] * (len(rest) + 1)
    for c in range(len(rest) - 1, -1, -1):
        u = suffix_union[c + 1]
        for m in rest_masks[c]:
            u |= m
        suffix_union[c] = u

    fixed_mask = tab.masks[fixed_shape][0]
    hit: list[list[int]] = []

    def rec(c, acc, idxs):
        if c == len(rest):
            if acc == tab.full:
                hit.append(idxs)
                return True
            return False
        if acc | suffix_union[c] != tab.full:
            return False
        lo = idxs[-1] if (idxs and rest[c] == rest[c - 1]) else 0
        ms = rest_masks[c]
        for i in range(lo, len(ms)):
            if rec(c + 1, acc | ms[i], idxs + [i]):
                return True
        return False

    if not rec(0, fixed_mask, []):
        return None
    chosen = hit[0]
    blocks = [tab.parts[fixed_shape][0]]
    for c, s in enumerate(rest):
        blocks.append(tab.parts[s][chosen[c]])
    # reorder blocks back to the signature's color order
    by_color = [None] * len(shapes)
    for pos, i in enumerate(order):
        by_color[i] = blocks[pos]
    g = _realization_graph(sig.n, sig.p, by_color)
    if signature_of(g, range(sig.n), range(1, sig.p + 1)) != sig:
        raise AssertionError(f"realization of {sig} has another signature")
    return g


# ---------------------------------------------------------------------------
# lemma filters


def _lemma_r5(shapes) -> bool:
    t = [len(s) for s in shapes]
    g2 = [sum(1 for x in s if x >= 2) for s in shapes]
    g3 = [sum(1 for x in s if x >= 3) for s in shapes]
    for i, j, k in itertools.permutations(range(3)):
        if t[i] + t[j] + g3[k] <= 4:
            return True
        if t[i] + g2[j] + g2[k] <= 4:
            return True
    return False


def _lemma_r6(shapes) -> bool:
    t = [len(s) for s in shapes]
    g2 = [sum(1 for x in s if x >= 2) for s in shapes]
    g3 = [sum(1 for x in s if x >= 3) for s in shapes]
    g4 = [sum(1 for x in s if x >= 4) for s in shapes]
    for i, j, k, l in itertools.permutations(range(4)):
        if t[i] + g2[j] + g2[k] + g2[l] <= 5:
            return True
        if t[i] + t[j] + g2[k] + g3[l] <= 5:
            return True
        if t[i] + t[j] + t[k] + g4[l] <= 5:
            return True
    return False


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


def realization_admits_w(g: ColoredMultigraph) -> bool:
    """Whether some W of size 3..5 in this 4-colored realization satisfies lem:r6ii."""
    n = g.n
    blocks = []
    for c in range(1, 5):
        blocks.append(components(g, c).parts)
    for size in (3, 4, 5):
        for w in itertools.combinations(range(n), size):
            profs = [_restrict_profile(b, w) for b in blocks]
            if _w_qualifies(size, profs):
                return True
    return False


def _analyze_r6ii(sig: SignatureSet) -> tuple[bool, bool]:
    """(valid, free) where free means: some realization admits no qualifying W."""
    if not passes_edge_count(sig):
        return (False, False)
    tab = _tables(sig.n)
    shapes = list(sig.shapes())
    for s in shapes:
        tab.ensure(s, with_profiles=True)
    order = sorted(range(4), key=lambda i: (len(tab.parts[shapes[i]]), i))
    fixed_shape = shapes[order[0]]
    rest = [shapes[i] for i in order[1:]]
    fixed_prof = tab.profiles[fixed_shape][0]
    fixed_mask = tab.masks[fixed_shape][0]
    rest_masks = [tab.masks[s] for s in rest]
    rest_profs = [tab.profiles[s] for s in rest]
    suffix_union = [0] * 4
    for c in range(2, -1, -1):
        u = suffix_union[c + 1]
        for m in rest_masks[c]:
            u |= m
        suffix_union[c] = u
    n_w = len(tab.w_subsets)
    w_size = tab.w_size
    state = {"valid": False, "free": False}

    def tuple_free(idxs) -> bool:
        p0, p1, p2 = (rest_profs[0][idxs[0]], rest_profs[1][idxs[1]],
                      rest_profs[2][idxs[2]])
        for w_i in range(n_w):
            if _w_qualifies(w_size[w_i],
                            (fixed_prof[w_i], p0[w_i], p1[w_i], p2[w_i])):
                return False
        return True

    def rec(c, acc, idxs):
        if c == 3:
            if acc == tab.full:
                state["valid"] = True
                if not state["free"] and tuple_free(idxs):
                    state["free"] = True
            return
        if acc | suffix_union[c] != tab.full:
            return
        lo = idxs[-1] if (idxs and rest[c] == rest[c - 1]) else 0
        ms = rest_masks[c]
        for i in range(lo, len(ms)):
            rec(c + 1, acc | ms[i], idxs + [i])
            if state["free"]:
                return

    rec(0, fixed_mask, [])
    return state["valid"], state["free"]


def lemma_filter(sig: SignatureSet, which: str, g: ColoredMultigraph | None = None) -> bool:
    """True iff the named lemma eliminates this signature.

    R5 applies at (n,p)=(5,3), R6 and R6II at (6,4).  R6II with a concrete
    realization g tests that single realization; without one it quantifies
    over every realization found by the validity search (a signature is
    eliminated only when each realization admits a qualifying subset W).
    """
    which = which.upper()
    if which == "R5":
        if (sig.n, sig.p) != (5, 3):
            raise ValueError("R5 needs (n,p)=(5,3)")
        return _lemma_r5(sig.shapes())
    if which == "R6":
        if (sig.n, sig.p) != (6, 4):
            raise ValueError("R6 needs (n,p)=(6,4)")
        return _lemma_r6(sig.shapes())
    if which == "R6II":
        if (sig.n, sig.p) != (6, 4):
            raise ValueError("R6II needs (n,p)=(6,4)")
        if g is not None:
            return realization_admits_w(g)
        valid, free = _analyze_r6ii(sig)
        return valid and not free
    raise ValueError(f"unknown lemma filter {which!r}")


def valid_signatures(n: int, p: int) -> list[SignatureSet]:
    return [s for s in enumerate_signatures(n, p) if is_valid(s) is not None]


def residual_cases(n: int, p: int) -> list[SignatureSet]:
    """Valid signatures surviving every applicable lemma filter, sorted."""
    if (n, p) == (5, 3):
        out = [s for s in enumerate_signatures(5, 3)
               if is_valid(s) is not None and not _lemma_r5(s.shapes())]
        return sorted(out, key=lambda s: s.shapes(), reverse=True)
    if (n, p) == (6, 4):
        out = []
        for s in enumerate_signatures(6, 4):
            valid, free = _analyze_r6ii(s)
            if not valid:
                continue
            if _lemma_r6(s.shapes()):
                continue
            if free:
                out.append(s)
        return sorted(out, key=lambda s: s.shapes(), reverse=True)
    raise ValueError(f"residual_cases supports (5,3) and (6,4), not ({n},{p})")


def load_r6_fixture() -> list[SignatureSet]:
    """The shipped transcription of the 173 surviving (6,4) signatures.

    One signature per line in the form `(6),(4,2),(4,2),(4,2)`.
    """
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
