"""Good partitions of 2-sided colorings and the covering-code quantity Z(r,d).

Z(r,d) is the least z such that some z words of length d over [r] leave no word
everywhere-different from all of them; equivalently the total domination number
of the d-fold direct power of K_r, equivalently the transversal number of the
hypergraph of punctured neighborhoods.  Two independent checkers (covers_all on
words, gamma_t_check on the product graph) guard every witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

from .core import ColoredMultigraph


@dataclass(frozen=True, order=True)
class Word:
    letters: tuple[int, ...]

    def __post_init__(self):
        if any(a < 1 for a in self.letters):
            raise ValueError("letters start at 1")

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class WordSet:
    r: int
    d: int
    words: frozenset[Word]

    def __post_init__(self):
        for w in self.words:
            if len(w.letters) != self.d or any(a > self.r for a in w.letters):
                raise ValueError(f"word {w.letters} does not fit ({self.r},{self.d})")

    @classmethod
    def of(cls, r, d, seqs) -> "WordSet":
        return cls(r, d, frozenset(Word(tuple(s)) for s in seqs))

    def sorted_words(self) -> list[tuple[int, ...]]:
        return sorted(w.letters for w in self.words)


def all_words(r: int, d: int):
    return itertools.product(range(1, r + 1), repeat=d)


def everywhere_different(f, g) -> bool:
    return all(a != b for a, b in zip(f, g))


def covers_all(ws: WordSet):
    """True iff every word over the alphabet is everywhere-different from some member.

    Returns an uncovered witness Word instead of False.
    """
    members = ws.sorted_words()
    for f in all_words(ws.r, ws.d):
        if not any(everywhere_different(f, g) for g in members):
            return Word(tuple(f))
    return True


@functools.lru_cache(maxsize=32)
def _position_masks(r: int, d: int):
    """differs[i][a] = bitmask of vertices whose letter at position i is not a."""
    n = r ** d
    differs = [[0] * (r + 1) for _ in range(d)]
    for v in range(n):
        x = v
        for i in range(d):
            a = x % r + 1
            x //= r
            for b in range(1, r + 1):
                if b != a:
                    differs[i][b] |= 1 << v
    return differs


def gamma_t_check(r: int, d: int, ws: WordSet) -> bool:
    """Total domination check on K_r^{x d}, implemented through the product structure.

    Independent of covers_all: adjacency is assembled positionwise as bitmasks
    over the r^d vertices and every vertex must see a chosen neighbor.
    """
    n = r ** d
    if ws.r != r or ws.d != d:
        raise ValueError("word set does not match (r,d)")
    # vertex index: word w -> sum (w_i - 1) * r^i
    chosen = [sum((a - 1) * r ** i for i, a in enumerate(w.letters)) for w in ws.words]
    if not chosen:
        return False
    differs = _position_masks(r, d)
    covered = 0
    for u in chosen:
        x = u
        mask = (1 << n) - 1
        for i in range(d):
            a = x % r + 1
            x //= r
            mask &= differs[i][a]
        covered |= mask
    return covered == (1 << n) - 1


# ---------------------------------------------------------------------------
# exact Z(r,d)


@dataclass
class SolveOutcome:
    """Exact value when lower == upper; otherwise the proven interval."""

    lower: int
    upper: int
    witness: WordSet | None
    exact: bool = field(init=False)
    method: str = ""

    def __post_init__(self):
        self.exact = self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"only the interval [{self.lower},{self.upper}] is proven")
        return self.lower


def _constant_words_witness(r: int, d: int) -> WordSet:
    # constants 1..d+1 work whenever r >= d+1: any word omits one of them
    return WordSet.of(r, d, [tuple([i] * d) for i in range(1, d + 2)])


def _diagonal_plus_witness(r: int) -> WordSet:
    """The r + ceil(r/2) + 1 words showing Z(r,r) <= r + ceil(r/2) + 1."""
    d = r
    h = (r + 1) // 2
    words = [tuple([i] * d) for i in range(1, r + 1)]
    for i in range(1, h + 2):
        tail = 1 if i == h + 1 else i + 1
        words.append(tuple([i] * h + [tail] * (d - h)))
    return WordSet.of(r, r, words)


def _lower_bound(r: int, d: int) -> int:
    frac = math.ceil((r / (r - 1)) ** d)
    return max(frac, d + 1)


def _bb_min_dominating(r: int, d: int, ub_words, node_limit, deadline):
    """Branch and bound minimum total dominating set of K_r^{x d}.

    The first word is pinned to all-1s (the automorphism group is vertex
    transitive), branching picks the uncovered word with fewest dominators and
    tries its dominators by decreasing fresh coverage.
    """
    W = list(all_words(r, d))
    n = len(W)
    dom = [0] * n
    for i, f in enumerate(W):
        m = 0
        for j, g in enumerate(W):
            if everywhere_different(f, g):
                m |= 1 << j
        dom[i] = m
    full = (1 << n) - 1
    maxcov = (r - 1) ** d
    best = len(ub_words) if ub_words is not None else n
    best_set = list(ub_words) if ub_words is not None else [W[i] for i in range(n)]
    nodes = 0
    gave_up = False

    def rec(uncovered, chosen):
        nonlocal best, best_set, nodes, gave_up
        if gave_up:
            return
        nodes += 1
        if nodes > node_limit or (nodes % 65536 == 0 and time.monotonic() > deadline):
            gave_up = True
            return
        if uncovered == 0:
            if len(chosen) < best:
                best = len(chosen)
                best_set = [W[j] for j in chosen]
            return
        uc = uncovered.bit_count()
        if len(chosen) + (uc + maxcov - 1) // maxcov >= best:
            return
        pick, pick_cnt = -1, 1 << 60
        m = uncovered
        while m:
            b = m & -m
            i = b.bit_length() - 1
            m ^= b
            c = dom[i].bit_count()
            if c < pick_cnt:
                pick_cnt, pick = c, i
        cands = []
        m = dom[pick]
        while m:
            b = m & -m
            j = b.bit_length() - 1
            m ^= b
            cands.append(((dom[j] & uncovered).bit_count(), j))
        cands.sort(reverse=True)
        for _, j in cands:
            chosen.append(j)
            rec(uncovered & ~dom[j], chosen)
            chosen.pop()
            if gave_up:
                return

    w1 = W.index(tuple([1] * d))
    rec(full & ~dom[w1], [w1])
    return best, best_set, gave_up


def _milp_min_dominating(r: int, d: int, time_limit: float):
    """Exact transversal of H(r,d) through the HiGHS MILP engine."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    W = list(all_words(r, d))
    n = len(W)
    rows, cols = [], []
    for i, f in enumerate(W):
        for j, g in enumerate(W):
            if everywhere_different(f, g):
                rows.append(i)
                cols.append(j)
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    res = milp(c=np.ones(n), constraints=LinearConstraint(A, lb=1, ub=np.inf),
               integrality=np.ones(n), bounds=Bounds(0, 1),
               options={"time_limit": time_limit, "mip_rel_gap": 0.0})
    if res.status == 0 and res.x is not None:
        chosen = [W[j] for j in range(n) if res.x[j] > 0.5]
        return len(chosen), chosen, False
    lower = None
    if getattr(res, "mip_dual_bound", None) is not None:
        lower = math.ceil(res.mip_dual_bound - 1e-9)
    upper_words = None
    if res.x is not None:
        upper_words = [W[j] for j in range(n) if res.x[j] > 0.5]
    return lower, upper_words, True


def z_exact(r: int, d: int, budget=None) -> SolveOutcome:
    """Exact Z(r,d) with witness, or the proven interval when the budget runs out.

    Closed-form fast paths: r=2 (complement pairing forces all 2^d words) and
    r >= d+1 (constant words meet the d+1 lower bound).  Small spaces go to the
    hand-rolled branch and bound; the heavy cases delegate bound proving to the
    HiGHS MILP engine.  Witnesses are re-verified by covers_all and gamma_t_check.
    """
    from .exact import SolveBudget

    if r < 2 or d < 1:
        raise ValueError("need r >= 2 and d >= 1")
    budget = budget or SolveBudget()
    lb = _lower_bound(r, d)

    def finish(lower, upper, words, method):
        ws = WordSet.of(r, d, words) if words is not None else None
        if ws is not None and lower == upper:
            if covers_all(ws) is not True:
                raise AssertionError(f"Z({r},{d}) witness fails the domination check")
            if r ** d <= 4096 and not gamma_t_check(r, d, ws):
                raise AssertionError(f"Z({r},{d}) witness fails the gamma_t check")
        out = SolveOutcome(lower, upper, ws)
        out.method = method
        return out

    if r == 2:
        # each word dominates exactly its complement, so all 2^d words are needed
        words = [tuple(w) for w in all_words(2, d)]
        return finish(2 ** d, 2 ** d, words, "closed-form r=2")
    if r >= d + 1:
        ws = _constant_words_witness(r, d)
        return finish(d + 1, d + 1, ws.sorted_words(), "constants, r >= d+1")

    upper_seed = None
    if r == d:
        upper_seed = _diagonal_plus_witness(r).sorted_words()

    n = r ** d
    deadline = time.monotonic() + budget.max_seconds
    if n <= 100:
        best, best_set, gave_up = _bb_min_dominating(
            r, d, upper_seed, budget.max_nodes, deadline)
        if not gave_up:
            return finish(best, best, best_set, "branch-and-bound")
        return finish(lb, best, best_set, "branch-and-bound (budget)")
    remain = max(5.0, deadline - time.monotonic())
    lower, words, hit_limit = _milp_min_dominating(r, d, remain)
    if not hit_limit:
        return finish(lower, lower, words, "milp")
    lo = max(lb, lower or lb)
    if words is not None:
        ws = WordSet.of(r, d, words)
        if covers_all(ws) is True:
            return finish(lo, len(words), words, "milp (budget)")
    if upper_seed is not None:
        return finish(lo, len(upper_seed), upper_seed, "milp (budget) + construction")
    return finish(lo, n, None, "milp (budget)")


# ---------------------------------------------------------------------------
# good partitions and the bad bipartite colorings


@dataclass
class BipartiteColoring:
    """An r-coloring of the complete bipartite graph [Y, Z] as a matrix."""

    y_size: int
    z_size: int
    r: int
    color: dict  # (y_index, z_index) -> color

    def graph(self) -> ColoredMultigraph:
        """Y occupies vertices 0..y_size-1, Z the rest."""
        edges = []
        for (y, z), c in sorted(self.color.items()):
            edges.append((y, self.y_size + z, c))
        return ColoredMultigraph.from_edges(self.y_size + self.z_size, self.r, edges)


def good_partition(col: BipartiteColoring, budget=None):
    """A partition {Y_1..Y_r} of Y good for every z, or None, or 'inconclusive'.

    An assignment f: Y -> [r] is good iff every z has some y with color(z,y) =
    f(y); equivalently f must not be everywhere-different from every row word.
    """
    from .exact import SolveBudget

    budget = budget or SolveBudget()
    dY, r = col.y_size, col.r
    if dY > 0 and r ** dY > budget.max_nodes:
        return "inconclusive"
    rows = sorted({tuple(col.color[(y, z)] for y in range(dY))
                   for z in range(col.z_size)})
    if not rows:
        f = tuple([1] * dY)
    else:
        f = None
        for cand in all_words(r, dY):
            if not any(everywhere_different(cand, row) for row in rows):
                f = cand
                break
        if f is None:
            return None
    parts = [tuple(y for y in range(dY) if f[y] == c) for c in range(1, r + 1)]
    return parts


def bad_bipartite_coloring(y_size: int, z_size: int) -> BipartiteColoring:
    """The binary-string 2-coloring with no good partition (needs z >= 2^y).

    Z splits into 2^y blocks, as equal as possible, indexed by words over
    {1,2}; inside block b, the edge to y gets color b(y).
    """
    if z_size < 2 ** y_size:
        raise ValueError(f"need z_size >= 2^{y_size} = {2 ** y_size}")
    blocks = list(all_words(2, y_size))
    base, extra = divmod(z_size, len(blocks))
    color = {}
    z = 0
    for i, b in enumerate(blocks):
        cnt = base + (1 if i < extra else 0)
        for _ in range(cnt):
            for y in range(y_size):
                color[(y, z)] = b[y]
            z += 1
    return BipartiteColoring(y_size, z_size, 2, color)


def badmulti_graph(k: int, t: int) -> ColoredMultigraph:
    """A complete k-partite 2-colored graph with tp_2 >= t+1.

    One huge part Z of size (t+1)*2^y is colored against the union Y of the
    other parts with the binary-string coloring; all edges inside Y get color 1.
    """
    if k < 2 or t < 1:
        raise ValueError("need k >= 2 and t >= 1")
    y_size = k if k > 2 else 2
    # distribute Y over k-1 parts as evenly as possible
    part_sizes = [y_size // (k - 1) + (1 if i < y_size % (k - 1) else 0)
                  for i in range(k - 1)]
    y_size = sum(part_sizes)
    z_size = (t + 1) * 2 ** y_size
    col = bad_bipartite_coloring(y_size, z_size)
    edges = []
    for (y, z), c in col.color.items():
        edges.append((y, y_size + z, c))
    # complete the Y side across its parts with color 1
    bounds = []
    acc = 0
    for s in part_sizes:
        bounds.append((acc, acc + s))
        acc += s
    for (a0, a1), (b0, b1) in itertools.combinations(bounds, 2):
        for u in range(a0, a1):
            for v in range(b0, b1):
                edges.append((u, v, 1))
    return ColoredMultigraph.from_edges(y_size + z_size, 2, edges)


def badmulti_lower_bound(k: int, t: int) -> int:
    y_size = k if k > 2 else 2
    z_size = (t + 1) * 2 ** y_size
    return z_size // 2 ** y_size
