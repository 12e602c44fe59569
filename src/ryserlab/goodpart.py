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
from dataclasses import dataclass, field

from .core import ColoredMultigraph, mask_of
from .exact import Inconclusive, SolveBudget, min_cover, min_cover_milp


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
    # the stopped search's counters and why it stopped, when not exact
    stats: dict = field(default_factory=dict)

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


def z_exact(r: int, d: int, budget=None) -> SolveOutcome:
    """Exact Z(r,d) with witness, or the proven interval when the budget runs out.

    Closed-form fast paths: r=2 (complement pairing forces all 2^d words) and
    r >= d+1 (constant words meet the d+1 lower bound).  Otherwise Z(r,d) is a
    minimum set cover of the r^d words by their everywhere-different sets: the
    branch and bound settles spaces of at most 100 words, the HiGHS MILP the
    larger ones.  Witnesses are re-verified by covers_all and gamma_t_check.
    """
    if r < 2 or d < 1:
        raise ValueError("need r >= 2 and d >= 1")
    budget = budget or SolveBudget()
    lb = _lower_bound(r, d)

    def finish(lower, upper, words, method, stats=None):
        ws = WordSet.of(r, d, words) if words is not None else None
        if ws is not None:
            if covers_all(ws) is not True:
                raise AssertionError(f"Z({r},{d}) witness fails the domination check")
            if r ** d <= 4096 and not gamma_t_check(r, d, ws):
                raise AssertionError(f"Z({r},{d}) witness fails the gamma_t check")
        return SolveOutcome(lower, upper, ws, method, stats or {})

    if r == 2:
        # each word dominates exactly its complement, so all 2^d words are needed
        words = [tuple(w) for w in all_words(2, d)]
        return finish(2 ** d, 2 ** d, words, "closed-form r=2")
    if r >= d + 1:
        ws = _constant_words_witness(r, d)
        return finish(d + 1, d + 1, ws.sorted_words(), "constants, r >= d+1")

    words = list(all_words(r, d))
    n = len(words)
    dom = [mask_of(j for j, g in enumerate(words) if everywhere_different(f, g))
           for f in words]
    solve, method = (min_cover, "branch-and-bound") if n <= 100 \
        else (min_cover_milp, "milp")
    # K_r^{x d} is vertex-transitive, so some minimum total dominating set D
    # holds the all-ones word 1^d.  Some u in D dominates 1^d, so u has no
    # letter 1.  The per-position letter permutations that fix 1 are
    # automorphisms; they fix 1^d and map u to 2^d.  So pin 1^d and 2^d,
    # cover only the words that hold both a 1 and a 2, and add 2 to the size
    # and to the lower bound.
    twos = words.index((2,) * d)
    pins = [words[0], words[twos]]
    residual = ((1 << n) - 1) & ~dom[0] & ~dom[twos]
    try:
        size, chosen = solve(residual, list(zip(dom, words)), budget)
    except Inconclusive as exc:
        lower = max(lb, exc.stats.get("lower", 0) + 2)
        stats = {**exc.stats, "stopped": str(exc)}
        uppers = []
        if exc.best is not None:
            uppers.append((pins + exc.best[1], f"{method} (budget)"))
        if r == d:
            uppers.append((_diagonal_plus_witness(r).sorted_words(),
                           f"{method} (budget) + construction"))
        if not uppers:
            return finish(lower, n, None, f"{method} (budget)", stats)
        best, how = min(uppers, key=lambda t: len(t[0]))
        return finish(lower, len(best), best, how, stats)
    return finish(size + 2, size + 2, pins + chosen, method)


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
    """A partition {Y_1..Y_r} of Y good for every z, or None.

    An assignment f: Y -> [r] is good iff every z has some y with color(z,y) =
    f(y); equivalently f must not be everywhere-different from every row word.
    Each candidate is a budget node; more candidates than nodes left are refused.
    """
    budget = budget or SolveBudget()
    dY, r = col.y_size, col.r
    if dY > 0 and r ** dY > budget.nodes_left():
        raise Inconclusive(f"good partition budget exhausted: {r ** dY} candidates",
                           {"nodes": budget.nodes, "stage": "good partition"})
    rows = sorted({tuple(col.color[(y, z)] for y in range(dY))
                   for z in range(col.z_size)})
    if not rows:
        f = tuple([1] * dY)
    else:
        f = None
        for cand in all_words(r, dY):
            budget.charge("good partition")
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
