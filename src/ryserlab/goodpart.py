"""Good partitions of 2-sided colorings and the covering-code quantity Z(r,d).

Z(r,d) is the least z such that some z words of length d over [r] leave no word
everywhere-different from all of them; equivalently the total domination number
of the d-fold direct power of K_r, equivalently the transversal number of the
hypergraph of punctured neighborhoods.  Two independent checkers (covers_all on
words, gamma_t_check on the product graph) guard every witness.  A 2-sided
coloring [Y, Z] has a good partition exactly when its row words leave a word
uncovered, so good_partition is covers_all on the rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .core import ColoredMultigraph, GraphError, mask_of
from .exact import Inconclusive, SolveBudget, min_cover, min_cover_milp


@dataclass(frozen=True)
class WordSet:
    r: int
    d: int
    words: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for w in self.words:
            if len(w) != self.d or any(not 1 <= a <= self.r for a in w):
                raise ValueError(f"word {w} does not fit ({self.r},{self.d})")

    @classmethod
    def of(cls, r, d, seqs) -> "WordSet":
        return cls(r, d, frozenset(tuple(s) for s in seqs))

    def sorted_words(self) -> list[tuple[int, ...]]:
        return sorted(self.words)


def all_words(r: int, d: int):
    return itertools.product(range(1, r + 1), repeat=d)


def everywhere_different(f, g) -> bool:
    return all(a != b for a, b in zip(f, g))


def covers_all(ws: WordSet, budget=None):
    """True iff every word over the alphabet is everywhere-different from some member.

    Returns the first uncovered word, in all_words order, instead of False.
    With a budget, each word tried is one "good partition" node.
    """
    members = ws.sorted_words()
    for f in all_words(ws.r, ws.d):
        if budget is not None:
            budget.charge("good partition")
        if not any(everywhere_different(f, g) for g in members):
            return f
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
    chosen = [sum((a - 1) * r ** i for i, a in enumerate(w)) for w in ws.words]
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


def _constant_words_witness(d: int) -> list[tuple[int, ...]]:
    # constants 1..d+1 work whenever r >= d+1: any word omits one of them
    return [tuple([i] * d) for i in range(1, d + 2)]


def _diagonal_plus_witness(r: int) -> list[tuple[int, ...]]:
    """The r + ceil(r/2) + 1 words showing Z(r,r) <= r + ceil(r/2) + 1."""
    d = r
    h = (r + 1) // 2
    words = [tuple([i] * d) for i in range(1, r + 1)]
    for i in range(1, h + 2):
        tail = 1 if i == h + 1 else i + 1
        words.append(tuple([i] * h + [tail] * (d - h)))
    return words


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
        return finish(d + 1, d + 1, _constant_words_witness(d), "constants, r >= d+1")

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
            uppers.append((_diagonal_plus_witness(r),
                           f"{method} (budget) + construction"))
        if not uppers:
            return finish(lower, n, None, f"{method} (budget)", stats)
        best, how = min(uppers, key=lambda t: len(t[0]))
        return finish(lower, len(best), best, how, stats)
    return finish(size + 2, size + 2, pins + chosen, method)


# ---------------------------------------------------------------------------
# good partitions and the bad bipartite colorings


def good_partition(g: ColoredMultigraph, Y, Z, budget=None):
    """A partition {Y_1..Y_r} of Y good for every z in Z, or None.

    Row z is the word of the least colors on the pairs yz, y in Y's order.  An
    assignment f: Y -> [r] is good iff every z has some y whose color is f(y),
    that is iff no row is everywhere-different from f: the good assignments are
    the words covers_all finds uncovered, and the first is the answer, as parts
    of Y's vertices.  Each word tried is a budget node; more words than nodes
    left are refused up front.
    """
    budget = budget or SolveBudget()
    least = {(y, z): min(g.colors_of(y, z), default=0) for y in Y for z in Z}
    for (y, z), c in least.items():
        if not c:
            raise GraphError("goodpart needs a complete bipartite coloring "
                             f"between the parts; pair {y},{z} has no color")
    dY, r = len(Y), g.r
    if dY > 0 and r ** dY > budget.nodes_left():
        raise budget.inconclusive(f"good partition budget exhausted: {r ** dY} candidates",
                                  stage="good partition")
    if not Z:
        f = (1,) * dY
    else:
        f = covers_all(WordSet.of(r, dY, {tuple(least[y, z] for y in Y) for z in Z}),
                       budget)
        if f is True:
            return None
    return [tuple(y for y, a in zip(Y, f) if a == c) for c in range(1, r + 1)]


def _binary_blocks(y_size: int, z_size: int) -> list[tuple[int, int, int]]:
    """The colored edges of the binary-block coloring between Y = 0..y_size-1
    and the z_size vertices after it."""
    if z_size < 2 ** y_size:
        raise ValueError(f"need z_size >= 2^{y_size} = {2 ** y_size}")
    blocks = list(all_words(2, y_size))
    base, extra = divmod(z_size, len(blocks))
    edges = []
    z = y_size
    for i, b in enumerate(blocks):
        for _ in range(base + (1 if i < extra else 0)):
            edges += [(y, z, c) for y, c in enumerate(b)]
            z += 1
    return edges


def bad_bipartite_coloring(y_size: int, z_size: int) -> ColoredMultigraph:
    """The binary-string 2-coloring of [Y, Z] with no good partition (needs
    z >= 2^y); Y is 0..y_size-1 and Z the vertices after it.

    Z splits into 2^y blocks, as equal as possible, indexed by words over
    {1,2}; inside block b, the edge to y gets color b(y).
    """
    return ColoredMultigraph.from_edges(y_size + z_size, 2,
                                        _binary_blocks(y_size, z_size))


def badmulti_graph(k: int, t: int) -> ColoredMultigraph:
    """A complete k-partite 2-colored graph with tp_2 >= t+1.

    One huge part Z of size (t+1)*2^y is colored against the union Y of the
    other parts with the binary-string coloring; all edges inside Y get color 1.

    Its tp is t + 2, one above badmulti_lower_bound, for every k and t.  At
    least: for phi(y) the color of y's part, Z's block whose word differs from
    phi at every y is t + 1 parts alone, beside the parts meeting Y.  At most:
    Y and Z less the all-2 block are one part in color 1, and that block's
    t + 1 vertices are singletons.
    """
    if k < 2 or t < 1:
        raise ValueError("need k >= 2 and t >= 1")
    y_size = k if k > 2 else 2
    # Y's parts: k-1 runs of vertices, as even as possible
    part = [i for i in range(k - 1)
            for _ in range(y_size // (k - 1) + (1 if i < y_size % (k - 1) else 0))]
    z_size = (t + 1) * 2 ** y_size
    edges = _binary_blocks(y_size, z_size)
    edges += [(u, v, 1) for u, v in itertools.combinations(range(y_size), 2)
              if part[u] != part[v]]
    return ColoredMultigraph.from_edges(y_size + z_size, 2, edges)


def badmulti_lower_bound(k: int, t: int) -> int:
    """The partition lower bound that badmulti_graph(k, t) carries: t + 1.

    It is the size of one of Z's 2^y binary blocks, (t + 1) * 2^y // 2^y; the
    division is exact for every y, so the bound does not depend on k.
    """
    return t + 1
