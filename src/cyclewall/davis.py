"""Bounded-radius construction of the polygonal complex X and its square
subdivision X', with interior marking and the local geometry audits.

Polygons have trivial stabilizer, so they biject with group elements; a ball
of radius r holds the polygons indexed by elements of syllable length <= r.
Every cell of X and X' is a coset g<G_S>, keyed by its canonical coset
representative:

* X-vertex      = coset g(G_i x G_{i+1}),  key (i, g without its maximal
                                           syllables of vertices i, i+1);
* X-edge        = coset gG_i,              key (i, g without its maximal
                                           syllable of vertex i);
* X'-midpoint   = coset gG_i,              the X-edge's key;
* X'-center     = coset g,                 one per polygon.

The X-keys are ``coset_rep(g, {i, i+1})`` and ``coset_rep(g, {i})``, read
off the word's last syllables (``words.maximal_syllables``): a reduced word
has at most two maximal syllables (they commute pairwise, and a clique of
C_n, n >= 5, has at most two vertices), and stripping one of vertex i or
i+1 makes no other one maximal.  So no coset rep is computed.  A corner or
side keyed by g itself is new; any other lies on the polygon of g without
one of those syllables, a shorter word whose polygon came first.

The ball is listed once as integers (``ball_table``, a ``BallTable``): each
element of B(r) is numbered by its place in ``(len, word)`` order, a vertex
is (index, rep number), an X-edge (label, rep number, end vertex ids) and a
polygon its corners' and its sides' ids.  A new cell takes the next number
of its index or label, so vertex ids come in key order and edge ids in
(label, rep) order, the midpoints' key order, with no sort; the edges' key
order is a sort of integer pairs.  The table also lists each X-edge's wall
key as a rep number, read off the same last syllables in O(1) per polygon
side (``ball_table``).  ``build_ball`` lists the table alone, and it is the
ball's one form: every audit, the walls, the rebuild and the disc diagrams
read its records by id, and witnesses name a cell by the key string its
ids spell (``BallTable.vertex_key`` and ``BallTable.edge_key``).

X' is arithmetic on the table (``Subdivision``, built once per ball by
``subdivision``), with no cell object: with V X-vertices, E X-edges and n
sides per polygon, its vertex ids are the X-vertex ids, then V + e for the
midpoint of X-edge e, then V + E + k for the center of polygon k, so they
come in key order; its edge ids are 2e + end for the half of X-edge e at
that end, then 2E + n·k + i for spoke i of polygon k.  Square q = n·k + i,
around corner i of polygon k, is four corner ids and four side ids
(``_squares``); the audits read these records, through an index of the
squares at each vertex, and the JSON export lists them.  That index, like
the walls' skeleton of X', is built by ``incidence``: one pass counts the
squares at each vertex and a second puts each at its vertex's next free
slot, with no sort.

The group acts on X-vertices as (index, rep) pairs (``act_vertex``), the
record a vertex id names in the table, read one at a time where an element
acts; no code orders or names a moved vertex, so it needs no cell type.

A cell is interior iff every polygon of X containing it is present in the
ball, so audits restricted to interior cells see exactly the infinite
complex.  That is decided by the length of the cell's coset rep: a minimal
representative w of w<G_S> satisfies |w·h| = |w| + |h| for h in <G_S>
(the graph-product normal form; Green, *Graph products of groups*, 1990).
The polygons around the vertex w<G_S> are w·h for h in <G_S>, the longest of
length |w| + |S|, so one rule serves both forms: the vertex w<G_S> is
interior iff |w| + |S| <= r, a labelled edge (an X-edge or a half of one)
iff |w| + 1 <= r, and a spoke, which lies inside one polygon, always.

Both exports, ``iter_ball_json`` and ``iter_ball_dot``, read the table
alone (``_rows``): each element's word is formatted once and every vertex
and midpoint key string has a list slot.  Neither builds the square index.
Both stream, in chunks of up to 1,024 records or lines.

The link audits build no link.  Every interior link of X' has a closed form
fixed by its cell kind: K_{|G_{i+1}|,|G_i|} at the X-vertex g(G_i x G_{i+1}),
K_{2,|G_i|} at the midpoint of a label-i X-edge, and the n-cycle at a polygon
center.  Each has girth 4 or n >= 5, which is the link condition for a
square complex (Bridson-Haefliger, *Metric Spaces of Non-positive
Curvature*, II.5.20).  One pass over the square records (``_links``, built
once per ball) checks, a column at a time, that each record's sides end at
the corners their places say and that square n·k + i holds spokes i and
i+1 of polygon k; then the square count at each interior vertex, with the
pairs of sides at an X-vertex, decides whether its link is its closed form
(the proof is in ``_links``).  ``t4_audit``, ``links_audit`` and
``free_face_audit``, which reads each side's square count, take their
verdicts from it; a broken record is the link rows' witness, naming the
square (``word#corner``).  The squares at an X-vertex are its polygons'
corners there, and a square's two sides at it are the halves of its
polygon's two sides; so the link of an X-vertex in X is its link in X',
each half read as its X-edge, which is what ``links_audit`` reads.
``polygon_pair_audit`` visits no pair of polygons on a sound ball: it
reads the table's polygon columns a fixed number of times, checking that
each corner and side sits at its place and that no two polygons hold the
same two corners at non-adjacent places, and no two X-edges the same ends;
then two polygons meet in at most one edge, and the pairs sharing a vertex
number Σ_v C(d_v, 2) - Σ_e C(d_e, 2) (the proof is in
``polygon_pair_audit``).  Records are intersected only for the polygons
whose columns break.
"""

from __future__ import annotations

import operator
import os
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress, count, cycle, islice, repeat
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import ResourceLimitError, ValidationError
from .reports import Report
from .words import (
    GroupElement,
    Presentation,
    coset_rep,
    enumerate_ball_elements,
    format_word,
    maximal_syllables,
    mul,
)

# vertex classes, as key strings name them
TRIVIAL = "trivial"   # coset of the trivial subgroup (squares' centers)
EDGE = "edge"         # coset of G_i (edge midpoints of the subdivision)
POLY = "poly"         # coset of G_i x G_{i+1} (vertices of X)


class ComplexBall:
    """A polygonal ball: its table (``ball_table``), listed once, and what is
    derived from it."""

    def __init__(self, presentation: Presentation, radius: int):
        self.presentation = presentation
        self.radius = radius
        # what is derived from this ball (its table, subdivision, walls,
        # element balls, stabilizers, mediums, incidence indexes), built on
        # first use; it lives and dies with the ball, which is not changed
        # once built, and is shared by every caller
        self.derived: dict = {}

    @property
    def n(self) -> int:
        return self.presentation.n

    @property
    def table(self) -> BallTable:
        """The ball as integers, kept by ``build_ball``."""
        return self.derived["table"]

    # a class attribute: a ball is polygonal (X' is a ``Subdivision``); kept for
    # callers that key balls by their form, as perfbench's tracer does
    form = "polygonal"

    def derive(self, key, build):
        """``build()``, computed once per key and kept on this ball."""
        if key not in self.derived:
            self.derived[key] = build()
        return self.derived[key]

    def elements(self, L: int) -> tuple[GroupElement, ...]:
        """``enumerate_ball_elements(presentation, L)``, computed once per ball."""
        return self.derive(("elements", L),
                           lambda: tuple(enumerate_ball_elements(self.presentation, L)))


# -- the action on X-vertices ---------------------------------------------------


def act_vertex(h: GroupElement, v: tuple[int, GroupElement]) -> tuple[int, GroupElement]:
    """h·v for the X-vertex v = (i, rep), the coset rep(G_i x G_{i+1}), as
    the same kind of pair: i and the minimal rep of h·rep modulo the window."""
    i, rep = v
    return i, coset_rep(mul(h, rep), (i, (i + 1) % h.presentation.n))


# -- construction ---------------------------------------------------------------


def _memory_budget_mb() -> Optional[int]:
    raw = os.environ.get("CYCLEWALL_MEM_MB")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"CYCLEWALL_MEM_MB must be an integer, got {raw!r}") from None


class BallTable(NamedTuple):
    """The polygonal ball B(r) listed as integers, in flat ``array``s of
    fixed-width records (read with ``_records``).

    ``reps`` holds B(r) in ``(len, word)`` order; an element's rep number is
    its place there.  A vertex g(G_i x G_{i+1}) is (i, rep), listed in key
    order; an X-edge gG_i is (i, rep, end, end), with its end vertex ids in
    key order, listed in (label, rep) order, the key order of X''s
    midpoints; ``edge_order`` lists the edge ids in key order.  Polygon k,
    that of ``reps[k]``, is the record of its corners' vertex ids
    (v_0 .. v_{n-1}) and then its sides' edge ids (e_0 .. e_{n-1}).
    ``wall_keys`` holds, by edge id, the rep number of the edge's wall key:
    the minimal rep of g<G_{i-1}, G_i, G_{i+1}> for the edge gG_i.
    """

    presentation: Presentation
    radius: int
    reps: list[GroupElement]
    vertices: array
    edges: array
    edge_order: array
    polygons: array
    wall_keys: array

    def inner(self, rank: int) -> list[bool]:
        """By rep number g: whether the cell g<G_S> with |S| = ``rank`` is
        interior, |g| + |S| <= r (the module docstring)."""
        return [len(g.word) + rank <= self.radius for g in self.reps]

    def interior_vertices(self) -> list[int]:
        """The ids of the interior X-vertices, in key order."""
        inner = self.inner(2)
        return [x for x, k in enumerate(self.vertices[1::2]) if inner[k]]

    def corners(self, k: int) -> array:
        """Polygon k's corner ids, v_0 .. v_{n-1}."""
        n = self.presentation.n
        return self.polygons[2 * n * k:2 * n * k + n]

    def sides(self, k: int) -> array:
        """Polygon k's side ids, e_0 .. e_{n-1}."""
        n = self.presentation.n
        return self.polygons[2 * n * k + n:2 * n * (k + 1)]

    def ends(self, e: int) -> array:
        """X-edge e's end ids, in key order (so in id order)."""
        return self.edges[4 * e + 2:4 * e + 4]

    def vertex_key(self, x: int) -> str:
        """X-vertex x's key string, ``poly|i|rep``."""
        i, k = self.vertices[2 * x:2 * x + 2]
        return f"{POLY}|{i}|{format_word(self.reps[k])}"

    def edge_key(self, e: int) -> str:
        """X-edge e's key string: its label and its ends' keys."""
        a, c = self.ends(e)
        return f"{self.edges[4 * e]}|{self.vertex_key(a)}--{self.vertex_key(c)}"


def _records(a: array, width: int) -> Iterator[tuple[int, ...]]:
    """The consecutive ``width``-tuples of a flat table column."""
    return zip(*[iter(a)] * width)


def edge_polygons(t: BallTable) -> list[list[int]]:
    """By X-edge id, the ids of the polygons on it, in polygon order, read
    off the polygons' side records."""
    n = t.presentation.n
    on = [[] for _ in range(len(t.edges) // 4)]
    for k, c in enumerate(_records(t.polygons, 2 * n)):
        for e in c[n:]:
            on[e].append(k)
    return on


def ball_table(p: Presentation, r: int) -> BallTable:
    """The polygonal ball of radius r as a ``BallTable``, within the
    ``CYCLEWALL_MEM_MB`` budget when that is set.

    A polygon's corner or side keyed by its own element g is new; any other
    is taken from the polygon of g without a maximal syllable, which came
    earlier.  A new cell gets the next number of its index (or label), so
    reps come in order within each, and adding each one's offset gives ids
    in key order (vertices) and in (label, rep) order (edges), unsorted.

    Wall keys are read off the same syllables.  A maximal syllable of g of
    vertex v lies in the star {i-1, i, i+1} of the labels i = v-1, v, v+1,
    so for those labels g and g without it have one wall key; for any other
    label g is its own key, as none of its syllables in that star can be
    shuffled to its end.  So each key is a rep number, found in O(1) per
    side, with no coset rep computed: O(n·|B(r)|) in all.
    """
    if r < 0:
        raise ValidationError("radius must be >= 0")
    p.require_finite()
    mem_mb = _memory_budget_mb()

    reps = enumerate_ball_elements(p, r)
    if mem_mb is not None:
        # crude estimate: ~2 KiB of cell data per polygon corner
        estimate_mb = len(reps) * p.n * 2048 / (1024 * 1024)
        if estimate_mb > mem_mb:
            raise ResourceLimitError(
                f"ball of radius {r} needs ~{estimate_mb:.0f} MiB, budget {mem_mb} MiB")

    n, w = p.n, 2 * p.n
    place = {g.word: k for k, g in enumerate(reps)}
    made = [[] for _ in range(w)]   # the reps of each index's new vertices, then each label's edges
    polygons = array("i")           # numbers within an index or label, flat: the collector skips it
    walls = array("i")              # at n·k + i, the wall key of polygon k's side i
    for k, g in enumerate(reps):
        word = g.word
        cells = [None] * w
        keys = [k] * n
        for v, j in maximal_syllables(p, word):
            h = place[word[:j] + word[j + 1:]]
            u, x, c, s = (v - 1) % n, (v + 1) % n, h * w, h * n
            cells[u], cells[v], cells[n + v] = polygons[c + u], polygons[c + v], polygons[c + n + v]
            keys[u], keys[v], keys[x] = walls[s + u], walls[s + v], walls[s + x]
        for i, c in enumerate(cells):
            if c is None:
                cells[i] = len(made[i])
                made[i].append(k)
        polygons.extend(cells)
        walls.extend(keys)
    # an id is a number plus the count of cells of the indices (or labels) before
    offsets = [*accumulate(map(len, made[:n - 1]), initial=0),
               *accumulate(map(len, made[n:-1]), initial=0)]
    polygons = array("i", map(operator.add, cycle(offsets), polygons))
    # side i joins corners i-1 and i; by index, i-1 comes first unless i = 0
    edges = array("i", chain.from_iterable(
        (i, k, polygons[k * w + i - 1], polygons[k * w + i]) if i else
        (0, k, polygons[k * w], polygons[k * w + n - 1])
        for i in range(n) for k in made[n + i]))
    nv = sum(map(len, made[:n]))
    codes = [a * nv + b for a, b in zip(edges[2::4], edges[3::4])]   # key order
    return BallTable(
        p, r, reps, array("i", chain.from_iterable(
            chain.from_iterable(zip(repeat(i), ks) for i, ks in enumerate(made[:n])))),
        edges, array("i", sorted(range(len(codes)), key=codes.__getitem__)), polygons,
        array("i", (walls[k * n + i] for i in range(n) for k in made[n + i])))


def build_ball(p: Presentation, r: int) -> ComplexBall:
    """Sub-complex of X spanned by polygons g.P with syllable length(g) <= r,
    within the ``CYCLEWALL_MEM_MB`` budget when that is set: the ball of
    ``ball_table(p, r)``."""
    ball = ComplexBall(p, r)
    ball.derived["table"] = ball_table(p, r)
    return ball


# -- subdivision ------------------------------------------------------------------


def _squares(t: BallTable) -> Iterator[tuple[int, ...]]:
    """Each square of X', q = n·k + i, as its corner ids (the midpoint of
    side i, v_i, the midpoint of side i+1, the center of polygon k) and
    its side ids (the halves of sides i and i+1 at v_i, spokes i and i+1),
    each side joining the corners it lies between.  Side i joins corners
    i-1 and i, in that order unless i = 0 (``BallTable``), so its half at
    v_i is its second half unless i = 0."""
    n = t.presentation.n
    nv, ne = len(t.vertices) // 2, len(t.edges) // 4
    for k, c in enumerate(_records(t.polygons, 2 * n)):
        for i in range(n):
            j = (i + 1) % n
            yield (nv + c[n + i], c[i], nv + c[n + j], nv + ne + k, 2 * c[n + i] + (i > 0),
                   2 * c[n + j] + (j == 0), 2 * ne + n * k + i, 2 * ne + n * k + j)


def incidence(keys: array, size: int,
              values: Optional[Iterable[int]] = None) -> tuple[array, array]:
    """(start, flat), an index of the places that hold each key: for each
    x < ``size``, the places k with ``keys[k] == x`` (or ``values[k]`` for
    them), in place order, at ``flat[start[x]:start[x + 1]]``.  One counting
    pass sizes each key's slice and a second puts each place at its key's
    next free slot, with no index list, which a sort of the places would
    hold (21.8 MB for the ends of X''s edges at c5_z3 radius 5)."""
    degree = [0] * size
    for x in keys:
        degree[x] += 1
    start = array("i", accumulate(degree, initial=0))
    flat, free = array("i", [0]) * len(keys), array("i", start)
    for y, x in enumerate(keys) if values is None else zip(values, keys):
        i = free[x]
        flat[i] = y
        free[x] = i + 1
    return start, flat


class Subdivision(NamedTuple):
    """X' of a polygonal ball, numbered from its table (see the module
    docstring), in flat ``array``s.

    ``squares`` holds square q's record from ``_squares`` at
    ``8q .. 8q + 7``; ``ends`` holds X' edge s's two end ids, in key order,
    at ``2s`` and ``2s + 1``.  The squares at vertex x are listed in square
    order by ``at[start[x]:start[x + 1]]``, each as 4q + the place of x
    among q's corners: the ``incidence`` of the squares' corner columns,
    counted, not sorted.  Ids order the vertices by key, and edges by their
    ends' ids."""

    table: BallTable
    squares: array
    ends: array
    start: array
    at: array

    def records(self) -> Iterator[tuple[int, ...]]:
        """Each square's corner ids and then its side ids, in square order."""
        return _records(self.squares, 8)

    def sides(self, q: int) -> array:
        return self.squares[8 * q + 4:8 * q + 8]

    def edge_ids(self) -> range:
        return range(len(self.ends) // 2)

    def edge_ends(self, s: int) -> tuple[int, int]:
        """Edge s's end ids, in key order: also its sort key among the edges."""
        return self.ends[2 * s], self.ends[2 * s + 1]

    def squares_at(self, x: int) -> Iterator[tuple[int, int]]:
        """(square, the place of x among its corners), in square order."""
        return map(divmod, self.at[self.start[x]:self.start[x + 1]], repeat(4))

    def vertex_key(self, x: int) -> str:
        t = self.table
        nv, ne = len(t.vertices) // 2, len(t.edges) // 4
        if x < nv:
            return t.vertex_key(x)
        cls, index, k = ((EDGE, *t.edges[4 * (x - nv):4 * (x - nv) + 2]) if x < nv + ne else
                         (TRIVIAL, "", x - nv - ne))
        return f"{cls}|{index}|{format_word(t.reps[k])}"

    def label(self, s: int) -> Optional[int]:
        """The label of a half's X-edge; None for a spoke."""
        return self.table.edges[4 * (s // 2)] if s < len(self.table.edges) // 2 else None

    def edge_key(self, s: int) -> str:
        label = self.label(s)
        a, c = self.edge_ends(s)
        return f"{'' if label is None else label}|{self.vertex_key(a)}--{self.vertex_key(c)}"

    def square_name(self, q: int) -> str:
        """The polygon word and corner, e.g. ``ab#2``."""
        k, i = divmod(q, self.table.presentation.n)
        return f"{format_word(self.table.reps[k])}#{i}"

    def interior_vertices(self) -> Iterator[bool]:
        """By vertex id: X-vertices and midpoints by the rep-length rule,
        centers always."""
        t = self.table
        inner_v, inner_e = t.inner(2), t.inner(1)
        return chain(map(inner_v.__getitem__, t.vertices[1::2]),
                     map(inner_e.__getitem__, t.edges[1::4]),
                     repeat(True, len(t.reps)))

    def interior_edges(self) -> Iterator[bool]:
        """By edge id: both halves of an X-edge as it is, spokes always."""
        t = self.table
        inner_e = t.inner(1)
        return chain(chain.from_iterable((inner_e[k],) * 2 for k in t.edges[1::4]),
                     repeat(True, len(self.ends) // 2 - len(t.edges) // 2))


def subdivision(b: ComplexBall) -> Subdivision:
    """X' of a polygonal ball, built once per ball and shared."""
    return b.derive("subdivision", lambda: _subdivision(b))


def _subdivision(b: ComplexBall) -> Subdivision:
    t = b.table
    n = t.presentation.n
    nv, ne = len(t.vertices) // 2, len(t.edges) // 4
    squares = array("i", chain.from_iterable(_squares(t)))
    # a half's ends are its X-vertex and midpoint; a spoke's its midpoint and center
    ends = array("i", chain(
        chain.from_iterable((x, nv + e, y, nv + e)
                            for e, (_, _, x, y) in enumerate(_records(t.edges, 4))),
        chain.from_iterable((nv + e, nv + ne + k)
                            for k, c in enumerate(_records(t.polygons, 2 * n)) for e in c[n:])))
    corner = array("i", chain.from_iterable(zip(*(squares[j::8] for j in range(4)))))
    return Subdivision(t, squares, ends, *incidence(corner, nv + ne + len(t.reps)))


# -- links and audits ----------------------------------------------------------------

# the places of a square's two sides at each of its corners (m_i, v_i, m_{i+1}, c)
_AT_CORNER = ((0, 2), (0, 1), (1, 3), (2, 3))
# the places of each half's two corners, in id order (X-vertex, then midpoint)
_ENDS = ((1, 0), (1, 2))


def _links(b: ComplexBall) -> tuple[list[int], Optional[dict], Optional[dict], list[int]]:
    """One pass over X''s square records, built once per ball, that checks
    each interior vertex's link against its closed form and builds no link
    graph: (``on``, the squares holding each edge, by edge id; the first
    broken record, as a witness; the first one broken at an interior
    X-vertex; the ids of the interior vertices whose link is not its closed
    form, in id order).  ``t4_audit``, ``links_audit`` and
    ``free_face_audit`` take their verdicts from it.

    The link of an X' vertex v has a node per side at v and an edge per
    square at v, joining the square's two sides there.  By the kind of v:

    * K_{a,b} at the X-vertex g(G_i x G_{i+1}): a = |G_{i+1}| sides of
      label i, b = |G_i| of label i+1, and a·b squares;
    * K_{2,m} at the midpoint of a label-i X-edge: its two halves and
      m = |G_i| spokes, and 2m squares;
    * the n-cycle of its polygon's spokes at a center, and n squares.

    Each has girth 4 or n >= 5, so no link holds a loop, a bigon or a
    triangle, which is the link condition for a square complex (Bridson-
    Haefliger, *Metric Spaces of Non-positive Curvature*, II.5.20).

    **The records.**  ``_squares`` writes square q = n·k + i as (m_i, v_i,
    m_{i+1}, c; half_i, half_{i+1}, spoke_i, spoke_{i+1}), so the two sides
    at each corner have fixed places (``_AT_CORNER``).  Of the n·|B(r)|
    squares the numbering names, ``_faults`` reads two facts, a column at a
    time, once per ball (``square_faults``, which the hyperplane audit of
    ``walls`` reads too):

    (a) each side's ends (``Subdivision.ends``, in id order) are the two
        corners it lies between;
    (b) its spokes are spokes i and i+1 of polygon k, the ids 2E + n·k + i
        and 2E + n·k + (i+1 mod n).

    A broken record is the link rows' witness, in place of their verdicts.
    With (a) and (b), record q is polygon k's corner i: a spoke's ends are
    its side's midpoint and its polygon's center, so q's center is k's and
    its midpoints are those of k's sides i and i+1; its halves are halves
    of those sides at a common end, which is v_i, the one end they share
    (k has n distinct corners: ``davis.t4.polygon-sides``).  Its corners are
    then distinct, so it meets each corner in exactly its two sides there.
    So ``at``, which lists each square at each of its corners, lists: at a
    center, its polygon's n squares, joining spokes i and i+1 for each i;
    at the midpoint of an X-edge, two squares for each polygon on the edge,
    one at each end, joining that polygon's spoke to both halves; at an
    X-vertex of index i, one square per polygon at it, joining a half of
    label i to one of label i+1.

    **The counts.**  Hence a center's link is the n-cycle, and a midpoint's
    is K_{2,m} for the m polygons on its edge, half its square count: each
    is its closed form exactly when its square count is.  An X-vertex's
    link is bipartite by label, with an edge per square, but its count
    misses two squares on the same two sides, so its squares' sides are
    read too: a·b squares with a·b distinct pairs of sides, a sides of
    label i and b of label i+1, fill the a·b pairs of the two parts.  That
    read needs (a) at the vertex alone, so ``links_audit`` reports a record
    only if it is broken at an interior X-vertex.

    A square holding side s has both ends of s as corners, by (a), so s's
    degree in the link at either end is its square count, ``on[s]``, read
    from the side columns of every record: ``free_face_audit``'s count.
    """
    return b.derive("links", lambda: _read_links(subdivision(b), square_faults(b)))


def square_faults(b: ComplexBall) -> list[tuple[int, dict]]:
    """Each break of (a) or (b) of ``_links`` in X''s square records, in
    square order (``_faults``), scanned once per ball: empty exactly when
    every record q = n·k + i is polygon k's corner i, by the proof in
    ``_links``.  ``_links`` and ``walls.hyperplane_treewall_audit`` read it,
    the first entry's witness as the first broken record."""
    return b.derive("faults", lambda: list(_faults(subdivision(b), b.n * len(b.table.reps))))


def _read_links(x: Subdivision, faults: list[tuple[int, dict]]):
    t, n = x.table, x.table.presentation.n
    nv, sq, start = len(t.vertices) // 2, x.squares, x.start
    on = [0] * len(x.edge_ids())   # a list: a dict would weigh more
    for s in chain(sq[4::8], sq[5::8], sq[6::8], sq[7::8]):
        on[s] += 1
    inner, size = list(x.interior_vertices()), [g.size for g in t.presentation.groups]
    want = chain((size[i] * size[(i + 1) % n] for i in t.vertices[::2]),
                 (2 * size[i] for i in t.edges[::4]), repeat(n))
    bad = set(compress(count(), map(operator.and_, inner, map(
        operator.ne, map(operator.sub, start[1:], start), want))))
    for v, i in compress(enumerate(t.vertices[::2]), inner):
        # the entry of square q at its X-vertex is 4q + 1, and its halves are 8q + 4, 8q + 5
        pairs = {(sq[2 * e + 2], sq[2 * e + 3]) for e in x.at[start[v]:start[v + 1]]}
        a, c = {s for s, _ in pairs}, {s for _, s in pairs}
        if ((len(pairs), len(a), len(c), {*map(x.label, a)}, {*map(x.label, c)})
                != (start[v + 1] - start[v], size[(i + 1) % n], size[i], {i}, {(i + 1) % n})):
            bad.add(v)
    return (on, next((f for _, f in faults), None),
            next((f for v, f in faults if 0 <= v < nv and inner[v]), None), sorted(bad))


def _faults(x: Subdivision, nq: int) -> Iterator[tuple[int, dict]]:
    """Each break of (a) or (b) of ``_links`` in the first nq square
    records, in square order, listed once per ball by ``square_faults``, as
    (the corner's vertex id, or -1 for the spokes, a witness): a corner met
    by k != 2 of its two sides as [square, vertex key, k], a square holding
    spokes other than its own as [square, the keys of the spokes it
    holds].  None, when both hold column by column, the squares at each
    corner place i of the polygons as one slice: (b) against the spoke
    numbering; (a) for the spokes, whose ends (b) makes one slice of
    ``ends`` in square order (both spokes of a square end at its polygon's
    center, so m_{i+1} is the one end left to read); (a) for the halves, by
    ``_ENDS``, against each half's ends in id order."""
    sq, n, e0 = x.squares[:8 * nq], x.table.presentation.n, len(x.table.edges) // 2
    spokes = range(e0, e0 + nq)   # spoke i of polygon k is 2E + n·k + i
    spoke, ends = x.ends[2 * e0:2 * (e0 + nq)], (x.ends[::2], x.ends[1::2])   # spokes' ends
    if (sq[6::8] == array("i", spokes) and sq[0::8] == spoke[::2] and sq[3::8] == spoke[1::2]
            and all(sq[8 * i + 7::8 * n] == array("i", spokes[(i + 1) % n::n])
                    and sq[8 * i + 2::8 * n] == spoke[2 * ((i + 1) % n)::2 * n] for i in range(n))
            and all(array("i", map(ends[e].__getitem__, sq[4 + j::8])) == sq[c::8]
                    for j, corners in enumerate(_ENDS) for e, c in enumerate(corners))):
        return
    for q, c in zip(range(nq), _records(sq, 8)):
        for v, places in zip(c, _AT_CORNER):
            k = sum(v in x.edge_ends(c[4 + j]) for j in places)
            if k != 2:
                yield v, {"error": "a 2-cell meets its corner in other than two sides",
                          "at": [x.square_name(q), x.vertex_key(v), k]}
        if (c[6], c[7]) != (spokes[q], spokes[q - q % n + (q + 1) % n]):
            yield -1, {"error": "a square does not hold its polygon's spokes",
                       "at": [x.square_name(q), x.edge_key(c[6]), x.edge_key(c[7])]}


def t4_audit(b: ComplexBall) -> Report:
    """Every interior X'-vertex link is its closed form (``_links``), so has
    girth >= 4; every polygon has n distinct corners, read from its table
    record.  The link row's witness is the first broken square record, or
    the keys of the vertices whose link is not its closed form."""
    report = Report()
    x = subdivision(b)
    t, n = x.table, b.n
    corners = (c[:n] for c in _records(t.polygons, 2 * n))
    bad_sides = [(g, c) for g, c in zip(t.reps, corners) if len(set(c)) != n]
    for g, c in bad_sides:
        report.add("davis.t4.polygon-sides", format_word(g), False,
                   witness=[x.vertex_key(v) for v in c])
    _, fault, _, bad = _links(b)
    bad = fault or [x.vertex_key(v) for v in bad]
    report.add("davis.t4.link-girth", f"radius={b.radius}", not bad, witness=bad or None)
    if not bad_sides:
        report.add("davis.t4.polygon-sides", f"radius={b.radius}", True)
    return report


def polygon_pair_audit(b: ComplexBall) -> Report:
    """Two polygons meet in at most one edge: they share no corner, one
    corner, or one side and its two ends, so never two sides or three
    corners (Genevois-Martin).  It is decided from the table's polygon
    columns, a fixed number of passes over them, by two facts:

    (i) places: corner i of every polygon has index i, and side i has label
        i and joins corners i-1 and i.  As the table lists vertices (edges)
        by key, the ids of index (label) i are one run, so this reads: the
        ids at place i lie in run i, each column's least and greatest id
        read; and side i's ends, in id order, are corners i-1 and i (0 and
        n-1 for side 0).
    (ii) pairs: a pair of vertices (u, w) is read as its code u·V + w, V
        the X-vertex count.  For each two non-adjacent places i < j, the
        codes of the polygons' corners at i and j are distinct, C(n, 2) - n
        codes per polygon; and so are the X-edges' ends, whose codes
        strictly increase along ``edge_order``, which lists every edge.

    **The proof.**  Runs of distinct indices are disjoint, so by (i) a
    vertex sits at one place: a corner two polygons share is at the same
    place in both, and so is a side they share, with its two ends.  By (ii)
    no two corners they share are at non-adjacent places, and three places
    pairwise adjacent on an n-cycle, n >= 5, do not exist: they share at
    most two corners, at places i-1 and i.  Those are the ends of side i
    in both, and by (ii) one X-edge has them, so the two share exactly that
    side; two shared sides would give three shared corners.  So
    ``pairs=``, the number of pairs of polygons sharing a corner, is
    Σ_v C(d_v, 2) - Σ_e C(d_e, 2), with d_v the polygons at vertex v and
    d_e those on edge e: Σ_v counts a pair once per shared corner, and the
    pairs sharing two are the pairs on one edge.  A vertex (an edge) sits at
    one place, so d_v and d_e are counted column by column.

    Where (i) or (ii) fails, the row fails, and only then are records
    intersected.  The witness is each pair of a failing polygon and one at
    a corner of it that meets it otherwise than in one corner or one side
    and its ends, as (name, name, shared sides, shared corners) in polygon
    order; or, with no such pair, the failing polygons' names."""
    report = Report()
    t = b.table
    n, nk, nv, ne = b.n, len(t.reps), len(t.vertices) // 2, len(t.edges) // 4
    cols = [t.polygons[i::2 * n] for i in range(2 * n)]   # corner i at i, side i at n + i
    # by place, the pairs of polygons sharing their corner (their side) there
    shared = [sum(map(comb, Counter(c).values(), repeat(2))) for c in cols]
    pairs = sum(shared[:n]) - sum(shared[n:])
    ends = list(map(operator.add, map(operator.mul, t.edges[2::4], repeat(nv)), t.edges[3::4]))
    order = t.edge_order
    clash = {order[p + d] for d in (0, 1) for p in compress(count(), map(operator.ge, map(
        ends.__getitem__, order), map(ends.__getitem__, islice(order, 1, None))))}
    # the polygons breaking (i) or (ii); an edge order that leaves an edge
    # out leaves (ii) unread for all of them
    broken = set() if len(order) == ne else set(range(nk))
    for i in range(n):
        for col, keys in ((cols[i], t.vertices[::2]), (cols[n + i], t.edges[::4])):
            run = range(bisect_left(keys, i), bisect_left(keys, i + 1))
            if min(col) not in run or max(col) not in run:
                broken.update(compress(count(), map(operator.not_, map(run.__contains__, col))))
        if clash:
            broken.update(compress(count(), map(clash.__contains__, cols[n + i])))
        high = list(map(operator.mul, cols[i], repeat(nv)))
        for j in range(i + 1, n):
            codes = map(operator.add, high, cols[j])   # of the corners at places i and j
            if j - i in (1, n - 1):   # the ends of side j, or of side 0
                got = map(ends.__getitem__, cols[n + j if j - i == 1 else n])
                broken.update(compress(count(), map(operator.ne, got, codes)))
            elif len(set(codes)) < nk:   # the polygons whose code another holds
                held = Counter(map(operator.add, high, cols[j]))
                broken.update(k for k, u in enumerate(map(operator.add, high, cols[j]))
                              if held[u] > 1)
    bad = None
    if broken:
        x = subdivision(b)
        near = sorted({(min(g, h), max(g, h)) for g in broken for v in t.corners(g)
                       for h in (q // n for q, _ in x.squares_at(v)) if h != g})
        meet = [(g, h, len({*t.sides(g)} & {*t.sides(h)}), len({*t.corners(g)} & {*t.corners(h)}))
                for g, h in near]
        bad = ([(format_word(t.reps[g]), format_word(t.reps[h]), e, v)
                for g, h, e, v in meet if (e, v) not in ((0, 1), (1, 2))]
               or [format_word(t.reps[g]) for g in sorted(broken)])
    report.add("davis.polygon-pairs", f"radius={b.radius} pairs={pairs}", not bad, witness=bad)
    return report


def free_face_audit(b: ComplexBall) -> Report:
    """Every interior edge of X' lies in at least two squares: its square
    count, read by ``_links``."""
    report = Report()
    x = subdivision(b)
    on = _links(b)[0]
    inside = list(compress(count(), x.interior_edges()))
    bad = [x.edge_key(s) for s in sorted((s for s in inside if on[s] < 2), key=x.edge_ends)]
    report.add("davis.free-faces", f"radius={b.radius} edges={len(inside)}",
               not bad, witness=bad or None)
    return report


def links_audit(b: ComplexBall) -> Report:
    """Interior X-vertex links are complete bipartite w.r.t. the two labels,
    K_{|G_{i+1}|, |G_i|} at g(G_i x G_{i+1}), as ``_links`` reads them.

    The squares at an X-vertex are its polygons' corners there, and a
    square's two sides at it are the halves of its polygon's two sides
    there; so its link in X is its link in X', each half read as its
    X-edge.  The witness is the first square record broken at an interior
    X-vertex, or the keys of the X-vertices whose link is not K_{a,b}."""
    report = Report()
    x = subdivision(b)
    _, _, fault, bad = _links(b)
    bad = fault or [x.vertex_key(v) for v in bad if v < len(x.table.vertices) // 2]
    report.add("davis.links-complete-bipartite",
               f"radius={b.radius} vertices={len(x.table.interior_vertices())}",
               not bad, witness=bad or None)
    return report


# -- exports ----------------------------------------------------------------------

_BATCH = 1024   # records or lines per chunk, each chunk one write


def _batches(items: Iterable) -> Iterator[list]:
    """Lists of up to ``_BATCH`` consecutive items."""
    it = iter(items)
    while batch := list(islice(it, _BATCH)):
        yield batch


def _json_list(head: str, records: Iterable[str]) -> Iterator[str]:
    """``head`` and a list of records at depth 1 of the ``indent=2`` layout, in batches."""
    sep = head + "[\n    "
    for batch in _batches(records):
        yield sep + ",\n    ".join(batch)
        sep = ",\n    "
    yield "\n  ]" if sep == ",\n    " else head + "[]"


def _rows(t: BallTable, square: bool):
    """What both exports list of a ball's table, or with ``square`` of its
    subdivision X': ``(word, key, mid, center, vertex_rows, edge_rows)``.
    ``word``, ``key``, ``mid`` and ``center`` are lists of strings, each made once:
    every rep's formatted word in double quotes, as JSON writes it, by rep
    number; the key string of each vertex and of each X-edge's midpoint, by
    id; each polygon center's key string, by rep number.  The rows, made as
    they are read, are (class, index, interior, key, rep) per vertex and
    (end key, end key, interior, label, rep) per edge, with rep ``null`` for
    a spoke.  Interior flags come from rep lengths.

    X' is listed in the key order of its cells:

    * vertices: the X-vertices as in the ball; one ``edge`` midpoint per
      X-edge, in edge id order, interior iff its X-edge is; one
      ``trivial`` center per polygon, in polygon order, always interior;
    * edges: the halves, grouped by X-vertex in the ball's order and by
      midpoint within a group, with their X-edge's label, rep and interior
      flag; then the spokes, grouped by midpoint and by polygon within a
      group, with no label or rep, always interior.
    """
    text = [format_word(g) for g in t.reps]
    word = [f'"{w}"' for w in text]
    # by rep number: whether an X-vertex and an X-edge of that rep are interior
    inner_v, inner_e = t.inner(2), t.inner(1)
    vertices = list(_records(t.vertices, 2))
    key = [f"{POLY}|{i}|{text[k]}" for i, k in vertices]   # as vertex_key writes them
    edges = list(_records(t.edges, 4))
    vertex_rows = ((POLY, i, inner_v[k], key[v], word[k]) for v, (i, k) in enumerate(vertices))
    if not square:
        return word, key, [], [], vertex_rows, (
            (key[x], key[y], inner_e[k], i, word[k])
            for i, k, x, y in map(edges.__getitem__, t.edge_order))
    # the midpoints are listed in edge id order, which is their key order,
    # (label, |rep|, rep)
    mid = [f"{EDGE}|{i}|{text[k]}" for i, k, _, _ in edges]
    center = [f"{TRIVIAL}||{w}" for w in text]
    halves = [[] for _ in vertices]     # the midpoints next to each X-vertex
    for e, (i, k, x, y) in enumerate(edges):
        halves[x].append((mid[e], inner_e[k], i, word[k]))
        halves[y].append(halves[x][-1])
    return word, key, mid, center, chain(
        vertex_rows,
        ((EDGE, i, inner_e[k], m, word[k]) for m, (i, k, _, _) in zip(mid, edges)),
        ((TRIVIAL, None, True, c, w) for c, w in zip(center, word))), chain(
        ((key[v], *half) for v, hs in enumerate(halves) for half in hs),
        ((m, center[k], True, None, "null") for m, ks in zip(mid, edge_polygons(t)) for k in ks))


def iter_ball_dot(t: BallTable, square: bool = False) -> Iterator[str]:
    """The dot graph of the 1-skeleton of a ball's table ``t``, or with
    ``square`` of its subdivision X', in chunks of up to ``_BATCH`` lines: a
    line per vertex with its interior flag, then a line per edge with its
    label, in key order, as ``_rows`` lists them."""
    *_, vertex_rows, edge_rows = _rows(t, square)
    label = {None: ""} | {i: f' [label="{i}"]' for i in range(t.presentation.n)}
    lines = chain(
        ["graph ball {\n"],
        (f'  "{k}" [interior={"true" if inside else "false"}];\n'
         for _, _, inside, k, _ in vertex_rows),
        (f'  "{k0}" -- "{k1}"{label[i]};\n' for k0, k1, _, i, _ in edge_rows),
        ["}\n"])
    return map("".join, _batches(lines))


def iter_ball_json(t: BallTable, square: bool = False) -> Iterator[str]:
    """The canonical JSON of a ball's table ``t``, or with ``square`` of its
    subdivision X', in chunks of up to ``_BATCH`` records: the text
    ``json.dumps(doc, indent=2, sort_keys=True)`` gives for the record
    document, with one fixed layout per record kind.

    All of it is read from the table, through ``_rows`` and
    ``_squares``, so no square index is built.  A key string or a formatted
    word holds only ASCII letters, digits and ``:|- `` (``format_word``
    writes ``v<int>:<int>`` tokens), which JSON writes as they are, so no
    string is escaped.
    """
    word, key, mid, center, vertex_rows, edge_rows = _rows(t, square)
    n = t.presentation.n
    sep = '",\n        "'
    nv, ne = len(key), len(mid)
    head = f',\n  "radius": {t.radius},\n  "schema": "cyclewall/1",\n'
    return chain(
        _json_list('{\n  "edges": ', (
            f'{{\n      "ends": [\n        "{k0}",\n        "{k1}"\n      ],\n'
            f'      "interior": {"true" if inside else "false"},\n'
            f'      "key": "{"" if label is None else label}|{k0}--{k1}",\n'
            f'      "label": {"null" if label is None else label},\n      "rep": {rep}\n    }}'
            for k0, k1, inside, label, rep in edge_rows)),
        _json_list(f',\n  "form": "{"square" if square else "polygonal"}",\n  "n": {n},\n'
                   '  "polygons": ', (
            f'{{\n      "boundary": [\n        "{sep.join([key[v] for v in c[:n]])}"\n'
            f'      ],\n      "rep": {w}\n    }}'
            for w, c in zip(word, _records(t.polygons, 2 * n)))),
        _json_list(head + '  "squares": ', (
            f'{{\n      "corner": {q % n},\n      "corners": [\n'
            f'        "{mid[m - nv]}{sep}{key[v]}{sep}{mid[m_next - nv]}{sep}{center[c - nv - ne]}"\n'
            f'      ],\n      "polygon": {word[q // n]}\n    }}'
            for q, (m, v, m_next, c, *_) in enumerate(_squares(t))))
        if square else (),
        _json_list((",\n" if square else head) + '  "vertices": ', (
            f'{{\n      "class": "{cls}",\n      "index": {"null" if index is None else index},\n'
            f'      "interior": {"true" if inside else "false"},\n'
            f'      "key": "{k}",\n      "rep": {rep}\n    }}'
            for cls, index, inside, k, rep in vertex_rows)),
        ["\n}"])


def ball_to_json(t: BallTable, square: bool = False) -> str:
    """The text of ``iter_ball_json(t, square)``."""
    return "".join(iter_ball_json(t, square))
