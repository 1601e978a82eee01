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
squares at each vertex, and the JSON export lists them.

``ComplexVertex`` is the value type of the group's action on vertices
(``act_vertex``): a vertex given by its class, index and coset rep, which
hashes and orders by its key, made one at a time where an element acts.

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

The link audits read each interior vertex's link in X' as a plain
adjacency dict over side ids (side at the vertex -> the sides it shares a
square corner with), one link at a time.  The squares at an X-vertex are
its polygons' corners there, and a square's two sides at it are the halves
of its polygon's two sides; so the link of an X-vertex in X is its link in
X', each half read as its X-edge, which is what ``links_audit`` reads.  A
square that meets its corner in other than two sides raises
``InvariantError``, which the audits report as a failed check with a
witness naming the square (``word#corner``).  ``polygon_pair_audit`` takes
the polygons at each X-vertex from the squares at it and intersects their
corner and side ids in the table's polygon records.
"""

from __future__ import annotations

import operator
import os
from array import array
from itertools import accumulate, chain, compress, count, cycle, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import InvariantError, ResourceLimitError, ValidationError
from .localgroups import Frozen, set_field
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

# vertex classes
TRIVIAL = "trivial"   # coset of the trivial subgroup (squares' centers)
EDGE = "edge"         # coset of G_i (edge midpoints of the subdivision)
POLY = "poly"         # coset of G_i x G_{i+1} (vertices of X)

_CLASS_ORDER = {POLY: 0, EDGE: 1, TRIVIAL: 2}


class ComplexVertex(Frozen):
    """A vertex of the subdivided complex: the coset of class ``cls`` with
    minimal rep ``rep``, at ``index`` (i for EDGE/POLY, None for TRIVIAL).

    Vertices are equal when ``(cls, index, rep)`` are.  They hash as
    ``(cls, index, rep)`` with -1 for a None index (hash(None) is an
    address before Python 3.12), and are ordered by their key."""

    __slots__ = ("cls", "index", "rep", "_hash", "_key")

    def __init__(self, cls: str, index: Optional[int], rep: GroupElement):
        set_field(self, "cls", cls)
        set_field(self, "index", index)
        set_field(self, "rep", rep)
        # computed once: (class order, index, rep), with the rep spelled out
        # as GroupElement orders it, (len, word), so that keys compare in C
        index = -1 if index is None else index
        set_field(self, "_key", (_CLASS_ORDER[cls], index, len(rep.word), rep.word))
        set_field(self, "_hash", hash((cls, index, rep)))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.cls, self.index, self.rep) == (other.cls, other.index, other.rep)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    def key_string(self) -> str:
        return f"{self.cls}|{'' if self.index is None else self.index}|{format_word(self.rep)}"


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
        """The ball as integers, kept by ``build_ball`` or listed once."""
        return self.derive("table", lambda: ball_table(self.presentation, self.radius))

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


# -- cell constructors --------------------------------------------------------


def x_vertex(p: Presentation, g: GroupElement, i: int) -> ComplexVertex:
    i %= p.n
    return ComplexVertex(POLY, i, coset_rep(g, (i, (i + 1) % p.n)))


def act_vertex(h: GroupElement, v: ComplexVertex) -> ComplexVertex:
    moved = mul(h, v.rep)
    if v.cls == TRIVIAL:
        return ComplexVertex(TRIVIAL, None, moved)
    if v.cls == EDGE:
        return ComplexVertex(EDGE, v.index, coset_rep(moved, (v.index,)))
    return x_vertex(h.presentation, moved, v.index)


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
        """X-vertex x's key string, ``ComplexVertex.key_string``'s."""
        i, k = self.vertices[2 * x:2 * x + 2]
        return f"{POLY}|{i}|{format_word(self.reps[k])}"

    def edge_key(self, e: int) -> str:
        """X-edge e's key string: its label and its ends' keys."""
        a, c = self.ends(e)
        return f"{self.edges[4 * e]}|{self.vertex_key(a)}--{self.vertex_key(c)}"


def _records(a: array, width: int) -> Iterator[tuple[int, ...]]:
    """The consecutive ``width``-tuples of a flat table column."""
    return zip(*[iter(a)] * width)


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


def _table(b: ComplexBall | BallTable) -> BallTable:
    """``b`` itself, or a polygonal ball's own table."""
    return b if isinstance(b, BallTable) else b.table


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


class Subdivision(NamedTuple):
    """X' of a polygonal ball, numbered from its table (see the module
    docstring), in flat ``array``s.

    ``squares`` holds square q's record from ``_squares`` at
    ``8q .. 8q + 7``; ``ends`` holds X' edge s's two end ids, in key order,
    at ``2s`` and ``2s + 1``.  The squares at vertex x are listed in square
    order by ``at[start[x]:start[x + 1]]``, each as 4q + the place of x
    among q's corners.  Ids order the vertices by key, and edges by their
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
    t = _table(b)
    n = t.presentation.n
    nv, ne = len(t.vertices) // 2, len(t.edges) // 4
    squares = array("i", chain.from_iterable(_squares(t)))
    # a half's ends are its X-vertex and midpoint; a spoke's its midpoint and center
    ends = array("i", chain(
        chain.from_iterable((x, nv + e, y, nv + e)
                            for e, (_, _, x, y) in enumerate(_records(t.edges, 4))),
        chain.from_iterable((nv + e, nv + ne + k)
                            for k, c in enumerate(_records(t.polygons, 2 * n)) for e in c[n:])))
    corner = array("i", chain.from_iterable(c[:4] for c in _records(squares, 8)))
    degree = [0] * (nv + ne + len(t.reps))   # the squares at each vertex
    for x in corner:
        degree[x] += 1
    # sorted is stable, so the squares at a vertex stay in square order
    return Subdivision(t, squares, ends, array("i", accumulate(degree, initial=0)),
                       array("i", sorted(range(len(corner)), key=corner.__getitem__)))


# -- links and audits ----------------------------------------------------------------


def _square_link(x: Subdivision, v: int) -> dict[int, set[int]]:
    """The link of X' vertex v over side ids: two sides are joined when a
    square has its corner at v between them.  A square meeting v in other
    than two sides raises ``InvariantError``, naming the square and v."""
    ends = x.ends
    link: dict[int, set[int]] = {}
    for q, _ in x.squares_at(v):
        at_v = [s for s in x.sides(q) if ends[2 * s] == v or ends[2 * s + 1] == v]
        if len(at_v) != 2:
            raise InvariantError("a 2-cell meets its corner in other than two sides",
                                 [x.square_name(q), x.vertex_key(v), len(at_v)])
        a, c = at_v
        link.setdefault(a, set()).add(c)
        link.setdefault(c, set()).add(a)
    return link


def _x_links(b: ComplexBall) -> dict[int, dict[int, set[int]]]:
    """``_square_link(x, v)`` by interior X-vertex v, in key order: built
    once per ball, read by ``t4_audit`` and ``links_audit``."""
    x = subdivision(b)
    return b.derive("x-links", lambda: {v: _square_link(x, v)
                                        for v in x.table.interior_vertices()})


def t4_audit(b: ComplexBall) -> Report:
    """Every interior X'-vertex link has girth >= 4; every polygon has n
    distinct corners, read from its table record."""
    report = Report()
    x = subdivision(b)
    t = x.table
    n = t.presentation.n
    corners = (c[:n] for c in _records(t.polygons, 2 * n))
    bad_sides = [(g, c) for g, c in zip(t.reps, corners) if len(set(c)) != n]
    for g, c in bad_sides:
        report.add("davis.t4.polygon-sides", format_word(g), False,
                   witness=[x.vertex_key(v) for v in c])
    bad = []
    try:
        links = _x_links(b)
        for v in compress(count(), x.interior_vertices()):   # in key order
            link = links[v] if v in links else _square_link(x, v)
            # Girth < 4 means a loop or a triangle (sets of neighbours hold
            # no double edge): an edge a-c whose ends share a neighbour.
            # The witness is the girth, 1 with a loop and 3 without.
            if any(nbrs & link[c] for nbrs in link.values() for c in nbrs):
                bad.append((x.vertex_key(v), 1 if any(a in link[a] for a in link) else 3))
    except InvariantError as exc:   # the first X'-vertex whose link cannot be read
        bad = {"error": str(exc), "at": exc.witness}
    report.add("davis.t4.link-girth", f"radius={b.radius}", not bad, witness=bad or None)
    if not bad_sides:
        report.add("davis.t4.polygon-sides", f"radius={b.radius}", True)
    return report


def polygon_pair_audit(b: ComplexBall) -> Report:
    """No two polygons share two edges or three vertices.  The polygons at
    an X-vertex are those of the squares at it, and their corner and side
    ids are read from the table's polygon records.  Each pair is counted
    and checked once, at its least shared X-vertex: the vertices are walked
    in id order, so that is where the pair is first met."""
    report = Report()
    x = subdivision(b)
    t = x.table
    n = t.presentation.n
    pairs = 0
    bad = []
    for v in range(len(t.vertices) // 2):
        polys = [q // n for q, _ in x.squares_at(v)]   # in polygon order
        corners = {g: set(t.corners(g)) for g in polys}
        for idx, g in enumerate(polys):
            for h in polys[idx + 1:]:
                shared_v = corners[g] & corners[h]
                if min(shared_v) != v:
                    continue
                pairs += 1
                shared_e = set(t.sides(g)) & set(t.sides(h))
                if len(shared_e) >= 2 or len(shared_v) >= 3:
                    bad.append((format_word(t.reps[g]), format_word(t.reps[h]),
                                len(shared_e), len(shared_v)))
    report.add("davis.polygon-pairs", f"radius={b.radius} pairs={pairs}",
               not bad, witness=bad or None)
    return report


def free_face_audit(b: ComplexBall) -> Report:
    """Every interior edge of X' lies in at least two squares."""
    report = Report()
    x = subdivision(b)
    on = [0] * len(x.edge_ids())   # the squares on each edge, in a list: a dict would weigh more
    for c in x.records():
        for s in c[4:]:
            on[s] += 1
    inside = list(compress(count(), x.interior_edges()))
    bad = [x.edge_key(s) for s in sorted((s for s in inside if on[s] < 2), key=x.edge_ends)]
    report.add("davis.free-faces", f"radius={b.radius} edges={len(inside)}",
               not bad, witness=bad or None)
    return report


def links_audit(b: ComplexBall) -> Report:
    """Interior X-vertex links are complete bipartite w.r.t. the two labels.

    The squares at an X-vertex are its polygons' corners there, and a
    square's two sides at it are the halves of its polygon's two sides
    there; so its link in X is its link in X', each half read as its
    X-edge."""
    report = Report()
    p = b.presentation
    x = subdivision(b)
    index = x.table.vertices[::2]
    inside = x.table.interior_vertices()
    bad = []
    try:
        links = _x_links(b)
    except InvariantError as exc:
        bad, links = {"error": str(exc), "at": exc.witness}, {}
    for v, link in links.items():   # in key order
        i, j = index[v], (index[v] + 1) % p.n
        side_i = {s for s in link if x.label(s) == i}
        side_j = {s for s in link if x.label(s) == j}
        ok = (len(side_i) + len(side_j) == len(link)
              and len(side_i) == p.group(j).size
              and len(side_j) == p.group(i).size
              and all(link[a] == side_j for a in side_i)
              and all(link[c] == side_i for c in side_j))
        if not ok:
            bad.append(x.vertex_key(v))
    report.add("davis.links-complete-bipartite",
               f"radius={b.radius} vertices={len(inside)}",
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


def _midpoint_order(t: BallTable) -> Iterable[int]:
    """The edge ids in the key order of the midpoints of X-edges,
    (label, |rep|, rep): the order of the ids themselves."""
    return range(len(t.edges) // 4)


def _rows(b: ComplexBall | BallTable, square: bool):
    """What both exports list of a polygonal ball, or with ``square`` of its
    subdivision X': ``(t, word, key, mid, center, vertex_rows, edge_rows)``.
    ``t`` is the table read (``_table``).  ``word``,
    ``key``, ``mid`` and ``center`` are lists of strings, each made once:
    every rep's formatted word in double quotes, as JSON writes it, by rep
    number; the key string of each vertex and of each X-edge's midpoint, by
    id; each polygon center's key string, by rep number.  The rows, made as
    they are read, are (class, index, interior, key, rep) per vertex and
    (end key, end key, interior, label, rep) per edge, with rep ``null`` for
    a spoke.  Interior flags come from rep lengths.

    X' is listed in the key order of its cells:

    * vertices: the X-vertices as in the ball; one ``edge`` midpoint per
      X-edge, in ``_midpoint_order``, interior iff its X-edge is; one
      ``trivial`` center per polygon, in polygon order, always interior;
    * edges: the halves, grouped by X-vertex in the ball's order and by
      midpoint within a group, with their X-edge's label, rep and interior
      flag; then the spokes, grouped by midpoint and by polygon within a
      group, with no label or rep, always interior.
    """
    t = _table(b)
    n = t.presentation.n
    text = [format_word(g) for g in t.reps]
    word = [f'"{w}"' for w in text]
    # by rep number: whether an X-vertex and an X-edge of that rep are interior
    inner_v, inner_e = t.inner(2), t.inner(1)
    vertices = list(_records(t.vertices, 2))
    key = [f"{POLY}|{i}|{text[k]}" for i, k in vertices]   # as key_string writes them
    edges = list(_records(t.edges, 4))
    vertex_rows = ((POLY, i, inner_v[k], key[v], word[k]) for v, (i, k) in enumerate(vertices))
    if not square:
        return t, word, key, [], [], vertex_rows, (
            (key[x], key[y], inner_e[k], i, word[k])
            for i, k, x, y in map(edges.__getitem__, t.edge_order))
    mid = [f"{EDGE}|{i}|{text[k]}" for i, k, _, _ in edges]
    center = [f"{TRIVIAL}||{w}" for w in text]
    order = _midpoint_order(t)
    halves = [[] for _ in vertices]     # the midpoints next to each X-vertex
    for e in order:
        i, k, x, y = edges[e]
        halves[x].append((mid[e], inner_e[k], i, word[k]))
        halves[y].append(halves[x][-1])
    spokes = [[] for _ in edges]        # the polygons on each X-edge
    for k, c in enumerate(_records(t.polygons, 2 * n)):
        for e in c[n:]:
            spokes[e].append(k)
    return t, word, key, mid, center, chain(
        vertex_rows,
        ((EDGE, i, inner_e[k], mid[e], word[k])
         for e, (i, k, _, _) in zip(order, map(edges.__getitem__, order))),
        ((TRIVIAL, None, True, c, w) for c, w in zip(center, word))), chain(
        ((key[v], *half) for v, hs in enumerate(halves) for half in hs),
        ((mid[e], center[k], True, None, "null") for e in order for k in spokes[e]))


def iter_ball_dot(b: ComplexBall | BallTable, square: bool = False) -> Iterator[str]:
    """The dot graph of a polygonal ball's 1-skeleton, or with ``square`` of
    its subdivision X', in chunks of up to ``_BATCH`` lines: a line per
    vertex with its interior flag, then a line per edge with its label, in
    key order, as ``_rows`` lists them from the ball's table.  ``b`` is a
    ``BallTable`` or a polygonal ball."""
    t, *_, vertex_rows, edge_rows = _rows(b, square)
    label = {None: ""} | {i: f' [label="{i}"]' for i in range(t.presentation.n)}
    lines = chain(
        ["graph ball {\n"],
        (f'  "{k}" [interior={"true" if inside else "false"}];\n'
         for _, _, inside, k, _ in vertex_rows),
        (f'  "{k0}" -- "{k1}"{label[i]};\n' for k0, k1, _, i, _ in edge_rows),
        ["}\n"])
    return map("".join, _batches(lines))


def iter_ball_json(b: ComplexBall | BallTable, square: bool = False) -> Iterator[str]:
    """The canonical JSON of a polygonal ball, or with ``square`` of its
    subdivision X', in chunks of up to ``_BATCH`` records: the text
    ``json.dumps(doc, indent=2, sort_keys=True)`` gives for the record
    document, with one fixed layout per record kind.  ``b`` is a
    ``BallTable`` or a polygonal ball.

    All of it is read from the ball's table, through ``_rows`` and
    ``_squares``, so no square index is built.  A key string or a formatted
    word holds only ASCII letters, digits and ``:|- `` (``format_word``
    writes ``v<int>:<int>`` tokens), which JSON writes as they are, so no
    string is escaped.
    """
    t, word, key, mid, center, vertex_rows, edge_rows = _rows(b, square)
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


def ball_to_json(b: ComplexBall | BallTable, square: bool = False) -> str:
    """The text of ``iter_ball_json(b, square)``."""
    return "".join(iter_ball_json(b, square))
