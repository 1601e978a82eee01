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
order is a sort of integer pairs.  ``build_ball`` makes the cells from the
table.  A 2-cell (``Polygon`` or ``Square``) carries its corners and its
ordered sides.  The incidence maps ``vertex_cells`` and ``edge_cells``
(cell -> the 2-cells containing it) and ``vertex_edges`` are built on first
use, so exports, the subdivision, the walls and their crossing graph, which
read none of them, never build them.

Each cell is one object per ball, shared by the 2-cells and maps that hold
it.  A ``ComplexVertex`` or ``ComplexEdge`` computes its hash and its order
key once, when it is made; cells still compare by value, so one built
outside a ball (by ``act_vertex``, say) finds the ball's own in its maps.
Every edge's ends come in a fixed order: an X-edge's by index, and in the
subdivision an X-vertex before a midpoint before a center.  So only
``act_edge`` compares the ends it builds.

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
alone (``_rows``) and make no cell object: each element's word is
formatted once, every vertex and midpoint key string has a list slot, and
X' is written with no square ball built; only the audits build X', with
``subdivide``.  Both stream, in chunks of up to 1,024 records or lines.

The link audits read each interior vertex's link as a plain adjacency dict
(incident edge -> the incident edges it shares a 2-cell corner with), whose
sides and nodes are told apart by identity, as the ball's own objects.  A
2-cell that meets its corner in other than two sides raises
``InvariantError``, which the audits report as a failed check with a witness.
"""

from __future__ import annotations

import operator
import os
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, cycle, islice, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import (
    BoundaryCellError,
    InvariantError,
    ResourceLimitError,
    ValidationError,
)
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
_SUBGROUP_RANK = {POLY: 2, EDGE: 1, TRIVIAL: 0}   # |S| for the coset g<G_S>
_by_key = operator.attrgetter("_key")   # a cell's order key, read in C


@dataclass(frozen=True, slots=True)
class ComplexVertex:
    cls: str
    index: Optional[int]   # i for EDGE/POLY, None for TRIVIAL
    rep: GroupElement
    # computed once: the field tuple's hash and the order key
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # (class order, index, rep), with the rep spelled out as GroupElement
        # orders it, (len, word), so that keys compare in C
        index = -1 if self.index is None else self.index
        object.__setattr__(self, "_key", (
            _CLASS_ORDER[self.cls], index, len(self.rep.word), self.rep.word))
        # -1 for None, whose hash is an address before Python 3.12
        object.__setattr__(self, "_hash", hash((self.cls, index, self.rep)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    def key_string(self) -> str:
        return f"{self.cls}|{'' if self.index is None else self.index}|{format_word(self.rep)}"


@dataclass(frozen=True, slots=True)
class ComplexEdge:
    ends: tuple[ComplexVertex, ComplexVertex]   # in key order
    label: Optional[int]             # X-edge label; None for center spokes
    rep: Optional[GroupElement]      # coset rep of gG_label for labelled edges
    # computed once: the field tuple's hash and the order key
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        label = -1 if self.label is None else self.label
        object.__setattr__(self, "_key", (self.ends[0]._key, self.ends[1]._key, label))
        # -1 for None, whose hash is an address before Python 3.12
        object.__setattr__(self, "_hash", hash(
            (self.ends, label, -1 if self.rep is None else self.rep)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    def key_string(self) -> str:
        label = "" if self.label is None else self.label
        return f"{label}|{self.ends[0].key_string()}--{self.ends[1].key_string()}"


# 2-cells are built once per ball and compare by identity, so they hash cheaply
@dataclass(frozen=True, eq=False)
class Polygon:
    rep: GroupElement
    boundary: tuple[ComplexVertex, ...]   # v_0 .. v_{n-1}, v_i = g(G_i x G_{i+1})
    edges: tuple[ComplexEdge, ...]        # e_0 .. e_{n-1}, e_i = gG_i joins v_{i-1}, v_i

    def name(self) -> str:
        return format_word(self.rep)


@dataclass(frozen=True, eq=False)
class Square:
    polygon: GroupElement
    corner: int   # the polygon corner v_corner this square surrounds
    corners: tuple[ComplexVertex, ...]   # (mid e_corner, v_corner, mid e_{corner+1}, center)
    edges: tuple[ComplexEdge, ...]

    def name(self) -> str:
        """The polygon word and corner, e.g. ``ab#2``."""
        return f"{format_word(self.polygon)}#{self.corner}"


Cell = Polygon | Square


@dataclass
class ComplexBall:
    presentation: Presentation
    radius: int
    form: str  # "polygonal" or "square"
    vertices: list[ComplexVertex] = field(default_factory=list)
    edges: list[ComplexEdge] = field(default_factory=list)
    polygons: dict[GroupElement, Polygon] = field(default_factory=dict)
    squares: list[Square] = field(default_factory=list)
    interior_vertices: set[ComplexVertex] = field(default_factory=set)
    interior_edges: set[ComplexEdge] = field(default_factory=set)
    # what is derived from this ball (incidence maps, subdivision, walls,
    # element balls, stabilizers), built on first use; it lives and dies with
    # the ball, which is not changed once built, and is shared by every caller
    derived: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    @property
    def n(self) -> int:
        return self.presentation.n

    def derive(self, key, build):
        """``build()``, computed once per key and kept on this ball."""
        if key not in self.derived:
            self.derived[key] = build()
        return self.derived[key]

    def elements(self, L: int) -> tuple[GroupElement, ...]:
        """``enumerate_ball_elements(presentation, L)``, computed once per ball."""
        return self.derive(("elements", L),
                           lambda: tuple(enumerate_ball_elements(self.presentation, L)))

    # the 2-cells of this form (polygons or squares) containing each cell, in
    # cell order, and each vertex's edges in key order
    @property
    def vertex_cells(self) -> dict[ComplexVertex, list[Cell]]:
        return self.derive("incidence", self._incidence)[0]

    @property
    def edge_cells(self) -> dict[ComplexEdge, list[Cell]]:
        return self.derive("incidence", self._incidence)[1]

    @property
    def vertex_edges(self) -> dict[ComplexVertex, list[ComplexEdge]]:
        return self.derive("incidence", self._incidence)[2]

    def _incidence(self):
        cells = (((s, s.corners) for s in self.squares) if self.form == "square"
                 else ((poly, poly.boundary) for poly in self.polygons.values()))
        vertex_cells, edge_cells, vertex_edges = {}, {}, {}
        for cell, corners in cells:
            for v in corners:
                vertex_cells.setdefault(v, []).append(cell)
            for e in cell.edges:
                edge_cells.setdefault(e, []).append(cell)
        for e in edge_cells:
            for v in e.ends:
                vertex_edges.setdefault(v, []).append(e)
        for es in vertex_edges.values():
            es.sort(key=_by_key)
        return vertex_cells, edge_cells, vertex_edges


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


def act_edge(h: GroupElement, e: ComplexEdge) -> ComplexEdge:
    a, c = act_vertex(h, e.ends[0]), act_vertex(h, e.ends[1])
    return ComplexEdge((a, c) if a._key <= c._key else (c, a), e.label,
                       None if e.rep is None else coset_rep(mul(h, e.rep), (e.label,)))


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
    """

    presentation: Presentation
    radius: int
    reps: list[GroupElement]
    vertices: array
    edges: array
    edge_order: array
    polygons: array


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
    for k, g in enumerate(reps):
        word = g.word
        cells = [None] * w
        for v, j in maximal_syllables(p, word):
            h = place[word[:j] + word[j + 1:]] * w
            u = (v - 1) % n
            cells[u], cells[v], cells[n + v] = polygons[h + u], polygons[h + v], polygons[h + n + v]
        for i, c in enumerate(cells):
            if c is None:
                cells[i] = len(made[i])
                made[i].append(k)
        polygons.extend(cells)
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
        edges, array("i", sorted(range(len(codes)), key=codes.__getitem__)), polygons)


def build_ball(p: Presentation, r: int) -> ComplexBall:
    """Sub-complex of X spanned by polygons g.P with syllable length(g) <= r,
    within the ``CYCLEWALL_MEM_MB`` budget when that is set: the cells of
    ``ball_table(p, r)``, each one object, shared by the polygons around it.
    The table is kept on the ball, for its exports."""
    t = ball_table(p, r)
    reps, n = t.reps, p.n
    vertices = [ComplexVertex(POLY, i, reps[k]) for i, k in _records(t.vertices, 2)]
    edges = [ComplexEdge((vertices[a], vertices[b]), i, reps[k])
             for i, k, a, b in _records(t.edges, 4)]
    ball = ComplexBall(p, r, "polygonal", vertices, list(map(edges.__getitem__, t.edge_order)), {
        g: Polygon(g, tuple(map(vertices.__getitem__, c[:n])), tuple(map(edges.__getitem__, c[n:])))
        for g, c in zip(reps, _records(t.polygons, 2 * n))})
    _mark(ball)
    ball.derived["table"] = t   # what its exports read
    return ball


def _mark(ball: ComplexBall) -> None:
    """Mark the interior of ``ball``: the vertex g<G_S> is interior iff
    |rep| + |S| <= r, a labelled edge iff |rep| + 1 <= r, and a spoke
    always."""
    r = ball.radius
    ball.interior_vertices.update(
        v for v in ball.vertices if len(v.rep.word) + _SUBGROUP_RANK[v.cls] <= r)
    ball.interior_edges.update(
        e for e in ball.edges if e.label is None or len(e.rep.word) + 1 <= r)


# -- subdivision ------------------------------------------------------------------


def subdivide(b: ComplexBall) -> ComplexBall:
    """First square subdivision X' of a polygonal ball.

    Built once per ball: every call on ``b`` returns the same square ball,
    which is shared and must not be mutated.
    """
    if b.form != "polygonal":
        raise ValidationError("can only subdivide a polygonal ball")
    return b.derive("subdivision", lambda: _subdivide(b))


def _subdivide(b: ComplexBall) -> ComplexBall:
    """X' from the ball's table, each cell made once, in the key order that
    ``_rows`` lists it, so nothing is sorted.  The X-vertices are the
    ball's own; the midpoints and their halves come in edge-id order
    (``_midpoint_order``), each half filed under its X-vertex; the centers
    and their spokes in polygon order, each spoke filed under its midpoint.
    A POLY vertex sorts before an EDGE midpoint, and that before a TRIVIAL
    center, so each edge of X' has its ends in key order."""
    p = b.presentation
    n = p.n
    t = b.derive("table", lambda: ball_table(p, b.radius))
    reps, vertices = t.reps, b.vertices
    sq = ComplexBall(presentation=p, radius=b.radius, form="square")
    sq.polygons = b.polygons

    mids, halves = [], []               # by edge id: the midpoint, its halves at both ends
    at_vertex = [[] for _ in vertices]  # the halves at each X-vertex, by midpoint
    for i, k, x, y in _records(t.edges, 4):
        m = ComplexVertex(EDGE, i, reps[k])
        pair = (ComplexEdge((vertices[x], m), i, reps[k]),
                ComplexEdge((vertices[y], m), i, reps[k]))
        mids.append(m)
        halves.append(pair)
        at_vertex[x].append(pair[0])
        at_vertex[y].append(pair[1])

    centers = []
    at_mid = [[] for _ in mids]         # the spokes at each midpoint, by polygon
    for g, c in zip(reps, _records(t.polygons, 2 * n)):
        center = ComplexVertex(TRIVIAL, None, g)
        centers.append(center)
        sides = c[n:]
        # side i's halves at v_{i-1} and at v_i (its ends are in that order
        # unless i = 0, see BallTable)
        side_halves = [halves[e] if i else halves[e][::-1] for i, e in enumerate(sides)]
        spokes = [ComplexEdge((h.ends[1], center), None, None) for h, _ in side_halves]
        for e, spoke in zip(sides, spokes):
            at_mid[e].append(spoke)
        for i in range(n):
            j = (i + 1) % n
            half1, half2 = side_halves[i][1], side_halves[j][0]   # sides i and j at v_i
            sq.squares.append(Square(g, i, (half1.ends[1], vertices[c[i]], half2.ends[1], center),
                                     (half1, half2, spokes[i], spokes[j])))
    sq.vertices = [*vertices, *mids, *centers]
    sq.edges = [*chain.from_iterable(at_vertex), *chain.from_iterable(at_mid)]
    _mark(sq)
    return sq


# -- links and audits ----------------------------------------------------------------


def vertex_link(b: ComplexBall, v: ComplexVertex) -> dict[ComplexEdge, set[ComplexEdge]]:
    """Link graph of an interior vertex, as an adjacency dict.

    Nodes are the incident edges; two are joined when a 2-cell (polygon or
    square) has a corner at v between them.
    """
    if v not in b.interior_vertices:
        raise BoundaryCellError(f"vertex {v.key_string()} is not interior to the ball")
    link: dict[ComplexEdge, set[ComplexEdge]] = {e: set() for e in b.vertex_edges[v]}
    a, c = b.vertex_edges[v][0].ends
    v = a if a == v else c   # the ball's own object, so its sides are found by identity
    for cell in b.vertex_cells[v]:
        at_v = [e for e in cell.edges if e.ends[0] is v or e.ends[1] is v]
        if len(at_v) != 2:
            raise InvariantError("a 2-cell meets its corner in other than two sides",
                                 [cell.name(), v.key_string(), len(at_v)])
        a, c = at_v
        link[a].add(c)
        link[c].add(a)
    return link


def graph_girth(g: Mapping) -> float:
    """Shortest cycle length of an adjacency mapping (node -> neighbours);
    inf for forests.  BFS per node (links are small).  A node is told from
    its BFS parent by identity, so every neighbour must be the very object
    that keys it, as in ``vertex_link``'s links of a ball's own edges."""
    best = float("inf")
    for root in g:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        for u in queue:
            for w in g[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] is not w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def t4_audit(b: ComplexBall) -> Report:
    """Every interior X'-vertex link has girth >= 4; every polygon has n sides."""
    report = Report()
    sq = subdivide(b)
    n = b.presentation.n
    bad_sides = [(g, poly) for g, poly in b.polygons.items()
                 if not len(poly.boundary) == n == len(set(poly.boundary))]
    for g, poly in bad_sides:
        report.add("davis.t4.polygon-sides", format_word(g), False,
                   witness=[v.key_string() for v in poly.boundary])
    bad = []
    for v in sorted(sq.interior_vertices):
        try:
            link = vertex_link(sq, v)
        except InvariantError as exc:
            bad = {"error": str(exc), "at": exc.witness}
            break
        # Girth < 4 means a loop or a triangle (sets of neighbours hold no
        # double edge): an edge a-c whose ends share a neighbour.
        if any(nbrs & link[c] for nbrs in link.values() for c in nbrs):
            bad.append((v.key_string(), graph_girth(link)))
    report.add("davis.t4.link-girth", f"radius={b.radius}", not bad, witness=bad or None)
    if not bad_sides:
        report.add("davis.t4.polygon-sides", f"radius={b.radius}", True)
    return report


def polygon_pair_audit(b: ComplexBall) -> Report:
    """No two polygons share two edges or three vertices."""
    report = Report()
    seen_pairs = set()
    bad = []
    for polys in b.vertex_cells.values():
        for idx, g in enumerate(polys):
            for h in polys[idx + 1:]:
                if (g, h) in seen_pairs:
                    continue
                seen_pairs.add((g, h))
                shared_v = set(g.boundary) & set(h.boundary)
                shared_e = set(g.edges) & set(h.edges)
                if len(shared_e) >= 2 or len(shared_v) >= 3:
                    bad.append((g.name(), h.name(), len(shared_e), len(shared_v)))
    report.add("davis.polygon-pairs", f"radius={b.radius} pairs={len(seen_pairs)}",
               not bad, witness=bad or None)
    return report


def free_face_audit(b: ComplexBall) -> Report:
    """Every interior edge of X' lies in at least two squares."""
    report = Report()
    sq = subdivide(b)
    bad = []
    for e in sorted(sq.interior_edges):
        if len(sq.edge_cells[e]) < 2:
            bad.append(e.key_string())
    report.add("davis.free-faces", f"radius={b.radius} edges={len(sq.interior_edges)}",
               not bad, witness=bad or None)
    return report


def links_audit(b: ComplexBall) -> Report:
    """Interior X-vertex links are complete bipartite w.r.t. the two labels."""
    report = Report()
    p = b.presentation
    bad = []
    for v in sorted(b.interior_vertices):
        try:
            link = vertex_link(b, v)
        except InvariantError as exc:
            bad = {"error": str(exc), "at": exc.witness}
            break
        i, j = v.index, (v.index + 1) % p.n
        side_i = {e for e in link if e.label == i}
        side_j = {e for e in link if e.label == j}
        ok = (len(side_i) + len(side_j) == len(link)
              and len(side_i) == p.group(j).size
              and len(side_j) == p.group(i).size
              and all(link[a] == side_j for a in side_i)
              and all(link[c] == side_i for c in side_j))
        if not ok:
            bad.append(v.key_string())
    report.add("davis.links-complete-bipartite",
               f"radius={b.radius} vertices={len(b.interior_vertices)}",
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
    ``t`` is the table read: ``b`` itself, or a polygonal ball's own (kept
    by ``build_ball``, or listed once per ball); the form is checked when
    this is called.  ``word``,
    ``key``, ``mid`` and ``center`` are lists of strings, each made once:
    every rep's formatted word in double quotes, as JSON writes it, by rep
    number; the key string of each vertex and of each X-edge's midpoint, by
    id; each polygon center's key string, by rep number.  The rows, made as
    they are read, are (class, index, interior, key, rep) per vertex and
    (end key, end key, interior, label, rep) per edge, with rep ``null`` for
    a spoke.  Interior flags come from rep lengths.

    X' is listed in the key order of the square ball's cells:

    * vertices: the X-vertices as in the ball; one ``edge`` midpoint per
      X-edge, in ``_midpoint_order``, interior iff its X-edge is; one
      ``trivial`` center per polygon, in polygon order, always interior;
    * edges: the halves, grouped by X-vertex in the ball's order and by
      midpoint within a group, with their X-edge's label, rep and interior
      flag; then the spokes, grouped by midpoint and by polygon within a
      group, with no label or rep, always interior.
    """
    if isinstance(b, BallTable):
        t = b
    elif b.form != "polygonal":
        raise ValidationError(
            "the ball exports take a polygonal ball; square=True writes its subdivision")
    else:
        t = b.derive("table", lambda: ball_table(b.presentation, b.radius))
    n = t.presentation.n
    text = [format_word(g) for g in t.reps]
    word = [f'"{w}"' for w in text]
    # by rep number: whether an X-vertex and an X-edge of that rep are interior
    inner_v, inner_e = ([len(g.word) + rank <= t.radius for g in t.reps] for rank in (2, 1))
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
    key order, as ``_rows`` lists them from the ball's table, so no cell is
    read and no square ball built.  ``b`` is a ``BallTable`` or a polygonal
    ball; the form is checked before any chunk is made."""
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
    ``BallTable`` or a polygonal ball; the form is checked before any chunk
    is made.

    All of it is read from the ball's table through ``_rows``, so no cell is
    read and no square ball built; the squares come in polygon order,
    corner i of a polygon with corners (the midpoint of side i, v_i, the
    midpoint of side i+1, the center).  A key string or a formatted word
    holds only ASCII letters, digits and ``:|- `` (``format_word`` writes
    ``v<int>:<int>`` tokens), which JSON writes as they are, so no string is
    escaped.
    """
    t, word, key, mid, center, vertex_rows, edge_rows = _rows(b, square)
    n = t.presentation.n
    sep = '",\n        "'
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
            f'{{\n      "corner": {i},\n      "corners": [\n        "{mid[c[n + i]]}",\n'
            f'        "{key[c[i]]}",\n        "{mid[c[n + (i + 1) % n]]}",\n'
            f'        "{z}"\n      ],\n'
            f'      "polygon": {w}\n    }}'
            for w, z, c in zip(word, center, _records(t.polygons, 2 * n)) for i in range(n)))
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
