"""Independent oracles used by the test suite.

The object oracle (``objects``) makes the cells of a ball's table as
objects, the form the package itself no longer keeps: a ``ComplexVertex``
per X-vertex, a ``ComplexEdge`` per X-edge and a ``Polygon`` per polygon,
each cell one object shared by the polygons around it, with the interior
sets and the incidence maps ``edge_cells`` and ``vertex_edges``, in an
``ObjectBall`` that shares the ball's derived data.  The table-reading
audits and their id witnesses are checked against it, and the oracles below
that need cells read them there.  ``ObjectWall`` is a tree-wall as edge
objects; ``wall_objects`` and ``wall_view`` turn a ``walls.TreeWall`` into
one and back.  The vertex type keeps the three classes of X' (X-vertex,
midpoint, center), its key order and its key strings, and acts by
``act_vertex_object`` and ``aut_act_vertex_object`` on all three; the
package acts on X-vertices alone, as (index, rep) pairs, and is checked
against these.

The word-problem oracle deliberately avoids the package's normal-form
machinery: equality of words is decided by exhaustively closing the set of
raw words under the three elementary rewriting moves (delete identity / merge
same-group neighbours / swap commuting neighbours) and reading off the
resulting partition.

The canonical-form oracle is the direct greedy: among the syllables that
commute with everything before them, emit the one of least vertex, and
repeat (cubic in the word length).  The heap oracle reduces by appending
each syllable (merging it with a reachable same-vertex syllable), then
sorts the whole word once by a topological sort over its dependence edges
that pops a heap keyed on vertex index, instead of inserting each syllable
at its canonical place as it is pushed.

The join oracle decides whether two medium subgroups generate a maximal by a
bounded subgroup closure: products of conjugated generators up to a syllable
length, compared with the shared maximal truncated at the same length.  It
multiplies with ``mul`` but never calls ``shared_edge``, the last-syllable
rule the exact ``join_is_cmaximal`` rests on.

The crossing-graph oracle intersects the vertex sets of every pair of walls
(quadratic in the number of walls) instead of bucketing walls by vertex.

The generation oracle closes two vertex stabilizers under products with
their elements, discarding anything longer than a syllable length, to
cross-check the exact rule the walls adjacency audit uses.

The link oracle (``vertex_link``) joins the edge objects at an X-vertex
that each polygon around it has there, instead of reading the vertex's link
in X' over side ids.  The polygon-pair oracle intersects the corner and side
objects of every two polygons at a vertex, instead of the table's polygon
records.  The shared-polygon oracle intersects the polygons on every pair
of edges of a wall, instead of one pass over each polygon's sides.

The record oracle (``square_records``) writes X''s squares out, as the
package kept them before it read X' off the polygon columns: each square's
record from ``davis._squares`` and an index of the squares at each vertex,
built by ``davis.incidence``.  ``square_record_faults`` scans the records
for a corner met by other than two of its sides or a square holding
spokes other than its own, where ``davis.place_faults`` reads the table's
places and side ends; ``record_links`` reads each interior vertex's square
count and, at an X-vertex, its squares' pairs of halves off the records,
where ``davis._links`` reads them off the polygon columns; and
``hyperplane_treewall_by_records`` pairs each record's opposite sides by
their places, once the scan finds no fault.  The X' link oracle
(``square_link``) builds the link of an X' vertex by searching each square
record at it for its sides that end there, and ``link_is_closed_form``
checks that link for the closed form of its cell kind (part sizes,
completeness, one cycle by a walk).  The girth oracle (``graph_girth``)
runs a breadth-first search from every node of a graph; the davis audits
compute no girth, as every closed form has girth 4 or n.

The incidence oracle (``incidence_by_sort``) lists the places that hold
each key by a stable sort of the places, instead of ``davis.incidence``'s
counting pass.

The square-ball oracle (``subdivide``) builds X' as cell objects: a
``ComplexVertex`` per vertex, a ``ComplexEdge`` per edge and a ``Square``
per square, holding its corner and side objects, with incidence maps
indexed from the squares and interior marked by coset-rep length.  The
integer ``davis.Subdivision`` and the record oracle are checked against it
key string by key string, and the X' audits' mutants are written into the
ball's table.

The hyperplane oracle finds the opposite sides of each square record by
matching their ends (``opposite_sides_by_ends``), instead of pairing them
by their places in the polygon columns once ``davis.place_faults`` has
found the table sound; it joins them in a union-find
(``hyperplane_classes``) and 2-colors each class's sides on its own, by a
breadth-first search over the ends of the class's dual and parallel edges
(``combinatorial_hyperplanes``), instead of filing every class's labels and
midpoints in one more pass over the squares.

The minimal-set oracle runs networkx shortest paths over the whole square
skeleton of the square-ball oracle, instead of the stopped breadth-first
search over the CSR skeleton of vertex ids of ``walls.min_set``.

The conjugation oracle (``parabolic_ball_by_conjugation``) multiplies out
w·h·w^-1 for every h of the window's L-ball and filters the products by
length, instead of skipping each h whose conjugate Green's length formula
makes too long before the product, as ``walls._parabolic_ball`` does.

The truncated wall searches (``stabilizes_wall``, ``wall_fixator_truncated``)
are what the walls suite's stabilizer and fixator rows ran per wall before
they read one exact count per wall: a guard that moves each wall edge by
an element and asks whether its image is in the ball and on the wall, and
the elements of the truncated stabilizer that fix every wall edge.

The vertex-on-wall oracle moves a wall's edges with ``act_edge`` by every
element of a vertex stabilizer cut at a syllable length, instead of asking
which maximals contain the vertex's medium.  A cut stabilizer is only a
subset of the stabilizer, so the sweep decides only where the ball shows
every element's action, and even then it can be fooled where the ball holds
a wall that the short subset happens to stabilize (at radius 3 on 5 x Z/2,
not at radius 2).

The interior oracles list every polygon of X around an X-vertex or X-edge
by multiplying its coset rep with each element of the cell's stabilizer,
instead of reading the rep's length.

The rescanning coset-rep oracle strips the rightmost syllable with vertex
in S that shuffles to the end, then scans the whole word again, until none
is left, instead of stripping in ``words.coset_rep``'s one early-exit pass.
The reduced coset-rep oracle strips the same syllables and re-reduces and
re-sorts the result with the heap oracle.

The ball oracle keys each corner and each side of every polygon by its own
rescanned coset rep and looks the cell up by that key, instead of reading
the cell off the polygon of the word without a maximal syllable.

The coset-intersection oracle factors c2^-1·c1 into a <G_S2> part and a
<G_S1> part by greedy two-sided stripping, instead of asking whether the
minimal rep of c2^-1·c1 modulo S1 is supported on S2.

The shared-edge oracle intersects the edge cosets of both labels of both
vertices, instead of reading the one word c2^-1·c1 for the one label their
bases allow.  The edge-coset oracle multiplies a medium's conjugator by
every element of the other window vertex's group, instead of splicing the
syllable into the conjugator's word.

The cyclic-reduction oracle conjugates the word by every front syllable in
turn and keeps the first conjugate that is shorter, instead of asking which
front syllable merges at the back of the rest of the word.

The wall oracle grows each wall through an interior edge by flood fill over
same-label edges at shared vertices (``treewall_of_edge``) and merges the
pieces with one key, instead of bucketing the ball's edges by key.

The vertex-stabilizer oracle asks, for every pair of an interior vertex
and a wall, whether the wall's stabilizer is one of the vertex medium's
two containing maximals and whether the vertex lies on the wall, instead
of reading both from an index of the walls.

The normalizer oracle takes S plus every vertex adjacent to all of S, for
any vertex set S, instead of the per-tier rule ``CSubgroup`` canonicalizes
by.  The window-membership oracle tests ``w^-1 g w`` against a vertex set
and a conjugator given apart, without building a ``CSubgroup``.

The subdivision-interior oracle carries the polygonal ball's interior over to
its subdivision cell by cell (an X'-vertex or half-edge is interior when its
X-cell is), instead of applying the coset-rep length rule to the subdivision.

The fill-and-audit oracle (``fill_and_audit``) fills a loop with
``diagrams.fill_loop`` and checks, besides the curvature identity and
reducedness that ``diagrams.filling_audit`` checks, that the diagram's
boundary maps onto the loop.  ``aut_apply`` and ``aut_inverse`` apply and
invert an automorphism in normal form by products, checking
``autgroup.aut_compose`` and ``generator_images``.

The filling oracle fills a loop by the depth-first search over polygon
gluings that ``diagrams.fill_loop`` replaced with one greedy pass: it tries
every candidate glue in the same order, memoises boundaries it has seen up to
rotation, and undoes the faces and folds of a glue it backtracks from.  It
finds each candidate's run by the general match
(``match_polygon_by_search``), which tries both directions from every place
of the polygon's corner record against a rotated copy of the boundary,
instead of reading the one place and direction off the record as
``diagrams._read_run`` does.

The wall-stabilizer scan tries every element of the ball's element ball on
a wall, and the transporter oracle multiplies every pair of the wall's edge
reps, instead of reading the short u·x·f·u^-1 off the wall's key u; the
parabolic scan filters the element ball with ``parabolic_member``, instead
of conjugating the window's own short elements.

The arc oracle rebuilds the abstract complex's arcs by intersecting the
edge cosets, taken as products and ``coset_rep``, of every pair of mediums
that share a containing maximal (``shared_edge_both_labels``), instead of
reading the conjugators' last syllables, and keys them by their two
mediums, each with its maximal; ``decoded_arcs`` reads the rebuild's id-form arcs the same way.
The phi-edge oracle tests every pair of interior vertices for adjacency in
the ball and, through their mediums' places among the rebuild's nodes, in
the rebuild, instead of comparing the two edge sets.  The join-agreement
oracle (``join_agreement_by_pairs``) calls the join on every pair of
interior vertices, as ``algebraic.join_agreement_audit`` did before it
read only the interior skeleton's edges, the rebuild's interior arcs and
a sample of the other interior pairs; a join that wrongly says yes on a
far pair the sample misses fails here alone.  The word-keyed rebuild
(``rebuild_by_words``) finds each arc by looking a node's (base, word),
or its word less one maximal syllable, up in one dict of the nodes,
slicing and hashing words at every node, instead of numbering the words
once and reading far ends off lists.  Subgroups are ordered
by ``subgroup_sort_key`` (tier size, base, conjugator), the order the
rebuild's nodes come in.

The JSON-export oracle builds the ball's record document as dicts and
encodes it with ``json.dumps(doc, indent=2, sort_keys=True)``, against which
``davis.ball_to_json``'s direct writer is checked byte for byte; the square
form, which the writer reads off the polygonal ball's table, against the
records of the square-ball oracle.  The dot-export oracle walks any ball's
own ``vertices`` and ``edges``, the polygonal ball's or the square-ball
oracle's, against which ``davis.iter_ball_dot``, which lists X' from the
polygonal ball's table, is checked.

The axis oracle builds a segment of the translation axis through a central
edge and asserts, edge by edge, that it keeps its label and tree-wall.

The local-group oracles list every element of Loc, one symmetry after another
with ``itertools.product`` over the per-vertex isomorphisms, instead of
decoding an index; find a word's local fixator by applying every listed
element to it (each verdict memoised by what ``LocalAut.apply`` reads of the
element: its symmetry and its isomorphisms at the word's support), instead
of a product read off its syllable values; and find
the isomorphisms between two vertex groups by a recursive search that prunes
each partial assignment of generator images with ``_close``, instead of one
product over all of them.  The homomorphism oracle tests a value map on
every pair of elements, instead of on each element times a generator.

The parsing oracle reads each token of a word by ``startswith``, ``partition``
and two ``int`` calls, the parser ``words.parse_word`` keeps only for tokens
its presentation has not interned. The inverse oracle inverts every syllable
with ``LocalGroupSpec.inv`` and sorts the reversed word by pushing it,
instead of reading each syllable's inverse from the presentation's memo.

The decomposition oracle cyclically reduces every generator image, instead
of splitting one image per vertex into its conjugator and core and reading
the others through that conjugator, and computes each moved image as
g^-1·h·g on the full words.  Its generator images, which it checks its
result against, are products g·lam(x)·g^-1, instead of words written out
from g's strip at each vertex.  The row oracle (``conjugates``) writes out
the conjugates of one vertex's syllables from g's strip there, inverting
the strip on every call, instead of once per distinct strip as
``autgroup.generator_images`` does.

The ball-enumeration oracle is a breadth-first search: it multiplies every
element of a level by every generator, keeps the products of the next
length that it has not seen, and sorts the ball at the end, instead of
keeping each element's one canonical parent.

The argument-parsing oracle (``build_parser``) is the argparse parser the
CLI used before it read its argv with ``getopt`` off one command table:
five parsers with their options, defaults, choices and handlers.
"""

import argparse
import itertools
import json
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

import networkx as nx

from cyclewall import algebraic, cli, davis, diagrams
from cyclewall.algebraic import (
    MAXIMAL,
    MEDIUM,
    CSubgroup,
    ScriptXBall,
    _winding_cycles,
    containing_maximals,
    vertex_mediums,
    window_of,
)
from cyclewall.autgroup import (
    AutElement,
    CycleSymmetry,
    LocalAut,
    _image_pair_base,
    coset_intersection,
    enumerate_loc,
    enumerate_symmetries,
    generator_values,
)
from cyclewall.localgroups import (
    IDENTITY,
    Frozen,
    LocalIso,
    _close,
    _generating_sequence,
    integers_group,
    isomorphisms,
    set_field,
    table_group,
)
from cyclewall.davis import (
    EDGE,
    POLY,
    TRIVIAL,
    ComplexBall,
    Subdivision,
    _records,
    build_ball,
    subdivision,
)
from cyclewall.diagrams import (
    DiscDiagram,
    _ball_edge,
    _cancel_spurs,
    _edge_polygons,
    convention_lock,
    gauss_bonnet_check,
)
from cyclewall.errors import DecompositionError, FillError, InvariantError, ValidationError
from cyclewall.reports import Report
from cyclewall.walls import TreeWall, UnionFind, wall_stabilizer_truncated, walls_of_ball
from cyclewall.words import (
    GroupElement,
    Presentation,
    Syllable,
    canonical,
    coset_rep,
    cyclic_reduce,
    enumerate_ball_elements,
    format_word,
    from_syllable,
    identity,
    inv,
    maximal_syllables,
    minimal_syllables,
    mul,
    parabolic_member,
    parse_word,
    reduce_word,
    star_split,
)


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


def x_vertex(p: Presentation, g: GroupElement, i: int) -> ComplexVertex:
    """The X-vertex g(G_i x G_{i+1}) as an object."""
    i %= p.n
    return ComplexVertex(POLY, i, coset_rep(g, (i, (i + 1) % p.n)))


def act_vertex_object(h: GroupElement, v: ComplexVertex) -> ComplexVertex:
    """h·v on a vertex object of any of the three classes."""
    moved = mul(h, v.rep)
    if v.cls == TRIVIAL:
        return ComplexVertex(TRIVIAL, None, moved)
    if v.cls == EDGE:
        return ComplexVertex(EDGE, v.index, coset_rep(moved, (v.index,)))
    return x_vertex(h.presentation, moved, v.index)


def aut_act_vertex_object(a: AutElement, v: ComplexVertex) -> ComplexVertex:
    """The automorphism ``a`` on a vertex object of any of the three
    classes: the local part maps the coset g<G_S> to lam(g)<G_sigma(S)>,
    and the inner part then acts as translation (``act_vertex_object``)."""
    sigma, j = a.local.sigma, v.index   # None for a trivial coset
    if v.cls == EDGE:
        j = sigma(j)
    elif v.cls == POLY:
        j = _image_pair_base(sigma, j)
    return act_vertex_object(a.inner, ComplexVertex(v.cls, j, a.local.apply(v.rep)))


def medium_of_vertex(v: ComplexVertex) -> CSubgroup:
    """The stabilizer encoding of an X-vertex: its coset rep conjugates the
    two-vertex subgroup at the vertex's index."""
    if v.cls != POLY:
        raise ValidationError("only polygonal X-vertices encode a medium subgroup")
    return CSubgroup(MEDIUM, v.index, v.rep)


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


def act_edge(h: GroupElement, e: ComplexEdge) -> ComplexEdge:
    a, c = act_vertex_object(h, e.ends[0]), act_vertex_object(h, e.ends[1])
    return ComplexEdge((a, c) if a._key <= c._key else (c, a), e.label,
                       None if e.rep is None else coset_rep(mul(h, e.rep), (e.label,)))


class ObjectBall(ComplexBall):
    """A polygonal ball with its cells as objects: ``vertices`` and
    ``edges`` in key order, ``polygons`` by rep, the sets
    ``interior_vertices`` and ``interior_edges``, and, when made from a
    table (``objects``), ``edges_by_id``, the edges by table id.  The
    incidence maps ``edge_cells`` (edge -> the polygons on it, in polygon
    order) and ``vertex_edges`` (vertex -> its edges in key order) are
    filled from the polygons on first read.  Each cell field left out
    starts empty."""

    def __init__(self, presentation, radius, vertices=None, edges=None, polygons=None,
                 interior_vertices=None, interior_edges=None, edges_by_id=None):
        super().__init__(presentation, radius)
        self.vertices = [] if vertices is None else vertices
        self.edges = [] if edges is None else edges
        self.polygons = {} if polygons is None else polygons
        self.interior_vertices = set() if interior_vertices is None else interior_vertices
        self.interior_edges = set() if interior_edges is None else interior_edges
        self.edges_by_id = [] if edges_by_id is None else edges_by_id

    @property
    def edge_cells(self) -> dict:
        return self.derive("object incidence", self._incidence)[0]

    @property
    def vertex_edges(self) -> dict:
        return self.derive("object incidence", self._incidence)[1]

    def _incidence(self):
        return index_by_cells(self, ((P, P.boundary) for P in self.polygons.values()))[1:]


def objects(b: ComplexBall) -> ObjectBall:
    """The cells of ``b``'s table as objects, made once per ball, in an
    ``ObjectBall`` sharing ``b``'s derived data (its table, X', walls); an
    ``ObjectBall`` is its own."""
    if isinstance(b, ObjectBall):
        return b
    return b.derive("objects", lambda: _objects(b))


def _objects(b: ComplexBall) -> ObjectBall:
    t = b.table
    reps, n, r = t.reps, t.presentation.n, t.radius
    vertices = [ComplexVertex(POLY, i, reps[k]) for i, k in _records(t.vertices, 2)]
    edges = [ComplexEdge((vertices[a], vertices[c]), i, reps[k])
             for i, k, a, c in _records(t.edges, 4)]
    o = ObjectBall(
        b.presentation, b.radius, vertices, list(map(edges.__getitem__, t.edge_order)),
        {g: Polygon(g, tuple(map(vertices.__getitem__, c[:n])),
                    tuple(map(edges.__getitem__, c[n:])))
         for g, c in zip(reps, _records(t.polygons, 2 * n))},
        # the vertex g(G_i x G_{i+1}) is interior iff |g| + 2 <= r, the edge gG_i iff |g| + 1 <= r
        {v for v in vertices if len(v.rep.word) + 2 <= r},
        {e for e in edges if len(e.rep.word) + 1 <= r}, edges)
    o.derived = b.derived
    return o


def object_ball(p: Presentation, r: int) -> ObjectBall:
    """``objects(build_ball(p, r))``."""
    return objects(build_ball(p, r))


@dataclass(frozen=True)
class ObjectWall:
    """A tree-wall as edge objects: its label, its seed (its first edge in
    key order), its edges and its key rep."""

    label: int
    seed: ComplexEdge
    edges: frozenset
    key_rep: GroupElement

    @property
    def key(self) -> tuple:
        return (self.label, self.key_rep)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(v for e in self.edges for v in e.ends)


def wall_objects(b: ComplexBall, T: TreeWall) -> ObjectWall:
    """The wall ``T`` of ``b`` as edge objects."""
    by_id = objects(b).edges_by_id
    return ObjectWall(T.label, by_id[T.seed], frozenset(map(by_id.__getitem__, T.ids)), T.key_rep)


def wall_view(b: ComplexBall, W: ObjectWall) -> TreeWall:
    """``W`` as a ``walls.TreeWall`` of ``b``: its edges' table ids, in key order."""
    ids = {e: k for k, e in enumerate(objects(b).edges_by_id)}
    return TreeWall(b.table, W.label, W.key_rep, array("i", (ids[e] for e in sorted(W.edges))))


def enumerate_ball_elements_by_search(p: Presentation, L: int,
                                      window=None) -> list[GroupElement]:
    """All elements of syllable length <= L, sorted, by breadth-first search
    with a dedupe set."""
    p.require_finite()
    gens = list(p.syllables())
    if window is not None:
        S = frozenset(v % p.n for v in window)
        gens = [s for s in gens if s.vertex in S]
    seen = {identity(p)}
    frontier = [identity(p)]
    for length in range(1, L + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, GroupElement(p, (s,)))
                if h.syllable_length == length and h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def s3_table_group():
    """Symmetric group on 3 points as an explicit table, identity id 0."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[x]] for x in range(3))] for b in perms]
        for a in perms
    ]
    names = ["".join(map(str, p)) for p in perms]
    return table_group(table, names=names, name="S3")


def frozen_values(p: Presentation) -> list:
    """``(type name, value)`` for a value of each of the package's frozen
    types, built from ``p`` (a presentation with a table group at vertex 2
    and a local automorphism other than the identity) and ``Z`` alone, so
    that two calls give equal values built apart.  Each field that may be
    None is None in one of them."""
    g = parse_word(p, "v0:1 v2:3 v4:2")
    lam = next(lam for lam in enumerate_loc(p) if not lam.is_identity)
    z = integers_group()
    return [("Presentation", p),
            ("LocalGroupSpec", p.group(0)),
            ("LocalGroupSpec", p.group(2)),
            ("LocalGroupSpec", z),
            ("LocalIso", isomorphisms(p.group(2), p.group(2))[-1]),
            ("LocalIso", LocalIso(z, z, sign=-1)),
            ("GroupElement", g),
            ("CycleSymmetry", lam.sigma),
            ("LocalAut", lam),
            ("AutElement", AutElement(g, lam)),
            ("CSubgroup", CSubgroup(MAXIMAL, 3, g)),
            ("ComplexVertex", x_vertex(p, g, 1)),
            ("ComplexVertex", ComplexVertex(TRIVIAL, None, g))]


def all_raw_words(p: Presentation, max_len: int):
    """Every raw word over the generator syllables up to the given length."""
    alphabet = list(p.syllables())
    words = [()]
    for length in range(1, max_len + 1):
        words.extend(itertools.product(alphabet, repeat=length))
    return words


def single_moves(p: Presentation, word):
    """All words reachable from ``word`` by one elementary move."""
    out = []
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a.vertex == b.vertex:
            prod = p.group(a.vertex).mul(a.value, b.value)
            if prod == IDENTITY:
                out.append(word[:k] + word[k + 2:])
            else:
                out.append(word[:k] + (Syllable(a.vertex, prod),) + word[k + 2:])
        elif p.adjacent(a.vertex, b.vertex):
            out.append(word[:k] + (b, a) + word[k + 2:])
    return out


def greedy_canonical_order(p: Presentation, word):
    """Lexicographically least shuffle of a reduced word, by vertex index.

    Repeatedly emits the least-vertex syllable among those that commute with
    everything before them. Two same-vertex syllables are never
    simultaneously available, so there are no ties.
    """
    remaining = list(word)
    out = []
    while remaining:
        best = None
        for k, s in enumerate(remaining):
            if all(p.adjacent(t.vertex, s.vertex) for t in remaining[:k]):
                if best is None or s.vertex < remaining[best].vertex:
                    best = k
        out.append(remaining.pop(best))
    return tuple(out)


def append_only_push(p: Presentation, word: list, syl: Syllable) -> None:
    """Append one syllable to a reduced word, keeping it reduced but not
    canonical: merge with a same-vertex syllable reachable over commuting
    ones, otherwise append."""
    if syl.value == IDENTITY:
        return
    v = syl.vertex
    block = p.blocks[v]
    for k in range(len(word) - 1, -1, -1):
        w = word[k]
        if w.vertex == v:
            prod = p.groups[v].mul(w.value, syl.value)
            if prod == IDENTITY:
                del word[k]
            else:
                word[k] = Syllable(v, prod)
            return
        if w.vertex in block:
            break
    word.append(syl)


def append_only_reduced(p: Presentation, raw) -> list:
    """A reduced word for ``raw``, in no particular shuffle."""
    word = []
    for s in raw:
        append_only_push(p, word, s)
    return word


def heap_canonical_order(p: Presentation, word) -> tuple:
    """Lexicographically least shuffle of a reduced word, by vertex index.

    The shuffles of a reduced word are the linear extensions of its
    dependence order (syllable i before j when i < j and their vertices do
    not commute), and the least one is emitted by a topological sort that
    always pops the least vertex. Each syllable gets an edge from the last
    earlier syllable of every vertex in its block, which suffices because
    same-vertex syllables are totally ordered. Two available syllables never
    share a vertex, so the heap key ``(vertex, index)`` has no ties.
    """
    blocks = p.blocks
    vertices = [s.vertex for s in word]
    succ = [[] for _ in word]
    indeg = [0] * len(word)
    last = [-1] * p.n  # index of the latest syllable of each vertex so far
    for j, v in enumerate(vertices):
        for u in blocks[v]:
            i = last[u]
            if i >= 0:
                succ[i].append(j)
                indeg[j] += 1
        last[v] = j
    heap = [(v, j) for j, v in enumerate(vertices) if not indeg[j]]
    heapify(heap)
    out = []
    while heap:
        i = heappop(heap)[1]
        out.append(word[i])
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                heappush(heap, (vertices[j], j))
    return tuple(out)


def closure_classifier(p: Presentation, max_len: int):
    """Map raw word -> class id, classes being the move-closure components.

    Only words over the generator alphabet are enumerated; moves can only
    shorten words or permute them, so the closure stays inside the universe.
    """
    words = list(all_raw_words(p, max_len))
    index = {word: k for k, word in enumerate(words)}
    uf = UnionFind(len(words))
    for word in words:
        for other in single_moves(p, word):
            uf.union(index[word], index[other])
    return lambda word: uf.find(index[word])


# -- bounded closure: the join oracle -------------------------------------------


def pairwise_closure(p: Presentation, gens: set, L: int) -> set:
    """Close under pairwise products, discarding anything longer than L."""
    out = {g for g in gens if g.syllable_length <= L}
    out.add(identity(p))
    frontier = set(out)
    while frontier:
        new = set()
        known = list(out)
        for a in frontier:
            for s in known:
                for h in (mul(a, s), mul(s, a)):
                    if h.syllable_length <= L and h not in out and h not in new:
                        new.add(h)
        out |= new
        frontier = new
    return out


HARVEST_DEPTH = 3


def bounded_closure(p: Presentation, gens: set, L: int) -> set:
    """Bounded subgroup closure at syllable length L.

    Phase one closes pairwise at a small depth so that short derived elements
    -- e.g. a syllable recovered from a conjugated generator by cancellation --
    become available as factors; without them, targets reachable only through
    such elements are missed at the length cap.  Phase two is the cheap
    generator-wise sweep with the enriched generating set.
    """
    enriched = pairwise_closure(p, gens, min(L, HARVEST_DEPTH)) | gens
    out = {g for g in enriched if g.syllable_length <= L}
    out.add(identity(p))
    gen_list = sorted(g for g in enriched if not g.is_identity)
    frontier = set(out)
    while frontier:
        new = set()
        for a in frontier:
            for s in gen_list:
                h = mul(a, s)
                if h.syllable_length <= L and h not in out and h not in new:
                    new.add(h)
        out |= new
        frontier = new
    return out


def subgroup_truncation(h: CSubgroup, depth: int) -> frozenset:
    """All elements of the conjugated standard subgroup with length <= depth."""
    p = h.presentation
    c, ci = h.conjugator, inv(h.conjugator)
    out = set()
    for u in enumerate_ball_elements(p, depth + 2 * c.syllable_length, h.window):
        x = mul(mul(c, u), ci)
        if x.syllable_length <= depth:
            out.add(x)
    return frozenset(out)


def generator_conjugates(h: CSubgroup) -> set:
    p = h.presentation
    c, ci = h.conjugator, inv(h.conjugator)
    gens = set()
    for v in h.window:
        for x in p.group(v).nontrivial_elements():
            gens.add(mul(mul(c, GroupElement(p, (Syllable(v, x),))), ci))
    return gens


def closure_join(h1: CSubgroup, h2: CSubgroup, L: int):
    """Bounded-closure join of two mediums: ``(verdict, closure, candidate)``.

    Both mediums are first translated so that ``h1`` is standard, which keeps
    closure elements short; ``closure`` and ``candidate`` are in that frame.
    ``candidate`` is the maximal containing both (None if there is none), and
    the verdict says whether the closure up to length L covers the candidate
    truncated at L.
    """
    t = inv(h1.conjugator)
    a1, a2 = h1.conjugated(t), h2.conjugated(t)
    shared = [m for m in containing_maximals(a1) if m in containing_maximals(a2)]
    if not shared:
        return False, set(), None
    candidate = shared[0]
    closure = bounded_closure(a1.presentation,
                              generator_conjugates(a1) | generator_conjugates(a2), L)
    return closure >= subgroup_truncation(candidate, L), closure, candidate


def subgroup_sort_key(h: CSubgroup) -> tuple:
    """A subgroup's order key: its window's size, its base, its conjugator."""
    return (len(h.window), h.base, h.conjugator)


def bucket_pairs(b):
    """Every pair of the ball's mediums that share a containing maximal."""
    buckets = {}
    for v in objects(b).vertices:
        h = medium_of_vertex(v)
        for m in containing_maximals(h):
            buckets.setdefault(m, []).append(h)
    for bucket in buckets.values():
        yield from itertools.combinations(
            sorted(bucket, key=subgroup_sort_key), 2)


def script_x_arcs_by_pairs(b) -> dict:
    """``build_script_X_ball(b).arcs``, decoded (``decoded_arcs``), from the
    edge cosets, taken as products, that each bucket pair shares
    (``shared_edge_both_labels``), with no use of the last-syllable rule."""
    arcs = {}
    for h1, h2 in bucket_pairs(b):
        shared = shared_edge_both_labels(h1, h2)
        if shared is not None:
            label, rep = shared
            arcs[frozenset((h1, h2))] = CSubgroup(MAXIMAL, label, rep)
    return arcs


def decoded_arcs(sx) -> dict:
    """The rebuild's arcs as {frozenset of its two mediums: its maximal}."""
    p = sx.presentation
    return {frozenset((sx.nodes[u], sx.nodes[w])): CSubgroup(MAXIMAL, label, GroupElement(p, word))
            for (u, w), (label, word) in sx.arcs.items()}


def script_x_graph(sx) -> dict:
    """The rebuild's 1-skeleton as an adjacency dict over node ids, every
    node a key."""
    g = {x: set() for x in range(len(sx.nodes))}
    for u, w in sx.arcs:
        g[u].add(w)
        g[w].add(u)
    return g


def phi_edge_mismatches_by_pairs(b, sx) -> tuple[int, list]:
    """(pairs, mismatches) of ``phi.edges-preserved-both-ways`` on the ball
    ``b`` and its rebuild ``sx``: every pair u < w of interior vertices whose
    adjacency in ``b`` differs from that of their mediums in ``sx``, as
    (u key, w key, adjacent in b, adjacent in sx).  A medium is found among
    the rebuild's nodes by its encoding, not by the vertex's id."""
    b = objects(b)
    skel = {v: set() for v in b.vertices if v in b.interior_vertices}
    for e in b.edges:
        u, w = e.ends
        if u in skel and w in skel:
            skel[u].add(w)
            skel[w].add(u)
    sxg = script_x_graph(sx)
    place = {h: x for x, h in enumerate(sx.nodes)}
    pairs, bad = 0, []
    for u, w in itertools.combinations(sorted(skel), 2):
        pairs += 1
        x_adj = w in skel[u]
        sx_adj = place[medium_of_vertex(w)] in sxg[place[medium_of_vertex(u)]]
        if x_adj != sx_adj:
            bad.append((u.key_string(), w.key_string(), x_adj, sx_adj))
    return pairs, bad


def rebuild_by_words(b: ComplexBall) -> ScriptXBall:
    """``algebraic.build_script_X_ball(b)``, with each far end looked up in
    a dict from every node's (base, word) to its id: the word itself, or
    the word less its maximal syllable of the far end's window vertex off
    the label, at the neighbouring base.  It refuses a third end as the
    rebuild does, and reads ``up`` off the arcs."""
    p = b.presentation
    n = p.n
    sx = ScriptXBall(presentation=p, nodes=list(vertex_mediums(b)))
    place = {(h.base, h.conjugator.word): x for x, h in enumerate(sx.nodes)}
    for x, h in enumerate(sx.nodes):
        i, word = h.base, h.conjugator.word
        # (label, the far end's base, its window vertex off the label)
        for label, far, v in ((i, (i - 1) % n, (i - 1) % n),
                              ((i + 1) % n, (i + 1) % n, (i + 2) % n)):
            words = [word, *(word[:j] + word[j + 1:]
                             for u, j in maximal_syllables(p, word) if u == v)]
            ends = [place[far, w] for w in words if (far, w) in place]
            if len(ends) > 1:
                raise InvariantError(
                    f"edge {label}|{format_word(GroupElement(p, word))} has more than two ends",
                    sorted(sx.nodes[y].key_string() for y in (x, *ends)))
            for y in ends:
                sx.arcs[min(x, y), max(x, y)] = label, word
    up: list[list[int]] = [[] for _ in sx.nodes]
    for (u, w), (label, _) in sx.arcs.items():
        if sx.nodes[u].base == label:
            u, w = w, u
        up[u].append(w)
    sx.cycles = sorted(_winding_cycles(up, [x for x, h in enumerate(sx.nodes) if h.base == 0], n))
    return sx


def join_agreement_by_pairs(b) -> Report:
    """``algebraic.join_agreement_audit`` by calling the join on every pair
    of interior vertices, instead of on the interior skeleton's edges and
    the rebuild's interior arcs alone; the join is read through the module,
    so a patched ``join_is_cmaximal`` reaches it."""
    report = Report()
    t = b.table
    skel = algebraic._interior_skeleton(b)
    encode = vertex_mediums(b)
    bad = []
    pairs = 0
    for u, w in itertools.combinations(sorted(skel), 2):
        pairs += 1
        ok, _ = algebraic.join_is_cmaximal(encode[u], encode[w])
        if ok != (w in skel[u]):
            bad.append((t.vertex_key(u), t.vertex_key(w), ok))
    report.add("joins.agree-with-adjacency", f"pairs={pairs}",
               not bad, bad or None)
    return report


def crossing_graph_pairwise(b) -> nx.Graph:
    """The crossing graph of ``b`` from a comparison of every pair of walls,
    each node a wall's index in ``walls_of_ball(b)``."""
    g = nx.Graph()
    walls = walls_of_ball(b)
    for k, w in enumerate(walls):
        g.add_node(k, wall=w)
    vertex_sets = [wall_objects(b, w).vertex_set for w in walls]
    for (k1, s1), (k2, s2) in itertools.combinations(enumerate(vertex_sets), 2):
        common = s1 & s2
        if common:
            g.add_edge(k1, k2, vertices=sorted(common))
    return g


def sweep_closure(p: Presentation, gens: set, L: int) -> set:
    """Close under right products by generators, discarding anything longer
    than L."""
    out = {g for g in gens if g.syllable_length <= L}
    out.add(identity(p))
    frontier = set(out)
    while frontier:
        new = set()
        for a in frontier:
            for s in gens:
                h = mul(a, s)
                if h.syllable_length <= L and h not in out:
                    new.add(h)
        out |= new
        frontier = new
    return out


def min_set_networkx(b, T1, T2):
    """``walls.min_set`` from networkx shortest paths on the square skeleton
    of the walls' edge objects: the closest vertices as ids."""
    sq = subdivide(b)
    g = nx.Graph()
    g.add_nodes_from(sq.vertices)
    g.add_edges_from(e.ends for e in sq.edges)
    sources = [v for v in wall_objects(b, T2).vertex_set if v in g]
    dist = nx.multi_source_dijkstra_path_length(g, sources)
    t1_vertices = [v for v in wall_objects(b, T1).vertex_set if v in dist]
    if not t1_vertices:
        raise ValidationError("walls are not connected within the ball")
    d = min(dist[v] for v in t1_vertices)
    closest = {v for v in t1_vertices if dist[v] == d}
    diam = 0
    for v in closest:
        lengths = nx.single_source_shortest_path_length(g, v)
        diam = max(diam, max(lengths.get(u, 0) for u in closest))
    ids = {v: x for x, v in enumerate(objects(b).vertices)}
    return {ids[v] for v in closest}, d, diam


def sweep_stabilizes_wall(b, elements, T: ObjectWall):
    """Whether every element maps the wall T, as edge objects, into itself
    in the ball: each must move some edge of T onto an edge of the ball, and
    every such image must lie on T.  None when some element moves no edge
    into the ball."""
    b = objects(b)
    verdict = True
    for g in elements:
        images = [f for f in (act_edge(g, e) for e in T.edges) if f in b.edge_cells]
        if not images:
            return None
        verdict = verdict and all(f in T.edges for f in images)
    return verdict


def stabilizes_wall(b, g: GroupElement, T: TreeWall) -> Optional[bool]:
    """Whether g stabilizes the wall T in the ball, None when it moves no
    edge of T into the ball: the walls suite's former per-element guard.

    An X-edge is its (label, coset rep) pair, so g moves the edge (i, r) to
    (i, coset_rep(g r, {i})): one product and one coset rep per edge.  The
    edge (i, m), m minimal modulo G_i, is in the ball iff |m| <= r: the
    polygons on it are m·x, x in G_i, and the shortest is m itself.
    """
    window = (T.label,)
    observed = False
    for rep in T.edge_reps:
        moved = coset_rep(mul(g, rep), window)
        if moved.syllable_length <= b.radius:
            observed = True
            if moved not in T.edge_reps:
                return False
    return True if observed else None


def wall_fixator_truncated(b, T: TreeWall, L: int) -> frozenset:
    """The elements of length <= L fixing every edge of T, read off the
    truncated stabilizer (``walls.wall_stabilizer_truncated``): the walls
    suite's former fixator search.  An element outside the fixator moves
    every edge of the wall (``walls.wall_fixator_audit`` proves it), so
    ``all`` stops at its first edge."""
    window = (T.label,)
    return frozenset(g for g in wall_stabilizer_truncated(b, T, L)
                     if all(coset_rep(mul(g, rep), window) == rep for rep in T.edge_reps))


def wall_stabilizer_by_scan(b, T, L: int) -> frozenset:
    """``walls._wall_stabilizer`` by trying every element of ``b.elements(L)``."""
    return frozenset(g for g in b.elements(L) if stabilizes_wall(b, g, T))


def wall_stabilizer_by_transporters(b, T, L: int) -> frozenset:
    """``walls._wall_stabilizer`` as the transporters r'·x·r^-1 (x in G_i)
    of length <= L between every pair of wall edges (i, r), (i, r'),
    instead of reading them off the wall's key: each product r·x of an edge
    rep with an element of G_i is multiplied by the inverse of every edge
    rep, skipping the products that must be too long."""
    p = b.presentation
    local = [identity(p)] + [from_syllable(p, T.label, x)
                             for x in p.group(T.label).nontrivial_elements()]
    edge_elements = {mul(r, x) for r in T.edge_reps for x in local}
    candidates = set()
    for r in T.edge_reps:
        r_inv = inv(r)
        for e in edge_elements:
            # |e·r^-1| >= |e| - |r|, so skip the products that must be too long
            if e.syllable_length - r.syllable_length <= L:
                g = mul(e, r_inv)
                if g.syllable_length <= L:
                    candidates.add(g)
    return frozenset(candidates)


def parabolic_ball_by_conjugation(b, H: CSubgroup, L: int) -> frozenset:
    """``walls._parabolic_ball`` by conjugating every h in <G_S> with
    |h| <= L, with no length read before the product."""
    w = H.conjugator
    w_inv = inv(w)
    conjugates = (mul(w, h, w_inv) for h in enumerate_ball_elements(b.presentation, L, H.window))
    return frozenset(g for g in conjugates if g.syllable_length <= L and parabolic_member(g, H))


def parabolic_ball_by_scan(b, H: CSubgroup, L: int) -> frozenset:
    """``walls._parabolic_ball`` by filtering ``b.elements(L)`` with
    ``parabolic_member``."""
    return frozenset(g for g in b.elements(L) if parabolic_member(g, H))


def polygons_containing_vertex(p: Presentation, v) -> list[GroupElement]:
    """All polygon reps of X whose boundary passes through the X-vertex v."""
    assert v.cls == POLY
    i, j = v.index, (v.index + 1) % p.n
    out = []
    for a in p.group(i).elements():
        for b in p.group(j).elements():
            syls = [Syllable(vv, x) for vv, x in ((i, a), (j, b)) if x]
            out.append(mul(v.rep, reduce_word(p, syls)))
    return out


def polygons_containing_edge(p: Presentation, e) -> list[GroupElement]:
    """All polygon reps of X whose boundary contains the X-edge e."""
    assert e.label is not None and e.rep is not None
    return [mul(e.rep, reduce_word(p, [Syllable(e.label, a)] if a else []))
            for a in p.group(e.label).elements()]


def interior_by_enumeration(b):
    """``(interior vertices, interior edges)`` of a polygonal ball: the cells
    whose every containing polygon is in the ball."""
    p = b.presentation
    b = objects(b)
    return ({v for v in b.vertices
             if all(g in b.polygons for g in polygons_containing_vertex(p, v))},
            {e for e in b.edges
             if all(g in b.polygons for g in polygons_containing_edge(p, e))})


def right_strippable(p: Presentation, word, S):
    """Rightmost position whose syllable has vertex in S and shuffles to the
    end, scanning the whole word; None when there is none."""
    blocked: set[int] = set()  # vertices that cannot pass the syllables seen
    for k in range(len(word) - 1, -1, -1):
        v = word[k].vertex
        if v in S and v not in blocked:
            return k
        blocked |= p.blocks[v]
    return None


def _strip_by_rescan(p: Presentation, word, S) -> list:
    """Delete the rightmost strippable syllable and scan again, until none is
    left."""
    Sf = frozenset(v % p.n for v in S)
    word = list(word)
    while True:
        k = right_strippable(p, word, Sf)
        if k is None:
            return word
        del word[k]


def coset_rep_by_rescan(g: GroupElement, S) -> GroupElement:
    """``words.coset_rep`` by the rescanning strip: after each stripped
    syllable, scan the word again from the right."""
    p = g.presentation
    return GroupElement(p, tuple(_strip_by_rescan(p, g.word, S)))


def coset_rep_reduced(g: GroupElement, S) -> GroupElement:
    """``coset_rep_by_rescan`` with the stripped word reduced and sorted again."""
    p = g.presentation
    word = _strip_by_rescan(p, g.word, S)
    return GroupElement(p, heap_canonical_order(p, append_only_reduced(p, word)))


def side_ends(prev: ComplexVertex, at: ComplexVertex, i: int):
    """The ends of the X-edge gG_i, which joins prev = g(G_{i-1} x G_i) and
    at = g(G_i x G_{i+1}), in key order: by index, so prev first unless i = 0."""
    return (prev, at) if i else (at, prev)


def build_ball_by_coset_reps(p: Presentation, r: int) -> ObjectBall:
    """``objects(davis.build_ball(p, r))`` by one coset rep per corner and per
    side of each polygon, each cell looked up by its index and its rep's
    word."""
    ball = ObjectBall(presentation=p, radius=r)
    n = p.n
    corners, sides = {}, {}
    for g in enumerate_ball_elements(p, r):
        vs = []
        for i in range(n):
            rep = coset_rep_by_rescan(g, (i, (i + 1) % n))
            v = corners.get((i, rep.word))
            if v is None:
                v = corners[i, rep.word] = ComplexVertex(POLY, i, rep)
            vs.append(v)
        es = []
        for i in range(n):
            rep = coset_rep_by_rescan(g, (i,))
            e = sides.get((i, rep.word))
            if e is None:
                e = sides[i, rep.word] = ComplexEdge(side_ends(vs[i - 1], vs[i], i), i, rep)
            es.append(e)
        ball.polygons[g] = Polygon(g, tuple(vs), tuple(es))
    ball.vertices = sorted(corners.values(), key=ComplexVertex.sort_key)
    ball.edges = sorted(sides.values(), key=ComplexEdge.sort_key)
    ball.interior_vertices = {v for v in ball.vertices if len(v.rep.word) + 2 <= r}
    ball.interior_edges = {e for e in ball.edges if len(e.rep.word) + 1 <= r}
    return ball


def index_by_cells(ball: ComplexBall, cells):
    """``ball``'s incidence maps ``(vertex_cells, edge_cells, vertex_edges)``
    as plain dicts, filled eagerly from its 2-cells, given as (cell, corners)
    pairs in key order: the 2-cells around each cell in that order, and each
    vertex's edges sorted by key."""
    vertex_cells, edge_cells, vertex_edges = {}, {}, {}
    for cell, corners in cells:
        for v in corners:
            vertex_cells.setdefault(v, []).append(cell)
        for e in cell.edges:
            edge_cells.setdefault(e, []).append(cell)
    for e in edge_cells:
        for v in e.ends:
            vertex_edges.setdefault(v, []).append(e)
    for v in ball.vertices:
        vertex_edges[v].sort(key=ComplexEdge.sort_key)
    return vertex_cells, edge_cells, vertex_edges


def polygons_at(b: ComplexBall) -> dict:
    """The polygons at each X-vertex of a polygonal ball, in polygon order,
    filed from their corner objects; kept on the ball."""
    b = objects(b)
    return b.derive("oracle vertex cells", lambda: index_by_cells(
        b, ((P, P.boundary) for P in b.polygons.values()))[0])


def vertex_link(b: ComplexBall, v: ComplexVertex) -> dict:
    """The link of an interior X-vertex over the ball's edge objects: its
    nodes are the edges at v, two joined when a polygon has its corner at v
    between them.  A polygon meeting v in other than two sides raises
    ``InvariantError``."""
    b = objects(b)
    assert v in b.interior_vertices
    link = {e: set() for e in b.vertex_edges[v]}
    for P in polygons_at(b)[v]:
        at_v = [e for e in P.edges if v in e.ends]
        if len(at_v) != 2:
            raise InvariantError("a 2-cell meets its corner in other than two sides",
                                 [format_word(P.rep), v.key_string(), len(at_v)])
        a, c = at_v
        link[a].add(c)
        link[c].add(a)
    return link


def graph_girth(g) -> float:
    """Shortest cycle length of an adjacency mapping (node -> neighbours);
    inf for forests.  BFS per node (links are small).  A node is told from
    its BFS parent by equality."""
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
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def incidence_by_sort(keys, size: int, values=None) -> tuple[array, array]:
    """``davis.incidence`` by a stable sort of the places by key, as the
    subdivision indexed the squares at each vertex before it counted: each
    key's count, summed into the starts, and the places (or their values)
    in key order, in place order within a key."""
    degree = [0] * size
    for x in keys:
        degree[x] += 1
    values = range(len(keys)) if values is None else list(values)
    return (array("i", itertools.accumulate(degree, initial=0)),
            array("i", (values[k] for k in sorted(range(len(keys)), key=keys.__getitem__))))


class SquareRecords:
    """X''s squares written out as records, as ``davis.Subdivision`` once
    kept them: square q's record from ``davis._squares`` (its corner ids,
    then its side ids) at ``squares[8q:8q + 8]``, and the squares at vertex
    x, each as 4q + the place of x among q's corners, at
    ``at[start[x]:start[x + 1]]``, the ``davis.incidence`` of the corner
    columns, and its interior flags by the rep-length rule.  Key strings,
    ends and labels are read through the ball's ``Subdivision``."""

    def __init__(self, x: Subdivision):
        t = x.table
        self.x = x
        self.squares = array("i", itertools.chain.from_iterable(davis._squares(t)))
        corner = array("i", itertools.chain.from_iterable(
            zip(*(self.squares[j::8] for j in range(4)))))
        self.start, self.at = davis.incidence(
            corner, len(t.vertices) // 2 + len(t.edges) // 4 + len(t.reps))

    def __getattr__(self, name):
        return getattr(self.x, name)

    def records(self) -> Iterator[tuple[int, ...]]:
        """Each square's corner ids and then its side ids, in square order."""
        return _records(self.squares, 8)

    def sides(self, q: int) -> array:
        return self.squares[8 * q + 4:8 * q + 8]

    def squares_at(self, x: int) -> Iterator[tuple[int, int]]:
        """(square, the place of x among its corners), in square order."""
        return map(divmod, self.at[self.start[x]:self.start[x + 1]], itertools.repeat(4))

    def interior_vertices(self) -> Iterator[bool]:
        """By X' vertex id: X-vertices and midpoints by the rep-length rule,
        centers always."""
        t = self.table
        inner_v, inner_e = t.inner(2), t.inner(1)
        return itertools.chain(map(inner_v.__getitem__, t.vertices[1::2]),
                               map(inner_e.__getitem__, t.edges[1::4]),
                               itertools.repeat(True, len(t.reps)))

    def interior_edges(self) -> Iterator[bool]:
        """By X' edge id: both halves of an X-edge as it is, spokes always."""
        t = self.table
        inner_e = t.inner(1)
        return itertools.chain(
            itertools.chain.from_iterable((inner_e[k],) * 2 for k in t.edges[1::4]),
            itertools.repeat(True, len(self.ends) // 2 - len(t.edges) // 2))


def square_records(b: ComplexBall) -> SquareRecords:
    """X''s square records, built once per ball from its table as it is
    when first asked for."""
    return b.derive("square records", lambda: SquareRecords(subdivision(b)))


# the places of a square's two sides at each of its corners (m_i, v_i, m_{i+1}, c)
_AT_CORNER = ((0, 2), (0, 1), (1, 3), (2, 3))


def square_record_faults(x: SquareRecords) -> Iterator[tuple[int, dict]]:
    """Each square record that is not its polygon's corner, in square order,
    as (the corner's vertex id, or -1 for the spokes, a witness): a corner
    met by k != 2 of its two sides as [square, vertex key, k], a square
    holding spokes other than its own as [square, the keys of the spokes it
    holds].  ``davis.place_faults`` reads the same facts, those that can
    break, off the polygon columns."""
    n, e0 = x.table.presentation.n, len(x.table.edges) // 2
    for q, c in enumerate(x.records()):
        for v, places in zip(c, _AT_CORNER):
            k = sum(v in x.edge_ends(c[4 + j]) for j in places)
            if k != 2:
                yield v, {"error": "a 2-cell meets its corner in other than two sides",
                          "at": [x.square_name(q), x.vertex_key(v), k]}
        if (c[6], c[7]) != (e0 + q, e0 + q - q % n + (q + 1) % n):
            yield -1, {"error": "a square does not hold its polygon's spokes",
                       "at": [x.square_name(q), x.edge_key(c[6]), x.edge_key(c[7])]}


def record_links(x: SquareRecords) -> tuple[list[int], Optional[dict], Optional[dict], list[int]]:
    """The link read over the square records, as ``davis._links`` made it
    before it read the polygon columns: (the squares holding each X' edge,
    by edge id; the first record fault; the first at an interior X-vertex;
    the ids of the interior vertices whose square count, or at an X-vertex
    whose pairs of halves, are not their closed form's, in id order)."""
    t, n = x.table, x.table.presentation.n
    nv, sq, start = len(t.vertices) // 2, x.squares, x.start
    faults = list(square_record_faults(x))
    on = [0] * len(x.edge_ids())
    for r in x.records():
        for s in r[4:]:
            on[s] += 1
    inner, size = list(x.interior_vertices()), [g.size for g in t.presentation.groups]
    want = itertools.chain((size[i] * size[(i + 1) % n] for i in t.vertices[::2]),
                           (2 * size[i] for i in t.edges[::4]), itertools.repeat(n))
    bad = {v for v, (w, inside) in enumerate(zip(want, inner))
           if inside and start[v + 1] - start[v] != w}
    for v, i in enumerate(t.vertices[::2]):
        if inner[v]:
            pairs = {(sq[8 * q + 4], sq[8 * q + 5]) for q, _ in x.squares_at(v)}
            a, c = {s for s, _ in pairs}, {s for _, s in pairs}
            if ((len(pairs), len(a), len(c), {*map(x.label, a)}, {*map(x.label, c)})
                    != (start[v + 1] - start[v], size[(i + 1) % n], size[i], {i}, {(i + 1) % n})):
                bad.add(v)
    return (on, next((f for _, f in faults), None),
            next((f for v, f in faults if 0 <= v < nv and inner[v]), None), sorted(bad))


def square_link(x: SquareRecords, v: int) -> dict[int, set[int]]:
    """The link of X' vertex v over side ids, by search: two sides are
    joined when a square record at v has them as its sides ending at v.  A
    square meeting v in other than two sides raises ``InvariantError``,
    naming the square and v.  ``davis._links`` builds no link: it reads the
    two halves at each corner off the polygon's side ids."""
    link: dict[int, set[int]] = {}
    for q, _ in x.squares_at(v):
        at_v = [s for s in x.sides(q) if v in x.edge_ends(s)]
        if len(at_v) != 2:
            raise InvariantError("a 2-cell meets its corner in other than two sides",
                                 [x.square_name(q), x.vertex_key(v), len(at_v)])
        a, c = at_v
        link.setdefault(a, set()).add(c)
        link.setdefault(c, set()).add(a)
    return link


def link_is_closed_form(x: SquareRecords, v: int) -> bool:
    """Whether the link of X' vertex v, built by ``square_link``, is the
    closed form of its cell kind, with one square per edge: K_{|G_{i+1}|,
    |G_i|}, parted by the labels i and i+1, at an X-vertex of index i;
    K_{2,|G_i|}, the two halves against the spokes, at the midpoint of a
    label-i X-edge; the n-cycle at a polygon center.  It checks part sizes,
    completeness and, at a center, that the n nodes of degree 2 form one
    cycle, by a walk."""
    t = x.table
    p = t.presentation
    nv, ne = len(t.vertices) // 2, len(t.edges) // 4
    link = square_link(x, v)
    pairs = {frozenset((a, c)) for a, nbrs in link.items() for c in nbrs}
    if len(pairs) != x.start[v + 1] - x.start[v] or any(a in link[a] for a in link):
        return False   # two squares on the same two sides, or a loop
    if v < nv:
        i = t.vertices[2 * v]
        parts = [{s for s in link if x.label(s) == k} for k in (i, (i + 1) % p.n)]
    elif v < nv + ne:
        parts = [{2 * (v - nv), 2 * (v - nv) + 1}, set(link) - {2 * (v - nv), 2 * (v - nv) + 1}]
    else:
        seen, todo = set(), [min(link)]
        while todo:
            a = todo.pop()
            seen.add(a)
            todo.extend(link[a] - seen)
        return (len(link) == p.n and all(len(nbrs) == 2 for nbrs in link.values())
                and seen == set(link))
    sizes = ([p.group(i + 1).size, p.group(i).size] if v < nv
             else [2, p.group(t.edges[4 * (v - nv)]).size])
    return ([len(part) for part in parts] == sizes and set(link) == parts[0] | parts[1]
            and all(link[a] == parts[1] for a in parts[0])
            and all(link[c] == parts[0] for c in parts[1]))


def polygon_pairs_by_objects(b: ComplexBall) -> tuple[int, list]:
    """(the number of pairs of polygons sharing a vertex, those of them
    sharing two edges or three vertices as (name, name, edges, vertices)),
    by intersecting the polygons' corner and side objects at each vertex."""
    seen, bad = set(), []
    for polys in polygons_at(b).values():
        for g, h in itertools.combinations(polys, 2):
            if (g, h) not in seen:
                seen.add((g, h))
                shared_v = set(g.boundary) & set(h.boundary)
                shared_e = set(g.edges) & set(h.edges)
                if len(shared_e) >= 2 or len(shared_v) >= 3:
                    bad.append((format_word(g.rep), format_word(h.rep),
                                len(shared_e), len(shared_v)))
    return len(seen), bad


def polygon_pairs_by_search(b: ComplexBall) -> Report:
    """``davis.polygon_pair_audit`` by intersecting the corner and side ids
    of every pair of polygons at each X-vertex, the polygons there read
    from the squares at it: no two polygons share two edges or three
    vertices.  Each pair is counted and checked once, at its least shared
    X-vertex: the vertices are walked in id order, so that is where the pair
    is first met."""
    report = Report()
    x = square_records(b)
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
                if v not in shared_v or min(shared_v) != v:   # not in: a broken X'
                    continue
                pairs += 1
                shared_e = set(t.sides(g)) & set(t.sides(h))
                if len(shared_e) >= 2 or len(shared_v) >= 3:
                    bad.append((format_word(t.reps[g]), format_word(t.reps[h]),
                                len(shared_e), len(shared_v)))
    report.add("davis.polygon-pairs", f"radius={b.radius} pairs={pairs}",
               not bad, witness=bad or None)
    return report


def wall_no_shared_polygon_by_pairs(b: ComplexBall, ws: list) -> Report:
    """``walls.wall_no_shared_polygon_audit`` on the walls ``ws`` of ``b``,
    by intersecting the polygons on every pair of edges of each wall
    (``edge_cells``), instead of one pass over each polygon's sides."""
    report = Report()
    edge_cells = objects(b).edge_cells
    for T in ws:
        bad = [(e1.key_string(), e2.key_string())
               for e1, e2 in itertools.combinations(sorted(wall_objects(b, T).edges), 2)
               if set(edge_cells[e1]) & set(edge_cells[e2])]
        report.add("walls.no-two-edges-share-polygon", T.key_string(), not bad,
                   bad or None)
    return report


def vertex_stabilizer_by_pairs(b: ComplexBall) -> Report:
    """``walls.vertex_stabilizer_criterion_audit`` by testing every pair of
    an interior vertex and a wall of ``walls_of_ball(b)``."""
    report = Report()
    t = b.table
    ws = [(T, T.stabilizer, T.vertex_set) for T in walls_of_ball(b)]
    encode = vertex_mediums(b)
    bad = []
    checked = 0
    for v in t.interior_vertices():
        maximals = containing_maximals(encode[v])
        for T, stab_T, on_T in ws:
            checked += 1
            stabilizes = stab_T in maximals
            if stabilizes != (v in on_T):
                bad.append((t.vertex_key(v), T.key_string(), stabilizes))
    report.add("walls.vertex-stabilizer-detects-membership",
               f"pairs={checked}", not bad, bad or None)
    return report


@dataclass(frozen=True, eq=False)
class Square:
    polygon: GroupElement
    corner: int   # the polygon corner v_corner this square surrounds
    corners: tuple[ComplexVertex, ...]   # (mid e_corner, v_corner, mid e_{corner+1}, center)
    edges: tuple[ComplexEdge, ...]

    def name(self) -> str:
        """The polygon word and corner, e.g. ``ab#2``."""
        return f"{format_word(self.polygon)}#{self.corner}"


class SquareBall(ObjectBall):
    """X' of a polygonal ball as cell objects: its own vertices and edges,
    the polygonal ball's polygons, and its squares, whose incidence maps
    ``vertex_cells``, ``edge_cells`` and ``vertex_edges`` index."""

    form = "square"

    def __init__(self, presentation, radius):
        super().__init__(presentation, radius)
        self.squares: list[Square] = []

    def _incidence(self):
        return index_by_cells(self, ((s, s.corners) for s in self.squares))[1:]


_RANK = {POLY: 2, EDGE: 1, TRIVIAL: 0}   # |S| for the coset g<G_S>


def subdivide(b: ComplexBall) -> SquareBall:
    """X' of a polygonal ball as cell objects, built once per ball, each
    cell made once, from the ball's table, in the key order that
    ``davis._rows`` lists it.  The X-vertices are the ball's own; the
    midpoints and their halves come in edge-id order, each half filed under
    its X-vertex; the centers and their spokes in polygon order, each spoke
    filed under its midpoint.  The vertex g<G_S> is interior iff
    |g| + |S| <= r, a half iff its X-edge is, and a spoke always."""
    return b.derive("square ball", lambda: _square_ball(b))


def _square_ball(b: ComplexBall) -> SquareBall:
    p = b.presentation
    n = p.n
    t = b.table
    b = objects(b)
    reps, vertices = t.reps, b.vertices
    sq = SquareBall(presentation=p, radius=b.radius)
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
    sq.edges = [*itertools.chain.from_iterable(at_vertex), *itertools.chain.from_iterable(at_mid)]
    r = b.radius
    sq.interior_vertices = {v for v in sq.vertices if len(v.rep.word) + _RANK[v.cls] <= r}
    sq.interior_edges = {e for e in sq.edges if e.label is None or len(e.rep.word) + 1 <= r}
    return sq


def hyperplane_classes_by_components(sq: SquareBall) -> set[frozenset[str]]:
    """The hyperplane classes of the square-ball oracle, as sets of edge key
    strings: the connected components of the graph joining the two sides of
    each square that share no corner."""
    g = nx.Graph()
    g.add_nodes_from(e.key_string() for e in sq.edges)
    for s in sq.squares:
        g.add_edges_from((e.key_string(), f.key_string())
                         for e, f in itertools.combinations(s.edges, 2)
                         if not set(e.ends) & set(f.ends))
    return set(map(frozenset, nx.connected_components(g)))


def opposite_sides_by_ends(b: ComplexBall) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Each square's two pairs of opposite sides, in square order, found by
    matching the sides' ends: the sides (m_i, v) and (m_{i+1}, c), then
    (v, m_{i+1}) and (c, m_i)."""
    x = square_records(b)
    for q, (m_i, v, m_next, c, *sides) in enumerate(x.records()):
        # corners (m_i, v, m_{i+1}, c) in cyclic order; each side by its ends, in key order
        side = {x.edge_ends(s): s for s in sides}
        pairs = []
        for pair in (((m_i, v), (m_next, c)), ((v, m_next), (c, m_i))):
            e1, e2 = (side.get((min(a, z), max(a, z))) for a, z in pair)
            if e1 is None or e2 is None:
                a, z = pair[0] if e1 is None else pair[1]
                raise InvariantError("square is missing one of its sides",
                                     [x.square_name(q), x.vertex_key(a), x.vertex_key(z)])
            pairs.append((e1, e2))
        yield tuple(pairs)


def hyperplane_classes(b: ComplexBall) -> dict[int, list[int]]:
    """Square-midline equivalence classes of X' edge ids, each keyed by its
    union-find root: edges opposite in a square are dual to the same
    hyperplane, matched by their ends (``opposite_sides_by_ends``), where
    ``walls.hyperplane_treewall_audit`` pairs them by their places."""
    x = subdivision(b)
    uf = UnionFind(len(x.edge_ids()))
    for pairs in opposite_sides_by_ends(b):
        for e1, e2 in pairs:
            uf.union(e1, e2)
    classes: dict[int, list[int]] = {}
    for e in x.edge_ids():
        classes.setdefault(uf.find(e), []).append(e)
    return classes


def combinatorial_hyperplanes(b: ComplexBall, dual_edges: list[int]) -> list[set[int]]:
    """The two side graphs of a hyperplane, as X' edge ids.

    The ends of dual (crossed) edges are 2-colored: the two ends of a
    crossed edge get different colors; corners joined by a side of a
    crossed square parallel to the hyperplane get the same color.  Each
    combinatorial hyperplane is the set of parallel sides within one color.
    """
    x = square_records(b)
    dual = set(dual_edges)
    parallel_edges: set[int] = set()
    # the crossed squares: those at a dual edge's first end that hold it
    for q in sorted({q for e in dual for q, _ in x.squares_at(x.edge_ends(e)[0])
                     if e in x.sides(q)}):
        sides = x.sides(q)
        crossed = [e for e in sides if e in dual]
        if len(crossed) != 2:
            raise InvariantError("a square meets a hyperplane in opposite sides",
                                 [x.square_name(q), len(crossed)])
        parallel_edges.update(set(sides) - dual)
    # vertex -> (neighbour, 1 across the hyperplane or 0 along it)
    joined: dict[int, set[tuple[int, int]]] = {}
    for e, flip in itertools.chain(zip(dual, itertools.repeat(1)),
                                   zip(parallel_edges, itertools.repeat(0))):
        a, c = x.edge_ends(e)
        joined.setdefault(a, set()).add((c, flip))
        joined.setdefault(c, set()).add((a, flip))
    color: dict[int, int] = {}
    for start in sorted(joined):   # BFS 2-coloring
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w, flip in joined[u]:
                if w not in color:
                    color[w] = color[u] ^ flip
                    queue.append(w)
                elif color[w] != color[u] ^ flip:
                    raise InvariantError("hyperplane is one-sided in the ball" if flip
                                         else "hyperplane sides are inconsistent",
                                         [x.vertex_key(u), x.vertex_key(w)])
    sides = [set(), set()]
    for e in parallel_edges:
        sides[color[x.edge_ends(e)[0]]].add(e)
    return sides


def hyperplane_treewall_by_classes(b: ComplexBall) -> Report:
    """``walls.hyperplane_treewall_audit`` by 2-coloring each class's
    sides on its own (``combinatorial_hyperplanes``) and counting the sides
    whose labels are one X-edge label."""
    report = Report()
    x = subdivision(b)
    classes = hyperplane_classes(b)
    for idx, root in enumerate(sorted(classes, key=x.edge_ends)):
        labels = [set(map(x.label, side)) for side in combinatorial_hyperplanes(b, classes[root])]
        skeleton_sides = sum(None not in ls and len(ls) == 1 for ls in labels)
        report.add("walls.hyperplane-side-is-wall", f"hyperplane#{idx}",
                   skeleton_sides == 1,
                   None if skeleton_sides == 1 else {
                       "sides_in_skeleton": skeleton_sides,
                       "side_labels": [sorted(map(str, ls)) for ls in labels]})
    return report


def hyperplane_treewall_by_records(b: ComplexBall) -> Report:
    """``walls.hyperplane_treewall_audit`` as it read X' before the squares
    left the package: a record fault (``square_record_faults``) fails the
    ``classes`` row; otherwise each record's opposite sides are paired by
    their places, (half_i, spoke_{i+1}) and (half_{i+1}, spoke_i), and a
    second pass over the records files each class's halves' labels and the
    midpoint on its X-vertex side."""
    check = "walls.hyperplane-side-is-wall"
    report = Report()
    x = square_records(b)
    fault = next(square_record_faults(x), None)
    if fault:
        report.add(check, "classes", False, fault[1])
        return report
    sq = x.squares
    uf = UnionFind(len(x.edge_ids()))
    for h0, h1, s0, s1 in zip(sq[4::8], sq[5::8], sq[6::8], sq[7::8]):
        uf.union(h0, s1)
        uf.union(h1, s0)
    label_of, mixed, errors = {}, {}, {}
    nv = len(x.table.vertices) // 2
    cls = [uf.find(s) for s in x.edge_ids()]
    for q, (m_i, m_next, h0, h1) in enumerate(zip(sq[0::8], sq[2::8], sq[4::8], sq[5::8])):
        r0, r1 = cls[h0], cls[h1]
        if r0 == r1:
            errors.setdefault(r0, {"error": "a square meets a hyperplane in opposite sides",
                                   "at": [x.square_name(q)]})
        for root, along, near in ((r0, h1, m_next), (r1, h0, m_i)):
            label = x.label(along)
            if label_of.setdefault(root, label) != label:
                mixed.setdefault(root, {label_of[root]}).add(label)
            if root in (cls[2 * (near - nv)], cls[2 * (near - nv) + 1]):
                errors.setdefault(root, {"error": "hyperplane sides are inconsistent",
                                         "at": [x.square_name(q), x.vertex_key(near)]})
    for idx, root in enumerate(sorted(label_of, key=x.edge_ends)):
        ok = root not in errors and root not in mixed and label_of[root] is not None
        report.add(check, f"hyperplane#{idx}", ok, None if ok else errors.get(root, {
            "sides_in_skeleton": 0,
            "side_labels": [sorted(map(str, mixed.get(root, {label_of[root]}))), ["None"]]}))
    return report


def coset_intersection_by_stripping(c1: GroupElement, S1, c2: GroupElement, S2):
    """``autgroup.coset_intersection`` by factoring c2^-1·c1 = lam·rho with
    lam in <G_S2> and rho in <G_S1>, greedily: strip S2-syllables that
    shuffle to the front and S1-syllables that shuffle to the end until
    neither moves.  The cosets meet iff nothing is left."""
    p = c1.presentation
    word = list(mul(inv(c2), c1).word)
    lam = []
    progress = True
    while word and progress:
        progress = False
        k = next((k for v, k in minimal_syllables(p, word) if v in S2), None)
        if k is not None:
            lam.append(word.pop(k))
            progress = True
        k = right_strippable(p, word, S1)
        if k is not None:
            del word[k]
            progress = True
    if word:
        return None
    return coset_rep(mul(c2, reduce_word(p, lam)), S1 & S2), S1 & S2


def _edge_cosets_both_labels(h) -> dict:
    """Edge coset reps of the X-vertex encoded by a medium, by label."""
    p = h.presentation
    i, j = h.base, (h.base + 1) % p.n
    c = h.conjugator
    out = {i: set(), j: set()}
    for b in p.group(j).elements():
        shift = mul(c, GroupElement(p, (Syllable(j, b),) if b else ()))
        out[i].add(coset_rep(shift, (i,)))
    for a in p.group(i).elements():
        shift = mul(c, GroupElement(p, (Syllable(i, a),) if a else ()))
        out[j].add(coset_rep(shift, (j,)))
    return out


def edge_cosets_by_products(h, label) -> set:
    """The reps of the edges labelled ``label`` at the X-vertex encoded by a
    medium, as the products c·x, for x in the group of the window vertex
    other than ``label``."""
    p = h.presentation
    other = (h.base + 1) % p.n if label == h.base else h.base
    c = h.conjugator
    return {mul(c, GroupElement(p, (Syllable(other, x),) if x else ()))
            for x in p.group(other).elements()}


def shared_edge_both_labels(h1, h2):
    """``algebraic.shared_edge`` by intersecting the edge cosets of every
    label the two vertices have in common."""
    e1, e2 = _edge_cosets_both_labels(h1), _edge_cosets_both_labels(h2)
    for label in sorted(set(e1) & set(e2)):
        common = e1[label] & e2[label]
        if common:
            assert len(common) == 1
            return label, next(iter(common))
    return None


def cyclic_reduce_by_trial(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """``words.cyclic_reduce`` by trying each front-syllable conjugation."""
    p = g.presentation
    core, conj = g, identity(p)
    while True:
        word = core.word
        front = [k for k in range(len(word))
                 if all(p.adjacent(word[j].vertex, word[k].vertex) for j in range(k))]
        for k in sorted(front, key=lambda k: (word[k].vertex, word[k].value)):
            s = GroupElement(p, (word[k],))
            trial = mul(mul(inv(s), core), s)
            if trial.syllable_length < core.syllable_length:
                core, conj = trial, mul(conj, s)
                break
        else:
            return core, conj


def treewall_of_edge(b, e) -> ObjectWall:
    """The piece of a tree-wall through one edge: flood fill over same-label
    edges meeting at a shared vertex."""
    if e.label is None or e.rep is None:
        raise ValidationError("tree-walls grow from labelled edges of the 1-skeleton")
    if b.form != "polygonal":
        raise ValidationError("tree-walls live in the polygonal ball")
    b = objects(b)
    label = e.label
    seen = {e}
    frontier = [e]
    while frontier:
        cur = frontier.pop()
        for v in cur.ends:
            for nxt in b.vertex_edges.get(v, []):
                if nxt.label == label and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    n = b.presentation.n
    key = coset_rep(e.rep, {(label - 1) % n, label, (label + 1) % n})
    return ObjectWall(label, min(seen), frozenset(seen), key)


def parabolic_normalizer(p: Presentation, S) -> frozenset:
    """Vertex set generating the normalizer of ``<G_S>``: S plus the vertices
    adjacent to every vertex of S."""
    Sf = frozenset(v % p.n for v in S)
    extra = {v for v in range(p.n) if all(p.adjacent(v, s) for s in Sf)}
    return frozenset(Sf | extra)


def window_member(g: GroupElement, S, w: GroupElement) -> bool:
    """Whether g lies in ``w <G_S> w^-1``: ``w^-1 g w`` is supported on S."""
    return mul(mul(inv(w), g), w).support() <= frozenset(S)


def walls_by_objects(b) -> list:
    """``walls.walls_of_ball`` from the ball's cell objects: each edge's key
    is ``coset_rep`` of its rep, the edges are bucketed by (label, key) in
    key order, and the buckets holding an interior edge are kept."""
    b = objects(b)
    windows = [window_of(b.n, MAXIMAL, i) for i in range(b.n)]
    by_key = {}
    for e in b.edges:   # in key order, so each wall's first edge is its seed
        key_rep = coset_rep(e.rep, windows[e.label])
        by_key.setdefault((e.label, key_rep), []).append(e)
    return [ObjectWall(label, edges[0], frozenset(edges), key_rep)
            for (label, key_rep), edges in sorted(by_key.items())
            if not b.interior_edges.isdisjoint(edges)]


def walls_by_flood_fill(b) -> list:
    """``walls.walls_of_ball`` by flood fill from each interior edge not yet
    reached, merging the pieces that share a key."""
    by_key = {}
    done = set()
    for e in sorted(objects(b).interior_edges):
        if e in done:
            continue
        w = treewall_of_edge(b, e)
        done |= w.edges
        if w.key in by_key:
            prev = by_key[w.key]
            w = ObjectWall(w.label, min(prev.seed, w.seed), prev.edges | w.edges,
                           w.key_rep)
        by_key[w.key] = w
    return [by_key[k] for k in sorted(by_key)]


def subdivision_interior_inherited(b):
    """``(interior vertices, interior edges)`` of ``subdivide(b)``, carried
    over from the polygonal ball ``b``: an X-vertex keeps its status, a
    midpoint and a half-edge take their X-edge's, and centers and spokes lie
    inside one polygon."""
    sq = subdivide(b)
    b = objects(b)
    interior_x_edges = {(e.label, e.rep) for e in b.interior_edges}

    def interior(v):
        if v.cls == POLY:
            return v in b.interior_vertices
        if v.cls == EDGE:
            return (v.index, v.rep) in interior_x_edges
        return True

    return ({v for v in sq.vertices if interior(v)},
            {e for e in sq.edges
             if e.label is None or (e.label, e.rep) in interior_x_edges})


def fill_and_audit(b: ComplexBall, loop, max_faces: int = 24) -> tuple[DiscDiagram, Report]:
    """Fill the loop with ``diagrams.fill_loop`` and audit the result: the
    convention lock, the filling reduced, its boundary mapped onto the loop
    and the curvature identity."""
    report = convention_lock(b.presentation.n)
    d = diagrams.fill_loop(b, loop, max_faces)
    report.add("diagrams.filling-is-reduced", f"faces={len(d.faces)}",
               d.is_reduced())
    ok_bound = all(d.images[v] == w for v, w in zip(d.boundary, loop))
    report.add("diagrams.boundary-matches-loop", f"len={len(loop)}", ok_bound)
    report.extend(gauss_bonnet_check(d, f"faces={len(d.faces)}"))
    return d, report


def _loop_state(loop: list, creators: list):
    """Rotation-minimal canonical form for memoisation, over vertex ids and
    creator polygon ids (-1 when absent)."""
    if not loop:
        return ()
    pairs = [(v, -1 if c is None else c) for v, c in zip(loop, creators)]
    L = len(pairs)
    return min(tuple(pairs[(i + j) % L] for j in range(L)) for i in range(L))


def match_polygon_by_search(cycle, segment):
    """Longest run of the polygon cycle equal to the segment, either direction.

    Tries both directions from every place of the cycle that holds
    segment[0].  Returns (k, completion) where the first k edges of the
    segment are covered and ``completion`` is the polygon's remaining corner
    path from segment[k] back to segment[0] (exclusive of both endpoints);
    None when no run covers an edge.
    """
    n = len(cycle)
    best = None
    for direction in (1, -1):
        cyc = list(cycle) if direction == 1 else list(reversed(cycle))
        for start in range(n):
            if cyc[start] != segment[0]:
                continue
            k = 0
            while k < min(len(segment) - 1, n - 1) and \
                    cyc[(start + k + 1) % n] == segment[k + 1]:
                k += 1
            if k == 0:
                continue
            completion = [cyc[(start + j) % n] for j in range(k + 1, n)]
            if best is None or k > best[0]:
                best = (k, completion)
    return best


def fill_loop_by_search(b, loop, max_faces: int = 24) -> DiscDiagram:
    """``diagrams.fill_loop`` by depth-first search with backtracking, over
    the same X-vertex and polygon ids.

    The search glues one polygon at a time along the longest matching run of
    the current boundary, never glues a polygon back onto an edge it just
    created (which keeps the result reduced), cancels spurs, and backtracks.
    Each boundary vertex carries its diagram vertex id, so the search builds
    the diagram's faces and fold identifications as it goes and undoes them
    on backtrack.  Each run is found by the general match
    ``match_polygon_by_search``, not by ``diagrams._read_run``.  Raises
    :class:`FillError` when no diagram exists within ``max_faces``.
    """
    loop = list(loop)
    if len(loop) < 1:
        raise FillError("empty loop")
    if loop[0] == loop[-1] and len(loop) > 1:
        loop = loop[:-1]
    for v, w in zip(loop, loop[1:] + loop[:1]):
        if len(loop) > 1 and _ball_edge(b, v, w) is None:
            raise FillError(f"loop is not an edge path at {b.table.vertex_key(v)}")

    start = list(range(len(loop)))
    images = list(loop)    # diagram vertex id -> image
    faces = []
    face_polygons = []
    merges = []            # vertex ids identified by folds
    seen = set()

    def search(loop, creators, ids, budget) -> bool:
        n_merges = len(merges)
        _cancel_spurs(loop, creators, ids, merges)
        if len(loop) <= 2:
            return True    # a point, or one edge walked there and back
        state = _loop_state(loop, creators)
        if state in seen or budget == 0:
            del merges[n_merges:]
            return False
        seen.add(state)

        L = len(loop)
        candidates = []
        for j in range(L):
            v, w = loop[j], loop[(j + 1) % L]
            e = _ball_edge(b, v, w)
            for rep in _edge_polygons(b)[e]:
                if creators[j] == rep:
                    continue   # would stack the same polygon on this edge
                segment = [loop[(j + t) % L] for t in range(L)] + [loop[j]]
                m = match_polygon_by_search(b.table.corners(rep), segment)
                if m is None:
                    continue
                k, completion = m
                if any(creators[(j + t) % L] == rep for t in range(k)):
                    continue
                candidates.append((-k, j, rep, k, completion))
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))

        n_images, n_faces = len(images), len(faces)
        for _, j, rep, k, completion in candidates:
            # the face runs along loop[j..j+k] and back through fresh corners;
            # the new boundary keeps loop[j+k] around to loop[j] (both
            # endpoints), then closes through those corners
            fresh = list(range(n_images, n_images + len(completion)))
            images.extend(completion)
            faces.append(tuple(ids[(j + t) % L] for t in range(k + 1)) + tuple(fresh))
            face_polygons.append(b.table.reps[rep])
            new_loop = [loop[(j + k + t) % L] for t in range(L - k + 1)] \
                + list(reversed(completion))
            new_creators = [creators[(j + k + t) % L] for t in range(L - k)] \
                + [rep] * (len(completion) + 1)
            new_ids = [ids[(j + k + t) % L] for t in range(L - k + 1)] + fresh[::-1]
            if search(new_loop, new_creators, new_ids, budget - 1):
                return True
            del images[n_images:], faces[n_faces:], face_polygons[n_faces:]
        del merges[n_merges:]
        return False

    if not search(loop, [None] * len(loop), list(start), max_faces):
        raise FillError(
            f"no reduced filling with at most {max_faces} faces was found")

    uf = UnionFind(len(images))
    for a, c in merges:
        uf.union(a, c)
    root = uf.find
    edges = sorted({frozenset({root(a), root(c)})
                    for cycle in (start, *faces)
                    for a, c in zip(cycle, cycle[1:] + cycle[:1])
                    if root(a) != root(c)}, key=sorted)
    d = DiscDiagram(sorted({root(v) for v in range(len(images))}), edges,
                    [tuple(map(root, f)) for f in faces], tuple(map(root, start)),
                    {root(v): img for v, img in enumerate(images)}, face_polygons)
    if not d.is_reduced():
        raise FillError("search produced a non-reduced diagram")
    return d


def axis_segment(b, i: int, k: int) -> list:
    """Edges of the translation axis through the central label-i edge.

    The translating element is the product of one syllable on each side of
    vertex group i; the segment is its orbit of the central edge and the
    neighbouring one, truncated to the ball.
    """
    p = b.presentation
    b = objects(b)
    i %= p.n
    s_prev = GroupElement(p, (Syllable((i - 1) % p.n, 1),))
    s_next = GroupElement(p, (Syllable((i + 1) % p.n, 1),))
    g_i = mul(s_prev, s_next)

    e0 = x_edge(p, identity(p), i)
    e1 = act_edge(s_next, e0)
    edges = []
    for j in range(-k, k + 1):
        power = identity(p)
        step = g_i if j >= 0 else inv(g_i)
        for _ in range(abs(j)):
            power = mul(power, step)
        for e in (act_edge(power, e0), act_edge(power, e1)):
            if e in b.edge_cells and e not in edges:
                edges.append(e)
    if not edges:
        raise ValidationError("axis leaves the ball immediately")

    key = CSubgroup(MAXIMAL, i, e0.rep).conjugator
    for e in edges:
        assert e.label == i, "axis edge with the wrong label"
        assert CSubgroup(MAXIMAL, i, e.rep).conjugator == key, "axis leaves its tree-wall"
    wall = treewall_of_edge(b, e0)
    assert all(e in wall.edges for e in edges)
    return sorted(edges)


def ball_to_json_by_dumps(b: ComplexBall) -> str:
    b = objects(b)
    words: dict[GroupElement, str] = {}   # each rep formatted once

    def word(g: GroupElement) -> str:
        w = words.get(g)
        if w is None:
            w = words[g] = format_word(g)
        return w

    vertices, key = [], {}
    for v in b.vertices:
        rep = word(v.rep)
        key[v] = v.key_string()
        vertices.append({"key": key[v], "class": v.cls, "index": v.index,
                         "rep": rep, "interior": v in b.interior_vertices})
    doc = {
        "schema": "cyclewall/1",
        "form": b.form,
        "n": b.presentation.n,
        "radius": b.radius,
        "vertices": vertices,
        "edges": [
            {"key": f'{"" if e.label is None else e.label}|{key[e.ends[0]]}--{key[e.ends[1]]}',
             "label": e.label,
             "rep": None if e.rep is None else word(e.rep),
             "ends": [key[e.ends[0]], key[e.ends[1]]],
             "interior": e in b.interior_edges}
            for e in b.edges
        ],
        "polygons": [   # b.polygons is in key order
            {"rep": word(g), "boundary": [key[v] for v in poly.boundary]}
            for g, poly in b.polygons.items()
        ],
    }
    if isinstance(b, SquareBall):
        doc["squares"] = [
            {"polygon": word(s.polygon), "corner": s.corner,
             "corners": [key[c] for c in s.corners]}
            for s in b.squares
        ]
    return json.dumps(doc, indent=2, sort_keys=True)


def ball_to_dot_by_walk(b: ComplexBall) -> str:
    """The dot graph of any ball's 1-skeleton, walked from its own vertices
    and edges."""
    b = objects(b)
    key = {v: v.key_string() for v in b.vertices}
    label = {None: ""} | {i: f' [label="{i}"]' for i in range(b.n)}
    return "".join([
        "graph ball {\n",
        *(f'  "{key[v]}" [interior={"true" if v in b.interior_vertices else "false"}];\n'
          for v in b.vertices),
        *(f'  "{key[e.ends[0]]}" -- "{key[e.ends[1]]}"{label[e.label]};\n' for e in b.edges),
        "}\n"])


def x_edge(p: Presentation, g: GroupElement, i: int) -> ComplexEdge:
    """Edge of X for the coset gG_i, joining g(G_{i-1} x G_i) and g(G_i x G_{i+1})."""
    i %= p.n
    rep = coset_rep(g, (i,))
    return ComplexEdge(side_ends(x_vertex(p, rep, i - 1), x_vertex(p, rep, i), i), i, rep)


def enumerate_loc_by_listing(p: Presentation) -> list[LocalAut]:
    out = []
    for sigma in enumerate_symmetries(p):
        per_vertex = [isomorphisms(p.group(i), p.group(sigma(i)))
                      for i in range(p.n)]
        for combo in itertools.product(*per_vertex):
            out.append(LocalAut(sigma, tuple(combo)))
    return out


def loc_fixator_by_filter(p: Presentation, g: GroupElement, listed=None) -> list[LocalAut]:
    """``listed``: ``enumerate_loc_by_listing(p)``, when the caller has it."""
    listed = enumerate_loc_by_listing(p) if listed is None else listed
    support = sorted(g.support())
    fixes = {}   # lam.apply(g) reads lam's symmetry and its isomorphisms at supp(g)
    out = []
    for lam in listed:
        seen = (lam.sigma.perm, *(id(lam.isos[v]) for v in support))
        if seen not in fixes:
            fixes[seen] = lam.apply(g) == g
        if fixes[seen]:
            out.append(lam)
    return out


def isomorphisms_by_search(src, dst) -> list[LocalIso]:
    if src.kind == "integers" and dst.kind == "integers":
        return [LocalIso(src, dst, sign=1), LocalIso(src, dst, sign=-1)]
    if not src.is_finite or not dst.is_finite or src.size != dst.size:
        return []

    gens = _generating_sequence(src)
    found: list[LocalIso] = []

    def candidates_for(gen: int) -> list[int]:
        order = src.element_order(gen)
        return [y for y in dst.nontrivial_elements() if dst.element_order(y) == order]

    def search(k: int, images: dict[int, int]) -> None:
        if k == len(gens):
            table = _close(src, dst, images)
            if table is None or len(table) != src.size:
                return
            vals = [table[x] for x in range(src.size)]
            if sorted(vals) != list(range(dst.size)):
                return
            found.append(LocalIso(src, dst, mapping=tuple(vals)))
            return
        for y in candidates_for(gens[k]):
            trial = dict(images)
            trial[gens[k]] = y
            if _close(src, dst, trial) is not None:
                search(k + 1, trial)

    search(0, {})
    return found


def parse_word_by_tokens(p: Presentation, text: str) -> GroupElement:
    def syllables():
        for token in text.split():
            if not token.startswith("v") or ":" not in token:
                raise ValidationError(f"bad syllable token: {token!r}")
            v_part, _, e_part = token[1:].partition(":")
            try:
                vertex, value = int(v_part), int(e_part)
            except ValueError:
                raise ValidationError(f"bad syllable token: {token!r}") from None
            if not 0 <= vertex < p.n:
                raise ValidationError(f"vertex {vertex} out of range for n={p.n}")
            yield Syllable(vertex, value)
    return reduce_word(p, syllables())


def minimal_syllables_by_reversal(p: Presentation, word) -> list[tuple[int, int]]:
    """The minimal syllables as ``maximal_syllables`` of the reversed word,
    with the positions mapped back."""
    last = len(word) - 1
    return [(v, last - k) for v, k in maximal_syllables(p, word[::-1])]


def inv_by_reversal(a: GroupElement) -> GroupElement:
    p = a.presentation
    return canonical(p, [Syllable(v, p.groups[v].inv(x)) for v, x in reversed(a.word)])


def aut_apply(a: AutElement, x: GroupElement) -> GroupElement:
    """a(x) = inner·local(x)·inner^-1, as one product."""
    return mul(a.inner, a.local.apply(x), inv(a.inner))


def aut_inverse(a: AutElement) -> AutElement:
    lam = a.local.inverse()
    return AutElement(lam.apply(inv(a.inner)), lam)


def conjugates(g: GroupElement, v: int, values) -> list[GroupElement]:
    """``g·(v, y)·g^-1`` for each non-identity value y of G_v, written out
    without multiplying words: with ``(u, t) = star_split(g, v)``, the
    canonical word of g·(v, y)·g^-1 is u's word, the syllable (v, t·y·t^-1),
    then u^-1's word (Green's normal form; ``autgroup.aut_decompose`` gives
    the proof).  One row of ``autgroup.generator_images``, u inverted on
    every call."""
    p = g.presentation
    u, t = star_split(g, v)
    head, tail = u.word, inv(u).word
    if t != IDENTITY:
        G = p.groups[v]
        ti = G.inv(t)
        values = [G.mul(G.mul(t, y), ti) for y in values]
    return [GroupElement(p, (*head, Syllable(v, y), *tail)) for y in values]


def generator_images_by_products(a: AutElement) -> list[list[GroupElement]]:
    """``autgroup.generator_images`` as one product g·lam(x)·g^-1 per
    generator, inverting a's inner part once."""
    p, lam = a.presentation, a.local
    g, gi = a.inner, inv(a.inner)
    return [[mul(g, GroupElement(p, (Syllable(lam.sigma(i), lam.isos[i].apply(x)),)), gi)
             for x in generator_values(p, i)]
            for i in range(p.n)]


def aut_decompose_by_reduction(p: Presentation, images) -> AutElement:
    """``autgroup.aut_decompose`` with every generator image cyclically
    reduced, and each moved image computed as g^-1·h·g on the full words."""
    p.require_finite()
    n = p.n
    if len(images) != n:
        raise DecompositionError("one image list per vertex is required", None)

    target = [None] * n
    conjugators = [None] * n
    for i in range(n):
        gens = generator_values(p, i)
        if len(images[i]) != len(gens):
            raise DecompositionError(
                f"vertex {i}: expected {len(gens)} generator images", None)
        for x, h in zip(gens, images[i]):
            core, conj = cyclic_reduce(h)
            if core.syllable_length != 1:
                raise DecompositionError(
                    f"image of generator {x} at vertex {i} is not conjugate "
                    "to a syllable", format_word(h))
            vertex = core.word[0].vertex
            if target[i] is None:
                target[i] = vertex
                conjugators[i] = conj
            elif target[i] != vertex:
                raise DecompositionError(
                    f"vertex {i}: generator images land in different vertex "
                    f"groups {target[i]} and {vertex}", format_word(h))

    try:
        sigma = CycleSymmetry(p, tuple(target))
    except ValidationError as exc:
        raise DecompositionError(
            f"the induced vertex map is not an admissible cycle symmetry: {exc}",
            list(target)) from None

    # g lies in conj_i * <maximal window around sigma(i)> for every i; intersect
    windows = [window_of(n, MAXIMAL, sigma(i)) for i in range(n)]
    g, S = conjugators[0], windows[0]
    for i in range(1, n):
        hit = coset_intersection(conjugators[i], windows[i], g, S)
        if hit is None:
            raise DecompositionError(
                "conjugator constraints are inconsistent: no single inner "
                "element matches all vertices", format_word(conjugators[i]))
        g, S = hit

    gi = inv(g)
    isos = []
    for i in range(n):
        j = sigma(i)
        src, dst = p.group(i), p.group(j)
        mapping = [0] * src.size
        for x, h in zip(generator_values(p, i), images[i]):
            moved = mul(mul(gi, h), g)
            if moved.syllable_length != 1 or moved.word[0].vertex != j:
                raise DecompositionError(
                    f"after removing the inner part, the image of generator "
                    f"{x} at vertex {i} is not a syllable at vertex {j}",
                    format_word(moved))
            mapping[x] = moved.word[0].value
        try:
            isos.append(LocalIso(src, dst, mapping=tuple(mapping)))
        except ValidationError as exc:
            raise DecompositionError(
                f"vertex {i}: generator images do not define an isomorphism: "
                f"{exc}", mapping) from None

    a = AutElement(g, LocalAut(sigma, tuple(isos)))
    for i, row in enumerate(generator_images_by_products(a)):
        for x, h, got in zip(generator_values(p, i), images[i], row):
            if got != h:
                raise DecompositionError(
                    f"reconstructed automorphism disagrees with the image of "
                    f"generator {x} at vertex {i}",
                    {"expected": format_word(h), "got": format_word(got)})
    return a


def homomorphism_error_by_scan(source, target, mapping):
    """The error ``LocalIso(source, target, mapping)`` raises on a bijection
    that fixes the identity, or None: the first pair (a, b), in row order,
    with mapping[a·b] != mapping[a]·mapping[b]."""
    for a in source.elements():
        for b in source.elements():
            if mapping[source.mul(a, b)] != target.mul(mapping[a], mapping[b]):
                return f"mapping is not a homomorphism at ({a},{b})"
    return None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser: a sub-parser per command, each with the
    common options, its own options and positionals, and its handler as
    ``func``.  Its usage errors raise ``SystemExit(2)``."""
    parser = argparse.ArgumentParser(
        prog="cyclewall",
        description="Toolkit for cyclic products of groups: normal forms, "
                    "polygonal complex audits, tree-walls, automorphisms, "
                    "and curvature checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--presentation", required=True,
                        help="JSON file: {\"n\": int, \"groups\": [...]}")
        sp.add_argument("--radius", type=int, default=2)
        sp.add_argument("--depth", type=int, default=3,
                        help="syllable-length bound for truncated searches")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", default=None, help="write to file, not stdout")

    sp = sub.add_parser("reduce", help="print canonical forms of words")
    common(sp)
    sp.add_argument("word", nargs="*",
                    help="words like 'v1:1 v2:1'; reads stdin lines if omitted")
    sp.set_defaults(func=cli.cmd_reduce)

    sp = sub.add_parser("ball", help="build and export a bounded ball")
    common(sp)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.add_argument("--subdivide", action="store_true",
                    help="export the square subdivision instead")
    sp.set_defaults(func=cli.cmd_ball)

    sp = sub.add_parser("verify", help="run an audit suite and print the report")
    common(sp)
    sp.add_argument("--suite", choices=cli._SUITES, default="all")
    sp.set_defaults(func=cli.cmd_verify)

    sp = sub.add_parser("aut", help="automorphism utilities")
    common(sp)
    sp.add_argument("action", choices=("decompose", "witness", "fixator"))
    sp.add_argument("--images", default=None,
                    help="JSON file {\"images\": [[word, ...], ...]} for decompose")
    sp.add_argument("--element", default=None,
                    help="word whose local fixator to compute (fixator action)")
    sp.set_defaults(func=cli.cmd_aut)
    return parser
