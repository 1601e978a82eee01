"""Conjugated standard subgroups, the abstract complex rebuilt from them, and
the isomorphism check against the geometric ball.

``CSubgroup`` is the package's one encoding of a conjugated standard
subgroup.  Its tier names its window around the base vertex i: minimal {i}
(a wall's fixator), medium {i, i+1} (an X-vertex's stabilizer), maximal
{i-1, i, i+1} (a wall's stabilizer).  The conjugator is kept as its minimal
coset representative modulo the subgroup's normalizer, so equal subgroups
get equal encodings.  On a cycle with n >= 5 that normalizer is exact: for a
minimal subgroup it is the maximal window (both neighbours of i commute with
G_i), and a medium or maximal window is its own (no vertex is adjacent to
all of it).  An encoding hashes its fields once, when it is made, and each
window is built once per (n, tier, base).

The abstract complex has the medium encodings of a ball's vertices as nodes,
arcs where the join of two mediums is a maximal, and faces for the induced
n-cycles, found as the walks that wind once around the base cycle.  The
arcs are the buckets of the rebuild's hash join on edge cosets: two mediums
share an edge coset exactly when they join, so the join itself is not
taken there; the tests' oracle joins every pair, and ``join_agreement_audit``
tests the join against the ball's adjacency.  A
ball's mediums are encoded once, by vertex id (``vertex_mediums``), and
read by the rebuild, ``phi_iso_check`` and the join audits, here and in
``walls``.  The audits read the ball's table (``davis.BallTable``) by id:
the interior skeleton is id adjacency from the edges' end ids, polygons
are their corner records, and witnesses are key strings.

The rebuild writes its edge cosets out instead of multiplying.  Those of a
node c<G_i x G_{i+1}> are c·x for x in one of its two window groups.  As c
is minimal modulo the window, pushing x onto c's word merges nothing and
inserts it at an index that depends on c and x's vertex alone (the splice
lemma), so each c·x is c's word with x spliced in (``_edge_cosets``).

The join is decided exactly: two mediums c1<G_b x G_{b+1}> and
c2<G_{b+1} x G_{b+2}> join to a maximal iff the vertices they encode share
an edge, that is iff the canonical word of c2^-1·c1 lies in G_{b+2}·G_b
(see ``shared_edge`` and ``join_is_cmaximal``), so the join never
enumerates a vertex group and never comes out undecided.  The map
(coset gH) -> (subgroup gHg^-1) is verified to be an equivariant
isomorphism on interior cells.  On edges that is one comparison of two sets
of vertex id pairs: the ball's edges between interior vertices, and the
rebuild's arcs between their encodings, decoded.  Equivariance is sampled
on vertices made one at a time from the table (``davis.act_vertex`` acts
on a ``ComplexVertex``).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .davis import POLY, ComplexBall, ComplexVertex, act_vertex
from .errors import InvariantError, ValidationError
from .reports import Report
from .words import (
    GroupElement,
    Presentation,
    Syllable,
    coset_rep,
    format_word,
    inv,
    mul,
)

MINIMAL = "minimal"
MEDIUM = "medium"
MAXIMAL = "maximal"

# each tier's window, as offsets from the base vertex
_TIER_OFFSETS = {MINIMAL: (0,), MEDIUM: (0, 1), MAXIMAL: (-1, 0, 1)}
# the tier whose window generates a tier's normalizer, on a cycle with n >= 5
_NORMALIZER_TIER = {MINIMAL: MAXIMAL, MEDIUM: MEDIUM, MAXIMAL: MAXIMAL}


@functools.cache
def window_of(n: int, tier: str, base: int) -> frozenset[int]:
    """The consecutive vertex window of a tier at a base vertex of C_n,
    built once per (n, tier, base)."""
    return frozenset((base + k) % n for k in _TIER_OFFSETS[tier])


@dataclass(frozen=True)
class CSubgroup:
    """A conjugate of a 1-, 2- or 3-vertex consecutive standard subgroup."""

    tier: str
    base: int
    conjugator: GroupElement
    # the defining vertex window, kept so membership tests need not rebuild it
    window: frozenset[int] = field(init=False, compare=False, repr=False)
    # computed once: the hash of the field tuple, (tier, base, conjugator)
    _hash: int = field(init=False, compare=False, repr=False)
    _inverse: Optional[GroupElement] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.tier not in _TIER_OFFSETS:
            raise ValidationError(f"unknown tier {self.tier!r}")
        n = self.conjugator.presentation.n
        base = self.base % n
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "window", window_of(n, self.tier, base))
        normalizer = window_of(n, _NORMALIZER_TIER[self.tier], base)
        canon = coset_rep(self.conjugator, normalizer)
        if canon is not self.conjugator:
            object.__setattr__(self, "conjugator", canon)
        # a GroupElement hashes as its word
        object.__setattr__(self, "_hash", hash((self.tier, base, canon.word)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def presentation(self) -> Presentation:
        return self.conjugator.presentation

    def key_string(self) -> str:
        return f"{self.tier}|{self.base}|{format_word(self.conjugator)}"

    @property
    def conjugator_inverse(self) -> GroupElement:
        """The conjugator's inverse, computed on first use."""
        if self._inverse is None:
            object.__setattr__(self, "_inverse", inv(self.conjugator))
        return self._inverse

    def conjugated(self, g: GroupElement) -> "CSubgroup":
        """The subgroup g * self * g^-1."""
        return CSubgroup(self.tier, self.base, mul(g, self.conjugator))

    def sort_key(self):
        return (len(self.window), self.base, self.conjugator)


def medium_of_vertex(v: ComplexVertex) -> CSubgroup:
    """The stabilizer encoding of an X-vertex: its coset rep conjugates the
    two-vertex subgroup at the vertex's index."""
    if v.cls != POLY:
        raise ValidationError("only polygonal X-vertices encode a medium subgroup")
    return CSubgroup(MEDIUM, v.index, v.rep)


def vertex_mediums(b: ComplexBall) -> list[CSubgroup]:
    """Each X-vertex's medium, by vertex id, encoded once per ball: the
    coset rep of g(G_i x G_{i+1}) conjugates <G_i, G_{i+1}>."""
    t = b.table
    return b.derive("mediums", lambda: [CSubgroup(MEDIUM, i, t.reps[k])
                                        for i, k in zip(t.vertices[::2], t.vertices[1::2])])


def containing_maximals(h: CSubgroup) -> list[CSubgroup]:
    """The exactly two maximal-tier subgroups containing a medium one."""
    if h.tier != MEDIUM:
        raise ValidationError("only medium subgroups have canonical maximals here")
    i = h.base
    return [CSubgroup(MAXIMAL, i, h.conjugator),
            CSubgroup(MAXIMAL, (i + 1) % h.presentation.n, h.conjugator)]


# -- the join decision ---------------------------------------------------------


def _splice_index(p: Presentation, word: tuple[Syllable, ...], v: int) -> int:
    """Where pushing a syllable of vertex v onto ``word`` inserts it, when the
    push merges nothing: before the leftmost syllable of greater vertex
    after the last one that blocks v, or at the end (see ``_push_all``)."""
    block = p.blocks[v]
    j = len(word)
    for k in range(len(word) - 1, -1, -1):
        u = word[k].vertex
        if u in block:
            break
        if u > v:
            j = k
    return j


def _edge_cosets(h: CSubgroup, label: int) -> list[GroupElement]:
    """Coset reps of the edges labelled ``label`` at the X-vertex encoded by a
    medium subgroup; ``label`` is one of its two defining vertices.  They are
    c·x for x in G_other: no window syllable strips off the right of the
    minimal conjugator c, and ``label`` commutes with ``other``.

    So no syllable of c at ``other`` commutes with everything after it (the
    strip would remove it), and pushing (other, x) onto c's word merges
    nothing: x is spliced in at an index that depends on c and ``other``
    alone (``_splice_index``), the rule by which ``enumerate_ball_elements``
    appends.  Each c·x is written out, not multiplied."""
    p = h.presentation
    other = (h.base + 1) % p.n if label == h.base else h.base
    c = h.conjugator
    k = _splice_index(p, c.word, other)
    head, tail = c.word[:k], c.word[k:]
    return [c] + [GroupElement(p, head + (Syllable(other, x),) + tail)
                  for x in p.group(other).nontrivial_elements()]


def shared_edge(h1: CSubgroup, h2: CSubgroup) -> Optional[tuple[int, GroupElement]]:
    """(label, edge coset rep) of an edge joining the two encoded vertices.

    An edge labelled i joins an X-vertex of base i - 1 to one of base i, so
    two vertices can share only the edge labelled by the larger of two
    cyclically adjacent bases.  For mediums c1<G_b x G_{b+1}> and
    c2<G_{b+1} x G_{b+2}> these edges have the minimal reps c1·x (x in G_b)
    and c2·y (y in G_{b+2}) (see ``_edge_cosets``), so one is shared iff
    d = c2^-1·c1 equals y·x^-1.  As b and b + 2 do not commute, the
    canonical word of d must then read [], [b+2], [b] or [b+2, b], and the
    edge is c2·y with y its (b+2)-syllable or the identity.  No vertex group
    is enumerated, and the normal form of d is unique (Green, *Graph
    products of groups*, 1990), so no two edges are ever shared.
    """
    n = h1.presentation.n
    if h2.base == (h1.base + 1) % n:
        lo, hi = h1, h2
    elif h1.base == (h2.base + 1) % n:
        lo, hi = h2, h1
    else:
        return None
    word = mul(hi.conjugator_inverse, lo.conjugator).word
    if word and word[-1].vertex == lo.base:
        word = word[:-1]  # x^-1
    if len(word) > 1 or (word and word[0].vertex != (hi.base + 1) % n):
        return None
    return hi.base, mul(hi.conjugator, GroupElement(h1.presentation, word))


def join_is_cmaximal(h1: CSubgroup,
                     h2: CSubgroup) -> tuple[bool, Optional[CSubgroup]]:
    """Decide whether the subgroup generated by two mediums is a maximal.

    Only a maximal containing both can be their join, and there is at most
    one: the two maximals containing a medium intersect in that medium.
    Inside it, ``M = G_i x (G_{i-1} * G_{i+1})`` up to conjugation, and the
    mediums are ``G_i`` times the vertex groups of the Bass-Serre tree of
    the free product ``G_{i-1} * G_{i+1}`` (Serre, *Trees*, 1980).  Two
    vertex groups of that tree generate the whole free product exactly when
    they are adjacent, i.e. when the encoded X-vertices share an edge r G_i
    (``shared_edge``).  The join is then r<G_{i-1}, G_i, G_{i+1}>, which holds
    both conjugators r·x^-1 and r·y^-1, so it needs no second check.
    """
    if h1.tier != MEDIUM or h2.tier != MEDIUM:
        raise ValidationError("the join rule applies to medium subgroups")
    shared = shared_edge(h1, h2)
    if shared is None:
        return False, None
    label, rep = shared
    return True, CSubgroup(MAXIMAL, label, rep)


# -- the abstract complex -----------------------------------------------------------


@dataclass
class ScriptXBall:
    presentation: Presentation
    nodes: list[CSubgroup] = field(default_factory=list)
    arcs: dict[frozenset, CSubgroup] = field(default_factory=dict)
    cycles: list[tuple[CSubgroup, ...]] = field(default_factory=list)


def _induced_n_cycles(g: Mapping[int, set[int]], n: int) -> list[tuple[int, ...]]:
    """All induced cycles of length exactly n, each in canonical rotation (its
    least node first, then its lesser neighbour), sorted, in an adjacency
    mapping over integer nodes (node -> neighbours)."""
    out = set()

    def extend(path: list):
        if len(path) == n:
            if path[0] in g[path[-1]]:
                out.add(tuple(path) if path[1] < path[-1] else (path[0], *reversed(path[1:])))
            return
        for w in sorted(g[path[-1]]):
            if w <= path[0] or w in path:
                continue
            # induced: w may touch only its predecessor among path vertices,
            # plus the start vertex when w closes the cycle
            closing = len(path) == n - 1
            if any(u in g[w] for u in path[:-1]
                   if not (closing and u == path[0])):
                continue
            extend(path + [w])

    for start in sorted(g):
        extend([start])
    return sorted(out)


def _winding_cycles(up: Mapping, starts: list, n: int) -> list[tuple]:
    """The closed walks of n steps along ``up`` arcs (base b to base b + 1)
    from each start, each as its n nodes from the start."""
    out = []
    for h in starts:
        paths = [(h,)]
        for _ in range(n - 1):
            paths = [path + (w,) for path in paths for w in up[path[-1]]]
        out.extend(path for path in paths if h in up[path[-1]])
    return out


def build_script_X_ball(b: ComplexBall) -> ScriptXBall:
    """Rebuild the ball's 1-skeleton (plus filled n-cycles) from subgroup data.

    The nodes are the ball's mediums, encoded once per ball
    (``vertex_mediums``) and shared with ``phi_iso_check`` and the join
    audits.  Arcs come from a hash join: each node's edge cosets, for both
    of its labels, are bucketed by ``(label, word of the edge coset rep)``.
    Each rep is the node's conjugator with one syllable spliced in
    (``_edge_cosets``), so no product is taken.  An edge has two ends, so a
    bucket holds at most two nodes.  A bucket of two is an arc, with no join
    taken: its nodes are the ends of the edge gG_i, of bases i - 1 and i,
    and two mediums join to a maximal exactly when they share an edge
    (``shared_edge``), the join being g<G_{i-1}, G_i, G_{i+1}>.

    Faces are the closed n-step walks from a base-0 node along arcs to the
    next base.  An arc labelled i joins bases i - 1 and i, so such a walk
    visits bases 0, ..., n-1 once each: it is an embedded cycle, and an
    induced one, since a chord would join bases that are not cyclically
    adjacent.  Conversely every induced n-cycle winds once around the base
    cycle.  Its base moves by ±1 at each of its n steps and by a multiple of
    n in all; for odd n that sum cannot be 0, so it is ±n.  For any n >= 5,
    X is a C(n)-T(4) complex (links have girth 4) whose polygons meet in at
    most one edge, and a reduced disc diagram with two or more faces has two
    faces with at most two interior edges each (Lyndon-Schupp,
    *Combinatorial Group Theory*, ch. V), so its boundary is at least
    2(n - 2) > n long.  An embedded n-cycle therefore bounds a single
    polygon, whose boundary visits bases 0, ..., n-1 in order.  A walk's
    base-0 node is its least in ``sort_key`` order (the nodes' order, by
    vertex id) and its next node has base 1, so each walk is already in
    ``_induced_n_cycles``' canonical rotation and direction, read over the
    nodes' places, and the cycles are sorted as that search sorts them.
    """
    p = b.presentation
    n = p.n
    sx = ScriptXBall(presentation=p)
    sx.nodes = list(vertex_mediums(b))
    if len(set(sx.nodes)) != len(sx.nodes):
        raise ValidationError("subgroup encodings collide: ball is inconsistent")

    ends: dict[tuple[int, tuple[Syllable, ...]], list[CSubgroup]] = {}
    for h in sx.nodes:
        for label in (h.base, (h.base + 1) % n):
            for rep in _edge_cosets(h, label):
                ends.setdefault((label, rep.word), []).append(h)
    up: dict[CSubgroup, set[CSubgroup]] = {h: set() for h in sx.nodes}
    for (label, word), bucket in ends.items():
        if len(bucket) > 2:
            raise InvariantError(
                f"edge {label}|{format_word(GroupElement(p, word))} has more than two ends",
                sorted(h.key_string() for h in bucket))
        if len(bucket) == 2:
            h1, h2 = bucket
            sx.arcs[frozenset(bucket)] = CSubgroup(MAXIMAL, label, GroupElement(p, word))
            if h1.base == label:
                h1, h2 = h2, h1
            up[h1].add(h2)

    starts = [h for h in sx.nodes if h.base == 0]
    sx.cycles = sorted(_winding_cycles(up, starts, n),
                       key=lambda c: [h.sort_key() for h in c])
    return sx


# -- isomorphism and cycle audits -----------------------------------------------------


def _interior_skeleton(b: ComplexBall) -> dict[int, set[int]]:
    """The 1-skeleton on the interior vertices, as id adjacency read off the
    table's edge ends."""
    t = b.table
    g = {x: set() for x in t.interior_vertices()}
    for u, w in zip(t.edges[2::4], t.edges[3::4]):
        if u in g and w in g:
            g[u].add(w)
            g[w].add(u)
    return g


def phi_iso_check(b: ComplexBall, seed: int = 0, samples: int = 50) -> Report:
    """The coset-to-conjugate map is an equivariant isomorphism on interior
    cells.  A collision, which the rebuild refuses, ends the check."""
    report = Report()
    t = b.table
    encode = vertex_mediums(b)
    preimages: dict[CSubgroup, list[int]] = {}
    for x, h in enumerate(encode):
        preimages.setdefault(h, []).append(x)
    collisions = sorted([t.vertex_key(x) for x in xs]
                        for xs in preimages.values() if len(xs) > 1)
    report.add("phi.injective-on-vertices", f"vertices={len(encode)}",
               not collisions, collisions[:10] or None)
    if collisions:
        return report

    sx = build_script_X_ball(b)
    report.add("phi.surjective-onto-nodes", f"nodes={len(sx.nodes)}",
               set(encode) == set(sx.nodes))

    # both edge sets on the interior vertices, as id pairs in key order (an
    # edge's ends already are); sorted, the pairs come in the order of
    # combinations(sorted(interior), 2)
    interior = set(t.interior_vertices())
    x_edges = {(u, w) for u, w in zip(t.edges[2::4], t.edges[3::4])
               if u in interior and w in interior}
    decode = {h: x for x, h in enumerate(encode)}
    arc_ends = (tuple(sorted(decode[h] for h in pair)) for pair in sx.arcs)
    sx_edges = {ends for ends in arc_ends if interior.issuperset(ends)}
    bad = [(t.vertex_key(u), t.vertex_key(w), (u, w) in x_edges, (u, w) in sx_edges)
           for u, w in sorted(x_edges ^ sx_edges)]
    k = len(interior)
    report.add("phi.edges-preserved-both-ways", f"interior-pairs={k * (k - 1) // 2}",
               not bad, bad[:10] or None)

    # interior polygons map onto induced-cycle faces
    n = b.presentation.n
    cycle_sets = {frozenset(c) for c in sx.cycles}
    bad_faces = []
    interior_polys = 0
    for k, g in enumerate(t.reps):
        corners = t.corners(k)
        if interior.issuperset(corners):
            interior_polys += 1
            if frozenset(map(encode.__getitem__, corners)) not in cycle_sets:
                bad_faces.append(format_word(g))
    report.add("phi.polygons-map-to-cycles", f"interior-polygons={interior_polys}",
               not bad_faces, bad_faces or None)

    rng = random.Random(seed)
    gens = b.elements(2)
    bad_eq = []
    for _ in range(samples):
        g = rng.choice(gens)
        x = rng.choice(range(len(encode)))   # the draw of a choice from the vertex list
        i, k = t.vertices[2 * x:2 * x + 2]
        lhs = medium_of_vertex(act_vertex(g, ComplexVertex(POLY, i, t.reps[k])))
        rhs = encode[x].conjugated(g)
        if lhs != rhs:
            bad_eq.append((format_word(g), t.vertex_key(x)))
    report.add("phi.equivariance-on-samples", f"samples={samples} seed={seed}",
               not bad_eq, bad_eq or None)
    return report


def induced_cycle_audit(b: ComplexBall) -> Report:
    """Every induced cycle of length n through interior vertices bounds a
    polygon, read as its table record's corner ids."""
    report = Report()
    t = b.table
    n = b.presentation.n
    cycles = _induced_n_cycles(_interior_skeleton(b), n)
    poly_boundaries = {frozenset(t.corners(k)) for k in range(len(t.reps))}
    bad = [c for c in cycles if frozenset(c) not in poly_boundaries]
    report.add("cycles.induced-n-cycles-bound-polygons",
               f"radius={b.radius} cycles={len(cycles)}",
               not bad,
               [[t.vertex_key(x) for x in c] for c in bad] or None)
    return report


def join_agreement_audit(b: ComplexBall) -> Report:
    """Join verdicts (exact, never undecided) match interior adjacency."""
    report = Report()
    t = b.table
    skel = _interior_skeleton(b)
    encode = vertex_mediums(b)
    bad = []
    pairs = 0
    for u, w in itertools.combinations(sorted(skel), 2):
        pairs += 1
        ok, _ = join_is_cmaximal(encode[u], encode[w])
        if ok != (w in skel[u]):
            bad.append((t.vertex_key(u), t.vertex_key(w), ok))
    report.add("joins.agree-with-adjacency", f"pairs={pairs}",
               not bad, bad or None)
    return report
