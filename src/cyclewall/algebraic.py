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
n-cycles, found as the walks that wind once around the base cycle.  Two
mediums join to a maximal exactly when the vertices they encode share an
edge, and one rule decides that, read off the conjugators' last syllables
as ``davis.ball_table`` reads the ball (``words.maximal_syllables``): an
edge's two ends are its rep less its maximal syllable of one or the other
vertex next to its label (``shared_edge``).  The join reads the rule on a
pair, and the rebuild finds each arc by looking a node's word, or that word
less one maximal syllable, up among the nodes; neither takes a product, so
the join never enumerates a vertex group and never comes out undecided.
The tests' oracle decides arcs from products of edge cosets, and
``join_agreement_audit`` tests the join against the ball's adjacency.  The
rebuild is kept in the ball's integers (``ScriptXBall``): a node is named
by its vertex id, an arc is its two ids with its (label, edge coset word),
a face is its nodes' ids, and no maximal is made.  A ball's mediums are
encoded once, by vertex id (``vertex_mediums``), and read by the rebuild,
``phi_iso_check`` and the join audits, here and in ``walls``.  The audits
read the ball's table (``davis.BallTable``) by id: the interior skeleton is
id adjacency from the edges' end ids, polygons are their corner records,
and witnesses are key strings.

The map (coset gH) -> (subgroup gHg^-1) is verified to be an equivariant
isomorphism on interior cells.  On edges that is one comparison of two sets
of vertex id pairs: the ball's edges between interior vertices, and the
rebuild's arc keys between them; on polygons, of corner id sets with the
faces' id sets.  Equivariance is sampled on X-vertices read one at a time
from the table as (index, rep) pairs and moved by ``davis.act_vertex``;
both sides read the same record, so the sample tests the action alone.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Mapping, Optional

from .davis import ComplexBall, act_vertex
from .errors import InvariantError, ValidationError
from .localgroups import Frozen, set_field
from .reports import Report
from .words import (
    GroupElement,
    Presentation,
    Syllable,
    coset_rep,
    format_word,
    maximal_syllables,
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


class CSubgroup(Frozen):
    """A conjugate of a 1-, 2- or 3-vertex consecutive standard subgroup.

    Subgroups are equal when ``(tier, base, conjugator)`` are, and hash as
    that tuple; the base is taken mod n and the conjugator is kept minimal
    modulo the window of the tier's normalizer.  ``window`` is the defining
    vertex window, kept so membership tests need not rebuild it.
    """

    __slots__ = ("tier", "base", "conjugator", "window", "_hash")

    def __init__(self, tier: str, base: int, conjugator: GroupElement):
        if tier not in _TIER_OFFSETS:
            raise ValidationError(f"unknown tier {tier!r}")
        n = conjugator.presentation.n
        base %= n
        canon = coset_rep(conjugator, window_of(n, _NORMALIZER_TIER[tier], base))
        set_field(self, "tier", tier)
        set_field(self, "base", base)
        set_field(self, "conjugator", canon)
        set_field(self, "window", window_of(n, tier, base))
        # computed once; a GroupElement hashes as its word
        set_field(self, "_hash", hash((tier, base, canon.word)))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.tier, self.base, self.conjugator) == (other.tier, other.base, other.conjugator)

    def __hash__(self) -> int:
        return self._hash

    @property
    def presentation(self) -> Presentation:
        return self.conjugator.presentation

    def key_string(self) -> str:
        return f"{self.tier}|{self.base}|{format_word(self.conjugator)}"

    def conjugated(self, g: GroupElement) -> "CSubgroup":
        """The subgroup g * self * g^-1."""
        return CSubgroup(self.tier, self.base, mul(g, self.conjugator))


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


def _far_ends(p: Presentation, word: tuple[Syllable, ...],
              v: int) -> list[tuple[Syllable, ...]]:
    """The words the far end of the edge with rep ``word`` may have, where
    v is the far end's window vertex off the edge's label: ``word``, and
    ``word`` less its maximal v-syllable if it has one (``shared_edge``)."""
    return [word, *(word[:j] + word[j + 1:] for u, j in maximal_syllables(p, word) if u == v)]


def shared_edge(h1: CSubgroup, h2: CSubgroup) -> Optional[tuple[int, GroupElement]]:
    """(label, edge coset rep) of an edge joining the two encoded vertices.

    An edge labelled i joins an X-vertex of base i - 1 to one of base i, so
    two vertices can share only the edge labelled by the larger of two
    cyclically adjacent bases.  Take mediums c1<G_a x G_{a+1}> and
    c2<G_{a+1} x G_{a+2}>, with conjugators minimal modulo their windows,
    and an edge eG_{a+1}, e minimal modulo G_{a+1}.  Its end of base a is
    ``coset_rep(e, {a, a+1})``: e less its maximal a-syllable, as e has no
    maximal (a+1)-syllable and a commutes with a + 1.  Likewise its end of
    base a + 1 is e less its maximal (a+2)-syllable.  Maximal syllables
    commute pairwise, and for n >= 5 a and a + 2 do not, so e has at most
    one of the two.  So the vertices share the edge iff c1 = c2, or c2 is
    c1 plus a maximal a-syllable, or c1 is c2 plus a maximal
    (a+2)-syllable, and its rep is the longer word.  Deleting a maximal
    syllable from a canonical word leaves a canonical word (``coset_rep``),
    so each case compares words, with no product taken and no vertex group
    enumerated; the normal form is unique (Green, *Graph products of
    groups*, 1990), so no two edges are ever shared.
    """
    p = h1.presentation
    n = p.n
    if h2.base == (h1.base + 1) % n:
        lo, hi = h1, h2
    elif h1.base == (h2.base + 1) % n:
        lo, hi = h2, h1
    else:
        return None
    c1, c2 = lo.conjugator, hi.conjugator
    d = len(c1.word) - len(c2.word)   # the rep is the longer word
    if d in (0, 1) and c2.word in _far_ends(p, c1.word, (hi.base + 1) % n):
        return hi.base, c1
    if d == -1 and c1.word in _far_ends(p, c2.word, lo.base):
        return hi.base, c2
    return None


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


class ScriptXBall:
    """The rebuilt complex on the ball's vertex ids: ``nodes[x]`` is the
    medium of X-vertex x, ``arcs`` maps an id pair u < w to the arc's
    (label, edge coset word), and each cycle is its nodes' ids."""

    def __init__(self, presentation: Presentation, nodes: list[CSubgroup]):
        self.presentation = presentation
        self.nodes = nodes
        self.arcs: dict[tuple[int, int], tuple[int, tuple[Syllable, ...]]] = {}
        self.cycles: list[tuple[int, ...]] = []


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


def _winding_cycles(up: list[list[int]], starts: list[int], n: int) -> list[tuple[int, ...]]:
    """The closed walks of n steps along ``up`` arcs (base b to base b + 1,
    by node id) from each start, each as its n node ids from the start."""
    out = []
    for h in starts:
        paths = [(h,)]
        for _ in range(n - 1):
            paths = [path + (w,) for path in paths for w in up[path[-1]]]
        out.extend(path for path in paths if h in up[path[-1]])
    return out


def build_script_X_ball(b: ComplexBall) -> ScriptXBall:
    """Rebuild the ball's 1-skeleton (plus filled n-cycles) from subgroup
    data, on the ball's vertex ids.

    The nodes are the ball's mediums by vertex id, encoded once per ball
    (``vertex_mediums``) and shared with ``phi_iso_check`` and the join
    audits.  Arcs are read off the conjugators' last syllables by the rule
    ``shared_edge`` proves, through one dict from each node's (base, word)
    to its id, and the table's edge records are never read.  A node
    c<G_i x G_{i+1}> is an end of the edges labelled i and i + 1 with rep
    c.  The far end of the first has base i - 1 and the word c or c less
    its maximal (i-1)-syllable; that of the second has base i + 1 and the
    word c or c less its maximal (i+2)-syllable (``_far_ends``).  c has at
    most one of those two syllables, so at most three keys are looked up
    per node, and no product is taken.  An edge has two ends, so at most
    one word of each far end is a node's; two would be a third end, which
    is refused.  The refusal is a guard that cannot fire on a ball from
    ``ball_table``: the two words differ only when c ends in a maximal
    (i-1)- or (i+2)-syllable, a syllable of the far end's window, and then
    c is no far end's conjugator, as ``CSubgroup`` strips exactly such a
    syllable off its conjugator with ``coset_rep``; only a wrong
    ``maximal_syllables`` reaches it.  An arc is keyed by its two ids and
    valued by its label and rep, the longer word, with no join taken: two
    mediums join to a maximal exactly when they share an edge, the join
    being g<G_{i-1}, G_i, G_{i+1}>, that is
    ``CSubgroup(MAXIMAL, label, GroupElement(p, word))``.

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
    polygon, whose boundary visits bases 0, ..., n-1 in order.

    Vertex ids order the nodes as their encodings order, by (tier, base,
    conjugator) with conjugators by (length, word): the table lists the
    vertex g(G_i x G_{i+1}) in (i, rep) order, reps by (length, word), and
    the rep is minimal modulo the window, so it is the medium's conjugator.
    So a walk's base-0 node is its least id and its next node has base 1:
    each walk is already in ``_induced_n_cycles``' canonical rotation and
    direction, and the cycles are sorted as that search sorts them.
    """
    p = b.presentation
    n = p.n
    sx = ScriptXBall(presentation=p, nodes=list(vertex_mediums(b)))
    place = {(h.base, h.conjugator.word): x for x, h in enumerate(sx.nodes)}
    if len(place) != len(sx.nodes):
        raise ValidationError("subgroup encodings collide: ball is inconsistent")

    for x, h in enumerate(sx.nodes):
        i, word = h.base, h.conjugator.word
        # (label, the far end's base, its window vertex off the label)
        for label, far, v in ((i, (i - 1) % n, (i - 1) % n),
                              ((i + 1) % n, (i + 1) % n, (i + 2) % n)):
            ends = [place[far, w] for w in _far_ends(p, word, v) if (far, w) in place]
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

    starts = [x for x, h in enumerate(sx.nodes) if h.base == 0]
    sx.cycles = sorted(_winding_cycles(up, starts, n))
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
    # edge's ends and an arc's key already are); sorted, the pairs come in
    # the order of combinations(sorted(interior), 2)
    interior = set(t.interior_vertices())
    x_edges = {(u, w) for u, w in zip(t.edges[2::4], t.edges[3::4])
               if u in interior and w in interior}
    sx_edges = {(u, w) for u, w in sx.arcs if u in interior and w in interior}
    bad = [(t.vertex_key(u), t.vertex_key(w), (u, w) in x_edges, (u, w) in sx_edges)
           for u, w in sorted(x_edges ^ sx_edges)]
    k = len(interior)
    report.add("phi.edges-preserved-both-ways", f"interior-pairs={k * (k - 1) // 2}",
               not bad, bad[:10] or None)

    # interior polygons map onto induced-cycle faces, both as id sets
    cycle_sets = {frozenset(c) for c in sx.cycles}
    bad_faces = []
    interior_polys = 0
    for k, g in enumerate(t.reps):
        corners = t.corners(k)
        if interior.issuperset(corners):
            interior_polys += 1
            if frozenset(corners) not in cycle_sets:
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
        lhs = CSubgroup(MEDIUM, *act_vertex(g, (i, t.reps[k])))
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
