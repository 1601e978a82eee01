"""Tree-walls of the polygonal complex, their crossing graph, and
truncated stabilizer audits.

A tree-wall is a maximal connected subgraph of the 1-skeleton all of whose
edges carry the same label.  The wall with label i through the edge uG_i is
the set of label-i edges in the coset u<G_{i-1}, G_i, G_{i+1}>, so a ball's
walls are read off its edges: bucket them by (label, key), the key being
that coset's minimal representative, and keep the buckets holding an
interior edge.  A wall is the ball's edges with one key, also where the ball
cuts it into pieces.  All of it is read off the ball's table
(``davis.BallTable``), by integer ids: each edge's key is a rep number the
table lists, O(1) per edge; the buckets are keyed by (label, key number)
and sorted as integer pairs, O(E) and O(W log W) for E edges and W walls,
which is the keys' order, as rep numbers come in (len, word) order; and a
``TreeWall`` holds its edges' ids and reads its vertices and reps off the
table.  A wall is named by its index in ``walls_of_ball``, whose order is
the keys' order, in the crossing graph and every audit.  Audits name
vertices and edges by their key strings (``BallTable.vertex_key`` and
``BallTable.edge_key``), and walls by ``TreeWall.key_string``.

Stabilizer audits compare the geometric action on in-ball edges against
membership in ``algebraic.CSubgroup``, the package's one encoding of a
conjugated standard subgroup.  The wall's key is the conjugator of its
stabilizer ``CSubgroup(MAXIMAL, i, u)``; its fixator ``CSubgroup(MINIMAL, i,
u)`` is the same through every edge, as the maximal window normalizes G_i;
an X-vertex's stabilizer is its medium.

Truncation semantics: "g stabilizes T in the ball" means g maps every edge
of T whose image is still inside the ball into T, and at least one image is
observable.  Pair stabilizers are classified against the crossing-graph
distance; distances at the ball's horizon are reported as lower bounds.

Generation and vertex membership are decided exactly: two wall vertices
generate the wall stabilizer when their mediums join to the wall's maximal
(``algebraic.join_is_cmaximal``: the two conjugators share an edge by the
rule read off their last syllables, with no product taken), and a vertex's
stabilizer stabilizes the wall when the wall's maximal contains the
vertex's medium (``algebraic.containing_maximals``).  The membership audit
reads that from two indexes, the walls by stabilizer and the walls through
each vertex, in O(V + W): only the walls with one of a vertex's two
maximals and the walls through it can disagree.

Cost: each X-vertex lies on at most two walls, so the crossing graph buckets
walls by their edges' end vertex ids in O(E) rather than comparing every
pair of walls: each arc holds the ids of the vertices its walls share.
The crossing graph is lists by wall index (``CrossingGraph.neighbors``
holds a set of indices per wall), and one level-by-level breadth-first
search over a neighbour function (``_bfs_levels``) serves crossing-graph
distances (one search per source wall, kept on the graph), wall
connectivity and minimal sets; the last runs over the vertex ids of X'
(``davis.Subdivision``), each vertex's neighbours one slice of a CSR
skeleton built once per ball from X''s edge list (``_skeleton``), and
stops at the first level that reaches the other wall.  No element ball is
scanned: a wall's truncated stabilizer is read off its key u, as the short
u·x·f·u^-1 with x in G_i and f in the L-ball of G_{i-1} * G_{i+1} such
that f·a = a' for two of its edges (i, u·a), (i, u·a'), each of which
stabilizes it, and a truncated ``w<G_S>w^-1`` is found by conjugating the
short elements of <G_S>; both read the window balls through one helper,
and both size each conjugate by Green's length formula
|w·h·w^-1| = |h| + 2·|coset_rep(w, C(supp(h)))| before multiplying it,
so no conjugate longer than L is multiplied out (``_fitting``).  The
geometric test ``_stabilizes_wall`` only tells which elements of a
parabolic move no wall edge into the ball; the edge (i, m), m minimal
modulo G_i, is in the ball iff |m| <= r, the interior rule of ``davis``
one rank down, so no set of the ball's edges is kept.  The walls, the
subdivision X' and its skeleton, the window balls, each truncated
parabolic subgroup and the per-wall truncated stabilizers are built once
per ball, on first use, and kept on the ball
(``ComplexBall.derived``); they live and die with it.  A wall's fixator is
read off its stabilizer.  No audit here reads the ball's incidence maps:
the shared-polygon audit files each polygon's sides under the walls that
hold them, in one pass over the polygons.

The hyperplanes of X' are classes of its edge ids: the two opposite sides
of each square are joined in a ``UnionFind``, in one pass over the squares'
side columns, by their places in the record.  The records are checked once
per ball (``davis.square_faults``, which the davis link audits read too);
with them sound, square (m_i, v, m_{i+1}, c; half_i, half_{i+1}, spoke_i,
spoke_{i+1}) crosses two classes, {half_i (m_i, v), spoke_{i+1} (m_{i+1},
c)} and {half_{i+1} (v, m_{i+1}), spoke_i (c, m_i)}; in each, the
parallel half lies at the X-vertex corner v and the parallel spoke at the
center c.  Two squares of one class are joined by a chain of squares, each
sharing a dual edge with the next: a dual half shares its X-vertex, a dual
spoke its center.  So every class has one side of halves only (its
X-vertex side) and one of spokes only (its center side).  A midpoint lies
on a class's center side exactly when one of its two halves is in the
class (the dual half of a square joins its center-side midpoint to v), so
a second pass over the squares, with each edge's class root found once,
files each class's parallel halves' labels and checks that neither half of
the midpoint on its X-vertex side is in it, with no per-class side map; the
class's tree-wall side is its halves' side exactly when their labels are
one label.  A broken square record fails the audit's ``classes`` row with
the scan's witness; any other structure the audit relies on that turns out
broken (a square whose two classes are one, a midpoint on both sides of a
class) is reported as a failed check with a witness.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .algebraic import (
    MAXIMAL,
    MINIMAL,
    CSubgroup,
    containing_maximals,
    join_is_cmaximal,
    vertex_mediums,
)
from .davis import BallTable, ComplexBall, incidence, square_faults, subdivision
from .errors import ValidationError
from .reports import Report
from .words import (
    GroupElement,
    coset_rep,
    enumerate_ball_elements,
    format_word,
    from_syllable,
    identity,
    inv,
    mul,
    parabolic_member,
)

MIN_SET_PAIRS = 40   # wall pairs, in key order, whose minimal sets are audited


class TreeWall:
    """A tree-wall of a ball: its label, its key and its edges' ids in the
    ball's table (``davis.BallTable``), listed in the edges' key order, so
    the first is its seed.  Its vertex ids and its edges' reps are read off
    the table."""

    def __init__(self, table: BallTable, label: int, key_rep: GroupElement, ids: array):
        self.table, self.label, self.key_rep, self.ids = table, label, key_rep, ids
        self._reps: Optional[frozenset[GroupElement]] = None

    @property
    def seed(self) -> int:
        """The id of the wall's first edge in key order."""
        return self.ids[0]

    @property
    def vertex_set(self) -> set[int]:
        """The ids of the ends of the wall's edges."""
        e = self.table.edges
        return {*(e[4 * k + 2] for k in self.ids), *(e[4 * k + 3] for k in self.ids)}

    @property
    def edge_reps(self) -> frozenset[GroupElement]:
        """The coset reps of the edges, read once: an edge of the wall is
        the pair (label, rep), so the reps alone identify the edges."""
        if self._reps is None:
            t = self.table
            self._reps = frozenset(t.reps[t.edges[4 * k + 1]] for k in self.ids)
        return self._reps

    def key_string(self) -> str:
        return f"T{self.label}@{format_word(self.key_rep) or 'e'}"

    @property
    def stabilizer(self) -> CSubgroup:
        """The wall's stabilizer, a conjugate of <G_{i-1}, G_i, G_{i+1}>."""
        return CSubgroup(MAXIMAL, self.label, self.key_rep)

    @property
    def fixator(self) -> CSubgroup:
        """The wall's fixator, a conjugate of G_i."""
        return CSubgroup(MINIMAL, self.label, self.key_rep)


def walls_of_ball(b: ComplexBall) -> list[TreeWall]:
    """All tree-walls through interior edges, in key order; each is every
    edge of the ball with its key.  Built once per ball."""
    return list(b.derive("walls", lambda: _walls(b.table)))


def _walls(t: BallTable) -> list[TreeWall]:
    """The table's edges bucketed by (label, wall key number), in O(E), and
    the W buckets sorted as integer pairs, in O(W log W): rep numbers come in
    (len, word) order, the order of the keys.  A bucket is kept when it has
    an interior edge, one with |rep| + 1 <= r."""
    labels, reps, keys, count = t.edges[0::4], t.edges[1::4], t.wall_keys, len(t.reps)
    inner = t.inner(1)
    by_key: dict[int, list[int]] = {}
    for e in t.edge_order:   # in key order, so each wall's first edge is its seed
        by_key.setdefault(labels[e] * count + keys[e], []).append(e)
    return [TreeWall(t, code // count, t.reps[code % count], array("i", es))
            for code, es in sorted(by_key.items())
            if any(inner[reps[e]] for e in es)]


# -- crossing graph -------------------------------------------------------------


class CrossingGraph:
    """The crossing graph of a ball: its walls, and arcs between walls sharing
    a vertex.  A wall is named by its index in ``walls``."""

    def __init__(self, walls: list[TreeWall], crossings: dict[tuple[int, int], list[int]],
                 neighbors: list[set[int]]):
        self.walls = walls   # ``walls_of_ball``, in key order
        # (k1, k2) with k1 < k2 -> the ids of their shared vertices, in key
        # order, in index-pair order
        self.crossings = crossings
        self.neighbors = neighbors   # by index: the walls it crosses
        # index -> the distance of each wall it reaches, from one search made
        # on first use (``delta``)
        self.distances: dict[int, dict[int, int]] = {}

    def number_of_nodes(self) -> int:
        return len(self.walls)

    def number_of_edges(self) -> int:
        return len(self.crossings)


def _walls_at(walls: list[TreeWall]) -> dict[int, list[int]]:
    """Vertex id -> the indices of the walls through it, in index order."""
    at: dict[int, list[int]] = {}
    for k, T in enumerate(walls):
        for x in T.vertex_set:
            at.setdefault(x, []).append(k)
    return at


def crossing_graph(b: ComplexBall) -> CrossingGraph:
    """Nodes are the ball's tree-walls; arcs join walls sharing a vertex.

    Walls are bucketed by the ids of their edges' end vertices: the X-vertex
    g(G_i x G_{i+1}) lies on at most two walls, of labels i and i+1, so this
    costs O(E) instead of a comparison of every pair of walls.  Each arc
    holds its shared vertices' ids, so no cell object is made.
    """
    walls = walls_of_ball(b)
    common: dict[tuple[int, int], list[int]] = {}
    for x, ks in _walls_at(walls).items():
        for pair in itertools.combinations(ks, 2):
            common.setdefault(pair, []).append(x)
    cg = CrossingGraph(walls, {}, [set() for _ in walls])
    for k1, k2 in sorted(common):   # the order of a pairwise scan of the walls
        cg.crossings[k1, k2] = sorted(common[k1, k2])   # vertex ids come in key order
        cg.neighbors[k1].add(k2)
        cg.neighbors[k2].add(k1)
    return cg


def _bfs_levels(neighbors: Callable[[Hashable], Iterable[Hashable]],
                sources: Iterable[Hashable]) -> Iterator[set]:
    """The node sets at distance 0, 1, 2, ... from the sources."""
    seen = set(sources)
    level = set(seen)
    while level:
        yield level
        level = {w for u in level for w in neighbors(u) if w not in seen}
        seen |= level


def delta(cg: CrossingGraph, k1: int, k2: int) -> tuple[float, bool]:
    """(distance, exact?) between the walls of indices k1 and k2 in the
    crossing graph.

    Unreachable pairs get (inf, False): within the ball only a lower bound on
    the true distance is observable.  The distances from k1 come from one
    breadth-first search, kept on the graph.
    """
    if k1 == k2:
        return 0, True
    if k1 not in cg.distances:
        cg.distances[k1] = {k: d for d, level in enumerate(
            _bfs_levels(cg.neighbors.__getitem__, [k1])) for k in level}
    d = cg.distances[k1].get(k2)
    if d is None:
        return float("inf"), False
    # crossings outside the ball can only shorten paths, so d >= 2 is a bound
    return d, d <= 1


# -- truncated stabilizers --------------------------------------------------------


def _stabilizes_wall(b: ComplexBall, g: GroupElement, T: TreeWall) -> Optional[bool]:
    """Guarded geometric test; None when no image of a wall edge is observable.

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


def _window_ball(b: ComplexBall, window: frozenset[int], L: int) -> dict[frozenset, list]:
    """The elements of <G_window> of syllable length <= L by support, each
    bucket a list in (len, word) order, enumerated once per ball and
    window."""
    def build() -> dict[frozenset, list]:
        by_support: dict[frozenset[int], list[GroupElement]] = {}
        for h in enumerate_ball_elements(b.presentation, L, window):
            by_support.setdefault(h.support(), []).append(h)
        return by_support
    return b.derive(("window-ball", window, L), build)


def _fitting(b: ComplexBall, w: GroupElement, window: frozenset, L: int) -> Iterator[GroupElement]:
    """The h in the L-ball of <G_window> with |w·h·w^-1| <= L, for w
    minimal modulo <G_window>, with no product taken.

    Green's normal form (*Graph products of groups*, 1990) gives
    |w·h·w^-1| = |h| + 2·|w'|, w' = coset_rep(w, C(supp(h))), C(sigma)
    being the vertices that commute with every vertex of sigma.  Proof:
    w = w'·t with t in <G_C(sigma)>, so t commutes with h and
    w·h·w^-1 = w'·h·w'^-1.  No last syllable of w' has its vertex in
    C(sigma), as coset_rep strips them; nor in sigma, as such a syllable
    commutes with t, so it would end w, and sigma lies in the window.  A
    last syllable of w'·h is one of h (vertex in sigma) or one of w' that
    commutes with h (vertex in C(sigma)), so none merges with a first
    syllable of w'^-1: w'·h·w'^-1 is reduced.  So |w'| is read once per
    support, at most 2^3 times, and each bucket of the window ball is cut
    at length L - 2|w'|.

    More than one syllable of w can commute with h, so |w·h·w^-1| >=
    2|w| - 1 is false: the wall T0@v0:1 v2:1 of c5_z2 keeps v1:1, as
    C({1}) = {0, 2} and w' is the identity.
    """
    p = w.presentation
    for sigma, hs in _window_ball(b, window, L).items():
        commuting = set(range(p.n)).difference(*map(p.blocks.__getitem__, sigma))
        room = L - 2 * coset_rep(w, commuting).syllable_length
        yield from itertools.takewhile(lambda h: h.syllable_length <= room, hs)


def _parabolic_ball(b: ComplexBall, H: CSubgroup, L: int) -> frozenset[GroupElement]:
    """The elements of ``H = w<G_S>w^-1`` of syllable length <= L, computed
    once per ball.

    Enumerated as w·h·w^-1 over the h in <G_S> with |h| <= L, which misses
    none, as |w·h·w^-1| >= |h|: w is minimal modulo <G_S> (``CSubgroup``
    keeps it minimal modulo a window that contains S), so
    |w·h·w^-1| = |h| + 2·|coset_rep(w, C(supp(h)))|, C(sigma) the vertices
    commuting with all of sigma (``_fitting`` proves it).  An h whose
    conjugate that formula makes longer than L is skipped before it is
    multiplied; |w·h·w^-1| >= 2|w| - 1 is no bound (``_fitting`` has the
    counterexample).  Each element kept still passes the length filter and
    ``parabolic_member``, so the audits test that membership rule.
    """
    def build() -> frozenset[GroupElement]:
        w = H.conjugator
        w_inv = inv(w)
        conjugates = (mul(w, h, w_inv) for h in _fitting(b, w, H.window, L))
        return frozenset(g for g in conjugates
                         if g.syllable_length <= L and parabolic_member(g, H))
    return b.derive(("parabolic", H, L), build)


def wall_fixator_truncated(b: ComplexBall, T: TreeWall, L: int) -> frozenset[GroupElement]:
    """Elements of length <= L fixing every edge of T, computed geometrically.

    An element fixing every edge maps each into the wall, observably, so the
    fixator is read off the truncated stabilizer.

    Testing the edges one at a time costs each element outside the fixator
    one edge.  An element u·x·f·u^-1 of the stabilizer (x in G_i, f in
    F = G_{i-1} * G_{i+1}; ``_wall_stabilizer``) fixes the edge (i, u·a),
    a in F, iff a^-1·x·f·a is in G_i.  As x commutes with a, that is
    x·(a^-1·f·a), which lies in G_i iff a^-1·f·a does; G_i meets F only in
    1, so that is iff f = 1, whatever a is.  So an element that moves one
    edge of the wall moves every edge, and ``all`` stops at its first; only
    the kept elements are tested on every edge, which the audit needs to
    fail on a wrong edge set.
    """
    window = (T.label,)
    return frozenset(g for g in wall_stabilizer_truncated(b, T, L)
                     if all(coset_rep(mul(g, rep), window) == rep for rep in T.edge_reps))


def wall_stabilizer_truncated(b: ComplexBall, T: TreeWall, L: int) -> frozenset[GroupElement]:
    """Elements of length <= L mapping observable wall edges into the wall:
    the short u·x·f·u^-1, u the wall's key, x in G_i and f in
    G_{i-1} * G_{i+1} with f·a = a' for two of the wall's edges (i, u·a),
    (i, u·a') (``_wall_stabilizer``).

    Computed once per ball, wall and L, and returned as the kept frozenset.
    The wall is keyed by its edge ids, not its key alone: a wall made of
    some of its edges is only part of the ball's wall with that key.
    """
    return b.derive(("stabilizer", T.ids.tobytes(), L), lambda: _wall_stabilizer(b, T, L))


def _wall_stabilizer(b: ComplexBall, T: TreeWall, L: int) -> frozenset[GroupElement]:
    """The elements of length <= L that ``_stabilizes_wall`` accepts, read
    off the wall's key u: the u·x·f·u^-1 of length <= L with x in G_i and f
    in the L-ball of F = G_{i-1} * G_{i+1} such that f·R meets R, where R
    is the set of u^-1·r over the wall's edges (i, r).

    Let S = {i-1, i, i+1}, so <G_S> = G_i x F.  An edge rep r of the wall
    lies in u<G_S>, and u·h is reduced for every h in <G_S> as u is the
    minimal rep of that coset; r is minimal modulo G_i, which commutes with
    F, so h = u^-1·r has no G_i syllable and lies in F.  An accepted g maps
    some edge (i, r) of T onto some (i, r'), so it is a transporter
    r'·x·r^-1 with x in G_i, and with a = u^-1·r, a' = u^-1·r':
    r'·x·r^-1 = u·a'·x·a^-1·u^-1 = u·x·(a'·a^-1)·u^-1, where f = a'·a^-1
    has f·a = a' in R.  Conversely such a g lies in u<G_S>u^-1, so it maps
    the wall's edges to edges with its key, on T when in the ball, and
    (i, r) onto (i, r'); the guard would accept each one, so it is not run.
    Lengths are known before any product is taken: u is minimal modulo
    <G_S>, so |u·h·u^-1| = |h| + 2·|coset_rep(u, C(supp(h)))|, C(sigma) the
    vertices commuting with all of sigma (``_fitting`` proves it).  For
    x = 1 that is |f| + 2·|coset_rep(u, C(supp(f)))|; as |x·f| >= |f| and
    adding i to the support only shrinks C, it bounds every x from below, so
    an f it makes longer than L is not probed.  For x != 1, C(supp(f) + {i})
    lies in C({i}) = {i-1, i+1}, which no syllable of u ends, so the
    conjugate has length |f| + 1 + 2|u|.  |u·h·u^-1| >= 2|u| - 1 is no
    bound: more than one syllable of u can commute with h (the wall
    T0@v0:1 v2:1 of c5_z2 keeps v1:1).  And |a'·a^-1| <= |a'| + |a|, so no
    f longer than twice R's longest word is probed.  R is probed shortest
    word first.
    """
    p = b.presentation
    i, u = T.label, T.key_rep
    u_inv, far = inv(u), L - 1 - 2 * u.syllable_length   # x != 1 fits when |f| <= far
    R = sorted((mul(u_inv, r) for r in T.edge_reps), key=lambda a: a.syllable_length)
    members = frozenset(R)
    longest = 2 * R[-1].syllable_length
    F_L = _fitting(b, u, frozenset({(i - 1) % p.n, (i + 1) % p.n}), L)
    local = [identity(p)] + [from_syllable(p, i, x) for x in p.group(i).nontrivial_elements()]
    conjugates = (mul(u, x, f, u_inv) for f in F_L if f.syllable_length <= longest
                  and any(mul(f, a) in members for a in R)
                  for x in (local if f.syllable_length <= far else local[:1]))
    return frozenset(g for g in conjugates if g.syllable_length <= L)


def wall_stabilizer_audit(b: ComplexBall, L: int) -> Report:
    """Geometric truncated wall stabilizers match the conjugated 3-vertex parabolic.

    An element of the parabolic that moves no wall edge into the ball lies
    beyond the horizon: the ball cannot show that it stabilizes the wall.
    A row whose only disagreements are such elements is inconclusive.
    """
    report = Report()
    check = "walls.stabilizer-is-three-vertex-parabolic"
    for T in walls_of_ball(b):
        algebraic = _parabolic_ball(b, T.stabilizer, L)
        geometric = wall_stabilizer_truncated(b, T, L)
        inst = f"{T.key_string()} L={L}"
        geometric_only = geometric - algebraic
        algebraic_only = algebraic - geometric
        unobservable = {g for g in algebraic_only
                        if _stabilizes_wall(b, g, T) is None}
        if geometric_only or algebraic_only != unobservable:
            report.add(check, inst, False, {
                "geometric_only": sorted(format_word(g) for g in geometric_only),
                "algebraic_only": sorted(format_word(g) for g in algebraic_only),
            })
        elif unobservable:
            report.add_inconclusive(check, inst, {
                "note": "moves no wall edge into the ball",
                "unobservable": sorted(format_word(g) for g in unobservable)})
        else:
            report.add(check, inst, True)
    return report


def wall_fixator_audit(b: ComplexBall, L: int) -> Report:
    """Geometric wall fixators equal the stabilizer of a single member edge."""
    report = Report()
    p = b.presentation
    t = b.table
    for T in walls_of_ball(b):
        fix = wall_fixator_truncated(b, T, L)
        edge_stab = _parabolic_ball(b, T.fixator, L)
        if fix != edge_stab:
            report.add("walls.fixator-is-edge-stabilizer",
                       f"{T.key_string()} L={L}", False, {
                           "geometric_only": sorted(
                               format_word(g) for g in fix - edge_stab),
                           "edge_stabilizer_only": sorted(
                               format_word(g) for g in edge_stab - fix)})
            continue
        # the fixator is a conjugate of G_label, so never bigger than it
        ok = len(fix) <= p.group(T.label).size
        if t.reps[t.edges[4 * T.seed + 1]].is_identity and L >= 1:
            # central wall: the conjugate is G_label itself and fits in the ball
            ok = ok and len(fix) == p.group(T.label).size
        report.add("walls.fixator-is-edge-stabilizer",
                   f"{T.key_string()} L={L}", ok,
                   None if ok else sorted(format_word(g) for g in fix))
    return report


def classify_pair(b: ComplexBall, cg: CrossingGraph, k1: int, k2: int, L: int) -> Report:
    """Compare the truncated pair stabilizer of the walls of indices k1 and
    k2 with the distance classification:

    crossing walls share a full vertex stabilizer; distance-2 walls share the
    connecting wall's fixator; further walls share only the identity (reported
    as a lower-bound statement when the ball cannot certify the distance).
    """
    report = Report()
    p = b.presentation
    T1, T2 = cg.walls[k1], cg.walls[k2]
    d, exact = delta(cg, k1, k2)
    inter = wall_stabilizer_truncated(b, T1, L) & wall_stabilizer_truncated(b, T2, L)
    inst = f"{T1.key_string()}|{T2.key_string()} L={L} delta={d}"

    if d == 1:
        common = cg.crossings[min(k1, k2), max(k1, k2)]
        ok = len(common) == 1
        report.add("walls.crossing-walls-meet-once", inst, ok,
                   None if ok else [b.table.vertex_key(x) for x in common])
        expect = _parabolic_ball(b, vertex_mediums(b)[common[0]], L)
        report.add("walls.pair-stabilizer-delta1-is-vertex-stabilizer", inst,
                   inter == expect,
                   None if inter == expect else sorted(
                       format_word(g) for g in inter ^ expect))
    elif d == 2:
        mids = sorted(cg.neighbors[k1] & cg.neighbors[k2])
        expects = [_parabolic_ball(b, cg.walls[mid].fixator, L) for mid in mids]
        ok = any(inter == e for e in expects)
        report.add("walls.pair-stabilizer-delta2-is-connecting-fixator", inst, ok,
                   None if ok else sorted(format_word(g) for g in inter))
    else:
        # observed distance >= 3 only bounds the true distance from above, so a
        # non-trivial intersection is uncertain evidence, not a failure
        ok = inter == {identity(p)}
        if ok:
            report.add("walls.pair-stabilizer-far-trivial", inst, True)
        else:
            report.add_inconclusive(
                "walls.pair-stabilizer-far-trivial", inst,
                {"note": "distance is a ball-horizon bound",
                 "intersection": sorted(format_word(g) for g in inter)})
    return report


# -- minimal sets ------------------------------------------------------------------


def _skeleton(b: ComplexBall) -> Callable[[int], array]:
    """X' vertex id -> its neighbours in the 1-skeleton of X', each one
    slice of CSR arrays built once per ball: a start array and a flat
    neighbour array.  Read off ``Subdivision.ends``, which lists each edge
    once, by ``incidence``: each end's vertex is its key and the other end
    its value, so each neighbour is listed once, in edge order."""
    def build() -> Callable[[int], array]:
        x = subdivision(b)
        ends = x.ends   # the other end of the end at place k is at k ^ 1
        start, nbr = incidence(ends, len(x.start) - 1,
                               itertools.chain.from_iterable(zip(ends[1::2], ends[::2])))
        return lambda v: nbr[start[v]:start[v + 1]]
    return b.derive("skeleton", build)


def min_set(b: ComplexBall, T1: TreeWall, T2: TreeWall) -> tuple[set[int], int, int]:
    """(ids of the vertices of T1 closest to T2, that distance, diameter of
    the set).

    Distances are edge counts in the 1-skeleton of X', searched over its
    vertex ids, each vertex's neighbours read as one slice of the ball's
    CSR skeleton (``_skeleton``).  An X-vertex's id in X' is its table id,
    and the walls' vertex ids are read from the table.
    """
    neighbors = _skeleton(b)
    targets = T1.vertex_set
    for d, level in enumerate(_bfs_levels(neighbors, T2.vertex_set)):
        closest = level & targets
        if closest:
            break
    else:
        raise ValidationError("walls are not connected within the ball")
    diam = 0
    for v in closest:
        unreached = set(closest)
        for k, level in enumerate(_bfs_levels(neighbors, [v])):
            if not unreached.isdisjoint(level):
                unreached -= level
                diam = max(diam, k)
                if not unreached:
                    break
    return closest, d, diam


def min_set_audit(b: ComplexBall, cg: CrossingGraph) -> Report:
    """Minimal sets have diameter at most twice the wall distance."""
    report = Report()
    pairs = itertools.islice(itertools.combinations(range(len(cg.walls)), 2), MIN_SET_PAIRS)
    for k1, k2 in pairs:
        T1, T2 = cg.walls[k1], cg.walls[k2]
        closest, d, diam = min_set(b, T1, T2)
        inst = f"{T1.key_string()}|{T2.key_string()}"
        report.add("walls.min-set-diameter", f"{inst} d={d}", diam <= 2 * d,
                   None if diam <= 2 * d else {"diameter": diam, "distance": d})
        if k2 in cg.neighbors[k1]:
            report.add("walls.min-set-of-crossing-pair", inst,
                       len(closest) == 1 and d == 0 and diam == 0)
    return report


# -- hyperplanes of the square subdivision ------------------------------------------


class UnionFind:
    """Disjoint sets of hashable items, made on first ``find``."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def hyperplane_treewall_audit(b: ComplexBall) -> Report:
    """Exactly one side of each interior hyperplane of X' is a
    constant-label subgraph of the unsubdivided 1-skeleton: its halves'
    side (see the module docstring).

    A broken square record (``davis.square_faults``) fails the ``classes``
    row with its witness.  Otherwise each record q = n·k + i is polygon k's
    corner i (the proof is in ``davis._links``): its four corners are
    distinct and each side ends at the two corners its place names, so the
    side opposite half_i (m_i, v) is spoke_{i+1} (m_{i+1}, c), and the one
    opposite half_{i+1} (v, m_{i+1}) is spoke_i (c, m_i): the pairs, in
    the same order, that matching each square's sides by their ends finds."""
    check = "walls.hyperplane-side-is-wall"
    report = Report()
    faults = square_faults(b)
    if faults:
        report.add(check, "classes", False, faults[0][1])
        return report
    x = subdivision(b)
    sq = x.squares
    uf = UnionFind()
    for h0, h1, s0, s1 in zip(sq[4::8], sq[5::8], sq[6::8], sq[7::8]):
        uf.union(h0, s1)
        uf.union(h1, s0)
    label_of: dict[int, Optional[int]] = {}   # class root -> its first parallel half's label
    mixed: dict[int, set] = {}   # class root -> its parallel halves' labels, when not one
    errors: dict[int, dict] = {}   # class root -> the witness of its first broken square
    nv = len(x.table.vertices) // 2   # the midpoint of X-edge e is X' vertex nv + e
    cls = [uf.find(s) for s in x.edge_ids()]   # by edge id: its class root
    for q, (m_i, m_next, h0, h1) in enumerate(zip(sq[0::8], sq[2::8], sq[4::8], sq[5::8])):
        r0, r1 = cls[h0], cls[h1]
        if r0 == r1:
            errors.setdefault(r0, {"error": "a square meets a hyperplane in opposite sides",
                                   "at": [x.square_name(q)]})
        # class r0 runs along the half (v, m_{i+1}), so m_{i+1} is on its X-vertex
        # side, and neither half of m_{i+1} (edge ids 2e, 2e + 1) is in it; class
        # r1 runs along (m_i, v)
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


# -- structural audits ---------------------------------------------------------------


def tree_property_audit(b: ComplexBall) -> Report:
    """Interior restriction of every wall is a tree: connected, V - E = 1."""
    report = Report()
    t = b.table
    inner = t.inner(1)
    for T in walls_of_ball(b):
        edges = [t.ends(e) for e in T.ids if inner[t.edges[4 * e + 1]]]
        if not edges:
            continue
        adj: dict[int, set[int]] = {}
        for u, w in edges:
            adj.setdefault(u, set()).add(w)
            adj.setdefault(w, set()).add(u)
        reached = sum(map(len, _bfs_levels(adj.__getitem__, [edges[0][0]])))
        connected = reached == len(adj)
        euler = len(adj) - sum(map(len, adj.values())) // 2
        ok = connected and euler == 1
        report.add("walls.interior-restriction-is-tree",
                   f"{T.key_string()} edges={len(edges)}", ok,
                   None if ok else {"connected": connected, "euler": euler})
    return report


def no_triple_crossing_audit(cg: CrossingGraph) -> Report:
    """No three walls cross pairwise: a triangle k1 < k2 < k3 of the crossing
    graph shows up as a common neighbour k3 of a crossing pair (k1, k2)."""
    report = Report()
    nbrs = cg.neighbors
    triangles = [(k1, k2, k3) for k1, k2 in cg.crossings
                 for k3 in sorted(nbrs[k1] & nbrs[k2]) if k3 > k2]
    report.add("walls.no-three-pairwise-crossing",
               f"walls={cg.number_of_nodes()}", not triangles,
               [[cg.walls[k].key_string() for k in t] for t in triangles] or None)
    return report


def wall_no_shared_polygon_audit(b: ComplexBall) -> Report:
    """No two edges of one wall lie in a common polygon: one pass over each
    polygon's sides, each filed under every wall holding it."""
    report = Report()
    t = b.table
    ws = walls_of_ball(b)
    on: dict[int, list[int]] = {}   # edge id -> the walls holding it
    for k, T in enumerate(ws):
        for e in T.ids:
            on.setdefault(e, []).append(k)
    place = array("i", [0]) * len(t.edge_order)   # by edge id: its place in key order
    for j, e in enumerate(t.edge_order):
        place[e] = j
    shared: list[set] = [set() for _ in ws]   # by wall: places of its sides of one polygon, paired
    for k in range(len(t.reps)):
        held: dict[int, set[int]] = {}   # wall -> the places of its sides of polygon k
        for e in t.sides(k):
            for w in on.get(e, ()):
                held.setdefault(w, set()).add(place[e])
        for w, js in held.items():
            shared[w].update(itertools.combinations(sorted(js), 2))
    for T, pairs in zip(ws, shared):
        bad = [(t.edge_key(t.edge_order[i]), t.edge_key(t.edge_order[j]))
               for i, j in sorted(pairs)]
        report.add("walls.no-two-edges-share-polygon", T.key_string(), not bad, bad or None)
    return report


def vertex_stabilizer_criterion_audit(b: ComplexBall) -> Report:
    """stab(v) stabilizes T exactly when v lies on T, for every interior
    vertex v and wall T.

    Decided exactly: stab(v) is the medium of v (``vertex_mediums``), and it
    lies in the wall's stabilizer, the maximal ``T.stabilizer``, exactly
    when that maximal is one of the two containing the medium.  So only the
    walls with one of those stabilizers and the walls through v can
    disagree: both are read from an index of the walls, by stabilizer and
    by vertex, in O(V + W).
    """
    report = Report()
    t = b.table
    ws = walls_of_ball(b)
    by_stabilizer: dict[CSubgroup, list[int]] = {}
    for k, T in enumerate(ws):
        by_stabilizer.setdefault(T.stabilizer, []).append(k)
    through = _walls_at(ws)
    encode = vertex_mediums(b)
    inside = t.interior_vertices()
    bad = []
    for v in inside:
        stabilized = {k for H in containing_maximals(encode[v])
                      for k in by_stabilizer.get(H, ())}
        bad.extend((t.vertex_key(v), ws[k].key_string(), k in stabilized)
                   for k in sorted(stabilized.symmetric_difference(through.get(v, ()))))
    report.add("walls.vertex-stabilizer-detects-membership",
               f"pairs={len(inside) * len(ws)}", not bad, bad or None)
    return report


def adjacency_criterion_audit(b: ComplexBall) -> Report:
    """Two wall vertices generate the whole wall stabilizer exactly when they
    are adjacent on the wall.

    Decided exactly: the vertices' mediums (``vertex_mediums``) must join to
    a maximal (``join_is_cmaximal``), and that maximal must be the wall's
    stabilizer.
    """
    report = Report()
    t = b.table
    encode = vertex_mediums(b)
    inside = set(t.interior_vertices())
    bad = []
    checked = 0
    for T in walls_of_ball(b):
        verts = sorted(T.vertex_set & inside)
        stab_T = T.stabilizer
        edge_pairs = {tuple(t.ends(e)) for e in T.ids}
        for x, y in itertools.combinations(verts, 2):
            joined, maximal = join_is_cmaximal(encode[x], encode[y])
            generates = joined and maximal == stab_T
            adjacent = (x, y) in edge_pairs
            checked += 1
            if generates != adjacent:
                bad.append((t.vertex_key(x), t.vertex_key(y), generates, adjacent))
    report.add("walls.generation-detects-adjacency", f"pairs={checked}",
               not bad, bad or None)
    return report
