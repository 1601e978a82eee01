"""Disc diagrams over the polygonal complex with exact integer curvature.

A disc diagram is a finite contractible planar complex together with a map
sending its faces to polygons of the complex.  Curvature is measured in
integer quarter-turn units (a right angle is 2 units, a full turn 8):

* every corner of every face carries angle 2,
* a vertex contributes ``8 - 4*chi(link) - 2*(corners at the vertex)``,
* a face with ``k`` sides contributes ``8 - 2*k``,

so the total over any contractible diagram is exactly 8.  The convention is
locked by two reference diagrams (one polygon alone; two polygons sharing an
edge) before any audit runs.

:func:`fill_loop` builds a reduced diagram for a closed edge path greedily:
it cancels spurs and glues the polygon along the longest matching run of the
boundary, never undoing a glue, and refuses with :class:`FillError` rather
than return a diagram it cannot verify.  Each run is read off the polygon's
corner record from the one place and direction its first edge fixes, with
no copy of the boundary.

Loops are lists of X-vertex ids of the ball's table (``davis.BallTable``),
and a diagram's images are X-vertex ids too.  The fills and the loop sampler
read polygons as their corner and side records, through two indexes built
once per ball: the polygons on each X-edge, ``davis.edge_polygons``, the
list the square export reads too, and one dict from each X-edge's pair of
end ids to its id.
A polygon is its id, its rep's number; rep numbers come in the order of the
reps, so ties between polygons break as between their reps.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence

from .davis import ComplexBall, edge_polygons
from .errors import FillError, ValidationError
from .reports import Report
from .walls import UnionFind
from .words import GroupElement, format_word


# -- the planar complex ---------------------------------------------------------


def _vertex_curvature(degree: int, corners: int) -> int:
    """A vertex's curvature from its degree and its corners: its link has
    the degree's nodes and one arc per corner."""
    chi_link = degree - corners
    return 8 - 4 * chi_link - 2 * corners


class DiscDiagram:
    """A contractible planar complex mapped into the polygonal complex.

    ``faces`` are cycles of local vertex ids; ``images`` sends local ids to
    X-vertex ids of the ball's table; ``face_polygons`` sends face indices to polygon
    representatives (None for abstract diagrams used in convention locks).
    """

    def __init__(self, vertices: list[int], edges: list[frozenset[int]],
                 faces: list[tuple[int, ...]], boundary: tuple[int, ...],
                 images: Optional[dict[int, int]] = None,
                 face_polygons: Optional[list[Optional[GroupElement]]] = None):
        self.vertices = vertices
        self.edges = edges
        self.faces = faces
        self.boundary = boundary
        self.images = {} if images is None else images
        self.face_polygons = [] if face_polygons is None else face_polygons
        self.validate()

    def validate(self) -> None:
        vs = set(self.vertices)
        if len(self.vertices) != len(vs):
            raise ValidationError("duplicate vertex ids")
        es = set(self.edges)
        if len(self.edges) != len(es):
            raise ValidationError("duplicate edges")
        for e in es:
            if len(e) != 2 or not e <= vs:
                raise ValidationError(f"bad edge {sorted(e)}")
        for f in self.faces:
            if len(set(f)) != len(f) or len(f) < 3:
                raise ValidationError("face boundary is not an embedded cycle")
            for a, b in zip(f, f[1:] + f[:1]):
                if frozenset({a, b}) not in es:
                    raise ValidationError(f"face uses a missing edge ({a},{b})")
        if self.face_polygons and len(self.face_polygons) != len(self.faces):
            raise ValidationError("one polygon per face is required")
        uf = UnionFind()
        for a, b in es:
            uf.union(a, b)
        if len({uf.find(v) for v in vs}) > 1:
            raise ValidationError("diagram is not connected")
        # contractible: V - E + F = 1
        if len(vs) - len(es) + len(self.faces) != 1:
            raise ValidationError("diagram is not contractible (V - E + F != 1)")

    # -- curvature -------------------------------------------------------------

    def corner_count(self, v: int) -> int:
        return sum(f.count(v) for f in self.faces)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def vertex_curvature(self, v: int) -> int:
        return _vertex_curvature(self.degree(v), self.corner_count(v))

    def face_curvature(self, f: int) -> int:
        return 8 - 2 * len(self.faces[f])

    def total_curvature(self) -> int:
        """Every vertex's and face's curvature, summed; each vertex's degree
        and corners are counted in one pass over the edges and the faces."""
        degree = Counter(v for e in self.edges for v in e)
        corners = Counter(v for f in self.faces for v in f)
        return (sum(_vertex_curvature(degree[v], corners[v]) for v in self.vertices)
                + sum(self.face_curvature(i) for i in range(len(self.faces))))

    def is_reduced(self) -> bool:
        """No two faces sharing an edge map to the same polygon."""
        if not self.face_polygons:
            return True
        by_edge: dict[frozenset[int], list[int]] = {}
        for i, f in enumerate(self.faces):
            for a, b in zip(f, f[1:] + f[:1]):
                by_edge.setdefault(frozenset({a, b}), []).append(i)
        for owners in by_edge.values():
            if len(owners) == 2:
                if self.face_polygons[owners[0]] == self.face_polygons[owners[1]]:
                    return False
        return True


def gauss_bonnet_check(d: DiscDiagram, instance: str = "") -> Report:
    report = Report()
    total = d.total_curvature()
    report.add("diagrams.gauss-bonnet-sum-is-eight",
               instance or f"V={len(d.vertices)} F={len(d.faces)}",
               total == 8, None if total == 8 else {"total": total})
    return report


# -- convention lock -------------------------------------------------------------


def single_polygon_diagram(n: int) -> DiscDiagram:
    verts = list(range(n))
    edges = [frozenset({i, (i + 1) % n}) for i in range(n)]
    return DiscDiagram(verts, edges, [tuple(range(n))], tuple(range(n)))


def two_polygon_diagram(n: int) -> DiscDiagram:
    # faces [0..n-1] and [0, n-1, n, .., 2n-3] share the edge {0, n-1}
    verts = list(range(2 * n - 2))
    f1 = tuple(range(n))
    f2 = (0,) + tuple(range(2 * n - 3, n - 2, -1))
    edges = sorted({frozenset({a, b})
                    for f in (f1, f2) for a, b in zip(f, f[1:] + f[:1])})
    boundary = tuple(range(n - 1)) + tuple(range(n - 1, 2 * n - 2))
    return DiscDiagram(verts, edges, [f1, f2], boundary)


def convention_lock(n: int = 5) -> Report:
    """Pin the curvature constants on two reference diagrams.

    Must pass before any curvature audit is trusted; the audits call it
    themselves.
    """
    report = Report()
    one = single_polygon_diagram(n)
    report.add("diagrams.convention-lock-single-polygon", f"n={n}",
               one.total_curvature() == 8
               and all(one.vertex_curvature(v) == 2 for v in one.vertices)
               and one.face_curvature(0) == 8 - 2 * n)
    two = two_polygon_diagram(n)
    shared = [v for v in two.vertices if two.corner_count(v) == 2]
    report.add("diagrams.convention-lock-shared-edge", f"n={n}",
               two.total_curvature() == 8
               and sorted(shared) == [0, n - 1]
               and all(two.vertex_curvature(v) == 0 for v in shared))
    return report


# -- filling loops -----------------------------------------------------------------


def _cancel_spurs(loop: list, creators: list, ids: list, merges: list) -> None:
    """Remove backtracks (x, y, x) in place, recording each fold as the pair
    of diagram vertex ids it identifies."""
    while len(loop) > 2:
        L = len(loop)
        j = next((j for j in range(L) if loop[j] == loop[(j + 2) % L]), None)
        if j is None:
            return
        merges.append((ids[(j + 2) % L], ids[j]))
        for idx in sorted(((j + 1) % L, (j + 2) % L), reverse=True):
            del loop[idx], creators[idx], ids[idx]


def _read_run(c: Sequence[int], loop: Sequence[int], j: int):
    """The run of the polygon with corner record ``c`` along the boundary
    ``loop`` from ``loop[j]``, read off the record, and its completion.

    Returns (k, completion): from the place s of loop[j] in c, and in the
    direction d in which ``c[s + d]`` is ``loop[j + 1]``, loop[j + t] is
    ``c[s + d*t]`` for t = 0 .. k (indices mod len(loop) and mod n), with
    k >= 1 as large as that allows up to ``min(len(loop), n - 1)``;
    ``completion`` is ``c[s + d*t]`` for t = k+1 .. n-1, the corners from
    loop[j+k] back to loop[j], both excluded.  None when c does not hold
    the edge loop[j], loop[j+1].
    """
    n, L = len(c), len(loop)
    if loop[j] not in c:
        return None
    s = c.index(loop[j])
    d = 1 if c[(s + 1) % n] == loop[(j + 1) % L] else -1
    k, most = 0, min(L, n - 1)
    while k < most and c[(s + d * (k + 1)) % n] == loop[(j + k + 1) % L]:
        k += 1
    return (k, [c[(s + d * t) % n] for t in range(k + 1, n)]) if k else None


def _edge_polygons(b: ComplexBall) -> list[list[int]]:
    """``davis.edge_polygons`` of the ball's table, built once per ball."""
    return b.derive("edge polygons", lambda: edge_polygons(b.table))


def _edge_ids(b: ComplexBall) -> dict[int, int]:
    """Each X-edge's id, keyed by its end ids u < w (the table's key order)
    as u·V + w for V X-vertices; built once per ball."""
    t = b.table
    nv = len(t.vertices) // 2
    return b.derive("edge ids", lambda: {
        u * nv + w: e for e, (u, w) in enumerate(zip(t.edges[2::4], t.edges[3::4]))})


def fill_loop(b: ComplexBall, loop: Sequence[int],
              max_faces: int = 24) -> DiscDiagram:
    """Build a reduced disc diagram bounded by the closed edge path ``loop``,
    a list of X-vertex ids.

    Cancel spurs, then glue the polygon along the longest matching run of the
    boundary (on ties the earliest run, then the least rep; never onto an
    edge the same polygon created), until the boundary is a point or one edge
    walked there and back.  No glue is undone: the complex is CAT(0) with
    right-angled polygons, so C(5)-T(4) (two polygons share at most one edge,
    vertex links are complete bipartite), where Greendlinger's lemma
    (Lyndon-Schupp ch. V) gives a reduced filling a face with at most two
    interior sides, whose polygon covers a long run of the loop and whose
    glue shortens it.  The result is still validated and checked reduced.

    A candidate is a boundary place j and a polygon on the edge loop[j],
    loop[j+1].  Its run is read off the polygon's corner record c
    (``_read_run``): from the place s of loop[j], in the direction d with
    ``c[s + d] == loop[j + 1]``, for as long as the record follows the loop.
    This is the longest run that any start and direction of c would give:
    c has n distinct corners (``davis.t4.polygon-sides``), so loop[j] has
    one place in it, and exactly one of that place's two neighbours is
    loop[j + 1]; every other start and direction gives a run of length 0.

    Raises :class:`FillError` when an entry is not an X-vertex id of the
    ball, when no polygon fits or when these glues need more than
    ``max_faces`` faces.
    """
    loop = list(loop)
    if len(loop) < 1:
        raise FillError("empty loop")
    nv = len(b.table.vertices) // 2
    for v in loop:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < nv:
            raise FillError(f"loop entry {v!r} is not an X-vertex id of the ball")
    if loop[0] == loop[-1] and len(loop) > 1:
        loop = loop[:-1]
    for v, w in zip(loop, loop[1:] + loop[:1]):
        if len(loop) > 1 and _ball_edge(b, v, w) is None:
            raise FillError(f"loop is not an edge path at {b.table.vertex_key(v)}")

    on_edge = _edge_polygons(b)
    start = list(range(len(loop)))
    images: list[int] = list(loop)    # diagram vertex id -> image
    faces: list[tuple[int, ...]] = []
    face_polygons: list[GroupElement] = []
    merges: list[tuple[int, int]] = []         # vertex ids identified by folds
    creators: list[Optional[int]] = [None] * len(loop)   # polygon ids
    ids = list(start)
    while True:
        _cancel_spurs(loop, creators, ids, merges)
        L = len(loop)
        if L <= 2:
            break    # a point, or one edge walked there and back
        best = None
        for j in range(L):
            for poly in on_edge[_ball_edge(b, loop[j], loop[(j + 1) % L])]:
                m = _read_run(b.table.corners(poly), loop, j)
                if m is None:
                    continue
                k, completion = m
                # t = 0 keeps the polygon off an edge it created itself
                if (best is None or (-k, j, poly) < best[0]) and \
                        not any(creators[(j + t) % L] == poly for t in range(k)):
                    best = ((-k, j, poly), k, completion)
        if best is None or len(faces) >= max_faces:
            raise FillError(
                f"no reduced filling with at most {max_faces} faces was found")
        (_, j, poly), k, completion = best
        # the face runs along loop[j..j+k] and back through fresh corners; the
        # boundary keeps loop[j+k] around to loop[j], then closes through them
        fresh = list(range(len(images), len(images) + len(completion)))
        images.extend(completion)
        faces.append(tuple(ids[(j + t) % L] for t in range(k + 1)) + tuple(fresh))
        face_polygons.append(b.table.reps[poly])
        loop = [loop[(j + k + t) % L] for t in range(L - k + 1)] + completion[::-1]
        creators = [creators[(j + k + t) % L] for t in range(L - k)] \
            + [poly] * (len(completion) + 1)
        ids = [ids[(j + k + t) % L] for t in range(L - k + 1)] + fresh[::-1]

    uf = UnionFind()
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


def _ball_edge(b: ComplexBall, v: int, w: int) -> Optional[int]:
    """The id of the X-edge joining the X-vertices v and w, or None."""
    nv = len(b.table.vertices) // 2
    return _edge_ids(b).get(min(v, w) * nv + max(v, w))


def union_boundary_loop(b: ComplexBall, polygons: Sequence[int]) -> Optional[list[int]]:
    """Boundary cycle of a disc-shaped union of polygons, given by their
    ids, as X-vertex ids from the least; or None if the union is not bounded
    by one simple cycle."""
    t = b.table
    count: dict[int, int] = {}
    for k in polygons:
        for e in t.sides(k):
            count[e] = count.get(e, 0) + 1
    border = [e for e, c in count.items() if c == 1]
    at: dict[int, list[int]] = {}
    for e in border:
        for v in t.ends(e):
            at.setdefault(v, []).append(e)
    if not at or any(len(es) != 2 for es in at.values()):
        return None
    start = min(at)
    loop, prev = [start], None
    while True:
        e = next(x for x in at[loop[-1]] if x != prev)
        a, c = t.ends(e)
        nxt = a if c == loop[-1] else c
        if nxt == start:
            return loop if len(loop) == len(border) else None
        loop.append(nxt)
        prev = e


def sample_loops(b: ComplexBall, seed: int, count: int, max_len: int = 12):
    """Deterministic sample of null-homotopic loops: boundaries of random
    connected polygon unions, capped at ``max_len`` edges."""
    rng = random.Random(seed)
    t = b.table
    on_edge = _edge_polygons(b)
    loops = []
    attempts = 0
    while len(loops) < count and attempts < 50 * count:
        attempts += 1
        chosen = [rng.choice(range(len(t.reps)))]   # the draw of a choice from the polygon list
        for _ in range(rng.randrange(0, 3)):
            # grow across a shared edge to keep the union connected
            frontier = [other
                        for k in chosen for e in t.sides(k)
                        for other in on_edge[e] if other not in chosen]
            if not frontier:
                break
            # sorted by the reps' text, not their numbers, the order the draws have been made in
            chosen.append(rng.choice(sorted(frontier, key=lambda k: format_word(t.reps[k]))))
        loop = union_boundary_loop(b, chosen)
        if loop is not None and len(loop) <= max_len:
            loops.append(loop)
    return loops


def filling_audit(b: ComplexBall, seed: int = 0, count: int = 20,
                  max_len: int = 12) -> Report:
    """Fill sampled loops and audit curvature on each result."""
    report = convention_lock(b.presentation.n)
    loops = sample_loops(b, seed, count, max_len)
    report.add("diagrams.loop-sampler-found-instances", f"loops={len(loops)}",
               bool(loops))
    for idx, loop in enumerate(loops):
        key = f"loop {idx:03d}: len={len(loop)} at={b.table.vertex_key(loop[0])}"
        try:
            d = fill_loop(b, loop)
        except FillError as exc:
            report.add("diagrams.gauss-bonnet-sum-is-eight", key, False,
                       {"fill_error": str(exc)})
            continue
        report.extend(gauss_bonnet_check(d, key))
        report.add("diagrams.filling-is-reduced", key, d.is_reduced())
    return report

