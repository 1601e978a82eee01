import hashlib
import itertools
import json

import pytest

from cyclewall import diagrams
from cyclewall.davis import build_ball
from cyclewall.diagrams import (
    DiscDiagram,
    convention_lock,
    fill_loop,
    filling_audit,
    gauss_bonnet_check,
    sample_loops,
    single_polygon_diagram,
    two_polygon_diagram,
    union_boundary_loop,
)
from cyclewall.errors import FillError, ValidationError
from cyclewall.words import format_word, identity, parse_word
from oracles import fill_and_audit, fill_loop_by_search


def diagram_to_json_dict(d: DiscDiagram, b) -> dict:
    """``d``'s record document, each image named by its key string in the
    ball ``b``."""
    return {
        "schema": "cyclewall/1",
        "vertices": [{"id": v,
                      "image": b.table.vertex_key(d.images[v]) if v in d.images else None,
                      "curvature": d.vertex_curvature(v)}
                     for v in d.vertices],
        "edges": [sorted(e) for e in d.edges],
        "faces": [{"cycle": list(f),
                   "polygon": format_word(d.face_polygons[i])
                   if d.face_polygons and d.face_polygons[i] is not None else None,
                   "curvature": d.face_curvature(i)}
                  for i, f in enumerate(d.faces)],
        "boundary": list(d.boundary),
        "total_curvature": d.total_curvature(),
    }


# -- convention lock ---------------------------------------------------------


def test_convention_lock_holds_for_reference_sizes():
    for n in (5, 6, 7):
        assert convention_lock(n).ok


def test_single_polygon_curvatures():
    d = single_polygon_diagram(5)
    assert all(d.vertex_curvature(v) == 2 for v in d.vertices)
    assert d.face_curvature(0) == -2
    assert d.total_curvature() == 8


def test_two_polygon_curvatures():
    d = two_polygon_diagram(5)
    # the two endpoints of the shared edge are flat, the rest are corners
    flats = [v for v in d.vertices if d.vertex_curvature(v) == 0]
    assert len(flats) == 2
    assert d.total_curvature() == 8


# -- validation ----------------------------------------------------------------


def test_rejects_non_contractible():
    # an annulus of squares is not a disc; simplest: a face plus a stray edge
    with pytest.raises(ValidationError):
        DiscDiagram([0, 1, 2, 3], [frozenset({0, 1}), frozenset({1, 2}),
                                   frozenset({2, 0}), frozenset({0, 3}),
                                   frozenset({1, 3})],
                    [(0, 1, 2)], (0, 1, 2))


def test_rejects_disconnected():
    with pytest.raises(ValidationError, match="diagram is not connected"):
        DiscDiagram([0, 1, 2, 3], [frozenset({0, 1}), frozenset({2, 3})],
                    [], (0, 1))
    triangles = [(0, 1, 2), (3, 4, 5)]
    with pytest.raises(ValidationError, match="diagram is not connected"):
        DiscDiagram(list(range(6)),
                    [frozenset({f[k], f[k - 1]}) for f in triangles for k in range(3)],
                    triangles, (0, 1, 2))


def test_rejects_face_with_missing_edge():
    with pytest.raises(ValidationError):
        DiscDiagram([0, 1, 2], [frozenset({0, 1}), frozenset({1, 2})],
                    [(0, 1, 2)], (0, 1, 2))


def test_unreduced_pair_detected(c5_z2):
    p = c5_z2
    d = two_polygon_diagram(5)
    d.face_polygons = [identity(p), identity(p)]
    assert not d.is_reduced()
    d.face_polygons = [identity(p), parse_word(p, "v2:1")]
    assert d.is_reduced()


# -- every diagrams check can fail ---------------------------------------------


def failed_ids(report):
    return sorted({r.check_id for r in report.failures})


def test_convention_lock_fails_on_a_wrong_single_polygon(monkeypatch):
    # two polygons for one: the ends of the shared edge are flat, not corners
    monkeypatch.setattr(diagrams, "single_polygon_diagram", two_polygon_diagram)
    assert failed_ids(convention_lock(5)) == ["diagrams.convention-lock-single-polygon"]


def test_convention_lock_fails_on_a_wrong_shared_edge(monkeypatch):
    # one polygon for two: no vertex lies on two faces
    monkeypatch.setattr(diagrams, "two_polygon_diagram", single_polygon_diagram)
    assert failed_ids(convention_lock(5)) == ["diagrams.convention-lock-shared-edge"]


def test_fill_and_audit_fails_on_a_non_reduced_filling(c5_z2, monkeypatch):
    p = c5_z2
    b = build_ball(p, 1)
    loop = union_boundary_loop(b, polygon_ids(b, identity(p), parse_word(p, "v2:1")))

    def stacked(b, loop, max_faces=24):
        # the true filling with both faces mapped to one polygon
        d = fill_loop(b, loop, max_faces)
        return DiscDiagram(d.vertices, d.edges, d.faces, d.boundary, d.images,
                           [d.face_polygons[0]] * 2)

    monkeypatch.setattr(diagrams, "fill_loop", stacked)
    _, report = fill_and_audit(b, loop)
    assert failed_ids(report) == ["diagrams.filling-is-reduced"]


def test_filling_audit_fails_when_the_sampler_finds_no_loop(c5_z2, monkeypatch):
    monkeypatch.setattr(diagrams, "sample_loops", lambda *args: [])
    report = filling_audit(build_ball(c5_z2, 1))
    assert failed_ids(report) == ["diagrams.loop-sampler-found-instances"]


# -- filling ---------------------------------------------------------------------


def polygon_ids(b, *reps):
    """The polygon ids of the given reps in the ball ``b``."""
    return [b.table.reps.index(g) for g in reps]


def edge_ends(b, count):
    """The end ids of the ball's first ``count`` X-edges in key order."""
    t = b.table
    return [tuple(t.ends(e)) for e in t.edge_order[:count]]


def test_fill_single_polygon(c5_z2):
    b = build_ball(c5_z2, 1)
    loop = union_boundary_loop(b, polygon_ids(b, identity(c5_z2)))
    assert loop is not None
    d = fill_loop(b, loop)
    assert len(d.faces) == 1
    assert d.face_polygons == [identity(c5_z2)]
    assert d.total_curvature() == 8
    assert gauss_bonnet_check(d).ok


def test_fill_two_polygons(c5_z2):
    p = c5_z2
    b = build_ball(p, 1)
    reps = [identity(p), parse_word(p, "v2:1")]
    loop = union_boundary_loop(b, polygon_ids(b, *reps))
    assert loop is not None
    assert len(loop) == 8
    d, report = fill_and_audit(b, loop)
    assert report.ok
    assert len(d.faces) == 2
    assert sorted(map(str, d.face_polygons)) == sorted(map(str, reps))


def test_fill_three_polygon_fan(c5_z2):
    p = c5_z2
    b = build_ball(p, 2)
    reps = [identity(p), parse_word(p, "v2:1"), parse_word(p, "v3:1")]
    loop = union_boundary_loop(b, polygon_ids(b, *reps))
    assert loop is not None
    d, report = fill_and_audit(b, loop)
    assert report.ok
    assert len(d.faces) == 3
    assert d.total_curvature() == 8


def test_fill_backtrack_gives_a_hair(c5_z2):
    p = c5_z2
    b = build_ball(p, 1)
    t = b.table
    e = t.sides(0)[0]   # side 0 of the identity polygon, polygon 0
    d = fill_loop(b, list(t.ends(e)))
    assert len(d.faces) == 0
    assert len(d.vertices) == 2 and len(d.edges) == 1
    assert d.total_curvature() == 8   # two leaves worth 4 each


def test_fill_rejects_non_edge_path(c5_z2):
    p = c5_z2
    b = build_ball(p, 1)
    poly = b.table.corners(0)   # the identity polygon's
    with pytest.raises(FillError):
        fill_loop(b, [poly[0], poly[2], poly[4]])  # skips around the polygon


@pytest.mark.parametrize("loop, bad", [([60, 61, 62], "60"), ([-1, -2, -3], "-1"),
                                       ([0, 1.0, 2], "1.0"), ([True], "True"), ([60], "60")])
def test_fill_rejects_ids_outside_the_ball(c5_z2, loop, bad):
    """An entry that is not an X-vertex id of the ball (c5_z2 r2 has 60) is
    refused with a FillError naming it, not an IndexError or a ValueError."""
    b = build_ball(c5_z2, 2)
    assert len(b.table.vertices) // 2 == 60
    with pytest.raises(FillError, match=f"loop entry {bad} is not an X-vertex id"):
        fill_loop(b, loop)


def test_fill_respects_face_budget(c5_z2):
    p = c5_z2
    b = build_ball(p, 1)
    loop = union_boundary_loop(b, polygon_ids(b, identity(p)))
    assert loop is not None
    with pytest.raises(FillError):
        fill_loop(b, loop, max_faces=0)


def test_fill_mixed_groups(c5_mixed):
    p = c5_mixed
    b = build_ball(p, 1)
    loop = union_boundary_loop(b, polygon_ids(b, identity(p)))
    assert loop is not None
    d, report = fill_and_audit(b, loop)
    assert report.ok and len(d.faces) == 1


def test_fill_hexagon_pair(c6_z2):
    p = c6_z2
    b = build_ball(p, 1)
    reps = [identity(p), parse_word(p, "v2:1")]
    loop = union_boundary_loop(b, polygon_ids(b, *reps))
    assert loop is not None
    assert len(loop) == 10
    d, report = fill_and_audit(b, loop)
    assert report.ok and len(d.faces) == 2


def test_json_export(c5_z2):
    p = c5_z2
    b = build_ball(p, 1)
    loop = union_boundary_loop(b, polygon_ids(b, identity(p)))
    assert loop is not None
    d = fill_loop(b, loop)
    doc = diagram_to_json_dict(d, b)
    assert doc["total_curvature"] == 8
    assert len(doc["faces"]) == 1
    assert all("image" in v for v in doc["vertices"])


# -- pinned fills -------------------------------------------------------------------


FILL_DIGESTS = {
    "c5_mixed": "3cd30491708fe9d1fe44aae63a94fa0b6fb50e7f403a0eda860c1c0cf312e972",
    "c6_mixed": "6c6f6e32cabaf12cc46c1fc8bbf2204b9238fbd2b7ac402d284f0c362c381044",
}


def fill_digest(b) -> str:
    """SHA-256 over the exported diagrams (ids, edges and faces included) of
    sampled loops and of single and doubled edge backtracks."""
    loops = [loop for seed in range(5) for loop in sample_loops(b, seed, 20, 12)]
    for u, w in edge_ends(b, 10):
        loops += [[u, w], [u, w, u, w]]
    h = hashlib.sha256()
    for loop in loops:
        try:
            doc = diagram_to_json_dict(fill_loop(b, loop), b)
        except FillError as exc:
            doc = {"fill_error": str(exc)}
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FILL_DIGESTS))
def test_fill_loop_diagrams_match_pinned_digest(name, request):
    b = build_ball(request.getfixturevalue(name), 2)
    assert fill_digest(b) == FILL_DIGESTS[name]


# -- loops that revisit a vertex ----------------------------------------------------


def figure_eights(b) -> list:
    """Two sampled boundaries through a shared start vertex, walked one after
    the other, the second in both orientations."""
    eights = []
    for a, c in itertools.combinations(sample_loops(b, 0, 20, 12), 2):
        if a[0] == c[0] and a != c:
            eights += [a + c, a + c[:1] + c[:0:-1]]
    return eights


@pytest.mark.parametrize("name", ["c5_z2", "c5_z3"])
def test_fill_figure_eight_fills_or_refuses(name, request):
    b = build_ball(request.getfixturevalue(name), 2)
    eights = figure_eights(b)
    assert eights
    filled = 0
    for max_faces in (24, 1):
        for loop in eights:
            try:
                _, report = fill_and_audit(b, loop, max_faces)
            except FillError:
                continue
            assert report.ok
            filled += 1
    assert filled


# -- the search oracle ----------------------------------------------------------------


def fill_outcome(fill, b, loop, max_faces) -> dict:
    try:
        return diagram_to_json_dict(fill(b, loop, max_faces), b)
    except FillError as exc:
        return {"fill_error": str(exc)}


@pytest.mark.parametrize("name", ["c5_mixed", "c6_mixed"])
def test_fill_loop_matches_search_oracle(name, request):
    p = request.getfixturevalue(name)
    for radius in (1, 2):
        b = build_ball(p, radius)
        cases = [(loop, 24) for seed in range(3) for loop in sample_loops(b, seed, 20, 12)]
        if radius == 2:
            cases += [(loop, max_faces) for loop in figure_eights(b) for max_faces in (24, 1)]
        for u, w in edge_ends(b, 20):
            cases += [([u, w], 24), ([u, w, u, w], 24)]
        for loop, max_faces in cases:
            assert (fill_outcome(fill_loop, b, loop, max_faces)
                    == fill_outcome(fill_loop_by_search, b, loop, max_faces))
