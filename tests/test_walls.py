import dataclasses
import itertools
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import networkx as nx
import pytest

from cyclewall import walls
from cyclewall.algebraic import (
    MAXIMAL,
    MEDIUM,
    MINIMAL,
    CSubgroup,
    containing_maximals,
    join_is_cmaximal,
)
from cyclewall.cli import load_presentation
from cyclewall.davis import Subdivision, build_ball, subdivision
from cyclewall.errors import ValidationError
from cyclewall.walls import (
    TreeWall,
    adjacency_criterion_audit,
    classify_pair,
    crossing_graph,
    delta,
    hyperplane_treewall_audit,
    min_set,
    min_set_audit,
    no_triple_crossing_audit,
    tree_property_audit,
    vertex_stabilizer_criterion_audit,
    wall_fixator_audit,
    wall_fixator_truncated,
    wall_no_shared_polygon_audit,
    wall_stabilizer_audit,
    wall_stabilizer_truncated,
    walls_of_ball,
)
from cyclewall.words import (
    coset_rep,
    enumerate_ball_elements,
    format_word,
    from_syllable,
    identity,
    inv,
    mul,
    parabolic_member,
    parse_word,
)

from conftest import presentation_c5_mixed, presentation_c5_z2
from oracles import (
    ObjectWall,
    act_edge,
    bounded_closure,
    combinatorial_hyperplanes,
    crossing_graph_pairwise,
    hyperplane_classes,
    hyperplane_treewall_by_classes,
    medium_of_vertex,
    min_set_networkx,
    object_ball,
    objects,
    subdivide,
    parabolic_ball_by_conjugation,
    parabolic_ball_by_scan,
    subgroup_sort_key,
    sweep_closure,
    sweep_stabilizes_wall,
    treewall_of_edge,
    vertex_stabilizer_by_pairs,
    wall_no_shared_polygon_by_pairs,
    wall_stabilizer_by_scan,
    wall_stabilizer_by_transporters,
    walls_by_flood_fill,
    walls_by_objects,
    wall_objects,
    wall_view,
    window_member,
    x_edge,
)

PRESENTATIONS = Path(__file__).parent.parent / "perfbench" / "presentations"


def central_walls(b):
    return {w.label: w for w in walls_of_ball(b) if w.key_rep.is_identity}


def central_indices(cg):
    """The indices in ``cg.walls`` of the central walls, by label."""
    return {w.label: k for k, w in enumerate(cg.walls) if w.key_rep.is_identity}


# -- wall construction --------------------------------------------------------


def test_wall_of_lone_polygon_is_single_edge(c5_z2):
    b = build_ball(c5_z2, 0)
    e = x_edge(c5_z2, identity(c5_z2), 1)
    w = treewall_of_edge(b, e)
    assert w.edges == frozenset({e})
    assert w.label == 1


def test_wall_endpoint_degrees_match_neighbour_group_orders(c5_mixed):
    p = c5_mixed
    b = object_ball(p, 2)
    w = wall_objects(b, central_walls(b)[1])
    # at a vertex of classes (0,1) the wall branches |G_0| ways, at (1,2) |G_2| ways
    for v in w.vertex_set:
        if v not in b.interior_vertices:
            continue
        deg = sum(1 for e in w.edges if v in e.ends)
        other = v.index if v.index != 1 else (v.index + 1) % 5
        assert deg == p.group(other).size


def test_wall_key_constant_over_edges(c5_mixed):
    p = c5_mixed
    b = build_ball(p, 2)
    for w in walls_of_ball(b):
        for e in wall_objects(b, w).edges:
            assert CSubgroup(MAXIMAL, w.label, e.rep).conjugator == w.key_rep


SIX = sorted(p.stem for p in PRESENTATIONS.glob("*.json"))


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize("name", SIX)
def test_walls_match_flood_fill_oracle(name, radius):
    """The walls read off the ball's table are the walls that bucketing the
    ball's edge objects by ``coset_rep`` gives, and the walls that flood fill
    from the interior edges and merging by key give: same keys, seeds and
    edges, the walls' edge ids read as the object oracle's edges."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    got = [wall_objects(b, w) for w in walls_of_ball(b)]
    assert got == walls_by_objects(b)
    assert got == walls_by_flood_fill(b)
    assert bool(got) == (radius > 0)


def old_encodings(b, vertices):
    """Each wall's stabilizer and fixator, and the medium of each wall vertex
    that ``vertices`` keeps, mapped to its window and conjugator as the
    window helpers gave them: the seed's rep for a wall, the rep for a
    vertex."""
    n = b.presentation.n
    old = {}
    for T in walls_of_ball(b):
        i = T.label
        W = wall_objects(b, T)
        old[T.stabilizer] = (frozenset({(i - 1) % n, i, (i + 1) % n}), W.seed.rep)
        old[T.fixator] = (frozenset({i}), W.seed.rep)
        for v in filter(vertices, W.vertex_set):
            old[medium_of_vertex(v)] = (frozenset({v.index, (v.index + 1) % n}), v.rep)
    return old


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("name", sorted(p.stem for p in PRESENTATIONS.glob("*.json")))
def test_wall_subgroups_match_the_old_encodings(name, radius):
    """Every edge of a wall gives the wall's stabilizer and fixator, and each
    subgroup has the old window.  Where its conjugator is not the old one
    reduced modulo that window, membership over B(3) still agrees."""
    p = load_presentation(str(PRESENTATIONS / f"{name}.json"))
    b = build_ball(p, radius)
    for T in walls_of_ball(b):
        for e in wall_objects(b, T).edges:
            assert CSubgroup(MAXIMAL, T.label, e.rep) == T.stabilizer
            assert CSubgroup(MINIMAL, T.label, e.rep) == T.fixator
    ball = enumerate_ball_elements(p, 3)
    for H, (S, w) in old_encodings(b, lambda v: True).items():
        assert H.window == S
        if H.conjugator != coset_rep(w, S):
            assert [parabolic_member(g, H) for g in ball] == \
                [window_member(g, S, w) for g in ball], H.key_string()


@pytest.mark.parametrize("name", sorted(p.stem for p in PRESENTATIONS.glob("*.json")))
def test_wall_subgroup_membership_matches_the_old_windows(name):
    """At radius 2, membership over B(3) in each wall's stabilizer and
    fixator and in each interior wall vertex's medium is membership in the
    old window conjugated by the old conjugator."""
    p = load_presentation(str(PRESENTATIONS / f"{name}.json"))
    b = build_ball(p, 2)
    ball = enumerate_ball_elements(p, 3)
    old = old_encodings(b, objects(b).interior_vertices.__contains__)
    for H, (S, w) in old.items():
        assert [parabolic_member(g, H) for g in ball] == \
            [window_member(g, S, w) for g in ball], H.key_string()
    assert {H.tier for H in old} == {MINIMAL, MEDIUM, MAXIMAL}


def test_wall_rejects_spokes_and_square_form(c5_z2):
    b = build_ball(c5_z2, 1)
    sq = subdivide(b)
    spoke = next(e for e in sq.edges if e.label is None)
    with pytest.raises(ValidationError):
        treewall_of_edge(sq, spoke)
    half = next(e for e in sq.edges if e.label is not None)
    with pytest.raises(ValidationError, match="polygonal ball"):
        treewall_of_edge(sq, half)


def test_no_two_wall_edges_share_a_polygon(c5_z2, c5_mixed):
    assert wall_no_shared_polygon_audit(build_ball(c5_z2, 2)).ok
    assert wall_no_shared_polygon_audit(build_ball(c5_mixed, 2)).ok


def gain_a_side(b, T):
    """``T`` with another side of the first polygon on its seed, as a wall
    of edge ids, and that side."""
    W = wall_objects(b, T)
    side = next(e for e in objects(b).edge_cells[W.seed][0].edges if e not in W.edges)
    return wall_view(b, dataclasses.replace(W, edges=W.edges | {side})), side


def test_shared_polygon_audit_fails_on_two_sides_of_one_polygon(c5_z2, monkeypatch):
    b = build_ball(c5_z2, 2)
    ws = list(walls_of_ball(b))
    T = ws[0]
    ws[0], side = gain_a_side(b, T)
    monkeypatch.setattr(walls, "walls_of_ball", lambda _b: ws)
    r = wall_no_shared_polygon_audit(b)
    assert [(x.check_id, x.instance) for x in r.failures] == [
        ("walls.no-two-edges-share-polygon", T.key_string())]
    assert all(side.key_string() in pair for pair in r.failures[0].witness)


@pytest.mark.parametrize("name", sorted(p.stem for p in PRESENTATIONS.glob("*.json")))
def test_shared_polygon_audit_matches_the_pairwise_oracle(name, monkeypatch):
    """The one pass over each polygon's sides reports what intersecting the
    polygons on every pair of a wall's edges reports: on the ball's walls at
    radius 0-2, and at radius 2 on walls that each gain another side of a
    polygon on their seed, a side that its own wall holds too."""
    p = load_presentation(str(PRESENTATIONS / f"{name}.json"))
    for radius in range(3):
        b = build_ball(p, radius)
        assert wall_no_shared_polygon_audit(b) == \
            wall_no_shared_polygon_by_pairs(b, walls_of_ball(b)), radius
    ws = walls_of_ball(b)
    for k, T in enumerate(ws[:4]):
        ws[k], side = gain_a_side(b, T)
        assert any(side in wall_objects(b, U).edges for U in ws)
    monkeypatch.setattr(walls, "walls_of_ball", lambda _b: ws)
    report = wall_no_shared_polygon_audit(b)
    assert len(report.failures) == 4
    assert report == wall_no_shared_polygon_by_pairs(b, ws)


def test_tree_property(c5_z2, c5_mixed, c6_z2):
    assert tree_property_audit(build_ball(c5_z2, 2)).ok
    assert tree_property_audit(build_ball(c5_mixed, 2)).ok
    assert tree_property_audit(build_ball(c6_z2, 1)).ok


def test_translated_wall_is_a_wall(c5_z2):
    p = c5_z2
    b = object_ball(p, 2)
    g = parse_word(p, "v0:1")
    w = wall_objects(b, central_walls(b)[2])
    moved = {act_edge(g, e) for e in w.edges}
    in_ball = {e for e in moved if e in b.edge_cells}
    target = treewall_of_edge(b, act_edge(g, w.seed))
    assert in_ball <= target.edges


# -- crossing graph -----------------------------------------------------------


def test_crossing_graph_distances(c5_z2):
    b = build_ball(c5_z2, 2)
    cg = crossing_graph(b)
    cent = central_indices(cg)
    # consecutive labels cross at a corner of the central polygon
    for i in range(5):
        d, exact = delta(cg, cent[i], cent[(i + 1) % 5])
        assert d == 1 and exact
    # skip-one labels are at distance two
    d, _ = delta(cg, cent[1], cent[3])
    assert d == 2


def test_crossing_walls_share_exactly_one_vertex(c5_mixed):
    b = build_ball(c5_mixed, 2)
    cg = crossing_graph(b)
    for k1, k2 in cg.crossings:
        w1, w2 = cg.walls[k1], cg.walls[k2]
        assert len(w1.vertex_set & w2.vertex_set) == 1


# the six presentations at radius 0-2, and three at radius 3
CROSSING_CASES = ([(name, r) for name in SIX for r in range(3)]
                  + [("c5_z2", 3), ("c5_z3", 3), ("c6_mixed", 3)])


@pytest.mark.parametrize("name,radius", CROSSING_CASES,
                         ids=[f"{name}-r{r}" for name, r in CROSSING_CASES])
def test_crossing_graph_matches_pairwise_oracle(name, radius):
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    got, want = crossing_graph(b), crossing_graph_pairwise(b)
    assert (got.number_of_edges() > 0) == (radius > 0)
    assert list(enumerate(got.walls)) == list(want.nodes(data="wall"))
    vertices = objects(b).vertices
    assert [(k1, k2, [vertices[x] for x in xs]) for (k1, k2), xs in got.crossings.items()] == \
        list(want.edges(data="vertices"))
    assert got.neighbors == [set(want[k]) for k in want]
    # crossing-graph distances agree with networkx, inf where there is no path
    for k1 in want:
        lengths = nx.shortest_path_length(want, k1)
        for k2 in want:
            d = lengths.get(k2, float("inf"))
            assert delta(got, k1, k2) == (d, d <= 1), (k1, k2)


def test_no_triple_crossing(c5_z2, c5_mixed):
    assert no_triple_crossing_audit(crossing_graph(build_ball(c5_z2, 2))).ok
    assert no_triple_crossing_audit(crossing_graph(build_ball(c5_mixed, 2))).ok


def test_no_triple_crossing_fails_on_an_added_triangle(c5_z2):
    cg = crossing_graph(build_ball(c5_z2, 2))

    def far(k1, k2):
        """A wall crossing no wall that k1 or k2 crosses, or None."""
        near = cg.neighbors[k1] | cg.neighbors[k2]
        return next((k for k in range(len(cg.walls))
                     if k not in near and not cg.neighbors[k] & near), None)

    # the new arcs k1-k3 and k2-k3 close exactly one triangle
    k1, k2, k3 = next((k1, k2, k3) for k1, k2 in cg.crossings
                      if (k3 := far(k1, k2)) is not None)
    for a, c in ((k1, k3), (k2, k3)):
        cg.crossings[min(a, c), max(a, c)] = []
        cg.neighbors[a].add(c)
        cg.neighbors[c].add(a)
    r = no_triple_crossing_audit(cg)
    assert [x.check_id for x in r.failures] == ["walls.no-three-pairwise-crossing"]
    assert r.failures[0].witness == [
        [cg.walls[k].key_string() for k in sorted((k1, k2, k3))]]


def test_tree_property_fails_on_a_wall_split_in_two(c5_z2, monkeypatch):
    b = object_ball(c5_z2, 3)
    ws = walls_of_ball(b)

    def split(T):
        """T without an interior edge whose removal disconnects the rest but
        keeps every vertex, or None."""
        inner = sorted(e for e in wall_objects(b, T).edges if e in b.interior_edges)
        for cut in inner:
            rest = nx.Graph(e.ends for e in inner if e != cut)
            if set(rest) == {v for e in inner for v in e.ends} \
                    and not nx.is_connected(rest):
                return cut
        return None

    k, T, cut = next((k, T, c) for k, T in enumerate(ws) if (c := split(T)))
    rest = wall_objects(b, T).edges - {cut}
    ws[k] = wall_view(b, ObjectWall(T.label, min(rest), rest, T.key_rep))
    monkeypatch.setattr(walls, "walls_of_ball", lambda _b: ws)
    r = tree_property_audit(b)
    assert [x.check_id for x in r.failures] == ["walls.interior-restriction-is-tree"]
    assert r.failures[0].witness == {"connected": False, "euler": 2}


# -- truncated stabilizers ------------------------------------------------------


def test_fixator_of_central_wall_is_vertex_group(c5_mixed):
    p = c5_mixed
    b = build_ball(p, 2)
    w = central_walls(b)[1]
    fix = wall_fixator_truncated(b, w, 2)
    expect = {identity(p)} | {parse_word(p, f"v1:{x}") for x in (1, 2)}
    assert fix == expect


def test_fixator_zero_radius_of_search_is_identity(c5_z2):
    b = build_ball(c5_z2, 2)
    w = central_walls(b)[0]
    assert wall_fixator_truncated(b, w, 0) == {identity(c5_z2)}


def test_fixator_of_translated_wall_is_conjugate(c5_z2):
    p = c5_z2
    b = build_ball(p, 2)
    g = parse_word(p, "v3:1")
    w = wall_view(b, treewall_of_edge(b, act_edge(g, x_edge(p, identity(p), 1))))
    # the conjugate generator has syllable length 3, so search length 3
    fix = wall_fixator_truncated(b, w, 3)
    a1 = parse_word(p, "v1:1")
    assert fix == {identity(p), mul(mul(g, a1), g)}  # g a_1 g^-1, g an involution


def test_fixator_audit(c5_z2, c5_mixed):
    assert wall_fixator_audit(build_ball(c5_z2, 2), 2).ok
    assert wall_fixator_audit(build_ball(c5_mixed, 2), 2).ok


_FIXATOR_MUTANT = """
import json, sys
from cyclewall import walls
from cyclewall.davis import build_ball
from cyclewall.localgroups import cyclic_group
from cyclewall.words import Presentation
walls.parabolic_member = lambda g, ref: g.is_identity   # a wrong edge stabilizer
p = Presentation(tuple(cyclic_group(2) for _ in range(5)))
report = walls.wall_fixator_audit(build_ball(p, 1), 1)
print(json.dumps({"optimize": sys.flags.optimize,
                  "failed": sorted({r.check_id for r in report.failures})}))
"""


def test_fixator_audit_fails_on_a_wrong_edge_stabilizer_under_python_O():
    """The fixator comparison is an explicit check, so ``python -O`` keeps it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", _FIXATOR_MUTANT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"optimize": 1,
                               "failed": ["walls.fixator-is-edge-stabilizer"]}


def test_stabilizer_of_central_wall_at_length_one(c5_mixed):
    p = c5_mixed
    b = build_ball(p, 2)
    w = central_walls(b)[2]
    got = wall_stabilizer_truncated(b, w, 1)
    expect = {identity(p)} | {
        parse_word(p, f"v{i}:{x}")
        for i in (1, 2, 3) for x in p.group(i).nontrivial_elements()}
    assert got == expect


def test_stabilizer_cache_tells_part_of_a_wall_from_the_wall(c5_mixed):
    p = c5_mixed
    b = build_ball(p, 2)
    w = central_walls(b)[2]
    part = TreeWall(b.table, w.label, w.key_rep, w.ids[:1])
    assert (part.label, part.key_rep) == (w.label, w.key_rep) and part.ids != w.ids
    whole = wall_stabilizer_truncated(b, w, 2)
    fresh = wall_stabilizer_truncated(build_ball(p, 2), part, 2)
    assert wall_stabilizer_truncated(b, part, 2) == fresh != whole


def test_stabilizer_audit(c5_z2, c5_mixed):
    assert wall_stabilizer_audit(build_ball(c5_z2, 2), 2).ok
    assert wall_stabilizer_audit(build_ball(c5_mixed, 2), 2).ok


# Cells of the scan cross-check: (presentation, radius, L).  The scans try
# every element of B(L) on every wall and subgroup, so the costlier cells
# stay out: c5_s3, c5_z3 and c6_mixed past L = 2, c6_z2 past L = 3, and
# radius 3 but for c5_mixed and c5_z2.
SCAN_CELLS = (
    [(name, 2, L) for name in ("c5_mixed", "c5_z2") for L in (1, 2, 3, 4)]
    + [("c6_z2", 2, L) for L in (1, 2, 3)]
    + [(name, 2, L) for name in ("c5_s3", "c5_z3", "c6_mixed") for L in (1, 2)]
    + [(name, 3, 3) for name in ("c5_mixed", "c5_z2")])


@pytest.mark.parametrize("name,radius,L", SCAN_CELLS)
def test_stabilizers_and_parabolic_balls_match_the_scans(name, radius, L):
    """Reading the short u·x·f·u^-1 off each wall's key u gives every
    wall's truncated stabilizer the element-ball scan gives, and
    conjugating the window ball gives every truncated subgroup the walls
    audits ask for: each wall's stabilizer and fixator, and the medium of
    each wall vertex."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    subgroups = set()
    for T in walls_of_ball(b):
        assert wall_stabilizer_truncated(b, T, L) == \
            wall_stabilizer_by_scan(b, T, L), T.key_string()
        subgroups |= {T.stabilizer, T.fixator}
        subgroups |= {medium_of_vertex(v) for v in wall_objects(b, T).vertex_set}
    for H in sorted(subgroups, key=subgroup_sort_key):
        assert walls._parabolic_ball(b, H, L) == \
            parabolic_ball_by_scan(b, H, L), H.key_string()


# Cells of the transporter and conjugation cross-checks: radii the scan
# cells skip, and cells where keys longer than (L + 1) / 2 keep elements
# shorter than 2|u| - 1 (c5_z2 r4 L = 3) or where most products are skipped
# by length (c5_z3 r3 L = 1).
TRANSPORTER_CELLS = [("c5_z3", 3, 3), ("c6_mixed", 3, 3), ("c5_z3", 4, 2),
                     ("c5_z2", 4, 3), ("c5_z3", 3, 1)]


@pytest.mark.parametrize("name,radius,L", TRANSPORTER_CELLS)
def test_stabilizers_match_the_transporter_oracle(name, radius, L):
    """Reading the short u·x·f·u^-1 off each wall's key u gives the
    transporters r'·x·r^-1 between every pair of the wall's edges."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    for T in walls_of_ball(b):
        assert wall_stabilizer_truncated(b, T, L) == \
            wall_stabilizer_by_transporters(b, T, L), T.key_string()


@pytest.mark.parametrize("name,radius,L", TRANSPORTER_CELLS)
def test_parabolic_balls_match_the_conjugation_oracle(name, radius, L):
    """Skipping each h whose conjugate Green's length formula makes longer
    than L gives the truncated stabilizer and fixator of every wall that
    multiplying out every w·h·w^-1 gives."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    for T in walls_of_ball(b):
        for H in (T.stabilizer, T.fixator):
            assert walls._parabolic_ball(b, H, L) == \
                parabolic_ball_by_conjugation(b, H, L), H.key_string()


def kept_by_long_keys(name, radius, L):
    """Wall -> the nontrivial elements of its truncated stabilizer, for the
    walls whose key u is longer than (L + 1) / 2.  A bound
    |u·h·u^-1| >= 2|u| - 1 would leave this empty."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    kept = {}
    for T in walls_of_ball(b):
        if 2 * T.key_rep.syllable_length > L + 1:
            short = {format_word(g) for g in wall_stabilizer_truncated(b, T, L)
                     if not g.is_identity}
            if short:
                kept[T.key_string()] = short
    return kept


# (presentation, radius, L, walls kept by long keys, a wall and an element
# it keeps that is shorter than 2|u| - 1)
LONG_KEY_CELLS = [("c5_z2", 3, 1, 10, "T0@v0:1 v2:1", "v1:1"),
                  ("c5_z2", 4, 3, 30, "T0@v0:1 v1:1 v3:1", "v1:1 v4:1 v1:1")]


@pytest.mark.parametrize("name,radius,L,count,wall,element", LONG_KEY_CELLS)
def test_long_keys_keep_short_stabilizer_elements(name, radius, L, count, wall, element):
    """More than one syllable of a key can commute with a stabilizer
    element: u = v0:1 v2:1 commutes with v1:1, so the wall T0@v0:1 v2:1
    keeps v1:1, of length 1 < 2|u| - 1."""
    kept = kept_by_long_keys(name, radius, L)
    assert len(kept) == count
    assert element in kept[wall]


def test_long_key_test_fails_when_long_keys_are_skipped(monkeypatch):
    """A stabilizer that keeps only the identity for keys longer than
    (L + 1) / 2, as the bound |u·h·u^-1| >= 2|u| - 1 would allow, fails
    the long-key test and the stabilizer audit."""
    real = walls._wall_stabilizer

    def skips_long_keys(b, T, L):
        if 2 * T.key_rep.syllable_length > L + 1:
            return frozenset({identity(b.presentation)})
        return real(b, T, L)

    monkeypatch.setattr(walls, "_wall_stabilizer", skips_long_keys)
    for name, radius, L, *_ in LONG_KEY_CELLS:
        assert kept_by_long_keys(name, radius, L) == {}
    p = load_presentation(str(PRESENTATIONS / "c5_z2.json"))
    rows = stabilizer_rows(wall_stabilizer_audit(build_ball(p, 3), 1))
    assert rows["T0@v0:1 v2:1 L=1"].status == "fail"


def stabilizer_rows(report):
    return {r.instance: r for r in report.results
            if r.check_id == "walls.stabilizer-is-three-vertex-parabolic"}


def test_stabilizer_audit_is_inconclusive_past_the_horizon(c5_mixed):
    """At L >= 2r + 1 the parabolic holds elements that move no wall edge
    into the ball; such rows are inconclusive, with those elements as the
    witness, and no row fails."""
    b = build_ball(c5_mixed, 1)
    report = wall_stabilizer_audit(b, 3)
    assert not report.failures and report.inconclusive
    by_key = {T.key_string(): T for T in walls_of_ball(b)}
    for row in report.inconclusive:
        T = by_key[row.instance.split()[0]]
        unobservable = [parse_word(c5_mixed, w) for w in row.witness["unobservable"]]
        assert unobservable
        assert all(walls._stabilizes_wall(b, g, T) is None for g in unobservable)


@pytest.mark.parametrize("radius", range(4))
@pytest.mark.parametrize("name", SIX)
def test_an_edge_is_in_the_ball_iff_its_rep_is_short(name, radius):
    """The length rule ``_stabilizes_wall`` reads: for every g in B(r + 2)
    and label i, the edge (i, coset_rep(g, {i})) is an edge of the ball's
    table iff its rep has length <= r."""
    p = load_presentation(str(PRESENTATIONS / f"{name}.json"))
    t = build_ball(p, radius).table
    edges = set(zip(t.edges[0::4], map(t.reps.__getitem__, t.edges[1::4])))
    seen = set()
    for g in enumerate_ball_elements(p, radius + 2):
        for i in range(p.n):
            m = coset_rep(g, {i})
            short = m.syllable_length <= radius
            assert ((i, m) in edges) == short, (i, format_word(m))
            seen.add(short)
    assert seen == {True, False}


def test_stabilizer_audit_fails_when_the_guard_accepts_everything(c5_mixed, monkeypatch):
    """Every transporter between edges of one wall stabilizes it, so a guard
    that accepts every candidate shows where the audit asks it whether an
    element of the parabolic is observable: past the horizon, where each
    radius-1 row is inconclusive without the mutant."""
    monkeypatch.setattr(walls, "_stabilizes_wall", lambda b, g, T: True)
    rows = stabilizer_rows(wall_stabilizer_audit(build_ball(c5_mixed, 1), 3))
    assert rows and {r.status for r in rows.values()} == {"fail"}


def test_stabilizer_audit_reads_the_walls_edges(c5_mixed, monkeypatch):
    """A stabilizer that keeps every f of the L-ball of G_{i-1} * G_{i+1},
    not only those moving one wall edge onto another, is the whole
    truncated parabolic, with the elements that move no wall edge into the
    ball: so each central radius-1 row, inconclusive without the mutant,
    passes, and the geometric side reads the ball's edges."""
    p = c5_mixed
    clean = stabilizer_rows(wall_stabilizer_audit(build_ball(p, 1), 3))

    def ignores_the_edges(b, T, L):
        i, u = T.label, T.key_rep
        local = [identity(p)] + [from_syllable(p, i, x)
                                 for x in p.group(i).nontrivial_elements()]
        F_L = enumerate_ball_elements(p, L, {(i - 1) % p.n, (i + 1) % p.n})
        conjugates = (mul(u, x, f, inv(u)) for f in F_L for x in local)
        return frozenset(g for g in conjugates if g.syllable_length <= L)

    monkeypatch.setattr(walls, "_wall_stabilizer", ignores_the_edges)
    mutated = stabilizer_rows(wall_stabilizer_audit(build_ball(p, 1), 3))
    central = [f"T{i}@e L=3" for i in range(p.n)]
    assert {clean[k].status for k in central} == {"inconclusive"}
    assert {mutated[k].status for k in central} == {"pass"}


@pytest.mark.parametrize("radius,L", [(2, 3), (1, 3)])
def test_stabilizer_audit_fails_on_a_wrong_membership_rule(c5_mixed, monkeypatch, radius, L):
    monkeypatch.setattr(walls, "parabolic_member", lambda g, H: g.is_identity)
    report = wall_stabilizer_audit(build_ball(c5_mixed, radius), L)
    assert {r.status for r in stabilizer_rows(report).values()} == {"fail"}


def test_stabilizer_audit_fails_on_a_dropped_observable_element(c5_mixed, monkeypatch):
    """Dropping a syllable of the wall's own label, which fixes the wall's
    central edge, from the algebraic side of a central wall fails its row,
    also where the row is inconclusive without the mutant."""
    p = c5_mixed
    clean = stabilizer_rows(wall_stabilizer_audit(build_ball(p, 1), 3))
    real = walls._parabolic_ball

    def dropped(b, H, L):
        got = real(b, H, L)
        if H.tier == MAXIMAL and H.conjugator.is_identity:
            got -= {parse_word(p, f"v{H.base}:1")}
        return got

    monkeypatch.setattr(walls, "_parabolic_ball", dropped)
    mutated = stabilizer_rows(wall_stabilizer_audit(build_ball(p, 1), 3))
    central = [f"T{i}@e L=3" for i in range(p.n)]
    assert {clean[k].status for k in central} == {"inconclusive"}
    assert {mutated[k].status for k in central} == {"fail"}
    assert all(f"v{i}:1" in mutated[f"T{i}@e L=3"].witness["geometric_only"]
               for i in range(p.n))


def test_pair_stabilizer_classification(c5_z2):
    b = build_ball(c5_z2, 2)
    cg = crossing_graph(b)
    cent = central_indices(cg)
    r = classify_pair(b, cg, cent[0], cent[1], 2)
    assert r.ok and {x.check_id for x in r.results} == {
        "walls.crossing-walls-meet-once",
        "walls.pair-stabilizer-delta1-is-vertex-stabilizer"}
    r = classify_pair(b, cg, cent[1], cent[3], 2)
    assert r.ok and r.results[0].check_id == \
        "walls.pair-stabilizer-delta2-is-connecting-fixator"


def test_crossing_pair_with_two_shared_vertices_fails_to_meet_once(c5_z2):
    """A crossing pair given a second shared vertex id in the crossing graph
    fails its meet-once row, with both vertices as the witness."""
    b = build_ball(c5_z2, 2)
    cg = crossing_graph(b)
    cent = central_indices(cg)
    xs = cg.crossings[cent[0], cent[1]]
    xs.append(xs[0] + 1)
    r = classify_pair(b, cg, cent[0], cent[1], 2)
    [failure] = [x for x in r.failures if x.check_id == "walls.crossing-walls-meet-once"]
    assert failure.witness == [objects(b).vertices[x].key_string() for x in xs]


def test_pair_stabilizer_delta2_is_middle_vertex_group(c5_z2):
    p = c5_z2
    b = build_ball(p, 2)
    cent = central_walls(b)
    inter = (wall_stabilizer_truncated(b, cent[1], 2)
             & wall_stabilizer_truncated(b, cent[3], 2))
    assert inter == {identity(p), parse_word(p, "v2:1")}


def test_far_pair_with_a_shared_stabilizer_element_is_inconclusive(c5_z2, monkeypatch):
    """An observed distance >= 3 only bounds the true one, so a non-trivial
    pair stabilizer there is reported inconclusive, never failed."""
    b = build_ball(c5_z2, 2)
    cg = crossing_graph(b)
    cent = central_indices(cg)
    # a crossing pair shares a vertex stabilizer; the ball is made to see it far
    monkeypatch.setattr(walls, "delta", lambda cg, k1, k2: (3, False))
    r = classify_pair(b, cg, cent[0], cent[1], 2)
    assert [(x.check_id, x.status) for x in r.results] == [
        ("walls.pair-stabilizer-far-trivial", "inconclusive")]
    assert len(r.results[0].witness["intersection"]) > 1


def test_far_pair_search_in_radius_three(c5_z2):
    # hunt a distance >= 3 pair; if the horizon hides one, report, don't fail
    p = c5_z2
    b = build_ball(p, 3)
    cg = crossing_graph(b)
    far = []
    for k1, k2 in itertools.combinations(range(len(cg.walls)), 2):
        d, _ = delta(cg, k1, k2)
        if d >= 3:
            far.append((k1, k2, d))
    if not far:
        pytest.skip("no distance >= 3 pair within this horizon")
    k1, k2, d = far[0]
    r = classify_pair(b, cg, k1, k2, 2)
    assert not r.failures  # pass or honestly inconclusive


# -- minimal sets -----------------------------------------------------------------


def test_min_set_of_crossing_pair_is_the_intersection(c5_z2):
    b = build_ball(c5_z2, 2)
    cent = central_walls(b)
    closest, d, diam = min_set(b, cent[0], cent[1])
    assert d == 0 and diam == 0 and len(closest) == 1
    assert closest == cent[0].vertex_set & cent[1].vertex_set


def test_derived_structures_are_built_once_per_ball(c5_z2):
    b = build_ball(c5_z2, 2)
    assert subdivision(b) is subdivision(b)
    first, again = walls_of_ball(b), walls_of_ball(b)
    assert first == again and all(x is y for x, y in zip(first, again))
    assert subdivision(build_ball(c5_z2, 2)) is not subdivision(b)


def test_min_set_audit(c5_z2, c5_mixed):
    b = build_ball(c5_z2, 2)
    assert min_set_audit(b, crossing_graph(b)).ok
    b = build_ball(c5_mixed, 2)
    assert min_set_audit(b, crossing_graph(b)).ok


def test_min_set_audit_fails_on_a_wide_minimal_set(c5_z2, monkeypatch):
    b = build_ball(c5_z2, 2)
    exact = walls.min_set

    def wide(b, T1, T2):
        closest, d, diam = exact(b, T1, T2)
        return closest, d, diam if d == 0 else 2 * d + 1

    monkeypatch.setattr(walls, "min_set", wide)
    r = min_set_audit(b, crossing_graph(b))
    assert {x.check_id for x in r.failures} == {"walls.min-set-diameter"}
    assert all(x.witness["diameter"] == 2 * x.witness["distance"] + 1 for x in r.failures)


def test_min_set_audit_fails_when_crossing_walls_are_close_along_more_than_a_vertex(
        c5_z2, monkeypatch):
    b = build_ball(c5_z2, 2)
    exact = walls.min_set

    def spread(b, T1, T2):
        closest, d, diam = exact(b, T1, T2)
        return (T1.vertex_set if d == 0 else closest), d, diam

    monkeypatch.setattr(walls, "min_set", spread)
    r = min_set_audit(b, crossing_graph(b))
    assert {x.check_id for x in r.failures} == {"walls.min-set-of-crossing-pair"}


# -- hyperplanes --------------------------------------------------------------------


def test_hyperplane_classes_partition_edges(c5_z2):
    b = build_ball(c5_z2, 1)
    classes = hyperplane_classes(b)
    assert sorted(e for c in classes.values() for e in c) == list(range(len(subdivide(b).edges)))


def test_hyperplane_treewall_audit(c5_z2, c5_mixed):
    assert hyperplane_treewall_audit(build_ball(c5_z2, 2)).ok
    assert hyperplane_treewall_audit(build_ball(c5_mixed, 1)).ok


@pytest.mark.parametrize("name,radius", [(name, r) for name in
                                          sorted(p.stem for p in PRESENTATIONS.glob("*.json"))
                                          for r in range(3)] + [("c5_z3", 3)])
def test_hyperplane_treewall_audit_matches_the_per_class_oracle(name, radius):
    """One pass over the squares gives the report, row for row, that
    2-coloring each class's sides on its own gives."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    want = hyperplane_treewall_by_classes(b)
    got = hyperplane_treewall_audit(b)
    assert json.dumps([r.to_dict() for r in got.results]) == \
        json.dumps([r.to_dict() for r in want.results])
    assert got.to_json() == want.to_json()


def test_one_sided_hyperplane_is_a_failed_check(c5_z2):
    """Square 0 listed from its second midpoint, (m_1, c, m_0, v): its four
    sides and so its two classes are as before, but it puts each class's
    midpoints on the sides its neighbours do not."""
    b = build_ball(c5_z2, 1)
    x = subdivision(b)
    m_0, v, m_1, c = x.squares[:4]
    x.squares[0], x.squares[1], x.squares[2], x.squares[3] = m_1, c, m_0, v
    r = hyperplane_treewall_audit(b)
    assert len(r.failures) == 2
    for f in r.failures:
        assert f.check_id == "walls.hyperplane-side-is-wall"
        assert f.witness["error"] == "hyperplane sides are inconsistent"
        assert f.witness["at"][1] in {x.vertex_key(m_0), x.vertex_key(m_1)}


def test_broken_hyperplane_is_a_failed_check(c5_z2):
    """Square 0 with its center corner replaced by its X-vertex,
    (m_0, v, m_1, v): its two halves are each other's opposite sides, so
    its two classes are one."""
    b = build_ball(c5_z2, 1)
    x = subdivision(b)
    x.squares[3] = x.squares[1]
    r = hyperplane_treewall_audit(b)
    assert [x.check_id for x in r.failures] == ["walls.hyperplane-side-is-wall"]
    assert r.failures[0].witness["error"] == \
        "a square meets a hyperplane in opposite sides"
    assert r.failures[0].witness["at"] == [subdivide(b).squares[0].name()]


def test_misread_half_label_fails_its_hyperplanes(c5_z2, monkeypatch):
    """An interior half read with the next label splits the labels of each
    hyperplane it runs along; the per-class oracle names those rows."""
    b = build_ball(c5_z2, 2)
    x = subdivision(b)
    n = c5_z2.n
    star = next(s for s, inner in enumerate(x.interior_edges())
                if inner and x.label(s) is not None)
    true_label = x.label(star)
    classes = hyperplane_classes(b)
    along = [f"hyperplane#{idx}" for idx, root in enumerate(sorted(classes, key=x.edge_ends))
             if any(star in side for side in combinatorial_hyperplanes(b, classes[root]))]
    assert along
    label = Subdivision.label
    monkeypatch.setattr(Subdivision, "label", lambda self, s: (true_label + 1) % n
                        if s == star else label(self, s))
    r = hyperplane_treewall_audit(b)
    assert [f.instance for f in r.failures] == along
    for f in r.failures:
        assert f.check_id == "walls.hyperplane-side-is-wall"
        assert f.witness == {"sides_in_skeleton": 0,
                             "side_labels": [sorted([str(true_label), str((true_label + 1) % n)]),
                                             ["None"]]}


def test_square_missing_a_side_is_a_failed_check(c5_z2):
    """Square 0 with its second side (v to m_{i+1}) listed as its first."""
    b = build_ball(c5_z2, 1)
    x = subdivision(b)
    x.squares[5] = x.squares[4]
    r = hyperplane_treewall_audit(b)
    assert [(f.check_id, f.instance) for f in r.failures] == [
        ("walls.hyperplane-side-is-wall", "classes")]
    assert r.failures[0].witness["error"] == "square is missing one of its sides"
    s = subdivide(b).squares[0]
    assert r.failures[0].witness["at"] == [s.name(), s.corners[1].key_string(),
                                           s.corners[2].key_string()]


# -- membership criteria ----------------------------------------------------------


def test_vertex_stabilizer_criterion(c5_z2, c5_mixed):
    r = vertex_stabilizer_criterion_audit(build_ball(c5_z2, 2))
    assert r.ok and "pairs=" in r.results[0].instance
    assert vertex_stabilizer_criterion_audit(build_ball(c5_mixed, 2)).ok


def test_vertex_stabilizer_criterion_at_radius_three(c5_z2):
    # a vertex stabilizer cut at length 2 stabilizes walls off the vertex here;
    # the exact rule does not depend on a cut
    r = vertex_stabilizer_criterion_audit(build_ball(c5_z2, 3))
    assert r.ok and r.results[0].instance == "pairs=800"


@pytest.mark.parametrize("make", [presentation_c5_z2, presentation_c5_mixed],
                         ids=["c5_z2", "c5_mixed"])
def test_vertex_stabilizer_criterion_matches_truncated_sweep(make):
    """Where the vertex stabilizer cut at length 2 decides whether it
    stabilizes a wall in a radius-2 ball, it agrees with the exact rule."""
    p = make()
    b = object_ball(p, 2)
    ws = [(T, wall_objects(b, T)) for T in walls_of_ball(b)]
    ball = enumerate_ball_elements(p, 2)
    seen = set()
    for v in sorted(b.interior_vertices):
        medium = medium_of_vertex(v)
        stab_v = [g for g in ball if parabolic_member(g, medium)]
        maximals = containing_maximals(medium)
        for T, W in ws:
            swept = sweep_stabilizes_wall(b, stab_v, W)
            if swept is None:
                continue
            exact = CSubgroup(MAXIMAL, T.label, T.key_rep) in maximals
            assert swept == exact == (v in W.vertex_set), (v.key_string(), T.key_string())
            seen.add(exact)
    assert seen == {True, False}


def test_vertex_stabilizer_criterion_fails_on_a_wall_missing_a_vertex(c5_z2, monkeypatch):
    """The first wall without its edges at its least interior vertex v: v
    leaves its vertex ids, and every other interior vertex of the wall keeps
    an edge, so v alone is the witness."""
    b = build_ball(c5_z2, 2)
    t = b.table
    ws = walls_of_ball(b)
    T = ws[0]
    v = min(T.vertex_set & set(t.interior_vertices()))
    ws[0] = TreeWall(t, T.label, T.key_rep, array(
        "i", (e for e in T.ids if v not in t.ends(e))))
    assert v not in ws[0].vertex_set
    monkeypatch.setattr(walls, "walls_of_ball", lambda _b: ws)
    r = vertex_stabilizer_criterion_audit(b)
    assert [x.check_id for x in r.failures] == ["walls.vertex-stabilizer-detects-membership"]
    assert r.failures[0].witness == [(objects(b).vertices[v].key_string(), T.key_string(), True)]


VERTEX_STABILIZER_CASES = [(name, 2) for name in SIX] + [("c5_z3", 3), ("c6_mixed", 3)]


@pytest.mark.parametrize("name,radius", VERTEX_STABILIZER_CASES,
                         ids=[f"{name}-r{r}" for name, r in VERTEX_STABILIZER_CASES])
def test_vertex_stabilizer_criterion_matches_the_pairwise_oracle(name, radius):
    """The audit read from the indexes of the walls by stabilizer and by
    vertex gives the report that testing every (vertex, wall) pair gives."""
    b = build_ball(load_presentation(str(PRESENTATIONS / f"{name}.json")), radius)
    got = vertex_stabilizer_criterion_audit(b)
    assert got.ok and got.results == vertex_stabilizer_by_pairs(b).results


def test_vertex_stabilizer_criterion_fails_on_a_vertex_missing_from_the_index(
        c5_z2, monkeypatch):
    """The index of the walls through each vertex without the first wall at
    its least interior vertex v: the audit fails with (v, that wall) as the
    witness, where the pairwise oracle passes."""
    b = build_ball(c5_z2, 2)
    t = b.table
    T = walls_of_ball(b)[0]
    v = min(T.vertex_set & set(t.interior_vertices()))
    exact = walls._walls_at

    def dropped(ws):
        at = exact(ws)
        at[v] = [k for k in at[v] if k != 0]
        return at

    monkeypatch.setattr(walls, "_walls_at", dropped)
    r = vertex_stabilizer_criterion_audit(b)
    assert vertex_stabilizer_by_pairs(b).ok
    assert [x.check_id for x in r.failures] == ["walls.vertex-stabilizer-detects-membership"]
    assert r.failures[0].witness == [(t.vertex_key(v), T.key_string(), True)]


def test_vertex_stabilizer_criterion_reads_the_maximals_once_per_vertex(c5_z3, monkeypatch):
    """The two containing maximals are read once per interior vertex, not
    once per (vertex, wall) pair."""
    b = build_ball(c5_z3, 3)
    calls = []

    def counted(h):
        calls.append(h)
        return containing_maximals(h)

    monkeypatch.setattr(walls, "containing_maximals", counted)
    assert vertex_stabilizer_criterion_audit(b).ok
    assert len(walls_of_ball(b)) > 1
    assert len(calls) == len(b.table.interior_vertices())


def test_adjacency_criterion(c5_z2):
    r = adjacency_criterion_audit(build_ball(c5_z2, 2))
    assert r.ok


@pytest.mark.parametrize("make, radius, closure, verdicts", [
    (presentation_c5_z2, 2, sweep_closure, {True}),
    (presentation_c5_mixed, 2, sweep_closure, {True}),
    # at radius 3 some interior pairs are far apart, and some adjacent pairs
    # need derived factors that only the pairwise-harvest closure finds
    (presentation_c5_z2, 3, bounded_closure, {True, False}),
    (presentation_c5_mixed, 3, bounded_closure, {True, False}),
], ids=["c5_z2-r2", "c5_mixed-r2", "c5_z2-r3", "c5_mixed-r3"])
def test_exact_generation_matches_bounded_closure(make, radius, closure, verdicts):
    """closure(stab_x u stab_y, 3) == stab_T up to length 3 exactly when the
    vertices' mediums join to the wall's maximal, for every pair of interior
    vertices on a wall."""
    p = make()
    b = object_ball(p, radius)
    ball = enumerate_ball_elements(p, 3)

    def members(ref):
        return {g for g in ball if parabolic_member(g, ref)}

    seen = set()
    for T in walls_of_ball(b):
        stab_T = members(T.stabilizer)
        wall = CSubgroup(MAXIMAL, T.label, T.key_rep)
        verts = sorted(v for v in wall_objects(b, T).vertex_set if v in b.interior_vertices)
        for x, y in itertools.combinations(verts, 2):
            hx, hy = medium_of_vertex(x), medium_of_vertex(y)
            joined, maximal = join_is_cmaximal(hx, hy)
            exact = joined and maximal == wall
            gens = members(hx) | members(hy)
            assert (closure(p, gens, 3) == stab_T) == exact, \
                (T.key_string(), x.key_string(), y.key_string())
            seen.add(exact)
    assert seen == verdicts


def test_min_set_matches_networkx_oracle(c5_mixed):
    b = build_ball(c5_mixed, 2)
    for T1, T2 in itertools.combinations(walls_of_ball(b), 2):
        assert min_set(b, T1, T2) == min_set_networkx(b, T1, T2), \
            (T1.key_string(), T2.key_string())


@pytest.fixture(scope="module")
def audited_min_sets():
    """The c5_z3 radius-3 ball, its walls, the pairs ``min_set_audit``
    reads, and the networkx oracle's minimal set of each pair."""
    b = build_ball(load_presentation(str(PRESENTATIONS / "c5_z3.json")), 3)
    ws = walls_of_ball(b)
    pairs = list(itertools.islice(itertools.combinations(ws, 2), walls.MIN_SET_PAIRS))
    return b, {(T1, T2): min_set_networkx(b, T1, T2) for T1, T2 in pairs}


def min_set_mismatches(b, oracle):
    return [(T1.key_string(), T2.key_string()) for (T1, T2), want in oracle.items()
            if min_set(b, T1, T2) != want]


def test_min_set_matches_networkx_oracle_on_the_audited_pairs(audited_min_sets):
    """At c5_z3 radius 3, the minimal set of each pair ``min_set_audit``
    reads, as the CSR skeleton gives it, is the networkx oracle's."""
    b, oracle = audited_min_sets
    assert len(oracle) == walls.MIN_SET_PAIRS
    assert {d for _, d, _ in oracle.values()} == {0, 4, 6, 8}
    assert min_set_mismatches(b, oracle) == []


def test_min_set_oracle_fails_on_a_skeleton_missing_an_edge(audited_min_sets, monkeypatch):
    """A skeleton without the half of X' edge 0, from the central X-vertex
    to a midpoint, gives some audited pair another minimal set."""
    b, oracle = audited_min_sets
    real = walls._skeleton

    def drops_an_edge(b):
        neighbors, cut = real(b), set(subdivision(b).edge_ends(0))
        return lambda v: [w for w in neighbors(v) if {v, w} != cut]

    monkeypatch.setattr(walls, "_skeleton", drops_an_edge)
    assert min_set_mismatches(b, oracle)


def test_adjacency_criterion_fails_on_a_wall_missing_an_edge(c5_z2, monkeypatch):
    b = object_ball(c5_z2, 2)
    ws = walls_of_ball(b)
    k, T, cut = next((k, T, e) for k, T in enumerate(ws)
                     for e in sorted(wall_objects(b, T).edges)
                     if all(v in b.interior_vertices for v in e.ends))
    rest = wall_objects(b, T).edges - {cut}
    ws[k] = wall_view(b, ObjectWall(T.label, min(rest), rest, T.key_rep))
    monkeypatch.setattr(walls, "walls_of_ball", lambda _b: ws)
    r = adjacency_criterion_audit(b)
    assert [x.check_id for x in r.failures] == ["walls.generation-detects-adjacency"]
    assert r.failures[0].witness == [
        (cut.ends[0].key_string(), cut.ends[1].key_string(), True, False)]
