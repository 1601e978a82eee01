import dataclasses
import itertools
import json
import operator
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclewall import davis, diagrams, walls
from cyclewall.cli import EXIT_FAIL, davis_suite, load_presentation, run_suite
from cyclewall.cli import main as cli_main
from cyclewall.davis import (
    EDGE,
    POLY,
    TRIVIAL,
    act_vertex,
    ball_table,
    ball_to_json,
    build_ball,
    free_face_audit,
    incidence,
    iter_ball_dot,
    iter_ball_json,
    links_audit,
    polygon_pair_audit,
    subdivision,
    t4_audit,
)
from cyclewall.errors import InvariantError, ResourceLimitError, ValidationError
from cyclewall.walls import crossing_graph, wall_no_shared_polygon_audit, walls_of_ball
from cyclewall.words import (
    coset_rep,
    enumerate_ball_elements,
    format_word,
    identity,
    mul,
    parse_word,
    reduce_word,
)

from conftest import DAVIS_CLASSES, classes_defined_in
from oracles import (
    ComplexEdge,
    ComplexVertex,
    Polygon,
    act_edge,
    act_vertex_object,
    ball_to_dot_by_walk,
    ball_to_json_by_dumps,
    build_ball_by_coset_reps,
    graph_girth,
    hyperplane_classes,
    hyperplane_classes_by_components,
    incidence_by_sort,
    index_by_cells,
    interior_by_enumeration,
    link_is_closed_form,
    object_ball,
    objects,
    polygon_pairs_by_objects,
    polygons_at,
    polygons_containing_edge,
    square_link,
    subdivide,
    subdivision_interior_inherited,
    vertex_link,
    wall_objects,
    x_edge,
    x_vertex,
)

PRESENTATIONS = Path(__file__).parent.parent / "perfbench" / "presentations"
SIX = ["c5_z2", "c5_z3", "c5_mixed", "c5_s3", "c6_z2", "c6_mixed"]


def perfbench_presentation(name):
    return load_presentation(str(PRESENTATIONS / f"{name}.json"))


def random_element(rng, p, max_len):
    alphabet = list(p.syllables())
    return reduce_word(p, [rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1))])


# -- construction ---------------------------------------------------------------


def test_ball_radius_one_all_z2_has_six_polygons(c5_z2):
    b = object_ball(c5_z2, 1)
    assert len(b.polygons) == 6
    assert identity(c5_z2) in b.polygons
    # every polygon has 5 distinct corners and 5 distinct sides
    for g, poly in b.polygons.items():
        assert len(set(poly.boundary)) == 5
        assert len(set(poly.edges)) == 5


def test_ball_polygon_count_matches_ball_enumeration(c5_mixed):
    for r in (0, 1, 2):
        b = object_ball(c5_mixed, r)
        assert set(b.polygons) == set(enumerate_ball_elements(c5_mixed, r))


def ball_differences(b, oracle) -> list[str]:
    """The parts in which two polygonal balls differ, ``b``'s incidence maps
    compared with the ones ``index_by_cells`` fills from the oracle's
    polygons; 2-cells, which compare by identity, are named by their rep."""
    def by_rep(cells):
        return {key: [c.rep for c in cs] for key, cs in cells.items()}

    _, edge_cells, vertex_edges = index_by_cells(
        oracle, ((P, P.boundary) for P in oracle.polygons.values()))
    parts = {
        "vertices": (b.vertices, oracle.vertices),
        "edges": (b.edges, oracle.edges),
        "polygons": ([(g, P.boundary, P.edges) for g, P in b.polygons.items()],
                     [(g, P.boundary, P.edges) for g, P in oracle.polygons.items()]),
        "interior": ((b.interior_vertices, b.interior_edges),
                     (oracle.interior_vertices, oracle.interior_edges)),
        "edge_cells": (by_rep(b.edge_cells), by_rep(edge_cells)),
        "vertex_edges": (b.vertex_edges, vertex_edges),
        # one object per cell, shared by the polygons around it
        "shared": ((len({id(v) for P in b.polygons.values() for v in P.boundary}),
                    len({id(e) for P in b.polygons.values() for e in P.edges})),
                   (len(b.vertices), len(b.edges))),
    }
    return [name for name, (got, want) in parts.items() if got != want]


BALL_ORACLE_CASES = [(name, r) for name in SIX for r in range(4)] + [("c5_z3", 4)]


@pytest.mark.parametrize("name,radius", [(name, r) for name in SIX for r in range(3)]
                         + [("c5_z3", 3)])
def test_subdivision_is_made_in_key_order(name, radius):
    """X''s vertex and edge lists, made unsorted, equal their sorted lists,
    and hold the very cells its squares hold, each once."""
    sq = subdivide(build_ball(perfbench_presentation(name), radius))
    assert sq.vertices == sorted(sq.vertices, key=lambda v: v.sort_key())
    assert sq.edges == sorted(sq.edges, key=lambda e: e.sort_key())
    for cells, of in ((sq.vertices, operator.attrgetter("corners")),
                      (sq.edges, operator.attrgetter("edges"))):
        assert len(set(map(id, cells))) == len(cells)
        assert set(map(id, cells)) == {id(c) for s in sq.squares for c in of(s)}


@pytest.mark.parametrize("name,radius", BALL_ORACLE_CASES)
def test_build_ball_matches_the_coset_rep_oracle(name, radius):
    """The ball matches the oracle's."""
    p = perfbench_presentation(name)
    b = object_ball(p, radius)
    assert ball_differences(b, build_ball_by_coset_reps(p, radius)) == []


def integer_subdivision_differences(b) -> list[str]:
    """Where ``subdivision(b)`` differs from the square-ball oracle, by key
    strings: its squares' corners and sides, its interior vertices and
    edges, and its hyperplane classes."""
    x, sq = subdivision(b), subdivide(b)
    records = list(zip(*[iter(x.squares)] * 8))
    interior_vertices = {x.vertex_key(v) for v, inner in enumerate(x.interior_vertices()) if inner}
    interior_edges = {x.edge_key(s) for s, inner in enumerate(x.interior_edges()) if inner}
    classes = {frozenset(map(x.edge_key, c)) for c in hyperplane_classes(b).values()}
    parts = {
        "squares": ([([x.vertex_key(c) for c in r[:4]], [x.edge_key(s) for s in r[4:]], x.square_name(q))
                     for q, r in enumerate(records)],
                    [([c.key_string() for c in s.corners], [e.key_string() for e in s.edges], s.name())
                     for s in sq.squares]),
        "interior vertices": (interior_vertices, {v.key_string() for v in sq.interior_vertices}),
        "interior edges": (interior_edges, {e.key_string() for e in sq.interior_edges}),
        "edge order": ([x.edge_key(s) for s in sorted(x.edge_ids(), key=x.edge_ends)],
                       [e.key_string() for e in sq.edges]),
        "hyperplanes": (classes, hyperplane_classes_by_components(sq)),
    }
    return [name for name, (got, want) in parts.items() if got != want]


@pytest.mark.parametrize("name,radius", [(name, r) for name in SIX for r in range(3)]
                         + [("c5_z3", 3)])
def test_integer_subdivision_matches_the_square_ball_oracle(name, radius):
    """Every integer square has the oracle square's corner and side key
    strings and name; the interior vertex and edge sets, the edges' key
    order and the hyperplane classes agree."""
    b = build_ball(perfbench_presentation(name), radius)
    assert integer_subdivision_differences(b) == []


def test_integer_subdivision_oracle_catches_a_swapped_square_side(c5_mixed, monkeypatch):
    """Squares whose two halves are listed in the other order differ from
    the oracle's."""
    listed = davis._squares

    def swapped(t):
        for r in listed(t):
            yield (*r[:4], r[5], r[4], *r[6:])

    monkeypatch.setattr(davis, "_squares", swapped)
    assert integer_subdivision_differences(build_ball(c5_mixed, 1)) == ["squares"]


@pytest.mark.parametrize("name,radius", [(name, 2) for name in SIX] + [("c5_z3", 3)])
def test_ball_table_numbers_the_oracle_cells(name, radius):
    """The table of a ball, against the oracle's cells: its reps are the
    ball's elements; its vertices are (index, rep number) in key order; its
    edges, by id, are (label, rep number, end ids) in (label, |rep|, rep)
    order, and ``edge_order`` lists them in key order; each polygon is its
    corners' ids and then its sides' ids; each edge's wall key is the rep
    number of a coset rep."""
    p = perfbench_presentation(name)
    t = ball_table(p, radius)
    oracle = build_ball_by_coset_reps(p, radius)
    assert t.reps == enumerate_ball_elements(p, radius)
    number = {g: k for k, g in enumerate(t.reps)}
    vertex = {v: k for k, v in enumerate(oracle.vertices)}
    edges = sorted(oracle.edges, key=lambda e: (e.label, e.rep))
    edge = {e: k for k, e in enumerate(edges)}
    assert list(zip(t.vertices[::2], t.vertices[1::2])) == [
        (v.index, number[v.rep]) for v in oracle.vertices]
    assert list(zip(*[iter(t.edges)] * 4)) == [
        (e.label, number[e.rep], vertex[e.ends[0]], vertex[e.ends[1]]) for e in edges]
    assert list(t.edge_order) == [edge[e] for e in oracle.edges]
    # each edge's wall key: the minimal rep of its coset of the star of its label
    assert list(t.wall_keys) == [
        number[coset_rep(e.rep, (e.label - 1, e.label, e.label + 1))] for e in edges]
    assert list(zip(*[iter(t.polygons)] * (2 * p.n))) == [
        (*map(vertex.__getitem__, P.boundary), *map(edge.__getitem__, P.edges))
        for P in oracle.polygons.values()]


def test_ball_oracle_catches_cells_read_off_the_last_syllable_alone(c5_mixed, monkeypatch):
    def last_only(p, word):
        return [(word[-1].vertex, len(word) - 1)] if word else []
    monkeypatch.setattr(davis, "maximal_syllables", last_only)
    differences = ball_differences(object_ball(c5_mixed, 2), build_ball_by_coset_reps(c5_mixed, 2))
    assert "vertices" in differences


INDEXES = ("edge polygons", "vertex edges")


def test_incidence_maps_are_built_once_and_only_when_read(c6_mixed):
    """Exports, the subdivision, walls and the audits of X's links,
    polygon pairs and walls' polygons read no incidence index, so the ball
    builds none; the disc diagrams' first read builds each, kept on the
    ball."""
    b = build_ball(c6_mixed, 2)
    subdivision(b)
    ball_to_json(b.table, square=True)
    "".join(iter_ball_dot(b.table, square=True))
    crossing_graph(b)
    for audit in (links_audit, polygon_pair_audit, wall_no_shared_polygon_audit):
        assert audit(b).ok
    assert not set(INDEXES) & set(b.derived)
    maps = (diagrams._edge_polygons(b), diagrams._vertex_edges(b))
    again = (diagrams._edge_polygons(b), diagrams._vertex_edges(b))
    assert all(x is y is b.derived[k] for x, y, k in zip(maps, again, INDEXES))


@pytest.mark.parametrize("name,radius", [(name, 2) for name in SIX] + [("c5_z3", 3)])
def test_diagram_indexes_match_the_object_incidence_maps(name, radius):
    """The polygons on each X-edge and the edges at each X-vertex, read off
    the table's records by id, are the object oracle's ``edge_cells`` and
    ``vertex_edges``, in the same order."""
    b = build_ball(perfbench_presentation(name), radius)
    o, t = objects(b), b.table
    assert [[t.reps[k] for k in ks] for ks in diagrams._edge_polygons(b)] == \
        [[P.rep for P in o.edge_cells[e]] for e in o.edges_by_id]
    assert [[o.edges_by_id[e] for e in es] for es in diagrams._vertex_edges(b)] == \
        [o.vertex_edges[v] for v in o.vertices]


@pytest.fixture
def cells_made(monkeypatch):
    """The number of the object oracle's cells made from here on, by class
    name; ``davis`` defines no cell type, so only the oracle makes one."""
    assert classes_defined_in(davis) == DAVIS_CLASSES
    made = dict.fromkeys(["ComplexVertex", "ComplexEdge", "Polygon"], 0)
    for cls in (ComplexVertex, ComplexEdge, Polygon):
        def counting(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            made[name] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return made


def test_ball_and_crossing_graph_make_no_cell_until_one_is_read(c6_mixed, cells_made):
    """``build_ball`` lists the table alone; the crossing graph reads its
    walls off the table and holds vertex ids; the object oracle makes every
    cell from the table, once per ball."""
    made = cells_made
    b = build_ball(c6_mixed, 3)
    assert made == {"ComplexVertex": 0, "ComplexEdge": 0, "Polygon": 0}
    assert crossing_graph(b).number_of_edges() > 0
    assert made == {"ComplexVertex": 0, "ComplexEdge": 0, "Polygon": 0}
    o = objects(b)
    cells = {"ComplexVertex": len(o.vertices), "ComplexEdge": len(o.edges),
             "Polygon": len(o.polygons)}
    assert made == cells
    for T in walls_of_ball(b):
        W = wall_objects(b, T)
        assert W.seed in W.edges <= set(o.edges)
    assert o.interior_vertices and o.interior_edges
    assert made == cells
    assert objects(b) is o is b.derived["objects"] and o.table is b.table


def test_davis_suite_makes_no_cell(c6_mixed, cells_made):
    """The davis audits read the ball's table and X' alone."""
    assert davis_suite(build_ball(c6_mixed, 3)).ok
    assert cells_made == {"ComplexVertex": 0, "ComplexEdge": 0, "Polygon": 0}


@pytest.mark.parametrize("suite, most", [("walls", 0), ("diagrams", 0), ("algebraic", 2 * 50)])
def test_suites_make_no_cell_but_the_sampled_vertices(c6_mixed, cells_made, suite, most):
    """The walls, algebraic and diagrams suites read the ball's table by id:
    at radius 3 the walls and diagrams suites make no cell object, and the
    algebraic suite makes only the vertices its 50 equivariance samples act
    on, at most two each (the sample and its image)."""
    assert run_suite(c6_mixed, suite, 3, 3, 0).ok
    assert cells_made["ComplexEdge"] == cells_made["Polygon"] == 0
    assert cells_made["ComplexVertex"] <= most


def test_cell_and_iso_hashes_are_the_same_in_every_process():
    """Square-ball centers, spokes and isomorphisms of Z hold None; their
    hashes must not be addresses, which move between processes."""
    script = (
        "import sys\n"
        "from cyclewall.cli import load_presentation\n"
        "from cyclewall.davis import build_ball\n"
        "from cyclewall.localgroups import LocalIso, integers_group\n"
        "from oracles import subdivide\n"
        "sq = subdivide(build_ball(load_presentation(sys.argv[1]), 1))\n"
        "print([hash(v) for v in sq.vertices], [hash(e) for e in sq.edges])\n"
        "print([v.key_string() for v in sq.interior_vertices])\n"
        "z = integers_group()\n"
        "print(hash(LocalIso(z, z, sign=1)), hash(LocalIso(z, z, sign=-1)))\n")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(Path(davis.__file__).parent.parent), str(Path(__file__).parent)]))
    outputs = [subprocess.run([sys.executable, "-c", script, str(PRESENTATIONS / "c5_z2.json")],
                              env=env, capture_output=True, text=True, check=True).stdout
               for _ in range(2)]
    assert outputs[0] == outputs[1]


def test_interior_edge_lies_in_group_order_many_polygons(c5_mixed):
    b = object_ball(c5_mixed, 2)
    assert b.interior_edges
    for e in b.interior_edges:
        assert len(b.edge_cells[e]) == c5_mixed.group(e.label).size


def test_interior_vertex_polygon_count_is_product_of_orders(c5_mixed):
    """As many polygons have a corner at an interior X-vertex, and as many
    squares of X' are at it."""
    b = object_ball(c5_mixed, 2)
    x = subdivision(b)
    assert b.interior_vertices
    for v in b.interior_vertices:
        want = c5_mixed.group(v.index).size * c5_mixed.group(v.index + 1).size
        assert len(polygons_at(b)[v]) == want
        assert len(list(x.squares_at(b.vertices.index(v)))) == want


def test_interior_matches_algebraic_polygon_lists():
    """Interior by coset-rep length is interior by listing every polygon
    around each cell, and in the subdivision it is the interior carried over
    from the polygonal ball."""
    cases = [(name, r) for name in ("c5_mixed", "c5_s3", "c5_z2", "c5_z3",
                                    "c6_mixed", "c6_z2") for r in (0, 1, 2)]
    cases += [("c5_z2", 3), ("c6_z2", 3), ("c6_mixed", 3)]
    for name, radius in cases:
        b = object_ball(perfbench_presentation(name), radius)
        assert interior_by_enumeration(b) == \
            (b.interior_vertices, b.interior_edges), (name, radius)
        sq = subdivide(b)
        assert subdivision_interior_inherited(b) == \
            (sq.interior_vertices, sq.interior_edges), (name, radius)


def test_interior_oracle_catches_a_dropped_interior_vertex(c5_mixed):
    b = object_ball(c5_mixed, 2)
    b.interior_vertices.discard(sorted(b.interior_vertices)[0])
    vertices, edges = interior_by_enumeration(b)
    assert edges == b.interior_edges
    assert vertices != b.interior_vertices


def test_subdivision_interior_oracle_catches_every_midpoint_interior(c5_mixed):
    b = build_ball(c5_mixed, 2)
    sq = subdivide(b)
    sq.interior_vertices.update(v for v in sq.vertices if v.cls == EDGE)
    vertices, edges = subdivision_interior_inherited(b)
    assert edges == sq.interior_edges
    assert vertices != sq.interior_vertices


def test_cell_keys_are_coset_invariants(c5_mixed):
    p = c5_mixed
    rng = random.Random(11)
    for _ in range(100):
        g = random_element(rng, p, 4)
        i = rng.randrange(5)
        # multiplying on the right by a stabilizer element fixes the cell
        a = parse_word(p, f"v{i}:1")
        bnext = parse_word(p, f"v{(i + 1) % 5}:1")
        assert x_vertex(p, g, i) == x_vertex(p, mul(g, a), i)
        assert x_vertex(p, g, i) == x_vertex(p, mul(g, bnext), i)
        assert x_edge(p, g, i) == x_edge(p, mul(g, a), i)


def test_cells_are_shared_values_with_a_cached_hash_and_key(c5_mixed):
    """Each cell is one object per ball; a copy made any other way is equal to
    it, with the same hash and order key; the hash is the field tuple's, with
    -1 for None, and the key orders as (class, index, rep)."""
    p = c5_mixed
    e_ = identity(p)
    class_order = {POLY: 0, EDGE: 1, TRIVIAL: 2}
    b = object_ball(p, 2)
    for ball in (b, subdivide(b)):
        for v in ball.vertices:
            assert hash(v) == hash((v.cls, -1 if v.index is None else v.index, v.rep))
            copies = [ComplexVertex(v.cls, v.index, v.rep), act_vertex_object(e_, v)]
            if v.cls == POLY:
                copies.append(x_vertex(p, v.rep, v.index))
            for c in copies:
                assert c == v and hash(c) == hash(v) and c.sort_key() == v.sort_key()
        for e in ball.edges:
            assert hash(e) == hash((e.ends, -1 if e.label is None else e.label,
                                    -1 if e.rep is None else e.rep))
            copies = [dataclasses.replace(e), act_edge(e_, e)]
            if ball.form == "polygonal":
                copies.append(x_edge(p, e.rep, e.label))
            for c in copies:
                assert c == e and hash(c) == hash(e) and c.sort_key() == e.sort_key()
        assert ball.vertices == sorted(ball.vertices, key=lambda v: (
            class_order[v.cls], -1 if v.index is None else v.index, v.rep))
        assert all(e.ends[0].sort_key() < e.ends[1].sort_key() for e in ball.edges)

        vertex = {v: v for v in ball.vertices}
        edge = {e: e for e in ball.edges}
        cells = ball.squares if ball.form == "square" else list(ball.polygons.values())
        assert len(ball.vertices) == len(vertex) and len(ball.edges) == len(edge)
        for cell in cells:
            corners = cell.corners if ball.form == "square" else cell.boundary
            assert all(vertex[v] is v for v in corners)
            assert all(edge[e] is e for e in cell.edges)
        assert all(vertex[v] is v for e in ball.edges for v in e.ends)
        for keys in (ball.vertex_edges, ball.interior_vertices):
            assert all(vertex[v] is v for v in keys)
        for keys in (ball.edge_cells, ball.interior_edges):
            assert all(edge[e] is e for e in keys)


def test_resource_limit_triggers(c5_z3, monkeypatch):
    monkeypatch.setenv("CYCLEWALL_MEM_MB", "1")
    with pytest.raises(ResourceLimitError):
        build_ball(c5_z3, 3)


# -- group action on cells --------------------------------------------------------


def test_action_is_equivariant_on_incidence(c5_mixed):
    p = c5_mixed
    b = object_ball(p, 2)
    rng = random.Random(12)
    interior = sorted(b.interior_edges)
    for _ in range(60):
        h = random_element(rng, p, 2)
        e = rng.choice(interior)
        he = act_edge(h, e)
        assert set(he.ends) == {act_vertex_object(h, e.ends[0]), act_vertex_object(h, e.ends[1])}
        # the action permutes containing polygons
        assert sorted(mul(h, g) for g in polygons_containing_edge(p, e)) == \
            sorted(polygons_containing_edge(p, he))


def test_action_is_a_left_action(c5_mixed):
    p = c5_mixed
    rng = random.Random(13)
    for _ in range(60):
        g, h = random_element(rng, p, 3), random_element(rng, p, 3)
        o = x_vertex(p, random_element(rng, p, 3), rng.randrange(5))
        v = (o.index, o.rep)
        assert act_vertex(mul(g, h), v) == act_vertex(g, act_vertex(h, v))
        assert act_vertex(identity(p), v) == v


@pytest.mark.parametrize("name", ["c5_z3", "c6_mixed"])
def test_action_on_vertex_pairs_matches_the_object_action(name):
    """For 20 seeded h in B(2), h moves each X-vertex (i, rep) of the
    radius-2 ball as the oracle's action moves the vertex object."""
    p = perfbench_presentation(name)
    t = build_ball(p, 2).table
    rng = random.Random(14)
    for h in rng.sample(enumerate_ball_elements(p, 2), 20):
        for i, k in zip(t.vertices[::2], t.vertices[1::2]):
            o = act_vertex_object(h, ComplexVertex(POLY, i, t.reps[k]))
            assert act_vertex(h, (i, t.reps[k])) == (o.index, o.rep)


# -- subdivision ------------------------------------------------------------------


def test_subdivision_counts(c5_z2):
    b = object_ball(c5_z2, 1)
    sq = subdivide(b)
    # one square per polygon corner
    assert len(sq.squares) == 5 * len(b.polygons)
    # every square has 4 distinct corners with the expected classes
    for s in sq.squares:
        assert len(set(s.corners)) == 4
        assert [c.cls for c in s.corners] == [EDGE, POLY, EDGE, TRIVIAL]
        assert len(set(s.edges)) == 4


def test_subdivision_spokes_unlabelled_halves_labelled(c5_z2):
    sq = subdivide(build_ball(c5_z2, 1))
    for e in sq.edges:
        classes = {v.cls for v in e.ends}
        if TRIVIAL in classes:
            assert e.label is None
        else:
            assert e.label is not None and e.rep is not None


def test_every_interior_square_edge_in_two_or_more_squares(c5_mixed):
    assert free_face_audit(build_ball(c5_mixed, 2)).ok


# -- links and audits -------------------------------------------------------------


def test_vertex_link_is_complete_bipartite(c5_mixed):
    b = object_ball(c5_mixed, 2)
    assert links_audit(b).ok
    v = sorted(b.interior_vertices)[0]
    link = vertex_link(b, v)
    i, j = v.index, (v.index + 1) % 5
    ni, nj = c5_mixed.group(i).size, c5_mixed.group(j).size
    # K_{|G_j|, |G_i|}: one node per incident edge, complete across labels
    assert len(link) == ni + nj
    assert sum(map(len, link.values())) == 2 * ni * nj


LINK_CASES = [(name, r) for name in SIX for r in range(3)] + [("c5_z3", 3)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.integers(0, size - 1), max_size=40) if size else st.just([]),
    st.booleans())))
def test_incidence_matches_a_stable_sort(case):
    """The counting pass lists each key's places, or their values, in place
    order, as a stable sort of the places by key does: keys may be absent
    (unused ids get empty slices), and the list may be empty."""
    size, keys, with_values = case
    keys = array("i", keys)
    # decreasing, so values kept in place order are not in value order
    values = [3 * (len(keys) - k) for k in range(len(keys))] if with_values else None
    assert incidence(keys, size, values) == incidence_by_sort(keys, size, values)


@pytest.mark.parametrize("name,radius", LINK_CASES)
def test_counted_indexes_match_the_sorted_ones(name, radius):
    """The squares at each X' vertex are the sort-built index of the
    squares' corner columns, and the skeleton's neighbours of each vertex
    are the other ends of its edges, read off ``ends`` in edge order."""
    b = build_ball(perfbench_presentation(name), radius)
    x = subdivision(b)
    corner = array("i", (v for c in x.records() for v in c[:4]))
    assert (x.start, x.at) == incidence_by_sort(corner, len(x.start) - 1)
    assert isinstance(x.start, array) and isinstance(x.at, array)
    neighbours = walls._skeleton(b)
    others = [[] for _ in range(len(x.start) - 1)]
    for k, v in enumerate(x.ends):
        others[v].append(x.ends[k ^ 1])
    assert [list(neighbours(v)) for v in range(len(others))] == others


@pytest.mark.parametrize("name,radius", LINK_CASES)
def test_x_link_is_the_square_link_at_an_x_vertex(name, radius):
    """At every interior X-vertex, the link ``links_audit`` reads in X'
    (each half read as its X-edge) is the object oracle's link in X,
    compared by key strings; and an X-vertex's key in X' is its cell's."""
    b = object_ball(perfbench_presentation(name), radius)
    x = subdivision(b)
    t = x.table

    def x_edge_key(s):   # the key string of half s's X-edge
        i, _, a, c = t.edges[4 * (s // 2):4 * (s // 2) + 4]
        return f"{i}|{x.vertex_key(a)}--{x.vertex_key(c)}"

    assert [x.vertex_key(v) for v in range(len(b.vertices))] == \
        [v.key_string() for v in b.vertices]
    for v, cell in enumerate(b.vertices):
        if cell in b.interior_vertices:
            got = {x_edge_key(s): {x_edge_key(u) for u in us}
                   for s, us in square_link(x, v).items()}
            assert got == {e.key_string(): {f.key_string() for f in fs}
                           for e, fs in vertex_link(b, cell).items()}, cell.key_string()


@pytest.mark.parametrize("name,radius", LINK_CASES)
def test_polygon_pair_audit_matches_the_object_oracle(name, radius):
    """The pair count and witness read from the table's polygon records are
    the object oracle's."""
    b = build_ball(perfbench_presentation(name), radius)
    pairs, bad = polygon_pairs_by_objects(b)
    [result] = polygon_pair_audit(b).results
    assert (result.instance, result.witness, bad) == (f"radius={radius} pairs={pairs}", None, [])


# the first square at the first interior X-vertex v, with its first side at
# v replaced by one of its sides not at v
_CUT_POLYGON = """
import json, sys
from cyclewall.cli import load_presentation
from cyclewall.davis import build_ball, links_audit, subdivision
b = build_ball(load_presentation(sys.argv[1]), 2)
x = subdivision(b)
v = next(v for v, inner in enumerate(x.interior_vertices()) if inner)
q, _ = next(x.squares_at(v))
sides = x.sides(q)
cut = next(k for k, s in enumerate(sides) if v in x.edge_ends(s))
x.squares[8 * q + 4 + cut] = next(s for s in sides if v not in x.edge_ends(s))
print(json.dumps({"optimize": sys.flags.optimize,
                  "failed": [[r.check_id, r.witness] for r in links_audit(b).failures]}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_links_audit_fails_on_a_polygon_missing_a_side_at_a_vertex(flags):
    """A 2-cell meeting its corner in one side is a failed check with a
    witness, not a crash, with or without ``python -O``."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, *flags, "-c", _CUT_POLYGON,
                          str(PRESENTATIONS / "c5_mixed.json")],
                         env=env, capture_output=True, text=True, check=True).stdout
    doc = json.loads(out)
    assert doc["optimize"] == len(flags)
    [[check_id, witness]] = doc["failed"]
    assert check_id == "davis.links-complete-bipartite"
    assert witness["error"] == "a 2-cell meets its corner in other than two sides"
    # corner 0 of the identity polygon, at the vertex (0, identity)
    assert witness["at"] == ["#0", "poly|0|", 1]


def test_links_audit_fails_on_a_link_that_is_not_complete_bipartite(c5_mixed):
    """The first square at the first interior X-vertex v, with one of its
    sides at v replaced by another side at v of the same label, drops an
    edge of the link of v, whose key is the witness."""
    b = build_ball(c5_mixed, 2)
    x = subdivision(b)
    v = next(v for v, inner in enumerate(x.interior_vertices()) if inner)
    squares = [q for q, _ in x.squares_at(v)]
    sides = x.sides(squares[0])
    c = next(s for s in sides if v in x.edge_ends(s))
    other = next(s for q in squares for s in x.sides(q)
                 if v in x.edge_ends(s) and s not in sides and x.label(s) == x.label(c))
    x.squares[8 * squares[0] + 4 + sides.index(c)] = other
    [failure] = links_audit(b).failures
    assert failure.check_id == "davis.links-complete-bipartite"
    assert failure.witness == [sorted(objects(b).interior_vertices)[0].key_string()]


def test_t4_audit_fails_on_a_square_missing_a_side_at_a_vertex(c5_mixed):
    """The first square at the first interior vertex v, with its first side
    at v replaced by a side not at v, meets v in one side."""
    b = build_ball(c5_mixed, 2)
    x = subdivision(b)
    v = next(v for v, inner in enumerate(x.interior_vertices()) if inner)
    q, _ = next(x.squares_at(v))
    sides = x.sides(q)
    cut = next(k for k, s in enumerate(sides) if v in x.edge_ends(s))
    x.squares[8 * q + 4 + cut] = next(s for s in sides if v not in x.edge_ends(s))
    with pytest.raises(InvariantError):
        square_link(x, v)
    report = t4_audit(b)
    assert [r.check_id for r in report.failures] == ["davis.t4.link-girth"]
    witness = report.failures[0].witness
    assert witness["error"] == "a 2-cell meets its corner in other than two sides"
    oracle = subdivide(b)
    assert witness["at"] == [oracle.squares[q].name(), sorted(oracle.interior_vertices)[0].key_string(), 1]


# Each mutant corrupts a ball of its own: its subdivision is kept on the
# ball, so a corrupted one must not reach another test.


def test_free_face_audit_fails_on_an_edge_in_one_square(c5_mixed):
    """The first interior edge of X', replaced in every square but the first
    that holds it by another side of that square, lies in one square."""
    b = build_ball(c5_mixed, 2)
    x = subdivision(b)
    e = min((s for s, inner in enumerate(x.interior_edges()) if inner), key=x.edge_ends)
    holding = [q for q, r in enumerate(x.records()) if e in r[4:]]
    for q in holding[1:]:
        k = x.sides(q).index(e)
        x.squares[8 * q + 4 + k] = x.squares[8 * q + 4 + (k + 1) % 4]
    [failure] = free_face_audit(b).failures
    assert failure.check_id == "davis.free-faces"
    assert failure.witness == [sorted(subdivide(b).interior_edges)[0].key_string()]


@pytest.mark.parametrize("extra", ["edge", "vertex"])
def test_polygon_pair_audit_fails_on_a_pair_sharing_too_much(c5_mixed, extra, monkeypatch):
    """Two polygons sharing two edges, or three vertices, are reported, as
    the object oracle reports them.  At the first interior X-vertex, the
    first polygon and the first one sharing one edge with it; a side (or a
    corner) of the second that the first lacks becomes one of the first's,
    in the table the ball is built from."""
    n = c5_mixed.n
    t = ball_table(c5_mixed, 2)

    def record(k):
        return t.polygons[2 * n * k:2 * n * (k + 1)]

    v = next(v for v, k in enumerate(t.vertices[1::2]) if len(t.reps[k].word) + 2 <= t.radius)
    polys = [k for k in range(len(t.reps)) if v in record(k)[:n]]
    first = polys[0]
    second = next(h for h in polys if len(set(record(first)[n:]) & set(record(h)[n:])) == 1)
    at = n if extra == "edge" else 0   # the sides, or the corners
    mine, theirs = record(second)[at:at + n], record(first)[at:at + n]
    slot = 2 * n * second + at + next(j for j, c in enumerate(mine) if c not in theirs)
    t.polygons[slot] = next(c for c in theirs if c not in mine)
    monkeypatch.setattr(davis, "ball_table", lambda p, r: t)
    b = build_ball(c5_mixed, 2)
    names = format_word(t.reps[first]), format_word(t.reps[second])
    want = (*names, 2, 2) if extra == "edge" else (*names, 1, 3)
    [failure] = polygon_pair_audit(b).failures
    assert failure.check_id == "davis.polygon-pairs"
    assert failure.witness == [want]
    pairs, bad = polygon_pairs_by_objects(b)
    assert bad == [want] and failure.instance == f"radius=2 pairs={pairs}"


# a table record is n corner ids wide, so no corner can be dropped from it
@pytest.mark.parametrize("cut", ["repeated"])
def test_t4_audit_fails_on_a_polygon_without_n_distinct_corners(c5_mixed, cut):
    """Polygon v0:1's table record with its last corner id made its first.
    X' is built before, so only the polygon's own check sees the change."""
    n = c5_mixed.n
    b = build_ball(c5_mixed, 2)
    g = parse_word(c5_mixed, "v0:1")
    kept = objects(b).polygons[g].boundary[:-1]
    boundary = kept + kept[:1]
    t = subdivision(b).table
    at = 2 * n * t.reps.index(g)
    t.polygons[at + n - 1] = t.polygons[at]
    report = t4_audit(b)
    [failure] = report.failures
    assert (failure.check_id, failure.instance) == ("davis.t4.polygon-sides", "v0:1")
    assert failure.witness == [u.key_string() for u in boundary]
    assert [r for r in report.results
            if r.check_id == "davis.t4.polygon-sides" and r.status == "pass"] == []


def file_square_at(x, v, record):
    """Add ``record`` to the subdivision ``x`` as a last square, at vertex v
    alone (at its corner 1)."""
    q = len(x.squares) // 8
    x.squares.extend(record)
    x.at.insert(x.start[v + 1], 4 * q + 1)
    for y in range(v + 1, len(x.start)):
        x.start[y] += 1


@pytest.mark.parametrize("short", ["triangle", "loop"])
def test_t4_audit_fails_on_a_link_with_a_short_cycle(c5_mixed, short):
    """A square at v joining two sides with a common neighbour in the link of
    v closes a triangle; one meeting v twice in the same side is a loop.  The
    oracle's link has that girth; the witness names v, whose link is not
    K_{a,b}, having a·b + 1 squares."""
    b = build_ball(c5_mixed, 2)
    x = subdivision(b)
    v = next(v for v, inner in enumerate(x.interior_vertices()) if inner)

    def sides_at_v(q):
        return [s for s in x.sides(q) if v in x.edge_ends(s)]

    squares = [q for q, _ in x.squares_at(v)]
    record = x.squares[8 * squares[0]:8 * squares[0] + 8]
    a, c = sides_at_v(squares[0])
    if short == "triangle":   # a - c - d in the link, and the new square joins a - d
        d = next(e for t in squares if c in sides_at_v(t)
                 for e in sides_at_v(t) if e not in (a, c))
        want = 3
    else:
        d, want = a, 1
    file_square_at(x, v, [d if s == c else s for s in record])
    assert graph_girth(square_link(x, v)) == want
    [failure] = t4_audit(b).failures
    assert failure.check_id == "davis.t4.link-girth"
    assert failure.witness == [sorted(subdivide(b).interior_vertices)[0].key_string()]


def test_t4_audit_fails_on_a_square_holding_its_next_spoke_twice(c5_mixed):
    """Square 0 with spoke 1 in the place of spoke 0: it meets its first
    midpoint in one of its sides there, though all its corners keep their
    places and every count holds."""
    b = build_ball(c5_mixed, 2)
    x = subdivision(b)
    x.squares[6] = x.squares[7]
    assert [r.check_id for r in links_audit(b).failures] == []
    [failure] = t4_audit(b).failures
    assert failure.witness == {"error": "a 2-cell meets its corner in other than two sides",
                               "at": ["#0", x.vertex_key(x.squares[0]), 1]}


def test_links_audit_fails_on_an_x_vertex_whose_squares_are_listed_mirrored(c5_z3):
    """Every square at the first interior X-vertex v listed from its other
    end: (m_{i+1}, v, m_i, c; half_{i+1}, half_i, spoke_{i+1}, spoke_i).
    Each still meets each corner in two sides, but holds the other polygon
    side's half in the place of label i, so the halves in that place are
    not of v's index.  With |G_i| = |G_{i+1}| the part sizes hold, so only
    the labels tell."""
    b = build_ball(c5_z3, 2)
    x = subdivision(b)
    v = first_inner(x, 0)
    for q, _ in x.squares_at(v):
        r = x.squares[8 * q:8 * q + 8]
        x.squares[8 * q:8 * q + 8] = array("i", [r[2], r[1], r[0], r[3], r[5], r[4], r[7], r[6]])
    [failure] = links_audit(b).failures
    assert failure.witness == [x.vertex_key(v)]
    [failure] = t4_audit(b).failures
    assert failure.witness["error"] == "a square does not hold its polygon's spokes"


def unfile_square_at(x, v, k):
    """Take the k-th square at vertex v out of the index of the subdivision
    ``x``, at v alone; its record stays."""
    del x.at[x.start[v] + k]
    for y in range(v + 1, len(x.start)):
        x.start[y] -= 1


def first_inner(x, kind):
    """The first interior X' vertex of a kind: 0 X-vertex, 1 midpoint, 2 center."""
    t = x.table
    nv, ne = len(t.vertices) // 2, len(t.edges) // 4
    low, high = [(0, nv), (nv, nv + ne), (nv + ne, len(x.start) - 1)][kind]
    return next(v for v, inner in enumerate(x.interior_vertices()) if inner and low <= v < high)


# (case, kind of vertex, change to its index): none, one square taken out,
# the first square listed twice; an X-vertex is interior from radius 2, a
# midpoint from radius 1
LINK_MUTANTS = [(case, None, None) for case in LINK_CASES] + [
    (case, kind, change) for case in LINK_CASES for kind in range(3)
    for change in ("out", "twice") if case[1] >= 2 - kind]


@pytest.mark.parametrize("case,kind,change", LINK_MUTANTS)
def test_links_verdict_is_the_oracle_s_at_every_interior_vertex(case, kind, change):
    """At every interior X' vertex, ``davis._links`` finds the link not its
    closed form exactly when the oracle, which builds the link by search
    and checks part sizes, completeness and one cycle, does: on the ball
    as built, and with one square taken out of, or listed twice at, the
    first interior vertex of each kind."""
    name, radius = case
    b = build_ball(perfbench_presentation(name), radius)
    x = subdivision(b)
    if change is not None:
        v = first_inner(x, kind)
        if change == "out":
            unfile_square_at(x, v, 0)
        else:
            q, place = next(x.squares_at(v))
            x.at.insert(x.start[v + 1], 4 * q + place)
            for y in range(v + 1, len(x.start)):
                x.start[y] += 1
    on, fault, x_fault, bad = davis._links(b)
    assert (fault, x_fault) == (None, None)
    assert bad == [v for v, inner in enumerate(x.interior_vertices())
                   if inner and not link_is_closed_form(x, v)]
    assert bad == ([] if change is None else [v])
    held = Counter(s for r in x.records() for s in r[4:])
    assert on == [held[s] for s in x.edge_ids()]


def verify_davis(monkeypatch, capsys, name, **patches):
    """``verify --suite davis --radius 2`` on a reference presentation, with
    ``davis`` attributes patched: its exit code and failed rows."""
    for attr, value in patches.items():
        monkeypatch.setattr(davis, attr, value)
    rc = cli_main(["verify", "--presentation", str(PRESENTATIONS / f"{name}.json"),
                   "--suite", "davis", "--radius", "2"])
    doc = json.loads(capsys.readouterr().out)
    return rc, [(c["check"], c["witness"]) for c in doc["checks"] if c["status"] == "fail"]


def test_verify_fails_on_a_square_dropped_from_an_interior_polygon(monkeypatch, capsys):
    """X' built without square 0, corner 0 of the identity polygon, whose
    corners are all interior: each later record holds the next square's
    spokes, and the first of them is the witness."""
    squares = davis._squares
    rc, failed = verify_davis(monkeypatch, capsys, "c5_mixed",
                              _squares=lambda t: itertools.islice(squares(t), 1, None))
    assert rc == EXIT_FAIL
    assert ("davis.t4.link-girth", {"error": "a square does not hold its polygon's spokes",
                                    "at": ["#0", "|edge|1|--trivial||", "|edge|2|--trivial||"]}) \
        in failed


def test_verify_fails_on_a_center_swapped_between_two_squares(monkeypatch, capsys):
    """X' built with the centers of square 0 (the identity polygon's) and
    square n (polygon v0:1's) swapped: square 0 meets v0:1's center in
    none of its sides."""
    squares = davis._squares
    n = 5

    def swapped(t):
        records = [list(r) for r in squares(t)]
        records[0][3], records[n][3] = records[n][3], records[0][3]
        return records
    rc, failed = verify_davis(monkeypatch, capsys, "c5_mixed", _squares=swapped)
    assert rc == EXIT_FAIL
    assert failed == [("davis.t4.link-girth", {
        "error": "a 2-cell meets its corner in other than two sides",
        "at": ["#0", "trivial||v0:1", 0]})]


def test_verify_fails_on_a_link_missing_one_square(monkeypatch, capsys):
    """The first interior midpoint's link with its first square taken out
    of the index: K_{2,m} less an edge still has girth >= 4, so a girth
    test passes it, and no other davis row reads a midpoint's squares; but
    it has 2m - 1 squares, not its closed form's 2m."""
    build = davis._subdivision
    seen = {}

    def cut(b):
        x = build(b)
        v = first_inner(x, 1)
        unfile_square_at(x, v, 0)
        assert graph_girth(square_link(x, v)) >= 4 and not link_is_closed_form(x, v)
        seen["key"] = x.vertex_key(v)
        return x
    rc, failed = verify_davis(monkeypatch, capsys, "c5_mixed", _subdivision=cut)
    assert rc == EXIT_FAIL
    assert failed == [("davis.t4.link-girth", [seen["key"]])]


def test_t4_audit_passes(c5_mixed, c6_z2):
    assert t4_audit(build_ball(c5_mixed, 2)).ok
    assert t4_audit(build_ball(c6_z2, 1)).ok


def test_polygon_pair_audit_passes(c5_z2, c5_mixed):
    assert polygon_pair_audit(build_ball(c5_z2, 2)).ok
    assert polygon_pair_audit(build_ball(c5_mixed, 2)).ok


def test_adjacent_polygons_share_exactly_one_edge(c5_z2):
    p = c5_z2
    b = object_ball(p, 2)
    g = identity(p)
    h = parse_word(p, "v0:1")
    shared = set(b.polygons[g].edges) & set(b.polygons[h].edges)
    assert len(shared) == 1
    assert next(iter(shared)).label == 0
    # and exactly the two endpoints of that edge are shared vertices
    shared_v = set(b.polygons[g].boundary) & set(b.polygons[h].boundary)
    assert shared_v == set(next(iter(shared)).ends)


def test_graph_girth_helper():
    import networkx as nx
    assert graph_girth(nx.path_graph(5)) == float("inf")
    assert graph_girth(nx.cycle_graph(4)) == 4
    assert graph_girth(nx.complete_bipartite_graph(2, 3)) == 4
    assert graph_girth(nx.complete_graph(3)) == 3
    # a path on ints above 256, each neighbour built apart from its key
    assert graph_girth({1000 + i: [1000 + j for j in (i - 1, i + 1) if 0 <= j < 5]
                        for i in range(5)}) == float("inf")


# -- exports -----------------------------------------------------------------------


def test_exports_are_deterministic_and_well_formed(c5_z2):
    import json
    b1, b2 = build_ball(c5_z2, 1).table, build_ball(c5_z2, 1).table
    assert ball_to_json(b1) == ball_to_json(b2)
    doc = json.loads(ball_to_json(b1))
    assert doc["schema"] == "cyclewall/1"
    assert len(doc["polygons"]) == 6
    dot = "".join(iter_ball_dot(b1))
    assert dot.startswith("graph ball {") and dot.rstrip().endswith("}")
    doc = json.loads(ball_to_json(b1, square=True))
    assert doc["form"] == "square" and len(doc["squares"]) == 6 * 5


@pytest.mark.parametrize("name", SIX)
def test_iter_ball_dot_matches_the_walk_oracle(name):
    """The dot export gives the walk oracle's text on the ball and, with
    ``square``, on the square ball ``subdivide`` builds: at radius 0-2."""
    p = perfbench_presentation(name)
    for r in range(3):
        b = build_ball(p, r)
        assert "".join(iter_ball_dot(b.table)) == ball_to_dot_by_walk(b), r
        assert "".join(iter_ball_dot(b.table, square=True)) == ball_to_dot_by_walk(subdivide(b)), r


def test_exports_stream_in_chunks():
    """Neither export of c6_mixed's r3 square ball comes as one string: no
    chunk of the JSON or of the dot text is longer than a quarter of it."""
    t = build_ball(perfbench_presentation("c6_mixed"), 3).table
    for chunks in (list(iter_ball_json(t, square=True)), list(iter_ball_dot(t, square=True))):
        assert max(map(len, chunks)) <= len("".join(chunks)) / 4


def json_forms_differing_from_the_oracle(p, r, renumber=lambda t: t):
    """The forms whose direct JSON, as ``ball_to_json`` or as the join of
    ``iter_ball_json``'s chunks, is not json.dumps's text for the records
    of the ball (``polygonal``) or of its square ball (``square``).  The
    writer reads ``renumber(t)`` for the ball's table t, the oracle the
    ball itself."""
    b = build_ball(p, r)
    t = renumber(b.table)
    return [form for form, square, ball in
            [("polygonal", False, b), ("square", True, subdivide(b))]
            if {ball_to_json(t, square), "".join(iter_ball_json(t, square))}
            != {ball_to_json_by_dumps(ball)}]


@pytest.mark.parametrize("name", sorted(p.stem for p in PRESENTATIONS.glob("*.json")))
def test_ball_to_json_matches_the_dumps_oracle(name):
    """The direct writer gives json.dumps's bytes for the record document,
    in both forms, the square one against the records of the square ball,
    at radius 0-2, at radius 3 for c6_mixed (the ball the CLI is timed on)
    and at radius 4 for c5_z3."""
    p = perfbench_presentation(name)
    radii = {"c6_mixed": range(4), "c5_z3": range(5)}.get(name, range(3))
    for r in radii:
        assert json_forms_differing_from_the_oracle(p, r) == [], r


def edges_in_key_order(t):
    """``t`` with its X-edges numbered in key order (``edge_order``) instead
    of (label, rep) order, in its edge records, polygon sides and wall keys."""
    n, order = t.presentation.n, t.edge_order
    new = {e: k for k, e in enumerate(order)}
    return t._replace(
        edges=array("i", itertools.chain.from_iterable(t.edges[4 * e:4 * e + 4] for e in order)),
        edge_order=array("i", range(len(order))),
        polygons=array("i", (x if j % (2 * n) < n else new[x] for j, x in enumerate(t.polygons))),
        wall_keys=array("i", map(t.wall_keys.__getitem__, order)))


def test_dumps_oracle_catches_midpoints_in_edge_key_order(c5_mixed):
    """A writer that lists the midpoints in X-edge key order (the ball's
    edge order) instead of (label, |rep|, rep) order fails the comparison:
    the writer lists them in edge id order, so it is given the table with
    its edges numbered in key order.  The polygonal form, which lists the
    edges in key order either way, still passes."""
    assert json_forms_differing_from_the_oracle(c5_mixed, 1, edges_in_key_order) == ["square"]

