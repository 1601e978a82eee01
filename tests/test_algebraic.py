import copy
import itertools
import sys

import conftest
import networkx as nx
import pytest

from cyclewall import algebraic
from cyclewall.algebraic import (
    MAXIMAL,
    MEDIUM,
    MINIMAL,
    CSubgroup,
    build_script_X_ball,
    containing_maximals,
    induced_cycle_audit,
    join_agreement_audit,
    join_is_cmaximal,
    phi_iso_check,
    shared_edge,
    vertex_mediums,
    _far_ends,
    _induced_n_cycles,
)
from cyclewall.cli import algebraic_suite
from cyclewall.davis import BallTable, build_ball
from cyclewall.errors import InvariantError, ValidationError
from cyclewall.walls import adjacency_criterion_audit, vertex_stabilizer_criterion_audit
from cyclewall.localgroups import cyclic_group, integers_group
from cyclewall.words import (
    GroupElement,
    Presentation,
    Syllable,
    from_syllable,
    identity,
    mul,
    parabolic_member,
    parse_word,
)

from oracles import (
    bucket_pairs,
    closure_join,
    decoded_arcs,
    edge_cosets_by_products,
    join_agreement_by_pairs,
    medium_of_vertex,
    object_ball,
    parabolic_normalizer,
    phi_edge_mismatches_by_pairs,
    rebuild_by_words,
    script_x_arcs_by_pairs,
    script_x_graph,
    shared_edge_both_labels,
    subgroup_sort_key,
    x_vertex,
)


# -- encodings ------------------------------------------------------------------


def test_equal_after_inner_conjugation(c5_z2):
    p = c5_z2
    h = CSubgroup(MEDIUM, 1, identity(p))
    assert h == CSubgroup(MEDIUM, 1, parse_word(p, "v1:1"))
    assert h == CSubgroup(MEDIUM, 1, parse_word(p, "v2:1"))
    assert h != CSubgroup(MEDIUM, 2, identity(p))


def test_unequal_after_outside_conjugation(c5_z2):
    p = c5_z2
    h = CSubgroup(MEDIUM, 1, identity(p))
    assert h != CSubgroup(MEDIUM, 1, parse_word(p, "v3:1"))


def test_minimal_conjugator_uses_wide_normalizer(c5_z2):
    p = c5_z2
    # neighbours of the base vertex normalize a minimal subgroup
    h = CSubgroup(MINIMAL, 2, parse_word(p, "v1:1 v3:1"))
    assert h.conjugator.is_identity
    h2 = CSubgroup(MINIMAL, 2, parse_word(p, "v0:1"))
    assert not h2.conjugator.is_identity


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_conjugators_are_reduced_modulo_the_exact_normalizer(n):
    """A CSubgroup drops a one-syllable conjugator exactly when the syllable's
    vertex normalizes its window, and those vertices are the ones
    ``parabolic_normalizer`` finds, for every tier and base."""
    p = Presentation(tuple(cyclic_group(2) for _ in range(n)))
    offsets = {MINIMAL: (0,), MEDIUM: (0, 1), MAXIMAL: (-1, 0, 1)}
    for tier, window in offsets.items():
        for base in range(n):
            h = CSubgroup(tier, base, identity(p))
            assert h.window == {(base + k) % n for k in window}
            dropped = {v for v in range(n)
                       if CSubgroup(tier, base, from_syllable(p, v, 1)) == h}
            assert dropped == parabolic_normalizer(p, h.window), (tier, base)


def test_membership(c5_mixed):
    p = c5_mixed
    h = CSubgroup(MEDIUM, 1, identity(p))
    assert parabolic_member(parse_word(p, "v1:1 v2:1"), h)
    assert not parabolic_member(parse_word(p, "v3:1"), h)
    conj = CSubgroup(MEDIUM, 1, parse_word(p, "v4:1"))
    assert parabolic_member(parse_word(p, "v4:1 v1:1 v4:1"), conj)
    assert not parabolic_member(parse_word(p, "v1:1"), conj)


def test_vertex_medium_roundtrip(c5_mixed):
    p = c5_mixed
    v = x_vertex(p, parse_word(p, "v0:1 v3:2"), 1)
    h = medium_of_vertex(v)
    assert (h.tier, h.base, h.conjugator) == (MEDIUM, v.index, v.rep)


def test_rejects_unknown_tier(c5_z2):
    with pytest.raises(ValidationError):
        CSubgroup("huge", 0, identity(c5_z2))


# -- joins ----------------------------------------------------------------------


def test_join_of_adjacent_mediums_is_the_window(c5_z2):
    p = c5_z2
    ok, cand = join_is_cmaximal(CSubgroup(MEDIUM, 1, identity(p)),
                                CSubgroup(MEDIUM, 2, identity(p)))
    assert ok
    assert cand.tier == MAXIMAL and cand.base == 2
    assert cand.conjugator.is_identity


def test_join_of_disjoint_mediums_fails(c5_z2):
    p = c5_z2
    ok, cand = join_is_cmaximal(CSubgroup(MEDIUM, 1, identity(p)),
                                CSubgroup(MEDIUM, 3, identity(p)))
    assert not ok and cand is None


def test_join_with_itself_fails(c5_mixed):
    p = c5_mixed
    h = CSubgroup(MEDIUM, 0, parse_word(p, "v3:1"))
    assert join_is_cmaximal(h, h) == (False, None)


def test_join_same_base_different_coset_fails(c5_z2):
    p = c5_z2
    ok, cand = join_is_cmaximal(CSubgroup(MEDIUM, 1, identity(p)),
                                CSubgroup(MEDIUM, 1, parse_word(p, "v0:1")))
    assert not ok


def test_join_rejects_non_medium(c5_z2):
    p = c5_z2
    with pytest.raises(ValidationError):
        join_is_cmaximal(CSubgroup(MINIMAL, 1, identity(p)),
                         CSubgroup(MEDIUM, 2, identity(p)))


@pytest.mark.parametrize("name, radius",
                         [("c5_z2", 2), ("c5_mixed", 1), ("c6_z2", 1)])
def test_exact_join_matches_closure_oracle(name, radius, request):
    """Every pair the rebuild tests (mediums sharing a maximal) gets the
    bounded closure's depth-4 verdict, and the closure stays inside the
    shared maximal."""
    b = object_ball(request.getfixturevalue(name), radius)
    joins = 0
    for h1, h2 in bucket_pairs(b):
        ok, candidate = join_is_cmaximal(h1, h2)
        reached, closure, oracle_candidate = closure_join(h1, h2, 4)
        assert ok == reached, (h1.key_string(), h2.key_string())
        assert all(parabolic_member(g, oracle_candidate) for g in closure)
        if ok:
            joins += 1
            assert candidate == oracle_candidate.conjugated(h1.conjugator)
    assert joins == len(b.edges)


def test_join_on_infinite_vertex_groups():
    """The join reads one word, so Z vertex groups need no enumeration."""
    z = integers_group()
    p = Presentation((cyclic_group(2), z, cyclic_group(3), cyclic_group(2), z))
    h, near = CSubgroup(MEDIUM, 1, identity(p)), parse_word(p, "v1:7")
    assert shared_edge(h, CSubgroup(MEDIUM, 2, near)) == (2, near)
    ok, m = join_is_cmaximal(h, CSubgroup(MEDIUM, 2, near))
    assert ok and m == CSubgroup(MAXIMAL, 2, identity(p))
    far = CSubgroup(MEDIUM, 2, parse_word(p, "v0:1 v1:7"))
    assert join_is_cmaximal(h, far) == (False, None)


def _change_far_ends(monkeypatch, change):
    """Patch ``_far_ends`` so that the far-end words of each (word, v), v
    the far end's window vertex, are ``change(word, v, words)`` of the
    words the rule lists; the join and the rebuild both read the patch."""
    far_ends = algebraic._far_ends

    def changed(p, word):
        ends = far_ends(p, word)
        return {v: change(word, v, ends.get(v, [word])) for v in range(p.n)}

    monkeypatch.setattr(algebraic, "_far_ends", changed)


def test_phi_iso_check_fails_without_shared_edges(c5_z2, monkeypatch):
    """The rebuild's arcs are the edges the last-syllable rule shares, and
    the join audit reads the join: without the far ends of a node's own word
    the rebuild misses arcs, and without shared edges the join misses
    adjacencies."""
    far_ends = algebraic._far_ends
    _change_far_ends(monkeypatch, lambda word, v, words: words[1:])
    report = phi_iso_check(build_ball(c5_z2, 2))
    assert "phi.edges-preserved-both-ways" in {
        r.check_id for r in report.failures}
    monkeypatch.setattr(algebraic, "_far_ends", far_ends)
    monkeypatch.setattr(algebraic, "shared_edge", lambda h1, h2: None)
    report = join_agreement_audit(build_ball(c5_z2, 2))
    assert "joins.agree-with-adjacency" in {r.check_id for r in report.failures}


def test_shared_edge_of_adjacent_vertices(c5_z2):
    p = c5_z2
    got = shared_edge(CSubgroup(MEDIUM, 1, identity(p)),
                      CSubgroup(MEDIUM, 2, identity(p)))
    assert got is not None
    label, rep = got
    assert label == 2 and rep.is_identity


@pytest.mark.parametrize("name", ["c5_z2", "c5_z3", "c5_mixed", "c5_s3",
                                  "c6_z2", "c6_mixed"])
def test_shared_edge_matches_both_label_scan(name, request):
    """On every pair the rebuild tests, reading only the label the bases
    allow finds the same edge as scanning both labels of both vertices."""
    b = object_ball(request.getfixturevalue(name), 2)
    shared = 0
    for h1, h2 in bucket_pairs(b):
        got = shared_edge(h1, h2)
        assert got == shared_edge_both_labels(h1, h2), \
            (h1.key_string(), h2.key_string())
        assert got == shared_edge(h2, h1)
        shared += got is not None
    # the two ends of an edge labelled i share one maximal, of base i
    assert shared == len(b.edges)


def test_containing_maximals_are_two(c5_mixed):
    p = c5_mixed
    h = CSubgroup(MEDIUM, 4, parse_word(p, "v1:1"))
    ms = containing_maximals(h)
    assert len(ms) == 2
    assert {m.base for m in ms} == {4, 0}
    conjugated_gen = parse_word(p, "v1:1 v4:1 v1:2")  # v1 generates a Z/3 here
    for m in ms:
        # the medium's generators all belong to each containing maximal
        assert parabolic_member(conjugated_gen, m)


# -- the rebuilt complex -----------------------------------------------------------


def test_script_x_matches_ball_skeleton(c5_z2):
    b = object_ball(c5_z2, 2)
    sx = build_script_X_ball(b)
    assert len(sx.nodes) == len(b.vertices)
    assert len(sx.arcs) == len(b.edges)
    assert len(sx.cycles) == len(b.polygons)


def test_phi_iso_check_reference_presentations(c5_z2, c5_mixed):
    assert phi_iso_check(build_ball(c5_z2, 2)).ok
    assert phi_iso_check(build_ball(c5_mixed, 2)).ok


def test_phi_iso_check_c6(c6_z2):
    assert phi_iso_check(build_ball(c6_z2, 2)).ok


def test_join_agreement(c5_z2, c5_mixed):
    assert join_agreement_audit(build_ball(c5_z2, 2)).ok
    assert join_agreement_audit(build_ball(c5_mixed, 2)).ok


REBUILD_BALLS = [(name, 2) for name in ("c5_z2", "c5_z3", "c5_mixed", "c5_s3",
                                       "c6_z2", "c6_mixed")] + [("c5_z3", 3)]


@pytest.fixture(scope="module", params=REBUILD_BALLS,
                ids=[f"{name}-r{radius}" for name, radius in REBUILD_BALLS])
def rebuilt(request):
    name, radius = request.param
    b = object_ball(getattr(conftest, f"presentation_{name}")(), radius)
    return b, build_script_X_ball(b)


def test_rebuild_arcs_match_pair_oracle(rebuilt):
    """The last-syllable rule finds the arcs that intersecting the product
    edge cosets of every pair of mediums sharing a maximal finds, with the
    same maximals: each arc is
    keyed by its nodes' ids in order, and decodes to its two mediums and
    the maximal ``CSubgroup(MAXIMAL, label, GroupElement(p, word))``."""
    b, sx = rebuilt
    assert all(u < w for u, w in sx.arcs)
    assert decoded_arcs(sx) == script_x_arcs_by_pairs(b)
    assert len(sx.arcs) == len(b.edges)


def test_rebuild_cycles_match_unrestricted_search(rebuilt):
    """The winding walks find every induced n-cycle of the rebuilt skeleton,
    in the search's rotation and order: the nodes come in
    ``subgroup_sort_key`` order, so the search runs over their ids."""
    b, sx = rebuilt
    assert sx.nodes == sorted(sx.nodes, key=subgroup_sort_key)
    assert sx.cycles == _induced_n_cycles(script_x_graph(sx), sx.presentation.n)
    assert len(sx.cycles) == len(b.polygons)


def test_edge_cosets_are_the_products(rebuilt):
    """Each edge coset c·x of a node, for x in its window group off the
    label, taken as the product, has the node's word c among the far-end
    words the rule reads off it (``_far_ends``), and the products are
    distinct, for every node and both labels."""
    b, sx = rebuilt
    p = sx.presentation
    for h in sx.nodes:
        c = h.conjugator
        for label in (h.base, (h.base + 1) % p.n):
            other = (h.base + 1) % p.n if label == h.base else h.base
            words = [mul(c, GroupElement(p, (Syllable(other, x),) if x else ())).word
                     for x in p.group(other).elements()]
            assert len(set(words)) == len(words)
            assert {GroupElement(p, w) for w in words
                    if c.word in _far_ends(p, w).get(other, [w])} == edge_cosets_by_products(h, label), \
                (h.key_string(), label)


def test_subgroup_hash_is_the_field_tuple_hash(rebuilt):
    """A CSubgroup hashes as the tuple of its compared fields, as it did when
    it was a dataclass, so no set or dict of them changes order."""
    b, sx = rebuilt
    for h in sx.nodes:
        for k in [h, *containing_maximals(h)]:
            assert hash(k) == hash((k.tier, k.base, k.conjugator))
    for m in decoded_arcs(sx).values():
        assert hash(m) == hash((m.tier, m.base, m.conjugator))


def test_mediums_are_encoded_once_per_ball(c5_z2, monkeypatch):
    """The rebuild, the phi check (without equivariance samples, which encode
    moved vertices), the join audit and both walls audits that read mediums
    share one encoding of each vertex, made from its table record and listed
    by vertex id."""
    encoded = []
    make = algebraic.CSubgroup

    def counting(tier, base, conjugator):
        if tier == MEDIUM:
            encoded.append((base, conjugator))
        return make(tier, base, conjugator)

    monkeypatch.setattr(algebraic, "CSubgroup", counting)
    b = object_ball(c5_z2, 2)
    build_script_X_ball(b)
    assert phi_iso_check(b, samples=0).ok
    assert join_agreement_audit(b).ok
    assert vertex_stabilizer_criterion_audit(b).ok
    assert adjacency_criterion_audit(b).ok
    assert encoded == [(v.index, v.rep) for v in b.vertices]
    assert vertex_mediums(b) == [medium_of_vertex(v) for v in b.vertices]


def test_rebuild_and_join_audit_take_no_products(c5_z2, monkeypatch):
    """The rebuild (encoding the mediums too) and the join audit read the
    conjugators' last syllables: they call neither ``mul`` nor ``inv``, by
    any module's name for it."""
    b = build_ball(c5_z2, 2)
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("cyclewall")]:
        for name in ("mul", "inv"):
            f = getattr(module, name, None)
            if f is not None:
                monkeypatch.setattr(module, name,
                                    lambda *args, f=f, name=name: calls.append(name) or f(*args))
    sx = build_script_X_ball(b)
    assert join_agreement_audit(b).ok
    assert calls == []
    assert len(sx.arcs) == len(b.table.edges) // 4


def _assert_phi_edge_row_matches_pair_oracle(b, sx):
    """The ``phi.edges-preserved-both-ways`` row of ``phi_iso_check(b)``
    (whose rebuild must be ``sx``) is the one testing every interior pair
    gives: same instance, status and witness."""
    pairs, bad = phi_edge_mismatches_by_pairs(b, sx)
    [row] = [r for r in phi_iso_check(b).results
             if r.check_id == "phi.edges-preserved-both-ways"]
    assert row.instance == f"interior-pairs={pairs}"
    assert row.status == ("fail" if bad else "pass")
    assert row.witness == (bad[:10] or None)
    return bad


PHI_BALLS = [(name, 2) for name in ("c5_z2", "c5_z3", "c5_mixed", "c5_s3",
                                   "c6_z2", "c6_mixed")] + [("c5_z3", 3),
                                                            ("c6_mixed", 3)]


@pytest.mark.parametrize("name, radius", PHI_BALLS,
                         ids=[f"{name}-r{radius}" for name, radius in PHI_BALLS])
def test_phi_edge_row_matches_pair_oracle(name, radius, request):
    b = build_ball(request.getfixturevalue(name), radius)
    assert not _assert_phi_edge_row_matches_pair_oracle(b, build_script_X_ball(b))


def _interior_nodes(b, sx):
    """The rebuild's node ids of the ball's interior vertices, found by
    their mediums, in order."""
    place = {h: x for x, h in enumerate(sx.nodes)}
    return sorted(place[medium_of_vertex(v)] for v in b.interior_vertices)


def _drop_interior_arcs(b, sx):
    """Drop every arc between interior nodes: more mismatches than a witness holds."""
    interior = set(_interior_nodes(b, sx))
    for pair in [pair for pair in sx.arcs if interior.issuperset(pair)]:
        del sx.arcs[pair]


def _gain_interior_arc(b, sx):
    """Add one arc between two interior nodes that no arc joins."""
    nodes = _interior_nodes(b, sx)
    pair = next(pair for pair in itertools.combinations(nodes, 2)
                if pair not in sx.arcs)
    sx.arcs[pair] = (0, ())


def _drop_one_gain_one(b, sx):
    e = next(e for e in b.edges if b.interior_vertices.issuperset(e.ends))
    place = {h: x for x, h in enumerate(sx.nodes)}
    del sx.arcs[tuple(sorted(place[medium_of_vertex(v)] for v in e.ends))]
    _gain_interior_arc(b, sx)


@pytest.mark.parametrize("mutate, kinds", [
    (_drop_interior_arcs, {(True, False)}),
    (_gain_interior_arc, {(False, True)}),
    (_drop_one_gain_one, {(True, False), (False, True)}),
], ids=["drops-arcs", "gains-an-arc", "drops-one-gains-one"])
def test_phi_edge_row_matches_pair_oracle_on_a_wrong_rebuild(c5_z2, monkeypatch,
                                                            mutate, kinds):
    rebuild = algebraic.build_script_X_ball
    b = object_ball(c5_z2, 3)
    sx = rebuild(b)
    mutate(b, sx)
    monkeypatch.setattr(algebraic, "build_script_X_ball", lambda ball: sx)
    bad = _assert_phi_edge_row_matches_pair_oracle(b, sx)
    assert {(x_adj, sx_adj) for _, _, x_adj, sx_adj in bad} == kinds


def test_phi_iso_check_fails_when_the_rebuild_drops_a_cycle(c5_z2, monkeypatch):
    walk = algebraic._winding_cycles
    monkeypatch.setattr(algebraic, "_winding_cycles",
                        lambda up, starts, n: walk(up, starts[:1], n))
    report = phi_iso_check(build_ball(c5_z2, 3))
    assert {r.check_id for r in report.failures} == {"phi.polygons-map-to-cycles"}


def _algebraic_suite_failures(b):
    return {r.check_id for r in algebraic_suite(b, seed=0).failures}


def test_phi_iso_check_fails_on_a_node_no_vertex_encodes(c5_z2, monkeypatch):
    """The wrapper adds its node to a copy of the rebuild: the rebuild is
    kept on the ball and read by both the phi check and the join audit."""
    rebuild = algebraic.build_script_X_ball
    extra = CSubgroup(MEDIUM, 0, parse_word(c5_z2, "v2:1 v4:1 v2:1 v4:1 v2:1"))

    def with_extra_node(b):
        sx = copy.copy(rebuild(b))
        assert extra not in sx.nodes
        sx.nodes = [*sx.nodes, extra]
        return sx

    monkeypatch.setattr(algebraic, "build_script_X_ball", with_extra_node)
    assert _algebraic_suite_failures(build_ball(c5_z2, 2)) == {
        "phi.surjective-onto-nodes"}


def test_phi_iso_check_fails_when_two_vertices_share_a_medium(c5_z2):
    """A collision is reported with the colliding vertices, and the check
    ends before it reads the rebuild.  Vertex 1's table record is made
    vertex 0's, so both encode one medium."""
    b = build_ball(c5_z2, 2)
    t = b.table
    t.vertices[2:4] = t.vertices[0:2]
    report = phi_iso_check(b)
    assert [(r.check_id, r.status) for r in report.results] == [
        ("phi.injective-on-vertices", "fail")]
    assert report.results[0].witness == [[t.vertex_key(0), t.vertex_key(1)]]
    assert t.vertex_key(0) == t.vertex_key(1)


def test_a_collided_ball_fails_two_rows_and_raises_nothing(c5_z2):
    """On the ball whose vertex 1 record is vertex 0's, the suite reports
    the collision and the join row, and raises nothing: the join audit
    reads the rebuild, which keeps one id per medium, and its row is the
    all-pairs oracle's."""
    b = build_ball(c5_z2, 2)
    t = b.table
    t.vertices[2:4] = t.vertices[0:2]
    assert _algebraic_suite_failures(b) == {
        "phi.injective-on-vertices", "joins.agree-with-adjacency"}
    assert join_agreement_audit(b) == join_agreement_by_pairs(b)


def test_phi_iso_check_fails_when_the_action_moves_nothing(c5_z2, monkeypatch):
    monkeypatch.setattr(algebraic, "act_vertex", lambda g, v: v)
    assert _algebraic_suite_failures(build_ball(c5_z2, 2)) == {
        "phi.equivariance-on-samples"}


def test_induced_cycle_audit_fails_without_an_interior_polygon(c5_z2):
    """The first polygon with every corner interior, with its first corner
    id replaced in its table record by a vertex that is not interior: no
    polygon record bounds its cycle, and the phi check, which maps only
    polygons with interior corners, no longer reads it."""
    b = build_ball(c5_z2, 2)
    t = b.table
    interior = set(t.interior_vertices())
    k = next(k for k in range(len(t.reps)) if interior.issuperset(t.corners(k)))
    t.polygons[2 * c5_z2.n * k] = next(x for x in range(len(t.vertices) // 2) if x not in interior)
    assert _algebraic_suite_failures(b) == {
        "cycles.induced-n-cycles-bound-polygons"}


def test_join_agreement_fails_when_every_pair_joins(c5_z2, monkeypatch):
    """A join that says yes on every pair is wrong only on pairs that are
    neither an edge nor an arc.  The audit asks it on a sample of those, so
    its row fails, as the all-pairs oracle's does."""
    monkeypatch.setattr(algebraic, "join_is_cmaximal", lambda h1, h2: (True, None))
    b = build_ball(c5_z2, 2)
    assert {r.check_id for r in join_agreement_by_pairs(b).failures} == {
        "joins.agree-with-adjacency"}
    assert {r.check_id for r in join_agreement_audit(b).failures} == {
        "joins.agree-with-adjacency"}


def test_join_audit_fails_on_a_join_that_says_yes_on_adjacent_base_far_pairs(
        c5_z2, monkeypatch):
    """A ``shared_edge`` that also says yes on every pair of mediums on
    cyclically adjacent bases that share no edge is wrong only on far
    pairs, never on an edge or an arc.  The audit's sample holds such
    pairs at radius 3, so its row fails, each witness a sampled far pair
    of adjacent bases that the join wrongly joins."""
    shared = algebraic.shared_edge
    n = c5_z2.n
    monkeypatch.setattr(algebraic, "shared_edge", lambda h1, h2: shared(h1, h2) or (
        (h1.base, h1.conjugator) if (h1.base - h2.base) % n in (1, n - 1) else None))
    b = build_ball(c5_z2, 3)
    t = b.table
    report = join_agreement_audit(b)
    assert [r.status for r in report.results] == ["fail"]
    skel = algebraic._interior_skeleton(b)
    encode = vertex_mediums(b)
    keys = {t.vertex_key(x): x for x in skel}
    for u_key, w_key, ok in report.results[0].witness:
        u, w = keys[u_key], keys[w_key]
        assert ok and w not in skel[u]
        assert (encode[u].base - encode[w].base) % n in (1, n - 1)


JOIN_BALLS = [(name, 3) for name in ("c5_z2", "c5_z3", "c5_mixed", "c6_mixed",
                                    "c6_z2")] + [("c5_z3", 4)]


@pytest.mark.parametrize("name, radius", JOIN_BALLS,
                         ids=[f"{name}-r{radius}" for name, radius in JOIN_BALLS])
def test_join_audit_matches_all_pairs_oracle(name, radius, request):
    """Calling the join on the interior edges and arcs alone gives the row
    that calling it on every interior pair gives: instance, status and
    witness."""
    b = build_ball(request.getfixturevalue(name), radius)
    assert join_agreement_audit(b) == join_agreement_by_pairs(b)


def _interior_pair(b, adjacent: bool, same_word_end: bool = False):
    """The first interior pair (u, w) in id order, u of base a and w of base
    a + 1, whose words differ in length by 0 or 1 (w's the shorter), and
    which is or is not an edge as ``adjacent`` asks; with
    ``same_word_end``, u's label-(a+1) edge also ends at a node of u's own
    word, which finds the edge from its end too."""
    skel = algebraic._interior_skeleton(b)
    encode = vertex_mediums(b)
    p = b.presentation
    return next((u, w) for u in sorted(skel) for w in sorted(skel)
                if encode[w].base == (encode[u].base + 1) % p.n
                and (w in skel[u]) == adjacent
                and len(encode[u].conjugator.word) - len(encode[w].conjugator.word) in (0, 1)
                and not (same_word_end and (encode[u].base + 2) % p.n in _far_ends(
                    p, encode[u].conjugator.word)))


def test_join_audit_fails_on_a_spurious_far_end(c5_z2, monkeypatch):
    """``_far_ends`` yields, for one interior node u's label-(a+1) edge, the
    word of an interior node w of base a + 1 that is not adjacent, in place
    of the real far end, whose word is u's, so the rebuild still finds the
    edge from that end.  The rebuild gains the arc (u, w) and the join
    says yes there and no on the real edge, so the phi edge row and the
    join row both fail, and the audit's row is the all-pairs oracle's."""
    b = build_ball(c5_z2, 3)
    t = b.table
    encode = vertex_mediums(b)
    u, w = _interior_pair(b, adjacent=False, same_word_end=True)
    call = (encode[u].conjugator.word, (encode[u].base + 2) % c5_z2.n)
    _change_far_ends(monkeypatch, lambda word, v, words: (
        [encode[w].conjugator.word] if (word, v) == call else words))
    report = algebraic_suite(b, seed=0)
    assert {r.check_id for r in report.failures} == {
        "phi.edges-preserved-both-ways", "joins.agree-with-adjacency"}
    [row] = [r for r in report.results if r.check_id == "joins.agree-with-adjacency"]
    assert (t.vertex_key(u), t.vertex_key(w), True) in row.witness
    assert join_agreement_audit(b) == join_agreement_by_pairs(b)


def test_join_audit_fails_on_a_join_that_misses_one_edge(c5_z2, monkeypatch):
    """A join that says no on one interior edge fails the audit's row, with
    that edge its one witness."""
    b = build_ball(c5_z2, 3)
    t = b.table
    encode = vertex_mediums(b)
    u, w = _interior_pair(b, adjacent=True)
    join = algebraic.join_is_cmaximal
    monkeypatch.setattr(algebraic, "join_is_cmaximal", lambda h1, h2: (
        (False, None) if {h1, h2} == {encode[u], encode[w]} else join(h1, h2)))
    report = join_agreement_audit(b)
    assert report.results[0].status == "fail"
    assert report.results[0].witness == [(t.vertex_key(u), t.vertex_key(w), False)]
    assert report == join_agreement_by_pairs(b)


def test_join_audit_fails_on_a_rule_that_drops_an_edge(c5_z2, monkeypatch):
    """``_far_ends`` lists no far end for one interior edge (u, w), from
    either end, so the rebuild has no arc there and the join says no: the
    audit still asks the join on the skeleton's edge, and its row fails
    with that edge as a witness, as the phi edge row does and the cycle
    row, which loses the faces through the edge."""
    b = build_ball(c5_z2, 3)
    t = b.table
    encode = vertex_mediums(b)
    u, w = _interior_pair(b, adjacent=True)
    a = encode[u].base
    calls = {(encode[u].conjugator.word, (a + 2) % c5_z2.n), (encode[w].conjugator.word, a)}
    _change_far_ends(monkeypatch, lambda word, v, words: [] if (word, v) in calls else words)
    report = algebraic_suite(b, seed=0)
    assert {r.check_id for r in report.failures} == {
        "phi.edges-preserved-both-ways", "phi.polygons-map-to-cycles",
        "joins.agree-with-adjacency"}
    [row] = [r for r in report.results if r.check_id == "joins.agree-with-adjacency"]
    assert (t.vertex_key(u), t.vertex_key(w), False) in row.witness
    assert join_agreement_audit(b) == join_agreement_by_pairs(b)


def test_rebuild_rejects_an_edge_with_three_ends(c5_z2, monkeypatch):
    """Every word's last syllable reads as maximal for every vertex, so both
    far-end words of an edge can be nodes: the edge 0|v2:1 of the node
    (0, v2:1), the first in id order to find two, ends at (4, v2:1) and at
    (4, []) too, and the witness lists its three ends."""
    monkeypatch.setattr(algebraic, "maximal_syllables",
                        lambda p, word: [(v, len(word) - 1) for v in range(p.n)] if word else [])
    b = build_ball(c5_z2, 1)
    with pytest.raises(InvariantError, match="edge 0|v2:1 has more than two ends") as raised:
        build_script_X_ball(b)
    g = parse_word(c5_z2, "v2:1")
    assert raised.value.witness == sorted(
        CSubgroup(MEDIUM, i, w).key_string() for i, w in ((0, g), (4, g), (4, identity(c5_z2))))


WORD_REBUILD_BALLS = REBUILD_BALLS + [
    (name, radius) for radius in (0, 1) for name in ("c5_z2", "c5_z3", "c5_mixed", "c5_s3",
                                                     "c6_z2", "c6_mixed")] + [
    ("c5_z3", 4), ("c6_mixed", 3)]


@pytest.mark.parametrize("name, radius", WORD_REBUILD_BALLS,
                         ids=[f"{name}-r{radius}" for name, radius in WORD_REBUILD_BALLS])
def test_rebuild_matches_the_word_keyed_rebuild(name, radius, request):
    """Reading far ends off word numbers finds the arcs, in the same order
    and with the same values, and the cycles that looking each node's words
    up in a (base, word) dict finds."""
    b = build_ball(request.getfixturevalue(name), radius)
    sx, want = build_script_X_ball(b), rebuild_by_words(b)
    assert list(sx.arcs.items()) == list(want.arcs.items())
    assert sx.cycles == want.cycles


def test_rebuild_matches_the_word_keyed_rebuild_on_a_collided_ball(c5_z2):
    """On the ball whose vertex 1 record is vertex 0's, both rebuilds find
    arcs from every node to the last id of each medium."""
    b = build_ball(c5_z2, 2)
    b.table.vertices[2:4] = b.table.vertices[0:2]
    sx, want = build_script_X_ball(b), rebuild_by_words(b)
    assert list(sx.arcs.items()) == list(want.arcs.items())
    assert sx.cycles == want.cycles


def test_rebuild_scans_each_conjugator_once(c5_z3, monkeypatch):
    """Once the mediums are encoded, the rebuild reads each distinct
    conjugator word's maximal syllables with one scan: 71 at radius 2,
    where a scan per node and label made 390."""
    b = build_ball(c5_z3, 2)
    words = {h.conjugator.word for h in vertex_mediums(b)}
    scanned = []
    scan = algebraic.maximal_syllables
    monkeypatch.setattr(algebraic, "maximal_syllables",
                        lambda p, word: scanned.append(word) or scan(p, word))
    build_script_X_ball(b)
    assert sorted(scanned) == sorted(words)
    assert len(scanned) == 71


def test_interior_skeleton_is_built_once_per_suite(c5_z3, monkeypatch):
    """The phi check and the cycle and join audits read one interior
    skeleton, kept on the ball: one run of the algebraic suite lists the
    interior vertices once."""
    b = build_ball(c5_z3, 2)
    listed = []
    interior = BallTable.interior_vertices
    monkeypatch.setattr(BallTable, "interior_vertices",
                        lambda t: listed.append(t) or interior(t))
    assert algebraic_suite(b, seed=0).ok
    assert listed == [b.table]
    assert algebraic._interior_skeleton(b) is b.derived["interior skeleton"]


def test_rebuild_ignores_the_tables_edges(c5_z2):
    """The rebuild reads its arcs' words off the mediums' conjugators and
    never reads the table's edge records: with one interior X-edge's end id
    moved to a vertex outside the interior, its arcs are unchanged, and the
    phi check, which compares the two, names that pair."""
    b = build_ball(c5_z2, 2)
    t = b.table
    want = build_script_X_ball(build_ball(c5_z2, 2)).arcs
    interior = set(t.interior_vertices())
    e = next(e for e in range(len(t.edges) // 4) if interior.issuperset(t.ends(e)))
    u, w = t.ends(e)
    t.edges[4 * e + 3] = next(x for x in range(len(t.vertices) // 2) if x not in interior)
    assert build_script_X_ball(b).arcs == want
    [row] = [r for r in phi_iso_check(b).results
             if r.check_id == "phi.edges-preserved-both-ways"]
    assert row.status == "fail"
    assert row.witness == [(t.vertex_key(u), t.vertex_key(w), False, True)]


def test_rebuild_makes_no_subgroup_once_the_mediums_are_encoded(c5_z2, monkeypatch):
    """The rebuild keeps its arcs as id pairs with their (label, word)
    values: once the ball's mediums are encoded it makes no
    ``CSubgroup`` and no ``GroupElement``."""
    b = build_ball(c5_z2, 3)
    vertex_mediums(b)
    made = []
    for name in ("CSubgroup", "GroupElement"):
        make = getattr(algebraic, name)
        monkeypatch.setattr(algebraic, name,
                            lambda *args, make=make: made.append(args) or make(*args))
    sx = build_script_X_ball(b)
    assert made == []
    assert len(sx.arcs) == len(b.table.edges) // 4


# -- induced cycles -----------------------------------------------------------------


def test_induced_cycle_enumeration_on_known_graphs():
    g = nx.cycle_graph(5)
    assert len(_induced_n_cycles(g, 5)) == 1
    # K4 has 4 triangles but no induced 4-cycle
    k4 = nx.complete_graph(4)
    assert _induced_n_cycles(k4, 4) == []
    assert len(_induced_n_cycles(k4, 3)) == 4
    # two pentagons sharing one edge: the 8-cycle around them has a chord
    h = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (0, 5), (5, 6), (6, 7), (7, 1)])
    assert len(_induced_n_cycles(h, 5)) == 2
    assert _induced_n_cycles(h, 8) == []


def test_induced_cycle_audit(c5_z2, c5_mixed, c6_z2):
    for p in (c5_z2, c5_mixed, c6_z2):
        r = induced_cycle_audit(build_ball(p, 2))
        assert r.ok
        assert "cycles=1" in r.results[0].instance  # the central polygon


def test_induced_cycle_audit_radius_three(c5_z2):
    r = induced_cycle_audit(build_ball(c5_z2, 3))
    assert r.ok
    # a radius-3 ball has interior beyond the central polygon
    count = int(r.results[0].instance.split("cycles=")[1])
    assert count >= 6
