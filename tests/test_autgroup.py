import random
from pathlib import Path

import pytest

from cyclewall import autgroup, cli
from cyclewall.algebraic import MAXIMAL, MEDIUM, MINIMAL, window_of
from cyclewall.autgroup import (
    AutElement,
    CycleSymmetry,
    LocalAut,
    acyl_witness,
    aut_act_vertex,
    aut_apply,
    aut_compose,
    aut_decompose,
    aut_identity,
    aut_inverse,
    aut_serialize,
    coset_intersection,
    enumerate_loc,
    enumerate_symmetries,
    generator_images,
    generator_values,
    identity_local_aut,
    inner_aut,
    loc_fixator,
    loc_stabilizes_P_audit,
    local_aut,
    witness_details,
    witness_fixator_check,
)
from cyclewall.cli import load_presentation, run_suite
from cyclewall.davis import build_ball, x_vertex
from cyclewall.errors import DecompositionError, ValidationError
from cyclewall.localgroups import integers_group, isomorphisms
from cyclewall.words import (
    GroupElement,
    Presentation,
    Syllable,
    enumerate_ball_elements,
    format_word,
    identity,
    inv,
    mul,
    parse_word,
    reduce_word,
)
from oracles import (
    axis_segment,
    coset_intersection_by_stripping,
    enumerate_loc_by_listing,
    loc_fixator_by_filter,
    s3_table_group,
    treewall_of_edge,
)

PRESENTATIONS = Path(__file__).parent.parent / "perfbench" / "presentations"
REFERENCES = sorted(p.stem for p in PRESENTATIONS.glob("*.json"))


def random_aut(p, rng, loc=None, inner_pool=None):
    loc = loc if loc is not None else enumerate_loc(p)
    pool = inner_pool if inner_pool is not None else enumerate_ball_elements(p, 3)
    return AutElement(rng.choice(pool), rng.choice(loc).local
                      if isinstance(loc[0], AutElement) else rng.choice(loc))


# -- symmetries and the local group ------------------------------------------------


def test_symmetries_all_equal_groups(c5_z2):
    syms = enumerate_symmetries(c5_z2)
    assert len(syms) == 10  # full dihedral group of the pentagon


def test_symmetries_respect_iso_classes(c5_mixed):
    # groups (Z2, Z3, Z2, Z3, Z2): no rotation or reflection can work except
    # reflections fixing the lone pattern break too -- check by brute force
    syms = enumerate_symmetries(c5_mixed)
    for s in syms:
        for i in range(5):
            assert isomorphisms(c5_mixed.group(i), c5_mixed.group(s(i)))


def test_symmetry_rejects_non_dihedral(c5_z2):
    with pytest.raises(ValidationError):
        CycleSymmetry(c5_z2, (0, 2, 1, 3, 4))


def test_loc_size_c5_z3(c5_z3):
    # 10 dihedral symmetries, 2 automorphisms of Z/3 per vertex
    assert len(enumerate_loc(c5_z3)) == 10 * 2 ** 5


def test_loc_size_c5_s3(c5_s3):
    # iso classes (Z2, Z3, S3, Z2, Z3) admit only the identity symmetry;
    # |Aut| per vertex: 1, 2, 6, 1, 2
    assert len(enumerate_loc(c5_s3)) == 24


@pytest.mark.parametrize("name", REFERENCES + ["5 x Z"])
def test_indexed_loc_matches_the_listing(name):
    """The indexed product holds the listed elements in the listed order, and
    lengths, slices, indices and seeded draws behave as on the list."""
    p = (Presentation((integers_group(),) * 5) if name == "5 x Z"
         else load_presentation(str(PRESENTATIONS / f"{name}.json")))
    loc, listed = enumerate_loc(p), enumerate_loc_by_listing(p)
    assert list(loc) == listed
    assert len(loc) == len(listed)
    assert loc[:60] == listed[:60]
    rng = random.Random(4)
    for _ in range(20):
        k = rng.randrange(len(listed))
        assert loc[k] == listed[k]
        assert loc[-1 - k] == listed[-1 - k]
    assert random.Random(9).choice(loc) == random.Random(9).choice(listed)
    with pytest.raises(IndexError):
        loc[len(listed)]
    with pytest.raises(IndexError):
        loc[-1 - len(listed)]


# -- group structure -----------------------------------------------------------


def test_compose_matches_pointwise_action(c5_mixed, rng=random.Random(7)):
    p = c5_mixed
    loc = enumerate_loc(p)
    pool = enumerate_ball_elements(p, 2)
    xs = [rng.choice(pool) for _ in range(5)]
    for _ in range(20):
        a, b = random_aut(p, rng, loc, pool), random_aut(p, rng, loc, pool)
        ab = aut_compose(a, b)
        for x in xs:
            assert aut_apply(ab, x) == aut_apply(a, aut_apply(b, x))


def test_inverse_and_identity(c5_mixed, rng=random.Random(3)):
    p = c5_mixed
    loc = enumerate_loc(p)
    pool = enumerate_ball_elements(p, 2)
    e = aut_identity(p)
    for _ in range(10):
        a = random_aut(p, rng, loc, pool)
        assert aut_compose(a, aut_inverse(a)) == e
        assert aut_compose(aut_inverse(a), a) == e


def test_homomorphism_respects_multiplication(c5_z2, rng=random.Random(1)):
    p = c5_z2
    loc = enumerate_loc(p)
    pool = enumerate_ball_elements(p, 2)
    for _ in range(15):
        a = random_aut(p, rng, loc, pool)
        x, y = rng.choice(pool), rng.choice(pool)
        assert aut_apply(a, mul(x, y)) == mul(aut_apply(a, x), aut_apply(a, y))
        assert aut_apply(a, inv(x)) == inv(aut_apply(a, x))


def test_inner_and_local_commute_to_normal_form(c5_z3):
    p = c5_z3
    g = parse_word(p, "v0:1 v2:2")
    lam = enumerate_loc(p)[7]
    a = aut_compose(inner_aut(g), local_aut(lam))
    assert a.inner == g and a.local == lam
    # composing the other way re-sorts the inner part through the local one
    b = aut_compose(local_aut(lam), inner_aut(g))
    assert b.local == lam and b.inner == lam.apply(g)


def test_serialization_shape(c5_mixed):
    a = aut_identity(c5_mixed)
    doc = aut_serialize(a)
    assert doc["sigma"] == [0, 1, 2, 3, 4]
    assert doc["inner"] == ""
    assert len(doc["isos"]) == 5


# -- action on the complex -------------------------------------------------------


def test_action_on_vertices_matches_translation(c5_mixed, rng=random.Random(9)):
    p = c5_mixed
    from cyclewall.davis import act_vertex
    pool = enumerate_ball_elements(p, 2)
    for _ in range(10):
        g = rng.choice(pool)
        v = x_vertex(p, rng.choice(pool), rng.randrange(5))
        assert aut_act_vertex(inner_aut(g), v) == act_vertex(g, v)


def test_reflection_maps_vertex_classes(c5_z2):
    p = c5_z2
    sigma = CycleSymmetry(p, (0, 4, 3, 2, 1))
    lam = LocalAut(sigma, identity_local_aut(p).isos)
    a = local_aut(lam)
    v = x_vertex(p, identity(p), 1)   # classes {1, 2} -> {4, 3} -> base 3
    assert aut_act_vertex(a, v).index == 3


def test_local_fixes_base_polygon_audit(c5_z2, c5_mixed):
    for p in (c5_z2, c5_mixed):
        sample = enumerate_loc(p)[:40]
        assert loc_stabilizes_P_audit(p, sample).ok


# -- decomposition --------------------------------------------------------------


def test_coset_intersection_examples(c5_z2):
    p = c5_z2
    e = identity(p)
    hit = coset_intersection(e, frozenset({0, 1, 2}), e, frozenset({1, 2, 3}))
    assert hit is not None
    z, s = hit
    assert z.is_identity and s == frozenset({1, 2})
    # disjoint cosets of the same parabolic
    g = parse_word(p, "v4:1")
    assert coset_intersection(g, frozenset({0, 1, 2}),
                              e, frozenset({0, 1, 2})) is None
    miss = coset_intersection(parse_word(p, "v3:1"), frozenset({0, 1}),
                              parse_word(p, "v0:1 v3:1 v0:1"), frozenset({1, 2}))
    assert miss is None


def random_vertex_set(p, rng):
    """A tier's window at a random base, or any non-empty vertex set."""
    if rng.random() < 0.5:
        return window_of(p.n, rng.choice((MINIMAL, MEDIUM, MAXIMAL)),
                         rng.randrange(p.n))
    return frozenset(rng.sample(range(p.n), rng.randint(1, p.n)))


def random_element(p, rng, max_len, vertices=None):
    alphabet = [s for s in p.syllables() if vertices is None or s.vertex in vertices]
    return reduce_word(p, [rng.choice(alphabet)
                           for _ in range(rng.randrange(max_len + 1))])


@pytest.mark.parametrize("name", sorted(p.stem for p in PRESENTATIONS.glob("*.json")))
def test_coset_intersection_matches_the_stripping_oracle(name):
    """Reading the minimal rep of c2^-1·c1 modulo S1 intersects two cosets
    as greedy two-sided stripping does: on 2,000 random pairs per
    presentation, half of them made to meet (c1 = c2·lam·rho with lam in
    <G_S2> and rho in <G_S1>) and half drawn apart."""
    p = load_presentation(str(PRESENTATIONS / f"{name}.json"))
    rng = random.Random(12)
    met = 0
    for k in range(2000):
        S1, S2 = random_vertex_set(p, rng), random_vertex_set(p, rng)
        c2 = random_element(p, rng, 8)
        if k % 2:
            c1 = random_element(p, rng, 8)
        else:
            c1 = mul(mul(c2, random_element(p, rng, 4, S2)),
                     random_element(p, rng, 4, S1))
        got = coset_intersection(c1, S1, c2, S2)
        assert got == coset_intersection_by_stripping(c1, S1, c2, S2), \
            (format_word(c1), sorted(S1), format_word(c2), sorted(S2))
        met += got is not None
    assert 1000 <= met < 2000


def test_decompose_roundtrip_samples(c5_z2, c5_mixed, c5_s3):
    for p, count in ((c5_z2, 60), (c5_mixed, 60), (c5_s3, 30)):
        rng = random.Random(42)
        loc = enumerate_loc(p)
        pool = enumerate_ball_elements(p, 3)
        for _ in range(count):
            a = random_aut(p, rng, loc, pool)
            got = aut_decompose(p, generator_images(a))
            assert got == a


def test_generator_images_are_aut_apply_on_each_generator(c5_mixed, c5_s3, c6_mixed):
    """``generator_images`` inverts the inner part once, ``aut_apply`` once per
    generator; the images agree, on long inner parts too."""
    for p in (c5_mixed, c5_s3, c6_mixed):
        rng = random.Random(8)
        loc = enumerate_loc(p)
        alphabet = list(p.syllables())
        for _ in range(20):
            inner = reduce_word(p, [rng.choice(alphabet)
                                    for _ in range(rng.randrange(30))])
            a = AutElement(inner, rng.choice(loc))
            assert generator_images(a) == [
                [aut_apply(a, GroupElement(p, (Syllable(i, x),)))
                 for x in generator_values(p, i)]
                for i in range(p.n)]


def test_decompose_identity(c5_z2):
    p = c5_z2
    a = aut_decompose(p, generator_images(aut_identity(p)))
    assert a.is_identity


def test_decompose_rejects_non_syllable_image(c5_z2):
    p = c5_z2
    images = generator_images(aut_identity(p))
    images[0][0] = parse_word(p, "v0:1 v2:1")  # not conjugate to one syllable
    with pytest.raises(DecompositionError):
        aut_decompose(p, images)


def test_decompose_rejects_inconsistent_vertex_targets(c5_z3):
    p = c5_z3
    images = generator_images(aut_identity(p))
    images[0][1] = parse_word(p, "v2:2")  # second generator sent elsewhere
    with pytest.raises(DecompositionError) as err:
        aut_decompose(p, images)
    assert err.value.witness is not None


def test_decompose_rejects_non_homomorphic_images(c5_s3):
    p = c5_s3
    images = generator_images(aut_identity(p))
    # swap two images inside the S3 vertex so the value map is a bijection
    # but not a homomorphism
    images[2][0], images[2][1] = images[2][1], images[2][0]
    with pytest.raises(DecompositionError):
        aut_decompose(p, images)


def test_decompose_rejects_incompatible_symmetry(c5_mixed):
    p = c5_mixed
    a = aut_identity(p)
    images = generator_images(a)
    # send the Z/2 at vertex 0 to the Z/2 at vertex 2: a transposition of the
    # cycle, not dihedral
    images[0] = [parse_word(p, "v2:1")]
    images[2] = [parse_word(p, "v0:1")]
    with pytest.raises(DecompositionError):
        aut_decompose(p, images)


def test_inner_intersect_local_is_trivial(c5_z2, c5_mixed):
    # an inner automorphism that is also pure-local must be the identity:
    # decompose every short inner automorphism and check its normal form
    for p in (c5_z2, c5_mixed):
        for g in enumerate_ball_elements(p, 2):
            a = aut_decompose(p, generator_images(inner_aut(g)))
            assert a.inner == g
            assert a.local.is_identity
            if not g.is_identity:
                assert not a.is_identity


# -- the witness ---------------------------------------------------------------


def test_witness_vertex_sequence_c5_z3(c5_z3):
    d = witness_details(c5_z3)
    assert not d["degenerate"] and d["m"] == 1
    assert d["element"].syllable_length == 10
    assert d["vertex_sequence"] == [2, 0, 3, 1, 4, 2, 0, 3, 1, 4]


def test_witness_degenerate_all_z2(c5_z2):
    d = witness_details(c5_z2)
    assert d["degenerate"] and d["element"].is_identity


def test_witness_mixed_pads_missing_vertices(c5_mixed):
    d = witness_details(c5_mixed)
    assert not d["degenerate"] and d["m"] == 1
    assert d["element"].syllable_length == 10


def test_witness_fixator_trivial_c5_z3(c5_z3):
    p = c5_z3
    g = acyl_witness(p)
    assert witness_fixator_check(p, g).ok
    fix = loc_fixator(p, g)
    assert len(fix) == 1 and fix[0].is_identity


def test_fixator_of_single_syllable_is_a_subgroup(c5_z3):
    # elements fixing one generator: symmetry fixes its vertex and the local
    # map there is trivial on it -- count them directly
    p = c5_z3
    g = parse_word(p, "v1:1")
    fix = loc_fixator(p, g)
    expect = [lam for lam in enumerate_loc(p)
              if lam.sigma(1) == 1 and lam.isos[1].apply(1) == 1]
    assert fix == expect
    assert len(fix) > 1  # a genuine subgroup, unlike the witness fixator


@pytest.mark.parametrize("name", REFERENCES)
def test_loc_fixator_matches_the_whole_group_filter(name):
    """Applying only the elements that match g's syllable values finds the
    same fixator, in the same order, as applying every element of Loc: on
    the witness, every single syllable, the identity and 50 random words."""
    p = load_presentation(str(PRESENTATIONS / f"{name}.json"))
    d = witness_details(p)
    words = [identity(p)] + [GroupElement(p, (s,)) for s in p.syllables()]
    words += [] if d["degenerate"] else [d["element"]]
    rng = random.Random(21)
    words += [random_element(p, rng, 10) for _ in range(50)]
    for g in words:
        assert loc_fixator(p, g) == loc_fixator_by_filter(p, g), format_word(g)


def test_aut_suite_on_six_s3_indexes_a_local_group_of_559872():
    p = Presentation((s3_table_group(),) * 6)
    report = run_suite(p, "aut", 2, 3, 0)
    assert report.ok and not report.inconclusive
    [row] = [r for r in report.results if r.check_id == "aut.witness-fixator-trivial"]
    assert row.instance.endswith(" loc=559872")


# -- every aut check can fail ---------------------------------------------------


def aut_statuses(p):
    return {r.check_id: r.status for r in cli.aut_suite(p, 3, 0).results}


def test_witness_fixator_fails_without_the_apply_check(c5_z3, monkeypatch):
    """On 5 x Z/3 the witness takes value 1 twice at every vertex, so under
    each of the 10 symmetries the identity isomorphisms match its syllable
    values; only applying them shows that 9 of them move it."""
    assert aut_statuses(c5_z3)["aut.witness-fixator-trivial"] == "pass"
    monkeypatch.setattr(autgroup.LocalAut, "apply", lambda lam, g: g)
    assert aut_statuses(c5_z3)["aut.witness-fixator-trivial"] == "fail"
    assert len(loc_fixator(c5_z3, acyl_witness(c5_z3))) == 10


def test_decompose_roundtrip_fails_when_images_drop_the_inner_part(c5_z3, monkeypatch):
    monkeypatch.setattr(cli, "generator_images",
                        lambda a: generator_images(local_aut(a.local)))
    assert aut_statuses(c5_z3)["aut.decompose-roundtrip"] == "fail"


def test_local_fixes_base_polygon_fails_under_an_added_translation(c5_z3, monkeypatch):
    shift = inner_aut(parse_word(c5_z3, "v0:1"))
    monkeypatch.setattr(autgroup, "aut_act_vertex",
                        lambda a, v: aut_act_vertex(aut_compose(shift, a), v))
    assert aut_statuses(c5_z3)["aut.local-fixes-base-polygon"] == "fail"


def test_inner_moves_base_polygon_fails_when_the_action_ignores_it(c5_z3, monkeypatch):
    monkeypatch.setattr(autgroup, "aut_act_vertex",
                        lambda a, v: aut_act_vertex(local_aut(a.local), v))
    assert aut_statuses(c5_z3)["aut.nontrivial-inner-moves-base-polygon"] == "fail"


# -- axes ----------------------------------------------------------------------


def test_axis_segment_lies_in_one_wall(c5_z2):
    p = c5_z2
    b = build_ball(p, 2)
    seg = axis_segment(b, 1, 2)
    assert len(seg) >= 2
    assert all(e.label == 1 for e in seg)
    wall = treewall_of_edge(b, seg[0])
    assert all(e in wall.edges for e in seg)


def test_axis_translation_by_one_period(c5_z2):
    from cyclewall.davis import act_edge
    p = c5_z2
    b = build_ball(p, 3)
    seg = set(axis_segment(b, 0, 2))
    g0 = mul(parse_word(p, "v4:1"), parse_word(p, "v1:1"))
    moved = {act_edge(g0, e) for e in seg}
    overlap = moved & seg
    assert overlap  # the translate slides along the same axis
