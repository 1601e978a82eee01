import inspect
import random
import textwrap
from pathlib import Path

import pytest

from cyclewall import autgroup, cli, words
from cyclewall.algebraic import MAXIMAL, MEDIUM, MINIMAL, window_of
from cyclewall.autgroup import (
    AutElement,
    CycleSymmetry,
    LocalAut,
    aut_act_vertex,
    aut_compose,
    aut_decompose,
    aut_serialize,
    coset_intersection,
    enumerate_loc,
    enumerate_symmetries,
    generator_images,
    generator_values,
    identity_local_aut,
    loc_fixator,
    loc_stabilizes_P_audit,
    local_aut,
    witness_details,
    witness_fixator_check,
)
from cyclewall.cli import load_presentation, run_suite
from cyclewall.davis import act_vertex, build_ball
from cyclewall.errors import CycleWallError, DecompositionError, InvariantError, ValidationError
from cyclewall.localgroups import IDENTITY, integers_group, isomorphisms
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
    split_conjugate,
    star_split,
)
from conftest import inner_aut
from oracles import (
    act_edge,
    aut_act_vertex_object,
    aut_apply,
    aut_decompose_by_reduction,
    aut_inverse,
    axis_segment,
    conjugates,
    coset_intersection_by_stripping,
    enumerate_loc_by_listing,
    loc_fixator_by_filter,
    s3_table_group,
    treewall_of_edge,
    x_vertex,
)

PRESENTATIONS = Path(__file__).parent.parent / "perfbench" / "presentations"
REFERENCES = sorted(p.stem for p in PRESENTATIONS.glob("*.json"))


def aut_identity(p):
    return AutElement(identity(p), identity_local_aut(p))


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


@pytest.mark.parametrize("name", REFERENCES + ["5 x Z", "5 x S3"])
def test_indexed_loc_matches_the_listing(name):
    """The indexed product holds the listed elements in the listed order, and
    lengths, slices, indices and seeded draws behave as on the list.  Its
    iterator, ``Sequence``'s walk over the indices, and its indices agree."""
    p = (Presentation((integers_group(),) * 5) if name == "5 x Z"
         else reference_or_s3x5(name))
    loc, listed = enumerate_loc(p), enumerate_loc_by_listing(p)
    assert list(loc) == listed
    assert list(loc) == [loc[k] for k in range(len(loc))]
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
    pool = enumerate_ball_elements(p, 2)
    for _ in range(10):
        g = rng.choice(pool)
        v = x_vertex(p, rng.choice(pool), rng.randrange(5))
        assert aut_act_vertex(inner_aut(g), (v.index, v.rep)) == act_vertex(g, (v.index, v.rep))


def test_action_on_vertex_pairs_matches_the_object_action(c5_z3, rng=random.Random(11)):
    """For 20 seeded a = ι(g)∘λ, g in B(2) and λ among the first 60 of Loc,
    some with a symmetry other than the identity, a moves each X-vertex
    (i, rep) of the radius-2 ball as the oracle's action moves the vertex
    object."""
    p = c5_z3
    t = build_ball(p, 2).table
    pool, loc = enumerate_ball_elements(p, 2), enumerate_loc(p)[:60]
    sample = [AutElement(rng.choice(pool), rng.choice(loc)) for _ in range(20)]
    assert any(not a.local.sigma.is_identity for a in sample)
    assert any(not a.inner.is_identity for a in sample)
    for a in sample:
        for i, k in zip(t.vertices[::2], t.vertices[1::2]):
            w = aut_act_vertex_object(a, x_vertex(p, t.reps[k], i))
            assert aut_act_vertex(a, (i, t.reps[k])) == (w.index, w.rep)


def test_loc_checks_each_block_once_and_decodes_without_rechecking(c5_mixed, monkeypatch):
    """A block with an isomorphism that does not follow its symmetry is
    refused when the Loc is built, with LocalAut's error text; decoding runs
    no check, and a LocalAut built directly is still checked."""
    p = c5_mixed   # Z/2, Z/3, Z/2, Z/3, Z/2
    sigma, per_vertex = enumerate_loc(p).choices[0]
    identity_isos = identity_local_aut(p).isos
    bad = [per_vertex[0], per_vertex[1] + per_vertex[0], *per_vertex[2:]]
    message = "isomorphism at vertex 1 does not follow the symmetry"
    with pytest.raises(ValidationError, match=message):
        autgroup.Loc([(sigma, bad)])
    with pytest.raises(ValidationError, match=message):
        LocalAut(sigma, (per_vertex[0][0], per_vertex[0][0], *identity_isos[2:]))
    with pytest.raises(ValidationError, match="one isomorphism per vertex"):
        autgroup.Loc([(sigma, per_vertex[:-1])])
    listed = enumerate_loc_by_listing(p)

    def refuse(self, *args):
        raise AssertionError("a decoded element was checked again")

    monkeypatch.setattr(LocalAut, "__init__", refuse)
    assert list(enumerate_loc(p)) == listed
    with pytest.raises(AssertionError, match="checked again"):
        LocalAut(sigma, identity_isos)


def test_reflection_maps_vertex_classes(c5_z2):
    p = c5_z2
    sigma = CycleSymmetry(p, (0, 4, 3, 2, 1))
    lam = LocalAut(sigma, identity_local_aut(p).isos)
    a = local_aut(lam)
    v = (1, identity(p))   # classes {1, 2} -> {4, 3} -> base 3
    assert aut_act_vertex(a, v) == (3, identity(p))


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
    """``generator_images`` writes each row out from the inner part's strip
    at the row's image vertex, ``aut_apply`` multiplies once per generator;
    the images agree, on long inner parts too."""
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


def reference_or_s3x5(name):
    if name == "5 x S3":
        return Presentation((s3_table_group(),) * 5)
    return load_presentation(str(PRESENTATIONS / f"{name}.json"))


def decomposition_cases(p, seed, count):
    """Accepted image sets and five corruptions of them, in turn: a random
    element for one image, one image conjugated by a random element,
    another vertex's image, a whole row conjugated by one element, and a
    reversed row."""
    rng = random.Random(seed)
    loc = enumerate_loc(p)
    cases = []
    for k in range(count):
        images = generator_images(AutElement(random_element(p, rng, 12),
                                             rng.choice(loc)))
        i = rng.randrange(p.n)
        x = rng.randrange(len(images[i]))
        f = random_element(p, rng, 4)
        kind = k % 6
        if kind == 1:
            images[i][x] = random_element(p, rng, 12)
        elif kind == 2:
            images[i][x] = mul(mul(f, images[i][x]), inv(f))
        elif kind == 3:
            images[i][x] = rng.choice(images[rng.choice(
                [j for j in range(p.n) if j != i])])
        elif kind == 4:
            images[i] = [mul(mul(f, h), inv(f)) for h in images[i]]
        elif kind == 5:
            images[i].reverse()
        cases.append(images)
    return cases


def decomposition_outcome(decompose, p, images):
    """The decomposition, or the type, message and witness of its error."""
    try:
        return decompose(p, images)
    except CycleWallError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def decomposition_mismatches(p, cases):
    return [k for k, images in enumerate(cases)
            if decomposition_outcome(autgroup.aut_decompose, p, images)
            != decomposition_outcome(aut_decompose_by_reduction, p, images)]


@pytest.mark.parametrize("name", REFERENCES + ["5 x S3"])
def test_decompose_matches_reducing_every_image(name):
    """Reducing one image per vertex and reading the rest through its
    conjugator accepts and rejects what reducing every image does, with the
    same result or the same error, message and witness: 270 cases on each
    of seven presentations."""
    p = reference_or_s3x5(name)
    cases = decomposition_cases(p, 31, 270)
    assert decomposition_mismatches(p, cases) == []
    outcomes = [decomposition_outcome(aut_decompose, p, images) for images in cases]
    messages = " ".join(o[1] for o in outcomes if isinstance(o, tuple))
    assert sum(isinstance(o, AutElement) for o in outcomes) >= 45
    assert "is not conjugate to a syllable" in messages
    assert "conjugator constraints are inconsistent" in messages
    if any(g.size > 2 for g in p.groups):   # a row with a later image
        assert "land in different vertex groups" in messages


def mutated_decompose(monkeypatch, old, new):
    """Patch ``aut_decompose`` with one line of its source replaced."""
    source = textwrap.dedent(inspect.getsource(autgroup.aut_decompose))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace = dict(vars(autgroup))
    exec(compile(mutated, autgroup.__file__, "exec"), namespace)
    monkeypatch.setattr(autgroup, "aut_decompose", namespace["aut_decompose"])


def test_decompose_match_fails_when_the_fast_path_skips_the_vertex_check(monkeypatch):
    """A core read off the first conjugator's template must still be
    compared with the vertex's target: without that, another vertex's image
    is rejected later, with another message."""
    mutated_decompose(monkeypatch, "elif target[i] != vertex:",
                      "elif c is not pair[0] and target[i] != vertex:")
    p = reference_or_s3x5("c6_mixed")
    assert decomposition_mismatches(p, decomposition_cases(p, 31, 60))


def test_decompose_match_fails_when_the_pin_check_always_passes(monkeypatch):
    """The longest conjugator is tested against one star split per vertex:
    without that test, an inconsistent conjugator is accepted, or rejected
    later, with another message."""
    mutated_decompose(
        monkeypatch,
        "if any(u.word != c.word for (u, _), c in zip(splits, conjugators)):",
        "if False:")
    p = reference_or_s3x5("c6_mixed")
    assert decomposition_mismatches(p, decomposition_cases(p, 31, 60))


def test_decompose_match_fails_when_the_pin_takes_the_shortest_conjugator(monkeypatch):
    """Only the longest conjugator can be the inner part: pinning the
    shortest fails the star-split test on accepted image sets."""
    mutated_decompose(monkeypatch, "g = max(conjugators,", "g = min(conjugators,")
    p = reference_or_s3x5("c6_mixed")
    assert decomposition_mismatches(p, decomposition_cases(p, 31, 60))


def test_decompose_raises_an_invariant_error_when_met_cosets_fail_the_pin(c5_z3, monkeypatch):
    """With star splits patched to strip everything, consistent conjugators
    fail the pin check; the cosets, intersected to name the vertex that
    fails, then meet, which the pin rules out, so the decomposition raises
    ``InvariantError`` with their common element, the inner part, as the
    witness."""
    p = c5_z3
    images = generator_images(inner_aut(parse_word(p, "v0:1 v2:2")))
    monkeypatch.setattr(autgroup, "star_split", lambda g, v: (identity(p), IDENTITY))
    with pytest.raises(InvariantError) as err:
        aut_decompose(p, images)
    assert err.value.witness == "v0:1 v2:2"


def seeded_auts(p, seed, count, longest):
    """Seeded automorphisms whose inner parts have up to ``longest``
    syllables: random syllables are multiplied on until a drawn length."""
    rng = random.Random(seed)
    loc = enumerate_loc(p)
    alphabet = [GroupElement(p, (s,)) for s in p.syllables()]
    auts = []
    for _ in range(count):
        inner, length = identity(p), rng.randrange(longest + 1)
        while inner.syllable_length < length:
            inner = mul(inner, rng.choice(alphabet))
        auts.append(AutElement(inner, rng.choice(loc)))
    return auts


@pytest.mark.parametrize("name", REFERENCES + ["5 x S3"])
def test_the_longest_conjugator_is_the_inner_part(name):
    """On 40 seeded automorphisms per presentation, with inner parts of up to
    30 syllables, the first longest of the conjugators that splitting the
    first image at each vertex reads is the inner part, and every shorter
    one is its strip at that vertex's image.  Some inner part has 25
    syllables or more."""
    p = reference_or_s3x5(name)
    longest = 0
    for a in seeded_auts(p, 33, 40, 30):
        images = generator_images(a)
        conjugators = [split_conjugate(row[0])[1] for row in images]
        assert max(conjugators, key=lambda c: len(c.word)) == a.inner
        for i, c in enumerate(conjugators):
            assert c == star_split(a.inner, a.local.sigma(i))[0]
        longest = max(longest, a.inner.syllable_length)
    assert longest >= 25


class Calls:
    """A wrapper that counts the calls of ``fn`` and the first argument's
    words it is called on."""

    def __init__(self, fn):
        self.fn, self.words = fn, []

    def __call__(self, g, *args):
        self.words.append(g.word)
        return self.fn(g, *args)


@pytest.mark.parametrize("name", REFERENCES + ["5 x S3"])
def test_an_accepted_decomposition_intersects_no_cosets_and_inverts_each_conjugator_once(
        name, monkeypatch):
    """On 30 seeded automorphisms per presentation, decomposing their images
    calls ``coset_intersection`` never and ``inv`` once per distinct
    conjugator word at most."""
    p = reference_or_s3x5(name)
    cases = []
    for a in seeded_auts(p, 34, 30, 30):
        images = generator_images(a)
        cases.append((a, images, {split_conjugate(row[0])[1].word for row in images}))
    intersections, inverses = Calls(coset_intersection), Calls(words.inv)
    monkeypatch.setattr(autgroup, "coset_intersection", intersections)
    monkeypatch.setattr(autgroup, "inv", inverses)
    monkeypatch.setattr(words, "inv", inverses)
    for a, images, conjugators in cases:
        inverses.words.clear()
        assert aut_decompose(p, images) == a
        assert len(inverses.words) <= len(conjugators)
        assert set(inverses.words) <= conjugators
    assert intersections.words == []


@pytest.mark.parametrize("name", REFERENCES + ["5 x S3"])
def test_generator_images_invert_each_distinct_strip_once(name, monkeypatch):
    """On 30 seeded automorphisms per presentation, ``generator_images``
    inverts each distinct strip of the inner part at a vertex's image once,
    and its rows are the row oracle's, which inverts a strip per row."""
    p = reference_or_s3x5(name)
    inverses = Calls(words.inv)
    monkeypatch.setattr(autgroup, "inv", inverses)
    for a in seeded_auts(p, 35, 30, 30):
        sigma, isos = a.local.sigma, a.local.isos
        strips = [star_split(a.inner, sigma(i))[0].word for i in range(p.n)]
        inverses.words.clear()
        rows = generator_images(a)
        assert sorted(inverses.words) == sorted(set(strips))
        assert rows == [conjugates(a.inner, sigma(i),
                                   [isos[i].apply(x) for x in generator_values(p, i)])
                        for i in range(p.n)]


def test_decompose_reads_a_later_image_off_its_middle_only_on_the_whole_template(c5_s3):
    """A later image with the first image's length and conjugator word in
    front, but another tail, is not read off its middle syllable: under
    conjugation by v0:1, the image v0:1 v2:2 v4:1 of v2:2 is not conjugate
    to a syllable."""
    p = c5_s3
    images = generator_images(inner_aut(parse_word(p, "v0:1")))
    assert format_word(images[2][0]) == "v0:1 v2:1 v0:1"
    images[2][1] = parse_word(p, "v0:1 v2:2 v4:1")
    with pytest.raises(DecompositionError,
                       match="generator 2 at vertex 2 is not conjugate to a syllable"):
        aut_decompose(p, images)


@pytest.mark.parametrize("image, message, witness", [
    ("v4:1 v2:2 v4:2", "after removing the inner part, the image of generator 2 "
     "at vertex 2 is not a syllable at vertex 2", "v3:1 v0:1 v4:1 v2:2 v0:1 v3:1 v4:2"),
    ("v0:1", "vertex 2: generator images land in different vertex groups 2 and 0",
     "v0:1"),
    ("v1:1", "vertex 2: generator images land in different vertex groups 2 and 1",
     "v1:1"),
    ("v0:1 v3:1 v0:1", "vertex 2: generator images land in different vertex "
     "groups 2 and 3", "v0:1 v3:1 v0:1"),
    ("v0:1 v2:2 v4:1", "image of generator 2 at vertex 2 is not conjugate to a "
     "syllable", "v0:1 v2:2 v4:1"),
], ids=["no-syllable-after-g", "at-v0", "at-v1", "at-v3", "not-conjugate"])
def test_decompose_rejects_a_later_image_off_the_template(c5_s3, image, message,
                                                          witness):
    """Under conjugation by g = v0:1 v3:1, the first image at vertex 2 is
    v0:1 v2:1 v0:1; a later image off that template is rejected by what
    splitting it alone reads: no syllable after removing g (witness
    g^-1·h·g), a syllable at another vertex, or no conjugate of a syllable."""
    p = c5_s3
    images = generator_images(inner_aut(parse_word(p, "v0:1 v3:1")))
    assert format_word(images[2][0]) == "v0:1 v2:1 v0:1"
    images[2][1] = parse_word(p, image)
    with pytest.raises(DecompositionError) as err:
        aut_decompose(p, images)
    assert (str(err.value), err.value.witness) == (message, witness)


def test_decompose_writes_no_images_when_every_strip_is_the_conjugator(c5_s3, monkeypatch):
    """An accepted decomposition is checked by comparing words it already
    holds, without writing out its own generator images."""
    rng = random.Random(5)
    auts = [random_aut(c5_s3, rng) for _ in range(20)]
    cases = [(a, generator_images(a)) for a in auts]

    def refuse(a):
        raise AssertionError("generator images written out")

    monkeypatch.setattr(autgroup, "generator_images", refuse)
    for a, images in cases:
        assert aut_decompose(c5_s3, images) == a


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
    g = witness_details(p)["element"]
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
    assert list(fix) == expect
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
        assert list(loc_fixator(p, g)) == loc_fixator_by_filter(p, g), format_word(g)


def test_loc_fixator_matches_the_whole_group_filter_on_five_s3():
    """On 5 x S3 (|Loc| = 77,760) the fixator product holds what applying
    every element finds, in the same order: on the identity, every syllable
    and two words on two vertices each, so most vertices have an empty value
    sequence."""
    p = reference_or_s3x5("5 x S3")
    listed = enumerate_loc_by_listing(p)
    rng = random.Random(22)
    words = [identity(p)] + [GroupElement(p, (s,)) for s in p.syllables()]
    for u, w in ((1, 4), (0, 2)):   # not adjacent, so u w u w is reduced
        words.append(reduce_word(p, [Syllable(v, rng.randrange(1, 6))
                                     for v in (u, w, u, w)]))
    for g in words:
        assert list(loc_fixator(p, g)) == loc_fixator_by_filter(p, g, listed), \
            format_word(g)


@pytest.mark.parametrize("name", REFERENCES + ["5 x S3"])
def test_local_apply_is_reduce_word_of_the_relabelled_word(name):
    """``LocalAut.apply`` only reorders the relabelled word, and gets what
    reducing it does: on 200 seeded words and elements of Loc."""
    p = reference_or_s3x5(name)
    rng = random.Random(32)
    loc = enumerate_loc(p)
    for _ in range(200):
        lam, g = loc[rng.randrange(len(loc))], random_element(p, rng, 20)
        relabelled = [Syllable(lam.sigma(v), lam.isos[v].apply(x)) for v, x in g.word]
        assert lam.apply(g) == reduce_word(p, relabelled), format_word(g)


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
    assert len(loc_fixator(c5_z3, witness_details(c5_z3)["element"])) == 10


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
    p = c5_z2
    b = build_ball(p, 3)
    seg = set(axis_segment(b, 0, 2))
    g0 = mul(parse_word(p, "v4:1"), parse_word(p, "v1:1"))
    moved = {act_edge(g0, e) for e in seg}
    overlap = moved & seg
    assert overlap  # the translate slides along the same axis
