import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclewall.algebraic import MAXIMAL, MEDIUM, MINIMAL, CSubgroup, window_of
from cyclewall import cli, words
from cyclewall.cli import load_presentation
from cyclewall.errors import GroupMismatchError, ValidationError
from cyclewall.localgroups import IDENTITY, cyclic_group, integers_group
from cyclewall.words import (
    GroupElement,
    Presentation,
    Syllable,
    _push_all,
    ball_growth,
    canonical,
    coset_rep,
    cyclic_reduce,
    enumerate_ball_elements,
    format_word,
    from_syllable,
    identity,
    inv,
    maximal_syllables,
    minimal_syllables,
    mul,
    parabolic_member,
    parse_word,
    reduce_word,
    split_conjugate,
    star_split,
)

from conftest import presentation_c5_mixed, presentation_c5_z2
from oracles import (
    all_raw_words,
    append_only_reduced,
    closure_classifier,
    conjugates,
    coset_rep_by_rescan,
    coset_rep_reduced,
    cyclic_reduce_by_trial,
    enumerate_ball_elements_by_search,
    greedy_canonical_order,
    heap_canonical_order,
    inv_by_reversal,
    minimal_syllables_by_reversal,
    parabolic_normalizer,
    parse_word_by_tokens,
    right_strippable,
    s3_table_group,
    single_moves,
    window_member,
)

PERFBENCH_DIR = Path(__file__).parent.parent / "perfbench" / "presentations"
PERFBENCH_PRESENTATIONS = sorted(PERFBENCH_DIR.glob("*.json"))


def random_raw_word(rng, p, max_len):
    alphabet = list(p.syllables())
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


SIX = ["c5_z2", "c5_z3", "c5_mixed", "c5_s3", "c6_z2", "c6_mixed"]


def huge_presentation():
    """Z/10^12 at v0 and Z at v1: neither may be tabulated."""
    return Presentation((cyclic_group(10**12), integers_group(), cyclic_group(2),
                         cyclic_group(3), cyclic_group(2)))


def memo_tables(p):
    """The presentation's interned tokens and inverses, split by key kind."""
    tokens = {k: s for k, s in p._interned.items() if isinstance(k, str)}
    inverses = {s: t for s, t in p._interned.items() if not isinstance(s, str)}
    return tokens, inverses


def assert_memo_sound(p):
    """Only canonical tokens and true inverses of finite group elements, at
    most sum |G_v| of each, and the same of the written tokens; only true
    merges of two finite group elements of one vertex, None for the
    identity, at most sum |G_v|^2 of them."""
    tokens, inverses = memo_tables(p)
    for token, s in tokens.items():
        assert token == f"v{s.vertex}:{s.value}"
    for s, t in inverses.items():
        assert t == (s.vertex, p.groups[s.vertex].inv(s.value))
    for s in [*tokens.values(), *inverses, *inverses.values()]:
        assert type(s) is Syllable
    for s, token in p._tokens.items():
        assert token == f"v{s[0]}:{s[1]}"
    for v, x in [*tokens.values(), *inverses, *inverses.values(), *p._tokens]:
        assert p.values[v] is not None and x in p.values[v], (v, x)
    bound = sum(len(values) for values in p.values if values is not None)
    assert len(tokens) <= bound and len(inverses) <= bound and len(p._tokens) <= bound
    for (a, b), prod in p._products.items():
        v, values = a[0], p.values[a[0]]
        assert b[0] == v and values is not None and a[1] in values and b[1] in values, (a, b)
        z = p.groups[v].mul(a[1], b[1])
        if z == IDENTITY:
            assert prod is None, (a, b)
        else:
            assert type(prod) is Syllable and prod == (v, z), (a, b)
    assert len(p._products) <= sum(len(values) ** 2 for values in p.values if values is not None)


# -- reduce -------------------------------------------------------------------


def test_reduce_empty_word(c5_z2):
    assert reduce_word(c5_z2, []).is_identity


def test_reduce_shuffle_then_merge(c5_z2):
    # vertices 1 and 2 are adjacent, so a1 a2 a1 -> a2
    w = parse_word(c5_z2, "v1:1 v2:1 v1:1")
    assert format_word(w) == "v2:1"


def test_reduce_rigid_word_unchanged(c5_z2):
    # supports 1,3 alternate: no move applies, the word is its own reduced form
    w = parse_word(c5_z2, "v1:1 v3:1 v1:1 v3:1")
    assert format_word(w) == "v1:1 v3:1 v1:1 v3:1"
    assert w.syllable_length == 4


def test_reduce_canonical_is_lex_least(c5_z2):
    # vertices 2 and 3 commute, lex-least form puts 2 first
    w = parse_word(c5_z2, "v3:1 v2:1")
    assert format_word(w) == "v2:1 v3:1"


def test_reduce_agrees_with_closure_oracle_on_short_words(c5_mixed):
    p = c5_mixed
    max_len = 4
    classify = closure_classifier(p, max_len)
    canon = {}
    for word in all_raw_words(p, max_len):
        root = classify(word)
        form = reduce_word(p, word)
        if root in canon:
            assert canon[root] == form, f"word {word} disagrees with oracle"
        else:
            canon[root] = form
    # distinct components must get distinct canonical forms
    assert len(set(canon.values())) == len(canon)


def test_confluence_under_random_move_sequences(c5_mixed):
    p = c5_mixed
    rng = random.Random(0)
    for _ in range(1000):
        word = random_raw_word(rng, p, 8)
        target = reduce_word(p, word)
        w = word
        for _ in range(rng.randrange(12)):
            moves = single_moves(p, w)
            if not moves:
                break
            w = rng.choice(moves)
        assert reduce_word(p, w) == target


KERNEL_PRESENTATIONS = [
    *(f"perfbench/{path.name}" for path in PERFBENCH_PRESENTATIONS),
    "c5_z2", "c5_z3", "c5_mixed", "c5_s3", "c6_z2", "c6_mixed"]


def kernel_presentation(name, request):
    if name.startswith("perfbench/"):
        return load_presentation(str(PERFBENCH_DIR / name.removeprefix("perfbench/")))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", KERNEL_PRESENTATIONS)
def test_canonical_order_matches_greedy_oracle(name, request):
    p = kernel_presentation(name, request)
    rng = random.Random(0)
    for _ in range(150):
        raw = random_raw_word(rng, p, 60)
        reduced = append_only_reduced(p, raw)
        assert reduce_word(p, raw).word == greedy_canonical_order(p, reduced), raw


@pytest.mark.parametrize("name", KERNEL_PRESENTATIONS)
def test_reduce_matches_heap_oracle(name, request):
    p = kernel_presentation(name, request)
    rng = random.Random(5)
    for _ in range(300):
        raw = random_raw_word(rng, p, 60)
        assert reduce_word(p, raw).word == \
            heap_canonical_order(p, append_only_reduced(p, raw)), raw


@pytest.mark.parametrize("name", KERNEL_PRESENTATIONS)
def test_every_push_keeps_the_word_canonical(name, request):
    """Each push onto a canonical word leaves it canonical, whether the
    syllable is inserted, merges into a new value or cancels: the push loop
    is driven one syllable at a time."""
    p = kernel_presentation(name, request)
    rng = random.Random(6)
    alphabet = list(p.syllables())
    seen = Counter()
    for _ in range(60):
        word = []
        for _ in range(rng.randrange(61)):
            s = rng.choice(alphabet)
            before = len(word)
            _push_all(p, word, [s])
            assert tuple(word) == greedy_canonical_order(p, word), (word, s)
            event = ("cancel", "merge", "insert")[len(word) - before + 1]
            seen[event, p.group(s.vertex).kind] += 1
    assert seen["insert", "cyclic"] > 0 and seen["cancel", "cyclic"] > 0
    if any(g.size > 2 for g in p.groups):  # two values can merge into a third
        assert sum(n for (e, _), n in seen.items() if e == "merge") > 0
    if any(g.kind == "table" for g in p.groups):  # S3 merges and cancels
        assert seen["merge", "table"] > 0 and seen["cancel", "table"] > 0


def merge_mismatches(p, seed=7, count=300):
    """``(mismatches, scan-branch cancellations)`` over seeded raw words on
    vertices 0, 1 and 2 with at most two values each, so that syllables
    merge and cancel often, also past a commuting last syllable (the push's
    scan branch): a raw word is a mismatch when ``reduce_word`` or
    ``canonical`` differs from the oracles.  The cancellations are counted
    by pushing each word again one syllable at a time."""
    rng = random.Random(seed)
    alphabet = [Syllable(v, x) for v in (0, 1, 2)
                for x in p.group(v).nontrivial_elements()[:2]]
    bad, scan_cancels = [], 0
    for _ in range(count):
        raw = [rng.choice(alphabet) for _ in range(rng.randrange(41))]
        want = heap_canonical_order(p, append_only_reduced(p, raw))
        if reduce_word(p, raw).word != want or canonical(p, raw).word != want:
            bad.append(raw)
        word = []
        for s in raw:
            before, last = len(word), word[-1].vertex if word else None
            _push_all(p, word, [s])
            scan_cancels += len(word) < before and last != s.vertex
    return bad, scan_cancels


@pytest.mark.parametrize("name", SIX)
def test_kernel_matches_the_oracles_on_words_with_many_merges(name, request):
    p = request.getfixturevalue(name)
    bad, scan_cancels = merge_mismatches(p)
    assert bad == []
    assert scan_cancels > 0
    assert_memo_sound(p)


def test_merge_oracle_catches_a_wrong_products_entry(c5_mixed, monkeypatch):
    s = Syllable(1, 1)   # in Z/3, v1:1 v1:1 is v1:2
    monkeypatch.setitem(c5_mixed._products, (s, s), s)
    bad, _ = merge_mismatches(c5_mixed)
    assert bad


def test_merges_memoise_only_finite_pairs_on_huge_and_infinite_groups():
    """Merges at Z/10^12 and at Z are right, in both branches of the push,
    and only the Z/10^12 and Z/2 ones are memoised."""
    p = huge_presentation()
    raw = [Syllable(0, 10**12 - 1), Syllable(1, -7), Syllable(0, 2), Syllable(1, 7),
           Syllable(1, 5), Syllable(0, 10**12 - 1), Syllable(2, 1), Syllable(1, -5),
           Syllable(2, 1), Syllable(1, 3)]
    for _ in range(2):
        assert reduce_word(p, raw).word == heap_canonical_order(p, append_only_reduced(p, raw))
    assert_memo_sound(p)
    assert sorted(p._products) == [((0, 1), (0, 10**12 - 1)), ((0, 10**12 - 1), (0, 2)),
                                   ((2, 1), (2, 1))]


# -- group operations ---------------------------------------------------------


def test_mul_examples(c5_z2):
    a1, a3 = parse_word(c5_z2, "v1:1"), parse_word(c5_z2, "v3:1")
    assert format_word(mul(a1, a3)) == "v1:1 v3:1"
    assert mul(a1, inv(a1)).is_identity


@pytest.mark.parametrize("name", SIX)
def test_mul_of_more_factors_is_the_product_of_pairs(name, request):
    """Each further factor of ``mul`` is pushed onto the same word, which
    gives the word of multiplying pair by pair."""
    p = request.getfixturevalue(name)
    rng = random.Random(28)
    for _ in range(200):
        a, b, c, d = (reduce_word(p, random_raw_word(rng, p, 12)) for _ in range(4))
        assert mul(a, b, c).word == mul(mul(a, b), c).word
        assert mul(a, b, c, d).word == mul(mul(mul(a, b), c), d).word
        assert mul(a, b, inv(a)) == b.conjugate(a)


def test_mul_refuses_a_factor_of_another_presentation_in_any_position(c5_z2, c5_z3):
    a, b = parse_word(c5_z2, "v1:1"), parse_word(c5_z3, "v1:1")
    for k in range(4):
        factors = [a] * 4
        factors[k] = b
        with pytest.raises(GroupMismatchError):
            mul(*factors)
        with pytest.raises(GroupMismatchError):
            mul(*factors[:max(k + 1, 2)])
    # an equal presentation built apart is the same group
    twin = parse_word(Presentation(c5_z2.groups), "v3:1")
    assert format_word(mul(a, twin, a)) == "v1:1 v3:1 v1:1"


def test_inv_examples(c5_z3):
    assert inv(identity(c5_z3)).is_identity
    t = parse_word(c5_z3, "v1:1 v3:1")
    got = inv(t)
    assert mul(t, got).is_identity
    assert got == parse_word(c5_z3, "v3:2 v1:2")
    assert got.syllable_length == t.syllable_length


@pytest.mark.parametrize("name", SIX)
def test_inv_matches_the_reversal_oracle_on_the_r3_ball(name, request):
    p = request.getfixturevalue(name)
    for g in enumerate_ball_elements(p, 3) * 2:   # fill the memo, then read it
        assert inv(g).word == inv_by_reversal(g).word, format_word(g)
    assert_memo_sound(p)
    assert len(memo_tables(p)[1]) == sum(len(p.group(v).nontrivial_elements())
                                         for v in range(p.n))


def test_inv_matches_the_reversal_oracle_on_huge_and_infinite_groups():
    p = huge_presentation()
    rng = random.Random(9)

    def syllable():
        v = rng.randrange(p.n)
        if v == 0:
            return Syllable(0, rng.choice([1, 2, 10**12 - 1, rng.randrange(1, 10**12)]))
        if v == 1:
            return Syllable(1, rng.choice([-3, -1, 1, 2, 3]))
        return Syllable(v, rng.randrange(1, p.groups[v].order))

    used = set()
    for _ in range(300):
        g = reduce_word(p, [syllable() for _ in range(rng.randrange(30))])
        used |= {s for s in g.word if s.vertex != 1}
        assert inv(g).word == inv_by_reversal(g).word, format_word(g)
        assert mul(g, inv(g)).is_identity
    assert_memo_sound(p)
    assert set(memo_tables(p)[1]) == used


@pytest.mark.parametrize("name", ["c5_s3", "5 x Z"])
def test_inv_is_the_canonical_reversed_word_on_long_seeded_words(name, request):
    """``inv`` inserts each inverted syllable without a merge branch: on
    seeded reduced words of up to 40 syllables it gives the canonical form
    of the reversed, inverted word."""
    p = (Presentation((integers_group(),) * 5) if name == "5 x Z"
         else request.getfixturevalue(name))
    rng = random.Random(45)

    def syllable():
        v = rng.randrange(p.n)
        if not p.groups[v].is_finite:
            return Syllable(v, rng.choice([-1, 1]) * rng.randrange(1, 9))
        return Syllable(v, rng.choice(p.groups[v].nontrivial_elements()))

    longest = 0
    for _ in range(500):
        # a prefix of a canonical reduced word is one
        word = reduce_word(p, [syllable() for _ in range(rng.randrange(61))]).word[:40]
        longest = max(longest, len(word))
        g = GroupElement(p, word)
        assert inv(g).word == inv_by_reversal(g).word, format_word(g)
    assert longest == 40


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_group_axioms(data):
    p = presentation_c5_mixed()
    alphabet = list(p.syllables())
    def elem():
        raw = data.draw(st.lists(st.sampled_from(alphabet), max_size=6))
        return reduce_word(p, raw)
    a, b, c = elem(), elem(), elem()
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert inv(inv(a)) == a
    assert mul(a, identity(p)) == a == mul(identity(p), a)
    assert mul(a, inv(a)).is_identity
    assert inv(a).syllable_length == a.syllable_length


# -- cosets and parabolics ------------------------------------------------------


def test_coset_rep_examples(c5_z2):
    assert coset_rep(identity(c5_z2), [1, 2]).is_identity
    g = parse_word(c5_z2, "v3:1 v2:1")
    assert format_word(coset_rep(g, [1, 2])) == "v3:1"


def test_coset_rep_quotient_in_parabolic(c5_mixed):
    p = c5_mixed
    rng = random.Random(1)
    for _ in range(300):
        g = reduce_word(p, random_raw_word(rng, p, 6))
        S = frozenset(rng.sample(range(5), rng.randrange(1, 4)))
        r = coset_rep(g, S)
        assert mul(inv(r), g).support() <= S
        # idempotent
        assert coset_rep(r, S) == r


def test_coset_rep_constant_on_cosets(c5_mixed):
    p = c5_mixed
    rng = random.Random(2)
    ball = enumerate_ball_elements(p, 2)
    for _ in range(300):
        g = reduce_word(p, random_raw_word(rng, p, 5))
        S = frozenset(rng.sample(range(5), rng.randrange(1, 4)))
        h = rng.choice([x for x in ball if x.support() <= S])
        assert coset_rep(mul(g, h), S) == coset_rep(g, S)


@pytest.mark.parametrize("path", PERFBENCH_PRESENTATIONS, ids=lambda p: p.stem)
def test_coset_rep_is_canonical_without_reduction(path):
    """Stripping syllables that shuffle to the end leaves a canonical word:
    re-reducing and re-sorting it changes nothing."""
    p = load_presentation(str(path))
    rng = random.Random(3)
    for _ in range(300):
        g = reduce_word(p, random_raw_word(rng, p, 40))
        S = rng.sample(range(p.n), rng.randrange(1, 4))
        rep = coset_rep(g, S)
        assert rep.word == coset_rep_reduced(g, S).word, (format_word(g), S)
        assert reduce_word(p, rep.word).word == rep.word


def window_kinds(n):
    """Vertex sets of each kind, by name: empty, single, consecutive,
    non-consecutive, every maximal window, and all of C_n."""
    return {
        "empty": [()],
        "single": [(i,) for i in range(n)],
        "consecutive": [(i, (i + 1) % n) for i in range(n)],
        "non-consecutive": [(i, (i + 2) % n) for i in range(n)],
        "maximal": [tuple(window_of(n, MAXIMAL, i)) for i in range(n)],
        "all": [tuple(range(n))],
    }


def rescan_mismatches(p, windows, seed=4):
    """Random words up to 40 syllables on which ``coset_rep`` and the
    rescanning oracle disagree, for every window given."""
    rng = random.Random(seed)
    bad = []
    for _ in range(150):
        g = reduce_word(p, random_raw_word(rng, p, 40))
        for S in windows:
            if coset_rep(g, S) != coset_rep_by_rescan(g, S):
                bad.append((format_word(g), S))
    return bad


@pytest.mark.parametrize("name", SIX)
@pytest.mark.parametrize("kind", ["empty", "single", "consecutive", "non-consecutive",
                                  "maximal", "all"])
def test_coset_rep_matches_the_rescanning_strip(name, kind):
    p = load_presentation(str(PERFBENCH_DIR / f"{name}.json"))
    assert rescan_mismatches(p, window_kinds(p.n)[kind]) == []


def test_rescan_oracle_catches_stripped_syllables_that_block(monkeypatch):
    def blocking_strip(p, word, S):
        free, out = set(S), []
        for k in range(len(word) - 1, -1, -1):
            v = word[k].vertex
            if v in free:
                out.append(k)
            free -= p.blocks[v]
            if not free:
                break
        return out
    monkeypatch.setattr(words, "_strippable", blocking_strip)
    p = load_presentation(str(PERFBENCH_DIR / "c6_mixed.json"))
    assert rescan_mismatches(p, window_kinds(p.n)["maximal"]) != []


def test_syllable_hashes_and_sorts_as_its_tuple(c6_mixed):
    syllables = list(c6_mixed.syllables())
    rng = random.Random(4)
    rng.shuffle(syllables)
    as_tuples = [(s.vertex, s.value) for s in syllables]
    assert [hash(s) for s in syllables] == [hash(t) for t in as_tuples]
    assert [tuple(s) for s in sorted(syllables)] == sorted(as_tuples)
    assert repr(Syllable(2, 5)) == "Syllable(vertex=2, value=5)"


def test_parabolic_member_examples(c5_z2):
    p = c5_z2
    anything = CSubgroup(MEDIUM, 0, identity(p))
    assert parabolic_member(identity(p), anything)
    a1 = parse_word(p, "v1:1")
    assert parabolic_member(a1, CSubgroup(MEDIUM, 1, identity(p)))
    a3 = parse_word(p, "v3:1")
    assert not parabolic_member(a3, CSubgroup(MEDIUM, 1, a1))


@pytest.mark.parametrize("path", PERFBENCH_PRESENTATIONS, ids=lambda p: p.stem)
def test_parabolic_member_matches_the_conjugate_support_rule(path):
    """Comparing minimal coset reps decides membership in w<G_S>w^-1 as
    ``supp(w^-1·g·w) <= S`` does, for every tier and base: on random
    elements, and on conjugates w·h·w^-1 of random h in <G_S>, each also
    moved by one syllable."""
    p = load_presentation(str(path))
    rng = random.Random(11)
    alphabet = list(p.syllables())
    verdicts = Counter()
    for tier in (MINIMAL, MEDIUM, MAXIMAL):
        for base in range(p.n):
            for _ in range(40):
                H = CSubgroup(tier, base, reduce_word(p, random_raw_word(rng, p, 8)))
                w = H.conjugator
                h = reduce_word(p, [s for s in random_raw_word(rng, p, 12)
                                    if s.vertex in H.window])
                inside = mul(mul(w, h), inv(w))
                nudged = mul(inside, GroupElement(p, (rng.choice(alphabet),)))
                elsewhere = reduce_word(p, random_raw_word(rng, p, 10))
                for g in (inside, nudged, elsewhere):
                    got = parabolic_member(g, H)
                    assert got == window_member(g, H.window, w), \
                        (H.key_string(), format_word(g))
                    verdicts[tier, got] += 1
    assert all(verdicts[tier, got] >= 50 for tier in (MINIMAL, MEDIUM, MAXIMAL)
               for got in (True, False)), verdicts


def test_parabolic_normalizer(c5_z2):
    p = c5_z2
    for i in range(5):
        assert parabolic_normalizer(p, [i]) == {(i - 1) % 5, i, (i + 1) % 5}
        assert parabolic_normalizer(p, [i, i + 1]) == {i, (i + 1) % 5}
    assert parabolic_normalizer(p, []) == set(range(5))


def test_parabolic_normalizer_c6(c6_z2):
    assert parabolic_normalizer(c6_z2, [0, 1]) == {0, 1}
    assert parabolic_normalizer(c6_z2, [0]) == {5, 0, 1}


# -- the ends of a word and cyclic reduction -----------------------------------


def cycle_presentation(n):
    return Presentation(tuple(cyclic_group(2 + v % 2) for v in range(n)))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_maximal_syllables_are_the_ones_coset_reps_strip(n):
    """A reduced word has at most two maximal syllables, found by the scan,
    and the coset reps of {i} and {i, i+1} strip exactly those of vertex i
    and of vertices i, i+1."""
    p = cycle_presentation(n)
    alphabet = list(p.syllables())
    rng = random.Random(n)
    for _ in range(300):
        g = reduce_word(p, [rng.choice(alphabet) for _ in range(rng.randrange(30))])
        word = g.word
        maximal = [k for k in range(len(word) - 1, -1, -1)
                   if all(p.adjacent(word[k].vertex, s.vertex) for s in word[k + 1:])]
        found = maximal_syllables(p, word)
        assert len(maximal) <= 2 and [k for _, k in found] == maximal, format_word(g)
        assert all(word[k].vertex == v for v, k in found)
        for i in range(n):
            for S in ({i}, {i, (i + 1) % n}):
                kept = tuple(s for k, s in enumerate(word)
                             if not (k in maximal and s.vertex in S))
                assert coset_rep(g, S).word == kept, (format_word(g), S)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_minimal_syllables_are_the_ones_that_shuffle_to_the_front(n):
    """A reduced word has at most two minimal syllables, the first one and
    at most one more, and the forward scan finds them."""
    p = cycle_presentation(n)
    alphabet = list(p.syllables())
    rng = random.Random(100 + n)
    seen = Counter()
    for _ in range(300):
        g = reduce_word(p, [rng.choice(alphabet) for _ in range(rng.randrange(30))])
        word = g.word
        minimal = [k for k in range(len(word))
                   if all(p.adjacent(s.vertex, word[k].vertex) for s in word[:k])]
        found = minimal_syllables(p, word)
        assert len(minimal) <= 2 and [k for _, k in found] == minimal, format_word(g)
        assert all(word[k].vertex == v for v, k in found)
        seen[len(minimal)] += 1
    assert seen[2] > 50 and seen[1] > 50


@pytest.mark.parametrize("name", SIX)
def test_forward_minimal_syllables_match_the_reversed_maximal_scan(name, request):
    """The forward scan gives what ``maximal_syllables`` of the reversed
    word gives, with the positions mapped back."""
    p = request.getfixturevalue(name)
    rng = random.Random(31)
    seen = Counter()
    for _ in range(300):
        word = reduce_word(p, random_raw_word(rng, p, 30)).word
        found = minimal_syllables(p, word)
        assert found == minimal_syllables_by_reversal(p, word), format_word(
            GroupElement(p, word))
        seen[len(found)] += 1
    assert seen[2] > 30 and seen[1] > 30


def conjugate_alphabet(p):
    """Syllables for random words: every one of a finite vertex group, and
    the values +-1, +-2 of a ``Z`` vertex."""
    return [Syllable(v, x) for v in range(p.n)
            for x in (p.group(v).nontrivial_elements() if p.group(v).is_finite
                      else (-2, -1, 1, 2))]


def trial_mismatches(p, seed, count=1000):
    """The conjugates w·h·w^-1 (w of up to 6 raw syllables, h of up to 12)
    on which ``cyclic_reduce`` and ``cyclic_reduce_by_trial`` differ, and
    how many of them the oracle shortens."""
    rng = random.Random(seed)
    alphabet = conjugate_alphabet(p)
    mismatches, shortened = [], 0
    for _ in range(count):
        w = reduce_word(p, [rng.choice(alphabet) for _ in range(rng.randrange(7))])
        h = reduce_word(p, [rng.choice(alphabet) for _ in range(rng.randrange(13))])
        g = mul(mul(w, h), inv(w))
        want = cyclic_reduce_by_trial(g)
        if cyclic_reduce(g) != want:
            mismatches.append(format_word(g))
        shortened += want[0].syllable_length < g.syllable_length
    return mismatches, shortened


TRIAL_PRESENTATIONS = [*KERNEL_PRESENTATIONS, "c5_with_z", "c7"]


def trial_presentation(name, request):
    if name == "c5_with_z":
        return Presentation((cyclic_group(2), integers_group(), cyclic_group(3),
                             cyclic_group(2), cyclic_group(3)))
    if name == "c7":
        return cycle_presentation(7)
    return kernel_presentation(name, request)


def test_cyclic_reduce_single_syllable(c5_z2):
    g = parse_word(c5_z2, "v2:1")
    core, conj = cyclic_reduce(g)
    assert core == g and conj.is_identity


def test_cyclic_reduce_example(c5_z2):
    g = parse_word(c5_z2, "v1:1 v3:1 v1:1")
    core, conj = cyclic_reduce(g)
    assert format_word(core) == "v3:1"
    assert format_word(conj) == "v1:1"
    assert mul(mul(conj, core), inv(conj)) == g


def test_cyclic_reduce_conjugated_syllable_roundtrip(c5_mixed):
    p = c5_mixed
    rng = random.Random(3)
    for _ in range(300):
        w = reduce_word(p, random_raw_word(rng, p, 5))
        s = rng.choice(list(p.syllables()))
        g = mul(mul(w, GroupElement(p, (s,))), inv(w))
        core, conj = cyclic_reduce(g)
        assert core.syllable_length == 1
        assert core.word[0].vertex == s.vertex
        assert mul(mul(conj, core), inv(conj)) == g


@pytest.mark.parametrize("name", TRIAL_PRESENTATIONS)
def test_cyclic_reduce_matches_trial_oracle(name, request):
    """The rule (conjugate by the least front syllable whose vertex also has
    a maximal syllable) gives the core and conjugator of trying every
    conjugation, on 1,000 seeded conjugates."""
    mismatches, shortened = trial_mismatches(trial_presentation(name, request), seed=8)
    assert mismatches == []
    assert shortened > 500


def test_trial_check_catches_a_loop_that_reads_only_the_first_syllable(c6_mixed, monkeypatch):
    """Taking word[0] as the only front syllable misses every conjugation
    by the other minimal syllable."""
    monkeypatch.setattr(words, "minimal_syllables",
                        lambda p, word: minimal_syllables(p, word)[:1])
    mismatches, _ = trial_mismatches(c6_mixed, seed=8)
    assert len(mismatches) > 10


def test_the_greatest_qualifying_front_syllable_gives_the_same_result(c6_mixed, monkeypatch):
    """The least-first rule fixes the path, not the result.  Two qualifying
    steps touch four distinct syllables, and each leaves the other
    qualifying, so they commute; conjugating by the greatest qualifying
    front syllable (``max`` for ``min``) gives the same core and conjugator
    although it often takes another step first."""
    choices = Counter()

    def greatest(steps):
        choices[len(steps)] += 1
        return max(steps)

    monkeypatch.setattr(words, "min", greatest, raising=False)
    mismatches, _ = trial_mismatches(c6_mixed, seed=8)
    assert mismatches == [] and choices[2] > 100


@pytest.mark.parametrize("name", KERNEL_PRESENTATIONS)
def test_cyclic_reduce_matches_trial_oracle_on_deep_conjugates(name, request):
    """Conjugators of 10-14 syllables around a short core, the shape of the
    generator images ``aut_decompose`` reduces."""
    p = kernel_presentation(name, request)
    rng = random.Random(9)
    alphabet = list(p.syllables())
    deep = 0
    for _ in range(40):
        w, target = identity(p), rng.randint(10, 14)
        while w.syllable_length < target:
            w = mul(w, GroupElement(p, (rng.choice(alphabet),)))
        inner = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        g = mul(mul(w, reduce_word(p, inner)), inv(w))
        core, conj = cyclic_reduce(g)
        assert (core, conj) == cyclic_reduce_by_trial(g), format_word(g)
        deep += conj.syllable_length >= 8
    assert deep > 20


def test_cyclic_reduce_puts_the_core_in_canonical_order(c5_mixed):
    """Deleting a front syllable need not keep a word canonical: here v4:1
    leaves the front and cancels with the last v4:1, and the rest
    ``v3:2 v2:1`` must be reordered."""
    g = parse_word(c5_mixed, "v3:2 v4:1 v2:1 v4:1")
    core, conj = cyclic_reduce(g)
    assert format_word(core) == "v2:1 v3:2"
    assert format_word(conj) == "v4:1"
    assert mul(mul(conj, core), inv(conj)) == g


# -- conjugates of a syllable -----------------------------------------------------


CONJUGATE_PRESENTATIONS = [path.stem for path in PERFBENCH_PRESENTATIONS] + ["5 x S3"]


def conjugate_presentation(name):
    if name == "5 x S3":   # S3 at every vertex: t·y·t^-1 differs from y
        return Presentation((s3_table_group(),) * 5)
    return load_presentation(str(PERFBENCH_DIR / f"{name}.json"))


def random_element(rng, p, max_len):
    return reduce_word(p, random_raw_word(rng, p, max_len))


@pytest.mark.parametrize("name", CONJUGATE_PRESENTATIONS)
def test_conjugates_of_a_syllable_are_the_products(name):
    """Writing g·(v, y)·g^-1 out as u, (v, t·y·t^-1), u^-1 from g's strip at
    v gives the product's canonical word: for every vertex and value, on 40
    seeded g of up to 20 raw syllables, and the strip removes a v-syllable
    (t is not the identity) in at least a tenth of the splits."""
    p = conjugate_presentation(name)
    rng = random.Random(29)
    stripped = splits = 0
    for _ in range(40):
        g = random_element(rng, p, 20)
        gi = inv(g)
        for v in range(p.n):
            values = p.group(v).nontrivial_elements()
            assert conjugates(g, v, values) == \
                [mul(g, GroupElement(p, (Syllable(v, y),)), gi) for y in values]
            stripped += star_split(g, v)[1] != IDENTITY
            splits += 1
    assert stripped * 10 >= splits


@pytest.mark.parametrize("name", CONJUGATE_PRESENTATIONS)
def test_split_conjugate_reads_what_cyclic_reduce_finds(name):
    """On 300 seeded conjugates of a syllable, and on every word of 2,000
    seeded short ones that happens to have the split shape, the split gives
    ``cyclic_reduce``'s core and conjugator, and the conjugator's inverse;
    odd words of any other shape are not split."""
    p = conjugate_presentation(name)
    rng = random.Random(30)
    for _ in range(300):
        v = rng.randrange(p.n)
        [h] = conjugates(random_element(rng, p, 20), v,
                         [rng.choice(p.group(v).nontrivial_elements())])
        core, conj = cyclic_reduce(h)
        assert split_conjugate(h) == (core, conj, inv(conj)), format_word(h)
    shapes = Counter()
    for _ in range(2000):
        h = random_element(rng, p, 5)
        split = split_conjugate(h)
        if split is None:
            shapes["odd, not split"] += len(h.word) % 2
            continue
        core, conj = cyclic_reduce(h)
        assert split == (core, conj, inv(conj)), format_word(h)
        shapes["split around a syllable"] += len(h.word) > 1
    assert shapes["split around a syllable"] >= 5 and shapes["odd, not split"] >= 200


@pytest.mark.parametrize("name", CONJUGATE_PRESENTATIONS)
def test_canonical_order_of_group_element_syllables_is_reduce_word(name):
    """Without the value checks, ``canonical`` reduces a sequence of
    non-identity syllables as ``reduce_word`` does: on 300 seeded raw words
    and their reversals, which are reduced words put out of order."""
    p = conjugate_presentation(name)
    rng = random.Random(31)
    for _ in range(300):
        raw = random_raw_word(rng, p, 30)
        assert canonical(p, raw) == reduce_word(p, raw)
        reduced = reduce_word(p, raw).word[::-1]
        assert canonical(p, reduced) == reduce_word(p, reduced)


# -- enumeration ----------------------------------------------------------------


def test_enumerate_ball_sizes(c5_z2):
    assert [format_word(g) for g in enumerate_ball_elements(c5_z2, 0)] == [""]
    assert len(enumerate_ball_elements(c5_z2, 1)) == 6


def test_enumerate_ball_matches_naive_closure(c5_z2):
    p = c5_z2
    naive = {reduce_word(p, w) for w in all_raw_words(p, 2)}
    ball = enumerate_ball_elements(p, 2)
    assert set(ball) == naive
    assert ball == sorted(ball)
    assert len(ball) == len(set(ball))


@pytest.mark.parametrize("window", [(2,), (1, 2), (0, 1, 2), (4, 0, 1), (0, 2)])
def test_enumerate_window_ball_is_the_ball_cut_to_the_window(c5_mixed, window):
    """The elements of <G_S> of length <= L are those of B(L) supported on S."""
    ball = enumerate_ball_elements(c5_mixed, 3)
    assert enumerate_ball_elements(c5_mixed, 3, window) == \
        [g for g in ball if g.support() <= set(window)]


@pytest.mark.parametrize("name", CONJUGATE_PRESENTATIONS)
def test_enumerate_ball_keeps_what_the_search_finds_in_its_order(name):
    """Keeping each element's one canonical parent lists the ball, and each
    window ball, as the breadth-first search with a dedupe set and a final
    sort does, order included."""
    p = conjugate_presentation(name)
    for window in (None, (0, 1, 2), (1,), (0, 2), (4, 0, 1)):
        for L in range(5):
            assert enumerate_ball_elements(p, L, window) == \
                enumerate_ball_elements_by_search(p, L, window), (window, L)


@pytest.mark.parametrize("name", SIX)
def test_ball_growth_counts_each_length(name):
    """The growth series counts, length by length, the elements the ball
    enumeration lists, at radius 0-4."""
    p = load_presentation(str(PERFBENCH_DIR / f"{name}.json"))
    lengths = Counter(len(g.word) for g in enumerate_ball_elements(p, 4))
    for r in range(5):
        assert ball_growth(p, r) == [lengths[k] for k in range(r + 1)]


def test_enumerate_ball_deterministic(c5_mixed):
    a = enumerate_ball_elements(c5_mixed, 2)
    b = enumerate_ball_elements(c5_mixed, 2)
    assert a == b


# -- text syntax ------------------------------------------------------------------


def test_parse_format_roundtrip(c5_mixed):
    p = c5_mixed
    rng = random.Random(4)
    for _ in range(200):
        g = reduce_word(p, random_raw_word(rng, p, 6))
        assert parse_word(p, format_word(g)) == g


@pytest.mark.parametrize("name", SIX)
def test_format_matches_the_spelled_out_tokens_on_the_r3_ball(name, request):
    p = request.getfixturevalue(name)
    assert p._tokens == {}
    for g in enumerate_ball_elements(p, 3) * 2:   # fill the memo, then read it
        assert format_word(g) == " ".join(f"v{v}:{x}" for v, x in g.word)
    assert_memo_sound(p)
    assert len(p._tokens) == sum(len(p.group(v).nontrivial_elements())
                                 for v in range(p.n))


def test_format_memoises_only_the_tokens_of_finite_syllables():
    p = huge_presentation()
    g = reduce_word(p, [Syllable(0, 10**12 - 1), Syllable(1, -3), Syllable(2, 1),
                        Syllable(1, 7), Syllable(3, 2)])
    for _ in range(2):
        assert format_word(g) == " ".join(f"v{v}:{x}" for v, x in g.word)
    assert_memo_sound(p)
    assert sorted(p._tokens) == [(0, 10**12 - 1), (2, 1), (3, 2)]


def test_parse_rejects_garbage(c5_z2):
    for bad in ["w1:1", "v9:1", "v1:7", "v1", "v1:x"]:
        with pytest.raises(ValidationError):
            parse_word(c5_z2, bad)


def test_parse_reports_the_first_bad_token(c5_z2):
    # a bad value at token 1 is reported before a bad format at token 3
    with pytest.raises(ValidationError, match="7 is not an element"):
        parse_word(c5_z2, "v1:7 v2:1 w3:1")


def test_parse_reports_mixed_bad_tokens_in_input_order(c5_z2):
    # the value check runs as each syllable is pushed, so whichever bad
    # token comes first is reported, a bad value or a bad format
    with pytest.raises(ValidationError, match="7 is not an element"):
        parse_word(c5_z2, "v1:7 vx")
    with pytest.raises(ValidationError, match="bad syllable token: 'vx'"):
        parse_word(c5_z2, "vx v1:7")


def parse_outcome(parse, p, text):
    try:
        return parse(p, text).word
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("name", SIX)
def test_parse_matches_the_token_parser(name, request):
    p = request.getfixturevalue(name)
    assert p._interned == {}
    tokens = [f"v{v}:{x}" for v in range(p.n) for x in p.values[v]]
    texts = [*tokens, " ".join(tokens),
             "v01:1", "v1:+1", "v1:\u0661", "v2:0", "v1:1 v01:1 v1:+1",
             "w1:1", "v1", "v1:x", "v:1", "v1:1:1", "v-1:1", f"v{p.n}:1",
             "v1:7", "v1:-1", "v0:1 v1:7 w3:1"]
    for text in texts * 2:   # fill the memo, then read it
        assert parse_outcome(parse_word, p, text) == \
            parse_outcome(parse_word_by_tokens, p, text), text
    assert_memo_sound(p)
    assert sorted(memo_tables(p)[0]) == sorted(tokens)


@pytest.mark.parametrize("name", [*SIX, "huge"])
def test_parse_matches_the_token_parser_on_seeded_mixed_texts(name, request):
    """Texts of canonical tokens, read from the memo once it holds them
    all, mixed with spellings it never holds (``v01:1``, ``v1:+1``, a ``Z``
    vertex's values) and with bad tokens among good ones: the same word, or
    the same error text, as the token parser."""
    p = huge_presentation() if name == "huge" else request.getfixturevalue(name)
    rng = random.Random(33)
    good = [f"v{v}:{x}" for v, values in enumerate(p.values) if values is not None
            for x in (values if len(values) <= 10 else (0, 1, 999999999999))]
    odd = ["v01:1", "v1:+1", "v2:01", "v1:-3", "v1:3"]   # v1 is Z in "huge"
    bad = ["v1:7", "v0:-1", "w3:1", "v1", f"v{p.n}:1", "v1:x"]
    texts = []
    for _ in range(300):
        tokens = [rng.choice(good) for _ in range(rng.randrange(12))]
        for pool, chance in ((odd, 0.3), (bad, 0.2)):
            if rng.random() < chance:
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(pool))
        texts.append(" ".join(tokens))
    interned = 0
    for text in texts * 2:   # fill the memo, then read it
        interned += all(token in p._interned for token in text.split())
        assert parse_outcome(parse_word, p, text) == \
            parse_outcome(parse_word_by_tokens, p, text), text
    assert interned > 150
    assert_memo_sound(p)


def test_parse_matches_the_token_parser_on_huge_and_infinite_groups():
    p = huge_presentation()
    assert p._interned == {}
    texts = ["v0:999999999999 v0:1 v1:-3 v1:3 v2:1", "v1:-7", "v1:-7 v0:2 v1:7",
             "v0:1000000000000", "v0:-1", "v1:+3", "v1:0 v2:0", "v2:2", "v3:-2"]
    for text in texts * 2:
        assert parse_outcome(parse_word, p, text) == \
            parse_outcome(parse_word_by_tokens, p, text), text
    assert format_word(parse_word(p, texts[0])) == "v2:1"
    assert_memo_sound(p)
    assert sorted(p._interned) == ["v0:1", "v0:2", "v0:999999999999", "v2:0", "v2:1"]


def test_presentation_requires_n_at_least_5():
    from cyclewall.localgroups import cyclic_group
    with pytest.raises(ValidationError):
        Presentation(tuple(cyclic_group(2) for _ in range(4)))


# -- every words check can fail ----------------------------------------------------


WORDS_IDS = ["words.parse-format-roundtrip", "words.rigid-words-come-back-verbatim",
             "words.coset-representative-idempotent"]


def words_statuses(p):
    return {r.check_id: r.status for r in cli.words_suite(p, 3, 0).results}


def test_words_suite_passes(c5_mixed):
    assert words_statuses(c5_mixed) == dict.fromkeys(WORDS_IDS, "pass")


def test_parse_format_roundtrip_fails_when_the_memo_holds_a_wrong_syllable(
        c5_mixed, monkeypatch):
    monkeypatch.setitem(c5_mixed._interned, "v1:1", Syllable(1, 2))
    assert words_statuses(c5_mixed) == {**dict.fromkeys(WORDS_IDS, "pass"),
                                        "words.parse-format-roundtrip": "fail"}


def test_rigid_words_fail_when_reduce_word_reverses_them(c5_mixed, monkeypatch):
    def reversing(p, syllables):
        syllables = tuple(syllables)
        g = reduce_word(p, syllables)
        return GroupElement(p, g.word[::-1]) if g.word == syllables else g
    monkeypatch.setattr(cli, "reduce_word", reversing)
    assert words_statuses(c5_mixed) == {
        **dict.fromkeys(WORDS_IDS, "pass"),
        "words.rigid-words-come-back-verbatim": "fail"}


def test_coset_rep_idempotence_fails_when_it_strips_one_syllable_per_call(
        c5_mixed, monkeypatch):
    def strip_one(g, S):
        p = g.presentation
        k = right_strippable(p, g.word, frozenset(S))
        return g if k is None else GroupElement(p, g.word[:k] + g.word[k + 1:])
    monkeypatch.setattr(cli, "coset_rep", strip_one)
    assert words_statuses(c5_mixed) == {
        **dict.fromkeys(WORDS_IDS, "pass"),
        "words.coset-representative-idempotent": "fail"}
