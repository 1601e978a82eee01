import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cyclewall.errors import ValidationError
from cyclewall.localgroups import (
    IDENTITY,
    LocalGroupSpec,
    LocalIso,
    _close,
    _generating_sequence,
    cyclic_group,
    determining_set,
    identity_iso,
    integers_group,
    isomorphisms,
    table_group,
)

from oracles import homomorphism_error_by_scan, isomorphisms_by_search, s3_table_group


def test_cyclic_mul_is_modular_addition():
    z3 = cyclic_group(3)
    assert z3.mul(1, 2) == 0
    assert z3.mul(0, 2) == 2


def test_s3_table_product():
    s3 = s3_table_group()
    # names are the images of 012 under each permutation
    idx = {n: i for i, n in enumerate(s3.names)}
    # left factor applied last: (021 . 102)(x) = 021[102[x]] = 201
    assert s3.mul(idx["021"], idx["102"]) == idx["201"]
    # identity law everywhere
    for a in s3.elements():
        assert s3.mul(0, a) == a == s3.mul(a, 0)


def test_table_validation_rejects_non_associative_perturbations():
    z3 = cyclic_group(3)
    base = [[z3.mul(a, b) for b in range(3)] for a in range(3)]
    rng = random.Random(7)
    rejected = 0
    for _ in range(50):
        tbl = [row[:] for row in base]
        i, j = rng.randrange(1, 3), rng.randrange(3)
        tbl[i][j] = (tbl[i][j] + rng.randrange(1, 3)) % 3
        try:
            table_group(tbl)
        except ValidationError:
            rejected += 1
    assert rejected == 50


@pytest.mark.parametrize("entry", [True, 1.0], ids=["bool", "float"])
def test_table_validation_rejects_entries_that_are_not_ints(entry):
    """A bool is an int and 1.0 == 1, but neither is an element id."""
    with pytest.raises(ValidationError, match="not a square table of element ids"):
        table_group([[0, entry], [entry, 0]])


def test_automorphisms_counts():
    for g, count in ((cyclic_group(2), 1), (cyclic_group(3), 2),
                     (cyclic_group(5), 4), (s3_table_group(), 6)):
        assert len(isomorphisms(g, g)) == count
    z = integers_group()
    assert sorted(a.sign for a in isomorphisms(z, z)) == [-1, 1]


@pytest.mark.parametrize("g", [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                               cyclic_group(6), s3_table_group()])
def test_automorphism_group_axioms(g):
    auts = isomorphisms(g, g)
    assert any(a.is_identity for a in auts)
    keys = {a.mapping for a in auts}
    for a, b in itertools.product(auts, repeat=2):
        assert a.compose(b).mapping in keys
    for a in auts:
        assert a.inverse().mapping in keys


@pytest.mark.parametrize("g", [cyclic_group(2), cyclic_group(3), cyclic_group(6),
                               s3_table_group(), integers_group()])
def test_determining_set_determines(g):
    S = determining_set(g)
    for a in isomorphisms(g, g):
        if all(a.apply(x) == x for x in S):
            assert a.is_identity


def test_determining_set_examples():
    assert determining_set(cyclic_group(3)) == [1]
    assert determining_set(cyclic_group(2)) == []
    assert len(determining_set(s3_table_group())) == 2


def test_isomorphism_search_between_distinct_specs():
    z6 = cyclic_group(6)
    # Z/6 as an explicit table is still recognised as Z/6
    tbl = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    t6 = table_group(tbl)
    isos = isomorphisms(z6, t6)
    assert len(isos) == 2  # phi(6) = 2
    # S3 and Z/6 have the same order but are not isomorphic
    assert isomorphisms(s3_table_group(), t6) == []


def permutation_group(generators):
    """The group generated by permutations, as a table group with its
    elements in lexicographic order (the identity first, id 0)."""
    size = len(generators[0])
    elements = [tuple(range(size))]
    seen = set(elements)
    for a in elements:
        for s in generators:
            b = tuple(a[s[x]] for x in range(size))
            if b not in seen:
                seen.add(b)
                elements.append(b)
    elements.sort()
    index = {a: k for k, a in enumerate(elements)}
    return table_group([[index[tuple(a[b[x]] for x in range(size))] for b in elements]
                        for a in elements])


_GENERATED = {   # group -> (its generating list, |Aut| or None above the cap)
    "S3": ([(1, 0, 2), (1, 2, 0)], [1, 2], 6),
    "Klein four": ([(1, 0, 3, 2), (2, 3, 0, 1)], [1, 2], 6),
    "D4": ([(1, 2, 3, 0), (0, 3, 2, 1)], [1, 2], 8),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], [1, 2, 6], None),
    "Z/2^3": ([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
              [1, 2, 4], 168),
    "Z/2 x Z/6": ([(1, 0, 2, 3, 4, 5, 6, 7), (0, 1, 3, 4, 5, 6, 7, 2)], [1, 6], 12),
}


@pytest.mark.parametrize("name", sorted(_GENERATED))
def test_generating_sequence_is_pinned(name):
    """The greedy generating lists, and the automorphism counts that the
    isomorphism search builds on them, stay as they were."""
    perms, gens, auts = _GENERATED[name]
    g = permutation_group(perms)
    assert _generating_sequence(g) == gens
    if auts is not None:
        assert len(isomorphisms(g, g)) == auts


_ZOO = {
    **{f"Z/{k}": cyclic_group(k) for k in range(2, 13)},
    **{name: permutation_group(_GENERATED[name][0])
       for name in ("S3", "Klein four", "Z/2^3", "Z/2 x Z/6", "D4")},
    "Z/3^2": permutation_group([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]),
    "D6": permutation_group([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "Z": integers_group(),
}


@pytest.mark.parametrize("name", sorted(_ZOO))
def test_isomorphisms_match_the_recursive_search(name):
    """One product over the generators' same-order images finds the same
    isomorphisms, in the same order, as the pruned recursive search, from
    each group of the zoo to every other."""
    src = _ZOO[name]
    for dst in _ZOO.values():
        assert isomorphisms(src, dst) == isomorphisms_by_search(src, dst)
    assert isomorphisms(src, src)


def test_generating_sequence_of_cyclic_groups_is_one():
    for k in range(2, 13):
        assert _generating_sequence(cyclic_group(k)) == [1]
    assert _generating_sequence(s3_table_group()) == [1, 2]


@pytest.mark.parametrize("name", sorted(_ZOO))
def test_generators_generate(name):
    """A finite group's stored generators reach every element, and are the
    greedy generating list."""
    g = _ZOO[name]
    if not g.is_finite:
        assert g.generators is None
        return
    assert g.generators == tuple(_generating_sequence(g))
    assert len(_close(g, g, {s: s for s in g.generators})) == g.size


def test_huge_cyclic_group_builds_no_generating_list():
    assert cyclic_group(10 ** 12).generators == (1,)


@pytest.mark.parametrize("group", [s3_table_group(), cyclic_group(4)],
                         ids=["S3", "Z/4"])
def test_local_iso_accepts_and_rejects_as_the_full_scan(group):
    """On every bijection of the group that fixes the identity, testing each
    element times a generator accepts what testing every pair accepts, and
    rejects the rest naming the same first failing pair."""
    accepted = 0
    for rest in itertools.permutations(group.nontrivial_elements()):
        mapping = (IDENTITY, *rest)
        try:
            LocalIso(group, group, mapping=mapping)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == homomorphism_error_by_scan(group, group, mapping), mapping
        accepted += got is None
    assert accepted == len(isomorphisms(group, group))
    assert 0 < accepted < len(list(itertools.permutations(group.nontrivial_elements())))


def test_identity_iso_roundtrip():
    s3 = s3_table_group()
    e = identity_iso(s3)
    assert e.is_identity
    assert e.compose(e).is_identity


_HASH_ONE_OF_EACH = """
from cyclewall.localgroups import cyclic_group
from cyclewall.words import Presentation
from oracles import frozen_values, s3_table_group
p = Presentation((cyclic_group(2), cyclic_group(3), s3_table_group(),
                  cyclic_group(2), cyclic_group(3)))
for name, value in frozen_values(p):
    print(name, hash(value))
"""


def test_element_hash_agrees_across_processes():
    """With a fixed PYTHONHASHSEED an element, and a value of each other
    frozen type, hashes alike in every process, so no hashed field may hash
    by address (as None does before Python 3.12)."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    hashes = [subprocess.run([sys.executable, "-c", _HASH_ONE_OF_EACH], env=env,
                             capture_output=True, text=True, check=True).stdout
              for _ in range(2)]
    assert hashes[0] == hashes[1]
    assert [line.split()[0] for line in hashes[0].splitlines()] == [
        "Presentation", *["LocalGroupSpec"] * 3, *["LocalIso"] * 2, "GroupElement",
        "CycleSymmetry", "LocalAut", "AutElement", "CSubgroup", *["ComplexVertex"] * 2]
