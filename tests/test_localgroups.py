import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cyclewall.errors import GroupMismatchError, ValidationError
from cyclewall.localgroups import (
    LocalElement,
    LocalGroupSpec,
    cyclic_group,
    determining_set,
    identity_iso,
    integers_group,
    isomorphisms,
    lg_automorphisms,
    lg_mul,
    table_group,
)

from oracles import s3_table_group


def test_cyclic_mul_is_modular_addition():
    z3 = cyclic_group(3)
    assert lg_mul(LocalElement(z3, 1), LocalElement(z3, 2)).value == 0
    assert lg_mul(LocalElement(z3, 0), LocalElement(z3, 2)).value == 2


def test_mul_rejects_group_mismatch():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(GroupMismatchError):
        lg_mul(LocalElement(z2, 1), LocalElement(z3, 1))


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


def test_automorphisms_counts():
    assert len(lg_automorphisms(cyclic_group(2))) == 1
    assert len(lg_automorphisms(cyclic_group(3))) == 2
    assert len(lg_automorphisms(cyclic_group(5))) == 4
    assert len(lg_automorphisms(s3_table_group())) == 6
    signs = sorted(a.sign for a in lg_automorphisms(integers_group()))
    assert signs == [-1, 1]


@pytest.mark.parametrize("g", [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                               cyclic_group(6), s3_table_group()])
def test_automorphism_group_axioms(g):
    auts = lg_automorphisms(g)
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
    for a in lg_automorphisms(g):
        if all(a.apply(x.value) == x.value for x in S):
            assert a.is_identity


def test_determining_set_examples():
    assert [x.value for x in determining_set(cyclic_group(3))] == [1]
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


def test_identity_iso_roundtrip():
    s3 = s3_table_group()
    e = identity_iso(s3)
    assert e.is_identity
    assert e.compose(e).is_identity


_HASH_ONE_ELEMENT = """
from cyclewall.localgroups import cyclic_group
from cyclewall.words import Presentation, parse_word
from oracles import s3_table_group
p = Presentation((cyclic_group(2), cyclic_group(3), s3_table_group(),
                  cyclic_group(2), cyclic_group(3)))
print(hash(parse_word(p, "v0:1 v2:3 v4:2")))
"""


def test_element_hash_agrees_across_processes():
    """With a fixed PYTHONHASHSEED an element hashes alike in every process,
    so no spec field may hash by address (as None does before Python 3.12)."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    hashes = [subprocess.run([sys.executable, "-c", _HASH_ONE_ELEMENT], env=env,
                             capture_output=True, text=True, check=True).stdout
              for _ in range(2)]
    assert hashes[0] == hashes[1]
