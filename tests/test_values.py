"""The package's frozen value types, written out by hand: equality, hash and
immutability keep the formulas that sets, dicts and reports rely on."""

from pathlib import Path

import pytest

from cyclewall.cli import load_presentation
from cyclewall.localgroups import LocalIso, isomorphisms, table_group

from conftest import presentation_c5_s3
from oracles import frozen_values, s3_table_group

C5_S3 = Path(__file__).parent.parent / "perfbench" / "presentations" / "c5_s3.json"

# the hash of each type, as each was computed when the types were dataclasses
HASHES = {
    "Presentation": lambda x: hash((x.groups,)),
    "LocalGroupSpec": lambda x: hash((x.kind, x.name)),
    "LocalIso": lambda x: hash((x.source, x.target,
                                -1 if x.mapping is None else x.mapping, x.sign)),
    "GroupElement": lambda x: hash(x.word),
    "CycleSymmetry": lambda x: hash((x.presentation, x.perm)),
    "LocalAut": lambda x: hash((x.sigma, x.isos)),
    "AutElement": lambda x: hash((x.inner, x.local)),
    "CSubgroup": lambda x: hash((x.tier, x.base, x.conjugator)),
    "ComplexVertex": lambda x: hash((x.cls, -1 if x.index is None else x.index, x.rep)),
}

VALUES = frozen_values(presentation_c5_s3())
IDS = [f"{name}-{k}" for k, (name, _) in enumerate(VALUES)]


def test_every_frozen_type_is_covered():
    assert {name for name, _ in VALUES} == set(HASHES)


@pytest.mark.parametrize("name, value", VALUES, ids=IDS)
def test_hash_is_the_formula(name, value):
    assert type(value).__name__ == name
    assert hash(value) == HASHES[name](value)


def test_values_built_by_two_loads_are_equal_and_hash_alike():
    first, second = (frozen_values(load_presentation(C5_S3)) for _ in range(2))
    for (name, a), (_, b) in zip(first, second):
        assert a is not b, name
        assert a == b and not a != b, name
        assert hash(a) == hash(b), name
    # and they are the values of an equal presentation built in code
    assert [value for _, value in first] == [value for _, value in VALUES]


@pytest.mark.parametrize("name, value", VALUES, ids=IDS)
def test_assignment_raises_attribute_error(name, value):
    before = hash(value)
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert hash(value) == before and getattr(value, field) is not None


@pytest.mark.parametrize("name, value", VALUES, ids=IDS)
def test_values_of_other_types_are_unequal(name, value):
    assert all(value != other for _, other in VALUES if type(other) is not type(value))
    assert value != object() and value is not None


def test_a_spec_compares_fields_it_does_not_hash():
    """Table specs differing only in display names are unequal, and hash
    alike, as the hash reads the kind and the name alone."""
    s3 = s3_table_group()
    plain = table_group(s3.table, name="S3")
    assert plain != s3 and hash(plain) == hash(s3)
    assert plain == table_group(s3.table, name="S3")


def test_an_iso_compares_its_mapping():
    s3 = s3_table_group()
    first, *rest = isomorphisms(s3, s3)
    assert all(first != phi for phi in rest)
    assert first == LocalIso(s3, s3, mapping=first.mapping)
    assert len({first, *rest}) == 1 + len(rest)
