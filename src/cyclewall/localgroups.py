"""Vertex groups of a cyclic product: arithmetic, automorphisms, determining sets.

Three kinds of vertex group are supported:

* ``cyclic(k)``    -- Z/k, elements are residues 0..k-1, identity 0;
* ``table``        -- an explicit finite multiplication table, identity id 0;
* ``integers``     -- (Z, +), elements are Python ints.

Elements are plain ints throughout: ids in the finite case, integers
otherwise.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import (
    EnumerationCapError,
    GroupMismatchError,
    InfiniteGroupError,
    InvariantError,
    ValidationError,
)

#: Brute-force automorphism search refuses groups above this order.
DEFAULT_AUT_ORDER_CAP = 12

#: Isomorphisms from a group of order k with a one-element generating
#: sequence are refused when k², about the entries of their value tables
#: (at most k closures, k entries each), is above this: 65,536 entries keep
#: k <= 256, so every entry is one of Python's cached small ints and the
#: tables take at most half a megabyte.
CYCLIC_AUT_ENTRY_CAP = 1 << 16

IDENTITY = 0

#: how ``__init__`` writes a field of a ``Frozen`` value, past its ``__setattr__``
set_field = object.__setattr__


class Frozen:
    """Base of the package's immutable values.

    A subclass lists its fields in ``__slots__``, writes each once in
    ``__init__`` through ``set_field``, and defines its own
    ``__eq__`` and ``__hash__``.  Setting or deleting an attribute
    afterwards raises ``AttributeError``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = (f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _validate_table(table: tuple[tuple[int, ...], ...]) -> None:
    m = len(table)
    if m < 2:
        raise ValidationError("group table needs at least 2 elements")
    for row in table:
        # an id is exactly an int: a bool is one too, and would print as True
        if len(row) != m or any(type(x) is not int or not 0 <= x < m for x in row):
            raise ValidationError("group table is not a square table of element ids")
    # identity must be id 0
    for a in range(m):
        if table[0][a] != a or table[a][0] != a:
            raise ValidationError("element 0 is not a two-sided identity")
    # associativity
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValidationError(f"table is not associative at ({a},{b},{c})")
    # inverses
    for a in range(m):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(m)):
            raise ValidationError(f"element {a} has no inverse")


class LocalGroupSpec(Frozen):
    """One vertex group: ``cyclic``, ``table`` or ``integers``.

    ``order`` is set for cyclic groups only, ``table`` (the multiplication
    table) and ``names`` (display names) for table groups only.  Specs are
    equal when the five given fields are, and hash as ``(kind, name)``: a
    field that may be None stays out of the hash, as hash(None) is an
    address before Python 3.12 and would differ between processes.
    ``inverses`` (table only: inverses[a] is the inverse of a) and
    ``generators`` (finite only: elements whose products give every
    element, 1 for Z/k) are derived.
    """

    __slots__ = ("kind", "order", "table", "names", "name", "inverses", "generators")

    def __init__(self, kind: str, order: Optional[int] = None,
                 table: Optional[tuple[tuple[int, ...], ...]] = None,
                 names: Optional[tuple[str, ...]] = None, name: str = ""):
        for field, value in zip(self.__slots__, (kind, order, table, names, name, None, None)):
            set_field(self, field, value)
        if kind == "cyclic":
            if order is None or order < 2:
                raise ValidationError("cyclic group needs order >= 2")
            set_field(self, "generators", (1,))
        elif kind == "table":
            if table is None:
                raise ValidationError("table group needs a multiplication table")
            _validate_table(table)
            set_field(self, "inverses", tuple(row.index(IDENTITY) for row in table))
            if names is not None and len(names) != len(table):
                raise ValidationError("names do not match table size")
            set_field(self, "generators", tuple(_generating_sequence(self)))
        elif kind != "integers":
            raise ValidationError(f"unknown group kind: {kind!r}")
        if not name:
            set_field(self, "name", self._default_name())

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.kind, self.order, self.table, self.names, self.name) == (
            other.kind, other.order, other.table, other.names, other.name)

    def __hash__(self) -> int:
        return hash((self.kind, self.name))

    def _default_name(self) -> str:
        if self.kind == "cyclic":
            return f"Z/{self.order}"
        if self.kind == "table":
            return f"table({len(self.table)})"
        return "Z"

    # -- basic structure ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != "integers"

    @property
    def size(self) -> int:
        if self.kind == "cyclic":
            return self.order
        if self.kind == "table":
            return len(self.table)
        raise InfiniteGroupError(f"{self.name} is infinite")

    def elements(self) -> range:
        return range(self.size)

    def nontrivial_elements(self) -> range:
        return range(1, self.size)

    def check(self, value: int) -> None:
        if self.kind != "integers" and not 0 <= value < self.size:
            raise ValidationError(f"{value} is not an element of {self.name}")

    def mul(self, a: int, b: int) -> int:
        if self.kind == "cyclic":
            return (a + b) % self.order
        if self.kind == "table":
            return self.table[a][b]
        return a + b

    def inv(self, a: int) -> int:
        if self.kind == "cyclic":
            return (-a) % self.order
        if self.kind == "integers":
            return -a
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        if self.kind == "integers":
            raise InfiniteGroupError("elements of Z have infinite order (except 0)")
        k, x = 1, a
        while x != IDENTITY:
            x = self.mul(x, a)
            k += 1
        return k


class LocalIso(Frozen):
    """Isomorphism between two vertex groups.

    Finite case: ``mapping`` is the full value table (mapping[x] = image of x).
    Integers case: ``sign`` is +1 or -1 and mapping is None.
    """

    __slots__ = ("source", "target", "mapping", "sign")

    def __init__(self, source: LocalGroupSpec, target: LocalGroupSpec,
                 mapping: Optional[tuple[int, ...]] = None, sign: int = 1):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "mapping", mapping)
        set_field(self, "sign", sign)
        if self.source.kind == "integers" or self.target.kind == "integers":
            if self.source.kind != "integers" or self.target.kind != "integers":
                raise ValidationError("Z is only isomorphic to Z")
            if self.sign not in (1, -1):
                raise ValidationError("an automorphism of Z is a sign")
        else:
            m = self.mapping
            if m is None or len(m) != self.source.size or sorted(m) != list(range(self.target.size)):
                raise ValidationError("mapping is not a bijection onto the target")
            if m[IDENTITY] != IDENTITY:
                raise ValidationError("mapping does not fix the identity")
            # m(a·s) = m(a)·m(s) for every a and every generator s gives
            # m(a·b) = m(a)·m(b) for all a, b, by induction on a word for b in
            # the generators; a failure is located by the scan of all pairs
            src, dst = self.source, self.target
            if any(m[src.mul(a, s)] != dst.mul(m[a], m[s])
                   for a in src.elements() for s in src.generators):
                for a in src.elements():
                    for b in src.elements():
                        if m[src.mul(a, b)] != dst.mul(m[a], m[b]):
                            raise ValidationError(
                                f"mapping is not a homomorphism at ({a},{b})")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.source, self.target, self.mapping, self.sign) == (
            other.source, other.target, other.mapping, other.sign)

    def __hash__(self) -> int:
        # -1 for None, whose hash is an address before Python 3.12
        return hash((self.source, self.target,
                     -1 if self.mapping is None else self.mapping, self.sign))

    def apply(self, value: int) -> int:
        if self.mapping is None:
            return self.sign * value
        return self.mapping[value]

    def compose(self, inner: "LocalIso") -> "LocalIso":
        """self after inner (``self(inner(x))``)."""
        if inner.target != self.source:
            raise GroupMismatchError("isomorphisms do not compose")
        if self.mapping is None:
            return LocalIso(inner.source, self.target, sign=self.sign * inner.sign)
        return LocalIso(
            inner.source, self.target,
            mapping=tuple(self.mapping[inner.mapping[x]] for x in range(len(inner.mapping))),
        )

    def inverse(self) -> "LocalIso":
        if self.mapping is None:
            return LocalIso(self.target, self.source, sign=self.sign)
        inv = [0] * len(self.mapping)
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return LocalIso(self.target, self.source, mapping=tuple(inv))

    @property
    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        if self.mapping is None:
            return self.sign == 1
        return all(m == x for x, m in enumerate(self.mapping))


def identity_iso(g: LocalGroupSpec) -> LocalIso:
    if g.kind == "integers":
        return LocalIso(g, g, sign=1)
    return LocalIso(g, g, mapping=tuple(range(g.size)))


def _close(src: LocalGroupSpec, dst: LocalGroupSpec,
           images: dict[int, int]) -> Optional[dict[int, int]]:
    """Extend a map on generators of src to the subgroup they generate, as a
    homomorphism into dst; None when the images clash."""
    table = dict(images)
    table[IDENTITY] = IDENTITY
    frontier = list(table)
    while frontier:
        a = frontier.pop()
        for s, t in images.items():
            p, q = src.mul(a, s), dst.mul(table[a], t)
            if p in table:
                if table[p] != q:
                    return None
            else:
                table[p] = q
                frontier.append(p)
    return table


def _generating_sequence(g: LocalGroupSpec) -> list[int]:
    """Small generating list, grown greedily by subgroup closure."""
    gens: list[int] = []
    reached = {IDENTITY}
    for x in g.nontrivial_elements():
        if x in reached:
            continue
        gens.append(x)
        reached = set(_close(g, g, {s: s for s in gens}))
        if len(reached) == g.size:
            break
    return gens


def isomorphisms(src: LocalGroupSpec, dst: LocalGroupSpec) -> list[LocalIso]:
    """All isomorphisms src -> dst, in a deterministic order.

    Finite groups: every choice of same-order images for src's generating
    sequence, first generator slowest, kept when it closes to a bijective
    homomorphism.  A source of order k whose generating sequence is one
    element, a cyclic group given as such or by its table, makes at most
    k closures, so it is refused only when k² is above
    ``CYCLIC_AUT_ENTRY_CAP``; between two cyclic groups the isomorphisms
    are x -> u·x mod k for the units u, in increasing order.  Any other
    source is refused above order ``DEFAULT_AUT_ORDER_CAP``.  Z -> Z gives
    the two signs.
    """
    if src.kind == "integers" and dst.kind == "integers":
        return [LocalIso(src, dst, sign=1), LocalIso(src, dst, sign=-1)]
    if not src.is_finite or not dst.is_finite:
        return []
    if src.size != dst.size:
        return []
    k = src.size
    if len(src.generators) == 1:
        if k * k > CYCLIC_AUT_ENTRY_CAP:
            raise EnumerationCapError(
                f"automorphisms of a cyclic group capped at {CYCLIC_AUT_ENTRY_CAP} "
                f"table entries, got order {k}")
    elif k > DEFAULT_AUT_ORDER_CAP:
        raise EnumerationCapError(
            f"automorphism search capped at order {DEFAULT_AUT_ORDER_CAP}, "
            f"got {k}")

    gens = src.generators
    candidates = [[y for y in dst.nontrivial_elements()
                   if dst.element_order(y) == src.element_order(x)]
                  for x in gens]
    found: list[LocalIso] = []
    for images in itertools.product(*candidates):
        table = _close(src, dst, dict(zip(gens, images)))
        if table is None or len(table) != k:
            continue
        vals = [table[x] for x in range(k)]
        if sorted(vals) == list(range(dst.size)):
            found.append(LocalIso(src, dst, mapping=tuple(vals)))
    return found


def determining_set(g: LocalGroupSpec) -> list[int]:
    """Finite subset fixed pointwise only by the identity automorphism.

    Grown greedily: scan elements in id order, keep those that strictly shrink
    the subgroup of automorphisms fixing everything chosen so far.
    """
    if g.kind == "integers":
        return [1]
    fixing = isomorphisms(g, g)
    chosen: list[int] = []
    for x in g.nontrivial_elements():
        if len(fixing) == 1:
            break
        still = [a for a in fixing if a.apply(x) == x]
        if len(still) < len(fixing):
            chosen.append(x)
            fixing = still
    if len(fixing) != 1:
        raise InvariantError("automorphisms fixing every element are not just the identity")
    return chosen


# -- convenience constructors ---------------------------------------------

def cyclic_group(k: int, name: str = "") -> LocalGroupSpec:
    return LocalGroupSpec(kind="cyclic", order=k, name=name)


def table_group(table, names=None, name: str = "") -> LocalGroupSpec:
    tbl = tuple(tuple(row) for row in table)
    nm = tuple(names) if names is not None else None
    return LocalGroupSpec(kind="table", table=tbl, names=nm, name=name)


def integers_group(name: str = "") -> LocalGroupSpec:
    return LocalGroupSpec(kind="integers", name=name)
