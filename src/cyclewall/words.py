"""Canonical words in a cyclic product of groups.

An element is stored as its canonical reduced word: reduced in the usual
sense (no identity syllables, no mergeable same-group neighbours, not
shortenable by commuting shuffles), and lexicographically least among its
shuffle-equivalent reduced forms when comparing vertex-index sequences.
Two ``GroupElement`` values are equal iff they are equal in the group.

Vertices are 0-based residues mod n; vertices i and j commute iff they are
adjacent on the cycle, i.e. ``|i - j| = 1 (mod n)``. Each presentation
precomputes this as a table, ``blocks[v]``: the vertices that do not commute
with v, v included.

The shuffles of a reduced word are the linear extensions of its dependence
order (the trace-monoid view of graph-product normal forms), and the
canonical word is the least one: the output of the greedy topological sort
that always emits the least available vertex. Words are kept canonical as
they are built, one syllable at a time (the lexicographic normal form of a
trace can be maintained letter by letter; Anisimov-Knuth, *Inhomogeneous
sorting*, 1979). A pushed syllable that merges with nothing is inserted
just before the first syllable of greater vertex after the last syllable it
does not commute with, which is where the greedy sort would emit it; a merge
changes only a value, and a cancelled syllable is maximal in the dependence
order. Pushing one syllable onto a word of L syllables costs O(L), and no
word is ever sorted. Most pushes settle at the last syllable, which the
push compares first: it merges or cancels there, or is blocked by it and
appended; only a push that commutes with the last syllable scans further.
One private loop pushes a whole sequence of syllables, reading the
presentation's tables once per call; ``mul``, ``inv``, ``reduce_word`` and
``parse_word`` all go through it.  The loop takes group elements, none of
them the identity, and checks nothing: values from outside are checked
where they come in, by ``reduce_word`` in input order before it pushes
(skipping identity syllables), and by the token parser before a syllable
is interned, so ``parse_word`` pushes interned syllables unchecked.
``mul`` takes any number of factors and pushes them
all onto one word, so a conjugate ``w * h * w^-1`` is one product; a
conjugate of one syllable is written out from w's minimal coset rep
instead (``autgroup.generator_images``), and ``split_conjugate`` reads it
back.  Each element of a ball is made once, from its canonical word's
prefix, the element one syllable shorter (``enumerate_ball_elements``).

Each presentation also keeps a private memo of the finite syllables met so
far, ``_interned``: a canonical token such as ``v3:2`` maps to its
``Syllable``, and a syllable to its inverse, so ``parse_word`` and ``inv``
read them by one dict lookup and parsed words share syllable objects. It
starts empty and is filled only with syllables of finite vertex groups
whose value lies in ``values[v]``, so it holds at most sum |G_v| tokens and
as many syllables; a vertex group of order 10^12 costs nothing until its
syllables are used. ``parse_word`` reads a text's syllables from the memo
in one pass, which stops at the first token it misses; the text is then
parsed token by token instead, through the per-token parser, as ``inv``
falls through to ``LocalGroupSpec.inv``: ``Z`` vertices, spellings such as
``v01:1`` and every ``ValidationError`` take that path. A second memo,
``_tokens``, maps each finite syllable that ``format_word`` has written to
its token, under the same bound, so a word is written by one pass of
lookups, and syllable by syllable only when one misses.  A third,
``_products``, maps each pair of same-vertex finite syllables that the push
loop has merged to their product syllable, or to None when they cancel, so
a merge is one lookup, with no ``LocalGroupSpec.mul`` call and no new
syllable.  It is filled under the same rule, values in ``values[v]``, so it
holds at most sum |G_v|^2 pairs; a merge at a ``Z`` vertex is computed
every time.

Conjugated standard subgroups w<G_S>w^-1 are ``algebraic.CSubgroup`` values,
the one encoding of them; ``parabolic_member`` tests membership in one by
comparing minimal coset representatives.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import GroupMismatchError, InfiniteGroupError, ValidationError
from .localgroups import IDENTITY, Frozen, LocalGroupSpec, set_field

if TYPE_CHECKING:
    from .algebraic import CSubgroup


class Presentation(Frozen):
    """A cyclic product: n >= 5 non-trivial vertex groups on the cycle C_n.

    Presentations are equal when their ``groups`` are, and hash as
    ``(groups,)``; the other fields are derived from the groups."""

    __slots__ = ("groups", "n", "blocks", "values", "_interned", "_tokens", "_products")

    def __init__(self, groups: tuple[LocalGroupSpec, ...]):
        n = len(groups)
        if n < 5:
            raise ValidationError("cyclic products need at least 5 vertex groups")
        set_field(self, "groups", groups)
        set_field(self, "n", n)
        # blocks[v]: the vertices that do not commute with v, v itself included.
        set_field(self, "blocks", tuple(
            frozenset(range(n)) - {(v - 1) % n, (v + 1) % n} for v in range(n)))
        # values[v]: the elements of vertex group v, None when it is Z.
        set_field(self, "values", tuple(g.elements() if g.is_finite else None for g in groups))
        # _interned: canonical token -> Syllable and Syllable -> inverse, for
        # the finite syllables met so far (see the module docstring).
        set_field(self, "_interned", {})
        # _tokens: Syllable -> canonical token, for the finite syllables
        # formatted so far.
        set_field(self, "_tokens", {})
        # _products: (Syllable, Syllable) -> their merge, None for the
        # identity, for the pairs of finite syllables of one vertex merged so
        # far.
        set_field(self, "_products", {})

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.groups == other.groups

    def __hash__(self) -> int:
        return hash((self.groups,))

    def group(self, vertex: int) -> LocalGroupSpec:
        return self.groups[vertex % self.n]

    def adjacent(self, i: int, j: int) -> bool:
        d = (i - j) % self.n
        return d == 1 or d == self.n - 1

    @property
    def all_finite(self) -> bool:
        return all(g.is_finite for g in self.groups)

    def require_finite(self) -> None:
        if not self.all_finite:
            raise InfiniteGroupError("operation requires finite vertex groups")

    def syllables(self) -> Iterator["Syllable"]:
        """All generator syllables (every non-identity local element)."""
        for v in range(self.n):
            for x in self.group(v).nontrivial_elements():
                yield Syllable(v, x)


class Syllable(NamedTuple):
    """A non-identity element of one vertex group.

    A plain tuple ``(vertex, value)``, so words hash and compare in C.
    """

    vertex: int
    value: int


@total_ordering
class GroupElement(Frozen):
    """An element of a presentation's group, as its canonical reduced word.

    Elements are equal when their presentations and words are; they hash
    as the word and are ordered by ``(len, word)``."""

    __slots__ = ("presentation", "word")

    def __init__(self, presentation: Presentation, word: tuple[Syllable, ...]):
        _set_presentation(self, presentation)
        _set_word(self, word)

    @property
    def syllable_length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def support(self) -> frozenset[int]:
        return frozenset(s.vertex for s in self.word)

    def __eq__(self, other):
        # the words first: most elements compared share one presentation object
        return other.__class__ is self.__class__ and self.word == other.word and (
            self.presentation is other.presentation or self.presentation == other.presentation)

    def __hash__(self) -> int:
        # Equal elements have equal canonical words.
        return hash(self.word)

    def __lt__(self, other: "GroupElement") -> bool:
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __str__(self) -> str:
        return format_word(self)

    def conjugate(self, by: "GroupElement") -> "GroupElement":
        """``by * self * by^-1``."""
        return mul(by, self, inv(by))


# the slots' own setters, which write past Frozen.__setattr__ faster than set_field
_set_presentation = GroupElement.presentation.__set__
_set_word = GroupElement.word.__set__


# -- reduction and canonical form -------------------------------------------


_MISSING = object()   # no products memo entry


def _push_all(p: Presentation, word: list[Syllable], syllables: Iterable[Syllable]) -> None:
    """Multiply a canonical reduced word by each syllable in turn, keeping it so.

    Each syllable of vertex v is first set against the last syllable of the
    word, where most pushes settle: a same-vertex last syllable merges with
    it (and is deleted when they cancel), and a blocking one takes it
    after.  Only when the last syllable commutes with v does it scan right
    to left over the syllables that commute with v.  If it reaches a
    same-vertex syllable it merges the two values, deleting the syllable
    when they cancel. Otherwise it stops at the last blocking syllable, at
    index k0 (-1 if none), and inserts the new syllable before the first
    index j > k0 with ``word[j].vertex > v`` (the leftmost greater vertex
    the scan passed), or at the end.

    The insertion is exactly where the greedy least-vertex topological sort
    of the word plus a new last syllable s would emit s: it emits the old
    syllables in order up to k0 (s depends on k0), and after that emits s
    as soon as v is below the next old vertex. No syllable after k0 shares
    v, or the scan would have merged. A merge changes only a value, and a
    cancelled syllable is maximal in the dependence order, so deleting it
    keeps the least linear extension (see ``coset_rep``).

    The syllables are group elements, none of them the identity (callers
    check outside values first), and a merge reads the presentation's
    products memo (``_merge``).
    """
    blocks, products = p.blocks, p._products
    append = word.append
    for syl in syllables:
        if not word:
            append(syl)
            continue
        v = syl[0]
        last = word[-1]
        u = last[0]
        if u == v:
            prod = products.get((last, syl), _MISSING)
            if prod is _MISSING:
                prod = _merge(p, last, syl)
            if prod is None:
                del word[-1]
            else:
                word[-1] = prod
            continue
        block = blocks[v]
        if u in block:
            append(syl)
            continue
        end = len(word) - 1
        j = end if u > v else end + 1
        for k in range(end - 1, -1, -1):
            other = word[k]
            u = other[0]
            if u == v:
                prod = products.get((other, syl), _MISSING)
                if prod is _MISSING:
                    prod = _merge(p, other, syl)
                if prod is None:
                    del word[k]
                else:
                    word[k] = prod
                break
            if u in block:
                word.insert(j, syl)
                break
            if u > v:
                j = k
        else:
            word.insert(j, syl)


def _merge(p: Presentation, a: Syllable, b: Syllable) -> Optional[Syllable]:
    """The syllable a·b of one vertex, None when it is the identity,
    memoised when both values are finite group elements."""
    v, x = a
    y = b[1]
    z = p.groups[v].mul(x, y)
    prod = None if z == IDENTITY else Syllable(v, z)
    values = p.values[v]
    if values is not None and x in values and y in values:
        p._products[a, b] = prod
    return prod


def reduce_word(p: Presentation, syllables: Iterable[Syllable]) -> GroupElement:
    """Canonical reduced form of an arbitrary syllable sequence.

    Each value is checked against its vertex group in input order, as the
    syllables are read, so the first bad one is reported; identity
    syllables are skipped.  The rest are then pushed (``canonical``)."""
    values, groups = p.values, p.groups
    checked = []
    for s in syllables:
        v, x = s
        allowed = values[v]
        if allowed is not None and x not in allowed:
            groups[v].check(x)
        if x != IDENTITY:
            checked.append(s)
    return canonical(p, checked)


def canonical(p: Presentation, word: Iterable[Syllable]) -> GroupElement:
    """``reduce_word`` for syllables already known to be group elements,
    none of them the identity, without its value checks.  On a word that is
    already reduced, such as a local automorphism's image of a reduced word,
    it only puts the syllables in canonical order."""
    out: list[Syllable] = []
    _push_all(p, out, word)
    return GroupElement(p, tuple(out))


def identity(p: Presentation) -> GroupElement:
    return GroupElement(p, ())


def from_syllable(p: Presentation, vertex: int, value: int) -> GroupElement:
    return reduce_word(p, [Syllable(vertex % p.n, value)])


def mul(a: GroupElement, b: GroupElement, *rest: GroupElement) -> GroupElement:
    """The product ``a * b * ...``: every further factor is pushed onto the
    same word, so a product of k factors builds one word, not k - 1."""
    p = a.presentation
    if rest:
        factors = (b, *rest)
        for c in factors:
            if c.presentation is not p and c.presentation != p:
                raise GroupMismatchError("elements of different presentations")
        syllables = chain.from_iterable([c.word for c in factors])
    else:
        if b.presentation is not p and b.presentation != p:
            raise GroupMismatchError("elements of different presentations")
        if not b.word:
            return a
        if not a.word:
            return b
        syllables = b.word
    word = list(a.word)
    _push_all(p, word, syllables)
    return GroupElement(p, tuple(word))


def _inverse(p: Presentation, s: Syllable) -> Syllable:
    """The inverse syllable, interned when s is a finite group element."""
    v, x = s
    t = Syllable(v, p.groups[v].inv(x))
    values = p.values[v]
    if values is not None and x in values:
        p._interned[s] = t
    return t


def inv(a: GroupElement) -> GroupElement:
    """The inverse: a's inverted syllables in reverse, in canonical order.

    The reverse of a reduced word is reduced, so no two syllables merge:
    each is inserted as ``_push_all`` inserts one that meets no same-vertex
    syllable, before the leftmost greater vertex after the last blocking
    syllable, or at the end."""
    p = a.presentation
    memo, blocks = p._interned, p.blocks
    word: list[Syllable] = []
    for t in [memo.get(s) or _inverse(p, s) for s in reversed(a.word)]:
        v = t[0]
        block = blocks[v]
        j = k = len(word)
        while k and (u := word[k - 1][0]) not in block:
            k -= 1
            if u > v:
                j = k
        word.insert(j, t)
    return GroupElement(p, tuple(word))


# -- cosets and conjugated standard subgroups ---------------------------------


def _strippable(p: Presentation, word: Sequence[Syllable], S: Iterable[int]) -> list[int]:
    """The positions, right to left, of the syllables ``coset_rep`` strips,
    for the vertices S taken mod n.

    One scan from the right: a syllable is stripped when its vertex is in S
    and commutes with every kept syllable after it, and it blocks nothing,
    as it is shuffled past them to the end and removed.  A kept syllable
    blocks ``p.blocks`` of its vertex.  The scan stops as soon as every
    vertex of S is blocked.
    """
    blocks = p.blocks
    n = len(blocks)
    free = {v % n for v in S}   # the vertices of S that no kept syllable seen blocks
    out = []
    for k in range(len(word) - 1, -1, -1):
        v = word[k].vertex
        if v in free:
            out.append(k)
        else:
            free -= blocks[v]
            if not free:
                break
    return out


def coset_rep(g: GroupElement, S: Iterable[int]) -> GroupElement:
    """Minimal representative of the left coset ``g<G_S>``.

    Strips every syllable with vertex in S that can be shuffled to the last
    position, in one pass from the right that ends once every vertex of S
    is blocked (see ``_strippable``); g itself comes back when nothing is
    stripped.  ``coset_rep(g, S) == coset_rep(h, S)`` iff g and h lie in the
    same coset.

    One pass strips what stripping the rightmost strippable syllable and
    scanning again would: a stripped syllable blocks nothing, so the
    syllables after the one stripped next are the kept ones the pass has
    seen, and a kept syllable stays blocked by kept syllables after it.

    The stripped word needs no further reduction or sorting. Each stripped
    syllable is a maximal element of the word's dependence order: nothing
    after it fails to commute with it. Removing a maximal element merges no
    same-vertex syllables, so the word stays reduced, and the least linear
    extension of what remains is the old one with that syllable deleted, so
    the word stays canonical.
    The result w is the minimal representative of the graph-product normal
    form (Green, *Graph products of groups*, 1990): |w·h| = |w| + |h| for
    every h in ``<G_S>``.
    """
    p = g.presentation
    stripped = _strippable(p, g.word, S)
    if not stripped:
        return g
    word = list(g.word)
    for k in stripped:   # right to left, so no deletion moves a position still to come
        del word[k]
    return GroupElement(p, tuple(word))


def parabolic_member(g: GroupElement, H: CSubgroup) -> bool:
    """Whether g lies in the conjugated standard subgroup ``H = w<G_S>w^-1``.

    g lies in H iff g·w<G_S> = w<G_S>, whose minimal rep is w itself:
    ``CSubgroup`` keeps w minimal modulo a window that contains S.
    """
    w = H.conjugator
    return coset_rep(mul(g, w), H.window) == w


# -- conjugates of a syllable ---------------------------------------------------


def star_split(g: GroupElement, v: int) -> tuple[GroupElement, int]:
    """``(u, t)``: u = ``coset_rep(g, star)`` for the star {v-1, v, v+1} of
    v, and t the value of the v-syllable that the strip removes, IDENTITY
    if none.  <G_star> is G_v times the free product of G_{v-1} and
    G_{v+1}, and at most one v-syllable is stripped, so g = u·t·r with r
    commuting with G_v."""
    p = g.presentation
    stripped = _strippable(p, g.word, (v - 1, v, v + 1))
    word = list(g.word)
    t = IDENTITY
    for k in stripped:   # right to left, as in coset_rep
        if word[k].vertex == v:
            t = word[k].value
        del word[k]
    return GroupElement(p, tuple(word)), t


# -- the ends of a word and cyclic reduction -----------------------------------


def _end_syllables(p: Presentation, word: Sequence[Syllable], end: int,
                   inward: range) -> list[tuple[int, int]]:
    """The (vertex, position) of ``word[end]`` and of at most one more
    syllable that shuffles to the same end, read at the positions
    ``inward`` from that end.

    Such syllables commute pairwise, and a clique of C_n (n >= 5) has at
    most two vertices.  So the scan looks only for the two neighbours of
    ``word[end]``'s vertex, and stops once both are blocked.
    """
    a = word[end][0]
    n = len(p.groups)
    free = {(a - 1) % n, (a + 1) % n}   # the vertices that commute with a
    blocks = p.blocks
    for k in inward:
        v = word[k][0]
        if v in free:
            return [(a, end), (v, k)]
        free -= blocks[v]
        if not free:
            break
    return [(a, end)]


def maximal_syllables(p: Presentation, word: Sequence[Syllable]) -> list[tuple[int, int]]:
    """The (vertex, position) of each maximal syllable of a reduced word,
    the syllables that shuffle to its end: the last one, and at most one
    more, of a vertex next to the last one's.  It reads the word as a
    trace, so any linear extension of a reduced word will do."""
    if not word:
        return []
    last = len(word) - 1
    return _end_syllables(p, word, last, range(last - 1, -1, -1))


def minimal_syllables(p: Presentation, word: Sequence[Syllable]) -> list[tuple[int, int]]:
    """The (vertex, position) of each minimal syllable, the ones that
    shuffle to the front: the first one, and at most one more, found by
    the same scan as ``maximal_syllables``, run forward from the front."""
    if not word:
        return []
    return _end_syllables(p, word, 0, range(1, len(word)))


def cyclic_reduce(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """``(core, conj)`` with ``g == conj * core * conj^-1``.

    Core is minimal under single-syllable conjugations, resolved
    deterministically by always conjugating by the least ``(vertex, value)``
    front syllable that strictly shortens the word.  That fixes the path,
    not the result: two qualifying steps touch four distinct syllables and
    each leaves the other qualifying, so they commute.

    Conjugating by the front syllable s = word[k] of vertex v deletes it at
    the front, and the result is shorter exactly when s then merges at the
    back of the rest of the word, that is when v also has a maximal
    syllable t != s (after s, as a v-syllable before s would block it).
    Only the winner is conjugated: s is deleted, t's value becomes
    ``t * s``, and t is deleted when that is the identity.

    Each step reads the word's at most two maximal syllables, scanning from
    the back, and its at most two minimal ones, scanning forward from the
    front, both on the list itself, and pairs them by vertex.
    The loop runs on the trace of the word, its dependence order (Green,
    *Graph products of groups*, 1990), and edits a plain list in place.
    "Shuffles to the front" means minimal in that order and "shuffles to the
    end" means maximal, so both tests hold on any linear extension; deleting
    a minimal or a maximal syllable leaves a linear extension of a reduced
    word.  The core is put in canonical order once, at the end, and it must
    be: deleting a minimal syllable need not keep the least linear
    extension.  On C5 with v4 of order 2, ``v3:2 v4:1 v2:1 v4:1`` is
    canonical; conjugating by v4:1 leaves ``v3:2 v2:1``, whose canonical
    order is ``v2:1 v3:2``.
    """
    p = g.presentation
    word = list(g.word)
    conj: list[Syllable] = []
    while True:
        back = maximal_syllables(p, word)
        steps = [(word[k], k, j) for v, k in minimal_syllables(p, word)
                 for u, j in back if u == v and j != k]
        if not steps:
            break
        s, k, j = min(steps)
        prod = p.groups[s.vertex].mul(word[j].value, s.value)
        if prod == IDENTITY:
            del word[j]
        else:
            word[j] = Syllable(s.vertex, prod)
        del word[k]   # k < j, so deleting t first moves nothing still to come
        conj.append(s)
    if not conj:
        return g, identity(p)
    return canonical(p, word), canonical(p, conj)


def split_conjugate(h: GroupElement,
                    conj: Optional[tuple[GroupElement, GroupElement]] = None
                    ) -> Optional[tuple[GroupElement, GroupElement, GroupElement]]:
    """``(core, conj, conj^-1)`` when h's word is a word u, one syllable s,
    then u^-1's word, with u its first half; None otherwise.

    Every conjugate of a syllable has this shape (Green's normal form; the
    proof is in ``autgroup.aut_decompose``), so None means h is not
    conjugate to a syllable, and on it ``cyclic_reduce(h)`` is ``(s, u)``,
    read here without reducing.  The first half of a
    canonical word is canonical, as a prefix of a least linear extension
    is the least one of what it holds.  Every syllable of u is below s in
    the dependence order: if one were not, a maximal syllable of u would
    not be either, and it would meet its inverse, a minimal syllable of
    u^-1, across s, so h's word would not be reduced.  So the front
    syllables that merge at the back are those of u, each with its own
    inverse, until s is left.

    When h's first half is the c of a given pair ``conj = (c, c^-1)``, that
    pair itself comes back, and c is not inverted again.
    """
    word = h.word
    k, odd = divmod(len(word), 2)
    if not odd:
        return None
    p = h.presentation
    if conj is None or conj[0].word != word[:k]:
        u = GroupElement(p, word[:k])
        conj = u, inv(u)
    if word[k + 1:] != conj[1].word:
        return None
    return GroupElement(p, word[k:k + 1]), *conj


# -- bounded enumeration ------------------------------------------------------


def enumerate_ball_elements(p: Presentation, L: int,
                            window: Optional[Iterable[int]] = None) -> list[GroupElement]:
    """All elements of syllable length <= L, canonical, each once, in
    ``(len, word)`` order.

    An element h of length k+1 is g·s for s = (v, x) its word's last
    syllable and g the rest (canonical, as a prefix of the least linear
    extension is least), and pushing s onto g's word appends it.  So level
    k+1 is g's word plus s over the pairs whose push appends, each element
    once.  The push (``_push_all``) scans g's word from the end by vertex:
    it merges at a syllable of vertex v, puts s before a commuting syllable
    of greater vertex, and appends s at a blocking syllable or the start of
    the word, whichever comes first; ``_appends`` decides it from v alone.
    Extending a level in word order by generators in ``(vertex, value)``
    order keeps word order.  With a ``window`` S, the generators are the
    syllables of S alone.
    """
    p.require_finite()
    vertices = range(p.n) if window is None else sorted({v % p.n for v in window})
    gens = [(v, p.blocks[v], [Syllable(v, x) for x in p.group(v).nontrivial_elements()])
            for v in vertices]
    level = [identity(p)]
    out = level[:]
    for _ in range(L):
        level = [GroupElement(p, g.word + (s,)) for g in level for v, block, syllables in gens
                 if _appends(g.word, v, block) for s in syllables]
        out += level
    return out


def _appends(word: tuple[Syllable, ...], v: int, block: frozenset[int]) -> bool:
    """Whether a syllable of vertex v, blocked by ``block``, is appended to ``word``."""
    for u, _ in reversed(word):
        if u in block:
            return u != v
        if u > v:
            return False
    return True


# -- text syntax --------------------------------------------------------------


def _syllable_of_token(p: Presentation, token: str) -> Syllable:
    """Parse one token, interning it when it is the canonical spelling of a
    finite group element; the value of any other is left to ``reduce_word``."""
    if not token.startswith("v") or ":" not in token:
        raise ValidationError(f"bad syllable token: {token!r}")
    v_part, _, e_part = token[1:].partition(":")
    try:
        vertex, value = int(v_part), int(e_part)
    except ValueError:
        raise ValidationError(f"bad syllable token: {token!r}") from None
    if not 0 <= vertex < p.n:
        raise ValidationError(f"vertex {vertex} out of range for n={p.n}")
    s = Syllable(vertex, value)
    values = p.values[vertex]
    if values is not None and value in values and token == f"v{vertex}:{value}":
        p._interned[token] = s
    return s


def _syllables_of_tokens(p: Presentation, tokens: list[str]) -> Iterator[Syllable]:
    """The syllables of ``v3:2 v1:1``'s tokens, lazily: ``reduce_word``
    checks each in turn."""
    memo = p._interned
    for token in tokens:
        yield memo.get(token) or _syllable_of_token(p, token)


def parse_word(p: Presentation, text: str) -> GroupElement:
    """Parse ``v3:2 v1:1`` into a canonical element.

    The tokens are read from the memo in one pass; when it holds every
    token, its syllables, checked when they were interned, are pushed as
    they are, identity syllables left out.  At the first token it misses,
    the tokens are parsed again lazily through ``reduce_word``, so the
    first bad token is the one reported."""
    tokens = text.split()
    try:
        syllables = list(map(p._interned.__getitem__, tokens))
    except KeyError:
        return reduce_word(p, _syllables_of_tokens(p, tokens))
    return canonical(p, filter(_value, syllables))


_value = itemgetter(1)   # a syllable's value, falsy exactly for the identity


def _token(p: Presentation, s: Syllable) -> str:
    """The canonical token of s, memoised when s is a finite group element."""
    v, x = s
    token = f"v{v}:{x}"
    values = p.values[v]
    if values is not None and x in values:
        p._tokens[s] = token
    return token


def format_word(g: GroupElement) -> str:
    """The word's tokens, read from the memo in one pass; at the first
    syllable it misses, the word is written syllable by syllable."""
    p = g.presentation
    tokens = p._tokens
    try:
        return " ".join([*map(tokens.__getitem__, g.word)])
    except KeyError:
        return " ".join([tokens.get(s) or _token(p, s) for s in g.word])
