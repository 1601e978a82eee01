"""Automorphisms of a cyclic product: inner-times-local normal form,
action on the complex, decomposition from generator images, and the
determining-set witness whose local fixator is trivial.

Every automorphism is stored as ``conjugation by g`` composed with a *local*
automorphism: a dihedral symmetry of the cycle that preserves vertex-group
isomorphism classes, together with one isomorphism per vertex.  The pair is
unique, so composition and inversion are done in normal form.  Arbitrary
candidate automorphisms enter only through :func:`aut_decompose`, which
reconstructs the normal form from generator images or rejects with a typed
witness.

The local group is never listed: :func:`enumerate_loc` indexes it as a
product, and :func:`loc_fixator` returns a word's fixator as a product of
the same kind, read off the word's syllable values vertex by vertex.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections.abc import Sequence

from .algebraic import MAXIMAL, window_of
from .davis import act_vertex
from .errors import DecompositionError, InvariantError, ValidationError
from .localgroups import (
    IDENTITY,
    Frozen,
    LocalIso,
    determining_set,
    identity_iso,
    isomorphisms,
    set_field,
)
from .reports import Report
from .words import (
    GroupElement,
    Presentation,
    Syllable,
    canonical,
    coset_rep,
    enumerate_ball_elements,
    format_word,
    identity,
    inv,
    mul,
    reduce_word,
    split_conjugate,
    star_split,
)


# -- cycle symmetries -----------------------------------------------------------


class CycleSymmetry(Frozen):
    """A dihedral symmetry of the cycle preserving group isomorphism classes."""

    __slots__ = ("presentation", "perm")

    def __init__(self, presentation: Presentation, perm: tuple[int, ...]):
        set_field(self, "presentation", presentation)
        set_field(self, "perm", perm)
        n = presentation.n
        if sorted(perm) != list(range(n)):
            raise ValidationError("not a permutation of the cycle's vertices")
        step = (perm[1] - perm[0]) % n
        if step not in (1, n - 1) or any(
                (perm[(i + 1) % n] - perm[i]) % n != step
                for i in range(n)):
            raise ValidationError("not a rotation or reflection of the cycle")
        for i in range(n):
            if not _iso_exists(presentation.group(i), presentation.group(perm[i])):
                raise ValidationError(
                    f"vertex groups {i} and {perm[i]} are not isomorphic")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.presentation, self.perm) == (other.presentation, other.perm)

    def __hash__(self) -> int:
        return hash((self.presentation, self.perm))

    def __call__(self, i: int) -> int:
        return self.perm[i % self.presentation.n]

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.perm))

    def compose(self, inner: "CycleSymmetry") -> "CycleSymmetry":
        n = self.presentation.n
        return CycleSymmetry(self.presentation,
                             tuple(self.perm[inner.perm[i]] for i in range(n)))

    def inverse(self) -> "CycleSymmetry":
        out = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            out[v] = i
        return CycleSymmetry(self.presentation, tuple(out))


def _iso_exists(src, dst) -> bool:
    if src == dst:
        return True
    return bool(isomorphisms(src, dst))


def enumerate_symmetries(p: Presentation) -> list[CycleSymmetry]:
    """All dihedral cycle symmetries compatible with the vertex groups."""
    out = []
    n = p.n
    for shift in range(n):
        for step in (1, -1):
            perm = tuple((shift + step * i) % n for i in range(n))
            try:
                out.append(CycleSymmetry(p, perm))
            except ValidationError:
                continue
    return out


# -- local automorphisms ------------------------------------------------------------


def _check_isos(sigma: CycleSymmetry, per_vertex) -> None:
    """Raise unless ``per_vertex`` holds, for each vertex i, isomorphisms
    G_i -> G_sigma(i) only."""
    groups, perm = sigma.presentation.groups, sigma.perm
    if len(per_vertex) != len(groups):
        raise ValidationError("one isomorphism per vertex is required")
    for i, options in enumerate(per_vertex):
        for phi in options:
            # tuples compare their items by identity first
            if (phi.source, phi.target) != (groups[i], groups[perm[i]]):
                raise ValidationError(
                    f"isomorphism at vertex {i} does not follow the symmetry")


class LocalAut(Frozen):
    """A cycle symmetry with one vertex-group isomorphism per vertex."""

    __slots__ = ("sigma", "isos")

    def __init__(self, sigma: CycleSymmetry, isos: tuple[LocalIso, ...]):
        _check_isos(sigma, [(phi,) for phi in isos])
        set_field(self, "sigma", sigma)
        set_field(self, "isos", isos)

    @classmethod
    def _checked(cls, sigma: CycleSymmetry, isos: tuple[LocalIso, ...]) -> "LocalAut":
        """One whose isomorphisms :func:`_check_isos` has already passed,
        built without checking them again."""
        lam = object.__new__(cls)
        set_field(lam, "sigma", sigma)
        set_field(lam, "isos", isos)
        return lam

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.sigma, self.isos) == (other.sigma, other.isos)

    def __hash__(self) -> int:
        return hash((self.sigma, self.isos))

    @property
    def presentation(self) -> Presentation:
        return self.sigma.presentation

    @property
    def is_identity(self) -> bool:
        return self.sigma.is_identity and all(phi.is_identity for phi in self.isos)

    def apply(self, g: GroupElement) -> GroupElement:
        """lam(g): relabelling g's reduced word gives a reduced word, so it
        is only put in canonical order."""
        perm, isos = self.sigma.perm, self.isos
        return canonical(self.presentation,
                         [Syllable(perm[v], isos[v].apply(x)) for v, x in g.word])

    def compose(self, inner: "LocalAut") -> "LocalAut":
        """self after inner."""
        p = self.presentation
        sigma = self.sigma.compose(inner.sigma)
        isos = tuple(self.isos[inner.sigma(i)].compose(inner.isos[i])
                     for i in range(p.n))
        return LocalAut(sigma, isos)

    def inverse(self) -> "LocalAut":
        p = self.presentation
        tau = self.sigma.inverse()
        isos = tuple(self.isos[tau(i)].inverse() for i in range(p.n))
        return LocalAut(tau, isos)


def identity_local_aut(p: Presentation) -> LocalAut:
    return LocalAut(CycleSymmetry(p, tuple(range(p.n))),
                    tuple(identity_iso(p.group(i)) for i in range(p.n)))


class Loc(Sequence):
    """Local automorphisms as an indexed product: ``choices`` pairs each
    symmetry with one list of isomorphisms per vertex, and ``loc[k]``
    decodes k in mixed radix, first the symmetry, in the order of
    ``choices``, then one isomorphism per vertex, the last vertex varying
    fastest.  Each block's isomorphisms are checked once, here, so an
    element is decoded without checking them again."""

    def __init__(self, choices):
        for sigma, per_vertex in choices:
            _check_isos(sigma, per_vertex)
        self.choices = choices
        self._ends = list(itertools.accumulate(
            math.prod(map(len, per_vertex)) for _, per_vertex in choices))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        size = len(self)
        if not -size <= k < size:
            raise IndexError("local group index out of range")
        k %= size
        j = bisect.bisect_right(self._ends, k)
        if j:
            k -= self._ends[j - 1]
        sigma, per_vertex = self.choices[j]
        isos = []
        for options in reversed(per_vertex):
            k, r = divmod(k, len(options))
            isos.append(options[r])
        return LocalAut._checked(sigma, tuple(reversed(isos)))


def enumerate_loc(p: Presentation) -> Loc:
    """The whole local group as an indexed product, in
    :func:`enumerate_symmetries`' order."""
    return Loc([(sigma, [isomorphisms(p.group(i), p.group(sigma(i)))
                         for i in range(p.n)])
                for sigma in enumerate_symmetries(p)])


# -- automorphisms in normal form ----------------------------------------------------


class AutElement(Frozen):
    """Conjugation by ``inner`` composed after the local automorphism."""

    __slots__ = ("inner", "local")

    def __init__(self, inner: GroupElement, local: LocalAut):
        if inner.presentation != local.presentation:
            raise ValidationError("inner and local parts disagree on the presentation")
        set_field(self, "inner", inner)
        set_field(self, "local", local)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.inner, self.local) == (other.inner, other.local)

    def __hash__(self) -> int:
        return hash((self.inner, self.local))

    @property
    def presentation(self) -> Presentation:
        return self.inner.presentation

    @property
    def is_identity(self) -> bool:
        return self.inner.is_identity and self.local.is_identity


def local_aut(lam: LocalAut) -> AutElement:
    return AutElement(identity(lam.presentation), lam)


def aut_compose(a: AutElement, b: AutElement) -> AutElement:
    return AutElement(mul(a.inner, a.local.apply(b.inner)),
                      a.local.compose(b.local))


def aut_serialize(a: AutElement) -> dict:
    isos = []
    for phi in a.local.isos:
        if phi.mapping is None:
            isos.append({"sign": phi.sign})
        else:
            isos.append({"mapping": list(phi.mapping)})
    return {"schema": "cyclewall/1",
            "inner": format_word(a.inner),
            "sigma": list(a.local.sigma.perm),
            "isos": isos}


# -- action on complex cells ------------------------------------------------------


def _image_pair_base(sigma: CycleSymmetry, i: int) -> int:
    """Base index j with {j, j+1} the image of the consecutive pair {i, i+1}."""
    n = sigma.presentation.n
    a, b = sigma(i), sigma((i + 1) % n)
    return a if (a + 1) % n == b else b


def aut_act_vertex(a: AutElement, v: tuple[int, GroupElement]) -> tuple[int, GroupElement]:
    """The image of the X-vertex v = (i, g), the coset g(G_i x G_{i+1}), as
    the same kind of pair.  The local part maps it to lam(g)(G_j x G_{j+1}),
    {j, j+1} = sigma({i, i+1}), and the inner part then acts as translation
    (``davis.act_vertex``)."""
    i, g = v
    return act_vertex(a.inner, (_image_pair_base(a.local.sigma, i), a.local.apply(g)))


def loc_stabilizes_P_audit(p: Presentation, sample: Sequence[LocalAut],
                           seed: int = 0) -> Report:
    """Pure-local elements fix the base polygon setwise; sampled non-trivial
    inner elements move it."""
    report = Report()
    corners = {(i, identity(p)) for i in range(p.n)}

    bad = []
    for lam in sample:
        a = local_aut(lam)
        image = {aut_act_vertex(a, v) for v in corners}
        if image != corners:
            bad.append(aut_serialize(a))
    report.add("aut.local-fixes-base-polygon", f"sample={len(sample)}",
               not bad, bad[:3] or None)

    rng = random.Random(seed)
    ball = [g for g in enumerate_ball_elements(p, 2) if not g.is_identity]
    ident = identity_local_aut(p)
    moved_count = 0
    fixed = []
    for _ in range(min(30, len(ball))):
        g = rng.choice(ball)
        a = AutElement(g, ident)
        image = {aut_act_vertex(a, v) for v in corners}
        if image != corners:
            moved_count += 1
        else:
            fixed.append(format_word(g))
    report.add("aut.nontrivial-inner-moves-base-polygon",
               f"sampled={moved_count + len(fixed)}", not fixed, fixed or None)
    return report


# -- decomposition ------------------------------------------------------------------


def generator_values(p: Presentation, i: int) -> range:
    """The fixed generating list of a vertex group: all non-identity elements."""
    return p.group(i).nontrivial_elements()


def generator_images(a: AutElement) -> list[list[GroupElement]]:
    """a(x) = inner·local(x)·inner^-1 for every generator x.  The local part sends the
    generators of vertex i to syllables at j = sigma(i), as an isomorphism
    sends no non-identity value to the identity.  Each row is written out
    without multiplying words: with ``(u, t) = star_split(inner, j)``, the
    canonical word of inner·(j, y)·inner^-1 is u's word, the syllable
    (j, t·y·t^-1), then u^-1's word (Green's normal form; see
    :func:`aut_decompose`).  Each distinct strip u is inverted once."""
    p, lam, g = a.presentation, a.local, a.inner
    tails = {}   # strip word -> the word of its inverse
    rows = []
    for i in range(p.n):
        j = lam.sigma(i)
        u, t = star_split(g, j)
        head = u.word
        tail = tails.get(head)
        if tail is None:
            tail = tails[head] = inv(u).word
        values = map(lam.isos[i].apply, generator_values(p, i))
        if t != IDENTITY:
            G = p.groups[j]
            ti = G.inv(t)
            values = [G.mul(G.mul(t, y), ti) for y in values]
        rows.append([GroupElement(p, (*head, Syllable(j, y), *tail)) for y in values])
    return rows


def coset_intersection(c1: GroupElement, S1: frozenset[int],
                       c2: GroupElement, S2: frozenset[int]):
    """Intersect c1<G_S1> with c2<G_S2>: (rep, S1 & S2) or None if empty.

    They meet iff c2^-1·c1 = lam·rho with lam in <G_S2> and rho in <G_S1>.
    Then r = coset_rep(c2^-1·c1, S1), the minimal rep of lam<G_S1>, is lam's
    word with syllables stripped (Green, *Graph products of groups*, 1990),
    so supp(r) lies in S2; and if it does, they meet in c2·r<G_{S1 & S2}>.
    c2^-1·c1 is computed as the inverse of c1^-1·c2, which is short when
    the cosets are close.
    """
    r = coset_rep(inv(mul(inv(c1), c2)), S1)
    if not r.support() <= S2:
        return None
    return coset_rep(mul(c2, r), S1 & S2), S1 & S2


def aut_decompose(p: Presentation, images: Sequence[Sequence[GroupElement]]) -> AutElement:
    """Recover the normal form (inner g, symmetry, per-vertex isomorphisms)
    from the images of every standard generator, or reject with a witness.

    Each image must be conjugate to a single syllable; the syllable vertices
    determine the symmetry, the conjugators constrain g to one coset of a
    three-vertex parabolic per vertex, and those cosets meet in g alone,
    the longest conjugator (see below), or nowhere.

    The images are read through one lemma (Green's normal form, *Graph
    products of groups*, 1990).  Let s = (v, y) be a syllable and g an
    element, let u = coset_rep(g, star(v)) with star(v) = {v-1, v, v+1},
    and let t be the value of the v-syllable that this strip removes (the
    identity if none).  Then the canonical word of g·s·g^-1 is u's word,
    the syllable (v, t·y·t^-1), then u^-1's word.  Proof: g = u·t·r with r
    in the free product of G_{v-1} and G_{v+1}, which commutes with G_v, so
    g·s·g^-1 = u·(v, t·y·t^-1)·u^-1.  Every syllable of u lies below the
    middle syllable in the dependence order: those that do not would form
    an upper set of u, and a maximal element of it would be maximal in u
    and, commuting with the middle, lie in star(v), so the strip would have
    removed it.  Likewise every syllable of u^-1 lies above the middle.  So
    no two syllables of the word merge (one of u and one of u^-1 have the
    middle between them), and its least linear extension is u's, then the
    middle, then u^-1's.

    So the first image at vertex i is read by ``split_conjugate``, which
    gives its core, at a vertex v, and the conjugator c_i = u without
    reducing it; an image of any other shape is not conjugate to a
    syllable.  c_i is the minimal rep modulo star(v): a syllable it could
    shed at v would merge with the middle syllable, and one at v-1 or v+1
    would meet its inverse in c_i^-1 across it, so h's word would not be
    reduced.  So by the lemma m = c_i^-1·h·c_i, for a later image h, is a
    syllable at v iff h's word is c_i's, one syllable, then c_i^-1's, and m
    is that middle syllable; given (c_i, c_i^-1), ``split_conjugate``
    returns c_i itself exactly then, and otherwise reads h alone.  If m is
    a syllable at another vertex w, all one-syllable conjugates of h lie at
    w (the retraction onto G_w sends h to a conjugate of a non-identity
    element, every other one sends it to 1), so the split's core is at w.
    So a split of None or a core off v is rejected at once, as when every
    image is cyclically reduced, and a core at v off the template means m
    is no syllable.

    The conjugators pin the inner part g outright.  A reduced word has at
    most two maximal syllables, of adjacent vertices M within {k, k+1}, and
    ``coset_rep(g, S)`` is g itself iff no maximal syllable of g has its
    vertex in S.  If the constraints are consistent, each c_i is
    ``coset_rep(g, star(sigma(i)))``.  At most four stars {j-1, j, j+1}
    meet M (j = k-1 ... k+2), so for n >= 5 some sigma(i) has c_i = g, and
    every other c_i, a proper strip of g, is shorter: g is the first
    longest conjugator.  That choice is tested by one ``star_split`` per
    vertex: if ``star_split(g, sigma(i))``'s part is c_i at every i, g lies
    in every coset c_i<G_star(sigma(i))>, as c_i is minimal there, and the
    cosets meet in one element at most, as the stars of all n >= 5 base
    vertices have no vertex in common.  If one vertex disagrees, the
    constraints are inconsistent, and only then are the cosets intersected
    in vertex order (``coset_intersection``), to name the first vertex
    that fails, with its conjugator as the witness; were none to fail,
    their common element would be g, so that raises ``InvariantError``.

    Once g is pinned, it lies in c_i<G_star(j)> with j = sigma(i), so
    w = c_i^-1·g is t_w times an element of the free product of G_{j-1}
    and G_{j+1}, with t_w the value that ``star_split(g, j)`` strips, and
    g^-1·h·g = w^-1·m·w is the syllable (j, t_w^-1·m·t_w), computed in G_j.
    By the lemma again, the result's image of that generator is the word
    of u_j = ``star_split(g, j)``'s part, the syllable (j, t_w·(t_w^-1·m·
    t_w)·t_w^-1) = m, then u_j^-1's word; h is c_i's word, m, then c_i^-1's.
    As u_j = c_i at every vertex, the result's images are the given ones.

    A conjugator met at an earlier vertex is passed to ``split_conjugate``
    with its inverse, so each distinct conjugator is inverted once.
    """
    p.require_finite()
    n = p.n
    if len(images) != n:
        raise DecompositionError("one image list per vertex is required", None)

    target = [None] * n
    conjugators = [None] * n
    middles = []   # middles[i][k]: images[i][k]'s middle syllable around conjugators[i], or None
    pairs = {}     # conjugator word -> (c, c^-1), for the conjugators read so far
    for i in range(n):
        gens = generator_values(p, i)
        if len(images[i]) != len(gens):
            raise DecompositionError(
                f"vertex {i}: expected {len(gens)} generator images", None)
        pair = None   # (c_i, c_i^-1), once the first image is split
        row = []
        for x, h in zip(gens, images[i]):
            split = split_conjugate(h, pair or pairs.get(h.word[:len(h.word) // 2]))
            if split is None:
                raise DecompositionError(
                    f"image of generator {x} at vertex {i} is not conjugate "
                    "to a syllable", format_word(h))
            core, c, ci = split
            vertex = core.word[0].vertex
            if pair is None:
                target[i], pair = vertex, (c, ci)
                pairs[c.word] = pair
            elif target[i] != vertex:
                raise DecompositionError(
                    f"vertex {i}: generator images land in different vertex "
                    f"groups {target[i]} and {vertex}", format_word(h))
            row.append(core.word[0] if c is pair[0] else None)
        conjugators[i] = pair[0]
        middles.append(row)

    try:
        sigma = CycleSymmetry(p, tuple(target))
    except ValidationError as exc:
        raise DecompositionError(
            f"the induced vertex map is not an admissible cycle symmetry: {exc}",
            list(target)) from None

    # the first longest conjugator is the inner part, if any element is
    g = max(conjugators, key=lambda c: len(c.word))
    splits = [star_split(g, j) for j in sigma.perm]
    if any(u.word != c.word for (u, _), c in zip(splits, conjugators)):
        windows = [window_of(n, MAXIMAL, j) for j in sigma.perm]
        g, S = conjugators[0], windows[0]
        for i in range(1, n):
            hit = coset_intersection(conjugators[i], windows[i], g, S)
            if hit is None:
                raise DecompositionError(
                    "conjugator constraints are inconsistent: no single inner "
                    "element matches all vertices", format_word(conjugators[i]))
            g, S = hit
        raise InvariantError("the conjugators' cosets meet off their longest conjugator",
                             format_word(g))

    isos = []
    for i, (_, tw) in enumerate(splits):
        j = sigma(i)
        src, dst = p.group(i), p.group(j)
        twi = dst.inv(tw)
        mapping = [0] * src.size
        for x, h, m in zip(generator_values(p, i), images[i], middles[i]):
            if m is None:
                raise DecompositionError(
                    f"after removing the inner part, the image of generator "
                    f"{x} at vertex {i} is not a syllable at vertex {j}",
                    format_word(mul(inv(g), h, g)))
            mapping[x] = dst.mul(dst.mul(twi, m.value), tw)
        try:
            isos.append(LocalIso(src, dst, mapping=tuple(mapping)))
        except ValidationError as exc:
            raise DecompositionError(
                f"vertex {i}: generator images do not define an isomorphism: "
                f"{exc}", mapping) from None
    return AutElement(g, LocalAut._checked(sigma, tuple(isos)))


# -- the determining-set witness ------------------------------------------------------


def witness_details(p: Presentation) -> dict:
    """The witness element plus the data of its construction."""
    p.require_finite()
    n = p.n
    det = [determining_set(p.group(i)) for i in range(n)]
    m = max((len(d) for d in det), default=0)
    if m == 0:
        return {"element": identity(p), "degenerate": True, "m": 0}
    padded = []
    for i, d in enumerate(det):
        if not d:
            # vertices whose group has no automorphisms to pin down still
            # take part so the supports interleave; use the first generator
            d = [1]
        while len(d) < m:
            d = d + [d[-1]]   # repeat the last element (arbitrary, recorded)
        padded.append(d)

    word = tuple(Syllable(v, padded[v][j]) for j in range(m) for i in range(n)
                 for v in ((i + 2) % n, i))
    g = reduce_word(p, word)
    rigid = all(
        word[k].vertex != word[k + 1].vertex
        and not p.adjacent(word[k].vertex, word[k + 1].vertex)
        for k in range(len(word) - 1))
    if not rigid:
        raise InvariantError("witness word has adjacent or equal consecutive supports")
    if g.syllable_length != 2 * n * m:
        raise InvariantError("witness word is not reduced verbatim")
    return {"element": g, "degenerate": False, "m": m,
            "vertex_sequence": [s.vertex for s in g.word]}


def loc_fixator(p: Presentation, g: GroupElement) -> Loc:
    """The local automorphisms fixing g, in :func:`enumerate_loc`'s order,
    as an indexed product.

    lam(g)'s word is g's reduced word with each syllable (v, x) sent to
    (sigma(v), phi_v(x)), and that word is still reduced.  Reduced words of
    one element are shuffles of each other (Green, *Graph products of
    groups*, 1990), and a shuffle keeps the order of the syllables at each
    vertex.  So lam fixes g iff two things hold:

    - sigma relabels g's word into a shuffle of it, which depends on sigma
      alone;
    - each phi_v maps the sequence of g's values at v onto the sequence of
      its values at sigma(v), in occurrence order.

    Per symmetry, the second keeps a list of isomorphisms per vertex, and
    the fixator is the product of those lists.  The first holds for every
    element of that product or for none, so applying one element to g
    decides it.
    """
    values = [tuple(s.value for s in g.word if s.vertex == v) for v in range(p.n)]
    choices = []
    for sigma, per_vertex in enumerate_loc(p).choices:
        kept = [[phi for phi in isos
                 if tuple(map(phi.apply, values[i])) == values[sigma(i)]]
                for i, isos in enumerate(per_vertex)]
        if all(kept) and LocalAut(sigma, tuple(k[0] for k in kept)).apply(g) == g:
            choices.append((sigma, kept))
    return Loc(choices)


def witness_fixator_check(p: Presentation, g: GroupElement) -> Report:
    """The local fixator of g (:func:`loc_fixator`) must be the identity
    alone."""
    report = Report()
    fixator = loc_fixator(p, g)
    trivial = len(fixator) == 1 and fixator[0].is_identity
    report.add("aut.witness-fixator-trivial",
               f"g={format_word(g) or 'e'} loc={len(enumerate_loc(p))}", trivial,
               None if trivial else
               [aut_serialize(local_aut(lam)) for lam in fixator[:5]])
    return report
