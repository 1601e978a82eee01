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
from dataclasses import dataclass

from .algebraic import MAXIMAL, window_of
from .davis import EDGE, POLY, ComplexVertex, act_vertex
from .errors import DecompositionError, InvariantError, ValidationError
from .localgroups import (
    LocalIso,
    determining_set,
    identity_iso,
    isomorphisms,
)
from .reports import Report
from .words import (
    GroupElement,
    Presentation,
    Syllable,
    coset_rep,
    cyclic_reduce,
    enumerate_ball_elements,
    format_word,
    identity,
    inv,
    mul,
    reduce_word,
)


# -- cycle symmetries -----------------------------------------------------------


@dataclass(frozen=True)
class CycleSymmetry:
    """A dihedral symmetry of the cycle preserving group isomorphism classes."""

    presentation: Presentation
    perm: tuple[int, ...]

    def __post_init__(self):
        p = self.presentation
        n = p.n
        if sorted(self.perm) != list(range(n)):
            raise ValidationError("not a permutation of the cycle's vertices")
        step = (self.perm[1] - self.perm[0]) % n
        if step not in (1, n - 1) or any(
                (self.perm[(i + 1) % n] - self.perm[i]) % n != step
                for i in range(n)):
            raise ValidationError("not a rotation or reflection of the cycle")
        for i in range(n):
            if not _iso_exists(p.group(i), p.group(self.perm[i])):
                raise ValidationError(
                    f"vertex groups {i} and {self.perm[i]} are not isomorphic")

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


@dataclass(frozen=True)
class LocalAut:
    """A cycle symmetry with one vertex-group isomorphism per vertex."""

    sigma: CycleSymmetry
    isos: tuple[LocalIso, ...]

    def __post_init__(self):
        groups, perm = self.presentation.groups, self.sigma.perm
        if len(self.isos) != len(groups):
            raise ValidationError("one isomorphism per vertex is required")
        for i, phi in enumerate(self.isos):
            # tuples compare their items by identity first
            if (phi.source, phi.target) != (groups[i], groups[perm[i]]):
                raise ValidationError(
                    f"isomorphism at vertex {i} does not follow the symmetry")

    @property
    def presentation(self) -> Presentation:
        return self.sigma.presentation

    @property
    def is_identity(self) -> bool:
        return self.sigma.is_identity and all(phi.is_identity for phi in self.isos)

    def apply_syllable(self, s: Syllable) -> Syllable:
        return Syllable(self.sigma(s.vertex), self.isos[s.vertex].apply(s.value))

    def apply(self, g: GroupElement) -> GroupElement:
        return reduce_word(self.presentation,
                           (self.apply_syllable(s) for s in g.word))

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
    fastest."""

    def __init__(self, choices):
        self.choices = choices
        self._ends = list(itertools.accumulate(
            math.prod(map(len, per_vertex)) for _, per_vertex in choices))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        if not -len(self) <= k < len(self):
            raise IndexError("local group index out of range")
        k %= len(self)
        j = bisect.bisect_right(self._ends, k)
        if j:
            k -= self._ends[j - 1]
        sigma, per_vertex = self.choices[j]
        isos = []
        for options in reversed(per_vertex):
            k, r = divmod(k, len(options))
            isos.append(options[r])
        return LocalAut(sigma, tuple(reversed(isos)))


def enumerate_loc(p: Presentation) -> Loc:
    """The whole local group as an indexed product, in
    :func:`enumerate_symmetries`' order."""
    return Loc([(sigma, [isomorphisms(p.group(i), p.group(sigma(i)))
                         for i in range(p.n)])
                for sigma in enumerate_symmetries(p)])


# -- automorphisms in normal form ----------------------------------------------------


@dataclass(frozen=True)
class AutElement:
    """Conjugation by ``inner`` composed after the local automorphism."""

    inner: GroupElement
    local: LocalAut

    def __post_init__(self):
        if self.inner.presentation != self.local.presentation:
            raise ValidationError("inner and local parts disagree on the presentation")

    @property
    def presentation(self) -> Presentation:
        return self.inner.presentation

    @property
    def is_identity(self) -> bool:
        return self.inner.is_identity and self.local.is_identity


def aut_identity(p: Presentation) -> AutElement:
    return AutElement(identity(p), identity_local_aut(p))


def inner_aut(g: GroupElement) -> AutElement:
    return AutElement(g, identity_local_aut(g.presentation))


def local_aut(lam: LocalAut) -> AutElement:
    return AutElement(identity(lam.presentation), lam)


def aut_apply(a: AutElement, x: GroupElement) -> GroupElement:
    moved = a.local.apply(x)
    return mul(mul(a.inner, moved), inv(a.inner))


def aut_compose(a: AutElement, b: AutElement) -> AutElement:
    return AutElement(mul(a.inner, a.local.apply(b.inner)),
                      a.local.compose(b.local))


def aut_inverse(a: AutElement) -> AutElement:
    lam = a.local.inverse()
    return AutElement(lam.apply(inv(a.inner)), lam)


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


def aut_act_vertex(a: AutElement, v: ComplexVertex) -> ComplexVertex:
    """The local part maps the coset g<G_S> to lam(g)<G_sigma(S)>, and the
    inner part then acts as translation (``davis.act_vertex``)."""
    sigma, j = a.local.sigma, v.index   # None for a trivial coset
    if v.cls == EDGE:
        j = sigma(j)
    elif v.cls == POLY:
        j = _image_pair_base(sigma, j)
    return act_vertex(a.inner, ComplexVertex(v.cls, j, a.local.apply(v.rep)))


def loc_stabilizes_P_audit(p: Presentation, sample: Sequence[LocalAut],
                           seed: int = 0) -> Report:
    """Pure-local elements fix the base polygon setwise; sampled non-trivial
    inner elements move it."""
    report = Report()
    corners = {ComplexVertex(POLY, i, identity(p)) for i in range(p.n)}

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
    moved_count = 0
    fixed = []
    for _ in range(min(30, len(ball))):
        g = rng.choice(ball)
        a = inner_aut(g)
        image = {aut_act_vertex(a, v) for v in corners}
        if image != corners:
            moved_count += 1
        else:
            fixed.append(format_word(g))
    report.add("aut.nontrivial-inner-moves-base-polygon",
               f"sampled={moved_count + len(fixed)}", not fixed, fixed or None)
    return report


# -- decomposition ------------------------------------------------------------------


def generator_values(p: Presentation, i: int) -> list[int]:
    """The fixed generating list of a vertex group: all non-identity elements."""
    return list(p.group(i).nontrivial_elements())


def generator_images(a: AutElement) -> list[list[GroupElement]]:
    """``aut_apply(a, x)`` for every generator x, inverting a's inner part once."""
    p = a.presentation
    g, gi = a.inner, inv(a.inner)
    return [[mul(mul(g, a.local.apply(GroupElement(p, (Syllable(i, x),)))), gi)
             for x in generator_values(p, i)]
            for i in range(p.n)]


def coset_intersection(c1: GroupElement, S1: frozenset[int],
                       c2: GroupElement, S2: frozenset[int]):
    """Intersect c1<G_S1> with c2<G_S2>: (rep, S1 & S2) or None if empty.

    They meet iff c2^-1·c1 = lam·rho with lam in <G_S2> and rho in <G_S1>.
    Then r = coset_rep(c2^-1·c1, S1), the minimal rep of lam<G_S1>, is lam's
    word with syllables stripped (Green, *Graph products of groups*, 1990),
    so supp(r) lies in S2; and if it does, they meet in c2·r<G_{S1 & S2}>.
    """
    r = coset_rep(mul(inv(c2), c1), S1)
    if not r.support() <= S2:
        return None
    return coset_rep(mul(c2, r), S1 & S2), S1 & S2


def aut_decompose(p: Presentation, images: Sequence[Sequence[GroupElement]]) -> AutElement:
    """Recover the normal form (inner g, symmetry, per-vertex isomorphisms)
    from the images of every standard generator, or reject with a witness.

    Each image must be conjugate to a single syllable; the syllable vertices
    determine the symmetry, the conjugators constrain g to one coset of a
    three-vertex parabolic per vertex, and intersecting those cosets pins g
    down uniquely, as the maximal windows of all n >= 5 base vertices have no
    vertex in common.  The result is verified against all images before
    return, by comparing them with its own ``generator_images``.

    Only the first image at each vertex i is cyclically reduced, which gives
    the conjugator c_i.  Each later image h is read through it: when
    m = c_i^-1·h·c_i is one syllable, m is its core, and only otherwise is h
    cyclically reduced.  This rejects exactly what reducing every image
    does, with the same message and witness: all one-syllable conjugates of
    h lie at one vertex v, since the retraction onto G_v sends h to a
    conjugate of a non-identity element and every other vertex retraction
    sends it to 1.  Once g is pinned, g^-1·h·g = w^-1·m·w with
    w = c_i^-1·g, a short word in the window around sigma(i).
    """
    p.require_finite()
    n = p.n
    if len(images) != n:
        raise DecompositionError("one image list per vertex is required", None)

    target = [None] * n
    conjugators = [None] * n
    inverses = [None] * n   # conjugators[i]^-1
    conjugated = []   # conjugated[i][k] = conjugators[i]^-1 · images[i][k] · conjugators[i]
    for i in range(n):
        gens = generator_values(p, i)
        if len(images[i]) != len(gens):
            raise DecompositionError(
                f"vertex {i}: expected {len(gens)} generator images", None)
        row = []
        for x, h in zip(gens, images[i]):
            if row:
                m = mul(mul(inverses[i], h), conjugators[i])
                core = m if m.syllable_length == 1 else cyclic_reduce(h)[0]
            else:
                m, conjugators[i] = cyclic_reduce(h)
                inverses[i] = inv(conjugators[i])
                core = m
            if core.syllable_length != 1:
                raise DecompositionError(
                    f"image of generator {x} at vertex {i} is not conjugate "
                    "to a syllable", format_word(h))
            vertex = core.word[0].vertex
            if target[i] is None:
                target[i] = vertex
            elif target[i] != vertex:
                raise DecompositionError(
                    f"vertex {i}: generator images land in different vertex "
                    f"groups {target[i]} and {vertex}", format_word(h))
            row.append(m)
        conjugated.append(row)

    try:
        sigma = CycleSymmetry(p, tuple(target))
    except ValidationError as exc:
        raise DecompositionError(
            f"the induced vertex map is not an admissible cycle symmetry: {exc}",
            list(target)) from None

    # g lies in conj_i * <maximal window around sigma(i)> for every i; intersect
    windows = [window_of(n, MAXIMAL, sigma(i)) for i in range(n)]
    g, S = conjugators[0], windows[0]
    for i in range(1, n):
        hit = coset_intersection(conjugators[i], windows[i], g, S)
        if hit is None:
            raise DecompositionError(
                "conjugator constraints are inconsistent: no single inner "
                "element matches all vertices", format_word(conjugators[i]))
        g, S = hit

    isos = []
    for i in range(n):
        j = sigma(i)
        src, dst = p.group(i), p.group(j)
        w = mul(inverses[i], g)
        wi = inv(w)
        mapping = [0] * src.size
        for x, m in zip(generator_values(p, i), conjugated[i]):
            moved = mul(mul(wi, m), w)
            if moved.syllable_length != 1 or moved.word[0].vertex != j:
                raise DecompositionError(
                    f"after removing the inner part, the image of generator "
                    f"{x} at vertex {i} is not a syllable at vertex {j}",
                    format_word(moved))
            mapping[x] = moved.word[0].value
        try:
            isos.append(LocalIso(src, dst, mapping=tuple(mapping)))
        except ValidationError as exc:
            raise DecompositionError(
                f"vertex {i}: generator images do not define an isomorphism: "
                f"{exc}", mapping) from None

    a = AutElement(g, LocalAut(sigma, tuple(isos)))
    for i, row in enumerate(generator_images(a)):
        for x, h, got in zip(generator_values(p, i), images[i], row):
            if got != h:
                raise DecompositionError(
                    f"reconstructed automorphism disagrees with the image of "
                    f"generator {x} at vertex {i}",
                    {"expected": format_word(h), "got": format_word(got)})
    return a


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


def acyl_witness(p: Presentation) -> GroupElement:
    return witness_details(p)["element"]


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
