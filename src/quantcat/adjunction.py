"""Two adjunctions induced by a distributor, and their fixed-point lattices.

The contravariant adjunction pairs presheaves on the source with
copresheaves on the target; its fixed points form the concept lattice in
the polarity sense, and for the identity distributor the MacNeille
completion.  The covariant adjunction pairs presheaves on the source with
presheaves on the target; its fixed points form the concept lattice in the
property-oriented sense.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .completion import _bounds, _canonical_colimits, _complete, is_absent
from .distributor import (
    Copresheaf,
    Presheaf,
    QDistributor,
    _TRANSFORMS,
    _arrow_images,
    _check_weight,
    _family,
    _generated,
    _image,
    _kept_weights,
    _restricted,
    _weight_hom,
    bottom_presheaf,
    enumerate_presheaves,
    identity_distributor,
    infomorphism,
    presheaf_space_bound,
    top_presheaf,
    validate_distributor,
)
from .enriched import (
    QCategory,
    QFunctor,
    objects_isomorphic,
    underlying_preorder,
    validate_functor,
)
from .errors import CategoryMismatch, InternalCheckError, StructureError
from .quantaloid import GirardReport, Quantaloid


def _transform(phi: QDistributor, name: str, w, flips: bool):
    """The image of one weight under the named transform, of the other
    variance when `flips`."""
    t = _TRANSFORMS[name]
    here, there = (phi.dom, phi.cod) if t.end == "source" else (phi.cod, phi.dom)
    _check_weight(w, here, t.weight, f"the {t.end} category")
    image = Presheaf if (t.weight is Presheaf) != flips else Copresheaf
    (vec,) = t.kernel(phi, ((w.type_idx,), (w.weights,)))
    return image(there, w.type_idx, vec)


def isbell_transform(phi: QDistributor, direction: str, w):
    """The contravariant Galois pair of a distributor.

    'up' sends a presheaf on the source to the copresheaf of its upper
    bounds relative to phi; 'down' sends a copresheaf on the target to the
    presheaf of lower bounds.  The pair is adjoint: hom(up(mu), lam) in the
    covariant weight category equals hom(mu, down(lam)) in the
    contravariant one.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return _transform(phi, direction, w, flips=True)


def kan_transform(phi: QDistributor, kind: str, w):
    """The four covariant lifting/extension operators of a distributor.

    'star': presheaf on the target -> presheaf on the source, by
    composition; 'lower': presheaf on the source -> presheaf on the target,
    its right adjoint, by left residuation; 'dag': copresheaf on the source
    -> copresheaf on the target, by composition; 'lower_dag': copresheaf on
    the target -> copresheaf on the source, its left adjoint, by right
    residuation.
    """
    if kind not in ("star", "lower", "dag", "lower_dag"):
        raise ValueError(f"kind must be 'star', 'lower', 'dag' or 'lower_dag', got {kind!r}")
    return _transform(phi, kind, w, flips=False)


# The transforms that take extents (presheaves on the source) to intents
# and back: Isbell intents are copresheaves on the target, Kan intents
# presheaves on the target.
_GALOIS = {"isbell": ("up", "down"), "kan": ("lower", "star")}


def _there_and_back(phi: QDistributor, there: str, back: str, W) -> tuple:
    """The images of a family W under the transform `there` and their
    images under `back`, of W's types: one vector per member each."""
    images = _TRANSFORMS[there].kernel(phi, W)
    return images, _TRANSFORMS[back].kernel(phi, (W[0], images))


class ConceptPair(NamedTuple):
    """A fixed pair of the adjunction of a distributor.

    For the contravariant kind, `extent` is a presheaf on the source and
    `intent` a copresheaf on the target; for the covariant kind both are
    presheaves (source and target respectively).
    """

    extent: Presheaf
    intent: object


class ConceptLattice(QCategory):
    """Fixed pairs of a distributor's adjunction, as a complete category.

    Concepts are sorted by (type, extent weights) and labelled c0, c1, ...;
    the hom between concepts is computed on the extent side and
    cross-checked against the intent side.
    """

    _computed_homs = True

    def __init__(self, source: QDistributor, kind: str, pairs: Sequence[ConceptPair]):
        self.kind = kind
        self.source = source
        self.pairs = tuple(sorted(pairs, key=lambda p: (p.extent.type_idx, p.extent.weights)))
        extents = _family([p.extent for p in self.pairs])
        hom = _weight_hom(source.dom, extents, extents, True)
        intents = _family([p.intent for p in self.pairs])
        if _weight_hom(source.cod, intents, intents, kind == "kan") != hom:
            raise InternalCheckError("extent-side and intent-side homs disagree")
        super().__init__(source.Q, [f"c{i}" for i in range(len(self.pairs))], extents[0], hom)
        self._by_side = tuple(
            {(p[side].type_idx,) + p[side].weights: i for i, p in enumerate(self.pairs)}
            for side in (0, 1)
        )

    def concept(self, i: int) -> ConceptPair:
        return self.pairs[i]

    def _index(self, side: int, type_idx: int, weights: tuple) -> int:
        try:
            return self._by_side[side][(type_idx,) + weights]
        except KeyError:
            raise InternalCheckError(
                f"weight is not the {ConceptPair._fields[side]} of any concept"
            ) from None

    def index_by_extent(self, mu: Presheaf) -> int:
        _check_weight(mu, self.source.dom, Presheaf, "the source category")
        return self._index(0, mu.type_idx, mu.weights)

    def index_by_intent(self, lam) -> int:
        kind = Copresheaf if self.kind == "isbell" else Presheaf
        _check_weight(lam, self.source.cod, kind, "the target category")
        return self._index(1, lam.type_idx, lam.weights)

    def per_type_counts(self) -> dict[str, int]:
        return _type_counts(self.Q, self.pairs)


def _type_counts(Q: Quantaloid, pairs: Sequence[ConceptPair]) -> dict[str, int]:
    """The number of pairs of each type, by type label, in the pairs' (lattice) order."""
    return dict(Counter(Q.objects[p.extent.type_idx] for p in pairs))


def _fixed_points(phi: QDistributor, kind: str, family) -> list:
    """(type, extent, intent) of each member of a family of presheaves on
    phi's source that the adjunction of `kind` fixes, in family order: one
    kernel call there and one back for the whole family."""
    intents, closed = _there_and_back(phi, *_GALOIS[kind], family)
    return [(t, vec, image) for t, vec, image, after in zip(*family, intents, closed)
            if vec == after]


def concept_pairs(
    phi: QDistributor, kind: str, algorithm: str = "generated", cap: int | None = None
) -> list[ConceptPair]:
    """The fixed pairs of the chosen adjunction, in lattice order (by type,
    then extent weights).

    Each candidate extent is closed, and its intent computed, in one pass:
    'brute' keeps the enumerated weights that are fixed, 'generated'
    requires every weight of the closure of the columns to be fixed.
    """
    if kind not in ("isbell", "kan"):
        raise ValueError(f"kind must be 'isbell' or 'kan', got {kind!r}")
    A, B, meet = phi.dom, phi.cod, kind == "isbell"
    if algorithm == "brute":
        family = _kept_weights(A, "contra", cap)[0]
    elif algorithm == "generated":
        family = _generated(A, phi.cols, meet, True)
    else:
        raise ValueError(f"algorithm must be 'brute' or 'generated', got {algorithm!r}")
    fixed = _fixed_points(phi, kind, family)
    if algorithm == "generated" and len(fixed) != len(family[0]):
        raise InternalCheckError("generated weight is not a fixed point")
    intent = Copresheaf if meet else Presheaf
    return [ConceptPair(Presheaf(A, t, vec), intent(B, t, image)) for t, vec, image in fixed]


def concept_provenance(lattice: ConceptLattice, algorithm: str) -> list[str]:
    """How each concept of a lattice was found, in lattice order.

    Under 'brute' every concept is a 'fixed-point-scan'.  A generated
    extent is the 'empty-meet' (isbell) or 'empty-join' (kan) when it is
    the top or bottom weight of its type, else it is named after the first
    column y and arrow g whose image it is, by column, then g's other end s,
    then g (`_arrow_images`): 'cotensor[g]column[y]' or 'tensor[g]column[y]';
    any other extent is a 'meet-of-generators' or 'join-of-generators'.
    """
    if algorithm == "brute":
        return ["fixed-point-scan"] * len(lattice)
    phi, meet = lattice.source, lattice.kind == "isbell"
    A, B, Q = phi.dom, phi.cod, phi.Q
    if meet:
        op, empty, other, bound = "cotensor", "empty-meet", "meet-of-generators", top_presheaf
    else:
        op, empty, other, bound = "tensor", "empty-join", "join-of-generators", bottom_presheaf
    first: dict = {}
    for y, (t, col) in enumerate(zip(*phi.cols)):
        for s, g, vec in _arrow_images(A, t, col, True, meet):
            if (s, vec) not in first:
                hom = (s, t) if meet else (t, s)
                first[(s, vec)] = f"{op}[{Q.homs[hom].labels[g]}]column[{B.labels[y]}]"
    ends = [bound(A, t).weights for t in range(len(Q.objects))]
    keys = [(mu.type_idx, mu.weights) for mu, _ in lattice.pairs]
    return [empty if vec == ends[t] else first.get((t, vec), other) for t, vec in keys]


CROSS_CHECK_LIMIT = 10_000  # largest weight space cross-checked by brute enumeration


def extents_differ(phi: QDistributor, kind: str, pairs: Sequence[ConceptPair]) -> bool | None:
    """Whether a brute fixed-point scan, in any order, finds other extents
    than `pairs`, in lattice order; None, with no scan, when the source's
    weight space (all types together) exceeds CROSS_CHECK_LIMIT."""
    if sum(presheaf_space_bound(phi.dom, t) for t in range(len(phi.Q.objects))) > CROSS_CHECK_LIMIT:
        return None
    family = _kept_weights(phi.dom, "contra", CROSS_CHECK_LIMIT)[0]
    brute = sorted((t, vec) for t, vec, _ in _fixed_points(phi, kind, family))
    return brute != [(p.extent.type_idx, p.extent.weights) for p in pairs]


def concept_lattice(
    phi: QDistributor,
    kind: str,
    algorithm: str = "generated",
    cap: int | None = None,
) -> ConceptLattice:
    """All fixed pairs of the chosen adjunction, as a complete category.

    kind='isbell' uses the contravariant Galois adjunction (polarity-style
    concepts); kind='kan' uses the covariant extension/lifting adjunction
    (property-oriented concepts).  algorithm='brute' filters every weight
    in the capped enumeration; 'generated' closes the distributor columns
    under the operations that fixed points are stable under, which avoids
    enumerating the weight space.
    """
    return ConceptLattice(phi, kind, concept_pairs(phi, kind, algorithm, cap))


def macneille_completion(
    A: QCategory, algorithm: str = "generated", cap: int | None = None
) -> tuple[ConceptLattice, QFunctor]:
    """The two-sided cut completion of a category and its embedding.

    Cuts are the fixed pairs of the identity distributor's contravariant
    adjunction; the embedding sends an object to its represented cut and is
    fully faithful, preserving all sups and infs that already exist.  It is
    a leg of the identity distributor's dense factorization: both legs are
    the embedding, so the factorization's reproduction check is full
    faithfulness.
    """
    ident = identity_distributor(A)
    lattice = concept_lattice(ident, "isbell", algorithm, cap)
    return lattice, dense_factorization(ident, lattice)[1]


# ---------------------------------------------------------------------------
# Duality over a Girard quantaloid
# ---------------------------------------------------------------------------


def _negated(G: GirardReport, mid, W, contra: bool) -> tuple:
    """G.negate of each entry of a family W of presheaves (contra) or
    copresheaves along mid: one left-residual table read per entry."""
    res, d, out = G.quantaloid._residual_tables, G.family, []
    for t, vec in zip(*W):
        ends = [(s, t) if contra else (t, s) for s in mid]  # f : i -> j, not f : j -> i
        out.append(tuple([res[("left", i, j, i)][d[i]][v] for (i, j), v in zip(ends, vec)]))
    return tuple(out)


def negate_presheaf(G: GirardReport, w):
    """Pointwise negation flips the variance of a weight and keeps its
    type: a presheaf becomes a copresheaf and back."""
    _check_weight(w)
    if w.base.Q is not G.quantaloid:
        raise CategoryMismatch("negation lives over a different quantaloid")
    contra = isinstance(w, Presheaf)
    (vec,) = _negated(G, w.base.types, ((w.type_idx,), (w.weights,)), contra)
    return (Copresheaf if contra else Presheaf)(w.base, w.type_idx, vec)


def negate_distributor(G: GirardReport, phi: QDistributor) -> QDistributor:
    """The dual distributor running the other way: (y,x) -> not phi(x,y)."""
    if phi.Q is not G.quantaloid:
        raise CategoryMismatch("negation lives over a different quantaloid")
    return QDistributor(phi.cod, phi.dom, _negated(G, phi.dom.types, phi.cols, True))


def girard_duality_check(G: GirardReport, phi: QDistributor):
    """Verify that the covariant adjunction is the contravariant one of the
    dual distributor, and exhibit the lattice isomorphism.

    Checks, for every presheaf lam on the target: star(lam) equals the
    negation of up_{dual}(lam); and for every presheaf mu on the source:
    lower(mu) equals down_{dual} of the negation of mu, one family call per
    transform.  Then matches each covariant concept (mu, lam) with the
    contravariant concept (lam, not mu) of the dual; the homs agree, as
    both are the weight hom of the lams, which ConceptLattice checked
    against the hom of the mus.  Returns (ok, pairing).
    """
    neg = negate_distributor(G, phi)
    A = phi.dom
    lams = enumerate_presheaves(phi.cod, "contra")
    W = _family(lams)
    via_dual = _negated(G, A.types, (W[0], _TRANSFORMS["up"].kernel(neg, W)), False)
    for lam, star, want in zip(lams, _TRANSFORMS["star"].kernel(phi, W), via_dual):
        if star != want:
            return False, (lam, "star")
    mus = enumerate_presheaves(A, "contra")
    W = _family(mus)
    via_dual = _TRANSFORMS["down"].kernel(neg, (W[0], _negated(G, A.types, W, True)))
    for mu, lower, want in zip(mus, _TRANSFORMS["lower"].kernel(phi, W), via_dual):
        if lower != want:
            return False, (mu, "lower")
    K = concept_lattice(phi, "kan")
    M = concept_lattice(neg, "isbell")
    if len(K) != len(M):
        return False, (len(K), len(M))
    negations = _negated(G, A.types, _family([p.extent for p in K.pairs]), True)
    pairing = []
    for i, ((_, lam), not_mu) in enumerate(zip(K.pairs, negations)):
        j = M._index(0, lam.type_idx, lam.weights)
        if M.concept(j).intent.weights != not_mu:
            return False, (i, j)
        pairing.append((i, j))
    return True, pairing


# ---------------------------------------------------------------------------
# Functoriality of the two lattices in infomorphisms
# ---------------------------------------------------------------------------


def concept_functor_image(
    info,
    kind: str,
    source_lattice: ConceptLattice | None = None,
    target_lattice: ConceptLattice | None = None,
) -> tuple[QFunctor, QFunctor]:
    """The adjoint pair of functors a concept lattice assigns to an
    infomorphism.

    kind='M' (contravariant lattices, covariant assignment): the left
    functor runs source lattice -> target lattice by closing the direct
    image of the extent, the right functor restricts extents backwards.
    kind='K' (covariant lattices, contravariant assignment): the left
    functor runs target lattice -> source lattice by closing the direct
    image of the intent along the backward functor, the right functor
    restricts intents.
    """
    phi, psi, F, Gf = infomorphism(*info)
    if kind not in ("M", "K"):
        raise ValueError(f"kind must be 'M' or 'K', got {kind!r}")
    mode = "isbell" if kind == "M" else "kan"
    if source_lattice is None:
        source_lattice = concept_lattice(phi, mode)
    if target_lattice is None:
        target_lattice = concept_lattice(psi, mode)
    if source_lattice.source != phi or target_lattice.source != psi:
        raise CategoryMismatch("lattices do not belong to the infomorphism")
    if source_lattice.kind != mode or target_lattice.kind != mode:
        raise CategoryMismatch(f"kind {kind!r} needs {mode} lattices")
    # The images run along H from the lattice `low` to the lattice `high`,
    # on extents (pair side 0) for M and on intents (side 1, backwards
    # along G) for K.  All direct images are closed at once on the
    # distributor of `high`: by down after up for M, lower after star for K.
    # infomorphism() has checked that H is a functor, so no image re-checks it.
    if kind == "M":
        H, low, high, side, there, back = F, source_lattice, target_lattice, 0, "up", "down"
    else:
        H, low, high, side, there, back = Gf, target_lattice, source_lattice, 1, "star", "lower"
    images = _family([_image(H, c[side]) for c in low.pairs])
    _, closed = _there_and_back(high.source, there, back, images)
    left_map = [high._index(side, t, vec) for t, vec in zip(images[0], closed)]
    restricted = [_restricted(H, c[side]) for c in high.pairs]
    right_map = [low._index(side, w.type_idx, w.weights) for w in restricted]
    return QFunctor(low, high, left_map), QFunctor(high, low, right_map)


# ---------------------------------------------------------------------------
# Density and the canonical factorization through the concept lattice
# ---------------------------------------------------------------------------


def density_check(F: QFunctor, direction: str):
    """Whether every object of the target is a weighted (co)limit of F.

    direction='sup': tests each x against the canonical weight a -> X(Fa,x);
    an object is a colimit for some weight iff it is for this one.
    direction='inf' dually uses a -> X(x,Fa) and limits.  Returns
    (True, {label: weight}) or (False, [missing labels]).
    """
    if direction not in ("sup", "inf"):
        raise ValueError(f"direction must be 'sup' or 'inf', got {direction!r}")
    X = F.cod
    witnesses = {}
    missing = []
    for x, (w, value) in enumerate(_canonical_colimits(F, F, direction == "sup")):
        if is_absent(value) or not objects_isomorphic(X, value, x):
            missing.append(X.labels[x])
        else:
            witnesses[X.labels[x]] = w
    if missing:
        return False, missing
    return True, witnesses


def dense_factorization(
    phi: QDistributor, lattice: ConceptLattice | None = None
) -> tuple[QFunctor, QFunctor, ConceptLattice]:
    """Factor a distributor through its contravariant concept lattice.

    The source maps in by closing rows, the target by columns; the hom of
    the lattice between the two images recovers the distributor exactly
    (checked), the source leg is colimit-dense and the target leg is
    limit-dense (checkable with density_check).  A matrix that is not a
    distributor raises StructureError with its first violation.
    """
    if report := validate_distributor(phi):
        raise StructureError(report[0])
    if lattice is None:
        lattice = concept_lattice(phi, "isbell")
    elif lattice.source != phi or lattice.kind != "isbell":
        raise CategoryMismatch("lattice does not belong to the distributor")
    A, B = phi.dom, phi.cod
    closed_rows = _TRANSFORMS["down"].kernel(phi, phi.rows)
    F = QFunctor(A, lattice, [lattice._index(0, t, v) for t, v in zip(A.types, closed_rows)])
    Gf = QFunctor(B, lattice, [lattice._index(0, t, col) for t, col in zip(*phi.cols)])
    for rep, name in ((validate_functor(F)[0], "source"), (validate_functor(Gf)[0], "target")):
        if rep:
            raise InternalCheckError(f"{name} leg of the factorization is not a functor")
    if any(lattice.hom_idx[F(a)][Gf(b)] != v for a, row in enumerate(phi.matrix)
           for b, v in enumerate(row)):
        raise InternalCheckError("factorization does not reproduce the distributor")
    return F, Gf, lattice


def state_property_system_check(A: QCategory, B: QCategory, phi: QDistributor):
    """Whether (A, B, phi) relates states to properties in the closed sense.

    Requires B skeletal and complete; every covariant weight's infimum in B
    must evaluate under phi to the weight's lower bound transform, and the
    hom of B must equal the hom of columns in the weight category of A.
    Returns (True, None) or (False, witness).
    """
    if phi.dom is not A or phi.cod is not B:
        raise CategoryMismatch("distributor endpoints do not match")
    _, skeletal = underlying_preorder(B)
    if not skeletal:
        return False, "target category is not skeletal"
    bounds = _bounds(B, None)
    complete, witness = _complete(B, bounds)
    if not complete:
        return False, ("incomplete", witness)
    lams = _family([lam for lam, _ in bounds[1]])
    lows = _TRANSFORMS["down"].kernel(phi, lams)
    for (lam, b), low in zip(bounds[1], lows):
        for x, v in enumerate(low):
            if phi.matrix[x][b] != v:
                return False, ("evaluation", lam, A.labels[x])
    columns_hom = _weight_hom(A, phi.cols, phi.cols, True)
    for y in range(len(B)):
        for yp in range(len(B)):
            if B.hom_idx[y][yp] != columns_hom[y][yp]:
                return False, ("hom", B.labels[y], B.labels[yp])
    return True, None
