"""Two adjunctions induced by a distributor, and their fixed-point lattices.

The contravariant adjunction pairs presheaves on the source with
copresheaves on the target; its fixed points form the concept lattice in
the polarity sense, and for the identity distributor the MacNeille
completion.  The covariant adjunction pairs presheaves on the source with
presheaves on the target; its fixed points form the concept lattice in the
property-oriented sense.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

from .completion import (
    _arrow_images,
    _bounds,
    _canonical_colimits,
    _complete,
    _saturate,
    is_absent,
)
from .distributor import (
    Copresheaf,
    Presheaf,
    QDistributor,
    _columns,
    _compose,
    _copresheaves,
    _mat,
    _presheaves,
    _residuate,
    _stack,
    _weight_hom,
    bottom_presheaf,
    direct_image,
    enumerate_presheaves,
    infomorphism,
    inverse_image,
    top_presheaf,
)
from .enriched import (
    QCategory,
    QFunctor,
    objects_isomorphic,
    underlying_preorder,
    validate_functor,
)
from .errors import CategoryMismatch, InternalCheckError
from .quantaloid import GirardReport


def isbell_transform(phi: QDistributor, direction: str, w):
    """The contravariant Galois pair of a distributor.

    'up' sends a presheaf on the source to the copresheaf of its upper
    bounds relative to phi; 'down' sends a copresheaf on the target to the
    presheaf of lower bounds.  The pair is adjoint: hom(up(mu), lam) in the
    covariant weight category equals hom(mu, down(lam)) in the
    contravariant one.
    """
    Q = phi.Q
    A, B = phi.dom, phi.cod
    if direction == "up":
        if not isinstance(w, Presheaf) or w.base is not A:
            raise CategoryMismatch("'up' needs a presheaf on the source category")
        return _copresheaves(B, _residuate(Q, "left", _mat(phi), _mat(w)))[0]
    if direction == "down":
        if not isinstance(w, Copresheaf) or w.base is not B:
            raise CategoryMismatch("'down' needs a copresheaf on the target category")
        return _presheaves(A, _residuate(Q, "right", _mat(w), _mat(phi)))[0]
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def kan_transform(phi: QDistributor, kind: str, w):
    """The four covariant lifting/extension operators of a distributor.

    'star': presheaf on the target -> presheaf on the source, by
    composition; 'lower': presheaf on the source -> presheaf on the target,
    its right adjoint, by left residuation; 'dag': copresheaf on the source
    -> copresheaf on the target, by composition; 'lower_dag': copresheaf on
    the target -> copresheaf on the source, its left adjoint, by right
    residuation.
    """
    Q = phi.Q
    A, B = phi.dom, phi.cod
    if kind == "star":
        if not isinstance(w, Presheaf) or w.base is not B:
            raise CategoryMismatch("'star' needs a presheaf on the target category")
        return _presheaves(A, _compose(Q, _mat(w), _mat(phi)))[0]
    if kind == "lower":
        if not isinstance(w, Presheaf) or w.base is not A:
            raise CategoryMismatch("'lower' needs a presheaf on the source category")
        return _presheaves(B, _residuate(Q, "left", _mat(w), _mat(phi)))[0]
    if kind == "dag":
        if not isinstance(w, Copresheaf) or w.base is not A:
            raise CategoryMismatch("'dag' needs a copresheaf on the source category")
        return _copresheaves(B, _compose(Q, _mat(phi), _mat(w)))[0]
    if kind == "lower_dag":
        if not isinstance(w, Copresheaf) or w.base is not B:
            raise CategoryMismatch("'lower_dag' needs a copresheaf on the target category")
        return _copresheaves(A, _residuate(Q, "right", _mat(phi), _mat(w)))[0]
    raise ValueError(
        f"kind must be 'star', 'lower', 'dag' or 'lower_dag', got {kind!r}"
    )


def _galois(phi: QDistributor, kind: str, extents):
    """The intents of a matrix of extents (one presheaf on the source per
    column) and the closures of those extents.

    Isbell intents are the rows of up (copresheaves on the target); Kan
    intents are the columns of lower (presheaves on the target).
    """
    Q, D = phi.Q, _mat(phi)
    if kind == "isbell":
        intents = _residuate(Q, "left", D, extents)
        return intents, _residuate(Q, "right", intents, D)
    intents = _residuate(Q, "left", extents, D)
    return intents, _compose(Q, intents, D)


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

    def __init__(
        self,
        source: QDistributor,
        kind: str,
        pairs: Sequence[ConceptPair],
        provenance: Sequence[str],
    ):
        order = sorted(
            range(len(pairs)),
            key=lambda i: (pairs[i].extent.type_idx, pairs[i].extent.weights),
        )
        self.kind = kind
        self.source = source
        self.pairs = tuple(pairs[i] for i in order)
        self.provenance = tuple(provenance[i] for i in order)
        extents = [p.extent for p in self.pairs]
        hom = _weight_hom(source.dom, extents, extents)
        intents = [p.intent for p in self.pairs]
        if _weight_hom(source.cod, intents, intents) != hom:
            raise InternalCheckError("extent-side and intent-side homs disagree")
        super().__init__(
            source.Q,
            [f"c{i}" for i in range(len(self.pairs))],
            [p.extent.type_idx for p in self.pairs],
            hom,
        )
        self._by_side = tuple(
            {(p[side].type_idx,) + p[side].weights: i for i, p in enumerate(self.pairs)}
            for side in (0, 1)
        )

    def concept(self, i: int) -> ConceptPair:
        return self.pairs[i]

    def _index(self, side: int, w) -> int:
        try:
            return self._by_side[side][(w.type_idx,) + w.weights]
        except KeyError:
            raise InternalCheckError(
                f"weight is not the {ConceptPair._fields[side]} of any concept"
            ) from None

    def index_by_extent(self, mu: Presheaf) -> int:
        return self._index(0, mu)

    def index_by_intent(self, lam) -> int:
        return self._index(1, lam)

    def per_type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for p in self.pairs:
            label = self.Q.objects[p.extent.type_idx]
            counts[label] = counts.get(label, 0) + 1
        return counts


def concept_pairs(
    phi: QDistributor, kind: str, algorithm: str = "generated", cap: int | None = None
) -> tuple[list[ConceptPair], list[str]]:
    """The fixed pairs of the chosen adjunction and a provenance per pair.

    Each candidate extent is closed, and its intent computed, in one pass:
    'brute' keeps the enumerated weights that are fixed, 'generated'
    requires every weight of the closure of the columns to be fixed.
    """
    if kind not in ("isbell", "kan"):
        raise ValueError(f"kind must be 'isbell' or 'kan', got {kind!r}")
    A, B, Q = phi.dom, phi.cod, phi.Q
    meet = kind == "isbell"
    if algorithm == "brute":
        candidates = enumerate_presheaves(A, "contra", cap)
        names = repeat("fixed-point-scan")
    elif algorithm == "generated":
        images = [_arrow_images(col, meet) for col in _presheaves(A, _mat(phi))]
        candidates = _saturate(A, [w for col in images for _, w in col], meet)
        if meet:
            op, empty, other, extreme = "cotensor", "empty-meet", "meet-of-generators", top_presheaf
        else:
            op, empty, other, extreme = "tensor", "empty-join", "join-of-generators", bottom_presheaf
        # Each extent is named after the first (column, arrow) that yields it.
        first: dict = {}
        for y, col in enumerate(images):
            for g, w in col:
                first.setdefault(w, f"{op}[{Q.arrow_label(g)}]column[{B.labels[y]}]")
        names = [
            empty if mu == extreme(A, mu.type_idx) else first.get(mu, other)
            for mu in candidates
        ]
    else:
        raise ValueError(f"algorithm must be 'brute' or 'generated', got {algorithm!r}")
    extents = _stack(A, candidates)
    intents, closed = _galois(phi, kind, extents)
    # Isbell intents are the rows of `intents`, Kan intents its columns;
    # only those of fixed extents are read, and each has its extent's type.
    intent = Copresheaf if meet else Presheaf
    pairs, provenance = [], []
    for c, (mu, name, before, after) in enumerate(
        zip(candidates, names, _columns(extents), _columns(closed))
    ):
        if before == after:
            vec = intents.m[c] if meet else tuple(map(itemgetter(c), intents.m))
            pairs.append(ConceptPair(mu, intent(B, mu.type_idx, vec)))
            provenance.append(name)
        elif algorithm == "generated":
            raise InternalCheckError("generated weight is not a fixed point")
    return pairs, provenance


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
    return ConceptLattice(phi, kind, *concept_pairs(phi, kind, algorithm, cap))


def macneille_completion(
    A: QCategory, algorithm: str = "generated", cap: int | None = None
) -> tuple[ConceptLattice, QFunctor]:
    """The two-sided cut completion of a category and its embedding.

    Cuts are the fixed pairs of the identity distributor's contravariant
    adjunction; the embedding sends an object to its represented cut and is
    fully faithful, preserving all sups and infs that already exist.
    """
    from .distributor import identity_distributor, yoneda_weight

    ident = identity_distributor(A)
    lattice = concept_lattice(ident, "isbell", algorithm, cap)
    mapping = [lattice.index_by_extent(yoneda_weight(A, x)) for x in range(len(A))]
    embedding = QFunctor(A, lattice, mapping)
    report, fully_faithful = validate_functor(embedding)
    if report or not fully_faithful:
        raise InternalCheckError("cut embedding is not fully faithful")
    return lattice, embedding


# ---------------------------------------------------------------------------
# Duality over a Girard quantaloid
# ---------------------------------------------------------------------------


def _negate_weight(G: GirardReport, w):
    """Pointwise negation flips the variance of a weight and keeps its
    type: a presheaf becomes a copresheaf and back."""
    if w.base.Q is not G.quantaloid:
        raise CategoryMismatch("negation lives over a different quantaloid")
    flipped = Copresheaf if isinstance(w, Presheaf) else Presheaf
    return flipped(
        w.base, w.type_idx, tuple(G.negate(w.arrow(x)).idx for x in range(len(w.base)))
    )


negate_presheaf = negate_copresheaf = _negate_weight


def negate_distributor(G: GirardReport, phi: QDistributor) -> QDistributor:
    """The dual distributor running the other way: (y,x) -> not phi(x,y)."""
    columns = _presheaves(phi.dom, _mat(phi))
    return QDistributor(phi.cod, phi.dom, [_negate_weight(G, c).weights for c in columns])


def girard_duality_check(G: GirardReport, phi: QDistributor):
    """Verify that the covariant adjunction is the contravariant one of the
    dual distributor, and exhibit the lattice isomorphism.

    Checks, for every presheaf lam on the target: star(lam) equals the
    negation of up_{dual}(lam); and for every presheaf mu on the source:
    lower(mu) equals down_{dual} of the negation of mu.  Then matches each
    covariant concept (mu, lam) with the contravariant concept (lam, not mu)
    of the dual and compares homs.  Returns (ok, pairing).
    """
    neg = negate_distributor(G, phi)
    for lam in enumerate_presheaves(phi.cod, "contra"):
        via_dual = negate_copresheaf(G, isbell_transform(neg, "up", lam))
        if kan_transform(phi, "star", lam) != via_dual:
            return False, (lam, "star")
    for mu in enumerate_presheaves(phi.dom, "contra"):
        via_dual = isbell_transform(neg, "down", negate_presheaf(G, mu))
        if kan_transform(phi, "lower", mu) != via_dual:
            return False, (mu, "lower")
    K = concept_lattice(phi, "kan")
    M = concept_lattice(neg, "isbell")
    if len(K) != len(M):
        return False, (len(K), len(M))
    pairing = []
    for i in range(len(K)):
        mu, lam = K.concept(i)
        j = M.index_by_extent(lam)
        if M.concept(j).intent != negate_presheaf(G, mu):
            return False, (i, j)
        pairing.append((i, j))
    for i, j in pairing:
        for k, l in pairing:
            if K.hom_idx[i][k] != M.hom_idx[j][l]:
                return False, ((i, k), (j, l))
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
    # along G) for K.
    if kind == "M":
        H, low, high, side = F, source_lattice, target_lattice, 0

        def close(w):
            return isbell_transform(psi, "down", isbell_transform(psi, "up", w))

    else:
        H, low, high, side = Gf, target_lattice, source_lattice, 1

        def close(w):
            return kan_transform(phi, "lower", kan_transform(phi, "star", w))

    index = (ConceptLattice.index_by_extent, ConceptLattice.index_by_intent)[side]
    left_map = [index(high, close(direct_image(H, c[side]))) for c in low.pairs]
    right_map = [index(low, inverse_image(H, c[side])) for c in high.pairs]
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
    limit-dense (checkable with density_check).
    """
    if lattice is None:
        lattice = concept_lattice(phi, "isbell")
    elif lattice.source != phi or lattice.kind != "isbell":
        raise CategoryMismatch("lattice does not belong to the distributor")
    A, B = phi.dom, phi.cod
    F = QFunctor(
        A,
        lattice,
        [
            lattice.index_by_extent(isbell_transform(phi, "down", row))
            for row in _copresheaves(B, _mat(phi))
        ],
    )
    Gf = QFunctor(
        B, lattice, [lattice.index_by_extent(col) for col in _presheaves(A, _mat(phi))]
    )
    for rep, name in ((validate_functor(F)[0], "source"), (validate_functor(Gf)[0], "target")):
        if rep:
            raise InternalCheckError(f"{name} leg of the factorization is not a functor")
    for a in range(len(A)):
        for b in range(len(B)):
            if lattice.hom_idx[F(a)][Gf(b)] != phi.matrix[a][b]:
                raise InternalCheckError(
                    "factorization does not reproduce the distributor"
                )
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
    for lam, b in bounds[1]:
        low = isbell_transform(phi, "down", lam)
        for x in range(len(A)):
            if phi.matrix[x][b] != low.weights[x]:
                return False, ("evaluation", lam, A.labels[x])
    columns = _presheaves(A, _mat(phi))
    columns_hom = _weight_hom(A, columns, columns)
    for y in range(len(B)):
        for yp in range(len(B)):
            if B.hom_idx[y][yp] != columns_hom[y][yp]:
                return False, ("hom", B.labels[y], B.labels[yp])
    return True, None
