"""Weighted (co)limits, completeness checks, and closure operators."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .distributor import (
    Copresheaf,
    Presheaf,
    PresheafCategory,
    QDistributor,
    _TRANSFORMS,
    _arrow_images,
    _check_weight,
    _evaluation,
    _family,
    _generated,
    _images_at,
    enumerate_presheaves,
    graph_cograph,
    identity_distributor,
    image_functor,
    presheaf_meet,
    top_presheaf,
    validate_presheaf,
)
from .enriched import (
    FullSubcategory,
    QCategory,
    QFunctor,
    _check_object,
    objects_isomorphic,
    underlying_leq,
    validate_functor,
)
from .errors import (
    CategoryMismatch,
    InternalCheckError,
    ObjectMismatch,
    StructureError,
)
from .quantaloid import Arrow, _check_arrow, _check_type


class Absent:
    """Returned when a universal object does not exist; falsy."""

    __slots__ = ("witness",)

    def __init__(self, witness=None):
        self.witness = witness

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        if self.witness is None:
            return "Absent()"
        return f"Absent({self.witness!r})"


def is_absent(value) -> bool:
    return isinstance(value, Absent)


def _index(B: QCategory, upper: bool) -> dict:
    """(type, hom row B(c,-)) -> c when upper, else (type, hom column
    B(-,c)) -> c; of isomorphic objects, the first wins."""
    vecs = B.hom_idx if upper else zip(*B.hom_idx)
    index: dict = {}
    for c, (t, v) in enumerate(zip(B.types, vecs)):
        index.setdefault((t, v), c)
    return index


def _universal(B: QCategory, D: QDistributor, ws: Sequence, upper: bool) -> list:
    """For each weight w of ws, the object of B representing the upper
    bounds of a presheaf w along D : A -/-> B, z -> meet over x of
    D(x,z) <-left- w(x) (upper); or the lower bounds of a copresheaf w
    along D : B -/-> A, z -> meet over x of w(x) -right-> D(z,x).
    Absent(w) when there is none.  One up (down) call serves every weight."""
    wants = _TRANSFORMS["up" if upper else "down"].kernel(D, _family(ws))
    index = _index(B, upper)
    return [index.get((w.type_idx, want), Absent(w)) for w, want in zip(ws, wants)]


def tensor_cotensor(A: QCategory, side: str, f: Arrow, x: int):
    """The tensor f.x or cotensor f=>x of an object by an arrow, if any.

    side='tensor': f in Q(tx, Y); the result y of type Y satisfies
    A(y,z) = A(x,z) <-left- f for all z.  side='cotensor': f in Q(X, tx);
    the result y of type X satisfies A(z,y) = f -right-> A(z,x) for all z.
    Returns the first matching object index, else Absent.
    """
    if side not in ("tensor", "cotensor"):
        raise ValueError(f"side must be 'tensor' or 'cotensor', got {side!r}")
    _check_object(A, x)
    if side == "tensor" and f.src != A.types[x]:
        raise ObjectMismatch("tensoring arrow must start at the object's type")
    if side == "cotensor" and f.tgt != A.types[x]:
        raise ObjectMismatch("cotensoring arrow must end at the object's type")
    _check_arrow(A.Q, f)
    # f's image at its other end, f => A(x, -) or f => A(-, x), looked up:
    # the representable is row x (tensor) or column x of A's identity.
    upper, other = side == "tensor", f.tgt if side == "tensor" else f.src
    ident = identity_distributor(A)
    rep = (ident.rows if upper else ident.cols)[1][x]
    vec = _images_at(A, A.types[x], rep, not upper, True, other)[f.idx]
    found = _index(A, upper).get((other, vec))
    return Absent((side, f, A.labels[x])) if found is None else found


def sup_inf(A: QCategory, side: str, w):
    """The supremum of a presheaf / infimum of a copresheaf, if it exists.

    sup: the object a of type(w) with A(a,-) equal to the upper-bound
    weight of w.  inf: dually with A(-,b) and lower bounds.  Returns the
    first matching index, else Absent.
    """
    if side not in ("sup", "inf"):
        raise ValueError(f"side must be 'sup' or 'inf', got {side!r}")
    _check_weight(w, A, Presheaf if side == "sup" else Copresheaf, "A")
    return _universal(A, identity_distributor(A), [w], side == "sup")[0]


def weighted_colimit_limit(F: QFunctor, side: str, w):
    """The colimit of F weighted by a presheaf on its source (side='colim'),
    or the limit weighted by a copresheaf (side='lim'); index in the target
    category or Absent.  These are the bounds of w along F's graph and
    cograph."""
    if side not in ("colim", "lim"):
        raise ValueError(f"side must be 'colim' or 'lim', got {side!r}")
    _check_weight(w, F.dom, Presheaf if side == "colim" else Copresheaf, "the functor's source")
    graph, cograph = graph_cograph(F)
    D = graph if side == "colim" else cograph
    return _universal(F.cod, D, [w], side == "colim")[0]


def _underlying_bound(A: QCategory, type_idx: int, objs: Sequence[int], upper: bool):
    _check_type(A.Q, type_idx)
    for o in objs:
        _check_object(A, o)
        if A.types[o] != type_idx:
            raise ObjectMismatch(f"object {A.labels[o]} is not of type {A.Q.objects[type_idx]}")

    def below(i, j):
        return underlying_leq(A, i, j) if upper else underlying_leq(A, j, i)

    bounds = [
        c
        for c in range(len(A))
        if A.types[c] == type_idx and all(below(o, c) for o in objs)
    ]
    for c in bounds:
        if all(below(c, other) for other in bounds):
            return c
    return Absent(tuple(objs))


def underlying_join(A: QCategory, type_idx: int, objs: Sequence[int]):
    """Least upper bound in the underlying preorder among objects of the
    given type; first such index, else Absent."""
    return _underlying_bound(A, type_idx, objs, upper=True)


def underlying_meet(A: QCategory, type_idx: int, objs: Sequence[int]):
    """Greatest lower bound in the underlying preorder among objects of the
    given type; first such index, else Absent."""
    return _underlying_bound(A, type_idx, objs, upper=False)


def _bounds(A: QCategory, cap: int | None) -> list:
    """[(presheaf, sup)...] and [(copresheaf, inf)...] over every weight on
    A, Absent where there is none.  Both spaces are enumerated first, so
    PresheafSpaceTooLarge comes before any bound is computed."""
    spaces = [enumerate_presheaves(A, variance, cap) for variance in ("contra", "co")]
    ident = identity_distributor(A)
    return [
        list(zip(ws, _universal(A, ident, ws, side == "sup")))
        for ws, side in zip(spaces, ("sup", "inf"))
    ]


def _complete(A: QCategory, bounds: list):
    """is_complete on the bounds that _bounds(A, cap) returned."""
    missing = [w for pairs in bounds for w, value in pairs if is_absent(value)]
    if missing:
        return False, missing[0]
    sides = (("sup", "tensor", "join", True), ("inf", "cotensor", "meet", False))
    for (bound, side, op, upper), pairs in zip(sides, bounds):
        index, vecs = _index(A, upper), A.hom_idx if upper else tuple(zip(*A.hom_idx))
        at = [{(s, f): index.get((s, vec)) for s, f, vec in _arrow_images(A, t, v, not upper, True)}
              for t, v in zip(A.types, vecs)]  # every tensor (cotensor) of every object
        for w, value in pairs:
            images = [at[x][w.type_idx, v] for x, v in enumerate(w.weights)]
            if None in images:
                raise InternalCheckError(f"{side} missing in a complete category")
            y = _underlying_bound(A, w.type_idx, images, upper)
            if is_absent(y) or not objects_isomorphic(A, y, value):
                raise InternalCheckError(f"{bound} disagrees with the {op} of {side}s")
    return True, None


def is_complete(A: QCategory):
    """(True, None) when every weight has a sup/inf, else (False, weight).

    On success every sup is cross-checked against the join of tensors and
    every inf against the meet of cotensors; a mismatch there indicates a
    bug and raises InternalCheckError.
    """
    return _complete(A, _bounds(A, None))


# ---------------------------------------------------------------------------
# Closure operators and closure spaces
# ---------------------------------------------------------------------------


class ClosureOperator(QFunctor):
    """An inflationary idempotent endofunctor of `base`."""

    __slots__ = ()

    def __init__(self, base: QCategory, mapping: Sequence[int]):
        super().__init__(base, base, mapping)

    @property
    def base(self) -> QCategory:
        return self.dom


def closure_operator_check(C: ClosureOperator) -> list[str]:
    """Functoriality, inflation, and idempotence (up to isomorphism)
    violations; empty = valid."""
    A = C.base
    report, _ = validate_functor(C)
    for i in range(len(A)):
        if A.types[C(i)] != A.types[i]:
            continue  # already reported by functoriality
        if not underlying_leq(A, i, C(i)):
            report.append(f"inflation fails at {A.labels[i]}")
    for i in range(len(A)):
        if C(C(i)) != C(i) and not objects_isomorphic(A, C(C(i)), C(i)):
            report.append(f"idempotence fails at {A.labels[i]}")
    return report


def closure_fixed_points(C: ClosureOperator) -> FullSubcategory:
    """The full subcategory of objects isomorphic to their closure."""
    A = C.base
    return FullSubcategory(
        A, [i for i in range(len(A)) if objects_isomorphic(A, C(i), i)]
    )


def identity_closure(P: QCategory) -> ClosureOperator:
    return ClosureOperator(P, range(len(P)))


def trivial_closure(P: PresheafCategory) -> ClosureOperator:
    """Sends every weight to the all-top weight of its type."""
    if P.variance != "contra":
        raise CategoryMismatch("trivial closure is defined on contravariant weights")
    tops = {t: P.index_of(top_presheaf(P.base, t)) for t in set(P.types)}
    return ClosureOperator(P, [tops[t] for t in P.types])


def _arrow_weight(g: Arrow, mu: Presheaf, meet: bool) -> Presheaf:
    """The cotensor (meet) or tensor of a presheaf by one arrow g: its
    `_images_at` image at g's other end for g, retyped to that end."""
    _check_weight(mu, None, Presheaf)
    if (g.tgt if meet else g.src) != mu.type_idx:
        raise ObjectMismatch("cotensoring arrow must end at the weight's type" if meet
                             else "tensoring arrow must start at the weight's type")
    _check_arrow(mu.base.Q, g)
    other = g.src if meet else g.tgt
    vec = _images_at(mu.base, mu.type_idx, mu.weights, True, meet, other)[g.idx]
    return Presheaf(mu.base, other, vec)


def cotensor_weight(g: Arrow, mu: Presheaf) -> Presheaf:
    """Pointwise cotensor of a presheaf: x -> g -right-> mu(x), retyped to
    the source of g."""
    return _arrow_weight(g, mu, True)


def tensor_weight(g: Arrow, mu: Presheaf) -> Presheaf:
    """Pointwise tensor of a presheaf: x -> g . mu(x), retyped to the
    target of g."""
    return _arrow_weight(g, mu, False)


def _closed_family(A: QCategory, seeds: Sequence[Presheaf], meet: bool) -> list[Presheaf]:
    """The presheaves the seeds generate (`_generated`)."""
    for s in seeds:
        _check_weight(s, A, Presheaf, "A")
    types, vecs = _generated(A, _family(seeds), meet, True)
    return [Presheaf(A, t, vec) for t, vec in zip(types, vecs)]


def meet_cotensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all cotensors and pointwise meets
    (including the empty meet per type: the all-top weight)."""
    return _closed_family(A, seeds, meet=True)


def join_tensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all tensors and pointwise joins
    (including the empty join per type: the all-bottom weight)."""
    return _closed_family(A, seeds, meet=False)


def closure_from_system(P: PresheafCategory, system: Sequence[int]) -> ClosureOperator:
    """The closure operator whose fixed points are the given meet- and
    cotensor-closed subset of the weight category.  Of a meet-closed
    system the operator is a functor iff the system is cotensor-closed."""
    if P.variance != "contra":
        raise CategoryMismatch("closure systems are defined on contravariant weights")
    members = set(system)
    for j in members:
        _check_object(P, j)
    mapping = []
    for i, t in enumerate(P.types):
        above = [P.weight_at(j) for j in members if underlying_leq(P, i, j)]
        j = P.index_of(presheaf_meet(above, P.base, t))
        if j not in members:
            raise StructureError("system is not closed under meets")
        mapping.append(j)
    if validate_functor(C := ClosureOperator(P, mapping))[0]:
        raise StructureError("system is not closed under cotensors")
    return C


class ClosureSpace(NamedTuple):
    """A category together with a closure operator on its weight category."""

    category: QCategory
    operator: ClosureOperator


def validate_closure_space(space: ClosureSpace) -> list[str]:
    P = space.operator.base
    if not isinstance(P, PresheafCategory) or P.base is not space.category:
        raise CategoryMismatch(
            "operator must act on the contravariant weight category of the space"
        )
    if P.variance != "contra":
        raise CategoryMismatch("operator must act on contravariant weights")
    return closure_operator_check(space.operator)


def _continuity(F: QFunctor, C: ClosureOperator, D: ClosureOperator) -> tuple:
    """(continuous, F's direct image functor C.base -> D.base, its
    restriction functor back, the C-fixed and the D-fixed subcategories):
    each image of a weight is computed once."""
    PA, PB = C.base, D.base
    if (
        not isinstance(PA, PresheafCategory)
        or not isinstance(PB, PresheafCategory)
        or PA.base is not F.dom
        or PB.base is not F.cod
        or PA.variance != "contra"
        or PB.variance != "contra"
    ):
        raise CategoryMismatch("operators must act on the weight categories of F's endpoints")
    if closure_operator_check(C) or closure_operator_check(D):
        raise StructureError("continuity is only defined for valid closure operators")
    image, restrict = image_functor(F, "ra", PA, PB), image_functor(F, "la", PB, PA)
    SA, SB = closure_fixed_points(C), closure_fixed_points(D)
    forward = all(underlying_leq(PB, image(C(i)), D(image(i))) for i in range(len(PA)))
    fixed = set(SA.base_indices)
    if forward != all(restrict(j) in fixed for j in SB.base_indices):
        raise InternalCheckError("the two continuity formulations disagree")
    return forward, image, restrict, SA, SB


def continuity_check(F: QFunctor, C: ClosureOperator, D: ClosureOperator) -> bool:
    """Whether F is continuous from (dom, C) to (cod, D).

    Checked as: direct image of a closed weight is dominated by the closure
    of its direct image; cross-checked against the equivalent condition
    that inverse images of D-fixed weights are C-fixed.
    """
    return _continuity(F, C, D)[0]


def induced_adjoint_pair(
    F: QFunctor, C: ClosureOperator, D: ClosureOperator
) -> tuple[QFunctor, QFunctor]:
    """For continuous F: the left adjoint D . direct image and the right
    adjoint inverse image, between the fixed-point subcategories."""
    continuous, image, restrict, SA, SB = _continuity(F, C, D)
    if not continuous:
        raise StructureError("functor is not continuous between the given spaces")
    pos_a = {idx: k for k, idx in enumerate(SA.base_indices)}
    pos_b = {idx: k for k, idx in enumerate(SB.base_indices)}
    left = QFunctor(SA, SB, [pos_b[D(image(i))] for i in SA.base_indices])
    right = QFunctor(SB, SA, [pos_a[restrict(j)] for j in SB.base_indices])
    return left, right


def closure_to_context(space: ClosureSpace) -> QDistributor:
    """The evaluation distributor from the space's category to the fixed
    points of its operator; its two-sided fixed-point construction recovers
    the operator exactly."""
    fixed = closure_fixed_points(space.operator)
    weights = [space.operator.base.weight_at(j) for j in fixed.base_indices]
    return _evaluation(space.category, fixed, weights)


def _canonical_colimits(F: QFunctor, K: QFunctor, colim: bool) -> list:
    """For each object c of K's target, in order: the weight a -> C(Ka, c)
    and F's colimit weighted by it (colim), or the weight a -> C(c, Ka) and
    F's limit; the weights are the columns of K's graph or the rows of its
    cograph, and every (co)limit comes from one bound computation along
    F's graph or cograph."""
    graph, cograph = graph_cograph(K)
    weight = Presheaf if colim else Copresheaf
    weights = [weight(K.dom, t, v) for t, v in zip(*(graph.cols if colim else cograph.rows))]
    if any(validate_presheaf(w) for w in weights):
        raise InternalCheckError("canonical weight is not a weight")
    D = graph_cograph(F)[0 if colim else 1]
    return list(zip(weights, _universal(F.cod, D, weights, colim)))


def kan_extension_pointwise(F: QFunctor, K: QFunctor, direction: str):
    """The pointwise left/right Kan extension of F along K, as a functor
    from K's target to F's target; Absent when some (co)limit is missing.

    direction='left' computes each value as a weighted colimit with weight
    the K-graph column; 'right' dually with limits.
    """
    if F.dom is not K.dom:
        raise CategoryMismatch("extension needs functors with a common source")
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    Cc = K.cod
    mapping = []
    for c, (_, value) in enumerate(_canonical_colimits(F, K, direction == "left")):
        if is_absent(value):
            return Absent(Cc.labels[c])
        mapping.append(value)
    ext = QFunctor(Cc, F.cod, mapping)
    report, _ = validate_functor(ext)
    if report:
        raise InternalCheckError("pointwise extension is not a functor")
    return ext
