"""Weighted (co)limits, completeness checks, and closure operators."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .distributor import (
    Copresheaf,
    Presheaf,
    PresheafCategory,
    QDistributor,
    _Mat,
    _columns,
    _compose,
    _copresheaves,
    _mat,
    _presheaves,
    _residuate,
    _stack,
    bottom_presheaf,
    direct_image,
    enumerate_presheaves,
    graph_cograph,
    identity_distributor,
    inverse_image,
    presheaf_join,
    presheaf_meet,
    top_presheaf,
    validate_copresheaf,
    validate_presheaf,
    weight_leq,
)
from .enriched import (
    FullSubcategory,
    QCategory,
    QFunctor,
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
from .quantaloid import Arrow


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


def _entry(f: Arrow) -> _Mat:
    return _Mat((f.src,), (f.tgt,), ((f.idx,),))


def _index(B: QCategory, upper: bool) -> dict:
    """(type, hom row B(c,-)) -> c when upper, else (type, hom column
    B(-,c)) -> c; of isomorphic objects, the first wins."""
    vecs = B.hom_idx if upper else zip(*B.hom_idx)
    index: dict = {}
    for c, (t, v) in enumerate(zip(B.types, vecs)):
        index.setdefault((t, v), c)
    return index


def _universal(B: QCategory, D: _Mat, ws: Sequence, upper: bool, what: str) -> list:
    """For each weight w of ws, the object of B representing the upper
    bounds of a presheaf w along D : A -/-> B, z -> meet over x of
    D(x,z) <-left- w(x) (upper); or the lower bounds of a copresheaf w
    along D : B -/-> A, z -> meet over x of w(x) -right-> D(z,x).
    Absent(w) when there is none.  One residuation serves every weight."""
    kind, variance = (Presheaf, "contravariant") if upper else (Copresheaf, "covariant")
    if not all(isinstance(w, kind) for w in ws):
        raise ValueError(f"{what} needs a {variance} weight")
    if not ws:
        return []
    W = _stack(ws[0].base, ws)
    if upper:
        wants = _residuate(B.Q, "left", D, W).m
    else:
        wants = _columns(_residuate(B.Q, "right", W, D))
    index = _index(B, upper)
    return [index.get((w.type_idx, want), Absent(w)) for w, want in zip(ws, wants)]


def _tensor_key(A: QCategory, side: str, f: Arrow, x: int) -> tuple:
    """The (type, hom row) of the tensor f.x, or the (type, hom column) of
    the cotensor f=>x, as tensor_cotensor looks them up."""
    if side == "tensor":
        if f.src != A.types[x]:
            raise ObjectMismatch("tensoring arrow must start at the object's type")
        row = _Mat((f.src,), A.types, (A.hom_idx[x],))
        return f.tgt, _residuate(A.Q, "left", row, _entry(f)).m[0]
    if f.tgt != A.types[x]:
        raise ObjectMismatch("cotensoring arrow must end at the object's type")
    col = _Mat(A.types, (f.tgt,), tuple((r[x],) for r in A.hom_idx))
    return f.src, _columns(_residuate(A.Q, "right", _entry(f), col))[0]


def tensor_cotensor(A: QCategory, side: str, f: Arrow, x: int):
    """The tensor f.x or cotensor f=>x of an object by an arrow, if any.

    side='tensor': f in Q(tx, Y); the result y of type Y satisfies
    A(y,z) = A(x,z) <-left- f for all z.  side='cotensor': f in Q(X, tx);
    the result y of type X satisfies A(z,y) = f -right-> A(z,x) for all z.
    Returns the first matching object index, else Absent.
    """
    if side not in ("tensor", "cotensor"):
        raise ValueError(f"side must be 'tensor' or 'cotensor', got {side!r}")
    key = _tensor_key(A, side, f, x)
    return _index(A, side == "tensor").get(key, Absent((side, f, A.labels[x])))


def sup_inf(A: QCategory, side: str, w):
    """The supremum of a presheaf / infimum of a copresheaf, if it exists.

    sup: the object a of type(w) with A(a,-) equal to the upper-bound
    weight of w.  inf: dually with A(-,b) and lower bounds.  Returns the
    first matching index, else Absent.
    """
    if w.base is not A:
        raise CategoryMismatch("weight lives on a different category")
    if side not in ("sup", "inf"):
        raise ValueError(f"side must be 'sup' or 'inf', got {side!r}")
    return _universal(A, _mat(identity_distributor(A)), [w], side == "sup", side)[0]


def weighted_colimit_limit(F: QFunctor, side: str, w):
    """The colimit of F weighted by a presheaf on its source (side='colim'),
    or the limit weighted by a copresheaf (side='lim'); index in the target
    category or Absent.  These are the bounds of w along F's graph and
    cograph."""
    if w.base is not F.dom:
        raise CategoryMismatch("weight lives on a different category")
    if side not in ("colim", "lim"):
        raise ValueError(f"side must be 'colim' or 'lim', got {side!r}")
    graph, cograph = graph_cograph(F)
    D = graph if side == "colim" else cograph
    return _universal(F.cod, _mat(D), [w], side == "colim", side)[0]


def _underlying_bound(A: QCategory, type_idx: int, objs: Sequence[int], upper: bool):
    for o in objs:
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
    ident = _mat(identity_distributor(A))
    return [
        list(zip(ws, _universal(A, ident, ws, side == "sup", side)))
        for ws, side in zip(spaces, ("sup", "inf"))
    ]


def _complete(A: QCategory, bounds: list):
    """is_complete on the bounds that _bounds(A, cap) returned."""
    missing = [w for pairs in bounds for w, value in pairs if is_absent(value)]
    if missing:
        return False, missing[0]
    sides = (("sup", "tensor", "join", True), ("inf", "cotensor", "meet", False))
    for (bound, side, op, upper), pairs in zip(sides, bounds):
        index = _index(A, upper)
        for w, value in pairs:
            images = [index.get(_tensor_key(A, side, w.arrow(a), a)) for a in range(len(A))]
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
    tops = {}
    mapping = []
    for i in range(len(P)):
        t = P.types[i]
        if t not in tops:
            tops[t] = P.index_of(top_presheaf(P.base, t))
        mapping.append(tops[t])
    return ClosureOperator(P, mapping)


def cotensor_weight(g: Arrow, mu: Presheaf) -> Presheaf:
    """Pointwise cotensor of a presheaf: x -> g -right-> mu(x), retyped to
    the source of g."""
    if g.tgt != mu.type_idx:
        raise ObjectMismatch("cotensoring arrow must end at the weight's type")
    return _presheaves(mu.base, _residuate(mu.base.Q, "right", _entry(g), _mat(mu)))[0]


def tensor_weight(g: Arrow, mu: Presheaf) -> Presheaf:
    """Pointwise tensor of a presheaf: x -> g . mu(x), retyped to the
    target of g."""
    if g.src != mu.type_idx:
        raise ObjectMismatch("tensoring arrow must start at the weight's type")
    return _presheaves(mu.base, _compose(mu.base.Q, _entry(g), _mat(mu)))[0]


def _arrow_images(mu: Presheaf, meet: bool) -> list:
    """(g, g => mu) for every arrow g into mu's type when meet, else
    (g, g . mu) for every arrow g out of it; by target object, then index.

    The arrows form one column (meet) or one row of a matrix, so every
    image comes from a single kernel call.
    """
    A, t = mu.base, mu.type_idx
    Q = A.Q
    if meet:
        arrows = [g for s in range(len(Q.objects)) for g in Q.arrows(s, t)]
        gs = _Mat(tuple(g.src for g in arrows), (t,), tuple((g.idx,) for g in arrows))
        images = _residuate(Q, "right", gs, _mat(mu))
    else:
        arrows = [g for s in range(len(Q.objects)) for g in Q.arrows(t, s)]
        gs = _Mat((t,), tuple(g.tgt for g in arrows), (tuple(g.idx for g in arrows),))
        images = _compose(Q, gs, _mat(mu))
    return list(zip(arrows, _presheaves(A, images)))


def _saturate(A: QCategory, images: Iterable[Presheaf], meet: bool) -> list[Presheaf]:
    """Close the cotensor images of some seeds under pointwise meets
    (meet=True), or their tensor images under pointwise joins, including
    the empty meet (join) per type.

    A cotensor of a cotensor is a single cotensor and cotensors distribute
    over meets (dually for tensors and joins), so the closure of the seeds
    under cotensors and meets is the set of meets of their cotensor images.
    The pool starts as the empty meet of each type; each new image is met
    once with every member of its type present at that moment.  By
    induction on the last image used, the pool then holds the meet of
    every subset of the images, and an image already in the pool adds
    nothing.
    """
    combine = presheaf_meet if meet else presheaf_join
    pool = {
        top_presheaf(A, t) if meet else bottom_presheaf(A, t)
        for t in range(len(A.Q.objects))
    }
    for g in images:
        if g not in pool:
            pool.update(
                [combine([p, g], A, g.type_idx) for p in pool if p.type_idx == g.type_idx]
            )
    return sorted(pool, key=lambda p: (p.type_idx, p.weights))


def meet_cotensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all cotensors and pointwise meets
    (including the empty meet per type: the all-top weight)."""
    return _saturate(A, (g for s in seeds for _, g in _arrow_images(s, True)), meet=True)


def join_tensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all tensors and pointwise joins
    (including the empty join per type: the all-bottom weight)."""
    return _saturate(A, (g for s in seeds for _, g in _arrow_images(s, False)), meet=False)


def closure_from_system(P: PresheafCategory, system: Sequence[int]) -> ClosureOperator:
    """The closure operator whose fixed points are the given meet- and
    cotensor-closed subset of the weight category."""
    if P.variance != "contra":
        raise CategoryMismatch("closure systems are defined on contravariant weights")
    A = P.base
    members = set(system)
    mapping = []
    for i in range(len(P)):
        mu = P.weight_at(i)
        above = [P.weight_at(j) for j in members if P.types[j] == mu.type_idx]
        above = [nu for nu in above if weight_leq(mu, nu)]
        closed = presheaf_meet(above, A, mu.type_idx)
        j = P.index_of(closed)
        if j not in members:
            raise StructureError("system is not closed under meets")
        mapping.append(j)
    return ClosureOperator(P, mapping)


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


def continuity_check(F: QFunctor, C: ClosureOperator, D: ClosureOperator) -> bool:
    """Whether F is continuous from (dom, C) to (cod, D).

    Checked as: direct image of a closed weight is dominated by the closure
    of its direct image; cross-checked against the equivalent condition
    that inverse images of D-fixed weights are C-fixed.
    """
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
    forward = all(
        weight_leq(
            direct_image(F, PA.weight_at(C(i))),
            PB.weight_at(D(PB.index_of(direct_image(F, PA.weight_at(i))))),
        )
        for i in range(len(PA))
    )
    backward = True
    for j in range(len(PB)):
        if not objects_isomorphic(PB, D(j), j):
            continue
        i = PA.index_of(inverse_image(F, PB.weight_at(j)))
        if not objects_isomorphic(PA, C(i), i):
            backward = False
            break
    if forward != backward:
        raise InternalCheckError("the two continuity formulations disagree")
    return forward


def induced_adjoint_pair(
    F: QFunctor, C: ClosureOperator, D: ClosureOperator
) -> tuple[QFunctor, QFunctor]:
    """For continuous F: the left adjoint D . direct image and the right
    adjoint inverse image, between the fixed-point subcategories."""
    if not continuity_check(F, C, D):
        raise StructureError("functor is not continuous between the given spaces")
    PA, PB = C.base, D.base
    SA, SB = closure_fixed_points(C), closure_fixed_points(D)
    pos_a = {idx: k for k, idx in enumerate(SA.base_indices)}
    pos_b = {idx: k for k, idx in enumerate(SB.base_indices)}
    left = QFunctor(
        SA,
        SB,
        [
            pos_b[D(PB.index_of(direct_image(F, PA.weight_at(i))))]
            for i in SA.base_indices
        ],
    )
    right = QFunctor(
        SB,
        SA,
        [pos_a[PA.index_of(inverse_image(F, PB.weight_at(j)))] for j in SB.base_indices],
    )
    return left, right


def closure_to_context(space: ClosureSpace) -> QDistributor:
    """The evaluation distributor from the space's category to the fixed
    points of its operator; its two-sided fixed-point construction recovers
    the operator exactly."""
    A = space.category
    P = space.operator.base
    fixed = closure_fixed_points(space.operator)
    weights = [P.weight_at(j) for j in fixed.base_indices]
    return QDistributor(A, fixed, _stack(A, weights).m)


def _canonical_colimits(F: QFunctor, K: QFunctor, colim: bool) -> list:
    """For each object c of K's target, in order: the weight a -> C(Ka, c)
    and F's colimit weighted by it (colim), or the weight a -> C(c, Ka) and
    F's limit; the weights are the columns of K's graph or the rows of its
    cograph, and every (co)limit comes from one bound computation along
    F's graph or cograph."""
    graph, cograph = graph_cograph(K)
    if colim:
        weights, check = _presheaves(K.dom, _mat(graph)), validate_presheaf
    else:
        weights, check = _copresheaves(K.dom, _mat(cograph)), validate_copresheaf
    if any(check(w) for w in weights):
        raise InternalCheckError("canonical weight is not a weight")
    D = _mat(graph_cograph(F)[0 if colim else 1])
    return list(zip(weights, _universal(F.cod, D, weights, colim, "colim" if colim else "lim")))


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
