"""Weighted (co)limits, completeness checks, and closure operators."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .distributor import (
    Copresheaf,
    Presheaf,
    PresheafCategory,
    QDistributor,
    _TRANSFORMS,
    _check_object,
    _check_weight,
    _family,
    _pointwise,
    bottom_presheaf,
    coyoneda_weight,
    direct_image,
    enumerate_presheaves,
    graph_cograph,
    identity_distributor,
    inverse_image,
    presheaf_meet,
    top_presheaf,
    validate_presheaf,
    weight_leq,
    yoneda_weight,
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
from .quantaloid import Arrow, _check_arrow


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
    wants = _TRANSFORMS["up" if upper else "down"].kernel(B.Q, D.rows, D.cols, _family(ws))
    index = _index(B, upper)
    return [index.get((w.type_idx, want), Absent(w)) for w, want in zip(ws, wants)]


def _tensors_at(A: QCategory, upper: bool, x: int, index: dict) -> dict:
    """(type, hom index) of each arrow f out of the type of x -> the tensor
    f.x (upper), or of each arrow into it -> the cotensor f=>x; None where
    there is none.  The hom row of f.x is the pointwise cotensor
    f => A(x, -) and the hom column of f=>x is f => A(-, x), all from one
    kernel call, looked up in index = _index(A, upper)."""
    w = coyoneda_weight(A, x) if upper else yoneda_weight(A, x)
    images = _arrow_images(w, True)
    return {(v.type_idx, f.idx): index.get((v.type_idx, v.weights)) for f, v in images}


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
    upper = side == "tensor"
    found = _tensors_at(A, upper, x, _index(A, upper))[f.tgt if upper else f.src, f.idx]
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
        index = _index(A, upper)
        at = [_tensors_at(A, upper, x, index) for x in range(len(A))]
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
    _check_weight(mu, None, Presheaf)
    if g.tgt != mu.type_idx:
        raise ObjectMismatch("cotensoring arrow must end at the weight's type")
    _check_arrow(mu.base.Q, g)
    return _arrow_images(mu, True, [g])[0][1]


def tensor_weight(g: Arrow, mu: Presheaf) -> Presheaf:
    """Pointwise tensor of a presheaf: x -> g . mu(x), retyped to the
    target of g."""
    _check_weight(mu, None, Presheaf)
    if g.src != mu.type_idx:
        raise ObjectMismatch("tensoring arrow must start at the weight's type")
    _check_arrow(mu.base.Q, g)
    return _arrow_images(mu, False, [g])[0][1]


def _arrow_images(w, meet: bool, arrows: Sequence[Arrow] | None = None) -> list:
    """(g, g => w) for every arrow g at w's type when meet, else (g, g . w),
    by the object at g's other end, then index; or for the given arrows
    only.  g => w is pointwise g -right-> mu(x) for a presheaf mu and g
    into its type, lam(x) <-left- g for a copresheaf lam and g out of it;
    g . w is g . mu(x) for g out of mu's type, lam(x) . g for g into lam's.
    With w as a one-column (presheaf) or one-row matrix, g => w is the
    down (up) image of the one-entry weight g along it and g . w the star
    (dag) image: one kernel call for every g."""
    A, t, contra = w.base, w.type_idx, isinstance(w, Presheaf)
    into = meet == contra
    if arrows is None:
        ends = [(s, t) if into else (t, s) for s in range(len(A.Q.objects))]
        arrows = [g for src, tgt in ends for g in A.Q.arrows(src, tgt)]
    types = tuple(g.src if into else g.tgt for g in arrows)
    one, entries = ((t,), (w.weights,)), (A.types, tuple(zip(w.weights)))
    matrix = (entries, one) if contra else (one, entries)  # its rows, its columns
    name = ("down" if meet else "star") if contra else ("up" if meet else "dag")
    images = _TRANSFORMS[name].kernel(A.Q, *matrix, (types, tuple((g.idx,) for g in arrows)))
    return [(g, type(w)(A, s, vec)) for g, s, vec in zip(arrows, types, images)]


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
    pool = {
        top_presheaf(A, t) if meet else bottom_presheaf(A, t)
        for t in range(len(A.Q.objects))
    }
    for g in images:
        if g not in pool:
            t = g.type_idx
            pool.update([_pointwise([p, g], A, t, meet) for p in pool if p.type_idx == t])
    return sorted(pool, key=lambda p: (p.type_idx, p.weights))


def meet_cotensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all cotensors and pointwise meets
    (including the empty meet per type: the all-top weight)."""
    for s in seeds:
        _check_weight(s, A, Presheaf, "A")
    return _saturate(A, (g for s in seeds for _, g in _arrow_images(s, True)), meet=True)


def join_tensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all tensors and pointwise joins
    (including the empty join per type: the all-bottom weight)."""
    for s in seeds:
        _check_weight(s, A, Presheaf, "A")
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
    return QDistributor(A, fixed, [[w.weights[x] for w in weights] for x in range(len(A))])


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
