"""Weighted (co)limits, completeness checks, and closure operators."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .distributor import (
    Copresheaf,
    Presheaf,
    PresheafCategory,
    QDistributor,
    _Mat,
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
    underlying_preorder,
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


def _representing(B: QCategory, type_idx: int, want, upper: bool, witness):
    """The first object c of the given type with B(c, -) = want (upper) or
    B(-, c) = want (lower), else Absent(witness)."""
    for c in range(len(B)):
        if B.types[c] != type_idx:
            continue
        if upper:
            if B.hom_idx[c] == want:
                return c
        elif all(row[c] == v for row, v in zip(B.hom_idx, want)):
            return c
    return Absent(witness)


def _universal(B: QCategory, D: _Mat, w, upper: bool, what: str):
    """The object of B representing the upper bounds of a presheaf w along
    D : A -/-> B, z -> meet over x of D(x,z) <-left- w(x) (upper); or the
    lower bounds of a copresheaf w along D : B -/-> A, z -> meet over x of
    w(x) -right-> D(z,x).  Absent(w) when there is none."""
    if upper:
        if not isinstance(w, Presheaf):
            raise ValueError(f"{what} needs a contravariant weight")
        want = _residuate(B.Q, "left", D, _mat(w)).m[0]
    else:
        if not isinstance(w, Copresheaf):
            raise ValueError(f"{what} needs a covariant weight")
        want = tuple(r[0] for r in _residuate(B.Q, "right", _mat(w), D).m)
    return _representing(B, w.type_idx, want, upper, w)


def tensor_cotensor(A: QCategory, side: str, f: Arrow, x: int):
    """The tensor f.x or cotensor f=>x of an object by an arrow, if any.

    side='tensor': f in Q(tx, Y); the result y of type Y satisfies
    A(y,z) = A(x,z) <-left- f for all z.  side='cotensor': f in Q(X, tx);
    the result y of type X satisfies A(z,y) = f -right-> A(z,x) for all z.
    Returns the first matching object index, else Absent.
    """
    witness = (side, f, A.labels[x])
    if side == "tensor":
        if f.src != A.types[x]:
            raise ObjectMismatch("tensoring arrow must start at the object's type")
        row = _Mat((f.src,), A.types, (A.hom_idx[x],))
        want = _residuate(A.Q, "left", row, _entry(f)).m[0]
        return _representing(A, f.tgt, want, True, witness)
    if side == "cotensor":
        if f.tgt != A.types[x]:
            raise ObjectMismatch("cotensoring arrow must end at the object's type")
        col = _Mat(A.types, (f.tgt,), tuple((r[x],) for r in A.hom_idx))
        want = tuple(r[0] for r in _residuate(A.Q, "right", _entry(f), col).m)
        return _representing(A, f.src, want, False, witness)
    raise ValueError(f"side must be 'tensor' or 'cotensor', got {side!r}")


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
    return _universal(A, _mat(identity_distributor(A)), w, side == "sup", side)


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
    return _universal(F.cod, _mat(D), w, side == "colim", side)


def _underlying_bound(A: QCategory, type_idx: int, objs: Sequence[int], upper: bool):
    Q = A.Q
    unit = Q.unit(type_idx)

    def below(i, j):
        if not upper:
            i, j = j, i
        return Q.leq(unit, A.hom(i, j))

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


def is_complete(A: QCategory, cap: int | None = None):
    """(True, None) when every weight has a sup/inf, else (False, weight).

    On success every sup is cross-checked against the join of tensors and
    every inf against the meet of cotensors; a mismatch there indicates a
    bug and raises InternalCheckError.
    """
    presheaves = enumerate_presheaves(A, "contra", cap)
    copresheaves = enumerate_presheaves(A, "co", cap)
    sups, infs = {}, {}
    for mu in presheaves:
        s = sup_inf(A, "sup", mu)
        if is_absent(s):
            return False, mu
        sups[mu] = s
    for lam in copresheaves:
        i = sup_inf(A, "inf", lam)
        if is_absent(i):
            return False, lam
        infs[lam] = i
    for mu, s in sups.items():
        tensors = []
        for a in range(len(A)):
            t = tensor_cotensor(A, "tensor", mu.arrow(a), a)
            if is_absent(t):
                raise InternalCheckError("tensor missing in a complete category")
            tensors.append(t)
        j = underlying_join(A, mu.type_idx, tensors)
        if is_absent(j) or not objects_isomorphic(A, j, s):
            raise InternalCheckError("sup disagrees with the join of tensors")
    for lam, b in infs.items():
        cotensors = []
        for a in range(len(A)):
            c = tensor_cotensor(A, "cotensor", lam.arrow(a), a)
            if is_absent(c):
                raise InternalCheckError("cotensor missing in a complete category")
            cotensors.append(c)
        m = underlying_meet(A, lam.type_idx, cotensors)
        if is_absent(m) or not objects_isomorphic(A, m, b):
            raise InternalCheckError("inf disagrees with the meet of cotensors")
    return True, None


# ---------------------------------------------------------------------------
# Closure operators and closure spaces
# ---------------------------------------------------------------------------


class ClosureOperator:
    """An inflationary idempotent endofunctor, stored as an object map."""

    __slots__ = ("base", "mapping")

    def __init__(self, base: QCategory, mapping: Sequence[int]):
        self.base = base
        self.mapping = tuple(mapping)
        if len(self.mapping) != len(base):
            raise StructureError("closure operator must map every object")
        for v in self.mapping:
            if not (0 <= v < len(base)):
                raise StructureError(f"closure value {v} out of range")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def as_functor(self) -> QFunctor:
        return QFunctor(self.base, self.base, self.mapping)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClosureOperator)
            and self.base is other.base
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((id(self.base), self.mapping))


def closure_operator_check(C: ClosureOperator) -> list[str]:
    """Functoriality, inflation, and idempotence violations; empty = valid.

    Idempotence is required on the nose when the base is skeletal, up to
    isomorphism otherwise.
    """
    A = C.base
    report, _ = validate_functor(C.as_functor())
    Q = A.Q
    for i in range(len(A)):
        if A.types[C(i)] != A.types[i]:
            continue  # already reported by functoriality
        if not Q.leq(Q.unit(A.types[i]), A.hom(i, C(i))):
            report.append(f"inflation fails at {A.labels[i]}")
    _, skeletal = underlying_preorder(A)
    for i in range(len(A)):
        if skeletal:
            if C(C(i)) != C(i):
                report.append(f"idempotence fails at {A.labels[i]}")
        elif not objects_isomorphic(A, C(C(i)), C(i)):
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


def _arrow_images(mu: Presheaf, meet: bool):
    """(g, g => mu) for every arrow g into mu's type when meet, else
    (g, g . mu) for every arrow g out of it; by target object, then index."""
    Q = mu.base.Q
    for t in range(len(Q.objects)):
        if meet:
            for g in Q.arrows(t, mu.type_idx):
                yield g, cotensor_weight(g, mu)
        else:
            for g in Q.arrows(mu.type_idx, t):
                yield g, tensor_weight(g, mu)


def _saturate(A: QCategory, seeds: Sequence[Presheaf], meet: bool) -> list[Presheaf]:
    """Close seeds under cotensors and pointwise meets (meet=True), or
    under tensors and pointwise joins, including the empty meet (join) per
    type.

    A cotensor of a cotensor is a single cotensor and cotensors distribute
    over meets (dually for tensors and joins), so the closure is the set of
    meets of the cotensor images of the seeds.  The pool starts as the
    empty meet of each type; each new image is met once with every member
    of its type present at that moment.  By induction on the last image
    used, the pool then holds the meet of every subset of the images, and
    an image already in the pool adds nothing.
    """
    combine = presheaf_meet if meet else presheaf_join
    pool = {
        top_presheaf(A, t) if meet else bottom_presheaf(A, t)
        for t in range(len(A.Q.objects))
    }
    for s in seeds:
        for _, g in _arrow_images(s, meet):
            if g not in pool:
                pool.update(
                    [combine([p, g], A, g.type_idx) for p in pool if p.type_idx == g.type_idx]
                )
    return sorted(pool, key=lambda p: (p.type_idx, p.weights))


def meet_cotensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all cotensors and pointwise meets
    (including the empty meet per type: the all-top weight)."""
    return _saturate(A, seeds, meet=True)


def join_tensor_closure(A: QCategory, seeds: Sequence[Presheaf]) -> list[Presheaf]:
    """Close a family of presheaves under all tensors and pointwise joins
    (including the empty join per type: the all-bottom weight)."""
    return _saturate(A, seeds, meet=False)


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


def _canonical_colimits(F: QFunctor, K: QFunctor, colim: bool):
    """For each object c of K's target, in order: the weight a -> C(Ka, c)
    and F's colimit weighted by it (colim), or the weight a -> C(c, Ka) and
    F's limit; the weights are the columns of K's graph or the rows of its
    cograph."""
    graph, cograph = graph_cograph(K)
    if colim:
        weights, check = _presheaves(K.dom, _mat(graph)), validate_presheaf
    else:
        weights, check = _copresheaves(K.dom, _mat(cograph)), validate_copresheaf
    for w in weights:
        if check(w):
            raise InternalCheckError("canonical weight is not a weight")
        yield w, weighted_colimit_limit(F, "colim" if colim else "lim", w)


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
