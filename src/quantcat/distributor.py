"""Bimodules between enriched categories, weights, and their categories."""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Sequence

from .enriched import QCategory, QFunctor, type_failures
from .errors import (
    ArrowTypeError,
    CategoryMismatch,
    InternalCheckError,
    InvalidInfomorphism,
    ObjectMismatch,
    PresheafSpaceTooLarge,
    StructureError,
)
from .quantaloid import Arrow, Quantaloid

DEFAULT_CAP = 200_000
CROSS_CHECK_LIMIT = 10_000  # largest weight space cross-checked by brute enumeration
CAP_ENV_VAR = "QUANTCAT_PRESHEAF_CAP"


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise StructureError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise StructureError(f"{CAP_ENV_VAR} must be positive")
    return value


class QDistributor:
    """A matrix of arrows phi(x,y) in Q(tx,ty) compatible with both hom actions.

    `dom` and `cod` are the source and target categories; `matrix[x][y]`
    indexes into Q(tx, ty).
    """

    __slots__ = ("dom", "cod", "matrix")

    def __init__(self, dom: QCategory, cod: QCategory, matrix: Sequence[Sequence[int]]):
        if dom.Q is not cod.Q:
            raise CategoryMismatch("distributor endpoints live over different quantaloids")
        self.dom = dom
        self.cod = cod
        self.matrix = tuple(tuple(row) for row in matrix)
        if len(self.matrix) != len(dom) or any(len(r) != len(cod) for r in self.matrix):
            raise StructureError("distributor matrix has wrong shape")

    @property
    def Q(self) -> Quantaloid:
        return self.dom.Q

    def arrow(self, x: int, y: int) -> Arrow:
        return Arrow(self.dom.types[x], self.cod.types[y], self.matrix[x][y])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QDistributor)
            and self.dom is other.dom
            and self.cod is other.cod
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((id(self.dom), id(self.cod), self.matrix))

    def __repr__(self) -> str:
        return f"QDistributor({len(self.dom)}x{len(self.cod)})"


def identity_distributor(A: QCategory) -> QDistributor:
    return QDistributor(A, A, A.hom_idx)


def validate_distributor(phi: QDistributor) -> list[str]:
    """Violated action constraints with witnesses; empty = valid."""
    Q = phi.Q
    A, B = phi.dom, phi.cod
    for x in range(len(A)):
        for y in range(len(B)):
            lat = Q.homs[(A.types[x], B.types[y])]
            if not (0 <= phi.matrix[x][y] < lat.n):
                raise ArrowTypeError(
                    f"entry ({A.labels[x]},{B.labels[y]}) is outside its hom lattice"
                )
    report = []
    for x in range(len(A)):
        for y in range(len(B)):
            target = phi.arrow(x, y)
            for yp in range(len(B)):
                if not Q.leq(Q.compose(B.hom(yp, y), phi.arrow(x, yp)), target):
                    report.append(
                        f"target action fails at ({A.labels[x]},{B.labels[yp]},{B.labels[y]})"
                    )
            for xp in range(len(A)):
                if not Q.leq(Q.compose(phi.arrow(xp, y), A.hom(x, xp)), target):
                    report.append(
                        f"source action fails at ({A.labels[x]},{A.labels[xp]},{B.labels[y]})"
                    )
    return report


class _Mat(NamedTuple):
    """A typed integer matrix: m[r][c] indexes Q(rows[r], cols[c]).

    The two kernels below work on these.  A distributor A -/-> B is the
    matrix with rows typed by A and columns by B; a presheaf is a one-column
    matrix (a distributor into a one-object category) and a copresheaf a
    one-row matrix (a distributor out of one).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    m: tuple[tuple[int, ...], ...]


def _mat(x) -> _Mat:
    """A distributor, presheaf or copresheaf as a typed matrix."""
    if isinstance(x, QDistributor):
        return _Mat(x.dom.types, x.cod.types, x.matrix)
    if isinstance(x, Presheaf):
        return _Mat(x.base.types, (x.type_idx,), tuple((v,) for v in x.weights))
    return _Mat((x.type_idx,), x.base.types, (x.weights,))


def _stack(base: QCategory, ws: Sequence) -> _Mat:
    """Presheaves side by side as columns, or copresheaves stacked as rows.

    Every weight must have the variance of the first; an empty list gives
    an empty family of presheaves.
    """
    if ws and isinstance(ws[0], Copresheaf):
        return _Mat(tuple(w.type_idx for w in ws), base.types, tuple(w.weights for w in ws))
    return _Mat(
        base.types,
        tuple(w.type_idx for w in ws),
        tuple(tuple(w.weights[x] for w in ws) for x in range(len(base))),
    )


def _columns(M: _Mat) -> list:
    return list(zip(*M.m)) or [()] * len(M.cols)


def _presheaves(base: QCategory, M: _Mat) -> list:
    """The columns of M as presheaves on base."""
    return [Presheaf(base, t, col) for t, col in zip(M.cols, _columns(M))]


def _copresheaves(base: QCategory, M: _Mat) -> list:
    """The rows of M as copresheaves on base."""
    return [Copresheaf(base, t, row) for t, row in zip(M.rows, M.m)]


def _scan(Q: Quantaloid, rows, cols, us, vs, tables, join: bool) -> _Mat:
    """out[r][c] = join (or meet) over k of tables(tr, tc)[k][us[c][k]][vs[r][k]],
    folded in Q(rows[r], cols[c]).  `tables` is called once per type pair."""
    homs = Q.homs
    cache: dict = {}
    out = []
    for tr, v in zip(rows, vs):
        row = []
        for tc, u in zip(cols, us):
            key = (tr, tc)
            tabs = cache.get(key)
            if tabs is None:
                tabs = cache[key] = tables(tr, tc)
            lat = homs[key]
            if join:
                op, acc = lat._join, lat.bottom
            else:
                op, acc = lat._meet, lat.top
            for tab, i, j in zip(tabs, u, v):
                acc = op[acc][tab[i][j]]
            row.append(acc)
        out.append(tuple(row))
    return _Mat(tuple(rows), tuple(cols), tuple(out))


def _compose(Q: Quantaloid, psi: _Mat, phi: _Mat) -> _Mat:
    """psi after phi: (x, z) -> join over y of psi(y, z) . phi(x, y)."""
    comp = Q.compose_tables
    return _scan(
        Q, phi.rows, psi.cols, _columns(psi), phi.m,
        lambda tx, tz: [comp[(tx, ty, tz)] for ty in phi.cols],
        join=True,
    )


def _residuate(Q: Quantaloid, side: str, a: _Mat, b: _Mat) -> _Mat:
    """One-sided residual of typed matrices, with dist_residual's sides.

    'left': a is A x C, b is A x B; (y, z) -> meet over x of
    a(x, z) <-left- b(x, y).  'right': a is B x C, b is A x C; (x, y) ->
    meet over z of a(y, z) -right-> b(x, z).
    """
    table = Q._residual_table
    if side == "left":
        return _scan(
            Q, b.cols, a.cols, _columns(a), _columns(b),
            lambda ty, tz: [table("left", tx, ty, tz) for tx in a.rows],
            join=False,
        )
    return _scan(
        Q, b.rows, a.rows, a.m, b.m,
        lambda tx, ty: [table("right", tx, ty, tz) for tz in a.cols],
        join=False,
    )


def _mat_leq(Q: Quantaloid, a: _Mat, b: _Mat) -> bool:
    """a <= b entrywise, for typed matrices of one shape and typing."""
    homs = Q.homs
    return all(
        homs[(tr, tc)].leq(u, v)
        for tr, ra, rb in zip(a.rows, a.m, b.m)
        for tc, u, v in zip(a.cols, ra, rb)
    )


def _weight_hom(base: QCategory, src: Sequence, tgt: Sequence) -> tuple:
    """hom[i][j] from src[i] to tgt[j] in the weight category of base, for
    weights of one variance: meet over a of tgt[j](a) <-left- src[i](a)
    for presheaves, of tgt[j](a) -right-> src[i](a) for copresheaves."""
    side = "right" if src and isinstance(src[0], Copresheaf) else "left"
    return _residuate(base.Q, side, _stack(base, tgt), _stack(base, src)).m


def compose_distributors(psi: QDistributor, phi: QDistributor) -> QDistributor:
    """psi after phi: (psi . phi)(x,z) = join over y of psi(y,z) . phi(x,y)."""
    if phi.cod is not psi.dom:
        raise CategoryMismatch("distributors are not composable")
    return QDistributor(phi.dom, psi.cod, _compose(phi.Q, _mat(psi), _mat(phi)).m)


def dist_residual(side: str, a: QDistributor, b: QDistributor) -> QDistributor:
    """Largest distributor solving a one-sided composition inequality.

    side='left': a : A -/-> C, b : A -/-> B, result : B -/-> C with
    result . b <= a.  side='right': a : B -/-> C, b : A -/-> C, result :
    A -/-> B with a . result <= b.
    """
    if side == "left":
        if a.dom is not b.dom:
            raise CategoryMismatch("left residual needs a common source category")
        dom, cod = b.cod, a.cod
    elif side == "right":
        if a.cod is not b.cod:
            raise CategoryMismatch("right residual needs a common target category")
        dom, cod = b.dom, a.dom
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return QDistributor(dom, cod, _residuate(a.Q, side, _mat(a), _mat(b)).m)


def dist_leq(phi: QDistributor, psi: QDistributor) -> bool:
    if phi.dom is not psi.dom or phi.cod is not psi.cod:
        raise CategoryMismatch("distributors are not parallel")
    return _mat_leq(phi.Q, _mat(phi), _mat(psi))


def dist_adjoint_check(phi: QDistributor, psi: QDistributor) -> bool:
    """True iff A <= psi.phi and phi.psi <= B (phi left adjoint to psi)."""
    if psi.dom is not phi.cod or psi.cod is not phi.dom:
        raise CategoryMismatch("adjoint candidate must run the other way")
    return dist_leq(
        identity_distributor(phi.dom), compose_distributors(psi, phi)
    ) and dist_leq(compose_distributors(phi, psi), identity_distributor(phi.cod))


def graph_cograph(F: QFunctor) -> tuple[QDistributor, QDistributor]:
    """The adjoint pair of distributors induced by a functor.

    graph(x,y) = B(Fx,y) : A -/-> B and cograph(y,x) = B(y,Fx) : B -/-> A.
    """
    A, B = F.dom, F.cod
    graph = QDistributor(
        A, B, [[B.hom_idx[F(x)][y] for y in range(len(B))] for x in range(len(A))]
    )
    cograph = QDistributor(
        B, A, [[B.hom_idx[y][F(x)] for x in range(len(A))] for y in range(len(B))]
    )
    return graph, cograph


# ---------------------------------------------------------------------------
# Weights: contravariant (presheaf) and covariant (copresheaf)
# ---------------------------------------------------------------------------


class Presheaf(NamedTuple):
    """Contravariant weight on `base`: weights[x] in Q(tx, type_idx),
    closed under the right action of the base homs."""

    base: QCategory
    type_idx: int
    weights: tuple[int, ...]

    def arrow(self, x: int) -> Arrow:
        return Arrow(self.base.types[x], self.type_idx, self.weights[x])


class Copresheaf(NamedTuple):
    """Covariant weight on `base`: weights[x] in Q(type_idx, tx),
    closed under the left action of the base homs."""

    base: QCategory
    type_idx: int
    weights: tuple[int, ...]

    def arrow(self, x: int) -> Arrow:
        return Arrow(self.type_idx, self.base.types[x], self.weights[x])


def validate_presheaf(mu: Presheaf) -> list[str]:
    A, Q = mu.base, mu.base.Q
    report = []
    for x in range(len(A)):
        for xp in range(len(A)):
            if not Q.leq(Q.compose(mu.arrow(xp), A.hom(x, xp)), mu.arrow(x)):
                report.append(f"action fails at ({A.labels[x]},{A.labels[xp]})")
    return report


def validate_copresheaf(lam: Copresheaf) -> list[str]:
    A, Q = lam.base, lam.base.Q
    report = []
    for x in range(len(A)):
        for xp in range(len(A)):
            if not Q.leq(Q.compose(A.hom(x, xp), lam.arrow(x)), lam.arrow(xp)):
                report.append(f"action fails at ({A.labels[x]},{A.labels[xp]})")
    return report


def weight_leq(a, b) -> bool:
    """Pointwise comparison of two weights of the same variance/type/base."""
    if a.base is not b.base or a.type_idx != b.type_idx or type(a) is not type(b):
        raise CategoryMismatch("weights are not comparable")
    return _mat_leq(a.base.Q, _mat(a), _mat(b))


def presheaf_hom(mu, nu) -> Arrow:
    """Hom-arrow from mu to nu in their weight category, in Q(type mu,
    type nu): meet over a of nu(a) <-left- mu(a) for presheaves, of
    nu(a) -right-> mu(a) for copresheaves.

    The underlying order of the copresheaf category reverses the pointwise
    order.
    """
    if type(mu) is not type(nu):
        raise CategoryMismatch("weights have different variances")
    if mu.base is not nu.base:
        raise CategoryMismatch("weights live on different categories")
    return Arrow(mu.type_idx, nu.type_idx, _weight_hom(mu.base, [mu], [nu])[0][0])


copresheaf_hom = presheaf_hom


def top_presheaf(A: QCategory, type_idx: int) -> Presheaf:
    return Presheaf(A, type_idx, tuple(A.Q.homs[(t, type_idx)].top for t in A.types))


def bottom_presheaf(A: QCategory, type_idx: int) -> Presheaf:
    return Presheaf(A, type_idx, tuple(A.Q.homs[(t, type_idx)].bottom for t in A.types))


def _pointwise(items: Sequence[Presheaf], A: QCategory, type_idx: int, meet: bool) -> Presheaf:
    homs = A.Q.homs
    weights = tuple(
        (lat.meet_all if meet else lat.join_all)(m.weights[x] for m in items)
        for x, lat in enumerate(homs[(t, type_idx)] for t in A.types)
    )
    return Presheaf(A, type_idx, weights)


def presheaf_meet(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Presheaf:
    """Pointwise meet; the empty meet is the all-top weight."""
    return _pointwise(items, A, type_idx, meet=True)


def presheaf_join(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Presheaf:
    """Pointwise join; the empty join is the all-bottom weight."""
    return _pointwise(items, A, type_idx, meet=False)


def presheaf_space_bound(A: QCategory, type_idx: int) -> int:
    return math.prod(A.Q.homs[(t, type_idx)].n for t in A.types)


def _action_constraints(A: QCategory, t: int, contra: bool) -> tuple[list, list]:
    """The action constraints on weights of type t as bitmasks over hom indices.

    For objects s and d and a value v at s, allow(s, d)[v] is the set of
    values at d that the constraint between them permits: mu(s) . A(d, s)
    <= mu(d) for presheaves, A(s, d) . lam(s) <= lam(d) for copresheaves.
    Returns dom, where dom[x] holds the values at x that satisfy the
    constraint of x with itself, and links, where links[j] lists (i, masks)
    for i > j: once position j holds w, position i keeps masks[w], the
    values allowed by both constraints between i and j.  Links that cut no
    value of dom[i] are left out.
    """
    Q = A.Q
    comp, homs = Q.compose_tables, Q.homs
    types, hom = A.types, A.hom_idx
    cache: dict = {}

    def allow(s: int, d: int) -> list:
        ts, td = types[s], types[d]
        a = hom[d][s] if contra else hom[s][d]
        key = (ts, td, a)
        masks = cache.get(key)
        if masks is None:
            if contra:
                up = homs[(td, t)]._up
                masks = [up[row[a]] for row in comp[(td, ts, t)]]
            else:
                up = homs[(t, td)]._up
                masks = [up[c] for c in comp[(t, ts, td)][a]]
            cache[key] = masks
        return masks

    n = len(types)
    dom = [
        sum(1 << v for v, m in enumerate(allow(x, x)) if m >> v & 1) for x in range(n)
    ]
    links: list = [[] for _ in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            back = allow(i, j)
            masks = [
                m & sum(1 << v for v, b in enumerate(back) if b >> w & 1)
                for w, m in enumerate(allow(j, i))
            ]
            keep = dom[i]
            if any(m & keep != keep for m in masks):
                links[j].append((i, masks))
    return dom, links


def _assignments(dom: list, links: list) -> list:
    """Every tuple v with v[x] in dom[x] that the links allow, in
    lexicographic (itertools.product) order.

    Depth-first over positions 0..n-1 with an explicit stack, values in
    ascending order; assigning a position narrows the domains of the later
    positions it links to, and a branch is cut when one of them empties.
    """
    n = len(dom)
    if not all(dom):
        return []
    if n == 0:
        return [()]
    out = []
    vals = [0] * n
    doms = [dom] + [None] * (n - 1)
    todo = [dom[0]] + [0] * (n - 1)
    d = 0
    while d >= 0:
        rest = todo[d]
        if not rest:
            d -= 1
            continue
        low = rest & -rest
        todo[d] = rest ^ low
        w = low.bit_length() - 1
        vals[d] = w
        if d + 1 == n:
            out.append(tuple(vals))
            continue
        cur = doms[d]
        nxt = cur
        for i, masks in links[d]:
            m = nxt[i] & masks[w]
            if not m:
                break
            if m != nxt[i]:
                if nxt is cur:
                    nxt = list(cur)
                nxt[i] = m
        else:
            d += 1
            doms[d] = nxt
            todo[d] = nxt[d]
    return out


def enumerate_presheaves(
    A: QCategory, variance: str = "contra", cap: int | None = None
) -> list:
    """All valid weights, grouped by type in quantaloid-object order and,
    within a type, in itertools.product order of their hom indices.

    Raises PresheafSpaceTooLarge, before any weight is built, when the
    candidate space for some type exceeds the cap (env var
    QUANTCAT_PRESHEAF_CAP or 200000 by default).
    """
    if variance not in ("contra", "co"):
        raise ValueError(f"variance must be 'contra' or 'co', got {variance!r}")
    if cap is None:
        cap = default_cap()
    Q = A.Q
    contra = variance == "contra"
    for t in range(len(Q.objects)):
        bound = math.prod(Q.homs[(tx, t) if contra else (t, tx)].n for tx in A.types)
        if bound > cap:
            raise PresheafSpaceTooLarge(bound, cap)
    weight = Presheaf if contra else Copresheaf
    return [
        weight(A, t, weights)
        for t in range(len(Q.objects))
        for weights in _assignments(*_action_constraints(A, t, contra))
    ]


class PresheafCategory(QCategory):
    """The category of all weights of one variance on a base category.

    Skeletal and complete; elements are labelled p0, p1, ... in
    enumeration order and typed by the weight's type object.
    """

    def __init__(self, base: QCategory, variance: str, weights: Sequence):
        self.base = base
        self.variance = variance
        self.weights_list = tuple(weights)
        self._index = {w.weights + (w.type_idx,): i for i, w in enumerate(self.weights_list)}
        if len(self._index) != len(self.weights_list):
            raise StructureError("duplicate weights")
        super().__init__(
            base.Q,
            [f"p{i}" for i in range(len(self.weights_list))],
            [w.type_idx for w in self.weights_list],
            _weight_hom(base, self.weights_list, self.weights_list),
        )

    def index_of(self, w) -> int:
        if w.base is not self.base:
            raise CategoryMismatch("weight lives on a different base category")
        try:
            return self._index[w.weights + (w.type_idx,)]
        except KeyError:
            raise InternalCheckError(
                "weight is not in the enumerated category; action closure is broken"
            ) from None

    def weight_at(self, i: int):
        return self.weights_list[i]


def presheaf_category(A: QCategory, variance: str = "contra") -> PresheafCategory:
    return PresheafCategory(A, variance, enumerate_presheaves(A, variance))


def yoneda_weight(A: QCategory, a: int) -> Presheaf:
    """The represented presheaf A(-, a): column a of A's identity."""
    return _presheaves(A, _mat(identity_distributor(A)))[a]


def coyoneda_weight(A: QCategory, a: int) -> Copresheaf:
    """The represented copresheaf A(a, -): row a of A's identity."""
    return _copresheaves(A, _mat(identity_distributor(A)))[a]


def yoneda(A: QCategory, P: PresheafCategory) -> QFunctor:
    """The embedding of A into its (co)presheaf category; fully faithful."""
    if P.base is not A:
        raise CategoryMismatch("presheaf category has a different base")
    represented = yoneda_weight if P.variance == "contra" else coyoneda_weight
    return QFunctor(A, P, [P.index_of(represented(A, a)) for a in range(len(A))])


# ---------------------------------------------------------------------------
# Image of weights along a functor (four variants, two adjoint pairs)
# ---------------------------------------------------------------------------


def _check_image(F: QFunctor, w, base: QCategory, end: str) -> None:
    """w must live on `base`, and F must keep types: otherwise an entry of
    the image would be read from the wrong hom."""
    if w.base is not base:
        kind = "presheaf" if isinstance(w, Presheaf) else "copresheaf"
        raise CategoryMismatch(f"{kind} does not live on the functor's {end}")
    failures = type_failures(F)
    if failures:
        raise ObjectMismatch(failures[0])


def direct_image(F: QFunctor, mu: Presheaf) -> Presheaf:
    """Left adjoint on presheaves: (b) -> join over a of mu(a) . B(b,Fa)."""
    _check_image(F, mu, F.dom, "source")
    A, B, Q = F.dom, F.cod, F.dom.Q
    weights = tuple(
        Q.join(
            B.types[b],
            mu.type_idx,
            [
                Q.compose(mu.arrow(a), Arrow(B.types[b], A.types[a], B.hom_idx[b][F(a)]))
                for a in range(len(A))
            ],
        ).idx
        for b in range(len(B))
    )
    return Presheaf(B, mu.type_idx, weights)


def inverse_image(F: QFunctor, lam):
    """Restriction along F, of a presheaf (right adjoint to direct_image)
    or of a copresheaf (left adjoint to codirect_image)."""
    _check_image(F, lam, F.cod, "target")
    return type(lam)(F.dom, lam.type_idx, tuple(lam.weights[F(a)] for a in range(len(F.dom))))


coinverse_image = inverse_image


def codirect_image(F: QFunctor, nu: Copresheaf) -> Copresheaf:
    """Right adjoint on copresheaves: (b) -> join over a of B(Fa,b) . nu(a)."""
    _check_image(F, nu, F.dom, "source")
    A, B, Q = F.dom, F.cod, F.dom.Q
    weights = tuple(
        Q.join(
            nu.type_idx,
            B.types[b],
            [
                Q.compose(Arrow(A.types[a], B.types[b], B.hom_idx[F(a)][b]), nu.arrow(a))
                for a in range(len(A))
            ],
        ).idx
        for b in range(len(B))
    )
    return Copresheaf(B, nu.type_idx, weights)


_IMAGE_KINDS = {
    "ra": direct_image,
    "la": inverse_image,
    "nra": codirect_image,
    "nla": coinverse_image,
}


def image_functor(
    F: QFunctor, kind: str, source_ps: PresheafCategory, target_ps: PresheafCategory
) -> QFunctor:
    """The pointwise image operation as a functor between weight categories.

    kind: 'ra' direct image (left adjoint), 'la' inverse image (its right
    adjoint), 'nra' covariant direct image (right adjoint), 'nla' covariant
    restriction (its left adjoint).
    """
    try:
        op = _IMAGE_KINDS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(_IMAGE_KINDS)}, got {kind!r}") from None
    forward = kind in ("ra", "nra")
    want_src = F.dom if forward else F.cod
    want_tgt = F.cod if forward else F.dom
    if source_ps.base is not want_src or target_ps.base is not want_tgt:
        raise CategoryMismatch("weight categories do not match the functor endpoints")
    want_var = "contra" if kind in ("ra", "la") else "co"
    if source_ps.variance != want_var or target_ps.variance != want_var:
        raise CategoryMismatch(f"kind {kind!r} needs {want_var}variant weight categories")
    mapping = [
        target_ps.index_of(op(F, source_ps.weight_at(i))) for i in range(len(source_ps))
    ]
    return QFunctor(source_ps, target_ps, mapping)


# ---------------------------------------------------------------------------
# Infomorphisms between distributors
# ---------------------------------------------------------------------------


class Infomorphism(NamedTuple):
    """A pair of functors (F on sources, G backwards on targets) with
    source(x, G y') = target(F x, y') for all x, y'."""

    source: QDistributor
    target: QDistributor
    F: QFunctor
    G: QFunctor


def validate_infomorphism(i: Infomorphism) -> list[str]:
    phi, psi, F, G = i
    if F.dom is not phi.dom or F.cod is not psi.dom:
        raise CategoryMismatch("forward functor endpoints do not match")
    if G.dom is not psi.cod or G.cod is not phi.cod:
        raise CategoryMismatch("backward functor endpoints do not match")
    # Cells of phi and psi lie in the same hom only where both maps keep types.
    report = [f"object_map: {p}" for p in type_failures(F)]
    report += [f"attribute_map: {p}" for p in type_failures(G)]
    if report:
        return report
    for x in range(len(phi.dom)):
        for yp in range(len(psi.cod)):
            if phi.matrix[x][G(yp)] != psi.matrix[F(x)][yp]:
                report.append(
                    f"exchange fails at ({phi.dom.labels[x]},{psi.cod.labels[yp]})"
                )
    return report


def infomorphism(
    source: QDistributor, target: QDistributor, F: QFunctor, G: QFunctor
) -> Infomorphism:
    i = Infomorphism(source, target, F, G)
    report = validate_infomorphism(i)
    if report:
        raise InvalidInfomorphism("; ".join(report[:3]))
    return i


def identity_infomorphism(phi: QDistributor) -> Infomorphism:
    from .enriched import identity_functor

    return Infomorphism(phi, phi, identity_functor(phi.dom), identity_functor(phi.cod))


def compose_infomorphisms(j: Infomorphism, i: Infomorphism) -> Infomorphism:
    """j after i; i.target must be j.source (same instance)."""
    from .enriched import compose_functors

    if i.target is not j.source:
        raise CategoryMismatch("infomorphisms are not composable")
    return Infomorphism(
        i.source,
        j.target,
        compose_functors(j.F, i.F),
        compose_functors(i.G, j.G),
    )


def membership_distributor(A: QCategory, P: PresheafCategory) -> QDistributor:
    """The evaluation distributor A -/-> PA, (x, mu) -> mu(x).

    This is the graph of the Yoneda embedding.
    """
    if P.base is not A or P.variance != "contra":
        raise CategoryMismatch("need the contravariant weight category of A")
    return QDistributor(A, P, _stack(A, P.weights_list).m)


def yoneda_infomorphism(
    F: QFunctor, PA: PresheafCategory, PB: PresheafCategory
) -> Infomorphism:
    """Every functor induces an infomorphism between the evaluation
    distributors of its endpoints, with inverse image as the backward leg."""
    phi = membership_distributor(F.dom, PA)
    psi = membership_distributor(F.cod, PB)
    G = image_functor(F, "la", PB, PA)
    return infomorphism(phi, psi, F, G)
