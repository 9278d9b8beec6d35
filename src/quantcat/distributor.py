"""Bimodules between enriched categories, weights, and their categories."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple, Sequence

from .enriched import (
    QCategory,
    QFunctor,
    _exceeding,
    _first_outside,
    compose_functors,
    identity_functor,
    type_failures,
)
from .errors import (
    ArrowTypeError,
    CategoryMismatch,
    InternalCheckError,
    InvalidInfomorphism,
    ObjectMismatch,
    PresheafSpaceTooLarge,
    StructureError,
)
from .quantaloid import Arrow, Quantaloid, _bits, _check_type, _is_index, env_bound

DEFAULT_CAP = 200_000
CROSS_CHECK_LIMIT = 10_000  # largest weight space cross-checked by brute enumeration
CAP_ENV_VAR = "QUANTCAT_PRESHEAF_CAP"


def default_cap() -> int:
    return env_bound(CAP_ENV_VAR, DEFAULT_CAP)


class QDistributor:
    """A matrix of arrows phi(x,y) in Q(tx,ty) compatible with both hom actions.

    `dom` and `cod` are the source and target categories; `matrix[x][y]`
    indexes into Q(tx, ty).  `rows` and `cols` are the matrix as the
    kernels take it: its rows, a family along cod typed by dom, and its
    columns, a family along dom typed by cod.  Every entry must be an index
    of its hom lattice (the kernels key their tables and bitsets by entry):
    the first that is not raises ArrowTypeError.
    """

    __slots__ = ("dom", "cod", "matrix", "rows", "cols")

    def __init__(self, dom: QCategory, cod: QCategory, matrix: Sequence[Sequence[int]]):
        if dom.Q is not cod.Q:
            raise CategoryMismatch("distributor endpoints live over different quantaloids")
        self.dom = dom
        self.cod = cod
        self.matrix = tuple(tuple(row) for row in matrix)
        if len(self.matrix) != len(dom) or any(len(r) != len(cod) for r in self.matrix):
            raise StructureError("distributor matrix has wrong shape")
        if cell := _first_outside(dom.Q, dom.types, cod.types, self.matrix):
            x, y = dom.labels[cell[0]], cod.labels[cell[1]]
            raise ArrowTypeError(f"entry ({x},{y}) is outside its hom lattice")
        self.rows = (dom.types, self.matrix)
        self.cols = (cod.types, tuple(zip(*self.matrix)) or ((),) * len(cod))

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
    """Violated action constraints with witnesses; empty = valid.  Its
    entries lie in their hom lattices, as QDistributor checks."""
    Q, A, B, m = phi.Q, phi.dom, phi.cod, phi.matrix
    # B(y', y) . phi(x, y') <= phi(x, y) and phi(x', y) . A(x, x') <= phi(x, y)
    target = [
        ((x, y), f"target action fails at ({A.labels[x]},{B.labels[yp]},{B.labels[y]})")
        for x, yp, y in _exceeding(Q, (A.types, B.types, B.types), m, B.hom_idx, m)
    ]
    source = [
        ((x, y), f"source action fails at ({A.labels[x]},{A.labels[xp]},{B.labels[y]})")
        for x, xp, y in _exceeding(Q, (A.types, A.types, B.types), A.hom_idx, m, m)
    ]
    # Per cell (x, y): its target-action failures, then its source-action ones.
    return [line for _, line in sorted(target + source, key=itemgetter(0))]


def compose_distributors(psi: QDistributor, phi: QDistributor) -> QDistributor:
    """psi after phi: (psi . phi)(x,z) = join over y of psi(y,z) . phi(x,y)."""
    if phi.cod is not psi.dom:
        raise CategoryMismatch("distributors are not composable")
    matrix = _contract(phi.Q, "compose", phi.cod.types, psi.cols, phi.rows)
    return QDistributor(phi.dom, psi.cod, matrix)


def dist_residual(side: str, a: QDistributor, b: QDistributor) -> QDistributor:
    """Largest distributor solving a one-sided composition inequality.

    side='left': a : A -/-> C, b : A -/-> B, result : B -/-> C with
    result . b <= a.  side='right': a : B -/-> C, b : A -/-> C, result :
    A -/-> B with a . result <= b.
    """
    if side == "left":
        if a.dom is not b.dom:
            raise CategoryMismatch("left residual needs a common source category")
        dom, cod, mid, ends = b.cod, a.cod, a.dom, (a.cols, b.cols)
    elif side == "right":
        if a.cod is not b.cod:
            raise CategoryMismatch("right residual needs a common target category")
        dom, cod, mid, ends = b.dom, a.dom, a.cod, (a.rows, b.rows)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return QDistributor(dom, cod, _contract(a.Q, side, mid.types, *ends))


def dist_leq(phi: QDistributor, psi: QDistributor) -> bool:
    if phi.dom is not psi.dom or phi.cod is not psi.cod:
        raise CategoryMismatch("distributors are not parallel")
    return _pointwise_leq(phi.Q, phi.cod.types, phi.dom.types, phi.matrix, psi.matrix, False)


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


class _Weight(NamedTuple):
    base: QCategory
    type_idx: int
    weights: tuple[int, ...]

    # A presheaf and a copresheaf with equal fields are different weights.
    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Presheaf(_Weight):
    """Contravariant weight on `base`: weights[x] in Q(tx, type_idx),
    closed under the right action of the base homs."""

    __slots__ = ()

    def arrow(self, x: int) -> Arrow:
        return Arrow(self.base.types[x], self.type_idx, self.weights[x])


class Copresheaf(_Weight):
    """Covariant weight on `base`: weights[x] in Q(type_idx, tx),
    closed under the left action of the base homs."""

    __slots__ = ()

    def arrow(self, x: int) -> Arrow:
        return Arrow(self.type_idx, self.base.types[x], self.weights[x])


# The kernels take each operand as a family: (types, vecs), typed vectors
# along the index they contract, vecs[i][k] the entry at k of the member of
# type types[i].  Weights of either variance on a category are a family
# along its objects, (their types, their .weights); a distributor gives its
# rows or its columns.


def _contract(Q: Quantaloid, kind: str, mid, a, b, by_cols: bool = False):
    """out[r][c] = join (kind 'compose') or meet (kind 'left' or 'right')
    over k of tabs[k][a[c][k]][b[r][k]], folded in Q(tr, tc), for families
    a (the columns, of types tc) and b (the rows, of types tr) along mid,
    with tabs the quantaloid's table list for (kind, mid, tr, tc): the rows
    of out, or its columns when `by_cols`.

    'compose' is psi after phi, a = psi and b = phi: (x, z) -> join over y
    of psi(y, z) . phi(x, y), from the columns of psi and the rows of phi.
    The residuals have dist_residual's sides: 'left', (y, z) -> meet over
    x of a(x, z) <-left- b(x, y), from the columns of a and b; 'right',
    (x, y) -> meet over z of a(y, z) -right-> b(x, z), from their rows.

    Calls past the size rule (`_slicing_pays`) take the bit-sliced path,
    `_sliced`; the others fold one cell at a time here.  Both give the
    same out.
    """
    if len(a[0]) >= _SLICED_MIN <= len(b[0]) and _slicing_pays(Q, a, b):
        return _sliced(Q, kind, mid, a, b, by_cols)
    homs, lists = Q.homs, Q._table_lists
    join = kind == "compose"
    cache: dict = {}  # one store lookup, which hashes mid, per type pair
    out = []
    for tr, v in zip(*b):
        row = []
        for tc, u in zip(*a):
            key = (tr, tc)
            tabs = cache.get(key)
            if tabs is None:
                tabs = cache[key] = lists[(kind, mid, tr, tc)]
            lat = homs[key]
            if join:
                op, acc = lat._join, lat.bottom
            else:
                op, acc = lat._meet, lat.top
            for tab, i, j in zip(tabs, u, v):
                acc = op[acc][tab[i][j]]
            row.append(acc)
        out.append(tuple(row))
    return _oriented(out, a, by_cols)


def _oriented(out: list, a, by_cols: bool) -> tuple:
    """The rows `out` of a kernel result, or its columns when `by_cols`."""
    if by_cols:
        return tuple(zip(*out)) or ((),) * len(a[0])
    return tuple(out)


# The size rule: the bit-sliced path pays once the rows and the columns
# both number at least max(_SLICED_MIN, _SLICED_PER_ELEMENT x the largest
# hom lattice the results lie in).  Below it, building the slices and the
# per-element sets costs more than folding the cells.  A cell is read off
# as one byte, so a lattice of more than 256 elements keeps the cell loop.
_SLICED_MIN = 8
_SLICED_PER_ELEMENT = 4


def _slicing_pays(Q: Quantaloid, a, b) -> bool:
    """The size rule past its first half, rows and columns at least
    _SLICED_MIN each, which _contract tests inline since most calls are
    small."""
    largest = max(Q.homs[(tr, tc)].n for tr in set(b[0]) for tc in set(a[0]))
    return min(len(a[0]), len(b[0])) >= _SLICED_PER_ELEMENT * largest and largest <= 256


def _sliced(Q: Quantaloid, kind: str, mid, a, b, by_cols: bool = False):
    """_contract a whole row of one column type per pass, on bit-sliced
    columns, for result hom lattices of at most 256 elements.

    For each column type, slices[k][x] is the set, as an int of bits, of
    the columns of that type whose entry at k is x.  For a meet kind, the
    columns c with out[r][c] >= alpha are the AND over k of the OR of the
    slices[k][x] with tab_k[x][b[r][k]] >= alpha; for the join kind the
    same AND with <= gives the columns with out[r][c] <= alpha.  Each OR is
    kept per (type pair, k, row entry, alpha).  A cell is then the first
    alpha, along a linear extension of Q(tr, tc) walked top-down for a meet
    and bottom-up for a join, whose set holds its column: that alpha is the
    cell itself.  The last alpha of the walk holds every column, so the
    columns no earlier alpha took get it.  A row is assembled as an int
    with one byte per column: the set of an alpha, its bits spread to
    bytes, times alpha.
    """
    join = kind == "compose"
    by_type: dict = {}
    for c, tc in enumerate(a[0]):
        by_type.setdefault(tc, []).append(c)
    blocks = []  # per column type: its columns and, per row, their cells
    for tc, cols in by_type.items():
        slices: list = [{} for _ in mid]
        for bit, c in enumerate(cols):
            for s, x in zip(slices, a[1][c]):
                s[x] = s.get(x, 0) | 1 << bit
        width = len(cols)
        every, spread = (1 << width) - 1, f"0{width}b"
        by_row_type: dict = {}  # per row type: what a row of that type reads
        cells = []
        for tr, v in zip(*b):
            reads = by_row_type.get(tr)
            if reads is None:
                lat = Q.homs[(tr, tc)]
                up = [h for h, _ in lat._lower_covers]  # a bottom-up linear extension
                order = up if join else up[::-1]
                reads = by_row_type[tr] = (
                    Q._table_lists[(kind, mid, tr, tc)],
                    lat._down if join else lat._up,
                    order[:-1],
                    order[-1],
                    {},
                )
            tabs, within, steps, last, ors = reads
            rest, row = every, 0
            for alpha in steps:
                hit = rest
                for k, y in enumerate(v):
                    key = (k, y, alpha)
                    m = ors.get(key)
                    if m is None:
                        tab, w, m = tabs[k], within[alpha], 0
                        for x, s in slices[k].items():
                            if w >> tab[x][y] & 1:
                                m |= s
                        ors[key] = m
                    hit &= m
                    if not hit:
                        break
                if hit:
                    rest ^= hit
                    row += alpha * _spread(hit, spread)
                    if not rest:
                        break
            row += last * _spread(rest, spread)
            cells.append(tuple(row.to_bytes(width, "little")))
        blocks.append((cols, cells))
    if len(blocks) == 1:
        out = blocks[0][1]
    else:
        out = []
        for r in range(len(b[0])):
            row = [0] * len(a[0])
            for cols, cells in blocks:
                for c, x in zip(cols, cells[r]):
                    row[c] = x
            out.append(tuple(row))
    return _oriented(out, a, by_cols)


_BITS_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _spread(bits: int, spec: str) -> int:
    """An int whose byte i is bit i of `bits`, for `spec` = f"0{width}b"."""
    return int.from_bytes(format(bits, spec).encode().translate(_BITS_TO_BYTES), "big")


def _pointwise_leq(Q: Quantaloid, mid, types, a, b, contra: bool) -> bool:
    """a <= b entrywise, for the vectors of two families along mid with
    member types `types`, whose entries lie in Q(mid[k], t) when contra
    (presheaves, columns), else in Q(t, mid[k]) (copresheaves, rows)."""
    homs = Q.homs
    return all(
        homs[(s, t) if contra else (t, s)].leq(u, v)
        for t, ra, rb in zip(types, a, b)
        for s, u, v in zip(mid, ra, rb)
    )


def _family(ws: Sequence) -> tuple:
    """Weights of one variance as a family along their base."""
    return tuple([w.type_idx for w in ws]), tuple([w.weights for w in ws])


def _weight_hom(Q: Quantaloid, mid, src, tgt, contra: bool) -> tuple:
    """hom[i][j] from src[i] to tgt[j] in a weight category, for families of
    weights along mid: meet over a of tgt[j](a) <-left- src[i](a) for
    presheaves (contra), of tgt[j](a) -right-> src[i](a) for copresheaves."""
    return _contract(Q, "left" if contra else "right", mid, tgt, src)


class _Transform(NamedTuple):
    weight: type  # the weight class it takes
    end: str  # the end of the matrix that weight lives on; its image lives on the other
    kind: str  # the kernel kind that contracts it with the matrix along that end
    by_cols: bool  # whether the weights are the kernel's columns (operand a), not its rows

    def kernel(self, Q: Quantaloid, R, C, W) -> tuple:
        """The images of a family W of weights along the matrix with rows R
        and columns C (R[0] types its source, C[0] its target): one kernel
        call, one vector per member of W."""
        M, mid = (C, R[0]) if self.end == "source" else (R, C[0])
        if self.by_cols:
            return _contract(Q, self.kind, mid, W, M, True)
        return _contract(Q, self.kind, mid, M, W)


# The Isbell pair (up, down) and the Kan transforms of a distributor's
# weights.  up and down are also the bounds of weights: the upper bounds
# of a presheaf along a matrix, the lower bounds of a copresheaf.
_TRANSFORMS = {
    "up": _Transform(Presheaf, "source", "left", False),
    "down": _Transform(Copresheaf, "target", "right", True),
    "star": _Transform(Presheaf, "target", "compose", True),
    "lower": _Transform(Presheaf, "source", "left", True),
    "dag": _Transform(Copresheaf, "source", "compose", False),
    "lower_dag": _Transform(Copresheaf, "target", "right", False),
}


def _check_weight(w, base=None, kind=None, where: str = "the same category") -> None:
    """The weight rule for a weight handed to a public entry point: a
    Presheaf or Copresheaf (of class `kind` when given) on `base` (when
    given), one entry per object, a type index among the quantaloid's
    objects and every entry an index of its hom lattice (`_is_index`).
    CategoryMismatch for the class or the base, StructureError for the
    length or the type, ArrowTypeError for an entry.  Weights the library
    builds itself are not checked again."""
    if not isinstance(w, kind or _Weight):
        want = kind.__name__.lower() if kind else "weight"
        raise CategoryMismatch(f"expected a {want} on {where}, got a {type(w).__name__}")
    if base is not None and w.base is not base:
        raise CategoryMismatch(f"{type(w).__name__.lower()} does not live on {where}")
    if len(w.weights) != len(w.base):
        raise StructureError(f"weight has {len(w.weights)} entries for {len(w.base)} objects")
    A, t = w.base, w.type_idx
    _check_type(A.Q, t)
    homs, contra = A.Q.homs, isinstance(w, Presheaf)
    for x, s, v in zip(A.labels, A.types, w.weights):
        if not _is_index(v, homs[(s, t) if contra else (t, s)].n):
            raise ArrowTypeError(f"entry {x} is outside its hom lattice")


def _check_object(A: QCategory, x) -> None:
    """The object-index rule, O(1), for a bare object index handed to a
    public entry point: an index among A's objects."""
    if not _is_index(x, len(A)):
        raise StructureError(f"object index {x} out of range")


def validate_presheaf(w) -> list[str]:
    """Violated action constraints of a presheaf or a copresheaf, checked as
    its one-column or one-row matrix; empty = valid.  A malformed weight,
    an entry outside its hom lattice included, fails _check_weight."""
    _check_weight(w)
    A, Q, t = w.base, w.base.Q, (w.type_idx,)
    if isinstance(w, Presheaf):  # one column: mu(x') . A(x, x') <= mu(x)
        m = tuple(zip(w.weights))
        found = _exceeding(Q, (A.types, A.types, t), A.hom_idx, m, m)
        pairs = [(x, xp) for x, xp, _ in found]
    else:  # one row: A(x, x') . lam(x) <= lam(x')
        m = (w.weights,)
        found = _exceeding(Q, (t, A.types, A.types), m, A.hom_idx, m)
        pairs = [(x, xp) for _, x, xp in found]
    return [f"action fails at ({A.labels[x]},{A.labels[xp]})" for x, xp in pairs]


def weight_leq(a, b) -> bool:
    """Pointwise comparison of two weights of the same variance/type/base."""
    _check_weight(a)
    _check_weight(b, a.base, type(a))
    if a.type_idx != b.type_idx:
        raise CategoryMismatch("weights are not comparable")
    A, contra = a.base, isinstance(a, Presheaf)
    return _pointwise_leq(A.Q, A.types, (a.type_idx,), (a.weights,), (b.weights,), contra)


def presheaf_hom(mu, nu) -> Arrow:
    """Hom-arrow from mu to nu in their weight category, in Q(type mu,
    type nu): meet over a of nu(a) <-left- mu(a) for presheaves, of
    nu(a) -right-> mu(a) for copresheaves.

    The underlying order of the copresheaf category reverses the pointwise
    order.
    """
    _check_weight(mu)
    _check_weight(nu, mu.base, type(mu))
    A, src, tgt = mu.base, ((mu.type_idx,), (mu.weights,)), ((nu.type_idx,), (nu.weights,))
    hom = _weight_hom(A.Q, A.types, src, tgt, isinstance(mu, Presheaf))
    return Arrow(mu.type_idx, nu.type_idx, hom[0][0])


def top_presheaf(A: QCategory, type_idx: int) -> Presheaf:
    _check_type(A.Q, type_idx)
    return Presheaf(A, type_idx, tuple(A.Q.homs[(t, type_idx)].top for t in A.types))


def bottom_presheaf(A: QCategory, type_idx: int) -> Presheaf:
    _check_type(A.Q, type_idx)
    return Presheaf(A, type_idx, tuple(A.Q.homs[(t, type_idx)].bottom for t in A.types))


def _pointwise(items: Sequence[Presheaf], A: QCategory, type_idx: int, meet: bool) -> Presheaf:
    homs = A.Q.homs
    weights = tuple(
        (lat.meet_all if meet else lat.join_all)(m.weights[x] for m in items)
        for x, lat in enumerate(homs[(t, type_idx)] for t in A.types)
    )
    return Presheaf(A, type_idx, weights)


def _of_type(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Sequence[Presheaf]:
    _check_type(A.Q, type_idx)
    for m in items:
        _check_weight(m)
        if type(m) is not Presheaf or m.base is not A or m.type_idx != type_idx:
            raise CategoryMismatch(f"pointwise bounds need presheaves of type {type_idx} on A")
    return items


def presheaf_meet(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Presheaf:
    """Pointwise meet; the empty meet is the all-top weight."""
    return _pointwise(_of_type(items, A, type_idx), A, type_idx, meet=True)


def presheaf_join(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Presheaf:
    """Pointwise join; the empty join is the all-bottom weight."""
    return _pointwise(_of_type(items, A, type_idx), A, type_idx, meet=False)


def presheaf_space_bound(A: QCategory, type_idx: int) -> int:
    _check_type(A.Q, type_idx)
    return math.prod(A.Q.homs[(t, type_idx)].n for t in A.types)


def _action_constraints(A: QCategory, t: int, contra: bool) -> tuple[list, list]:
    """The action constraints on weights of type t as bitmasks over hom indices.

    For objects s and d and a value v at s, allow(s, d)[v] is the set of
    values at d that the constraint between them permits: mu(s) . A(d, s)
    <= mu(d) for presheaves, A(s, d) . lam(s) <= lam(d) for copresheaves.
    Returns dom, where dom[x] holds the values at x that satisfy the
    constraint of x with itself, and links, where links[i] lists (j, masks)
    for j < i: once position j holds w, position i keeps masks[w], the
    values allowed by both constraints between i and j.  Links that cut no
    value of dom[i] are left out.
    """
    comp, homs, types, hom = A.Q.compose_tables, A.Q.homs, A.types, A.hom_idx
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

    dom = [sum(1 << v for v, m in enumerate(allow(x, x)) if m >> v & 1) for x in range(len(types))]
    links: list = [[] for _ in dom]
    for i, keep in enumerate(dom):
        for j in range(i):
            back = allow(i, j)
            masks = [
                m & sum(1 << v for v, b in enumerate(back) if b >> w & 1)
                for w, m in enumerate(allow(j, i))
            ]
            if any(m & keep != keep for m in masks):
                links[i].append((j, masks))
    return dom, links


def _assignments(dom: list, links: list) -> list:
    """Every tuple v with v[x] in dom[x] that the links allow, in
    lexicographic (itertools.product) order.  Each prefix, in order, grows
    by the values of the next dom[i] that its links leave, ascending.  On a
    category no prefix dead-ends (p extends to x -> join_s p(s) . A(x, s)),
    so no level holds more prefixes than the result has weights; on any
    matrix no level exceeds the capped candidate space.
    """
    prefixes: list = [()]
    values: dict = {}  # a mask -> its values, as one-tuples
    for d, ties in zip(dom, links):
        grown = []
        for p in prefixes:
            m = d
            for j, masks in ties:
                m &= masks[p[j]]
            if m not in values:
                values[m] = [(v,) for v in _bits(m)]
            grown.extend([p + v for v in values[m]])
        prefixes = grown
    return prefixes


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
        family = _family(self.weights_list)
        super().__init__(
            base.Q,
            [f"p{i}" for i in range(len(self.weights_list))],
            family[0],
            _weight_hom(base.Q, base.types, family, family, variance == "contra"),
        )

    def index_of(self, w) -> int:
        kind = Presheaf if self.variance == "contra" else Copresheaf
        _check_weight(w, self.base, kind, "the base category")
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
    _check_object(A, a)
    return Presheaf(A, A.types[a], tuple(row[a] for row in A.hom_idx))


def coyoneda_weight(A: QCategory, a: int) -> Copresheaf:
    """The represented copresheaf A(a, -): row a of A's identity."""
    _check_object(A, a)
    return Copresheaf(A, A.types[a], A.hom_idx[a])


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
    """w must be a weight on `base`, and F must keep types: otherwise an
    entry of the image would be read from the wrong hom."""
    _check_weight(w, base, None, f"the functor's {end}")
    failures = type_failures(F)
    if failures:
        raise ObjectMismatch(failures[0])


def direct_image(F: QFunctor, w):
    """The image of a weight along F: of a presheaf, b -> join over a of
    w(a) . B(b,Fa), left adjoint to inverse_image; of a copresheaf, b ->
    join over a of B(Fa,b) . w(a), right adjoint to inverse_image.
    Written out, not by the weight kernel, which the laws compare it with."""
    _check_image(F, w, F.dom, "source")
    A, B, Q = F.dom, F.cod, F.dom.Q
    t, hom, tabs, contra = w.type_idx, B.hom_idx, Q.compose_tables, isinstance(w, Presheaf)
    weights = []
    for b, tb in enumerate(B.types):
        lat = Q.homs[(tb, t) if contra else (t, tb)]
        acc = lat.bottom
        for a, (ta, v) in enumerate(zip(A.types, w.weights)):
            if contra:
                acc = lat._join[acc][tabs[(tb, ta, t)][v][hom[b][F(a)]]]
            else:
                acc = lat._join[acc][tabs[(t, ta, tb)][hom[F(a)][b]][v]]
        weights.append(acc)
    return type(w)(B, t, tuple(weights))


def inverse_image(F: QFunctor, lam):
    """Restriction along F, of a presheaf (right adjoint to direct_image)
    or of a copresheaf (left adjoint to direct_image)."""
    _check_image(F, lam, F.cod, "target")
    return type(lam)(F.dom, lam.type_idx, tuple(lam.weights[F(a)] for a in range(len(F.dom))))


_IMAGE_KINDS = {
    "ra": direct_image,
    "la": inverse_image,
    "nra": direct_image,
    "nla": inverse_image,
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
    return Infomorphism(phi, phi, identity_functor(phi.dom), identity_functor(phi.cod))


def compose_infomorphisms(j: Infomorphism, i: Infomorphism) -> Infomorphism:
    """j after i; i.target must be j.source (same instance)."""
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
    return QDistributor(A, P, [[w.weights[x] for w in P.weights_list] for x in range(len(A))])


def yoneda_infomorphism(
    F: QFunctor, PA: PresheafCategory, PB: PresheafCategory
) -> Infomorphism:
    """Every functor induces an infomorphism between the evaluation
    distributors of its endpoints, with inverse image as the backward leg."""
    phi = membership_distributor(F.dom, PA)
    psi = membership_distributor(F.cod, PB)
    G = image_functor(F, "la", PB, PA)
    return infomorphism(phi, psi, F, G)
