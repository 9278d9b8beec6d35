"""Bimodules between enriched categories, weights, and their categories."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple, Sequence

from .enriched import (
    QCategory,
    QFunctor,
    _check_category,
    _check_object,
    _exceeding,
    _first_outside,
    compose_functors,
    identity_functor,
    type_failures,
    validate_functor,
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
from .quantaloid import Arrow, Quantaloid, _check_type, _is_index, env_bound

DEFAULT_CAP = 200_000
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


def _check_functor(F: QFunctor) -> None:
    """F must be a functor (`validate_functor`): ObjectMismatch with the
    first type it breaks, else StructureError with its first hom inequality."""
    report, _ = validate_functor(F)
    if report:
        raise (ObjectMismatch if type_failures(F) else StructureError)(report[0])


def graph_cograph(F: QFunctor) -> tuple[QDistributor, QDistributor]:
    """The adjoint pair of distributors induced by a functor.

    graph(x,y) = B(Fx,y) : A -/-> B and cograph(y,x) = B(y,Fx) : B -/-> A.
    """
    _check_functor(F)
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

    Calls past the size rule (`_packing_pays`) take the packed path,
    `_packed`; the others fold one cell at a time here, with one fold
    and one table list for the whole call when the rows and the columns
    are each of one type.  Both paths give the same out.
    """
    if len(a[0]) >= 8 <= len(b[0]) and _packing_pays(Q, a, b):
        return _packed(Q, kind, mid, a, b, by_cols)
    homs, lists = Q.homs, Q._table_lists
    join = kind == "compose"
    rt, ct = b[0], a[0]
    if rt and ct and rt.count(rt[0]) == len(rt) and ct.count(ct[0]) == len(ct):  # one fold
        lat = homs[(rt[0], ct[0])]
        op, empty = (lat._join, lat.bottom) if join else (lat._meet, lat.top)
        tabs, out = lists[(kind, mid, rt[0], ct[0])], []
        for v in b[1]:
            row = []
            for u in a[1]:
                acc = empty
                for tab, i, j in zip(tabs, u, v):
                    acc = op[acc][tab[i][j]]
                row.append(acc)
            out.append(tuple(row))
        return _oriented(out, a, by_cols)
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


def _packing_pays(Q: Quantaloid, a, b) -> bool:
    """The size rule: the packed path pays once the rows and the columns
    both number at least the bits of a packed cell, 8 x ceil(n / 8) for n
    the largest hom lattice the results lie in.  Below it, packing the
    columns costs more than folding the cells.  _contract tests the
    rule's floor, 8, inline, since most calls are small."""
    largest = max(Q.homs[(tr, tc)].n for tr in set(b[0]) for tc in set(a[0]))
    return min(len(a[0]), len(b[0])) >= -(-largest // 8) * 8


def _packed(Q: Quantaloid, kind: str, mid, a, b, by_cols: bool = False):
    """_contract a whole row of one column type per pass, on packed cells.

    In a lattice the down-set of a meet is the intersection of the
    down-sets, and the up-set of a join that of the up-sets.  So a value
    h of Q(tr, tc), n elements, is packed as w = ceil(n / 8) bytes that
    hold its down-set for a meet kind and its up-set for the join kind,
    and a cell folds over k by AND.  Per column type, position k and row
    entry y, one int packs tab_k[a[c][k]][y] for every column c of that
    type; a row is the AND of the ints its entries pick, from the packed
    empty meet (top) or join (bottom).  Each w-byte slice of a row is then
    read back as the element whose set it is, into a tuple of ints as on
    the cell loop: callers compare rows, and bytes never equal a tuple.
    """
    join = kind == "compose"
    by_type: dict = {}
    for c, tc in enumerate(a[0]):
        by_type.setdefault(tc, []).append(c)
    blocks = []  # per column type: its columns and, per row, their cells
    for tc, cols in by_type.items():
        entries = tuple(zip(*[a[1][c] for c in cols]))  # per k, the columns' entries
        by_row_type: dict = {}  # per row type: what a row of that type reads
        cells = []
        for tr, v in zip(*b):
            reads = by_row_type.get(tr)
            if reads is None:
                lat = Q.homs[(tr, tc)]
                w = -(-lat.n // 8)
                sets = [s.to_bytes(w, "little") for s in (lat._up if join else lat._down)]
                empty = sets[lat.bottom if join else lat.top] * len(cols)
                if w == 1:  # a translation table from each set to its element
                    back = bytes.maketrans(b"".join(sets), bytes(range(lat.n)))
                else:
                    back = {s: h for h, s in enumerate(sets)}
                tabs = Q._table_lists[(kind, mid, tr, tc)]
                reads = by_row_type[tr] = (tabs, sets, w, int.from_bytes(empty, "little"), back, {})
            tabs, sets, w, acc, back, packs = reads
            for key in enumerate(v):  # (k, y)
                m = packs.get(key)
                if m is None:
                    k, y = key
                    tab = tabs[k]
                    m = int.from_bytes(b"".join([sets[tab[x][y]] for x in entries[k]]), "little")
                    packs[key] = m
                acc &= m
            packed = acc.to_bytes(w * len(cols), "little")
            if w == 1:
                cells.append(tuple(packed.translate(back)))
            else:
                cells.append(tuple([back[packed[i : i + w]] for i in range(0, len(packed), w)]))
        blocks.append((cols, cells))
    if len(blocks) == 1:
        out = blocks[0][1]
    elif blocks:  # a row's blocks end to end, then each column from its place
        placed = [c for cols, _ in blocks for c in cols]
        pick = itemgetter(*sorted(range(len(placed)), key=placed.__getitem__))
        out = [pick(sum(parts, ())) for parts in zip(*[cells for _, cells in blocks])]
    else:
        out = [()] * len(b[0])
    return _oriented(out, a, by_cols)


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


def _images_at(A: QCategory, t: int, w: tuple, contra: bool, meet: bool, s: int) -> list:
    """g => w for every arrow g between t and s when meet, else g . w, by
    index g, for the entries w of a presheaf (contra) or copresheaf on A of
    type t; each image is the entries of a weight of that variance and type
    s.  g => w is pointwise the cotensor g -right-> mu(x) for a presheaf mu
    and g : s -> t, lam(x) <-left- g for a copresheaf lam and g : t -> s;
    g . w is the tensor g . mu(x) for g : t -> s, lam(x) . g for g : s -> t:
    one table read per entry."""
    Q, res, comp = A.Q, A.Q._residual_tables, A.Q.compose_tables
    if contra:  # each entry is tab[g][mu(x)]
        tabs = [res[("right", tx, s, t)] if meet else comp[(tx, t, s)] for tx in A.types]
    else:  # and tab[lam(x)][g]
        tabs = [res[("left", t, s, tx)] if meet else comp[(s, t, tx)] for tx in A.types]
    return [tuple([tab[g][v] if contra else tab[v][g] for tab, v in zip(tabs, w)])
            for g in range(Q.homs[(s, t) if meet == contra else (t, s)].n)]


def _arrow_images(A: QCategory, t: int, w: tuple, contra: bool, meet: bool) -> list:
    """Rows (s, g, image) of `_images_at` for every object s in turn."""
    return [(s, g, vec) for s in range(len(A.Q.objects))
            for g, vec in enumerate(_images_at(A, t, w, contra, meet, s))]


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
    return presheaf_meet((), A, type_idx)


def bottom_presheaf(A: QCategory, type_idx: int) -> Presheaf:
    return presheaf_join((), A, type_idx)


def _pointwise(items: Sequence[Presheaf], A: QCategory, type_idx: int, meet: bool) -> Presheaf:
    _check_type(A.Q, type_idx)
    for m in items:
        _check_weight(m)
        if type(m) is not Presheaf or m.base is not A or m.type_idx != type_idx:
            raise CategoryMismatch(f"pointwise bounds need presheaves of type {type_idx} on A")
    weights = tuple(
        (lat.meet_all if meet else lat.join_all)(m.weights[x] for m in items)
        for x, lat in enumerate(A.Q.homs[(t, type_idx)] for t in A.types)
    )
    return Presheaf(A, type_idx, weights)


def presheaf_meet(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Presheaf:
    """Pointwise meet; the empty meet is the all-top weight."""
    return _pointwise(items, A, type_idx, meet=True)


def presheaf_join(items: Sequence[Presheaf], A: QCategory, type_idx: int) -> Presheaf:
    """Pointwise join; the empty join is the all-bottom weight."""
    return _pointwise(items, A, type_idx, meet=False)


def presheaf_space_bound(A: QCategory, type_idx: int) -> int:
    _check_type(A.Q, type_idx)
    return math.prod(A.Q.homs[(t, type_idx)].n for t in A.types)


def _generated_hom(Q: Quantaloid, types, hom) -> tuple:
    """The hom of the category a hom matrix generates: its diagonal joined
    with the units, then m -> m . m, inflationary, until it is a category.
    A vector is a weight on `hom` exactly when it is one on that category."""
    types, m = tuple(types), [list(row) for row in hom]
    for x, s in enumerate(types):
        m[x][x] = Q.homs[(s, s)]._join[m[x][x]][Q.units[s]]
    m = tuple(map(tuple, m))
    while True:
        nxt = _contract(Q, "compose", types, (types, tuple(zip(*m))), (types, m))
        if nxt == m:
            return m
        m = nxt


def _closure(A: QCategory, t: int, gens, meet: bool, contra: bool) -> list:
    """Every pointwise meet (meet=True) or join of a subset of `gens`,
    vectors along A's objects with entries in Q(tx, t) (contra) or Q(t, tx),
    the empty one included, sorted (itertools.product order).

    Each generator not yet in the pool (at first the empty meet) is met
    with every member present then, only where it moves off the empty
    meet: by induction the pool holds the meet of every subset.  Taken in
    sorted order, points into chains build it sorted: the sort is one pass."""
    lats = [A.Q.homs[(s, t) if contra else (t, s)] for s in A.types]
    empty = tuple([lat.top if meet else lat.bottom for lat in lats])
    tabs = [lat._meet if meet else lat._join for lat in lats]
    pool = dict.fromkeys([empty])
    for g in sorted(gens):
        if g in pool:
            continue
        moves = [(x, tabs[x][v]) for x, (v, e) in enumerate(zip(g, empty)) if v != e]
        grown = []
        for p in pool:
            q = list(p)
            for x, op in moves:
                q[x] = op[q[x]]
            grown.append(tuple(q))
        pool.update(dict.fromkeys(grown))
    return sorted(pool)


def _generated(A: QCategory, family, meet: bool, contra: bool) -> tuple:
    """Per type, the `_closure` of the `_arrow_images` of a family of
    weights on A, as a family.  A cotensor of a cotensor is a cotensor and
    cotensors distribute over meets (dually for tensors and joins), so this
    is the family closed under cotensors and meets (tensors and joins)."""
    images = [(s, vec) for t, w in zip(*family)
              for s, _, vec in _arrow_images(A, t, w, contra, meet)]
    types, vecs = [], []
    for t in range(len(A.Q.objects)):
        closed = _closure(A, t, [v for s, v in images if s == t], meet, contra)
        types += [t] * len(closed)
        vecs += closed
    return tuple(types), tuple(vecs)


def enumerate_presheaves(
    A: QCategory, variance: str = "contra", cap: int | None = None
) -> list:
    """All valid weights, grouped by type in quantaloid-object order and,
    within a type, in itertools.product order of their hom indices.

    They are the weights on the category C that A's homs generate, and,
    by Yoneda, each is the join of the tensored representables below it,
    v . C(-, x) (C(x, -) . v for copresheaves): the joins of the tensors
    of C's columns (rows), the empty join included.

    Raises PresheafSpaceTooLarge when some type's candidate space exceeds
    the cap (env var QUANTCAT_PRESHEAF_CAP or 200000 by default), on every
    call; A's hom entries were checked when A was built.  The weights of
    each variance are kept on the category once built and returned as a
    new list.
    """
    return list(_kept_weights(A, variance, cap)[1])


def _kept_weights(A: QCategory, variance: str, cap: int | None) -> tuple:
    """enumerate_presheaves' weights, under its checks, as kept on A: their
    family and the weights themselves."""
    if variance not in ("contra", "co"):
        raise ValueError(f"variance must be 'contra' or 'co', got {variance!r}")
    if cap is None:
        cap = default_cap()
    Q, contra = A.Q, variance == "contra"
    for t in range(len(Q.objects)):
        bound = math.prod(Q.homs[(tx, t) if contra else (t, tx)].n for tx in A.types)
        if bound > cap:
            raise PresheafSpaceTooLarge(bound, cap)
    weights = A._weights.get(variance)
    if weights is None:
        weight = Presheaf if contra else Copresheaf
        hom = _generated_hom(Q, A.types, A.hom_idx)
        closed = _generated(A, (A.types, tuple(zip(*hom)) if contra else hom), False, contra)
        weights = A._weights[variance] = (closed, tuple(weight(A, t, v) for t, v in zip(*closed)))
    return weights


class PresheafCategory(QCategory):
    """The category of all weights of one variance on a base category.

    Skeletal and complete; elements are labelled p0, p1, ... in
    enumeration order and typed by the weight's type object.
    """

    _computed_homs = True

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
        _check_object(self, i)
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
    _check_category(A)
    represented = yoneda_weight if P.variance == "contra" else coyoneda_weight
    return QFunctor(A, P, [P.index_of(represented(A, a)) for a in range(len(A))])


# ---------------------------------------------------------------------------
# Image of weights along a functor (four variants, two adjoint pairs)
# ---------------------------------------------------------------------------


def _image(F: QFunctor, w):
    """direct_image, for a functor and a weight the caller has checked."""
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


def _restricted(F: QFunctor, lam):
    """inverse_image, for a functor and a weight the caller has checked."""
    return type(lam)(F.dom, lam.type_idx, tuple(lam.weights[F(a)] for a in range(len(F.dom))))


def direct_image(F: QFunctor, w):
    """The image of a weight along F: of a presheaf, b -> join over a of
    w(a) . B(b,Fa), left adjoint to inverse_image; of a copresheaf, b ->
    join over a of B(Fa,b) . w(a), right adjoint to inverse_image.
    Written out, not by the weight kernel, which the laws compare it with."""
    _check_weight(w, F.dom, None, "the functor's source")
    _check_functor(F)
    return _image(F, w)


def inverse_image(F: QFunctor, lam):
    """Restriction along F, of a presheaf (right adjoint to direct_image)
    or of a copresheaf (left adjoint to direct_image)."""
    _check_weight(lam, F.cod, None, "the functor's target")
    _check_functor(F)
    return _restricted(F, lam)


# Per kind: whether it runs from F's source, the variance of its weights,
# the leg of graph_cograph(F) (graph 0, cograph 1) and the transform on it.
_IMAGE_KINDS = {
    "ra": (True, "contra", 1, "star"),
    "la": (False, "contra", 0, "star"),
    "nra": (True, "co", 0, "dag"),
    "nla": (False, "co", 1, "dag"),
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
        forward, variance, leg, name = _IMAGE_KINDS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(_IMAGE_KINDS)}, got {kind!r}") from None
    want_src, want_tgt = (F.dom, F.cod) if forward else (F.cod, F.dom)
    if source_ps.base is not want_src or target_ps.base is not want_tgt:
        raise CategoryMismatch("weight categories do not match the functor endpoints")
    if source_ps.variance != variance or target_ps.variance != variance:
        raise CategoryMismatch(f"kind {kind!r} needs {variance}variant weight categories")
    D, W = graph_cograph(F)[leg], _family(source_ps.weights_list)
    weight = Presheaf if variance == "contra" else Copresheaf
    mapping = [target_ps.index_of(weight(target_ps.base, t, vec))
               for t, vec in zip(W[0], _TRANSFORMS[name].kernel(D.Q, D.rows, D.cols, W))]
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
    # Both maps are functors first: only then do cells of phi and psi share a hom.
    report = [f"object_map: {p}" for p in validate_functor(F)[0]]
    report += [f"attribute_map: {p}" for p in validate_functor(G)[0]]
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


def _evaluation(A: QCategory, cod: QCategory, weights: Sequence) -> QDistributor:
    """A -/-> cod, (x, y) -> weights[y](x), for presheaves on A, one per
    object of cod and of its type."""
    return QDistributor(A, cod, [[w.weights[x] for w in weights] for x in range(len(A))])


def membership_distributor(A: QCategory, P: PresheafCategory) -> QDistributor:
    """The evaluation distributor A -/-> PA, (x, mu) -> mu(x).

    This is the graph of the Yoneda embedding.
    """
    if P.base is not A or P.variance != "contra":
        raise CategoryMismatch("need the contravariant weight category of A")
    return _evaluation(A, P, P.weights_list)


def yoneda_infomorphism(
    F: QFunctor, PA: PresheafCategory, PB: PresheafCategory
) -> Infomorphism:
    """Every functor induces an infomorphism between the evaluation
    distributors of its endpoints, with inverse image as the backward leg."""
    phi = membership_distributor(F.dom, PA)
    psi = membership_distributor(F.cod, PB)
    G = image_functor(F, "la", PB, PA)
    return infomorphism(phi, psi, F, G)
