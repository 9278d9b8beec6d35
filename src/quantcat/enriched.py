"""Typed object sets, enriched categories and functors over a quantaloid."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ArrowTypeError, CategoryMismatch, StructureError
from .quantaloid import Arrow, Quantaloid, _check_type, _is_index


class QTypedSet(NamedTuple):
    """Finite set of labelled elements, each typed by a quantaloid object."""

    labels: tuple[str, ...]
    types: tuple[int, ...]


class QCategory:
    """A category enriched in a quantaloid.

    `hom_idx[x][y]` is the index of the hom-arrow from x to y inside the
    ambient hom lattice Q(tx, ty).  Instances compare by identity: weights
    and distributors hold references to the categories they live over, so a
    single instance must be threaded through a computation.

    Every hom entry must be an index of its hom lattice: the first that is
    not raises ArrowTypeError when the category is built.  Categories whose
    homs the library computes skip that O(N^2) check and the category rule.
    """

    _computed_homs = False  # True where the library computes the homs

    def __init__(
        self,
        Q: Quantaloid,
        labels: Sequence[str],
        types: Sequence[int],
        hom: Sequence[Sequence[int]],
    ):
        self.Q = Q
        self.labels = tuple(str(x) for x in labels)
        if len(set(self.labels)) != len(self.labels):
            raise StructureError("duplicate element labels")
        self.types = tuple(types)
        if len(self.types) != len(self.labels):
            raise StructureError("one type per element is required")
        for t in self.types:
            _check_type(Q, t)
        n = len(self.labels)
        self.hom_idx = tuple(tuple(row) for row in hom)
        if len(self.hom_idx) != n or any(len(r) != n for r in self.hom_idx):
            raise StructureError("hom matrix has wrong shape")
        if not self._computed_homs:
            _check_homs(self)
        self._weights: dict = {}  # variance -> its family and weights, kept by enumerate_presheaves

    def __len__(self) -> int:
        return len(self.labels)

    def hom(self, i: int, j: int) -> Arrow:
        return Arrow(self.types[i], self.types[j], self.hom_idx[i][j])

    def __repr__(self) -> str:
        return f"QCategory({list(self.labels)!r})"


def _check_object(A: QCategory, x) -> None:
    """The object-index rule, O(1), for a bare object index handed to a
    public entry point: an index among A's objects."""
    if not _is_index(x, len(A)):
        raise StructureError(f"object index {x} out of range")


class QFunctor:
    """A type-preserving, hom-shrinking map between enriched categories."""

    __slots__ = ("dom", "cod", "mapping")

    def __init__(self, dom: QCategory, cod: QCategory, mapping: Sequence[int]):
        if dom.Q is not cod.Q:
            raise CategoryMismatch("functor endpoints live over different quantaloids")
        self.dom = dom
        self.cod = cod
        self.mapping = tuple(mapping)
        if len(self.mapping) != len(dom):
            raise StructureError("functor must map every element")
        for v in self.mapping:
            if not _is_index(v, len(cod)):
                raise StructureError(f"functor value {v} out of range")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QFunctor)
            and self.dom is other.dom
            and self.cod is other.cod
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((id(self.dom), id(self.cod), self.mapping))

    def __repr__(self) -> str:
        return f"QFunctor({dict(zip(self.dom.labels, (self.cod.labels[v] for v in self.mapping)))})"


def identity_functor(A: QCategory) -> QFunctor:
    return QFunctor(A, A, range(len(A)))


def compose_functors(G: QFunctor, F: QFunctor) -> QFunctor:
    """G∘F; the middle category must be the same instance."""
    if F.cod is not G.dom:
        raise CategoryMismatch("functors are not composable")
    return QFunctor(F.dom, G.cod, tuple(G.mapping[v] for v in F.mapping))


def discrete_category(Q: Quantaloid, typed: QTypedSet) -> QCategory:
    """Identities on the diagonal, bottoms elsewhere.

    Over the quantaloid of a divisible quantale the diagonal entry of an
    element is its membership degree, because the unit arrow of the object
    X is X itself.
    """
    for t in typed.types:
        _check_type(Q, t)
    hom = [
        [Q.units[s] if i == j else Q.homs[(s, t)].bottom for j, t in enumerate(typed.types)]
        for i, s in enumerate(typed.types)
    ]
    return QCategory(Q, typed.labels, typed.types, hom)


def _first_outside(Q: Quantaloid, rows, cols, m) -> tuple[int, int] | None:
    """The first (r, c), in row order, whose entry m[r][c] lies outside
    Q(rows[r], cols[c]); None when every entry lies in its hom lattice.
    The hom sizes along cols are looked up once per row type."""
    sizes: dict = {}
    for r, (tr, row) in enumerate(zip(rows, m)):
        ns = sizes.get(tr)
        if ns is None:
            ns = sizes[tr] = [Q.homs[(tr, tc)].n for tc in cols]
        for c, (n, v) in enumerate(zip(ns, row)):
            if not _is_index(v, n):
                return r, c
    return None


def _exceeding(Q: Quantaloid, types, left, right, target) -> list[tuple[int, int, int]]:
    """The triples (i, j, k), in lexicographic order, at which the
    composite right[j][k] ∘ left[i][j] is not below target[i][k].

    `types` types the rows, the middle and the columns: left is rows x
    middle, right middle x columns and target rows x columns.
    """
    rows, mids, cols = types
    tabs, homs = Q.compose_tables, Q.homs
    out = []
    for i, (a, row, goal) in enumerate(zip(rows, left, target)):
        for j, (b, f, after) in enumerate(zip(mids, row, right)):
            for k, (c, g, h) in enumerate(zip(cols, after, goal)):
                if not homs[(a, c)].leq(tabs[(a, b, c)][g][f], h):
                    out.append((i, j, k))
    return out


def _check_homs(A: QCategory) -> None:
    """The hom rule, O(N^2): every hom entry of A an index of its hom
    lattice; ArrowTypeError names the first that is not."""
    Q, types = A.Q, A.types
    if cell := _first_outside(Q, types, types, A.hom_idx):
        i, j = cell
        raise ArrowTypeError(
            f"hom entry ({A.labels[i]},{A.labels[j]}) is outside "
            f"Q({Q.objects[types[i]]},{Q.objects[types[j]]})"
        )


def validate_category(A: QCategory) -> list[str]:
    """Violated unit/transitivity constraints with witnesses; empty = valid.

    The constraints are read off the composition tables and hom lattices.
    An entry outside its hom lattice is not a law violation but a typing
    error, refused with ArrowTypeError when A is built.
    """
    Q, types, hom, labels = A.Q, A.types, A.hom_idx, A.labels
    report = [
        f"unit constraint fails at {labels[i]}"
        for i, t in enumerate(types)
        if not Q.homs[(t, t)].leq(Q.units[t], hom[i][i])
    ]
    report += [
        f"transitivity fails at ({labels[i]},{labels[j]},{labels[k]})"
        for i, j, k in _exceeding(Q, (types, types, types), hom, hom, hom)
    ]
    return report


def _check_category(A: QCategory) -> None:
    """The category rule, run where a category's hom becomes a distributor
    (identity_distributor, graph_cograph): StructureError with the first
    line of validate_category.  Categories the library computes, and full
    subcategories of them, are not checked again."""
    if not A._computed_homs and (report := validate_category(A)):
        raise StructureError(f"category: {report[0]}")


def underlying_leq(A: QCategory, x: int, y: int) -> bool:
    """x ≤ y in the underlying preorder: same type and 1 ≤ A(x,y).  Both
    must be object indices of A (`_check_object`)."""
    _check_object(A, x)
    _check_object(A, y)
    t = A.types[x]
    return t == A.types[y] and A.Q.homs[(t, t)].leq(A.Q.units[t], A.hom_idx[x][y])


def underlying_preorder(A: QCategory):
    """The underlying preorder as a relation matrix, and whether distinct
    objects are never isomorphic."""
    n = len(A)
    rel = [[underlying_leq(A, i, j) for j in range(n)] for i in range(n)]
    skeletal = all(
        not (rel[i][j] and rel[j][i]) for i in range(n) for j in range(n) if i != j
    )
    return rel, skeletal


def objects_isomorphic(A: QCategory, i: int, j: int) -> bool:
    return underlying_leq(A, i, j) and underlying_leq(A, j, i)


def type_failures(F: QFunctor) -> list[str]:
    """One line per element whose type F does not preserve."""
    A, B = F.dom, F.cod
    return [
        f"type not preserved at {A.labels[i]}"
        for i in range(len(A))
        if A.types[i] != B.types[F(i)]
    ]


def validate_functor(F: QFunctor):
    """(violations, fully_faithful): hom comparison over all object pairs."""
    A, B = F.dom, F.cod
    report = type_failures(F)
    if report:
        return report, False
    # F keeps types, so A(i, j) and B(Fi, Fj) lie in one hom lattice.
    homs, fully_faithful = A.Q.homs, True
    for i, (s, row) in enumerate(zip(A.types, A.hom_idx)):
        image = B.hom_idx[F(i)]
        for j, (t, a) in enumerate(zip(A.types, row)):
            b = image[F(j)]
            if not homs[(s, t)].leq(a, b):
                report.append(
                    f"hom inequality fails at ({A.labels[i]},{A.labels[j]})"
                )
            if a != b:
                fully_faithful = False
    return report, fully_faithful and not report


def functor_leq(F: QFunctor, G: QFunctor) -> bool:
    """Pointwise comparison of parallel functors: 1 ≤ B(Fx, Gx) for all x."""
    if F.dom is not G.dom or F.cod is not G.cod:
        raise CategoryMismatch("functors are not parallel")
    return all(underlying_leq(F.cod, F(i), G(i)) for i in range(len(F.dom)))


def functor_adjoint_check(F: QFunctor, G: QFunctor) -> bool:
    """True iff B(Fx,y) = A(x,Gy) for all x,y (F left adjoint, G right)."""
    A, B = F.dom, F.cod
    if G.dom is not B or G.cod is not A:
        raise CategoryMismatch("adjoint candidate must run the other way")
    # A type failure makes some pair differ at an end; else each pair shares a hom.
    if type_failures(F) or type_failures(G):
        return False
    return all(B.hom_idx[F(i)][j] == row[G(j)]
               for i, row in enumerate(A.hom_idx) for j in range(len(B)))


def functor_is_isomorphism(F: QFunctor) -> bool:
    """Bijective on objects and hom-preserving on the nose."""
    if len(F.dom) != len(F.cod) or len(set(F.mapping)) != len(F.mapping):
        return False
    report, fully_faithful = validate_functor(F)
    return not report and fully_faithful


class FullSubcategory(QCategory):
    """The full subcategory of `base` on a subset of its objects: a
    category when base is one, so it takes base's standing."""

    def __init__(self, base: QCategory, indices: Sequence[int]):
        indices = tuple(indices)
        for i in indices:
            _check_object(base, i)
        self._computed_homs = base._computed_homs
        super().__init__(
            base.Q,
            [base.labels[i] for i in indices],
            [base.types[i] for i in indices],
            [[base.hom_idx[i][j] for j in indices] for i in indices],
        )
        self.base = base
        self.base_indices = indices

    def inclusion(self) -> QFunctor:
        return QFunctor(self, self.base, self.base_indices)
