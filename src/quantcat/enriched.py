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
    """

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

    def __len__(self) -> int:
        return len(self.labels)

    def hom(self, i: int, j: int) -> Arrow:
        return Arrow(self.types[i], self.types[j], self.hom_idx[i][j])

    def __repr__(self) -> str:
        return f"QCategory({list(self.labels)!r})"


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
    n = len(typed.labels)
    hom = [
        [
            Q.units[typed.types[i]] if i == j else Q.homs[(typed.types[i], typed.types[j])].bottom
            for j in range(n)
        ]
        for i in range(n)
    ]
    return QCategory(Q, typed.labels, typed.types, hom)


def _first_outside(Q: Quantaloid, rows, cols, m) -> tuple[int, int] | None:
    """The first (r, c), in row order, whose entry m[r][c] lies outside
    Q(rows[r], cols[c]); None when every entry lies in its hom lattice."""
    for r, (tr, row) in enumerate(zip(rows, m)):
        for c, (tc, v) in enumerate(zip(cols, row)):
            if not _is_index(v, Q.homs[(tr, tc)].n):
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


def validate_category(A: QCategory) -> list[str]:
    """Violated unit/transitivity constraints with witnesses; empty = valid.

    The constraints are read off the composition tables and hom lattices.
    An entry outside its hom lattice is not a law violation but a typing
    error and raises ArrowTypeError.
    """
    Q, types, hom, labels = A.Q, A.types, A.hom_idx, A.labels
    if cell := _first_outside(Q, types, types, hom):
        i, j = cell
        raise ArrowTypeError(
            f"hom entry ({labels[i]},{labels[j]}) is outside "
            f"Q({Q.objects[types[i]]},{Q.objects[types[j]]})"
        )
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


def underlying_leq(A: QCategory, x: int, y: int) -> bool:
    """x ≤ y in the underlying preorder: same type and 1 ≤ A(x,y)."""
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
    fully_faithful = True
    for i in range(len(A)):
        for j in range(len(A)):
            a, b = A.hom(i, j), B.hom(F(i), F(j))
            if not A.Q.leq(a, b):
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
    return all(
        B.hom(F(i), j) == A.hom(i, G(j))
        for i in range(len(A))
        for j in range(len(B))
    )


def functor_is_isomorphism(F: QFunctor) -> bool:
    """Bijective on objects and hom-preserving on the nose."""
    if len(F.dom) != len(F.cod) or len(set(F.mapping)) != len(F.mapping):
        return False
    report, fully_faithful = validate_functor(F)
    return not report and fully_faithful


class FullSubcategory(QCategory):
    """The full subcategory of `base` on a subset of its objects."""

    def __init__(self, base: QCategory, indices: Sequence[int]):
        indices = tuple(indices)
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
