"""Typed object sets, enriched categories and functors over a quantaloid."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ArrowTypeError, CategoryMismatch, StructureError
from .quantaloid import Arrow, Quantaloid


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
            if not (0 <= t < len(Q.objects)):
                raise StructureError(f"type index {t} out of range")
        n = len(self.labels)
        self.hom_idx = tuple(tuple(row) for row in hom)
        if len(self.hom_idx) != n or any(len(r) != n for r in self.hom_idx):
            raise StructureError("hom matrix has wrong shape")

    def __len__(self) -> int:
        return len(self.labels)

    def hom(self, i: int, j: int) -> Arrow:
        return Arrow(self.types[i], self.types[j], self.hom_idx[i][j])

    def element_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise StructureError(f"unknown element {label!r}") from None

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
            if not (0 <= v < len(cod)):
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


def validate_category(A: QCategory) -> list[str]:
    """Violated unit/transitivity constraints with witnesses; empty = valid.

    The constraints are read off the composition tables and hom lattices.
    An entry outside its hom lattice is not a law violation but a typing
    error and raises ArrowTypeError.
    """
    Q = A.Q
    n = len(A)
    types, hom, homs, tabs = A.types, A.hom_idx, Q.homs, Q.compose_tables
    for i in range(n):
        for j in range(n):
            lat = homs[(types[i], types[j])]
            if not (0 <= hom[i][j] < lat.n):
                raise ArrowTypeError(
                    f"hom entry ({A.labels[i]},{A.labels[j]}) is outside "
                    f"Q({Q.objects[types[i]]},{Q.objects[types[j]]})"
                )
    report = []
    for i in range(n):
        t = types[i]
        if not homs[(t, t)].leq(Q.units[t], hom[i][i]):
            report.append(f"unit constraint fails at {A.labels[i]}")
    for i in range(n):
        ti = types[i]
        for j in range(n):
            tj, hij = types[j], hom[i][j]
            for k in range(n):
                tk = types[k]
                gf = tabs[(ti, tj, tk)][hom[j][k]][hij]
                if not homs[(ti, tk)].leq(gf, hom[i][k]):
                    report.append(
                        "transitivity fails at "
                        f"({A.labels[i]},{A.labels[j]},{A.labels[k]})"
                    )
    return report


def underlying_preorder(A: QCategory):
    """The object-level preorder (x ≤ y iff same type and 1 ≤ A(x,y)) and
    whether distinct objects are never isomorphic."""
    Q = A.Q
    n = len(A)
    rel = [
        [
            A.types[i] == A.types[j] and Q.leq(Q.unit(A.types[i]), A.hom(i, j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    skeletal = all(
        not (rel[i][j] and rel[j][i]) for i in range(n) for j in range(n) if i != j
    )
    return rel, skeletal


def objects_isomorphic(A: QCategory, i: int, j: int) -> bool:
    if A.types[i] != A.types[j]:
        return False
    u = A.Q.unit(A.types[i])
    return A.Q.leq(u, A.hom(i, j)) and A.Q.leq(u, A.hom(j, i))


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
    B = F.cod
    return all(
        B.types[F(i)] == B.types[G(i)]
        and B.Q.leq(B.Q.unit(B.types[F(i)]), B.hom(F(i), G(i)))
        for i in range(len(F.dom))
    )


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
