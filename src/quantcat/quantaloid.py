"""Finite quantaloids: hom lattices, composition, residuation, negation.

Everything here is table-driven.  A quantaloid is a small category whose
hom-sets are finite complete lattices and whose composition preserves joins
in both arguments.  Arrows are integer indices into per-hom lattices; all
comparisons are exact (no floating point anywhere).
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    ArrowTypeError,
    InternalCheckError,
    InvalidSize,
    NotCyclic,
    NotDivisible,
    NotDualizing,
    ObjectMismatch,
    StructureError,
)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """A finite complete lattice presented by an order relation on indices.

    The supplied relation is closed reflexively and transitively.  Joins and
    meets of all pairs (plus a global bottom and top) are computed eagerly;
    any subset without a least upper bound raises StructureError, so a
    successfully constructed Lattice really is a complete lattice.
    """

    __slots__ = (
        "labels", "n", "_up", "_down", "_join", "_meet", "_lower_covers", "bottom", "top"
    )

    def __init__(self, labels: Sequence[str], leq: Iterable[tuple[int, int]]):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise StructureError(f"duplicate lattice labels: {labels}")
        n = len(labels)
        if n == 0:
            raise StructureError("a complete lattice needs at least one element")
        up = [1 << i for i in range(n)]
        for i, j in leq:
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError(f"order pair ({i},{j}) out of range")
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in _bits(acc):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        for i in range(n):
            for j in _bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise StructureError(
                        f"order is not antisymmetric: {labels[i]} and {labels[j]}"
                    )
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self.labels = labels
        self.n = n
        self._up = up
        self._down = down
        # A set of upper bounds has a least element c exactly when it is
        # up[c], and a set of lower bounds a greatest one exactly when it is
        # down[c]: each bound is one lookup.
        least = {u: c for c, u in enumerate(up)}
        greatest = {d: c for c, d in enumerate(down)}
        full = (1 << n) - 1
        (self.bottom,) = self._bounds([full], least, "least")
        (self.top,) = self._bounds([full], greatest, "greatest")
        self._join = [self._bounds([ui & uj for uj in up], least, "least") for ui in up]
        self._meet = [self._bounds([di & dj for dj in down], greatest, "greatest") for di in down]
        # (h, the lower covers of h) for every h, each after its covers.
        self._lower_covers = tuple(
            (h, tuple(c for c in _bits(down[h] ^ 1 << h) if up[c] & down[h] == 1 << c | 1 << h))
            for h in sorted(range(n), key=lambda x: bin(down[x]).count("1"))
        )

    def _bounds(self, candidate_sets: list, found: dict, what: str) -> tuple:
        """found[s] for each candidate set s; StructureError at the first s
        that `found` lacks."""
        bounds = tuple([found.get(s) for s in candidate_sets])
        if None in bounds:
            names = [self.labels[c] for c in _bits(candidate_sets[bounds.index(None)])]
            raise StructureError(f"no {what} element among {names}")
        return bounds

    def leq(self, i: int, j: int) -> bool:
        return bool((self._up[i] >> j) & 1)

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def join_all(self, items: Iterable[int]) -> int:
        acc = self.bottom
        for x in items:
            acc = self._join[acc][x]
        return acc

    def meet_all(self, items: Iterable[int]) -> int:
        acc = self.top
        for x in items:
            acc = self._meet[acc][x]
        return acc

    def largest_below(self, src: "Lattice", values: Sequence[int]) -> tuple:
        """ans[h] = the join in src of every x with values[x] ≤ h here, for
        values[x] an element of this lattice per element x of src.

        Each x is joined in at values[x] and the joins are carried up the
        lower covers, so no h scans all of src.
        """
        join = src._join
        ans = [src.bottom] * self.n
        for x, v in enumerate(values):
            ans[v] = join[ans[v]][x]
        for h, covers in self._lower_covers:
            acc = ans[h]
            for c in covers:
                acc = join[acc][ans[c]]
            ans[h] = acc
        return tuple(ans)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"unknown lattice element {label!r}") from None

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Lattice({list(self.labels)!r})"


class Arrow(NamedTuple):
    """An arrow of a quantaloid: source object, target object, hom index."""

    src: int
    tgt: int
    idx: int


def _is_index(v, n: int) -> bool:
    """The index rule: an int (bool included, as Python indexes with it)
    in range(n)."""
    return isinstance(v, int) and 0 <= v < n


def _check_type(Q: "Quantaloid", type_idx) -> None:
    """The type-index rule, O(1): an index among Q's objects."""
    if not _is_index(type_idx, len(Q.objects)):
        raise StructureError(f"type index {type_idx} out of range")


def _check_arrow(Q: "Quantaloid", f: Arrow) -> None:
    """The arrow rule, O(1), for an arrow handed to a public entry point:
    both ends among Q's objects, and an index of their hom."""
    _check_type(Q, f.src)
    _check_type(Q, f.tgt)
    if not _is_index(f.idx, Q.homs[(f.src, f.tgt)].n):
        raise ArrowTypeError(f"arrow index {f.idx} is outside its hom lattice")


class _Tables(dict):
    """A table store: a missing key is made by `make(*key)`, kept and
    returned."""

    __slots__ = ("make",)

    def __missing__(self, key):
        table = self[key] = self.make(*key)
        return table


def _tables(make: Callable) -> _Tables:
    store = _Tables()
    store.make = make
    return store


def _given(tables: dict, *key):
    """tables[key], for a quantaloid given every composition table."""
    if key not in tables:
        raise StructureError(f"missing composition table {key}")
    return tables[key]


class Quantaloid:
    """A finite quantaloid given by hom lattices, composition tables and units.

    The constructor performs structural checks only (every table present,
    every index in range); the algebraic laws are the business of
    ``validate_quantaloid`` so that deliberately broken copies can be built
    for mutation testing.  `compose_tables` is given as a dict of every
    table, all read and so checked here, or as a function (i, j, k) ->
    table.  Either way `self.compose_tables` is a table store, filled per
    triple on first read: tables[(i, j, k)][g][f] = g∘f for f: i→j, g: j→k.
    Residual tables and the tables a kernel reads per position live in
    two more stores.
    """

    def __init__(
        self,
        objects: Sequence[str],
        homs: dict,
        compose_tables: dict | Callable[[int, int, int], Sequence[Sequence[int]]],
        units: Sequence[int],
        name: str = "",
    ):
        self.objects = tuple(str(x) for x in objects)
        if len(set(self.objects)) != len(self.objects):
            raise StructureError("duplicate quantaloid object labels")
        self.name = name
        n = len(self.objects)
        self.homs = {}
        for i in range(n):
            for j in range(n):
                if (i, j) not in homs:
                    raise StructureError(f"missing hom table for ({i},{j})")
                lat = homs[(i, j)]
                if not isinstance(lat, Lattice):
                    raise StructureError(f"hom ({i},{j}) is not a Lattice")
                self.homs[(i, j)] = lat
        make = compose_tables if callable(compose_tables) else partial(_given, compose_tables)
        self.compose_tables = _tables(partial(self._composition_table, make))
        if not callable(compose_tables):
            for key in itertools.product(range(n), repeat=3):
                self.compose_tables[key]
        units = tuple(units)
        if len(units) != n:
            raise StructureError("one unit per object is required")
        for i, u in enumerate(units):
            if not (0 <= u < self.homs[(i, i)].n):
                raise StructureError(f"unit for object {self.objects[i]} out of range")
        self.units = units
        self._residual_tables = _tables(self._residual_table)
        self._table_lists = _tables(self._table_list)

    # -- basic accessors ----------------------------------------------------

    def object_index(self, label: str) -> int:
        try:
            return self.objects.index(str(label))
        except ValueError:
            raise StructureError(f"unknown object {label!r}") from None

    def hom(self, i: int, j: int) -> Lattice:
        return self.homs[(i, j)]

    def arrows(self, i: int, j: int):
        for idx in range(self.homs[(i, j)].n):
            yield Arrow(i, j, idx)

    def unit(self, i: int) -> Arrow:
        return Arrow(i, i, self.units[i])

    def bottom(self, i: int, j: int) -> Arrow:
        return Arrow(i, j, self.homs[(i, j)].bottom)

    def arrow_label(self, f: Arrow) -> str:
        return self.homs[(f.src, f.tgt)].labels[f.idx]

    def _same_hom(self, f: Arrow, g: Arrow):
        if (f.src, f.tgt) != (g.src, g.tgt):
            raise ObjectMismatch(f"arrows {f} and {g} live in different homs")

    def leq(self, f: Arrow, g: Arrow) -> bool:
        self._same_hom(f, g)
        return self.homs[(f.src, f.tgt)].leq(f.idx, g.idx)

    def join(self, src: int, tgt: int, arrows: Iterable[Arrow]) -> Arrow:
        return Arrow(src, tgt, self.homs[(src, tgt)].join_all(self._indices(src, tgt, arrows)))

    def meet(self, src: int, tgt: int, arrows: Iterable[Arrow]) -> Arrow:
        return Arrow(src, tgt, self.homs[(src, tgt)].meet_all(self._indices(src, tgt, arrows)))

    @staticmethod
    def _indices(src: int, tgt: int, arrows: Iterable[Arrow]):
        for f in arrows:
            if (f.src, f.tgt) != (src, tgt):
                raise ObjectMismatch(f"arrow {f} not in hom ({src},{tgt})")
            yield f.idx

    # -- composition and residuation -----------------------------------------

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        if f.tgt != g.src:
            raise ObjectMismatch(
                f"cannot compose {g} after {f}: middle objects differ"
            )
        _check_arrow(self, g)
        _check_arrow(self, f)
        tab = self.compose_tables[(f.src, f.tgt, g.tgt)]
        return Arrow(f.src, g.tgt, tab[g.idx][f.idx])

    def _composition_table(self, make: Callable, i: int, j: int, k: int) -> tuple:
        """make(i, j, k) as a tuple of rows, checked for shape and range."""
        hij, hjk, hik = self.homs[(i, j)], self.homs[(j, k)], self.homs[(i, k)]
        key = (i, j, k)
        tab = tuple(tuple(row) for row in make(i, j, k))
        if len(tab) != hjk.n or any(len(r) != hij.n for r in tab):
            raise StructureError(f"composition table {key} has wrong shape")
        if min(map(min, tab)) < 0 or max(map(max, tab)) >= hik.n:
            raise StructureError(f"composition table {key} value out of range")
        return tab

    def _residual_table(self, side: str, i: int, j: int, k: int) -> tuple:
        comp = self.compose_tables[(i, j, k)]
        hik, hij, hjk = self.homs[(i, k)], self.homs[(i, j)], self.homs[(j, k)]
        if side == "left":
            # table[h][f] = largest g in hom(j,k) with g∘f ≤ h
            return tuple(zip(*(hik.largest_below(hjk, col) for col in zip(*comp))))
        # table[g][h] = largest f in hom(i,j) with g∘f ≤ h
        return tuple(hik.largest_below(hij, row) for row in comp)

    def _table_list(self, kind: str, mid: tuple, a: int, b: int) -> tuple:
        """The tables a kernel of `kind` reads along mid for the type pair
        (a, b), one per position: the composition tables (a, y, b), the
        left residual tables (x, a, b) or the right ones (a, b, z), for
        x, y or z running through mid."""
        if kind == "compose":
            return tuple([self.compose_tables[(a, y, b)] for y in mid])
        tables = self._residual_tables
        if kind == "left":
            return tuple([tables[("left", x, a, b)] for x in mid])
        return tuple([tables[("right", a, b, z)] for z in mid])

    def residual(self, side: str, a: Arrow, b: Arrow) -> Arrow:
        """Largest solution of a one-sided composition inequality.

        side='left'  takes a = h: X→Z, b = f: X→Y and returns the largest
        g: Y→Z with g∘f ≤ h.  side='right' takes a = g: Y→Z, b = h: X→Z and
        returns the largest f: X→Y with g∘f ≤ h.
        """
        if side == "left":
            h, f = a, b
            if h.src != f.src:
                raise ObjectMismatch(f"{h} and {f} must share their source")
            _check_arrow(self, h)
            _check_arrow(self, f)
            tab = self._residual_tables[("left", f.src, f.tgt, h.tgt)]
            return Arrow(f.tgt, h.tgt, tab[h.idx][f.idx])
        if side == "right":
            g, h = a, b
            if g.tgt != h.tgt:
                raise ObjectMismatch(f"{g} and {h} must share their target")
            _check_arrow(self, g)
            _check_arrow(self, h)
            tab = self._residual_tables[("right", h.src, g.src, g.tgt)]
            return Arrow(h.src, g.src, tab[g.idx][h.idx])
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    # -- mutation support (law-harness self tests) ---------------------------

    def with_patched_compose(self, key, g_idx: int, f_idx: int, value: int) -> "Quantaloid":
        """A copy with one composition-table entry replaced (for mutation tests)."""
        triples = itertools.product(range(len(self.objects)), repeat=3)
        tables = {k: [list(row) for row in self.compose_tables[k]] for k in triples}
        tables[key][g_idx][f_idx] = value
        return Quantaloid(
            self.objects, dict(self.homs), tables, self.units, name=self.name + "+mutant"
        )

    def __repr__(self) -> str:
        label = self.name or f"{len(self.objects)} objects"
        return f"Quantaloid({label})"


def validate_quantaloid(Q: Quantaloid) -> list[str]:
    """Every violated quantaloid law, with witnesses; empty means valid.

    The laws are read off the composition tables: tabs[(i, j, k)][g][f] is
    g∘f for f: i→j and g: j→k.
    """
    report = []
    n = len(Q.objects)
    names, homs, tabs, units = Q.objects, Q.homs, Q.compose_tables, Q.units

    def lab(i: int, j: int, idx: int) -> str:
        return f"{homs[(i, j)].labels[idx]}:{names[i]}->{names[j]}"

    # unit laws
    for i in range(n):
        for j in range(n):
            left, right = tabs[(i, j, j)][units[j]], tabs[(i, i, j)]
            for f in range(homs[(i, j)].n):
                if left[f] != f:
                    report.append(f"unit law fails: 1∘{lab(i, j, f)} ≠ {lab(i, j, f)}")
                if right[f][units[i]] != f:
                    report.append(f"unit law fails: {lab(i, j, f)}∘1 ≠ {lab(i, j, f)}")
    # associativity: h∘(g∘f) = (h∘g)∘f
    for i, j, k, l in itertools.product(range(n), repeat=4):
        t_ijk, t_ikl = tabs[(i, j, k)], tabs[(i, k, l)]
        t_jkl, t_ijl = tabs[(j, k, l)], tabs[(i, j, l)]
        for f in range(homs[(i, j)].n):
            for g in range(homs[(j, k)].n):
                gf = t_ijk[g][f]
                for h in range(len(t_ikl)):
                    if t_ikl[h][gf] != t_ijl[t_jkl[h][g]][f]:
                        report.append(
                            "associativity fails: "
                            f"h={lab(k, l, h)} g={lab(j, k, g)} f={lab(i, j, f)}"
                        )
    # join preservation in each variable (binary joins and bottom suffice
    # for finite lattices)
    for i, j, k in itertools.product(range(n), repeat=3):
        hij, hjk, hik = homs[(i, j)], homs[(j, k)], homs[(i, k)]
        tab, join_ik, bottom = tabs[(i, j, k)], hik._join, hik.bottom
        for g, row in enumerate(tab):
            if row[hij.bottom] != bottom:
                report.append(f"g∘⊥ ≠ ⊥ for g={lab(j, k, g)} at ({names[i]},{names[j]})")
            for f1 in range(hij.n):
                joins = hij._join[f1]
                for f2 in range(f1 + 1, hij.n):
                    if row[joins[f2]] != join_ik[row[f1]][row[f2]]:
                        report.append(
                            f"∘ not join-preserving on the right: g={lab(j, k, g)} "
                            f"f1={lab(i, j, f1)} f2={lab(i, j, f2)}"
                        )
        for f, col in enumerate(zip(*tab)):
            if col[hjk.bottom] != bottom:
                report.append(f"⊥∘f ≠ ⊥ for f={lab(i, j, f)} at ({names[j]},{names[k]})")
            for g1 in range(hjk.n):
                joins = hjk._join[g1]
                for g2 in range(g1 + 1, hjk.n):
                    if col[joins[g2]] != join_ik[col[g1]][col[g2]]:
                        report.append(
                            f"∘ not join-preserving on the left: f={lab(i, j, f)} "
                            f"g1={lab(j, k, g1)} g2={lab(j, k, g2)}"
                        )
    return report


def arrow_adjoint_check(Q: Quantaloid, f: Arrow, g: Arrow) -> bool:
    """True iff f and g form an adjoint pair (f left, g right).

    On success also asserts the closed descriptions of each adjoint in terms
    of the other and the units; those are theorems, so their failure means a
    bug and raises InternalCheckError.
    """
    if f.src != g.tgt or f.tgt != g.src:
        raise ObjectMismatch(f"{f} and {g} are not antiparallel")
    x, y = f.src, f.tgt
    ok = Q.leq(Q.unit(x), Q.compose(g, f)) and Q.leq(Q.compose(f, g), Q.unit(y))
    if ok:
        if g != Q.residual("right", f, Q.unit(y)):
            raise InternalCheckError("right adjoint is not f↘1")
        if f != Q.residual("left", Q.unit(y), g):
            raise InternalCheckError("left adjoint is not 1↙g")
    return ok


# ---------------------------------------------------------------------------
#  Quantales (one-object data) and chain/boolean builders
# ---------------------------------------------------------------------------


class QuantaleSpec:
    """A finite complete lattice with a join-preserving monoid structure."""

    def __init__(
        self,
        labels: Sequence[str],
        leq: Iterable[tuple[int, int]],
        tensor_table: Sequence[Sequence[int]],
        unit: int,
        name: str = "",
    ):
        self.lattice = Lattice(labels, leq)
        n = self.lattice.n
        tab = tuple(tuple(row) for row in tensor_table)
        if len(tab) != n or any(len(r) != n for r in tab):
            raise StructureError("tensor table has wrong shape")
        if any(not (0 <= v < n) for r in tab for v in r):
            raise StructureError("tensor table value out of range")
        if not (0 <= unit < n):
            raise StructureError("unit out of range")
        self.tensor_table = tab
        self.unit = unit
        self.name = name

    @property
    def labels(self):
        return self.lattice.labels

    def tensor(self, a: int, b: int) -> int:
        return self.tensor_table[a][b]

    @cached_property
    def ldiv_table(self) -> tuple:
        """ldiv_table[a][b] = a↘b, the largest c with a&c ≤ b."""
        lat = self.lattice
        return tuple(lat.largest_below(lat, row) for row in self.tensor_table)

    @cached_property
    def rdiv_table(self) -> tuple:
        """rdiv_table[a][b] = b↙a, the largest c with c&a ≤ b."""
        lat = self.lattice
        return tuple(lat.largest_below(lat, col) for col in zip(*self.tensor_table))

    def ldiv(self, a: int, b: int) -> int:
        """Largest c with a&c ≤ b."""
        return self.ldiv_table[a][b]

    def rdiv(self, b: int, a: int) -> int:
        """Largest c with c&a ≤ b."""
        return self.rdiv_table[a][b]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantaleSpec)
            and self.labels == other.labels
            and self.lattice._up == other.lattice._up
            and self.tensor_table == other.tensor_table
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.labels, self.lattice._up, self.tensor_table, self.unit))

    def __repr__(self) -> str:
        return f"QuantaleSpec({self.name or list(self.labels)!r})"


def validate_quantale(q: QuantaleSpec) -> list[str]:
    report = []
    lat = q.lattice
    n = lat.n
    for a in range(n):
        if q.tensor(q.unit, a) != a or q.tensor(a, q.unit) != a:
            report.append(f"unit law fails at {lat.labels[a]}")
    for a, b, c in itertools.product(range(n), repeat=3):
        if q.tensor(a, q.tensor(b, c)) != q.tensor(q.tensor(a, b), c):
            report.append(
                "tensor not associative at "
                f"({lat.labels[a]},{lat.labels[b]},{lat.labels[c]})"
            )
    for a in range(n):
        if q.tensor(a, lat.bottom) != lat.bottom or q.tensor(lat.bottom, a) != lat.bottom:
            report.append(f"tensor does not absorb bottom at {lat.labels[a]}")
        for b, c in itertools.combinations(range(n), 2):
            j = lat.join(b, c)
            if q.tensor(a, j) != lat.join(q.tensor(a, b), q.tensor(a, c)):
                report.append(
                    f"tensor not join-preserving on the right at "
                    f"({lat.labels[a]}; {lat.labels[b]}∨{lat.labels[c]})"
                )
            if q.tensor(j, a) != lat.join(q.tensor(b, a), q.tensor(c, a)):
                report.append(
                    f"tensor not join-preserving on the left at "
                    f"({lat.labels[b]}∨{lat.labels[c]}; {lat.labels[a]})"
                )
    return report


def check_divisible(q: QuantaleSpec):
    """(True, None) when the two-sided division identity holds, else a witness.

    The identity checked for every pair (a,b) is
    (b/a)&a = a∧b = a&(a↘b); the first pair violating it is returned.
    Divisors are scanned from the top of the lattice downwards (large
    divisors are the interesting ones), dividends from the bottom up.
    """
    lat, tensor = q.lattice, q.tensor_table
    order = sorted(range(lat.n), key=lambda x: (-bin(lat._down[x]).count("1"), x))
    for a in order:
        meets, ldiv, rdiv = lat._meet[a], q.ldiv_table[a], q.rdiv_table[a]
        for b, wedge in enumerate(meets):
            if tensor[rdiv[b]][a] != wedge or tensor[a][ldiv[b]] != wedge:
                return False, (lat.labels[a], lat.labels[b])
    return True, None


def _chain_leq(n: int):
    return [(i, j) for i in range(n) for j in range(n) if i <= j]


def _chain_labels(n: int):
    return [str(Fraction(k, n - 1)) for k in range(n)]


def _chain_quantale(n: int, tensor, name: str) -> QuantaleSpec:
    """The n-element chain 0 < 1/(n-1) < ... < 1 with a&b = tensor(a, b, top)
    on indices, unit the top."""
    if n < 2:
        raise InvalidSize(f"a chain quantale needs at least 2 elements, got {n}")
    top = n - 1
    table = [[tensor(a, b, top) for b in range(n)] for a in range(n)]
    return QuantaleSpec(_chain_labels(n), _chain_leq(n), table, top, name=f"{name}-{n}")


def build_lukasiewicz_chain(n: int) -> QuantaleSpec:
    """The n-element chain 0 < 1/(n-1) < ... < 1 with a&b = max(0, a+b-1)."""
    return _chain_quantale(n, lambda a, b, top: max(0, a + b - top), "lukasiewicz")


def build_nilpotent_minimum_chain(n: int) -> QuantaleSpec:
    """The n-element chain with a&b = 0 when a+b ≤ 1 and min(a,b) otherwise."""
    return _chain_quantale(
        n, lambda a, b, top: 0 if a + b <= top else min(a, b), "nilpotent-minimum"
    )


def build_godel_chain(n: int) -> QuantaleSpec:
    """The n-element chain with a&b = min(a,b) (a frame)."""
    return _chain_quantale(n, lambda a, b, top: min(a, b), "godel")


def build_boolean_quantale() -> QuantaleSpec:
    """The two-element Boolean algebra with tensor = meet."""
    table = [[0, 0], [0, 1]]
    return QuantaleSpec(["0", "1"], [(0, 1)], table, 1, name="boolean")


def build_boolean_algebra_quantale(atoms: int) -> QuantaleSpec:
    """The powerset of `atoms` generators with tensor = intersection."""
    if atoms < 0:
        raise InvalidSize("atom count must be nonnegative")
    letters = "abcdefgh"
    if atoms > len(letters):
        raise InvalidSize(f"at most {len(letters)} atoms supported")
    n = 1 << atoms
    labels = [
        "0" if s == 0 else "".join(letters[i] for i in range(atoms) if (s >> i) & 1)
        for s in range(n)
    ]
    leq = [(i, j) for i in range(n) for j in range(n) if i & ~j == 0]
    table = [[a & b for b in range(n)] for a in range(n)]
    return QuantaleSpec(labels, leq, table, n - 1, name=f"boolean-{n}")


def one_object_quantaloid(q: QuantaleSpec) -> Quantaloid:
    """View a quantale as a quantaloid with the single object `*`."""
    return Quantaloid(
        ["*"],
        {(0, 0): q.lattice},
        {(0, 0, 0): q.tensor_table},
        [q.unit],
        name=q.name or "quantale",
    )


def build_boolean() -> Quantaloid:
    """The one-object quantaloid with hom {0,1}, composition = meet, unit = 1."""
    return one_object_quantaloid(build_boolean_quantale())


QUANTALOID_CAP_ENV_VAR = "QUANTCAT_QUANTALOID_CAP"
DEFAULT_QUANTALOID_CAP = 250_000


def env_bound(var: str, default: int) -> int:
    """The positive integer in the environment variable `var`, else `default`."""
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise StructureError(f"{var} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise StructureError(f"{var} must be positive")
    return value


def check_quantaloid_size(name: str, n: int, down_sizes: Iterable[int]) -> None:
    """Raise InvalidSize when the quantaloid of the n-element quantale
    `name`, whose elements have down-sets of these sizes, needs more table
    cells up front than QUANTCAT_QUANTALOID_CAP (250000 by default): 2n²
    cells of the left and right division tables plus 2m² join and meet
    cells per hom lattice of m elements."""
    cells = 2 * n * n + sum(2 * m * m for m in down_sizes)
    cap = env_bound(QUANTALOID_CAP_ENV_VAR, DEFAULT_QUANTALOID_CAP)
    if cells > cap:
        raise InvalidSize(
            f"the quantaloid of {name} needs {cells} table cells, "
            f"over the bound {cap}; raise {QUANTALOID_CAP_ENV_VAR}"
        )


def quantaloid_from_divisible_quantale(q: QuantaleSpec) -> Quantaloid:
    """The quantaloid whose objects are the elements of a divisible quantale.

    hom(X,Y) = {α ≤ X∧Y} with composition β∘α = β&(Y↘α) and unit 1_X = X.
    Raises InvalidSize, before anything is built, when the hom lattices'
    join and meet tables and the two division tables together exceed
    QUANTCAT_QUANTALOID_CAP cells (check_quantaloid_size), and NotDivisible
    when the division identity fails.  Each composition table is made when
    it is first read.
    """
    lat = q.lattice
    n = lat.n
    check_quantaloid_size(q.name or "this quantale", n, [bin(d).count("1") for d in lat._down])
    ok, witness = check_divisible(q)
    if not ok:
        raise NotDivisible(witness)
    # hom(X,Y) depends only on X∧Y: per bound, its elements, their
    # positions and their Lattice.
    elements, positions, lattices = [], [], []
    for bound in range(n):
        elems = tuple(a for a in range(n) if lat.leq(a, bound))
        local_leq = [
            (x, y)
            for x in range(len(elems))
            for y in range(len(elems))
            if lat.leq(elems[x], elems[y])
        ]
        elements.append(elems)
        positions.append({a: p for p, a in enumerate(elems)})
        lattices.append(Lattice([lat.labels[a] for a in elems], local_leq))
    meet = lat._meet
    homs = {(i, j): lattices[meet[i][j]] for i in range(n) for j in range(n)}
    # ldiv[Y][α] = Y↘α, so β∘α = tensor[β][ldiv[Y][α]] is two lookups.
    tensor, ldiv = q.tensor_table, q.ldiv_table

    def compose(i: int, j: int, k: int) -> list:
        out_pos, div = positions[meet[i][k]], ldiv[j]
        table = [
            [out_pos.get(tensor[beta][div[alpha]]) for alpha in elements[meet[i][j]]]
            for beta in elements[meet[j][k]]
        ]
        if any(None in row for row in table):
            raise StructureError(
                "composition left its hom; the quantale is not "
                "divisible enough for the construction"
            )
        return table

    units = [positions[i][i] for i in range(n)]
    return Quantaloid(
        lat.labels,
        homs,
        compose,
        units,
        name=f"quantaloid({q.name})" if q.name else "divisible-quantaloid",
    )


# ---------------------------------------------------------------------------
#  Girard structure
# ---------------------------------------------------------------------------


class GirardReport:
    """A validated cyclic dualizing family together with its negation."""

    def __init__(self, Q: Quantaloid, family: Sequence[int], notes: Sequence[str] = ()):
        self.quantaloid = Q
        self.family = tuple(family)
        self.notes = list(notes)

    def dualizer(self, i: int) -> Arrow:
        return Arrow(i, i, self.family[i])

    def negate(self, f: Arrow) -> Arrow:
        """¬f: the residual of the dualizer at f's source through f."""
        Q = self.quantaloid
        return Q.residual("left", self.dualizer(f.src), f)

    def __repr__(self) -> str:
        Q = self.quantaloid
        members = {
            Q.objects[i]: Q.homs[(i, i)].labels[d] for i, d in enumerate(self.family)
        }
        return f"GirardReport({members})"


def girard_structure(Q: Quantaloid, family: Sequence[int]) -> GirardReport:
    """Validate a candidate dualizing family exhaustively.

    Raises NotCyclic / NotDualizing with a witness arrow on failure.  On
    success, when every unit is the top of its hom, additionally asserts the
    forced collapse of the family to the bottoms (a theorem; violation is an
    internal error).
    """
    n = len(Q.objects)
    family = tuple(family)
    if len(family) != n:
        raise StructureError("family must assign one endo-arrow per object")
    for i, v in enumerate(family):
        if not _is_index(v, Q.homs[(i, i)].n):
            raise StructureError(f"family member for {Q.objects[i]} out of range")
    d = [Arrow(i, i, family[i]) for i in range(n)]
    arrows = [f for i in range(n) for j in range(n) for f in Q.arrows(i, j)]
    for f in arrows:
        if Q.residual("left", d[f.src], f) != Q.residual("right", f, d[f.tgt]):
            raise NotCyclic(f)
    for f in arrows:
        neg = Q.residual("left", d[f.src], f)
        if Q.residual("right", neg, d[f.src]) != f:
            raise NotDualizing(f)
        co = Q.residual("right", f, d[f.tgt])
        if Q.residual("left", d[f.tgt], co) != f:
            raise NotDualizing(f)
    notes = []
    if all(Q.units[i] == Q.homs[(i, i)].top for i in range(n)):
        for i in range(n):
            if family[i] != Q.homs[(i, i)].bottom:
                raise InternalCheckError(
                    "units are tops but a dualizer is not the bottom"
                )
        notes.append("units are tops; family is the bottom family as forced")
    return GirardReport(Q, family, notes)


def search_dualizing_families(Q: Quantaloid) -> list[tuple[int, ...]]:
    """All cyclic dualizing families, by exhaustive search.

    The underlying theory never singles out a preferred family, so the caller
    chooses; the list is in lexicographic order of hom indices.
    """
    n = len(Q.objects)
    found = []
    for family in itertools.product(*(range(Q.homs[(i, i)].n) for i in range(n))):
        try:
            girard_structure(Q, family)
        except (NotCyclic, NotDualizing):
            continue
        found.append(family)
    return found
