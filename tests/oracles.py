"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the classical set-based or
arithmetic definitions, on purpose sharing no code with the package: these
oracles are what the package's enriched machinery must specialize to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


# ---------------------------------------------------------------------------
# Classical formal concept analysis (subset scan)
# ---------------------------------------------------------------------------


def classical_concepts(objects, attributes, incidence):
    """All (extent, intent) pairs of a crisp relation, as frozensets.

    incidence is a set of (object, attribute) pairs.  A concept is a pair
    (U, V) with V = the attributes shared by all of U and U = the objects
    having all of V.
    """
    concepts = set()
    for subset in powerset(objects):
        u = set(subset)
        v = {y for y in attributes if all((x, y) in incidence for x in u)}
        u2 = {x for x in objects if all((x, y) in incidence for y in v)}
        if u2 == u:
            concepts.add((frozenset(u), frozenset(v)))
    return sorted(concepts, key=lambda c: (len(c[0]), sorted(c[0]), sorted(c[1])))


def property_oriented_concepts(objects, attributes, incidence):
    """All (extent, intent) pairs of the rough-set style analysis.

    For U a set of objects: V = attributes y whose bearers all lie in U,
    and U is recovered as the objects bearing some attribute of V.
    """
    concepts = set()
    for subset in powerset(objects):
        u = set(subset)
        v = {y for y in attributes if all(x in u for x in objects if (x, y) in incidence)}
        u2 = {x for x in objects if any((x, y) in incidence for y in v)}
        if u2 == u:
            concepts.add((frozenset(u), frozenset(v)))
    return sorted(concepts, key=lambda c: (len(c[0]), sorted(c[0]), sorted(c[1])))


# ---------------------------------------------------------------------------
# Classical MacNeille cuts (subset scan)
# ---------------------------------------------------------------------------


def macneille_cuts(elements, leq):
    """All cuts (L, U) of a preorder given as a set of (a, b) pairs with a<=b.

    L must be exactly the lower bounds of U and U exactly the upper bounds
    of L.
    """
    elements = list(elements)

    def upper(bs):
        return frozenset(u for u in elements if all((b, u) in leq for b in bs))

    def lower(bs):
        return frozenset(v for v in elements if all((v, b) in leq for b in bs))

    cuts = set()
    for subset in powerset(elements):
        low = frozenset(subset)
        up = upper(low)
        if lower(up) == low:
            cuts.add((low, up))
    return sorted(cuts, key=lambda c: (len(c[0]), sorted(c[0])))


# ---------------------------------------------------------------------------
# Bounds in a finite order (scan)
# ---------------------------------------------------------------------------


def lattice_bounds(labels, leq):
    """(bottom, top, joins, meets) of the order that the pairs `leq`
    generate on range(len(labels)); joins[i][j] is the least upper bound of
    i and j, meets[i][j] the greatest lower bound, each found by scanning
    the upper (lower) bounds for one below (above) all the others.

    Raises ValueError at the first set of bounds with no such element, in
    the order: all elements (bottom, then top), the upper bounds of each
    pair row by row, then the lower bounds.
    """
    n = len(labels)
    le = [[i == j or (i, j) in leq for j in range(n)] for i in range(n)]
    for k, i, j in product(range(n), repeat=3):  # Warshall's closure
        le[i][j] = le[i][j] or (le[i][k] and le[k][j])

    def extreme(bounds, what):
        for c in bounds:
            if all(le[c][x] if what == "least" else le[x][c] for x in bounds):
                return c
        raise ValueError(f"no {what} element among {[labels[c] for c in bounds]}")

    everything = list(range(n))
    bottom, top = extreme(everything, "least"), extreme(everything, "greatest")
    joins = [
        [extreme([u for u in everything if le[i][u] and le[j][u]], "least") for j in everything]
        for i in everything
    ]
    meets = [
        [extreme([d for d in everything if le[d][i] and le[d][j]], "greatest") for j in everything]
        for i in everything
    ]
    return bottom, top, joins, meets


# ---------------------------------------------------------------------------
# Lukasiewicz chain arithmetic (exact fractions)
# ---------------------------------------------------------------------------


def luk_values(n):
    """The n evenly spaced truth values 0, 1/(n-1), ..., 1."""
    return [Fraction(k, n - 1) for k in range(n)]


def luk_tensor(a, b):
    return max(a + b - 1, Fraction(0))


def luk_implies(a, b):
    return min(Fraction(1), 1 - a + b)


def divisible_compose(y, beta, alpha):
    """Composition of alpha in Q(x,y) and beta in Q(y,z) for the quantaloid
    of a commutative divisible quantale: beta tensored with (y -> alpha)."""
    return luk_tensor(beta, luk_implies(y, alpha))


# ---------------------------------------------------------------------------
# Brute residuals over explicit finite tables
# ---------------------------------------------------------------------------


def brute_residual(values, leq, compose, side, g, h):
    """The largest solution of an inequality, found by scanning.

    side='left': largest m with compose(m, g) <= h (h over g).
    side='right': largest m with compose(g, m) <= h (g under h).
    Returns None when no scanned maximum exists.
    """
    sat = [
        m
        for m in values
        if (leq(compose(m, g), h) if side == "left" else leq(compose(g, m), h))
    ]
    for m in sat:
        if all(leq(x, m) for x in sat):
            return m
    return None


def residual_table_scan(Q, side, i, j, k):
    """Q's residual table of one composition table, by scanning every arrow.

    side='left': table[h][f] = the join of every g: j->k with g.f <= h.
    side='right': table[g][h] = the join of every f: i->j with g.f <= h.
    Each join is the least upper bound read off the hom order alone, so
    the table is defined for any composition table, lawful or not.
    """
    comp = Q.compose_tables[(i, j, k)]
    hij, hjk, hik = Q.homs[(i, j)], Q.homs[(j, k)], Q.homs[(i, k)]

    def lub(lat, items):
        uppers = [u for u in range(lat.n) if all(lat.leq(x, u) for x in items)]
        return next(u for u in uppers if all(lat.leq(u, v) for v in uppers))

    if side == "left":
        return [
            [lub(hjk, [g for g in range(hjk.n) if hik.leq(comp[g][f], h)]) for f in range(hij.n)]
            for h in range(hik.n)
        ]
    return [
        [lub(hij, [f for f in range(hij.n) if hik.leq(comp[g][f], h)]) for h in range(hik.n)]
        for g in range(hjk.n)
    ]


def reference_contract(Q, kind, mid, a, b, by_cols=False):
    """The contraction kernel one cell at a time, as the package computed
    it before its bit-sliced path: out[r][c] folds tabs[k][a[c][k]][b[r][k]]
    over k with the join (kind 'compose') or the meet (kind 'left' or
    'right') of Q(tr, tc), tabs being Q's table list for (kind, mid, tr,
    tc).  It reads Q's tables; what it checks is the fold."""
    homs, lists = Q.homs, Q._table_lists
    join = kind == "compose"
    out = []
    for tr, v in zip(*b):
        row = []
        for tc, u in zip(*a):
            lat, tabs = homs[(tr, tc)], lists[(kind, mid, tr, tc)]
            if join:
                op, acc = lat._join, lat.bottom
            else:
                op, acc = lat._meet, lat.top
            for tab, i, j in zip(tabs, u, v):
                acc = op[acc][tab[i][j]]
            row.append(acc)
        out.append(tuple(row))
    if by_cols:
        return tuple(zip(*out)) or ((),) * len(a[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# Graded concepts over the quantaloid of a divisible quantale (scan)
# ---------------------------------------------------------------------------


class GradedQuantale:
    """A small divisible quantale by its arithmetic: the chains
    Łukasiewicz-n ('lukasiewicz', a&b = max(0, a+b-1)) and Gödel-n
    ('godel', a&b = min(a, b)) on 0..n-1, and the Boolean algebra of
    `size` atoms ('boolean-algebra', a&b = a∧b) on bitmasks.

    Its quantaloid has the elements as objects, hom(X, Y) = {a ≤ X∧Y},
    and a: X -> Y followed by b: Y -> Z composes to b & (Y↘a), where Y↘a
    is the largest c with Y&c ≤ a.
    """

    def __init__(self, kind, size):
        self.kind = kind
        self.n = 1 << size if kind == "boolean-algebra" else size
        self.top = self.n - 1
        every = range(self.n)
        self.ldiv = {
            (y, a): self.largest(every, lambda c: self.leq(self.tensor(y, c), a))
            for y in every
            for a in every
        }

    def label(self, a):
        if self.kind == "boolean-algebra":
            return "".join(x for i, x in enumerate("abcdefgh") if a >> i & 1) or "0"
        return str(Fraction(a, self.top))

    def leq(self, a, b):
        return a & ~b == 0 if self.kind == "boolean-algebra" else a <= b

    def meet(self, a, b):
        return a & b if self.kind == "boolean-algebra" else min(a, b)

    def join(self, a, b):
        return a | b if self.kind == "boolean-algebra" else max(a, b)

    def tensor(self, a, b):
        if self.kind == "lukasiewicz":
            return max(0, a + b - self.top)
        return self.meet(a, b)

    def hom(self, x, y):
        return [a for a in range(self.n) if self.leq(a, self.meet(x, y))]

    def compose(self, y, b, a):
        """a: X -> y followed by b: y -> Z."""
        return self.tensor(b, self.ldiv[(y, a)])

    def largest(self, candidates, ok):
        """The join of the candidates satisfying ok: every solution set
        scanned here contains 0 and is closed under joins."""
        acc = 0
        for c in candidates:
            if ok(c):
                acc = self.join(acc, c)
        return acc


def graded_concepts(q, obj_types, att_types, phi, mode):
    """Every concept (t, extent, intent) of a graded context, by scanning
    all weights, and hom[(i, j)], the hom from concept i to concept j.

    phi[x][y] ≤ obj_types[x] ∧ att_types[y] is the incidence of object x
    and attribute y.  An extent mu of type t has mu(x) ≤ tx∧t for every
    object x.  'isbell': the intent is lam(y) = the largest g: t -> ty
    with g∘mu(x) ≤ phi(x, y) for every x, and mu is an extent when each
    mu(x) is the largest f: tx -> t with lam(y)∘f ≤ phi(x, y) for every y.
    'kan': the intent is nu(y) = the largest g: ty -> t with g∘phi(x, y) ≤
    mu(x) for every x, and mu is an extent when each mu(x) is the join over
    y of nu(y)∘phi(x, y).  hom[(i, j)] is the largest g: t_i -> t_j with
    g∘mu_i(x) ≤ mu_j(x) for every x.
    """
    xs, ys = range(len(obj_types)), range(len(att_types))
    concepts = []
    for t in range(q.n):
        for mu in product(*(q.hom(tx, t) for tx in obj_types)):
            if mode == "isbell":
                intent = tuple(
                    q.largest(
                        q.hom(t, ty),
                        lambda g: all(q.leq(q.compose(t, g, mu[x]), phi[x][y]) for x in xs),
                    )
                    for y, ty in enumerate(att_types)
                )
                back = tuple(
                    q.largest(
                        q.hom(tx, t),
                        lambda f: all(q.leq(q.compose(t, intent[y], f), phi[x][y]) for y in ys),
                    )
                    for x, tx in enumerate(obj_types)
                )
            else:
                intent = tuple(
                    q.largest(
                        q.hom(ty, t),
                        lambda g: all(q.leq(q.compose(ty, g, phi[x][y]), mu[x]) for x in xs),
                    )
                    for y, ty in enumerate(att_types)
                )
                back = tuple(
                    q.largest(
                        [q.compose(att_types[y], intent[y], phi[x][y]) for y in ys],
                        lambda _: True,
                    )
                    for x in xs
                )
            if back == mu:
                concepts.append((t, mu, intent))
    hom = {
        (i, j): q.largest(
            q.hom(ti, tj), lambda g: all(q.leq(q.compose(ti, g, a), b) for a, b in zip(mi, mj))
        )
        for i, (ti, mi, _) in enumerate(concepts)
        for j, (tj, mj, _) in enumerate(concepts)
    }
    return concepts, hom


# ---------------------------------------------------------------------------
# Weight-space counting for tiny fuzzy sets (direct arithmetic)
# ---------------------------------------------------------------------------


def count_singleton_weights(membership, values):
    """Contravariant weight vectors on a one-element fuzzy set, counted from
    scratch: one choice of target value t and one degree below both t and
    the membership; the action condition is vacuous on a singleton."""
    return sum(
        1 for t in values for w in values if w <= t and w <= membership
    )


# Frozen reference values.  CTX1 is the running 2x2 crisp example: objects
# {1, 2}, attributes {a, b}, incidence {(1,a), (1,b), (2,b)}.
CTX1_OBJECTS = ("1", "2")
CTX1_ATTRIBUTES = ("a", "b")
CTX1_INCIDENCE = {("1", "a"), ("1", "b"), ("2", "b")}

CTX1_CLASSICAL = [
    (frozenset({"1"}), frozenset({"a", "b"})),
    (frozenset({"1", "2"}), frozenset({"b"})),
]
CTX1_PROPERTY_ORIENTED = [
    (frozenset(), frozenset()),
    (frozenset({"1"}), frozenset({"a"})),
    (frozenset({"1", "2"}), frozenset({"a", "b"})),
]

NM5_DIVISIBILITY_WITNESS = ("3/4", "1/4")

SINGLETON_HALF_WEIGHT_COUNT = 5

CHAIN2_CUT_COUNT = 2
ANTICHAIN2_CUT_COUNT = 4
EMPTY_CUT_COUNT = 1


# ---------------------------------------------------------------------------
# Quantaloid axioms, one arrow at a time
# ---------------------------------------------------------------------------


def quantaloid_violations(Q):
    """Every violated quantaloid law of Q, in the package's report format.

    Checked arrow by arrow through Q's own compose and join, with the unit,
    associativity and join-preservation laws in the same loop order as
    ``validate_quantaloid``, which reads the tables directly; the two
    report lists must be equal.
    """
    report = []
    n = len(Q.objects)
    names = Q.objects

    def lab(f):
        return f"{Q.arrow_label(f)}:{names[f.src]}->{names[f.tgt]}"

    # unit laws
    for i in range(n):
        for j in range(n):
            for f in Q.arrows(i, j):
                if Q.compose(Q.unit(j), f) != f:
                    report.append(f"unit law fails: 1∘{lab(f)} ≠ {lab(f)}")
                if Q.compose(f, Q.unit(i)) != f:
                    report.append(f"unit law fails: {lab(f)}∘1 ≠ {lab(f)}")
    # associativity
    for i, j, k, l in product(range(n), repeat=4):
        for f in Q.arrows(i, j):
            for g in Q.arrows(j, k):
                gf = Q.compose(g, f)
                for h in Q.arrows(k, l):
                    if Q.compose(h, gf) != Q.compose(Q.compose(h, g), f):
                        report.append(
                            "associativity fails: "
                            f"h={lab(h)} g={lab(g)} f={lab(f)}"
                        )
    # join preservation in each variable (binary joins and bottom suffice
    # for finite lattices)
    for i, j, k in product(range(n), repeat=3):
        hij, hjk = Q.homs[(i, j)], Q.homs[(j, k)]
        arrows_ij, arrows_jk = list(Q.arrows(i, j)), list(Q.arrows(j, k))
        for g in arrows_jk:
            if Q.compose(g, Q.bottom(i, j)) != Q.bottom(i, k):
                report.append(f"g∘⊥ ≠ ⊥ for g={lab(g)} at ({names[i]},{names[j]})")
            for f1 in arrows_ij:
                for f2 in arrows_ij[f1.idx + 1:]:
                    joined = arrows_ij[hij.join(f1.idx, f2.idx)]
                    lhs = Q.compose(g, joined)
                    rhs = Q.join(i, k, [Q.compose(g, f1), Q.compose(g, f2)])
                    if lhs != rhs:
                        report.append(
                            f"∘ not join-preserving on the right: g={lab(g)} "
                            f"f1={lab(f1)} f2={lab(f2)}"
                        )
        for f in arrows_ij:
            if Q.compose(Q.bottom(j, k), f) != Q.bottom(i, k):
                report.append(f"⊥∘f ≠ ⊥ for f={lab(f)} at ({names[j]},{names[k]})")
            for g1 in arrows_jk:
                for g2 in arrows_jk[g1.idx + 1:]:
                    joined = arrows_jk[hjk.join(g1.idx, g2.idx)]
                    lhs = Q.compose(joined, f)
                    rhs = Q.join(i, k, [Q.compose(g1, f), Q.compose(g2, f)])
                    if lhs != rhs:
                        report.append(
                            f"∘ not join-preserving on the left: f={lab(f)} "
                            f"g1={lab(g1)} g2={lab(g2)}"
                        )
    return report


def category_violations(A):
    """Every violated unit and transitivity constraint of an enriched
    category A, in the package's report format.

    Checked arrow by arrow through A's quantaloid's own compose and order,
    in the same loop order as ``validate_category``, which reads the tables
    directly; the two report lists must be equal.  Entries must lie in
    their hom lattices.
    """
    Q = A.Q
    n = len(A)
    report = []
    for i in range(n):
        if not Q.leq(Q.unit(A.types[i]), A.hom(i, i)):
            report.append(f"unit constraint fails at {A.labels[i]}")
    for i, j, k in product(range(n), repeat=3):
        if not Q.leq(Q.compose(A.hom(j, k), A.hom(i, j)), A.hom(i, k)):
            report.append(f"transitivity fails at ({A.labels[i]},{A.labels[j]},{A.labels[k]})")
    return report


def distributor_violations(phi):
    """Every violated action constraint of a distributor, in the package's
    report format and order, checked arrow by arrow through its
    quantaloid's own compose and order; ``validate_distributor`` reads
    the tables directly.  Entries must lie in their hom lattices."""
    Q = phi.Q
    A, B = phi.dom, phi.cod
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


def presheaf_violations(mu):
    """Every violated action constraint mu(x') . A(x, x') <= mu(x) of a
    presheaf, arrow by arrow, as ``validate_presheaf`` reports it."""
    A, Q = mu.base, mu.base.Q
    report = []
    for x in range(len(A)):
        for xp in range(len(A)):
            if not Q.leq(Q.compose(mu.arrow(xp), A.hom(x, xp)), mu.arrow(x)):
                report.append(f"action fails at ({A.labels[x]},{A.labels[xp]})")
    return report


def copresheaf_violations(lam):
    """Every violated action constraint A(x, x') . lam(x) <= lam(x') of a
    copresheaf, arrow by arrow, as ``validate_presheaf`` reports it."""
    A, Q = lam.base, lam.base.Q
    report = []
    for x in range(len(A)):
        for xp in range(len(A)):
            if not Q.leq(Q.compose(A.hom(x, xp), lam.arrow(x)), lam.arrow(xp)):
                report.append(f"action fails at ({A.labels[x]},{A.labels[xp]})")
    return report


# ---------------------------------------------------------------------------
# Universal objects, one entry at a time
# ---------------------------------------------------------------------------


def first_with_hom(B, type_idx, want, upper):
    """The first object c of the given type with [B(c,z) for z] == want
    (upper) or [B(z,c) for z] == want (lower), else None."""
    for c in range(len(B)):
        vec = [B.hom(c, z) if upper else B.hom(z, c) for z in range(len(B))]
        if B.types[c] == type_idx and vec == want:
            return c
    return None


def reference_bound(B, along, w, upper):
    """The sup (upper) of a presheaf w, or the inf of a copresheaf w, along
    the object map `along` of a functor into B, from the definition.

    Upper: z -> meet over x of B(along[x], z) <-left- w(x).  Lower: z ->
    meet over x of w(x) -right-> B(z, along[x]).  Each entry is one
    Q.residual and each meet one Q.meet; the result is the first object
    of w's type with that hom row (column), else None.
    """
    Q = B.Q
    want = []
    for z in range(len(B)):
        if upper:
            parts = [Q.residual("left", B.hom(a, z), w.arrow(x)) for x, a in enumerate(along)]
            want.append(Q.meet(w.type_idx, B.types[z], parts))
        else:
            parts = [Q.residual("right", w.arrow(x), B.hom(z, a)) for x, a in enumerate(along)]
            want.append(Q.meet(B.types[z], w.type_idx, parts))
    return first_with_hom(B, w.type_idx, want, upper)


def reference_tensor(A, side, f, x):
    """The tensor f.x (z -> A(x,z) <-left- f) or the cotensor f=>x
    (z -> f -right-> A(z,x)), from the definition; None when absent."""
    Q = A.Q
    if side == "tensor":
        want = [Q.residual("left", A.hom(x, z), f) for z in range(len(A))]
        return first_with_hom(A, f.tgt, want, True)
    want = [Q.residual("right", f, A.hom(z, x)) for z in range(len(A))]
    return first_with_hom(A, f.src, want, False)
