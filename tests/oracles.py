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
