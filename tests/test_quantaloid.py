from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import (
    Arrow,
    InvalidSize,
    NotCyclic,
    NotDivisible,
    NotDualizing,
    NotGirard,
    StructureError,
    build_boolean,
    build_boolean_algebra_quantale,
    build_boolean_quantale,
    build_godel_chain,
    build_lukasiewicz_chain,
    build_nilpotent_minimum_chain,
    check_divisible,
    girard_structure,
    one_object_quantaloid,
    quantaloid_from_divisible_quantale,
    search_dualizing_families,
    validate_quantale,
    validate_quantaloid,
)
from quantcat.io import parse_quantale
from quantcat.quantaloid import (
    GirardReport, Lattice, QuantaleSpec, Quantaloid, _bits, arrow_adjoint_check
)

from test_io_cli import ONE_LAW_BREAKING_QUANTALES

from oracles import (
    NM5_DIVISIBILITY_WITNESS,
    brute_residual,
    divisible_compose,
    lattice_bounds,
    luk_implies,
    luk_values,
    quantaloid_violations,
    residual_table_scan,
)

TWO = build_boolean()
QL3 = quantaloid_from_divisible_quantale(build_lukasiewicz_chain(3))
QL5 = quantaloid_from_divisible_quantale(build_lukasiewicz_chain(5))
B4 = quantaloid_from_divisible_quantale(build_boolean_algebra_quantale(2))

FIXTURES = {"two": TWO, "ql3": QL3, "ql5": QL5, "b4": B4}


def arrows_between(Q, i, j):
    return [Arrow(i, j, k) for k in range(Q.homs[(i, j)].n)]


def all_arrows(Q):
    for i in range(len(Q.objects)):
        for j in range(len(Q.objects)):
            yield from arrows_between(Q, i, j)


def composable_triples(Q):
    """All (f, g, h) with f: X->Y, g: Y->Z, h: X->Z."""
    objs = range(len(Q.objects))
    for i, j, k in itertools.product(objs, objs, objs):
        for f in arrows_between(Q, i, j):
            for g in arrows_between(Q, j, k):
                for h in arrows_between(Q, i, k):
                    yield f, g, h


@pytest.mark.parametrize("name", sorted(FIXTURES))
class TestResiduation:
    def test_three_way_equivalence(self, name):
        Q = FIXTURES[name]
        for f, g, h in composable_triples(Q):
            lhs = Q.leq(Q.compose(g, f), h)
            assert lhs == Q.leq(g, Q.residual("left", h, f))
            assert lhs == Q.leq(f, Q.residual("right", g, h))

    def test_left_residual_is_largest_solution(self, name):
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            for f in arrows_between(Q, i, j):
                for h in arrows_between(Q, i, k):
                    r = Q.residual("left", h, f)
                    sat = [g for g in arrows_between(Q, j, k) if Q.leq(Q.compose(g, f), h)]
                    assert r in sat
                    assert all(Q.leq(g, r) for g in sat)


class TestArrowCalculus:
    """The residuation identities, checked exhaustively on each fixture."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_residuals_of_meets(self, name):
        # (h1 ^ h2) over f = (h1 over f) ^ (h2 over f), and dually under g.
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            for f in arrows_between(Q, i, j):
                for h1 in arrows_between(Q, i, k):
                    for h2 in arrows_between(Q, i, k):
                        m = Q.meet(i, k, [h1, h2])
                        assert Q.residual("left", m, f) == Q.meet(
                            j, k, [Q.residual("left", h1, f), Q.residual("left", h2, f)]
                        )
            for g in arrows_between(Q, j, k):
                for h1 in arrows_between(Q, i, k):
                    for h2 in arrows_between(Q, i, k):
                        m = Q.meet(i, k, [h1, h2])
                        assert Q.residual("right", g, m) == Q.meet(
                            i, j, [Q.residual("right", g, h1), Q.residual("right", g, h2)]
                        )

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_residuals_turn_joins_into_meets(self, name):
        # h over (f1 v f2) = (h over f1) ^ (h over f2), and dually.
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            for h in arrows_between(Q, i, k):
                for f1 in arrows_between(Q, i, j):
                    for f2 in arrows_between(Q, i, j):
                        v = Q.join(i, j, [f1, f2])
                        assert Q.residual("left", h, v) == Q.meet(
                            j, k, [Q.residual("left", h, f1), Q.residual("left", h, f2)]
                        )
                for g1 in arrows_between(Q, j, k):
                    for g2 in arrows_between(Q, j, k):
                        v = Q.join(j, k, [g1, g2])
                        assert Q.residual("right", v, h) == Q.meet(
                            i, j, [Q.residual("right", g1, h), Q.residual("right", g2, h)]
                        )

    @pytest.mark.parametrize("name", ["two", "ql3", "b4"])
    def test_residual_composition_inequalities(self, name):
        # (h over g) . (g over f) <= h over f, and the dual chain rule.
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k, l in itertools.product(objs, objs, objs, objs):
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, i, k):
                    for h in arrows_between(Q, i, l):
                        left = Q.compose(
                            Q.residual("left", h, g), Q.residual("left", g, f)
                        )
                        assert Q.leq(left, Q.residual("left", h, f))
            # the dual chain shares the target instead of the source
            for f in arrows_between(Q, j, i):
                for g in arrows_between(Q, k, i):
                    for h in arrows_between(Q, l, i):
                        right = Q.compose(
                            Q.residual("right", f, g), Q.residual("right", g, h)
                        )
                        assert Q.leq(right, Q.residual("right", f, h))

    @pytest.mark.parametrize("name", ["two", "ql3", "b4"])
    def test_residual_currying(self, name):
        # (h over f) over g = h over (g . f); f under (g under h) = (g . f) under h.
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k, l in itertools.product(objs, objs, objs, objs):
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, j, k):
                    for h in arrows_between(Q, i, l):
                        assert Q.residual(
                            "left", Q.residual("left", h, f), g
                        ) == Q.residual("left", h, Q.compose(g, f))
                    for h in arrows_between(Q, l, k):
                        assert Q.residual(
                            "right", f, Q.residual("right", g, h)
                        ) == Q.residual("right", Q.compose(g, f), h)

    @pytest.mark.parametrize("name", ["two", "ql3", "b4"])
    def test_residuals_commute(self, name):
        # (g under h) over f = g under (h over f).
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k, l in itertools.product(objs, objs, objs, objs):
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, k, l):
                    for h in arrows_between(Q, i, l):
                        assert Q.residual(
                            "left", Q.residual("right", g, h), f
                        ) == Q.residual("right", g, Q.residual("left", h, f))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_counit_inequalities(self, name):
        # (h over f) . f <= h and g . (g under h) <= h.
        Q = FIXTURES[name]
        for f, g, h in composable_triples(Q):
            assert Q.leq(Q.compose(Q.residual("left", h, f), f), h)
            assert Q.leq(Q.compose(g, Q.residual("right", g, h)), h)

    @pytest.mark.parametrize("name", ["two", "ql3", "b4"])
    def test_composition_interchange_inequalities(self, name):
        # h . (g over f) <= (h . g) over f, and the dual.
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k, l in itertools.product(objs, objs, objs, objs):
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, i, k):
                    for h in arrows_between(Q, k, l):
                        assert Q.leq(
                            Q.compose(h, Q.residual("left", g, f)),
                            Q.residual("left", Q.compose(h, g), f),
                        )
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, k, l):
                    for h in arrows_between(Q, j, l):
                        assert Q.leq(
                            Q.compose(Q.residual("right", g, h), f),
                            Q.residual("right", g, Q.compose(h, f)),
                        )


@pytest.mark.parametrize("name", sorted(FIXTURES))
class TestArrowTopBottom:
    def test_units_are_neutral_for_residuals(self, name):
        Q = FIXTURES[name]
        for i in range(len(Q.objects)):
            for j in range(len(Q.objects)):
                for f in arrows_between(Q, i, j):
                    assert Q.residual("left", f, Q.unit(i)) == f
                    assert Q.residual("right", Q.unit(j), f) == f

    def test_bottom_annihilates_composition(self, name):
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            bot_ij = Arrow(i, j, Q.homs[(i, j)].bottom)
            bot_jk = Arrow(j, k, Q.homs[(j, k)].bottom)
            bot_ik = Arrow(i, k, Q.homs[(i, k)].bottom)
            for f in arrows_between(Q, i, j):
                assert Q.compose(bot_jk, f) == bot_ik
            for g in arrows_between(Q, j, k):
                assert Q.compose(g, bot_ij) == bot_ik

    def test_residuals_by_bottom_are_top(self, name):
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            bot_ij = Arrow(i, j, Q.homs[(i, j)].bottom)
            bot_jk = Arrow(j, k, Q.homs[(j, k)].bottom)
            top_jk = Arrow(j, k, Q.homs[(j, k)].n - 1)
            top_ij = Arrow(i, j, Q.homs[(i, j)].n - 1)
            for h in arrows_between(Q, i, k):
                assert Q.residual("left", h, bot_ij) == top_jk
                assert Q.residual("right", bot_jk, h) == top_ij

    def test_residuals_into_top_are_top(self, name):
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            top_ik = Arrow(i, k, Q.homs[(i, k)].n - 1)
            top_jk = Arrow(j, k, Q.homs[(j, k)].n - 1)
            top_ij = Arrow(i, j, Q.homs[(i, j)].n - 1)
            for f in arrows_between(Q, i, j):
                assert Q.residual("left", top_ik, f) == top_jk
            for g in arrows_between(Q, j, k):
                assert Q.residual("right", g, top_ik) == top_ij


class TestArrowAdjunctions:
    def adjoint_pairs(self, Q):
        objs = range(len(Q.objects))
        for i, j in itertools.product(objs, objs):
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, j, i):
                    if arrow_adjoint_check(Q, f, g):
                        yield f, g

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_right_adjoints_are_unique_and_representable(self, name):
        Q = FIXTURES[name]
        seen: dict[Arrow, Arrow] = {}
        for f, g in self.adjoint_pairs(Q):
            assert seen.setdefault(f, g) == g
            assert g == Q.residual("right", f, Q.unit(f.tgt))
            assert f == Q.residual("left", Q.unit(f.tgt), g)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_adjoint_triple_composites_collapse(self, name):
        Q = FIXTURES[name]
        found = 0
        for f, g in self.adjoint_pairs(Q):
            found += 1
            assert Q.compose(f, Q.compose(g, f)) == f
            assert Q.compose(g, Q.compose(f, g)) == g
        assert found >= len(Q.objects)  # at least the units

    @pytest.mark.parametrize("name", ["b4", "ql3"])
    def test_adjoint_residual_identities(self, name):
        # With f -| g: h . f = h over g, g . h' = f under h', and the
        # residual shifts that come with an adjunction.
        Q = FIXTURES[name]
        objs = range(len(Q.objects))
        for f, g in self.adjoint_pairs(Q):
            for k in objs:
                for h in arrows_between(Q, f.tgt, k):
                    assert Q.compose(h, f) == Q.residual("left", h, g)
                for hp in arrows_between(Q, k, f.tgt):
                    assert Q.compose(g, hp) == Q.residual("right", f, hp)


def two_test_girard_verdict(Q, family):
    """The verdict of girard_structure when it also tested double negation
    through the right residual first: (error class, witness arrow), or None
    for a cyclic dualizing family."""
    d = [Arrow(i, i, v) for i, v in enumerate(family)]
    arrows = list(all_arrows(Q))
    for f in arrows:
        if Q.residual("left", d[f.src], f) != Q.residual("right", f, d[f.tgt]):
            return NotCyclic, f
    for f in arrows:
        if Q.residual("right", Q.residual("left", d[f.src], f), d[f.src]) != f:
            return NotDualizing, f
        if Q.residual("left", d[f.tgt], Q.residual("right", f, d[f.tgt])) != f:
            return NotDualizing, f
    return None


class TestGirardStructure:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_family_gets_the_two_test_verdict(self, name):
        # Once every arrow is cyclic the second double-negation test is the
        # first one applied to the same arrow, so girard_structure keeps one.
        Q = FIXTURES[name]
        sizes = [Q.homs[(i, i)].n for i in range(len(Q.objects))]
        families = list(itertools.product(*map(range, sizes)))
        for family in families:
            try:
                girard_structure(Q, family)
                got = None
            except (NotCyclic, NotDualizing) as exc:
                got = type(exc), exc.witness
            assert got == two_test_girard_verdict(Q, family)
        want = [fam for fam in families if two_test_girard_verdict(Q, fam) is None]
        assert search_dualizing_families(Q) == want

    def test_boolean_fixture_has_unique_dualizing_family(self):
        fams = search_dualizing_families(TWO)
        assert fams == [(0,)]
        b4_fams = search_dualizing_families(B4)
        assert b4_fams == [tuple(B4.homs[(i, i)].bottom for i in range(len(B4.objects)))]

    def test_lukasiewicz_quantaloid_is_not_girard(self):
        assert search_dualizing_families(QL3) == []
        family = tuple(QL3.homs[(i, i)].bottom for i in range(len(QL3.objects)))
        with pytest.raises(NotGirard):
            girard_structure(QL3, family)

    def test_dualizing_families_are_bottoms_when_units_are_tops(self):
        # In these fixtures every unit tops its hom, which forces the
        # dualizer down to the bottom.
        for Q in (TWO, B4):
            for fam in search_dualizing_families(Q):
                assert fam == tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects)))
                G = girard_structure(Q, fam)
                assert G.family == fam
                assert G.notes == ["units are tops; family is the bottom family as forced"]
        assert GirardReport(TWO, (0,)).notes == []

    @pytest.mark.parametrize("name", ["two", "b4"])
    def test_negation_is_involutive_and_cyclic(self, name):
        Q = FIXTURES[name]
        G = girard_structure(Q, tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects))))
        for f in all_arrows(Q):
            d_src = G.dualizer(f.src)
            d_tgt = G.dualizer(f.tgt)
            assert Q.residual("left", d_src, f) == Q.residual("right", f, d_tgt)
            assert G.negate(G.negate(f)) == f

    @pytest.mark.parametrize("name", ["two", "b4"])
    def test_negation_swaps_joins_and_meets(self, name):
        Q = FIXTURES[name]
        G = girard_structure(Q, tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects))))
        objs = range(len(Q.objects))
        for i, j in itertools.product(objs, objs):
            for f1 in arrows_between(Q, i, j):
                for f2 in arrows_between(Q, i, j):
                    meet = Q.meet(i, j, [f1, f2])
                    join_of_negs = Q.join(j, i, [G.negate(f1), G.negate(f2)])
                    assert G.negate(meet) == join_of_negs

    @pytest.mark.parametrize("name", ["two", "b4"])
    def test_composition_through_double_negation(self, name):
        Q = FIXTURES[name]
        G = girard_structure(Q, tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects))))
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            d_i = G.dualizer(i)
            d_k = G.dualizer(k)
            for f in arrows_between(Q, i, j):
                for g in arrows_between(Q, j, k):
                    gf = Q.compose(g, f)
                    via_right = Q.residual(
                        "left", d_k, Q.residual("right", f, Q.residual("right", g, d_k))
                    )
                    via_left = Q.residual(
                        "right",
                        Q.residual("left", Q.residual("left", d_i, f), g),
                        d_i,
                    )
                    assert gf == via_right == via_left

    @pytest.mark.parametrize("name", ["two", "b4"])
    def test_residuals_through_the_dualizer(self, name):
        Q = FIXTURES[name]
        G = girard_structure(Q, tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects))))
        objs = range(len(Q.objects))
        for i, j, k in itertools.product(objs, objs, objs):
            d_i, d_k = G.dualizer(i), G.dualizer(k)
            for f in arrows_between(Q, i, j):
                for h in arrows_between(Q, i, k):
                    over = Q.residual("left", h, f)
                    assert over == Q.residual(
                        "right", Q.residual("left", d_i, h), Q.residual("left", d_i, f)
                    )
                    assert over == Q.residual(
                        "left", d_k, Q.compose(f, Q.residual("right", h, d_k))
                    )
                for g in arrows_between(Q, j, k):
                    for h in arrows_between(Q, i, k):
                        under = Q.residual("right", g, h)
                        assert under == Q.residual(
                            "left", Q.residual("right", g, d_k), Q.residual("right", h, d_k)
                        )
                        assert under == Q.residual(
                            "right", Q.compose(Q.residual("left", d_i, h), g), d_i
                        )

    def test_girard_shuffle_identity(self):
        # (d under g) -> f equals g <- (f -> d) with the dualizer in the middle.
        for Q in (TWO, B4):
            G = girard_structure(
                Q, tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects)))
            )
            objs = range(len(Q.objects))
            for i, j, k in itertools.product(objs, objs, objs):
                d_j = G.dualizer(j)
                for f in arrows_between(Q, i, j):
                    for g in arrows_between(Q, j, k):
                        assert Q.residual(
                            "right", Q.residual("left", d_j, g), f
                        ) == Q.residual("left", g, Q.residual("right", f, d_j))


class TestDivisibility:
    def test_lukasiewicz_and_godel_chains_are_divisible(self):
        for n in range(2, 7):
            assert check_divisible(build_lukasiewicz_chain(n))[0]
            assert check_divisible(build_godel_chain(n))[0]

    def test_boolean_algebras_are_divisible(self):
        for atoms in range(0, 4):
            assert check_divisible(build_boolean_algebra_quantale(atoms))[0]

    def test_nilpotent_minimum_three_chain_is_divisible(self):
        # With three elements the nilpotent minimum coincides with the
        # Lukasiewicz tensor, so divisibility still holds.
        nm3 = build_nilpotent_minimum_chain(3)
        assert nm3.tensor_table == build_lukasiewicz_chain(3).tensor_table
        assert check_divisible(nm3)[0]

    def test_nilpotent_minimum_five_chain_fails_with_witness(self):
        ok, witness = check_divisible(build_nilpotent_minimum_chain(5))
        assert not ok
        assert witness == NM5_DIVISIBILITY_WITNESS
        with pytest.raises(NotDivisible) as exc:
            quantaloid_from_divisible_quantale(build_nilpotent_minimum_chain(5))
        assert exc.value.witness == NM5_DIVISIBILITY_WITNESS

    def test_size_guards(self):
        with pytest.raises(InvalidSize):
            build_lukasiewicz_chain(1)
        with pytest.raises(InvalidSize):
            build_godel_chain(0)
        with pytest.raises(InvalidSize):
            build_boolean_algebra_quantale(-1)
        with pytest.raises(InvalidSize):
            build_boolean_algebra_quantale(9)


def reference_divisible_quantaloid(q):
    """hom(X,Y) = {α ≤ X∧Y} with β∘α = β&(Y↘α) and 1_X = X, computed per
    entry from the definition, Y↘α by brute_residual."""
    lat = q.lattice
    n = lat.n
    ldiv = {
        (y, alpha): brute_residual(range(n), lat.leq, q.tensor, "right", y, alpha)
        for y in range(n)
        for alpha in range(n)
    }
    below = {
        (i, j): [a for a in range(n) if lat.leq(a, lat.meet(i, j))]
        for i in range(n)
        for j in range(n)
    }
    homs = {
        key: ([q.labels[a] for a in elems], [[lat.leq(a, b) for b in elems] for a in elems])
        for key, elems in below.items()
    }
    tables = {
        (i, j, k): tuple(
            tuple(below[(i, k)].index(q.tensor(beta, ldiv[(j, alpha)])) for alpha in below[(i, j)])
            for beta in below[(j, k)]
        )
        for i, j, k in itertools.product(range(n), repeat=3)
    }
    units = tuple(below[(i, i)].index(i) for i in range(n))
    return homs, tables, units


DIVISIBLE_QUANTALES = (
    [build_lukasiewicz_chain(n) for n in range(2, 11)]
    + [build_godel_chain(n) for n in range(2, 9)]
    + [build_boolean_algebra_quantale(atoms) for atoms in range(0, 4)]
)


BUILDER_QUANTALES = (
    DIVISIBLE_QUANTALES
    + [build_nilpotent_minimum_chain(n) for n in range(2, 9)]
    + [build_boolean_quantale()]
)
TABLE_QUANTALES = [parse_quantale(make()) for make, _ in ONE_LAW_BREAKING_QUANTALES.values()]


class TestDivisionTables:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BUILDER_QUANTALES + TABLE_QUANTALES), st.data())
    def test_divisions_match_the_scan(self, q, data):
        # A table that does not absorb the bottom can leave a division
        # with no solution at all; its entry is then the empty join.
        lat = q.lattice
        a, b = data.draw(st.integers(0, lat.n - 1)), data.draw(st.integers(0, lat.n - 1))
        for side, got in (("right", q.ldiv(a, b)), ("left", q.rdiv(b, a))):
            expected = brute_residual(range(lat.n), lat.leq, q.tensor, side, a, b)
            assert got == (lat.bottom if expected is None else expected)

    def test_each_table_is_built_once(self):
        q = build_lukasiewicz_chain(6)
        # 4/5 & c ≤ 1/5 holds up to c = 2/5, on either side
        assert q.ldiv(4, 1) == 2 == q.rdiv(1, 4)
        assert q.ldiv_table is q.ldiv_table and q.rdiv_table is q.rdiv_table


class TestDivisibleQuantaloid:
    @pytest.mark.parametrize("q", DIVISIBLE_QUANTALES, ids=repr)
    def test_builder_matches_the_definition(self, q):
        Q = quantaloid_from_divisible_quantale(q)
        homs, tables, units = reference_divisible_quantaloid(q)
        assert {
            key: (list(lat.labels), [[lat.leq(a, b) for b in range(lat.n)] for a in range(lat.n)])
            for key, lat in Q.homs.items()
        } == homs
        assert {key: Q.compose_tables[key] for key in tables} == tables
        assert Q.units == units

    def test_objects_are_quantale_elements(self):
        q = build_lukasiewicz_chain(3)
        assert list(QL3.objects) == list(q.labels)
        for i in range(len(QL3.objects)):
            for j in range(len(QL3.objects)):
                hom = QL3.homs[(i, j)]
                expected = [k for k in range(q.lattice.n) if q.lattice.leq(k, q.lattice.meet(i, j))]
                assert hom.n == len(expected)

    def test_units_top_their_homs(self):
        for Q in (QL3, QL5, B4):
            for i in range(len(Q.objects)):
                assert Q.unit(i).idx == Q.homs[(i, i)].n - 1

    @pytest.mark.parametrize("q", DIVISIBLE_QUANTALES, ids=repr)
    def test_hom_labels_are_the_elements_below_the_meet(self, q):
        # Documents read degrees off these labels: hom(X,Y) is labelled by
        # the elements below X∧Y and the unit of X by X itself.
        Q = quantaloid_from_divisible_quantale(q)
        lat = q.lattice
        for i, j in itertools.product(range(lat.n), repeat=2):
            below = [q.labels[a] for a in range(lat.n) if lat.leq(a, lat.meet(i, j))]
            assert list(Q.homs[(i, j)].labels) == below
        assert [Q.arrow_label(Q.unit(i)) for i in range(lat.n)] == list(q.labels)

    def test_composition_matches_direct_arithmetic(self):
        # Composition in the quantaloid of a divisible commutative quantale
        # is the tensor twisted by a residual through the middle type.
        vals = luk_values(5)
        frac = {lab: Fraction(lab) for lab in build_lukasiewicz_chain(5).labels}
        for i, j, k in itertools.product(range(5), range(5), range(5)):
            for f in arrows_between(QL5, i, j):
                for g in arrows_between(QL5, j, k):
                    got = frac[QL5.arrow_label(QL5.compose(g, f))]
                    expected = divisible_compose(
                        vals[j], frac[QL5.arrow_label(g)], frac[QL5.arrow_label(f)]
                    )
                    assert got == expected

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_one_object_residuals_match_implication(self, a, b, c):
        Q = one_object_quantaloid(build_lukasiewicz_chain(5))
        vals = luk_values(5)
        f, h = Arrow(0, 0, a), Arrow(0, 0, b)
        left = Q.residual("left", h, f)
        assert vals[left.idx] == luk_implies(vals[a], vals[b])
        right = Q.residual("right", f, h)
        assert vals[right.idx] == luk_implies(vals[a], vals[b])
        # sanity: the brute oracle agrees
        assert vals[left.idx] == brute_residual(
            vals,
            lambda x, y: x <= y,
            lambda x, y: max(x + y - 1, Fraction(0)),
            "left",
            vals[a],
            vals[b],
        )


class TestValidationAndMutation:
    def test_fixtures_validate(self):
        for Q in FIXTURES.values():
            assert validate_quantaloid(Q) == []

    def test_builders_yield_lawful_quantales(self):
        for q in (
            build_boolean_quantale(),
            build_lukasiewicz_chain(4),
            build_godel_chain(3),
            build_nilpotent_minimum_chain(5),
            build_boolean_algebra_quantale(3),
        ):
            assert validate_quantale(q) == []

    def test_broken_associativity_is_reported(self):
        table = [[0, 0], [0, 1]]
        q = QuantaleSpec(["0", "1"], [(0, 1)], [[0, 1], [0, 1]], 1, name="broken")
        assert validate_quantale(q) != []
        assert validate_quantale(QuantaleSpec(["0", "1"], [(0, 1)], table, 1)) == []

    def test_patched_composition_breaks_the_laws(self):
        one = QL3.object_index("1")
        top = QL3.homs[(one, one)].n - 1
        mutant = QL3.with_patched_compose((one, one, one), top, top, 0)
        assert mutant.name.endswith("+mutant")
        assert validate_quantaloid(mutant) != []
        # the original is untouched
        assert validate_quantaloid(QL3) == []
        f = Arrow(one, one, top)
        assert QL3.compose(f, f) == f
        # the three-way residuation equivalence now has a counterexample
        broken = False
        for f, g, h in composable_triples(mutant):
            lhs = mutant.leq(mutant.compose(g, f), h)
            ok = (
                lhs
                == mutant.leq(g, mutant.residual("left", h, f))
                == mutant.leq(f, mutant.residual("right", g, h))
            )
            if not ok:
                broken = True
                break
        assert broken


# Divisible quantaloids whose single-entry mutants the validator is checked on.
MUTATION_BASES = {
    **{f"lukasiewicz-{n}": build_lukasiewicz_chain(n) for n in (2, 3, 4)},
    **{f"godel-{n}": build_godel_chain(n) for n in (3, 4)},
    **{f"boolean-{a}": build_boolean_algebra_quantale(a) for a in (1, 2)},
}
MUTATION_QUANTALOIDS = {
    name: quantaloid_from_divisible_quantale(q) for name, q in MUTATION_BASES.items()
}


class TestTableValidator:
    """The table-driven validator against the arrow-by-arrow oracle."""

    @pytest.mark.parametrize("name", sorted(MUTATION_QUANTALOIDS))
    def test_lawful_quantaloids(self, name):
        Q = MUTATION_QUANTALOIDS[name]
        assert validate_quantaloid(Q) == quantaloid_violations(Q) == []

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(MUTATION_QUANTALOIDS)), st.data())
    def test_single_entry_mutants(self, name, data):
        Q = MUTATION_QUANTALOIDS[name]
        key = data.draw(st.sampled_from(list(itertools.product(range(len(Q.objects)), repeat=3))))
        i, j, k = key
        g = data.draw(st.integers(0, Q.homs[(j, k)].n - 1))
        f = data.draw(st.integers(0, Q.homs[(i, j)].n - 1))
        value = data.draw(st.integers(0, Q.homs[(i, k)].n - 1))
        mutant = Q.with_patched_compose(key, g, f, value)
        assert validate_quantaloid(mutant) == quantaloid_violations(mutant)

    def test_one_mutant_breaks_every_law_family(self):
        # Sending top∘top to bottom in QL3's endo-hom of 1 breaks the unit,
        # associativity and join laws at once.
        one = QL3.object_index("1")
        top = QL3.homs[(one, one)].n - 1
        mutant = QL3.with_patched_compose((one, one, one), top, top, 0)
        report = validate_quantaloid(mutant)
        assert report == quantaloid_violations(mutant)
        heads = [line.split(":")[0].split(" ")[0] for line in report]
        assert heads[0] == "unit" and "associativity" in heads and "∘" in heads


# Lattices whose labels are not all listed bottom-up: chains, Boolean
# algebras, the pentagon N5 and the diamond M3, each also upside down.
def _example_lattices():
    orders = [
        (["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]),
        (["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    ] + [
        (list(q.labels), [(a, b) for a in range(q.lattice.n) for b in range(q.lattice.n)
                          if q.lattice.leq(a, b)])
        for q in (build_lukasiewicz_chain(4), build_boolean_algebra_quantale(3))
    ]
    return [
        Lattice(labels, [(b, a) if flip else (a, b) for a, b in pairs])
        for labels, pairs in orders
        for flip in (False, True)
    ]


EXAMPLE_LATTICES = _example_lattices()

# A 3×3 context over Łukasiewicz-16 with low object memberships.
LUK16_CONTEXT = {
    "schema": "context/v1",
    "quantale": {"kind": "lukasiewicz", "n": 16},
    "objects": {"a": "1/15", "b": "2/15", "c": "1/15"},
    "attributes": {"p": "1", "q": "1", "r": "1"},
    "incidence": {
        "a": {"p": "1/15", "r": "1/15"},
        "b": {"p": "1/15", "q": "2/15"},
        "c": {"q": "1/15"},
    },
}


@st.composite
def random_orders(draw):
    """Labels and order pairs of a random finite poset, with a bottom and a
    top forced in or not, its elements listed in a random order."""
    n = draw(st.integers(1, 6))
    place = draw(st.permutations(range(n)))
    below = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = [p for p in below if draw(st.booleans())]
    if draw(st.booleans()):
        pairs += [(0, b) for b in range(n)] + [(a, n - 1) for a in range(n)]
    return [f"e{i}" for i in range(n)], [(place[a], place[b]) for a, b in pairs]


def closure_by_passes(labels, pairs):
    """The up-set bitsets of the reflexive-transitive closure of a relation,
    by passes over every element until one changes nothing, and the
    antisymmetry message of the first pair that breaks it (else None)."""
    n = len(labels)
    up = [1 << i for i in range(n)]
    for i, j in pairs:
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
                return up, f"order is not antisymmetric: {labels[i]} and {labels[j]}"
    return up, None


class TestLattice:
    def test_rejects_posets_without_joins(self):
        # two incomparable elements under two incomparable upper bounds
        pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
        with pytest.raises(StructureError):
            Lattice(["a", "b", "c", "d"], pairs)

    def test_boolean_algebra_joins_and_meets(self):
        q = build_boolean_algebra_quantale(2)
        lat = q.lattice
        a = q.labels.index("a")
        b = q.labels.index("b")
        assert lat.join(a, b) == q.labels.index("ab")
        assert lat.meet(a, b) == q.labels.index("0")
        assert lat.top == q.labels.index("ab")
        assert lat.bottom == q.labels.index("0")

    @settings(max_examples=300, deadline=None)
    @given(random_orders())
    def test_bounds_match_the_scan(self, order):
        labels, pairs = order
        try:
            expected = lattice_bounds(labels, pairs)
        except ValueError as missing:
            with pytest.raises(StructureError) as exc:
                Lattice(labels, pairs)
            assert str(exc.value) == str(missing)
        else:
            lat = Lattice(labels, pairs)
            n = range(lat.n)
            assert (
                lat.bottom,
                lat.top,
                [[lat.join(i, j) for j in n] for i in n],
                [[lat.meet(i, j) for j in n] for i in n],
            ) == expected

    def test_closure_matches_repeated_passes(self, monkeypatch):
        """The one-pass (Warshall) closure gives the up-sets and the
        antisymmetry message of repeated passes until nothing changes, on
        seeded relations, many with cycles; with every bound stubbed out,
        an antisymmetric closure builds whether or not it is a lattice."""
        monkeypatch.setattr(Lattice, "_bounds", lambda self, sets, found, what: (0,) * len(sets))
        outcomes = set()
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            labels = [f"e{i}" for i in range(n)]
            up, message = closure_by_passes(labels, pairs)
            outcomes.add(message is None)
            if message is None:
                assert Lattice(labels, pairs)._up == up, seed
            else:
                with pytest.raises(StructureError) as exc:
                    Lattice(labels, pairs)
                assert str(exc.value) == message, seed
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 2), (1, 2)], "no least element among ['a', 'b', 'c']"),
            ([(0, 1), (0, 2)], "no greatest element among ['a', 'b', 'c']"),
            # a bounded poset in which a and b have upper bounds c and d
            (
                [(4, 0), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 5), (3, 5)],
                "no least element among ['c', 'd', '1']",
            ),
        ],
    )
    def test_a_missing_bound_is_named(self, pairs, message):
        labels = ["a", "b", "c", "d", "0", "1"][: 1 + max(map(max, pairs))]
        with pytest.raises(StructureError) as exc:
            Lattice(labels, pairs)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(EXAMPLE_LATTICES), st.sampled_from(EXAMPLE_LATTICES), st.data())
    def test_largest_below_is_the_join_of_everything_below(self, src, tgt, data):
        # any map src -> tgt, monotone or not
        values = data.draw(st.lists(st.integers(0, tgt.n - 1), min_size=src.n, max_size=src.n))
        for h, got in enumerate(tgt.largest_below(src, values)):
            below = [x for x in range(src.n) if tgt.leq(values[x], h)]
            uppers = [u for u in range(src.n) if all(src.leq(x, u) for x in below)]
            assert all(src.leq(got, u) for u in uppers) and got in uppers

    @pytest.mark.parametrize("lat", EXAMPLE_LATTICES, ids=repr)
    def test_lower_covers_come_after_their_covers(self, lat):
        seen = set()
        for h, covers in lat._lower_covers:
            below = [c for c in range(lat.n) if c != h and lat.leq(c, h)]
            assert set(below) <= seen
            assert sorted(covers) == [
                c for c in below if not any(lat.leq(c, z) and z != c for z in below)
            ]
            seen.add(h)
        assert seen == set(range(lat.n))


class TestCompositionTables:
    """Builder tables are made per triple when first read; explicit tables
    are all checked when the quantaloid is made."""

    def test_concepts_read_a_fraction_of_the_triples(self, tmp_path, monkeypatch):
        from invoker import Invoker

        import quantcat.io as qio
        from quantcat.cli import main

        built = []
        build = qio.quantaloid_from_divisible_quantale
        monkeypatch.setattr(
            qio, "quantaloid_from_divisible_quantale", lambda q: built.append(build(q)) or built[-1]
        )
        path = tmp_path / "l16.yaml"
        qio.write_document(LUK16_CONTEXT, str(path))
        # Without --out only the fixed pairs are computed; --out also builds
        # the lattice's hom and its completeness certificate.
        for out in ([], ["--out", str(tmp_path / "lattice.yaml")]):
            result = Invoker().invoke(main, ["concepts", str(path), "--mode", "kan", *out])
            assert result.exit_code == 0, result.output
            assert result.stdout.startswith("22 concepts\n")
        pairs_only, (Q,) = built[0], built[1:]
        assert len(pairs_only.compose_tables) == 96
        tables = Q.compose_tables
        assert len(tables) == 768 < 16**3
        _, reference, _ = reference_divisible_quantaloid(build_lukasiewicz_chain(16))
        assert {key: tables[key] for key in reference} == reference
        assert len(tables) == 16**3

    def test_the_mapping_knows_its_triples(self):
        # A read makes its one triple, once; an invalid triple is a KeyError.
        built = quantaloid_from_divisible_quantale(build_lukasiewicz_chain(5))
        made = []

        def make(*key):
            made.append(key)
            return built.compose_tables[key]

        Q = Quantaloid(built.objects, built.homs, make, built.units)
        tables = Q.compose_tables
        assert len(tables) == 0
        table = tables[(0, 4, 2)]
        assert tables[(0, 4, 2)] is table and list(tables) == made == [(0, 4, 2)]
        for key in [(5, 0, 0), (0, 4, 5), (0, 5, 4)]:
            with pytest.raises(KeyError):
                tables[key]
        assert list(tables) == made == [(0, 4, 2)]

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("missing", "missing composition table (0, 1, 1)"),
            ("short row", "composition table (0, 1, 1) has wrong shape"),
            ("extra row", "composition table (0, 1, 1) has wrong shape"),
            ("too large", "composition table (0, 1, 1) value out of range"),
            ("negative", "composition table (0, 1, 1) value out of range"),
        ],
    )
    def test_a_malformed_explicit_table_fails_at_construction(self, defect, message):
        tables = {
            key: [list(row) for row in QL3.compose_tables[key]]
            for key in itertools.product(range(len(QL3.objects)), repeat=3)
        }
        tab = tables[(0, 1, 1)]
        if defect == "missing":
            del tables[(0, 1, 1)]
        elif defect == "short row":
            tab[0].pop()
        elif defect == "extra row":
            tab.append(tab[0])
        else:
            tab[0][0] = QL3.homs[(0, 1)].n if defect == "too large" else -1
        with pytest.raises(StructureError) as exc:
            Quantaloid(QL3.objects, QL3.homs, tables, QL3.units)
        assert str(exc.value) == message

    def test_patched_copies_and_quantales_are_checked_at_construction(self):
        with pytest.raises(StructureError, match=r"^composition table \(1, 1, 2\) value out"):
            QL3.with_patched_compose((1, 1, 2), 0, 0, QL3.homs[(1, 2)].n)
        Q = one_object_quantaloid(build_lukasiewicz_chain(3))
        assert dict.__len__(Q.compose_tables) == 1


RESIDUAL_BASES = {
    "boolean": build_boolean_quantale(),
    "lukasiewicz-3": build_lukasiewicz_chain(3),
    "lukasiewicz-5": build_lukasiewicz_chain(5),
    "godel-4": build_godel_chain(4),
    "boolean-4": build_boolean_algebra_quantale(2),
    "boolean-8": build_boolean_algebra_quantale(3),
}
RESIDUAL_QUANTALOIDS = {
    name: quantaloid_from_divisible_quantale(q) for name, q in RESIDUAL_BASES.items()
}


class TestResidualTables:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(RESIDUAL_QUANTALOIDS)),
        st.booleans(),
        st.sampled_from(["left", "right"]),
        st.data(),
    )
    def test_tables_match_the_scan(self, name, mutate, side, data):
        # Lawful or not: a mutant's residuals are still the largest
        # solutions of its (broken) composition.
        Q = RESIDUAL_QUANTALOIDS[name]
        triples = st.tuples(*[st.integers(0, len(Q.objects) - 1)] * 3)
        if mutate:
            i, j, k = key = data.draw(triples)
            g = data.draw(st.integers(0, Q.homs[(j, k)].n - 1))
            f = data.draw(st.integers(0, Q.homs[(i, j)].n - 1))
            Q = Q.with_patched_compose(key, g, f, data.draw(st.integers(0, Q.homs[(i, k)].n - 1)))
        i, j, k = data.draw(triples)
        table = Q._residual_table(side, i, j, k)
        assert [list(row) for row in table] == residual_table_scan(Q, side, i, j, k)

    def test_residual_lists_are_made_once(self):
        # The per-position lists of each kernel kind hold the stored tables
        # and are made once.
        Q = quantaloid_from_divisible_quantale(build_lukasiewicz_chain(4))
        mid = (1, 3, 2)
        expected = {
            "compose": [Q.compose_tables[(2, y, 3)] for y in mid],
            "left": [Q._residual_tables[("left", x, 2, 3)] for x in mid],
            "right": [Q._residual_tables[("right", 2, 3, z)] for z in mid],
        }
        for kind, tables in expected.items():
            made = Q._table_lists[(kind, mid, 2, 3)]
            assert all(got is want for got, want in zip(made, tables, strict=True))
            assert Q._table_lists[(kind, mid, 2, 3)] is made
        assert expected["left"] == [Q._residual_table("left", x, 2, 3) for x in mid]
        assert expected["right"] == [Q._residual_table("right", 2, 3, z) for z in mid]
        assert len(Q._table_lists) == 3


def refuse_building(monkeypatch):
    """Make the divisible-quantaloid builder fail once it starts building."""

    def refuse(*args, **kwargs):
        raise AssertionError("built past the size bound")

    monkeypatch.setattr("quantcat.quantaloid.Lattice", refuse)
    monkeypatch.setattr("quantcat.quantaloid.check_divisible", refuse)


class TestSizeBound:
    def test_the_bound_is_checked_before_anything_is_built(self, monkeypatch):
        q = build_lukasiewicz_chain(5)
        monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", "159")
        refuse_building(monkeypatch)
        with pytest.raises(InvalidSize) as exc:
            quantaloid_from_divisible_quantale(q)
        # two 5×5 division tables and the join and meet tables of the five homs
        assert str(exc.value) == (
            "the quantaloid of lukasiewicz-5 needs 160 table cells, over the bound 159; "
            "raise QUANTCAT_QUANTALOID_CAP"
        )
        monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", "160")
        with pytest.raises(AssertionError, match="built past the size bound"):
            quantaloid_from_divisible_quantale(q)

    def test_the_default_bound_admits_lukasiewicz_64(self, monkeypatch):
        large, admitted = build_lukasiewicz_chain(72), build_lukasiewicz_chain(64)
        refuse_building(monkeypatch)
        with pytest.raises(InvalidSize, match="needs 264408 table cells, over the bound 250000;"):
            quantaloid_from_divisible_quantale(large)
        with pytest.raises(AssertionError, match="built past the size bound"):
            quantaloid_from_divisible_quantale(admitted)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("abc", "QUANTCAT_QUANTALOID_CAP must be an integer, got 'abc'"),
            ("0", "QUANTCAT_QUANTALOID_CAP must be positive"),
        ],
    )
    def test_the_bound_must_be_a_positive_integer(self, monkeypatch, raw, message):
        monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", raw)
        with pytest.raises(StructureError) as exc:
            quantaloid_from_divisible_quantale(build_lukasiewicz_chain(3))
        assert str(exc.value) == message
