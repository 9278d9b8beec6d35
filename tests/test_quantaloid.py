from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import (
    Arrow,
    ArrowTypeError,
    InvalidSize,
    NotDivisible,
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
from quantcat.quantaloid import Lattice, QuantaleSpec, arrow_adjoint_check

from oracles import (
    NM5_DIVISIBILITY_WITNESS,
    brute_residual,
    divisible_compose,
    luk_implies,
    luk_values,
    quantaloid_violations,
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


class TestGirardStructure:
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
    entry from the definition with QuantaleSpec.ldiv."""
    lat = q.lattice
    n = lat.n
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
            tuple(below[(i, k)].index(q.tensor(beta, q.ldiv(j, alpha))) for alpha in below[(i, j)])
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


class TestDivisibleQuantaloid:
    @pytest.mark.parametrize("q", DIVISIBLE_QUANTALES, ids=repr)
    def test_builder_matches_the_definition(self, q):
        Q = quantaloid_from_divisible_quantale(q)
        homs, tables, units = reference_divisible_quantaloid(q)
        assert {
            key: (list(lat.labels), [[lat.leq(a, b) for b in range(lat.n)] for a in range(lat.n)])
            for key, lat in Q.homs.items()
        } == homs
        assert Q.compose_tables == tables
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

    def test_arrow_element_round_trip(self):
        for i in range(len(QL5.objects)):
            for j in range(len(QL5.objects)):
                for f in arrows_between(QL5, i, j):
                    e = QL5.element_of_arrow(f)
                    assert QL5.arrow_from_element(i, j, e) == f

    def test_overweight_degree_is_a_type_error(self):
        one = QL3.object_index("1")
        half = QL3.object_index("1/2")
        top_element = QL3.quantale.labels.index("1")
        with pytest.raises(ArrowTypeError):
            QL3.arrow_from_element(half, one, top_element)

    def test_composition_matches_direct_arithmetic(self):
        # Composition in the quantaloid of a divisible commutative quantale
        # is the tensor twisted by a residual through the middle type.
        vals = luk_values(5)
        q = QL5.quantale
        frac = {lab: Fraction(lab) for lab in q.labels}
        for i, j, k in itertools.product(range(5), range(5), range(5)):
            for f in arrows_between(QL5, i, j):
                for g in arrows_between(QL5, j, k):
                    got = frac[QL5.quantale.labels[QL5.element_of_arrow(QL5.compose(g, f))]]
                    expected = divisible_compose(
                        vals[j],
                        frac[q.labels[QL5.element_of_arrow(g)]],
                        frac[q.labels[QL5.element_of_arrow(f)]],
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
        key = data.draw(st.sampled_from(sorted(Q.compose_tables)))
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
