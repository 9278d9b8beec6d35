from __future__ import annotations

import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import (
    Arrow,
    ArrowTypeError,
    CategoryMismatch,
    InvalidInfomorphism,
    PresheafSpaceTooLarge,
    QCategory,
    QDistributor,
    QFunctor,
    QTypedSet,
    StructureError,
    build_boolean_algebra_quantale,
    build_godel_chain,
    compose_distributors,
    compose_infomorphisms,
    coyoneda_weight,
    direct_image,
    discrete_category,
    dist_adjoint_check,
    dist_leq,
    dist_residual,
    enumerate_presheaves,
    functor_leq,
    girard_structure,
    graph_cograph,
    identity_distributor,
    identity_infomorphism,
    image_functor,
    infomorphism,
    inverse_image,
    membership_distributor,
    one_object_quantaloid,
    presheaf_category,
    presheaf_hom,
    presheaf_join,
    presheaf_meet,
    presheaf_space_bound,
    validate_category,
    validate_distributor,
    validate_infomorphism,
    weight_leq,
    yoneda,
    yoneda_infomorphism,
    yoneda_weight,
)
from quantcat import distributor, laws
from quantcat.adjunction import concept_lattice, isbell_transform, kan_transform, negate_presheaf
from quantcat.completion import (
    cotensor_weight,
    join_tensor_closure,
    meet_cotensor_closure,
    sup_inf,
    tensor_cotensor,
    tensor_weight,
    weighted_colimit_limit,
)
from quantcat.enriched import identity_functor
from quantcat.errors import QuantcatError
from quantcat.distributor import (
    Copresheaf,
    Presheaf,
    bottom_presheaf,
    top_presheaf,
    validate_presheaf,
)
from quantcat.laws import (
    fixture_b4,
    fixture_ctx1,
    fixture_ql,
    fixture_two,
    rand_category,
    rand_distributor,
    rand_functor_into,
    rand_copresheaf,
    rand_infomorphism_pair,
    rand_presheaf,
)
from oracles import (
    SINGLETON_HALF_WEIGHT_COUNT,
    copresheaf_violations,
    distributor_violations,
    presheaf_violations,
    reference_contract,
)

TWO = fixture_two()
QL3 = fixture_ql(3)


def seeded(seed):
    return random.Random(seed)


def all_distributors(A, B):
    """Exhaustive enumeration, for tiny categories only."""
    Q = A.Q
    cells = [(x, y) for x in range(len(A)) for y in range(len(B))]
    sizes = [Q.homs[(A.types[x], B.types[y])].n for x, y in cells]
    for combo in itertools.product(*(range(s) for s in sizes)):
        matrix = [[0] * len(B) for _ in range(len(A))]
        for (x, y), v in zip(cells, combo):
            matrix[x][y] = v
        cand = QDistributor(A, B, matrix)
        if validate_distributor(cand) == []:
            yield cand


class TestDistributorAlgebra:
    @given(st.integers(0, 200))
    def test_identity_laws(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A = rand_category(rng, Q, 3, 1)
        B = rand_category(rng, Q, 3, 1)
        phi = rand_distributor(rng, A, B)
        assert validate_distributor(phi) == []
        assert compose_distributors(phi, identity_distributor(A)) == phi
        assert compose_distributors(identity_distributor(B), phi) == phi

    @given(st.integers(0, 200))
    def test_composition_is_associative(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A, B, C, D = (rand_category(rng, Q, 2, 1) for _ in range(4))
        phi = rand_distributor(rng, A, B)
        psi = rand_distributor(rng, B, C)
        chi = rand_distributor(rng, C, D)
        assert compose_distributors(chi, compose_distributors(psi, phi)) == \
            compose_distributors(compose_distributors(chi, psi), phi)

    def test_residuals_are_universal(self):
        # exhaustive over all distributors between two tiny crisp categories
        rng = seeded(5)
        A = rand_category(rng, TWO, 2, 1)
        B = rand_category(rng, TWO, 2, 1)
        C = rand_category(rng, TWO, 2, 1)
        for phi in all_distributors(A, B):
            for chi in all_distributors(A, C):
                lifted = dist_residual("left", chi, phi)
                for psi in all_distributors(B, C):
                    assert dist_leq(compose_distributors(psi, phi), chi) == dist_leq(
                        psi, lifted
                    )
        for psi in all_distributors(B, C):
            for chi in all_distributors(A, C):
                lowered = dist_residual("right", psi, chi)
                for phi in all_distributors(A, B):
                    assert dist_leq(compose_distributors(psi, phi), chi) == dist_leq(
                        phi, lowered
                    )


class TestGraphAndCograph:
    @given(st.integers(0, 200))
    def test_graph_is_left_adjoint_to_cograph(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        B = rand_category(rng, Q, 3, 1)
        F = rand_functor_into(rng, B, rng.randint(0, 3))
        graph, cograph = graph_cograph(F)
        assert validate_distributor(graph) == []
        assert validate_distributor(cograph) == []
        assert dist_adjoint_check(graph, cograph)

    def test_fully_faithful_means_cograph_after_graph_is_identity(self):
        sub = discrete_category(TWO, QTypedSet(("x",), (0,)))
        amb = QCategory = discrete_category(TWO, QTypedSet(("x", "y"), (0, 0)))
        F = QFunctor(sub, amb, [0])
        graph, cograph = graph_cograph(F)
        assert compose_distributors(cograph, graph) == identity_distributor(sub)

    @given(st.integers(0, 150))
    def test_graphs_compose_contravariantly(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        C = rand_category(rng, Q, 2, 1)
        G = rand_functor_into(rng, C, rng.randint(1, 2), "b")
        F = rand_functor_into(rng, G.dom, rng.randint(1, 2), "a")
        from quantcat import compose_functors

        graph_gf, cograph_gf = graph_cograph(compose_functors(G, F))
        graph_f, cograph_f = graph_cograph(F)
        graph_g, cograph_g = graph_cograph(G)
        assert graph_gf == compose_distributors(graph_g, graph_f)
        assert cograph_gf == compose_distributors(cograph_f, cograph_g)

    def test_functor_order_matches_graph_order(self):
        chain = QCategory_chain()
        point = discrete_category(TWO, QTypedSet(("p",), (0,)))
        bottom = QFunctor(point, chain, [0])
        top = QFunctor(point, chain, [1])
        g_bot, c_bot = graph_cograph(bottom)
        g_top, c_top = graph_cograph(top)
        assert functor_leq(bottom, top)
        assert dist_leq(g_top, g_bot)  # graphs reverse the order
        assert dist_leq(c_bot, c_top)  # cographs preserve it


def QCategory_chain():
    from quantcat import QCategory

    return QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])


class TestWeights:
    def test_crisp_weight_spaces_count_subsets(self):
        A = discrete_category(TWO, QTypedSet(("x", "y"), (0, 0)))
        assert presheaf_space_bound(A, 0) == 4
        assert len(enumerate_presheaves(A, "contra")) == 4
        assert len(enumerate_presheaves(A, "co")) == 4

    def test_fuzzy_singleton_weight_count(self):
        half = QL3.object_index("1/2")
        A = discrete_category(QL3, QTypedSet(("x",), (half,)))
        total = len(enumerate_presheaves(A, "contra"))
        assert total == SINGLETON_HALF_WEIGHT_COUNT

    def test_enumeration_cap(self):
        A = discrete_category(TWO, QTypedSet(tuple("abcdef"), (0,) * 6))
        with pytest.raises(PresheafSpaceTooLarge):
            enumerate_presheaves(A, "contra", cap=10)

    @given(st.integers(0, 150))
    def test_meet_and_join_are_bounds(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A = rand_category(rng, Q, 3, 1)
        t = rng.randrange(len(Q.objects))
        mu = rand_presheaf(rng, A, t)
        nu = rand_presheaf(rng, A, t)
        meet = presheaf_meet([mu, nu], A, t)
        join = presheaf_join([mu, nu], A, t)
        assert weight_leq(meet, mu) and weight_leq(meet, nu)
        assert weight_leq(mu, join) and weight_leq(nu, join)
        assert weight_leq(meet, join)
        assert presheaf_meet([], A, t) == top_presheaf(A, t)
        assert presheaf_join([], A, t) == bottom_presheaf(A, t)

    def test_hom_is_a_category_structure(self):
        rng = seeded(11)
        A = rand_category(rng, QL3, 2, 1)
        weights = enumerate_presheaves(A, "contra")
        Q = A.Q
        for mu in weights:
            assert Q.leq(Q.unit(mu.type_idx), presheaf_hom(mu, mu))
        for mu in weights:
            for nu in weights:
                for rho in weights:
                    assert Q.leq(
                        Q.compose(presheaf_hom(nu, rho), presheaf_hom(mu, nu)),
                        presheaf_hom(mu, rho),
                    )


def filtered_weights(A, variance):
    """Every candidate weight in itertools.product order, kept when the
    Arrow-based oracle finds no action violation."""
    Q = A.Q
    contra = variance == "contra"
    weight, check = (
        (Presheaf, presheaf_violations) if contra else (Copresheaf, copresheaf_violations)
    )
    out = []
    for t in range(len(Q.objects)):
        sizes = [Q.homs[(tx, t) if contra else (t, tx)].n for tx in A.types]
        for weights in itertools.product(*(range(s) for s in sizes)):
            cand = weight(A, t, weights)
            if not check(cand):
                out.append(cand)
    return out


def dead_ends(A, variance, weights):
    """Whether some prefix of A's objects has a weight of its own that no
    weight on A restricts to."""
    whole = {(w.type_idx, w.weights) for w in weights}
    for k in range(1, len(A)):
        part = QCategory(A.Q, A.labels[:k], A.types[:k], [r[:k] for r in A.hom_idx[:k]])
        own = {(w.type_idx, w.weights) for w in filtered_weights(part, variance)}
        if own != {(t, ws[:k]) for t, ws in whole}:
            return True
    return False


ENUMERATION_FIXTURES = {"two": fixture_two, "ql3": lambda: fixture_ql(3), "b4": fixture_b4}


class TestWeightEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(ENUMERATION_FIXTURES)),
        st.sampled_from(["contra", "co"]),
    )
    def test_search_equals_filtered_product(self, seed, fixture, variance):
        A = rand_category(seeded(seed), ENUMERATION_FIXTURES[fixture](), 4)
        assert enumerate_presheaves(A, variance) == filtered_weights(A, variance)

    @pytest.mark.parametrize("fixture", sorted(ENUMERATION_FIXTURES))
    def test_search_stays_exact_where_prefixes_dead_end(self, fixture):
        # Random hom matrices, not closed under composition: a prefix can
        # keep the constraints among its own objects and still extend to no
        # weight, which never happens on a category.
        Q, rng, dead = ENUMERATION_FIXTURES[fixture](), seeded(18), 0
        for _ in range(134):
            n = rng.randint(1, 4)
            types = [rng.randrange(len(Q.objects)) for _ in range(n)]
            hom = [[rng.randrange(Q.homs[(s, d)].n) for d in types] for s in types]
            A = QCategory(Q, [f"x{i}" for i in range(n)], types, hom)
            for variance in ("contra", "co"):
                expected = filtered_weights(A, variance)
                assert enumerate_presheaves(A, variance) == expected
                dead += dead_ends(A, variance, expected)
        assert dead  # the draw reaches the case it is here for

    def test_validators_are_not_called(self, monkeypatch):
        def refuse(_):
            raise AssertionError("enumeration must not call the Arrow-based validators")

        rng = seeded(3)
        A = rand_category(rng, QL3, 3, 3)
        expected = {v: filtered_weights(A, v) for v in ("contra", "co")}
        monkeypatch.setattr(distributor, "validate_presheaf", refuse)
        for variance, weights in expected.items():
            assert enumerate_presheaves(A, variance) == weights

    @pytest.mark.parametrize("variance", ["contra", "co"])
    def test_cap_is_checked_before_any_weight_is_built(self, monkeypatch, variance):
        # Twelve objects of type 1 over the three-chain: the spaces of types
        # 0, 1/2 and 1 hold 1, 2^12 and 3^12 candidates.
        one = QL3.object_index("1")
        A = discrete_category(QL3, QTypedSet(tuple(f"x{i}" for i in range(12)), (one,) * 12))

        def spy(*args):
            raise AssertionError("a weight was built before the cap check")

        monkeypatch.setattr(distributor, "Presheaf", spy)
        monkeypatch.setattr(distributor, "Copresheaf", spy)
        with pytest.raises(PresheafSpaceTooLarge) as exc:
            enumerate_presheaves(A, variance, cap=5000)
        assert (exc.value.bound, exc.value.cap) == (3**12, 5000)
        assert str(exc.value) == str(PresheafSpaceTooLarge(3**12, 5000))

    def test_search_keeps_no_call_stack_per_object(self):
        # 298 objects of type 0 and two of type 1 over the three-chain: one
        # free value per type-1 object, 300 positions deep.
        zero, one = QL3.object_index("0"), QL3.object_index("1")
        types = (zero,) * 298 + (one, one)
        A = discrete_category(QL3, QTypedSet(tuple(f"x{i}" for i in range(300)), types))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            weights = enumerate_presheaves(A, "contra")
        finally:
            sys.setrecursionlimit(limit)
        expected = [
            (t, (0,) * 298 + pair)
            for t in range(len(QL3.objects))
            for pair in itertools.product(range(QL3.homs[(one, t)].n), repeat=2)
        ]
        assert [(w.type_idx, w.weights) for w in weights] == expected


class TestYoneda:
    @given(st.integers(0, 200))
    def test_reduction_identities(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A = rand_category(rng, Q, 3, 1)
        mu = rand_presheaf(rng, A)
        for a in range(len(A)):
            ya = yoneda_weight(A, a)
            assert presheaf_hom(ya, mu).idx == mu.weights[a]
        lam_type = rng.randrange(len(Q.objects))
        lam = enumerate_presheaves(A, "co")[0]
        for a in range(len(A)):
            assert presheaf_hom(lam, coyoneda_weight(A, a)).idx == lam.weights[a]

    def test_embedding_into_the_weight_category(self):
        rng = seeded(23)
        A = rand_category(rng, QL3, 2, 1)
        PA = presheaf_category(A)
        emb = yoneda(A, PA)
        from quantcat import validate_functor

        report, fully_faithful = validate_functor(emb)
        assert report == [] and fully_faithful


class TestImageFunctors:
    @given(st.integers(0, 100))
    def test_direct_image_is_left_adjoint_to_inverse_image(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        B = rand_category(rng, Q, 2, 1)
        F = rand_functor_into(rng, B, rng.randint(1, 2))
        A = F.dom
        for mu in enumerate_presheaves(A, "contra"):
            for nu in enumerate_presheaves(B, "contra"):
                if mu.type_idx != nu.type_idx:
                    continue
                assert presheaf_hom(direct_image(F, mu), nu) == presheaf_hom(
                    mu, inverse_image(F, nu)
                )

    @given(st.integers(0, 100))
    def test_covariant_inverse_image_is_left_adjoint_to_direct_image(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        B = rand_category(rng, Q, 2, 1)
        F = rand_functor_into(rng, B, rng.randint(1, 2))
        A = F.dom
        # hom direction flips because the underlying order of covariant
        # weights is reversed pointwise
        for gam in enumerate_presheaves(B, "co"):
            for nu in enumerate_presheaves(A, "co"):
                if gam.type_idx != nu.type_idx:
                    continue
                assert presheaf_hom(inverse_image(F, gam), nu) == presheaf_hom(
                    gam, direct_image(F, nu)
                )

    def test_restriction_keeps_the_variance(self):
        # Presheaf and Copresheaf tuples with equal fields compare equal, so
        # the adjunction laws above cannot tell the two classes apart.
        rng = seeded(5)
        B = rand_category(rng, QL3, 2, 1)
        F = rand_functor_into(rng, B, 2)
        for w in enumerate_presheaves(B, "contra"):
            assert type(inverse_image(F, w)) is Presheaf
        for w in enumerate_presheaves(B, "co"):
            assert type(inverse_image(F, w)) is Copresheaf
        with pytest.raises(CategoryMismatch, match="^copresheaf does not live on the functor's"):
            inverse_image(F, coyoneda_weight(F.dom, 0))

    def test_image_functor_wrapping(self):
        rng = seeded(3)
        B = rand_category(rng, TWO, 2, 1)
        F = rand_functor_into(rng, B, 2)
        A = F.dom
        PA, PB = presheaf_category(A), presheaf_category(B)
        fwd = image_functor(F, "ra", PA, PB)
        back = image_functor(F, "la", PB, PA)
        from quantcat import functor_adjoint_check, validate_functor

        for func in (fwd, back):
            report, _ = validate_functor(func)
            assert report == []
        assert functor_adjoint_check(fwd, back)
        with pytest.raises(ValueError):
            image_functor(F, "sideways", PA, PB)
        with pytest.raises(CategoryMismatch):
            image_functor(F, "ra", PB, PA)

    def test_direct_image_extends_the_functor_along_yoneda(self):
        rng = seeded(9)
        B = rand_category(rng, QL3, 2, 1)
        F = rand_functor_into(rng, B, 2)
        A = F.dom
        for a in range(len(A)):
            assert direct_image(F, yoneda_weight(A, a)) == yoneda_weight(B, F(a))


class TestInfomorphisms:
    @given(st.integers(0, 120))
    def test_seeded_pairs_validate_and_compose(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        i1, i2 = rand_infomorphism_pair(rng, Q, 2)
        assert validate_infomorphism(i1) == []
        assert validate_infomorphism(i2) == []
        comp = compose_infomorphisms(i2, i1)
        assert validate_infomorphism(comp) == []
        ident = identity_infomorphism(i1.source)
        assert compose_infomorphisms(i1, ident) == i1

    def test_exchange_violations_are_rejected(self):
        ctx1 = fixture_ctx1()
        A, B = ctx1.dom, ctx1.cod
        other = QDistributor(A, B, [[0, 0], [0, 0]])
        F = QFunctor(A, A, [0, 1])
        G = QFunctor(B, B, [0, 1])
        with pytest.raises(InvalidInfomorphism):
            infomorphism(ctx1, other, F, G)

    def test_membership_distributor_is_the_yoneda_graph(self):
        rng = seeded(4)
        A = rand_category(rng, TWO, 3, 1)
        PA = presheaf_category(A)
        ev = membership_distributor(A, PA)
        assert validate_distributor(ev) == []
        graph, _ = graph_cograph(yoneda(A, PA))
        assert ev == graph

    @given(st.integers(0, 80))
    def test_every_functor_induces_an_infomorphism(self, seed):
        rng = seeded(seed)
        B = rand_category(rng, TWO, 2, 1)
        F = rand_functor_into(rng, B, rng.randint(1, 2))
        PA = presheaf_category(F.dom)
        PB = presheaf_category(B)
        info = yoneda_infomorphism(F, PA, PB)
        assert validate_infomorphism(info) == []


# The Arrow-per-entry and per-variance bodies that the shared rules
# replaced, kept as references for them.


def reference_weight_leq(a, b):
    Q = a.base.Q
    return all(Q.leq(a.arrow(x), b.arrow(x)) for x in range(len(a.base)))


def reference_dist_leq(phi, psi):
    Q = phi.Q
    return all(
        Q.leq(phi.arrow(x, y), psi.arrow(x, y))
        for x in range(len(phi.dom))
        for y in range(len(phi.cod))
    )


def reference_weight_hom(mu, nu):
    # meet over x of nu(x) <-left- mu(x) for presheaves, -right-> for copresheaves
    Q, side = mu.base.Q, "left" if isinstance(mu, Presheaf) else "right"
    arrows = [Q.residual(side, nu.arrow(x), mu.arrow(x)) for x in range(len(mu.base))]
    return Q.meet(mu.type_idx, nu.type_idx, arrows)


def point_category(Q, t):
    return discrete_category(Q, QTypedSet(("*",), (t,)))


def reference_rand_presheaf(rng, A, type_idx=None):
    Q = A.Q
    t = rng.randrange(len(Q.objects)) if type_idx is None else type_idx
    weights = [rng.randrange(Q.homs[(A.types[x], t)].n) for x in range(len(A))]
    closed = laws._close_actions(A, point_category(Q, t), [(v,) for v in weights])
    return Presheaf(A, t, tuple(r[0] for r in closed))


def reference_rand_copresheaf(rng, A, type_idx=None):
    Q = A.Q
    t = rng.randrange(len(Q.objects)) if type_idx is None else type_idx
    weights = [rng.randrange(Q.homs[(t, A.types[x])].n) for x in range(len(A))]
    closed = laws._close_actions(point_category(Q, t), A, [weights])
    return Copresheaf(A, t, closed[0])


def reference_rand_context(rng, Q):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    a_types = tuple(rng.randrange(len(Q.objects)) for _ in range(m))
    b_types = tuple(rng.randrange(len(Q.objects)) for _ in range(n))
    A = discrete_category(Q, QTypedSet(tuple(f"x{i}" for i in range(m)), a_types))
    B = discrete_category(Q, QTypedSet(tuple(f"y{j}" for j in range(n)), b_types))
    matrix = [
        [rng.randrange(Q.homs[(a_types[i], b_types[j])].n) for j in range(n)]
        for i in range(m)
    ]
    return QDistributor(A, B, matrix)


def reference_direct_image(F, w):
    A, B, Q = F.dom, F.cod, F.dom.Q
    if isinstance(w, Presheaf):
        return Presheaf(B, w.type_idx, tuple(
            Q.join(B.types[b], w.type_idx, [
                Q.compose(w.arrow(a), Arrow(B.types[b], A.types[a], B.hom_idx[b][F(a)]))
                for a in range(len(A))
            ]).idx
            for b in range(len(B))
        ))
    return Copresheaf(B, w.type_idx, tuple(
        Q.join(w.type_idx, B.types[b], [
            Q.compose(Arrow(A.types[a], B.types[b], B.hom_idx[F(a)][b]), w.arrow(a))
            for a in range(len(A))
        ]).idx
        for b in range(len(B))
    ))


RULE_QUANTALOIDS = {
    "boolean": fixture_two,
    "lukasiewicz-3": lambda: fixture_ql(3),
    "boolean-4": fixture_b4,
}


class TestSharedRules:
    """The weight hom, the pointwise order and the random weights against
    the bodies they replaced, over Boolean, Ł3 and B4 categories."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RULE_QUANTALOIDS)), st.integers(0, 10_000), st.booleans())
    def test_random_weights_draw_as_before(self, name, seed, typed):
        Q = RULE_QUANTALOIDS[name]()
        A = rand_category(random.Random(seed), Q, 3)
        t = seed % len(Q.objects) if typed else None
        pairs = [(rand_presheaf, reference_rand_presheaf)]
        pairs.append((rand_copresheaf, reference_rand_copresheaf))
        for draw, reference in pairs:
            r_new, r_old = random.Random(seed), random.Random(seed)
            w, w_old = draw(r_new, A, t), reference(r_old, A, t)
            assert w == w_old and type(w) is type(w_old)
            assert r_new.getstate() == r_old.getstate()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RULE_QUANTALOIDS)), st.randoms(use_true_random=False))
    def test_orders_and_homs_match_the_entrywise_bodies(self, name, rng):
        Q = RULE_QUANTALOIDS[name]()
        A = rand_category(rng, Q, 3)
        t, s = rng.randrange(len(Q.objects)), rng.randrange(len(Q.objects))
        mu, nu = rand_presheaf(rng, A, t), rand_presheaf(rng, A, t)
        lam, rho = rand_copresheaf(rng, A, t), rand_copresheaf(rng, A, t)
        meet, join = presheaf_meet([mu, nu], A, t), presheaf_join([mu, nu], A, t)
        for a, b in ((mu, nu), (nu, mu), (meet, mu), (mu, join), (lam, rho), (rho, lam)):
            assert weight_leq(a, b) == reference_weight_leq(a, b)
        other = rand_presheaf(rng, A, s)
        for a, b in ((mu, nu), (mu, other), (other, join)):
            assert presheaf_hom(a, b) == reference_weight_hom(a, b)
        co_other = rand_copresheaf(rng, A, s)
        for a, b in ((lam, rho), (lam, co_other), (co_other, rho)):
            assert presheaf_hom(a, b) == reference_weight_hom(a, b)
        B = rand_category(rng, Q, 2)
        phi, psi = rand_distributor(rng, A, B), rand_distributor(rng, A, B)
        bottom, top = (
            QDistributor(A, B, [[getattr(Q.homs[(x, y)], end) for y in B.types] for x in A.types])
            for end in ("bottom", "top")
        )
        for a, b in ((phi, psi), (psi, phi), (bottom, phi), (phi, top), (top, psi)):
            assert dist_leq(a, b) == reference_dist_leq(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RULE_QUANTALOIDS)), st.integers(0, 10_000))
    def test_random_contexts_draw_as_before(self, name, seed):
        Q = RULE_QUANTALOIDS[name]()
        r_new, r_old = random.Random(seed), random.Random(seed)
        phi, old = laws.rand_context(r_new, Q), reference_rand_context(r_old, Q)
        assert phi.matrix == old.matrix
        assert (phi.dom.types, phi.cod.types) == (old.dom.types, old.cod.types)
        assert r_new.getstate() == r_old.getstate()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RULE_QUANTALOIDS)), st.randoms(use_true_random=False))
    def test_direct_image_matches_the_per_variance_bodies(self, name, rng):
        B = rand_category(rng, RULE_QUANTALOIDS[name](), 3, 1)
        F = rand_functor_into(rng, B, rng.randint(0, 3))
        for w in (rand_presheaf(rng, F.dom), rand_copresheaf(rng, F.dom)):
            image = direct_image(F, w)
            assert image == reference_direct_image(F, w) and type(image) is type(w)

    def test_retired_covariant_names_are_gone(self):
        import quantcat
        from quantcat import adjunction, io

        retired = {
            distributor: (
                "validate_copresheaf", "copresheaf_hom", "coinverse_image", "codirect_image"
            ),
            adjunction: ("negate_copresheaf",),
            io: ("DistributorBundle",),
        }
        for module, names in retired.items():
            for name in names:
                assert not hasattr(module, name) and name not in quantcat.__all__

    def test_hom_rejects_a_mixed_pair(self):
        A = fixture_ctx1().dom
        with pytest.raises(CategoryMismatch):
            presheaf_hom(yoneda_weight(A, 0), coyoneda_weight(A, 0))
        with pytest.raises(CategoryMismatch):
            presheaf_hom(coyoneda_weight(A, 0), yoneda_weight(A, 0))


CHECK_QUANTALOIDS = {"boolean": TWO, "lukasiewicz-3": QL3, "boolean-4": fixture_b4()}


def corrupted(data, Q, rows, cols, m):
    """m with one drawn entry replaced by a drawn index of its hom lattice."""
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(cols) - 1))
    m = [list(row) for row in m]
    m[i][j] = data.draw(st.integers(0, Q.homs[(rows[i], cols[j])].n - 1))
    return m


def corrupted_category(data, C):
    return QCategory(C.Q, C.labels, C.types, corrupted(data, C.Q, C.types, C.types, C.hom_idx))


class TestCompositeLawChecks:
    """validate_distributor and the weight check against the arrow-by-arrow
    oracles, on valid and single-entry-corrupted instances: the reports
    must be equal, messages and order included."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(CHECK_QUANTALOIDS)), st.randoms(), st.data())
    def test_random_and_corrupted_distributors(self, name, rng, data):
        Q = CHECK_QUANTALOIDS[name]
        A, B = rand_category(rng, Q, 3, 1), rand_category(rng, Q, 3, 1)
        phi = rand_distributor(rng, A, B)
        assert validate_distributor(phi) == distributor_violations(phi) == []
        part = data.draw(st.sampled_from(["source", "target", "matrix"]))
        m = phi.matrix
        if part == "source":
            A = corrupted_category(data, A)
        elif part == "target":
            B = corrupted_category(data, B)
        else:
            m = corrupted(data, Q, A.types, B.types, m)
        bad = QDistributor(A, B, m)
        assert validate_distributor(bad) == distributor_violations(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(CHECK_QUANTALOIDS)),
        st.sampled_from(["contra", "co"]),
        st.randoms(),
        st.data(),
    )
    def test_random_and_corrupted_weights(self, name, variance, rng, data):
        Q = CHECK_QUANTALOIDS[name]
        A = rand_category(rng, Q, 4, 1)
        if variance == "contra":
            w, oracle = rand_presheaf(rng, A), presheaf_violations
        else:
            w, oracle = rand_copresheaf(rng, A), copresheaf_violations
        assert validate_presheaf(w) == oracle(w) == []
        if data.draw(st.booleans()):
            w = type(w)(corrupted_category(data, A), w.type_idx, w.weights)
        else:
            point = (w.type_idx,)
            if variance == "contra":
                m = corrupted(data, Q, A.types, point, [(v,) for v in w.weights])
            else:
                m = corrupted(data, Q, point, A.types, [w.weights])
            w = w._replace(weights=tuple(v for row in m for v in row))
        assert validate_presheaf(w) == oracle(w)


class TestMalformedWeights:
    """A weight of the wrong length or with an entry outside its hom
    lattice is rejected with a message, as a malformed distributor is."""

    @pytest.mark.parametrize("weight", [Presheaf, Copresheaf])
    def test_out_of_range_entry_is_a_type_error(self, weight):
        A = fixture_ctx1().dom
        with pytest.raises(ArrowTypeError, match="entry 1 is outside its hom lattice"):
            validate_presheaf(weight(A, 0, (5, 0)))
        with pytest.raises(ArrowTypeError, match="entry 2 is outside its hom lattice"):
            validate_presheaf(weight(A, 0, (0, -1)))

    @pytest.mark.parametrize("weight", [Presheaf, Copresheaf])
    def test_wrong_length_is_a_structure_error(self, weight):
        A = fixture_ctx1().dom
        for weights in ((1,), (1, 1, 1)):
            with pytest.raises(StructureError, match="entries for 2 objects"):
                validate_presheaf(weight(A, 0, weights))

    def test_type_outside_the_quantaloid_is_a_structure_error(self):
        A = fixture_ctx1().dom
        with pytest.raises(StructureError, match="type index 1 out of range"):
            validate_presheaf(Presheaf(A, 1, (0, 0)))


# Every public entry point that takes a weight, as (call, the class it
# needs, the base it needs); None where it takes either class, or a weight
# on any base.  All on fixture_ctx1, whose source and target both have two
# objects, and each answers for the top weight (1, 1) of type 0.
CTX = fixture_ctx1()
SRC, TGT = CTX.dom, CTX.cod
UNIT = Arrow(0, 0, TWO.units[0])
ENTRY_POINTS = {
    "isbell_transform-up": (lambda w: isbell_transform(CTX, "up", w), Presheaf, SRC),
    "isbell_transform-down": (lambda w: isbell_transform(CTX, "down", w), Copresheaf, TGT),
    "kan_transform-star": (lambda w: kan_transform(CTX, "star", w), Presheaf, TGT),
    "kan_transform-lower_dag": (lambda w: kan_transform(CTX, "lower_dag", w), Copresheaf, TGT),
    "weight_leq-first": (lambda w: weight_leq(w, top_presheaf(SRC, 0)), Presheaf, SRC),
    "weight_leq-second": (lambda w: weight_leq(top_presheaf(SRC, 0), w), Presheaf, SRC),
    "presheaf_hom-first": (lambda w: presheaf_hom(w, top_presheaf(SRC, 0)), Presheaf, SRC),
    "presheaf_hom-second": (lambda w: presheaf_hom(top_presheaf(SRC, 0), w), Presheaf, SRC),
    "presheaf_meet": (lambda w: presheaf_meet([w], SRC, 0), Presheaf, SRC),
    "presheaf_join": (lambda w: presheaf_join([w], SRC, 0), Presheaf, SRC),
    "sup_inf-sup": (lambda w: sup_inf(SRC, "sup", w), Presheaf, SRC),
    "sup_inf-inf": (lambda w: sup_inf(SRC, "inf", w), Copresheaf, SRC),
    "weighted_colimit_limit": (
        lambda w: weighted_colimit_limit(identity_functor(SRC), "colim", w), Presheaf, SRC
    ),
    "direct_image": (lambda w: direct_image(identity_functor(SRC), w), None, SRC),
    "inverse_image": (lambda w: inverse_image(identity_functor(SRC), w), None, SRC),
    "tensor_weight": (lambda w: tensor_weight(UNIT, w), Presheaf, None),
    "cotensor_weight": (lambda w: cotensor_weight(UNIT, w), Presheaf, None),
    "meet_cotensor_closure": (lambda w: meet_cotensor_closure(SRC, [w]), Presheaf, SRC),
    "join_tensor_closure": (lambda w: join_tensor_closure(SRC, [w]), Presheaf, SRC),
    "index_of": (lambda w: presheaf_category(SRC).index_of(w), Presheaf, SRC),
    "index_of-co": (lambda w: presheaf_category(SRC, "co").index_of(w), Copresheaf, SRC),
    "index_by_extent": (
        lambda w: concept_lattice(CTX, "isbell").index_by_extent(w), Presheaf, SRC
    ),
    "index_by_intent": (
        lambda w: concept_lattice(CTX, "isbell").index_by_intent(w), Copresheaf, TGT
    ),
    "index_by_intent-kan": (
        lambda w: concept_lattice(CTX, "kan").index_by_intent(w), Presheaf, TGT
    ),
    "negate_presheaf": (lambda w: negate_presheaf(laws.fixture_girard("two"), w), None, None),
    "validate_presheaf": (validate_presheaf, None, None),
}

MALFORMED = {
    "one-short": lambda w: w._replace(weights=w.weights[:-1]),
    "one-too-many": lambda w: w._replace(weights=w.weights + (0,)),
    "type-outside": lambda w: w._replace(type_idx=len(w.base.Q.objects)),
    "type-not-an-index": lambda w: w._replace(type_idx=None),
    "other-variance": lambda w: (Copresheaf if type(w) is Presheaf else Presheaf)(*w),
    "other-base": lambda w: w._replace(base=TGT if w.base is SRC else SRC),
    "entry-above": lambda w: w._replace(weights=(5,) + w.weights[1:]),
    "entry-negative": lambda w: w._replace(weights=(-1,) + w.weights[1:]),
    "entry-float": lambda w: w._replace(weights=(1.0,) + w.weights[1:]),
    "entry-str": lambda w: w._replace(weights=("1",) + w.weights[1:]),
}


def malformed_cases():
    for name, (call, kind, base) in ENTRY_POINTS.items():
        for fault, make in MALFORMED.items():
            if {"other-variance": kind, "other-base": base}.get(fault, True) is None:
                continue  # the entry point takes that weight as it is
            yield pytest.param(name, fault, id=f"{name}-{fault}")


@pytest.mark.parametrize("name,fault", malformed_cases())
def test_malformed_weights_are_refused_at_every_entry_point(name, fault):
    call, kind, base = ENTRY_POINTS[name]
    good = (kind or Presheaf)(base or SRC, 0, (1, 1))
    call(good)  # answers for the well-formed weight
    with pytest.raises(QuantcatError):
        call(MALFORMED[fault](good))


def test_weights_of_the_two_variances_differ():
    mu, lam = Presheaf(SRC, 0, (1, 1)), Copresheaf(SRC, 0, (1, 1))
    assert mu != lam and not mu == lam and len({mu, lam}) == 2
    assert hash(mu) == hash(tuple(mu)) == hash(lam)
    assert mu == Presheaf(SRC, 0, (1, 1)) and mu != Presheaf(TGT, 0, (1, 1))


CHAIN = laws.fixture_small_categories()[0]
# Indices outside their range, each of which ended in an IndexError or a
# TypeError, answered for another index or was accepted, before the index
# rule: (call, error, message).
OUT_OF_RANGE = {
    "weight_leq": (
        lambda: weight_leq(Presheaf(SRC, 0, (5, 1)), top_presheaf(SRC, 0)),
        ArrowTypeError,
        "entry 1 is outside its hom lattice",
    ),
    "presheaf_hom": (
        lambda: presheaf_hom(Presheaf(SRC, 0, (5, 1)), top_presheaf(SRC, 0)),
        ArrowTypeError,
        "entry 1 is outside its hom lattice",
    ),
    "tensor-arrow-index": (
        lambda: tensor_cotensor(SRC, "tensor", Arrow(0, 0, 7), 0),
        ArrowTypeError,
        "arrow index 7 is outside its hom lattice",
    ),
    "tensor-object-index": (
        lambda: tensor_cotensor(SRC, "tensor", Arrow(0, 0, 1), 5),
        StructureError,
        "object index 5 out of range",
    ),
    "isbell-negative-entry": (
        lambda: isbell_transform(CTX, "up", Presheaf(SRC, 0, (-1, 0))),
        ArrowTypeError,
        "entry 1 is outside its hom lattice",
    ),
    "tensor-float-object-index": (
        lambda: tensor_cotensor(SRC, "tensor", Arrow(0, 0, 1), 0.0),
        StructureError,
        "object index 0.0 out of range",
    ),
    "tensor-negative-object-index": (
        lambda: tensor_cotensor(CHAIN, "tensor", Arrow(0, 0, 0), -1),
        StructureError,
        "object index -1 out of range",
    ),
    "cotensor-arrow-index": (
        lambda: tensor_cotensor(SRC, "cotensor", Arrow(0, 0, -1), 1),
        ArrowTypeError,
        "arrow index -1 is outside its hom lattice",
    ),
    "tensor-arrow-type": (
        lambda: tensor_cotensor(SRC, "tensor", Arrow(0, 1, 0), 0),
        StructureError,
        "type index 1 out of range",
    ),
    "tensor_weight-arrow-index": (
        lambda: tensor_weight(Arrow(0, 0, 7), top_presheaf(SRC, 0)),
        ArrowTypeError,
        "arrow index 7 is outside its hom lattice",
    ),
    "cotensor_weight-negative-arrow-index": (
        lambda: cotensor_weight(Arrow(0, 0, -1), top_presheaf(SRC, 0)),
        ArrowTypeError,
        "arrow index -1 is outside its hom lattice",
    ),
    "compose-arrow-index": (
        lambda: SRC.Q.compose(Arrow(0, 0, 5), Arrow(0, 0, 1)),
        ArrowTypeError,
        "arrow index 5 is outside its hom lattice",
    ),
    "compose-float-arrow-index": (
        lambda: SRC.Q.compose(Arrow(0, 0, 1), Arrow(0, 0, 1.0)),
        ArrowTypeError,
        "arrow index 1.0 is outside its hom lattice",
    ),
    "compose-arrow-type": (
        lambda: SRC.Q.compose(Arrow(0, 1, 0), Arrow(0, 0, 0)),
        StructureError,
        "type index 1 out of range",
    ),
    "left-residual-arrow-index": (
        lambda: SRC.Q.residual("left", Arrow(0, 0, 5), Arrow(0, 0, 1)),
        ArrowTypeError,
        "arrow index 5 is outside its hom lattice",
    ),
    "right-residual-negative-arrow-index": (
        lambda: SRC.Q.residual("right", Arrow(0, 0, 1), Arrow(0, 0, -1)),
        ArrowTypeError,
        "arrow index -1 is outside its hom lattice",
    ),
    "yoneda_weight-object-index": (
        lambda: yoneda_weight(SRC, 5),
        StructureError,
        "object index 5 out of range",
    ),
    "yoneda_weight-float-object-index": (
        lambda: yoneda_weight(SRC, 0.0),
        StructureError,
        "object index 0.0 out of range",
    ),
    "coyoneda_weight-negative-object-index": (
        lambda: coyoneda_weight(SRC, -1),
        StructureError,
        "object index -1 out of range",
    ),
    "validate_distributor-float-entry": (
        lambda: validate_distributor(QDistributor(SRC, TGT, [[0.5, 1], [0, 1]])),
        ArrowTypeError,
        "entry (1,a) is outside its hom lattice",
    ),
    "distributor-negative-entry": (
        lambda: concept_lattice(QDistributor(SRC, TGT, [[-1, 1], [0, 1]]), "isbell"),
        ArrowTypeError,
        "entry (1,a) is outside its hom lattice",
    ),
    "distributor-entry-past-its-hom": (
        lambda: concept_lattice(QDistributor(SRC, TGT, [[2, 1], [0, 1]]), "isbell"),
        ArrowTypeError,
        "entry (1,a) is outside its hom lattice",
    ),
    "distributor-entry-of-a-later-cell": (
        lambda: QDistributor(SRC, TGT, [[1, 1], [0, 2]]),
        ArrowTypeError,
        "entry (2,b) is outside its hom lattice",
    ),
    "girard_structure-float-member": (
        lambda: girard_structure(SRC.Q, [0.0]),
        StructureError,
        "family member for * out of range",
    ),
    "validate_category-float-hom": (
        lambda: validate_category(QCategory(SRC.Q, ["x"], [0], [[1.0]])),
        ArrowTypeError,
        "hom entry (x,x) is outside Q(*,*)",
    ),
    "category-float-type": (
        lambda: QCategory(SRC.Q, ["x"], [0.0], [[1]]),
        StructureError,
        "type index 0.0 out of range",
    ),
    "functor-float-value": (
        lambda: QFunctor(SRC, SRC, [0.0, 1]),
        StructureError,
        "functor value 0.0 out of range",
    ),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_an_index_outside_its_range_is_refused_with_a_message(name):
    call, error, message = OUT_OF_RANGE[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# Every public entry point that takes a bare type index on SRC.
TYPE_ENTRY_POINTS = {
    "top_presheaf": lambda t: top_presheaf(SRC, t),
    "bottom_presheaf": lambda t: bottom_presheaf(SRC, t),
    "presheaf_meet-empty": lambda t: presheaf_meet([], SRC, t),
    "presheaf_join-empty": lambda t: presheaf_join([], SRC, t),
    "presheaf_space_bound": lambda t: presheaf_space_bound(SRC, t),
}


@pytest.mark.parametrize("name", sorted(TYPE_ENTRY_POINTS))
@pytest.mark.parametrize("type_idx", [1, -1, None, 0.0])
def test_a_bare_type_index_outside_the_quantaloid_is_refused(name, type_idx):
    call = TYPE_ENTRY_POINTS[name]
    call(0)  # answers for the one type of fixture_ctx1's quantaloid
    with pytest.raises(StructureError, match=f"^type index {type_idx} out of range$"):
        call(type_idx)


# ---------------------------------------------------------------------------
# The contraction kernel: bit-sliced path against the cell loop
# ---------------------------------------------------------------------------

KERNEL_QUANTALOIDS = {
    "two": TWO,
    "lukasiewicz-3": QL3,
    "lukasiewicz-5": fixture_ql(5),
    "boolean-4": fixture_b4(),
    "boolean-8": one_object_quantaloid(build_boolean_algebra_quantale(3)),
}

# Per kind, whether the entries of the columns (operand a) and of the rows
# (operand b) lie in Q(mid[k], t), t the member's own type, or in Q(t, mid[k]).
ENTRIES_FROM_MID = {"compose": (True, False), "left": (True, True), "right": (False, False)}


def kernel_family(rng, Q, mid, size, from_mid, one_type):
    """`size` members along mid, of random types (all one type when
    `one_type`), with random entries of their homs."""
    first = rng.randrange(len(Q.objects))
    types = tuple(first if one_type else rng.randrange(len(Q.objects)) for _ in range(size))
    vecs = tuple(
        tuple(rng.randrange(Q.homs[(m, t) if from_mid else (t, m)].n) for m in mid)
        for t in types
    )
    return types, vecs


def kernel_call(rng, Q, kind, shape, one_type=False):
    """Random operands of a kernel call with (rows, columns, positions)."""
    rows, cols, positions = shape
    mid = tuple(rng.randrange(len(Q.objects)) for _ in range(positions))
    col_from_mid, row_from_mid = ENTRIES_FROM_MID[kind]
    a = kernel_family(rng, Q, mid, cols, col_from_mid, one_type)
    b = kernel_family(rng, Q, mid, rows, row_from_mid, one_type)
    return mid, a, b


class TestSlicedKernel:
    """distributor._sliced, called directly whatever the size rule says,
    is list-equal with the reference cell loop of tests/oracles.py."""

    @settings(max_examples=250, deadline=None)
    @given(
        st.sampled_from(sorted(KERNEL_QUANTALOIDS)),
        st.sampled_from(sorted(ENTRIES_FROM_MID)),
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 5)),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_equals_the_cell_loop(self, name, kind, shape, one_type, rng):
        Q = KERNEL_QUANTALOIDS[name]
        mid, a, b = kernel_call(rng, Q, kind, shape, one_type)
        for by_cols in (False, True):
            got = distributor._sliced(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)

    @pytest.mark.parametrize("name", sorted(KERNEL_QUANTALOIDS))
    @pytest.mark.parametrize("kind", sorted(ENTRIES_FROM_MID))
    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (5, 6, 0), (0, 0, 0)])
    def test_empty_rows_columns_and_mid(self, name, kind, shape):
        Q = KERNEL_QUANTALOIDS[name]
        mid, a, b = kernel_call(random.Random(7), Q, kind, shape)
        for by_cols in (False, True):
            got = distributor._sliced(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)

    def test_mixed_types_on_both_sides(self):
        Q = fixture_ql(5)
        for kind in ENTRIES_FROM_MID:
            mid, a, b = kernel_call(random.Random(3), Q, kind, (20, 20, 4))
            assert len(set(a[0])) > 1 and len(set(b[0])) > 1
            assert distributor._sliced(Q, kind, mid, a, b) == reference_contract(Q, kind, mid, a, b)


class TestSizeRule:
    """_contract takes the bit-sliced path once the rows and the columns
    both number at least max(8, 4 x the largest hom lattice of the call),
    and the cell loop below that; both paths answer as the reference."""

    @pytest.mark.parametrize(
        "name, rows, cols, sliced",
        [
            ("two", 8, 8, True),
            ("two", 7, 8, False),
            ("two", 8, 7, False),
            ("boolean-8", 32, 32, True),
            ("boolean-8", 31, 40, False),
            ("boolean-8", 40, 31, False),
        ],
    )
    @pytest.mark.parametrize("kind", sorted(ENTRIES_FROM_MID))
    def test_the_rule_picks_the_path(self, monkeypatch, name, rows, cols, sliced, kind):
        Q = KERNEL_QUANTALOIDS[name]
        mid, a, b = kernel_call(random.Random(rows * cols), Q, kind, (rows, cols, 9))
        calls = []
        real = distributor._sliced
        monkeypatch.setattr(distributor, "_sliced", lambda *args: calls.append(1) or real(*args))
        for by_cols in (False, True):
            got = distributor._contract(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)
        assert len(calls) == (2 if sliced else 0)

    def test_a_lattice_past_a_byte_keeps_the_cell_loop(self):
        # _sliced reads a cell off as one byte: hom indices up to 255
        for n, pays in ((256, True), (257, False)):
            Q = one_object_quantaloid(build_godel_chain(n))
            family = ((0,) * (4 * n), ())
            assert distributor._slicing_pays(Q, family, family) is pays
        Q = one_object_quantaloid(build_godel_chain(256))
        rng = random.Random(5)
        mid, a, b = kernel_call(rng, Q, "compose", (6, 9, 3))
        a = (a[0], a[1][:-1] + ((255, 255, 255),))
        b = (b[0], b[1][:-1] + ((255, 255, 255),))
        assert distributor._sliced(Q, "compose", mid, a, b) == reference_contract(
            Q, "compose", mid, a, b
        )
