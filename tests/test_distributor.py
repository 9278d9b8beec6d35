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
    ClosureSpace,
    GirardReport,
    Infomorphism,
    InvalidInfomorphism,
    Lattice,
    ObjectMismatch,
    PresheafCategory,
    PresheafSpaceTooLarge,
    QCategory,
    QDistributor,
    QFunctor,
    QTypedSet,
    QuantaleSpec,
    Quantaloid,
    StructureError,
    arrow_adjoint_check,
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
    functor_adjoint_check,
    functor_leq,
    girard_structure,
    graph_cograph,
    identity_distributor,
    identity_infomorphism,
    image_functor,
    infomorphism,
    inverse_image,
    membership_distributor,
    objects_isomorphic,
    one_object_quantaloid,
    presheaf_category,
    presheaf_hom,
    presheaf_join,
    presheaf_meet,
    presheaf_space_bound,
    quantaloid_from_divisible_quantale,
    underlying_join,
    underlying_leq,
    underlying_meet,
    validate_category,
    validate_closure_space,
    validate_distributor,
    validate_infomorphism,
    weight_leq,
    yoneda,
    yoneda_infomorphism,
    yoneda_weight,
)
from quantcat import distributor, laws
from quantcat.adjunction import (
    concept_lattice,
    concept_pairs,
    isbell_transform,
    kan_transform,
    negate_presheaf,
)
from quantcat.completion import (
    closure_from_system,
    cotensor_weight,
    identity_closure,
    join_tensor_closure,
    meet_cotensor_closure,
    sup_inf,
    tensor_cotensor,
    tensor_weight,
    weighted_colimit_limit,
)
from quantcat.enriched import FullSubcategory, identity_functor
from quantcat.errors import QuantcatError
from quantcat.distributor import (
    Copresheaf,
    Presheaf,
    _arrow_images,
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
    weight_images,
)

TWO = fixture_two()
QL3 = fixture_ql(3)


# The package's public classes and functions, the names `from quantcat import *`
# binds: no submodule, and not the `annotations` feature of `from __future__`.
PUBLIC_NAMES = """
    Absent Arrow ArrowTypeError CategoryMismatch ClosureOperator ClosureSpace
    ConceptLattice ConceptPair Copresheaf DegreeOutOfHom FullSubcategory GirardReport
    Infomorphism InternalCheckError InvalidInfomorphism InvalidSize Lattice NotCyclic
    NotDivisible NotDualizing NotGirard ObjectMismatch Presheaf PresheafCategory
    PresheafSpaceTooLarge QCategory QDistributor QFunctor QTypedSet QuantaleSpec
    Quantaloid QuantcatError SchemaError StructureError arrow_adjoint_check
    bottom_presheaf build_boolean build_boolean_algebra_quantale build_boolean_quantale
    build_godel_chain build_lukasiewicz_chain build_nilpotent_minimum_chain
    check_divisible closure_fixed_points closure_from_system closure_operator_check
    closure_to_context compose_distributors compose_functors compose_infomorphisms
    concept_functor_image concept_lattice continuity_check cotensor_weight
    coyoneda_weight default_cap dense_factorization density_check direct_image
    discrete_category dist_adjoint_check dist_leq dist_residual enumerate_presheaves
    functor_adjoint_check functor_is_isomorphism functor_leq girard_duality_check
    girard_structure graph_cograph identity_closure identity_distributor
    identity_functor identity_infomorphism image_functor induced_adjoint_pair
    infomorphism inverse_image is_absent is_complete isbell_transform
    join_tensor_closure kan_extension_pointwise kan_transform macneille_completion
    meet_cotensor_closure membership_distributor negate_distributor negate_presheaf
    objects_isomorphic one_object_quantaloid presheaf_category presheaf_hom
    presheaf_join presheaf_meet presheaf_space_bound quantaloid_from_divisible_quantale
    search_dualizing_families state_property_system_check sup_inf tensor_cotensor
    tensor_weight top_presheaf trivial_closure underlying_join underlying_leq
    underlying_meet underlying_preorder validate_category validate_closure_space
    validate_distributor validate_functor validate_infomorphism validate_presheaf
    validate_quantale validate_quantaloid weight_leq weighted_colimit_limit yoneda
    yoneda_infomorphism yoneda_weight
""".split()


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

    @given(st.integers(0, 10_000))
    def test_one_round_closes_the_actions(self, seed):
        # rand_distributor closes a random matrix as B . m . A, in one round:
        # over categories A and B a second round changes nothing.
        rng = seeded(seed)
        Q = fixture_two() if seed % 2 else fixture_ql(3)
        A, B = rand_category(rng, Q, 3), rand_category(rng, Q, 3)
        phi = rand_distributor(rng, A, B)
        assert validate_distributor(phi) == []
        assert laws._close_actions(A, B, phi.matrix) == phi.matrix

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
IMAGE_FIXTURES = {**ENUMERATION_FIXTURES, "ql5": lambda: fixture_ql(5)}


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(IMAGE_FIXTURES)),
        st.sampled_from(["contra", "co"]),
        st.booleans(),
    )
    def test_arrow_images_are_the_images_arrow_by_arrow(self, seed, fixture, variance, meet):
        # Each entry is one table read; the oracle composes or residuates
        # arrow by arrow.  The images come by the object at the arrow's
        # other end, then index.
        rng = seeded(seed)
        A = rand_category(rng, IMAGE_FIXTURES[fixture](), 4)
        Q, contra = A.Q, variance == "contra"
        w = rand_presheaf(rng, A) if contra else rand_copresheaf(rng, A)
        images = _arrow_images(A, w.type_idx, w.weights, contra, meet)
        t = w.type_idx
        ends = [(s, t) if meet == contra else (t, s) for s in range(len(Q.objects))]
        assert [(s, g) for s, g, _ in images] == [
            (s, g.idx) for s, end in enumerate(ends) for g in Q.arrows(*end)
        ]
        assert [(s, vec) for s, _, vec in images] == weight_images(w, meet)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(ENUMERATION_FIXTURES)),
        st.sampled_from(["contra", "co"]),
    )
    def test_least_weight_above_a_point_is_a_tensored_representable(self, seed, fixture, variance):
        # Yoneda: on a category the least weight holding v at x is
        # v . A(-, x) for presheaves, A(x, -) . v for copresheaves: the
        # tensor of the represented weight by v, the meet of the
        # enumerated weights that hold v at x.
        A = rand_category(seeded(seed), ENUMERATION_FIXTURES[fixture](), 4)
        Q, contra = A.Q, variance == "contra"
        represented = yoneda_weight if contra else coyoneda_weight
        weights = enumerate_presheaves(A, variance)
        for t in range(len(Q.objects)):
            of_type = [w.weights for w in weights if w.type_idx == t]
            lats = [Q.homs[(s, t) if contra else (t, s)] for s in A.types]
            for x in range(len(A)):
                # the tensors of type t, one per arrow g by index: v = g.idx
                images = [e for u, e in weight_images(represented(A, x), False) if u == t]
                for v, image in enumerate(images):
                    above = [w for w in of_type if lats[x].leq(v, w[x])]
                    least = tuple(lat.meet_all(w[y] for w in above) for y, lat in enumerate(lats))
                    assert least == image

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


class TestGeneratedClosure:
    """Every weight set is one generated closure: the weights of a hom
    matrix are those of the category it generates, and enumeration,
    generated extents and the public closures are closures of arrow
    images."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(sorted(ENUMERATION_FIXTURES)))
    def test_a_category_generates_itself(self, seed, fixture):
        C = rand_category(seeded(seed), ENUMERATION_FIXTURES[fixture](), 4)
        assert distributor._generated_hom(C.Q, C.types, C.hom_idx) == C.hom_idx

    @pytest.mark.parametrize("fixture", sorted(ENUMERATION_FIXTURES))
    def test_a_matrix_has_the_weights_of_the_category_it_generates(self, fixture):
        Q, rng, moved = ENUMERATION_FIXTURES[fixture](), seeded(31), 0
        for _ in range(40):
            n = rng.randint(1, 4)
            types = [rng.randrange(len(Q.objects)) for _ in range(n)]
            hom = [[rng.randrange(Q.homs[(s, d)].n) for d in types] for s in types]
            A = QCategory(Q, [f"x{i}" for i in range(n)], types, hom)
            closed = distributor._generated_hom(Q, types, hom)
            C = QCategory(Q, A.labels, types, closed)
            assert validate_category(C) == []
            moved += closed != A.hom_idx
            for variance in ("contra", "co"):
                keys = [[(w.type_idx, w.weights) for w in enumerate_presheaves(B, variance)]
                        for B in (A, C)]
                assert keys[0] == keys[1]
        assert moved  # the draw reaches matrices that are not categories

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(sorted(ENUMERATION_FIXTURES)))
    def test_presheaves_are_the_joins_of_tensored_representables(self, seed, fixture):
        A = rand_category(seeded(seed), ENUMERATION_FIXTURES[fixture](), 4)
        represented = [yoneda_weight(A, x) for x in range(len(A))]
        assert enumerate_presheaves(A, "contra") == join_tensor_closure(A, represented)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(ENUMERATION_FIXTURES)),
        st.sampled_from(["isbell", "kan"]),
    )
    def test_generated_extents_are_the_closure_of_the_columns(self, seed, fixture, kind):
        rng = seeded(seed)
        Q = ENUMERATION_FIXTURES[fixture]()
        A, B = rand_category(rng, Q, 3, 1), rand_category(rng, Q, 3, 1)
        phi = rand_distributor(rng, A, B)
        columns = [Presheaf(A, t, col) for t, col in zip(*phi.cols)]
        closure = meet_cotensor_closure if kind == "isbell" else join_tensor_closure
        assert [p.extent for p in concept_pairs(phi, kind)] == closure(A, columns)


class TestWeightCache:
    """enumerate_presheaves builds each category's weights once per
    variance and keeps them on the category; its cap is tested on every
    call, and a category's hom entries once, when it is built."""

    def test_repeated_calls_return_equal_new_lists(self):
        A = rand_category(seeded(5), QL3, 3, 3)
        for variance in ("contra", "co"):
            first = enumerate_presheaves(A, variance)
            second = enumerate_presheaves(A, variance)
            assert first == second == filtered_weights(A, variance)
            assert first is not second
            first.clear()
            assert enumerate_presheaves(A, variance) == second

    def test_the_generated_hom_is_built_once_per_category_and_variance(self, monkeypatch):
        built = []
        generated_hom = distributor._generated_hom
        monkeypatch.setattr(
            distributor,
            "_generated_hom",
            lambda Q, types, hom: built.append(hom) or generated_hom(Q, types, hom),
        )
        A, B = (rand_category(seeded(seed), QL3, 3, 3) for seed in (6, 7))
        for _ in range(3):
            for C in (A, B):
                for variance in ("contra", "co"):
                    enumerate_presheaves(C, variance)
        assert len(built) == 4
        assert all(hom is C.hom_idx for hom, C in zip(built, (A, A, B, B)))

    @pytest.mark.parametrize("first", ["contra", "co"])
    def test_the_variances_share_no_entry(self, first):
        A = rand_category(seeded(8), fixture_b4(), 3, 3)
        later = "co" if first == "contra" else "contra"
        enumerate_presheaves(A, first)
        assert enumerate_presheaves(A, later) == filtered_weights(A, later)
        assert enumerate_presheaves(A, first) == filtered_weights(A, first)

    @pytest.mark.parametrize("variance", ["contra", "co"])
    def test_a_lower_cap_still_refuses_a_cached_category(self, variance):
        A = discrete_category(TWO, QTypedSet(tuple("abcd"), (0,) * 4))
        assert len(enumerate_presheaves(A, variance)) == 16
        with pytest.raises(PresheafSpaceTooLarge) as exc:
            enumerate_presheaves(A, variance, cap=10)
        assert (exc.value.bound, exc.value.cap) == (16, 10)
        assert len(enumerate_presheaves(A, variance, cap=16)) == 16

    def test_a_hom_entry_outside_its_lattice_is_refused_when_the_category_is_built(self):
        message = r"^hom entry \(x,y\) is outside Q\(\*,\*\)$"
        with pytest.raises(ArrowTypeError, match=message):
            QCategory(fixture_ctx1().Q, ["x", "y"], [0, 0], [[1, 5], [0, 1]])

    def test_weights_and_their_cap_check_no_hom_entry(self, monkeypatch):
        import quantcat.enriched as enriched

        A = rand_category(seeded(9), QL3, 3, 3)
        checked = []
        monkeypatch.setattr(enriched, "_check_homs", checked.append)
        for variance in ("contra", "co", "contra", "co"):
            assert enumerate_presheaves(A, variance) == filtered_weights(A, variance)
            with pytest.raises(PresheafSpaceTooLarge):
                enumerate_presheaves(A, variance, cap=1)
        assert checked == []

    def test_only_categories_with_given_homs_are_checked(self, monkeypatch):
        # A lattice, a weight category and a full subcategory compute their
        # homs; the O(N^2) check would cost a large lattice nearly all the
        # time of its certificate, which enumerates the weights on it.
        import quantcat.enriched as enriched
        import quantcat.io as qio

        checked = []
        monkeypatch.setattr(enriched, "_check_homs", checked.append)
        lattice = concept_lattice(CTX, "kan")
        FullSubcategory(presheaf_category(lattice), [0, 1])
        assert qio._completeness_certificate(lattice, 1)["checked"] is False
        assert qio._completeness_certificate(lattice, None)["checked"] is True
        assert checked == []
        given_hom = QCategory(TWO, ["x"], [0], [[1]])
        discrete = discrete_category(TWO, QTypedSet(("y",), (0,)))
        assert checked == [given_hom, discrete]


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

    @pytest.mark.parametrize("name", sorted(RULE_QUANTALOIDS))
    def test_image_functors_are_the_images_weight_by_weight(self, name):
        # ra and nra are direct images, la and nla restrictions: each kind's
        # functor, one transform of a whole weight category, against the
        # per-weight bodies.
        Q = RULE_QUANTALOIDS[name]()
        for seed in range(6):
            rng = seeded(seed)
            B = rand_category(rng, Q, 3, 1)
            F = rand_functor_into(rng, B, rng.randint(0, 3))
            for variance, kinds in (("contra", ("ra", "la")), ("co", ("nra", "nla"))):
                PA, PB = presheaf_category(F.dom, variance), presheaf_category(B, variance)
                for kind, (P, R, image) in zip(
                    kinds, ((PA, PB, direct_image), (PB, PA, inverse_image))
                ):
                    functor = image_functor(F, kind, P, R)
                    want = [R.index_of(image(F, P.weight_at(i))) for i in range(len(P))]
                    assert list(functor.mapping) == want, (name, seed, kind)

    def test_the_star_import_binds_the_public_names_only(self):
        import types

        import quantcat

        namespace = {}
        exec("from quantcat import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == quantcat.__all__ == PUBLIC_NAMES
        assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
        assert "annotations" not in namespace and len(PUBLIC_NAMES) == 121

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


# A random weight as it was first defined: one column or row of a random
# distributor into or out of a one-object category.


def distributor_rand_presheaf(rng, A, type_idx=None):
    t = rng.randrange(len(A.Q.objects)) if type_idx is None else type_idx
    return Presheaf(A, t, rand_distributor(rng, A, point_category(A.Q, t)).cols[1][0])


def distributor_rand_copresheaf(rng, A, type_idx=None):
    t = rng.randrange(len(A.Q.objects)) if type_idx is None else type_idx
    return Copresheaf(A, t, rand_distributor(rng, point_category(A.Q, t), A).matrix[0])


DRAW_QUANTALOIDS = {**RULE_QUANTALOIDS, "lukasiewicz-5": lambda: fixture_ql(5)}


class TestSingleBodies:
    """The random draws and the extremal weights, each one body over code
    the library already has, against the definitions they replaced."""

    @pytest.mark.parametrize("name", sorted(DRAW_QUANTALOIDS))
    def test_a_draw_is_a_column_or_row_of_a_random_distributor(self, name):
        Q = DRAW_QUANTALOIDS[name]()
        pairs = ((rand_presheaf, distributor_rand_presheaf),
                 (rand_copresheaf, distributor_rand_copresheaf))
        draws = 0
        for seed in range(40):
            A = rand_category(random.Random(seed), Q, 3)
            for t in (None, seed % len(Q.objects)):
                for draw, reference in pairs:
                    r_new, r_old = random.Random(seed), random.Random(seed)
                    w, w_old = draw(r_new, A, t), reference(r_old, A, t)
                    assert w == w_old and type(w) is type(w_old)
                    assert r_new.random() == r_old.random()
                    assert validate_presheaf(w) == []
                    draws += 1
        assert draws == 160  # 640 over the four quantaloids

    @pytest.mark.parametrize("name", sorted(DRAW_QUANTALOIDS))
    def test_extremal_weights_are_the_empty_bounds(self, name):
        Q = DRAW_QUANTALOIDS[name]()
        for seed in range(10):
            A = rand_category(random.Random(seed), Q, 3)
            for t in range(len(Q.objects)):
                top, bottom = top_presheaf(A, t), bottom_presheaf(A, t)
                assert top == presheaf_meet((), A, t) and type(top) is Presheaf
                assert bottom == presheaf_join((), A, t) and type(bottom) is Presheaf
                assert top.weights == tuple(Q.homs[(s, t)].top for s in A.types)
                assert bottom.weights == tuple(Q.homs[(s, t)].bottom for s in A.types)
            for bad in (len(Q.objects), -1):
                for extremal in (top_presheaf, bottom_presheaf):
                    with pytest.raises(StructureError, match=f"^type index {bad} out of range$"):
                        extremal(A, bad)


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
CHAIN_ID = identity_distributor(CHAIN)
SRC_ID, TGT_ID, SRC_CO = identity_functor(SRC), identity_functor(TGT), presheaf_category(SRC, "co")


def two_tables(*key):
    """TWO's composition tables, made when read."""
    return TWO.compose_tables[key]


HALF = discrete_category(QL3, QTypedSet(("x",), (1,)))  # one object of type 1/2
EMPTY_QL3 = discrete_category(QL3, QTypedSet((), ()))
# Divisible by the identities that check_divisible tests, but not a quantale:
# its unit law fails, and so composition leaves its hom.
SWAP = QuantaleSpec(["0", "1"], [(0, 1)], [[1, 0], [0, 1]], 0)

# Indices outside their range, each of which ended in an IndexError or a
# TypeError, answered for another index or was accepted, before the index
# rule, then other refused inputs: (call, error, message).
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
    "girard_report-negative-member": (
        lambda: GirardReport(SRC.Q, [-1]),
        StructureError,
        "family member for * out of range",
    ),
    "girard_report-member-past-the-hom": (
        lambda: GirardReport(SRC.Q, [2]),
        StructureError,
        "family member for * out of range",
    ),
    "girard_report-short-family": (
        lambda: GirardReport(SRC.Q, []),
        StructureError,
        "family must assign one endo-arrow per object",
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
    "full-subcategory-object-index": (
        lambda: FullSubcategory(SRC, [5]),
        StructureError,
        "object index 5 out of range",
    ),
    "discrete_category-type": (
        lambda: discrete_category(SRC.Q, QTypedSet(("x",), (5,))),
        StructureError,
        "type index 5 out of range",
    ),
    "weight_at-object-index": (
        lambda: presheaf_category(SRC).weight_at(99),
        StructureError,
        "object index 99 out of range",
    ),
    "closure_from_system-member": (
        lambda: closure_from_system(presheaf_category(SRC), [99]),
        StructureError,
        "object index 99 out of range",
    ),
    "underlying_leq-object-index": (
        lambda: underlying_leq(SRC, 0, 5),
        StructureError,
        "object index 5 out of range",
    ),
    "underlying_leq-float-object-index": (
        lambda: underlying_leq(SRC, 0, 1.0),
        StructureError,
        "object index 1.0 out of range",
    ),
    "underlying_leq-negative-object-index": (
        lambda: underlying_leq(SRC, 0, -1),
        StructureError,
        "object index -1 out of range",
    ),
    "objects_isomorphic-object-index": (
        lambda: objects_isomorphic(SRC, 5, 0),
        StructureError,
        "object index 5 out of range",
    ),
    "underlying_join-member": (
        lambda: underlying_join(SRC, 0, [5]),
        StructureError,
        "object index 5 out of range",
    ),
    "underlying_meet-float-member": (
        lambda: underlying_meet(SRC, 0, [0.0]),
        StructureError,
        "object index 0.0 out of range",
    ),
    "underlying_join-negative-type": (
        lambda: underlying_join(SRC, -1, [0]),
        StructureError,
        "type index -1 out of range",
    ),
    "enumerate_presheaves-hom-entry": (
        lambda: enumerate_presheaves(QCategory(SRC.Q, ["x"], [0], [[5]]), "co"),
        ArrowTypeError,
        "hom entry (x,x) is outside Q(*,*)",
    ),
    "presheaf_category-hom-entry": (
        lambda: presheaf_category(QCategory(SRC.Q, ["x"], [0], [[5]])),
        ArrowTypeError,
        "hom entry (x,x) is outside Q(*,*)",
    ),
    # Wrong shapes, ends, sides and variances: refusals no other test reaches.
    "Lattice-duplicate-labels": (
        lambda: Lattice(["a", "a"], []),
        StructureError,
        "duplicate lattice labels: ('a', 'a')",
    ),
    "Lattice-no-elements": (
        lambda: Lattice([], []),
        StructureError,
        "a complete lattice needs at least one element",
    ),
    "Lattice-order-pair": (
        lambda: Lattice(["a"], [(0, 1)]),
        StructureError,
        "order pair (0,1) out of range",
    ),
    "Lattice-not-antisymmetric": (
        lambda: Lattice(["a", "b"], [(0, 1), (1, 0)]),
        StructureError,
        "order is not antisymmetric: a and b",
    ),
    "Lattice-index-label": (
        lambda: Lattice(["a"], []).index("b"),
        StructureError,
        "unknown lattice element 'b'",
    ),
    "Quantaloid-duplicate-objects": (
        lambda: Quantaloid(["*", "*"], {}, {}, [0, 0]),
        StructureError,
        "duplicate quantaloid object labels",
    ),
    "Quantaloid-missing-hom": (
        lambda: Quantaloid(["*"], {}, {}, [0]),
        StructureError,
        "missing hom table for (0,0)",
    ),
    "Quantaloid-hom-not-a-lattice": (
        lambda: Quantaloid(["*"], {(0, 0): "x"}, {}, [0]),
        StructureError,
        "hom (0,0) is not a Lattice",
    ),
    "Quantaloid-no-units": (
        lambda: Quantaloid(TWO.objects, TWO.homs, two_tables, []),
        StructureError,
        "one unit per object is required",
    ),
    "Quantaloid-unit-index": (
        lambda: Quantaloid(TWO.objects, TWO.homs, two_tables, [2]),
        StructureError,
        "unit for object * out of range",
    ),
    "object_index-label": (
        lambda: TWO.object_index("x"),
        StructureError,
        "unknown object 'x'",
    ),
    "leq-other-homs": (
        lambda: QL3.leq(Arrow(0, 0, 0), Arrow(0, 1, 0)),
        ObjectMismatch,
        "arrows Arrow(src=0, tgt=0, idx=0) and Arrow(src=0, tgt=1, idx=0) live in different homs",
    ),
    "join-other-hom": (
        lambda: QL3.join(0, 0, [Arrow(0, 1, 0)]),
        ObjectMismatch,
        "arrow Arrow(src=0, tgt=1, idx=0) not in hom (0,0)",
    ),
    "compose-middle-objects": (
        lambda: QL3.compose(Arrow(0, 0, 0), Arrow(0, 1, 0)),
        ObjectMismatch,
        "cannot compose Arrow(src=0, tgt=0, idx=0) after Arrow(src=0, tgt=1, idx=0): "
        "middle objects differ",
    ),
    "residual-left-sources": (
        lambda: QL3.residual("left", Arrow(0, 0, 0), Arrow(1, 1, 0)),
        ObjectMismatch,
        "Arrow(src=0, tgt=0, idx=0) and Arrow(src=1, tgt=1, idx=0) must share their source",
    ),
    "residual-right-targets": (
        lambda: QL3.residual("right", Arrow(0, 0, 0), Arrow(1, 1, 0)),
        ObjectMismatch,
        "Arrow(src=0, tgt=0, idx=0) and Arrow(src=1, tgt=1, idx=0) must share their target",
    ),
    "residual-side": (
        lambda: TWO.residual("up", UNIT, UNIT),
        ValueError,
        "side must be 'left' or 'right', got 'up'",
    ),
    "arrow_adjoint_check-parallel": (
        lambda: arrow_adjoint_check(QL3, Arrow(0, 1, 0), Arrow(0, 1, 0)),
        ObjectMismatch,
        "Arrow(src=0, tgt=1, idx=0) and Arrow(src=0, tgt=1, idx=0) are not antiparallel",
    ),
    "QuantaleSpec-table-shape": (
        lambda: QuantaleSpec(["0", "1"], [(0, 1)], [[0]], 1),
        StructureError,
        "tensor table has wrong shape",
    ),
    "QuantaleSpec-table-value": (
        lambda: QuantaleSpec(["0", "1"], [(0, 1)], [[0, 2], [0, 1]], 1),
        StructureError,
        "tensor table value out of range",
    ),
    "QuantaleSpec-unit": (
        lambda: QuantaleSpec(["0", "1"], [(0, 1)], [[0, 0], [0, 1]], 2),
        StructureError,
        "unit out of range",
    ),
    "divisible-builder-composition": (
        lambda: quantaloid_from_divisible_quantale(SWAP).compose_tables[(0, 1, 0)],
        StructureError,
        "unit law fails at 0",
    ),
    "QDistributor-quantaloids": (
        lambda: QDistributor(SRC, EMPTY_QL3, [(), ()]),
        CategoryMismatch,
        "distributor endpoints live over different quantaloids",
    ),
    "QDistributor-shape": (
        lambda: QDistributor(SRC, TGT, [[1]]),
        StructureError,
        "distributor matrix has wrong shape",
    ),
    "compose_distributors-ends": (
        lambda: compose_distributors(CTX, CTX),
        CategoryMismatch,
        "distributors are not composable",
    ),
    "dist_residual-left-sources": (
        lambda: dist_residual("left", CTX, identity_distributor(TGT)),
        CategoryMismatch,
        "left residual needs a common source category",
    ),
    "dist_residual-right-targets": (
        lambda: dist_residual("right", CTX, identity_distributor(SRC)),
        CategoryMismatch,
        "right residual needs a common target category",
    ),
    "dist_residual-side": (
        lambda: dist_residual("up", CTX, CTX),
        ValueError,
        "side must be 'left' or 'right', got 'up'",
    ),
    "dist_leq-ends": (
        lambda: dist_leq(CTX, identity_distributor(SRC)),
        CategoryMismatch,
        "distributors are not parallel",
    ),
    "dist_adjoint_check-ends": (
        lambda: dist_adjoint_check(CTX, CTX),
        CategoryMismatch,
        "adjoint candidate must run the other way",
    ),
    "weight_leq-types": (
        lambda: weight_leq(top_presheaf(HALF, 0), top_presheaf(HALF, 1)),
        CategoryMismatch,
        "weights are not comparable",
    ),
    "enumerate_presheaves-variance": (
        lambda: enumerate_presheaves(SRC, "both"),
        ValueError,
        "variance must be 'contra' or 'co', got 'both'",
    ),
    "PresheafCategory-duplicates": (
        lambda: PresheafCategory(SRC, "contra", [top_presheaf(SRC, 0)] * 2),
        StructureError,
        "duplicate weights",
    ),
    "yoneda-base": (
        lambda: yoneda(TGT, presheaf_category(SRC)),
        CategoryMismatch,
        "presheaf category has a different base",
    ),
    "image_functor-variance": (
        lambda: image_functor(identity_functor(SRC), "ra", SRC_CO, SRC_CO),
        CategoryMismatch,
        "kind 'ra' needs contravariant weight categories",
    ),
    "validate_infomorphism-forward": (
        lambda: validate_infomorphism(Infomorphism(CTX, CTX, TGT_ID, TGT_ID)),
        CategoryMismatch,
        "forward functor endpoints do not match",
    ),
    "validate_infomorphism-backward": (
        lambda: validate_infomorphism(Infomorphism(CTX, CTX, SRC_ID, SRC_ID)),
        CategoryMismatch,
        "backward functor endpoints do not match",
    ),
    "compose_infomorphisms-ends": (
        lambda: compose_infomorphisms(identity_infomorphism(CTX), identity_infomorphism(CHAIN_ID)),
        CategoryMismatch,
        "infomorphisms are not composable",
    ),
    "membership_distributor-variance": (
        lambda: membership_distributor(SRC, SRC_CO),
        CategoryMismatch,
        "need the contravariant weight category of A",
    ),
    "QCategory-duplicate-labels": (
        lambda: QCategory(TWO, ["x", "x"], [0, 0], [[1, 1], [1, 1]]),
        StructureError,
        "duplicate element labels",
    ),
    "QCategory-types": (
        lambda: QCategory(TWO, ["x"], [0, 0], [[1]]),
        StructureError,
        "one type per element is required",
    ),
    "QCategory-hom-shape": (
        lambda: QCategory(TWO, ["x"], [0], [[1, 1]]),
        StructureError,
        "hom matrix has wrong shape",
    ),
    "QFunctor-quantaloids": (
        lambda: QFunctor(SRC, EMPTY_QL3, []),
        CategoryMismatch,
        "functor endpoints live over different quantaloids",
    ),
    "functor_leq-ends": (
        lambda: functor_leq(SRC_ID, TGT_ID),
        CategoryMismatch,
        "functors are not parallel",
    ),
    "functor_adjoint_check-ends": (
        lambda: functor_adjoint_check(SRC_ID, TGT_ID),
        CategoryMismatch,
        "adjoint candidate must run the other way",
    ),
    "sup_inf-side": (
        lambda: sup_inf(SRC, "lim", top_presheaf(SRC, 0)),
        ValueError,
        "side must be 'sup' or 'inf', got 'lim'",
    ),
    "weighted_colimit_limit-side": (
        lambda: weighted_colimit_limit(SRC_ID, "sup", top_presheaf(SRC, 0)),
        ValueError,
        "side must be 'colim' or 'lim', got 'sup'",
    ),
    "cotensor_weight-arrow-end": (
        lambda: cotensor_weight(Arrow(0, 0, 0), top_presheaf(HALF, 1)),
        ObjectMismatch,
        "cotensoring arrow must end at the weight's type",
    ),
    "tensor_weight-arrow-start": (
        lambda: tensor_weight(Arrow(0, 0, 0), top_presheaf(HALF, 1)),
        ObjectMismatch,
        "tensoring arrow must start at the weight's type",
    ),
    "closure_from_system-variance": (
        lambda: closure_from_system(SRC_CO, []),
        CategoryMismatch,
        "closure systems are defined on contravariant weights",
    ),
    "validate_closure_space-variance": (
        lambda: validate_closure_space(ClosureSpace(SRC, identity_closure(SRC_CO))),
        CategoryMismatch,
        "operator must act on contravariant weights",
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
# The contraction kernel: packed path against the cell loop
# ---------------------------------------------------------------------------

KERNEL_QUANTALOIDS = {
    "two": TWO,
    "lukasiewicz-3": QL3,
    "lukasiewicz-5": fixture_ql(5),
    "boolean-4": fixture_b4(),
    "boolean-8": one_object_quantaloid(build_boolean_algebra_quantale(3)),
    "lukasiewicz-9": fixture_ql(9),  # homs of 1-9 elements: cells of one and two bytes
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


def kernel_call(rng, Q, kind, shape, one_type=(False, False)):
    """Random operands of a kernel call with (rows, columns, positions);
    one_type says, for (rows, columns), whether its members share a type."""
    rows, cols, positions = shape
    mid = tuple(rng.randrange(len(Q.objects)) for _ in range(positions))
    col_from_mid, row_from_mid = ENTRIES_FROM_MID[kind]
    a = kernel_family(rng, Q, mid, cols, col_from_mid, one_type[1])
    b = kernel_family(rng, Q, mid, rows, row_from_mid, one_type[0])
    return mid, a, b


class TestPackedKernel:
    """distributor._packed, called directly whatever the size rule says,
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
        mid, a, b = kernel_call(rng, Q, kind, shape, (one_type, one_type))
        for by_cols in (False, True):
            got = distributor._packed(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)

    @pytest.mark.parametrize("name", sorted(KERNEL_QUANTALOIDS))
    @pytest.mark.parametrize("kind", sorted(ENTRIES_FROM_MID))
    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (5, 6, 0), (0, 0, 0)])
    def test_empty_rows_columns_and_mid(self, name, kind, shape):
        Q = KERNEL_QUANTALOIDS[name]
        mid, a, b = kernel_call(random.Random(7), Q, kind, shape)
        for by_cols in (False, True):
            got = distributor._packed(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)

    @pytest.mark.parametrize("name", ["lukasiewicz-5", "lukasiewicz-9"])
    def test_mixed_types_on_both_sides(self, name):
        Q = KERNEL_QUANTALOIDS[name]
        for kind in ENTRIES_FROM_MID:
            mid, a, b = kernel_call(random.Random(3), Q, kind, (20, 20, 4))
            assert len(set(a[0])) > 1 and len(set(b[0])) > 1
            assert distributor._packed(Q, kind, mid, a, b) == reference_contract(Q, kind, mid, a, b)


class TestCellLoop:
    """_contract below the size rule (at most 7 rows) is list-equal with the
    reference cell loop of tests/oracles.py, whether the rows, the columns,
    both or neither are of one type, and on empty rows, columns or mid."""

    @staticmethod
    def assert_equal(Q, kind, mid, a, b):
        for by_cols in (False, True):
            got = distributor._contract(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(KERNEL_QUANTALOIDS)),
        st.sampled_from(sorted(ENTRIES_FROM_MID)),
        st.tuples(st.integers(0, 7), st.integers(0, 12), st.integers(0, 6)),
        st.booleans(),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_equals_the_reference(self, name, kind, shape, rows_one_type, cols_one_type, rng):
        Q = KERNEL_QUANTALOIDS[name]
        self.assert_equal(Q, kind, *kernel_call(rng, Q, kind, shape, (rows_one_type, cols_one_type)))

    @pytest.mark.parametrize("one_type", [True, False])
    @pytest.mark.parametrize("kind", sorted(ENTRIES_FROM_MID))
    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (5, 6, 0), (0, 0, 0)])
    def test_empty_rows_columns_and_mid(self, shape, kind, one_type):
        Q = KERNEL_QUANTALOIDS["lukasiewicz-5"]
        self.assert_equal(Q, kind, *kernel_call(random.Random(7), Q, kind, shape, (one_type, one_type)))


class TestSizeRule:
    """_contract takes the packed path once the rows and the columns both
    number at least the bits of a packed cell, 8 x ceil(n / 8) for n the
    largest hom lattice of the call, and the cell loop below that; both
    paths answer as the reference."""

    QUANTALOIDS = {**KERNEL_QUANTALOIDS, "godel-16": one_object_quantaloid(build_godel_chain(16))}

    @pytest.mark.parametrize(
        "name, rows, cols, packed",
        [
            ("two", 8, 8, True),
            ("two", 7, 8, False),
            ("two", 8, 7, False),
            ("boolean-8", 8, 8, True),
            ("boolean-8", 7, 9, False),
            ("boolean-8", 9, 7, False),
            ("godel-16", 16, 16, True),
            ("godel-16", 15, 17, False),
            ("godel-16", 17, 15, False),
        ],
    )
    @pytest.mark.parametrize("kind", sorted(ENTRIES_FROM_MID))
    def test_the_rule_picks_the_path(self, monkeypatch, name, rows, cols, packed, kind):
        Q = self.QUANTALOIDS[name]
        mid, a, b = kernel_call(random.Random(rows * cols), Q, kind, (rows, cols, 9))
        calls = []
        real = distributor._packed
        monkeypatch.setattr(distributor, "_packed", lambda *args: calls.append(1) or real(*args))
        for by_cols in (False, True):
            got = distributor._contract(Q, kind, mid, a, b, by_cols)
            assert got == reference_contract(Q, kind, mid, a, b, by_cols)
        assert len(calls) == (2 if packed else 0)

    def test_a_lattice_past_a_byte_takes_the_packed_path(self, monkeypatch):
        # 257 elements pack into 33 bytes a cell: the rule asks 8 x 33 rows and columns
        Q = one_object_quantaloid(build_godel_chain(257))
        for size, pays in ((263, False), (264, True)):
            family = ((0,) * size, ())
            assert distributor._packing_pays(Q, family, family) is pays
        mid, a, b = kernel_call(random.Random(5), Q, "compose", (264, 264, 3))
        a = (a[0], a[1][:-1] + ((256, 256, 256),))
        b = (b[0], b[1][:-1] + ((256, 256, 256),))
        calls = []
        real = distributor._packed
        monkeypatch.setattr(distributor, "_packed", lambda *args: calls.append(1) or real(*args))
        got = distributor._contract(Q, "compose", mid, a, b)
        assert calls == [1]
        assert got == reference_contract(Q, "compose", mid, a, b)
