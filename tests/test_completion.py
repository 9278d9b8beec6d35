"""Tensors, suprema, weighted (co)limits, closure operators, Kan extensions."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcat import (
    Absent,
    Arrow,
    CategoryMismatch,
    ClosureOperator,
    ClosureSpace,
    Copresheaf,
    FullSubcategory,
    InternalCheckError,
    InvalidInfomorphism,
    ObjectMismatch,
    Presheaf,
    PresheafCategory,
    QDistributor,
    QCategory,
    QFunctor,
    QTypedSet,
    QuantcatError,
    StructureError,
    build_boolean,
    build_lukasiewicz_chain,
    closure_fixed_points,
    closure_from_system,
    closure_operator_check,
    closure_to_context,
    compose_functors,
    concept_functor_image,
    concept_lattice,
    continuity_check,
    cotensor_weight,
    coyoneda_weight,
    dense_factorization,
    density_check,
    direct_image,
    discrete_category,
    enumerate_presheaves,
    functor_adjoint_check,
    graph_cograph,
    identity_closure,
    identity_distributor,
    identity_functor,
    image_functor,
    induced_adjoint_pair,
    infomorphism,
    inverse_image,
    is_absent,
    is_complete,
    isbell_transform,
    join_tensor_closure,
    kan_extension_pointwise,
    macneille_completion,
    meet_cotensor_closure,
    objects_isomorphic,
    one_object_quantaloid,
    presheaf_category,
    presheaf_join,
    presheaf_meet,
    quantaloid_from_divisible_quantale,
    sup_inf,
    tensor_cotensor,
    tensor_weight,
    top_presheaf,
    bottom_presheaf,
    trivial_closure,
    underlying_join,
    underlying_meet,
    underlying_preorder,
    validate_category,
    validate_closure_space,
    validate_distributor,
    validate_functor,
    validate_presheaf,
    weight_leq,
    weighted_colimit_limit,
    yoneda,
    yoneda_infomorphism,
    yoneda_weight,
)
from quantcat import adjunction, completion, enriched, laws
from quantcat.completion import _bounds, _canonical_colimits
from quantcat.distributor import _arrow_images, _images_at
from quantcat.enriched import type_failures
from quantcat.laws import (
    fixture_b4,
    fixture_ctx1,
    fixture_fuzzy_ctx,
    fixture_ql,
    fixture_two,
    rand_category,
    rand_closure_space,
    rand_context,
    rand_distributor,
    rand_functor_into,
    rand_presheaf,
)

from oracles import reference_bound, reference_tensor, subset_bounds, weight_images

TWO = build_boolean()
QL3D = quantaloid_from_divisible_quantale(build_lukasiewicz_chain(3))
T_ONE = QL3D.objects.index("1")

CHAIN = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
ANTICHAIN = QCategory(TWO, ("x", "y"), (0, 0), [[1, 0], [0, 1]])
EMPTY = QCategory(TWO, (), (), [])
SINGLE = discrete_category(QL3D, QTypedSet(("s",), (T_ONE,)))

PA_CHAIN = presheaf_category(CHAIN)
PA_ANTI = presheaf_category(ANTICHAIN)
PA_SINGLE = presheaf_category(SINGLE)


def pidx(P, type_idx, weights):
    return P.index_of(Presheaf(P.base, type_idx, tuple(weights)))


CLOSURE_FIXTURES = {"two": fixture_two, "ql3": lambda: fixture_ql(3), "b4": fixture_b4}


def every_tensor_lookup(A, side, f, x):
    """tensor_cotensor as it read the images of every arrow out of (into)
    x's type at every object, keeping f's: the reference for the lookup
    at f's other end only."""
    upper = side == "tensor"
    index = completion._index(A, upper)
    w = coyoneda_weight(A, x) if upper else yoneda_weight(A, x)
    images = _arrow_images(A, w.type_idx, w.weights, not upper, True)
    found = {(s, g): index.get((s, vec)) for s, g, vec in images}[
        f.tgt if upper else f.src, f.idx
    ]
    return Absent((side, f, A.labels[x])) if found is None else found


def looked_up(value):
    """An object index, or ("absent", witness): Absent compares by identity."""
    return ("absent", value.witness) if is_absent(value) else value


class TestTensorCotensor:
    def test_unit_arrow_acts_trivially(self):
        for A in (CHAIN, PA_CHAIN, SINGLE, PA_SINGLE):
            for x in range(len(A)):
                u = A.Q.unit(A.types[x])
                assert tensor_cotensor(A, "tensor", u, x) == x
                assert tensor_cotensor(A, "cotensor", u, x) == x

    def test_bottom_arrow_lands_on_extremes(self):
        bot = Arrow(0, 0, 0)
        # Tensoring by the bottom arrow yields the least object, cotensoring
        # the greatest; the two-element antichain has neither.
        assert tensor_cotensor(CHAIN, "tensor", bot, 1) == 0
        assert tensor_cotensor(CHAIN, "cotensor", bot, 0) == 1
        assert is_absent(tensor_cotensor(ANTICHAIN, "tensor", bot, 1))
        assert is_absent(tensor_cotensor(ANTICHAIN, "cotensor", bot, 0))

    @pytest.mark.parametrize("P", [PA_CHAIN, PA_ANTI, PA_SINGLE])
    def test_weight_categories_compute_pointwise(self, P):
        # In a weight category the tensor and cotensor always exist and are
        # computed componentwise.
        Q = P.Q
        for i in range(len(P)):
            mu = P.weight_at(i)
            for t in range(len(Q.objects)):
                for g_idx in range(Q.homs[(mu.type_idx, t)].n):
                    g = Arrow(mu.type_idx, t, g_idx)
                    y = tensor_cotensor(P, "tensor", g, i)
                    assert y == P.index_of(tensor_weight(g, mu))
                for g_idx in range(Q.homs[(t, mu.type_idx)].n):
                    g = Arrow(t, mu.type_idx, g_idx)
                    y = tensor_cotensor(P, "cotensor", g, i)
                    assert y == P.index_of(cotensor_weight(g, mu))

    def test_one_arrow_weight_builds_only_the_images_at_its_other_end(self, monkeypatch):
        Q = fixture_ql(9)
        top = Q.objects.index("1")
        A = rand_category(random.Random(3), Q, 3, 3)
        mu = rand_presheaf(random.Random(4), A, top)
        built = []

        def images_at(*args):
            images = _images_at(*args)
            built.append((args[-1], len(images)))
            return images

        monkeypatch.setattr(completion, "_images_at", images_at)
        for meet, image in ((True, cotensor_weight), (False, tensor_weight)):
            every = _arrow_images(A, top, mu.weights, True, meet)
            for other in range(len(Q.objects)):
                hom = (other, top) if meet else (top, other)
                for g in Q.arrows(*hom):
                    built.clear()
                    got = image(g, mu)
                    assert built == [(other, Q.homs[hom].n)]
                    (vec,) = [v for s, f, v in every if (s, f) == (other, g.idx)]
                    assert got == Presheaf(A, other, vec)

    def test_tensor_lookup_builds_only_the_images_at_the_other_end(self, monkeypatch):
        Q = fixture_ql(9)
        A = rand_category(random.Random(5), Q, 3, 3)
        built = []

        def images_at(*args):
            images = _images_at(*args)
            built.append((args[-1], len(images)))
            return images

        monkeypatch.setattr(completion, "_images_at", images_at)
        for x, t in enumerate(A.types):
            for other in range(len(Q.objects)):
                for side, hom in (("tensor", (t, other)), ("cotensor", (other, t))):
                    for f in Q.arrows(*hom):
                        built.clear()
                        got = tensor_cotensor(A, side, f, x)
                        assert built == [(other, Q.homs[hom].n)]
                        assert looked_up(got) == looked_up(every_tensor_lookup(A, side, f, x))

    @pytest.mark.parametrize("name", sorted(CLOSURE_FIXTURES))
    def test_tensor_lookup_matches_the_every_arrow_lookup(self, name):
        Q = CLOSURE_FIXTURES[name]()
        for seed in range(4):
            A = rand_category(random.Random(seed), Q, 3, 1)
            for x, t in enumerate(A.types):
                for other in range(len(Q.objects)):
                    for side, hom in (("tensor", (t, other)), ("cotensor", (other, t))):
                        for f in Q.arrows(*hom):
                            got = tensor_cotensor(A, side, f, x)
                            assert looked_up(got) == looked_up(every_tensor_lookup(A, side, f, x))
                            assert type(got) is type(every_tensor_lookup(A, side, f, x))

    def test_arrow_type_is_checked(self):
        t0 = QL3D.objects.index("0")
        with pytest.raises(ObjectMismatch):
            tensor_cotensor(SINGLE, "tensor", Arrow(t0, t0, 0), 0)
        with pytest.raises(ObjectMismatch):
            tensor_cotensor(SINGLE, "cotensor", Arrow(T_ONE, t0, 0), 0)
        with pytest.raises(ValueError):
            tensor_cotensor(CHAIN, "sideways", Arrow(0, 0, 1), 0)


class TestSupInf:
    def test_chain_suprema(self):
        expected = {(0, 0): 0, (1, 0): 0, (1, 1): 1}
        for weights, target in expected.items():
            mu = Presheaf(CHAIN, 0, weights)
            assert not validate_presheaf(mu)
            assert sup_inf(CHAIN, "sup", mu) == target

    def test_chain_infima(self):
        expected = {(0, 0): 1, (0, 1): 1, (1, 1): 0}
        for weights, target in expected.items():
            lam = Copresheaf(CHAIN, 0, weights)
            assert sup_inf(CHAIN, "inf", lam) == target

    def test_variance_and_base_are_checked(self):
        with pytest.raises(CategoryMismatch):
            sup_inf(CHAIN, "sup", Copresheaf(CHAIN, 0, (1, 1)))
        with pytest.raises(CategoryMismatch):
            sup_inf(CHAIN, "inf", Presheaf(CHAIN, 0, (1, 1)))
        with pytest.raises(CategoryMismatch):
            sup_inf(ANTICHAIN, "sup", Presheaf(CHAIN, 0, (1, 1)))

    def test_chain_is_complete(self):
        assert is_complete(CHAIN) == (True, None)

    def test_antichain_is_incomplete(self):
        ok, witness = is_complete(ANTICHAIN)
        assert ok is False
        side = "sup" if isinstance(witness, Presheaf) else "inf"
        assert is_absent(sup_inf(ANTICHAIN, side, witness))

    @pytest.mark.parametrize("P", [PA_CHAIN, PA_ANTI, PA_SINGLE])
    def test_weight_categories_are_complete(self, P):
        # is_complete cross-checks every supremum against the join of
        # tensors internally, so this also exercises the closed formulas.
        assert is_complete(P) == (True, None)

    def test_underlying_bounds(self):
        i10 = pidx(PA_ANTI, 0, (1, 0))
        i01 = pidx(PA_ANTI, 0, (0, 1))
        assert underlying_join(PA_ANTI, 0, [i10, i01]) == pidx(PA_ANTI, 0, (1, 1))
        assert underlying_meet(PA_ANTI, 0, [i10, i01]) == pidx(PA_ANTI, 0, (0, 0))
        assert is_absent(underlying_join(ANTICHAIN, 0, [0, 1]))
        # An object of another type is a type error, not a missing bound.
        other = next(i for i in range(len(PA_SINGLE)) if PA_SINGLE.types[i] != T_ONE)
        for bound in (underlying_join, underlying_meet):
            with pytest.raises(ObjectMismatch):
                bound(PA_SINGLE, T_ONE, [other])


@given(st.lists(st.integers(0, len(PA_SINGLE) - 1), max_size=4))
@settings(max_examples=60, deadline=None)
def test_underlying_join_matches_pointwise_join(indices):
    """In a weight category the preorder join is the pointwise join."""
    weights = [PA_SINGLE.weight_at(i) for i in indices]
    types = {w.type_idx for w in weights}
    for t in types | {T_ONE}:
        same = [w for w in weights if w.type_idx == t]
        joined = presheaf_join(same, SINGLE, t)
        got = underlying_join(PA_SINGLE, t, [PA_SINGLE.index_of(w) for w in same])
        assert got == PA_SINGLE.index_of(joined)
        met = presheaf_meet(same, SINGLE, t)
        got = underlying_meet(PA_SINGLE, t, [PA_SINGLE.index_of(w) for w in same])
        assert got == PA_SINGLE.index_of(met)


class TestWeightedColimits:
    @pytest.mark.parametrize(
        "A,P", [(CHAIN, PA_CHAIN), (ANTICHAIN, PA_ANTI), (SINGLE, PA_SINGLE)]
    )
    def test_every_weight_is_a_colimit_of_representables(self, A, P):
        Y = yoneda(A, P)
        for i in range(len(P)):
            assert weighted_colimit_limit(Y, "colim", P.weight_at(i)) == i

    def test_representable_weights_reduce_to_values(self):
        F = identity_functor(CHAIN)
        for a in range(len(CHAIN)):
            assert weighted_colimit_limit(F, "colim", yoneda_weight(CHAIN, a)) == a
            assert weighted_colimit_limit(F, "lim", coyoneda_weight(CHAIN, a)) == a

    def test_missing_colimit_is_absent(self):
        F = identity_functor(ANTICHAIN)
        assert is_absent(weighted_colimit_limit(F, "colim", Presheaf(ANTICHAIN, 0, (1, 1))))

    def test_weight_checks(self):
        F = identity_functor(CHAIN)
        with pytest.raises(CategoryMismatch):
            weighted_colimit_limit(F, "colim", Copresheaf(CHAIN, 0, (1, 1)))
        with pytest.raises(CategoryMismatch):
            weighted_colimit_limit(F, "colim", Presheaf(ANTICHAIN, 0, (1, 1)))


def two_branch_closure_check(P, mapping):
    """closure_operator_check with idempotence checked on the nose when P
    is skeletal and up to isomorphism otherwise."""
    report, _ = validate_functor(QFunctor(P, P, mapping))
    Q = P.Q
    for i in range(len(P)):
        if P.types[mapping[i]] == P.types[i]:
            if not Q.leq(Q.unit(P.types[i]), P.hom(i, mapping[i])):
                report.append(f"inflation fails at {P.labels[i]}")
    _, skeletal = underlying_preorder(P)
    for i in range(len(P)):
        c, cc = mapping[i], mapping[mapping[i]]
        if skeletal:
            fails = cc != c
        else:
            fails = not objects_isomorphic(P, cc, c)
        if fails:
            report.append(f"idempotence fails at {P.labels[i]}")
    return report


# Weight categories over Boolean and Lukasiewicz-3 bases, for closure
# operators drawn by the law suite, and one non-skeletal category (x and y
# isomorphic, both below z) for arbitrary maps.
CLOSURE_BASES = [
    (A, presheaf_category(A))
    for A in [ANTICHAIN]
    + [rand_category(random.Random(s), fixture_two(), 3) for s in (5, 11)]
    + [rand_category(random.Random(s), fixture_ql(3), 2, 1) for s in (1, 5, 9)]
] + [(None, QCategory(TWO, ("x", "y", "z"), (0, 0, 0), [[1, 1, 1], [1, 1, 1], [0, 0, 1]]))]


class TestClosureOperators:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_idempotence_rule_matches_the_two_branch_rule(self, data):
        A, P = data.draw(st.sampled_from(CLOSURE_BASES))
        n = len(P)
        if A is None:
            mapping = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        else:
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            mapping = list(rand_closure_space(rng, A, P).operator.mapping)
            if data.draw(st.booleans()):
                mapping[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
        assert closure_operator_check(ClosureOperator(P, mapping)) == two_branch_closure_check(
            P, mapping
        )

    def test_a_closure_operator_is_a_functor(self):
        C = trivial_closure(PA_CHAIN)
        assert validate_functor(C) == ([], False)
        assert compose_functors(C, C).mapping == C.mapping
        embed = yoneda(CHAIN, PA_CHAIN)
        closed = QFunctor(CHAIN, PA_CHAIN, [C(embed(x)) for x in range(len(CHAIN))])
        assert compose_functors(C, embed) == closed

    def test_the_induced_kind_closes_each_weight_by_down_after_up(self):
        # Replaying the draws of rand_closure_space: its "induced" kind
        # draws a category and a distributor phi into it, and closes every
        # weight mu to down(up(mu)); the next draw is the same.
        kinds, nontrivial = ("identity", "trivial", "induced", "system"), 0
        for seed in range(24):
            rng, replay = random.Random(seed), random.Random(seed)
            mapping = rand_closure_space(rng, CHAIN, PA_CHAIN).operator.mapping
            if replay.choice(kinds) != "induced":
                continue
            phi = rand_distributor(replay, CHAIN, rand_category(replay, TWO, 2, 1))
            want = tuple(
                PA_CHAIN.index_of(isbell_transform(phi, "down", isbell_transform(phi, "up", mu)))
                for mu in PA_CHAIN.weights_list
            )
            assert mapping == want
            assert rng.random() == replay.random()
            nontrivial += want != tuple(range(len(PA_CHAIN)))
        assert nontrivial > 0

    def test_identity_and_trivial_are_closure_operators(self):
        assert closure_operator_check(identity_closure(CHAIN)) == []
        assert closure_operator_check(identity_closure(PA_CHAIN)) == []
        assert closure_operator_check(trivial_closure(PA_CHAIN)) == []
        assert closure_operator_check(trivial_closure(PA_SINGLE)) == []

    def test_trivial_fixed_points_are_the_tops(self):
        fixed = closure_fixed_points(trivial_closure(PA_ANTI))
        assert fixed.base_indices == (pidx(PA_ANTI, 0, (1, 1)),)
        everything = closure_fixed_points(identity_closure(PA_ANTI))
        assert everything.base_indices == tuple(range(len(PA_ANTI)))

    def test_trivial_closure_needs_contravariant_weights(self):
        with pytest.raises(CategoryMismatch):
            trivial_closure(presheaf_category(CHAIN, "co"))

    def test_deflation_is_reported(self):
        ibot = pidx(PA_CHAIN, 0, (0, 0))
        squash = ClosureOperator(PA_CHAIN, [ibot] * len(PA_CHAIN))
        report = closure_operator_check(squash)
        assert any("inflation fails" in line for line in report)

    def test_failed_idempotence_is_reported(self):
        ibot = pidx(PA_CHAIN, 0, (0, 0))
        imid = pidx(PA_CHAIN, 0, (1, 0))
        itop = pidx(PA_CHAIN, 0, (1, 1))
        bump = [0] * len(PA_CHAIN)
        bump[ibot], bump[imid], bump[itop] = imid, itop, itop
        report = closure_operator_check(ClosureOperator(PA_CHAIN, bump))
        assert any("idempotence fails" in line for line in report)

    def test_mapping_shape_is_validated(self):
        with pytest.raises(StructureError):
            ClosureOperator(PA_CHAIN, [0])
        with pytest.raises(StructureError):
            ClosureOperator(PA_CHAIN, [99] * len(PA_CHAIN))


def assert_closure_system(A, system):
    """The defining properties: valid weights, all tops, meets, cotensors."""
    Q = A.Q
    keys = {(p.type_idx,) + p.weights for p in system}
    for p in system:
        assert not validate_presheaf(p)
    for t in range(len(Q.objects)):
        top = top_presheaf(A, t)
        assert (t,) + top.weights in keys
    for a in system:
        for b in system:
            if a.type_idx == b.type_idx:
                met = presheaf_meet([a, b], A, a.type_idx)
                assert (met.type_idx,) + met.weights in keys
        for t in range(len(Q.objects)):
            for g_idx in range(Q.homs[(t, a.type_idx)].n):
                c = cotensor_weight(Arrow(t, a.type_idx, g_idx), a)
                assert (c.type_idx,) + c.weights in keys


class TestClosureSystems:
    def test_meet_cotensor_closure_is_a_closure_system(self):
        seed = yoneda_weight(CHAIN, 0)
        system = meet_cotensor_closure(CHAIN, [seed])
        assert_closure_system(CHAIN, system)
        assert (seed.type_idx,) + seed.weights in {
            (p.type_idx,) + p.weights for p in system
        }

    def test_fuzzy_closure_system(self):
        seeds = [PA_SINGLE.weight_at(2), PA_SINGLE.weight_at(4)]
        system = meet_cotensor_closure(SINGLE, seeds)
        assert_closure_system(SINGLE, system)

    def test_join_tensor_closure_contains_bottoms_and_seeds(self):
        seed = yoneda_weight(CHAIN, 1)
        system = join_tensor_closure(CHAIN, [seed])
        keys = {(p.type_idx,) + p.weights for p in system}
        assert (0,) + bottom_presheaf(CHAIN, 0).weights in keys
        assert (seed.type_idx,) + seed.weights in keys
        for a in system:
            assert not validate_presheaf(a)
            for g_idx in range(CHAIN.Q.homs[(a.type_idx, a.type_idx)].n):
                t = tensor_weight(Arrow(a.type_idx, a.type_idx, g_idx), a)
                assert (t.type_idx,) + t.weights in keys

    def test_operator_from_system(self):
        system = meet_cotensor_closure(CHAIN, [yoneda_weight(CHAIN, 0)])
        members = [PA_CHAIN.index_of(p) for p in system]
        C = closure_from_system(PA_CHAIN, members)
        assert closure_operator_check(C) == []
        assert set(closure_fixed_points(C).base_indices) == set(members)
        # The closure of the bottom weight is the least member above it.
        assert C(pidx(PA_CHAIN, 0, (0, 0))) == pidx(PA_CHAIN, 0, (1, 0))

    def test_unclosed_system_is_rejected(self):
        members = [
            pidx(PA_ANTI, 0, (1, 0)),
            pidx(PA_ANTI, 0, (0, 1)),
            pidx(PA_ANTI, 0, (1, 1)),
        ]
        with pytest.raises(StructureError):
            closure_from_system(PA_ANTI, members)

    def test_a_meet_closed_system_must_be_closed_under_cotensors(self):
        # Every pointwise meet of a few drawn weights over one-object Ł3
        # categories: where a cotensor of a member is no member, the
        # operator of the system is no functor and the system is refused.
        Q = one_object_quantaloid(build_lukasiewicz_chain(3))
        refused = 0
        for seed in range(40):
            rng = random.Random(seed)
            P = presheaf_category(rand_category(rng, Q, 2, 1))
            system = {top_presheaf(P.base, 0)}
            for i in rng.sample(range(len(P)), min(len(P), 3)):
                system |= {presheaf_meet([w, P.weight_at(i)], P.base, 0) for w in system}
            members = sorted(P.index_of(w) for w in system)
            closed = all(P.index_of(cotensor_weight(g, w)) in members
                         for w in system for g in Q.arrows(0, 0))
            if closed:
                C = closure_from_system(P, members)
                assert closure_operator_check(C) == []
                assert list(closure_fixed_points(C).base_indices) == members
            else:
                refused += 1
                with pytest.raises(StructureError, match="^system is not closed under cotensors$"):
                    closure_from_system(P, members)
        assert 0 < refused < 40

    def test_validate_closure_space(self):
        ok = ClosureSpace(CHAIN, identity_closure(PA_CHAIN))
        assert validate_closure_space(ok) == []
        with pytest.raises(CategoryMismatch):
            validate_closure_space(ClosureSpace(ANTICHAIN, identity_closure(PA_CHAIN)))
        with pytest.raises(CategoryMismatch):
            validate_closure_space(ClosureSpace(CHAIN, identity_closure(CHAIN)))

    def test_reconstruction_law_draws_no_empty_base(self, monkeypatch):
        # An empty base has one weight, so its only closure operator is the
        # identity and the instance checks nothing.
        sizes = []

        def spy(A, *args):
            sizes.append(len(A))
            return presheaf_category(A, *args)

        monkeypatch.setattr(laws, "presheaf_category", spy)
        assert laws.run_law("closure-reconstruction", 0, "medium").passed
        assert len(sizes) == laws.PROFILES["medium"].closure_spaces
        assert 0 not in sizes

    def test_closure_to_context_columns_are_the_fixed_weights(self):
        system = meet_cotensor_closure(CHAIN, [yoneda_weight(CHAIN, 0)])
        C = closure_from_system(PA_CHAIN, [PA_CHAIN.index_of(p) for p in system])
        dist = closure_to_context(ClosureSpace(CHAIN, C))
        assert validate_distributor(dist) == []
        fixed = closure_fixed_points(C)
        for j, idx in enumerate(fixed.base_indices):
            w = PA_CHAIN.weight_at(idx)
            assert tuple(dist.matrix[x][j] for x in range(len(CHAIN))) == w.weights


# On the Ł3 fixture: a covariant weight, a presheaf of another type and one
# on another category are all the wrong input for the presheaf operations.
FUZZY_CTX = fixture_fuzzy_ctx()
FUZZY_OBJECTS, FUZZY_ATTRIBUTES = FUZZY_CTX.dom, FUZZY_CTX.cod
ZERO, HALF, ONE = (FUZZY_CTX.dom.Q.object_index(x) for x in ("0", "1/2", "1"))


def top_copresheaf(A, t):
    return Copresheaf(A, t, tuple(A.Q.homs[(t, s)].top for s in A.types))


class TestWrongWeightsAreRejected:
    @pytest.mark.parametrize(
        "operation",
        [
            lambda w: tensor_weight(w.base.Q.unit(w.type_idx), w),
            lambda w: cotensor_weight(w.base.Q.unit(w.type_idx), w),
            lambda w: meet_cotensor_closure(w.base, [w]),
            lambda w: join_tensor_closure(w.base, [w]),
        ],
        ids=["tensor_weight", "cotensor_weight", "meet_cotensor_closure", "join_tensor_closure"],
    )
    def test_tensors_and_closures_need_presheaves(self, operation):
        with pytest.raises(CategoryMismatch):
            operation(top_copresheaf(FUZZY_OBJECTS, HALF))

    @pytest.mark.parametrize("closure", [meet_cotensor_closure, join_tensor_closure])
    def test_closures_need_seeds_on_their_category(self, closure):
        with pytest.raises(CategoryMismatch):
            closure(FUZZY_OBJECTS, [top_presheaf(FUZZY_ATTRIBUTES, HALF)])

    @pytest.mark.parametrize("bound", [presheaf_meet, presheaf_join])
    @pytest.mark.parametrize(
        "wrong",
        [
            top_copresheaf(FUZZY_OBJECTS, HALF),
            top_presheaf(FUZZY_OBJECTS, ONE),
            top_presheaf(FUZZY_ATTRIBUTES, HALF),
        ],
        ids=["copresheaf", "other-type", "other-base"],
    )
    def test_pointwise_bounds_need_presheaves_of_their_type(self, bound, wrong):
        right = bottom_presheaf(FUZZY_OBJECTS, HALF)
        with pytest.raises(CategoryMismatch, match="presheaves of type"):
            bound([right, wrong], FUZZY_OBJECTS, HALF)

    @pytest.mark.parametrize("bound", [presheaf_meet, presheaf_join])
    def test_a_presheaf_of_another_type_is_not_an_index_error(self, bound):
        with pytest.raises(CategoryMismatch):
            bound([top_presheaf(FUZZY_OBJECTS, ONE)], FUZZY_OBJECTS, ZERO)


def pairwise_closure(A, seeds, meet):
    """Reference closure: every cotensor (tensor) image of every seed,
    then pairwise meets (joins) of the pool, round after round, until a
    round adds nothing."""
    Q = A.Q
    combine = presheaf_meet if meet else presheaf_join
    pool = {top_presheaf(A, t) if meet else bottom_presheaf(A, t) for t in range(len(Q.objects))}
    for s in seeds:
        for t in range(len(Q.objects)):
            if meet:
                pool.update(cotensor_weight(g, s) for g in Q.arrows(t, s.type_idx))
            else:
                pool.update(tensor_weight(g, s) for g in Q.arrows(s.type_idx, t))
    while True:
        items = list(pool)
        new = {
            combine([a, b], A, a.type_idx)
            for i, a in enumerate(items)
            for b in items[i + 1 :]
            if a.type_idx == b.type_idx
        }
        if new <= pool:
            return sorted(pool, key=lambda p: (p.type_idx, p.weights))
        pool |= new


class TestClosureFold:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(sorted(CLOSURE_FIXTURES)))
    def test_fold_equals_pairwise_fixpoint(self, seed, fixture):
        rng = random.Random(seed)
        Q = CLOSURE_FIXTURES[fixture]()

        def discrete(prefix):
            n = rng.randint(1, 5)
            types = tuple(rng.randrange(len(Q.objects)) for _ in range(n))
            return discrete_category(Q, QTypedSet(tuple(f"{prefix}{i}" for i in range(n)), types))

        A, B = discrete("x"), discrete("y")
        matrix = rand_distributor(rng, A, B).matrix
        seeds = [Presheaf(A, t, tuple(row[y] for row in matrix)) for y, t in enumerate(B.types)]
        assert meet_cotensor_closure(A, seeds) == pairwise_closure(A, seeds, meet=True)
        assert join_tensor_closure(A, seeds) == pairwise_closure(A, seeds, meet=False)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(sorted(CLOSURE_FIXTURES)))
    def test_closures_are_the_bounds_of_every_subset_of_images(self, seed, fixture):
        rng = random.Random(seed)
        A = rand_category(rng, CLOSURE_FIXTURES[fixture](), 4)
        seeds = [rand_presheaf(rng, A) for _ in range(rng.randint(0, 4))]
        for meet, closure in ((True, meet_cotensor_closure), (False, join_tensor_closure)):
            gens = [image for s in seeds for image in weight_images(s, meet)]
            got = [(w.type_idx, w.weights) for w in closure(A, seeds)]
            assert got == subset_bounds(A.Q, A.types, gens, meet)

    def test_triple_meet(self):
        # Columns 1110, 1101 and 1011: the extent {x0} is the meet of all
        # three and of no two of them.
        A = discrete_category(TWO, QTypedSet(("x0", "x1", "x2", "x3"), (0,) * 4))
        seeds = [Presheaf(A, 0, tuple(int(c) for c in bits)) for bits in ("1110", "1101", "1011")]
        closure = meet_cotensor_closure(A, seeds)
        assert closure == pairwise_closure(A, seeds, meet=True)
        assert Presheaf(A, 0, (1, 0, 0, 0)) in closure
        assert join_tensor_closure(A, seeds) == pairwise_closure(A, seeds, meet=False)


class TestContinuity:
    def test_identity_is_continuous(self):
        F = identity_functor(CHAIN)
        C = identity_closure(PA_CHAIN)
        assert continuity_check(F, C, C) is True

    def test_coarser_codomain_closure_is_continuous(self):
        F = identity_functor(CHAIN)
        assert continuity_check(F, identity_closure(PA_CHAIN), trivial_closure(PA_CHAIN))

    def test_coarser_domain_closure_is_not(self):
        F = identity_functor(CHAIN)
        assert (
            continuity_check(F, trivial_closure(PA_CHAIN), identity_closure(PA_CHAIN))
            is False
        )

    def test_operators_must_be_valid_and_match_endpoints(self):
        F = identity_functor(CHAIN)
        ibot = pidx(PA_CHAIN, 0, (0, 0))
        squash = ClosureOperator(PA_CHAIN, [ibot] * len(PA_CHAIN))
        with pytest.raises(StructureError):
            continuity_check(F, squash, identity_closure(PA_CHAIN))
        with pytest.raises(CategoryMismatch):
            continuity_check(F, identity_closure(PA_ANTI), identity_closure(PA_CHAIN))

    def test_induced_adjoint_pair(self):
        F = identity_functor(CHAIN)
        system = meet_cotensor_closure(CHAIN, [yoneda_weight(CHAIN, 0)])
        D = closure_from_system(PA_CHAIN, [PA_CHAIN.index_of(p) for p in system])
        left, right = induced_adjoint_pair(F, identity_closure(PA_CHAIN), D)
        assert validate_functor(left)[0] == []
        assert validate_functor(right)[0] == []
        assert functor_adjoint_check(left, right)

    def test_induced_pair_requires_continuity(self):
        F = identity_functor(CHAIN)
        with pytest.raises(StructureError):
            induced_adjoint_pair(F, trivial_closure(PA_CHAIN), identity_closure(PA_CHAIN))


# Every public entry point that takes a functor, called with the swap of a
# category's two objects, on the chain x <= y (y <= x fails) and on two
# objects of different types.  Each runs validate_functor once, through
# graph_cograph or the images' own check.
MIXED = discrete_category(QL3D, QTypedSet(("x", "y"), (0, T_ONE)))
FUNCTOR_ENTRY_POINTS = {
    "graph_cograph": lambda F, P: graph_cograph(F),
    "direct_image": lambda F, P: direct_image(F, yoneda_weight(F.dom, 0)),
    "inverse_image": lambda F, P: inverse_image(F, coyoneda_weight(F.cod, 0)),
    "image_functor": lambda F, P: image_functor(F, "ra", P, P),
    "image_functor-la": lambda F, P: image_functor(F, "la", P, P),
    "image_functor-nra": lambda F, P: image_functor(
        F, "nra", *[presheaf_category(F.dom, "co")] * 2
    ),
    "image_functor-nla": lambda F, P: image_functor(
        F, "nla", *[presheaf_category(F.dom, "co")] * 2
    ),
    "continuity_check": lambda F, P: continuity_check(F, identity_closure(P), trivial_closure(P)),
    "induced_adjoint_pair": lambda F, P: induced_adjoint_pair(
        F, identity_closure(P), trivial_closure(P)
    ),
    "density_check": lambda F, P: density_check(F, "sup"),
    "kan_extension_pointwise": lambda F, P: kan_extension_pointwise(
        identity_functor(F.dom), F, "left"
    ),
    "yoneda_infomorphism": lambda F, P: yoneda_infomorphism(F, P, P),
    "weighted_colimit_limit": lambda F, P: weighted_colimit_limit(
        F, "colim", yoneda_weight(F.dom, 0)
    ),
}


@pytest.mark.parametrize("name", sorted(FUNCTOR_ENTRY_POINTS))
@pytest.mark.parametrize(
    "base, error, message",
    [
        (CHAIN, StructureError, "hom inequality fails at (x,y)"),
        (MIXED, ObjectMismatch, "type not preserved at x"),
    ],
    ids=["hom", "type"],
)
def test_a_map_that_is_not_a_functor_is_refused_with_its_first_violation(
    name, base, error, message
):
    swap = QFunctor(base, base, [1, 0])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        FUNCTOR_ENTRY_POINTS[name](swap, presheaf_category(base))


# The entry points that take an infomorphism check both of its maps as
# functors first, and report a violation of the forward map with the
# prefix `object_map: `.
INFOMORPHISM_ENTRY_POINTS = {
    "infomorphism": infomorphism,
    "concept_functor_image-M": lambda *info: concept_functor_image(info, "M"),
    "concept_functor_image-K": lambda *info: concept_functor_image(info, "K"),
}


@pytest.mark.parametrize("name", sorted(INFOMORPHISM_ENTRY_POINTS))
@pytest.mark.parametrize(
    "base, message",
    [(CHAIN, "hom inequality fails at (x,y)"), (MIXED, "type not preserved at x")],
    ids=["hom", "type"],
)
def test_an_infomorphism_whose_map_is_not_a_functor_is_refused(name, base, message):
    ident = identity_distributor(base)
    swap = QFunctor(base, base, [1, 0])
    with pytest.raises(InvalidInfomorphism, match=f"^object_map: {re.escape(message)}(;|$)"):
        INFOMORPHISM_ENTRY_POINTS[name](ident, ident, swap, identity_functor(base))


# Every public entry point that takes a category, called with a Boolean
# table that is not one: x <= y <= z without x <= z, and a table whose
# diagonal misses a unit.  Each refuses it with validate_category's first
# line; kan_extension_pointwise also checks F's target when K's is sound.
NOT_CATEGORIES = {
    "not-transitive": (
        QCategory(TWO, ("x", "y", "z"), (0, 0, 0), [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
        "transitivity fails at (x,y,z)",
    ),
    "not-unital": (QCategory(TWO, ("x", "y"), (0, 0), [[0, 1], [0, 1]]), "unit constraint fails at x"),
}
ONE_POINT = discrete_category(TWO, QTypedSet(("p",), (0,)))
CATEGORY_ENTRY_POINTS = {
    "macneille_completion": macneille_completion,
    "yoneda": lambda A: yoneda(A, presheaf_category(A)),
    "density_check": lambda A: density_check(identity_functor(A), "sup"),
    "kan_extension_pointwise": lambda A: kan_extension_pointwise(
        identity_functor(A), identity_functor(A), "left"
    ),
    "kan_extension_pointwise-F": lambda A: kan_extension_pointwise(
        QFunctor(ONE_POINT, A, [1]), identity_functor(ONE_POINT), "right"
    ),
}


@pytest.mark.parametrize("name", sorted(CATEGORY_ENTRY_POINTS))
@pytest.mark.parametrize("table", sorted(NOT_CATEGORIES))
def test_a_table_that_is_not_a_category_is_refused_with_its_first_violation(name, table):
    A, message = NOT_CATEGORIES[table]
    assert validate_category(A)[0] == message
    with pytest.raises(StructureError, match=f"^category: {re.escape(message)}$"):
        CATEGORY_ENTRY_POINTS[name](A)


def test_a_computed_category_is_not_checked_again(monkeypatch):
    lattice = concept_lattice(identity_distributor(CHAIN), "isbell")

    def boom(A):
        raise AssertionError(f"validate_category called on {A!r}")

    monkeypatch.setattr(enriched, "validate_category", boom)
    for name in sorted(CATEGORY_ENTRY_POINTS):
        if name != "kan_extension_pointwise-F":
            CATEGORY_ENTRY_POINTS[name](lattice)


class TestDenseFactorizationNeedsADistributor:
    def test_the_chain_with_one_attribute(self, monkeypatch):
        B = discrete_category(TWO, QTypedSet(("a",), (0,)))
        phi = QDistributor(CHAIN, B, [[0], [1]])
        monkeypatch.setattr(adjunction, "concept_lattice", None)  # no lattice is built
        with pytest.raises(StructureError, match=r"^source action fails at \(x,y,a\)$"):
            dense_factorization(phi)

    @pytest.mark.parametrize("name", ["two", "ql3"])
    def test_random_matrices(self, name):
        Q, refused = CLOSURE_FIXTURES[name](), 0
        for seed in range(40):
            rng = random.Random(seed)
            A, B = rand_category(rng, Q, 2, 1), rand_category(rng, Q, 2, 1)
            m = [[rng.randrange(Q.homs[(s, t)].n) for t in B.types] for s in A.types]
            phi = QDistributor(A, B, m)
            report = validate_distributor(phi)
            if report:
                refused += 1
                with pytest.raises(StructureError, match=f"^{re.escape(report[0])}$"):
                    dense_factorization(phi)
            else:
                F, G, lattice = dense_factorization(phi)
                assert validate_functor(F)[0] == validate_functor(G)[0] == []
        assert 0 < refused < 40


# The four derived constructions written out from their definitions, as
# references: continuity checked on weight images one by one, the induced
# pair read off those images, closure systems ordered by `weight_leq` and
# tested for cotensors by `cotensor_weight`, and the evaluation context
# built cell by cell.


def continuity_by_hand(F, C, D):
    PA, PB = C.base, D.base
    if (
        not isinstance(PA, PresheafCategory)
        or not isinstance(PB, PresheafCategory)
        or PA.base is not F.dom
        or PB.base is not F.cod
        or PA.variance != "contra"
        or PB.variance != "contra"
    ):
        raise CategoryMismatch("operators must act on the weight categories of F's endpoints")
    if closure_operator_check(C) or closure_operator_check(D):
        raise StructureError("continuity is only defined for valid closure operators")
    forward = all(
        weight_leq(
            direct_image(F, PA.weight_at(C(i))),
            PB.weight_at(D(PB.index_of(direct_image(F, PA.weight_at(i))))),
        )
        for i in range(len(PA))
    )
    backward = True
    for j in range(len(PB)):
        if not objects_isomorphic(PB, D(j), j):
            continue
        i = PA.index_of(inverse_image(F, PB.weight_at(j)))
        if not objects_isomorphic(PA, C(i), i):
            backward = False
            break
    if forward != backward:
        raise InternalCheckError("the two continuity formulations disagree")
    return forward


def induced_pair_by_hand(F, C, D):
    if not continuity_by_hand(F, C, D):
        raise StructureError("functor is not continuous between the given spaces")
    PA, PB = C.base, D.base
    SA, SB = closure_fixed_points(C), closure_fixed_points(D)
    pos_a = {idx: k for k, idx in enumerate(SA.base_indices)}
    pos_b = {idx: k for k, idx in enumerate(SB.base_indices)}
    left = [pos_b[D(PB.index_of(direct_image(F, PA.weight_at(i))))] for i in SA.base_indices]
    right = [pos_a[PA.index_of(inverse_image(F, PB.weight_at(j)))] for j in SB.base_indices]
    return (SA.base_indices, tuple(left)), (SB.base_indices, tuple(right))


def closure_from_system_by_hand(P, system):
    members = set(system)
    mapping = []
    for i in range(len(P)):
        mu = P.weight_at(i)
        above = [P.weight_at(j) for j in members if P.types[j] == mu.type_idx]
        above = [nu for nu in above if weight_leq(mu, nu)]
        j = P.index_of(presheaf_meet(above, P.base, mu.type_idx))
        if j not in members:
            raise StructureError("system is not closed under meets")
        mapping.append(j)
    for j in sorted(members):
        mu = P.weight_at(j)
        for s in range(len(P.Q.objects)):
            for g in P.Q.arrows(s, mu.type_idx):
                if P.index_of(cotensor_weight(g, mu)) not in members:
                    raise StructureError("system is not closed under cotensors")
    return tuple(mapping)


def closure_to_context_by_hand(space):
    A, P = space.category, space.operator.base
    weights = [P.weight_at(j) for j in closure_fixed_points(space.operator).base_indices]
    return tuple(tuple(w.weights[x] for w in weights) for x in range(len(A)))


def outcome(call, *args):
    """("value", what call returns) or ("raises", class, message)."""
    try:
        return ("value", call(*args))
    except QuantcatError as exc:
        return ("raises", type(exc), str(exc))


def induced_pair_maps(F, C, D):
    left, right = induced_adjoint_pair(F, C, D)
    return (left.dom.base_indices, left.mapping), (right.dom.base_indices, right.mapping)


def continuity_instance(seed):
    """A functor between random categories over the Boolean or the
    Lukasiewicz-3 base and random closure operators on both weight
    categories; every third functor gives way to an arbitrary map if that
    map breaks types."""
    rng = random.Random(seed)
    Q, size = (fixture_two(), 3) if seed % 2 else (fixture_ql(3), 2)
    B = rand_category(rng, Q, size, 1)
    F = rand_functor_into(rng, B, rng.randint(0, size))
    if seed % 3 == 0:
        G = QFunctor(F.dom, B, [rng.randrange(len(B)) for _ in range(len(F.dom))])
        F = G if type_failures(G) else F
    PA, PB = presheaf_category(F.dom), presheaf_category(B)
    C = rand_closure_space(rng, F.dom, PA).operator
    D = rand_closure_space(rng, B, PB).operator
    return F, C, D


class TestDerivedConstructionsMatchTheirDefinitions:
    def test_continuity_and_the_induced_pair(self):
        seen = set()
        for seed in range(150):
            F, C, D = continuity_instance(seed)
            want = outcome(continuity_by_hand, F, C, D)
            assert outcome(continuity_check, F, C, D) == want, seed
            seen.add(want[1] if want[0] == "value" else want[1].__name__)
            pair = outcome(induced_pair_by_hand, F, C, D)
            assert outcome(induced_pair_maps, F, C, D) == pair, seed
            squash = ClosureOperator(C.base, [0] * len(C.base))  # seldom inflationary
            for C2, D2 in ((D, C), (squash, D)):
                assert outcome(continuity_check, F, C2, D2) == outcome(
                    continuity_by_hand, F, C2, D2
                )
        assert seen == {True, False, "ObjectMismatch"}

    def test_closure_from_system(self):
        raised = 0
        for seed in range(80):
            rng = random.Random(seed)
            Q, size = (fixture_two(), 3) if seed % 2 else (fixture_ql(3), 2)
            A = rand_category(rng, Q, size)
            P = presheaf_category(A)
            if seed % 4 < 2:
                closed = meet_cotensor_closure(A, [rand_presheaf(rng, A) for _ in range(2)])
                system = [P.index_of(w) for w in closed]
            else:
                system = rng.sample(range(len(P)), rng.randint(0, len(P)))
            want = outcome(closure_from_system_by_hand, P, system)
            got = outcome(lambda: closure_from_system(P, system).mapping)
            assert got == want, seed
            raised += want[0] == "raises"
        assert 0 < raised < 80

    def test_closure_to_context(self):
        for seed in range(60):
            rng = random.Random(seed)
            Q, size = (fixture_two(), 3) if seed % 2 else (fixture_ql(3), 2)
            A = rand_category(rng, Q, size)
            space = rand_closure_space(rng, A, presheaf_category(A))
            zeta = closure_to_context(space)
            assert zeta.dom is A
            assert zeta.matrix == closure_to_context_by_hand(space), seed


class TestKanExtensions:
    def test_extension_along_identity_is_the_functor(self):
        F = yoneda(CHAIN, PA_CHAIN)
        K = identity_functor(CHAIN)
        for direction in ("left", "right"):
            ext = kan_extension_pointwise(F, K, direction)
            assert ext.mapping == F.mapping

    def test_extension_along_full_inclusion_restricts_back(self):
        sub = FullSubcategory(CHAIN, [0])
        K = sub.inclusion()
        F = compose_functors(yoneda(CHAIN, PA_CHAIN), K)
        i_yx = PA_CHAIN.index_of(yoneda_weight(CHAIN, 0))
        i_top = pidx(PA_CHAIN, 0, (1, 1))

        lan = kan_extension_pointwise(F, K, "left")
        assert compose_functors(lan, K).mapping == F.mapping
        assert lan.mapping == (i_yx, i_yx)

        ran = kan_extension_pointwise(F, K, "right")
        assert compose_functors(ran, K).mapping == F.mapping
        assert ran.mapping == (i_yx, i_top)

    def test_empty_source(self):
        K = QFunctor(EMPTY, ANTICHAIN, ())
        into_chain = kan_extension_pointwise(QFunctor(EMPTY, CHAIN, ()), K, "left")
        assert into_chain.mapping == (0, 0)
        ran = kan_extension_pointwise(QFunctor(EMPTY, CHAIN, ()), K, "right")
        assert ran.mapping == (1, 1)
        missing = kan_extension_pointwise(
            QFunctor(EMPTY, ANTICHAIN, ()), QFunctor(EMPTY, CHAIN, ()), "left"
        )
        assert is_absent(missing) and missing.witness == "x"

    def test_source_and_direction_are_checked(self):
        F = identity_functor(CHAIN)
        with pytest.raises(CategoryMismatch):
            kan_extension_pointwise(F, identity_functor(ANTICHAIN), "left")
        with pytest.raises(ValueError):
            kan_extension_pointwise(F, F, "up")


# ---------------------------------------------------------------------------
# The hom-row index against the definition-level oracle
# ---------------------------------------------------------------------------

# b <= a ~ a2: a and a2 are isomorphic, so every bound that one of them
# represents must come back as a, the first.
NONSKELETAL = QCategory(TWO, ("b", "a", "a2"), (0, 0, 0), [[1, 1, 1], [0, 1, 1], [0, 1, 1]])


def _index_categories():
    cases = {
        "chain": CHAIN,
        "antichain": ANTICHAIN,
        "nonskeletal": NONSKELETAL,
        "empty": EMPTY,
        "presheaves-chain": PA_CHAIN,
        "presheaves-single": PA_SINGLE,
    }
    for seed in (1, 4):
        cases[f"random-l3-{seed}"] = rand_category(random.Random(seed), QL3D, 3, 2)
    contexts = {"boolean-ctx1": fixture_ctx1(), "l3-fixture": fixture_fuzzy_ctx()}
    for seed in (3, 5):
        contexts[f"l3-{seed}"] = rand_context(random.Random(seed), fixture_ql(3))
    for seed in (0, 5):
        contexts[f"b4-{seed}"] = rand_context(random.Random(seed), fixture_b4())
    for name, phi in contexts.items():
        for kind in ("isbell", "kan"):
            cases[f"{name}-{kind}"] = concept_lattice(phi, kind)
    return cases


INDEX_CATEGORIES = _index_categories()


def _index_functors():
    functors = {name: identity_functor(A) for name, A in INDEX_CATEGORIES.items()}
    functors["yoneda-chain"] = yoneda(CHAIN, PA_CHAIN)
    functors["yoneda-single"] = yoneda(SINGLE, PA_SINGLE)
    functors["cuts-nonskeletal"] = macneille_completion(NONSKELETAL)[1]
    # Not dense: the canonical (co)limit at y is absent.
    point = QCategory(TWO, ("p",), (0,), [[1]])
    functors["point-into-antichain"] = QFunctor(point, ANTICHAIN, [0])
    for name in ("l3-3", "b4-0", "b4-5"):
        phi = INDEX_CATEGORIES[f"{name}-isbell"].source
        F, G, _ = dense_factorization(phi, INDEX_CATEGORIES[f"{name}-isbell"])
        functors[f"{name}-objects"], functors[f"{name}-attributes"] = F, G
    return functors


INDEX_FUNCTORS = _index_functors()


def _found(value):
    return None if is_absent(value) else value


class TestHomRowIndex:
    @pytest.mark.parametrize("name", sorted(INDEX_CATEGORIES))
    def test_sups_and_infs_match_the_definition(self, name):
        A = INDEX_CATEGORIES[name]
        ident = range(len(A))
        sups, infs = _bounds(A, None)
        for pairs, side, variance in ((sups, "sup", "contra"), (infs, "inf", "co")):
            assert [w for w, _ in pairs] == enumerate_presheaves(A, variance)
            for w, value in pairs:
                expected = reference_bound(A, ident, w, side == "sup")
                assert _found(value) == expected
                assert _found(sup_inf(A, side, w)) == expected
                if expected is None:
                    assert value.witness == w
        complete = all(not is_absent(v) for pairs in (sups, infs) for _, v in pairs)
        assert is_complete(A)[0] == complete

    @pytest.mark.parametrize("name", sorted(INDEX_FUNCTORS))
    def test_weighted_colimits_and_limits_match_the_definition(self, name):
        F = INDEX_FUNCTORS[name]
        for side, variance in (("colim", "contra"), ("lim", "co")):
            for w in enumerate_presheaves(F.dom, variance):
                expected = reference_bound(F.cod, F.mapping, w, side == "colim")
                assert _found(weighted_colimit_limit(F, side, w)) == expected
            for w, value in _canonical_colimits(F, F, side == "colim"):
                expected = reference_bound(F.cod, F.mapping, w, side == "colim")
                assert _found(value) == expected
                if expected is None:
                    assert value.witness == w

    @pytest.mark.parametrize("name", sorted(INDEX_CATEGORIES))
    def test_tensors_and_cotensors_match_the_definition(self, name):
        A = INDEX_CATEGORIES[name]
        Q = A.Q
        for x in range(len(A)):
            for other in range(len(Q.objects)):
                for side, arrows in (
                    ("tensor", Q.arrows(A.types[x], other)),
                    ("cotensor", Q.arrows(other, A.types[x])),
                ):
                    for f in arrows:
                        value = tensor_cotensor(A, side, f, x)
                        assert _found(value) == reference_tensor(A, side, f, x)
                        if is_absent(value):
                            assert value.witness == (side, f, A.labels[x])

    @pytest.mark.parametrize("name", sorted(INDEX_CATEGORIES))
    @pytest.mark.parametrize("meet", [True, False])
    def test_arrow_images_of_copresheaves_match_the_definition(self, name, meet):
        """g => lam is x -> lam(x) <-left- g and g . lam is x -> lam(x) . g;
        the tensors of an object are the former for its hom row."""
        A = INDEX_CATEGORIES[name]
        Q = A.Q
        for lam in enumerate_presheaves(A, "co"):
            t = lam.type_idx
            for other, g, image in _arrow_images(A, t, lam.weights, False, meet):
                if meet:
                    g = Arrow(t, other, g)
                    want = [Q.residual("left", lam.arrow(x), g) for x in range(len(A))]
                else:
                    g = Arrow(other, t, g)
                    want = [Q.compose(lam.arrow(x), g) for x in range(len(A))]
                assert all(f.src == other for f in want)
                assert image == tuple(f.idx for f in want)

    def test_isomorphic_objects_resolve_to_the_first(self):
        a2 = 2
        assert sup_inf(NONSKELETAL, "sup", yoneda_weight(NONSKELETAL, a2)) == 1
        assert sup_inf(NONSKELETAL, "inf", coyoneda_weight(NONSKELETAL, a2)) == 1
        unit = TWO.unit(0)
        assert tensor_cotensor(NONSKELETAL, "tensor", unit, a2) == 1
        assert tensor_cotensor(NONSKELETAL, "cotensor", unit, a2) == 1
        F = identity_functor(NONSKELETAL)
        assert weighted_colimit_limit(F, "colim", yoneda_weight(NONSKELETAL, a2)) == 1
        assert weighted_colimit_limit(F, "lim", coyoneda_weight(NONSKELETAL, a2)) == 1
