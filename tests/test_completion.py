"""Tensors, suprema, weighted (co)limits, closure operators, Kan extensions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcat import (
    Arrow,
    CategoryMismatch,
    ClosureOperator,
    ClosureSpace,
    Copresheaf,
    FullSubcategory,
    ObjectMismatch,
    Presheaf,
    QCategory,
    QFunctor,
    QTypedSet,
    StructureError,
    build_boolean,
    build_lukasiewicz_chain,
    closure_fixed_points,
    closure_from_system,
    closure_operator_check,
    closure_to_context,
    compose_functors,
    concept_lattice,
    continuity_check,
    cotensor_weight,
    coyoneda_weight,
    dense_factorization,
    discrete_category,
    enumerate_presheaves,
    functor_adjoint_check,
    identity_closure,
    identity_functor,
    induced_adjoint_pair,
    is_absent,
    is_complete,
    join_tensor_closure,
    kan_extension_pointwise,
    macneille_completion,
    meet_cotensor_closure,
    objects_isomorphic,
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
    yoneda_weight,
)
from quantcat import laws
from quantcat.completion import _bounds, _canonical_colimits
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
)

from oracles import reference_bound, reference_tensor

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
        with pytest.raises(ValueError):
            sup_inf(CHAIN, "sup", Copresheaf(CHAIN, 0, (1, 1)))
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
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


CLOSURE_FIXTURES = {"two": fixture_two, "ql3": lambda: fixture_ql(3), "b4": fixture_b4}


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
