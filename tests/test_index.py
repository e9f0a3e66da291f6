import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet import (
    CommutatorMatrix,
    InvariantViolation,
    RelationGraph,
    UnsupportedPoset,
    build_basis,
    build_poset,
    commutator_matrix,
    enumerate_h01,
    generic_rank,
    h01_slots,
    index_formula,
    index_oracle,
    poset_from_mask,
    positive_part,
    random_separable_poset,
    relation_graph,
    type_a_height_one_index,
    type_a_height_one_posets,
)
from lieposet import index_engine
from lieposet.index_engine import ORACLE_TRIALS
from lieposet.linalg import solve


class TestCommutatorMatrix:
    def test_two_dim_symbolic(self, sl2_like_poset):
        C = commutator_matrix(sl2_like_poset)
        assert C.dim == 2
        assert C.entry(0, 1) == {1: 2}
        assert C.entry(1, 0) == {1: -2}
        assert C.entry(0, 0) == {} and C.entry(1, 1) == {}

    def test_abelian_antichain(self):
        C = commutator_matrix(build_poset("C", 2, []))
        assert C.dim == 2
        assert all(C.entry(i, j) == {} for i in range(2) for j in range(2))

    def test_block_form_on_path(self, path_poset):
        C = commutator_matrix(path_poset)
        assert C.dim == 5
        h = 3  # H block size, then the Y rows
        for i in range(h):
            for j in range(h):
                assert C.entry(i, j) == {}
        for i in range(h, 5):
            for j in range(h, 5):
                assert C.entry(i, j) == {}
        for i in range(5):
            for j in range(5):
                lhs = C.entry(i, j)
                rhs = {k: -c for k, c in C.entry(j, i).items()}
                assert lhs == rhs  # skew symmetry

    def test_entries_match_brackets(self, looped_path_poset):
        from lieposet import bracket

        C = commutator_matrix(looped_path_poset)
        basis = C.basis
        pos = {b: k for k, b in enumerate(basis)}
        for i in range(C.dim):
            for j in range(C.dim):
                if i == j:
                    continue
                combo = bracket(basis[i], basis[j], looped_path_poset)
                assert C.entry(i, j) == {pos[b]: c for b, c in combo.items()}


class TestEvaluateAndRank:
    def test_evaluate_at_unit_point(self, sl2_like_poset):
        C = commutator_matrix(sl2_like_poset)
        point = {C.basis[0]: Fraction(0), C.basis[1]: Fraction(1)}
        M = C.evaluate(point)
        assert M == [[0, 2], [-2, 0]]
        assert solve(M, [0] * len(M), C.dim)[0] == 2

    def test_evaluate_zero_point(self, path_poset):
        C = commutator_matrix(path_poset)
        M = C.evaluate({b: 0 for b in C.basis})
        assert all(x == 0 for row in M for x in row)

    def test_generic_rank_examples(self, sl2_like_poset, path_poset):
        assert generic_rank(commutator_matrix(sl2_like_poset)) == 2
        assert generic_rank(commutator_matrix(build_poset("C", 2, []))) == 0
        assert generic_rank(commutator_matrix(path_poset)) == 4

    def test_rank_monotone_and_stable_in_trials(self):
        for mask in (0, 5, 17, 63):
            P = poset_from_mask("C", 3, mask % 64)
            C = commutator_matrix(P)
            ranks = [generic_rank(C, trials=t, seed=9) for t in (1, 2, 3, 5, 8)]
            assert ranks == sorted(ranks)
            assert len(set(ranks[2:])) == 1

    def test_rank_always_even(self):
        for P in enumerate_h01("C", 3):
            assert generic_rank(commutator_matrix(P), trials=3, seed=1) % 2 == 0

    def test_odd_rank_raises_invariant_violation(self):
        # a cell on the diagonal breaks the i < j contract: it evaluates
        # to the 1x1 matrix holding minus the symbol, of rank 1
        C = CommutatorMatrix(basis=("x",), cells=((0, 0, ((0, 1),)),))
        with pytest.raises(InvariantViolation):
            generic_rank(C, trials=1, seed=0)

    @pytest.mark.parametrize("seed", [0, 77])
    def test_generic_rank_matches_fraction_reference(self, seed):
        """The integer kernel equals the max rank of the Fraction
        evaluations at the same seeded points, drawn in basis order."""

        def reference(C, trials):
            rng = random.Random(seed)
            best = 0
            for _ in range(trials):
                point = {}
                for b in C.basis:
                    value = 0
                    while value == 0:
                        value = rng.randint(-1000, 1000)
                    point[b] = Fraction(value)
                M = C.evaluate(point)
                best = max(best, solve(M, [0] * len(M), C.dim)[0])
            return best

        for fam, n_max in (("C", 3), ("D", 3), ("B", 2)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    C = commutator_matrix(P)
                    assert generic_rank(C, seed=seed) == reference(C, ORACLE_TRIALS), P


class TestIndexOracle:
    def test_frobenius_two_dim(self, sl2_like_poset):
        assert index_oracle(sl2_like_poset) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_antichain_index_is_size(self, k):
        assert index_oracle(build_poset("C", k, [])) == k

    def test_path_poset(self, path_poset):
        assert index_oracle(path_poset) == 1


class TestIndexFormula:
    def test_path(self, path_poset):
        assert index_formula(path_poset) == 2 - 3 + 2 * 1 == 1

    def test_looped_path(self, looped_path_poset):
        assert index_formula(looped_path_poset) == 3 - 3 + 0 == 0

    def test_four_cycle(self, four_cycle_poset):
        assert index_formula(four_cycle_poset) == 4 - 4 + 2 == 2
        assert index_oracle(four_cycle_poset) == 2

    def test_height_00(self):
        assert index_formula(build_poset("C", 3, [])) == 3

    def test_separable_any_height(self):
        P = build_poset("C", 3, [(1, 2), (2, 3)])  # chain on the positives
        assert index_formula(P) == index_oracle(P)

    def test_unsupported(self):
        # non-separable and of height (1, 2): no formula applies
        P = build_poset("C", 2, [(-2, 1), (1, 2)])
        with pytest.raises(UnsupportedPoset):
            index_formula(P)
        with pytest.raises(UnsupportedPoset):
            index_formula(build_poset("A", 2, [(1, 2)]))

    def test_odd_parity_raises_invariant_violation(self, path_poset, monkeypatch):
        # the formula reads a graph short of one edge, so its value moves by
        # one and no longer has the parity of dim
        G = relation_graph(path_poset)
        short = RelationGraph(G.n, frozenset(sorted(G.edges)[1:]), G.loops)
        monkeypatch.setattr(index_engine, "relation_graph", lambda P: short)
        with pytest.raises(InvariantViolation):
            index_formula(path_poset)

    def test_formula_oracle_agreement_small(self):
        for fam, n_max in (("C", 3), ("D", 3), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    assert index_formula(P) == index_oracle(P, seed=5)

    def test_disjoint_additivity_examples(self):
        from lieposet import graph_components, induced_subposet, relation_graph

        # loop at 1 plus the edge {2,3}: two components
        P = poset_from_mask("C", 3, 0)
        edges, loops = h01_slots("C", 3)
        mask = (1 << edges.index((2, 3))) | (1 << (len(edges) + 0))
        P = poset_from_mask("C", 3, mask)
        comps = graph_components(relation_graph(P))
        assert len(comps) == 2
        total = sum(
            index_oracle(induced_subposet(P, [v for w in c.vertices for v in (w, -w)]))
            for c in comps
        )
        assert total == index_oracle(P) == index_formula(P)


class TestSeparableTheorem:
    def test_random_separable_posets(self):
        rng = random.Random(2024)
        for _ in range(30):
            P = random_separable_poset(rng, max_positive=4)
            lhs = index_oracle(P)
            rhs = index_oracle(positive_part(P)) + 1
            assert lhs == rhs


class TestTypeAFormula:
    def test_chain(self):
        P = build_poset("A", 2, [(1, 2)])
        assert type_a_height_one_index(P) == 0
        assert index_oracle(P) == 0

    def test_vee(self):
        P = build_poset("A", 3, [(1, 3), (2, 3)])
        assert type_a_height_one_index(P) == 0
        assert index_oracle(P) == 0

    def test_crown(self):
        P = build_poset("A", 4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert type_a_height_one_index(P) == 1
        assert index_oracle(P) == 1

    def test_preconditions(self):
        with pytest.raises(UnsupportedPoset):
            type_a_height_one_index(build_poset("A", 2, []))  # height zero
        with pytest.raises(UnsupportedPoset):
            type_a_height_one_index(build_poset("A", 3, [(1, 2)]))  # disconnected
        with pytest.raises(UnsupportedPoset):
            type_a_height_one_index(build_poset("C", 2, [(-1, 2)]))

    def test_exhaustive_up_to_four(self):
        for n in (2, 3, 4):
            for P in type_a_height_one_posets(n):
                assert type_a_height_one_index(P) == index_oracle(P)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 1 << 9), st.integers(0, 2**20))
def test_skewness_at_random_points(n, mask, seed):
    edges, loops = h01_slots("C", n)
    P = poset_from_mask("C", n, mask % (1 << (len(edges) + len(loops))))
    C = commutator_matrix(P)
    rng = random.Random(seed)
    point = {b: Fraction(rng.randint(-50, 50)) for b in C.basis}
    M = C.evaluate(point)
    transpose = [[row[i] for row in M] for i in range(C.dim)]
    assert transpose == [[-x for x in row] for row in M]
