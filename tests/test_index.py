import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import (
    random_separable_poset,
    type_a_height_at_most_one,
    type_a_height_one_index,
    type_a_height_one_posets,
)
from lieposet import (
    BasisElement,
    CampaignConfig,
    InvariantViolation,
    PosetConstructionError,
    RelationGraph,
    SignedPoset,
    UnsupportedPoset,
    build_basis,
    build_poset,
    enumerate_h01,
    evaluate,
    generic_rank,
    ground_set,
    h01_slots,
    index_formula,
    index_oracle,
    poset_from_mask,
    positive_part,
    run_campaign,
    structure_constants,
)
from lieposet import algebra, index_engine
from lieposet.index_engine import ORACLE_TRIALS, _matching, _term_rank
from lieposet.linalg import integer_rank, solve
from references import entry


class TestCommutatorMatrix:
    def test_two_dim_symbolic(self, sl2_like_poset):
        basis, table = structure_constants(sl2_like_poset)
        assert len(basis) == 2
        assert entry(table, 0, 1) == {1: 2}
        assert entry(table, 1, 0) == {1: -2}
        assert entry(table, 0, 0) == {} and entry(table, 1, 1) == {}

    def test_abelian_antichain(self):
        basis, table = structure_constants(build_poset("C", 2, []))
        assert len(basis) == 2
        assert table == {}

    def test_block_form_on_path(self, path_poset):
        basis, table = structure_constants(path_poset)
        assert len(basis) == 5
        h = 3  # H block size, then the Y rows
        for i in range(h):
            for j in range(h):
                assert entry(table, i, j) == {}
        for i in range(h, 5):
            for j in range(h, 5):
                assert entry(table, i, j) == {}
        # one key per cell above the diagonal; the skew entries follow
        assert table and all(i < j for i, j in table)

    def test_entries_match_brackets(self, looped_path_poset):
        from references import bracket

        basis, table = structure_constants(looped_path_poset)
        pos = {b: k for k, b in enumerate(basis)}
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i == j:
                    continue
                combo = bracket(basis[i], basis[j], looped_path_poset)
                assert entry(table, i, j) == {pos[b]: c for b, c in combo.items()}


class TestEvaluateAndRank:
    def test_evaluate_at_unit_point(self, sl2_like_poset):
        _, table = structure_constants(sl2_like_poset)
        M = evaluate(table, [Fraction(0), Fraction(1)])
        assert M == [[0, 2], [-2, 0]]
        assert solve(M, [0] * len(M), 2)[0] == 2

    def test_evaluate_zero_point(self, path_poset):
        basis, table = structure_constants(path_poset)
        M = evaluate(table, [0] * len(basis))
        assert all(x == 0 for row in M for x in row)

    def test_generic_rank_examples(self, sl2_like_poset, path_poset):
        assert generic_rank(structure_constants(sl2_like_poset))[0] == 2
        assert generic_rank(structure_constants(build_poset("C", 2, [])))[0] == 0
        assert generic_rank(structure_constants(path_poset))[0] == 4

    def test_rank_monotone_and_stable_in_trials(self):
        for mask in (0, 5, 17, 63):
            P = poset_from_mask("C", 3, mask % 64)
            C = structure_constants(P)
            ranks = [generic_rank(C, trials=t, seed=9)[0] for t in (1, 2, 3, 5, 8)]
            assert ranks == sorted(ranks)
            assert len(set(ranks[2:])) == 1

    def test_rank_always_even(self):
        for P in enumerate_h01("C", 3):
            assert generic_rank(structure_constants(P), trials=3, seed=1)[0] % 2 == 0

    def test_odd_rank_raises_invariant_violation(self):
        # a key on the diagonal breaks the i < j contract: it evaluates
        # to the 1x1 matrix holding minus the symbol, of rank 1
        C = ((BasisElement("C", "Z", 1),), {(0, 0): (0, 1)})
        with pytest.raises(InvariantViolation):
            generic_rank(C, trials=1, seed=0)

    def test_zero_trials_raises(self, path_poset):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            generic_rank(structure_constants(path_poset), trials=0)

    @pytest.mark.parametrize("seed", [0, 77])
    def test_generic_rank_matches_fraction_reference(self, seed):
        """The integer kernel equals the max rank of the Fraction
        evaluations at the same seeded points, drawn in basis order."""

        def reference(C, trials):
            basis, table = C
            rng = random.Random(seed)
            best = 0
            for _ in range(trials):
                point = []
                for _ in basis:
                    value = 0
                    while value == 0:
                        value = rng.randint(-1000, 1000)
                    point.append(Fraction(value))
                M = evaluate(table, point)
                best = max(best, solve(M, [0] * len(M), len(basis))[0])
            return best

        for fam, n_max in (("C", 3), ("D", 3), ("B", 2)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    C = structure_constants(P)
                    assert generic_rank(C, seed=seed)[0] == reference(C, ORACLE_TRIALS), P


def brute_matching_number(n, edges):
    """Maximum matching size by trying, for the least vertex left, to
    leave it out or to match it with each neighbour left."""
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    memo = {}

    def best(left):
        if not left:
            return 0
        if left not in memo:
            v = min(left)
            rest = left - {v}
            memo[left] = max(
                [best(rest)] + [1 + best(rest - {w}) for w in adj[v] & rest]
            )
        return memo[left]

    return best(frozenset(range(n)))


def brute_term_rank(n, pairs):
    """Term rank by trying, row by row, to leave the row out or to give it
    each free column of its cells."""
    cols = [set() for _ in range(n)]
    for i, j in pairs:
        cols[i].add(j)
        cols[j].add(i)
    memo = {}

    def best(row, used):
        if row == n:
            return 0
        if (row, used) not in memo:
            memo[row, used] = max(
                [best(row + 1, used)]
                + [1 + best(row + 1, used | 1 << c) for c in cols[row] if not used >> c & 1]
            )
        return memo[row, used]

    return best(0, 0)


def _cycle(*vertices):
    return [(min(a, b), max(a, b)) for a, b in zip(vertices, vertices[1:] + vertices[:1])]


# Symmetric patterns with odd cycles, each as (n, pairs, term rank).  An
# odd cycle is a permutation of its vertices, so the term rank can exceed
# twice the largest matching: 3 against 2 on a triangle.
TERM_RANK_CASES = {
    "triangle": (3, _cycle(0, 1, 2), 3),
    "K5": (5, list(itertools.combinations(range(5), 2)), 5),
    "petersen": (
        10,
        _cycle(0, 1, 2, 3, 4) + [(i, i + 5) for i in range(5)] + _cycle(5, 7, 9, 6, 8),
        10,
    ),
    "triangles_joined_by_an_edge": (6, _cycle(0, 1, 2) + _cycle(3, 4, 5) + [(0, 3)], 6),
}


class TestTermRank:
    @pytest.mark.parametrize("name", sorted(TERM_RANK_CASES))
    def test_named_cases(self, name):
        n, pairs, rank = TERM_RANK_CASES[name]
        assert brute_term_rank(n, pairs) == rank
        assert _term_rank(n, pairs) == rank
        assert _term_rank(n, [(j, i) for i, j in reversed(pairs)]) == rank

    def test_diagonal_cells_and_empty_pattern(self):
        assert _term_rank(0, []) == 0
        assert _term_rank(3, [(0, 0), (1, 1)]) == 2
        assert _term_rank(3, [(0, 0), (0, 1)]) == 2
        assert _term_rank(3, [(0, 1), (0, 2)]) == 2

    def test_long_path_needs_no_recursion(self):
        # listed from its far end, the path needs a search 1,250 rows deep,
        # past the default recursion limit
        n = 2500
        assert _term_rank(n, [(v, v + 1) for v in range(n - 1)]) == n
        assert _term_rank(n, [(v + 1, v) for v in reversed(range(n - 1))]) == n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=36),
    )))
    def test_matches_brute_force(self, pattern):
        n, pairs = pattern
        assert _term_rank(n, pairs) == brute_term_rank(n, pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda a: st.integers(1, 5).flatmap(lambda b: st.tuples(
        st.just(a),
        st.just(b),
        st.lists(st.tuples(st.integers(0, a - 1), st.integers(a, a + b - 1)), max_size=20),
    ))))
    def test_bipartite_is_twice_the_matching_number(self, graph):
        a, b, edges = graph
        assert _term_rank(a + b, edges) == 2 * brute_matching_number(a + b, edges)

    def test_acceptance_cells_join_h_to_the_nilradical(self):
        # so the cell graph of the paper's class is bipartite, where the
        # term rank is twice the largest matching
        for fam, n_max in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    basis, table = structure_constants(P)
                    for i, j in table:
                        assert (basis[i].kind == "H") != (basis[j].kind == "H"), P
                    # the block path takes that ceiling as 2 * nu(B0), on
                    # the pattern of B0 alone
                    block = algebra._h_block(basis, table)
                    pattern = [[j for j, c in enumerate(row) if c] for row in block]
                    nu = _matching(pattern, len(basis) - len(block))
                    assert 2 * nu == _term_rank(len(basis), table), P


def _full_loop_ranks(C, trials, seed):
    """The rank of every one of `trials` seeded evaluations, none skipped,
    drawn as the oracle draws them: one nonzero integer in [-1000, 1000]
    per basis element, in basis order."""
    basis, table = C
    rng = random.Random(seed)
    ranks = []
    for _ in range(trials):
        point = []
        for _ in basis:
            value = 0
            while value == 0:
                value = rng.randint(-1000, 1000)
            point.append(value)
        ranks.append(integer_rank(evaluate(table, point), len(basis)))
    return ranks


def _random_low_posets(rng, family, count):
    """Seeded random build_poset posets of height at most (1,1), or at
    most one in family A."""
    found = []
    while len(found) < count:
        n = rng.randint(1, 4)
        pairs = list(itertools.combinations(ground_set(family, n), 2))
        try:
            P = build_poset(family, n, rng.sample(pairs, rng.randint(0, min(4, len(pairs)))))
        except PosetConstructionError:
            continue
        if (type_a_height_at_most_one(P) if family == "A" else max(P.height_pair) <= 1):
            found.append(P)
    return found


class TestEarlyStop:
    """generic_rank stops at the first trial that reaches the term-rank
    ceiling, and returns what all its trials would."""

    @pytest.mark.parametrize("seed", [0, 77])
    def test_acceptance_plan_equals_full_loop(self, seed):
        for fam, n_max in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, n_max + 1):
                edges, loops = h01_slots(fam, n)
                for mask in range(1 << (len(edges) + len(loops))):
                    C = structure_constants(poset_from_mask(fam, n, mask))
                    ranks = _full_loop_ranks(C, 5, seed)
                    for trials in (1, 2, 5):
                        got = generic_rank(C, trials=trials, seed=seed)[0]
                        assert got == max(ranks[:trials]), (fam, n, mask, trials)

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_random_posets_equal_full_loop(self, family):
        rng = random.Random(1300 + ord(family))
        for P in _random_low_posets(rng, family, 25):
            C = structure_constants(P)
            seed = rng.randrange(2**20)
            ranks = _full_loop_ranks(C, 5, seed)
            for trials in (1, 2, 5):
                assert generic_rank(C, trials=trials, seed=seed)[0] == max(ranks[:trials]), P

    def _count_ranks(self, monkeypatch):
        calls = []

        def counted(rows, ncols):
            calls.append(ncols)
            return integer_rank(rows, ncols)

        monkeypatch.setattr(index_engine, "integer_rank", counted)
        return calls

    def test_oracle_evaluates_through_the_commutator_matrix(self, path_poset, monkeypatch):
        # a table that does not scale diagonally is evaluated at the drawn
        # points; one that does is ranked on its H block, unevaluated
        calls = []

        def counted(table, values):
            calls.append(values)
            return evaluate(table, values)

        monkeypatch.setattr(index_engine, "evaluate", counted)
        index_oracle(path_poset)
        assert calls == []
        index_oracle(build_poset("A", 3, [(1, 2), (2, 3)]))
        assert len(calls) >= 1

    def test_tight_poset_takes_one_trial(self, path_poset, monkeypatch):
        calls = self._count_ranks(monkeypatch)
        C = structure_constants(path_poset)
        assert generic_rank(C, trials=5)[0] == 4
        assert len(calls) == 1

    def _count_draws(self, monkeypatch):
        draws = []
        inner = index_engine._nonzero_int

        def counted(rng):
            draws.append(inner(rng))
            return draws[-1]

        monkeypatch.setattr(index_engine, "_nonzero_int", counted)
        return draws

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_four_cycle_takes_one_evaluation(self, four_cycle_poset, trials, monkeypatch):
        # dim 8 and rank 6, below the term rank 8 of the nonzero cells, so
        # the ceiling cannot stop the trials; the matrix scales diagonally,
        # and its rank at the all-ones point is the generic rank
        calls = self._count_ranks(monkeypatch)
        draws = self._count_draws(monkeypatch)
        C = basis, table = structure_constants(four_cycle_poset)
        assert _term_rank(len(basis), table) == len(basis) == 8
        assert generic_rank(C, trials=trials)[0] == 6
        assert len(calls) == 1 and draws == []

    @pytest.mark.parametrize(
        "cell",
        [
            lambda i, j: (j + 1, 1),  # the term moved to another element
            lambda i, j: (i, 1),  # the term moved to the H end
        ],
        ids=["term-elsewhere", "term-on-h-end"],
    )
    def test_faults_fall_back_to_sampling(self, four_cycle_poset, cell, monkeypatch):
        basis, table = structure_constants(four_cycle_poset)
        assert algebra._h_block(basis, table) is not None
        i, j = next(iter(table))
        faulty = {**table, (i, j): cell(i, j)}
        assert algebra._h_block(basis, faulty) is None
        draws = self._count_draws(monkeypatch)
        got, sampled = generic_rank((basis, faulty), trials=5, seed=3)
        assert sampled and draws
        ranks = _full_loop_ranks((basis, faulty), 5, 3)
        assert got == max(ranks[: len(draws) // len(basis)])

    def test_h_block_rank_equals_the_full_evaluation(self):
        # on every table of the acceptance plan, 2 * rank B0 taken on the
        # H block is the rank of the whole matrix at the all-ones point
        for fam, n_max in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    C = basis, table = structure_constants(P)
                    full = integer_rank(evaluate(table, [1] * len(basis)), len(basis))
                    block = algebra._h_block(basis, table)
                    h_rank = 2 * integer_rank(block, len(basis) - len(block))
                    assert h_rank == full and generic_rank(C) == (full, False), P

    def test_h_block_keeps_each_cells_coefficient(self):
        # B0 = [[1, 1], [1, -1]] has rank 2; with its signs dropped it
        # would have rank 1
        basis = tuple(BasisElement("C", *e) for e in (("H", 1), ("H", 2), ("Y", 1, 2), ("Z", 1)))
        table = {(0, 2): (2, 1), (0, 3): (3, 1), (1, 2): (2, 1), (1, 3): (3, -1)}
        assert algebra._h_block(basis, table) == [[1, 1], [1, -1]]
        full = integer_rank(evaluate(table, [1] * 4), 4)
        assert full == 4 and generic_rank((basis, table)) == (4, False)

    def test_h_block_needs_leading_h_elements(self):
        # a cell from a later H element to a non-H element does not scale
        # the block: its H row would not lead the matrix
        basis = (BasisElement("C", "Z", 1), BasisElement("C", "H", 1))
        assert algebra._h_block(basis, {(0, 1): (1, 2)}) is None
        assert algebra._h_block(basis, {(0, 1): (0, 2)}) is None

    def test_paper_class_scales_diagonally(self):
        # every oracle call of the acceptance plan takes the scaling path
        for fam, n_max in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    assert algebra._h_block(*structure_constants(P)) is not None, P

    def test_nonzero_int_reads_the_randint_stream(self):
        # the draws of getrandbits(11) with 2001..2047 and 1000 rejected are
        # the nonzero draws of randint(-1000, 1000), and leave the generator
        # in the same state
        for seed in range(200):
            fast, reference = random.Random(seed), random.Random(seed)
            for _ in range(500):
                value = 0
                while value == 0:
                    value = reference.randint(-1000, 1000)
                assert index_engine._nonzero_int(fast) == value
            assert fast.getstate() == reference.getstate()

    def test_rank_above_ceiling_raises(self, path_poset, monkeypatch):
        # on the H-block path, and on the sampling path: both ceilings
        # come from the one matching loop, 2 * nu(B0) on the block and
        # the term rank, rounded down to even, elsewhere
        true_matching = index_engine._matching
        low = lambda adjacency, ncols: true_matching(adjacency, ncols) - 2  # noqa: E731
        monkeypatch.setattr(index_engine, "_matching", low)
        assert algebra._h_block(*structure_constants(path_poset)) is not None
        with pytest.raises(InvariantViolation, match="ceiling"):
            generic_rank(structure_constants(path_poset))
        chain = structure_constants(build_poset("A", 3, [(1, 2), (2, 3)]))
        assert algebra._h_block(*chain) is None
        with pytest.raises(InvariantViolation, match="ceiling"):
            generic_rank(chain)
        report = run_campaign(
            CampaignConfig(plan=(("C", 2),), checks=("formula_vs_oracle",), jobs=1)
        )
        summary = report["summary"]["formula_vs_oracle"]
        assert summary["pass"] == 0 and summary["fail"] == sum(report["posets"].values())
        assert {f["witness"]["error"] for f in report["failures"]} == {"InvariantViolation"}


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

    def test_height_00_is_n_on_the_acceptance_plan(self):
        # the (0,1) expression covers height (0,0): the graph has no edges
        # and each of its n vertices is a component without an odd cycle
        zero = [
            P
            for fam, n_max in (("C", 4), ("D", 4), ("B", 3))
            for n in range(1, n_max + 1)
            for P in enumerate_h01(fam, n)
            if P.height_pair == (0, 0)
        ]
        assert len(zero) == 4 + 4 + 3  # the antichain of each (family, n)
        for P in zero:
            assert P.relation_graph.edge_count == 0
            assert index_formula(P) == P.n

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
        G = path_poset.relation_graph
        P = SignedPoset(path_poset.family, path_poset.n, path_poset.relations)
        P.__dict__["relation_graph"] = RelationGraph(
            G.n, frozenset(sorted(G.edges)[1:]), G.loops
        )
        with pytest.raises(InvariantViolation):
            index_formula(P)

    def test_height_01_builds_no_table(self, four_cycle_poset, monkeypatch):
        # the parity check reads dim off the basis, not off the table
        def no_table(P):
            raise AssertionError("index_formula built a structure-constant table")

        monkeypatch.setattr(index_engine, "structure_constants", no_table)
        assert index_formula(four_cycle_poset) == 2

    def test_formula_oracle_agreement_small(self):
        for fam, n_max in (("C", 3), ("D", 3), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    assert index_formula(P) == index_oracle(P, seed=5)

    def test_disjoint_additivity_examples(self):
        from lieposet import induced_subposet

        # loop at 1 plus the edge {2,3}: two components
        P = poset_from_mask("C", 3, 0)
        edges, loops = h01_slots("C", 3)
        mask = (1 << edges.index((2, 3))) | (1 << (len(edges) + 0))
        P = poset_from_mask("C", 3, mask)
        comps = P.relation_graph.components
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

    def test_exhaustive_up_to_four(self):
        for n in (2, 3, 4):
            for P in type_a_height_one_posets(n):
                assert type_a_height_one_index(P) == index_oracle(P)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 1 << 9), st.integers(0, 2**20))
def test_skewness_at_random_points(n, mask, seed):
    edges, loops = h01_slots("C", n)
    P = poset_from_mask("C", n, mask % (1 << (len(edges) + len(loops))))
    basis, table = structure_constants(P)
    rng = random.Random(seed)
    M = evaluate(table, [Fraction(rng.randint(-50, 50)) for _ in basis])
    transpose = [[row[i] for row in M] for i in range(len(basis))]
    assert transpose == [[-x for x in row] for row in M]
