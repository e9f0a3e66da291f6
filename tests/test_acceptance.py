"""Acceptance suite: every advertised guarantee, one criterion per test.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and checks its criterion at full precision; every number asserted
here is exact.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from corpora import (
    random_separable_poset,
    type_a_height_one_index,
    type_a_height_one_posets,
)
from references import combo_bracket
from lieposet import (
    CampaignConfig,
    build_basis,
    build_poset,
    enumerate_h01,
    evaluate,
    frobenius_functional,
    generic_rank,
    index_formula,
    index_oracle,
    is_frobenius_by_graph,
    kernel_dim,
    matrix_form,
    positive_part,
    principal_element,
    reduce,
    report_json_bytes,
    rg_connected,
    run_campaign,
    spectrum,
    structure_constants,
    verify_B_reduction,
    verify_CD_isomorphism,
)
from lieposet.linalg import integer_rank, solve

HALF = Fraction(1, 2)
TRIALS = 5
SEED = 20240


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {num:02d} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE criterion {num:02d} PASS: {description}")


@pytest.fixture(scope="module")
def c_corpus():
    """(poset, formula, oracle, frobenius) for every type-C poset, n <= 4."""
    start = time.perf_counter()
    rows = []
    for n in (1, 2, 3, 4):
        for P in enumerate_h01("C", n):
            rows.append(
                (
                    P,
                    index_formula(P),
                    index_oracle(P, trials=TRIALS, seed=SEED),
                    is_frobenius_by_graph(P),
                )
            )
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="module")
def d_corpus():
    start = time.perf_counter()
    rows = []
    for n in (1, 2, 3, 4):
        for P in enumerate_h01("D", n):
            rows.append(
                (
                    P,
                    index_formula(P),
                    index_oracle(P, trials=TRIALS, seed=SEED),
                    is_frobenius_by_graph(P),
                )
            )
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_two_dim_fixture():
    with criterion(1, "2-dim commutator matrix [[0,2x2],[-2x2,0]], rank 2, index 0, <1ms"):
        P = build_poset("C", 1, [(-1, 1)])
        basis, table = structure_constants(P)
        assert len(basis) == 2
        assert table == {(0, 1): (1, 2)}
        for value in (1, -1, 7, Fraction(3, 5), -1000):
            M = evaluate(table, [0, value])
            assert M == [[0, 2 * value], [-2 * value, 0]]
            # solve takes ints: the rank of M scaled by the denominator
            # of the value, 5 for 3/5
            scale = Fraction(value).denominator
            assert solve([[int(scale * v) for v in row] for row in M], [0, 0], 2)[0] == 2
        assert index_oracle(P) == 0
        best = float("inf")
        for _ in range(5):
            structure_constants.cache_clear()
            t0 = time.perf_counter()
            structure_constants(build_poset("C", 1, [(-1, 1)]))
            best = min(best, time.perf_counter() - t0)
        assert best < 0.001, f"fastest build took {best * 1000:.3f} ms"


def test_criterion_02_matrix_form_fixture(path_poset, triangle_poset):
    with criterion(2, "matrix form pattern = closed relation set (path and triangle posets)"):
        # the permitted positions are exactly the relations of the poset,
        # including the diagonal: 10 positions for the path poset
        expected_path = {(e, e) for e in path_poset.elements} | {
            (-2, 1), (-2, 3), (-3, 2), (-1, 2),
        }
        assert matrix_form(path_poset) == expected_path
        assert len(matrix_form(path_poset)) == 10
        # the triangle poset fills two more mirror positions: 12 in total
        expected_triangle = {(e, e) for e in triangle_poset.elements} | {
            (-1, 2), (-2, 1), (-1, 3), (-3, 1), (-2, 3), (-3, 2),
        }
        assert matrix_form(triangle_poset) == expected_triangle
        assert len(matrix_form(triangle_poset)) == 12


def test_criterion_03_formula_oracle_equivalence(c_corpus, d_corpus):
    c_rows, c_elapsed = c_corpus
    d_rows, d_elapsed = d_corpus
    with criterion(
        3,
        f"index formula == oracle on {len(c_rows)} type-C and {len(d_rows)} type-D "
        f"posets (n<=4) in {c_elapsed + d_elapsed:.1f}s",
    ):
        assert len(c_rows) == 2 + 8 + 64 + 1024
        assert len(d_rows) == 1 + 2 + 8 + 64
        mismatches = [
            (P, f, o) for P, f, o, _ in c_rows + d_rows if f != o
        ]
        assert mismatches == []
        assert c_elapsed + d_elapsed < 60.0


def test_criterion_04_frobenius_characterization(c_corpus, d_corpus):
    c_rows, _ = c_corpus
    d_rows, _ = d_corpus
    with criterion(4, "graph criterion == (oracle index == 0) on the full corpora"):
        bad = [
            (P, frob, o)
            for P, _, o, frob in c_rows + d_rows
            if frob != (o == 0)
        ]
        assert bad == []


def test_criterion_05_frobenius_functional(c_corpus):
    rows, _ = c_corpus
    frob = [P for P, _, _, is_f in rows if is_f]
    with criterion(5, f"standard functional nonsingular on all {len(frob)} Frobenius posets"):
        assert frob, "corpus must contain Frobenius posets"
        for P in frob:
            assert kernel_dim(P, frobenius_functional(P)) == 0


def test_criterion_06_principal_element_and_spectrum(c_corpus):
    rows, _ = c_corpus
    frob = [P for P, _, _, is_f in rows if is_f]
    conventions = set()
    with criterion(
        6,
        "principal elements diagonal with +/-1/2 mirrored entries and binary "
        "spectra on the Frobenius corpus",
    ):
        for P in frob:
            element = principal_element(P, frobenius_functional(P))
            assert element.diagonal is not None, (P, element)
            diag = dict(element.diagonal)
            for i in range(1, P.n + 1):
                assert abs(diag[i]) == HALF
                assert diag[i] == -diag[-i]
            conventions.add(element.half_convention)
            report = spectrum(P, element)
            d = report.dim
            assert report.eigenvalues == (0,) * (d // 2) + (1,) * (d // 2)
            assert report.is_binary
        assert conventions == {"negatives-plus-half"}
    print(
        "  principal element diagonals all carry +1/2 on negative rows "
        f"(conventions seen: {sorted(conventions)})"
    )


def test_criterion_07_reduction_algorithm(c_corpus):
    rows, _ = c_corpus
    connected = [P for P, _, _, _ in rows if rg_connected(P)]
    with criterion(
        7,
        f"reduction traces rank-constant with the |V| / |V|-1 dichotomy on "
        f"{len(connected)} connected posets",
    ):
        for P in connected:
            G = P.relation_graph
            trace = reduce(P, seed=SEED)
            last = (trace.steps or (trace.initial,))[-1]
            assert integer_rank(last.matrix, P.n) == trace.final_rank, P
            has_odd = any(c.has_odd_cycle for c in G.components)
            expected = G.n if has_odd else G.n - 1
            assert trace.final_rank == expected, (P, trace.final_rank, expected)


def test_criterion_08_separable_and_height_00():
    with criterion(
        8,
        "antichain index equals |P+| for n<=6; 100 random separable posets "
        "match the type-A index plus one",
    ):
        for n in range(1, 7):
            assert index_oracle(build_poset("C", n, [])) == n
        rng = random.Random(SEED)
        for _ in range(100):
            P = random_separable_poset(rng, max_positive=4)
            assert index_oracle(P) == index_oracle(positive_part(P)) + 1


def test_criterion_09_type_a_height_one_formula():
    checked = 0
    with criterion(9, "|E|-|V|+1 equals the oracle on connected height-one posets, n<=5"):
        for n in (2, 3, 4, 5):
            for P in type_a_height_one_posets(n):
                assert type_a_height_one_index(P) == index_oracle(P), P
                checked += 1
        assert checked > 0
    print(f"  {checked} connected height-one posets checked")


def test_criterion_10_isomorphism_theorems(d_corpus):
    d_rows, _ = d_corpus
    with criterion(
        10,
        f"sign rescaling found on all {len(d_rows)} type-D posets (n<=4); "
        "0-removal matches on all type-B posets (n<=3)",
    ):
        for P, _, _, _ in d_rows:
            eps = verify_CD_isomorphism(P)
            assert all(e in (1, -1) for e in eps)
        count_b = 0
        for n in (1, 2, 3):
            for P in enumerate_h01("B", n):
                assert verify_B_reduction(P) is None, P
                count_b += 1
        assert count_b == 1 + 2 + 8


def test_criterion_11_algebra_sanity(c_corpus, d_corpus):
    with criterion(
        11,
        "antisymmetry and Jacobi hold on all n<=3 corpora; no bracket ever "
        "leaves the span on the n<=4 corpora",
    ):
        for fam, n_max in (("C", 3), ("D", 3), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    _, table = structure_constants(P)
                    dim = len(build_basis(P))
                    for i, j in itertools.combinations(range(dim), 2):
                        ij = combo_bracket(P, {i: 1}, {j: 1})
                        ji = combo_bracket(P, {j: 1}, {i: 1})
                        assert ij == {k: -c for k, c in ji.items()}
                    for i, j, k in itertools.combinations(range(dim), 3):
                        total = {}
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                            inner = combo_bracket(P, {b: 1}, {c: 1})
                            outer = combo_bracket(P, {a: 1}, inner)
                            for pos, coeff in outer.items():
                                total[pos] = total.get(pos, Fraction(0)) + coeff
                        assert not any(total.values()), (P, (i, j, k))
        # building the structure constants exercises every bracket pair;
        # NotInSpan would have surfaced while the corpora above were built
        for fam, n_max in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    structure_constants(P)


def test_criterion_12_campaign_determinism():
    with criterion(12, "full n<=4 campaign reports are byte-identical given the seed"):
        cfg = CampaignConfig(
            plan=(("C", 4), ("D", 4), ("B", 3)), seed=SEED, trials=TRIALS, jobs=1
        )
        first = run_campaign(cfg)
        assert first["failures"] == []
        bytes_one = report_json_bytes(first)
        bytes_two = report_json_bytes(run_campaign(cfg))
        assert bytes_one == bytes_two
    print(f"  report size {len(bytes_one)} bytes, all checks green")
