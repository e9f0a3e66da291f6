import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from lieposet import (
    InvariantViolation,
    NonEigenbasis,
    NotFrobenius,
    PrincipalElement,
    SingularForm,
    UnsupportedHeight,
    build_basis,
    build_poset,
    commutator,
    enumerate_h01,
    evaluate,
    frobenius_functional,
    functional,
    index_oracle,
    is_frobenius_by_graph,
    kernel_dim,
    mask_of_poset,
    matrix_form,
    poset_from_graph,
    principal_element,
    realize,
    spectrum,
    structure_constants,
)

from lieposet import algebra, frobenius, linalg
from lieposet.formats import principal_element_json_obj, spectrum_json_obj
from lieposet.harness import CampaignConfig, run_campaign, run_checks_on_poset
from corpora import seeded_general_posets
from references import (
    combo_bracket,
    functional_value,
    point_by_realizations,
    realize_combination,
)

HALF = Fraction(1, 2)


class TestGraphCriterion:
    def test_examples(self, looped_path_poset, path_poset, four_cycle_poset):
        assert is_frobenius_by_graph(looped_path_poset)
        assert not is_frobenius_by_graph(path_poset)
        assert not is_frobenius_by_graph(four_cycle_poset)

    def test_unsupported_height(self):
        with pytest.raises(UnsupportedHeight):
            is_frobenius_by_graph(build_poset("C", 2, [(-2, -1)]))

    def test_matches_oracle_up_to_n3(self):
        for fam in ("C", "D"):
            for n in (1, 2, 3):
                for P in enumerate_h01(fam, n):
                    assert is_frobenius_by_graph(P) == (index_oracle(P, seed=3) == 0)


class TestFunctional:
    def test_two_dim(self, sl2_like_poset):
        F = frobenius_functional(sl2_like_poset)
        assert dict(F.support) == {(-1, 1): 1}
        assert kernel_dim(sl2_like_poset, F) == 0

    def test_looped_path(self, looped_path_poset):
        F = frobenius_functional(looped_path_poset)
        assert dict(F.support) == {(-1, 2): 1, (-2, 3): 1, (-2, 2): 1}
        assert kernel_dim(looped_path_poset, F) == 0

    def test_triangle(self, triangle_poset):
        F = frobenius_functional(triangle_poset)
        assert dict(F.support) == {(-1, 2): 1, (-1, 3): 1, (-2, 3): 1}
        assert kernel_dim(triangle_poset, F) == 0

    def test_not_frobenius(self, path_poset):
        with pytest.raises(NotFrobenius):
            frobenius_functional(path_poset)

    def test_support_validation(self, path_poset):
        with pytest.raises(ValueError):
            functional(path_poset, {(-1, 3): 1})  # not a permitted position

    def test_point_on_basis(self, looped_path_poset):
        F = frobenius_functional(looped_path_poset)
        point = F.point(looped_path_poset)
        named = {repr(b): v for b, v in point.items()}
        assert named == {
            "H(1)": 0, "H(2)": 0, "H(3)": 0, "Y(1,2)": 1, "Y(2,3)": 1, "Z(2)": 1,
        }
        # the standard functional's weights are the int 1, and so is its point
        assert all(type(w) is int for _, w in F.support)
        assert all(type(v) is int for v in point.values())

    def test_weights_normalized(self, looped_path_poset):
        # an int stays as it is; any other weight goes through Fraction and
        # becomes an int when integral; a zero weight drops out
        F = functional(looped_path_poset, {
            (-1, 2): 3, (-2, 3): Fraction(4, 2), (-2, 2): 0.5, (-1, 1): Fraction(0),
        })
        assert F.support == (((-2, 2), Fraction(1, 2)), ((-2, 3), 2), ((-1, 2), 3))
        assert [type(w) for _, w in F.support] == [Fraction, int, int]


class TestPoint:
    """F's point, read off the positions of F's support, against the sum of
    F's weights over every realization, value and type alike."""

    @staticmethod
    def _assert_by_realizations(F, P):
        point = F.point(P)
        expected = point_by_realizations(F, P)
        assert [(b, v, type(v)) for b, v in point.items()] == [
            (b, v, type(v)) for b, v in expected.items()
        ], (P, F)

    def test_standard_functional_on_the_class(self):
        # the edge-plus-loop weights on every class poset of C<=4, D<=4,
        # B<=3, Frobenius or not, and seeded rational weights with H support
        rng = random.Random(39)
        count = 0
        for P in _class_posets((("C", 4), ("D", 4), ("B", 3)), False):
            self._assert_by_realizations(_edge_loop_functional(P), P)
            self._assert_by_realizations(_h_supported_functional(P, rng), P)
            count += 1
        assert count == 1184

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_general_posets(self, family):
        # posets of any height, with X and U elements (and DA, EA in family
        # A), and int or Fraction weights on a sample of permitted positions,
        # the diagonal included
        rng = random.Random(3900)
        kinds = set()
        for P in seeded_general_posets(family, 39, count=40, n_max=5):
            positions = sorted(matrix_form(P))
            for _ in range(3):
                weights = {
                    key: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 6)))
                    for key in rng.sample(positions, rng.randint(0, len(positions)))
                }
                self._assert_by_realizations(functional(P, weights), P)
            kinds.update(b.kind for b in build_basis(P))
        assert kinds >= ({"DA", "EA"} if family == "A" else {"H", "X", "Y"})
        assert family != "B" or "U" in kinds


class TestKernelDim:
    def test_zero_functional(self, path_poset):
        F = functional(path_poset, {})
        assert kernel_dim(path_poset, F) == len(build_basis(path_poset))

    def test_edge_functional_on_path(self, path_poset):
        F = functional(path_poset, {(-1, 2): 1, (-2, 3): 1})
        assert kernel_dim(path_poset, F) == 1  # equals the index


class TestPrincipalElement:
    def test_two_dim_closed_form(self, sl2_like_poset):
        F = frobenius_functional(sl2_like_poset)
        element = principal_element(sl2_like_poset, F)
        assert dict(element.coefficients) == {build_basis(sl2_like_poset)[0]: HALF}
        assert dict(element.diagonal) == {-1: HALF, 1: -HALF}
        assert element.half_convention == "negatives-plus-half"

    def test_looped_path_diagonal(self, looped_path_poset):
        element = principal_element(
            looped_path_poset, frobenius_functional(looped_path_poset)
        )
        diag = dict(element.diagonal)
        assert all(diag[-i] == HALF and diag[i] == -HALF for i in (1, 2, 3))
        assert element.half_convention == "negatives-plus-half"

    def test_triangle_diagonal(self, triangle_poset):
        element = principal_element(triangle_poset, frobenius_functional(triangle_poset))
        diag = dict(element.diagonal)
        assert all(diag[-i] == HALF and diag[i] == -HALF for i in (1, 2, 3))

    def test_singular_form_rejected(self, path_poset):
        F = functional(path_poset, {(-1, 2): 1, (-2, 3): 1})
        with pytest.raises(SingularForm):
            principal_element(path_poset, F)

    def test_missing_solution_raises_singular_form(self, triangle_poset, monkeypatch):
        true_solve = frobenius.solve
        # full rank but no solution: the form is still rejected
        monkeypatch.setattr(
            frobenius, "solve", lambda rows, rhs, ncols: (true_solve(rows, rhs, ncols)[0], None)
        )
        with pytest.raises(SingularForm):
            principal_element(triangle_poset, frobenius_functional(triangle_poset))

    def test_odd_kirillov_rank_raises_invariant_violation(self, triangle_poset, monkeypatch):
        # a skew matrix has even rank: an odd one is a fault in the dense
        # solve, raised by both queries.  The Borel poset of C2 has an X
        # element, so its table does not scale diagonally and the whole
        # form is eliminated; F is regular there, of rank 6
        true_solve = frobenius.solve

        def odd_rank(rows, rhs, ncols):
            rank, x = true_solve(rows, rhs, ncols)
            return rank - 1, x

        P = build_poset("C", 2, [(-2, -1), (-1, 1)])
        assert algebra._h_block(*structure_constants(P)) is None
        F = functional(P, {(-2, 1): 1, (-2, 2): 1})
        assert kernel_dim(P, F) == 0
        frobenius._solve_kirillov.cache_clear()
        monkeypatch.setattr(frobenius, "solve", odd_rank)
        with pytest.raises(InvariantViolation, match="odd rank 5"):
            kernel_dim(P, F)
        with pytest.raises(InvariantViolation, match="odd rank 5"):
            principal_element(P, F)
        # on the paper's class the rank is 2 * rank A, even by
        # construction: the lost pivot of A^T leaves a kernel of 2, which
        # frobenius_kernel reports on every Frobenius poset of a campaign
        [outcome] = run_checks_on_poset("C", 3, mask_of_poset(triangle_poset),
                                        ("frobenius_kernel",))
        assert outcome["check"] == "frobenius_kernel"
        assert outcome["witness"] == {"kernel_dim": "2"}
        report = run_campaign(CampaignConfig(plan=(("C", 2),), checks=("frobenius_kernel",)))
        total = sum(report["posets"].values())
        frobenius_count = sum(is_frobenius_by_graph(Q) for n in (1, 2)
                              for Q in enumerate_h01("C", n))
        assert report["summary"]["frobenius_kernel"] == {
            "pass": 0, "fail": frobenius_count, "skipped": total - frobenius_count,
        }
        assert len(report["failures"]) == frobenius_count
        assert all(f["witness"] == {"kernel_dim": "2"} for f in report["failures"])

    def test_fixed_point_mismatch_raises_invariant_violation(
        self, triangle_poset, monkeypatch
    ):
        # an extra 1 in row k of a column of ad(d*x) moves that column's
        # F(ad(x)(b)) by F(b_k), so the identity fails where F(b_k) != 0;
        # every such row is off the diagonal of column 0, so the extra 1
        # goes into off
        P = triangle_poset
        F = frobenius_functional(P)
        point = F.point(P)
        rows = [k for k, b in enumerate(structure_constants(P)[0]) if point[b]]
        assert rows and 0 not in rows
        real = frobenius._integer_ad
        for row in rows:

            def integer_ad(P, X):
                diagonal, off = real(P, X)
                off = {j: dict(column) for j, column in off.items()}  # the cached pass stays
                column = off.setdefault(0, {})
                column[row] = column.get(row, 0) + 1
                return diagonal, off

            monkeypatch.setattr(frobenius, "_integer_ad", integer_ad)
            with pytest.raises(InvariantViolation, match="fixed-point identity"):
                principal_element(P, F)

    def test_changed_diagonal_entry_raises_invariant_violation(
        self, triangle_poset, monkeypatch
    ):
        # an extra 1 on the diagonal of column k moves F(ad(x)(b_k)) by
        # F(b_k), so the identity fails wherever F(b_k) != 0
        P = triangle_poset
        F = frobenius_functional(P)
        point = F.point(P)
        columns = [k for k, b in enumerate(structure_constants(P)[0]) if point[b]]
        assert columns
        real = frobenius._integer_ad
        for k in columns:

            def integer_ad(P, X):
                diagonal, off = real(P, X)
                assert not off  # ad(d*x) is diagonal on the class
                diagonal = list(diagonal)
                diagonal[k] += 1
                return tuple(diagonal), off

            monkeypatch.setattr(frobenius, "_integer_ad", integer_ad)
            with pytest.raises(InvariantViolation, match="fixed-point identity"):
                principal_element(P, F)

    @pytest.mark.parametrize(
        "n, relations, diagonal",
        [
            (2, [(1, 2)], (HALF, -HALF)),
            (3, [(1, 2), (1, 3)], (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))),
            (3, [(1, 3), (2, 3)], (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))),
            (4, [(1, 3), (1, 4), (2, 4)], (HALF, HALF, -HALF, -HALF)),
            (4, [(1, 2), (1, 3), (1, 4)],
             (Fraction(3, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4))),
        ],
        ids=["1<=2", "1<=2,1<=3", "1<=3,2<=3", "1<=3,1<=4,2<=4", "1<=2,1<=3,1<=4"],
    )
    def test_type_a_diagonal(self, n, relations, diagonal):
        # DA(i) realizes as c at (i,i) and -c at (i+1,i+1), so a solution on
        # the DA elements alone is diagonal; type A has no negative rows,
        # so its convention is "other".  Of the 0/1 functionals on the
        # relations, the one on all of them is the only nonsingular one
        P = build_poset("A", n, relations)
        nonsingular = []
        for bits in itertools.product((0, 1), repeat=len(relations)):
            F = functional(P, dict(zip(relations, bits)))
            if not kernel_dim(P, F):
                nonsingular.append(F)
        assert [dict(F.support) for F in nonsingular] == [dict.fromkeys(relations, 1)]
        element = principal_element(P, nonsingular[0])
        assert {b.kind for b, _ in element.coefficients} == {"DA"}
        assert element.diagonal == tuple(zip(range(1, n + 1), diagonal))
        assert element.half_convention == "other"
        assert _diagonal_and_convention(element) == _diagonal_by_realization(P, element)

    def test_diagonal_matches_the_realized_combination_on_the_class(self):
        # the diagonal read off the coefficients of x against the one read
        # off its realized matrix, on every Frobenius poset of C<=4, D<=4,
        # B<=3 with the standard functional
        count = 0
        for P in _class_posets((("C", 4), ("D", 4), ("B", 3)), True):
            element = principal_element(P, frobenius_functional(P))
            assert _diagonal_and_convention(element) == _diagonal_by_realization(P, element)
            assert element.half_convention == "negatives-plus-half"
            count += 1
        assert count == 176

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_diagonal_matches_the_realized_combination_on_general_posets(self, family):
        # seeded general posets, whose solutions can hold X, Y, Z, U (or
        # EA) elements, with int or Fraction weights on a sample of the
        # permitted positions
        rng = random.Random(4000)
        outcomes = set()
        for P in seeded_general_posets(family, 40, count=80, n_max=5):
            positions = sorted(matrix_form(P))
            for _ in range(3):
                weights = {
                    key: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 6)))
                    for key in rng.sample(positions, rng.randint(1, len(positions)))
                }
                F = functional(P, weights)
                if kernel_dim(P, F):
                    continue
                element = principal_element(P, F)
                expected = _diagonal_by_realization(P, element)
                assert _diagonal_and_convention(element) == expected, (P, F)
                outcomes.add(expected[0] is None)
        assert outcomes == {True, False}

    def test_wrong_solution_raises_invariant_violation(self, monkeypatch):
        # the fixed-point identity, checked on d*x, must catch a solution
        # that is off in a single coordinate
        true_solve = frobenius.solve

        def off_by_one(rows, rhs, ncols):
            rank, x = true_solve(rows, rhs, ncols)
            x[0] += 1
            return rank, x

        monkeypatch.setattr(frobenius, "solve", off_by_one)
        for P in (
            build_poset("C", 3, [(-1, 2), (-1, 3), (-2, 3)]),
            poset_from_graph("C", 4, [(1, 2), (2, 3), (3, 4)], [1]),
            poset_from_graph("B", 3, [(1, 2), (1, 3), (2, 3)], []),
        ):
            with pytest.raises(InvariantViolation):
                principal_element(P, frobenius_functional(P))

    def test_off_diagonal_functionals_give_negatives_plus_half(self):
        # on a diagonal solution each supported root (-i, j) forces
        # -x_i - x_j = 1 and each loop -2x_i = 1, so positive rows always
        # carry -1/2: no functional flips the orientation
        rng = random.Random(2001)
        nonsingular = 0
        for family, top in (("C", 3), ("D", 3), ("B", 3)):
            for n in range(1, top + 1):
                for P in enumerate_h01(family, n):
                    if not is_frobenius_by_graph(P):
                        continue
                    off = [(r, c) for r, c in sorted(matrix_form(P)) if r != c]
                    for _ in range(4):
                        weights = {rc: rng.choice((-1, 1)) * rng.randint(1, 5) for rc in off}
                        F = functional(P, weights)
                        if kernel_dim(P, F):
                            continue
                        element = principal_element(P, F)
                        assert element.half_convention == "negatives-plus-half"
                        nonsingular += 1
        assert nonsingular >= 50

    def test_fixed_point_property(self, triangle_poset):
        F = frobenius_functional(triangle_poset)
        element = principal_element(triangle_poset, F)
        fmat = realize_combination(dict(element.coefficients))
        for b in build_basis(triangle_poset):
            bm = realize(b)
            assert functional_value(F, commutator(fmat, bm)) == functional_value(F, bm)


class TestSpectrum:
    def test_two_dim(self, sl2_like_poset):
        element = principal_element(sl2_like_poset, frobenius_functional(sl2_like_poset))
        report = spectrum(sl2_like_poset, element)
        assert report.eigenvalues == (0, 1)
        assert report.is_binary and report.zero_count == report.one_count == 1

    def test_looped_path(self, looped_path_poset):
        element = principal_element(
            looped_path_poset, frobenius_functional(looped_path_poset)
        )
        report = spectrum(looped_path_poset, element)
        assert report.eigenvalues == (0, 0, 0, 1, 1, 1)
        assert report.is_binary

    def test_triangle(self, triangle_poset):
        element = principal_element(triangle_poset, frobenius_functional(triangle_poset))
        report = spectrum(triangle_poset, element)
        assert report.eigenvalues == (0, 0, 0, 1, 1, 1)
        assert report.multiplicities() == {0: 3, 1: 3}

    def test_int_coefficients_give_fraction_eigenvalues(self, triangle_poset):
        # twice the principal element has int coefficients and int matrix
        # entries; eigenvalues must stay exact rationals, never floats
        half = principal_element(triangle_poset, frobenius_functional(triangle_poset))
        doubled = PrincipalElement(
            coefficients=tuple((b, int(2 * v)) for b, v in half.coefficients),
            diagonal=None,
            half_convention="other",
        )
        assert all(type(v) is int for _, v in doubled.coefficients)
        report = spectrum(triangle_poset, doubled)
        assert report.eigenvalues == (0, 0, 0, 2, 2, 2)
        assert all(type(v) is Fraction for v in report.eigenvalues)

    def test_spectrum_invariant_under_functional_choice(self, triangle_poset):
        # a different nonsingular functional gives another principal element
        # with the same eigenvalue multiset
        F1 = frobenius_functional(triangle_poset)
        F2 = functional(triangle_poset, {(-1, 2): 2, (-1, 3): 3, (-2, 3): 5})
        assert kernel_dim(triangle_poset, F2) == 0
        s1 = spectrum(triangle_poset, principal_element(triangle_poset, F1))
        s2 = spectrum(triangle_poset, principal_element(triangle_poset, F2))
        assert s1.eigenvalues == s2.eigenvalues

    @pytest.mark.parametrize("family", ["C", "D", "B"])
    def test_diagonal_support_gives_binary_spectrum(self, family):
        # a weight on a diagonal position forces a nilradical part into
        # the principal element: ad of it is triangular, not diagonal
        P = build_poset(family, 3, [(-1, 2), (-1, 3), (-2, 3)])
        F = functional(P, {(-1, 2): 1, (-1, 3): 1, (-2, 3): 1, (1, 1): 1})
        element = principal_element(P, F)
        assert element.half_convention == "other" and element.diagonal is None
        standard = spectrum(P, principal_element(P, frobenius_functional(P)))
        assert standard.is_binary
        assert spectrum(P, element) == standard

    @pytest.mark.parametrize("tangled", [(1,), (0, 1)], ids=["one-way", "cycle"])
    def test_only_triangular_ad_gives_eigenvalues(self, triangle_poset, monkeypatch, tangled):
        # give column k of ad an extra entry in row 1 - k, for k in tangled:
        # one such entry leaves ad triangular with the same diagonal, two
        # make the columns depend on each other
        element = principal_element(triangle_poset, frobenius_functional(triangle_poset))
        expected = spectrum(triangle_poset, element)
        real = frobenius._integer_ad

        def integer_ad(P, X):
            diagonal, off = real(P, X)
            off = {j: dict(column) for j, column in off.items()}  # the cached pass stays
            for k in tangled:
                column = off.setdefault(k, {})
                column[1 - k] = column.get(1 - k, 0) + 1
            return diagonal, off

        monkeypatch.setattr(frobenius, "_integer_ad", integer_ad)
        if len(tangled) == 1:
            assert spectrum(triangle_poset, element) == expected
        else:
            with pytest.raises(NonEigenbasis):
                spectrum(triangle_poset, element)

    @pytest.mark.parametrize(
        "h, x, expected",
        [(1, 1, (-1, 0, 0, 0, 1, 2)),
         (HALF, Fraction(1, 3), (-HALF, 0, 0, 0, HALF, 1))],
        ids=["ints", "fractions"],
    )
    def test_peel_past_its_first_round(self, h, x, expected):
        # the C2 poset -2 < -1 < 1 has the basis H(1), H(2), X(2,1),
        # Y(1,2), Z(1), Z(2); ad(h*H(1) + x*X(2,1)) is triangular but not
        # diagonal, and its digraph clears in two rounds of the peel, the
        # second only once the first round's columns are dropped from the
        # others; the eigenvalues are those of ad(h*H(1)) alone
        P = build_poset("C", 2, [(-2, -1), (-1, 1)])
        basis, _ = structure_constants(P)
        assert [str(b) for b in basis] == ["H(1)", "H(2)", "X(2,1)", "Y(1,2)", "Z(1)", "Z(2)"]
        element = PrincipalElement(
            coefficients=((basis[0], Fraction(h)), (basis[2], Fraction(x))),
            diagonal=None,
            half_convention="other",
        )
        report = spectrum(P, element)
        assert report.eigenvalues == expected
        assert not report.is_binary

    def test_binary_on_full_frobenius_corpus_n3(self):
        for n in (1, 2, 3):
            for P in enumerate_h01("C", n):
                if not is_frobenius_by_graph(P):
                    continue
                element = principal_element(P, frobenius_functional(P))
                report = spectrum(P, element)
                assert report.is_binary
                assert report.zero_count == report.one_count == report.dim // 2

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_ad_columns_in_one_pass(self, family):
        # the diagonal and the off-diagonal columns of ad(d*x) from one
        # pass over the table equal the bracket of d*x with each basis
        # element, for random sparse rational x; d is the lcm of the
        # denominators of x, and d*x is keyed as (element, int) pairs in
        # the order of x.  The class posets (none in family A) come
        # first, then seeded general posets of any height, whose x can
        # hold X, Y and U elements (DA and EA in family A), so ad(d*x)
        # has off-diagonal columns
        rng = random.Random(3)
        posets = itertools.chain(
            enumerate_h01(family, 3) if family != "A" else (),
            seeded_general_posets(family, 40, count=40, n_max=5),
        )
        kinds = set()
        with_off = 0
        for P in posets:
            basis, _ = structure_constants(P)
            dim = len(basis)
            x = {
                k: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for k in rng.sample(range(dim), min(dim, 4))
            }
            d = lcm(1, *(v.denominator for v in x.values()))
            X = {k: int(d * v) for k, v in x.items()}
            columns = [combo_bracket(P, X, {k: 1}) for k in range(dim)]
            expected_off = {
                k: {row: c for row, c in column.items() if row != k}
                for k, column in enumerate(columns)
                if set(column) - {k}
            }
            coefficients = tuple((basis[k], v) for k, v in x.items())
            integer = tuple((basis[k], v) for k, v in X.items())
            assert frobenius._integer_form(coefficients) == (d, integer), P
            diagonal, off = frobenius._integer_ad(P, integer)
            assert diagonal == tuple(column.get(k, 0) for k, column in enumerate(columns)), P
            assert all(type(v) is int for v in diagonal)
            assert off == expected_off, P
            kinds.update(basis[k].kind for k, v in X.items() if v)
            with_off += bool(off)
        assert kinds >= ({"DA", "EA"} if family == "A" else {"H", "X", "Y"})
        assert family != "B" or "U" in kinds
        assert with_off >= 10

    def test_one_ad_pass_for_principal_element_then_spectrum(self, triangle_poset, monkeypatch):
        # spectrum reads the columns of ad(d*x) that principal_element has
        # just built for the same element: one pass over the table, cached
        # on ints and basis elements, so no Fraction of x is hashed on the
        # way (x has Fraction coefficients 1/2 and -1/2)
        true_hash = Fraction.__hash__
        hashed = []

        def counted(self):
            hashed.append(self)
            return true_hash(self)

        for P in (
            triangle_poset,
            poset_from_graph("C", 4, [(1, 2), (2, 3), (3, 4)], [1]),
            poset_from_graph("B", 3, [(1, 2), (1, 3), (2, 3)]),
        ):
            frobenius._integer_ad.cache_clear()
            F = frobenius_functional(P)
            monkeypatch.setattr(Fraction, "__hash__", counted)
            element = principal_element(P, F)
            report = spectrum(P, element)
            monkeypatch.undo()
            assert report.is_binary
            assert {v for _, v in element.coefficients} <= {HALF, -HALF}
            assert hashed == []
            info = frobenius._integer_ad.cache_info()
            assert (info.misses, info.hits) == (1, 1)


class TestRationalFunctional:
    def test_one_sixth_of_the_standard_functional(self):
        # F/6 scales the Kirillov form and the right-hand side alike: the
        # same kernel, principal element and spectrum as F
        count = 0
        for family, top in (("C", 3), ("D", 3), ("B", 3)):
            for n in range(1, top + 1):
                for P in enumerate_h01(family, n):
                    if not is_frobenius_by_graph(P):
                        continue
                    F = frobenius_functional(P)
                    sixth = functional(P, {rc: Fraction(1, 6) for rc, _ in F.support})
                    assert all(w == Fraction(1, 6) for _, w in sixth.support)
                    assert kernel_dim(P, sixth) == kernel_dim(P, F) == 0
                    element = principal_element(P, F)
                    assert principal_element(P, sixth) == element
                    assert spectrum(P, principal_element(P, sixth)) == spectrum(P, element)
                    count += 1
        assert count == 23

    def test_seeded_rational_weights(self):
        # the solution for random rational weights satisfies the
        # fixed-point identity on realized matrices, and clearing the
        # weights' denominators changes neither the kernel nor the solution
        rng = random.Random(7)
        nonsingular = 0
        for family in ("C", "D", "B"):
            for P in enumerate_h01(family, 3):
                off = [(r, c) for r, c in sorted(matrix_form(P)) if r != c]
                weights = {rc: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for rc in off}
                F = functional(P, weights)
                scale = lcm(1, *(w.denominator for w in weights.values()))
                G = functional(P, {rc: w * scale for rc, w in weights.items()})
                assert kernel_dim(P, F) == kernel_dim(P, G)
                if kernel_dim(P, F):
                    continue
                element = principal_element(P, F)
                assert principal_element(P, G) == element
                xmat = realize_combination(dict(element.coefficients))
                for b in build_basis(P):
                    bm = realize(b)
                    assert functional_value(F, commutator(xmat, bm)) == functional_value(F, bm)
                nonsingular += 1
        assert nonsingular >= 15


class TestIntegerPath:
    POSETS = (
        poset_from_graph("C", 4, [(1, 2), (2, 3), (3, 4)], [1]),
        poset_from_graph("B", 3, [(1, 2), (1, 3), (2, 3)], []),
    )

    @pytest.mark.parametrize("P", POSETS, ids=["C4", "B3"])
    def test_point_and_kirillov_form_are_ints(self, P):
        F = frobenius_functional(P)
        point = F.point(P)
        assert point and all(type(v) is int for v in point.values())
        basis, table = structure_constants(P)
        B = evaluate(table, [point[b] for b in basis])
        assert all(type(x) is int for row in B for x in row)

    @pytest.mark.parametrize("P", POSETS, ids=["C4", "B3"])
    def test_solution_and_eigenvalues_are_fractions(self, P):
        element = principal_element(P, frobenius_functional(P))
        assert element.coefficients
        assert all(type(v) is Fraction for _, v in element.coefficients)
        report = spectrum(P, element)
        assert all(type(v) is Fraction for v in report.eigenvalues)

    @pytest.mark.parametrize("P", POSETS, ids=["C4", "B3"])
    def test_one_elimination_per_query(self, P, monkeypatch):
        # the rank and the solution come from the same pivots, and the
        # last (P, F) solved is cached, so kernel_dim followed by
        # principal_element evaluates and eliminates the form once
        calls = []
        true_bareiss = linalg._bareiss

        def counted(m, ncols):
            calls.append(ncols)
            return true_bareiss(m, ncols)

        monkeypatch.setattr(linalg, "_bareiss", counted)
        F = frobenius_functional(P)
        assert kernel_dim(P, F) == 0
        assert len(calls) == 1
        principal_element(P, F)
        assert len(calls) == 1

    @pytest.mark.parametrize("P", POSETS, ids=["C4", "B3"])
    def test_one_elimination_per_campaign_poset(self, P, monkeypatch):
        # frobenius_kernel reads kernel_dim, and the principal element
        # the other two checks share reads the same cached solve
        calls = []
        true_bareiss = linalg._bareiss

        def counted(m, ncols):
            calls.append(ncols)
            return true_bareiss(m, ncols)

        monkeypatch.setattr(linalg, "_bareiss", counted)
        checks = ("frobenius_kernel", "principal_element", "binary_spectrum")
        outcomes = run_checks_on_poset(P.family, P.n, mask_of_poset(P), checks)
        assert outcomes == [None] * 3
        assert len(calls) == 1

    def test_outputs_pinned(self):
        # principal element and spectrum of every Frobenius poset of
        # C<=4, D<=4, B<=3 in enumeration order; a change to any
        # coefficient, diagonal entry, eigenvalue or rendering moves this
        digest = hashlib.sha256()
        count = 0
        for family, top in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, top + 1):
                for P in enumerate_h01(family, n):
                    if not is_frobenius_by_graph(P):
                        continue
                    F = frobenius_functional(P)
                    assert kernel_dim(P, F) == 0
                    element = principal_element(P, F)
                    report = spectrum(P, element)
                    digest.update(
                        json.dumps(principal_element_json_obj(element), sort_keys=True).encode()
                    )
                    digest.update(json.dumps(spectrum_json_obj(report), sort_keys=True).encode())
                    count += 1
        assert count == 176
        assert digest.hexdigest() == (
            "6de5ebba26fadda92ba600d525926b8ce0cc6368c779824b9558a2541f30d700"
        )


def _diagonal_by_realization(P, element):
    """(diagonal, half_convention) of a principal element read off its
    realized matrix, values with their types, as (label, value, type)
    triples; diagonal is None when the matrix is not diagonal."""
    xmat = realize_combination(dict(element.coefficients))
    if any(r != c for r, c in xmat):
        return None, "other"
    diagonal = tuple((e, xmat.get((e, e), 0)) for e in P.elements)
    half = all(
        xmat.get((-e, -e), 0) == HALF and xmat.get((e, e), 0) == -HALF
        for e in P.elements
        if e > 0
    )
    return _typed(diagonal), "negatives-plus-half" if half else "other"


def _diagonal_and_convention(element):
    """(diagonal, half_convention) of a principal element, the diagonal's
    values with their types as in `_diagonal_by_realization`."""
    return _typed(element.diagonal), element.half_convention


def _typed(diagonal):
    return None if diagonal is None else tuple((e, v, type(v)) for e, v in diagonal)


def _class_posets(bounds, frobenius_only):
    """The posets of enumerate_h01 for each (family, top) of bounds and
    every n up to top; only the Frobenius ones when frobenius_only."""
    for family, top in bounds:
        for n in range(1, top + 1):
            for P in enumerate_h01(family, n):
                if not frobenius_only or is_frobenius_by_graph(P):
                    yield P


def _edge_loop_functional(P):
    """The standard functional's weights, on any class poset: 1 at (-i, j)
    for each edge (i, j) and at (-v, v) for each loop v."""
    G = P.relation_graph
    weights = {(-i, j): 1 for i, j in G.edges}
    weights.update({(-v, v): 1 for v in G.loops})
    return functional(P, weights)


def _h_supported_functional(P, rng):
    """Seeded weights, some rational, at (-i, -i) for a nonempty sample of
    i, so F is nonzero on those H(i), and at about half of the other
    permitted positions."""
    def weight():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    diagonal = rng.sample(range(1, P.n + 1), rng.randint(1, P.n))
    weights = {(-i, -i): weight() for i in diagonal}
    for r, c in sorted(matrix_form(P)):
        if r != c and rng.random() < 0.5:
            weights[(r, c)] = weight()
    return functional(P, weights)


class TestBlockSolve:
    """Every class table scales diagonally, and `_solve_kirillov` solves
    the Kirillov form of a functional that is 0 on every H element on the
    block A^T alone, and any other functional dense: either way the rank
    and x are those of the whole form, evaluated and eliminated dense."""

    @pytest.mark.parametrize(
        "bounds, frobenius_only, count",
        [
            ((("C", 4), ("D", 4), ("B", 3)), False, 1184),
            ((("C", 5), ("D", 5), ("B", 4)), True, 1898),
        ],
        ids=["class-C4-D4-B3", "frobenius-C5-D5-B4"],
    )
    def test_block_route_equals_the_dense_solve(
        self, bounds, frobenius_only, count, monkeypatch
    ):
        true_solve = frobenius.solve
        widths = []

        def recorded(rows, rhs, ncols):
            widths.append(ncols)
            return true_solve(rows, rhs, ncols)

        monkeypatch.setattr(frobenius, "solve", recorded)
        rng = random.Random(37)
        posets = h_solved = 0
        for P in _class_posets(bounds, frobenius_only):
            posets += 1
            standard = _edge_loop_functional(P)
            if frobenius_only:
                assert standard == frobenius_functional(P)
            for F in (standard, _h_supported_functional(P, rng), functional(P, {})):
                frobenius._solve_kirillov.cache_clear()
                widths.clear()
                basis, values, rank, x = frobenius._solve_kirillov(P, F)
                table = structure_constants(P)[1]
                h = len(algebra._h_block(basis, table))
                dense_rank, dense_x = linalg.solve(
                    evaluate(table, values), [-v for v in values], len(basis)
                )
                assert rank == dense_rank, (P, F)
                assert x == (None if dense_x is None else tuple(dense_x)), (P, F)
                # weight on an H element takes the dense solve; F zero on
                # every H element takes A^T alone and gives x_N = 0
                if any(values[:h]):
                    assert widths == [len(basis)], (P, F)
                    h_solved += x is not None and any(x[h:])
                else:
                    assert widths == [h], (P, F)
                    assert x is None or not any(x[h:]), (P, F)
        assert posets == count
        assert h_solved


class TestBDFrobenius:
    def test_type_d_triangle(self):
        # no self loops needed: the 3-cycle is realizable in family D
        P = build_poset("D", 3, [(-1, 2), (-1, 3), (-2, 3)])
        assert is_frobenius_by_graph(P)
        assert index_oracle(P) == 0
        F = frobenius_functional(P)
        assert kernel_dim(P, F) == 0
        element = principal_element(P, F)
        diag = dict(element.diagonal)
        assert all(diag[-i] == HALF and diag[i] == -HALF for i in (1, 2, 3))
        report = spectrum(P, element)
        assert report.is_binary

    def test_type_b_triangle_with_zero(self):
        P = build_poset("B", 3, [(-1, 2), (-1, 3), (-2, 3)])
        assert is_frobenius_by_graph(P)
        F = frobenius_functional(P)
        assert kernel_dim(P, F) == 0
        element = principal_element(P, F)
        report = spectrum(P, element)
        assert report.is_binary
        assert dict(element.diagonal)[0] == 0
