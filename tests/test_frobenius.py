import hashlib
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
    realize_combination,
    spectrum,
    structure_constants,
)

from lieposet import frobenius, linalg
from lieposet.formats import principal_element_json_obj, spectrum_json_obj
from lieposet.harness import CampaignConfig, run_campaign, run_checks_on_poset
from references import combo_bracket

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
        # a skew matrix has even rank: an odd one is a fault in the solve,
        # raised by both queries and, in a campaign, one failed check
        true_solve = frobenius.solve

        def odd_rank(rows, rhs, ncols):
            rank, x = true_solve(rows, rhs, ncols)
            return rank - 1, x

        monkeypatch.setattr(frobenius, "solve", odd_rank)
        P = triangle_poset
        F = frobenius_functional(P)
        with pytest.raises(InvariantViolation, match="odd rank 5"):
            kernel_dim(P, F)
        with pytest.raises(InvariantViolation, match="odd rank 5"):
            principal_element(P, F)
        [outcome] = run_checks_on_poset(
            P.family, P.n, mask_of_poset(P), ("frobenius_kernel",), 0, 5
        )
        assert outcome["check"] == "frobenius_kernel"
        assert outcome["witness"]["error"] == "InvariantViolation"
        report = run_campaign(CampaignConfig(plan=(("C", 2),), checks=("frobenius_kernel",)))
        total = sum(report["posets"].values())
        frobenius_count = sum(is_frobenius_by_graph(Q) for n in (1, 2)
                              for Q in enumerate_h01("C", n))
        assert report["summary"]["frobenius_kernel"] == {
            "pass": 0, "fail": frobenius_count, "skipped": total - frobenius_count,
        }
        assert {f["witness"]["error"] for f in report["failures"]} == {"InvariantViolation"}

    def test_fixed_point_mismatch_raises_invariant_violation(
        self, triangle_poset, monkeypatch
    ):
        # an extra 1 in row k of a column of ad(d*x) moves that column's
        # F(ad(x)(b)) by F(b_k), so the identity fails where F(b_k) != 0
        P = triangle_poset
        F = frobenius_functional(P)
        point = F.point(P)
        rows = [k for k, b in enumerate(structure_constants(P)[0]) if point[b]]
        assert rows
        real = frobenius._integer_ad
        for row in rows:

            def integer_ad(P, coefficients):
                d, x, columns = real(P, coefficients)
                columns = [dict(column) for column in columns]  # the cached pass stays
                columns[0][row] = columns[0].get(row, 0) + 1
                return d, x, columns

            monkeypatch.setattr(frobenius, "_integer_ad", integer_ad)
            with pytest.raises(InvariantViolation, match="fixed-point identity"):
                principal_element(P, F)

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
            assert F.value_on(commutator(fmat, bm)) == F.value_on(bm)


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

        def integer_ad(P, coefficients):
            d, x, columns = real(P, coefficients)
            columns = [dict(column) for column in columns]  # the cached pass stays
            for k in tangled:
                columns[k][1 - k] = columns[k].get(1 - k, 0) + 1
            return d, x, columns

        monkeypatch.setattr(frobenius, "_integer_ad", integer_ad)
        if len(tangled) == 1:
            assert spectrum(triangle_poset, element) == expected
        else:
            with pytest.raises(NonEigenbasis):
                spectrum(triangle_poset, element)

    def test_binary_on_full_frobenius_corpus_n3(self):
        for n in (1, 2, 3):
            for P in enumerate_h01("C", n):
                if not is_frobenius_by_graph(P):
                    continue
                element = principal_element(P, frobenius_functional(P))
                report = spectrum(P, element)
                assert report.is_binary
                assert report.zero_count == report.one_count == report.dim // 2

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_ad_columns_in_one_pass(self, family):
        # every column of ad(d*x) from one pass over the table equals the
        # bracket of d*x with that basis element, for random sparse
        # rational x; d is the lcm of the denominators of x
        rng = random.Random(3)
        for P in enumerate_h01(family, 3):
            basis, table = structure_constants(P)
            dim = len(basis)
            x = {
                k: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for k in rng.sample(range(dim), min(dim, 4))
            }
            d = lcm(1, *(v.denominator for v in x.values()))
            X = {k: int(d * v) for k, v in x.items()}
            expected = [combo_bracket(P, X, {k: 1}) for k in range(dim)]
            coefficients = tuple((basis[k], v) for k, v in x.items())
            got = frobenius._integer_ad(P, coefficients)
            assert got == (d, {basis[k]: v for k, v in X.items()}, tuple(expected)), P

    def test_one_ad_pass_for_principal_element_then_spectrum(self, triangle_poset):
        # spectrum reads the columns of ad(d*x) that principal_element has
        # just built for the same element: one pass over the table
        P = triangle_poset
        report = spectrum(P, principal_element(P, frobenius_functional(P)))
        assert report.is_binary
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
                    assert F.value_on(commutator(xmat, bm)) == F.value_on(bm)
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
        # frobenius_kernel reads kernel 0 off the principal element that
        # the other two checks share
        calls = []
        true_bareiss = linalg._bareiss

        def counted(m, ncols):
            calls.append(ncols)
            return true_bareiss(m, ncols)

        monkeypatch.setattr(linalg, "_bareiss", counted)
        checks = ("frobenius_kernel", "principal_element", "binary_spectrum")
        outcomes = run_checks_on_poset(P.family, P.n, mask_of_poset(P), checks, 0, 5)
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
