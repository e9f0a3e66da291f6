import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpora import general_generators, seeded_general_posets, type_a_height_one_posets
from references import basis_by_kinds, bracket, combo_bracket, decompose_in, table_by_brackets
from lieposet import (
    BasisElement,
    InvariantViolation,
    NoSignRescaling,
    NotInSpan,
    SignedPoset,
    TablesDiffer,
    UnsupportedPoset,
    build_basis,
    build_poset,
    commutator,
    decompose,
    enumerate_h01,
    ground_set,
    height,
    matrix_form,
    realize,
    realize_combination,
    relation_graph,
    structure_constants,
    validate,
    verify_B_reduction,
    verify_CD_isomorphism,
)
from lieposet import algebra
from lieposet.formats import structure_constants_json_obj, structure_constants_text


def by_kind(basis, kind, i, j=0):
    for b in basis:
        if (b.kind, b.i, b.j) == (kind, i, j):
            return b
    raise LookupError((kind, i, j))


class TestBasis:
    def test_two_dim_example(self, sl2_like_poset):
        basis = build_basis(sl2_like_poset)
        assert [repr(b) for b in basis] == ["H(1)", "Z(1)"]

    def test_looped_path_basis(self, looped_path_poset):
        basis = build_basis(looped_path_poset)
        assert [repr(b) for b in basis] == [
            "H(1)", "H(2)", "H(3)", "Y(1,2)", "Y(2,3)", "Z(2)",
        ]

    def test_path_poset_family_d(self):
        P = build_poset("D", 3, [(-2, 1), (-2, 3), (-3, 2), (-1, 2)])
        basis = build_basis(P)
        assert [repr(b) for b in basis] == [
            "H(1)", "H(2)", "H(3)", "Y(2,1)", "Y(3,2)",
        ]

    def test_dimension_is_graph_size(self):
        for n in (1, 2, 3):
            for P in enumerate_h01("C", n):
                G = relation_graph(P)
                assert len(build_basis(P)) == G.n + G.edge_count

    def test_family_a_basis(self):
        P = build_poset("A", 3, [(1, 2), (2, 3)])
        basis = build_basis(P)
        # two diagonal elements plus E12, E13 (closure), E23
        kinds = [(b.kind, b.i, b.j) for b in basis]
        assert kinds == [
            ("DA", 1, 0), ("DA", 2, 0),
            ("EA", 1, 2), ("EA", 1, 3), ("EA", 2, 3),
        ]

    def test_b_basis_with_zero_column(self):
        P = build_poset("B", 1, [(-1, 0)])
        assert [repr(b) for b in build_basis(P)] == ["H(1)", "U(1)"]


class TestRealize:
    def test_h(self):
        b = BasisElement("C", "H", 1)
        assert realize(b) == {(-1, -1): 1, (1, 1): -1}

    def test_y_family_c(self):
        b = BasisElement("C", "Y", 1, 2)
        assert realize(b) == {(-1, 2): 1, (-2, 1): 1}

    def test_y_family_d(self):
        b = BasisElement("D", "Y", 2, 1)
        assert realize(b) == {(-2, 1): 1, (-1, 2): -1}

    def test_x_u_z(self):
        assert realize(BasisElement("C", "X", 2, 1)) == {(-2, -1): 1, (1, 2): -1}
        assert realize(BasisElement("C", "Z", 1)) == {(-1, 1): 1}
        assert realize(BasisElement("B", "U", 2)) == {(-2, 0): 1, (0, 2): -1}

    def test_leading_position_contract(self):
        # decompose reads each coefficient at the first entry of the
        # element's realization: it must be 1, and no element later in
        # basis order may touch it.  B posets with relations through 0
        # cover U, and posets of larger height reach X
        posets = itertools.chain(
            _structure_constant_corpus(4, 4, 3), _general_posets("BD", 3, 2)
        )
        kinds = set()
        for P in posets:
            basis = build_basis(P)
            realized = [realize(b) for b in basis]
            for k, entries in enumerate(realized):
                lead, coefficient = next(iter(entries.items()))
                assert coefficient == 1, (P, basis[k])
                assert all(lead not in later for later in realized[k + 1:]), (P, basis[k])
            kinds.update(b.kind for b in basis)
        assert kinds == {"H", "X", "Y", "Z", "U", "DA", "EA"}

    def test_upper_triangular_in_signed_order(self):
        for n in (1, 2, 3):
            for P in enumerate_h01("C", n):
                order = {e: k for k, e in enumerate(ground_set("C", n))}
                for b in build_basis(P):
                    for (r, c) in realize(b):
                        assert order[r] <= order[c]

    def test_block_symmetry(self):
        # family C: the upper-right block is symmetric under the
        # antitranspose; families B and D are antisymmetric under it
        for fam, sign in (("C", 1), ("D", -1), ("B", -1)):
            for P in enumerate_h01(fam, 3):
                for b in build_basis(P):
                    mat = realize(b)
                    for (r, c), v in mat.items():
                        if r < 0 < c:
                            assert mat.get((-c, -r)) == sign * v


class TestBracket:
    def test_h_z(self, sl2_like_poset):
        basis = build_basis(sl2_like_poset)
        assert bracket(basis[0], basis[1], sl2_like_poset) == {basis[1]: 2}

    def test_diagonals_commute(self, looped_path_poset):
        basis = build_basis(looped_path_poset)
        assert bracket(basis[0], basis[1], looped_path_poset) == {}

    def test_h_y(self, looped_path_poset):
        basis = build_basis(looped_path_poset)
        h1 = by_kind(basis, "H", 1)
        y12 = by_kind(basis, "Y", 1, 2)
        assert bracket(h1, y12, looped_path_poset) == {y12: 1}

    def test_u_brackets(self):
        P = build_poset("B", 2, [(-1, 0), (-2, 0)])
        basis = build_basis(P)
        u1, u2 = by_kind(basis, "U", 1), by_kind(basis, "U", 2)
        y21 = by_kind(basis, "Y", 2, 1)
        assert bracket(u1, u2, P) == {y21: 1}
        assert bracket(by_kind(basis, "H", 1), u1, P) == {u1: 1}
        assert bracket(y21, u1, P) == {}

    def test_not_in_span_for_foreign_position(self, path_poset):
        # Y(1,3) is an element of family C but not of the basis of the path
        # 1-2-3: the pass finds it, and the span check of P rejects it
        stray = {(-1, 3): 1, (-3, 1): 1}
        assert decompose(stray, "C") == ((BasisElement("C", "Y", 1, 3), 1),)
        with pytest.raises(NotInSpan, match=r"Y\(1,3\)\] outside the basis"):
            decompose_in(stray, path_poset)
        # the mirror half of Y(1,2) without its leading entry leads nothing
        half = {(-2, 1): 1}
        with pytest.raises(NotInSpan, match=r"residual \{\(-3, 1\): 1, \(-2, 1\): 1\}"):
            decompose({(-3, 1): 1, **half}, "C")
        with pytest.raises(NotInSpan):
            decompose(half, "C")
        # a zero at the leading position of Y(1,2) leaves the residual real
        with pytest.raises(NotInSpan):
            decompose({(-1, 2): 0, **half}, "C")

    def test_decompose_reads_h_on_the_diagonal(self):
        # H(i) leads at (-i, -i); no bracket of a poset has an H part, so
        # only a realization reaches this branch
        h1, h2 = BasisElement("D", "H", 1), BasisElement("D", "H", 2)
        x21 = BasisElement("D", "X", 2, 1)
        assert decompose(realize(h2), "D") == ((h2, 1),)
        mat = realize_combination({h1: 3, h2: -1, x21: 2})
        assert decompose(mat, "D") == ((h1, 3), (h2, -1), (x21, 2))

    def test_decompose_family_a_diagonal(self):
        mat = {(1, 1): 1, (2, 2): 1, (3, 3): -2}
        combo = decompose(mat, "A")
        assert combo == ((BasisElement("A", "DA", 1), 1), (BasisElement("A", "DA", 2), 2))
        assert realize_combination(dict(combo)) == mat
        # explicit zeros, at a leading position and at a foreign one, are
        # ignored; the zero matrix is the empty combination
        assert decompose({(1, 2): 0, **mat, (3, 1): Fraction(0)}, "A") == combo
        assert decompose({}, "A") == ()
        assert decompose({(1, 1): 0, (3, 1): Fraction(0)}, "A") == ()
        # a nonzero trace is in no span, whatever n the poset has
        traceful = {(1, 1): 1}
        with pytest.raises(NotInSpan):
            decompose(traceful, "A")
        with pytest.raises(NotInSpan):
            decompose({(2, 2): 0, **traceful}, "A")
        with pytest.raises(NotInSpan):
            decompose({(1, 1): 1, (3, 3): -2}, "A")
        # a traceless matrix beyond n = 3 decomposes, and P rejects DA(3)
        wide = {(1, 1): 1, (4, 4): -1}
        assert [b.i for b, _ in decompose(wide, "A")] == [1, 2, 3]
        with pytest.raises(NotInSpan):
            decompose_in(wide, build_poset("A", 3, [(1, 2)]))

    def test_antisymmetry_and_jacobi_small_corpora(self):
        for fam, n_max in (("C", 2), ("D", 2), ("B", 2)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(fam, n):
                    basis, _ = structure_constants(P)
                    dim = len(basis)
                    for i, j in itertools.combinations(range(dim), 2):
                        ij = combo_bracket(P, {i: 1}, {j: 1})
                        ji = combo_bracket(P, {j: 1}, {i: 1})
                        assert ij == {k: -c for k, c in ji.items()}
                    for i, j, k in itertools.combinations(range(dim), 3):
                        total = {}
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                            inner = combo_bracket(P, {b: 1}, {c: 1})
                            for pos, coeff in combo_bracket(P, {a: 1}, inner).items():
                                total[pos] = total.get(pos, Fraction(0)) + coeff
                        assert not any(total.values())

    def test_combo_bracket_reads_the_table_once(self, triangle_poset, monkeypatch):
        # a sum over several pairs, in both orders, against the bracket of
        # the realized combinations; one table lookup per call
        P = triangle_poset
        basis, _ = structure_constants(P)
        u = {0: 2, 3: Fraction(-1, 2), len(basis) - 1: 1}
        v = {1: 1, 3: 5, len(basis) - 2: -3}
        expected = decompose_in(
            commutator(
                realize_combination({basis[k]: c for k, c in u.items()}),
                realize_combination({basis[k]: c for k, c in v.items()}),
            ),
            P,
        )
        calls = []
        true_table = algebra.structure_constants

        def counted(poset):
            calls.append(poset)
            return true_table(poset)

        monkeypatch.setattr(algebra, "structure_constants", counted)
        out = combo_bracket(P, u, v)
        assert len(calls) == 1
        assert out == {basis.index(b): c for b, c in expected.items() if c}


class TestMatrixForm:
    def test_path_poset_pattern(self, path_poset):
        expected = {(e, e) for e in path_poset.elements}
        expected |= {(-2, 1), (-2, 3), (-3, 2), (-1, 2)}
        assert matrix_form(path_poset) == expected

    def test_triangle_pattern(self, triangle_poset):
        expected = {(e, e) for e in triangle_poset.elements}
        expected |= {(-1, 2), (-2, 1), (-1, 3), (-3, 1), (-2, 3), (-3, 2)}
        assert matrix_form(triangle_poset) == expected

    def test_family_a_pattern(self):
        P = build_poset("A", 4, [(1, 2), (2, 3), (2, 4)])
        expected = {(e, e) for e in (1, 2, 3, 4)}
        expected |= {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
        assert matrix_form(P) == expected

    def test_antichain_pattern_is_diagonal(self):
        P = build_poset("C", 1, [])
        assert matrix_form(P) == {(-1, -1), (1, 1)}

    def test_bd_exclude_center_pairs(self):
        P = build_poset("D", 2, [(-2, 1), (1, 2)])  # forces -2 <= 2
        assert (-2, 2) in P.relations
        assert (-2, 2) not in matrix_form(P)
        PC = SignedPoset("C", 2, P.relations)
        validate(PC)
        assert (-2, 2) in matrix_form(PC)


class TestIsomorphisms:
    def test_cd_trivial_edge(self):
        eps = verify_CD_isomorphism(build_poset("D", 2, [(-1, 2)]))
        assert eps == (1, 1, 1)

    def test_cd_antichain(self):
        assert verify_CD_isomorphism(build_poset("D", 2, [])) == (1, 1)

    def test_cd_path_poset(self):
        P = build_poset("D", 3, [(-2, 1), (-2, 3), (-3, 2), (-1, 2)])
        eps = verify_CD_isomorphism(P)
        assert len(eps) == 5 and all(e in (1, -1) for e in eps)

    def test_cd_needs_sign_flip(self):
        # X(3,1) against the pair {1,2} reverses one orientation
        P = build_poset("D", 3, [(-3, -1), (-1, 2)])
        eps = verify_CD_isomorphism(P)
        assert any(e < 0 for e in eps)

    def test_verifiers_reject_the_other_families(self):
        with pytest.raises(UnsupportedPoset, match="expected a type-D poset"):
            verify_CD_isomorphism(build_poset("C", 2, [(-1, 2)]))
        with pytest.raises(UnsupportedPoset, match="expected a type-B poset"):
            verify_B_reduction(build_poset("D", 2, [(-1, 2)]))

    def test_cd_rejects_center_pairs(self):
        P = build_poset("D", 2, [(-2, 1), (1, 2)])
        with pytest.raises(UnsupportedPoset):
            verify_CD_isomorphism(P)

    def test_cd_exhaustive_height_one(self):
        for n in (1, 2, 3):
            for P in enumerate_h01("D", n):
                assert verify_CD_isomorphism(P)

    def test_b_reduction_examples(self, path_poset):
        # a match returns None; a mismatch raises TablesDiffer
        assert verify_B_reduction(build_poset("B", 2, [(-1, 2)])) is None
        assert verify_B_reduction(build_poset("B", 1, [])) is None
        gens = sorted((x, y) for (x, y) in path_poset.relations if x < 0 < y)
        assert verify_B_reduction(build_poset("B", 3, gens)) is None

    def test_cd_constants_differ_in_magnitude(self, monkeypatch):
        inner = algebra.structure_constants

        def scaled(P):
            basis, table = inner(P)
            if P.family == "C":
                key = min(table)
                k, c = table[key]
                table = {**table, key: (k, 2 * c)}
            return basis, table

        monkeypatch.setattr(algebra, "structure_constants", scaled)
        with pytest.raises(NoSignRescaling, match="differ in magnitude"):
            verify_CD_isomorphism(build_poset("D", 2, [(-1, 2)]))

    def test_cd_inconsistent_parity(self, monkeypatch):
        monkeypatch.setattr(algebra, "_solve_gf2", lambda equations: None)
        with pytest.raises(NoSignRescaling, match="parity constraints are inconsistent"):
            verify_CD_isomorphism(build_poset("D", 2, [(-1, 2)]))

    def test_cd_rechecks_the_rescaled_tables(self, monkeypatch):
        # this poset needs a sign flip, so the all-plus vector is wrong
        P = build_poset("D", 3, [(-3, -1), (-1, 2)])
        monkeypatch.setattr(algebra, "_solve_gf2", lambda equations: [])
        with pytest.raises(NoSignRescaling, match="rescaled tables still differ"):
            verify_CD_isomorphism(P)

    def test_solve_gf2_inconsistent(self):
        # x0 = 0 and x0 = 1
        assert algebra._solve_gf2([(1, 0), (1, 1)]) is None

    def test_b_reduction_detects_a_changed_d_table(self, monkeypatch):
        inner = algebra.structure_constants

        def dropped(P):
            basis, table = inner(P)
            if P.family == "D":
                table = {key: cell for key, cell in table.items() if key != min(table)}
            return basis, table

        P = build_poset("B", 2, [(-1, 2)])
        assert verify_B_reduction(P) is None
        monkeypatch.setattr(algebra, "structure_constants", dropped)
        with pytest.raises(TablesDiffer, match=r"differ at \[H\(1\),Y\(2,1\)\]"):
            verify_B_reduction(P)

    def test_b_reduction_rejects_related_zero(self):
        with pytest.raises(UnsupportedPoset):
            verify_B_reduction(build_poset("B", 1, [(-1, 0)]))


def _general_posets(families, n_max, max_gens):
    """Every poset closed from at most max_gens generators, per family."""
    for family in families:
        for n in range(1, n_max + 1):
            candidates = general_generators(family, n)
            for k in range(max_gens + 1):
                for gens in itertools.combinations(candidates, k):
                    yield build_poset(family, n, gens)


@pytest.mark.parametrize("family", ["B", "C", "D"])
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_bracket_closure_on_general_posets(family, n, data):
    candidates = general_generators(family, n)
    gens = []
    if candidates:  # D1 has none: its one poset is the antichain
        gens = data.draw(st.lists(st.sampled_from(candidates), max_size=5))
    P = build_poset(family, n, gens)
    basis = build_basis(P)
    for a, b in itertools.combinations(basis, 2):
        bracket(a, b, P)  # must never raise NotInSpan


def _structure_constant_corpus(c_max, d_max, b_max):
    """Every poset of C<=c_max, D<=d_max, B<=b_max, then height-one type A
    for n=2..4, in enumeration order."""
    for fam, n_max in (("C", c_max), ("D", d_max), ("B", b_max)):
        for n in range(1, n_max + 1):
            yield from enumerate_h01(fam, n)
    for n in range(2, 5):
        yield from type_a_height_one_posets(n, connected_only=False)


class TestIntegerStructureConstants:
    def test_coefficients_are_ints_and_no_fraction_is_built(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError(f"Fraction{args} built for a structure constant")

        monkeypatch.setattr(Fraction, "__new__", staticmethod(no_fraction))
        structure_constants.cache_clear()
        for P in _structure_constant_corpus(3, 3, 2):
            _, table = structure_constants(P)
            for k, c in table.values():
                assert type(c) is int, (P, k, c)

    def test_non_int_constant_raises_where_the_table_is_built(self, monkeypatch):
        # every reader of the table (commutator matrix, spectrum, the
        # isomorphism verifiers, exports) relies on this one check, made
        # once per Borel cell as the Borel row is built
        inner = algebra.decompose

        def as_fractions(mat, family):
            return tuple((e, Fraction(c)) for e, c in inner(mat, family))

        monkeypatch.setattr(algebra, "decompose", as_fractions)
        algebra._borel.cache_clear()
        structure_constants.cache_clear()
        with pytest.raises(InvariantViolation, match="non-integral"):
            structure_constants(build_poset("C", 2, [(-1, 2)]))

    def test_borel_cell_with_two_terms_raises(self, monkeypatch):
        # a bracket of positive roots is one root vector: a second term in
        # a Borel cell is a fault of the decomposition, not a table
        inner = algebra.decompose

        def doubled(mat, family):
            combo = inner(mat, family)
            return combo + combo

        monkeypatch.setattr(algebra, "decompose", doubled)
        algebra._borel.cache_clear()
        structure_constants.cache_clear()
        with pytest.raises(InvariantViolation, match="not one term"):
            structure_constants(build_poset("C", 2, [(-1, 2)]))

    def test_bracket_outside_the_basis_raises_not_in_span(self, monkeypatch):
        # the Borel table holds every element of the family; the span
        # check of P is the lookup of each term in P's basis
        inner = algebra._borel

        def with_foreign(family, n):
            basis, position, rows = inner(family, n)
            foreign = position[BasisElement("C", "Z", 2)]
            rows = tuple(tuple((J, foreign, c) for J, _, c in row) for row in rows)
            return basis, position, rows

        monkeypatch.setattr(algebra, "_borel", with_foreign)
        structure_constants.cache_clear()
        with pytest.raises(NotInSpan, match=r"Z\(2\), outside the basis"):
            structure_constants(build_poset("C", 2, [(-1, 2)]))

    def test_outputs_pinned(self):
        # the json and text renderings of every table, in enumeration order;
        # a change to any coefficient or its rendering moves this digest
        digest = hashlib.sha256()
        count = 0
        for P in _structure_constant_corpus(4, 4, 3):
            digest.update(json.dumps(structure_constants_json_obj(P), sort_keys=True).encode())
            digest.update(structure_constants_text(P).encode())
            count += 1
        assert count == 1215
        assert digest.hexdigest() == (
            "cd876c90389547a434f4db74f0b79f7f5af052c14c42e83e1b49c86f4f10cb8b"
        )

    def test_basis_built_once_per_cache_miss(self, monkeypatch):
        calls = []
        inner = algebra.build_basis
        P = build_poset("C", 4, [(-1, 2), (-2, 3), (-3, 4), (-4, 4)])
        algebra._borel(P.family, P.n)  # the Borel table builds its own basis

        def counted(P):
            calls.append(P)
            return inner(P)

        monkeypatch.setattr(algebra, "build_basis", counted)
        structure_constants.cache_clear()
        structure_constants(P)
        structure_constants(P)
        info = structure_constants.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert len(calls) == info.misses

    def test_cache_is_bounded(self):
        assert structure_constants.cache_info().maxsize is not None
        assert algebra._borel.cache_info().maxsize is not None

    def test_bracket_memo_is_shared_across_posets(self, monkeypatch):
        # the Borel table of (family, n) brackets each pair once; every
        # poset of that family and size slices it and brackets nothing
        counted = []
        true_commutator = algebra.commutator

        def counting(a, b):
            counted.append(b)
            return true_commutator(a, b)

        monkeypatch.setattr(algebra, "commutator", counting)
        algebra._borel.cache_clear()
        structure_constants.cache_clear()
        path = build_poset("C", 3, [(-1, 2), (-2, 3)])
        structure_constants(path)
        first = len(counted)
        assert first > 0
        structure_constants(build_poset("C", 3, [(-1, 2), (-2, 3), (-3, 3)]))
        structure_constants.cache_clear()
        structure_constants(path)
        assert len(counted) == first
        assert algebra._borel.cache_info().misses == 1
        structure_constants(build_poset("C", 2, [(-1, 2)]))
        assert len(counted) > first


def _all_pairs_table(P):
    """Reference table: every pair of basis elements is bracketed.

    A cell is one (k, c) pair when the bracket has one term, and the
    sorted tuple of all its pairs otherwise."""
    basis = build_basis(P)
    position = {b: k for k, b in enumerate(basis)}
    table = {}
    for i, j in itertools.combinations(range(len(basis)), 2):
        com = commutator(realize(basis[i]), realize(basis[j]))
        if com:
            combo = decompose_in(com, P)
            terms = tuple(sorted((position[b], c) for b, c in combo.items()))
            table[(i, j)] = terms[0] if len(terms) == 1 else terms
    return table


def _meeting_pairs(P):
    """Pairs i < j where a column of one realization is a row of the other."""
    supports = [realize(b) for b in build_basis(P)]
    return sum(
        1
        for a, b in itertools.combinations(supports, 2)
        if any(c == r2 or c2 == r for r, c in a for r2, c2 in b)
    )


class TestRowIndexedTable:
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_equals_all_pairs_reference(self, family):
        # random posets closed from up to 6 generators on n <= 4 points,
        # heights above (0, 1) included; same table, same key order.  B, C
        # and D realizations are antitranspose-symmetric, so there a column
        # of A meets a row of B exactly when a column of B meets a row of
        # A; only family A tells a one-sided index from the full one.
        # The Borel tables are emptied first, so every bracket the slices
        # read is a fresh commutator as well
        algebra._borel.cache_clear()
        structure_constants.cache_clear()
        heights = set()
        for P in seeded_general_posets(family, 11, count=40, n_max=4, max_gens=6):
            if family != "A":
                heights.add(height(P))
            _, table = structure_constants(P)
            assert list(table.items()) == list(_all_pairs_table(P).items()), P
        if family != "A":
            assert any(h > (0, 1) for h in heights), heights

    @pytest.mark.parametrize(
        "P",
        [build_poset("C", 4, []), build_poset("C", 3, general_generators("C", 3))],
        ids=["C4-antichain", "C3-full"],
    )
    def test_no_commutator_for_pairs_that_cannot_meet(self, monkeypatch, P):
        # the Borel table of (family, n) brackets each pair of its basis
        # that meets, once; the slice for P brackets nothing
        computed = []
        true_commutator = algebra.commutator

        def counting_commutator(a, b):
            computed.append(b)
            return true_commutator(a, b)

        monkeypatch.setattr(algebra, "commutator", counting_commutator)
        algebra._borel.cache_clear()
        structure_constants.cache_clear()
        structure_constants(P)
        borel = build_poset(P.family, P.n, general_generators(P.family, P.n))
        dim = len(build_basis(borel))
        assert len(computed) == _meeting_pairs(borel) < dim * (dim - 1) // 2
        structure_constants.cache_clear()
        structure_constants(P)
        assert len(computed) == _meeting_pairs(borel)


class TestBorelSlice:
    """structure_constants(P) is the Borel table of (P.family, P.n)
    restricted to the basis of P: the same basis and the same cells, in
    the same order, as bracketing the basis of P itself.  The basis, read
    off the leading positions, is the one built kind by kind."""

    @pytest.mark.parametrize("family, n_max", [("C", 4), ("D", 5), ("B", 4)])
    def test_every_mask_equals_the_bracket_reference(self, family, n_max):
        structure_constants.cache_clear()
        for n in range(1, n_max + 1):
            for P in enumerate_h01(family, n):
                basis, table = structure_constants(P)
                ref_basis, ref_table = table_by_brackets(P)
                assert basis == ref_basis == basis_by_kinds(P), P
                assert list(table.items()) == list(ref_table.items()), P

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_seeded_general_posets_equal_the_bracket_reference(self, family):
        # heights above (0, 1) included, and family A, whose Borel poset is
        # the chain 1 < ... < n
        structure_constants.cache_clear()
        for P in seeded_general_posets(family, 2600 + ord(family)):
            basis, table = structure_constants(P)
            ref_basis, ref_table = table_by_brackets(P)
            assert basis == ref_basis == basis_by_kinds(P), P
            assert list(table.items()) == list(ref_table.items()), P

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_borel_poset_slices_to_the_whole_table(self, family):
        # the Borel poset is a poset of its family, and its own slice is
        # the Borel table itself, one term per cell
        for n in range(2, 6):
            borel, _, rows = algebra._borel(family, n)
            P = build_poset(family, n, general_generators(family, n))
            basis, table = structure_constants(P)
            assert basis == borel
            assert table == {(I, J): (K, c) for I, row in enumerate(rows) for J, K, c in row}


# Dense references for the sparse products: matrices indexed by the signed
# labels, multiplied and added entry by entry in the test.
_LABELS = (-2, -1, 0, 1, 2)
_values = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
_sparse = st.dictionaries(
    st.tuples(st.sampled_from(_LABELS), st.sampled_from(_LABELS)), _values, max_size=8
).map(lambda mat: {key: v for key, v in mat.items() if v})


def _dense(mat, labels):
    return [[mat.get((r, c), 0) for c in labels] for r in labels]


def _nonzero_cells(rows, labels):
    return {
        (labels[i], labels[j]): v
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v
    }


@st.composite
def _commutator_pairs(draw):
    a = draw(_sparse)
    # a multiple of a commutes with a, so its bracket must cancel to nothing
    multiple = _values.map(lambda c: {k: c * v for k, v in a.items() if c})
    return a, draw(st.one_of(_sparse, multiple))


@settings(max_examples=300, deadline=None)
@given(_commutator_pairs())
@example(({(1, 1): 1}, {(2, 2): Fraction(1, 2)}))  # disjoint
@example(({(1, 2): 1, (0, 1): 3}, {(2, 0): 2}))  # overlapping
# b = 3a, so the two products cancel
@example(({(1, 2): 1, (2, 1): -2}, {(1, 2): 3, (2, 1): -6}))
def test_commutator_matches_dense_reference(pair):
    a, b = pair
    A, B = _dense(a, _LABELS), _dense(b, _LABELS)
    n = len(_LABELS)
    expected = [
        [sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    com = commutator(a, b)
    assert com == _nonzero_cells(expected, _LABELS)
    if all(type(v) is int for m in (a, b) for v in m.values()):
        assert all(type(v) is int for v in com.values())


_FULL_BASES = [
    build_basis(build_poset(family, n, general_generators(family, n)))
    for family, n in (("A", 3), ("B", 2), ("C", 2), ("D", 3))
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_realize_combination_matches_dense_sum(data):
    basis = data.draw(st.sampled_from(_FULL_BASES))
    terms = data.draw(st.dictionaries(st.sampled_from(basis), _values, max_size=6))
    labels = range(-3, 4)
    total = [[0] * len(labels) for _ in labels]
    for b, c in terms.items():
        for i, row in enumerate(_dense(realize(b), labels)):
            for j, v in enumerate(row):
                total[i][j] += c * v
    assert realize_combination(terms) == _nonzero_cells(total, labels)
