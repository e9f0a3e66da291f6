import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import reduction_graphs, seeded_general_posets
from lieposet import (
    AntisymmetryViolation,
    BadElement,
    Condition1Violation,
    Condition2Violation,
    Condition3Violation,
    HeightPair,
    PosetConstructionError,
    RelationGraph,
    SignedPoset,
    UnsupportedHeight,
    UnsupportedPoset,
    build_poset,
    covering_relations,
    enumerate_h01,
    ground_set,
    h01_slots,
    induced_subposet,
    is_separable,
    mask_of_poset,
    poset_from_graph,
    poset_from_mask,
    positive_part,
    validate,
)


def mirrored_negative_relations(P):
    """The relations among the negatives of P under (x, y) -> (-y, -x): the
    order dual of the negative part, relabelled onto the positives."""
    return frozenset((-y, -x) for (x, y) in P.relations if y < 0)


def mask_posets(family, n):
    edges, loops = h01_slots(family, n)
    return [(m, poset_from_mask(family, n, m)) for m in range(1 << (len(edges) + len(loops)))]


class TestBuild:
    def test_mirror_closure_of_path_poset(self, path_poset):
        rel_pm = sorted((x, y) for (x, y) in path_poset.relations if x < 0 < y)
        assert rel_pm == [(-3, 2), (-2, 1), (-2, 3), (-1, 2)]

    def test_antichain_has_only_reflexive_relations(self):
        P = build_poset("C", 1, [])
        assert P.relations == frozenset({(-1, -1), (1, 1)})

    def test_type_d_rejects_loop_cover(self):
        with pytest.raises(Condition3Violation):
            build_poset("D", 1, [(-1, 1)])
        with pytest.raises(Condition3Violation):
            build_poset("B", 1, [(-1, 1)])

    def test_type_c_accepts_loop(self):
        P = build_poset("C", 1, [(-1, 1)])
        assert (-1, 1) in P.relations

    def test_bad_elements(self):
        with pytest.raises(BadElement):
            build_poset("C", 2, [(0, 1)])  # no 0 in families C and D
        with pytest.raises(BadElement):
            build_poset("A", 2, [(-1, 2)])
        with pytest.raises(BadElement):
            build_poset("C", 2, [(-3, 1)])

    def test_condition1(self):
        with pytest.raises(Condition1Violation):
            build_poset("A", 2, [(2, 1)])
        with pytest.raises(Condition1Violation):
            build_poset("C", 2, [(1, -2)])

    def test_strict_mode(self):
        with pytest.raises(Condition2Violation):
            build_poset("C", 2, [(-2, 1)], strict=True)
        P = build_poset("C", 2, [(-2, 1), (-1, 2)], strict=True)
        assert (-1, 2) in P.relations

    def test_antisymmetry_guard_on_raw_relations(self):
        bad = frozenset({(1, 1), (2, 2), (1, 2), (2, 1)})
        with pytest.raises(AntisymmetryViolation):
            validate(SignedPoset("A", 2, bad))

    @pytest.mark.parametrize(
        "n,relations,error,message",
        [
            (1, [(-1, -1), (1, 1), (2, 2)], BadElement, "outside the ground set"),
            (1, [(-1, -1)], PosetConstructionError, "missing reflexive pair"),
            (1, [(-1, -1), (1, 1), (1, -1)], Condition1Violation, "has 1 > -1"),
            (2, [(-2, -2), (-1, -1), (1, 1), (2, 2), (-2, -1), (-1, 1)],
             PosetConstructionError, "not transitively closed"),
            (2, [(-2, -2), (-1, -1), (1, 1), (2, 2), (-2, -1)],
             Condition2Violation, "without"),
        ],
        ids=["bad-element", "reflexive", "condition1", "transitive", "condition2"],
    )
    def test_validate_rejects_raw_relations(self, n, relations, error, message):
        # build_poset closes and checks its input first, so these raises of
        # validate are reached only through a hand-built SignedPoset
        with pytest.raises(error, match=message):
            validate(SignedPoset("C", n, frozenset(relations)))

    def test_validate_accepts_every_closure(self):
        # build_poset does not validate the closure it builds, since the
        # closure holds every axiom by construction; validate agrees
        for family, n_max in (("C", 4), ("D", 5), ("B", 4)):
            for n in range(1, n_max + 1):
                for P in enumerate_h01(family, n):
                    validate(P)
        for family in "ABCD":
            for P in seeded_general_posets(family, 2600 + ord(family)):
                validate(P)

    def test_non_cover_loop_is_legal_in_type_d(self):
        # -2 <= 1 and 1 <= 2 compose to -2 <= 2 through 1, not a cover
        P = build_poset("D", 2, [(-2, 1), (1, 2)])
        assert (-2, 2) in P.relations

    def test_ground_sets(self):
        assert ground_set("A", 3) == (1, 2, 3)
        assert ground_set("B", 2) == (-2, -1, 0, 1, 2)
        assert ground_set("D", 2) == (-2, -1, 1, 2)

    def test_transitive_closure_through_zero(self):
        P = build_poset("B", 1, [(-1, 0)])
        # mirror gives 0 <= 1, composition gives -1 <= 1
        assert (0, 1) in P.relations and (-1, 1) in P.relations


class TestHeight:
    def test_path_poset(self, path_poset):
        assert path_poset.height_pair == (0, 1)

    def test_antichain(self):
        assert build_poset("C", 1, []).height_pair == (0, 0)

    def test_negative_chain(self):
        P = build_poset("C", 2, [(-2, -1)])
        assert P.height_pair == HeightPair(1, 1)

    def test_zero_contributes_to_total_height(self):
        P = build_poset("B", 1, [(-1, 0)])
        assert P.height_pair == (0, 2)  # chain -1 <= 0 <= 1

    @pytest.mark.parametrize("relation", [(1, -1), (2, 1), (-1, -2)])
    def test_relation_against_the_integer_order_raises(self, relation):
        # the height pass runs from the top of the ground set, so a
        # hand-built relation x > y is named, not read as a missing chain
        reflexive = {(x, x) for x in ground_set("C", 2)}
        P = SignedPoset("C", 2, frozenset(reflexive | {relation}))
        x, y = relation
        with pytest.raises(Condition1Violation, match=f"has {x} > {y}"):
            P.height_pair


class TestSeparable:
    def test_examples(self, path_poset):
        assert not is_separable(path_poset)
        assert is_separable(build_poset("C", 1, []))
        assert is_separable(build_poset("C", 2, [(-2, -1)]))

    def test_zero_relations_do_not_count(self):
        # only negative-to-positive pairs make a poset non-separable, but
        # any relation through 0 forces -i <= i, which does count
        P = build_poset("B", 1, [(-1, 0)])
        assert not is_separable(P)


class TestRelationGraph:
    def test_looped_path(self, looped_path_poset):
        G = looped_path_poset.relation_graph
        assert sorted(G.edges) == [(1, 2), (2, 3)]
        assert sorted(G.loops) == [2]

    def test_path(self, path_poset):
        G = path_poset.relation_graph
        assert sorted(G.edges) == [(1, 2), (2, 3)]
        assert sorted(G.loops) == []

    def test_antichain_graph(self):
        G = build_poset("C", 2, []).relation_graph
        assert sorted(G.edges) == [] and G.n == 2

    def test_unsupported_height(self):
        P = build_poset("C", 2, [(-2, -1)])
        for _ in range(2):  # a cached graph must never stand in for the error
            with pytest.raises(UnsupportedHeight):
                P.relation_graph
        with pytest.raises(UnsupportedHeight):
            build_poset("B", 1, [(-1, 0)]).relation_graph

    def test_derived_objects_cached_on_the_poset(self, path_poset):
        G = path_poset.relation_graph
        assert path_poset.relation_graph is G
        assert G.components is G.components
        assert path_poset.height_pair is path_poset.height_pair
        # the caches are not fields: equality and hashing ignore them
        fresh = SignedPoset(path_poset.family, path_poset.n, path_poset.relations)
        assert fresh == path_poset and hash(fresh) == hash(path_poset)


class TestComponents:
    def test_looped_path(self, looped_path_poset):
        (comp,) = looped_path_poset.relation_graph.components
        assert comp.vertices == (1, 2, 3)
        assert comp.edge_count == 3
        assert comp.has_odd_cycle and comp.is_unicyclic

    def test_path_is_bipartite_tree(self, path_poset):
        (comp,) = path_poset.relation_graph.components
        assert comp.edge_count == 2
        assert not comp.has_odd_cycle and not comp.is_unicyclic

    def test_triangle(self, triangle_poset):
        (comp,) = triangle_poset.relation_graph.components
        assert comp.has_odd_cycle and comp.is_unicyclic

    def test_even_cycle_has_no_odd_cycle(self, four_cycle_poset):
        (comp,) = four_cycle_poset.relation_graph.components
        assert not comp.has_odd_cycle and comp.is_unicyclic

    def test_forest_roots_each_component_at_its_least_vertex(self):
        # an edge {1,4} and a triangle 2-3-5
        G = RelationGraph(5, frozenset({(1, 4), (2, 3), (2, 5), (3, 5)}), frozenset())
        assert G.forest is G.forest
        parent, depth, root = G.forest
        assert parent == {1: None, 4: 1, 2: None, 3: 2, 5: 2}
        assert depth == {1: 0, 4: 1, 2: 0, 3: 1, 5: 1}
        assert root == {1: 1, 4: 1, 2: 2, 3: 2, 5: 2}
        edge, triangle = G.components
        assert (edge.vertices, edge.edge_count, edge.has_odd_cycle) == ((1, 4), 1, False)
        assert (triangle.vertices, triangle.edge_count) == ((2, 3, 5), 3)
        assert triangle.has_odd_cycle and triangle.is_unicyclic

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                .filter(lambda e: e[0] < e[1]), max_size=12),
        st.sets(st.integers(1, n), max_size=2),
    )))
    def test_odd_cycle_iff_no_two_colouring(self, graph):
        n, edges, loops = graph
        G = RelationGraph(n, frozenset(edges), frozenset(loops))
        for comp in G.components:
            verts = comp.vertices
            inner = [(i, j) for i, j in edges if i in verts]
            two_colourable = any(
                all((mask >> verts.index(i) & 1) != (mask >> verts.index(j) & 1) for i, j in inner)
                for mask in range(1 << len(verts))
            )
            looped = any(v in loops for v in verts)
            assert comp.has_odd_cycle == (looped or not two_colourable)
            assert comp.edge_count == len(inner) + sum(v in loops for v in verts)
        assert sorted(v for c in G.components for v in c.vertices) == list(range(1, n + 1))


class TestEnumeration:
    @pytest.mark.parametrize(
        "family,n,count",
        [("C", 1, 2), ("C", 2, 8), ("C", 3, 64), ("D", 2, 2), ("D", 3, 8), ("B", 2, 2)],
    )
    def test_counts(self, family, n, count):
        posets = list(enumerate_h01(family, n))
        assert len(posets) == count
        for P in posets:
            hp = P.height_pair
            assert hp.plus_height == 0 and hp.total_height <= 1

    def test_heights_and_zero_isolated_in_b(self):
        for P in enumerate_h01("B", 2):
            assert all((x == 0) == (y == 0) for (x, y) in P.relations)

    def test_mask_round_trip(self):
        for mask, P in mask_posets("C", 3):
            assert mask_of_poset(P) == mask

    def test_up_to_iso_is_a_subset(self):
        everything = {p.relations for p in enumerate_h01("C", 3)}
        reps = list(enumerate_h01("C", 3, up_to_iso=True))
        assert {p.relations for p in reps} <= everything
        assert len(reps) < len(everything)
        # the 64 labelled graphs with loops on 3 vertices fall into 20 classes
        assert len(reps) == 20

    @pytest.mark.parametrize(
        "family,counts",
        [("C", (2, 6, 20, 90, 544)),  # OEIS A000666, graphs with loops
         ("D", (1, 2, 4, 11, 34, 156)),  # OEIS A000088, simple graphs
         ("B", (1, 2, 4, 11, 34, 156))],
    )
    def test_up_to_iso_class_counts(self, family, counts):
        found = tuple(
            sum(1 for _ in enumerate_h01(family, n, up_to_iso=True))
            for n in range(1, len(counts) + 1)
        )
        assert found == counts

    @pytest.mark.parametrize(
        "family,n", [("C", n) for n in range(1, 5)] + [("D", n) for n in range(1, 6)]
    )
    def test_up_to_iso_yields_each_orbit_minimum(self, family, n):
        # reference: close each mask's orbit under every relabelling of
        # 1..n and keep its least element, which is the first of its class
        edges, loops = h01_slots(family, n)
        slots = edges + loops
        minima = set()
        for mask in range(1 << len(slots)):
            present = [s for b, s in enumerate(slots) if mask >> b & 1]
            orbit = []
            for perm in itertools.permutations(range(1, n + 1)):
                image = 0
                for s in present:
                    moved = (
                        tuple(sorted((perm[s[0] - 1], perm[s[1] - 1])))
                        if isinstance(s, tuple)
                        else perm[s - 1]
                    )
                    image |= 1 << slots.index(moved)
                orbit.append(image)
            minima.add(min(orbit))
        reps = [mask_of_poset(P) for P in enumerate_h01(family, n, up_to_iso=True)]
        assert reps == sorted(minima)

    def test_up_to_iso_c5_representatives_pinned(self):
        masks = [mask_of_poset(P) for P in enumerate_h01("C", 5, up_to_iso=True)]
        digest = hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()
        assert digest == (
            "650041e33ad150c8fc5cc333612fcd8c024fd1d7da529951af2c7f100f458d04"
        )


class TestSmallOps:
    def test_covering_relations(self, path_poset):
        assert covering_relations(path_poset) == (
            (-3, 2),
            (-2, 1),
            (-2, 3),
            (-1, 2),
        )

    def test_positive_and_negative_parts(self):
        P = build_poset("C", 2, [(-2, -1)])  # mirrors to 1 <= 2
        plus = positive_part(P)
        assert plus.family == "A" and (1, 2) in plus.relations
        # the negatives are not mirror symmetric, so they induce family A
        minus = induced_subposet(P, [x for x in P.elements if x < 0])
        assert minus.family == "A"
        assert (1, 2) in minus.relations  # -2 <= -1 relabels to 1 <= 2

    def test_plus_part_is_dual_of_minus_part(self):
        for P in enumerate_h01("C", 3):
            assert positive_part(P).relations == mirrored_negative_relations(P)
        P = build_poset("C", 3, [(-3, -2), (-2, -1), (-3, 1)])
        assert positive_part(P).relations == mirrored_negative_relations(P)

    def test_induced_subposet_relabels(self):
        P = build_poset("C", 3, [(-3, 1)])
        Q = induced_subposet(P, {-3, -1, 1, 3})
        assert Q.family == "C" and Q.n == 2
        assert (-2, 1) in Q.relations  # -3 becomes -2, 1 stays 1

    def test_induced_b_with_zero_stays_b(self):
        P = build_poset("B", 3, [(-3, 0), (-1, 2)])
        Q = induced_subposet(P, [-3, 0, 3])
        assert Q.family == "B" and Q.n == 1
        assert (-1, 0) in Q.relations and (0, 1) in Q.relations

    def test_induced_b_without_zero_is_d(self):
        P = build_poset("B", 2, [(-1, 2)])
        Q = induced_subposet(P, [-2, -1, 1, 2])
        assert Q.family == "D" and (-1, 2) in Q.relations


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_poset("E", 2, []), ValueError, "unknown family 'E'"),
        (lambda: build_poset("C", 0, []), ValueError, "n must be >= 1"),
        (lambda: build_poset("C", 129, []), ValueError, "n must be <= 128, got 129"),
        (lambda: is_separable(build_poset("A", 2, [(1, 2)])), ValueError,
         "separability applies to families B, C, D"),
        (lambda: next(enumerate_h01("A", 2)), ValueError,
         "enumeration applies to families B, C, D"),
        (lambda: next(enumerate_h01("C", 0)), ValueError, "n must be >= 1"),
        (lambda: next(enumerate_h01("D", 129)), ValueError, "n must be <= 128, got 129"),
        (lambda: induced_subposet(build_poset("C", 2, []), [-1, 1, 3]), BadElement,
         "subset not contained in the ground set"),
        (lambda: induced_subposet(build_poset("B", 2, []), [0]), BadElement,
         "signed subposet needs at least one mirror pair"),
        (lambda: build_poset("C", True, []), ValueError, "n must be an integer, got True"),
        (lambda: poset_from_graph("C", 2.0, [(1, 2)]), ValueError,
         "n must be an integer, got 2.0"),
        (lambda: next(enumerate_h01("C", 1.0)), ValueError, "n must be an integer, got 1.0"),
    ],
    ids=["build-unknown-family", "build-n-zero", "build-n-above-bound", "separable-family-A",
         "enumerate-family-A", "enumerate-n-zero", "enumerate-n-above-bound",
         "induced-outside-ground-set", "induced-B-zero-alone", "build-n-bool",
         "graph-n-float", "enumerate-n-float"],
)
def test_input_checks_raise(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestGraphBijection:
    def test_round_trip_from_graph(self):
        edges = [(1, 2), (2, 3)]
        loops = [2]
        P = poset_from_graph("C", 3, edges, loops)
        G = P.relation_graph
        assert set(G.edges) == set(edges) and set(G.loops) == set(loops)

    def test_family_a_has_no_relation_graph(self):
        # a failed precondition, not an input error: UnsupportedPoset on
        # every access, for the graph and for the height pair behind it
        P = build_poset("A", 3, [(1, 2)])
        for _ in range(2):
            with pytest.raises(UnsupportedPoset, match="relation graphs"):
                P.relation_graph
            with pytest.raises(UnsupportedPoset, match="height pairs"):
                P.height_pair

    def test_round_trip_from_poset(self, path_poset):
        G = path_poset.relation_graph
        Q = poset_from_graph("C", 3, G.edges, G.loops)
        assert Q.relations == path_poset.relations

    def test_loops_rejected_outside_c(self):
        with pytest.raises(ValueError):
            poset_from_graph("D", 2, [], [1])


@pytest.mark.parametrize(
    "family, n, edges, loops, error, message",
    [
        ("B", 3, [(0, 2)], (), BadElement, r"edge \(0,2\) is not two distinct vertices of 1..3"),
        ("C", 3, [(2, 2)], (), BadElement, r"edge \(2,2\) is not two distinct vertices of 1..3"),
        ("D", 3, [(2, 2)], (), BadElement, r"edge \(2,2\) is not two distinct vertices of 1..3"),
        ("C", 3, [(1, 4)], (), BadElement, r"edge \(1,4\) is not two distinct vertices of 1..3"),
        ("D", 3, [(-1, 2)], (), BadElement, r"edge \(-1,2\) is not two distinct vertices of 1..3"),
        ("C", 3, [], [4], BadElement, r"loop 4 is not a vertex of 1..3"),
        ("C", 3, [], [0], BadElement, r"loop 0 is not a vertex of 1..3"),
        ("D", 3, [(1, 2)], [1], ValueError, "self loops occur only in family C"),
        ("B", 3, [], [1], ValueError, "self loops occur only in family C"),
        ("E", 3, [(1, 2)], (), ValueError, "unknown family 'E'"),
        ("C", 0, [], (), ValueError, "n must be >= 1"),
        ("C", 200, [(1, 2)], (), ValueError, "n must be <= 128, got 200"),
        ("A", 3, [(1, 2)], (), ValueError, "relation graphs apply to families B, C, D"),
        ("A", 3, [], (), ValueError, "relation graphs apply to families B, C, D"),
        ("X", 3, [], [1], ValueError, "unknown family 'X'"),
        ("A", 3, [], [1], ValueError, "relation graphs apply to families B, C, D"),
        ("D", 0, [], [1], ValueError, "n must be >= 1"),
    ],
    ids=["B-vertex-zero", "C-edge-i-i", "D-edge-i-i", "edge-above-n", "edge-negative",
         "loop-above-n", "loop-zero", "loop-in-D", "loop-in-B", "unknown-family",
         "n-zero", "n-above-bound", "family-A", "family-A-no-edges",
         "unknown-family-with-loop", "family-A-with-loop", "n-zero-with-loop"],
)
def test_poset_from_graph_input_domain(family, n, edges, loops, error, message):
    # an edge needs two distinct vertices of 1..n and a loop one vertex:
    # (i, i) is not a loop, and 0 is no vertex, even in family B.  The
    # family is checked first and n next, with build_poset's bound, so a
    # loop is judged only on a family and n that exist
    with pytest.raises(error, match=f"^{message}$"):
        poset_from_graph(family, n, edges, loops)


def test_poset_from_graph_normalizes_reversed_and_repeated_edges():
    P = poset_from_graph("D", 4, [(3, 1), (1, 3), (4, 2), (2, 4), (4, 2)])
    assert P == poset_from_graph("D", 4, [(1, 3), (2, 4)])
    assert P.relation_graph.edges == {(1, 3), (2, 4)}


def _read_graph(P):
    """(edges, loops) of a class poset, read off its relations."""
    edges = sorted((-x, y) for x, y in P.relations if x < 0 < y and -x < y)
    loops = sorted(y for x, y in P.relations if x < 0 and x == -y)
    return edges, loops


def _mask_cases():
    """(family, n, mask, edges, loops) of every mask of C<=4, D<=5 and B<=4,
    the edges and loops read bit by bit off the slots of h01_slots."""
    for family, n_max in (("C", 4), ("D", 5), ("B", 4)):
        for n in range(1, n_max + 1):
            edges_all, loops_all = h01_slots(family, n)
            base = len(edges_all)
            for mask in range(1 << (base + len(loops_all))):
                edges = [e for b, e in enumerate(edges_all) if mask >> b & 1]
                loops = [v for b, v in enumerate(loops_all) if mask >> (base + b) & 1]
                yield family, n, mask, edges, loops


def _fast_path_cases():
    """(family, n, edges, loops) of every labelled graph of C<=4, D<=5 and
    B<=4, and of the seeded reduction graphs of the corpora."""
    for family, n, _, edges, loops in _mask_cases():
        yield family, n, edges, loops
    for P in reduction_graphs(1) + reduction_graphs(2):
        yield ("C", P.n, *_read_graph(P))


def test_poset_from_mask_decodes_each_bit_to_its_slot():
    # the slots are computed once per (family, n); every mask still gives
    # the poset of the graph its bits name, and round-trips
    count = 0
    for family, n, mask, edges, loops in _mask_cases():
        P = poset_from_mask(family, n, mask)
        assert P == poset_from_graph(family, n, edges, loops)
        G = P.relation_graph
        assert G.edges == frozenset(edges) and G.loops == frozenset(loops)
        assert mask_of_poset(P) == mask
        count += 1
    assert count == 1098 + 1099 + 75  # C<=4, D<=5, B<=4
    # bits above the slots name nothing
    assert poset_from_mask("C", 2, 5 | 1 << 3) == poset_from_mask("C", 2, 5)


def test_poset_from_graph_equals_the_closure_of_its_generators():
    # the fast path builds the relations with no closure and attaches the
    # height pair and the graph; a freshly closed poset derives both from
    # its relations through _heights and the extraction
    count = 0
    for family, n, edges, loops in _fast_path_cases():
        fresh = build_poset(family, n, [(-i, j) for i, j in edges] + [(-v, v) for v in loops])
        assert "height_pair" not in vars(fresh) and "relation_graph" not in vars(fresh)
        messy = [(j, i) for i, j in edges] + edges  # reversed, and each twice
        for P in (poset_from_graph(family, n, edges, loops),
                  poset_from_graph(family, n, messy, loops)):
            validate(P)
            assert P == fresh and hash(P) == hash(fresh)
            assert P.relations == fresh.relations
            assert vars(P)["height_pair"] == fresh.height_pair
            assert vars(P)["relation_graph"] == fresh.relation_graph
        count += 1
    # 2^1+2^3+2^6+2^10 (C) + 2^0+2^1+2^3+2^6+2^10 (D) + 2^0+2^1+2^3+2^6 (B)
    # + 2 seeds x 5 sizes x 3 kinds
    assert count == 1098 + 1099 + 75 + 30


# -- property tests ---------------------------------------------------------

c_masks = st.tuples(st.integers(1, 3), st.integers(0, 63))


@settings(max_examples=120, deadline=None)
@given(c_masks)
def test_closure_idempotence(params):
    n, mask = params
    edges, loops = h01_slots("C", n)
    mask %= 1 << (len(edges) + len(loops))
    P = poset_from_mask("C", n, mask)
    again = build_poset("C", n, sorted(P.relations))
    assert again.relations == P.relations


@settings(max_examples=120, deadline=None)
@given(c_masks)
def test_mirror_symmetry(params):
    n, mask = params
    edges, loops = h01_slots("C", n)
    mask %= 1 << (len(edges) + len(loops))
    P = poset_from_mask("C", n, mask)
    for x, y in P.relations:
        if x != -y:
            assert (-y, -x) in P.relations


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_general_c_poset_closure_idempotence(n, data):
    # arbitrary generator sets, not just height-(0,1) graphs
    candidates = [
        (x, y)
        for x in ground_set("C", n)
        for y in ground_set("C", n)
        if x < y
    ]
    gens = data.draw(st.lists(st.sampled_from(candidates), max_size=6))
    P = build_poset("C", n, gens)
    validate(P)
    assert build_poset("C", n, sorted(P.relations)).relations == P.relations
    assert positive_part(P).relations == mirrored_negative_relations(P)


@settings(max_examples=60, deadline=None)
@given(c_masks)
def test_h01_closure_adds_no_compositions(params):
    n, mask = params
    edges, loops = h01_slots("C", n)
    mask %= 1 << (len(edges) + len(loops))
    P = poset_from_mask("C", n, mask)
    G = P.relation_graph
    expected = {(x, x) for x in P.elements}
    for i, j in G.edges:
        expected |= {(-i, j), (-j, i)}
    for v in G.loops:
        expected.add((-v, v))
    assert P.relations == frozenset(expected)
