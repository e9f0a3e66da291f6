import hashlib
import json

import pytest

from lieposet import (
    InvariantViolation,
    UnsupportedPoset,
    build_poset,
    enumerate_h01,
    evaluate,
    poset_from_graph,
    reduce,
    rg_connected,
    structure_constants,
)
from lieposet import index_engine
from lieposet.formats import reduction_trace_json_obj
from lieposet.linalg import integer_rank
from corpora import reduction_graphs
from references import entry


def y_z_by_h_block(basis, table):
    """The lower-left block B of a height-(0,1) commutator matrix.

    Returns (row positions, column positions, entries): rows are the Y
    and Z basis elements, columns the H elements, both in basis order.
    """
    rows = [k for k, b in enumerate(basis) if b.kind in ("Y", "Z")]
    cols = [k for k, b in enumerate(basis) if b.kind == "H"]
    return rows, cols, [[entry(table, r, c) for c in cols] for r in rows]


class TestBBlock:
    def test_path_row_supports(self, path_poset):
        basis, table = structure_constants(path_poset)
        rows, cols, entries = y_z_by_h_block(basis, table)
        assert [repr(basis[k]) for k in rows] == ["Y(1,2)", "Y(2,3)"]
        assert [repr(basis[k]) for k in cols] == ["H(1)", "H(2)", "H(3)"]
        # row for the edge {i,j} holds -Y(i,j) in columns i and j
        supports = [
            {c for c, terms in enumerate(row) if terms} for row in entries
        ]
        assert supports == [{0, 1}, {1, 2}]
        assert dict(entries[0][0]) == {rows[0]: -1}

    def test_self_loop_block(self, sl2_like_poset):
        basis, table = structure_constants(sl2_like_poset)
        rows, _, entries = y_z_by_h_block(basis, table)
        assert [repr(basis[k]) for k in rows] == ["Z(1)"]
        assert dict(entries[0][0]) == {rows[0]: -2}

    def test_triangle_block_pattern(self, triangle_poset):
        rows, cols, entries = y_z_by_h_block(*structure_constants(triangle_poset))
        assert len(rows) == 3 and len(cols) == 3
        supports = [
            {c for c, terms in enumerate(row) if terms} for row in entries
        ]
        assert supports == [{0, 1}, {0, 2}, {1, 2}]

    def test_assembles_commutator_matrix(self, looped_path_poset):
        # the full matrix is ((0, -B^T), (B, 0)) in the canonical order
        basis, table = structure_constants(looped_path_poset)
        rows, cols, entries = y_z_by_h_block(basis, table)
        assert cols + rows == list(range(len(basis)))
        for r, row in zip(rows, entries):
            for c, terms in zip(cols, row):
                assert entry(table, c, r) == {k: -v for k, v in terms.items()}
        for block in (rows, cols):
            assert all(entry(table, i, j) == {} for i in block for j in block)


class TestReduce:
    def test_single_loop_halts_immediately(self, sl2_like_poset):
        trace = reduce(sl2_like_poset, seed=0)
        assert trace.steps == ()
        assert trace.final_rank == 1

    def test_path_uses_only_path_sweep(self, path_poset):
        trace = reduce(path_poset, seed=0)
        assert [s.kind for s in trace.steps] == ["PathSweep"]
        assert trace.final_rank == 2  # |V| - 1, no odd cycle

    def test_triangle_reaches_full_rank(self, triangle_poset):
        trace = reduce(triangle_poset, seed=0)
        kinds = [s.kind for s in trace.steps]
        assert kinds[0] == "OddCycleElim"
        assert all(k == "SelfLoopElim" for k in kinds[1:])
        assert trace.final_rank == 3
        # terminal graph is all loops, no edges
        last = trace.steps[-1]
        assert last.edges == () and last.loops == (1, 2, 3)

    def test_four_cycle_even_elimination(self, four_cycle_poset):
        trace = reduce(four_cycle_poset, seed=0)
        kinds = [s.kind for s in trace.steps]
        assert kinds[0] == "EvenCycleElim"
        assert kinds[-1] == "PathSweep"
        assert trace.final_rank == 3  # |V| - 1

    def test_looped_path(self, looped_path_poset):
        trace = reduce(looped_path_poset, seed=5)
        assert all(k == "SelfLoopElim" for k in (s.kind for s in trace.steps))
        assert trace.final_rank == 3

    def test_rank_constant_and_matches_initial_block(self):
        # the replay's first matrix is B of the commutator matrix at the
        # trace's edge and loop values, on every connected C<=4 poset, and
        # the rank every step carries is that of its first and last matrix
        posets = [
            P for n in (1, 2, 3, 4) for P in enumerate_h01("C", n) if rg_connected(P)
        ]
        assert len(posets) == 646
        for P, seed in ((P, seed) for seed in (0, 7) for P in posets):
            trace = reduce(P, seed=seed)
            last = (trace.steps or (trace.initial,))[-1]
            assert set(trace.ranks) == {
                integer_rank(trace.initial.matrix, P.n), integer_rank(last.matrix, P.n)
            }
            basis, table = structure_constants(P)
            edge_values = dict(trace.edge_values)
            loop_values = dict(trace.loop_values)
            point = {}
            for b in basis:
                if b.kind == "Y":
                    point[b] = edge_values[(min(b.i, b.j), max(b.i, b.j))]
                elif b.kind == "Z":
                    point[b] = loop_values[b.i]
                else:
                    point[b] = 1
            rows, cols, _ = y_z_by_h_block(basis, table)
            M = evaluate(table, [point[b] for b in basis])
            block = [[M[r][c] for c in cols] for r in rows]
            assert list(map(list, trace.initial.matrix)) == block

    def test_deterministic_given_seed(self, triangle_poset):
        t1 = reduce(triangle_poset, seed=13)
        t2 = reduce(triangle_poset, seed=13)
        assert t1 == t2
        t3 = reduce(triangle_poset, seed=14)
        assert t3.edge_values != t1.edge_values

    def test_preconditions(self):
        with pytest.raises(UnsupportedPoset):
            reduce(build_poset("D", 2, [(-1, 2)]))
        with pytest.raises(UnsupportedPoset):
            reduce(build_poset("C", 2, []))  # two components
        with pytest.raises(UnsupportedPoset):
            reduce(build_poset("C", 2, [(-2, -1)]))

    def test_dichotomy_exhaustive_n3(self):
        for n in (1, 2, 3):
            for P in enumerate_h01("C", n):
                if not rg_connected(P):
                    continue
                G = P.relation_graph
                trace = reduce(P, seed=2)
                last = (trace.steps or (trace.initial,))[-1]
                assert integer_rank(last.matrix, P.n) == trace.final_rank
                has_odd = any(c.has_odd_cycle for c in G.components)
                assert trace.final_rank == (G.n if has_odd else G.n - 1)

    def test_bowtie_two_odd_cycles(self):
        # two triangles sharing vertex 3: still index 0 checks out at n=5
        edges = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
        P = poset_from_graph("C", 5, edges)
        trace = reduce(P, seed=0)
        assert trace.final_rank == 5
        assert integer_rank(trace.steps[-1].matrix, P.n) == trace.final_rank


def complete_bipartite(a, b):
    """K_{a,b} as a type-C poset: vertices 1..a against a+1..a+b, no loops."""
    edges = [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)]
    return poset_from_graph("C", a + b, edges)


class TestReduceReplay:
    @pytest.mark.parametrize("a, b", [(3, 4), (4, 4), (6, 6)])
    def test_bipartite_zeroes_each_chord_then_sweeps(self, a, b):
        # K_{a,b} has ab edges and its spanning tree a + b - 1, so
        # (a-1)(b-1) chords are zeroed and the tree is swept once
        trace = reduce(complete_bipartite(a, b), seed=0)
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["EvenCycleElim"] * ((a - 1) * (b - 1)) + ["PathSweep"]
        assert trace.final_rank == a + b - 1
        last = trace.steps[-1]
        assert len(last.edges) == a + b - 1 and last.loops == ()

    def test_complete_graph_one_odd_step(self):
        # loop-free K12: the chord (2, 3) closes a triangle through vertex
        # 1 and becomes a loop, which then absorbs the other 65 edges
        edges = [(i, j) for i in range(1, 13) for j in range(i + 1, 13)]
        trace = reduce(poset_from_graph("C", 12, edges), seed=0)
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["OddCycleElim"] + ["SelfLoopElim"] * 65
        assert trace.steps[0].detail == (
            "odd cycle (2, 1, 3): edge (2, 3) became loop 3"
        )
        assert trace.final_rank == 12
        last = trace.steps[-1]
        assert last.edges == () and last.loops == tuple(range(1, 13))

    def test_sweep_leaves_each_tree_row_in_its_column_and_column_1(self):
        # on a bipartite graph the last snapshot holds, for each tree
        # vertex v with edge value L to its parent, the row -L*e_v +
        # (-1)^depth(v)*L*e_1, and a zero row for every chord
        posets = [
            P
            for n in (2, 3, 4, 5)
            for P in enumerate_h01("C", n)
            if rg_connected(P)
            and not any(c.has_odd_cycle for c in P.relation_graph.components)
        ]
        checked = 0
        for P, seed in ((P, seed) for seed in (0, 7) for P in posets):
            parent, depth, _ = P.relation_graph.forest
            trace = reduce(P, seed=seed)
            last = trace.steps[-1]
            assert last.kind == "PathSweep"
            labelled = list(zip(last.row_labels, last.matrix))
            rows = dict(labelled)
            for (i, j), value in trace.edge_values:
                if j == parent[i] or i == parent[j]:
                    v = i if depth[i] > depth[j] else j
                    expected = [0] * P.n
                    expected[v - 1] = -value
                    expected[0] += (-1) ** depth[v] * value
                    assert list(rows[f"Y({i},{j})"]) == expected, (P, seed, (i, j))
                checked += 1
            chord_rows = [row for label, row in labelled if label == "0"]
            assert len(chord_rows) == len(trace.edge_values) - (P.n - 1)
            assert not any(map(any, chord_rows)), (P, seed)
        assert checked == 1854

    def test_sweep_makes_one_row_operation_per_deep_tree_row(self, monkeypatch):
        # the path 1-2-...-8 has no chords, and each of its 6 vertices at
        # depth 2 or more has its parent column cleared once
        calls = []
        eliminate = index_engine._eliminate

        def counted(target, source, col, name):
            calls.append((name, col))
            return eliminate(target, source, col, name)

        monkeypatch.setattr(index_engine, "_eliminate", counted)
        path = poset_from_graph("C", 8, [(v, v + 1) for v in range(1, 8)])
        trace = reduce(path, seed=0)
        assert [s.kind for s in trace.steps] == ["PathSweep"]
        assert calls == [(f"Y({v - 1},{v})", v - 1) for v in range(3, 9)]

    def test_path_off_the_tree_raises(self, monkeypatch):
        # a path that skips a vertex steps between two vertices on the
        # same side of K3,4, where no edge row exists
        tree_path = index_engine._tree_path

        def skipping(parent, depth, u, w):
            path = tree_path(parent, depth, u, w)
            return path[:1] + path[2:]

        monkeypatch.setattr(index_engine, "_tree_path", skipping)
        with pytest.raises(InvariantViolation, match="missing row"):
            reduce(complete_bipartite(3, 4), seed=0)

    def test_rows_match_labels(self):
        # after every step a Z(v) row is exactly -2*L_v*e_v and a 0 row is
        # zero, whatever row operations led there; elementary row
        # operations keep the rank, so the rank check alone cannot see a
        # wrong factor.  Every value and entry of the replay is an int
        posets = [
            P for n in (1, 2, 3, 4) for P in enumerate_h01("C", n) if rg_connected(P)
        ]
        for P, seed in ((P, seed) for seed in (0, 7) for P in posets):
            trace = reduce(P, seed=seed)
            values = trace.edge_values + trace.loop_values
            assert all(type(x) is int for _, x in values), (P, seed)
            loop_values = dict(trace.loop_values)
            for step in (trace.initial,) + trace.steps:
                assert all(type(x) is int for row in step.matrix for x in row), (
                    P, seed, step.detail
                )
                for label, row in zip(step.row_labels, step.matrix):
                    if label == "0":
                        assert not any(row), (P, seed, step.detail)
                    elif label.startswith("Z("):
                        v = int(label[2:-1])
                        expected = [0] * P.n
                        expected[v - 1] = -2 * loop_values[v]
                        assert list(row) == expected, (P, seed, step.detail, label)

    def test_rank_drift_raises_without_reseed(self, monkeypatch, path_poset):
        # exact row operations keep the rank, so a drift is a fault in the
        # replay: the end check raises, and no other seed is tried
        calls = []
        true_rank = index_engine.integer_rank

        def drifting(rows, ncols):
            calls.append(ncols)
            return true_rank(rows, ncols) + (len(calls) == 2)

        monkeypatch.setattr(index_engine, "integer_rank", drifting)
        with pytest.raises(InvariantViolation, match="rank drifted"):
            reduce(path_poset, seed=0)
        assert len(calls) == 2

    def test_rank_taken_only_at_the_ends(self, monkeypatch):
        # K3,4 takes 8 snapshots (Init, 6 chords, the sweep) and 2 ranks;
        # every step carries the Init rank
        calls = []
        true_rank = index_engine.integer_rank

        def counted(rows, ncols):
            calls.append(ncols)
            return true_rank(rows, ncols)

        monkeypatch.setattr(index_engine, "integer_rank", counted)
        trace = reduce(complete_bipartite(3, 4), seed=0)
        assert len(trace.ranks) == 8
        assert calls == [7, 7]
        assert trace.ranks == (6,) * 8

    def test_zeroed_tree_row_fails_the_end_check(self, monkeypatch):
        # a sweep step that zeroes its tree row instead of clearing one
        # column is no row operation; only the end rank can see it
        eliminate = index_engine._eliminate

        def zeroing(target, source, col, name):
            row = eliminate(target, source, col, name)
            return (0,) * len(row) if name == "Y(2,4)" else row

        monkeypatch.setattr(index_engine, "_eliminate", zeroing)
        with pytest.raises(InvariantViolation, match="rank drifted from 6 to 5"):
            reduce(complete_bipartite(3, 4), seed=0)

    def test_wrong_relabelled_row_raises(self, monkeypatch, triangle_poset):
        # an extra entry left in the chord row after its odd-cycle clear:
        # the row is no multiple of e_3, and relabel refuses it
        eliminate = index_engine._eliminate

        def smudging(target, source, col, name):
            row = eliminate(target, source, col, name)
            return (row[0] + 1,) + row[1:] if name == "Y(2,3)" else row

        monkeypatch.setattr(index_engine, "_eliminate", smudging)
        with pytest.raises(InvariantViolation, match=r"Y\(2,3\) row .* is no Z\(3\) row"):
            reduce(triangle_poset, seed=0)

    def test_inexact_step_raises(self):
        # rows no replay builds: clearing column 1 of (1, 1, 0) against
        # (2, 0, 1) would subtract 1/2 in column 3
        target, source = (1, 1, 0), (2, 0, 1)
        with pytest.raises(InvariantViolation, match=r"inexact step in column 1 of Y\(1,2\)"):
            index_engine._eliminate(target, source, 1, "Y(1,2)")
        assert target == (1, 1, 0) and source == (2, 0, 1)

    def test_traces_pinned(self):
        # every connected C<=4 poset in enumeration order, then K3,3, K3,4
        # and K4,4: the replay takes the same tree, chords and steps
        posets = [
            P
            for n in (1, 2, 3, 4)
            for P in enumerate_h01("C", n)
            if rg_connected(P)
        ]
        posets += [complete_bipartite(a, b) for a, b in ((3, 3), (3, 4), (4, 4))]
        digest = hashlib.sha256()
        for P in posets:
            obj = reduction_trace_json_obj(reduce(P, seed=0))
            digest.update(json.dumps(obj, sort_keys=True).encode())
        assert len(posets) == 649
        assert digest.hexdigest() == (
            "b40824934fca04902ef2318e9609f393b0dbce72daae7307b29c7817924b5974"
        )

    def test_larger_traces_pinned(self):
        # seeded bipartite, odd-cycle and looped graphs with n = 8..12, two
        # of each kind and size, each replayed at its own seed
        posets = reduction_graphs(1) + reduction_graphs(2)
        digest = hashlib.sha256()
        for seed, P in enumerate(posets):
            obj = reduction_trace_json_obj(reduce(P, seed=seed))
            digest.update(json.dumps(obj, sort_keys=True).encode())
        assert len(posets) == 30
        assert digest.hexdigest() == (
            "c60f6c4dbda62ae91b7f6012aada9571eecec757994a2adf7cf12c8eaaa4df32"
        )

    def test_snapshots_share_unchanged_rows(self):
        # a row that a step leaves alone is the same tuple in the snapshot
        # before and after it, and a row that the step changes is not
        for seed, P in enumerate(reduction_graphs(1)):
            trace = reduce(P, seed=seed)
            snapshots = (trace.initial,) + trace.steps
            for before, after in zip(snapshots, snapshots[1:]):
                for old, new in zip(before.matrix, after.matrix):
                    assert (old is new) == (old == new), (P, after.detail)
