"""Index computation: generic rank, formulas and the graph-guided reduction.

The index of the algebra equals its dimension minus the rank of the
commutator matrix over the fraction field of its symmetric algebra.  The
oracle takes the maximum rank over seeded random integer evaluations.  A
rank at a point never exceeds the generic rank, so the oracle index can
only overstate the true index.  The generic rank in turn never exceeds
the term rank of the pattern of nonzero cells, the most nonzero cells no
two in one row or column (Frobenius-Koenig), rounded down to even; Kuhn's
augmenting paths (1955) find it.  The oracle stops at the first trial
that reaches this ceiling: that rank is the generic rank, proved, and the
trials it skips could not have raised the maximum.  Only where every
trial stays below the ceiling is the result sampled: entries are
linear forms, so a nonvanishing minor of full generic rank has degree
<= dim; each trial draws from the 2000 nonzero integers in [-1000, 1000],
so by Schwartz (1980) the oracle index overstates after t trials with
probability <= (dim/2000)^t.

Nothing is sampled where the matrix scales diagonally: every cell joins
one of the leading H elements to a non-H element, and its one (k, c)
pair has k on the non-H end.  Then C(x) = S*C0*S with C0 the matrix at
the all-ones point and S diagonal and invertible over Q(x), and C0 =
[[0, B0], [-B0^T, 0]], so the generic rank is 2 * rank B0, proved, and
it is what every trial would find; B0 is the H-by-rest block, h x (dim -
h), and its doubled rank is even by construction (see `generic_rank`).
The ceiling there is twice the largest matching in the pattern of B0
alone.  Every poset of the paper's class takes this path: all 1,228
ranks a campaign takes on the plan C:4,D:4,B:3 and all 35,730 on
C:5,D:5,B:4, and the campaign fails a check on any rank that samples.
There B0 reads as the unsigned incidence matrix of the relation graph, a
loop counting 2, whose rank is n minus the number of loop-free bipartite
components (Grossman, Kulkarni and Schochetman 1995): that is the (0,1)
index formula.

Elsewhere the commutator matrix is the structure-constant table of
`algebra.structure_constants`, read skew, evaluated in ints at the drawn
points by `algebra.evaluate` and ranked by `linalg.integer_rank`.  The
Frobenius path reads the same shape test, `algebra._h_block`, and
solves the Kirillov form on the block where it exists and through
`evaluate` elsewhere.

For the height-(0,1) signed posets the rank is also predicted by the
relation graph, and `reduce` replays the graph-guided row reduction that
proves the prediction, in Python ints.  The replay follows the BFS
spanning tree of the graph: a chord whose ends have depths of the same
parity closes the odd cycle the proof needs, and otherwise the chords
are the closing edges whose removal leaves the tree to sweep, one row
operation per tree row, shallowest first.  Its one
row operation reads its factor off the two rows and divides exactly or
raises, and a row that takes a new label is checked against it.  So no
step can change the rank, which is known at the start and taken with
`integer_rank` after the last step: a different end rank raises too.
`reduce` takes the start rank on the instantiated block; the campaign
passes the rank its oracle proved on the H block, since the block is
-B0^T scaled by the point's nonzero values.  Each of these faults raises
InvariantViolation; none is retried, since exact row operations keep the
rank at any point.  `_replay` is the one body of the replay: it returns
the final rank and the step count, and builds a snapshot per step only
for `reduce`.  The point is drawn once per (seed, count), in a bounded
cache that goes when the replay loses its seed.  The rows are addressed by index, the live graph is two maps from
its edges and its loops to their rows, a snapshot shares every row tuple
its step left alone, and `integer_rank` eliminates the shorter side of
the block.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from . import ORACLE_TRIALS
from .errors import InvariantViolation, UnsupportedPoset
from .linalg import integer_rank
from .posets import is_separable, positive_part, rg_connected
from .algebra import _h_block, build_basis, evaluate, structure_constants


def _nonzero_ints(rng, count):
    """The next `count` values of rng.randint(-1000, 1000) that are not 0.

    randint draws getrandbits(11) until it is below 2001 and returns it
    minus 1000, so drawing the bits here and also rejecting 1000 (the
    draw for 0) reads the same stream, returns the same values and leaves
    rng in the same state.
    """
    getrandbits = rng.getrandbits
    values = []
    while len(values) < count:
        r = getrandbits(11)
        if r < 2001 and r != 1000:
            values.append(r - 1000)
    return values


# a campaign replays at seed 0: on 8 counts on C:4, and on 13 on C:5
@lru_cache(maxsize=64)
def _point(seed, count):
    """The first `count` values `_nonzero_ints` draws from
    random.Random(seed), as a tuple: the replay's point, drawn once per
    (seed, count)."""
    return tuple(_nonzero_ints(random.Random(seed), count))


def _matching(adjacency, ncols):
    """Maximum matching of rows to columns: adjacency[i] lists the
    columns of row i, all below ncols.

    Kuhn's augmenting paths (1955): a row with a free column takes it;
    otherwise a depth-first search runs on an explicit stack of (row,
    untried columns, column the row was reached through).  When the top
    row reaches a free column it takes it, and each row below takes the
    column the row above it was reached through.
    """
    owner = [-1] * ncols
    seen = [-1] * ncols  # the last root whose search reached each column
    size = 0
    for root, cols in enumerate(adjacency):
        for col in cols:
            if owner[col] < 0:
                owner[col] = root
                size += 1
                break
        else:
            stack = [(root, iter(cols), None)]
            while stack:
                for col in stack[-1][1]:
                    if seen[col] != root:
                        break
                else:
                    stack.pop()
                    continue
                seen[col] = root
                if owner[col] < 0:
                    for row, _, reached in reversed(stack):
                        owner[col], col = row, reached
                    size += 1
                    break
                stack.append((owner[col], iter(adjacency[owner[col]]), col))
    return size


def _term_rank(n, pairs):
    """Term rank of the n x n pattern with cells (i, j) and (j, i) per pair
    (the keys of a structure-constant table).

    That is the most cells no two of which share a row or a column: a
    maximum matching of rows to columns.
    """
    cols = [[] for _ in range(n)]
    for i, j in pairs:
        cols[i].append(j)
        cols[j].append(i)
    return _matching(cols, n)


def generic_rank(C, trials=ORACLE_TRIALS, seed=0):
    """(rank, sampled): the max rank over seeded evaluations at nonzero
    integers in [-1000, 1000], and whether trial points were drawn; none
    are where C scales diagonally, so the rank depends on C alone.

    C is the (basis, table) pair of `structure_constants`, and the
    commutator matrix C(x) is the table evaluated at x.  Each trial draws
    one value per basis element, in basis order.  An evaluated skew
    matrix has even rank, so an odd rank raises InvariantViolation.

    When C scales diagonally (`_h_block`), nothing is drawn.  Let C0 be
    C at the all-ones point and S = diag(1 on H, x_k on every other
    element k).  A cell joining h in H to k, with term c*x_k, puts c*x_k
    at (h, k) and -c*x_k at (k, h); (S*C0*S) has S_hh * c * S_kk = c*x_k
    and -c*x_k there, and both are zero everywhere else.  So C(x) =
    S*C0*S with S invertible over Q(x), and the generic rank is rank C0.
    Every trial point has nonzero coordinates, so every trial would have
    rank C0 as well: the result is the one the trials give.  The H
    elements lead, so C0 = [[0, B0], [-B0^T, 0]] with B0 the h x (dim -
    h) block of the cells' coefficients, and rank C0 = 2 * rank B0: the
    rank is taken on B0 alone, and it is even by construction.

    The loop stops at the first trial whose rank reaches the ceiling: the
    term rank of the pattern of nonzero cells, rounded down to even.  A
    nonzero r x r minor has a nonzero term in its Leibniz expansion, r
    nonzero cells in distinct rows and columns, so the generic rank is at
    most the term rank, and even.  Every trial's rank is at most the
    generic rank, so a trial at the ceiling has found the generic rank,
    proved, and the later trials could not raise the maximum: the result
    equals that of all `trials` evaluations.  A rank above the ceiling
    raises InvariantViolation, on either path.  On the block path the
    pattern is [[0, B0], [-B0^T, 0]], whose term rank is twice the term
    rank of B0 (the two off-diagonal blocks match independently), so the
    ceiling is 2 * nu(B0), a matching on the h x (dim - h) pattern of B0.

    trials and seed must be ints, bools excluded, on either path.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    basis, table = C
    dim = len(basis)
    block = _h_block(basis, table)
    if block is not None:
        h = len(block)
        # the table's cells are B0's nonzero entries, each (i, j) with
        # i < h <= j, in ascending i and then j
        pattern = [[] for _ in range(h)]
        for i, j in table:
            pattern[i].append(j - h)
        ceiling = 2 * _matching(pattern, dim - h)
        ranks = [2 * integer_rank(block, dim - h)]
    else:
        ceiling = _term_rank(dim, table) // 2 * 2
        rng = random.Random(seed)
        ranks = (
            integer_rank(evaluate(table, _nonzero_ints(rng, dim)), dim)
            for _ in range(trials)
        )
    best = 0
    for rank in ranks:
        if rank % 2:
            raise InvariantViolation(f"evaluated skew matrix has odd rank {rank}")
        if rank > ceiling:
            raise InvariantViolation(
                f"evaluated rank {rank} exceeds the term-rank ceiling {ceiling}"
            )
        best = max(best, rank)
        if best == ceiling:
            break
    return best, block is None


def index_oracle(P, trials=ORACLE_TRIALS, seed=0):
    """dim minus the generic rank of the commutator matrix.

    Where the rank drew no trial point (`generic_rank`), it is the
    doubled rank of the H block, proved: the index then depends on P
    alone, not on trials or seed.
    """
    basis, table = structure_constants(P)
    return len(basis) - generic_rank((basis, table), trials, seed)[0]


def index_formula(P):
    """Combinatorial index of a type-B/C/D poset algebra.

    Covers height-(0,0) and (0,1) posets (|E| - |V| + 2 * number of
    components of the relation graph without an odd cycle, a self loop
    counting as an odd cycle; a (0,0) poset's graph has no edges, so
    every vertex is such a component and the index is |V| = |P+|), and
    separable posets of any height (index of the type-A algebra on P+
    plus one, with the type-A index taken from the oracle at fixed seed:
    proved where the oracle reaches the term-rank ceiling of
    `generic_rank`, and elsewhere an upper bound, equal with the
    probability the module docstring gives).  Raises UnsupportedPoset
    otherwise, rather than answering with the oracle.

    The index is dim minus the even rank of a skew matrix, so a value
    whose parity differs from dim's raises InvariantViolation.
    """
    if P.family == "A":
        raise UnsupportedPoset("index_formula applies to families B, C, D")
    hp = P.height_pair
    if hp in ((0, 0), (0, 1)):
        G = P.relation_graph
        eta = sum(1 for comp in G.components if not comp.has_odd_cycle)
        index = G.edge_count - G.n + 2 * eta
    elif is_separable(P):
        index = index_oracle(positive_part(P), trials=ORACLE_TRIALS, seed=0) + 1
    else:
        raise UnsupportedPoset(
            f"no formula for a non-separable poset of height {tuple(hp)}"
        )
    dim = len(build_basis(P))
    if (index - dim) % 2:
        raise InvariantViolation(
            f"formula index {index} and dimension {dim} differ in parity"
        )
    return index


# ---------------------------------------------------------------------------
# Graph guided matrix reduction
# ---------------------------------------------------------------------------

STEP_SELF_LOOP = "SelfLoopElim"
STEP_ODD_CYCLE = "OddCycleElim"
STEP_EVEN_CYCLE = "EvenCycleElim"
STEP_PATH_SWEEP = "PathSweep"


class ReductionStep(NamedTuple):
    """One snapshot of the replay, as a NamedTuple: the step's kind and
    detail, the edges and loops left, and the labelled rows."""

    kind: str
    detail: str
    edges: tuple
    loops: tuple
    row_labels: tuple
    matrix: tuple


class ReductionTrace(NamedTuple):
    """A whole replay, as a NamedTuple: the poset, the seed and the edge
    and loop values it drew, the initial snapshot and one per step, and
    the one rank every snapshot has, taken at both ends of the replay."""

    poset: object
    seed: int
    edge_values: tuple
    loop_values: tuple
    initial: ReductionStep
    steps: tuple
    final_rank: int

    @property
    def ranks(self):
        return (self.final_rank,) * (1 + len(self.steps))


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _tree_path(parent, depth, u, w):
    """Vertices of the tree path from u to w, through their deepest common
    ancestor."""
    up, down = [u], [w]
    while up[-1] != down[-1]:
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    return up + down[-2::-1]


def _eliminate(target, source, col, name):
    """Clear column `col` (a vertex) of the row `target`, named `name` in
    the message, against the row `source`: a -> a - t*b/s, exactly.

    Both rows are value tuples; the cleared row is returned as a new
    tuple and neither argument is changed.
    """
    values = list(target)
    t = target[col - 1]
    s = source[col - 1]
    for k, b in enumerate(source):
        if b:
            q, r = divmod(t * b, s)
            if r:
                raise InvariantViolation(f"inexact step in column {col} of {name}")
            values[k] -= q
    return tuple(values)


def reduce(P, seed=0):
    """Run the relation-graph guided row reduction at a seeded generic point.

    P must be a connected type-C poset of height (0,0) or (0,1), and seed
    an int, bools excluded; any other seed raises ValueError before a
    value is drawn.  All basis symbols are instantiated with nonzero
    integers up front, one per edge in sorted order and then one per
    vertex, drawn once per (seed, count) by `_point`, and every entry
    stays an int.  The one row operation clears a column of one row
    against another, with the factor read off the two rows.  A relabelled
    row must be what its label says, Z(v) = -2*L_v*e_v or the zero row
    for 0.  Neither step changes the rank: the row operation subtracts a
    multiple of another row, and a relabelled row is replaced by a
    nonzero multiple of itself or stays zero.  So every step keeps the
    rank of the instantiated block, and the exact rank is taken only
    there and after the last step; the trace stores it once, as
    final_rank, after the two agree.  A division with a remainder, a
    wrong relabelled row, a missing row or a different end rank raises
    InvariantViolation; no other seed is tried, since exact row
    operations keep the rank at any point.

    The trace holds a snapshot of the rows before the first step and
    after each step.  `_replay` is the one body of the replay: it builds
    these snapshots only when its caller asks for them, and the campaign
    asks for none.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    snapshots = []
    final_rank, _ = _replay(P, seed=seed, snapshots=snapshots)
    edges = snapshots[0].edges  # every edge, sorted
    point = _point(seed, len(edges) + P.n)
    return ReductionTrace(
        poset=P,
        seed=seed,
        edge_values=tuple(zip(edges, point)),
        loop_values=tuple(enumerate(point[len(edges):], start=1)),
        initial=snapshots[0],
        steps=tuple(snapshots[1:]),
        final_rank=final_rank,
    )


def _replay(P, rank=None, seed=0, snapshots=None):
    """(final rank, steps): the replay of `reduce` at the point of seed,
    and the number of steps it took after the instantiated block.

    rank is the rank of the instantiated block, taken with `integer_rank`
    when it is None; a caller that already knows it passes it, and the
    replay still takes the rank after the last step and raises unless the
    two agree.  snapshots, when a list, receives the Init snapshot and one
    per step; when it is None no snapshot is built.

    The rows are two lists by row index, the printed labels `names` and
    the value tuples `rows`, and the live graph is two maps into them:
    y_row takes each live edge to its Y row and z_row each loop vertex to
    its Z row.  y_row starts in sorted order and only shrinks, so it
    stays sorted.  A row's values are a tuple that a step replaces, never
    edits, so a snapshot, the tuples of the two lists, stores pointers
    plus the rows its step changed.  The loop steps read each vertex's
    live neighbours off a map that relabel keeps up to date with y_row.

    A graph with a loop takes only loop steps.  A loop-free graph is
    reduced along its BFS spanning tree (`RelationGraph.forest`), rooted
    at vertex 1 with neighbours taken in ascending order; each chord (an
    edge not in the tree) closes one fundamental cycle with its tree
    path.  A chord whose ends have depths of the same parity closes an
    odd cycle: the first such chord in sorted order is cleared along its
    tree path, which leaves a nonzero multiple of e_j at its far end j,
    and becomes the loop Z(j); loop steps follow.  With no such chord the
    graph is bipartite, every chord closes an even cycle, and clearing
    each chord in sorted order along its tree path leaves the zero row.
    What remains is the tree, swept shallowest first: the row of the
    edge from v, at depth 2 or more, to its parent p has its column p
    cleared once against the row of p's own tree edge, already swept and
    so with entries only in column p and column 1.  That leaves the row of each tree edge
    with entries only in the column of its deeper end and in column 1:
    rank |V| - 1.  Tree edges are never zeroed, so every row a chord's
    path clears against still holds its two original entries.
    """
    if P.family != "C":
        raise UnsupportedPoset("the reduction applies to family C")
    hp = P.height_pair
    if hp.plus_height != 0 or hp.total_height > 1:
        raise UnsupportedPoset(f"height {tuple(hp)} is not (0,0) or (0,1)")
    if not rg_connected(P):
        raise UnsupportedPoset("relation graph is not connected")
    G = P.relation_graph
    n = P.n
    edges = sorted(G.edges)
    point = _point(seed, len(edges) + n)
    loop_values = point[len(edges):]  # L_v at v - 1

    def loop_row(v):
        values = [0] * n
        values[v - 1] = -2 * loop_values[v - 1]
        return tuple(values)

    names, rows, y_row, z_row = [], [], {}, {}
    for (i, j), value in zip(edges, point):
        values = [0] * n
        values[i - 1] = values[j - 1] = -value
        y_row[(i, j)] = len(rows)
        names.append(f"Y({i},{j})")
        rows.append(tuple(values))
    for v in sorted(G.loops):
        z_row[v] = len(rows)
        names.append(f"Z({v})")
        rows.append(loop_row(v))
    neighbours = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)

    def row_of(edge):
        r = y_row.get(edge)
        if r is None:
            raise InvariantViolation(f"missing row Y({edge[0]},{edge[1]})")
        return r

    def clear_path(edge, path):
        """Clear the row of `edge` along a vertex path: each vertex of the
        path but the last has its column cleared against the row of the
        path edge leaving it."""
        r = row_of(edge)
        for a, b in zip(path, path[1:]):
            rows[r] = _eliminate(rows[r], rows[row_of(_pair(a, b))], a, names[r])

    def relabel(edge, v):
        """Relabel the row of `edge` as Z(v), -2*L_v*e_v, or as 0 for v
        None, and take the edge out of the live graph.

        Raises InvariantViolation unless the row is a nonzero multiple of
        e_v, or zero for 0.
        """
        r = y_row.pop(edge)
        name = "0" if v is None else f"Z({v})"
        row = rows[r]
        rest = row if v is None else row[: v - 1] + row[v:]
        if any(rest) or (v is not None and not row[v - 1]):
            values = ", ".join(map(str, row))
            raise InvariantViolation(f"{names[r]} row [{values}] is no {name} row")
        a, b = edge
        neighbours[a].discard(b)
        neighbours[b].discard(a)
        names[r] = name
        if v is not None:
            rows[r] = loop_row(v)
            z_row[v] = r

    if rank is None:
        rank = integer_rank(rows, n)
    steps = -1  # the Init record is no step

    def record(kind, detail):
        """Count a step, and snapshot it if snapshots are asked for."""
        nonlocal steps
        steps += 1
        if snapshots is not None:
            # pointers only: each label string and values tuple is shared
            # with the lists and with every snapshot since the step that
            # set it
            snapshots.append(ReductionStep(
                kind=kind,
                detail=detail,
                edges=tuple(y_row),
                loops=tuple(sorted(z_row)),
                row_labels=tuple(names),
                matrix=tuple(rows),
            ))

    record("Init", "instantiated block")
    if not G.loops:
        parent, depth, _ = G.forest
        chords = [(i, j) for i, j in edges if i != parent[j] and j != parent[i]]
        odd = [(i, j) for i, j in chords if depth[i] % 2 == depth[j] % 2]
        if odd:
            i, j = odd[0]
            path = _tree_path(parent, depth, i, j)
            clear_path((i, j), path)
            relabel((i, j), j)
            record(
                STEP_ODD_CYCLE,
                f"odd cycle {tuple(path)}: edge {(i, j)} became loop {j}",
            )
        else:
            for i, j in chords:
                path = _tree_path(parent, depth, i, j)
                clear_path((i, j), path)
                relabel((i, j), None)
                record(
                    STEP_EVEN_CYCLE, f"even cycle {tuple(path)}: edge {(i, j)} zeroed"
                )
            for v in sorted(depth, key=depth.get):
                if depth[v] >= 2:
                    p = parent[v]
                    clear_path(_pair(v, p), (p, parent[p]))
            record(
                STEP_PATH_SWEEP,
                "tree sweep toward vertex 1" if edges else "trivial sweep (no edges)",
            )

    def loop_edge():
        """The least loop vertex with an edge and its least neighbour, or None."""
        for i in sorted(z_row):
            if neighbours[i]:
                return i, min(neighbours[i])
        return None

    while (pick := loop_edge()) is not None:
        i, j = pick
        edge = _pair(i, j)
        r = row_of(edge)
        rows[r] = _eliminate(rows[r], rows[z_row[i]], i, names[r])
        if j in z_row:
            rows[r] = _eliminate(rows[r], rows[z_row[j]], j, names[r])
            relabel(edge, None)
            record(STEP_SELF_LOOP, f"edge {edge} eliminated between loops")
        else:
            relabel(edge, j)
            record(STEP_SELF_LOOP, f"edge {edge} absorbed; loop moved to {j}")

    final_rank = integer_rank(rows, n)
    if final_rank != rank:
        raise InvariantViolation(
            f"rank drifted from {rank} to {final_rank} by the end of the replay"
        )
    return final_rank, steps
