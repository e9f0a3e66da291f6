"""Index computation: commutator matrices, generic rank, and formulas.

The index of the algebra equals its dimension minus the rank of the
commutator matrix over the fraction field of its symmetric algebra.  That
generic rank is obtained exactly as the maximum rank over seeded random
integer evaluations; entries are linear forms, so the failure probability
after t trials is below dim^2 * (dim/2001)^t.

The oracle never leaves the integers: the structure constants are stored
as ints, the evaluation points are ints, one row evaluator
(`_evaluate_rows`) builds the integer matrix, and `linalg.integer_rank`
takes its rank.  `CommutatorMatrix.evaluate` is the only other caller
of `_evaluate_rows`: it returns the same rows for the Frobenius path,
where `linalg.solve` gives the kernel dimension and the principal element
in one Bareiss pass; at the integer point of a functional with integral
weights the rows stay ints.

For the height-(0,1) signed posets the rank is also predicted by the
relation graph, and `reduce` replays the graph-guided row reduction that
proves the prediction, checking the rank after every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateEvaluation, InvariantViolation, UnsupportedPoset
from .linalg import integer_rank, rational_rank
from .posets import (
    graph_components,
    height,
    hasse_connected,
    is_separable,
    positive_part,
    relation_graph,
    type_a_height,
)
from .algebra import structure_constants

ORACLE_TRIALS = 5


@dataclass(frozen=True)
class CommutatorMatrix:
    """Skew matrix of brackets [x_i, x_j] written in basis coordinates.

    entries[i][j] is a sorted tuple of (position, coefficient) pairs with
    int coefficients.
    """

    basis: tuple
    entries: tuple

    @property
    def dim(self):
        return len(self.basis)

    def entry(self, i, j):
        return dict(self.entries[i][j])

    def evaluate(self, point):
        """Rows of the Kirillov form at a basis-symbol assignment."""
        values = [point[b] for b in self.basis]
        return _evaluate_rows(self.entries, values)


def _evaluate_rows(entries, values):
    """Rows of the matrix whose cell is the linear form sum(values[k] * c).

    The number type of values is kept: int values give int rows, Fraction
    values give Fraction (or int zero) entries.
    """
    return [[sum(values[k] * c for k, c in cell) for cell in row] for row in entries]


def commutator_matrix(P):
    basis, table = structure_constants(P)
    dim = len(basis)
    grid = [[() for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in table.items():
        if any(type(c) is not int for _, c in terms):
            raise InvariantViolation(f"non-integral structure constant in {terms}")
        grid[i][j] = terms
        grid[j][i] = tuple((k, -c) for k, c in terms)
    return CommutatorMatrix(basis, tuple(tuple(row) for row in grid))


def _nonzero_int(rng):
    value = 0
    while value == 0:
        value = rng.randint(-1000, 1000)
    return value


def generic_rank(C, trials=ORACLE_TRIALS, seed=0):
    """Max rank over seeded evaluations at nonzero integers in [-1000, 1000].

    Each trial draws one value per basis element, in basis order.  An
    evaluated skew matrix has even rank, so an odd rank raises
    InvariantViolation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        values = [_nonzero_int(rng) for _ in C.basis]
        rank = integer_rank(_evaluate_rows(C.entries, values), C.dim)
        if rank % 2:
            raise InvariantViolation(f"evaluated skew matrix has odd rank {rank}")
        best = max(best, rank)
    return best


def index_oracle(P, trials=ORACLE_TRIALS, seed=0):
    """dim minus the generic rank of the commutator matrix."""
    C = commutator_matrix(P)
    return C.dim - generic_rank(C, trials=trials, seed=seed)


def index_formula(P):
    """Combinatorial index of a type-B/C/D poset algebra.

    Covers height-(0,0) posets (|P+|), height-(0,1) posets
    (|E| - |V| + 2 * number of components of the relation graph without
    an odd cycle, a self loop counting as an odd cycle), and separable
    posets of any height (index of the type-A algebra on P+ plus one,
    with the type-A index taken from the oracle at fixed seed).  Raises
    UnsupportedPoset otherwise; there is no silent oracle fallback.

    The index is dim minus the even rank of a skew matrix, so a value
    whose parity differs from dim's raises InvariantViolation.
    """
    if P.family == "A":
        raise UnsupportedPoset("index_formula applies to families B, C, D")
    hp = height(P)
    if hp == (0, 0):
        index = P.n
    elif hp == (0, 1):
        G = relation_graph(P)
        eta = sum(1 for comp in graph_components(G) if not comp.has_odd_cycle)
        index = G.edge_count - G.n + 2 * eta
    elif is_separable(P):
        index = index_oracle(positive_part(P), trials=ORACLE_TRIALS, seed=0) + 1
    else:
        raise UnsupportedPoset(
            f"no formula for a non-separable poset of height {tuple(hp)}"
        )
    dim = len(structure_constants(P)[0])
    if (index - dim) % 2:
        raise InvariantViolation(
            f"formula index {index} and dimension {dim} differ in parity"
        )
    return index


def type_a_height_one_index(P):
    """|E(Hasse)| - |V| + 1 for a connected height-one type-A poset."""
    if P.family != "A":
        raise UnsupportedPoset("expected a family-A poset")
    if type_a_height(P) != 1:
        raise UnsupportedPoset("poset is not of height one")
    if not hasse_connected(P):
        raise UnsupportedPoset("Hasse diagram is not connected")
    edges = sum(1 for (x, y) in P.strict_relations)
    return edges - P.n + 1


# ---------------------------------------------------------------------------
# Graph guided matrix reduction
# ---------------------------------------------------------------------------

STEP_SELF_LOOP = "SelfLoopElim"
STEP_ODD_CYCLE = "OddCycleElim"
STEP_EVEN_CYCLE = "EvenCycleElim"
STEP_PATH_SWEEP = "PathSweep"


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    detail: str
    edges: tuple
    loops: tuple
    row_labels: tuple
    matrix: tuple
    rank: int


@dataclass(frozen=True)
class ReductionTrace:
    poset: object
    seed: int
    edge_values: tuple
    loop_values: tuple
    initial: ReductionStep
    steps: tuple

    @property
    def final_rank(self):
        return (self.steps[-1] if self.steps else self.initial).rank

    @property
    def final_graph(self):
        last = self.steps[-1] if self.steps else self.initial
        return last.edges, last.loops

    @property
    def ranks(self):
        return (self.initial.rank,) + tuple(s.rank for s in self.steps)


class _Row:
    __slots__ = ("label", "values")

    def __init__(self, label, values):
        self.label = label
        self.values = values


def _label_str(label):
    if label[0] == "Y":
        return f"Y({label[1]},{label[2]})"
    if label[0] == "Z":
        return f"Z({label[1]})"
    return "0"


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _simple_cycles(edges):
    """All simple cycles with >= 3 vertices, as canonical tuples.

    A canonical tuple starts at the cycle's least vertex and runs in the
    lexicographically smaller of the two directions.
    """
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    for v in adj:
        adj[v].sort()
    found = set()

    def walk(path, seen):
        u = path[-1]
        for w in adj[u]:
            if w == path[0] and len(path) >= 3:
                forward = tuple(path)
                backward = (path[0],) + tuple(reversed(path[1:]))
                found.add(min(forward, backward))
            elif w > path[0] and w not in seen:
                path.append(w)
                seen.add(w)
                walk(path, seen)
                path.pop()
                seen.remove(w)

    for start in sorted(adj):
        walk([start], {start})
    return found


def _cycle_edges(cycle):
    """The edges of a canonical cycle tuple, closing edge included."""
    return frozenset(_pair(cycle[k - 1], cycle[k]) for k in range(len(cycle)))


def _select_cycle(cycles, odd):
    """The longest cycle of the wanted parity, then the least tuple; or None.

    `cycles` iterates over canonical cycle tuples, as `_simple_cycles`
    returns them.
    """
    matching = [c for c in cycles if (len(c) % 2 == 1) == odd]
    if not matching:
        return None
    size = max(len(c) for c in matching)
    return min(c for c in matching if len(c) == size)


def reduce(P, seed=0, retries=5):
    """Run the relation-graph guided row reduction at a seeded generic point.

    P must be a connected type-C poset of height (0,0) or (0,1).  All
    basis symbols are instantiated with nonzero integers up front, the
    printed row operations are applied with those rational coefficients,
    and the exact rank is recomputed after every step; a rank change or a
    vanishing divisor triggers a reseeded retry and finally
    DegenerateEvaluation.

    The simple cycles are enumerated once, when the replay first reaches
    the cycle phase.  An even-cycle step removes its closing edge e and
    drops the cycles through e: the simple cycles of G - e are exactly
    the cycles of G that avoid e, so each step picks the cycle a fresh
    search would pick.  An odd-cycle step adds a loop, after which only
    loop steps and no cycle search follow.
    """
    if P.family != "C":
        raise UnsupportedPoset("the reduction applies to family C")
    hp = height(P)
    if hp.plus_height != 0 or hp.total_height > 1:
        raise UnsupportedPoset(f"height {tuple(hp)} is not (0,0) or (0,1)")
    G = relation_graph(P)
    if len(graph_components(G)) != 1:
        raise UnsupportedPoset("relation graph is not connected")
    last = None
    for attempt in range(retries):
        try:
            return _reduce_once(P, G, seed + 1000003 * attempt)
        except DegenerateEvaluation as exc:
            last = exc
    raise DegenerateEvaluation(f"retries exhausted: {last}")


def _reduce_once(P, G, seed):
    rng = random.Random(seed)
    n = P.n
    edge_values = {e: Fraction(_nonzero_int(rng)) for e in sorted(G.edges)}
    loop_values = {v: Fraction(_nonzero_int(rng)) for v in range(1, n + 1)}

    rows = []
    for i, j in sorted(G.edges):
        values = [Fraction(0)] * n
        values[i - 1] = -edge_values[(i, j)]
        values[j - 1] = -edge_values[(i, j)]
        rows.append(_Row(("Y", i, j), values))
    for v in sorted(G.loops):
        values = [Fraction(0)] * n
        values[v - 1] = -2 * loop_values[v]
        rows.append(_Row(("Z", v), values))

    def row_for(label):
        for row in rows:
            if row.label == label:
                return row
        raise DegenerateEvaluation(f"missing row {label}")

    def rank_now():
        return rational_rank([r.values for r in rows], n)

    def snapshot(kind, detail, edges, loops, rank):
        return ReductionStep(
            kind=kind,
            detail=detail,
            edges=tuple(sorted(edges)),
            loops=tuple(sorted(loops)),
            row_labels=tuple(_label_str(r.label) for r in rows),
            matrix=tuple(tuple(r.values) for r in rows),
            rank=rank,
        )

    def add_scaled(target, source, factor):
        target.values = [
            a + factor * b for a, b in zip(target.values, source.values)
        ]

    edges = set(G.edges)
    loops = set(G.loops)
    cycles = None  # canonical cycle -> its edge set, enumerated on first use
    base_rank = rank_now()
    initial = snapshot("Init", "instantiated block", edges, loops, base_rank)
    steps = []

    def record(kind, detail):
        rank = rank_now()
        if rank != base_rank:
            raise DegenerateEvaluation(
                f"rank drifted from {base_rank} to {rank} after {detail}"
            )
        steps.append(snapshot(kind, detail, edges, loops, rank))

    def loop_adjacent():
        for i in sorted(loops):
            nbrs = sorted(
                (j if a == i else a) for (a, j) in edges if i in (a, j)
            )
            if nbrs:
                return i, nbrs[0]
        return None

    while True:
        if loops:
            pick = loop_adjacent()
            if pick is None:
                break  # every loop vertex is isolated: halt
            i, j = pick
            edge = _pair(i, j)
            erow = row_for(("Y",) + edge)
            zrow = row_for(("Z", i))
            v_edge = edge_values[edge]
            add_scaled(erow, zrow, v_edge / (2 * loop_values[i]))
            if j not in loops:
                factor = (2 * loop_values[j]) / v_edge
                erow.values = [factor * x for x in erow.values]
                erow.label = ("Z", j)
                loops.add(j)
                edges.remove(edge)
                record(STEP_SELF_LOOP, f"edge {edge} absorbed; loop moved to {j}")
            else:
                add_scaled(erow, row_for(("Z", j)), v_edge / (2 * loop_values[j]))
                erow.label = ("0",)
                edges.remove(edge)
                record(STEP_SELF_LOOP, f"edge {edge} eliminated between loops")
            continue

        if cycles is None:
            cycles = {c: _cycle_edges(c) for c in _simple_cycles(edges)}
        cycle = _select_cycle(cycles, odd=True)
        if cycle is not None:
            _cycle_rowop(cycle, row_for, add_scaled, edge_values)
            first, last = cycle[0], cycle[-1]
            closing = _pair(first, last)
            trow = row_for(("Y",) + closing)
            trow.values = [
                (loop_values[last] / edge_values[closing]) * x for x in trow.values
            ]
            trow.label = ("Z", last)
            edges.remove(closing)
            loops.add(last)
            record(STEP_ODD_CYCLE, f"odd cycle {cycle}: edge {closing} became loop {last}")
            continue

        cycle = _select_cycle(cycles, odd=False)
        if cycle is not None:
            _cycle_rowop(cycle, row_for, add_scaled, edge_values)
            closing = _pair(cycle[0], cycle[-1])
            trow = row_for(("Y",) + closing)
            if any(trow.values):
                raise DegenerateEvaluation(f"even cycle row {closing} did not vanish")
            trow.label = ("0",)
            edges.remove(closing)
            # the simple cycles of G - e are the cycles of G that avoid e
            cycles = {c: es for c, es in cycles.items() if closing not in es}
            record(STEP_EVEN_CYCLE, f"even cycle {cycle}: edge {closing} zeroed")
            continue

        detail = _path_sweep(edges, n, row_for, add_scaled, edge_values)
        record(STEP_PATH_SWEEP, detail)
        break

    return ReductionTrace(
        poset=P,
        seed=seed,
        edge_values=tuple(sorted(edge_values.items())),
        loop_values=tuple(sorted(loop_values.items())),
        initial=initial,
        steps=tuple(steps),
    )


def _cycle_rowop(cycle, row_for, add_scaled, edge_values):
    """Clear the row of the edge closing the cycle against the path rows."""
    closing = _pair(cycle[0], cycle[-1])
    target = row_for(("Y",) + closing)
    t_value = edge_values[closing]
    sign = -1
    for k in range(1, len(cycle)):
        edge = _pair(cycle[k - 1], cycle[k])
        add_scaled(target, row_for(("Y",) + edge), sign * t_value / edge_values[edge])
        sign = -sign


def _path_sweep(edges, n, row_for, add_scaled, edge_values):
    """Sweep a tree from its least leaf, clearing interior columns.

    Rows are rewritten deepest first, so the shallower rows they consume
    are still in their original two-entry form.
    """
    if not edges:
        return "trivial sweep (no edges)"
    degree = {}
    adj = {}
    for i, j in edges:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    root = min(v for v, d in degree.items() if d == 1)
    parent = {root: None}
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    order = sorted(dist, key=lambda v: (-dist[v], v))
    for v in order:
        if dist[v] < 2:
            continue
        chain = [v]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chain.reverse()  # root .. v
        target_edge = _pair(chain[-2], chain[-1])
        target = row_for(("Y",) + target_edge)
        t_value = edge_values[target_edge]
        sign = -1
        for back in range(len(chain) - 2, 0, -1):
            edge = _pair(chain[back - 1], chain[back])
            add_scaled(target, row_for(("Y",) + edge), sign * t_value / edge_values[edge])
            sign = -sign
    return f"tree sweep from leaf {root}"
