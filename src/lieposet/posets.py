"""Signed posets of types A, B, C, D and their relation graphs.

Ground sets follow the classical matrix conventions: family A lives on
{1..n}; families C and D on {-n..-1, 1..n}; family B additionally carries
the element 0.  Relations are stored reflexively and transitively closed,
with (x, y) meaning x <= y in the partial order, and are constrained to
respect the integer order.  For the signed families, every relation
(x, y) with x != -y comes with its mirror (-y, -x).

Posets and relation graphs are frozen, so the objects derived from them
(the height pair, the relation graph, its BFS forest and its components)
are computed once per object and cached on it, and read as its
attributes: `P.height_pair`, `P.relation_graph`, `G.forest` and
`G.components`.  The caches live outside the dataclass fields, so
equality and hashing ignore them.

A poset of the paper's class (height (0,0) or (0,1)) is fixed by its
relation graph, and `poset_from_graph` builds it from the graph with no
closure: its relations are already closed, and it carries its height
pair and relation graph from construction, so neither is ever derived
from its relations.  `poset_from_mask` builds the same poset from the
graph's slot bitmask.  Each checks its own input once and then builds
through one constructor, `_graph_poset`, which reads the reflexive
pairs and each slot's relations off a table cached per (family, n).
`build_poset` closes generator input (the parsers, hand-written posets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (
    AntisymmetryViolation,
    BadElement,
    Condition1Violation,
    Condition2Violation,
    Condition3Violation,
    PosetConstructionError,
    UnsupportedHeight,
    UnsupportedPoset,
)

FAMILIES = ("A", "B", "C", "D")
SIGNED_FAMILIES = ("B", "C", "D")

# the largest half-size n that build_poset, enumerate_h01 and a campaign
# plan accept: the ground set and the enumeration's slot table grow with
# n (and n^2), so an n from outside is bounded before anything is built
MAX_N = 128
# the largest n that enumerate_h01(..., up_to_iso=True) accepts: its table
# holds one slot list per permutation of 1..n, n! - 1 of them, built
# before the first poset (0.4 s and 31 MB at n = 8, about n-fold more for
# each step up)
MAX_ISO_N = 8


def _check_n(n):
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {n}")


def ground_set(family, n):
    """Ordered ground set of a family-`family` poset of half-size n."""
    if family == "A":
        return tuple(range(1, n + 1))
    negatives = tuple(range(-n, 0))
    positives = tuple(range(1, n + 1))
    if family == "B":
        return negatives + (0,) + positives
    return negatives + positives


@dataclass(frozen=True)
class SignedPoset:
    """A validated poset on a signed ground set, closed under the axioms.

    Instances are immutable and hashable; construct them through
    :func:`build_poset`, or :func:`poset_from_graph` for the paper's class
    (or validate by hand with :func:`validate`).
    """

    family: str
    n: int
    relations: frozenset

    @property
    def elements(self):
        return ground_set(self.family, self.n)

    def leq(self, x, y):
        return (x, y) in self.relations

    @cached_property
    def height_pair(self):
        """HeightPair (longest chain in P+ minus one, longest chain minus one).

        Raises UnsupportedPoset for family A, and Condition1Violation for a
        relation x > y, which only a hand-built SignedPoset can hold.
        """
        if self.family == "A":
            raise UnsupportedPoset("height pairs apply to families B, C, D")
        return _heights(self.elements, self.relations)

    @cached_property
    def relation_graph(self):
        """RelationGraph of a height-(0,0)/(0,1) signed poset.

        Raises UnsupportedPoset for family A and UnsupportedHeight for any
        other height, on every access, since a property that raises
        caches nothing.
        """
        if self.family == "A":
            raise UnsupportedPoset("relation graphs apply to families B, C, D")
        hp = self.height_pair
        if hp.plus_height != 0 or hp.total_height > 1:
            raise UnsupportedHeight(f"height {tuple(hp)} is not (0,0) or (0,1)")
        edges = set()
        loops = set()
        for x, y in self.relations:
            if x < 0 < y:
                i, j = -x, y
                if i == j:
                    loops.add(i)
                else:
                    edges.add((min(i, j), max(i, j)))
        return RelationGraph(self.n, frozenset(edges), frozenset(loops))

    def __repr__(self):
        gens = ",".join(f"{x}<={y}" for x, y in covering_relations(self))
        return f"SignedPoset({self.family};{self.n};{gens})"


class HeightPair(NamedTuple):
    plus_height: int
    total_height: int


@dataclass(frozen=True)
class RelationGraph:
    """Graph on the positive representatives of a height-(0,1) poset.

    edges holds pairs (i, j) with i < j; loops holds the vertices v with
    -v <= v, which occurs only in family C.
    """

    n: int
    edges: frozenset
    loops: frozenset

    @property
    def vertices(self):
        return tuple(range(1, self.n + 1))

    @property
    def edge_count(self):
        """Number of edges, counting each self loop as one edge."""
        return len(self.edges) + len(self.loops)

    @cached_property
    def forest(self):
        """BFS spanning forest as (parent, depth, root) dicts on the vertices.

        Each component is searched from its least vertex, its root, whose
        parent is None; neighbours are taken in ascending order, so the
        forest depends on the edges alone.  Each dict is filled in the
        order the search reaches the vertices.
        """
        n = self.n
        adj = [[] for _ in range(n + 1)]  # the neighbours of v, ascending, at v
        for i, j in sorted(self.edges):
            adj[i].append(j)
            adj[j].append(i)
        parent, depth, root = {}, {}, {}
        for r in range(1, n + 1):
            if r in root:
                continue
            parent[r], depth[r], root[r] = None, 0, r
            queue = [r]
            for u in queue:
                below = depth[u] + 1
                for w in adj[u]:
                    if w not in root:
                        parent[w], depth[w], root[w] = u, below, r
                        queue.append(w)
        return parent, depth, root

    @cached_property
    def components(self):
        """Connected components as GraphComponents, in vertex order.

        A component has an odd cycle when it has a loop or an edge whose
        ends have depths of the same parity in the forest.  The forest's
        root dict is read once, in vertex order; the counts are kept by
        root, in lists addressed by vertex.
        """
        _, depth, root = self.forest
        n = self.n
        members = {}
        for v in range(1, n + 1):
            members.setdefault(root[v], []).append(v)
        edge_count = [0] * (n + 1)
        odd = [False] * (n + 1)
        for i, j in self.edges:
            r = root[i]
            edge_count[r] += 1
            if not (depth[i] - depth[j]) % 2:
                odd[r] = True
        for v in self.loops:
            r = root[v]
            edge_count[r] += 1
            odd[r] = True
        return tuple(
            GraphComponent(tuple(verts), edge_count[r], odd[r], edge_count[r] == len(verts))
            for r, verts in members.items()
        )


class GraphComponent(NamedTuple):
    """One component of a relation graph, as a NamedTuple.

    vertices are ascending; edge_count counts a self loop as one edge,
    and a loop is an odd cycle; is_unicyclic means as many edges as
    vertices.
    """

    vertices: tuple
    edge_count: int
    has_odd_cycle: bool
    is_unicyclic: bool


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def build_poset(family, n, generators, strict=False):
    """Close a generator list into a validated poset.

    Reflexive and transitive pairs are always added.  For families B, C
    and D the mirror (-y, -x) of each generator (x, y) with x != -y is
    added automatically; with strict=True a missing mirror raises
    Condition2Violation instead.

    The closure satisfies every axiom that `validate` checks but one by
    construction, so it is not validated again.  It holds (x, x) for each
    x and is transitive.  Each generator and mirror has x <= y in the
    integer order, and so has each composite, which makes the closure
    antisymmetric.  The generators with their mirrors are mirror closed,
    and so is their closure, since a chain x <= y <= z mirrors to the
    chain -z <= -y <= -x.  What remains is condition 3, checked here: in
    B and D, i may not cover -i.
    """
    _check_family(family)
    _check_n(n)
    elements = ground_set(family, n)
    ground = set(elements)
    pairs = set()
    for x, y in generators:
        if x not in ground or y not in ground:
            raise BadElement(
                f"generator ({x},{y}) outside the {family} ground set for n={n}"
            )
        if x > y:
            raise Condition1Violation(f"generator ({x},{y}) has {x} > {y}")
        pairs.add((x, y))
    if family != "A":
        for x, y in sorted(pairs):
            if x == -y:
                continue
            mirror = (-y, -x)
            if mirror in pairs:
                continue
            if strict:
                raise Condition2Violation(f"({x},{y}) present without ({-y},{-x})")
            pairs.add(mirror)
    # every generator and mirror has x <= y, so the elements above x are
    # closed before x is reached from the top of the ground set
    succ = {x: [] for x in ground}
    for x, y in pairs:
        succ[x].append(y)
    above = {}
    closed = []
    for x in reversed(elements):
        up = {x}
        for y in succ[x]:
            if y != x:
                up |= above[y]
        above[x] = up
        closed += [(x, y) for y in up]
    poset = SignedPoset(family, n, frozenset(closed))
    _check_condition3(poset)
    return poset


def validate(P):
    """Check every axiom of the poset's family; raise on the first failure."""
    _check_family(P.family)
    ground = set(ground_set(P.family, P.n))
    rel = P.relations
    for x, y in rel:
        if x not in ground or y not in ground:
            raise BadElement(f"relation ({x},{y}) outside the ground set")
    for x in ground:
        if (x, x) not in rel:
            raise PosetConstructionError(f"missing reflexive pair ({x},{x})")
    for x, y in rel:
        if x != y and (y, x) in rel:
            raise AntisymmetryViolation(f"both ({x},{y}) and ({y},{x}) present")
    for x, y in rel:
        if x > y:
            raise Condition1Violation(f"relation ({x},{y}) has {x} > {y}")
    succ = {}
    for x, y in rel:
        if x != y:
            succ.setdefault(x, []).append(y)
    for x, ys in succ.items():
        for y in ys:
            for z in succ.get(y, ()):
                if (x, z) not in rel:
                    raise PosetConstructionError(
                        f"not transitively closed at ({x},{y}),({y},{z})"
                    )
    if P.family != "A":
        for x, y in rel:
            if x != -y and (-y, -x) not in rel:
                raise Condition2Violation(f"({x},{y}) present without ({-y},{-x})")
    _check_condition3(P)


def _check_condition3(P):
    if P.family in ("B", "D"):
        for i in range(1, P.n + 1):
            if (-i, i) in P.relations and _is_cover(P, -i, i):
                raise Condition3Violation(f"{i} covers {-i}")


def _is_cover(P, x, y):
    return not any(
        z != x and z != y and P.leq(x, z) and P.leq(z, y) for z in P.elements
    )


def covering_relations(P):
    return tuple(
        sorted((x, y) for (x, y) in P.relations if x != y and _is_cover(P, x, y))
    )


def _heights(elements, relations):
    """HeightPair of a signed poset in one pass from the top of its
    ascending ground set `elements`.

    best[x] is the most elements of a chain that starts at x.  A chain
    that starts at a positive element stays positive, so the longest
    chain of P+ is the largest best over the positives.  A relation
    against the integer order raises Condition1Violation.
    """
    succ = {x: [] for x in elements}
    for x, y in relations:
        if x < y:
            succ[x].append(y)
        elif x > y:
            raise Condition1Violation(f"relation ({x},{y}) has {x} > {y}")
    best = {}
    for x in reversed(elements):
        best[x] = 1 + max([best[y] for y in succ[x]], default=0)
    plus = max([best[x] for x in elements if x > 0], default=0)
    return HeightPair(plus - 1, max(best.values(), default=0) - 1)


def is_separable(P):
    """True when no relation runs from a negative element to a positive one.

    Relations touching 0 (family B) count toward neither side, so they
    never make a poset non-separable.
    """
    if P.family == "A":
        raise ValueError("separability applies to families B, C, D")
    return not any(x < 0 < y for (x, y) in P.relations)


def _check_signed(family, n):
    """The family and n checks of a relation graph's poset, in order: an
    unknown family, family A, then n as `build_poset` checks it."""
    if family not in SIGNED_FAMILIES:
        _check_family(family)
        raise ValueError("relation graphs apply to families B, C, D")
    _check_n(n)


def poset_from_graph(family, n, edges, loops=()):
    """The height-(0,0)/(0,1) poset whose relation graph has these edges and loops.

    The input domain: family B, C or D and n >= 1; each edge a pair of two
    distinct vertices of 1..n, in either order, with repeats allowed; each
    loop a vertex of 1..n, and loops in family C only.  An unknown family,
    family A, an n that is not an int or is outside 1..MAX_N (the checks
    `build_poset` applies) and loops outside C raise ValueError, checked
    in that order; an edge or a loop off the vertices raises BadElement.
    The checked graph is built by `_graph_poset`.
    """
    _check_signed(family, n)
    loops = frozenset(loops)
    if loops and family != "C":
        raise ValueError("self loops occur only in family C")
    # the slots are the edges {i, j}, i < j, and the loops of 1..n
    slots = _slot_relations(family, n)[1]
    pairs = set()
    for i, j in edges:
        pair = (i, j) if i < j else (j, i)
        if pair not in slots:
            raise BadElement(f"edge ({i},{j}) is not two distinct vertices of 1..{n}")
        pairs.add(pair)
    for v in loops:
        if not 1 <= v <= n or v not in slots:
            raise BadElement(f"loop {v} is not a vertex of 1..{n}")
    return _graph_poset(family, n, frozenset(pairs), loops)


def _graph_poset(family, n, edges, loops):
    """The poset of a checked relation graph: edges and loops are
    frozensets of slots of `h01_slots(family, n)`.

    The strict relations are -i < j and -j < i for each edge {i, j} and
    -v < v for each loop v, read off `_slot_relations`.  Each runs from a
    negative element to a positive one, so no element has both a strict
    predecessor and a strict successor, and the reflexive pairs with
    these are transitively closed and mirror closed; -i < i occurs only
    in C, where condition 3 does not apply.  The height pair and the
    relation graph are known from the input and attached to the poset,
    so neither is derived again.
    """
    reflexive, strict = _slot_relations(family, n)
    relations = list(reflexive)
    for slot in edges:
        relations += strict[slot]
    for slot in loops:
        relations += strict[slot]
    P = SignedPoset(family, n, frozenset(relations))
    # a cached_property keeps its value in the instance __dict__ under its
    # own name and reads it from there first; the frozen dataclass guards
    # only setattr, and its equality and hash read the fields alone
    P.__dict__.update(
        height_pair=HeightPair(0, 1 if edges or loops else 0),
        relation_graph=RelationGraph(n, edges, loops),
    )
    return P


@lru_cache(maxsize=32)
def h01_slots(family, n):
    """Edge and loop slots addressed by the enumeration bitmask, in order.

    Bit b of a mask is edge slot b, and bit len(edges) + b is loop slot b
    (type C only).  Both are tuples, built once per (family, n) and
    shared by every decode and encode.
    """
    edges = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    loops = tuple(range(1, n + 1)) if family == "C" else ()
    return edges, loops


@lru_cache(maxsize=32)
def _slot_relations(family, n):
    """(reflexive, strict) of (family, n), built once beside its slots:
    the reflexive pairs of the ground set, and a map from each slot of
    `h01_slots` to the strict relations it adds, ((-i, j), (-j, i)) for
    an edge (i, j) and ((-v, v),) for a loop v."""
    edges, loops = h01_slots(family, n)
    strict = {(i, j): ((-i, j), (-j, i)) for i, j in edges}
    strict.update((v, ((-v, v),)) for v in loops)
    return tuple((x, x) for x in ground_set(family, n)), strict


def poset_from_mask(family, n, mask):
    """The poset whose relation graph holds the slots of the set bits of
    mask (see `h01_slots`).

    family and n are checked as `poset_from_graph` checks them.  A mask
    that is not an int (bools included) or lies outside [0, 2^slots)
    raises ValueError, so every mask that decodes is the `mask_of_poset`
    of its poset.  Its slots need no further check.
    """
    _check_signed(family, n)
    edges, loops = h01_slots(family, n)
    if type(mask) is not int or not 0 <= mask < 1 << (len(edges) + len(loops)):
        raise ValueError(
            f"mask must be an int in [0, 2^{len(edges) + len(loops)}), got {mask!r}"
        )
    below = (1 << len(edges)) - 1
    return _graph_poset(
        family, n, _picked(edges, mask & below), _picked(loops, mask >> len(edges))
    )


def _picked(slots, bits):
    """The frozenset of slots[b] for each set bit b of bits, visiting
    only the set bits."""
    picked = []
    while bits:
        low = bits & -bits
        picked.append(slots[low.bit_length() - 1])
        bits ^= low
    return frozenset(picked)


def mask_of_poset(P):
    G = P.relation_graph
    edges, loops = h01_slots(P.family, P.n)
    present = G.edges | G.loops
    return sum(1 << b for b, slot in enumerate(edges + loops) if slot in present)


def _slot_images(family, n):
    """For each non-identity relabelling of 1..n, the slot each slot moves to."""
    edges_all, loops_all = h01_slots(family, n)
    slot = {e: b for b, e in enumerate(edges_all + loops_all)}
    images = []
    for perm in itertools.islice(itertools.permutations(range(1, n + 1)), 1, None):
        image = [slot[tuple(sorted((perm[i - 1], perm[j - 1])))] for i, j in edges_all]
        image += [slot[perm[v - 1]] for v in loops_all]
        images.append(image)
    return images


def enumerate_h01(family, n, up_to_iso=False):
    """Yield every height-(0,0)/(0,1) poset of the family, one per labeled graph.

    Family C ranges over all graphs on n vertices with optional self loops
    (2^(n(n+1)/2) posets); families B and D forbid loops (2^(n(n-1)/2)).
    The order is the ascending bitmask order of :func:`poset_from_mask`.
    With up_to_iso=True only the masks that no relabelling of 1..n makes
    smaller are yielded: the least mask of each orbit, which is the first
    representative of its graph isomorphism class (Read's orderly criterion),
    for n up to MAX_ISO_N.
    """
    if family not in SIGNED_FAMILIES:
        raise ValueError("enumeration applies to families B, C, D")
    _check_n(n)
    if up_to_iso and n > MAX_ISO_N:
        raise ValueError(f"n must be <= {MAX_ISO_N} up to isomorphism, got {n}")
    slots = range(sum(map(len, h01_slots(family, n))))
    images = _slot_images(family, n) if up_to_iso else ()
    for mask in range(1 << len(slots)):
        if images:
            bits = [b for b in slots if mask >> b & 1]
            if any(sum(1 << image[b] for b in bits) < mask for image in images):
                continue
        yield poset_from_mask(family, n, mask)


def induced_subposet(P, subset):
    """Induced subposet on `subset`, relabeled onto a standard ground set.

    The relabeling is order preserving.  When the subset is mirror
    symmetric the family is kept (B drops to D when 0 is removed);
    otherwise the result is a family-A poset on {1..k}.
    """
    S = frozenset(subset)
    if not S <= set(P.elements):
        raise BadElement("subset not contained in the ground set")
    if P.family == "A" or not all(-x in S for x in S):
        family = "A"
        ordered = sorted(S)
        relabel = {x: k for k, x in enumerate(ordered, start=1)}
        size = len(ordered)
    else:
        family = "D" if (P.family == "B" and 0 not in S) else P.family
        positives = sorted(x for x in S if x > 0)
        relabel = {}
        for k, x in enumerate(positives, start=1):
            relabel[x] = k
            relabel[-x] = -k
        if 0 in S:
            relabel[0] = 0
        size = len(positives)
        if size == 0:
            raise BadElement("signed subposet needs at least one mirror pair")
    rels = frozenset(
        (relabel[x], relabel[y]) for (x, y) in P.relations if x in S and y in S
    )
    Q = SignedPoset(family, size, rels)
    validate(Q)
    return Q


def positive_part(P):
    """The induced poset on the positive elements, as a family-A poset."""
    return induced_subposet(P, [x for x in P.elements if x > 0])


def rg_connected(P):
    return len(P.relation_graph.components) == 1
