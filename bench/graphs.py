"""Seeded random relation graphs for the benchmark workloads.

Vertices are 1..n, edges are pairs (i, j) with i < j, loops are vertices.
Everything here is plain Python, independent of lieposet, so the inputs a
workload hands to the program do not depend on the program's own code.
"""

from __future__ import annotations


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def random_tree(rng, vertices):
    """A uniform-attachment spanning tree: each vertex joins an earlier one."""
    order = list(vertices)
    rng.shuffle(order)
    edges = set()
    for k in range(1, len(order)):
        edges.add(_pair(order[k], order[rng.randrange(k)]))
    return edges


def _add_chords(rng, n, edges, extra, allowed=lambda i, j: True):
    """Add `extra` random non-edges (i, j) that `allowed` accepts."""
    chords = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in edges and allowed(i, j)
    ]
    rng.shuffle(chords)
    edges.update(chords[:extra])


def has_odd_cycle(n, edges, loops):
    """True when some component is not bipartite (a loop counts as odd)."""
    if loops:
        return True
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    color = {}
    for root in adj:
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return True
    return False


def frobenius_graph(rng, family, n):
    """Every component unicyclic with an odd cycle; in family C a loop counts.

    Vertices are split into components, each gets an odd cycle (a loop in
    family C when chosen, else a cycle of length 3, 5, ...) and the rest of
    its vertices hang off it as a random forest, so |E| + |loops| = n.
    """
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    smallest = 1 if family == "C" else 3
    sizes = []
    left = n
    while left:
        size = rng.randint(smallest, left)
        if left - size and left - size < smallest:
            size = left
        sizes.append(size)
        left -= size
    edges, loops = set(), set()
    start = 0
    for size in sizes:
        comp = vertices[start:start + size]
        start += size
        longest = size if size % 2 else size - 1
        lengths = [c for c in range(3, longest + 1, 2)]
        if family == "C":
            lengths.append(1)
        length = rng.choice(lengths)
        cycle = comp[:length]
        if length == 1:
            loops.add(cycle[0])
        else:
            for k in range(length):
                edges.add(_pair(cycle[k], cycle[(k + 1) % length]))
        for k in range(length, size):
            edges.add(_pair(comp[k], comp[rng.randrange(k)]))
    return tuple(sorted(edges)), tuple(sorted(loops))


def bipartite_graph(rng, n, extra):
    """Connected bipartite graph: a spanning tree plus `extra` even-cycle chords."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    side = {order[0]: 0}
    edges = set()
    for k in range(1, n):
        u = order[rng.randrange(k)]
        side[order[k]] = side[u] ^ 1
        edges.add(_pair(order[k], u))
    _add_chords(rng, n, edges, extra, lambda i, j: side[i] != side[j])
    return tuple(sorted(edges)), ()


def odd_graph(rng, n, extra):
    """Connected graph with `extra` chords over a spanning tree, one closing an odd cycle."""
    while True:
        edges = random_tree(rng, range(1, n + 1))
        _add_chords(rng, n, edges, extra)
        if has_odd_cycle(n, edges, ()):
            return tuple(sorted(edges)), ()


def looped_graph(rng, n, extra, loop_count):
    """Connected graph with chords and self loops on random vertices."""
    edges = random_tree(rng, range(1, n + 1))
    _add_chords(rng, n, edges, extra)
    loops = rng.sample(range(1, n + 1), loop_count)
    return tuple(sorted(edges)), tuple(sorted(loops))


def inline_poset(family, n, edges, loops):
    """The CLI's one-line poset form for the height-(0,1) poset of a graph."""
    gens = [f"{-i}<={j}" for i, j in edges] + [f"{-v}<={v}" for v in loops]
    return f"{family};{n};{','.join(gens)}"
