"""Extra poset corpora that only the test suite walks."""

import random

from lieposet import build_poset, covering_relations, ground_set, poset_from_graph


def general_generators(family, n):
    """Every x < y of the ground set; B and D leave out -i < i, which may
    not be a cover there (the closure adds it when something lies between)."""
    ground = ground_set(family, n)
    return [
        (x, y) for x in ground for y in ground
        if x < y and (family == "C" or x != -y)
    ]


def seeded_general_posets(family, seed, count=60, n_max=6, max_gens=8):
    """`count` posets of the family, each closed from a random sample of at
    most max_gens of its general generators: any height, and family A too,
    from n = 2."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2 if family == "A" else 1, n_max)
        candidates = general_generators(family, n)
        gens = rng.sample(candidates, min(len(candidates), rng.randint(0, max_gens)))
        yield build_poset(family, n, gens)


def random_separable_poset(rng, max_positive=4):
    """A random separable type-C poset: only mirror pairs of same-sign relations."""
    size = rng.randint(1, max_positive)
    generators = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if rng.random() < 0.5:
                generators.append((i, j))
    return build_poset("C", size, generators)


def hasse_connected(P):
    """True when the Hasse diagram is connected (isolated points disconnect)."""
    elems = P.elements
    adj = {x: [] for x in elems}
    for x, y in covering_relations(P):
        adj[x].append(y)
        adj[y].append(x)
    seen = {elems[0]}
    stack = [elems[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(elems)


def type_a_height_at_most_one(P):
    """No chain x < y < z: no strict relation starts where another ends."""
    strict = P.strict_relations
    return not {y for _, y in strict} & {x for x, _ in strict}


def type_a_height_one_index(P):
    """|E| - |V| + 1, the index of a connected height-one type-A poset."""
    return len(P.strict_relations) - P.n + 1


def type_a_height_one_posets(n, connected_only=True):
    """All height-one family-A posets on {1..n}, optionally Hasse connected."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1, 1 << len(pairs)):
        chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        sources = {x for x, _ in chosen}
        targets = {y for _, y in chosen}
        if sources & targets:
            continue  # a composable pair would force a three-element chain
        P = build_poset("A", n, chosen)
        if connected_only and not hasse_connected(P):
            continue
        yield P


def reduction_graphs(seed, sizes=range(8, 13)):
    """Seeded connected type-C posets for the reduction replay, per size:
    a bipartite graph, a loop-free graph with an odd cycle and a looped one.

    Each grows a uniform-attachment spanning tree on 1..n (every vertex in
    a shuffled order joins an earlier one) and adds chords: bipartite
    chords join the two sides of the tree, the odd-cycle graph adds one
    chord within a side first, and the looped graph adds any chords plus
    two loops.  Only stdlib `random` draws, so the posets depend on the
    seed alone.
    """
    rng = random.Random(seed)
    posets = []
    for n in sizes:
        for kind in ("bipartite", "odd", "looped"):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            side = {order[0]: 0}
            edges = set()
            for k in range(1, n):
                u = order[rng.randrange(k)]
                side[order[k]] = side[u] ^ 1
                edges.add((min(u, order[k]), max(u, order[k])))
            free = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if (i, j) not in edges
            ]
            rng.shuffle(free)
            if kind == "bipartite":
                chords = [(i, j) for i, j in free if side[i] != side[j]][:n // 2]
            elif kind == "odd":
                same = [e for e in free if side[e[0]] == side[e[1]]]
                chords = same[:1] + [e for e in free if e not in same[:1]][:n // 2]
            else:
                chords = free[:n // 3]
            edges.update(chords)
            loops = rng.sample(range(1, n + 1), 2) if kind == "looped" else ()
            posets.append(poset_from_graph("C", n, sorted(edges), loops))
    return posets
