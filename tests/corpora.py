"""Extra poset corpora that only the test suite walks."""

from lieposet import build_poset, covering_relations


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
