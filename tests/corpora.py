"""Extra poset corpora that only the test suite walks."""

from lieposet import build_poset, hasse_connected


def random_separable_poset(rng, max_positive=4):
    """A random separable type-C poset: only mirror pairs of same-sign relations."""
    size = rng.randint(1, max_positive)
    generators = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if rng.random() < 0.5:
                generators.append((i, j))
    return build_poset("C", size, generators)


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
