"""Reference brackets that only the test suite uses.

`decompose_in` writes a sparse matrix in the basis of a poset, `bracket`
decomposes the commutator of two realized basis elements, and
`combo_bracket` extends the structure-constant table bilinearly; the
closure, Jacobi and spectrum tests compare the package against them.
`entry` reads one cell of the commutator matrix off the table.
"""

from lieposet import NotInSpan, algebra


def decompose_in(mat, P):
    """{element: coefficient} of a sparse matrix in the basis of P.

    The package's triangular pass over the family of P, plus the span
    check of `structure_constants`: an element outside the basis of P
    raises NotInSpan.
    """
    combo = dict(algebra.decompose(mat, P.family))
    outside = [b for b in combo if b not in algebra.build_basis(P)]
    if outside:
        raise NotInSpan(f"{outside} outside the basis")
    return combo


def bracket(a, b, P):
    """Commutator [a, b] decomposed in the basis of P."""
    com = algebra.commutator(algebra.realize(a), algebra.realize(b))
    return decompose_in(com, P)


def combo_bracket(P, u, v):
    """Bilinear extension of the bracket to {position: coefficient} maps.

    The table is read once per call: [i, j] is table[(i, j)] for i < j
    and minus table[(j, i)] for i > j.
    """
    _, table = algebra.structure_constants(P)
    out = {}
    for i, a in u.items():
        if not a:
            continue
        for j, b in v.items():
            if not b or i == j:
                continue
            if i < j:
                ab, terms = a * b, table.get((i, j), ())
            else:
                ab, terms = -a * b, table.get((j, i), ())
            for k, c in terms:
                out[k] = out.get(k, 0) + ab * c
    return {k: c for k, c in out.items() if c}


def entry(table, i, j):
    """{position: coefficient} of cell (i, j) of the commutator matrix of a
    structure-constant table: table[(i, j)] for i < j, its negation for
    i > j, and {} where the table has no key."""
    if i < j:
        return dict(table.get((i, j), ()))
    return {k: -c for k, c in table.get((j, i), ())}
