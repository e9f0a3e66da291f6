"""Reference brackets that only the test suite uses.

`decompose_in` writes a sparse matrix in the basis of a poset, `bracket`
decomposes the commutator of two realized basis elements, and
`combo_bracket` extends the structure-constant table bilinearly; the
closure, Jacobi and spectrum tests compare the package against them.
`entry` reads one cell of the commutator matrix off the table.
`table_by_brackets` builds a poset's table the way the package did
before it sliced the Borel table, and `basis_by_kinds` its basis the way
the package did before it read each element off its leading position;
the slice and the basis are compared against them.  `functional_value`
applies a functional to a sparse matrix, and `point_by_realizations`
is a functional's point the way the package read it before it read the
point off F's support, one realization per basis element.
"""

from corpora import strict_relations
from lieposet import InvariantViolation, NotInSpan, algebra


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

    The table is read once per call: [i, j] is the one (k, c) pair of
    table[(i, j)] for i < j, and that of table[(j, i)] negated for i > j.
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
                ab, cell = a * b, table.get((i, j))
            else:
                ab, cell = -a * b, table.get((j, i))
            if cell is not None:
                k, c = cell
                out[k] = out.get(k, 0) + ab * c
    return {k: c for k, c in out.items() if c}


def entry(table, i, j):
    """{position: coefficient} of cell (i, j) of the commutator matrix of a
    structure-constant table: the (k, c) pair of table[(i, j)] for i < j,
    its negation for i > j, and {} where the table has no key."""
    cell = table.get((i, j) if i < j else (j, i))
    if cell is None:
        return {}
    k, c = cell
    return {k: c if i < j else -c}


def table_by_brackets(P):
    """(basis, table) of P from its own brackets, with no Borel table.

    The realizations of the basis of P are indexed by row and by column,
    and a pair (i, j) with i < j is bracketed when a column of one is a
    row of the other; each bracket is decomposed over the family in
    full.  A cell is one (k, c) pair when the bracket has one term, and
    the tuple of all its pairs otherwise, so a bracket with a second term
    differs from every slice.  An element outside the basis of P raises
    NotInSpan and a coefficient that is not an int raises
    InvariantViolation.
    """
    basis = algebra.build_basis(P)
    position = {b: k for k, b in enumerate(basis)}
    mats = [algebra.realize(b) for b in basis]
    by_row, by_col = {}, {}
    for k, m in enumerate(mats):
        for r, c in m:
            by_row.setdefault(r, set()).add(k)
            by_col.setdefault(c, set()).add(k)
    table = {}
    for i, m in enumerate(mats):
        meets = set()
        for r, c in m:
            meets.update(by_row.get(c, ()))
            meets.update(by_col.get(r, ()))
        for j in sorted(k for k in meets if k > i):
            combo = algebra.decompose(algebra.commutator(m, mats[j]), P.family)
            if not combo:
                continue
            terms = []
            for b, c in combo:
                if b not in position:
                    raise NotInSpan(f"[{basis[i]!r},{basis[j]!r}] has {b!r}, outside the basis")
                if type(c) is not int:
                    raise InvariantViolation(f"non-integral structure constant {c!r}")
                terms.append((position[b], c))
            table[(i, j)] = terms[0] if len(terms) == 1 else tuple(terms)
    return basis, table


def basis_by_kinds(P):
    """The basis of P built kind by kind from its relations, as the
    package did before it read each element off its leading position."""
    out = []
    if P.family == "A":
        for i in range(1, P.n):
            out.append(algebra.BasisElement("A", "DA", i))
        for x, y in strict_relations(P):
            out.append(algebra.BasisElement("A", "EA", x, y))
    else:
        fam = P.family
        for i in range(1, P.n + 1):
            out.append(algebra.BasisElement(fam, "H", i))
        for x, y in P.relations:
            if x < 0 and y < 0 and x != y:
                out.append(algebra.BasisElement(fam, "X", -x, -y))
        seen_pairs = set()
        for x, y in P.relations:
            if x < 0 < y and -x != y:
                pair = (min(-x, y), max(-x, y))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if fam == "C":
                    out.append(algebra.BasisElement(fam, "Y", pair[0], pair[1]))
                else:
                    out.append(algebra.BasisElement(fam, "Y", pair[1], pair[0]))
        if fam == "C":
            for i in range(1, P.n + 1):
                if (-i, i) in P.relations:
                    out.append(algebra.BasisElement(fam, "Z", i))
        if fam == "B":
            for j in range(1, P.n + 1):
                if (-j, 0) in P.relations:
                    out.append(algebra.BasisElement(fam, "U", j))
    out.sort(key=algebra.BasisElement.sort_key)
    return tuple(out)


def functional_value(F, mat):
    """F applied to a sparse {(row, col): value} matrix."""
    weights = dict(F.support)
    return sum(weights.get(key, 0) * v for key, v in mat.items())


def realize_combination(terms):
    """Realize a {BasisElement: coefficient} combination as one sparse matrix.

    Coefficients are ints or Fractions; sums that cancel to zero are
    dropped.
    """
    out = {}
    for b, c in terms.items():
        for key, v in algebra.realize(b).items():
            out[key] = out.get(key, 0) + v * c
    return {key: v for key, v in out.items() if v}


def point_by_realizations(F, P):
    """{element: F(realization)} over the basis of P, in basis order."""
    basis, _ = algebra.structure_constants(P)
    return {b: functional_value(F, algebra.realize(b)) for b in basis}
