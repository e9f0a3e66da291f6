"""Frobenius functionals, principal elements, and spectra.

A height-(0,1) signed poset has index zero exactly when every connected
component of its relation graph is unicyclic with an odd cycle (a self
loop counts).  For such posets the standard functional picks out the
entry (-min, max) of every edge and (-i, i) of every loop; the principal
element is always obtained by solving the linear system of the Kirillov
form rather than by assuming a closed form, because the two natural sign
orientations of the half-integer diagonal both occur in print.

Everything up to that solution is an integer: the standard functional has
weight 1, realizations have entries +/-1 and the structure constants are
ints, so the point, the Kirillov form and its elimination stay in ints
(`linalg`'s Bareiss loop).  Only the solution x has a denominator.  The
fixed-point identity and the spectrum are computed on the integer
multiple d*x, d the lcm of its denominators, and divided by d at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    combo_bracket,
    matrix_form,
    realize,
    realize_combination,
    structure_constants,
)
from .errors import InvariantViolation, NonEigenbasis, NotFrobenius, SingularForm
from .index_engine import commutator_matrix
from .posets import graph_components, relation_graph


@dataclass(frozen=True)
class Functional:
    """A linear functional given by entry extractors (row, col) -> weight."""

    support: tuple  # sorted ((row, col), weight) pairs

    @property
    def coefficients(self):
        return dict(self.support)

    def value_on(self, mat):
        return sum(weight * mat.get(r, c) for (r, c), weight in self.support)

    def point(self, P):
        """Induced assignment basis element -> value on its realization."""
        basis, _ = structure_constants(P)
        return {b: self.value_on(realize(b)) for b in basis}


def functional(P, coefficients):
    """Validate entry extractors against the matrix form of P.

    Integral weights are stored as ints, others as Fractions.
    """
    allowed = matrix_form(P)
    support = []
    for (r, c), weight in sorted(coefficients.items()):
        weight = Fraction(weight)
        if weight.denominator == 1:
            weight = weight.numerator
        if not weight:
            continue
        if (r, c) not in allowed:
            raise ValueError(f"position ({r},{c}) is not in the matrix form")
        support.append(((r, c), weight))
    return Functional(tuple(support))


def is_frobenius_by_graph(P):
    """Every relation-graph component unicyclic with its unique cycle odd."""
    comps = graph_components(relation_graph(P))
    return all(c.is_unicyclic and c.has_odd_cycle for c in comps)


def frobenius_functional(P):
    """The edge-plus-loop functional; nonsingular on Frobenius posets."""
    if not is_frobenius_by_graph(P):
        raise NotFrobenius("the relation graph criterion fails")
    G = relation_graph(P)
    coeffs = {(-i, j): Fraction(1) for (i, j) in G.edges}
    coeffs.update({(-v, v): Fraction(1) for v in G.loops})
    return functional(P, coeffs)


def kernel_dim(P, F):
    """Exact kernel dimension of the Kirillov form of F."""
    C = commutator_matrix(P)
    return C.dim - C.evaluate(F.point(P)).rank()


@dataclass(frozen=True)
class PrincipalElement:
    """Solution x of B_F(x, -) = F, in basis coordinates.

    diagonal holds (element, entry) pairs of the realized matrix when it
    is diagonal, else None.  half_convention records the orientation of a
    +/-1/2 diagonal: "negatives-plus-half" when every negative row
    carries +1/2, "positives-plus-half" for the opposite, else "other".
    """

    coefficients: tuple  # (BasisElement, Fraction) pairs in basis order
    diagonal: tuple
    half_convention: str

    def as_combination(self):
        return dict(self.coefficients)

    def realized(self):
        return realize_combination(self.as_combination())


def principal_element(P, F):
    basis, _ = structure_constants(P)
    C = commutator_matrix(P)
    point = F.point(P)
    B = C.evaluate(point)
    if B.rank() < C.dim:
        raise SingularForm("the Kirillov form of F is singular")
    rhs = [-point[b] for b in basis]
    solution = B.solve(rhs)
    if solution is None:
        raise SingularForm("the Kirillov form of F has no solution for -F")
    coefficients = tuple((b, Fraction(v)) for b, v in zip(basis, solution) if v)
    d, xmat = _integer_multiple(coefficients)
    for b in basis:
        # fixed point identity F(ad(x)(b)) == F(b), checked in ints on
        # X = d*x as F(ad(X)(b)) == d*F(b); point[b] is F(b)
        if F.value_on(xmat.commutator(realize(b))) != d * point[b]:
            raise InvariantViolation(f"fixed-point identity F(ad(x)({b})) = F({b}) fails")
    fmat = xmat.scaled(Fraction(1, d))
    diagonal = None
    convention = "other"
    if all(r == c for (r, c) in fmat.entries):
        diagonal = tuple((e, fmat.get(e, e)) for e in P.elements)
        diag = dict(diagonal)
        half = Fraction(1, 2)
        positives = [e for e in P.elements if e > 0]
        if all(diag[-e] == half and diag[e] == -half for e in positives):
            convention = "negatives-plus-half"
        elif all(diag[e] == half and diag[-e] == -half for e in positives):
            convention = "positives-plus-half"
    return PrincipalElement(
        coefficients=coefficients,
        diagonal=diagonal,
        half_convention=convention,
    )


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple  # sorted, with multiplicity
    dim: int
    is_binary: bool
    zero_count: int
    one_count: int

    def multiplicities(self):
        out = {}
        for value in self.eigenvalues:
            out[value] = out.get(value, 0) + 1
        return out


def spectrum(P, fhat):
    """Eigenvalues of ad(fhat) on the algebra of P, computed exactly.

    Each basis element is tried as an eigenvector first; if any fails,
    the full ad matrix is permuted to triangular form when its off
    diagonal dependency graph is acyclic, and NonEigenbasis is raised
    otherwise.  The eigenvector brackets are taken in ints with d*fhat,
    d the common denominator of its coefficients, and each eigenvalue is
    divided by d.
    """
    basis, _ = structure_constants(P)
    d, xmat = _integer_multiple(fhat.coefficients)
    eigenvalues = []
    shortcut_ok = True
    for b in basis:
        bmat = realize(b)
        # eigenvalue of ad(d*fhat), in ints, over d
        lam = _scalar_multiple(xmat.commutator(bmat), bmat)
        if lam is None:
            shortcut_ok = False
            break
        eigenvalues.append(lam / d)
    if not shortcut_ok:
        eigenvalues = _triangularized_eigenvalues(P, fhat, basis)
    eigenvalues = tuple(sorted(eigenvalues))
    counts = {}
    for value in eigenvalues:
        counts[value] = counts.get(value, 0) + 1
    dim = len(basis)
    zero = counts.get(Fraction(0), 0)
    one = counts.get(Fraction(1), 0)
    is_binary = dim % 2 == 0 and zero == one == dim // 2 and zero + one == dim
    return SpectrumReport(
        eigenvalues=eigenvalues,
        dim=dim,
        is_binary=is_binary,
        zero_count=zero,
        one_count=one,
    )


def _integer_multiple(coefficients):
    """(d, realization of d*x) for x given as (element, coefficient) pairs.

    d is the lcm of the coefficient denominators, so d*x has int
    coefficients and its realization int entries.
    """
    d = 1
    for _, v in coefficients:
        d = lcm(d, v.denominator)
    return d, realize_combination(
        {b: v.numerator * (d // v.denominator) for b, v in coefficients}
    )


def _scalar_multiple(com, bmat):
    """lam with com == lam * bmat, or None.

    Entries may both be ints, so lam is built as a Fraction, never by `/`.
    """
    if not com:
        return Fraction(0)
    key = next(iter(bmat.entries))
    lam = Fraction(com.get(*key), bmat.entries[key])
    return lam if com == bmat.scaled(lam) else None


def _triangularized_eigenvalues(P, fhat, basis):
    position = {b: k for k, b in enumerate(basis)}
    fh = {position[b]: v for b, v in fhat.as_combination().items()}
    columns = [combo_bracket(P, fh, {k: Fraction(1)}) for k in range(len(basis))]
    # ad is triangularizable by permutation iff this digraph is acyclic
    succ = {k: set() for k in range(len(basis))}
    for col, terms in enumerate(columns):
        for row in terms:
            if row != col:
                succ[row].add(col)
    order = []
    state = {}

    def visit(u):
        state[u] = 1
        for w in sorted(succ[u]):
            if state.get(w) == 1:
                raise NonEigenbasis("ad matrix is not permutation triangular")
            if w not in state:
                visit(w)
        state[u] = 2
        order.append(u)

    for u in range(len(basis)):
        if u not in state:
            visit(u)
    return [columns[k].get(k, Fraction(0)) for k in range(len(basis))]
