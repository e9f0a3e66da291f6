"""Poset file formats, DOT export, and structured dumps.

The text format is one header line ``family=<A|B|C|D> n=<int>`` followed
by one generator per line, ``x <= y``.  The JSON variant mirrors the same
fields: ``{"family": "C", "n": 3, "relations": [[-2, 1], [-3, 2]]}``.
Relations listed in either format are generators; reflexive, transitive
and mirror closure happens on load.  Serialization writes the covering
relations, which regenerate the poset exactly.

All emitters sort their output, so equal inputs produce byte-identical
files.  Only the matrix-form and table emitters need `algebra`, and they
import it when called, so parsing, the poset dumps and the DOT exports
of a cold query do not load it.
"""

from __future__ import annotations

import json

from .errors import InputParseError
from .posets import build_poset, covering_relations


def poset_to_text(P):
    lines = [f"family={P.family} n={P.n}"]
    lines += [f"{x} <= {y}" for x, y in covering_relations(P)]
    return "\n".join(lines) + "\n"


def _generator(text, label, shown):
    """(x, y) from ``x <= y``; for anything else InputParseError names the
    input as ``label 'shown'``."""
    left, sep, right = text.partition("<=")
    if sep:
        try:
            return int(left), int(right)
        except ValueError:
            pass
    raise InputParseError(f"{label} {shown!r}")


def parse_poset_text(text, strict=False):
    header = None
    generators = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            tokens = [token.partition("=") for token in line.split()]
            fields = {key: value for key, sep, value in tokens if sep}
            # exactly two key=value tokens, family and n, each once
            if len(tokens) != 2 or sorted(fields) != ["family", "n"]:
                raise InputParseError(f"bad header line {raw!r}")
            try:
                header = (fields["family"], int(fields["n"]))
            except ValueError:
                raise InputParseError(f"bad n in header {raw!r}") from None
            continue
        generators.append(_generator(line, "bad relation line", raw))
    if header is None:
        raise InputParseError("missing header line 'family=<F> n=<int>'")
    return build_poset(header[0], header[1], generators, strict=strict)


def poset_to_json_obj(P):
    return {
        "family": P.family,
        "n": P.n,
        "relations": [list(pair) for pair in covering_relations(P)],
    }


def parse_poset_json(obj, strict=False):
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise InputParseError(f"bad JSON: {exc}") from None
    try:
        family = obj["family"]
        n = obj["n"]
        generators = [tuple(pair) for pair in obj.get("relations", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"bad poset object: {exc}") from None
    # JSON reads 2.5 as a float and true as a bool, which int() would
    # quietly take as 2 and 1
    if type(n) is not int:
        raise InputParseError(f"n must be an integer, got {n!r}")
    for pair in generators:
        if len(pair) != 2:
            raise InputParseError(f"relation entries must be pairs of integers: {list(pair)}")
        if any(type(x) is not int for x in pair):
            raise InputParseError(f"relation entries must be integers: {list(pair)}")
    return build_poset(family, n, generators, strict=strict)


def parse_poset(text, strict=False):
    """Sniff text vs JSON poset input by the first non-space character."""
    stripped = text.lstrip()
    if not stripped:
        raise InputParseError("empty poset input")
    if stripped[0] == "{":
        return parse_poset_json(stripped, strict=strict)
    return parse_poset_text(text, strict=strict)


def parse_inline(text, strict=False):
    """Parse the one-line form ``C;3;-2<=1,-2<=3,-3<=2``."""
    parts = text.split(";")
    if len(parts) != 3:
        raise InputParseError("inline poset must be 'FAMILY;N;GEN,GEN,...'")
    family = parts[0].strip()
    try:
        n = int(parts[1])
    except ValueError:
        raise InputParseError(f"bad n {parts[1]!r}") from None
    generators = []
    for chunk in parts[2].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        generators.append(_generator(chunk, "bad generator", chunk))
    return build_poset(family, n, generators, strict=strict)


def hasse_dot(P):
    """Hasse diagram in DOT, edges pointing upward in the order."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in P.elements:
        lines.append(f'  "{e}";')
    for x, y in covering_relations(P):
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def relation_graph_dot(G):
    lines = ["graph relation_graph {"]
    for v in G.vertices:
        lines.append(f'  "{v}";')
    for i, j in sorted(G.edges):
        lines.append(f'  "{i}" -- "{j}";')
    for v in sorted(G.loops):
        lines.append(f'  "{v}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_form_text(P):
    """The permitted-entry pattern as a grid of '*' and '.'."""
    from .algebra import matrix_form

    allowed = matrix_form(P)
    labels = P.elements
    width = max(len(str(e)) for e in labels)
    head = " " * (width + 1) + " ".join(f"{e:>{width}}" for e in labels)
    lines = [head]
    for r in labels:
        cells = " ".join(
            f"{'*' if (r, c) in allowed else '.':>{width}}" for c in labels
        )
        lines.append(f"{r:>{width}}  {cells}")
    return "\n".join(lines) + "\n"


def matrix_form_json_obj(P):
    from .algebra import matrix_form

    return {"positions": [list(c) for c in sorted(matrix_form(P))]}


def linear_form_str(cell):
    """Render one (k, c) pair as c times the symbol x<k+1>, and None as 0."""
    if cell is None:
        return "0"
    k, c = cell
    symbol = f"x{k + 1}"
    if c == 1:
        return symbol
    if c == -1:
        return f"-{symbol}"
    return f"{c}*{symbol}"


def _commutator_grid(P):
    """The basis of P and every entry of its commutator matrix: one (k, c)
    pair, or None where the entry is zero."""
    from .algebra import structure_constants

    basis, table = structure_constants(P)
    grid = [[None] * len(basis) for _ in basis]
    for (i, j), (k, c) in table.items():
        grid[i][j] = (k, c)
        grid[j][i] = (k, -c)
    return basis, grid


def commutator_matrix_text(P):
    basis, grid = _commutator_grid(P)
    cells = [[linear_form_str(cell) for cell in row] for row in grid]
    width = max((len(cell) for row in cells for cell in row), default=1)
    lines = [
        "basis: " + ", ".join(f"x{k + 1}={b!r}" for k, b in enumerate(basis))
    ]
    for row in cells:
        lines.append("  [ " + "  ".join(f"{cell:>{width}}" for cell in row) + " ]")
    return "\n".join(lines) + "\n"


def commutator_matrix_json_obj(P):
    basis, grid = _commutator_grid(P)
    return {
        "basis": [repr(b) for b in basis],
        "entries": [
            [[] if cell is None else [[cell[0], str(cell[1])]] for cell in row]
            for row in grid
        ],
    }


def structure_constants_text(P):
    from .algebra import structure_constants

    basis, table = structure_constants(P)
    lines = ["basis: " + ", ".join(repr(b) for b in basis)]
    for (i, j), (k, c) in sorted(table.items()):
        rhs = f"{c}*{basis[k]!r}" if c != 1 else repr(basis[k])
        lines.append(f"[{basis[i]!r}, {basis[j]!r}] = {rhs}")
    return "\n".join(lines) + "\n"


def structure_constants_json_obj(P):
    from .algebra import structure_constants

    basis, table = structure_constants(P)
    return {
        "basis": [repr(b) for b in basis],
        "brackets": [
            {"i": i, "j": j, "terms": [[k, str(c)]]}
            for (i, j), (k, c) in sorted(table.items())
        ],
    }


def reduction_step_json_obj(step, rank):
    return {
        "kind": step.kind,
        "detail": step.detail,
        "edges": [list(e) for e in step.edges],
        "loops": list(step.loops),
        "rows": [
            {"label": label, "values": [str(v) for v in values]}
            for label, values in zip(step.row_labels, step.matrix)
        ],
        "rank": rank,
    }


def reduction_trace_json_obj(trace):
    return {
        "poset": poset_to_json_obj(trace.poset),
        "seed": trace.seed,
        "edge_values": [[list(e), str(v)] for e, v in trace.edge_values],
        "loop_values": [[v, str(x)] for v, x in trace.loop_values],
        "initial": reduction_step_json_obj(trace.initial, trace.final_rank),
        "steps": [reduction_step_json_obj(s, trace.final_rank) for s in trace.steps],
        "final_rank": trace.final_rank,
    }


def reduction_trace_text(trace):
    lines = [
        f"reduction of {trace.poset!r} (seed {trace.seed})",
        f"  start: edges={list(trace.initial.edges)} loops={list(trace.initial.loops)} "
        f"rank={trace.final_rank}",
    ]
    for k, step in enumerate(trace.steps, start=1):
        lines.append(
            f"  step {k}: {step.kind}: {step.detail}; "
            f"edges={list(step.edges)} loops={list(step.loops)} rank={trace.final_rank}"
        )
    lines.append(f"  final rank: {trace.final_rank}")
    return "\n".join(lines) + "\n"


def reduction_trace_dot(trace):
    """One DOT graph per snapshot, concatenated."""
    chunks = []
    for k, step in enumerate((trace.initial,) + trace.steps):
        lines = [f"graph step{k} {{", f'  label="{step.kind}";']
        seen = set()
        for i, j in step.edges:
            seen.update((i, j))
            lines.append(f'  "{i}" -- "{j}";')
        for v in step.loops:
            seen.add(v)
            lines.append(f'  "{v}" -- "{v}";')
        for v in range(1, trace.poset.n + 1):
            if v not in seen:
                lines.append(f'  "{v}";')
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"


def spectrum_json_obj(report):
    return {
        "eigenvalues": {
            str(v): m for v, m in sorted(report.multiplicities().items())
        },
        "dim": report.dim,
        "is_binary": report.is_binary,
        "zero_count": report.zero_count,
        "one_count": report.one_count,
    }


def principal_element_json_obj(element):
    return {
        "coefficients": {repr(b): str(v) for b, v in element.coefficients},
        "diagonal": None
        if element.diagonal is None
        else {str(e): str(v) for e, v in element.diagonal},
        "half_convention": element.half_convention,
    }
