"""Command line interface.

Exit codes: 0 success, 1 computation-level failure (a precondition such
as Frobeniusness fails, or the two index methods disagree), 2 input
errors (unparseable input, poset axiom violations, bad flag combinations).
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext

import click

from . import __version__, formats
from .algebra import matrix_form, verify_B_reduction, verify_CD_isomorphism
from .errors import (
    InputParseError,
    LiePosetError,
    PosetConstructionError,
    UnsupportedPoset,
)
from .frobenius import (
    frobenius_functional,
    is_frobenius_by_graph,
    principal_element,
    spectrum,
)
from .harness import CampaignConfig, report_json_bytes, report_text, run_campaign
from .index_engine import (
    ORACLE_TRIALS,
    index_formula,
    index_oracle,
    reduce as reduce_poset,
)
from .posets import enumerate_h01, relation_graph

INPUT_EXIT = 2
COMPUTE_EXIT = 1


def _echo_error(exc, as_json):
    payload = {"error": exc.code, "message": str(exc)}
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(f"error[{exc.code}]: {exc}", err=True)


def _open(path, mode, **kwargs):
    """open(), with a file that cannot be opened reported as an input error."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise InputParseError(f"cannot open {path!r}: {exc.strerror}") from None


def _load_poset(inline, path, strict=False):
    if (inline is None) == (path is None):
        raise InputParseError("give exactly one of --poset or --input")
    if inline is not None:
        return formats.parse_inline(inline, strict=strict)
    if path == "-":
        return formats.parse_poset(sys.stdin.read(), strict=strict)
    with _open(path, "r", encoding="utf-8") as handle:
        return formats.parse_poset(handle.read(), strict=strict)


def poset_options(fn):
    fn = click.option("--poset", "-p", "inline", default=None,
                      help="inline poset, e.g. 'C;3;-2<=1,-2<=3,-3<=2'")(fn)
    fn = click.option("--input", "-i", "path", default=None,
                      help="poset file (text or JSON); '-' reads stdin")(fn)
    return fn


def run_command(fn):
    """Translate domain errors, and a --trials below 1, into the documented exit codes."""

    def wrapper(*args, **kwargs):
        as_json = kwargs.get("fmt") == "json"
        try:
            if kwargs.get("trials", 1) < 1:
                raise InputParseError("trials must be >= 1")
            return fn(*args, **kwargs)
        except ValueError as exc:
            _echo_error(InputParseError(str(exc)), as_json)
            sys.exit(INPUT_EXIT)
        except (InputParseError, PosetConstructionError) as exc:
            _echo_error(exc, as_json)
            sys.exit(INPUT_EXIT)
        except LiePosetError as exc:
            _echo_error(exc, as_json)
            sys.exit(COMPUTE_EXIT)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _echo_fields(out, fmt):
    """out as one JSON object, or one `key: value` line per key, keys sorted."""
    if fmt == "json":
        click.echo(json.dumps(out, sort_keys=True))
    else:
        for key in sorted(out):
            click.echo(f"{key}: {out[key]}")


def format_option(*choices):
    def deco(fn):
        return click.option(
            "--format", "fmt", type=click.Choice(choices), default="text",
            show_default=True, help="output format")(fn)

    return deco


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="lieposet")
def main():
    """Exact tools for Lie poset algebras of types A, B, C and D."""


@main.command(name="validate")
@poset_options
@click.option("--strict", is_flag=True, help="reject generators missing their mirror")
@format_option("text", "json")
@run_command
def validate_cmd(inline, path, strict, fmt):
    """Parse and validate a poset; exit 2 on any axiom violation."""
    # every parser builds the poset through build_poset, which validates it
    P = _load_poset(inline, path, strict=strict)
    if fmt == "json":
        click.echo(json.dumps({"valid": True, "poset": formats.poset_to_json_obj(P)},
                              sort_keys=True))
    else:
        click.echo(f"valid: {P!r}")


@main.command()
@poset_options
@click.option("--method", type=click.Choice(["formula", "oracle", "both"]),
              default="both", show_default=True)
@click.option("--trials", type=int, default=ORACLE_TRIALS, show_default=True,
              metavar="N", help="at most N evaluations")
@click.option("--seed", type=int, default=0, show_default=True)
@format_option("text", "json")
@run_command
def index(inline, path, method, trials, seed, fmt):
    """Compute the algebra's index by formula, oracle, or both."""
    P = _load_poset(inline, path)
    out = {"seed": seed, "trials": trials}
    if method in ("formula", "both"):
        try:
            out["formula"] = index_formula(P)
        except LiePosetError as exc:
            if method == "formula":
                raise
            out["formula_error"] = exc.code
    if method in ("oracle", "both"):
        out["oracle"] = index_oracle(P, trials=trials, seed=seed)
    if "formula" in out and "oracle" in out:
        out["agreement"] = out["formula"] == out["oracle"]
    _echo_fields(out, fmt)
    if not out.get("agreement", True):
        sys.exit(COMPUTE_EXIT)


@main.command(name="reduce")
@poset_options
@click.option("--seed", type=int, default=0, show_default=True)
@format_option("text", "json", "dot")
@run_command
def reduce_cmd(inline, path, seed, fmt):
    """Replay the graph-guided row reduction and print its trace."""
    P = _load_poset(inline, path)
    trace = reduce_poset(P, seed=seed)
    if fmt == "json":
        click.echo(json.dumps(formats.reduction_trace_json_obj(trace),
                              sort_keys=True))
    elif fmt == "dot":
        click.echo(formats.reduction_trace_dot(trace), nl=False)
    else:
        click.echo(formats.reduction_trace_text(trace), nl=False)


@main.command()
@poset_options
@click.option("--trials", type=int, default=ORACLE_TRIALS, show_default=True,
              metavar="N", help="at most N evaluations")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--check-oracle", is_flag=True,
              help="also compare against the index oracle")
@format_option("text", "json")
@run_command
def frobenius(inline, path, trials, seed, check_oracle, fmt):
    """Decide Frobeniusness by the relation-graph criterion."""
    P = _load_poset(inline, path)
    out = {"frobenius": is_frobenius_by_graph(P)}
    if check_oracle:
        out["oracle_index"] = index_oracle(P, trials=trials, seed=seed)
        out["seed"] = seed
        out["agreement"] = (out["oracle_index"] == 0) == out["frobenius"]
    _echo_fields(out, fmt)
    if not out.get("agreement", True):
        sys.exit(COMPUTE_EXIT)


@main.command()
@poset_options
@click.option("--check-closed-form", is_flag=True,
              help="report how the solved diagonal relates to the +/-1/2 pattern")
@format_option("text", "json")
@run_command
def principal(inline, path, check_closed_form, fmt):
    """Solve for the principal element of the standard Frobenius functional."""
    P = _load_poset(inline, path)
    F = frobenius_functional(P)
    element = principal_element(P, F)
    obj = formats.principal_element_json_obj(element)
    # principal_element raises SingularForm unless the Kirillov form has
    # full rank, so its kernel is 0 and need not be eliminated again
    obj["kernel_dim"] = 0
    if check_closed_form:
        obj["half_entries"] = element.diagonal is not None and all(
            abs(v) * 2 == 1 for e, v in element.diagonal if e != 0
        )
    if fmt == "json":
        click.echo(json.dumps(obj, sort_keys=True))
    else:
        click.echo(f"coefficients: {obj['coefficients']}")
        click.echo(f"diagonal: {obj['diagonal']}")
        click.echo(f"half_convention: {obj['half_convention']}")
        if check_closed_form:
            click.echo(f"half_entries: {obj['half_entries']}")


@main.command(name="spectrum")
@poset_options
@format_option("text", "json")
@run_command
def spectrum_cmd(inline, path, fmt):
    """Eigenvalue multiset of the adjoint action of the principal element."""
    P = _load_poset(inline, path)
    element = principal_element(P, frobenius_functional(P))
    report = spectrum(P, element)
    obj = formats.spectrum_json_obj(report)
    if fmt == "json":
        click.echo(json.dumps(obj, sort_keys=True))
    else:
        pairs = ", ".join(f"{v}: {m}" for v, m in sorted(obj["eigenvalues"].items()))
        click.echo("spectrum: {" + pairs + "}")
        click.echo(f"binary: {report.is_binary}")


@main.command()
@click.option("--family", type=click.Choice(["B", "C", "D"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--up-to-iso", is_flag=True,
              help="one representative per graph isomorphism class")
@format_option("text", "json")
@run_command
def enumerate(family, n, up_to_iso, fmt):
    """Stream every height-(0,0)/(0,1) poset of the family, one per line."""
    for P in enumerate_h01(family, n, up_to_iso=up_to_iso):
        if fmt == "json":
            click.echo(json.dumps(formats.poset_to_json_obj(P), sort_keys=True))
        else:
            click.echo(repr(P))


@main.command()
@click.option("--families", default="C:3,D:3,B:2", show_default=True,
              help="comma list of FAMILY:N_MAX pairs")
@click.option("--checks", default="", help="comma list of checks (default: all)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=ORACLE_TRIALS, show_default=True,
              metavar="N", help="at most N evaluations")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--output", type=click.Path(), default=None,
              help="write the JSON report here")
@format_option("text", "json")
@run_command
def verify(families, checks, seed, trials, jobs, output, fmt):
    """Run the exhaustive verification campaign; exit 1 on any failure."""
    plan = []
    try:
        for chunk in families.split(","):
            fam, _, n_max = chunk.strip().partition(":")
            plan.append((fam, int(n_max)))
    except ValueError:
        raise InputParseError(f"bad --families value {families!r}") from None
    chosen = tuple(c for c in (s.strip() for s in checks.split(",")) if c)
    cfg = CampaignConfig(plan=tuple(plan), checks=chosen, seed=seed,
                         trials=trials, jobs=jobs)
    # open the output before any poset runs, so an unwritable path exits 2
    # at once
    with _open(output, "wb") if output else nullcontext() as handle:
        report = run_campaign(cfg)
        payload = report_json_bytes(report)
        if handle:
            handle.write(payload)
    if fmt == "json":
        click.echo(payload.decode(), nl=False)
    else:
        click.echo(f"seed: {seed}")
        click.echo(report_text(report), nl=False)
    if report["failures"]:
        sys.exit(COMPUTE_EXIT)


@main.command()
@poset_options
@click.option("--what", type=click.Choice(
    ["hasse", "relation-graph", "matrix-form", "commutator", "structure-constants"]),
    default="hasse", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "dot"]),
              help="output format  [default: dot for hasse and relation-graph, "
                   "text otherwise]")
@run_command
def export(inline, path, what, fmt):
    """Export diagrams and tables (DOT for graphs, text/JSON for tables)."""
    allowed = {
        "hasse": ("dot",),
        "relation-graph": ("dot",),
        "matrix-form": ("text", "json"),
        "commutator": ("text", "json"),
        "structure-constants": ("text", "json"),
    }[what]
    fmt = fmt or allowed[0]
    if fmt not in allowed:
        raise InputParseError(f"--what {what} supports formats {allowed}")
    P = _load_poset(inline, path)
    if what == "hasse":
        click.echo(formats.hasse_dot(P), nl=False)
    elif what == "relation-graph":
        click.echo(formats.relation_graph_dot(relation_graph(P)), nl=False)
    elif what == "matrix-form":
        if fmt == "json":
            click.echo(json.dumps(
                {"positions": [list(c) for c in sorted(matrix_form(P))]},
                sort_keys=True))
        else:
            click.echo(formats.matrix_form_text(P), nl=False)
    elif what == "commutator":
        if fmt == "json":
            click.echo(json.dumps(formats.commutator_matrix_json_obj(P),
                                  sort_keys=True))
        else:
            click.echo(formats.commutator_matrix_text(P), nl=False)
    else:
        if fmt == "json":
            click.echo(json.dumps(formats.structure_constants_json_obj(P),
                                  sort_keys=True))
        else:
            click.echo(formats.structure_constants_text(P), nl=False)


@main.command(name="isomorphism")
@poset_options
@format_option("text", "json")
@run_command
def isomorphism(inline, path, fmt):
    """Check the D-to-C sign rescaling or the B-to-D reduction, by family."""
    P = _load_poset(inline, path)
    if P.family == "D":
        eps = verify_CD_isomorphism(P)
        out = {"kind": "D=C", "eps": list(eps)}
    elif P.family == "B":
        verify_B_reduction(P)
        out = {"kind": "B=D0"}
    else:
        raise UnsupportedPoset("isomorphism checks apply to families B and D")
    _echo_fields(out, fmt)


if __name__ == "__main__":
    main()
