import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from lieposet import (
    CampaignConfig,
    cli,
    formats,
    frobenius_functional,
    harness,
    algebra,
    index_formula,
    index_oracle,
    linalg,
    principal_element,
    reduce,
    report_json_bytes,
    report_text,
    run_campaign,
    spectrum,
)
from lieposet.cli import main
from lieposet.formats import parse_inline, poset_to_text

LOOPED_PATH = "C;3;-2<=1,-2<=2,-2<=3,-3<=2,-1<=2"
TRIANGLE = "C;3;-1<=2,-1<=3,-2<=3"


@pytest.fixture
def runner():
    return CliRunner()


def test_validate_ok(runner):
    result = runner.invoke(main, ["validate", "-p", "C;2;-1<=2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["valid"] is True


@pytest.mark.parametrize("header", ["family=C n=2 junk", "family=C n=2 n=3"],
                         ids=["junk", "repeated-key"])
def test_validate_rejects_a_bad_header_exit_2(runner, tmp_path, header):
    bad = tmp_path / "bad.poset"
    bad.write_text(header + "\n-2 <= 1\n")
    result = runner.invoke(main, ["validate", "-i", str(bad), "--format", "json"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == "InputParseError"


def test_validate_condition1_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("family=C n=2\n2 <= 1\n")
    result = runner.invoke(main, ["validate", "-i", str(bad)])
    assert result.exit_code == 2
    assert "Condition1Violation" in result.output


def test_validate_reads_stdin(runner, path_poset):
    result = runner.invoke(main, ["validate", "-i", "-"], input=poset_to_text(path_poset))
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "text",
    ['{"family": "C", "n": 2.5}', '{"family": "C", "n": true}',
     '{"family": "C", "n": 2, "relations": [[-2, 1.0]]}'],
    ids=["float-n", "bool-n", "float-entry"],
)
def test_json_poset_needs_integers(runner, text):
    # a float or a bool is no integer, though int() takes 2.5 as 2 and true as 1
    result = runner.invoke(main, ["validate", "-i", "-", "--format", "json"], input=text)
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == "InputParseError"


def test_version_without_installed_metadata(runner):
    # the package runs from the source tree, where no distribution
    # metadata exists; the version comes from lieposet.__version__
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert "0.1.0" in result.output


def test_missing_input_is_exit_2(runner):
    result = runner.invoke(main, ["index"])
    assert result.exit_code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["missing.poset", "."])
def test_unreadable_input_file_is_exit_2(runner, tmp_path, name, fmt):
    # a missing file or a directory is an input error, not a traceback
    result = runner.invoke(
        main, ["index", "-i", str(tmp_path / name), "--format", fmt]
    )
    assert result.exit_code == 2
    if fmt == "json":
        assert json.loads(result.output)["error"] == "InputParseError"
    else:
        assert "error[InputParseError]" in result.output


def test_index_both_methods(runner):
    result = runner.invoke(
        main, ["index", "-p", LOOPED_PATH, "--method", "both", "--format", "json"]
    )
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["formula"] == 0 and out["oracle"] == 0 and out["agreement"] is True
    assert out["seed"] == 0  # randomized paths must echo the seed


def test_index_formula_unsupported_without_fallback(runner):
    result = runner.invoke(main, ["index", "-p", "C;2;-2<=1,1<=2", "--method", "formula"])
    assert result.exit_code == 1
    assert "UnsupportedPoset" in result.output
    # the oracle is not a formula, and no option passes it off as one
    gone = runner.invoke(main, ["index", "-p", "C;2;-2<=1,1<=2", "--fallback", "oracle"])
    assert gone.exit_code == 2


FAMILY_A = "A;3;1<=2"


@pytest.mark.parametrize(
    "args",
    [["frobenius", "--check-oracle", "--format", "json"],
     ["spectrum", "--format", "json"],
     ["principal", "--format", "json"]],
    ids=["frobenius-check-oracle", "spectrum", "principal"],
)
def test_family_a_without_relation_graph_exits_1(runner, args):
    result = runner.invoke(main, [args[0], "-p", FAMILY_A, *args[1:]])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "error": "UnsupportedPoset",
        "message": "relation graphs apply to families B, C, D",
    }


def test_family_a_relation_graph_export_exits_1(runner):
    result = runner.invoke(main, ["export", "-p", FAMILY_A, "--what", "relation-graph",
                                  "--format", "dot"])
    assert result.exit_code == 1
    assert result.output == (
        "error[UnsupportedPoset]: relation graphs apply to families B, C, D\n"
    )


def test_family_a_index_both_reports_the_formula_error(runner):
    # where no formula applies (family A, or a non-separable poset of
    # height (1,2)), --method both prints the formula's error code beside
    # the oracle, with nothing to agree with
    for poset in (FAMILY_A, "C;2;-2<=1,1<=2"):
        result = runner.invoke(main, ["index", "-p", poset, "--format", "json"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["formula_error"] == "UnsupportedPoset" and "formula" not in out
        assert out["oracle"] == index_oracle(parse_inline(poset))
        assert "agreement" not in out


def test_spectrum_triangle(runner):
    result = runner.invoke(main, ["spectrum", "-p", TRIANGLE])
    assert result.exit_code == 0
    assert "spectrum: {0: 3, 1: 3}" in result.output
    assert "binary: True" in result.output


def test_spectrum_non_frobenius_exit_1(runner):
    result = runner.invoke(main, ["spectrum", "-p", "C;2;-1<=2"])
    assert result.exit_code == 1
    assert "NotFrobenius" in result.output


def test_principal_check_closed_form(runner):
    result = runner.invoke(
        main,
        ["principal", "-p", LOOPED_PATH, "--check-closed-form", "--format", "json"],
    )
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["half_convention"] == "negatives-plus-half"
    assert out["half_entries"] is True and out["kernel_dim"] == 0


def test_principal_eliminates_the_form_once(runner, monkeypatch):
    # a returned principal element proves the kernel is 0, so the CLI
    # does not eliminate the Kirillov form a second time for kernel_dim
    calls = []
    inner = linalg._bareiss

    def counted(m, ncols):
        calls.append(ncols)
        return inner(m, ncols)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    result = runner.invoke(main, ["principal", "-p", TRIANGLE, "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["kernel_dim"] == 0
    assert len(calls) == 1


def test_frobenius_with_oracle(runner):
    result = runner.invoke(
        main, ["frobenius", "-p", TRIANGLE, "--check-oracle", "--format", "json"]
    )
    out = json.loads(result.output)
    assert out == {
        "agreement": True, "frobenius": True, "oracle_index": 0, "seed": 0,
    }


def test_reduce_trace(runner):
    result = runner.invoke(main, ["reduce", "-p", TRIANGLE, "--seed", "4"])
    assert result.exit_code == 0
    assert "OddCycleElim" in result.output and "final rank: 3" in result.output
    as_dot = runner.invoke(main, ["reduce", "-p", TRIANGLE, "--format", "dot"])
    assert as_dot.output.count("graph step") >= 2


def test_enumerate_counts(runner):
    result = runner.invoke(main, ["enumerate", "--family", "C", "--n", "2"])
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 8
    as_json = runner.invoke(
        main, ["enumerate", "--family", "D", "--n", "2", "--format", "json"]
    )
    assert len(as_json.output.splitlines()) == 2


def test_enumerate_up_to_iso_output_pinned(runner):
    # the least mask of each relabelling orbit, in ascending mask order
    text = runner.invoke(main, ["enumerate", "--family", "C", "--n", "3", "--up-to-iso"])
    assert text.exit_code == 0
    assert text.stdout == """\
SignedPoset(C;3;)
SignedPoset(C;3;-2<=1,-1<=2)
SignedPoset(C;3;-3<=1,-2<=1,-1<=2,-1<=3)
SignedPoset(C;3;-3<=1,-3<=2,-2<=1,-2<=3,-1<=2,-1<=3)
SignedPoset(C;3;-1<=1)
SignedPoset(C;3;-2<=1,-1<=1,-1<=2)
SignedPoset(C;3;-3<=1,-2<=1,-1<=1,-1<=2,-1<=3)
SignedPoset(C;3;-3<=2,-2<=3,-1<=1)
SignedPoset(C;3;-3<=2,-2<=1,-2<=3,-1<=1,-1<=2)
SignedPoset(C;3;-3<=1,-3<=2,-2<=1,-2<=3,-1<=1,-1<=2,-1<=3)
SignedPoset(C;3;-2<=2,-1<=1)
SignedPoset(C;3;-2<=1,-2<=2,-1<=1,-1<=2)
SignedPoset(C;3;-3<=1,-2<=2,-1<=1,-1<=3)
SignedPoset(C;3;-3<=1,-2<=1,-2<=2,-1<=1,-1<=2,-1<=3)
SignedPoset(C;3;-3<=1,-3<=2,-2<=2,-2<=3,-1<=1,-1<=3)
SignedPoset(C;3;-3<=1,-3<=2,-2<=1,-2<=2,-2<=3,-1<=1,-1<=2,-1<=3)
SignedPoset(C;3;-3<=3,-2<=2,-1<=1)
SignedPoset(C;3;-3<=3,-2<=1,-2<=2,-1<=1,-1<=2)
SignedPoset(C;3;-3<=1,-3<=3,-2<=1,-2<=2,-1<=1,-1<=2,-1<=3)
SignedPoset(C;3;-3<=1,-3<=2,-3<=3,-2<=1,-2<=2,-2<=3,-1<=1,-1<=2,-1<=3)
"""
    as_json = runner.invoke(
        main, ["enumerate", "--family", "C", "--n", "3", "--up-to-iso", "--format", "json"]
    )
    assert as_json.exit_code == 0
    assert hashlib.sha256(as_json.stdout.encode()).hexdigest() == (
        "05683a6bde43110b4c0e7f077f16f3b9619f4bfadc9cba782dbcc2cc67afefdd"
    )
    assert [
        repr(formats.parse_poset(line)) for line in as_json.stdout.splitlines()
    ] == text.stdout.splitlines()


def test_matrix_form_command(runner):
    result = runner.invoke(
        main, ["export", "-p", "C;3;-2<=1,-2<=3,-3<=2,-1<=2", "--what", "matrix-form",
               "--format", "json"]
    )
    positions = {tuple(p) for p in json.loads(result.output)["positions"]}
    assert (-2, 1) in positions and (-3, 1) not in positions
    assert len(positions) == 10


def test_export_commands(runner):
    hasse = runner.invoke(main, ["export", "-p", TRIANGLE, "--what", "hasse",
                                 "--format", "dot"])
    assert hasse.output.startswith("digraph")
    rg = runner.invoke(main, ["export", "-p", TRIANGLE, "--what", "relation-graph",
                              "--format", "dot"])
    assert '"1" -- "2";' in rg.output
    sc = runner.invoke(main, ["export", "-p", "C;1;-1<=1",
                              "--what", "structure-constants"])
    assert "[H(1), Z(1)] = 2*Z(1)" in sc.output
    bad = runner.invoke(main, ["export", "-p", TRIANGLE, "--what", "hasse",
                               "--format", "json"])
    assert bad.exit_code == 2  # unknown what/format combination


# the required input of each command: a poset it applies to, or a tiny plan
REQUIRED_INPUTS = {
    "validate": ["-p", TRIANGLE],
    "index": ["-p", TRIANGLE],
    "reduce": ["-p", TRIANGLE],
    "frobenius": ["-p", TRIANGLE],
    "principal": ["-p", TRIANGLE],
    "spectrum": ["-p", TRIANGLE],
    "enumerate": ["--family", "C", "--n", "1"],
    "verify": ["--families", "C:1"],
    "export": ["-p", TRIANGLE],
    "isomorphism": ["-p", "D;2;-1<=2"],
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_command_runs_at_its_defaults(runner, command):
    # every flag but the required inputs at its default; a command missing
    # from REQUIRED_INPUTS fails here
    result = runner.invoke(main, [command, *REQUIRED_INPUTS[command]])
    assert result.exit_code == 0, result.output


def test_isomorphism_command(runner):
    d = runner.invoke(main, ["isomorphism", "-p", "D;2;-1<=2", "--format", "json"])
    assert json.loads(d.output) == {"kind": "D=C", "eps": [1, 1, 1]}
    b = runner.invoke(main, ["isomorphism", "-p", "B;2;-1<=2", "--format", "json"])
    assert json.loads(b.output) == {"kind": "B=D0"}
    # a valid poset of another family is unsupported input, exit 1
    for poset in ("A;3;1<=2", "C;2;-1<=2"):
        other = runner.invoke(main, ["isomorphism", "-p", poset, "--format", "json"])
        assert other.exit_code == 1
        assert json.loads(other.output)["error"] == "UnsupportedPoset"


def test_verify_campaign(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["verify", "--families", "C:2,D:2", "--seed", "3", "--output", str(out)],
    )
    assert result.exit_code == 0
    assert "failures: 0" in result.output
    report = json.loads(out.read_text())
    assert report["posets"] == {"C1": 2, "C2": 8, "D1": 1, "D2": 2}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_unwritable_output_exits_2_before_the_campaign(runner, monkeypatch,
                                                              tmp_path, fmt):
    campaigns = []
    monkeypatch.setattr(cli, "run_campaign", lambda cfg: campaigns.append(cfg))
    out = tmp_path / "missing" / "report.json"
    result = runner.invoke(
        main, ["verify", "--families", "C:1", "--output", str(out), "--format", fmt]
    )
    assert result.exit_code == 2
    assert campaigns == []
    if fmt == "json":
        assert json.loads(result.output)["error"] == "InputParseError"
    else:
        assert "error[InputParseError]" in result.output


def test_verify_rejects_bad_flags(runner):
    assert runner.invoke(main, ["verify", "--families", "C"]).exit_code == 2
    assert (
        runner.invoke(main, ["verify", "--families", "C:1", "--checks", "nope"]).exit_code
        == 2
    )


@pytest.mark.parametrize("flag", ["--trials", "--jobs"])
def test_verify_rejects_nonpositive_trials_and_jobs(runner, flag):
    # checked before any poset runs, even when no check reads the value
    argv = ["verify", "--families", "C:1", "--checks", "dimension_formula", flag, "0"]
    assert runner.invoke(main, argv).exit_code == 2


@pytest.mark.parametrize(
    "families, checks",
    [("C:2,C:1", ""), ("C:0", ""), ("C:-1", ""), ("A:2", ""), ("C:2,E:1", ""),
     ("C:2", "dimension_formula,dimension_formula")],
    ids=["C:2,C:1", "C:0", "C:-1", "A:2", "C:2,E:1", "repeated-check"],
)
def test_verify_rejects_plans_it_cannot_report(runner, families, checks):
    # a repeated family or check would be counted twice, an empty range
    # would pass vacuously, and A or E has no height-(0,1) corpus
    result = runner.invoke(
        main, ["verify", "--families", families, "--checks", checks, "--format", "json"]
    )
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == "InputParseError"


def test_zero_trials_is_an_input_error(runner):
    result = runner.invoke(main, ["index", "-p", TRIANGLE, "--trials", "0"])
    assert result.exit_code == 2
    assert "trials must be >= 1" in result.output


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [["index", "-p", "C;3;-1<=2", "--method", "formula", "--trials", "0"],
     ["frobenius", "-p", "C;1;-1<=1", "--trials", "-4"]],
    ids=["index-formula", "frobenius"],
)
def test_nonpositive_trials_exit_2_where_unread(runner, argv, fmt):
    # rejected before the command runs, also where no oracle reads it
    result = runner.invoke(main, [*argv, "--format", fmt])
    assert result.exit_code == 2
    if fmt == "json":
        assert json.loads(result.output) == {
            "error": "InputParseError", "message": "trials must be >= 1",
        }
    else:
        assert result.output == "error[InputParseError]: trials must be >= 1\n"


def test_env_var_override():
    # flags are set on the command line only: a LIEPOSET_ variable in the
    # environment of `python -m lieposet.cli` changes nothing
    result = subprocess.run(
        [sys.executable, "-m", "lieposet.cli", "index", "-p", LOOPED_PATH],
        env=dict(os.environ, LIEPOSET_INDEX_TRIALS="2"),
        cwd=Path(cli.__file__).parent.parent,
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert "trials: 5" in result.stdout.splitlines()


def _json_line(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def test_field_commands_print_text_lines(runner):
    # the text branch of the `key: value` emitter, keys sorted
    index = runner.invoke(main, ["index", "-p", TRIANGLE])
    assert index.exit_code == 0
    assert index.stdout == "agreement: True\nformula: 0\noracle: 0\nseed: 0\ntrials: 5\n"
    frob = runner.invoke(main, ["frobenius", "-p", TRIANGLE, "--check-oracle"])
    assert frob.exit_code == 0
    assert frob.stdout == "agreement: True\nfrobenius: True\noracle_index: 0\nseed: 0\n"
    iso = runner.invoke(main, ["isomorphism", "-p", "D;2;-1<=2"])
    assert iso.exit_code == 0
    assert iso.stdout == "eps: [1, 1, 1]\nkind: D=C\n"


def test_reduce_json_is_the_trace_object(runner):
    result = runner.invoke(main, ["reduce", "-p", TRIANGLE, "--seed", "4",
                                  "--format", "json"])
    assert result.exit_code == 0
    trace = reduce(parse_inline(TRIANGLE), seed=4)
    assert result.stdout == _json_line(formats.reduction_trace_json_obj(trace))


def test_principal_text_lines(runner):
    result = runner.invoke(main, ["principal", "-p", LOOPED_PATH, "--check-closed-form"])
    assert result.exit_code == 0
    P = parse_inline(LOOPED_PATH)
    obj = formats.principal_element_json_obj(principal_element(P, frobenius_functional(P)))
    assert result.stdout == (
        f"coefficients: {obj['coefficients']}\n"
        f"diagonal: {obj['diagonal']}\n"
        f"half_convention: {obj['half_convention']}\n"
        "half_entries: True\n"
    )


def test_spectrum_json_is_the_report_object(runner):
    result = runner.invoke(main, ["spectrum", "-p", TRIANGLE, "--format", "json"])
    assert result.exit_code == 0
    P = parse_inline(TRIANGLE)
    report = spectrum(P, principal_element(P, frobenius_functional(P)))
    assert result.stdout == _json_line(formats.spectrum_json_obj(report))


def test_verify_json_is_the_report_bytes(runner):
    result = runner.invoke(main, ["verify", "--families", "C:2,D:2", "--seed", "3",
                                  "--format", "json"])
    assert result.exit_code == 0
    cfg = CampaignConfig(plan=(("C", 2), ("D", 2)), seed=3)
    assert result.stdout == report_json_bytes(run_campaign(cfg)).decode()


@pytest.mark.parametrize("poset", [TRIANGLE, "B;2;-1<=2"])
def test_export_tables_match_the_emitters(runner, poset):
    P = parse_inline(poset)
    positions = [list(c) for c in sorted(algebra.matrix_form(P))]
    expected = {
        ("matrix-form", "text"): formats.matrix_form_text(P),
        ("matrix-form", "json"): _json_line({"positions": positions}),
        ("commutator", "text"): formats.commutator_matrix_text(P),
        ("commutator", "json"): _json_line(formats.commutator_matrix_json_obj(P)),
        ("structure-constants", "json"): _json_line(
            formats.structure_constants_json_obj(P)
        ),
    }
    for (what, fmt), text in expected.items():
        result = runner.invoke(main, ["export", "-p", poset, "--what", what,
                                      "--format", fmt])
        assert result.exit_code == 0
        assert result.stdout == text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_index_disagreement_exits_1(runner, monkeypatch, fmt):
    monkeypatch.setattr(cli, "index_oracle", lambda P, trials, seed: 2)
    result = runner.invoke(main, ["index", "-p", TRIANGLE, "--format", fmt])
    assert result.exit_code == 1
    out = {"agreement": False, "formula": index_formula(parse_inline(TRIANGLE)),
           "oracle": 2, "seed": 0, "trials": 5}
    if fmt == "json":
        assert result.stdout == _json_line(out)
    else:
        assert result.stdout == "".join(f"{k}: {out[k]}\n" for k in sorted(out))


def test_frobenius_disagreement_exits_1(runner, monkeypatch):
    monkeypatch.setattr(cli, "index_oracle", lambda P, trials, seed: 2)
    result = runner.invoke(main, ["frobenius", "-p", TRIANGLE, "--check-oracle",
                                  "--format", "json"])
    assert result.exit_code == 1
    assert result.stdout == _json_line(
        {"agreement": False, "frobenius": True, "oracle_index": 2, "seed": 0}
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_failing_campaign_exits_1(runner, monkeypatch, fmt):
    monkeypatch.setitem(harness.CHECKS, "dimension_formula",
                        lambda P, ctx: {"injected": 1})
    result = runner.invoke(main, ["verify", "--families", "C:1", "--seed", "3",
                                  "--format", fmt])
    assert result.exit_code == 1
    report = run_campaign(CampaignConfig(plan=(("C", 1),), seed=3))
    assert len(report["failures"]) == 2
    if fmt == "json":
        assert result.stdout == report_json_bytes(report).decode()
    else:
        assert result.stdout == "seed: 3\n" + report_text(report)


def test_isomorphism_b_tables_differ_exits_1(runner, monkeypatch):
    inner = algebra.structure_constants

    def dropped(P):
        basis, table = inner(P)
        if P.family == "D":
            table = {key: cell for key, cell in table.items() if key != min(table)}
        return basis, table

    monkeypatch.setattr(algebra, "structure_constants", dropped)
    result = runner.invoke(main, ["isomorphism", "-p", "B;2;-1<=2", "--format", "json"])
    assert result.exit_code == 1
    assert result.stdout == _json_line(
        {"error": "TablesDiffer", "message": "structure constants differ at [H(1),Y(2,1)]"}
    )
