import json
import time

import pytest

from fuzzmin import GodelAlgebra, Partition, compcb, interpretation_to_json
from fuzzmin.algebra import bundled_lattice_path
from fuzzmin.cli import main
from fuzzmin.syntax import MAX_NESTING
from helpers import PSI, chain_interp, collapse_interp, two_component_interp

GODEL = GodelAlgebra()
PSI_FLAG = ",".join(PSI)


@pytest.fixture()
def big_file(tmp_path):
    path = tmp_path / "two_component.json"
    path.write_text(json.dumps(interpretation_to_json(two_component_interp(GODEL))))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(interpretation_to_json(chain_interp(GODEL))))
    return str(path)


@pytest.fixture()
def godel5_file(tmp_path):
    """An interpretation whose degrees are godel5 chain indices."""
    path = tmp_path / "godel5.json"
    path.write_text(json.dumps({"domain": ["u", "v"], "concepts": {"A": {"u": "4", "v": "2"}}}))
    return str(path)


@pytest.fixture()
def graph_file(tmp_path):
    doc = {
        "vertices": ["u", "v", "w"],
        "vertex_labels": {"u": {"A": "1"}, "v": {"A": "0.5"}, "w": {"A": "0.5"}},
        "edges": [["u", "r", "v", "0.7"], ["u", "r", "w", "0.9"], ["v", "r", "v", "0.6"],
                  ["v", "r", "w", "0.8"], ["w", "r", "v", "0.8"]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def pair_files(tmp_path):
    left = collapse_interp(GODEL)
    right_doc = {
        "domain": ["u'", "v'"],
        "individuals": {"a": "u'"},
        "concepts": {"A": {"u'": "1", "v'": "0.5"}},
        "roles": {"r": [["u'", "v'", "0.9"], ["v'", "v'", "0.8"]]},
    }
    lp = tmp_path / "left.json"
    lp.write_text(json.dumps(interpretation_to_json(left)))
    rp = tmp_path / "right.json"
    rp.write_text(json.dumps(right_doc))
    return str(lp), str(rp)


def test_minimize_psi_two_blocks(big_file, tmp_path, capsys):
    out = tmp_path / "min.json"
    code = main(["minimize", "--input", big_file, "--features", PSI_FLAG,
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["domain"]) == 2
    assert doc["roles"]["r"] == [
        ["{a,a2}", "{b,b2,b3,c,d,e}", "4/5"],
        ["{b,b2,b3,c,d,e}", "{b,b2,b3,c,d,e}", "1"],
    ]
    err = capsys.readouterr().err
    assert err.startswith("n=8 m=10 l=3 blocks=2 elapsed_ms=")


def test_minimize_inverse_seven_blocks(big_file, capsys):
    code = main(["minimize", "--input", big_file,
                 "--features", PSI_FLAG + ",inverse"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert len(doc["domain"]) == 7


def test_minimize_single_element_is_identity(tmp_path, capsys):
    doc = {"domain": ["x"], "concepts": {"A": {"x": "0.5"}}, "roles": {"r": [["x", "x", "1"]]}}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["minimize", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["domain"] == ["{x}"]
    assert out["roles"]["r"] == [["{x}", "{x}", "1"]]


def test_minimize_prune_conflicts_with_universal(big_file, capsys):
    code = main(["minimize", "--input", big_file, "--features", PSI_FLAG, "--prune"])
    assert code == 2
    assert "universal" in capsys.readouterr().err


def test_minimize_prune_drops_unreachable(big_file, capsys):
    features = "baaz,comp,union,star,test"
    code = main(["minimize", "--input", big_file, "--features", features, "--prune"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["domain"] == ["{a}", "{b,c,d,e}"]


def test_minimize_output_is_byte_deterministic(big_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["minimize", "--input", big_file, "--features", PSI_FLAG, "--output", str(out1)]) == 0
    assert main(["minimize", "--input", big_file, "--features", PSI_FLAG, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_partition_golden(graph_file, capsys):
    assert main(["partition", "--input", graph_file]) == 0
    assert capsys.readouterr().out.strip() == "{{u},{v,w}}"


@pytest.fixture()
def chain_graph_file(tmp_path):
    """a -> b -> c -> d: the start partition {a,b},{c},{d} takes two steps."""
    doc = {"vertices": ["a", "b", "c", "d"],
           "edges": [["a", "r", "b", "1"], ["b", "r", "c", "1"], ["c", "r", "d", "1"]]}
    path = tmp_path / "chain_graph.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_partition_trace_and_output(chain_graph_file, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["partition", "--input", chain_graph_file, "--trace", "--output", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "{{a},{b},{c},{d}}"
    assert lines[0].startswith("1. split w.r.t. <Y'={c}, Y={a,b,c}, r>")
    assert len(lines) == 3
    assert json.loads(out.read_text()) == [["a"], ["b"], ["c"], ["d"]]


def test_partition_trace_of_a_stable_start_prints_no_step(graph_file, capsys):
    # {u},{v,w} is the initial partition and already stable: no loop step
    assert main(["partition", "--input", graph_file, "--trace"]) == 0
    assert capsys.readouterr().out == "{{u},{v,w}}\n"


def test_partition_trace_reports_y_prime_before_it_splits(tmp_path, capsys):
    # the set-up splits {p,q,s,t} by the edges of s and t into {z}; the
    # first Y', {p,q}, is itself split by its own iteration
    doc = {"vertices": ["p", "q", "s", "t", "z"], "vertex_labels": {"z": {"A": "1"}},
           "edges": [["p", "r", "p", "1"], ["q", "r", "s", "1"], ["s", "r", "z", "1"],
                     ["s", "r", "p", "1"], ["t", "r", "z", "1"], ["t", "r", "q", "1"]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["partition", "--input", str(path), "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "1. split w.r.t. <Y'={p,q}, Y={p,q,s,t}, r>: "
        "P = {{p},{q},{s,t},{z}}; Q[r] = {{p,q},{s,t},{z}}"
    )
    assert lines[1].startswith("2. split w.r.t. <Y'={q}, Y={p,q}, r>")


def test_eval_goldens(chain_file, capsys):
    assert main(["eval", "--input", chain_file, "--features", PSI_FLAG,
                 "some r . A", "a"]) == 0
    assert capsys.readouterr().out.strip() == "3/5"

    assert main(["eval", "--input", chain_file, "--algebra", "lukasiewicz",
                 "--features", PSI_FLAG, "all r . A", "a"]) == 0
    assert capsys.readouterr().out.strip() == "4/5"

    assert main(["eval", "--input", chain_file, "0.3", "b"]) == 0
    assert capsys.readouterr().out.strip() == "3/10"


def test_eval_lattice_constant_must_be_a_chain_index(tmp_path, capsys):
    # expression constants go through the algebra's one check: a lattice
    # takes the integral constants 0..top only
    path = tmp_path / "godel5.json"
    path.write_text(json.dumps({"domain": ["u", "v"], "roles": {"r": [["u", "v", "3"]]}}))
    selector = f"lattice:{bundled_lattice_path('godel5')}"
    for expr in ("0.5", "some r . 7"):
        assert main(["eval", "--input", str(path), "--algebra", selector, expr, "u"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert main(["eval", "--input", str(path), "--algebra", selector, "some r . 4", "u"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_eval_unknown_element(chain_file, capsys):
    assert main(["eval", "--input", chain_file, "A", "zz"]) == 2


def test_eval_parse_error(chain_file, capsys):
    assert main(["eval", "--input", chain_file, "some r .", "a"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_a_test_on_a_role(chain_file, capsys):
    assert main(["eval", "--input", chain_file, "some r* ? . A", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'?' applies to a concept, not a role" in captured.err


def test_check_pass_and_violation(pair_files, tmp_path, capsys):
    left, right = pair_files
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps([["u", "u'"], ["v", "v'"], ["w", "v'"]]))
    code = main(["check", "--input", left, "--other", right,
                 "--features", PSI_FLAG, str(relation)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "pass"

    relation.write_text(json.dumps([["u", "u'"], ["v", "v'"], ["w", "v'"], ["u", "v'"]]))
    code = main(["check", "--input", left, "--other", right,
                 "--features", PSI_FLAG, str(relation)])
    assert code == 1
    assert capsys.readouterr().out.strip() == "condition (9) violated at (u,v')"


def test_check_writes_the_violation_detail_to_stderr(pair_files, tmp_path, capsys):
    left, right = pair_files
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps([["u", "u'"], ["u", "v'"]]))
    assert main(["check", "--input", left, "--other", right, str(relation)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "condition (9) violated at (u,v')\n"
    assert captured.err == "A differs: 1 vs 1/2\n"

    relation.write_text(json.dumps([["u", "u'"], ["v", "v'"], ["w", "v'"]]))
    assert main(["check", "--input", left, "--other", right, str(relation)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "pass\n"
    assert captured.err == ""


def test_check_reports_a_nominal_that_distinguishes_the_pair(tmp_path, capsys):
    # u and v agree on every concept and role, but only u is the individual a
    path = tmp_path / "nominal.json"
    path.write_text(json.dumps({"domain": ["u", "v"], "individuals": {"a": "u"},
                                "concepts": {"A": {"u": "1", "v": "1"}}}))
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps([["u", "v"]]))
    assert main(["check", "--input", str(path), str(relation)]) == 0
    assert capsys.readouterr().out == "pass\n"
    assert main(["check", "--input", str(path), "--features", "baaz,nominal", str(relation)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "condition (13) violated at (u,v)\n"
    assert captured.err == "nominal a distinguishes the pair\n"


def test_check_empty_relation_passes(pair_files, tmp_path, capsys):
    left, right = pair_files
    relation = tmp_path / "rel.json"
    relation.write_text("[]")
    assert main(["check", "--input", left, "--other", right,
                 "--features", PSI_FLAG, str(relation)]) == 0
    assert capsys.readouterr().out.strip() == "pass"


def test_bare_decimal_in_lattice_or_relation_exits_2(pair_files, godel5_file, tmp_path, capsys):
    # a bare decimal is read as an exact Fraction: neither a lattice table
    # entry nor a relation entry may be one
    with open(bundled_lattice_path("godel5"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["tnorm"][1][1] = 0.5
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(doc))
    assert main(["minimize", "--input", godel5_file, "--algebra", f"lattice:{lattice}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    left, right = pair_files
    relation = tmp_path / "rel.json"
    relation.write_text('[["u", "u\'"], ["v", 0.5]]')
    assert main(["check", "--input", left, "--other", right, str(relation)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _assert_degree_exits_2(degree, where, algebra, tmp_path, capsys):
    selector = algebra if algebra == "godel" else f"lattice:{bundled_lattice_path(algebra)}"
    if where == "edge":
        doc = {"vertices": ["u", "v"], "edges": [["u", "r", "v", degree]]}
        runs = [["partition"]]
    else:
        doc = {"domain": ["u", "v"], "concepts": {"A": {"v": "1"}}}
        if where == "concept":
            doc["concepts"]["A"]["u"] = degree
        else:
            doc["roles"] = {"r": [["u", "v", degree]]}
        runs = [["minimize"], ["eval", "A", "u"]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for run in runs:
        assert main([run[0], "--input", str(path), "--algebra", selector, *run[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("algebra", ["godel", "godel5"])
@pytest.mark.parametrize("where", ["concept", "role", "edge"])
def test_boolean_degree_exits_2(where, algebra, tmp_path, capsys):
    # JSON true is not the degree 1: godel read it as 1, and under godel5
    # minimize wrote "True", which its own reader then rejected
    _assert_degree_exits_2(True, where, algebra, tmp_path, capsys)


@pytest.mark.parametrize("degree", [None, [1], {}], ids=["null", "list", "object"])
@pytest.mark.parametrize("algebra", ["godel", "godel5"])
@pytest.mark.parametrize("where", ["concept", "role", "edge"])
def test_foreign_json_degree_exits_2(where, algebra, degree, tmp_path, capsys):
    # a value that is neither text nor a number goes straight to the
    # algebra's check, which rejects it
    _assert_degree_exits_2(degree, where, algebra, tmp_path, capsys)


def test_boolean_lattice_table_entry_exits_2(godel5_file, tmp_path, capsys):
    # tnorm(1, 1) is 1 in godel5, so a table reading true as 1 passes its laws
    with open(bundled_lattice_path("godel5"), encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["tnorm"][1][1] == 1
    doc["tnorm"][1][1] = True
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(doc))
    assert main(["minimize", "--input", godel5_file, "--algebra", f"lattice:{lattice}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_stats_on_graph_and_interpretation(graph_file, big_file, capsys):
    assert main(["stats", "--input", graph_file]) == 0
    assert capsys.readouterr().out.strip() == "n=3 m=5 l=4"
    assert main(["stats", "--input", big_file, "--features", PSI_FLAG + ",inverse"]) == 0
    assert capsys.readouterr().out.strip() == "n=8 m=20 l=3"


def test_stats_rejects_a_document_of_neither_kind(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text('{"foo": 1}')
    assert main(["stats", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: neither a graph nor an interpretation document\n"


def test_verify_small_run_passes(capsys):
    assert main(["verify", "--cases", "8", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "oracle equivalence: 8/8" in out


def test_verify_zero_cases_trivially_pass(capsys):
    assert main(["verify", "--cases", "0"]) == 0


def test_verify_negative_cases_exits_2(capsys):
    assert main(["verify", "--cases", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_detects_mutations(monkeypatch, capsys):
    def merge_first_two_blocks(g):
        p = compcb(g)
        if len(p) < 2:
            return p
        blocks = list(p.blocks)
        return Partition([blocks[0] | blocks[1], *blocks[2:]], p.n)

    monkeypatch.setattr("fuzzmin.cli.compcb", merge_first_two_blocks)
    code = main(["verify", "--cases", "6", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err


def test_partition_of_two_label_encoding(tmp_path, capsys):
    # forward and reversed labels: refines down to seven blocks
    forward = [["a", "b", "0.8"], ["a2", "b2", "0.8"], ["a2", "b3", "0.8"],
               ["b", "c", "0.7"], ["b", "d", "1"], ["c", "e", "1"],
               ["d", "e", "1"], ["e", "d", "1"], ["b2", "b2", "1"], ["b3", "b3", "1"]]
    edges = [[s, "r", t, d] for s, t, d in (e for e in forward)]
    edges += [[t, "r-", s, d] for s, t, d in (e for e in forward)]
    doc = {"vertices": ["a", "b", "c", "d", "e", "a2", "b2", "b3"], "edges": edges}
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(doc))
    assert main(["partition", "--input", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "{{a},{a2},{b},{b2,b3},{c},{d},{e}}"


def test_features_must_include_baaz(big_file, capsys):
    assert main(["minimize", "--input", big_file, "--features", "comp"]) == 2
    assert "baaz" in capsys.readouterr().err


def test_eval_at_individual_name(tmp_path, capsys):
    doc = json.dumps(interpretation_to_json(collapse_interp(GODEL)))
    path = tmp_path / "c.json"
    path.write_text(doc)
    assert main(["eval", "--input", str(path), "A", "a"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_io_error_exit_code(capsys):
    assert main(["minimize", "--input", "/nonexistent/x.json"]) == 3


def test_usage_error_on_bad_algebra(graph_file, capsys):
    assert main(["partition", "--input", graph_file, "--algebra", "zadeh"]) == 2


# --- hostile and malformed input ----------------------------------------------

HUGE_NUMBERS = {
    "exponent-string": '{"domain": ["u"], "concepts": {"A": {"u": "1e999999999"}}}',
    "exponent-number": '{"domain": ["u"], "concepts": {"A": {"u": 1e999999999}}}',
    "long-integer": '{"domain": ["u"], "concepts": {"A": {"u": 1' + "0" * 4999 + "}}}",
}


@pytest.mark.parametrize("name", sorted(HUGE_NUMBERS))
def test_minimize_rejects_oversized_numbers(name, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_NUMBERS[name])
    start = time.perf_counter()
    assert main(["minimize", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: ")


MALFORMED = {
    "concept-list": '{"domain": ["u"], "concepts": {"A": ["u"]}}',
    "domain-nested": '{"domain": [["u"]]}',
    "domain-string": '{"domain": "uv"}',
    "role-endpoint": '{"domain": ["u"], "roles": {"r": [[["u"], "u", "1"]]}}',
    "deep-json": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_interpretation_exits_2(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[name])
    for command in (["minimize"], ["stats"]):
        assert main(command + ["--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


MALFORMED_GRAPHS = {
    "vertices-string": '{"vertices": "uv"}',
    "vertex-labels-list": '{"vertices": ["u"], "vertex_labels": {"u": ["A"]}}',
    "vertices-nested": '{"vertices": [["u"]]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_exits_2(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_GRAPHS[name])
    for command in (["partition"], ["stats"]):
        assert main(command + ["--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("expr", ["not " * 5000 + "A", "(" * 3000 + "A" + ")" * 3000],
                         ids=["not", "parentheses"])
def test_eval_rejects_deep_nesting(expr, chain_file, capsys):
    assert main(["eval", "--input", chain_file, "--features", PSI_FLAG, expr, "a"]) == 2
    assert "nested more than" in capsys.readouterr().err


def test_eval_accepts_nesting_up_to_the_limit(chain_file, capsys):
    deepest = MAX_NESTING - 2  # the name and the quantifier take a level each
    for expr in ("not " * (MAX_NESTING - 1) + "A",
                 "(" * (MAX_NESTING - 1) + "A" + ")" * (MAX_NESTING - 1),
                 "some " + "(" * deepest + "r" + ")*" * deepest + " . A"):
        assert main(["eval", "--input", chain_file, "--features", PSI_FLAG, expr, "a"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "1"]


def test_internal_error_exits_4_without_traceback(monkeypatch, graph_file, capsys):
    from fuzzmin import cli

    def broken(args):
        raise RuntimeError("planted fault\nsecond line")

    monkeypatch.setattr(cli, "cmd_stats", broken)
    assert main(["stats", "--input", graph_file]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: planted fault second line\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("degree", ["0", "0.5"])
def test_concept_degree_for_unknown_element_exits_2(degree, tmp_path, capsys):
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps({"domain": ["u"], "concepts": {"A": {"ghost": degree}}}))
    assert main(["minimize", "--input", str(path)]) == 2
    assert "ghost" in capsys.readouterr().err


def test_unknown_concept_element_is_reported_before_a_malformed_role_entry(tmp_path, capsys):
    # the reader checks concepts, then each role instance in one pass, so the
    # concept's fault comes first
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps({"domain": ["u"], "concepts": {"A": {"ghost": "0.5"}},
                                "roles": {"r": [["u", "u"]]}}))
    assert main(["minimize", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown element or individual 'ghost'\n"


def test_partition_rejects_a_repeated_edge(tmp_path, capsys):
    doc = {"vertices": ["u", "v"],
           "edges": [["u", "r", "v", "0.5"], ["v", "r", "u", "0.5"], ["u", "r", "v", "0.7"]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["partition", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duplicate edge (u,r,v)" in err


def test_partition_accepts_one_pair_under_two_labels(tmp_path, capsys):
    doc = {"vertices": ["u", "v", "w"],
           "edges": [["u", "r", "v", "0.5"], ["u", "s", "v", "0.7"], ["w", "r", "v", "0.5"]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["partition", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "{{u},{v},{w}}"


def test_eval_concept_union_test_without_role_union(tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({
        "domain": ["a", "b"],
        "concepts": {"A": {"a": "0.6"}, "B": {"a": "0.9", "b": "1"}},
    }))
    assert main(["eval", "--input", str(path), "--features", "baaz,test",
                 "some ((A | B) ?) . A", "a"]) == 0
    assert capsys.readouterr().out.strip() == "3/5"


def _chain(op, term, count):
    return f" {op} ".join([term] * count)


# each chain is one operator repeated, read by the parser in a loop, so its
# tree is far deeper than the recursion limit; values at a, by hand (Goedel):
# A is 3/5 at a and 1 at b, r holds (a,b) at 4/5 and (b,a) at 1/2, s holds
# (a,a) at 9/10
DEEP_CHAINS = {
    "and": ("baaz", _chain("&", "A", 3000), "3/5"),
    "or": ("baaz", _chain("|", "A", 3000), "3/5"),
    "implies": ("baaz", _chain("->", "A", 3000), "1"),
    # 3,000 steps along r from a end back at a, through the 1/2 edge
    "compose": ("baaz,comp", f"some ({_chain(';', 'r', 3000)}) . A", "1/2"),
    "union": ("baaz,union", f"some ({_chain('|', 'r', 3000)}) . A", "4/5"),
    # r first, so 2,999 steps end at b, where s has no edge; s first would give 1/2
    "compose-order": ("baaz,comp", f"some ({_chain(';', 'r', 2999)} ; s) . A", "0"),
    # (R ; S)- = S- ; R-: s- first, then 2,999 steps along r- end at b
    "compose-inverse": ("baaz,comp,inverse", f"some ({_chain(';', 'r', 2999)} ; s)- . A", "1/2"),
    "inverse": ("baaz,inverse", "some r" + "-" * 3001 + " . A", "1/2"),
    # 1,500 inverses cancel, so this is all r* . A
    "star-inverse": ("baaz,star,inverse", "all r" + "*-" * 1500 + " . A", "3/5"),
}


@pytest.mark.parametrize("name", list(DEEP_CHAINS))
def test_eval_answers_chains_deeper_than_the_recursion_limit(name, tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({
        "domain": ["a", "b"],
        "concepts": {"A": {"a": "0.6", "b": "1"}},
        "roles": {"r": [["a", "b", "0.8"], ["b", "a", "0.5"]], "s": [["a", "a", "0.9"]]},
    }))
    features, expr, expected = DEEP_CHAINS[name]
    assert main(["eval", "--input", str(path), "--features", features, expr, "a"]) == 0
    assert capsys.readouterr().out.strip() == expected
