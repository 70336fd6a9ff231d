import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from destab import GroupSpec, SchemaError, SubgroupPresentation, c_lambda, cli, documents, is_gcr_algebra
from destab.cli import main

GL2_DOC = {"factors": [{"family": "GL", "rank": 2}], "gram": "identity"}
SL2_DOC = {"factors": [{"family": "SL", "rank": 2}], "gram": "identity"}
MAT2_DOC = {"kind": "conjugation_tuples", "m": 2, "count": 1}


def test_rational_roundtrip():
    for text in ("-3/2", "7", "0", "22/7"):
        assert documents.emit_rational(documents.parse_rational(text)) == text
    with pytest.raises(SchemaError):
        documents.parse_rational("1.5")
    with pytest.raises(SchemaError):
        documents.parse_rational("1/0")
    with pytest.raises(SchemaError):
        documents.parse_rational(True)


def test_schema_errors_keep_the_innermost_path():
    sl2 = documents.parse_group(SL2_DOC)
    gl3 = GroupSpec.make(("GL", 3))
    # a schema error raised inside a wrapped block keeps its own path
    nested = {"kind": "direct_sum", "parts": [{"kind": "adjoint"}, {"kind": "sym_power", "degree": 0}]}
    with pytest.raises(SchemaError, match=r"^\$\.parts\[1\]\.degree: must be a positive integer$"):
        documents.parse_representation(nested, sl2)
    with pytest.raises(SchemaError, match=r"^\$\.gram\[0\]\[1\]: "):
        documents.parse_group({"factors": [{"family": "GL", "rank": 2}], "gram": [["1", "x"], ["0", "1"]]})
    # any other DestabError becomes a schema error at the enclosing path
    with pytest.raises(SchemaError, match=r"^\$: symmetric powers are supported"):
        documents.parse_representation({"kind": "sym_power", "degree": 2}, gl3)
    with pytest.raises(SchemaError, match=r"^\$: Gram matrix must be symmetric$"):
        documents.parse_group({"factors": [{"family": "GL", "rank": 2}], "gram": [["1", "1"], ["0", "1"]]})
    with pytest.raises(SchemaError, match=r"^\$\.h: generator is not in the group$"):
        documents.parse_subgroup({"generators": [[["1", "0"], ["0", "2"]]]}, sl2, "$.h")


def test_group_roundtrip():
    group = documents.parse_group(GL2_DOC)
    assert group == GroupSpec.make(("GL", 2))
    assert documents.emit_group(group) == GL2_DOC
    custom = documents.parse_group(
        {"factors": [{"family": "GL", "rank": 2}], "gram": [["2", "1"], ["1", "2"]]}
    )
    assert documents.emit_group(custom)["gram"] == [["2", "1"], ["1", "2"]]
    with pytest.raises(SchemaError):
        documents.parse_group({"factors": []})
    with pytest.raises(SchemaError):
        documents.parse_group({"factors": [{"family": "SO", "rank": 3}]})


def test_representation_parsing():
    group = documents.parse_group(GL2_DOC)
    rep = documents.parse_representation(MAT2_DOC, group)
    assert rep.dim == 4
    sym = documents.parse_representation({"kind": "sym_power", "degree": 4}, group)
    assert sym.dim == 5
    ds = documents.parse_representation(
        {"kind": "direct_sum", "parts": [MAT2_DOC, {"kind": "sym_power", "degree": 2}]},
        group,
    )
    assert ds.dim == 7
    with pytest.raises(SchemaError):
        documents.parse_representation({"kind": "spin"}, group)


def test_point_and_cocharacter_roundtrip():
    group = documents.parse_group(GL2_DOC)
    rep = documents.parse_representation(MAT2_DOC, group)
    pt = documents.parse_point(["1", "-3/2", "0", "1/2"], rep)
    assert documents.emit_point(pt) == ["1", "-3/2", "0", "1/2"]
    pt2 = documents.parse_point({"matrices": [[["1", "-3/2"], ["0", "1/2"]]]}, rep)
    assert pt == pt2
    lam = documents.parse_cocharacter({"exponents": [1, -1]}, group)
    assert documents.emit_cocharacter(lam) == {"exponents": [1, -1]}
    based = documents.parse_cocharacter(
        {"exponents": [1, -1], "base": [["1", "1"], ["0", "1"]]}, group
    )
    assert "base" in documents.emit_cocharacter(based)
    with pytest.raises(SchemaError):
        documents.parse_cocharacter({"exponents": [1]}, group)


def test_subvariety_and_config_parsing():
    group = documents.parse_group(GL2_DOC)
    rep = documents.parse_representation(MAT2_DOC, group)
    s = documents.parse_subvariety({"kind": "zero_locus"}, rep)
    assert documents.emit_subvariety(s) == {"kind": "zero_locus"}
    custom = documents.parse_subvariety(
        {
            "kind": "custom",
            "generators": [[{"coeff": "1", "monomial": [[0, 1]]}, {"coeff": "1", "monomial": [[3, 1]]}]],
            "g_stable_asserted": True,
        },
        rep,
    )
    assert len(custom.custom_generators) == 1
    cfg = documents.parse_config(
        {"exponent_box": 3, "shear_values": [-1, 1], "oracle_mode": True}, group
    )
    assert cfg.exponent_box == 3 and cfg.oracle_mode
    explicit = documents.parse_config(
        {"exponent_box": 2, "family": [[["1", "0"], ["0", "1"]]]}, group
    )
    assert explicit.conjugation_family == (group.identity(),)


def run_cli(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    for name, payload in {
        "group_sl2": SL2_DOC,
        "group_gl2": GL2_DOC,
        "rep_mat": MAT2_DOC,
        "limit_input": {
            "point": ["2", "-3/2", "0", "1/2"],
            "cocharacter": {"exponents": [1, -1]},
        },
        "classify_input": {
            "element": [["1", "5"], ["0", "1"]],
            "cocharacter": {"exponents": [1, -1]},
        },
        "optimize_input": {
            "points": [["0", "1", "0", "0"]],
            "subvariety": {"kind": "zero_locus"},
        },
        "config": {"exponent_box": 5, "oracle_mode": True},
        "subgroup": {"generators": [[["1", "1"], ["0", "1"]]]},
        "gcr_config": {"exponent_box": 4, "shear_values": [-2, -1, 1, 2]},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def test_cli_limit_paper_example(tmp_path, docs):
    code, report = run_cli(
        tmp_path,
        [
            "limit",
            "--group", docs["group_sl2"],
            "--rep", docs["rep_mat"],
            "--input", docs["limit_input"],
        ],
    )
    assert code == 0
    assert report["result"]["exists"]
    assert report["result"]["limit"] == ["2", "0", "0", "1/2"]


def test_cli_classify(tmp_path, docs):
    code, report = run_cli(
        tmp_path,
        ["classify", "--group", docs["group_gl2"], "--input", docs["classify_input"]],
    )
    assert code == 0
    assert report["result"]["membership"] == "InRu"


def test_cli_optimize(tmp_path, docs):
    code, report = run_cli(
        tmp_path,
        [
            "optimize",
            "--group", docs["group_gl2"],
            "--rep", docs["rep_mat"],
            "--input", docs["optimize_input"],
            "--config", docs["config"],
        ],
    )
    assert code == 0
    result = report["result"]
    assert result["status"] == "optimal"
    assert result["cocharacter"] == {"exponents": [1, -1]}
    assert result["value_sq"] == "2"
    assert result["global_verified"]


def test_cli_gcr_reports_both_witnesses(tmp_path, docs):
    code, report = run_cli(
        tmp_path,
        [
            "gcr",
            "--group", docs["group_gl2"],
            "--input", docs["subgroup"],
            "--config", docs["gcr_config"],
        ],
    )
    assert code == 0
    result = report["result"]
    assert result["status"] == "not_completely_reducible"
    assert result["agree"]
    assert result["algebra"]["witness_radical"] is not None
    assert result["search"]["witness_cocharacter"] is not None
    # replay the cocharacter witness through the library
    import destab

    group = documents.parse_group(GL2_DOC)
    rep = destab.ConjugationTuples(group, 1)
    lam = documents.parse_cocharacter(result["search"]["witness_cocharacter"], group)
    v = rep.point([[["1", "1"], ["0", "1"]]])
    v_prime = destab.limit(v, lam)
    assert v_prime is not None
    assert destab.find_ru_conjugator(v, v_prime, lam) is None


def test_cli_main_twice_in_process_gives_identical_reports(tmp_path, docs):
    # the parser is built once per process; a refused command between the
    # two runs leaves it as it was
    args = ["gcr", "--group", docs["group_gl2"], "--input", docs["subgroup"], "--config", docs["gcr_config"]]
    reports = []
    for k in range(2):
        out = tmp_path / f"report_{k}.json"
        assert main(args + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
        refused = tmp_path / f"refused_{k}.json"
        assert main(["corpus", "--profile", "no-such-profile", "--out", str(refused)]) == 2
    assert reports[0] == reports[1]
    assert cli._parser() is cli._parser()


def test_cli_reduce_and_centre(tmp_path, docs):
    code, report = run_cli(
        tmp_path,
        [
            "reduce",
            "--group", docs["group_gl2"],
            "--input", docs["subgroup"],
            "--config", docs["gcr_config"],
        ],
    )
    assert code == 0
    assert len(report["result"]["chain"]) == 1
    assert report["result"]["quotient_generators"] == [[["1", "0"], ["0", "1"]]]

    code, report = run_cli(
        tmp_path,
        [
            "centre",
            "--group", docs["group_gl2"],
            "--input", docs["subgroup"],
            "--config", docs["gcr_config"],
        ],
    )
    assert code == 0
    assert report["result"]["has_centre"]


# case 162 of subgroup_corpus(2, 200): I + 2E12 - 2E13 and the two 3-cycles
# fix the line <(1,1,1)>, which has no invariant complement
CASE_162 = {
    "generators": [
        [["1", "2", "-2"], ["0", "1", "0"], ["0", "0", "1"]],
        [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
        [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
    ]
}


@pytest.fixture()
def case_162(tmp_path, docs):
    group = tmp_path / "group_gl3.json"
    group.write_text(json.dumps({"factors": [{"family": "GL", "rank": 3}], "gram": "identity"}))
    subgroup = tmp_path / "case_162.json"
    subgroup.write_text(json.dumps(CASE_162))
    return ["--group", str(group), "--input", str(subgroup), "--config", docs["gcr_config"]]


def test_cli_gcr_takes_its_status_from_the_exact_route(tmp_path, case_162):
    code, report = run_cli(tmp_path, ["gcr"] + case_162)
    assert code == 0
    result = report["result"]
    assert result["status"] == "not_completely_reducible"
    assert result["algebra"]["status"] == "not_completely_reducible"
    assert result["search"]["status"] == "completely_reducible"  # the bounded search misses it
    assert result["agree"] is False
    assert result["algebra"]["witness_cocharacter"] == {
        "base": [["1", "1", "0"], ["1", "0", "1"], ["1", "0", "0"]],
        "exponents": [1, 0, 0],
    }


def test_cli_gcr_reports_one_shape_on_sl(tmp_path, docs):
    code, report = run_cli(tmp_path, ["gcr", "--group", docs["group_sl2"], "--input", docs["subgroup"]])
    assert code == 0
    result = report["result"]
    assert set(result) == {"search", "algebra", "agree", "status"}
    assert result["status"] == result["algebra"]["status"] == "not_completely_reducible"
    assert result["agree"] is True


def test_cli_reduce_certifies_case_162_in_one_step(tmp_path, case_162):
    code, report = run_cli(tmp_path, ["reduce"] + case_162)
    assert code == 0
    assert report["assertions_passed"] == ["quotient_certified_semisimple"]
    (lam,) = report["result"]["chain"]
    group = documents.parse_group({"factors": [{"family": "GL", "rank": 3}], "gram": "identity"})
    gens = documents.parse_subgroup(CASE_162, group).generators
    quotient = [documents.parse_matrix(g) for g in report["result"]["quotient_generators"]]
    assert quotient == list(c_lambda(gens, documents.parse_cocharacter(lam, group)))
    assert is_gcr_algebra(SubgroupPresentation(group, quotient)).is_completely_reducible


def test_cli_cochar_closed(tmp_path, docs):
    code, report = run_cli(
        tmp_path,
        [
            "cochar-closed",
            "--group", docs["group_gl2"],
            "--rep", docs["rep_mat"],
            "--input", docs["subgroup"].replace("subgroup", "subgroup"),
        ],
    )
    # the subgroup doc is not a point doc: schema error expected
    assert code == 2


def test_cli_corpus_profile(tmp_path):
    out = tmp_path / "r.json"
    code = main(["corpus", "--profile", "ruconj", "--seed", "1", "--size", "6", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["passed"] == 6
    assert report["result"]["failures"] == []


def test_cli_corpus_unknown_profile(tmp_path):
    code, report = run_cli(tmp_path, ["corpus", "--profile", "nope"])
    assert code == 2
    assert report["error"]["kind"] == "schema"


def test_cli_schema_error_exit(tmp_path, docs):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(tmp_path, ["limit", "--group", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "rank, gram",
    [
        (3, [["1", "0"], ["0", "1"], ["0", "0"]]),  # taller than wide
        (2, [["1", "0", "0"], ["0", "1", "0"]]),  # wider than tall
    ],
)
def test_cli_non_square_gram_is_a_schema_error(tmp_path, rank, gram):
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"factors": [{"family": "GL", "rank": rank}], "gram": gram}))
    subgroup = tmp_path / "subgroup.json"
    subgroup.write_text(json.dumps({"generators": [[[str(int(i == j)) for j in range(rank)] for i in range(rank)]]}))
    code, report = run_cli(tmp_path, ["gcr", "--group", str(group), "--input", str(subgroup)])
    assert code == 2
    assert report["error"] == {"kind": "schema", "message": "$: Gram matrix must be square"}


@pytest.mark.parametrize(
    "config, field",
    [
        ({"shear_values": 3}, "shear_values"),
        ({"exponent_box": True}, "exponent_box"),
        ({"shear_values": [True, 2]}, "shear_values"),
    ],
)
def test_cli_config_schema_errors(tmp_path, docs, config, field):
    path = tmp_path / "bad_config.json"
    path.write_text(json.dumps(config))
    code, report = run_cli(
        tmp_path,
        ["gcr", "--group", docs["group_gl2"], "--input", docs["subgroup"], "--config", str(path)],
    )
    assert code == 2
    assert report["error"]["kind"] == "schema"
    assert f"$.{field}" in report["error"]["message"]


GL1_DOC = {"factors": [{"family": "GL", "rank": 1}]}
LIMIT_GL1 = {"point": ["1"], "cocharacter": {"exponents": [1]}}


def _custom_subvariety_input(monomial):
    return {"points": [["0", "1", "0", "0"]], "subvariety": {"kind": "custom", "generators": [[{"monomial": [monomial]}]]}}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "command, group, rep, inp, path",
    [
        ("limit", {"factors": [{"family": "GL", "rank": "flag"}]}, {"kind": "adjoint"}, LIMIT_GL1, "$.factors[0].rank"),
        ("limit", GL1_DOC, {"kind": "conjugation_tuples", "count": "flag"}, LIMIT_GL1, "$.count"),
        ("limit", GL1_DOC, {"kind": "conjugation_tuples", "count": 1, "m": "flag"}, LIMIT_GL1, "$.m"),
        ("limit", GL2_DOC, {"kind": "sym_power", "degree": "flag"}, {"point": ["1", "0"], "cocharacter": {"exponents": [1, -1]}}, "$.degree"),
        ("limit", GL1_DOC, {"kind": "adjoint"}, {"point": ["1"], "cocharacter": {"exponents": ["flag"]}}, "$.cocharacter.exponents"),
        ("optimize", GL2_DOC, MAT2_DOC, _custom_subvariety_input(["flag", 1]), "$.subvariety.generators[0][0].monomial[0]"),
        ("optimize", GL2_DOC, MAT2_DOC, _custom_subvariety_input([1, "flag"]), "$.subvariety.generators[0][0].monomial[0]"),
    ],
)
def test_cli_refuses_booleans_as_integers(tmp_path, command, group, rep, inp, path, flag):
    # JSON true and false are not the integers 1 and 0 in any integer field
    paths = []
    for name, payload in (("group", group), ("rep", rep), ("input", inp)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload).replace('"flag"', json.dumps(flag)))
        paths += [f"--{name}", str(p)]
    code, report = run_cli(tmp_path, [command, *paths])
    assert code == 2
    assert report["error"]["kind"] == "schema"
    assert report["error"]["message"].startswith(f"{path}: ")


def test_cli_unreadable_documents_are_schema_errors(tmp_path, docs):
    # a directory and a file that is not UTF-8 text end in exit 2, not a
    # traceback; a missing file keeps its own message
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(GL2_DOC).replace("GL", "G\xc9L").encode("latin-1"))
    missing = tmp_path / "missing.json"
    for path, message in ((tmp_path, "group document cannot be read: "), (latin1, "group document cannot be read: "), (missing, f"group document not found: {missing}")):
        code, report = run_cli(tmp_path, ["gcr", "--group", str(path), "--input", docs["subgroup"]])
        assert code == 2
        assert report["error"]["kind"] == "schema"
        assert report["error"]["message"].startswith(message)


def test_cli_precondition_exit(tmp_path, docs):
    inp = tmp_path / "nolimit.json"
    inp.write_text(
        json.dumps(
            {"point": ["0", "0", "1", "0"], "cocharacter": {"exponents": [1, -1]}}
        )
    )
    # limits that do not exist are reported, not errors
    code, report = run_cli(
        tmp_path,
        ["limit", "--group", docs["group_gl2"], "--rep", docs["rep_mat"], "--input", str(inp)],
    )
    assert code == 0
    assert report["result"]["exists"] is False

    # a genuinely unsupported request: gcr algebra on SL is routed to search,
    # so use an invalid group membership instead
    badgen = tmp_path / "badgen.json"
    badgen.write_text(json.dumps({"generators": [[["1", "0"], ["0", "0"]]]}))
    code, report = run_cli(
        tmp_path, ["gcr", "--group", docs["group_gl2"], "--input", str(badgen)]
    )
    assert code == 2  # caught at parse time as a schema violation


def test_cli_config_refuses_frames_and_samples_outside_the_group(tmp_path, docs):
    # a document's family frames and samples are checked as the constructor
    # checks them, with the default family as with a given one
    from destab import DomainError, SearchConfig, linalg

    group = GroupSpec.make(("GL", 2))
    outside = [["1", "0"], ["2", "0"]]
    with pytest.raises(DomainError, match="^conjugation family element is not in the group$"):
        SearchConfig(group, 2, (group.identity(), linalg.mat(outside)))
    for config, what in (
        ({"exponent_box": 2, "family": [[["1", "0"], ["0", "1"]], outside]}, "conjugation family element"),
        ({"exponent_box": 2, "shear_values": [1], "normalizer_samples": [outside]}, "normalizer sample"),
    ):
        path = tmp_path / "bad_config.json"
        path.write_text(json.dumps(config))
        args = ["gcr", "--group", docs["group_gl2"], "--input", docs["subgroup"], "--config", str(path)]
        code, report = run_cli(tmp_path, args)
        assert code == 2
        assert report["error"] == {"kind": "schema", "message": f"$: {what} is not in the group"}


def test_cli_oracle_refuses_a_huge_box(tmp_path):
    # box 200 on GL_3 is about 401^3 box vectors: refused before the sweep
    paths = {}
    for name, payload in {
        "group": {"factors": [{"family": "GL", "rank": 3}], "gram": "identity"},
        "rep": {"kind": "conjugation_tuples", "m": 3, "count": 1},
        "input": {"points": [["0", "1", "0", "0", "0", "1", "0", "0", "0"]], "subvariety": {"kind": "zero_locus"}},
        "config": {"exponent_box": 200},
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    start = time.perf_counter()
    code, report = run_cli(tmp_path, ["oracle"] + [arg for name, path in paths.items() for arg in (f"--{name}", str(path))])
    assert time.perf_counter() - start < 2.0
    assert code == 4
    assert report["error"]["kind"] == "unsupported"
    assert "64481201 box vectors" in report["error"]["message"]


def test_lie_subalgebra_document():
    group = documents.parse_group(SL2_DOC)
    lie = documents.parse_lie_subalgebra(
        {"basis": [[["0", "1"], ["0", "0"]]]}, group
    )
    assert len(lie.basis) == 1
    with pytest.raises(SchemaError):
        documents.parse_lie_subalgebra({"basis": [[["1", "0"], ["0", "1"]]]}, group)
    with pytest.raises(SchemaError):
        documents.parse_lie_subalgebra({"basis": []}, group)


CORPUS_PROFILES = (
    "ruconj",
    "equivariance",
    "dblecochar",
    "oracle-agreement",
    "centralizer",
    "kempf-equivariance",
    "group-lie-consistency",
)

# sha256 of the sorted-key JSON of each report's "result" block; a moved
# case stream or a changed check shows here.
CORPUS_RESULT_PINS = (
    ("ruconj", 1, 8, "97e114c826f4eb861aeb62b406855dba9bd0c88ac798674231c998e859d7393e"),
    ("ruconj", 2, 8, "224d1a1f7ed1579cd320b53cdba6e5b56f870871153080a912f883909d699dbc"),
    ("equivariance", 1, 8, "3b2e2739074a4a23b2c7a7f97808457939ad3834dfebc60bf10fe02bb092c28d"),
    ("equivariance", 2, 8, "1b4d7602e5aac0da1e81ca312dd07f60c6df23f159e46e49903a607fc6244f20"),
    ("dblecochar", 1, 8, "85c29f46ea976c9416fb40aff3e5027f0af040d7ec95f60fa0d5e72757559a2c"),
    ("dblecochar", 2, 8, "b2e53c7dc85e4810ec7b08effaf91a2e9f28f5edc2fdb92a1972489891f964c1"),
    ("oracle-agreement", 1, 8, "c0af3c9218823ce56e1ba3fbbedddf1c85c2bfa4700045b383e6dcf23d4af87c"),
    ("oracle-agreement", 2, 8, "5bd4fa304407d2ddfbdd73b70cbc1d6b02911fc609191b480e5f2a26c4c3704a"),
    ("centralizer", 1, 8, "f16864fae47ab27b07f94ff1e281f0ed2b7737767f4220827efae5f3c0172ad7"),
    ("centralizer", 2, 8, "2aced993ee10572e222d6402184d1b4f626ba8e23abab99e9deaebf4e5b5acc0"),
    ("kempf-equivariance", 1, 4, "f1504a12eea76f49c4b3c708be9f318f2155fb2426fa0f6184a7ff7777441be0"),
    ("kempf-equivariance", 2, 4, "6b6ff68c55dfb69622500e82e37eeccfe73ed0cd2abe5ccb3b47f1145f7c7167"),
    ("group-lie-consistency", 1, 8, "3793ee15d540ff02a552d118fc69e6d3297694f27f71c0a138e2d43039a60736"),
    ("group-lie-consistency", 2, 8, "a46e1c1239b51c74c640a0a61712b2d96d286eacd06c3d62480e3e8dc71dd532"),
)


def test_cli_corpus_case_streams_pinned(tmp_path):
    for profile, seed, size, digest in CORPUS_RESULT_PINS:
        code, report = run_cli(
            tmp_path, ["corpus", "--profile", profile, "--seed", str(seed), "--size", str(size)]
        )
        assert code == 0
        canon = json.dumps(report["result"], sort_keys=True).encode("utf-8")
        assert hashlib.sha256(canon).hexdigest() == digest, (profile, seed)


# The exit code and the sha256 of the sorted-key report, "version" dropped,
# of each command of the committed bench/docs manifest, by case name.
BENCH_DOCS = Path(__file__).resolve().parent.parent / "bench" / "docs"
BENCH_DOCS_REPORT_PINS = (
    ("limit-gl3-pair", 0, "06518178b4d8ff08f388d204a404391af1e6699a1ddff37378ef92cb2499ff93"),
    ("limit-gl3-based", 0, "ad48f2a034b4fd60e88d47ac94832efbf1508f902c078a1385edcad4d921f69f"),
    ("limit-sl2-binary", 0, "d948a8ba7f6f33181be5fb38bc9e8eec42ce19f12ddb5808287347d5dac08360"),
    ("limit-gl2-triple", 0, "0ebf68b01b5b94b1a2c9f1a9bf3c5aca40654b93f4ff67e0af7c407a13f104e3"),
    ("limit-gl3-weak", 0, "662d3de69ebae1cb07a051a9e9f006f2ee8ceff79ca546f6c09c888a9cf0c38f"),
    ("limit-gl2-none", 0, "9ff2ea9eb13d4eacba4e2845f9184084ac5dc12a42e30d8392fd0711ae497141"),
    ("classify-InRu", 0, "b41175d90b9fea60b6461b171caccced04eec1bdb77bf92df0aeb3b015bb6a80"),
    ("classify-InL", 0, "55db8960822a9b6f74198b925d9c4cc3d8863339992a46953dc87a582533c0c4"),
    ("classify-InPnotLnotRu", 0, "8d8191435f52295dc982412416a9ac8bb234cad180cecbcbe617d6b40fd74587"),
    ("classify-NotInP", 0, "deb6d52e504e8431c365d036689dd00f49e186f0894225f91bb75a020724a3c6"),
    ("optimize-gl3-regular", 0, "319b13eda8343329b8691dc9f5b41df3ea895a19548dee5334ec00a50fb5be6d"),
    ("optimize-gl3-jordan21", 0, "4bc3fa1b911d23aab1f480013bb1659606fdc21feddc8dbc161aa87144a3b59e"),
    ("optimize-gl4-regular", 0, "60d89d71f0b1f00271fc2a371be5c6f1c79309aa5baa9b62634c175344b3a001"),
    ("optimize-gl2-regular", 0, "6e71446f38fa236f3fcd36203d5a1b1be10b39bb3d2df390f836f43655b1bed3"),
    ("oracle-sl2-sym3", 0, "0377ae9bd8f12c63ffd3614c3d06df2c01f151f514ea3556fff8182d82eaf181"),
    ("oracle-sl2-sym5", 0, "8780a7de74c3663f4380b8e6efc005f2129f70321d5efda6eecffcd57b1c4455"),
    ("oracle-gl2-nilpotent", 0, "bd40c4be97543ea975f6b61f8de4efa908b3f93a10147281f669edbd375835ed"),
    ("closed-gl3-semisimple", 0, "063848e3b89a727a131798ff227fc65e9127574fda845d959c4316a190db8ae6"),
    ("closed-gl3-jordan", 0, "177f1baa9214227f35e9e16ad2100bb4d7a0a0c9d09dba0b7946e5802889cf9e"),
    ("closed-gl2-jordan", 0, "06b0ca59ab8b04e992bfd88212fb3ebb45d384f6e42a4258db731c4a13deea16"),
    ("closed-gl2-flag", 0, "cf646f1ce667cb50bd62ab03890b0661ec1ba343d448d8b0822419440036f36a"),
    ("closed-gl2-irreducible", 0, "44685456146835158acc3ce601a938be5ab8730b7728248816bde4942148962e"),
    ("gcr-gl2-unipotent", 0, "f149cd03d8f1bfb15853b8ce7e084d81101ac78a691e76d6a88e97535c8711d0"),
    ("gcr-gl2-irreducible", 0, "c72af2a6487d827f1efb81c464ae2f106a7a7320c080adbde02600ed7a0079ba"),
    ("gcr-gl3-borel", 0, "3b691b4879870b6a41ed232532684320d580845137663958571748cf83285d91"),
    ("gcr-gl3-cycle", 0, "e44d41efb76aa72ef85c60fd703fdbb8d9bfe70272998432a6f1f8b52a923866"),
    ("gcr-gl3-unipotent", 0, "97dd99927a5d7974de76c7bc6da039b24a9a340ce3092f34719b96865af8c67a"),
    ("reduce-gl2-unipotent", 0, "47b3a67af328a6ec3493c04724ac125104b24499c9dbef0013878f00b476d07e"),
    ("reduce-gl3-borel", 0, "90b06a4be3bec1a3b63c28dabf46a352792af602322681747e0dbef33c3ea104"),
    ("reduce-gl3-block", 0, "d9283f59737f38de40a2d17ffd7b7baaf7aa49e9c2c33e3802a2ad7d9b77bd98"),
    ("centre-gl3-regular", 0, "13ece5c7b92d77266b49d0d3b7c5135d5e7750f9c400281ea97a8c4243385de9"),
    ("centre-gl3-pair", 0, "04ea608932982fb5c422ecd77f240f49f9318e4cedcddf5beb2126b9d08ec4bc"),
    ("centre-gl2-unipotent", 0, "4ec57cb2468ab477b64fc595f504fb057a26b974859b37bfc8714150c201cc8b"),
    ("corpus-ruconj", 0, "28164e07d9ab3202d9d8f893bb7e51a942cf0e63e644b20738ecb701d1a5e15a"),
    ("corpus-equivariance", 0, "e90dc7611dbdbe13de6091908ed8cd54273f96b3482db1e658a9af5773c1eaed"),
    ("corpus-dblecochar", 0, "1b171fc957a0cf0614d1081d5a3471ec698e14ea66f09b2b05280700e6f61077"),
    ("corpus-oracle-agreement", 0, "62bdc1762babf16da1e5f61c1e38629c15d2e8270411e2186dd8adb409d57cdb"),
    ("corpus-centralizer", 0, "2f5e38ceb90ea29b5b0e72661e51842a1c3adf9ec95fe4380bfbb662c3e15904"),
    ("corpus-kempf-equivariance", 0, "6c798227a812d4484c06dac8f3ffcdb5806b802abeba8294a9041b2d60715ff3"),
    ("corpus-group-lie-consistency", 0, "3f8bf62de32e379d0999c2c95855951b21478e4b5f7aacf6faba7179777c65ff"),
)


def test_bench_docs_reports_pinned(tmp_path):
    # every command of the manifest run in process on the committed
    # documents: a change that moves any report, or an exit code, shows here
    manifest = json.loads((BENCH_DOCS / "manifest.json").read_text(encoding="utf-8"))
    seen = []
    for case in manifest["cases"]:
        argv = [str(BENCH_DOCS / a) if (BENCH_DOCS / a).is_file() else a for a in case["argv"]]
        code, report = run_cli(tmp_path, argv)
        del report["version"]
        canon = json.dumps(report, sort_keys=True).encode("utf-8")
        seen.append((case["name"], code, hashlib.sha256(canon).hexdigest()))
    assert seen == list(BENCH_DOCS_REPORT_PINS)


@pytest.mark.parametrize("profile", CORPUS_PROFILES)
def test_cli_corpus_parallel_matches_sequential(tmp_path, monkeypatch, profile):
    size = "2" if profile == "kempf-equivariance" else "4"
    argv = ["corpus", "--profile", profile, "--seed", "3", "--size", size]
    out_seq = tmp_path / "seq.json"
    main(argv + ["--out", str(out_seq)])
    monkeypatch.setenv("DESTAB_THREADS", "2")
    out_par = tmp_path / "par.json"
    main(argv + ["--out", str(out_par)])
    assert json.loads(out_seq.read_text())["result"] == json.loads(out_par.read_text())["result"]
    assert out_seq.read_bytes() == out_par.read_bytes()


def test_cli_corpus_rejects_non_integer_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("DESTAB_THREADS", "abc")
    code, report = run_cli(tmp_path, ["corpus", "--profile", "ruconj", "--size", "2"])
    assert code == 2
    assert report["error"]["kind"] == "schema"
    assert "DESTAB_THREADS" in report["error"]["message"]


def test_cli_corpus_refuses_oversized_threads(tmp_path, monkeypatch):
    # the refusal comes before run_profile, so no worker process starts
    started = []
    monkeypatch.setattr(cli, "run_profile", lambda *args: started.append(args))
    monkeypatch.setenv("DESTAB_THREADS", str(cli._MAX_WORKERS + 1))
    code, report = run_cli(tmp_path, ["corpus", "--profile", "ruconj", "--size", "2"])
    assert code == 2 and started == []
    assert report["error"]["kind"] == "schema"
    assert "DESTAB_THREADS" in report["error"]["message"] and str(cli._MAX_WORKERS) in report["error"]["message"]


@pytest.mark.parametrize("size", ["0", "-3"])
def test_cli_corpus_rejects_size_below_one(tmp_path, size):
    code, report = run_cli(tmp_path, ["corpus", "--profile", "ruconj", "--size", size])
    assert code == 2
    assert report["error"]["kind"] == "schema"


def test_cli_determinism(tmp_path, docs):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        main(
            [
                "optimize",
                "--group", docs["group_gl2"],
                "--rep", docs["rep_mat"],
                "--input", docs["optimize_input"],
                "--config", docs["config"],
                "--out", str(out),
            ]
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_fingerprint_covers_input_documents(tmp_path, docs):
    other = tmp_path / "subgroup_irreducible.json"
    other.write_text(json.dumps({"generators": [[["0", "1"], ["1", "1"]]]}))
    fingerprints = []
    for subgroup in (docs["subgroup"], str(other)):
        code, report = run_cli(
            tmp_path,
            ["gcr", "--group", docs["group_gl2"], "--input", subgroup, "--config", docs["gcr_config"]],
        )
        assert code == 0
        fingerprints.append(report["config_fingerprint"])
    assert fingerprints[0] != fingerprints[1]


def test_public_exports_pinned():
    import destab

    assert sorted(destab.__all__) == [
        "COMPLETELY_REDUCIBLE", "CentreSimplex", "Character", "CocharClosedVerdict",
        "Cocharacter", "ConjugationTuples", "DestabError", "DimensionError", "DirectSum",
        "DomainError", "EnvelopingAlgebra", "Factor", "GcrVerdict", "Grading", "GroupSpec",
        "InvariantViolation", "LieSubalgebra", "LimitMembershipError", "MembershipClass",
        "ModeError", "NOT_COMPLETELY_REDUCIBLE", "NOT_WITNESSED", "Norm", "OPTIMAL",
        "OptimizationResult", "ParabolicDescriptor", "Point", "Polynomial",
        "PreconditionError", "Representation", "SchemaError", "SearchConfig",
        "SubgroupPresentation", "SubvarietyKind", "SubvarietySpec", "SymPower", "TRIVIAL",
        "TorusCocharacter", "UnsupportedError", "UnsupportedGroupError",
        "UnsupportedRepresentationError", "VanishingOrder", "adjoint", "admits_limit_set",
        "building_centre", "c_lambda", "centralizer_dim", "classify", "combine",
        "composition_threshold", "enveloping_algebra", "errors", "find_ru_conjugator", "gcr",
        "grade", "groups", "instability", "is_cochar_closed", "is_gcr_algebra",
        "is_gcr_search", "is_generic_tuple", "isotypic_decompose", "lie_c_lambda",
        "lie_classify", "lie_is_gcr", "limit", "linalg", "nearest_point_interior", "norm_sq",
        "optimal_parabolic_subgroup", "optimize", "optimize_torus", "pairing", "parabolic",
        "radical_dim", "reduce_to_gcr", "reps", "support", "vanishing_order", "weyl_conjugate",
    ]


def test_cli_entry_point_installed(tmp_path, docs):
    proc = subprocess.run(
        [sys.executable, "-m", "destab.cli", "classify", "--group", docs["group_gl2"],
         "--input", docs["classify_input"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["membership"] == "InRu"
