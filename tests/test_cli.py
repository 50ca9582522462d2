import json
from types import SimpleNamespace

import pytest

from conftest import FIXTURES, QUERIES
from ssdkb import bench
from ssdkb.cli import main
from ssdkb.kb import KnowledgeBase, TripleIndex


def fixture(name):
    return str(FIXTURES / name)


def test_validate_clean_file(capsys):
    assert main(["validate", fixture("fig3.ttl")]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


# the line that `validate` prints to stdout, and `classify` to stderr, for
# the one violation of broken_alternating.ttl
BROKEN_LINE = (
    "AlternatingNeedsTwoTreatments <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#bad01_ph2>"
    " alternating intervention phase needs at least two distinct treatments\n"
)


def test_validate_broken_file(capsys):
    assert main(["validate", fixture("broken_alternating.ttl")]) == 1
    captured = capsys.readouterr()
    assert captured.out == BROKEN_LINE
    assert captured.err == "AlternatingNeedsTwoTreatments: 1\n"


def test_validate_counts_violations_per_code(tmp_path, capsys):
    # a second alternating study, also with one treatment and a gap in its positions
    second = """
ssd:bad02 a ssd:AlternatingTreatmentDesign ;
    ssd:hasPhase ssd:bad02_ph1 ;
    ssd:hasPhase ssd:bad02_ph2 .
ssd:bad02_ph1 a ssd:BaselinePhase ;
    ssd:hasPosition 1 .
ssd:bad02_ph2 a ssd:AlternatingInterventionPhase ;
    ssd:hasPosition 3 ;
    ssd:hasInterventionType aut:weekendInterview .
"""
    path = tmp_path / "two.ttl"
    path.write_text((FIXTURES / "broken_alternating.ttl").read_text() + second)
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    codes = [line.split()[0] for line in captured.out.splitlines()]
    assert codes == ["AlternatingNeedsTwoTreatments"] * 2 + ["PhasePositionsNotContiguous"]
    assert captured.err == "AlternatingNeedsTwoTreatments: 2\nPhasePositionsNotContiguous: 1\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "no_such_file.ttl"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_directory_input_exits_two(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{ttl}"],
        ["stats", "{ttl}"],
        ["query", "--dl", "-f", "{ttl}", fixture("fig3.ttl")],
    ],
)
def test_non_utf8_input_exits_two(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.ttl"
    bad.write_bytes("ssd:caf\xe9 a ssd:Study .\n".encode("latin-1"))
    assert main([arg.format(ttl=bad) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_validate_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("this is not turtle")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_fig3(capsys):
    assert main(["classify", fixture("fig3.ttl")]) == 0
    out = capsys.readouterr().out
    assert out == "ssd01: ABAB_Design, WithdrawalDesign, SingleSubjectDesign\n"


_TWO_DIMENSIONS = """\
@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .
ssd:m a ssd:MultipleBaselineDesign ; ssd:hasMBDItemType ssd:SimpleDesign ;
    ssd:hasMBDItem ssd:i1 ; ssd:hasMBDItem ssd:i2 .
ssd:i1 a ssd:MBDItem ; ssd:hasParticipant ssd:paul ; ssd:hasSetting ssd:home ;
    ssd:hasPhase ssd:i1_b ; ssd:hasPhase ssd:i1_i .
ssd:i2 a ssd:MBDItem ; ssd:hasParticipant ssd:mary ; ssd:hasSetting ssd:school ;
    ssd:hasPhase ssd:i2_b ; ssd:hasPhase ssd:i2_i .
ssd:i1_b a ssd:BaselinePhase ; ssd:hasPosition 1 .
ssd:i2_b a ssd:BaselinePhase ; ssd:hasPosition 1 .
ssd:i1_i a ssd:SimpleInterventionPhase ; ssd:hasPosition 2 ; ssd:hasInterventionType ssd:t .
ssd:i2_i a ssd:SimpleInterventionPhase ; ssd:hasPosition 2 ; ssd:hasInterventionType ssd:t .
"""


def test_classify_prints_each_warning_to_stderr(tmp_path, capsys):
    # the items vary in participant and setting, so the study is valid but
    # of no across-X class
    path = tmp_path / "mbd.ttl"
    path.write_text(_TWO_DIMENSIONS)
    assert main(["classify", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "m: MultipleBaselineDesign, SingleSubjectDesign\n"
    assert captured.err == (
        "warning: MBDMultipleDimensions"
        " <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#m>"
        " dimensions ['setting', 'subject'] all vary; exactly one may\n"
    )


def test_classify_broken_exits_one(capsys):
    assert main(["classify", fixture("broken_alternating.ttl")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", BROKEN_LINE)


def test_query_dl_expr(capsys):
    code = main(
        [
            "query",
            "--dl",
            "-e",
            "Result and isResultOfPhase some {ph01}",
            fixture("fig3.ttl"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "res01\nres02\n"


def test_query_dl_from_file(capsys):
    code = main(
        [
            "query",
            "--dl",
            "-f",
            str(QUERIES / "dl_across_setting_complex.dl"),
            fixture("mbd_setting.ttl"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "mbd01\n"


def test_query_dl_json(capsys):
    code = main(
        [
            "query",
            "--dl",
            "-e",
            "Result and isResultOfPhase some {ph01}",
            "--format",
            "json",
            fixture("fig3.ttl"),
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == ["res01", "res02"]


def test_query_sparql_file(capsys):
    code = main(
        [
            "query",
            "--sparql",
            "-f",
            str(QUERIES / "sparql_best_result.rq"),
            fixture("ab_study.ttl"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "?study\t?interType\t?val"
    assert lines[1] == "ab01\tweekendInterview\t20.4"


def test_query_bad_expression(capsys):
    assert main(["query", "--dl", "-e", "Result and", fixture("fig3.ttl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_query_deep_expression_exits_two(capsys):
    deep = "(" * 3000 + "Result" + ")" * 3000
    assert main(["query", "--dl", "-e", deep, fixture("fig3.ttl")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: expression nested deeper than")


def test_query_requires_mode(capsys):
    assert main(["query", "-e", "Result", fixture("fig3.ttl")]) == 2


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.ttl"
    b = tmp_path / "b.ttl"
    assert main(["gen", "-n", "5", "--seed", "12", "-o", str(a)]) == 0
    assert main(["gen", "-n", "5", "--seed", "12", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["validate", str(a)]) == 0


def test_gen_then_stats(tmp_path, capsys):
    out = tmp_path / "kb.ttl"
    assert main(["gen", "-n", "3", "--seed", "4", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    text = capsys.readouterr().out
    assert "studies: 3" in text
    assert "triples: " in text


def test_stats_fig3(capsys):
    assert main(["stats", fixture("fig3.ttl")]) == 0
    out = capsys.readouterr().out
    assert "studies: 1" in out
    assert "triples: 69" in out
    assert "individuals: 25" in out


BENCH_LAYERS = [
    "generate.graph_s", "turtle.serialize_s", "turtle.parse_s", "kb.lift_s",
    "model.validate_s", "classify.materialize_s", "kb.stats_s", "gc.collect_s",
]


def test_bench_small_run(capsys):
    assert main(["bench", "-n", "5", "-n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["seed"] == 1
    assert report["sizes"] == [3, 5]
    assert {"python", "machine"} <= report.keys()
    for n in ("3", "5"):
        run = report["runs"][n]
        assert list(run) == BENCH_LAYERS + ["load_peak_rss_mb", "peak_rss_mb", "chains"]
        assert all(run[layer] > 0 for layer in BENCH_LAYERS)
        assert [chain.keys() for chain in run["chains"]] == [set(BENCH_LAYERS)] * 3
        assert 0 < run["load_peak_rss_mb"] <= run["peak_rss_mb"]
    assert list(report["growth"]) == BENCH_LAYERS
    assert list(report["control_ms"]) == ["before", "after"]
    assert all(ms > 0 for ms in report["control_ms"].values())


def test_bench_reports_each_layers_median(monkeypatch):
    """Each layer's figure is the median of three load chains, run round by
    round over the sizes, and each chain's figures are kept in the order
    run. Each size's queries answer on its first chain's kb, and its peak
    RSS is read right after them; its load peak is its first chain's."""
    loads = []
    times = {3: [5.0, 4.0, 1.0], 7: [1.0, 2.0, 9.0]}

    def load(n):
        loads.append(n)
        i = loads.count(n) - 1
        # a kb whose one triple names its size and its chain
        kb = KnowledgeBase(graph=None, taxonomy=None, store=TripleIndex([(n, "chain", i)]))
        return dict.fromkeys(BENCH_LAYERS, times[n][i]), kb, len(loads) - 0.5

    monkeypatch.setattr(bench, "_load", load)
    # the high-water mark counts the chains run so far
    monkeypatch.setattr(
        bench.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=1024 * len(loads))
    )
    first_kb = {"query.first": lambda kb: [kb] if kb.store.all[0][2] == 0 else []}
    runs = bench.bench_sizes([3, 7], first_kb)
    assert loads == [3, 7, 3, 7, 3, 7]
    assert [runs["3"][layer] for layer in BENCH_LAYERS] == [4.0] * len(BENCH_LAYERS)
    assert [runs["7"][layer] for layer in BENCH_LAYERS] == [2.0] * len(BENCH_LAYERS)
    for n in (3, 7):
        assert [chain["kb.lift_s"] for chain in runs[str(n)]["chains"]] == times[n]
    assert runs["3"]["query.first"]["rows"] == runs["7"]["query.first"]["rows"] == 1
    assert (runs["3"]["peak_rss_mb"], runs["7"]["peak_rss_mb"]) == (1.0, 2.0)
    assert (runs["3"]["load_peak_rss_mb"], runs["7"]["load_peak_rss_mb"]) == (0.5, 1.5)


def test_bench_runs_each_query_cold_on_a_fresh_store(monkeypatch):
    """Each query file's first run finds a store of its own over the first
    kb's triples, in the same order, with no table built from them: the
    state that `ssdkb query` starts from. Its warm runs read that store."""
    kbs = []
    load = bench._load

    def first_load(n):
        layers, kb, peak = load(n)
        kbs.append(kb)
        return layers, kb, peak

    def built(store):
        tables = (store._subjects, store._objects, store._members, store._numbers)
        return [set(table) for table in tables], store._nodes, store._whole

    stores = {}

    def watched(name, run):
        def answer(kb):
            stores.setdefault(name, (kb.store, built(kb.store)))
            assert kb.store is stores[name][0]
            return run(kb)

        return answer

    monkeypatch.setattr(bench, "_load", first_load)
    queries = bench.load_queries(sorted(str(path) for path in QUERIES.glob("*.[dr][lq]")))
    assert len(queries) == 10
    runs = bench.bench_sizes([4], {name: watched(name, run) for name, run in queries.items()})
    assert runs["4"].keys() > queries.keys() == stores.keys()
    first = kbs[0].store
    # `kb_stats` built the load's object table of rdf:type
    assert first._objects
    for store, before in stores.values():
        assert before == ([set()] * 4, None, None)
        assert store.all == first.all and store.by_p == first.by_p
    assert len({id(store) for store, _ in stores.values()} | {id(first)}) == 11


def test_bench_with_query_dir(tmp_path, capsys):
    qdir = tmp_path / "queries"
    qdir.mkdir()
    (qdir / "simple.dl").write_text("Result\n")
    (qdir / "listing.rq").write_text(
        "PREFIX ssid: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#>\n"
        "SELECT ?s WHERE { ?s a ssid:Result }\n"
    )
    files = [str(qdir / "simple.dl"), str(qdir / "listing.rq")]
    assert main(["bench", "-n", "4", *files]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sizes"] == [4]
    assert "growth" not in report
    run = report["runs"]["4"]
    # both engines see the same results
    assert run["query.simple"]["rows"] == run["query.listing"]["rows"] > 0
    assert run["query.simple"].keys() == {"cold_ms", "warm_ms", "rows"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-n", "0"], "need at least 1 study, got 0"),
        (["-n", "-3"], "need at least 1 study, got -3"),
        (["-n", "2", "queries/notes.txt"], "a query file ends in .dl or .rq"),
    ],
)
def test_bench_rejects_bad_arguments(argv, message, capsys):
    assert main(["bench", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ssdkb bench")
    assert message in err


def test_bench_takes_no_profile(capsys):
    # the bench corpus is always the default profile's; only `gen` reads one.
    # The top-level parser reports an unknown option, under its own usage line.
    assert main(["bench", "-n", "2", "--profile", "mix.dl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --profile" in captured.err


def test_bench_query_syntax_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dl"
    bad.write_text("Result and\n")
    assert main(["bench", "-n", "2", str(QUERIES / "cq_age_range.dl"), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
