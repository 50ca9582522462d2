"""Command-line entry point.

Subcommands: validate, classify, query, gen, bench, stats.
Exit codes: 0 success, 1 validation violations, 2 parse/usage errors.

`ssdkb bench [-n N]... [QUERY_FILE ...]` prints one JSON
document: per corpus size, the median time over three loads of each load
layer and of one full collection, the time of each `.dl`/`.rq` query file
cold and warm, and the process's peak RSS; see `ssdkb.bench`.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .bench import ENGINES, load_queries, run_bench
from .classify import ClassificationError, classify_study, materialize_types
from .dlquery import DlEvalError, DlSyntaxError, eval_dl_query, parse_dl_query
from .generate import GenProfile, ProfileError, generate_graph
from .kb import KnowledgeBase, SchemaError, graph_to_kb, kb_stats, validate_kb
from .sparql import SparqlSyntaxError, eval_sparql, parse_sparql
from .terms import Iri, local_name
from .turtle import TurtleSyntaxError, parse_turtle, serialize_turtle


def _load_kb(path: str) -> KnowledgeBase:
    with open(path, encoding="utf-8") as handle:
        graph = parse_turtle(handle.read())
    return graph_to_kb(graph)


def _cmd_validate(args) -> int:
    kb = _load_kb(args.file)
    violations = validate_kb(kb)
    for v in violations:
        print(v)
    for code, count in sorted(Counter(v.code for v in violations).items()):
        print(f"{code}: {count}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_classify(args) -> int:
    kb = _load_kb(args.file)
    violations = validate_kb(kb)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    for study in kb.studies:
        classification = classify_study(study, kb.taxonomy)
        names = sorted(
            classification.classes,
            key=lambda c: (-kb.taxonomy.depth(c), c.value),
        )
        print(f"{local_name(study.id)}: " + ", ".join(local_name(c) for c in names))
        for warning in classification.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    if args.expr is not None:
        text = args.expr
    else:
        with open(args.query_file, encoding="utf-8") as handle:
            text = handle.read()
    kb = materialize_types(_load_kb(args.kbfile))
    if args.dl:
        expr = parse_dl_query(text)
        members = sorted(eval_dl_query(expr, kb))
        if args.format == "json":
            print(json.dumps([_display(m) for m in members], indent=2))
        else:
            for member in members:
                print(_display(member))
    else:
        query = parse_sparql(text)
        table = eval_sparql(query, kb)
        if args.format == "json":
            print(table.to_json(), end="")
        else:
            print(table.to_tsv(), end="")
    return 0


def _display(term) -> str:
    return local_name(term) if isinstance(term, Iri) else str(term)


def _cmd_gen(args) -> int:
    profile = GenProfile.from_file(args.profile) if args.profile else GenProfile()
    if args.seed is not None:
        profile = replace(profile, seed=args.seed)
    text = serialize_turtle(generate_graph(args.count, profile))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.count} studies to {args.output}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    queries = load_queries(args.query_files)
    print(json.dumps(run_bench(args.count or [1000], queries), indent=2))
    return 0


def _study_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 study, got {count}")
    return count


def _query_file(path: str) -> str:
    if Path(path).suffix not in ENGINES:
        raise argparse.ArgumentTypeError(f"{path}: a query file ends in .dl or .rq")
    return path


def _cmd_stats(args) -> int:
    kb = _load_kb(args.file)
    stats = kb_stats(kb)
    print(f"studies: {stats.study_count}")
    print(f"triples: {stats.triple_count}")
    print(f"individuals: {stats.individual_count}")
    for name, count in stats.per_class_counts.items():
        print(f"class {name}: {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdkb",
        description="Annotate, classify, query and benchmark single-subject design studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a Turtle file against the model invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="print inferred design classes per study")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("query", help="run a DL or SPARQL query over a kb file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dl", action="store_true")
    mode.add_argument("--sparql", action="store_true")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("-e", "--expr")
    source.add_argument("-f", "--query-file")
    p.add_argument("kbfile")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("gen", help="generate synthetic study annotations")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--profile")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time each layer and query file; print JSON")
    p.add_argument(
        "-n", "--count", type=_study_count, action="append", help="corpus size (repeatable)"
    )
    p.add_argument("query_files", nargs="*", type=_query_file, metavar="QUERY_FILE")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats", help="print kb size statistics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        TurtleSyntaxError,
        DlSyntaxError,
        SparqlSyntaxError,
        SchemaError,
        ProfileError,
        DlEvalError,
        ClassificationError,
        # a path that is missing, a directory, not permitted or not UTF-8
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
