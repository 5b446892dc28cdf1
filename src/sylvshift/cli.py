"""Command line surface.

Exit codes: 0 success, 2 bad input, 3 cap or budget exhausted,
4 verification suite failure, 5 internal invariant violation.
Progress goes to stderr; results go to stdout (or --out).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import verify as verify_mod
from .cocharge import cochseq_word
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DisconnectedError,
    InternalError,
    ParseError,
    SylvError,
)
from .graph import (
    MAX_VERTICES,
    component,
    diameter,
    edge_witnesses,
    graph_dot,
    meet,
    neighbor_keys,
    neighbor_set,
)
from .monoid import (
    DEFAULT_REWRITE_BUDGET,
    element_of,
    equivalent,
    multiply,
    rewrite_equivalent,
)
from .pathsynth import certificate_json, shift_path, transcript
from .trees import MAX_READINGS, readings, tree_art, tree_dot, tree_str
from .words import evaluation, is_standard, parse_label, parse_word, word_str


def _emit(text: str, args: argparse.Namespace) -> None:
    if not args.out:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader has gone (`... | head`): the rest of the output,
            # and the interpreter's final flush, go to devnull, and the
            # command still exits with its own code.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise SylvError(f"cannot write {args.out}: {exc.strerror}") from exc


def _decimal(text: str) -> int | None:
    """The int that text spells as a word label does (decimal digits only,
    no sign, space or underscore), or None when it spells none."""
    try:
        return parse_label(text) if text.isdecimal() else None
    except ParseError:
        return None


def _parse_eval(text: str) -> tuple[int, ...]:
    counts = tuple(map(_decimal, text.split(",")))
    if None in counts:
        raise SylvError(f"bad evaluation {text!r}, expected e.g. 1,1,0")
    return counts


def _infer_rank(args: argparse.Namespace, *ws: tuple[int, ...]) -> int:
    if args.rank is not None:
        return args.rank
    return max((a for w in ws for a in w), default=1)


def cmd_tree(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    if args.format == "art":
        _emit(tree_art(w), args)
    elif args.format == "dot":
        _emit(tree_dot(w), args)
    elif args.format == "json":
        _emit(json.dumps({"word": args.word, "tree": tree_str(w)}), args)
    else:
        _emit(tree_str(w), args)
    return 0


def cmd_cochseq(args: argparse.Namespace) -> int:
    seq = cochseq_word(parse_word(args.word))
    if args.format == "json":
        _emit(json.dumps({"word": args.word, "cochseq": list(seq)}), args)
    else:
        _emit(" ".join(str(c) for c in seq), args)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    n = _infer_rank(args, w)
    counts = evaluation(w, n)
    if args.format == "json":
        _emit(json.dumps({"word": args.word, "rank": n,
                          "evaluation": list(counts), "standard": is_standard(w)}), args)
    else:
        _emit(",".join(str(c) for c in counts), args)
    return 0


def cmd_readings(args: argparse.Namespace) -> int:
    rs = sorted(readings(parse_word(args.word), args.max_readings))
    if args.format == "json":
        _emit(json.dumps({"word": args.word, "count": len(rs),
                          "readings": [word_str(r) for r in rs]}), args)
    else:
        _emit("\n".join(word_str(r) for r in rs), args)
    return 0


def cmd_equal(args: argparse.Namespace) -> int:
    u, v = parse_word(args.left), parse_word(args.right)
    n = _infer_rank(args, u, v)
    same = equivalent(u, v, n)
    if args.rewrite:
        by_rewriting = rewrite_equivalent(u, v, n, args.budget)
        if by_rewriting != same:
            raise InternalError(
                f"rewriting disagrees with insertion on {args.left} vs {args.right}")
    if args.format == "json":
        _emit(json.dumps({"left": args.left, "right": args.right,
                          "rank": n, "equal": same}), args)
    else:
        _emit("true" if same else "false", args)
    return 0


def cmd_multiply(args: argparse.Namespace) -> int:
    u, v = parse_word(args.left), parse_word(args.right)
    n = _infer_rank(args, u, v)
    product = multiply(element_of(u, n), element_of(v, n))
    if args.format == "json":
        _emit(json.dumps({"left": args.left, "right": args.right, "rank": n,
                          "reading": word_str(product.key),
                          "tree": tree_str(product.key)}), args)
    else:
        _emit(tree_str(product.key), args)
    return 0


def cmd_neighbors(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    s = element_of(w, _infer_rank(args, w))
    rows = sorted((word_str(key), word_str(wit.x), word_str(wit.y), key)
                  for key, wit in neighbor_keys(s.key, args.max_readings).items())
    if args.format == "json":
        _emit(json.dumps({
            "word": args.word,
            "rank": s.rank,
            "neighbors": [
                {"reading": r, "x": x, "y": y, "tree": tree_str(key)} for r, x, y, key in rows
            ],
        }), args)
    elif args.format == "tsv":
        _emit("\n".join("\t".join(r[:3]) for r in rows), args)
    else:
        _emit("\n".join(f"{r}  (x={x or 'e'}, y={y or 'e'})" for r, x, y, _ in rows), args)
    return 0


def _build_component(args: argparse.Namespace):
    if not args.standard:
        e = _parse_eval(args.evaluation)
    elif args.rank is None:
        raise SylvError("--standard needs --rank")
    else:
        e = (1,) * args.rank
    n = len(e) if args.rank is None else args.rank
    return component(e, n, args.max_vertices, args.max_readings)


def cmd_component(args: argparse.Namespace) -> int:
    g = _build_component(args)
    if args.format == "dot":
        _emit(graph_dot(g, tree_labels=args.tree_labels), args)
    elif args.format == "json":
        _emit(json.dumps({
            "rank": g.rank,
            "evaluation": list(g.evaluation),
            "connected": g.connected,
            "vertices": [word_str(v.key) for v in g.vertices],
            "edges": [
                {"a": i, "b": j, "x": word_str(w.x), "y": word_str(w.y)}
                for i, j, w in edge_witnesses(g)
            ],
        }), args)
    else:
        _emit(
            f"evaluation {','.join(map(str, g.evaluation))} at rank {g.rank}: "
            f"{len(g.vertices)} vertices, {g.edge_count()} edges, "
            f"{'connected' if g.connected else f'{len(g.parts)} parts'}", args)
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    u, v = parse_word(args.source), parse_word(args.target)
    n = _infer_rank(args, u, v)
    s, t = element_of(u, n), element_of(v, n)
    if sorted(s.key) != sorted(t.key):
        raise SylvError("words have different evaluations, so no path exists")
    # Searched from both words over keys, so only the two balls around
    # them are ever enumerated, never the whole class.
    d = meet(lambda key: neighbor_set(key, args.max_readings), s.key, t.key, args.max_vertices)
    if d is None:
        raise DisconnectedError([[word_str(s.key)], [word_str(t.key)]])
    if args.format == "json":
        _emit(json.dumps({"source": args.source, "target": args.target,
                          "rank": n, "distance": d}), args)
    else:
        _emit(str(d), args)
    return 0


def cmd_diameter(args: argparse.Namespace) -> int:
    g = _build_component(args)
    d, (a, b) = diameter(g)
    if args.format == "json":
        _emit(json.dumps({
            "rank": g.rank,
            "evaluation": list(g.evaluation),
            "diameter": d,
            "pair": [word_str(a.key), word_str(b.key)],
            "vertices": len(g.vertices),
            "edges": g.edge_count(),
        }), args)
    elif args.format == "tsv":
        _emit("\t".join([",".join(map(str, g.evaluation)), str(len(g.vertices)),
                         str(g.edge_count()), str(d), word_str(a.key), word_str(b.key)]), args)
    else:
        _emit(f"{d}  ({word_str(a.key)} .. {word_str(b.key)})", args)
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    u, v = parse_word(args.source), parse_word(args.target)
    n = _infer_rank(args, u, v)
    cert = shift_path(element_of(u, n), element_of(v, n))
    if args.format == "json":
        _emit(certificate_json(cert), args)
    else:
        _emit(transcript(cert), args)
    return 0


# The size flags of verify, by the suite parameter each sets.
SIZE_FLAGS = {"nmax": "--n", "maxlen": "--maxlen", "rank": "-n/--rank"}


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.suites or ["all"]
    if "all" in names:
        names = list(verify_mod.SUITES)
    for name in names:
        if name not in verify_mod.SUITES:
            raise SylvError(f"unknown suite {name!r}; have {', '.join(verify_mod.SUITES)}")
        for param, least in verify_mod.LEAST_SIZES.get(name, {}).items():
            value = getattr(args, param)
            if value is not None and value < least:
                flag = SIZE_FLAGS[param]
                raise SylvError(f"suite {name} has nothing to check at {flag} {value}; "
                                f"it needs {flag} >= {least}")
    read = {param for name in names for param in _params(verify_mod.SUITES[name])}
    for param, flag in SIZE_FLAGS.items():
        if getattr(args, param) is not None and param not in read:
            raise SylvError(f"no suite of {', '.join(names)} reads {flag}")
    reports = [_run_suite(verify_mod.SUITES[name], args) for name in names]
    _emit("\n".join(r.render() for r in reports), args)
    return 0 if all(r.passed for r in reports) else 4


def _run_suite(suite, args: argparse.Namespace):
    """Run suite with each set verify option that names one of its parameters.

    Unset options are None and leave the suite's own default; the caps and
    the budget default to the same library constants the suites use. The
    code object of the suite, or of the function a `functools.wraps`
    wrapper names as `__wrapped__`, names its parameters, so `inspect` is
    not loaded.
    """
    params = _params(suite)
    return suite(**{k: v for k, v in vars(args).items() if k in params and v is not None})


def _params(suite) -> tuple[str, ...]:
    code = getattr(suite, "__wrapped__", suite).__code__
    return code.co_varnames[:code.co_argcount]


def _int_at_least(low: int):
    """argparse type for an integer >= low; anything else exits 2 with usage."""

    def parse(text: str) -> int:
        value = _decimal(text)
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


# The flags shared by several commands, each given only to the commands
# whose handler reads it (see build_parser). --out goes to every command.
SHARED_FLAGS = {
    "rank": (("-n", "--rank"), dict(
        type=_int_at_least(0),
        help="alphabet rank (default: inferred from the input; for verify, each suite's own)")),
    "max_readings": (("--max-readings",), dict(
        type=_int_at_least(1), default=MAX_READINGS, help="cap on readings of one tree")),
    "max_vertices": (("--max-vertices",), dict(
        type=_int_at_least(1), default=MAX_VERTICES,
        help="cap on vertices of one component (distance: on vertices its search discovers)")),
    "budget": (("--budget",), dict(
        type=_int_at_least(1), default=DEFAULT_REWRITE_BUDGET,
        help="cap on words visited by a rewriting search")),
    "jobs": (("--jobs",), dict(
        type=_int_at_least(1),
        help="worker processes for the path suite, at most the CPU count")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it
    as it was, and each parse_args call fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="sylvshift",
        description="Binary search tree monoid, cocharge sequences, and cyclic shift graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, formats=("text", "json")):
        for flag in flags:
            names, kwargs = SHARED_FLAGS[flag]
            p.add_argument(*names, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the result to this file instead of stdout")

    p = sub.add_parser("tree", help="insert a word and print its tree")
    p.add_argument("word")
    common(p, formats=("text", "art", "dot", "json"))
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("cochseq", help="cocharge sequence of a standard word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_cochseq)

    p = sub.add_parser("eval", help="symbol multiplicities of a word")
    p.add_argument("word")
    common(p, "rank")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("readings", help="all words that insert to the same tree")
    p.add_argument("word")
    common(p, "max_readings")
    p.set_defaults(func=cmd_readings)

    p = sub.add_parser("equal", help="do two words represent the same element?")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rewrite", action="store_true",
                   help="cross-check with the pure rewriting decision")
    common(p, "rank", "budget")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("multiply", help="product of two words' elements")
    p.add_argument("left")
    p.add_argument("right")
    common(p, "rank")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("neighbors", help="all elements one cyclic shift away")
    p.add_argument("word")
    common(p, "rank", "max_readings", formats=("text", "tsv", "json"))
    p.set_defaults(func=cmd_neighbors)

    def evaluation_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--eval", dest="evaluation", help="comma-separated multiplicities")
        group.add_argument("--standard", action="store_true", help="evaluation 1,1,...,1")

    p = sub.add_parser("component", help="evaluation-class subgraph summary")
    evaluation_flags(p)
    p.add_argument("--tree-labels", action="store_true",
                   help="label DOT vertices with full trees")
    common(p, "rank", "max_readings", "max_vertices", formats=("text", "dot", "json"))
    p.set_defaults(func=cmd_component)

    p = sub.add_parser("distance", help="shift distance between two words' elements")
    p.add_argument("source")
    p.add_argument("target")
    common(p, "rank", "max_readings", "max_vertices")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("diameter", help="exact diameter of one evaluation class")
    evaluation_flags(p)
    common(p, "rank", "max_readings", "max_vertices", formats=("text", "tsv", "json"))
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("path", help="certified chain of cyclic shifts between two words")
    p.add_argument("source")
    p.add_argument("target")
    common(p, "rank")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    p.add_argument("suites", nargs="*", help="suite names, or 'all'")
    p.add_argument("--n", dest="nmax", type=_int_at_least(0),
                   help="suite size parameter (max n), suite-specific default")
    p.add_argument("--maxlen", type=_int_at_least(0), help="max word length where applicable")
    common(p, "rank", "max_readings", "max_vertices", "budget", "jobs", formats=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for i, part in enumerate(exc.parts):
            print(f"  part {i}: vertices {part}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except (SylvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
