"""Command line surface.

Exit codes: 0 success, 2 bad input, 3 cap or budget exhausted,
4 verification suite failure, 5 internal invariant violation.
Progress goes to stderr; results go to stdout (or --out).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import verify as verify_mod
from .cocharge import cochseq_word
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DisconnectedError,
    InternalError,
    SylvError,
)
from .graph import (
    MAX_VERTICES,
    component,
    component_tsv,
    diameter,
    distance,
    graph_dot,
    neighbors,
)
from .monoid import (
    DEFAULT_REWRITE_BUDGET,
    element_of,
    equivalent,
    multiply,
    rewrite_equivalent,
)
from .pathsynth import certificate_json, shift_path, transcript
from .trees import MAX_READINGS, psylv, reading_str, readings, tree_art, tree_dot, tree_str
from .words import evaluation, is_standard, parse_word, word_str


@dataclass
class RunConfig:
    rank: int = 0
    fmt: str = "text"
    max_readings: int = MAX_READINGS
    max_vertices: int = MAX_VERTICES
    budget: int = DEFAULT_REWRITE_BUDGET
    jobs: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.rank < 0:
            raise SylvError("rank must not be negative")
        for cap in (self.max_readings, self.max_vertices, self.budget, self.jobs):
            if cap < 1:
                raise SylvError("caps, budgets and job counts must be positive")


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        rank=getattr(args, "rank", 0) or 0,
        fmt=getattr(args, "format", "text"),
        max_readings=getattr(args, "max_readings", MAX_READINGS),
        max_vertices=getattr(args, "max_vertices", MAX_VERTICES),
        budget=getattr(args, "budget", DEFAULT_REWRITE_BUDGET),
        jobs=getattr(args, "jobs", 1),
        out=getattr(args, "out", None),
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_eval(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SylvError(f"bad evaluation {text!r}, expected e.g. 1,1,0") from exc


def _infer_rank(args: argparse.Namespace, *ws: tuple[int, ...]) -> int:
    rank = getattr(args, "rank", None)
    if rank:
        return rank
    return max((a for w in ws for a in w), default=1)


def cmd_tree(args: argparse.Namespace) -> int:
    cfg = _config(args)
    t = psylv(parse_word(args.word))
    if cfg.fmt == "art":
        _emit(tree_art(t), cfg)
    elif cfg.fmt == "dot":
        _emit(tree_dot(t), cfg)
    elif cfg.fmt == "json":
        _emit(json.dumps({"word": args.word, "tree": tree_str(t)}), cfg)
    else:
        _emit(tree_str(t), cfg)
    return 0


def cmd_cochseq(args: argparse.Namespace) -> int:
    cfg = _config(args)
    seq = cochseq_word(parse_word(args.word))
    if cfg.fmt == "json":
        _emit(json.dumps({"word": args.word, "cochseq": list(seq)}), cfg)
    else:
        _emit(" ".join(str(c) for c in seq), cfg)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config(args)
    w = parse_word(args.word)
    n = _infer_rank(args, w)
    counts = evaluation(w, n)
    if cfg.fmt == "json":
        _emit(json.dumps({"word": args.word, "rank": n,
                          "evaluation": list(counts), "standard": is_standard(w)}), cfg)
    else:
        _emit(",".join(str(c) for c in counts), cfg)
    return 0


def cmd_readings(args: argparse.Namespace) -> int:
    cfg = _config(args)
    rs = sorted(readings(psylv(parse_word(args.word)), cfg.max_readings))
    if cfg.fmt == "json":
        _emit(json.dumps({"word": args.word, "count": len(rs),
                          "readings": [word_str(r) for r in rs]}), cfg)
    else:
        _emit("\n".join(word_str(r) for r in rs), cfg)
    return 0


def cmd_equal(args: argparse.Namespace) -> int:
    cfg = _config(args)
    u, v = parse_word(args.left), parse_word(args.right)
    n = _infer_rank(args, u, v)
    same = equivalent(u, v, n)
    if args.rewrite:
        by_rewriting = rewrite_equivalent(u, v, n, cfg.budget)
        if by_rewriting != same:
            raise InternalError(
                f"rewriting disagrees with insertion on {args.left} vs {args.right}")
    if cfg.fmt == "json":
        _emit(json.dumps({"left": args.left, "right": args.right,
                          "rank": n, "equal": same}), cfg)
    else:
        _emit("true" if same else "false", cfg)
    return 0


def cmd_multiply(args: argparse.Namespace) -> int:
    cfg = _config(args)
    u, v = parse_word(args.left), parse_word(args.right)
    n = _infer_rank(args, u, v)
    product = multiply(element_of(u, n), element_of(v, n))
    if cfg.fmt == "json":
        _emit(json.dumps({"left": args.left, "right": args.right, "rank": n,
                          "reading": reading_str(product.tree),
                          "tree": tree_str(product.tree)}), cfg)
    else:
        _emit(tree_str(product.tree), cfg)
    return 0


def cmd_neighbors(args: argparse.Namespace) -> int:
    cfg = _config(args)
    w = parse_word(args.word)
    s = element_of(w, _infer_rank(args, w))
    nbrs = neighbors(s, cfg.max_readings)
    rows = sorted(
        (reading_str(t.tree), word_str(wit.x), word_str(wit.y), tree_str(t.tree))
        for t, wit in nbrs.items())
    if cfg.fmt == "json":
        _emit(json.dumps({
            "word": args.word,
            "rank": s.rank,
            "neighbors": [
                {"reading": r, "x": x, "y": y, "tree": t} for r, x, y, t in rows
            ],
        }), cfg)
    elif cfg.fmt == "tsv":
        _emit("\n".join("\t".join(r[:3]) for r in rows), cfg)
    else:
        _emit("\n".join(f"{r}  (x={x or 'e'}, y={y or 'e'})" for r, x, y, _ in rows), cfg)
    return 0


def _build_component(args: argparse.Namespace, cfg: RunConfig):
    if getattr(args, "standard", False):
        if not cfg.rank:
            raise SylvError("--standard needs --rank")
        e = (1,) * cfg.rank
    elif getattr(args, "evaluation", None):
        e = _parse_eval(args.evaluation)
    else:
        raise SylvError("need --eval or --standard")
    n = cfg.rank or len(e)
    return component(e, n, cfg.max_vertices, cfg.max_readings)


def cmd_component(args: argparse.Namespace) -> int:
    cfg = _config(args)
    g = _build_component(args, cfg)
    if cfg.fmt == "dot":
        _emit(graph_dot(g, tree_labels=args.tree_labels), cfg)
    elif cfg.fmt == "tsv":
        _emit(component_tsv(g), cfg)
    elif cfg.fmt == "json":
        _emit(json.dumps({
            "rank": g.rank,
            "evaluation": list(g.evaluation),
            "connected": g.connected,
            "vertices": [reading_str(v.tree) for v in g.vertices],
            "edges": [
                {"a": i, "b": j, "x": word_str(w.x), "y": word_str(w.y)}
                for (i, j), w in sorted(g.witnesses.items())
            ],
        }), cfg)
    else:
        _emit(
            f"evaluation {','.join(map(str, g.evaluation))} at rank {g.rank}: "
            f"{len(g.vertices)} vertices, {g.edge_count()} edges, "
            f"{'connected' if g.connected else f'{len(g.parts)} parts'}", cfg)
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    cfg = _config(args)
    u, v = parse_word(args.source), parse_word(args.target)
    n = _infer_rank(args, u, v)
    s, t = element_of(u, n), element_of(v, n)
    if evaluation(u, n) != evaluation(v, n):
        raise SylvError("words have different evaluations, so no path exists")
    g = component(evaluation(u, n), n, cfg.max_vertices, cfg.max_readings)
    d = distance(g, s, t)
    if cfg.fmt == "json":
        _emit(json.dumps({"source": args.source, "target": args.target,
                          "rank": n, "distance": d}), cfg)
    else:
        _emit(str(d), cfg)
    return 0


def cmd_diameter(args: argparse.Namespace) -> int:
    cfg = _config(args)
    g = _build_component(args, cfg)
    d, (a, b) = diameter(g)
    if cfg.fmt == "json":
        _emit(json.dumps({
            "rank": g.rank,
            "evaluation": list(g.evaluation),
            "diameter": d,
            "pair": [reading_str(a.tree), reading_str(b.tree)],
            "vertices": len(g.vertices),
            "edges": g.edge_count(),
        }), cfg)
    elif cfg.fmt == "tsv":
        _emit(component_tsv(g), cfg)
    else:
        _emit(f"{d}  ({reading_str(a.tree)} .. {reading_str(b.tree)})", cfg)
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    cfg = _config(args)
    u, v = parse_word(args.source), parse_word(args.target)
    n = _infer_rank(args, u, v)
    cert = shift_path(element_of(u, n), element_of(v, n))
    if args.check and not cert.verify():
        raise InternalError("certificate failed re-verification")
    if cfg.fmt == "json":
        _emit(certificate_json(cert), cfg)
    else:
        _emit(transcript(cert), cfg)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    names = args.suites or ["all"]
    if "all" in names:
        names = list(verify_mod.SUITES)
    reports = []
    for name in names:
        if name not in verify_mod.SUITES:
            raise SylvError(f"unknown suite {name!r}; have {', '.join(verify_mod.SUITES)}")
        reports.append(_run_suite(name, args, cfg))
    _emit("\n".join(r.render() for r in reports), cfg)
    return 0 if all(r.passed for r in reports) else 4


def _run_suite(name: str, args: argparse.Namespace, cfg: RunConfig):
    depth = args.depth
    if name == "oracle":
        return verify_mod.suite_oracle(cfg.rank or 4, args.maxlen or 6, cfg.budget)
    if name == "cocharge-congruence":
        return verify_mod.suite_cocharge_congruence(depth or 7)
    if name == "cocharge-shift":
        return verify_mod.suite_cocharge_shift(args.maxlen or 6)
    if name == "connectivity":
        return verify_mod.suite_connectivity(cfg.rank or 4, args.maxlen or 6,
                                             cfg.max_vertices, cfg.max_readings)
    if name == "diameter-bounds":
        return verify_mod.suite_diameter_bounds(depth or 5)
    if name == "distance-lower-bound":
        return verify_mod.suite_distance_lower_bound(depth or 5)
    if name == "path":
        return verify_mod.suite_path(depth or 5, cfg.jobs)
    if name == "example-path":
        return verify_mod.suite_example_path()
    if name == "induced-subgraph":
        return verify_mod.suite_induced(depth or 4)
    if name == "monoid":
        return verify_mod.suite_monoid()
    raise SylvError(f"unknown suite {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylvshift",
        description="Binary search tree monoid, cocharge sequences, and cyclic shift graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("text", "json")):
        p.add_argument("-n", "--rank", type=int, default=0,
                       help="alphabet rank (default: inferred from the input)")
        p.add_argument("--format", choices=fmt_choices, default="text")
        p.add_argument("--max-readings", type=int, default=MAX_READINGS)
        p.add_argument("--max-vertices", type=int, default=MAX_VERTICES)
        p.add_argument("--budget", type=int, default=DEFAULT_REWRITE_BUDGET)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", help="write the result to this file instead of stdout")

    p = sub.add_parser("tree", help="insert a word and print its tree")
    p.add_argument("word")
    common(p, ("text", "art", "dot", "json"))
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("cochseq", help="cocharge sequence of a standard word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_cochseq)

    p = sub.add_parser("eval", help="symbol multiplicities of a word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("readings", help="all words that insert to the same tree")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_readings)

    p = sub.add_parser("equal", help="do two words represent the same element?")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rewrite", action="store_true",
                   help="cross-check with the pure rewriting decision")
    common(p)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("multiply", help="product of two words' elements")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("neighbors", help="all elements one cyclic shift away")
    p.add_argument("word")
    common(p, ("text", "tsv", "json"))
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("component", help="evaluation-class subgraph summary")
    p.add_argument("--eval", dest="evaluation", help="comma-separated multiplicities")
    p.add_argument("--standard", action="store_true", help="evaluation 1,1,...,1")
    p.add_argument("--tree-labels", action="store_true",
                   help="label DOT vertices with full trees")
    common(p, ("text", "tsv", "dot", "json"))
    p.set_defaults(func=cmd_component)

    p = sub.add_parser("distance", help="BFS distance between two words' elements")
    p.add_argument("source")
    p.add_argument("target")
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("diameter", help="exact diameter of one evaluation class")
    p.add_argument("--eval", dest="evaluation")
    p.add_argument("--standard", action="store_true")
    common(p, ("text", "tsv", "json"))
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("path", help="certified chain of cyclic shifts between two words")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--check", action="store_true", help="re-verify the certificate")
    common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    p.add_argument("suites", nargs="*", help="suite names, or 'all'")
    p.add_argument("--n", "--depth", dest="depth", type=int, default=0,
                   help="suite size parameter (max n), suite-specific default")
    p.add_argument("--maxlen", type=int, default=0, help="max word length where applicable")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(max(20_000, sys.getrecursionlimit()))
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
