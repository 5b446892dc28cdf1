"""Constructive cyclic-shift paths between standard trees.

Given standard trees T and U on n nodes, builds a chain of exactly n cyclic
shifts T = T_0 ~ T_1 ~ ... ~ T_n = U. The chain follows the postfix
traversal u_1..u_n of U: after step h, the complete subtrees of U rooted at
the already-visited nodes that are topmost among them appear intact in T_h,
newest at the root and the rest in order down the path of left child nodes.

The first step rotates a reading of T so that u_1 becomes the root. Each
later step h + 1 moves one complete subtree to the front: x reads the
subtree of T_h at the next postfix node u_{h+1} of U, y reads the rest of
T_h, and T_{h+1} = psylv(yx). A sylvester class is the set of linear
extensions of its tree (Hivert, Novelli and Thibon, TCS 2005), so any
reading y of the pruned tree gives the same T_{h+1}. The tags keep the
names of the cases in which the paper's proof assembles x and y.

`shift_path` walks the postfix list of U once. At each step it checks that
the step's word pair (x, y) reads the current tree as xy, takes yx as the
next tree, and checks the two chain invariants on it once; any violation
raises InternalError instead of producing an unverified path. The
invariants are preconditions of `induction_step`, not part of what a path
proves, so `PathCertificate.verify` re-checks only the certificate's own
claims: n steps, chained, with known tags, each witness reading its pre
tree as xy and its post tree as yx.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InternalError, NotStandardError, RankError
from .graph import ShiftWitness
from .monoid import SylvElement
from .trees import Bst, Locator, complete_subtree, node_count, parse_tree, postfix, tree_str
from .words import is_standard, parse_word, word_str

CASE_TAGS = ("base", "case1", "case2a", "case2b", "case3", "case4a", "case4b")


@dataclass(frozen=True)
class PathStep:
    pre: SylvElement
    witness: ShiftWitness
    post: SylvElement
    case_tag: str


@dataclass(frozen=True)
class PathCertificate:
    steps: tuple[PathStep, ...]

    @property
    def source(self) -> SylvElement:
        return self.steps[0].pre

    @property
    def target(self) -> SylvElement:
        return self.steps[-1].post

    def __len__(self) -> int:
        return len(self.steps)

    def verify(self) -> bool:
        """Recheck the certificate's claims from scratch: n = len(target)
        steps, each starting where the previous one ended, with a known case
        tag and a witness that reads pre as xy and post as yx. The chain ends
        at the target because the target is the last step's post."""
        if not self.steps or len(self.steps) != len(self.target):
            return False
        prev = self.source
        for step in self.steps:
            if step.pre != prev or step.case_tag not in CASE_TAGS:
                return False
            if not step.witness.validates(step.pre, step.post):
                return False
            prev = step.post
        return True


def _matches(node: Bst, pattern: Bst) -> bool:
    """Pattern occurs at node: labels and parent-child shape agree on the
    pattern's span; the host may carry extra nodes below the pattern's frontier."""
    if pattern is None:
        return True
    pairs = [(node, pattern)]
    while pairs:
        node, pattern = pairs.pop()
        if node is None or node.label != pattern.label:
            return False
        if pattern.left is not None:
            pairs.append((node.left, pattern.left))
        if pattern.right is not None:
            pairs.append((node.right, pattern.right))
    return True


def _find_loc(t: Bst, a: int) -> str | None:
    """Locator of the node labelled a in a standard (distinct-label) tree."""
    loc = ""
    cur = t
    while cur is not None:
        if a == cur.label:
            return loc
        if a < cur.label:
            cur, loc = cur.left, loc + "L"
        else:
            cur, loc = cur.right, loc + "R"
    return None


def verify_step_invariants(t: Bst, target: Bst, tops: list[Locator]) -> bool:
    """Check the two chain invariants of the construction after a step.

    tops are the locators in target of the topmost visited nodes, oldest
    first; the last is the node just visited. The complete subtree of target
    at that node must appear at the root of t, and the subtrees at all tops
    must appear, newest first, along t's path of left child nodes.
    """
    expected = [complete_subtree(target, loc) for loc in reversed(tops)]
    if not _matches(t, expected[0]):
        return False
    idx = 0
    cur = t
    while cur is not None:
        if idx < len(expected) and cur.label == expected[idx].label:
            if not _matches(cur, expected[idx]):
                return False
            idx += 1
        cur = cur.left
    return idx == len(expected)


def classify_step(target: Bst, nodes: list[tuple[int, Locator]], h: int) -> str:
    """Which of the four step shapes relates the h-th and (h+1)-th postfix
    nodes; nodes is postfix(target)."""
    n = len(nodes)
    if not 1 <= h < n:
        raise ValueError(f"step {h} outside 1..{n - 1}")
    _, loc_h = nodes[h - 1]
    _, loc_next = nodes[h]
    parent_next = complete_subtree(target, loc_next)
    conds = {
        # previous node is a left child; next node lies in its parent's right subtree
        "case1": bool(loc_h) and loc_h[-1] == "L" and loc_next.startswith(loc_h[:-1] + "R"),
        # previous node is the right child of the next one, which has a left subtree
        "case2": loc_h == loc_next + "R" and parent_next.left is not None,
        # previous node is the left child of the next one
        "case3": loc_h == loc_next + "L",
        # previous node is the right child of the next one, which has no left subtree
        "case4": loc_h == loc_next + "R" and parent_next.left is None,
    }
    hits = [name for name, hit in conds.items() if hit]
    if len(hits) != 1:
        raise InternalError(f"postfix step {h} fits {hits or 'no'} cases, expected exactly one")
    return hits[0]


def base_step(s: SylvElement, u1: int) -> ShiftWitness:
    """First shift: rotate s's key so u1 comes last, making it the root."""
    w = s.key
    if not w or not is_standard(w):
        raise NotStandardError("base step needs a non-empty standard tree")
    if u1 not in w:
        raise ValueError(f"symbol {u1} does not label any node")
    i = w.index(u1)
    return ShiftWitness(w[: i + 1], w[i + 1 :])


def induction_step(pre: SylvElement, target: Bst, nodes: list[tuple[int, Locator]],
                   h: int) -> tuple[ShiftWitness, str]:
    """One shift extending the chain from step h to step h+1.

    Requires the step-h invariants on pre's tree t; nodes is postfix(target).
    x reads the complete subtree of t at the next postfix node u of target,
    and y the rest of t: in pre's key, t's canonical reading, that subtree
    is the block of its size ending at u, so x is that block and y the word
    around it. Returns the witness and the sub-case of the step's shape.
    """
    t, w = pre.tree, pre.key
    u_next, _ = nodes[h]
    u_loc = _find_loc(t, u_next)
    if u_loc is None:
        raise InternalError(f"step {h}: symbol {u_next} missing from the tree")
    end = w.index(u_next) + 1
    x = w[end - node_count(complete_subtree(t, u_loc)):end]
    tag = classify_step(target, nodes, h)
    if tag in ("case2", "case4"):
        # sub-case a: u is the left child of the leftmost node of B_h's copy at the root
        slot = "L"
        cur = complete_subtree(target, nodes[h - 1][1])
        while cur.left is not None:
            cur, slot = cur.left, slot + "L"
        tag += "a" if u_loc == slot else "b"
    return ShiftWitness(x, w[: end - len(x)] + w[end:]), tag


def shift_path(start: SylvElement, target: SylvElement) -> PathCertificate:
    """Certified chain of exactly n cyclic shifts from start to target."""
    if start.rank != target.rank:
        raise RankError(f"rank mismatch: {start.rank} vs {target.rank}")
    if not start.key or not target.key:
        raise NotStandardError("paths need non-empty trees")
    if not (is_standard(start.key) and is_standard(target.key)):
        raise NotStandardError("paths are defined for standard trees only")
    if len(start) != len(target):
        raise NotStandardError("trees must have the same number of nodes")

    u_tree = target.tree
    nodes = postfix(u_tree)
    tops: list[Locator] = []  # topmost visited nodes of u_tree, oldest first
    steps: list[PathStep] = []
    pre = start
    for h, (label, loc) in enumerate(nodes):
        if h == 0:
            witness, tag = base_step(pre, label), "base"
        else:
            witness, tag = induction_step(pre, u_tree, nodes, h)
        if SylvElement(start.rank, witness.x + witness.y) != pre:
            raise InternalError(f"step {h} ({tag}): assembled factorization is not a reading")
        post = SylvElement(start.rank, witness.y + witness.x)
        # Postfix order visits a node right after its subtrees, whose roots
        # are then the newest tops: the node replaces them.
        while tops and tops[-1][:-1] == loc:
            tops.pop()
        tops.append(loc)
        if not verify_step_invariants(post.tree, u_tree, tops):
            raise InternalError("chain invariants fail after the base step" if h == 0
                                else f"step {h} ({tag}): chain invariants fail afterwards")
        steps.append(PathStep(pre, witness, post, tag))
        pre = post

    if pre != target:
        raise InternalError("path did not terminate at the target tree")
    return PathCertificate(tuple(steps))


def certificate_obj(cert: PathCertificate) -> dict:
    """JSON-ready dict; words and trees use the package's text formats."""
    return {
        "rank": cert.source.rank,
        "steps": [
            {
                "step": i,
                "case": s.case_tag,
                "pre": tree_str(s.pre.tree),
                "post": tree_str(s.post.tree),
                "x": word_str(s.witness.x),
                "y": word_str(s.witness.y),
            }
            for i, s in enumerate(cert.steps)
        ],
    }


def certificate_json(cert: PathCertificate) -> str:
    return json.dumps(certificate_obj(cert), indent=2)


def certificate_from_obj(obj: dict) -> PathCertificate:
    rank = obj["rank"]
    steps = tuple(
        PathStep(
            SylvElement.of_tree(rank, parse_tree(s["pre"])),
            ShiftWitness(parse_word(s["x"]), parse_word(s["y"])),
            SylvElement.of_tree(rank, parse_tree(s["post"])),
            s["case"],
        )
        for s in obj["steps"]
    )
    return PathCertificate(steps)


def transcript(cert: PathCertificate) -> str:
    """Human-readable step-by-step listing of the chain."""
    lines = []
    for i, step in enumerate(cert.steps):
        lines.append(
            f"T{i} = {word_str(step.pre.key)}"
            f"  =  {tree_str(step.pre.tree)}")
        lines.append(
            f"   ~  x={word_str(step.witness.x) or 'e'}"
            f"  y={word_str(step.witness.y) or 'e'}   [{step.case_tag}]")
    last = cert.steps[-1].post
    lines.append(
        f"T{len(cert.steps)} = {word_str(last.key)}"
        f"  =  {tree_str(last.tree)}")
    return "\n".join(lines)
