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

`shift_path` reads U's key, its postfix label sequence, and the sizes of
every node's subtrees (`trees.child_sizes`) once, and addresses U's nodes
by postfix position: the subtree at position h spans the l + r positions
before it, l and r its subtree sizes, and the sizes also name each step's
shape. Locators (paths from the root) serve only to render trees. At each
step it checks that the step's word pair (x, y) reads the current tree as
xy, takes yx as the next tree, and checks the two chain invariants on it
once; any violation raises InternalError instead of producing an
unverified path. The invariants are preconditions of `induction_step`,
not part of what a path proves, so `PathCertificate.verify` re-checks only
the certificate's own claims: n steps, chained, with known tags, each
witness reading its pre tree as xy and its post tree as yx.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InternalError, NotStandardError, RankError
from .graph import ShiftWitness
from .monoid import SylvElement
from .trees import Bst, child_sizes, parse_tree, tree_str
from .words import Word, is_standard, parse_word, word_str

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


def _subtree(t: Bst, a: int) -> Bst:
    """The complete subtree at the node labelled a of a standard
    (distinct-label) tree, found by search-tree descent; None if a is absent."""
    while t is not None and t.label != a:
        t = t.left if a < t.label else t.right
    return t


def verify_step_invariants(t: Bst, target: SylvElement, tops: list[int]) -> bool:
    """Check the two chain invariants of the construction after a step.

    tops are the postfix positions in target's key of the topmost visited
    nodes, oldest first; the last is the node just visited. The complete
    subtree of target at that node must appear at the root of t, and the
    subtrees at all tops must appear, newest first, along t's path of left
    child nodes.
    """
    expected = [_subtree(target.tree, target.key[p]) for p in reversed(tops)]
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


def _shape(l: int, r: int) -> str:
    """The shape of the step to a next postfix node u whose subtrees in the
    target have l and r nodes. The node visited just before u is u's right
    child when r > 0 (case2 if u has a left subtree too, case4 if not) and
    its left child when only l > 0 (case3); a leaf u follows a left child
    whose parent's right subtree holds u (case1)."""
    if r:
        return "case2" if l else "case4"
    return "case3" if l else "case1"


def base_step(s: SylvElement, u1: int) -> ShiftWitness:
    """First shift: rotate s's key so u1 comes last, making it the root."""
    w = s.key
    if not w or not is_standard(w):
        raise NotStandardError("base step needs a non-empty standard tree")
    if u1 not in w:
        raise ValueError(f"symbol {u1} does not label any node")
    i = w.index(u1)
    return ShiftWitness(w[: i + 1], w[i + 1 :])


def induction_step(pre: SylvElement, key: Word, sizes: list[tuple[int, int]],
                   h: int) -> tuple[ShiftWitness, str]:
    """One shift extending the chain from step h to step h+1.

    Requires the step-h invariants on pre's tree t; key is the target's key
    and sizes its child_sizes, both in postfix order. x reads the complete
    subtree of t at the target's next postfix node u = key[h], and y the
    rest of t. t is standard, so that subtree holds exactly the labels
    strictly between u's nearest ancestors lo < u < hi; in pre's key, t's
    canonical reading, it is the block of hi - lo - 1 symbols ending at u,
    so x is that block and y the word around it. Returns the witness and
    the sub-case of the step's shape.
    """
    w, u = pre.key, key[h]
    lo, hi = 0, len(w) + 1
    left_of = None  # u's parent while u is its left child
    node = pre.tree
    while node is not None and node.label != u:
        if u < node.label:
            hi = left_of = node.label
            node = node.left
        else:
            lo, left_of = node.label, None
            node = node.right
    if node is None:
        raise InternalError(f"step {h}: symbol {u} missing from the tree")
    end = w.index(u) + 1
    x = w[end - (hi - lo - 1):end]
    tag = _shape(*sizes[h])
    if tag in ("case2", "case4"):
        # sub-case a: u is the left child of the leftmost node of B_h's copy
        # at the root, which carries B_h's least label
        l, r = sizes[h - 1]
        tag += "a" if left_of == min(key[h - 1 - l - r:h]) else "b"
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

    key = target.key
    sizes = child_sizes(key)
    tops: list[int] = []  # postfix positions of the topmost visited nodes, oldest first
    steps: list[PathStep] = []
    pre = start
    for h, (l, r) in enumerate(sizes):
        if h == 0:
            witness, tag = base_step(pre, key[0]), "base"
        else:
            witness, tag = induction_step(pre, key, sizes, h)
        if SylvElement(start.rank, witness.x + witness.y) != pre:
            raise InternalError(f"step {h} ({tag}): assembled factorization is not a reading")
        post = SylvElement(start.rank, witness.y + witness.x)
        # Postfix order visits a node right after its subtree, which spans
        # the l + r positions before it: the node replaces the tops there.
        while tops and tops[-1] >= h - l - r:
            tops.pop()
        tops.append(h)
        if not verify_step_invariants(post.tree, target, tops):
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
