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

Every tree of the chain, U included, is held in the library's one tree
form, `trees.Tree`: its key (postfix label sequence) and the sizes of
every node's subtrees, which one pass of insertion's sort and stack gives
(`trees.key_sizes`). Nodes are addressed by postfix position: the node at
position p with subtree sizes (l, r) has its right child at p - 1 when
r > 0 and its left child at p - r - 1 when l > 0, the root is last, and a
subtree spans the l + r positions before its node. The target's sizes
also name each step's shape. Only the base step inserts its yx. A later
step moves one subtree, so `_moved` derives the next tree from the
current one's key and sizes: x's subtree keeps its shape at the top, and
the rest of the tree, split at x's least and greatest labels, hangs below
it in two parts that keep theirs. `paths_to(target)` walks the chains
of many sources to one target and builds each later step once: from step
1 on a chain depends only on the target and the current tree, so chains
that meet share their steps from there (`shift_path` is its one-source
case). The walk checks the two chain invariants once on each new tree.
The invariants are preconditions of `induction_step`, not part of what a
path proves, so `PathCertificate.verify` checks only the certificate's
own claims: n steps, chained, with known tags, each witness reading its
pre tree as xy and its post tree as yx. It inserts both words, so it
checks every derived tree independently; the walk runs it once on each
finished chain. A failed invariant or a failed `verify()` raises
InternalError, so every certificate it returns has passed both.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache

from .errors import InternalError, NotStandardError, ParseError, RankError
from .graph import ShiftWitness
from .monoid import SylvElement
from .trees import Tree, key_sizes, parse_tree, tree_str
from .words import Word, is_standard, parse_word, word_str

CASE_TAGS = ("base", "case1", "case2a", "case2b", "case3", "case4a", "case4b")


class PathStep(namedtuple("PathStep", "pre witness post case_tag")):
    """One shift of a chain: witness reads pre as xy and post as yx."""

    __slots__ = ()


class PathCertificate(namedtuple("PathCertificate", "steps")):
    """A chain of shifts, steps being a tuple of PathSteps."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # namedtuple's would count fields by len()

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


def _occurs(t: Tree, p: int, pattern: Tree, q: int) -> bool:
    """The complete subtree of pattern at position q occurs in t at position
    p: labels and parent-child shape agree on the subtree's nodes; t may
    carry extra nodes below the subtree's frontier."""
    key, sizes = t
    pkey, psizes = pattern
    pairs = [(p, q)]
    while pairs:
        p, q = pairs.pop()
        if key[p] != pkey[q]:
            return False
        (tl, tr), (l, r) = sizes[p], psizes[q]
        if r:
            if not tr:
                return False
            pairs.append((p - 1, q - 1))
        if l:
            if not tl:
                return False
            pairs.append((p - tr - 1, q - r - 1))
    return True


def verify_step_invariants(t: Tree, target: Tree, tops: list[int]) -> bool:
    """Check the two chain invariants of the construction after a step.

    t and target are trees given by `key_sizes`, their nodes by postfix
    position. tops are the positions in target of the topmost visited
    nodes, oldest first; the last is the node just visited. The complete
    subtree of target at that node must appear at the root of t, and the
    subtrees at all tops must appear, newest first, along t's path of left
    child nodes.
    """
    key, sizes = t
    tkey = target[0]
    if key[-1] != tkey[tops[-1]]:  # the newest subtree must start at the root
        return False
    idx = len(tops) - 1
    p = len(key) - 1
    while p >= 0:
        if idx >= 0 and key[p] == tkey[tops[idx]]:
            if not _occurs(t, p, target, tops[idx]):
                return False
            idx -= 1
        l, r = sizes[p]
        p = p - r - 1 if l else -1
    return idx < 0


def _shape(l: int, r: int) -> str:
    """The shape of the step to a next postfix node u whose subtrees in the
    target have l and r nodes. The node visited just before u is u's right
    child when r > 0 (case2 if u has a left subtree too, case4 if not) and
    its left child when only l > 0 (case3); a leaf u follows a left child
    whose parent's right subtree holds u (case1)."""
    if r:
        return "case2" if l else "case4"
    return "case3" if l else "case1"


def induction_step(pre: Tree, target: Tree, h: int) -> tuple[ShiftWitness, str]:
    """One shift extending the chain from step h to step h+1.

    Requires the step-h invariants on pre; pre and target are trees given
    by `key_sizes`. Both are standard, so a label names one node, at its
    position in the key. x reads the complete subtree of pre at the
    target's next postfix node u: the block of l + r + 1 symbols of pre's
    key ending at u's position, l and r u's subtree sizes in pre, and y is
    the word around that block. Returns the witness and the sub-case of
    the step's shape.
    """
    (w, sizes), (key, tsizes) = pre, target
    u = key[h]
    try:
        p = w.index(u)
    except ValueError:
        raise InternalError(f"step {h}: symbol {u} missing from the tree") from None
    l, r = sizes[p]
    start = p - l - r
    tag = _shape(*tsizes[h])
    if tag in ("case2", "case4"):
        # sub-case a: u is the left child of the leftmost node of B_h's copy
        # at the root, which carries B_h's least label
        l, r = tsizes[h - 1]
        q = w.index(min(key[h - 1 - l - r:h]))
        lq, rq = sizes[q]
        tag += "a" if lq and w[q - rq - 1] == u else "b"
    return ShiftWitness(w[start:p + 1], w[:start] + w[p + 1:]), tag


def _moved(pre: Tree, p: int) -> Tree:
    """The tree of yx, where x reads the complete subtree S of the
    standard tree pre at position p and y reads the rest of pre.

    S, with sizes (l, r), holds exactly the labels a = u - l .. b = u + r,
    u = key[p]. Inserting yx builds S from x; each letter of y then runs
    down S's left spine below a or its right spine above b. So the post
    tree is S with pre restricted to the labels below a as a's left
    subtree, and pre restricted to those above b as b's right subtree.
    Restricting to an interval of labels keeps ancestry and postfix order:
    the low part's key is pre's key before S, then u's ancestors below a,
    deepest first, and the high part's is the rest of pre's key after S.
    The post key is low + x[:j] + high + x[j:], j being b's index in x. A
    node v of S's left spine gets left size v - 1, one of its right spine
    right size n - v. u's ancestors keep the labels v + 1 .. a - 1 on
    their right when below a, and b + 1 .. v - 1 on their left when above
    b. Every other node keeps its subtrees, and so its sizes.
    """
    key, sizes = pre
    n = len(key)
    l, r = sizes[p]
    if l + r + 1 == n:  # x is the whole tree
        return pre
    u = key[p]
    a, b, start = u - l, u + r, p - l - r
    post = sizes.copy()
    lows = []  # positions of u's ancestors below a, from the root down
    q = n - 1
    while q > p:
        v = key[q]
        ql, qr = sizes[q]
        if v < u:
            lows.append(q)
            post[q] = (ql, a - 1 - v)
            q -= 1
        else:
            post[q] = (v - 1 - b, qr)
            q -= qr + 1
    post[p] = (u - 1, n - u)
    q, ql = p, l
    while ql:  # S's left spine below u, down to a
        q -= sizes[q][1] + 1
        ql, qr = sizes[q]
        post[q] = (key[q] - 1, qr)
    q = p
    while sizes[q][1]:  # S's right spine below u, down to b: positions p - 1, p - 2, ...
        q -= 1
        post[q] = (sizes[q][0], n - key[q])
    # q is b's position. In pre's key the ancestors below a cut the rest
    # after S into the high part's pieces.
    low_key, low_sizes = key[:start], post[:start]
    high_key, high_sizes = (), []
    i = p + 1
    for j in reversed(lows):
        low_key += (key[j],)
        low_sizes.append(post[j])
        high_key += key[i:j]
        high_sizes += post[i:j]
        i = j + 1
    return (low_key + key[start:q] + high_key + key[i:] + key[q:p + 1],
            low_sizes + post[start:q] + high_sizes + post[i:] + post[q:p + 1])


def shift_path(start: SylvElement, target: SylvElement) -> PathCertificate:
    """Chain of exactly n cyclic shifts from start to target, returned only
    once it ends at target and `verify()` holds; InternalError otherwise."""
    return paths_to(target)(start)


def paths_to(target: SylvElement) -> Callable[[SylvElement], PathCertificate]:
    """The walk to target: a function that takes a source and returns its
    certified chain to target, as `shift_path` does. The target is sized
    once, and the sources' chains share their steps.

    Step h >= 1 depends only on the target, h and the step's pre tree T_h:
    `induction_step` and `_moved` read T_h's key and subtree sizes, which
    its key determines, and the stack of topmost visited nodes depends
    only on h and the target. So `verify_step_invariants` on the step's
    post tree is a pure function of (h, T_h) too, and checking it again
    could not give another answer. The walk keeps one dict from (h, T_h's
    key) to the step and its post tree; a source whose chain reaches a
    known (h, T_h) takes the stored step and goes on from its post tree.
    Chains from different sources meet within a few steps, and from there
    on they are identical. The base step still runs for every source, a
    failing step raises InternalError and is never stored, so each source
    that reaches it fails on its own, and every certificate gets its own
    end check and its own whole `verify()`."""
    goal = key_sizes(target.key)
    known: dict[tuple[int, Word], tuple[PathStep, Tree]] = {}

    def path(start: SylvElement) -> PathCertificate:
        if start.rank != target.rank:
            raise RankError(f"rank mismatch: {start.rank} vs {target.rank}")
        if not start.key or not target.key:
            raise NotStandardError("paths need non-empty trees")
        if not (is_standard(start.key) and is_standard(target.key)):
            raise NotStandardError("paths are defined for standard trees only")
        if len(start) != len(target):
            raise NotStandardError("trees must have the same number of nodes")

        key, sizes = goal
        tops: list[int] = []  # postfix positions of the topmost visited nodes, oldest first
        steps: list[PathStep] = []
        pre, t = start, None  # t: pre's tree as key_sizes gives it, once a step has built it
        for h, (l, r) in enumerate(sizes):
            # Postfix order visits a node right after its subtree, which spans
            # the l + r positions before it: the node replaces the tops there.
            while tops and tops[-1] >= h - l - r:
                tops.pop()
            tops.append(h)
            if h == 0:  # rotate start's key so that u_1 comes last, as the root
                i = start.key.index(key[0]) + 1
                witness, tag = ShiftWitness(start.key[:i], start.key[i:]), "base"
                t = key_sizes(witness.y + witness.x)
            else:
                hit = known.get((h, pre.key))
                if hit is not None:
                    step, t = hit
                    steps.append(step)
                    pre = step.post
                    continue
                witness, tag = induction_step(t, goal, h)
                t = _moved(t, t[0].index(witness.x[-1]))
            post = SylvElement._make((start.rank, t[0]))  # pre's letters, so no rank check
            if not verify_step_invariants(t, goal, tops):
                raise InternalError("chain invariants fail after the base step" if h == 0
                                    else f"step {h} ({tag}): chain invariants fail afterwards")
            step = PathStep(pre, witness, post, tag)
            if h:
                known[h, pre.key] = step, t
            steps.append(step)
            pre = post

        if pre != target:
            raise InternalError("path did not terminate at the target tree")
        cert = PathCertificate(tuple(steps))
        if not cert.verify():
            raise InternalError("certificate failed re-verification")
        return cert

    return path


def certificate_obj(cert: PathCertificate) -> dict:
    """JSON-ready dict; words and trees use the package's text formats. A
    step's post is usually the next step's pre, so each key's text is
    rendered once."""
    text = cache(tree_str)
    return {
        "rank": cert.source.rank,
        "steps": [
            {
                "step": i,
                "case": s.case_tag,
                "pre": text(s.pre.key),
                "post": text(s.post.key),
                "x": word_str(s.witness.x),
                "y": word_str(s.witness.y),
            }
            for i, s in enumerate(cert.steps)
        ],
    }


def certificate_json(cert: PathCertificate) -> str:
    import json

    return json.dumps(certificate_obj(cert), indent=2)


def certificate_from_obj(obj: dict) -> PathCertificate:
    """Inverse of certificate_obj. Each distinct tree text is parsed once,
    and SylvElement checks its rank and re-inserts its key, which
    psylv_key's cache also does once per tree. An object not shaped like
    certificate_obj's output raises ParseError."""
    rank, steps = (obj.get("rank"), obj.get("steps")) if isinstance(obj, dict) else (None, None)
    texts = ("pre", "post", "x", "y", "case")
    well_formed = (isinstance(rank, int) and not isinstance(rank, bool)
                   and isinstance(steps, list) and steps
                   and all(isinstance(s, dict) and all(isinstance(s.get(f), str) for f in texts)
                           for s in steps))
    if not well_formed:
        raise ParseError("a path certificate is an object with an int rank and a non-empty "
                         f"list of steps whose {', '.join(texts)} are strings")
    parse = cache(parse_tree)
    steps = tuple(
        PathStep(
            SylvElement(rank, parse(s["pre"])),
            ShiftWitness(parse_word(s["x"]), parse_word(s["y"])),
            SylvElement(rank, parse(s["post"])),
            s["case"],
        )
        for s in steps
    )
    return PathCertificate(steps)


def transcript(cert: PathCertificate) -> str:
    """Human-readable step-by-step listing of the chain."""
    lines = []
    for i, step in enumerate(cert.steps):
        lines.append(
            f"T{i} = {word_str(step.pre.key)}"
            f"  =  {tree_str(step.pre.key)}")
        lines.append(
            f"   ~  x={word_str(step.witness.x) or 'e'}"
            f"  y={word_str(step.witness.y) or 'e'}   [{step.case_tag}]")
    last = cert.steps[-1].post
    lines.append(
        f"T{len(cert.steps)} = {word_str(last.key)}"
        f"  =  {tree_str(last.key)}")
    return "\n".join(lines)
