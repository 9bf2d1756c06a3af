"""Duplicate-free enumeration of satisfying submodels.

One search walk serves the engine and every decision procedure: a
depth-first binary partition over the ground-set order (keep branch
before delete branch) that asks a node test at each node it must
decide. The test answers a witness (a satisfying completion), explore
(the node's closure fails the formula but a completion may not; search
the children) or nothing (prune). The engine emits at full assignments
only, which are in bijection with candidate submodels, so the output
stream is duplicate-free by construction.

Structure is pruned before any test is asked. Each node's closure is
shrunk from the one it carries with its keep commitments at hand, and a
node whose closure loses the root or a keep is dropped; the branch step
folds undecided elements outside the closure into the deletions and
pushes no delete child that would strand a world that must stay. Each
prune tests a necessary condition of validity, so the stream is the same
as without them.

Three node tests back the oracles: the closure test, exhaustive for full
CTL (worst-case exponential) and polynomial on negation-free existential
formulas, where it never explores; and a polynomial one for AF/AG chains
that hands keep-committed queries on AF-containing forms to the closure
test, a counted fallback. The walk is one explicit-stack loop, so it
never recurses once per ground-set position.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

from . import formula as F
from .errors import CapExceeded, OracleFragmentMismatch
from .kripke import (
    DELETE,
    KEEP,
    CompiledModel,
    KripkeModel,
    PartialDecision,
    Submodel,
    _bits,
    compile_model,
    require_valid,
    structure_masks,
)
from .modelcheck import FormulaProgram, compile_formula, label_masks


_T = TypeVar("_T")


class OracleKind(Enum):
    AUTO = "auto"
    EXHAUSTIVE = "exhaustive"
    MONOTONE = "monotone"
    AFAG = "afag"


@dataclass(frozen=True)
class ExtensionQuery:
    """Can the committed prefix be completed to a satisfying submodel?"""

    model: KripkeModel
    formula: F.Formula
    decision: PartialDecision
    connected: bool = True


@dataclass
class EnumerationStats:
    """Per-gap delays and search-node counts (oracle_calls); one extra
    bucket covers the precomputation before the first solution and the
    postcomputation after the last."""

    solutions: int = 0
    delays_ns: list[int] = field(default_factory=list)
    oracle_calls: list[int] = field(default_factory=list)
    fallback_queries: int = 0

    def to_dict(self) -> dict:
        return {
            "solutions": self.solutions,
            "delays_ns": list(self.delays_ns),
            "oracle_calls": list(self.oracle_calls),
            "fallback_queries": self.fallback_queries,
        }

    def record(
        self, solutions: Iterable[_T], take_calls: Callable[[], int]
    ) -> Iterator[_T]:
        """Yield the solutions, recording each gap's delay and the search
        nodes take_calls reports for it; the consumer's time between two
        solutions counts for neither gap. The last bucket is recorded
        when iteration ends."""
        last = time.perf_counter_ns()
        try:
            for solution in solutions:
                self.delays_ns.append(time.perf_counter_ns() - last)
                self.oracle_calls.append(take_calls())
                self.solutions += 1
                yield solution
                last = time.perf_counter_ns()
        finally:
            self.delays_ns.append(time.perf_counter_ns() - last)
            self.oracle_calls.append(take_calls())


@dataclass(frozen=True)
class Lasso:
    """Stem-plus-cycle witness path; its induced submodel is functional."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def induced_submodel(self) -> Submodel:
        worlds = set(self.stem) | set(self.cycle)
        edges = set()
        walk = list(self.stem) + list(self.cycle)
        for a, b in zip(walk, walk[1:]):
            edges.add((a, b))
        edges.add((self.cycle[-1], self.cycle[0]))
        return Submodel(frozenset(worlds), frozenset(edges))


# --- internal search context -------------------------------------------------


_Masks = tuple[int, int]

# a node test's answer when the node's closure fails phi but some
# completion may still satisfy it: search the node's children
_EXPLORE = object()


class _Context:
    """Per-run search state: compiled model, fragment, formula programs
    and the search-node counter."""

    def __init__(
        self,
        model: KripkeModel,
        phi: F.Formula,
        connected: bool,
        delete_first: bool = False,
    ):
        self.compiled = compile_model(model)
        self.connected = connected
        self.delete_first = delete_first
        self.profile = F.classify_fragment(phi)
        self.trimmed: F.TrimmedForm | None = None
        if self.profile.afag_chain and not isinstance(phi, F.Atom):
            self.trimmed = F.afag_trim(phi)
        self.fallback_queries = 0
        self.nodes = 0
        self.program = compile_formula(phi)
        # None: phi has no existential weakening, so nothing prunes a
        # closure that fails phi; phi's own program: phi is its weakening
        self.weak_program: FormulaProgram | None = None
        weakened = F.existential_weakening(phi)
        if weakened is not None:
            self.weak_program = self.program if weakened is phi else compile_formula(weakened)
        c = self.compiled
        self.positions: list[tuple[int, int]] = [
            (1 << w, 0) for w in c.ground_worlds
        ] + [(0, 1 << e) for e in range(c.m)]
        self.root_bit = 1 << c.root
        # per edge position, for _branch's delete rules: the source bit,
        # the source's out-edges, with connected the target bit unless it
        # is a self-loop, and the target's in-edges from other worlds
        self.edge_rules: list[tuple[int, int, int, int] | None] = [None] * len(
            c.ground_worlds
        ) + [
            (1 << s, c.out_mask[s], 1 << t if connected and s != t else 0, c.in_mask[t])
            for s, t in c.edges
        ]


# (ctx, keep_w, keep_e, del_w, del_e, cl) -> witness, _EXPLORE or None:
# cl is the closure of the node's deletions and holds every keep
# commitment; a witness is a satisfying completion, None prunes the node
_NodeTest = Callable[["_Context", int, int, int, int, _Masks], object]


def _node_closure(
    ctx: _Context, base: _Masks | None, keep_w: int, keep_e: int, del_w: int, del_e: int
) -> _Masks | None:
    """The closure of the deletions, shrunk from base (see
    CompiledModel.shrink), or None when it loses the root or a keep
    commitment: then no completion is a valid submodel."""
    cl = ctx.compiled.shrink(base, del_w, del_e, ctx.connected, keep_w)
    if cl is None or keep_w & ~cl[0] or keep_e & ~cl[1]:
        return None
    return cl


def _branch(
    ctx: _Context, pos: int, keep_w: int, keep_e: int, del_w: int, del_e: int,
    cl: _Masks,
) -> tuple[int, int, int, int, int, bool]:
    """The branch step of the walk.

    Scans from position pos; cl holds every completion of the node.
    Undecided elements outside cl are folded into the deletions: keeping
    one is contradictory and deleting it changes nothing. Returns
    (pos, del_w, del_e, wbit, ebit, deletable) for the first undecided
    element inside cl, or pos == total when none is left. The element's
    delete child holds no valid submodel, and is not deletable, when the
    element is the last out-edge inside cl of a kept world or the root,
    or, with connected, the last edge inside cl into a kept non-root
    world from another world.
    """
    positions = ctx.positions
    total = len(positions)
    cw, ce = cl
    decided_w = keep_w | del_w
    decided_e = keep_e | del_e
    while pos < total:
        wbit, ebit = positions[pos]
        if not (wbit & decided_w or ebit & decided_e):
            if wbit & cw or ebit & ce:
                break
            del_w |= wbit
            del_e |= ebit
        pos += 1
    else:
        return total, del_w, del_e, 0, 0, False
    if ebit:
        src_bit, out, dst_bit, into = ctx.edge_rules[pos]
        rest = ce ^ ebit
        if (src_bit & (keep_w | ctx.root_bit) and not out & rest) or (
            dst_bit & keep_w and not into & rest
        ):
            return pos, del_w, del_e, wbit, ebit, False
    return pos, del_w, del_e, wbit, ebit, True


def _walk(
    ctx: _Context, test: _NodeTest, keep_w: int, keep_e: int, del_w: int, del_e: int,
    first: bool = False,
) -> Iterator[_Masks]:
    """The one search, depth-first below the node (keep_w, keep_e,
    del_w, del_e), keep child first unless ctx.delete_first.

    A frame carries the closure of its nearest tested ancestor and
    whether that test answered _EXPLORE. A node is not tested when the
    last witness completes it or when it is the keep child of a node
    that explores (same closure, same answer); any other node shrinks
    its closure, is dropped when that loses the root or a keep, and is
    tested. Yields every full assignment not reached under _EXPLORE, or
    with first only the first witness. ctx.nodes counts popped frames.
    """
    total = len(ctx.positions)
    all_worlds, all_edges = ctx.compiled.all_worlds, ctx.compiled.all_edges
    delete_first = ctx.delete_first
    witness: _Masks | None = None
    stack: list[tuple[int, int, int, int, int, _Masks | None, bool]] = [
        (0, keep_w, keep_e, del_w, del_e, None, False)
    ]
    while stack:
        pos, keep_w, keep_e, del_w, del_e, cl, explore = stack.pop()
        ctx.nodes += 1
        if not explore and (
            witness is None
            or keep_w & ~witness[0]
            or keep_e & ~witness[1]
            or del_w & witness[0]
            or del_e & witness[1]
        ):
            cl = _node_closure(ctx, cl, keep_w, keep_e, del_w, del_e)
            if cl is None:
                continue
            found = test(ctx, keep_w, keep_e, del_w, del_e, cl)
            if found is None:
                continue
            if found is _EXPLORE:
                explore = True
            elif first:
                yield found
                return
            else:
                witness = found
        pos, del_w, del_e, wbit, ebit, deletable = _branch(
            ctx, pos, keep_w, keep_e, del_w, del_e, cl
        )
        if pos == total:
            # under _EXPLORE the kept candidate is valid only if it
            # equals the closure, whose satisfaction was refuted
            if not explore:
                yield all_worlds & ~del_w, all_edges & ~del_e
            continue
        keep = (pos + 1, keep_w | wbit, keep_e | ebit, del_w, del_e, cl, explore)
        if not deletable:
            stack.append(keep)
            continue
        delete = (pos + 1, keep_w, keep_e, del_w | wbit, del_e | ebit, cl, False)
        if delete_first:
            stack += (keep, delete)
        else:
            stack += (delete, keep)


def _closure_test(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int, cl: _Masks
) -> object:
    """The exhaustive and monotone node test on the node's closure.

    The closure is itself a reachable completion, so satisfaction there
    makes it the witness. Every completion is a submodel of it, so a
    failed existential weakening there prunes the node; otherwise the
    answer is _EXPLORE. On the monotone fragment the weakening is phi
    itself, so the test never explores.
    """
    c = ctx.compiled
    weak = ctx.weak_program
    if label_masks(c, *cl, ctx.program)[-1] >> c.root & 1:
        return cl
    if weak is None or (
        weak is not ctx.program and label_masks(c, *cl, weak)[-1] >> c.root & 1
    ):
        return _EXPLORE
    return None


def _oracle_afag(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int, cl: _Masks
) -> object:
    c = ctx.compiled
    form = ctx.trimmed
    if not (keep_w | keep_e):
        # deletions only: a satisfying submodel exists iff a connected
        # one does, and every connected one lives inside this closure
        if not ctx.connected:
            cl = c.closure(del_w, del_e, connected=True)
            if cl is None:
                return None
        if not _exists_afag_masks(c, *cl, form):
            return None
        stem, cycle = _lasso_masks(c, *cl, form)
        return _walk_masks(c, stem + cycle + cycle[:1])
    if ctx.connected and form.shape == "AG":
        # AG x solutions consist of x-labeled worlds only; an unlabeled
        # root, kept world or kept-edge endpoint fails the closure below
        labeled = c.label_worlds.get(form.atom, 0)
        return _node_closure(
            ctx, cl, keep_w, keep_e, del_w | (c.all_worlds & ~labeled), del_e
        )
    ctx.fallback_queries += 1
    return _closure_test(ctx, keep_w, keep_e, del_w, del_e, cl)


_ORACLES: dict[OracleKind, _NodeTest] = {
    OracleKind.EXHAUSTIVE: _closure_test,
    OracleKind.MONOTONE: _closure_test,
    OracleKind.AFAG: _oracle_afag,
}


def resolve_oracle(kind: OracleKind, ctx: _Context) -> OracleKind:
    profile = ctx.profile
    if kind is OracleKind.AUTO:
        if profile.monotone_existential:
            return OracleKind.MONOTONE
        if ctx.trimmed is not None:
            return OracleKind.AFAG
        return OracleKind.EXHAUSTIVE
    if kind is OracleKind.MONOTONE and not profile.monotone_existential:
        raise OracleFragmentMismatch(
            "monotone oracle needs a negation-free existential formula"
        )
    if kind is OracleKind.AFAG and ctx.trimmed is None:
        raise OracleFragmentMismatch(
            "afag oracle needs an AF/AG chain with at least one operator"
        )
    return kind


# --- the flashlight engine -----------------------------------------------------


class EnumerationSession:
    """One enumeration run; iterate it to stream solutions.

    The session owns its mutable search state and is single threaded;
    stats are complete once iteration finishes (exhaustion, the limit,
    or abandonment).
    """

    def __init__(
        self,
        model: KripkeModel,
        phi: F.Formula,
        oracle: OracleKind = OracleKind.AUTO,
        connected: bool = True,
        limit: int | None = None,
    ):
        require_valid(model)
        if limit is not None and limit < 1:
            raise ValueError("limit must be at least 1")
        self._ctx = _Context(model, phi, connected)
        self.oracle_kind = resolve_oracle(oracle, self._ctx)
        self._test = _ORACLES[self.oracle_kind]
        self._limit = limit
        self.stats = EnumerationStats()
        self._finished = False

    def __iter__(self) -> Iterator[Submodel]:
        if self._finished:
            raise RuntimeError("a session can only be iterated once")
        self._finished = True
        return self._iterate()

    def _iterate(self) -> Iterator[Submodel]:
        ctx = self._ctx
        walk = islice(_walk(ctx, self._test, 0, 0, 0, 0), self._limit)
        solutions = self.stats.record(walk, self._take_nodes)
        try:
            for sol_w, sol_e in solutions:
                yield ctx.compiled.submodel(sol_w, sol_e)
        finally:
            solutions.close()
            self.stats.fallback_queries = ctx.fallback_queries

    def _take_nodes(self) -> int:
        nodes, self._ctx.nodes = self._ctx.nodes, 0
        return nodes


def enumerate_submodels(
    model: KripkeModel,
    phi: F.Formula,
    oracle: OracleKind = OracleKind.AUTO,
    connected: bool = True,
    limit: int | None = None,
) -> EnumerationSession:
    """Stream every satisfying (connected) submodel exactly once."""
    return EnumerationSession(model, phi, oracle=oracle, connected=connected, limit=limit)


# --- decision problems -----------------------------------------------------------


def _decide(
    ctx: _Context, kind: OracleKind, keep_w: int, keep_e: int, del_w: int, del_e: int
) -> bool:
    test = _ORACLES[resolve_oracle(kind, ctx)]
    walk = _walk(ctx, test, keep_w, keep_e, del_w, del_e, first=True)
    return next(walk, None) is not None


def _extend(kind: OracleKind, query: ExtensionQuery) -> bool:
    require_valid(query.model)
    ctx = _Context(query.model, query.formula, query.connected)
    if len(query.decision.states) != len(ctx.positions):
        raise ValueError("decision vector length does not match the ground set")
    keep_w = keep_e = del_w = del_e = 0
    for (wbit, ebit), state in zip(ctx.positions, query.decision.states):
        if state == KEEP:
            keep_w |= wbit
            keep_e |= ebit
        elif state == DELETE:
            del_w |= wbit
            del_e |= ebit
    return _decide(ctx, kind, keep_w, keep_e, del_w, del_e)


def extend_exhaustive(query: ExtensionQuery) -> bool:
    """Search-based extension decision; correct for full CTL."""
    return _extend(OracleKind.EXHAUSTIVE, query)


def extend_monotone(query: ExtensionQuery) -> bool:
    """Polynomial extension decision for the negation-free existential
    fragment: satisfaction of the maximal surviving submodel decides, so
    the search stops at its first closure."""
    return _extend(OracleKind.MONOTONE, query)


def extend_afag(query: ExtensionQuery) -> bool:
    """Extension decision for AF/AG chains; polynomial on the fast paths
    (no keep commitments, or AG-form keeps), exhaustive otherwise."""
    return _extend(OracleKind.AFAG, query)


def exists_submodel(model: KripkeModel, phi: F.Formula) -> bool:
    """Does any valid connected submodel satisfy phi?"""
    require_valid(model)
    # small submodels first: witnesses of sparse instances surface early
    ctx = _Context(model, phi, connected=True, delete_first=True)
    return _decide(ctx, OracleKind.AUTO, 0, 0, 0, 0)


def brute_force_enumerate(
    model: KripkeModel,
    phi: F.Formula,
    connected: bool = True,
    cap: int = 20,
) -> set[Submodel]:
    """Reference enumeration: filter all kept-set candidates by validity
    and satisfaction. Ground sets larger than the cap are refused."""
    require_valid(model)
    c = compile_model(model)
    if c.ground_size > cap:
        raise CapExceeded(f"ground set of {c.ground_size} exceeds cap {cap}")
    program = compile_formula(phi)
    rootbit = 1 << c.root
    nonroot = [1 << w for w in c.ground_worlds]
    solutions = set()
    for picked in range(1 << len(nonroot)):
        wmask = rootbit
        for i, bit in enumerate(nonroot):
            if picked >> i & 1:
                wmask |= bit
        allowed = 0
        for e, (src, dst) in enumerate(c.edges):
            if wmask >> src & 1 and wmask >> dst & 1:
                allowed |= 1 << e
        emask = allowed
        while True:
            if (
                c.valid(wmask, emask, connected)
                and label_masks(c, wmask, emask, program)[-1] >> c.root & 1
            ):
                solutions.add(c.submodel(wmask, emask))
            if emask == 0:
                break
            emask = (emask - 1) & allowed
    return solutions


# --- four-form decision and witnesses ---------------------------------------------


def exists_afag(
    model: KripkeModel, form: F.TrimmedForm, sub: Submodel | None = None
) -> bool:
    """Does any valid connected submodel of the structure satisfy the
    four-form formula? Decided on the structure's masks: the E-twin of the
    form (EF x, EG x, EF EG x) at the root, and for AG AF a root-reachable
    x-world on a cycle."""
    return _exists_afag_masks(*structure_masks(model, sub), form)


def _exists_afag_masks(
    c: CompiledModel, wmask: int, emask: int, form: F.TrimmedForm
) -> bool:
    x = F.Atom(form.atom)
    if form.shape == "AF":
        phi: F.Formula = F.EF(x)
    elif form.shape == "AG":
        phi = F.EG(x)
    elif form.shape == "AFAG":
        phi = F.EF(F.EG(x))
    else:
        return _agaf_witness_world(c, wmask, emask, form.atom) is not None
    return bool(label_masks(c, wmask, emask, compile_formula(phi))[-1] >> c.root & 1)


def _agaf_witness_world(
    c: CompiledModel, wmask: int, emask: int, atom: str
) -> int | None:
    """First x-world that is root-reachable and lies on a cycle: a lasso
    through it keeps visiting x."""
    labeled = c.label_worlds.get(atom, 0) & wmask
    if not labeled:
        return None
    succ = c.successor_masks(emask)
    root_reach = c.reach(emask, c.root)
    for w in _bits(labeled & root_reach):
        if succ[w] & _backward_reach(succ, wmask, w):
            return w
    return None


def _backward_reach(succ: list[int], wmask: int, target: int) -> int:
    """Worlds with a (possibly empty) path to the target world."""
    back = 1 << target
    changed = True
    while changed:
        changed = False
        for v in _bits(wmask & ~back):
            if succ[v] & back:
                back |= 1 << v
                changed = True
    return back


def _bfs_path(succ: list[int], start: int, targets: int) -> list[int] | None:
    """Shortest path from start to any target world, inclusive."""
    if targets >> start & 1:
        return [start]
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier:
        grown = []
        for u in frontier:
            for v in _bits(succ[u]):
                if v in parent:
                    continue
                parent[v] = u
                if targets >> v & 1:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                grown.append(v)
        frontier = grown
    return None


def _walk_to_repeat(
    succ: list[int], prefix: list[int], step_mask: int
) -> tuple[list[int], list[int]]:
    """Extend a repeat-free prefix by smallest-successor steps inside
    step_mask until a world repeats; split into (stem, cycle)."""
    seen = {w: i for i, w in enumerate(prefix)}
    seq = list(prefix)
    cur = seq[-1]
    while True:
        options = succ[cur] & step_mask
        nxt = (options & -options).bit_length() - 1
        at = seen.get(nxt)
        if at is not None:
            return seq[:at], seq[at:]
        seen[nxt] = len(seq)
        seq.append(nxt)
        cur = nxt


def _splice_stem(succ: list[int], root: int, cycle: list[int]) -> tuple[list[int], list[int]]:
    """Shortest stem from the root to the cycle, rotated to the entry."""
    cmask = 0
    for w in cycle:
        cmask |= 1 << w
    path = _bfs_path(succ, root, cmask)
    entry = cycle.index(path[-1])
    return path[:-1], cycle[entry:] + cycle[:entry]


def _lasso_masks(
    c: CompiledModel, wmask: int, emask: int, form: F.TrimmedForm
) -> tuple[list[int], list[int]]:
    """Witness (stem, cycle) world-index walks per form; assumes the
    existence check passed."""
    succ = c.successor_masks(emask)
    x_worlds = c.label_worlds.get(form.atom, 0) & wmask
    if form.shape == "AF":
        # route through a nearest x-world, then run until a repeat
        prefix = _bfs_path(succ, c.root, x_worlds)
        stem, cycle = _walk_to_repeat(succ, prefix, wmask)
    elif form.shape == "AG":
        eg_program = compile_formula(F.EG(F.Atom(form.atom)))
        holds_eg = label_masks(c, wmask, emask, eg_program)[-1]
        stem, cycle = _walk_to_repeat(succ, [c.root], holds_eg)
    elif form.shape == "AFAG":
        eg_program = compile_formula(F.EG(F.Atom(form.atom)))
        holds_eg = label_masks(c, wmask, emask, eg_program)[-1]
        reach = c.reach(emask, c.root) & holds_eg
        start = (reach & -reach).bit_length() - 1
        _, cycle = _walk_to_repeat(succ, [start], holds_eg)
        stem, cycle = _splice_stem(succ, c.root, cycle)
    else:
        w = _agaf_witness_world(c, wmask, emask, form.atom)
        back = _backward_reach(succ, wmask, w)
        best: list[int] | None = None
        for v in _bits(succ[w] & back):
            if v == w:
                candidate = [w]
            else:
                candidate = [w] + _bfs_path(succ, v, 1 << w)[:-1]
            if best is None or len(candidate) < len(best):
                best = candidate
        stem, cycle = _splice_stem(succ, c.root, best)
    return stem, cycle


def _walk_masks(c: CompiledModel, walk: list[int]) -> tuple[int, int]:
    """World and edge masks of the steps along a walk."""
    wmask = emask = 0
    for a, b in zip(walk, walk[1:]):
        wmask |= 1 << a
        emask |= 1 << c.edge_index[(a, b)]
    return wmask, emask


def extract_lasso_witness(
    model: KripkeModel, form: F.TrimmedForm, sub: Submodel | None = None
) -> Lasso | None:
    """A lasso whose induced submodel satisfies the four-form formula,
    or None when no submodel of the structure (the model, or sub within
    it) can."""
    c, wmask, emask = structure_masks(model, sub)
    if not _exists_afag_masks(c, wmask, emask, form):
        return None
    stem, cycle = _lasso_masks(c, wmask, emask, form)
    return Lasso(
        stem=tuple(c.ids[i] for i in stem),
        cycle=tuple(c.ids[i] for i in cycle),
    )
