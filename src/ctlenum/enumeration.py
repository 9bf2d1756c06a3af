"""Duplicate-free enumeration of satisfying submodels.

One search walk serves the engine and every decision procedure: a
depth-first binary partition that asks a node test at each node it must
decide. The test answers a witness (a satisfying completion), explore
(the node's closure fails the formula but a completion may not; search
the children) or nothing (prune). The engine walks the ground-set order
(keep branch before delete branch) and emits at full assignments only,
which are in bijection with candidate submodels, so the output stream is
duplicate-free by construction. A decision (exists_submodel, extend_*)
returns only a verdict, so it walks root-outward instead, delete branch
first: the worlds in BFS order from the root, each followed by its
out-edges. That fixes the route near the root before anything far from
it; on the reduction instances it visits about a third as many nodes.

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

Every session compiles phi in negation normal form, so the node's kept
edges make two passes of the labeling loop over its closure sharper than
a plain labeling. The may pass (modelcheck.may_masks) takes the
A-operators' universal conditions over the kept edges only: every
completion is a total substructure of the closure that holds them, so
the root outside phi's may mask prunes a node whose closure fails phi.
The must pass (modelcheck.must_masks) takes the E-operators' pre-images
over the kept edges only: a witness node whose must pass holds at the
root is settled, since every completion satisfies phi, so below it each
node's closure is its witness and no node test runs.

A run is set up in one place, _Context, from phi's fragment, AF/AG trim
and NNF program, which modelcheck.compile_formula derives once per
formula. The node tests count into the run's EnumerationStats as they
go, so a session's counters are live.
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
from .modelcheck import _least, compile_formula, label_masks, may_masks, must_masks


_T = TypeVar("_T")


class OracleKind(Enum):
    AUTO = "auto"
    EXHAUSTIVE = "exhaustive"
    MONOTONE = "monotone"
    AFAG = "afag"


@dataclass(frozen=True)
class ExtensionQuery:
    """Can the committed prefix be completed to a satisfying submodel?

    decision is in ground-set order (kripke.ground_set) even though the
    search behind the answer walks root-outward."""

    model: KripkeModel
    formula: F.Formula
    decision: PartialDecision
    connected: bool = True


@dataclass
class EnumerationStats:
    """Per-gap delays and search-node counts (oracle_calls); one extra
    bucket covers the precomputation before the first solution and the
    postcomputation after the last. may_passes counts may passes run at
    nodes whose closure fails phi, must_passes the must passes run at
    witness nodes, settled the nodes whose subtree they settled,
    fallback_queries the afag oracle's hand-offs to the closure test.
    The counters are live during a run; the last bucket is recorded
    when iteration ends."""

    solutions: int = 0
    delays_ns: list[int] = field(default_factory=list)
    oracle_calls: list[int] = field(default_factory=list)
    fallback_queries: int = 0
    may_passes: int = 0
    must_passes: int = 0
    settled: int = 0

    def to_dict(self) -> dict:
        lists = {"delays_ns": list(self.delays_ns), "oracle_calls": list(self.oracle_calls)}
        return {**vars(self), **lists}

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
# a node's mode when every completion of an ancestor satisfies phi
_SETTLED = object()


class _Context:
    """One run's setup and search state. It checks the model, then the
    limit or the length of states (a decision vector), then resolves the
    oracle from phi's profile. It holds the compiled model, the node
    test, phi's trim and NNF program (see modelcheck.FormulaProgram), the
    walk's layout (see _layout; decision selects a decision's order) and
    start node, the run's stats and the search-node counter."""

    def __init__(
        self, model: KripkeModel, phi: F.Formula, kind: OracleKind, connected: bool,
        decision: bool, *, limit: int | None = None, states: tuple[str, ...] | None = None,
    ):
        require_valid(model)
        self.compiled = c = compile_model(model)
        if limit is not None and limit < 1:
            raise ValueError("limit must be at least 1")
        if states is not None and len(states) != c.ground_size:
            raise ValueError("decision vector length does not match the ground set")
        written = compile_formula(phi)
        self.oracle_kind = _resolve_oracle(kind, written.profile)
        self.test = _ORACLES[self.oracle_kind]
        self.trimmed = written.trimmed
        self.program = written.nnf
        self.connected = connected
        self.decision = decision
        self.root_bit = 1 << c.root
        self.positions, self.edge_rules = _layout(c, connected, decision)
        self.start = (0, 0, 0, 0)
        if states:
            self.start = _committed(c, states, KEEP) + _committed(c, states, DELETE)
        self.stats = EnumerationStats()
        self.nodes = 0


def _layout(
    c: CompiledModel, connected: bool, decision: bool
) -> tuple[list[_Masks], list[tuple[int, int, int, int] | None]]:
    """The walk's positions (world bit, edge bit) and, per edge position,
    _branch's delete rules: the source bit, the source's out-edges, with
    connected the target bit unless it is a self-loop, and the target's
    in-edges from other worlds.

    An enumeration walks the ground-set order, which defines the stream.
    A decision walks root-outward: the worlds in BFS discovery order from
    the root, each followed by its out-edges in edge order, and the
    unreachable worlds last.
    """
    rules = [
        (1 << s, c.out_mask[s], 1 << t if connected and s != t else 0, c.in_mask[t])
        for s, t in c.edges
    ]
    if not decision:
        positions = [(1 << w, 0) for w in c.ground_worlds] + [(0, 1 << e) for e in range(c.m)]
        return positions, [None] * len(c.ground_worlds) + rules
    positions, edge_rules = [], []
    order, seen = [c.root], 1 << c.root
    for w in order:
        if w != c.root:
            positions.append((1 << w, 0))
            edge_rules.append(None)
        for e in _bits(c.out_mask[w]):
            positions.append((0, 1 << e))
            edge_rules.append(rules[e])
            t = c.edges[e][1]
            if not seen >> t & 1:
                seen |= 1 << t
                order.append(t)
        if w == order[-1] and seen != c.all_worlds:
            # the BFS is done: the worlds it did not reach come last
            order += [v for v in c.ground_worlds if not seen >> v & 1]
            seen = c.all_worlds
    return positions, edge_rules


def _committed(c: CompiledModel, states: tuple[str, ...], state: str) -> _Masks:
    """World and edge masks of the positions in state of a decision
    vector, which is in ground-set order whatever order the walk takes."""
    worlds = sum(1 << w for w, s in zip(c.ground_worlds, states) if s == state)
    edges = enumerate(states[len(c.ground_worlds):])
    return worlds, sum(1 << e for e, s in edges if s == state)


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
    cl: _Masks, hold: _Masks,
) -> tuple[int, int, int, int, int, int, int, bool]:
    """The branch step of the walk.

    Scans from position pos; cl holds every completion of the node.
    Undecided elements outside cl are folded into the deletions: keeping
    one is contradictory and deleting it changes nothing. The first
    undecided element inside cl is the branch element. Its delete child
    holds no valid submodel, and it is not deletable, when it is the last
    out-edge inside cl of a kept world or the root, or, with connected,
    the last edge inside cl into a kept non-root world from another
    world. Such a forced keep is taken here, as one search node, when
    hold (the last witness, or cl under _EXPLORE) holds it: its keep
    child would not be tested and would branch on cl again.

    Returns (pos, keep_w, keep_e, del_w, del_e, wbit, ebit, deletable)
    for the branch element, or pos == total when none is left.
    """
    positions = ctx.positions
    total = len(positions)
    cw, ce = cl
    decided_w = keep_w | del_w
    decided_e = keep_e | del_e
    while True:
        while pos < total:
            wbit, ebit = positions[pos]
            if not (wbit & decided_w or ebit & decided_e):
                if wbit & cw or ebit & ce:
                    break
                del_w |= wbit
                del_e |= ebit
            pos += 1
        else:
            return total, keep_w, keep_e, del_w, del_e, 0, 0, False
        if not ebit:
            return pos, keep_w, keep_e, del_w, del_e, wbit, ebit, True
        src_bit, out, dst_bit, into = ctx.edge_rules[pos]
        rest = ce ^ ebit
        if not (
            (src_bit & (keep_w | ctx.root_bit) and not out & rest)
            or (dst_bit & keep_w and not into & rest)
        ):
            return pos, keep_w, keep_e, del_w, del_e, wbit, ebit, True
        if not ebit & hold[1]:
            return pos, keep_w, keep_e, del_w, del_e, wbit, ebit, False
        ctx.nodes += 1
        keep_e |= ebit
        pos += 1


def _walk(ctx: _Context) -> Iterator[_Masks]:
    """The one search, depth-first below the node ctx.start over
    ctx.positions: keep child first in an enumeration, delete child
    first in a decision.

    A node carries the closure of its nearest tested ancestor and a mode:
    None, _EXPLORE when that test explored, or _SETTLED when every
    completion of an ancestor satisfies phi. A node is not tested when
    the last witness completes it or when it is the keep child of a node
    that explores (same closure, same answer); any other node shrinks its
    closure and is dropped when that loses the root or a keep. Below a
    settled node the shrunk closure is the witness; elsewhere the node
    test runs. In an enumeration, a witness settles its node when the
    must pass (modelcheck.must_masks) puts the root in phi's mask. Yields
    every full assignment not reached under _EXPLORE, or in a decision
    only the first witness. The walk descends into the child it takes
    first and stacks the other; ctx.nodes counts the nodes it visits.
    """
    total = len(ctx.positions)
    all_worlds, all_edges = ctx.compiled.all_worlds, ctx.compiled.all_edges
    decision, test = ctx.decision, ctx.test
    keep_w, keep_e, del_w, del_e = ctx.start
    witness: _Masks | None = None
    pos, cl, mode = 0, None, None
    stack: list[tuple[int, int, int, int, int, _Masks, object]] = []
    while True:
        ctx.nodes += 1
        if mode is not _EXPLORE and (
            witness is None
            or keep_w & ~witness[0]
            or keep_e & ~witness[1]
            or del_w & witness[0]
            or del_e & witness[1]
        ):
            cl = _node_closure(ctx, cl, keep_w, keep_e, del_w, del_e)
            if cl is None:
                found = None
            elif mode is _SETTLED:
                found = cl
            else:
                found = test(ctx, keep_w, keep_e, del_w, del_e, cl)
            if found is _EXPLORE:
                mode = _EXPLORE
            elif found is None:
                cl = None
            elif decision:
                yield found
                return
            else:
                witness = found
                if mode is None and _settles(ctx, keep_e, cl, found):
                    mode = _SETTLED
        if cl is not None:
            pos, keep_w, keep_e, del_w, del_e, wbit, ebit, deletable = _branch(
                ctx, pos, keep_w, keep_e, del_w, del_e, cl,
                cl if mode is _EXPLORE else witness,
            )
            if pos < total:
                pos += 1
                if not deletable:
                    keep_w |= wbit
                    keep_e |= ebit
                    continue
                delete_mode = mode if mode is _SETTLED else None
                if decision:
                    stack.append((pos, keep_w | wbit, keep_e | ebit, del_w, del_e, cl, mode))
                    del_w |= wbit
                    del_e |= ebit
                    mode = delete_mode
                else:
                    stack.append((pos, keep_w, keep_e, del_w | wbit, del_e | ebit, cl, delete_mode))
                    keep_w |= wbit
                    keep_e |= ebit
                continue
            # under _EXPLORE the kept candidate is valid only if it
            # equals the closure, whose satisfaction was refuted
            if mode is not _EXPLORE:
                yield all_worlds & ~del_w, all_edges & ~del_e
        if not stack:
            return
        pos, keep_w, keep_e, del_w, del_e, cl, mode = stack.pop()


def _settles(ctx: _Context, keep_e: int, cl: _Masks, found: _Masks) -> bool:
    """Does every completion of the node satisfy phi? A closure witness
    answers for phi without E-operators, whose must pass is a labeling
    of the closure; otherwise the must pass decides."""
    if found != cl or ctx.program.existential:
        ctx.stats.must_passes += 1
        if not must_masks(ctx.compiled, *cl, keep_e, ctx.program)[-1] & ctx.root_bit:
            return False
    ctx.stats.settled += 1
    return True


def _closure_test(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int, cl: _Masks
) -> object:
    """The exhaustive and monotone node test on the node's closure.

    The closure is itself a reachable completion, so satisfaction there
    makes it the witness. Otherwise the node is pruned when the
    session's program (phi in negation normal form) has no A-operator
    (every completion is a submodel of the closure, and such a formula
    survives adding worlds and edges) or when the may pass
    (modelcheck.may_masks) over the closure and the kept edges leaves
    the root out of phi's mask; the answer is _EXPLORE when it does not.
    On the monotone fragment the test never explores.
    """
    c = ctx.compiled
    if label_masks(c, *cl, ctx.program)[-1] & ctx.root_bit:
        return cl
    if not ctx.program.universal:
        return None
    ctx.stats.may_passes += 1
    if may_masks(c, *cl, keep_e, ctx.program)[-1] & ctx.root_bit:
        return _EXPLORE
    return None


def _oracle_afag(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int, cl: _Masks
) -> object:
    c = ctx.compiled
    form = ctx.trimmed
    if not (keep_w | keep_e):
        # deletions only: a satisfying submodel exists iff a connected
        # one does, and the lasso search reads only the closure's
        # root-reachable part, which is the connected closure
        lasso = _afag_lasso(c, *cl, form)
        if lasso is None:
            return None
        stem, cycle = lasso
        return _walk_masks(c, stem + cycle + cycle[:1])
    if ctx.connected and form.shape == "AG":
        # AG x solutions consist of x-labeled worlds only; an unlabeled
        # root, kept world or kept-edge endpoint fails the closure below
        labeled = c.label_worlds.get(form.atom, 0)
        return _node_closure(
            ctx, cl, keep_w, keep_e, del_w | (c.all_worlds & ~labeled), del_e
        )
    ctx.stats.fallback_queries += 1
    return _closure_test(ctx, keep_w, keep_e, del_w, del_e, cl)


_ORACLES: dict[OracleKind, _NodeTest] = {
    OracleKind.EXHAUSTIVE: _closure_test,
    OracleKind.MONOTONE: _closure_test,
    OracleKind.AFAG: _oracle_afag,
}


def _resolve_oracle(kind: OracleKind, profile: F.FragmentProfile) -> OracleKind:
    # an AF/AG chain with an operator, as for FormulaProgram.trimmed
    chain = profile.afag_chain and profile.operators
    if kind is OracleKind.AUTO:
        if profile.monotone_existential:
            return OracleKind.MONOTONE
        if chain:
            return OracleKind.AFAG
        return OracleKind.EXHAUSTIVE
    if kind is OracleKind.MONOTONE and not profile.monotone_existential:
        raise OracleFragmentMismatch(
            "monotone oracle needs a negation-free existential formula"
        )
    if kind is OracleKind.AFAG and not chain:
        raise OracleFragmentMismatch(
            "afag oracle needs an AF/AG chain with at least one operator"
        )
    return kind


# --- the flashlight engine -----------------------------------------------------


class EnumerationSession:
    """One enumeration run; iterate it to stream solutions.

    The session owns its mutable search state and is single threaded.
    Its stats are its run's: counted as the search goes, with the last
    gap's bucket added once iteration finishes (exhaustion, the limit,
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
        self._ctx = _Context(model, phi, oracle, connected, decision=False, limit=limit)
        self.oracle_kind = self._ctx.oracle_kind
        self.stats = self._ctx.stats
        self._limit = limit
        self._finished = False

    def __iter__(self) -> Iterator[Submodel]:
        if self._finished:
            raise RuntimeError("a session can only be iterated once")
        self._finished = True
        return self._iterate()

    def _iterate(self) -> Iterator[Submodel]:
        ctx = self._ctx
        solutions = self.stats.record(islice(_walk(ctx), self._limit), self._take_nodes)
        try:
            for sol_w, sol_e in solutions:
                yield ctx.compiled.submodel(sol_w, sol_e)
        finally:
            solutions.close()

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


def _decide(ctx: _Context) -> bool:
    return next(_walk(ctx), None) is not None


def _extend(kind: OracleKind, query: ExtensionQuery) -> bool:
    return _decide(_Context(
        query.model, query.formula, kind, query.connected, decision=True,
        states=query.decision.states,
    ))


def extend_exhaustive(query: ExtensionQuery) -> bool:
    """Search-based extension decision; correct for full CTL."""
    return _extend(OracleKind.EXHAUSTIVE, query)


def extend_monotone(query: ExtensionQuery) -> bool:
    """Polynomial extension decision for the negation-free existential
    fragment: satisfaction of the maximal surviving submodel decides, so
    the search stops at its first closure and its root-outward,
    delete-first order never comes into play."""
    return _extend(OracleKind.MONOTONE, query)


def extend_afag(query: ExtensionQuery) -> bool:
    """Extension decision for AF/AG chains; polynomial on the fast paths
    (no keep commitments, or AG-form keeps), exhaustive otherwise."""
    return _extend(OracleKind.AFAG, query)


def exists_submodel(model: KripkeModel, phi: F.Formula) -> bool:
    """Does any valid connected submodel satisfy phi?"""
    # a decision walks root-outward and delete-first: the route near the
    # root is fixed first and small submodels come first, so witnesses of
    # sparse instances surface early
    return _decide(_Context(model, phi, OracleKind.AUTO, connected=True, decision=True))


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
    four-form formula? Exactly when the lasso search (see
    extract_lasso_witness) finds a lasso from the root."""
    return _afag_lasso(*structure_masks(model, sub), form) is not None


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


def _afag_lasso(
    c: CompiledModel, wmask: int, emask: int, form: F.TrimmedForm
) -> tuple[list[int], list[int]] | None:
    """Witness (stem, cycle) world-index walks of the four-form formula
    over the structure, or None when no lasso from the root satisfies it:
    for AF x when no x-world is root-reachable, for AG x when the root is
    outside EG x, for AF AG x when no root-reachable world is in EG x,
    and for AG AF x when no root-reachable x-world lies on a cycle. Only
    root-reachable worlds are read."""
    root = c.root
    x_worlds = c.label_worlds.get(form.atom, 0) & wmask
    if form.shape == "AF":
        # route through a nearest x-world, then run until a repeat
        succ = c.successor_masks(emask)
        prefix = _bfs_path(succ, root, x_worlds)
        if prefix is None:
            return None
        return _walk_to_repeat(succ, prefix, wmask)
    if form.shape == "AGAF":
        # the shortest cycle through the first root-reachable x-world on one
        if not x_worlds:
            return None
        succ = c.successor_masks(emask)
        for w in _bits(x_worlds & c.reach(emask, root)):
            back = _least(c.in_tables, c.src_tables, emask, 0, wmask, 1 << w)
            cycles = [
                [w] if v == w else [w] + _bfs_path(succ, v, 1 << w)[:-1]
                for v in _bits(succ[w] & back)
            ]
            if cycles:
                return _splice_stem(succ, root, min(cycles, key=len))
        return None
    holds_eg = label_masks(c, wmask, emask, compile_formula(F.EG(F.Atom(form.atom))))[-1]
    if form.shape == "AG":
        if not holds_eg >> root & 1:
            return None
        return _walk_to_repeat(c.successor_masks(emask), [root], holds_eg)
    reach = c.reach(emask, root) & holds_eg
    if not reach:
        return None
    succ = c.successor_masks(emask)
    start = (reach & -reach).bit_length() - 1
    _, cycle = _walk_to_repeat(succ, [start], holds_eg)
    return _splice_stem(succ, root, cycle)


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
    it) can. One search decides and builds the witness: AF x routes
    through a nearest x-world, AG x walks inside EG x from the root,
    AF AG x cycles inside EG x from the first root-reachable world there,
    and AG AF x takes a shortest cycle through the first root-reachable
    x-world that lies on one."""
    c, wmask, emask = structure_masks(model, sub)
    lasso = _afag_lasso(c, wmask, emask, form)
    if lasso is None:
        return None
    stem, cycle = lasso
    return Lasso(
        stem=tuple(c.ids[i] for i in stem),
        cycle=tuple(c.ids[i] for i in cycle),
    )
