"""Duplicate-free enumeration of satisfying submodels.

The engine runs a depth-first binary partition over the ground-set order
(keep branch before delete branch), pruning every node whose extension
query the active oracle rejects, and emits at full assignments only. Full
assignments are in bijection with candidate submodels, so the output
stream is duplicate-free by construction.

Three extension oracles are provided: an exhaustive completion search
(correct for full CTL, worst-case exponential), a polynomial one for
negation-free existential formulas, which is that search's first step,
and a polynomial one for AF/AG chains with a documented exhaustive
fallback for keep-committed queries on AF-containing forms. The engine
and the completion search are explicit-stack loops, so neither recurses
once per ground-set position.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
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
from .modelcheck import label_masks


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
    """Per-gap delays and oracle-call counts; one extra bucket covers the
    precomputation before the first solution and the postcomputation after
    the last."""

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
        """Yield the solutions, recording each gap's delay and the oracle
        calls take_calls reports for it; the consumer's time between two
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


# --- internal oracle context -------------------------------------------------


class _Context:
    """Per-run search state: compiled model, formula, fragment, caches."""

    def __init__(
        self,
        model: KripkeModel,
        phi: F.Formula,
        connected: bool,
        delete_first: bool = False,
    ):
        self.compiled = compile_model(model)
        self.model = model
        self.formula = phi
        self.connected = connected
        self.delete_first = delete_first
        self.profile = F.classify_fragment(phi)
        self.trimmed: F.TrimmedForm | None = None
        if self.profile.afag_chain and not isinstance(phi, F.Atom):
            self.trimmed = F.afag_trim(phi)
        self.fallback_queries = 0
        weakened = F.existential_weakening(phi)
        self.weakened = phi if weakened == phi else weakened
        self._sat_cache: dict[tuple[int, int], bool] = {}
        self._weak_cache: dict[tuple[int, int], bool] = {}
        c = self.compiled
        self.positions: list[tuple[int, int]] = [
            (1 << w, 0) for w in c.ground_worlds
        ] + [(0, 1 << e) for e in range(c.m)]

    def satisfies(self, wmask: int, emask: int) -> bool:
        return self._holds(self._sat_cache, self.formula, wmask, emask)

    def may_extend(self, wmask: int, emask: int) -> bool:
        """Can some submodel of a structure that fails phi satisfy phi?
        False when the structure fails phi's existential weakening."""
        if self.weakened is None:
            return True
        if self.weakened is self.formula:
            return False
        return self._holds(self._weak_cache, self.weakened, wmask, emask)

    def _holds(
        self, cache: dict[tuple[int, int], bool], phi: F.Formula, wmask: int, emask: int
    ) -> bool:
        key = (wmask, emask)
        cached = cache.get(key)
        if cached is None:
            masks = label_masks(self.compiled, wmask, emask, phi)
            cached = bool(masks[phi] >> self.compiled.root & 1)
            if len(cache) > 1 << 18:
                cache.clear()
            cache[key] = cached
        return cached


_MaskOracle = Callable[["_Context", int, int, int, int], tuple[bool, tuple[int, int] | None]]


def _oracle_exhaustive(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int
) -> tuple[bool, tuple[int, int] | None]:
    witness = _search_completion(ctx, keep_w, keep_e, del_w, del_e)
    return witness is not None, witness


def _search_completion(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int
) -> tuple[int, int] | None:
    """First satisfying completion in keep-before-delete order, or None.

    Each frame carries cl, the closure of its deletions, or None after a
    real deletion. Only those frames pay for a closure: deciding an
    element can force others out, and a forced-out keep commitment
    prunes the branch. The maximal surviving submodel is itself a
    reachable completion, so satisfaction there accepts at once. Every
    completion is a submodel of it, so a failed existential weakening
    there prunes the branch; on the monotone fragment the weakening is
    phi itself, so the search stops at the first closure. Keep branches
    and deletions of elements outside cl leave the closure unchanged.
    """
    positions = ctx.positions
    total = len(positions)
    stack: list[tuple[int, int, int, int, int, tuple[int, int] | None]] = [
        (0, keep_w, keep_e, del_w, del_e, None)
    ]
    while stack:
        pos, keep_w, keep_e, del_w, del_e, cl = stack.pop()
        if cl is None:
            cl = ctx.compiled.closure(del_w, del_e, ctx.connected)
            if cl is None or keep_w & ~cl[0] or keep_e & ~cl[1]:
                continue
            if ctx.satisfies(*cl):
                return cl
            if not ctx.may_extend(*cl):
                continue
        cw, ce = cl
        decided_w = keep_w | del_w
        decided_e = keep_e | del_e
        while pos < total:
            wbit, ebit = positions[pos]
            if not (wbit & decided_w or ebit & decided_e):
                if wbit & cw or ebit & ce:
                    break
                # outside the surviving submodel already: keeping it is
                # contradictory and deleting it changes nothing
                del_w |= wbit
                del_e |= ebit
            pos += 1
        if pos == total:
            # full assignment: the kept candidate is valid only if it
            # equals the closure, whose satisfaction was already refuted
            continue
        keep =(pos + 1, keep_w | wbit, keep_e | ebit, del_w, del_e, cl)
        delete = (pos + 1, keep_w, keep_e, del_w | wbit, del_e | ebit, None)
        if ctx.delete_first:
            stack += (keep, delete)
        else:
            stack += (delete, keep)
    return None


def _oracle_afag(
    ctx: _Context, keep_w: int, keep_e: int, del_w: int, del_e: int
) -> tuple[bool, tuple[int, int] | None]:
    c = ctx.compiled
    form = ctx.trimmed
    if not (keep_w | keep_e):
        # deletions only: a satisfying submodel exists iff a connected
        # one does, and every connected one lives inside this closure
        cl = c.closure(del_w, del_e, connected=True)
        if cl is None or not _exists_afag_masks(c, *cl, form):
            return False, None
        stem, cycle = _lasso_masks(c, *cl, form)
        return True, _walk_masks(c, stem + cycle + cycle[:1])
    if ctx.connected and form.shape == "AG":
        # AG x solutions consist of x-labeled worlds only; an unlabeled
        # root, kept world or kept-edge endpoint fails the closure below
        labeled = c.label_worlds.get(form.atom, 0)
        cl = c.closure(del_w | (c.all_worlds & ~labeled), del_e, connected=True)
        if cl is None or keep_w & ~cl[0] or keep_e & ~cl[1]:
            return False, None
        return True, cl
    ctx.fallback_queries += 1
    return _oracle_exhaustive(ctx, keep_w, keep_e, del_w, del_e)


_ORACLES: dict[OracleKind, _MaskOracle] = {
    OracleKind.EXHAUSTIVE: _oracle_exhaustive,
    OracleKind.MONOTONE: _oracle_exhaustive,
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
        self._oracle = _ORACLES[self.oracle_kind]
        self._limit = limit
        self.stats = EnumerationStats()
        self._witness: tuple[int, int] | None = None
        self._calls_in_gap = 0
        self._finished = False

    def __iter__(self) -> Iterator[Submodel]:
        if self._finished:
            raise RuntimeError("a session can only be iterated once")
        self._finished = True
        return self._iterate()

    def _iterate(self) -> Iterator[Submodel]:
        solutions = self.stats.record(self._solutions(), self._take_calls)
        try:
            for sol_w, sol_e in solutions:
                yield self._ctx.compiled.submodel(sol_w, sol_e)
        finally:
            solutions.close()
            self.stats.fallback_queries = self._ctx.fallback_queries

    def _take_calls(self) -> int:
        calls, self._calls_in_gap = self._calls_in_gap, 0
        return calls

    def _solutions(self) -> Iterator[tuple[int, int]]:
        """Depth-first over the ground-set order: a node is queried when
        popped, and its delete child sits below its keep child."""
        ctx = self._ctx
        positions = ctx.positions
        total = len(positions)
        stack = [(0, 0, 0, 0, 0)]
        while stack:
            pos, keep_w, keep_e, del_w, del_e = stack.pop()
            if not self._query(keep_w, keep_e, del_w, del_e):
                continue
            if pos == total:
                yield ctx.compiled.all_worlds & ~del_w, ctx.compiled.all_edges & ~del_e
                if self.stats.solutions == self._limit:
                    return
                continue
            wbit, ebit = positions[pos]
            stack.append((pos + 1, keep_w, keep_e, del_w | wbit, del_e | ebit))
            stack.append((pos + 1, keep_w | wbit, keep_e | ebit, del_w, del_e))

    def _query(self, keep_w: int, keep_e: int, del_w: int, del_e: int) -> bool:
        self._calls_in_gap += 1
        cached = self._witness
        if (
            cached is not None
            and not keep_w & ~cached[0]
            and not keep_e & ~cached[1]
            and not del_w & cached[0]
            and not del_e & cached[1]
        ):
            return True
        ok, witness = self._oracle(self._ctx, keep_w, keep_e, del_w, del_e)
        if ok:
            self._witness = witness
        return ok


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


def _query_masks(query: ExtensionQuery) -> tuple[_Context, int, int, int, int]:
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
    return ctx, keep_w, keep_e, del_w, del_e


def _extend(kind: OracleKind, query: ExtensionQuery) -> bool:
    ctx, *masks = _query_masks(query)
    return _ORACLES[resolve_oracle(kind, ctx)](ctx, *masks)[0]


def extend_exhaustive(query: ExtensionQuery) -> bool:
    """Search-based extension decision; correct for full CTL."""
    return _extend(OracleKind.EXHAUSTIVE, query)


def extend_monotone(query: ExtensionQuery) -> bool:
    """Polynomial extension decision for the negation-free existential
    fragment: satisfaction of the maximal surviving submodel decides, so
    the completion search stops at its first closure."""
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
    oracle = _ORACLES[resolve_oracle(OracleKind.AUTO, ctx)]
    return oracle(ctx, 0, 0, 0, 0)[0]


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
    ctx = _Context(model, phi, connected)
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
            if c.valid(wmask, emask, connected) and ctx.satisfies(wmask, emask):
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
    return bool(label_masks(c, wmask, emask, phi)[phi] >> c.root & 1)


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
        holds_eg = label_masks(c, wmask, emask, F.EG(F.Atom(form.atom)))[
            F.EG(F.Atom(form.atom))
        ]
        stem, cycle = _walk_to_repeat(succ, [c.root], holds_eg)
    elif form.shape == "AFAG":
        eg_formula = F.EG(F.Atom(form.atom))
        holds_eg = label_masks(c, wmask, emask, eg_formula)[eg_formula]
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
