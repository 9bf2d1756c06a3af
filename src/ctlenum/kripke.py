"""Rooted Kripke models, the submodel calculus and model file I/O.

A model is a labelled digraph with a total transition relation and a
distinguished root. Submodels keep a subset of worlds and edges; the kept
relation must stay total, and canonical (connected) submodels keep only
worlds lying on some path from the root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InvalidModelError, ModelFormatError, RootDeleted, UnknownWorld


@dataclass(frozen=True)
class World:
    id: str
    labels: frozenset[str]


@dataclass(frozen=True)
class KripkeModel:
    worlds: tuple[World, ...]
    edges: tuple[tuple[str, str], ...]
    root: str

    @classmethod
    def of(
        cls,
        worlds: Iterable[tuple[str, Iterable[str]]],
        edges: Iterable[tuple[str, str]],
        root: str,
    ) -> "KripkeModel":
        return cls(
            worlds=tuple(World(w, frozenset(labels)) for w, labels in worlds),
            edges=tuple((s, t) for s, t in edges),
            root=root,
        )

    def labels_of(self, world_id: str) -> frozenset[str]:
        for world in self.worlds:
            if world.id == world_id:
                return world.labels
        raise UnknownWorld(world_id)


def validate_model(model: KripkeModel) -> list[str]:
    """Return the list of invariant violations (empty means ok)."""
    violations = []
    ids = [w.id for w in model.worlds]
    seen = set()
    for wid in ids:
        if wid in seen:
            violations.append(f"duplicate world id {wid!r}")
        seen.add(wid)
    if model.root not in seen:
        violations.append(f"missing root {model.root!r}")
    seen_edges = set()
    has_out = {wid: False for wid in ids}
    for src, dst in model.edges:
        if (src, dst) in seen_edges:
            violations.append(f"duplicate edge ({src!r}, {dst!r})")
        seen_edges.add((src, dst))
        if src not in seen or dst not in seen:
            violations.append(f"dangling edge ({src!r}, {dst!r})")
            continue
        has_out[src] = True
    for wid, ok in has_out.items():
        if not ok:
            violations.append(f"non-total world {wid!r} (no outgoing edge)")
    return violations


def require_valid(model: KripkeModel) -> None:
    violations = validate_model(model)
    if violations:
        raise InvalidModelError("; ".join(violations))


# --- ground-set elements -----------------------------------------------------

@dataclass(frozen=True)
class WorldElement:
    id: str


@dataclass(frozen=True)
class EdgeElement:
    source: str
    target: str


Element = WorldElement | EdgeElement


def ground_set(model: KripkeModel) -> list[Element]:
    """Deterministic decision order: non-root worlds in declaration order,
    then edges sorted by (source, target) declaration indices."""
    compiled = compile_model(model)
    elements: list[Element] = [
        WorldElement(compiled.ids[w]) for w in compiled.ground_worlds
    ]
    elements.extend(
        EdgeElement(compiled.ids[s], compiled.ids[t]) for s, t in compiled.edges
    )
    return elements


KEEP = "keep"
DELETE = "delete"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class PartialDecision:
    """Keep/delete commitments over a prefix of the ground-set order.

    The root world is implicitly kept and not part of the vector. All
    decided positions precede the first undecided one.
    """

    states: tuple[str, ...]

    def __post_init__(self):
        seen_undecided = False
        for state in self.states:
            if state not in (KEEP, DELETE, UNDECIDED):
                raise ValueError(f"bad decision state {state!r}")
            if state == UNDECIDED:
                seen_undecided = True
            elif seen_undecided:
                raise ValueError("decided position after the frontier")

    @property
    def frontier(self) -> int:
        for i, state in enumerate(self.states):
            if state == UNDECIDED:
                return i
        return len(self.states)

    @classmethod
    def empty(cls, size: int) -> "PartialDecision":
        return cls((UNDECIDED,) * size)

    def decide(self, state: str) -> "PartialDecision":
        i = self.frontier
        if i == len(self.states):
            raise ValueError("no undecided position left")
        return PartialDecision(self.states[:i] + (state,) + self.states[i + 1 :])


# --- submodels ----------------------------------------------------------------

@dataclass(frozen=True)
class Submodel:
    """Kept world-id set and kept edge set; labels and root are inherited.

    CompiledModel.submodel also stores the canonical line (not a field, so
    equality, hashing and repr ignore it); a hand-built submodel has none.
    """

    worlds: frozenset[str]
    edges: frozenset[tuple[str, str]]

    _line = None


# one encoder for every line; json.dumps with separators builds a new one
# per call
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def canonical_serialize(sub: Submodel) -> str:
    """One-line JSON with sorted members; equal strings iff equal submodels.
    Edge tuples encode as JSON arrays."""
    line = sub._line
    if line is not None:
        return line
    return _COMPACT_JSON.encode(
        {"worlds": sorted(sub.worlds), "edges": sorted(sub.edges)}
    )


def submodel_equal(a: Submodel, b: Submodel) -> bool:
    return a == b


def is_valid_submodel(model: KripkeModel, sub: Submodel, connected: bool = True) -> bool:
    """Structural check of the submodel invariants against its parent;
    False for a world or edge the model lacks."""
    compiled = compile_model(model)
    try:
        masks = compiled.masks_of(sub)
    except UnknownWorld:
        return False
    return compiled.valid(*masks, connected)


def restrict(model: KripkeModel, sub: Submodel) -> KripkeModel:
    """Materialize a submodel as a model of its own (labels restricted)."""
    return KripkeModel(
        worlds=tuple(w for w in model.worlds if w.id in sub.worlds),
        edges=tuple(e for e in model.edges if e in sub.edges),
        root=model.root,
    )


def reachable_set(
    model: KripkeModel, start: str, sub: Submodel | None = None
) -> set[str]:
    """Worlds reachable from start via zero or more kept edges."""
    compiled = compile_model(model)
    if sub is None:
        wmask, emask = compiled.all_worlds, compiled.all_edges
    else:
        wmask, emask = compiled.masks_of(sub)
    if not wmask & compiled.world_bit(start):
        raise UnknownWorld(start)
    reached = compiled.reach(emask, compiled.index[start])
    return {compiled.ids[w] for w in _bits(reached)}


def structure_masks(
    model: KripkeModel, sub: Submodel | None = None
) -> tuple[CompiledModel, int, int]:
    """The compiled model with the world and edge masks of sub, or of the
    whole model when sub is None. InvalidModelError unless the structure
    is a valid (not necessarily connected) submodel of the model."""
    if sub is None:
        require_valid(model)
        compiled = compile_model(model)
        return compiled, compiled.all_worlds, compiled.all_edges
    compiled = compile_model(model)
    try:
        wmask, emask = compiled.masks_of(sub)
    except UnknownWorld as exc:
        raise InvalidModelError(f"submodel names {exc} outside the model") from exc
    if not compiled.valid(wmask, emask, connected=False):
        raise InvalidModelError("not a valid submodel of the given model")
    return compiled, wmask, emask


# --- closure -------------------------------------------------------------------

def closure(
    model: KripkeModel, deleted: Iterable[Element], connected: bool = True
) -> Submodel | None:
    """Unique maximal valid submodel avoiding the deletions, or None.

    Starts from the model minus the deleted elements (deleting a world
    drops its incident edges) and prunes non-total worlds, plus worlds
    unreachable from the root when connected is set, to a fixed point.
    """
    compiled = compile_model(model)
    masks = compiled.closure(*compiled.deletion_masks(deleted), connected)
    if masks is None:
        return None
    return compiled.submodel(*masks)


# --- compiled bitmask representation --------------------------------------------

class CompiledModel:
    """Index-based view of a model for bitmask algorithms.

    Worlds are numbered in declaration order; edges are numbered in the
    ground-set order (sorted by source then target index). Per world w:
    out_mask[w] is the mask of its out-edges, incident[w] that of its out-
    and in-edges, in_mask[w] that of its in-edges from other worlds,
    pred_worlds[w] the mask of worlds with an edge into w;
    src_bit[e] and dst_bit[e] are the world bits of edge e's source and
    target, and loop_edges is the mask of the self-loops. The tables that
    turn masks into canonical lines are built on the first submodel call.
    """

    __slots__ = (
        "model",
        "ids",
        "index",
        "n",
        "root",
        "edges",
        "edge_index",
        "m",
        "out_mask",
        "incident",
        "in_mask",
        "pred_worlds",
        "src_bit",
        "dst_bit",
        "loop_edges",
        "all_worlds",
        "all_edges",
        "label_worlds",
        "ground_worlds",
        "ground_size",
        "_line_tables",
    )

    def __init__(self, model: KripkeModel):
        self.model = model
        self.ids = [w.id for w in model.worlds]
        self.index = {wid: i for i, wid in enumerate(self.ids)}
        self.n = len(self.ids)
        try:
            self.root = self.index[model.root]
            self.edges = sorted(
                (self.index[s], self.index[t]) for s, t in model.edges
            )
        except KeyError as exc:
            raise InvalidModelError(f"model names missing world {exc}") from exc
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.m = len(self.edges)
        self.out_mask = [0] * self.n
        self.incident = [0] * self.n
        self.pred_worlds = [0] * self.n
        for e, (src, dst) in enumerate(self.edges):
            self.out_mask[src] |= 1 << e
            self.incident[src] |= 1 << e
            self.incident[dst] |= 1 << e
            self.pred_worlds[dst] |= 1 << src
        self.in_mask = [
            incident & ~out for incident, out in zip(self.incident, self.out_mask)
        ]
        self.src_bit = [1 << src for src, _ in self.edges]
        self.dst_bit = [1 << dst for _, dst in self.edges]
        self.loop_edges = sum(
            1 << e for e, (src, dst) in enumerate(self.edges) if src == dst
        )
        self.all_worlds = (1 << self.n) - 1
        self.all_edges = (1 << self.m) - 1
        self.label_worlds: dict[str, int] = {}
        for i, world in enumerate(model.worlds):
            for label in world.labels:
                self.label_worlds[label] = self.label_worlds.get(label, 0) | 1 << i
        self.ground_worlds = [i for i in range(self.n) if i != self.root]
        self.ground_size = len(self.ground_worlds) + self.m
        self._line_tables: tuple[_CanonicalOrder, _CanonicalOrder] | None = None

    def submodel(self, wmask: int, emask: int) -> Submodel:
        """The submodel of the masks, carrying its canonical line: byte for
        byte what canonical_serialize encodes for an equal hand-built one."""
        if self._line_tables is None:
            ids = self.ids
            self._line_tables = (
                _CanonicalOrder(ids),
                _CanonicalOrder([(ids[src], ids[dst]) for src, dst in self.edges]),
            )
        world_order, edge_order = self._line_tables
        worlds, world_text = world_order.members(wmask)
        edges, edge_text = edge_order.members(emask)
        sub = Submodel(frozenset(worlds), frozenset(edges))
        object.__setattr__(
            sub,
            "_line",
            '{"worlds":[' + world_text + '],"edges":[' + edge_text + "]}",
        )
        return sub

    def world_bit(self, wid: str) -> int:
        i = self.index.get(wid)
        if i is None:
            raise UnknownWorld(wid)
        return 1 << i

    def edge_bit(self, src: str, dst: str) -> int:
        e = self.edge_index.get((self.index.get(src), self.index.get(dst)))
        if e is None:
            raise UnknownWorld(f"{src}->{dst}")
        return 1 << e

    def masks_of(self, sub: Submodel) -> tuple[int, int]:
        """World and edge masks of sub; UnknownWorld for an element the
        model lacks."""
        wmask = 0
        for wid in sub.worlds:
            wmask |= self.world_bit(wid)
        emask = 0
        for s, t in sub.edges:
            emask |= self.edge_bit(s, t)
        return wmask, emask

    def deletion_masks(self, deleted: Iterable[Element]) -> tuple[int, int]:
        """World and edge masks of a deletion set; RootDeleted for the
        root, UnknownWorld for an element the model lacks."""
        del_worlds = del_edges = 0
        for element in deleted:
            if isinstance(element, WorldElement):
                if element.id == self.model.root:
                    raise RootDeleted(element.id)
                del_worlds |= self.world_bit(element.id)
            else:
                del_edges |= self.edge_bit(element.source, element.target)
        return del_worlds, del_edges

    def valid(self, wmask: int, emask: int, connected: bool) -> bool:
        """Submodel invariants on masks: the root is kept, kept edges join
        kept worlds, every kept world has a kept outgoing edge, and with
        connected set every kept world is reachable from the root."""
        if not wmask >> self.root & 1:
            return False
        out_mask, incident = self.out_mask, self.incident
        kept = wmask
        while kept:
            low = kept & -kept
            if not out_mask[low.bit_length() - 1] & emask:
                return False
            kept ^= low
        dropped = self.all_worlds & ~wmask
        while dropped:
            low = dropped & -dropped
            if incident[low.bit_length() - 1] & emask:
                return False
            dropped ^= low
        return not connected or self.reach(emask, self.root) == wmask

    def reach(self, emask: int, start: int) -> int:
        """Mask of worlds reachable from start over the kept edges;
        kept edges must already lie within the kept world set."""
        out_mask, dst_bit = self.out_mask, self.dst_bit
        seen = frontier = 1 << start
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                out = out_mask[low.bit_length() - 1] & emask
                while out:
                    edge = out & -out
                    grown |= dst_bit[edge.bit_length() - 1]
                    out ^= edge
                frontier ^= low
            frontier = grown & ~seen
            seen |= frontier
        return seen

    def successor_masks(self, emask: int) -> list[int]:
        edges, dst_bit = self.edges, self.dst_bit
        succ = [0] * self.n
        while emask:
            low = emask & -emask
            e = low.bit_length() - 1
            succ[edges[e][0]] |= dst_bit[e]
            emask ^= low
        return succ

    def closure(
        self, del_worlds: int, del_edges: int, connected: bool
    ) -> tuple[int, int] | None:
        """Masks of the maximal valid submodel avoiding the deletions, or
        None when the root dies: the kernel applied to the whole model,
        with every world checked once."""
        return self._shrink(
            self.all_worlds, self.all_edges, del_worlds, del_edges,
            self.all_worlds, 1 << self.root, connected, connected,
        )

    def shrink(
        self,
        base: tuple[int, int] | None,
        del_worlds: int,
        del_edges: int,
        connected: bool,
        keep: int = 0,
    ) -> tuple[int, int] | None:
        """closure(del_worlds, del_edges, connected) computed from base,
        the closure of a subset of those deletions under the same
        connected (None: no closure is known, start from the whole model).
        From a base, it returns None as soon as totality kills the root
        or a world of keep.

        Closure is monotone, so the answer is the greatest valid submodel
        of base without the deletions: only the sources of newly deleted
        edges and the kept predecessors of dying worlds can lose
        totality, and with connected a world can be stranded only when a
        removed edge that is not a self-loop had a kept target.
        """
        if base is None:
            return self.closure(del_worlds, del_edges, connected)
        wmask, emask = base
        new_worlds = del_worlds & wmask
        new_edges = del_edges & emask
        if not (new_worlds or new_edges):
            return base
        src_bit = self.src_bit
        sources = 0
        while new_edges:
            low = new_edges & -new_edges
            sources |= src_bit[low.bit_length() - 1]
            new_edges ^= low
        return self._shrink(
            wmask, emask, new_worlds, del_edges, sources,
            keep | 1 << self.root, connected, False,
        )

    def _shrink(
        self,
        wmask: int,
        emask: int,
        dying: int,
        del_edges: int,
        recheck: int,
        guard: int,
        connected: bool,
        reach_due: bool,
    ) -> tuple[int, int] | None:
        """The kernel: the greatest valid submodel of (wmask, emask) without
        the worlds in dying and the edges in del_edges, or None as soon as
        a world in guard is deleted or dies. Totality is checked at the
        worlds in recheck and at the kept predecessors of every death;
        with connected, reach runs when reach_due is set or a removed
        non-loop edge had a kept target."""
        out_mask, incident, pred_worlds = self.out_mask, self.incident, self.pred_worlds
        base_edges = emask
        emask &= ~del_edges
        # totality: a death can only take the last out-edge of one of the
        # dead world's kept predecessors, so only those are checked again
        while True:
            if dying & guard:
                return None
            wmask &= ~dying
            while dying:
                low = dying & -dying
                w = low.bit_length() - 1
                emask &= ~incident[w]
                recheck |= pred_worlds[w]
                dying ^= low
            recheck &= wmask
            while recheck:
                low = recheck & -recheck
                if not out_mask[low.bit_length() - 1] & emask:
                    dying |= low
                recheck ^= low
            if not dying:
                break
        if not connected:
            return wmask, emask
        if not reach_due:
            # every world of base was reachable; a kept world can lose
            # that only through a removed edge into a kept world, and a
            # removed self-loop lies on no shortest path
            dst_bit = self.dst_bit
            removed = base_edges & ~emask & ~self.loop_edges
            while removed:
                low = removed & -removed
                if dst_bit[low.bit_length() - 1] & wmask:
                    reach_due = True
                    break
                removed ^= low
        if reach_due:
            # a predecessor of an unreachable world is unreachable, so
            # dropping them takes no out-edge of a reachable world and
            # totality still holds
            stranded = wmask & ~self.reach(emask, self.root)
            wmask &= ~stranded
            while stranded:
                low = stranded & -stranded
                emask &= ~incident[low.bit_length() - 1]
                stranded ^= low
        return wmask, emask


class _CanonicalOrder:
    """The worlds (ids) or the edges (id pairs) of a compiled model, by
    index: each item's rank in sorted order, which is the order of
    canonical_serialize, and by rank its fragment from the same encoder.

    members answers a mask eight bits at a time; the answer for each
    (chunk position, chunk value) is worked out on first use and kept,
    at most 2 * 256 entries per eight items.
    """

    __slots__ = ("items", "rank_bit", "fragments", "picks", "joins")

    def __init__(self, items: list):
        order = sorted(range(len(items)), key=items.__getitem__)
        self.items = items
        self.rank_bit = [0] * len(items)
        for r, i in enumerate(order):
            self.rank_bit[i] = 1 << r
        self.fragments = [_COMPACT_JSON.encode(items[i]) for i in order]
        chunks = (len(items) + 7) // 8
        # picks: index chunk -> (its items, the mask of their ranks);
        # joins: rank chunk -> its fragments joined in rank order
        self.picks: list[dict[int, tuple[list, int]]] = [{} for _ in range(chunks)]
        self.joins: list[dict[int, str]] = [{} for _ in range(chunks)]

    def members(self, mask: int) -> tuple[list, str]:
        """The items of mask in index order, and their fragments joined
        with commas in rank order."""
        picks, joins = self.picks, self.joins
        items: list = []
        ranks = k = 0
        while mask:
            chunk = mask & 255
            if chunk:
                picked = picks[k].get(chunk)
                if picked is None:
                    picked = picks[k][chunk] = self._pick(k, chunk)
                items += picked[0]
                ranks |= picked[1]
            mask >>= 8
            k += 1
        parts = []
        k = 0
        while ranks:
            chunk = ranks & 255
            if chunk:
                text = joins[k].get(chunk)
                if text is None:
                    text = joins[k][chunk] = ",".join(
                        self.fragments[r] for r in _bits(chunk << 8 * k)
                    )
                parts.append(text)
            ranks >>= 8
            k += 1
        return items, ",".join(parts)

    def _pick(self, k: int, chunk: int) -> tuple[list, int]:
        indices = list(_bits(chunk << 8 * k))
        ranks = 0
        for i in indices:
            ranks |= self.rank_bit[i]
        return [self.items[i] for i in indices], ranks


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=2048)
def compile_model(model: KripkeModel) -> CompiledModel:
    return CompiledModel(model)


# --- file I/O -------------------------------------------------------------------

def model_from_dict(data: object) -> KripkeModel:
    if not isinstance(data, dict):
        raise ModelFormatError("model file must hold a JSON object")
    try:
        worlds_raw = data["worlds"]
        edges_raw = data["edges"]
        root = data["root"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"missing model key: {exc}") from exc
    if not isinstance(worlds_raw, list) or not isinstance(edges_raw, list):
        raise ModelFormatError("'worlds' and 'edges' must be arrays")
    worlds = []
    seen = set()
    for entry in worlds_raw:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ModelFormatError(f"bad world entry: {entry!r}")
        wid = entry["id"]
        labels = entry.get("labels", [])
        if (
            not isinstance(wid, str)
            or not isinstance(labels, list)
            or not all(isinstance(label, str) for label in labels)
        ):
            raise ModelFormatError(f"bad world entry: {entry!r}")
        if wid in seen:
            raise ModelFormatError(f"duplicate world id {wid!r}")
        seen.add(wid)
        worlds.append(World(wid, frozenset(labels)))
    edges = []
    seen_edges = set()
    for entry in edges_raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ModelFormatError(f"bad edge entry: {entry!r}")
        pair = (entry[0], entry[1])
        if pair in seen_edges:
            raise ModelFormatError(f"duplicate edge {pair!r}")
        seen_edges.add(pair)
        edges.append(pair)
    if not isinstance(root, str):
        raise ModelFormatError("'root' must be a world id string")
    return KripkeModel(worlds=tuple(worlds), edges=tuple(edges), root=root)


def model_to_dict(model: KripkeModel) -> dict:
    return {
        "worlds": [{"id": w.id, "labels": sorted(w.labels)} for w in model.worlds],
        "edges": [list(e) for e in model.edges],
        "root": model.root,
    }


def parse_model(text: str) -> KripkeModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"bad JSON: {exc}") from exc
    return model_from_dict(data)


def load_model(path: str) -> KripkeModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def save_model(model: KripkeModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
