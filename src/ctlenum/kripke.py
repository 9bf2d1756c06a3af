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
    """Kept world-id set and kept edge set; labels and root are inherited."""

    worlds: frozenset[str]
    edges: frozenset[tuple[str, str]]


def canonical_serialize(sub: Submodel) -> str:
    """One-line JSON with sorted members; equal strings iff equal submodels."""
    payload = {
        "worlds": sorted(sub.worlds),
        "edges": [list(e) for e in sorted(sub.edges)],
    }
    return json.dumps(payload, separators=(",", ":"))


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


def full_submodel(model: KripkeModel) -> Submodel:
    return Submodel(frozenset(w.id for w in model.worlds), frozenset(model.edges))


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
    ground-set order (sorted by source then target index).
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
        "in_mask",
        "all_worlds",
        "all_edges",
        "label_worlds",
        "ground_worlds",
        "ground_size",
        "_closure_cache",
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
        self.in_mask = [0] * self.n
        for e, (src, dst) in enumerate(self.edges):
            self.out_mask[src] |= 1 << e
            self.in_mask[dst] |= 1 << e
        self.all_worlds = (1 << self.n) - 1
        self.all_edges = (1 << self.m) - 1
        self.label_worlds: dict[str, int] = {}
        for i, world in enumerate(model.worlds):
            for label in world.labels:
                self.label_worlds[label] = self.label_worlds.get(label, 0) | 1 << i
        self.ground_worlds = [i for i in range(self.n) if i != self.root]
        self.ground_size = len(self.ground_worlds) + self.m
        self._closure_cache: dict[tuple[int, int, bool], tuple[int, int] | None] = {}

    def submodel(self, wmask: int, emask: int) -> Submodel:
        return Submodel(
            worlds=frozenset(self.ids[i] for i in _bits(wmask)),
            edges=frozenset(
                (self.ids[s], self.ids[t])
                for e in _bits(emask)
                for s, t in (self.edges[e],)
            ),
        )

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
        for w in _bits(wmask):
            if not self.out_mask[w] & emask:
                return False
        for w in _bits(self.all_worlds & ~wmask):
            if (self.out_mask[w] | self.in_mask[w]) & emask:
                return False
        return not connected or self.reach(emask, self.root) == wmask

    def reach(self, emask: int, start: int) -> int:
        """Mask of worlds reachable from start over the kept edges;
        kept edges must already lie within the kept world set."""
        succ = self.successor_masks(emask)
        seen = 1 << start
        frontier = seen
        while frontier:
            grown = 0
            for w in _bits(frontier):
                grown |= succ[w]
            frontier = grown & ~seen
            seen |= frontier
        return seen

    def successor_masks(self, emask: int) -> list[int]:
        succ = [0] * self.n
        for e in _bits(emask):
            src, dst = self.edges[e]
            succ[src] |= 1 << dst
        return succ

    def closure(
        self, del_worlds: int, del_edges: int, connected: bool
    ) -> tuple[int, int] | None:
        key = (del_worlds, del_edges, connected)
        try:
            return self._closure_cache[key]
        except KeyError:
            pass
        result = self._closure_uncached(del_worlds, del_edges, connected)
        if len(self._closure_cache) > 1 << 19:
            self._closure_cache.clear()
        self._closure_cache[key] = result
        return result

    def _closure_uncached(
        self, del_worlds: int, del_edges: int, connected: bool
    ) -> tuple[int, int] | None:
        wmask = self.all_worlds & ~del_worlds
        emask = self.all_edges & ~del_edges
        for w in _bits(del_worlds):
            emask &= ~(self.out_mask[w] | self.in_mask[w])
        while True:
            # totality: drop worlds with no outgoing kept edge
            changed = False
            while True:
                dead = 0
                for w in _bits(wmask):
                    if not self.out_mask[w] & emask:
                        dead |= 1 << w
                if not dead:
                    break
                changed = True
                wmask &= ~dead
                for w in _bits(dead):
                    emask &= ~(self.out_mask[w] | self.in_mask[w])
            if not wmask >> self.root & 1:
                return None
            if connected:
                reachable = self.reach(emask, self.root)
                stranded = wmask & ~reachable
                if stranded:
                    changed = True
                    wmask &= reachable
                    for w in _bits(stranded):
                        emask &= ~(self.out_mask[w] | self.in_mask[w])
            if not changed:
                return wmask, emask


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
        if not isinstance(wid, str) or not isinstance(labels, list):
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
