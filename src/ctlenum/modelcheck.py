"""CTL model checking by bottom-up fixpoint labeling over bitmasks.

A formula compiles once into a post-order program: every distinct
subformula gets one slot, and each slot's step names its operator and the
slots of its children (an atom's step names the atom). Running a program
on a structure fills the slots in order, so children are labeled before
their parents, the root's world set lands in the last slot and no step
recurses, however deep the formula.

Pre-images are taken a set at a time from the kept edge mask E through
the compiled model's maps IN (a world set to the edges entering it) and
SRC (an edge set to the worlds they leave), so a labeling builds no
table: EX Z = SRC(E & IN(Z)), AX Z = SRC(E) & ~SRC(E & ~IN(Z)). A least
fixpoint (EF, AF, EU, AU) grows from its frontier, the worlds added in the
last round; a greatest one (EG, AG, ER, AR) shrinks from the worlds removed
in the last round; a round tries only the sources of edges entering those
worlds, at one map lookup per chunk of worlds or edges. must_masks runs
the same loop with the E-operators' pre-images taken over a second,
smaller edge mask: the must pass of a search node.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import formula as F
from .kripke import CompiledModel, KripkeModel, Submodel, _bits, image, structure_masks

LabelingResult = dict[F.Formula, frozenset[str]]

(
    _TOP, _BOTTOM, _ATOM, _NOT, _AND, _OR,
    _EX, _AX, _EF, _AF, _EG, _AG, _EU, _AU, _ER, _AR,
) = range(16)

_OPCODES: dict[type, int] = {
    F.Top: _TOP, F.Bottom: _BOTTOM, F.Atom: _ATOM, F.Not: _NOT,
    F.And: _AND, F.Or: _OR, F.EX: _EX, F.AX: _AX, F.EF: _EF, F.AF: _AF,
    F.EG: _EG, F.AG: _AG, F.EU: _EU, F.AU: _AU, F.ER: _ER, F.AR: _AR,
}

# (opcode, a, b): an atom's a is its name; otherwise a and b are the
# slots of the children (left, right), None where the node has fewer
Step = tuple[int, int | str | None, int | None]


class FormulaProgram:
    """A formula compiled into post-order steps, one per distinct
    subformula; the root is the last slot. Equal and hashed as its
    formula."""

    __slots__ = ("formula", "nodes", "steps")

    def __init__(
        self, formula: F.Formula, nodes: tuple[F.Formula, ...], steps: tuple[Step, ...]
    ):
        self.formula = formula
        self.nodes = nodes
        self.steps = steps

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormulaProgram) and self.formula == other.formula

    def __hash__(self) -> int:
        return hash(self.formula)


@lru_cache(maxsize=1024)
def compile_formula(phi: F.Formula) -> FormulaProgram:
    """One slot per distinct subformula, children before parents and left
    subtrees before right ones; walks phi with an explicit stack. Programs
    are immutable, so each formula compiles once per process while it
    stays among the most recently used."""
    slots: dict[F.Formula, int] = {}
    nodes: list[F.Formula] = []
    steps: list[Step] = []
    stack = [phi]
    while stack:
        node = stack[-1]
        if node in slots:
            stack.pop()
            continue
        op = _OPCODES.get(type(node))
        if op is None:
            raise TypeError(f"not a formula node: {node!r}")
        if op == _ATOM:
            step: Step = (op, node.name, None)
        elif op in (_TOP, _BOTTOM):
            step = (op, None, None)
        elif op == _NOT or _EX <= op <= _AG:
            child = slots.get(node.child)
            if child is None:
                stack.append(node.child)
                continue
            step = (op, child, None)
        else:
            left, right = slots.get(node.left), slots.get(node.right)
            if left is None or right is None:
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            step = (op, left, right)
        stack.pop()
        slots[node] = len(nodes)
        nodes.append(node)
        steps.append(step)
    return FormulaProgram(phi, tuple(nodes), tuple(steps))


def _least(
    into: list[list[int]], src: list[list[int]], emask: int,
    hold: int, target: int, universal: bool,
) -> int:
    """Least fixpoint of Z = target | (hold & pre(Z)), pre existential or
    universal; under the universal pre-image, inside (the kept edges
    entering Z) grows with each frontier, and a world with a kept edge
    outside it cannot join."""
    result = frontier = target
    inside = 0
    while frontier:
        entering = emask & image(into, frontier)
        grown = image(src, entering) & hold & ~result
        if universal:
            inside |= entering
            grown &= ~image(src, emask & ~inside)
        result |= grown
        frontier = grown
    return result


def _greatest(
    into: list[list[int]], src: list[list[int]], emask: int,
    release: int, base: int, universal: bool,
) -> int:
    """Greatest fixpoint of Z = base & (release | pre(Z)), pre existential
    or universal. After the first round every tried world leaves under the
    universal pre-image; under the existential one, a world with no kept
    edge into Z (inside, shrunk with each removal) leaves."""
    candidates = base & ~release
    inside = emask & image(into, base)
    if universal:
        removed = candidates & (~image(src, emask) | image(src, emask & ~inside))
    else:
        removed = candidates & ~image(src, inside)
    result = base
    while removed:
        result ^= removed
        leaving = image(into, removed)
        candidates = image(src, emask & leaving) & result & ~release
        if universal:
            removed = candidates
            continue
        inside &= ~leaving
        removed = candidates & ~image(src, inside)
    return result


def label_masks(
    compiled: CompiledModel, wmask: int, emask: int, program: FormulaProgram
) -> list[int]:
    """World-set bitmask per slot of the program over the kept structure,
    whose edges must join kept worlds; the root formula's mask is last."""
    return must_masks(compiled, wmask, emask, emask, program)


def must_masks(
    compiled: CompiledModel, wmask: int, emask: int, must: int, program: FormulaProgram
) -> list[int]:
    """label_masks with the E-operators' pre-images taken over the edges
    in must (a subset of emask) and the A-operators' over emask.

    Read (wmask, emask) as the greatest completion of a search node and
    must as its kept edges. With negation on atoms only, every world of
    a slot's mask that a completion keeps satisfies the slot's formula
    there: atoms and A-operators survive passing to a total substructure,
    E-operators follow kept edges, which every completion holds, and the
    connectives are monotone. So the root in the last mask means every
    completion satisfies the formula.
    """
    into, src = compiled.in_tables, compiled.src_tables
    labels = compiled.label_worlds
    masks: list[int] = []
    for op, a, b in program.steps:
        if op == _ATOM:
            result = labels.get(a, 0) & wmask
        elif op == _NOT:
            result = wmask & ~masks[a]
        elif op == _AND:
            result = masks[a] & masks[b]
        elif op == _OR:
            result = masks[a] | masks[b]
        elif op == _EX:
            result = image(src, must & image(into, masks[a]))
        elif op == _AX:
            result = image(src, emask) & ~image(src, emask & ~image(into, masks[a]))
        elif op == _EF or op == _AF:
            edges = emask if op == _AF else must
            result = _least(into, src, edges, wmask, masks[a], op == _AF)
        elif op == _EU or op == _AU:
            edges = emask if op == _AU else must
            result = _least(into, src, edges, masks[a], masks[b], op == _AU)
        elif op == _EG or op == _AG:
            edges = emask if op == _AG else must
            result = _greatest(into, src, edges, 0, masks[a], op == _AG)
        elif op == _ER or op == _AR:
            edges = emask if op == _AR else must
            result = _greatest(into, src, edges, masks[a], masks[b], op == _AR)
        elif op == _TOP:
            result = wmask
        else:
            result = 0
        masks.append(result)
    return masks


def label(
    model: KripkeModel, phi: F.Formula, sub: Submodel | None = None
) -> LabelingResult:
    """Map each subformula to the id set of worlds where it holds."""
    compiled, wmask, emask = structure_masks(model, sub)
    program = compile_formula(phi)
    masks = label_masks(compiled, wmask, emask, program)
    return {
        node: frozenset(compiled.ids[i] for i in _bits(mask))
        for node, mask in zip(program.nodes, masks)
    }


def check(model: KripkeModel, phi: F.Formula, sub: Submodel | None = None) -> bool:
    """Root satisfaction: does the structure satisfy phi at its root?"""
    compiled, wmask, emask = structure_masks(model, sub)
    masks = label_masks(compiled, wmask, emask, compile_formula(phi))
    return bool(masks[-1] >> compiled.root & 1)


def check_equiv(
    phi: F.Formula, psi: F.Formula, family: Iterable[KripkeModel]
) -> bool:
    """Do phi and psi agree at the root of every model in the family?"""
    return all(check(model, phi) == check(model, psi) for model in family)
