"""CTL model checking by bottom-up fixpoint labeling over bitmasks.

A formula compiles once into a post-order program: every distinct
subformula gets one slot, and each slot's step names its operator and the
slots of its children (an atom's step names the atom). Running a program
on a structure fills the slots in order, so children are labeled before
their parents, the root's world set lands in the last slot and no step
recurses, however deep the formula.

Temporal operators are least or greatest fixpoints over pre-images taken
through predecessor masks. A least fixpoint (EF, AF, EU, AU) grows from
its frontier, the worlds added in the last round: only their predecessors
can join next. A greatest fixpoint (EG, AG, ER, AR) shrinks from the worlds
removed in the last round: only their predecessors can leave next. Each
world enters a frontier at most once, so a fixpoint costs one pass over
the kept edges.
"""

from __future__ import annotations

from typing import Iterable

from . import formula as F
from .kripke import CompiledModel, KripkeModel, Submodel, _bits, structure_masks

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


def compile_formula(phi: F.Formula) -> FormulaProgram:
    """One slot per distinct subformula, children before parents and left
    subtrees before right ones; walks phi with an explicit stack."""
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


def _pre_exists(pred: list[int], target: int) -> int:
    """Worlds with a successor in target."""
    out = 0
    while target:
        low = target & -target
        out |= pred[low.bit_length() - 1]
        target ^= low
    return out


def _pre_all(pred: list[int], succ: list[int], target: int) -> int:
    """Worlds with a successor, all of whose successors lie in target."""
    out = candidates = _pre_exists(pred, target)
    while candidates:
        low = candidates & -candidates
        if succ[low.bit_length() - 1] & ~target:
            out ^= low
        candidates ^= low
    return out


def _least(
    pred: list[int], succ: list[int], hold: int, target: int, universal: bool
) -> int:
    """Least fixpoint of Z = target | (hold & pre(Z)), pre existential or
    universal. A world joining in a round has a successor that joined in
    the round before, so only predecessors of the frontier are tried."""
    result = frontier = target
    while frontier:
        grown = _pre_exists(pred, frontier) & hold & ~result
        if universal:
            candidates = grown
            while candidates:
                low = candidates & -candidates
                if succ[low.bit_length() - 1] & ~result:
                    grown ^= low
                candidates ^= low
        result |= grown
        frontier = grown
    return result


def _greatest(
    pred: list[int], succ: list[int], release: int, base: int, universal: bool
) -> int:
    """Greatest fixpoint of Z = base & (release | pre(Z)), pre existential
    or universal. After the first round a world can only leave when a
    successor left in the round before, so only predecessors of the
    removed worlds are tried; under the universal pre-image each of them
    leaves."""
    removed = 0
    candidates = base & ~release
    while candidates:
        low = candidates & -candidates
        image = succ[low.bit_length() - 1]
        if (not image or image & ~base) if universal else not image & base:
            removed |= low
        candidates ^= low
    result = base
    while removed:
        result ^= removed
        candidates = _pre_exists(pred, removed) & result & ~release
        if universal:
            removed = candidates
            continue
        removed = 0
        while candidates:
            low = candidates & -candidates
            if not succ[low.bit_length() - 1] & result:
                removed |= low
            candidates ^= low
    return result


def label_masks(
    compiled: CompiledModel, wmask: int, emask: int, program: FormulaProgram
) -> list[int]:
    """World-set bitmask per slot of the program, over the kept structure;
    the root formula's mask is the last."""
    succ = compiled.successor_masks(emask)
    pred = [0] * compiled.n
    todo = wmask
    while todo:
        low = todo & -todo
        image = succ[low.bit_length() - 1]
        while image:
            bit = image & -image
            pred[bit.bit_length() - 1] |= low
            image ^= bit
        todo ^= low
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
            result = _pre_exists(pred, masks[a])
        elif op == _AX:
            result = _pre_all(pred, succ, masks[a])
        elif op == _EF:
            result = _least(pred, succ, wmask, masks[a], False)
        elif op == _AF:
            result = _least(pred, succ, wmask, masks[a], True)
        elif op == _EU:
            result = _least(pred, succ, masks[a], masks[b], False)
        elif op == _AU:
            result = _least(pred, succ, masks[a], masks[b], True)
        elif op == _EG:
            result = _greatest(pred, succ, 0, masks[a], False)
        elif op == _AG:
            result = _greatest(pred, succ, 0, masks[a], True)
        elif op == _ER:
            result = _greatest(pred, succ, masks[a], masks[b], False)
        elif op == _AR:
            result = _greatest(pred, succ, masks[a], masks[b], True)
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
