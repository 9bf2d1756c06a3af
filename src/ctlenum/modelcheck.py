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
table: EX Z = SRC(E & IN(Z)), AX Z = SRC(E & IN(Z)) & ~SRC(E & ~IN(Z)).
A least fixpoint (EF, AF, EU, AU) grows from its frontier, the worlds
added in the last round; a greatest one (EG, AG, ER, AR) shrinks from
the worlds removed in the last round; a round tries only the sources of
edges entering those worlds, at one map lookup per chunk of worlds or
edges.

One loop serves three entry points through three edge roles: the edges
of the E-operators' pre-images, the edges an A-operator needs one of
into its argument, and the edges it needs all of there (its universal
condition). label_masks takes all three from E. must_masks takes the
first from a node's kept edges: the must pass of a search node. may_masks
takes the third from them: the may pass, AX Z = SRC(E & IN(Z)) &
~SRC(must & ~IN(Z)).
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
    subformula; the root is the last slot. existential and universal:
    does some E-, some A-operator occur. compile_formula adds to the
    program of the formula it is given: profile
    (formula.classify_fragment), trimmed (afag_trim of an AF/AG chain
    with an operator, else None) and nnf (the program in negation normal
    form; itself when negation sits on atoms only). Equal formulas are
    one object, so a cached program serves every formula equal to its
    own; a program is equal only to itself."""

    __slots__ = ("formula", "nodes", "steps", "existential", "universal", "profile", "trimmed", "nnf")

    def __init__(
        self, formula: F.Formula, nodes: tuple[F.Formula, ...], steps: tuple[Step, ...]
    ):
        self.formula = formula
        self.nodes = nodes
        self.steps = steps
        ops = {op for op, _, _ in steps}
        self.existential = not ops.isdisjoint((_EX, _EF, _EG, _EU, _ER))
        self.universal = not ops.isdisjoint((_AX, _AF, _AG, _AU, _AR))
        self.profile: F.FragmentProfile | None = None
        self.trimmed: F.TrimmedForm | None = None
        self.nnf = self


@lru_cache(maxsize=1024)
def compile_formula(phi: F.Formula) -> FormulaProgram:
    """phi's program and facts (see FormulaProgram). Programs are
    immutable, so each formula is compiled, classified and rewritten
    once per process while it stays among the most recently used."""
    program = _compile(phi)
    if any(op == _NOT and program.steps[a][0] != _ATOM for op, a, _ in program.steps):
        program.nnf = _compile(F.negation_normal_form(phi))
    program.profile = profile = F.classify_fragment(phi)
    if profile.afag_chain and profile.operators:
        program.trimmed = F.afag_trim(phi)
    return program


def _compile(phi: F.Formula) -> FormulaProgram:
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


def _least(
    into: list[list[int]], src: list[list[int]], exist: int, univ: int,
    hold: int, target: int,
) -> int:
    """Least fixpoint of Z = target | (hold & pre(Z)). A world is in
    pre(Z) when it has an edge of exist into Z and, with univ (0 or a
    subset of exist), no edge of univ outside Z. inside, the edges
    entering Z, grows with each frontier; a world joins in the round that
    its last missing condition comes true, through an edge of exist into
    that round's frontier."""
    result = frontier = target
    inside = 0
    while frontier:
        entering = image(into, frontier)
        grown = image(src, exist & entering) & hold & ~result
        if univ:
            inside |= entering
            grown &= ~image(src, univ & ~inside)
        result |= grown
        frontier = grown
    return result


def _greatest(
    into: list[list[int]], src: list[list[int]], exist: int, univ: int,
    release: int, base: int,
) -> int:
    """Greatest fixpoint of Z = base & (release | pre(Z)), pre(Z) as in
    _least. A world leaves when it has no edge of exist into Z (inside,
    shrunk with each removal) or an edge of univ out of Z. When univ is
    exist, every world tried after the first round has such an edge."""
    candidates = base & ~release
    inside = exist & image(into, base)
    removed = candidates & ~image(src, inside)
    if univ:
        removed |= candidates & image(src, univ & ~inside)
    result = base
    while removed:
        result ^= removed
        leaving = image(into, removed)
        candidates = image(src, exist & leaving) & result & ~release
        if univ == exist:
            removed = candidates
            continue
        inside &= ~leaving
        removed = candidates & ~image(src, inside)
        if univ:
            removed |= candidates & image(src, univ & leaving)
    return result


def label_masks(
    compiled: CompiledModel, wmask: int, emask: int, program: FormulaProgram
) -> list[int]:
    """World-set bitmask per slot of the program over the kept structure,
    whose edges must join kept worlds; the root formula's mask is last."""
    return _run(compiled, wmask, emask, emask, emask, program)


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
    return _run(compiled, wmask, emask, must, emask, program)


def may_masks(
    compiled: CompiledModel, wmask: int, emask: int, must: int, program: FormulaProgram
) -> list[int]:
    """label_masks with the A-operators' universal conditions taken over
    the edges in must (a subset of emask): AX Z = SRC(E & IN(Z)) &
    ~SRC(must & ~IN(Z)), and the AF, AU, AG and AR fixpoints alike.

    Read (wmask, emask) and must as in must_masks. With negation on atoms
    only, a world where a slot's formula holds in a completion lies in
    the slot's mask: the completion is a total substructure of the
    closure, so each of its worlds has a successor among emask, and it
    holds every edge in must. So the root outside the last mask means no
    completion satisfies the formula.
    """
    return _run(compiled, wmask, emask, emask, must, program)


def _run(
    compiled: CompiledModel, wmask: int, emask: int, e_edges: int, a_univ: int,
    program: FormulaProgram,
) -> list[int]:
    """The labeling loop with three edge roles: E-operators take their
    pre-images over e_edges; A-operators need an edge of emask into their
    argument and no edge of a_univ out of it. e_edges and a_univ are
    emask or a subset of it."""
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
            result = image(src, e_edges & image(into, masks[a]))
        elif op == _AX:
            entering = image(into, masks[a])
            result = image(src, emask & entering) & ~image(src, a_univ & ~entering)
        elif op == _EF:
            result = _least(into, src, e_edges, 0, wmask, masks[a])
        elif op == _AF:
            result = _least(into, src, emask, a_univ, wmask, masks[a])
        elif op == _EU:
            result = _least(into, src, e_edges, 0, masks[a], masks[b])
        elif op == _AU:
            result = _least(into, src, emask, a_univ, masks[a], masks[b])
        elif op == _EG:
            result = _greatest(into, src, e_edges, 0, 0, masks[a])
        elif op == _AG:
            result = _greatest(into, src, emask, a_univ, 0, masks[a])
        elif op == _ER:
            result = _greatest(into, src, e_edges, 0, masks[a], masks[b])
        elif op == _AR:
            result = _greatest(into, src, emask, a_univ, masks[a], masks[b])
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
