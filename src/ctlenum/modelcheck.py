"""CTL model checking by bottom-up fixpoint labeling.

Labels every subformula with the set of worlds where it holds. Temporal
operators are computed by least/greatest fixpoint iteration over
predecessor images, giving each call a polynomial runtime bound.
Structurally identical subtrees are evaluated once.
"""

from __future__ import annotations

from typing import Iterable

from . import formula as F
from .kripke import CompiledModel, KripkeModel, Submodel, _bits, structure_masks

LabelingResult = dict[F.Formula, frozenset[str]]


def label_masks(
    compiled: CompiledModel, wmask: int, emask: int, phi: F.Formula
) -> dict[F.Formula, int]:
    """World-set bitmasks per subformula, over the kept structure."""
    succ = compiled.successor_masks(emask)

    def pre_exists(target: int) -> int:
        out = 0
        for w in _bits(wmask):
            if succ[w] & target:
                out |= 1 << w
        return out

    def pre_all(target: int) -> int:
        out = 0
        for w in _bits(wmask):
            image = succ[w]
            if image and not image & ~target:
                out |= 1 << w
        return out

    memo: dict[F.Formula, int] = {}

    def sat(node: F.Formula) -> int:
        cached = memo.get(node)
        if cached is not None:
            return cached
        if isinstance(node, F.Top):
            result = wmask
        elif isinstance(node, F.Bottom):
            result = 0
        elif isinstance(node, F.Atom):
            result = compiled.label_worlds.get(node.name, 0) & wmask
        elif isinstance(node, F.Not):
            result = wmask & ~sat(node.child)
        elif isinstance(node, F.And):
            result = sat(node.left) & sat(node.right)
        elif isinstance(node, F.Or):
            result = sat(node.left) | sat(node.right)
        elif isinstance(node, F.EX):
            result = pre_exists(sat(node.child))
        elif isinstance(node, F.AX):
            result = pre_all(sat(node.child))
        elif isinstance(node, (F.EF, F.AF)):
            pre = pre_exists if isinstance(node, F.EF) else pre_all
            target = sat(node.child)
            result = target
            while True:
                grown = target | pre(result)
                if grown == result:
                    break
                result = grown
        elif isinstance(node, (F.EG, F.AG)):
            pre = pre_exists if isinstance(node, F.EG) else pre_all
            base = sat(node.child)
            result = base
            while True:
                shrunk = base & pre(result)
                if shrunk == result:
                    break
                result = shrunk
        elif isinstance(node, (F.EU, F.AU)):
            pre = pre_exists if isinstance(node, F.EU) else pre_all
            hold, until = sat(node.left), sat(node.right)
            result = until
            while True:
                grown = until | (hold & pre(result))
                if grown == result:
                    break
                result = grown
        elif isinstance(node, (F.ER, F.AR)):
            pre = pre_exists if isinstance(node, F.ER) else pre_all
            release, base = sat(node.left), sat(node.right)
            result = base
            while True:
                shrunk = base & (release | pre(result))
                if shrunk == result:
                    break
                result = shrunk
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[node] = result
        return result

    sat(phi)
    return memo


def label(
    model: KripkeModel, phi: F.Formula, sub: Submodel | None = None
) -> LabelingResult:
    """Map each subformula to the id set of worlds where it holds."""
    compiled, wmask, emask = structure_masks(model, sub)
    masks = label_masks(compiled, wmask, emask, phi)
    return {
        node: frozenset(compiled.ids[i] for i in _bits(mask))
        for node, mask in masks.items()
    }


def check(model: KripkeModel, phi: F.Formula, sub: Submodel | None = None) -> bool:
    """Root satisfaction: does the structure satisfy phi at its root?"""
    compiled, wmask, emask = structure_masks(model, sub)
    masks = label_masks(compiled, wmask, emask, phi)
    return bool(masks[phi] >> compiled.root & 1)


def check_equiv(
    phi: F.Formula, psi: F.Formula, family: Iterable[KripkeModel]
) -> bool:
    """Do phi and psi agree at the root of every model in the family?"""
    return all(check(model, phi) == check(model, psi) for model in family)
