"""Independent reference implementations used only to cross-check the package.

The naive checker decides satisfaction by unrolling all path prefixes up
to the lasso horizon (one more than the world count): any prefix of that
length revisits a world, so prefix verdicts extend to infinite paths.
It shares no code with the fixpoint labeler.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ctlenum import formula as F
from ctlenum.kripke import CompiledModel, KripkeModel, Submodel


def _structure(model: KripkeModel, sub: Submodel | None):
    if sub is None:
        worlds = [w.id for w in model.worlds]
        edges = list(model.edges)
    else:
        worlds = [w.id for w in model.worlds if w.id in sub.worlds]
        edges = [e for e in model.edges if e in sub.edges]
    labels = {w.id: w.labels for w in model.worlds}
    succ: dict[str, list[str]] = {w: [] for w in worlds}
    for a, b in edges:
        succ[a].append(b)
    return worlds, succ, labels


def _prefixes(succ: dict[str, list[str]], start: str, horizon: int) -> Iterator[tuple[str, ...]]:
    """Every path of horizon worlds from start, depth first, one at a
    time: memory stays linear in the horizon however many paths exist."""
    path = [start]
    branches = [iter(succ[start])]
    while branches:
        if len(path) == horizon:
            yield tuple(path)
        else:
            nxt = next(branches[-1], None)
            if nxt is not None:
                path.append(nxt)
                branches.append(iter(succ[nxt]))
                continue
        path.pop()
        branches.pop()


def _until_ok(prefix, hold, until) -> bool:
    for w in prefix:
        if w in until:
            return True
        if w not in hold:
            return False
    return False


def _release_ok(prefix, release, base) -> bool:
    released = False
    for w in prefix:
        if not released and w not in base:
            return False
        if released:
            return True
        released = released or w in release
    return True


def naive_sat_worlds(
    model: KripkeModel, phi: F.Formula, sub: Submodel | None = None
) -> dict[F.Formula, set[str]]:
    worlds, succ, labels = _structure(model, sub)
    horizon = len(worlds) + 1

    def paths(w: str) -> Iterator[tuple[str, ...]]:
        return _prefixes(succ, w, horizon)

    memo: dict[F.Formula, set[str]] = {}

    def sat(node: F.Formula) -> set[str]:
        if node in memo:
            return memo[node]
        if isinstance(node, F.Top):
            result = set(worlds)
        elif isinstance(node, F.Bottom):
            result = set()
        elif isinstance(node, F.Atom):
            result = {w for w in worlds if node.name in labels[w]}
        elif isinstance(node, F.Not):
            result = set(worlds) - sat(node.child)
        elif isinstance(node, F.And):
            result = sat(node.left) & sat(node.right)
        elif isinstance(node, F.Or):
            result = sat(node.left) | sat(node.right)
        elif isinstance(node, F.EX):
            s = sat(node.child)
            result = {w for w in worlds if any(p[1] in s for p in paths(w))}
        elif isinstance(node, F.AX):
            s = sat(node.child)
            result = {w for w in worlds if all(p[1] in s for p in paths(w))}
        elif isinstance(node, F.EF):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if any(any(x in s for x in p) for p in paths(w))
            }
        elif isinstance(node, F.AF):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if all(any(x in s for x in p) for p in paths(w))
            }
        elif isinstance(node, F.EG):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if any(all(x in s for x in p) for p in paths(w))
            }
        elif isinstance(node, F.AG):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if all(all(x in s for x in p) for p in paths(w))
            }
        elif isinstance(node, (F.EU, F.AU)):
            hold, until = sat(node.left), sat(node.right)
            quantifier = any if isinstance(node, F.EU) else all
            result = {
                w
                for w in worlds
                if quantifier(_until_ok(p, hold, until) for p in paths(w))
            }
        elif isinstance(node, (F.ER, F.AR)):
            release, base = sat(node.left), sat(node.right)
            quantifier = any if isinstance(node, F.ER) else all
            result = {
                w
                for w in worlds
                if quantifier(_release_ok(p, release, base) for p in paths(w))
            }
        else:
            raise TypeError(node)
        memo[node] = result
        return result

    sat(phi)
    return memo


def naive_check(model: KripkeModel, phi: F.Formula, sub: Submodel | None = None) -> bool:
    return model.root in naive_sat_worlds(model, phi, sub)[phi]


def naive_valid(model: KripkeModel, sub: Submodel, connected: bool) -> bool:
    """Validity re-derived from the raw conditions, without closure code."""
    ids = {w.id for w in model.worlds}
    if model.root not in sub.worlds or not sub.worlds <= ids:
        return False
    all_edges = set(model.edges)
    for a, b in sub.edges:
        if (a, b) not in all_edges or a not in sub.worlds or b not in sub.worlds:
            return False
    for w in sub.worlds:
        if not any(a == w for a, _ in sub.edges):
            return False
    if connected:
        seen = {model.root}
        frontier = [model.root]
        while frontier:
            u = frontier.pop()
            for a, b in sub.edges:
                if a == u and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if seen != set(sub.worlds):
            return False
    return True


def _mask_bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def reference_closure(
    c: CompiledModel, del_worlds: int, del_edges: int, connected: bool
) -> tuple[int, int] | None:
    """Closure on masks by set-at-a-time rounds: every kept world is
    rechecked for totality after each round of deaths, and reachability
    is recomputed until nothing changes. Uses only the model's edge list."""

    def drop(emask: int, w: int) -> int:
        for e, (src, dst) in enumerate(c.edges):
            if w in (src, dst):
                emask &= ~(1 << e)
        return emask

    def reach(emask: int) -> int:
        seen = 1 << c.root
        while True:
            grown = seen
            for e in _mask_bits(emask):
                src, dst = c.edges[e]
                if seen >> src & 1:
                    grown |= 1 << dst
            if grown == seen:
                return seen
            seen = grown

    wmask = c.all_worlds & ~del_worlds
    emask = c.all_edges & ~del_edges
    for w in _mask_bits(del_worlds):
        emask = drop(emask, w)
    while True:
        changed = False
        while True:
            dead = [
                w
                for w in _mask_bits(wmask)
                if not any(c.edges[e][0] == w for e in _mask_bits(emask))
            ]
            if not dead:
                break
            changed = True
            for w in dead:
                wmask &= ~(1 << w)
                emask = drop(emask, w)
        if not wmask >> c.root & 1:
            return None
        if connected:
            stranded = wmask & ~reach(emask)
            if stranded:
                changed = True
                wmask &= ~stranded
                for w in _mask_bits(stranded):
                    emask = drop(emask, w)
        if not changed:
            return wmask, emask


def naive_enumerate(
    model: KripkeModel, phi: F.Formula, connected: bool
) -> set[Submodel]:
    """Subset brute force over worlds and edges with the naive checker."""
    others = [w.id for w in model.worlds if w.id != model.root]
    solutions = set()
    for r in range(len(others) + 1):
        for kept in itertools.combinations(others, r):
            world_set = frozenset(kept) | {model.root}
            inside = [e for e in model.edges if e[0] in world_set and e[1] in world_set]
            for er in range(len(inside) + 1):
                for edge_pick in itertools.combinations(inside, er):
                    sub = Submodel(world_set, frozenset(edge_pick))
                    if naive_valid(model, sub, connected) and naive_check(
                        model, phi, sub
                    ):
                        solutions.add(sub)
    return solutions


def relabeled_exists_afag(
    model: KripkeModel, form: F.TrimmedForm, sub: Submodel | None = None
) -> bool:
    """Four-form existence by relabeling and model checking, with the
    naive checker: the E-twin (EF x, EG x, EF EG x) at the root, and for
    AG AF one reach-and-revisit check EF (x_w & EX EF x_w) per x-world w,
    each x-world carrying a fresh label of its own."""
    x = F.Atom(form.atom)
    if form.shape == "AF":
        return naive_check(model, F.EF(x), sub)
    if form.shape == "AG":
        return naive_check(model, F.EG(x), sub)
    if form.shape == "AFAG":
        return naive_check(model, F.EF(F.EG(x)), sub)
    relabeled = KripkeModel.of(
        [(w.id, [f"x_{w.id}"] if form.atom in w.labels else []) for w in model.worlds],
        model.edges,
        model.root,
    )
    marks = [F.Atom(f"x_{w.id}") for w in model.worlds if form.atom in w.labels]
    return any(
        naive_check(relabeled, F.EF(F.And(mark, F.EX(F.EF(mark)))), sub)
        for mark in marks
    )


def rewrite_afag_ops(ops: list[str]) -> list[str]:
    """AF/AG chain trimming by its rewrite rules, operators outermost
    first: duplicate collapse (AF AF -> AF, AG AG -> AG), then
    alternation-triple collapse (AG AF AG -> AF AG, AF AG AF -> AG AF),
    each applied at the innermost applicable position until a fixed
    point; each step removes exactly one operator."""
    ops = list(ops)
    while True:
        index = length = None
        for i in range(len(ops) - 2, -1, -1):
            if ops[i] == ops[i + 1]:
                index, length, replacement = i, 2, [ops[i]]
                break
        if index is None:
            for i in range(len(ops) - 3, -1, -1):
                triple = tuple(ops[i : i + 3])
                if triple == ("AG", "AF", "AG"):
                    index, length, replacement = i, 3, ["AF", "AG"]
                    break
                if triple == ("AF", "AG", "AF"):
                    index, length, replacement = i, 3, ["AG", "AF"]
                    break
        if index is None:
            return ops
        ops[index : index + length] = replacement


def reference_subformulas(phi: F.Formula) -> list[F.Formula]:
    """Recursive post-order, left subtree first, once per occurrence."""
    if isinstance(phi, (F.Not, F.Unary)):
        children = [phi.child]
    elif isinstance(phi, (F.And, F.Or, F.Binary)):
        children = [phi.left, phi.right]
    else:
        children = []
    out: list[F.Formula] = []
    for child in children:
        out += reference_subformulas(child)
    return out + [phi]


_REFERENCE_CONNECTIVES = {F.Not: "!", F.And: "&", F.Or: "|"}
_REFERENCE_OPERATORS = {
    F.EX: "EX", F.AX: "AX", F.EF: "EF", F.AF: "AF", F.EG: "EG", F.AG: "AG",
    F.EU: "EU", F.AU: "AU", F.ER: "ER", F.AR: "AR",
}


def reference_classify(phi: F.Formula) -> F.FragmentProfile:
    """Fragment profile by a recursive walk over every occurrence."""
    operators: set[str] = set()
    connectives: set[str] = set()
    constants = [False]

    def walk(node: F.Formula) -> None:
        kind = type(node)
        if kind in _REFERENCE_OPERATORS:
            operators.add(_REFERENCE_OPERATORS[kind])
        elif kind in _REFERENCE_CONNECTIVES:
            connectives.add(_REFERENCE_CONNECTIVES[kind])
        elif kind in (F.Top, F.Bottom):
            constants[0] = True
        if isinstance(node, (F.Not, F.Unary)):
            walk(node.child)
        elif isinstance(node, (F.And, F.Or, F.Binary)):
            walk(node.left)
            walk(node.right)

    walk(phi)
    tags = {"general"}
    if operators <= {"EX", "EF", "EG", "EU", "ER"} and connectives <= {"&", "|"}:
        tags.add("monotone-existential")
    chain = phi
    while isinstance(chain, (F.AF, F.AG)):
        chain = chain.child
    if isinstance(chain, F.Atom):
        tags.add("afag-chain")
    return F.FragmentProfile(
        operators=frozenset(operators),
        connectives=frozenset(connectives),
        uses_constants=constants[0],
        tags=frozenset(tags),
    )


_REFERENCE_E_TWIN = {F.AX: F.EX, F.AF: F.EF, F.AG: F.EG, F.AU: F.EU, F.AR: F.ER}


def reference_weakening(phi: F.Formula) -> F.Formula | None:
    """A-operators replaced by E-twins, recursively; None when a negation
    sits above a non-atom."""
    if isinstance(phi, (F.Top, F.Bottom, F.Atom)):
        return phi
    if isinstance(phi, F.Not):
        return phi if isinstance(phi.child, F.Atom) else None
    kind = _REFERENCE_E_TWIN.get(type(phi), type(phi))
    if isinstance(phi, F.Unary):
        child = reference_weakening(phi.child)
        return None if child is None else kind(child)
    left = reference_weakening(phi.left)
    right = reference_weakening(phi.right)
    return None if left is None or right is None else kind(left, right)


_E_TWIN = {F.AX: F.EX, F.AF: F.EF, F.AG: F.EG, F.AU: F.EU, F.AR: F.ER}


def existential_weakening(phi: F.Formula) -> F.Formula | None:
    """phi with every A-operator replaced by its E-twin, or None when a
    negation sits above anything but an atom.

    On total structures each A-operator implies its E-twin, and with
    negation on atoms only every connective and operator is monotone, so
    phi implies its weakening. The weakening is existential with negation
    on atoms only, so it survives adding worlds and edges: a structure
    that fails it has no submodel that satisfies phi.

    Rebuilt bottom-up with an explicit stack. Equal formulas are one
    object, so phi comes back itself when it has no A-operator.
    TestMayPass measures the may pass against the prune this weakening
    gives.
    """
    weakened: dict[F.Formula, F.Formula] = {}  # a node -> its weakening
    stack: list[tuple[F.Formula, bool]] = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if node in weakened:  # a shared node, reached twice
            continue
        if not expanded:
            if isinstance(node, F.Not):
                if not isinstance(node.child, F.Atom):
                    # every ancestor of a None is None
                    return None
                weakened[node] = node
                continue
            children = F._children(node)
            if not children:
                weakened[node] = node
                continue
            stack.append((node, True))
            stack.extend((child, False) for child in children)
            continue
        kind = type(node)
        twin = _E_TWIN.get(kind, kind)
        weakened[node] = twin(*(weakened[child] for child in F._children(node)))
    return weakened[phi]


_E_KINDS = (F.EX, F.EF, F.EG, F.EU, F.ER)
_A_KINDS = (F.AX, F.AF, F.AG, F.AU, F.AR)


def reference_program_facts(phi: F.Formula) -> tuple[F.Formula, bool, bool]:
    """What a search reads of phi, by isinstance scans over every
    subformula: the formula its passes run (phi when negation sits on
    atoms only, else phi's negation normal form) and whether that
    formula has an E-operator and an A-operator."""
    if any(
        isinstance(node, F.Not) and not isinstance(node.child, F.Atom)
        for node in F.subformulas(phi)
    ):
        phi = F.negation_normal_form(phi)
    nodes = list(F.subformulas(phi))
    existential = any(isinstance(node, _E_KINDS) for node in nodes)
    universal = any(isinstance(node, _A_KINDS) for node in nodes)
    return phi, existential, universal
