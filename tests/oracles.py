"""Independent reference implementations used only to cross-check the package.

The naive checker decides satisfaction by unrolling all path prefixes up
to the lasso horizon (one more than the world count): any prefix of that
length revisits a world, so prefix verdicts extend to infinite paths.
It shares no code with the fixpoint labeler.
"""

from __future__ import annotations

import itertools

from ctlenum import formula as F
from ctlenum.kripke import KripkeModel, Submodel


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


def _prefixes(succ: dict[str, list[str]], start: str, horizon: int) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []

    def grow(path: list[str]):
        if len(path) == horizon:
            out.append(tuple(path))
            return
        for nxt in succ[path[-1]]:
            path.append(nxt)
            grow(path)
            path.pop()

    grow([start])
    return out


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
    prefix_cache = {w: _prefixes(succ, w, horizon) for w in worlds}
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
            result = {w for w in worlds if any(p[1] in s for p in prefix_cache[w])}
        elif isinstance(node, F.AX):
            s = sat(node.child)
            result = {w for w in worlds if all(p[1] in s for p in prefix_cache[w])}
        elif isinstance(node, F.EF):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if any(any(x in s for x in p) for p in prefix_cache[w])
            }
        elif isinstance(node, F.AF):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if all(any(x in s for x in p) for p in prefix_cache[w])
            }
        elif isinstance(node, F.EG):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if any(all(x in s for x in p) for p in prefix_cache[w])
            }
        elif isinstance(node, F.AG):
            s = sat(node.child)
            result = {
                w
                for w in worlds
                if all(all(x in s for x in p) for p in prefix_cache[w])
            }
        elif isinstance(node, (F.EU, F.AU)):
            hold, until = sat(node.left), sat(node.right)
            quantifier = any if isinstance(node, F.EU) else all
            result = {
                w
                for w in worlds
                if quantifier(_until_ok(p, hold, until) for p in prefix_cache[w])
            }
        elif isinstance(node, (F.ER, F.AR)):
            release, base = sat(node.left), sat(node.right)
            quantifier = any if isinstance(node, F.ER) else all
            result = {
                w
                for w in worlds
                if quantifier(_release_ok(p, release, base) for p in prefix_cache[w])
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
