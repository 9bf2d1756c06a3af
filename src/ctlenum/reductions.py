"""Hardness-construction generators and their brute-force validators.

Five generators turn SAT / directed-Hamiltonian-path instances into
(model, formula) pairs whose satisfying submodels exist exactly when the
source instance is a yes-instance. Exhaustive solvers at desk scale make
that equivalence checkable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from . import formula as F
from .errors import (
    CapExceeded,
    ModelFormatError,
    NotNNF,
    PartialAssignment,
)
from .kripke import KripkeModel, Submodel, require_valid


# --- propositional side -------------------------------------------------------

def is_nnf_propositional(phi: F.Formula) -> bool:
    """Propositional with negation only directly above atoms."""
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, (F.And, F.Or)):
            stack += (node.right, node.left)
        elif isinstance(node, F.Not):
            if not isinstance(node.child, F.Atom):
                return False
        elif not isinstance(node, (F.Top, F.Bottom, F.Atom)):
            return False
    return True


def require_nnf(phi: F.Formula) -> None:
    if not is_nnf_propositional(phi):
        raise NotNNF(f"not a propositional formula in NNF: {F.render_formula(phi)}")


def prop_variables(phi: F.Formula) -> list[str]:
    """Variables in first-occurrence order."""
    seen: list[str] = []
    for node in F.subformulas(phi):
        if isinstance(node, F.Atom) and node.name not in seen:
            seen.append(node.name)
    return seen


def eval_prop(phi: F.Formula, assignment: dict[str, bool]) -> bool:
    """Truth of phi under the assignment, left to right with short
    circuits (an unassigned variable past a decided connective is never
    read), on an explicit stack of the connectives awaiting a value."""
    # (connective, whether its right operand is the one being evaluated)
    pending: list[tuple[F.Formula, bool]] = []
    node = phi
    while True:
        while isinstance(node, (F.Not, F.And, F.Or)):
            pending.append((node, False))
            node = node.child if isinstance(node, F.Not) else node.left
        if isinstance(node, F.Top):
            value = True
        elif isinstance(node, F.Bottom):
            value = False
        elif isinstance(node, F.Atom):
            if node.name not in assignment:
                raise PartialAssignment(node.name)
            value = assignment[node.name]
        else:
            raise NotNNF(F.render_formula(node))
        while True:
            if not pending:
                return value
            parent, on_right = pending.pop()
            if isinstance(parent, F.Not):
                value = not value
            elif not on_right and value != isinstance(parent, F.Or):
                # the left operand does not decide the connective
                pending.append((parent, True))
                node = parent.right
                break


def brute_sat(phi: F.Formula, cap: int = 20) -> dict[str, bool] | None:
    """Some satisfying assignment by exhaustive evaluation, or None."""
    require_nnf(phi)
    variables = prop_variables(phi)
    if len(variables) > cap:
        raise CapExceeded(f"{len(variables)} variables exceed cap {cap}")
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if eval_prop(phi, assignment):
            return assignment
    return None


# --- HAMPATH side ----------------------------------------------------------------

@dataclass(frozen=True)
class HampathInstance:
    """Directed graph with designated distinct source and target. Each
    vertex id v makes x_<v> an atom of the formula grammar, as the
    reductions' formulas name it."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    source: str
    target: str

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise ModelFormatError(f"duplicate vertex {v!r}")
            if not F.is_atom_name(f"x_{v}"):
                raise ModelFormatError(f"vertex {v!r} does not make an atom x_{v}")
            seen.add(v)
        if self.source not in seen or self.target not in seen:
            raise ModelFormatError("source and target must be declared vertices")
        if self.source == self.target:
            raise ModelFormatError("source must differ from target")
        seen_edges = set()
        for edge in self.edges:
            if edge in seen_edges:
                raise ModelFormatError(f"duplicate edge {edge!r}")
            seen_edges.add(edge)
            if edge[0] not in seen or edge[1] not in seen:
                raise ModelFormatError(f"dangling edge {edge!r}")


def digraph_from_dict(data: object) -> HampathInstance:
    if not isinstance(data, dict):
        raise ModelFormatError("digraph file must hold a JSON object")
    try:
        vertices = data["vertices"]
        edges = data["edges"]
        source = data["source"]
        target = data["target"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"missing digraph key: {exc}") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ModelFormatError("'vertices' must be an array of strings")
    if not isinstance(edges, list):
        raise ModelFormatError("'edges' must be an array")
    pairs = []
    for entry in edges:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ModelFormatError(f"bad edge entry: {entry!r}")
        pairs.append((entry[0], entry[1]))
    if not isinstance(source, str) or not isinstance(target, str):
        raise ModelFormatError("'source' and 'target' must be vertex ids")
    return HampathInstance(tuple(vertices), tuple(pairs), source, target)


def parse_digraph(text: str) -> HampathInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"bad JSON: {exc}") from exc
    return digraph_from_dict(data)


def load_digraph(path: str) -> HampathInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_digraph(fh.read())


def digraph_to_dict(instance: HampathInstance) -> dict:
    return {
        "vertices": list(instance.vertices),
        "edges": [list(e) for e in instance.edges],
        "source": instance.source,
        "target": instance.target,
    }


def brute_hampath(instance: HampathInstance, cap: int = 10) -> list[str] | None:
    """Some Hamiltonian source-target path by exhaustive search, or None."""
    n = len(instance.vertices)
    if n > cap:
        raise CapExceeded(f"{n} vertices exceed cap {cap}")
    succ: dict[str, list[str]] = {v: [] for v in instance.vertices}
    for u, v in instance.edges:
        if u != v:
            succ[u].append(v)

    path = [instance.source]
    used = {instance.source}

    def walk() -> bool:
        if len(path) == n:
            return path[-1] == instance.target
        for v in succ[path[-1]]:
            if v not in used:
                used.add(v)
                path.append(v)
                if walk():
                    return True
                path.pop()
                used.remove(v)
        return False

    return path if walk() else None


# --- reduction instances -----------------------------------------------------------

@dataclass
class ReductionInstance:
    model: KripkeModel
    formula: F.Formula
    provenance: dict


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _fresh_id(base: str, taken: set[str]) -> str:
    candidate = base
    while candidate in taken:
        candidate += "_"
    return candidate


def sat_to_ag(phi: F.Formula, encoding: str = "negation") -> ReductionInstance:
    """Two-worlds-per-variable chain whose submodels encode assignments.

    Each variable x gets worlds w{i}^0 and w{i}^1 labeled {x, x^0} and
    {x, x^1}; the formula replaces the literal x by AG(x -> x^1) and !x
    by AG(x -> x^0). The marker's ^ is a run one longer than the longest
    run of ^ in any variable name, so no marker is a variable's name or
    another variable's marker: with variables x and x^1 the markers are
    x^^0, x^^1, x^1^^0 and x^1^^1. With the relabel encoding the inner
    negation is replaced by a complement label not<x> carried by every
    world where x is absent, leaving AG with conjunction and disjunction
    only.
    """
    require_nnf(phi)
    if encoding not in ("negation", "relabel"):
        raise ValueError(f"unknown encoding {encoding!r}")
    variables = prop_variables(phi)
    if not variables:
        raise ValueError("at least one variable is required")
    n = len(variables)
    mark = "^"
    while any(mark in name for name in variables):
        mark += "^"
    worlds: list[tuple[str, list[str]]] = [("w0", [])]
    for i, name in enumerate(variables, start=1):
        for k in (0, 1):
            worlds.append((f"w{i}^{k}", [name, f"{name}{mark}{k}"]))
    edges = [("w0", f"w1^{k}") for k in (0, 1)]
    edges += [
        (f"w{i}^{k}", f"w{i + 1}^{l}")
        for i in range(1, n)
        for k in (0, 1)
        for l in (0, 1)
    ]
    edges += [(f"w{n}^{k}", f"w{n}^{k}") for k in (0, 1)]
    if encoding == "relabel":
        worlds = [
            (wid, labels + [f"not{name}" for name in variables if name not in labels])
            for wid, labels in worlds
        ]
        mapping = {}
        for name in variables:
            mapping[name] = F.AG(F.Or(F.Atom(f"not{name}"), F.Atom(f"{name}{mark}1")))
            mapping["!" + name] = F.AG(F.Or(F.Atom(f"not{name}"), F.Atom(f"{name}{mark}0")))
    else:
        mapping = {}
        for name in variables:
            mapping[name] = F.AG(F.Or(F.Not(F.Atom(name)), F.Atom(f"{name}{mark}1")))
            mapping["!" + name] = F.AG(F.Or(F.Not(F.Atom(name)), F.Atom(f"{name}{mark}0")))
    model = KripkeModel.of(worlds, edges, "w0")
    require_valid(model)
    source = F.render_formula(phi)
    return ReductionInstance(
        model=model,
        formula=F.substitute_atoms(phi, mapping),
        provenance={
            "construction": "sat-ag",
            "encoding": encoding,
            "variables": variables,
            "source": source,
            "source_digest": _digest(source),
        },
    )


def assignment_to_submodel(
    phi: F.Formula, assignment: dict[str, bool]
) -> Submodel:
    """The submodel of the sat-ag model encoding a total assignment:
    level i keeps only w{i}^{value}."""
    variables = prop_variables(phi)
    missing = [name for name in variables if name not in assignment]
    if missing:
        raise PartialAssignment(", ".join(missing))
    kept = ["w0"] + [
        f"w{i}^{1 if assignment[name] else 0}"
        for i, name in enumerate(variables, start=1)
    ]
    edges = {(a, b) for a, b in zip(kept, kept[1:])}
    edges.add((kept[-1], kept[-1]))
    return Submodel(frozenset(kept), frozenset(edges))


def _dead_ends(instance: HampathInstance) -> set[str]:
    """Non-target vertices with no outgoing edge. They make a Hamiltonian
    path impossible, and would leave their frame world non-total; such
    worlds get a self-loop, which no satisfying path can ever use."""
    has_out = {u for u, _ in instance.edges}
    return {
        v
        for v in instance.vertices
        if v != instance.target and v not in has_out
    }


def _hampath_frame(instance: HampathInstance) -> tuple[list, list, dict[str, str], str]:
    """Shared M(H) frame: the graph plus a sink world after the target."""
    ids = {v: f"w_{v}" for v in instance.vertices}
    hat = _fresh_id("w_hat", set(ids.values()))
    worlds = [(ids[v], [f"x_{v}"]) for v in instance.vertices]
    worlds.append((hat, []))
    edges = [
        (ids[u], ids[v]) for u, v in instance.edges if u != instance.target
    ]
    edges += [(ids[v], ids[v]) for v in sorted(_dead_ends(instance))]
    edges += [(ids[instance.target], hat), (hat, hat)]
    return worlds, edges, ids, hat


def _provenance(instance: HampathInstance, construction: str) -> dict:
    source = json.dumps(digraph_to_dict(instance), sort_keys=True)
    return {
        "construction": construction,
        "vertices": list(instance.vertices),
        "source": source,
        "source_digest": _digest(source),
    }


def hampath_to_af(instance: HampathInstance) -> ReductionInstance:
    """Satisfying submodels must visit every vertex: AF x_v for all v."""
    worlds, edges, _, _ = _hampath_frame(instance)
    model = KripkeModel.of(worlds, edges, f"w_{instance.source}")
    require_valid(model)
    phi: F.Formula | None = None
    for v in instance.vertices:
        conjunct = F.AF(F.Atom(f"x_{v}"))
        phi = conjunct if phi is None else F.And(phi, conjunct)
    return ReductionInstance(model, phi, _provenance(instance, "hampath-af"))


def hampath_to_ax(instance: HampathInstance) -> ReductionInstance:
    """Satisfying submodels put the target at step n on every path."""
    worlds, edges, _, _ = _hampath_frame(instance)
    model = KripkeModel.of(worlds, edges, f"w_{instance.source}")
    require_valid(model)
    phi: F.Formula = F.Atom(f"x_{instance.target}")
    for _ in range(len(instance.vertices) - 1):
        phi = F.AX(phi)
    return ReductionInstance(model, phi, _provenance(instance, "hampath-ax"))


def hampath_to_au(instance: HampathInstance) -> ReductionInstance:
    """Diamond expansion: each vertex v becomes an entry world w_v, n slot
    worlds w_v.1..w_v.n labeled x1..xn and an exit world w_v.hat; nested
    untils force one fresh slot index per visited diamond. No vertex id
    holds a '.', so the derived world ids never meet another world's."""
    n = len(instance.vertices)
    worlds = []
    edges = []
    for v in instance.vertices:
        entry, exit_ = f"w_{v}", f"w_{v}.hat"
        worlds.append((entry, []))
        for i in range(1, n + 1):
            slot = f"w_{v}.{i}"
            worlds.append((slot, [f"x{i}"]))
            edges += [(entry, slot), (slot, exit_)]
        worlds.append((exit_, [f"x_{v}"] if v == instance.target else []))
    edges += [
        (f"w_{u}.hat", f"w_{v}")
        for u, v in instance.edges
        if u != instance.target
    ]
    edges += [(f"w_{v}.hat", f"w_{v}.hat") for v in sorted(_dead_ends(instance))]
    edges.append((f"w_{instance.target}.hat", f"w_{instance.target}.hat"))
    model = KripkeModel.of(worlds, edges, f"w_{instance.source}")
    require_valid(model)
    phi: F.Formula = F.AU(F.Top(), F.Atom(f"x_{instance.target}"))
    for i in range(1, n + 1):
        phi = F.AU(phi, F.Atom(f"x{i}"))
    return ReductionInstance(model, phi, _provenance(instance, "hampath-au"))


def hampath_to_ar(instance: HampathInstance) -> ReductionInstance:
    """Extended diamonds with a buffer world before each exit; the z/y
    labeling makes nested releases step through diamonds like AX would.
    Vertex v's worlds are w_v, w_v.1..w_v.n, the buffer w_v.tilde and
    the exit w_v.hat, named as in hampath_to_au.

    The target exit w_t.hat steps into the target's own x1 slot, which
    carries neither y nor z. A {y,z}-labeled self-loop there would
    discharge every pending release vacuously, so any simple
    source-target route would satisfy the formula. With the slot as
    successor, a release still pending at w_t.hat fails, so the formula
    holds only on routes through all n diamonds. The cycle
    w_t.1 -> w_t.tilde -> w_t.hat keeps none of x1, y and z forever, so
    it discharges nothing either.
    """
    n = len(instance.vertices)
    slots = [f"x{i}" for i in range(1, n + 1)]
    worlds = []
    edges = []
    for v in instance.vertices:
        entry, buffer, exit_ = f"w_{v}", f"w_{v}.tilde", f"w_{v}.hat"
        worlds.append((entry, ["z", *slots]))
        for i in range(1, n + 1):
            slot = f"w_{v}.{i}"
            worlds.append((slot, [f"x{i}"]))
            edges += [(entry, slot), (slot, buffer)]
        worlds.append((buffer, ["y", *slots]))
        worlds.append((exit_, ["y", "z"]))
        edges.append((buffer, exit_))
    edges += [
        (f"w_{u}.hat", f"w_{v}")
        for u, v in instance.edges
        if u != instance.target
    ]
    dead = sorted(_dead_ends(instance))
    if dead:
        # a {y,z}-labeled self-loop would discharge every pending release,
        # so dead exits drain into an unlabeled sink instead
        sink = _fresh_id("w_sink", {w for w, _ in worlds})
        worlds.append((sink, []))
        edges += [(f"w_{v}.hat", sink) for v in dead]
        edges.append((sink, sink))
    edges.append((f"w_{instance.target}.hat", f"w_{instance.target}.1"))
    model = KripkeModel.of(worlds, edges, f"w_{instance.source}")
    require_valid(model)
    phi: F.Formula = F.Top()
    for i in range(1, n + 1):
        phi = F.AR(
            F.AR(F.AR(phi, F.Atom("z")), F.Atom("y")), F.Atom(f"x{i}")
        )
    return ReductionInstance(model, phi, _provenance(instance, "hampath-ar"))


REDUCTIONS = {
    "sat-ag": sat_to_ag,
    "hampath-af": hampath_to_af,
    "hampath-ax": hampath_to_ax,
    "hampath-au": hampath_to_au,
    "hampath-ar": hampath_to_ar,
}
