"""CTL formulas: syntax tree, concrete grammar, fragment classification, rewrites.

The grammar (ASCII; loosest to tightest binding):

    formula := disj [ "->" formula ]            implication, right-assoc,
                                                desugared to "!a | b" at parse
    disj    := conj { "|" conj }                left-assoc
    conj    := unary { "&" unary }              left-assoc
    unary   := ("!" | "AX" | "EX" | "AF" | "EF" | "AG" | "EG") unary | primary
    primary := "true" | "false" | atom | "(" formula ")"
             | ("A" | "E") "[" formula ("U" | "R") formula "]"

Atoms match ``[A-Za-z_][A-Za-z0-9_^]*`` and must not collide with keywords.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from .errors import (
    FormulaSyntaxError,
    NotAFAGChain,
    NotNNF,
    RewriteNotApplicable,
    UnmappedAtom,
)


@dataclass(frozen=True)
class Formula:
    """Base class; concrete nodes are the sixteen kinds below.

    Nodes are immutable, so each one hashes its fields once, when it is
    built, and hashing is a lookup afterwards instead of a walk over the
    subtree. The value is the dataclass one (the hash of the field tuple);
    equality is the field-wise comparison, walked without recursion.
    """

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def __reduce__(self):
        # rebuild through __init__: a stored hash of a string is only
        # valid in the process that computed it
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Unary(Formula):
    """A path-quantified unary temporal operator applied to one child."""

    child: Formula


@dataclass(frozen=True)
class EX(Unary):
    pass


@dataclass(frozen=True)
class AX(Unary):
    pass


@dataclass(frozen=True)
class EF(Unary):
    pass


@dataclass(frozen=True)
class AF(Unary):
    pass


@dataclass(frozen=True)
class EG(Unary):
    pass


@dataclass(frozen=True)
class AG(Unary):
    pass


@dataclass(frozen=True)
class Binary(Formula):
    """A path-quantified binary temporal operator (until / release)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class EU(Binary):
    pass


@dataclass(frozen=True)
class AU(Binary):
    pass


@dataclass(frozen=True)
class ER(Binary):
    pass


@dataclass(frozen=True)
class AR(Binary):
    pass


UNARY_TEMPORAL = {"EX": EX, "AX": AX, "EF": EF, "AF": AF, "EG": EG, "AG": AG}
BINARY_TEMPORAL = {"EU": EU, "AU": AU, "ER": ER, "AR": AR}


def _stored_hash(node: Formula) -> int:
    return node._hash


def _structural_eq(node: Formula, other: object) -> bool:
    """Field-wise equality on an explicit stack, so depth costs no
    recursion; a differing kind or stored hash rejects at once."""
    if type(other) is not type(node):
        return NotImplemented
    stack = [(node, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        if type(a) is Atom:
            if a.name != b.name:
                return False
        else:
            stack.extend(zip(_children(a), _children(b)))
    return True


# @dataclass gives every frozen class its own re-hashing __hash__ and
# recursive __eq__; replace them on all of them with the hash stored at
# construction and the iterative comparison
for _kind in (
    Formula, Top, Bottom, Atom, Not, And, Or, Unary, Binary,
    *UNARY_TEMPORAL.values(), *BINARY_TEMPORAL.values(),
):
    _kind.__hash__ = _stored_hash
    _kind.__eq__ = _structural_eq

TEMPORAL_OPS = set(UNARY_TEMPORAL) | set(BINARY_TEMPORAL)
EXISTENTIAL_OPS = {"EX", "EF", "EG", "EU", "ER"}

KEYWORDS = {"true", "false", "A", "E", "U", "R"} | set(UNARY_TEMPORAL)

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_^]*")


def operator_name(phi: Formula) -> str | None:
    """Temporal operator at the root of phi, or None for Boolean nodes."""
    name = type(phi).__name__
    return name if name in TEMPORAL_OPS else None


def _children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, (Not, Unary)):
        return (phi.child,)
    if isinstance(phi, (And, Or, Binary)):
        return (phi.left, phi.right)
    return ()


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Post-order traversal, left subtree first; shared shapes appear once
    per occurrence. Walks an explicit stack, so depth costs no recursion."""
    stack: list[tuple[Formula, bool]] = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(_children(node)))


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"->|[()\[\]!&|]|[A-Za-z_][A-Za-z0-9_^]*|\S"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            assert m is not None
            lexeme = m.group()
            column = pos + 1
            if lexeme in ("->", "(", ")", "[", "]", "!", "&", "|"):
                kind = lexeme
            elif _ATOM_RE.fullmatch(lexeme):
                kind = lexeme if lexeme in KEYWORDS else "atom"
            else:
                raise FormulaSyntaxError(
                    f"unexpected character {lexeme!r}", lineno, column
                )
            tokens.append(_Token(kind, lexeme, lineno, column))
            pos = m.end()
    tokens.append(_Token("end", "", lineno if text else 1, len(line) + 1 if text else 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, description: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(description)
        return self.advance()

    def fail(self, expected: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise FormulaSyntaxError(
            f"expected {expected}, found {found}", tok.line, tok.column
        )

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "->":
            self.advance()
            right = self.formula()
            return Or(Not(left), right)
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek().kind == "|":
            self.advance()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "&":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return Not(self.unary())
        if tok.kind in UNARY_TEMPORAL:
            self.advance()
            return UNARY_TEMPORAL[tok.kind](self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.advance()
            return Top()
        if tok.kind == "false":
            self.advance()
            return Bottom()
        if tok.kind == "atom":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.formula()
            self.expect(")", "')'")
            return node
        if tok.kind in ("A", "E"):
            quantifier = tok.kind
            self.advance()
            self.expect("[", "'['")
            left = self.formula()
            op_tok = self.peek()
            if op_tok.kind not in ("U", "R"):
                self.fail("'U' or 'R'")
            self.advance()
            right = self.formula()
            self.expect("]", "']'")
            return BINARY_TEMPORAL[quantifier + op_tok.kind](left, right)
        self.fail("a formula")


def parse_formula(text: str) -> Formula:
    """Parse formula text; implication is desugared to ``!a | b``."""
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    if parser.peek().kind != "end":
        parser.fail("end of input")
    return node


# --- printing --------------------------------------------------------------

def _precedence(phi: Formula) -> int:
    if isinstance(phi, Or):
        return 1
    if isinstance(phi, And):
        return 2
    if isinstance(phi, (Not, Unary)):
        return 3
    return 4  # atoms, constants, bracketed binary temporal


def render_formula(phi: Formula) -> str:
    """Deterministic text form; parse_formula round-trips it structurally."""
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bottom):
        return "false"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        child = render_formula(phi.child)
        return f"!({child})" if _precedence(phi.child) < 3 else f"!{child}"
    if isinstance(phi, Unary):
        child = render_formula(phi.child)
        op = operator_name(phi)
        return f"{op} ({child})" if _precedence(phi.child) < 3 else f"{op} {child}"
    if isinstance(phi, And):
        left = render_formula(phi.left)
        right = render_formula(phi.right)
        if _precedence(phi.left) < 2:
            left = f"({left})"
        if _precedence(phi.right) <= 2:
            right = f"({right})"
        return f"{left} & {right}"
    if isinstance(phi, Or):
        left = render_formula(phi.left)
        right = render_formula(phi.right)
        if _precedence(phi.right) <= 1:
            right = f"({right})"
        return f"{left} | {right}"
    if isinstance(phi, Binary):
        op = operator_name(phi)
        left = render_formula(phi.left)
        right = render_formula(phi.right)
        return f"{op[0]}[{left} {op[1]} {right}]"
    raise TypeError(f"not a formula node: {phi!r}")


# --- fragment classification ------------------------------------------------

@dataclass(frozen=True)
class FragmentProfile:
    """Which operators, connectives and constants a formula uses."""

    operators: frozenset[str]
    connectives: frozenset[str]
    uses_constants: bool
    tags: frozenset[str]

    @property
    def monotone_existential(self) -> bool:
        return "monotone-existential" in self.tags

    @property
    def afag_chain(self) -> bool:
        return "afag-chain" in self.tags


def _afag_runs(phi: Formula) -> tuple[list[str], str] | None:
    """Operators of an AF/AG chain, outermost first, with each run of equal
    operators collapsed to one, and the chain's atom; None when phi is not
    an AF/AG chain over a single atom."""
    runs: list[str] = []
    while isinstance(phi, (AF, AG)):
        op = operator_name(phi)
        if not runs or runs[-1] != op:
            runs.append(op)
        phi = phi.child
    return (runs, phi.name) if isinstance(phi, Atom) else None


def classify_fragment(phi: Formula) -> FragmentProfile:
    operators = set()
    connectives = set()
    uses_constants = False
    # each distinct node object once: the profile is a set of kinds, and
    # identity needs no recursive dataclass comparison
    seen: set[int] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(_children(node))
        name = operator_name(node)
        if name is not None:
            operators.add(name)
        elif isinstance(node, Not):
            connectives.add("!")
        elif isinstance(node, And):
            connectives.add("&")
        elif isinstance(node, Or):
            connectives.add("|")
        elif isinstance(node, (Top, Bottom)):
            uses_constants = True
    tags = {"general"}
    if operators <= EXISTENTIAL_OPS and connectives <= {"&", "|"}:
        tags.add("monotone-existential")
    if _afag_runs(phi) is not None:
        tags.add("afag-chain")
    return FragmentProfile(
        operators=frozenset(operators),
        connectives=frozenset(connectives),
        uses_constants=uses_constants,
        tags=frozenset(tags),
    )


# --- equivalence rewrites ---------------------------------------------------

def duality_equivalents(phi: Formula) -> list[Formula]:
    """All listed equivalent forms for the root operator of phi."""
    if isinstance(phi, EX):
        return [Not(AX(Not(phi.child)))]
    if isinstance(phi, AG):
        return [Not(EF(Not(phi.child))), AR(Bottom(), phi.child)]
    if isinstance(phi, EG):
        return [Not(AF(Not(phi.child))), ER(Bottom(), phi.child)]
    if isinstance(phi, EF):
        return [EU(Top(), phi.child)]
    if isinstance(phi, AF):
        return [AU(Top(), phi.child)]
    if isinstance(phi, ER):
        return [Not(AU(Not(phi.left), Not(phi.right)))]
    if isinstance(phi, AR):
        return [Not(EU(Not(phi.left), Not(phi.right)))]
    return []


_E_TWIN = {AX: EX, AF: EF, AG: EG, AU: EU, AR: ER}


def existential_weakening(phi: Formula) -> Formula | None:
    """phi with every A-operator replaced by its E-twin, or None when a
    negation sits above anything but an atom.

    On total structures each A-operator implies its E-twin, and with
    negation on atoms only every connective and operator is monotone, so
    phi implies its weakening. The weakening is existential with negation
    on atoms only, so it survives adding worlds and edges: a structure
    that fails it has no submodel that satisfies phi.

    Rebuilt bottom-up with an explicit stack; a node whose weakening
    equals it is returned itself, so phi comes back unchanged (the same
    object) when it has no A-operator.
    """
    weakened: dict[int, Formula] = {}  # id of a node -> its weakening
    stack: list[tuple[Formula, bool]] = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in weakened:  # a shared node, reached twice
            continue
        if not expanded:
            if isinstance(node, Not):
                if not isinstance(node.child, Atom):
                    # every ancestor of a None is None
                    return None
                weakened[key] = node
                continue
            children = _children(node)
            if not children:
                weakened[key] = node
                continue
            stack.append((node, True))
            stack.extend((child, False) for child in children)
            continue
        kind = type(node)
        twin = _E_TWIN.get(kind, kind)
        if isinstance(node, Unary):
            child = weakened[id(node.child)]
            unchanged = child is node.child
            weakened[key] = node if twin is kind and unchanged else twin(child)
        else:
            left, right = weakened[id(node.left)], weakened[id(node.right)]
            unchanged = left is node.left and right is node.right
            weakened[key] = node if twin is kind and unchanged else twin(left, right)
    return weakened[id(phi)]


def dualize_step(phi: Formula) -> Formula:
    """Rewrite the root operator via its first listed equivalence."""
    equivalents = duality_equivalents(phi)
    if not equivalents:
        raise RewriteNotApplicable(
            f"no equivalence applies at root of {render_formula(phi)!r}"
        )
    return equivalents[0]


# --- AF/AG chain trimming ---------------------------------------------------

@dataclass(frozen=True)
class TrimmedForm:
    """One of the four normal forms of an AF/AG chain: shape + its atom."""

    shape: str  # "AF", "AG", "AFAG" or "AGAF"
    atom: str

    def to_formula(self) -> Formula:
        # outermost operator comes first in the shape string
        phi: Formula = Atom(self.atom)
        ops = [self.shape[i : i + 2] for i in range(0, len(self.shape), 2)]
        for op in reversed(ops):
            phi = UNARY_TEMPORAL[op](phi)
        return phi


def afag_trim(phi: Formula) -> TrimmedForm:
    """Trim an AF/AG chain to one of its four normal forms.

    The rewrites are duplicate collapse (AF AF -> AF, AG AG -> AG) and
    alternation-triple collapse (AG AF AG -> AF AG, AF AG AF -> AG AF),
    each removing one operator. Duplicate collapse leaves the sequence of
    runs of equal operators as it is. A triple collapse removes the
    outermost operator of an alternating triple, so it deletes one run
    and merges the two around it, never one of the innermost two runs.
    A chain with neither a duplicate nor a triple has at most two runs,
    so the rewrites end at the last two runs of the input.
    """
    chain = _afag_runs(phi)
    if chain is None:
        raise NotAFAGChain("formula is not an AF/AG chain over a single atom")
    runs, atom = chain
    if not runs:
        raise NotAFAGChain("chain carries no temporal operator")
    return TrimmedForm(shape="".join(runs[-2:]), atom=atom)


# --- literal substitution ---------------------------------------------------

def substitute_atoms(phi: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace literals in a propositional NNF skeleton.

    Positive occurrences of atom ``x`` use key ``"x"``; negated
    occurrences ``!x`` use key ``"!x"``. Connectives and constants are
    left untouched.
    """
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, Atom):
        if phi.name not in mapping:
            raise UnmappedAtom(phi.name)
        return mapping[phi.name]
    if isinstance(phi, Not):
        if not isinstance(phi.child, Atom):
            raise NotNNF("negation above a non-atom")
        key = "!" + phi.child.name
        if key not in mapping:
            raise UnmappedAtom(key)
        return mapping[key]
    if isinstance(phi, And):
        return And(substitute_atoms(phi.left, mapping), substitute_atoms(phi.right, mapping))
    if isinstance(phi, Or):
        return Or(substitute_atoms(phi.left, mapping), substitute_atoms(phi.right, mapping))
    raise NotNNF(f"temporal operator in propositional skeleton: {render_formula(phi)}")
