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
import weakref
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from .errors import (
    FormulaSyntaxError,
    NotAFAGChain,
    NotNNF,
    RewriteNotApplicable,
    UnmappedAtom,
)


# every live formula node, keyed by its kind and fields (children by
# identity); weak, so it holds only nodes that someone else holds
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    """Building a node returns the live node of the same kind and fields,
    if there is one, without running __init__ again."""

    def __call__(cls, *args, **kwargs):
        if kwargs:  # dataclasses.replace passes every field by name
            args += tuple(kwargs.pop(f.name) for f in fields(cls)[len(args):] if f.name in kwargs)
            if kwargs:  # unknown or repeated: __init__ raises
                return super().__call__(*args, **kwargs)
        key = (cls, *args)
        node = _LIVE.get(key)
        if node is None:
            node = _LIVE[key] = super().__call__(*args)
        return node


@dataclass(frozen=True, eq=False)
class Formula(metaclass=_Interned):
    """Base class; concrete nodes are the sixteen kinds below.

    Nodes are immutable and interned: equal formulas are one object, so
    equality and hashing are identity's and cost the same at any depth.
    """

    def __reduce__(self):
        # rebuild through the class call, which returns the live node;
        # the default would make a second node equal to no other
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Unary(Formula):
    """A path-quantified unary temporal operator applied to one child."""

    child: Formula


@dataclass(frozen=True, eq=False)
class EX(Unary):
    pass


@dataclass(frozen=True, eq=False)
class AX(Unary):
    pass


@dataclass(frozen=True, eq=False)
class EF(Unary):
    pass


@dataclass(frozen=True, eq=False)
class AF(Unary):
    pass


@dataclass(frozen=True, eq=False)
class EG(Unary):
    pass


@dataclass(frozen=True, eq=False)
class AG(Unary):
    pass


@dataclass(frozen=True, eq=False)
class Binary(Formula):
    """A path-quantified binary temporal operator (until / release)."""

    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class EU(Binary):
    pass


@dataclass(frozen=True, eq=False)
class AU(Binary):
    pass


@dataclass(frozen=True, eq=False)
class ER(Binary):
    pass


@dataclass(frozen=True, eq=False)
class AR(Binary):
    pass


UNARY_TEMPORAL = {"EX": EX, "AX": AX, "EF": EF, "AF": AF, "EG": EG, "AG": AG}
BINARY_TEMPORAL = {"EU": EU, "AU": AU, "ER": ER, "AR": AR}


TEMPORAL_OPS = set(UNARY_TEMPORAL) | set(BINARY_TEMPORAL)
EXISTENTIAL_OPS = {"EX", "EF", "EG", "EU", "ER"}

KEYWORDS = {"true", "false", "A", "E", "U", "R"} | set(UNARY_TEMPORAL)

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_^]*")


def is_atom_name(text: str) -> bool:
    """Does text read back as one atom of the grammar?"""
    return _ATOM_RE.fullmatch(text) is not None and text not in KEYWORDS


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


_PREFIX = {"!": Not, **UNARY_TEMPORAL}


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
        """Read the grammar of the module docstring in one loop. Each '('
        or 'A['/'E[' saves the enclosing formula's state on an explicit
        stack, so nesting depth costs no recursion.

        The state of the formula being read: closer (what ends it: "end",
        ')', the quantifier before its 'U'/'R', or the operator name
        before its ']'), left (a binary temporal's left operand), the
        '->' operands so far, the open | and & runs, and the prefix of
        the unary being read.
        """
        stack = []
        closer, left, implies, disj, conj, prefix = "end", None, [], None, None, []
        while True:
            while self.peek().kind in _PREFIX:
                prefix.append(_PREFIX[self.advance().kind])
            tok = self.peek()
            if tok.kind in ("(", "A", "E"):
                self.advance()
                if tok.kind != "(":
                    self.expect("[", "'['")
                stack.append((closer, left, implies, disj, conj, prefix))
                closer, left, implies, disj, conj, prefix = (
                    ")" if tok.kind == "(" else tok.kind, None, [], None, None, []
                )
                continue
            if tok.kind == "true":
                node = Top()
            elif tok.kind == "false":
                node = Bottom()
            elif tok.kind == "atom":
                node = Atom(tok.text)
            else:
                self.fail("a formula")
            self.advance()
            # node ends a unary; close every formula that ends with it
            while True:
                while prefix:
                    node = prefix.pop()(node)
                conj = node if conj is None else And(conj, node)
                kind = self.peek().kind
                if kind == "&":
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if kind == "|":
                    break
                implies.append(disj)
                disj = None
                if kind == "->":
                    break
                node = implies.pop()
                while implies:
                    node = Or(Not(implies.pop()), node)
                if closer == "end":
                    return node
                if closer in ("A", "E"):
                    if kind not in ("U", "R"):
                        self.fail("'U' or 'R'")
                    closer, left = closer + kind, node
                    break
                if closer == ")":
                    self.expect(")", "')'")
                else:
                    self.expect("]", "']'")
                    node = BINARY_TEMPORAL[closer](left, node)
                closer, left, implies, disj, conj, prefix = stack.pop()
            # step over the '&', '|', '->', 'U' or 'R' that goes on
            self.advance()


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
    """Deterministic text form; parse_formula reads it back as phi itself.
    Emits pieces from an explicit stack, so depth costs no recursion."""
    out: list[str] = []
    stack: list[Formula | str] = [phi]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_render_pieces(item)))
    return "".join(out)


def _render_pieces(phi: Formula) -> list[Formula | str]:
    """phi's text as literal pieces and the child nodes between them."""
    if isinstance(phi, Top):
        return ["true"]
    if isinstance(phi, Bottom):
        return ["false"]
    if isinstance(phi, Atom):
        return [phi.name]
    if isinstance(phi, Not):
        if _precedence(phi.child) < 3:
            return ["!(", phi.child, ")"]
        return ["!", phi.child]
    if isinstance(phi, Unary):
        op = operator_name(phi)
        if _precedence(phi.child) < 3:
            return [f"{op} (", phi.child, ")"]
        return [f"{op} ", phi.child]
    if isinstance(phi, And):
        left = ["(", phi.left, ")"] if _precedence(phi.left) < 2 else [phi.left]
        right = ["(", phi.right, ")"] if _precedence(phi.right) <= 2 else [phi.right]
        return left + [" & "] + right
    if isinstance(phi, Or):
        right = ["(", phi.right, ")"] if _precedence(phi.right) <= 1 else [phi.right]
        return [phi.left, " | "] + right
    if isinstance(phi, Binary):
        op = operator_name(phi)
        return [f"{op[0]}[", phi.left, f" {op[1]} ", phi.right, "]"]
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
    # each distinct subformula once: the profile is a set of kinds
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
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


def dualize_step(phi: Formula) -> Formula:
    """Rewrite the root operator via its first listed equivalence."""
    equivalents = duality_equivalents(phi)
    if not equivalents:
        raise RewriteNotApplicable(
            f"no equivalence applies at root of {render_formula(phi)!r}"
        )
    return equivalents[0]


# --- negation normal form ---------------------------------------------------

# each kind and its dual under negation: !K(a, b) = dual(K)(!a, !b); the
# temporal pairs need every world to have a successor, as in any valid
# submodel
_NEGATION_DUAL: dict[type, type] = {}
for _a, _b in ((Top, Bottom), (And, Or), (EX, AX), (EF, AG), (AF, EG), (EU, AR), (AU, ER)):
    _NEGATION_DUAL[_a], _NEGATION_DUAL[_b] = _b, _a


def negation_normal_form(phi: Formula) -> Formula:
    """phi with every negation pushed onto an atom by the duality table;
    equivalent to phi on total structures. Walks an explicit stack of
    (subformula, polarity) keys and builds at most one node per key, so
    depth costs no recursion and shared subformulas stay shared."""
    done: dict[tuple[Formula, bool], Formula] = {}
    stack = [(phi, True)]
    while stack:
        key = stack[-1]
        if key in done:  # stacked by two parents
            stack.pop()
            continue
        node, positive = key
        if isinstance(node, Not):
            parts = [(node.child, not positive)]
        else:
            parts = [(child, positive) for child in _children(node)]
        missing = [part for part in parts if part not in done]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if isinstance(node, Not):
            done[key] = done[parts[0]]
        elif isinstance(node, Atom):
            done[key] = node if positive else Not(node)
        else:
            kind = type(node) if positive else _NEGATION_DUAL[type(node)]
            done[key] = kind(*(done[part] for part in parts))
    return done[(phi, True)]


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
    left untouched. Rebuilt bottom-up with an explicit stack; nodes are
    checked in pre-order, left subtree first.
    """
    done: dict[Formula, Formula] = {}  # a node -> its substitute
    stack: list[tuple[Formula, bool]] = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            left, right = done[node.left], done[node.right]
            done[node] = type(node)(left, right)
            continue
        if isinstance(node, (Top, Bottom)):
            done[node] = node
        elif isinstance(node, Atom):
            if node.name not in mapping:
                raise UnmappedAtom(node.name)
            done[node] = mapping[node.name]
        elif isinstance(node, Not):
            if not isinstance(node.child, Atom):
                raise NotNNF("negation above a non-atom")
            key = "!" + node.child.name
            if key not in mapping:
                raise UnmappedAtom(key)
            done[node] = mapping[key]
        elif isinstance(node, (And, Or)):
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            raise NotNNF(f"temporal operator in propositional skeleton: {render_formula(node)}")
    return done[phi]
