import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlenum import formula as F
from ctlenum.errors import (
    FormulaSyntaxError,
    NotAFAGChain,
    NotNNF,
    RewriteNotApplicable,
    UnmappedAtom,
)
from ctlenum.formula import (
    afag_trim,
    classify_fragment,
    dualize_step,
    parse_formula,
    render_formula,
    substitute_atoms,
)
from oracles import rewrite_afag_ops


def atoms(*names):
    return [F.Atom(n) for n in names]


class TestParse:
    def test_microwave_constraint(self):
        got = parse_formula("AG (Error -> A[!Heat U !Start])")
        expected = F.AG(
            F.Or(
                F.Not(F.Atom("Error")),
                F.AU(F.Not(F.Atom("Heat")), F.Not(F.Atom("Start"))),
            )
        )
        assert got == expected

    def test_constants(self):
        assert parse_formula("true") == F.Top()
        assert parse_formula("false") == F.Bottom()

    def test_binary_temporal(self):
        got = parse_formula("A[p U q] & E[p R q]")
        p, q = atoms("p", "q")
        assert got == F.And(F.AU(p, q), F.ER(p, q))

    def test_precedence(self):
        p, q, r = atoms("p", "q", "r")
        assert parse_formula("p | q & r") == F.Or(p, F.And(q, r))
        assert parse_formula("!p & q") == F.And(F.Not(p), q)
        assert parse_formula("AG p | q") == F.Or(F.AG(p), q)

    def test_implication_right_assoc(self):
        p, q, r = atoms("p", "q", "r")
        assert parse_formula("p -> q -> r") == F.Or(F.Not(p), F.Or(F.Not(q), r))

    def test_atom_names_with_caret(self):
        assert parse_formula("x1^0") == F.Atom("x1^0")

    @pytest.mark.parametrize(
        "text",
        ["", "AG", "(p", "A[p U", "A[p q]", "p q", "p &", "A[p X q]", "@p"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p &\n& q")
        assert err.value.line == 2
        assert err.value.column == 1
        assert "expected" in str(err.value)


class TestRender:
    def test_unary_spacing(self):
        assert render_formula(F.AF(F.Atom("x"))) == "AF x"

    def test_until_with_constant(self):
        assert render_formula(F.AU(F.Top(), F.Atom("x_t"))) == "A[true U x_t]"

    def test_negated_constant(self):
        assert render_formula(F.Not(F.Top())) == "!true"


def formula_trees(max_leaves=8):
    base = st.one_of(
        st.sampled_from([F.Top(), F.Bottom()]),
        st.sampled_from(["p", "q", "x1^0", "Error", "a_b"]).map(F.Atom),
    )
    unary = st.sampled_from([F.Not, F.EX, F.AX, F.EF, F.AF, F.EG, F.AG])
    binary = st.sampled_from([F.And, F.Or, F.EU, F.AU, F.ER, F.AR])
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(unary, children).map(lambda t: t[0](t[1])),
            st.tuples(binary, children, children).map(lambda t: t[0](t[1], t[2])),
        ),
        max_leaves=max_leaves,
    )


class TestRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(formula_trees())
    def test_parse_render_round_trip(self, phi):
        assert parse_formula(render_formula(phi)) == phi


class TestClassify:
    def test_monotone_tag(self):
        phi = parse_formula("E[p U q] | EX r")
        profile = classify_fragment(phi)
        assert profile.operators == {"EU", "EX"}
        assert profile.connectives == {"|"}
        assert profile.monotone_existential
        assert not profile.afag_chain

    def test_chain_tag(self):
        profile = classify_fragment(parse_formula("AF AG AF x"))
        assert profile.operators == {"AF", "AG"}
        assert profile.connectives == set()
        assert profile.afag_chain
        assert not profile.monotone_existential

    def test_negation_disqualifies(self):
        profile = classify_fragment(parse_formula("AG !Heat"))
        assert profile.tags == {"general"}

    def test_general_always_present(self):
        assert "general" in classify_fragment(F.Top()).tags

    @settings(max_examples=300, deadline=None)
    @given(formula_trees())
    def test_tag_invariants(self, phi):
        profile = classify_fragment(phi)
        existential = {"EX", "EF", "EG", "EU", "ER"}
        assert profile.monotone_existential == (
            profile.operators <= existential and profile.connectives <= {"&", "|"}
        )
        node = phi
        while isinstance(node, (F.AF, F.AG)):
            node = node.child
        assert profile.afag_chain == isinstance(node, F.Atom)


class TestDualize:
    def test_ef_to_until(self):
        assert dualize_step(F.EF(F.Atom("x"))) == F.EU(F.Top(), F.Atom("x"))

    def test_ex_negation_dual(self):
        x = F.Atom("x")
        assert dualize_step(F.EX(x)) == F.Not(F.AX(F.Not(x)))

    def test_er_to_until(self):
        p, q = atoms("p", "q")
        assert dualize_step(F.ER(p, q)) == F.Not(F.AU(F.Not(p), F.Not(q)))

    def test_not_applicable(self):
        with pytest.raises(RewriteNotApplicable):
            dualize_step(F.And(F.Atom("p"), F.Atom("q")))
        with pytest.raises(RewriteNotApplicable):
            dualize_step(F.AX(F.Atom("p")))


class TestTrim:
    def test_duplicate_collapse(self):
        trimmed = afag_trim(parse_formula("AF AF x"))
        assert (trimmed.shape, trimmed.atom) == ("AF", "x")

    def test_worked_example(self):
        trimmed = afag_trim(parse_formula("AF AG AG AF x"))
        assert (trimmed.shape, trimmed.atom) == ("AGAF", "x")
        assert render_formula(trimmed.to_formula()) == "AG AF x"

    def test_already_trimmed(self):
        trimmed = afag_trim(parse_formula("AG x"))
        assert (trimmed.shape, trimmed.atom) == ("AG", "x")

    def test_rejects_non_chain(self):
        with pytest.raises(NotAFAGChain):
            afag_trim(parse_formula("EF x"))
        with pytest.raises(NotAFAGChain):
            afag_trim(parse_formula("x"))

    @pytest.mark.parametrize("length", range(1, 13))
    def test_normal_form_and_step_count(self, length):
        import itertools

        for ops in itertools.product(["AF", "AG"], repeat=length):
            phi = F.Atom("x")
            for op in reversed(ops):
                phi = F.UNARY_TEMPORAL[op](phi)
            trimmed = afag_trim(phi)
            assert trimmed.shape in ("AF", "AG", "AFAG", "AGAF")
            # the reference rewrites one operator away per step, so equal
            # shapes pin the number of steps to length - len(shape)/2
            assert trimmed.shape == "".join(rewrite_afag_ops(list(ops)))


class TestSubstitute:
    def test_level_guards(self):
        phi = parse_formula("x1 & !x2")
        mapping = {
            "x1": parse_formula("AG (x1 -> x1^1)"),
            "!x2": parse_formula("AG (x2 -> x2^0)"),
        }
        assert substitute_atoms(phi, mapping) == F.And(
            parse_formula("AG (!x1 | x1^1)"), parse_formula("AG (!x2 | x2^0)")
        )

    def test_identity(self):
        x = F.Atom("x")
        assert substitute_atoms(x, {"x": x}) == x

    def test_disjunction_skeleton(self):
        phi = parse_formula("!x1 | x2")
        mapping = {
            "!x1": parse_formula("AG (x1 -> x1^0)"),
            "x2": parse_formula("AG (x2 -> x2^1)"),
        }
        assert substitute_atoms(phi, mapping) == F.Or(
            parse_formula("AG (!x1 | x1^0)"), parse_formula("AG (!x2 | x2^1)")
        )

    def test_unmapped_atom(self):
        with pytest.raises(UnmappedAtom):
            substitute_atoms(F.Atom("x"), {})
        with pytest.raises(UnmappedAtom):
            substitute_atoms(F.Not(F.Atom("x")), {"x": F.Top()})

    def test_rejects_non_nnf(self):
        with pytest.raises(NotNNF):
            substitute_atoms(F.Not(F.And(F.Atom("x"), F.Atom("y"))), {})
        with pytest.raises(NotNNF):
            substitute_atoms(F.AG(F.Atom("x")), {"x": F.Top()})
