import copy
import dataclasses
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlenum import families
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
from ctlenum.modelcheck import check, compile_formula
from ctlenum.reductions import HampathInstance, hampath_to_af
from oracles import (
    existential_weakening,
    naive_check,
    reference_classify,
    reference_subformulas,
    reference_weakening,
    rewrite_afag_ops,
)


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

    def test_deep_chains_without_recursion(self):
        depth = 10000
        expected: F.Formula = F.Atom("p")
        for _ in range(depth):
            expected = F.Not(expected)
        assert parse_formula("!" * depth + "p") == expected
        # prefixes apply innermost last-read first: EX !AF p
        expected = F.Atom("p")
        for i in range(depth):
            expected = (F.AF, F.Not, F.EX)[i % 3](expected)
        text = "".join(("AF ", "!", "EX ")[i % 3] for i in reversed(range(depth)))
        assert parse_formula(text + "p") == expected
        names = [f"p{i}" for i in range(depth)]
        expected = F.Atom(names[-1])
        for name in reversed(names[:-1]):
            expected = F.Or(F.Not(F.Atom(name)), expected)
        assert parse_formula(" -> ".join(names)) == expected

    def test_deep_nesting_without_recursion(self):
        assert parse_formula("(" * 3000 + "p" + ")" * 3000) == F.Atom("p")
        p, q = atoms("p", "q")
        expected = p
        for _ in range(2000):
            expected = F.AU(expected, q)
        assert parse_formula("A[" * 2000 + "p" + " U q]" * 2000) == expected
        expected = q
        for _ in range(2000):
            expected = F.ER(p, F.Not(expected))
        assert parse_formula("E[p R !" * 2000 + "q" + "]" * 2000) == expected
        # a right-deep & chain renders in nested parentheses and parses back
        names = [f"x{i}" for i in range(6000)]
        chain = F.Atom(names[-1])
        for name in reversed(names[:-1]):
            chain = F.And(F.Atom(name), chain)
        text = render_formula(chain)
        assert text.count("(") == 5998
        assert parse_formula(text) == chain

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("(" * 3000 + "p" + ")" * 2999, "expected ')', found end of input", 6001),
            ("A[" * 2000 + "p" + " U q]" * 1999 + " q]", "expected 'U' or 'R', found 'q'", 13998),
            ("(" * 500 + "A[p U (q &)]" + ")" * 500, "expected a formula, found ')'", 511),
        ],
        ids=["unclosed-paren", "missing-until", "missing-operand"],
    )
    def test_deep_syntax_errors_keep_their_position(self, text, message, column):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert message in str(err.value)
        assert (err.value.line, err.value.column) == (1, column)

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


class TestInterning:
    def test_equal_formulas_are_one_object(self, square_digraph):
        text = "AG (p -> A[!q U EX (p & q)])"
        assert parse_formula(text) is parse_formula(text)
        twin = HampathInstance(*dataclasses.astuple(square_digraph))
        assert hampath_to_af(twin).formula is hampath_to_af(square_digraph).formula
        assert F.Atom(name="p") is F.Atom("p")
        assert F.AU(right=F.Atom("q"), left=F.Top()) is parse_formula("A[true U q]")

    def test_copies_return_the_live_node(self):
        phi = parse_formula("E[p U !AX (q | false)]")
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert copy.copy(phi) is phi
        assert copy.deepcopy(phi) is phi
        assert dataclasses.replace(phi) is phi
        assert dataclasses.replace(phi, left=F.Atom("q")) is parse_formula("E[q U !AX (q | false)]")

    def test_bad_fields_still_raise(self):
        with pytest.raises(TypeError):
            F.Atom()
        with pytest.raises(TypeError):
            F.Atom("p", name="q")
        with pytest.raises(TypeError):
            F.Atom(label="p")

    def test_compile_hits_for_an_equal_formula(self):
        program = compile_formula(parse_formula("EF (p & AX q)"))
        hits = compile_formula.cache_info().hits
        again = F.EF(F.And(F.Atom("p"), F.AX(F.Atom("q"))))
        assert compile_formula(again) is program and program.formula is again
        assert compile_formula.cache_info().hits == hits + 1

    def test_unheld_formula_is_collected(self):
        live = len(F._LIVE)
        phi = parse_formula("AG (interned_gone -> EF interned_gone_too)")
        assert len(F._LIVE) == live + 6  # AG, |, !, EF and two atoms
        ref = weakref.ref(phi)
        del phi
        assert ref() is None
        assert len(F._LIVE) == live


class TestRender:
    def test_unary_spacing(self):
        assert render_formula(F.AF(F.Atom("x"))) == "AF x"

    def test_until_with_constant(self):
        assert render_formula(F.AU(F.Top(), F.Atom("x_t"))) == "A[true U x_t]"

    def test_negated_constant(self):
        assert render_formula(F.Not(F.Top())) == "!true"


def formula_trees(max_leaves=8, atoms=("p", "q", "x1^0", "Error", "a_b")):
    base = st.one_of(
        st.sampled_from([F.Top(), F.Bottom()]),
        st.sampled_from(atoms).map(F.Atom),
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


    def test_matches_recursive_reference(self):
        formulas = families.formulas_by_size(("p", "q"), 4000)
        shared = F.EX(F.Atom("p"))
        formulas += [F.And(shared, shared), F.AU(shared, F.Not(shared))]
        for phi in formulas:
            assert classify_fragment(phi) == reference_classify(phi), phi


class TestWalkers:
    def test_matches_recursive_references(self):
        for phi in families.formulas_by_size(("p", "q"), 4000):
            assert list(F.subformulas(phi)) == reference_subformulas(phi)
            weakened = existential_weakening(phi)
            assert weakened == reference_weakening(phi), phi
            if weakened == phi:
                assert weakened is phi

    def test_deep_formulas_without_recursion(self):
        # built in code, apart from the parser
        depth = 5000
        universal: F.Formula = F.Atom("p")
        for _ in range(depth):
            universal = F.AX(universal)
        assert sum(1 for _ in F.subformulas(universal)) == depth + 1
        assert classify_fragment(universal).operators == {"AX"}
        node = existential_weakening(universal)
        for _ in range(depth):
            assert type(node) is F.EX
            node = node.child
        assert node == F.Atom("p")
        negated = F.Not(F.Not(universal))
        assert existential_weakening(negated) is None


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


def negation_on_atoms_only(phi):
    return all(
        not isinstance(node, F.Not) or isinstance(node.child, F.Atom)
        for node in F.subformulas(phi)
    )


class TestNegationNormalForm:
    def test_duality_table(self):
        cases = {
            "!EF !p": "AG p",
            "!AG !p": "EF p",
            "!AF !p": "EG p",
            "!EG (p & !q)": "AF (!p | q)",
            "!EX !p": "AX p",
            "!AX p": "EX !p",
            "!E[p U !q]": "A[!p R q]",
            "!A[p U q]": "E[!p R !q]",
            "!E[p R q]": "A[!p U !q]",
            "!A[!p R q]": "E[p U !q]",
            "!!p": "p",
            "!true | !false": "false | true",
            "!(p -> AF q)": "p & EG !q",
        }
        for text, want in cases.items():
            assert F.negation_normal_form(parse_formula(text)) == parse_formula(want), text

    def test_agrees_with_both_checkers(self):
        # every formula against the labeler on its negation normal form
        # and the path-unfolding checker on the formula as written
        formulas = families.formulas_by_size(("p", "q"), 300, constants=True)
        normal = [F.negation_normal_form(phi) for phi in formulas]
        for model in list(families.all_models(3, ("p", "q")))[::49]:
            for phi, psi in zip(formulas, normal):
                assert check(model, phi) == check(model, psi) == naive_check(model, phi), (
                    render_formula(phi), model
                )

    def test_shape_and_size(self):
        rewritten = 0
        for phi in families.formulas_by_size(("p", "q"), 300, constants=True):
            psi = F.negation_normal_form(phi)
            assert negation_on_atoms_only(psi)
            if negation_on_atoms_only(phi):
                assert psi == phi
            else:
                rewritten += 1
            assert len(compile_formula(psi).nodes) <= 2 * len(compile_formula(phi).nodes)
        assert rewritten == 42

    def test_shared_subformulas_stay_shared(self):
        # one node per (subformula, polarity): 40 levels, each using its
        # child twice, rewrite without unfolding into 2**40 paths
        phi: F.Formula = F.Atom("p")
        for _ in range(40):
            phi = F.Not(F.And(F.EX(phi), F.AX(phi)))
        psi = F.negation_normal_form(phi)
        assert len(compile_formula(phi).nodes) == 4 * 40 + 1
        assert len(compile_formula(psi).nodes) <= 2 * (4 * 40 + 1)

    def test_deep_chain_without_recursion(self):
        depth = 20000

        def chain() -> F.Formula:
            phi: F.Formula = F.Atom("deep_p")
            for _ in range(depth):
                phi = F.Not(F.AF(F.Not(F.EX(phi))))
            return phi

        live = len(F._LIVE)
        phi = chain()
        node = F.negation_normal_form(phi)
        for _ in range(depth):
            assert type(node) is F.EG and type(node.child) is F.EX
            node = node.child.child
        assert node == F.Atom("deep_p")
        # built twice, one object; dropped, the table shrinks back
        again = chain()
        assert again is phi and again == phi and hash(again) == hash(phi)
        ref = weakref.ref(phi)
        del phi, again, node
        assert ref() is None
        assert len(F._LIVE) == live


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
