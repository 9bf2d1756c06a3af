import itertools
import random

import pytest

from ctlenum import formula as F
from ctlenum.enumeration import brute_force_enumerate, exists_submodel
from ctlenum.errors import (
    CapExceeded,
    ModelFormatError,
    NotNNF,
    PartialAssignment,
)
from ctlenum.formula import parse_formula, render_formula
from ctlenum.kripke import Submodel, validate_model
from ctlenum.modelcheck import check
from ctlenum.reductions import (
    HampathInstance,
    assignment_to_submodel,
    brute_hampath,
    brute_sat,
    digraph_from_dict,
    digraph_to_dict,
    eval_prop,
    is_nnf_propositional,
    hampath_to_af,
    hampath_to_ar,
    hampath_to_au,
    hampath_to_ax,
    parse_digraph,
    sat_to_ag,
)


def all_digraphs(vertices):
    pairs = [(u, v) for u in vertices for v in vertices]
    for bits in range(1 << len(pairs)):
        yield tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)


def nnf_battery():
    literals = ["x1", "!x1", "x2", "!x2", "x3", "!x3"]
    texts = list(literals)
    texts += [f"{a} & {b}" for a, b in itertools.product(literals, repeat=2)]
    texts += [f"{a} | {b}" for a, b in itertools.product(literals[:4], repeat=2)]
    texts += [
        f"({a} & {b}) | {c}"
        for a, b, c in itertools.product(literals[:4], repeat=3)
    ]
    texts += ["(x1 & !x2) | (!x1 & x2)", "(x1 | x2) & (!x1 | x3) & (!x2 | !x3)"]
    return [parse_formula(t) for t in texts]


def marker_named_cnfs():
    """x & x^1 and random CNFs over variables named like another
    variable's marker (x^0, x^1) or complement label (notx)."""
    names = ["x", "notx", "x^0", "x^1", "notx^1"]
    rng = random.Random(29)
    texts = ["x & x^1"]
    for _ in range(150):
        clauses = [
            " | ".join(
                ("!" if rng.random() < 0.5 else "") + name
                for name in rng.sample(names, rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 4))
        ]
        texts.append(" & ".join(f"({clause})" for clause in clauses))
    return [parse_formula(t) for t in texts]


def random_prop(rng, depth):
    """A random propositional formula over x1..x3, negation anywhere."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([F.Top(), F.Bottom(), F.Atom("x1"), F.Atom("x2"), F.Atom("x3")])
    kind = rng.choice([F.Not, F.And, F.Or])
    if kind is F.Not:
        return F.Not(random_prop(rng, depth - 1))
    return kind(random_prop(rng, depth - 1), random_prop(rng, depth - 1))


def reference_eval(phi, assignment):
    """Recursive evaluation, left to right with short circuits."""
    if isinstance(phi, (F.Top, F.Bottom)):
        return isinstance(phi, F.Top)
    if isinstance(phi, F.Atom):
        if phi.name not in assignment:
            raise PartialAssignment(phi.name)
        return assignment[phi.name]
    if isinstance(phi, F.Not):
        return not reference_eval(phi.child, assignment)
    if isinstance(phi, F.And):
        return reference_eval(phi.left, assignment) and reference_eval(phi.right, assignment)
    return reference_eval(phi.left, assignment) or reference_eval(phi.right, assignment)


class TestPropositionalWalks:
    def test_eval_matches_recursive_reference(self):
        # partial assignments: an unassigned variable raises only where
        # the recursive evaluation reads it
        rng = random.Random(2291)
        for _ in range(400):
            phi = random_prop(rng, 5)
            assignment = {
                name: rng.random() < 0.5 for name in ("x1", "x2", "x3") if rng.random() < 0.8
            }
            try:
                want = reference_eval(phi, assignment)
            except PartialAssignment as exc:
                with pytest.raises(PartialAssignment, match=str(exc)):
                    eval_prop(phi, assignment)
            else:
                assert eval_prop(phi, assignment) == want, render_formula(phi)

    def test_deep_chains(self):
        literals = [F.Atom(f"x{i % 7}") if i % 3 else F.Not(F.Atom(f"x{i % 7}")) for i in range(6000)]
        assignment = {f"x{i}": i % 2 == 0 for i in range(7)}
        for kind in (F.And, F.Or):
            left = right = literals[0]
            for literal in literals[1:]:
                left = kind(left, literal)
                right = kind(literal, right)
            for phi in (left, right):
                assert is_nnf_propositional(phi)
                assert eval_prop(phi, assignment) == (kind is F.Or)
            # the right-deep chain renders in nested parentheses and both
            # parse back
            assert parse_formula(render_formula(left)) == left
            assert render_formula(right).count("(") == len(literals) - 2
            assert parse_formula(render_formula(right)) == right
        assert not is_nnf_propositional(F.And(left, F.Not(F.Not(F.Atom("x1")))))


class TestBruteSat:
    def test_xor(self, xor_formula):
        assignment = brute_sat(xor_formula)
        assert assignment in (
            {"x1": True, "x2": False},
            {"x1": False, "x2": True},
        )
        assert eval_prop(xor_formula, assignment)

    def test_contradiction(self):
        assert brute_sat(parse_formula("x1 & !x1")) is None

    def test_constant(self):
        assert brute_sat(F.Top()) == {}

    def test_cap(self):
        wide = parse_formula(" & ".join(f"v{i}" for i in range(25)))
        with pytest.raises(CapExceeded):
            brute_sat(wide)

    def test_rejects_non_nnf(self):
        with pytest.raises(NotNNF):
            brute_sat(parse_formula("!(x1 & x2)"))


class TestBruteHampath:
    def test_square(self, square_digraph):
        assert brute_hampath(square_digraph) == ["s", "a", "b", "t"]

    def test_no_path(self):
        instance = HampathInstance(("s", "t"), (("t", "s"),), "s", "t")
        assert brute_hampath(instance) is None

    def test_source_equals_target_rejected(self):
        with pytest.raises(ModelFormatError):
            HampathInstance(("s",), (), "s", "s")

    def test_cap(self):
        vertices = tuple(f"v{i}" for i in range(12))
        edges = tuple((f"v{i}", f"v{i+1}") for i in range(11))
        with pytest.raises(CapExceeded):
            brute_hampath(HampathInstance(vertices, edges, "v0", "v11"))


class TestSatToAg:
    def test_xor_matches_two_level_chain(self, xor_formula):
        instance = sat_to_ag(xor_formula)
        model = instance.model
        assert [(w.id, sorted(w.labels)) for w in model.worlds] == [
            ("w0", []),
            ("w1^0", ["x1", "x1^0"]),
            ("w1^1", ["x1", "x1^1"]),
            ("w2^0", ["x2", "x2^0"]),
            ("w2^1", ["x2", "x2^1"]),
        ]
        assert set(model.edges) == {
            ("w0", "w1^0"),
            ("w0", "w1^1"),
            ("w1^0", "w2^0"),
            ("w1^0", "w2^1"),
            ("w1^1", "w2^0"),
            ("w1^1", "w2^1"),
            ("w2^0", "w2^0"),
            ("w2^1", "w2^1"),
        }
        assert model.root == "w0"
        assert instance.provenance["construction"] == "sat-ag"

    def test_single_variable(self):
        instance = sat_to_ag(parse_formula("x1"))
        assert len(instance.model.worlds) == 3
        assert len(instance.model.edges) == 4
        assert render_formula(instance.formula) == "AG (!x1 | x1^1)"
        assert exists_submodel(instance.model, instance.formula)

    def test_contradiction_has_no_satisfying_submodel(self):
        instance = sat_to_ag(parse_formula("x1 & !x1"))
        assert brute_sat(parse_formula("x1 & !x1")) is None
        assert not exists_submodel(instance.model, instance.formula)

    def test_relabel_encoding_is_negation_free(self, xor_formula):
        instance = sat_to_ag(xor_formula, encoding="relabel")
        profile = F.classify_fragment(instance.formula)
        assert profile.operators == {"AG"}
        assert "!" not in profile.connectives
        w0 = instance.model.worlds[0]
        assert w0.labels == frozenset({"notx1", "notx2"})

    def test_rejects_non_nnf(self):
        with pytest.raises(NotNNF):
            sat_to_ag(parse_formula("!(x1 | x2)"))

    @pytest.mark.parametrize("encoding", ["negation", "relabel"])
    def test_existence_equivalence(self, encoding):
        for phi in nnf_battery()[::3] + marker_named_cnfs():
            instance = sat_to_ag(phi, encoding=encoding)
            assert validate_model(instance.model) == []
            assert exists_submodel(instance.model, instance.formula) == (
                brute_sat(phi) is not None
            ), render_formula(phi)


class TestAssignmentSubmodel:
    def test_bold_submodel(self, xor_formula):
        sub = assignment_to_submodel(xor_formula, {"x1": True, "x2": False})
        assert sub == Submodel(
            frozenset({"w0", "w1^1", "w2^0"}),
            frozenset({("w0", "w1^1"), ("w1^1", "w2^0"), ("w2^0", "w2^0")}),
        )
        instance = sat_to_ag(xor_formula)
        assert check(instance.model, instance.formula, sub)

    def test_mirror_assignment(self, xor_formula):
        sub = assignment_to_submodel(xor_formula, {"x1": False, "x2": True})
        assert sub.worlds == frozenset({"w0", "w1^0", "w2^1"})
        instance = sat_to_ag(xor_formula)
        assert check(instance.model, instance.formula, sub)

    def test_soundness_over_all_assignments(self):
        for phi in nnf_battery()[::7]:
            instance = sat_to_ag(phi)
            variables = sorted({a.name for a in F.subformulas(phi) if isinstance(a, F.Atom)})
            for values in itertools.product((False, True), repeat=len(variables)):
                assignment = dict(zip(variables, values))
                sub = assignment_to_submodel(phi, assignment)
                from ctlenum.kripke import is_valid_submodel

                assert is_valid_submodel(instance.model, sub, connected=True)
                assert check(instance.model, instance.formula, sub) == eval_prop(
                    phi, assignment
                )

    def test_partial_assignment_rejected(self, xor_formula):
        with pytest.raises(PartialAssignment):
            assignment_to_submodel(xor_formula, {"x1": True})


class TestVisitAllConstruction:
    def test_square_frame(self, square_digraph):
        instance = hampath_to_af(square_digraph)
        model = instance.model
        assert [w.id for w in model.worlds] == ["w_s", "w_a", "w_b", "w_t", "w_hat"]
        assert set(model.edges) == {
            ("w_s", "w_a"),
            ("w_s", "w_b"),
            ("w_s", "w_t"),
            ("w_a", "w_b"),
            ("w_b", "w_a"),
            ("w_b", "w_t"),
            ("w_t", "w_hat"),
            ("w_hat", "w_hat"),
        }
        assert model.root == "w_s"
        assert (
            render_formula(instance.formula)
            == "AF x_s & AF x_a & AF x_b & AF x_t"
        )

    def test_k2_yes_instance(self):
        instance = hampath_to_af(HampathInstance(("s", "t"), (("s", "t"),), "s", "t"))
        assert exists_submodel(instance.model, instance.formula)

    def test_unreachable_target(self):
        digraph = HampathInstance(
            ("s", "a", "t"), (("s", "a"), ("a", "s")), "s", "t"
        )
        assert brute_hampath(digraph) is None
        instance = hampath_to_af(digraph)
        assert validate_model(instance.model) == []
        assert not exists_submodel(instance.model, instance.formula)


class TestStepBoundConstruction:
    def test_square_formula(self, square_digraph):
        instance = hampath_to_ax(square_digraph)
        assert render_formula(instance.formula) == "AX AX AX x_t"
        assert exists_submodel(instance.model, instance.formula)

    def test_forced_pair(self):
        instance = hampath_to_ax(HampathInstance(("s", "t"), (("s", "t"),), "s", "t"))
        assert render_formula(instance.formula) == "AX x_t"
        assert exists_submodel(instance.model, instance.formula)

    def test_no_length_two_path(self):
        digraph = HampathInstance(("s", "a", "t"), (("s", "t"), ("a", "t")), "s", "t")
        assert brute_hampath(digraph) is None
        instance = hampath_to_ax(digraph)
        assert not exists_submodel(instance.model, instance.formula)


class TestDiamondConstruction:
    def test_square_shape_and_formula(self, square_digraph):
        instance = hampath_to_au(square_digraph)
        n = 4
        assert len(instance.model.worlds) == n * n + 2 * n
        assert (
            render_formula(instance.formula)
            == "A[A[A[A[A[true U x_t] U x1] U x2] U x3] U x4]"
        )
        labeled = {
            w.id: sorted(w.labels) for w in instance.model.worlds if w.labels
        }
        assert labeled["w_t.hat"] == ["x_t"]
        assert labeled["w_s.1"] == ["x1"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_world_count(self, n):
        vertices = tuple(f"v{i}" for i in range(n))
        edges = tuple((f"v{i}", f"v{i+1}") for i in range(n - 1))
        instance = hampath_to_au(
            HampathInstance(vertices, edges, "v0", f"v{n-1}")
        )
        assert len(instance.model.worlds) == n * n + 2 * n

    def test_k2_yes_instance(self):
        instance = hampath_to_au(HampathInstance(("s", "t"), (("s", "t"),), "s", "t"))
        assert brute_hampath(HampathInstance(("s", "t"), (("s", "t"),), "s", "t"))
        assert exists_submodel(instance.model, instance.formula)


class TestExtendedDiamondConstruction:
    def test_square_shape_and_formula(self, square_digraph):
        instance = hampath_to_ar(square_digraph)
        n = 4
        assert len(instance.model.worlds) == n * n + 3 * n
        expected = "true"
        for i in range(1, n + 1):
            expected = f"A[A[A[{expected} R z] R y] R x{i}]"
        assert render_formula(instance.formula) == expected
        labels = {w.id: sorted(w.labels) for w in instance.model.worlds}
        assert labels["w_s"] == ["x1", "x2", "x3", "x4", "z"]
        assert labels["w_s.tilde"] == ["x1", "x2", "x3", "x4", "y"]
        assert labels["w_s.hat"] == ["y", "z"]
        assert labels["w_s.2"] == ["x2"]

    def test_k2_yes_instance(self):
        instance = hampath_to_ar(HampathInstance(("s", "t"), (("s", "t"),), "s", "t"))
        assert exists_submodel(instance.model, instance.formula)

    def test_shortcut_instance_rejected(self):
        # direct edge to the target but no Hamiltonian path: the target
        # exit discharges no pending release, so the shortcut fails
        digraph = HampathInstance(
            ("s", "a", "t"), (("s", "t"), ("a", "a"), ("t", "a")), "s", "t"
        )
        assert brute_hampath(digraph) is None
        instance = hampath_to_ar(digraph)
        assert not exists_submodel(instance.model, instance.formula)


class TestExistenceEquivalenceSweeps:
    @pytest.mark.parametrize(
        "generator", [hampath_to_af, hampath_to_ax, hampath_to_au, hampath_to_ar]
    )
    def test_two_vertex_exhaustive(self, generator):
        for edges in all_digraphs(("s", "t")):
            digraph = HampathInstance(("s", "t"), edges, "s", "t")
            instance = generator(digraph)
            assert validate_model(instance.model) == []
            assert exists_submodel(instance.model, instance.formula) == (
                brute_hampath(digraph) is not None
            ), edges

    @pytest.mark.parametrize(
        "generator", [hampath_to_af, hampath_to_ax, hampath_to_ar]
    )
    def test_three_vertex_slice(self, generator):
        for edges in itertools.islice(all_digraphs(("s", "a", "t")), 0, 512, 11):
            digraph = HampathInstance(("s", "a", "t"), edges, "s", "t")
            instance = generator(digraph)
            assert exists_submodel(instance.model, instance.formula) == (
                brute_hampath(digraph) is not None
            ), edges

    @pytest.mark.parametrize(
        "generator", [hampath_to_af, hampath_to_ax, hampath_to_au, hampath_to_ar]
    )
    @pytest.mark.parametrize(
        "edges",
        [
            (("a", "a_1"), ("a_1", "hat_a"), ("hat_a", "tilde_a")),
            (("a", "hat_a"), ("a", "a_1"), ("a_1", "tilde_a"), ("tilde_a", "hat_a")),
        ],
        ids=["path", "no-path"],
    )
    def test_vertex_ids_like_derived_worlds(self, generator, edges):
        # a_1 reads like a's first slot, hat_a and tilde_a like its exit
        # and buffer under the former naming
        digraph = HampathInstance(("a", "a_1", "hat_a", "tilde_a"), edges, "a", "tilde_a")
        instance = generator(digraph)
        assert validate_model(instance.model) == []
        assert exists_submodel(instance.model, instance.formula) == (
            brute_hampath(digraph) is not None
        )

    def test_dead_end_inputs_still_validate(self):
        digraph = HampathInstance(("s", "a", "t"), (("s", "t"),), "s", "t")
        for generator in (hampath_to_af, hampath_to_ax, hampath_to_au, hampath_to_ar):
            assert validate_model(generator(digraph).model) == []


class TestSolutionsAgainstBruteForce:
    def test_visit_all_solutions_are_hamiltonian(self, square_digraph):
        instance = hampath_to_af(square_digraph)
        solutions = brute_force_enumerate(instance.model, instance.formula, cap=25)
        assert solutions
        for solution in solutions:
            assert solution.worlds == {"w_s", "w_a", "w_b", "w_t", "w_hat"}


class TestDigraphFiles:
    def test_round_trip(self, square_digraph):
        import json

        text = json.dumps(digraph_to_dict(square_digraph))
        assert parse_digraph(text) == square_digraph

    def test_missing_key(self):
        with pytest.raises(ModelFormatError):
            digraph_from_dict({"vertices": ["s", "t"], "edges": []})

    def test_dangling_edge(self):
        with pytest.raises(ModelFormatError):
            digraph_from_dict(
                {
                    "vertices": ["s", "t"],
                    "edges": [["s", "ghost"]],
                    "source": "s",
                    "target": "t",
                }
            )
