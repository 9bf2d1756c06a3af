import gc
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctlenum import enumeration, families
from ctlenum import formula as F
from ctlenum.enumeration import (
    ExtensionQuery,
    Lasso,
    OracleKind,
    brute_force_enumerate,
    enumerate_submodels,
    exists_afag,
    exists_submodel,
    extend_afag,
    extend_exhaustive,
    extend_monotone,
    extract_lasso_witness,
)
from ctlenum.errors import CapExceeded, InvalidModelError, OracleFragmentMismatch
from ctlenum.formula import afag_trim, parse_formula
from ctlenum.kripke import (
    DELETE,
    KEEP,
    UNDECIDED,
    CompiledModel,
    EdgeElement,
    KripkeModel,
    PartialDecision,
    Submodel,
    WorldElement,
    canonical_serialize,
    compile_model,
    ground_set,
    is_valid_submodel,
)
from ctlenum.modelcheck import check
from oracles import reference_closure, relabeled_exists_afag
from test_formula import formula_trees


def decision_for(model, commitments):
    """Full-prefix decision: map element -> state, undecided past the end."""
    elements = ground_set(model)
    states = []
    for element in elements:
        if element in commitments:
            states.append(commitments[element])
        else:
            states.append(UNDECIDED)
    # enforce prefix discipline by deciding everything before the last commitment
    last = max(
        (i for i, e in enumerate(elements) if e in commitments), default=-1
    )
    for i in range(last + 1):
        if states[i] == UNDECIDED:
            states[i] = KEEP
    return PartialDecision(tuple(states))


def all_keep(model):
    return PartialDecision((KEEP,) * len(ground_set(model)))


def empty_decision(model):
    return PartialDecision.empty(len(ground_set(model)))


class TestEnumerateGoldens:
    def test_minimal_model(self):
        model = KripkeModel.of([("r", ["p"])], [("r", "r")], "r")
        got = list(enumerate_submodels(model, F.Atom("p")))
        assert got == [Submodel(frozenset({"r"}), frozenset({("r", "r")}))]

    def test_two_world_model(self, two_world_model):
        got = set(enumerate_submodels(two_world_model, F.Top()))
        assert got == {
            Submodel(frozenset("r"), frozenset({("r", "r")})),
            Submodel(frozenset("rw"), frozenset({("r", "w"), ("w", "w")})),
            Submodel(
                frozenset("rw"), frozenset({("r", "r"), ("r", "w"), ("w", "w")})
            ),
        }

    def test_assignment_encoding_solutions(self, xor_formula):
        from ctlenum.reductions import sat_to_ag

        instance = sat_to_ag(xor_formula)
        solutions = list(enumerate_submodels(instance.model, instance.formula))
        assert solutions
        for solution in solutions:
            for level in ("w1", "w2"):
                kept = {w for w in solution.worlds if w.startswith(level + "^")}
                assert len(kept) == 1, solution

    def test_emission_order_is_deterministic(self, two_world_model):
        runs = [
            [canonical_serialize(s) for s in enumerate_submodels(two_world_model, F.Top())]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert len(set(runs[0])) == len(runs[0])

    def test_limit(self, two_world_model):
        session = enumerate_submodels(two_world_model, F.Top(), limit=1)
        assert len(list(session)) == 1

    def test_fragment_mismatch(self, two_world_model):
        with pytest.raises(OracleFragmentMismatch):
            enumerate_submodels(
                two_world_model, parse_formula("AG p"), oracle=OracleKind.MONOTONE
            )
        with pytest.raises(OracleFragmentMismatch):
            enumerate_submodels(
                two_world_model, parse_formula("EF p"), oracle=OracleKind.AFAG
            )


class TestEngineAgainstBruteForce:
    @pytest.mark.parametrize("connected", [True, False])
    def test_small_family_sweep(self, connected):
        models = list(families.all_models(3, atoms=("p",)))[::6]
        general = families.formulas_by_size(("p",), 14)
        chains = families.afag_chain_formulas("p", 3)[:8]
        monotone = families.formulas_by_size(("p",), 10, monotone=True)
        for model in models:
            for phi in general + chains + monotone:
                expected = brute_force_enumerate(model, phi, connected=connected)
                for kind in admissible_oracles(phi):
                    got = set(
                        enumerate_submodels(
                            model, phi, oracle=kind, connected=connected
                        )
                    )
                    assert got == expected, (F.render_formula(phi), kind, model)

    def test_every_solution_is_valid_and_satisfying(self, microwave, microwave_formula):
        for solution in enumerate_submodels(microwave, microwave_formula):
            assert is_valid_submodel(microwave, solution, connected=True)
            assert check(microwave, microwave_formula, solution)

    def test_brute_force_cap(self, microwave):
        with pytest.raises(CapExceeded):
            brute_force_enumerate(microwave, F.Top(), cap=10)

    def test_false_has_no_solutions(self, two_world_model):
        assert brute_force_enumerate(two_world_model, F.Bottom()) == set()
        assert list(enumerate_submodels(two_world_model, F.Bottom())) == []

    def test_step_bound_solutions_are_single_lassos(self, square_digraph):
        from ctlenum.reductions import hampath_to_ax

        instance = hampath_to_ax(square_digraph)
        solutions = brute_force_enumerate(
            instance.model, instance.formula, cap=25
        )
        assert solutions
        for solution in solutions:
            order = sorted(solution.worlds)
            assert {"w_s", "w_a", "w_b", "w_t", "w_hat"} == solution.worlds
            # one outgoing edge per world: a single path into the sink loop
            sources = [a for a, _ in solution.edges]
            assert sorted(sources) == order


class TestDeepModels:
    """A 400-world chain has a ground set of 1,199 elements, far deeper
    than the interpreter's recursion limit."""

    def test_monotone_stream(self):
        model = families.chain_models(400)
        phi = parse_formula("EF p")
        solutions = list(enumerate_submodels(model, phi, limit=3))
        assert len(solutions) == 3
        for solution in solutions:
            assert is_valid_submodel(model, solution)
            assert check(model, phi, solution)

    def test_exhaustive_completion_search(self):
        chain = families.chain_models(400)
        model = KripkeModel.of(
            [(w.id, sorted(w.labels | {"r"}) if w.id == "w399" else sorted(w.labels))
             for w in chain.worlds],
            chain.edges,
            chain.root,
        )
        # w399 carries r and a self-loop, so the full chain fails phi; the
        # submodels that satisfy it lie below the first closure
        phi = parse_formula("AG (r -> AX !r)")
        assert not check(model, phi)
        assert extend_exhaustive(ExtensionQuery(model, phi, empty_decision(model)))
        solutions = list(
            enumerate_submodels(model, phi, oracle=OracleKind.EXHAUSTIVE, limit=2)
        )
        assert len(solutions) == 2
        for solution in solutions:
            assert is_valid_submodel(model, solution)
            assert check(model, phi, solution)


class TestDeepFormulas:
    def test_session_setup_without_recursion(self):
        # a 5,000-deep EX chain built in code (the parser still recurses):
        # classification, weakening and compilation all walk iteratively
        model = KripkeModel.of(
            [("r", []), ("w", ["p"])], [("r", "r"), ("r", "w"), ("w", "w")], "r"
        )
        phi: F.Formula = F.Atom("p")
        for _ in range(5000):
            phi = F.EX(phi)
        assert exists_submodel(model, phi)
        session = enumerate_submodels(model, phi, limit=1)
        (solution,) = list(session)
        assert session.oracle_kind is OracleKind.MONOTONE
        assert is_valid_submodel(model, solution)
        assert check(model, phi, solution)

    def test_equality_of_separately_built_chains(self):
        # two equal 5,000-deep chains that share no node: the slot dict of
        # compile_formula compares them, and so does ==
        model = KripkeModel.of(
            [("r", []), ("w", ["p"])], [("r", "r"), ("r", "w"), ("w", "w")], "r"
        )

        def chain(leaf: str = "p") -> F.Formula:
            phi: F.Formula = F.Atom(leaf)
            for _ in range(5000):
                phi = F.EX(phi)
            return phi

        both = F.And(chain(), chain())
        assert check(model, both)
        assert exists_submodel(model, both)
        assert chain() == chain()
        assert chain() != chain("q")
        assert chain() != F.EX(chain())


@st.composite
def small_models(draw):
    """A rooted total model on 3-5 worlds over atoms p and q with a
    ground set of at most 14 elements, connected or not."""
    n = draw(st.integers(3, 5))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=15 - n)))
    for a in range(n):
        if not any(src == a for src, _ in edges):
            edges.add((a, draw(st.integers(0, n - 1))))
    assume(n - 1 + len(edges) <= 14)
    labels = draw(st.lists(st.sampled_from(["", "p", "q", "pq"]), min_size=n, max_size=n))
    names = [f"w{i}" for i in range(n)]
    return KripkeModel.of(
        [(names[i], list(labels[i])) for i in range(n)],
        [(names[a], names[b]) for a, b in sorted(edges)],
        names[0],
    )


def admissible_oracles(phi):
    kinds = [OracleKind.AUTO, OracleKind.EXHAUSTIVE]
    profile = F.classify_fragment(phi)
    if profile.monotone_existential:
        kinds.append(OracleKind.MONOTONE)
    if profile.afag_chain and not isinstance(phi, F.Atom):
        kinds.append(OracleKind.AFAG)
    return kinds


def decision_key(model, sub):
    """A submodel's decision vector in the ground-set order, keep (0)
    before delete (1): the order the engine streams solutions in."""
    return tuple(
        0
        if (
            element.id in sub.worlds
            if isinstance(element, WorldElement)
            else (element.source, element.target) in sub.edges
        )
        else 1
        for element in ground_set(model)
    )


def record_closures(monkeypatch):
    """Wrap CompiledModel.closure and .shrink: every closure computed is
    recorded as (compiled model, deletions, connected, keep, result)."""
    computed = set()
    closure, shrink = CompiledModel.closure, CompiledModel.shrink

    def recorded_closure(self, del_worlds, del_edges, connected):
        result = closure(self, del_worlds, del_edges, connected)
        computed.add((self, del_worlds, del_edges, connected, 0, result))
        return result

    def recorded_shrink(self, base, del_worlds, del_edges, connected, keep=0):
        result = shrink(self, base, del_worlds, del_edges, connected, keep)
        computed.add((self, del_worlds, del_edges, connected, keep, result))
        return result

    monkeypatch.setattr(CompiledModel, "closure", recorded_closure)
    monkeypatch.setattr(CompiledModel, "shrink", recorded_shrink)
    return computed


def probe_oracles(monkeypatch):
    """Wrap every oracle: each call must come with the exact closure of
    its deletions, holding every keep commitment. Returns the list of
    witnesses the oracles gave, one per call."""
    answers = []

    def probe(oracle):
        def call(ctx, keep_w, keep_e, del_w, del_e, cl):
            want = reference_closure(ctx.compiled, del_w, del_e, ctx.connected)
            assert cl == want
            assert not (keep_w & ~cl[0] or keep_e & ~cl[1])
            answers.append(oracle(ctx, keep_w, keep_e, del_w, del_e, cl))
            return answers[-1]

        return call

    for kind, oracle in list(enumeration._ORACLES.items()):
        monkeypatch.setitem(enumeration._ORACLES, kind, probe(oracle))
    return answers


EXTENDERS = {
    OracleKind.AUTO: extend_exhaustive,
    OracleKind.EXHAUSTIVE: extend_exhaustive,
    OracleKind.MONOTONE: extend_monotone,
    OracleKind.AFAG: extend_afag,
}


class TestStructuralPruning:
    """The engine drops structurally infeasible nodes itself, folds
    elements outside the closure and pushes no delete child that strands
    a kept world: the stream stays every brute-force solution, in
    decision-vector order, and no oracle sees an infeasible node."""

    @pytest.mark.parametrize("connected", [True, False])
    def test_stream_is_sorted_brute_force(self, connected, monkeypatch):
        # every closure computed in the sweep is the reference closure of
        # its deletions, or None when the reference is None or misses a
        # kept world
        probe_oracles(monkeypatch)
        computed = record_closures(monkeypatch)
        rng = random.Random(9091)
        models = list(families.all_models(3, atoms=("p", "q")))[::97]
        battery = (
            families.formulas_by_size(("p", "q"), 30)
            + families.afag_chain_formulas("p", 3)[:8]
            + families.formulas_by_size(("p", "q"), 12, monotone=True)
        )
        for model in models:
            size = len(ground_set(model))
            for i, phi in enumerate(battery):
                expected = sorted(
                    brute_force_enumerate(model, phi, connected=connected),
                    key=lambda sub: decision_key(model, sub),
                )
                lines = [canonical_serialize(sub) for sub in expected]
                for kind in admissible_oracles(phi):
                    got = enumerate_submodels(model, phi, oracle=kind, connected=connected)
                    assert [canonical_serialize(sub) for sub in got] == lines, (
                        F.render_formula(phi), kind, model
                    )
                if connected:
                    assert exists_submodel(model, phi) == bool(expected)
                if i % 4:
                    continue
                keys = [decision_key(model, sub) for sub in expected]
                vector = [rng.randrange(2) for _ in range(size)]
                for k in range(size, -1, -1):
                    states = tuple((KEEP, DELETE)[bit] for bit in vector[:k])
                    query = ExtensionQuery(
                        model,
                        phi,
                        PartialDecision(states + (UNDECIDED,) * (size - k)),
                        connected,
                    )
                    want = any(key[:k] == tuple(vector[:k]) for key in keys)
                    for kind in admissible_oracles(phi):
                        assert EXTENDERS[kind](query) == want, (
                            F.render_formula(phi), kind, states, model
                        )
            assert computed
            for c, del_w, del_e, linked, keep, cl in computed:
                want = reference_closure(c, del_w, del_e, linked)
                if cl is None:
                    assert want is None or keep & ~want[0], (model, del_w, del_e, keep)
                else:
                    assert cl == want, (model, del_w, del_e, keep)
            computed.clear()

    @settings(max_examples=150, deadline=None)
    @given(small_models(), formula_trees(max_leaves=5, atoms=("p", "q")))
    def test_random_models_match_brute_force(self, model, phi):
        for connected in (True, False):
            expected = brute_force_enumerate(model, phi, connected=connected)
            for kind in admissible_oracles(phi):
                got = enumerate_submodels(model, phi, oracle=kind, connected=connected)
                assert set(got) == expected, (F.render_formula(phi), kind, connected)
            if connected:
                assert exists_submodel(model, phi) == bool(expected)


class TestExhaustiveExtension:
    def test_empty_decision_on_faulty_oven(self, microwave, microwave_formula):
        query = ExtensionQuery(microwave, microwave_formula, empty_decision(microwave))
        assert extend_exhaustive(query)

    def test_all_keep_on_faulty_oven(self, microwave, microwave_formula):
        query = ExtensionQuery(microwave, microwave_formula, all_keep(microwave))
        assert not extend_exhaustive(query)

    def test_deleting_last_root_edge(self, microwave, microwave_formula):
        commitments = {
            EdgeElement("w1", "w2"): DELETE,
            EdgeElement("w1", "w3"): DELETE,
        }
        query = ExtensionQuery(
            microwave, microwave_formula, decision_for(microwave, commitments)
        )
        assert not extend_exhaustive(query)

    def test_weakening_prune_soundness_guard(self):
        # negation above a non-atom is antitone: the full model fails the
        # formula and every E-twin of it, yet the root-loop submodel
        # satisfies it, so the prune must not be available
        guarded = {
            "!E[p U !q]": KripkeModel.of(
                [("r", ["p", "q"]), ("w", [])],
                [("r", "r"), ("r", "w"), ("w", "w")],
                "r",
            ),
            "AG !AX p": KripkeModel.of(
                [("r", []), ("w", ["p"])],
                [("r", "r"), ("r", "w"), ("w", "w")],
                "r",
            ),
        }
        for text, model in guarded.items():
            phi = parse_formula(text)
            assert F.existential_weakening(phi) is None
            assert not check(model, phi)
            assert exists_submodel(model, phi)
        chain = parse_formula(
            "A[A[A[true R z] R y] R x1] & A[A[true U x_t] U !x1]"
        )
        assert F.existential_weakening(chain) == parse_formula(
            "E[E[E[true R z] R y] R x1] & E[E[true U x_t] U !x1]"
        )


class TestMonotoneExtension:
    def make_model(self):
        return KripkeModel.of(
            [("r", []), ("w", ["x"])], [("r", "w"), ("w", "w")], "r"
        )

    def test_empty_extension_suffices(self):
        model = self.make_model()
        query = ExtensionQuery(model, parse_formula("EF x"), empty_decision(model))
        assert extend_monotone(query)
        assert extend_exhaustive(query)

    def test_deleting_the_witness_world(self):
        model = self.make_model()
        commitments = {WorldElement("w"): DELETE}
        query = ExtensionQuery(
            model, parse_formula("EF x"), decision_for(model, commitments)
        )
        assert not extend_monotone(query)
        assert not extend_exhaustive(query)

    def test_unreachable_target(self, two_world_model):
        query = ExtensionQuery(
            two_world_model, parse_formula("E[true U x]"), empty_decision(two_world_model)
        )
        assert not extend_monotone(query)

    def test_fragment_guard(self, two_world_model):
        query = ExtensionQuery(
            two_world_model, parse_formula("AG p"), empty_decision(two_world_model)
        )
        with pytest.raises(OracleFragmentMismatch):
            extend_monotone(query)

    def test_agreement_on_random_queries(self):
        rng = random.Random(77)
        models = list(families.all_models(3, atoms=("p",)))[::9]
        formulas = families.formulas_by_size(("p",), 12, monotone=True)
        for model in models:
            size = len(ground_set(model))
            for phi in formulas[:8]:
                for _ in range(3):
                    states = []
                    depth = rng.randrange(size + 1)
                    for i in range(size):
                        states.append(
                            rng.choice([KEEP, DELETE]) if i < depth else UNDECIDED
                        )
                    for connected in (True, False):
                        query = ExtensionQuery(
                            model, phi, PartialDecision(tuple(states)), connected
                        )
                        assert extend_monotone(query) == extend_exhaustive(query), (
                            F.render_formula(phi),
                            states,
                            connected,
                            model,
                        )


class TestAfagExtension:
    def test_counterexample_rejected(self, cycle_counterexample):
        query = ExtensionQuery(
            cycle_counterexample,
            parse_formula("AG AF x"),
            empty_decision(cycle_counterexample),
        )
        assert not extend_afag(query)
        assert not extend_exhaustive(query)

    def test_revisit_example_accepted(self, revisit_example):
        query = ExtensionQuery(
            revisit_example,
            parse_formula("AF AG AG AF x"),
            empty_decision(revisit_example),
        )
        assert extend_afag(query)
        assert extend_exhaustive(query)

    def test_keeping_an_unlabeled_world_kills_ag(self, two_world_model):
        labeled = KripkeModel.of(
            [("r", ["x"]), ("w", [])], two_world_model.edges, "r"
        )
        query = ExtensionQuery(
            labeled,
            parse_formula("AG x"),
            decision_for(labeled, {WorldElement("w"): KEEP}),
        )
        assert not extend_afag(query)

    def test_fragment_guard(self, two_world_model):
        query = ExtensionQuery(
            two_world_model, parse_formula("EF p"), empty_decision(two_world_model)
        )
        with pytest.raises(OracleFragmentMismatch):
            extend_afag(query)

    def test_agreement_on_random_queries(self):
        rng = random.Random(101)
        models = list(families.all_models(3, atoms=("p",)))[::9]
        chains = families.afag_chain_formulas("p", 4)[1:]
        for model in models:
            size = len(ground_set(model))
            for phi in chains:
                for _ in range(3):
                    depth = rng.randrange(size + 1)
                    states = tuple(
                        (rng.choice([KEEP, DELETE]) if i < depth else UNDECIDED)
                        for i in range(size)
                    )
                    for connected in (True, False):
                        query = ExtensionQuery(
                            model, phi, PartialDecision(states), connected
                        )
                        assert extend_afag(query) == extend_exhaustive(query), (
                            F.render_formula(phi),
                            states,
                            connected,
                            model,
                        )


class TestExistence:
    def test_always_satisfiable(self, microwave):
        assert exists_submodel(microwave, F.Top())

    def test_counterexample(self, cycle_counterexample):
        assert not exists_submodel(cycle_counterexample, parse_formula("AG AF x"))

    def test_revisit_example(self, revisit_example):
        assert exists_submodel(revisit_example, parse_formula("AF AG AG AF x"))

    def test_matches_limited_enumeration(self):
        models = list(families.all_models(3, atoms=("p",)))[::17]
        battery = families.formulas_by_size(("p",), 10) + families.afag_chain_formulas(
            "p", 2
        )
        for model in models:
            for phi in battery:
                first = list(enumerate_submodels(model, phi, limit=1))
                assert exists_submodel(model, phi) == (len(first) == 1)


class TestExistsAfag:
    def test_counterexample(self, cycle_counterexample):
        form = afag_trim(parse_formula("AG AF x"))
        assert not exists_afag(cycle_counterexample, form)

    def test_revisit_example(self, revisit_example):
        form = afag_trim(parse_formula("AG AF x"))
        assert exists_afag(revisit_example, form)

    def test_trivial_root_loop(self):
        model = KripkeModel.of([("r", ["x"])], [("r", "r")], "r")
        assert exists_afag(model, afag_trim(parse_formula("AF x")))

    def test_matches_relabeled_model_checking(self):
        # dual routes: relabeling plus the naive checker, and the general
        # existence search on the form's own formula
        rng = random.Random(3)
        forms = [
            afag_trim(parse_formula(chain))
            for chain in ("AF x", "AG x", "AF AG x", "AG AF x")
        ]
        for model in families.all_models(3, atoms=("x",)):
            sub = families.random_submodel(rng, model, connected=False)
            for form in forms:
                got = exists_afag(model, form)
                assert got == relabeled_exists_afag(model, form), (form, model)
                assert got == exists_submodel(model, form.to_formula()), (form, model)
                assert exists_afag(model, form, sub) == relabeled_exists_afag(
                    model, form, sub
                ), (form, model, sub)

    def test_foreign_sub_rejected(self, revisit_example):
        form = afag_trim(parse_formula("AG AF x"))
        # without its foreign world and edge this is the whole model
        foreign = Submodel(
            frozenset(w.id for w in revisit_example.worlds) | {"zz"},
            frozenset(revisit_example.edges) | {("w1", "zz")},
        )
        with pytest.raises(InvalidModelError):
            exists_afag(revisit_example, form, foreign)
        with pytest.raises(InvalidModelError):
            extract_lasso_witness(revisit_example, form, foreign)


class TestLassoWitness:
    def test_worked_example(self, revisit_example):
        form = afag_trim(parse_formula("AG AF x"))
        lasso = extract_lasso_witness(revisit_example, form)
        assert lasso == Lasso(stem=("w1",), cycle=("w3", "w4"))
        induced = lasso.induced_submodel()
        assert induced == Submodel(
            frozenset({"w1", "w3", "w4"}),
            frozenset({("w1", "w3"), ("w3", "w4"), ("w4", "w3")}),
        )
        assert check(revisit_example, parse_formula("AG AF x"), induced)

    def test_root_self_loop(self):
        model = KripkeModel.of([("r", ["x"])], [("r", "r")], "r")
        lasso = extract_lasso_witness(model, afag_trim(parse_formula("AG x")))
        assert lasso == Lasso(stem=(), cycle=("r",))

    def test_no_witness(self, cycle_counterexample):
        form = afag_trim(parse_formula("AG AF x"))
        assert extract_lasso_witness(cycle_counterexample, form) is None

    @pytest.mark.parametrize("chain", ["AF x", "AG x", "AF AG x", "AG AF x"])
    def test_induced_submodels_pass_and_are_functional(self, chain):
        phi = parse_formula(chain)
        form = afag_trim(phi)
        models = list(families.all_models(3, atoms=("x",)))[::3]
        witnesses = 0
        for model in models:
            lasso = extract_lasso_witness(model, form)
            if lasso is None:
                assert not exists_afag(model, form)
                continue
            witnesses += 1
            induced = lasso.induced_submodel()
            assert is_valid_submodel(model, induced, connected=True)
            out_degree = {}
            for a, _ in induced.edges:
                out_degree[a] = out_degree.get(a, 0) + 1
            assert all(d == 1 for d in out_degree.values())
            assert set(out_degree) == set(induced.worlds)
            assert check(model, phi, induced)
        assert witnesses > 0


class TestLabelingEntryPoint:
    # per-layer tracing wraps enumeration.label_masks and keys each call
    # on all four arguments; every labeling builds successor masks once,
    # so equal counts mean no labeling bypassed the name

    @staticmethod
    def count_labelings(monkeypatch):
        labelings, successor_calls = [], []
        label_masks = enumeration.label_masks
        successor_masks = CompiledModel.successor_masks

        def counted_label(compiled, wmask, emask, program):
            labelings.append((id(compiled), wmask, emask, program))
            return label_masks(compiled, wmask, emask, program)

        def counted_successors(self, emask):
            successor_calls.append(emask)
            return successor_masks(self, emask)

        monkeypatch.setattr(enumeration, "label_masks", counted_label)
        monkeypatch.setattr(CompiledModel, "successor_masks", counted_successors)
        return labelings, successor_calls

    def test_engine_labels_through_module_attribute(self, monkeypatch):
        labelings, successor_calls = self.count_labelings(monkeypatch)
        model = families.random_model(random.Random(3), 4, atoms=("p", "q"))
        phi = parse_formula("AG (p -> AF q)")
        session = enumerate_submodels(model, phi, oracle=OracleKind.EXHAUSTIVE)
        solutions = list(session)
        assert solutions
        assert labelings and len(labelings) == len(successor_calls)
        assert len(set(labelings)) == len(labelings)
        assert {key[3].formula for key in labelings} == {
            phi,
            F.existential_weakening(phi),
        }

    @pytest.mark.parametrize("decide", [brute_force_enumerate, exists_submodel])
    def test_reference_and_decision_label_through_module_attribute(
        self, monkeypatch, decide
    ):
        labelings, successor_calls = self.count_labelings(monkeypatch)
        model = families.random_model(random.Random(3), 4, atoms=("p", "q"))
        phi = parse_formula("AG (p -> AF q)")
        assert decide(model, phi)
        assert labelings and len(labelings) == len(successor_calls)
        assert len(set(labelings)) == len(labelings)


class TestOneWalk:
    def test_no_node_is_closed_twice(self, monkeypatch):
        # one walk per session: a node whose subtree was searched, as a
        # completion search nested in the engine once did, is never
        # searched again
        keys = []
        node_closure = enumeration._node_closure

        def counted(ctx, base, keep_w, keep_e, del_w, del_e):
            keys.append((keep_w, keep_e, del_w, del_e))
            return node_closure(ctx, base, keep_w, keep_e, del_w, del_e)

        monkeypatch.setattr(enumeration, "_node_closure", counted)
        texts = (
            "AG (p -> AF q)", "A[p U q]", "!E[p U !q]", "AF AG q", "EG (p -> AX q)", "AF q",
        )
        kinds = (OracleKind.EXHAUSTIVE, OracleKind.AUTO, OracleKind.AFAG)
        closed = 0
        for seed in range(6):
            model = families.random_model(random.Random(seed), 5, atoms=("p", "q"))
            for text in texts:
                phi = parse_formula(text)
                runs = [
                    lambda kind=kind: list(enumerate_submodels(model, phi, oracle=kind))
                    for kind in kinds
                    if kind in admissible_oracles(phi)
                ]
                runs.append(lambda: exists_submodel(model, phi))
                for run in runs:
                    keys.clear()
                    run()
                    assert len(set(keys)) == len(keys), (text, seed)
                    closed += len(keys)
        assert closed > 1000


class TestRetainedMemory:
    def test_session_leaves_nothing_behind(self):
        # a finished session keeps nothing per search node: after the
        # 8,191-solution chain stream, the compiled model and the process
        # hold what they held after a one-solution session on it
        model = families.chain_models(13)
        phi = parse_formula("EF p")
        compile_model.cache_clear()
        tracemalloc.start()
        try:
            list(enumerate_submodels(model, phi, limit=1))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            count = sum(1 for _ in enumerate_submodels(model, phi))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert count == 2 ** 13 - 1
        assert grown < 512 * 1024, grown


class TestStats:
    def test_delay_bucket_counts(self, two_world_model):
        session = enumerate_submodels(two_world_model, F.Top())
        solutions = list(session)
        assert session.stats.solutions == len(solutions) == 3
        assert len(session.stats.delays_ns) == len(solutions) + 1
        assert len(session.stats.oracle_calls) == len(solutions) + 1

    def test_limit_and_abandonment_close_the_last_bucket(self, two_world_model):
        limited = enumerate_submodels(two_world_model, F.Top(), limit=2)
        assert len(list(limited)) == 2
        abandoned = enumerate_submodels(two_world_model, F.Top())
        stream = iter(abandoned)
        next(stream)
        stream.close()
        for session, solutions in ((limited, 2), (abandoned, 1)):
            assert session.stats.solutions == solutions
            assert len(session.stats.delays_ns) == solutions + 1
            assert len(session.stats.oracle_calls) == solutions + 1

    def test_oracle_call_bound_on_chains(self, monkeypatch):
        # every chain node the oracle sees has a satisfying completion,
        # and a gap visits at most one node per ground element plus one
        answers = probe_oracles(monkeypatch)
        for size in range(5, 10):
            model = families.chain_models(size)
            session = enumerate_submodels(
                model, parse_formula("EF p"), oracle=OracleKind.MONOTONE
            )
            count = sum(1 for _ in session)
            assert count == 2 ** size - 1
            assert answers and None not in answers
            assert max(session.stats.oracle_calls) <= len(ground_set(model)) + 1
            answers.clear()

    def test_fallback_counter(self, revisit_example):
        session = enumerate_submodels(
            revisit_example, parse_formula("AF x"), oracle=OracleKind.AFAG
        )
        list(session)
        assert session.stats.fallback_queries > 0

    def test_single_use(self, two_world_model):
        session = enumerate_submodels(two_world_model, F.Top())
        list(session)
        with pytest.raises(RuntimeError):
            iter(session)
