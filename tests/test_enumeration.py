import random

import pytest

from ctlenum import families
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
    EdgeElement,
    KripkeModel,
    PartialDecision,
    Submodel,
    WorldElement,
    canonical_serialize,
    ground_set,
    is_valid_submodel,
)
from ctlenum.modelcheck import check
from oracles import relabeled_exists_afag


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


def admissible_oracles(phi):
    kinds = [OracleKind.AUTO, OracleKind.EXHAUSTIVE]
    profile = F.classify_fragment(phi)
    if profile.monotone_existential:
        kinds.append(OracleKind.MONOTONE)
    if profile.afag_chain and not isinstance(phi, F.Atom):
        kinds.append(OracleKind.AFAG)
    return kinds


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

    def test_oracle_call_bound_on_chains(self):
        for size in range(5, 10):
            model = families.chain_models(size)
            session = enumerate_submodels(
                model, parse_formula("EF p"), oracle=OracleKind.MONOTONE
            )
            count = sum(1 for _ in session)
            assert count == 2 ** size - 1
            bound = 2 * len(ground_set(model)) + 1
            assert max(session.stats.oracle_calls) <= bound

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
