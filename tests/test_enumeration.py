import gc
import itertools
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
from ctlenum.errors import CapExceeded, InvalidModelError, NotAFAGChain, OracleFragmentMismatch
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
from ctlenum.modelcheck import check, compile_formula, label_masks, may_masks, must_masks
from ctlenum.reductions import (
    HampathInstance,
    brute_hampath,
    hampath_to_af,
    hampath_to_ar,
    hampath_to_au,
    hampath_to_ax,
)
from oracles import (
    existential_weakening,
    naive_check,
    reference_closure,
    reference_program_facts,
    relabeled_exists_afag,
)
from test_formula import formula_trees, negation_on_atoms_only


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


class TestAfChain:
    """AF q on chain_models(n) with q on the last world only. Its one
    solution is the path to the q-world with the q-world's self-loop.
    Every closure with a self-loop before the q-world fails AF q, yet its
    existential weakening EF q holds there, so under a keep-blind prune
    the search doubles with each world (40,983 nodes at n = 14). The may
    pass refutes AF q as soon as such a self-loop is kept."""

    @staticmethod
    def af_chain(n):
        chain = families.chain_models(n)
        last = f"w{n}"
        return KripkeModel.of(
            [(w.id, ["q"] if w.id == last else []) for w in chain.worlds],
            chain.edges,
            chain.root,
        )

    @pytest.mark.parametrize("kind", [OracleKind.AUTO, OracleKind.EXHAUSTIVE])
    def test_stream_matches_brute_force(self, kind):
        phi = parse_formula("AF q")
        for n in range(2, 10):
            model = self.af_chain(n)
            session = enumerate_submodels(model, phi, oracle=kind)
            got = list(session)
            assert set(got) == brute_force_enumerate(model, phi, cap=30), n
            assert len(got) == 1

    def test_search_is_linear_in_the_chain(self):
        phi = parse_formula("AF q")
        for n in (*range(2, 17), 40, 120):
            session = enumerate_submodels(self.af_chain(n), phi)
            assert len(list(session)) == 1
            assert sum(session.stats.oracle_calls) <= 5 * n, n
            assert session.stats.may_passes <= 2 * n, n


class TestDeepFormulas:
    def test_session_setup_without_recursion(self):
        # a 5,000-deep EX chain built in code (the parser still recurses):
        # classification and compilation walk iteratively
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


class TestMustPass:
    """The must pass at random partial decisions: whenever it puts the
    root in phi's mask, every valid completion of the decision satisfies
    phi, under check and under the naive path-unfolding checker."""

    TEXTS = (
        "AG (p -> AF q)", "EF (p & EX q)", "A[p U q]", "E[p R q]", "AG (p | EF q)",
        "AF AG q", "EG (p -> AX q)", "AG (p -> EX q)", "A[p U EX q]", "AF (q & EG p)",
        "EF AG p", "AX (p | EF q)", "A[EF p R (q | EX p)]", "E[AX p U AG !q]",
    )

    @staticmethod
    def battery():
        small = families.formulas_by_size(("p", "q"), 240)[40::6]
        chains = families.afag_chain_formulas("p", 3)
        parsed = [parse_formula(text) for text in TestMustPass.TEXTS]
        return [
            phi for phi in small + chains + parsed
            if existential_weakening(phi) is not None
        ]

    @staticmethod
    def valid_submodels(c, connected):
        """Masks of every valid submodel of the compiled model."""
        found = []
        others = c.ground_worlds
        for picked in range(1 << len(others)):
            wmask = 1 << c.root
            for i, w in enumerate(others):
                if picked >> i & 1:
                    wmask |= 1 << w
            allowed = 0
            for e, (src, dst) in enumerate(c.edges):
                if wmask >> src & 1 and wmask >> dst & 1:
                    allowed |= 1 << e
            emask = allowed
            while True:
                if c.valid(wmask, emask, connected):
                    found.append((wmask, emask))
                if not emask:
                    break
                emask = (emask - 1) & allowed
        return found

    @staticmethod
    def random_nodes(c, connected, rng, draws):
        """Draws random partial decisions; yields (keep_w, keep_e, del_w,
        del_e, cl) for each whose closure cl keeps the root and every
        keep."""
        positions = [(1 << w, 0) for w in c.ground_worlds] + [(0, 1 << e) for e in range(c.m)]
        for _ in range(draws):
            keep_w = keep_e = del_w = del_e = 0
            decide = rng.random()
            for wbit, ebit in positions:
                if rng.random() >= decide:
                    continue
                if rng.random() < 0.5:
                    keep_w, keep_e = keep_w | wbit, keep_e | ebit
                else:
                    del_w, del_e = del_w | wbit, del_e | ebit
            cl = c.closure(del_w, del_e, connected)
            if cl is None or keep_w & ~cl[0] or keep_e & ~cl[1]:
                continue
            yield keep_w, keep_e, del_w, del_e, cl

    @staticmethod
    def completions(submodels, keep_w, keep_e, del_w, del_e):
        for w, e in submodels:
            if not (keep_w & ~w or keep_e & ~e or del_w & w or del_e & e):
                yield w, e

    def settled_decisions(self, model, battery, rng, draws):
        """Checks draws random decisions per formula and connectivity;
        returns how many the must pass settled."""
        c = compile_model(model)
        settled = 0
        for connected in (True, False):
            submodels = self.valid_submodels(c, connected)
            for phi in battery:
                program = compile_formula(phi)
                verdicts = {}
                for keep_w, keep_e, del_w, del_e, cl in self.random_nodes(c, connected, rng, draws):
                    if not must_masks(c, *cl, keep_e, program)[-1] >> c.root & 1:
                        continue
                    settled += 1
                    for w, e in self.completions(submodels, keep_w, keep_e, del_w, del_e):
                        if (w, e) not in verdicts:
                            sub = c.submodel(w, e)
                            verdicts[w, e] = check(model, phi, sub) and naive_check(model, phi, sub)
                        assert verdicts[w, e], (F.render_formula(phi), model, keep_w, keep_e, del_w, del_e)
        return settled

    def test_three_world_models(self):
        rng = random.Random(4417)
        battery = self.battery()
        models = list(families.all_models(3, atoms=("p", "q")))[::331]
        settled = sum(self.settled_decisions(model, battery, rng, 6) for model in models)
        assert settled > 1500

    def test_random_models(self):
        rng = random.Random(4421)
        battery = self.battery()
        models = [families.random_model(rng, n, atoms=("p", "q"), edge_prob=0.3) for n in (4, 5) * 4]
        # 6 and 7 worlds, ground sets of at most 17 elements: the naive
        # checker walks its paths without storing them
        for n in (6, 7):
            while True:
                model = families.random_model(rng, n, atoms=("p", "q"), edge_prob=0.15)
                if n - 1 + len(model.edges) <= 17:
                    models.append(model)
                    break
        settled = sum(self.settled_decisions(model, battery, rng, 4) for model in models)
        assert settled > 300


class TestMayPass:
    """The may pass at random partial decisions, on the formulas of
    TestMustPass that have an A-operator: whenever it leaves the root
    out of phi's mask, no valid completion of the decision satisfies phi,
    under check or under the naive path-unfolding checker; whenever it
    puts the root in, so does phi's existential weakening labeled over
    the closure, so the pass prunes every node the weakening prunes."""

    def pruned_decisions(self, model, battery, rng, draws):
        """Checks draws random decisions per formula and connectivity;
        returns how many the may pass pruned and how many of those the
        weakening kept."""
        c = compile_model(model)
        pruned = beyond = 0
        for connected in (True, False):
            submodels = TestMustPass.valid_submodels(c, connected)
            for phi in battery:
                program = compile_formula(phi)
                weak = compile_formula(existential_weakening(phi))
                verdicts = {}
                nodes = TestMustPass.random_nodes(c, connected, rng, draws)
                for keep_w, keep_e, del_w, del_e, cl in nodes:
                    weak_holds = label_masks(c, *cl, weak)[-1] >> c.root & 1
                    if may_masks(c, *cl, keep_e, program)[-1] >> c.root & 1:
                        assert weak_holds, (F.render_formula(phi), model, keep_e, cl)
                        continue
                    pruned += 1
                    beyond += weak_holds
                    for w, e in TestMustPass.completions(submodels, keep_w, keep_e, del_w, del_e):
                        if (w, e) not in verdicts:
                            sub = c.submodel(w, e)
                            verdicts[w, e] = check(model, phi, sub) or naive_check(model, phi, sub)
                        assert not verdicts[w, e], (
                            F.render_formula(phi), model, keep_w, keep_e, del_w, del_e
                        )
        return pruned, beyond

    @staticmethod
    def battery():
        return [
            phi for phi in TestMustPass.battery()
            if existential_weakening(phi) is not phi
        ]

    def test_three_world_models(self):
        rng = random.Random(4423)
        battery = self.battery()
        models = list(families.all_models(3, atoms=("p", "q")))[::331]
        pruned, beyond = map(sum, zip(*(
            self.pruned_decisions(model, battery, rng, 16) for model in models
        )))
        assert pruned > 4000 and beyond > 250, (pruned, beyond)

    def test_random_models(self):
        rng = random.Random(4427)
        battery = self.battery()
        models = [families.random_model(rng, n, atoms=("p", "q"), edge_prob=0.3) for n in (4, 5) * 4]
        pruned, beyond = map(sum, zip(*(
            self.pruned_decisions(model, battery, rng, 12) for model in models
        )))
        assert pruned > 800 and beyond > 90, (pruned, beyond)


def negated_operator_battery():
    """The formulas among the first 300 by size with a negation above an
    operator or a constant: 42 of them."""
    return [
        phi for phi in families.formulas_by_size(("p", "q"), 300)
        if not negation_on_atoms_only(phi)
    ]


def deep_negated_chain():
    """!AF !EX, 20,000 times over, around p."""
    phi: F.Formula = F.Atom("p")
    for _ in range(20000):
        phi = F.Not(F.AF(F.Not(F.EX(phi))))
    return phi


class TestNegationNormalSessions:
    """A session compiles phi in negation normal form: formulas with a
    negation above an operator get the may and must passes too, and
    their streams and decisions still equal brute force."""

    @staticmethod
    def models():
        rng = random.Random(5147)
        models = list(families.all_models(3, atoms=("p", "q")))[::331]
        while len(models) < 30:
            model = families.random_model(rng, rng.randint(4, 5), ("p", "q"), edge_prob=0.3)
            if len(ground_set(model)) <= 14:
                models.append(model)
        return models

    @pytest.mark.parametrize("connected", [True, False])
    def test_streams_and_decisions_match_brute_force(self, connected):
        rng = random.Random(5153)
        battery = negated_operator_battery()
        assert len(battery) == 42
        for model in self.models():
            size = len(ground_set(model))
            for phi in battery:
                expected = sorted(
                    brute_force_enumerate(model, phi, connected=connected),
                    key=lambda sub: decision_key(model, sub),
                )
                got = enumerate_submodels(model, phi, connected=connected)
                assert list(got) == expected, (F.render_formula(phi), model)
                if connected:
                    assert exists_submodel(model, phi) == bool(expected)
                keys = [decision_key(model, sub) for sub in expected]
                vector = [rng.randrange(2) for _ in range(size)]
                k = rng.randrange(size + 1)
                states = tuple((KEEP, DELETE)[bit] for bit in vector[:k])
                query = ExtensionQuery(
                    model, phi, PartialDecision(states + (UNDECIDED,) * (size - k)), connected
                )
                want = any(key[:k] == tuple(vector[:k]) for key in keys)
                assert extend_exhaustive(query) == want, (F.render_formula(phi), states, model)

    def test_passes_run_below_negations(self):
        model = KripkeModel.of(
            [("w0", ["p"]), ("w1", ["q"]), ("w2", []), ("w3", ["p", "q"])],
            [("w0", "w1"), ("w0", "w2"), ("w1", "w1"), ("w1", "w3"), ("w2", "w0"),
             ("w2", "w3"), ("w3", "w2"), ("w3", "w3")],
            "w0",
        )
        may = must = 0
        for phi in negated_operator_battery():
            for connected in (True, False):
                session = enumerate_submodels(model, phi, connected=connected)
                assert set(session) == brute_force_enumerate(model, phi, connected=connected)
                may += session.stats.may_passes
                must += session.stats.must_passes
        assert may > 0 and must > 0, (may, must)

    def test_deep_negated_chain(self):
        # built in code: its negation normal form EG EX ... p is built and
        # labeled without recursion
        phi = deep_negated_chain()
        model = families.chain_models(3)
        session = enumerate_submodels(model, phi)
        assert set(session) == brute_force_enumerate(model, phi)
        assert session.stats.solutions > 0


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
            assert existential_weakening(phi) is None
            assert not check(model, phi)
            assert exists_submodel(model, phi)
        chain = parse_formula(
            "A[A[A[true R z] R y] R x1] & A[A[true U x_t] U !x1]"
        )
        assert existential_weakening(chain) == parse_formula(
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


class TestDecisionOrder:
    """Decisions walk root-outward and delete-first; enumeration walks
    the ground-set order. Extension queries give their decision vectors
    in ground-set order, so verdicts must equal brute force on models
    whose root-outward order is not their ground-set order."""

    @staticmethod
    def rerooted_models():
        """Random models with the root declared last, some with worlds the
        root does not reach: BFS from the root meets the worlds out of
        declaration order."""
        rng = random.Random(6113)
        models = []
        while len(models) < 10:
            model = families.random_model(
                rng, rng.randint(3, 5), ("p", "q"), edge_prob=0.35, connected=rng.random() < 0.7
            )
            model = KripkeModel.of(
                [(w.id, sorted(w.labels)) for w in reversed(model.worlds)], model.edges, model.root
            )
            if len(ground_set(model)) <= 13:
                models.append(model)
        return models

    @staticmethod
    def check_decisions(model, phi, rng, connectivities=(True, False), cap=20):
        """exists_submodel and every admissible extend_* against brute force,
        on random prefixes given in ground-set order."""
        extend = [extend_exhaustive]
        profile = F.classify_fragment(phi)
        if profile.monotone_existential:
            extend.append(extend_monotone)
        if profile.afag_chain and not isinstance(phi, F.Atom):
            extend.append(extend_afag)
        size = len(ground_set(model))
        for connected in connectivities:
            solutions = brute_force_enumerate(model, phi, connected=connected, cap=cap)
            keys = sorted(decision_key(model, sub) for sub in solutions)
            if connected:
                assert exists_submodel(model, phi) == bool(keys), (F.render_formula(phi), model)
            for k in (0, rng.randrange(size + 1), rng.randrange(size + 1), size):
                if k == size and keys and rng.random() < 0.5:
                    vector = rng.choice(keys)
                else:
                    vector = tuple(rng.randrange(2) for _ in range(k))
                states = tuple((KEEP, DELETE)[bit] for bit in vector)
                query = ExtensionQuery(
                    model, phi, PartialDecision(states + (UNDECIDED,) * (size - k)), connected
                )
                want = any(key[:k] == vector for key in keys)
                for decide in extend:
                    assert decide(query) == want, (
                        decide.__name__, F.render_formula(phi), states, connected, model
                    )

    @staticmethod
    def orders_differ(model, connected=True):
        """The decision layout is a reordering of the enumeration layout
        that carries each edge's delete rules along, and not the same order."""
        c = compile_model(model)
        ground = enumeration._layout(c, connected, decision=False)
        decision = enumeration._layout(c, connected, decision=True)
        assert sorted(zip(*decision), key=repr) == sorted(zip(*ground), key=repr)
        return decision[0] != ground[0]

    def test_root_outward_layout(self):
        # root w2 reaches w0 and w1; w3 is unreachable and comes last
        model = KripkeModel.of(
            [("w0", []), ("w1", []), ("w2", []), ("w3", [])],
            [("w0", "w0"), ("w1", "w0"), ("w1", "w1"), ("w2", "w1"), ("w2", "w0"), ("w3", "w2")],
            "w2",
        )
        c = compile_model(model)

        def world(w):
            return 1 << c.index[w], 0

        def edge(s, t):
            return 0, 1 << c.edge_index[(c.index[s], c.index[t])]

        positions, _ = enumeration._layout(c, True, decision=True)
        assert positions == [
            edge("w2", "w0"), edge("w2", "w1"),
            world("w0"), edge("w0", "w0"),
            world("w1"), edge("w1", "w0"), edge("w1", "w1"),
            world("w3"), edge("w3", "w2"),
        ]
        assert self.orders_differ(model) and self.orders_differ(model, connected=False)

    def test_vector_is_read_in_ground_set_order(self):
        # the ground set is w0, w1, then the edges; root-outward the walk
        # starts at (w2, w0). Deleting w0 leaves no p-world, but deleting
        # (w2, w0) still reaches w0 through w1: a vector read against the
        # walk's positions would answer True.
        model = KripkeModel.of(
            [("w0", ["p"]), ("w1", []), ("w2", [])],
            [("w0", "w0"), ("w1", "w0"), ("w1", "w1"), ("w2", "w0"), ("w2", "w1")],
            "w2",
        )
        assert ground_set(model)[0] == WorldElement("w0")
        size = len(ground_set(model))
        for text, extend in (("EF p", extend_monotone), ("AF p", extend_afag), ("EF p", extend_exhaustive)):
            phi = parse_formula(text)
            for connected in (True, False):
                delete_w0 = ExtensionQuery(
                    model, phi, PartialDecision((DELETE,) + (UNDECIDED,) * (size - 1)), connected
                )
                assert not extend(delete_w0), (text, extend.__name__, connected)
                keep_w0 = ExtensionQuery(
                    model, phi, PartialDecision((KEEP,) + (UNDECIDED,) * (size - 1)), connected
                )
                assert extend(keep_w0), (text, extend.__name__, connected)
            self.check_decisions(model, phi, random.Random(3))

    def test_general_battery_matches_brute_force(self):
        rng = random.Random(6121)
        battery = (
            families.formulas_by_size(("p", "q"), 40, constants=False)[10:]
            + families.afag_chain_formulas("p", 3)[1:]
            + families.formulas_by_size(("p", "q"), 12, monotone=True)[4:]
        )
        for model in self.rerooted_models():
            assert self.orders_differ(model)
            for phi in battery:
                self.check_decisions(model, phi, rng)

    def test_hampath_reductions_match_brute_force(self):
        rng = random.Random(6133)
        generators = (hampath_to_af, hampath_to_ax, hampath_to_au, hampath_to_ar)
        two = ("v0", "v1")
        pairs = [(u, v) for u in two for v in two]
        for bits in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            for s, t in itertools.permutations(two):
                digraph = HampathInstance(two, edges, s, t)
                expected = brute_hampath(digraph) is not None
                for generator in generators:
                    instance = generator(digraph)
                    assert self.orders_differ(instance.model)
                    assert exists_submodel(instance.model, instance.formula) == expected
                    self.check_decisions(
                        instance.model, instance.formula, rng, connectivities=(True,), cap=25
                    )
        # three vertices: brute force prefixes for visit-all and
        # step-bound, Hamiltonian paths for diamond and release
        three = ("v0", "v1", "v2")
        pairs = [(u, v) for u in three for v in three]
        for bits in rng.sample(range(1 << len(pairs)), 12):
            edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            digraph = HampathInstance(three, edges, *rng.sample(three, 2))
            expected = brute_hampath(digraph) is not None
            for generator in generators:
                instance = generator(digraph)
                assert exists_submodel(instance.model, instance.formula) == expected
                if generator in (hampath_to_af, hampath_to_ax):
                    self.check_decisions(instance.model, instance.formula, rng)

    @pytest.mark.parametrize("generator", [hampath_to_au, hampath_to_ar], ids=["au", "ar"])
    def test_hard_instances_stay_cheap(self, generator):
        # the 2nd and 6th digraphs of acceptance criterion 6's 4-vertex
        # sample with s = v1, t = v2: in the ground-set order these took
        # 267k-1.57M search nodes per decision
        four = ("v0", "v1", "v2", "v3")
        pairs = [(u, v) for u in four for v in four]
        sample = random.Random(17).sample(range(1 << 16), 80)
        for bits in (sample[1], sample[5]):
            edges = tuple(pairs[i] for i in range(16) if bits >> i & 1)
            digraph = HampathInstance(four, edges, "v1", "v2")
            instance = generator(digraph)
            ctx = enumeration._Context(
                instance.model, instance.formula, OracleKind.AUTO, True, decision=True
            )
            verdict = enumeration._decide(ctx)
            assert verdict == (brute_hampath(digraph) is not None)
            assert ctx.nodes <= 20000, ctx.nodes


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
                # one search decides and builds the witness
                for structure in (None, sub):
                    lasso = extract_lasso_witness(model, form, structure)
                    assert exists_afag(model, form, structure) == (lasso is not None)
                    if lasso is not None:
                        induced = lasso.induced_submodel()
                        assert naive_check(model, form.to_formula(), induced), (
                            form, model, structure, lasso,
                        )

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
    # on all four arguments; labeling takes its pre-images from the
    # compiled model's image maps and builds no successor table

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
        may_passes = []
        may_masks = enumeration.may_masks

        def counted_may(compiled, wmask, emask, must, program):
            may_passes.append((wmask, emask, must, program))
            return may_masks(compiled, wmask, emask, must, program)

        monkeypatch.setattr(enumeration, "may_masks", counted_may)
        model = families.random_model(random.Random(3), 4, atoms=("p", "q"))
        phi = parse_formula("AG (p -> AF q)")
        session = enumerate_submodels(model, phi, oracle=OracleKind.EXHAUSTIVE)
        solutions = list(session)
        assert solutions
        assert labelings and successor_calls == []
        assert len(set(labelings)) == len(labelings)
        # a closure that fails phi gets a may pass, not a second labeling
        assert {key[3].formula for key in labelings} == {phi}
        assert may_passes and len(may_passes) == session.stats.may_passes
        assert {key[3].formula for key in may_passes} == {phi}

    @pytest.mark.parametrize("decide", [brute_force_enumerate, exists_submodel])
    def test_reference_and_decision_label_through_module_attribute(
        self, monkeypatch, decide
    ):
        labelings, successor_calls = self.count_labelings(monkeypatch)
        model = families.random_model(random.Random(3), 4, atoms=("p", "q"))
        phi = parse_formula("AG (p -> AF q)")
        assert decide(model, phi)
        assert labelings and successor_calls == []
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


class TestDisconnectedAfag:
    def test_one_closure_per_session(self, monkeypatch):
        # a keep-free node's lasso search reads only the root-reachable
        # part of its closure, which is the connected closure: no second
        # closure is computed for it
        calls = []
        closure = CompiledModel.closure

        def counted(self, del_worlds, del_edges, connected):
            calls.append((del_worlds, del_edges, connected))
            return closure(self, del_worlds, del_edges, connected)

        monkeypatch.setattr(CompiledModel, "closure", counted)
        rng = random.Random(15)
        models = [families.random_model(rng, n, atoms=("x",), edge_prob=0.3) for n in (4, 5) * 3]
        for model in models:
            for chain in ("AF x", "AG x", "AF AG x", "AG AF x"):
                phi = parse_formula(chain)
                calls.clear()
                session = enumerate_submodels(
                    model, phi, oracle=OracleKind.AFAG, connected=False
                )
                got = list(session)
                assert calls == [(0, 0, False)], (chain, model)
                assert len(set(got)) == len(got)
                assert set(got) == brute_force_enumerate(model, phi, connected=False), (
                    chain, model,
                )


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

    def test_chain_settles_at_the_root(self, monkeypatch):
        # EF p with p on the root holds in every completion of the root:
        # one labeling and one must pass serve the whole stream
        labelings = []
        label_masks = enumeration.label_masks

        def counted(*args):
            labelings.append(args)
            return label_masks(*args)

        monkeypatch.setattr(enumeration, "label_masks", counted)
        session = enumerate_submodels(families.chain_models(8), parse_formula("EF p"))
        assert sum(1 for _ in session) == 2 ** 8 - 1
        assert len(labelings) == 1
        assert (session.stats.must_passes, session.stats.settled) == (1, 1)

    def test_fallback_counter(self):
        # the closure fails AF x (every world has a self-loop), so no
        # subtree settles and keep-committed AF nodes fall back
        chain = families.chain_models(4)
        model = KripkeModel.of(
            [(w.id, ["x"] if w.id == "w4" else []) for w in chain.worlds],
            chain.edges,
            chain.root,
        )
        session = enumerate_submodels(model, parse_formula("AF x"), oracle=OracleKind.AFAG)
        assert len(list(session)) == 1
        assert session.stats.settled == 0
        assert session.stats.fallback_queries > 0

    def test_settled_root_makes_no_fallback(self, revisit_example):
        # every completion of the root satisfies AF x: the root settles and
        # no node below it is tested
        phi = parse_formula("AF x")
        session = enumerate_submodels(revisit_example, phi, oracle=OracleKind.AFAG)
        lines = [canonical_serialize(sub) for sub in session]
        assert session.stats.settled == 1
        assert session.stats.fallback_queries == 0
        assert sorted(lines) == sorted(
            canonical_serialize(sub) for sub in brute_force_enumerate(revisit_example, phi)
        )
        assert session.stats.to_dict()["settled"] == 1

    def test_single_use(self, two_world_model):
        session = enumerate_submodels(two_world_model, F.Top())
        list(session)
        with pytest.raises(RuntimeError):
            iter(session)


class TestRunSetup:
    """A run's setup reads phi's facts off its compiled program, checks
    its arguments in a fixed order and counts into live stats."""

    def test_program_facts_match_node_scans(self):
        battery = (
            families.formulas_by_size(("p", "q"), 300)
            + families.afag_chain_formulas("p", 4)
            + families.formulas_by_size(("p", "q"), 100, monotone=True)
            + negated_operator_battery()
            + [deep_negated_chain()]
        )
        for phi in battery:
            program = compile_formula(phi)
            rewritten, existential, universal = reference_program_facts(phi)
            assert (program.nnf is program) == (rewritten is phi), F.render_formula(phi)
            assert program.nnf.formula == rewritten
            assert (program.nnf.existential, program.nnf.universal) == (existential, universal)
            assert program.profile == F.classify_fragment(phi)
            try:
                trimmed = afag_trim(phi)
            except NotAFAGChain:
                trimmed = None
            assert program.trimmed == trimmed

    def test_error_order(self, two_world_model):
        # an invalid model first, then the limit or the vector's length,
        # then the oracle's fragment
        invalid = KripkeModel.of([("r", []), ("w", [])], [("r", "w")], "r")
        phi = parse_formula("EX p")
        for model, limit, error in (
            (invalid, 0, InvalidModelError),
            (two_world_model, 0, ValueError),
            (two_world_model, 1, OracleFragmentMismatch),
        ):
            with pytest.raises(error) as raised:
                enumerate_submodels(model, phi, oracle=OracleKind.AFAG, limit=limit)
            assert raised.type is error
        for extend, formula in ((extend_afag, phi), (extend_monotone, parse_formula("AG p"))):
            for model, decision, error in (
                (invalid, PartialDecision(()), InvalidModelError),
                (two_world_model, PartialDecision(()), ValueError),
                (two_world_model, empty_decision(two_world_model), OracleFragmentMismatch),
            ):
                with pytest.raises(error) as raised:
                    extend(ExtensionQuery(model, formula, decision))
                assert raised.type is error

    def test_each_formula_analysed_once(self, monkeypatch):
        calls = {"classify_fragment": 0, "negation_normal_form": 0}
        for name in calls:
            def counted(phi, name=name, original=getattr(F, name)):
                calls[name] += 1
                return original(phi)

            monkeypatch.setattr(F, name, counted)
        # negation above an operator: the passes run the rewrite
        phi = parse_formula("!A[p U EX q]")
        model = families.random_model(random.Random(11), 4, atoms=("p", "q"))
        query = ExtensionQuery(model, phi, empty_decision(model))
        compile_formula.cache_clear()
        for _ in range(50):
            assert list(enumerate_submodels(model, phi))
            assert exists_submodel(model, phi) and extend_exhaustive(query)
        # the first session compiles phi; no run analyses it again
        assert calls == {"classify_fragment": 1, "negation_normal_form": 1}

    def test_counters_are_live(self):
        # a closure that fails AF q gets may passes before the stream ends
        model = families.chain_models(6, atom="q")
        model = KripkeModel.of(
            [(w.id, ["q"] if w.id == "w6" else []) for w in model.worlds], model.edges, model.root
        )
        session = enumerate_submodels(model, parse_formula("AF q"))
        stream = iter(session)
        next(stream)
        assert session.stats is session._ctx.stats
        assert session.stats.may_passes > 0
        stream.close()
