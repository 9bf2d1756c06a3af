"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. One criterion is
expected to fail and is left red on purpose; see the package README
("Known red acceptance assertions") for the analysis: the oven golden
asks for weak-until behaviour that the defined strong until cannot
deliver.

Criteria 2 and 6 take minutes and carry the `slow` marker, so
`pytest -m "not slow"` leaves them out of a development run.
"""

import itertools
import math
import random
import time

import pytest

from ctlenum import families
from ctlenum import formula as F
from ctlenum.enumeration import (
    OracleKind,
    brute_force_enumerate,
    enumerate_submodels,
    exists_afag,
    exists_submodel,
    extract_lasso_witness,
)
from ctlenum.formula import afag_trim, parse_formula, render_formula
from ctlenum.kripke import canonical_serialize, ground_set
from ctlenum.modelcheck import check, check_equiv
from ctlenum.reductions import (
    HampathInstance,
    brute_hampath,
    brute_sat,
    hampath_to_af,
    hampath_to_ar,
    hampath_to_au,
    hampath_to_ax,
    sat_to_ag,
)


def report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def sweep_models():
    models = list(families.all_models(3, atoms=("p",)))
    models += list(families.all_models(2, atoms=("p", "q")))
    models += families.sample_models(4, 40, seed=5, atoms=("p",), max_edges=10)
    models += families.sample_models(4, 15, seed=9, atoms=("p", "q"), max_edges=9)
    return models


def sweep_formulas():
    general = families.formulas_by_size(("p", "q"), 18)
    chains = families.afag_chain_formulas("p", 4)
    monotone = families.formulas_by_size(("p", "q"), 12, monotone=True)
    return general + chains + monotone


def admissible(phi):
    kinds = [OracleKind.AUTO, OracleKind.EXHAUSTIVE]
    profile = F.classify_fragment(phi)
    if profile.monotone_existential:
        kinds.append(OracleKind.MONOTONE)
    if profile.afag_chain and not isinstance(phi, F.Atom):
        kinds.append(OracleKind.AFAG)
    return kinds


class TestCriterion1:
    def test_oven_golden(self, microwave, microwave_cut, microwave_formula):
        start = time.perf_counter()
        full_fails = not check(microwave, microwave_formula)
        cut_satisfies = check(microwave_cut, microwave_formula)
        target = canonical_serialize(
            __import__("ctlenum").Submodel(
                frozenset(w.id for w in microwave.worlds),
                frozenset(e for e in microwave.edges if e != ("w5", "w6")),
            )
        )
        emitted = {
            canonical_serialize(s)
            for s in enumerate_submodels(microwave, microwave_formula)
        }
        includes_target = target in emitted
        elapsed = time.perf_counter() - start
        ok = full_fails and cut_satisfies and includes_target and elapsed < 1.0
        report(
            1,
            ok,
            f"full-model-fails={full_fails} cut-satisfies={cut_satisfies} "
            f"enumeration-includes-cut={includes_target} "
            f"solutions={len(emitted)} elapsed={elapsed:.2f}s (<1s)",
        )
        assert full_fails
        assert elapsed < 1.0
        # red on purpose: the w2<->w5 cycle defeats the strong until in the
        # cut model as well, so these two goldens cannot hold as stated
        assert cut_satisfies, "cut model fails the strong-until constraint"
        assert includes_target

    def test_oven_weak_reading_context(self, microwave, microwave_cut):
        # the prose behind the golden: no Heat strictly before a Start-free
        # world; the weak (release) rendering distinguishes the two models
        weak = parse_formula("AG (Error -> A[!Start R (!Heat | !Start)])")
        assert not check(microwave, weak)
        assert check(microwave_cut, weak)


class TestCriterion2:
    @pytest.mark.slow
    def test_oracle_equivalence_sweep(self):
        start = time.perf_counter()
        models = sweep_models()
        formulas = sweep_formulas()
        mismatches = 0
        pairs = 0
        for model in models:
            for phi in formulas:
                for connected in (True, False):
                    expected = brute_force_enumerate(model, phi, connected=connected)
                    pairs += 1
                    for kind in admissible(phi):
                        got = set(
                            enumerate_submodels(
                                model, phi, oracle=kind, connected=connected
                            )
                        )
                        if got != expected:
                            mismatches += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 600
        report(
            2,
            ok,
            f"{len(models)} models x {len(formulas)} formulas, "
            f"{pairs} brute-force baselines, mismatches={mismatches}, "
            f"elapsed={elapsed:.0f}s (<600s)",
        )
        assert mismatches == 0
        assert elapsed < 600


class TestCriterion3:
    def test_monotone_preservation(self):
        start = time.perf_counter()
        rng = random.Random(424242)
        violations = 0
        for _ in range(10_000):
            model = families.random_model(
                rng, rng.randrange(2, 5), atoms=("p", "q"), edge_prob=0.4
            )
            sub = families.random_submodel(rng, model, connected=True)
            phi = families.random_monotone_formula(rng, 3, ("p", "q"))
            if check(model, phi, sub) and not check(model, phi):
                violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 60
        report(
            3,
            ok,
            f"10000 random (model, submodel, formula) triples, "
            f"violations={violations}, elapsed={elapsed:.0f}s (<60s)",
        )
        assert violations == 0
        assert elapsed < 60


class TestCriterion4:
    def test_trimming_soundness(self):
        start = time.perf_counter()
        models = list(families.all_models(3, atoms=("x",)))
        x = F.Atom("x")
        failures = 0
        for inner in (x, F.AF(x), F.AG(x)):
            failures += not check_equiv(F.AF(F.AF(inner)), F.AF(inner), models)
            failures += not check_equiv(F.AG(F.AG(inner)), F.AG(inner), models)
            failures += not check_equiv(
                F.AG(F.AF(F.AG(inner))), F.AF(F.AG(inner)), models
            )
            failures += not check_equiv(
                F.AF(F.AG(F.AF(inner))), F.AG(F.AF(inner)), models
            )
        golden = render_formula(
            afag_trim(parse_formula("AF AG AG AF x")).to_formula()
        )
        elapsed = time.perf_counter() - start
        ok = failures == 0 and golden == "AG AF x" and elapsed < 60
        report(
            4,
            ok,
            f"four rewrites x three bodies over {len(models)} models, "
            f"failures={failures}, trim golden={golden!r}, "
            f"elapsed={elapsed:.0f}s (<60s)",
        )
        assert failures == 0
        assert golden == "AG AF x"
        assert elapsed < 60


class TestCriterion5:
    def test_revisit_algorithm_goldens(self, cycle_counterexample, revisit_example):
        start = time.perf_counter()
        form = afag_trim(parse_formula("AG AF x"))
        counterexample_rejected = not exists_afag(cycle_counterexample, form)
        example_accepted = exists_afag(revisit_example, form)
        lasso = extract_lasso_witness(revisit_example, form)
        induced_ok = lasso is not None and check(
            revisit_example, parse_formula("AG AF x"), lasso.induced_submodel()
        )
        elapsed = time.perf_counter() - start
        ok = counterexample_rejected and example_accepted and induced_ok and elapsed < 1
        report(
            5,
            ok,
            f"counterexample-rejected={counterexample_rejected} "
            f"example-accepted={example_accepted} "
            f"lasso={lasso.stem if lasso else None}+{lasso.cycle if lasso else None} "
            f"induced-checks={induced_ok} elapsed={elapsed:.2f}s (<1s)",
        )
        assert counterexample_rejected
        assert example_accepted
        assert induced_ok
        assert elapsed < 1


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


class TestCriterion6:
    @pytest.mark.slow
    def test_reduction_existence_equivalence(self):
        start = time.perf_counter()
        sat_mismatches = 0
        sat_cases = 0
        for phi in nnf_battery():
            expected = brute_sat(phi) is not None
            for encoding in ("negation", "relabel"):
                instance = sat_to_ag(phi, encoding=encoding)
                sat_cases += 1
                sat_mismatches += (
                    exists_submodel(instance.model, instance.formula) != expected
                )

        generators = {
            "visit-all": hampath_to_af,
            "step-bound": hampath_to_ax,
            "diamond": hampath_to_au,
            "release": hampath_to_ar,
        }
        mismatches = {name: 0 for name in generators}
        cases = {name: 0 for name in generators}

        def run(digraph):
            expected = brute_hampath(digraph) is not None
            for name, generator in generators.items():
                instance = generator(digraph)
                cases[name] += 1
                got = exists_submodel(instance.model, instance.formula)
                mismatches[name] += got != expected

        for vertices in [("v0", "v1"), ("v0", "v1", "v2")]:
            pairs = [(u, v) for u in vertices for v in vertices]
            for bits in range(1 << len(pairs)):
                edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
                for s, t in itertools.permutations(vertices, 2):
                    run(HampathInstance(vertices, edges, s, t))

        rng = random.Random(17)
        four = ("v0", "v1", "v2", "v3")
        pairs4 = [(u, v) for u in four for v in four]
        for bits in rng.sample(range(1 << 16), 80):
            edges = tuple(pairs4[i] for i in range(16) if bits >> i & 1)
            for s, t in [("v0", "v3"), ("v1", "v2")]:
                digraph = HampathInstance(four, edges, s, t)
                expected = brute_hampath(digraph) is not None
                for name, generator in (
                    ("visit-all", hampath_to_af),
                    ("step-bound", hampath_to_ax),
                ):
                    instance = generator(digraph)
                    cases[name] += 1
                    mismatches[name] += (
                        exists_submodel(instance.model, instance.formula) != expected
                    )

        elapsed = time.perf_counter() - start
        ok = (
            sat_mismatches == 0
            and all(m == 0 for m in mismatches.values())
            and elapsed < 900
        )
        detail = ", ".join(
            f"{name}={mismatches[name]}/{cases[name]}" for name in generators
        )
        report(
            6,
            ok,
            f"sat mismatches={sat_mismatches}/{sat_cases}, hampath mismatches: "
            f"{detail}, elapsed={elapsed:.0f}s (<900s)",
        )
        assert sat_mismatches == 0
        assert mismatches["visit-all"] == 0
        assert mismatches["step-bound"] == 0
        assert mismatches["diamond"] == 0
        assert elapsed < 900
        # the target exit steps into a world without y and z, so no
        # pending release discharges there and only routes through all
        # n diamonds satisfy the nested-release formula
        assert mismatches["release"] == 0, (
            f"release construction mismatches brute-force Hamiltonian "
            f"search on {mismatches['release']}/{cases['release']} instances"
        )


class TestCriterion7:
    def test_polynomial_delay_accounting(self):
        start = time.perf_counter()
        phi = parse_formula("EF p")
        sizes = []
        mean_delays = []
        bound_violations = 0
        for n in range(5, 13):
            model = families.chain_models(n)
            ground = len(ground_set(model))
            session = enumerate_submodels(model, phi, oracle=OracleKind.MONOTONE)
            count = sum(1 for _ in session)
            assert count == 2 ** n - 1
            bound = 2 * ground + 1
            bound_violations += sum(
                1 for calls in session.stats.oracle_calls if calls > bound
            )
            sizes.append(ground)
            mean_delays.append(
                sum(session.stats.delays_ns) / len(session.stats.delays_ns)
            )
        xs = [math.log(s) for s in sizes]
        ys = [math.log(d) for d in mean_delays]
        n_pts = len(xs)
        mean_x = sum(xs) / n_pts
        mean_y = sum(ys) / n_pts
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        elapsed = time.perf_counter() - start
        ok = bound_violations == 0 and slope <= 3.5 and elapsed < 120
        report(
            7,
            ok,
            f"chain sizes 5..12, call-bound violations={bound_violations}, "
            f"log-log delay slope={slope:.2f} (<=3.5), elapsed={elapsed:.0f}s (<120s)",
        )
        assert bound_violations == 0
        assert slope <= 3.5
        assert elapsed < 120


class TestCriterion8:
    def test_duplicate_freeness_and_determinism(self):
        start = time.perf_counter()
        models = list(families.all_models(3, atoms=("p",)))[::11]
        models += families.sample_models(4, 6, seed=5, atoms=("p",), max_edges=10)
        formulas = sweep_formulas()[::9]
        duplicate_streams = 0
        nondeterministic = 0
        for model in models:
            for phi in formulas:
                streams = [
                    [
                        canonical_serialize(s)
                        for s in enumerate_submodels(model, phi)
                    ]
                    for _ in range(2)
                ]
                if streams[0] != streams[1]:
                    nondeterministic += 1
                if len(set(streams[0])) != len(streams[0]):
                    duplicate_streams += 1
        elapsed = time.perf_counter() - start
        ok = duplicate_streams == 0 and nondeterministic == 0 and elapsed < 60
        report(
            8,
            ok,
            f"{len(models)} models x {len(formulas)} formulas, repeated runs, "
            f"duplicates={duplicate_streams}, nondeterministic={nondeterministic}, "
            f"elapsed={elapsed:.0f}s (<60s)",
        )
        assert duplicate_streams == 0
        assert nondeterministic == 0
        assert elapsed < 60
