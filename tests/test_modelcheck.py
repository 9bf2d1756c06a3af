import itertools
import random

import pytest

from ctlenum import families
from ctlenum import formula as F
from ctlenum.errors import InvalidModelError
from ctlenum.formula import duality_equivalents, parse_formula
from ctlenum.kripke import _CHUNK, KripkeModel, Submodel
from ctlenum.modelcheck import check, check_equiv, label
from oracles import naive_check, naive_sat_worlds


def small_family(max_worlds=3, atoms=("p",)):
    return list(families.all_models(max_worlds, atoms=atoms))


def chunk_spanning_models(seed, count, atoms):
    """Random models of 9-20 worlds and more than two chunks of edges, so
    the labeler's image maps span several chunks, some ending in a short
    one. Each is a random lasso through every world plus a few edges:
    sparse enough for the path-unfolding oracle."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        n = rng.randint(9, 20)
        order = list(range(1, n))
        rng.shuffle(order)
        edges = set(zip([0, *order], [*order, rng.randrange(n)]))
        while len(edges) <= 2 * _CHUNK or len(edges) < n + 3:
            edges.add((rng.randrange(n), rng.randrange(n)))
        models.append(
            KripkeModel.of(
                [(f"w{i}", [a for a in atoms if rng.random() < 0.5]) for i in range(n)],
                [(f"w{a}", f"w{b}") for a, b in edges],
                "w0",
            )
        )
    assert all(len(m.worlds) > _CHUNK and len(m.edges) > 2 * _CHUNK for m in models)
    assert any(len(m.worlds) % _CHUNK and len(m.edges) % _CHUNK for m in models)
    return models


class TestGoldens:
    def test_faulty_oven_fails(self, microwave, microwave_formula):
        result = label(microwave, microwave_formula)
        assert "w1" not in result[microwave_formula]

    def test_edge_cut_does_not_rescue_strong_until(
        self, microwave_cut, microwave_formula
    ):
        # the w2 <-> w5 cycle never reaches a Start-free world, so the
        # strong until fails at w2 with or without the (w5, w6) edge
        assert not check(microwave_cut, microwave_formula)
        assert naive_check(microwave_cut, microwave_formula) is False
        until = parse_formula("A[!Heat U !Start]")
        assert "w2" not in label(microwave_cut, until)[until]

    def test_release_variant_distinguishes_edge_cut(self, microwave, microwave_cut):
        weak = parse_formula("AG (Error -> A[!Start R (!Heat | !Start)])")
        assert not check(microwave, weak)
        assert check(microwave_cut, weak)
        assert naive_check(microwave, weak) is False
        assert naive_check(microwave_cut, weak) is True

    def test_cycle_counterexample_satisfies_eg_ef(self, cycle_counterexample):
        assert check(cycle_counterexample, parse_formula("EG EF x"))

    def test_relabeled_revisit_query(self, revisit_example):
        relabeled = KripkeModel.of(
            [
                ("w1", []),
                ("w2", ["x_w2"]),
                ("w3", ["x_w3"]),
                ("w4", []),
                ("w5", []),
            ],
            revisit_example.edges,
            "w1",
        )
        assert check(relabeled, parse_formula("EF (x_w3 & EX EF x_w3)"))
        assert not check(relabeled, parse_formula("EF (x_w2 & EX EF x_w2)"))

    def test_constants(self, two_world_model):
        assert check(two_world_model, F.Top())
        assert not check(two_world_model, F.Bottom())

    def test_invalid_structure_rejected(self):
        model = KripkeModel.of([("r", []), ("w", [])], [("r", "w")], "r")
        with pytest.raises(InvalidModelError):
            check(model, F.Top())
        valid = KripkeModel.of([("r", [])], [("r", "r")], "r")
        with pytest.raises(InvalidModelError):
            check(valid, F.Top(), Submodel(frozenset({"r"}), frozenset()))

    def test_foreign_sub_rejected(self, two_world_model):
        foreign_world = Submodel(
            frozenset({"r", "zz"}), frozenset({("r", "zz"), ("zz", "zz")})
        )
        foreign_edge = Submodel(
            frozenset({"r", "w"}), frozenset({("r", "w"), ("w", "r"), ("w", "w")})
        )
        for sub in (foreign_world, foreign_edge):
            with pytest.raises(InvalidModelError):
                check(two_world_model, F.Top(), sub)
            with pytest.raises(InvalidModelError):
                label(two_world_model, F.Top(), sub)


class TestLabeling:
    def test_boolean_entries_are_pointwise(self, microwave):
        phi = parse_formula("Close & !Heat | Error")
        result = label(microwave, phi)
        close, heat, error = (
            result[F.Atom("Close")],
            result[F.Atom("Heat")],
            result[F.Atom("Error")],
        )
        assert result[phi] == (close - heat) | error

    def test_restriction_changes_satisfaction(self, two_world_model):
        phi = F.EX(F.Atom("q"))
        labeled = KripkeModel.of(
            [("r", []), ("w", ["q"])], two_world_model.edges, "r"
        )
        assert check(labeled, phi)
        only_root = Submodel(frozenset({"r"}), frozenset({("r", "r")}))
        assert not check(labeled, phi, only_root)


class TestSemanticsOracle:
    def test_agreement_with_path_unfolding(self):
        models = small_family()[::5] + chunk_spanning_models(11, 4, ("p",))
        battery = families.formulas_by_size(("p",), 40) + families.afag_chain_formulas(
            "p", 3
        )
        for model in models:
            for phi in battery:
                mine = label(model, phi)
                naive = naive_sat_worlds(model, phi)
                for node, worlds in mine.items():
                    assert worlds == frozenset(naive[node]), (
                        F.render_formula(node),
                        model,
                    )

    def test_agreement_two_atoms(self):
        models = small_family(max_worlds=2, atoms=("p", "q"))
        battery = families.formulas_by_size(("p", "q"), 60)
        for model in models:
            for phi in battery:
                assert check(model, phi) == naive_check(model, phi)


class TestProgramLabeler:
    # every operator kind, nested fixpoints included; checked subformula by
    # subformula, on models large enough for paths longer than three steps
    TEXTS = (
        "true", "false", "!p", "p & q", "p | !q", "EX p", "AX q",
        "EF p", "AF q", "EG p", "AG q", "E[p U q]", "A[p U q]",
        "E[p R q]", "A[p R q]", "E[p U EX E[q U p]]", "A[p R AF q]",
        "EG EF p", "AG AF p", "AF AG q", "A[!q U (p & AX q)]",
        "E[(p | q) R EG !p]", "A[E[p U q] U AG (p | q)]",
        "E[A[p R q] R EX !q]", "AF (q & EX EX EX p)", "EG (p | AX q)",
        "A[q R E[p U !q]]", "AG (p -> E[q U EG p])", "EX AX EX AX p",
        "EF (p & q & EX !p)", "AF (p & !q & AX p)", "E[!q U (p & q)]",
        "A[(p | q) U (p & q)]", "EG !(p & q)", "A[(p & q) R (p | q)]",
    )

    def test_agreement_with_path_unfolding_on_larger_models(self):
        rng = random.Random(6203)
        battery = [parse_formula(text) for text in self.TEXTS]
        conjunction = battery[0]
        for phi in battery[1:]:
            conjunction = F.And(conjunction, phi)
        # sparse models and rare targets give fixpoints many rounds
        cases = []
        for n_worlds, edge_prob in itertools.product((4, 5, 6), (0.1, 0.2, 0.35)):
            for _ in range(4):
                model = families.random_model(
                    rng, n_worlds, atoms=("p", "q"), edge_prob=edge_prob
                )
                cases.append((model, families.random_submodel(rng, model, connected=False)))
        for model in chunk_spanning_models(12, 10, ("p", "q")):
            cases.append((model, families.random_submodel(rng, model, connected=False)))
        released = 0
        for model, sub in cases:
            for structure in (None, sub):
                mine = label(model, conjunction, structure)
                naive = naive_sat_worlds(model, conjunction, structure)
                assert list(mine) == list(naive)
                for node, worlds in mine.items():
                    assert worlds == frozenset(naive[node]), (
                        F.render_formula(node),
                        model,
                        structure,
                    )
                    if isinstance(node, F.AR) and mine[node.left] and len(worlds) > _CHUNK:
                        released += 1
        # release sets that are not empty, across chunk boundaries too
        assert released

    def test_deep_formula_without_recursion(self):
        # built in code, apart from the parser
        model = KripkeModel.of([("r", ["p"]), ("w", [])], [("r", "r"), ("w", "r")], "r")
        phi: F.Formula = F.Atom("p")
        for depth in range(5000):
            phi = F.Not(phi) if depth % 2 else F.EX(phi)
        assert check(model, phi)
        result = label(model, phi)
        assert len(result) == 5001
        assert result[phi] == frozenset({"r", "w"})


class TestDualities:
    def test_all_listed_equivalences(self):
        models = small_family()[::7]
        x, y = F.Atom("p"), F.EX(F.Atom("p"))
        roots = [
            F.EX(x), F.AG(x), F.EG(x), F.EF(x), F.AF(x),
            F.ER(x, y), F.AR(x, y), F.EG(y), F.AG(y),
        ]
        for phi in roots:
            for psi in duality_equivalents(phi):
                assert check_equiv(phi, psi, models), F.render_formula(psi)

    def test_check_equiv_finds_distinguisher(self):
        models = small_family()
        assert check_equiv(
            parse_formula("EF p"), parse_formula("E[true U p]"), models
        )
        assert check_equiv(parse_formula("AF AF p"), parse_formula("AF p"), models)
        assert not check_equiv(parse_formula("AF p"), parse_formula("AG p"), models)

    def test_distinguishing_witness_exists(self):
        # a two-world model separates AF p from AG p
        model = KripkeModel.of(
            [("r", []), ("w", ["p"])], [("r", "w"), ("w", "w")], "r"
        )
        assert check(model, parse_formula("AF p"))
        assert not check(model, parse_formula("AG p"))


class TestMonotoneFragment:
    def test_upward_preservation(self):
        rng = random.Random(20240817)
        models = small_family()
        for _ in range(600):
            model = rng.choice(models)
            sub = families.random_submodel(rng, model, connected=True)
            phi = families.random_monotone_formula(rng, 3, ("p",))
            if check(model, phi, sub):
                assert check(model, phi), F.render_formula(phi)

    def test_trim_rewrites_hold_semantically(self):
        models = small_family()
        x = F.Atom("p")
        for inner in (x, F.AF(x), F.AG(x)):
            assert check_equiv(F.AF(F.AF(inner)), F.AF(inner), models)
            assert check_equiv(F.AG(F.AG(inner)), F.AG(inner), models)
            assert check_equiv(
                F.AG(F.AF(F.AG(inner))), F.AF(F.AG(inner)), models
            )
            assert check_equiv(
                F.AF(F.AG(F.AF(inner))), F.AG(F.AF(inner)), models
            )
