import random

import pytest

from ctlenum import families
from ctlenum import formula as F
from ctlenum.errors import InvalidModelError
from ctlenum.formula import duality_equivalents, parse_formula
from ctlenum.kripke import KripkeModel, Submodel
from ctlenum.modelcheck import check, check_equiv, label
from oracles import naive_check, naive_sat_worlds


def small_family(max_worlds=3, atoms=("p",)):
    return list(families.all_models(max_worlds, atoms=atoms))


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
        models = small_family()
        battery = families.formulas_by_size(("p",), 40) + families.afag_chain_formulas(
            "p", 3
        )
        for model in models[::5]:
            for phi in battery:
                mine = label(model, phi)
                naive = naive_sat_worlds(model, phi)
                assert mine[phi] == frozenset(naive[phi]), (
                    F.render_formula(phi),
                    model,
                )

    def test_agreement_two_atoms(self):
        models = small_family(max_worlds=2, atoms=("p", "q"))
        battery = families.formulas_by_size(("p", "q"), 60)
        for model in models:
            for phi in battery:
                assert check(model, phi) == naive_check(model, phi)


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
