import itertools
import json

import pytest

from ctlenum import families
from ctlenum.errors import InvalidModelError, ModelFormatError, RootDeleted, UnknownWorld
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
    closure,
    ground_set,
    is_valid_submodel,
    model_to_dict,
    parse_model,
    reachable_set,
    submodel_equal,
    validate_model,
)
from oracles import naive_valid


class TestValidate:
    def test_microwave_ok(self, microwave):
        assert validate_model(microwave) == []
        assert len(microwave.worlds) == 7
        assert len(microwave.edges) == 13

    def test_non_total_world(self):
        model = KripkeModel.of([("w", [])], [], "w")
        assert any("non-total" in v for v in validate_model(model))

    def test_dangling_edge(self):
        model = KripkeModel.of([("w", [])], [("w", "ghost"), ("w", "w")], "w")
        assert any("dangling" in v for v in validate_model(model))

    def test_missing_root_and_duplicates(self):
        model = KripkeModel.of([("a", []), ("a", [])], [("a", "a"), ("a", "a")], "b")
        report = "\n".join(validate_model(model))
        assert "missing root" in report
        assert "duplicate world" in report
        assert "duplicate edge" in report


class TestGroundSet:
    def test_two_world_order(self, two_world_model):
        assert ground_set(two_world_model) == [
            WorldElement("w"),
            EdgeElement("r", "r"),
            EdgeElement("r", "w"),
            EdgeElement("w", "w"),
        ]

    def test_declared_edge_order_is_ignored(self):
        model = KripkeModel.of(
            [("r", []), ("w", [])], [("w", "w"), ("r", "w"), ("r", "r")], "r"
        )
        assert [e for e in ground_set(model) if isinstance(e, EdgeElement)] == [
            EdgeElement("r", "r"),
            EdgeElement("r", "w"),
            EdgeElement("w", "w"),
        ]

    def test_size(self, microwave):
        assert len(ground_set(microwave)) == 7 - 1 + 13

    def test_stable_across_loads(self, microwave):
        text = json.dumps(model_to_dict(microwave))
        assert ground_set(parse_model(text)) == ground_set(parse_model(text))


class TestCanonicalForm:
    def test_single_world(self):
        sub = Submodel(frozenset({"r"}), frozenset({("r", "r")}))
        assert canonical_serialize(sub) == '{"worlds":["r"],"edges":[["r","r"]]}'

    def test_assignment_submodel_form(self):
        sub = Submodel(
            frozenset({"w2^0", "w0", "w1^1"}),
            frozenset({("w1^1", "w2^0"), ("w0", "w1^1"), ("w2^0", "w2^0")}),
        )
        assert json.loads(canonical_serialize(sub)) == {
            "worlds": ["w0", "w1^1", "w2^0"],
            "edges": [["w0", "w1^1"], ["w1^1", "w2^0"], ["w2^0", "w2^0"]],
        }

    def test_order_insensitive(self):
        a = Submodel(frozenset(["b", "a"]), frozenset([("a", "b"), ("b", "a")]))
        b = Submodel(frozenset(["a", "b"]), frozenset([("b", "a"), ("a", "b")]))
        assert submodel_equal(a, b)
        assert canonical_serialize(a) == canonical_serialize(b)


class TestClosure:
    def test_forced_edge_removal(self):
        model = KripkeModel.of(
            [("r", []), ("w", [])], [("r", "w"), ("w", "w"), ("r", "r")], "r"
        )
        got = closure(model, [WorldElement("w")], connected=True)
        assert got == Submodel(frozenset({"r"}), frozenset({("r", "r")}))

    def test_root_loses_totality(self):
        model = KripkeModel.of([("r", []), ("w", [])], [("r", "w"), ("w", "w")], "r")
        assert closure(model, [WorldElement("w")], connected=True) is None

    def test_single_edge_deletion(self, microwave):
        got = closure(microwave, [EdgeElement("w5", "w6")], connected=True)
        assert len(got.worlds) == 7
        assert len(got.edges) == 12
        assert ("w5", "w6") not in got.edges

    def test_root_deletion_rejected(self, microwave):
        with pytest.raises(RootDeleted):
            closure(microwave, [WorldElement("w1")], connected=True)

    def test_unknown_element_rejected(self, microwave):
        with pytest.raises(UnknownWorld):
            closure(microwave, [WorldElement("nope")], connected=True)

    @pytest.mark.parametrize("connected", [True, False])
    def test_maximality_and_idempotence(self, connected):
        # every valid submodel avoiding the deletions sits inside the result
        for model in itertools.islice(families.all_models(3, atoms=("p",)), 0, 160, 4):
            elements = ground_set(model)
            world_ids = {w.id for w in model.worlds}
            for picked in range(1 << len(elements)):
                deleted = [
                    e for i, e in enumerate(elements) if picked >> i & 1
                ]
                if picked.bit_count() > 3:
                    continue
                result = closure(model, deleted, connected=connected)
                deleted_worlds = {e.id for e in deleted if isinstance(e, WorldElement)}
                deleted_edges = {
                    (e.source, e.target)
                    for e in deleted
                    if isinstance(e, EdgeElement)
                }
                if result is not None:
                    assert naive_valid(model, result, connected)
                    assert not result.worlds & deleted_worlds
                    assert not result.edges & deleted_edges
                    again = closure(
                        model,
                        [WorldElement(w) for w in world_ids - result.worlds]
                        + [
                            EdgeElement(*e)
                            for e in set(model.edges) - result.edges
                        ],
                        connected=connected,
                    )
                    assert again == result
                for kept_worlds in _subsets(world_ids - deleted_worlds):
                    if model.root not in kept_worlds:
                        continue
                    inside = [
                        e
                        for e in model.edges
                        if e[0] in kept_worlds
                        and e[1] in kept_worlds
                        and e not in deleted_edges
                    ]
                    for kept_edges in _subsets(inside):
                        candidate = Submodel(
                            frozenset(kept_worlds), frozenset(kept_edges)
                        )
                        if naive_valid(model, candidate, connected):
                            assert result is not None
                            assert candidate.worlds <= result.worlds
                            assert candidate.edges <= result.edges


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


class TestReachability:
    def test_hampath_frame(self, square_digraph):
        from ctlenum.reductions import hampath_to_af

        model = hampath_to_af(square_digraph).model
        assert reachable_set(model, "w_s") == {"w_s", "w_a", "w_b", "w_t", "w_hat"}

    def test_self_loop(self):
        model = KripkeModel.of([("r", [])], [("r", "r")], "r")
        assert reachable_set(model, "r") == {"r"}

    def test_microwave_from_w4(self, microwave):
        got = reachable_set(microwave, "w4")
        assert got == {w.id for w in microwave.worlds}
        # cross-check against a set-based frontier expansion
        frontier, seen = {"w4"}, {"w4"}
        while frontier:
            frontier = {
                b for a, b in microwave.edges if a in frontier
            } - seen
            seen |= frontier
        assert got == seen

    def test_unknown_world(self, microwave):
        with pytest.raises(UnknownWorld):
            reachable_set(microwave, "w99")

    def test_start_outside_submodel(self, microwave):
        sub = Submodel(frozenset({"w1", "w3"}), frozenset({("w1", "w3"), ("w3", "w1")}))
        assert reachable_set(microwave, "w3", sub) == {"w1", "w3"}
        with pytest.raises(UnknownWorld):
            reachable_set(microwave, "w2", sub)


class TestSubmodelValidity:
    def test_validity_matches_naive(self, two_world_model):
        three = [m for m in families.all_models(3, atoms=()) if len(m.worlds) == 3]
        for model in [two_world_model] + three[::37]:
            ids = {w.id for w in model.worlds}
            for worlds in _subsets(ids):
                for edges in _subsets(model.edges):
                    sub = Submodel(frozenset(worlds), frozenset(edges))
                    for connected in (True, False):
                        assert is_valid_submodel(
                            model, sub, connected
                        ) == naive_valid(model, sub, connected), (model, sub)

    def test_malformed_parent_rejected(self):
        dangling = KripkeModel.of([("r", [])], [("r", "r"), ("r", "x")], "r")
        sub = Submodel(frozenset({"r"}), frozenset({("r", "r")}))
        with pytest.raises(InvalidModelError):
            is_valid_submodel(dangling, sub)
        with pytest.raises(InvalidModelError):
            reachable_set(dangling, "r")

    def test_foreign_elements_invalid(self, two_world_model):
        full = Submodel(
            frozenset(w.id for w in two_world_model.worlds),
            frozenset(two_world_model.edges),
        )
        assert is_valid_submodel(two_world_model, full)
        foreign_world = Submodel(full.worlds | {"zz"}, full.edges | {("zz", "zz")})
        foreign_edge = Submodel(full.worlds, full.edges | {("w", "r")})
        for sub in (foreign_world, foreign_edge):
            for connected in (True, False):
                assert not is_valid_submodel(two_world_model, sub, connected)


class TestPartialDecision:
    def test_prefix_discipline(self):
        PartialDecision((KEEP, DELETE, UNDECIDED, UNDECIDED))
        with pytest.raises(ValueError):
            PartialDecision((UNDECIDED, KEEP))

    def test_frontier_and_decide(self):
        decision = PartialDecision.empty(3)
        assert decision.frontier == 0
        decided = decision.decide(KEEP).decide(DELETE)
        assert decided.frontier == 2
        assert decided.states == (KEEP, DELETE, UNDECIDED)


class TestModelFiles:
    def test_round_trip(self, microwave):
        assert parse_model(json.dumps(model_to_dict(microwave))) == microwave

    def test_duplicate_world_rejected(self):
        text = json.dumps(
            {
                "worlds": [{"id": "a", "labels": []}, {"id": "a", "labels": []}],
                "edges": [["a", "a"]],
                "root": "a",
            }
        )
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_duplicate_edge_rejected(self):
        text = json.dumps(
            {
                "worlds": [{"id": "a", "labels": []}],
                "edges": [["a", "a"], ["a", "a"]],
                "root": "a",
            }
        )
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_malformed_json(self):
        with pytest.raises(ModelFormatError):
            parse_model("{nope")
