import copy
import dataclasses
import itertools
import json
import pickle
import random

import pytest

from ctlenum import families, reductions
from ctlenum.enumeration import brute_force_enumerate, enumerate_submodels
from ctlenum.errors import InvalidModelError, ModelFormatError, RootDeleted, UnknownWorld
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
    closure,
    compile_model,
    ground_set,
    is_valid_submodel,
    model_to_dict,
    parse_model,
    reachable_set,
    submodel_equal,
    validate_model,
)
from ctlenum.formula import parse_formula
from oracles import naive_valid, reference_closure


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

    def test_matches_json_dumps_on_awkward_ids(self):
        ids = ['say "hi"', "back\\slash", "two words", "\u00fcber", "\u65e5\u672c", "tab\there", "r"]
        sub = Submodel(
            frozenset(ids), frozenset((a, b) for a in ids for b in ids[::2])
        )
        for case in (sub, Submodel(frozenset(ids[:1]), frozenset())):
            want = json.dumps(
                {
                    "worlds": sorted(case.worlds),
                    "edges": [list(e) for e in sorted(case.edges)],
                },
                separators=(",", ":"),
            )
            assert canonical_serialize(case) == want

    def test_order_insensitive(self):
        a = Submodel(frozenset(["b", "a"]), frozenset([("a", "b"), ("b", "a")]))
        b = Submodel(frozenset(["a", "b"]), frozenset([("b", "a"), ("a", "b")]))
        assert submodel_equal(a, b)
        assert canonical_serialize(a) == canonical_serialize(b)


def _reference_line(sub: Submodel) -> str:
    """The sort-and-encode line: a hand-built copy carries no stored line."""
    plain = Submodel(frozenset(sub.worlds), frozenset(sub.edges))
    assert plain._line is None
    return canonical_serialize(plain)


def _assert_mask_lines(model: KripkeModel, samples: int, rng: random.Random):
    """Submodels built from masks (all of them when few, else a random
    sample, the empty and the full masks included) serialize like their
    hand-built copies."""
    compiled = CompiledModel(model)
    if compiled.n + compiled.m <= 12:
        pairs = itertools.product(range(1 << compiled.n), range(1 << compiled.m))
    else:
        pairs = [(0, 0), (compiled.all_worlds, compiled.all_edges)] + [
            (rng.getrandbits(compiled.n), rng.getrandbits(compiled.m))
            for _ in range(samples)
        ]
    for wmask, emask in pairs:
        sub = compiled.submodel(wmask, emask)
        assert sub._line is not None
        assert canonical_serialize(sub) == _reference_line(sub)


class TestMaskBuiltLine:
    """CompiledModel.submodel joins pre-encoded fragments in rank order;
    the sort-and-encode path of canonical_serialize is the reference."""

    def test_awkward_ids(self):
        ids = ['say "hi"', "back\\slash", "two words", "über", "日本",
               "tab\there", "r", "", "\U0001f600", "new\nline", "[x]", "a,b"]
        rng = random.Random(7)
        edges = [(a, b) for a in ids for b in ids if rng.random() < 0.3]
        edges += [(a, a) for a in ids if (a, a) not in edges]
        model = KripkeModel.of([(w, []) for w in ids], edges, "r")
        assert len(edges) > 16  # several eight-bit chunks of edges
        _assert_mask_lines(model, 400, rng)
        a, b, c = ids[:3]
        small = KripkeModel.of([(w, []) for w in (a, b, c)], [(a, b), (b, c), (c, a)], a)
        _assert_mask_lines(small, 0, rng)

    def test_string_order_differs_from_declaration_order(self):
        ids = [f"w{i}" for i in range(1, 20)]
        assert sorted(ids) != ids  # "w10" sorts before "w2"
        edges = [(a, b) for a, b in zip(ids, ids[1:])] + [(w, w) for w in ids]
        model = KripkeModel.of([(w, []) for w in ids], edges, "w1")
        _assert_mask_lines(model, 400, random.Random(8))

    def test_edge_id_order_differs_from_index_order(self):
        # edges are numbered by world index; "b" is declared first, so
        # ("b", "a") has a lower index than ("a", "b") but sorts after it
        model = KripkeModel.of(
            [("b", []), ("a", []), ("c", [])],
            [("a", "b"), ("b", "a"), ("c", "a"), ("a", "c"), ("b", "c"), ("c", "c")],
            "b",
        )
        compiled = CompiledModel(model)
        pairs = [(compiled.ids[s], compiled.ids[t]) for s, t in compiled.edges]
        assert sorted(pairs) != pairs
        _assert_mask_lines(model, 0, random.Random(9))

    @pytest.mark.parametrize("connected", [True, False])
    def test_solution_streams_on_small_models(self, connected):
        texts = ("true", "EF p", "AG q", "A[p U q]", "EG (p | q)", "AX !p")
        formulas = [parse_formula(t) for t in texts]
        models = list(families.all_models(3, atoms=("p", "q"), connected=connected))[::120]
        seen = 0
        for model in models:
            for phi in formulas:
                solutions = list(enumerate_submodels(model, phi, connected=connected))
                solutions += brute_force_enumerate(model, phi, connected=connected)
                for sub in solutions:
                    assert canonical_serialize(sub) == _reference_line(sub)
                seen += len(solutions)
        assert seen > 500

    def test_copies_of_an_engine_submodel(self, microwave):
        sub = next(iter(enumerate_submodels(microwave, parse_formula("EF true"))))
        line = _reference_line(sub)
        assert canonical_serialize(sub) == line
        for other in (
            pickle.loads(pickle.dumps(sub)),
            copy.copy(sub),
            copy.deepcopy(sub),
            dataclasses.replace(sub),
        ):
            assert other == sub
            assert hash(other) == hash(sub)
            assert canonical_serialize(other) == line
        assert "_line" not in repr(sub)
        fewer = dataclasses.replace(sub, edges=frozenset())
        assert canonical_serialize(fewer) == _reference_line(fewer)
        assert dataclasses.fields(sub) == dataclasses.fields(Submodel(frozenset(), frozenset()))


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


    @pytest.mark.parametrize("connected", [True, False])
    def test_matches_set_at_a_time_reference(self, connected):
        rng = random.Random(4111)
        for model in _cascading_models(rng):
            c = compile_model(model)
            for _ in range(120):
                del_worlds, del_edges = _random_deletions(rng, c)
                got = c.closure(del_worlds, del_edges, connected)
                want = reference_closure(c, del_worlds, del_edges, connected)
                assert got == want, (model, del_worlds, del_edges)

    @pytest.mark.parametrize("connected", [True, False])
    def test_shrink_matches_set_at_a_time_reference(self, connected):
        # the kernel from the closure of a subset of the deletions: a
        # random subset, none, and all of them (nothing left to remove);
        # a fresh compiled model per call keeps the closure cache from
        # answering in the kernel's place
        rng = random.Random(5113)
        for model in _cascading_models(rng):
            c = compile_model(model)
            for _ in range(60):
                del_worlds, del_edges = _random_deletions(rng, c)
                want = reference_closure(c, del_worlds, del_edges, connected)
                part_worlds = del_worlds & rng.getrandbits(c.n)
                part_edges = del_edges & rng.getrandbits(c.m)
                for subset in ((part_worlds, part_edges), (0, 0), (del_worlds, del_edges)):
                    base = CompiledModel(model).closure(*subset, connected)
                    if base is None:
                        assert want is None
                        continue
                    got = CompiledModel(model).shrink(
                        base, del_worlds, del_edges, connected
                    )
                    assert got == want, (model, subset, del_worlds, del_edges)

    @pytest.mark.parametrize("connected", [True, False])
    def test_shrink_chain_matches_reference(self, connected):
        # one deletion at a time, each closure shrinking the one before,
        # as along a delete path of the search
        rng = random.Random(6007)
        for model in _cascading_models(rng):
            c = CompiledModel(model)
            order = [(1 << w, 0) for w in c.ground_worlds]
            order += [(0, 1 << e) for e in range(c.m)]
            for _ in range(8):
                rng.shuffle(order)
                cl, del_worlds, del_edges = None, 0, 0
                for wbit, ebit in order:
                    del_worlds |= wbit
                    del_edges |= ebit
                    cl = c.shrink(cl, del_worlds, del_edges, connected)
                    want = reference_closure(c, del_worlds, del_edges, connected)
                    assert cl == want, (model, del_worlds, del_edges)
                    if cl is None:
                        break

    @pytest.mark.parametrize("connected", [True, False])
    def test_keep_aware_shrink(self, connected):
        # with keep, the kernel gives the reference closure, or None when
        # the reference is None or misses a kept world; one compiled model
        # serves every call, so a cached rejection would surface when the
        # same deletions come again without keep
        rng = random.Random(7219)
        for model in _cascading_models(rng):
            c = compile_model(model)
            c._closure_cache.clear()
            for _ in range(60):
                del_worlds, del_edges = _random_deletions(rng, c)
                want = reference_closure(c, del_worlds, del_edges, connected)
                keep = sum(
                    1 << w for w in c.ground_worlds
                    if not del_worlds >> w & 1 and rng.random() < 0.3
                )
                part_worlds = del_worlds & rng.getrandbits(c.n)
                part_edges = del_edges & rng.getrandbits(c.m)
                base = c.closure(part_worlds, part_edges, connected)
                if base is None:
                    assert want is None
                    continue
                got = c.shrink(base, del_worlds, del_edges, connected, keep)
                if got is None:
                    assert want is None or keep & ~want[0]
                    again = c.shrink(base, del_worlds, del_edges, connected)
                    assert again == want, (model, del_worlds, del_edges, keep)
                else:
                    assert got == want, (model, del_worlds, del_edges, keep)


def _cascading_models(rng):
    """Models whose deaths cascade over several hops: a chain, larger
    random models, and hampath-au/ar models."""
    models = [families.chain_models(8)]
    models += [
        families.random_model(rng, n, ("p",), connected=linked)
        for n in (6, 7, 8)
        for linked in (True, False)
        for _ in range(2)
    ]
    vertices = ("a", "b", "c")
    pairs = [(u, v) for u in vertices for v in vertices if u != v]
    for _ in range(3):
        edges = tuple(pair for pair in pairs if rng.random() < 0.6)
        instance = reductions.HampathInstance(vertices, edges, "a", "c")
        models.append(reductions.hampath_to_au(instance).model)
        models.append(reductions.hampath_to_ar(instance).model)
    return models


def _random_deletions(rng, c):
    density = rng.choice((0.05, 0.15, 0.3, 0.5))
    del_worlds = sum(1 << w for w in c.ground_worlds if rng.random() < density)
    del_edges = sum(1 << e for e in range(c.m) if rng.random() < density)
    return del_worlds, del_edges


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

    @pytest.mark.parametrize("label", [["x"], 3, None])
    def test_non_string_label_rejected(self, label):
        text = json.dumps(
            {"worlds": [{"id": "a", "labels": [label]}], "edges": [["a", "a"]], "root": "a"}
        )
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_malformed_json(self):
        with pytest.raises(ModelFormatError):
            parse_model("{nope")
