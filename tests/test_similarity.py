"""The five similarity measures, their witnesses, and their invariants."""

import gc
import math
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import TOY_COUNTS, TOY_EDGES, TOY_SENSES
from taxsim import (
    Benchmark,
    FrequencyTable,
    SimilarityError,
    Taxonomy,
    UnknownConceptError,
    UnknownWordError,
    WORD_MEASURES,
    build_model,
    evaluate,
    finite_common_subsumers,
    sim_edge,
    sim_lch,
    sim_prob,
    sim_resnik_concepts,
    sim_resnik_words,
    sim_weighted,
    uniform_weights,
    word_similarity,
)
from taxsim.similarity import _finite_ic_subsumers

TOY_IC_A = 0.4150374992788438  # -log2(3/4)


class TestResnikConcepts:
    def test_toy_siblings(self, toy_model, toy_taxonomy):
        score = sim_resnik_concepts(toy_model, toy_taxonomy, "A1", "A2")
        assert score.value == pytest.approx(TOY_IC_A, abs=1e-12)
        assert score.witness == "A"

    def test_against_root_is_zero(self, toy_model, toy_taxonomy):
        score = sim_resnik_concepts(toy_model, toy_taxonomy, "A1", "root")
        assert score.value == 0.0
        assert score.witness == "root"

    def test_self_similarity_is_own_ic(self, toy_model, toy_taxonomy):
        score = sim_resnik_concepts(toy_model, toy_taxonomy, "A1", "A1")
        assert score.value == toy_model.ic("A1")
        assert score.witness == "A1"

    def test_specific_meet_beats_distant_meet(self, coin_model, coin_taxonomy):
        close = sim_resnik_concepts(coin_model, coin_taxonomy, "nickel", "dime")
        far = sim_resnik_concepts(coin_model, coin_taxonomy, "nickel", "credit_card")
        assert close.witness == "coin"
        assert far.witness == "medium_of_exchange"
        assert close.value > far.value

    def test_unknown_concept(self, toy_model, toy_taxonomy):
        with pytest.raises(UnknownConceptError):
            sim_resnik_concepts(toy_model, toy_taxonomy, "A1", "nope")


class TestResnikWords:
    def test_toy(self, toy_model, toy_taxonomy):
        score = sim_resnik_words(toy_model, toy_taxonomy, "x", "y")
        assert score.value == pytest.approx(TOY_IC_A, abs=1e-12)
        assert score.witness == "A"
        assert score.sense_pair == ("A1", "A2")

    def test_self_similarity_most_informative_sense(self, toy_model, toy_taxonomy):
        score = sim_resnik_words(toy_model, toy_taxonomy, "x", "x")
        assert score.value == 1.0
        assert score.witness == "A1"

    def test_unknown_word_named(self, toy_model, toy_taxonomy):
        with pytest.raises(UnknownWordError, match="unlisted"):
            sim_resnik_words(toy_model, toy_taxonomy, "x", "unlisted")

    def test_dominates_every_sense_pair(self, drug_model, drug_taxonomy):
        t, m = drug_taxonomy, drug_model
        word_level = sim_resnik_words(m, t, "tobacco", "horse").value
        for c1 in t.senses_of("tobacco"):
            for c2 in t.senses_of("horse"):
                assert word_level >= sim_resnik_concepts(m, t, c1, c2).value


class TestEdge:
    def test_toy(self, toy_taxonomy):
        score = sim_edge(toy_taxonomy, "x", "y")
        assert score.value == 2.0  # 2*MAX - len = 4 - 2
        assert score.sense_pair == ("A1", "A2")
        assert score.witness is None

    def test_shared_sense_scores_twice_max(self):
        t = Taxonomy.build(TOY_EDGES, {**TOY_SENSES, "x2": {"A1"}})
        assert sim_edge(t, "x", "x2").value == 4.0

    def test_identical_word(self, toy_taxonomy):
        assert sim_edge(toy_taxonomy, "x", "x").value == 4.0

    def test_coin_distances(self, coin_taxonomy):
        # MAX=5; nickel-dime meet 2 edges apart, nickel-credit_card 5
        assert sim_edge(coin_taxonomy, "nickel", "dime").value == 8.0
        assert sim_edge(coin_taxonomy, "nickel", "card").value == 5.0

    def test_unknown_word(self, toy_taxonomy):
        with pytest.raises(UnknownWordError):
            sim_edge(toy_taxonomy, "x", "unlisted")


class TestPathSensePair:
    def test_shared_child_beats_route_through_root(self):
        # two depth-3 branches joined only by a shared child s: the
        # shortest path a3 -> s -> b3 runs down, not up through top
        edges = [
            ("a1", "top"), ("a2", "a1"), ("a3", "a2"),
            ("b1", "top"), ("b2", "b1"), ("b3", "b2"),
            ("s", "a3"), ("s", "b3"),
        ]
        t = Taxonomy.build(edges, {"p": {"a3"}, "q": {"b3"}})
        assert t.max_depth == 4
        assert t.shortest_path_len("a3", "b3") == 2
        edge = sim_edge(t, "p", "q")
        assert edge.value == 2 * 4 - 2
        assert edge.sense_pair == ("a3", "b3")
        assert sim_lch(t, "p", "q").value == 2.0  # -log2(2/8)

    def test_tied_second_sense_pair_keeps_first(self):
        # "p" has senses a1 and b1, each 4 edges from c1: the pruned
        # search of the second pair must not displace the first
        edges = [("a", "top"), ("b", "top"), ("c", "top"),
                 ("a1", "a"), ("b1", "b"), ("c1", "c")]
        t = Taxonomy.build(edges, {"p": {"a1", "b1"}, "q": {"c1"}})
        assert t.concepts().index("a1") < t.concepts().index("b1")
        assert t.shortest_path_len("a1", "c1") == t.shortest_path_len("b1", "c1") == 4
        for score in (sim_edge(t, "p", "q"), sim_lch(t, "p", "q")):
            assert score.sense_pair == ("a1", "c1")
        assert sim_edge(t, "q", "p").sense_pair == ("c1", "a1")

    def test_sense_pair_matches_oracle_on_random_dags(self):
        checked = 0
        ties = 0
        for k, (concepts, edges, senses, _) in enumerate(helpers.random_instances()):
            t = Taxonomy.build(edges, senses, concepts=concepts)
            order = t.concepts()
            rng = random.Random(k)
            words = sorted(senses)
            pairs = [(rng.choice(words), rng.choice(words)) for _ in range(8)]
            pairs.append((words[0], words[0]))
            for w1, w2 in pairs:
                expected = helpers.oracle_min_sense_pair(order, edges, senses, w1, w2)
                assert sim_edge(t, w1, w2).sense_pair == expected
                if t.max_depth >= 1:
                    assert sim_lch(t, w1, w2).sense_pair == expected
                lengths = [
                    helpers.oracle_path_len(order, edges, c1, c2)
                    for c1 in senses[w1] for c2 in senses[w2]
                ]
                ties += lengths.count(min(lengths)) > 1
                checked += 1
        assert checked == 9 * helpers.N_RANDOM_INSTANCES
        # the tie-break must actually be exercised, not only unique minima
        assert ties > checked // 10


class TestProb:
    def test_toy(self, toy_model, toy_taxonomy):
        score = sim_prob(toy_model, toy_taxonomy, "x", "y")
        assert score.value == 0.25
        assert score.witness == "A"

    def test_root_only_meet_scores_zero(self, toy_model, toy_taxonomy):
        score = sim_prob(toy_model, toy_taxonomy, "x", "z")
        assert score.value == 0.0
        assert score.witness == "root"

    def test_unseen_shared_sense_scores_one(self):
        # words g, h share concept G that no counted word touches: p=0
        t = Taxonomy.build(
            TOY_EDGES + [("G", "A")],
            {**TOY_SENSES, "g": {"G"}, "h": {"G"}},
        )
        model = build_model(t, FrequencyTable.from_counts(TOY_COUNTS))
        score = sim_prob(model, t, "g", "h")
        assert score.value == 1.0
        assert score.witness == "G"
        # the ic-based measure skips the unseen concept instead
        resnik = sim_resnik_words(model, t, "g", "h")
        assert resnik.witness == "A"


def _finite_ic(model):
    return lambda c: None if math.isinf(model.ic(c)) else model.ic(c)


def _one_minus_p(model):
    return lambda c: 1.0 - model.p(c)


class TestBestSubsumerOracle:
    """Witness and sense pair of resnik and prob against full enumeration."""

    def test_tied_sense_pairs_keep_first(self):
        # p = {a1, b1}, q = {a2, b2}: pairs (a1, a2) and (b1, b2) meet at a
        # and b, which are equally informative; the first pair wins
        edges = [("a", "top"), ("b", "top"), ("c", "top"),
                 ("a1", "a"), ("a2", "a"), ("b1", "b"), ("b2", "b")]
        senses = {"p": {"a1", "b1"}, "q": {"a2", "b2"}, "r": {"c"}}
        t = Taxonomy.build(edges, senses)
        model = build_model(t, FrequencyTable.from_counts({"p": 1, "q": 1, "r": 2}))
        assert model.ic("a") == model.ic("b") == 1.0
        order = t.concepts()
        for w1, w2, pair, witness in (("p", "q", ("a1", "a2"), "a"),
                                      ("q", "p", ("a2", "a1"), "a")):
            score = sim_resnik_words(model, t, w1, w2)
            assert (score.value, score.witness, score.sense_pair) == (1.0, witness, pair)
            assert helpers.oracle_best_subsumer(
                order, edges, (senses[w1], senses[w2]), _finite_ic(model)
            ) == (1.0, witness, pair)

    def test_tied_subsumers_keep_smallest_index(self):
        # k and m cover the same words, so 1 - p (and ic) tie; m is
        # interned first, so it wins although k is the deeper subsumer
        edges = [("m", "top"), ("k", "m"), ("k1", "k"), ("k2", "k"), ("z", "top")]
        senses = {"x": {"k1"}, "y": {"k2"}, "v": {"z"}}
        t = Taxonomy.build(edges, senses)
        model = build_model(t, FrequencyTable.from_counts({"x": 1, "y": 1, "v": 2}))
        assert model.p("k") == model.p("m") == 0.5
        assert t.concepts().index("m") < t.concepts().index("k")
        prob = sim_prob(model, t, "x", "y")
        resnik = sim_resnik_words(model, t, "x", "y")
        assert (prob.value, prob.witness, prob.sense_pair) == (0.5, "m", ("k1", "k2"))
        assert (resnik.witness, resnik.sense_pair) == ("m", ("k1", "k2"))
        assert sim_resnik_concepts(model, t, "k1", "k2").witness == "m"
        assert helpers.oracle_best_subsumer(
            t.concepts(), edges, ({"k1"}, {"k2"}), _one_minus_p(model)
        ) == (0.5, "m", ("k1", "k2"))

    def test_prob_ties_on_equal_one_minus_p_above_2_pow_53(self):
        # with N > 2**53, p(k) = 3/N and p(m) = 2/N differ but 1 - p rounds
        # to 1.0 for both: the tie keeps k, the smaller index, where an
        # argmin over p would pick m
        edges = [("k", "top"), ("m", "k"), ("x1", "m"), ("x2", "m"), ("o", "top")]
        senses = {"x": {"x1"}, "y": {"x2"}, "v": {"k"}, "big": {"o"}}
        t = Taxonomy.build(edges, senses)
        model = build_model(t, FrequencyTable.from_counts(
            {"x": 1, "y": 1, "v": 1, "big": 2 ** 60}))
        assert model.N > 2 ** 53
        assert model.p("k") != model.p("m")
        assert 1.0 - model.p("k") == 1.0 - model.p("m") == 1.0
        score = sim_prob(model, t, "x", "y")
        assert (score.value, score.witness, score.sense_pair) == (1.0, "k", ("x1", "x2"))
        assert helpers.oracle_best_subsumer(
            t.concepts(), edges, (senses["x"], senses["y"]), _one_minus_p(model)
        ) == (1.0, "k", ("x1", "x2"))

    def test_resnik_skips_zero_frequency_minimal_subsumer(self):
        # z, the minimal common subsumer of x1 and x2 (and of x1 and y2),
        # has no counted word below it: resnik passes over its +inf ic to m
        edges = [("m", "top"), ("z", "m"), ("x1", "z"), ("x2", "z"), ("y2", "z"),
                 ("o", "top")]
        senses = {"x": {"x1"}, "y": {"x2", "y2"}, "v": {"m"}, "w": {"o"}}
        t = Taxonomy.build(edges, senses)
        model = build_model(t, FrequencyTable.from_counts({"x": 0, "y": 0, "v": 1, "w": 1}))
        assert math.isinf(model.ic("z")) and model.ic("m") == 1.0
        score = sim_resnik_words(model, t, "x", "y")
        assert (score.value, score.witness, score.sense_pair) == (1.0, "m", ("x1", "x2"))
        assert helpers.oracle_best_subsumer(
            t.concepts(), edges, (senses["x"], senses["y"]), _finite_ic(model)
        ) == (1.0, "m", ("x1", "x2"))
        concept = sim_resnik_concepts(model, t, "x1", "y2")
        assert (concept.value, concept.witness, concept.sense_pair) == (1.0, "m", None)

    def test_matches_oracle_on_random_dags(self):
        checked = 0
        ties = 0
        for k, (concepts, edges, senses, counts) in enumerate(helpers.random_instances()):
            t = Taxonomy.build(edges, senses, concepts=concepts)
            model = build_model(t, FrequencyTable.from_counts(counts))
            order = t.concepts()
            rng = random.Random(k)
            words = sorted(senses)
            pairs = [(rng.choice(words), rng.choice(words)) for _ in range(8)]
            pairs.append((words[0], words[0]))
            for w1, w2 in pairs:
                sense_sets = (senses[w1], senses[w2])
                for score, value in ((sim_resnik_words(model, t, w1, w2), _finite_ic(model)),
                                     (sim_prob(model, t, w1, w2), _one_minus_p(model))):
                    expected = helpers.oracle_best_subsumer(order, edges, sense_sets, value)
                    assert (score.value, score.witness, score.sense_pair) == expected
                    ties += sum(
                        value(c) == expected[0]
                        for c1 in sense_sets[0] for c2 in sense_sets[1]
                        for c in t.common_subsumers(c1, c2)
                    ) > 1
                checked += 1
            for c1, c2 in [(rng.choice(concepts), rng.choice(concepts)) for _ in range(4)]:
                score = sim_resnik_concepts(model, t, c1, c2)
                expected = helpers.oracle_best_subsumer(
                    order, edges, ({c1}, {c2}), _finite_ic(model)
                )
                assert (score.value, score.witness, (c1, c2)) == expected
        assert checked == 9 * helpers.N_RANDOM_INSTANCES
        # the tie-break must actually be exercised, not only unique maxima
        assert ties > checked // 10

    def test_resnik_ties_on_distinct_frequencies_with_equal_ic(self):
        # N = 2**62: p(b) = 2**60 / N is 0.25 exactly, and p(a) = (2**60 + 1)
        # / N rounds to 0.25, so a and b share ic 2 and 1 - p 0.75 although
        # freq(b) < freq(a); the tie keeps a, the smaller index, where the
        # least frequency would pick b
        edges = [("a", "top"), ("b", "a"), ("x1", "b"), ("x2", "b"), ("o", "top")]
        senses = {"x": {"x1"}, "y": {"x2"}, "v": {"a"}, "big": {"o"}}
        t = Taxonomy.build(edges, senses)
        model = build_model(t, FrequencyTable.from_counts(
            {"x": 2**60, "y": 0, "v": 1, "big": 3 * 2**60 - 1}))
        assert model.N == 2**62 and model.freq("b") < model.freq("a")
        assert model.ic("a") == model.ic("b") == 2.0
        assert t.index_of("a") < t.index_of("b")
        for query, value in ((sim_resnik_words, _finite_ic(model)),
                             (sim_prob, _one_minus_p(model))):
            score = query(model, t, "x", "y")
            assert (score.witness, score.sense_pair) == ("a", ("x1", "x2"))
            assert helpers.oracle_best_subsumer(
                t.concepts(), edges, (senses["x"], senses["y"]), value
            ) == (score.value, "a", ("x1", "x2"))
        assert sim_resnik_concepts(model, t, "x1", "x2").witness == "a"
        assert list(uniform_weights(model, t, "x1", "x2")) == ["a", "top", "b"]

    def test_prob_ties_a_zero_frequency_subsumer_above_2_pow_53(self):
        # N = 2**60 + 1: 1 - p(k) = 1 - 1/N rounds to 1.0, the 1 - p of the
        # zero-frequency z, so the tie keeps k, the smaller index; resnik
        # skips z and finds k too
        edges = [("k", "top"), ("z", "k"), ("x1", "z"), ("x2", "z"), ("o", "top")]
        senses = {"x": {"x1"}, "y": {"x2"}, "v": {"k"}, "big": {"o"}}
        t = Taxonomy.build(edges, senses)
        model = build_model(t, FrequencyTable.from_counts(
            {"x": 0, "y": 0, "v": 1, "big": 2**60}))
        assert model.freq("z") == 0 and model.freq("k") == 1
        assert 1.0 - model.p("k") == 1.0 - model.p("z") == 1.0
        for query, value in ((sim_prob, _one_minus_p(model)),
                             (sim_resnik_words, _finite_ic(model))):
            score = query(model, t, "x", "y")
            assert (score.witness, score.sense_pair) == ("k", ("x1", "x2"))
            assert helpers.oracle_best_subsumer(
                t.concepts(), edges, (senses["x"], senses["y"]), value
            ) == (score.value, "k", ("x1", "x2"))
        # and where no counted concept ties it, a zero-frequency subsumer wins
        model = build_model(t, FrequencyTable.from_counts({"x": 0, "y": 0, "v": 1, "big": 2}))
        score = sim_prob(model, t, "x", "y")
        assert (score.value, score.witness) == (1.0, "z")


def test_tied_frequencies_match_the_oracles():
    """The model's rank-space argmax (one min, or max, over each sense
    pair's common ranks), its tied ranks and the weighted domain, held to
    the full-enumeration oracle on DAGs whose frequencies, ic and 1 - p
    tie: one-child chains, zero-frequency subtrees and, in a third of
    them, N > 2**61, where distinct frequencies share one ic or one 1 - p.
    Every witness, sense pair and weighted domain must be the oracle's,
    and the model's tied ranks must be reached, on pairs where the least
    frequency is not the answer."""
    tied = detours = 0
    for k, (concepts, edges, senses, counts) in enumerate(
            helpers.random_tied_instances(count=helpers._budget(200))):
        t = Taxonomy.build(edges, senses, concepts=concepts)
        model = build_model(t, FrequencyTable.from_counts(counts))
        order = t.concepts()
        rng = random.Random(k)
        words = sorted(senses)
        for w1, w2 in [(rng.choice(words), rng.choice(words)) for _ in range(8)]:
            sense_sets = (senses[w1], senses[w2])
            for score, value in ((sim_resnik_words(model, t, w1, w2), _finite_ic(model)),
                                 (sim_prob(model, t, w1, w2), _one_minus_p(model))):
                assert (score.value, score.witness, score.sense_pair) == (
                    helpers.oracle_best_subsumer(order, edges, sense_sets, value))
            # the concept of least frequency among the deciding pair's finite-ic
            # common subsumers, as the rank order alone would pick it
            resnik = sim_resnik_words(model, t, w1, w2)
            finite = t.common_subsumers(*resnik.sense_pair) - {
                c for c in order if math.isinf(model.ic(c))}
            detours += resnik.witness != min(finite, key=lambda c: (model.freq(c), t.index_of(c)))
        for c1, c2 in [(rng.choice(concepts), rng.choice(concepts)) for _ in range(4)]:
            score = sim_resnik_concepts(model, t, c1, c2)
            assert (score.value, score.witness, (c1, c2)) == helpers.oracle_best_subsumer(
                order, edges, ({c1}, {c2}), _finite_ic(model))
            _check_weighted(model, t, c1, c2, concepts, edges)
        tied += bool(model._ranked.tied_ic or model._ranked.tied_one_minus_p)
    assert tied > helpers._budget(200) // 5
    assert detours > 0


class TestLch:
    def test_toy(self, toy_taxonomy):
        score = sim_lch(toy_taxonomy, "x", "y")
        assert score.value == 1.0  # -log2(2/4)

    def test_synonyms_use_floor(self, toy_taxonomy):
        assert sim_lch(toy_taxonomy, "x", "x").value == 2.0  # -log2(1/4)

    def test_configurable_floor(self, toy_taxonomy):
        assert sim_lch(toy_taxonomy, "x", "x", floor=0.5).value == 3.0

    def test_max_separation_scores_zero(self):
        t = Taxonomy.build(
            [("L1", "top"), ("L2", "top")], {"a": {"L1"}, "b": {"L2"}}
        )
        assert sim_lch(t, "a", "b").value == 0.0  # len = 2*MAX = 2

    def test_depth_zero_taxonomy_rejected(self):
        t = Taxonomy.build([], senses={"w": {"solo"}}, concepts=["solo"])
        with pytest.raises(SimilarityError, match="depth"):
            sim_lch(t, "w", "w")

    def test_parameter_validation(self, toy_taxonomy):
        with pytest.raises(ValueError, match="log_base"):
            sim_lch(toy_taxonomy, "x", "y", log_base=1.0)
        for floor in (0.0, 1.0 + 2**-52, 3.0):
            with pytest.raises(ValueError, match=r"^floor must be finite and in \(0, 1\], got "):
                sim_lch(toy_taxonomy, "x", "y", floor=floor)
        assert sim_lch(toy_taxonomy, "x", "x", floor=1).value == 2.0

    def test_synonyms_never_rank_below_a_parent_and_child(self):
        # x and z share the sense a; y's sense b is a's child.  A floor of
        # 3.0, now rejected, scored the synonyms 1.0 against 2.585
        t = Taxonomy.build([("a", "r"), ("b", "a"), ("c", "b")],
                           {"x": {"a"}, "y": {"b"}, "z": {"a"}})
        synonyms, parent_child = sim_lch(t, "x", "z"), sim_lch(t, "x", "y")
        assert synonyms.value == parent_child.value == math.log2(6)  # a tie at 1.0
        assert sim_lch(t, "x", "z", floor=0.5).value > parent_child.value

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_log_base_rejected(self, toy_taxonomy, bad):
        with pytest.raises(ValueError, match="log_base"):
            sim_lch(toy_taxonomy, "x", "y", log_base=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_floor_rejected(self, toy_taxonomy, bad):
        with pytest.raises(ValueError, match="floor"):
            sim_lch(toy_taxonomy, "x", "y", floor=bad)


class TestWeighted:
    def test_point_mass_equals_max_measure(self, toy_model, toy_taxonomy):
        resnik = sim_resnik_concepts(toy_model, toy_taxonomy, "A1", "A2")
        weights = {"A": 1.0, "root": 0.0}
        value = sim_weighted(toy_model, toy_taxonomy, "A1", "A2", weights)
        assert value == resnik.value

    def test_negative_zero_weight_is_zero(self, toy_model, toy_taxonomy):
        # -0.0 is a float >= 0: the one-pass check of all-float weights and
        # the per-weight loop that an int weight takes both accept it
        for point in (1.0, 1):
            weights = {"A": point, "root": -0.0}
            assert sim_weighted(toy_model, toy_taxonomy, "A1", "A2", weights) == TOY_IC_A

    def test_uniform_mean(self, toy_model, toy_taxonomy):
        weights = uniform_weights(toy_model, toy_taxonomy, "A1", "A2")
        assert weights == {"A": 0.5, "root": 0.5}
        value = sim_weighted(toy_model, toy_taxonomy, "A1", "A2", weights)
        assert value == pytest.approx(TOY_IC_A / 2, abs=1e-12)

    def test_convex_combination_bounded_by_max(self, coin_model, coin_taxonomy):
        resnik = sim_resnik_concepts(coin_model, coin_taxonomy, "nickel", "dime")
        weights = uniform_weights(coin_model, coin_taxonomy, "nickel", "dime")
        value = sim_weighted(coin_model, coin_taxonomy, "nickel", "dime", weights)
        assert value <= resnik.value * (1 + 1e-12) + 1e-15

    def test_domain_mismatch(self, toy_model, toy_taxonomy):
        with pytest.raises(ValueError, match="domain mismatch"):
            sim_weighted(toy_model, toy_taxonomy, "A1", "A2", {"A": 1.0})
        with pytest.raises(ValueError, match="domain mismatch"):
            sim_weighted(
                toy_model, toy_taxonomy, "A1", "A2",
                {"A": 0.5, "root": 0.25, "B": 0.25},
            )
        # unexpected keys of types that do not sort together are named, not a TypeError
        with pytest.raises(ValueError, match=r"unexpected \['B', 5\]$"):
            sim_weighted(toy_model, toy_taxonomy, "A1", "A2",
                         {"A": 0.5, "root": 0.5, "B": 0.0, 5: 0.0})

    def test_weights_must_sum_to_one(self, toy_model, toy_taxonomy):
        with pytest.raises(ValueError, match="sum"):
            sim_weighted(
                toy_model, toy_taxonomy, "A1", "A2", {"A": 0.5, "root": 0.4}
            )

    def test_weights_summing_beyond_float_range(self, toy_model, toy_taxonomy):
        # math.fsum raised a bare OverflowError here
        with pytest.raises(ValueError, match=r"^weights sum to inf, expected 1\.0$"):
            sim_weighted(toy_model, toy_taxonomy, "A1", "A2", {"A": 1e308, "root": 1e308})

    def test_negative_weight_rejected(self, toy_model, toy_taxonomy):
        with pytest.raises(ValueError, match="negative weight"):
            sim_weighted(
                toy_model, toy_taxonomy, "A1", "A2", {"A": 1.5, "root": -0.5}
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, toy_model, toy_taxonomy, bad):
        # a NaN weight used to pass both checks and score nan
        with pytest.raises(ValueError, match="non-finite weight"):
            sim_weighted(toy_model, toy_taxonomy, "A1", "A2", {"A": bad, "root": 1.0})

    def test_tolerance_on_sum(self, toy_model, toy_taxonomy):
        weights = {"A": 0.5 + 2e-10, "root": 0.5}
        value = sim_weighted(toy_model, toy_taxonomy, "A1", "A2", weights)
        assert value == pytest.approx(TOY_IC_A / 2, abs=1e-9)

    def test_uniform_weights_keyed_in_index_order(self):
        # a chain of 16 concepts, named against their index order, with 9
        # leaves interned before each link so that the indices spread out
        # and a set of them does not iterate in order; the keys used to
        # follow string hashes, so their order varied from run to run
        names = [f"k{(7 * i) % 16:02d}" for i in range(16)]
        edges = []
        for parent, child in zip(names, names[1:] + ["leaf"]):
            edges += [(f"{child}-{j}", parent) for j in range(9)] + [(child, parent)]
        t = Taxonomy.build(edges, {"w": {"leaf"}})
        model = build_model(t, FrequencyTable.from_counts({"w": 1}))
        weights = uniform_weights(model, t, "leaf", "leaf")
        assert list(weights) == sorted(names + ["leaf"], key=t.index_of)
        assert list(weights) != sorted(weights)
        assert sim_weighted(model, t, "leaf", "leaf", weights) == 0.0

    def test_finite_domain_excludes_unseen_concepts(self):
        t = Taxonomy.build(
            TOY_EDGES + [("G", "A")],
            {**TOY_SENSES, "g": {"G"}, "h": {"G"}},
        )
        model = build_model(t, FrequencyTable.from_counts(TOY_COUNTS))
        domain = finite_common_subsumers(model, t, "G", "G")
        assert domain == {"A", "root"}  # G itself has no observed frequency


class TestDispatcher:
    def test_routes_match_direct_calls(self, toy_model, toy_taxonomy):
        t, m = toy_taxonomy, toy_model
        assert word_similarity("resnik", t, "x", "y", m) == sim_resnik_words(m, t, "x", "y")
        assert word_similarity("edge", t, "x", "y") == sim_edge(t, "x", "y")
        assert word_similarity("prob", t, "x", "y", m) == sim_prob(m, t, "x", "y")
        assert word_similarity("lch", t, "x", "y") == sim_lch(t, "x", "y")

    def test_unknown_measure(self, toy_taxonomy):
        with pytest.raises(ValueError, match="unknown measure"):
            word_similarity("cosine", toy_taxonomy, "x", "y")

    def test_corpus_measures_require_model(self, toy_taxonomy):
        for measure in ("resnik", "prob"):
            with pytest.raises(ValueError, match="requires a probability model"):
                word_similarity(measure, toy_taxonomy, "x", "y")

    def test_word_functions_require_model(self, toy_taxonomy):
        # each used to fail on None.taxonomy with an AttributeError; the
        # model is checked before the words are looked up
        for query in (sim_resnik_words, sim_prob):
            for w1 in ("x", "unlisted"):
                with pytest.raises(ValueError, match="requires a probability model"):
                    query(None, toy_taxonomy, w1, "y")

    def test_lch_checks_its_arguments_in_order_before_the_words(self, toy_taxonomy):
        with pytest.raises(ValueError, match="log_base"):
            sim_lch(toy_taxonomy, "unlisted", "y", log_base=1.0, floor=0.0)
        with pytest.raises(ValueError, match="floor"):
            sim_lch(toy_taxonomy, "unlisted", "y", floor=0.0)
        flat = Taxonomy.build([], senses={"w": {"solo"}}, concepts=["solo"])
        with pytest.raises(SimilarityError, match="depth"):
            sim_lch(flat, "unlisted", "w")


@pytest.mark.parametrize("measure", ["resnik", "edge", "prob", "lch"])
def test_non_string_word_is_unknown(toy_model, toy_taxonomy, measure):
    for word in (5, None, 1.5, ("x",), ["x"]):
        for w1, w2 in ((word, "x"), ("x", word)):
            with pytest.raises(UnknownWordError):
                word_similarity(measure, toy_taxonomy, w1, w2, toy_model)


_README_EDGES = [("dog", "canine"), ("canine", "animal"), ("cat", "feline"),
                 ("feline", "animal")]
_PETS = Benchmark("pets", (("dog", "cat", 1.0), ("dog", "dog", 4.0)))


class TestModelOfAnotherTaxonomy:
    """A model's arrays are indexed by the taxonomy it was built on; with
    the same edges in another order, indices name other concepts."""

    @pytest.mark.parametrize("query", [
        lambda m, t: sim_resnik_words(m, t, "dog", "cat"),
        lambda m, t: sim_resnik_concepts(m, t, "dog", "cat"),
        lambda m, t: sim_prob(m, t, "dog", "dog"),
        lambda m, t: word_similarity("resnik", t, "dog", "cat", m),
        lambda m, t: word_similarity("prob", t, "dog", "dog", m),
        lambda m, t: evaluate("resnik", _PETS, t, m),
        lambda m, t: evaluate("prob", _PETS, t, m),
        lambda m, t: finite_common_subsumers(m, t, "dog", "cat"),
        lambda m, t: uniform_weights(m, t, "dog", "cat"),
        lambda m, t: sim_weighted(m, t, "dog", "cat", {"animal": 1.0}),
    ], ids=["resnik-words", "resnik-concepts", "prob", "dispatch-resnik", "dispatch-prob",
            "evaluate-resnik", "evaluate-prob", "finite-subsumers", "uniform-weights",
            "weighted"])
    def test_rejected(self, query):
        senses = {"dog": {"dog"}, "cat": {"cat"}}
        t1 = Taxonomy.build(_README_EDGES, senses)
        t2 = Taxonomy.build(_README_EDGES[::-1], senses)
        model = build_model(t1, FrequencyTable.from_counts({"dog": 10, "cat": 7}))
        query(model, t1)
        # over t2's numbering, the model's arrays would score dog and cat
        # 0.7655 by resnik rather than 0.0
        with pytest.raises(ValueError, match="built on another taxonomy"):
            query(model, t2)


class TestSenseConfusion:
    """A slang sense can dominate a word pair's similarity."""

    def test_narcotic_reading_outranks_plain_readings(self, drug_model, drug_taxonomy):
        t, m = drug_taxonomy, drug_model
        horse = sim_resnik_words(m, t, "tobacco", "horse")
        alcohol = sim_resnik_words(m, t, "tobacco", "alcohol")
        sugar = sim_resnik_words(m, t, "tobacco", "sugar")
        assert horse.witness == "narcotic"
        assert alcohol.witness == "drug"
        assert sugar.witness == "substance"
        assert horse.value > alcohol.value > sugar.value
        assert horse.sense_pair == ("tobacco_s", "heroin_s")


# ----------------------------------------------------------------------
# randomized invariants
# ----------------------------------------------------------------------


def _built_instance(seed, **kwargs):
    rng = random.Random(seed)
    concepts, edges, senses, counts = helpers.random_instance(rng, **kwargs)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    model = build_model(t, FrequencyTable.from_counts(counts))
    return rng, concepts, edges, senses, counts, t, model


def _sample_word_pairs(rng, senses, k=6):
    words = sorted(senses)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(k - 1)]
    pairs.append((words[0], words[0]))  # always exercise identity
    return pairs


@settings(max_examples=helpers._budget(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_measures_match_brute_force(seed):
    """``word_similarity``, which every word measure runs through and
    which calls the two family kernels directly (the model's argmax for
    resnik and prob, the set search for edge and lch), must give the
    brute-force oracles' values on random DAGs."""
    rng, concepts, edges, senses, counts, t, model = _built_instance(
        seed, max_concepts=30, max_words=15
    )
    for w1, w2 in _sample_word_pairs(rng, senses):
        resnik = sim_resnik_words(model, t, w1, w2)
        assert resnik.value == helpers.oracle_resnik_words(
            concepts, edges, senses, model, w1, w2
        )
        prob = sim_prob(model, t, w1, w2)
        assert prob.value == helpers.oracle_prob_words(
            concepts, edges, senses, model, w1, w2
        )
        edge = sim_edge(t, w1, w2)
        assert edge.value == helpers.oracle_edge_words(concepts, edges, senses, w1, w2)
        if t.max_depth >= 1:
            lch = sim_lch(t, w1, w2)
            assert lch.value == helpers.oracle_lch_words(concepts, edges, senses, w1, w2)


@settings(max_examples=helpers._budget(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetry_exact(seed):
    """Every word measure, through ``word_similarity``, must give a word
    pair in either order the same value, exactly."""
    rng, _, _, senses, _, t, model = _built_instance(seed, max_concepts=30, max_words=15)
    for w1, w2 in _sample_word_pairs(rng, senses):
        assert sim_resnik_words(model, t, w1, w2).value == sim_resnik_words(model, t, w2, w1).value
        assert sim_prob(model, t, w1, w2).value == sim_prob(model, t, w2, w1).value
        assert sim_edge(t, w1, w2).value == sim_edge(t, w2, w1).value
        if t.max_depth >= 1:
            assert sim_lch(t, w1, w2).value == sim_lch(t, w2, w1).value


@settings(max_examples=helpers._budget(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_attains_reported_value(seed):
    """The resnik and prob witness must be a common subsumer of the
    reported sense pair and attain the reported value."""
    rng, _, _, senses, _, t, model = _built_instance(seed, max_concepts=30, max_words=15)
    for w1, w2 in _sample_word_pairs(rng, senses):
        resnik = sim_resnik_words(model, t, w1, w2)
        common = t.common_subsumers(*resnik.sense_pair)
        assert resnik.witness in common
        assert model.ic(resnik.witness) == resnik.value
        prob = sim_prob(model, t, w1, w2)
        assert prob.witness in t.common_subsumers(*prob.sense_pair)
        assert 1.0 - model.p(prob.witness) == prob.value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weighted_bounds_and_point_mass(seed):
    rng, concepts, edges, _, _, t, model = _built_instance(
        seed, max_concepts=30, max_words=15
    )
    for _ in range(5):
        c1, c2 = rng.choice(concepts), rng.choice(concepts)
        resnik = sim_resnik_concepts(model, t, c1, c2)
        domain = finite_common_subsumers(model, t, c1, c2)
        assert domain == helpers.oracle_finite_common_subsumers(
            concepts, edges, model, c1, c2
        )
        point = {cid: (1.0 if cid == resnik.witness else 0.0) for cid in domain}
        assert sim_weighted(model, t, c1, c2, point) == resnik.value
        uniform = uniform_weights(model, t, c1, c2)
        mean_value = sim_weighted(model, t, c1, c2, uniform)
        assert mean_value <= resnik.value * (1 + 1e-12) + 1e-15
        assert mean_value == pytest.approx(
            math.fsum(model.ic(c) for c in domain) / len(domain), rel=1e-12, abs=1e-12
        )


def _check_weighted(model, t, c1, c2, concepts, edges):
    """The three weighted functions on one concept pair, against the
    oracles; returns the domain."""
    want = helpers.oracle_finite_common_subsumers(concepts, edges, model, c1, c2)
    assert finite_common_subsumers(model, t, c1, c2) == want
    weights = uniform_weights(model, t, c1, c2)
    assert weights == dict.fromkeys(sorted(want, key=t.index_of), 1.0 / len(want))
    assert sim_weighted(model, t, c1, c2, weights) == math.fsum(
        w * model.ic(c) for c, w in weights.items())
    return want


def test_weighted_domain_memo_matches_the_oracles():
    """``finite_common_subsumers``, ``uniform_weights`` and
    ``sim_weighted`` must give the oracle domain and ``fsum(w * ic)`` on
    random DAGs, with calls interleaved so that the one-slot domain memo
    both hits and misses.  The domain of the last (model, c1, c2) is
    kept, keyed by the objects themselves; every answer must be the
    oracle's whether a call hits that slot or misses it."""
    hits = misses = models_differ = 0
    for k, (concepts, edges, senses, counts) in enumerate(
            helpers.random_instances(count=helpers._budget(200))):
        rng = random.Random(k)
        t = Taxonomy.build(edges, senses, concepts=concepts)
        model = build_model(t, FrequencyTable.from_counts(counts))
        # the same taxonomy with only w0 counted, so more concepts have
        # zero frequency and some domains shrink
        model2 = build_model(t, FrequencyTable.from_counts({"w0": 1}))
        a, b = [(rng.choice(concepts), rng.choice(concepts)) for _ in range(2)]
        # pairs in the order A, B, A
        for c1, c2 in (a, b, a):
            _check_weighted(model, t, c1, c2, concepts, edges)
        # a second call with the same objects hits; equal ids that are other
        # objects miss, and get the same answer
        first = _finite_ic_subsumers(model, t, *a)
        hits += _finite_ic_subsumers(model, t, *a) is first
        copy = "".join(list(a[0]))
        assert copy == a[0] and copy is not a[0]
        misses += _finite_ic_subsumers(model, t, copy, a[1]) is not first
        _check_weighted(model, t, copy, a[1], concepts, edges)
        # two models on one taxonomy, queried in turn with the same objects
        domains = [_check_weighted(m, t, *a, concepts, edges) for m in (model, model2, model)]
        models_differ += domains[0] != domains[1]
        # weights edited after uniform_weights returned them: the edit is
        # scored, and the next domain and weights are the unedited ones
        weights = uniform_weights(model, t, *a)
        top = list(weights)[-1]
        weights.update(dict.fromkeys(weights, 0.0), **{top: 1.0})
        assert sim_weighted(model, t, *a, weights) == model.ic(top)
        del weights[top]
        with pytest.raises(ValueError, match="^weight domain mismatch: "):
            sim_weighted(model, t, *a, weights)
        _check_weighted(model, t, *a, concepts, edges)
    assert hits == misses == helpers._budget(200)
    assert models_differ > helpers._budget(200) // 10


def test_the_weighted_domain_slot_keeps_no_model_alive(toy_taxonomy):
    # the last domain is kept on the model itself, so it dies with it
    t = toy_taxonomy
    model = build_model(t, FrequencyTable.from_counts(TOY_COUNTS))
    assert sim_weighted(model, t, "A1", "A2", uniform_weights(model, t, "A1", "A2")) > 0
    assert vars(model)["_kept_domain"][:2] == ("A1", "A2")
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
    # a model built in its place, at the same address or not, where A
    # has no frequency, with the same id objects: the root alone
    model = build_model(t, FrequencyTable.from_counts({"z": 1}))
    assert "_kept_domain" not in vars(model)
    assert uniform_weights(model, t, "A1", "A2") == {"root": 1.0}


def test_a_key_whose_hash_follows_a_field_gets_no_stale_domain():
    # the domain slot is filled only for two ids of exact type str, so a
    # key that changes its id between calls gets the domain of the id it
    # holds then, as a fresh key does, and not the last one kept
    t = Taxonomy.build([("carnivore", "animal"), ("bird", "animal"),
                        ("cat", "carnivore"), ("dog", "carnivore")],
                       {w: {w} for w in ("cat", "dog", "bird")})
    model = build_model(t, FrequencyTable.from_counts({"cat": 1, "dog": 1, "bird": 1}))
    key = helpers.MutableId("cat")
    assert finite_common_subsumers(model, t, key, "dog") == {"animal", "carnivore"}
    key.cid = "bird"
    assert finite_common_subsumers(model, t, key, "dog") == {"animal"}
    assert finite_common_subsumers(model, t, helpers.MutableId("bird"), "dog") == {"animal"}
    assert uniform_weights(model, t, "dog", key) == {"animal": 1.0}
    assert sim_weighted(model, t, key, "dog", {"animal": 1.0}) == model.ic("animal")
    assert "_kept_domain" not in vars(model)


def test_the_family_slots_keep_no_taxonomy_or_model_alive():
    # evaluate keeps the last sweep of each measure family on its model or
    # taxonomy, and the last lookup of the rows on the taxonomy; once the
    # taxonomy and model are dropped, nothing keeps them alive
    t = Taxonomy.build(TOY_EDGES, TOY_SENSES)
    model = build_model(t, FrequencyTable.from_counts(TOY_COUNTS))
    bench = Benchmark("toy", (("x", "y", 3.0), ("x", "z", 1.0), ("y", "z", 2.0)))
    for measure in WORD_MEASURES:
        evaluate(measure, bench, t, model)
    assert vars(t)["_kept_rows"][0] is bench.rows
    # the sweeps compare, and keep, the very sense columns of the rows' lookup
    columns = vars(t)["_kept_rows"][4:]
    for sweep in (vars(t)["_kept_path_sweep"], vars(model)["_kept_corpus_sweep"]):
        assert sweep[0] is columns[0] and sweep[1] is columns[1]
    refs = weakref.ref(t), weakref.ref(model)
    del t, model
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_threads_racing_on_weighted_queries_agree_with_one_thread():
    # four threads thrash the one weighted-domain slot with two models and
    # their own pair orders; a torn or stale slot would show as a wrong
    # domain, weight or value in some thread
    rng = random.Random(9)
    edges = []
    for i in range(1, 1000):
        k = 2 if i > 1 and rng.random() < 0.1 else 1
        edges += [(f"c{i}", f"c{p}") for p in rng.sample(range(i), k)]
    senses = {f"w{i}": {f"c{i}"} for i in range(1000)}
    t = Taxonomy.build(edges, senses)
    models = [build_model(t, FrequencyTable.from_counts(
        {w: rng.randrange(3) for w in senses} | {"w0": 1})) for _ in range(2)]
    pairs = [(m, f"c{rng.randrange(1000)}", f"c{rng.randrange(1000)}")
             for _ in range(200) for m in range(2)]

    def query(m, c1, c2):
        model = models[m]
        return (finite_common_subsumers(model, t, c1, c2),
                sim_weighted(model, t, c1, c2, uniform_weights(model, t, c1, c2)))

    want = [query(*pair) for pair in pairs]
    start = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        order = list(range(len(pairs)))
        random.Random(k).shuffle(order)
        start.wait()
        got = [None] * len(pairs)
        for i in order:
            got[i] = query(*pairs[i])
        results[k] = got

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_superordinates_never_win(seed):
    # the max over all finite-ic common subsumers equals the max over just
    # the minimal ones among them: every ancestor of a subsumer is at most
    # as informative, so widening the candidate set cannot change the
    # result.  Minimality is taken after dropping zero-frequency subsumers,
    # which the measure skips: an unseen minimal upper bound can have a
    # seen parent more informative than every seen minimal bound.
    rng, concepts, edges, _, _, t, model = _built_instance(
        seed, max_concepts=30, max_words=15
    )
    anc = helpers.oracle_ancestors(concepts, edges)
    for _ in range(5):
        c1, c2 = rng.choice(concepts), rng.choice(concepts)
        finite = {c for c in anc[c1] & anc[c2] if not math.isinf(model.ic(c))}
        minimal = {
            c for c in finite
            if not any(d != c and c in anc[d] for d in finite)
        }
        if not minimal:
            continue
        assert sim_resnik_concepts(model, t, c1, c2).value == max(
            model.ic(c) for c in minimal
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_log_base_change_preserves_witnesses(seed):
    rng = random.Random(seed)
    concepts, edges, senses, counts = helpers.random_instance(
        rng, max_concepts=30, max_words=15
    )
    t = Taxonomy.build(edges, senses, concepts=concepts)
    table = FrequencyTable.from_counts(counts)
    model2 = build_model(t, table, log_base=2.0)
    model_e = build_model(t, table, log_base=math.e)
    for w1, w2 in _sample_word_pairs(rng, senses):
        s2 = sim_resnik_words(model2, t, w1, w2)
        se = sim_resnik_words(model_e, t, w1, w2)
        assert s2.witness == se.witness
        assert s2.sense_pair == se.sense_pair
        assert se.value == pytest.approx(s2.value * math.log(2), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_a_query_builds_only_the_ancestors_of_its_senses(seed):
    # every measure and the weighted functions read the model's rank-space
    # memo, never the taxonomy's; it holds exactly the ancestors of the
    # concepts queried, each the oracle closure mapped to ranks, in the
    # order of the taxonomy's own ancestor tuple
    rng = random.Random(seed)
    concepts, edges, senses = helpers.random_sparse_instance(rng)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    model = build_model(t, FrequencyTable.from_counts(dict.fromkeys(senses, 1)))
    ids = t.concepts()
    assert model._ranked is None  # the load built no rank space
    w1, w2 = rng.choice(sorted(senses)), rng.choice(sorted(senses))
    for measure in WORD_MEASURES:
        word_similarity(measure, t, w1, w2, model)
    c1, c2 = rng.choice(concepts), rng.choice(concepts)
    sim_weighted(model, t, c1, c2, uniform_weights(model, t, c1, c2))
    sim_resnik_concepts(model, t, c1, c2)
    assert t._ancestors is None
    anc = helpers.oracle_ancestors(concepts, edges)
    space = model._ranked
    built = {ids[i]: s for i, s in enumerate(space.memo) if s is not None}
    assert set(built) == set().union(*(anc[c] for c in senses[w1] | senses[w2] | {c1, c2}))
    for c, ranks in built.items():
        assert sorted(ranks) == sorted(space.rank[t.index_of(a)] for a in anc[c])
        assert ranks == tuple(space.rank[i] for i in t.ancestor_indices(t.index_of(c)))
        assert [space.order[r] for r in ranks] == list(t.ancestor_indices(t.index_of(c)))


def test_threads_racing_on_a_fresh_model_agree_with_one_thread():
    # four threads score word pairs and weighted domains on one fresh
    # model in their own orders, so they race on building the rank space
    # and on filling its memo; a lost or torn update would show as a wrong
    # score, witness, sense pair or domain in some thread
    rng = random.Random(11)
    edges = []
    for i in range(1, 1500):
        k = 2 if i > 1 and rng.random() < 0.1 else 1
        edges += [(f"c{i}", f"c{p}") for p in rng.sample(range(i), k)]
    senses = {f"w{i}": {f"c{j}" for j in rng.sample(range(1500), rng.randint(1, 3))}
              for i in range(600)}
    counts = {w: rng.randrange(4) for w in senses} | {"w0": 1}
    t = Taxonomy.build(edges, senses)
    words = sorted(senses)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(300)]
    concept_pairs = [(f"c{rng.randrange(1500)}", f"c{rng.randrange(1500)}") for _ in range(100)]

    def query(model, order):
        scores, domains = [None] * len(pairs), [None] * len(concept_pairs)
        for k in order:
            if k < len(pairs):
                w1, w2 = pairs[k]
                scores[k] = [word_similarity(m, t, w1, w2, model) for m in ("resnik", "prob")]
            else:
                k -= len(pairs)
                domains[k] = finite_common_subsumers(model, t, *concept_pairs[k])
        return scores, domains

    every = range(len(pairs) + len(concept_pairs))
    want = query(build_model(t, FrequencyTable.from_counts(counts)), every)
    model = build_model(t, FrequencyTable.from_counts(counts))
    start = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        order = list(every)
        random.Random(k).shuffle(order)  # each thread misses in its own order
        start.wait()
        results[k] = query(model, order)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 4
    assert t._ancestors is None
    space = model._ranked
    for i, ranks in enumerate(space.memo):
        if ranks is not None:
            assert ranks == tuple(space.rank[a] for a in t.ancestor_indices(i))
