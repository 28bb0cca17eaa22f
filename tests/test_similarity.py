"""The five similarity measures, their witnesses, and their invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import TOY_COUNTS, TOY_EDGES, TOY_SENSES
from taxsim import (
    FrequencyTable,
    SimilarityError,
    Taxonomy,
    UnknownConceptError,
    UnknownWordError,
    build_model,
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

    def test_all_infinite_subsumers_degenerate(self, toy_taxonomy):
        model = build_model(toy_taxonomy, FrequencyTable.from_counts(TOY_COUNTS))
        model._ic = [math.inf] * toy_taxonomy.concept_count  # doctored model
        with pytest.raises(SimilarityError, match="zero frequency"):
            sim_resnik_concepts(model, toy_taxonomy, "A1", "A2")


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
        with pytest.raises(ValueError, match="floor"):
            sim_lch(toy_taxonomy, "x", "y", floor=0.0)

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

    def test_weights_must_sum_to_one(self, toy_model, toy_taxonomy):
        with pytest.raises(ValueError, match="sum"):
            sim_weighted(
                toy_model, toy_taxonomy, "A1", "A2", {"A": 0.5, "root": 0.4}
            )

    def test_negative_weight_rejected(self, toy_model, toy_taxonomy):
        with pytest.raises(ValueError, match="negative weight"):
            sim_weighted(
                toy_model, toy_taxonomy, "A1", "A2", {"A": 1.5, "root": -0.5}
            )

    def test_tolerance_on_sum(self, toy_model, toy_taxonomy):
        weights = {"A": 0.5 + 2e-10, "root": 0.5}
        value = sim_weighted(toy_model, toy_taxonomy, "A1", "A2", weights)
        assert value == pytest.approx(TOY_IC_A / 2, abs=1e-9)

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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_measures_match_brute_force(seed):
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetry_exact(seed):
    rng, _, _, senses, _, t, model = _built_instance(seed, max_concepts=30, max_words=15)
    for w1, w2 in _sample_word_pairs(rng, senses):
        assert sim_resnik_words(model, t, w1, w2).value == sim_resnik_words(model, t, w2, w1).value
        assert sim_prob(model, t, w1, w2).value == sim_prob(model, t, w2, w1).value
        assert sim_edge(t, w1, w2).value == sim_edge(t, w2, w1).value
        if t.max_depth >= 1:
            assert sim_lch(t, w1, w2).value == sim_lch(t, w2, w1).value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_attains_reported_value(seed):
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
