"""Acceptance suite: every criterion at its stated tolerance.

Each test asserts one acceptance criterion end to end and prints a
single PASS line on success.  Run ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import random
import time

import pytest

import helpers
from helpers import (
    DRUG_COUNTS,
    DRUG_EDGES,
    DRUG_SENSES,
    TOY_COUNTS,
    TOY_EDGES,
    TOY_SENSES,
)
from taxsim import (
    Benchmark,
    FrequencyTable,
    REFERENCE_TARGETS,
    REFERENCE_TOLERANCE,
    Taxonomy,
    build_model,
    evaluate,
    load_reference_scores,
    pearson,
    reference_correlations,
    sim_edge,
    sim_lch,
    sim_prob,
    sim_resnik_concepts,
    sim_resnik_words,
    sim_weighted,
    uniform_weights,
)

def test_1_reference_correlations_reproduced():
    started = time.perf_counter()
    computed = reference_correlations()
    elapsed = time.perf_counter() - started
    for key in ("ic", "edge", "prob"):
        assert computed[key] == pytest.approx(
            REFERENCE_TARGETS[key], abs=REFERENCE_TOLERANCE
        ), key
    assert elapsed < 1.0
    print(
        "ACCEPTANCE 1 (reference correlations "
        f"ic={computed['ic']:.4f} edge={computed['edge']:.4f} "
        f"prob={computed['prob']:.4f}, {elapsed * 1000:.0f} ms): PASS"
    )


def test_2_human_baseline_column():
    rows = load_reference_scores()
    r = pearson([r.mc_mean for r in rows], [r.replication_mean for r in rows])
    assert r >= 0.95
    print(f"ACCEPTANCE 2 (replication vs original means r={r:.4f} >= 0.95): PASS")


def test_3_sign_magnitude_invariance():
    rows = load_reference_scores()
    mc = [r.mc_mean for r in rows]
    similarity = [r.sim_edge for r in rows]
    distance = [30.0 - s for s in similarity]
    r_sim = pearson(mc, similarity)
    r_dist = pearson(mc, distance)
    assert abs(abs(r_sim) - abs(r_dist)) <= 1e-12
    assert r_sim > 0 > r_dist
    print(
        f"ACCEPTANCE 3 (|r|={abs(r_sim):.6f} equal for similarity and "
        "distance forms, diff <= 1e-12): PASS"
    )


def test_4_propagation_oracle_suite():
    checked = 0
    with_multi_parents = 0
    with_polysemy = 0
    for concepts, edges, senses, counts in helpers.random_instances():
        t = Taxonomy.build(edges, senses, concepts=concepts)
        model = build_model(t, FrequencyTable.from_counts(counts))
        expected = helpers.oracle_freq(concepts, edges, senses, counts)
        root = helpers.oracle_root(concepts, edges)
        assert model.N == expected[root]
        for c in concepts:
            assert model.freq(c) == expected[c]
            assert model.p(c) == expected[c] / expected[root]
            assert model.ic(c) == helpers.oracle_ic(expected[c], expected[root], 2.0)
        for child, parent in edges:
            assert model.freq(child) <= model.freq(parent)
        children = [child for child, _ in edges]
        if any(children.count(c) > 1 for c in set(children)):
            with_multi_parents += 1
        if any(len(s) > 1 for s in senses.values()):
            with_polysemy += 1
        checked += 1
    assert checked >= 200
    # the generator must actually exercise diamonds and polysemy
    assert with_multi_parents > checked // 2
    assert with_polysemy > checked // 2
    print(
        f"ACCEPTANCE 4 (propagation oracle, {checked} random taxonomies, "
        f"{with_multi_parents} with multiple inheritance, "
        f"{with_polysemy} with polysemy): PASS"
    )


def test_5_similarity_oracle_suite():
    checked_instances = 0
    checked_pairs = 0
    for concepts, edges, senses, counts in helpers.random_instances():
        t = Taxonomy.build(edges, senses, concepts=concepts)
        model = build_model(t, FrequencyTable.from_counts(counts))
        rng = random.Random(checked_instances)
        words = sorted(senses)
        pairs = [(rng.choice(words), rng.choice(words)) for _ in range(4)]
        pairs.append((words[0], words[0]))
        for w1, w2 in pairs:
            resnik = sim_resnik_words(model, t, w1, w2)
            assert resnik.value == helpers.oracle_resnik_words(
                concepts, edges, senses, model, w1, w2
            )
            assert resnik.value == sim_resnik_words(model, t, w2, w1).value
            prob = sim_prob(model, t, w1, w2)
            assert prob.value == helpers.oracle_prob_words(
                concepts, edges, senses, model, w1, w2
            )
            assert prob.value == sim_prob(model, t, w2, w1).value
            edge = sim_edge(t, w1, w2)
            assert edge.value == helpers.oracle_edge_words(
                concepts, edges, senses, w1, w2
            )
            assert edge.value == sim_edge(t, w2, w1).value
            if t.max_depth >= 1:
                lch = sim_lch(t, w1, w2)
                assert lch.value == helpers.oracle_lch_words(
                    concepts, edges, senses, w1, w2
                )
                assert lch.value == sim_lch(t, w2, w1).value
            checked_pairs += 1
        # weighted measure: point mass recovers the max form, uniform
        # stays below it, both over the brute-force subsumer domain
        c1, c2 = rng.choice(concepts), rng.choice(concepts)
        resnik_c = sim_resnik_concepts(model, t, c1, c2)
        domain = helpers.oracle_finite_common_subsumers(concepts, edges, model, c1, c2)
        point = {cid: (1.0 if cid == resnik_c.witness else 0.0) for cid in domain}
        assert sim_weighted(model, t, c1, c2, point) == resnik_c.value
        uniform = uniform_weights(model, t, c1, c2)
        assert set(uniform) == domain
        assert sim_weighted(model, t, c1, c2, uniform) <= (
            resnik_c.value * (1 + 1e-12) + 1e-15
        )
        checked_instances += 1
    assert checked_instances >= 200
    print(
        f"ACCEPTANCE 5 (similarity oracle, {checked_instances} taxonomies, "
        f"{checked_pairs} word pairs, all five measures): PASS"
    )


def test_6_log_base_invariance():
    rng = random.Random(987)
    witness_checks = 0
    for _ in range(50):
        concepts, edges, senses, counts = helpers.random_instance(rng, max_concepts=30)
        t = Taxonomy.build(edges, senses, concepts=concepts)
        table = FrequencyTable.from_counts(counts)
        model2 = build_model(t, table, log_base=2.0)
        model_e = build_model(t, table, log_base=math.e)
        words = sorted(senses)
        pairs = [(rng.choice(words), rng.choice(words)) for _ in range(5)]
        scored2 = []
        scored_e = []
        for w1, w2 in pairs:
            s2 = sim_resnik_words(model2, t, w1, w2)
            se = sim_resnik_words(model_e, t, w1, w2)
            assert s2.witness == se.witness
            scored2.append(s2.value)
            scored_e.append(se.value)
            witness_checks += 1
        ranking2 = sorted(range(len(pairs)), key=lambda i: scored2[i])
        ranking_e = sorted(range(len(pairs)), key=lambda i: scored_e[i])
        assert ranking2 == ranking_e

    # correlations against human ratings are base-independent too
    t = Taxonomy.build(DRUG_EDGES, DRUG_SENSES)
    table = FrequencyTable.from_counts(DRUG_COUNTS)
    bench = Benchmark(
        name="drug",
        rows=(
            ("tobacco", "alcohol", 3.0),
            ("tobacco", "sugar", 1.5),
            ("tobacco", "horse", 0.5),
            ("sugar", "cow", 0.2),
        ),
    )
    max_delta = 0.0
    for measure in ("resnik", "lch"):
        r2 = evaluate(
            measure, bench, t, build_model(t, table, log_base=2.0), log_base=2.0
        ).r
        re = evaluate(
            measure, bench, t, build_model(t, table, log_base=math.e), log_base=math.e
        ).r
        max_delta = max(max_delta, abs(abs(r2) - abs(re)))
        assert abs(abs(r2) - abs(re)) < 1e-12
    print(
        f"ACCEPTANCE 6 (log-base invariance: {witness_checks} witnesses, "
        f"rankings stable, max |delta r|={max_delta:.2e} < 1e-12): PASS"
    )


def test_7_toy_golden_values():
    t = Taxonomy.build(TOY_EDGES, TOY_SENSES)
    model = build_model(t, FrequencyTable.from_counts(TOY_COUNTS))
    assert model.N == 4
    assert model.p("A") == 0.75
    assert model.ic("A") == pytest.approx(0.4150, abs=0.0001)
    resnik = sim_resnik_words(model, t, "x", "y")
    assert resnik.value == pytest.approx(0.4150, abs=0.0001)
    assert resnik.witness == "A"
    assert sim_edge(t, "x", "y").value == 2.0
    assert sim_prob(model, t, "x", "y").value == 0.25
    print(
        "ACCEPTANCE 7 (toy model: N=4, p(A)=0.75, ic(A)=0.4150, "
        "resnik=0.4150@A, edge=2, prob=0.25): PASS"
    )


def test_8_sense_confusion_mini_taxonomy():
    t = Taxonomy.build(DRUG_EDGES, DRUG_SENSES)
    model = build_model(t, FrequencyTable.from_counts(DRUG_COUNTS))
    horse = sim_resnik_words(model, t, "tobacco", "horse")
    alcohol = sim_resnik_words(model, t, "tobacco", "alcohol")
    sugar = sim_resnik_words(model, t, "tobacco", "sugar")
    # slang sense wins: the narcotic reading outranks the drug-level and
    # substance-level pairs even though humans would rank it lowest
    assert horse.witness == "narcotic"
    assert alcohol.witness == "drug"
    assert sugar.witness == "substance"
    assert horse.value > alcohol.value > sugar.value
    print(
        "ACCEPTANCE 8 (sense-confusion fixture: narcotic > drug > substance "
        f"witnesses, values {horse.value:.4f} > {alcohol.value:.4f} > "
        f"{sugar.value:.4f}): PASS"
    )
