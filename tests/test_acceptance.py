"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned in the assertions themselves.
"""

import json
import random
import re
import time

from templex import (DLParams, TuneParams, apply_decision_list, apply_ospd,
                     apply_tuning, classify_bayes, collapse,
                     disambiguate_background, kwic, learn_decision_list,
                     load_bg_lexicon, load_collapse_map, load_ontology,
                     match_foreground, parse_query, resolve_inheritance,
                     surviving_sense_count, train_bayes, tune)
from templex.cli import main as cli_main
from helpers import (dl_corpus, fixture_path, merge_oracle, naive_kwic_count,
                     ospd_noisy_tags, random_hierarchy, random_kwic_corpus,
                     two_class_data)


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_sense_filtering_arithmetic(fg, bg, onto, analyses):
    start = time.time()
    expected = {"sack": 1, "dismiss": 1, "remove": 3}
    for lemma, count in expected.items():
        total, fg_fits = surviving_sense_count(
            fg, bg, onto, lemma, subj_class="EMPLOYER", obj_class="INDIVIDUAL")
        assert total == count, lemma
        assert fg_fits == ["fg1"], lemma

    # the same arithmetic observed through the matcher on live sentences,
    # with foreground priority selecting the foreground sense each time
    from templex import disambiguate_background, train_bayes
    docs = [a.doc for a in analyses]
    tags = apply_ospd(disambiguate_background(train_bayes(docs, bg), docs, bg), bg)
    matches, _ = match_foreground(analyses, fg, tags, onto, bg)
    by_trigger = {}
    for m in matches:
        by_trigger.setdefault(m.trigger_lemma, m)
    for lemma, count in expected.items():
        m = by_trigger[lemma]
        assert m.survivors == count, lemma
        assert m.sense_id == "fg1" and m.concept in ("DISMISS-EVENT",
                                                     "REMOVE-FROM-POST")
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"sense filter leaves 1/1/3 for sack/dismiss/remove, "
              f"foreground sense selected ({elapsed:.2f}s)")


def test_criterion_2_end_to_end_succession(tmp_path):
    start = time.time()
    out = tmp_path / "out.jsonl"
    rc = cli_main(["extract",
                   "--ontology", fixture_path("succession.onto"),
                   "--fg-lexicon", fixture_path("succession.fglex"),
                   "--bg-lexicon", fixture_path("succession.bglex"),
                   "--collapse-map", fixture_path("succession.collapse"),
                   "--corpus", fixture_path("succession.vrt"),
                   "--output", str(out)])
    assert rc == 0
    gold = open(fixture_path("succession_gold.jsonl"), "rb").read()
    assert out.read_bytes() == gold

    # precision = recall = 1.0 against the hand-built event set
    gold_events = set()
    for line in gold.decode().strip().splitlines()[1:]:
        obj = json.loads(line)
        gold_events.add((obj["provenance"]["doc"], obj["provenance"]["sent"],
                         obj["provenance"]["trigger"]))
    emitted = set()
    for line in out.read_text().strip().splitlines()[1:]:
        obj = json.loads(line)
        emitted.add((obj["provenance"]["doc"], obj["provenance"]["sent"],
                     obj["provenance"]["trigger"]))
    assert emitted == gold_events and len(emitted) == 11
    elapsed = time.time() - start
    assert elapsed < 2.0
    report(2, f"extraction equals gold byte-for-byte, P = R = 1.0 "
              f"on {len(emitted)} events ({elapsed:.2f}s)")


def test_criterion_3_inheritance_vs_merge_oracle():
    rng = random.Random(1234)
    hierarchies = 0
    nodes = 0
    for _ in range(200):
        raw = random_hierarchy(rng, rng.randint(2, 100))
        lex = resolve_inheritance(raw)
        for cid in raw.concepts:
            assert lex.concepts[cid] == merge_oracle(raw, cid)
            nodes += 1
        hierarchies += 1
    report(3, f"flattening equals field-merge oracle on {hierarchies} "
              f"hierarchies / {nodes} nodes, exact equality")


def test_criterion_4_coarse_classifier_accuracy():
    start = time.time()

    def run(shared):
        rng = random.Random(20_000 + shared)
        train_docs, test_items, onto_text, bg_text, scheme_text = two_class_data(
            rng, shared=shared)
        onto = load_ontology(onto_text)
        bg = collapse(load_bg_lexicon(bg_text),
                      load_collapse_map(scheme_text), onto)
        model = train_bayes(train_docs, bg, window=20, alpha=0.1)
        correct = 0
        for context, truth in test_items:
            ranking = classify_bayes(model, context,
                                     {"ORGANISATION", "LOCATION"})
            if ranking[0][0] == truth:
                correct += 1
        return correct / len(test_items)

    acc_overlap = run(shared=8)   # 20% vocabulary overlap
    acc_disjoint = run(shared=0)
    assert acc_overlap >= 0.90
    assert acc_disjoint >= 0.99
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(4, f"held-out accuracy {acc_overlap:.3f} (20% overlap) / "
              f"{acc_disjoint:.3f} (disjoint) ({elapsed:.2f}s)")


def test_criterion_5_tuning_ejection(bg, corpus):
    tuned = tune(bg, corpus, TuneParams())
    bank_count = sum(1 for d in corpus for t in d.tokens() if t.lemma == "bank")
    assert bank_count >= 5
    assert tuned.ejected[("bank", "noun")] == {"s2"}
    senses = [(s.sense_id, s.coarse_class)
              for s in apply_tuning(tuned).entries("bank", "noun")]
    assert senses == [("s1", "ORGANISATION")]
    for key, gone in tuned.ejected.items():
        assert gone < {s.sense_id for s in bg.senses_by_key[key]}
    previous = None
    for min_occ in (1, 2, 5, 7, 10, 20):
        flat = {(k, sid)
                for k, gone in tune(bg, corpus,
                                    TuneParams(min_occurrences=min_occ)).ejected.items()
                for sid in gone}
        if previous is not None:
            assert flat <= previous
        previous = flat
    report(5, "unattested senses ejected, no lemma emptied, "
              "ejection monotone in min_occurrences")


def test_criterion_6_ospd():
    rng = random.Random(99)
    tags, truth = ospd_noisy_tags(rng, n_docs=200, per_doc=25, noise=0.3)
    out = apply_ospd(tags)
    correct = sum(1 for t in out.values() if t.coarse_class == truth[t.doc_id])
    accuracy = correct / len(out)
    assert accuracy >= 0.95
    assert apply_ospd(out) == out
    report(6, f"post-OSPD accuracy {accuracy:.3f} under 30% noise; idempotent")


def test_criterion_7_kwic_equivalence(corpus, bg):
    from templex import train_bayes as tb

    def as_callable(constraint):
        kind, value = constraint.kind, constraint.value
        if kind == "word":
            return lambda tok, tag: re.fullmatch(value, tok.surface) is not None
        if kind == "lemma":
            return lambda tok, tag: tok.lemma == value
        if kind == "pos":
            return lambda tok, tag: tok.pos == value
        return lambda tok, tag: tag is not None and tag.coarse_class == value

    model = tb(corpus, bg)
    tags = apply_ospd(disambiguate_background(model, corpus, bg), bg)
    for qtext in ["lemma=dismiss", "class=ORGANISATION lemma=dismiss",
                  "pos=DET lemma=bank", "the"]:
        q = parse_query(qtext)
        assert len(kwic(corpus, tags, q)) == naive_kwic_count(
            corpus, [as_callable(c) for c in q.constraints], tags)

    rng = random.Random(271828)
    big = random_kwic_corpus(rng, 100_000)
    checked = []
    for qtext in ["lemma=w00", "pos=NN", "lemma=w01 lemma=w02",
                  "word=/w0[1-3]/", "pos=DET pos=NN pos=NN"]:
        q = parse_query(qtext)
        start = time.time()
        got = len(kwic(big, None, q))
        elapsed = time.time() - start
        assert elapsed < 2.0
        assert got == naive_kwic_count(big, [as_callable(c) for c in q.constraints])
        checked.append(got)
    report(7, f"kwic counts equal brute-force scan on fixtures and a "
              f"100k-token corpus (counts {checked})")


def test_criterion_8_decision_list():
    rng = random.Random(2024)
    train, test, seeds, coll = dl_corpus(rng)
    dl = learn_decision_list(train, seeds, DLParams(max_iters=10, min_score=0.5))
    correct = sum(1 for inst, truth in test
                  if apply_decision_list(dl, inst)[0] == truth)
    assert correct == len(test)
    learned = {(r.value, r.sense_id) for r in dl.rules}
    for sense, words in coll.items():
        for w in words:
            assert (w, sense) in learned

    seed_only_a = learn_decision_list(train, seeds,
                                      DLParams(max_iters=0, min_score=0.5))
    seed_only_b = learn_decision_list(train, seeds,
                                      DLParams(max_iters=0, min_score=0.5))
    assert seed_only_a.rules == seed_only_b.rules
    seed_feats = set()
    for inst in train:
        window = set(inst.lemmas) - {"bass"}
        if ("ca0" in window) != ("cb0" in window):
            seed_feats.update(inst.lemmas)
    for r in seed_only_a.rules:
        assert r.value in seed_feats
    report(8, f"bootstrap recovers all {sum(map(len, coll.values()))} "
              f"collocates, held-out accuracy 100%; max_iters=0 stays seed-only")


def test_criterion_9_determinism(tmp_path):
    fg = ["--fg-lexicon", fixture_path("succession.fglex")]  # `tune` reads none
    common = ["--ontology", fixture_path("succession.onto"),
              "--bg-lexicon", fixture_path("succession.bglex"),
              "--collapse-map", fixture_path("succession.collapse"),
              "--corpus", fixture_path("succession.vrt")]
    outputs = {}
    for cmd in ("extract", "tune", "wsd"):
        blobs = []
        args = common if cmd == "tune" else [*common, *fg]
        for run_idx, jobs in ((0, "1"), (1, "1"), (2, "8")):
            out = tmp_path / f"{cmd}{run_idx}"
            rc = cli_main([cmd, *args, "--jobs", jobs, "--output", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        outputs[cmd] = len(blobs[0])
    report(9, f"extract/tune/wsd byte-identical across reruns and "
              f"--jobs 1 vs 8 (sizes {outputs})")
