import json
import re

import numpy as np
import pytest

from relop.ingest import (
    Gazetteer,
    Post,
    US_STATE_CODES,
    Vocabulary,
    build_vocab,
    content_tokens,
    filter_bots,
    filter_relevant,
    infer_state,
    parse_posts,
    _resolve_field,
    _scan_words,
    tokenize,
)
from relop.pipeline import data_path
from relop.synth import SynthCorpusConfig, gen_opinion_corpus

GROUP_A = ["trump", "realdonaldtrump", "donaldtrump"]
GROUP_B = ["hillary", "clinton", "hillaryclinton"]


def make_post(text, **kwargs):
    defaults = dict(id="t1", user_id="u1", client="Twitter for iPhone", timestamp=1)
    defaults.update(kwargs)
    return Post(text=text, **defaults)


def record(text="hello world", **kwargs):
    rec = {
        "id": "t1",
        "text": text,
        "user_id": "u1",
        "client": "Twitter for iPhone",
        "geo": None,
        "profile_location": None,
        "ts": 1,
    }
    rec.update(kwargs)
    return json.dumps(rec)


class TestParsePosts:
    def test_empty_stream(self):
        posts, skipped = parse_posts([])
        assert posts == [] and skipped == 0

    def test_truncated_line_skipped(self):
        lines = [record(id=f"t{i}") for i in range(3)] + [record()[:25]]
        posts, skipped = parse_posts(lines)
        assert len(posts) == 3 and skipped == 1

    def test_missing_text_skipped(self):
        rec = json.loads(record())
        del rec["text"]
        posts, skipped = parse_posts([json.dumps(rec)])
        assert posts == [] and skipped == 1

    def test_blank_text_violates_invariant(self):
        posts, skipped = parse_posts([record(text="   ")])
        assert posts == [] and skipped == 1

    def test_fields_round_trip(self):
        posts, _ = parse_posts([record(geo="Austin, TX", profile_location="TX")])
        assert posts[0].geo_field == "Austin, TX"
        assert posts[0].profile_location == "TX"

    @pytest.mark.parametrize("key", ["id", "text", "user_id", "client"])
    def test_null_required_field_is_malformed(self, key, caplog):
        # str(None) would make the post's field the string "None"
        with caplog.at_level("WARNING", logger="relop"):
            posts, skipped = parse_posts([record(**{"text": "trump clinton", key: None}), record()])
        assert [p.id for p in posts] == ["t1"] and skipped == 1
        assert f"null {key}" in caplog.text

    def test_all_null_record_is_malformed(self):
        line = '{"id": null, "text": "trump clinton", "user_id": null, "client": null, "ts": 1}'
        assert parse_posts([line]) == ([], 1)

    def test_non_string_values_are_stringified(self):
        posts, skipped = parse_posts([record(id=12345, user_id=7)])
        assert skipped == 0
        assert (posts[0].id, posts[0].user_id) == ("12345", "7")


class TestTokenize:
    def test_mentions_and_urls_are_classified(self):
        tokens = tokenize("Vote NOW http://x.co @bob #maga!")
        assert content_tokens(tokens) == ["vote", "now", "#maga"]
        assert {t.kind for t in tokens} == {"word", "hashtag", "mention", "url"}

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_merges_hashtags(self):
        tokens = tokenize("#MAGA #maga")
        assert [t.surface for t in tokens] == ["#maga", "#maga"]
        assert all(t.kind == "hashtag" for t in tokens)

    def test_prefix_invariants(self):
        for token in tokenize("(@someone) '#tag', plain-word."):
            if token.kind == "hashtag":
                assert token.surface.startswith("#")
            if token.kind == "mention":
                assert token.surface.startswith("@")

    def test_concatenation_property(self):
        rng = np.random.default_rng(3)
        pieces = [
            "vote now",
            "#maga rally!",
            "beat them, soundly",
            "plain words here",
            "@user hi there",
        ]
        for _ in range(50):
            a, b = (pieces[i] for i in rng.integers(0, len(pieces), 2))
            assert tokenize(a + " " + b) == tokenize(a) + tokenize(b)

    def test_deterministic(self):
        text = "Some #Tweet with @user and http://t.co/xyz mixed in"
        assert tokenize(text) == tokenize(text)

    def test_shared_memo_matches_a_fresh_tokenize_per_post(self):
        """One memo over a whole corpus, as ``relop ingest`` keeps it, gives
        each post the tokens a memo-free call gives it."""
        hand_made = [
            "#", "@", "...", "www.X.com", "Trump!", "#MAGA,", "@HillaryClinton",
            "Zürich", "ÉLECTION", "naïve,", "投票", "#Ñandú", "'#tag',", "(@someone)",
            "http://t.co/xyz", "plain-word.", "!!", "#!", "@.",
        ]
        corpus = gen_opinion_corpus(SynthCorpusConfig(tweets_per_class=100, seed=5))
        rng = np.random.default_rng(6)
        texts = [p.text for p in corpus.posts]
        for text in texts[:100]:
            extra = [hand_made[i] for i in rng.integers(0, len(hand_made), 4)]
            texts.append(" ".join([text, *extra]))
        texts.append(" ".join(hand_made))
        memo = {}
        for text in texts:
            assert tokenize(text, memo) == tokenize(text)
        chunks = {chunk for text in texts for chunk in text.split()}
        assert set(memo) == chunks


def relevant(text):
    return filter_relevant(tokenize(text), GROUP_A, GROUP_B)


class TestFilterRelevant:
    def test_both_groups_present(self):
        assert relevant("Hillary will beat Trump")

    def test_one_group_missing(self):
        assert not relevant("trump trump trump")

    def test_hashtag_containment(self):
        assert relevant("#nevertrump #imwithher she means clinton")

    def test_word_boundary_blocks_substrings(self):
        # "trumpet" is not a mention of the candidate
        assert not relevant("a trumpet for hillary")

    def test_urls_never_match(self):
        assert not relevant("http://trump.com hillary")
        assert relevant("http://trump.com hillary @trump")

    def test_against_brute_force_scanner(self):
        """Derived oracle: independent regex scanner over a 100-post fixture."""
        rng = np.random.default_rng(11)
        fillers = ["vote", "rally", "tonight", "#debate", "news", "@cnn", "poll"]
        a_terms = ["trump", "#nevertrump", "@realdonaldtrump"]
        b_terms = ["clinton", "hillary", "#imwithher"]
        posts = []
        for i in range(100):
            words = [fillers[j] for j in rng.integers(0, len(fillers), 5)]
            if rng.random() < 0.6:
                words.append(a_terms[int(rng.integers(3))])
            if rng.random() < 0.6:
                words.append(b_terms[int(rng.integers(3))])
            rng.shuffle(words)
            posts.append(make_post(" ".join(words), id=f"t{i}"))

        def scan(text, keywords):
            hits = set()
            for chunk in text.lower().split():
                for kw in keywords:
                    if chunk.startswith(("#", "@")):
                        if kw in chunk:
                            hits.add(kw)
                    elif re.fullmatch(re.escape(kw), chunk.strip(".,!?:;'\"()")):
                        hits.add(kw)
            return hits

        expected = [
            p for p in posts if scan(p.text, GROUP_A) and scan(p.text, GROUP_B)
        ]
        assert [p for p in posts if relevant(p.text)] == expected

    def test_shared_memo_matches_the_memo_free_call(self):
        """One memo over a whole corpus, as ``relop ingest`` keeps it, decides
        each post as a memo-free call does."""
        rng = np.random.default_rng(12)
        terms = [
            "trump", "Trump!", "trumpet", "#nevertrump", "@realDonaldTrump", "donaldtrump",
            "clinton", "Hillary,", "hillaryclintons", "#imwithher", "@HillaryClinton",
            "#hillary", "http://trump.com", "www.clinton.org", "vote", "#debate", "@cnn",
        ]
        corpus = gen_opinion_corpus(SynthCorpusConfig(tweets_per_class=100, seed=8))
        texts = [p.text for p in corpus.posts]
        texts += [" ".join(terms[i] for i in rng.integers(0, len(terms), 6)) for _ in range(300)]
        memo = {}
        decided = [filter_relevant(tokenize(t), GROUP_A, GROUP_B, memo) for t in texts]
        assert decided == [filter_relevant(tokenize(t), GROUP_A, GROUP_B) for t in texts]
        assert any(decided) and not all(decided)
        # a warm memo decides every post again the same way
        assert decided == [filter_relevant(tokenize(t), GROUP_A, GROUP_B, memo) for t in texts]


class TestFilterBots:
    def test_official_retained(self):
        assert filter_bots(make_post("x", client="Twitter for iPhone"), {"Twitter for iPhone"})

    def test_bot_dropped(self):
        assert not filter_bots(make_post("x", client="SuperBot3000"), {"Twitter for iPhone"})


@pytest.fixture(scope="module")
def gazetteer():
    return Gazetteer.from_csv(data_path("gazetteer.csv"))


class TestInferState:
    def test_geo_field_direct(self, gazetteer):
        post = make_post("x", geo_field="Charlotte, NC")
        assert infer_state(post, gazetteer, tokenize(post.text)) == "NC"

    def test_priority_order(self, gazetteer):
        post = make_post("in texas", profile_location="NYC")
        assert infer_state(post, gazetteer, tokenize(post.text)) == "NY"

    def test_unresolvable(self, gazetteer):
        post = make_post("nothing locational", geo_field="Mars Base", profile_location="??")
        assert infer_state(post, gazetteer, tokenize(post.text)) is None

    def test_text_mention(self, gazetteer):
        post = make_post("campaigning in texas today")
        assert infer_state(post, gazetteer, tokenize(post.text)) == "TX"

    def test_never_outside_closed_set(self, gazetteer):
        rng = np.random.default_rng(4)
        names = list(gazetteer.entries) + ["nowhere", "atlantis"]
        for _ in range(200):
            geo = names[int(rng.integers(len(names)))]
            post = make_post("words only", geo_field=geo)
            code = infer_state(post, gazetteer, tokenize(post.text))
            assert code is None or code in US_STATE_CODES

    def test_rejects_unknown_codes(self):
        with pytest.raises(ValueError):
            Gazetteer({"atlantis": "ZZ"})

    @pytest.mark.parametrize("min_len", [1, 3])
    def test_indexed_scan_equals_brute_force_ngram_scan(self, gazetteer, min_len):
        """The scan that starts only at entries' first words finds the
        leftmost, then longest, entry among all n-grams of the word list."""

        def brute_force(words):
            hits = [
                (start, start - stop, gazetteer.entries[name])
                for start in range(len(words))
                for stop in range(start + 1, len(words) + 1)
                if (name := " ".join(words[start:stop])) in gazetteer.entries
                and len(name) >= min_len
            ]
            return min(hits)[2] if hits else None

        names = [name.split() for name in gazetteer.entries]
        pieces = names + [words[:n] for words in names for n in range(1, len(words))]
        pieces += [[w] for words in names for w in words]
        pieces += [[w] for w in ("vote", "rally", "the", "in", "city", "north", "saint")]
        rng = np.random.default_rng(9)
        for _ in range(3000):
            words = [w for i in rng.integers(0, len(pieces), rng.integers(0, 6)) for w in pieces[i]]
            assert _scan_words(words, gazetteer, min_len) == brute_force(words), words

    def test_resolve_equals_resolve_field_on_every_call(self, gazetteer):
        fresh = Gazetteer.from_csv(data_path("gazetteer.csv"))
        fields = ["Charlotte, NC", "NYC", "Mars Base", "??", "nowhere", "atlantis"]
        fields += list(gazetteer.entries)
        for _ in range(2):  # the first call computes, the second reads the memo
            for field in fields:
                assert fresh.resolve(field) == _resolve_field(field, gazetteer)


class TestVocabulary:
    def test_counts(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=1)
        assert vocab.counts[vocab.index["a"]] == 2
        assert vocab.counts[vocab.index["b"]] == 1

    def test_min_count_cutoff(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab
        assert vocab.lookup("b") == Vocabulary.UNK

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=1)

    def test_excluded_tokens_never_enter(self):
        vocab = build_vocab([["#maga", "word"] * 5], min_count=1, exclude={"#maga"})
        assert "#maga" not in vocab

    def test_index_is_dense_bijection(self):
        rng = np.random.default_rng(0)
        corpus = [[f"w{rng.integers(50)}" for _ in range(10)] for _ in range(200)]
        vocab = build_vocab(corpus, min_count=2)
        indices = sorted(vocab.index.values())
        assert indices == list(range(len(vocab)))

    def test_deterministic_across_runs(self):
        """Derived check: byte-for-byte identical on a 1000-tweet fixture."""

        def build():
            rng = np.random.default_rng(42)
            corpus = [
                [f"tok{rng.integers(300)}" for _ in range(12)] for _ in range(1000)
            ]
            vocab = build_vocab(corpus, min_count=3)
            return json.dumps(vocab.index).encode()

        assert build() == build()
