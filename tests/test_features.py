import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import (
    ORACLE_LEXICON_ENTRIES,
    fragments_of_rows,
    oracle_corpus,
    random_table,
)
from incongruity.errors import InputError
from incongruity.features import (
    PRIOR_SETS,
    ExperimentConfig,
    FeatureRegistry,
    FeatureVector,
    Lexicon,
    _type_tags,
    build_config_features,
    default_lexicon,
    load_lexicon,
)
from incongruity import harness
from incongruity.harness import Resources, extract_features
from incongruity.similarity import Augmentation
from incongruity.text import token_table, tokenize


def make_lexicon() -> Lexicon:
    return Lexicon(
        {
            "great": frozenset({"positive"}),
            "love": frozenset({"positive", "emotion"}),
            "awful": frozenset({"negative", "emotion"}),
            "hate": frozenset({"negative", "emotion"}),
            "think": frozenset({"psych_process"}),
            "wow": frozenset({"interjection"}),
            "haha": frozenset({"laughter"}),
            "mixed": frozenset({"positive", "negative"}),
            "stuck in traffic": frozenset({"implicit_incongruity_phrase"}),
        },
    )


class TestRegistry:
    def test_ids_are_dense_in_interning_order(self):
        registry = FeatureRegistry()
        assert registry.intern("a") == 0
        assert registry.intern("b") == 1
        assert registry.intern("a") == 0
        assert len(registry) == 2
        assert registry.names == ("a", "b")
        assert registry.name_of(1) == "b"

    def test_frozen_registry_drops_unseen_names(self):
        registry = FeatureRegistry()
        registry.intern("seen")
        registry.freeze()
        assert registry.intern("unseen") is None
        assert registry.intern("seen") == 0
        assert len(registry) == 1

    def test_membership(self):
        registry = FeatureRegistry()
        registry.intern("x")
        assert "x" in registry
        assert "y" not in registry

    @given(
        names=st.lists(st.sampled_from(["a", "b", "c", "a_b", "x", "é", ""]), max_size=12),
        held=st.lists(st.sampled_from(["a", "c", "zz"]), max_size=3),
        frozen=st.booleans(),
    )
    @example(names=["a", "b"], held=[], frozen=False)
    @example(names=["a", "b", "a"], held=[], frozen=False)
    def test_intern_all_matches_one_intern_per_name(self, names, held, frozen):
        # Fresh (no name held), partly filled and frozen registries: one call
        # gives the ids, the names and the unknown names (-1, None one at a
        # time) that one intern call per name gives.
        one_call, one_by_one = FeatureRegistry(), FeatureRegistry()
        for registry in (one_call, one_by_one):
            for name in held:
                registry.intern(name)
            if frozen:
                registry.freeze()
        ids = one_call.intern_all(np.array(names, dtype=object))
        expected = [one_by_one.intern(name) for name in names]
        assert ids.dtype == np.int64
        assert ids.tolist() == [-1 if fid is None else fid for fid in expected]
        assert one_call.names == one_by_one.names
        assert [one_call.intern(name) for name in names] == expected


def extracted(rows, registry, augmentation=Augmentation.NONE, block=None):
    """``extract_features`` when sentence k's prior fragments are ``rows[k]``
    and its S/WS values under ``augmentation`` are ``block[k]``."""
    sentences = [tokenize(f"s{k}") for k in range(len(rows))]
    # The table's own block is replaced by one whose selected columns are
    # ``block``.
    full = np.zeros((len(rows), len(Augmentation.S_AND_WS.feature_names)))
    if block is not None:
        full[:, harness._columns(augmentation)] = block
    resources = Resources(embeddings={"t": random_table(2, 2, seed=0, name="t")})
    with mock.patch.object(
        harness, "build_config_features", lambda tokens, prior, lexicon: fragments_of_rows(rows)
    ), mock.patch.object(
        harness, "block_alongside", lambda tokens, table, alongside: (full, alongside())
    ):
        return extract_features(
            sentences, ExperimentConfig("L", augmentation, "t"), resources, registry
        )


# Frozen: name f<i> has id i, and interning adds no name.
NUMBERED = FeatureRegistry()
for _fid in range(10_001):
    NUMBERED.intern(f"f{_fid}")
NUMBERED.freeze()


class TestFeatureVector:
    def test_zero_values_are_absent(self):
        [vector] = extracted([[{"a": 1.0, "b": 0.0, "c": -2.5}]], FeatureRegistry())
        assert dict(vector.items()) == {0: 1.0, 2: -2.5}
        assert len(vector) == 2

    def test_extraction_interns_zeros_but_drops_them(self):
        registry = FeatureRegistry()
        [vector] = extracted([[{"a": 1.0, "b": 0.0}, {"c": 3.0}]], registry)
        assert registry.names == ("a", "b", "c")
        assert dict(vector.items()) == {
            registry.intern("a"): 1.0,
            registry.intern("c"): 3.0,
        }

    def test_duplicate_name_across_fragments_rejected(self):
        with pytest.raises(ValueError, match="'a' emitted twice"):
            extracted([[{"a": 1.0}, {"a": 2.0}]], FeatureRegistry())

    def test_frozen_registry_silently_drops_new_names(self):
        registry = FeatureRegistry()
        registry.intern("old")
        registry.freeze()
        [vector] = extracted([[{"old": 2.0, "new": 5.0}]], registry)
        assert dict(vector.items()) == {0: 2.0}

    def test_as_arrays_sorted_and_aligned(self):
        [vector] = extracted([[{"f7": 1.5, "f2": -1.0, "f11": 4.0}]], NUMBERED)
        ids, values = vector.as_arrays()
        np.testing.assert_array_equal(ids, [2, 7, 11])
        np.testing.assert_array_equal(values, [-1.0, 1.5, 4.0])
        assert ids.dtype == np.int64

    def test_as_arrays_are_read_only(self):
        [row] = extracted([[{"a": 1.0}]], FeatureRegistry())
        for vector in (row, FeatureVector(np.array([3]), np.array([1.0]))):
            ids, values = vector.as_arrays()
            with pytest.raises(ValueError):
                ids[0] = 4
            with pytest.raises(ValueError):
                values[0] = 2.0

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=10_000),
            st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_items_are_nonzero_mapping_items_sorted_by_id(self, mapping):
        expected = sorted((fid, v) for fid, v in mapping.items() if v != 0.0)
        row = [{f"f{fid}": v for fid, v in mapping.items()}]
        [vector] = extracted([row], NUMBERED)
        assert list(vector.items()) == expected


EXTRACT_NAMES = ("a", "b", "c", "d", "e", "f")
extract_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats())


@st.composite
def extraction_inputs(draw):
    """Fragment rows, an augmentation with one block value per row and
    column, and the names a frozen registry holds (None: a fresh registry)."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        entries = draw(
            st.lists(
                st.tuples(st.sampled_from(EXTRACT_NAMES), extract_values),
                unique_by=lambda entry: entry[0],
                max_size=5,
            )
        )
        cut = draw(st.integers(0, len(entries)))
        rows.append([dict(entries[:cut]), dict(entries[cut:])])
    augmentation = draw(st.sampled_from(list(Augmentation)))
    width = len(augmentation.feature_names)
    block = draw(
        st.lists(extract_values, min_size=len(rows) * width, max_size=len(rows) * width)
    )
    held = draw(
        st.none()
        | st.lists(
            st.sampled_from(EXTRACT_NAMES + Augmentation.S_AND_WS.feature_names),
            unique=True,
        )
    )
    return rows, augmentation, np.reshape(block, (len(rows), width)), held


def registry_holding(held):
    """A fresh registry, or a frozen one holding the names ``held``."""
    registry = FeatureRegistry()
    if held is not None:
        for name in held:
            registry.intern(name)
        registry.freeze()
    return registry


class TestExtractFeatures:
    @given(extraction_inputs())
    @example(
        (
            # Fresh registry: zero values, a name repeated across sentences
            # ("a"), empty rows, and block names numbered between the first
            # row's prior names and the second row's new ones.
            [[{"a": 1.0, "b": 0.0}, {}], [{}, {}], [{"c": -0.0, "a": 2.5}, {"d": 3.0}]],
            Augmentation.S,
            np.array([[0.5, 0.0, -0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, -1.0]]),
            None,
        )
    )
    @example(
        (
            # Frozen registry: unknown prior and block names are dropped.
            [[{"a": 1.0, "z": 2.0}], [{"b": 4.0}]],
            Augmentation.WS,
            np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 0.0, 7.0, 8.0]]),
            ["b", "emb.ws.min_sim", "a"],
        )
    )
    def test_matches_per_sentence_reference(self, inputs):
        rows, augmentation, block, held = inputs
        registry, reference = registry_holding(held), registry_holding(held)
        expected = [
            oracles.number_row(
                reference, [*fragments, dict(zip(augmentation.feature_names, values))]
            )
            for fragments, values in zip(rows, block.tolist())
        ]
        vectors = extracted(rows, registry, augmentation, block)
        assert registry.names == reference.names
        assert len(vectors) == len(rows)
        for vector, pairs in zip(vectors, expected):
            ids, values = vector.as_arrays()
            assert ids.dtype == np.int64 and values.dtype == np.float64
            assert ids.tolist() == [fid for fid, _ in pairs]
            assert values.tobytes() == np.array([v for _, v in pairs]).tobytes()
            assert not ids.flags.writeable and not values.flags.writeable


def assert_numbered_like(vectors, registry, reference, rows):
    """``vectors`` and ``registry`` are ``rows`` of fragments numbered by
    ``oracles.number_row`` through ``reference``, bit for bit."""
    expected = [oracles.number_row(reference, fragments) for fragments in rows]
    assert registry.names == reference.names
    assert len(vectors) == len(expected)
    for vector, pairs in zip(vectors, expected):
        ids, values = vector.as_arrays()
        assert ids.tolist() == [fid for fid, _ in pairs]
        assert values.tobytes() == np.array([v for _, v in pairs], dtype=np.float64).tobytes()


class TestCorpusPriors:
    """The prior fragments of a whole corpus give every sentence the names,
    values and first-occurrence numbering of the per-sentence oracle."""

    lexicon = Lexicon(ORACLE_LEXICON_ENTRIES)

    def check(self, texts, prior, held):
        """Compare through a fresh registry, then one frozen holding ``held``
        (names chosen from the fresh registry's by ``held``)."""
        resources = Resources(lexicon=self.lexicon, stopwords=frozenset({"a", "in"}))
        rows = [oracles.prior_fragments(text, prior, self.lexicon) for text in texts]
        sentences = [tokenize(text) for text in texts]
        config = ExperimentConfig(prior)

        registry, reference = FeatureRegistry(), FeatureRegistry()
        vectors = extract_features(sentences, config, resources, registry)
        assert_numbered_like(vectors, registry, reference, rows)

        held = held([*reference.names, "uni:unseen"])
        registry, reference = registry_holding(held), registry_holding(held)
        vectors = extract_features(sentences, config, resources, registry)
        assert_numbered_like(vectors, registry, reference, rows)

    @given(oracle_corpus, st.sampled_from(PRIOR_SETS), st.data())
    def test_matches_per_sentence_oracle(self, texts, prior, data):
        # The frozen registry holds some of the names in another order, and
        # maybe one the corpus never emits.
        self.check(
            texts, prior, lambda names: data.draw(st.lists(st.sampled_from(names), unique=True))
        )

    @pytest.mark.parametrize("prior", PRIOR_SETS)
    def test_runs_and_flips_stop_at_sentence_ends(self, prior):
        texts = ["so great LOVE", "LOVE great ! awful", "hate awful", "great"]
        self.check(texts, prior, lambda names: names[::-2])


def features_of(text, prior, lexicon=None):
    """One sentence's features under ``prior`` by name, through the corpus
    path; the lexicon defaults to :func:`make_lexicon`'s."""
    registry = FeatureRegistry()
    resources = Resources(lexicon=lexicon or make_lexicon(), stopwords=frozenset())
    [vector] = extract_features([tokenize(text)], ExperimentConfig(prior), resources, registry)
    return {registry.name_of(fid): value for fid, value in vector.items()}


class TestNgrams:
    def test_trigram_set_for_short_sentence(self):
        fragment = features_of("Wow that was great !", "L")
        assert fragment == {
            "uni:wow": 1.0,
            "uni:that": 1.0,
            "uni:was": 1.0,
            "uni:great": 1.0,
            "bi:wow_that": 1.0,
            "bi:that_was": 1.0,
            "bi:was_great": 1.0,
            "tri:wow_that_was": 1.0,
            "tri:that_was_great": 1.0,
        }

    def test_presence_is_binary(self):
        fragment = features_of("so so so", "L")
        assert fragment == {"uni:so": 1.0, "bi:so_so": 1.0, "tri:so_so_so": 1.0}

    def test_unigram_only(self):
        # G, B and J take unigrams only.
        for prior in ("G", "B", "J"):
            assert set(features_of("a b", prior)) == {"uni:a", "uni:b"}

    def test_punctuation_excluded_from_grams(self):
        fragment = features_of("nice , day", "L")
        assert "bi:nice_day" in fragment
        assert not any("," in name for name in fragment)

    def test_words_joining_to_one_name_are_one_feature(self):
        # ("a_b", "c") and ("a", "b_c") both join to "a_b_c".
        assert features_of("a_b c a b_c", "L")["bi:a_b_c"] == 1.0


def polarities(text, lexicon):
    """Each token string of ``text`` with the polarity the priors read."""
    tokens = token_table([tokenize(text)], frozenset())
    return dict(zip(tokens.types, _type_tags(tokens, lexicon).polarity().tolist()))


class TestLexicon:
    def test_polarity_resolution(self):
        assert polarities("great AWFUL table mixed", make_lexicon()) == {
            "great": 1,
            "AWFUL": -1,
            "table": 0,
            "mixed": 0,
        }

    def test_load_merges_duplicates_and_skips_comments(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "# comment\nhappy\tpositive\nhappy\temotion\nsad\tnegative,emotion\n",
            encoding="utf-8",
        )
        lexicon = load_lexicon(path)
        assert lexicon.entries == {
            "happy": {"positive", "emotion"},
            "sad": {"negative", "emotion"},
        }

    def test_unknown_tag_names_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("ok\tpositive\nbad\tshiny\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_lexicon(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("just-a-word\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1"):
            load_lexicon(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"\xef\xbb\xbfgreat\tpositive\n")
        assert load_lexicon(path).entries == {"great": {"positive"}}

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"ok\tpositive\n\xff\tpositive\n")
        with pytest.raises(InputError, match="lex.tsv: line 2: not valid UTF-8$") as info:
            load_lexicon(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_default_lexicon_has_core_tags(self):
        lexicon = default_lexicon()
        assert polarities("great terrible", lexicon) == {"great": 1, "terrible": -1}
        assert "emotion" in lexicon.entries["love"]
        assert lexicon.with_tag("implicit_incongruity_phrase")


class TestCategoryCounts:
    def test_counts_per_category(self):
        fragment = features_of("I love to think and think", "G")
        categories = {k: v for k, v in fragment.items() if k.startswith("lexcat.")}
        assert categories == {"lexcat.emotion": 1.0, "lexcat.psych_process": 2.0}

    def test_empty_when_no_hits(self):
        fragment = features_of("plain words", "G")
        assert fragment == {"uni:plain": 1.0, "uni:words": 1.0}


class TestPragmatic:
    def test_includes_unigrams(self):
        fragment = features_of("nice day", "B")
        assert fragment["uni:nice"] == 1.0

    def test_hyperbole_needs_run_of_three(self):
        with_run = features_of("great great great day", "B")
        assert with_run["prag.hyperbole"] == 1.0
        without = features_of("great great day", "B")
        assert "prag.hyperbole" not in without

    def test_sentiment_then_emphasis(self):
        fragment = features_of("great !!", "B")
        assert fragment["prag.pos_then_emphasis"] == 1.0
        assert fragment["prag.punct.exclamation"] == 2.0
        fragment = features_of("awful ...", "B")
        assert fragment["prag.neg_then_ellipsis"] == 1.0
        assert fragment["prag.ellipsis"] == 1.0

    def test_quotes_flag(self):
        fragment = features_of('" quoted " words', "B")
        assert fragment["prag.quotes"] == 1.0
        assert fragment["prag.punct.quote"] == 2.0

    def test_mark_counts_split_ellipsis_from_periods(self):
        fragment = features_of("so . it went ...", "B")
        assert fragment["prag.punct.period"] == 1.0
        assert fragment["prag.punct.ellipsis"] == 1.0

    def test_interjections_and_laughter(self):
        fragment = features_of("wow haha haha", "B")
        assert fragment["prag.interjections"] == 1.0
        assert fragment["prag.laughter"] == 2.0

    def test_plain_sentence_has_no_pragmatic_block(self):
        fragment = features_of("the cat sat", "B")
        assert all(not name.startswith("prag.") for name in fragment)


class TestIncongruity:
    def test_flip_count_and_runs(self):
        # Polarity sequence: great(+) love(+) awful(-) great(+) -> 2 flips,
        # longest positive run 2, longest negative run 1, sum +2.
        fragment = features_of("great love awful but great", "J")
        assert fragment["incong.flips"] == 2.0
        assert fragment["incong.longest_pos_run"] == 2.0
        assert fragment["incong.longest_neg_run"] == 1.0
        assert fragment["incong.polarity"] == 2.0

    def test_neutral_tokens_do_not_break_runs(self):
        fragment = features_of("great really great day", "J")
        assert fragment["incong.longest_pos_run"] == 2.0
        assert "incong.flips" not in fragment

    def test_balanced_polarity_omits_sum(self):
        fragment = features_of("great awful", "J")
        assert "incong.polarity" not in fragment
        assert fragment["incong.flips"] == 1.0

    def test_implicit_phrase_match_is_substring_based(self):
        fragment = features_of("Stuck in traffic again, lovely", "J")
        assert fragment["incong.implicit_matches"] == 1.0

    def test_implicit_phrase_matches_decomposed_text(self):
        # NFC and NFD spellings of "café" tokenize alike, so they match alike.
        lexicon = Lexicon({"café again": frozenset({"implicit_incongruity_phrase"})})
        composed = unicodedata.normalize("NFC", "great, café again")
        decomposed = unicodedata.normalize("NFD", composed)
        assert decomposed != composed
        assert tokenize(decomposed).tokens == tokenize(composed).tokens
        for text in (composed, decomposed):
            fragment = features_of(text, "J", lexicon)
            assert fragment["incong.implicit_matches"] == 1.0

    def test_includes_unigrams(self):
        fragment = features_of("plain text", "J")
        assert fragment == {"uni:plain": 1.0, "uni:text": 1.0}


class TestExperimentConfig:
    def test_parse_full_label(self):
        config = ExperimentConfig.parse("J+S+WS:emb-a")
        assert config.prior_set == "J"
        assert config.augmentation is Augmentation.S_AND_WS
        assert config.embedding == "emb-a"
        assert config.label == "J+S+WS"

    def test_parse_plain_prior(self):
        config = ExperimentConfig.parse("L")
        assert config.augmentation is Augmentation.NONE
        assert config.label == "L"

    def test_unknown_prior_rejected(self):
        with pytest.raises(InputError, match="^unknown prior set 'Q'; expected one of "):
            ExperimentConfig.parse("Q+S:emb-a")

    def test_augmentation_requires_embedding(self):
        with pytest.raises(InputError, match="^an embedding id is required when an augmentation"):
            ExperimentConfig("L", Augmentation.S, "")

    def test_base_config_naming_a_missing_table_is_rejected(self):
        with pytest.raises(InputError, match=r"unknown embedding id 'emb-z'"):
            ExperimentConfig.parse("L:emb-z", tables=["emb-a"])
        assert ExperimentConfig.parse("L:emb-a", tables=["emb-a"]).embedding == "emb-a"
        assert ExperimentConfig.parse("L", tables=[]).embedding == ""


def fragment_dicts(fragments, row=0):
    """Row ``row`` of each fragment as a name -> value dict."""
    return [
        {
            f.names[i]: value
            for r, i, value in zip(f.rows.tolist(), f.name_ids.tolist(), f.values.tolist())
            if r == row
        }
        for f in fragments
    ]


class TestBuildConfigFeatures:
    def setup_method(self):
        self.table = random_table(40, 8, seed=50)
        self.tables = {"emb-a": self.table}
        self.lexicon = make_lexicon()
        self.stopwords = frozenset({"the", "a"})

    def build(self, text, config, registry=None):
        # The prior fragments come from build_config_features, the S/WS
        # values from the table's block; extract_features joins them.
        registry = registry if registry is not None else FeatureRegistry()
        resources = Resources(self.tables, self.lexicon, self.stopwords)
        [vector] = extract_features([tokenize(text)], config, resources, registry)
        return vector, registry

    def names_of(self, vector, registry):
        return {registry.name_of(fid) for fid, _ in vector.items()}

    def test_lexical_prior_emits_up_to_trigrams(self):
        vector, registry = self.build("w000 w001 w002", ExperimentConfig("L"))
        names = self.names_of(vector, registry)
        assert "tri:w000_w001_w002" in names
        assert all(name.split(":")[0] in {"uni", "bi", "tri"} for name in names)

    def test_general_prior_is_unigrams_plus_categories(self):
        vector, registry = self.build("love w000", ExperimentConfig("G"))
        names = self.names_of(vector, registry)
        assert names == {"uni:love", "uni:w000", "lexcat.emotion"}
        tokens = token_table([tokenize("love w000")], self.stopwords)
        assert fragment_dicts(build_config_features(tokens, "G", self.lexicon)) == [
            {"uni:love": 1.0, "uni:w000": 1.0},
            {"lexcat.emotion": 1.0},
        ]

    def test_augmentation_appends_similarity_block(self):
        config = ExperimentConfig("L", Augmentation.S_AND_WS, "emb-a")
        vector, registry = self.build("w000 w001 w002", config)
        names = self.names_of(vector, registry)
        assert sum(name.startswith("emb.s.") for name in names) == 4
        assert sum(name.startswith("emb.ws.") for name in names) == 4

    def test_plain_config_names_are_subset_of_augmented(self):
        registry = FeatureRegistry()
        plain, _ = self.build(
            "w000 w001 great", ExperimentConfig("B"), registry
        )
        augmented, _ = self.build(
            "w000 w001 great",
            ExperimentConfig("B", Augmentation.S, "emb-a"),
            registry,
        )
        plain_ids = {fid for fid, _ in plain.items()}
        assert plain_ids <= {fid for fid, _ in augmented.items()}

    def test_degenerate_sentence_still_interns_block_names(self):
        # Stopwords still produce n-grams; only the similarity block
        # goes to zero (and therefore stays out of the sparse vector).
        config = ExperimentConfig("L", Augmentation.S, "emb-a")
        vector, registry = self.build("the a", config)
        names = self.names_of(vector, registry)
        assert names == {"uni:the", "uni:a", "bi:the_a"}
        assert "emb.s.max_sim" in registry.names

    def test_unknown_embedding_id_rejected(self):
        config = ExperimentConfig("L", Augmentation.S, "missing")
        with pytest.raises(InputError, match="missing"):
            self.build("w000 w001", config)
