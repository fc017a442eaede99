import itertools

import numpy as np
import pytest

import oracles
from incongruity.embeddings import intersect_vocabularies, load_embeddings
from incongruity.errors import InputError
from incongruity.harness import load_dataset
from incongruity.similarity import similarity_block
from incongruity.synthetic import (
    FAMILIES,
    TEMPLATES,
    VARIANTS,
    WORD_CLUSTERS,
    generate_corpus,
    toy_embedding_tables,
    write_corpus_and_tables,
)
from incongruity.text import default_stopwords, token_table, tokenize

ALL_CLUSTER_WORDS = frozenset(itertools.chain.from_iterable(WORD_CLUSTERS))


def cosine(table, word_a, word_b):
    return oracles.cosine(table.vector(word_a), table.vector(word_b))


class TestToyTables:
    def test_default_variants_and_shape(self):
        tables = toy_embedding_tables(seed=0)
        assert tuple(tables) == VARIANTS
        for name, table in tables.items():
            assert table.name == name
            assert table.dimension == 64
            assert len(table) == len(ALL_CLUSTER_WORDS) + 3

    def test_seeded_generation_is_deterministic(self):
        first = toy_embedding_tables(seed=5)
        second = toy_embedding_tables(seed=5)
        for name in first:
            np.testing.assert_array_equal(
                first[name].vectors, second[name].vectors
            )

    def test_similarity_tiers(self):
        tables = toy_embedding_tables(seed=0)
        for table in tables.values():
            same_cluster = cosine(table, "cat", "dog")
            same_family = cosine(table, "cat", "river")
            cross_family = cosine(table, "cat", "hammer")
            assert same_cluster > 0.75
            assert 0.25 < same_family < 0.65
            assert cross_family < 0.15
            assert same_cluster > same_family > cross_family

    def test_variants_differ_in_vectors_but_agree_in_structure(self):
        tables = toy_embedding_tables(seed=0)
        a, b = tables["emb-a"], tables["emb-b"]
        assert not np.array_equal(a.vector("cat"), b.vector("cat"))
        # emb-b is scaled 2x relative to emb-a.
        ratio = np.linalg.norm(a.vector("cat")) / np.linalg.norm(b.vector("cat"))
        assert ratio == pytest.approx(0.5, abs=0.1)
        assert cosine(a, "cat", "dog") == pytest.approx(
            cosine(b, "cat", "dog"), abs=0.1
        )

    def test_fillers_are_variant_unique(self):
        tables = toy_embedding_tables(seed=0)
        shared = intersect_vocabularies(list(tables.values()))
        for table in shared:
            assert set(table.vocab) == ALL_CLUSTER_WORDS


class TestGenerateCorpus:
    def test_label_skew_is_exact(self):
        instances = generate_corpus(50, 0.3, seed=123)
        assert sum(i.label for i in instances) == 15
        instances = generate_corpus(10, 0.25, seed=1)
        assert sum(i.label for i in instances) == 2

    def test_same_seed_reproduces_corpus(self):
        assert generate_corpus(40, 0.5, seed=7) == generate_corpus(40, 0.5, seed=7)

    def test_seed_changes_corpus(self):
        assert generate_corpus(40, 0.5, seed=7) != generate_corpus(40, 0.5, seed=8)

    def test_ids_are_stable_and_unique(self):
        instances = generate_corpus(12, 0.5, seed=0)
        assert [i.id for i in instances] == [f"q{i:05d}" for i in range(12)]

    def test_every_sentence_has_four_content_words(self):
        table = toy_embedding_tables(seed=0)["emb-a"]
        stopwords = default_stopwords()
        for instance in generate_corpus(60, 0.4, seed=2):
            words, _, _ = oracles.content_words(
                tokenize(instance.text).tokens, stopwords, table
            )
            assert len(words) == 4
            assert set(words) <= ALL_CLUSTER_WORDS

    def test_sarcastic_sentences_mix_families(self):
        # A sarcastic sentence has a same-cluster pair and a cross-family
        # word; a plain sentence draws all four words from one family.
        cluster_of = {
            word: index
            for index, cluster in enumerate(WORD_CLUSTERS)
            for word in cluster
        }
        family_of = {
            cluster: family_index
            for family_index, clusters in enumerate(FAMILIES)
            for cluster in clusters
        }
        table = toy_embedding_tables(seed=0)["emb-a"]
        stopwords = default_stopwords()
        for instance in generate_corpus(80, 0.5, seed=3):
            words, _, _ = oracles.content_words(
                tokenize(instance.text).tokens, stopwords, table
            )
            families = {family_of[cluster_of[w]] for w in words}
            clusters = [cluster_of[w] for w in words]
            if instance.label == 1:
                assert len(families) == 2
                assert len(set(clusters)) == 3  # one cluster repeats
            else:
                assert len(families) == 1
                assert len(set(clusters)) == 4

    def test_zero_separability_removes_the_signal(self):
        instances = generate_corpus(30, 0.5, seed=4, separability=0.0)
        assert sum(i.label for i in instances) == 15
        cluster_of = {
            word: index
            for index, cluster in enumerate(WORD_CLUSTERS)
            for word in cluster
        }
        table = toy_embedding_tables(seed=0)["emb-a"]
        stopwords = default_stopwords()
        for instance in instances:
            words, _, _ = oracles.content_words(
                tokenize(instance.text).tokens, stopwords, table
            )
            assert len({cluster_of[w] for w in words}) == 4

    def test_templates_use_only_stopword_fillers(self):
        stopwords = default_stopwords()
        for template in TEMPLATES:
            rendered = template.format("w", "x", "y", "z")
            for token in tokenize(rendered).tokens:
                if token in ("w", "x", "y", "z"):
                    continue
                assert token.casefold() in stopwords or not any(
                    ch.isalnum() for ch in token
                )

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_corpus(10, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_corpus(10, 0.5, seed=0, separability=1.5)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0.5), "n must be at least 1, got 0"),
            ((-5, 0.5), "n must be at least 1, got -5"),
            ((10, float("nan")), "skew must be strictly between 0 and 1, got nan"),
            ((10, 0.5, 0, float("nan")), "separability must lie in [0, 1], got nan"),
            (
                (3, 0.1),
                "n=3 and skew=0.1 give 0 sarcastic and 3 plain instances; "
                "both classes need at least one",
            ),
            (
                (3, 0.9),
                "n=3 and skew=0.9 give 3 sarcastic and 0 plain instances; "
                "both classes need at least one",
            ),
        ],
    )
    def test_error_names_the_argument(self, args, message):
        with pytest.raises(InputError) as excinfo:
            generate_corpus(*args)
        assert str(excinfo.value) == message


class TestWriteCorpusAndTables:
    def test_written_files_load_back(self, tmp_path):
        instances = generate_corpus(20, 0.5, seed=11)
        tables = toy_embedding_tables(seed=11)
        corpus_path = tmp_path / "corpus.tsv"
        write_corpus_and_tables(
            instances, corpus_path, tables, tmp_path / "emb"
        )
        assert load_dataset(corpus_path) == instances
        for name, table in tables.items():
            loaded = load_embeddings(
                tmp_path / "emb" / f"{name}.txt", "text_vectors", name=name
            )
            assert loaded.vocab == table.vocab
            np.testing.assert_array_equal(loaded.vectors, table.vectors)

    def test_corpus_only_write(self, tmp_path):
        instances = generate_corpus(5, 0.4, seed=12)
        path = tmp_path / "corpus.tsv"
        write_corpus_and_tables(instances, path)
        assert load_dataset(path) == instances


class TestEndToEndSignal:
    def test_similarity_features_separate_the_classes(self):
        # The designed signal: sarcastic sentences contain both a
        # high-similarity pair and a low-similarity pair, plain sentences
        # sit uniformly in between.
        table = toy_embedding_tables(seed=0)["emb-a"]
        instances = generate_corpus(100, 0.5, seed=5)
        sentences = [tokenize(instance.text) for instance in instances]
        block = similarity_block(token_table(sentences, default_stopwords()), table)
        max_sims = {0: [], 1: []}
        min_dissims = {0: [], 1: []}
        for instance, (max_sim, _, _, min_dissim) in zip(instances, block[:, :4].tolist()):
            max_sims[instance.label].append(max_sim)
            min_dissims[instance.label].append(min_dissim)
        assert min(max_sims[1]) > max(max_sims[0])
        assert max(min_dissims[1]) < min(min_dissims[0])
