"""Tests for TextDataset / SequenceDataset containers."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import datasets
from repro.data.datasets import _SCORING_BUFFER, SequenceDataset, TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import DataError
from tests.oracles.data import bag_of_words_oracle, unique_bag_of_words


def public_fields(dataset) -> dict:
    """The attributes a caller sees: the private caches are left out."""
    return {field: value for field, value in vars(dataset).items()
            if not field.startswith("_")}


def assert_same_fields(actual, expected):
    """Every public attribute equal, id arrays compared by dtype and value."""
    assert public_fields(actual).keys() == public_fields(expected).keys()
    for field, value in public_fields(expected).items():
        other = getattr(actual, field)
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], np.ndarray):
            assert len(other) == len(value), field
            for got, want in zip(other, value):
                assert got.dtype == want.dtype and np.array_equal(got, want), field
        elif isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and np.array_equal(other, value), field
        else:
            assert other == value, field


#: Repeated ids, the largest id, empty rows, and a 3-of-5 count, where
#: ``count * (1 / length)`` would round differently from ``count / length``.
EDGE_CORPUS = (5, [[4, 4, 4], [], [0, 1, 4, 2], [], [2, 2, 2, 3, 4]])


@st.composite
def text_corpora(draw):
    """A vocabulary size of 3-60 and 0-40 sentences of 0-25 valid ids."""
    size = draw(st.integers(3, 60))
    sentences = draw(st.lists(
        st.lists(st.integers(0, size - 1), max_size=25), max_size=40
    ))
    return size, sentences


#: Up to three successive ``subset`` calls of up to 30 picks each; a pick
#: becomes an index in ``[-n, n)`` of the dataset it subsets.
subset_chains = st.lists(st.lists(st.integers(0, 10**6), max_size=30), max_size=3)


def follow_chain(dataset, chain):
    """``[(dataset, corpus rows), ...]`` after each subset of ``chain``.

    Picks fold into ``[-n, n)``, so indices repeat and run negative; an
    empty dataset can only be subset by no rows.
    """
    steps = [(dataset, np.arange(len(dataset)))]
    for picks in chain:
        current, rows = steps[-1]
        n = len(current)
        indices = [pick % (2 * n) - n for pick in picks] if n else []
        steps.append((current.subset(indices), rows[np.asarray(indices, dtype=np.int64)]))
    return steps


@pytest.fixture()
def small_text():
    vocab = Vocabulary([f"t{i}" for i in range(8)])
    sentences = [[2, 3, 4], [5, 6], [7, 8, 9, 2]]
    return TextDataset(sentences, [0, 1, 0], vocab, num_classes=2, name="small")


class TestTextDataset:
    def test_len(self, small_text):
        assert len(small_text) == 3

    def test_mismatched_labels_raise(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[2]], [0, 1], vocab, 2)

    def test_label_out_of_range(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[2]], [5], vocab, 2)

    def test_negative_token_id(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[-1]], [0], vocab, 2)

    def test_num_classes_below_two(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[2]], [0], vocab, 1)

    def test_2d_sentence_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[[2, 3]]], [0], vocab, 2)

    def test_2d_sentence_among_1d_sentences_is_named(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(DataError, match="sample 1: token sequences must be 1-D"):
            TextDataset([[2], [[2, 3]], [3]], [0, 1, 0], vocab, 2)

    def test_scalar_sentence_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError, match="sample 0"):
            TextDataset([2], [0], vocab, 2)

    def test_token_id_of_vocab_size_rejected(self):
        # 8 tokens plus PAD and UNK: id 10 is one past the last entry
        vocab = Vocabulary([f"t{i}" for i in range(8)])
        with pytest.raises(DataError, match="sample 0: token id 10 is not in"):
            TextDataset([[2, 10]], [0], vocab, 2)

    def test_out_of_vocab_error_names_the_first_offending_sample(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(DataError, match="sample 2: token id -1"):
            TextDataset([[2, 3], [], [3, -1], [9]], [0, 1, 0, 1], vocab, 2)

    def test_largest_token_id_accepted(self):
        vocab = Vocabulary(["a", "b"])
        dataset = TextDataset([[len(vocab) - 1]], [0], vocab, 2)
        assert dataset.bag_of_words()[0, -1] == 1.0

    def test_bag_of_words_guards_ids_changed_after_construction(self, small_text):
        """Rows are fixed at construction: replacing one, or writing into
        one, is refused, and the features stay those of the rows given."""
        dataset = small_text.subset([0, 1])
        expected = bag_of_words_oracle(dataset).tobytes()
        with pytest.raises(TypeError):
            dataset.sentences[1] = np.array([len(dataset.vocab)])
        for rows in (dataset, small_text):
            with pytest.raises(ValueError, match="read-only"):
                rows.sentences[1][0] = len(dataset.vocab)
        assert dataset.sentences[1].tolist() == [5, 6]
        assert dataset.bag_of_words().tobytes() == expected

    def test_rows_are_views_of_one_flat_copy(self):
        vocab = Vocabulary(["a", "b", "c"])
        given = [np.array([2, 3]), np.array([], dtype=np.int64), np.array([4, 2, 2])]
        dataset = TextDataset(given, [0, 1, 0], vocab, 2)
        assert isinstance(dataset.sentences, tuple)
        base = dataset.sentences[0].base
        assert all(row.base is base for row in dataset.sentences)
        assert not any(np.shares_memory(row, array) for row in dataset.sentences
                       for array in given)
        given[0][0] = 4  # the caller's arrays stay theirs, and writable
        assert dataset.sentences[0].tolist() == [2, 3]

    def test_empty_dataset(self):
        vocab = Vocabulary(["a", "b"])
        dataset = TextDataset([], [], vocab, 2)
        assert len(dataset) == 0
        features = dataset.bag_of_words()
        assert features.shape == (0, 4) and features.dtype == np.float64
        assert dataset.lengths().tolist() == [] and dataset.max_length() == 0

    def test_subset_preserves_alignment(self, small_text):
        sub = small_text.subset([2, 0])
        assert sub.labels.tolist() == [0, 0]
        assert sub.sentences[0].tolist() == [7, 8, 9, 2]

    def test_subset_keeps_num_classes(self, small_text):
        assert small_text.subset([0]).num_classes == 2

    @pytest.mark.parametrize("rows", [[], [0], [5, 0, 3, 3, -1], list(range(600))])
    def test_subset_equals_a_freshly_validated_dataset(self, text_dataset, rows):
        subset = text_dataset.subset(rows)
        fresh = TextDataset(
            [text_dataset.sentences[i].tolist() for i in rows],
            [int(text_dataset.labels[i]) for i in rows],
            text_dataset.vocab,
            text_dataset.num_classes,
            name=text_dataset.name,
        )
        assert_same_fields(subset, fresh)
        assert all(
            mine is text_dataset.sentences[i] for mine, i in zip(subset.sentences, rows)
        )
        assert subset.bag_of_words().tobytes() == fresh.bag_of_words().tobytes()

    def test_lengths(self, small_text):
        assert small_text.lengths().tolist() == [3, 2, 4]

    def test_max_length(self, small_text):
        assert small_text.max_length() == 4

    def test_padded_shape_and_pad_value(self, small_text):
        padded = small_text.padded()
        assert padded.shape == (3, 4)
        assert padded[1, 2] == 0 and padded[1, 3] == 0

    def test_padded_truncates(self, small_text):
        padded = small_text.padded(max_length=2)
        assert padded.shape == (3, 2)
        assert padded[0].tolist() == [2, 3]

    def test_bag_of_words_rows_sum_to_one(self, small_text):
        bow = small_text.bag_of_words()
        assert np.allclose(bow.sum(axis=1), 1.0)

    def test_bag_of_words_counts(self, small_text):
        counts = small_text.token_counts()
        assert counts.offsets.tolist() == [0, 3, 5, 9]
        row = slice(counts.offsets[2], counts.offsets[3])
        tokens = counts.cells[row] - 2 * counts.width
        # sentence 2 is [7, 8, 9, 2]: each token once, in ascending order
        assert tokens.tolist() == [2, 7, 8, 9]
        assert counts.counts[row].tolist() == [1, 1, 1, 1]
        assert counts.values[row].tolist() == [0.25] * 4

    def test_bag_of_words_is_a_fresh_array(self, small_text):
        first, second = small_text.bag_of_words(), small_text.bag_of_words()
        assert not np.shares_memory(first, second)

    @settings(max_examples=60, deadline=None)
    @given(corpus=text_corpora(), chain=subset_chains, count_first=st.booleans(),
           deepest_first=st.booleans())
    @example(corpus=EDGE_CORPUS, chain=[], count_first=False, deepest_first=False)
    @example(corpus=EDGE_CORPUS, chain=[[9, 0, 0, 4], [1, 1, 2], []], count_first=False,
             deepest_first=True)
    @example(corpus=EDGE_CORPUS, chain=[[9, 0, 0, 4], [1, 1, 2], []], count_first=True,
             deepest_first=False)
    @example(corpus=(3, []), chain=[[], []], count_first=True, deepest_first=False)
    def test_bag_of_words_matches_the_per_row_oracle(
        self, corpus, chain, count_first, deepest_first
    ):
        """A corpus and a chain of subsets cut from it after the corpus
        was counted (gathered at once) or before (gathered when first
        featurized), featurized root first or deepest subset first:
        every dataset's features, fresh and buffered, have the oracle's
        bytes, and its rows and labels are the corpus rows the chain
        picked."""
        size, sentences = corpus
        vocab = Vocabulary([f"t{i}" for i in range(size - 2)])
        labels = [row % 2 for row in range(len(sentences))]
        root = TextDataset(sentences, labels, vocab, 2)
        if count_first:
            root.token_counts()
        steps = follow_chain(root, chain)
        for dataset, rows in steps[::-1] if deepest_first else steps:
            assert [row.tolist() for row in dataset.sentences] == [sentences[r] for r in rows]
            assert dataset.labels.tolist() == [labels[r] for r in rows]
            assert dataset.lengths().tolist() == [len(sentences[r]) for r in rows]
            expected = bag_of_words_oracle(dataset)
            features = dataset.bag_of_words()
            assert features.dtype == expected.dtype == np.float64
            assert features.shape == expected.shape == (len(rows), size)
            assert features.flags.c_contiguous
            assert features.tobytes() == expected.tobytes()
            with dataset.scoring_bag_of_words() as buffered:
                assert buffered.tobytes() == expected.tobytes()
            assert scoring_buffer_is_clear()

    def test_bag_of_words_matches_the_oracle_on_a_generated_corpus(self, text_dataset):
        expected = bag_of_words_oracle(text_dataset)
        assert text_dataset.bag_of_words().tobytes() == expected.tobytes()
        assert unique_bag_of_words(text_dataset).tobytes() == expected.tobytes()

    def test_a_corpus_is_counted_once(self, monkeypatch):
        """Building and subsetting count nothing; the first featurization
        counts the whole corpus, and every other dataset cut from it,
        featurized any number of times, gathers from those counts."""
        calls = []
        count_tokens = datasets.count_tokens

        def counting(*args):
            calls.append(args[0].size)
            return count_tokens(*args)

        monkeypatch.setattr(datasets, "count_tokens", counting)
        vocab = Vocabulary([f"t{i}" for i in range(6)])
        corpus = TextDataset([[2, 3, 3], [4], [], [7, 2]], [0, 1, 0, 1], vocab, 2)
        train, test = corpus.subset([0, 2, 3]), corpus.subset([1])
        pool = train.subset([2, 0])
        assert calls == []
        for _ in range(3):
            for dataset in (test, pool, train, corpus):
                assert dataset.bag_of_words().tobytes() == bag_of_words_oracle(dataset).tobytes()
        late = pool.subset([1, -1, 0])
        assert late.bag_of_words().tobytes() == bag_of_words_oracle(late).tobytes()
        assert calls == [6]

    def test_threads_featurizing_one_fresh_corpus_agree(self, text_dataset):
        """More threads than cores race to count one uncounted corpus and
        gather their subsets from it; each gets the oracle's bytes."""
        corpus = TextDataset(text_dataset.sentences, text_dataset.labels, text_dataset.vocab, 2)
        pools = [corpus.subset(range(start, len(corpus), 3)) for start in range(3)]
        pools.append(corpus)
        expected = [bag_of_words_oracle(pool).tobytes() for pool in pools]
        results = [None] * len(pools)
        start = threading.Barrier(len(pools), timeout=60)

        def featurize(slot: int) -> None:
            start.wait()
            results[slot] = pools[slot].bag_of_words().tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=featurize, args=(slot,)) for slot in range(len(pools))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    def test_labels_stay_writable_beside_kept_counts(self, small_text):
        """Ingest writes labels in place; the kept counts do not hold them."""
        dataset = small_text.subset([0, 1, 2])
        features = dataset.bag_of_words().tobytes()
        dataset.labels[1] = 0
        assert dataset.subset([1, 2]).labels.tolist() == [0, 0]
        assert small_text.labels.tolist() == [0, 1, 0]
        assert dataset.bag_of_words().tobytes() == features

    def test_a_grown_vocabulary_widens_the_features(self):
        vocab = Vocabulary(["a", "b"])
        dataset = TextDataset([[2, 3], [3]], [0, 1], vocab, 2)
        pool = dataset.subset([1, 0])
        assert pool.bag_of_words().shape == (2, 4)
        vocab.add("c")
        for rows in (dataset, pool):
            features = rows.bag_of_words()
            assert features.shape == (2, 5)
            assert features.tobytes() == bag_of_words_oracle(rows).tobytes()

    def test_class_counts(self, small_text):
        assert small_text.class_counts().tolist() == [2, 1]

    def test_repr(self, small_text):
        assert "small" in repr(small_text)


@pytest.fixture()
def small_seq():
    vocab = Vocabulary([f"t{i}" for i in range(6)])
    tag_names = ["O", "S-PER"]
    return SequenceDataset(
        [[2, 3], [4, 5, 6]], [[0, 1], [0, 0, 1]], vocab, tag_names, name="seq"
    )


def scoring_buffer_is_clear() -> bool:
    """Whether every cell of the shared scoring buffer is zero."""
    return not _SCORING_BUFFER.cells.any()


def wait_for_child(pid: int, seconds: float = 60.0) -> int:
    """Exit code of the forked child ``pid``; fail if it runs past ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"forked child still running after {seconds} s")
        time.sleep(0.01)


class TestScoringBuffer:
    """``scoring_bag_of_words`` fills one reused buffer and clears it on exit."""

    def test_same_bytes_as_a_fresh_matrix_then_clear(self, text_dataset, small_text):
        # Shrinking pools, a narrower vocabulary, an empty dataset, then wider again.
        for dataset in (text_dataset, text_dataset.subset(range(450)), small_text,
                        text_dataset.subset([]), text_dataset.subset(range(300))):
            with dataset.scoring_bag_of_words() as features:
                assert not len(dataset) or np.shares_memory(features, _SCORING_BUFFER.cells)
                assert features.flags.c_contiguous
                assert features.shape == (len(dataset), len(dataset.vocab))
                assert features.tobytes() == dataset.bag_of_words().tobytes()
            assert scoring_buffer_is_clear()
        assert _SCORING_BUFFER.cells.size >= len(text_dataset) * len(text_dataset.vocab)

    def test_cleared_after_an_error_in_the_block(self, small_text):
        with pytest.raises(RuntimeError, match="scoring failed"):
            with small_text.scoring_bag_of_words() as features:
                assert features.any()
                raise RuntimeError("scoring failed")
        assert scoring_buffer_is_clear()
        assert _SCORING_BUFFER.lock.acquire(blocking=False)
        _SCORING_BUFFER.lock.release()

    def test_an_out_of_range_id_writes_nothing(self, small_text):
        """An out-of-range id cannot get into a row after construction,
        so scoring writes only the cells of the rows given."""
        dataset = small_text.subset([0, 1])
        with pytest.raises(TypeError):
            dataset.sentences[1] = np.array([len(dataset.vocab)])
        with pytest.raises(ValueError, match="read-only"):
            dataset.sentences[1][:] = len(dataset.vocab)
        with dataset.scoring_bag_of_words() as features:
            assert features.tobytes() == bag_of_words_oracle(dataset).tobytes()
        assert scoring_buffer_is_clear()
        assert _SCORING_BUFFER.lock.acquire(blocking=False)
        _SCORING_BUFFER.lock.release()

    def test_a_nested_caller_gets_a_fresh_matrix(self, text_dataset, small_text):
        with text_dataset.scoring_bag_of_words() as held:
            with small_text.scoring_bag_of_words() as nested:
                assert not np.shares_memory(nested, _SCORING_BUFFER.cells)
                assert nested.tobytes() == small_text.bag_of_words().tobytes()
            assert held.tobytes() == text_dataset.bag_of_words().tobytes()
        assert scoring_buffer_is_clear()

    def test_a_forked_child_gets_a_free_lock_and_its_own_buffer(self, small_text):
        expected = small_text.bag_of_words().tobytes()
        with small_text.scoring_bag_of_words():
            pid = os.fork()
            if pid == 0:  # the child: its buffer starts empty and unlocked
                code = 1
                try:
                    fresh = _SCORING_BUFFER.cells.size == 0
                    with small_text.scoring_bag_of_words() as features:
                        reused = np.shares_memory(features, _SCORING_BUFFER.cells)
                        same = features.tobytes() == expected
                    code = 0 if fresh and reused and same and scoring_buffer_is_clear() else 1
                finally:
                    os._exit(code)
            assert wait_for_child(pid) == 0
        assert scoring_buffer_is_clear()


class TestSequenceDataset:
    def test_len(self, small_seq):
        assert len(small_seq) == 2

    def test_token_tag_length_mismatch(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            SequenceDataset([[2, 2]], [[0]], vocab, ["O"])

    def test_sentence_count_mismatch(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            SequenceDataset([[2]], [[0], [0]], vocab, ["O"])

    def test_empty_tag_names(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            SequenceDataset([[2]], [[0]], vocab, [])

    def test_token_id_of_vocab_size_rejected(self):
        vocab = Vocabulary([f"t{i}" for i in range(8)])
        with pytest.raises(DataError, match="sample 1: token id 10 is not in"):
            SequenceDataset([[2], [3, 10]], [[0], [0, 0]], vocab, ["O"])

    def test_negative_tag_id_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError, match="sample 0: tag id -1 is not non-negative"):
            SequenceDataset([[2]], [[-1]], vocab, ["O"])

    def test_2d_tag_sequence_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError, match="tag sequences must be 1-D"):
            SequenceDataset([[2, 2]], [[[0, 0]]], vocab, ["O"])

    def test_length_mismatch_names_the_sentence(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError, match="sentence 1: 2 tokens but 1 tags"):
            SequenceDataset([[2], [2, 2]], [[0], [0]], vocab, ["O"])

    @pytest.mark.parametrize("tags", [[], [0]])
    def test_empty_sentence_rejected(self, tags):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError, match="sample 1: a sentence must have at least one token"):
            SequenceDataset([[2], [], [2]], [[0], tags, [0]], vocab, ["O"])

    def test_num_tags(self, small_seq):
        assert small_seq.num_tags == 2

    def test_subset(self, small_seq):
        sub = small_seq.subset([1])
        assert len(sub) == 1
        assert sub.tag_sequences[0].tolist() == [0, 0, 1]

    @pytest.mark.parametrize("rows", [[], [0], [7, 2, 2, -1], list(range(250))])
    def test_subset_equals_a_freshly_validated_dataset(self, ner_dataset, rows):
        subset = ner_dataset.subset(rows)
        fresh = SequenceDataset(
            [ner_dataset.sentences[i].tolist() for i in rows],
            [ner_dataset.tag_sequences[i].tolist() for i in rows],
            ner_dataset.vocab,
            ner_dataset.tag_names,
            name=ner_dataset.name,
        )
        assert_same_fields(subset, fresh)
        for mine, i in zip(subset.sentences, rows):
            assert mine is ner_dataset.sentences[i]
        for mine, i in zip(subset.tag_sequences, rows):
            assert mine is ner_dataset.tag_sequences[i]

    def test_total_tokens(self, small_seq):
        assert small_seq.total_tokens() == 5

    def test_tags_as_strings(self, small_seq):
        assert small_seq.tags_as_strings(0) == ["O", "S-PER"]

    def test_repr(self, small_seq):
        assert "seq" in repr(small_seq)
