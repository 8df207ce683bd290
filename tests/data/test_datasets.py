"""Tests for TextDataset / SequenceDataset containers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.datasets import SequenceDataset, TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import DataError


def bag_of_words_oracle(dataset, normalize=True):
    """The per-row ``np.add.at`` builder that ``bag_of_words`` replaced."""
    matrix = np.zeros((len(dataset), len(dataset.vocab)), dtype=np.float64)
    for row, sentence in enumerate(dataset.sentences):
        np.add.at(matrix[row], sentence, 1.0)
    if normalize:
        totals = matrix.sum(axis=1, keepdims=True)
        np.divide(matrix, totals, out=matrix, where=totals > 0)
    return matrix


def assert_same_fields(actual, expected):
    """Every attribute equal, id arrays compared by dtype and value."""
    assert vars(actual).keys() == vars(expected).keys()
    for field, value in vars(expected).items():
        other = getattr(actual, field)
        if isinstance(value, list) and value and isinstance(value[0], np.ndarray):
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
        dataset = small_text.subset([0, 1])
        dataset.sentences[1] = np.array([len(dataset.vocab)])
        with pytest.raises(DataError, match="token id 10 is not in"):
            dataset.bag_of_words()

    def test_empty_dataset(self):
        vocab = Vocabulary(["a", "b"])
        dataset = TextDataset([], [], vocab, 2)
        assert len(dataset) == 0
        for normalize in (True, False):
            features = dataset.bag_of_words(normalize=normalize)
            assert features.shape == (0, 4) and features.dtype == np.float64

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
        bow = small_text.bag_of_words(normalize=False)
        assert bow[2, 2] == 1.0  # token id 2 appears once in sentence 2

    def test_bag_of_words_is_a_fresh_array(self, small_text):
        first, second = small_text.bag_of_words(), small_text.bag_of_words()
        assert not np.shares_memory(first, second)

    @settings(max_examples=60, deadline=None)
    @given(corpus=text_corpora(), normalize=st.booleans())
    @example(corpus=EDGE_CORPUS, normalize=True)
    @example(corpus=EDGE_CORPUS, normalize=False)
    @example(corpus=(3, []), normalize=True)
    def test_bag_of_words_matches_the_per_row_oracle(self, corpus, normalize):
        size, sentences = corpus
        vocab = Vocabulary([f"t{i}" for i in range(size - 2)])
        dataset = TextDataset(sentences, [0] * len(sentences), vocab, 2)
        features = dataset.bag_of_words(normalize=normalize)
        expected = bag_of_words_oracle(dataset, normalize=normalize)
        assert features.dtype == expected.dtype == np.float64
        assert features.shape == expected.shape == (len(sentences), size)
        assert features.flags.c_contiguous
        assert features.tobytes() == expected.tobytes()

    def test_bag_of_words_matches_the_oracle_on_a_generated_corpus(self, text_dataset):
        for normalize in (True, False):
            expected = bag_of_words_oracle(text_dataset, normalize=normalize)
            features = text_dataset.bag_of_words(normalize=normalize)
            assert features.tobytes() == expected.tobytes()

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
