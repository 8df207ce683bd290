"""Property-based tests over the synthetic corpus generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import ner, text
from repro.data.ner import NERCorpusSpec, make_ner_corpus
from repro.data.tagging import TagScheme, validate_tags
from repro.data.text import TextCorpusSpec, make_text_corpus

#: sha256 of every preset corpus at scale 0.1, seed 7 (:func:`corpus_digest`),
#: recorded before the generators stopped calling ``Generator.choice``
#: per draw: every draw must stay where it was.
PRESET_DIGESTS = {
    "mr": (text.mr, "f72a54e35b13a412ef4cf237d98249e013b7b06cb100b5df9b650c516af959b7"),
    "sst2": (text.sst2, "23ff4746cdeb91b6ebb68f10f9808ca6dd522e948ab14e173584291b2c5d39c5"),
    "subj": (text.subj, "3fbc4d4733425e02ae5f0fd06e4c9c1773c234afa172067673cd8c97cc5ec181"),
    "trec": (text.trec, "af4b349f423f5b2ca24c55cc460c5fa178a6a5f6a74ccf188a4fbc3500ca339d"),
    "conll-en": (
        ner.conll2003_english,
        "6aeaf5406aa0a58253d342e38aa35a889782120c2ad824d38266a65a14dcca5f",
    ),
    "conll-es": (
        ner.conll2002_spanish,
        "dd8f0bba32fc3e2b728565905ff450e3cb0f9406b637ace0dd4790612facd89b",
    ),
    "conll-nl": (
        ner.conll2002_dutch,
        "2b3d30b773b0f9c3967452d8e5d234a708ad2360e8165d08ba58c4c93bd89a6e",
    ),
}


def corpus_digest(dataset) -> str:
    """sha256 over the vocabulary, every sentence's ids and every target:
    tag sequences, or labels plus the pretrained and ambiguous masks."""
    digest = hashlib.sha256()
    tokens = [dataset.vocab.token_of(i) for i in range(len(dataset.vocab))]
    digest.update(repr(tokens).encode())
    for sentence in dataset.sentences:
        digest.update(np.int64(len(sentence)).tobytes())
        digest.update(sentence.tobytes())
    if hasattr(dataset, "tag_sequences"):
        for tags in dataset.tag_sequences:
            digest.update(tags.tobytes())
    else:
        digest.update(np.asarray(dataset.labels).tobytes())
        digest.update(dataset.pretrained_mask.tobytes())
        digest.update(dataset.ambiguous_mask.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_corpus_bytes_are_pinned(preset):
    build, expected = PRESET_DIGESTS[preset]
    assert corpus_digest(build(0.1, 7)) == expected


@settings(max_examples=15, deadline=None)
@given(
    num_classes=st.integers(2, 4),
    size=st.integers(20, 80),
    ambiguous=st.floats(0.0, 0.5),
    seed=st.integers(0, 1000),
)
def test_text_corpus_invariants(num_classes, size, ambiguous, seed):
    spec = TextCorpusSpec(
        name="prop", num_classes=num_classes, size=size,
        background_vocab=120, facets_per_class=4, facet_vocab=5,
        min_length=4, max_length=12, ambiguous_fraction=ambiguous,
    )
    dataset = make_text_corpus(spec, seed_or_rng=seed)
    assert len(dataset) == size
    assert dataset.labels.min() >= 0 and dataset.labels.max() < num_classes
    lengths = dataset.lengths()
    assert lengths.min() >= 4 and lengths.max() <= 12
    for sentence in dataset.sentences:
        assert sentence.min() >= 2  # PAD/UNK never generated
        assert sentence.max() < len(dataset.vocab)
    assert dataset.ambiguous_mask.shape == (size,)
    assert dataset.pretrained_mask.shape == (len(dataset.vocab),)


@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(20, 60),
    mean_length=st.floats(5.0, 25.0),
    entity_rate=st.floats(0.3, 2.0),
    seed=st.integers(0, 1000),
)
def test_ner_corpus_invariants(size, mean_length, entity_rate, seed):
    spec = NERCorpusSpec(
        name="prop", size=size, background_vocab=100, gazetteer_size=15,
        mean_length=mean_length, length_spread=3.0, entity_rate=entity_rate,
    )
    dataset = make_ner_corpus(spec, seed_or_rng=seed)
    assert len(dataset) == size
    for i in range(size):
        tags = dataset.tags_as_strings(i)
        validate_tags(tags, TagScheme.BIOES)  # every sentence legally tagged
        assert len(tags) == len(dataset.sentences[i])
    assert dataset.lengths().min() >= 3


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generation_is_pure(seed):
    """Calling the generator twice with one seed yields identical corpora."""
    spec = TextCorpusSpec(
        name="pure", num_classes=2, size=30, background_vocab=80,
        facets_per_class=3, facet_vocab=4, min_length=4, max_length=9,
    )
    a = make_text_corpus(spec, seed_or_rng=seed)
    b = make_text_corpus(spec, seed_or_rng=seed)
    assert np.array_equal(a.labels, b.labels)
    assert all(np.array_equal(x, y) for x, y in zip(a.sentences, b.sentences))
