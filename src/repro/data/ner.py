"""Synthetic named-entity-recognition corpora.

Stand-ins for the CoNLL-2003 English and CoNLL-2002 Spanish/Dutch corpora
(Table 4 of the paper).  Each synthetic "language" has:

* a background vocabulary of context words with Zipfian frequencies,
* one gazetteer per entity type (PER, ORG, LOC, MISC) whose surface forms
  are 1-3 tokens long,
* per-language sentence-length and entity-density profiles matching the
  token/sentence ratios of Table 4 (Spanish sentences are ~2.3x longer
  than English ones, which is what makes the MNLP length-normalisation
  experiment meaningful),
* trigger words that precede entities of a given type, so a feature-based
  CRF can actually learn the task.

Tags are produced in BIO and converted to BIOES following Ma & Hovy
(2016), as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import choice_cdf, choose, ensure_rng
from .datasets import SequenceDataset
from .tagging import bio_to_bioes
from .vocab import Vocabulary

ENTITY_TYPES = ("PER", "ORG", "LOC", "MISC")


def bioes_tag_names(entity_types: tuple[str, ...] = ENTITY_TYPES) -> list[str]:
    """The full BIOES tag inventory for ``entity_types`` (``O`` first)."""
    names = ["O"]
    for entity_type in entity_types:
        names.extend(f"{prefix}-{entity_type}" for prefix in ("B", "I", "E", "S"))
    return names


@dataclass(frozen=True)
class NERCorpusSpec:
    """Parameters of a synthetic NER corpus.

    Attributes
    ----------
    name:
        Corpus name used in reports.
    size:
        Number of sentences.
    background_vocab:
        Number of context word types.
    gazetteer_size:
        Entity surface-form head words per entity type.
    trigger_words:
        Number of type-indicative trigger words per entity type.
    mean_length, length_spread:
        Sentence length ~ max(3, round(Normal(mean, spread))).
    entity_rate:
        Expected entities per 10 tokens.
    max_entity_length:
        Longest entity mention in tokens.
    trigger_prob:
        Probability an entity is preceded by one of its trigger words.
    """

    name: str
    size: int
    background_vocab: int = 1500
    gazetteer_size: int = 120
    trigger_words: int = 12
    mean_length: float = 14.0
    length_spread: float = 5.0
    entity_rate: float = 1.2
    max_entity_length: int = 3
    trigger_prob: float = 0.7
    zipf_exponent: float = 1.05

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"size must be positive, got {self.size}")
        if self.mean_length < 3:
            raise ConfigurationError(f"mean_length must be >= 3, got {self.mean_length}")
        if self.max_entity_length < 1:
            raise ConfigurationError(
                f"max_entity_length must be >= 1, got {self.max_entity_length}"
            )
        if not 0 <= self.trigger_prob <= 1:
            raise ConfigurationError(f"trigger_prob must be in [0,1], got {self.trigger_prob}")

    def scaled(self, scale: float) -> "NERCorpusSpec":
        """Copy with ``size`` and vocabulary scaled by ``scale``."""
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        return NERCorpusSpec(
            name=self.name,
            size=max(50, int(self.size * scale)),
            background_vocab=max(150, int(self.background_vocab * scale)),
            gazetteer_size=max(25, int(self.gazetteer_size * scale)),
            trigger_words=self.trigger_words,
            mean_length=self.mean_length,
            length_spread=self.length_spread,
            entity_rate=self.entity_rate,
            max_entity_length=self.max_entity_length,
            trigger_prob=self.trigger_prob,
            zipf_exponent=self.zipf_exponent,
        )


def make_ner_corpus(
    spec: NERCorpusSpec,
    seed_or_rng: "int | np.random.Generator | None" = None,
) -> SequenceDataset:
    """Generate a BIOES-tagged :class:`SequenceDataset` from ``spec``."""
    rng = ensure_rng(seed_or_rng)
    vocab = Vocabulary()
    background_ids = np.array(
        [vocab.add(f"{spec.name.lower()}_w{i}") for i in range(spec.background_vocab)],
        dtype=np.int64,
    )
    gazetteers = {
        entity_type: np.array(
            [vocab.add(f"{entity_type}_{i}") for i in range(spec.gazetteer_size)],
            dtype=np.int64,
        )
        for entity_type in ENTITY_TYPES
    }
    triggers = {
        entity_type: np.array(
            [vocab.add(f"trig_{entity_type}_{i}") for i in range(spec.trigger_words)],
            dtype=np.int64,
        )
        for entity_type in ENTITY_TYPES
    }
    vocab.freeze()

    ranks = np.arange(1, spec.background_vocab + 1, dtype=np.float64)
    background_probs = ranks**-spec.zipf_exponent
    background_probs /= background_probs.sum()
    background_cdf = choice_cdf(background_probs)
    # MISC is rarer than the other types, as in CoNLL.
    type_indices = np.arange(len(ENTITY_TYPES))
    type_cdf = choice_cdf(np.array([0.32, 0.27, 0.29, 0.12]))

    tag_names = bioes_tag_names()
    tag_ids = {tag: i for i, tag in enumerate(tag_names)}

    sentences: list[np.ndarray] = []
    tag_sequences: list[np.ndarray] = []
    for _ in range(spec.size):
        length = max(3, int(round(rng.normal(spec.mean_length, spec.length_spread))))
        n_entities = rng.poisson(spec.entity_rate * length / 10.0)
        tokens: list[int] = []
        bio_tags: list[str] = []
        remaining_entities = n_entities
        while len(tokens) < length:
            budget = length - len(tokens)
            if remaining_entities > 0 and budget >= 2 and rng.random() < 0.5:
                entity_type = ENTITY_TYPES[choose(rng, type_indices, cdf=type_cdf)]
                if rng.random() < spec.trigger_prob:
                    tokens.append(int(choose(rng, triggers[entity_type])))
                    bio_tags.append("O")
                    budget -= 1
                span = int(rng.integers(1, min(spec.max_entity_length, max(1, budget)) + 1))
                mention = choose(rng, gazetteers[entity_type], size=span)
                tokens.extend(int(t) for t in mention)
                bio_tags.append(f"B-{entity_type}")
                bio_tags.extend(f"I-{entity_type}" for _ in range(span - 1))
                remaining_entities -= 1
            else:
                tokens.append(int(choose(rng, background_ids, cdf=background_cdf)))
                bio_tags.append("O")
        tokens = tokens[:length]
        bio_tags = bio_tags[:length]
        # Truncation can cut an entity; re-validate by trimming a dangling
        # B/I whose continuation was removed is unnecessary because BIO is
        # always legal prefix-wise, so direct conversion is safe.
        bioes = bio_to_bioes(bio_tags)
        sentences.append(np.asarray(tokens, dtype=np.int64))
        tag_sequences.append(np.asarray([tag_ids[t] for t in bioes], dtype=np.int64))

    return SequenceDataset(sentences, tag_sequences, vocab, tag_names, name=spec.name)


# --------------------------------------------------------------------------
# Presets mirroring Table 4 of the paper (train-split sentence counts; the
# token/sentence ratios give the per-language length profile).
# --------------------------------------------------------------------------

CONLL2003_EN_SPEC = NERCorpusSpec(
    name="CoNLL-2003-English", size=14_987, mean_length=13.6, length_spread=5.0,
    entity_rate=1.5,
)
CONLL2002_ES_SPEC = NERCorpusSpec(
    name="CoNLL-2002-Spanish", size=8_322, mean_length=31.8, length_spread=12.0,
    entity_rate=0.7,
)
CONLL2002_NL_SPEC = NERCorpusSpec(
    name="CoNLL-2002-Dutch", size=15_806, mean_length=12.8, length_spread=6.0,
    entity_rate=1.0,
)


def conll2003_english(
    scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None
) -> SequenceDataset:
    """Synthetic stand-in for CoNLL-2003 English."""
    return make_ner_corpus(CONLL2003_EN_SPEC.scaled(scale), seed_or_rng)


def conll2002_spanish(
    scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None
) -> SequenceDataset:
    """Synthetic stand-in for CoNLL-2002 Spanish (long sentences)."""
    return make_ner_corpus(CONLL2002_ES_SPEC.scaled(scale), seed_or_rng)


def conll2002_dutch(
    scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None
) -> SequenceDataset:
    """Synthetic stand-in for CoNLL-2002 Dutch."""
    return make_ner_corpus(CONLL2002_NL_SPEC.scaled(scale), seed_or_rng)
