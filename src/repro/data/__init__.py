"""Dataset substrates: vocabularies, synthetic corpora, tagging.

The paper evaluates on public corpora (MR, SST-2, Subj, TREC for text
classification; CoNLL-2002/2003 for NER).  This environment is offline, so
:mod:`repro.data.text` and :mod:`repro.data.ner` provide seeded synthetic
generators whose presets mirror the class counts, sizes, and difficulty
profile of those corpora (see DESIGN.md, "Substitutions").
"""

from .datasets import SequenceDataset, TextDataset
from .ner import NERCorpusSpec, conll2002_dutch, conll2002_spanish, conll2003_english, make_ner_corpus
from .tagging import TagScheme, bio_to_bioes, bioes_to_bio, validate_tags
from .text import TextCorpusSpec, make_text_corpus, mr, sst2, subj, trec
from .vocab import Vocabulary

__all__ = [
    "NERCorpusSpec",
    "SequenceDataset",
    "TagScheme",
    "TextCorpusSpec",
    "TextDataset",
    "Vocabulary",
    "bio_to_bioes",
    "bioes_to_bio",
    "conll2002_dutch",
    "conll2002_spanish",
    "conll2003_english",
    "make_ner_corpus",
    "make_text_corpus",
    "mr",
    "sst2",
    "subj",
    "trec",
    "validate_tags",
]
