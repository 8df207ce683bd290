"""Synthetic text-classification corpora.

The paper evaluates on MR, SST-2, Subj (binary) and TREC (6-class).  Those
corpora are not available offline, so this module generates seeded
class-conditional corpora whose *difficulty profile* — the property
active-learning dynamics actually depend on — is controlled explicitly:

* a shared Zipfian background vocabulary (function/noise words);
* per-class indicative vocabulary organised into **facets** (sub-topics)
  with a skewed Zipf prior.  Rare facets make the pool redundant in the
  way real corpora are: random sampling keeps re-labeling the common
  facets while uncertainty sampling hunts the unlearned rare ones, which
  is what gives informative strategies their advantage;
* each sentence draws its indicative words from a small mixture of
  facets, so the high-uncertainty tail stays diverse and batch selection
  is not trivially redundant;
* a per-sample "purity" drawn from a Beta distribution, creating a
  spectrum from easy (many indicative words) to hard samples;
* a fraction of *ambiguous* samples whose indicative words mix two
  classes — boundary samples that produce exactly the unstable
  historical score sequences the paper's Figure 2 describes.

Presets :func:`mr`, :func:`sst2`, :func:`subj` and :func:`trec` mirror the
class counts and (scaled) sizes of Table 3 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import choice_cdf, choose, ensure_rng
from .datasets import TextDataset
from .vocab import Vocabulary


@dataclass(frozen=True)
class TextCorpusSpec:
    """Parameters of a synthetic classification corpus.

    Attributes
    ----------
    name:
        Corpus name used in reports.
    num_classes:
        Number of target classes.
    size:
        Number of sentences to generate.
    background_vocab:
        Number of shared background (non-indicative) word types.
    facets_per_class:
        Sub-topics per class; each owns ``facet_vocab`` word types.
    facet_vocab:
        Indicative word types per facet.
    facets_per_sample:
        How many facets one sentence's indicative words mix over.
    facet_zipf:
        Skew of the facet prior (higher = more pool redundancy).
    min_length, max_length:
        Sentence length is uniform in ``[min_length, max_length]``.
    purity_alpha, purity_beta:
        Beta-distribution parameters of the per-sample fraction of
        indicative words; lower mean -> harder corpus.
    ambiguous_fraction:
        Fraction of samples whose indicative words are drawn from a
        two-class mixture (boundary samples).
    pretrained_coverage:
        Fraction of word types flagged as having a "pretrained" embedding
        (mirrors the V_pre column of Table 3).
    zipf_exponent:
        Skew of the background word distribution.
    class_priors:
        Optional non-uniform class prior (TREC is imbalanced).
    """

    name: str
    num_classes: int
    size: int
    background_vocab: int = 800
    facets_per_class: int = 24
    facet_vocab: int = 12
    facets_per_sample: int = 2
    facet_zipf: float = 1.4
    min_length: int = 8
    max_length: int = 40
    purity_alpha: float = 1.8
    purity_beta: float = 4.5
    ambiguous_fraction: float = 0.10
    pretrained_coverage: float = 0.88
    zipf_exponent: float = 1.1
    class_priors: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.size <= 0:
            raise ConfigurationError(f"size must be positive, got {self.size}")
        if self.facets_per_class < 1 or self.facet_vocab < 1:
            raise ConfigurationError("facets_per_class and facet_vocab must be >= 1")
        if not 1 <= self.facets_per_sample <= self.facets_per_class:
            raise ConfigurationError(
                f"facets_per_sample must be in [1, {self.facets_per_class}], "
                f"got {self.facets_per_sample}"
            )
        if not 0 < self.min_length <= self.max_length:
            raise ConfigurationError(
                f"invalid length range [{self.min_length}, {self.max_length}]"
            )
        if not 0 <= self.ambiguous_fraction < 1:
            raise ConfigurationError(
                f"ambiguous_fraction must be in [0, 1), got {self.ambiguous_fraction}"
            )
        if self.class_priors and len(self.class_priors) != self.num_classes:
            raise ConfigurationError(
                f"class_priors has {len(self.class_priors)} entries "
                f"for {self.num_classes} classes"
            )

    @property
    def class_vocab(self) -> int:
        """Total indicative word types per class."""
        return self.facets_per_class * self.facet_vocab

    def scaled(self, scale: float) -> "TextCorpusSpec":
        """Return a copy with ``size`` and vocabulary scaled by ``scale``.

        Benchmarks use scaled-down presets so laptop-speed models can run
        many active-learning repetitions; the difficulty knobs are kept.
        """
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        if scale == 1.0:
            return self
        return TextCorpusSpec(
            name=self.name,
            num_classes=self.num_classes,
            size=max(self.num_classes * 10, int(self.size * scale)),
            background_vocab=max(200, int(self.background_vocab * scale)),
            facets_per_class=self.facets_per_class,
            facet_vocab=self.facet_vocab,
            facets_per_sample=self.facets_per_sample,
            facet_zipf=self.facet_zipf,
            min_length=self.min_length,
            max_length=self.max_length,
            purity_alpha=self.purity_alpha,
            purity_beta=self.purity_beta,
            ambiguous_fraction=self.ambiguous_fraction,
            pretrained_coverage=self.pretrained_coverage,
            zipf_exponent=self.zipf_exponent,
            class_priors=self.class_priors,
        )


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def make_text_corpus(
    spec: TextCorpusSpec,
    seed_or_rng: "int | np.random.Generator | None" = None,
) -> TextDataset:
    """Generate a :class:`TextDataset` from ``spec`` deterministically.

    The returned dataset carries two extra attributes used elsewhere:

    * ``pretrained_mask`` — boolean per-vocab-id flag mirroring V_pre;
    * ``ambiguous_mask`` — boolean per-sample flag for boundary samples.
    """
    rng = ensure_rng(seed_or_rng)
    vocab = Vocabulary()
    background_ids = np.array(
        [vocab.add(f"w{i}") for i in range(spec.background_vocab)], dtype=np.int64
    )
    facet_ids = {
        (cls, facet): np.array(
            [vocab.add(f"c{cls}f{facet}_{i}") for i in range(spec.facet_vocab)],
            dtype=np.int64,
        )
        for cls in range(spec.num_classes)
        for facet in range(spec.facets_per_class)
    }
    vocab.freeze()

    background_cdf = choice_cdf(
        _zipf_probabilities(spec.background_vocab, spec.zipf_exponent)
    )
    facet_indices = np.arange(spec.facets_per_class)
    facet_cdf = choice_cdf(_zipf_probabilities(spec.facets_per_class, spec.facet_zipf))
    priors = (
        np.asarray(spec.class_priors, dtype=np.float64)
        if spec.class_priors
        else np.full(spec.num_classes, 1.0 / spec.num_classes)
    )
    priors = priors / priors.sum()

    labels = rng.choice(spec.num_classes, size=spec.size, p=priors)
    lengths = rng.integers(spec.min_length, spec.max_length + 1, size=spec.size)
    purities = rng.beta(spec.purity_alpha, spec.purity_beta, size=spec.size)
    ambiguous = rng.random(spec.size) < spec.ambiguous_fraction
    other_classes = (
        labels + rng.integers(1, spec.num_classes, size=spec.size)
    ) % spec.num_classes
    mix_shares = rng.uniform(0.3, 0.5, size=spec.size)  # share of the *other* class

    sentences: list[np.ndarray] = []
    for i in range(spec.size):
        length = int(lengths[i])
        n_indicative = max(1, int(round(length * purities[i])))
        n_background = max(0, length - n_indicative)
        facets = choose(rng, facet_indices, size=spec.facets_per_sample, cdf=facet_cdf)
        own_lexicon = np.concatenate([facet_ids[(labels[i], f)] for f in facets])
        tokens = [choose(rng, background_ids, size=n_background, cdf=background_cdf)]
        if ambiguous[i]:
            n_other = int(round(n_indicative * mix_shares[i]))
            n_own = n_indicative - n_other
            other_facet = choose(rng, facet_indices, cdf=facet_cdf)
            tokens.append(choose(rng, own_lexicon, size=n_own))
            tokens.append(
                choose(rng, facet_ids[(other_classes[i], other_facet)], size=n_other)
            )
        else:
            tokens.append(choose(rng, own_lexicon, size=n_indicative))
        sentence = np.concatenate(tokens)
        rng.shuffle(sentence)
        sentences.append(sentence)

    dataset = TextDataset(sentences, labels, vocab, spec.num_classes, name=spec.name)
    pretrained_mask = np.zeros(len(vocab), dtype=bool)
    covered = rng.random(len(vocab)) < spec.pretrained_coverage
    pretrained_mask[covered] = True
    pretrained_mask[:2] = False  # PAD/UNK never have pretrained vectors
    dataset.pretrained_mask = pretrained_mask
    dataset.ambiguous_mask = ambiguous
    return dataset


# --------------------------------------------------------------------------
# Presets mirroring Table 3 of the paper.
# --------------------------------------------------------------------------

MR_SPEC = TextCorpusSpec(
    name="MR", num_classes=2, size=10_662, background_vocab=2400,
    facets_per_class=24, facet_vocab=12, min_length=8, max_length=56,
    ambiguous_fraction=0.12,
)
SST2_SPEC = TextCorpusSpec(
    name="SST-2", num_classes=2, size=9_613, background_vocab=2200,
    facets_per_class=24, facet_vocab=12, min_length=8, max_length=53,
    ambiguous_fraction=0.10,
)
SUBJ_SPEC = TextCorpusSpec(
    name="Subj", num_classes=2, size=10_000, background_vocab=2900,
    facets_per_class=24, facet_vocab=12, min_length=6, max_length=23,
    ambiguous_fraction=0.08,
)
TREC_SPEC = TextCorpusSpec(
    name="TREC", num_classes=6, size=5_952, background_vocab=1200,
    facets_per_class=12, facet_vocab=10, min_length=5, max_length=37,
    ambiguous_fraction=0.10,
    class_priors=(0.23, 0.21, 0.20, 0.16, 0.12, 0.08),
)


def mr(scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None) -> TextDataset:
    """Synthetic stand-in for the Movie Review (MR) corpus."""
    return make_text_corpus(MR_SPEC.scaled(scale), seed_or_rng)


def sst2(scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None) -> TextDataset:
    """Synthetic stand-in for the SST-2 corpus."""
    return make_text_corpus(SST2_SPEC.scaled(scale), seed_or_rng)


def subj(scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None) -> TextDataset:
    """Synthetic stand-in for the Subj corpus (used to train the LHS ranker)."""
    return make_text_corpus(SUBJ_SPEC.scaled(scale), seed_or_rng)


def trec(scale: float = 1.0, seed_or_rng: "int | np.random.Generator | None" = None) -> TextDataset:
    """Synthetic stand-in for the 6-class TREC question corpus."""
    return make_text_corpus(TREC_SPEC.scaled(scale), seed_or_rng)
