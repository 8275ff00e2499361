"""NYT-like synthetic corpus generator.

The New York Times Annotated Corpus used by the paper has ~50M sentences where
words generalize to their lemma and part-of-speech tag and named entities
generalize to their type (PER/ORG/LOC) and to ENTITY.  This generator builds a
scaled-down corpus with the same hierarchy shape:

* word surface forms -> lemma -> part-of-speech tag (a small DAG, mean ~2.8
  ancestors per item);
* entity mentions -> entity type -> ENTITY;
* sentences mix "relational" templates (entity, verb phrase, entity) with
  filler text so that the N1–N5 constraints of Table III have matches.
"""

from __future__ import annotations

import random
from itertools import accumulate

from repro.datasets.synthetic import SyntheticDataset, ZipfSampler, truncated_geometric
from repro.dictionary import Hierarchy

#: Part-of-speech tags used by the generator (and by the N1–N5 constraints).
POS_TAGS = ("VERB", "NOUN", "PREP", "DET", "ADJ", "ADV", "PRON")
ENTITY_TYPES = ("PER", "ORG", "LOC")

#: Filler words' part-of-speech mix, as running sums the way ``random.choices`` makes them.
NOISE_TAGS = ("NOUN", "VERB", "DET", "PREP", "ADJ", "ADV", "PRON")
NOISE_CUM_WEIGHTS = tuple(accumulate((0.3, 0.16, 0.14, 0.12, 0.12, 0.08, 0.08)))


class NytLikeGenerator:
    """Generates an NYT-like corpus of sentences over a lemma/POS/entity hierarchy."""

    def __init__(
        self,
        num_sentences: int = 2000,
        vocabulary_size: int = 400,
        num_entities: int = 60,
        mean_sentence_length: int = 18,
        max_sentence_length: int = 60,
        relational_fraction: float = 0.45,
        seed: int = 13,
    ) -> None:
        self.num_sentences = num_sentences
        self.vocabulary_size = max(vocabulary_size, 50)
        self.num_entities = max(num_entities, 6)
        self.mean_sentence_length = mean_sentence_length
        self.max_sentence_length = max_sentence_length
        self.relational_fraction = relational_fraction
        self.seed = seed

    # ------------------------------------------------------------------ build
    def generate(self) -> SyntheticDataset:
        """Generate the corpus and its hierarchy."""
        rng = random.Random(self.seed)
        hierarchy = Hierarchy()
        words_by_pos = self._build_word_hierarchy(hierarchy, rng)
        entities = self._build_entity_hierarchy(hierarchy, rng)

        samplers = {
            pos: ZipfSampler(words, exponent=1.05, rng=rng)
            for pos, words in words_by_pos.items()
        }
        entity_sampler = ZipfSampler(entities, exponent=1.1, rng=rng)

        sentences: list[tuple[str, ...]] = []
        for _ in range(self.num_sentences):
            if rng.random() < self.relational_fraction:
                sentence = self._relational_sentence(rng, samplers, entity_sampler)
            else:
                sentence = self._filler_sentence(rng, samplers, entity_sampler)
            sentences.append(tuple(sentence))
        return SyntheticDataset("NYT", sentences, hierarchy)

    # -------------------------------------------------------------- hierarchy
    def _build_word_hierarchy(
        self, hierarchy: Hierarchy, rng: random.Random
    ) -> dict[str, list[str]]:
        for pos in POS_TAGS:
            hierarchy.add_item(pos)
        words_by_pos: dict[str, list[str]] = {pos: [] for pos in POS_TAGS}

        # The copular verb "be" gets explicit surface forms (used by N3).
        hierarchy.add_item("be")
        hierarchy.add_edge("be", "VERB")
        for form in ("is", "was", "are", "been", "be_surface"):
            hierarchy.add_edge(form, "be")
            hierarchy.add_edge(form, "VERB")
            words_by_pos["VERB"].append(form)

        share = {
            "VERB": 0.2,
            "NOUN": 0.34,
            "PREP": 0.08,
            "DET": 0.06,
            "ADJ": 0.14,
            "ADV": 0.08,
            "PRON": 0.10,
        }
        for pos in POS_TAGS:
            count = max(3, int(self.vocabulary_size * share[pos]))
            for index in range(count):
                lemma = f"{pos.lower()}{index}"
                hierarchy.add_edge(lemma, pos)
                words_by_pos[pos].append(lemma)
                # A fraction of lemmas get inflected surface forms.
                if rng.random() < 0.4:
                    for suffix in ("_s", "_ed")[: rng.randint(1, 2)]:
                        surface = f"{lemma}{suffix}"
                        hierarchy.add_edge(surface, lemma)
                        hierarchy.add_edge(surface, pos)
                        words_by_pos[pos].append(surface)
        return words_by_pos

    def _build_entity_hierarchy(
        self, hierarchy: Hierarchy, rng: random.Random
    ) -> list[str]:
        hierarchy.add_item("ENTITY")
        for entity_type in ENTITY_TYPES:
            hierarchy.add_edge(entity_type, "ENTITY")
        entities = []
        for index in range(self.num_entities):
            entity_type = ENTITY_TYPES[index % len(ENTITY_TYPES)]
            mention = f"ent_{entity_type.lower()}{index}"
            hierarchy.add_edge(mention, entity_type)
            entities.append(mention)
        return entities

    # -------------------------------------------------------------- sentences
    def _relational_sentence(
        self,
        rng: random.Random,
        samplers: dict[str, ZipfSampler],
        entity_sampler: ZipfSampler,
    ) -> list[str]:
        """A sentence embedding an ENTITY <verb phrase> ENTITY relation."""
        sentence: list[str] = []
        sentence.extend(self._noise(rng, samplers, rng.randint(0, 6)))
        sentence.append(entity_sampler.sample())
        # Verb phrase: VERB+ NOUN+? PREP?  (the shape of constraints N1/N2).
        for _ in range(rng.randint(1, 2)):
            sentence.append(samplers["VERB"].sample())
        if rng.random() < 0.5:
            sentence.append(samplers["NOUN"].sample())
        if rng.random() < 0.6:
            sentence.append(samplers["PREP"].sample())
        sentence.append(entity_sampler.sample())
        sentence.extend(self._noise(rng, samplers, rng.randint(0, 8)))
        if rng.random() < 0.35:
            # Copular clause: ENTITY be DET? ADJ? NOUN (constraint N3).
            sentence.append(entity_sampler.sample())
            sentence.append(rng.choice(["is", "was", "are"]))
            if rng.random() < 0.5:
                sentence.append(samplers["DET"].sample())
            if rng.random() < 0.5:
                sentence.append(samplers["ADJ"].sample())
            sentence.append(samplers["NOUN"].sample())
        return sentence

    def _filler_sentence(
        self,
        rng: random.Random,
        samplers: dict[str, ZipfSampler],
        entity_sampler: ZipfSampler,
    ) -> list[str]:
        length = truncated_geometric(
            rng, self.mean_sentence_length, 3, self.max_sentence_length
        )
        sentence = self._noise(rng, samplers, length)
        if rng.random() < 0.3:
            sentence[rng.randrange(len(sentence))] = entity_sampler.sample()
        return sentence

    @staticmethod
    def _noise(
        rng: random.Random, samplers: dict[str, ZipfSampler], count: int
    ) -> list[str]:
        picks = rng.choices(NOISE_TAGS, cum_weights=NOISE_CUM_WEIGHTS, k=count)
        return [samplers[tag].sample() for tag in picks]


def nyt_like(num_sentences: int = 2000, seed: int = 13, **kwargs) -> SyntheticDataset:
    """Convenience constructor for an NYT-like corpus."""
    return NytLikeGenerator(num_sentences=num_sentences, seed=seed, **kwargs).generate()
