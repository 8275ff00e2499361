"""Byte pins of the synthetic generators and of the preprocessing step.

The end-to-end benchmark, the goldens and every recipe in the README draw
their corpora from ``repro.datasets`` and build their f-lists with
``preprocess``.  A change that moves the generator's RNG stream, a sampler's
index for a given draw or one document frequency changes what every one of
them measures, so each digest below was recorded once and must not move.
A deliberate change to a generator re-records them and says so.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.datasets import amzn_like, nyt_like
from repro.datasets.synthetic import ZipfSampler
from repro.sequences import preprocess, write_dictionary


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sequences_digest(sequences) -> str:
    return sha256("\n".join(" ".join(sequence) for sequence in sequences))


GENERATORS = {"nyt": nyt_like, "amzn": amzn_like}

#: (generator, size, seed) -> (raw sequences, ``write_dictionary`` bytes).
CORPUS_DIGESTS = {
    ("nyt", 150, 13): (
        "636eb47bbf0e7f20f519f4a1a228e9e23403ab3dca38ea8026798845a734d5d3",
        "73d6e415e40cc7d17bc387c256505e8c812d2461620babc75f4807149e50c7c3",
    ),
    ("nyt", 150, 29): (
        "ad3ff68c28ddfc9566b29d7b67d8e9ab1a5414ed8cf1769268a0f1b7eb59684c",
        "6b2631f7ecbfbbbe6f2b5e247129642d03a36545592bf778ece5067eeb300576",
    ),
    ("nyt", 1200, 13): (
        "25ede3fefc9a8ad6cd056fc4ef30537842e1bfde0ae533ec30449b2588475596",
        "4b07e3a52b0570babda95d55bffb3defe24d033ebcb81ee2c37c0bf07519c9f3",
    ),
    ("nyt", 1200, 29): (
        "e0b6f2831b126198eaf67dec91072d77202684cb28cab7ba5f0f7f32356929a3",
        "e53b76de5265e858d42ff6c45079cc5384dc6f7a89eb5f305a22fae794bf9846",
    ),
    ("amzn", 200, 13): (
        "4150794dd8204cc1a51bf38cad32ee54edb7097e8c64d2ce08e029f0ce4d2308",
        "ac75ee61685f82f02cc4fb47aa046403f736675b4524b5284b7c7aff06bc3293",
    ),
    ("amzn", 200, 29): (
        "8dc5accd5d720b7f17208dc92ccd1650feba69c0247c2ae95bb888b74210021f",
        "952f4fc4fd5b1c54a0f497995ca3dcf6c0efd2b0f548e3b12b1d49a0f5f64ede",
    ),
    ("amzn", 2500, 13): (
        "e887408456fd662129f6342be54d0ae08b0a4b67069e5340f49dae5d3e55d201",
        "a83f39b26b2eb249b39419a1afceaad6f428bc3295758e0105275d9a25286b48",
    ),
    ("amzn", 2500, 29): (
        "47263a19f66f812c3df2624075da5555894926a09637ebf6a05c2016ca0eedbc",
        "09f8f90ea32930a3d2ff7556c0396c2b0d96a29117dd6e94a77a007acf1f7b68",
    ),
}

#: (population size, exponent, seed) -> digest of 5,000 draws.
ZIPF_DIGESTS = {
    (7, 1.05, 13): "c46fd5b2b45785053c7d0be0cdfb61930a4eeaca9f3261f2b2e80b9f426c4a92",
    (7, 1.05, 29): "35c196c05e57137a7516986ec8f2c5594bb05e6691de78d10a59832cc770104e",
    (300, 1.1, 13): "fbc4e93487fb1b51ad383d751408ee8586fe092a5a9f82f407325f629b810cf2",
    (300, 1.1, 29): "d2f63b6f681b53e99f7f3ae627771a6059bfa830c7f9902be43bc8003e954d16",
}


@pytest.mark.parametrize("key", sorted(CORPUS_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_corpus_and_dictionary_bytes(key, tmp_path):
    name, size, seed = key
    dataset = GENERATORS[name](size, seed=seed)
    dictionary, _database = preprocess(dataset.raw_sequences, dataset.hierarchy)
    path = tmp_path / "dictionary.json"
    write_dictionary(path, dictionary)
    digests = (
        sequences_digest(dataset.raw_sequences),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )
    assert digests == CORPUS_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(ZIPF_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_zipf_draws(key):
    size, exponent, seed = key
    population = [f"w{index}" for index in range(size)]
    draws = ZipfSampler(population, exponent, random.Random(seed)).sample_many(5000)
    assert sha256("\n".join(draws)) == ZIPF_DIGESTS[key]
