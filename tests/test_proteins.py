"""Tests for the synthetic protein dataset and the motif constraint."""

from __future__ import annotations

import pytest

from repro.api import mine
from repro.datasets import (
    ProteinLikeGenerator,
    protein_hierarchy,
    protein_like,
    protein_motif_constraint,
)
from repro.datasets.proteins import AMINO_ACID_CLASSES, MOTIF_TEMPLATE


class TestProteinHierarchy:
    def test_all_residues_present(self):
        hierarchy = protein_hierarchy()
        for residues in AMINO_ACID_CLASSES.values():
            for residue in residues:
                assert residue in hierarchy

    def test_residues_generalize_to_class_and_root(self):
        hierarchy = protein_hierarchy()
        assert hierarchy.parents("C") == frozenset({"Special"})
        assert "AminoAcid" in hierarchy.ancestors("C")

    def test_twenty_amino_acids(self):
        assert sum(len(residues) for residues in AMINO_ACID_CLASSES.values()) == 20


class TestProteinGenerator:
    def test_deterministic_for_seed(self):
        first = protein_like(50, seed=3).raw_sequences
        second = protein_like(50, seed=3).raw_sequences
        assert first == second
        assert protein_like(50, seed=4).raw_sequences != first

    def test_size_and_length_bounds(self):
        generator = ProteinLikeGenerator(80, mean_length=40, max_length=120, seed=1)
        dataset = generator.generate()
        assert len(dataset) == 80
        assert all(20 <= len(sequence) <= 120 for sequence in dataset.raw_sequences)

    def test_motif_fraction_zero_has_no_implanted_motifs(self):
        dataset = protein_like(30, motif_fraction=0.0, seed=5)
        template_length = len(MOTIF_TEMPLATE)
        implanted = 0
        for sequence in dataset.raw_sequences:
            for start in range(len(sequence) - template_length + 1):
                window = sequence[start : start + template_length]
                if window[0] == "C" and window[3] == "C" and window[-1] == "H":
                    implanted += 1
        # Random coincidences are possible but must be rare.
        assert implanted <= 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProteinLikeGenerator(0)
        with pytest.raises(ValueError):
            ProteinLikeGenerator(10, motif_fraction=1.5)

    def test_alphabet_is_respected(self):
        dataset = protein_like(20, seed=2)
        residues = {r for residues in AMINO_ACID_CLASSES.values() for r in residues}
        for sequence in dataset.raw_sequences:
            assert set(sequence) <= residues


class TestMotifMining:
    def test_motif_constraint_finds_implanted_motif(self):
        dataset = protein_like(300, motif_fraction=0.4, seed=11)
        dictionary, database = dataset.preprocess()
        constraint = protein_motif_constraint(sigma=10)
        result = mine(
            (database, dictionary), constraint.expression, sigma=constraint.sigma,
            algorithm="dcand",
        )
        decoded = result.decoded(dictionary)
        assert decoded, "the implanted motif must be found"
        # Every found pattern is an instance of C .. C .. <hydrophobic> .. H.
        hydrophobic = set(AMINO_ACID_CLASSES["Hydrophobic"]) | {"Hydrophobic"}
        for pattern in decoded:
            assert len(pattern) == 4
            assert pattern[0] == "C" and pattern[1] == "C"
            assert pattern[2] in hydrophobic
            assert pattern[3] == "H"

    def test_dseq_and_dcand_agree_on_motifs(self):
        dataset = protein_like(150, motif_fraction=0.5, seed=21)
        dictionary, database = dataset.preprocess()
        constraint = protein_motif_constraint(sigma=5)
        dseq = mine((database, dictionary), constraint.expression, sigma=5, algorithm="dseq")
        dcand = mine((database, dictionary), constraint.expression, sigma=5, algorithm="dcand")
        assert dseq.patterns() == dcand.patterns()

    def test_generalized_motif_is_more_frequent_than_concrete_ones(self):
        dataset = protein_like(300, motif_fraction=0.4, seed=11)
        dictionary, database = dataset.preprocess()
        constraint = protein_motif_constraint(sigma=5)
        decoded = mine(
            (database, dictionary), constraint.expression, sigma=5, algorithm="dseq"
        ).decoded(dictionary)
        generalized = {
            pattern: frequency
            for pattern, frequency in decoded.items()
            if pattern[2] == "Hydrophobic"
        }
        if generalized:
            concrete_max = max(
                (frequency for pattern, frequency in decoded.items() if pattern[2] != "Hydrophobic"),
                default=0,
            )
            assert max(generalized.values()) >= concrete_max
