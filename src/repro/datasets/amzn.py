"""AMZN-like synthetic product-review dataset generator.

The AMZN dataset of the paper interprets the products reviewed by one customer
as one input sequence; products generalize to categories and departments
(a DAG — some products belong to several categories).  AMZN-F is a forest
variant in which every item keeps only its most popular parent.

The generator builds a small product catalogue organised into departments that
match the A1–A4 constraints of Table III (Electronics, Books, Musical
Instruments, Camera accessories) plus generic departments, and draws per-user
review sequences with a skewed length distribution (mean ≈ 4, long tail).
"""

from __future__ import annotations

import random
from itertools import accumulate

from repro.datasets.synthetic import SyntheticDataset, ZipfSampler, truncated_geometric
from repro.dictionary import Hierarchy

#: Department gids referenced by the A1–A4 constraints.
DEPARTMENTS = (
    "Electronics",
    "Books",
    "MusicInstr",
    "Cameras",
    "Home",
    "Clothing",
    "Toys",
)

#: Running sums of the departments' shares of reviews, as ``random.choices`` makes them.
DEPARTMENT_CUM_WEIGHTS = tuple(accumulate((0.3, 0.22, 0.1, 0.1, 0.12, 0.09, 0.07)))

#: Sub-categories per department (products attach to sub-categories).
SUBCATEGORIES = {
    "Electronics": ("MP3Players", "Headphones", "Mice", "Keyboards", "Accessories"),
    "Books": ("Fantasy", "SciFi", "Mystery", "Biography"),
    "MusicInstr": ("Guitars", "Keyboards_Instr", "BagsCases", "Drums"),
    "Cameras": ("DigitalCamera", "Lenses", "Tripods", "SDCards", "Batteries"),
    "Home": ("Kitchen", "Furniture", "Garden"),
    "Clothing": ("Shoes", "Shirts", "Jackets"),
    "Toys": ("Puzzles", "Games", "Dolls"),
}


class AmznLikeGenerator:
    """Generates an AMZN-like review dataset over a product/category hierarchy."""

    def __init__(
        self,
        num_users: int = 3000,
        products_per_subcategory: int = 12,
        mean_sequence_length: int = 4,
        max_sequence_length: int = 40,
        multi_category_fraction: float = 0.25,
        forest: bool = False,
        seed: int = 29,
    ) -> None:
        self.num_users = num_users
        self.products_per_subcategory = max(products_per_subcategory, 2)
        self.mean_sequence_length = mean_sequence_length
        self.max_sequence_length = max_sequence_length
        self.multi_category_fraction = multi_category_fraction
        self.forest = forest
        self.seed = seed

    # ------------------------------------------------------------------ build
    def generate(self) -> SyntheticDataset:
        """Generate review sequences and the product hierarchy."""
        rng = random.Random(self.seed)
        hierarchy = Hierarchy()
        products_by_department = self._build_hierarchy(hierarchy, rng)

        samplers = {
            department: ZipfSampler(products, exponent=1.1, rng=rng)
            for department, products in products_by_department.items()
        }

        sequences: list[tuple[str, ...]] = []
        for _ in range(self.num_users):
            length = truncated_geometric(
                rng, self.mean_sequence_length, 1, self.max_sequence_length
            )
            # Users shop mostly within a couple of favourite departments, which
            # creates the co-occurrence patterns the A1–A4 constraints look for.
            favourites = rng.choices(DEPARTMENTS, cum_weights=DEPARTMENT_CUM_WEIGHTS, k=2)
            basket: list[str] = []
            for _ in range(length):
                if rng.random() < 0.75:
                    department = rng.choice(favourites)
                else:
                    department = rng.choices(DEPARTMENTS, cum_weights=DEPARTMENT_CUM_WEIGHTS)[0]
                basket.append(samplers[department].sample())
            sequences.append(tuple(basket))
        name = "AMZN-F" if self.forest else "AMZN"
        return SyntheticDataset(name, sequences, hierarchy)

    # -------------------------------------------------------------- hierarchy
    def _build_hierarchy(
        self, hierarchy: Hierarchy, rng: random.Random
    ) -> dict[str, list[str]]:
        for department in DEPARTMENTS:
            hierarchy.add_item(department)
            for subcategory in SUBCATEGORIES[department]:
                hierarchy.add_edge(subcategory, department)
        products_by_department: dict[str, list[str]] = {d: [] for d in DEPARTMENTS}
        all_subcategories = [
            (department, subcategory)
            for department in DEPARTMENTS
            for subcategory in SUBCATEGORIES[department]
        ]
        for department, subcategory in all_subcategories:
            for index in range(self.products_per_subcategory):
                product = f"p_{subcategory}_{index}"
                hierarchy.add_edge(product, subcategory)
                products_by_department[department].append(product)
                if not self.forest and rng.random() < self.multi_category_fraction:
                    # DAG: the product also belongs to a second sub-category.
                    other_department, other_subcategory = rng.choice(all_subcategories)
                    if other_subcategory != subcategory:
                        hierarchy.add_edge(product, other_subcategory)
        return products_by_department


def amzn_like(num_users: int = 3000, seed: int = 29, **kwargs) -> SyntheticDataset:
    """Convenience constructor for the AMZN-like dataset (DAG hierarchy)."""
    return AmznLikeGenerator(num_users=num_users, seed=seed, **kwargs).generate()


def amzn_forest_like(num_users: int = 3000, seed: int = 29, **kwargs) -> SyntheticDataset:
    """Convenience constructor for the AMZN-F-like dataset (forest hierarchy)."""
    kwargs.setdefault("forest", True)
    return AmznLikeGenerator(num_users=num_users, seed=seed, **kwargs).generate()
