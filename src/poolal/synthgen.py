"""Seeded synthetic datasets: class-conditional Gaussian clouds with controlled confusion.

Classes are isotropic Gaussians; "overlap pairs" relocate a fraction of one
class's samples to another class's mean (keeping the original label), which
puts a floor under that class's false-negative rate no matter how much data
the learner sees. The built-in tissue-style preset uses this to make one
class structurally hard and the rarest class confusable with it, emulating
the imbalance profile this harness is benchmarked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DatasetBundle, Split
from .errors import ConfigurationError
from .strategy import largest_remainder

__all__ = ["GeneratorSpec", "generate", "tissue_benchmark_preset", "PRESETS"]


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything :func:`generate` needs; fully determines the dataset with ``seed``.

    ``class_means`` may be given explicitly (one row per class) or left None,
    in which case class i's mean is ``auto_scale * e_i`` (the i-th scaled
    one-hot corner, requires feature_dim >= num_classes). ``class_names``
    left empty become ``class_0``, ``class_1``, ...
    """

    num_classes: int
    feature_dim: int
    per_class_train_counts: tuple[int, ...]
    per_class_val_counts: tuple[int, ...]
    per_class_test_counts: tuple[int, ...]
    class_sigmas: tuple[float, ...]
    seed: int
    class_names: tuple[str, ...] = ()
    class_means: tuple[tuple[float, ...], ...] | None = None
    auto_scale: float = 3.0
    overlap_pairs: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError(f"need at least 2 classes, got {self.num_classes}")
        if self.feature_dim < 1:
            raise ConfigurationError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not self.class_names:
            object.__setattr__(self, "class_names", tuple(f"class_{i}" for i in range(self.num_classes)))
        for name, counts in (
            ("per_class_train_counts", self.per_class_train_counts),
            ("per_class_val_counts", self.per_class_val_counts),
            ("per_class_test_counts", self.per_class_test_counts),
        ):
            if len(counts) != self.num_classes:
                raise ConfigurationError(f"{name} must have {self.num_classes} entries")
            if any(c < 0 for c in counts):
                raise ConfigurationError(f"{name} entries must be >= 0")
        # generate holds every feature value and class mean as a float64: a spec past 2 GiB of
        # them (``paper-shape`` holds 4.7e5) is refused here, not left to fail in an allocation
        rows = sum(self.per_class_train_counts) + sum(self.per_class_val_counts) + sum(self.per_class_test_counts)
        if (rows + self.num_classes) * self.feature_dim > 2**28:
            raise ConfigurationError(
                f"{rows} rows and {self.num_classes} means of {self.feature_dim} features exceed 2**28 values"
            )
        if len(self.class_sigmas) != self.num_classes:
            raise ConfigurationError(f"class_sigmas must have {self.num_classes} entries")
        if any(s <= 0 for s in self.class_sigmas):
            raise ConfigurationError("class_sigmas must be > 0")
        if len(self.class_names) != self.num_classes:
            raise ConfigurationError(f"class_names must have {self.num_classes} entries")
        if self.class_means is not None:
            if len(self.class_means) != self.num_classes or any(
                len(row) != self.feature_dim for row in self.class_means
            ):
                raise ConfigurationError(
                    f"class_means must be {self.num_classes} x {self.feature_dim}"
                )
        elif self.feature_dim < self.num_classes:
            raise ConfigurationError(
                "auto mean placement needs feature_dim >= num_classes "
                f"({self.feature_dim} < {self.num_classes})"
            )
        overlap_total = [0.0] * self.num_classes
        for a, b, w in self.overlap_pairs:
            if not (0 <= a < self.num_classes and 0 <= b < self.num_classes):
                raise ConfigurationError(f"overlap pair ({a}, {b}) references unknown classes")
            if a == b:
                raise ConfigurationError(f"overlap pair ({a}, {b}) must use two distinct classes")
            if not 0 <= w <= 1:
                raise ConfigurationError(f"overlap weight {w} must lie in [0, 1]")
            overlap_total[a] += w
        if any(t > 1 + 1e-12 for t in overlap_total):
            raise ConfigurationError("overlap weights for a class must sum to <= 1")

    def resolved_means(self) -> np.ndarray:
        if self.class_means is not None:
            return np.asarray(self.class_means, dtype=float)
        means = np.zeros((self.num_classes, self.feature_dim))
        for i in range(self.num_classes):
            means[i, i] = self.auto_scale
        return means


def _component_counts(spec: GeneratorSpec, class_index: int, n: int) -> list[tuple[int, int]]:
    """(mean-class, count) components for one class: main cloud plus overlaps."""
    pairs = [(b, w) for a, b, w in spec.overlap_pairs if a == class_index]
    main_w = 1.0 - sum(w for _, w in pairs)
    weights = np.array([main_w] + [w for _, w in pairs])
    counts = largest_remainder(weights, n) if n > 0 else np.zeros(len(weights), dtype=int)
    components = [(class_index, int(counts[0]))]
    components.extend((b, int(c)) for (b, _), c in zip(pairs, counts[1:]))
    return components


def _generate_split(
    spec: GeneratorSpec,
    split: str,
    per_class_counts: Sequence[int],
    means: np.ndarray,
    gen: np.random.Generator,
) -> Split:
    blocks = [np.empty((0, spec.feature_dim))]
    for i, n in enumerate(per_class_counts):
        sigma = spec.class_sigmas[i]
        for mean_class, count in _component_counts(spec, i, int(n)):
            blocks.append(means[mean_class] + sigma * gen.standard_normal((count, spec.feature_dim)))
    X = np.concatenate(blocks)
    y = np.repeat(np.arange(len(per_class_counts)), per_class_counts)
    return Split(X, y, [f"{split}-{i:06d}" for i in range(len(X))])


def generate(spec: GeneratorSpec) -> DatasetBundle:
    """Materialize the three splits described by ``spec``; pure in (spec, seed)."""
    means = spec.resolved_means()
    gen = np.random.default_rng(np.random.SeedSequence(spec.seed))
    train = _generate_split(spec, "train", spec.per_class_train_counts, means, gen)
    validation = _generate_split(spec, "val", spec.per_class_val_counts, means, gen)
    test = _generate_split(spec, "test", spec.per_class_test_counts, means, gen)
    return DatasetBundle.build(spec.class_names, train, validation, test, spec.feature_dim)


def tissue_benchmark_preset(seed: int = 7) -> GeneratorSpec:
    """The built-in 5-class imbalanced benchmark (CLI preset ``paper-shape``).

    Five tissue-style classes at 1/10 of the reference cohort's train/test
    counts with 250 validation samples per class. Two overlap pairs shape
    the difficulty: the stroma-like class keeps a high FNR floor (hard to
    learn), and the rare blood-like class is confusable with stroma.
    """
    return GeneratorSpec(
        num_classes=5,
        feature_dim=8,
        class_names=("blood", "damaged", "muscle", "stroma", "urothelium"),
        per_class_train_counts=(3511, 6592, 6701, 8698, 9101),
        per_class_val_counts=(250, 250, 250, 250, 250),
        per_class_test_counts=(411, 5730, 5035, 7934, 3881),
        class_sigmas=(1.0, 1.0, 1.0, 1.0, 1.0),
        auto_scale=3.5,
        overlap_pairs=((3, 1, 0.25), (0, 3, 0.10)),
        seed=seed,
    )


PRESETS = {
    "paper-shape": tissue_benchmark_preset,
}
