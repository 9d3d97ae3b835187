"""Pool-based active learning at desk scale.

A model-agnostic harness for pool-based active learning: the
FNR-proportional acquisition loop, an entropy top-k baseline, a
proportional-random control, supervised-fraction baselines, confusion-matrix
metrics with micro/macro F1, native SGD learners, a seeded synthetic data
generator, and reproducible multi-seed sweeps with mean(std) reporting.
"""

__version__ = "0.1.0"
