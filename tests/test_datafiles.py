"""Dataset CSVs against the reference emitter and reader in ``tests/oracles.py``.

``write_dataset`` must give the reference emitter's bytes, and ``read_dataset``
the reference reader's columns: every float to the bit, the ids with their
``<U`` dtype.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_read_split_csv, reference_write_split_csv
from poolal.core import DatasetBundle, Split
from poolal.datafiles import SPLIT_FILES, read_dataset, write_dataset

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            2.225073858507201e-308,  # the largest subnormal
            1.7976931348623157e308,
            -1.7976931348623157e308,
            0.30000000000000004,  # 17 significant digits
            -1.2345678901234567e-05,
        ]
    ),
)
# Cells that need quoting (comma, quote), spaces a reader might strip, a comment
# sign a reader might skip, and non-ASCII text. Class names may also end in a
# NUL, which a fixed-width string drops; a ``Split`` refuses a NUL in an id.
CHARS = [",", '"', " ", "\t", "#", "a", "Z", "1", "-", ".", "é", "😀"]
IDS = st.text(alphabet=st.sampled_from(CHARS), max_size=5)
NAMES = st.text(alphabet=st.sampled_from(CHARS + ["\x00"]), max_size=5)


@st.composite
def bundles(draw):
    feature_dim = draw(st.integers(1, 3))
    class_names = draw(st.lists(NAMES, min_size=2, max_size=3, unique=True))
    sizes = [draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    ids = draw(st.lists(IDS, min_size=sum(sizes), max_size=sum(sizes), unique=True))
    splits = []
    for start, n in zip(np.cumsum([0] + sizes[:-1]), sizes):
        X = np.array(draw(st.lists(FLOATS, min_size=n * feature_dim, max_size=n * feature_dim)))
        y = draw(st.lists(st.integers(0, len(class_names) - 1), min_size=n, max_size=n))
        splits.append(Split(X.reshape(n, feature_dim), y, ids[start : start + n]))
    return DatasetBundle.build(class_names, *splits, feature_dim)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bundle=bundles())
    def test_write_and_read_match_the_reference(self, tmp_path, bundle):
        names = list(bundle.class_names)
        out = tmp_path / "data"
        write_dataset(bundle, out)
        for split_name, fname in SPLIT_FILES:
            split = getattr(bundle, split_name)
            reference_write_split_csv(tmp_path / "ref.csv", split.ids.tolist(), split.y.tolist(), split.X, names)
            assert (out / fname).read_bytes() == (tmp_path / "ref.csv").read_bytes()

        back, _, _ = read_dataset(out)
        for split_name, fname in SPLIT_FILES:
            X, y, ids = reference_read_split_csv(out / fname, names, bundle.feature_dim)
            got, written = getattr(back, split_name), getattr(bundle, split_name)
            assert same_bits(got.X, X) and same_bits(got.X, written.X)
            assert np.array_equal(got.y, y) and np.array_equal(got.y, written.y)
            assert got.ids.dtype == ids.dtype == written.ids.dtype
            assert got.ids.tolist() == ids.tolist() == written.ids.tolist()


def test_a_class_name_ending_in_nul_keeps_its_label(tmp_path):
    """A fixed-width string drops a trailing NUL: label ``a\\x00`` must not be read as class ``a``."""
    bundle = DatasetBundle.build(
        ["a", "a\x00"],
        Split(np.zeros((2, 1)), [0, 1], ["t0", "t1"]),
        Split(np.zeros((1, 1)), [1], ["v0"]),
        Split(np.zeros((1, 1)), [1], ["s0"]),
        1,
    )
    write_dataset(bundle, tmp_path)
    back, _, _ = read_dataset(tmp_path)
    assert back.train.y.tolist() == [0, 1] and back.validation.y.tolist() == back.test.y.tolist() == [1]
