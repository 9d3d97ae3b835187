"""Dataset CSVs against the reference emitter and reader in ``tests/oracles.py``.

``write_dataset`` must give the reference emitter's bytes, and ``read_dataset``
the reference reader's columns: every float to the bit, the ids with their
``<U`` dtype, whether it loads the columns file or parses the CSVs. A columns
file that may not stand for the CSVs must give what the CSVs give.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_reaped, make_bundle
from oracles import reference_read_split_csv, reference_write_split_csv
from test_cli import _edit_manifest
from poolal.core import DatasetBundle, Split
from poolal.datafiles import (
    COLUMNS_FILE,
    SPLIT_FILES,
    _columns_head,
    _csv_digest,
    _write_split_csv,
    _stored_columns,
    read_dataset,
    write_dataset,
)
from poolal.errors import ConfigurationError

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
        # ids wider than the longest one, as a caller's array may hold them; a parse gives the narrowest
        width = max([1, *map(len, ids[start : start + n])]) + draw(st.integers(0, 2))
        splits.append(Split(X.reshape(n, feature_dim), y, np.array(ids[start : start + n], dtype=f"<U{width}")))
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

        with mock.patch("poolal.datafiles._read_split_csv", side_effect=AssertionError("parsed a CSV")):
            loaded, _, _ = read_dataset(out)
        (out / COLUMNS_FILE).unlink()
        parsed, _, _ = read_dataset(out)
        for split_name, fname in SPLIT_FILES:
            X, y, ids = reference_read_split_csv(out / fname, names, bundle.feature_dim)
            written = getattr(bundle, split_name)
            for back in (loaded, parsed):
                got = getattr(back, split_name)
                assert same_bits(got.X, X) and same_bits(got.X, written.X)
                assert np.array_equal(got.y, y) and np.array_equal(got.y, written.y)
                assert got.ids.dtype == ids.dtype
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
    for _ in range(2):  # through the columns file, then the CSVs
        back, _, _ = read_dataset(tmp_path)
        assert back.train.y.tolist() == [0, 1] and back.validation.y.tolist() == back.test.y.tolist() == [1]
        (tmp_path / COLUMNS_FILE).unlink(missing_ok=True)


@pytest.fixture()
def dataset(tmp_path):
    """A written 3-class, 4-feature dataset, each class as often in every split."""
    bundle = make_bundle([0, 1, 2] * 4, [0, 1, 2] * 3, [0, 1, 2] * 4, 3, feature_dim=4)
    write_dataset(bundle, tmp_path / "data")
    return tmp_path / "data"


def outcome(data_dir: Path):
    """What ``read_dataset`` gives: the dataset hash and every split's columns, or the error's text."""
    try:
        bundle, dataset_hash, _ = read_dataset(data_dir)
    except ConfigurationError as e:
        return str(e)
    splits = (bundle.train, bundle.validation, bundle.test)
    return dataset_hash, [(s.X.tobytes(), s.y.tolist(), str(s.ids.dtype), s.ids.tolist()) for s in splits]


def csv_outcome(data_dir: Path):
    """:func:`outcome` with the columns file deleted: what the CSVs give."""
    (data_dir / COLUMNS_FILE).unlink(missing_ok=True)
    return outcome(data_dir)


def forge(data_dir: Path, edit=lambda columns: columns) -> None:
    """Rewrite the columns file under the head the files call for, with columns that differ from the CSVs'.

    Each split's ``X`` is shifted by 1, its labels move to the next class
    (every class keeps its count) and its ids gain a ``z``, so a file that is
    loaded shows. ``edit`` takes and returns the nine arrays in file order;
    an object array is pickled.
    """
    bundle, _, manifest = read_dataset(data_dir)
    columns = []
    for split_name, _ in SPLIT_FILES:
        X, y, ids = _stored_columns(getattr(bundle, split_name))
        columns += [X + 1, (y + 1) % bundle.num_classes, np.char.add("z", ids)]
    with (data_dir / COLUMNS_FILE).open("wb") as f:
        f.write(_columns_head(_csv_digest(data_dir), manifest.classes))
        for column in edit(columns):
            np.lib.format.write_array(f, column, version=(1, 0), allow_pickle=True)


def _edited(i, change):
    def edit(columns):
        columns[i] = change(columns[i])
        return columns

    return edit


class TestColumnsFile:
    """``read_dataset`` loads the columns file only where it stands for the CSVs; else it gives what they give."""

    def test_written_file_is_loaded_without_a_parse(self, dataset):
        with mock.patch("poolal.datafiles._read_split_csv", side_effect=AssertionError("parsed a CSV")):
            loaded = outcome(dataset)
        assert loaded == csv_outcome(dataset)

    def test_a_forged_file_under_the_right_head_is_loaded(self, dataset):
        """The control for the forgeries below: ``forge`` writes a file the reader takes, and it shows."""
        forge(dataset)
        loaded = outcome(dataset)
        assert isinstance(loaded, tuple) and loaded != csv_outcome(dataset)

    @pytest.mark.parametrize("keep_hash", [False, True], ids=["hash-dropped", "hash-kept"])
    def test_stale_after_a_csv_edit(self, dataset, keep_hash):
        if not keep_hash:
            _edit_manifest(dataset, lambda m: m.pop("dataset_hash"))
        path = dataset / "train.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[2] = "0.5"
        lines[1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
        got = outcome(dataset)
        assert got == csv_outcome(dataset)
        if keep_hash:
            assert got.startswith("dataset files do not match the manifest hash")
        else:
            assert np.frombuffer(got[1][0][0], dtype=np.float64)[0] == 0.5

    def test_manifest_classes_in_another_order(self, dataset):
        """The labels index the class names: another order is another dataset, with the same CSV bytes."""
        _edit_manifest(dataset, lambda m: m.update(classes=m["classes"][::-1]))
        got = outcome(dataset)
        assert got == csv_outcome(dataset) and got[1][0][1][:3] == [2, 1, 0]

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(_edited(0, lambda X: np.hstack([X, X[:, :1]])), id="feature-dim"),
            pytest.param(_edited(3, lambda X: X[:-1]), id="row-count"),
            pytest.param(_edited(0, lambda X: X.astype(np.float32)), id="float32-X"),
            pytest.param(_edited(0, lambda X: X.astype(">f8")), id="big-endian-X"),
            pytest.param(_edited(0, np.asfortranarray), id="fortran-order-X"),
            pytest.param(_edited(1, lambda y: y.astype(np.int32)), id="int32-y"),
            pytest.param(_edited(1, lambda y: y.astype(np.float64)), id="float-y"),
            pytest.param(_edited(2, lambda ids: ids.astype(bytes)), id="bytes-ids"),
            pytest.param(_edited(2, lambda ids: ids.astype(ids.dtype.newbyteorder(">"))), id="big-endian-ids"),
            pytest.param(_edited(2, lambda ids: ids.astype(object)), id="pickled-ids"),
            pytest.param(_edited(8, lambda ids: ids.astype(object)), id="pickled-last-ids"),
            pytest.param(_edited(4, lambda y: np.array(y.tolist(), dtype=object)), id="pickled-y"),
        ],
    )
    def test_a_forged_array_falls_back_to_the_csvs(self, dataset, edit):
        forge(dataset, edit)
        got = outcome(dataset)
        assert isinstance(got, tuple) and got == csv_outcome(dataset)

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda raw: b"", id="empty"),
            pytest.param(lambda raw: raw[:10], id="in-the-head"),
            pytest.param(lambda raw: raw[:85], id="in-the-first-npy-magic"),
            pytest.param(lambda raw: raw[:150], id="in-the-first-header"),
            pytest.param(lambda raw: raw[:300], id="in-the-first-array"),
            pytest.param(lambda raw: raw[: len(raw) // 2], id="halfway"),
            pytest.param(lambda raw: raw[:-1], id="last-byte-cut"),
            pytest.param(lambda raw: raw + b"\x00", id="a-byte-appended"),
        ],
    )
    def test_a_cut_or_padded_file_falls_back_to_the_csvs(self, dataset, cut):
        forge(dataset)
        path = dataset / COLUMNS_FILE
        path.write_bytes(cut(path.read_bytes()))
        got = outcome(dataset)
        assert isinstance(got, tuple) and got == csv_outcome(dataset)

    @pytest.mark.parametrize("claim", ["rows", "id-width"])
    def test_a_huge_claimed_shape_allocates_nothing(self, dataset, claim):
        """A header claiming gigabytes falls back before allocating, under a 1 GiB address-space limit.

        For ``rows`` the manifest claims the same rows, so that only the file's
        size can refuse the header; the CSVs then give their counts error.
        """
        bundle, _, manifest = read_dataset(dataset)
        if claim == "rows":
            _edit_manifest(dataset, lambda m: m["counts"]["train"].__setitem__(0, 10**9))
            header = {"descr": "<f8", "fortran_order": False, "shape": (10**9 + 8, 4)}
        else:
            header = {"descr": "<U100000000", "fortran_order": False, "shape": (len(bundle.train),)}
        with (dataset / COLUMNS_FILE).open("wb") as f:
            f.write(_columns_head(_csv_digest(dataset), manifest.classes))
            if claim == "id-width":
                X, y, _ = _stored_columns(bundle.train)
                np.lib.format.write_array(f, X, version=(1, 0))
                np.lib.format.write_array(f, y, version=(1, 0))
            np.lib.format.write_array_header_1_0(f, header)
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        probe = "import sys; from test_datafiles import outcome; print(repr(outcome(sys.argv[1])))"
        limited = 'ulimit -v 1048576 && exec "$0" "$@"'
        result = subprocess.run(
            ["bash", "-c", limited, sys.executable, "-c", probe, str(dataset)], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        want = csv_outcome(dataset)
        assert result.stdout == repr(want) + "\n"
        if claim == "rows":
            assert want.endswith("train.csv: class counts [4, 4, 4] differ from the manifest's [1000000000, 4, 4]")


def small_bundle() -> DatasetBundle:
    return make_bundle([0, 1, 2] * 5, [0, 1, 2], [0, 1, 2] * 2, 3, feature_dim=2)


class TestTwoProcessWrite:
    """``write_dataset`` writes ``train.csv`` in a forked child: it must leave nothing behind."""

    def test_no_child_is_left_running(self, tmp_path, forked):
        write_dataset(small_bundle(), tmp_path)
        assert len(forked) == 1
        assert_reaped(forked)

    def test_a_failure_in_the_parent_propagates_and_reaps_the_child(self, tmp_path, forked):
        parent = os.getpid()

        def fail_in_parent(*args):
            if os.getpid() == parent:
                raise RuntimeError("formatting failed")
            return _write_split_csv(*args)

        with mock.patch("poolal.datafiles._write_split_csv", side_effect=fail_in_parent):
            with pytest.raises(RuntimeError, match="formatting failed"):
                write_dataset(small_bundle(), tmp_path)
        assert len(forked) == 1
        assert_reaped(forked)

    def test_a_failure_in_the_child_is_raised_here_with_its_message(self, tmp_path, forked):
        parent = os.getpid()

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("train rows failed")
            return _write_split_csv(*args)

        with mock.patch("poolal.datafiles._write_split_csv", side_effect=fail_in_child):
            with pytest.raises(RuntimeError, match="^RuntimeError: train rows failed$"):
                write_dataset(small_bundle(), tmp_path)
        assert len(forked) == 1
        assert_reaped(forked)

    def test_buffered_output_is_written_once(self, tmp_path, monkeypatch):
        """The child leaves through ``os._exit``, which flushes no buffer it inherited."""
        stdout = (tmp_path / "stdout.txt").open("w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        print("buffered on stdout")
        write_dataset(small_bundle(), tmp_path)
        stdout.close()
        assert (tmp_path / "stdout.txt").read_text(encoding="utf-8") == "buffered on stdout\n"
