"""Dataset CSVs against the reference emitter and reader in ``tests/oracles.py``.

``write_dataset`` must give the reference emitter's bytes, and ``read_dataset``
the reference reader's columns: every float to the bit, the ids with their
``<U`` dtype, whether it loads the columns file or parses the CSVs. A columns
file that may not stand for the CSVs must give what the CSVs give.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_reaped, make_bundle, outcome
from oracles import reference_read_split_csv, reference_write_split_csv
from test_cli import RUN_CFG, _edit_manifest, write_yaml
from poolal.cli import main
from poolal.core import DatasetBundle, Split
from poolal.datafiles import COLUMNS_FILE, SPLIT_FILES, _csv_digest, _write_split_csv, read_dataset, write_dataset

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


def csv_outcome(data_dir: Path):
    """:func:`outcome` with the columns file deleted: what the CSVs give."""
    (data_dir / COLUMNS_FILE).unlink(missing_ok=True)
    return outcome(data_dir)


def forged_columns(bundle: DatasetBundle) -> list[tuple]:
    """Each split's ``(X, y, ids)``, changed so that a file holding them shows when loaded.

    ``X`` is shifted by 1, the labels move to the next class (every class
    keeps its count) and the ids gain a ``z``.
    """
    splits = (bundle.train, bundle.validation, bundle.test)
    return [(s.X + 1, (s.y + 1) % bundle.num_classes, np.char.add("z", s.ids)) for s in splits]


def forge(data_dir: Path, edit=lambda columns: columns, widths=lambda widths: widths) -> None:
    """Rewrite the columns file with :func:`forged_columns`, under the digest the files call for.

    ``edit`` takes and returns the nine columns in file order: each split's
    ``X`` and ``y``, then each split's ids. ``widths`` takes and returns the
    three id widths of the head. The digest is computed here from the layout
    as documented: the SHA-256 of the CSVs' digest, the class names' digest,
    the widths and the body.
    """
    bundle, _, manifest = read_dataset(data_dir)
    triples = forged_columns(bundle)
    columns = edit([c for X, y, _ in triples for c in (X, y)] + [ids for *_, ids in triples])
    head = struct.pack("<3Q", *widths([ids.itemsize // 4 for ids in columns[6:]]))
    body = b"".join(column.tobytes() for column in columns)
    names = hashlib.sha256(json.dumps(manifest.classes).encode("utf-8")).digest()
    digest = hashlib.sha256(_csv_digest(data_dir) + names + head + body).digest()
    (data_dir / COLUMNS_FILE).write_bytes(b"poolal columns 2" + head + digest + body)


def forge_version_1(data_dir: Path) -> None:
    """Rewrite the columns file in the first layout, with :func:`forged_columns`: its head, then nine ``.npy`` arrays."""
    bundle, _, manifest = read_dataset(data_dir)
    names = hashlib.sha256(json.dumps(manifest.classes).encode("utf-8")).digest()
    with (data_dir / COLUMNS_FILE).open("wb") as f:
        f.write(b"poolal columns 1" + _csv_digest(data_dir) + names)
        for column in (column for triple in forged_columns(bundle) for column in triple):
            np.lib.format.write_array(f, column, version=(1, 0), allow_pickle=False)


def _edited(i, change):
    def edit(columns):
        columns[i] = change(columns[i])
        return columns

    return edit


def _buffer_of(a: np.ndarray):
    while isinstance(a, np.ndarray):
        a = a.base
    return a


class TestColumnsFile:
    """``read_dataset`` loads the columns file only where it stands for the CSVs; else it gives what they give."""

    def test_written_file_is_loaded_without_a_parse(self, dataset):
        with mock.patch("poolal.datafiles._read_split_csv", side_effect=AssertionError("parsed a CSV")):
            loaded = outcome(dataset)
        assert loaded == csv_outcome(dataset)

    def test_a_forged_file_under_the_right_digest_is_loaded(self, dataset):
        """The control for the forgeries below: ``forge`` writes a file the reader takes, and it shows."""
        forge(dataset)
        loaded = outcome(dataset)
        assert isinstance(loaded, tuple) and loaded != csv_outcome(dataset)

    def test_loaded_columns_are_read_only_aligned_views_of_one_read(self, dataset):
        with mock.patch("poolal.datafiles._read_split_csv", side_effect=AssertionError("parsed a CSV")):
            bundle, _, _ = read_dataset(dataset)
        arrays = [a for split in (bundle.train, bundle.validation, bundle.test) for a in (split.X, split.y)]
        for a in arrays:
            assert not a.flags.writeable and a.flags.aligned and a.ctypes.data % 8 == 0
        assert isinstance(_buffer_of(arrays[0]), bytes)
        assert all(_buffer_of(a) is _buffer_of(arrays[0]) for a in arrays)

    @pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "header-byte"])
    def test_a_version_1_file_falls_back_to_the_csvs(self, dataset, corrupt):
        """An older layout is not read, even under a head its reader took; a bad ``.npy`` header raises nothing."""
        forge_version_1(dataset)
        path = dataset / COLUMNS_FILE
        if corrupt:
            raw = bytearray(path.read_bytes())
            raw[raw.index(b"{'descr'") + 1] = ord("[")
            path.write_bytes(bytes(raw))
        got = outcome(dataset)
        assert isinstance(got, tuple) and got == csv_outcome(dataset)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_flipped_body_bit_falls_back_to_the_csvs(self, dataset, data):
        """Loaded, a flipped bit shows: another float, label or id, or a code point no string holds."""
        path = dataset / COLUMNS_FILE
        raw = path.read_bytes()
        with mock.patch("poolal.datafiles._read_columns", return_value=None):
            want = outcome(dataset)
        bit = data.draw(st.integers(8 * 72, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << bit % 8
        path.write_bytes(bytes(flipped))
        try:
            assert outcome(dataset) == want
        finally:
            path.write_bytes(raw)

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

    @pytest.mark.parametrize("label", [-1, 2**40])
    def test_a_forged_label_out_of_range_is_one_error_line(self, dataset, tmp_path, capsys, label):
        """The bundle's label rule refuses it before the manifest's counts are compared."""
        forge(dataset, _edited(1, lambda y: np.where(np.arange(len(y)) == 0, label, y)))
        cfg = write_yaml(tmp_path / "cfg.yaml", dict(RUN_CFG, dataset=str(dataset), output_dir=str(tmp_path / "out")))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: train: sample 'ztr0' has unregistered label {label}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda raw: b"", id="empty"),
            pytest.param(lambda raw: raw[:10], id="in-the-magic"),
            pytest.param(lambda raw: raw[:30], id="in-the-widths"),
            pytest.param(lambda raw: raw[:50], id="in-the-digest"),
            pytest.param(lambda raw: raw[:72], id="the-head-alone"),
            pytest.param(lambda raw: raw[:100], id="in-the-first-X"),
            pytest.param(lambda raw: raw[: len(raw) // 2], id="halfway"),
            pytest.param(lambda raw: raw[:-1], id="last-byte-cut"),
            pytest.param(lambda raw: raw + b"\x00", id="a-byte-appended"),
            pytest.param(lambda raw: raw + raw[72:], id="the-body-twice"),
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
        """A shape of gigabytes falls back before allocating, under a 1 GiB address-space limit.

        The file's digest is valid either way, so only its size can refuse the
        claim: the manifest's ``rows``, for which the CSVs then give their
        counts error, or the head's train ``id-width``.
        """
        if claim == "rows":
            forge(dataset)
            _edit_manifest(dataset, lambda m: m["counts"]["train"].__setitem__(0, 10**9))
        else:
            forge(dataset, widths=lambda widths: [10**8, *widths[1:]])
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
