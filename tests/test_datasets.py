import gzip

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from projforest import (
    DataSet,
    SplitPlan,
    dump_svmlight_multilabel,
    load_svmlight_multilabel,
    make_splits,
    make_synthetic_multilabel,
    to_dense,
)
from projforest import datasets

from support import assert_same_dataset, reference_dump, reference_load


def write(tmp_path, text, name="data.svm"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoader:
    def test_basic_line(self, tmp_path):
        ds = load_svmlight_multilabel(write(tmp_path, "0,2 1:1.0 3:0.5\n"))
        assert ds.n_samples == 1
        assert ds.n_labels == 3
        assert ds.n_features == 3
        np.testing.assert_array_equal(to_dense(ds.Y), [[1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(to_dense(ds.X), [[1.0, 0.0, 0.5]])

    def test_empty_label_line_retained(self, tmp_path):
        ds = load_svmlight_multilabel(write(tmp_path, "0 1:1.0\n 2:1.0\n"))
        assert ds.n_samples == 2
        np.testing.assert_array_equal(to_dense(ds.Y), [[1.0], [0.0]])
        np.testing.assert_array_equal(to_dense(ds.X), [[1.0, 0.0], [0.0, 1.0]])

    def test_header_pins_dimensions(self, tmp_path):
        ds = load_svmlight_multilabel(write(tmp_path, "#d=6 #p=4\n0 1:2.0\n"))
        assert ds.n_labels == 6
        assert ds.n_features == 4

    def test_label_beyond_pinned_d(self, tmp_path):
        path = write(tmp_path, "#d=2 #p=2\n0,5 1:1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_svmlight_multilabel(path)

    def test_decreasing_feature_indices(self, tmp_path):
        path = write(tmp_path, "0 3:1.0 2:1.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_svmlight_multilabel(path)

    def test_duplicate_feature_indices(self, tmp_path):
        path = write(tmp_path, "0 3:1.0 3:2.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_svmlight_multilabel(path)

    def test_malformed_token_reports_line(self, tmp_path):
        path = write(tmp_path, "0 1:1.0\n1 nonsense\n")
        with pytest.raises(ValueError, match="line 2"):
            load_svmlight_multilabel(path)

    def test_zero_based_feature_index_rejected(self, tmp_path):
        path = write(tmp_path, "0 0:1.0\n")
        with pytest.raises(ValueError, match="1-based"):
            load_svmlight_multilabel(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_svmlight_multilabel(write(tmp_path, ""))

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "data.svm.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("0,1 1:3.5\n")
        ds = load_svmlight_multilabel(path)
        assert ds.n_samples == 1
        np.testing.assert_array_equal(to_dense(ds.X), [[3.5]])


@st.composite
def csr_datasets(draw):
    """Random sparse data sets with empty feature rows and empty label rows,
    every row holding a label or a nonzero feature."""
    n, p, d = draw(st.integers(1, 12)), draw(st.integers(1, 9)), draw(st.integers(1, 6))
    values = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))
    X = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    Y = np.array(draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    empty = ~((X != 0).any(axis=1) | (Y != 0).any(axis=1))
    Y[empty, 0] = 1.0
    return DataSet(sp.csr_matrix(X), sp.csr_matrix(Y))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csr_datasets(), st.booleans(), st.booleans())
def test_dump_load_round_trip_is_exact(tmp_path, ds, header, gz):
    name = "data.svm.gz" if gz else "data.svm"
    (tmp_path / "new").mkdir(exist_ok=True)
    (tmp_path / "old").mkdir(exist_ok=True)
    new, old = tmp_path / "new" / name, tmp_path / "old" / name
    dump_svmlight_multilabel(ds, new, header=header)
    reference_dump(ds, old, header=header)
    a, b = bytearray(new.read_bytes()), bytearray(old.read_bytes())
    if gz:
        a[4:8] = b[4:8] = bytes(4)  # the gzip header's modification time
    assert a == b

    X, Y = to_dense(ds.X), to_dense(ds.Y)
    if not header and not (X.any() and Y.any()):
        with pytest.raises(ValueError, match="cannot infer the"):
            load_svmlight_multilabel(new)
        return
    back = load_svmlight_multilabel(new)
    assert back.n_samples == ds.n_samples
    if header:
        assert_same_dataset(back, DataSet(ds.X, ds.Y))
    # Without a header the counts are one past the largest index present.
    p, d = back.n_features, back.n_labels
    np.testing.assert_array_equal(to_dense(back.X), X[:, :p])
    np.testing.assert_array_equal(to_dense(back.Y), Y[:, :d])
    assert not X[:, p:].any() and not Y[:, d:].any()


class TestRoundTrip:
    def test_random_dataset_survives_write_read(self, tmp_path):
        gen = np.random.default_rng(0)
        X = gen.standard_normal((20, 7))
        X[gen.random((20, 7)) < 0.5] = 0.0
        Y = (gen.random((20, 5)) < 0.3).astype(float)
        ds = DataSet(sp.csr_matrix(X), sp.csr_matrix(Y))
        path = tmp_path / "round.svm"
        dump_svmlight_multilabel(ds, path)
        back = load_svmlight_multilabel(path)
        np.testing.assert_array_equal(to_dense(back.X), to_dense(ds.X))
        np.testing.assert_array_equal(to_dense(back.Y), to_dense(ds.Y))

    def test_round_trip_gzip(self, tmp_path):
        ds = make_synthetic_multilabel(10, 4, 6, seed=1)
        path = tmp_path / "round.svm.gz"
        dump_svmlight_multilabel(ds, path)
        back = load_svmlight_multilabel(path)
        np.testing.assert_array_equal(to_dense(back.X), to_dense(ds.X_rows()))
        np.testing.assert_array_equal(to_dense(back.Y), to_dense(ds.Y_rows()))

    @pytest.mark.parametrize("header", [True, False])
    def test_row_with_no_label_and_no_feature_is_kept(self, tmp_path, header):
        X = np.array([[1.5, 0.0], [0.0, 0.0], [0.0, 2.0]])
        Y = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "empty-row.svm"
        dump_svmlight_multilabel(DataSet(X, Y), path, header=header)
        assert path.read_text().splitlines()[-2] == " 1:0"
        back = load_svmlight_multilabel(path)
        np.testing.assert_array_equal(to_dense(back.X), X)
        np.testing.assert_array_equal(to_dense(back.Y), Y)

    def test_reserialization_is_identical(self, tmp_path):
        ds = make_synthetic_multilabel(15, 3, 5, seed=2)
        first = tmp_path / "a.svm"
        second = tmp_path / "b.svm"
        dump_svmlight_multilabel(ds, first)
        dump_svmlight_multilabel(load_svmlight_multilabel(first), second)
        assert first.read_text() == second.read_text()


def outcome(load, path):
    """The loaded data set, or the message of the ValueError raised."""
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(path):
    new, ref = outcome(load_svmlight_multilabel, path), outcome(reference_load, path)
    if isinstance(ref, str) or isinstance(new, str):
        assert new == ref
    else:
        assert_same_dataset(new, ref)
    return new


class TestFilePins:
    def test_late_header_pins_earlier_lines(self, tmp_path):
        path = write(tmp_path, "0,5 1:1.0\n#d=3 #p=4\n1 2:2\n")
        with pytest.raises(ValueError, match="^line 1: label index 5 >= pinned d=3$"):
            load_svmlight_multilabel(path)

    def test_late_header_pins_feature_count(self, tmp_path):
        path = write(tmp_path, "0 1:1 9:2\n#p=4\n")
        with pytest.raises(ValueError, match="^line 1: feature index 9 > pinned p=4$"):
            load_svmlight_multilabel(path)

    def test_prose_comment_pins_nothing(self, tmp_path):
        path = write(tmp_path, "# from the paper, p=2 of them and d=9\n0 1:1 3:1\n")
        ds = assert_same_outcome(path)
        assert (ds.n_labels, ds.n_features) == (1, 3)

    def test_late_header_sets_dimensions(self, tmp_path):
        ds = load_svmlight_multilabel(write(tmp_path, "0 1:1\n#d=5 #p=7\n"))
        assert (ds.n_labels, ds.n_features) == (5, 7)

    def test_conflicting_header_rejected(self, tmp_path):
        path = write(tmp_path, "#d=6 #p=4\n0 1:2.0\n#d=3\n")
        with pytest.raises(
            ValueError, match="^line 3: header pins d=3, but an earlier header pinned d=6$"
        ):
            load_svmlight_multilabel(path)

    def test_repeated_header_accepted(self, tmp_path):
        ds = load_svmlight_multilabel(write(tmp_path, "#d=6\n0 1:2.0\n#d=6 #p=2\n"))
        assert (ds.n_labels, ds.n_features) == (6, 2)

    def test_first_bad_line_wins(self, tmp_path):
        path = write(tmp_path, "0 1:1\n0 2:x\n#d=9\n#d=8\n")
        with pytest.raises(ValueError, match="^line 2: bad feature token '2:x'$"):
            load_svmlight_multilabel(path)


class TestNumbers:
    def test_wide_labels_and_indices_are_exact(self, tmp_path):
        # Every digit column of an 18-digit number, and digits of 3 or more
        # in the hundreds and 7 or more in the ten-thousands place.
        big = 999999999999999999
        path = write(tmp_path, "300,98765,{} 300:1 98765:2 {}:3\n7 {}:4\n"
                     .format(big, big - 1, 123456789012345678))
        ds = assert_same_outcome(path)
        assert ds.Y.shape == (2, big + 1) and ds.X.shape == (2, big - 1)
        assert ds.Y.indices.tolist() == [300, 98765, big, 7]
        assert ds.X.indices.tolist() == [299, 98764, big - 2, 123456789012345677]
        assert ds.X.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_signed_numbers(self, tmp_path):
        ds = assert_same_outcome(write(tmp_path, "+300,-0 +98765:-2.5\n"))
        assert ds.Y.indices.tolist() == [0, 300]
        assert ds.X.indices.tolist() == [98764]


class TestWriter:
    @pytest.mark.parametrize("entries", [1, 2, 3, 5, 7, 1 << 16])
    def test_blocks_of_rows_write_the_same_bytes(self, tmp_path, monkeypatch, entries):
        # Rows of 3 features and one row without any: blocks of one row, of
        # several rows, and all rows in one block.
        monkeypatch.setattr(datasets, "_WRITE_ENTRIES", entries)
        ds = make_synthetic_multilabel(7, 3, 4, seed=5)
        ds = DataSet(sp.csr_matrix(to_dense(ds.X) * (np.arange(7) != 4)[:, None]), ds.Y)
        dump_svmlight_multilabel(ds, tmp_path / "new.svm")
        reference_dump(ds, tmp_path / "old.svm")
        assert (tmp_path / "new.svm").read_bytes() == (tmp_path / "old.svm").read_bytes()


class TestGrammar:
    @pytest.mark.parametrize("text, message", [
        ("0 1:1_0\n", "line 1: bad feature token '1:1_0'"),
        ("1_0 1:1\n", "line 1: bad label index '1_0'"),
        ("0 1:0x10\n", "line 1: bad feature token '1:0x10'"),
        ("0 1:\u0661\n", "line 1: bad feature token '1:\u0661'"),
        ("0\u00a01:1\n", r"line 1: bad feature token '0\xa01:1'"),
        ("0 1:1\x1c2:1\n", r"line 1: bad feature token '1:1\x1c2:1'"),
        ("0 " + "0" * 18 + "1:1\n", "line 1: bad feature token '" + "0" * 18 + "1:1'"),
        ("1" * 19 + " 1:1\n", "line 1: bad label index '" + "1" * 19 + "'"),
        ("0 1:1e5.5\n", "line 1: bad feature token '1:1e5.5'"),
        ("0 1:.e1\n", "line 1: bad feature token '1:.e1'"),
        ("0 1:-nan\n", "line 1: non-finite feature value '-nan'"),
        ("0 1:InFiNiTy\n", "line 1: non-finite feature value 'InFiNiTy'"),
        ("0 1:" + "1" * 400 + "\n", "line 1: non-finite feature value '" + "1" * 400 + "'"),
        ("0 -0:1\n", "line 1: feature indices are 1-based, got 0"),
    ])
    def test_rejected(self, tmp_path, text, message):
        path = tmp_path / "data.svm"
        path.write_bytes(text.encode())
        assert assert_same_outcome(path) == message

    @pytest.mark.parametrize("text", ["+1 1:1\n", "0 +1:1\n", "0 1:5.\n", "0 1:.5e-3\n"])
    def test_accepted(self, tmp_path, text):
        path = tmp_path / "data.svm"
        path.write_bytes(text.encode())
        assert isinstance(assert_same_outcome(path), DataSet)

    def test_newlines_and_separators(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_bytes(b"#d=3\r\n0,2\t1:1.5\x0b2:-2\r 3:4\x0c\r\n\r\n1")
        ds = load_svmlight_multilabel(path)
        np.testing.assert_array_equal(
            to_dense(ds.X), [[1.5, -2.0, 0.0], [0.0, 0.0, 4.0], [0.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(to_dense(ds.Y), [[1, 0, 1], [0, 0, 0], [0, 1, 0]])
        assert isinstance(assert_same_outcome(path), DataSet)


# Value literals: shortest round-trip reprs and other spellings of a float.
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.6e}".format),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "0.0", "-0.0", "+0", "5.", ".5", "+1.5", "-.25", "1E+05",
                     "5e-324", "2.2250738585072014e-308", "1e308", "1.7976931348623157e308",
                     "0.1000000000000000055511151231257827", "00012.50"]),
)
SEPARATORS = st.text(" \t\x0b\x0c", min_size=1, max_size=2)


@st.composite
def svmlight_rows(draw, d, p):
    """One data line's labels and ``idx:value`` tokens, valid under d and p."""
    labels = draw(st.lists(st.integers(0, d - 1), max_size=4))
    idx = draw(st.lists(st.integers(1, p), max_size=5, unique=True))
    feats = ["{}:{}".format(i, draw(VALUES)) for i in sorted(idx)]
    return [str(lab) for lab in labels], feats


def render(rows, seps, newline, final):
    """File text from rows of (labels, feature tokens) and extra lines."""
    lines = []
    for row, sep in zip(rows, seps):
        if isinstance(row, str):
            lines.append(row)
            continue
        labels, feats = row
        head = ",".join(labels) if labels else sep
        lines.append(head + (sep if labels and feats else "") + sep.join(feats))
    return newline.join(lines) + (newline if final else "")


@st.composite
def svmlight_files(draw):
    """Text of a valid file: data lines (labeled, unlabeled, label-only),
    blank and whitespace lines, comments, pins at any place, any newline."""
    d, p = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.one_of(
            svmlight_rows(d, p),
            st.sampled_from(["", "  ", "\t", "# a comment", "#", "# x=1 y=2", "# d=1 p=1"]),
        ),
        min_size=1, max_size=8,
    ))
    if draw(st.booleans()):
        pins = d + draw(st.integers(0, 2)), p + draw(st.integers(0, 2))
        header = "#d={} #p={}".format(*pins)
        rows.insert(draw(st.integers(0, len(rows))), header)
    seps = draw(st.lists(SEPARATORS, min_size=len(rows), max_size=len(rows)))
    return rows, seps, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans())


def write_file(tmp_path, text, gz):
    path = tmp_path / ("data.svm.gz" if gz else "data.svm")
    if gz:
        with gzip.open(path, "wb") as fh:
            fh.write(text.encode())
    else:
        path.write_bytes(text.encode())
    return path


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(svmlight_files(), st.booleans())
def test_loader_matches_the_reference_on_valid_files(tmp_path, spec, gz):
    rows, seps, newline, final = spec
    path = write_file(tmp_path, render(rows, seps, newline, final), gz)
    loaded = assert_same_outcome(path)
    has_data = any(not isinstance(row, str) and (row[0] or row[1]) for row in rows)
    has_pins = any(isinstance(row, str) and row.startswith("#d=") for row in rows)
    if has_data and has_pins:
        assert isinstance(loaded, DataSet)


CORRUPTIONS = (
    "drop colon", "double colon", "letter", "non-finite", "repeat index",
    "decrease index", "index zero", "negative label", "label beyond pin",
    "conflicting pin", "empty label",
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(svmlight_files(), st.sampled_from(CORRUPTIONS), st.data())
def test_loader_matches_the_reference_on_corrupted_files(tmp_path, spec, corruption, data):
    rows, seps, newline, final = spec
    data_rows = [i for i, row in enumerate(rows) if not isinstance(row, str)]
    if corruption in ("label beyond pin", "conflicting pin"):
        at = data.draw(st.integers(0, len(rows)))
        rows.insert(at, "#d={}".format(data.draw(st.integers(0, 3))))
        seps.insert(at, " ")
        if corruption == "conflicting pin":
            rows.insert(data.draw(st.integers(0, len(rows))), "#d=7")
            seps.append(" ")
    elif data_rows:
        i = data.draw(st.sampled_from(data_rows))
        labels, feats = list(rows[i][0]), list(rows[i][1])
        if corruption == "negative label":
            labels.insert(data.draw(st.integers(0, len(labels))), "-1")
        elif corruption == "empty label":
            labels.insert(data.draw(st.integers(0, len(labels))), "")
        elif corruption == "index zero":
            feats.insert(0, "0:1.5")
        elif corruption == "letter":
            tokens = labels + feats or ["0"]
            k = data.draw(st.integers(0, len(tokens) - 1))
            tok = tokens[k]
            at = data.draw(st.integers(0, len(tok)))
            tokens[k] = tok[:at] + data.draw(st.sampled_from("xqe_")) + tok[at:]
            labels, feats = tokens[: len(labels)], tokens[len(labels):]
        elif feats:
            k = data.draw(st.integers(0, len(feats) - 1))
            idx, _, val = feats[k].partition(":")
            if corruption == "drop colon":
                feats[k] = idx + val
            elif corruption == "double colon":
                feats[k] = idx + "::" + val
            elif corruption == "non-finite":
                value = data.draw(st.sampled_from(["nan", "inf", "-Inf", "1e999"]))
                feats[k] = idx + ":" + value
            elif corruption == "repeat index":
                feats.insert(k, feats[k])
            elif corruption == "decrease index":
                feats.append("1:2")
        rows[i] = (labels, feats)
    gz = data.draw(st.booleans())
    path = write_file(tmp_path, render(rows, seps, newline, final), gz)
    assert_same_outcome(path)


class TestSplits:
    def test_kfold_partitions(self):
        ds = make_synthetic_multilabel(100, 3, 4, seed=3)
        splits = make_splits(ds, SplitPlan("kfold", folds=10, seed=1))
        assert len(splits) == 10
        all_test = np.concatenate([test.rows() for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(100))
        for train, test in splits:
            assert test.n_samples == 10
            assert train.n_samples == 90
            assert not set(train.rows()) & set(test.rows())

    def test_fixed_holdout_sizes(self):
        # emotions-shaped: 593 samples split 391 / 202
        ds = make_synthetic_multilabel(593, 4, 6, seed=4)
        ((train, test),) = make_splits(
            ds, SplitPlan("fixed_holdout", n_train=391, n_test=202, seed=2)
        )
        assert train.n_samples == 391
        assert test.n_samples == 202
        assert not set(train.rows()) & set(test.rows())

    def test_shuffled_repeats(self):
        ds = make_synthetic_multilabel(50, 3, 4, seed=5)
        splits = make_splits(
            ds, SplitPlan("shuffled_repeats", n_train=30, n_test=15, count=10, seed=3)
        )
        assert len(splits) == 10
        memberships = set()
        for train, test in splits:
            assert train.n_samples == 30
            assert test.n_samples == 15
            assert not set(train.rows()) & set(test.rows())
            memberships.add(tuple(train.rows().tolist()))
        assert len(memberships) > 1  # fresh shuffle each repeat

    def test_deterministic_under_seed(self):
        ds = make_synthetic_multilabel(40, 3, 4, seed=6)
        plan = SplitPlan("shuffled_repeats", n_train=25, count=3, seed=9)
        a = make_splits(ds, plan)
        b = make_splits(ds, plan)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta.rows(), tb.rows())
            np.testing.assert_array_equal(sa.rows(), sb.rows())
        other = make_splits(ds, SplitPlan("shuffled_repeats", n_train=25, count=3, seed=10))
        assert not np.array_equal(a[0][0].rows(), other[0][0].rows())

    def test_inconsistent_sizes(self):
        ds = make_synthetic_multilabel(20, 3, 4, seed=7)
        with pytest.raises(ValueError):
            make_splits(ds, SplitPlan("fixed_holdout", n_train=15, n_test=10))
        with pytest.raises(ValueError):
            make_splits(ds, SplitPlan("fixed_holdout"))

    def test_more_folds_than_samples(self):
        ds = make_synthetic_multilabel(5, 3, 4, seed=8)
        with pytest.raises(ValueError, match="^more folds than samples$"):
            make_splits(ds, SplitPlan("kfold", folds=6))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SplitPlan("leave_one_out")

    @pytest.mark.parametrize("field, value", [
        ("n_train", 10.7), ("n_train", True), ("n_train", 0), ("n_train", "10"),
        ("n_test", 2.0), ("n_test", False), ("n_test", 0),
        ("count", 2.5), ("count", 0), ("count", True),
        ("folds", 2.5), ("folds", 1), ("folds", np.bool_(True)),
        ("seed", 1.5), ("seed", -1), ("seed", True),
    ])
    @pytest.mark.parametrize("mode", ["fixed_holdout", "shuffled_repeats", "kfold"])
    def test_fields_must_be_integers_in_range(self, mode, field, value):
        with pytest.raises(ValueError, match="^{} must be".format(field)):
            SplitPlan(mode, **{field: value})

    def test_numpy_integers_accepted(self):
        ds = make_synthetic_multilabel(20, 3, 4, seed=7)
        plan = SplitPlan("shuffled_repeats", n_train=np.int64(12), n_test=np.int32(5),
                         count=np.int64(2), folds=np.int64(3), seed=np.uint8(4))
        assert [train.n_samples for train, _ in make_splits(ds, plan)] == [12, 12]
