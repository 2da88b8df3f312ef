"""Multi-label dataset loading, writing, splitting, and synthetic generators.

On-disk format (one sample per line)::

    <labels> <idx>:<value> <idx>:<value> ...

where ``<labels>`` is a comma-separated list of 0-based label indices (empty
for unlabeled samples, conventionally written with a leading space) and the
feature indices are 1-based and strictly increasing.  Labels and indices are
ASCII decimal integers of at most 18 digits with an optional sign; values are
decimal floats (``2``, ``-0.5``, ``.5``, ``5.``, ``1e-3``) or ``inf``,
``infinity`` or ``nan`` in any case, which are rejected as non-finite.  Tokens
are separated by spaces, tabs, vertical tabs or form feeds, and ``\\n``,
``\\r\\n`` and a lone ``\\r`` all end a line.  A line that starts with ``#`` is
a comment; ``#d=<int>`` and ``#p=<int>`` in a comment (``#d=6 #p=72``) pin
the label and feature counts for the whole file, wherever the comment stands,
and a later comment may repeat a pin but not change it.  A count that is not
pinned is one past the largest index seen.  Files ending in ``.gz`` are
transparently (de)compressed.

The loader reads the whole file as bytes and parses it in bulk, with no step
per token.  One table lookup classifies every byte; the bytes that are not
digits ("events") are listed once, and the tokens, lines, separators and the
grammar checks all come from array operations on that list.  Labels and
indices are read one digit column at a time, and all values in one correctly
rounded ``np.fromstring`` call.  A bad line raises ``ValueError`` naming the
first bad line, with the message of the first check that line fails.  The
writer formats the values of a block of rows (about 2^16 values) in one
``map`` and writes them in one call.
"""

import gzip
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import DataSet, check_integer
from .rng import stream

SPLIT_MODES = ("fixed_holdout", "shuffled_repeats", "kfold")

_DIM_TOKEN = re.compile(r"#([dp])=([0-9]+)")

# Byte classes of the loader.  Every byte that is not a digit is an event; a
# token is a run of bytes between separators (space or newline events).
_SPACE, _NEWLINE, _DIGIT, _COLON, _COMMA, _DOT, _EXP, _SIGN, _ALPHA, _OTHER = range(10)
_N_CLASSES = _OTHER + 1
_BYTE_CLASS = bytearray([_OTHER]) * 256
for _chars, _kind in (
    (b" \t\x0b\x0c", _SPACE),
    (b"\n", _NEWLINE),
    (b"0123456789", _DIGIT),
    (b":", _COLON),
    (b",", _COMMA),
    (b".", _DOT),
    (b"eE", _EXP),
    (b"+-", _SIGN),
    (b"afintyAFINTY", _ALPHA),  # the letters of inf, infinity and nan
):
    for _char in _chars:
        _BYTE_CLASS[_char] = _kind
_BYTE_CLASS = bytes(_BYTE_CLASS)
_WORDS = (b"inf", b"nan", b"infinity")

# The grammars of the two kinds of token, as the events that may follow one
# another.  An entry (event, previous event, the one before that, digits)
# allows an event after the two given, with "none", "some" or "any" digits
# between it and the previous event, or "near": some digits before or after
# the previous event.  ``None`` stands for any class and ``_SPACE`` for a
# separator: the start of the token as a previous event, its end as an event.
#
#   labels := [sign] digits ("," [sign] digits)*
_LABEL_GRAMMAR = (
    (_SIGN, _SPACE, None, "none"),
    (_SIGN, _COMMA, None, "none"),
    (_COMMA, _SPACE, None, "some"),
    (_COMMA, _SIGN, None, "some"),
    (_COMMA, _COMMA, None, "some"),
    (_SPACE, _SPACE, None, "some"),
    (_SPACE, _SIGN, None, "some"),
    (_SPACE, _COMMA, None, "some"),
)
#   feature := [sign] digits ":" value
#   value := [sign] (digits ["." digits*] | "." digits) [e [sign] digits]
#          | [sign] (inf | infinity | nan)
_FEATURE_GRAMMAR = (
    (_SIGN, _SPACE, None, "none"),  # the index's sign
    (_COLON, _SPACE, None, "some"),
    (_COLON, _SIGN, _SPACE, "some"),
    (_SIGN, _COLON, None, "none"),  # the value's sign
    (_DOT, _COLON, None, "any"),
    (_DOT, _SIGN, _COLON, "any"),
    (_EXP, _COLON, None, "some"),
    (_EXP, _SIGN, _COLON, "some"),
    (_EXP, _DOT, None, "near"),
    (_SIGN, _EXP, None, "none"),  # the exponent's sign
    (_ALPHA, _COLON, None, "none"),
    (_ALPHA, _SIGN, _COLON, "none"),
    (_ALPHA, _ALPHA, None, "none"),
    (_SPACE, _SPACE, None, "none"),  # a run of separators
    (_SPACE, _COLON, None, "some"),
    (_SPACE, _SIGN, _COLON, "some"),
    (_SPACE, _SIGN, _EXP, "some"),
    (_SPACE, _DOT, None, "near"),
    (_SPACE, _EXP, None, "some"),
    (_SPACE, _ALPHA, None, "none"),
)
# Bit 0: digits between an event and the previous one; bit 1: digits before
# the previous event.
_DIGIT_CODES = {"none": (0, 2), "some": (1, 3), "any": (0, 1, 2, 3), "near": (1, 2, 3)}


def _rules(grammar):
    """A lookup table of the sequences ``grammar`` allows, indexed by
    ``((event * 10 + previous) * 10 + the one before) * 4 + digit code``."""
    classes = lambda kind: (  # noqa: E731
        range(_N_CLASSES) if kind is None
        else (_SPACE, _NEWLINE) if kind == _SPACE
        else (kind,)
    )
    table = np.zeros((_N_CLASSES,) * 3 + (4,), dtype=bool)
    for kind, pred, pred2, digits in grammar:
        for k in classes(kind):
            for p in classes(pred):
                for p2 in classes(pred2):
                    table[k, p, p2, list(_DIGIT_CODES[digits])] = True
    return table.ravel()


_LABEL_RULES = _rules(_LABEL_GRAMMAR)
_FEATURE_RULES = _rules(_FEATURE_GRAMMAR)

# Labels and feature indices with more digits than this are rejected, so
# that every accepted one fits an int64.
_MAX_DIGITS = 18

# Features formatted per write of the writer (a row is never split).
_WRITE_ENTRIES = 1 << 16


def _open(path, mode):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def _shift(a, k, fill):
    """``a`` moved ``k`` places right, the first ``k`` entries set to ``fill``."""
    out = np.empty_like(a)
    out[:k] = fill
    out[k:] = a[: a.size - k]
    return out


def _ranges(a, b):
    """The concatenated integer ranges ``[a[i], b[i])``."""
    widths = b - a
    return np.repeat(a - (np.cumsum(widths) - widths), widths) + np.arange(widths.sum())


def _blank(buf, a, b):
    """Overwrite the byte ranges ``[a, b)`` of ``buf`` with spaces, 2^16
    ranges at a time so that the index arrays stay small."""
    for i in range(0, a.size, 1 << 16):
        buf[_ranges(a[i : i + (1 << 16)], b[i : i + (1 << 16)])] = ord(" ")


def _read(path):
    """A file's bytes with universal newlines, as text mode reads them, and
    ending in a newline."""
    with _open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    return data


class _Tokens:
    """The tokens of a file, found and checked from its events.

    Every byte that is not a digit is an event.  From the events alone come
    the tokens (``starts``/``ends``; a token's end is the separator after it),
    the lines (``line_start``/``line_end``, and ``line`` of every token), the
    role of every token (``comment`` lines, ``is_label`` and ``is_feature``,
    and the data ``row`` of each), and the grammar checks:

    * feature tokens: ``colon`` (the first colon's byte, else the token's
      end), ``index`` and ``index_ok`` (the number before the colon), and
      ``broken`` (an event out of the feature grammar, or a misspelled word);
    * label tokens, cut into segments at their commas: ``seg_start``,
      ``seg_end``, ``seg_row``, and ``labels`` and ``label_ok``.

    The per-event arrays are dropped once these are known.
    """

    def __init__(self, path):
        self.data = data = _read(path)
        self.buf = buf = np.frombuffer(data, dtype=np.uint8)
        cls = np.frombuffer(data.translate(_BYTE_CLASS), dtype=np.uint8)

        # Events, with the class of the one before (a separator when the
        # event opens its token) and the number of digits in between.
        # Positions fit 32 bits unless the file is 2 GB or more.
        pos = np.flatnonzero(cls != _DIGIT).astype(
            np.int32 if buf.size < 2**31 else np.int64
        )
        kind = cls[pos]
        del cls
        pred = _shift(kind, 1, _SPACE)
        gap = np.empty_like(pos)
        gap[0] = pos[0]
        np.subtract(pos[1:], pos[:-1], out=gap[1:])
        gap[1:] -= 1
        some = gap > 0

        # A separator closes a token when a token byte comes just before it,
        # and opens one when a token byte comes just after it.
        sep = kind <= _NEWLINE
        closes = np.flatnonzero(sep & (some | (pred > _NEWLINE)))
        opens = np.zeros(kind.size, dtype=bool)
        opens[:-1] = sep[:-1] & (some[1:] | ~sep[1:])
        at_zero = int(some[0] or kind[0] > _NEWLINE)
        starts = np.concatenate((np.zeros(at_zero, pos.dtype), pos[opens] + 1))
        self.starts = starts
        self.ends = ends = pos[closes]
        tok = np.cumsum(opens, dtype=pos.dtype)  # the token of every event
        tok -= opens
        tok += at_zero - 1
        del opens, sep

        # Lines; data lines hold tokens and do not start with "#".  A line's
        # first token is its labels when it starts the line and holds no colon.
        self.line_end = pos[kind == _NEWLINE]
        self.line_start = np.concatenate(([0], self.line_end[:-1] + 1))
        self.line = line = np.searchsorted(self.line_end, ends)
        self.comment = buf[self.line_start] == ord("#")
        keep = ~self.comment[line]
        first = np.ones(starts.size, dtype=bool)
        first[1:] = line[1:] != line[:-1]
        self.row = row = np.cumsum(first & keep) - 1
        colons = np.flatnonzero(kind == _COLON)
        head = np.ones(colons.size, dtype=bool)
        head[1:] = tok[colons[1:]] != tok[colons[:-1]]
        colon = closes.copy()  # the event of each token's first colon
        colon[tok[colons[head]]] = colons[head]
        has_colon = colon < closes
        is_label = keep & first & (starts == self.line_start[line]) & ~has_colon
        self.is_label = is_label
        self.is_feature = keep & ~is_label

        # Every event must follow the two before it as its token's grammar
        # allows (the rule tables index by the three classes and the digits).
        rule = kind.astype(np.uint16) * _N_CLASSES
        rule += pred
        rule *= _N_CLASSES
        rule += _shift(kind, 2, _SPACE)
        rule *= 4
        rule += some
        rule += 2 * _shift(some, 1, False).view(np.uint8)
        self.broken = np.zeros(starts.size, dtype=bool)
        self.broken[tok[np.flatnonzero(~_FEATURE_RULES[rule])]] = True

        # Label tokens: a number before each comma and at the token's end.
        events = _ranges(np.searchsorted(pos, starts[is_label]), closes[is_label] + 1)
        is_end = np.isin(kind[events], (_COMMA, _SPACE, _NEWLINE))
        segment = np.cumsum(is_end) - is_end
        broken_segments = segment[~_LABEL_RULES[rule[events]]]
        del rule
        ends_at = events[is_end]
        self.seg_end = pos[ends_at]
        self.seg_start = np.maximum(starts[tok[ends_at]], _shift(self.seg_end, 1, -1) + 1)
        self.seg_row = row[tok[ends_at]]
        number = lambda events: _number_before(buf, pos, gap, pred, events)  # noqa: E731
        self.labels, self.label_ok = number(ends_at)
        self.label_ok[broken_segments] = False

        # Feature tokens: ``idx:value``, cut at the first colon; a value of
        # letters must spell a word.
        self.colon = pos[colon]
        self.index, self.index_ok = number(colon)
        self.index_ok &= has_colon
        words = np.flatnonzero(~self.broken & (pred[closes] == _ALPHA))
        body = self.colon[words] + 1
        body += (buf[body] == ord("+")) | (buf[body] == ord("-"))
        self.broken[words[~_spelled(buf, body, ends[words])]] = True

    def text(self, a, b):
        return self.data[a:b].decode("utf-8", "replace")

    def lineno(self, at):
        """The 1-based number of the line holding byte ``at``."""
        return int(np.searchsorted(self.line_end, at)) + 1


def _number_before(buf, pos, gap, pred, events):
    """The integers spelled by the digits before each of ``events`` and a
    sign just before them, with a mask of those of at most ``_MAX_DIGITS``
    digits; the digits are read one column at a time."""
    width = gap[events]
    ok = width <= _MAX_DIGITS
    width[~ok] = 0
    end = pos[events]
    value = np.zeros(events.size, dtype=np.int64)
    for j in range(int(width.max(initial=0))):
        digit = buf[np.maximum(end - 1 - j, 0)].astype(np.int64) - ord("0")
        digit[width <= j] = 0
        value += digit * 10**j
    negative = (pred[events] == _SIGN) & (buf[end - width - 1] == ord("-"))
    return np.where(negative, -value, value), ok


def _spelled(buf, a, b):
    """Mask of the byte ranges ``[a, b)`` that spell one of ``_WORDS`` in any
    case."""
    out = np.zeros(a.size, dtype=bool)
    for word in _WORDS:
        match = b - a == len(word)
        for j, char in enumerate(word):
            match &= (buf[np.minimum(a + j, buf.size - 1)] | 0x20) == char
        out |= match
    return out


def _pins(tk):
    """Dimension pins from the comment lines, and the first conflict.

    Returns ``{"d": .., "p": ..}`` with the first value pinned for each key,
    and ``(byte position, message)`` of the first comment that pins another
    value for a key already pinned, or None.
    """
    pins = {}
    conflict = None
    for i in np.flatnonzero(tk.comment):
        for key, value in _DIM_TOKEN.findall(tk.text(tk.line_start[i], tk.line_end[i])):
            value = int(value)
            if pins.setdefault(key, value) != value and conflict is None:
                conflict = (tk.line_start[i], (
                    "line {}: header pins {}={}, but an earlier header pinned {}={}"
                    .format(i + 1, key, value, key, pins[key])
                ))
    return pins, conflict


def load_svmlight_multilabel(path):
    """Parse a multi-label svmlight-style file into a :class:`DataSet`.

    The whole file is parsed in bulk (see the module docstring).  A bad
    line raises ``ValueError`` naming it: a bad label or feature token, a
    negative label, a feature index below 1 or not above the one before it,
    a non-finite value, a label or index beyond a pin, or a pin that differs
    from an earlier one.
    """
    tk = _Tokens(path)
    n = int(tk.row[-1]) + 1 if tk.row.size else 0
    pins, conflict = _pins(tk)
    pin_d, pin_p = pins.get("d"), pins.get("p")
    errors = [conflict] if conflict else []  # (byte position, message)

    def error(at, message, *args):
        errors.append((at, message.format(tk.lineno(at), *args)))

    labels, seg_row = tk.labels, tk.seg_row
    label_code = np.select(
        [~tk.label_ok, labels < 0, labels >= (np.inf if pin_d is None else pin_d)],
        [1, 2, 3],
        0,
    )
    bad = np.flatnonzero(label_code)
    if bad.size:
        i = bad[0]
        at = tk.seg_start[i]
        if label_code[i] == 1:
            error(at, "line {}: bad label index {!r}", tk.text(at, tk.seg_end[i]))
        elif label_code[i] == 2:
            error(at, "line {}: negative label index {}", labels[i])
        else:
            error(at, "line {}: label index {} >= pinned d={}", labels[i], pin_d)

    feature = tk.is_feature
    fs, fe, fcolon = tk.starts[feature], tk.ends[feature], tk.colon[feature]
    frow = tk.row[feature]
    index = tk.index[feature]
    good = tk.index_ok[feature] & ~tk.broken[feature]
    values = np.zeros(fs.size)
    if good.any():
        # Blank all but the values of the good tokens, and parse them.
        text = tk.buf.copy()
        label = tk.is_label
        _blank(
            text,
            np.concatenate((fs, tk.starts[label], tk.line_start[tk.comment])),
            np.concatenate((np.where(good, fcolon + 1, fe), tk.ends[label],
                            tk.line_end[tk.comment])),
        )
        text = text.tobytes()
        values[good] = np.fromstring(text, sep=" ")
        del text
    ffirst = np.ones(fs.size, dtype=bool)
    ffirst[1:] = frow[1:] != frow[:-1]
    prev = _shift(index, 1, 0)
    prev[ffirst] = 0
    feature_code = np.select(
        [~good, index < 1, index <= prev, ~np.isfinite(values)], [1, 2, 3, 4], 0
    )
    bad = np.flatnonzero(feature_code)
    if bad.size:
        i = bad[0]
        if feature_code[i] == 1:
            error(fs[i], "line {}: bad feature token {!r}", tk.text(fs[i], fe[i]))
        elif feature_code[i] == 2:
            error(fs[i], "line {}: feature indices are 1-based, got {}", index[i])
        elif feature_code[i] == 3:
            error(fs[i], "line {}: feature indices must be strictly increasing"
                  " ({} after {})", index[i], prev[i])
        else:
            error(fs[i], "line {}: non-finite feature value {!r}",
                  tk.text(fcolon[i] + 1, fe[i]))
    if pin_p is not None:
        last = np.ones(fs.size, dtype=bool)
        last[:-1] = ffirst[1:]
        over = np.flatnonzero(last & (index > pin_p))
        if over.size:
            i = over[0]
            error(fe[i], "line {}: feature index {} > pinned p={}", index[i], pin_p)
    if errors:
        raise ValueError(min(errors, key=lambda error: error[0])[1])

    if n == 0:
        raise ValueError("file contains no samples: {}".format(path))
    d = pin_d if pin_d is not None else int(labels.max(initial=-1)) + 1
    p = pin_p if pin_p is not None else int(index.max(initial=0))
    if d < 1:
        raise ValueError(
            "cannot infer the label count (no labels present); add a '#d=...' header"
        )
    if p < 1:
        raise ValueError(
            "cannot infer the feature count (no features present); add a '#p=...' header"
        )
    del tk  # the file's bytes and token arrays, before the matrices are built

    nonzero = values != 0.0
    X = _csr(frow[nonzero], index[nonzero] - 1, values[nonzero], (n, p))
    order = np.lexsort((labels, seg_row))
    labels, seg_row = labels[order], seg_row[order]
    new = np.ones(labels.size, dtype=bool)
    new[1:] = (labels[1:] != labels[:-1]) | (seg_row[1:] != seg_row[:-1])
    Y = _csr(seg_row[new], labels[new], np.ones(int(new.sum())), (n, d))
    return DataSet(X, Y)


def _csr(rows, cols, values, shape):
    """CSR matrix from entries listed in row order, columns ascending."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((values, cols, indptr), shape=shape)


def dump_svmlight_multilabel(ds, path, header=True):
    """Write a :class:`DataSet` in the format read by the loader.

    Float values use shortest round-trip formatting, so write-then-read
    reproduces the matrices exactly.  A dimension-pinning header is emitted
    by default (recommended: it keeps empty trailing labels/features).  Rows
    are written in blocks of about ``_WRITE_ENTRIES`` features, so memory
    stays bounded: a block's ``idx:value`` tokens are formatted in one
    ``map``, joined row by row and written in one call.
    """
    # A data set's CSR matrices hold no zeros and each row's entries in
    # column order.
    X = sp.csr_matrix(ds.X_rows())
    Y = ds.Y_rows().tocsr()
    with _open(path, "wt") as fh:
        if header:
            fh.write("#d={} #p={}\n".format(ds.n_labels, ds.n_features))
        a = 0
        while a < ds.n_samples:
            # The rows from a on whose features fit _WRITE_ENTRIES, at least one.
            end = X.indptr[a] + _WRITE_ENTRIES
            b = max(int(np.searchsorted(X.indptr, end, side="right")) - 1, a + 1)
            fh.write(_rows_text(X[a:b], Y[a:b]))
            a = b


def _rows_text(X, Y):
    """The lines of the rows of CSR ``X`` and ``Y``, as one string.

    A row with neither a label nor a feature would be a blank line, which
    the loader skips; it is written as the explicit zero ``1:0`` instead,
    which the loader keeps as an empty row.
    """
    tokens = list(map("{}:{!r}".format, (X.indices + 1).tolist(), X.data.tolist()))
    labels = list(map(str, Y.indices.tolist()))
    x, y = X.indptr.tolist(), Y.indptr.tolist()
    return "".join([
        "{} {}\n".format(",".join(labels[y[i] : y[i + 1]]),
                         " ".join(tokens[x[i] : x[i + 1]])
                         if x[i] < x[i + 1] or y[i] < y[i + 1] else "1:0")
        for i in range(X.shape[0])
    ])


@dataclass(frozen=True)
class SplitPlan:
    """How to carve a dataset into train/test views.

    ``fixed_holdout`` makes one shuffled split of the given sizes;
    ``shuffled_repeats`` repeats that ``count`` times with fresh shuffles;
    ``kfold`` partitions the samples into ``folds`` folds, each serving as
    the test set once.  ``n_train`` and ``n_test`` must be None or integers
    >= 1, ``count`` an integer >= 1, ``folds`` one >= 2 and ``seed`` one
    >= 0, whatever the mode.
    """

    mode: str
    n_train: int = None
    n_test: int = None
    count: int = 10
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ValueError("unknown split mode: {!r}".format(self.mode))
        for name in ("n_train", "n_test"):
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name), 1)
        check_integer("count", self.count, 1)
        check_integer("folds", self.folds, 2)
        check_integer("seed", self.seed, 0)


def make_splits(ds, plan):
    """List of (train view, test view) pairs, deterministic under the seed."""
    n = ds.n_samples
    gen = stream(plan.seed)

    if plan.mode in ("fixed_holdout", "shuffled_repeats"):
        if plan.n_train is None:
            raise ValueError("{} needs n_train".format(plan.mode))
        n_train = plan.n_train
        n_test = plan.n_test if plan.n_test is not None else n - n_train
        if n_test < 1 or n_train + n_test > n:
            raise ValueError(
                "split sizes {}+{} are inconsistent with n={}".format(
                    n_train, n_test, n
                )
            )
        repeats = 1 if plan.mode == "fixed_holdout" else plan.count
        out = []
        for _ in range(repeats):
            perm = gen.permutation(n)
            train = np.sort(perm[:n_train])
            test = np.sort(perm[n_train : n_train + n_test])
            out.append((ds.row_slice(train), ds.row_slice(test)))
        return out

    if plan.folds > n:
        raise ValueError("more folds than samples")
    perm = gen.permutation(n)
    fold_sizes = np.full(plan.folds, n // plan.folds, dtype=np.int64)
    fold_sizes[: n % plan.folds] += 1
    out = []
    stop = 0
    for size in fold_sizes:
        start, stop = stop, stop + int(size)
        test = np.sort(perm[start:stop])
        train = np.sort(np.concatenate([perm[:start], perm[stop:]]))
        out.append((ds.row_slice(train), ds.row_slice(test)))
    return out


def make_synthetic_multilabel(
    n, p, d, n_clusters=8, labels_per_cluster=3, noise=0.5, flip=0.01, seed=0
):
    """Clustered multi-label data with learnable input/label structure.

    Each cluster owns a feature centroid and a sparse label pattern; rows get
    gaussian feature noise around their centroid and rare label flips.  Useful
    for end-to-end tests and benchmarks when no real dataset is at hand.
    """
    gen = stream(seed)
    centroids = gen.standard_normal((n_clusters, p)) * 2.0
    patterns = np.zeros((n_clusters, d))
    for c in range(n_clusters):
        cols = gen.choice(d, size=min(labels_per_cluster, d), replace=False)
        patterns[c, cols] = 1.0
    assign = gen.integers(0, n_clusters, size=n)
    X = centroids[assign] + gen.standard_normal((n, p)) * noise
    Y = patterns[assign].copy()
    if flip > 0:
        flips = gen.random((n, d)) < flip
        Y = np.where(flips, 1.0 - Y, Y)
    # Keep every row non-empty so ranking metrics retain all samples.
    empty = Y.sum(axis=1) == 0
    if empty.any():
        Y[np.nonzero(empty)[0], gen.integers(0, d, size=int(empty.sum()))] = 1.0
    return DataSet(X, sp.csr_matrix(Y))
