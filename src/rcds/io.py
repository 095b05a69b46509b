"""Cohort CSV ingestion and emission, report/truth serialization, config files.

All writers format floats with shortest-roundtrip ``repr`` and never embed
timestamps, so identical inputs produce byte-identical artifacts.
"""

import csv
from itertools import chain, count, repeat
from math import isnan
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml
from numpy.lib.stride_tricks import sliding_window_view

from .cohort import (
    CONTINUOUS,
    BaselineField,
    BaselineSchema,
    Cohort,
    _REASON_CODE,
    subject_violations,
)
from .errors import ConfigError, IngestError

MAX_VIOLATIONS = 20
CHUNK_BYTES = 1 << 20  # the plain-file read's block size
# the longest field the block read takes: a float repr is at most 24 bytes,
# and 40 admits ids such as a 36-character UUID. The byte gathers are then
# at most this wide, so their memory stays linear in the block's bytes
FIELD_BYTES = 40

COHORT_FIXED_COLUMNS = [
    "subject_id", "t", "monitor", "observed_marker", "override_flag",
    "followup_end", "end_reason", "outcome_y",
]


def _fmt(v):
    return "" if isnan(v) else repr(v)


def _csv_field(text):
    """``text`` as a field of a ``csv.writer`` row (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def cohort_to_csv(cohort, path):
    """Write one row per subject-month in the flat cohort schema, as
    ``csv.writer`` would, building the text a column at a time."""
    sub = np.repeat(np.arange(cohort.n_subjects), np.diff(cohort.offsets))
    fue, y = cohort.followup_end, cohort.outcome_y

    def per_subject(texts):
        return np.array(texts, dtype=object)[sub]

    def integers(values):
        distinct, at = np.unique(values, return_inverse=True)
        return np.array(list(map(str, distinct.tolist())), dtype=object)[at]

    outcome = np.where(cohort.t == fue[sub], per_subject(
        ["" if isnan(v) else str(int(v)) for v in y.tolist()]), "")
    columns = [
        per_subject([_csv_field(str(s)) for s in cohort.subject_ids]),
        integers(cohort.t), integers(cohort.monitor),
        list(map(_fmt, cohort.observed_marker.tolist())),
        integers(cohort.override_flag),
        per_subject([f"{int(f)},{cohort.end_reason_name(i)}"
                     for i, f in enumerate(fue.tolist())]),
        outcome,
    ]
    if cohort.schema.names:
        columns.append(per_subject(
            [",".join(map(repr, row)) for row in cohort.baseline.tolist()]))
    header = COHORT_FIXED_COLUMNS + [f"baseline_{n}" for n in cohort.schema.names]
    lines = chain([",".join(map(_csv_field, header))],
                  map(",".join, zip(*columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _parse(cells, convert, dtype):
    """``convert`` over a list of cells: the values (0 where a cell fails)
    and ``{index: message}`` of the failing cells, including integers beyond
    64 bits."""
    try:
        return np.fromiter(map(convert, cells), dtype, len(cells)), {}
    except (ValueError, OverflowError):
        pass
    values, errors = np.zeros(len(cells), dtype), {}
    for i, cell in enumerate(cells):
        try:
            values[i] = convert(cell)
        except ValueError as err:
            errors[i] = str(err)
        except OverflowError:
            errors[i] = f"integer out of range: {cell!r}"
    return values, errors


def _raise_violations(path, found):
    """Raise the first ``MAX_VIOLATIONS`` of ``(line, check, message)``
    triples, ordered by line and then check, if there are any."""
    items = [(line, msg) for line, _, msg in sorted(found)[:MAX_VIOLATIONS]]
    if items:
        listing = "; ".join(f"line {ln}: {msg}" for ln, msg in items)
        raise IngestError(
            f"{path}: {len(items)} violation(s) (first {MAX_VIOLATIONS} "
            f"listed): {listing}",
            violations=items,
        )


def _header_schema(path, header, schema):
    """The baseline schema of a file with ``header``: ``schema``, or every
    ``baseline_*`` column as continuous when it is None."""
    fixed = COHORT_FIXED_COLUMNS
    if header[: len(fixed)] != fixed:
        raise IngestError(
            f"{path}: header must start with {fixed}, got {header[:len(fixed)]}"
        )
    base_cols = header[len(fixed):]
    if any(not c.startswith("baseline_") for c in base_cols):
        raise IngestError(f"{path}: trailing columns must be baseline_*")
    base_names = [c[len("baseline_"):] for c in base_cols]
    if schema is None:
        schema = BaselineSchema(fields=tuple(
            BaselineField(n, CONTINUOUS) for n in base_names
        ))
    if schema.names != base_names:
        raise IngestError(
            f"{path}: baseline columns {base_names} do not match the declared "
            f"schema {schema.names}"
        )
    return schema


_BYTE = np.arange(256)
_DIGIT = (_BYTE >= ord("0")) & (_BYTE <= ord("9"))
_FLOAT = _DIGIT | np.isin(_BYTE, list(b".e+-"))  # the alphabet of a float repr


def _blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, read ``CHUNK_BYTES`` at a
    time; a last line without a line end is given one."""
    rest = []  # the pieces of a line not yet ended
    while block := fh.read(CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*rest, block[:cut]])
            rest = []
        rest.append(block[cut:])
    if any(rest):
        yield b"".join([*rest, b"\n"])


def _line_ends(b):
    """The positions of the line feeds in the bytes ``b`` of whole lines;
    None unless every byte is plain: printable ASCII but ``"``, a line feed,
    or a carriage return before one."""
    control = np.flatnonzero(b < ord(" "))
    newline = control[b[control] == ord("\n")]
    cr = control[b[control] == ord("\r")]
    if (newline.size + cr.size < control.size or (b > ord("~")).any()
            or (b == ord('"')).any() or (b[cr + 1] != ord("\n")).any()):
        return None
    return newline


def _plain_fields(block, ncol):
    """The bytes of a block of whole lines, zero padded by its longest line,
    and the start and length of each of its fields as ``(lines, ncol)``
    arrays; None unless every byte is plain and every line holds ``ncol``
    fields of at most ``FIELD_BYTES`` bytes."""
    b = np.frombuffer(block, np.uint8)
    newline = _line_ends(b)
    if newline is None:
        return None
    sep = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    if sep.size != newline.size * ncol \
            or (sep[ncol - 1::ncol] != newline).any():
        return None
    sep = sep.reshape(newline.size, ncol)
    start = np.empty_like(sep)
    start[0, 0] = 0
    start[1:, 0] = newline[:-1] + 1
    start[:, 1:] = sep[:, :-1] + 1
    sep[:, -1] -= b[newline - 1] == ord("\r")  # now each field's end
    length = sep - start
    if length.max() > FIELD_BYTES:
        return None
    longest = int((newline - start[:, 0]).max())
    return np.concatenate([b, np.zeros(longest, np.uint8)]), start, length


def _text(b, start, length, alphabet=None):
    """Each field's bytes as one fixed-width ``S`` array (a plain byte is
    never NUL, so the zero padding is exact), or None if a field holds a
    byte outside ``alphabet``. ``b`` is padded by the longest field."""
    k = np.arange(max(int(length.max(initial=0)), 1))
    g = sliding_window_view(b, k.size)[start]
    inside = k < length[:, None]
    if alphabet is not None and not (alphabet[g] | ~inside).all():
        return None
    g *= inside
    return g.view(f"S{k.size}")[:, 0]


def _integers(b, start, length):
    """Fields of 1 to 18 digits as int64, the values ``int`` gives; None if
    a field is not one."""
    if not ((length >= 1) & (length <= 18)).all():
        return None
    text = _text(b, start, length, _DIGIT)
    if text is None:
        return None
    value = np.zeros(length.size, np.int64)
    for k, digit in enumerate(text.view(np.uint8).reshape(length.size, -1).T):
        value = np.where(k < length, value * 10 + (digit - ord("0")), value)
    return value


def _floats(b, start, length):
    """Fields in the alphabet of a float repr as float64, the values
    ``float`` gives (an empty field is nan); None if a field holds another
    byte or does not parse."""
    value = np.full(length.size, np.nan)
    some = length > 0
    text = _text(b, start[some], length[some], _FLOAT)
    if text is None:
        return None
    try:
        value[some] = text.astype(np.float64)
    except ValueError:
        return None
    return value


class _PlainRows:
    """A plain file's data lines, parsed a block at a time into the row
    arrays, the subject codes and each new subject's values."""

    def __init__(self, ncol):
        self.ncol = ncol
        self.index = {}  # subject id -> code, in order of first appearance
        self.rows = []  # per block: code, t, monitor, marker, override_flag
        self.subjects = []  # per block: followup_end, end_reason, baseline
        self.outcomes = []  # per block: code and outcome of each outcome row
        # per span of subject-constant text, its text on each subject's
        # first row: followup_end and end_reason, then the baseline values
        self.spans = [(5, 6)] + ([(8, ncol - 1)] if ncol > 8 else [])
        self.first_text = [np.empty(0, "S1") for _ in self.spans]

    def add(self, block):
        """Parse one block; False when it is not plain or fails a check the
        :class:`Cohort` cannot make."""
        fields = _plain_fields(block, self.ncol)
        if fields is None:
            return False
        b, start, length = fields
        t, monitor, override, fue = (_integers(b, start[:, j], length[:, j])
                                     for j in (1, 2, 4, 5))
        marker = _floats(b, start[:, 3], length[:, 3])
        if any(a is None for a in (t, monitor, override, fue, marker)):
            return False
        has_y = length[:, 7] > 0
        y = b[start[has_y, 7]].astype(np.int64) - ord("0")
        if (length[:, 7] > 1).any() or ((y != 0) & (y != 1)).any() \
                or (t[has_y] != fue[has_y]).any():
            return False

        ids = _text(b, start[:, 0], length[:, 0])
        distinct, first, inverse = np.unique(ids, return_index=True,
                                             return_inverse=True)
        by_first = np.argsort(first)
        seen, ucode = len(self.index), np.empty(distinct.size, np.int64)
        ucode[by_first] = [self.index.setdefault(sid, len(self.index))
                           for sid in distinct[by_first].tolist()]
        code = ucode[inverse]
        new = first[by_first[ucode[by_first] >= seen]]  # in code order

        for s, (lo, hi) in enumerate(self.spans):
            text = _text(b, start[:, lo],
                         start[:, hi] + length[:, hi] - start[:, lo])
            self.first_text[s] = np.concatenate([self.first_text[s], text[new]])
            if (text != self.first_text[s][code]).any():
                return False
        base = [_floats(b, start[new, j], length[new, j])
                for j in range(8, self.ncol)]
        if any(v is None for v in base):
            return False
        reason = [_REASON_CODE.get(r.decode("ascii"), -1) for r in
                  _text(b, start[new, 6], length[new, 6]).tolist()]
        self.rows.append((code, t, monitor, marker, override))
        self.subjects.append((fue[new], np.array(reason, np.int64),
                              np.column_stack(base) if base
                              else np.empty((new.size, 0))))
        self.outcomes.append((code[has_y], y.astype(np.float64)))
        return True

    def cohort(self, schema, horizon):
        """The :class:`Cohort` of the blocks, or None if it refuses them.
        Each column's blocks are released once it is joined. Rows already in
        strictly increasing (subject, month) order, as :func:`cohort_to_csv`
        writes them, are taken as they are; others are sorted so."""
        columns = [list(a) for a in zip(*self.rows)]
        self.rows.clear()
        code, t, monitor, marker, override = map(_joined, columns)
        fue, reason, base = (np.concatenate(a) for a in zip(*self.subjects))
        outcome_y = np.full(fue.size, np.nan)
        for at, y in self.outcomes:
            outcome_y[at] = y
        same = code[1:] == code[:-1]
        if not ((code[1:] > code[:-1]) | (same & (t[1:] > t[:-1]))).all():
            order = np.lexsort((t, code))
            t, monitor, marker, override = (
                a[order] for a in (t, monitor, marker, override))
        del code, same
        try:
            return Cohort(
                subject_ids=[sid.decode("ascii") for sid in self.index],
                baseline=base, schema=schema,
                horizon=int(fue.max()) if horizon is None else int(horizon),
                followup_end=fue, end_reason=reason, outcome_y=outcome_y,
                t=t, monitor=monitor, observed_marker=marker,
                override_flag=override)
        except ConfigError:
            return None


def _joined(blocks):
    """One array of a list of block arrays, which it empties."""
    whole = np.concatenate(blocks)
    blocks.clear()
    return whole


def _ingest_plain(path, schema, horizon):
    """The :class:`Cohort` of a plain file that passes every check, read
    ``CHUNK_BYTES`` at a time; None for any other file or one that cannot be
    read.

    The :class:`Cohort` makes every check it can see. The blocks add the
    rest: each row's followup_end, end_reason and baseline text equal its
    subject's first row byte for byte, and outcome_y is empty, ``0`` or
    ``1``, and only on the ``t == followup_end`` row.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.readline().removesuffix(b"\n") + b"\n"
            if _line_ends(np.frombuffer(head, np.uint8)) is None:
                return None
            header = head.decode("ascii")[:-1].removesuffix("\r").split(",")
            try:
                schema = _header_schema(path, header, schema)
            except IngestError:
                return None
            rows = _PlainRows(len(header))
            if not all(map(rows.add, _blocks(fh))) or not rows.index:
                return None
    except OSError:
        return None
    return rows.cohort(schema, horizon)


def ingest_cohort(path, schema=None, horizon=None):
    """Parse and validate a cohort CSV.

    Rows may come in any order. Subjects are numbered by their first row in
    the file (a row with the wrong field count or a malformed numeric field
    does not count), and each subject's rows are sorted by month. Only the
    measurements are read: :class:`Cohort` derives the carried-forward
    marker, months since the last visit and visit count. Baseline columns
    follow the declared ``schema``; without one, every ``baseline_*``
    column is treated as continuous. ``horizon`` defaults to the largest
    followup_end present.

    There are two paths, and which one runs depends only on the file. A
    plain file is all ASCII, has no ``"``, has no carriage return but
    before a line feed, and holds every integer field as ``[0-9]+``. It is
    read in blocks of ``CHUNK_BYTES`` parsed with numpy, so no per-cell
    string outlives its block, and if no field is longer than
    ``FIELD_BYTES`` and every check passes, that read gives the
    :class:`Cohort`. Its rows are sorted by subject and month only when
    they are not in that order already, as :func:`cohort_to_csv` writes
    them; an ordered file is taken as read, with no sort and no copy. Any
    other file, and any plain file that fails a check, goes to the
    line-numbered reader, ``csv.reader`` over the whole file, which gives
    the same cohort or reports the violations.

    A file that cannot be read (a directory, bytes that are not text in the
    locale's encoding, or a field over the csv size limit) raises :class:`IngestError`, "cannot read cohort file".
    Violations raise :class:`IngestError` with line numbers, which
    count CSV rows from the header as line 1. Row checks run first: if any
    row fails, the error lists the first 20 violations by line and, within a
    line, in the order of the checks. Only then run the subject checks, the
    validity rules of :func:`rcds.cohort.subject_violations` (baseline values
    included). On a valid file they run once, as the :class:`Cohort` is
    built; only a refused cohort has them run again on the row blocks as
    read, to list one violation per subject at its first line, for the first
    20 failing subjects.
    """
    path = Path(path)
    cohort = _ingest_plain(path, schema, horizon)
    return cohort if cohort is not None else \
        _ingest_rows(path, schema, horizon)


def _ingest_rows(path, schema, horizon):
    """The line-numbered reader: ``csv.reader`` over the whole file."""
    widths = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{path}: empty file") from None
            # one flat list of fields: each row list dies at once, so the
            # cyclic GC never walks hundreds of thousands of live rows
            fields = list(chain.from_iterable(
                widths.append(len(row)) or row for row in reader))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise IngestError(f"{path}: cannot read cohort file: "
                          f"{getattr(err, 'strerror', None) or err}") from None
    schema = _header_schema(path, header, schema)
    base_cols = header[len(COHORT_FIXED_COLUMNS):]

    # row checks, in the order a row meets them; a row failing a check
    # marked "skip" meets no later check and is not stored
    found, position = [], count()

    def add(mask, template, *args):
        k = next(position)
        found.extend((line, k, template.format(*xs)) for line, *xs in zip(
            lines[mask].tolist(), *(a[mask].tolist() for a in args)))

    ncol = len(header)
    widths = np.array(widths, dtype=np.int64)
    lines = np.arange(widths.size) + 2
    fit = widths == ncol
    add(~fit, f"expected {ncol} fields, got {{}}", widths)  # skip
    cells = np.array(fields, dtype=object)[
        (np.cumsum(widths) - widths)[fit, None] + np.arange(ncol)]
    del fields
    lines = lines[fit]

    parsed = [_parse(cells[:, j].tolist(), convert, dtype) for j, convert, dtype
              in ((1, int, np.int64), (2, int, np.int64),
                  (3, lambda c: float(c) if c != "" else np.nan, np.float64),
                  (4, int, np.int64), (5, int, np.int64))]
    t, monitor, obs, override, fue = (values for values, _ in parsed)
    message = np.full(lines.size, None, dtype=object)
    for _, errors in reversed(parsed):  # the first failing field's message
        message[list(errors)] = list(errors.values())
    malformed = np.not_equal(message, None)
    add(malformed, "malformed numeric field: {}", message)  # skip
    if malformed.any():
        cells, lines, t, monitor, obs, override, fue = (
            a[~malformed] for a in (cells, lines, t, monitor, obs, override,
                                    fue))

    sids = cells[:, 0].tolist()
    ids = list(dict.fromkeys(sids))
    code = np.fromiter(map(dict(zip(ids, range(len(ids)))).__getitem__, sids),
                       np.int64, len(sids))
    first = np.unique(code, return_index=True)[1]  # each subject's first row
    reason = cells[:, 6]
    reason_code = np.fromiter(
        map(_REASON_CODE.get, reason, repeat(-1)), np.int64, len(reason))
    binary_monitor = (monitor == 0) | (monitor == 1)
    binary_override = (override == 0) | (override == 1)
    known_reason = reason_code >= 0

    # a repeated (subject, t) is a duplicate once an earlier row of it got
    # past the monitor, override and end_reason checks and was stored
    order = np.lexsort((t, code))  # stable: file order within a month
    stored = (binary_monitor & binary_override & known_reason)[order]
    before = np.cumsum(stored) - stored
    sorted_code, sorted_t = code[order], t[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = ((sorted_code[1:] != sorted_code[:-1])
                  | (sorted_t[1:] != sorted_t[:-1]))
    dup = np.empty(order.size, dtype=bool)
    dup[order] = before > before[starts][np.cumsum(starts) - 1]

    sid = cells[:, 0]
    add(dup, "duplicated (subject, t) = ({}, {})", sid, t)  # skip
    live = ~dup
    add(live & (fue != fue[first][code]),
        "followup_end changes within subject {}", sid)
    add(live & (reason != reason[first][code]),
        "end_reason changes within subject {}", sid)
    add(live & (cells[:, 8:] != cells[first[code], 8:]).any(axis=1),
        "baseline values change within subject {}", sid)
    add(live & ~binary_monitor, "monitor must be 0 or 1")  # skip
    live &= binary_monitor
    add(live & ~binary_override, "override_flag must be 0 or 1")  # skip
    live &= binary_override
    measured = ~np.isnan(obs)
    add(live & (monitor == 1) & ~measured,
        "monitored month lacks an observed_marker")
    add(live & (monitor == 0) & measured,
        "observed_marker present on an unmonitored month")
    add(live & np.isinf(obs), "observed_marker must be finite, got {!r}", obs)
    add(live & ~known_reason, "unknown end_reason {!r}", reason)  # skip
    live &= known_reason
    y_raw = cells[:, 7]
    has_y = live & (y_raw != "")
    add(has_y & (t != fue), "outcome_y populated before the last row")
    add(has_y & (y_raw != "0") & (y_raw != "1"),
        "outcome_y must be 0 or 1, got {!r}", y_raw)
    _raise_violations(path, found)

    # subject checks, once every row passed the row checks and was stored: a
    # subject is reported at its first line with its first failing rule
    if not ids:
        raise IngestError(f"{path}: no data rows")
    n = len(ids)
    base = np.empty((n, len(base_cols)))
    for j in range(len(base_cols)):
        base[:, j], errors = _parse(cells[first, 8 + j].tolist(), float,
                                    np.float64)
        base[list(errors), j] = np.nan  # a value that did not parse is invalid
    outcome_y = np.full(n, np.nan)
    outcome_y[code[has_y]] = (y_raw[has_y] == "1").astype(np.float64)
    fue = fue[first]
    t, monitor, obs, override = (a[order] for a in (t, monitor, obs, override))
    measurements = dict(
        subject_ids=ids, baseline=base, schema=schema,
        horizon=int(fue.max()) if horizon is None else int(horizon),
        followup_end=fue, end_reason=reason_code[first], outcome_y=outcome_y,
        t=t, monitor=monitor, observed_marker=obs, override_flag=override)
    # row blocks as read that differ from the Cohort's followup_end blocks
    # always fail it, by the row total or by a month out of order
    try:
        return Cohort(**measurements)
    except ConfigError as err:
        offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(code, minlength=n))])
        found = subject_violations(SimpleNamespace(**measurements), offsets,
                                   MAX_VIOLATIONS)
        _raise_violations(path, [(int(lines[first[i]]), 0, message)
                                 for i, message in found])
        raise IngestError(f"{path}: {err}") from None


def write_csv(path, header, rows):
    """Write ``header`` and then each of ``rows`` with one ``csv.writer``,
    which writes None as an empty field and a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def report_to_csv(table, path, selection=None):
    """Table-style report, rows ordered by descending threshold."""
    feasible = [""] * table.xs.size
    if selection is not None:
        fset = set(float(v) for v in selection.feasible_x)
        feasible = [1 if float(x) in fset else 0 for x in table.xs]
    columns = (table.xs, table.risk, table.risk_lo, table.risk_hi,
               table.usage, table.usage_lo, table.usage_hi)
    write_csv(path, ["x", "risk", "risk_lo", "risk_hi", "usage", "usage_lo",
                     "usage_hi", "feasible"],
              ([_fmt(float(c[i])) for c in columns] + [feasible[i]]
               for i in np.argsort(-table.xs)))


def truth_to_csv(truth, path):
    columns = (truth.xs, truth.risk, truth.risk_mcse, truth.usage,
               truth.usage_mcse)
    write_csv(path, ["x", "risk_true", "risk_mcse", "usage_true",
                     "usage_mcse"],
              ([_fmt(float(c[i])) for c in columns]
               for i in range(truth.xs.size)))


def load_config(path):
    """The mapping in a YAML config file, whose values :mod:`rcds.cli` reads."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config: "
                          f"{getattr(err, 'strerror', None) or err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: config is not valid YAML: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return raw


def dump_yaml(data, path):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True, default_flow_style=False)
