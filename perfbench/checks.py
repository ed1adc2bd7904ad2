"""Output checks against the committed reference values.

A value passes when ``|got - ref| <= RTOL * |ref| + SCALE_TOL * scale +
FLOOR``, where ``scale`` is the largest reference magnitude of its column (or
group).  The tolerance admits round-off-level changes (reordered sums, a
different but equally accurate solver) and rejects anything a reader of the
CSVs could see.  Byte identity of the CSVs is reported separately, as
information only.
"""

import hashlib
import math

RTOL = 1e-6
SCALE_TOL = 1e-8
FLOOR = 1e-12

#: how many mismatches one check lists before it stops
MAX_MESSAGES = 5


def parse_cell(token):
    """A CSV cell as a list of floats: one for a real, two for a complex."""
    if token.endswith("j"):
        value = complex(token)
        return [value.real, value.imag]
    return [float(token)]


def read_csv(path):
    """(columns, rows, sha256 of the whole file) of a magsqueeze CSV.

    Each row is a flat list of floats; a complex cell contributes its real
    and imaginary parts.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    columns, rows = None, []
    for line in raw.decode("utf-8").splitlines():
        if line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            continue
        row = []
        for token in line.split(","):
            row.extend(parse_cell(token))
        rows.append(row)
    return columns, rows, hashlib.sha256(raw).hexdigest()


def table_reference(path, keep=100):
    """Reference record of one CSV: columns, row count, about `keep` sampled
    rows (always the first and the last), sha256."""
    columns, rows, digest = read_csv(path)
    stride = max(1, math.ceil(len(rows) / keep))
    sampled = list(range(0, len(rows), stride))
    if sampled[-1] != len(rows) - 1:
        sampled.append(len(rows) - 1)
    return {
        "columns": columns,
        "n_rows": len(rows),
        "rows": [[i, rows[i]] for i in sampled],
        "sha256": digest,
    }


def close(got, ref, scale):
    if math.isinf(ref):
        return got == ref
    return abs(got - ref) <= RTOL * abs(ref) + SCALE_TOL * scale + FLOOR


def compare_rows(label, got_rows, ref_rows):
    """Compare ``[[index, values], ...]`` reference rows with the got rows."""
    problems = []
    width = len(ref_rows[0][1]) if ref_rows else 0
    scales = [
        max((abs(v[c]) for _, v in ref_rows if math.isfinite(v[c])), default=0.0)
        for c in range(width)
    ]
    for index, want in ref_rows:
        if index >= len(got_rows):
            problems.append(f"{label}: row {index} missing")
            break
        got = got_rows[index]
        if len(got) != len(want):
            problems.append(f"{label}: row {index} has {len(got)} values, want {len(want)}")
            continue
        for c, (g, w) in enumerate(zip(got, want)):
            if not close(g, w, scales[c]):
                problems.append(f"{label}: row {index} value {c} is {g!r}, want {w!r}")
                if len(problems) >= MAX_MESSAGES:
                    return problems
    return problems


def compare_table(path, ref):
    """(problems, byte_identical) for one CSV against its reference record."""
    label = path.rsplit("/", 1)[-1]
    columns, rows, digest = read_csv(path)
    problems = []
    if columns != ref["columns"]:
        problems.append(f"{label}: columns {columns} differ from {ref['columns']}")
    if len(rows) != ref["n_rows"]:
        problems.append(f"{label}: {len(rows)} rows, want {ref['n_rows']}")
    problems += compare_rows(label, rows, ref["rows"])
    return problems, digest == ref["sha256"]


def compare_value(label, got, ref, scale):
    """Problems with one real or complex output; `ref` is a number or the
    ``[re, im]`` pair of ``as_pair``."""
    got = complex(got)
    want = complex(*ref) if isinstance(ref, list) else complex(ref)
    if close(got.real, want.real, scale) and close(got.imag, want.imag, scale):
        return []
    return [f"{label}: got {got!r}, want {want!r}"]


def as_pair(value):
    """JSON form of a real or complex scalar."""
    value = complex(value)
    return [value.real, value.imag]
