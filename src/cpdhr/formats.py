"""Text file formats: tensors, signals, scene configs, reports.

Everything is UTF-8 text. Tensors, signal CSVs and slice exports are grids
of numbers written and read by one codec with 17 significant digits, so
identical inputs give byte-identical files and every float survives a
write/read roundtrip bitwise. Tensor payloads are stored first-index-fastest.
Grid and time indices are 1-based inside files and converted at this boundary.
"""

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from .core import CpdModel, IncompleteTensor, element_count
from .scene import DoaScene, MaskPattern, SourceSet, SourceSpec
from .solvers import CpdOptions

# a masked tensor entry is the line `* *`
_MISSING = "*"


def write_text(path, text):
    """Write UTF-8 text; callers render first, so a rejected value leaves no file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _format_grid(grid, sep, observed=None, missing=""):
    """Lines of a real 2-D grid, cells joined by sep: observed cells as
    `%#.17g`, unobserved ones as the literal `missing`, filled by one `%`."""
    grid = np.asarray(grid, dtype=np.float64)
    if observed is None:
        observed = np.ones(grid.shape, dtype=bool)
    values = grid[observed]
    if not np.isfinite(values).all():
        raise ValueError("only finite values can be serialized")
    parts = np.empty(grid.shape + (2,), dtype=object)
    parts[..., 0] = np.where(observed, "%#.17g", missing)
    parts[..., 1] = sep
    parts[:, -1:, 1] = "\n"
    return "".join(parts.ravel().tolist()) % tuple(values.tolist())


def _parse_grid(tokens, counts, width, line_numbers, what, missing=None):
    """Inverse of _format_grid, from the rows' flat token list and per-row
    token counts (no per-row lists, which would feed the garbage collector):
    (rows, width) float64 values and a per-row observed mask. A row of only
    `missing` tokens reads as zeros; errors name the physical line_numbers."""
    element_count((len(counts), width))
    if set(counts) != {width}:
        k = next(k for k, c in enumerate(counts) if c != width)
        raise ValueError(f"ragged row on line {line_numbers[k]}: "
                         f"{counts[k]} fields, expected {width}")
    cells = np.array(tokens, dtype=object).reshape(len(counts), width)
    observed = np.ones(len(counts), dtype=bool)
    if missing in tokens:
        observed = ~(cells == missing).all(axis=1)
        cells[~observed] = "0"
    try:
        values = cells.astype(np.float64)
    except ValueError:
        for n, row in zip(line_numbers, cells):
            try:
                row.astype(np.float64)
            except ValueError:
                raise ValueError(f"non-numeric {what} on line {n}: {list(row)}") from None
        raise
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite {what} on line {line_numbers[np.argmin(finite)]}")
    return values, observed


# ---------------------------------------------------------------------------
# tensor files


def serialize_tensor(t):
    """Text form of a dense or incomplete tensor.

    Header `tns <order> <d1> ... <dN>`, then one `<re> <im>` line per entry
    in first-index-fastest order; a masked entry becomes the line `* *`.
    """
    if isinstance(t, IncompleteTensor):
        values, observed = t.values, t.mask.ravel(order="F")[:, None]
    else:
        values, observed = np.asarray(t, dtype=np.complex128), True
    grid = values.ravel(order="F").view(np.float64).reshape(-1, 2)
    return _tensor_header(values.shape) + _format_grid(grid, " ", np.broadcast_to(observed, grid.shape), _MISSING)


def _tensor_header(shape):
    return "tns " + " ".join(str(d) for d in (len(shape), *shape)) + "\n"


def serialize_masked(dense_text, mask):
    """serialize_tensor(IncompleteTensor(t, mask)) from dense_text, the
    serialize_tensor text of the dense t: its lines with `* *` for every
    unobserved entry, so no number is formatted again."""
    mask = np.asarray(mask, dtype=bool)
    if not dense_text.startswith(_tensor_header(mask.shape)):
        raise ValueError(f"mask shape {mask.shape} does not match the tensor text's header")
    lines = dense_text.split("\n")
    for k in np.flatnonzero(~mask.ravel(order="F")).tolist():
        lines[k + 1] = f"{_MISSING} {_MISSING}"
    return "\n".join(lines)


def parse_tensor(text):
    """Inverse of serialize_tensor, as C-contiguous arrays: the layout the
    program computes in. Any `* *` line makes the result an
    IncompleteTensor with that entry masked."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("tns "):
        raise ValueError("tensor file must start with a 'tns' header line")
    head = lines[0].split()
    try:
        order = int(head[1])
        shape = tuple(int(x) for x in head[2:])
    except (IndexError, ValueError):
        raise ValueError(f"malformed tensor header: {lines[0]!r}") from None
    if len(shape) != order:
        raise ValueError(f"malformed tensor header: {lines[0]!r}")
    count = element_count(shape)
    body = lines[1:]
    counts = list(map(len, map(str.split, body)))
    kept = list(map(bool, counts))
    counts = list(compress(counts, kept))
    line_numbers = list(compress(range(2, len(body) + 2), kept))
    if len(counts) != count:
        raise ValueError(f"expected {count} entry lines, found {len(counts)}")
    tokens = " ".join(body).split()
    values, observed = _parse_grid(tokens, counts, 2, line_numbers, "entry", missing=_MISSING)
    values = np.ascontiguousarray(values.view(np.complex128).reshape(shape, order="F"))
    if observed.all():
        return values
    return IncompleteTensor(values, np.ascontiguousarray(observed.reshape(shape, order="F")))


def save_tensor(t, path):
    write_text(path, serialize_tensor(t))


def load_tensor(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh.read())


def load_model(directory, prefix):
    """The CpdModel of the files <prefix>1.tns, <prefix>2.tns, ... in
    directory, up to the first one missing; a factor file with a masked
    entry is refused."""
    factors = []
    while os.path.exists(path := os.path.join(directory, f"{prefix}{len(factors) + 1}.tns")):
        factor = load_tensor(path)
        if isinstance(factor, IncompleteTensor):
            raise ValueError(f"{path}: a factor file cannot have masked entries")
        factors.append(factor)
    if not factors:
        raise ValueError(f"no {prefix}*.tns files in {directory}")
    return CpdModel(factors)


# ---------------------------------------------------------------------------
# signal CSVs


def serialize_signals(sources):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(sources.labels)
    return buf.getvalue() + _format_grid(sources.signals, ",")


def parse_signals(text):
    reader = csv.reader(io.StringIO(text))
    body = [(reader.line_num, row) for row in reader if row]
    if len(body) < 2:
        raise ValueError("signal CSV needs a header row and at least one data row")
    labels = body[0][1]
    line_numbers, rows = zip(*body[1:])
    tokens = list(chain.from_iterable(rows))
    values, _ = _parse_grid(tokens, list(map(len, rows)), len(labels), line_numbers, "cell")
    return SourceSet(values, labels)


def save_signals(sources, path):
    write_text(path, serialize_signals(sources))


def load_signals(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_signals(fh.read())


# ---------------------------------------------------------------------------
# scene configuration


@dataclass
class SceneConfig:
    """Validated simulation configuration.

    snr_db None means no noise is added; the key itself must still be
    present in the file (absent physics fields are an error, never a
    default).
    """

    scene: DoaScene
    snr_db: float
    seed: int
    rank: int
    algorithm: str
    signals: str
    masks: list = field(default_factory=list)

    def __post_init__(self):
        if self.snr_db is not None:
            self.snr_db = float(self.snr_db)
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        CpdOptions(rank=self.rank, algorithm=self.algorithm)
        if self.rank < self.scene.rank:
            raise ValueError(f"rank {self.rank} is below the {self.scene.rank} sources: each needs a column")
        if not isinstance(self.signals, str) or not self.signals:
            raise ValueError("signals must be 'synthetic' or a CSV path")


_REQUIRED_KEYS = {
    "grid_m1", "grid_m2", "time_len", "snr_db", "seed", "rank", "algorithm",
    "sources", "signals",
}
_OPTIONAL_KEYS = {"masks"}
_SOURCE_KEYS = {"azimuth_deg", "elevation_deg"}
_SOURCE_OPTIONAL = {"attenuation"}
_MASK_KEYS = {"kind", "sensor"}


def _check_keys(mapping, required, optional, what):
    keys = set(mapping)
    missing = required - keys
    if missing:
        raise ValueError(f"{what}: missing required key(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {sorted(unknown)}")


def _field(mapping, key, kind, what, default=None):
    """mapping[key] from json.loads, or default when the key is absent,
    refused unless its value is of the named kind; a bool is no number,
    and NaN or an infinity, which json.loads accepts, is refused too."""
    if key not in mapping:
        return default
    value = mapping[key]
    number = type(value) in (int, float)
    ok = {
        "an integer": type(value) is int,
        "a number": number,
        "a number or null": number or value is None,
        "a bool": type(value) is bool,
        "a pair of integers": type(value) is list and len(value) == 2 and all(type(v) is int for v in value),
        "a list of objects": type(value) is list and all(type(v) is dict for v in value),
    }[kind]
    if not ok:
        raise ValueError(f"{what}: {key} must be {kind}, got {json.dumps(value)}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{what}: {key} must be finite, got {json.dumps(value)}")
    return value


def parse_config(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(doc, _REQUIRED_KEYS, _OPTIONAL_KEYS, "config")
    sources = _field(doc, "sources", "a list of objects", "config")
    if not sources:
        raise ValueError("config: sources must be a non-empty list")
    specs = []
    for k, src in enumerate(sources, start=1):
        what = f"sources[{k}]"
        _check_keys(src, _SOURCE_KEYS, _SOURCE_OPTIONAL, what)
        specs.append(SourceSpec(
            azimuth_deg=float(_field(src, "azimuth_deg", "a number", what)),
            elevation_deg=float(_field(src, "elevation_deg", "a number", what)),
            attenuation=float(_field(src, "attenuation", "a number", what, default=1.0)),
        ))
    scene = DoaScene(
        sources=specs,
        grid_m1=_field(doc, "grid_m1", "an integer", "config"),
        grid_m2=_field(doc, "grid_m2", "an integer", "config"),
        time_len=_field(doc, "time_len", "an integer", "config"),
    )
    masks = []
    for k, pat in enumerate(_field(doc, "masks", "a list of objects", "config", default=[]), start=1):
        _check_keys(pat, _MASK_KEYS, set(), f"masks[{k}]")
        i, j = _field(pat, "sensor", "a pair of integers", f"masks[{k}]")
        if not (1 <= i <= scene.grid_m1 and 1 <= j <= scene.grid_m2):
            raise ValueError(
                f"masks[{k}]: sensor ({i}, {j}) outside the "
                f"{scene.grid_m1}x{scene.grid_m2} grid (1-based)"
            )
        masks.append(MaskPattern(kind=pat["kind"], sensor=(i - 1, j - 1)))
    return SceneConfig(
        scene=scene,
        snr_db=_field(doc, "snr_db", "a number or null", "config"),
        seed=_field(doc, "seed", "an integer", "config"),
        rank=_field(doc, "rank", "an integer", "config"),
        algorithm=doc["algorithm"],
        signals=doc["signals"],
        masks=masks,
    )


def read_config(path):
    """A config file's bytes, which a truth directory copies and a report's
    digest hashes, and the config they parse to, from one read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, parse_config(raw.decode("utf-8"))


def load_config(path):
    return read_config(path)[1]


def config_digest(data):
    """sha256 of the config file bytes, for report provenance."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# reports and slice exports


def canonical_json(doc):
    """Deterministic JSON rendering: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save_report(doc, path):
    write_text(path, canonical_json(doc))


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_diagnostics(path):
    """A decompose diagnostics.json, refused unless it is an object that
    holds every field a report copies, each of its kind."""
    try:
        doc = load_report(path)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: diagnostics are not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: diagnostics must be a JSON object")
    for key, kind in (("iterations", "an integer"), ("converged", "a bool"),
                      ("final_relative_residual", "a number")):
        if key not in doc:
            raise ValueError(f"{path}: missing required key {key!r}")
        _field(doc, key, kind, str(path))
    return doc


def slice_csv(t, mode, index):
    """One tensor slice as a CSV of entry magnitudes.

    mode and index are 1-based, as on the command line; masked entries
    become empty cells. The two remaining modes keep their original
    relative order.
    """
    if isinstance(t, IncompleteTensor):
        values, mask = t.values, t.mask
    else:
        values, mask = np.asarray(t, dtype=np.complex128), None
    if values.ndim < 2:
        raise ValueError(f"a slice needs a tensor of order 2 or more, got order {values.ndim}")
    if not 1 <= mode <= values.ndim:
        raise ValueError(f"mode {mode} out of range for order-{values.ndim} tensor")
    if not 1 <= index <= values.shape[mode - 1]:
        raise ValueError(f"index {index} out of range for extent {values.shape[mode - 1]}")
    plane = np.abs(np.take(values, index - 1, axis=mode - 1))
    plane = plane.reshape(plane.shape[0], -1)
    observed = None if mask is None else np.take(mask, index - 1, axis=mode - 1).reshape(plane.shape)
    # CSV spells a row whose only cell is empty as "", since a blank line is no row
    missing = '""' if plane.shape[1] == 1 else ""
    return _format_grid(plane, ",", observed, missing)
