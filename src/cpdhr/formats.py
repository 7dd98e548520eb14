"""Text file formats: tensors, signals, scene configs, reports.

Everything is UTF-8 text with fixed 17-significant-digit number rendering,
so identical inputs always produce byte-identical files and every float
survives a write/read roundtrip bitwise. Tensor payloads are stored
first-index-fastest. Grid and time indices are 1-based inside files and
converted at this boundary.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import IncompleteTensor, element_count
from .scene import DoaScene, MaskPattern, SourceSet, SourceSpec
from .solvers import ALGORITHMS, MISSING_STRATEGIES

_SENTINEL = "* *"


def _fmt(x):
    if not math.isfinite(x):
        raise ValueError("only finite values can be serialized")
    return format(x, "#.17g")


# ---------------------------------------------------------------------------
# tensor files


def serialize_tensor(t):
    """Text form of a dense or incomplete tensor.

    Header `tns <order> <d1> ... <dN>`, then one `<re> <im>` line per entry
    in first-index-fastest order; a masked entry becomes the line `* *`.
    """
    if isinstance(t, IncompleteTensor):
        values, mask = t.values, t.mask
    else:
        values = np.asarray(t, dtype=np.complex128)
        mask = None
    lines = ["tns " + " ".join(str(d) for d in (values.ndim, *values.shape))]
    flat = values.ravel(order="F")
    flat_mask = mask.ravel(order="F") if mask is not None else None
    for pos, val in enumerate(flat):
        if flat_mask is not None and not flat_mask[pos]:
            lines.append(_SENTINEL)
        else:
            lines.append(f"{_fmt(val.real)} {_fmt(val.imag)}")
    return "\n".join(lines) + "\n"


def parse_tensor(text):
    """Inverse of serialize_tensor. Any `* *` line makes the result an
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
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count:
        raise ValueError(f"expected {count} entry lines, found {len(body)}")
    values = np.zeros(count, dtype=np.complex128)
    mask = np.ones(count, dtype=bool)
    for pos, ln in enumerate(body):
        if ln.strip() == _SENTINEL:
            mask[pos] = False
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"entry line {pos + 2} is not '<re> <im>': {ln!r}")
        try:
            values[pos] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"non-numeric entry on line {pos + 2}: {ln!r}") from None
    values = values.reshape(shape, order="F")
    if mask.all():
        return values
    return IncompleteTensor(values, mask.reshape(shape, order="F"))


def save_tensor(t, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_tensor(t))


def load_tensor(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh.read())


# ---------------------------------------------------------------------------
# signal CSVs


def serialize_signals(sources):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sources.labels)
    for row in sources.signals:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def parse_signals(text):
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise ValueError("signal CSV needs a header row and at least one data row")
    labels = [c.strip() for c in rows[0]]
    width = len(labels)
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"ragged row on line {lineno}: {len(row)} cells, expected {width}")
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise ValueError(f"non-numeric cell on line {lineno}") from None
    return SourceSet(np.array(data), labels)


def save_signals(sources, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_signals(sources))


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
    missing_data_strategy: str = "expectation_imputation"

    def __post_init__(self):
        if self.snr_db is not None:
            self.snr_db = float(self.snr_db)
        self.seed = int(self.seed)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.missing_data_strategy not in MISSING_STRATEGIES:
            raise ValueError(
                f"missing_data_strategy must be one of {MISSING_STRATEGIES}, "
                f"got {self.missing_data_strategy!r}"
            )
        if not isinstance(self.signals, str) or not self.signals:
            raise ValueError("signals must be 'synthetic' or a CSV path")


_REQUIRED_KEYS = {
    "grid_m1", "grid_m2", "time_len", "snr_db", "seed", "rank", "algorithm",
    "sources", "signals",
}
_OPTIONAL_KEYS = {"masks", "missing_data_strategy"}
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


def parse_config(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(doc, _REQUIRED_KEYS, _OPTIONAL_KEYS, "config")
    if not isinstance(doc["sources"], list) or not doc["sources"]:
        raise ValueError("config: sources must be a non-empty list")
    specs = []
    for k, src in enumerate(doc["sources"], start=1):
        _check_keys(src, _SOURCE_KEYS, _SOURCE_OPTIONAL, f"sources[{k}]")
        specs.append(SourceSpec(
            azimuth_deg=float(src["azimuth_deg"]),
            elevation_deg=float(src["elevation_deg"]),
            attenuation=float(src.get("attenuation", 1.0)),
        ))
    scene = DoaScene(
        sources=specs,
        grid_m1=int(doc["grid_m1"]),
        grid_m2=int(doc["grid_m2"]),
        time_len=int(doc["time_len"]),
    )
    masks = []
    for k, pat in enumerate(doc.get("masks", []), start=1):
        _check_keys(pat, _MASK_KEYS, set(), f"masks[{k}]")
        sensor = pat["sensor"]
        if (not isinstance(sensor, (list, tuple)) or len(sensor) != 2
                or not all(isinstance(c, int) for c in sensor)):
            raise ValueError(f"masks[{k}]: sensor must be a pair of integers")
        i, j = sensor
        if not (1 <= i <= scene.grid_m1 and 1 <= j <= scene.grid_m2):
            raise ValueError(
                f"masks[{k}]: sensor ({i}, {j}) outside the "
                f"{scene.grid_m1}x{scene.grid_m2} grid (1-based)"
            )
        masks.append(MaskPattern(kind=pat["kind"], sensor=(i - 1, j - 1)))
    return SceneConfig(
        scene=scene,
        snr_db=doc["snr_db"],
        seed=doc["seed"],
        rank=doc["rank"],
        algorithm=doc["algorithm"],
        signals=doc["signals"],
        masks=masks,
        missing_data_strategy=doc.get("missing_data_strategy", "expectation_imputation"),
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_digest(path):
    """sha256 of the config file bytes, for report provenance."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# reports and slice exports


def canonical_json(doc):
    """Deterministic JSON rendering: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save_report(doc, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(doc))


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def slice_csv(t, mode, index):
    """One tensor slice as a CSV of entry magnitudes.

    mode and index are 0-based here; masked entries become empty cells.
    The two remaining modes keep their original relative order.
    """
    if isinstance(t, IncompleteTensor):
        values, mask = t.values, t.mask
    else:
        values, mask = np.asarray(t, dtype=np.complex128), None
    if not 0 <= mode < values.ndim:
        raise ValueError(f"mode {mode} out of range for order-{values.ndim} tensor")
    if not 0 <= index < values.shape[mode]:
        raise ValueError(f"index {index} out of range for extent {values.shape[mode]}")
    plane = np.abs(np.take(values, index, axis=mode))
    plane_mask = np.take(mask, index, axis=mode) if mask is not None else None
    if plane.ndim != 2:
        plane = plane.reshape(plane.shape[0], -1)
        if plane_mask is not None:
            plane_mask = plane_mask.reshape(plane.shape)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(plane.shape[0]):
        row = []
        for j in range(plane.shape[1]):
            if plane_mask is not None and not plane_mask[i, j]:
                row.append("")
            else:
                row.append(_fmt(plane[i, j]))
        writer.writerow(row)
    return buf.getvalue()
