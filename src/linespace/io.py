"""File formats: structures, derived models, check reports.

All three formats are JSON with sorted keys and sorted set members, so a
value round-trips to byte-identical text.  Structure files list skew pairs
rather than incident ones because the structures of interest are
incidence-dense; every unordered pair not listed is incident, and
reflexive incidence is implicit.  Line references in reports are labels.

The skew pairs, by far the largest member of structure and model files,
and the PG(3,q) sidecar's int arrays are written by one array renderer, not
the JSON encoder: each number's digits come from a table, each row fills a
fixed record.  The reader parses a block of pairs into an int array and
keeps it only if rendering it gives the block back byte for byte; any other
file goes through ``json.loads``.  The format is the same either way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .core import IncidenceStructure, StructureError

if TYPE_CHECKING:
    from .labeling import GeometryModel

STRUCTURE_FORMAT = "linespace-v1"
MODEL_FORMAT = "linespace-model-v1"
REPORT_FORMAT = "linespace-report-v1"
PG3_META_FORMAT = "linespace-pg3-meta-v1"


class ParseError(StructureError):
    """Malformed or inconsistent input file."""


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


def canonical_json(obj) -> str:
    return _dumps(obj) + "\n"


# The skew pairs, the last member of both file formats: _PAIRS_KEY, each pair
# rendered between _PAIR_SEPS (the first without its comma), _PAIRS_END.  No
# JSON string holds a raw newline, so _PAIRS_KEY cannot start inside one.
_PAIRS_KEY, _PAIRS_END = b',\n  "skew_pairs": [', b"\n  ]\n}"
_PAIR_SEPS = (b",\n    [\n      ", b",\n      ", b"\n    ]")
_STRIDE = len(b"".join(_PAIR_SEPS))  # a pair's bytes less its two numbers
_BLOCK_CHARS = 1 << 20  # text per block, read or written
_JSON_SPACE = b" \t\n\r"
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")


def _digits(n: int) -> np.ndarray:
    """Row v < n: the digits of v, right-aligned and NUL-padded to one width."""
    places = 10 ** np.arange(len(str(max(n - 1, 0))))[::-1]
    v = np.arange(n)[:, None]
    return np.where((v >= places) | (places == 1), v // places % 10 + ord("0"), 0).astype(np.uint8)


def _render(rows: np.ndarray, digits: np.ndarray, seps) -> bytes:
    """Each row of the (k, m) index array ``rows`` as seps[0], its first number's
    digits, seps[1], ..., seps[m]: a record per row, a gather per column."""
    width = digits.shape[1]
    out = np.tile(np.frombuffer(bytes(width).join(seps), np.uint8), (len(rows), 1))
    for column, at in enumerate(np.cumsum([len(sep) + width for sep in seps[:-1]]) - width):
        out[:, at : at + width] = digits.take(rows[:, column], axis=0)
    return out.tobytes().replace(b"\0", b"")


def _int_array(values: np.ndarray) -> str:
    """_dumps(values.tolist()) as a member's value, for a non-empty array of
    naturals: its items rendered between the pieces of _dumps of one item."""
    template = _dumps(np.zeros(values.shape[1:], int).tolist()).replace("\n", "\n    ")
    seps = [sep.encode() for sep in (",\n    " + template).split("0")]
    text = _render(values.reshape(len(values), -1), _digits(int(values.max()) + 1), seps)
    return "[" + text[1:].decode() + "\n  ]"


class _ReadPairs(np.ndarray):
    """(k, 2) int64 skew pairs, each entry proved by _read_layout an index below the line count."""


def _read_pairs(block: bytes, digits: np.ndarray) -> Optional[np.ndarray]:
    """The (k, 2) pairs of ``block``, k >= 1, if its numbers are indices below
    len(digits) and rendering them gives the block back byte for byte."""
    numbers = block.translate(_COMMA_TO_SPACE, b" \n[]")
    if numbers.translate(None, b"0123456789 "):
        return None
    values = np.fromstring(numbers, dtype=np.int64, sep=" ")
    if not len(values) or len(values) % 2 or values.max() >= len(digits):
        return None
    pairs = values.reshape(-1, 2)
    return pairs if _render(pairs, digits, _PAIR_SEPS) == block else None


def _read_layout(f) -> Optional[dict]:
    """The object in the binary file ``f``, if in the writer's layout, with its
    skew pairs as _ReadPairs; else None.

    The head, everything before ``skew_pairs``, must be UTF-8 and, once
    closed, a JSON object with a ``lines`` list; the pairs, the last
    member, and JSON whitespace follow.  The data is then what
    ``json.loads`` gives.  Blocks of about _BLOCK_CHARS bytes are read
    and parsed in turn, so the file is never held whole.
    """
    buf = bytearray()
    while (head := buf.find(_PAIRS_KEY, max(0, len(buf) - _BLOCK_CHARS - len(_PAIRS_KEY)))) < 0:
        block = f.read(_BLOCK_CHARS)
        if not block:
            return None
        buf += block
    try:
        data = json.loads(buf[:head].decode("utf-8") + "\n}")
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(data.get("lines"), list):
        return None
    digits = _digits(len(data["lines"]))
    buf[: head + len(_PAIRS_KEY)] = b","  # so the first pair reads as _render lays it out
    # Each pair takes at least _STRIDE + 2 bytes, so this bounds the count;
    # pages of the array never filled are never touched.
    here = f.tell()
    out = np.empty(((f.seek(0, 2) - here + len(buf)) // (_STRIDE + 2), 2), np.int64)
    f.seek(here)
    done = 0
    while True:
        block = f.read(_BLOCK_CHARS)
        buf += block
        if block:  # parse the whole pairs read so far
            cut = buf.rfind(_PAIR_SEPS[0])
            if cut <= 0:
                continue
        else:  # the last pairs, closed by _PAIRS_END and JSON whitespace alone
            cut = buf.rfind(_PAIRS_END)
            if cut < 0 or buf[cut + len(_PAIRS_END) :].strip(_JSON_SPACE):
                return None
        pairs = _read_pairs(bytes(memoryview(buf)[:cut]), digits)
        if pairs is None:
            return None
        out[done : done + len(pairs)] = pairs
        done += len(pairs)
        if not block:
            break
        del buf[:cut]  # from the front of a bytearray, which copies nothing
    data["skew_pairs"] = out[:done].view(_ReadPairs)
    return data


def _load_json(path: Union[str, Path]) -> dict:
    with open(path, "rb") as f:
        data = _read_layout(f)
        if data is not None:
            return data
        f.seek(0)
        raw = f.read()
    try:
        # decoded as Path.read_text decodes, newlines included
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from None
    del raw
    if not text.strip():
        raise ParseError(f"{path}: file is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _structure_fields(s: IncidenceStructure) -> dict:
    return {"format": STRUCTURE_FORMAT, "name": s.name, "lines": list(s.labels)}


def structure_to_dict(s: IncidenceStructure) -> dict:
    data = _structure_fields(s)
    data["skew_pairs"] = [list(p) for p in s.skew_pairs()]
    return data


def _skew_pair_blocks(adj: np.ndarray):
    """The skew pairs of ``adj`` rendered in order, about _BLOCK_CHARS per block."""
    n = len(adj)
    digits = _digits(n)
    rows = max(1, _BLOCK_CHARS // _STRIDE // max(n, 1))
    for r in range(0, n, rows):
        i, j = np.nonzero(np.triu(~adj[r : r + rows], r + 1))
        if i.size:
            yield _render(np.column_stack((i + r, j)), digits, _PAIR_SEPS)


def _save_with_skew_pairs(path: Union[str, Path], fields: dict, s: IncidenceStructure) -> None:
    """Write canonical_json of ``fields`` plus the skew pairs of ``s``.

    The pairs, rendered in blocks straight from the adjacency, follow the
    other members, whose keys all sort before "skew_pairs": each encoded by
    _dumps and indented one level, exact as no JSON string holds a newline.
    """
    members = ",\n".join(
        f"  {_dumps(key)}: " + _dumps(fields[key]).replace("\n", "\n  ") for key in sorted(fields)
    )
    blocks = _skew_pair_blocks(s.adjacency)
    first = next(blocks, None)
    with open(path, "wb") as f:
        f.write(("{\n" + members).encode("utf-8") + _PAIRS_KEY)
        if first is None:
            f.write(b"]\n}\n")
            return
        f.write(first[1:])  # no comma before the first pair
        f.writelines(blocks)
        f.write(_PAIRS_END + b"\n")


def structure_from_dict(data: dict, source: str = "<dict>") -> IncidenceStructure:
    if data.get("format") != STRUCTURE_FORMAT:
        raise ParseError(
            f"{source}: expected format {STRUCTURE_FORMAT!r}, got {data.get('format')!r}"
        )
    lines = data.get("lines")
    if not isinstance(lines, list) or not all(isinstance(x, str) for x in lines):
        raise ParseError(f"{source}: 'lines' must be a list of strings")
    if len(set(lines)) != len(lines):
        raise ParseError(f"{source}: line labels must be unique")
    raw_pairs = data.get("skew_pairs", [])
    if not isinstance(raw_pairs, (list, _ReadPairs)):
        raise ParseError(f"{source}: 'skew_pairs' must be a list")
    try:
        # from_skew_pairs checks each entry, then range and self-skew over the whole pair array.
        s = IncidenceStructure.from_skew_pairs(
            len(lines), raw_pairs, labels=lines, name=str(data.get("name", ""))
        )
    except StructureError as e:
        raise ParseError(f"{source}: {e}") from None
    return s


def save_structure(s: IncidenceStructure, path: Union[str, Path]) -> None:
    _save_with_skew_pairs(path, _structure_fields(s), s)


def load_structure(path: Union[str, Path]) -> IncidenceStructure:
    return structure_from_dict(_load_json(path), source=str(path))


def _model_fields(m: GeometryModel) -> dict:
    data = _structure_fields(m.structure)
    data["format"] = MODEL_FORMAT
    data["points"] = [list(e) for e in m.points]
    data["planes"] = [list(e) for e in m.planes]
    if m.seed is None:
        data["seed"] = None
    else:
        a, b, k = m.seed
        data["seed"] = {"pair": [a, b], "class_of": k}
    return data


def model_to_dict(m: GeometryModel) -> dict:
    data = _model_fields(m)
    data["skew_pairs"] = [list(p) for p in m.structure.skew_pairs()]
    return data


def model_from_dict(data: dict, source: str = "<dict>") -> GeometryModel:
    from .labeling import GeometryModel

    if data.get("format") != MODEL_FORMAT:
        raise ParseError(
            f"{source}: expected format {MODEL_FORMAT!r}, got {data.get('format')!r}"
        )
    inner = dict(data)
    inner["format"] = STRUCTURE_FORMAT
    s = structure_from_dict(inner, source=source)
    n = s.line_count

    def family(key):
        raw = data.get(key)
        if not isinstance(raw, list):
            raise ParseError(f"{source}: '{key}' must be a list of line index lists")
        out = []
        for element in raw:
            if not isinstance(element, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n
                for v in element
            ):
                raise ParseError(f"{source}: bad element {element!r} in '{key}'")
            if len(set(element)) != len(element):
                raise ParseError(f"{source}: element {element!r} in '{key}' repeats a line")
            out.append(tuple(sorted(element)))
        return tuple(sorted(out))

    points = family("points")
    planes = family("planes")
    raw_seed = data.get("seed")
    seed = None
    if raw_seed is not None:
        try:
            a, b = raw_seed["pair"]
            k = raw_seed["class_of"]
        except (TypeError, KeyError, ValueError):  # ValueError: a pair of the wrong length
            raise ParseError(f"{source}: bad seed {raw_seed!r}") from None
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (a, b, k)):
            raise ParseError(f"{source}: bad seed {raw_seed!r}")
        if not (0 <= a < n and 0 <= b < n and k in (0, 1)):
            raise ParseError(f"{source}: seed {raw_seed!r} out of range")
        if a == b:
            raise ParseError(f"{source}: seed {raw_seed!r} needs two distinct lines")
        seed = (min(a, b), max(a, b), k)
    return GeometryModel(structure=s, points=points, planes=planes, seed=seed)


def save_model(m: GeometryModel, path: Union[str, Path]) -> None:
    _save_with_skew_pairs(path, _model_fields(m), m.structure)


def load_model(path: Union[str, Path]) -> GeometryModel:
    return model_from_dict(_load_json(path), source=str(path))


def reports_to_dict(reports) -> dict:
    return {
        "format": REPORT_FORMAT,
        "reports": [r.to_dict() for r in reports],
    }


def save_reports(reports, path: Union[str, Path]) -> None:
    Path(path).write_text(canonical_json(reports_to_dict(reports)), encoding="utf-8")


def pg3_meta_to_dict(meta) -> dict:
    return {
        "format": PG3_META_FORMAT,
        "q": meta.q,
        "line_reps": [[list(row) for row in mat] for mat in meta.line_reps],
        "point_reps": [list(v) for v in meta.point_reps],
        "plane_reps": [[list(row) for row in mat] for mat in meta.plane_reps],
    }


def save_pg3_meta(meta, path: Union[str, Path]) -> None:
    """Write canonical_json(pg3_meta_to_dict(meta)), its int arrays by _int_array."""
    members = (
        f"  {_dumps(key)}: " + (_int_array(np.array(value)) if isinstance(value, list) else _dumps(value))
        for key, value in sorted(pg3_meta_to_dict(meta).items())
    )
    Path(path).write_text("{\n" + ",\n".join(members) + "\n}\n", encoding="utf-8")
