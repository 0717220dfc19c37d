"""File formats: structures, derived models, check reports.

All three formats are JSON with sorted keys and sorted set members, so a
value round-trips to byte-identical text.  Structure files list skew pairs
rather than incident ones because the structures of interest are
incidence-dense; every unordered pair not listed is incident, and
reflexive incidence is implicit.  Line references in reports are labels.

The skew pairs, the last and by far the largest member of structure and
model files, are written in bounded blocks without the JSON encoder.  The
reader recognises exactly the layout the writer produces and reads the
file in blocks, parsing those pairs straight into an int array; any other
file, however it is laid out, goes through ``json.loads``.  The format is
the same either way.
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


def _write(path: Union[str, Path], text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# The layout in which the writer puts the skew pairs, the last member of
# both file formats, and which _read_layout parses without the JSON decoder.
# No JSON string holds a raw newline, so _PAIRS_KEY cannot start inside one.
_PAIRS_KEY = ',\n  "skew_pairs": '
_PAIRS_OPEN, _PAIRS_END = "[\n", "\n  ]\n}"
_OPEN, _MID, _CLOSE, _JOIN = "    [\n      ", ",\n      ", "\n    ]", ",\n"
_PAIR_FORMAT = f"{_OPEN}%d{_MID}%d{_CLOSE}"
_SKELETON = (_OPEN + _MID + _CLOSE).encode()  # one pair with its two numbers removed
_SLOTS = np.array([len(_OPEN), len(_OPEN + _MID)])  # where the numbers sit in it
_STRIDE = len(_SKELETON) + len(_JOIN)
_MAX_DIGITS = 18  # every 18-digit index fits an int64
_BLOCK_CHARS = 1 << 20  # text per block, read or written
_JSON_SPACE = b" \t\n\r"


class _ReadPairs(np.ndarray):
    """(k, 2) int64 skew pairs whose every entry _read_layout has proved two indices."""


def _read_pairs(block: bytes) -> Optional[np.ndarray]:
    """The pairs of ``block`` as a (k, 2) array, if it is k >= 1 pairs in the layout.

    That is: every number one run of 1 to 18 digits with no leading zero;
    and, with the digits removed, the pairs' skeletons joined by _JOIN and
    nothing else, so the block is ASCII.
    """
    skeleton = block.translate(None, b"0123456789")
    k = (len(skeleton) + len(_JOIN)) // _STRIDE
    if not k or skeleton != _JOIN.encode().join([_SKELETON] * k):
        return None
    chars = np.frombuffer(block, np.uint8)
    is_digit = (chars >= ord("0")) & (chars <= ord("9"))
    edges = np.flatnonzero(np.diff(is_digit, prepend=False, append=False))
    first, width = edges[0::2], edges[1::2] - edges[0::2]
    # each digit run must fill one number's place in the skeleton
    places = first - (np.cumsum(width) - width)
    if not (
        np.array_equal(places, (np.arange(k)[:, None] * _STRIDE + _SLOTS).ravel())
        and (width <= _MAX_DIGITS).all()
        and not ((chars[first] == ord("0")) & (width > 1)).any()
    ):
        return None
    # only digits and the commas between numbers are left
    numbers = block.translate(None, b" \n[]")
    return np.fromstring(numbers, dtype=np.int64, sep=",").reshape(k, 2)


def _read_layout(f) -> Optional[dict]:
    """The object in the binary file ``f``, if in the writer's layout, with its
    skew pairs as _ReadPairs.

    The file must be a UTF-8 head, everything before the ``skew_pairs``
    member, that parses as a non-empty JSON object once closed, then that
    member as the writer lays it out, closing the object; JSON whitespace
    may follow.  Such a file is a UTF-8 JSON object, and the data holds
    what ``json.loads`` gives, the pairs as an array.  The file is read in
    blocks of about _BLOCK_CHARS bytes, the head first, then the pairs,
    each block's whole pairs parsed into the array, so the file is never
    held whole.  None for any other file.
    """
    key = (_PAIRS_KEY + _PAIRS_OPEN).encode()
    buf = bytearray()
    while (head := buf.find(key, max(0, len(buf) - _BLOCK_CHARS - len(key)))) < 0:
        block = f.read(_BLOCK_CHARS)
        if not block:
            return None
        buf += block
    try:
        data = json.loads(buf[:head].decode("utf-8") + "\n}")
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not data:  # "{" alone, which no comma may follow
        return None
    del buf[: head + len(key)]  # from the front of a bytearray, which copies nothing
    # Each pair takes at least _STRIDE + 2 bytes but the last, which has no
    # _JOIN, so this bounds the count; pages of the array never filled are
    # never touched.
    here = f.tell()
    out = np.empty(((f.seek(0, 2) - here + len(buf) + len(_JOIN)) // (_STRIDE + 2), 2), np.int64)
    f.seek(here)
    done = 0
    while True:
        block = f.read(_BLOCK_CHARS)
        buf += block
        if block:  # parse the whole pairs read so far
            cut = buf.rfind((_JOIN + _OPEN).encode())
            if cut <= 0:
                continue
        else:  # the last pairs, closed by _PAIRS_END and JSON whitespace alone
            cut = buf.rfind(_PAIRS_END.encode())
            if cut < 0 or buf[cut + len(_PAIRS_END) :].strip(_JSON_SPACE):
                return None
        pairs = _read_pairs(bytes(memoryview(buf)[:cut]))
        if pairs is None:
            return None
        out[done : done + len(pairs)] = pairs
        done += len(pairs)
        if not block:
            break
        del buf[: cut + len(_JOIN)]
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
    """The skew pairs of ``adj`` in _PAIR_FORMAT, in order, about _BLOCK_CHARS per block."""
    n = len(adj)
    rows = max(1, _BLOCK_CHARS // _STRIDE // max(n, 1))
    for r in range(0, n, rows):
        i, j = np.nonzero(np.triu(~adj[r : r + rows], r + 1))
        if i.size:
            numbers = np.column_stack((i + r, j)).ravel().tolist()
            yield _JOIN.join([_PAIR_FORMAT] * i.size) % tuple(numbers)


def _save_with_skew_pairs(path: Union[str, Path], fields: dict, s: IncidenceStructure) -> None:
    """Write canonical_json of ``fields`` plus the skew pairs of ``s``.

    The bytes equal canonical_json(fields | {"skew_pairs": ...}), but the
    pairs, by far the largest member, are formatted and written in blocks
    straight from the adjacency instead of by the pure-Python encoder that
    indent=2 selects.  Every other member is encoded by _dumps and indented
    one level; a JSON text holds no raw newline inside a string, so
    indenting after each newline is exact.  Every other key of both
    formats sorts before "skew_pairs".
    """
    members = ",\n".join(
        f"  {_dumps(key)}: " + _dumps(fields[key]).replace("\n", "\n  ") for key in sorted(fields)
    )
    blocks = _skew_pair_blocks(s.adjacency)
    first = next(blocks, None)
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n" + members)
        if first is None:
            f.write(_PAIRS_KEY + "[]\n}\n")
            return
        f.write(_PAIRS_KEY + _PAIRS_OPEN + first)
        for block in blocks:
            f.write(_JOIN + block)
        f.write(_PAIRS_END + "\n")


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
    if not isinstance(raw_pairs, _ReadPairs):
        if not isinstance(raw_pairs, list):
            raise ParseError(f"{source}: 'skew_pairs' must be a list")
        for entry in raw_pairs:
            if (
                not (isinstance(entry, list) and len(entry) == 2)
                or not (isinstance(entry[0], int) and isinstance(entry[1], int))
                or isinstance(entry[0], bool)
                or isinstance(entry[1], bool)
            ):
                raise ParseError(f"{source}: skew pair {entry!r} must be two indices")
    try:
        # from_skew_pairs checks range and self-skew once, over the whole pair array.
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
    _write(path, canonical_json(reports_to_dict(reports)))


def pg3_meta_to_dict(meta) -> dict:
    return {
        "format": PG3_META_FORMAT,
        "q": meta.q,
        "line_reps": [[list(row) for row in mat] for mat in meta.line_reps],
        "point_reps": [list(v) for v in meta.point_reps],
        "plane_reps": [[list(row) for row in mat] for mat in meta.plane_reps],
    }


def save_pg3_meta(meta, path: Union[str, Path]) -> None:
    _write(path, canonical_json(pg3_meta_to_dict(meta)))
