"""File formats: structures, derived models, check reports.

All three formats are JSON with sorted keys and sorted set members, so a
value round-trips to byte-identical text.  Structure files list skew pairs
rather than incident ones because the structures of interest are
incidence-dense; every unordered pair not listed is incident, and
reflexive incidence is implicit.  Line references in reports are labels.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .core import IncidenceStructure, StructureError
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


def _load_json(path: Union[str, Path]) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from None
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


def _skew_pairs_json(s: IncidenceStructure) -> str:
    """The skew pairs as canonical_json lays them out one level deep."""
    rows, cols = np.nonzero(np.triu(~s.adjacency, 1))
    if not rows.size:
        return "[]"
    pairs = zip(rows.tolist(), cols.tolist())
    return "[\n" + ",\n".join([f"    [\n      {i},\n      {j}\n    ]" for i, j in pairs]) + "\n  ]"


def _with_skew_pairs_json(fields: dict, s: IncidenceStructure) -> str:
    """canonical_json of ``fields`` plus the skew pairs of ``s``.

    Equal to canonical_json(fields | {"skew_pairs": ...}), but the pairs,
    by far the largest member, are formatted with one join instead of the
    pure-Python encoder that indent=2 selects.  Every other member is
    encoded by _dumps and indented one level; a JSON text holds no raw
    newline inside a string, so indenting after each newline is exact.
    """
    members = {key: _dumps(value).replace("\n", "\n  ") for key, value in fields.items()}
    members["skew_pairs"] = _skew_pairs_json(s)
    body = ",\n".join(f"  {_dumps(key)}: {members[key]}" for key in sorted(members))
    return "{\n" + body + "\n}\n"


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
    _write(path, _with_skew_pairs_json(_structure_fields(s), s))


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
        except (TypeError, KeyError):
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
    _write(path, _with_skew_pairs_json(_model_fields(m), m.structure))


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
