"""Serialization: canonical byte-identical files, validation, label references."""

import json
import re
from io import BytesIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linespace import (
    NEGATIVE_KINDS,
    GeometryModel,
    IncidenceStructure,
    check_all,
    coordinate_labels,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
    load_model,
    load_structure,
    save_model,
    save_reports,
    save_structure,
    structure_to_dict,
)
from linespace import io
from linespace.io import (
    ParseError,
    canonical_json,
    model_from_dict,
    model_to_dict,
    pg3_meta_to_dict,
    structure_from_dict,
)

from conftest import PEAK_RSS, run_python

# Structures whose files must be exactly canonical_json(structure_to_dict(s)).
WRITER_CASES = {
    "tetrahedron": gen_tetrahedron,
    "pg3_2": lambda: gen_pg3(2)[0],
    "pg3_3": lambda: gen_pg3(3)[0],
    "pg3_5": lambda: gen_pg3(5)[0],
    **{kind: (lambda kind=kind: gen_negative(kind)) for kind in NEGATIVE_KINDS},
    "no_lines": lambda: IncidenceStructure.from_skew_pairs(0, []),
    "one_line": lambda: IncidenceStructure.from_skew_pairs(1, [], labels=["only"]),
}

# Quotes, backslashes, control characters and non-ASCII, all of which JSON escapes
# or (with ensure_ascii=False) writes through as UTF-8.
awkward_text = st.text(alphabet='ab"\\/\n\t\x01éΩ☃𝔽', max_size=6)


@st.composite
def awkward_structures(draw):
    n = draw(st.integers(0, 9))
    labels = draw(st.lists(awkward_text, min_size=n, max_size=n, unique=True))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    skew = draw(st.lists(st.sampled_from(all_pairs), max_size=20)) if all_pairs else []
    return IncidenceStructure.from_skew_pairs(n, skew, labels=labels, name=draw(awkward_text))


class TestStructureRoundTrip:
    def test_tetra_roundtrip(self, tetra, tmp_path):
        path = tmp_path / "t.json"
        save_structure(tetra, path)
        loaded = load_structure(path)
        assert loaded == tetra
        assert loaded.name == "tetrahedron"

    def test_byte_identical_rewrite(self, tetra, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_structure(tetra, p1)
        save_structure(load_structure(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pg2_roundtrip(self, pg2, tmp_path):
        path = tmp_path / "pg2.json"
        save_structure(pg2, path)
        assert load_structure(path) == pg2

    def test_duplicate_listing_accepted(self):
        data = {
            "format": "linespace-v1",
            "name": "x",
            "lines": ["p", "q", "r"],
            "skew_pairs": [[0, 1], [1, 0], [0, 1]],
        }
        s = structure_from_dict(data)
        assert s.skew_pairs() == [(0, 1)]


class TestStructureValidation:
    def base(self):
        return {
            "format": "linespace-v1",
            "name": "x",
            "lines": ["p", "q"],
            "skew_pairs": [],
        }

    def test_wrong_format(self):
        data = self.base()
        data["format"] = "nonsense"
        with pytest.raises(ParseError, match="format"):
            structure_from_dict(data)

    def test_reflexive_skew_rejected(self):
        data = self.base()
        data["skew_pairs"] = [[1, 1]]
        with pytest.raises(ParseError, match="itself"):
            structure_from_dict(data)

    def test_out_of_range_rejected(self):
        data = self.base()
        data["skew_pairs"] = [[0, 5]]
        with pytest.raises(ParseError, match="range"):
            structure_from_dict(data)

    def test_duplicate_labels_rejected(self):
        data = self.base()
        data["lines"] = ["p", "p"]
        with pytest.raises(ParseError, match="unique"):
            structure_from_dict(data)

    def test_array_of_pairs_rejected(self):
        # only the file reader's own arrays skip the per-entry check
        data = self.base()
        data["skew_pairs"] = np.array([[0.5, 1.0]])
        with pytest.raises(ParseError, match="must be a list"):
            structure_from_dict(data)

    def test_bad_pair_shape_rejected(self):
        data = self.base()
        data["skew_pairs"] = [[0]]
        with pytest.raises(ParseError, match="two indices"):
            structure_from_dict(data)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[0, 1], [1, 0], [2, 1], [0, 7]], r"skew pair \(0, 7\) out of range"),
            ([[0, 1], [2, 2], [0, 9]], "line 2 cannot be skew to itself"),
            ([[0, 1], [1, 2], [True, 0]], r"skew pair \[True, 0\] must be two indices"),
            ([[0, 1], [1, 2, 0]], "two indices"),
            ([[0, 1], [0, 2**70]], "out of range"),
        ],
    )
    def test_single_fault_after_good_pairs(self, pairs, message):
        data = self.base()
        data["lines"] = ["p", "q", "r"]
        data["skew_pairs"] = pairs
        with pytest.raises(ParseError, match=message):
            structure_from_dict(data)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_structure(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="JSON"):
            load_structure(path)

    def test_capacity_override(self, tmp_path, monkeypatch):
        data = {
            "format": "linespace-v1",
            "name": "big",
            "lines": [f"l{i}" for i in range(10)],
            "skew_pairs": [],
        }
        path = tmp_path / "big.json"
        path.write_text(canonical_json(data))
        monkeypatch.setenv("LINESPACE_MAX_LINES", "5")
        with pytest.raises(ParseError, match="cap"):
            load_structure(path)
        monkeypatch.setenv("LINESPACE_MAX_LINES", "4096")
        assert load_structure(path).line_count == 10


class TestWriterBytes:
    """save_structure and save_model write exactly what canonical_json writes.

    Both format their skew pairs without the JSON encoder; canonical_json of
    the *_to_dict form is the oracle for every byte.
    """

    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_structure_file_is_canonical_json(self, name, tmp_path):
        s = WRITER_CASES[name]()
        path = tmp_path / "s.json"
        save_structure(s, path)
        assert path.read_bytes() == canonical_json(structure_to_dict(s)).encode("utf-8")

    @pytest.mark.parametrize("name", ["tetrahedron", "pg3_2", "pg3_3"])
    @pytest.mark.parametrize("seed", [None, (0, 1, 1)])
    def test_model_file_is_canonical_json(self, name, seed, tmp_path):
        m = coordinate_labels(WRITER_CASES[name](), seed)
        path = tmp_path / "m.json"
        save_model(m, path)
        assert path.read_bytes() == canonical_json(model_to_dict(m)).encode("utf-8")

    @pytest.mark.parametrize("block", [1, 4096])
    def test_blocks_join_exactly(self, block, pg3, tmp_path, monkeypatch):
        # one block per line or per pair, and blocks of a few rows
        monkeypatch.setattr(io, "_BLOCK_CHARS", block)
        path = tmp_path / "s.json"
        save_structure(pg3, path)
        assert path.read_bytes() == canonical_json(structure_to_dict(pg3)).encode("utf-8")
        assert load_structure(path) == pg3

    @settings(max_examples=150, deadline=None)
    @given(s=awkward_structures(), data=st.data())
    def test_awkward_names_and_labels(self, s, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("awkward") / "s.json"
        save_structure(s, path)
        assert path.read_bytes() == canonical_json(structure_to_dict(s)).encode("utf-8")
        assert load_structure(path) == s
        n = s.line_count
        element = st.lists(st.integers(0, max(n - 1, 0)), max_size=n, unique=True).map(
            lambda e: tuple(sorted(e))
        )
        families = st.lists(element, max_size=4).map(lambda f: tuple(sorted(f)))
        seed = st.none()
        if n >= 2:
            seed |= st.tuples(st.just(0), st.integers(1, n - 1), st.integers(0, 1))
        m = GeometryModel(s, data.draw(families), data.draw(families), data.draw(seed))
        save_model(m, path)
        assert path.read_bytes() == canonical_json(model_to_dict(m)).encode("utf-8")


@st.composite
def sparse_structures(draw):
    """Up to 1,200 lines and a few skew pairs, so that indices have 1 to 4 digits."""
    n = draw(st.integers(2, 1200))
    line = st.integers(0, n - 1)
    pairs = st.tuples(line, line).filter(lambda p: p[0] != p[1])
    return IncidenceStructure.from_skew_pairs(n, draw(st.lists(pairs, min_size=1, max_size=30)))


def both_readers(text, from_dict):
    """The value the layout reader gives for ``text`` and the one ``json.loads`` gives."""
    fast = io._read_layout(BytesIO(text.encode("utf-8")))
    return from_dict(fast) if fast is not None else None, from_dict(json.loads(text))


def outcome(load, path):
    """What ``load`` gives for ``path``: the value, its name, or the ParseError text."""
    try:
        value = load(path)
    except ParseError as e:
        return f"ParseError: {e}"
    return value, getattr(value, "name", None)


def edit(old, new):
    return lambda text: text.replace(old, new, 1)


# Pairs (0, 11), (3, 10), (4, 5) of twelve lines, in the writer's layout.
LAYOUT_BASE = IncidenceStructure.from_skew_pairs(12, [(0, 11), (3, 10), (4, 5)], name="x")
ONE_PAIR = "    [\n      4,\n      5\n    ]"

# Edits of LAYOUT_BASE's file that the layout reader must hand to json.loads.
FALLBACK_EDITS = {
    "leading_zero": edit("      11\n", "      011\n"),
    "minus_zero": edit("      0,\n", "      -0,\n"),
    "negative_index": edit("      4,\n", "      -4,\n"),
    "float": edit("      5\n", "      5.0\n"),
    "exponent": edit("      5\n", "      1e3\n"),
    "bool": edit("      5\n", "      true\n"),
    "nineteen_digits": edit("      5\n", "      1000000000000000005\n"),
    "empty_slot": edit("      5\n", "      \n"),
    "three_indices": edit("      5\n", "      5,\n      6\n"),
    "minus_in_indent": edit("      4,\n", "     -4,\n"),
    "digit_moved_into_indent": edit("      5\n    ]", "      \n  5  ]"),
    "digit_before_bracket": edit("    [\n      4,", "  4  [\n      ,"),
    "brace_for_bracket": edit("    [\n      4,", "    {\n      4,"),
    "non_ascii_digit": edit("      5\n", "      \u0665\n"),
    "non_ascii_space": edit("      5\n", "      5\u00a0\n"),
    "reordered_keys": lambda text: json.dumps(
        {"skew_pairs": [[0, 11], [3, 10], [4, 5]], **json.loads(text)}, indent=2
    ),
    "compact": lambda text: json.dumps(json.loads(text)),
    "duplicate_key_after": lambda text: text[:-3] + ',\n  "skew_pairs": []\n}\n',
    "empty_block": lambda text: text[: text.index("[\n    [")] + "[]\n}\n",
    "empty_head": lambda text: '{,\n  "skew_pairs": [\n' + ONE_PAIR + "\n  ]\n}\n",
    "bad_head": edit('"name": "x"', '"name": x'),
    "trailing_junk": lambda text: text + "x",
    "block_left_open": lambda text: text.replace("\n  ]\n}", "\n  \n}"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    # what the layout allows, but not an index below the line count, 12
    "index_equal_to_line_count": edit("      11\n", "      12\n"),
    "lines_not_a_list": lambda text: re.sub(r'"lines": \[[^\]]*\]', '"lines": "twelve"', text, count=1),
}

# Edits that keep the writer's layout, which the layout reader must read.
LAYOUT_EDITS = {
    "canonical": lambda text: text,
    "no_trailing_newline": lambda text: text[:-1],
    "trailing_space": lambda text: text + " \t\r\n",
    "duplicate_key_before": edit("{\n", '{\n  "skew_pairs": [],\n'),
    "json_dumps_indent_2": lambda text: json.dumps(json.loads(text), indent=2, sort_keys=True),
}


class TestLayoutReader:
    """The reader of the writer's layout gives what json.loads gives, or hands over to it."""

    @pytest.mark.parametrize("name", sorted(FALLBACK_EDITS) + sorted(LAYOUT_EDITS))
    def test_same_outcome_as_json_loads(self, name, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        save_structure(LAYOUT_BASE, path)
        text = {**FALLBACK_EDITS, **LAYOUT_EDITS}[name](path.read_text(encoding="utf-8"))
        path.write_text(text, encoding="utf-8")
        assert (io._read_layout(BytesIO(path.read_bytes())) is None) == (name in FALLBACK_EDITS)
        got = outcome(load_structure, path)
        monkeypatch.setattr(io, "_read_layout", lambda raw: None)
        assert got == outcome(load_structure, path)

    def test_file_is_read_in_blocks(self, pg3, tmp_path, monkeypatch):
        sizes = []

        class Reader(BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        monkeypatch.setattr(io, "_BLOCK_CHARS", 4096)
        save_structure(pg3, tmp_path / "s.json")
        data = io._read_layout(Reader((tmp_path / "s.json").read_bytes()))
        assert structure_from_dict(data) == pg3
        assert len(sizes) > 2 and set(sizes) == {4096}

    @pytest.mark.parametrize(
        "content",
        [
            b'{\r\n  "format": "linespace-v1",\r\n  x\r\n}\r\n',
            b'{\r  "format": "linespace-v1",\r  x\r}\r',
            b'{"name": "\xff"}',
            b"\xef\xbb\xbf{}",
        ],
    )
    def test_errors_as_read_text_gives_them(self, content, tmp_path):
        # the bytes are decoded as Path.read_text decodes them, newlines included
        path = tmp_path / "s.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as expected:
            json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(ParseError) as got:
            load_structure(path)
        assert str(got.value).endswith(f" ({expected.value})")

    @settings(max_examples=100, deadline=None)
    @given(
        s=awkward_structures() | sparse_structures(),
        block=st.sampled_from([1, 64, io._BLOCK_CHARS]),
        data=st.data(),
    )
    def test_random_structures_and_models(self, s, block, data):
        n = s.line_count
        element = st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 4), unique=True)
        families = st.lists(element.map(lambda e: tuple(sorted(e))), max_size=4)
        m = GeometryModel(s, *(tuple(sorted(data.draw(families))) for _ in "pp"), None)
        with mock.patch.object(io, "_BLOCK_CHARS", block):
            for value, to_dict, from_dict in [
                (s, structure_to_dict, structure_from_dict),
                (m, model_to_dict, model_from_dict),
            ]:
                canonical = canonical_json(to_dict(value))
                for text in (canonical, json.dumps(to_dict(value), indent=2, sort_keys=True)):
                    fast, slow = both_readers(text, from_dict)
                    assert slow == value
                    if s.skew_pairs():
                        assert fast == slow
                        assert getattr(fast, "name", None) == getattr(slow, "name", None)
                    else:
                        assert fast is None  # "skew_pairs": [] is not the layout

    def test_package_files_take_the_layout_reader(self, pg2, tmp_path, monkeypatch):
        results = []
        read = io._read_layout
        monkeypatch.setattr(io, "_read_layout", lambda raw: results.append(read(raw)) or results[-1])
        save_structure(pg2, tmp_path / "s.json")
        save_model(coordinate_labels(pg2, (0, 1, 1)), tmp_path / "m.json")
        dumped = json.dumps(structure_to_dict(pg2), indent=2, sort_keys=True)
        (tmp_path / "d.json").write_text(dumped)
        assert load_structure(tmp_path / "s.json") == pg2
        assert load_model(tmp_path / "m.json").structure == pg2
        assert load_structure(tmp_path / "d.json") == pg2
        assert len(results) == 3 and all(r is not None for r in results)


# Bound for test_pg35_load_peak: on a 2-vCPU host loading the 8.5 MB
# PG(3,5) structure file peaks at 46.5 MB RSS, 29 MB of it the interpreter
# with numpy and the modules the load imports, against 52 MB when the
# reader held the whole file and 81 MB when json.loads built every pair as
# a list.
PG35_LOAD_RSS_MB = 56
PG35_LOAD_SCRIPT = PEAK_RSS + """
import json
from linespace import load_structure
s = load_structure("pg35.json")
print(json.dumps([s.line_count, int((~s.adjacency).sum()) // 2, peak_rss_mb()]))
"""


def test_pg35_load_peak(tmp_path):
    # in a fresh process, so that its peak RSS is the load's
    save_structure(gen_pg3(5)[0], tmp_path / "pg35.json")
    out = run_python(["-c", PG35_LOAD_SCRIPT], tmp_path)
    assert out.returncode == 0, out.stderr
    lines, skew, peak = json.loads(out.stdout)
    assert (lines, skew) == (806, 251875)
    assert peak < PG35_LOAD_RSS_MB


class TestEncoding:
    def test_non_ascii_labels_under_c_locale(self, tmp_path):
        # Without UTF-8 mode the locale's ASCII codec would be the default
        # for text files; io must write and read UTF-8 regardless.
        script = (
            "from linespace import IncidenceStructure, load_structure, save_structure\n"
            "s = IncidenceStructure.from_skew_pairs(\n"
            "    2, [(0, 1)], labels=['\\u00e9', '\\u2603'], name='\\u00f1'\n"
            ")\n"
            "save_structure(s, 's.json')\n"
            "assert load_structure('s.json') == s\n"
        )
        done = run_python(["-X", "utf8=0", "-c", script], tmp_path, LC_ALL="C")
        assert done.returncode == 0, done.stderr
        s = IncidenceStructure.from_skew_pairs(2, [(0, 1)], labels=["é", "☃"], name="ñ")
        expected = canonical_json(structure_to_dict(s)).encode("utf-8")
        assert (tmp_path / "s.json").read_bytes() == expected

    @pytest.mark.parametrize("command", ["check", "dualize"])
    def test_bad_utf8_is_a_parse_error(self, command, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"\xff{}")
        argv = ["-m", "linespace.cli", command, "bad.json"]
        if command == "dualize":
            argv += ["--out", "out.json"]
        done = run_python(argv, tmp_path)
        assert done.returncode == 2
        assert "not UTF-8" in done.stderr
        assert "Traceback" not in done.stderr


class TestModelRoundTrip:
    def test_tetra_model(self, tetra, tmp_path):
        m = coordinate_labels(tetra)
        path = tmp_path / "m.json"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded == m

    def test_pg2_model_roundtrip_bytes(self, pg2_model, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(pg2_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_requires_model_format(self, tetra):
        data = structure_to_dict(tetra)
        with pytest.raises(ParseError, match="format"):
            model_from_dict(data)

    def test_model_bad_seed(self, tetra):
        m = coordinate_labels(tetra)
        data = model_to_dict(m)
        data["seed"] = {"pair": [0, 1], "class_of": 7}
        with pytest.raises(ParseError, match="seed"):
            model_from_dict(data)

    @pytest.mark.parametrize(
        "seed",
        [
            {"pair": [True, 1], "class_of": False},
            {"pair": [0, 1], "class_of": True},
            {"pair": [1, 1], "class_of": 0},
            {"pair": [0, 1, 2], "class_of": 0},
            {"pair": [0], "class_of": 0},
        ],
    )
    def test_model_bool_or_repeated_seed_rejected(self, tetra, seed):
        data = model_to_dict(coordinate_labels(tetra))
        data["seed"] = seed
        with pytest.raises(ParseError, match="seed"):
            model_from_dict(data)

    def test_validation_survives_optimized_mode(self, tmp_path):
        # python -O strips assert statements; loading must still reject
        # bad structure and model files.
        script = (
            "import pytest\n"
            "from linespace.io import ParseError, model_from_dict, structure_from_dict\n"
            "base = {'format': 'linespace-v1', 'name': 'x', 'lines': ['p', 'q']}\n"
            "with pytest.raises(ParseError):\n"
            "    structure_from_dict(dict(base, skew_pairs=[[1, 1]]))\n"
            "with pytest.raises(ParseError):\n"
            "    model_from_dict(dict(base, format='linespace-model-v1', points=[], planes=[],\n"
            "                         seed={'pair': [True, 1], 'class_of': 0}))\n"
        )
        done = run_python(["-O", "-c", script], tmp_path)
        assert done.returncode == 0, done.stderr

    def test_model_bad_element(self, tetra):
        m = coordinate_labels(tetra)
        data = model_to_dict(m)
        data["points"] = [[0, 99]]
        with pytest.raises(ParseError, match="element"):
            model_from_dict(data)

    def test_model_element_repeating_a_line(self, pg2_model):
        """An unsorted element is sorted, but one that repeats a line is an
        error: sorted, a point's lines with one repeated would load as that
        point, here listed again as a plane."""
        data = model_to_dict(pg2_model)
        data["planes"] = [plane[::-1] for plane in data["planes"]]
        assert model_from_dict(data) == pg2_model
        point = data["points"][0]
        data["planes"][0] = point[::-1] + point[:1]
        with pytest.raises(ParseError, match=re.escape(f"element {data['planes'][0]} in 'planes' repeats a line")):
            model_from_dict(data)


class TestReports:
    def test_reports_reference_labels(self, tetra, tmp_path):
        reports = check_all(tetra)
        path = tmp_path / "r.json"
        save_reports(reports, path)
        data = json.loads(path.read_text())
        assert data["format"] == "linespace-report-v1"
        first = data["reports"][0]
        assert first["check_name"] == "axiom1"
        assert first["passed"] is False
        assert first["counterexample"]["line"] == "a"  # label, not index

    def test_report_statuses_serialized(self, tmp_path):
        from linespace import gen_negative

        s = gen_negative("no_skew_anywhere")
        path = tmp_path / "r.json"
        save_reports(check_all(s), path)
        data = json.loads(path.read_text())
        statuses = [r["status"] for r in data["reports"]]
        assert "dependency_unmet" in statuses


class TestPg3Meta:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        top=st.sampled_from([1, 9, 10, 99, 1000]),
        data=st.data(),
    )
    def test_int_arrays_render_as_the_encoder_writes_them(self, shape, top, data):
        # any depth, 1 to 4 digits, as the value of an object's member
        size = int(np.prod(shape))
        flat = data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
        values = np.array(flat).reshape(shape)
        assert io._int_array(values) == io._dumps(values.tolist()).replace("\n", "\n  ")

    def test_meta_dict_shape(self, pg2_meta):
        data = pg3_meta_to_dict(pg2_meta)
        assert data["format"] == "linespace-pg3-meta-v1"
        assert data["q"] == 2
        assert len(data["line_reps"]) == 35
        assert all(len(mat) == 2 and len(mat[0]) == 4 for mat in data["line_reps"])
        assert len(data["point_reps"]) == 15
        assert len(data["plane_reps"]) == 15
