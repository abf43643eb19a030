import json
import math
import tracemalloc
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphent import report
from graphent.cli import _write_report
from graphent.report import _csv_cell, _escape, audit_to_object, write_json
from graphent.verifier import audit_corpus
from reference_loops import render_json


def _escaped_char_by_char(text: str) -> str:
    """The JSON string literal of ``text``, one character at a time."""
    named = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return '"' + "".join(named.get(ch) or ("\\u%04x" % ord(ch) if ord(ch) < 0x20 else ch)
                         for ch in text) + '"'


@given(st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f é€😀'), st.characters())))
def test_escape_is_the_character_loop(text):
    assert _escape(text) == _escaped_char_by_char(text)


_TEXT = st.text(st.characters(exclude_characters="\b\f"))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20)


@given(_JSON)
def test_the_writer_lays_out_json_as_the_json_module(value):
    # the json module writes \b and \f as such, the writer as \u0008 and \u000c
    assert render_json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    compact = json.dumps(value, separators=(",", ":"), ensure_ascii=False)
    if value is not None and not isinstance(value, str):
        assert _csv_cell(value) == compact.strip('"')


@given(_JSON, st.integers(1, 8))
def test_written_chunks_join_to_the_rendered_text(value, chunk):
    chunks: list[str] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_CHUNK", chunk)
        write_json(value, chunks.append)
    assert "".join(chunks) == render_json(value)


def test_subclasses_of_json_types_are_written_as_their_base_type():
    class Label(str):
        def __str__(self) -> str:
            return "relabelled"

    value = {"k": [np.float64(0.1), np.bool_(True).item(), Label("v"), (1, 2)]}
    assert render_json(value) == render_json({"k": [0.1, True, "v", [1, 2]]})
    with pytest.raises(TypeError, match="cannot serialize int64"):
        render_json([np.int64(1)])


def test_csv_cells_match_the_parent_rules():
    assert [_csv_cell(v) for v in (None, True, 3, 0.25, math.nan, -math.inf, "a,b", {"x": [1]})] \
        == ["", "true", "3", "0.25", "nan", "-inf", "a,b", '{"x":[1]}']


def test_writing_the_audit_all5_report_to_a_file_peaks_below_half_a_megabyte(tmp_path):
    doc = audit_to_object(audit_corpus("all:5", log_base=math.e))
    args = Namespace(format="json", out=str(tmp_path / "audit.json"))
    tracemalloc.start()
    try:
        _write_report(doc, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "audit.json").read_text(encoding="utf-8") == render_json(doc)
    assert peak <= 0.5e6  # 1.99 MB when the whole text was rendered first
