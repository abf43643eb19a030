from hypothesis import given, strategies as st

from graphent.report import _escape


def _escaped_char_by_char(text: str) -> str:
    """The JSON string literal of ``text``, one character at a time."""
    named = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return '"' + "".join(named.get(ch) or ("\\u%04x" % ord(ch) if ord(ch) < 0x20 else ch)
                         for ch in text) + '"'


@given(st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f é€😀'), st.characters())))
def test_escape_is_the_character_loop(text):
    assert _escape(text) == _escaped_char_by_char(text)
