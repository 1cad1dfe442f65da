"""The one canonical JSON writer against ``json.dumps``, and the one read of
each input file: a report's input digests name the bytes that were parsed,
each input is opened once per command, odd encodings fail as text-mode
reading made them fail, and nothing is kept once the command ends."""

import hashlib
import json
import pathlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfdual import cli, io
from hopfdual.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"
RG_Z2 = CORPUS / "rg_z2.json"


def reference(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1)


# -- the writer -----------------------------------------------------------------

_chars = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029'
                    '\ufeff\U0001f600\U00010000\U0010ffff'))
_text = st.text(_chars, max_size=12)
_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-(10 ** 60), 10 ** 60), _text)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_text, children, max_size=5)),
    max_leaves=40)


@given(_documents)
@settings(max_examples=250, deadline=None)
def test_writer_matches_json_dumps(obj):
    assert io.canonical_json(obj) == reference(obj)
    assert io.dump_canonical(obj) == reference(obj) + "\n"


def test_writer_on_empty_containers_at_every_depth():
    obj = {"": [], "a": {}, "b": [(), {}, [[], [{}]]],
           "c": {"d": {"e": []}}, "f": [[[[]]]]}
    for doc in (obj, [obj, obj], (), [], {}):
        assert io.canonical_json(doc) == reference(doc)


def test_writer_on_leaves():
    for leaf in (None, True, False, 0, -1, 2 ** 100, -(3 ** 70), "",
                 '"\\\x00\x1f\u2028\U0001f600', "1/2"):
        assert io.canonical_json(leaf) == reference(leaf)
        assert io.canonical_json([leaf, {"k": leaf}]) == reference(
            [leaf, {"k": leaf}])


@pytest.mark.parametrize("bad", [
    1.5, [1, 2.0], {"a": [0.5]}, {1: "a"}, {True: 1}, {"a": 1, 2: "b"},
    [{("t",): 1}], Fraction(1, 2), {"s": {1, 2}}, [b"bytes"]])
def test_writer_refuses_what_it_cannot_write_exactly(bad):
    with pytest.raises(TypeError):
        io.canonical_json(bad)


# -- one read per input file ------------------------------------------------------

def json_report(capsys, *argv):
    """(exit code, the report that ends stdout or None, stderr)."""
    code = main(["--format", "json", *map(str, argv)])
    out = capsys.readouterr()
    at = out.out.rfind('{\n "checks"')
    return code, (json.loads(out.out[at:]) if at >= 0 else None), out.err


def test_input_digests_are_those_of_the_file_bytes(tmp_path, capsys):
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(RG_Z2.read_bytes().replace(b"\n", b"\r\n"))
    (tmp_path / "sub").mkdir()
    # a path is reported, and its digest found, as given
    for path in (RG_Z2, crlf, f"{tmp_path}//crlf.json",
                 f"{tmp_path}/sub/../crlf.json", f"{tmp_path}/./crlf.json"):
        code, doc, _ = json_report(capsys, "verify", path)
        assert code == 0
        assert doc["inputs"] == [{
            "path": str(path),
            "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}]
    code, doc, _ = json_report(
        capsys, "exactness", CORPUS / "rep_z2_f2_unipotent.json",
        CORPUS / "quotient_z2_f2.json")
    assert [d["sha256"] for d in doc["inputs"]] == [
        hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (CORPUS / "rep_z2_f2_unipotent.json",
                  CORPUS / "quotient_z2_f2.json")]


def test_digest_names_the_bytes_parsed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rg.json"
    path.write_bytes(RG_Z2.read_bytes())
    original = hashlib.sha256(path.read_bytes()).hexdigest()
    load = io.load_bialgebra

    def load_then_overwrite(p):
        A = load(p)
        path.write_text("{}", encoding="utf-8")
        return A
    monkeypatch.setattr(io, "load_bialgebra", load_then_overwrite)
    code, doc, _ = json_report(capsys, "verify", path)
    assert code == 0 and doc["inputs"][0]["sha256"] == original


@pytest.mark.parametrize("argv", [
    ["verify", CORPUS / "rg_d4.json"],
    ["canonicalize", CORPUS / "fn_s3.json"],
    ["points", CORPUS / "monoid_z4.json", "--p", "5"],
    ["tannaka", CORPUS / "monoid_s3.json"],
    ["exactness", CORPUS / "rep_z2_f2_unipotent.json",
     CORPUS / "quotient_z2_f2.json"],
])
def test_one_command_opens_each_file_once(argv, capsys, monkeypatch):
    opened = []
    path_open = pathlib.Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(str(Path(self).resolve()))
        return path_open(self, *args, **kwargs)
    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    code, doc, _ = json_report(capsys, *argv)
    assert code in (0, 1)
    inputs = [str(Path(d["path"]).resolve()) for d in doc["inputs"]]
    assert inputs and set(inputs) <= set(opened)
    assert len(opened) == len(set(opened))


@pytest.mark.parametrize("name,content,message", [
    ("bom.json", b"\xef\xbb\xbf" + RG_Z2.read_bytes(),
     "error: {path}: line 1, column 1: Unexpected UTF-8 BOM (decode using "
     "utf-8-sig)\n"),
    ("bad_utf8.json", RG_Z2.read_bytes()[:20] + b"\xff"
     + RG_Z2.read_bytes()[20:],
     "error: 'utf-8' codec can't decode byte 0xff in position 20: invalid "
     "start byte\n"),
    ("bad_utf8_late.json", b"{" + b" " * 20000 + b"\xc3",
     "error: 'utf-8' codec can't decode byte 0xc3 in position 20001: "
     "unexpected end of data\n"),
    ("crlf_malformed.json", b'{\r\n "dim": 2,\r\n "field": \r\n}',
     "error: {path}: line 4, column 1: Expecting value\n"),
    ("cr_malformed.json", b'{\r "dim": 2,\r "field": \r}',
     "error: {path}: line 4, column 1: Expecting value\n"),
    ("mixed_malformed.json", b'{\r\r\n "dim":\n\r 2,, }',
     "error: {path}: line 5, column 4: Expecting property name enclosed in "
     "double quotes\n"),
    ("cr_in_string.json", b'{"basis": ["a\rb"], "dim": 1}',
     "error: {path}: line 1, column 14: Invalid control character at\n"),
    ("missing.json", None,
     "error: {path}: [Errno 2] No such file or directory: '{path}'\n"),
])
def test_malformed_inputs_fail_as_before(name, content, message, tmp_path,
                                         capsys):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    for argv in (["verify", path], ["canonicalize", path],
                 ["points", path, "--p", "7"]):
        code, doc, err = json_report(capsys, *argv)
        assert (code, doc, err) == (2, None, message.format(path=path))
        assert io.read_record is None


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_crlf_and_lone_cr_read_as_newlines(newline, tmp_path, capsys):
    path = tmp_path / "rg.json"
    path.write_bytes(RG_Z2.read_bytes().replace(b"\n", newline))
    assert io._load_json(path) == io._load_json(RG_Z2)
    _, plain, _ = json_report(capsys, "verify", RG_Z2)
    code, doc, _ = json_report(capsys, "verify", path)
    assert code == 0 and doc["checks"] == plain["checks"]
    code = main(["canonicalize", str(path)])
    assert code == 0
    assert capsys.readouterr().out.startswith(io.canonicalize(RG_Z2))


def test_io_keeps_no_digest_after_main(capsys, monkeypatch):
    seen = []
    load = io.load_bialgebra

    def spy(p):
        seen.append(io.read_record)
        return load(p)
    monkeypatch.setattr(io, "load_bialgebra", spy)
    assert main(["verify", str(RG_Z2)]) == 0
    assert seen[0] is not None and io.read_record is None

    def boom(A):
        raise RuntimeError("sweep failed")
    monkeypatch.setattr(cli, "verify_algebra", boom)
    with pytest.raises(RuntimeError, match="sweep failed"):
        main(["verify", str(RG_Z2)])
    assert io.read_record is None
    io.load_bialgebra(RG_Z2)
    assert io.read_record is None
