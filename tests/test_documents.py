import json
from fractions import Fraction
from pathlib import Path

import pytest

from commvar.documents import (
    ModuleDocument,
    emit_document,
    from_commuting_tuple,
    from_framed_module,
    parse_document,
    to_commuting_tuple,
    to_framed_module,
    write_json,
)
from commvar.errors import NotCommutingError, ParseError, ValidationError
from commvar.fields import GF, QQ
from commvar.matrices import Matrix
from commvar.modules import validate
from commvar.quot import FramedModule


J2_DOC = """{
  "field": "Q",
  "n": 2,
  "d": 2,
  "matrices": [
    [
      [
        "0",
        "1"
      ],
      [
        "0",
        "0"
      ]
    ],
    [
      [
        "0",
        "0"
      ],
      [
        "0",
        "0"
      ]
    ]
  ]
}
"""


def test_parse_emit_golden_byte_identity():
    doc = parse_document(J2_DOC)
    assert emit_document(doc) == J2_DOC


def test_parse_canonicalizes_scalars():
    text = '{"field": "Q", "n": 1, "d": 1, "matrices": [[["2/4"]]]}'
    doc = parse_document(text)
    assert doc.matrices == (Matrix(QQ, 1, 1, (Fraction(1, 2),)),)
    assert json.loads(emit_document(doc))["matrices"] == [[["1/2"]]]
    text_fp = '{"field": "Fp:5", "n": 1, "d": 1, "matrices": [[["7"]]]}'
    doc_fp = parse_document(text_fp)
    assert doc_fp.matrices == (Matrix(GF(5), 1, 1, (2,)),)
    assert doc_fp.field == GF(5)
    emitted = json.loads(emit_document(doc_fp))
    assert emitted["field"] == "Fp:5" and emitted["matrices"] == [[["2"]]]
    # the field tag is written from the field, so "Fp:05" comes back as "Fp:5"
    assert parse_document(text_fp.replace("Fp:5", "Fp:05")) == doc_fp


def test_parse_emit_round_trip_is_identity_after_first_pass():
    text = '{"field": "Fp:3", "n": 2, "d": 1, "matrices": [[["4", "-1"], ["0", "5"]]]}'
    doc = parse_document(text)
    assert doc.matrices == (Matrix(GF(3), 2, 2, (1, 2, 0, 2)),)
    emitted = emit_document(doc)
    assert json.loads(emitted)["matrices"] == [[["1", "2"], ["0", "2"]]]
    again = parse_document(emitted)
    assert again == doc
    assert emit_document(again) == emitted


def test_empty_module_document():
    text = '{"field": "Q", "n": 0, "d": 1, "matrices": [[]]}'
    doc = parse_document(text)
    assert doc.n == 0
    t = to_commuting_tuple(doc)
    assert t.n == 0 and t.d == 1


def test_bad_json_is_parse_error_with_location():
    with pytest.raises(ParseError) as ei:
        parse_document('{"field": "Q",\n  "n": }')
    assert ei.value.detail["line"] == 2


def test_bad_scalar_is_parse_error():
    with pytest.raises(ParseError):
        parse_document('{"field": "Q", "n": 1, "d": 1, "matrices": [[["x"]]]}')
    with pytest.raises(ParseError):
        # numbers must travel as strings
        parse_document('{"field": "Q", "n": 1, "d": 1, "matrices": [[[1]]]}')


def test_fraction_rejected_over_prime_field():
    with pytest.raises(ParseError):
        parse_document('{"field": "Fp:5", "n": 1, "d": 1, "matrices": [[["1/2"]]]}')


def test_missing_and_unknown_keys():
    with pytest.raises(ValidationError) as ei:
        parse_document('{"field": "Q", "n": 1, "d": 1}')
    assert "matrices" in ei.value.detail["missing"]
    with pytest.raises(ValidationError) as ei2:
        parse_document(
            '{"field": "Q", "n": 1, "d": 1, "matrices": [[["0"]]], "extra": 1}'
        )
    assert "extra" in ei2.value.detail["unknown"]


def test_shape_mismatches_are_validation_errors():
    with pytest.raises(ValidationError):
        parse_document('{"field": "Q", "n": 2, "d": 1, "matrices": [[["0"]]]}')
    with pytest.raises(ValidationError):
        parse_document('{"field": "Q", "n": 1, "d": 2, "matrices": [[["0"]]]}')
    with pytest.raises(ValidationError):
        parse_document('{"field": "Q", "n": -1, "d": 1, "matrices": []}')
    with pytest.raises(ValidationError):
        parse_document('{"field": "Q", "n": 1, "d": 0, "matrices": []}')
    with pytest.raises(ValidationError):
        parse_document('["not", "an", "object"]')


def test_frame_parsing_and_round_trip():
    text = (
        '{"field": "Q", "n": 2, "d": 1,'
        ' "matrices": [[["0", "0"], ["1", "0"]]],'
        ' "frame": [["1", "0"]]}'
    )
    doc = parse_document(text)
    assert doc.frame == ((Fraction(1), Fraction(0)),)
    assert json.loads(emit_document(doc))["frame"] == [["1", "0"]]
    fm = to_framed_module(doc)
    assert fm.r == 1
    back = from_framed_module(fm, doc.metadata)
    assert back.frame == doc.frame
    assert parse_document(emit_document(back)) == back


def test_to_framed_module_requires_frame():
    doc = parse_document('{"field": "Q", "n": 1, "d": 1, "matrices": [[["0"]]]}')
    with pytest.raises(ValidationError):
        to_framed_module(doc)


def test_metadata_preserved_verbatim():
    text = (
        '{"field": "Q", "n": 1, "d": 1, "matrices": [[["0"]]],'
        ' "metadata": {"kind": "test", "tags": [1, 2]}}'
    )
    doc = parse_document(text)
    assert doc.metadata == {"kind": "test", "tags": [1, 2]}
    assert parse_document(emit_document(doc)).metadata == doc.metadata


def test_document_matrices_skips_commuting_check():
    # potential/gradient consume arbitrary tuples, so the parsed document
    # must not insist on commutativity
    text = (
        '{"field": "Q", "n": 2, "d": 2, "matrices": ['
        '[["0", "1"], ["0", "0"]],'
        '[["0", "0"], ["1", "0"]]]}'
    )
    doc = parse_document(text)
    ms = doc.matrices
    assert len(ms) == 2 and isinstance(ms[0], Matrix)
    assert ms[0] * ms[1] != ms[1] * ms[0]
    with pytest.raises(NotCommutingError):
        to_commuting_tuple(doc)


def test_from_commuting_tuple_round_trip():
    F = GF(7)
    t = validate(
        [
            Matrix(F, 2, 2, (1, 2, 0, 1)),
            Matrix(F, 2, 2, (3, 0, 0, 3)),
        ]
    )
    doc = from_commuting_tuple(t, metadata={"note": "x"})
    assert doc.field == GF(7)
    assert json.loads(emit_document(doc))["field"] == "Fp:7"
    t2 = to_commuting_tuple(doc)
    assert [m.entries for m in t2.mats] == [m.entries for m in t.mats]


def test_emit_orders_keys_deterministically():
    doc = ModuleDocument(
        field=QQ,
        n=1,
        d=1,
        matrices=(Matrix(QQ, 1, 1, (Fraction(0),)),),
        frame=((Fraction(1),),),
        metadata={"z": 1, "a": 2},
    )
    out = emit_document(doc)
    assert out.index('"field"') < out.index('"n"') < out.index('"d"')
    assert out.index('"matrices"') < out.index('"frame"') < out.index('"metadata"')
    assert out.endswith("\n")
    # metadata insertion order survives (json round trips dict order)
    assert out.index('"z"') < out.index('"a"')


# ---------------------------------------------------------------------------
# write_json: json.dumps(obj, indent=2, ensure_ascii=False) byte for byte

class _Int(int):
    def __repr__(self):
        return "not json"


class _Float(float):
    def __repr__(self):
        return "not json"


_WRITER_CASES = [
    "plain",
    "caf\u00e9 \u2203 \U0001d11e \"quoted\" back\\slash \x00\x01\x1f\x7f\t\n\r\u2028",
    {"\u00e9": ["\"", "\\", "\n"], "k\u00e9y\u0007": {"inner": "\u00fc"}},
    [], {}, (), [[]], [{}], {"a": [], "b": {}, "c": [[], {}, ()]}, [[[[]]], {"x": {"y": {}}}],
    ("a", ("b", ["c"])), {"t": (1, ("x", None))},
    0, -7, 10**40, True, False, None, 1.5, -0.0, 1e300, 2.5e-8, float("inf"), float("-inf"),
    float("nan"), [1, True, None, 0.1, "s"], {"n": 2, "flag": False, "none": None, "f": 3.25},
    {1: "int key", -2: [], 2.5: "float key", True: "bool key", None: "none key", "s": 0},
    [_Int(5), _Float(0.5), {_Int(7): _Int(-1), _Float(1.5): None}],
]


@pytest.mark.parametrize("obj", _WRITER_CASES, ids=range(len(_WRITER_CASES)))
@pytest.mark.parametrize("shared", [False, True])
def test_write_json_matches_json_dumps(obj, shared):
    # shared writes the case as the one item of a matrix that a list of
    # matrices holds three times, so its text is written twice and then
    # reused
    if shared:
        m = [[obj]]
        obj = [m, m, m]
    assert write_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


def test_write_json_reuses_a_shared_list_only_at_its_own_indent():
    # one matrix object at several depths, as the orbit census shares each
    # distinct matrix's rows: each indent has its own text, and a shared
    # row is written each time
    row = ["1", "0"]
    m = [row, ["0", "-1/2"], row]
    obj = {"a": [m, m, m], "b": {"c": [m, [m, m, [m]]], "d": m}, "e": [[m], [m]], "f": m}
    assert write_json(obj) == json.dumps(obj, indent=2)


def test_write_json_reuses_a_shared_tuple():
    t = (("1", 2), [3, None], ())
    obj = [t, t, {"x": t, "y": [t, t]}, [t], t]
    assert write_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2, 3}]}, [Fraction(1, 2)], {(1, 2): "tuple key"},
                                 {"k": {frozenset(): 1}}])
def test_write_json_raises_json_dumps_type_error(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        write_json(obj)
    assert str(got.value) == str(want.value)


def test_write_json_matches_json_dumps_on_every_golden_payload():
    golden = sorted((Path(__file__).parent / "golden").glob("*.json"))
    assert len(golden) > 30
    for path in golden:
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert write_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)
