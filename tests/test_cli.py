import argparse
import hashlib
import io
import json
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from commvar import cli
from commvar.census import _classes
from commvar.documents import emit_document, from_commuting_tuple, parse_document
from commvar.fields import QQ, Field, int_from_decimal
from commvar.homs import aut_dim, hom_dim
from commvar.matrices import Matrix
from commvar.modules import direct_sum, validate

GOLDEN = Path(__file__).parent / "golden"


def read(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def run(*argv):
    return cli.run_command(list(argv))


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# golden files


def test_golden_documents_reemit_byte_identical():
    for name in ["j2_zero.json", "companion12.json", "j2_framed.json"]:
        text = read(name)
        assert emit_document(parse_document(text)) == text


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("validate_j2_zero.golden.json", ["validate", str(GOLDEN / "j2_zero.json")]),
        ("cycle_companion12.golden.json", ["cycle", str(GOLDEN / "companion12.json")]),
        ("stratum_j2_zero.golden.json", ["stratum", str(GOLDEN / "j2_zero.json")]),
        (
            "isom_j3_pair.golden.json",
            ["isom", str(GOLDEN / "j3_zero.json"), str(GOLDEN / "j3_j3sq.json")],
        ),
        ("tangent_j2_zero.golden.json", ["tangent", str(GOLDEN / "j2_zero.json")]),
        (
            "translate_companion12.golden.json",
            ["translate", str(GOLDEN / "companion12.json"), "1"],
        ),
        (
            "sample_split_f5_seed7.golden.json",
            ["sample", "--kind", "split", "--field", "Fp:5", "--n", "2", "--d", "2", "--seed", "7"],
        ),
        # F_5, three support points, against a seeded conjugate: pins a certificate
        (
            "isom_f5_split_pair.golden.json",
            ["isom", str(GOLDEN / "f5_split_s.json"), str(GOLDEN / "f5_split_t.json")],
        ),
        # Q, d = 1, pieces 21 + 11 + 1 at three points against its direct sum:
        # every first candidate is singular, so the grid finds the
        # certificate, whose entries have denominators 2 and 3
        (
            "isom_q_grid_pair.golden.json",
            ["isom", str(GOLDEN / "q_grid_s.json"), str(GOLDEN / "q_grid_t.json")],
        ),
        # Q, d = 2, an L-shaped piece and a column at two points, framed by
        # two generating vectors, against the pair moved by a conjugator
        # with denominators 2 and 3: the certificate is that conjugator
        (
            "quot_equal_q_pair.golden.json",
            ["quot-equal", str(GOLDEN / "q_quot_s.json"), str(GOLDEN / "q_quot_t.json")],
        ),
        # F_5, d = 1, pieces 3 + 21 + 111 at 0, 1 and 2 against a seeded
        # conjugate: Hom dim 17 is over the grid budget and every first
        # candidate is singular, so the seeded residue draws find the
        # certificate before End(s) or End(t) is computed
        (
            "isom_f5_draw_pair.golden.json",
            ["isom", str(GOLDEN / "f5_draw_s.json"), str(GOLDEN / "f5_draw_t.json")],
        ),
        # localize pins the local blocks and the shared change of basis:
        # Q, d = 2, points (0,0) x 3 and (1,2) x 2
        ("localize_q_quot_s.golden.json", ["localize", str(GOLDEN / "q_quot_s.json")]),
        # F_5, three points
        ("localize_f5_split_s.golden.json", ["localize", str(GOLDEN / "f5_split_s.json")]),
        # Q, d = 1, three points
        ("localize_q_grid_s.golden.json", ["localize", str(GOLDEN / "q_grid_s.json")]),
        # F_2, three points no linear form separates
        (
            "localize_f2_three_points.golden.json",
            ["localize", str(GOLDEN / "f2_three_points.json")],
        ),
    ],
)
def test_golden_outputs_byte_identical(golden, argv):
    code, out = run(*argv)
    assert code == 0
    assert out == read(golden)


def test_golden_census_stable_modulo_timing():
    code, out = run("census", "--n", "2", "--d", "2", "--q", "2", "--per-stratum")
    assert code == 0
    got = json.loads(out)
    want = json.loads(read("census_2_2_2.golden.json"))
    got["elapsed_ms"] = want["elapsed_ms"] = 0
    assert got == want


def test_golden_relation_census_stable_modulo_timing():
    # the relation census reads one representative per orbit and files the
    # orbit by its support cycle; the golden was written by a walk that
    # read every tuple
    code, out = run("census", "--n", "3", "--d", "2", "--q", "2", "--relation", "x1^2 + x2",
                    "--per-stratum")
    assert code == 0
    got = json.loads(out)
    want = json.loads(read("census_relation_3_2_2.golden.json"))
    got["elapsed_ms"] = want["elapsed_ms"] = 0
    assert got == want


def test_golden_orbit_census_stable_modulo_timing():
    # the class-by-class orbit census reproduces the whole-variety walk's
    # report, orbit by orbit
    code, out = run("orbit-census", "--n", "2", "--d", "3", "--q", "2")
    assert code == 0
    got = json.loads(out)
    want = json.loads(read("orbit_census_2_3_2.golden.json"))
    got["elapsed_ms"] = want["elapsed_ms"] = 0
    assert got == want


@pytest.mark.parametrize("n,d,q,sha256", [
    (3, 2, 2, "1d034816449617d17be9bccb2938e476d79e1f09c7900a9686e52cea0b40728a"),
    (2, 2, 5, "11027201a2617feaf27063eee267c27f2e7f954d9a16a4fd7717fdb597e8b124"),
    (3, 3, 2, "8c033759eaca7b0ddbd95890b3e09e1fffbb16f28b3a9e7e66b0d30b2ff23489"),
    (3, 2, 3, "f405913a4abf955ab24393d7dba970ffee420faa67c79f3e9eeac0b9667c7762"),
    (2, 2, 13, "b360ecf542127189b921804ddaacef09944ead630b71825c4d2eac32e52086ed"),
    (3, 1, 3, "1db964264720dc2845b7a488d26d304567d254bd3975e9bf6d9dd560ee18e9ce"),
    (4, 1, 2, "3027934fc9d383098aebc5a59d3ad458eb6c2e01a299ed67f25bd683cab5f5e0"),
], ids=["3-2-2", "2-2-5", "3-3-2", "3-2-3", "2-2-13", "3-1-3", "4-1-2"])
def test_orbit_census_report_bytes_pinned(n, d, q, sha256):
    # the whole report, byte for byte with elapsed_ms zeroed: n = 3 has
    # classes that are neither scalar nor cyclic, and q = 5 a diagonal
    # generator of GL_2; (3,2,3) and (2,2,13) place many irreducibles of
    # degree 1 and 2 on identical blocks; at d = 1 the orbits are the
    # classes themselves, each represented by its canonical form
    code, out = run("orbit-census", "--n", str(n), "--d", str(d), "--q", str(q))
    assert code == 0
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out, count=1)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("flags,sha256", [
    (["--per-stratum"], "5653e1a1751d5411fbfbec1a0df6298ab39e64efb3d09fa9b60bb2591b8b2649"),
    (["--nilpotent"], "0b3454cfd46f7a3be932cbd87e1fa63d1fbd3cdf8958941421cda579ca8184f1"),
    (["--relation", "x1*x2+x3^2", "--per-stratum"],
     "8386058e8af3997e0e2715eba0d4ceece96bbcf5e6531ae47cfe78c10cd23413"),
    (["--relation", "x1*x2+x3^2", "--nilpotent"],
     "948125392737be63dc6186d68e8cf3c0df5dbb04840b7780e154c82167e21c3b"),
], ids=["per-stratum", "nilpotent", "relation-per-stratum", "relation-nilpotent"])
def test_census_3_3_2_report_bytes_pinned(flags, sha256):
    # at (3,3,2) four classes are neither scalar nor cyclic, so each report
    # walks centralizer chains: counted, nilpotent, and as orbits under a
    # relation
    code, out = run("census", "--n", "3", "--d", "3", "--q", "2", *flags)
    assert code == 0
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out, count=1)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("args,sha256", [
    (["--n", "4", "--d", "1", "--q", "2", "--relation", "x1^2+x1", "--per-stratum"],
     "8eb742c6b10d803b69fcb77b726317617c56987600f6effdb2e55ead18c9dc10"),
    (["--n", "3", "--d", "2", "--q", "3", "--relation", "x1*x2", "--nilpotent", "--per-stratum"],
     "bb1f447ae8f9116b19e912d916eaa01eaf882de02e9ec499334a8f85e64489e1"),
], ids=["4-1-2-idempotent", "3-2-3-nilpotent"])
def test_relation_census_report_bytes_pinned(args, sha256):
    # a relation census reads one representative per orbit, walked from each
    # class's canonical form: at d = 1 the classes themselves, and under the
    # nilpotent filter at q = 3 only the nilpotent classes
    code, out = run("census", *args)
    assert code == 0
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out, count=1)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def test_golden_not_commuting_error_byte_identical():
    # the error report, written with ensure_ascii and default=str
    code, out = run("validate", str(GOLDEN / "noncommuting.json"))
    assert code == 1
    assert out == read("validate_noncommuting.golden.json")


def test_error_report_escapes_non_ascii(tmp_path):
    # error reports are written with ensure_ascii, as json.dumps(indent=2) would
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "Q", "n": 1, "d": 1, "matrices": [[["\u00bd"]]]}))
    code, out = run("validate", str(bad))
    assert code == 2 and out.isascii() and "\\u00bd" in out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_BENCH_REPORTS = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:]
import workloads
from commvar import cli
count = 0
with tempfile.TemporaryDirectory() as tmp:
    for workload in ("census", "modules"):
        for op in workloads.build(workload, 1, f"{tmp}/{workload}"):
            code, out = cli.run_command(op.argv)
            want = json.dumps(json.loads(out), indent=2, ensure_ascii=code != 0) + "\\n"
            assert out == want, op.argv
            count += 1
print(count)
"""


def test_bench_reports_match_json_dumps():
    # every seed-1 report of both bench workloads is what json.dumps(...,
    # indent=2) writes; errors go with ensure_ascii.  A child process keeps
    # the bench's own oracles module apart from the tests'
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _BENCH_REPORTS, str(root / "perfbench"), str(root / "src")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 143


def test_reports_are_deterministic_under_rerun():
    a = run("cycle", str(GOLDEN / "companion12.json"))
    b = run("cycle", str(GOLDEN / "companion12.json"))
    assert a == b
    s1 = run("sample", "--kind", "punctual", "--n", "3", "--d", "2", "--seed", "9")
    s2 = run("sample", "--kind", "punctual", "--n", "3", "--d", "2", "--seed", "9")
    assert s1 == s2
    s3 = run("sample", "--kind", "punctual", "--n", "3", "--d", "2", "--seed", "10")
    assert s3 != s1


# ---------------------------------------------------------------------------
# report payloads


def test_validate_report_shape():
    code, rep = run_json("validate", str(GOLDEN / "j2_zero.json"))
    assert code == 0
    assert rep["valid"] is True and rep["punctual"] is True
    assert rep["field"] == "Q" and (rep["n"], rep["d"]) == (2, 2)
    # provenance rides last on every report
    assert list(rep)[-1] == "provenance"
    assert rep["provenance"]["tool"] == "commvar"
    assert rep["provenance"]["config"]["grid_budget"] == 8


def test_homdim_autdim_mingen_nilpotent():
    code, rep = run_json("homdim", str(GOLDEN / "j3_zero.json"), str(GOLDEN / "j3_j3sq.json"))
    assert (code, rep["hom_dim"]) == (0, 2)
    code, rep = run_json("autdim", str(GOLDEN / "j2_zero.json"))
    assert (code, rep["aut_dim"]) == (0, 2)
    code, rep = run_json("mingen", str(GOLDEN / "j2_zero.json"))
    assert (code, rep["min_generators"]) == (0, 1)
    code, rep = run_json("nilpotent", str(GOLDEN / "j2_zero.json"))
    assert (code, rep["nilpotent"]) == (0, True)
    code, rep = run_json("nilpotent", str(GOLDEN / "companion12.json"))
    assert (code, rep["nilpotent"]) == (0, False)


def test_localize_splits_companion():
    code, rep = run_json("localize", str(GOLDEN / "companion12.json"))
    assert code == 0
    pts = sorted(s["point"][0] for s in rep["summands"])
    assert pts == ["1", "2"]
    assert all(s["n"] == 1 for s in rep["summands"])
    assert len(rep["change_of_basis"]) == 2


def test_potential_and_gradient(tmp_path):
    code, rep = run_json("potential", str(GOLDEN / "potential_triple.json"))
    assert (code, rep["potential"]) == (0, "2")
    code, rep = run_json("gradient", str(GOLDEN / "potential_triple.json"))
    assert code == 0 and rep["vanishes"] is False
    commuting = {
        "field": "Q",
        "n": 2,
        "d": 3,
        "matrices": [
            [["1", "0"], ["0", "2"]],
            [["3", "0"], ["0", "4"]],
            [["5", "0"], ["0", "6"]],
        ],
    }
    p = tmp_path / "diag3.json"
    p.write_text(json.dumps(commuting))
    code, rep = run_json("gradient", str(p))
    assert code == 0 and rep["vanishes"] is True
    assert rep["gradient"] == [[["0", "0"], ["0", "0"]]] * 3


def test_frame_subcommands():
    code, rep = run_json("frame-check", str(GOLDEN / "j2_framed.json"))
    assert (code, rep["generating"]) == (0, True)
    code, rep = run_json("atlas-check", str(GOLDEN / "j2_framed.json"))
    assert (code, rep["atlas_point"]) == (0, True)
    code, rep = run_json(
        "quot-equal", str(GOLDEN / "j2_framed.json"), str(GOLDEN / "j2_framed.json")
    )
    assert code == 0 and rep["equal"] is True
    assert rep["certificate"] == [["1", "0"], ["0", "1"]]


def test_dsum_emits_document():
    code, out = run("dsum", str(GOLDEN / "j2_zero.json"), str(GOLDEN / "j2_zero.json"))
    assert code == 0
    doc = parse_document(out)
    assert doc.n == 4 and doc.d == 2
    assert "provenance" not in out  # documents carry no report wrapper


def test_orbit_census_report():
    code, rep = run_json("orbit-census", "--n", "2", "--d", "1", "--q", "2")
    assert code == 0
    assert rep["orbit_count"] == 6
    assert rep["groupoid_count"] == {"num": "8", "den": "3"}
    assert sorted(int(o["orbit_size"]) for o in rep["orbits"]) == [1, 1, 2, 3, 3, 6]
    for o in rep["orbits"]:
        assert int(o["orbit_size"]) * int(o["aut_order"]) == 6


def test_orbit_census_report_of_the_empty_module():
    # n = 0: the one tuple of 0 x 0 matrices, fixed by the trivial group
    code, rep = run_json("orbit-census", "--n", "0", "--d", "1", "--q", "2")
    assert code == 0
    assert rep["orbit_count"] == 1
    assert rep["orbits"] == [
        {"matrices": [[]], "orbit_size": "1", "aut_order": "1", "nilpotent": True}]
    assert rep["gl_order"] == "1"
    assert rep["groupoid_count"] == {"num": "1", "den": "1"}


def test_census_relation_echoed():
    code, rep = run_json(
        "census", "--n", "1", "--d", "2", "--q", "3", "--relation", "x1"
    )
    assert code == 0
    assert rep["filter"]["relations"] == ["x1"]
    assert rep["raw_count"] == "3"


# ---------------------------------------------------------------------------
# global flags, stdin, pretty


def test_global_flags_accepted_on_either_side():
    a = run("--seed", "5", "validate", str(GOLDEN / "j2_zero.json"))
    b = run("validate", str(GOLDEN / "j2_zero.json"), "--seed", "5")
    assert a == b and a[0] == 0
    assert json.loads(a[1])["provenance"]["seed"] == 5


def test_config_file_respected(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"seed": 11, "grid_budget": 4}')
    code, rep = run_json("validate", str(GOLDEN / "j2_zero.json"), "--config", str(cfgp))
    assert code == 0
    assert rep["provenance"]["config"] == {
        "seed": 11,
        "grid_budget": 4,
        "census_budget": 2**32,
    }
    # --seed overrides the config file
    code, rep = run_json(
        "validate", str(GOLDEN / "j2_zero.json"), "--config", str(cfgp), "--seed", "3"
    )
    assert rep["provenance"]["seed"] == 3


def test_stdin_dash(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(read("j2_zero.json")))
    code, rep = run_json("validate", "-")
    assert code == 0 and rep["valid"] is True


def test_pretty_rendering():
    code, out = run("--pretty", "validate", str(GOLDEN / "j2_zero.json"))
    assert code == 0
    assert "{" not in out
    assert "valid: true" in out
    assert "provenance:" in out


def test_main_writes_stdout_and_returns_code(capsys):
    rc = cli.main(["validate", str(GOLDEN / "j2_zero.json")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    rc = cli.main(["validate", str(GOLDEN / "noncommuting.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"] == "NOT_COMMUTING"


# ---------------------------------------------------------------------------
# error taxonomy: every documented code reachable, with its exit code


def error_of(code_out):
    code, out = code_out
    return code, json.loads(out)["error"]


def test_parse_error_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, rep = run_json("validate", str(p))
    assert code == 2 and rep["error"] == "PARSE_ERROR"
    assert "line" in rep["detail"]


def test_parse_error_missing_file():
    code, rep = run_json("validate", "/nonexistent/doc.json")
    assert code == 2 and rep["error"] == "PARSE_ERROR"


def test_parse_error_document_not_utf8(tmp_path, monkeypatch):
    # a UTF-16 byte-order mark is no UTF-8: a parse error naming the path, not a bug
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + read("j2_zero.json").encode("utf-16-le"))
    code, rep = run_json("validate", str(p))
    assert code == 2 and rep["error"] == "PARSE_ERROR"
    assert rep["detail"]["path"] == str(p) and "UTF-8" in rep["detail"]["message"]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(p.read_bytes()), "utf-8"))
    code, rep = run_json("validate", "-")
    assert code == 2 and rep["error"] == "PARSE_ERROR" and rep["detail"]["path"] == "-"


def test_parse_error_bad_relation():
    code, rep = run_json(
        "census", "--n", "1", "--d", "1", "--q", "2", "--relation", "x9"
    )
    assert code == 2 and rep["error"] == "PARSE_ERROR"


def test_validation_error_missing_key(tmp_path):
    p = tmp_path / "short.json"
    p.write_text('{"field": "Q", "n": 1, "d": 1}')
    code, rep = run_json("validate", str(p))
    assert code == 1 and rep["error"] == "VALIDATION_ERROR"


def test_validation_error_frameless_frame_check():
    code, rep = run_json("frame-check", str(GOLDEN / "j2_zero.json"))
    assert code == 1 and rep["error"] == "VALIDATION_ERROR"


def test_not_commuting():
    code, rep = run_json("validate", str(GOLDEN / "noncommuting.json"))
    assert code == 1 and rep["error"] == "NOT_COMMUTING"


def test_not_split():
    code, rep = run_json("cycle", str(GOLDEN / "unsplit_q.json"))
    assert code == 1 and rep["error"] == "NOT_SPLIT"
    assert 2 in rep["detail"]["degrees"]


def test_cycle_f2_three_points():
    # no linear form over F_2 separates these three points
    code, rep = run_json("cycle", str(GOLDEN / "f2_three_points.json"))
    assert code == 0
    assert [(e["point"], e["mult"]) for e in rep["cycle"]] == [
        (["0", "0"], 1),
        (["0", "1"], 1),
        (["1", "0"], 1),
    ]
    assert rep["stratum"] == [3, 0, 0]


def test_not_punctual():
    code, rep = run_json("mingen", str(GOLDEN / "companion12.json"))
    assert code == 1 and rep["error"] == "NOT_PUNCTUAL"


def test_arity_mismatch_potential_and_translate():
    code, rep = run_json("potential", str(GOLDEN / "j2_zero.json"))
    assert code == 1 and rep["error"] == "ARITY_MISMATCH"
    code, rep = run_json("translate", str(GOLDEN / "companion12.json"), "1", "2")
    assert code == 1 and rep["error"] == "ARITY_MISMATCH"


def test_wrong_frame_count(tmp_path):
    doc = json.loads(read("j2_framed.json"))
    doc["frame"] = [["1", "0"]]
    p = tmp_path / "short_frame.json"
    p.write_text(json.dumps(doc))
    code, rep = run_json("atlas-check", str(p))
    assert code == 1 and rep["error"] == "WRONG_FRAME_COUNT"


def test_not_surjective(tmp_path):
    doc = json.loads(read("j2_framed.json"))
    doc["frame"] = [["1", "0"], ["0", "0"]]  # e1 spans im J2: never generates
    p = tmp_path / "lazy_frame.json"
    p.write_text(json.dumps(doc))
    code, rep = run_json("quot-equal", str(p), str(GOLDEN / "j2_framed.json"))
    assert code == 1 and rep["error"] == "NOT_SURJECTIVE"


def test_grid_budget_exceeded(tmp_path, monkeypatch, equal_f2_dimensions):
    # the F_2 pair reaches the grid only with dim Hom(t, s) reported as 3
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"grid_budget": 1}')
    pair = [str(GOLDEN / "f2_grid_s.json"), str(GOLDEN / "f2_grid_t.json")]
    code, rep = run_json("isom", *pair, "--config", str(cfgp))
    assert code == 1 and rep["error"] == "GRID_BUDGET_EXCEEDED"
    assert rep["detail"]["hom_dim"] == 3
    code, rep = run_json("isom", *pair)
    assert code == 0 and rep["isomorphic"] is False
    # its real dim Hom(t, s) = 4 answers "absent" within any budget
    monkeypatch.undo()
    code, rep = run_json("isom", *pair, "--config", str(cfgp))
    assert code == 0 and rep["isomorphic"] is False
    # unequal hom and End dimensions answer "absent" within any budget
    code, rep = run_json(
        "isom", str(GOLDEN / "j3_zero.json"), str(GOLDEN / "j3_j3sq.json"), "--config", str(cfgp)
    )
    assert code == 0 and rep["isomorphic"] is False


def test_budget_exceeded(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"census_budget": 100}')
    code, rep = run_json(
        "census", "--n", "2", "--d", "2", "--q", "2", "--config", str(cfgp)
    )
    assert code == 1 and rep["error"] == "BUDGET_EXCEEDED"


def test_nonprime_q():
    code, rep = run_json("census", "--n", "1", "--d", "1", "--q", "4")
    assert code == 1 and rep["error"] == "NONPRIME_Q"
    code, rep = run_json("sample", "--kind", "punctual", "--field", "Fp:6")
    assert code == 1 and rep["error"] == "NONPRIME_Q"


@pytest.mark.parametrize(
    "argv,code,error,flag",
    [
        (["census", "--n", "-1", "--d", "2", "--q", "2"], 2, "PARSE_ERROR", "--n"),
        (["orbit-census", "--n", "-1", "--d", "2", "--q", "2"], 2, "PARSE_ERROR", "--n"),
        (["sample", "--kind", "split", "--pieces", "0"], 2, "PARSE_ERROR", "--pieces"),
        (["sample", "--kind", "split", "--n", "0"], 2, "PARSE_ERROR", "--n"),
        (["sample", "--kind", "punctual", "--n", "-2"], 2, "PARSE_ERROR", "--n"),
        (["sample", "--kind", "punctual", "--d", "0"], 1, "ARITY_MISMATCH", None),
    ],
)
def test_out_of_range_sizes_are_refused(argv, code, error, flag):
    got, rep = run_json(*argv)
    assert (got, rep["error"], rep["detail"].get("flag")) == (code, error, flag)


_FIXED_ARITY = [("staircase", ["--cells", "0,0;1,0"], 2), ("companion", ["--coeffs", "1,1"], 1)]


@pytest.mark.parametrize("kind,flags,d", _FIXED_ARITY)
def test_sample_fixed_arity_kind_refuses_other_d(kind, flags, d):
    # a staircase is always a pair and a companion matrix a single one
    for other in (0, 1, 2, 3):
        if other != d:
            code, rep = run_json("sample", "--kind", kind, *flags, "--d", str(other))
            assert (code, rep["error"], rep["detail"]["d"]) == (1, "ARITY_MISMATCH", other)


@pytest.mark.parametrize("kind,flags,d", _FIXED_ARITY)
def test_sample_fixed_arity_kind_accepts_its_d(kind, flags, d):
    code, out = run("sample", "--kind", kind, *flags)
    assert code == 0 and json.loads(out)["d"] == d
    assert run("sample", "--kind", kind, *flags, "--d", str(d)) == (0, out)


_FIXED_SIZE = [("staircase", ["--cells", "0,0;1,0;0,1"], 3), ("companion", ["--coeffs", "2,-3,1"], 2)]


@pytest.mark.parametrize("kind,flags,n", _FIXED_SIZE)
def test_sample_fixed_size_kind_refuses_other_n(kind, flags, n):
    # the cells or the coefficients fix the size
    for other in (0, 1, 2, 3, 5):
        if other != n:
            code, rep = run_json("sample", "--kind", kind, *flags, "--n", str(other))
            assert (code, rep["error"], rep["detail"]["n"]) == (1, "SIZE_MISMATCH", other)


@pytest.mark.parametrize("kind,flags,n", _FIXED_SIZE)
def test_sample_fixed_size_kind_accepts_its_n(kind, flags, n):
    code, out = run("sample", "--kind", kind, *flags)
    assert code == 0 and json.loads(out)["n"] == n
    assert run("sample", "--kind", kind, *flags, "--n", str(n)) == (0, out)


@pytest.mark.parametrize("kind", ["punctual", "split"])
def test_sample_n_defaults_to_three(kind):
    code, out = run("sample", "--kind", kind, "--field", "Fp:5")
    assert code == 0
    assert run("sample", "--kind", kind, "--field", "Fp:5", "--n", "3") == (0, out)


@pytest.mark.parametrize("kind", ["punctual", "split"])
def test_sample_d_defaults_to_two(kind):
    code, out = run("sample", "--kind", kind, "--field", "Fp:5")
    assert code == 0 and json.loads(out)["d"] == 2
    assert run("sample", "--kind", kind, "--field", "Fp:5", "--d", "2") == (0, out)
    code, out = run("sample", "--kind", kind, "--field", "Fp:5", "--d", "3")
    assert code == 0 and json.loads(out)["d"] == 3


def test_mixed_fields():
    code, rep = run_json("isom", str(GOLDEN / "j2_zero.json"), str(GOLDEN / "f5_zero.json"))
    assert code == 1 and rep["error"] == "MIXED_FIELDS"


def test_not_young_diagram():
    code, rep = run_json("sample", "--kind", "staircase", "--cells", "1,1")
    assert code == 1 and rep["error"] == "NOT_YOUNG_DIAGRAM"


def test_not_monic():
    code, rep = run_json("sample", "--kind", "companion", "--coeffs", "2,2")
    assert code == 1 and rep["error"] == "NOT_MONIC"


@pytest.mark.parametrize("field,coeffs", [("Q", "2,1,0"), ("Fp:5", "1,5"), ("Fp:5", "3,1,10")])
def test_companion_needs_a_last_given_coefficient_of_one(field, coeffs):
    # a trailing zero coefficient is not dropped into a smaller, monic polynomial
    code, rep = run_json("sample", "--kind", "companion", "--coeffs", coeffs, "--field", field)
    assert code == 1 and rep["error"] == "NOT_MONIC"
    code, rep = run_json("sample", "--kind", "companion", "--coeffs", "1", "--field", field)
    assert code == 0 and rep["n"] == 0 and rep["metadata"]["coeffs"] == ["1"]
    code, rep = run_json("sample", "--kind", "companion", "--coeffs", "0,6", "--field", "Fp:5")
    assert code == 0 and rep["n"] == 1


def test_bad_config_is_parse_error(tmp_path):
    # a retired key is refused like any other unknown key
    cfgp = tmp_path / "cfg.json"
    for key in ["mystery_knob", "genericity_budget"]:
        cfgp.write_text(json.dumps({key: 1}))
        code, rep = run_json("validate", str(GOLDEN / "j2_zero.json"), "--config", str(cfgp))
        assert code == 2 and rep["error"] == "PARSE_ERROR"
        assert key in rep["detail"]["message"]


def test_internal_error_exit_3(monkeypatch):
    def boom(args, cfg):
        raise ValueError("wires crossed")

    monkeypatch.setitem(cli._COMMANDS, "validate", (boom, *cli._COMMANDS["validate"][1:]))
    code, rep = run_json("validate", str(GOLDEN / "j2_zero.json"))
    assert code == 3
    assert rep["error"] == "INTERNAL"
    assert "wires crossed" in rep["detail"]["message"]


def test_usage_errors_exit_2():
    code, out = run()
    assert code == 2
    code, out = run("no-such-command")
    assert code == 2
    code, out = run("validate")  # missing positional
    assert code == 2


def test_help_exits_zero():
    code, out = run("-h")
    assert code == 0


def _subcommands(parser) -> set[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def test_parser_built_once_and_reused():
    assert cli._build_parser() is cli._build_parser()
    first = run("validate", str(GOLDEN / "j2_zero.json"))
    assert first[0] == 0
    assert run("validate", str(GOLDEN / "j2_zero.json")) == first
    # usage errors and --help after a successful call behave as on a fresh parser
    assert run("-h")[0] == 0
    assert run("validate")[0] == 2
    assert run("no-such-command")[0] == 2
    assert run("validate", str(GOLDEN / "j2_zero.json")) == first


_BENCH_ARGV = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
print(json.dumps([op.argv for w in ("census", "modules")
                  for op in workloads.build(w, 1, f"{sys.argv[2]}/{w}")]))
"""


def test_workload_argv_builds_no_parser(capsys, tmp_path):
    # the argv forms of both bench workloads are read without argparse; a
    # child process keeps the bench's own oracles module apart from the tests'
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _BENCH_ARGV, str(root / "perfbench"), str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    argvs = json.loads(proc.stdout)
    assert len(argvs) == 143
    cli._build_parser.cache_clear()
    for argv in argvs:
        assert run(*argv)[0] == 0, argv
    assert cli._build_parser.cache_info().currsize == 0
    # help comes from the full parser, which lists every subcommand
    assert run("-h")[0] == 0
    assert _subcommands(cli._build_parser()) == set(cli._COMMANDS)
    assert len(cli._COMMANDS) == 20
    listing = capsys.readouterr().out
    for name in cli._COMMANDS:
        assert re.search(rf"^    {re.escape(name)}\b", listing, re.M), name


def _full_parse(capsys, argv):
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit:  # help or a usage error
        return None
    finally:
        capsys.readouterr()


def _given(arg, kwargs):
    if kwargs.get("action") == "store_true":
        return [arg]
    value = kwargs["choices"][-1] if "choices" in kwargs else "2" if kwargs.get("type") is int else "x1"
    return [arg, value] * (2 if kwargs.get("action") == "append" else 1)


def _argv_corpus(name):
    """Plain argv forms of one subcommand, and mutations of them, built from
    its argument specs."""
    specs = cli._COMMANDS[name][2]
    paths = [f"{arg}.json" for arg, _ in specs if not arg.startswith("-")]
    stdin = ["-", *paths[1:]] if paths else []
    options = [_given(arg, kw) for arg, kw in specs if arg.startswith("-")]
    required = [t for arg, kw in specs if kw.get("required") for t in _given(arg, kw)]
    every = [t for option in options for t in option]
    backwards = [t for option in reversed(options) for t in option]
    plain = [
        [name, *paths, *required],
        [name, *required, *paths],
        [name, *every, *stdin],
        [name, *paths, *backwards],
        ["--seed", "3", "--pretty", name, *paths, *required],
        [name, *stdin, *required, "--config", "c.json", "--json"],
        ["--config", "census", name, *every, *paths, "--seed", "3"],
    ]
    # each option in turn is abbreviated, repeated, dropped, left without its
    # value, written as --opt=value, or given "-1", "-x", "bogus" or "--"
    given = [*options, ["--seed", "3"]]
    mutated = []
    for i, (flag, *value) in enumerate(given):
        for changed in ([flag[:-1], *value], [flag, *value] * 2, [], [flag], [f"{flag}=" + "".join(value[:1])],
                        [flag, "-1"], [flag, "-x"], [flag, "bogus"], [flag, "--"]):
            mutated.append([name, *paths, *(t for j, option in enumerate(given)
                                             for t in (changed if j == i else option))])
    argv = plain[0]
    mutated += [
        argv + ["-h"], ["-h", *argv], ["--help", *argv], argv + ["--help"],
        argv + ["extra.json"], [name, *required], [name, "--", *paths, *required], argv + ["--"],
        argv + ["--json", "--pretty"], ["--json", *argv, "--pretty"], ["--seed", "3", *argv, "--seed", "3"],
        [*required, name, *paths], ["--seed", "3"], ["--config"], [], [name + "x", *argv[1:]],
        [name, *paths, "-", *required], [name, *("-x" + p for p in paths), *required], argv + ["-1"],
    ]
    return plain, mutated


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_reader_answers_as_the_full_parser(capsys, name):
    # the reader answers every plain form with the full parser's namespace,
    # and leaves the rest to it
    plain, mutated = _argv_corpus(name)
    for argv in plain:
        read, full = cli._read_argv(argv), _full_parse(capsys, argv)
        assert full is not None, argv
        assert read is not None and vars(read) == full, argv
    refused = 0
    for argv in mutated:
        read, full = cli._read_argv(argv), _full_parse(capsys, argv)
        assert read is None or vars(read) == full, argv
        refused += full is None
    assert refused >= 10


def test_nargs_positional_builds_no_parser():
    # translate's shift takes one run of one or more tokens; a token after an
    # option that closed the run is one too many, as argparse has it
    cli._build_parser.cache_clear()
    doc = str(GOLDEN / "companion12.json")
    code, out = run("translate", doc, "1")
    assert code == 0 and json.loads(out)["d"] == 1
    assert vars(cli._read_argv(["translate", doc, "1", "2"]))["shift"] == ["1", "2"]
    assert cli._read_argv(["translate", doc, "--seed", "3", "1", "2"]).shift == ["1", "2"]
    assert cli._read_argv(["translate", doc, "1", "--seed", "3", "2"]) is None
    assert cli._build_parser.cache_info().currsize == 0


PARITY_ARGV = [
    [],
    ["-h"],
    ["-h", "census"],
    ["census", "-h"],
    ["orbit-census", "--help"],
    ["no-such-command"],
    ["validate"],
    ["census", "--n", "x", "--d", "1", "--q", "2"],
    ["--seed", "3", "census", "--n", "2", "--d", "1", "--q", "2"],
    ["--se", "4", "validate", "j2_zero.json"],
    ["--config", "validate", "census", "--n", "2", "--d", "1", "--q", "2"],
    ["--config", "census"],
    ["--json", "validate", "j2_zero.json", "--pretty"],
    ["validate", "j2_zero.json", "--json", "--pretty"],
    ["validate", "j2_zero.json", "census"],
    ["translate", "companion12.json", "--", "-1"],
    ["translate", "companion12.json", "--", "-1", "2"],
    ["sample", "--kind", "bogus"],
    ["validate", "-"],
    ["census", "--n=2", "--d", "1", "--q", "2"],
]


def _outcome(capsys, monkeypatch, argv):
    # a *.json token names a golden document, and stdin holds j2_zero.json
    monkeypatch.setattr(sys, "stdin", io.StringIO(read("j2_zero.json")))
    code, out = run(*(str(GOLDEN / a) if a.endswith(".json") else a for a in argv))
    captured = capsys.readouterr()
    return code, re.sub(r'"elapsed_ms": \d+', "", out), captured.out, captured.err


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda a: " ".join(a) or "bare")
def test_one_subcommand_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    # exit code, report, help and usage text are those of the full parser
    # alone, whatever the Python version's argparse prints
    routed = _outcome(capsys, monkeypatch, argv)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert routed == _outcome(capsys, monkeypatch, argv)


def test_field_beyond_primality_bound_is_refused():
    code, rep = run_json(
        "sample", "--kind", "punctual", "--field", "Fp:3317044064679887385961983"
    )
    assert code == 1 and rep["error"] == "BUDGET_EXCEEDED"
    assert rep["detail"]["budget"] == 3317044064679887385961981


# ---------------------------------------------------------------------------
# sample kinds all emit valid, reusable documents


@pytest.mark.parametrize(
    "argv,n",
    [
        (["sample", "--kind", "staircase", "--cells", "0,0;1,0;0,1"], 3),
        (["sample", "--kind", "companion", "--coeffs", "2,-3,1"], 2),
        (["sample", "--kind", "punctual", "--n", "3", "--d", "2"], 3),
        (["sample", "--kind", "punctual", "--n", "3", "--d", "2", "--conjugate"], 3),
    ],
)
def test_sample_documents_validate(argv, n, tmp_path):
    code, out = run(*argv)
    assert code == 0
    doc = parse_document(out)
    assert doc.n == n
    p = tmp_path / "sampled.json"
    p.write_text(out)
    code, rep = run_json("validate", str(p))
    assert code == 0 and rep["valid"] is True


def test_sample_split_ground_truth_matches_cycle(tmp_path):
    code, out = run("sample", "--kind", "split", "--field", "Fp:5", "--seed", "3")
    assert code == 0
    doc = parse_document(out)
    p = tmp_path / "split.json"
    p.write_text(out)
    code, rep = run_json("cycle", str(p))
    assert code == 0
    got = sorted((tuple(e["point"]), e["mult"]) for e in rep["cycle"])
    want = sorted(
        (tuple(e["point"]), e["mult"]) for e in doc.metadata["support"]
    )
    assert got == want


def test_sample_split_more_pieces_than_points_returns():
    # F_2^1 has two points and --pieces defaults to 3; seed 5 draws 3
    # pieces, which used to redraw forever.  A thread keeps a regression
    # from hanging the suite.
    result = []
    worker = threading.Thread(
        target=lambda: result.append(run_json(
            "sample", "--kind", "split", "--field", "Fp:2", "--d", "1", "--n", "1",
            "--seed", "5",
        )),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    code, doc = result[0]
    assert code == 0
    points = [tuple(e["point"]) for e in doc["metadata"]["support"]]
    assert len(points) == len(set(points)) == 2


def test_cycle_of_large_prime_over_q_returns(tmp_path):
    # the char poly t - (2^61 - 1) has its root read off; the rational root
    # test used to factor 2^61 - 1 by trial division.  A thread keeps a
    # regression from hanging the suite.
    p = tmp_path / "big_prime.json"
    p.write_text(json.dumps(
        {"field": "Q", "n": 1, "d": 1, "matrices": [[[str(2**61 - 1)]]]}
    ))
    result = []
    worker = threading.Thread(target=lambda: result.append(run_json("cycle", str(p))), daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    code, rep = result[0]
    assert code == 0
    assert rep["cycle"] == [{"point": [str(2**61 - 1)], "mult": 1}]


def test_census_per_stratum_n4_returns():
    # the strata are counted, not walked: 2^32 nominal tuples at n = 4.  A
    # thread keeps a regression from hanging the suite.
    result = []
    worker = threading.Thread(target=lambda: result.append(run_json(
        "census", "--n", "4", "--d", "2", "--q", "2", "--per-stratum")), daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    code, rep = result[0]
    assert code == 0
    assert (rep["raw_count"], rep["unsplit_count"]) == ("2526976", "906432")


def test_isom_over_large_prime_field_returns(tmp_path):
    # is_isomorphic computes no support cycle, whose root search over F_p
    # tries every residue.  A thread keeps a regression from hanging the suite.
    paths = []
    for name, rows in [("a", [["1", "2"], ["3", "4"]]), ("b", [["4", "3"], ["2", "1"]])]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"field": "Fp:1000000007", "n": 2, "d": 1, "matrices": [rows]}))
        paths.append(str(p))
    result = []
    worker = threading.Thread(target=lambda: result.append(run_json("isom", *paths)), daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    code, rep = result[0]
    assert code == 0
    assert rep["certificate"] == [["0", "1"], ["1", "0"]]


def _dual_pair(n):
    """R/m^2 + X against its dual + X over Q, R = Q[x, y] with basis 1, x, y
    and X the (n - 3)-dimensional Jordan block at (10, 0) with y = 0."""
    def unit(r, c):
        return Matrix(QQ, 3, 3, tuple(QQ.of(int((i, j) == (r, c))) for i in range(3) for j in range(3)))

    m = n - 3
    square = validate([unit(1, 0), unit(2, 0)])
    dual = validate([a.transpose() for a in square.mats])
    x = Matrix(QQ, m, m, tuple(QQ.of(10 * (i == j) + (j == i + 1)) for i in range(m) for j in range(m)))
    jordan = validate([x, Matrix.zero(QQ, m, m)])
    return direct_sum(square, jordan), direct_sum(dual, jordan)


@pytest.mark.parametrize("n", [7, 8])
def test_isom_of_square_and_dual_returns(tmp_path, n):
    # dim Hom(s, t) = dim End(s) = dim End(t) = n but dim Hom(t, s) = n + 1,
    # which answers "absent" before the grid; the grid alone took 4.9 s at
    # n = 6 and did not end at n = 7.  The n = 7 pair is golden.  A thread
    # keeps a regression from hanging the suite.
    s, t = _dual_pair(n)
    assert (hom_dim(s, t), aut_dim(s), aut_dim(t), hom_dim(t, s)) == (n, n, n, n + 1)
    paths = []
    for name, m in zip("st", (s, t)):
        text = emit_document(from_commuting_tuple(m))
        if n == 7:
            assert read(f"q_dual_{name}.json") == text
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(text)
    result = []
    worker = threading.Thread(
        target=lambda: result.append(run_json("isom", *map(str, paths))), daemon=True
    )
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    code, rep = result[0]
    assert (code, rep["isomorphic"], rep["certificate"]) == (0, False, None)


@pytest.mark.parametrize("n,q,orbits", [(4, 3, 129), (5, 2, 74)])
def test_orbit_census_of_classes_returns(n, q, orbits):
    # at d = 1 the orbits are the classes, each represented by its canonical
    # form with its class size, and no step grows with the q^(n^2) matrices
    # (3^16 at (4,1,3), inside the default budget).  A thread keeps a
    # regression from hanging the suite.
    result = []
    worker = threading.Thread(target=lambda: result.append(run_json(
        "orbit-census", "--n", str(n), "--d", "1", "--q", str(q))), daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    code, rep = result[0]
    assert (code, rep["orbit_count"]) == (0, orbits)
    got = [(tuple(int(x) for row in o["matrices"][0] for x in row), int(o["orbit_size"]))
           for o in rep["orbits"]]
    assert got == sorted((m, size) for m, size, dim, nilpotent in _classes(n, q))


# ---------------------------------------------------------------------------
# numerals past the interpreter's 4,300-digit int <-> str limit

BIG = "9" * 5000  # 10^5000 - 1


def _write(tmp_path, text: str) -> str:
    p = tmp_path / "doc.json"
    p.write_text(text)
    return str(p)


def _one_by_one(field: str, scalar: str) -> str:
    return json.dumps({"field": field, "n": 1, "d": 1, "matrices": [[[scalar]]]})


@pytest.mark.parametrize("field,entry", [("Q", Fraction(10**5000 - 1)), ("Fp:5", 4)])
def test_long_scalar_is_read_exactly(tmp_path, field, entry):
    path = _write(tmp_path, _one_by_one(field, BIG))
    assert run_json("validate", path)[0] == 0
    assert parse_document(Path(path).read_text()).matrices[0].entries == (entry,)


def test_long_shift_is_read_and_written_exactly(tmp_path):
    code, out = run("translate", _write(tmp_path, _one_by_one("Q", "0")), BIG)
    assert code == 0
    assert json.loads(out)["matrices"] == [[[BIG]]]


def test_long_product_is_written_exactly(tmp_path):
    a, z = "7" * 2200, ["0", "0"]
    path = _write(tmp_path, json.dumps({"field": "Q", "n": 2, "d": 3, "matrices": [
        [[a, "0"], z], [["0", a], z], [z, z]]}))
    code, rep = run_json("gradient", path)
    assert code == 0
    # d/dC Tr(A [B, C]) = [A, B]^T, and [A, B] = [[0, a^2], [0, 0]]
    (z0, z1), (entry, z2) = rep["gradient"][2]
    assert (z0, z1, z2) == ("0", "0", "0")
    assert len(entry) == 4400 and int_from_decimal(entry) == int_from_decimal(a) ** 2


def test_long_exponent_is_read_and_written_exactly():
    code, rep = run_json("census", "--n", "1", "--d", "1", "--q", "2", "--relation", "x1^" + BIG)
    assert code == 0
    assert rep["filter"]["relations"] == ["x1^" + BIG]
    assert rep["raw_count"] == "1"  # only 0 has x^(10^5000 - 1) = 0 over F_2


@pytest.mark.parametrize("text,code,error", [
    ('{"field": "Q", "n": %s, "d": 1, "matrices": [[["0"]]]}' % BIG, 2, "PARSE_ERROR"),
    (_one_by_one("Fp:" + BIG, "1"), 1, "BUDGET_EXCEEDED"),
    (_one_by_one("Fp:²", "1"), 2, "PARSE_ERROR"),  # a digit that int() refuses
], ids=["long-n", "long-prime", "superscript-prime"])
def test_long_or_odd_document_numbers_are_refused(tmp_path, text, code, error):
    got, rep = run_json("validate", _write(tmp_path, text))
    assert (got, rep["error"]) == (code, error)


def test_long_prime_refusal_carries_the_number_as_a_string(tmp_path):
    code, rep = run_json("validate", _write(tmp_path, _one_by_one("Fp:" + BIG, "1")))
    assert code == 1 and rep["detail"]["size"] == BIG


def test_long_variable_index_is_refused():
    code, rep = run_json("census", "--n", "1", "--d", "1", "--q", "2", "--relation", "x" + "1" * 5000)
    assert (code, rep["error"]) == (2, "PARSE_ERROR")


def test_long_config_number_is_refused(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"seed": %s}' % BIG)
    code, rep = run_json("validate", str(GOLDEN / "j2_zero.json"), "--config", str(cfgp))
    assert (code, rep["error"]) == (2, "PARSE_ERROR")


def test_long_nominal_census_size_is_refused():
    # q^(d n^2) = 2^20000 would have 6,021 digits: the refusal names q and
    # the exponent instead of writing the size out
    code, rep = run_json("census", "--n", "100", "--d", "2", "--q", "2")
    assert (code, rep["error"]) == (1, "BUDGET_EXCEEDED")
    assert {k: rep["detail"][k] for k in ("q", "exponent", "budget")} == {
        "q": 2, "exponent": 20000, "budget": 2**32,
    }


@pytest.mark.parametrize("command", ["census", "orbit-census"])
def test_huge_census_request_is_refused_at_once(command):
    # q^(d n^2) = 2^(10^10) is refused from its exponent alone, before
    # |GL_n(F_q)| or the power is computed.  A thread keeps a regression
    # from hanging the suite.
    result = []
    worker = threading.Thread(
        target=lambda: result.append(run_json(command, "--n", "100000", "--d", "1", "--q", "2")),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    code, rep = result[0]
    assert (code, rep["error"]) == (1, "BUDGET_EXCEEDED")
    assert rep["detail"]["exponent"] == 10**10


# ---------------------------------------------------------------------------
# each document scalar is parsed once


@pytest.mark.parametrize("argv,calls", [
    (["validate", "j3_j3sq.json"], 2 * 3 * 3),                        # d n^2
    (["frame-check", "j2_framed.json"], 1 * 2 * 2 + 2 * 2),           # d n^2 + r n
    (["isom", "f5_split_s.json", "f5_split_t.json"], 2 * 2 * 4 * 4),  # two documents
])
def test_each_document_scalar_is_parsed_once(monkeypatch, argv, calls):
    parsed = []
    parse_all = Field.parse_all

    def counted(self, texts):
        parsed.extend(texts)
        return parse_all(self, texts)
    monkeypatch.setattr(Field, "parse_all", counted)
    code, _ = run(argv[0], *(str(GOLDEN / name) for name in argv[1:]))
    assert code == 0
    assert len(parsed) == calls
