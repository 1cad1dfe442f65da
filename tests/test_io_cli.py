import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfdual
from hopfdual import io
from hopfdual.bialgebra import same_structure
from hopfdual.cli import main
from hopfdual.exact import FieldSpec
from hopfdual.monoids import FiniteMonoid, monoid_algebra, submonoid_algebra

Q = FieldSpec.rationals()
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv):
    """Run ``python -m <argv>`` on the package these tests import, whether or
    not it is installed."""
    env = dict(os.environ)
    src = str(Path(hopfdual.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                          text=True, check=False, env=env)


class TestScalarForms:
    def test_fraction_normalization(self, tmp_path):
        doc = {"field": {"kind": "Rationals"}, "dim": 1, "basis": ["e"],
               "mult": [[0, 0, 0, "2/4"]], "unit": ["3/3"]}
        p = tmp_path / "half.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        text = io.canonicalize(p)
        assert '"1/2"' in text and '"2/4"' not in text

    def test_prime_field_reduction(self, tmp_path):
        doc = {"field": {"kind": "PrimeField", "p": 5}, "dim": 1,
               "basis": ["e"], "mult": [[0, 0, 0, "7"]], "unit": ["6"]}
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        text = io.canonicalize(p)
        assert '"2"' in text and '"7"' not in text


class TestCanonicalize:
    def test_idempotent_on_corpus(self):
        for name in ("rg_s3.json", "fn_d4.json", "lie_sl2.json",
                     "monoid_d4.json", "rep_s3_standard.json"):
            path = CORPUS / name
            once = io.canonicalize(path)
            assert once == path.read_text(encoding="utf-8")

    def test_shuffled_entries_sorted(self, tmp_path):
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        doc = io.bialgebra_to_json(A)
        doc["mult"] = list(reversed(doc["mult"]))
        p = tmp_path / "shuffled.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        text = io.canonicalize(p)
        assert json.loads(text)["mult"] == io.bialgebra_to_json(A)["mult"]

    def test_duplicate_entries_merged(self, tmp_path):
        doc = {"field": {"kind": "Rationals"}, "dim": 1, "basis": ["e"],
               "mult": [[0, 0, 0, "1/2"], [0, 0, 0, "1/2"]], "unit": ["1"]}
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert json.loads(io.canonicalize(p))["mult"] == [[0, 0, 0, "1"]]


class TestLoaders:
    def test_bialgebra_round_trip(self, tmp_path):
        A = monoid_algebra(FiniteMonoid.dihedral(4), Q)
        p = tmp_path / "d4.json"
        io.save_bialgebra(A, p)
        B = io.load_bialgebra(p)
        assert same_structure(A, B, compare_names=True).passed

    def test_monoid_invariant_factors(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"invariant_factors": [2, 4]}),
                     encoding="utf-8")
        G = io.load_monoid(p)
        assert G.size == 8 and G.is_abelian

    def test_representation_reference_resolution(self, monkeypatch):
        monkeypatch.setenv("HOPFDUAL_CORPUS", str(CORPUS))
        rho = io.load_representation(CORPUS / "rep_s3_standard.json")
        assert rho.dim == 2 and rho.monoid.size == 6

    def test_submonoid_spec(self):
        spec = io.load_submonoid_spec(CORPUS / "submonoid_23.json")
        sa = submonoid_algebra(spec["generators"], spec["degree_bound"],
                               spec["grading"])
        assert sa.dim == 6

    def test_matrix_loader(self):
        m = io.load_matrix(CORPUS / "matrix_f5.json")
        assert m.rows == 3 and m.field.p == 5

    def test_position_annotated_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"dim": 2,,}', encoding="utf-8")
        with pytest.raises(io.FileFormatError, match="line 1, column"):
            io.load_bialgebra(p)

    def test_missing_pieces_rejected(self, tmp_path):
        p = tmp_path / "half.json"
        p.write_text(json.dumps({"field": {"kind": "Rationals"}, "dim": 1,
                                 "mult": [[0, 0, 0, "1"]]}),
                     encoding="utf-8")
        with pytest.raises(io.FileFormatError, match="together"):
            io.load_bialgebra(p)


class TestCliContract:
    def test_verify_pass(self, capsys):
        assert run_cli("verify", str(CORPUS / "rg_s3.json")) == 0

    def test_verify_corrupted_fails_with_witness(self, capsys):
        code = run_cli("verify", str(CORPUS / "bad_rg_z2_gg_zero.json"))
        out = capsys.readouterr().out
        assert code == 1
        assert "(g,g)" in out

    def test_verify_counit_law_failure(self, capsys):
        assert run_cli("verify", str(CORPUS / "bad_counit_law.json")) == 1
        assert "counit law" in capsys.readouterr().out

    def test_usage_error(self):
        assert run_cli("verify", "/nonexistent/file.json") == 2
        assert run_cli("nonsense-command") == 2

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        assert run_cli("verify", str(p)) == 2

    def test_dualize_twice_round_trips(self, tmp_path, capsys):
        src = CORPUS / "rg_d4.json"
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        canon = tmp_path / "canon.json"
        assert run_cli("dualize", str(src), "-o", str(one)) == 0
        assert run_cli("dualize", str(one), "-o", str(two)) == 0
        assert run_cli("canonicalize", str(src), "-o", str(canon)) == 0
        assert two.read_bytes() == canon.read_bytes()

    def test_cartier_cli(self):
        assert run_cli("cartier", str(CORPUS / "monoid_z2xz2.json")) == 0

    def test_points_cli(self, capsys):
        assert run_cli("points", str(CORPUS / "monoid_z4.json"),
                       "--p", "5") == 0
        out = capsys.readouterr().out
        assert "point count" in out

    def test_points_field_mismatch(self):
        assert run_cli("points", str(CORPUS / "rg_z4_f5.json"),
                       "--p", "7") == 2

    def test_reynolds_cli(self):
        assert run_cli("reynolds", str(CORPUS / "rep_s3_regular.json")) == 0

    def test_reynolds_char_divides_order(self, tmp_path, capsys):
        # S3 regular representation rebuilt over F_3: integral must fail
        from hopfdual.reps import Representation
        F3 = FieldSpec.prime(3)
        rho = Representation.regular(FiniteMonoid.symmetric(3), F3)
        p = tmp_path / "s3_f3.json"
        io.save_representation(rho, p)
        assert run_cli("reynolds", str(p)) == 1
        assert "CharDividesOrder" in capsys.readouterr().out

    def test_exactness_counterexample(self):
        code = run_cli("exactness", str(CORPUS / "rep_z2_f2_unipotent.json"),
                       str(CORPUS / "quotient_z2_f2.json"))
        assert code == 1

    def test_exactness_dependent_subspace(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"subspace": [[1] * 6, [2] * 6]}),
                     encoding="utf-8")
        code = run_cli("exactness", str(CORPUS / "rep_s3_regular.json"),
                       str(q))
        assert code == 2
        assert "dependent" in capsys.readouterr().err

    def test_pbw_cli(self):
        assert run_cli("pbw", str(CORPUS / "lie_heisenberg.json"),
                       "--order", "3") == 0

    def test_pbw_bad_jacobi(self):
        assert run_cli("pbw", str(CORPUS / "lie_sl2_bad.json"),
                       "--order", "2") == 1

    def test_dist_cli(self):
        assert run_cli("dist", "--preset", "gm", "--order", "3") == 0

    def test_tannaka_cli(self):
        assert run_cli("tannaka", str(CORPUS / "monoid_s3.json"),
                       str(CORPUS / "rep_s3_trivial.json"),
                       str(CORPUS / "rep_s3_sign.json")) == 0

    def test_zrep_cli(self):
        assert run_cli("zrep", str(CORPUS / "matrix_f5.json")) == 0

    def test_formal_matrices_cli(self):
        assert run_cli("formal-matrices", "--n", "2", "--order", "2") == 0


class TestReportReproducibility:
    def _json_report(self, tmp_path, name, *argv):
        out = run_module("hopfdual.cli", "--format", "json", *argv)
        doc = json.loads(out.stdout)
        doc.pop("timing_ms")
        return doc, out.returncode

    def test_same_input_same_report(self, tmp_path):
        argv = ("points", str(CORPUS / "monoid_z4.json"), "--p", "13")
        a, code_a = self._json_report(tmp_path, "a", *argv)
        b, code_b = self._json_report(tmp_path, "b", *argv)
        assert a == b and code_a == code_b == 0

    def test_schema_and_digest_present(self, tmp_path):
        doc, _ = self._json_report(tmp_path, "c", "verify",
                                   str(CORPUS / "rg_z2.json"))
        assert doc["schema"] == "hopfdual-report/1"
        assert len(doc["inputs"][0]["sha256"]) == 64
        assert doc["verdict"] == "pass"


def _script_target(pyproject: Path, name: str) -> str:
    """The [project.scripts] entry for name, read as plain text."""
    section = None
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key == name:
                return value.strip('"')
    raise AssertionError(f"no [project.scripts] entry for {name}")


def test_console_entry_point():
    root = Path(__file__).resolve().parents[1]
    assert _script_target(root / "pyproject.toml", "hopfdual") == \
        "hopfdual.cli:main"
    out = run_module("hopfdual", "verify", str(CORPUS / "rg_z3.json"))
    assert out.returncode == 0
    assert "pass" in out.stdout
