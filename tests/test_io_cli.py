import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hopfdual
from hopfdual import cli, io
from hopfdual.bialgebra import (check_hopf, same_structure, verify_algebra,
                                verify_bialgebra, verify_coalgebra)
from hopfdual.cli import main
from hopfdual.exact import FieldSpec, Matrix, inverse
from hopfdual.lie import LieAlgebra, oracle_work
from hopfdual.monoids import FiniteMonoid, monoid_algebra, submonoid_algebra
from hopfdual.report import Report

Q = FieldSpec.rationals()
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv, timeout=None):
    """Run ``python -m <argv>`` on the package these tests import, whether or
    not it is installed."""
    env = dict(os.environ)
    src = str(Path(hopfdual.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                          text=True, check=False, env=env, timeout=timeout)


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

    @pytest.mark.parametrize("change,message", [
        ({"ambient_rank": "x"}, "ambient_rank must be an integer"),
        ({"degree_bound": "x"}, "degree_bound must be an integer"),
        ({"generators": [[2], ["x"]]}, "generators[1][0] must be an integer"),
        ({"generators": [2, 3]}, "generators[0] must be a list of integers"),
        ({"grading": ["x"]}, "grading[0] must be an integer"),
        ({"generators": 5}, "generators must be a list"),
    ], ids=["ambient_rank", "degree_bound", "generator_entry",
            "generator_number", "grading", "generators_number"])
    def test_malformed_submonoid_spec_names_the_file(self, tmp_path, change,
                                                     message):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"ambient_rank": 1, "degree_bound": 6,
                                    "generators": [[2], [3]], **change}),
                        encoding="utf-8")
        with pytest.raises(io.FileFormatError) as err:
            io.load_submonoid_spec(path)
        assert str(err.value) == f"{path}: {message}"

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

    def test_exactness_by_the_whole_space(self, tmp_path, capsys):
        # the quotient is 0-dimensional: its invariants are trivially hit
        q = tmp_path / "whole.json"
        q.write_text(json.dumps({"subspace": [
            ["1" if j == i else "0" for j in range(6)] for i in range(6)]}),
            encoding="utf-8")
        code = run_cli("exactness", str(CORPUS / "rep_s3_regular.json"),
                       str(q))
        assert code == 0, capsys.readouterr()

    def test_exactness_subspace_file_errors(self, tmp_path, capsys):
        rep = str(CORPUS / "rep_s3_regular.json")
        not_sub = str(CORPUS / "rep_s3_sign.json")
        assert run_cli("exactness", rep, not_sub) == 2
        assert capsys.readouterr().err == (
            f"error: {not_sub}: expected an object with 'subspace'\n")
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"subspace": [["1"] * 5 + ["x"]]}),
                     encoding="utf-8")
        assert run_cli("exactness", rep, str(q)) == 2
        assert capsys.readouterr().err == (
            f"error: {q}: bad scalar 'x' for Rationals: Invalid literal for "
            "Fraction: 'x'\n")
        assert io.load_subspace(CORPUS / "quotient_z2_f2.json",
                                FieldSpec.prime(2), 2) == [(1, 0)]

    @pytest.mark.parametrize("length", [2, 7], ids=["short", "long"])
    def test_exactness_subspace_vector_of_the_wrong_length(
            self, tmp_path, capsys, length):
        rep = str(CORPUS / "rep_s3_regular.json")
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"subspace": [["1", "-1"] + ["0"] * 4,
                                              ["1"] * length]}),
                     encoding="utf-8")
        assert run_cli("exactness", rep, str(q)) == 2
        assert capsys.readouterr().err == (
            f"error: {q}: subspace[1] must be a list of 6 scalars\n")

    @pytest.mark.parametrize("matrix", ["3", 5, [1, 2], [["1"], "2"]],
                             ids=["string", "number", "number_rows",
                                  "string_row"])
    def test_matrix_file_needs_a_list_of_rows(self, tmp_path, capsys,
                                              matrix):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"field": {"kind": "PrimeField", "p": 5},
                                    "matrix": matrix}), encoding="utf-8")
        assert run_cli("zrep", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: matrix must be a list of rows, each a list of "
            "scalars\n")

    @pytest.mark.parametrize("rows", ["1", 1, ["1"], [1]],
                             ids=["string", "number", "string_rows",
                                  "number_rows"])
    def test_representation_file_needs_lists_of_rows(self, tmp_path, capsys,
                                                     rows):
        obj = json.loads((CORPUS / "rep_s3_sign.json").read_text(
            encoding="utf-8"))
        obj["monoid"] = json.loads((CORPUS / "monoid_s3.json").read_text(
            encoding="utf-8"))
        obj["matrices"]["012"] = rows
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run_cli("reynolds", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: matrix for '012' must be a list of rows, each a "
            "list of scalars\n")

    @pytest.mark.parametrize("command,doc,message", [
        ("verify", {"basis": 5}, "basis must be a list of names"),
        ("verify", {"mult": [[[0], 0, 0, "1"]]},
         "mult[0]: indices must be integers"),
        ("verify", {"mult": [[0, None, 0, "1"]]},
         "mult[0]: indices must be integers"),
        ("verify", {"comult": [[0, 0, None, "1"]], "counit": ["1"]},
         "comult[0]: indices must be integers"),
        ("pbw", {"basis": 5}, "basis must be a list of names"),
        ("pbw", {"brackets": 5},
         "brackets must be a list of [i, j, [[k, coeff]..]] entries"),
        ("pbw", {"brackets": [[None, 1, [[1, "1"]]]]},
         "brackets[0]: indices must be integers"),
    ], ids=["basis_number", "mult_index_list", "mult_index_null",
            "comult_index_null", "lie_basis_number", "lie_brackets_number",
            "lie_bracket_key_null"])
    def test_malformed_structure_file_names_the_file(self, tmp_path, capsys,
                                                     command, doc, message):
        base = ({"field": {"kind": "Rationals"}, "dim": 1, "basis": ["e"],
                 "mult": [[0, 0, 0, "1"]], "unit": ["1"]}
                if command == "verify" else
                {"field": {"kind": "Rationals"}, "dim": 2,
                 "basis": ["x", "y"], "brackets": [[0, 1, [[1, "1"]]]]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, **doc}), encoding="utf-8")
        argv = [command, str(path)] + (["--order", "2"]
                                       if command == "pbw" else [])
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command,doc,message", [
        ("verify", {"dim": 2.9}, "dim must be an integer"),
        ("verify", {"mult": [[0, 0, 0, "1"], [0, 1.7, 1, "1"],
                             [1, 0, 1, "1"], [1, 1, 0, "1"]]},
         "mult[1]: indices must be integers"),
        ("zrep", {"field": {"kind": "PrimeField", "p": 7.9}},
         "field p must be an integer"),
        ("pbw", {"brackets": [[0, True, [[1, "1"]]]]},
         "brackets[0]: indices must be integers"),
        ("pbw", {"brackets": [[0, 1, [[True, "1"]]]]},
         "brackets[0]: indices must be integers"),
        ("cartier", {"unit": True}, "unit must be an integer"),
        ("cartier", {"invariant_factors": [2.0, 4.5]},
         "invariant_factors[1] must be an integer"),
    ], ids=["dim_float", "tensor_index_float", "field_p_float",
            "bracket_key_bool", "bracket_value_index_bool", "monoid_unit_bool",
            "invariant_factor_float"])
    def test_non_integer_numbers_name_the_file(self, tmp_path, capsys,
                                               command, doc, message):
        # int() would read 2.9 as 2, 1.7 as 1, 7.9 as 7 and true as 1, and
        # each command would run on a structure the file does not state
        base = {
            "verify": {"field": {"kind": "Rationals"}, "dim": 2,
                       "basis": ["a", "b"], "unit": ["1", "0"],
                       "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                                [1, 0, 1, "1"], [1, 1, 0, "1"]]},
            "zrep": {"field": {"kind": "PrimeField", "p": 7},
                     "matrix": [["1", "0"], ["0", "2"]]},
            "pbw": {"field": {"kind": "Rationals"}, "dim": 2,
                    "basis": ["x", "y"], "brackets": [[0, 1, [[1, "1"]]]]},
            "cartier": {"elements": ["1", "g"], "table": [[0, 1], [1, 0]],
                        "unit": 0},
        }[command]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, **doc}), encoding="utf-8")
        argv = [command, str(path)] + (["--order", "2"]
                                       if command == "pbw" else [])
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        # the same file with integers where the numbers were runs
        fixed = json.dumps({**base, **doc}).replace("2.9", "2").replace(
            "1.7", "1").replace("7.9", "7").replace("4.5", "4").replace(
            "true", "1" if command == "pbw" else "0")
        path.write_text(fixed, encoding="utf-8")
        assert run_cli(*argv) == 0

    @pytest.mark.parametrize("subspace", [[7], "1", [["1", "0"], 7]],
                             ids=["number_rows", "string", "number_row"])
    def test_subspace_file_needs_a_list_of_rows(self, tmp_path, capsys,
                                                subspace):
        rep = str(CORPUS / "rep_s3_regular.json")
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"subspace": subspace}), encoding="utf-8")
        assert run_cli("exactness", rep, str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: subspace must be a list of rows, each a list of "
            "scalars\n")

    def test_verify_runs_each_sweep_once(self, monkeypatch, capsys):
        calls = []
        for name in ("verify_algebra", "verify_coalgebra",
                     "verify_compatibility"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda A, real=real, name=name:
                                calls.append(name) or real(A))
        A = io.load_bialgebra(CORPUS / "bad_rg_z2_gg_zero.json")
        assert run_cli("--format", "json", "verify",
                       str(CORPUS / "bad_rg_z2_gg_zero.json")) == 1
        assert sorted(calls) == ["verify_algebra", "verify_coalgebra",
                                 "verify_compatibility"]
        checks = json.loads(capsys.readouterr().out)["checks"]
        want = Report("")
        want.extend(verify_algebra(A), prefix="algebra: ")
        want.extend(verify_coalgebra(A), prefix="coalgebra: ")
        want.extend(verify_bialgebra(A), prefix="bialgebra: ")
        want.extend(check_hopf(A), prefix="hopf: ")
        assert checks == want.to_dict()["checks"]

    def test_pbw_cli(self):
        assert run_cli("pbw", str(CORPUS / "lie_heisenberg.json"),
                       "--order", "3") == 0

    def test_pbw_bad_jacobi(self):
        assert run_cli("pbw", str(CORPUS / "lie_sl2_bad.json"),
                       "--order", "2") == 1

    def test_pbw_refuses_an_oracle_over_budget(self, tmp_path, capsys):
        # sl2 + sl2: the oracle at order 5 has 15 relations times 985 word
        # pairs in rows 9331 words wide, 137,865,525 cells against the
        # default budget of 10**7
        sl2 = {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}
        brackets = {**sl2, **{(i + 3, j + 3): {k + 3: c for k, c in e.items()}
                              for (i, j), e in sl2.items()}}
        path = tmp_path / "sl2_sl2.json"
        L = LieAlgebra(Q, ("e", "f", "h", "e2", "f2", "h2"), brackets)
        path.write_text(io.dump_canonical(io.lie_to_json(L)),
                        encoding="utf-8")
        proc = run_module("hopfdual", "--format", "json", "pbw", str(path),
                          "--order", "5", timeout=10)
        assert proc.returncode == 1
        (check,) = json.loads(proc.stdout)["checks"]
        assert (check["name"], check["status"]) == ("BudgetExceeded", "fail")
        assert "137865525" in check["witness"]
        # a budget that covers the oracle lets the run start; at order 2
        # it finishes
        assert run_cli("--budget", str(oracle_work(6, 2)), "pbw", str(path),
                       "--order", "2") == 0
        assert run_cli("--budget", str(oracle_work(6, 2) - 1), "pbw",
                       str(path), "--order", "2") == 1
        assert "BudgetExceeded" in capsys.readouterr().out

    @pytest.mark.parametrize("order", (24, 30))
    def test_pbw_refuses_a_large_order_on_the_budget(self, capsys, order):
        # the oracle's budget is checked first, before the truncation of
        # C(3 + order, 3) monomials is built
        assert run_cli("--format", "json", "pbw",
                       str(CORPUS / "lie_sl2.json"), "--order",
                       str(order)) == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert (check["name"], check["status"]) == ("BudgetExceeded", "fail")
        assert str(oracle_work(3, order)) in check["witness"]

    def test_pbw_straightens_a_long_power_at_once(self):
        # the word of x^24 is 24 equal letters: one distinct rearrangement,
        # where all 24! orderings would never finish
        proc = run_module("hopfdual", "pbw", str(CORPUS / "lie_abelian1.json"),
                          "--order", "24", timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_pbw_refuses_a_coproduct_sweep_over_budget(self, capsys):
        # abelian1 has no oracle relations; the Delta(xy) sweep at order N
        # reads C(N + 4, N) coefficient pairs: 4,598,126 at order 100
        path = str(CORPUS / "lie_abelian1.json")
        started = time.perf_counter()
        assert run_cli("--format", "json", "--budget", "1", "pbw", path,
                       "--order", "100") == 1
        assert time.perf_counter() - started < 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check == {"name": "BudgetExceeded", "status": "fail",
                         "witness": "4598126 coefficient pairs of the "
                                    "Delta(xy) sweep at order 100 exceed "
                                    "budget 1"}
        # C(7, 3) = 35 at order 3
        assert run_cli("--budget", "35", "pbw", path, "--order", "3") == 0
        assert run_cli("--budget", "34", "pbw", path, "--order", "3") == 1

    @pytest.mark.parametrize("argv", [
        ["cartier", str(CORPUS / "monoid_z4.json")],
        ["points", str(CORPUS / "monoid_z4.json")],
        ["tannaka", str(CORPUS / "monoid_s3.json")],
        ["zrep", str(CORPUS / "matrix_f5.json")],
    ], ids=lambda argv: argv[0])
    def test_p_zero_is_out_of_range(self, capsys, argv):
        assert run_cli(*argv, "--p", "0") == 2
        assert capsys.readouterr().err == "error: modulus out of range: 0\n"

    def test_dist_cli(self):
        assert run_cli("dist", "--preset", "gm", "--order", "3") == 0

    @pytest.mark.parametrize("preset", ("ga", "gm", "u2"))
    def test_dist_refuses_a_product_sweep_over_budget(self, capsys, preset):
        # at order 4 the sweep reads 5^3 * 6 / 2 = 375 coefficient pairs
        argv = ["dist", "--preset", preset, "--order", "4"]
        assert run_cli("--format", "json", "--budget", "374", *argv) == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check == {"name": "BudgetExceeded", "status": "fail",
                         "witness": "375 coefficient pairs of the product "
                                    "sweep at order 4 exceed budget 374"}
        assert run_cli("--budget", "375", *argv) == 0
        assert run_cli(*argv) == 0
        # an order the command refuses as malformed is not over budget
        assert run_cli("--budget", "1", "dist", "--preset", preset,
                       "--order", "-1000000") == 2

    def test_dist_refuses_order_160_at_once(self, capsys):
        started = time.perf_counter()
        assert run_cli("--format", "json", "dist", "--preset", "gm",
                       "--order", "160") == 1
        assert time.perf_counter() - started < 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["witness"] == ("338035761 coefficient pairs of the "
                                    "product sweep at order 160 exceed "
                                    "budget 10000000")

    def test_tannaka_cli(self):
        assert run_cli("tannaka", str(CORPUS / "monoid_s3.json"),
                       str(CORPUS / "rep_s3_trivial.json"),
                       str(CORPUS / "rep_s3_sign.json")) == 0

    def test_zrep_cli(self):
        assert run_cli("zrep", str(CORPUS / "matrix_f5.json")) == 0

    def test_zrep_large_prime_is_bounded(self, tmp_path):
        # companion blocks of x^2 + 1 (irreducible: 2^31 - 1 is 3 mod 4),
        # (x - 2)^2 and x - 3, conjugated; trial division would try p^2
        # quadratics and an eigenvalue scan p field elements
        p = 2**31 - 1
        blocks = [[[0, p - 1], [1, 0]], [[0, p - 4], [1, 4]], [[3]]]
        n = sum(len(b) for b in blocks)
        m = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                m[off + i][off:off + len(row)] = row
            off += len(b)
        big = FieldSpec.prime(p)
        u = Matrix.from_int_rows(big, [[int(j >= i) for j in range(n)]
                                       for i in range(n)])
        conj = u * Matrix.from_int_rows(big, m) * inverse(u)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "field": {"kind": "PrimeField", "p": p},
            "matrix": [[str(x) for x in row] for row in conj.entries]}),
            encoding="utf-8")
        out = run_module("hopfdual", "--format", "json", "zrep", str(path),
                         timeout=120)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["verdict"] == "pass"
        assert [c["name"] for c in doc["checks"]] == [
            "reassembled matrix is similar to the input",
            "summand F_p[x]/((1 + x^2)^1)^1",
            f"summand F_p[x]/(({p - 3} + x)^1)^1",
            f"summand F_p[x]/(({p - 2} + x)^2)^1",
        ]

    def test_formal_matrices_cli(self):
        assert run_cli("formal-matrices", "--n", "2", "--order", "2") == 0

    def test_formal_matrices_reads_generators_only(self, capsys):
        # C(16 + 4, 4) functionals, certified on the 16 generators
        started = time.perf_counter()
        assert run_cli("--format", "json", "formal-matrices", "--n", "4",
                       "--order", "4") == 0
        assert time.perf_counter() - started < 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[-1] == {"name": "dual basis size", "status": "pass",
                              "witness": "4845 functionals"}

    @pytest.mark.parametrize("n, order, witness", [
        (2, 10000, "C(10004, 10000) functionals exceed budget 10000000"),
        (10**9, 10**9, "C(1000000001000000000, 1000000000) functionals "
                       "exceed budget 10000000")])
    def test_formal_matrices_refuses_a_basis_over_budget(self, capsys, n,
                                                         order, witness):
        started = time.perf_counter()
        assert run_cli("--format", "json", "formal-matrices", "--n", str(n),
                       "--order", str(order)) == 1
        assert time.perf_counter() - started < 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check == {"name": "BudgetExceeded", "status": "fail",
                         "witness": witness}


def test_reused_parser_keeps_no_state(capsys):
    """main reuses one parser per process; a sequence of calls in one
    process (a usage error, a seeded run, an unseeded run) prints what a
    fresh parser prints for each call."""
    rg = str(CORPUS / "rg_z2.json")
    calls = [["verify"],
             ["--format", "json", "--seed", "5", "verify", rg],
             ["--format", "json", "verify", rg]]

    def run(argv):
        code = main(list(argv))
        out = capsys.readouterr()
        text = out.out
        if text.startswith("{"):
            doc = json.loads(text)
            doc.pop("timing_ms")
            text = doc
        return code, text, out.err

    reused = [run(argv) for argv in calls]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0]
    assert "usage:" in reused[0][2]
    assert reused[1][1]["seed"] == 5 and reused[2][1]["seed"] is None


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
