import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from golden_spectra.algebra import NEG_TAU
from golden_spectra.cli import MAX_MATRIX_ORDER, main
from golden_spectra.censusio import read_hoffman_census, write_hoffman_census
from golden_spectra.enumeration import enumerate_signed
from golden_spectra.model import ParseError, catalog, signed, to_text


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


class TestSpectrumAndCheck:
    def test_spectrum_hoffman(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", to_text(catalog("H_XVI")))
        assert main(["spectrum", path]) == 0
        out = capsys.readouterr().out
        assert "B matrix" in out and "1 + 3*x + 1*x^2" in out
        assert "lambda_min >= -tau: no" in out
        assert "lambda_min >= -1-tau: yes" in out

    def test_spectrum_empty_graph(self, tmp_path, capsys):
        path = write(tmp_path, "e.txt", "sg 0")
        assert main(["spectrum", path]) == 0
        out = capsys.readouterr().out
        assert "lambda_min >= -tau: yes" in out

    def test_spectrum_json(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", "sg 2 +0-1")
        assert main(["spectrum", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["matrix_kind"] == "M"
        assert data["char_poly"] == [-1, 0, 1]
        assert abs(data["lambda_min"] + 1) < 1e-9

    def test_matrix_order_above_the_cap_is_exit_3(self, tmp_path, capsys):
        at_cap = write(tmp_path, "at.txt", f"sg {MAX_MATRIX_ORDER}")
        above = write(tmp_path, "above.txt", f"sg {MAX_MATRIX_ORDER + 1}")
        assert main(["check", "--threshold", "-tau", at_cap]) == 0
        assert main(["check", "--threshold", "-tau", above]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: matrix order") and "Traceback" not in err

    def test_realize_above_the_cap_is_exit_3(self, tmp_path, capsys):
        # refused before any matrix of that order is built
        n = MAX_MATRIX_ORDER + 1
        above = write(tmp_path, "above.txt", to_text(
            signed(n, [(i, i + 1) for i in range(n - 1)])))
        assert main(["realize", above]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: matrix order") and "Traceback" not in err

    def test_check_exit_codes(self, tmp_path, capsys):
        good = write(tmp_path, "good.txt", to_text(catalog("H_XVI")))
        bad = write(tmp_path, "bad.txt", to_text(catalog("K1T(3)")))
        assert main(["check", "--threshold", "-1-tau", good]) == 0
        assert main(["check", "--threshold", "-1-tau", bad]) == 1
        assert main(["check", "--threshold", "-3", bad]) == 0
        capsys.readouterr()

    def test_malformed_input_is_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "hg 1 1")
        assert main(["spectrum", path]) == 3
        assert main(["spectrum", str(tmp_path / "missing.txt")]) == 3
        capsys.readouterr()

    def test_non_integer_json_is_exit_3(self, tmp_path, capsys):
        # int() would truncate "0" and 2.7, and overflow on 1e400 and Infinity
        for command, text in (
                ("special", '{"slim": 2, "fat": 1, "edges": [["0", "2"], [1, 2.7]]}'),
                ("special", '{"slim": 2, "fat": true, "edges": [[0, 2], [1, 2]]}'),
                ("spectrum", '{"n": 1e400}'),
                ("spectrum", '{"n": 2, "plus": [[0, Infinity]]}'),
                ("spectrum", '{"n": 1' + "0" * 5000 + '}')):
            assert main([command, write(tmp_path, "g.json", text)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_deeply_nested_json_is_exit_3(self, tmp_path, capsys):
        # the decoder's recursion ends in a parse error, not a traceback
        path = write(tmp_path, "g.json", '{"n":' + "[" * 100000)
        for command in ("spectrum", "realize"):
            assert main([command, path]) == 3
            err = capsys.readouterr().err
            assert err == "error: bad JSON: nested too deeply\n"

    def test_json_errors_report_no_position(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", '{"n": Infinity}')
        assert main(["special", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 'n' must be an integer, got inf")
        assert "at position" not in err

    @pytest.mark.parametrize("text", ["sg 3_0", "hg 1_0 0", "sg +3",
                                      "sg \u0663 +\u0660-\u0661"])
    def test_non_ascii_decimal_text_is_exit_3(self, tmp_path, capsys, text):
        assert main(["spectrum", write(tmp_path, "g.txt", text)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_census_is_exit_3(self, tmp_path, capsys):
        assert main(["maximal", "--census", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "out")]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_graph_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("sg 2 +0-1 \xe9\n".encode("latin-1"))
        assert main(["spectrum", str(path)]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_census_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "census.txt"
        path.write_bytes(b"\xff\xfe\x00not a census\n")
        assert main(["maximal", "--census", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["enumerate", "--max-n", "5"], ["classify"], ["maximal"]])
    def test_unusable_out_is_exit_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    classification, argv):
        # an --out under a regular file is refused with one error line
        # before the census, the classification or the maximal search runs
        from golden_spectra import cli
        for name in ("enumerate_signed", "classify_irreducible", "maximal_members"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("computed"))
        census = tmp_path / "census-37.txt"
        write_hoffman_census(classification.irreducible, census)
        blocker = tmp_path / "file"
        blocker.write_text("")
        extra = ["--census", str(census)] if argv == ["maximal"] else []
        assert main(argv + extra + ["--out", str(blocker / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_usage_error_is_exit_2(self, tmp_path, capsys):
        assert main(["not-a-command"]) == 2
        assert main(["check"]) == 2
        assert main(["classify", "--jobs", "2", "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()
        assert not (tmp_path / "out").exists()

    def test_float_threshold_rejected(self, tmp_path, capsys):
        # an unparseable cutoff is a usage error (2), not a failed check (1)
        path = write(tmp_path, "g.txt", "sg 1")
        assert main(["check", "--threshold", "-1.6", path]) == 2
        assert "exact" in capsys.readouterr().err
        assert main(["check", "--threshold", "-sqrt2", path]) == 2
        capsys.readouterr()


class TestGraphCommands:
    def test_catalog(self, capsys):
        assert main(["catalog", "H_III"]) == 0
        out = capsys.readouterr().out
        assert "hg 2 1 0-2,1-2" in out
        assert main(["catalog", "Q(1,0,2)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 3
        assert main(["catalog", "NOPE"]) == 3
        capsys.readouterr()

    def test_non_decimal_catalog_parameters_are_exit_3(self, tmp_path, capsys):
        assert main(["catalog", "Q(1,0,+1)"]) == 3
        assert main(["enumerate", "--max-n", "3", "--forbid", "T1,Q(1_0,0,10)",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("error: bad parameters") == 2 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("at_cap, above, huge", [
        ("K1T(63)", "K1T(64)", "K1T(30000000)"),
        ("Q(0,0,64)", "Q(1,0,64)", "Q(0,0,30000)"),
    ])
    def test_catalog_family_above_the_cap_is_exit_3(self, tmp_path, capsys, at_cap, above, huge):
        # a family member with more than MAX_MATRIX_ORDER vertices is
        # refused before it is built, also as a forbidden pattern
        assert main(["catalog", at_cap]) == 0
        capsys.readouterr()
        for name in (above, huge):
            assert main(["catalog", name]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
        assert main(["enumerate", "--max-n", "3", "--forbid", huge,
                     "--out", str(tmp_path / "out")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_special(self, tmp_path, capsys):
        path = write(tmp_path, "h4.txt", to_text(catalog("H_IV")))
        assert main(["special", path]) == 0
        assert capsys.readouterr().out.strip() == "sg 2 +0-1"

    def test_decompose(self, tmp_path, capsys):
        ind = write(tmp_path, "h4.txt", to_text(catalog("H_IV")))
        assert main(["decompose", ind]) == 0
        assert "indecomposable" in capsys.readouterr().out
        dec = write(tmp_path, "hp.txt", "hg 2 3 0-1,0-2,0-4,1-3,1-4")
        assert main(["decompose", dec]) == 0
        out = capsys.readouterr().out
        assert out.count("part") == 2
        # adjacent slim vertices sharing two fat vertices: no special-graph
        # edge joins them, yet no decomposition separates them
        two = write(tmp_path, "g.txt", "hg 2 2 0-1,0-2,0-3,1-2,1-3")
        assert main(["decompose", two]) == 0
        assert capsys.readouterr().out.strip() == "indecomposable"

    @pytest.mark.parametrize("command", ["special", "decompose"])
    def test_slim_count_above_the_cap_is_exit_3(self, tmp_path, capsys, monkeypatch,
                                                command):
        # a 13-byte file with a million slim vertices is refused before
        # the special graph, which is quadratic in the slim count
        import golden_spectra.cli as cli
        import golden_spectra.spectral as spectral
        at_cap = write(tmp_path, "at.txt", f"hg {MAX_MATRIX_ORDER} 0")
        huge = write(tmp_path, "huge.txt", "hg 1000000 0")
        assert main([command, at_cap]) == 0
        capsys.readouterr()
        for module, name in ((spectral, "special_graph"),
                             (cli, "split_by_special_components")):
            monkeypatch.setattr(module, name,
                                lambda g: pytest.fail("an oversized graph was split"))
        started = time.monotonic()
        assert main([command, huge]) == 3
        assert time.monotonic() - started < 5
        err = capsys.readouterr().err
        assert err.startswith("error: matrix order 1000000") and "Traceback" not in err

    def test_realize(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "sg 3 -0-1,1-2")
        assert main(["realize", path]) == 0
        out = capsys.readouterr().out
        assert "1 realizations" in out

    def test_realize_refused_input_is_exit_3(self, tmp_path, capsys):
        # realize runs no check, so a graph it cannot take is malformed
        # input, not a failed check
        for text in ("sg 2", "sg 4 +0-1,2-3"):
            path = write(tmp_path, "s.txt", text)
            assert main(["realize", path]) == 3
            err = capsys.readouterr().err
            assert err == "error: realization requires a connected graph on >= 3 vertices\n"

    def test_wrong_kind(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "sg 2 +0-1")
        assert main(["special", path]) == 3
        capsys.readouterr()


class TestVerify:
    def test_lemma3x(self, capsys):
        assert main(["verify", "lemma3x"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_extension(self, capsys):
        assert main(["verify", "extension", "--p", "1", "--q", "1", "--r", "2"]) == 0
        capsys.readouterr()
        assert main(["verify", "extension"]) == 2
        capsys.readouterr()

    def test_bad_extension_parameters_are_exit_2(self, capsys):
        assert main(["verify", "extension", "--p", "2", "--q", "2", "--r", "3"]) == 2
        assert main(["verify", "extension", "--p", "-1", "--q", "0", "--r", "1"]) == 2
        assert main(["verify", "extension", "--p", "0", "--q", "0", "--r", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_base_case_max_n(self, capsys):
        assert main(["verify", "base-case", "--max-n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["base-case n=1: 1 graphs match brute force",
                         "base-case n=2: 2 graphs match brute force",
                         "base-case n=3: 4 graphs match brute force"]
        assert main(["verify", "base-case", "--max-n", "9"]) == 2
        assert main(["verify", "base-case", "--max-n", "0"]) == 2
        capsys.readouterr()

    def test_all_runs_nine_checks(self, capsys):
        # byte for byte: each line comes from the named check's own code
        # path; each extension base has p+q+r >= 7, so the step decides
        # children
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out == (
            "base-case n=1: 1 graphs match brute force\n"
            "base-case n=2: 2 graphs match brute force\n"
            "base-case n=3: 4 graphs match brute force\n"
            "base-case n=4: 12 graphs match brute force\n"
            "base-case n=5: 13 graphs match brute force\n"
            "three-vertex diagonal sweep: ok\n"
            "extension step (0,0,7): ok\n"
            "extension step (1,1,5): ok\n"
            "extension step (2,1,4): ok\n")


class TestEnumerateCommand:
    def test_writes_census(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["enumerate", "--max-n", "3", "--threshold", "-tau",
                     "--forbid", "T1", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "census-signed-n3.txt").read_text().splitlines()
        assert len(lines) == 7  # 1 + 2 + 4 members
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threshold"] == "-tau"
        assert manifest["counts_per_n"] == {"1": 1, "2": 2, "3": 4}

    def test_out_of_range_max_n_is_exit_2(self, tmp_path, capsys):
        for value in ("13", "-1"):
            assert main(["enumerate", "--max-n", value,
                         "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()
        assert not (tmp_path / "out").exists()

    def test_unparseable_threshold_is_exit_2(self, tmp_path, capsys):
        assert main(["enumerate", "--max-n", "3", "--threshold", "-sqrt2",
                     "--out", str(tmp_path / "out")]) == 2
        assert "cannot parse threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def forbid(self, tmp_path, text: str) -> dict:
        out = tmp_path / "out"
        assert main(["enumerate", "--max-n", "4", "--forbid", text, "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_forbid_parameterised_name(self, tmp_path, capsys):
        manifest = self.forbid(tmp_path, "Q(1,1,2)")
        capsys.readouterr()
        assert manifest["forbidden"] == [to_text(catalog("Q(1,1,2)"))]
        census = enumerate_signed(4, NEG_TAU, (catalog("Q(1,1,2)"),))
        assert manifest["counts_per_n"] == {
            str(n): len(census.members(n)) for n in range(1, 5)}
        assert manifest["counts_per_n"]["4"] < len(enumerate_signed(4).members(4))

    def test_forbid_mixed_list(self, tmp_path, capsys):
        names = ("T1", "Q(0,1,1)", "S22")
        manifest = self.forbid(tmp_path, "T1, Q(0,1,1),S22")
        capsys.readouterr()
        assert manifest["forbidden"] == [to_text(catalog(name)) for name in names]
        census = enumerate_signed(4, NEG_TAU, [catalog(name) for name in names])
        assert manifest["counts_per_n"] == {
            str(n): len(census.members(n)) for n in range(1, 5)}

    @pytest.mark.parametrize("name", ["H_I", "K1T(2)"])
    def test_forbid_hoffman_graph_is_exit_3(self, tmp_path, capsys, name):
        assert main(["enumerate", "--max-n", "3", "--forbid", f"T1,{name}",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["enumerate", "--max-n", "3", "--forbid", "T1",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert (a / "census-signed-n3.txt").read_bytes() == \
               (b / "census-signed-n3.txt").read_bytes()

    def test_empty_census_is_one_newline(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["enumerate", "--max-n", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "census-signed-n0.txt").read_bytes() == b"\n"


# sha256 of the derived census files.  Acceptance checks 01, 03 and 04 are
# red by design (the derivation finds 17/39/20, the source 15/37/18), so
# these digests are what catches any drift in the census.
CENSUS_SHA256 = {
    "census-signed-n7.txt": "b0615f359e9630fe5b540819575d9008bd095dad852517c6c04e22c196ba7cb6",
    "census-15.txt": "1edc2eec2da27909fb9abdf833f4215e239fafd4a7d609a395939926d6ec6de5",
    "census-37.txt": "e7144e5369279e9d72b98ad20399ec4e8b94e8665aa3eb84548263871565ae50",
    "census-18.txt": "deac4590d175e0832bf3bc474847477477f1464909e5b549479d6c2e7862a86b",
}


class TestClassifyAndMaximal:
    def test_full_pipeline(self, tmp_path, capsys, classification):
        out = tmp_path / "census"
        assert main(["classify", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "exceptional census: 15" in text
        assert "irreducible census: 39" in text
        census15 = (out / "census-15.txt").read_text().splitlines()
        assert len(census15) == 15
        census37 = read_hoffman_census(out / "census-37.txt")
        assert len(census37.members) == 39
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["irreducible_count"] == 39
        assert manifest["discrepancies"] == list(classification.discrepancies)
        assert len(manifest["discrepancies"]) == 3
        assert main(["maximal", "--census", str(out / "census-37.txt"),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "maximal members: 20" in text
        maxi = read_hoffman_census(out / "census-18.txt")
        assert len(maxi.members) == 20
        for name, digest in CENSUS_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        # repeated runs are byte-identical
        out2 = tmp_path / "census2"
        assert main(["classify", "--out", str(out2)]) == 0
        capsys.readouterr()
        for name in ("census-15.txt", "census-37.txt", "manifest.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_maximal_of_the_first_two_members(self, tmp_path, capsys, classification):
        # H_I is H_II induced on its slim vertex and one fat neighbour, so
        # the one maximal member is H_II; the largest slim count forces no
        # member here, since H_II's slim vertex has two fat neighbours
        path = tmp_path / "census-37.txt"
        write_hoffman_census(classification.irreducible, path)
        lines = path.read_text().splitlines()
        assert [line.split("\t")[1] for line in lines[:2]] == ["H_I", "H_II"]
        path.write_text("\n".join(lines[:2]) + "\n")
        out = tmp_path / "out"
        assert main(["maximal", "--census", str(path), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[:2] == [
            "maximal members: 1", f"  H_II: {to_text(catalog('H_II'))}"]
        assert [m.name for m in read_hoffman_census(out / "census-18.txt").members] \
            == ["H_II"]


class TestCensusIO:
    def test_round_trip_and_integrity(self, tmp_path, classification):
        path = tmp_path / "census.txt"
        write_hoffman_census(classification.irreducible, path)
        back = read_hoffman_census(path)
        assert [m.key for m in back.members] == \
               [m.key for m in classification.irreducible.members]
        # corrupting the stored key is detected
        lines = path.read_text().splitlines()
        broken = "\n".join(["0" * 8 + lines[0][8:]] + lines[1:])
        bad = tmp_path / "bad.txt"
        bad.write_text(broken + "\n")
        with pytest.raises(ParseError):
            read_hoffman_census(bad)

    @pytest.mark.parametrize("column, value", [
        (4, "1 + 1*x^2"), (5, "0..1"), (6, "-1.000000000000"), (7, "mult=2")])
    def test_tampered_eigenvalue_column_is_exit_3(self, tmp_path, capsys,
                                                  classification, column, value):
        # the stored factor, interval, approximation and multiplicity are
        # checked against the recomputed descriptor, not rewritten
        path = tmp_path / "census-37.txt"
        write_hoffman_census(classification.irreducible, path)
        lines = path.read_text().splitlines()
        fields = lines[0].split("\t")
        assert fields[column] != value
        fields[column] = value
        path.write_text("\n".join(["\t".join(fields)] + lines[1:]) + "\n")
        out = tmp_path / "out"
        assert main(["maximal", "--census", str(path), "--out", str(out)]) == 3
        assert "eigenvalue columns" in capsys.readouterr().err
        assert not (out / "census-18.txt").exists()

    def test_repeated_member_is_exit_3(self, tmp_path, capsys, classification):
        path = tmp_path / "census-37.txt"
        write_hoffman_census(classification.irreducible, path)
        lines = path.read_text().splitlines()
        repeated = next(line for line in lines if "\tH6.1.1\t" in line)
        path.write_text("\n".join(lines + [repeated]) + "\n")
        out = tmp_path / "out"
        assert main(["maximal", "--census", str(path), "--out", str(out)]) == 3
        assert (f"census line {len(lines) + 1}: repeated member"
                in capsys.readouterr().err)
        assert not (out / "census-18.txt").exists()

    @pytest.mark.parametrize("text", ["hg 0 0", f"hg {MAX_MATRIX_ORDER + 1} 0"])
    def test_member_slim_count_outside_the_cap_is_exit_3(self, tmp_path, capsys,
                                                         monkeypatch, text):
        # no slim vertex leaves B empty, and more than MAX_MATRIX_ORDER
        # exceeds the matrix cap of spectrum and check: both are refused
        # before the key search and the descriptor
        import golden_spectra.censusio as censusio
        monkeypatch.setattr(censusio, "canonical_key",
                            lambda g: pytest.fail("a malformed member was keyed"))
        line = "\t".join(["00", "H_I", "Q(0,0,1)", text, "1", "0..1", "0.5", "mult=1"])
        path = write(tmp_path, "census-37.txt", line)
        out = tmp_path / "out"
        assert main(["maximal", "--census", path, "--out", str(out)]) == 3
        assert (f"census line 1: a member needs 1 to {MAX_MATRIX_ORDER} slim vertices"
                in capsys.readouterr().err)
        assert not (out / "census-18.txt").exists()

    def test_edge_signed_line_is_exit_3(self, tmp_path, capsys):
        # a census line holding an edge-signed graph, its key and eigenvalue
        # columns made to match it, is malformed input, not a crash
        from golden_spectra.censusio import _lam_fields
        from golden_spectra.enumeration import lambda_descriptor
        from golden_spectra.iso import canonical_key
        from golden_spectra.model import from_text
        from golden_spectra.spectral import signed_adjacency
        g = from_text("sg 3 +0-1,1-2")
        lam = lambda_descriptor(signed_adjacency(g).entries)
        line = "\t".join([canonical_key(g).hex(), "S3.1", "S3.1", to_text(g),
                          *_lam_fields(lam)])
        path = write(tmp_path, "census-37.txt", line)
        out = tmp_path / "out"
        assert main(["maximal", "--census", path, "--out", str(out)]) == 3
        assert "census line 1: expected a Hoffman graph" in capsys.readouterr().err
        assert not (out / "census-18.txt").exists()


def test_version_matches_pyproject():
    import tomllib
    from golden_spectra import __version__
    from golden_spectra.censusio import TOOL_VERSION
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == TOOL_VERSION == __version__


def test_traced_functions_resolve():
    # perfbench/tracer.py wraps each (module, function) of its TRACED table
    # by name, so a deleted or renamed one fails here, not in a traced run
    import ast
    import importlib
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    table = next(node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    names = [ast.literal_eval(key) for key in table.keys]
    assert len(names) >= 20
    for module, func in names:
        fn = getattr(importlib.import_module(f"golden_spectra.{module}"), func, None)
        assert callable(fn), f"{module}.{func}"


def test_acceptance_imports_resolve():
    # Tier-1 runs with --continue-on-collection-errors, so a deleted name
    # that the acceptance suite imports would turn its tests, failures
    # included, into one collection error; it fails here instead
    import ast
    import importlib
    tests = Path(__file__).resolve().parent
    names = []
    for name in ("test_acceptance.py", "conftest.py"):
        tree = ast.parse((tests / name).read_text(encoding="utf-8"))
        names += [(node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "golden_spectra"
                  for alias in node.names]
    assert len(names) >= 40
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_import_starts_no_process_machinery():
    import subprocess
    import sys
    code = ("import sys, golden_spectra, golden_spectra.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_import_loads_no_dataclasses():
    # the value types are NamedTuples: start-up skips `dataclasses` and the
    # `inspect`, `ast` and `dis` it pulls in; -S keeps site's own imports
    # from loading or hiding them
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import golden_spectra.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"
