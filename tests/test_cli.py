"""Command-line contract: subcommands, formats, determinism, exit codes."""

import json

import pytest

from hyperdet import cli, reference
from hyperdet.cli import main
from hyperdet.polynomials import IntPolynomial, from_json_bytes, to_json_bytes

SHAPE_FLAGS = ["--shape", "2x2x3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_json(capsys):
    code, out, err = run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "6")
    assert code == 0
    poly = from_json_bytes(out)
    assert len(poly) == 66
    assert "kernel dimension 1" in err


def test_invariant_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "6")
    _, out2, _ = run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "6")
    assert out1 == out2
    assert out1.encode() == reference.hyperdet_file_bytes()


def test_invariant_out_file(tmp_path, capsys):
    target = tmp_path / "inv.json"
    code, out, _ = run(
        capsys, "invariant", *SHAPE_FLAGS, "--degree", "6", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_bytes() == reference.hyperdet_file_bytes()


def test_invariant_text_format(capsys):
    code, out, _ = run(
        capsys, "invariant", *SHAPE_FLAGS, "--degree", "6", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "+ a^2 f g l^2"
    assert len(lines) == 66


def test_invariant_text_refused_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("assemble_matrix called")

    monkeypatch.setattr(cli, "assemble_matrix", no_work)
    code, out, err = run(
        capsys, "invariant", "--shape", "3x3x3", "--degree", "6", "--format", "text"
    )
    assert (code, out) == (4, "")
    assert err == "letter text needs <= 26 cells, shape (3, 3, 3) has 27\n"


def test_invariant_empty_cases(capsys):
    code, out, err = run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "3")
    assert code == 2
    assert out == ""
    assert "no weight-zero monomials" in err
    # feasible basis but trivial kernel
    code, _, err = run(capsys, "invariant", "--shape", "2x2x2", "--degree", "2")
    assert code == 2
    assert "no invariant" in err


def test_invariant_degree_12_is_d_squared(capsys):
    """The 4772x1323 degree-12 kernel is certified one-dimensional, and its
    primitive vector is D**2 (primitive by Gauss's lemma, as D is)."""
    fixture = from_json_bytes(reference.hyperdet_file_bytes())
    square = {}
    for e1, c1 in fixture:
        for e2, c2 in fixture:
            exps = tuple(a + b for a, b in zip(e1, e2))
            square[exps] = square.get(exps, 0) + c1 * c2
    d_squared = IntPolynomial(fixture.shape, square)
    assert len(d_squared) == 1039
    code, out, err = run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "12")
    assert code == 0
    assert "kernel dimension 1; 1039 terms" in err
    assert out.encode() == to_json_bytes(d_squared)


def test_invariant_trivial_kernel_2x3x3(capsys):
    code, out, err = run(capsys, "invariant", "--shape", "2x3x3", "--degree", "6")
    assert code == 2
    assert out == ""
    assert "kernel is trivial" in err


def test_invariant_cayley(capsys):
    code, out, _ = run(capsys, "invariant", "--shape", "2x2x2", "--degree", "4")
    assert code == 0
    assert len(from_json_bytes(out)) == 12


def test_invariant_bad_args(capsys):
    assert run(capsys, "invariant", "--shape", "2x2", "--degree", "6")[0] == 4
    assert run(capsys, "invariant", "--shape", "axbxc", "--degree", "6")[0] == 4
    assert run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "x")[0] == 4
    assert run(capsys, "invariant", *SHAPE_FLAGS, "--degree", "-2")[0] == 4


def test_dims_default_range(capsys):
    code, out, _ = run(capsys, "dims", *SHAPE_FLAGS)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [int(r[0]) for r in rows] == list(range(0, 97, 6))
    got = {int(r[0]): int(r[1]) for r in rows}
    for n, d0, _, _ in reference.DIM_TABLE:
        assert got[n] == d0


def test_dims_weight_and_range(capsys):
    code, out, _ = run(
        capsys, "dims", *SHAPE_FLAGS, "--weight", "2,0,0,0", "--degrees", "0:12:6"
    )
    assert code == 0
    assert out == "0\t0\n6\t63\n12\t1206\n"
    code, out, _ = run(capsys, "dims", *SHAPE_FLAGS, "--degrees", "6")
    assert code == 0
    assert out == "6\t80\n"


def test_degrees_range_is_lazy():
    degrees = cli._degrees("0:1000000000000000000:1")
    assert len(degrees) == 10**18 + 1
    assert degrees[-1] == 10**18
    assert list(cli._degrees("6")) == [6]


def test_dims_bad_inputs(capsys):
    assert run(capsys, "dims", *SHAPE_FLAGS, "--weight", "1,2")[0] == 4
    assert run(capsys, "dims", *SHAPE_FLAGS, "--degrees", "6:0:-6")[0] == 4
    assert run(capsys, "dims", *SHAPE_FLAGS, "--degrees", "a:b:c")[0] == 4


def test_dims_verify_conjecture(capsys):
    code, out, _ = run(capsys, "dims", *SHAPE_FLAGS, "--verify-conjecture")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["entries"]) == 51
    assert all(e["match"] for e in doc["entries"])
    assert {i["column"] for i in doc["interpolation"]} == {
        "weight0",
        "weight2000",
        "weight002-1",
    }
    assert all(i["matches_formula"] for i in doc["interpolation"])
    assert run(capsys, "dims", "--shape", "2x2x2", "--verify-conjecture")[0] == 4


@pytest.mark.parametrize(
    "flags",
    [
        ["--weight", "2,0,0,0"],
        ["--weight", "1,0,0,0"],  # infeasible at every degree
        ["--degrees", "6"],
        ["--weight", "2,0,0,0", "--degrees", "6"],
    ],
)
def test_dims_verify_conjecture_refuses_weight_and_degrees(capsys, flags):
    code, out, err = run(capsys, "dims", *SHAPE_FLAGS, *flags, "--verify-conjecture")
    assert (code, out) == (4, "")
    assert flags[0] in err and "--verify-conjecture" in err


def test_orbit_json_and_text(capsys):
    code, out, _ = run(capsys, "orbit", "--seed", "100110010110")
    assert code == 0
    poly = from_json_bytes(out)
    assert len(poly) == 6
    assert {abs(c) for _, c in poly} == {4}
    code, out, _ = run(
        capsys, "orbit", "--seed", "200001100002", "--format", "text"
    )
    assert code == 0
    assert len(out.splitlines()) == 12


def test_orbit_cancelling_seed_is_empty(capsys):
    code, out, err = run(capsys, "orbit", "--seed", "101000000000")
    assert code == 2
    assert out == ""
    assert "zero" in err


def test_orbit_bad_seed(capsys):
    assert run(capsys, "orbit", "--seed", "12345")[0] == 4
    assert run(capsys, "orbit", "--seed", "10011001011x")[0] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", *SHAPE_FLAGS, "--degree", "\u0666"],
        ["invariant", *SHAPE_FLAGS, "--degree", "1_2"],
        ["invariant", *SHAPE_FLAGS, "--degree", " 6"],
        ["invariant", *SHAPE_FLAGS, "--degree", "+6"],
        ["invariant", "--shape", "\uff12x2x3", "--degree", "6"],
        ["invariant", "--shape", "2x2x3 ", "--degree", "6"],
        ["orbit", "--seed", "\u0662\u0660\u0660\u0660\u0660\u0661\u0661\u0660\u0660\u0660\u0660\u0662"],
        ["orbit", "--seed", "2000011000_2"],
        ["dims", *SHAPE_FLAGS, "--degrees", "6:\u0666:6"],
        ["dims", *SHAPE_FLAGS, "--degrees", "6_0"],
        ["dims", *SHAPE_FLAGS, "--weight", "2,0,0,\u0660"],
        ["verify-paper", "--seed", "\uff11"],
    ],
    ids=[
        "degree-arabic", "degree-underscore", "degree-space", "degree-plus", "shape-fullwidth",
        "shape-space", "seed-arabic", "seed-underscore", "degrees-arabic", "degrees-underscore",
        "weight-arabic", "verify-seed-fullwidth",
    ],
)
def test_integer_flags_accept_ascii_digits_only(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (4, "")


@pytest.fixture
def golden_files(tmp_path):
    poly = tmp_path / "D.json"
    poly.write_bytes(reference.hyperdet_file_bytes())
    zero = tmp_path / "zero.json"
    zero.write_bytes(
        b'{"shape":[2,2,3],"slices":[[[0,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}'
    )
    afgl = tmp_path / "afgl.json"
    afgl.write_bytes(
        b'{"shape":[2,2,3],"slices":[[[1,0],[0,0]],[[0,1],[1,0]],[[0,0],[0,1]]]}'
    )
    return poly, zero, afgl


def test_eval_golden(golden_files, capsys):
    poly, zero, afgl = golden_files
    code, out, _ = run(capsys, "eval", "--poly", str(poly), "--array", str(zero))
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "eval", "--poly", str(poly), "--array", str(afgl))
    assert (code, out) == (0, "1\n")


def test_eval_fraction_output(golden_files, tmp_path, capsys):
    poly, _, _ = golden_files
    arr = tmp_path / "frac.json"
    arr.write_bytes(
        b'{"shape":[2,2,3],"slices":[[["1/2",0],[0,0]],[[0,1],[1,0]],[[0,0],[0,1]]]}'
    )
    code, out, _ = run(capsys, "eval", "--poly", str(poly), "--array", str(arr))
    assert (code, out) == (0, "1/4\n")


def test_eval_shape_mismatch(golden_files, tmp_path, capsys):
    poly, _, _ = golden_files
    arr = tmp_path / "small.json"
    arr.write_bytes(b'{"shape":[2,2,2],"slices":[[[0,0],[0,0]],[[0,0],[0,0]]]}')
    code, _, err = run(capsys, "eval", "--poly", str(poly), "--array", str(arr))
    assert code == 3
    assert "shape" in err


def test_eval_parse_errors(golden_files, tmp_path, capsys):
    poly, zero, _ = golden_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{")
    assert run(capsys, "eval", "--poly", str(poly), "--array", str(bad))[0] == 4
    assert run(capsys, "eval", "--poly", str(bad), "--array", str(zero))[0] == 4
    missing = tmp_path / "missing.json"
    assert run(capsys, "eval", "--poly", str(poly), "--array", str(missing))[0] == 4


@pytest.mark.parametrize(
    "poly_bytes",
    [
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":1.5}]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[2.0,0,0,0,0,0,0,0,0,0,0,0],"coeff":"1"}]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[true,0,0,0,0,0,0,0,0,0,0,0],"coeff":"1"}]}',
        b'{"shape":[2.7,2,3],"terms":[{"exps":[1,0,0,0,0,1,1,0,0,0,0,1],"coeff":"1"}]}',
        b'{"shape":[true,2,3],"terms":[{"exps":[1,0,0,0,0,1,1,0,0,0,0,1],"coeff":"1"}]}',
        b'{"shape":["2",2,3],"terms":[{"exps":[1,0,0,0,0,1,1,0,0,0,0,1],"coeff":"1"}]}',
        '{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,1,1,0,0,0,0,1],"coeff":"\u0661"}]}'.encode(),
    ],
    ids=[
        "float-coeff", "float-exponent", "bool-exponent",
        "float-shape", "bool-shape", "str-shape", "arabic-coeff",
    ],
)
def test_eval_rejects_coerced_polynomial(golden_files, tmp_path, capsys, poly_bytes):
    _, _, afgl = golden_files
    bad = tmp_path / "bad_poly.json"
    bad.write_bytes(poly_bytes)
    code, out, err = run(capsys, "eval", "--poly", str(bad), "--array", str(afgl))
    assert (code, out) == (4, "")
    assert "malformed polynomial JSON" in err


def test_eval_rejects_non_list_slices(golden_files, tmp_path, capsys):
    poly, _, _ = golden_files
    bad = tmp_path / "bad_array.json"
    bad.write_bytes(b'{"shape":[2,2,3],"slices":5}')
    code, out, err = run(capsys, "eval", "--poly", str(poly), "--array", str(bad))
    assert (code, out) == (4, "")
    assert "malformed array JSON" in err


@pytest.mark.parametrize(
    "array_bytes",
    [
        '{"shape":[2,2,3],"slices":[[["\u0663/\u0664",0],[0,0]],[[0,1],[1,0]],[[0,0],[0,1]]]}'.encode(),
        b'{"shape":[2,2,3],"slices":[[["1_0",0],[0,0]],[[0,1],[1,0]],[[0,0],[0,1]]]}',
        b'{"shape":[2,2,3],"slices":[[[" 1/2 ",0],[0,0]],[[0,1],[1,0]],[[0,0],[0,1]]]}',
        b'{"shape":[2,1,1],"slices":[{"a":1,"b":2}]}',
    ],
    ids=["arabic-fraction", "underscore", "padded-fraction", "dict-slice"],
)
def test_eval_rejects_malformed_array(golden_files, tmp_path, capsys, array_bytes):
    poly, _, _ = golden_files
    bad = tmp_path / "bad_array.json"
    bad.write_bytes(array_bytes)
    code, out, err = run(capsys, "eval", "--poly", str(poly), "--array", str(bad))
    assert (code, out) == (4, "")
    assert "malformed array JSON" in err


def test_transform_round_trip(golden_files, tmp_path, capsys):
    _, _, afgl = golden_files
    shear = tmp_path / "shear.json"
    shear.write_bytes(b'{"matrix":[[1,2,0],[0,1,0],[0,0,1]]}')
    code, out, _ = run(
        capsys, "transform", "--array", str(afgl), "--mode", "3", "--matrix", str(shear)
    )
    assert code == 0
    doc = json.loads(out)
    # frontal slice 1 gains twice slice 2
    assert doc["slices"][0] == [[1, 2], [2, 0]]
    assert doc["slices"][1] == [[0, 1], [1, 0]]
    ident = tmp_path / "ident.json"
    ident.write_bytes(b'{"matrix":[[1,0],[0,1]]}')
    code, out, _ = run(
        capsys, "transform", "--array", str(afgl), "--mode", "1", "--matrix", str(ident)
    )
    assert code == 0
    assert json.loads(out) == json.loads(afgl.read_bytes())


def test_transform_errors(golden_files, tmp_path, capsys):
    _, _, afgl = golden_files
    shear3 = tmp_path / "shear3.json"
    shear3.write_bytes(b'{"matrix":[[1,2,0],[0,1,0],[0,0,1]]}')
    code, _, _ = run(
        capsys, "transform", "--array", str(afgl), "--mode", "1", "--matrix", str(shear3)
    )
    assert code == 3
    notsquare = tmp_path / "notsquare.json"
    notsquare.write_bytes(b'{"matrix":[[1,2]]}')
    code, _, _ = run(
        capsys, "transform", "--array", str(afgl), "--mode", "3", "--matrix", str(notsquare)
    )
    assert code == 4


@pytest.mark.parametrize("mode", [0, 4, 5])
def test_transform_refuses_modes_the_shape_lacks(golden_files, tmp_path, capsys, mode):
    _, _, afgl = golden_files
    shear3 = tmp_path / "shear3.json"
    shear3.write_bytes(b'{"matrix":[[1,2,0],[0,1,0],[0,0,1]]}')
    code, out, err = run(
        capsys, "transform", "--array", str(afgl), "--mode", str(mode), "--matrix", str(shear3)
    )
    assert (code, out) == (4, "")
    assert err == f"mode must be 1..3, got {mode}\n"


def test_verify_paper_all(capsys):
    code, out, err = run(capsys, "verify-paper")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)
    assert "10/10 checks passed" in err


def test_verify_paper_only_filter(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "dims")
    assert code == 0
    names = [line.split()[1].rstrip(":") for line in out.splitlines()]
    assert names == ["dims-table", "dims-conjecture"]
    code, _, err = run(capsys, "verify-paper", "--only", "no-such-check")
    assert code == 2
    assert "no checks match" in err


# Negative controls: (fixture, corruption, the checks reading it that must FAIL)
CORRUPTIONS = [
    (
        "COEFFICIENTS",
        lambda c: c[:1] + (-c[1],) + c[2:],
        ["coefficient-table", "annihilation", "orbit-decomposition", "invariance"],
    ),
    ("COEFFICIENTS", lambda c: (0,) * len(c), ["annihilation"]),
    (
        "DIM_TABLE",
        lambda t: ((t[0][0], t[0][1] + 1) + t[0][2:],) + t[1:],
        ["dims-table", "dims-conjecture"],
    ),
    # entry 0 replaced by a copy of entry 1
    ("BASIS_DEG6_WEIGHT0", lambda b: b[1:2] + b[1:], ["basis-monomials"]),
]


def test_verify_paper_corrupted_fixture_fails(capsys, monkeypatch):
    for fixture, corrupt, failing in CORRUPTIONS:
        with monkeypatch.context() as patch:
            patch.setattr(reference, fixture, corrupt(getattr(reference, fixture)))
            for name in failing:
                code, out, err = run(capsys, "verify-paper", "--only", name)
                assert code == 1, (fixture, name)
                assert out.startswith(f"FAIL {name}:")
                assert "0/1 checks passed" in err


def bump_weight0(row: int):
    """A DIM_TABLE corruption: add 1 to the weight-zero column of one row."""

    def corrupt(table):
        bumped = (table[row][0], table[row][1] + 1) + table[row][2:]
        return table[:row] + (bumped,) + table[row + 1 :]

    return corrupt


@pytest.mark.parametrize("row", [0, 16])
def test_dims_verify_conjecture_corrupted_table(capsys, monkeypatch, row):
    monkeypatch.setattr(reference, "DIM_TABLE", bump_weight0(row)(reference.DIM_TABLE))
    code, out, _ = run(capsys, "dims", *SHAPE_FLAGS, "--verify-conjecture")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [e["n"] for e in doc["entries"] if not e["match"]] == [6 * row]
    (weight0,) = [i for i in doc["interpolation"] if i["column"] == "weight0"]
    assert "off the interpolated curve" in weight0["error"]


def test_usage_errors_and_help(capsys):
    assert main(["no-such-command"]) == 4
    capsys.readouterr()
    assert main(["invariant", "--shape"]) == 4
    capsys.readouterr()
    assert main([]) == 4
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
