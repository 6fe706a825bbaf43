import argparse
import ast
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftmean
from shiftmean import arith, cli, curveconst, curvelab, harness
from shiftmean.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constant_c2_json(capsys):
    code, out, err = run_cli(["constant", "c2", "--prime-cutoff", "1e4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"value", "tail_bound", "prime_cutoff"}
    assert payload["prime_cutoff"] == 10**4
    assert 0.6 < payload["value"] < 0.7
    assert "config:" in err


def test_constant_preset(capsys):
    code, out, _ = run_cli(["constant", "phi", "--prime-cutoff", "1e5", "--shift", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert 0.3 < payload["value"] < 0.5  # base product times the shift factor 5/4


def test_eval_kstar_full_payload(capsys):
    code, out, _ = run_cli(["eval", "kstar", "561", "--prime-cutoff", "1e5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 561
    assert set(payload) == {
        "N", "Kstar", "Khat", "F_star", "G_star", "G1", "G2", "G3", "G4", "convention",
    }


def test_eval_named_functions(capsys):
    code, out, _ = run_cli(["eval", "totient", "10"], capsys)
    assert code == 0 and json.loads(out)["totient"] == 4
    code, out, _ = run_cli(["eval", "jordan", "6", "--k", "2"], capsys)
    assert code == 0 and json.loads(out)["jordan"] == 24


@pytest.mark.parametrize("argv, exact", [
    (["eval", "totient", "9007199254740993e0"], ["eval", "totient", "9007199254740993"]),
    (["eval", "jordan", "9999999999999999.0", "--k", "1"],
     ["eval", "jordan", "9999999999999999", "--k", "1"]),
])
def test_eval_reads_n_exactly_past_2_53(argv, exact, capsys):
    # an exponent or a decimal point must not round n through a float
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["n"] == int(exact[2])
    assert run_cli(exact, capsys)[1] == out


def test_meanvalue_csv_columns(capsys):
    code, out, _ = run_cli(
        ["meanvalue", "phi", "--x-grid", "1e3,1e4", "--prime-cutoff", "1e5"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,empirical,predicted,residual,normalized"
    assert len(lines) == 3


def test_verify_t2a_normalized_column(capsys):
    code, out, _ = run_cli(
        ["verify", "t2a", "--xmax", "1e4", "--prime-cutoff", "1e5"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith("normalized")
    assert [row.split(",")[0] for row in lines[1:]] == ["1000", "10000"]


def test_verify_gap_csv(capsys):
    code, out, _ = run_cli(
        ["verify", "gap", "--x-grid", "1e3", "--prime-cutoff", "1e4"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,gap"
    assert abs(float(lines[1].split(",")[1])) < 0.1


def test_verify_gap_json(capsys):
    code, out, _ = run_cli(
        ["verify", "gap", "--x-grid", "1e3,1e4", "--prime-cutoff", "1e4", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "gap"
    assert [row["x"] for row in payload["rows"]] == [1000, 10000]
    assert all(abs(row["gap"]) < 0.1 for row in payload["rows"])


def test_curvelab_subcommand(capsys):
    code, out, _ = run_cli(
        ["curvelab", "--n-min", "20", "--n-max", "22", "--prime-cutoff", "1e5"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,expected_m,predicted,ratio"
    assert len(lines) == 4


def test_curvelab_json(capsys):
    code, out, _ = run_cli(
        ["curvelab", "--n-min", "20", "--n-max", "20", "--prime-cutoff", "1e5",
         "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)[0]["N"] == 20


def test_unknown_preset_exits_2_naming_field(capsys):
    code, _, err = run_cli(["meanvalue", "sigma", "--x-grid", "1e3"], capsys)
    assert code == 2
    assert "preset" in err


def test_malformed_grid_exits_2(capsys):
    code, _, err = run_cli(["meanvalue", "phi", "--x-grid", "1e4,1e3"], capsys)
    assert code == 2
    assert "x-grid" in err
    code, _, err = run_cli(["meanvalue", "phi", "--x-grid", "abc"], capsys)
    assert code == 2


def test_missing_grid_exits_2(capsys):
    code, _, err = run_cli(["verify", "t2a"], capsys)
    assert code == 2
    assert "x-grid" in err or "xmax" in err


def test_cutoff_out_of_range_exits_2(capsys):
    code, _, err = run_cli(["constant", "c2", "--prime-cutoff", "1e12"], capsys)
    assert code == 2
    assert "prime-cutoff" in err


def test_runtime_error_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(["eval", "totient", "10", "--output", str(out)], capsys)
    assert code == 1
    assert "runtime error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, env, code, field",
    [
        (["constant", "kstar", "--depth", "0"], None, 2, "--depth"),
        (["constant", "kstar", "--depth", "-3"], None, 2, "--depth"),
        (["meanvalue", "kstar", "--x-grid", "1e3", "--depth", "0"], None, 2, "--depth"),
        (["constant", "kstar", "--shift", "1000003", "--prime-cutoff", "1e6"], None, 2, "--shift"),
        (["meanvalue", "kstar", "--shift", "1000003", "--xmax", "2e6"], None, 2, "--shift"),
        (["eval", "totient", "0"], None, 2, "n:"),
        (["meanvalue", "phi", "--x-grid", "1e3", "--threads", "2"], None, 2, "--threads"),
        (["constant", "c2", "--prime-cutoff", "1e4"], {"SHIFTMEAN_THREADS": "abc"}, 0, None),
        (["curvelab", "--n-min", "20", "--n-max", "20", "--cap", str(curvelab.MAX_ORDER_CAP + 1)],
         None, 2, "--cap"),
        (["meanvalue", "phi", "--shift", "5000", "--x-grid", "1000,2000"], None, 2, "--shift"),
        (["eval", "jordan", "6", "--k", "0"], None, 2, "--k"),
        (["eval", "kstar", "100000000000000000000"], None, 2, "n:"),
        (["eval", "totient", "100000000000000000000"], None, 2, "n:"),
        (["eval", "totient", "10000000000000001"], None, 2, "n:"),
        (["eval", "totient", "inf"], None, 2, "n:"),
        (["meanvalue", "phi", "--x-grid", "1000,inf"], None, 2, "--x-grid"),
        (["meanvalue", "phi", "--x-grid", "1000,2000.7"], None, 2, "--x-grid"),
        (["meanvalue", "phi", "--x-grid", "1000,100000000000000000001"], None, 2, "--x-grid"),
        (["verify", "t2a", "--x-grid", "10,1e30"], None, 2, "--x-grid"),
        (["verify", "t2a", "--xmax", "1e30"], None, 2, "--xmax"),
        (["verify", "gap", "--x-grid", "1000", "--gap-d", "0"], None, 2, "--gap-d"),
        (["verify", "gap", "--x-grid", "1000", "--gap-l", "-3"], None, 2, "--gap-l"),
        (["constant", "kstar", "--shift", "100000000000000000039"], None, 2, "--shift"),
        (["meanvalue", "kstar", "--shift", "100000000000000000039", "--x-grid", "1000"],
         None, 2, "--shift"),
        (["meanvalue", "jordan-3", "--x-grid", "1000,15000001"], None, 2, "--x-grid"),
        (["meanvalue", "jordan-4", "--xmax", "2e7"], None, 2, "--xmax"),
        (["meanvalue", "jordan-1000000000", "--xmax", "2e7"], None, 2, "--xmax"),
        (["eval", "jordan", "6", "--k", "200"], None, 2, "--k"),
        (["eval", "jordan", "100000000000", "--k", "4"], None, 2, "--k"),
        (["eval", "jordan", "1000000", "--k", "40"], None, 2, "--k"),
        (["eval", "jordan", "6", "--k", "1000000000"], None, 2, "--k"),
        (["eval", "totient", "nan"], None, 2, "n:"),
        (["eval", "totient", "1e1000000000"], None, 2, "n:"),
        (["eval", "totient", "1e-1000000000"], None, 2, "n:"),
    ],
)
def test_bad_input_exits_2_naming_field(argv, env, code, field, capsys, monkeypatch):
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects unknown options itself
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    if field is not None:
        assert field in err


@pytest.mark.parametrize("argv", [
    ["meanvalue", "jordan-6", "--x-grid", "1000,3000000"],
    ["meanvalue", "jordan-200", "--x-grid", "1000,2000"],
], ids=["jordan6", "jordan200"])
def test_jordan_grid_past_128_bits_exits_2_before_any_work(argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the grid must be rejected before the run starts")

    monkeypatch.setattr(harness, "run_grid", no_work)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "--x-grid" in err and "128-bit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--gap-d", "--gap-l"])
def test_verify_gap_huge_modulus(flag, capsys):
    # N = 1 alone (d) or no N at all (l) lies in the class below x
    code, out, err = run_cli(
        ["verify", "gap", "--x-grid", "1000", flag, "100000000000000000000"], capsys
    )
    assert code == 0, err
    assert out == "x,gap\n1000,0\n"


CONFIG_ARGV = [
    "constant c2",
    "eval totient 10",
    "meanvalue phi --x-grid 100,200",
    "verify gap --x-grid 100,200",
    "curvelab --n-min 20 --n-max 20",
]


@pytest.mark.parametrize("args", CONFIG_ARGV)
def test_config_echo_has_the_subcommand_options(args, capsys):
    code, _, err = run_cli(args.split(), capsys)
    assert code == 0
    line = next(l for l in err.splitlines() if l.startswith("config: "))
    config = json.loads(line[len("config: "):])
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    name = args.split()[0]
    dests = {a.dest for a in sub.choices[name]._actions if a.dest != "help"}
    assert set(config) == dests | {"subcommand"}
    assert config["subcommand"] == name
    assert config["prime_cutoff"] == 1000000  # parsed from the default "1e6"
    if "x_grid" in config:
        assert config["x_grid"] == [100, 200]
    if "n" in config:
        assert config["n"] == 10


# sha256 of stdout, recorded before the factor functions were reduced to one
# definition each; these calls must stay byte-identical.
GOLDEN_STDOUT = {
    "verify t2a --x-grid 1000,10000,100000":
        "d2084bc690936be925dba7e8884d78149117f91cf86111c76f454db813f3ca06",
    "verify t2b --x-grid 1000,10000,100000":
        "a0ee169c99d8b75746d73b521f1e699322b82a43a727644f653813198e2db346",
    "verify t3 --x-grid 1000,10000,100000":
        "ac4f2be14c21a2a8a121748503e5638b8cfd564f5700226deb8c254d6a38c4f5",
    "verify gap --x-grid 1000,100000":
        "427b8e8140dc2a353340f0cbfa99cb4c59ed7f7242c6fb0517ab809b79376400",
    "meanvalue kstar --x-grid 1000,20000":
        "8acc94dc2f0c563441666672e6ec209cf47f03a4ab5d6b9df6b25d4b78389965",
    "meanvalue phi --x-grid 1000,20000":
        "ae340d52ddaeeafb9c9c4e96d10863578a09624f7168a3a8a810f17ae5230e46",
    "meanvalue jordan-2 --x-grid 1000,20000":
        "3e3b97e4baabdb849b57b64adf236b192f2dc41bbdeb9db020fd670abadf592b",
    "constant c2 --prime-cutoff 1e5":
        "86bcdaf2a78dcba1c05b9b10c3a4f4d5301afba12c2784a32d79f9033337c240",
    "constant kstar --prime-cutoff 1e5":
        "78883115ee21fed52551f461b179651a21ead22ccf73fe80878a4f4fcfd52338",
    # recorded before order_histogram enumerated by quartic cosets
    "curvelab --n-min 20 --n-max 120 --format csv":
        "d8146cade6caed037c721a0837f9817b520e707e264a5cacadc4a294043eab61",
    "curvelab --n-min 20 --n-max 120 --format json":
        "e6b8427521bbf6435e1b347b94882567c1b6fa2c95038b7855cb90df5d7262e5",
    # recorded before every empirical sum went through harness.prefix_dots
    "verify t3 --x-grid 1000,70000,200000":
        "4abaec8cc9be1df64ee02d7bd2b43bd14a6a648a31b41dcb6b7ae26611e80c6b",
    "meanvalue jordan-3 --x-grid 1000,100000":
        "ecf42c8eae79adb229f1a1f95b8d8bed1d0570d12e3ef1935c0fb6a3f3a94ff3",
    # re-recorded when khat's G2 G4 table became curveconst.averaged_order_part_fn
    # rather than the divisor sums of averaged_order_kernel: `empirical` moved
    # by 1 ulp (229924.20364124308 -> ...305; 40 digits: 229924.2036412430651)
    "meanvalue khat --shift 6 --x-grid 1000,150000 --format json":
        "96327c5a4c3a6ed8393e9763c6fadbc9820e1551cb76a1b84829092dff684c98",
    # recorded before the --depth option was removed
    "constant khat --shift 12 --prime-cutoff 1e5":
        "df29c35e0a0b683e35a65cfc07bfe11ae7d108806d9490a1ff76313fbf9ccd14",
    "constant jordan-3 --shift 30 --prime-cutoff 1e5":
        "2da483a12f2bfcda2207c038e2367880ac2423ec473ec7a8b75c41782b7b089d",
    # recorded before integer sums went through 21-bit limbs; each spans
    # several SUM_BLOCKs
    "meanvalue phi --shift 6 --x-grid 150000,400000":
        "dc381d54973c5786ab3d6dd30dd0b85195931a394ae61b45f968e66055375d24",
    "meanvalue jordan-2 --x-grid 100000,300000":
        "7aa39e92f3c03e7c6c89a4a8019282b763202cd94d879bde760b117142be6025",
    # recorded before meanvalue summed its whole grid in one pass; the points
    # sit on both sides of SUM_BLOCK edges after the shift
    "meanvalue kstar --shift 3 --x-grid 1000,65538,65539,65540,131075,200000":
        "16e60d6b2f4325c3b5493dd1e9773f9fb5dcc061caa75c7f89ed781ff604ef33",
    "meanvalue phi --shift 3 --x-grid 1000,65538,65539,65540,131075,200000":
        "20185cfb6f63abdc43fdc2d060487fc388ccb959f678881a60558adb3ae21d65",
    # re-recorded with the khat entry above: four rows' `empirical` moved by 1 ulp
    "meanvalue khat --shift 6 --x-grid 1000,65542,65543,131078,131079,150000 --format json":
        "eaba2690928bbc31e1e40ea8328b93e2b3df7092228335ada6b5194dbf472047",
    # recorded before `verify t2a|t2b|t3` summed through harness.shifted_sum;
    # with shift 1, x = 65537 ends exactly on a SUM_BLOCK edge
    "verify t2b --x-grid 2,3,65537,65538,1000000":
        "fc5b8bc1fd1bee91c776bf4bbd65aeed5653d464cd09ca7b18825a1f84bfdee6",
    "verify t3 --x-grid 1000,131073,2000000 --convention kronecker --format json":
        "c213f3e6205f256a80499a5bb1bc353bcb760ca9c28e35650d75ca8e8913642b",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_STDOUT))
def test_golden_stdout(args, capsys):
    code, out, _ = run_cli(args.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[args]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-subcommand"])
    assert exc.value.code == 2


def test_help_lists_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("phi", "jordan-k", "kstar", "kstar-odd", "khat"):
        assert name in out


def test_output_file_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    args = ["meanvalue", "kstar", "--x-grid", "1e3", "--prime-cutoff", "1e4"]
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"x,empirical")


def test_output_in_slices_keeps_its_bytes(tmp_path, monkeypatch, capsys):
    # a 7-character slice cuts the payload at many places; stdout and the
    # file both get the unsliced text
    args = ["curvelab", "--n-min", "20", "--n-max", "22", "--prime-cutoff", "1e4",
            "--format", "json"]
    whole = tmp_path / "whole.json"
    assert main(args + ["--output", str(whole)]) == 0
    _, out, _ = run_cli(args, capsys)
    monkeypatch.setattr(cli, "EMIT_SLICE", 7)
    sliced = tmp_path / "sliced.json"
    assert main(args + ["--output", str(sliced)]) == 0
    _, sliced_out, _ = run_cli(args, capsys)
    assert sliced.read_bytes() == whole.read_bytes() == out.encode()
    assert sliced_out == out


def test_parser_builds():
    parser = build_parser()
    ns = parser.parse_args(["verify", "t3", "--x-grid", "1e3", "--convention", "kronecker"])
    assert ns.convention == "kronecker"


# Small calls that together cover every subcommand, target, preset, format,
# convention and output mode.
COVERAGE_ARGV = [
    "constant c2 --prime-cutoff 1e4",
    "constant phi --shift 6 --prime-cutoff 1e4",
    "constant jordan-2 --prime-cutoff 1e4",
    "constant kstar --prime-cutoff 1e4 --output {out}",
    "constant kstar-odd --prime-cutoff 1e4",
    "constant khat --prime-cutoff 1e4",
    "eval kstar 561 --prime-cutoff 1e4",
    "eval khat 36 --convention kronecker --prime-cutoff 1e4",
    "eval khat 45 --prime-cutoff 1e4",
    "eval totient 10",
    "eval jordan 6 --k 3",
    "meanvalue phi --x-grid 100,200 --prime-cutoff 1e4",
    "meanvalue jordan-2 --x-grid 100,200 --prime-cutoff 1e4 --format json",
    "meanvalue kstar --shift 2 --x-grid 100,200 --prime-cutoff 1e4",
    "meanvalue kstar-odd --x-grid 100 --prime-cutoff 1e4",
    "meanvalue khat --xmax 2000 --prime-cutoff 1e4",
    "verify t2a --x-grid 100,1000 --prime-cutoff 1e4",
    "verify t2b --xmax 1000 --prime-cutoff 1e4 --format json",
    "verify t3 --x-grid 1000 --prime-cutoff 1e4",
    "verify t3 --x-grid 1000 --convention kronecker --prime-cutoff 1e4",
    "verify gap --x-grid 1000 --prime-cutoff 1e4",
    # past x = 10^4 its differences span more binades than the fixed-point
    # float sum takes, so a block is summed per exponent
    "verify gap --x-grid 20000 --prime-cutoff 1e4",
    "verify gap --x-grid 1000,2000 --gap-d 3 --gap-l 4 --prime-cutoff 1e4 --format json",
    "curvelab --n-min 20 --n-max 22 --prime-cutoff 1e4",
    "curvelab --n-min 20 --n-max 20 --prime-cutoff 1e4 --format json",
]


def _src_defs() -> set:
    """(file, name, first line) of every def in the package, decorators included."""
    defs = set()
    for path in sorted(Path(shiftmean.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                defs.add((str(path), node.name, first))
    return defs


def test_every_src_function_runs_under_the_cli(tmp_path, monkeypatch, capsys):
    # Test-only code belongs in tests/; the package holds what the CLI runs.
    # Empty caches, so each function that fills one is entered.
    curvelab.order_histogram.cache_clear()
    monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int64)))
    curveconst._qr_table.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [main(args.format(out=tmp_path / "out.json").split()) for args in COVERAGE_ARGV]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(COVERAGE_ARGV)
    entered = {(str(Path(f).resolve()), name, line) for f, name, line in entered}
    missing = sorted(f"{Path(f).name}:{line} {name}" for f, name, line in _src_defs() - entered)
    assert missing == []
