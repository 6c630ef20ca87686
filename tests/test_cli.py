"""End to end coverage of the command line interface."""

import io
import json
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adecox import DivisorClass, RootSystemData, SurfaceConfigD, SurfaceFamily, build_lattice
from adecox import cox as cox_module
from adecox import roots as roots_module
from adecox import selftest as selftest_module
from adecox import weights as weights_module
from adecox.cli import N_LIMITS, main
from adecox.selftest import Check


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json_schema(capsys):
    code, out, err = run_cli(capsys, ["enumerate", "--family", "A", "--n", "2", "--what", "lines"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["command"] == "enumerate"
    assert doc["family"] == "A"
    assert doc["n"] == 2
    entry = doc["results"][0]
    assert entry["kind"] == "lines"
    assert entry["count"] == 3
    assert entry["basis"] == ["h", "l1", "l2", "l3"]
    assert len(entry["classes"]) == 3
    assert all(len(row) == 4 for row in entry["classes"])


def test_enumerate_e6_ruling_count(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--family", "E", "--n", "6", "--what", "rulings"])
    assert code == 0
    assert json.loads(out)["results"][0]["count"] == 27


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["enumerate", "--family", "E", "--n", "3", "--what", "lines", "--format", "csv"],
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "h,l1,l2,l3,l4"
    assert len(rows) == 7
    assert rows[1] == "0,0,0,1,0"


def test_enumerate_out_file(capsys, tmp_path):
    target = tmp_path / "lines.json"
    code, out, _ = run_cli(
        capsys,
        ["enumerate", "--family", "D", "--n", "3", "--what", "lines", "--out", str(target)],
    )
    assert code == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["results"][0]["count"] == 6


def test_verify_sym2(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--which", "sym2", "--family", "E", "--n", "5"])
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["pass"]
    assert entry["sym2_total"] == 136
    assert entry["v_total"] == 126
    assert entry["w_total"] == 10


def test_verify_weights_e7(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--which", "weights", "--family", "E", "--n", "7"])
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["pass"]
    assert entry["line_orbit_matches"]
    assert entry["ruling_relation"] == "equal plus zero^7"


def test_verify_hilbert_a3(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--which", "hilbert", "--family", "A", "--n", "3"])
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["pass"]
    assert entry["classes_checked"] == 70
    assert entry["mismatches"] == []


def test_verify_hilbert_d3_needs_points(capsys):
    code, out, err = run_cli(
        capsys,
        ["verify", "--which", "hilbert", "--family", "D", "--n", "3", "--points", "0,1,2"],
    )
    assert code == 0
    assert json.loads(out)["results"][0]["pass"]
    code2, _, err2 = run_cli(capsys, ["verify", "--which", "hilbert", "--family", "D", "--n", "3"])
    assert code2 == 2
    assert err2.startswith("error:")


def test_verify_hilbert_rejects_e_family(capsys):
    code, _, err = run_cli(capsys, ["verify", "--which", "hilbert", "--family", "E", "--n", "6"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [["--family", "D", "--n", "2", "--points", "0,1,2"], ["--family", "A", "--n", "3", "--points", "0,1,2,3"]]
    + [["--family", "E", "--n", str(n)] for n in range(3, 9)],
)
def test_verify_hilbert_refuses_what_has_no_presentation(capsys, argv):
    code, out, err = run_cli(capsys, ["verify", "--which", "hilbert"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--which", "git", "--family", "D", "--n", "3", "--points", "0,1"],
        ["--which", "git", "--family", "A", "--n", "2", "--points", "0,1,2"],
        ["--which", "sym2", "--family", "D", "--n", "4", "--points", "0,1"],
        ["--which", "weights", "--family", "D", "--n", "4", "--points", "0,1,2,3"],
        ["--which", "census", "--family", "D", "--n", "4", "--points", "0,1,2,3"],
        ["--which", "sym2", "--family", "A", "--n", "2", "--max-degree", "-5"],
        ["--which", "census", "--family", "D", "--n", "3", "--max-degree", "3"],
        ["--which", "hilbert", "--family", "A", "--n", "3", "--max-degree", "-1"],
    ],
)
def test_verify_refuses_points_and_degrees_it_does_not_use(capsys, argv):
    code, out, err = run_cli(capsys, ["verify"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_census_e6(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--which", "census", "--family", "E", "--n", "6"])
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 28
    assert all(entry["pass"] for entry in results)
    total = results[-1]
    assert total["check"] == "ruling-census-total"
    assert total["relations_total"] == 81


def test_verify_census_d4(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--which", "census", "--family", "D", "--n", "4"])
    assert code == 0
    assert all(entry["pass"] for entry in json.loads(out)["results"])


def test_verify_git_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--which", "git", "--family", "D", "--n", "3", "--points", "0,1,2",
         "--format", "csv"],
    )
    assert code == 0
    assert out == "k,dim\n0,1\n1,2\n2,3\n3,4\n4,5\n"


def test_verify_git_a_family_all_ones(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--which", "git", "--family", "A", "--n", "2", "--max-degree", "3"],
    )
    assert code == 0
    for entry in json.loads(out)["results"]:
        if "dims" in entry:
            assert entry["dims"] == [1, 1, 1, 1]


@pytest.mark.parametrize("family", ["D", "A"])
def test_verify_git_refuses_a_long_ray_before_any_dimension(capsys, family):
    argv = ["verify", "--which", "git", "--family", family, "--n", "3", "--max-degree", "1000000"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the cap" in err


def test_csv_rejected_for_nested_reports(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "--which", "sym2", "--family", "E", "--n", "5", "--format", "csv"],
    )
    assert code == 2
    assert "csv output is only available" in err


def test_quadrics_d3(capsys):
    code, out, _ = run_cli(capsys, ["quadrics", "--family", "D", "--n", "3", "--points", "0,1,2"])
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["pass"]
    assert entry["certificate"]["certified"]
    assert entry["certificate"]["c"] == ["-1", "2", "-1"]
    assert entry["embedding"]["substitution"] is not None


def test_quadrics_appendix_e3(capsys):
    code, out, _ = run_cli(capsys, ["quadrics", "--family", "E", "--n", "3"])
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["pass"]
    assert entry["left_dim"] == 3
    assert entry["right_dim"] == 2


def test_quadrics_rejects_unsupported_family(capsys):
    code, _, err = run_cli(capsys, ["quadrics", "--family", "E", "--n", "6"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "E", "--n", "3", "--points", "1,2"],
        ["--family", "D", "--n", "2", "--points", "0,1,5"],
        ["--family", "D", "--n", "2", "--points", "0,1"],
    ],
)
def test_quadrics_refuses_points_it_does_not_use(capsys, argv):
    code, out, err = run_cli(capsys, ["quadrics"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--family", "E", "--n", "6", "--what", "lines"], ["selftest"]],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unwritable_selftest_out_exits_2_before_any_check(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("adecox.cli.run_selftest", lambda stream: calls.append(stream) or 0)
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, ["selftest", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out")
    assert calls == []


def test_invalid_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, ["enumerate", "--family", "E", "--n", "9", "--what", "lines"])
    assert code == 2
    assert "error:" in err
    code2, _, err2 = run_cli(
        capsys,
        ["verify", "--which", "hilbert", "--family", "D", "--n", "3", "--points", "0,0,1"],
    )
    assert code2 == 2
    assert "distinct" in err2


@pytest.mark.parametrize("family", ["A", "D"])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--what", "roots"],
        ["verify", "--which", "sym2"],
        ["verify", "--which", "weights"],
        ["verify", "--which", "census"],
        ["quadrics", "--points", "0,1,2"],
    ],
    ids=" ".join,
)
def test_n_past_the_command_limit_exits_2_at_once(capsys, argv, family):
    limit = N_LIMITS[argv[0]]
    for n in (limit + 1, 10**9):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv + ["--family", family, "--n", str(n)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]} accepts n <= {limit}, got {family}{n}\n"


def test_cli_output_is_deterministic():
    argv = [sys.executable, "-m", "adecox", "enumerate", "--family", "E", "--n", "6",
            "--what", "lines"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_selftest_passes_and_writes_out(capsys, tmp_path):
    target = tmp_path / "selftest.txt"
    code, out, _ = run_cli(capsys, ["selftest", "--out", str(target)])
    assert code == 0
    assert "selftest: 9/9 checks passed" in out
    assert target.read_text(encoding="utf-8") == out


def test_selftest_stdout_matches_golden_file():
    golden = Path(__file__).parent / "data" / "selftest_stdout.txt"
    argv = [sys.executable, "-m", "adecox", "selftest"]
    done = subprocess.run(argv, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == golden.read_bytes()


@pytest.mark.parametrize(
    "name, argv",
    [
        (f"census_{kind}{n}.json", ["--which", "census", "--family", kind, "--n", str(n)])
        for kind, n in (("E", 6), ("E", 7), ("E", 8), ("D", 5))
    ]
    + [
        ("hilbert_A3.json", ["--which", "hilbert", "--family", "A", "--n", "3", "--max-degree", "3"]),
        ("hilbert_D2.json", ["--which", "hilbert", "--family", "D", "--n", "2", "--max-degree", "3"]),
        (
            "hilbert_D2.json",
            ["--which", "hilbert", "--family", "D", "--n", "2", "--points", "0,1", "--max-degree", "3"],
        ),
        (
            "hilbert_D4.json",
            ["--which", "hilbert", "--family", "D", "--n", "4", "--points", "0,1,2,3",
             "--max-degree", "3"],
        ),
    ]
    + [
        (f"{which}_{kind}{n}.json", ["--which", which, "--family", kind, "--n", str(n)])
        for which, surfaces in (("sym2", ("E5", "E8", "D4", "A3")), ("weights", ("E7", "E8", "D4", "A3")))
        for kind, n in ((s[0], int(s[1:])) for s in surfaces)
    ]
    + [
        ("git_D3.json", ["--which", "git", "--family", "D", "--n", "3", "--points", "0,1,2"]),
        ("git_D3.csv", ["--which", "git", "--family", "D", "--n", "3", "--points", "0,1,2", "--format", "csv"]),
        ("git_D4.json", ["--which", "git", "--family", "D", "--n", "4"]),
        ("git_A2.json", ["--which", "git", "--family", "A", "--n", "2", "--max-degree", "3"]),
    ]
    + [
        (f"{which}_{surface}.json", ["--which", which, "--family", surface[0], "--n", surface[1:]])
        for which in ("sym2", "weights")
        for surface in ("E3", "D2")
    ],
)
def test_verify_stdout_matches_golden_file(capsys, name, argv):
    golden = Path(__file__).parent / "data" / "cli" / name
    code, out, err = run_cli(capsys, ["verify"] + argv)
    assert code == 0, err
    assert out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("quadrics_D3.json", ["--family", "D", "--n", "3", "--points", "0,1,2"]),
        ("quadrics_D5.json", ["--family", "D", "--n", "5", "--points", "0,1/2,-3,4,7"]),
        ("quadrics_D2.json", ["--family", "D", "--n", "2"]),
        ("quadrics_E3.json", ["--family", "E", "--n", "3"]),
    ],
)
def test_quadrics_stdout_matches_golden_file(capsys, name, argv):
    golden = Path(__file__).parent / "data" / "cli" / name
    code, out, err = run_cli(capsys, ["quadrics"] + argv)
    assert code == 0, err
    assert out.encode("utf-8") == golden.read_bytes()


def test_selftest_rejects_csv_with_exit_2(capsys):
    code, out, err = run_cli(capsys, ["selftest", "--format", "csv"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_selftest_passes_with_asserts_stripped():
    argv = [sys.executable, "-O", "-m", "adecox", "selftest"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 9/9 checks passed" in done.stdout


def test_selftest_reports_failures_with_exit_1(capsys, monkeypatch):
    def broken():
        return ["injected failure"]

    fake = (Check("C1", "always fails", broken, "never printed"),)
    monkeypatch.setattr(selftest_module, "CHECKS", fake)
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 1
    assert "FAIL" in out and "injected failure" in out and "never printed" not in out
    assert "selftest: 0/1 checks passed" in out


def _raiser(exc):
    def boom(*_args, **_kwargs):
        raise exc

    return boom


@pytest.mark.parametrize(
    "name,exc,check_id",
    [
        ("verify_hilbert", ValueError("boom"), "C4"),
        ("decompose_sym2", AssertionError("recursion produced a non-positive multiplicity"), "C2"),
    ],
)
def test_a_raising_check_is_a_fail_row_and_the_others_still_run(capsys, monkeypatch, name, exc, check_id):
    monkeypatch.setattr(selftest_module, name, _raiser(exc))
    code, out, err = run_cli(capsys, ["selftest"])
    assert code == 1
    assert err == ""
    rows = out.splitlines()
    assert len(rows) == 10
    assert [row.split()[0] for row in rows[:9]] == [check.check_id for check in selftest_module.CHECKS]
    failed = [row for row in rows if row.split()[1] == "FAIL"]
    assert len(failed) == 1
    assert failed[0].startswith(check_id)
    assert failed[0].endswith(f"raised {type(exc).__name__}: {exc}")
    assert rows[9] == "selftest: 8/9 checks passed"
    check = next(check for check in selftest_module.CHECKS if check.check_id == check_id)
    assert check.run().passed is False


@pytest.mark.parametrize(
    "argv",
    [
        ["quadrics", "--family", "D", "--n", "3", "--points", "{}"],
        ["verify", "--which", "hilbert", "--family", "D", "--n", "3", "--points", "{}", "--max-degree", "2"],
    ],
)
def test_points_may_start_with_a_minus_sign(capsys, argv):
    points = "-1/2,0,1" if argv[0] == "verify" else "-1,0,2"
    spaced = [points if token == "{}" else token for token in argv]
    code, out, err = run_cli(capsys, spaced)
    assert code == 0, err
    joined = [token for token in spaced if token != points]
    joined[joined.index("--points")] = f"--points={points}"
    code2, out2, _ = run_cli(capsys, joined)
    assert code2 == 0
    assert out == out2


def test_points_as_the_last_token_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["quadrics", "--family", "D", "--n", "3", "--points"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_verify_detects_injected_mismatch(capsys, monkeypatch):
    def fake_decompose(_system):
        report = {
            "family": "E5",
            "line_total": 16,
            "sym2_total": 136,
            "v_total": 126,
            "w_total": 9,
            "expected_w": "ruling weights",
            "w_matches_expected": False,
        }
        return None, None, report

    monkeypatch.setattr(selftest_module, "decompose_sym2", fake_decompose)
    code, out, _ = run_cli(capsys, ["verify", "--which", "sym2", "--family", "E", "--n", "5"])
    assert code == 1
    assert not json.loads(out)["results"][0]["pass"]


@pytest.mark.parametrize(
    "table, key, wrong, argv, check_id, compared",
    [
        ("_E_SYM2", 5, (136, 126, 11), ["--which", "sym2", "--family", "E", "--n", "5"], "C2",
         "w_total 10; predicted totals (136, 126, 11)"),
        ("_E_CENSUS", 6, (3, 80, ()), ["--which", "census", "--family", "E", "--n", "6"], "C5",
         "ruling-census-total: expected_total 80, relations_total 81"),
    ],
)
def test_one_wrong_prediction_fails_verify_and_selftest(
    capsys, monkeypatch, table, key, wrong, argv, check_id, compared
):
    monkeypatch.setitem(getattr(selftest_module, table), key, wrong)
    code, out, _ = run_cli(capsys, ["verify"] + argv)
    assert code == 1
    assert not all(entry["pass"] for entry in json.loads(out)["results"])
    check = next(c for c in selftest_module.CHECKS if c.check_id == check_id)
    result = check.run()
    assert not result.passed
    assert result.details.startswith(f"(E,{key}) ")
    assert compared in result.details


def _uncertified(embed):
    def fake(lattice, config):
        system, report = embed(lattice, config)
        return system, dict(report, certified=False)

    return fake


def _not_ok(check):
    def fake(lattice):
        report, segre = check(lattice)
        return dict(report, ok=False), segre

    return fake


@pytest.mark.parametrize(
    "name, spoil, argv, check_id, named",
    [
        ("embed_cox_into_cone_D", _uncertified, ["--family", "D", "--n", "3", "--points", "0,1,2"], "C6",
         "(D,3) surface-ideal-and-cone"),
        ("appendix_tensor_check", _not_ok, ["--family", "E", "--n", "3"], "C8", "(E,3) tensor-factorization"),
    ],
)
def test_one_failed_certificate_fails_quadrics_and_selftest(
    capsys, monkeypatch, name, spoil, argv, check_id, named
):
    monkeypatch.setattr(selftest_module, name, spoil(getattr(selftest_module, name)))
    code, out, err = run_cli(capsys, ["quadrics"] + argv)
    assert code == 1
    assert err == ""
    assert [entry["pass"] for entry in json.loads(out)["results"]] == [False]
    check = next(c for c in selftest_module.CHECKS if c.check_id == check_id)
    result = check.run()
    assert not result.passed
    assert result.details.startswith(f"{named}: ")


def _one_more_zero_weight(line_weight_multiset):
    def spoilt(system):
        mult = line_weight_multiset(system).as_dict()
        zero = (0,) * system.rank
        mult[zero] = mult.get(zero, 0) + 1
        return weights_module.WeightMultiset.from_dict(mult)

    return spoilt


@pytest.mark.parametrize(
    "module, name, spoil, argv",
    [
        (weights_module, "line_weight_multiset", _one_more_zero_weight, ["weights", "--family", "E", "--n", "6"]),
        (cox_module, "section_dim", lambda f: lambda lat, cls: f(lat, cls) + (cls.coords[0] == 1),
         ["hilbert", "--family", "D", "--n", "3", "--points", "0,1,2", "--max-degree", "2"]),
        (selftest_module, "git_hilbert", lambda f: lambda *args: [d + (k == 1) for k, d in enumerate(f(*args))],
         ["git", "--family", "D", "--n", "3"]),
    ],
    ids=["weights", "hilbert", "git"],
)
def test_one_wrong_comparison_makes_verify_exit_1_with_a_failing_entry(
    capsys, monkeypatch, module, name, spoil, argv
):
    monkeypatch.setattr(module, name, spoil(getattr(module, name)))
    code, out, err = run_cli(capsys, ["verify", "--which"] + argv)
    assert code == 1 and err == ""
    assert any(entry["pass"] is False for entry in json.loads(out)["results"])


def _c4_details_with_section_dim_off_by_one(monkeypatch, wrong):
    """C4's details, and each D surface's mismatches, with ``section_dim``
    one too high on the classes ``a f + ...`` for which ``wrong(a)`` holds."""
    section_dim = cox_module.section_dim
    with monkeypatch.context() as patch:
        patch.setattr(cox_module, "section_dim", lambda lat, cls: section_dim(lat, cls) + wrong(cls.coords[0]))
        result = next(c for c in selftest_module.CHECKS if c.check_id == "C4").run()
        entries = [
            selftest_module._hilbert_entries(selftest_module._lat("D", n), SurfaceConfigD(tuple(range(n))), 6)
            for n in (3, 4, 5)
        ]
    mismatches = [found[0]["mismatches"] for found in entries]
    assert not result.passed
    details = result.details.split("; ")
    assert [d[:5] for d in details] == ["(D,3)", "(D,4)", "(D,5)"]
    return details, mismatches


def test_hilbert_failure_details_name_the_first_classes_and_stay_bounded(monkeypatch):
    few = _c4_details_with_section_dim_off_by_one(monkeypatch, lambda a: a == 1)
    many = _c4_details_with_section_dim_off_by_one(monkeypatch, lambda a: a >= 1)
    for details, mismatches in (few, many):
        for detail, found in zip(details, mismatches):
            shown = ", ".join(f"{m['class']} graded {m['graded']} section {m['section']}" for m in found[:3])
            assert f"mismatches {len(found)}, first {shown}, ok False" in detail
    for small, large, found_small, found_large in zip(few[0], many[0], few[1], many[1]):
        assert len(found_large) > 4 * len(found_small)
        assert len(large) <= len(small) + 2


def _readme_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.split()[:1] == ["adecox"]]


@pytest.mark.parametrize(
    "argv",
    [argv for argv in _readme_commands() if argv[0] in ("enumerate", "verify", "quadrics")],
    ids=" ".join,
)
def test_readme_examples_run(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert out


@pytest.mark.parametrize(
    "alphas,message",
    [
        ([(0, 0, 1, 0, 0)], "simple root fails the root equations"),
        ([(-1, 1, 0, 0, 0)], "simple root not orthogonal to the marking class"),
        ([(0, 0, -1, 1, 0), (0, 0, 1, -1, 0)], "pairing of simple roots is not simply laced"),
    ],
    ids=["root-equation", "orthogonal-to-C", "simply-laced"],
)
def test_root_system_rejects_simple_roots_that_fail_a_check(monkeypatch, alphas, message):
    # On D3 (basis f, s, l1, l2, l3): l1 pairs -1 with K; s - f pairs 0 with
    # K but 1 with C = f; l2 - l1 and l1 - l2 pair to +2, a Cartan entry of
    # -2.  Each must fail loudly rather than return nonsense.
    lattice = build_lattice(SurfaceFamily("D", 3))
    monkeypatch.setattr(roots_module, "simple_roots", lambda _: tuple(DivisorClass(a) for a in alphas))
    with pytest.raises(AssertionError) as info:
        RootSystemData(lattice)
    assert str(info.value) == message


@pytest.mark.parametrize("points", ["0,1,1e30000000", "0,1E3,2", "-2.5e-1,0,1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["quadrics", "--family", "D", "--n", "3", "--points", "{}"],
        ["verify", "--which", "hilbert", "--family", "D", "--n", "3", "--points", "{}", "--max-degree", "2"],
        ["verify", "--which", "git", "--family", "D", "--n", "3", "--points", "{}", "--max-degree", "2"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_points_in_exponent_notation_exit_2_at_once(capsys, argv, points):
    # Fraction("1e30000000") would build 10**30000000 before any check.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, [points if token == "{}" else token for token in argv])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: cannot parse points {points!r}: exponent notation is not accepted\n"


@pytest.mark.parametrize("points", ["+0,-1.5,3/7", "0,-3/2,0.428571", "-0.5,+2,7"])
def test_points_take_integers_fractions_signs_and_decimals(capsys, points):
    argv = ["verify", "--which", "hilbert", "--family", "D", "--n", "3", "--max-degree", "2"]
    code, out, err = run_cli(capsys, argv + ["--points", points])
    assert code == 0, err
    assert json.loads(out)["results"][0]["pass"]


def test_verify_hilbert_refuses_a_report_past_the_cap_before_any_rank_work(capsys, monkeypatch):
    # A40 to degree 4: 148,995 classes of rank 42, 6,257,790 coordinates,
    # although its monomial table (581,790 positions) fits under the cap.
    # Each A monomial is its own class, so the classes are counted as
    # C(41 + 4, 4) without building that table.
    def no_work(*args):
        raise AssertionError("table or rank work before the refusal")

    monkeypatch.setattr(cox_module, "_piece_dim", no_work)
    monkeypatch.setattr(cox_module, "_monomial_table", no_work)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["verify", "--which", "hilbert", "--family", "A", "--n", "40"])
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == (
        "error: hilbert report of 148995 classes of rank 42 up to degree 4 exceeds the cap 1000000\n"
    )


def test_verify_hilbert_still_reports_a24_under_the_cap(capsys):
    code, out, err = run_cli(capsys, ["verify", "--which", "hilbert", "--family", "A", "--n", "24"])
    assert code == 0, err
    entry = json.loads(out)["results"][0]
    assert entry["classes_checked"] * 26 == 617_526 <= cox_module.MONOMIAL_CAP
    assert entry["pass"]


# Each of these escaped as a traceback with exit 1, or passed with exit 0.
REFUSED_INPUTS = {
    "points-dashes": (
        ["verify", "--which", "hilbert", "--family", "D", "--n", "3", "--points=--"],
        "error: --points takes one comma separated list of rationals\n",
    ),
    "points-empty-tokens": (
        ["quadrics", "--family", "D", "--n", "3", "--points", "0,,1,2,"],
        "error: cannot parse points '0,,1,2,': '' is not an integer, p/q or decimal\n",
    ),
    "git-huge-degree-D": (
        ["verify", "--which", "git", "--family", "D", "--n", "4", "--max-degree", "99999999999999999999"],
        "error: ray length 99999999999999999999 exceeds the cap 10000\n",
    ),
    "git-huge-degree-A": (
        ["verify", "--which", "git", "--family", "A", "--n", "4", "--max-degree", "99999999999999999999"],
        "error: ray length 99999999999999999999 exceeds the cap 10000\n",
    ),
}


@pytest.mark.parametrize("name", REFUSED_INPUTS)
def test_malformed_inputs_exit_2_at_once(capsys, name):
    argv, message = REFUSED_INPUTS[name]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == message


@pytest.mark.parametrize("name", REFUSED_INPUTS)
def test_malformed_inputs_exit_2_from_a_cold_process_without_a_traceback(name):
    argv, message = REFUSED_INPUTS[name]
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "adecox", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == message


@pytest.mark.parametrize(
    "points", ["0,1,2,", ",0,1,2", "0, ,1,2", "0,1,2 ,,", "1_0,2,3", ".5,1,2", "5.,1,2", "0x1,2,3"]
)
def test_points_tokens_outside_the_grammar_exit_2(capsys, points):
    code, out, err = run_cli(capsys, ["quadrics", "--family", "D", "--n", "3", "--points", points])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse points {points!r}: ")


_POINT_TOKENS = ["0", "+3", "1/2", "-3/2", "0.5", "", " ", "1/0", "1e3", "x", "--"]
_MUTANT_TOKENS = [
    "--", "-", "", "0", "-1", "9", "99999999999999999999", "1e9", "--points", "--points=--",
    "--n", "--family", "--max-degree", "--format", "X", "csv", "json", "lines",
]


@st.composite
def _argv_lists(draw):
    """An argument list from the CLI grammar (n <= 8, degree <= 3), then up to
    two tokens inserted, replaced or dropped."""
    command = draw(st.sampled_from(["enumerate", "verify", "quadrics"]))
    n = draw(st.integers(-1, 8))
    argv = [command, "--family", draw(st.sampled_from("ADE")), "--n", str(n)]
    if command == "enumerate":
        argv += ["--what", draw(st.sampled_from(["roots", "lines", "rulings"]))]
    if command == "verify":
        argv += ["--which", draw(st.sampled_from(["sym2", "weights", "hilbert", "census", "git"]))]
    if command != "enumerate" and draw(st.booleans()):
        size = draw(st.sampled_from([max(n, 0), draw(st.integers(0, 9))]))
        clean = draw(st.booleans())  # distinct integers, so that some lists are valid
        tokens = st.integers(-3, 9).map(str)
        if not clean:
            tokens = tokens | st.sampled_from(_POINT_TOKENS)
        points = ",".join(draw(st.lists(tokens, min_size=size, max_size=size, unique=clean)))
        argv += draw(st.sampled_from([["--points", points], [f"--points={points}"]]))
    if command == "verify" and draw(st.booleans()):
        argv += ["--max-degree", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(argv)))
        action = draw(st.sampled_from(["insert", "replace", "drop"]))
        if action == "insert":
            argv.insert(i, draw(st.sampled_from(_MUTANT_TOKENS)))
        elif i < len(argv):
            argv[i : i + 1] = [draw(st.sampled_from(_MUTANT_TOKENS))] if action == "replace" else []
    return argv


def _last_points(argv):
    """The ``--points`` value argparse keeps (the last one), or None."""
    text = None
    for i, token in enumerate(argv):
        if token.startswith("--points="):
            text = token[len("--points="):]
        elif token == "--points" and i + 1 < len(argv):
            text = argv[i + 1]
    return text


@settings(max_examples=250, deadline=None, derandomize=True)
@example(argv=REFUSED_INPUTS["points-dashes"][0])
@example(argv=REFUSED_INPUTS["points-empty-tokens"][0])
@example(argv=REFUSED_INPUTS["git-huge-degree-D"][0])
@given(argv=_argv_lists())
def test_cli_main_returns_an_exit_code_on_any_argument_list(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusing the list
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    points = _last_points(argv)
    if code == 0 and points is not None:
        # No token of an accepted point list was dropped.
        assert all(token.strip() for token in points.split(","))
