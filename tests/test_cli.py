"""Command line behavior: parsing, rendering, serialization, exit codes."""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from wildrep import (
    SeededRng,
    StabilizerReport,
    basis_dim,
    cli,
    exactfield,
    make_ci_variety,
    moduli,
    polyspace,
    presentation,
    restriction,
    wildness_certificate,
)
from wildrep.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    MAX_MATRIX_CELLS,
    RunConfig,
    build_parser,
    largest_matrix,
    main,
    render_table_markdown,
    run,
    serialize_report,
    table_dict,
    wildness_dict,
)
from conftest import GOLDEN_DIR, cached_bundle
from oracles import closed_form_table, cohomology_table_exact, table_from_dict
from test_polyspace import _common_factor_variety


def test_parser_defaults():
    args = build_parser().parse_args(["construct", "--n", "2"])
    assert args.command == "construct"
    # --s defaults to None, so that run can tell a given --s from an absent
    # one; bound and certify apply DEFAULT_S = 3 themselves
    assert (args.a, args.s, args.prime, args.seed) == (1, None, 32003, 0)
    assert args.ci_degrees == []
    assert args.format == "json"
    assert args.t_min is None and args.t_max is None


def test_parser_table_defaults_to_markdown():
    args = build_parser().parse_args(["table", "--n", "3"])
    assert args.format == "markdown"
    args = build_parser().parse_args(["restrict", "--n", "3", "--ci-degrees", "2"])
    assert args.format == "markdown"
    assert args.ci_degrees == [2]


def test_parser_requires_command_and_n():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["table"])
    assert exc.value.code == 2


def test_serialize_report_canonical():
    text = serialize_report({"b": 1, "a": 2})
    assert text.endswith("\n")
    body = json.loads(text)
    assert body["tool_version"]
    # sorted keys: "a" precedes "b" precedes "tool_version"
    assert text.index('"a"') < text.index('"b"') < text.index('"tool_version"')


def test_render_markdown_shape():
    kb, _ = cached_bundle(2, 1, seed=0)
    table = cohomology_table_exact(kb, (-2, 1))
    text = render_table_markdown(table, "hdr")
    lines = text.splitlines()
    assert lines[0] == "hdr"
    assert lines[2] == "| h^i \\ t | -2 | -1 | 0 | 1 |"
    assert lines[3] == "|---|---|---|---|---|"
    assert lines[4] == "| h^0 | 0 | 0 | 0 | 4 |"
    assert lines[5] == "| h^1 | 2 | 2 | 0 | 0 |"
    assert text.endswith("\n")


def test_table_dict_round_trip():
    kb, _ = cached_bundle(2, 1, seed=0)
    table = cohomology_table_exact(kb, (-4, 2))
    assert table_from_dict(table_dict(table)) == table


def test_construct_exit_ok(capsys):
    code = main(["construct", "--n", "2"])
    assert code == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["bundle_rank"] == 2
    assert body["certificate"]["surjective_at_degree"] == 1
    assert body["phi"]["a_tgt"] == 2 and body["phi"]["b_src"] == 4


def test_table_command_markdown(capsys):
    code = main(["table", "--n", "2", "--t-min", "-2", "--t-max", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "| h^2 |" in out
    assert out.splitlines()[2].startswith("| h^i \\ t | -2 |")


# sha256 of the markdown output at seed 7, headers included
MARKDOWN_DIGESTS = {
    ("table", "--n", "2"):
        "d7d28ea4dacd5253c7346ca57866027244da9ad4bfba6df9ab893310cfc4c1da",
    ("table", "--n", "3", "--a", "2", "--t-min", "-2", "--t-max", "1"):
        "9befa9c7e9bd4ad00aa8c89a6beaa41f939eeebeba828ea3add615467dcaf00b",
    ("restrict", "--n", "3", "--ci-degrees", "2"):
        "0855e612adac618f0abf0955ab0ff2e62e005cec065d481bdbe160484eb6d5f1",
    ("restrict", "--n", "4", "--ci-degrees", "2", "2"):
        "7f0316cb4ca5b87da6a8988465a380d7ea0b1f3aef8f4bdcc6cbb8b5f53cd00f",
}


@pytest.mark.parametrize("argv", sorted(MARKDOWN_DIGESTS))
def test_markdown_output_is_pinned(argv, capsys):
    assert main([*argv, "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MARKDOWN_DIGESTS[argv]


# sha256 of the JSON output at seed 7 of the commands that no golden file
# or digest list pins otherwise
JSON_DIGESTS = {
    ("construct", "--n", "3", "--a", "2", "--prime", "101"):
        "86ebcdd59bc7312ec30ae7d770676f9e01161949df73e5ba6069e806e7240207",
    ("construct", "--n", "3", "--a", "2", "--prime", "2147483647"):
        "019bd694d6a76a8ddffdf07f04d4001e7909f9287795573f633ad2e3f3fa37fa",
    ("simplicity", "--n", "3", "--a", "2", "--prime", "101"):
        "720a096cc5ee549d573118cf077b684a2ea0211bd4fcfe40904851f1ab9948ad",
    ("simplicity", "--n", "3", "--a", "2", "--prime", "2147483647"):
        "a9e6cc5a399aea1286d58e6fe9044f5a34545a938235164b6611caf5aa4cca36",
    ("bound", "--n", "3", "--ci-degrees", "2", "--prime", "101"):
        "e13ce906c8bf696b1c382210a4eeeb952377c10626f8d36cc0c26bd0b23f8be4",
    ("bound", "--n", "3", "--ci-degrees", "2", "--prime", "2147483647"):
        "893c7079a75b351dbb04c90a2279dc6a3c118a84e4a40fa368cd8d54be9db7f1",
    ("bound", "--n", "4", "--a", "2", "--prime", "101"):
        "f88fe733c78f28c6ad0f0b9172b77ddec7a9d4a537dd1212492ed43955d6982e",
    ("bound", "--n", "4", "--a", "2", "--prime", "2147483647"):
        "f51da04422b7ea1defd8ac718b6effb8d174d1a5fa2da712274bc698d6047c6a",
}


@pytest.mark.parametrize("argv", sorted(JSON_DIGESTS))
def test_json_output_is_pinned(argv, capsys):
    assert main([*argv, "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[argv]


def test_restrict_without_forms_is_the_ambient_table(capsys):
    # P^n is the complete intersection of no forms: only the key differs
    bodies = []
    for command in ("restrict", "table"):
        assert main([command, "--n", "4", "--a", "2", "--format", "json"]) == EXIT_OK
        bodies.append(json.loads(capsys.readouterr().out))
    restricted, ambient = bodies
    assert restricted.pop("ci_degrees") == []
    assert restricted == ambient


def test_restrict_command_json(capsys):
    code = main(
        ["restrict", "--n", "3", "--ci-degrees", "2", "--format", "json",
         "--t-min", "-3", "--t-max", "1"]
    )
    assert code == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["table"]["dim"] == 2
    assert body["ci_degrees"] == [2]
    assert len(body["table"]["cells"][0]) == 5


def test_simplicity_command(capsys):
    code = main(["simplicity", "--n", "2", "--a", "1"])
    assert code == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["stabilizer"]["stab_dimension"] == 1
    assert body["stabilizer"]["simple"] is True


def test_bound_command(capsys):
    code = main(["bound", "--n", "3", "--ci-degrees", "2", "--s", "3"])
    assert code == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["family_dim"] == 12
    assert body["veronese_bound"] == 19
    assert body["embedding_dim"] == 15
    assert body["variety_dim"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3", "--a", "0"], "no kernel-bundle shape for n = 3, a = 0"),
        (["--n", "3", "--a", "-2"], "no kernel-bundle shape for n = 3, a = -2"),
        (["--n", "1"], "ambient dimension n = 1 < 2"),
        (["--n", "3", "--ci-degrees", "2", "2"], "codimension 2 leaves dimension 1 < 2 in P^3"),
    ],
)
def test_bound_refuses_invalid_shape(argv, message, capsys):
    # as every other command does, with one line and nothing on stdout
    assert main(["bound", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_bound_draws_no_form(monkeypatch, capsys):
    # bound reads n and the degrees alone: a form of degree 40 in P^6 would
    # draw C(46, 6) coefficients, and bound answers without one
    def must_not_draw(*args, **kwargs):
        raise AssertionError("bound drew a form")

    monkeypatch.setattr(restriction, "random_field_elements", must_not_draw)
    assert main(["bound", "--n", "6", "--ci-degrees", "40"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "a": 1, "embedding_dim": 83, "family_dim": 45, "n": 6, "prime": 32003, "s": 3,
        "seed": 0, "tool_version": "0.1.0", "variety_dim": 5, "veronese_bound": 83,
    }


def _not_simple(a_mat):
    return StabilizerReport(
        n=a_mat.n, a=a_mat.b_src // 2, stab_dimension=2, simple=False,
        kac_value=0, system_rows=1, system_cols=2,
    )


def test_simplicity_not_simple_prints_report_and_exits_failed(monkeypatch, capsys):
    monkeypatch.setattr(cli, "stabilizer_dimension", _not_simple)
    assert main(["simplicity", "--n", "2", "--seed", "7"]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    body = json.loads(captured.out)
    assert body["stabilizer"]["simple"] is False
    assert body["stabilizer"]["stab_dimension"] == 2
    assert (body["n"], body["a"], body["seed"]) == (2, 1, 7)
    assert body["certificate"]["surjective_at_degree"] == 1


def test_certify_false_verdict_prints_report_and_exits_failed(monkeypatch, capsys):
    monkeypatch.setattr(moduli, "stabilizer_dimension", _not_simple)
    argv = ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"]
    assert main(argv) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    body = json.loads(captured.out)
    assert body["verdict"] is False
    assert body["checks"]["simple"] is False
    assert all(ok for check, ok in body["checks"].items() if check != "simple")
    golden = json.loads((GOLDEN_DIR / "certify_n3_ci2_a2_s3.json").read_text())
    assert body.keys() == golden.keys()
    assert body["table"] == golden["table"]


def test_certify_refusal_exits_failed(capsys):
    code = main(["certify", "--n", "3", "--ci-degrees", "2", "--s", "2"])
    assert code == EXIT_FAILED
    assert "certificate failed" in capsys.readouterr().err


def test_regularity_failure_exits_failed(monkeypatch, capsys):
    # forms with a common factor are refused by the per-degree check, and
    # the refusal is a failed certificate on one line of stderr
    monkeypatch.setattr(cli, "make_ci_variety", lambda n, degrees, rng, field: _common_factor_variety(field))
    assert main(["restrict", "--n", "4", "--ci-degrees", "2", "2"]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certificate failed: degree 3: ")
    assert captured.err.count("\n") == 1


def test_octic_complete_intersection_builds_no_slice(monkeypatch, capsys):
    # five octics in P^7: the default window reads only empty spans, so the
    # coordinate slice, a 91390 x 179800 matrix, is never tried; a map past
    # the cap fails here before it is allocated
    real = polyspace.mult_map

    def mult_map(coeffs, n, m, e):
        a, b, _ = coeffs.shape
        assert a * basis_dim(n, m + e) * b * basis_dim(n, m) <= MAX_MATRIX_CELLS
        return real(coeffs, n, m, e)

    monkeypatch.setattr(polyspace, "mult_map", mult_map)
    argv = ["restrict", "--n", "7", "--ci-degrees", "8", "8", "8", "8", "8", "--a", "1", "--seed", "0"]
    assert main(argv) == EXIT_OK
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == "1fcf116a6035123e2f293708d2dbb8df"


def test_invalid_shape_exits_usage(capsys):
    code = main(["construct", "--n", "1"])
    assert code == EXIT_USAGE
    assert "invalid input" in capsys.readouterr().err


def test_composite_prime_exits_usage(capsys):
    code = main(["construct", "--n", "2", "--prime", "32004"])
    assert code == EXIT_USAGE


def test_oversized_prime_exits_usage_before_trial_division(monkeypatch, capsys):
    # 2^61 - 1 is prime, but trial division would take about 1.5e9 steps;
    # the size bound refuses it first
    def must_not_divide(m):
        raise AssertionError("an oversized modulus reached trial division")

    monkeypatch.setattr(exactfield, "_is_prime", must_not_divide)
    assert main(["bound", "--n", "3", "--prime", "2305843009213693951"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid input: modulus 2305843009213693951 too large for int64 arithmetic\n"
    )


def test_certify_matches_golden_and_is_byte_stable(tmp_path):
    golden = (GOLDEN_DIR / "certify_n3_ci2_a2_s3.json").read_bytes()
    outs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        code = main(
            ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3",
             "--output", str(target)]
        )
        assert code == EXIT_OK
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == golden


def test_certify_matches_golden_under_optimize():
    # python -O strips assert statements; a fresh interpreter in that mode
    # must still print the golden bytes
    src = pathlib.Path(cli.__file__).parent.parent
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "wildrep.cli",
         "certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert proc.stdout == (GOLDEN_DIR / "certify_n3_ci2_a2_s3.json").read_bytes()


def test_outputs_match_digest_golden(capsys):
    # sha256 of the canonical JSON of the three benchmark workloads and the
    # restricted ladder configs, seed 7, at primes 101 and 2^31 - 1
    golden = json.loads((GOLDEN_DIR / "cli_digests.json").read_text())
    assert len(golden) == 12
    for entry in golden:
        assert main(entry["argv"]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == entry["sha256"], entry["argv"]


def test_outputs_match_ladder_digest_golden(capsys):
    # sha256 of the canonical JSON of the larger ambient rungs, n = 5, a = 2
    # and n = 6, a = 1, and of the complete intersection of three quadrics
    # in P^6, seed 7, at primes 101 and 2^31 - 1; the ambient rungs also at
    # 11343469, where products past 70 terms take two limbs
    golden = json.loads((GOLDEN_DIR / "ladder_digests.json").read_text())
    assert len(golden) == 8
    for entry in golden:
        assert main(entry["argv"]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == entry["sha256"], entry["argv"]


def test_certify_without_s_uses_three(tmp_path):
    target = tmp_path / "default.json"
    argv = ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--output", str(target)]
    assert main(argv) == EXIT_OK
    assert target.read_bytes() == (GOLDEN_DIR / "certify_n3_ci2_a2_s3.json").read_bytes()


def test_run_config_direct(capsys):
    code = run(RunConfig(command="bound", n=2, ci_degrees=(), s=3, format="json"))
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["veronese_bound"] == 9


def test_empty_twist_window_exits_usage(capsys):
    code = main(["table", "--n", "2", "--t-min", "3", "--t-max", "1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")
    assert captured.err.count("\n") == 1


def test_unwritable_output_exits_usage(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["bound", "--n", "2", "--output", str(target)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
def test_seed_outside_u64_exits_usage(seed, capsys):
    code = main(["construct", "--n", "2", "--seed", seed])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1


def test_wildness_dict_emits_trace_failures_only_when_present(fp):
    # d = 3 gives two traces
    x = make_ci_variety(4, (2,), SeededRng(7), fp)
    rep = wildness_certificate(x, 3, 1, SeededRng(0))
    assert len(rep.traces) == 2
    assert all("failures" not in tr for tr in wildness_dict(rep)["vanishing_traces"])
    broken = dataclasses.replace(
        rep.traces[0], verified=False, failures=((1, -1), (1, -2))
    )
    rep = dataclasses.replace(rep, traces=(broken, rep.traces[1]))
    first, second = json.loads(serialize_report(wildness_dict(rep)))["vanishing_traces"]
    assert first["verified"] is False
    assert first["failures"] == [[1, -1], [1, -2]]
    assert "failures" not in second


@pytest.mark.parametrize(
    "config, shape",
    [
        # the degree-5 map: 2a C(14, 8) rows by (n+2)a C(13, 8) columns
        (RunConfig("table", n=8, a=2), (12012, 25740)),
        # the degree-401 map: 2 C(404, 2) rows by 4 C(403, 2) columns
        (RunConfig("table", n=2, t_max=400), (162812, 324012)),
    ],
)
def test_largest_matrix_refuses_oversized_requests(config, shape):
    assert largest_matrix(config) == shape
    assert shape[0] * shape[1] > MAX_MATRIX_CELLS


@pytest.mark.parametrize(
    "config, shape",
    [
        # the golden config, also the certify-family benchmark workload
        (RunConfig("certify", n=3, a=2, ci_degrees=(2,)), (336, 700)),
        # the ambient-table and ci-restrict benchmark workloads
        (RunConfig("table", n=4, a=2), (840, 1512)),
        (RunConfig("restrict", n=5, a=1, ci_degrees=(2, 2)), (924, 2268)),
        # the largest configurations in the performance ladder
        (RunConfig("table", n=5, a=2), (1848, 3528)),
        (RunConfig("restrict", n=5, a=2, ci_degrees=(2,)), (1848, 4032)),
        (RunConfig("restrict", n=5, a=2, ci_degrees=(2, 2)), (1848, 4536)),
        (RunConfig("table", n=6, a=1), (1848, 3696)),
        (RunConfig("restrict", n=6, a=1, ci_degrees=(2,)), (1848, 4116)),
        # the stabilizer's system in C at a = 16: (2a)(5a)(n+1) x (2a)^2
        (RunConfig("simplicity", n=3, a=16), (10240, 1024)),
        # where the top table map with its lift columns is the largest
        (RunConfig("certify", n=3, a=16, ci_degrees=(2,)), (2688, 5600)),
    ],
)
def test_largest_matrix_admits_benchmarked_requests(config, shape):
    assert largest_matrix(config) == shape
    assert shape[0] * shape[1] <= MAX_MATRIX_CELLS


@pytest.mark.parametrize(
    "argv", [["table", "--n", "8", "--a", "2"], ["table", "--n", "2", "--t-max", "400"]]
)
def test_oversized_request_exits_usage_before_sampling(argv, monkeypatch, capsys):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("an oversized request reached sampling")

    monkeypatch.setattr(cli, "build_kernel_bundle", must_not_sample)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: request needs a ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "window", [["--t-min", "-1", "--t-max", "0"], ["--t-max", "4"], ["--t-min", "-7"]]
)
def test_certify_refuses_explicit_window(window, monkeypatch, capsys):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("a refused request reached sampling")

    monkeypatch.setattr(cli, "make_ci_variety", must_not_sample)
    argv = ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"]
    assert main(argv + window) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: certify always uses the default")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["table", "--n", "2", "--ci-degrees", "2"], "--ci-degrees"),
        (["table", "--n", "2", "--s", "4"], "--s"),
        (["restrict", "--n", "3", "--ci-degrees", "2", "--s", "4"], "--s"),
        (["construct", "--n", "2", "--ci-degrees", "2"], "--ci-degrees"),
        (["construct", "--n", "2", "--t-min", "3", "--t-max", "1"], "--t-min, --t-max"),
        (["construct", "--n", "2", "--format", "markdown"], "--format markdown"),
        (["simplicity", "--n", "2", "--ci-degrees", "7", "7"], "--ci-degrees"),
        (["simplicity", "--n", "2", "--t-max", "0", "--s", "2"], "--s, --t-max"),
        (["bound", "--n", "3", "--ci-degrees", "2", "--t-min", "3", "--t-max", "1"],
         "--t-min, --t-max"),
        (["certify", "--n", "3", "--format", "markdown"], "--format markdown"),
        (["table", "--n", "2", "--s", "3"], "--s"),
    ],
)
def test_ignored_flags_exit_usage_before_sampling(argv, unused, monkeypatch, capsys):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("a refused request reached sampling")

    monkeypatch.setattr(cli, "build_kernel_bundle", must_not_sample)
    monkeypatch.setattr(cli, "make_ci_variety", must_not_sample)
    monkeypatch.setattr(cli, "ci_dimension", must_not_sample)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {argv[0]} does not use {unused}\n"


def test_wide_twist_window_exits_usage_before_sampling(monkeypatch, capsys):
    # on X the largest matrix does not grow as t-min falls, so only the
    # width of the window refuses this one
    def must_not_sample(*args, **kwargs):
        raise AssertionError("a refused request reached sampling")

    monkeypatch.setattr(cli, "build_kernel_bundle", must_not_sample)
    monkeypatch.setattr(cli, "make_ci_variety", must_not_sample)
    argv = ["restrict", "--n", "3", "--ci-degrees", "2", "--t-min", "-4092", "--t-max", "4"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid input: twist window [-4092, 4] has 4097 twists, "
        "more than the 4096 allowed\n"
    )


def test_form_count_boundary_for_bound(monkeypatch, capsys):
    # the Koszul data of c forms has 2^c twists: 16 forms still answer,
    # 17 are refused before any twist is enumerated
    assert main(["bound", "--n", "18", "--ci-degrees", *["2"] * 16]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["variety_dim"] == 2

    def must_not_enumerate(*args, **kwargs):
        raise AssertionError("a refused request reached the Koszul data")

    monkeypatch.setattr(cli, "ci_dimension", must_not_enumerate)
    monkeypatch.setattr(cli, "hilbert_function", must_not_enumerate)
    assert main(["bound", "--n", "19", "--ci-degrees", *["2"] * 17]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid input: --ci-degrees lists 17 forms, more than the 16 allowed\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["restrict", "--n", "3", "--ci-degrees", "0"],
        ["bound", "--n", "3", "--ci-degrees", "0"],
        ["certify", "--n", "4", "--ci-degrees", "2", "0"],
        # the degrees are checked before the window
        ["restrict", "--n", "3", "--ci-degrees", "0", "--t-min", "5", "--t-max", "1"],
    ],
)
def test_low_degree_form_exits_usage_before_sampling(argv, monkeypatch, capsys):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("a refused request reached sampling")

    monkeypatch.setattr(cli, "build_kernel_bundle", must_not_sample)
    monkeypatch.setattr(restriction, "random_field_elements", must_not_sample)
    monkeypatch.setattr(presentation, "random_field_elements", must_not_sample)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: complete intersection degree 0 < 1\n"


class _Sampled(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "4", "--a", "2", "--format", "json"],
        ["restrict", "--n", "5", "--ci-degrees", "2", "2", "--a", "1", "--format", "json"],
        ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"],
        ["bound", "--n", "3", "--ci-degrees", "2", "--s", "3", "--format", "json"],
        ["construct", "--n", "2", "--format", "json"],
        # the widest window allowed, 4096 twists
        ["restrict", "--n", "3", "--ci-degrees", "2", "--t-min", "-4091", "--t-max", "4"],
    ],
)
def test_used_flags_reach_sampling(argv, monkeypatch):
    # the benchmark's requests, and flags each command reads, are accepted
    def sampled(*args, **kwargs):
        raise _Sampled

    monkeypatch.setattr(cli, "build_kernel_bundle", sampled)
    monkeypatch.setattr(cli, "make_ci_variety", sampled)
    # bound samples nothing: its first use of the request is ci_dimension
    monkeypatch.setattr(cli, "ci_dimension", sampled)
    with pytest.raises(_Sampled):
        main(argv + ["--seed", "7"])


def test_high_degree_form_exits_usage_before_sampling(monkeypatch, capsys):
    # the window never reaches degree 40, but the form alone would draw
    # C(46, 6) coefficients; the ideal span of its own degree is counted
    config = RunConfig("restrict", n=6, t_max=0, ci_degrees=(40,))
    assert largest_matrix(config) == (9366818, 9366819)

    def must_not_sample(*args, **kwargs):
        raise AssertionError("an oversized request reached sampling")

    monkeypatch.setattr(cli, "make_ci_variety", must_not_sample)
    argv = ["restrict", "--n", "6", "--ci-degrees", "40", "--t-max", "0"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: request needs a 9366818x9366819 ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"],
        ["table", "--n", "4", "--a", "2", "--format", "json"],
        # ranks on X through the P^n map and the ideal span, limbs at 2^31 - 1
        ["restrict", "--n", "5", "--ci-degrees", "2", "2", "--a", "1", "--format", "json"],
        ["restrict", "--n", "3", "--ci-degrees", "2", "--a", "2", "--format", "json"],
        ["certify", "--n", "5", "--ci-degrees", "2", "2", "--a", "1", "--s", "3"],
        # a linear form: I_1 is not 0, so the lift [M | F] is ranked at m = 0
        ["restrict", "--n", "5", "--ci-degrees", "1", "2", "--a", "1", "--format", "json"],
        ["restrict", "--n", "6", "--ci-degrees", "2", "2", "2", "--a", "1", "--format", "json"],
        ["restrict", "--n", "5", "--ci-degrees", "2", "--a", "2", "--format", "json"],
        ["restrict", "--n", "7", "--ci-degrees", "2", "2", "--a", "1", "--format", "json"],
        # a = 8: certify in the large-a regime of the family
        ["certify", "--n", "3", "--ci-degrees", "2", "--a", "8", "--s", "3"],
    ],
)
def test_verdict_and_table_agree_at_two_primes(argv, capsys):
    # 32003 takes single float64 gemms, 2^31 - 1 up to three limbs; the
    # sampled phi differs, the cohomology and the verdict must not
    reports = []
    for prime in ("32003", str((1 << 31) - 1)):
        assert main(argv + ["--prime", prime]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    low, high = reports
    assert (low["prime"], high["prime"]) == (32003, (1 << 31) - 1)
    assert low["table"]["cells"] == high["table"]["cells"]
    assert low["table"]["provenance"] == high["table"]["provenance"]
    assert low.get("verdict") == high.get("verdict")


@pytest.mark.parametrize("prime", (32003, (1 << 31) - 1))
@pytest.mark.parametrize("n, a", ((5, 2), (6, 1), (7, 1)))
def test_large_ambient_table_commands_match_closed_form(n, a, prime, capsys):
    # the larger ambient rungs of the bench ladder, through the CLI, at a
    # single-gemm prime and at the limb prime
    argv = ["table", "--n", str(n), "--a", str(a), "--format", "json", "--seed", "7"]
    assert main(argv + ["--prime", str(prime)]) == EXIT_OK
    table = table_from_dict(json.loads(capsys.readouterr().out)["table"])
    assert table.as_rows() == closed_form_table(n, a, (table.t_min, table.t_max)).as_rows()
