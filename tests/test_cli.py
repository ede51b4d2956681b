"""Command-line interface: subcommands, exit codes, output contracts."""

import json
from dataclasses import replace
from itertools import combinations

import pytest

from puboforge.cli import run
from puboforge.gadgets import apply_plan, parse_qubo
from puboforge.poly import parse_polynomial
from puboforge.setcover import build_set_cover, set_cover_to_ilp, solve_ilp_exact
from puboforge.wmaxsat import build_wmaxsat, solve_wmaxsat_exact
from util import computational_assignments, min_over_ancilla

WORKED_PUBO = "p pubo 5\n1 1 2 3\n1 1 4 5\n1 2 3 5\n"

QUARTIC_PUBO = "p pubo 4\n3 1 2 3 4\n"


@pytest.fixture
def worked(tmp_path):
    path = tmp_path / "ex.pubo"
    path.write_text(WORKED_PUBO)
    return path


@pytest.fixture
def quartic(tmp_path):
    path = tmp_path / "q.pubo"
    path.write_text(QUARTIC_PUBO)
    return path


class TestCompile:
    def test_worked_example_reports_two_ancillas(self, worked, capsys):
        assert run(["compile", str(worked)]) == 0
        out = capsys.readouterr().out
        assert "ancilla: 2" in out
        assert (worked.parent / "ex.qubo").exists()

    def test_output_file_is_valid_and_sound(self, worked, tmp_path):
        out = tmp_path / "r.qubo"
        assert run(["compile", str(worked), "-o", str(out)]) == 0
        reduced = parse_qubo(out.read_text())
        poly = parse_polynomial(WORKED_PUBO)
        for _, x in computational_assignments(5):
            assert min_over_ancilla(reduced, x) == poly.evaluate(x)

    def test_min_precision_triple_with_verify(self, worked, capsys):
        code = run(
            [
                "compile",
                str(worked),
                "--strategy",
                "min-precision",
                "--gadget",
                "triple",
                "--verify",
            ]
        )
        assert code == 0
        assert "verified: yes" in capsys.readouterr().out

    def test_reduce_min_strategy(self, worked, capsys):
        assert run(["compile", str(worked), "--strategy", "reduce-min"]) == 0
        out = capsys.readouterr().out
        assert "proven optimal: no" in out

    def test_degree_five_rejected_naming_term(self, tmp_path, capsys):
        path = tmp_path / "d5.pubo"
        path.write_text("p pubo 6\n2 1 2 3 4 5\n")
        assert run(["compile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "1 2 3 4 5" in err

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["compile", str(tmp_path / "nope.pubo")]) == 2

    def test_malformed_input_is_input_error(self, tmp_path):
        path = tmp_path / "bad.pubo"
        path.write_text("not a header\n")
        assert run(["compile", str(path)]) == 2

    def test_json_summary_is_flat_object(self, worked, capsys):
        assert run(["compile", str(worked), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ancilla"] == 2
        assert obj["proven_optimal"] is True
        assert all(not isinstance(v, (dict, list)) for v in obj.values())

    def test_byte_identical_reruns(self, worked, tmp_path, capsys):
        out = tmp_path / "r.qubo"
        run(["compile", str(worked), "-o", str(out), "--seed", "7"])
        first_stdout = capsys.readouterr().out
        first_bytes = out.read_bytes()
        run(["compile", str(worked), "-o", str(out), "--seed", "7"])
        assert capsys.readouterr().out == first_stdout
        assert out.read_bytes() == first_bytes

    def test_exhausted_solver_budget_exits_zero_unproven(self, tmp_path, capsys):
        # all 56 cubic terms over 8 variables: 3 nodes cannot prove the optimum
        src = tmp_path / "full.pubo"
        terms = "".join(f"1 {i} {j} {k}\n" for i, j, k in combinations(range(1, 9), 3))
        src.write_text(f"p pubo 8\n{terms}")
        out = tmp_path / "full.qubo"
        assert run(["compile", str(src), "-o", str(out), "--ilp-budget", "3", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["proven_optimal"] is False
        assert obj["ancilla"] == len(parse_qubo(out.read_text()).registry) >= 12

    def test_exhausted_quartic_budget_falls_back_to_greedy(self, tmp_path, capsys):
        # every quartic term over 6 variables: 35 selectors, optimum 8; one
        # node ends the search before any leaf, and the greedy selection
        # replaces "every selector on"
        src = tmp_path / "q6.pubo"
        terms = "".join(f"1 {' '.join(map(str, t))}\n" for t in combinations(range(1, 7), 4))
        src.write_text(f"p pubo 6\n{terms}")
        out = tmp_path / "q6.qubo"
        assert run(["compile", str(src), "-o", str(out), "--ilp-budget", "1", "--json", "--verify"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["proven_optimal"] is False
        assert obj["verified"] is True
        assert obj["ancilla"] == len(parse_qubo(out.read_text()).registry) < 35

    @pytest.mark.parametrize(
        "text, solve",
        [
            (WORKED_PUBO, lambda poly, budget: solve_ilp_exact(set_cover_to_ilp(build_set_cover(poly)), budget)),
            (QUARTIC_PUBO, lambda poly, budget: solve_wmaxsat_exact(build_wmaxsat(poly), budget)),
        ],
        ids=["cubic", "quartic"],
    )
    def test_solver_nodes_in_summary(self, text, solve, tmp_path, capsys):
        src = tmp_path / "p.pubo"
        src.write_text(text)
        poly = parse_polynomial(text)
        expected = solve(poly, 10**6).nodes
        assert run(["compile", str(src), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["solver_nodes"] == expected
        assert run(["compile", str(src)]) == 0
        assert f"solver nodes: {expected}\n" in capsys.readouterr().out
        # At budget 1 a search that runs out has expanded exactly one node.
        at_one = solve(poly, 1)
        assert at_one.nodes == 1
        assert run(["compile", str(src), "--ilp-budget", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["solver_nodes"] == at_one.nodes

    def test_no_solver_nodes_without_a_solver(self, worked, quartic, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("1 -2 -3 -4 -5 6 -7 -8 -9 -10\n")
        for argv in (
            [str(worked), "--strategy", "reduce-min"],
            [str(worked), "--strategy", "min-precision"],
            [str(quartic), "--wmaxsat-model", str(model)],
        ):
            assert run(["compile", *argv, "--json"]) == 0
            assert "solver_nodes" not in json.loads(capsys.readouterr().out)

    def test_emit_lp_sidecar(self, worked, tmp_path):
        lp = tmp_path / "cover.lp"
        assert run(["compile", str(worked), "--emit-lp", str(lp)]) == 0
        text = lp.read_text()
        assert text.startswith("/*") and "binary" in text

    def test_emit_wcnf_on_cubic_rejected(self, worked, tmp_path):
        assert (
            run(["compile", str(worked), "--emit-wcnf", str(tmp_path / "x.wcnf")]) == 2
        )

    def test_quartic_compiles_and_verifies(self, quartic, capsys):
        assert run(["compile", str(quartic), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ancilla: 2" in out
        assert "verified: yes" in out

    def test_quartic_rejects_triple_gadget(self, quartic):
        assert run(["compile", str(quartic), "--gadget", "triple"]) == 2

    def test_quartic_rejects_cubic_strategies(self, quartic):
        assert run(["compile", str(quartic), "--strategy", "reduce-min"]) == 2
        assert run(["compile", str(quartic), "--strategy", "min-precision"]) == 2

    def test_quartic_emit_wcnf_sidecar(self, quartic, tmp_path):
        wcnf = tmp_path / "q.wcnf"
        assert run(["compile", str(quartic), "--emit-wcnf", str(wcnf)]) == 0
        assert wcnf.read_text().startswith("p wcnf ")

    def test_quartic_external_model(self, quartic, tmp_path, capsys):
        # the known optimum for one quartic term: pairs (1,2) and (3,4)
        model = tmp_path / "model.txt"
        model.write_text("1 -2 -3 -4 -5 6 -7 -8 -9 -10\n")
        code = run(["compile", str(quartic), "--wmaxsat-model", str(model), "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ancilla: 2" in out
        assert "proven optimal: no" in out

    def test_model_value_line_with_a_stray_token_is_an_input_error(self, tmp_path, capsys):
        # The second 'v' line names all 16 selectors; skipping it for its
        # trailing 'x' would compile the 2-ancilla selection of the first.
        src = tmp_path / "q.pubo"
        src.write_text("p pubo 5\n2 1 2 3 4\n-1 2 3 4 5\n")
        model = tmp_path / "model.txt"
        model.write_text("v 7 13\nv " + " ".join(map(str, range(1, 17))) + " x\n")
        out = tmp_path / "q.qubo"
        assert run(["compile", str(src), "-o", str(out), "--wmaxsat-model", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "x" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, before",
        [
            ("p pubo 2\nc 5\n", ["--precision-ignore-offset"], 0),
            ("p pubo 2\nc 5\n", [], 1),
            ("p pubo 3\nc 12\n2 1 2\n", ["--precision-ignore-offset"], 1),
            ("p pubo 3\nc 12\n2 1 2\n", [], 6),
        ],
    )
    def test_precision_ignore_offset(self, tmp_path, capsys, text, flags, before):
        src = tmp_path / "k.pubo"
        src.write_text(text)
        args = ["compile", str(src), "-o", str(tmp_path / "k.qubo"), "--json"]
        assert run(args + flags) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["precision_before"] == obj["precision_after"] == before

    def test_unknown_strategy_rejected_by_parser(self, worked):
        with pytest.raises(SystemExit):
            run(["compile", str(worked), "--strategy", "anneal"])

    @pytest.mark.parametrize(
        "flags", [("--ilp-budget", "-5"), ("--verify", "--cap", "-1"), ("--ilp-budget", "five")], ids=["budget", "cap", "text"]
    )
    def test_negative_budget_or_cap_is_a_bad_flag(self, worked, tmp_path, capsys, flags):
        out = tmp_path / "r.qubo"
        with pytest.raises(SystemExit) as exc:
            run(["compile", str(worked), "-o", str(out), *flags])
        assert exc.value.code == 2
        assert flags[-1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_failing_verify_exits_one_and_keeps_the_output(
        self, worked, tmp_path, capsys, monkeypatch, as_json
    ):
        def unsound_apply_plan(poly, plan):
            # drop the first ancilla's penalty weight: the reduction undershoots
            first = min(plan.deltas)
            return apply_plan(poly, replace(plan, deltas={**plan.deltas, first: 0}))

        monkeypatch.setattr("puboforge.cli.apply_plan", unsound_apply_plan)
        out = tmp_path / "r.qubo"
        args = ["compile", str(worked), "-o", str(out), "--verify"]
        assert run(args + ["--json"] * as_json) == 1
        stdout = capsys.readouterr().out
        if as_json:
            obj = json.loads(stdout)
            assert obj["verified"] is False
            assert "x1=" in obj["counterexample"]
        else:
            assert "verified: no\n" in stdout
            assert "\ncounterexample: x1=" in stdout
        assert parse_qubo(out.read_text()).registry

    def test_zero_budget_and_cap_are_accepted(self, worked, tmp_path, capsys):
        # Budget 0 returns the greedy incumbent unproven; cap 0 is below
        # every reduction's variable count.
        out = tmp_path / "r.qubo"
        assert run(["compile", str(worked), "-o", str(out), "--ilp-budget", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["proven_optimal"] is False
        assert run(["compile", str(worked), "-o", str(out), "--verify", "--cap", "0"]) == 3


class TestVerify:
    def _compile(self, worked, tmp_path):
        out = tmp_path / "r.qubo"
        assert run(["compile", str(worked), "-o", str(out)]) == 0
        return out

    def test_self_compiled_pair_passes(self, worked, tmp_path, capsys):
        out = self._compile(worked, tmp_path)
        capsys.readouterr()
        assert run(["verify", str(worked), str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "verdict: pass" in stdout

    def test_corrupted_coefficient_fails_with_counterexample(
        self, worked, tmp_path, capsys
    ):
        out = self._compile(worked, tmp_path)
        lines = out.read_text().splitlines()
        for i, line in enumerate(lines):
            fields = line.split()
            if fields[0] not in ("p", "c", "a") and len(fields) == 3:
                fields[2] = str(int(fields[2]) - 2)
                lines[i] = " ".join(fields)
                break
        bad = tmp_path / "bad.qubo"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", str(worked), str(bad)]) == 1
        stdout = capsys.readouterr().out
        assert "verdict: fail" in stdout
        assert "counterexample:" in stdout
        assert "x1=" in stdout

    def test_negative_cap_is_a_bad_flag(self, worked, tmp_path, capsys):
        out = self._compile(worked, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["verify", str(worked), str(out), "--cap", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err

    def test_thirty_variables_hit_the_cap(self, tmp_path, capsys):
        src = tmp_path / "big.pubo"
        terms = "\n".join(f"1 {i} {i + 1} {i + 2}" for i in range(1, 28, 3))
        src.write_text(f"p pubo 30\n{terms}\n")
        out = tmp_path / "big.qubo"
        assert run(["compile", str(src), "-o", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", str(src), str(out)]) == 3
        assert "cap" in capsys.readouterr().err

    def test_json_report(self, worked, tmp_path, capsys):
        out = self._compile(worked, tmp_path)
        capsys.readouterr()
        assert run(["verify", str(worked), str(out), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["pointwise"] is True and obj["verdict"] == "pass"

    @pytest.mark.parametrize(
        "line",
        [
            "c x1",
            "a 6 pair 1 x2",
            "a 6 pair 1 2 one",
            "a 6 triple 1 2 3 via 1 x2",
            "a 6 triple 1 two 3 via 1 2",
        ],
    )
    def test_non_integer_field_reports_line(self, worked, tmp_path, capsys, line):
        bad = tmp_path / "bad.qubo"
        bad.write_text(f"p qubo 6 5\n1 1 2\n{line}\n")
        assert run(["verify", str(worked), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "invalid literal" not in err

    def test_repeated_ancilla_definition_reports_line(self, tmp_path, capsys):
        src = tmp_path / "t.pubo"
        src.write_text("p pubo 3\n1 1 2 3\n")
        bad = tmp_path / "bad.qubo"
        bad.write_text("p qubo 5 3\n1 1 4\n1 3 5\na 4 pair 1 2\na 5 pair 1 2\n")
        assert run(["verify", str(src), str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 5: duplicate ancilla definition pair(1,2)\n"


class TestBench:
    def test_default_config_emits_header_and_rows(self, capsys):
        assert run(["bench"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("n,lambda,strategy") for line in lines)
        data = [l for l in lines if l and not l.startswith(("#", "n,"))]
        assert len(data) >= 1

    def test_byte_identical_reruns(self, capsys):
        args = ["bench", "--n", "5", "--lambdas", "3", "--instances", "4", "--seed", "2"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_output_file_and_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = [
            "bench",
            "--n",
            "5",
            "--lambdas",
            "2,4",
            "--instances",
            "2",
            "-o",
            str(out),
            "--json",
        ]
        assert run(args) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["rows"] == 4  # 2 lambdas x 2 strategies
        assert out.read_text().count("\n") >= 5

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n=5\nlambdas=2\ninstances=2\nexperiment=precision\nquadratic_layer=true\n"
        )
        assert run(["bench", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "arbitrary" in out

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("walltime=yes\n")
        assert run(["bench", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["n = abc", "lambdas = 3,x", "quadratic_layer = maybe"])
    def test_config_file_bad_value_names_its_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"instances=1\n{line}\n")
        assert run(["bench", "--config", str(cfg), "--n", "5", "--lambdas", "2"]) == 2
        assert f"{cfg}:2: " in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=6\nlambdas=2\ninstances=2\n")
        assert run(["bench", "--config", str(cfg), "--n", "5"]) == 0
        assert "\n5,2," in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_empty_full_sweep_is_input_error(self, tmp_path, capsys, n):
        out = tmp_path / "sweep.csv"
        assert run(["bench", "--n", n, "--full", "-o", str(out)]) == 2
        assert "empty lambda list" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_above_capacity_is_input_error(self):
        assert run(["bench", "--n", "5", "--lambdas", "11", "--instances", "1"]) == 2

    def test_presets_exist(self, capsys):
        # shrink the preset regimes so the test stays fast; the preset only
        # chooses experiment type, n, lambda list, and layer flag
        args = [
            "bench",
            "--preset",
            "precision-growth",
            "--n",
            "5",
            "--lambdas",
            "2",
            "--instances",
            "1",
        ]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert "greedy" in out
        args = [
            "bench",
            "--preset",
            "ancilla-scaling",
            "--n",
            "5",
            "--lambdas",
            "2",
            "--instances",
            "1",
        ]
        assert run(args) == 0
        assert "ilp" in capsys.readouterr().out


class TestEmitWcnf:
    def test_quartic_emission_to_stdout(self, quartic, capsys):
        assert run(["emit-wcnf", str(quartic)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p wcnf 10 22 11\n")
        assert "c var 1 = pair 1 2" in out

    def test_cubic_input_rejected(self, worked):
        assert run(["emit-wcnf", str(worked)]) == 2

    def test_output_file_with_summary(self, quartic, tmp_path, capsys):
        out = tmp_path / "q.wcnf"
        assert run(["emit-wcnf", str(quartic), "-o", str(out), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["variables"] == 10 and obj["top"] == 11
        assert out.read_text().startswith("p wcnf ")


class TestStats:
    @pytest.mark.parametrize(
        "text, flags, expected",
        [
            ("p pubo 2\nc 5\n", ["--precision-ignore-offset"], 0),
            ("p pubo 2\nc 5\n", [], 1),
            ("p pubo 3\nc 12\n2 1 2\n", ["--precision-ignore-offset"], 1),
            ("p pubo 3\nc 12\n2 1 2\n", [], 6),
        ],
    )
    def test_precision_ignore_offset(self, tmp_path, capsys, text, flags, expected):
        src = tmp_path / "k.pubo"
        src.write_text(text)
        assert run(["stats", str(src), "--json"] + flags) == 0
        assert json.loads(capsys.readouterr().out)["control_precision"] == expected

    def test_basic_counts(self, worked, capsys):
        assert run(["stats", str(worked)]) == 0
        out = capsys.readouterr().out
        assert "n: 5" in out
        assert "cubic: 3" in out
        assert "lambda: 3" in out
        assert "ratio: 0.6" in out

    def test_json(self, quartic, capsys):
        assert run(["stats", str(quartic), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["quartic"] == 1 and obj["degree"] == 4

    def test_no_subcommand_prints_help(self, capsys):
        assert run([]) == 2
        assert "compile" in capsys.readouterr().out
