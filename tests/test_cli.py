import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardywitness as hw
from hardywitness import cli, hardy, sampling
from hardywitness.cli import main, machine_dumps, parse_split
from hardywitness.hardy import GRID_CAP, JointProbabilityTable, entry_label
from hardywitness.multipartite import ORDER_CAP
from hardywitness.sampling import SHOT_CAP

SPLIT = hw.Bipartition((0,), (1,))


@pytest.fixture()
def state_file(tmp_path, state_08_02):
    path = tmp_path / "state.json"
    hw.dump_state(state_08_02, path)
    return str(path)


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    hw.dump_state(hw.make_state([2, 2], [1, 0, 0, 1]), path)
    return str(path)


@pytest.fixture()
def tri_file(tmp_path, tripartite_example):
    path = tmp_path / "tri.json"
    hw.dump_state(tripartite_example, path)
    return str(path)


class TestParsing:
    def test_parse_split(self):
        split = parse_split("1,2|3")
        assert split.side1 == (0, 1) and split.side2 == (2,)

    def test_parse_split_rejects_garbage(self):
        for spec in ("1,2", "0|1", "a|b", "1|2|3"):
            with pytest.raises(ValueError):
                parse_split(spec)

    def test_machine_dumps_floats(self):
        text = machine_dumps({"x": 4 / 45, "n": 3, "s": "hi", "b": True, "v": None})
        assert text == '{"x": 0.0888888888889, "n": 3, "s": "hi", "b": true, "v": null}'
        assert json.loads(text)["x"] == pytest.approx(4 / 45, abs=1e-12)


class TestSchmidtCommand:
    def test_human(self, state_file, capsys):
        assert main(["schmidt", "--state", state_file, "--split", "1|2"]) == 0
        out = capsys.readouterr().out
        assert "0.894427191" in out and "0.4472135955" in out
        assert "(0,1)" in out

    def test_machine(self, state_file, capsys):
        assert (
            main(["schmidt", "--state", state_file, "--split", "1|2",
                  "--format", "machine"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 2
        assert doc["usable_pair"] is True

    @pytest.mark.parametrize("flag", [["--pair", "0,1"], ["--zero-tol", "1e-6"]])
    def test_rejects_flags_it_does_not_read(self, state_file, flag, capsys):
        assert main(["schmidt", "--state", state_file, "--split", "1|2", *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ghz_no_usable_pair(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        hw.dump_state(hw.ghz_state(3), path)
        assert main(["schmidt", "--state", str(path), "--split", "1|2,3"]) == 0
        assert "no usable pair" in capsys.readouterr().out


class TestWitnessCommand:
    def test_human_applicable(self, state_file, capsys):
        assert main(["witness", "--state", state_file, "--split", "1|2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: applicable" in out
        assert "0.0888888888889" in out

    def test_machine_fields(self, state_file, capsys):
        assert (
            main(["witness", "--state", state_file, "--split", "1|2",
                  "--format", "machine"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["applicable"] is True
        assert doc["pair"] == [0, 1]
        assert len(doc["zero_conditions"]) == 5
        assert doc["hardy_measured"] == pytest.approx(4 / 45, abs=1e-9)
        assert doc["hardy_closed_form"] == pytest.approx(4 / 45, abs=1e-9)
        assert len(doc["table"]) == 4
        assert len(doc["decomposition_residuals"]) == 3

    def test_not_applicable(self, bell_file, capsys):
        assert main(["witness", "--state", bell_file, "--split", "1|2"]) == 0
        assert "not applicable" in capsys.readouterr().out

    def test_multipartite_mode(self, tri_file, capsys):
        assert (
            main(["witness", "--state", tri_file, "--mode", "multipartite",
                  "--format", "machine"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["applicable"] is True
        assert doc["combined_probability"] == pytest.approx(2 / 45, abs=1e-9)
        assert doc["steps"][0]["subsystem"] == 3
        assert doc["final_report"]["hardy_closed_form"] == pytest.approx(
            4 / 45, abs=1e-9
        )

    def test_multipartite_leaf_report_uses_zero_tol(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        hw.dump_state(hw.make_state([2, 2, 2], [2, 0, 0, 0, 0, 0, 1, 2]), path)
        argv = ["witness", "--state", str(path), "--mode", "multipartite", "--zero-tol", "1e-3"]
        assert main([*argv, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["applicable"] is True
        assert doc["final_report"]["zero_tol"] == 1e-3

    def test_multipartite_zero_condition_past_zero_tol_is_marked_failed(self, tri_file, capsys):
        # the joint zero conditions sit near 1e-33, above this tolerance
        argv = ["witness", "--state", tri_file, "--mode", "multipartite", "--zero-tol", "1e-40"]
        assert main([*argv, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        marks = [c["within_tolerance"] for c in doc["conditions"]]
        assert marks == [False] * 5 + [True]
        assert main(argv) == 0
        assert "FAILED" in capsys.readouterr().out

    def test_stable_output_bytes(self, state_file, capsys):
        main(["witness", "--state", state_file, "--split", "1|2", "--format", "machine"])
        first = capsys.readouterr().out
        main(["witness", "--state", state_file, "--split", "1|2", "--format", "machine"])
        assert capsys.readouterr().out == first


class TestCertifyCommand:
    def test_infeasible_exit_code(self, state_file, capsys):
        code = main(["certify", "--state", state_file, "--split", "1|2"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().out

    def test_machine_tree(self, state_file, capsys):
        code = main(["certify", "--state", state_file, "--split", "1|2",
                     "--format", "machine"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "infeasible"
        assert doc["margin"] > 1e-9
        assert doc["dual"]

    def test_feasible_product_state(self, tmp_path, capsys):
        # certified observables come from the state's own (rank-1) split,
        # so use the degenerate bell pair instead
        path = tmp_path / "bell.json"
        hw.dump_state(hw.make_state([2, 2], [1, 0, 0, 1]), path)
        code = main(["certify", "--state", str(path), "--split", "1|2",
                     "--pair", "0,1", "--allow-degenerate"])
        assert code == 0
        assert "feasible" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "case, expected_code", [("bell-degenerate", 0), ("tripartite", 3)]
    )
    def test_human_and_machine_list_the_same_terms(
        self, bell_file, tri_file, case, expected_code, capsys
    ):
        where = {
            "bell-degenerate": ["--state", bell_file, "--split", "1|2",
                                "--pair", "0,1", "--allow-degenerate"],
            "tripartite": ["--state", tri_file, "--mode", "multipartite"],
        }[case]
        assert main(["certify", *where]) == expected_code
        human = capsys.readouterr().out.splitlines()
        assert main(["certify", *where, "--format", "machine"]) == expected_code
        doc = json.loads(capsys.readouterr().out)
        if doc["verdict"] == "feasible":
            shown = [line for line in human if line.startswith("  weight ")]
            expected = [
                f"  weight {cli.fmt(m['weight'])}: {m['strategy']}" for m in doc["mixture"]
            ]
        else:
            shown = [line for line in human if " * P(" in line]
            expected = [
                f"  {cli.fmt(t['coefficient'])} * {entry_label(t['settings'], t['outcomes'])}"
                for t in doc["dual"]
            ]
        assert expected and shown == expected

    def test_certificate_reads_no_key_list(self, report_08_02, tripartite_example, monkeypatch):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(bell, SPLIT)
        con = hw.build_construction(d, (0, 1), allow_degenerate=True)
        tables = [
            report_08_02.table,
            hw.multipartite_table(tripartite_example, hw.multipartite_witness(tripartite_example)),
            hw.joint_table(bell, con),
        ]

        def refuse(self):
            raise AssertionError("ordered_keys read")

        monkeypatch.setattr(JointProbabilityTable, "ordered_keys", refuse)
        trees = [cli.certificate_tree(hw.certify(table)) for table in tables]
        assert [t["verdict"] for t in trees] == ["infeasible", "infeasible", "feasible"]

    def test_degenerate_pair_without_flag_is_usage_error(self, bell_file, capsys):
        code = main(["certify", "--state", bell_file, "--split", "1|2",
                     "--pair", "0,1"])
        assert code == 1
        assert "eps_deg" in capsys.readouterr().err

    def test_decides_only_a_table_that_passed_the_closed_form_check(
        self, state_file, monkeypatch, capsys
    ):
        """Certify takes its table from the witness report, checks included."""
        real = hardy.joint_table

        def tampered(v, construction):
            # move 1e-6 from P(Y1=+1, Y2=-1) to the flagged entry
            table = real(v, construction)
            probs = table.probs.copy()
            probs[table.index(("Y1", "Y2"), (1, -1))] -= 1e-6
            probs[table.index(("Y1", "Y2"), (1, 1))] += 1e-6
            return JointProbabilityTable(table.party_settings, table.party_outcomes, probs)

        monkeypatch.setattr(hardy, "joint_table", tampered)
        monkeypatch.setattr(cli, "joint_table", tampered)
        # a certify that built its own table decided the tampered one (exit 3)
        assert main(["certify", "--state", state_file, "--split", "1|2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: measured flagged probability ")
        assert "disagrees with closed form" in captured.err

    def test_not_applicable_auto(self, bell_file, capsys):
        assert main(["certify", "--state", bell_file, "--split", "1|2"]) == 0
        assert "not applicable" in capsys.readouterr().out

    def test_idealized(self, state_file, capsys):
        code = main(["certify", "--state", state_file, "--split", "1|2",
                     "--idealized", "--format", "machine"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["idealized"] is True

    def test_multipartite(self, tri_file, capsys):
        code = main(["certify", "--state", tri_file, "--mode", "multipartite"])
        assert code == 3

    def test_multipartite_peel_order_with_exhaustive_is_usage_error(self, tri_file, capsys):
        for command in ("witness", "certify"):
            code = main([command, "--state", tri_file, "--mode", "multipartite",
                         "--peel-order", "3", "--exhaustive-orders"])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "cannot be combined" in captured.err

    def test_multipartite_orders_past_cap_fail_cleanly(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        hw.dump_state(hw.make_state([2] * 9, np.eye(1, 2**9)[0]), path)
        code = main(["certify", "--state", str(path), "--mode", "multipartite",
                     "--exhaustive-orders"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: 181440 peel orders exceed the cap of {ORDER_CAP}\n"

    def test_multipartite_not_applicable_machine(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        hw.dump_state(hw.ghz_state(3), path)
        code = main(["certify", "--state", str(path), "--mode", "multipartite",
                     "--format", "machine"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not-applicable"

    def test_grouped_split(self, tmp_path, capsys):
        rng = np.random.default_rng(5150)
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        path = tmp_path / "grouped.json"
        hw.dump_state(hw.make_state((2, 3, 2), amps), path)
        code = main(["witness", "--state", str(path), "--split", "1,3|2",
                     "--format", "machine"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["split"] == "1,3|2"
        if doc["applicable"]:
            assert all(c["within_tolerance"] for c in doc["zero_conditions"])


class TestModeFlags:
    # Each case keeps its id "<command>-<mode>-flag<n>"; n = 6 and n = 11 were certify
    # --zero-tol cases, now test_certify_does_not_define_zero_tol since certify has no
    # such flag.
    @pytest.mark.parametrize(
        "command, mode, flag",
        [
            pytest.param(command, mode, flag, id=f"{command}-{mode}-flag{n}")
            for n, (command, mode, flag) in [
                (0, ("witness", "bipartite", ["--peel-order", "1"])),
                (1, ("witness", "bipartite", ["--exhaustive-orders"])),
                (2, ("witness", "multipartite", ["--split", "1|2,3"])),
                (3, ("witness", "multipartite", ["--pair", "0,1"])),
                (4, ("certify", "bipartite", ["--peel-order", "1"])),
                (5, ("certify", "bipartite", ["--exhaustive-orders"])),
                (7, ("certify", "multipartite", ["--split", "1|2,3"])),
                (8, ("certify", "multipartite", ["--pair", "auto"])),
                (9, ("certify", "multipartite", ["--allow-degenerate"])),
                (10, ("certify", "multipartite", ["--idealized"])),
            ]
        ],
    )
    def test_rejects_flags_its_mode_does_not_read(
        self, state_file, tri_file, command, mode, flag, capsys
    ):
        where = ["--state", state_file, "--split", "1|2"] if mode == "bipartite" else [
            "--state", tri_file
        ]
        assert main([command, *where, "--mode", mode, *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not apply to {command} in {mode} mode" in captured.err

    @pytest.mark.parametrize("mode", ["bipartite", "multipartite"])
    def test_certify_does_not_define_zero_tol(self, state_file, tri_file, mode, capsys):
        where = ["--state", state_file, "--split", "1|2"] if mode == "bipartite" else [
            "--state", tri_file
        ]
        assert main(["certify", *where, "--mode", mode, "--zero-tol", "1e-6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --zero-tol 1e-6" in captured.err

    def test_accepts_flags_its_mode_reads(self, state_file, tri_file, capsys):
        assert main(["witness", "--state", state_file, "--split", "1|2", "--pair", "auto",
                     "--zero-tol", "1e-6"]) == 0
        assert main(["certify", "--state", tri_file, "--mode", "multipartite",
                     "--exhaustive-orders"]) == 3


class TestSimulateCommand:
    def test_rejects_flags_it_does_not_read(self, state_file, capsys):
        assert main(["simulate", "--state", state_file, "--split", "1|2", "--shots", "10",
                     "--seed", "1", "--zero-tol", "1e-6"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_reproducible_csv(self, state_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["simulate", "--state", state_file, "--split", "1|2",
                         "--shots", "1000", "--seed", "42",
                         "--export", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "shot,setting1,setting2,outcome1,outcome2"

    def test_machine_verdicts(self, state_file, capsys):
        code = main(["simulate", "--state", state_file, "--split", "1|2",
                     "--shots", "20000", "--seed", "42", "--format", "machine"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        by_label = {c["label"]: c for c in doc["conditions"]}
        assert by_label["P(X1=+1, X2=+1)"]["count"] == 0
        assert by_label["P(Y1=+1, Y2=+1)"]["passed"] is True

    def test_machine_schedule_is_the_sampled_order(self, state_file, report_08_02, capsys):
        code = main(["simulate", "--state", state_file, "--split", "1|2",
                     "--shots", "10", "--seed", "1", "--format", "machine"])
        assert code == 0
        schedule = json.loads(capsys.readouterr().out)["schedule"]
        records = list(sampling.sample_from_table(report_08_02.table, 4, 1))
        assert schedule == [[r.setting1, r.setting2] for r in records]

    def test_single_shot(self, state_file, capsys):
        code = main(["simulate", "--state", state_file, "--split", "1|2",
                     "--shots", "1", "--seed", "1"])
        assert code == 0
        assert "n/a" in capsys.readouterr().out

    def test_not_applicable_is_usage_error(self, bell_file, capsys):
        code = main(["simulate", "--state", bell_file, "--split", "1|2",
                     "--shots", "10", "--seed", "1"])
        assert code == 1

    def test_shots_past_cap_fail_cleanly_before_allocating(self, state_file, capsys):
        tracemalloc.start()
        try:
            code = main(["simulate", "--state", state_file, "--split", "1|2",
                         "--shots", str(SHOT_CAP + 1), "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {SHOT_CAP + 1} shots exceed the cap of {SHOT_CAP}\n"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "message, err",
        [
            ("Unable to allocate 2.79 GiB", "error: out of memory: Unable to allocate 2.79 GiB\n"),
            ("", "error: out of memory\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_below_cap_fails_cleanly(
        self, state_file, capsys, monkeypatch, message, err
    ):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(sampling, "sample_from_table", out_of_memory)
        code = main(["simulate", "--state", state_file, "--split", "1|2",
                     "--shots", str(SHOT_CAP), "--seed", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_export_fails_cleanly(self, state_file, tmp_path, capsys, where):
        target = tmp_path / "absent" / "x.csv" if where == "missing-directory" else tmp_path
        for fmt in ("human", "machine"):
            code = main(["simulate", "--state", state_file, "--split", "1|2",
                         "--shots", "10", "--seed", "1", "--format", fmt,
                         "--export", str(target)])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and str(target) in captured.err
            assert captured.err.count("\n") == 1


class TestNotApplicableReasons:
    """witness, certify and schmidt word one state's verdict the same way."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_renderer_reads_only_its_tree(self, command):
        _, show = cli.COMMANDS[command]
        assert list(inspect.signature(show).parameters) == ["tree"]

    @pytest.mark.parametrize(
        "amps, reason",
        [
            ([1, 0, 0, 1], "all Schmidt weights equal within eps_deg"),
            ([1, 1, 0, 0], "rank 1 (product across this split)"),
        ],
        ids=["equal", "rank1"],
    )
    def test_one_reason_per_state(self, tmp_path, capsys, amps, reason):
        path = tmp_path / "state.json"
        hw.dump_state(hw.make_state([2, 2], amps), path)
        base = ["--state", str(path), "--split", "1|2"]
        assert main(["witness", *base, "--format", "machine"]) == 0
        assert json.loads(capsys.readouterr().out)["reason"] == reason
        assert main(["certify", *base, "--format", "machine"]) == 0
        assert capsys.readouterr().out == machine_dumps(
            {"command": "certify", "mode": "bipartite",
             "verdict": "not-applicable", "reason": reason}
        ) + "\n"
        assert main(["certify", *base]) == 0
        assert capsys.readouterr().out == (
            f"verdict: not applicable (no table to certify)\nreason: {reason}\n"
        )
        assert main(["schmidt", *base]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"no usable pair: {reason}"


class TestClosedStdout:
    """A reader that has gone away costs the output, not the exit code."""

    @staticmethod
    def run(argv, **kwargs):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, "-m", "hardywitness.cli", *argv],
                              env=env, timeout=120, **kwargs)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["scan", "--grid", "100", "--format", "machine"], 0),
            (["certify", "--state", "{state}", "--split", "1|2"], 3),
        ],
        ids=["scan", "certify"],
    )
    def test_closed_pipe_keeps_exit_code(self, state_file, argv, code):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = [arg.format(state=state_file) for arg in argv]
            proc = self.run(argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_closed_pipe_export_is_an_error(self, state_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(["simulate", "--state", state_file, "--split", "1|2", "--shots",
                             "10", "--seed", "1", "--export", f"/dev/fd/{write_end}"],
                            pass_fds=(write_end,), capture_output=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


class TestScanCommand:
    def test_machine(self, capsys):
        assert main(["scan", "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid"] == 10**6
        assert doc["max_probability"] == pytest.approx(0.090170, abs=1e-5)
        # the probability is symmetric under t <-> 1-t; the default grid, like
        # every grid, names the lower of the two mirror peaks
        t = doc["argmax_p1_squared"]
        assert t < 0.5 and abs(t - 0.1773516) < 1e-6
        assert len(doc["table"]) == 21

    def test_human_endpoints_note(self, capsys):
        assert main(["scan", "--grid", "99"]) == 0
        out = capsys.readouterr().out
        assert "maximum:" in out

    def test_equal_weights_row_is_zero(self, capsys):
        assert main(["scan", "--grid", "3", "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        half = [r for r in doc["table"] if abs(r["p1_squared"] - 0.5) < 1e-12]
        assert half and half[0]["probability"] == 0.0

    def test_grid_too_small(self, capsys):
        assert main(["scan", "--grid", "1"]) == 1

    def test_grid_past_cap_fails_cleanly_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = main(["scan", "--grid", str(GRID_CAP + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {GRID_CAP + 1} grid points exceed the cap of {GRID_CAP}\n"
        assert peak < 2**20


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, state_file, capsys):
        assert main(["schmidt", "--state", state_file, "--split", "1|2",
                     "--bogus"]) == 1

    def test_missing_file(self, capsys):
        assert main(["schmidt", "--state", "/nonexistent.json",
                     "--split", "1|2"]) == 1

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "amps": [[1, 0]]}')
        assert main(["schmidt", "--state", str(path), "--split", "1|2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_overflowing_amplitudes(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [2, 2], "amps": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}')
        assert main(["schmidt", "--state", str(path), "--split", "1|2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "norm inf" in out.err

    @pytest.mark.parametrize(
        "amps",
        ["[[%s, 0], [0, 0], [0, 0], [1, 0]]" % ("9" * 400), "[" * 10**5],
        ids=["integer-too-large", "nested-too-deeply"],
    )
    def test_unreadable_amplitudes_fail_cleanly(self, tmp_path, capsys, amps):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "amps": %s}' % amps)
        assert main(["schmidt", "--state", str(path), "--split", "1|2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: ")
        assert out.err.count("\n") == 1

    def test_not_utf8_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dims": [2, 2], "amps": \xff}')
        assert main(["schmidt", "--state", str(path), "--split", "1|2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: not UTF-8 text")

    def test_bad_split_indices(self, state_file, tri_file, capsys):
        """Named as typed (1-based), not as the library's 0-based tuples."""
        for path, spec, n in ((state_file, "1|3", 2), (tri_file, "1|2", 3)):
            for command, extra in (("schmidt", []), ("witness", []), ("certify", []),
                                   ("simulate", ["--shots", "10", "--seed", "1"])):
                assert main([command, "--state", path, "--split", spec, *extra]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: split {spec!r} does not partition {n} subsystems\n"

    @pytest.mark.parametrize(
        "order, message",
        [
            ("4", "peel order '4' invalid for 3 subsystems"),
            ("3,3", "peel order '3,3' invalid for 3 subsystems"),
            ("x", "peel order 'x': bad subsystem index 'x'"),
            ("0", "peel order '0': bad subsystem index '0'"),
        ],
    )
    def test_bad_peel_order_named_as_typed(self, tri_file, order, message, capsys):
        for command in ("witness", "certify"):
            code = main([command, "--state", tri_file, "--mode", "multipartite",
                         "--peel-order", order])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_empty_peel_order_is_usage_error(self, tri_file, capsys):
        for command in ("witness", "certify"):
            for extra in ([], ["--exhaustive-orders"]):
                code = main([command, "--state", tri_file, "--mode", "multipartite",
                             "--peel-order", "", *extra])
                assert code == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: peel order '': bad subsystem index ''\n"

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--eps-deg", "--zero-tol"])
    def test_negative_tolerance(self, state_file, flag, value, capsys):
        assert main(["witness", "--state", state_file, "--split", "1|2",
                     flag, value]) == 1
        assert f"{flag} must be finite and positive" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
