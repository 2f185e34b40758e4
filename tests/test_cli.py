import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import asymcolour
from asymcolour import (
    SGSGroup,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    run,
    serialize_colouring,
    serialize_graph,
    truncated_tree,
)
from asymcolour import cli, oracle
from asymcolour.cli import main
from asymcolour.errors import NotAPartitionActionError
from asymcolour.graphs import FAMILIES, FAMILY_TABLE

from .conftest import break_construction_search, deadline, drop_fixing_sets, fix_one_vertex_per_block, paley


def write_graph(tmp_path, graph, name="graph.adj"):
    path = tmp_path / name
    path.write_text(serialize_graph(graph), encoding="utf-8")
    return str(path)


def count_listings(monkeypatch):
    """Count the element listings, the calls of ``SGSGroup.enumerate``."""
    calls = []
    enumerate_elements = SGSGroup.enumerate

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_elements(*args, **kwargs)

    monkeypatch.setattr(SGSGroup, "enumerate", counted)
    return calls


def kv_report(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


class TestColourCommand:
    def test_tree_family_run(self, tmp_path, capsys):
        out_file = tmp_path / "col.txt"
        trace_file = tmp_path / "trace.txt"
        code = main(
            [
                "colour",
                "--family", "tree", "--degree", "3", "--radius", "2",
                "--root", "0",
                "--out", str(out_file),
                "--trace", str(trace_file),
                "--format", "kv",
            ]
        )
        assert code == 0
        report = kv_report(capsys)
        assert report["oracle.asymmetric"] == "true"
        assert report["checks.all"] == "pass"
        assert int(report["colours.used"]) <= 10
        assert report["run.bound-mode"] == "csg"
        assert out_file.exists() and trace_file.exists()
        assert trace_file.read_text().startswith("trace-format 1\n")

    def test_graph_file_input(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(5))
        code = main(["colour", "--input", path, "--root", "0", "--format", "kv"])
        assert code == 0
        report = kv_report(capsys)
        assert report["oracle.asymmetric"] == "true"
        assert report["graph.max-degree"] == "2"

    def test_root_out_of_range(self, capsys):
        code = main(["colour", "--family", "cycle", "--n", "5", "--root", "7"])
        assert code == 1

    def test_invalid_family_params(self, capsys):
        code = main(["colour", "--family", "tree", "--degree", "1", "--radius", "2"])
        assert code == 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_parameter_is_a_flag(self, family):
        for name in FAMILY_TABLE[family][1]:
            args = cli._build_parser().parse_args(["colour", "--family", family, f"--{name}", "7"])
            assert getattr(args, name) == 7

    @pytest.mark.parametrize("family", FAMILIES)
    def test_oversized_family_is_refused_unbuilt(self, family, tmp_path, capsys):
        # every parameter at 10**9: a build would not finish
        out = tmp_path / "c.txt"
        flags = [arg for name in FAMILY_TABLE[family][1] for arg in (f"--{name}", str(10**9))]
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["colour", "--family", family, *flags, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"asym: {family}(") and "more than 100000 edges" in captured.err
        assert peak < 1 << 20 and elapsed < 1.0

    def test_bad_graph_file(self, tmp_path, capsys):
        path = tmp_path / "bad.adj"
        path.write_text("3\n0 1\n", encoding="utf-8")  # disconnected
        assert main(["colour", "--input", str(path)]) == 1

    def test_vertex_count_beyond_the_edges(self, tmp_path, capsys):
        path = tmp_path / "huge.adj"
        path.write_text("1000000000000\n0 1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["oracle", str(path), "autorder"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().err == "asym: graph is disconnected (vertex 2 unreachable from 0)\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "file.txt"
        assert main(["colour", "--family", "complete", "--n", "3", flag, str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"asym: [Errno 2] No such file or directory: '{target}'\n"

    # the cap bounds the listed final stabilizer: K5 ends with one of order 2
    def test_cap_exceeded(self, capsys):
        code = main(["colour", "--family", "complete", "--n", "5", "--cap", "1"])
        assert code == 2

    # no group has fewer than one element, so such a cap is bad input
    @pytest.mark.parametrize(
        "args,env,err",
        [
            (["--cap", "0"], {}, "asym: --cap must be >= 1, got 0\n"),
            (["--cap", "-3"], {}, "asym: --cap must be >= 1, got -3\n"),
            ([], {"ASYM_CAP": "0"}, "asym: ASYM_CAP must be >= 1, got 0\n"),
        ],
        ids=["flag-0", "flag-minus-3", "env-0"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["colour", "--family", "complete", "--n", "5"],
            ["oracle", "{graph}", "motion"],
            ["oracle", "{graph}", "motion-lemma"],
        ],
        ids=["colour", "motion", "motion-lemma"],
    )
    def test_cap_below_one_is_invalid_input(self, tmp_path, capsys, monkeypatch, command, args, env, err):
        graph = write_graph(tmp_path, complete_graph(2))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main([a.format(graph=graph) for a in command] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ASYM_CAP", "1")
        code = main(["colour", "--family", "complete", "--n", "5"])
        assert code == 2

    def test_flag_overrides_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ASYM_CAP", "1")
        code = main(["colour", "--family", "complete", "--n", "5", "--cap", "1000000", "--format", "kv"])
        assert code == 0
        assert kv_report(capsys)["run.cap"] == "1000000"

    def test_audit_lists_no_group_beyond_the_cap(self, capsys):
        # |Aut| = 955,514,880: the audit holds every group by generators
        code = main(["colour", "--family", "tree", "--degree", "5", "--radius", "2", "--cap", "1000", "--format", "kv"])
        assert code == 0
        assert kv_report(capsys)["checks.all"] == "pass"

    def test_partition_action_bug_exits_3(self, capsys, monkeypatch):
        def broken_run(*args, **kwargs):
            raise NotAPartitionActionError("group does not permute the blocks of the partition")

        monkeypatch.setattr(cli, "run", broken_run)
        assert main(["colour", "--family", "cycle", "--n", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "asym: internal error (NotAPartitionActionError): group does not permute the blocks of the partition"
        ]

    def test_block_of_two_colours_exits_3(self, capsys, monkeypatch):
        fix_one_vertex_per_block(monkeypatch)
        assert main(["colour", "--family", "tree", "--degree", "4", "--radius", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("asym: internal invariant violated: a block of partition")

    def test_running_stabilizer_moving_a_block_exits_3(self, capsys, monkeypatch):
        drop_fixing_sets(monkeypatch)
        assert main(["colour", "--family", "tree", "--degree", "4", "--radius", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "asym: internal invariant violated: running stabilizer moves a block of partition 1"
        ]

    def test_text_format(self, capsys):
        code = main(["colour", "--family", "cycle", "--n", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle asymmetric: true" in out

    def test_horizon_flag(self, tmp_path, capsys):
        out_file = tmp_path / "col.txt"
        code = main(
            ["colour", "--family", "path", "--n", "5", "--horizon", "2", "--out", str(out_file), "--format", "kv"]
        )
        assert code == 0
        assert kv_report(capsys)["run.horizon"] == "2"
        assert "inf" in out_file.read_text()

    def test_horizon_out_of_range(self, capsys):
        assert main(["colour", "--family", "path", "--n", "5", "--horizon", "9"]) == 1

    def test_elementary_bound_mode_flag(self, capsys):
        code = main(["colour", "--family", "cycle", "--n", "6", "--bound-mode", "elementary", "--format", "kv"])
        assert code == 0
        assert kv_report(capsys)["run.bound-mode"] == "elementary"

    def test_non_asymmetric_outcome_still_exits_zero(self, capsys):
        # K5 cannot be broken within the sqrt-degree palette; the verdict
        # is reported false but every construction invariant still holds
        code = main(["colour", "--family", "complete", "--n", "5", "--format", "kv"])
        assert code == 0
        report = kv_report(capsys)
        assert report["oracle.asymmetric"] == "false"
        assert report["checks.all"] == "pass"

    def test_single_vertex_run(self, capsys):
        code = main(["colour", "--family", "path", "--n", "1", "--format", "kv"])
        assert code == 0
        report = kv_report(capsys)
        assert report["run.horizon"] == "0"
        assert report["oracle.asymmetric"] == "true"

    def test_bipartite_and_grid_family_flags(self, capsys):
        code = main(["colour", "--family", "complete_bipartite", "--m", "2", "--n", "3", "--format", "kv"])
        assert code == 0
        assert kv_report(capsys)["graph.vertices"] == "5"
        code = main(["colour", "--family", "grid", "--w", "3", "--h", "2", "--format", "kv"])
        assert code == 0
        assert kv_report(capsys)["graph.vertices"] == "6"

    def test_determinism(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out_file = tmp_path / f"col-{tag}.txt"
            trace_file = tmp_path / f"trace-{tag}.txt"
            code = main(
                [
                    "colour",
                    "--family", "tree", "--degree", "3", "--radius", "2",
                    "--out", str(out_file), "--trace", str(trace_file),
                ]
            )
            assert code == 0
            paths.append((out_file.read_bytes(), trace_file.read_bytes()))
        assert paths[0] == paths[1]


class TestVerifyCommand:
    def test_asymmetric(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, complete_graph(2))
        col = tmp_path / "col.txt"
        col.write_text("0\t0\n1\t1\n", encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 0
        assert "asymmetric: true" in capsys.readouterr().out

    def test_constant_colouring_rejected(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, cycle_graph(5))
        col = tmp_path / "col.txt"
        col.write_text("".join(f"{v}\t1\n" for v in range(5)), encoding="utf-8")
        code = main(["verify", graph_path, str(col)])
        assert code == 4
        out = capsys.readouterr().out
        assert "stabilizer-order: 10" in out

    def test_malformed_colouring(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, cycle_graph(5))
        col = tmp_path / "col.txt"
        col.write_text("0 zero\n", encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 1

    def test_size_mismatch(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, cycle_graph(5))
        col = tmp_path / "col.txt"
        col.write_text("0\t0\n1\t1\n", encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 1

    def test_missing_file(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, cycle_graph(5))
        missing = tmp_path / "nope.txt"
        assert main(["verify", graph_path, str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the colouring file is read as a graph file is
        assert captured.err.startswith(f"asym: cannot read {missing}: [Errno 2] ")
        assert len(captured.err.splitlines()) == 1

    def test_negative_vertex(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, cycle_graph(5))
        col = tmp_path / "col.txt"
        col.write_text("-1\t0\n", encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 1
        assert "line 1: vertex -1 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graph_text,colouring_text,line",
        [
            ("1_0\n", "0\t0\n", 1),
            ("2\n0 +1\n", "0\t0\n1\t1\n", 2),
            ("\u0661\n", "0\t0\n", 1),
            ("2\n0 1\n", "0\t0\n1\tb:+1\n", 2),
        ],
        ids=["underscore", "plus-sign", "arabic-indic-digit", "plus-signed-barred-colour"],
    )
    def test_integer_outside_ascii_digits_is_rejected(self, tmp_path, capsys, graph_text, colouring_text, line):
        graph_path = tmp_path / "g.adj"
        graph_path.write_text(graph_text, encoding="utf-8")
        col = tmp_path / "col.txt"
        col.write_text(colouring_text, encoding="utf-8")
        assert main(["verify", str(graph_path), str(col)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"asym: line {line}: "), err

    def test_run_colouring_beyond_the_cap(self, tmp_path, capsys):
        # |Aut| = 955,514,880: the stabilizer is searched, never listed
        graph_path = write_graph(tmp_path, truncated_tree(5, 2))
        col = tmp_path / "col.txt"
        col.write_text(serialize_colouring(run(truncated_tree(5, 2), 0)[0]), encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 0
        assert "asymmetric: true" in capsys.readouterr().out

    def test_run_colouring_of_k5_is_not_asymmetric(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, complete_graph(5))
        col = tmp_path / "col.txt"
        col.write_text(serialize_colouring(run(complete_graph(5), 0)[0]), encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 4
        assert "stabilizer-order: 2" in capsys.readouterr().out.splitlines()

    def test_vertex_far_beyond_the_count(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, cycle_graph(5))
        col = tmp_path / "col.txt"
        col.write_text("1000000000000\t1\n", encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 1
        assert capsys.readouterr().err == "asym: vertex 0 has no colour\n"

    @pytest.mark.parametrize("graph,expected", [(cycle_graph(5), 0), (complete_graph(5), 4)])
    def test_answers_without_the_construction_search(self, tmp_path, capsys, monkeypatch, graph, expected):
        graph_path = write_graph(tmp_path, graph)
        col = tmp_path / "col.txt"
        col.write_text(serialize_colouring(run(graph, 0)[0]), encoding="utf-8")
        break_construction_search(monkeypatch)
        assert main(["verify", graph_path, str(col)]) == expected

    def test_ignores_env_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ASYM_CAP", "abc")
        graph_path = write_graph(tmp_path, cycle_graph(5))
        col = tmp_path / "col.txt"
        col.write_text(serialize_colouring(run(cycle_graph(5), 0)[0]), encoding="utf-8")
        assert main(["verify", graph_path, str(col)]) == 0
        assert capsys.readouterr().out == "asymmetric: true\n"

    def test_takes_no_cap_flag(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["verify", "--help"])
        assert exited.value.code == 0
        assert "--cap" not in capsys.readouterr().out


class TestOracleCommand:
    def test_prints_the_report_then_its_sorted_details(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(2))
        assert main(["oracle", path, "motion-lemma"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"oracle\.elapsed \d+\.\d{3}", lines.pop(3))
        assert lines == [
            "oracle.quantity motion-lemma",
            "oracle.value colouring-found",
            "oracle.search-space 2",
            "oracle.aut-order 2",
            "oracle.colouring 1 2",
            "oracle.motion 2",
        ]

    def test_one_table_gives_the_choices_and_the_cap_readers(self, capsys):
        assert cli.ORACLE_QUANTITIES == tuple(cli.ORACLE_TABLE)
        assert {q for q, (_, reads_cap) in cli.ORACLE_TABLE.items() if reads_cap} == {"motion", "motion-lemma"}
        assert main(["oracle", "g.adj", "nothing"]) == 1
        choices = ", ".join(map(repr, cli.ORACLE_QUANTITIES))
        assert capsys.readouterr().err == f"asym: argument quantity: invalid choice: 'nothing' (choose from {choices})\n"

    def test_motion_c5(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "motion"]) == 0
        assert "oracle.value 4" in capsys.readouterr().out

    def test_autorder_of_a_graph_that_1wl_does_not_split(self, tmp_path, capsys):
        # Paley(101): the maps x -> a*x + b with a a nonzero square mod 101
        path = write_graph(tmp_path, paley(101))
        with deadline(10):
            assert main(["oracle", path, "autorder"]) == 0
        assert "oracle.value 5050" in capsys.readouterr().out.splitlines()

    def test_motion_lists_aut_once(self, tmp_path, capsys, monkeypatch):
        calls = count_listings(monkeypatch)
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "motion"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "oracle.value 4" in lines
        assert "oracle.search-space 10" in lines
        assert len(calls) == 1

    def test_motion_settled_by_a_generator_lists_nothing(self, tmp_path, capsys, monkeypatch):
        # a strong generator of Aut(K4) is a transposition
        calls = count_listings(monkeypatch)
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["oracle", path, "motion"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "oracle.value 2" in lines
        assert "oracle.search-space 3" in lines
        assert calls == []

    # |Aut(tree(5,2))| = 955,514,880 is beyond the default cap; its 19
    # strong generators include a transposition of twin leaves
    @pytest.mark.parametrize(
        "quantity,value,examined",
        [("autorder", 955_514_880, 19), ("motion", 2, 19), ("motion-lemma", "hypothesis-not-satisfied", 0)],
    )
    def test_answers_beyond_the_cap_without_listing(self, tmp_path, capsys, monkeypatch, quantity, value, examined):
        calls = count_listings(monkeypatch)
        path = write_graph(tmp_path, truncated_tree(5, 2))
        assert main(["oracle", path, quantity]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"oracle.value {value}" in lines
        assert f"oracle.search-space {examined}" in lines
        assert calls == []

    def test_dnumber_beyond_the_cap(self, tmp_path, capsys, monkeypatch):
        # K(1,11): 12 vertices, within the vertex guard, and order 11! =
        # 39,916,800, beyond the default cap. The 11 leaves are twins: any
        # two of one colour are swapped by a transposition that fixes the
        # rest, so the leaves need 11 distinct colours, and the centre can
        # share one of them
        calls = count_listings(monkeypatch)
        path = write_graph(tmp_path, complete_bipartite_graph(1, 11))
        assert main(["oracle", path, "dnumber"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "oracle.value 11" in lines
        assert "oracle.search-space 1662" in lines
        assert captured.err == ""
        assert calls == []

    def test_dnumber_k4(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["oracle", path, "dnumber"]) == 0
        assert "oracle.value 4" in capsys.readouterr().out

    # Every prefix tested counts, class count after class count. K4: a
    # transposition fixes every point above its larger point, so a prefix
    # that repeats a label is dropped. One class tests 0, 00; two test 0, 00,
    # 01, 010, 011; three test those, 012, 0120, 0121, 0122; four test 0,
    # 01, 012, 0123: 2 + 5 + 9 + 4 = 20. C5: the reflection (0 3)(1 2) is
    # the one element whose last moved vertex is 3; the other eight move
    # 4. One class tests 0, 00, 000, 0000; two test 1 + 2 + 4 + 8
    # prefixes up to 0000 and 0110, which are dropped, then the 12 full
    # strings after the other six, all dropped; three find 00012 after
    # its five prefixes: 4 + 27 + 5 = 36. K7 and K(4,4) are labelled as in
    # the benchmark's dense workload; a search that tested every full
    # partition would count 877 and 3,488 there, and 104,765 on K(5,5),
    # so these three pin the pruning. No element is listed. K(3,6) and
    # K(6,6) count a prefix that gives two twins one label, which their
    # transposition refutes without a search of the chain, as tested too.
    @pytest.mark.parametrize(
        "graph,value,examined",
        [
            (complete_graph(4), 4, 20),
            (cycle_graph(5), 3, 36),
            (complete_graph(7), 7, 84),
            (complete_bipartite_graph(4, 4), 5, 207),
            (complete_bipartite_graph(5, 5), 6, 1101),
            (complete_bipartite_graph(3, 6), 6, 1187),
            (complete_bipartite_graph(6, 6), 7, 7530),
        ],
    )
    def test_dnumber_search_space_counts_prefixes(self, tmp_path, capsys, monkeypatch, graph, value, examined):
        calls = count_listings(monkeypatch)
        path = write_graph(tmp_path, graph)
        assert main(["oracle", path, "dnumber"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"oracle.value {value}" in lines
        assert f"oracle.search-space {examined}" in lines
        assert len(calls) == 0

    def test_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(1500))
        assert 1500 > sys.getrecursionlimit()
        for quantity, value in (("autorder", 2), ("motion", 1500)):
            assert main(["oracle", path, quantity]) == 0
            captured = capsys.readouterr()
            assert f"oracle.value {value}" in captured.out.splitlines()
            assert captured.err == ""

    def test_recursion_error_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken_order(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(oracle, "autorder_report", broken_order)
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "autorder"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["asym: internal error (RecursionError): maximum recursion depth exceeded"]

    def test_autorder_c5(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "autorder"]) == 0
        assert "oracle.value 10" in capsys.readouterr().out

    def test_motion_lemma(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(5))
        assert main(["oracle", path, "motion-lemma"]) == 0
        assert "oracle.value colouring-found" in capsys.readouterr().out

    def test_motion_lemma_answers_under_cap_1(self, tmp_path, capsys, monkeypatch):
        # a transposition settles the motion of K2 and the 2-colouring is
        # searched over a stabilizer chain, so nothing is listed
        calls = count_listings(monkeypatch)
        path = write_graph(tmp_path, complete_graph(2))
        assert main(["oracle", path, "motion-lemma", "--cap", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "oracle.value colouring-found" in lines
        assert "oracle.colouring 1 2" in lines
        assert captured.err == ""
        assert calls == []

    def test_motion_lemma_hypothesis_fails(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "motion-lemma"]) == 0
        assert "oracle.value hypothesis-not-satisfied" in capsys.readouterr().out

    def test_interior_support(self, tmp_path, capsys):
        from asymcolour import truncated_tree

        path = write_graph(tmp_path, truncated_tree(3, 2))
        assert main(["oracle", path, "interior-support", "--root", "0", "--horizon", "2"]) == 0
        assert "oracle.value true" in capsys.readouterr().out

    def test_interior_support_negative_horizon(self, tmp_path, capsys):
        path = write_graph(tmp_path, truncated_tree(3, 2))
        assert main(["oracle", path, "interior-support", "--horizon", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truncation radius must be >= 0, got -3" in captured.err

    def test_interior_support_beyond_the_cap(self, tmp_path, capsys):
        from asymcolour import truncated_tree

        # |Aut| = 955,514,880: only the searched pointwise stabilizer is held
        path = write_graph(tmp_path, truncated_tree(5, 2))
        assert main(["oracle", path, "interior-support", "--root", "0", "--horizon", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "oracle.value true" in lines
        assert "oracle.search-space 1" in lines

    def test_interior_support_default_radius(self, tmp_path, capsys):
        # from leaf 4 the radius is 4; its sibling leaf 5 is interior
        path = write_graph(tmp_path, truncated_tree(3, 2))
        assert main(["oracle", path, "interior-support", "--root", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "oracle.value false" in lines
        assert "oracle.search-space 2" in lines
        assert "oracle.radius 4" in lines

    @pytest.mark.parametrize("quantity", ["autorder", "dnumber", "interior-support"])
    def test_quantities_that_list_nothing_ignore_env_cap(self, tmp_path, capsys, monkeypatch, quantity):
        path = write_graph(tmp_path, truncated_tree(3, 2))

        def answer():
            code = main(["oracle", path, quantity])
            lines = capsys.readouterr().out.splitlines()
            return code, [line for line in lines if not line.startswith("oracle.elapsed ")]

        monkeypatch.delenv("ASYM_CAP", raising=False)
        unset = answer()
        monkeypatch.setenv("ASYM_CAP", "x")
        assert answer() == unset
        assert unset[0] == 0

    @pytest.mark.parametrize("quantity", ["motion", "motion-lemma"])
    def test_listing_quantities_reject_a_bad_env_cap(self, tmp_path, capsys, monkeypatch, quantity):
        path = write_graph(tmp_path, truncated_tree(3, 2))
        monkeypatch.setenv("ASYM_CAP", "x")
        assert main(["oracle", path, quantity]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "asym: invalid ASYM_CAP value 'x'\n"

    def test_interior_support_without_the_construction_search(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, truncated_tree(3, 3))
        break_construction_search(monkeypatch)
        assert main(["oracle", path, "interior-support"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "oracle.value true" in lines
        assert "oracle.radius 3" in lines

    def test_motion_guard_message(self, tmp_path, capsys):
        from .test_oracle import rigid_graph

        path = write_graph(tmp_path, rigid_graph())
        assert main(["oracle", path, "motion"]) == 1
        assert "motion is undefined" in capsys.readouterr().err

    def test_dnumber_guard(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(13))
        assert main(["oracle", path, "dnumber"]) == 1
        assert "distinguishing-number search supports" in capsys.readouterr().err


class TestBoundCommand:
    def test_chain_8(self, capsys):
        assert main(["bound", "chain", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "10"

    def test_chain_1(self, capsys):
        assert main(["bound", "chain", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"

    def test_colours_4(self, capsys):
        assert main(["bound", "colours", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "12.0"

    def test_nonpositive(self, capsys):
        assert main(["bound", "chain", "0"]) == 1

    @pytest.mark.parametrize("exponent,bits", [(616, 2047), (700, 2326)])
    def test_colours_beyond_a_float_are_refused(self, capsys, exponent, bits):
        # at 10**616 the bound is inf, and from 10**617 on the float
        # conversion overflows
        assert main(["bound", "colours", str(10**exponent)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"asym: the colour bound of a {bits}-bit max degree overflows a float\n"


# each class of malformed input, run as the installed command runs: one
# ``asym:`` line on stderr, the documented exit code and no traceback
MALFORMED = {
    "unwritable-out": (["colour", "--family", "complete", "--n", "3", "--out", "{tmp}/missing/c.txt"], {}, 1),
    "bad-env-cap": (["colour", "--family", "complete", "--n", "3"], {"ASYM_CAP": "x"}, 1),
    "colouring-vertex-1e12": (["verify", "{tmp}/c5.adj", "{tmp}/far.txt"], {}, 1),
    "graph-vertex-count-1e12": (["oracle", "{tmp}/huge.adj", "autorder"], {}, 1),
    "missing-graph-file": (["oracle", "{tmp}/nope.adj", "motion"], {}, 1),
    "usage-bad-int": (["bound", "chain", "abc"], {}, 1),
    "usage-bad-flag-value": (["colour", "--family", "tree", "--degree", "x"], {}, 1),
    "usage-missing-arguments": (["oracle"], {}, 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_in_a_subprocess(tmp_path, case):
    args, env, code = MALFORMED[case]
    write_graph(tmp_path, cycle_graph(5), "c5.adj")
    (tmp_path / "far.txt").write_text("1000000000000\t1\n", encoding="utf-8")
    (tmp_path / "huge.adj").write_text("1000000000000\n0 1\n", encoding="utf-8")
    src = str(Path(asymcolour.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "asymcolour.cli", *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("asym: "), done.stderr
