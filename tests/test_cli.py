import hashlib
import resource
import subprocess
import sys

import pytest

from crossnum import oracle, pipeline
from crossnum.cli import (
    EXIT_CAP,
    EXIT_COVER,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from crossnum.drawing import UnrealizableDrawing
from crossnum.graphs import (
    complete_bipartite,
    complete_graph,
    format_compressed,
    format_edge_list,
)
from crossnum.graphs import CompressedGraph
from crossnum.pipeline import ClusteringMismatch

# inputs whose representative sets (or, for cover 12, whose cyclic orders)
# are far too many to list; a solve must refuse them before building any
BLOWUP_INPUTS = ("7\nh 127 3\n", "12\nh 4095 1\n")


def _limit_memory():
    # a regression that lists the blow-up inputs' rep sets ends in a
    # MemoryError of its own process, not in the host running out
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(args, python_flags=(), limit_memory=False):
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "crossnum.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=_limit_memory if limit_memory else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_k33(tmp_path):
    p = tmp_path / "k33.txt"
    p.write_text("0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n")
    return str(p)


def test_solve_k33(tmp_path):
    code, out, _ = run_cli([write_k33(tmp_path)])
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_verify_k5(tmp_path):
    p = tmp_path / "k5.txt"
    p.write_text(format_edge_list(complete_graph(5)))
    code, out, _ = run_cli([str(p), "--mode", "verify"])
    assert code == EXIT_OK
    assert out.strip() == "pipeline=1 oracle=1"


def test_compressed_input_huge(tmp_path):
    cg = CompressedGraph.make(3, (), {7: 10**6})
    p = tmp_path / "big.txt"
    p.write_text(format_compressed(cg))
    code, out, _ = run_cli([str(p), "--format", "compressed"])
    assert code == EXIT_OK
    assert out.strip() == "249999500000"


def test_parse_error_exit(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 junk\n")
    code, _, err = run_cli([str(p)])
    assert code == EXIT_PARSE
    assert "error" in err


def test_parse_error_no_partial_outputs(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 junk\n")
    rp = tmp_path / "report.json"
    code, _, _ = run_cli([str(p), "--out-report", str(rp)])
    assert code == EXIT_PARSE
    assert not rp.exists()


def test_cover_exceeded_exit(tmp_path):
    p = tmp_path / "k8.txt"
    p.write_text(format_edge_list(complete_graph(8)))
    code, _, err = run_cli([str(p), "--k-max", "3"])
    assert code == EXIT_COVER


def test_missing_file_exit():
    code, _, _ = run_cli(["/nonexistent/input.txt"])
    assert code == EXIT_PARSE


def test_unreadable_input_path_exit(tmp_path, capsys):
    assert main([str(tmp_path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("option", ["--out-report", "--out-drawing",
                                    "--out-svg"])
@pytest.mark.parametrize("where", ["missing/out", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_path_exit(tmp_path, option, where):
    # a path under a missing directory, or a directory itself
    code, out, err = run_cli([write_k33(tmp_path), option,
                              str(tmp_path / where)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("option, where", [("--out-svg", "missing/x.svg"),
                                           ("--out-drawing", ".")],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_path_leaves_nothing(tmp_path, capsys, option,
                                               where):
    """Every output path is checked before the solve, so one that cannot be
    written leaves no value printed and no other output written."""
    out_dir = tmp_path / "po"
    out_dir.mkdir()
    code = main([write_k33(tmp_path), "--out-report", str(out_dir / "r.json"),
                 option, str(out_dir / where)])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("mode", ["verify", "oracle", "dump-clusterings"])
@pytest.mark.parametrize("option", ["--out-report", "--out-drawing",
                                    "--out-svg"])
def test_output_option_outside_solve_is_a_usage_error(tmp_path, capsys,
                                                      mode, option):
    out_file = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([write_k33(tmp_path), "--mode", mode, option, str(out_file)])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("mode", ["verify", "oracle", "dump-clusterings"])
def test_verbose_outside_solve_is_a_usage_error(tmp_path, capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main([write_k33(tmp_path), "--mode", mode, "-v"])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-v applies only to --mode solve" in captured.err


def test_verbose_solve_counts_tag_skips(tmp_path, capsys):
    p = tmp_path / "k44.txt"
    p.write_text("4\nh 15 4\n")
    assert main([str(p), "--format", "compressed", "-v"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "4\n"
    assert captured.err.startswith(
        "# component cover=(0, 1, 2, 3) value=4 clusterings=32 "
        "tag_skipped=4\n")


def test_outputs_and_determinism(tmp_path):
    src = write_k33(tmp_path)
    arts = []
    for tag in ("a", "b"):
        rp = tmp_path / f"report_{tag}.json"
        dp = tmp_path / f"drawing_{tag}.txt"
        sp = tmp_path / f"out_{tag}.svg"
        code, out, _ = run_cli(
            [src, "--out-report", str(rp), "--out-drawing", str(dp),
             "--out-svg", str(sp)]
        )
        assert code == EXIT_OK
        arts.append((rp.read_bytes(), dp.read_bytes(), sp.read_bytes()))
    assert arts[0] == arts[1]


# sha256 of the report, drawing and SVG bytes that the CLI writes; a
# change in face order, crossing ids or SVG node order shows here
PINNED_OUTPUTS = {
    "K3,3": (
        "edge-list", "0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
        ("d556e448d4d7e5c52d849fd90d9daa12cce3fa92dd32aedc9ba02a6dd4285027",
         "034c450477a8bbb820472dfc1062c45fda0424c802f13ed69e635e26ee01ba77",
         "990211a1c4b06e590dac5b22c57a43216215fd4853d63e31893c93d24c335595")),
    "K5": (
        "edge-list", format_edge_list(complete_graph(5)),
        ("493b3dabb2c3225e252ef8d7ed4c159d113bc5c22e04646d3c20f599206bfc60",
         "546c6a35bef9930e26713ea92d5c4bf54900d661c162d8f5e7ccad7a16c3195b",
         "5207ccb54f633426a28f761126f074ea5c3df302dc75f39680e9653a27e532f8")),
    "K3,5 compressed": (
        "compressed", "3\nh 7 5\n",
        ("ed1c77e90849da9c632ed2f2bee62a82723873f4e99db533c7dc3df8924fc711",
         "943ce9ab3f264d96ec4cddace8d5021b26a8980b77e7a348e0200913d8db522b",
         "a1160d31d872974fd015417ac8c6e0b7918b9ea472856242070ac25136e348d0")),
    "cover edge plus two stacks": (
        "compressed", "3\ngx 0 1\nh 7 2\nh 3 1\n",
        ("e3eb1dd1eba38d7bd9007bd27680de25dce5b9028e21bfde2ee8b75a4c8eaa88",
         "f757c776186c21631e3809273f480993f5b0b9a426992383ffede5514f7ae5ca",
         "4052eb1e2c915cf56ee44b12e096aeb216d10e12c390c15a91f89350aab121bb")),
}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(tmp_path, capsys, name):
    fmt, text, want = PINNED_OUTPUTS[name]
    src = tmp_path / "in.txt"
    src.write_text(text)
    outs = [tmp_path / f for f in ("report.json", "drawing.txt", "out.svg")]
    assert main([str(src), "--format", fmt, "--out-report", str(outs[0]),
                 "--out-drawing", str(outs[1]),
                 "--out-svg", str(outs[2])]) == EXIT_OK
    capsys.readouterr()
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in outs) == want


def test_svg_crossing_marks(tmp_path):
    src = write_k33(tmp_path)
    sp = tmp_path / "k33.svg"
    code, _, _ = run_cli([src, "--out-svg", str(sp)])
    assert code == EXIT_OK
    svg = sp.read_text()
    assert svg.count('class="crossing"') == 1
    assert svg.count('class="vertex"') == 6


def test_svg_triangle(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("0 1\n1 2\n0 2\n")
    sp = tmp_path / "tri.svg"
    code, _, _ = run_cli([str(p), "--out-svg", str(sp)])
    assert code == EXIT_OK
    svg = sp.read_text()
    assert svg.count('class="vertex"') == 3
    assert svg.count('class="crossing"') == 0


def test_oracle_mode(tmp_path):
    src = write_k33(tmp_path)
    code, out, _ = run_cli([src, "--mode", "oracle"])
    assert code == EXIT_OK and out.strip() == "1"


def test_dump_clusterings(tmp_path):
    src = write_k33(tmp_path)
    code, out, _ = run_cli([src, "--mode", "dump-clusterings"])
    assert code == EXIT_OK
    n = out.count("clustering ")
    assert n >= 2
    assert "drawing" in out
    # the cap is hit only when a clustering beyond it exists
    code, capped, _ = run_cli([src, "--mode", "dump-clusterings",
                               "--budget-cap", str(n)])
    assert code == EXIT_OK and capped == out
    code, capped, err = run_cli([src, "--mode", "dump-clusterings",
                                 "--budget-cap", str(n - 1)])
    assert code == EXIT_CAP and "clustering cap hit" in err
    assert capped.count("clustering ") == n - 1


def test_dump_ends_at_the_chord_budget(tmp_path):
    # three representatives, each alone in its group with h = 4: a
    # crossing on their stars costs 4 or 16 against the chord budget of
    # 7, so the dump ends after 328 clusterings; charged 1 a crossing,
    # it was still running after 20 s and 24 987 clusterings
    p = tmp_path / "g3.txt"
    p.write_text("3\ngx 0 1\nh 7 4\nh 3 4\nh 5 4\n")
    args = [str(p), "--format", "compressed", "--mode", "dump-clusterings"]
    code, out, _ = run_cli(args + ["--budget-cap", "328"])
    assert code == EXIT_OK and out.count("clustering ") == 328
    code, _, err = run_cli(args + ["--budget-cap", "327"])
    assert code == EXIT_CAP and "clustering cap hit" in err


def test_main_inprocess(tmp_path):
    # exercise the entry point without a subprocess as well
    src = write_k33(tmp_path)
    assert main([src]) == EXIT_OK


@pytest.mark.parametrize("mode", ["solve", "dump-clusterings"])
@pytest.mark.parametrize("text", BLOWUP_INPUTS)
def test_rep_set_blowup_fails_closed(tmp_path, text, mode):
    p = tmp_path / "blowup.txt"
    p.write_text(text)
    code, out, err = run_cli(
        [str(p), "--format", "compressed", "--mode", mode], limit_memory=True
    )
    assert code == EXIT_CAP, err
    assert out == ""
    assert err == "error: representative-set cap exceeded\n"


# inputs that solve at once but whose lifted drawings are far too large to
# build: compressed K_{3,10^6} for its crossings, K_{2,10^6} (planar) for
# its stacked copies, and 10^6 isolated vertices
HUGE_DRAWINGS = (
    ("3\nh 7 1000000\n", "249999500000 crossings and 1000003 vertices"),
    ("2\nh 3 1000000\n", "0 crossings and 1000002 vertices"),
    ("2\nh 0 1000000\n", "0 crossings and 1000002 vertices"),
)


@pytest.mark.parametrize("mode", ["solve", "verify"])
@pytest.mark.parametrize("text, size", HUGE_DRAWINGS)
def test_huge_drawing_fails_closed(tmp_path, text, size, mode):
    # the lift is refused before any part of the drawing is built
    p = tmp_path / "huge.txt"
    p.write_text(text)
    drawing = tmp_path / "lifted.txt"
    # verify lifts the winner itself when no drawing was asked for
    extra = ["--out-drawing", str(drawing)] if mode == "solve" else []
    code, out, err = run_cli(
        [str(p), "--format", "compressed", "--mode", mode, *extra],
        limit_memory=True,
    )
    assert code == EXIT_CAP, err
    assert out == ""
    assert err.startswith("error: drawing cap exceeded: ")
    assert f"would have {size} (cap " in err
    assert not drawing.exists()


# compressed inputs whose cover size is negative or far above
# pipeline.COVER_CAP: each must end in a typed exit before anything is
# allocated per cover vertex, not in a value, a MemoryError or a long run
COVER_SIZE_INPUTS = (
    ("-1\n", EXIT_PARSE, "error: negative cover size -1\n"),
    ("-1\nh 1 1\n", EXIT_PARSE, "error: negative cover size -1\n"),
    ("1000000000000\n", EXIT_CAP, "error: cover cap exceeded: "),
    ("1000000000000\nh 3 5\n", EXIT_CAP, "error: cover cap exceeded: "),
    ("200000\n", EXIT_CAP, "error: cover cap exceeded: "),
)


@pytest.mark.parametrize("mode", ["solve", "verify", "dump-clusterings"])
@pytest.mark.parametrize("text, code, err_start", COVER_SIZE_INPUTS)
def test_cover_size_fails_closed(tmp_path, text, code, err_start, mode):
    p = tmp_path / "cover.txt"
    p.write_text(text)
    got, out, err = run_cli(
        [str(p), "--format", "compressed", "--mode", mode], limit_memory=True
    )
    assert got == code, err
    assert out == ""
    assert err.startswith(err_start)


def test_cover_search_fails_closed(tmp_path):
    """A 20-edge matching at --k-max 20: the cover search walks 2^20
    leaves at k = 20 and must keep one cover, not all of them."""
    p = tmp_path / "matching.txt"
    p.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(20)))
    code, out, _ = run_cli([str(p), "--k-max", "20"], limit_memory=True)
    assert (code, out) == (EXIT_OK, "0\n")


def test_oracle_mode_fails_closed(tmp_path):
    # the size gate runs before the graph is expanded
    p = tmp_path / "huge.txt"
    p.write_text("3\nh 7 1000000000\n")
    code, out, err = run_cli(
        [str(p), "--format", "compressed", "--mode", "oracle"],
        limit_memory=True,
    )
    assert code == EXIT_CAP, err
    assert out == ""
    assert err == ("error: graph outside oracle size limits: "
                   "1000000003 vertices (limit 9)\n")
    # K_{3,7} has one vertex too many; K_3 joined to K_{3,6} has nine
    # vertices but 21 edges, three over the edge limit
    for text in ("3\nh 7 7\n", "3\ngx 0 1\ngx 0 2\ngx 1 2\nh 7 6\n"):
        p.write_text(text)
        code, out, _ = run_cli([str(p), "--format", "compressed",
                                "--mode", "oracle"])
        assert code == EXIT_CAP and out == ""


@pytest.mark.parametrize("mode", ["oracle", "verify"])
def test_oracle_work_cap_fails_closed(tmp_path, mode, monkeypatch, capsys):
    k35 = tmp_path / "k35.txt"
    k35.write_text(format_edge_list(complete_bipartite(3, 5)))
    assert main([str(k35), "--mode", mode]) == EXIT_OK
    assert capsys.readouterr().out == (
        "4\n" if mode == "oracle" else "pipeline=4 oracle=4\n"
    )
    # K_{3,6} (compressed 3 / h 7 6) is inside the size limits, and the
    # default cap stops it; K_{3,5} needs about 600 000 units of work
    k36 = tmp_path / "k36.txt"
    k36.write_text("3\nh 7 6\n")
    runs = ((k36, "compressed", oracle.MAX_WORK),
            (k35, "edge-list", 500_000))
    for src, fmt, cap in runs:
        monkeypatch.setattr(oracle, "MAX_WORK", cap)
        assert main([str(src), "--format", fmt, "--mode", mode]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: oracle work cap hit: {cap} "
                                "pair-set images and planarity tests\n")


@pytest.mark.parametrize("mode", ["solve", "verify", "dump-clusterings"])
def test_repeated_gx_edge_is_a_parse_error(tmp_path, mode):
    p = tmp_path / "twice.txt"
    p.write_text("2\ngx 0 1\ngx 0 1\n")
    code, out, err = run_cli([str(p), "--format", "compressed", "--mode", mode])
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: repeated G_X edge\n"


# h records that are checked as they are read, before the counts of
# repeated masks add up: a negative count must not cancel an earlier
# record, and a zero total must not hide a mask outside the cover
BAD_H_RECORDS = (
    ("3\nh 7 3\nh 7 -1\n", "line 3: h count -1 is not positive"),
    ("3\nh 99 0\n", "line 2: h count 0 is not positive"),
    ("3\nh -5 0\n", "line 2: h count 0 is not positive"),
    ("3\nh -5 1\n", "line 2: h mask -5 is not a subset of the 3 cover "
                    "vertices"),
    ("3\nh 8 1\nh 8 -1\n", "line 2: h mask 8 is not a subset of the 3 "
                           "cover vertices"),
)


@pytest.mark.parametrize("text, message", BAD_H_RECORDS)
def test_bad_h_record_is_a_parse_error(tmp_path, capsys, text, message):
    p = tmp_path / "h.txt"
    p.write_text(text)
    assert main([str(p), "--format", "compressed"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gx_record_takes_its_ends_in_either_order(tmp_path):
    """A `gx` record names a cover edge by its ends in either order, as the
    edge-list format does, and a record with equal ends is a self-loop."""
    p = tmp_path / "gx.txt"
    outs = []
    for record in ("gx 0 1", "gx 1 0"):
        p.write_text(f"3\n{record}\nh 7 2\n")
        code, out, _ = run_cli([str(p), "--format", "compressed"])
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1] == "0\n"
    p.write_text("3\ngx 1 1\nh 7 2\n")
    code, out, err = run_cli([str(p), "--format", "compressed"])
    assert code == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and "self-loop" in err


def test_checks_survive_optimized_mode(tmp_path):
    # `python -O` strips asserts; answers and caps must not depend on them
    code, out, _ = run_cli([write_k33(tmp_path)], python_flags=("-O",))
    assert code == EXIT_OK and out.strip() == "1"
    code, out, _ = run_cli([write_k33(tmp_path), "--mode", "verify"],
                           python_flags=("-O",))
    assert code == EXIT_OK and out.strip() == "pipeline=1 oracle=1"
    optimized, plain = tmp_path / "optimized.txt", tmp_path / "plain.txt"
    code, _, _ = run_cli([write_k33(tmp_path), "--out-drawing", str(optimized)],
                         python_flags=("-O",))
    assert code == EXIT_OK
    assert run_cli([write_k33(tmp_path), "--out-drawing", str(plain)])[0] == EXIT_OK
    assert optimized.read_text() == plain.read_text()
    p = tmp_path / "blowup.txt"
    p.write_text(BLOWUP_INPUTS[0])
    code, _, err = run_cli(
        [str(p), "--format", "compressed"], python_flags=("-O",),
        limit_memory=True,
    )
    assert code == EXIT_CAP, err


@pytest.mark.parametrize(
    "exc", [ClusteringMismatch, UnrealizableDrawing, ValueError]
)
def test_failed_internal_check_is_an_error_exit(tmp_path, monkeypatch,
                                                capsys, exc):
    def broken_build_iqp(c, cg):
        raise exc("check failed")

    monkeypatch.setattr(pipeline, "build_iqp", broken_build_iqp)
    assert main([write_k33(tmp_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: check failed\n"


@pytest.mark.parametrize(
    "option", ["--k-max", "--budget-cap", "--iqp-cap", "--oracle-crossings"]
)
def test_negative_count_option_is_a_parse_error(tmp_path, option):
    code, out, err = run_cli([write_k33(tmp_path), "--mode", "verify",
                              option, "-1"])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"argument {option}: -1 is negative" in err


def test_budget_cap_counts_per_component(tmp_path):
    # two copies of one component: a cover edge 0-1, one vertex on
    # {0, 1} and two on {0, 1, 2}; a solve sees 4 clusterings in each,
    # 8 in all
    p = tmp_path / "pair.txt"
    p.write_text("6\ngx 0 1\ngx 3 4\nh 3 1\nh 7 2\nh 24 1\nh 56 2\n")
    code, out, _ = run_cli([str(p), "--format", "compressed",
                            "--budget-cap", "4"])
    assert code == EXIT_OK and out == "0\n"
    code, out, err = run_cli([str(p), "--format", "compressed",
                              "--budget-cap", "3"])
    assert code == EXIT_CAP and out == ""
    assert "more than 3 clusterings" in err


def test_dump_walks_the_solvers_components(tmp_path):
    from crossnum.drawing import drawing_to_text
    from crossnum.graphs import parse_compressed

    # two K_{2,2} components: one block each, at its own chord budget
    text = "4\nh 3 2\nh 12 2\n"
    p = tmp_path / "two.txt"
    p.write_text(text)
    code, out, _ = run_cli([str(p), "--format", "compressed",
                            "--mode", "dump-clusterings"])
    assert code == EXIT_OK
    want = []
    comps, _ = pipeline.component_split(parse_compressed(text))
    assert [cover for cover, _ in comps] == [(0, 1), (2, 3)]
    for cover, sub in comps:
        want.append("component " + " ".join(map(str, cover)) + "\n")
        stream = pipeline.enumerate_clusterings(
            sub, pipeline.initial_budget(sub))
        for count, c in enumerate(stream, 1):
            reps = " ".join(f"{s.vertex}:{s.mask}:{','.join(map(str, s.tag))}"
                            for s in c.reps)
            want.append(f"clustering {count} r={c.r}\nreps {reps}\n"
                        f"{drawing_to_text(c.drawing)}end\n")
    assert out == "".join(want)


def test_cover_search_is_linear_in_a_matching(tmp_path):
    """Each edge of a matching is a component of its own, searched on its
    own: a 2000-edge matching at --k-max 2000 solves in seconds."""
    p = tmp_path / "matching.txt"
    p.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(2000)))
    proc = subprocess.run(
        [sys.executable, "-m", "crossnum.cli", str(p), "--k-max", "2000"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_OK, "0\n"), proc.stderr


@pytest.mark.parametrize("mode", ["solve", "verify", "dump-clusterings"])
def test_router_recursion_fails_closed(tmp_path, mode):
    """The router nests one generator per drawn edge and one per crossing
    of the route in progress.  With the recursion limit 25 frames above
    the caller's, C4+3 outgrows it inside the router, which must end in
    the cap exit with one error line, not a RecursionError traceback."""
    p = tmp_path / "c4p3.txt"
    p.write_text("4\ngx 0 1\ngx 1 2\ngx 2 3\ngx 0 3\nh 15 3\n")
    code = (
        "import inspect, sys\n"
        "import crossnum.cli\n"
        "sys.setrecursionlimit(len(inspect.stack()) + 25)\n"
        f"sys.exit(crossnum.cli.main([{str(p)!r}, '--format', 'compressed',"
        f" '--mode', {mode!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CAP, proc.stderr
    assert proc.stderr.startswith("error: router depth cap hit: ")
    assert proc.stderr.count("\n") == 1
