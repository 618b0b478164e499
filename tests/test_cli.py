import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from stringcones import cli, cones, paths, polyhedra, weyl
from stringcones.cli import render_svg, run
from stringcones.diagram import build_symp_diagram, orient
from stringcones.weyl import LieType, ReducedWord, enumerate_reduced_words


def test_words_command():
    res = run(["words", "C2"])
    assert res.status == 0
    assert res.payload["words"] == ["1,2,1,2", "2,1,2,1"]


def test_cone_irredundant_worked_example():
    res = run(["cone", "C", "2,1,2,1", "--irredundant"])
    assert res.status == 0
    assert res.payload["facet_count"] == 4
    assert res.table.startswith("4 facets:")
    assert sorted(res.payload["facets"]) == sorted(
        ["a4", "a1", "a2 - a3", "a3 - a4"]
    )


def test_cone_accepts_full_type_text():
    res = run(["cone", "A3", "1,2,1,3,2,1"])
    assert res.status == 0
    assert len(res.payload["constraints"]) == 6


def test_paths_command_json_shape():
    res = run(["paths", "C", "2,1,2,1", "--k", "2"])
    assert res.status == 0
    assert len(res.payload["paths"]) == 5
    entry = next(p for p in res.payload["paths"] if p["wires"] == ["2", "2b"])
    assert entry["symmetric"] is True


@pytest.mark.parametrize("type_text", ["A3", "B2", "B3", "C2", "C3"])
def test_paths_lists_one_path_per_cone_inequality(type_text):
    """`paths` lists the paths of the string cone: in type B that takes all
    2n - 1 orientations, not the n of type C."""
    for w in enumerate_reduced_words(LieType.parse(type_text)):
        listed = run(["paths", type_text, str(w)])
        cone = run(["cone", type_text, str(w)])
        assert listed.status == cone.status == 0
        assert len(listed.payload["paths"]) == len(cone.payload["constraints"]), w


def test_paths_of_type_b_include_the_barred_orientations():
    listed = run(["paths", "B2", "2,1,2,1"]).payload["paths"]
    assert len(listed) == 7
    assert [p["wires"] for p in listed if p["k"] == "2b"] == [["2b", "1b"]]
    assert run(["paths", "B2", "2,1,2,1", "--k", "3"]).payload["paths"] == listed[-1:]


def test_paths_of_type_b_take_the_printed_barred_label():
    by_label = run(["paths", "B2", "2,1,2,1", "--k", "2b"]).payload["paths"]
    assert by_label == run(["paths", "B2", "2,1,2,1", "--k", "3"]).payload["paths"]
    assert [p["k"] for p in by_label] == ["2b"]
    for type_text, label, top in (("C2", "1b", 2), ("B2", "3b", 3)):
        res = run(["paths", type_text, "2,1,2,1", "--k", label])
        assert res.status == 2
        assert res.payload == {"error": f"orientation index {label} out of range 1..{top}"}


@pytest.mark.parametrize("type_text", ["A3", "B2", "B3", "C2", "C3"])
def test_paths_k_accepts_exactly_the_printed_labels_and_the_up_counts(type_text):
    """`--k` takes each label `paths` prints under `k`, selecting the paths
    printed under it, and each up count 1..top, one orientation per count in
    listing order; every other label is refused, naming the range."""
    for w in enumerate_reduced_words(LieType.parse(type_text)):
        listed = run(["paths", type_text, str(w)]).payload["paths"]
        printed = list(dict.fromkeys(p["k"] for p in listed))
        top = len(printed)  # every orientation has paths
        for label in printed:
            chosen = run(["paths", type_text, str(w), "--k", label]).payload["paths"]
            assert chosen == [p for p in listed if p["k"] == label], (w, label)
        by_count = [run(["paths", type_text, str(w), "--k", str(u)]).payload["paths"]
                    for u in range(1, top + 1)]
        assert [len({p["k"] for p in sel}) for sel in by_count] == [1] * top, w
        assert [p for sel in by_count for p in sel] == listed, w
        tried = {f"{u}{bar}" for u in range(top + 2) for bar in ("", "b")}
        for label in tried - set(printed) - {str(u) for u in range(1, top + 1)}:
            res = run(["paths", type_text, str(w), "--k", label])
            assert res.status == 2
            assert res.payload == {"error": f"orientation index {label} out of range 1..{top}"}


@pytest.mark.parametrize(
    "type_text,word,top", [("A3", "1,2,1,3,2,1", 3), ("B2", "2,1,2,1", 3), ("C2", "2,1,2,1", 2)]
)
def test_paths_refuses_an_orientation_out_of_range(type_text, word, top):
    assert run(["paths", type_text, word, "--k", str(top)]).status == 0
    for k in (0, top + 1):
        res = run(["paths", type_text, word, "--k", str(k)])
        assert res.status == 2
        assert res.payload == {"error": f"orientation index {k} out of range 1..{top}"}


def test_polytope_fvector_equiv_pipeline(tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    res = run(["polytope", "C", "2,1,2,1", "--lambda", "rho"])
    p1.write_text(json.dumps(res.payload))
    res2 = run(["gt", "--n", "2", "--lambda", "rho"])
    p2.write_text(json.dumps(res2.payload))
    fv = run(["fvector", str(p1)])
    assert fv.payload["fvector"] == [1, 12, 26, 22, 8, 1]
    eq = run(["equiv", str(p1), str(p2)])
    assert eq.payload["status"] == "equivalent"
    assert eq.payload["decided_by"] == "search"
    assert eq.payload["matrix"] is not None


def test_equiv_of_two_points_prints_empty_matrix_and_shift(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"dim": 0, "rows": []}))
    eq = run(["equiv", str(point), str(point)])
    assert eq.payload["status"] == "equivalent"
    assert (eq.payload["matrix"], eq.payload["shift"]) == ([], [])


def test_full_polytope_payloads():
    nested = run(["polytope", "C", "2,1,2,1", "--lambda", "rho", "--full"])
    gt = run(["gt", "--n", "2", "--lambda", "rho", "--full"])
    braid = run(["polytope", "C", "1,2,1,2", "--lambda", "rho", "--full"])
    for res in (nested, gt, braid):
        assert res.status == 0
        assert len(res.payload["vrep"]["vertices"]) == res.payload["fvector"][1]
        assert res.payload["vrep"]["rays"] == []
    assert nested.payload["fvector"] == gt.payload["fvector"] == [1, 12, 26, 22, 8, 1]
    assert nested.payload["integral"] is True and gt.payload["integral"] is True
    assert braid.payload["integral"] is False


def test_gt_command():
    res = run(["gt", "--n", "3", "--lambda", "rho"])
    assert res.status == 0
    assert res.payload["dim"] == 9
    assert len(res.payload["coordinates"]) == 9


def test_render_svg_fig_counts(tmp_path):
    out = tmp_path / "g.svg"
    res = run(["render", "A", "1,2,1,3,2,1", "-o", str(out)])
    assert res.status == 0
    svg = out.read_text()
    assert svg.count("<circle") == 6  # one dot per crossing
    assert svg.count("<polyline") == 4  # one per wire


def test_render_symplectic_with_highlight(tmp_path):
    out = tmp_path / "s.svg"
    res = run(["render", "C", "1,2,3,1,2,3,1,2,3", "-o", str(out)])
    assert res.status == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 6
    assert "dasharray" in svg  # the wall
    # nine letter positions: wall letters one crossing, the rest twins
    assert svg.count("<circle") == 15
    for j in (3, 6, 9):
        assert f">t{j}<" in svg
    for j in (1, 2, 4, 5, 7, 8):
        assert f">t{j}<" in svg and f">tbar{j}<" in svg
    res2 = run(
        ["render", "C", "2,1,2,1", "--highlight", "2,1b,1,2b", "-o", str(out)]
    )
    assert res2.status == 0
    assert out.read_text().count("<polyline") == 5  # 4 wires + 1 highlight


def test_render_mirror_pair_symmetry():
    sd = build_symp_diagram(ReducedWord.parse("C2", "2,1,2,1"))
    from stringcones.paths import enumerate_paths, mirror

    p = next(q for q in enumerate_paths(orient(sd, 2)) if q.wires_by_name() == ("2", "1", "2b"))
    svg = render_svg(sd, [p, mirror(p)])
    assert svg.count("stroke-width=\"4\"") == 2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["A3", "1,2,1,3,2,1"], "c976575ae58ed8dd4775e2e5f860979612868b55538024b704aa07f259ec255a"),
        (["C3", "1,2,3,1,2,3,1,2,3"], "acd07756ff0f930f080eece8351df24df82703039454f7badf6c0e03037e2738"),
        (
            ["C2", "2,1,2,1", "--highlight", "2,1b,1,2b"],
            "6911ea8cbb58305a24349dfbd21706a3d9400612e42fd8e687ff39c3ca8e5cdc",
        ),
        (
            ["B2", "1,2,1,2", "--highlight", "2b,1b"],
            "a6c21f8f9bb127b56323870625c701b404389fc703bbe438f4ee6dea486fc7c3",
        ),
    ],
)
def test_render_output_is_byte_identical(tmp_path, argv, digest):
    """The SVG bytes, pinned: a plain diagram, a wall with three wall nodes,
    and a highlighted path with barred wires in types C and B."""
    out = tmp_path / "d.svg"
    assert run(["render", *argv, "-o", str(out)]).status == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def output_digest(argv) -> str:
    """The sha256 of the JSON payload (keys in order) and the table of one run."""
    res = run(argv)
    assert res.status == 0
    return hashlib.sha256((json.dumps(res.payload, indent=2) + res.table).encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["cone", "C3", "1,3,2,1,3,2,1,3,2"],
            "737f6096ebb1f733825238b7acfb53a04b69beaa85cbfb098ee8b7261109041b",
        ),
        (
            ["cone", "C3", "1,3,2,1,3,2,1,3,2", "--irredundant"],
            "1e7d5e4402c7c69b439d328a427353bf192b2a87f8255da5c1014a2874e11e22",
        ),
        (["cone", "A3", "1,2,1,3,2,1"], "486cb21f9b182214b174d7f71891fa753688630656a5811961e085300db0c476"),
        (["cone", "B2", "1,2,1,2"], "376ac5d21645ca3d08da8cc77137a608f812b7bf2c0a48ff48c8838e5f3f2c8c"),
        (
            ["cone", "B3", "1,2,3,1,2,3,1,2,3"],
            "e694963c3ea0d8ba2b9deb056d5dcbe5d47f3e4a55df018dfef55e0f42d873f1",
        ),
        (
            ["polytope", "C2", "2,1,2,1", "--lambda", "rho", "--full"],
            "e31226891a9c35f58608c8c66c73c2f887333aabd47d8fa642954eb32084a386",
        ),
        (
            ["gt", "--n", "2", "--lambda", "rho", "--full"],
            "05df869b5ac3dd792c738f4017f84947bd3d4d55b2e928765e1e83e52ea44e37",
        ),
    ],
)
def test_cone_output_is_byte_identical(argv, digest):
    """`cone` (each path's form, and the facets), `polytope --full` and
    `gt --full`, pinned."""
    assert output_digest(argv) == digest


def test_cone_searches_each_orientation_once(monkeypatch):
    """A cold `cone` lists each path's form from one path search per
    orientation: 3 on a C3 word, not one search for the cone and one more
    for the paths that label it."""
    cones._class_entry.cache_clear()
    searches = []
    search = paths._search

    def counted(d):
        searches.append(d.up_count)
        return search(d)

    monkeypatch.setattr(paths, "_search", counted)
    assert run(["cone", "C3", "1,3,2,1,3,2,1,3,2"]).status == 0
    assert searches == [1, 2, 3]
    cones._class_entry.cache_clear()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["A3", "1,2,1,3,2,1"], "42fe36d256065ed927833793d1ffc5c15e2a43cc73daa11a2206b11993c7ff21"),
        (["B2", "1,2,1,2"], "25484530c8ddb8099f781e112d89d253a77dad2778b25d930193e77d7a610089"),
        (
            ["C3", "1,3,2,1,3,2,1,3,2"],
            "d65583ec979542d64ff7406bf34ea5c76342e61fa64eecce765a13fc26610ff5",
        ),
    ],
)
def test_paths_output_is_byte_identical(argv, digest):
    """The listed rigorous paths of `paths`, in order, pinned."""
    assert output_digest(["paths", *argv]) == digest


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_closed_pipe_ends_quietly(flags):
    """`words C4` prints 24,024 lines, more than a pipe holds; a reader that
    takes one line and closes the pipe leaves no traceback and exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "stringcones", "words", "C4", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 0


@pytest.mark.parametrize("argv", [["words", "C2", "--js"], ["cone", "C2", "2,1,2,1", "--irr", "--js"]])
def test_an_abbreviated_option_is_refused(argv):
    """argparse would read `--js` as `--json`, and a prefix that names one
    option today may name another once an option sharing it is added: every
    option is spelled in full, and a prefix is a usage error."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "stringcones", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments" in proc.stderr


def test_the_printed_format_follows_the_parsed_json_flag():
    """After `--` the token `--json` is a positional (here an unknown type),
    not the flag: the error prints as plain text; the flag itself gives JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    stringcones = [sys.executable, "-m", "stringcones"]
    proc = subprocess.run(
        [*stringcones, "words", "--", "--json"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "error: cannot parse Lie type from '--json'\n")
    proc = subprocess.run(
        [*stringcones, "words", "C2", "--json"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == run(["words", "C2"]).payload


@pytest.mark.parametrize(
    "n, rows, table_digest, payload_digest",
    [
        (
            "2", 74,
            "cdecaf8862dfe8c56a4993e529e4b32c085b6ec9af28d90df8c3a17e473b87f6",
            "fed4458e4b77ab762ea7cdb652dfcc7915c9d0ef9ea4ecd6dc6c0f411ba8d800",
        ),
        (
            "3", 92,
            "2ef080fa94f26523572461fcd75ccdea315de8de41030705378385ae04d96fd0",
            "4ed7c184ca2c7331abc85194583f660d6f7ea9e3924cd62cab6848c34682bed0",
        ),
    ],
)
def test_verify_paper_output_is_byte_identical(n, rows, table_digest, payload_digest):
    """The battery's table and JSON payload, pinned: a change to any row's
    name, verdict or detail shows here."""
    res = run(["verify-paper", "--n", n])
    assert [c["name"] for c in res.payload["checks"] if not c["ok"]] == []  # failing rows by name
    assert res.status == 0 and res.payload["failures"] == 0
    names = [c["name"] for c in res.payload["checks"]]
    assert len(names) == rows and len(set(names)) == rows
    assert hashlib.sha256(res.table.encode()).hexdigest() == table_digest
    payload = json.dumps(res.payload, indent=2)
    assert hashlib.sha256(payload.encode()).hexdigest() == payload_digest


def test_render_rejects_unknown_highlight(tmp_path):
    res = run(["render", "C", "2,1,2,1", "--highlight", "2,2b,1", "-o", str(tmp_path / "x.svg")])
    assert res.status == 2


def test_render_unwritable_output_exit_2(tmp_path):
    for target in (tmp_path / "missing" / "x.svg", tmp_path):
        res = run(["render", "C", "2,1,2,1", "-o", str(target)])
        assert res.status == 2
        assert res.payload["error"].startswith(f"cannot write {target}")


def test_usage_errors():
    assert run(["cone", "C", "1,1,2,2"]).status == 2
    assert run(["nosuchcommand"]).status == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["paths", "C", ""], "word '' has no letters"),
        (["cone", "C2", "a,b"], "letter 'a' in 'a,b' is not an integer"),
        (["polytope", "C2", "1,2,1,2", "--lambda", "x"], "weight coefficient 'x' in 'x' is not an integer"),
        (["cone", "Cx", "1,2"], "rank 'x' in 'Cx' is not an integer"),
    ],
)
def test_bad_words_and_weights_exit_2_naming_the_input(argv, message):
    res = run(argv)
    assert res.status == 2
    assert res.payload["error"] == message


def test_words_over_the_cap_exit_2(monkeypatch):
    res = run(["words", "C3", "--cap", "5"])
    assert res.status == 2
    assert "more than the cap 5" in res.payload["error"]
    assert run(["words", "C3", "--cap", "42"]).payload["count"] == 42

    def refuse(*args, **kwargs):
        raise AssertionError("words walked although the count is over the cap")

    # the closed-form count refuses C9 (about 2.2e47 words) before the walk takes a step
    monkeypatch.setattr(weyl, "_is_ascent", refuse)
    res = run(["words", "C9"])
    assert res.status == 2
    assert "more than the cap 10000000" in res.payload["error"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["words", "C2", "--cap", "-1"], "--cap"),
        (["equiv", "a.json", "a.json", "--budget", "-1"], "--budget"),
        (["equiv", "a.json", "a.json", "--budget", "x"], "--budget"),
    ],
)
def test_a_bad_budget_or_cap_exits_2_naming_the_flag(capsys, argv, flag):
    res = run(argv)
    assert res.status == 2
    assert f"argument {flag}: must be a nonnegative integer" in capsys.readouterr().err


def test_a_zero_budget_or_cap_is_accepted(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"dim": 0, "rows": []}))
    assert run(["equiv", str(point), str(point), "--budget", "0"]).status == 0
    assert "more than the cap 0" in run(["words", "C2", "--cap", "0"]).payload["error"]


def test_words_at_large_rank_exit_2_at_once(monkeypatch):
    """The count of A200 has more digits than an int converts to text, and
    the hook product of A1000000 alone takes minutes; both are refused at
    the first rank whose count is over the cap, with no factorial over 100."""
    from stringcones import weyl

    def small(k, _factorial=weyl.factorial):
        if k > 100:
            raise AssertionError(f"factorial({k}) computed")
        return _factorial(k)

    monkeypatch.setattr(weyl, "factorial", small)
    for text in ("A200", "C150", "A1000000"):
        res = run(["words", text])
        assert res.status == 2
        assert res.payload["error"] == (
            f"{text} has more than the cap 10000000 reduced words; raise the cap to enumerate"
        )


def test_gt_over_the_rank_bound_exits_2_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("gt polytope built over the rank bound")

    monkeypatch.setattr(cli.polytopes, "gt_polytope_C", refuse)
    monkeypatch.setattr(cli.Weight, "parse", refuse)
    for n in (cli.GT_MAX_RANK + 1, 10**9):
        res = run(["gt", "--n", str(n), "--lambda", "rho"])
        assert res.status == 2
        assert res.payload["error"] == f"rank {n} is over the bound {cli.GT_MAX_RANK} of the gt polytope"


def test_fvector_bad_input_files(tmp_path):
    cases = {
        "no_rows.json": {"dim": 2},
        "rows_not_list.json": {"dim": 2, "rows": 5},
        "row_not_list.json": {"dim": 2, "rows": [5]},
        "row_a_string.json": {"dim": 1, "rows": ["12", [-1, 0]]},
        "row_an_object.json": {"dim": 1, "rows": [{"1": 0, "2": 0}, [-1, 0]]},
        "dim_a_boolean.json": {"dim": True, "rows": [[1, 2], [-1, 0]]},
        "negative_dim.json": {"dim": -1, "rows": []},
        "unbounded_cone.json": {"dim": 2, "rows": [[-1, 0, 0], [0, -1, 0]]},
    }
    for name, data in cases.items():
        (tmp_path / name).write_text(json.dumps(data))
    for source in [*(str(tmp_path / n) for n in cases), str(tmp_path / "missing.json")]:
        res = run(["fvector", source])
        assert res.status == 2, source
        assert "error" in res.payload, source


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999", "-1e999"])
@pytest.mark.parametrize("place", ["coefficient", "rhs"])
def test_fvector_non_finite_numbers_exit_2(tmp_path, literal, place):
    row = f"[{literal}, 1]" if place == "coefficient" else f"[1, {literal}]"
    source = tmp_path / "p.json"
    source.write_text(f'{{"dim": 1, "rows": [[-1, 0], {row}]}}')
    res = run(["fvector", str(source)])
    assert res.status == 2
    assert literal in res.payload["error"]


@pytest.mark.parametrize(
    "row,entry",
    [
        ("[0.1, 1]", "0.1"),  # a float coefficient
        ("[true, 1]", "True"),  # a boolean coefficient
        ('[1, "1/2"]', "'1/2'"),  # a string right-hand side
        ("[1, [1, 2, 3]]", "[1, 2, 3]"),  # a right-hand side of three integers
        ("[null, 0]", "coefficient None of row [None, 0] is not an integer"),  # the loader's message
    ],
)
def test_fvector_refuses_entries_that_are_not_integers(tmp_path, row, entry):
    source = tmp_path / "p.json"
    source.write_text(f'{{"dim": 1, "rows": [[-1, 0], {row}]}}')
    res = run(["fvector", str(source)])
    assert res.status == 2
    assert entry in res.payload["error"]


def test_fvector_reads_a_fraction_pair(tmp_path):
    source = tmp_path / "p.json"
    source.write_text('{"dim": 1, "rows": [[-1, 0], [2, [3, 2]]]}')
    assert cli._load_polytope(str(source)).rows == (((-1,), 0), ((4,), 3))
    assert run(["fvector", str(source)]).payload["fvector"] == [1, 2, 1]


def test_fraction_pairs_give_the_payloads_of_the_integer_scaled_rows(tmp_path):
    """`fvector` and `equiv` read a file with ``[num, den]`` right-hand sides
    as its copy with each such row scaled by ``den``."""
    files = {
        "rational": [[2, 0, [3, 2]], [0, 3, 1], [-1, 0, 0], [0, -1, 0], [1, 1, [5, 4]]],
        "integral": [[4, 0, 3], [0, 3, 1], [-1, 0, 0], [0, -1, 0], [4, 4, 5]],
        "shifted": [[4, 0, 7], [0, 3, 4], [-1, 0, -1], [0, -1, -1], [4, 4, 13]],  # by (1, 1)
    }
    for name, rows in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"dim": 2, "rows": rows}))
    rational, integral, shifted = (str(tmp_path / f"{name}.json") for name in files)
    fv = run(["fvector", rational])
    assert fv.payload == run(["fvector", integral]).payload == {"fvector": [1, 4, 4, 1]}
    eq = run(["equiv", rational, shifted])
    assert eq.payload == run(["equiv", integral, shifted]).payload
    assert (eq.payload["status"], eq.payload["shift"]) == ("equivalent", [1, 1])
    assert run(["equiv", shifted, rational]).payload == run(["equiv", shifted, integral]).payload


@pytest.mark.parametrize("dim", [1, 2])
def test_fvector_of_an_empty_system_says_it_is_empty(tmp_path, dim):
    # x <= 1 and x >= 2, with a free second coordinate in dimension 2
    source = tmp_path / "p.json"
    pad = [0] * (dim - 1)
    source.write_text(json.dumps({"dim": dim, "rows": [[1, *pad, 1], [-1, *pad, -2]]}))
    res = run(["fvector", str(source)])
    assert res.status == 2
    assert res.payload["error"] == "empty polytope has no face lattice"


def test_no_rows_in_a_positive_dimension_exit_2_before_the_kernel(tmp_path, monkeypatch):
    # R^dim is no polytope; its dim-sized tuples once took 285 MB at dim 10^6
    def refuse(*args):
        raise AssertionError("a system with no rows reached the polyhedral kernel")

    point = tmp_path / "point.json"
    point.write_text('{"dim": 0, "rows": []}')
    assert run(["fvector", str(point)]).payload["fvector"] == [1, 1]
    monkeypatch.setattr(polyhedra, "feasible", refuse)
    monkeypatch.setattr(polyhedra, "_vrep", refuse)
    source = tmp_path / "p.json"
    for dim in (1, 10**6):
        source.write_text(json.dumps({"dim": dim, "rows": []}))
        for argv in (["fvector", source], ["equiv", source, source], ["equiv", point, source]):
            res = run([str(a) for a in argv])
            assert res.status == 2
            assert res.payload["error"] == f"{source}: no rows in dimension {dim}: the set is all of R^{dim}"


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    _HAVE_HYPOTHESIS = False


if _HAVE_HYPOTHESIS:
    # a JSON string the test rewrites into the overflowing literal 1e999
    _OVERFLOW = "@1e999@"
    _ENTRIES = st.one_of(
        st.integers(-4, 4),
        st.lists(st.integers(-3, 3), max_size=3),  # fraction pairs, good and bad
        st.text(max_size=3),
        st.none(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.just(_OVERFLOW),
    )
    # rows, and single entries standing where a row belongs
    _ROWS = st.lists(st.one_of(st.lists(_ENTRIES, max_size=5), _ENTRIES), max_size=4)

    @given(st.integers(0, 3), _ROWS)
    @settings(max_examples=300, deadline=None)
    def test_load_polytope_fuzz(dim, rows):
        text = json.dumps({"dim": dim, "rows": rows}).replace(f'"{_OVERFLOW}"', "1e999")
        with mock.patch("sys.stdin", io.StringIO(text)):
            try:
                h = cli._load_polytope("-")
            except ValueError:  # PolyhedralError included
                return
        assert isinstance(h, polyhedra.HRep)
        assert all(len(c) == dim for c, _ in h.rows)

