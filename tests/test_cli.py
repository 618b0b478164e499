import json

from stringcones.cli import render_svg, run
from stringcones.diagram import build_symp_diagram
from stringcones.weyl import ReducedWord


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
    assert eq.payload["matrix"] is not None


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
    from stringcones.paths import mirror, symp_paths

    p = next(q for q in symp_paths(sd, 2) if q.wires_by_name() == ("2", "1", "2b"))
    svg = render_svg(sd, [p, mirror(p)])
    assert svg.count("stroke-width=\"4\"") == 2


def test_render_rejects_unknown_highlight(tmp_path):
    res = run(["render", "C", "2,1,2,1", "--highlight", "2,2b,1", "-o", str(tmp_path / "x.svg")])
    assert res.status == 2


def test_usage_errors():
    assert run(["cone", "C", "1,1,2,2"]).status == 2
    assert run(["nosuchcommand"]).status == 2


def test_fvector_bad_input_files(tmp_path):
    cases = {
        "no_rows.json": {"dim": 2},
        "rows_not_list.json": {"dim": 2, "rows": 5},
        "row_not_list.json": {"dim": 2, "rows": [5]},
        "negative_dim.json": {"dim": -1, "rows": []},
        "unbounded_cone.json": {"dim": 2, "rows": [[-1, 0, 0], [0, -1, 0]]},
    }
    for name, data in cases.items():
        (tmp_path / name).write_text(json.dumps(data))
    for source in [*(str(tmp_path / n) for n in cases), str(tmp_path / "missing.json")]:
        res = run(["fvector", source])
        assert res.status == 2, source
        assert "error" in res.payload, source


def test_verify_paper_quick():
    res = run(["verify-paper", "--n", "2"])
    assert res.status == 0
    assert res.payload["failures"] == 0
    assert all(c["ok"] for c in res.payload["checks"])
