import itertools

import pytest

from stringcones.diagram import (
    OrientedDiagram,
    build_diagram,
    build_symp_diagram,
    orient,
)
from stringcones.weyl import LieType, ReducedWord, enumerate_reduced_words, lift


def w(text, family="A", rank=None):
    letters = tuple(int(x) for x in text.split(","))
    return ReducedWord(LieType(family, rank or max(letters)), letters)


def test_worked_diagram():
    d = build_diagram(w("1,2,1,3,2,1"))
    assert tuple(nd.column for nd in d.nodes) == (1, 2, 1, 3, 2, 1)
    assert d.node(1).wires == (1, 2)
    assert d.arrangements[0] == (1, 2, 3, 4)
    assert d.arrangements[-1] == (4, 3, 2, 1)


def test_every_pair_crosses_once():
    for rank in (2, 3):
        for word in enumerate_reduced_words(LieType("A", rank)):
            d = build_diagram(word)
            pairs = [nd.wires for nd in d.nodes]
            assert sorted(pairs) == sorted(
                itertools.combinations(range(1, d.m + 1), 2)
            )
    for word in enumerate_reduced_words(LieType("C", 3)):
        d = build_symp_diagram(word)
        assert len({nd.wires for nd in d.nodes}) == d.length


@pytest.mark.slow
def test_rank4_crossing_sample():
    from stringcones.weyl import gt_adapted_word

    d = build_symp_diagram(gt_adapted_word(4))
    assert sorted(nd.wires for nd in d.nodes) == sorted(
        itertools.combinations(range(1, 9), 2)
    )


def test_symp_diagram_matches_lift():
    for text in ("2,1,2,1", "1,2,1,2"):
        word = w(text, "C", 2)
        sd = build_symp_diagram(word)
        d = build_diagram(lift(word))
        assert [nd.column for nd in sd.nodes] == [nd.column for nd in d.nodes]
        assert [nd.wires for nd in sd.nodes] == [nd.wires for nd in d.nodes]


def test_symp_labels_and_wall():
    sd = build_symp_diagram(w("1,2,3,1,2,3,1,2,3", "C", 3))
    assert sorted(sd.label_str(a) for a in sd.wall_nodes) == ["t3", "t6", "t9"]
    sd2 = build_symp_diagram(w("2,1,2,1", "C", 2))
    assert [sd2.label_str(a) for a in range(1, 7)] == [
        "t1",
        "tbar2",
        "t2",
        "t3",
        "tbar4",
        "t4",
    ]
    assert sorted(sd2.wall_nodes) == [1, 4]


def test_mirror_node_is_an_involution_fixing_the_wall():
    sd = build_symp_diagram(w("1,3,2,1,3,2,1,3,2", "C", 3))
    for a in range(1, sd.length + 1):
        assert sd.mirror_node(sd.mirror_node(a)) == a
        if a in sd.wall_nodes:
            assert sd.mirror_node(a) == a
        else:
            kind, j = sd.label(a)
            assert sd.label(sd.mirror_node(a)) == ("t" if kind == "tbar" else "tbar", j)


def test_wire_names():
    sd = build_symp_diagram(w("2,1,2,1", "C", 2))
    assert [sd.wire_name(i) for i in (1, 2, 3, 4)] == ["1", "2", "2b", "1b"]


def test_orientations():
    d = build_diagram(w("1,2,1,3,2,1"))
    od = orient(d, 1)
    assert od.is_up(1) and not od.is_up(2)
    assert all(orient(d, 3).is_up(x) for x in (1, 2, 3)) and not orient(d, 3).is_up(4)
    with pytest.raises(ValueError):
        orient(d, 4)
    sd = build_symp_diagram(w("2,1,2,1", "C", 2))
    od2 = orient(sd, 2)
    assert [od2.is_up(x) for x in (1, 2, 3, 4)] == [True, True, False, False]
    odb = OrientedDiagram(sd, 3)
    assert odb.up_count == 3 and sd.wire_name(odb.up_count) == "2b"
    with pytest.raises(ValueError):
        orient(sd, 3)
