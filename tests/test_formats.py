"""Golden-file checks for the deterministic text formats."""

from crossnum.drawing import drawing_to_text
from crossnum.geometry import drawing_from_points
from crossnum.graphs import (
    CompressedGraph,
    Graph,
    format_compressed,
    format_edge_list,
)
from crossnum.iqp import build_iqp, iqp_to_text
from crossnum.pipeline import crossing_number, enumerate_clusterings, PipelineOptions

BOWTIE_TEXT = """drawing
vertices 0 1 2 3
edge 0 1 :
edge 0 3 : 0
edge 1 2 : 0
edge 2 3 :
crossing 0 = 0 3 x 1 2
rot 0 : 1 3
rot 1 : 0 2
rot 2 : 1 3
rot 3 : 0 2
orient 0 0
"""


def test_drawing_text_golden():
    g = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3)))
    d = drawing_from_points(g, {0: (0, 0), 1: (4, 0), 2: (0, 2), 3: (4, 2)})
    assert drawing_to_text(d) == BOWTIE_TEXT


def test_compressed_text_golden():
    cg = CompressedGraph.make(3, ((0, 1), (1, 2)), {7: 5, 5: 3})
    assert format_compressed(cg) == "3\ngx 0 1\ngx 1 2\nh 5 3\nh 7 5\n"


def test_edge_list_golden():
    g = Graph((0, 1, 5), ((0, 1),))
    assert format_edge_list(g) == "v 5\n0 1\n"


def test_iqp_text_golden():
    cg = CompressedGraph.make(3, (), {7: 3})
    two_rep = [c for c in enumerate_clusterings(cg, 0) if len(c.reps) == 2]
    text = iqp_to_text(build_iqp(two_rep[0], cg))
    assert text == "iqp\ngroups 7:2:3\nq 1 0\nq 0 1\np 0 0\nr 0\n"


def test_report_json_shape():
    rep = crossing_number(
        CompressedGraph.make(3, (), {7: 3}), PipelineOptions()
    )
    blob = rep.to_json()
    assert blob.startswith("{")
    assert '"crossing_number": "1"' in blob
    assert blob.endswith("\n")
