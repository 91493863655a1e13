import numpy as np
import pytest

from barylab import graphs
from barylab.errors import DegeneratePointError, RankDeficiencyError
from barylab import fixtures as ifx
from barylab.indices import ind_H_degree
from barylab.io import load_simplicial_map
from barylab.mmgraph import build_cover
from barylab.naturalmap import NaturalMapConfig, assemble_tensors, jacobian_formula


def test_voltage_json_roundtrip_builds_cover():
    base = graphs.rose_graph(2)
    cover = build_cover(base, {0: (1, 2, 0), 1: (0, 1, 2)})
    assert cover.sheets == 3
    cover.validate()


def test_simplicial_map_json_loader():
    sphere = ifx.octahedron()
    payload = {
        "domain": {
            "dim": 2,
            "simplices": [list(s) for s in sphere.simplices],
            "charts": [c.tolist() for c in sphere.charts],
        },
        "target": {
            "dim": 2,
            "simplices": [list(s) for s in sphere.simplices],
            "charts": [c.tolist() for c in sphere.charts],
        },
        "vertex_map": {str(v): v for v in sphere.vertices},
    }
    smap = load_simplicial_map(payload)
    assert ind_H_degree(smap, rng=0) == 1


def test_chart_rank_deficiency_error():
    # a path graph has one-dimensional one-rings: no 3-dimensional chart
    g = graphs.path_graph(12)
    line = np.array([[np.cosh(0.3 * v), np.sinh(0.3 * v), 0.0, 0.0] for v in g.vertices])
    cfg = NaturalMapConfig(s=1.0, truncation_radius=12.0, h_estimate=0.0,
                           tail_tolerance=10.0)
    with pytest.raises(RankDeficiencyError):
        assemble_tensors(g, line, 5, cfg)


def test_jacobian_formula_degenerate_point():
    z = np.zeros((3, 3))
    with pytest.raises(DegeneratePointError):
        jacobian_formula(z, z, z, np.eye(3) / 3, 2.0)
