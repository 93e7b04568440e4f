import itertools

import networkx as nx
import numpy as np
import pytest

from ctqw import build_graph, list_entries, make_entry, oracle_amplitudes, pipeline_for_entry
from ctqw.catalog import _APPENDIX_INDEX, _johnson, entry_from_spec, parse_spec
from ctqw.errors import InvalidParams, UnknownFamily
from ctqw.graphs import intersection_numbers
from ctqw.verify import DEFAULT_ORACLE_TOL

CONSTRUCTIBLE_WITH_ARRAY = [
    ("complete", (6,)),
    ("cycle", (8,)),
    ("cycle", (9,)),
    ("petersen", ()),
    ("johnson", (7, 2)),
    ("johnson", (8, 4)),
    ("hamming", (3, 3)),
    ("dihedral_srg", (3,)),
    ("appendix", ("icosahedron",)),
    ("appendix", ("pappus",)),
    ("appendix", ("desargues",)),
    ("appendix", ("dodecahedron",)),
    ("appendix", ("h33",)),
    ("appendix", ("h34-doob",)),
    ("appendix", ("j84",)),
]


class TestMakeEntry:
    def test_johnson_array_formula(self):
        ia = make_entry("johnson", (8, 4)).intersection_array
        assert ia.b == tuple((4 - i) * (4 - i) for i in range(4))  # (d-i)(n-d-i), n=8, d=4
        assert ia.c == (1, 4, 9, 16)

    def test_johnson_rejects_large_d(self):
        with pytest.raises(InvalidParams):
            make_entry("johnson", (7, 4))

    def test_glued_trees_counts(self):
        for depth in (1, 2, 4, 6):
            entry = make_entry("glued_trees", (depth,))
            g = entry.build()
            assert g.n == 2 ** (depth + 1) + 2 ** depth - 2
            jc = entry.jacobi
            assert jc.alpha == (0.0,) * (2 * depth + 1)
            assert jc.omega == (2.0,) * (2 * depth)

    def test_complete_1_invalid(self):
        with pytest.raises(InvalidParams):
            make_entry("complete", (1,))

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            make_entry("moebius_kantor")

    def test_unknown_appendix_row(self):
        with pytest.raises(InvalidParams):
            make_entry("appendix", ("nosuchrow",))

    def test_srg_petersen_parameters(self):
        entry = make_entry("srg", (10, 3, 0, 1))
        assert entry.intersection_array.b == (3, 2)
        assert entry.intersection_array.c == (1, 1)

    def test_srg_infeasible_rejected(self):
        with pytest.raises(InvalidParams):
            make_entry("srg", (10, 3, 0, 2))  # violates the counting identity
        with pytest.raises(InvalidParams):
            make_entry("srg", (9, 4, 0, 3))  # non-integral multiplicities

    def test_dihedral_qd_parameters(self):
        from ctqw import qd_from_intersection_array

        for m in (2, 5, 9):
            entry = make_entry("dihedral_srg", (m,))
            jc = qd_from_intersection_array(entry.intersection_array)
            assert jc.alpha == (0.0, 0.0, 0.0)
            assert jc.omega == (float(m), float(m * (m - 1)))

    def test_path_natural_origin_is_endpoint(self):
        entry = make_entry("path", (9,))
        assert pipeline_for_entry(entry).origin == 0
        assert entry.jacobi.omega == (1.0,) * 8

    def test_cycle_odd_array_matches_computed(self):
        entry = make_entry("cycle", (7,))
        assert intersection_numbers(entry.build()) == entry.intersection_array


class TestTchebichef:
    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0])
    def test_first_kind_omegas(self, m):
        jc = make_entry("tchebichef1", (6, m)).jacobi
        w = 2.0 ** (2 * (m - 1))
        assert jc.omega[0] == pytest.approx(2 * w)
        assert all(x == pytest.approx(w) for x in jc.omega[1:])
        assert all(a == 0 for a in jc.alpha)

    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0])
    def test_second_kind_omegas(self, m):
        jc = make_entry("tchebichef2", (6, m)).jacobi
        w = 2.0 ** (2 * (m - 1))
        assert all(x == pytest.approx(w) for x in jc.omega)

    def test_reduces_to_path_at_scale_one(self):
        assert make_entry("tchebichef2", (9, 1)).jacobi == make_entry("path", (9,)).jacobi

    def test_matches_glued_trees_chain_at_three_halves(self):
        glued = make_entry("glued_trees", (3,)).jacobi
        cheb = make_entry("tchebichef2", (7, 1.5)).jacobi
        assert cheb == glued

    def test_closed_forms_have_unit_mass(self):
        for family in ("tchebichef1", "tchebichef2"):
            form = make_entry(family, (8, 1.5)).closed_form
            assert sum(c for c, _ in form.terms) == pytest.approx(1.0, abs=1e-12)

    def test_scale_below_one_rejected(self):
        with pytest.raises(InvalidParams):
            make_entry("tchebichef1", (5, 0.5))


class TestArrayRoundTrip:
    @pytest.mark.parametrize("family,params", CONSTRUCTIBLE_WITH_ARRAY)
    def test_built_graph_reproduces_stored_array(self, family, params):
        entry = make_entry(family, params)
        if entry.intersection_array is None:
            pytest.skip("entry stores coefficients directly")
        assert intersection_numbers(entry.build()) == entry.intersection_array


def networkx_graph(h):
    """``h`` as a Graph, its vertices numbered in node order."""
    index = {v: i for i, v in enumerate(h)}
    return build_graph(len(index), [(index[u], index[v]) for u, v in h.edges()])


class TestAppendixAgainstNetworkx:
    """Rows the package cannot build, built by networkx: the stated array
    against ``nx.intersection_array``, and the return amplitude the engine
    derives from the stated array against the oracle on the built graph.
    Odd(4) states the array of L(Petersen), not that of the odd graph
    O_4 = K(7,3) on 35 vertices; the row stays verbatim and is pinned here."""

    GRID = np.linspace(0.0, 10.0, 101)
    GRAPHS = {
        "l-petersen": lambda: nx.line_graph(nx.petersen_graph()),
        "gh21": lambda: nx.line_graph(nx.heawood_graph()),
        "odd4": lambda: nx.kneser_graph(7, 3),
    }
    # row -> the array of the graph its name says
    MISMATCHED = {"odd4": ((4, 3, 3), (1, 1, 2))}

    @pytest.mark.parametrize("row_id", sorted(GRAPHS))
    def test_stated_array_against_built_graph(self, row_id):
        h = self.GRAPHS[row_id]()
        entry = make_entry("appendix", (row_id,))
        stated = (entry.intersection_array.b, entry.intersection_array.c)
        built = tuple(tuple(x) for x in nx.intersection_array(h))
        q0 = pipeline_for_entry(entry).series(self.GRID).values[0]
        # distance-regular: every vertex has the same return amplitude
        err = np.abs(q0 - oracle_amplitudes(networkx_graph(h), 0, self.GRID)[0]).max()
        if row_id in self.MISMATCHED:
            assert built == self.MISMATCHED[row_id] != stated
            assert h.number_of_nodes() == 35 != sum(entry.intersection_array.shell_sizes())
            assert err > 0.5
        else:
            assert built == stated
            assert err < DEFAULT_ORACLE_TOL


def johnson_pair_loop(n, d):
    """J(n, d) by testing every pair of d-subsets, in combinations order:
    a reference for the incidence-product construction."""
    verts = list(itertools.combinations(range(n), d))
    edges = [
        (i, j)
        for i, a in enumerate(verts)
        for j in range(i + 1, len(verts))
        if len(set(a) & set(verts[j])) == d - 1
    ]
    return build_graph(len(verts), edges)


# d = 1 (the complete graph) and 2d = n at both ends of the range
@pytest.mark.parametrize(
    "n, d", [(2, 1), (5, 1), (4, 2), (7, 2), (8, 4), (10, 3), (10, 5), (12, 4)]
)
def test_johnson_matches_pair_loop(n, d):
    got = _johnson(n, d).adjacency
    want = johnson_pair_loop(n, d).adjacency
    # the same vertex order: the oracle and the checks compare per vertex in it
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestListing:
    def test_contains_petersen(self):
        assert any(eid == "petersen" for eid, _, _ in list_entries())

    def test_at_least_ten_appendix_rows(self):
        rows = [eid for eid, _, _ in list_entries() if eid.startswith("appendix:")]
        assert len(rows) >= 10
        assert len(_APPENDIX_INDEX) == len(rows)

    def test_stable_across_calls(self):
        assert list_entries() == list_entries()

    def test_every_listed_family_constructs(self):
        defaults = {
            "complete": (5,),
            "cycle": (6,),
            "dihedral_srg": (3,),
            "glued_trees": (2,),
            "hamming": (2, 2),
            "johnson": (5, 2),
            "path": (4,),
            "petersen": (),
            "srg": (10, 3, 0, 1),
            "tchebichef1": (4, 2),
            "tchebichef2": (4, 2),
        }
        for eid, schema, provenance in list_entries():
            assert provenance
            if eid.startswith("appendix:"):
                entry = entry_from_spec(eid)
            else:
                entry = make_entry(eid, defaults[eid])
            assert pipeline_for_entry(entry).jc.dim >= 1


class TestSpecParsing:
    @pytest.mark.parametrize(
        "spec,want",
        [
            ("petersen", ("petersen", ())),
            ("johnson:7,2", ("johnson", (7, 2))),
            ("srg:10,3,0,1", ("srg", (10, 3, 0, 1))),
            ("tchebichef2:5,1.5", ("tchebichef2", (5, 1.5))),
            ("appendix:icosahedron", ("appendix", ("icosahedron",))),
        ],
    )
    def test_parse(self, spec, want):
        assert parse_spec(spec) == want

    def test_entry_id_round_trip(self):
        for spec in ["petersen", "johnson:7,2", "appendix:klein", "tchebichef2:5,1.5"]:
            assert entry_from_spec(spec).id == spec


class TestTabulatedMassDefects:
    """Rows whose printed closed form lacks unit mass are known typos; the
    flagging machinery relies on them staying verbatim."""

    KNOWN_MASS_TYPOS = {
        "pappus", "desargues", "ig-ag25", "coxeter", "gh21", "gh31",
        "perkel", "hadamard-12",
    }

    def test_expected_rows_and_only_those(self):
        bad = set()
        for row_id in _APPENDIX_INDEX:
            form = make_entry("appendix", (row_id,)).closed_form
            if abs(sum(c for c, _ in form.terms) - 1.0) > 1e-9:
                bad.add(row_id)
        assert bad == self.KNOWN_MASS_TYPOS
