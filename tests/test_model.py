import json

import pytest
from hypothesis import given, strategies as st

import drawlab as dl
from drawlab.errors import InstanceFormatError

# Pot composition of the canonical instance: confederation -> per-pot counts
CANONICAL_POTS = {
    "Africa": (1, 0, 1, 3),
    "Asia": (0, 0, 2, 2),
    "Europe": (7, 8, 2, 1),
    "North America": (0, 0, 1, 1),
    "South America": (0, 0, 2, 1),
}


def test_canonical_instance_composition(ihf):
    assert (ihf.m, ihf.n) == (4, 8)
    for conf in ihf.confederations:
        per_pot = tuple(
            sum(t.confederation == conf.id for t in ihf.pot_teams(k)) for k in range(1, ihf.m + 1)
        )
        assert per_pot == CANONICAL_POTS[conf.name]
    hosts = {ihf.teams[t].name for t in ihf.host_exclusion}
    assert hosts == {
        "Denmark", "Norway", "Croatia", "Germany",
        "Sweden", "Austria", "Hungary", "Slovenia",
    }
    assert ihf.confederations[ihf.europe].name == "Europe"


def test_toy_instance_three_pots_of_two():
    inst = dl.build_instance(
        [[("a", "X"), ("b", "X")], [("c", "X"), ("d", "X")], [("e", "X"), ("f", "X")]]
    )
    assert (inst.m, inst.n) == (3, 2)
    assert inst.europe is None


def test_unequal_pots_rejected():
    doc = {
        "confederations": ["X"],
        "pots": [
            [{"name": f"a{i}", "confederation": "X"} for i in range(8)],
            [{"name": f"b{i}", "confederation": "X"} for i in range(7)],
        ],
    }
    with pytest.raises(InstanceFormatError):
        dl.load_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(pots=[]),
        lambda d: d["pots"][0][0].update(confederation="Atlantis"),
        lambda d: d["pots"][0][1].update(name="Denmark"),
        lambda d: d.update(host_exclusion=["Narnia"]),
        lambda d: d.update(europe="Atlantis"),
        lambda d: d.pop("pots"),
    ],
)
def test_malformed_documents_rejected(ihf, mutate):
    doc = ihf.to_document()
    mutate(doc)
    with pytest.raises(InstanceFormatError):
        dl.load_instance(json.dumps(doc))


_TWIN_POTS = [
    [("a", "Africa"), ("b", "Europe"), ("c", "Asia")],
    [("d", "Europe"), ("e", "Asia"), ("f", "Africa")],
]


def _twin_document(**fields):
    """The document form of ``_TWIN_POTS``, confederations in first-seen order."""
    doc = {
        "name": "twin",
        "confederations": ["Africa", "Europe", "Asia"],
        "pots": [[{"name": t, "confederation": c} for t, c in pot] for pot in _TWIN_POTS],
    }
    doc.update(fields)
    return doc


def test_document_and_nested_pots_build_the_same_instance():
    built = dl.build_instance(_TWIN_POTS, host_exclusion=["a", "d"], europe="Europe", name="twin")
    loaded = dl.load_instance(_twin_document(host_exclusion=["a", "d"], europe="Europe"))
    assert loaded.to_json() == built.to_json()
    # no Europe: an empty name in a document, None for nested pots
    assert dl.load_instance(_twin_document(europe="")).to_json() == dl.build_instance(
        _TWIN_POTS, name="twin"
    ).to_json()


def test_document_and_nested_pots_reject_the_same_unknown_names():
    with pytest.raises(InstanceFormatError, match="unknown team 'z'"):
        dl.build_instance(_TWIN_POTS, host_exclusion=["a", "z"])
    with pytest.raises(InstanceFormatError, match="unknown team 'z'"):
        dl.load_instance(_twin_document(host_exclusion=["a", "z"]))
    with pytest.raises(InstanceFormatError, match="unknown europe confederation 'Oceania'"):
        dl.build_instance(_TWIN_POTS, europe="Oceania")
    with pytest.raises(InstanceFormatError, match="unknown europe confederation 'Oceania'"):
        dl.load_instance(_twin_document(europe="Oceania"))


def test_document_keeps_its_declared_confederation_order():
    doc = _twin_document(confederations=["Oceania", "Asia", "Europe", "Africa"])
    inst = dl.load_instance(doc)
    assert [c.name for c in inst.confederations] == ["Oceania", "Asia", "Europe", "Africa"]
    assert inst.teams[0].confederation == 3  # a: Africa


def test_not_json_rejected():
    with pytest.raises(InstanceFormatError):
        dl.load_instance("pots: nope")
    with pytest.raises(InstanceFormatError):
        dl.load_instance("[1, 2]")


def test_host_exclusion_larger_than_groups_rejected():
    with pytest.raises(InstanceFormatError):
        dl.build_instance(
            [[("a", "X"), ("b", "X")], [("c", "X"), ("d", "X")], [("e", "X"), ("f", "X")]],
            host_exclusion=["a", "b", "c"],
        )


def test_round_trip_is_exact(ihf):
    text = ihf.to_json()
    again = dl.load_instance(text)
    assert again.to_json() == text
    assert [t.name for t in again.teams] == [t.name for t in ihf.teams]
    assert again.host_exclusion == ihf.host_exclusion


@given(st.integers(min_value=0, max_value=31))
def test_scenario_bitmask_round_trip(scenario):
    cs = dl.scenario_constraints(scenario)
    assert cs.bitmask == scenario
    assert cs.scenario == scenario


def test_scenario_constraint_letters():
    assert dl.scenario_constraints(0).active == frozenset()
    assert dl.scenario_constraints(30).active == frozenset("ABCD")
    assert dl.scenario_constraints(1).active == frozenset("E")
    assert dl.scenario_constraints(31).active == frozenset("ABCDE")
    assert dl.scenario_constraints(16).active == frozenset("A")


def test_scenario_encoding_is_a_bijection():
    seen = {dl.scenario_constraints(s).active for s in range(32)}
    assert len(seen) == 32


def test_scenario_out_of_range():
    for bad in (-1, 32, 100):
        with pytest.raises(ValueError):
            dl.scenario_constraints(bad)


def test_composition_empty_and_single(ihf):
    asg = dl.Assignment.empty(ihf)
    comp = dl.composition(ihf, asg)
    assert all(c == 0 for row in comp.counts for c in row)
    asg.place(ihf, ihf.team("Denmark").id, 3)
    comp = dl.composition(ihf, asg)
    europe = ihf.confederation_named("Europe").id
    assert [row[europe] for row in comp.counts] == [0, 0, 0, 1, 0, 0, 0, 0]
    assert sum(sum(r) for r in comp.counts) == 1


def test_composition_counts_sum_to_placed(ihf):
    asg = dl.Assignment.empty(ihf)
    for g, tid in enumerate(range(8)):
        asg.place(ihf, tid, g)
    for g, tid in enumerate(range(8, 12)):
        asg.place(ihf, tid, g)
    comp = dl.composition(ihf, asg)
    assert sum(map(sum, comp.counts)) == asg.placed == 12


def test_group_composition_fixture_matches_published_outcome():
    # group composition of the round actually played, by confederation
    counts_by_conf = {
        "Africa": (0, 2, 0, 1, 0, 0, 1, 1),
        "Asia": (0, 0, 2, 0, 0, 1, 0, 0),
        "Europe": (4, 2, 2, 3, 2, 2, 2, 1),
        "North America": (0, 0, 0, 0, 1, 0, 1, 1),
        "South America": (0, 0, 0, 0, 1, 1, 0, 1),
    }
    confs = [dl.Confederation(i, name) for i, name in enumerate(counts_by_conf)]
    rows = [[counts_by_conf[c.name][g] for c in confs] for g in range(8)]
    comp = dl.GroupComposition(rows, confs)
    europe = [c.name for c in confs].index("Europe")
    assert [row[europe] for row in comp.counts] == [4, 2, 2, 3, 2, 2, 2, 1]
    # 6 + 2 + 2 + 3 + 1 + 1 + 1 + 0 intra-confederation pairs
    assert comp.unattractive() == 16


def test_assignment_place_guards(ihf):
    asg = dl.Assignment.empty(ihf)
    asg.place(ihf, 0, 0)
    with pytest.raises(ValueError):
        asg.place(ihf, 1, 0)  # same pot-1 slot
    with pytest.raises(ValueError):
        asg.place(ihf, 0, 5)  # team already placed
    asg2 = asg.copy()
    asg2.place(ihf, 1, 1)
    assert asg.find(1) is None  # copies do not share state


def test_get_instance_by_path(tmp_path, ihf):
    p = tmp_path / "x.json"
    p.write_text(ihf.to_json())
    inst = dl.get_instance(str(p))
    assert inst.n == 8


def test_data_dir_override(tmp_path, monkeypatch, ihf):
    doc = ihf.to_document()
    doc["name"] = "override"
    (tmp_path / "ihf2025.json").write_text(json.dumps(doc))
    monkeypatch.setenv("DRAWLAB_DATA_DIR", str(tmp_path))
    inst = dl.get_instance("ihf2025")
    assert inst.name == "override"
