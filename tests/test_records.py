"""Record classes: what ``dataclass`` gave them, kept without generated code."""
import subprocess
import sys

import pytest

from suborbifolds import records
from suborbifolds.classify import (
    ChartModel,
    EmbeddedResult,
    FullnessWitness,
    SaturationWitness,
    SuborbifoldCandidate,
    Verdict,
    _require_saturated,
    check_saturated,
)
from suborbifolds.corpus import CorpusReport, rot4_chart, rotation_line_candidate, x_axis
from suborbifolds.errors import CandidateNotSaturated
from suborbifolds.groups import Fingerprint, GroupElement, Subgroup, generate_group
from suborbifolds.linalg import AffineSubspace
from suborbifolds.metric import MetricProbe
from suborbifolds.scene import SceneFile, read_scene


def _empty_scene():
    return SceneFile({}, {}, {}, {}, {}, {})


def _unsaturated():
    """The trivial subgroup of the quarter-turn group on the x-axis."""
    chart = rot4_chart()
    trivial = chart.group.subgroup_from_indices([chart.group.identity])
    return SuborbifoldCandidate(chart, trivial, x_axis())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, suborbifolds.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_the_hash_is_the_hash_of_the_fields():
    fp = Fingerprint(4, (1, 2, 4, 4), True)
    assert hash(fp) == hash((4, (1, 2, 4, 4), True))
    group = rot4_chart().group
    sub = group.full_subgroup()
    assert hash(sub) == hash((group, sub.members))
    # AffineSubspace hashes itself: pivots are fixed by rows and left out
    v = AffineSubspace(2, 1, (0, 0), ((1, 0),), (0,))
    other = AffineSubspace(2, 1, (0, 0), ((1, 0),), (1,))
    assert v == other and hash(v) == hash(other) == hash((2, 1, (0, 0), ((1, 0),)))
    assert v != AffineSubspace(2, 2, (1, 0), ((1, 0),), (0,))
    # frozen, but their dict and list fields have no hash
    with pytest.raises(TypeError, match="unhashable"):
        hash(_empty_scene())
    with pytest.raises(TypeError, match="unhashable"):
        hash(CorpusReport([], [], 0.0))


def test_records_of_different_classes_are_never_equal():
    element = GroupElement(((1,),), 0)
    saturation, fullness = SaturationWitness(element, (0,)), FullnessWitness(element, (0,))
    assert saturation != fullness and not saturation == fullness
    assert saturation == SaturationWitness(GroupElement(((1,),), 0), (0,))
    assert Verdict(True) != (True, None)
    assert SaturationWitness.__eq__(saturation, fullness) is NotImplemented
    assert _empty_scene() == _empty_scene() and _empty_scene() != CorpusReport([], [], 0.0)


def test_fields_of_a_frozen_record_cannot_be_set_or_deleted():
    v = x_axis()
    for record in (Fingerprint(1, (1,), True), Verdict(True), v, _unsaturated()):
        with pytest.raises(AttributeError):
            record.colour = "red"  # nor is any other attribute set
        with pytest.raises(records.FrozenInstanceError):
            del record.colour
    with pytest.raises(records.FrozenInstanceError, match="'den'"):
        v.den = 2
    with pytest.raises(records.FrozenInstanceError, match="'den'"):
        del v.den
    assert v.den == 1
    # cached_property and set_field write past __setattr__
    cand = _unsaturated()
    assert cand.saturation is cand.saturation and "saturation" in vars(cand)
    assert v.basis is v.basis and v.base_point is v.base_point and hash(v) == hash(v)
    report = CorpusReport([], [], 0.0)
    for record, name in ((report, "results"), (_empty_scene(), "probes"),
                         (read_scene("{}"), "groups")):
        with pytest.raises(records.FrozenInstanceError, match=repr(name)):
            setattr(record, name, [])
    with pytest.raises(records.FrozenInstanceError, match="'elapsed_seconds'"):
        report.elapsed_seconds = 1.5
    assert report.elapsed_seconds == 0.0


def test_a_witness_repr_is_the_former_dataclass_repr():
    verdict = check_saturated(_unsaturated())
    expected = ("SaturationWitness(element=GroupElement(matrix=((Fraction(-1, 1), "
                "Fraction(0, 1)), (Fraction(0, 1), Fraction(-1, 1))), index=0), "
                "point=(Fraction(-1, 1), Fraction(0, 1)))")
    assert repr(verdict.witness) == expected
    assert repr(verdict) == f"Verdict(holds=False, witness={expected})"
    with pytest.raises(CandidateNotSaturated) as err:
        _require_saturated(_unsaturated())
    assert str(err.value) == f"candidate is not saturated: {expected}"
    assert repr(Fingerprint(4, (1, 2, 4, 4), True)) == (
        "Fingerprint(order=4, element_orders=(1, 2, 4, 4), abelian=True)")
    assert repr(x_axis()) == (
        "AffineSubspace(ambient_dim=2, den=1, base=(0, 0), rows=((1, 0),), pivots=(0,))")


def test_constructors_keep_their_signatures():
    group = generate_group([[[-1]]])
    chart = ChartModel(group=group)
    assert chart == ChartModel(group)
    assert EmbeddedResult(False, None, None, True) == EmbeddedResult(
        False, searched_all_delta=True)
    assert Verdict(holds=True) == Verdict(True, None)
    calls = [
        lambda: Fingerprint(4, (1,)),  # a missing argument
        lambda: Fingerprint(4, (1,), True, colour="red"),  # an unknown keyword
        lambda: Fingerprint(4, (1,), True, order=4),  # one argument twice
        lambda: Fingerprint(4, (1,), True, False),  # too many
        lambda: ChartModel(),
        lambda: CorpusReport(),  # built once, with every field
        lambda: SceneFile(),
        lambda: Verdict(),  # the records that write their own __init__
        lambda: Verdict(True, witness=None, colour="red"),
        lambda: AffineSubspace(2, 1, (0, 0), ((1, 0),)),
        lambda: Subgroup(group),
        lambda: GroupElement(((1,),)),
        lambda: SuborbifoldCandidate(chart, group.full_subgroup()),
        lambda: MetricProbe(rotation_line_candidate(rot4_chart())),  # no sample pairs
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
