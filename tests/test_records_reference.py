"""The result records against a frozen copy of their dataclass form.

OlsonComparison and BoundResult were frozen dataclasses.  The two classes
below are copies of them, kept frozen here.  On seeded compare, olson_*
and brute_force_* results over the golden fixtures' families, each record
must equal, hash and print like its copy: the same repr bytes, the same
hash, and the same == answer on every pair of records.  The default
frontier, keyword construction, pickling and the refusal of assignment
and deletion are checked too.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from olsonorder import lattice as L
from olsonorder.errors import CertificationTooLarge
from olsonorder.observables import SimpleObservable, question
from olsonorder.serialize import algebra_from_json, observable_from_json

from conftest import load_fixture

CAP = 600
FAMILIES = 12  # per backend


# -- frozen classes ------------------------------------------------------------


@dataclass(frozen=True)
class OlsonComparison:
    verdict: str
    witness_t: Fraction | None


@dataclass(frozen=True)
class BoundResult:
    exists: bool
    observable: SimpleObservable | None
    certified: str
    frontier: tuple[SimpleObservable, ...] = ()


REF = {L.OlsonComparison: OlsonComparison, L.BoundResult: BoundResult}
FIELDS = {L.OlsonComparison: ("verdict", "witness_t"),
          L.BoundResult: ("exists", "observable", "certified", "frontier")}


def _copy(record):
    cls = type(record)
    return REF[cls](*(getattr(record, name) for name in FIELDS[cls]))


def _records() -> list:
    golden = load_fixture("golden_exact.json")
    rng = random.Random(2203)
    out = []
    for name, entry in sorted(golden.items()):
        alg = algebra_from_json(load_fixture(name + ".json"))
        # the last family of an explicit carrier has no meet or join
        for case in rng.sample(entry["cases"], FAMILIES) + entry["cases"][-1:]:
            xs = [observable_from_json(alg, obj) for obj in case["family"]]
            out.append(L.compare(xs[0], xs[1]))
            out.append(L.compare(xs[1], xs[0]))
            for op in (L.olson_meet, L.olson_join, L.brute_force_meet, L.brute_force_join):
                try:
                    out.append(op(xs, cap=CAP))
                except CertificationTooLarge:
                    pass
    return out


def test_records_match_the_frozen_dataclasses():
    records = _records()
    kinds = {(type(r).__name__, getattr(r, "certified", None), getattr(r, "exists", None))
             for r in records}
    # both records, both certifications, existing and missing bounds
    assert {("BoundResult", "elementwise", True), ("BoundResult", "exhaustive", True),
            ("BoundResult", "exhaustive", False), ("OlsonComparison", None, None)} <= kinds
    copies = [_copy(r) for r in records]
    for record, ref in zip(records, copies):
        assert repr(record) == repr(ref)
        assert hash(record) == hash(ref)
        assert record == type(record)(*(getattr(record, n) for n in FIELDS[type(record)]))
        assert record != ref and ref != record
    pairs = random.Random(7).sample(range(len(records)), 200)
    for i in pairs:
        for j in pairs[:40]:
            assert (records[i] == records[j]) == (copies[i] == copies[j]), (i, j)
            assert (records[i] != records[j]) == (copies[i] != copies[j]), (i, j)


def test_records_keep_defaults_keywords_and_immutability(mv4):
    x = question(mv4, mv4.element_from_json("1/4"))
    bound = L.BoundResult(exists=True, observable=x, certified="exhaustive")
    assert bound.frontier == ()
    assert bound == L.BoundResult(True, x, "exhaustive", ())
    assert repr(bound) == repr(BoundResult(True, x, "exhaustive"))
    verdict = L.OlsonComparison(verdict="equal", witness_t=None)
    assert repr(verdict) == "OlsonComparison(verdict='equal', witness_t=None)"
    for record, name in ((bound, "exists"), (bound, "frontier"), (verdict, "verdict"),
                         (verdict, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (bound.exists, bound.frontier, verdict.verdict) == (True, (), "equal")
    with pytest.raises(TypeError):
        L.OlsonComparison("equal")
    assert {verdict: 1}[L.OlsonComparison("equal", None)] == 1
    # an unpickled observable lives over a new backend instance, so only its repr matches
    assert pickle.loads(pickle.dumps(verdict)) == verdict == copy.copy(verdict)
    assert repr(pickle.loads(pickle.dumps(bound))) == repr(bound)
    assert copy.copy(bound) == bound
