"""Robustness fuzz: every loader answers a malformed payload with its typed error.

A payload can arrive from disk, a CLI argument or a worker pipe in any
shape: ``None``, a list, a string, a number, or a real payload with one
field replaced, dropped or stamped with a schema outside the read
window.  Each loader must then raise a :class:`~repro.exceptions.ReproError`
(normally :class:`~repro.io.SerializationError`) and nothing else — an
``AttributeError`` from calling ``.get`` on a list reads as a transient
fault and gets retried.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.exceptions import ReproError
from repro.io import (
    SCHEDULE_SCHEMA,
    config_from_dict,
    config_to_dict,
    cset_from_dict,
    cset_to_dict,
    load_arrivals,
    load_workloads,
    result_from_dict,
    result_to_dict,
    stream_request_from_dict,
    stream_request_to_dict,
)
from repro.service.streaming import StreamRequest
from repro.service import worker

_CSET = CommunicationSet([Communication(0, 3), Communication(1, 2)])
_CROSSING = CommunicationSet([Communication(0, 2), Communication(1, 3)])


def _valid_payloads() -> dict[str, object]:
    request = stream_request_to_dict(StreamRequest(cset=_CSET, n_leaves=4))
    return {
        "cset": cset_to_dict(_CSET),
        "result": result_to_dict(PADRScheduler().schedule(_CSET, n_leaves=4)),
        "general": result_to_dict(
            PADRScheduler().schedule(_CROSSING, n_leaves=4, decompose="auto")
        ),
        "config": config_to_dict(SchedulerConfig()),
        "stream": request,
        "arrivals": {
            "format": "cst-padr/arrival-trace", "version": 1,
            "schema": SCHEDULE_SCHEMA, "arrivals": [request],
        },
        "suite": {
            "format": "cst-padr/workload-suite", "version": 1,
            "schema": SCHEDULE_SCHEMA, "workloads": {"a": cset_to_dict(_CSET)},
        },
    }


VALID = _valid_payloads()


def _from_file(load):
    def read(payload):
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            return load(path)
        finally:
            os.unlink(path)

    return read


#: loader name -> (loader, the valid payload it reads)
LOADERS = {
    "cset": (cset_from_dict, "cset"),
    "result": (result_from_dict, "result"),
    "general": (result_from_dict, "general"),
    "config": (config_from_dict, "config"),
    "stream": (stream_request_from_dict, "stream"),
    "arrivals": (_from_file(load_arrivals), "arrivals"),
    "suite": (_from_file(load_workloads), "suite"),
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _slots(node, out):
    """Every ``(container, key)`` of a JSON tree."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return out
    for key in keys:
        out.append((node, key))
        _slots(node[key], out)
    return out


@st.composite
def mutated(draw, valid):
    """A valid payload with one to three fields replaced or dropped, or
    its schema moved out of the read window."""
    payload = copy.deepcopy(valid)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = _slots(payload, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "replace", "drop", "schema"]))
        if action == "schema" and isinstance(container, dict):
            container["schema"] = draw(
                st.integers(min_value=-3, max_value=12).filter(
                    lambda s: s not in (SCHEDULE_SCHEMA - 1, SCHEDULE_SCHEMA)
                )
                | json_values
            )
        elif action == "drop" and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(json_values)
    return payload


@st.composite
def fuzz_case(draw):
    name = draw(st.sampled_from(sorted(LOADERS)))
    load, valid = LOADERS[name]
    payload = draw(json_values | mutated(VALID[valid]))
    return name, load, payload


_INFINITE_END = {**VALID["cset"], "comms": [[float("inf"), 1]]}  # JSON ``Infinity``


@settings(max_examples=400, deadline=None)
@given(case=fuzz_case())
@example(case=("cset", cset_from_dict, _INFINITE_END))
@example(case=("suite", LOADERS["suite"][0], [VALID["suite"]]))
def test_loaders_raise_only_typed_errors(case):
    name, load, payload = case
    try:
        load(payload)
    except ReproError:
        pass


def test_valid_payloads_load():
    for name, (load, valid) in LOADERS.items():
        load(VALID[valid])


def test_worker_answers_non_mapping_cset_permanent(monkeypatch):
    # init_worker sets the module's scheduler; monkeypatch restores it after.
    monkeypatch.setattr(worker, "_worker_config", None)
    monkeypatch.setattr(worker, "_worker_scheduler", None)
    worker.init_worker(config_to_dict(SchedulerConfig()))
    for payload in ([[0, 3], [1, 2]], None, "cset", 7):
        ticket, status, detail = worker.schedule_request((1, payload, 4))
        assert (ticket, status) == (1, "permanent"), detail
