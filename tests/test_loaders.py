"""Every reader of a JSON file returns or raises ValidationError, whatever sits at any key path.

Each key path of a saved profile, of a checkpoint manifest (its header, ``meta``,
``meta.arch`` and one tensor table entry) and of cloud metadata takes, in turn,
each of a set of values of the wrong type, sign or size. Each JSON object of these
files also takes one key it does not hold, and each file one key written twice;
both are rejected. The readers run in-process; none of them builds a network.
"""

import copy
import json

import numpy as np
import pytest

from pillardet.checkpoint import load_checkpoint, new_params, save_checkpoint
from pillardet.errors import ValidationError
from pillardet.pointcloud import PointCloud, load_cloud, meta_path, save_cloud
from pillardet.profiles import DESK, load_profile
from test_pipeline import DESK_PROFILE_JSON

SUBSTITUTES = [None, True, "x", [], {}, -1, 1.5, 10**30]


def _key_paths(value, path=()):
    """Every path into nested JSON objects and arrays, the root's ``()`` first."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _key_paths(child, (*path, key))


def _substituted(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _profile(tmp_path):
    p = tmp_path / "profile.json"
    p.write_text(json.dumps(DESK_PROFILE_JSON))
    return p, lambda: load_profile(str(p)), lambda path: True


def _manifest(tmp_path):
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, new_params(DESK.arch(), seed=0), DESK.arch())
    # the header, meta and meta.arch, and the first table entry of the tensor table
    return p, lambda: load_checkpoint(p), lambda path: path[:1] != ("tensors",) or path[1:2] in ((), (0,))


def _cloud_metadata(tmp_path):
    p = tmp_path / "cloud.bin"
    save_cloud(PointCloud(np.ones((2, 5))), p)
    return meta_path(p), lambda: load_cloud(p), lambda path: True


@pytest.mark.parametrize("value", SUBSTITUTES, ids=repr)
@pytest.mark.parametrize("make", [_profile, _manifest, _cloud_metadata], ids=lambda make: make.__name__[1:])
def test_every_substitution_is_loaded_or_rejected(tmp_path, make, value):
    path, load, covered = make(tmp_path)
    doc = json.loads(path.read_text())
    load()  # the saved file itself loads
    escaped = []
    for key_path in filter(covered, _key_paths(doc)):
        path.write_text(json.dumps(_substituted(doc, key_path, value)))
        try:
            load()
        except ValidationError:
            pass
        except Exception as e:  # any other exception is the failure this test looks for
            escaped.append(f"{list(key_path)}: {type(e).__name__}: {e}")
    assert escaped == []


OBJECT_PATHS = [
    (_profile, ()), (_profile, ("range",)),
    (_manifest, ()), (_manifest, ("meta",)), (_manifest, ("meta", "arch")), (_manifest, ("tensors", 0)),
    (_cloud_metadata, ()),
]


@pytest.mark.parametrize("make,object_path", OBJECT_PATHS,
                         ids=lambda v: v.__name__[1:] if callable(v) else ".".join(map(str, v)) or "root")
def test_an_added_key_is_rejected_naming_it(tmp_path, make, object_path):
    path, load, _ = make(tmp_path)
    path.write_text(json.dumps(_substituted(json.loads(path.read_text()), (*object_path, "x"), 1)))
    with pytest.raises(ValidationError, match=r"unknown keys \['x'\]"):
        load()


@pytest.mark.parametrize("make", [_profile, _manifest, _cloud_metadata], ids=lambda make: make.__name__[1:])
def test_a_repeated_key_is_rejected_naming_it(tmp_path, make):
    path, load, _ = make(tmp_path)
    doc = json.loads(path.read_text())
    key = next(iter(doc))
    # the first key of the root object, written once more ahead of the whole object
    path.write_text("{" + json.dumps(key) + ": " + json.dumps(doc[key]) + ", " + json.dumps(doc)[1:])
    with pytest.raises(ValidationError, match=f"key {key!r} twice"):
        load()
