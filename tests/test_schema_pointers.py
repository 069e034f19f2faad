"""JSON pointers of `validate` errors on invalid documents, recorded before the
instance reader was rewritten.

Each case edits one shipped instance and pins the pointer of every error,
meaning the text before the first ": "; the wording after it may change.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from surfemb4 import cli


def _doc(name) -> dict:
    path = resources.files("surfemb4").joinpath("data", "instances", name + ".json")
    return json.loads(Path(str(path)).read_text())


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value
    return edit


CASES = {
    "band_euler_missing": (
        "torus_s3s1", lambda d: d["catalogs"]["bands"][0].pop("euler"),
        ["/catalogs/bands/0/euler"]),
    "unknown_flag": (
        "torus_s3s1", _set("flags", "plotting", True), ["/flags/plotting"]),
    "point_sign_3": (
        "torus_s3s1", _set("double_points", 0, "sign", 3), ["/double_points/0/sign"]),
    "point_unknown_component": (
        "torus_s3s1", _set("double_points", 0, "components", [0, 5]),
        ["/double_points/0/components"]),
    "table_not_a_group": (
        "klein_bottle_e0", _set("group", "table", [[0, 1], [1, 1]]), ["/group/table"]),
    "duplicate_point_id": (
        "star_cp2_sphere", _set("double_points", 1, "id", 0), ["/double_points/1/id"]),
    "disc_pairs_unknown_point": (
        "star_cp2_sphere", _set("whitney_collection", "discs", 0, "pairs", 1, 99), ["/"]),
    "flipped_rel_boundary": (
        "torus_s3s1", _set("catalogs", "rel_h2", "boundary", "seifert", [0, 1]),
        ["/catalogs/bands"]),
    "version_2": ("torus_s3s1", _set("version", 2), ["/version"]),
    "group_kind_free": ("torus_s3s1", _set("group", "kind", "free"), ["/group/kind"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_error_pointers(case, tmp_path, capsys):
    name, edit, pointers = CASES[case]
    doc = _doc(name)
    edit(doc)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert [e.split(": ", 1)[0] for e in out["errors"]] == pointers


def test_bad_etas_among_valid_points_are_each_reported(tmp_path, capsys):
    """All etas are checked in one pass; one bad eta still gets every eta error, in order."""
    doc = _doc("torus_s3s1")
    doc["double_points"] = [{"components": [0, 0], "eta": [i - 25], "id": i, "sign": 1 - 2 * (i % 2)}
                            for i in range(50)]
    doc["whitney_collection"] = None
    for i, bad in ((3, [True]), (17, [1, 2]), (41, "x")):
        doc["double_points"][i]["eta"] = bad
    path = tmp_path / "bad_etas.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [
        "/double_points/3/eta: invalid element [True] for factors (0,)",
        "/double_points/17/eta: invalid element [1, 2] for factors (0,)",
        "/double_points/41/eta: invalid element 'x' for factors (0,)",
    ]
