"""Count guards for the abelian reader-to-t path: work that must not grow with the input.

On valid input ``decide`` reads the double points and the Whitney discs as
columns and checks, buckets and counts them in C-level passes.  These
guards count what a per-point or per-disc loop would show, on one generated
abelian instance at 1x, 2x and 4x its discs, in both modes:

- ``whitney`` defines no per-point or per-disc record type to build: its one
  tuple type is ``WhitneyCollection``;
- the shape walk never calls ``_Object.check``, and its ``_Object.fits_all``
  calls, one per object shape whatever the number of objects, do not grow;
- the package's Python lines run do not grow by as much as one per disc.

``DoublePoints.by_pair`` is checked on an instance with 200 components: it
runs a fixed number of Python lines, however many component pairs there are.

On an instance of C point-free components at 1x, 2x and 4x C, the primary
obstructions build one target group and take one column slice per
component, never one per component pair, and the package's Python lines
grow linearly in C.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from helpers import random_points_doc
from surfemb4 import cli, engine, schema, shapes, whitney

PACKAGE = str(Path(schema.__file__).parent)
PACKAGE_DATA = Path(PACKAGE) / "data" / "instances"


class _Lines:
    """Python lines run in the package's modules while tracing, counted per file."""

    def __init__(self):
        self.count = 0

    def _trace(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        if event == "line":
            self.count += 1
        return self._trace

    def __enter__(self):
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _counter(counts: dict):
    """``counted(key, original)``: ``original``, counting its calls in ``counts[key]``."""
    def counted(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call
    return counted


def _instance(tmp_path, pairs: int) -> Path:
    """A valid abelian instance with ``pairs`` cancelling pairs of points, one disc each."""
    doc = random_points_doc(random.Random(11), finite=False, pairs=pairs)
    doc["whitney_collection"]["convenient"] = False
    for comp in doc["components"]:  # every component in F^t, so t is counted
        comp.update(has_alg_dual=True, dual_framed=False, signed_subgroup=[])  # lattices alike
    doc["flags"]["good_group"] = True
    path = tmp_path / f"scaled{pairs}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mode", ["regular", "homotopy"])
def test_decide_work_does_not_grow_per_point_or_disc(mode, tmp_path, monkeypatch, capsys):
    records = [name for name, obj in vars(whitney).items() if isinstance(obj, type)
               and obj.__module__ == whitney.__name__ and issubclass(obj, tuple)]
    assert records == ["WhitneyCollection"]
    counts = {"object checks": 0, "object fits": 0}
    counted = _counter(counts)
    monkeypatch.setattr(shapes.Object, "check", counted("object checks", shapes.Object.check))
    monkeypatch.setattr(shapes.Object, "fits_all", counted("object fits", shapes.Object.fits_all))
    seen = []
    for pairs in (100, 200, 400):
        path = _instance(tmp_path, pairs)
        cli.main(["decide", str(path), "--mode", mode])  # once first, so lazy modules have run
        capsys.readouterr()
        counts.update(dict.fromkeys(counts, 0))
        with _Lines() as lines:
            assert cli.main(["decide", str(path), "--mode", mode]) == 0
        assert "outcome" in json.loads(capsys.readouterr().out)
        seen.append((pairs, lines.count, dict(counts)))
    (_, lines1, counts1), *rest = seen
    assert counts1["object checks"] == 0, seen
    for pairs, lines, counts_k in rest:
        assert counts_k == counts1, seen
        assert lines - lines1 < 100, seen  # 100 more discs (and 200 points) at least


def test_by_pair_runs_no_line_per_pair(tmp_path):
    doc = random_points_doc(random.Random(5), finite=False, pairs=3000, components=200)
    points = schema.instance_from_dict(doc).points
    with _Lines() as lines:
        buckets = points.by_pair()
    assert len(buckets) > 1000 and lines.count < 20, (len(buckets), lines.count)
    expected = {}
    for k, pair in enumerate(points.pairs):
        expected.setdefault(frozenset(pair), []).append(k)
    assert buckets == expected


def _components_doc(n: int) -> dict:
    """``torus_s3s1`` with ``n`` genus-0 components, no double points, no discs and no bands."""
    doc = json.loads((PACKAGE_DATA / "torus_s3s1.json").read_text())
    doc["components"] = [dict(doc["components"][0], id=c) for c in range(n)]
    doc["surface"]["components"] = [{"id": c, "genus": 0, "orientable": True, "boundary_circles": 0}
                                    for c in range(n)]
    doc.update(double_points=[], whitney_collection=None)
    doc["catalogs"].update(bands=[], rel_h2={"basis": [], "boundary": {}})
    return doc


@pytest.mark.parametrize("decide", [engine.flowchart, engine.homotopy_analysis],
                         ids=["regular", "homotopy"])
def test_primary_obstructions_grow_linearly_in_components(decide, monkeypatch):
    counts = {"gamma builds": 0, "column slices": 0}
    counted = _counter(counts)
    monkeypatch.setattr(engine, "build_gamma", counted("gamma builds", engine.build_gamma))
    monkeypatch.setattr(whitney.DoublePoints, "take",
                        counted("column slices", whitney.DoublePoints.take))
    seen = []
    for n in (40, 80, 160):
        inst = schema.instance_from_dict(_components_doc(n))
        decide(inst)  # once first, so lazy modules have run
        counts.update(dict.fromkeys(counts, 0))
        with _Lines() as lines:
            assert decide(inst).outcome == "RegHomotopicToEmbedding"
        seen.append((n, lines.count, dict(counts)))
        assert counts == {"gamma builds": n, "column slices": n}, seen
    (n1, lines1, _), *rest = seen
    for n, lines, _ in rest:
        assert lines < lines1 * n / n1 * 1.1, seen  # linear; a scan per component is quadratic
