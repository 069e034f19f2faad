"""The surfemb4 layers: which calls are traced and the per-layer metrics they give.

Each layer is a package module.  A metric line in ``PER_LAYER`` names the
end-to-end metric it should move and the workload where it should move it
(see README.md); on the other workloads the prediction is no change.
"""

from __future__ import annotations

import os
from fractions import Fraction

from tracing import Target, Tracer, fit

LAYERS = ("cli", "schema", "groups", "gamma", "intlinalg", "whitney", "bands", "engine", "knots")

IMPORTED = ("surfemb4", "surfemb4.cli", "surfemb4.schema", "surfemb4.engine",
            "surfemb4.groups", "surfemb4.gamma", "surfemb4.intlinalg", "surfemb4.whitney",
            "surfemb4.bands", "surfemb4.knots", "mpmath")


def _bump(st, key, amount=1):
    st.counters[key] = st.counters.get(key, 0) + amount


def _add(st, key, value):
    st.counters.setdefault(key, set()).add(value)


def _note_context(st, args, result):
    ctx = args[0]
    _add(st, "gamma_contexts", (st.index, st.root(), id(ctx.s_f), id(ctx.s_g), ctx.self_pairing))


def _note_smith(st, args, result):
    _bump(st, "smith_rows", len(args[0]))
    _bump(st, "smith_cols", args[1])


def _note_omega(st, args, result):
    _bump(st, "lt_ok")
    _add(st, "lt_omegas", (st.index, st.root(), Fraction(args[1]) % 2))


def _order(args):
    ctx = args[0]
    return ctx.ambient.order if ctx.ambient.kind == "finite" else None


def _band_size(args):
    catalog = args[0]
    return len(catalog.records) * catalog.surface.dim or None


def _t(layer, module, qualname, **kw) -> Target:
    return Target(layer, module if module == "mpmath" else f"surfemb4.{module}", qualname, **kw)


TARGETS = [
    _t("cli", "cli", "main"),
    _t("cli", "cli", "cmd_decide"),
    _t("cli", "cli", "cmd_gamma"),
    _t("cli", "cli", "cmd_knot"),
    _t("cli", "cli", "_decide_one"),
    _t("schema", "schema", "load_instance",
       note=lambda st, a, r: _bump(st, "json_bytes", os.path.getsize(a[0]))),
    _t("schema", "schema", "instance_from_dict"),
    _t("groups", "groups", "make_finite_group", size=lambda a: len(a[0])),
    _t("groups", "groups", "Character.__init__", hot=True),
    _t("groups", "groups", "subgroup_closure"),
    _t("groups", "groups", "abelian_group"),
    _t("gamma", "gamma", "build_gamma", size=_order, note=_note_context),
    _t("gamma", "gamma", "GammaGroup.orbit_of", hot=True),
    _t("gamma", "gamma", "GammaGroup.section_sign", hot=True),
    _t("gamma", "gamma", "reduce_list"),
    _t("gamma", "gamma", "coefficient_at", hot=True),
    _t("gamma", "gamma", "smith_oracle", size=_order),
    _t("intlinalg", "intlinalg", "smith_diagonal", size=lambda a: a[1], note=_note_smith),
    _t("intlinalg", "intlinalg", "HermiteLattice.__init__", hot=True),
    _t("intlinalg", "intlinalg", "HermiteLattice.reduce", hot=True),
    _t("intlinalg", "intlinalg", "bareiss_det", hot=True),
    _t("intlinalg", "intlinalg", "linear_pencil_det", size=lambda a: len(a[0])),
    _t("intlinalg", "intlinalg", "cyclotomic", hot=True),
    _t("whitney", "whitney", "to_convenient", size=lambda a: len(a[1].discs),
       note=lambda st, a, r: _bump(st, "discs", len(a[1].discs))),
    _t("whitney", "whitney", "t_count", size=lambda a: len(a[0])),
    _t("bands", "bands", "SurfaceModel.__init__"),
    _t("bands", "bands", "SurfaceModel.form", hot=True),
    _t("bands", "bands", "BandCatalog.__post_init__"),
    _t("bands", "bands", "lambda_boundary_check", size=_band_size),
    _t("bands", "bands", "is_b_characteristic"),
    _t("bands", "bands", "validate_theta_well_defined"),
    _t("engine", "engine", "flowchart"),
    _t("engine", "engine", "homotopy_analysis"),
    _t("engine", "engine", "primary_obstructions"),
    _t("engine", "engine", "primary_vanishes"),
    _t("knots", "knots", "SeifertMatrix.__init__"),
    _t("knots", "knots", "alexander_at_minus_one", hot=True),
    _t("knots", "knots", "arf", size=lambda a: a[0].size,
       note=lambda st, a, r: _bump(st, "arf_vectors", 1 << a[0].size)),
    _t("knots", "knots", "levine_tristram", size=lambda a: a[0].size, note=_note_omega),
    _t("knots", "knots", "cp2_genus_lower_bound"),
    _t("knots", "knots", "cp2_genus_verdict", size=lambda a: a[0].size,
       note=lambda st, a, r: _bump(st, "scan_window", r.scan_limit)),
    # the eigenvalue solver is the signature code's own dependency
    _t("knots", "mpmath", "eighe", hot=True),
]

# (metric, unit); per-call statistics are "<span name>.<calls|self_s>".
PER_LAYER = [
    ("groups.make_finite_group.calls", "count"), ("groups.make_finite_group.self_s", "s"),
    ("groups.Character.self_s", "s"), ("groups.subgroup_closure.self_s", "s"),
    ("gamma.build_gamma.calls", "count"), ("gamma.build_gamma.self_s", "s"),
    ("gamma.builds_per_context", "ratio"),
    ("gamma.GammaGroup.orbit_of.calls", "count"), ("gamma.GammaGroup.orbit_of.self_s", "s"),
    ("gamma.GammaGroup.section_sign.self_s", "s"), ("gamma.reduce_list.self_s", "s"),
    ("gamma.smith_oracle.self_s", "s"), ("gamma.smith_oracle.rows", "count"),
    ("gamma.smith_oracle.cols", "count"),
    ("intlinalg.smith_diagonal.self_s", "s"),
    ("intlinalg.HermiteLattice.reduce.calls", "count"),
    ("intlinalg.HermiteLattice.reduce.self_s", "s"),
    ("intlinalg.bareiss_det.calls", "count"), ("intlinalg.bareiss_det.self_s", "s"),
    ("intlinalg.linear_pencil_det.calls", "count"), ("intlinalg.linear_pencil_det.self_s", "s"),
    ("intlinalg.linear_pencil_det.per_verdict", "ratio"),
    ("whitney.to_convenient.calls", "count"), ("whitney.to_convenient.self_s", "s"),
    ("whitney.t_count.self_s", "s"), ("whitney.discs", "count"),
    ("bands.lambda_boundary_check.calls", "count"), ("bands.lambda_boundary_check.self_s", "s"),
    ("bands.lambda_boundary_check.per_decide", "ratio"),
    ("bands.SurfaceModel.form.calls", "count"), ("bands.SurfaceModel.form.self_s", "s"),
    ("bands.is_b_characteristic.self_s", "s"), ("bands.validate_theta_well_defined.self_s", "s"),
    ("engine.flowchart.self_s", "s"), ("engine.homotopy_analysis.self_s", "s"),
    ("engine.primary_obstructions.calls", "count"),
    ("schema.instance_from_dict.self_s", "s"), ("schema.load_instance.self_s", "s"),
    ("schema.json_bytes", "bytes"),
    ("knots.arf.calls", "count"), ("knots.arf.self_s", "s"), ("knots.arf.vectors", "count"),
    ("knots.levine_tristram.calls", "count"), ("knots.levine_tristram.self_s", "s"),
    ("knots.levine_tristram.calls_per_distinct_omega", "ratio"),
    ("knots.eighe.calls", "count"), ("knots.eighe.per_signature", "ratio"),
    ("knots.cp2_genus_verdict.self_s", "s"), ("knots.cp2_genus_verdict.scan_window", "count"),
]
PER_LAYER += [(f"cli.import.{m}_s", "s") for m in IMPORTED]
PER_LAYER += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
PER_LAYER += [(f"layer.{layer}.share", "ratio") for layer in LAYERS]
PER_LAYER += [("trace.uncovered_s", "s"), ("trace.overhead_ratio", "ratio")]

# Written-down complexity: (span, size parameter, exponential fit).
COMPLEXITY = [
    ("groups.make_finite_group", "group order", False),
    ("gamma.build_gamma", "group order", False),
    ("intlinalg.smith_diagonal", "group order", False),
    ("whitney.to_convenient", "discs", False),
    ("whitney.t_count", "points", False),
    ("bands.lambda_boundary_check", "records x dim", False),
    ("knots.arf", "n", True),
    ("knots.levine_tristram", "n", False),
]
PER_LAYER += [(f"complexity.{name}.{'base' if exp else 'exponent'}", "ratio")
              for name, _, exp in COMPLEXITY]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, process_cpu_s: float) -> tuple[dict, list[str]]:
    """Every PER_LAYER value except imports and overhead, plus complexity report lines."""
    tot = tracer.totals()
    c = tracer.counters()
    v: dict[str, float] = {}
    for name, stats in tot.items():
        v[f"{name}.calls"] = stats["calls"]
        v[f"{name}.self_s"] = stats["self_s"]
    v["gamma.builds_per_context"] = _ratio(tot["gamma.build_gamma"]["calls"],
                                           len(c.get("gamma_contexts", ())))
    smith_calls = tot["intlinalg.smith_diagonal"]["calls"]
    v["gamma.smith_oracle.rows"] = _ratio(c.get("smith_rows", 0), smith_calls)
    v["gamma.smith_oracle.cols"] = _ratio(c.get("smith_cols", 0), smith_calls)
    v["intlinalg.linear_pencil_det.per_verdict"] = _ratio(
        tot["intlinalg.linear_pencil_det"]["calls"], tot["knots.cp2_genus_verdict"]["calls"])
    v["whitney.discs"] = c.get("discs", 0)
    v["bands.lambda_boundary_check.per_decide"] = _ratio(
        tot["bands.lambda_boundary_check"]["calls"], tot["cli._decide_one"]["calls"])
    v["schema.json_bytes"] = c.get("json_bytes", 0)
    v["knots.arf.vectors"] = c.get("arf_vectors", 0)
    v["knots.levine_tristram.calls_per_distinct_omega"] = _ratio(
        tot["knots.levine_tristram"]["calls"], len(c.get("lt_omegas", ())))
    v["knots.eighe.per_signature"] = _ratio(tot["knots.eighe"]["calls"], c.get("lt_ok", 0))
    v["knots.cp2_genus_verdict.scan_window"] = _ratio(
        c.get("scan_window", 0), tot["knots.cp2_genus_verdict"]["calls"])

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, stats in tot.items():
        layer_self[tracer.layer_of[name]] += stats["self_s"]
    covered = sum(layer_self.values())
    uncovered = max(0.0, process_cpu_s - covered)
    for layer in LAYERS:
        v[f"layer.{layer}.self_s"] = layer_self[layer]
        v[f"layer.{layer}.share"] = _ratio(layer_self[layer], covered + uncovered)
    v["trace.uncovered_s"] = uncovered

    lines = []
    for name, param, exponential in COMPLEXITY:
        growth, medians = fit(tracer.sized(name), exponential)
        key = f"complexity.{name}.{'base' if exponential else 'exponent'}"
        v[key] = growth
        if len(medians) > 1:
            table = ", ".join(f"{s}: {t:.4g}" for s, t in medians.items())
            form = f"time ~ {growth:.3f}^{param}" if exponential else \
                f"time ~ ({param})^{growth:.2f}"
            lines.append(f"complexity {name}: {form}  [median CPU s per call by {param}: {table}]")
    return v, lines
