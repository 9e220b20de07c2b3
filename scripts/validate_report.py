#!/usr/bin/env python3
"""Validate a --report JSON file against schema/run_report.schema.json.

Stdlib-only (no jsonschema dependency), implementing exactly the subset of
JSON Schema the checked-in schema uses:

    type, properties, required, items, minimum, maximum, const, enum,
    additionalProperties (boolean or sub-schema)

Beyond the schema, a handful of cross-field invariants that a type system
cannot express are checked directly (weight conservation across levels,
utime_s = itime_s + rtime_s + ptime_s, initial_cut present among the
candidate cuts, histogram counts summing to count, and each kway_direct
field equal to the counter it mirrors: levels to kway.direct.levels,
refine_rounds to refine.kway_rounds, gathers to refine.kway_gathers).

A phase the run performed must also have been timed: ctime_s > 0 when the
metrics count coarsening levels (pipeline.coarsen_levels +
kway.direct.levels), rtime_s > 0 when they count refinement (kl.passes +
refine.kway_rounds). A zero there means a pipeline stopped feeding its
phase counters.

Usage:
    scripts/validate_report.py REPORT.json [SCHEMA.json]

Exit code 0 when the report validates, 1 with per-path error messages
otherwise.
"""

import json
import math
import sys
from pathlib import Path


def _type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        # bool is an int subclass in Python; JSON booleans are not integers.
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "null":
        return value is None
    raise ValueError(f"unsupported schema type: {expected}")


def validate(value, schema, path, errors):
    """Appends 'path: message' strings to `errors` for every violation."""
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, got {value!r}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']!r}")
        return
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append(f"{path}: expected {schema['type']}, got {type(value).__name__}")
        return

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} > maximum {schema['maximum']}")

    if isinstance(value, dict):
        props = schema.get("properties", {})
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required key {req!r}")
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
        extra = schema.get("additionalProperties", True)
        for key in value:
            if key in props:
                continue
            if extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                validate(value[key], extra, f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


# The report's kway_direct fields and the metrics counters they mirror.
KWAY_DIRECT_COUNTERS = {
    "levels": "kway.direct.levels",
    "refine_rounds": "refine.kway_rounds",
    "gathers": "refine.kway_gathers",
}


def check_invariants(report, errors):
    """Cross-field consistency the schema's types cannot express."""
    pt = report.get("phase_times", {})
    if all(k in pt for k in ("itime_s", "rtime_s", "ptime_s", "utime_s")):
        expect = pt["itime_s"] + pt["rtime_s"] + pt["ptime_s"]
        if not math.isclose(pt["utime_s"], expect, rel_tol=1e-9, abs_tol=1e-9):
            errors.append(
                f"$.phase_times: utime_s={pt['utime_s']} != "
                f"itime_s+rtime_s+ptime_s={expect}")

    for bi, b in enumerate(report.get("bisections", [])):
        bp = f"$.bisections[{bi}]"
        cuts = b.get("initpart_candidate_cuts", [])
        if cuts and b.get("initial_cut") not in cuts:
            errors.append(
                f"{bp}: initial_cut {b.get('initial_cut')} not among "
                f"candidate cuts {cuts}")
        levels = b.get("levels", [])
        if levels:
            if b.get("num_levels") != len(levels) - 1:
                errors.append(
                    f"{bp}: num_levels={b.get('num_levels')} but "
                    f"{len(levels)} level entries (expected num_levels+1)")
            weights = {lv.get("total_vertex_weight") for lv in levels}
            if len(weights) > 1:
                errors.append(
                    f"{bp}: vertex weight not conserved across levels: "
                    f"{sorted(weights)}")
            if levels[0].get("vertices") != b.get("n"):
                errors.append(
                    f"{bp}: finest level has {levels[0].get('vertices')} "
                    f"vertices, bisection says n={b.get('n')}")
            for li, lv in enumerate(levels[:-1]):
                nxt = levels[li + 1]
                if nxt.get("vertices", 0) >= lv.get("vertices", 0):
                    errors.append(
                        f"{bp}.levels[{li + 1}]: coarser level did not shrink "
                        f"({lv.get('vertices')} -> {nxt.get('vertices')})")

    counters = report.get("metrics", {}).get("counters", {})
    for field, counter in KWAY_DIRECT_COUNTERS.items():
        value = report.get("kway_direct", {}).get(field)
        if value is not None and value != counters.get(counter, 0):
            errors.append(
                f"$.kway_direct.{field}: {value} but counter {counter} = "
                f"{counters.get(counter, 0)}")

    hists = report.get("metrics", {}).get("histograms", {})
    for name, h in hists.items():
        counts = h.get("counts", [])
        bounds = h.get("upper_bounds", [])
        if len(counts) != len(bounds) + 1:
            errors.append(
                f"$.metrics.histograms.{name}: {len(counts)} counts for "
                f"{len(bounds)} bounds (expected bounds+1)")
        if sum(counts) != h.get("count"):
            errors.append(
                f"$.metrics.histograms.{name}: bucket counts sum to "
                f"{sum(counts)}, count says {h.get('count')}")
        if bounds != sorted(bounds):
            errors.append(
                f"$.metrics.histograms.{name}: upper_bounds not sorted")


def check_phase_times(report, errors):
    """Each phase the metrics say ran must carry a non-zero time."""
    pt = report.get("phase_times", {})
    counters = report.get("metrics", {}).get("counters", {})
    work = {
        "ctime_s": ("pipeline.coarsen_levels", "kway.direct.levels"),
        "rtime_s": ("kl.passes", "refine.kway_rounds"),
    }
    for key, names in work.items():
        done = sum(counters.get(n, 0) for n in names)
        if done > 0 and not pt.get(key, 0) > 0:
            errors.append(
                f"$.phase_times: {key} is {pt.get(key)} although "
                f"{' + '.join(names)} = {done}")


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    report_path = Path(argv[1])
    schema_path = (Path(argv[2]) if len(argv) == 3 else
                   Path(__file__).resolve().parent.parent /
                   "schema" / "run_report.schema.json")

    schema = json.loads(schema_path.read_text())
    try:
        report = json.loads(report_path.read_text())
    except json.JSONDecodeError as e:
        print(f"{report_path}: not valid JSON: {e}", file=sys.stderr)
        return 1

    errors = []
    validate(report, schema, "$", errors)
    if not errors:  # invariants assume a structurally valid report
        check_invariants(report, errors)
        check_phase_times(report, errors)

    if errors:
        for e in errors:
            print(f"FAIL {report_path}: {e}", file=sys.stderr)
        return 1
    n_bis = len(report.get("bisections", []))
    print(f"OK {report_path}: version {report.get('version')}, "
          f"tool {report.get('tool')!r}, {n_bis} bisections")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
