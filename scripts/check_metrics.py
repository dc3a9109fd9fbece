#!/usr/bin/env python3
"""Validate an rbc.metrics.v1 metrics export (JSON + Prometheus sidecar).

The serving layer exports one snapshot in two wire formats (see
src/obs/metrics.hpp): a flat JSON document and Prometheus text exposition.
This validator is the CI gate on both:

  * JSON: schema tag is "rbc.metrics.v1", "metrics" is a flat object of
    numeric series, and every REQUIRED_SERIES key is present.
  * Prometheus (<json-path>.prom by default): every sample line parses, every
    family is preceded by matching # HELP and # TYPE lines, and the declared
    type is counter or gauge: counter if and only if the family name ends in
    _total (the Prometheus naming convention).
  * Cross-check: every unlabeled series must carry the SAME value in both
    formats — the two renderings come from one snapshot, so any divergence
    is a renderer bug, not jitter.

Usage: scripts/check_metrics.py <metrics.json> [metrics.prom]

Exits nonzero (with a reason per line) on the first structural failure
class. Stdlib only — no third-party imports.
"""

import json
import math
import re
import sys

SCHEMA = "rbc.metrics.v1"

# The serving-path series the exporter always emits (labels stripped).
REQUIRED_SERIES = [
    "rbc_sessions_submitted_total",
    "rbc_sessions_rejected_total",
    "rbc_sessions_completed_total",
    "rbc_sessions_authenticated_total",
    "rbc_sessions_timed_out_total",
    "rbc_sessions_transport_failed_total",
    "rbc_link_retransmits_total",
    "rbc_link_frames_dropped_total",
    "rbc_trace_events_recorded_total",
    "rbc_flight_records_total",
    "rbc_shards",
    "rbc_queue_depth",
    "rbc_in_flight",
    "rbc_session_time_seconds_mean",
    "rbc_session_time_seconds_p50",
    "rbc_session_time_seconds_p95",
]

# metric_name{optional="labels"} value
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|inf|nan))$"
)
HELP_LINE = re.compile(r"^# HELP (?P<name>\S+) .+$")
TYPE_LINE = re.compile(r"^# TYPE (?P<name>\S+) (?P<type>counter|gauge)$")


def fail(errors):
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1


def check_json(path):
    errors = []
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)  # a parse error is its own loud failure
    if doc.get("schema") != SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append(f"{path}: 'metrics' must be a non-empty object")
        return {}, errors
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{path}: series {key!r} is not numeric: {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{path}: series {key!r} is not finite: {value!r}")
    names = {key.split("{", 1)[0] for key in metrics}
    for required in REQUIRED_SERIES:
        if required not in names:
            errors.append(f"{path}: required series {required!r} missing")
    return metrics, errors


def check_prometheus(path):
    errors = []
    samples = {}
    helped, typed = set(), set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            m = HELP_LINE.match(line)
            if m:
                helped.add(m.group("name"))
                continue
            m = TYPE_LINE.match(line)
            if m:
                name = m.group("name")
                typed.add(name)
                if (m.group("type") == "counter") != name.endswith("_total"):
                    errors.append(f"{path}:{lineno}: {name} is typed "
                                  f"{m.group('type')}; counters, and only "
                                  f"counters, end in _total")
                continue
            if line.startswith("#"):
                errors.append(f"{path}:{lineno}: unparseable comment: {line}")
                continue
            m = SAMPLE_LINE.match(line)
            if m is None:
                errors.append(f"{path}:{lineno}: unparseable sample: {line}")
                continue
            name = m.group("name")
            if name not in helped:
                errors.append(f"{path}:{lineno}: {name} has no # HELP line")
            if name not in typed:
                errors.append(f"{path}:{lineno}: {name} has no # TYPE line")
            samples[name + (m.group("labels") or "")] = float(m.group("value"))
    if not samples:
        errors.append(f"{path}: no samples found")
    return samples, errors


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    json_path = sys.argv[1]
    prom_path = sys.argv[2] if len(sys.argv) == 3 else json_path + ".prom"

    json_metrics, errors = check_json(json_path)
    prom_samples, prom_errors = check_prometheus(prom_path)
    errors.extend(prom_errors)
    if errors:
        return fail(errors)

    # Cross-check: one snapshot, two renderings. The JSON flattens labels
    # into the key exactly as Prometheus prints them, so keys are comparable
    # verbatim (JSON escapes the quotes, which json.load already undid).
    mismatches = []
    for key, value in json_metrics.items():
        if key not in prom_samples:
            mismatches.append(f"series {key!r} in JSON but not in Prometheus")
        elif not math.isclose(prom_samples[key], float(value), rel_tol=1e-9,
                              abs_tol=1e-12):
            mismatches.append(
                f"series {key!r}: JSON {value} != Prometheus {prom_samples[key]}")
    for key in prom_samples:
        if key not in json_metrics:
            mismatches.append(f"series {key!r} in Prometheus but not in JSON")
    if mismatches:
        return fail(mismatches)

    print(f"OK: {json_path} + {prom_path}: "
          f"{len(json_metrics)} series, formats agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
