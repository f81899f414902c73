#pragma once
// Rendering of the cesm::trace span tree as a human-readable text tree
// and as machine-readable JSON (the --profile=out.json payload every
// bench can emit; schema documented in docs/methodology.md under
// "Profiling & tracing").

#include <map>
#include <string>

#include "util/trace.h"

namespace cesm::core {

/// JSON document for an explicit tree/aggregate/counter snapshot.
/// Schema (stable, versioned by the "schema" field):
///   {
///     "schema": "cesmcomp-profile-1",
///     "spans":      { "label", "count", "total_s", "mean_s", "max_s",
///                     "children": [ ...same shape... ] },
///     "aggregates": [ { "label", "count", "total_s", "mean_s", "max_s" } ],
///     "counters":   { "<name>": <integer>, ... }
///   }
std::string profile_json(const trace::ReportNode& tree,
                         const std::map<std::string, trace::SpanStats>& aggregates,
                         const std::map<std::string, std::uint64_t>& counters);

/// JSON for the current process-wide trace contents.
std::string profile_json();

/// Indented span tree plus counters, for stderr consumption.
std::string profile_text(const trace::ReportNode& tree,
                         const std::map<std::string, std::uint64_t>& counters);
std::string profile_text();

/// Collect the current trace contents and write profile_json() to
/// `path`. Throws IoError when the file cannot be written.
void write_profile_json(const std::string& path);
/// The same with an explicit counter snapshot (trace::counters() plus
/// rows a caller renders from per-instance stats).
void write_profile_json(const std::string& path,
                        const std::map<std::string, std::uint64_t>& counters);

}  // namespace cesm::core
