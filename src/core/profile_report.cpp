#include "core/profile_report.h"

#include <cstdio>
#include <fstream>

#include "util/error.h"

namespace cesm::core {

namespace {

void json_escape(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_seconds(double seconds, std::string& out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9f", seconds);
  out += buf;
}

void append_stats_fields(const trace::SpanStats& s, std::string& out) {
  out += "\"count\": " + std::to_string(s.count) + ", \"total_s\": ";
  append_seconds(s.total_seconds(), out);
  out += ", \"mean_s\": ";
  append_seconds(s.mean_seconds(), out);
  out += ", \"max_s\": ";
  append_seconds(s.max_seconds(), out);
}

void append_node_json(const trace::ReportNode& node, std::string& out) {
  out += "{\"label\": \"";
  json_escape(node.label, out);
  out += "\", ";
  append_stats_fields(node.stats, out);
  out += ", \"children\": [";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ", ";
    append_node_json(node.children[i], out);
  }
  out += "]}";
}

void append_node_text(const trace::ReportNode& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += node.label;
  if (node.stats.count > 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  count=%llu total=%.3fs mean=%.6fs max=%.6fs",
                  static_cast<unsigned long long>(node.stats.count),
                  node.stats.total_seconds(), node.stats.mean_seconds(),
                  node.stats.max_seconds());
    out += buf;
  }
  out += '\n';
  for (const trace::ReportNode& c : node.children) append_node_text(c, depth + 1, out);
}

}  // namespace

std::string profile_json(const trace::ReportNode& tree,
                         const std::map<std::string, trace::SpanStats>& aggregates,
                         const std::map<std::string, std::uint64_t>& counters) {
  std::string out = "{\n\"schema\": \"cesmcomp-profile-1\",\n\"spans\": ";
  append_node_json(tree, out);
  out += ",\n\"aggregates\": [";
  bool first = true;
  for (const auto& [label, stats] : aggregates) {
    if (!first) out += ", ";
    first = false;
    out += "\n{\"label\": \"";
    json_escape(label, out);
    out += "\", ";
    append_stats_fields(stats, out);
    out += "}";
  }
  out += "\n],\n\"counters\": {";
  first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    json_escape(name, out);
    out += "\": " + std::to_string(value);
  }
  out += "\n}\n}\n";
  return out;
}

std::string profile_json() {
  return profile_json(trace::collect_tree(), trace::aggregate_by_label(),
                      trace::counters());
}

std::string profile_text(const trace::ReportNode& tree,
                         const std::map<std::string, std::uint64_t>& counters) {
  std::string out;
  append_node_text(tree, 0, out);
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters) {
      out += "  " + name + " = " + std::to_string(value) + '\n';
    }
  }
  return out;
}

std::string profile_text() {
  return profile_text(trace::collect_tree(), trace::counters());
}

void write_profile_json(const std::string& path) { write_profile_json(path, trace::counters()); }

void write_profile_json(const std::string& path,
                        const std::map<std::string, std::uint64_t>& counters) {
  const std::string json =
      profile_json(trace::collect_tree(), trace::aggregate_by_label(), counters);
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw IoError("cannot open profile output: " + path);
  f << json;
  if (!f) throw IoError("profile write failed: " + path);
}

}  // namespace cesm::core
