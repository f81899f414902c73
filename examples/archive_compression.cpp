// The paper's motivating workflow (§1): a post-processing step that takes
// a CESM history file and compresses it for archival, choosing a
// compression treatment per variable.
//
// This example writes one member's full 170-variable history file, picks
// for each variable the most aggressive fpzip variant whose reconstruction
// keeps rho above the acceptance bar (falling back to lossless), and
// reports the storage the hybrid archive saves versus raw and versus
// all-lossless NetCDF-4 deflate.
//
// Usage: ./build/examples/archive_compression [vars]   (default: all 170)

#include <cstdio>
#include <cstdlib>
#include <map>

#include "climate/ensemble.h"
#include "climate/history.h"
#include "compress/variants.h"
#include "core/metrics.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace cesm;
  const std::size_t var_limit =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 0;

  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::reduced();
  spec.members = 3;
  const climate::EnsembleGenerator model(spec);

  std::size_t raw_bytes = 0, nc_bytes = 0, hybrid_bytes = 0;
  std::map<std::string, std::size_t> variant_counts;
  std::size_t processed = 0;

  for (const climate::VariableSpec& var : model.catalog()) {
    if (var_limit && processed >= var_limit) break;
    ++processed;

    const climate::Field field = model.field(var, 1);
    raw_bytes += field.size() * sizeof(float);

    // All-lossless reference (what the site archives today).
    const comp::CodecPtr nc = comp::make_variant("NetCDF-4");
    nc_bytes += nc->encode(field.data, field.shape).size();

    // Hybrid: most aggressive fpzip variant that keeps rho at five nines.
    comp::CodecPtr chosen;
    Bytes stream;
    for (const comp::VariantRow* row : comp::hybrid_candidates("fpzip")) {
      comp::CodecPtr candidate = row->build(0, field.fill);
      Bytes s = candidate->encode(field.data, field.shape);
      const core::ErrorMetrics m = core::compare_fields(field, candidate->decode(s));
      if (m.pearson >= core::kPearsonThreshold) {
        chosen = std::move(candidate);
        stream = std::move(s);
        break;
      }
    }
    if (!chosen) {  // fall back to fpzip's lossless mode
      chosen = comp::lossless_stand_in("fpzip").build(0, field.fill);
      stream = chosen->encode(field.data, field.shape);
    }
    hybrid_bytes += stream.size();
    ++variant_counts[chosen->name()];
  }

  std::printf("Archive compression study over %zu variables (member 1):\n\n", processed);
  core::TextTable table({"storage", "bytes", "vs raw"});
  const auto pct = [&](std::size_t b) {
    return core::format_fixed(100.0 * static_cast<double>(b) /
                              static_cast<double>(raw_bytes), 1) + "%";
  };
  table.add_row({"raw float32", std::to_string(raw_bytes), "100.0%"});
  table.add_row({"NetCDF-4 deflate (lossless)", std::to_string(nc_bytes), pct(nc_bytes)});
  table.add_row({"per-variable fpzip hybrid", std::to_string(hybrid_bytes),
                 pct(hybrid_bytes)});
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nvariant usage:\n");
  for (const auto& [name, count] : variant_counts) {
    std::printf("  %-10s %zu variables\n", name.c_str(), count);
  }
  std::printf(
      "\nThe paper's conclusion in practice: treating variables individually\n"
      "achieves compression approaching 5:1 on amenable variables while the\n"
      "quality bar decides where lossless treatment is required.\n");
  return 0;
}
