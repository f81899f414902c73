// Codec throughput benchmark: encode/decode MB/s and compression ratio for
// each codec family on CAM-like data (the per-element cost behind Table 5).
//
// A second leg codes the suite's own fields (reduced-grid ensemble members
// of the incore_bias variables) and reports, per residual symbol, encode
// and decode time and the residual coder's work: range-coded class
// decisions and side-buffer raw bits, from the codec.residual_* counter
// deltas of one encode pass.
//
// Output: tables on stdout and BENCH_codecs.json (override with
// --out=PATH); --quick shrinks the fields and repeat count for CI smoke
// runs. Stream identity is the test suite's job (CodecPin), not this one's.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "climate/ensemble.h"
#include "compress/simd.h"
#include "compress/variants.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace {

using namespace cesm;

/// Sink defeating dead-code elimination of the measured calls.
volatile std::size_t g_sink = 0;

struct CodecResult {
  std::string name;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;

  [[nodiscard]] double mbps(double seconds) const {
    return static_cast<double>(bytes_in) / seconds * 1e-6;
  }
  [[nodiscard]] double ratio() const {
    return static_cast<double>(bytes_out) / static_cast<double>(bytes_in);
  }
};

/// One codec over the suite's fields, per residual symbol.
struct SymbolResult {
  std::string name;
  std::uint64_t symbols = 0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double decisions = 0.0;
  double raw_bits = 0.0;
};

/// Best-of-`reps` wall time of one repeated call (one warmup pass first).
double best_of(int reps, const std::function<std::size_t()>& run) {
  g_sink = g_sink + run();  // warmup: page in, prime caches
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    g_sink = g_sink + run();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// CAM-like 2D field: smooth large-scale structure plus weather noise, the
/// regime all four codec families were tuned for.
std::vector<float> cam_like_field(std::size_t n) {
  Pcg32 rng(0xbe6c4);
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.013) * 40.0 +
                                 10.0 + rng.uniform(-2.0, 2.0));
  }
  return data;
}

/// Members 0..members-1 of the incore_bias variables on the reduced grid.
std::vector<climate::Field> suite_fields(std::size_t members) {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::reduced();
  spec.members = members;
  const climate::EnsembleGenerator ensemble(spec);
  std::vector<climate::Field> fields;
  for (const char* name : {"U", "FSDSC", "Z3", "CCN3", "T", "SST"}) {
    for (std::size_t m = 0; m < members; ++m) {
      fields.push_back(ensemble.field(name, static_cast<std::uint32_t>(m)));
    }
  }
  return fields;
}

SymbolResult per_symbol(const std::string& variant, const std::vector<climate::Field>& fields,
                        int reps) {
  std::vector<comp::CodecPtr> codecs;
  for (const climate::Field& f : fields) codecs.push_back(comp::make_variant(variant, f.fill));
  const auto encode_all = [&] {
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      bytes += codecs[i]->encode(fields[i].data, fields[i].shape).size();
    }
    return bytes;
  };

  const std::map<std::string, std::uint64_t> before = trace::counters();
  std::vector<Bytes> streams;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    streams.push_back(codecs[i]->encode(fields[i].data, fields[i].shape));
  }
  const std::map<std::string, std::uint64_t> after = trace::counters();
  const auto delta = [&](const char* counter) {
    return static_cast<double>(after.at(counter) - before.at(counter));
  };

  SymbolResult r;
  r.name = variant;
  r.symbols = after.at("codec.residual_symbols") - before.at("codec.residual_symbols");
  const double symbols = static_cast<double>(r.symbols);
  r.decisions = delta("codec.residual_class_decisions") / symbols;
  r.raw_bits = delta("codec.residual_raw_bits") / symbols;
  r.encode_ns = best_of(reps, encode_all) * 1e9 / symbols;
  r.decode_ns = best_of(reps, [&] {
                  std::size_t n = 0;
                  for (std::size_t i = 0; i < streams.size(); ++i) {
                    n += codecs[i]->decode(streams[i]).size();
                  }
                  return n;
                }) *
                1e9 / symbols;
  return r;
}

void write_json(std::ofstream& out, const std::vector<CodecResult>& results,
                const std::vector<SymbolResult>& symbol_results, std::size_t n,
                bool quick, double suite_seconds) {
  // Codec encode/decode is single-threaded; the worker fields keep the file
  // honest if a future harness ever threads the loop.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t threads = 1;
  out << "{\n"
      << "  \"bench\": \"codecs\",\n"
      << "  \"elements\": " << n << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"effective_workers\": " << (hw == 0 ? threads : std::min<std::size_t>(threads, hw))
      << ",\n"
      << "  \"oversubscribed\": " << (hw != 0 && threads > hw ? "true" : "false") << ",\n"
      << "  \"kernels\": \"" << comp::simd::mode_name(comp::simd::active_mode()) << "\",\n"
      << "  \"peak_rss_bytes\": " << util::peak_rss_bytes() << ",\n"
      << "  \"suite_seconds\": " << suite_seconds << ",\n"
      << "  \"benches\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CodecResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", "
        << "\"encode_mbps\": " << r.mbps(r.encode_s) << ", "
        << "\"decode_mbps\": " << r.mbps(r.decode_s) << ", "
        << "\"compression_ratio\": " << r.ratio() << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"residual_benches\": [\n";
  for (std::size_t i = 0; i < symbol_results.size(); ++i) {
    const SymbolResult& r = symbol_results[i];
    out << "    {\"name\": \"" << r.name << "\", "
        << "\"symbols\": " << r.symbols << ", "
        << "\"encode_ns_per_symbol\": " << r.encode_ns << ", "
        << "\"decode_ns_per_symbol\": " << r.decode_ns << ", "
        << "\"decisions_per_symbol\": " << r.decisions << ", "
        << "\"raw_bits_per_symbol\": " << r.raw_bits << "}"
        << (i + 1 < symbol_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_codecs.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: bench_codecs [--quick] [--out=BENCH_codecs.json]\n");
      return arg == "--help" ? 0 : 2;
    }
  }

  // Default: one 3D variable's worth of points (48602-point fv0.9x1.25
  // horizontal grid x 30 levels, rounded to a 2D shape the GRIB2 wavelet
  // can tile). Quick keeps CI runs to a fraction of a second per codec.
  const std::size_t rows = quick ? 64 : 1459;
  const std::size_t cols = quick ? 256 : 1000;
  const std::size_t n = rows * cols;
  const int reps = quick ? 3 : 5;

  const std::vector<float> data = cam_like_field(n);
  const comp::Shape shape = comp::Shape::d2(rows, cols);

  const char* variants[] = {"fpzip-24", "ISA-0.5", "APAX-2", "GRIB2:3"};

  const Stopwatch suite_clock;
  std::vector<CodecResult> results;
  for (const char* variant : variants) {
    const comp::CodecPtr codec = comp::make_variant(variant);
    CodecResult r;
    r.name = variant;
    r.bytes_in = n * sizeof(float);
    const Bytes stream = codec->encode(data, shape);
    r.bytes_out = stream.size();
    r.encode_s = best_of(reps, [&] { return codec->encode(data, shape).size(); });
    r.decode_s = best_of(reps, [&] { return codec->decode(stream).size(); });
    results.push_back(r);
  }

  const std::vector<climate::Field> fields = suite_fields(quick ? 2 : 4);
  std::vector<SymbolResult> symbol_results;
  for (const char* variant : {"fpzip-24", "fpzip-16", "GRIB2:3", "ISA-0.5"}) {
    symbol_results.push_back(per_symbol(variant, fields, reps));
  }
  const double suite_seconds = suite_clock.seconds();

  std::printf("%-10s %14s %14s %8s\n", "codec", "encode", "decode", "ratio");
  for (const CodecResult& r : results) {
    std::printf("%-10s %9.1f MB/s %9.1f MB/s %8.4f\n", r.name.c_str(), r.mbps(r.encode_s),
                r.mbps(r.decode_s), r.ratio());
  }
  std::printf("kernels: %s  n=%zu reps=%d%s\n",
              comp::simd::mode_name(comp::simd::active_mode()), n, reps,
              quick ? " quick" : "");
  std::printf("\nper residual symbol, %zu suite fields:\n", fields.size());
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "codec", "symbols", "encode ns",
              "decode ns", "decisions", "raw bits");
  for (const SymbolResult& r : symbol_results) {
    std::printf("%-10s %10llu %10.1f %10.1f %10.2f %10.2f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.symbols), r.encode_ns, r.decode_ns,
                r.decisions, r.raw_bits);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  write_json(out, results, symbol_results, n, quick, suite_seconds);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
