#pragma once
// cesmd wire protocol: verification-as-a-service message layer.
//
// Z-checker frames compression assessment as a reusable service rather
// than a per-dataset script; cesmd is that service for this repo's §4
// methodology. A request names everything that determines a verification
// — the ensemble spec (grid + members + latent dynamics), one variable,
// the full SuiteConfig, and an optional variant filter — and the response
// is the VariableResult `run_suite` would produce in-process, serialized
// field-for-field with ByteWriter. Two properties are load-bearing:
//
//   * Bit-parity: serialize_variable_result() is the ONLY encoding of a
//     result, used by both the server and by clients checking a response
//     against a local run_suite. run_suite is bit-deterministic at any
//     thread count, so response bytes must equal the local serialization
//     exactly — the CI gate compares them with memcmp, not a tolerance.
//   * Coalescing key: requests that agree on everything except the
//     variant filter share one suite computation. coalescing_key()
//     hashes the request's wire encoding with the filter cleared, so a
//     field added to the wire joins the key by construction; the filter
//     is applied at response-serialization time.
//
// Messages travel in util/net.h frames. Each frame type's payload is
// versioned with kProtocolVersion; a reader rejects a version it does
// not know with a typed error rather than guessing at field layout.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "core/suite.h"
#include "util/bytes.h"

namespace cesm::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Frame types (the u8 in the util/net.h frame header).
enum class MessageType : std::uint8_t {
  kPing = 1,
  kPong = 2,
  kVerifyRequest = 3,
  kVerifyResponse = 4,   ///< payload: serialize_variable_result bytes
  kErrorResponse = 5,    ///< payload: ErrorInfo
  kStatsRequest = 6,
  kStatsResponse = 7,    ///< payload: string->u64 counter map
};

/// Typed failure codes carried by kErrorResponse.
enum class ErrorCode : std::uint32_t {
  kMalformedFrame = 1,      ///< bad magic / truncated header / bad payload
  kOversizedFrame = 2,      ///< declared payload above the server limit
  kUnsupportedType = 3,     ///< unknown MessageType
  kUnsupportedVersion = 4,  ///< request from a different protocol version
  kBadRequest = 5,          ///< parsed, but semantically invalid
  kQueueFull = 6,           ///< admission control rejected the request
  kProcessingFailed = 7,    ///< run_suite threw (incl. injected faults)
  kShuttingDown = 8,        ///< daemon is draining
};

const char* error_code_name(ErrorCode code);

struct ErrorInfo {
  ErrorCode code = ErrorCode::kProcessingFailed;
  std::string message;
};

/// One verification request: everything run_suite needs, plus a variant
/// filter selecting which verdicts the response should carry (empty =
/// all nine paper variants).
struct VerifyRequest {
  climate::EnsembleSpec ensemble;
  std::string variable;
  core::SuiteConfig config;
  std::vector<std::string> variants;
};

// --- serialization (ByteWriter/Reader; parse throws FormatError) -----------

Bytes serialize_verify_request(const VerifyRequest& request);
VerifyRequest parse_verify_request(std::span<const std::uint8_t> payload);

/// Canonical byte encoding of one variable's verification outcome. The
/// server's kVerifyResponse payload is exactly these bytes; a client
/// verifying parity serializes its local run_suite result with the same
/// function and compares buffers.
Bytes serialize_variable_result(const core::VariableResult& result);
core::VariableResult parse_variable_result(std::span<const std::uint8_t> payload);

Bytes serialize_error(const ErrorInfo& error);
ErrorInfo parse_error(std::span<const std::uint8_t> payload);

Bytes serialize_counters(const std::map<std::string, std::uint64_t>& counters);
std::map<std::string, std::uint64_t> parse_counters(std::span<const std::uint8_t> payload);

// --- request semantics ------------------------------------------------------

/// Hash of the computation a request demands: its serialize_verify_request
/// bytes (ensemble spec + variable + suite config) with the variant
/// filter cleared (a filter selects verdicts out of the one shared
/// computation, it does not change it). Concurrent requests with equal
/// keys are coalesced onto a single run_suite.
std::uint64_t coalescing_key(const VerifyRequest& request);

/// Restrict a result to the requested variants, preserving request
/// order. Unknown variant names throw InvalidArgument (-> kBadRequest).
/// An empty filter returns `result` unchanged.
core::VariableResult filter_result(const core::VariableResult& result,
                                   const std::vector<std::string>& variants);

}  // namespace cesm::serve
