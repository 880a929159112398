// Classification of raw kernel/NHC payload text into event types.
//
// Hand-rolled substring matching over std::string_view (no std::regex): the
// signature set is small and fixed, and substring scans are an order of
// magnitude faster — the ablation in bench/perf_pipeline measures the gap.
// Since the SWAR/SIMD rework the whole signature cascade runs as ONE
// rare-byte-keyed pass over the payload (util::scan::SignatureSet) instead
// of one contains() scan per signature; the *_ref variants below resolve
// the same cascade through the retained scalar matcher and exist solely so
// tests can assert byte-identical classification.
// Matching order matters where signatures overlap (LBUG before LustreError,
// processor-context-corrupt before generic MCE); keep this file and
// loggen/renderer.cpp in sync.
#pragma once

#include <optional>
#include <string_view>

#include "logmodel/event_type.hpp"

namespace hpcfail::parsers {

struct Classified {
  logmodel::EventType type;
  logmodel::Severity severity;
  /// Payload remainder useful downstream (stack module for call traces,
  /// reason text otherwise). May be empty.
  std::string_view detail;
};

/// Classifies a console/consumer kernel payload. nullopt for lines that are
/// not fault-relevant (routine kernel chatter).
[[nodiscard]] std::optional<Classified> classify_kernel_payload(std::string_view payload) noexcept;

/// Classifies a messages-file NHC payload.
[[nodiscard]] std::optional<Classified> classify_nhc_payload(std::string_view payload) noexcept;

/// Classifies a controller payload (SEDC warnings, cabinet faults).
[[nodiscard]] std::optional<Classified> classify_controller_payload(
    std::string_view payload) noexcept;

/// Scalar-reference twins of the classifiers above: same cascade, matched
/// with one find() per signature instead of the single-pass scanner.  For
/// differential tests only — never on the hot path.
[[nodiscard]] std::optional<Classified> classify_kernel_payload_ref(
    std::string_view payload) noexcept;
[[nodiscard]] std::optional<Classified> classify_nhc_payload_ref(
    std::string_view payload) noexcept;
[[nodiscard]] std::optional<Classified> classify_controller_payload_ref(
    std::string_view payload) noexcept;

/// Extracts the leading module of a rendered call-trace frame
/// (" [<addr>] module+0x..." -> "module").
[[nodiscard]] std::optional<std::string_view> call_trace_module(std::string_view payload) noexcept;

}  // namespace hpcfail::parsers
