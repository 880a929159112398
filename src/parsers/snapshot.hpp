// Corpus-level persistence: a whole ParsedCorpus — LogStore, JobTable,
// the machine/window manifest and the line accounting — as one
// hpcfail.store.v1 file.  This is what "parse once, analyze many times"
// ships between runs: load_snapshot() yields a ParsedCorpus
// indistinguishable from the text-ingest paths (enforced byte-for-byte
// against the report goldens in tests/snapshot_test.cpp), without touching
// a line of log text.
//
// Error discipline matches ingest.hpp: structured SnapshotError, never an
// exception across the API boundary, and never a partially loaded corpus —
// a file that fails any validation step yields an error and nothing else.
#pragma once

#include <optional>
#include <string>

#include "parsers/corpus_parser.hpp"
#include "util/snapshot.hpp"

namespace hpcfail::parsers {

/// Writes `corpus` (any ParsedCorpus, from parse_corpus, ingest_files or
/// load_snapshot) to `path` as an hpcfail.store.v1 snapshot.
[[nodiscard]] std::optional<util::SnapshotError> save_snapshot(
    const ParsedCorpus& corpus, const std::string& path);

/// load_snapshot's result: on success `error` is empty and the base
/// ParsedCorpus is fully populated; on failure only `error` is meaningful
/// (the base is default-constructed, never partially filled).
struct SnapshotLoadResult : ParsedCorpus {
  std::optional<util::SnapshotError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Bulk-reads and validates a snapshot written by save_snapshot().
[[nodiscard]] SnapshotLoadResult load_snapshot(const std::string& path);

}  // namespace hpcfail::parsers
