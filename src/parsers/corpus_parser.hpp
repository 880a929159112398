// Whole-corpus ingestion of in-memory text: raw text of all sources ->
// finalized LogStore + JobTable.  parse_corpus is a thin adapter that feeds
// each source text to parsers::ingest_stream (parsers/ingest.hpp) as a
// zero-copy in-memory stream, so a corpus in RAM and the same corpus on
// disk take one parse path and yield identical results.  Malformed or
// irrelevant lines are counted, never fatal.
#pragma once

#include <cstddef>

#include "jobs/job_table.hpp"
#include "loggen/corpus.hpp"
#include "logmodel/log_store.hpp"
#include "platform/topology.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail::parsers {

struct ParsedCorpus {
  platform::SystemConfig system;
  platform::Topology topology;
  logmodel::LogStore store;
  jobs::JobTable jobs;
  util::TimePoint begin;  ///< log window start, from the manifest
  int days = 0;           ///< log window length, from the manifest
  std::size_t total_lines = 0;
  std::size_t parsed_records = 0;
  std::size_t skipped_lines = 0;  ///< malformed or not fault-relevant
};

/// Parses every source of the corpus. When `pool` is null the shared
/// default pool is used; pass a 1-thread pool for fully serial parsing.
/// Throws std::bad_alloc when the ingest runs out of memory (and
/// std::runtime_error for any other ingest error) instead of returning a
/// partial corpus.
[[nodiscard]] ParsedCorpus parse_corpus(const loggen::Corpus& corpus,
                                        util::ThreadPool* pool = nullptr);

}  // namespace hpcfail::parsers
