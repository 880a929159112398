#include "parsers/corpus_parser.hpp"

#include <array>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parsers/ingest.hpp"
#include "util/chunked_reader.hpp"

namespace hpcfail::parsers {

IngestResult ingest_corpus(const loggen::Corpus& corpus, const IngestOptions& options) {
  std::array<std::optional<util::MemoryStream>, logmodel::kLogSourceCount> streams;
  std::vector<SourceStream> sources;
  for (std::size_t i = 0; i < corpus.text.size(); ++i) {
    if (corpus.text[i].empty()) continue;
    streams[i].emplace(corpus.text[i]);
    sources.push_back({static_cast<logmodel::LogSource>(i), &*streams[i]});
  }
  return ingest_stream(corpus, sources, options);
}

ParsedCorpus parse_corpus(const loggen::Corpus& corpus, util::ThreadPool* pool) {
  IngestOptions options;
  options.pool = pool;
  IngestResult result = ingest_corpus(corpus, options);
  // In-memory text has no I/O to fail, but an allocation can: never hand a
  // caller a silently partial corpus.
  if (result.error) {
    if (result.error->kind == IngestErrorKind::Resource) throw std::bad_alloc{};
    throw std::runtime_error(result.error->to_string());
  }
  return std::move(static_cast<ParsedCorpus&>(result));
}

}  // namespace hpcfail::parsers
