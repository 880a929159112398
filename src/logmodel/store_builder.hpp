// Sharded LogStore construction for the streaming ingestion pipeline.
//
// Every parsed corpus store is built here.  StoreBuilder accumulates
// records into bounded shards, and build() flattens them and stably
// merges the natural time-ordered runs (one per source, give or take
// chunk seams) into the final record vector.
//
// Ordering contract: append() calls must arrive in the canonical global
// sequence (per-source line order, sources in parse order).  The merge
// then breaks time ties by append order, which reproduces a global
// stable_sort of that sequence byte for byte — logmodel_test pins this.
//
// Detail strings: parse workers intern into chunk-local SymbolTables;
// append_batch absorbs each chunk table into the builder's table (chunks
// retire in FIFO order, so this is serialized) and rewrites the batch's
// Symbols through the returned remap.  build() moves the merged table into
// the LogStore, which owns it for the records' lifetime.
#pragma once

#include <cstddef>
#include <vector>

#include "logmodel/log_store.hpp"

namespace hpcfail::logmodel {

class StoreBuilder {
 public:
  /// `shard_records` bounds how many records a shard holds before it is
  /// sealed; 0 is clamped to 1.
  explicit StoreBuilder(std::size_t shard_records = kDefaultShardRecords);

  static constexpr std::size_t kDefaultShardRecords = 1 << 16;

  /// Appends a record whose detail Symbol was interned via symbols().
  void append(LogRecord r);
  /// Moves a whole parsed chunk in (cheaper than record-at-a-time).
  /// `batch_symbols` is the chunk-local table the batch's detail Symbols
  /// point into; they are remapped into the builder's table here.  Chunks
  /// retire in FIFO order, so for a fixed chunk size the merged ids are
  /// deterministic regardless of worker-thread count.
  void append_batch(std::vector<LogRecord> batch, const SymbolTable& batch_symbols);
  /// Batch variant for records whose detail Symbols are already valid in
  /// this builder's table (default-constructed, or interned via symbols()).
  void append_batch(std::vector<LogRecord> batch);

  /// The builder's own table, for sequential producers that intern
  /// directly (e.g. the stateful scheduler parser) before append().
  [[nodiscard]] SymbolTable& symbols() noexcept { return symbols_; }

  [[nodiscard]] std::size_t record_count() const noexcept { return count_; }
  /// Shards sealed so far (the open shard is not counted).
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Merges every shard into time order and returns the finalized store.
  /// The builder is left empty and reusable.
  [[nodiscard]] LogStore build();

 private:
  void seal_current();

  std::vector<std::vector<LogRecord>> shards_;  ///< sealed, unsorted until build()
  std::vector<LogRecord> current_;              ///< open shard
  SymbolTable symbols_;                         ///< moved into the store at build()
  std::size_t shard_records_;
  std::size_t count_ = 0;
};

}  // namespace hpcfail::logmodel
