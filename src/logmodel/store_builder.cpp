#include "logmodel/store_builder.hpp"

#include <algorithm>
#include <new>

#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hpcfail::logmodel {

namespace {

bool time_less(const LogRecord& a, const LogRecord& b) noexcept { return a.time < b.time; }

/// Shard-size bucket edges in records: shards are sealed near the configured
/// shard_records target, so the histogram mostly shows the tail of short
/// final shards.
const std::vector<double>& shard_bounds() {
  static const std::vector<double> bounds = {256,    1024,    4096,   16384,
                                             65536,  262144,  1048576};
  return bounds;
}

/// Records one sealed shard against the installed registry (if any).
void note_shard(std::size_t records) {
  if (util::MetricsRegistry* reg = util::metrics()) {
    reg->counter("hpcfail.store.shards_sealed").increment();
    reg->histogram("hpcfail.store.shard_records", shard_bounds())
        .observe(static_cast<double>(records));
  }
}

}  // namespace

StoreBuilder::StoreBuilder(std::size_t shard_records)
    : shard_records_(std::max<std::size_t>(1, shard_records)) {}

void StoreBuilder::seal_current() {
  if (current_.empty()) return;
  note_shard(current_.size());
  shards_.push_back(std::move(current_));
  current_ = {};
}

void StoreBuilder::append(LogRecord r) {
  current_.push_back(r);
  ++count_;
  if (current_.size() >= shard_records_) seal_current();
}

void StoreBuilder::append_batch(std::vector<LogRecord> batch,
                                const SymbolTable& batch_symbols) {
  if (HPCFAIL_FAULT_SITE("store.append_batch.bad_alloc")) throw std::bad_alloc{};
  if (batch.empty()) return;
  // Rewrite chunk-local Symbols into the builder's table.  absorb() is a
  // hash probe per *distinct* string, the remap a table lookup per record.
  const std::vector<Symbol> remap = symbols_.absorb(batch_symbols);
  for (LogRecord& r : batch) r.detail = remap[r.detail.id];
  append_batch(std::move(batch));
}

void StoreBuilder::append_batch(std::vector<LogRecord> batch) {
  if (batch.empty()) return;
  // count_ is bumped only after the records are in place, so a bad_alloc
  // from the insert can't leave record_count() claiming records the store
  // never received.
  const std::size_t records = batch.size();
  // Chunk batches coalesce into current_ rather than retiring as their own
  // shards: dozens of ~chunk-sized arena allocations stay resident (malloc
  // never returns them) for the whole ingest, where one large mmap'd
  // current_ is unmapped the moment build() moves it — measured ~1.5 MB of
  // peak RSS on the S2 week for a copy that costs well under a millisecond.
  if (current_.empty() && records >= shard_records_) {
    note_shard(records);
    shards_.push_back(std::move(batch));
    count_ += records;
    return;
  }
  current_.insert(current_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  count_ += records;
  if (current_.size() >= shard_records_) seal_current();
}

LogStore StoreBuilder::build() {
  seal_current();
  std::vector<std::vector<LogRecord>> shards = std::move(shards_);
  shards_ = {};
  count_ = 0;
  SymbolTable symbols = std::move(symbols_);
  symbols_ = SymbolTable{};

  if (shards.empty()) return LogStore::from_sorted({}, std::move(symbols));

  // Flatten the append sequence.  Each source file is ingested in order and
  // is itself time-sorted, so the sequence is a handful of long ascending
  // runs (one per source, give or take chunk seams) — not random.  A full
  // stable_sort pays n log n even on that shape; detecting the runs and
  // stably merging them is one linear pass plus ~log(runs) compares per
  // record, and collapses to a plain move when the whole sequence is one
  // run.
  std::vector<LogRecord> all;
  if (shards.size() == 1) {
    all = std::move(shards[0]);
  } else {
    std::size_t total = 0;
    for (const auto& s : shards) total += s.size();
    all.reserve(total);
    for (auto& s : shards) {
      all.insert(all.end(), s.begin(), s.end());
      s = {};  // release each absorbed shard's memory early
    }
  }
  shards = {};

  util::TraceSpan span("hpcfail.store.sort_shards");
  std::vector<std::size_t> run_begin;  // ascending-run boundaries in `all`
  run_begin.push_back(0);
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (time_less(all[i], all[i - 1])) run_begin.push_back(i);
  }
  if (run_begin.size() == 1) {
    return LogStore::from_sorted(std::move(all), std::move(symbols));
  }

  // Bottom-up natural merge: fold adjacent run pairs in place until one
  // run remains.  std::inplace_merge is stable (ties take the left, i.e.
  // earlier-appended, range first) and only ever pairs contiguous segments
  // of the append sequence, so the result is exactly what a global
  // stable_sort over the append sequence would have produced.  In-place
  // (rather than ping-pong between two full-size buffers) because
  // libstdc++'s adaptive temp buffer is min(len1, len2) — at most half a
  // pair — which keeps peak RSS at the old stable_sort level while the
  // buffered merge stays a sequential memcpy-speed sweep; a full spare
  // records buffer held across the passes measurably lifted peak RSS.
  run_begin.push_back(all.size());
  std::vector<std::size_t> bounds = std::move(run_begin);
  while (bounds.size() > 2) {
    std::vector<std::size_t> next;
    next.reserve(bounds.size() / 2 + 2);
    next.push_back(0);
    std::size_t i = 0;
    for (; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(all.begin() + bounds[i], all.begin() + bounds[i + 1],
                         all.begin() + bounds[i + 2], time_less);
      next.push_back(bounds[i + 2]);
    }
    if (i + 1 < bounds.size()) next.push_back(bounds[i + 1]);  // odd run out
    bounds = std::move(next);
  }
  return LogStore::from_sorted(std::move(all), std::move(symbols));
}

}  // namespace hpcfail::logmodel
