#include "logmodel/symbol_table.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/fault.hpp"

namespace hpcfail::logmodel {

SymbolTable::SymbolTable() : slots_(64, 0) { intern({}); }

SymbolTable::SymbolTable(const SymbolTable& other)
    : SymbolTable(other, other.size(), other.size()) {}

SymbolTable::SymbolTable(const SymbolTable& other, std::size_t n, std::size_t capacity)
    : SymbolTable() {
  views_.reserve(std::max(n, capacity));
  hashes_.reserve(std::max(n, capacity));
  // Slots for the n strings only: they are the writer's alone, so they
  // may grow later, and sizing them for `capacity` would clear memory the
  // table may never use.
  std::size_t slots = slots_.size();
  while ((n + 1) * 4 > slots * 3) slots *= 2;
  if (slots != slots_.size()) rehash(slots);
  // Through data(): a vector another thread appends to within its
  // capacity changes its end, never its start.
  const std::string_view* views = other.views_.data();
  const std::uint64_t* hashes = other.hashes_.data();
  for (std::size_t i = 1; i < n; ++i) intern_hashed(views[i], hashes[i]);
}

SymbolTable& SymbolTable::operator=(const SymbolTable& other) {
  if (this != &other) {
    SymbolTable copy(other);
    *this = std::move(copy);
  }
  return *this;
}

const char* SymbolTable::arena_store(std::string_view text) {
  if (blocks_.empty() || block_used_ + text.size() > kBlockBytes) {
    blocks_.push_back(
        std::make_unique_for_overwrite<char[]>(std::max(text.size(), kBlockBytes)));
    block_used_ = 0;
  }
  char* dst = blocks_.back().get() + block_used_;
  std::memcpy(dst, text.data(), text.size());
  block_used_ += text.size();
  return dst;
}

std::uint64_t SymbolTable::hash_bytes(std::string_view text) noexcept {
  // xor-multiply over unaligned 8-byte loads with a zero-padded tail; the
  // length is folded into the seed so "a" and "a\0..." prefixes cannot
  // collide trivially.
  constexpr std::uint64_t kMul = 0x9DDFEA08EB382D69ull;
  std::uint64_t h =
      0x84222325CBF29CE4ull ^ (static_cast<std::uint64_t>(text.size()) * kMul);
  const char* p = text.data();
  std::size_t n = text.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    h = (h ^ v) * kMul;
    h ^= h >> 47;
  }
  if (n != 0) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, n);
    h = (h ^ v) * kMul;
    h ^= h >> 47;
  }
  return h;
}

void SymbolTable::rehash(std::size_t slots) {
  std::vector<std::uint32_t> bigger(slots, 0);
  const std::size_t mask = bigger.size() - 1;
  for (std::uint32_t id = 0; id < views_.size(); ++id) {
    std::size_t b = hashes_[id] & mask;
    while (bigger[b] != 0) b = (b + 1) & mask;
    bigger[b] = id + 1;
  }
  slots_ = std::move(bigger);
}

Symbol SymbolTable::intern_hashed(std::string_view text, std::uint64_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t b = hash & mask;
  while (slots_[b] != 0) {
    const std::uint32_t id = slots_[b] - 1;
    if (hashes_[id] == hash && views_[id] == text) return Symbol{id};
    b = (b + 1) & mask;
  }
  const std::string_view stable =
      text.empty() ? std::string_view{}
                   : std::string_view(arena_store(text), text.size());
  const auto id = static_cast<std::uint32_t>(views_.size());
  views_.push_back(stable);
  hashes_.push_back(hash);
  payload_bytes_ += text.size();
  slots_[b] = id + 1;
  // Keep load factor under 3/4 so probe chains stay short.
  if ((views_.size() + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
  return Symbol{id};
}

Symbol SymbolTable::intern(std::string_view text) {
  return intern_hashed(text, hash_bytes(text));
}

std::vector<Symbol> SymbolTable::absorb(const SymbolTable& src) {
  if (HPCFAIL_FAULT_SITE("store.symbol_absorb.bad_alloc")) throw std::bad_alloc{};
  // The chunk-local table already hashed every string; probing with the
  // stored hash makes absorb a memcmp-verified table probe per distinct
  // string with no rehashing at all.
  std::vector<Symbol> remap(src.views_.size());
  for (std::size_t i = 0; i < src.views_.size(); ++i) {
    remap[i] = intern_hashed(src.views_[i], src.hashes_[i]);
  }
  return remap;
}

void SymbolTable::append_sections(std::span<const std::string_view> views,
                                  util::Sections& out, const std::string& prefix) {
  // The arena is block-structured in memory; the serialized form is one
  // flat run (every payload concatenated in id order) plus uint64 fence
  // offsets, so the load side never learns about blocks.
  std::size_t payload = 0;
  for (const std::string_view v : views) payload += v.size();
  std::vector<std::byte> bytes;
  bytes.reserve(payload);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(views.size() + 1);
  offsets.push_back(0);
  for (const std::string_view v : views) {
    const auto* data = reinterpret_cast<const std::byte*>(v.data());
    bytes.insert(bytes.end(), data, data + v.size());
    offsets.push_back(bytes.size());
  }
  out.add_owned(prefix + ".bytes", std::move(bytes));
  std::vector<std::byte> offset_bytes(offsets.size() * sizeof(std::uint64_t));
  std::memcpy(offset_bytes.data(), offsets.data(), offset_bytes.size());
  out.add_owned(prefix + ".offsets", std::move(offset_bytes));
}

SymbolTable SymbolTable::from_sections(const util::SectionMap& in,
                                       const std::string& prefix) {
  const auto offsets = in.vector_of<std::uint64_t>(prefix + ".offsets");
  const auto bytes = in.require(prefix + ".bytes");
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != bytes.size()) {
    throw util::SectionError(prefix + ".offsets",
                             "offsets do not span the string payload exactly");
  }
  SymbolTable table;  // already holds "" as id 0
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] < offsets[i]) {
      throw util::SectionError(prefix + ".offsets",
                               "offsets decrease at id " + std::to_string(i));
    }
    const std::string_view text(
        reinterpret_cast<const char*>(bytes.data()) + offsets[i],
        static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
    if (i == 0) {
      if (!text.empty()) {
        throw util::SectionError(prefix + ".bytes", "id 0 must be the empty string");
      }
      continue;  // the constructor interned it
    }
    const Symbol sym = table.intern(text);
    if (sym.id != i) {
      throw util::SectionError(
          prefix + ".bytes", "duplicate string at id " + std::to_string(i) +
                                 " (would re-intern as id " + std::to_string(sym.id) + ")");
    }
  }
  return table;
}

}  // namespace hpcfail::logmodel
