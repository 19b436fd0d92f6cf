// Self-checking 1 KB values.
//
// Every value the benchmark writes encodes the key it was written for, the
// writer (0 = the loader, 1..N = client threads), that writer's sequence
// number and a checksum over the whole record. A read result is accepted
// only if it decodes, its checksum holds, it names the key that was asked
// for, and its (writer, seq) pair was actually issued by that writer. A
// torn, stale-garbage, misrouted or fabricated value fails one of these.

#ifndef PERFBENCH_SRC_VALUE_H_
#define PERFBENCH_SRC_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr size_t kValueSize = 1024;  // The paper's record size.

namespace value_detail {

inline constexpr uint64_t kMagic = 0x4B50424556414C31ull;  // "KPBEVAL1"
inline constexpr size_t kWords = kValueSize / sizeof(uint64_t);

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Checksum over words [0, kWords - 1); the last word stores it.
inline uint64_t Checksum(const uint64_t* w) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i + 1 < kWords; ++i) {
    h = (h ^ w[i]) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace value_detail

// Layout (little-endian words): magic, key, writer, seq, filler..., checksum.
inline std::string EncodeValue(uint64_t key, uint32_t writer, uint64_t seq) {
  using namespace value_detail;
  uint64_t w[kWords];
  w[0] = kMagic;
  w[1] = key;
  w[2] = writer;
  w[3] = seq;
  uint64_t s = Mix(key ^ (static_cast<uint64_t>(writer) << 48) ^ (seq * 0x9E3779B97F4A7C15ull));
  for (size_t i = 4; i + 1 < kWords; ++i) {
    s += 0x9E3779B97F4A7C15ull;
    w[i] = Mix(s);
  }
  w[kWords - 1] = Checksum(w);
  return std::string(reinterpret_cast<const char*>(w), kValueSize);
}

// Per-writer high-water marks of issued sequence numbers. A writer bumps its
// mark *before* calling the store, so any value a reader can observe carries
// a seq at or below the mark the reader loads afterwards.
class WriterBook {
 public:
  explicit WriterBook(uint32_t writers)
      : writers_(writers), issued_(std::make_unique<std::atomic<uint64_t>[]>(writers)) {
    for (uint32_t i = 0; i < writers; ++i) {
      issued_[i].store(0, std::memory_order_relaxed);
    }
  }

  // Returns the next sequence number of `writer` (starting at 1).
  uint64_t Issue(uint32_t writer) {
    return issued_[writer].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  uint32_t writers() const { return writers_; }
  uint64_t issued(uint32_t writer) const {
    return issued_[writer].load(std::memory_order_acquire);
  }

 private:
  uint32_t writers_;
  std::unique_ptr<std::atomic<uint64_t>[]> issued_;
};

// Returns nullptr if `v` is a valid value for `key`, else a short reason.
inline const char* CheckValue(std::string_view v, uint64_t key, const WriterBook& book) {
  using namespace value_detail;
  if (v.size() != kValueSize) {
    return "wrong size";
  }
  uint64_t w[kWords];
  std::memcpy(w, v.data(), kValueSize);
  if (w[0] != kMagic) {
    return "bad magic";
  }
  if (Checksum(w) != w[kWords - 1]) {
    return "checksum mismatch";
  }
  if (w[1] != key) {
    return "value belongs to another key";
  }
  if (w[2] >= book.writers()) {
    return "unknown writer";
  }
  if (w[3] == 0 || w[3] > book.issued(static_cast<uint32_t>(w[2]))) {
    return "sequence number never issued";
  }
  return nullptr;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_VALUE_H_
