// Shared hashing for small integer sequences. Every hashed key in QARM —
// super-candidate group keys, itemset-support lookup keys, the interest
// evaluator's wildcard keys — is a short vector of small int32 values
// (attribute indices, item ids, range endpoints). Plain FNV-1a leaves the
// *low* bits of such keys poorly mixed, and unordered_map masks the hash
// with its bucket count, so structurally similar keys pile into a handful
// of buckets. The fix (PR 1): finalize FNV-1a with a splitmix64-style
// 64->64-bit mixer so short small-integer keys spread over the whole
// size_t range. This header is the single definition of that scheme.
#ifndef QARM_COMMON_HASH_H_
#define QARM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qarm {

// splitmix64: the statistically strong 64->64-bit mixer this header's
// hashes finalize with. Also used directly wherever a cheap deterministic
// stream of well-mixed bits is needed from a structured key (fault-injection
// schedules, retry jitter): SplitMix64(seed ^ f(key)) is stateless and
// identical across platforms and thread schedules.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The 64->64-bit finalizer of the FNV-1a hashes below.
inline uint64_t FinalizeFnv1a(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

// FNV-1a over 32-bit words, finalized with splitmix64's mixer.
inline uint64_t HashInt32Words(const int32_t* data, size_t n) {
  uint64_t h = kFnv1aOffset;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint32_t>(data[i]);
    h *= kFnv1aPrime;
  }
  return FinalizeFnv1a(h);
}

// HashInt32Words of the subsequence of `data` whose positions are the set
// bits of `keep`, computed in place: a sub-itemset hashes to the same value
// as the same words stored contiguously.
inline uint64_t HashInt32WordsMasked(const int32_t* data, uint64_t keep) {
  uint64_t h = kFnv1aOffset;
  for (; keep != 0; keep &= keep - 1) {
    h ^= static_cast<uint32_t>(data[__builtin_ctzll(keep)]);
    h *= kFnv1aPrime;
  }
  return FinalizeFnv1a(h);
}

// Drop-in hasher for unordered containers keyed by std::vector<int32_t>.
struct Int32VectorHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    return static_cast<size_t>(HashInt32Words(v.data(), v.size()));
  }
};

}  // namespace qarm

#endif  // QARM_COMMON_HASH_H_
