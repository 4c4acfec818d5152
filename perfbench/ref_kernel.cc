#include "ref_kernel.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

constexpr size_t kKeys = size_t{1} << 14;
constexpr size_t kSlots = size_t{1} << 15;  // load factor 0.5
constexpr int kSlotShift = 64 - 15;

}  // namespace

RefKernel::RefKernel() : source_(kKeys), work_(kKeys), table_(kSlots) {
  uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed: the kernel never varies
  for (uint64_t& k : source_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x | 1;  // 0 marks an empty slot
  }
  checksum_ = RunOnce();
}

uint64_t RefKernel::RunOnce() {
  std::memcpy(work_.data(), source_.data(), kKeys * sizeof(uint64_t));
  std::sort(work_.begin(), work_.end());
  std::memset(table_.data(), 0, kSlots * sizeof(uint64_t));
  for (const uint64_t k : work_) {
    size_t slot = (k * 0xff51afd7ed558ccdull) >> kSlotShift;
    while (table_[slot] != 0 && table_[slot] != k) slot = (slot + 1) & (kSlots - 1);
    table_[slot] = k;
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    const uint64_t k = source_[i] ^ (i & 1);  // half hit, half miss
    size_t slot = (k * 0xff51afd7ed558ccdull) >> kSlotShift;
    while (table_[slot] != 0) {
      if (table_[slot] == k) {
        sum += slot;
        break;
      }
      slot = (slot + 1) & (kSlots - 1);
    }
  }
  return sum + work_[kKeys / 2];
}

double RefKernel::RunMs() {
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t sum = RunOnce();
  const auto t1 = std::chrono::steady_clock::now();
  if (sum != checksum_) {
    std::fprintf(stderr, "perfbench: reference kernel result changed\n");
    std::abort();
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lo + hi) / 2.0;
}

}  // namespace perfbench
