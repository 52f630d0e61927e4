// Host-speed calibration and the peak resident set of one repetition.
//
// On a shared 4-vCPU x86-64 virtual machine, single-thread speed drifts by
// itself, in states that last minutes and slow every workload and its
// set-up alike (0.5 s slices of one run ranged from 2.7 to 4.6 M events/s;
// two rounds of identical code 20 minutes apart differed by 20-30 %). The calibration kernel below
// belongs to the benchmark, not to dcdl: no change to the simulator moves
// it, but the host's slow states do. Timed between repetitions, it turns
// wall seconds into reference seconds (wall * reference / kernel time), so
// that rates measured in different host states compare. It mixes the kinds
// of work a simulator does: a binary-heap hold loop with scattered writes,
// dependent loads around an L2-sized and an L3-sized ring, and integer
// arithmetic. Its memory is mapped for each call and unmapped after it.
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Sink for the kernels' results, so the compiler keeps their loops.
volatile std::uint64_t g_sink = 0;

/// Anonymous zero-filled pages, unmapped on destruction.
class Pages {
 public:
  explicit Pages(std::size_t words) : bytes_(words * sizeof(std::uint32_t)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("perfbench: mmap");
      std::exit(1);
    }
    words_ = static_cast<std::uint32_t*>(p);
  }
  ~Pages() { munmap(words_, bytes_); }
  Pages(const Pages&) = delete;
  Pages& operator=(const Pages&) = delete;
  std::uint32_t* data() { return words_; }

 private:
  std::size_t bytes_;
  std::uint32_t* words_ = nullptr;
};

/// Dependent loads around a ring of `n` slots (a power of two). Slot x holds
/// the next slot of a full-period LCG walk (x -> a*x + c mod n), so every
/// address waits on the previous load and no prefetcher predicts it.
double chase(std::uint32_t n, std::uint64_t steps) {
  Pages ring(n);
  std::uint32_t* v = ring.data();
  std::uint32_t x = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t next = (x * 1664525u + 1013904223u) & (n - 1);
    v[x] = next;
    x = next;
  }
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < steps; ++i) x = v[x];
  const std::int64_t t1 = now_ns();
  g_sink = g_sink + x;
  return static_cast<double>(t1 - t0) / 1e9;
}

/// A hold loop on a 16 Ki-entry binary heap: pop the earliest key, write
/// into an 8 MiB table at a place the key selects, push a later key.
double heap_hold(std::uint64_t steps) {
  constexpr std::uint32_t kTableWords = 1u << 21;  // 8 MiB
  Pages table(kTableWords);
  std::uint32_t* t = table.data();
  std::fill(t, t + kTableWords, 0u);  // fault the pages in before timing
  dcdl::Rng rng(12345);
  std::vector<std::uint64_t> heap;
  for (int i = 0; i < 16384; ++i) heap.push_back(rng.next() >> 24);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  std::uint64_t acc = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < steps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::uint64_t key = heap.back();
    t[key & (kTableWords - 1)] += static_cast<std::uint32_t>(key);
    acc += t[(key >> 21) & (kTableWords - 1)];
    heap.back() = key + (rng.next() >> 40);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const std::int64_t t1 = now_ns();
  g_sink = g_sink + acc;
  return static_cast<double>(t1 - t0) / 1e9;
}

double arithmetic(std::uint64_t steps) {
  std::uint64_t x = 1, acc = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc ^= x >> 33;
    acc = (acc << 1) | (acc >> 63);
  }
  const std::int64_t t1 = now_ns();
  g_sink = g_sink + acc;
  return static_cast<double>(t1 - t0) / 1e9;
}

}  // namespace

double calibration_kernel_seconds() {
  // The heap hold loop, closest to the event loop that dominates three of
  // the four workloads, takes about 70 % of the kernel's time; weighted so,
  // the kernel tracked the workloads' slow states better than with equal
  // shares or with page faults included.
  return chase(1u << 16, 3'000'000) +  // 256 KiB: L2
         chase(1u << 21, 100'000) +    // 8 MiB: L3 and TLB misses
         heap_hold(800'000) + arithmetic(7'500'000);
}

void reset_peak_rss() {
  // Writing 5 to clear_refs sets VmHWM to the current resident set.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
