#include "refkernel.hh"

#include <cmath>
#include <cstring>
#include <vector>

namespace perfbench
{

namespace
{

constexpr std::size_t kHeapSize = 8192;       // 8192 x 16 B = 128 KiB
constexpr std::size_t kHashSlots = 1u << 15;  // 32768 x 8 B = 256 KiB
constexpr int kOpsPerBlock = 340000;

std::uint64_t
splitmix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

struct Item
{
    double key;
    std::uint64_t tag;
};

} // namespace

struct RefKernel::State
{
    std::vector<Item> heap;
    std::vector<std::uint64_t> table;
};

RefKernel::RefKernel() : s_(new State)
{
    s_->heap.resize(kHeapSize);
    s_->table.resize(kHashSlots);
}

RefKernel::~RefKernel() { delete s_; }

std::uint64_t
RefKernel::runBlock()
{
    // Every block starts from the same state, so each does the same
    // work and yields the same checksum.
    std::vector<Item> &heap = s_->heap;
    std::vector<std::uint64_t> &table = s_->table;
    std::uint64_t rng = 0x5EED;
    for (std::size_t i = 0; i < kHeapSize; ++i)
        heap[i] = Item{static_cast<double>(splitmix(rng) >> 11), i};
    // Heapify (min-heap on key).
    auto siftDown = [&heap](std::size_t i) {
        const std::size_t n = heap.size();
        Item v = heap[i];
        for (;;) {
            std::size_t c = 2 * i + 1;
            if (c >= n)
                break;
            if (c + 1 < n && heap[c + 1].key < heap[c].key)
                ++c;
            if (!(heap[c].key < v.key))
                break;
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = v;
    };
    for (std::size_t i = kHeapSize / 2; i-- > 0;)
        siftDown(i);
    std::memset(table.data(), 0, table.size() * sizeof(table[0]));
    for (std::size_t i = 0; i < kHashSlots / 2; ++i) {
        std::uint64_t k = splitmix(rng) | 1;
        std::size_t slot = k & (kHashSlots - 1);
        while (table[slot] != 0)
            slot = (slot + 1) & (kHashSlots - 1);
        table[slot] = k;
    }

    std::uint64_t sum = 0;
    double acc = 0.0;
    for (int op = 0; op < kOpsPerBlock; ++op) {
        // Pop the minimum and push a successor, as an event queue does.
        Item top = heap[0];
        double grow = std::exp(-static_cast<double>(top.tag & 1023) /
                               256.0);
        acc += grow;
        heap[0] = Item{top.key + 1.0 + grow * 4096.0, top.tag + 1};
        siftDown(0);
        // Probe the table, as model/instance lookups do.
        std::uint64_t k = splitmix(rng) | 1;
        std::size_t slot = k & (kHashSlots - 1);
        while (table[slot] != 0 && table[slot] != k)
            slot = (slot + 1) & (kHashSlots - 1);
        sum += slot ^ top.tag;
    }
    return sum ^ static_cast<std::uint64_t>(acc);
}

} // namespace perfbench
