/**
 * @file
 * The frozen reference kernel: a fixed block of CPU work shaped like
 * the simulator's hot path (binary-heap pop/push, hash lookups, exp)
 * over an L2-resident working set.
 *
 * The benchmark runs one block before every Session construction and
 * every 0.25 s of replay host time, and scales each measured stretch
 * by how slow the block before it ran relative to kRefNominalSeconds
 * (run.py), which cancels host-speed drift that hits both. Changing
 * the kernel or its nominal time re-bases every normalized host
 * metric, so both are frozen: edit them only together with a fresh
 * baseline.
 */

#ifndef PERFBENCH_REFKERNEL_HH
#define PERFBENCH_REFKERNEL_HH

#include <cstdint>

namespace perfbench
{

/** Block time of one runBlock() on the host the benchmark was
 *  calibrated on (4-vCPU KVM guest, Xeon Sapphire Rapids, g++ 12 -O2). */
constexpr double kRefNominalSeconds = 0.015;

/** Owns the kernel's working set; every block does identical work. */
class RefKernel
{
  public:
    RefKernel();
    ~RefKernel();
    RefKernel(const RefKernel &) = delete;
    RefKernel &operator=(const RefKernel &) = delete;

    /** Run one block; returns its checksum, which is the same for
     *  every block (kRefBlockChecksum) unless the kernel is broken. */
    std::uint64_t runBlock();

  private:
    struct State;
    State *s_;
};

} // namespace perfbench

#endif // PERFBENCH_REFKERNEL_HH
