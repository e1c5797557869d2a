/**
 * @file
 * Backing storage for a DPU's memories: the 64 KB scratchpad (WRAM) and
 * the 64 MB local DRAM bank (MRAM). These classes model *storage* only;
 * cycle costs for moving data between them are charged by the Tasklet DMA
 * interface (Tasklet::dmaRead / Tasklet::dmaWrite).
 */

#ifndef PIM_SIM_MEMORY_HH
#define PIM_SIM_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "sim/types.hh"
#include "util/logging.hh"

namespace pim::sim {

/**
 * A flat byte-addressable memory with bounds-checked typed access.
 * Used for both WRAM and MRAM (they differ only in size and in the cost
 * model applied by the caller).
 */
class FlatMemory
{
  public:
    /** @param bytes capacity; @param name used in error messages. */
    FlatMemory(size_t bytes, const char *name);

    /** Capacity in bytes. */
    size_t size() const { return size_; }

    /** Read a trivially-copyable value at @p addr. */
    template <typename T>
    T
    read(MramAddr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(addr, sizeof(T));
        T value;
        std::memcpy(&value, data_.get() + addr, sizeof(T));
        return value;
    }

    /** Write a trivially-copyable value at @p addr. */
    template <typename T>
    void
    write(MramAddr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(addr, sizeof(T));
        std::memcpy(data_.get() + addr, &value, sizeof(T));
    }

    /** Bulk copy out of the memory. */
    void readBytes(MramAddr addr, void *dst, size_t n) const;

    /** Bulk copy into the memory. */
    void writeBytes(MramAddr addr, const void *src, size_t n);

    /** memmove within the memory (used by the CSR shift model). */
    void moveBytes(MramAddr dst, MramAddr src, size_t n);

    /** Zero-fill a range. */
    void fill(MramAddr addr, size_t n, uint8_t value);

    /**
     * Drop the backing store and reallocate it lazily zeroed: returns
     * every touched page to the OS. Contents are lost; capacity is
     * unchanged. Used to bound peak memory when thousands of DPUs are
     * simulated once and reduced (Dpu::reclaimMemory, called by the
     * graph-update launches once a shard's results are read).
     */
    void reset();

    /**
     * Best-effort NUMA placement: bind this memory's pages to the node
     * of the CPU the calling thread runs on (util::
     * bindMemoryToCurrentNode). Called by the owning worker of a pinned
     * ParallelDpuEngine so a DPU's bank lives next to the core that
     * simulates it. No-op (returns false) on single-node hosts,
     * non-Linux builds, or when PIM_SIM_NUMA is disabled; simulation
     * results never depend on it.
     */
    bool bindToCallingThread();

    /** Raw pointer for read-only inspection in tests. */
    const uint8_t *raw() const { return data_.get(); }

  private:
    void checkRange(MramAddr addr, size_t n) const;

    /* calloc-backed so large banks are lazily zeroed by the kernel:
     * materializing thousands of 64 MB DPUs costs address space, not
     * page faults, which is what makes full-system (sample = 0)
     * parallel sweeps tractable. */
    std::unique_ptr<uint8_t[], void (*)(void *)> data_;
    size_t size_;
    const char *name_;
};

} // namespace pim::sim

#endif // PIM_SIM_MEMORY_HH
