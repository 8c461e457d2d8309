/**
 * @file
 * Inter-stack SerDes link model.
 *
 * HMC stacks talk to each other and to the CPU over packetized serial
 * links (Table 3: SerDes @ 10 GHz, 160 Gb/s = 20 GB/s per direction).
 * Each directed link is a latency + next-free-time pipe; busy bits are
 * counted for the 3 pJ/bit busy / 1 pJ/bit idle energy model (Table 4).
 */

#ifndef MONDRIAN_NOC_SERDES_HH
#define MONDRIAN_NOC_SERDES_HH

#include <cstdint>

#include "common/types.hh"

namespace mondrian {

/** SerDes link configuration. */
struct SerDesConfig
{
    double gbytesPerSec = 20.0; ///< 160 Gb/s per direction
    Tick latency = 8000;        ///< end-to-end packet latency: 8 ns

    Tick
    psPerByte() const
    {
        return static_cast<Tick>(1000.0 / gbytesPerSec);
    }
};

/** One directed SerDes link. */
class SerDesLink
{
  public:
    explicit SerDesLink(const SerDesConfig &cfg = {})
        : cfg_(cfg), psPerByte_(cfg.psPerByte())
    {
    }

    /**
     * Transfer @p bytes entering at @p start.
     * @return tick the tail arrives at the far end.
     */
    Tick
    transfer(std::uint64_t bytes, Tick start)
    {
        Tick serialization = bytes * psPerByte_;
        Tick depart = start > free_ ? start : free_;
        free_ = depart + serialization;
        busyBits_ += bytes * 8;
        return depart + serialization + cfg_.latency;
    }

    /** Total bits serialized so far (for busy energy). */
    std::uint64_t busyBits() const { return busyBits_; }

    /** Next-free-time of the link (diagnostics). */
    Tick freeAt() const { return free_; }

    const SerDesConfig &config() const { return cfg_; }

  private:
    SerDesConfig cfg_;
    Tick psPerByte_; ///< cfg_.psPerByte(), hoisted off transfer()
    Tick free_ = 0;
    std::uint64_t busyBits_ = 0;
};

} // namespace mondrian

#endif // MONDRIAN_NOC_SERDES_HH
